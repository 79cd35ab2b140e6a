//! The pluggable bucket-storage abstraction behind [`crate::CuckooFilter`].
//!
//! Every filter operation touches bucket storage through exactly one interface:
//! [`BucketStore`], implemented by two backends with identical *membership* semantics
//! but different representations:
//!
//! * [`PackedBuckets`] — the default: four 16-bit fingerprint lanes per word, SWAR
//!   whole-bucket compares, slot order preserved across mutations.
//! * [`SemisortBuckets`] — the §4.2 semi-sorting encoding made operational: each
//!   bucket's fingerprints are kept canonically sorted and their 4-bit prefixes are
//!   stored as a single combinatorial rank, saving
//!   [`crate::semisort::bits_saved_per_entry`]`(b)` bits per slot (1 bit at `b = 4`).
//!
//! The backends differ in *slot arrangement* (packed preserves insertion slots,
//! semisort canonicalizes to sorted order), but every pair-level question a cuckoo
//! filter asks — does this bucket pair hold κ, how many copies, remove one copy —
//! answers identically, which is why a filter can swap representation without changing
//! observable behavior as long as its insert paths succeed. The choice is a runtime
//! [`StorageKind`] knob (an enum dispatch, [`AnyBuckets`]) rather than a generic
//! parameter so one `CuckooFilter` type serves both backends and the builder facade
//! can select storage from configuration.
//!
//! [`SemisortBuckets`] cannot back CCF entries: it reorders a bucket's slots on every
//! mutation, and the CCF entry table's payload slab, indexed by slot, cannot follow
//! that reordering. The CCF variants therefore always keep their fingerprints in
//! [`PackedBuckets`]; the knob selects the backend of the key-only filters they derive.

use crate::packed::PackedBuckets;
use crate::semisort::SemisortBuckets;

/// Which bucket-storage backend a filter uses.
///
/// Defaults to [`StorageKind::Packed`]. [`StorageKind::from_env`] lets a test harness
/// flip the whole suite to the compressed backend via the `CCF_STORAGE` environment
/// variable; parameter-struct `Default`s consult it so the CI storage matrix needs no
/// per-test plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageKind {
    /// Bit-packed 16-bit lanes with SWAR probes ([`PackedBuckets`]) — the default.
    #[default]
    Packed,
    /// Semi-sorted buckets with rank-encoded 4-bit prefixes ([`SemisortBuckets`]),
    /// saving [`crate::semisort::bits_saved_per_entry`]`(b)` stored bits per slot.
    /// Requires `entries_per_bucket ≤` [`MAX_SEMISORT_ENTRIES`].
    Semisort,
}

/// Widest bucket the semisort backend supports: the rank decode table has
/// C(15 + b, b) entries, which stays cache-friendly up to `b = 8` (490 314 ranks,
/// the paper's largest evaluated bucket) and grows combinatorially beyond it.
pub const MAX_SEMISORT_ENTRIES: usize = 8;

/// An unrecognized bucket-storage name (from `CCF_STORAGE` or a config string).
///
/// Produced by [`StorageKind::try_from_env`] and `StorageKind::from_str` so that
/// startup paths (builders, daemons) can reject a typo'd backend selection with a
/// typed error instead of silently serving from the default backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownStorageKind {
    /// The rejected spelling.
    pub value: String,
}

impl std::fmt::Display for UnknownStorageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unrecognized storage backend {:?}; expected \"packed\", \"semisort\" or \
             \"compressed\"",
            self.value
        )
    }
}

impl std::error::Error for UnknownStorageKind {}

impl std::str::FromStr for StorageKind {
    type Err = UnknownStorageKind;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "packed" => Ok(StorageKind::Packed),
            "semisort" | "compressed" => Ok(StorageKind::Semisort),
            other => Err(UnknownStorageKind {
                value: other.to_string(),
            }),
        }
    }
}

impl StorageKind {
    /// Resolve the backend from the `CCF_STORAGE` environment variable:
    /// `semisort` (or `compressed`) selects [`StorageKind::Semisort`]; anything else —
    /// including unset — selects [`StorageKind::Packed`]. Read once and cached, so a
    /// process cannot observe a mid-run flip.
    ///
    /// This is the *lenient* resolution used by parameter-struct `Default`s, which
    /// must be infallible; startup paths that can report errors (the `CcfBuilder`
    /// facade, the `ccf-service` daemon) should call [`StorageKind::try_from_env`]
    /// instead, which rejects unrecognized values rather than silently serving from
    /// the packed default.
    pub fn from_env() -> Self {
        static KIND: std::sync::OnceLock<StorageKind> = std::sync::OnceLock::new();
        *KIND.get_or_init(|| {
            Self::resolve_env_value(std::env::var("CCF_STORAGE").ok().as_deref())
                .unwrap_or_default()
        })
    }

    /// Strict form of [`StorageKind::from_env`]: an *unset* `CCF_STORAGE` still
    /// defaults to [`StorageKind::Packed`], but a set-and-unrecognized value is a
    /// typed [`UnknownStorageKind`] error instead of a silent fallback. Not cached —
    /// startup paths call this once and either abort or proceed.
    pub fn try_from_env() -> Result<Self, UnknownStorageKind> {
        Self::resolve_env_value(std::env::var("CCF_STORAGE").ok().as_deref())
    }

    /// The pure resolution rule behind [`StorageKind::try_from_env`], taking the
    /// environment value explicitly so both legs are unit-testable without mutating
    /// process-global environment state.
    pub fn resolve_env_value(value: Option<&str>) -> Result<Self, UnknownStorageKind> {
        match value {
            None | Some("") => Ok(StorageKind::default()),
            Some(v) => v.parse(),
        }
    }

    /// Stable one-byte encoding for snapshot images (the enum's declaration order is
    /// not a wire contract; this is).
    pub fn tag(self) -> u8 {
        match self {
            StorageKind::Packed => 0,
            StorageKind::Semisort => 1,
        }
    }

    /// Inverse of [`StorageKind::tag`]; `None` for bytes no release has written.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(StorageKind::Packed),
            1 => Some(StorageKind::Semisort),
            _ => None,
        }
    }
}

impl std::fmt::Display for StorageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageKind::Packed => write!(f, "packed"),
            StorageKind::Semisort => write!(f, "semisort"),
        }
    }
}

/// Why a raw-word storage image could not be imported. Every variant names the exact
/// structural inconsistency, so snapshot loaders can distinguish a truncated file from
/// a counter that disagrees with the words it summarizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreImportError {
    /// The word array's length does not match the bucket geometry.
    WordLenMismatch {
        /// Words required by `num_buckets · words_per_bucket` (plus padding, if any).
        expected: usize,
        /// Words supplied.
        got: usize,
    },
    /// The occupancy-counter array's length does not equal the bucket count.
    CountLenMismatch {
        /// `num_buckets`.
        expected: usize,
        /// Counters supplied.
        got: usize,
    },
    /// A per-bucket counter exceeds the bucket's slot capacity.
    CountOutOfRange {
        /// The offending bucket index.
        bucket: usize,
        /// The counter value.
        got: u8,
        /// Slots per bucket.
        max: usize,
    },
    /// A counter disagrees with the occupancy derived from the raw words themselves
    /// (a corrupted image whose lengths happen to line up).
    OccupancyMismatch {
        /// The first disagreeing bucket.
        bucket: usize,
        /// The stored counter.
        stored: usize,
        /// Occupancy recounted from the words.
        derived: usize,
    },
    /// `entries_per_bucket` is outside the backend's supported range.
    UnsupportedBucketWidth {
        /// The rejected width.
        entries_per_bucket: usize,
    },
}

impl std::fmt::Display for StoreImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreImportError::WordLenMismatch { expected, got } => {
                write!(
                    f,
                    "storage image has {got} words, geometry needs {expected}"
                )
            }
            StoreImportError::CountLenMismatch { expected, got } => {
                write!(f, "storage image has {got} counters for {expected} buckets")
            }
            StoreImportError::CountOutOfRange { bucket, got, max } => write!(
                f,
                "bucket {bucket} claims {got} occupied slots but holds at most {max}"
            ),
            StoreImportError::OccupancyMismatch {
                bucket,
                stored,
                derived,
            } => write!(
                f,
                "bucket {bucket} counter says {stored} occupied slots, raw words say {derived}"
            ),
            StoreImportError::UnsupportedBucketWidth { entries_per_bucket } => write!(
                f,
                "entries_per_bucket {entries_per_bucket} is outside the backend's supported range"
            ),
        }
    }
}

impl std::error::Error for StoreImportError {}

/// The storage interface a cuckoo filter drives: insert/kick (`try_insert`, `swap`),
/// growth remap (`take`, `extend_buckets`), deletion (`remove_one`), the probe kernel
/// (`prefetch`, `contains_pair`) and occupancy/size accounting.
///
/// # Slot semantics
///
/// Slot indices `0..entries_per_bucket` address a bucket's entries, but *which*
/// fingerprint a given index holds is backend-defined: [`PackedBuckets`] preserves
/// physical slots across mutations, while [`SemisortBuckets`] re-canonicalizes every
/// bucket to `(prefix, remainder)`-sorted order (empties first). Callers may rely on
/// slot indices only within the span between two mutations of that bucket — exactly
/// how the kick loop and the growth remap use them. All *value*-level operations
/// (`contains`, `count`, `remove_one`) are representation-independent.
pub trait BucketStore {
    /// Number of buckets.
    fn num_buckets(&self) -> usize;
    /// Slots per bucket (the `b` parameter).
    fn entries_per_bucket(&self) -> usize;
    /// Total occupied slots — O(1), maintained not scanned.
    fn occupied(&self) -> usize;
    /// Occupied slots in `bucket` — O(1).
    fn bucket_len(&self, bucket: usize) -> usize;
    /// Whether every slot of `bucket` is occupied — O(1).
    fn is_full(&self, bucket: usize) -> bool;
    /// Whether `bucket` has no occupied slots — O(1).
    fn is_bucket_empty(&self, bucket: usize) -> bool;
    /// Per-bucket occupancy counters, one byte per bucket, for
    /// [`crate::OccupancyStats`] aggregation.
    fn counts(&self) -> &[u8];
    /// Best-effort prefetch of `bucket`'s backing words (the batch kernel's prefetch
    /// pass); a pure performance hint.
    fn prefetch(&self, bucket: usize);
    /// Fingerprint stored at `slot` of `bucket` (0 if empty).
    fn get(&self, bucket: usize, slot: usize) -> u16;
    /// Insert `fp` into a free slot of `bucket`; `false` if the bucket is full.
    fn try_insert(&mut self, bucket: usize, fp: u16) -> bool;
    /// Whether `bucket` holds `fp`.
    fn contains(&self, bucket: usize, fp: u16) -> bool;
    /// Whether either bucket of a candidate pair holds `fp` — the whole-pair
    /// membership probe.
    fn contains_pair(&self, bucket: usize, alt: usize, fp: u16) -> bool;
    /// Number of copies of `fp` in `bucket`.
    fn count(&self, bucket: usize, fp: u16) -> usize;
    /// Remove one copy of `fp` from `bucket`; `true` if a copy was removed.
    fn remove_one(&mut self, bucket: usize, fp: u16) -> bool;
    /// Empty `slot` of `bucket`, returning the fingerprint it held (0 if empty) — the
    /// growth remap's move primitive.
    fn take(&mut self, bucket: usize, slot: usize) -> u16;
    /// Replace the fingerprint at `slot` of `bucket` with `fp`, returning the previous
    /// occupant — the kick primitive.
    fn swap(&mut self, bucket: usize, slot: usize, fp: u16) -> u16;
    /// The slots of `bucket` including empties, in the backend's slot order.
    fn bucket_slots(&self, bucket: usize) -> Vec<u16>;
    /// Append `extra` empty buckets (capacity doubling passes `extra == num_buckets`).
    fn extend_buckets(&mut self, extra: usize);
    /// Recount occupancy from the raw representation, bypassing the maintained
    /// counters (drift tests only).
    fn recount(&self) -> (usize, Vec<usize>);
    /// Actual allocated bytes of the bucket storage (backing words plus occupancy
    /// counters; excludes constant-size shared metadata such as the semisort decode
    /// table, which does not scale with the filter).
    fn heap_bytes(&self) -> usize;
}

/// Runtime-dispatched bucket storage: the concrete backend behind a
/// [`crate::CuckooFilter`], selected by [`StorageKind`] at construction.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyBuckets {
    /// The default SWAR-probed packed layout.
    Packed(PackedBuckets),
    /// The semisort-compressed layout.
    Semisort(SemisortBuckets),
}

impl AnyBuckets {
    /// Create empty storage of the chosen backend.
    ///
    /// # Panics
    /// Panics if `entries_per_bucket` is outside the chosen backend's supported range
    /// (see [`PackedBuckets::new`] and [`SemisortBuckets::new`]).
    pub fn new(kind: StorageKind, num_buckets: usize, entries_per_bucket: usize) -> Self {
        match kind {
            StorageKind::Packed => {
                AnyBuckets::Packed(PackedBuckets::new(num_buckets, entries_per_bucket))
            }
            StorageKind::Semisort => {
                AnyBuckets::Semisort(SemisortBuckets::new(num_buckets, entries_per_bucket))
            }
        }
    }

    /// Which backend this storage is.
    pub fn kind(&self) -> StorageKind {
        match self {
            AnyBuckets::Packed(_) => StorageKind::Packed,
            AnyBuckets::Semisort(_) => StorageKind::Semisort,
        }
    }

    /// The backing words of the whole structure, in bucket order — the zero-copy
    /// snapshot export. Together with [`BucketStore::counts`] (and the geometry the
    /// caller already knows) this is the *complete* mutable state of either backend:
    /// [`AnyBuckets::from_raw_parts`] rebuilds a bit-identical store from it.
    pub fn raw_words(&self) -> &[u64] {
        match self {
            AnyBuckets::Packed(s) => s.raw_words(),
            AnyBuckets::Semisort(s) => s.raw_words(),
        }
    }

    /// Rebuild storage from a raw image captured by [`AnyBuckets::raw_words`] and
    /// [`BucketStore::counts`]. Validates lengths, per-bucket counter ranges, and that
    /// the counters agree with an occupancy recount of the words themselves, so a
    /// corrupted image is a typed [`StoreImportError`] — never a store that probes
    /// incorrectly later.
    pub fn from_raw_parts(
        kind: StorageKind,
        num_buckets: usize,
        entries_per_bucket: usize,
        words: Vec<u64>,
        counts: Vec<u8>,
    ) -> Result<Self, StoreImportError> {
        match kind {
            StorageKind::Packed => {
                PackedBuckets::from_raw_parts(num_buckets, entries_per_bucket, words, counts)
                    .map(AnyBuckets::Packed)
            }
            StorageKind::Semisort => {
                SemisortBuckets::from_raw_parts(num_buckets, entries_per_bucket, words, counts)
                    .map(AnyBuckets::Semisort)
            }
        }
    }
}

/// Delegate every [`BucketStore`] method to the active backend.
macro_rules! dispatch {
    ($self:ident, $s:ident => $e:expr) => {
        match $self {
            AnyBuckets::Packed($s) => $e,
            AnyBuckets::Semisort($s) => $e,
        }
    };
}

impl BucketStore for AnyBuckets {
    #[inline]
    fn num_buckets(&self) -> usize {
        dispatch!(self, s => s.num_buckets())
    }
    #[inline]
    fn entries_per_bucket(&self) -> usize {
        dispatch!(self, s => s.entries_per_bucket())
    }
    #[inline]
    fn occupied(&self) -> usize {
        dispatch!(self, s => s.occupied())
    }
    #[inline]
    fn bucket_len(&self, bucket: usize) -> usize {
        dispatch!(self, s => s.bucket_len(bucket))
    }
    #[inline]
    fn is_full(&self, bucket: usize) -> bool {
        dispatch!(self, s => s.is_full(bucket))
    }
    #[inline]
    fn is_bucket_empty(&self, bucket: usize) -> bool {
        dispatch!(self, s => s.is_bucket_empty(bucket))
    }
    #[inline]
    fn counts(&self) -> &[u8] {
        dispatch!(self, s => s.counts())
    }
    #[inline]
    fn prefetch(&self, bucket: usize) {
        dispatch!(self, s => s.prefetch(bucket))
    }
    #[inline]
    fn get(&self, bucket: usize, slot: usize) -> u16 {
        dispatch!(self, s => s.get(bucket, slot))
    }
    #[inline]
    fn try_insert(&mut self, bucket: usize, fp: u16) -> bool {
        dispatch!(self, s => s.try_insert(bucket, fp))
    }
    #[inline]
    fn contains(&self, bucket: usize, fp: u16) -> bool {
        dispatch!(self, s => s.contains(bucket, fp))
    }
    #[inline]
    fn contains_pair(&self, bucket: usize, alt: usize, fp: u16) -> bool {
        dispatch!(self, s => s.contains_pair(bucket, alt, fp))
    }
    #[inline]
    fn count(&self, bucket: usize, fp: u16) -> usize {
        dispatch!(self, s => s.count(bucket, fp))
    }
    #[inline]
    fn remove_one(&mut self, bucket: usize, fp: u16) -> bool {
        dispatch!(self, s => s.remove_one(bucket, fp))
    }
    #[inline]
    fn take(&mut self, bucket: usize, slot: usize) -> u16 {
        dispatch!(self, s => s.take(bucket, slot))
    }
    #[inline]
    fn swap(&mut self, bucket: usize, slot: usize, fp: u16) -> u16 {
        dispatch!(self, s => s.swap(bucket, slot, fp))
    }
    #[inline]
    fn bucket_slots(&self, bucket: usize) -> Vec<u16> {
        dispatch!(self, s => s.bucket_slots(bucket))
    }
    #[inline]
    fn extend_buckets(&mut self, extra: usize) {
        dispatch!(self, s => s.extend_buckets(extra))
    }
    fn recount(&self) -> (usize, Vec<usize>) {
        dispatch!(self, s => s.recount())
    }
    fn heap_bytes(&self) -> usize {
        dispatch!(self, s => s.heap_bytes())
    }
}

impl BucketStore for PackedBuckets {
    #[inline]
    fn num_buckets(&self) -> usize {
        PackedBuckets::num_buckets(self)
    }
    #[inline]
    fn entries_per_bucket(&self) -> usize {
        PackedBuckets::entries_per_bucket(self)
    }
    #[inline]
    fn occupied(&self) -> usize {
        PackedBuckets::occupied(self)
    }
    #[inline]
    fn bucket_len(&self, bucket: usize) -> usize {
        PackedBuckets::bucket_len(self, bucket)
    }
    #[inline]
    fn is_full(&self, bucket: usize) -> bool {
        PackedBuckets::is_full(self, bucket)
    }
    #[inline]
    fn is_bucket_empty(&self, bucket: usize) -> bool {
        PackedBuckets::is_bucket_empty(self, bucket)
    }
    #[inline]
    fn counts(&self) -> &[u8] {
        PackedBuckets::counts(self)
    }
    #[inline]
    fn prefetch(&self, bucket: usize) {
        PackedBuckets::prefetch(self, bucket)
    }
    #[inline]
    fn get(&self, bucket: usize, slot: usize) -> u16 {
        PackedBuckets::get(self, bucket, slot)
    }
    #[inline]
    fn try_insert(&mut self, bucket: usize, fp: u16) -> bool {
        PackedBuckets::try_insert(self, bucket, fp)
    }
    #[inline]
    fn contains(&self, bucket: usize, fp: u16) -> bool {
        PackedBuckets::contains(self, bucket, fp)
    }
    #[inline]
    fn contains_pair(&self, bucket: usize, alt: usize, fp: u16) -> bool {
        PackedBuckets::contains_pair(self, bucket, alt, fp)
    }
    #[inline]
    fn count(&self, bucket: usize, fp: u16) -> usize {
        PackedBuckets::count(self, bucket, fp)
    }
    #[inline]
    fn remove_one(&mut self, bucket: usize, fp: u16) -> bool {
        PackedBuckets::remove_one(self, bucket, fp)
    }
    #[inline]
    fn take(&mut self, bucket: usize, slot: usize) -> u16 {
        PackedBuckets::take(self, bucket, slot)
    }
    #[inline]
    fn swap(&mut self, bucket: usize, slot: usize, fp: u16) -> u16 {
        PackedBuckets::swap(self, bucket, slot, fp)
    }
    #[inline]
    fn bucket_slots(&self, bucket: usize) -> Vec<u16> {
        PackedBuckets::bucket_slots(self, bucket)
    }
    #[inline]
    fn extend_buckets(&mut self, extra: usize) {
        PackedBuckets::extend_buckets(self, extra)
    }
    fn recount(&self) -> (usize, Vec<usize>) {
        PackedBuckets::recount(self)
    }
    fn heap_bytes(&self) -> usize {
        PackedBuckets::heap_bytes(self)
    }
}

impl BucketStore for SemisortBuckets {
    #[inline]
    fn num_buckets(&self) -> usize {
        SemisortBuckets::num_buckets(self)
    }
    #[inline]
    fn entries_per_bucket(&self) -> usize {
        SemisortBuckets::entries_per_bucket(self)
    }
    #[inline]
    fn occupied(&self) -> usize {
        SemisortBuckets::occupied(self)
    }
    #[inline]
    fn bucket_len(&self, bucket: usize) -> usize {
        SemisortBuckets::bucket_len(self, bucket)
    }
    #[inline]
    fn is_full(&self, bucket: usize) -> bool {
        SemisortBuckets::is_full(self, bucket)
    }
    #[inline]
    fn is_bucket_empty(&self, bucket: usize) -> bool {
        SemisortBuckets::is_bucket_empty(self, bucket)
    }
    #[inline]
    fn counts(&self) -> &[u8] {
        SemisortBuckets::counts(self)
    }
    #[inline]
    fn prefetch(&self, bucket: usize) {
        SemisortBuckets::prefetch(self, bucket)
    }
    #[inline]
    fn get(&self, bucket: usize, slot: usize) -> u16 {
        SemisortBuckets::get(self, bucket, slot)
    }
    #[inline]
    fn try_insert(&mut self, bucket: usize, fp: u16) -> bool {
        SemisortBuckets::try_insert(self, bucket, fp)
    }
    #[inline]
    fn contains(&self, bucket: usize, fp: u16) -> bool {
        SemisortBuckets::contains(self, bucket, fp)
    }
    #[inline]
    fn contains_pair(&self, bucket: usize, alt: usize, fp: u16) -> bool {
        SemisortBuckets::contains_pair(self, bucket, alt, fp)
    }
    #[inline]
    fn count(&self, bucket: usize, fp: u16) -> usize {
        SemisortBuckets::count(self, bucket, fp)
    }
    #[inline]
    fn remove_one(&mut self, bucket: usize, fp: u16) -> bool {
        SemisortBuckets::remove_one(self, bucket, fp)
    }
    #[inline]
    fn take(&mut self, bucket: usize, slot: usize) -> u16 {
        SemisortBuckets::take(self, bucket, slot)
    }
    #[inline]
    fn swap(&mut self, bucket: usize, slot: usize, fp: u16) -> u16 {
        SemisortBuckets::swap(self, bucket, slot, fp)
    }
    #[inline]
    fn bucket_slots(&self, bucket: usize) -> Vec<u16> {
        SemisortBuckets::bucket_slots(self, bucket)
    }
    #[inline]
    fn extend_buckets(&mut self, extra: usize) {
        SemisortBuckets::extend_buckets(self, extra)
    }
    fn recount(&self) -> (usize, Vec<usize>) {
        SemisortBuckets::recount(self)
    }
    fn heap_bytes(&self) -> usize {
        SemisortBuckets::heap_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_through_any_buckets() {
        let p = AnyBuckets::new(StorageKind::Packed, 4, 4);
        assert_eq!(p.kind(), StorageKind::Packed);
        let s = AnyBuckets::new(StorageKind::Semisort, 4, 4);
        assert_eq!(s.kind(), StorageKind::Semisort);
        assert_eq!(StorageKind::default(), StorageKind::Packed);
    }

    #[test]
    fn env_resolution_accepts_every_documented_spelling() {
        // The pure resolution rule is tested directly: mutating CCF_STORAGE in-process
        // would race other tests and fight the from_env OnceLock cache.
        assert_eq!(
            StorageKind::resolve_env_value(None),
            Ok(StorageKind::Packed)
        );
        assert_eq!(
            StorageKind::resolve_env_value(Some("")),
            Ok(StorageKind::Packed)
        );
        assert_eq!(
            StorageKind::resolve_env_value(Some("packed")),
            Ok(StorageKind::Packed)
        );
        assert_eq!(
            StorageKind::resolve_env_value(Some("semisort")),
            Ok(StorageKind::Semisort)
        );
        assert_eq!(
            StorageKind::resolve_env_value(Some("compressed")),
            Ok(StorageKind::Semisort)
        );
    }

    #[test]
    fn env_resolution_rejects_unknown_values_with_typed_error() {
        let err = StorageKind::resolve_env_value(Some("zstd")).unwrap_err();
        assert_eq!(err.value, "zstd");
        let msg = err.to_string();
        assert!(msg.contains("zstd") && msg.contains("packed"), "{msg}");
        // Spellings are exact: case variants are rejected, not silently accepted.
        assert!(StorageKind::resolve_env_value(Some("Packed")).is_err());
        assert!("semisort".parse::<StorageKind>().is_ok());
        assert!("semi-sort".parse::<StorageKind>().is_err());
    }

    #[test]
    fn storage_tags_are_a_stable_wire_contract() {
        assert_eq!(StorageKind::Packed.tag(), 0);
        assert_eq!(StorageKind::Semisort.tag(), 1);
        for kind in [StorageKind::Packed, StorageKind::Semisort] {
            assert_eq!(StorageKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(StorageKind::from_tag(2), None);
    }

    #[test]
    fn raw_round_trip_rebuilds_identical_stores() {
        for kind in [StorageKind::Packed, StorageKind::Semisort] {
            let mut b = AnyBuckets::new(kind, 8, 4);
            for fp in [3u16, 9, 0xFFF, 3] {
                assert!(b.try_insert(usize::from(fp) % 8, fp));
            }
            let rebuilt =
                AnyBuckets::from_raw_parts(kind, 8, 4, b.raw_words().to_vec(), b.counts().to_vec())
                    .unwrap();
            assert_eq!(rebuilt, b);
        }
    }

    #[test]
    fn raw_import_rejects_inconsistent_images() {
        let b = AnyBuckets::new(StorageKind::Packed, 8, 4);
        let words = b.raw_words().to_vec();
        let counts = b.counts().to_vec();
        assert!(matches!(
            AnyBuckets::from_raw_parts(
                StorageKind::Packed,
                8,
                4,
                words[1..].to_vec(),
                counts.clone()
            ),
            Err(StoreImportError::WordLenMismatch { .. })
        ));
        assert!(matches!(
            AnyBuckets::from_raw_parts(
                StorageKind::Packed,
                8,
                4,
                words.clone(),
                counts[1..].to_vec()
            ),
            Err(StoreImportError::CountLenMismatch { .. })
        ));
        let mut high = counts.clone();
        high[0] = 5;
        assert!(matches!(
            AnyBuckets::from_raw_parts(StorageKind::Packed, 8, 4, words.clone(), high),
            Err(StoreImportError::CountOutOfRange {
                bucket: 0,
                got: 5,
                max: 4
            })
        ));
        // A counter claiming an occupant the words don't contain is caught by the
        // recount cross-check.
        let mut lying = counts.clone();
        lying[3] = 1;
        assert!(matches!(
            AnyBuckets::from_raw_parts(StorageKind::Packed, 8, 4, words.clone(), lying),
            Err(StoreImportError::OccupancyMismatch {
                bucket: 3,
                stored: 1,
                derived: 0
            })
        ));
        assert!(matches!(
            AnyBuckets::from_raw_parts(StorageKind::Semisort, 8, 9, vec![], vec![]),
            Err(StoreImportError::UnsupportedBucketWidth {
                entries_per_bucket: 9
            })
        ));
    }

    #[test]
    fn dispatch_reaches_both_backends() {
        for kind in [StorageKind::Packed, StorageKind::Semisort] {
            let mut b = AnyBuckets::new(kind, 2, 4);
            assert!(b.try_insert(0, 0x123));
            assert!(b.contains(0, 0x123));
            assert!(b.contains_pair(1, 0, 0x123));
            assert_eq!(b.count(0, 0x123), 1);
            assert_eq!(b.occupied(), 1);
            assert_eq!(b.counts(), &[1, 0]);
            assert!(b.remove_one(0, 0x123));
            assert!(b.is_bucket_empty(0));
            b.extend_buckets(2);
            assert_eq!(b.num_buckets(), 4);
            assert!(b.heap_bytes() > 0, "{kind}: storage must report its bytes");
        }
    }

    #[test]
    fn display_matches_env_spelling() {
        assert_eq!(StorageKind::Packed.to_string(), "packed");
        assert_eq!(StorageKind::Semisort.to_string(), "semisort");
    }
}
