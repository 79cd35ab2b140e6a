//! Bit-packed contiguous bucket storage with SWAR whole-bucket compares.
//!
//! The word-sized predecessor of this module stored each bucket as its own
//! `Vec<u16>`, so every probe pointer-chased two heap allocations and `len()` /
//! `is_full()` rescanned all slots. [`PackedBuckets`] instead holds all `m · b`
//! fingerprint slots in one contiguous `Vec<u64>` — four 16-bit fingerprints per word,
//! one word per bucket at the paper's `b = 4` — with per-bucket occupancy counters
//! maintained on every mutation, so occupancy questions are O(1) reads instead of slot
//! scans. The layout follows the compressed contiguous arrays of *Smaller and More
//! Flexible Cuckoo Filters* (Zentgraf et al.) and the simplified bucket-compare
//! structure of *Cuckoo Filter: Simplification and Analysis* (Eppstein).
//!
//! Membership probes are branchless SWAR: a fingerprint is broadcast to all four
//! lanes, XORed against the bucket word, and the classic zero-lane trick
//! (`(x - 0x0001…) & !x & 0x8000…`) reports whether any lane matched — no per-slot
//! branch, one or two word loads per bucket. An empty slot is lane value 0, which is
//! why fingerprint derivation guarantees κ ≠ 0; padding lanes of buckets with
//! `b % 4 ≠ 0` stay 0 and can never match a query.
//!
//! Slot semantics are bit-identical to the word-sized layout: slot `s` of bucket `B`
//! lives in lane `s % 4` of word `B · ⌈b/4⌉ + s / 4`, insertion fills the
//! lowest-numbered empty slot, and removal clears the lowest-numbered matching slot.

/// 16-bit lanes per storage word.
const LANES: usize = 4;
/// Low bit of every lane.
const LANE_LSB: u64 = 0x0001_0001_0001_0001;
/// High bit of every lane.
const LANE_MSB: u64 = 0x8000_8000_8000_8000;

/// Broadcast a fingerprint into all four lanes of a word.
#[inline(always)]
pub(crate) fn broadcast(fp: u16) -> u64 {
    u64::from(fp) * LANE_LSB
}

/// SWAR zero-lane detector: nonzero iff some 16-bit lane of `x` is zero. The result's
/// set bits are lane high bits; borrow propagation can set spurious high bits in lanes
/// *above* a true zero lane, so the value is exact for existence tests and its
/// lowest set bit always marks a true zero lane (the guarantees the probe and the
/// first-empty-slot search rely on).
#[inline(always)]
pub(crate) fn zero_lanes(x: u64) -> u64 {
    x.wrapping_sub(LANE_LSB) & !x & LANE_MSB
}

/// The slots of one bucket that hold one fingerprint, in slot order
/// ([`PackedBuckets::slots_of`]).
#[derive(Debug, Clone)]
pub struct SlotsOf<'a> {
    words: std::slice::Iter<'a, u64>,
    pattern: u64,
    /// First slot of the next word to load.
    next_slot: usize,
    /// First slot of the current word.
    slot: usize,
    /// High bit of each not-yet-returned matching lane of the current word.
    lanes: u64,
}

impl Iterator for SlotsOf<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.lanes == 0 {
            let x = self.words.next()? ^ self.pattern;
            // Exact zero-lane mask (no borrow crosses lanes): the high bit of each
            // lane is set iff that lane of the word equals the fingerprint.
            self.lanes = !(((x & !LANE_MSB) + !LANE_MSB) | x | !LANE_MSB);
            self.slot = self.next_slot;
            self.next_slot += LANES;
        }
        let lane = self.lanes.trailing_zeros() as usize / 16;
        self.lanes &= self.lanes - 1;
        Some(self.slot + lane)
    }
}

/// All `m · b` fingerprint slots of a cuckoo structure in one contiguous bit-packed
/// array, with O(1) maintained occupancy counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedBuckets {
    /// `num_buckets · words_per_bucket` words, 4 lanes each; lane 0 of a word is the
    /// lowest-numbered slot it covers.
    words: Vec<u64>,
    /// Occupied-slot count per bucket, maintained on every mutation.
    counts: Vec<u8>,
    /// Total occupied slots, maintained on every mutation.
    occupied: usize,
    /// Slots per bucket (the `b` parameter).
    entries_per_bucket: usize,
    /// Words per bucket: `⌈b / 4⌉`.
    words_per_bucket: usize,
}

impl PackedBuckets {
    /// Create empty storage for `num_buckets` buckets of `entries_per_bucket` slots.
    ///
    /// # Panics
    /// Panics if `entries_per_bucket` is 0 or exceeds 255 (the occupancy counters are
    /// a byte per bucket; the paper's configurations use `b ≤ 8`).
    pub fn new(num_buckets: usize, entries_per_bucket: usize) -> Self {
        assert!(entries_per_bucket > 0, "bucket must have at least one slot");
        assert!(
            entries_per_bucket <= u8::MAX as usize,
            "entries_per_bucket exceeds the u8 occupancy counter range"
        );
        let words_per_bucket = entries_per_bucket.div_ceil(LANES);
        Self {
            words: vec![0; num_buckets * words_per_bucket],
            counts: vec![0; num_buckets],
            occupied: 0,
            entries_per_bucket,
            words_per_bucket,
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.counts.len()
    }

    /// Slots per bucket (the `b` parameter).
    pub fn entries_per_bucket(&self) -> usize {
        self.entries_per_bucket
    }

    /// Total occupied slots across all buckets — O(1), maintained not scanned.
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Occupied slots in `bucket` — O(1), maintained not scanned.
    #[inline]
    pub fn bucket_len(&self, bucket: usize) -> usize {
        usize::from(self.counts[bucket])
    }

    /// Whether every slot of `bucket` is occupied — O(1).
    #[inline]
    pub fn is_full(&self, bucket: usize) -> bool {
        usize::from(self.counts[bucket]) == self.entries_per_bucket
    }

    /// Whether `bucket` has no occupied slots — O(1).
    #[inline]
    pub fn is_bucket_empty(&self, bucket: usize) -> bool {
        self.counts[bucket] == 0
    }

    /// Per-bucket occupancy counts, for [`crate::OccupancyStats`] aggregation — one
    /// byte read per bucket instead of a slot scan.
    pub fn bucket_counts(&self) -> impl Iterator<Item = usize> + '_ {
        self.counts.iter().map(|&c| usize::from(c))
    }

    /// Per-bucket occupancy counters, one byte per bucket.
    pub fn counts(&self) -> &[u8] {
        &self.counts
    }

    /// Bytes allocated for the bucket storage: the capacity of the packed fingerprint
    /// words plus that of the occupancy counters.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>() + self.counts.capacity()
    }

    /// The words backing `bucket` (exposed for analysis and the batch kernel's
    /// prefetch pass).
    #[inline]
    pub fn bucket_words(&self, bucket: usize) -> &[u64] {
        let start = bucket * self.words_per_bucket;
        &self.words[start..start + self.words_per_bucket]
    }

    /// First word index of `bucket` in the backing array.
    #[inline]
    fn word_base(&self, bucket: usize) -> usize {
        bucket * self.words_per_bucket
    }

    /// Best-effort prefetch of `bucket`'s words into L1. A pure performance hint for
    /// the batch kernel's prefetch pass; a no-op on non-x86_64 targets.
    #[inline(always)]
    pub fn prefetch(&self, bucket: usize) {
        crate::geometry::prefetch_index(&self.words, self.word_base(bucket));
    }

    /// Number of lanes of word `w` (within a bucket) that are real slots rather than
    /// padding: 4 for all but a trailing partial word.
    #[inline(always)]
    fn valid_lanes(&self, word_in_bucket: usize) -> usize {
        (self.entries_per_bucket - word_in_bucket * LANES).min(LANES)
    }

    /// High-bit mask covering the first `lanes` lanes of a word.
    #[inline(always)]
    fn lane_mask(lanes: usize) -> u64 {
        LANE_MSB >> (16 * (LANES - lanes))
    }

    /// Fingerprint stored at `slot` of `bucket` (0 if empty).
    #[inline]
    pub fn get(&self, bucket: usize, slot: usize) -> u16 {
        debug_assert!(slot < self.entries_per_bucket);
        let word = self.words[self.word_base(bucket) + slot / LANES];
        (word >> (16 * (slot % LANES))) as u16
    }

    /// Overwrite `slot` of `bucket` with `fp` (0 clears it), maintaining the counters.
    /// Returns the previous occupant.
    #[inline]
    fn replace(&mut self, bucket: usize, slot: usize, fp: u16) -> u16 {
        debug_assert!(slot < self.entries_per_bucket);
        let idx = self.word_base(bucket) + slot / LANES;
        let shift = 16 * (slot % LANES);
        let word = self.words[idx];
        let prev = (word >> shift) as u16;
        self.words[idx] = (word & !(0xFFFFu64 << shift)) | (u64::from(fp) << shift);
        match (prev == 0, fp == 0) {
            (true, false) => {
                self.counts[bucket] += 1;
                self.occupied += 1;
            }
            (false, true) => {
                self.counts[bucket] -= 1;
                self.occupied -= 1;
            }
            _ => {}
        }
        prev
    }

    /// Insert `fp` into the lowest-numbered free slot of `bucket`. Returns `true` on
    /// success, `false` if the bucket is full (an O(1) counter check, not a scan).
    ///
    /// # Panics
    /// Panics (debug) if `fp == 0`, which is reserved for empty slots.
    #[inline]
    pub fn try_insert(&mut self, bucket: usize, fp: u16) -> bool {
        debug_assert_ne!(fp, 0, "fingerprint 0 is reserved for empty slots");
        if self.is_full(bucket) {
            return false;
        }
        let base = self.word_base(bucket);
        for w in 0..self.words_per_bucket {
            // The lowest flagged lane of the zero-lane mask is always a true zero;
            // restrict the search to real (non-padding) lanes.
            let mask = zero_lanes(self.words[base + w]) & Self::lane_mask(self.valid_lanes(w));
            if mask != 0 {
                let lane = mask.trailing_zeros() as usize / 16;
                self.replace(bucket, w * LANES + lane, fp);
                return true;
            }
        }
        unreachable!("occupancy counter said the bucket had a free slot");
    }

    /// Whether `bucket` holds `fp`: a branchless SWAR compare over the bucket's words
    /// (XOR + zero-lane trick), no per-slot branch.
    #[inline]
    pub fn contains(&self, bucket: usize, fp: u16) -> bool {
        let pattern = broadcast(fp);
        let base = self.word_base(bucket);
        let mut acc = 0u64;
        for w in 0..self.words_per_bucket {
            acc |= zero_lanes(self.words[base + w] ^ pattern);
        }
        acc != 0
    }

    /// Whether either bucket of a candidate pair holds `fp` — the whole-pair membership
    /// probe, branchless across both buckets (one or two word loads each at `b ≤ 4`).
    #[inline]
    pub fn contains_pair(&self, bucket: usize, alt: usize, fp: u16) -> bool {
        let pattern = broadcast(fp);
        let (b1, b2) = (self.word_base(bucket), self.word_base(alt));
        let mut acc = 0u64;
        for w in 0..self.words_per_bucket {
            acc |= zero_lanes(self.words[b1 + w] ^ pattern);
            acc |= zero_lanes(self.words[b2 + w] ^ pattern);
        }
        acc != 0
    }

    /// Number of copies of `fp` in `bucket`.
    pub fn count(&self, bucket: usize, fp: u16) -> usize {
        self.slots_of(bucket, fp).count()
    }

    /// The slots of `bucket` holding `fp`, in slot order: one exact SWAR compare per
    /// word, then a walk over the matching lanes only. Empty and padding lanes hold 0,
    /// which no fingerprint equals.
    #[inline]
    pub fn slots_of(&self, bucket: usize, fp: u16) -> SlotsOf<'_> {
        SlotsOf {
            words: self.bucket_words(bucket).iter(),
            pattern: broadcast(fp),
            next_slot: 0,
            slot: 0,
            lanes: 0,
        }
    }

    /// Remove one copy of `fp` from `bucket` (the lowest-numbered matching slot).
    /// Returns `true` if a copy was removed.
    pub fn remove_one(&mut self, bucket: usize, fp: u16) -> bool {
        debug_assert_ne!(fp, 0);
        let pattern = broadcast(fp);
        let base = self.word_base(bucket);
        for w in 0..self.words_per_bucket {
            // Padding lanes hold 0 ≠ fp, so the lowest flagged lane is a true match
            // in a real slot.
            let mask = zero_lanes(self.words[base + w] ^ pattern);
            if mask != 0 {
                let lane = mask.trailing_zeros() as usize / 16;
                self.replace(bucket, w * LANES + lane, 0);
                return true;
            }
        }
        false
    }

    /// Empty `slot` of `bucket`, returning the fingerprint it held (0 if already
    /// empty). The growth remap's move primitive.
    #[inline]
    pub fn take(&mut self, bucket: usize, slot: usize) -> u16 {
        self.replace(bucket, slot, 0)
    }

    /// Replace the fingerprint at `slot` of `bucket` with `fp`, returning the previous
    /// occupant — the "kick" primitive of cuckoo insertion.
    ///
    /// # Panics
    /// Panics (debug) if `fp == 0`; use [`PackedBuckets::take`] to clear a slot.
    #[inline]
    pub fn swap(&mut self, bucket: usize, slot: usize, fp: u16) -> u16 {
        debug_assert_ne!(fp, 0);
        self.replace(bucket, slot, fp)
    }

    /// Iterate over the occupied fingerprints of `bucket` in slot order.
    pub fn iter_bucket(&self, bucket: usize) -> impl Iterator<Item = u16> + '_ {
        (0..self.entries_per_bucket)
            .map(move |s| self.get(bucket, s))
            .filter(|&fp| fp != 0)
    }

    /// The raw slots of `bucket` including empties, in slot order (used by snapshots
    /// and tests).
    pub fn bucket_slots(&self, bucket: usize) -> Vec<u16> {
        (0..self.entries_per_bucket)
            .map(|s| self.get(bucket, s))
            .collect()
    }

    /// Append `extra` empty buckets (capacity doubling passes `extra == num_buckets`).
    pub fn extend_buckets(&mut self, extra: usize) {
        self.words
            .resize(self.words.len() + extra * self.words_per_bucket, 0);
        self.counts.resize(self.counts.len() + extra, 0);
    }

    /// Recount occupancy from the raw words, bypassing the maintained counters. The
    /// drift proptests and debug assertions compare this against
    /// [`PackedBuckets::occupied`] / [`PackedBuckets::bucket_len`]; production paths
    /// never need it.
    pub fn recount(&self) -> (usize, Vec<usize>) {
        let per_bucket: Vec<usize> = (0..self.num_buckets())
            .map(|b| {
                (0..self.entries_per_bucket)
                    .filter(|&s| self.get(b, s) != 0)
                    .count()
            })
            .collect();
        (per_bucket.iter().sum(), per_bucket)
    }

    /// The raw storage words, for zero-copy snapshot export. The lane/slot layout is
    /// fixed by the module-level contract, so the words alone (plus the geometry the
    /// caller already knows) are the complete identity of the store.
    pub fn raw_words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild a store from an image captured by [`PackedBuckets::raw_words`] and
    /// [`PackedBuckets::counts`]. Validates the image shape and that the persisted
    /// counters agree with a full [`PackedBuckets::recount`] of the words, so a
    /// corrupted or mismatched image is rejected instead of producing a store whose
    /// O(1) occupancy answers disagree with its contents.
    pub fn from_raw_parts(
        num_buckets: usize,
        entries_per_bucket: usize,
        words: Vec<u64>,
        counts: Vec<u8>,
    ) -> Result<Self, StoreImportError> {
        if entries_per_bucket == 0 || entries_per_bucket > u8::MAX as usize {
            return Err(StoreImportError::UnsupportedBucketWidth { entries_per_bucket });
        }
        let words_per_bucket = entries_per_bucket.div_ceil(LANES);
        if words.len() != num_buckets * words_per_bucket {
            return Err(StoreImportError::WordLenMismatch {
                expected: num_buckets * words_per_bucket,
                got: words.len(),
            });
        }
        if counts.len() != num_buckets {
            return Err(StoreImportError::CountLenMismatch {
                expected: num_buckets,
                got: counts.len(),
            });
        }
        if let Some((bucket, &got)) = counts
            .iter()
            .enumerate()
            .find(|&(_, &c)| usize::from(c) > entries_per_bucket)
        {
            return Err(StoreImportError::CountOutOfRange {
                bucket,
                got,
                max: entries_per_bucket,
            });
        }
        let store = Self {
            words,
            occupied: counts.iter().map(|&c| usize::from(c)).sum(),
            counts,
            entries_per_bucket,
            words_per_bucket,
        };
        let (_, derived) = store.recount();
        for (bucket, (&stored, derived)) in store.counts.iter().zip(&derived).enumerate() {
            if usize::from(stored) != *derived {
                return Err(StoreImportError::OccupancyMismatch {
                    bucket,
                    stored: usize::from(stored),
                    derived: *derived,
                });
            }
        }
        Ok(store)
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
    /// `entries_per_bucket` is outside the supported `1..=255` range.
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
                "entries_per_bucket {entries_per_bucket} is outside the supported range"
            ),
        }
    }
}

impl std::error::Error for StoreImportError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_round_trip_rebuilds_identical_stores() {
        let mut b = PackedBuckets::new(8, 4);
        for fp in [3u16, 9, 0xFFF, 3] {
            assert!(b.try_insert(usize::from(fp) % 8, fp));
        }
        let rebuilt =
            PackedBuckets::from_raw_parts(8, 4, b.raw_words().to_vec(), b.counts().to_vec())
                .unwrap();
        assert_eq!(rebuilt, b);
    }

    #[test]
    fn raw_import_rejects_inconsistent_images() {
        let b = PackedBuckets::new(8, 4);
        let words = b.raw_words().to_vec();
        let counts = b.counts().to_vec();
        assert!(matches!(
            PackedBuckets::from_raw_parts(8, 4, words[1..].to_vec(), counts.clone()),
            Err(StoreImportError::WordLenMismatch { .. })
        ));
        assert!(matches!(
            PackedBuckets::from_raw_parts(8, 4, words.clone(), counts[1..].to_vec()),
            Err(StoreImportError::CountLenMismatch { .. })
        ));
        let mut high = counts.clone();
        high[0] = 5;
        assert!(matches!(
            PackedBuckets::from_raw_parts(8, 4, words.clone(), high),
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
            PackedBuckets::from_raw_parts(8, 4, words.clone(), lying),
            Err(StoreImportError::OccupancyMismatch {
                bucket: 3,
                stored: 1,
                derived: 0
            })
        ));
        assert!(matches!(
            PackedBuckets::from_raw_parts(8, 0, vec![], counts),
            Err(StoreImportError::UnsupportedBucketWidth {
                entries_per_bucket: 0
            })
        ));
    }

    #[test]
    fn insert_until_full() {
        let mut p = PackedBuckets::new(2, 4);
        assert!(p.is_bucket_empty(0));
        for fp in 1..=4u16 {
            assert!(p.try_insert(0, fp));
        }
        assert!(p.is_full(0));
        assert_eq!(p.bucket_len(0), 4);
        assert!(!p.try_insert(0, 5));
        assert!(p.is_bucket_empty(1), "neighboring bucket untouched");
        assert_eq!(p.occupied(), 4);
    }

    #[test]
    fn contains_and_count() {
        let mut p = PackedBuckets::new(1, 4);
        p.try_insert(0, 7);
        p.try_insert(0, 7);
        p.try_insert(0, 9);
        assert!(p.contains(0, 7) && p.contains(0, 9));
        assert!(!p.contains(0, 8));
        assert_eq!(p.count(0, 7), 2);
        assert_eq!(p.count(0, 9), 1);
        assert_eq!(p.count(0, 8), 0);
    }

    #[test]
    fn contains_is_exact_for_every_lane_and_value() {
        // Exhaustive per-lane check of the SWAR compare: a fingerprint placed in any
        // slot is found; all others are rejected (sampled).
        for slot in 0..4 {
            let mut p = PackedBuckets::new(1, 4);
            for s in 0..slot {
                p.swap(0, s, 0x1111 * (s as u16 + 10));
            }
            p.swap(0, slot, 0xABC);
            assert!(p.contains(0, 0xABC), "slot {slot}");
            for probe in [1u16, 0xAB, 0xABD, 0xFFFF, 0x8000] {
                assert!(!p.contains(0, probe), "false hit for {probe:#x}");
            }
        }
    }

    #[test]
    fn adversarial_lane_values_do_not_false_positive() {
        // Values crafted to stress the borrow propagation of the zero-lane trick:
        // lanes like 0x0001/0x8000/0xFFFF adjacent to the probed value.
        let mut p = PackedBuckets::new(1, 4);
        p.swap(0, 0, 0x0001);
        p.swap(0, 1, 0x8000);
        p.swap(0, 2, 0xFFFF);
        p.swap(0, 3, 0x7FFF);
        for absent in [2u16, 0x0100, 0x8001, 0xFFFE, 0x7FFE, 0x00FF] {
            assert!(!p.contains(0, absent), "false hit for {absent:#x}");
        }
        for present in [0x0001u16, 0x8000, 0xFFFF, 0x7FFF] {
            assert!(p.contains(0, present), "missed {present:#x}");
        }
    }

    #[test]
    fn remove_one_removes_lowest_copy() {
        let mut p = PackedBuckets::new(1, 4);
        p.try_insert(0, 3);
        p.try_insert(0, 3);
        assert!(p.remove_one(0, 3));
        assert_eq!(p.count(0, 3), 1);
        assert_eq!(p.get(0, 0), 0, "lowest slot cleared first");
        assert!(p.remove_one(0, 3));
        assert!(!p.remove_one(0, 3));
        assert!(p.is_bucket_empty(0));
        assert_eq!(p.occupied(), 0);
    }

    #[test]
    fn insert_reuses_the_lowest_freed_slot() {
        let mut p = PackedBuckets::new(1, 4);
        for fp in [10u16, 20, 30, 40] {
            p.try_insert(0, fp);
        }
        p.remove_one(0, 20); // frees slot 1
        assert!(p.try_insert(0, 50));
        assert_eq!(p.bucket_slots(0), vec![10, 50, 30, 40]);
    }

    #[test]
    fn swap_and_take_round_trip() {
        let mut p = PackedBuckets::new(1, 2);
        p.try_insert(0, 10);
        assert_eq!(p.swap(0, 0, 20), 10);
        assert_eq!(p.get(0, 0), 20);
        // Swapping an empty slot returns 0 and occupies it.
        assert_eq!(p.swap(0, 1, 30), 0);
        assert_eq!(p.bucket_len(0), 2);
        assert_eq!(p.take(0, 1), 30);
        assert_eq!(p.take(0, 1), 0, "taking an empty slot yields 0");
        assert_eq!(p.bucket_len(0), 1);
    }

    #[test]
    fn non_multiple_of_four_buckets_respect_their_capacity() {
        // b = 2: lanes 2 and 3 are padding and must never be used or matched.
        let mut p = PackedBuckets::new(2, 2);
        assert!(p.try_insert(0, 1));
        assert!(p.try_insert(0, 2));
        assert!(!p.try_insert(0, 3), "padding lanes must not absorb inserts");
        assert!(p.is_full(0));
        assert!(p.contains(0, 1) && p.contains(0, 2) && !p.contains(0, 3));
        // b = 6: bucket spans two words, second word half padding.
        let mut p = PackedBuckets::new(2, 6);
        for fp in 1..=6u16 {
            assert!(p.try_insert(1, fp));
        }
        assert!(!p.try_insert(1, 7));
        assert!(p.is_full(1));
        for fp in 1..=6u16 {
            assert!(p.contains(1, fp));
        }
        assert_eq!(p.bucket_slots(1), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn iter_skips_empty_slots() {
        let mut p = PackedBuckets::new(1, 4);
        p.try_insert(0, 5);
        p.try_insert(0, 6);
        p.remove_one(0, 5);
        let v: Vec<u16> = p.iter_bucket(0).collect();
        assert_eq!(v, vec![6]);
    }

    #[test]
    fn extend_buckets_appends_empty_storage() {
        let mut p = PackedBuckets::new(2, 4);
        p.try_insert(1, 9);
        p.extend_buckets(2);
        assert_eq!(p.num_buckets(), 4);
        assert!(p.is_bucket_empty(2) && p.is_bucket_empty(3));
        assert!(p.contains(1, 9));
        assert_eq!(p.occupied(), 1);
    }

    #[test]
    fn counters_match_recount_after_mixed_mutations() {
        let mut p = PackedBuckets::new(8, 4);
        for i in 0..24u16 {
            p.try_insert(usize::from(i) % 8, i + 1);
        }
        p.remove_one(3, 4);
        p.take(0, 0);
        p.swap(1, 2, 999);
        let (total, per_bucket) = p.recount();
        assert_eq!(total, p.occupied());
        for (b, &len) in per_bucket.iter().enumerate() {
            assert_eq!(len, p.bucket_len(b), "bucket {b} counter drifted");
        }
    }

    #[test]
    fn slots_of_lists_exactly_the_matching_slots() {
        // Lane values around the probed one stress borrow propagation; b = 6 puts two
        // padding lanes in the second word.
        let mut p = PackedBuckets::new(1, 6);
        for (slot, fp) in [0x0001u16, 0x0002, 0x8001, 0x0002, 0xFFFF, 0x0003]
            .into_iter()
            .enumerate()
        {
            p.swap(0, slot, fp);
        }
        for fp in [1u16, 2, 3, 0x8001, 0xFFFF, 0x8000, 4] {
            let expected: Vec<usize> = (0..6).filter(|&s| p.get(0, s) == fp).collect();
            assert_eq!(p.slots_of(0, fp).collect::<Vec<_>>(), expected, "{fp:#x}");
        }
    }

    #[test]
    fn heap_bytes_are_the_allocated_capacity() {
        let mut p = PackedBuckets::new(3, 6);
        p.extend_buckets(3);
        p.extend_buckets(1);
        assert_eq!(p.heap_bytes(), p.words.capacity() * 8 + p.counts.capacity());
        assert!(p.heap_bytes() >= 7 * 2 * 8 + 7);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        let _ = PackedBuckets::new(4, 0);
    }
}
