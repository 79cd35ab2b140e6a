//! A standard partial-key cuckoo filter (§4.2), with the multiset insertion behaviour
//! of §4.3, capacity-doubling growth, and a batched query path.
//!
//! The filter stores only a small fingerprint κ of each key. An item hashes to a
//! primary bucket ℓ; the alternate bucket is ℓ′ = ℓ ⊕ h(κ), computable from the stored
//! fingerprint alone, which is what allows kicked entries to be relocated without the
//! original key. Insertion kicks random victims for up to
//! [`CuckooFilterParams::max_kicks`] rounds (default [`MAX_KICKS`]) before reporting
//! failure.
//!
//! Duplicate keys *can* be inserted (each inserts another copy of κ), but a bucket pair
//! holds at most `2b` entries, so heavy duplication quickly causes insertion failures —
//! the behaviour quantified in Figure 4 and the motivation for the CCF's chaining.
//!
//! # Growth
//!
//! A filter can double its capacity with [`CuckooFilter::grow`] (or transparently, by
//! enabling [`CuckooFilterParams::auto_grow`]). Doubling a *partial-key* structure is
//! subtle: the stored fingerprints cannot reproduce the key hash bits a larger table
//! would normally consume. The filter therefore uses a **split geometry**: the primary
//! bucket's low `log2(base_buckets)` bits always come from the key hash, the alternate
//! mapping ℓ′ = ℓ ⊕ (h(κ) mod base_buckets) only ever touches those low bits, and every
//! doubling appends one high index bit drawn from an independent hash of κ
//! ([`ccf_hash::salted::purpose::GROWTH`]). Both queries and migration can recompute
//! the high bits from the fingerprint alone, so growth is a pure O(m·b) remap
//! (`index → index + bit(κ)·m_old`) that can never fail and preserves every membership
//! answer. For a filter that has never grown the scheme is bit-for-bit identical to the
//! classic ℓ ⊕ h(κ) layout.

use ccf_hash::{Fingerprinter, HashFamily};
use ccf_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::geometry::{probe_chunked, SplitGeometry, MAX_GROWTHS_PER_INSERT};
use crate::instruments::FilterInstruments;
use crate::metrics::{GrowthStats, OccupancyStats};
use crate::packed::PackedBuckets;
use crate::snapshot::{ByteReader, ByteWriter, SnapshotError};

/// Default maximum number of kick (evict-and-reinsert) rounds before an insertion
/// fails, matching the constant used by the original cuckoo-filter implementation.
/// The per-filter budget is the [`CuckooFilterParams::max_kicks`] knob.
pub const MAX_KICKS: usize = 500;

/// Configuration for a [`CuckooFilter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CuckooFilterParams {
    /// Number of buckets `m`. Rounded up to a power of two so the ℓ ⊕ h(κ) partial-key
    /// mapping stays within range and is an involution.
    pub num_buckets: usize,
    /// Entries per bucket `b` (the paper uses 4 as the typical setting).
    pub entries_per_bucket: usize,
    /// Key fingerprint width |κ| in bits (1..=16).
    pub fingerprint_bits: u32,
    /// Seed for the hash family (varying it reproduces the paper's random-salt runs).
    pub seed: u64,
    /// When `true`, an insertion that would otherwise fail doubles the filter
    /// ([`CuckooFilter::grow`]) and retries transparently, unless the failure is a
    /// bucket pair saturated with copies of one fingerprint (which no amount of growth
    /// can separate — the §4.3 duplicate cap still applies).
    pub auto_grow: bool,
    /// Maximum kick (evict-and-reinsert) rounds per placement attempt before the
    /// insertion is reported as failed (default [`MAX_KICKS`]; must be positive).
    /// Bounded configs make kick-depth telemetry directly checkable: every recorded
    /// depth is `≤ max_kicks`.
    pub max_kicks: usize,
}

impl Default for CuckooFilterParams {
    fn default() -> Self {
        Self {
            num_buckets: 1 << 16,
            entries_per_bucket: 4,
            fingerprint_bits: 12,
            seed: 0,
            auto_grow: false,
            max_kicks: MAX_KICKS,
        }
    }
}

impl CuckooFilterParams {
    /// Parameters sized to hold `capacity` items at roughly 95 % load factor with
    /// `b = 4` (the optimally-sized configuration of §4.2).
    pub fn for_capacity(capacity: usize, fingerprint_bits: u32, seed: u64) -> Self {
        let entries_per_bucket = 4;
        let needed = (capacity as f64 / 0.95).ceil() as usize;
        let buckets = needed
            .div_ceil(entries_per_bucket)
            .next_power_of_two()
            .max(1);
        Self {
            num_buckets: buckets,
            entries_per_bucket,
            fingerprint_bits,
            seed,
            auto_grow: false,
            max_kicks: MAX_KICKS,
        }
    }

    /// Enable transparent grow-and-retry on insertion failure.
    pub fn with_auto_grow(mut self) -> Self {
        self.auto_grow = true;
        self
    }

    /// Set the kick budget per placement attempt (must be positive).
    pub fn with_max_kicks(mut self, max_kicks: usize) -> Self {
        self.max_kicks = max_kicks;
        self
    }
}

/// Why an insertion failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// The kick loop ran for [`CuckooFilterParams::max_kicks`] rounds without finding a free slot, the
    /// bucket pair was already saturated with copies of the fingerprint, or (with
    /// `auto_grow`) growth retries were exhausted.
    FilterFull {
        /// The fingerprint that was left without a home (the original victim chain's
        /// final evictee has already been re-stored; the reported fingerprint is the
        /// one that could not be placed).
        fingerprint: u16,
    },
}

impl std::fmt::Display for InsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InsertError::FilterFull { fingerprint } => {
                write!(
                    f,
                    "cuckoo filter full: could not place fingerprint {fingerprint:#x}"
                )
            }
        }
    }
}

impl std::error::Error for InsertError {}

/// A standard partial-key cuckoo filter over `u64` keys.
#[derive(Debug, Clone)]
pub struct CuckooFilter {
    /// All `m · b` fingerprint slots as bit-packed lanes, with maintained occupancy
    /// counters (which also replace the old per-filter item counter).
    store: PackedBuckets,
    /// `num_buckets - 1`; sanitizes caller-supplied bucket indices.
    bucket_mask: usize,
    /// Split bucket geometry: base size, growth bits and the index-derivation hashes.
    geometry: SplitGeometry,
    entries_per_bucket: usize,
    fingerprinter: Fingerprinter,
    /// Fraction of fingerprint values whose bucket pair degenerates to a single bucket
    /// (h(κ) ≡ 0 mod base_buckets); feeds the occupied-pair estimate of
    /// [`CuckooFilter::expected_fpr`].
    self_paired_fraction: f64,
    auto_grow: bool,
    rng: StdRng,
    params: CuckooFilterParams,
    /// Event telemetry (kick depths, grows, fail-fasts); disabled until
    /// [`CuckooFilter::attach_telemetry`] resolves it against a registry.
    instruments: FilterInstruments,
}

impl CuckooFilter {
    /// Create an empty filter with the given parameters.
    pub fn new(params: CuckooFilterParams) -> Self {
        Self::with_split_geometry(params.num_buckets, 0, params)
    }

    /// Create an empty filter with explicit geometry (used by Algorithm 2, which builds
    /// a filter with the *same* `(m, b)` dimensions as the CCF it is derived from).
    pub fn with_geometry(
        num_buckets: usize,
        entries_per_bucket: usize,
        fingerprint_bits: u32,
        seed: u64,
    ) -> Self {
        Self::new(CuckooFilterParams {
            num_buckets,
            entries_per_bucket,
            fingerprint_bits,
            seed,
            auto_grow: false,
            max_kicks: MAX_KICKS,
        })
    }

    /// Create an empty filter whose index derivation matches a structure that started
    /// at `base_buckets` and has grown `growth_bits` times (total bucket count
    /// `base_buckets · 2^growth_bits`). Derived filters (Algorithm 2) of a *grown*
    /// source must share its split geometry, not just its total size, for fingerprints
    /// copied bucket-by-bucket to stay reachable.
    pub fn with_split_geometry(
        base_buckets: usize,
        growth_bits: u32,
        params: CuckooFilterParams,
    ) -> Self {
        assert!(
            params.entries_per_bucket > 0,
            "entries_per_bucket must be positive"
        );
        assert!(params.max_kicks > 0, "max_kicks must be positive");
        let family = HashFamily::new(params.seed);
        let geometry = SplitGeometry::new(&family, base_buckets, growth_bits);
        let num_buckets = geometry.num_buckets();
        Self {
            store: PackedBuckets::new(num_buckets, params.entries_per_bucket),
            bucket_mask: num_buckets - 1,
            entries_per_bucket: params.entries_per_bucket,
            fingerprinter: Fingerprinter::new(&family, params.fingerprint_bits),
            self_paired_fraction: self_paired_fraction(&geometry, params.fingerprint_bits),
            geometry,
            auto_grow: params.auto_grow,
            rng: StdRng::seed_from_u64(params.seed ^ 0xCCF0_CCF0),
            params: CuckooFilterParams {
                num_buckets,
                ..params
            },
            instruments: FilterInstruments::disabled(),
        }
    }

    /// Resolve this filter's event instruments against `telemetry`, labelling its
    /// series `structure="cuckoo_filter"` plus the caller's `extra` labels (`shard`,
    /// …). Attaching a [`Telemetry::disabled`] handle detaches the filter.
    /// Until attached, every recording site costs one branch.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry, extra: &[(&str, &str)]) {
        self.instruments = FilterInstruments::resolve(telemetry, "cuckoo_filter", extra);
    }

    /// The instrument bundle this filter records into (disabled by default).
    pub fn instruments(&self) -> &FilterInstruments {
        &self.instruments
    }

    /// The parameters this filter was built with (with `num_buckets` normalized to the
    /// actual power of two in use, and updated after every growth).
    pub fn params(&self) -> &CuckooFilterParams {
        &self.params
    }

    /// Number of buckets `m`.
    pub fn num_buckets(&self) -> usize {
        self.store.num_buckets()
    }

    /// Bucket count at construction (the key hash addresses only these; growth bits
    /// extend the index above them).
    pub fn base_buckets(&self) -> usize {
        self.geometry.base_buckets()
    }

    /// Number of capacity doublings applied so far.
    pub fn growth_bits(&self) -> u32 {
        self.geometry.growth_bits()
    }

    /// Whether insertion failures trigger transparent grow-and-retry.
    pub fn auto_grow(&self) -> bool {
        self.auto_grow
    }

    /// Entries per bucket `b`.
    pub fn entries_per_bucket(&self) -> usize {
        self.entries_per_bucket
    }

    /// Number of fingerprints currently stored — an O(1) maintained counter, not a
    /// slot scan.
    pub fn len(&self) -> usize {
        self.store.occupied()
    }

    /// Whether the filter stores no fingerprints.
    pub fn is_empty(&self) -> bool {
        self.store.occupied() == 0
    }

    /// Total number of entry slots (`m · b`).
    pub fn capacity(&self) -> usize {
        self.store.num_buckets() * self.entries_per_bucket
    }

    /// Load factor β: occupied slots / total slots.
    pub fn load_factor(&self) -> f64 {
        self.store.occupied() as f64 / self.capacity() as f64
    }

    /// Serialized size in bits: `m · b · |κ|`.
    pub fn size_bits(&self) -> usize {
        self.capacity() * self.params.fingerprint_bits as usize
    }

    /// Occupancy statistics (used by the experiment harness) — aggregated from the
    /// store's maintained per-bucket counters, one byte read per bucket, with the
    /// store's actual allocated bytes attached so memory savings are observable.
    pub fn occupancy(&self) -> OccupancyStats {
        OccupancyStats::from_counts(
            self.store.counts().iter().map(|&c| usize::from(c)),
            self.entries_per_bucket,
        )
        .with_heap_bytes(self.store.heap_bytes())
    }

    /// Growth statistics: base geometry, current geometry and doubling count.
    pub fn growth_stats(&self) -> GrowthStats {
        GrowthStats {
            base_buckets: self.geometry.base_buckets(),
            current_buckets: self.store.num_buckets(),
            growth_bits: self.geometry.growth_bits(),
        }
    }

    /// The (fingerprint, primary bucket) pair for a key.
    #[inline]
    pub fn index_of(&self, key: u64) -> (u16, usize) {
        let (fp, base) = self
            .fingerprinter
            .fingerprint_and_bucket(key, self.geometry.base_buckets());
        (fp, self.geometry.home_bucket(base, fp))
    }

    /// The alternate bucket for a (bucket, fingerprint) pair: ℓ′ = ℓ ⊕ h(κ), with the
    /// xor confined to the base-geometry bits so a pair always shares its growth bits.
    #[inline]
    pub fn alt_bucket(&self, bucket: usize, fp: u16) -> usize {
        self.geometry.alt_bucket(bucket, fp)
    }

    /// Number of copies of `fp` its bucket pair can hold: `2b`, or `b` for the
    /// degenerate self-paired case ℓ′ == ℓ.
    fn pair_slot_capacity(&self, bucket: usize, alt: usize) -> usize {
        if bucket == alt {
            self.entries_per_bucket
        } else {
            2 * self.entries_per_bucket
        }
    }

    fn pair_fp_count(&self, bucket: usize, alt: usize, fp: u16) -> usize {
        if bucket == alt {
            self.store.count(bucket, fp)
        } else {
            self.store.count(bucket, fp) + self.store.count(alt, fp)
        }
    }

    /// Insert a key. Duplicate keys insert additional fingerprint copies (§4.3).
    pub fn insert(&mut self, key: u64) -> Result<(), InsertError> {
        let (fp, bucket) = self.index_of(key);
        self.insert_fingerprint(fp, bucket)
    }

    /// Insert a raw (fingerprint, primary-bucket) pair. Exposed so that Algorithm 2 can
    /// copy surviving entries of a CCF into a fresh filter without re-deriving keys —
    /// the same keyless property growth relies on. Either bucket of the pair is
    /// accepted (the ℓ ⊕ h(κ) mapping is an involution).
    pub fn insert_fingerprint(&mut self, fp: u16, bucket: usize) -> Result<(), InsertError> {
        let result = self.insert_fingerprint_inner(fp, bucket);
        match &result {
            Ok(()) => self.instruments.inserts.inc(),
            Err(_) => self.instruments.insert_failures.inc(),
        }
        result
    }

    fn insert_fingerprint_inner(&mut self, fp: u16, bucket: usize) -> Result<(), InsertError> {
        match self.place_fingerprint(fp, bucket) {
            Ok(()) => Ok(()),
            Err((fp, _)) if !self.auto_grow => Err(InsertError::FilterFull { fingerprint: fp }),
            Err((mut homeless, mut home)) => {
                for _ in 0..MAX_GROWTHS_PER_INSERT {
                    // A pair saturated with copies of one fingerprint can never be
                    // helped by growing: the copies share both candidate buckets at
                    // every size (they carry identical growth bits), so the §4.3
                    // duplicate cap binds regardless of capacity.
                    let alt = self.alt_bucket(home, homeless);
                    if self.pair_fp_count(home, alt, homeless) >= self.pair_slot_capacity(home, alt)
                    {
                        return Err(InsertError::FilterFull {
                            fingerprint: homeless,
                        });
                    }
                    let old_m = self.store.num_buckets();
                    let bit = self.geometry.growth_bits();
                    self.grow();
                    // The homeless fingerprint's pair extends by its own growth bit.
                    if self.geometry.growth_bit(homeless, bit) {
                        home += old_m;
                    }
                    match self.place_fingerprint(homeless, home) {
                        Ok(()) => return Ok(()),
                        Err((next_fp, next_home)) => {
                            homeless = next_fp;
                            home = next_home;
                        }
                    }
                }
                Err(InsertError::FilterFull {
                    fingerprint: homeless,
                })
            }
        }
    }

    /// Place a fingerprint, kicking victims as needed. On failure returns the homeless
    /// fingerprint and the last bucket of its pair, so a grow-and-retry caller can
    /// re-place it after the geometry changes.
    fn place_fingerprint(&mut self, fp: u16, bucket: usize) -> Result<(), (u16, usize)> {
        debug_assert_ne!(fp, 0);
        let bucket = bucket & self.bucket_mask;
        let alt = self.alt_bucket(bucket, fp);

        // Prefer the primary bucket, then the alternate (§4.1: "ℓ being preferred
        // over ℓ′").
        if self.store.try_insert(bucket, fp) {
            self.instruments.kick_depth.observe(0);
            return Ok(());
        }
        if bucket != alt && self.store.try_insert(alt, fp) {
            self.instruments.kick_depth.observe(0);
            return Ok(());
        }

        // A pair already holding its maximum number of κ copies cannot accept another:
        // every copy shares both candidate buckets, so the kick loop would only churn
        // copies of κ in place until the kick budget runs out. Fail fast with the
        // filter untouched. Note the degenerate self-paired case (ℓ′ == ℓ, i.e.
        // h(κ) ≡ 0 mod m₀) caps at `b`, not `2b`: the "pair" is a single bucket.
        if self.pair_fp_count(bucket, alt, fp) >= self.pair_slot_capacity(bucket, alt) {
            self.instruments.pair_saturated_failfasts.inc();
            return Err((fp, bucket));
        }

        let mut kicks = 0u64;
        let mut current_fp = fp;
        let mut current_bucket;
        if bucket == alt {
            // Degenerate pair with a full bucket: only a victim whose own alternate
            // bucket differs can actually leave; kicking a self-paired victim swaps in
            // place and burns kick rounds without progress. If no victim can move,
            // the insertion is hopeless at this size — fail fast.
            let movable: Vec<usize> = (0..self.entries_per_bucket)
                .filter(|&slot| {
                    let victim = self.store.get(bucket, slot);
                    self.alt_bucket(bucket, victim) != bucket
                })
                .collect();
            if movable.is_empty() {
                self.instruments.self_paired_failfasts.inc();
                return Err((fp, bucket));
            }
            let slot = movable[self.rng.gen_range(0..movable.len())];
            let victim = self.store.swap(bucket, slot, fp);
            kicks = 1;
            current_fp = victim;
            current_bucket = self.alt_bucket(bucket, victim);
            if self.store.try_insert(current_bucket, current_fp) {
                self.instruments.kick_depth.observe(kicks);
                return Ok(());
            }
        } else {
            // Both buckets full: start the kick loop from a random side.
            current_bucket = if self.rng.gen_bool(0.5) { bucket } else { alt };
        }
        for _ in 0..self.params.max_kicks {
            let slot = self.rng.gen_range(0..self.entries_per_bucket);
            let victim = self.store.swap(current_bucket, slot, current_fp);
            debug_assert_ne!(victim, 0, "kicked an empty slot from a full bucket");
            kicks += 1;
            current_fp = victim;
            current_bucket = self.alt_bucket(current_bucket, current_fp);
            if self.store.try_insert(current_bucket, current_fp) {
                self.instruments.kick_depth.observe(kicks);
                return Ok(());
            }
        }
        self.instruments.kick_depth.observe(kicks);
        Err((current_fp, current_bucket))
    }

    /// Double the filter's capacity, migrating every stored fingerprint without the
    /// original keys. Each entry either keeps its bucket index or moves up by the old
    /// bucket count, according to its fingerprint's next growth bit — an O(m·b) remap
    /// that cannot fail and preserves every membership answer.
    pub fn grow(&mut self) {
        self.instruments.grows.inc();
        let old_m = self.store.num_buckets();
        let bit = self.geometry.growth_bits();
        self.store.extend_buckets(old_m);
        for bucket in 0..old_m {
            for slot in 0..self.entries_per_bucket {
                let fp = self.store.get(bucket, slot);
                if fp != 0 && self.geometry.growth_bit(fp, bit) {
                    self.store.take(bucket, slot);
                    let moved = self.store.try_insert(bucket + old_m, fp);
                    debug_assert!(moved, "split target bucket cannot overflow");
                }
            }
        }
        self.geometry.record_doubling();
        self.bucket_mask = self.store.num_buckets() - 1;
        self.params.num_buckets = self.store.num_buckets();
    }

    /// Query whether a key may be in the set. No false negatives for inserted keys
    /// (unless a copy was deleted).
    pub fn contains(&self, key: u64) -> bool {
        let (fp, bucket) = self.index_of(key);
        let alt = self.alt_bucket(bucket, fp);
        self.store.contains_pair(bucket, alt, fp)
    }

    /// Batched membership query: results are bit-identical to calling
    /// [`CuckooFilter::contains`] per key, using the chunked hash→prefetch→probe
    /// driver ([`crate::geometry::probe_chunked`]) shared by every batched query
    /// path, with the probe itself the store's branchless SWAR pair compare.
    pub fn contains_batch(&self, keys: &[u64]) -> Vec<bool> {
        probe_chunked(
            keys,
            |key| {
                let (fp, bucket) = self.index_of(key);
                (fp, bucket, self.alt_bucket(bucket, fp))
            },
            |bucket| self.store.prefetch(bucket),
            |fp, bucket, alt| self.store.contains_pair(bucket, alt, fp),
        )
    }

    /// Number of stored copies of the key's fingerprint in its bucket pair: at most
    /// `2b`, or `b` for a degenerate self-paired fingerprint (ℓ′ == ℓ, where the
    /// "pair" is a single bucket — the same cap insertion enforces).
    pub fn count(&self, key: u64) -> usize {
        let (fp, bucket) = self.index_of(key);
        let alt = self.alt_bucket(bucket, fp);
        self.pair_fp_count(bucket, alt, fp)
    }

    /// Delete one copy of a key's fingerprint. Returns `true` if a copy was removed.
    ///
    /// As with all cuckoo filters, deleting a key that was never inserted may remove
    /// another key's colliding fingerprint; only delete keys known to be present.
    pub fn delete(&mut self, key: u64) -> bool {
        let (fp, bucket) = self.index_of(key);
        let alt = self.alt_bucket(bucket, fp);
        let removed =
            self.store.remove_one(bucket, fp) || (bucket != alt && self.store.remove_one(alt, fp));
        if removed {
            self.instruments.deletes.inc();
        }
        removed
    }

    /// Theoretical FPR bound for a membership query: `E[D] · 2^{-|κ|}` where `D` is
    /// the number of occupied entries in the queried bucket pair (§4.2 / eq. 4).
    ///
    /// `E[D]` is estimated from the actual occupancy: a random probe sees the mean
    /// bucket occupancy `β·b` twice for a regular pair but only once for a degenerate
    /// self-paired fingerprint (ℓ′ == ℓ), so the pair estimate is `(2 − p₀)·β·b` with
    /// `p₀` the exact fraction of fingerprint values that self-pair. An empty filter
    /// reports 0.
    pub fn expected_fpr(&self) -> f64 {
        if self.store.occupied() == 0 {
            return 0.0;
        }
        let mean_bucket_occupancy = self.load_factor() * self.entries_per_bucket as f64;
        let occupied_pair = (2.0 - self.self_paired_fraction) * mean_bucket_occupancy;
        occupied_pair * 2f64.powi(-(self.params.fingerprint_bits as i32))
    }

    /// Expose the fingerprint store for size/occupancy analysis.
    pub fn store(&self) -> &PackedBuckets {
        &self.store
    }

    /// Serialize the filter into a sealed snapshot image (see [`crate::snapshot`]):
    /// configuration, split geometry, the RNG's exact state, and the raw storage
    /// words. [`CuckooFilter::from_snapshot_bytes`]
    /// rebuilds a *bit-identical* filter — every post-restore membership answer,
    /// kick-victim draw, and growth decision matches the never-persisted original.
    /// Telemetry attachment is process state, not filter state, and is not
    /// persisted; reloaded filters start detached.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new(Self::SNAPSHOT_MAGIC, Self::SNAPSHOT_VERSION);
        // The storage byte: always 0, the packed layout. It stays in the format so
        // existing images keep loading.
        w.put_u8(0);
        w.put_usize(self.geometry.base_buckets());
        w.put_u32(self.geometry.growth_bits());
        w.put_usize(self.entries_per_bucket);
        w.put_u32(self.params.fingerprint_bits);
        w.put_u64(self.params.seed);
        w.put_u8(u8::from(self.auto_grow));
        w.put_usize(self.params.max_kicks);
        for word in self.rng.state() {
            w.put_u64(word);
        }
        w.put_len_bytes(self.store.counts());
        w.put_u64_slice(self.store.raw_words());
        w.seal()
    }

    /// Rebuild a filter from a [`CuckooFilter::to_snapshot_bytes`] image. Hashers,
    /// geometry and derived statistics are reconstructed from the persisted seed and
    /// dimensions; only the raw storage words, counters and RNG state are taken from
    /// the image, and each is validated (envelope checksum first, then structural
    /// checks) so corruption yields a typed [`SnapshotError`], never a panic or a
    /// silently wrong filter.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = ByteReader::open(bytes, Self::SNAPSHOT_MAGIC, Self::SNAPSHOT_VERSION)?;
        match r.get_u8()? {
            0 => {}
            t => return Err(SnapshotError::Invalid(format!("storage byte {t}"))),
        }
        let base_buckets = r.get_usize()?;
        let growth_bits = r.get_u32()?;
        let entries_per_bucket = r.get_usize()?;
        let fingerprint_bits = r.get_u32()?;
        let seed = r.get_u64()?;
        let auto_grow = match r.get_u8()? {
            0 => false,
            1 => true,
            t => return Err(SnapshotError::Invalid(format!("auto_grow flag byte {t}"))),
        };
        let max_kicks = r.get_usize()?;
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = r.get_u64()?;
        }
        let counts = r.get_len_bytes()?.to_vec();
        let words = r.get_u64_slice()?;
        r.finish()?;

        if !base_buckets.is_power_of_two() {
            return Err(SnapshotError::Invalid(format!(
                "base_buckets {base_buckets} is not a power of two"
            )));
        }
        let num_buckets = if growth_bits < usize::BITS {
            base_buckets
                .checked_shl(growth_bits)
                .filter(|&m| m >> growth_bits == base_buckets)
        } else {
            None
        }
        .ok_or_else(|| {
            SnapshotError::Invalid(format!(
                "geometry overflows: base_buckets {base_buckets} doubled {growth_bits} times"
            ))
        })?;
        if fingerprint_bits == 0 || fingerprint_bits > 16 {
            return Err(SnapshotError::Invalid(format!(
                "fingerprint_bits {fingerprint_bits} outside 1..=16"
            )));
        }
        if max_kicks == 0 {
            return Err(SnapshotError::Invalid("max_kicks is zero".into()));
        }
        // Validate the storage image (including the bucket width) *before* building
        // the filter shell: `with_split_geometry` asserts on widths the store cannot
        // represent, and a corrupt image must fail typed, not panic.
        let store = PackedBuckets::from_raw_parts(num_buckets, entries_per_bucket, words, counts)?;
        let mut filter = Self::with_split_geometry(
            base_buckets,
            growth_bits,
            CuckooFilterParams {
                num_buckets: base_buckets,
                entries_per_bucket,
                fingerprint_bits,
                seed,
                auto_grow,
                max_kicks,
            },
        );
        filter.store = store;
        filter.rng = StdRng::from_state(rng_state);
        Ok(filter)
    }

    /// Magic of a [`CuckooFilter`] snapshot image: `"CKFS"`.
    pub const SNAPSHOT_MAGIC: u32 = u32::from_le_bytes(*b"CKFS");
    /// Current [`CuckooFilter`] snapshot format version.
    pub const SNAPSHOT_VERSION: u8 = 1;
}

/// Exact fraction of fingerprint values whose alternate bucket equals their primary
/// bucket (h(κ) ≡ 0 mod base_buckets). The fingerprint domain is at most 2^16 values,
/// so the scan is cheap enough to run once per construction.
fn self_paired_fraction(geometry: &SplitGeometry, fp_bits: u32) -> f64 {
    let fp_values = (1u32 << fp_bits) - 1; // κ = 0 is reserved for empty slots.
    let self_paired = (1..=fp_values)
        .filter(|&fp| geometry.alt_bucket(0, fp as u16) == 0)
        .count();
    self_paired as f64 / fp_values as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params(seed: u64) -> CuckooFilterParams {
        CuckooFilterParams {
            num_buckets: 1 << 10,
            seed,
            ..Default::default()
        }
    }

    /// A fingerprint with h(κ) ≡ 0 mod base_buckets, i.e. whose bucket pair collapses
    /// to a single bucket.
    fn self_paired_fp(f: &CuckooFilter) -> u16 {
        (1..1u16 << f.params().fingerprint_bits)
            .find(|&fp| f.alt_bucket(0, fp) == 0)
            .expect("some fingerprint must self-pair")
    }

    #[test]
    fn no_false_negatives() {
        let mut f = CuckooFilter::new(small_params(1));
        let n = 3500; // ~85% load
        for k in 0..n {
            f.insert(k).expect("insert should succeed below capacity");
        }
        for k in 0..n {
            assert!(f.contains(k), "false negative for {k}");
        }
    }

    #[test]
    fn fpr_is_near_theory() {
        let mut f = CuckooFilter::new(small_params(2));
        for k in 0..3800u64 {
            f.insert(k).unwrap();
        }
        let expected = f.expected_fpr();
        let trials = 200_000u64;
        let fps = (0..trials).filter(|&k| f.contains(k + 1_000_000)).count();
        let measured = fps as f64 / trials as f64;
        assert!(
            measured < expected * 2.0 + 1e-3,
            "measured FPR {measured} far above expected {expected}"
        );
    }

    #[test]
    fn expected_fpr_is_zero_when_empty() {
        let f = CuckooFilter::new(small_params(2));
        assert_eq!(f.expected_fpr(), 0.0);
    }

    #[test]
    fn achieves_high_load_factor_on_unique_keys() {
        // §4.2: an optimally sized filter empirically achieves β ≈ 95% with b = 4.
        let mut f = CuckooFilter::new(small_params(3));
        let mut inserted = 0u64;
        for k in 0..f.capacity() as u64 {
            if f.insert(k).is_err() {
                break;
            }
            inserted += 1;
        }
        let lf = inserted as f64 / f.capacity() as f64;
        assert!(lf > 0.93, "load factor at first failure only {lf}");
    }

    #[test]
    fn duplicate_keys_fail_early() {
        // §4.3: at most 2b copies of a key fit; the (2b+1)-th insertion must fail.
        let mut f = CuckooFilter::new(small_params(4));
        let b = f.entries_per_bucket();
        for i in 0..(2 * b) {
            f.insert(42)
                .unwrap_or_else(|_| panic!("copy {i} should fit"));
        }
        assert!(f.insert(42).is_err(), "copy {} must not fit", 2 * b + 1);
        assert_eq!(f.count(42), 2 * b);
    }

    #[test]
    fn duplicate_cap_still_binds_with_auto_grow() {
        // Growth separates *different* fingerprints; copies of one fingerprint share
        // both buckets at every size, so the 2b cap must fail fast instead of growing.
        let mut f = CuckooFilter::new(small_params(4).with_auto_grow());
        let b = f.entries_per_bucket();
        for _ in 0..(2 * b) {
            f.insert(42).unwrap();
        }
        let buckets_before = f.num_buckets();
        assert!(f.insert(42).is_err());
        assert_eq!(
            f.num_buckets(),
            buckets_before,
            "a duplicate-cap failure must not trigger growth"
        );
    }

    #[test]
    fn self_paired_fingerprint_caps_at_b_and_fails_fast() {
        // Degenerate case ℓ′ == ℓ: the "pair" is one bucket, so only b copies fit
        // (mirroring the count() special case), and the failing insert must leave the
        // filter untouched instead of churning copies of κ for MAX_KICKS rounds.
        let mut f = CuckooFilter::new(small_params(5));
        let fp = self_paired_fp(&f);
        let b = f.entries_per_bucket();
        let bucket = 17; // arbitrary: every bucket self-pairs for this fingerprint
        assert_eq!(f.alt_bucket(bucket, fp), bucket);
        for i in 0..b {
            f.insert_fingerprint(fp, bucket)
                .unwrap_or_else(|_| panic!("copy {i} of a self-paired κ should fit"));
        }
        let before = f.store().bucket_slots(bucket);
        let items_before = f.len();
        assert_eq!(
            f.insert_fingerprint(fp, bucket),
            Err(InsertError::FilterFull { fingerprint: fp }),
            "copy b+1 of a self-paired fingerprint cannot fit"
        );
        assert_eq!(
            f.store().bucket_slots(bucket),
            before,
            "failing degenerate insert must not disturb the bucket"
        );
        assert_eq!(f.len(), items_before);
    }

    #[test]
    fn count_caps_at_b_for_self_paired_keys() {
        // A key whose fingerprint self-pairs (ℓ′ == ℓ) can hold at most b copies —
        // count() must agree with insertion's cap and never report a copy twice.
        let mut f = CuckooFilter::new(small_params(13));
        let b = f.entries_per_bucket();
        let key = (0..2_000_000u64)
            .find(|&k| {
                let (fp, bucket) = f.index_of(k);
                f.alt_bucket(bucket, fp) == bucket
            })
            .expect("some key must map to a self-paired fingerprint");
        for i in 0..b {
            f.insert(key)
                .unwrap_or_else(|_| panic!("copy {i} of a self-paired key should fit"));
            assert_eq!(f.count(key), i + 1, "count must not double-scan the bucket");
        }
        assert!(f.insert(key).is_err(), "copy b+1 cannot fit");
        assert_eq!(f.count(key), b, "self-paired count caps at b, not 2b");
        // Deleting drains the copies one at a time through the same degenerate pair.
        for remaining in (0..b).rev() {
            assert!(f.delete(key));
            assert_eq!(f.count(key), remaining);
        }
    }

    #[test]
    fn self_paired_insert_relocates_movable_victims() {
        // A full degenerate bucket that still holds regular entries: the insert must
        // kick one of those (they can leave) rather than spinning or failing.
        let mut f = CuckooFilter::new(CuckooFilterParams {
            num_buckets: 16,
            entries_per_bucket: 2,
            seed: 11,
            ..Default::default()
        });
        let fp = self_paired_fp(&f);
        let bucket = 3;
        // Fill the bucket with movable fingerprints.
        let movable: Vec<u16> = (1..1u16 << 12)
            .filter(|&c| c != fp && f.alt_bucket(bucket, c) != bucket)
            .take(2)
            .collect();
        for &c in &movable {
            f.insert_fingerprint(c, bucket).unwrap();
        }
        f.insert_fingerprint(fp, bucket)
            .expect("self-paired insert should relocate a movable victim");
        assert!(f.store().contains(bucket, fp));
        // The displaced victims must all still be reachable from their pair.
        for &c in &movable {
            let alt = f.alt_bucket(bucket, c);
            assert!(
                f.store().contains_pair(bucket, alt, c),
                "victim {c:#x} lost"
            );
        }
    }

    #[test]
    fn delete_removes_one_copy_at_a_time() {
        let mut f = CuckooFilter::new(small_params(5));
        f.insert(7).unwrap();
        f.insert(7).unwrap();
        assert_eq!(f.count(7), 2);
        assert!(f.delete(7));
        assert!(f.contains(7));
        assert!(f.delete(7));
        assert!(!f.contains(7));
        assert!(!f.delete(7));
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn alt_bucket_is_an_involution() {
        let f = CuckooFilter::new(small_params(6));
        for key in 0..2000u64 {
            let (fp, b) = f.index_of(key);
            let alt = f.alt_bucket(b, fp);
            assert_eq!(
                f.alt_bucket(alt, fp),
                b,
                "xor mapping must be an involution"
            );
        }
    }

    #[test]
    fn alt_bucket_stays_an_involution_after_growth() {
        let mut f = CuckooFilter::new(small_params(6));
        f.grow();
        f.grow();
        for key in 0..2000u64 {
            let (fp, b) = f.index_of(key);
            assert!(b < f.num_buckets());
            let alt = f.alt_bucket(b, fp);
            assert!(alt < f.num_buckets());
            assert_eq!(f.alt_bucket(alt, fp), b);
            // The pair shares its growth bits: both members sit in the same
            // base-geometry block.
            assert_eq!(b / f.base_buckets(), alt / f.base_buckets());
        }
    }

    #[test]
    fn grow_preserves_membership_and_counts() {
        let mut f = CuckooFilter::new(small_params(8));
        for k in 0..3000u64 {
            f.insert(k).unwrap();
        }
        f.insert(77).unwrap(); // a duplicate copy, to check count preservation
        let len_before = f.len();
        f.grow();
        assert_eq!(f.num_buckets(), 2 << 10);
        assert_eq!(f.len(), len_before);
        for k in 0..3000u64 {
            assert!(f.contains(k), "false negative for {k} after growth");
        }
        assert_eq!(f.count(77), 2);
        // FPR improves (load factor halved): absent keys mostly rejected.
        let fps = (1_000_000..1_050_000u64).filter(|&k| f.contains(k)).count();
        assert!((fps as f64 / 50_000.0) < 0.01);
    }

    #[test]
    fn auto_grow_accepts_four_times_the_sized_capacity() {
        // Acceptance contract: a filter sized for n takes 4n unique keys with zero
        // failures and zero false negatives when auto_grow is on — down to the
        // degenerate n = 1, whose batch path must still agree with per-key probes.
        for (n, min_doublings) in [(4000usize, 2), (1, 0)] {
            let mut f =
                CuckooFilter::new(CuckooFilterParams::for_capacity(n, 12, 21).with_auto_grow());
            let keys: Vec<u64> = (0..(4 * n) as u64).collect();
            for &k in &keys {
                f.insert(k)
                    .unwrap_or_else(|e| panic!("n={n}: auto-grow insert of {k} failed: {e}"));
            }
            assert!(f.growth_bits() >= min_doublings, "n={n}: too few doublings");
            let hits = f.contains_batch(&keys);
            for (&k, &hit) in keys.iter().zip(&hits) {
                assert!(hit && f.contains(k), "n={n}: false negative for {k}");
            }
        }
    }

    #[test]
    fn contains_batch_matches_per_key_loop() {
        let mut f = CuckooFilter::new(small_params(9));
        for k in 0..3000u64 {
            f.insert(k).unwrap();
        }
        f.grow(); // the batch path must agree on grown geometry too
        let keys: Vec<u64> = (0..10_000u64).map(|i| i * 7 % 20_000).collect();
        let batch = f.contains_batch(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(batch[i], f.contains(k), "mismatch for key {k}");
        }
    }

    #[test]
    fn insert_after_delete_reuses_space() {
        let mut f = CuckooFilter::new(CuckooFilterParams {
            num_buckets: 8,
            entries_per_bucket: 2,
            fingerprint_bits: 8,
            seed: 9,
            ..Default::default()
        });
        let mut keys: Vec<u64> = (0..12).collect();
        for &k in &keys {
            // Fill to near capacity; ignore failures.
            let _ = f.insert(k);
        }
        let len_before = f.len();
        // Delete the first half that are present and re-insert fresh keys.
        keys.retain(|&k| f.contains(k));
        for &k in keys.iter().take(len_before / 2) {
            assert!(f.delete(k));
        }
        for nk in 100..(100 + (len_before / 2) as u64) {
            f.insert(nk).expect("freed space should be reusable");
        }
        assert_eq!(f.len(), len_before);
    }

    #[test]
    fn for_capacity_sizes_generously() {
        let p = CuckooFilterParams::for_capacity(10_000, 12, 0);
        assert!(p.num_buckets * p.entries_per_bucket >= 10_000);
        let mut f = CuckooFilter::new(p);
        for k in 0..10_000u64 {
            f.insert(k)
                .expect("sized-for capacity inserts must succeed");
        }
    }

    #[test]
    fn load_factor_and_len_track_insertions() {
        let mut f = CuckooFilter::new(small_params(7));
        assert!(f.is_empty());
        for k in 0..100u64 {
            f.insert(k).unwrap();
        }
        assert_eq!(f.len(), 100);
        assert!((f.load_factor() - 100.0 / f.capacity() as f64).abs() < 1e-12);
    }

    #[test]
    fn size_bits_matches_geometry() {
        let f = CuckooFilter::new(CuckooFilterParams {
            num_buckets: 1 << 8,
            fingerprint_bits: 9,
            ..Default::default()
        });
        assert_eq!(f.size_bits(), 256 * 4 * 9);
    }

    #[test]
    fn growth_stats_track_doublings() {
        let mut f = CuckooFilter::new(small_params(10));
        let stats = f.growth_stats();
        assert_eq!(stats.base_buckets, 1 << 10);
        assert_eq!(stats.expansion_factor(), 1);
        f.grow();
        f.grow();
        let stats = f.growth_stats();
        assert_eq!(stats.growth_bits, 2);
        assert_eq!(stats.current_buckets, 1 << 12);
        assert_eq!(stats.expansion_factor(), 4);
    }

    #[test]
    fn split_geometry_matches_a_grown_filter() {
        // A filter constructed with with_split_geometry must agree bucket-for-bucket
        // with one that started at the base size and grew — the property Algorithm 2
        // derived filters rely on.
        let mut grown = CuckooFilter::new(small_params(12));
        grown.grow();
        let derived = CuckooFilter::with_split_geometry(1 << 10, 1, small_params(12));
        assert_eq!(derived.num_buckets(), grown.num_buckets());
        for key in 0..2000u64 {
            assert_eq!(derived.index_of(key), grown.index_of(key));
            let (fp, b) = derived.index_of(key);
            assert_eq!(derived.alt_bucket(b, fp), grown.alt_bucket(b, fp));
        }
    }

    #[test]
    #[should_panic(expected = "max_kicks must be positive")]
    fn zero_max_kicks_is_rejected() {
        let _ = CuckooFilter::new(small_params(1).with_max_kicks(0));
    }

    #[test]
    fn max_kicks_bounds_the_kick_loop() {
        // With a kick budget of 1 the filter still works, just gives up earlier; the
        // recorded kick depths must respect the bound exactly.
        let telemetry = Telemetry::enabled();
        let mut f = CuckooFilter::new(small_params(31).with_max_kicks(1));
        f.attach_telemetry(&telemetry, &[]);
        let mut first_failure = None;
        for k in 0..f.capacity() as u64 {
            if f.insert(k).is_err() {
                first_failure = Some(k);
                break;
            }
        }
        assert!(
            first_failure.is_some(),
            "a 1-kick budget must fail before 100% load"
        );
        let depth = telemetry
            .snapshot()
            .histogram("cuckoo_kick_depth", &[("structure", "cuckoo_filter")])
            .cloned()
            .expect("kick depth series must exist");
        // Bounds are [0, 1, 2, ...]: nothing may land above the ≤1 bucket.
        assert_eq!(depth.counts[2..].iter().sum::<u64>(), 0);
        assert!(depth.count() > 0);
    }

    #[test]
    fn telemetry_counts_inserts_failures_grows_and_deletes() {
        let telemetry = Telemetry::enabled();
        let mut f = CuckooFilter::new(small_params(32));
        f.attach_telemetry(&telemetry, &[]);
        for k in 0..100u64 {
            f.insert(k).unwrap();
        }
        f.grow();
        assert!(f.delete(7));
        let b = f.entries_per_bucket();
        for _ in 0..2 * b {
            f.insert(999).unwrap();
        }
        assert!(f.insert(999).is_err(), "2b+1-th copy must fail");
        let labels = [("structure", "cuckoo_filter")];
        let snap = telemetry.snapshot();
        assert_eq!(
            snap.counter("cuckoo_inserts_total", &labels),
            Some(100 + 2 * b as u64)
        );
        assert_eq!(
            snap.counter("cuckoo_insert_failures_total", &labels),
            Some(1)
        );
        assert_eq!(
            snap.counter("cuckoo_pair_saturated_failfasts_total", &labels),
            Some(1)
        );
        assert_eq!(snap.counter("cuckoo_grows_total", &labels), Some(1));
        assert_eq!(snap.counter("cuckoo_deletes_total", &labels), Some(1));
        // Every successful non-fail-fast placement observed a kick depth.
        let depth = snap
            .histogram("cuckoo_kick_depth", &labels)
            .expect("kick depth series");
        assert_eq!(depth.count(), 100 + 2 * b as u64);
        // Detaching (disabled handle) stops recording without touching old series.
        f.attach_telemetry(&Telemetry::disabled(), &[]);
        f.insert(5000).unwrap();
        assert_eq!(
            telemetry
                .snapshot()
                .counter("cuckoo_inserts_total", &labels),
            Some(100 + 2 * b as u64)
        );
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let mut f = CuckooFilter::new(small_params(77).with_auto_grow());
        for k in 0..6000u64 {
            f.insert(k).unwrap();
        }
        for k in (0..6000u64).step_by(3) {
            assert!(f.delete(k));
        }
        let mut reloaded = CuckooFilter::from_snapshot_bytes(&f.to_snapshot_bytes()).unwrap();
        assert_eq!(reloaded.store(), f.store(), "stores diverge");
        assert_eq!(reloaded.params(), f.params());
        assert_eq!(reloaded.growth_bits(), f.growth_bits());
        // Bit-identity must survive *post-restore mutation*: the RNG stream and
        // geometry continue exactly where the original left off.
        for k in 10_000..12_000u64 {
            assert_eq!(f.insert(k).is_ok(), reloaded.insert(k).is_ok());
        }
        for k in 0..14_000u64 {
            assert_eq!(f.contains(k), reloaded.contains(k), "key {k}");
        }
        assert_eq!(reloaded.store(), f.store(), "post-mutation drift");
    }

    #[test]
    fn snapshot_with_nonzero_storage_byte_is_a_typed_error() {
        let mut f = CuckooFilter::new(small_params(5));
        for k in 0..100u64 {
            f.insert(k).unwrap();
        }
        let mut img = f.to_snapshot_bytes();
        // The storage byte sits straight after the 5-byte envelope header; 1 marked
        // an image of the retired compressed bucket layout.
        assert_eq!(img[5], 0);
        img[5] = 1;
        let body = img.len() - 8;
        let checksum = crate::snapshot::fnv64(&img[..body]);
        img[body..].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            CuckooFilter::from_snapshot_bytes(&img),
            Err(SnapshotError::Invalid(_))
        ));
    }

    #[test]
    fn snapshot_rejects_corruption_with_typed_errors() {
        let mut f = CuckooFilter::new(small_params(3));
        for k in 0..100u64 {
            f.insert(k).unwrap();
        }
        let img = f.to_snapshot_bytes();
        // Bit flip anywhere → checksum mismatch (or downstream typed error), no panic.
        let mut flipped = img.clone();
        flipped[img.len() / 2] ^= 0x10;
        assert!(matches!(
            CuckooFilter::from_snapshot_bytes(&flipped),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            CuckooFilter::from_snapshot_bytes(&img[..img.len() - 9]),
            Err(SnapshotError::Truncated) | Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn different_seeds_produce_different_layouts_same_semantics() {
        let mut a = CuckooFilter::new(small_params(100));
        let mut b = CuckooFilter::new(small_params(200));
        for k in 0..500u64 {
            a.insert(k).unwrap();
            b.insert(k).unwrap();
        }
        for k in 0..500u64 {
            assert!(a.contains(k) && b.contains(k));
        }
        // Layouts should differ (fingerprints under different salts).
        let differs = (0..500u64).any(|k| a.index_of(k) != b.index_of(k));
        assert!(differs);
    }
}
