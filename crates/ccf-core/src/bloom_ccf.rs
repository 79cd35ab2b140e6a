//! The CCF with Bloom attribute sketches (§5.2, Algorithms 1 and 2).
//!
//! Each entry pairs a key fingerprint κ with a small Bloom filter into which every
//! (attribute column, value) pair of the key's rows is inserted. Rows sharing a key
//! merge into the same entry, so "the occupied entries in the sketch are exactly the
//! same as those of a cuckoo filter" — the variant needs no duplicate handling and is
//! guaranteed the usual cuckoo-filter load factors, at the cost of a less bit-efficient
//! attribute sketch and the inability to encode which attribute values co-occur in the
//! same row.
//!
//! Algorithm 2 (predicate-only queries) is [`BloomCcf::predicate_filter`]: entries whose
//! sketch cannot match the predicate are erased and the surviving key fingerprints are
//! returned as a standard [`CuckooFilter`].

use ccf_cuckoo::geometry::probe_chunked;
use ccf_cuckoo::CuckooFilter;
use ccf_cuckoo::{GrowthStats, OccupancyStats};
use ccf_hash::{HashFamily, SaltedHasher};
use ccf_telemetry::Telemetry;

use crate::attr::{match_raw_bloom, SketchFormat};
use crate::entry_table::{read_rng, EntryTable, KickRule};
use crate::instruments::CcfInstruments;
use crate::key::FilterKey;
use crate::outcome::{DeleteFailure, InsertFailure, InsertOutcome};
use crate::params::{CcfParams, ParamsError};
use crate::predicate::Predicate;

/// Conditional cuckoo filter with per-entry Bloom attribute sketches.
#[derive(Debug, Clone)]
pub struct BloomCcf {
    /// One slot per key fingerprint in a bucket pair: κ and the sketch record of all
    /// its rows' (column, value) pairs.
    table: EntryTable,
    params: CcfParams,
    sketch: SketchFormat,
    key_lower: SaltedHasher,
    rows_absorbed: usize,
    instruments: CcfInstruments,
}

impl BloomCcf {
    /// Create an empty filter. `params.num_buckets` is rounded up to a power of two.
    ///
    /// # Panics
    /// Panics on impossible parameters; use [`BloomCcf::try_new`] (or the
    /// [`crate::CcfBuilder`] facade) to get a [`ParamsError`] instead.
    pub fn new(params: CcfParams) -> Self {
        Self::try_new(params).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Create an empty filter, reporting impossible parameters as a [`ParamsError`].
    /// `params.num_buckets` is rounded up to a power of two.
    pub fn try_new(mut params: CcfParams) -> Result<Self, ParamsError> {
        params.num_buckets = params.num_buckets.next_power_of_two().max(1);
        params.try_validate()?;
        if params.bloom_bits == 0 {
            return Err(ParamsError::ZeroBloomBits);
        }
        let family = HashFamily::new(params.seed);
        let sketch =
            SketchFormat::new(params.bloom_bits, params.bloom_hashes, &family.subfamily(7));
        Ok(Self {
            table: EntryTable::new(&family, &params, sketch.bytes(), params.seed ^ 0xB100),
            sketch,
            key_lower: family.hasher(ccf_hash::salted::purpose::KEY_LOWER),
            rows_absorbed: 0,
            instruments: CcfInstruments::disabled(),
            params,
        })
    }

    /// Variant payload of the [`crate::AnyCcf`] snapshot format: exact RNG words,
    /// the absorbed-rows counter, and every entry's fingerprint plus raw Bloom
    /// sketch bits (the sketch hashers are shared configuration, rebuilt from the
    /// seed). The Bloom variant never grows, so no growth state is stored.
    pub(crate) fn snapshot_payload(&self, w: &mut ccf_cuckoo::ByteWriter) {
        self.table.write_rng(w);
        w.put_usize(self.rows_absorbed);
        self.table.write_buckets(w, |w, fp, record| {
            w.put_u16(fp);
            self.sketch.write(w, record);
        });
    }

    /// Inverse of [`BloomCcf::snapshot_payload`]; sketch widths are re-validated
    /// against `params.bloom_bits` so a corrupted payload fails typed.
    pub(crate) fn from_snapshot_payload(
        params: CcfParams,
        r: &mut ccf_cuckoo::ByteReader<'_>,
    ) -> Result<Self, ccf_cuckoo::SnapshotError> {
        let rng = read_rng(r)?;
        let rows_absorbed = r.get_usize()?;
        let mut f = crate::snapshot::at_base_size(params, 0, Self::try_new)?;
        let sketch = &f.sketch;
        f.table.restore(0, rng, r, |r, record| {
            let fp = r.get_u16()?;
            sketch.read(r, record)?;
            Ok(fp)
        })?;
        f.rows_absorbed = rows_absorbed;
        Ok(f)
    }

    /// Resolve this filter's [`CcfInstruments`] against `telemetry` (series get
    /// `variant="bloom"` plus `extra` labels). Call once; hot paths then record
    /// through pre-resolved handles. The Bloom variant never grows or rolls back
    /// via retry, so its grow counter stays at zero by construction.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry, extra: &[(&str, &str)]) {
        self.instruments = CcfInstruments::resolve(telemetry, "bloom", extra);
    }

    /// The telemetry bundle events are recorded into (disabled by default).
    pub fn instruments(&self) -> &CcfInstruments {
        &self.instruments
    }

    /// The hasher typed keys are lowered with ([`FilterKey::lower`]); see
    /// [`crate::key`] for the prehashed-key contract.
    pub fn key_lower_hasher(&self) -> SaltedHasher {
        self.key_lower
    }

    /// The filter's parameters (with `num_buckets` normalized).
    pub fn params(&self) -> &CcfParams {
        &self.params
    }

    /// Number of occupied entries (one per distinct key fingerprint per bucket pair).
    pub fn occupied_entries(&self) -> usize {
        self.table.occupied()
    }

    /// Number of rows absorbed.
    pub fn rows_absorbed(&self) -> usize {
        self.rows_absorbed
    }

    /// Total entry slots `m · b`.
    pub fn capacity(&self) -> usize {
        self.table.capacity()
    }

    /// Load factor β.
    pub fn load_factor(&self) -> f64 {
        self.table.load_factor()
    }

    /// Serialized size in bits: every slot carries |κ| + Bloom bits.
    pub fn size_bits(&self) -> usize {
        self.capacity() * self.params.bloom_entry_bits()
    }

    /// Per-bucket occupancy summary, including the allocated heap bytes of the entry
    /// table (whose payload slab holds the sketches).
    pub fn occupancy(&self) -> OccupancyStats {
        self.table.occupancy()
    }

    /// Resize-history summary. The Bloom variant does not grow, so the history is
    /// always empty (zero doublings).
    pub fn growth_stats(&self) -> GrowthStats {
        self.table.growth_stats()
    }

    /// Insert a row. Rows whose key fingerprint is already present in the bucket pair
    /// are merged into the existing entry's Bloom sketch.
    pub fn insert_row<K: FilterKey>(
        &mut self,
        key: K,
        attrs: &[u64],
    ) -> Result<InsertOutcome, InsertFailure> {
        let key = key.lower(&self.key_lower);
        self.insert_row_prehashed(key, attrs)
    }

    /// [`BloomCcf::insert_row`] on already-lowered key material (see
    /// [`BloomCcf::key_lower_hasher`]). For `u64` keys the two are identical.
    pub fn insert_row_prehashed(
        &mut self,
        key: u64,
        attrs: &[u64],
    ) -> Result<InsertOutcome, InsertFailure> {
        let result = match self.params.check_arity(attrs) {
            Ok(()) => self.try_insert_row(key, attrs),
            Err(e) => Err(e),
        };
        self.instruments.record_insert(&result);
        result
    }

    fn try_insert_row(&mut self, key: u64, attrs: &[u64]) -> Result<InsertOutcome, InsertFailure> {
        let (fp, l, l_alt) = self.table.pair_of(key);
        self.rows_absorbed += 1;

        // Merge into an existing entry for this fingerprint (duplicate key, or a
        // colliding key — either way no false negatives are introduced).
        let existing = self.table.pair_slots(fp, l, l_alt).next();
        if let Some((bucket, slot)) = existing {
            add_row(&self.sketch, self.table.payload_mut(bucket, slot), attrs);
            return Ok(InsertOutcome::Merged);
        }

        // Otherwise create a fresh entry, kicking as needed.
        let staged = self.table.staged_mut();
        staged.fill(0);
        add_row(&self.sketch, staged, attrs);
        let placed = self.table.place_staged(
            fp,
            (l, l_alt),
            KickRule::CoinTestAfter,
            self.params.max_kicks,
            &self.instruments,
        );
        if placed.is_err() {
            self.rows_absorbed -= 1;
        }
        placed
    }

    /// Deletion is structurally unsupported: every row of a key is merged into one
    /// per-entry Bloom sketch, and Bloom bits cannot be unmerged without breaking the
    /// other rows' no-false-negative guarantee. Always returns
    /// [`DeleteFailure::Unsupported`] as a value (never panics), so churn-capable
    /// deployments can detect the misconfiguration and pick a deletable variant.
    pub fn delete_row<K: FilterKey>(
        &mut self,
        _key: K,
        _attrs: &[u64],
    ) -> Result<bool, DeleteFailure> {
        Err(DeleteFailure::Unsupported)
    }

    /// [`BloomCcf::delete_row`] on already-lowered key material (also unsupported).
    pub fn delete_row_prehashed(
        &mut self,
        _key: u64,
        _attrs: &[u64],
    ) -> Result<bool, DeleteFailure> {
        self.instruments
            .record_delete(&Err(DeleteFailure::Unsupported));
        Err(DeleteFailure::Unsupported)
    }

    /// Key deletion is unsupported for the same reason as [`BloomCcf::delete_row`]:
    /// removing the key's entry would also erase every row merged into its sketch,
    /// including rows the caller did not ask to delete (colliding fingerprints merge
    /// *different* keys into one entry).
    pub fn delete_key<K: FilterKey>(&mut self, _key: K) -> Result<bool, DeleteFailure> {
        Err(DeleteFailure::Unsupported)
    }

    /// [`BloomCcf::delete_key`] on already-lowered key material (also unsupported).
    pub fn delete_key_prehashed(&mut self, _key: u64) -> Result<bool, DeleteFailure> {
        self.instruments
            .record_delete(&Err(DeleteFailure::Unsupported));
        Err(DeleteFailure::Unsupported)
    }

    /// Batched row deletion: one [`DeleteFailure::Unsupported`] per row.
    pub fn delete_row_batch<K: FilterKey, A: AsRef<[u64]>>(
        &mut self,
        rows: &[(K, A)],
    ) -> Vec<Result<bool, DeleteFailure>> {
        rows.iter()
            .map(|_| {
                self.instruments
                    .record_delete(&Err(DeleteFailure::Unsupported));
                Err(DeleteFailure::Unsupported)
            })
            .collect()
    }

    /// [`BloomCcf::delete_row_batch`] on already-lowered key material.
    pub fn delete_row_batch_prehashed(
        &mut self,
        rows: &[(u64, &[u64])],
    ) -> Vec<Result<bool, DeleteFailure>> {
        rows.iter()
            .map(|&(key, attrs)| self.delete_row_prehashed(key, attrs))
            .collect()
    }

    /// Batched key deletion: one [`DeleteFailure::Unsupported`] per key.
    pub fn delete_key_batch<K: FilterKey>(
        &mut self,
        keys: &[K],
    ) -> Vec<Result<bool, DeleteFailure>> {
        keys.iter()
            .map(|_| {
                self.instruments
                    .record_delete(&Err(DeleteFailure::Unsupported));
                Err(DeleteFailure::Unsupported)
            })
            .collect()
    }

    /// [`BloomCcf::delete_key_batch`] on already-lowered key material.
    pub fn delete_key_batch_prehashed(&mut self, keys: &[u64]) -> Vec<Result<bool, DeleteFailure>> {
        keys.iter()
            .map(|&key| self.delete_key_prehashed(key))
            .collect()
    }

    /// Query for a key under a predicate (Algorithm 1): true if some entry in the key's
    /// bucket pair carries the key's fingerprint and its Bloom sketch matches every
    /// constrained column.
    pub fn query<K: FilterKey>(&self, key: K, pred: &Predicate) -> bool {
        self.query_prehashed(key.lower(&self.key_lower), pred)
    }

    /// [`BloomCcf::query`] on already-lowered key material.
    pub fn query_prehashed(&self, key: u64, pred: &Predicate) -> bool {
        let (fp, l, l_alt) = self.table.pair_of(key);
        let hit = self.query_pair(fp, l, l_alt, pred);
        self.instruments.record_query(hit);
        hit
    }

    /// The probe shared by [`BloomCcf::query`] and [`BloomCcf::query_batch`], so the
    /// two can never diverge.
    fn query_pair(&self, fp: u16, l: usize, l_alt: usize, pred: &Predicate) -> bool {
        self.table
            .pair_slots(fp, l, l_alt)
            .any(|(b, s)| match_raw_bloom(pred, &self.sketch, self.table.payload(b, s)))
    }

    /// Batched predicate query: bit-identical to calling [`BloomCcf::query`] per key,
    /// using the chunked hash→prefetch→probe driver ([`ccf_cuckoo::geometry::probe_chunked`]).
    /// `u64` key batches are lowered copy-free.
    pub fn query_batch<K: FilterKey>(&self, keys: &[K], pred: &Predicate) -> Vec<bool> {
        self.query_batch_prehashed(&K::lower_batch(keys, &self.key_lower), pred)
    }

    /// [`BloomCcf::query_batch`] on already-lowered key material.
    pub fn query_batch_prehashed(&self, keys: &[u64], pred: &Predicate) -> Vec<bool> {
        let hits = probe_chunked(
            keys,
            |key| self.table.pair_of(key),
            |bucket| self.table.prefetch(bucket),
            |fp, l, l_alt| self.query_pair(fp, l, l_alt, pred),
        );
        self.instruments.record_query_batch(&hits);
        hits
    }

    /// Key-only membership query — identical to a regular cuckoo filter (§7.1).
    pub fn contains_key<K: FilterKey>(&self, key: K) -> bool {
        self.contains_key_prehashed(key.lower(&self.key_lower))
    }

    /// [`BloomCcf::contains_key`] on already-lowered key material.
    pub fn contains_key_prehashed(&self, key: u64) -> bool {
        let (fp, l, l_alt) = self.table.pair_of(key);
        self.table.contains(fp, l, l_alt)
    }

    /// Batched key-only membership query (see [`BloomCcf::query_batch`]).
    pub fn contains_key_batch<K: FilterKey>(&self, keys: &[K]) -> Vec<bool> {
        self.contains_key_batch_prehashed(&K::lower_batch(keys, &self.key_lower))
    }

    /// [`BloomCcf::contains_key_batch`] on already-lowered key material.
    pub fn contains_key_batch_prehashed(&self, keys: &[u64]) -> Vec<bool> {
        self.table.contains_batch(keys)
    }

    /// Predicate-only query (Algorithm 2): erase entries whose sketch cannot match the
    /// predicate and return the surviving key fingerprints as a standard cuckoo filter
    /// with the same geometry.
    pub fn predicate_filter(&self, pred: &Predicate) -> CuckooFilter {
        let t = &self.table;
        let mut out = CuckooFilter::with_geometry(
            t.num_buckets(),
            self.params.entries_per_bucket,
            self.params.fingerprint_bits,
            self.params.seed,
        );
        for bucket in 0..t.num_buckets() {
            for slot in 0..t.len(bucket) {
                if match_raw_bloom(pred, &self.sketch, t.payload(bucket, slot)) {
                    // Entries are copied in place (H′_{ℓ,i} = κ): the surviving
                    // fingerprint is inserted with the same bucket as its current home,
                    // which is always one of its two legal buckets.
                    out.insert_fingerprint(t.fp(bucket, slot), bucket)
                        .expect("derived filter has identical geometry, insertion cannot fail");
                }
            }
        }
        out
    }
}

/// Insert every (column, value) pair of a row into a sketch record.
fn add_row(sketch: &SketchFormat, record: &mut [u8], attrs: &[u64]) {
    for (col, &v) in attrs.iter().enumerate() {
        sketch.insert_pair(record, col, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(seed: u64) -> CcfParams {
        CcfParams {
            num_buckets: 1 << 10,
            entries_per_bucket: 4,
            fingerprint_bits: 12,
            attr_bits: 8,
            num_attrs: 2,
            bloom_bits: 24,
            bloom_hashes: 2,
            seed,
            ..CcfParams::default()
        }
    }

    #[test]
    fn no_false_negatives_across_duplicates() {
        let mut f = BloomCcf::new(params(1));
        for key in 0..500u64 {
            for i in 0..5u64 {
                f.insert_row(key, &[i, key % 7]).unwrap();
            }
        }
        for key in 0..500u64 {
            for i in 0..5u64 {
                assert!(
                    f.query(key, &Predicate::any(2).and_eq(0, i).and_eq(1, key % 7)),
                    "false negative for key {key}, row {i}"
                );
            }
        }
    }

    #[test]
    fn occupied_entries_equal_distinct_keys() {
        // Table 1: the Bloom variant's non-empty entries are nk regardless of
        // duplication (modulo rare fingerprint collisions that merge keys).
        let mut f = BloomCcf::new(params(2));
        for key in 0..300u64 {
            for i in 0..10u64 {
                f.insert_row(key, &[i, i * 2]).unwrap();
            }
        }
        assert!(f.occupied_entries() <= 300);
        assert!(
            f.occupied_entries() >= 295,
            "unexpectedly many fingerprint merges"
        );
    }

    #[test]
    fn non_matching_predicates_are_rejected_with_bloom_fpr() {
        let mut f = BloomCcf::new(params(3));
        for key in 0..1000u64 {
            f.insert_row(key, &[3, 40]).unwrap();
        }
        // Probe present keys with an attribute value that was never inserted; the only
        // false positives are Bloom collisions inside the 24-bit sketch.
        let fp = (0..1000u64)
            .filter(|&k| f.query(k, &Predicate::any(2).and_eq(0, 999)))
            .count();
        let rate = fp as f64 / 1000.0;
        assert!(
            rate < 0.30,
            "attribute FPR {rate} unreasonably high for a 24-bit sketch"
        );
    }

    #[test]
    fn key_only_fpr_matches_cuckoo_filter_regime() {
        let mut f = BloomCcf::new(params(4));
        for key in 0..3000u64 {
            f.insert_row(key, &[1, 2]).unwrap();
        }
        let fp = (1_000_000..1_050_000u64)
            .filter(|&k| f.contains_key(k))
            .count();
        assert!((fp as f64 / 50_000.0) < 0.01);
    }

    #[test]
    fn cross_row_combinations_are_false_positives() {
        // §5.2: the Bloom sketch cannot encode co-occurrence.
        let mut f = BloomCcf::new(params(5));
        f.insert_row(9, &[1, 10]).unwrap();
        f.insert_row(9, &[2, 20]).unwrap();
        assert!(f.query(9, &Predicate::any(2).and_eq(0, 1).and_eq(1, 20)));
    }

    #[test]
    fn predicate_filter_keeps_matching_keys_and_drops_most_others() {
        let mut f = BloomCcf::new(params(6));
        for key in 0..2000u64 {
            f.insert_row(key, &[key % 4, 7]).unwrap();
        }
        let derived = f.predicate_filter(&Predicate::any(2).and_eq(0, 2));
        let mut misses = 0;
        let mut kept_non_matching = 0;
        for key in 0..2000u64 {
            let should_match = key % 4 == 2;
            let does = derived.contains(key);
            if should_match && !does {
                misses += 1;
            }
            if !should_match && does {
                kept_non_matching += 1;
            }
        }
        assert_eq!(misses, 0, "Algorithm 2 must not introduce false negatives");
        // Bloom sketches over a single small value are sparse; most non-matching keys
        // should be erased.
        assert!(
            (kept_non_matching as f64 / 1500.0) < 0.5,
            "derived filter kept {kept_non_matching} non-matching keys"
        );
    }

    #[test]
    fn merge_behaviour_reports_outcomes() {
        let mut f = BloomCcf::new(params(7));
        assert_eq!(f.insert_row(1, &[1, 1]).unwrap(), InsertOutcome::Inserted);
        assert_eq!(f.insert_row(1, &[2, 2]).unwrap(), InsertOutcome::Merged);
        assert_eq!(f.occupied_entries(), 1);
        assert_eq!(f.rows_absorbed(), 2);
    }

    #[test]
    fn deletion_is_a_typed_error_and_leaves_the_filter_untouched() {
        let mut f = BloomCcf::new(params(9));
        f.insert_row(1u64, &[2, 3]).unwrap();
        assert_eq!(f.delete_row(1u64, &[2, 3]), Err(DeleteFailure::Unsupported));
        assert_eq!(f.delete_key(1u64), Err(DeleteFailure::Unsupported));
        assert_eq!(
            f.delete_row_batch(&[(1u64, [2u64, 3])]),
            vec![Err(DeleteFailure::Unsupported)]
        );
        assert_eq!(
            f.delete_key_batch(&[1u64, 2u64]),
            vec![Err(DeleteFailure::Unsupported); 2]
        );
        assert!(f.contains_key(1u64));
        assert_eq!(f.occupied_entries(), 1);
    }

    #[test]
    fn size_bits_reflects_bloom_budget() {
        let f = BloomCcf::new(params(8));
        assert_eq!(f.size_bits(), 1024 * 4 * (12 + 24));
    }

    #[test]
    fn heap_bytes_are_the_tables_allocated_capacity() {
        let mut f = BloomCcf::new(params(10));
        for key in 0..2000u64 {
            f.insert_row(key, &[key % 3, 7]).unwrap();
        }
        let heap = f.occupancy().heap_bytes;
        assert_eq!(heap, f.table.heap_bytes());
        // κ plus a 24-bit sketch and its pair count: 2 + 2·(2 + 4) bytes per slot,
        // and no hasher list per entry.
        assert!(
            heap >= f.capacity() * 14,
            "{heap} B for {} slots",
            f.capacity()
        );
        assert!(
            heap < f.capacity() * 17,
            "{heap} B for {} slots",
            f.capacity()
        );
    }
}
