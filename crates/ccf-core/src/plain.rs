//! The *Plain* CCF: a multiset cuckoo filter whose entries carry attribute fingerprint
//! vectors, with no duplicate handling beyond what the bucket pair can hold.
//!
//! This is the "Plain (regular cuckoo filter allowing duplicate keys)" baseline of
//! §10.4. Each distinct (key, attribute vector) row occupies its own entry, and because
//! a key can only reach its two buckets, at most `2b` rows per key fit. §10.5 reports
//! that Plain filters "did not result in reasonably sized filters" on JOB-light — the
//! `movie_keyword` table would need a bucket size of 270 — and Figure 4 shows the load
//! factor at first failure collapsing as duplication grows. The variant exists so those
//! comparisons can be reproduced.

use ccf_cuckoo::geometry::{grow_and_retry, probe_chunked};
use ccf_cuckoo::{GrowthStats, OccupancyStats};
use ccf_hash::salted::purpose;
use ccf_hash::{AttrFingerprinter, HashFamily, SaltedHasher};
use ccf_telemetry::Telemetry;

use crate::attr::match_fingerprint_vector;
use crate::entry_table::{read_rng, read_vector_slot, write_vector_slot, EntryTable, KickRule};
use crate::instruments::CcfInstruments;
use crate::key::FilterKey;
use crate::outcome::{DeleteFailure, InsertFailure, InsertOutcome};
use crate::params::{CcfParams, ParamsError};
use crate::predicate::Predicate;

/// A plain (non-chaining, non-converting) conditional cuckoo filter.
#[derive(Debug, Clone)]
pub struct PlainCcf {
    /// One slot per stored row: κ and the row's attribute fingerprint vector.
    table: EntryTable,
    params: CcfParams,
    attr_fp: AttrFingerprinter,
    key_lower: SaltedHasher,
    rows_absorbed: usize,
    instruments: CcfInstruments,
}

impl PlainCcf {
    /// Create an empty filter. `params.num_buckets` is rounded up to a power of two.
    ///
    /// # Panics
    /// Panics on impossible parameters; use [`PlainCcf::try_new`] (or the
    /// [`crate::CcfBuilder`] facade) to get a [`ParamsError`] instead.
    pub fn new(params: CcfParams) -> Self {
        Self::try_new(params).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Create an empty filter, reporting impossible parameters as a [`ParamsError`].
    /// `params.num_buckets` is rounded up to a power of two.
    pub fn try_new(mut params: CcfParams) -> Result<Self, ParamsError> {
        params.num_buckets = params.num_buckets.next_power_of_two().max(1);
        params.try_validate()?;
        let family = HashFamily::new(params.seed);
        Ok(Self {
            table: EntryTable::new(&family, &params, params.num_attrs, params.seed ^ 0x9A1C),
            attr_fp: AttrFingerprinter::new(&family, params.attr_bits, params.small_value_opt),
            key_lower: family.hasher(purpose::KEY_LOWER),
            rows_absorbed: 0,
            instruments: CcfInstruments::disabled(),
            params,
        })
    }

    /// Variant payload of the [`crate::AnyCcf`] snapshot format: growth state, exact
    /// RNG words, the absorbed-rows counter, and every bucket's entries. Params and
    /// the sealed envelope are written by the caller.
    pub(crate) fn snapshot_payload(&self, w: &mut ccf_cuckoo::ByteWriter) {
        w.put_u32(self.growth_bits());
        self.table.write_rng(w);
        w.put_usize(self.rows_absorbed);
        self.table.write_buckets(w, write_vector_slot);
    }

    /// Inverse of [`PlainCcf::snapshot_payload`]: rebuild hashers and geometry from
    /// `params`, then restore bucket contents, counters and the RNG stream.
    /// Structural invariants (bucket width, nonzero fingerprints, growth geometry)
    /// are re-validated so a corrupted payload fails typed.
    pub(crate) fn from_snapshot_payload(
        params: CcfParams,
        r: &mut ccf_cuckoo::ByteReader<'_>,
    ) -> Result<Self, ccf_cuckoo::SnapshotError> {
        let growth_bits = r.get_u32()?;
        let rng = read_rng(r)?;
        let rows_absorbed = r.get_usize()?;
        let mut f = crate::snapshot::at_base_size(params, growth_bits, Self::try_new)?;
        f.table.restore(growth_bits, rng, r, read_vector_slot)?;
        f.params.num_buckets = params.num_buckets;
        f.rows_absorbed = rows_absorbed;
        Ok(f)
    }

    /// Start recording events into `telemetry`, labelling every series with
    /// `variant="plain"` plus `extra`. Untouched filters record nothing.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry, extra: &[(&str, &str)]) {
        self.instruments = CcfInstruments::resolve(telemetry, "plain", extra);
    }

    /// The telemetry bundle this filter records into (disabled unless attached).
    pub fn instruments(&self) -> &CcfInstruments {
        &self.instruments
    }

    /// The hasher typed keys are lowered with ([`FilterKey::lower`]). Exposed so
    /// callers that pre-hash keys themselves (or store lowered keys in an index) can
    /// produce material the `*_prehashed` methods accept.
    pub fn key_lower_hasher(&self) -> SaltedHasher {
        self.key_lower
    }

    /// The filter's parameters (with `num_buckets` normalized).
    pub fn params(&self) -> &CcfParams {
        &self.params
    }

    /// Number of occupied entries.
    pub fn occupied_entries(&self) -> usize {
        self.table.occupied()
    }

    /// Number of rows absorbed (including deduplicated ones).
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

    /// Serialized size in bits: every slot carries |κ| + #α·|α| bits.
    pub fn size_bits(&self) -> usize {
        self.capacity() * self.params.vector_entry_bits()
    }

    /// Number of capacity doublings applied so far.
    pub fn growth_bits(&self) -> u32 {
        self.table.geometry().growth_bits()
    }

    /// Per-bucket occupancy summary, including the allocated heap bytes of the entry
    /// table.
    pub fn occupancy(&self) -> OccupancyStats {
        self.table.occupancy()
    }

    /// Resize-history summary.
    pub fn growth_stats(&self) -> GrowthStats {
        self.table.growth_stats()
    }

    /// Double the filter's capacity, migrating entries by their stored fingerprints
    /// alone: each entry keeps its bucket index or moves up by the old bucket count
    /// according to its fingerprint's next growth bit. The remap cannot fail.
    pub fn grow(&mut self) {
        self.instruments.grows.inc();
        self.table.grow();
        self.params.num_buckets = self.table.num_buckets();
    }

    /// Insert a row. Exact duplicates of an already-stored (key, attributes) pair are
    /// deduplicated. Without `auto_grow`, a kick-limit failure leaves the filter
    /// unchanged; with it, the filter doubles and retries — except when the row's own
    /// bucket pair is already saturated with its key fingerprint (the §4.3 `2b` cap,
    /// which growth cannot lift because fingerprint copies share both buckets at every
    /// size).
    pub fn insert_row<K: FilterKey>(
        &mut self,
        key: K,
        attrs: &[u64],
    ) -> Result<InsertOutcome, InsertFailure> {
        let key = key.lower(&self.key_lower);
        self.insert_row_prehashed(key, attrs)
    }

    /// [`PlainCcf::insert_row`] on already-lowered key material (see
    /// [`PlainCcf::key_lower_hasher`]). For `u64` keys the two are identical.
    pub fn insert_row_prehashed(
        &mut self,
        key: u64,
        attrs: &[u64],
    ) -> Result<InsertOutcome, InsertFailure> {
        let result = match self.params.check_arity(attrs) {
            Ok(()) => grow_and_retry(
                self,
                self.params.auto_grow,
                |f| f.try_insert_row(key, attrs),
                // Growth cannot lift the §4.3 duplicate cap: fingerprint copies share
                // both buckets at every size.
                |f| !f.pair_saturated_with_own_fp(key),
                |f| f.grow(),
            ),
            Err(e) => Err(e),
        };
        self.instruments.record_insert(&result);
        result
    }

    /// Whether the key's bucket pair is already filled to its slot capacity (`2b`, or
    /// `b` when self-paired) with copies of the key's own fingerprint.
    fn pair_saturated_with_own_fp(&self, key: u64) -> bool {
        let (fp, l, alt) = self.table.pair_of(key);
        let buckets = if l == alt { 1 } else { 2 };
        self.table.count_in_pair(fp, l, alt) >= buckets * self.params.entries_per_bucket
    }

    fn try_insert_row(&mut self, key: u64, attrs: &[u64]) -> Result<InsertOutcome, InsertFailure> {
        let (fp, l, alt) = self.table.pair_of(key);
        self.attr_fp
            .fingerprint_into(attrs, self.table.staged_mut());
        self.rows_absorbed += 1;

        // Dedupe exact (κ, α) duplicates.
        let t = &self.table;
        if t.pair_slots(fp, l, alt)
            .any(|(b, s)| t.payload(b, s) == t.staged())
        {
            return Ok(InsertOutcome::Deduplicated);
        }
        let placed = self.table.place_staged(
            fp,
            (l, alt),
            KickRule::CoinTestAfter,
            self.params.max_kicks,
            &self.instruments,
        );
        if placed.is_err() {
            self.rows_absorbed -= 1;
        }
        placed
    }

    /// Delete one stored copy of a row: removes an entry in the key's bucket pair
    /// whose fingerprint and attribute fingerprint vector both match. Returns
    /// `Ok(true)` if a copy was removed, `Ok(false)` if none matched.
    ///
    /// The usual cuckoo-filter deletion caveat applies: only delete rows known to have
    /// been inserted, since a colliding (κ, α) pair from a different row would satisfy
    /// the match. Note also that exact duplicates are *deduplicated at insert*
    /// ([`InsertOutcome::Deduplicated`] — they share one entry), so deletion has set
    /// semantics per (key, attributes): one delete retires the row no matter how many
    /// times it was inserted, and a caller balancing inserts against deletes must
    /// count `Deduplicated` outcomes as already-covered. Deletion composes with
    /// growth — the pair is derived under the current split geometry, so relocated
    /// copies are found.
    pub fn delete_row<K: FilterKey>(
        &mut self,
        key: K,
        attrs: &[u64],
    ) -> Result<bool, DeleteFailure> {
        let key = key.lower(&self.key_lower);
        self.delete_row_prehashed(key, attrs)
    }

    /// [`PlainCcf::delete_row`] on already-lowered key material.
    pub fn delete_row_prehashed(&mut self, key: u64, attrs: &[u64]) -> Result<bool, DeleteFailure> {
        let result = match self.params.check_delete_arity(attrs) {
            Ok(()) => {
                self.attr_fp
                    .fingerprint_into(attrs, self.table.staged_mut());
                Ok(self.remove_matching(key, true))
            }
            Err(e) => Err(e),
        };
        self.instruments.record_delete(&result);
        result
    }

    /// Delete one stored entry carrying the key's fingerprint, regardless of its
    /// attribute vector. Returns `Ok(true)` if a copy was removed.
    pub fn delete_key<K: FilterKey>(&mut self, key: K) -> Result<bool, DeleteFailure> {
        let key = key.lower(&self.key_lower);
        self.delete_key_prehashed(key)
    }

    /// [`PlainCcf::delete_key`] on already-lowered key material.
    pub fn delete_key_prehashed(&mut self, key: u64) -> Result<bool, DeleteFailure> {
        let result = Ok(self.remove_matching(key, false));
        self.instruments.record_delete(&result);
        result
    }

    /// Remove the first entry in the key's pair carrying its fingerprint and, with
    /// `by_row`, the staged attribute fingerprint vector, keeping `rows_absorbed`
    /// exact.
    fn remove_matching(&mut self, key: u64, by_row: bool) -> bool {
        let (fp, l, alt) = self.table.pair_of(key);
        let t = &self.table;
        let hit = t
            .pair_slots(fp, l, alt)
            .find(|&(b, s)| !by_row || t.payload(b, s) == t.staged());
        let Some((bucket, slot)) = hit else {
            return false;
        };
        self.table.swap_remove(bucket, slot);
        self.rows_absorbed = self.rows_absorbed.saturating_sub(1);
        true
    }

    /// Batched row deletion: equivalent to calling [`PlainCcf::delete_row`] per row in
    /// input order.
    pub fn delete_row_batch<K: FilterKey, A: AsRef<[u64]>>(
        &mut self,
        rows: &[(K, A)],
    ) -> Vec<Result<bool, DeleteFailure>> {
        rows.iter()
            .map(|(k, a)| self.delete_row_prehashed(k.lower(&self.key_lower), a.as_ref()))
            .collect()
    }

    /// [`PlainCcf::delete_row_batch`] on already-lowered key material.
    pub fn delete_row_batch_prehashed(
        &mut self,
        rows: &[(u64, &[u64])],
    ) -> Vec<Result<bool, DeleteFailure>> {
        rows.iter()
            .map(|&(k, a)| self.delete_row_prehashed(k, a))
            .collect()
    }

    /// Batched key deletion: equivalent to calling [`PlainCcf::delete_key`] per key in
    /// input order.
    pub fn delete_key_batch<K: FilterKey>(
        &mut self,
        keys: &[K],
    ) -> Vec<Result<bool, DeleteFailure>> {
        keys.iter()
            .map(|k| self.delete_key_prehashed(k.lower(&self.key_lower)))
            .collect()
    }

    /// [`PlainCcf::delete_key_batch`] on already-lowered key material.
    pub fn delete_key_batch_prehashed(&mut self, keys: &[u64]) -> Vec<Result<bool, DeleteFailure>> {
        keys.iter().map(|&k| self.delete_key_prehashed(k)).collect()
    }

    /// Query for a key under a predicate: true if some entry in the key's bucket pair
    /// has the key's fingerprint and an attribute vector matching the predicate.
    pub fn query<K: FilterKey>(&self, key: K, pred: &Predicate) -> bool {
        self.query_prehashed(key.lower(&self.key_lower), pred)
    }

    /// [`PlainCcf::query`] on already-lowered key material.
    pub fn query_prehashed(&self, key: u64, pred: &Predicate) -> bool {
        let (fp, l, alt) = self.table.pair_of(key);
        let hit = self.query_pair(fp, l, alt, pred);
        self.instruments.record_query(hit);
        hit
    }

    fn query_pair(&self, fp: u16, l: usize, alt: usize, pred: &Predicate) -> bool {
        self.table
            .pair_slots(fp, l, alt)
            .any(|(b, s)| match_fingerprint_vector(pred, self.table.payload(b, s), &self.attr_fp))
    }

    /// Batched predicate query: bit-identical to calling [`PlainCcf::query`] per key,
    /// using the chunked hash→prefetch→probe driver ([`ccf_cuckoo::geometry::probe_chunked`])
    /// shared by every batched query path. `u64` key batches are lowered copy-free.
    pub fn query_batch<K: FilterKey>(&self, keys: &[K], pred: &Predicate) -> Vec<bool> {
        self.query_batch_prehashed(&K::lower_batch(keys, &self.key_lower), pred)
    }

    /// [`PlainCcf::query_batch`] on already-lowered key material.
    pub fn query_batch_prehashed(&self, keys: &[u64], pred: &Predicate) -> Vec<bool> {
        let hits = probe_chunked(
            keys,
            |key| self.table.pair_of(key),
            |bucket| self.table.prefetch(bucket),
            |fp, l, alt| self.query_pair(fp, l, alt, pred),
        );
        self.instruments.record_query_batch(&hits);
        hits
    }

    /// Key-only membership query.
    pub fn contains_key<K: FilterKey>(&self, key: K) -> bool {
        self.contains_key_prehashed(key.lower(&self.key_lower))
    }

    /// [`PlainCcf::contains_key`] on already-lowered key material.
    pub fn contains_key_prehashed(&self, key: u64) -> bool {
        let (fp, l, alt) = self.table.pair_of(key);
        self.table.contains(fp, l, alt)
    }

    /// Batched key-only membership query (see [`PlainCcf::query_batch`]).
    pub fn contains_key_batch<K: FilterKey>(&self, keys: &[K]) -> Vec<bool> {
        self.contains_key_batch_prehashed(&K::lower_batch(keys, &self.key_lower))
    }

    /// [`PlainCcf::contains_key_batch`] on already-lowered key material.
    pub fn contains_key_batch_prehashed(&self, keys: &[u64]) -> Vec<bool> {
        self.table.contains_batch(keys)
    }

    /// The attribute fingerprinter (shared so baselines can compute identical
    /// fingerprints when analysing false positives).
    pub fn attr_fingerprinter(&self) -> &AttrFingerprinter {
        &self.attr_fp
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
            seed,
            ..CcfParams::default()
        }
    }

    #[test]
    fn no_false_negatives_on_unique_keys() {
        let mut f = PlainCcf::new(params(1));
        for k in 0..3000u64 {
            f.insert_row(k, &[k % 7, k % 11]).unwrap();
        }
        for k in 0..3000u64 {
            assert!(f.query(k, &Predicate::any(2).and_eq(0, k % 7).and_eq(1, k % 11)));
            assert!(f.contains_key(k));
        }
    }

    #[test]
    fn non_matching_predicates_are_mostly_rejected() {
        let mut f = PlainCcf::new(params(2));
        for k in 0..2000u64 {
            f.insert_row(k, &[3, 100]).unwrap();
        }
        // Query each present key with a wrong attribute value; small-value optimisation
        // stores 3 exactly, so column 0 mismatches can never collide.
        let fp = (0..2000u64)
            .filter(|&k| f.query(k, &Predicate::any(2).and_eq(0, 4)))
            .count();
        assert_eq!(fp, 0);
    }

    #[test]
    fn absent_keys_have_low_fpr() {
        let mut f = PlainCcf::new(params(3));
        for k in 0..3000u64 {
            f.insert_row(k, &[1, 2]).unwrap();
        }
        let fp = (10_000..60_000u64).filter(|&k| f.contains_key(k)).count();
        let rate = fp as f64 / 50_000.0;
        // E[D]·2^-12 with ~6 occupied entries/pair ≈ 0.15 %.
        assert!(rate < 0.01, "key-only FPR too high: {rate}");
    }

    #[test]
    fn duplicate_rows_are_deduplicated() {
        let mut f = PlainCcf::new(params(4));
        assert_eq!(
            f.insert_row(5u64, &[1, 1]).unwrap(),
            InsertOutcome::Inserted
        );
        assert_eq!(
            f.insert_row(5u64, &[1, 1]).unwrap(),
            InsertOutcome::Deduplicated
        );
        assert_eq!(f.occupied_entries(), 1);
        assert_eq!(f.rows_absorbed(), 2);
    }

    #[test]
    fn duplicate_keys_with_distinct_attrs_fill_the_pair_then_fail() {
        let mut f = PlainCcf::new(params(5));
        let b = f.params().entries_per_bucket;
        let mut failures = 0;
        for i in 0..(2 * b as u64 + 4) {
            // Distinct attribute values > 2^8 so each gets its own entry.
            if f.insert_row(77, &[1000 + i, 2000 + i]).is_err() {
                failures += 1;
            }
        }
        assert!(
            failures >= 4,
            "expected the pair to overflow, got {failures} failures"
        );
        assert!(f.occupied_entries() <= 2 * b);
    }

    #[test]
    fn failed_insert_leaves_filter_unchanged() {
        let mut f = PlainCcf::new(CcfParams {
            num_buckets: 4,
            entries_per_bucket: 2,
            ..params(6)
        });
        // Fill to capacity with unique keys, tolerating failures.
        let mut stored = Vec::new();
        for k in 0..64u64 {
            if f.insert_row(k, &[k % 5, k % 3]).is_ok() {
                stored.push(k);
            }
        }
        let occupied = f.occupied_entries();
        // Now force failures and verify nothing previously stored is lost.
        let mut failed_any = false;
        for k in 1000..1100u64 {
            if f.insert_row(k, &[0, 0]).is_err() {
                failed_any = true;
            }
        }
        assert!(failed_any, "expected at least one failure on a tiny filter");
        for &k in &stored {
            assert!(
                f.query(k, &Predicate::any(2).and_eq(0, k % 5).and_eq(1, k % 3)),
                "lost row for key {k} after failed insertions"
            );
        }
        assert!(f.occupied_entries() >= occupied);
    }

    #[test]
    fn grow_preserves_every_stored_row() {
        let mut f = PlainCcf::new(params(10));
        for k in 0..2000u64 {
            f.insert_row(k, &[k % 7, k % 11]).unwrap();
        }
        let occupied = f.occupied_entries();
        f.grow();
        assert_eq!(f.params().num_buckets, 1 << 11);
        assert_eq!(f.occupied_entries(), occupied);
        for k in 0..2000u64 {
            assert!(f.query(k, &Predicate::any(2).and_eq(0, k % 7).and_eq(1, k % 11)));
            assert!(f.contains_key(k));
        }
    }

    #[test]
    fn auto_grow_accepts_four_times_the_sized_capacity() {
        let mut f = PlainCcf::new(
            CcfParams {
                num_buckets: 1 << 8,
                ..params(11)
            }
            .with_auto_grow(),
        );
        let four_n = 4 * f.capacity() as u64;
        for k in 0..four_n {
            f.insert_row(k, &[k % 5, k % 9])
                .unwrap_or_else(|e| panic!("auto-grow insert of {k} failed: {e}"));
        }
        assert!(f.growth_bits() >= 2);
        for k in 0..four_n {
            assert!(
                f.query(k, &Predicate::any(2).and_eq(0, k % 5).and_eq(1, k % 9)),
                "false negative for {k} after auto-growth"
            );
        }
    }

    #[test]
    fn auto_grow_does_not_chase_the_duplicate_cap() {
        // >2b distinct rows of one key saturate its pair with one fingerprint; growth
        // cannot separate the copies, so the insert must fail without doubling forever.
        let mut f = PlainCcf::new(params(12).with_auto_grow());
        let b = f.params().entries_per_bucket as u64;
        let mut failures = 0;
        for i in 0..(2 * b + 4) {
            if f.insert_row(99, &[1000 + i, 2000 + i]).is_err() {
                failures += 1;
            }
        }
        assert!(failures >= 4, "the 2b cap must still bind under auto_grow");
        assert_eq!(f.growth_bits(), 0, "duplicate-cap failures must not grow");
    }

    #[test]
    fn batch_queries_match_per_key_loops() {
        let mut f = PlainCcf::new(params(13));
        for k in 0..1500u64 {
            f.insert_row(k, &[k % 4, k % 6]).unwrap();
        }
        f.grow(); // batch and per-key must also agree on grown geometry
        let keys: Vec<u64> = (0..4000u64).collect();
        let pred = Predicate::any(2).and_eq(0, 1);
        let queried = f.query_batch(&keys, &pred);
        let contained = f.contains_key_batch(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(queried[i], f.query(k, &pred));
            assert_eq!(contained[i], f.contains_key(k));
        }
    }

    #[test]
    fn size_bits_counts_every_slot() {
        let f = PlainCcf::new(params(7));
        assert_eq!(f.size_bits(), 1024 * 4 * (12 + 2 * 8));
    }

    #[test]
    fn wrong_attribute_arity_is_a_typed_error_not_a_panic() {
        let mut f = PlainCcf::new(params(8));
        assert_eq!(
            f.insert_row(1u64, &[1]),
            Err(InsertFailure::AttrArityMismatch {
                expected: 2,
                got: 1
            })
        );
        // The filter is untouched and the failure does not trigger auto-growth.
        assert_eq!(f.occupied_entries(), 0);
        assert_eq!(f.rows_absorbed(), 0);
        let mut growable = PlainCcf::new(params(8).with_auto_grow());
        assert!(growable.insert_row(1u64, &[1, 2, 3]).is_err());
        assert_eq!(growable.growth_bits(), 0, "arity errors must never grow");
    }

    #[test]
    fn in_list_queries_match_any_candidate() {
        let mut f = PlainCcf::new(params(9));
        f.insert_row(10u64, &[6, 0]).unwrap();
        assert!(f.query(10u64, &Predicate::in_list(2, 0, vec![5, 6, 7])));
        assert!(!f.query(10u64, &Predicate::in_list(2, 0, vec![1, 2])));
    }

    #[test]
    fn typed_keys_round_trip_and_match_their_lowered_material() {
        let mut f = PlainCcf::new(params(14));
        f.insert_row("user-7", &[3, 4]).unwrap();
        f.insert_row((9u64, 11u64), &[5, 6]).unwrap();
        f.insert_row(b"raw-bytes".as_slice(), &[1, 2]).unwrap();
        assert!(f.contains_key("user-7"));
        assert!(f.query("user-7", &Predicate::any(2).and_eq(0, 3)));
        assert!(f.contains_key((9u64, 11u64)));
        assert!(f.contains_key(b"raw-bytes".as_slice()));
        // Typed queries agree with the prehashed core on the lowered material.
        let h = f.key_lower_hasher();
        assert!(f.contains_key_prehashed("user-7".lower(&h)));
        assert_eq!(
            f.query_batch(&["user-7", "nobody"], &Predicate::any(2)),
            f.query_batch_prehashed(
                &["user-7".lower(&h), "nobody".lower(&h)],
                &Predicate::any(2)
            ),
        );
        // (a, b) and (b, a) are distinct composite keys (overwhelmingly likely to
        // miss on a near-empty filter).
        assert!(!f.contains_key((11u64, 9u64)));
    }

    #[test]
    fn delete_row_removes_exactly_one_copy_and_frees_the_slot() {
        let mut f = PlainCcf::new(params(20));
        f.insert_row(7u64, &[1000, 2000]).unwrap();
        f.insert_row(7u64, &[1001, 2001]).unwrap();
        assert_eq!(f.occupied_entries(), 2);
        assert_eq!(f.rows_absorbed(), 2);
        assert_eq!(f.delete_row(7u64, &[1000, 2000]), Ok(true));
        assert_eq!(f.occupied_entries(), 1);
        assert_eq!(f.rows_absorbed(), 1);
        // The other row survives; the deleted one is gone.
        assert!(f.query(7u64, &Predicate::any(2).and_eq(0, 1001).and_eq(1, 2001)));
        assert!(!f.query(7u64, &Predicate::any(2).and_eq(0, 1000).and_eq(1, 2000)));
        assert_eq!(f.delete_row(7u64, &[1000, 2000]), Ok(false));
        // The freed slot is reusable and the key disappears with its last row.
        assert_eq!(f.delete_key(7u64), Ok(true));
        assert!(!f.contains_key(7u64));
        assert_eq!(f.occupied_entries(), 0);
    }

    #[test]
    fn delete_arity_mismatch_is_typed_and_leaves_the_filter_unchanged() {
        let mut f = PlainCcf::new(params(21));
        f.insert_row(1u64, &[5, 6]).unwrap();
        assert_eq!(
            f.delete_row(1u64, &[5]),
            Err(DeleteFailure::AttrArityMismatch {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(f.occupied_entries(), 1);
        assert!(f.contains_key(1u64));
    }

    #[test]
    fn delete_after_grow_finds_relocated_copies() {
        let mut f = PlainCcf::new(params(22));
        for k in 0..1500u64 {
            f.insert_row(k, &[k % 7, k % 11]).unwrap();
        }
        f.grow();
        f.grow();
        for k in (0..1500u64).step_by(3) {
            assert_eq!(
                f.delete_row(k, &[k % 7, k % 11]),
                Ok(true),
                "delete of {k} missed its relocated copy after growth"
            );
        }
        for k in 0..1500u64 {
            if k % 3 != 0 {
                assert!(f.contains_key(k), "undeleted key {k} lost");
            }
        }
    }

    #[test]
    fn delete_batches_match_sequential_loops() {
        let mut batch = PlainCcf::new(params(23));
        let mut seq = PlainCcf::new(params(23));
        let rows: Vec<(u64, [u64; 2])> = (0..600u64).map(|k| (k, [k % 9, k % 13])).collect();
        for (k, a) in &rows {
            batch.insert_row(*k, a).unwrap();
            seq.insert_row(*k, a).unwrap();
        }
        let victims: Vec<(u64, [u64; 2])> = rows.iter().step_by(2).cloned().collect();
        let batched = batch.delete_row_batch(&victims);
        let sequential: Vec<_> = victims.iter().map(|(k, a)| seq.delete_row(*k, a)).collect();
        assert_eq!(batched, sequential);
        assert_eq!(batch.occupied_entries(), seq.occupied_entries());
        let keys: Vec<u64> = rows.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            batch.contains_key_batch(&keys),
            seq.contains_key_batch(&keys)
        );
        // Key-batch form agrees too.
        let more: Vec<u64> = keys.iter().copied().step_by(5).collect();
        assert_eq!(batch.delete_key_batch(&more), seq.delete_key_batch(&more));
    }

    #[test]
    fn try_new_reports_bad_params_instead_of_panicking() {
        let bad = CcfParams {
            fingerprint_bits: 19,
            ..params(0)
        };
        assert_eq!(
            PlainCcf::try_new(bad).err(),
            Some(ParamsError::FingerprintBitsOutOfRange { got: 19 })
        );
    }

    #[test]
    fn heap_bytes_are_the_tables_allocated_capacity() {
        let mut f = PlainCcf::new(
            CcfParams {
                num_buckets: 1 << 6,
                ..params(24)
            }
            .with_auto_grow(),
        );
        for k in 0..2000u64 {
            f.insert_row(k, &[k % 7, k % 11]).unwrap();
        }
        for k in (0..2000u64).step_by(3) {
            assert_eq!(f.delete_row(k, &[k % 7, k % 11]), Ok(true));
        }
        assert!(f.growth_bits() >= 2, "the test must cover grown tables");
        let heap = f.occupancy().heap_bytes;
        assert_eq!(heap, f.table.heap_bytes());
        // At least the slots' fingerprints and attribute words (2 + 2·2 bytes each).
        assert!(
            heap >= f.capacity() * 6,
            "{heap} B for {} slots",
            f.capacity()
        );
    }
}
