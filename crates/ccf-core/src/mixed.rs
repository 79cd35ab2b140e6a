//! The *Mixed* CCF: attribute fingerprint vectors with Bloom conversion (§6.1,
//! Algorithm 3).
//!
//! Rows are stored as fingerprint-vector entries exactly like the chained variant — but
//! when a bucket pair already holds `d` copies of a key fingerprint and another
//! distinct row arrives, the `d` fingerprint vectors are *converted*: their bit budget
//! (`d·s − 2(|κ| + ⌈log₂ d⌉)` bits, where `s` is the per-entry size) is repurposed as a
//! single Bloom filter over (column, attribute-fingerprint) pairs covering all of the
//! key's rows, including every row that arrives later. Conversion can never fail, so
//! the variant keeps the cuckoo-filter-like sizing of Table 1 (at most `d` entries per
//! key) while retaining fingerprint-vector accuracy for the vast majority of keys that
//! have few duplicates.
//!
//! In-memory representation: every slot lives in the shared entry table; its payload
//! is a tag byte, then either the row's packed attribute fingerprints (a vector
//! slot), the handle of the group's sketch record (the head of a converted group), or
//! nothing (a continuation slot). A converted group is one head and `d − 1` continuations in the
//! slots the fingerprint vectors held; the sketch record itself sits at a fixed stride
//! in a per-filter arena (the paper packs the Bloom's bits across the group's entries;
//! we keep the logical layout and account for the same number of bits). Cuckoo kicks
//! may relocate any slot — a kick only ever moves an entry to the other bucket of its
//! own pair, so a group's head and continuation slots merely redistribute across the
//! pair, which is the "maintaining [the Bloom filter] whenever a bucket's entry is
//! kicked into the alternate bucket" bookkeeping §6.1 describes.

use ccf_cuckoo::geometry::{grow_and_retry, probe_chunked};
use ccf_cuckoo::CuckooFilter;
use ccf_cuckoo::{GrowthStats, OccupancyStats};
use ccf_hash::{AttrFingerprinter, HashFamily};
use ccf_telemetry::Telemetry;

use crate::attr::{match_fingerprint_bloom, match_fingerprint_vector, SketchFormat, VectorCodec};
use crate::entry_table::{read_rng, EntryTable, KickRule};
use crate::instruments::CcfInstruments;
use crate::key::FilterKey;
use crate::outcome::{DeleteFailure, InsertFailure, InsertOutcome};
use crate::params::{CcfParams, ParamsError};
use crate::predicate::Predicate;

/// Payload tag (byte 0) of a fingerprint-vector slot: the bytes after it hold the
/// row's packed attribute fingerprints. The tags double as the snapshot's entry tags.
const VECTOR: u8 = 0;
/// Payload tag of a converted group's head: bytes 1..5 hold its sketch handle.
const HEAD: u8 = 1;
/// Payload tag of a converted group's continuation slot (its bits belong to the head's
/// sketch).
const CONTINUATION: u8 = 2;
/// Bytes of a head slot's sketch handle, a little-endian `u32`.
const HANDLE_BYTES: usize = 4;

/// Conditional cuckoo filter with Bloom conversion for heavily duplicated keys.
#[derive(Debug, Clone)]
pub struct MixedCcf {
    table: EntryTable,
    params: CcfParams,
    attr_fp: AttrFingerprinter,
    /// The packed layout of a vector slot's attribute fingerprints.
    codec: VectorCodec,
    sketch: SketchFormat,
    /// The converted groups' sketch records, `sketch.bytes()` bytes each; a head
    /// slot's handle indexes them.
    sketches: Vec<u8>,
    key_lower: ccf_hash::SaltedHasher,
    rows_absorbed: usize,
    conversions: usize,
    instruments: CcfInstruments,
}

impl MixedCcf {
    /// Create an empty filter. `params.num_buckets` is rounded up to a power of two.
    ///
    /// # Panics
    /// Panics on impossible parameters; use [`MixedCcf::try_new`] (or the
    /// [`crate::CcfBuilder`] facade) to get a [`ParamsError`] instead.
    pub fn new(params: CcfParams) -> Self {
        Self::try_new(params).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Create an empty filter, reporting impossible parameters as a [`ParamsError`].
    /// `params.num_buckets` is rounded up to a power of two.
    pub fn try_new(mut params: CcfParams) -> Result<Self, ParamsError> {
        params.num_buckets = params.num_buckets.next_power_of_two().max(1);
        params.try_validate()?;
        if params.max_dupes > params.entries_per_bucket {
            return Err(ParamsError::ConversionGroupTooWide {
                max_dupes: params.max_dupes,
                entries_per_bucket: params.entries_per_bucket,
            });
        }
        let family = HashFamily::new(params.seed);
        let conversion_hashes = ccf_bloom::params::conversion_num_hashes(
            params.conversion_bloom_bits(),
            params.max_dupes,
            params.num_attrs,
        );
        // The tag byte, then room for the attribute fingerprints or a 32-bit handle.
        let codec = VectorCodec::new(params.attr_bits, params.num_attrs);
        let stride = 1 + codec.bytes().max(HANDLE_BYTES);
        Ok(Self {
            table: EntryTable::new(&family, &params, stride, params.seed ^ 0x30D),
            attr_fp: AttrFingerprinter::new(&family, params.attr_bits, params.small_value_opt),
            codec,
            sketch: SketchFormat::new(
                params.conversion_bloom_bits(),
                conversion_hashes,
                &family.subfamily(13),
            ),
            sketches: Vec::new(),
            key_lower: family.hasher(ccf_hash::salted::purpose::KEY_LOWER),
            rows_absorbed: 0,
            conversions: 0,
            instruments: CcfInstruments::disabled(),
            params,
        })
    }

    /// Variant payload of the [`crate::AnyCcf`] snapshot format: growth state, exact
    /// RNG words, the conversion counter, and every bucket's entries — vector rows,
    /// Bloom-head sketches (raw bits) and continuation slots, each tagged.
    pub(crate) fn snapshot_payload(&self, w: &mut ccf_cuckoo::ByteWriter) {
        w.put_u32(self.growth_bits());
        self.table.write_rng(w);
        w.put_usize(self.rows_absorbed);
        w.put_usize(self.conversions);
        self.table.write_buckets(w, |w, fp, payload| {
            w.put_u8(payload[0]);
            w.put_u16(fp);
            match payload[0] {
                VECTOR => self.codec.write(w, self.attrs(payload)),
                HEAD => self.sketch.write(w, self.record(payload)),
                _ => {}
            }
        });
    }

    /// Inverse of [`MixedCcf::snapshot_payload`]; see
    /// [`crate::PlainCcf::from_snapshot_payload`] for the shared validation rules.
    /// Conversion-sketch widths are re-validated against
    /// [`CcfParams::conversion_bloom_bits`].
    pub(crate) fn from_snapshot_payload(
        params: CcfParams,
        r: &mut ccf_cuckoo::ByteReader<'_>,
    ) -> Result<Self, ccf_cuckoo::SnapshotError> {
        use ccf_cuckoo::SnapshotError;
        let growth_bits = r.get_u32()?;
        let rng = read_rng(r)?;
        let rows_absorbed = r.get_usize()?;
        let conversions = r.get_usize()?;
        let mut f = crate::snapshot::at_base_size(params, growth_bits, Self::try_new)?;
        let (codec, sketch, sketches) = (f.codec, &f.sketch, &mut f.sketches);
        f.table.restore(growth_bits, rng, r, |r, payload| {
            let tag = r.get_u8()?;
            let fp = r.get_u16()?;
            payload[0] = tag;
            match tag {
                VECTOR => codec.read(r, &mut payload[1..1 + codec.bytes()])?,
                HEAD => {
                    set_handle(payload, sketches.len() / sketch.bytes());
                    sketches.resize(sketches.len() + sketch.bytes(), 0);
                    let at = sketches.len() - sketch.bytes();
                    sketch.read(r, &mut sketches[at..])?;
                }
                CONTINUATION => {}
                t => return Err(SnapshotError::Invalid(format!("unknown entry tag {t}"))),
            }
            Ok(fp)
        })?;
        f.params.num_buckets = params.num_buckets;
        f.rows_absorbed = rows_absorbed;
        f.conversions = conversions;
        Ok(f)
    }

    /// Resolve this filter's [`CcfInstruments`] against `telemetry` (series get
    /// `variant="mixed"` plus `extra` labels). Call once; hot paths then record
    /// through pre-resolved handles.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry, extra: &[(&str, &str)]) {
        self.instruments = CcfInstruments::resolve(telemetry, "mixed", extra);
    }

    /// The telemetry bundle events are recorded into (disabled by default).
    pub fn instruments(&self) -> &CcfInstruments {
        &self.instruments
    }

    /// The hasher typed keys are lowered with ([`FilterKey::lower`]); see
    /// [`crate::key`] for the prehashed-key contract.
    pub fn key_lower_hasher(&self) -> ccf_hash::SaltedHasher {
        self.key_lower
    }

    /// The filter's parameters (with `num_buckets` normalized).
    pub fn params(&self) -> &CcfParams {
        &self.params
    }

    /// Number of occupied entry slots (continuation slots count — they hold Bloom bits).
    pub fn occupied_entries(&self) -> usize {
        self.table.occupied()
    }

    /// Number of rows absorbed.
    pub fn rows_absorbed(&self) -> usize {
        self.rows_absorbed
    }

    /// Number of Bloom conversions performed.
    pub fn conversions(&self) -> usize {
        self.conversions
    }

    /// Total entry slots `m · b`.
    pub fn capacity(&self) -> usize {
        self.table.capacity()
    }

    /// Load factor β.
    pub fn load_factor(&self) -> f64 {
        self.table.load_factor()
    }

    /// Serialized size in bits: every slot carries |κ| + #α·|α| + 1 bits (the extra bit
    /// marks converted slots, §6.1).
    pub fn size_bits(&self) -> usize {
        self.capacity() * self.params.mixed_entry_bits()
    }

    /// The attribute fingerprinter used by this filter.
    pub fn attr_fingerprinter(&self) -> &AttrFingerprinter {
        &self.attr_fp
    }

    /// Number of capacity doublings applied so far.
    pub fn growth_bits(&self) -> u32 {
        self.table.geometry().growth_bits()
    }

    /// Per-bucket occupancy summary, including the allocated heap bytes of the entry
    /// table and of the sketch arena.
    pub fn occupancy(&self) -> OccupancyStats {
        let occ = self.table.occupancy();
        occ.with_heap_bytes(occ.heap_bytes + self.sketches.capacity())
    }

    /// Resize-history summary.
    pub fn growth_stats(&self) -> GrowthStats {
        self.table.growth_stats()
    }

    /// A vector slot's packed attribute fingerprints.
    fn attrs<'a>(&self, payload: &'a [u8]) -> &'a [u8] {
        &payload[1..1 + self.codec.bytes()]
    }

    /// A head slot's sketch record.
    fn record(&self, payload: &[u8]) -> &[u8] {
        let at = handle(payload) * self.sketch.bytes();
        &self.sketches[at..at + self.sketch.bytes()]
    }

    /// Stage a vector entry for `attrs`.
    fn stage_vector(&mut self, attrs: &[u64]) {
        let staged = self.table.staged_mut();
        staged.fill(0);
        staged[0] = VECTOR;
        let packed = &mut staged[1..1 + self.codec.bytes()];
        self.codec.pack_row(&self.attr_fp, attrs, packed);
    }

    /// Double the filter's capacity, migrating entries by their stored fingerprints
    /// alone. A converted group's head and continuation slots all carry the same κ, so
    /// they share a growth bit and migrate to the same bucket pair together; the remap
    /// cannot fail and preserves every query answer.
    pub fn grow(&mut self) {
        self.instruments.grows.inc();
        self.table.grow();
        self.params.num_buckets = self.table.num_buckets();
    }

    /// Insert a row. Outcomes: `Inserted` (new vector entry), `Deduplicated` (identical
    /// (κ, α) already stored), `Merged` (added to an existing converted group),
    /// `Converted` (this row triggered a Bloom conversion). With `auto_grow`, a
    /// kick-exhaustion failure doubles the filter and retries (duplicate saturation
    /// never fails here — it converts — so every failure is a genuine capacity
    /// problem).
    pub fn insert_row<K: FilterKey>(
        &mut self,
        key: K,
        attrs: &[u64],
    ) -> Result<InsertOutcome, InsertFailure> {
        let key = key.lower(&self.key_lower);
        self.insert_row_prehashed(key, attrs)
    }

    /// [`MixedCcf::insert_row`] on already-lowered key material (see
    /// [`MixedCcf::key_lower_hasher`]). For `u64` keys the two are identical.
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
                |_| true, // duplicate saturation converts instead of failing; growth always helps
                |f| f.grow(),
            ),
            Err(e) => Err(e),
        };
        self.instruments.record_insert(&result);
        result
    }

    fn try_insert_row(&mut self, key: u64, attrs: &[u64]) -> Result<InsertOutcome, InsertFailure> {
        let (fp, l, l_alt) = self.table.pair_of(key);
        self.stage_vector(attrs);
        self.rows_absorbed += 1;

        let t = &self.table;
        let (mut head, mut duplicate, mut vectors) = (None, false, 0);
        for (b, s) in t.pair_slots(fp, l, l_alt) {
            let payload = t.payload(b, s);
            match payload[0] {
                HEAD => head = head.or(Some(handle(payload))),
                VECTOR => {
                    duplicate |= self.attrs(payload) == self.attrs(t.staged());
                    vectors += 1;
                }
                _ => {}
            }
        }
        // 1. Existing converted group for this fingerprint → merge.
        if let Some(handle) = head {
            let at = handle * self.sketch.bytes();
            let record = &mut self.sketches[at..at + self.sketch.bytes()];
            let staged = &self.table.staged()[1..1 + self.codec.bytes()];
            for (col, afp) in self.codec.unpack(staged).enumerate() {
                self.sketch.insert_pair(record, col, u64::from(afp));
            }
            return Ok(InsertOutcome::Merged);
        }
        // 2. Exact duplicate vector entry → dedupe.
        if duplicate {
            return Ok(InsertOutcome::Deduplicated);
        }
        // 3. Pair already holds d vector copies of κ → convert them plus this row.
        if vectors >= self.params.max_dupes {
            self.convert(fp, l, l_alt);
            return Ok(InsertOutcome::Converted);
        }
        // 4. Plain vector insertion with kicks. Any entry may be kicked: a kick only
        // ever moves an entry to the other bucket of its own pair, so a converted
        // group's head and continuation slots simply redistribute across the pair —
        // exactly the packing freedom the paper's bit layout assumes.
        let placed = self.table.place_staged(
            fp,
            (l, l_alt),
            KickRule::CoinTestBefore,
            self.params.max_kicks,
            &self.instruments,
        );
        if placed.is_err() {
            self.rows_absorbed -= 1;
        }
        placed
    }

    /// Algorithm 3: replace the `d` vector entries for `fp` in the pair (and the staged
    /// row's fingerprints) with a single Bloom group occupying the same slots.
    fn convert(&mut self, fp: u16, l: usize, l_alt: usize) {
        let bytes = self.sketch.bytes();
        let handle = self.sketches.len() / bytes;
        self.sketches.resize(self.sketches.len() + bytes, 0);
        let record = &mut self.sketches[handle * bytes..];
        let (codec, n) = (self.codec, self.codec.bytes());
        for (col, afp) in codec.unpack(&self.table.staged()[1..1 + n]).enumerate() {
            self.sketch.insert_pair(record, col, u64::from(afp));
        }
        // Remove the existing vector entries for this fingerprint, remembering which
        // bucket each slot came from so the group reoccupies them.
        let mut freed: Vec<usize> = Vec::new();
        let buckets = if l == l_alt { 1 } else { 2 };
        for bucket in [l, l_alt].into_iter().take(buckets) {
            let mut slot = 0;
            while slot < self.table.len(bucket) {
                let payload = self.table.payload(bucket, slot);
                if self.table.fp(bucket, slot) == fp && payload[0] == VECTOR {
                    for (col, afp) in codec.unpack(&payload[1..1 + n]).enumerate() {
                        self.sketch.insert_pair(record, col, u64::from(afp));
                    }
                    self.table.swap_remove(bucket, slot);
                    freed.push(bucket);
                } else {
                    slot += 1;
                }
            }
        }
        debug_assert!(
            !freed.is_empty(),
            "conversion triggered without vector copies"
        );
        // Re-occupy the freed slots: head first, continuations after.
        for (i, &bucket) in freed.iter().enumerate() {
            let staged = self.table.staged_mut();
            staged[0] = if i == 0 { HEAD } else { CONTINUATION };
            set_handle(staged, handle);
            let placed = self.table.push_staged(bucket, fp);
            debug_assert!(placed, "a freed slot takes the group back");
        }
        // Occupancy is unchanged: the group holds exactly the slots it freed.
        self.conversions += 1;
    }

    /// Delete one stored copy of a row. Vector entries (the vast majority of keys —
    /// everything below `d` duplicates) are deletable exactly as in the plain variant;
    /// a key whose rows were *converted* into a Bloom group (§6.1) refuses with
    /// [`DeleteFailure::ConvertedGroup`], because the group's sketch covers all of the
    /// key's rows collectively and cannot un-absorb one. Returns `Ok(true)` if a copy
    /// was removed, `Ok(false)` if none matched.
    ///
    /// The usual caveat applies: only delete rows known to have been inserted (a
    /// colliding (κ, α) pair from another row satisfies the match), and — as in the
    /// plain variant — exact duplicates were deduplicated at insert, so deletion has
    /// set semantics per (key, attributes): one delete retires the row however many
    /// times it was inserted. Deletion composes with growth: the pair is derived
    /// under the current split geometry.
    pub fn delete_row<K: FilterKey>(
        &mut self,
        key: K,
        attrs: &[u64],
    ) -> Result<bool, DeleteFailure> {
        let key = key.lower(&self.key_lower);
        self.delete_row_prehashed(key, attrs)
    }

    /// [`MixedCcf::delete_row`] on already-lowered key material.
    pub fn delete_row_prehashed(&mut self, key: u64, attrs: &[u64]) -> Result<bool, DeleteFailure> {
        let result = match self.params.check_delete_arity(attrs) {
            Ok(()) => {
                self.stage_vector(attrs);
                self.remove_vector_entry(key, true)
            }
            Err(e) => Err(e),
        };
        self.instruments.record_delete(&result);
        result
    }

    /// Delete one stored vector entry carrying the key's fingerprint, regardless of
    /// its attribute vector; converted keys refuse with
    /// [`DeleteFailure::ConvertedGroup`] (see [`MixedCcf::delete_row`]).
    pub fn delete_key<K: FilterKey>(&mut self, key: K) -> Result<bool, DeleteFailure> {
        let key = key.lower(&self.key_lower);
        self.delete_key_prehashed(key)
    }

    /// [`MixedCcf::delete_key`] on already-lowered key material.
    pub fn delete_key_prehashed(&mut self, key: u64) -> Result<bool, DeleteFailure> {
        let result = self.remove_vector_entry(key, false);
        self.instruments.record_delete(&result);
        result
    }

    /// Remove one vector entry for the key's fingerprint whose attribute fingerprints
    /// match the staged row (any, without `by_row`), refusing if the fingerprint's
    /// rows live in a converted group.
    fn remove_vector_entry(&mut self, key: u64, by_row: bool) -> Result<bool, DeleteFailure> {
        let (fp, l, l_alt) = self.table.pair_of(key);
        let t = &self.table;
        // A converted group owns *all* of this fingerprint's rows in the pair, so its
        // presence makes any deletion for the fingerprint unanswerable.
        if t.pair_slots(fp, l, l_alt)
            .any(|(b, s)| t.payload(b, s)[0] != VECTOR)
        {
            return Err(DeleteFailure::ConvertedGroup);
        }
        let hit = t
            .pair_slots(fp, l, l_alt)
            .find(|&(b, s)| !by_row || self.attrs(t.payload(b, s)) == self.attrs(t.staged()));
        let Some((bucket, slot)) = hit else {
            return Ok(false);
        };
        self.table.swap_remove(bucket, slot);
        self.rows_absorbed = self.rows_absorbed.saturating_sub(1);
        Ok(true)
    }

    /// Batched row deletion: equivalent to calling [`MixedCcf::delete_row`] per row in
    /// input order.
    pub fn delete_row_batch<K: FilterKey, A: AsRef<[u64]>>(
        &mut self,
        rows: &[(K, A)],
    ) -> Vec<Result<bool, DeleteFailure>> {
        rows.iter()
            .map(|(k, a)| self.delete_row_prehashed(k.lower(&self.key_lower), a.as_ref()))
            .collect()
    }

    /// [`MixedCcf::delete_row_batch`] on already-lowered key material.
    pub fn delete_row_batch_prehashed(
        &mut self,
        rows: &[(u64, &[u64])],
    ) -> Vec<Result<bool, DeleteFailure>> {
        rows.iter()
            .map(|&(k, a)| self.delete_row_prehashed(k, a))
            .collect()
    }

    /// Batched key deletion: equivalent to calling [`MixedCcf::delete_key`] per key in
    /// input order.
    pub fn delete_key_batch<K: FilterKey>(
        &mut self,
        keys: &[K],
    ) -> Vec<Result<bool, DeleteFailure>> {
        keys.iter()
            .map(|k| self.delete_key_prehashed(k.lower(&self.key_lower)))
            .collect()
    }

    /// [`MixedCcf::delete_key_batch`] on already-lowered key material.
    pub fn delete_key_batch_prehashed(&mut self, keys: &[u64]) -> Vec<Result<bool, DeleteFailure>> {
        keys.iter().map(|&k| self.delete_key_prehashed(k)).collect()
    }

    /// Query for a key under a predicate: vector entries are matched per column against
    /// the predicate's candidate fingerprints; converted groups are matched through
    /// their Bloom sketch (which stores fingerprints, §6.1).
    pub fn query<K: FilterKey>(&self, key: K, pred: &Predicate) -> bool {
        self.query_prehashed(key.lower(&self.key_lower), pred)
    }

    /// [`MixedCcf::query`] on already-lowered key material.
    pub fn query_prehashed(&self, key: u64, pred: &Predicate) -> bool {
        let (fp, l, l_alt) = self.table.pair_of(key);
        let hit = self.query_pair(fp, l, l_alt, pred);
        self.instruments.record_query(hit);
        hit
    }

    fn query_pair(&self, fp: u16, l: usize, l_alt: usize, pred: &Predicate) -> bool {
        self.table
            .pair_slots(fp, l, l_alt)
            .any(|(b, s)| self.matches(self.table.payload(b, s), pred))
    }

    /// Whether a slot's payload may hold a row matching `pred` (continuation slots
    /// never answer; their group's head does).
    fn matches(&self, payload: &[u8], pred: &Predicate) -> bool {
        match payload[0] {
            VECTOR => match_fingerprint_vector(pred, self.attrs(payload), &self.attr_fp),
            HEAD => {
                match_fingerprint_bloom(pred, &self.sketch, self.record(payload), &self.attr_fp)
            }
            _ => false,
        }
    }

    /// Batched predicate query: bit-identical to calling [`MixedCcf::query`] per key,
    /// using the chunked hash→prefetch→probe driver ([`ccf_cuckoo::geometry::probe_chunked`]).
    /// `u64` key batches are lowered copy-free.
    pub fn query_batch<K: FilterKey>(&self, keys: &[K], pred: &Predicate) -> Vec<bool> {
        self.query_batch_prehashed(&K::lower_batch(keys, &self.key_lower), pred)
    }

    /// [`MixedCcf::query_batch`] on already-lowered key material.
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

    /// Key-only membership query.
    pub fn contains_key<K: FilterKey>(&self, key: K) -> bool {
        self.contains_key_prehashed(key.lower(&self.key_lower))
    }

    /// [`MixedCcf::contains_key`] on already-lowered key material.
    pub fn contains_key_prehashed(&self, key: u64) -> bool {
        let (fp, l, l_alt) = self.table.pair_of(key);
        self.table.contains(fp, l, l_alt)
    }

    /// Batched key-only membership query (see [`MixedCcf::query_batch`]).
    pub fn contains_key_batch<K: FilterKey>(&self, keys: &[K]) -> Vec<bool> {
        self.contains_key_batch_prehashed(&K::lower_batch(keys, &self.key_lower))
    }

    /// [`MixedCcf::contains_key_batch`] on already-lowered key material.
    pub fn contains_key_batch_prehashed(&self, keys: &[u64]) -> Vec<bool> {
        self.table.contains_batch(keys)
    }

    /// Predicate-only query: erase entries that cannot match and return the surviving
    /// key fingerprints as a standard cuckoo filter (the mixed variant has no chains,
    /// so erasing — rather than marking — is sound, as for the Bloom variant).
    pub fn predicate_filter(&self, pred: &Predicate) -> CuckooFilter {
        // The derived filter must share this filter's *split* geometry — after any
        // growth, bucket indices carry fingerprint-derived high bits that a filter
        // constructed flat at the current size would not reproduce.
        let t = &self.table;
        let mut out = CuckooFilter::with_split_geometry(
            t.geometry().base_buckets(),
            t.geometry().growth_bits(),
            ccf_cuckoo::CuckooFilterParams {
                num_buckets: t.geometry().base_buckets(),
                entries_per_bucket: self.params.entries_per_bucket,
                fingerprint_bits: self.params.fingerprint_bits,
                seed: self.params.seed,
                auto_grow: false,
                ..Default::default()
            },
        );
        for bucket in 0..t.num_buckets() {
            for slot in 0..t.len(bucket) {
                if self.matches(t.payload(bucket, slot), pred) {
                    out.insert_fingerprint(t.fp(bucket, slot), bucket)
                        .expect("derived filter has identical geometry, insertion cannot fail");
                }
            }
        }
        out
    }
}

/// A head slot's sketch handle (bytes 1..5).
fn handle(payload: &[u8]) -> usize {
    let mut le = [0; HANDLE_BYTES];
    le.copy_from_slice(&payload[1..1 + HANDLE_BYTES]);
    u32::from_le_bytes(le) as usize
}

fn set_handle(payload: &mut [u8], handle: usize) {
    payload[1..1 + HANDLE_BYTES].copy_from_slice(&(handle as u32).to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(seed: u64) -> CcfParams {
        CcfParams {
            num_buckets: 1 << 10,
            entries_per_bucket: 6,
            fingerprint_bits: 12,
            attr_bits: 8,
            num_attrs: 2,
            max_dupes: 3,
            seed,
            ..CcfParams::default()
        }
    }

    #[test]
    fn no_false_negatives_before_and_after_conversion() {
        let mut f = MixedCcf::new(params(1));
        // 100 keys × 12 distinct rows: every key converts (12 > d = 3).
        for key in 0..100u64 {
            for i in 0..12u64 {
                f.insert_row(key, &[500 + i, 700 + (i % 4)]).unwrap();
            }
        }
        assert!(f.conversions() >= 100);
        for key in 0..100u64 {
            for i in 0..12u64 {
                let pred = Predicate::any(2)
                    .and_eq(0, 500 + i)
                    .and_eq(1, 700 + (i % 4));
                assert!(f.query(key, &pred), "false negative for key {key} row {i}");
            }
            assert!(f.contains_key(key));
        }
    }

    #[test]
    fn conversion_caps_entries_per_key_at_d() {
        // Table 1: the mixed variant uses at most d entries per key.
        let mut f = MixedCcf::new(params(2));
        for i in 0..50u64 {
            f.insert_row(99, &[1000 + i, 2000 + i]).unwrap();
        }
        assert!(f.occupied_entries() <= f.params().max_dupes);
        assert_eq!(f.conversions(), 1);
    }

    #[test]
    fn low_duplication_keys_never_convert() {
        let mut f = MixedCcf::new(params(3));
        for key in 0..500u64 {
            for i in 0..2u64 {
                f.insert_row(key, &[i + 20, key % 5]).unwrap();
            }
        }
        assert_eq!(f.conversions(), 0);
        assert_eq!(f.occupied_entries(), 1000);
    }

    #[test]
    fn outcome_sequence_for_one_hot_key() {
        let mut f = MixedCcf::new(params(4));
        let key = 5u64;
        assert_eq!(
            f.insert_row(key, &[101, 1]).unwrap(),
            InsertOutcome::Inserted
        );
        assert_eq!(
            f.insert_row(key, &[102, 1]).unwrap(),
            InsertOutcome::Inserted
        );
        assert_eq!(
            f.insert_row(key, &[103, 1]).unwrap(),
            InsertOutcome::Inserted
        );
        // Fourth distinct row triggers the conversion of the three vectors.
        assert_eq!(
            f.insert_row(key, &[104, 1]).unwrap(),
            InsertOutcome::Converted
        );
        // Later rows merge into the converted group.
        assert_eq!(f.insert_row(key, &[105, 1]).unwrap(), InsertOutcome::Merged);
        // Exact duplicate before conversion would have been deduplicated; after
        // conversion it simply merges (the Bloom filter cannot distinguish).
        assert_eq!(f.insert_row(key, &[105, 1]).unwrap(), InsertOutcome::Merged);
    }

    #[test]
    fn wrong_attribute_values_are_mostly_rejected_after_conversion() {
        let mut f = MixedCcf::new(params(5));
        for key in 0..200u64 {
            for i in 0..8u64 {
                f.insert_row(key, &[i, 3]).unwrap();
            }
        }
        // Column 1 only ever holds value 3; query value 9 (both stored exactly thanks
        // to small values). False positives now come only from the converted Bloom.
        let fp = (0..200u64)
            .filter(|&k| f.query(k, &Predicate::any(2).and_eq(1, 9)))
            .count();
        let rate = fp as f64 / 200.0;
        assert!(rate < 0.6, "conversion Bloom FPR {rate} looks broken");
        // And a value that IS present matches for every key.
        for key in 0..200u64 {
            assert!(f.query(key, &Predicate::any(2).and_eq(1, 3)));
        }
    }

    #[test]
    fn predicate_filter_has_no_false_negatives() {
        let mut f = MixedCcf::new(params(6));
        for key in 0..1000u64 {
            let group = key % 3;
            for i in 0..(1 + (key % 6)) {
                f.insert_row(key, &[group, 50 + i]).unwrap();
            }
        }
        let derived = f.predicate_filter(&Predicate::any(2).and_eq(0, 1));
        for key in 0..1000u64 {
            if key % 3 == 1 {
                assert!(derived.contains(key), "predicate filter lost key {key}");
            }
        }
    }

    #[test]
    fn grow_preserves_vector_entries_and_converted_groups() {
        let mut f = MixedCcf::new(params(10));
        // Mix of light keys (vector entries) and hot keys (converted groups).
        for key in 0..200u64 {
            let rows = if key % 5 == 0 { 10 } else { 2 };
            for i in 0..rows {
                f.insert_row(key, &[500 + i, 700 + (i % 3)]).unwrap();
            }
        }
        assert!(f.conversions() > 0);
        let occupied = f.occupied_entries();
        f.grow();
        assert_eq!(f.occupied_entries(), occupied);
        for key in 0..200u64 {
            let rows = if key % 5 == 0 { 10 } else { 2 };
            for i in 0..rows {
                let pred = Predicate::any(2)
                    .and_eq(0, 500 + i)
                    .and_eq(1, 700 + (i % 3));
                assert!(
                    f.query(key, &pred),
                    "false negative for key {key} row {i} after growth"
                );
            }
            assert!(f.contains_key(key));
        }
    }

    #[test]
    fn auto_grow_accepts_four_times_the_sized_capacity() {
        let mut f = MixedCcf::new(
            CcfParams {
                num_buckets: 1 << 7,
                ..params(11)
            }
            .with_auto_grow(),
        );
        let four_n = 4 * f.capacity() as u64;
        for k in 0..four_n {
            f.insert_row(k, &[k % 6, k % 10])
                .unwrap_or_else(|e| panic!("auto-grow insert of {k} failed: {e}"));
        }
        assert!(f.growth_bits() >= 2);
        for k in 0..four_n {
            assert!(
                f.query(k, &Predicate::any(2).and_eq(0, k % 6).and_eq(1, k % 10)),
                "false negative for {k} after auto-growth"
            );
        }
    }

    #[test]
    fn predicate_filter_tracks_grown_geometry() {
        let mut f = MixedCcf::new(params(12));
        for key in 0..600u64 {
            let group = key % 3;
            for i in 0..(1 + (key % 6)) {
                f.insert_row(key, &[group, 50 + i]).unwrap();
            }
        }
        f.grow();
        let derived = f.predicate_filter(&Predicate::any(2).and_eq(0, 1));
        assert_eq!(derived.num_buckets(), f.params().num_buckets);
        for key in 0..600u64 {
            if key % 3 == 1 {
                assert!(
                    derived.contains(key),
                    "grown predicate filter lost key {key}"
                );
            }
        }
    }

    #[test]
    fn batch_queries_match_per_key_loops() {
        let mut f = MixedCcf::new(params(13));
        for key in 0..300u64 {
            for i in 0..(1 + key % 7) {
                f.insert_row(key, &[i + 30, key % 4]).unwrap();
            }
        }
        f.grow();
        let keys: Vec<u64> = (0..1000u64).collect();
        let pred = Predicate::any(2).and_eq(0, 31);
        let queried = f.query_batch(&keys, &pred);
        let contained = f.contains_key_batch(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(queried[i], f.query(k, &pred));
            assert_eq!(contained[i], f.contains_key(k));
        }
    }

    #[test]
    fn vector_entries_delete_but_converted_groups_refuse() {
        let mut f = MixedCcf::new(params(20));
        // Cold key: two vector rows, freely deletable.
        f.insert_row(5u64, &[300, 400]).unwrap();
        f.insert_row(5u64, &[301, 401]).unwrap();
        assert_eq!(f.delete_row(5u64, &[300, 400]), Ok(true));
        assert!(f.query(5u64, &Predicate::any(2).and_eq(0, 301).and_eq(1, 401)));
        assert!(!f.query(5u64, &Predicate::any(2).and_eq(0, 300).and_eq(1, 400)));
        // Hot key: conversion happens at d+1 distinct rows, after which deletion is a
        // typed refusal and the filter is untouched.
        for i in 0..8u64 {
            f.insert_row(9u64, &[500 + i, 600 + i]).unwrap();
        }
        assert_eq!(f.conversions(), 1);
        let occupied = f.occupied_entries();
        assert_eq!(
            f.delete_row(9u64, &[500, 600]),
            Err(DeleteFailure::ConvertedGroup)
        );
        assert_eq!(f.delete_key(9u64), Err(DeleteFailure::ConvertedGroup));
        assert_eq!(f.occupied_entries(), occupied);
        for i in 0..8u64 {
            assert!(
                f.query(
                    9u64,
                    &Predicate::any(2).and_eq(0, 500 + i).and_eq(1, 600 + i)
                ),
                "converted rows must survive refused deletions"
            );
        }
        // Deleting rows *before* conversion keeps the key below the conversion
        // threshold indefinitely.
        let mut g = MixedCcf::new(params(21));
        for round in 0..20u64 {
            g.insert_row(3u64, &[700 + round, 1]).unwrap();
            if round >= 2 {
                assert_eq!(g.delete_row(3u64, &[700 + round - 2, 1]), Ok(true));
            }
        }
        assert_eq!(g.conversions(), 0, "churned key must never convert");
    }

    #[test]
    fn delete_after_grow_finds_relocated_vector_entries() {
        let mut f = MixedCcf::new(params(22));
        for k in 0..800u64 {
            f.insert_row(k, &[k % 7, k % 11]).unwrap();
        }
        f.grow();
        for k in (0..800u64).step_by(2) {
            assert_eq!(
                f.delete_row(k, &[k % 7, k % 11]),
                Ok(true),
                "key {k} not found after growth"
            );
        }
        for k in (1..800u64).step_by(2) {
            assert!(f.contains_key(k), "undeleted key {k} lost");
        }
    }

    #[test]
    fn delete_batches_report_per_row_results() {
        let mut f = MixedCcf::new(params(23));
        f.insert_row(1u64, &[10, 20]).unwrap();
        for i in 0..6u64 {
            f.insert_row(2u64, &[30 + i, 40]).unwrap(); // converts
        }
        let results = f.delete_row_batch(&[
            (1u64, vec![10u64, 20]),
            (1u64, vec![10u64, 20]),
            (2u64, vec![30u64, 40]),
        ]);
        assert_eq!(
            results,
            vec![Ok(true), Ok(false), Err(DeleteFailure::ConvertedGroup)]
        );
        assert_eq!(f.delete_key_batch(&[1u64]), vec![Ok(false)]);
    }

    #[test]
    fn size_accounting_uses_mixed_entry_bits() {
        let f = MixedCcf::new(params(7));
        assert_eq!(f.size_bits(), 1024 * 6 * (12 + 16 + 1));
    }

    #[test]
    #[should_panic(expected = "must fit in one bucket")]
    fn d_larger_than_bucket_rejected() {
        let _ = MixedCcf::new(CcfParams {
            max_dupes: 5,
            entries_per_bucket: 4,
            ..params(8)
        });
    }

    #[test]
    fn skewed_workload_reaches_reasonable_load_factor() {
        let mut f = MixedCcf::new(CcfParams {
            num_buckets: 1 << 8,
            ..params(9)
        });
        let capacity = f.capacity();
        let mut inserted = 0usize;
        'outer: for key in 0u64.. {
            // Every 10th key is hot with 20 rows, others have 1.
            let rows = if key % 10 == 0 { 20 } else { 1 };
            for i in 0..rows {
                match f.insert_row(key, &[i + 60, (i * 3) % 50 + 60]) {
                    Ok(_) => inserted += 1,
                    Err(_) => break 'outer,
                }
            }
            if inserted > 3 * capacity {
                break;
            }
        }
        assert!(
            f.load_factor() > 0.6,
            "mixed CCF load factor at first failure only {}",
            f.load_factor()
        );
    }

    #[test]
    fn heap_bytes_are_the_table_and_arena_capacity() {
        let mut f = MixedCcf::new(
            CcfParams {
                num_buckets: 1 << 6,
                ..params(24)
            }
            .with_auto_grow(),
        );
        for key in 0..400u64 {
            let rows = if key % 5 == 0 { 9 } else { 2 };
            for i in 0..rows {
                f.insert_row(key, &[500 + i, 700 + (i % 3)]).unwrap();
            }
        }
        for key in (1..400u64).step_by(5) {
            assert_eq!(f.delete_row(key, &[500, 700]), Ok(true));
        }
        assert!(f.growth_bits() >= 1 && f.conversions() >= 80);
        assert_eq!(
            f.occupancy().heap_bytes,
            f.table.heap_bytes() + f.sketches.capacity()
        );
        assert!(f.sketches.capacity() >= f.conversions() * f.sketch.bytes());
    }
}
