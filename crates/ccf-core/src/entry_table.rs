//! The one entry table under the four CCF variants.
//!
//! A CCF slot is a key fingerprint κ plus a fixed-width attribute sketch (§4–§5, the
//! |κ| + #α·|α| bits of Table 1). [`EntryTable`] keeps the fingerprints of all
//! `m · b` slots in one [`PackedBuckets`], so key-only probes get its SWAR
//! whole-bucket compare, and each slot's sketch at a fixed stride in one `Vec<u16>`
//! payload slab indexed by slot — the flat layout of *Smaller and More Flexible
//! Cuckoo Filters* (Zentgraf & Rahmann). The stride comes from the variant: the
//! `num_attrs` attribute fingerprints (plain, chained), a Bloom sketch record
//! (Bloom), or a tag word plus the fingerprints or a sketch handle (mixed). No slot
//! owns a heap allocation.
//!
//! Every bucket keeps its entries in a dense prefix of its slots, in the order the
//! variants have always kept them: inserts append, kicks swap in place,
//! [`EntryTable::swap_remove`] moves a bucket's last entry into the hole, and growth
//! splits each bucket stably. That order is visible in kick victims and snapshot
//! images, so keeping it keeps both bit-identical.
//!
//! The table owns what the variants share: the kick/rollback loop, the split-geometry
//! doubling, occupancy with exact heap bytes, and the per-bucket snapshot codec. The
//! variants add their policies on top: dedupe, chain hops, Bloom merging, conversion.

use ccf_cuckoo::geometry::{prefetch_index, probe_chunked, SplitGeometry};
use ccf_cuckoo::{
    ByteReader, ByteWriter, GrowthStats, OccupancyStats, PackedBuckets, SnapshotError,
};
use ccf_hash::{Fingerprinter, HashFamily};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::instruments::CcfInstruments;
use crate::outcome::{InsertFailure, InsertOutcome};
use crate::params::CcfParams;

/// How a variant's kick walk starts and ends: the hook that keeps each variant's RNG
/// draws and room tests in their established order, and with them every answer and
/// snapshot byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KickRule {
    /// Plain and Bloom: try ℓ, then ℓ′; a coin flip picks the first victim's bucket,
    /// and room is tested after every swap, the last one included.
    CoinTestAfter,
    /// Mixed: try ℓ, then ℓ′; a coin flip picks the first victim's bucket, and room is
    /// tested before every swap, so the bucket the last swap leads to is never tried.
    CoinTestBefore,
    /// Chained: try ℓ, then walk from ℓ′ without a draw, testing room before every
    /// swap.
    AltTestBefore,
}

/// Fingerprints in a [`PackedBuckets`], payloads in a slot-indexed slab.
#[derive(Debug, Clone)]
pub(crate) struct EntryTable {
    keys: PackedBuckets,
    /// `stride` words per slot; slot `s` of bucket `B` starts at `(B · b + s) · stride`.
    payload: Vec<u16>,
    stride: usize,
    /// The staged entry's payload: the row being inserted, or the victim a kick
    /// carries.
    staged: Vec<u16>,
    /// (bucket, slot) of every swap of the current kick walk, for rollback.
    swaps: Vec<(usize, usize)>,
    geometry: SplitGeometry,
    fingerprinter: Fingerprinter,
    rng: StdRng,
}

impl EntryTable {
    /// An empty table for `params` (with `num_buckets` already a power of two),
    /// `stride` payload words per slot, and kick victims drawn from `rng_seed`.
    pub fn new(family: &HashFamily, params: &CcfParams, stride: usize, rng_seed: u64) -> Self {
        let (m, b) = (params.num_buckets, params.entries_per_bucket);
        Self {
            keys: PackedBuckets::new(m, b),
            payload: vec![0; m * b * stride],
            stride,
            staged: vec![0; stride],
            swaps: Vec::new(),
            geometry: SplitGeometry::new(family, m, 0),
            fingerprinter: Fingerprinter::new(family, params.fingerprint_bits),
            rng: StdRng::seed_from_u64(rng_seed),
        }
    }

    /// κ and the bucket pair (ℓ, ℓ′) of a lowered key under the current geometry.
    #[inline]
    pub fn pair_of(&self, key: u64) -> (u16, usize, usize) {
        let (fp, base) = self
            .fingerprinter
            .fingerprint_and_bucket(key, self.geometry.base_buckets());
        let l = self.geometry.home_bucket(base, fp);
        (fp, l, self.geometry.alt_bucket(l, fp))
    }

    pub fn geometry(&self) -> &SplitGeometry {
        &self.geometry
    }

    pub fn fingerprinter(&self) -> &Fingerprinter {
        &self.fingerprinter
    }

    pub fn keys(&self) -> &PackedBuckets {
        &self.keys
    }

    pub fn num_buckets(&self) -> usize {
        self.keys.num_buckets()
    }

    /// Occupied slots, maintained by the fingerprint store.
    pub fn occupied(&self) -> usize {
        self.keys.occupied()
    }

    /// Total slots `m · b`.
    pub fn capacity(&self) -> usize {
        self.num_buckets() * self.keys.entries_per_bucket()
    }

    pub fn load_factor(&self) -> f64 {
        self.occupied() as f64 / self.capacity() as f64
    }

    /// Entries in `bucket` (they fill slots `0..len`).
    #[inline]
    pub fn len(&self, bucket: usize) -> usize {
        self.keys.bucket_len(bucket)
    }

    #[inline]
    pub fn fp(&self, bucket: usize, slot: usize) -> u16 {
        self.keys.get(bucket, slot)
    }

    #[inline]
    fn at(&self, bucket: usize, slot: usize) -> usize {
        (bucket * self.keys.entries_per_bucket() + slot) * self.stride
    }

    #[inline]
    pub fn payload(&self, bucket: usize, slot: usize) -> &[u16] {
        let at = self.at(bucket, slot);
        &self.payload[at..at + self.stride]
    }

    #[inline]
    pub fn payload_mut(&mut self, bucket: usize, slot: usize) -> &mut [u16] {
        let at = self.at(bucket, slot);
        &mut self.payload[at..at + self.stride]
    }

    pub fn staged(&self) -> &[u16] {
        &self.staged
    }

    pub fn staged_mut(&mut self) -> &mut [u16] {
        &mut self.staged
    }

    /// Copy a slot's payload into the staged entry; returns its fingerprint.
    pub fn stage(&mut self, bucket: usize, slot: usize) -> u16 {
        let at = self.at(bucket, slot);
        self.staged
            .copy_from_slice(&self.payload[at..at + self.stride]);
        self.fp(bucket, slot)
    }

    /// (bucket, slot) of every entry holding `fp` in the pair (ℓ, ℓ′): ℓ's slots
    /// first, and a self-paired bucket visited once.
    #[inline]
    pub fn pair_slots(
        &self,
        fp: u16,
        l: usize,
        alt: usize,
    ) -> impl Iterator<Item = (usize, usize)> + '_ {
        let alt_slots = self
            .keys
            .slots_of(alt, fp)
            .take(if l == alt { 0 } else { usize::MAX });
        (self.keys.slots_of(l, fp).map(move |s| (l, s))).chain(alt_slots.map(move |s| (alt, s)))
    }

    /// Copies of `fp` in the pair (ℓ, ℓ′).
    pub fn count_in_pair(&self, fp: u16, l: usize, alt: usize) -> usize {
        self.pair_slots(fp, l, alt).count()
    }

    /// Whether either bucket of the pair holds `fp` (one SWAR compare per bucket).
    #[inline]
    pub fn contains(&self, fp: u16, l: usize, alt: usize) -> bool {
        self.keys.contains_pair(l, alt, fp)
    }

    /// Key-only membership for a batch of lowered keys, in key order: the chunked
    /// hash→prefetch→probe pipeline over the fingerprints alone.
    pub fn contains_batch(&self, keys: &[u64]) -> Vec<bool> {
        probe_chunked(
            keys,
            |key| self.pair_of(key),
            |bucket| self.keys.prefetch(bucket),
            |fp, l, alt| self.contains(fp, l, alt),
        )
    }

    /// Best-effort prefetch of a bucket's fingerprints and payloads.
    #[inline(always)]
    pub fn prefetch(&self, bucket: usize) {
        self.keys.prefetch(bucket);
        prefetch_index(&self.payload, self.at(bucket, 0));
    }

    /// Append the staged entry, under fingerprint `fp`, to `bucket` if it has room.
    pub fn push_staged(&mut self, bucket: usize, fp: u16) -> bool {
        let slot = self.len(bucket);
        if !self.keys.try_insert(bucket, fp) {
            return false;
        }
        debug_assert_eq!(self.fp(bucket, slot), fp, "bucket prefix must stay dense");
        let at = self.at(bucket, slot);
        self.payload[at..at + self.stride].copy_from_slice(&self.staged);
        true
    }

    /// Remove an entry, moving the bucket's last entry into its slot.
    pub fn swap_remove(&mut self, bucket: usize, slot: usize) {
        let last = self.len(bucket) - 1;
        let fp = self.keys.take(bucket, last);
        if slot != last {
            self.keys.swap(bucket, slot, fp);
            let (from, to) = (self.at(bucket, last), self.at(bucket, slot));
            self.payload.copy_within(from..from + self.stride, to);
        }
    }

    /// Exchange the staged entry (fingerprint `fp`) with an occupied slot; returns the
    /// fingerprint the staged entry now holds.
    fn swap_staged(&mut self, bucket: usize, slot: usize, fp: u16) -> u16 {
        let at = self.at(bucket, slot);
        self.payload[at..at + self.stride].swap_with_slice(&mut self.staged);
        self.keys.swap(bucket, slot, fp)
    }

    /// Place the staged entry, fingerprint `fp`, in ℓ or ℓ′, kicking resident entries
    /// to their alternate buckets as `rule` says, for at most `max_kicks` swaps, and
    /// record the kick depth. When the budget runs out, every swap is undone in
    /// reverse, so the table is exactly as before and every stored row keeps its
    /// no-false-negative guarantee; the failure reports the load factor.
    pub fn place_staged(
        &mut self,
        fp: u16,
        (l, alt): (usize, usize),
        rule: KickRule,
        max_kicks: usize,
        instruments: &CcfInstruments,
    ) -> Result<InsertOutcome, InsertFailure> {
        let placed = self.kick_staged(fp, l, alt, rule, max_kicks);
        let (Ok(kicks) | Err(kicks)) = placed;
        instruments.kick_depth.observe(kicks);
        match placed {
            Ok(_) => Ok(InsertOutcome::Inserted),
            Err(_) => {
                instruments.rollbacks.inc();
                Err(InsertFailure::kicks_exhausted_at(self.load_factor()))
            }
        }
    }

    /// The kick loop of [`EntryTable::place_staged`]: the number of swaps, as `Err`
    /// when the walk failed and was rolled back.
    fn kick_staged(
        &mut self,
        fp: u16,
        l: usize,
        alt: usize,
        rule: KickRule,
        max_kicks: usize,
    ) -> Result<u64, u64> {
        if self.push_staged(l, fp) {
            return Ok(0);
        }
        let mut bucket = match rule {
            KickRule::AltTestBefore => alt,
            KickRule::CoinTestAfter | KickRule::CoinTestBefore => {
                if self.push_staged(alt, fp) {
                    return Ok(0);
                }
                if self.rng.gen_bool(0.5) {
                    l
                } else {
                    alt
                }
            }
        };
        let test_last = rule == KickRule::CoinTestAfter;
        let b = self.keys.entries_per_bucket();
        let mut carried = fp;
        self.swaps.clear();
        loop {
            let swaps = self.swaps.len();
            if (swaps < max_kicks || test_last) && self.push_staged(bucket, carried) {
                return Ok(swaps as u64);
            }
            if swaps == max_kicks {
                break;
            }
            let slot = self.rng.gen_range(0..b);
            carried = self.swap_staged(bucket, slot, carried);
            self.swaps.push((bucket, slot));
            bucket = self.geometry.alt_bucket(bucket, carried);
        }
        while let Some((bucket, slot)) = self.swaps.pop() {
            carried = self.swap_staged(bucket, slot, carried);
        }
        debug_assert_eq!(carried, fp, "rollback must return the staged entry");
        Err(max_kicks as u64)
    }

    /// Double the table, moving entries by their stored fingerprints alone: each
    /// entry keeps its bucket or moves up by the old bucket count according to its
    /// fingerprint's next growth bit. Both halves keep their entries' relative order.
    /// Chains, pairs and converted groups survive because a fingerprint's copies all
    /// share its growth bits. The remap cannot fail.
    pub fn grow(&mut self) {
        let old_m = self.num_buckets();
        let bit = self.geometry.growth_bits();
        self.keys.extend_buckets(old_m);
        self.payload.resize(2 * self.payload.len(), 0);
        for bucket in 0..old_m {
            let mut kept = 0;
            for slot in 0..self.len(bucket) {
                let from = self.at(bucket, slot);
                let fp = self.keys.take(bucket, slot);
                let (to_bucket, to_slot) = if self.geometry.growth_bit(fp, bit) {
                    (bucket + old_m, self.len(bucket + old_m))
                } else {
                    kept += 1;
                    (bucket, kept - 1)
                };
                self.keys.swap(to_bucket, to_slot, fp);
                let to = self.at(to_bucket, to_slot);
                self.payload.copy_within(from..from + self.stride, to);
            }
        }
        self.geometry.record_doubling();
    }

    /// Resize history: the base geometry and the doublings since.
    pub fn growth_stats(&self) -> GrowthStats {
        GrowthStats {
            base_buckets: self.geometry.base_buckets(),
            current_buckets: self.num_buckets(),
            growth_bits: self.geometry.growth_bits(),
        }
    }

    /// Per-bucket occupancy, with the allocated capacity of every buffer the table
    /// owns as its heap bytes.
    pub fn occupancy(&self) -> OccupancyStats {
        OccupancyStats::from_counts(self.keys.bucket_counts(), self.keys.entries_per_bucket())
            .with_heap_bytes(self.heap_bytes())
    }

    pub fn heap_bytes(&self) -> usize {
        self.keys.heap_bytes()
            + (self.payload.capacity() + self.staged.capacity()) * std::mem::size_of::<u16>()
            + self.swaps.capacity() * std::mem::size_of::<(usize, usize)>()
    }

    /// Write the kick RNG's exact state.
    pub fn write_rng(&self, w: &mut ByteWriter) {
        for word in self.rng.state() {
            w.put_u64(word);
        }
    }

    /// Write every bucket: its entry count, then `slot` for each entry in slot order.
    pub fn write_buckets(
        &self,
        w: &mut ByteWriter,
        mut slot: impl FnMut(&mut ByteWriter, u16, &[u16]),
    ) {
        for (bucket, &len) in self.keys.counts().iter().enumerate() {
            w.put_u16(u16::from(len));
            for s in 0..usize::from(len) {
                slot(w, self.fp(bucket, s), self.payload(bucket, s));
            }
        }
    }

    /// Inverse of [`EntryTable::write_rng`] and [`EntryTable::write_buckets`] for a
    /// freshly built table at its base size: apply `growth_bits` doublings to the
    /// empty geometry, restore the RNG, and read every bucket, `slot` decoding one
    /// entry's payload and returning its fingerprint. Bucket widths and zero
    /// fingerprints are rejected as typed errors.
    pub fn restore(
        &mut self,
        growth_bits: u32,
        rng_state: [u64; 4],
        r: &mut ByteReader<'_>,
        mut slot: impl FnMut(&mut ByteReader<'_>, &mut [u16]) -> Result<u16, SnapshotError>,
    ) -> Result<(), SnapshotError> {
        debug_assert_eq!(self.occupied(), 0);
        for _ in 0..growth_bits {
            self.geometry.record_doubling();
        }
        let (m, b) = (self.geometry.num_buckets(), self.keys.entries_per_bucket());
        self.keys = PackedBuckets::new(m, b);
        self.payload = vec![0; m * b * self.stride];
        self.rng = StdRng::from_state(rng_state);
        for bucket in 0..m {
            let len = usize::from(r.get_u16()?);
            if len > b {
                return Err(SnapshotError::Invalid(format!(
                    "bucket holds {len} entries but b = {b}"
                )));
            }
            for s in 0..len {
                let fp = slot(r, self.payload_mut(bucket, s))?;
                if fp == 0 {
                    return Err(SnapshotError::Invalid("stored fingerprint is zero".into()));
                }
                self.keys.swap(bucket, s, fp);
            }
        }
        Ok(())
    }
}

/// Read the RNG words [`EntryTable::write_rng`] wrote.
pub(crate) fn read_rng(r: &mut ByteReader<'_>) -> Result<[u64; 4], SnapshotError> {
    let mut state = [0u64; 4];
    for word in &mut state {
        *word = r.get_u64()?;
    }
    Ok(state)
}

/// Snapshot codec of a fingerprint-vector slot: κ, then one word per attribute.
pub(crate) fn write_vector_slot(w: &mut ByteWriter, fp: u16, attrs: &[u16]) {
    w.put_u16(fp);
    for &a in attrs {
        w.put_u16(a);
    }
}

/// Inverse of [`write_vector_slot`].
pub(crate) fn read_vector_slot(
    r: &mut ByteReader<'_>,
    attrs: &mut [u16],
) -> Result<u16, SnapshotError> {
    let fp = r.get_u16()?;
    for a in attrs {
        *a = r.get_u16()?;
    }
    Ok(fp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(num_buckets: usize, b: usize) -> CcfParams {
        CcfParams {
            num_buckets,
            entries_per_bucket: b,
            ..CcfParams::default()
        }
    }

    fn table(num_buckets: usize, b: usize) -> EntryTable {
        EntryTable::new(&HashFamily::new(5), &params(num_buckets, b), 2, 9)
    }

    /// Stage payload `[fp, fp + 1]` and append it to `bucket`.
    fn push(t: &mut EntryTable, bucket: usize, fp: u16) -> bool {
        t.staged_mut().copy_from_slice(&[fp, fp + 1]);
        t.push_staged(bucket, fp)
    }

    /// Every bucket's (κ, payload) entries in slot order, checking the dense prefix.
    fn contents(t: &EntryTable) -> Vec<Vec<(u16, Vec<u16>)>> {
        (0..t.num_buckets())
            .map(|bucket| {
                let b = t.keys().entries_per_bucket();
                assert!((t.len(bucket)..b).all(|s| t.fp(bucket, s) == 0), "hole");
                (0..t.len(bucket))
                    .map(|s| (t.fp(bucket, s), t.payload(bucket, s).to_vec()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn entries_append_and_swap_remove_like_a_vec() {
        let mut t = table(4, 4);
        for fp in [10, 20, 30, 40] {
            assert!(push(&mut t, 1, fp));
        }
        assert!(!push(&mut t, 1, 50), "a full bucket refuses");
        t.swap_remove(1, 1);
        let mut expected: Vec<u16> = vec![10, 20, 30, 40];
        expected.swap_remove(1);
        assert_eq!(
            contents(&t)[1],
            expected
                .iter()
                .map(|&fp| (fp, vec![fp, fp + 1]))
                .collect::<Vec<_>>()
        );
        assert!(push(&mut t, 1, 60));
        assert_eq!(t.fp(1, 3), 60, "inserts append after a removal");
        assert_eq!(t.occupied(), 4);
    }

    #[test]
    fn grow_moves_entries_by_their_growth_bit() {
        let mut t = table(64, 4);
        for fp in 1..200u16 {
            push(&mut t, usize::from(fp) % 64, fp);
        }
        let before = contents(&t);
        let geometry = *t.geometry();
        t.grow();
        assert_eq!(t.num_buckets(), 128);
        assert_eq!(t.geometry().growth_bits(), 1);
        let after = contents(&t);
        for (bucket, entries) in before.iter().enumerate() {
            // Each half keeps the bucket's entries in their old relative order.
            let (up, down): (Vec<_>, Vec<_>) = entries
                .iter()
                .cloned()
                .partition(|(fp, _)| geometry.growth_bit(*fp, 0));
            assert_eq!(after[bucket], down, "bucket {bucket}");
            assert_eq!(after[bucket + 64], up, "bucket {}", bucket + 64);
        }
    }

    #[test]
    fn failed_insert_leaves_table_unchanged() {
        // A two-bucket table, full: every kick walk stays inside the one pair and
        // runs out of budget, which must undo every swap it made.
        for rule in [
            KickRule::CoinTestAfter,
            KickRule::CoinTestBefore,
            KickRule::AltTestBefore,
        ] {
            let mut t = table(2, 2);
            for (bucket, fp) in [(0, 3), (0, 5), (1, 7), (1, 9)] {
                assert!(push(&mut t, bucket, fp));
            }
            let before = contents(&t);
            t.staged_mut().copy_from_slice(&[11, 12]);
            let instruments = CcfInstruments::disabled();
            assert!(t.place_staged(11, (0, 1), rule, 25, &instruments).is_err());
            assert_eq!(contents(&t), before, "{rule:?}");
            assert_eq!(t.staged(), &[11, 12], "{rule:?} keeps the staged entry");
        }
    }

    #[test]
    fn heap_bytes_are_the_allocated_capacity() {
        let mut t = table(16, 4);
        for fp in 1..40u16 {
            push(&mut t, usize::from(fp) % 16, fp);
        }
        t.grow();
        t.swap_remove(1, 0);
        let expected = t.keys.heap_bytes()
            + 2 * (t.payload.capacity() + t.staged.capacity())
            + std::mem::size_of::<(usize, usize)>() * t.swaps.capacity();
        assert_eq!(t.occupancy().heap_bytes, expected);
        assert!(t.payload.capacity() >= 32 * 4 * 2);
    }

    #[test]
    fn failed_insert_reports_rounded_load_factor() {
        // Fill a 64-slot table through the kick loop until it fails: the error must
        // carry the table's load factor rounded to thousandths, never floored.
        let mut t = table(16, 4);
        let instruments = CcfInstruments::disabled();
        let err = (0..1000u64)
            .find_map(|key| {
                let (fp, l, alt) = t.pair_of(key);
                t.staged_mut().copy_from_slice(&[fp, fp]);
                t.place_staged(fp, (l, alt), KickRule::CoinTestAfter, 500, &instruments)
                    .err()
            })
            .expect("a 64-slot table must eventually fill");
        assert_eq!(err, InsertFailure::kicks_exhausted_at(t.load_factor()));
        let millis = (t.occupied() as f64 * 1000.0 / t.capacity() as f64).round() as u32;
        assert_eq!(
            err,
            InsertFailure::KicksExhausted {
                load_factor_millis: millis
            }
        );
    }
}
