//! Bit-budgeted tiny Bloom filters for attribute sketches.
//!
//! The Bloom attribute sketch of §5.2 attaches a *very small* Bloom filter to each CCF
//! entry: every (attribute column, value) pair of the row is inserted, and a predicate
//! `A_i = v` matches the sketch if the pair `(i, v)` might be present. Bloom conversion
//! (§6.1) builds the same kind of filter but packs it into the bit budget freed by `d`
//! fingerprint-vector entries.
//!
//! [`TinyBloom`] therefore differs from [`crate::BloomFilter`] in two ways: items are
//! `(column, value)` pairs, and the filter knows how to serialize itself to/from an
//! exact number of bits so that Bloom conversion's packing (Algorithm 3) can split the
//! bits across bucket entries.

use ccf_hash::{HashFamily, SaltedHasher};

use crate::bitvec::BitVec;
use crate::params::bloom_fpr;

/// The hash functions of a family of tiny Bloom filters over (attribute column,
/// value) pairs. Every sketch of one CCF uses the same functions, so a filter holds
/// them once and keeps each sketch's bits in a byte slice (bit `i` in byte `i / 8`,
/// bit `i % 8`, the bit order [`BitVec::to_bytes`] writes); a [`TinyBloom`] pairs its
/// own copy with a [`BitVec`].
#[derive(Debug, Clone, PartialEq)]
pub struct SketchHashers {
    hashers: Vec<SaltedHasher>,
}

impl SketchHashers {
    /// `num_hashes` hash functions drawn from `family`.
    ///
    /// # Panics
    /// Panics if `num_hashes == 0`.
    pub fn new(num_hashes: usize, family: &HashFamily) -> Self {
        assert!(
            num_hashes > 0,
            "tiny Bloom filter needs at least one hash function"
        );
        let hashers = (0..num_hashes as u64)
            .map(|i| family.hasher(ccf_hash::salted::purpose::BLOOM_BASE + i))
            .collect();
        Self { hashers }
    }

    /// Number of hash functions.
    pub fn len(&self) -> usize {
        self.hashers.len()
    }

    /// Always false: a family has at least one hash function.
    pub fn is_empty(&self) -> bool {
        self.hashers.is_empty()
    }

    /// The bit positions of (column, value) in a filter of `num_bits` bits.
    fn positions(
        &self,
        column: usize,
        value: u64,
        num_bits: usize,
    ) -> impl Iterator<Item = usize> + '_ {
        let e = encode(column, value);
        self.hashers.iter().map(move |h| h.bucket_of(e, num_bits))
    }

    /// Insert (column, value) into the `num_bits`-bit sketch held in `bytes`.
    pub fn insert_pair(&self, bytes: &mut [u8], num_bits: usize, column: usize, value: u64) {
        for i in self.positions(column, value, num_bits) {
            bytes[i / 8] |= 1 << (i % 8);
        }
    }

    /// Whether (column, value) might be in the `num_bits`-bit sketch held in `bytes`.
    pub fn contains_pair(&self, bytes: &[u8], num_bits: usize, column: usize, value: u64) -> bool {
        self.positions(column, value, num_bits)
            .all(|i| (bytes[i / 8] >> (i % 8)) & 1 == 1)
    }
}

/// Encode a (column, value) pair as a single u64 for hashing. Column lives in the high
/// bits so that small values in different columns stay distinct.
#[inline]
fn encode(column: usize, value: u64) -> u64 {
    ((column as u64) << 48) ^ value.rotate_left(17) ^ 0x9E37_79B9_7F4A_7C15
}

/// A tiny Bloom filter over (attribute column, value) pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct TinyBloom {
    bits: BitVec,
    hashers: SketchHashers,
    pairs_inserted: usize,
}

impl TinyBloom {
    /// Create an empty tiny Bloom filter with `num_bits` bits and `num_hashes` hash
    /// functions drawn from `family`.
    ///
    /// # Panics
    /// Panics if `num_bits == 0` or `num_hashes == 0`.
    pub fn new(num_bits: usize, num_hashes: usize, family: &HashFamily) -> Self {
        assert!(num_bits > 0, "tiny Bloom filter needs at least one bit");
        Self {
            bits: BitVec::new(num_bits),
            hashers: SketchHashers::new(num_hashes, family),
            pairs_inserted: 0,
        }
    }

    /// Number of bits.
    pub fn num_bits(&self) -> usize {
        self.bits.len()
    }

    /// Number of hash functions.
    pub fn num_hashes(&self) -> usize {
        self.hashers.len()
    }

    /// Number of (column, value) pairs inserted (counting duplicates).
    pub fn pairs_inserted(&self) -> usize {
        self.pairs_inserted
    }

    /// Insert the pair (attribute column, value), per Algorithm 3's
    /// "Insert (j, α_j) into B".
    pub fn insert_pair(&mut self, column: usize, value: u64) {
        for i in self.hashers.positions(column, value, self.bits.len()) {
            self.bits.set(i);
        }
        self.pairs_inserted += 1;
    }

    /// Insert every (column, value) pair of an attribute vector.
    pub fn insert_row(&mut self, values: &[u64]) {
        for (col, &v) in values.iter().enumerate() {
            self.insert_pair(col, v);
        }
    }

    /// Query whether the pair (column, value) might have been inserted.
    pub fn contains_pair(&self, column: usize, value: u64) -> bool {
        self.hashers
            .positions(column, value, self.bits.len())
            .all(|i| self.bits.get(i))
    }

    /// Merge another tiny Bloom filter (same size and hash count) into this one.
    /// Used when multiple rows that share a key are collapsed into one sketch.
    ///
    /// # Panics
    /// Panics if dimensions differ.
    pub fn union_with(&mut self, other: &TinyBloom) {
        assert_eq!(
            self.bits.len(),
            other.bits.len(),
            "bit-size mismatch in union"
        );
        assert_eq!(
            self.hashers.len(),
            other.hashers.len(),
            "hash-count mismatch in union"
        );
        self.bits.union_with(&other.bits);
        self.pairs_inserted += other.pairs_inserted;
    }

    /// Expected FPR for a single (column, value) probe given the number of distinct
    /// pairs inserted, via the standard approximation.
    pub fn expected_fpr(&self) -> f64 {
        bloom_fpr(self.hashers.len(), self.bits.len(), self.pairs_inserted)
    }

    /// Fraction of bits set.
    pub fn saturation(&self) -> f64 {
        self.bits.saturation()
    }

    /// Heap bytes owned by this sketch: the bit array plus the salted-hasher list.
    pub fn heap_bytes(&self) -> usize {
        self.bits.heap_bytes() + std::mem::size_of_val(self.hashers.hashers.as_slice())
    }

    /// Serialize the raw bits (for packing across CCF entries by Bloom conversion).
    pub fn to_bits(&self) -> BitVec {
        self.bits.clone()
    }

    /// Rebuild a filter from raw bits previously produced by [`Self::to_bits`], plus the
    /// hash configuration (which is shared filter configuration, not per-filter state).
    pub fn from_bits(
        bits: BitVec,
        num_hashes: usize,
        family: &HashFamily,
        pairs_inserted: usize,
    ) -> Self {
        Self {
            bits,
            hashers: SketchHashers::new(num_hashes, family),
            pairs_inserted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family() -> HashFamily {
        HashFamily::new(7)
    }

    #[test]
    fn inserted_pairs_are_found() {
        let mut b = TinyBloom::new(32, 2, &family());
        b.insert_pair(0, 5);
        b.insert_pair(1, 1_000_000);
        assert!(b.contains_pair(0, 5));
        assert!(b.contains_pair(1, 1_000_000));
    }

    #[test]
    fn insert_row_covers_all_columns() {
        let mut b = TinyBloom::new(64, 2, &family());
        let row = [4u64, 9, 1999];
        b.insert_row(&row);
        for (c, &v) in row.iter().enumerate() {
            assert!(b.contains_pair(c, v));
        }
        assert_eq!(b.pairs_inserted(), 3);
    }

    #[test]
    fn same_value_different_columns_are_distinct() {
        let mut b = TinyBloom::new(256, 3, &family());
        b.insert_pair(0, 42);
        // Column 1 with the same value should usually *not* match (it can by Bloom
        // chance, but with 256 bits and one inserted pair the probability is tiny).
        assert!(!b.contains_pair(1, 42));
    }

    #[test]
    fn co_occurrence_is_not_tracked() {
        // §5.2: a Bloom attribute sketch cannot represent which values co-occur.
        // Insert rows (a1, a2) and (a1', a2'); the cross predicate (a1, a2') matches.
        let mut b = TinyBloom::new(128, 2, &family());
        b.insert_row(&[1, 10]);
        b.insert_row(&[2, 20]);
        assert!(b.contains_pair(0, 1) && b.contains_pair(1, 20));
        // The "false positive guaranteed" case from the paper:
        assert!(
            b.contains_pair(0, 1) && b.contains_pair(1, 20),
            "cross-row match must hold"
        );
    }

    #[test]
    fn union_merges_contents() {
        let mut a = TinyBloom::new(64, 2, &family());
        let mut b = TinyBloom::new(64, 2, &family());
        a.insert_pair(0, 1);
        b.insert_pair(0, 2);
        a.union_with(&b);
        assert!(a.contains_pair(0, 1) && a.contains_pair(0, 2));
        assert_eq!(a.pairs_inserted(), 2);
    }

    #[test]
    #[should_panic(expected = "bit-size mismatch")]
    fn union_size_mismatch_panics() {
        let mut a = TinyBloom::new(64, 2, &family());
        let b = TinyBloom::new(32, 2, &family());
        a.union_with(&b);
    }

    #[test]
    fn bit_roundtrip_preserves_queries() {
        let mut b = TinyBloom::new(48, 3, &family());
        for v in 0..6u64 {
            b.insert_pair((v % 3) as usize, v * 31);
        }
        let rebuilt = TinyBloom::from_bits(b.to_bits(), 3, &family(), b.pairs_inserted());
        assert_eq!(b, rebuilt);
        for v in 0..6u64 {
            assert!(rebuilt.contains_pair((v % 3) as usize, v * 31));
        }
    }

    #[test]
    fn saturation_reaches_one_under_overload() {
        let mut b = TinyBloom::new(8, 2, &family());
        for v in 0..200u64 {
            b.insert_pair(0, v);
        }
        assert!(b.saturation() > 0.99);
        // Saturated filter matches everything — the failure mode §8.1 warns about when
        // too many hash functions / too many items are used.
        assert!(b.contains_pair(5, 123_456_789));
    }

    #[test]
    fn small_filters_have_high_fpr() {
        // Sanity-check the regime the paper operates in: a 4-8 bit sketch with a few
        // pairs has double-digit FPR.
        let mut b = TinyBloom::new(8, 2, &family());
        b.insert_row(&[1, 2]);
        assert!(b.expected_fpr() > 0.1);
    }
}
