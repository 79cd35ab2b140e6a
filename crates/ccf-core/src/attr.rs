//! Attribute sketches (§5): fingerprint vectors and Bloom attribute sketches.
//!
//! Every CCF entry pairs a key fingerprint κ with a sketch of the row's attribute
//! values. This module holds the sketch representations and the predicate-matching
//! logic shared by the CCF variants:
//!
//! * [`match_fingerprint_vector`] — a predicate matches a stored fingerprint vector if,
//!   for every constrained column, some candidate value's fingerprint equals the stored
//!   fingerprint (§5.1).
//! * [`SketchFormat`] — the fixed-width word layout of a Bloom attribute sketch, with
//!   the sketch's hash functions held once per filter.
//! * [`match_raw_bloom`] — matching against a per-entry Bloom sketch of raw
//!   (column, value) pairs (§5.2).
//! * [`match_fingerprint_bloom`] — matching against a converted Bloom sketch that
//!   stores (column, attribute-fingerprint) pairs (§6.1), which therefore collides both
//!   at the fingerprinting step and inside the Bloom filter.

use ccf_bloom::SketchHashers;
use ccf_cuckoo::{ByteReader, ByteWriter, SnapshotError};
use ccf_hash::{AttrFingerprinter, HashFamily};

use crate::predicate::Predicate;

/// Whether a predicate matches a stored attribute fingerprint vector.
///
/// For each constrained column the predicate's candidate values are fingerprinted with
/// the same [`AttrFingerprinter`] the filter used at insert time; the column matches if
/// any candidate fingerprint equals the stored one. Unconstrained columns always match.
pub fn match_fingerprint_vector(
    pred: &Predicate,
    stored: &[u16],
    attr_fp: &AttrFingerprinter,
) -> bool {
    debug_assert!(stored.len() >= pred.num_attrs());
    pred.conditions()
        .iter()
        .enumerate()
        .all(|(col, cond)| match cond.candidate_values() {
            None => true,
            Some(values) => values
                .iter()
                .any(|&v| attr_fp.fingerprint(col, v) == stored[col]),
        })
}

/// Words of a sketch record after the filter bits: the pair count, little-endian.
const COUNT_WORDS: usize = 4;

/// The word layout of a Bloom attribute sketch of `num_bits` bits: the bits (bit `i`
/// in word `i / 16`), then the number of (column, value) pairs inserted as four
/// little-endian words. The Bloom variant keeps one record per slot in the entry
/// table's payload slab, the mixed variant one per converted group in its sketch
/// arena; the hash functions live here, once per filter.
#[derive(Debug, Clone)]
pub struct SketchFormat {
    hashers: SketchHashers,
    num_bits: usize,
}

impl SketchFormat {
    /// Sketches of `num_bits` bits probed by `num_hashes` functions from `family`.
    pub fn new(num_bits: usize, num_hashes: usize, family: &HashFamily) -> Self {
        Self {
            hashers: SketchHashers::new(num_hashes, family),
            num_bits,
        }
    }

    /// Words of one record.
    pub fn words(&self) -> usize {
        self.num_bits.div_ceil(16) + COUNT_WORDS
    }

    /// Insert (column, value) into `record`.
    pub fn insert_pair(&self, record: &mut [u16], column: usize, value: u64) {
        let (bits, count) = record.split_at_mut(self.num_bits.div_ceil(16));
        self.hashers.insert_pair(bits, self.num_bits, column, value);
        set_count(count, get_count(count) + 1);
    }

    /// Whether (column, value) might have been inserted into `record`.
    pub fn contains_pair(&self, record: &[u16], column: usize, value: u64) -> bool {
        self.hashers
            .contains_pair(record, self.num_bits, column, value)
    }

    /// Snapshot form of a record: the pair count, then the bits as
    /// `ceil(num_bits / 8)` bytes (the byte image of `ccf_bloom::BitVec::to_bytes`).
    pub(crate) fn write(&self, w: &mut ByteWriter, record: &[u16]) {
        let words = self.num_bits.div_ceil(16);
        w.put_usize(get_count(&record[words..]) as usize);
        let bytes: Vec<u8> = record[..words]
            .iter()
            .flat_map(|word| word.to_le_bytes())
            .take(self.num_bits.div_ceil(8))
            .collect();
        w.put_len_bytes(&bytes);
    }

    /// Inverse of [`SketchFormat::write`], rejecting an image of the wrong width. Bits
    /// past `num_bits` in the last byte are dropped, as `BitVec::from_bytes` drops them.
    pub(crate) fn read(
        &self,
        r: &mut ByteReader<'_>,
        record: &mut [u16],
    ) -> Result<(), SnapshotError> {
        let pairs = r.get_usize()?;
        let bytes = r.get_len_bytes()?;
        let expected = self.num_bits.div_ceil(8);
        if bytes.len() != expected {
            return Err(SnapshotError::Invalid(format!(
                "sketch image is {} bytes; {} bits need {expected}",
                bytes.len(),
                self.num_bits
            )));
        }
        let (bits, count) = record.split_at_mut(self.num_bits.div_ceil(16));
        bits.fill(0);
        for i in (0..self.num_bits).filter(|&i| (bytes[i / 8] >> (i % 8)) & 1 == 1) {
            bits[i / 16] |= 1 << (i % 16);
        }
        set_count(count, pairs as u64);
        Ok(())
    }
}

fn get_count(words: &[u16]) -> u64 {
    words
        .iter()
        .rev()
        .fold(0, |acc, &w| (acc << 16) | u64::from(w))
}

fn set_count(words: &mut [u16], count: u64) {
    for (i, w) in words.iter_mut().enumerate() {
        *w = (count >> (16 * i)) as u16;
    }
}

/// Whether a predicate matches a Bloom attribute sketch storing raw (column, value)
/// pairs (the direct Bloom sketch of §5.2).
pub fn match_raw_bloom(pred: &Predicate, format: &SketchFormat, record: &[u16]) -> bool {
    pred.conditions()
        .iter()
        .enumerate()
        .all(|(col, cond)| match cond.candidate_values() {
            None => true,
            Some(values) => values.iter().any(|&v| format.contains_pair(record, col, v)),
        })
}

/// Whether a predicate matches a converted Bloom sketch storing (column,
/// attribute-fingerprint) pairs (§6.1): candidate values are fingerprinted first, then
/// probed in the Bloom filter.
pub fn match_fingerprint_bloom(
    pred: &Predicate,
    format: &SketchFormat,
    record: &[u16],
    attr_fp: &AttrFingerprinter,
) -> bool {
    pred.conditions()
        .iter()
        .enumerate()
        .all(|(col, cond)| match cond.candidate_values() {
            None => true,
            Some(values) => values.iter().any(|&v| {
                format.contains_pair(record, col, u64::from(attr_fp.fingerprint(col, v)))
            }),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{ColumnPredicate, Predicate};
    use ccf_bloom::TinyBloom;
    use ccf_hash::HashFamily;

    /// An empty record and its format.
    fn sketch(bits: usize, family: &HashFamily) -> (SketchFormat, Vec<u16>) {
        let format = SketchFormat::new(bits, 2, family);
        let record = vec![0; format.words()];
        (format, record)
    }

    fn attr_fp() -> AttrFingerprinter {
        AttrFingerprinter::new(&HashFamily::new(11), 8, true)
    }

    #[test]
    fn vector_match_requires_every_constrained_column() {
        let af = attr_fp();
        let row = [5u64, 300u64];
        let stored = af.fingerprint_vector(&row);
        // Matching both columns.
        assert!(match_fingerprint_vector(
            &Predicate::any(2).and_eq(0, 5).and_eq(1, 300),
            &stored,
            &af
        ));
        // One column wrong → no match (values 5 and 6 are stored exactly thanks to the
        // small-value optimisation, so no hash collision is possible).
        assert!(!match_fingerprint_vector(
            &Predicate::any(2).and_eq(0, 6).and_eq(1, 300),
            &stored,
            &af
        ));
        // Unconstrained predicate always matches.
        assert!(match_fingerprint_vector(&Predicate::any(2), &stored, &af));
    }

    #[test]
    fn vector_match_in_list_any_candidate() {
        let af = attr_fp();
        let stored = af.fingerprint_vector(&[7]);
        let pred = Predicate::new(vec![ColumnPredicate::InList(vec![1, 7, 9])]);
        assert!(match_fingerprint_vector(&pred, &stored, &af));
        let pred_miss = Predicate::new(vec![ColumnPredicate::InList(vec![1, 2, 3])]);
        assert!(!match_fingerprint_vector(&pred_miss, &stored, &af));
        let pred_empty = Predicate::new(vec![ColumnPredicate::InList(vec![])]);
        assert!(!match_fingerprint_vector(&pred_empty, &stored, &af));
    }

    #[test]
    fn raw_bloom_match_tracks_inserted_pairs() {
        let (format, mut bloom) = sketch(128, &HashFamily::new(3));
        format.insert_pair(&mut bloom, 0, 4);
        format.insert_pair(&mut bloom, 1, 1995);
        assert!(match_raw_bloom(
            &Predicate::any(2).and_eq(0, 4),
            &format,
            &bloom
        ));
        assert!(match_raw_bloom(
            &Predicate::any(2).and_eq(0, 4).and_eq(1, 1995),
            &format,
            &bloom
        ));
        assert!(!match_raw_bloom(
            &Predicate::any(2).and_eq(0, 5),
            &format,
            &bloom
        ));
        assert!(match_raw_bloom(&Predicate::any(2), &format, &bloom));
    }

    #[test]
    fn raw_bloom_cannot_rule_out_cross_row_combinations() {
        // §5.2: if rows (a1, a2) and (a1', a2') share a key, the predicate
        // A0 = a1 ∧ A1 = a2' is a guaranteed false positive on the Bloom sketch.
        let (format, mut bloom) = sketch(256, &HashFamily::new(4));
        for (col, v) in [(0, 1), (1, 10), (0, 2), (1, 20)] {
            format.insert_pair(&mut bloom, col, v);
        }
        assert!(match_raw_bloom(
            &Predicate::any(2).and_eq(0, 1).and_eq(1, 20),
            &format,
            &bloom
        ));
    }

    #[test]
    fn fingerprint_bloom_match_uses_fingerprints() {
        let af = attr_fp();
        let (format, mut bloom) = sketch(64, &HashFamily::new(5));
        let row = [123_456u64, 9u64];
        for (col, &v) in row.iter().enumerate() {
            format.insert_pair(&mut bloom, col, u64::from(af.fingerprint(col, v)));
        }
        assert!(match_fingerprint_bloom(
            &Predicate::any(2).and_eq(0, 123_456).and_eq(1, 9),
            &format,
            &bloom,
            &af
        ));
        assert!(!match_fingerprint_bloom(
            &Predicate::any(2).and_eq(1, 10),
            &format,
            &bloom,
            &af
        ));
    }

    #[test]
    fn sketch_records_match_tiny_bloom_bit_for_bit() {
        // The record layout must answer, and snapshot, exactly as a TinyBloom of the
        // same width and hash family — including widths that end mid-byte.
        let family = HashFamily::new(6);
        for bits in [4usize, 13, 16, 24, 61] {
            let format = SketchFormat::new(bits, 2, &family);
            let mut record = vec![0; format.words()];
            let mut tiny = TinyBloom::new(bits, 2, &family);
            for v in 0..5u64 {
                format.insert_pair(&mut record, (v % 2) as usize, v * 977);
                tiny.insert_pair((v % 2) as usize, v * 977);
            }
            for v in 0..40u64 {
                assert_eq!(
                    format.contains_pair(&record, (v % 2) as usize, v * 977),
                    tiny.contains_pair((v % 2) as usize, v * 977)
                );
            }
            let mut w = ByteWriter::new(1, 1);
            format.write(&mut w, &record);
            let mut expected = ByteWriter::new(1, 1);
            expected.put_usize(tiny.pairs_inserted());
            expected.put_len_bytes(&tiny.to_bits().to_bytes());
            let image = w.seal();
            assert_eq!(image, expected.seal(), "{bits}-bit image");
            let mut r = ByteReader::open(&image, 1, 1).unwrap();
            let mut back = vec![0xFFFF; format.words()];
            format.read(&mut r, &mut back).unwrap();
            assert_eq!(back, record);
        }
    }
}
