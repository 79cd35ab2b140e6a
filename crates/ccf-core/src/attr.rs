//! Attribute sketches (§5): fingerprint vectors and Bloom attribute sketches.
//!
//! Every CCF entry pairs a key fingerprint κ with a sketch of the row's attribute
//! values. This module holds the sketch representations and the predicate-matching
//! logic shared by the CCF variants:
//!
//! * [`VectorCodec`] — the bit-packed form of an attribute fingerprint vector: `|α|`
//!   bits per column, the `#α·|α|` bits of Table 1 rounded up to whole bytes.
//! * [`match_fingerprint_vector`] — a predicate matches a stored fingerprint vector if,
//!   for every constrained column, some candidate value's fingerprint equals the stored
//!   fingerprint (§5.1).
//! * [`SketchFormat`] — the fixed-width byte layout of a Bloom attribute sketch, with
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

/// The bit-packed layout of an attribute fingerprint vector: column `i`'s `|α|`-bit
/// fingerprint fills bits `i·|α| .. (i + 1)·|α|` of a little-endian bit string (bit
/// `k` in byte `k / 8`, bit `k % 8`), and the bits past the last column up to the
/// byte boundary are zero. Equal vectors therefore pack to equal bytes, which is
/// what lets dedupe and delete compare whole slot payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorCodec {
    attr_bits: u32,
    num_attrs: usize,
}

impl VectorCodec {
    /// Vectors of `num_attrs` fingerprints of `attr_bits` bits each.
    ///
    /// # Panics
    /// Panics if `attr_bits` is not in `1..=16` (the range `CcfParams` validates).
    pub fn new(attr_bits: u32, num_attrs: usize) -> Self {
        assert!(
            (1..=16).contains(&attr_bits),
            "attribute fingerprint width must be 1..=16 bits, got {attr_bits}"
        );
        Self {
            attr_bits,
            num_attrs,
        }
    }

    /// Bytes of one packed vector: `⌈num_attrs · attr_bits / 8⌉`.
    pub fn bytes(&self) -> usize {
        (self.num_attrs * self.attr_bits as usize).div_ceil(8)
    }

    /// Whether `fp` fits in `attr_bits` bits.
    fn fits(&self, fp: u16) -> bool {
        u32::from(fp) >> self.attr_bits == 0
    }

    /// The byte range a column touches and its bit offset in the first byte.
    #[inline]
    fn span(&self, col: usize) -> (std::ops::Range<usize>, u32) {
        let start = col * self.attr_bits as usize;
        let end = start + self.attr_bits as usize;
        (start / 8..end.div_ceil(8), (start % 8) as u32)
    }

    /// Column `col`'s fingerprint.
    #[inline]
    pub fn get(&self, packed: &[u8], col: usize) -> u16 {
        // Byte-wide columns (the paper's JOB-light configuration and every benchmark
        // workload) are one load: through the general path a JOB-light predicate
        // query ran about 6 % slower.
        if self.attr_bits == 8 {
            return u16::from(packed[col]);
        }
        self.get_unaligned(packed, col)
    }

    /// [`VectorCodec::get`] for a column that may straddle bytes, kept out of line so
    /// the byte-wide path stays small enough to inline into the matchers.
    fn get_unaligned(&self, packed: &[u8], col: usize) -> u16 {
        let (bytes, shift) = self.span(col);
        let word = packed[bytes]
            .iter()
            .rev()
            .fold(0u32, |acc, &b| (acc << 8) | u32::from(b));
        ((word >> shift) & ((1 << self.attr_bits) - 1)) as u16
    }

    /// Every column's fingerprint, in column order.
    pub fn unpack<'a>(&self, packed: &'a [u8]) -> impl Iterator<Item = u16> + 'a {
        let codec = *self;
        (0..self.num_attrs).map(move |col| codec.get(packed, col))
    }

    /// Pack `fps` into `packed`, zeroing the padding.
    ///
    /// # Panics
    /// Panics if a fingerprint does not fit in `attr_bits` bits.
    pub fn pack(&self, fps: impl IntoIterator<Item = u16>, packed: &mut [u8]) {
        packed.fill(0);
        for (col, fp) in fps.into_iter().enumerate() {
            self.pack_column(packed, col, fp);
        }
    }

    /// OR column `col`'s fingerprint into `packed`, whose bits there are zero.
    fn pack_column(&self, packed: &mut [u8], col: usize, fp: u16) {
        assert!(
            self.fits(fp),
            "fingerprint {fp} exceeds {} bits",
            self.attr_bits
        );
        if self.attr_bits == 8 {
            packed[col] = fp as u8;
            return;
        }
        let (bytes, shift) = self.span(col);
        let word = u32::from(fp) << shift;
        for (i, b) in packed[bytes].iter_mut().enumerate() {
            *b |= (word >> (8 * i)) as u8;
        }
    }

    /// Fingerprint a row's attribute values and pack them into `packed`.
    pub fn pack_row(&self, attr_fp: &AttrFingerprinter, attrs: &[u64], packed: &mut [u8]) {
        let fps = attrs
            .iter()
            .enumerate()
            .map(|(col, &v)| attr_fp.fingerprint(col, v));
        self.pack(fps, packed);
    }

    /// Snapshot form of a packed vector: one `u16` per column.
    pub(crate) fn write(&self, w: &mut ByteWriter, packed: &[u8]) {
        for fp in self.unpack(packed) {
            w.put_u16(fp);
        }
    }

    /// Inverse of [`VectorCodec::write`], rejecting a fingerprint wider than
    /// `attr_bits`, which the packed form cannot hold.
    pub(crate) fn read(
        &self,
        r: &mut ByteReader<'_>,
        packed: &mut [u8],
    ) -> Result<(), SnapshotError> {
        packed.fill(0);
        for col in 0..self.num_attrs {
            let fp = r.get_u16()?;
            if !self.fits(fp) {
                return Err(SnapshotError::Invalid(format!(
                    "attribute fingerprint {fp} exceeds {} bits",
                    self.attr_bits
                )));
            }
            self.pack_column(packed, col, fp);
        }
        Ok(())
    }
}

/// Whether a predicate matches a stored attribute fingerprint vector, packed as
/// [`VectorCodec`] lays it out for `attr_fp`'s width.
///
/// For each constrained column the predicate's candidate values are fingerprinted with
/// the same [`AttrFingerprinter`] the filter used at insert time; the column matches if
/// any candidate fingerprint equals the stored one. Unconstrained columns always match.
pub fn match_fingerprint_vector(
    pred: &Predicate,
    stored: &[u8],
    attr_fp: &AttrFingerprinter,
) -> bool {
    // `attr_fp` holds a validated width, so skip `new`'s check on this hot path.
    let codec = VectorCodec {
        attr_bits: attr_fp.attr_bits(),
        num_attrs: pred.num_attrs(),
    };
    debug_assert!(stored.len() >= codec.bytes());
    pred.conditions()
        .iter()
        .enumerate()
        .all(|(col, cond)| match cond.candidate_values() {
            None => true,
            Some(values) => {
                let fp = codec.get(stored, col);
                values.iter().any(|&v| attr_fp.fingerprint(col, v) == fp)
            }
        })
}

/// Bytes of a sketch record after the filter bits: the pair count, little-endian.
const COUNT_BYTES: usize = 8;

/// The byte layout of a Bloom attribute sketch of `num_bits` bits: the bits (bit `i`
/// in byte `i / 8`, bit `i % 8`) padded to whole 16-bit words, then the number of
/// (column, value) pairs inserted as a little-endian `u64`. The Bloom variant keeps
/// one record per slot in the entry table's payload slab, the mixed variant one per
/// converted group in its sketch arena; the hash functions live here, once per
/// filter.
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

    /// Bytes of the filter bits.
    fn bit_bytes(&self) -> usize {
        2 * self.num_bits.div_ceil(16)
    }

    /// Bytes of one record.
    pub fn bytes(&self) -> usize {
        self.bit_bytes() + COUNT_BYTES
    }

    /// Insert (column, value) into `record`.
    pub fn insert_pair(&self, record: &mut [u8], column: usize, value: u64) {
        let (bits, count) = record.split_at_mut(self.bit_bytes());
        self.hashers.insert_pair(bits, self.num_bits, column, value);
        set_count(count, get_count(count) + 1);
    }

    /// Whether (column, value) might have been inserted into `record`.
    pub fn contains_pair(&self, record: &[u8], column: usize, value: u64) -> bool {
        self.hashers
            .contains_pair(record, self.num_bits, column, value)
    }

    /// Snapshot form of a record: the pair count, then the bits as
    /// `ceil(num_bits / 8)` bytes (the byte image of `ccf_bloom::BitVec::to_bytes`).
    pub(crate) fn write(&self, w: &mut ByteWriter, record: &[u8]) {
        w.put_usize(get_count(&record[self.bit_bytes()..]) as usize);
        w.put_len_bytes(&record[..self.num_bits.div_ceil(8)]);
    }

    /// Inverse of [`SketchFormat::write`], rejecting an image of the wrong width. Bits
    /// past `num_bits` in the last byte are dropped, as `BitVec::from_bytes` drops them.
    pub(crate) fn read(
        &self,
        r: &mut ByteReader<'_>,
        record: &mut [u8],
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
        let (bits, count) = record.split_at_mut(self.bit_bytes());
        bits.fill(0);
        bits[..expected].copy_from_slice(bytes);
        if self.num_bits % 8 != 0 {
            bits[expected - 1] &= (1 << (self.num_bits % 8)) - 1;
        }
        set_count(count, pairs as u64);
        Ok(())
    }
}

fn get_count(bytes: &[u8]) -> u64 {
    let mut le = [0; COUNT_BYTES];
    le.copy_from_slice(bytes);
    u64::from_le_bytes(le)
}

fn set_count(bytes: &mut [u8], count: u64) {
    bytes.copy_from_slice(&count.to_le_bytes());
}

/// Whether a predicate matches a Bloom attribute sketch storing raw (column, value)
/// pairs (the direct Bloom sketch of §5.2).
pub fn match_raw_bloom(pred: &Predicate, format: &SketchFormat, record: &[u8]) -> bool {
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
    record: &[u8],
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
    fn sketch(bits: usize, family: &HashFamily) -> (SketchFormat, Vec<u8>) {
        let format = SketchFormat::new(bits, 2, family);
        let record = vec![0; format.bytes()];
        (format, record)
    }

    fn attr_fp() -> AttrFingerprinter {
        AttrFingerprinter::new(&HashFamily::new(11), 8, true)
    }

    /// A row's packed attribute fingerprint vector.
    fn packed(af: &AttrFingerprinter, row: &[u64]) -> Vec<u8> {
        let codec = VectorCodec::new(af.attr_bits(), row.len());
        let mut out = vec![0; codec.bytes()];
        codec.pack_row(af, row, &mut out);
        out
    }

    #[test]
    fn codec_round_trips_every_width_against_one_word_per_column() {
        for attr_bits in 1..=16u32 {
            for num_attrs in [1usize, 2, 3, 5, 8] {
                let codec = VectorCodec::new(attr_bits, num_attrs);
                let bits = num_attrs * attr_bits as usize;
                assert_eq!(codec.bytes(), bits.div_ceil(8));
                let mask = ((1u32 << attr_bits) - 1) as u16;
                let samples = [
                    vec![mask; num_attrs],
                    vec![0; num_attrs],
                    (0..num_attrs)
                        .map(|c| (0x9E37u16.wrapping_mul(c as u16 + 1) ^ 0x5A5A) & mask)
                        .collect(),
                ];
                for reference in samples {
                    let mut out = vec![0xFF; codec.bytes()];
                    codec.pack(reference.iter().copied(), &mut out);
                    assert_eq!(
                        codec.unpack(&out).collect::<Vec<_>>(),
                        reference,
                        "{attr_bits} bits × {num_attrs}"
                    );
                    for (col, &fp) in reference.iter().enumerate() {
                        assert_eq!(codec.get(&out, col), fp);
                    }
                    if bits % 8 != 0 {
                        let last = out[out.len() - 1];
                        assert_eq!(last >> (bits % 8), 0, "padding bits must be zero");
                    }
                    // The snapshot form is the one-word-per-column reference.
                    let mut w = ByteWriter::new(1, 1);
                    codec.write(&mut w, &out);
                    let mut expected = ByteWriter::new(1, 1);
                    for &fp in &reference {
                        expected.put_u16(fp);
                    }
                    let image = w.seal();
                    assert_eq!(image, expected.seal());
                    let mut r = ByteReader::open(&image, 1, 1).unwrap();
                    let mut back = vec![0xFF; codec.bytes()];
                    codec.read(&mut r, &mut back).unwrap();
                    assert_eq!(back, out);
                }
            }
        }
    }

    #[test]
    fn codec_read_rejects_a_fingerprint_wider_than_the_column() {
        let codec = VectorCodec::new(8, 2);
        let mut w = ByteWriter::new(1, 1);
        w.put_u16(7);
        w.put_u16(256);
        let image = w.seal();
        let mut r = ByteReader::open(&image, 1, 1).unwrap();
        let mut out = vec![0; codec.bytes()];
        assert!(matches!(
            codec.read(&mut r, &mut out),
            Err(SnapshotError::Invalid(_))
        ));
    }

    #[test]
    fn vector_match_requires_every_constrained_column() {
        let af = attr_fp();
        let row = [5u64, 300u64];
        let stored = packed(&af, &row);
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
        let stored = packed(&af, &[7]);
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
            let mut record = vec![0; format.bytes()];
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
            let mut back = vec![0xFF; format.bytes()];
            format.read(&mut r, &mut back).unwrap();
            assert_eq!(back, record);
        }
    }
}
