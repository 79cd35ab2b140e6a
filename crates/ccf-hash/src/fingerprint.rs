//! Fingerprint derivation for keys (κ) and attributes (α).
//!
//! A cuckoo filter stores only a small fingerprint κ of each key (§4.2). The CCF
//! additionally stores a vector of attribute fingerprints α, one per attribute column
//! (§5.1). Both are just truncated hashes, with two paper-specific details:
//!
//! * **Key fingerprints must be non-zero** so that an all-zero entry can represent an
//!   empty slot (standard cuckoo-filter practice; the original implementation does the
//!   same).
//! * **Small-value optimisation** (§9): attribute values smaller than `2^|α|` can be
//!   stored exactly rather than hashed, which removes hash collisions entirely for
//!   low-cardinality columns such as `company_type_id` (cardinality 2) — the common
//!   case in the JOB-light workload.

use crate::salted::{purpose, HashFamily, SaltedHasher};

/// Derives key fingerprints κ and primary buckets ℓ from raw 64-bit keys.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprinter {
    bucket_hasher: SaltedHasher,
    fp_hasher: SaltedHasher,
    /// Fingerprint width |κ| in bits, between 1 and 16.
    fp_bits: u32,
}

impl Fingerprinter {
    /// Create a fingerprinter drawing its hash functions from `family`.
    ///
    /// # Panics
    /// Panics if `fp_bits` is not in `1..=16`.
    pub fn new(family: &HashFamily, fp_bits: u32) -> Self {
        assert!(
            (1..=16).contains(&fp_bits),
            "key fingerprint width must be 1..=16 bits, got {fp_bits}"
        );
        Self {
            bucket_hasher: family.hasher(purpose::KEY_BUCKET),
            fp_hasher: family.hasher(purpose::KEY_FINGERPRINT),
            fp_bits,
        }
    }

    /// Fingerprint width |κ| in bits.
    pub fn fp_bits(&self) -> u32 {
        self.fp_bits
    }

    /// Number of distinct fingerprint values (2^|κ| − 1, excluding the reserved 0).
    pub fn fp_cardinality(&self) -> u64 {
        (1u64 << self.fp_bits) - 1
    }

    /// Derive the non-zero fingerprint κ for `key`.
    #[inline]
    pub fn fingerprint(&self, key: u64) -> u16 {
        let h = self.fp_hasher.hash_u64(key);
        let mask = (1u64 << self.fp_bits) - 1;
        let fp = (h & mask) as u16;
        if fp == 0 {
            // Remap zero so it never collides with the empty-slot marker. Folding in
            // higher bits keeps the distribution nearly uniform over 1..=mask.
            let alt = ((h >> self.fp_bits) & mask) as u16;
            if alt == 0 {
                1
            } else {
                alt
            }
        } else {
            fp
        }
    }

    /// Derive the primary bucket ℓ = h(key) mod m.
    #[inline]
    pub fn primary_bucket(&self, key: u64, num_buckets: usize) -> usize {
        self.bucket_hasher.bucket_of(key, num_buckets)
    }

    /// Derive both (κ, ℓ) at once — the `(κ, ℓ) ← h(k)` step of Algorithm 1.
    #[inline]
    pub fn fingerprint_and_bucket(&self, key: u64, num_buckets: usize) -> (u16, usize) {
        (self.fingerprint(key), self.primary_bucket(key, num_buckets))
    }
}

/// Derives per-column attribute fingerprints α (§5.1) with the small-value
/// optimisation of §9.
#[derive(Debug, Clone)]
pub struct AttrFingerprinter {
    family: HashFamily,
    /// Attribute fingerprint width |α| per attribute, in bits (1..=16).
    attr_bits: u32,
    /// Whether values `< 2^attr_bits` are stored exactly instead of hashed.
    small_value_opt: bool,
}

impl AttrFingerprinter {
    /// Create an attribute fingerprinter.
    ///
    /// # Panics
    /// Panics if `attr_bits` is not in `1..=16`.
    pub fn new(family: &HashFamily, attr_bits: u32, small_value_opt: bool) -> Self {
        assert!(
            (1..=16).contains(&attr_bits),
            "attribute fingerprint width must be 1..=16 bits, got {attr_bits}"
        );
        Self {
            family: *family,
            attr_bits,
            small_value_opt,
        }
    }

    /// Attribute fingerprint width |α| in bits.
    pub fn attr_bits(&self) -> u32 {
        self.attr_bits
    }

    /// Whether the small-value optimisation is enabled.
    pub fn small_value_opt(&self) -> bool {
        self.small_value_opt
    }

    /// Fingerprint of attribute column `col` having value `value`.
    #[inline]
    pub fn fingerprint(&self, col: usize, value: u64) -> u16 {
        let mask = (1u64 << self.attr_bits) - 1;
        if self.small_value_opt && value <= mask {
            // §9 "Small values": represent small attribute values exactly.
            return value as u16;
        }
        let hasher = self.family.hasher(purpose::ATTRIBUTE_BASE + col as u64);
        (hasher.hash_u64(value) & mask) as u16
    }

    /// Fingerprint an entire attribute vector.
    pub fn fingerprint_vector(&self, values: &[u64]) -> Vec<u16> {
        values
            .iter()
            .enumerate()
            .map(|(col, &v)| self.fingerprint(col, v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family() -> HashFamily {
        HashFamily::new(0xC0FFEE)
    }

    #[test]
    fn fingerprints_are_nonzero_and_within_width() {
        for bits in [4u32, 7, 8, 12, 16] {
            let f = Fingerprinter::new(&family(), bits);
            for key in 0..20_000u64 {
                let fp = f.fingerprint(key);
                assert_ne!(fp, 0, "zero fingerprint at key {key}, bits {bits}");
                assert!(u32::from(fp) < (1 << bits), "fingerprint exceeds width");
            }
        }
    }

    #[test]
    #[should_panic(expected = "key fingerprint width")]
    fn zero_width_fingerprints_rejected() {
        let _ = Fingerprinter::new(&family(), 0);
    }

    #[test]
    #[should_panic(expected = "key fingerprint width")]
    fn oversized_fingerprints_rejected() {
        let _ = Fingerprinter::new(&family(), 17);
    }

    #[test]
    fn fingerprint_distribution_is_roughly_uniform() {
        let f = Fingerprinter::new(&family(), 8);
        let mut counts = vec![0u32; 256];
        for key in 0..255_000u64 {
            counts[f.fingerprint(key) as usize] += 1;
        }
        assert_eq!(counts[0], 0, "zero is reserved");
        let expected = 255_000.0 / 255.0;
        for (v, &c) in counts.iter().enumerate().skip(1) {
            assert!(
                (c as f64) > expected * 0.8 && (c as f64) < expected * 1.2,
                "value {v} count {c} far from {expected}"
            );
        }
    }

    #[test]
    fn primary_bucket_in_range() {
        let f = Fingerprinter::new(&family(), 8);
        for m in [1usize, 2, 3, 64, 1000] {
            for key in 0..1000u64 {
                assert!(f.primary_bucket(key, m) < m);
            }
        }
    }

    #[test]
    fn fingerprint_and_bucket_consistent_with_parts() {
        let f = Fingerprinter::new(&family(), 12);
        for key in 0..100u64 {
            let (fp, b) = f.fingerprint_and_bucket(key, 128);
            assert_eq!(fp, f.fingerprint(key));
            assert_eq!(b, f.primary_bucket(key, 128));
        }
    }

    #[test]
    fn small_value_optimisation_stores_exact_values() {
        let a = AttrFingerprinter::new(&family(), 4, true);
        // Values below 2^4 = 16 must round-trip exactly in every column.
        for col in 0..5 {
            for v in 0..16u64 {
                assert_eq!(a.fingerprint(col, v) as u64, v);
            }
        }
        // Large values are hashed into range.
        for v in [16u64, 100, 1 << 40] {
            assert!(a.fingerprint(0, v) < 16);
        }
    }

    #[test]
    fn small_value_optimisation_disabled_hashes_everything() {
        let a = AttrFingerprinter::new(&family(), 8, false);
        // With hashing, the identity mapping should not hold for all small values.
        let identical = (0..256u64)
            .filter(|&v| a.fingerprint(0, v) as u64 == v)
            .count();
        assert!(
            identical < 32,
            "too many identity mappings for a hash: {identical}"
        );
    }

    #[test]
    fn attribute_columns_use_independent_hashes() {
        let a = AttrFingerprinter::new(&family(), 8, false);
        let same = (0..5000u64)
            .filter(|&v| a.fingerprint(0, v) == a.fingerprint(1, v))
            .count();
        // Chance agreement is 1/256 ≈ 20 of 5000.
        assert!(same < 60, "columns look correlated: {same}");
    }

    #[test]
    fn fingerprint_vector_matches_per_column() {
        let a = AttrFingerprinter::new(&family(), 8, true);
        let values = vec![3u64, 123_456, 7, 999_999_999];
        let vector = a.fingerprint_vector(&values);
        assert_eq!(vector.len(), values.len());
        for (col, &v) in values.iter().enumerate() {
            assert_eq!(vector[col], a.fingerprint(col, v));
        }
    }
}
