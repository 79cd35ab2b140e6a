//! Parameters for Conditional Cuckoo Filters (§8).
//!
//! A CCF has more parameters than a regular cuckoo filter: besides the number of
//! buckets `m` and entries per bucket `b`, it needs the maximum number of duplicates
//! per bucket pair `d`, the maximum chain length `Lmax`, the attribute-sketch
//! configuration (fingerprint width |α| or Bloom bits), and the key fingerprint width
//! |κ|. §8 derives the sizing rules this module implements as convenience constructors:
//! `b ≈ 2d`, capacity `m·b ≈ E[Z′]/β`, and d = 3 as the recommended default.

/// Why a parameter combination is impossible. Each variant mirrors one rule of
/// [`CcfParams::try_validate`]; the panicking [`CcfParams::validate`] is a thin
/// wrapper that formats the same error. [`ZeroShards`](ParamsError::ZeroShards) and
/// [`TargetLoadOutOfRange`](ParamsError::TargetLoadOutOfRange) are produced by the
/// sizing and service layers (`CcfBuilder`, `ShardedCcf`), which report through the
/// same type so callers handle one error for all construction paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamsError {
    /// `num_buckets == 0`.
    ZeroBuckets,
    /// `entries_per_bucket == 0`.
    ZeroEntriesPerBucket,
    /// `entries_per_bucket` above 255: the entry table counts a bucket's entries in
    /// one byte.
    BucketTooWide {
        /// The rejected entries per bucket b.
        entries_per_bucket: usize,
    },
    /// Key fingerprint width |κ| outside `1..=16`.
    FingerprintBitsOutOfRange {
        /// The rejected width.
        got: u32,
    },
    /// Attribute fingerprint width |α| outside `1..=16`.
    AttrBitsOutOfRange {
        /// The rejected width.
        got: u32,
    },
    /// `max_dupes == 0`.
    ZeroMaxDupes,
    /// `max_dupes` exceeds the `2b` entries of a bucket pair.
    MaxDupesExceedPair {
        /// The configured duplicate cap d.
        max_dupes: usize,
        /// The pair's `2b` entry slots.
        pair_slots: usize,
    },
    /// `bloom_hashes == 0`.
    ZeroBloomHashes,
    /// `bloom_bits == 0` on the Bloom variant, whose per-entry attribute sketches
    /// need at least one bit. (The mixed variant's conversion budget is derived from
    /// entry sizes instead and does not consult `bloom_bits`.)
    ZeroBloomBits,
    /// `max_chain == Some(0)`, which would fail every insertion.
    ZeroMaxChain,
    /// `max_kicks == 0`, which would refuse any insertion that misses both direct
    /// buckets.
    ZeroMaxKicks,
    /// The mixed variant's conversion group of `max_dupes` slots does not fit in one
    /// bucket of `entries_per_bucket` entries (§6.1 repacks a group in place).
    ConversionGroupTooWide {
        /// The configured duplicate cap d (= conversion group width).
        max_dupes: usize,
        /// Entries per bucket b.
        entries_per_bucket: usize,
    },
    /// A sizing target load factor outside `(0, 1]`.
    TargetLoadOutOfRange {
        /// The rejected load factor.
        got: f64,
    },
    /// A sharded service was requested with zero shards.
    ZeroShards,
}

impl std::fmt::Display for ParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamsError::ZeroBuckets => write!(f, "num_buckets must be positive"),
            ParamsError::ZeroEntriesPerBucket => {
                write!(f, "entries_per_bucket must be positive")
            }
            ParamsError::BucketTooWide { entries_per_bucket } => write!(
                f,
                "entries_per_bucket must be at most 255, got {entries_per_bucket}"
            ),
            ParamsError::FingerprintBitsOutOfRange { got } => {
                write!(f, "fingerprint_bits must be 1..=16, got {got}")
            }
            ParamsError::AttrBitsOutOfRange { got } => {
                write!(f, "attr_bits must be 1..=16, got {got}")
            }
            ParamsError::ZeroMaxDupes => write!(f, "max_dupes must be at least 1"),
            ParamsError::MaxDupesExceedPair {
                max_dupes,
                pair_slots,
            } => write!(
                f,
                "max_dupes {max_dupes} cannot exceed the 2b = {pair_slots} entries of a \
                 bucket pair"
            ),
            ParamsError::ZeroBloomHashes => write!(f, "bloom_hashes must be at least 1"),
            ParamsError::ZeroBloomBits => {
                write!(f, "bloom_bits must be positive for the Bloom variant")
            }
            ParamsError::ZeroMaxChain => write!(
                f,
                "max_chain of 0 would make every insertion fail; use Some(1) or None"
            ),
            ParamsError::ZeroMaxKicks => write!(f, "max_kicks must be positive"),
            ParamsError::ConversionGroupTooWide {
                max_dupes,
                entries_per_bucket,
            } => write!(
                f,
                "Bloom conversion stores a group of max_dupes = {max_dupes} slots, which must \
                 fit in one bucket of {entries_per_bucket} entries"
            ),
            ParamsError::TargetLoadOutOfRange { got } => {
                write!(f, "target load factor must be in (0, 1], got {got}")
            }
            ParamsError::ZeroShards => write!(f, "a sharded filter needs at least one shard"),
        }
    }
}

impl std::error::Error for ParamsError {}

/// How attribute values are sketched inside each entry (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrSketchKind {
    /// A vector of per-column attribute fingerprints of `attr_bits` bits each (§5.1).
    FingerprintVector,
    /// A small Bloom filter over (column, value) pairs of `bloom_bits` bits (§5.2).
    Bloom,
}

/// Parameters shared by every CCF variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcfParams {
    /// Number of buckets `m` (rounded up to a power of two on construction).
    pub num_buckets: usize,
    /// Entries per bucket `b`. §8's rule of thumb is `b ≈ 2d`.
    pub entries_per_bucket: usize,
    /// Key fingerprint width |κ| in bits (the paper evaluates 7, 8 and 12).
    pub fingerprint_bits: u32,
    /// Attribute fingerprint width |α| in bits (the paper evaluates 4 and 8).
    pub attr_bits: u32,
    /// Number of attribute columns #α stored per row.
    pub num_attrs: usize,
    /// Maximum number `d` of duplicated key fingerprints per bucket pair (§6).
    pub max_dupes: usize,
    /// Maximum chain length `Lmax` (§6.2). `None` means uncapped, as in the multiset
    /// experiments of §10.1.
    pub max_chain: Option<usize>,
    /// Maximum number of kick (evict-and-reinsert) rounds per insertion before the
    /// attempt is declared failed. Defaults to 500, the budget used throughout the
    /// cuckoo-filter literature; must be positive. Lowering it bounds insertion tail
    /// latency (and makes the `cuckoo_kick_depth` telemetry histogram directly
    /// checkable against the configured budget) at the cost of a lower achievable
    /// load factor.
    pub max_kicks: usize,
    /// Bits of the per-entry Bloom attribute sketch (§5.2); only used by the Bloom
    /// variant. The paper evaluates 4–24 bits.
    pub bloom_bits: usize,
    /// Number of hash functions for Bloom attribute sketches. The paper fixes this at
    /// 2 after finding "optimized" counts uniformly worse (§10.4).
    pub bloom_hashes: usize,
    /// Enable the small-value optimisation of §9 (store attribute values `< 2^|α|`
    /// exactly instead of hashing them).
    pub small_value_opt: bool,
    /// When `true`, an insertion failing with `KicksExhausted` doubles the filter
    /// (capacity-doubling growth, migrating entries by their stored fingerprints — no
    /// original keys needed) and retries transparently. Supported by the plain,
    /// chained and mixed variants; the Bloom variant ignores it.
    pub auto_grow: bool,
    /// Seed for the hash family; §10.1 averages runs over random salts.
    pub seed: u64,
}

impl Default for CcfParams {
    fn default() -> Self {
        Self {
            num_buckets: 1 << 16,
            entries_per_bucket: 6,
            fingerprint_bits: 12,
            attr_bits: 8,
            num_attrs: 1,
            max_dupes: 3,
            max_chain: None,
            max_kicks: 500,
            bloom_bits: 16,
            bloom_hashes: 2,
            small_value_opt: true,
            auto_grow: false,
            seed: 0,
        }
    }
}

impl CcfParams {
    /// The paper's "large" JOB-light configuration: 12-bit key fingerprints and 8-bit
    /// attribute fingerprints (§10.5).
    pub fn large(num_attrs: usize) -> Self {
        Self {
            fingerprint_bits: 12,
            attr_bits: 8,
            bloom_bits: 24,
            bloom_hashes: 4,
            num_attrs,
            ..Self::default()
        }
    }

    /// The paper's "small" JOB-light configuration: 7-bit key fingerprints and 4-bit
    /// attribute fingerprints, with 2 Bloom hash functions (§10.5).
    pub fn small(num_attrs: usize) -> Self {
        Self {
            fingerprint_bits: 7,
            attr_bits: 4,
            bloom_bits: 8,
            bloom_hashes: 2,
            num_attrs,
            ..Self::default()
        }
    }

    /// Size the filter for an expected number of occupied entries at a target load
    /// factor, following §8: choose `m` so that `m · b ≈ E[Z′] / β`.
    ///
    /// # Panics
    /// Panics if the target load factor is outside `(0, 1]`; use
    /// [`CcfParams::try_sized_for_entries`] (or the `CcfBuilder` facade) to get a
    /// [`ParamsError`] instead.
    pub fn sized_for_entries(self, expected_entries: usize, target_load_factor: f64) -> Self {
        self.try_sized_for_entries(expected_entries, target_load_factor)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`CcfParams::sized_for_entries`].
    pub fn try_sized_for_entries(
        mut self,
        expected_entries: usize,
        target_load_factor: f64,
    ) -> Result<Self, ParamsError> {
        if !(target_load_factor > 0.0 && target_load_factor <= 1.0) {
            return Err(ParamsError::TargetLoadOutOfRange {
                got: target_load_factor,
            });
        }
        if self.entries_per_bucket == 0 {
            return Err(ParamsError::ZeroEntriesPerBucket);
        }
        let slots = (expected_entries as f64 / target_load_factor).ceil() as usize;
        self.num_buckets = slots
            .div_ceil(self.entries_per_bucket)
            .next_power_of_two()
            .max(1);
        Ok(self)
    }

    /// Apply the `b ≈ 2d` rule of thumb from §8 for the configured `max_dupes`.
    pub fn with_rule_of_thumb_bucket_size(mut self) -> Self {
        self.entries_per_bucket = (2 * self.max_dupes).max(2);
        self
    }

    /// Enable transparent grow-and-retry on insertion failure.
    pub fn with_auto_grow(mut self) -> Self {
        self.auto_grow = true;
        self
    }

    /// Size of one entry in bits for a fingerprint-vector sketch: |κ| + #α·|α|.
    pub fn vector_entry_bits(&self) -> usize {
        self.fingerprint_bits as usize + self.num_attrs * self.attr_bits as usize
    }

    /// Size of one entry in bits for a Bloom attribute sketch: |κ| + bloom bits.
    pub fn bloom_entry_bits(&self) -> usize {
        self.fingerprint_bits as usize + self.bloom_bits
    }

    /// Size of one entry in bits for the mixed (conversion) variant: |κ| + #α·|α| + 1,
    /// the extra bit tracking whether the entry holds a Bloom filter (§6.1).
    pub fn mixed_entry_bits(&self) -> usize {
        self.vector_entry_bits() + 1
    }

    /// Bit budget available to a converted Bloom filter (§6.1):
    /// `d·s − 2(|κ| + ceil(log2 d))` where `s` is the single-entry size.
    pub fn conversion_bloom_bits(&self) -> usize {
        let s = self.mixed_entry_bits();
        let d = self.max_dupes;
        let header = 2
            * (self.fingerprint_bits as usize + usize::BITS as usize
                - (d.max(2) - 1).leading_zeros() as usize);
        (d * s).saturating_sub(header).max(4)
    }

    /// Validate parameter combinations, reporting the first impossible configuration
    /// as a typed [`ParamsError`]. This is what every `try_new` constructor and the
    /// `CcfBuilder` facade call; nothing on the construction path panics on bad
    /// parameters.
    pub fn try_validate(&self) -> Result<(), ParamsError> {
        if self.num_buckets == 0 {
            return Err(ParamsError::ZeroBuckets);
        }
        if self.entries_per_bucket == 0 {
            return Err(ParamsError::ZeroEntriesPerBucket);
        }
        if self.entries_per_bucket > usize::from(u8::MAX) {
            return Err(ParamsError::BucketTooWide {
                entries_per_bucket: self.entries_per_bucket,
            });
        }
        if !(1..=16).contains(&self.fingerprint_bits) {
            return Err(ParamsError::FingerprintBitsOutOfRange {
                got: self.fingerprint_bits,
            });
        }
        if !(1..=16).contains(&self.attr_bits) {
            return Err(ParamsError::AttrBitsOutOfRange {
                got: self.attr_bits,
            });
        }
        if self.max_dupes == 0 {
            return Err(ParamsError::ZeroMaxDupes);
        }
        if self.max_dupes > 2 * self.entries_per_bucket {
            return Err(ParamsError::MaxDupesExceedPair {
                max_dupes: self.max_dupes,
                pair_slots: 2 * self.entries_per_bucket,
            });
        }
        if self.bloom_hashes == 0 {
            return Err(ParamsError::ZeroBloomHashes);
        }
        if self.max_chain == Some(0) {
            return Err(ParamsError::ZeroMaxChain);
        }
        if self.max_kicks == 0 {
            return Err(ParamsError::ZeroMaxKicks);
        }
        Ok(())
    }

    /// Validate parameter combinations, panicking with a descriptive message on
    /// impossible configurations. A thin wrapper over [`CcfParams::try_validate`] for
    /// contexts (tests, experiment harnesses) where aborting is the right response.
    pub fn validate(&self) {
        self.try_validate().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Check a row's attribute vector against `num_attrs` — the guard every
    /// variant's insertion path runs before touching the table (and before any
    /// auto-grow retry, so an arity error can never trigger growth).
    pub fn check_arity(&self, attrs: &[u64]) -> Result<(), crate::outcome::InsertFailure> {
        if attrs.len() != self.num_attrs {
            return Err(crate::outcome::InsertFailure::AttrArityMismatch {
                expected: self.num_attrs,
                got: attrs.len(),
            });
        }
        Ok(())
    }

    /// [`CcfParams::check_arity`] for the deletion paths, reporting the mismatch as a
    /// [`crate::outcome::DeleteFailure`] so delete results stay a single error type.
    pub fn check_delete_arity(&self, attrs: &[u64]) -> Result<(), crate::outcome::DeleteFailure> {
        if attrs.len() != self.num_attrs {
            return Err(crate::outcome::DeleteFailure::AttrArityMismatch {
                expected: self.num_attrs,
                got: attrs.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper_recommendations() {
        let p = CcfParams::default();
        assert_eq!(p.max_dupes, 3);
        assert_eq!(p.entries_per_bucket, 6); // b = 2d
        assert_eq!(p.bloom_hashes, 2);
        assert!(!p.auto_grow, "growth is opt-in");
        assert!(CcfParams::default().with_auto_grow().auto_grow);
        p.validate();
    }

    #[test]
    fn large_and_small_presets_match_section_10_5() {
        let large = CcfParams::large(2);
        assert_eq!(large.fingerprint_bits, 12);
        assert_eq!(large.attr_bits, 8);
        let small = CcfParams::small(2);
        assert_eq!(small.fingerprint_bits, 7);
        assert_eq!(small.attr_bits, 4);
        assert_eq!(small.bloom_hashes, 2);
        large.validate();
        small.validate();
    }

    #[test]
    fn sized_for_entries_gives_enough_slots() {
        let p = CcfParams::default().sized_for_entries(100_000, 0.85);
        assert!(p.num_buckets * p.entries_per_bucket >= (100_000f64 / 0.85) as usize);
        assert!(p.num_buckets.is_power_of_two());
    }

    #[test]
    fn rule_of_thumb_sets_b_to_2d() {
        let p = CcfParams {
            max_dupes: 5,
            ..CcfParams::default()
        }
        .with_rule_of_thumb_bucket_size();
        assert_eq!(p.entries_per_bucket, 10);
    }

    #[test]
    fn entry_bit_formulas() {
        let p = CcfParams {
            fingerprint_bits: 12,
            attr_bits: 8,
            num_attrs: 2,
            bloom_bits: 20,
            ..CcfParams::default()
        };
        assert_eq!(p.vector_entry_bits(), 12 + 16);
        assert_eq!(p.bloom_entry_bits(), 12 + 20);
        assert_eq!(p.mixed_entry_bits(), 12 + 16 + 1);
    }

    #[test]
    fn conversion_bloom_budget_matches_algorithm_3() {
        // d = 3, |κ| = 12, #α = 2, |α| = 8 → s = 29, budget = 3·29 − 2·(12 + 2) = 59.
        let p = CcfParams {
            fingerprint_bits: 12,
            attr_bits: 8,
            num_attrs: 2,
            max_dupes: 3,
            ..CcfParams::default()
        };
        assert_eq!(p.conversion_bloom_bits(), 3 * 29 - 2 * (12 + 2));
    }

    #[test]
    #[should_panic(expected = "max_dupes")]
    fn validate_rejects_d_larger_than_pair() {
        CcfParams {
            max_dupes: 9,
            entries_per_bucket: 4,
            ..CcfParams::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "fingerprint_bits")]
    fn validate_rejects_wide_fingerprints() {
        CcfParams {
            fingerprint_bits: 32,
            ..CcfParams::default()
        }
        .validate();
    }

    /// One `ParamsError` case per `validate()` panic, in rule order.
    #[test]
    fn try_validate_mirrors_every_panic_as_a_typed_error() {
        let ok = CcfParams::default();
        assert_eq!(ok.try_validate(), Ok(()));
        let cases: Vec<(CcfParams, ParamsError)> = vec![
            (
                CcfParams {
                    num_buckets: 0,
                    ..ok
                },
                ParamsError::ZeroBuckets,
            ),
            (
                CcfParams {
                    entries_per_bucket: 0,
                    ..ok
                },
                ParamsError::ZeroEntriesPerBucket,
            ),
            (
                CcfParams {
                    entries_per_bucket: 256,
                    ..ok
                },
                ParamsError::BucketTooWide {
                    entries_per_bucket: 256,
                },
            ),
            (
                CcfParams {
                    fingerprint_bits: 0,
                    ..ok
                },
                ParamsError::FingerprintBitsOutOfRange { got: 0 },
            ),
            (
                CcfParams {
                    fingerprint_bits: 17,
                    ..ok
                },
                ParamsError::FingerprintBitsOutOfRange { got: 17 },
            ),
            (
                CcfParams {
                    attr_bits: 32,
                    ..ok
                },
                ParamsError::AttrBitsOutOfRange { got: 32 },
            ),
            (CcfParams { max_dupes: 0, ..ok }, ParamsError::ZeroMaxDupes),
            (
                CcfParams {
                    max_dupes: 9,
                    entries_per_bucket: 4,
                    ..ok
                },
                ParamsError::MaxDupesExceedPair {
                    max_dupes: 9,
                    pair_slots: 8,
                },
            ),
            (
                CcfParams {
                    bloom_hashes: 0,
                    ..ok
                },
                ParamsError::ZeroBloomHashes,
            ),
            (
                CcfParams {
                    max_chain: Some(0),
                    ..ok
                },
                ParamsError::ZeroMaxChain,
            ),
            (CcfParams { max_kicks: 0, ..ok }, ParamsError::ZeroMaxKicks),
        ];
        for (params, expected) in cases {
            assert_eq!(params.try_validate(), Err(expected));
            // The panicking wrapper formats the same error, so `should_panic`
            // substrings keep matching.
            let msg = std::panic::catch_unwind(|| params.validate())
                .expect_err("validate() must panic where try_validate errors");
            let msg = msg
                .downcast_ref::<String>()
                .expect("panic payload is the formatted ParamsError");
            assert_eq!(msg, &expected.to_string());
        }
    }

    #[test]
    fn try_sized_for_entries_rejects_bad_load_factors() {
        for bad in [0.0, -0.5, 1.01, f64::NAN] {
            let err = CcfParams::default()
                .try_sized_for_entries(1000, bad)
                .unwrap_err();
            assert!(matches!(err, ParamsError::TargetLoadOutOfRange { .. }));
        }
        let sized = CcfParams::default()
            .try_sized_for_entries(100_000, 0.85)
            .unwrap();
        assert_eq!(
            sized.num_buckets,
            CcfParams::default()
                .sized_for_entries(100_000, 0.85)
                .num_buckets
        );
    }

    #[test]
    #[should_panic(expected = "target load factor")]
    fn sized_for_entries_panics_on_bad_load_factor() {
        let _ = CcfParams::default().sized_for_entries(1000, 0.0);
    }
}
