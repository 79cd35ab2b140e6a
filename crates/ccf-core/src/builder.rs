//! The fallible construction facade.
//!
//! [`CcfBuilder`] replaces ad-hoc `CcfParams { .. }` literals plus a panicking
//! `validate()` with a typed, fallible pipeline: pick a variant, describe the
//! workload (`expected_rows`, `target_load`), tune whatever §8 defaults need
//! overriding, and `build()` — every impossible combination comes back as a
//! [`ParamsError`] value instead of a panic, so a serving process can reject a bad
//! configuration request without dying.
//!
//! ```
//! use ccf_core::{AnyCcf, ConditionalFilter, VariantKind};
//!
//! let mut filter = AnyCcf::builder()
//!     .variant(VariantKind::Mixed)
//!     .num_attrs(2)
//!     .expected_rows(10_000)
//!     .target_load(0.85)
//!     .auto_grow()
//!     .seed(42)
//!     .build()?;
//! filter.insert_row("movie-1492", &[7, 1])?;
//! assert!(filter.contains_key("movie-1492"));
//! # Ok::<(), ccf_core::CcfError>(())
//! ```

use ccf_telemetry::Telemetry;

use crate::params::{CcfParams, ParamsError};
use crate::sizing::VariantKind;
use crate::variant::AnyCcf;

/// A fallible builder for [`AnyCcf`] filters (and for validated [`CcfParams`], via
/// [`CcfBuilder::build_params`] — which is how the sharded service layer shares the
/// facade). Start from [`AnyCcf::builder`].
#[derive(Debug, Clone)]
pub struct CcfBuilder {
    variant: VariantKind,
    params: CcfParams,
    expected_rows: Option<usize>,
    target_load: f64,
    telemetry: Telemetry,
}

impl Default for CcfBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CcfBuilder {
    /// A builder with the paper's defaults: the mixed (conversion) variant — the
    /// evaluation's best all-rounder (§10.4) — d = 3, b = 6, 12-bit key fingerprints,
    /// 8-bit attribute fingerprints, one attribute column, and a 0.85 target load
    /// factor when sizing from [`CcfBuilder::expected_rows`].
    pub fn new() -> Self {
        Self {
            variant: VariantKind::Mixed,
            params: CcfParams::default(),
            expected_rows: None,
            target_load: 0.85,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Which variant to build (default: [`VariantKind::Mixed`]).
    ///
    /// Churn-heavy deployments (sliding windows, rolling caches) should check
    /// [`VariantKind::supports_deletion`] here: the Bloom variant cannot delete at
    /// all, and the mixed default refuses deletes for keys whose rows were converted
    /// — [`VariantKind::Chained`] keeps every key deletable.
    pub fn variant(mut self, kind: VariantKind) -> Self {
        self.variant = kind;
        self
    }

    /// Start from an explicit parameter set (e.g. [`CcfParams::large`]); later builder
    /// calls override individual fields.
    pub fn params(mut self, params: CcfParams) -> Self {
        self.params = params;
        self
    }

    /// Size the filter for this many expected distinct (key, attribute-vector) rows
    /// at the target load factor (§8: `m · b ≈ E[Z′] / β`). Without it the default
    /// `num_buckets` (or the last [`CcfBuilder::num_buckets`] call) is used.
    pub fn expected_rows(mut self, rows: usize) -> Self {
        self.expected_rows = Some(rows);
        self
    }

    /// Target load factor β used with [`CcfBuilder::expected_rows`] (default 0.85).
    /// Values outside `(0, 1]` are reported by `build()` as
    /// [`ParamsError::TargetLoadOutOfRange`].
    pub fn target_load(mut self, load: f64) -> Self {
        self.target_load = load;
        self
    }

    /// Enable transparent grow-and-retry on kick exhaustion.
    pub fn auto_grow(mut self) -> Self {
        self.params.auto_grow = true;
        self
    }

    /// Seed for the salted hash family.
    pub fn seed(mut self, seed: u64) -> Self {
        self.params.seed = seed;
        self
    }

    /// Number of attribute columns stored per row.
    pub fn num_attrs(mut self, num_attrs: usize) -> Self {
        self.params.num_attrs = num_attrs;
        self
    }

    /// Number of buckets `m` (rounded up to a power of two on construction);
    /// overridden by [`CcfBuilder::expected_rows`] sizing when both are given.
    pub fn num_buckets(mut self, m: usize) -> Self {
        self.params.num_buckets = m;
        self
    }

    /// Entries per bucket `b` (§8's rule of thumb is `b ≈ 2d`).
    pub fn entries_per_bucket(mut self, b: usize) -> Self {
        self.params.entries_per_bucket = b;
        self
    }

    /// Key fingerprint width |κ| in bits (1..=16).
    pub fn fingerprint_bits(mut self, bits: u32) -> Self {
        self.params.fingerprint_bits = bits;
        self
    }

    /// Attribute fingerprint width |α| in bits (1..=16).
    pub fn attr_bits(mut self, bits: u32) -> Self {
        self.params.attr_bits = bits;
        self
    }

    /// Maximum duplicates `d` per bucket pair, applying §8's `b ≈ 2d` rule of thumb
    /// for the bucket size (call [`CcfBuilder::entries_per_bucket`] afterwards to
    /// override).
    pub fn max_dupes(mut self, d: usize) -> Self {
        self.params.max_dupes = d;
        self.params.entries_per_bucket = (2 * d).max(2);
        self
    }

    /// Maximum chain length `Lmax` for the chained variant (`None` = uncapped).
    pub fn max_chain(mut self, max_chain: Option<usize>) -> Self {
        self.params.max_chain = max_chain;
        self
    }

    /// Maximum kick (evict-and-reinsert) rounds per insertion before the attempt is
    /// declared failed (default 500; `build()` rejects 0 as
    /// [`ParamsError::ZeroMaxKicks`]).
    pub fn max_kicks(mut self, max_kicks: usize) -> Self {
        self.params.max_kicks = max_kicks;
        self
    }

    /// Record the built filter's events into `telemetry`
    /// ([`crate::CcfInstruments`]: insert/query/delete outcomes, kick depths,
    /// grows, rollbacks — labelled `variant="..."`). The handle is an `Arc` clone;
    /// the default disabled handle keeps every recording to a single branch, so
    /// untouched callers pay nothing.
    pub fn telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// Bits per Bloom attribute sketch (Bloom variant).
    pub fn bloom_bits(mut self, bits: usize) -> Self {
        self.params.bloom_bits = bits;
        self
    }

    /// Hash functions per Bloom attribute sketch.
    pub fn bloom_hashes(mut self, hashes: usize) -> Self {
        self.params.bloom_hashes = hashes;
        self
    }

    /// Enable/disable the §9 small-value optimisation (default on).
    pub fn small_value_opt(mut self, enabled: bool) -> Self {
        self.params.small_value_opt = enabled;
        self
    }

    /// Resolve sizing and validate, returning the final parameter set without
    /// constructing a filter — the entry point shared with service layers that build
    /// their own filters (e.g. one parameter set per shard).
    pub fn build_params(&self) -> Result<CcfParams, ParamsError> {
        let mut params = self.params;
        if let Some(rows) = self.expected_rows {
            params = params.try_sized_for_entries(rows.max(1), self.target_load)?;
        } else if !(self.target_load > 0.0 && self.target_load <= 1.0) {
            return Err(ParamsError::TargetLoadOutOfRange {
                got: self.target_load,
            });
        }
        params.try_validate()?;
        Ok(params)
    }

    /// The variant the builder will construct.
    pub fn variant_kind(&self) -> VariantKind {
        self.variant
    }

    /// An unconstrained predicate spanning the builder's configured attribute
    /// columns — the builder-side equivalent of [`crate::Predicate::for_params`],
    /// usable before (or without) building the filter.
    pub fn predicate(&self) -> crate::Predicate {
        crate::Predicate::for_params(&self.params)
    }

    /// Build the filter (attaching telemetry when [`CcfBuilder::telemetry`] was
    /// given an enabled handle).
    pub fn build(&self) -> Result<AnyCcf, ParamsError> {
        let mut filter = AnyCcf::try_new(self.variant, self.build_params()?)?;
        if self.telemetry.is_enabled() {
            filter.attach_telemetry(&self.telemetry, &[]);
        }
        Ok(filter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::ConditionalFilter;

    #[test]
    fn the_motivating_call_chain_builds_a_sized_mixed_filter() {
        let filter = AnyCcf::builder()
            .variant(VariantKind::Mixed)
            .expected_rows(1_000_000)
            .target_load(0.85)
            .auto_grow()
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(filter.kind(), VariantKind::Mixed);
        let p = filter.params();
        assert!(p.auto_grow);
        assert_eq!(p.seed, 7);
        assert!(
            p.num_buckets * p.entries_per_bucket >= (1_000_000f64 / 0.85) as usize,
            "sizing must honor the target load"
        );
        assert!(p.num_buckets.is_power_of_two());
    }

    #[test]
    fn builder_defaults_build_and_match_paper_defaults() {
        let filter = CcfBuilder::new().build().unwrap();
        assert_eq!(filter.kind(), VariantKind::Mixed);
        assert_eq!(filter.params().max_dupes, 3);
        assert_eq!(filter.params().entries_per_bucket, 6);
    }

    #[test]
    fn every_knob_reaches_the_params() {
        let p = AnyCcf::builder()
            .variant(VariantKind::Bloom)
            .num_attrs(3)
            .num_buckets(100) // rounded up by the constructor, not the builder
            .entries_per_bucket(4)
            .fingerprint_bits(7)
            .attr_bits(4)
            .max_chain(Some(9))
            .bloom_bits(24)
            .bloom_hashes(4)
            .small_value_opt(false)
            .seed(0xABCD)
            .build_params()
            .unwrap();
        assert_eq!(
            (p.num_attrs, p.num_buckets, p.entries_per_bucket),
            (3, 100, 4)
        );
        assert_eq!((p.fingerprint_bits, p.attr_bits), (7, 4));
        assert_eq!(p.max_chain, Some(9));
        assert_eq!((p.bloom_bits, p.bloom_hashes), (24, 4));
        assert!(!p.small_value_opt);
        assert_eq!(p.seed, 0xABCD);
    }

    #[test]
    fn max_dupes_applies_the_rule_of_thumb() {
        let p = AnyCcf::builder().max_dupes(5).build_params().unwrap();
        assert_eq!(p.max_dupes, 5);
        assert_eq!(p.entries_per_bucket, 10);
        let p = AnyCcf::builder()
            .max_dupes(5)
            .entries_per_bucket(12)
            .build_params()
            .unwrap();
        assert_eq!(p.entries_per_bucket, 12, "explicit b overrides the rule");
    }

    #[test]
    fn bad_configurations_come_back_as_values_not_panics() {
        assert_eq!(
            AnyCcf::builder().fingerprint_bits(0).build().unwrap_err(),
            ParamsError::FingerprintBitsOutOfRange { got: 0 }
        );
        assert!(matches!(
            AnyCcf::builder()
                .expected_rows(1000)
                .target_load(1.5)
                .build()
                .unwrap_err(),
            ParamsError::TargetLoadOutOfRange { .. }
        ));
        assert!(matches!(
            AnyCcf::builder().target_load(-1.0).build().unwrap_err(),
            ParamsError::TargetLoadOutOfRange { .. }
        ));
        assert_eq!(
            AnyCcf::builder()
                .variant(VariantKind::Bloom)
                .bloom_bits(0)
                .build()
                .unwrap_err(),
            ParamsError::ZeroBloomBits
        );
        assert_eq!(
            AnyCcf::builder()
                .variant(VariantKind::Mixed)
                .max_dupes(4)
                .entries_per_bucket(3)
                .build()
                .unwrap_err(),
            ParamsError::ConversionGroupTooWide {
                max_dupes: 4,
                entries_per_bucket: 3
            }
        );
    }

    #[test]
    fn built_filters_delete_when_the_variant_supports_it() {
        // The builder is the construction path services use; a churn-capable caller
        // picks a deletable variant up front and the built filter honors it.
        let deletable = VariantKind::Chained;
        assert!(deletable.supports_deletion());
        let mut filter = AnyCcf::builder()
            .variant(deletable)
            .num_attrs(2)
            .expected_rows(1000)
            .seed(5)
            .build()
            .unwrap();
        filter.insert_row("evt-1", &[1, 2]).unwrap();
        assert_eq!(filter.delete_row("evt-1", &[1, 2]), Ok(true));
        assert!(!filter.contains_key("evt-1"));
        // The Bloom variant advertises its inability before anything is built.
        assert!(!VariantKind::Bloom.supports_deletion());
        let mut bloom = AnyCcf::builder()
            .variant(VariantKind::Bloom)
            .num_attrs(2)
            .build()
            .unwrap();
        bloom.insert_row("evt-1", &[1, 2]).unwrap();
        assert_eq!(
            bloom.delete_row("evt-1", &[1, 2]),
            Err(crate::outcome::DeleteFailure::Unsupported)
        );
    }

    #[test]
    fn builder_predicate_tracks_the_configured_arity() {
        let builder = AnyCcf::builder().num_attrs(3);
        let pred = builder.predicate().and_eq(2, 7);
        assert_eq!(pred.num_attrs(), 3);
        let filter = builder.build().unwrap();
        assert_eq!(filter.predicate().num_attrs(), 3);
    }

    #[test]
    fn presets_compose_with_overrides() {
        let filter = AnyCcf::builder()
            .variant(VariantKind::Chained)
            .params(CcfParams::small(2))
            .expected_rows(5_000)
            .build()
            .unwrap();
        assert_eq!(filter.params().fingerprint_bits, 7);
        assert_eq!(filter.params().num_attrs, 2);
        assert!(filter.params().num_buckets * filter.params().entries_per_bucket >= 5_000);
    }
}
