//! The event-telemetry bundle the CCF variants record into.
//!
//! Mirrors [`ccf_cuckoo::instruments::FilterInstruments`] one layer up: every variant
//! owns a [`CcfInstruments`] that starts disabled and is resolved against a live
//! [`Telemetry`] registry by `attach_telemetry` (directly, through
//! [`crate::AnyCcf::attach_telemetry`], or via [`crate::CcfBuilder::telemetry`]).
//! Resolution happens once at attach time; the hot paths touch pre-resolved handles,
//! and a disabled bundle costs one branch per recorded event.
//!
//! Series are labelled `variant="plain|chained|bloom|mixed"` plus whatever extra
//! labels the caller supplies (`shard`, …). Insert and delete results are
//! broken out by `outcome`/`kind` so conversion and refusal traffic is visible
//! without log scraping.

use ccf_cuckoo::instruments::KICK_DEPTH_BUCKET_MAX;
use ccf_telemetry::{buckets, Counter, Histogram, Telemetry};

use crate::outcome::{DeleteFailure, InsertFailure, InsertOutcome};

/// Pre-resolved instruments for one CCF variant instance.
///
/// Cloning a filter clones the bundle; clones keep recording into the same series.
#[derive(Debug, Clone, Default)]
pub struct CcfInstruments {
    /// `ccf_inserts_total{outcome="inserted"}` — rows stored as new entries.
    pub insert_inserted: Counter,
    /// `ccf_inserts_total{outcome="deduplicated"}` — exact (κ, α) duplicates absorbed.
    pub insert_deduplicated: Counter,
    /// `ccf_inserts_total{outcome="merged"}` — rows merged into an existing Bloom
    /// sketch (Bloom variant, or a mixed variant's converted group).
    pub insert_merged: Counter,
    /// `ccf_inserts_total{outcome="converted"}` — rows that triggered a §6.1 Bloom
    /// conversion (mixed variant only).
    pub insert_converted: Counter,
    /// `ccf_inserts_total{outcome="dropped_chain_cap"}` — rows discarded at the
    /// chain cap `Lmax` (chained variant only; still query-covered per Theorem 3).
    pub insert_dropped_chain_cap: Counter,
    /// `ccf_insert_failures_total{kind="kicks_exhausted"}`.
    pub insert_fail_kicks: Counter,
    /// `ccf_insert_failures_total{kind="attr_arity_mismatch"}`.
    pub insert_fail_arity: Counter,
    /// Kick rounds per placement attempt (0 = direct placement).
    pub kick_depth: Histogram,
    /// Chain pairs walked per insertion (chained variant; disabled elsewhere so
    /// non-chaining variants emit no dead series).
    pub chain_walk_depth: Histogram,
    /// Capacity doublings.
    pub grows: Counter,
    /// Failed kick chains undone entry-by-entry.
    pub rollbacks: Counter,
    /// Predicate queries answered.
    pub queries: Counter,
    /// Predicate queries that returned true.
    pub query_hits: Counter,
    /// `ccf_deletes_total{result="removed"}` — deletions that removed a copy.
    pub delete_removed: Counter,
    /// `ccf_deletes_total{result="missing"}` — deletions that found no match.
    pub delete_missing: Counter,
    /// `ccf_delete_failures_total{kind="unsupported"}` (Bloom variant).
    pub delete_fail_unsupported: Counter,
    /// `ccf_delete_failures_total{kind="converted_group"}` (mixed variant).
    pub delete_fail_converted_group: Counter,
    /// `ccf_delete_failures_total{kind="attr_arity_mismatch"}`.
    pub delete_fail_arity: Counter,
}

impl CcfInstruments {
    /// A bundle that records nothing (what every filter starts with).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Resolve the bundle against `telemetry`, labelling every series with
    /// `variant` plus the caller's extra labels. The chain-walk histogram stays
    /// disabled; [`CcfInstruments::resolve_chained`] enables it.
    pub fn resolve(telemetry: &Telemetry, variant: &str, extra: &[(&str, &str)]) -> Self {
        let base: Vec<(&str, &str)> = std::iter::once(("variant", variant))
            .chain(extra.iter().copied())
            .collect();
        fn with<'a>(
            base: &[(&'a str, &'a str)],
            pairs: &[(&'a str, &'a str)],
        ) -> Vec<(&'a str, &'a str)> {
            base.iter().copied().chain(pairs.iter().copied()).collect()
        }
        let inserts = "Rows absorbed, by outcome";
        let insert_fails = "Insertions that failed, by kind";
        let deletes = "Deletions answered, by result";
        let delete_fails = "Deletions refused, by kind";
        Self {
            insert_inserted: telemetry.counter(
                "ccf_inserts_total",
                inserts,
                &with(&base, &[("outcome", "inserted")]),
            ),
            insert_deduplicated: telemetry.counter(
                "ccf_inserts_total",
                inserts,
                &with(&base, &[("outcome", "deduplicated")]),
            ),
            insert_merged: telemetry.counter(
                "ccf_inserts_total",
                inserts,
                &with(&base, &[("outcome", "merged")]),
            ),
            insert_converted: telemetry.counter(
                "ccf_inserts_total",
                inserts,
                &with(&base, &[("outcome", "converted")]),
            ),
            insert_dropped_chain_cap: telemetry.counter(
                "ccf_inserts_total",
                inserts,
                &with(&base, &[("outcome", "dropped_chain_cap")]),
            ),
            insert_fail_kicks: telemetry.counter(
                "ccf_insert_failures_total",
                insert_fails,
                &with(&base, &[("kind", "kicks_exhausted")]),
            ),
            insert_fail_arity: telemetry.counter(
                "ccf_insert_failures_total",
                insert_fails,
                &with(&base, &[("kind", "attr_arity_mismatch")]),
            ),
            kick_depth: telemetry.histogram(
                "ccf_kick_depth",
                "Kick rounds per placement attempt (0 = direct placement)",
                &buckets::log2(KICK_DEPTH_BUCKET_MAX),
                &base,
            ),
            chain_walk_depth: Histogram::disabled(),
            grows: telemetry.counter("ccf_grows_total", "Capacity doublings", &base),
            rollbacks: telemetry.counter(
                "ccf_rollbacks_total",
                "Failed kick chains undone entry-by-entry",
                &base,
            ),
            queries: telemetry.counter("ccf_queries_total", "Predicate queries answered", &base),
            query_hits: telemetry.counter(
                "ccf_query_hits_total",
                "Predicate queries that returned true",
                &base,
            ),
            delete_removed: telemetry.counter(
                "ccf_deletes_total",
                deletes,
                &with(&base, &[("result", "removed")]),
            ),
            delete_missing: telemetry.counter(
                "ccf_deletes_total",
                deletes,
                &with(&base, &[("result", "missing")]),
            ),
            delete_fail_unsupported: telemetry.counter(
                "ccf_delete_failures_total",
                delete_fails,
                &with(&base, &[("kind", "unsupported")]),
            ),
            delete_fail_converted_group: telemetry.counter(
                "ccf_delete_failures_total",
                delete_fails,
                &with(&base, &[("kind", "converted_group")]),
            ),
            delete_fail_arity: telemetry.counter(
                "ccf_delete_failures_total",
                delete_fails,
                &with(&base, &[("kind", "attr_arity_mismatch")]),
            ),
        }
    }

    /// [`CcfInstruments::resolve`] plus the chain-walk histogram, for the chained
    /// variant.
    pub fn resolve_chained(telemetry: &Telemetry, variant: &str, extra: &[(&str, &str)]) -> Self {
        let mut bundle = Self::resolve(telemetry, variant, extra);
        let labels: Vec<(&str, &str)> = std::iter::once(("variant", variant))
            .chain(extra.iter().copied())
            .collect();
        bundle.chain_walk_depth = telemetry.histogram(
            "ccf_chain_walk_depth",
            "Chained bucket pairs walked per insertion (0 = primary pair)",
            &buckets::log2(KICK_DEPTH_BUCKET_MAX),
            &labels,
        );
        bundle
    }

    /// Whether this bundle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.insert_inserted.is_enabled()
    }

    /// Tally an insertion result by outcome / failure kind.
    pub fn record_insert(&self, result: &Result<InsertOutcome, InsertFailure>) {
        match result {
            Ok(InsertOutcome::Inserted) => self.insert_inserted.inc(),
            Ok(InsertOutcome::Deduplicated) => self.insert_deduplicated.inc(),
            Ok(InsertOutcome::Merged) => self.insert_merged.inc(),
            Ok(InsertOutcome::Converted) => self.insert_converted.inc(),
            Ok(InsertOutcome::DroppedChainCap) => self.insert_dropped_chain_cap.inc(),
            Err(InsertFailure::KicksExhausted { .. }) => self.insert_fail_kicks.inc(),
            Err(InsertFailure::AttrArityMismatch { .. }) => self.insert_fail_arity.inc(),
        }
    }

    /// Tally a deletion result by result / failure kind.
    pub fn record_delete(&self, result: &Result<bool, DeleteFailure>) {
        match result {
            Ok(true) => self.delete_removed.inc(),
            Ok(false) => self.delete_missing.inc(),
            Err(DeleteFailure::Unsupported) => self.delete_fail_unsupported.inc(),
            Err(DeleteFailure::ConvertedGroup) => self.delete_fail_converted_group.inc(),
            Err(DeleteFailure::AttrArityMismatch { .. }) => self.delete_fail_arity.inc(),
        }
    }

    /// Tally one predicate query.
    pub fn record_query(&self, hit: bool) {
        self.queries.inc();
        if hit {
            self.query_hits.inc();
        }
    }

    /// Tally a batch of predicate queries in two counter bumps (not per key).
    pub fn record_query_batch(&self, results: &[bool]) {
        if self.queries.is_enabled() {
            self.queries.add(results.len() as u64);
            self.query_hits
                .add(results.iter().filter(|&&hit| hit).count() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_bundle_is_inert() {
        let b = CcfInstruments::disabled();
        assert!(!b.is_enabled());
        b.record_insert(&Ok(InsertOutcome::Inserted));
        b.record_query(true);
        assert_eq!(b.insert_inserted.get(), 0);
        assert_eq!(b.queries.get(), 0);
    }

    #[test]
    fn outcomes_route_to_their_own_series() {
        let t = Telemetry::enabled();
        let b = CcfInstruments::resolve(&t, "mixed", &[]);
        b.record_insert(&Ok(InsertOutcome::Inserted));
        b.record_insert(&Ok(InsertOutcome::Converted));
        b.record_insert(&Ok(InsertOutcome::Converted));
        b.record_insert(&Err(InsertFailure::AttrArityMismatch {
            expected: 2,
            got: 1,
        }));
        b.record_delete(&Err(DeleteFailure::ConvertedGroup));
        b.record_query_batch(&[true, false, true]);
        let snap = t.snapshot();
        let v = [("variant", "mixed")];
        assert_eq!(
            snap.counter(
                "ccf_inserts_total",
                &[("variant", "mixed"), ("outcome", "converted")]
            ),
            Some(2)
        );
        assert_eq!(
            snap.counter(
                "ccf_insert_failures_total",
                &[("variant", "mixed"), ("kind", "attr_arity_mismatch")]
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter(
                "ccf_delete_failures_total",
                &[("variant", "mixed"), ("kind", "converted_group")]
            ),
            Some(1)
        );
        assert_eq!(snap.counter("ccf_queries_total", &v), Some(3));
        assert_eq!(snap.counter("ccf_query_hits_total", &v), Some(2));
        assert_eq!(snap.counter_sum("ccf_inserts_total"), 3);
    }

    #[test]
    fn only_the_chained_resolution_emits_chain_walk_series() {
        let t = Telemetry::enabled();
        let plain = CcfInstruments::resolve(&t, "plain", &[]);
        let chained = CcfInstruments::resolve_chained(&t, "chained", &[]);
        plain.chain_walk_depth.observe(3);
        chained.chain_walk_depth.observe(3);
        let snap = t.snapshot();
        assert!(snap
            .histogram("ccf_chain_walk_depth", &[("variant", "plain")])
            .is_none());
        assert_eq!(
            snap.histogram("ccf_chain_walk_depth", &[("variant", "chained")])
                .unwrap()
                .count(),
            1
        );
    }
}
