//! The event-telemetry bundle the cuckoo structures record into.
//!
//! Each structure ([`crate::CuckooFilter`], [`crate::CuckooHashTable`]) owns a
//! [`FilterInstruments`], which starts disabled
//! (`Default`) and is resolved against a live registry by the structure's
//! `attach_telemetry` method. Resolution happens **once at attach time** — the hot
//! paths touch pre-resolved handles, never the registry — and a disabled bundle costs
//! one branch per recorded event.
//!
//! All series share metric names and are distinguished by a `structure` label (plus
//! whatever labels the caller adds: `variant`, `shard`, …), so one
//! exposition shows the kick-depth distribution of every cuckoo structure in a
//! process side by side.

use ccf_telemetry::{buckets, Counter, Histogram, Telemetry};

/// Upper bound of the kick-depth histogram's finite buckets. Fixed (rather than
/// derived from `max_kicks`) so every structure's series share one bucket layout;
/// configs with a larger kick budget spill into the `+Inf` bucket.
pub const KICK_DEPTH_BUCKET_MAX: u64 = 512;

/// Pre-resolved instruments for one cuckoo structure.
///
/// Cloning a structure clones the bundle, so clones keep recording into the same
/// series — the same sharing semantics as cloning any `Arc`-backed handle.
#[derive(Debug, Clone, Default)]
pub struct FilterInstruments {
    /// Successful insertions (one per stored fingerprint / entry).
    pub inserts: Counter,
    /// Insertions that failed (kick budget exhausted or saturated pair).
    pub insert_failures: Counter,
    /// Kick (evict-and-reinsert) rounds per placement attempt; 0 = direct placement.
    pub kick_depth: Histogram,
    /// Capacity doublings.
    pub grows: Counter,
    /// Failed kick chains undone entry-by-entry (structures with rollback semantics).
    pub rollbacks: Counter,
    /// Insertions refused without kicking because the bucket pair was already
    /// saturated with copies of the fingerprint (the §4.3 duplicate cap).
    pub pair_saturated_failfasts: Counter,
    /// Insertions into a degenerate self-paired bucket (ℓ′ == ℓ) refused because no
    /// resident entry could be relocated.
    pub self_paired_failfasts: Counter,
    /// Successful deletions.
    pub deletes: Counter,
}

impl FilterInstruments {
    /// A bundle that records nothing (what every structure starts with).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Resolve the bundle against `telemetry`, labelling every series with
    /// `structure` plus the caller's extra labels.
    pub fn resolve(telemetry: &Telemetry, structure: &str, extra: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(&str, &str)> = vec![("structure", structure)];
        labels.extend_from_slice(extra);
        let labels = labels.as_slice();
        Self {
            inserts: telemetry.counter("cuckoo_inserts_total", "Successful insertions", labels),
            insert_failures: telemetry.counter(
                "cuckoo_insert_failures_total",
                "Insertions that failed after exhausting kicks or hitting a saturated pair",
                labels,
            ),
            kick_depth: telemetry.histogram(
                "cuckoo_kick_depth",
                "Kick rounds per placement attempt (0 = direct placement)",
                &buckets::log2(KICK_DEPTH_BUCKET_MAX),
                labels,
            ),
            grows: telemetry.counter("cuckoo_grows_total", "Capacity doublings", labels),
            rollbacks: telemetry.counter(
                "cuckoo_rollbacks_total",
                "Failed kick chains undone entry-by-entry",
                labels,
            ),
            pair_saturated_failfasts: telemetry.counter(
                "cuckoo_pair_saturated_failfasts_total",
                "Insertions refused fast: bucket pair already held its maximum fingerprint copies",
                labels,
            ),
            self_paired_failfasts: telemetry.counter(
                "cuckoo_self_paired_failfasts_total",
                "Insertions refused fast: degenerate self-paired bucket with no movable victim",
                labels,
            ),
            deletes: telemetry.counter("cuckoo_deletes_total", "Successful deletions", labels),
        }
    }

    /// Whether this bundle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inserts.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_bundle_is_inert() {
        let b = FilterInstruments::disabled();
        assert!(!b.is_enabled());
        b.inserts.inc();
        b.kick_depth.observe(3);
        assert_eq!(b.inserts.get(), 0);
        assert_eq!(b.kick_depth.count(), 0);
    }

    #[test]
    fn resolve_registers_labelled_series() {
        let t = Telemetry::enabled();
        let b = FilterInstruments::resolve(&t, "cuckoo_filter", &[("shard", "3")]);
        assert!(b.is_enabled());
        b.inserts.add(2);
        b.kick_depth.observe(1);
        let snap = t.snapshot();
        assert_eq!(
            snap.counter(
                "cuckoo_inserts_total",
                &[("structure", "cuckoo_filter"), ("shard", "3")]
            ),
            Some(2)
        );
        assert_eq!(
            snap.histogram(
                "cuckoo_kick_depth",
                &[("structure", "cuckoo_filter"), ("shard", "3")]
            )
            .unwrap()
            .count(),
            1
        );
    }

    #[test]
    fn two_structures_share_metric_names_but_not_series() {
        let t = Telemetry::enabled();
        let a = FilterInstruments::resolve(&t, "cuckoo_filter", &[]);
        let b = FilterInstruments::resolve(&t, "hash_table", &[]);
        a.inserts.inc();
        b.inserts.add(5);
        let snap = t.snapshot();
        assert_eq!(
            snap.counter("cuckoo_inserts_total", &[("structure", "cuckoo_filter")]),
            Some(1)
        );
        assert_eq!(
            snap.counter("cuckoo_inserts_total", &[("structure", "hash_table")]),
            Some(5)
        );
        assert_eq!(snap.counter_sum("cuckoo_inserts_total"), 6);
    }
}
