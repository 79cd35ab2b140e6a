//! Reduction-factor evaluation for the JOB-light experiments (§10.3–10.6).
//!
//! For every (query, base-table) instance the evaluation compares how many base-table
//! rows survive a scan under different reduction strategies:
//!
//! * `m_predicate` — rows matching only the base table's own predicates (the
//!   denominator of every reduction factor);
//! * `m_exact` — rows additionally surviving an *exact* semijoin against every other
//!   table (predicates applied exactly): the best any filter could do;
//! * `m_exact_binned` — the same with range predicates binned (Figure 7's baseline:
//!   how much of the gap is due to binning rather than sketching);
//! * `m_key_filter` — rows surviving pre-built *key-only* cuckoo filters of the other
//!   tables (the state-of-the-art baseline that ignores predicates);
//! * `m_ccf` — rows surviving the other tables' CCFs queried with
//!   (join key, that table's predicates).
//!
//! The reduction factor of a strategy is `m_strategy / m_predicate` (§10.3, eq. 9);
//! 1.0 means no reduction. [`WorkloadSummary`] aggregates instances the way §10.6 does
//! (total surviving rows over total predicate-qualified rows) and computes the CCF's
//! FPR relative to the exact baselines.

use ccf_core::Predicate;
use ccf_workloads::imdb::{SyntheticImdb, TableId};
use ccf_workloads::joblight::{JobLightQuery, JobLightWorkload};

use crate::bridge::{ccf_predicate_for, row_matches_table_predicates};
use crate::filters::FilterBank;
use crate::semijoin::exact_semijoin_keys;

/// A bank of per-table probe-able filters. The reduction pipeline is generic over
/// this, so the same instance accounting runs against the sequential [`FilterBank`]
/// and the sharded bank of [`crate::sharded`] (whose probes fan out over worker
/// threads internally). Both probes must be bit-identical to a per-key loop — the
/// contract the batch APIs guarantee.
pub trait ProbeBank {
    /// Key-only membership probes against `table`'s filter (the predicate-blind
    /// "current state of the art" strategy).
    fn key_probe(&self, table: TableId, keys: &[u64]) -> Vec<bool>;
    /// Predicate-qualified probes against `table`'s CCF.
    fn ccf_probe(&self, table: TableId, pred: &Predicate, keys: &[u64]) -> Vec<bool>;
}

impl ProbeBank for FilterBank {
    fn key_probe(&self, table: TableId, keys: &[u64]) -> Vec<bool> {
        let t = self.table(table);
        t.probes.key_baseline.add(keys.len() as u64);
        t.key_filter.contains_batch(keys)
    }
    fn ccf_probe(&self, table: TableId, pred: &Predicate, keys: &[u64]) -> Vec<bool> {
        self.query_batch(table, pred, keys)
    }
}

/// Per-(query, base-table) instance counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceResult {
    /// The query this instance belongs to.
    pub query_id: usize,
    /// The base table being scanned.
    pub base_table: TableId,
    /// Number of joins in the query.
    pub num_joins: usize,
    /// Rows matching the base table's own predicates.
    pub m_predicate: usize,
    /// Rows surviving the exact semijoin (lower bound on every filter strategy).
    pub m_exact: usize,
    /// Rows surviving the exact semijoin with binned range predicates.
    pub m_exact_binned: usize,
    /// Rows surviving the key-only cuckoo-filter baseline.
    pub m_key_filter: usize,
    /// Rows surviving the CCF strategy.
    pub m_ccf: usize,
}

impl InstanceResult {
    fn rf(m: usize, m_pred: usize) -> f64 {
        if m_pred == 0 {
            0.0
        } else {
            m as f64 / m_pred as f64
        }
    }

    /// Reduction factor of the exact semijoin.
    pub fn rf_exact(&self) -> f64 {
        Self::rf(self.m_exact, self.m_predicate)
    }

    /// Reduction factor of the exact semijoin after binning.
    pub fn rf_exact_binned(&self) -> f64 {
        Self::rf(self.m_exact_binned, self.m_predicate)
    }

    /// Reduction factor of the key-only cuckoo-filter baseline.
    pub fn rf_key_filter(&self) -> f64 {
        Self::rf(self.m_key_filter, self.m_predicate)
    }

    /// Reduction factor of the CCF strategy.
    pub fn rf_ccf(&self) -> f64 {
        Self::rf(self.m_ccf, self.m_predicate)
    }
}

/// Evaluate every (query, base-table) instance of a workload against a filter bank.
pub fn evaluate_workload(
    db: &SyntheticImdb,
    workload: &JobLightWorkload,
    bank: &FilterBank,
) -> Vec<InstanceResult> {
    evaluate_workload_with(db, workload, bank)
}

/// Evaluate every instance of a workload against any [`ProbeBank`] implementation.
pub fn evaluate_workload_with<B: ProbeBank>(
    db: &SyntheticImdb,
    workload: &JobLightWorkload,
    bank: &B,
) -> Vec<InstanceResult> {
    workload
        .queries
        .iter()
        .flat_map(|query| evaluate_query_with(db, query, bank))
        .collect()
}

/// Evaluate the instances of a single query (one per table occurrence with at least one
/// other table to reduce by) against any [`ProbeBank`].
pub fn evaluate_query_with<B: ProbeBank>(
    db: &SyntheticImdb,
    query: &JobLightQuery,
    bank: &B,
) -> Vec<InstanceResult> {
    let mut out = Vec::new();
    for base in &query.tables {
        if query.tables.len() < 2 {
            continue;
        }
        let table = db.table(base.table);
        let others: Vec<_> = query.other_tables(base.table);
        let other_preds: Vec<_> = others
            .iter()
            .map(|qt| (qt.table, ccf_predicate_for(qt)))
            .collect();

        // `None` only when the query has no other table — excluded by the guard above.
        let (Some(exact_keys), Some(exact_binned_keys)) = (
            exact_semijoin_keys(db, query, base, false),
            exact_semijoin_keys(db, query, base, true),
        ) else {
            continue;
        };

        // Pass 1: evaluate the base table's own predicates and the exact baselines,
        // collecting the qualifying keys for the filter probes.
        let mut m_predicate = 0usize;
        let mut m_exact = 0usize;
        let mut m_exact_binned = 0usize;
        let mut probe_keys: Vec<u64> = Vec::new();

        for row in 0..table.num_rows() {
            if !row_matches_table_predicates(table, row, base) {
                continue;
            }
            m_predicate += 1;
            let key = table.join_keys[row];
            if exact_keys.contains(&key) {
                m_exact += 1;
            }
            if exact_binned_keys.contains(&key) {
                m_exact_binned += 1;
            }
            probe_keys.push(key);
        }

        // Pass 2: batched probes — one filter at a time, keeping only the keys still
        // alive after each filter, so a selective early filter shrinks the work for
        // the rest (the batched analogue of the per-row `.all()` short-circuit). The
        // surviving-key count is bit-identical to probing every filter per row.
        let keep_survivors = |mut keys: Vec<u64>, hits: Vec<bool>| -> Vec<u64> {
            let mut alive = hits.iter().copied();
            keys.retain(|_| alive.next().unwrap_or(false));
            keys
        };
        let mut key_survivors = probe_keys.clone();
        for qt in &others {
            if key_survivors.is_empty() {
                break;
            }
            let hits = bank.key_probe(qt.table, &key_survivors);
            key_survivors = keep_survivors(key_survivors, hits);
        }
        let mut ccf_survivors = probe_keys;
        for (tid, pred) in &other_preds {
            if ccf_survivors.is_empty() {
                break;
            }
            let hits = bank.ccf_probe(*tid, pred, &ccf_survivors);
            ccf_survivors = keep_survivors(ccf_survivors, hits);
        }
        let m_key_filter = key_survivors.len();
        let m_ccf = ccf_survivors.len();

        out.push(InstanceResult {
            query_id: query.id,
            base_table: base.table,
            num_joins: query.num_joins(),
            m_predicate,
            m_exact,
            m_exact_binned,
            m_key_filter,
            m_ccf,
        });
    }
    out
}

/// Aggregate results over all instances, the way §10.6 reports them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSummary {
    /// Number of evaluated instances.
    pub instances: usize,
    /// Aggregate reduction factor of the exact semijoin (best possible).
    pub rf_exact: f64,
    /// Aggregate reduction factor of the exact semijoin after binning.
    pub rf_exact_binned: f64,
    /// Aggregate reduction factor of the key-only cuckoo-filter baseline.
    pub rf_key_filter: f64,
    /// Aggregate reduction factor of the CCF.
    pub rf_ccf: f64,
    /// CCF false-positive rate relative to the exact semijoin: surviving rows that the
    /// exact semijoin rejects, over rows the exact semijoin rejects.
    pub fpr_vs_exact: f64,
    /// CCF false-positive rate relative to the *binned* exact semijoin (the §10.6
    /// number that isolates sketching error from binning error).
    pub fpr_vs_binned: f64,
}

impl WorkloadSummary {
    /// Aggregate a set of instance results.
    pub fn from_instances(results: &[InstanceResult]) -> Self {
        let sum =
            |f: fn(&InstanceResult) -> usize| -> f64 { results.iter().map(|r| f(r) as f64).sum() };
        let m_pred = sum(|r| r.m_predicate).max(1.0);
        let m_exact = sum(|r| r.m_exact);
        let m_exact_binned = sum(|r| r.m_exact_binned);
        let m_key = sum(|r| r.m_key_filter);
        let m_ccf = sum(|r| r.m_ccf);
        let rejected_exact = (m_pred - m_exact).max(1.0);
        let rejected_binned = (m_pred - m_exact_binned).max(1.0);
        Self {
            instances: results.len(),
            rf_exact: m_exact / m_pred,
            rf_exact_binned: m_exact_binned / m_pred,
            rf_key_filter: m_key / m_pred,
            rf_ccf: m_ccf / m_pred,
            fpr_vs_exact: ((m_ccf - m_exact) / rejected_exact).max(0.0),
            fpr_vs_binned: ((m_ccf - m_exact_binned) / rejected_binned).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccf_core::sizing::VariantKind;
    use ccf_core::ConditionalFilter;
    use ccf_workloads::imdb::SyntheticImdb;

    use crate::filters::FilterConfig;

    fn setup(variant: VariantKind) -> (SyntheticImdb, JobLightWorkload, FilterBank) {
        let db = SyntheticImdb::generate(512, 41);
        let wl = JobLightWorkload::generate(&db, 41);
        let bank = FilterBank::build(&db, FilterConfig::large(variant));
        (db, wl, bank)
    }

    fn subset_workload(wl: &JobLightWorkload, n: usize) -> JobLightWorkload {
        JobLightWorkload {
            queries: wl.queries.iter().take(n).cloned().collect(),
        }
    }

    #[test]
    fn invariants_hold_for_every_instance() {
        let (db, wl, bank) = setup(VariantKind::Chained);
        let results = evaluate_workload(&db, &subset_workload(&wl, 12), &bank);
        assert!(!results.is_empty());
        for r in &results {
            // Exact semijoin is the floor; every sketch-based strategy sits between it
            // and the predicate-only count. The CCF never loses a true match.
            assert!(r.m_exact <= r.m_exact_binned, "{r:?}");
            assert!(
                r.m_exact <= r.m_ccf,
                "CCF returned fewer rows than exact: {r:?}"
            );
            assert!(r.m_exact <= r.m_key_filter, "{r:?}");
            assert!(r.m_ccf <= r.m_predicate, "{r:?}");
            assert!(r.m_key_filter <= r.m_predicate, "{r:?}");
            assert!(r.rf_exact() <= 1.0 && r.rf_ccf() <= 1.0);
        }
    }

    #[test]
    fn ccf_beats_key_only_filters_in_aggregate() {
        let (db, wl, bank) = setup(VariantKind::Chained);
        let results = evaluate_workload(&db, &subset_workload(&wl, 15), &bank);
        let summary = WorkloadSummary::from_instances(&results);
        // Figure 6b/6d: CCFs are substantially better than predicate-blind filters.
        assert!(
            summary.rf_ccf < summary.rf_key_filter,
            "CCF RF {} should beat key-only RF {}",
            summary.rf_ccf,
            summary.rf_key_filter
        );
        // And never better than the exact semijoin.
        assert!(summary.rf_ccf >= summary.rf_exact - 1e-9);
    }

    #[test]
    fn all_variants_respect_the_exact_floor() {
        for variant in [VariantKind::Bloom, VariantKind::Mixed] {
            let (db, wl, bank) = setup(variant);
            let results = evaluate_workload(&db, &subset_workload(&wl, 8), &bank);
            for r in &results {
                assert!(r.m_exact <= r.m_ccf, "{variant:?}: {r:?}");
            }
        }
    }

    #[test]
    fn batched_probe_counts_match_a_per_key_reference() {
        // The production path probes filters in batches; this reference re-derives
        // m_key_filter and m_ccf with the straightforward per-row, per-filter loop and
        // must agree exactly.
        let (db, wl, bank) = setup(VariantKind::Chained);
        let results = evaluate_workload(&db, &subset_workload(&wl, 10), &bank);
        for query in &subset_workload(&wl, 10).queries {
            for base in &query.tables {
                if query.tables.len() < 2 {
                    continue;
                }
                let table = db.table(base.table);
                let others: Vec<_> = query.other_tables(base.table);
                let other_preds: Vec<_> = others
                    .iter()
                    .map(|qt| (qt.table, crate::bridge::ccf_predicate_for(qt)))
                    .collect();
                let mut m_key_filter = 0usize;
                let mut m_ccf = 0usize;
                for row in 0..table.num_rows() {
                    if !crate::bridge::row_matches_table_predicates(table, row, base) {
                        continue;
                    }
                    let key = table.join_keys[row];
                    if others
                        .iter()
                        .all(|qt| bank.table(qt.table).key_filter.contains(key))
                    {
                        m_key_filter += 1;
                    }
                    if other_preds
                        .iter()
                        .all(|(tid, pred)| bank.table(*tid).ccf.query(key, pred))
                    {
                        m_ccf += 1;
                    }
                }
                let result = results
                    .iter()
                    .find(|r| r.query_id == query.id && r.base_table == base.table)
                    .expect("instance evaluated");
                assert_eq!(result.m_key_filter, m_key_filter, "{result:?}");
                assert_eq!(result.m_ccf, m_ccf, "{result:?}");
            }
        }
    }

    #[test]
    fn summary_fprs_are_rates() {
        let (db, wl, bank) = setup(VariantKind::Chained);
        let results = evaluate_workload(&db, &subset_workload(&wl, 10), &bank);
        let s = WorkloadSummary::from_instances(&results);
        assert!((0.0..=1.0).contains(&s.fpr_vs_exact));
        assert!((0.0..=1.0).contains(&s.fpr_vs_binned));
        assert!(s.fpr_vs_binned <= s.fpr_vs_exact + 1e-9);
        assert_eq!(s.instances, results.len());
    }
}
