//! JOB-light experiments: Figures 6–10, Tables 2–3 and the §10.6 aggregates.
//!
//! All experiments share the same pipeline: generate the synthetic IMDB dataset
//! (statistics of Tables 2–3), generate the 70-query workload, build per-table filter
//! banks for the configurations under test, and evaluate every (query, base-table)
//! instance with `ccf_join::evaluate_workload`. The individual figures are different
//! views of the resulting [`InstanceResult`]s:
//!
//! * Figure 6 — per-instance reduction factors, large and small filters, ordered by the
//!   exact-semijoin (a, c) or cuckoo-filter (b, d) baseline.
//! * Figure 7 — the same against the *after-binning* exact baseline.
//! * Figure 8 — aggregate reduction factor and FPR versus total filter size, across a
//!   sweep of parameter settings.
//! * Figure 9 — reduction factor grouped by the number of joins.
//! * Figure 10 — per-(table, column) CCF size relative to the raw data.
//! * Tables 2–3 — the dataset statistics themselves.

use ccf_core::sizing::{size_for_profile, DuplicationProfile, VariantKind};
use ccf_core::{AnyCcf, CcfParams, ConditionalFilter};
use ccf_join::filters::{FilterBank, FilterConfig};
use ccf_join::reduction::{evaluate_workload, InstanceResult, WorkloadSummary};
use ccf_workloads::imdb::{spec_of, SyntheticImdb, TableId};
use ccf_workloads::joblight::JobLightWorkload;

/// The experiment context shared by every JOB-light figure.
#[derive(Debug)]
pub struct JobLightContext {
    /// The synthetic dataset.
    pub db: SyntheticImdb,
    /// The 70-query workload.
    pub workload: JobLightWorkload,
}

impl JobLightContext {
    /// Generate dataset and workload at `1/scale` of the real row counts.
    pub fn generate(scale: u64, seed: u64) -> Self {
        let db = SyntheticImdb::generate(scale, seed);
        let workload = JobLightWorkload::generate(&db, seed);
        Self { db, workload }
    }

    /// Restrict the workload to its first `n` queries (for quick runs).
    pub fn with_query_limit(mut self, n: usize) -> Self {
        self.workload.queries.truncate(n);
        self
    }
}

/// The per-instance results for one filter configuration, plus the bank's size.
#[derive(Debug, Clone)]
pub struct ConfigResults {
    /// Human-readable label ("Chained CCF (large)", ...).
    pub label: String,
    /// The variant evaluated.
    pub variant: VariantKind,
    /// Total CCF size of the bank in bits.
    pub total_ccf_bits: usize,
    /// Per-instance counts.
    pub instances: Vec<InstanceResult>,
    /// Aggregate summary.
    pub summary: WorkloadSummary,
}

/// Evaluate one filter configuration over the workload.
pub fn evaluate_config(ctx: &JobLightContext, label: &str, config: FilterConfig) -> ConfigResults {
    let bank = FilterBank::build(&ctx.db, config);
    let instances = evaluate_workload(&ctx.db, &ctx.workload, &bank);
    let summary = WorkloadSummary::from_instances(&instances);
    ConfigResults {
        label: label.to_string(),
        variant: config.variant,
        total_ccf_bits: bank.total_ccf_bits(),
        instances,
        summary,
    }
}

/// Figure 6 / Figure 7 data: evaluate the three CCF variants at one size ("large" or
/// "small") so their per-instance reduction factors can be plotted against the exact
/// and cuckoo-filter baselines (which are embedded in every [`InstanceResult`]).
pub fn figure6_configs(large: bool) -> Vec<(&'static str, FilterConfig)> {
    let make = |variant| {
        if large {
            FilterConfig::large(variant)
        } else {
            FilterConfig::small(variant)
        }
    };
    vec![
        ("Bloom CCF", make(VariantKind::Bloom)),
        ("Mixed CCF", make(VariantKind::Mixed)),
        ("Chained CCF", make(VariantKind::Chained)),
    ]
}

/// One point of the Figure 8 sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Configuration label.
    pub label: String,
    /// Variant.
    pub variant: VariantKind,
    /// Attribute size |α| (or Bloom bits for the Bloom variant).
    pub attr_size: u32,
    /// Total size of all CCFs in megabytes.
    pub total_mb: f64,
    /// Aggregate reduction factor.
    pub reduction_factor: f64,
    /// FPR versus the binned exact semijoin.
    pub fpr: f64,
}

/// The Figure 8 parameter sweep: every variant at both the small and large settings
/// (the paper sweeps |κ| ∈ {7, 8, 12}, |α| ∈ {4, 8}, Bloom bits 4–24; the presets cover
/// the corners that define the figure's envelope).
pub fn figure8_sweep(ctx: &JobLightContext) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    let fingerprint_sizes = [7u32, 8, 12];
    let attr_sizes = [4u32, 8];
    for variant in [VariantKind::Bloom, VariantKind::Mixed, VariantKind::Chained] {
        for &fp_bits in &fingerprint_sizes {
            for &attr_bits in &attr_sizes {
                let config = FilterConfig {
                    variant,
                    fingerprint_bits: fp_bits,
                    attr_bits,
                    bloom_bits: (attr_bits as usize) * 3,
                    bloom_hashes: 2,
                    max_dupes: 3,
                    seed: 0xF18,
                };
                let label = format!("{variant:?} |κ|={fp_bits} |α|={attr_bits}");
                let results = evaluate_config(ctx, &label, config);
                points.push(SweepPoint {
                    label,
                    variant,
                    attr_size: attr_bits,
                    total_mb: results.total_ccf_bits as f64 / 8.0 / 1024.0 / 1024.0,
                    reduction_factor: results.summary.rf_ccf,
                    fpr: results.summary.fpr_vs_binned,
                });
            }
        }
    }
    points
}

/// One row of Figure 9: reduction factors grouped by the number of joins in the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinCountRow {
    /// Number of joins.
    pub num_joins: usize,
    /// Number of instances in the group.
    pub instances: usize,
    /// Aggregate optimal (exact semijoin) reduction factor.
    pub rf_optimal: f64,
    /// Aggregate CCF reduction factor.
    pub rf_ccf: f64,
    /// Aggregate reduction factor with predicate-blind key filters.
    pub rf_no_predicate: f64,
}

/// Group a configuration's instances by join count (Figure 9).
pub fn figure9_rows(results: &ConfigResults) -> Vec<JoinCountRow> {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<usize, Vec<&InstanceResult>> = BTreeMap::new();
    for r in &results.instances {
        groups.entry(r.num_joins).or_default().push(r);
    }
    groups
        .into_iter()
        .map(|(num_joins, rs)| {
            let sum =
                |f: fn(&InstanceResult) -> usize| -> f64 { rs.iter().map(|r| f(r) as f64).sum() };
            let m_pred = sum(|r| r.m_predicate).max(1.0);
            JoinCountRow {
                num_joins,
                instances: rs.len(),
                rf_optimal: sum(|r| r.m_exact) / m_pred,
                rf_ccf: sum(|r| r.m_ccf) / m_pred,
                rf_no_predicate: sum(|r| r.m_key_filter) / m_pred,
            }
        })
        .collect()
}

/// One bar of Figure 10: a per-(table, predicate-column) CCF's size relative to the raw
/// data it summarizes.
#[derive(Debug, Clone)]
pub struct RelativeSizeRow {
    /// Table.
    pub table: TableId,
    /// Predicate column name.
    pub column: &'static str,
    /// Variant.
    pub variant: VariantKind,
    /// CCF size / raw data size (the paper's y-axis).
    pub relative_size: f64,
}

/// Build single-column CCFs (one per row of Tables 2–3, as in Figure 10) and report
/// their size relative to the raw data.
pub fn figure10_rows(db: &SyntheticImdb, seed: u64) -> Vec<RelativeSizeRow> {
    let mut rows = Vec::new();
    for &table_id in &TableId::ALL {
        let table = db.table(table_id);
        let spec = spec_of(table_id);
        for (ci, col_spec) in spec.columns.iter().enumerate() {
            // Raw data for this (key, column) projection, per the §10.7 accounting.
            let key_bits = 32usize;
            let attr_bits_raw = if col_spec.cardinality > 256 { 32 } else { 8 };
            let raw_bits = table.num_rows() * (key_bits + attr_bits_raw);

            // Distinct values per key for this single column.
            use std::collections::{HashMap, HashSet};
            let mut per_key: HashMap<u64, HashSet<u64>> = HashMap::new();
            for row in 0..table.num_rows() {
                per_key
                    .entry(table.join_keys[row])
                    .or_default()
                    .insert(table.columns[ci][row]);
            }
            let profile = DuplicationProfile::from_counts(per_key.values().map(|s| s.len()));

            for variant in [VariantKind::Bloom, VariantKind::Chained, VariantKind::Mixed] {
                // Single-attribute CCFs: an 8-bit Bloom sketch per entry matches the
                // per-attribute budget of the fingerprint-vector variants.
                let base = CcfParams {
                    fingerprint_bits: 12,
                    attr_bits: 8,
                    num_attrs: 1,
                    max_dupes: 3,
                    bloom_bits: 8,
                    bloom_hashes: 2,
                    seed,
                    ..CcfParams::default()
                };
                let params = size_for_profile(variant, &profile, base);
                let mut filter = AnyCcf::new(variant, params);
                for row in 0..table.num_rows() {
                    let _ = filter.insert_row(table.join_keys[row], &[table.columns[ci][row]]);
                }
                rows.push(RelativeSizeRow {
                    table: table_id,
                    column: col_spec.name,
                    variant,
                    relative_size: filter.size_bits() as f64 / raw_bits as f64,
                });
            }
        }
    }
    rows
}

/// The "Overall" entry of Figure 10 for one variant: total CCF bits over total raw
/// bits across all (table, column) pairs.
pub fn figure10_overall(rows: &[RelativeSizeRow], variant: VariantKind) -> f64 {
    let filtered: Vec<&RelativeSizeRow> = rows.iter().filter(|r| r.variant == variant).collect();
    if filtered.is_empty() {
        return 0.0;
    }
    filtered.iter().map(|r| r.relative_size).sum::<f64>() / filtered.len() as f64
}

/// One row of Table 2 as measured on the synthetic dataset.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Table name.
    pub table: &'static str,
    /// Rows in the synthetic table.
    pub rows: usize,
    /// Predicate column name.
    pub column: &'static str,
    /// Distinct values observed in the column.
    pub cardinality: usize,
    /// Cardinality in the real data (for comparison).
    pub paper_cardinality: u64,
}

/// Measure Table 2 on the synthetic dataset.
pub fn table2_rows(db: &SyntheticImdb) -> Vec<Table2Row> {
    let mut out = Vec::new();
    for &id in &TableId::ALL {
        let table = db.table(id);
        let spec = spec_of(id);
        for (ci, col_spec) in spec.columns.iter().enumerate() {
            let mut values: Vec<u64> = table.columns[ci].clone();
            values.sort_unstable();
            values.dedup();
            out.push(Table2Row {
                table: id.name(),
                rows: table.num_rows(),
                column: col_spec.name,
                cardinality: values.len(),
                paper_cardinality: col_spec.cardinality,
            });
        }
    }
    out
}

/// One row of Table 3 as measured on the synthetic dataset.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Table name.
    pub table: &'static str,
    /// Predicate column name.
    pub column: &'static str,
    /// Measured average distinct values per join key.
    pub avg_dupes: f64,
    /// Measured maximum distinct values per join key.
    pub max_dupes: usize,
    /// The paper's values (for comparison).
    pub paper_avg: f64,
    /// The paper's maximum.
    pub paper_max: u64,
}

/// Measure Table 3 on the synthetic dataset.
pub fn table3_rows(db: &SyntheticImdb) -> Vec<Table3Row> {
    use std::collections::{HashMap, HashSet};
    let mut out = Vec::new();
    for &id in &TableId::ALL {
        let table = db.table(id);
        let spec = spec_of(id);
        for (ci, col_spec) in spec.columns.iter().enumerate() {
            let mut per_key: HashMap<u64, HashSet<u64>> = HashMap::new();
            for row in 0..table.num_rows() {
                per_key
                    .entry(table.join_keys[row])
                    .or_default()
                    .insert(table.columns[ci][row]);
            }
            let counts: Vec<usize> = per_key.values().map(|s| s.len()).collect();
            let avg = counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64;
            let max = counts.iter().copied().max().unwrap_or(0);
            out.push(Table3Row {
                table: id.name(),
                column: col_spec.name,
                avg_dupes: avg,
                max_dupes: max,
                paper_avg: col_spec.avg_dupes,
                paper_max: col_spec.max_dupes,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> JobLightContext {
        JobLightContext::generate(1024, 71).with_query_limit(10)
    }

    #[test]
    fn evaluate_config_produces_consistent_summaries() {
        let ctx = ctx();
        let results = evaluate_config(
            &ctx,
            "small chained",
            FilterConfig::small(VariantKind::Chained),
        );
        assert!(!results.instances.is_empty());
        assert!(results.total_ccf_bits > 0);
        // The aggregate RF sits between the exact floor and the key-only baseline.
        assert!(results.summary.rf_ccf >= results.summary.rf_exact - 1e-9);
        assert!(results.summary.rf_ccf <= results.summary.rf_key_filter + 1e-9);
    }

    #[test]
    fn large_filters_are_at_least_as_accurate_as_small() {
        let ctx = ctx();
        let small = evaluate_config(&ctx, "small", FilterConfig::small(VariantKind::Chained));
        let large = evaluate_config(&ctx, "large", FilterConfig::large(VariantKind::Chained));
        assert!(large.total_ccf_bits > small.total_ccf_bits);
        assert!(large.summary.rf_ccf <= small.summary.rf_ccf + 0.02);
    }

    #[test]
    fn figure9_rows_cover_all_instances_and_show_compounding() {
        let ctx = ctx();
        let results = evaluate_config(&ctx, "chained", FilterConfig::large(VariantKind::Chained));
        let rows = figure9_rows(&results);
        let total: usize = rows.iter().map(|r| r.instances).sum();
        assert_eq!(total, results.instances.len());
        for row in &rows {
            assert!(row.rf_optimal <= row.rf_ccf + 1e-9);
            assert!(row.rf_ccf <= row.rf_no_predicate + 1e-9);
        }
    }

    #[test]
    fn figure10_ccfs_are_smaller_than_raw_data() {
        let db = SyntheticImdb::generate(1024, 71);
        let rows = figure10_rows(&db, 71);
        assert_eq!(rows.len(), 8 * 3); // 8 (table, column) pairs × 3 variants
        for r in &rows {
            assert!(
                r.relative_size < 1.0,
                "{:?}.{} ({:?}) not smaller than raw data: {}",
                r.table,
                r.column,
                r.variant,
                r.relative_size
            );
        }
        // Bloom collapses duplicates, so it wins on the most duplicated table.
        let mk_bloom = rows
            .iter()
            .find(|r| r.table == TableId::MovieKeyword && r.variant == VariantKind::Bloom)
            .unwrap();
        let mk_chained = rows
            .iter()
            .find(|r| r.table == TableId::MovieKeyword && r.variant == VariantKind::Chained)
            .unwrap();
        assert!(mk_bloom.relative_size < mk_chained.relative_size);
    }

    #[test]
    fn table_2_and_3_track_the_paper_statistics() {
        let db = SyntheticImdb::generate(512, 71);
        let t2 = table2_rows(&db);
        assert_eq!(t2.len(), 8);
        for row in &t2 {
            assert!(row.cardinality > 0);
            assert!(
                row.cardinality as u64 <= row.paper_cardinality.max(140),
                "{}.{} cardinality {} exceeds the real data's {}",
                row.table,
                row.column,
                row.cardinality,
                row.paper_cardinality
            );
        }
        let t3 = table3_rows(&db);
        assert_eq!(t3.len(), 8);
        for row in &t3 {
            assert!(
                row.max_dupes as u64 <= row.paper_max,
                "{}.{}: max dupes {} exceeds the paper's {}",
                row.table,
                row.column,
                row.max_dupes,
                row.paper_max
            );
            if row.paper_avg > 2.0 {
                assert!(
                    row.avg_dupes > 1.0,
                    "{}.{} lost its duplication structure",
                    row.table,
                    row.column
                );
            }
        }
    }
}
