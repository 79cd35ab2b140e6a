//! Sharded build + probe path for JOB-light filter banks.
//!
//! A [`ShardedFilterBank`] is the concurrent counterpart of
//! [`FilterBank`](crate::filters::FilterBank): per table
//! it holds a [`ShardedCcf`] instead of a single filter, so the bank is *built* in
//! parallel (tables fan out over threads, each table's rows absorbed via the sharded
//! batch-insert path) and *probed* in parallel (the [`ProbeBank`] impl routes probe
//! batches through the sharded batch kernels, which fan out over per-shard workers).
//! Shards are sized for their keyspace slice with `auto_grow` enabled, so a skewed
//! table cannot fail the build — a hot shard just doubles under its own lock.
//!
//! Reduction-factor semantics: the key-only strategy probes the same sharded CCF with
//! key-only queries, so `m_key_filter` keeps its "predicate-blind filter" meaning
//! while sharing the CCF's storage (a sharded deployment would not maintain a second
//! bank). The CCF strategy is unchanged. Both probes stay bit-identical to per-key
//! loops, so the instance accounting is exactly as reproducible as the sequential
//! path.

use ccf_core::{CcfParams, DeleteFailure, FilterKey, Predicate};
use ccf_shard::ShardedCcf;
use ccf_workloads::imdb::{SyntheticImdb, SyntheticTable, TableId};
use ccf_workloads::joblight::JobLightWorkload;

use ccf_telemetry::Telemetry;

use crate::bridge::{ccf_attrs_into, production_year_binning};
use crate::filters::{bank_build_timer, FilterConfig, ProbeCounters};
use crate::reduction::{evaluate_workload_with, InstanceResult, ProbeBank};

/// How a [`ShardedFilterBank`] is partitioned and parallelised.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Shards per table filter.
    pub num_shards: usize,
    /// Worker-thread cap for batch operations *within* one table's filter, and for
    /// the cross-table build fan-out.
    pub threads: usize,
}

impl ShardConfig {
    /// A sensible default: shard and thread counts matching the machine's
    /// parallelism, capped at 8.
    pub fn for_machine() -> Self {
        let p = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8);
        Self {
            num_shards: p.max(1),
            threads: p.max(1),
        }
    }
}

/// One table's sharded filter.
#[derive(Debug)]
pub struct ShardedTableFilters {
    /// Which table the filter summarizes.
    pub table: TableId,
    /// The sharded CCF over (movie_id, predicate columns).
    pub ccf: ShardedCcf,
    /// Rows no shard could absorb. With `auto_grow` shards this is zero unless a row
    /// hits the §4.3 duplicate cap, which growth cannot lift.
    pub failed_rows: usize,
    /// Probe counters for this table (disabled unless the bank was built with
    /// [`ShardedFilterBank::build_with_telemetry`]).
    pub(crate) probes: ProbeCounters,
}

/// Sharded filters for every table of the dataset.
#[derive(Debug)]
pub struct ShardedFilterBank {
    /// The filter configuration (variant, fingerprint widths, ...).
    pub config: FilterConfig,
    /// The sharding configuration.
    pub shard_config: ShardConfig,
    /// Per-table filters in [`TableId::ALL`] order.
    pub tables: Vec<ShardedTableFilters>,
}

impl ShardedFilterBank {
    /// Build sharded filters for every table, fanning the per-table builds out over
    /// up to `shard_config.threads` workers (via the shared
    /// [`ccf_shard::fan_out_indexed`] primitive). When the cross-table build is
    /// already parallel, each table's batch inserts run single-threaded — otherwise
    /// the two fan-out levels would oversubscribe the machine with up to `threads²`
    /// workers for no added parallelism.
    pub fn build(db: &SyntheticImdb, config: FilterConfig, shard_config: ShardConfig) -> Self {
        Self::build_with_telemetry(db, config, shard_config, &Telemetry::disabled())
    }

    /// As [`ShardedFilterBank::build`], with telemetry: per-table build timers
    /// (`ccf_join_bank_build_ns{bank="sharded",table=…}`), per-shard filter
    /// instruments (each table's [`ShardedCcf`] attaches under `table` + `shard`
    /// labels), and probe-key counters on the bank's batch probe entry points.
    pub fn build_with_telemetry(
        db: &SyntheticImdb,
        config: FilterConfig,
        shard_config: ShardConfig,
        telemetry: &Telemetry,
    ) -> Self {
        let ids = TableId::ALL;
        let workers = shard_config.threads.clamp(1, ids.len());
        let insert_threads = if workers > 1 { 1 } else { shard_config.threads };
        let mut built = ccf_shard::fan_out_indexed(ids.len(), workers, |t| {
            Some(Self::build_table(
                db.table(ids[t]),
                config,
                shard_config,
                insert_threads,
                telemetry,
            ))
        });
        built.sort_by_key(|(t, _)| *t);
        Self {
            config,
            shard_config,
            tables: built.into_iter().map(|(_, filters)| filters).collect(),
        }
    }

    fn build_table(
        table: &SyntheticTable,
        config: FilterConfig,
        shard_config: ShardConfig,
        insert_threads: usize,
        telemetry: &Telemetry,
    ) -> ShardedTableFilters {
        let labels = [("bank", "sharded"), ("table", table.id.name())];
        let _timer = bank_build_timer(telemetry, &labels);
        // Start from the sequential sizing, give each shard its keyspace slice (the
        // variants round shard bucket counts up to powers of two, so total capacity
        // never shrinks), and let auto_grow absorb routing imbalance.
        let full = config.params_for(table);
        let shard_params = CcfParams {
            num_buckets: full
                .num_buckets
                .div_ceil(shard_config.num_shards)
                .next_power_of_two(),
            ..full
        }
        .with_auto_grow();
        // Insert with `insert_threads` (1 when the cross-table build already fans
        // out), then hand the filter to probing with the full thread budget.
        let mut ccf = ShardedCcf::new(config.variant, shard_params, shard_config.num_shards)
            .with_threads(insert_threads);
        if telemetry.is_enabled() {
            ccf.attach_telemetry(telemetry, &labels);
        }
        // Every row's attributes in one flat buffer, sliced per row.
        let (width, binning) = (table.columns.len(), production_year_binning());
        let mut flat = Vec::with_capacity(table.num_rows() * width);
        for row in 0..table.num_rows() {
            ccf_attrs_into(table, row, &binning, &mut flat);
        }
        let rows: Vec<(u64, &[u64])> = (0..table.num_rows())
            .map(|row| (table.join_keys[row], &flat[row * width..(row + 1) * width]))
            .collect();
        let failed_rows = ccf
            .insert_batch(&rows)
            .iter()
            .filter(|o| o.is_err())
            .count();
        ccf.set_threads(shard_config.threads);
        ShardedTableFilters {
            table: table.id,
            ccf,
            failed_rows,
            probes: ProbeCounters::resolve(telemetry, &labels),
        }
    }

    /// The sharded filters for one table. Panics if `id` is not in the bank —
    /// banks are built over a closed table set, so an unknown id is caller error.
    pub fn table(&self, id: TableId) -> &ShardedTableFilters {
        self.tables
            .iter()
            .find(|t| t.table == id)
            .unwrap_or_else(|| panic!("filter bank has no table {id:?}"))
    }

    /// Total serialized size of all sharded CCFs, in bits.
    pub fn total_ccf_bits(&self) -> usize {
        self.tables.iter().map(|t| t.ccf.size_bits()).sum()
    }

    /// Total rows no shard could absorb.
    pub fn total_failed_rows(&self) -> usize {
        self.tables.iter().map(|t| t.failed_rows).sum()
    }

    /// Batched key-only probe of one table's sharded CCF with typed keys (any
    /// [`FilterKey`]).
    pub fn contains_key_batch<K: FilterKey>(&self, id: TableId, keys: &[K]) -> Vec<bool> {
        let t = self.table(id);
        t.probes.contains_key.add(keys.len() as u64);
        t.ccf.contains_key_batch(keys)
    }

    /// Batched predicate probe of one table's sharded CCF with typed keys.
    pub fn query_batch<K: FilterKey>(
        &self,
        id: TableId,
        pred: &Predicate,
        keys: &[K],
    ) -> Vec<bool> {
        let t = self.table(id);
        t.probes.query.add(keys.len() as u64);
        t.ccf.query_batch(keys, pred)
    }

    /// Evict one row from a table's sharded CCF, write-locking only the owning shard
    /// — the maintenance path for rolling datasets probed concurrently (the sharded
    /// bank has no separate key-only baseline to retire; key-only probes share the
    /// CCF's storage). Same result contract as [`ccf_shard::ShardedCcf::delete_row`].
    pub fn evict_row<K: FilterKey>(
        &self,
        id: TableId,
        key: K,
        attrs: &[u64],
    ) -> Result<bool, DeleteFailure> {
        self.table(id).ccf.delete_row(key, attrs)
    }

    /// Evict one copy of a key from a table's sharded CCF (see
    /// [`ShardedFilterBank::evict_row`]).
    pub fn evict_key<K: FilterKey>(&self, id: TableId, key: K) -> Result<bool, DeleteFailure> {
        self.table(id).ccf.delete_key(key)
    }

    /// Batched eviction of rows from one table's sharded CCF: routed per shard and
    /// bit-identical to a sequential [`ShardedFilterBank::evict_row`] loop.
    pub fn evict_row_batch<K, A>(
        &self,
        id: TableId,
        rows: &[(K, A)],
    ) -> Vec<Result<bool, DeleteFailure>>
    where
        K: FilterKey + Sync,
        A: AsRef<[u64]> + Sync,
    {
        self.table(id).ccf.delete_row_batch(rows)
    }
}

impl ProbeBank for ShardedFilterBank {
    fn key_probe(&self, table: TableId, keys: &[u64]) -> Vec<bool> {
        // The sharded bank's key-only strategy shares the CCF's storage (no separate
        // baseline filter), so key probes count as `contains_key`.
        self.contains_key_batch(table, keys)
    }
    fn ccf_probe(&self, table: TableId, pred: &Predicate, keys: &[u64]) -> Vec<bool> {
        self.query_batch(table, pred, keys)
    }
}

/// Evaluate every (query, base-table) instance of a workload against a sharded bank —
/// the parallel counterpart of [`crate::reduction::evaluate_workload`].
pub fn evaluate_workload_sharded(
    db: &SyntheticImdb,
    workload: &JobLightWorkload,
    bank: &ShardedFilterBank,
) -> Vec<InstanceResult> {
    evaluate_workload_with(db, workload, bank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccf_core::sizing::VariantKind;
    use ccf_workloads::imdb::SyntheticImdb;
    use ccf_workloads::joblight::JobLightWorkload;

    fn db() -> SyntheticImdb {
        SyntheticImdb::generate(512, 21)
    }

    fn shard_config(num_shards: usize, threads: usize) -> ShardConfig {
        ShardConfig {
            num_shards,
            threads,
        }
    }

    #[test]
    fn sharded_bank_builds_every_table_without_failures() {
        let db = db();
        let bank = ShardedFilterBank::build(
            &db,
            FilterConfig::small(VariantKind::Chained),
            shard_config(4, 4),
        );
        assert_eq!(bank.tables.len(), 6);
        assert_eq!(
            bank.total_failed_rows(),
            0,
            "auto-grow shards must absorb all rows"
        );
        for t in &bank.tables {
            assert_eq!(t.ccf.num_shards(), 4);
            assert!(t.ccf.occupied_entries() > 0);
        }
    }

    #[test]
    fn sharded_evaluation_is_deterministic_across_thread_counts() {
        let db = db();
        let wl = JobLightWorkload::generate(&db, 41);
        let subset = JobLightWorkload {
            queries: wl.queries.iter().take(8).cloned().collect(),
        };
        let config = FilterConfig::large(VariantKind::Chained);
        let parallel = ShardedFilterBank::build(&db, config, shard_config(4, 4));
        let sequential = ShardedFilterBank::build(&db, config, shard_config(4, 1));
        let a = evaluate_workload_sharded(&db, &subset, &parallel);
        let b = evaluate_workload_sharded(&db, &subset, &sequential);
        assert_eq!(a, b, "thread count must not change any instance count");
    }

    #[test]
    fn sharded_instances_respect_the_exact_floor() {
        let db = db();
        let wl = JobLightWorkload::generate(&db, 41);
        let subset = JobLightWorkload {
            queries: wl.queries.iter().take(10).cloned().collect(),
        };
        let bank = ShardedFilterBank::build(
            &db,
            FilterConfig::large(VariantKind::Chained),
            shard_config(4, 4),
        );
        let results = evaluate_workload_sharded(&db, &subset, &bank);
        assert!(!results.is_empty());
        for r in &results {
            assert!(r.m_exact <= r.m_ccf, "sharded CCF lost a true match: {r:?}");
            assert!(r.m_exact <= r.m_key_filter, "{r:?}");
            assert!(
                r.m_ccf <= r.m_key_filter,
                "predicates can only reduce further: {r:?}"
            );
            assert!(r.m_ccf <= r.m_predicate, "{r:?}");
        }
    }

    #[test]
    fn sharded_eviction_stops_rows_matching_and_is_batch_identical() {
        let db = db();
        let bank = ShardedFilterBank::build(
            &db,
            FilterConfig::large(VariantKind::Chained),
            shard_config(4, 4),
        );
        let table = db.table(TableId::MovieCompanies);
        // Dedupe exact rows (build deduplicated them) and evict the first 40.
        let mut seen = std::collections::HashSet::new();
        let mut victims: Vec<(u64, Vec<u64>)> = Vec::new();
        for row in 0..table.num_rows() {
            let key = table.join_keys[row];
            let attrs = crate::bridge::ccf_attrs_for_row(table, row);
            if seen.insert((key, attrs.clone())) && victims.len() < 40 {
                victims.push((key, attrs));
            }
        }
        let results = bank.evict_row_batch(TableId::MovieCompanies, &victims);
        assert_eq!(results, vec![Ok(true); victims.len()]);
        // Evicting the same rows again reports them gone — exactly what a sequential
        // evict_row loop would say.
        for (key, attrs) in &victims {
            assert_eq!(
                bank.evict_row(TableId::MovieCompanies, *key, attrs),
                Ok(false),
                "row of key {key} evicted twice"
            );
        }
    }

    #[test]
    fn machine_shard_config_is_sane() {
        let c = ShardConfig::for_machine();
        assert!(c.num_shards >= 1 && c.num_shards <= 8);
        assert!(c.threads >= 1 && c.threads <= 8);
    }
}
