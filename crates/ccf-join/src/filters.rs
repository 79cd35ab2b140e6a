//! Pre-built filters per table: CCFs and the key-only cuckoo-filter baseline.
//!
//! For each of the six tables the evaluation builds one pre-computed filter keyed on
//! `movie_id` whose attribute columns are the table's predicate columns (Table 2). A
//! [`FilterBank`] holds, per table:
//!
//! * a CCF of the configured variant, sized per §8 from the table's duplication
//!   profile;
//! * the "current state-of-the-art" baseline — a plain cuckoo filter over the table's
//!   distinct join keys, which ignores predicates entirely (Figures 6b/6d).
//!
//! The bank is what a database would precompute and store; queries then combine the
//! relevant filters per scan (see [`crate::reduction`]).

use ccf_core::sizing::{size_for_profile, DuplicationProfile, VariantKind};
use ccf_core::{AnyCcf, CcfParams, ConditionalFilter, DeleteFailure, FilterKey, Predicate};
use ccf_cuckoo::{CuckooFilter, CuckooFilterParams};
use ccf_telemetry::{buckets, Counter, Telemetry};
use ccf_workloads::imdb::{spec_of, SyntheticImdb, SyntheticTable, TableId};

use crate::bridge::ccf_attrs_for_row;

/// Per-table probe counters for a filter bank: keys probed through the bank's batch
/// entry points, split by probe kind. Disabled (free) unless the bank was built with
/// [`FilterBank::build_with_telemetry`].
#[derive(Debug, Default, Clone)]
pub(crate) struct ProbeCounters {
    /// `ccf_join_probe_keys_total{table=…, probe="query"}`: predicate-qualified CCF
    /// probes.
    pub(crate) query: Counter,
    /// `ccf_join_probe_keys_total{table=…, probe="contains_key"}`: key-only CCF
    /// probes.
    pub(crate) contains_key: Counter,
    /// `ccf_join_probe_keys_total{table=…, probe="key_baseline"}`: probes of the
    /// predicate-blind baseline filter (the "current state of the art" strategy).
    pub(crate) key_baseline: Counter,
}

impl ProbeCounters {
    pub(crate) fn resolve(telemetry: &Telemetry, extra: &[(&str, &str)]) -> Self {
        let probe = |kind| {
            let mut labels = extra.to_vec();
            labels.push(("probe", kind));
            telemetry.counter(
                "ccf_join_probe_keys_total",
                "Keys probed through a join filter bank, by probe kind",
                &labels,
            )
        };
        Self {
            query: probe("query"),
            contains_key: probe("contains_key"),
            key_baseline: probe("key_baseline"),
        }
    }
}

/// Register (and start) a bank-build timer for one table. The histogram is the
/// coarse ns latency layout; `extra` carries the `table` label (and `bank` for the
/// sharded counterpart).
pub(crate) fn bank_build_timer(
    telemetry: &Telemetry,
    extra: &[(&str, &str)],
) -> ccf_telemetry::Timer {
    telemetry
        .histogram(
            "ccf_join_bank_build_ns",
            "Wall-clock nanoseconds to build one table's filters",
            &buckets::latency_ns(),
            extra,
        )
        .start_timer()
}

/// Configuration for building a [`FilterBank`].
#[derive(Debug, Clone, Copy)]
pub struct FilterConfig {
    /// Which CCF variant to build.
    pub variant: VariantKind,
    /// Key fingerprint width |κ| (the paper evaluates 7, 8, 12).
    pub fingerprint_bits: u32,
    /// Attribute fingerprint width |α| (4 or 8).
    pub attr_bits: u32,
    /// Bloom attribute sketch bits (Bloom variant only; 4–24 in the paper).
    pub bloom_bits: usize,
    /// Bloom hash functions (2 in the paper's chosen setting).
    pub bloom_hashes: usize,
    /// Maximum duplicates per bucket pair, d.
    pub max_dupes: usize,
    /// Hash seed.
    pub seed: u64,
}

impl FilterConfig {
    /// The paper's "large" configuration (§10.5): 12-bit fingerprints, 8-bit
    /// attributes, generous Bloom sketches.
    pub fn large(variant: VariantKind) -> Self {
        Self {
            variant,
            fingerprint_bits: 12,
            attr_bits: 8,
            bloom_bits: 24,
            bloom_hashes: 4,
            max_dupes: 3,
            seed: 0xCCF,
        }
    }

    /// The paper's "small" configuration (§10.5): 7-bit fingerprints, 4-bit attributes,
    /// 2 Bloom hash functions.
    pub fn small(variant: VariantKind) -> Self {
        Self {
            variant,
            fingerprint_bits: 7,
            attr_bits: 4,
            bloom_bits: 8,
            bloom_hashes: 2,
            max_dupes: 3,
            seed: 0xCCF,
        }
    }

    /// The §8-sized parameters for one table's filter (shared with the sharded bank,
    /// which slices the bucket budget over its shards).
    pub(crate) fn params_for(&self, table: &SyntheticTable) -> CcfParams {
        let spec = spec_of(table.id);
        let base = CcfParams {
            fingerprint_bits: self.fingerprint_bits,
            attr_bits: self.attr_bits,
            bloom_bits: self.bloom_bits,
            bloom_hashes: self.bloom_hashes,
            max_dupes: self.max_dupes,
            num_attrs: spec.columns.len(),
            max_chain: None,
            small_value_opt: true,
            seed: self.seed ^ (table.id as u64) << 8,
            ..CcfParams::default()
        };
        let profile = DuplicationProfile::from_counts(table.distinct_attr_vectors_per_key());
        size_for_profile(self.variant, &profile, base)
    }
}

/// One table's pre-built filters.
#[derive(Debug, Clone)]
pub struct TableFilters {
    /// Which table the filters summarize.
    pub table: TableId,
    /// The conditional cuckoo filter over (movie_id, predicate columns).
    pub ccf: AnyCcf,
    /// The key-only cuckoo filter baseline (predicates discarded).
    pub key_filter: CuckooFilter,
    /// Rows the CCF failed to absorb (kick exhaustion). Zero in a properly sized bank;
    /// reported so experiments can verify sizing.
    pub failed_rows: usize,
    /// Probe counters for this table (disabled unless the bank was built with
    /// [`FilterBank::build_with_telemetry`]).
    pub(crate) probes: ProbeCounters,
}

/// Pre-built filters for every table of the dataset.
#[derive(Debug, Clone)]
pub struct FilterBank {
    /// The configuration the bank was built with.
    pub config: FilterConfig,
    /// Per-table filters in [`TableId::ALL`] order.
    pub tables: Vec<TableFilters>,
}

impl FilterBank {
    /// Build filters for every table of a synthetic IMDB dataset.
    pub fn build(db: &SyntheticImdb, config: FilterConfig) -> Self {
        Self::build_with_telemetry(db, config, &Telemetry::disabled())
    }

    /// As [`FilterBank::build`], with telemetry: each table's build is timed into
    /// `ccf_join_bank_build_ns{table=…}`, the per-table CCF and key-only baseline
    /// attach their own instruments under a `table` label, and the bank's batch probe
    /// entry points count probed keys into `ccf_join_probe_keys_total{table=…,probe=…}`.
    pub fn build_with_telemetry(
        db: &SyntheticImdb,
        config: FilterConfig,
        telemetry: &Telemetry,
    ) -> Self {
        let tables = TableId::ALL
            .iter()
            .map(|&id| Self::build_table(db.table(id), config, telemetry))
            .collect();
        Self { config, tables }
    }

    fn build_table(
        table: &SyntheticTable,
        config: FilterConfig,
        telemetry: &Telemetry,
    ) -> TableFilters {
        let labels = [("table", table.id.name())];
        let _timer = bank_build_timer(telemetry, &labels);
        let params = config.params_for(table);
        let mut ccf = AnyCcf::new(config.variant, params);
        if telemetry.is_enabled() {
            ccf.attach_telemetry(telemetry, &labels);
        }
        let mut failed_rows = 0usize;
        for row in 0..table.num_rows() {
            let attrs = ccf_attrs_for_row(table, row);
            if ccf.insert_row(table.join_keys[row], &attrs).is_err() {
                failed_rows += 1;
            }
        }

        // Key-only baseline: one fingerprint per distinct join key.
        let mut distinct_keys: Vec<u64> = table.join_keys.clone();
        distinct_keys.sort_unstable();
        distinct_keys.dedup();
        let mut key_filter = CuckooFilter::new(CuckooFilterParams::for_capacity(
            distinct_keys.len(),
            config.fingerprint_bits,
            config.seed ^ 0xBA5E,
        ));
        if telemetry.is_enabled() {
            key_filter.attach_telemetry(telemetry, &labels);
        }
        for &k in &distinct_keys {
            // Sized for the key count, so failures are not expected; a failure would
            // only make the baseline look *better* (fewer positives), so ignore it.
            let _ = key_filter.insert(k);
        }

        TableFilters {
            table: table.id,
            ccf,
            key_filter,
            failed_rows,
            probes: ProbeCounters::resolve(telemetry, &labels),
        }
    }

    /// The filters for one table. Panics if `id` is not in the bank — banks are
    /// built over a closed table set, so an unknown id is caller error.
    pub fn table(&self, id: TableId) -> &TableFilters {
        self.tables
            .iter()
            .find(|t| t.table == id)
            .unwrap_or_else(|| panic!("filter bank has no table {id:?}"))
    }

    /// The filters for one table, mutably (eviction).
    fn table_mut(&mut self, id: TableId) -> &mut TableFilters {
        self.tables
            .iter_mut()
            .find(|t| t.table == id)
            .unwrap_or_else(|| panic!("filter bank has no table {id:?}"))
    }

    /// Evict one row from a table's filters — the maintenance path for rolling
    /// datasets (a deleted base-table row must stop matching probes, or the bank's
    /// reduction factors drift as the table churns). Deletes the row from the CCF
    /// and, when that removed the key's last copy, retires the key from the key-only
    /// baseline filter too, keeping the two strategies' probe semantics aligned.
    ///
    /// Returns whether a CCF copy was removed. Banks built on the Bloom variant (or a
    /// converted mixed key) refuse with a typed [`DeleteFailure`]; only rows that are
    /// actually in the table should be evicted (the cuckoo deletion caveat).
    pub fn evict_row(
        &mut self,
        id: TableId,
        key: u64,
        attrs: &[u64],
    ) -> Result<bool, DeleteFailure> {
        let t = self.table_mut(id);
        let removed = t.ccf.delete_row(key, attrs)?;
        if removed && !t.ccf.contains_key(key) {
            t.key_filter.delete(key);
        }
        Ok(removed)
    }

    /// Evict one copy of a key from a table's filters, regardless of its attribute
    /// vector (see [`FilterBank::evict_row`] for the semantics and caveats).
    pub fn evict_key(&mut self, id: TableId, key: u64) -> Result<bool, DeleteFailure> {
        let t = self.table_mut(id);
        let removed = t.ccf.delete_key(key)?;
        if removed && !t.ccf.contains_key(key) {
            t.key_filter.delete(key);
        }
        Ok(removed)
    }

    /// Batched key-only probe of one table's CCF with typed keys (any
    /// [`FilterKey`]: join keys arriving as strings, composites, or raw `u64`s).
    pub fn contains_key_batch<K: FilterKey>(&self, id: TableId, keys: &[K]) -> Vec<bool> {
        let t = self.table(id);
        t.probes.contains_key.add(keys.len() as u64);
        t.ccf.contains_key_batch(keys)
    }

    /// Batched predicate probe of one table's CCF with typed keys.
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

    /// Total serialized size of all CCFs, in bits.
    pub fn total_ccf_bits(&self) -> usize {
        self.tables.iter().map(|t| t.ccf.size_bits()).sum()
    }

    /// Total serialized size of the key-only baseline filters, in bits.
    pub fn total_key_filter_bits(&self) -> usize {
        self.tables.iter().map(|t| t.key_filter.size_bits()).sum()
    }

    /// Total rows any CCF failed to absorb (should be zero for a well-sized bank).
    pub fn total_failed_rows(&self) -> usize {
        self.tables.iter().map(|t| t.failed_rows).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccf_core::Predicate;
    use ccf_workloads::imdb::SyntheticImdb;

    fn db() -> SyntheticImdb {
        SyntheticImdb::generate(512, 21)
    }

    #[test]
    fn bank_builds_every_table_without_failures() {
        let db = db();
        for variant in [VariantKind::Chained, VariantKind::Bloom, VariantKind::Mixed] {
            let bank = FilterBank::build(&db, FilterConfig::small(variant));
            assert_eq!(bank.tables.len(), 6);
            assert_eq!(
                bank.total_failed_rows(),
                0,
                "{variant:?}: sized bank should absorb every row"
            );
        }
    }

    #[test]
    fn ccf_has_no_false_negatives_on_table_rows() {
        let db = db();
        let bank = FilterBank::build(&db, FilterConfig::large(VariantKind::Chained));
        let table = db.table(TableId::MovieCompanies);
        let filters = bank.table(TableId::MovieCompanies);
        for row in (0..table.num_rows()).step_by(7) {
            let attrs = crate::bridge::ccf_attrs_for_row(table, row);
            let pred = Predicate::any(2).and_eq(0, attrs[0]).and_eq(1, attrs[1]);
            assert!(
                filters.ccf.query(table.join_keys[row], &pred),
                "false negative on movie_companies row {row}"
            );
        }
    }

    #[test]
    fn key_filter_contains_every_join_key() {
        let db = db();
        let bank = FilterBank::build(&db, FilterConfig::small(VariantKind::Bloom));
        let table = db.table(TableId::MovieKeyword);
        let filters = bank.table(TableId::MovieKeyword);
        for &k in table.join_keys.iter().step_by(11) {
            assert!(filters.key_filter.contains(k));
        }
    }

    #[test]
    fn eviction_removes_rows_and_retires_exhausted_keys() {
        let db = db();
        let mut bank = FilterBank::build(&db, FilterConfig::large(VariantKind::Chained));
        let table = db.table(TableId::MovieCompanies);
        // Evict every row of the first few keys; the CCF must stop matching them and
        // the key-only baseline must retire each key with its last copy.
        let mut evicted_keys = std::collections::HashSet::new();
        let mut seen_rows = std::collections::HashSet::new();
        for row in 0..table.num_rows() {
            let key = table.join_keys[row];
            if evicted_keys.len() >= 5 && !evicted_keys.contains(&key) {
                continue;
            }
            evicted_keys.insert(key);
            let attrs = crate::bridge::ccf_attrs_for_row(table, row);
            if !seen_rows.insert((key, attrs.clone())) {
                // Exact duplicate rows were deduplicated at build time: only the
                // first copy occupies an entry, so only it is evictable.
                continue;
            }
            assert_eq!(
                bank.evict_row(TableId::MovieCompanies, key, &attrs),
                Ok(true),
                "row {row} of key {key} not found for eviction"
            );
        }
        let filters = bank.table(TableId::MovieCompanies);
        for &key in &evicted_keys {
            assert!(
                !filters.key_filter.contains(key),
                "baseline kept evicted key {key}"
            );
        }
        // Untouched keys keep both probes working.
        let mut checked = 0;
        for row in 0..table.num_rows() {
            let key = table.join_keys[row];
            if evicted_keys.contains(&key) {
                continue;
            }
            let attrs = crate::bridge::ccf_attrs_for_row(table, row);
            let pred = Predicate::any(2).and_eq(0, attrs[0]).and_eq(1, attrs[1]);
            assert!(filters.ccf.query(key, &pred), "surviving row {row} lost");
            assert!(filters.key_filter.contains(key));
            checked += 1;
            if checked > 50 {
                break;
            }
        }
    }

    #[test]
    fn bloom_banks_refuse_eviction_without_corrupting_state() {
        let db = db();
        let mut bank = FilterBank::build(&db, FilterConfig::small(VariantKind::Bloom));
        let table = db.table(TableId::MovieKeyword);
        let key = table.join_keys[0];
        let attrs = crate::bridge::ccf_attrs_for_row(table, 0);
        assert_eq!(
            bank.evict_row(TableId::MovieKeyword, key, &attrs),
            Err(DeleteFailure::Unsupported)
        );
        assert_eq!(
            bank.evict_key(TableId::MovieKeyword, key),
            Err(DeleteFailure::Unsupported)
        );
        let filters = bank.table(TableId::MovieKeyword);
        assert!(filters.ccf.contains_key(key));
        assert!(filters.key_filter.contains(key));
    }

    #[test]
    fn telemetry_times_builds_and_counts_probes_per_table() {
        use crate::reduction::ProbeBank;

        let db = db();
        let telemetry = ccf_telemetry::Telemetry::enabled();
        let bank = FilterBank::build_with_telemetry(
            &db,
            FilterConfig::small(VariantKind::Chained),
            &telemetry,
        );
        let keys: Vec<u64> = db.table(TableId::MovieCompanies).join_keys[..100].to_vec();
        bank.contains_key_batch(TableId::MovieCompanies, &keys);
        bank.query_batch(TableId::MovieCompanies, &Predicate::any(2), &keys[..40]);
        bank.key_probe(TableId::MovieKeyword, &keys);

        let snap = telemetry.snapshot();
        // One build timing per table.
        for id in TableId::ALL {
            let h = snap
                .histogram("ccf_join_bank_build_ns", &[("table", id.name())])
                .unwrap_or_else(|| panic!("no build timing for {id:?}"));
            assert_eq!(h.count(), 1, "{id:?} built exactly once");
            assert!(h.sum > 0, "{id:?} build took measurable time");
        }
        // Probe-key counters, split by table and probe kind.
        let probe = |table: TableId, kind| {
            snap.counter(
                "ccf_join_probe_keys_total",
                &[("table", table.name()), ("probe", kind)],
            )
        };
        assert_eq!(probe(TableId::MovieCompanies, "contains_key"), Some(100));
        assert_eq!(probe(TableId::MovieCompanies, "query"), Some(40));
        assert_eq!(probe(TableId::MovieKeyword, "key_baseline"), Some(100));
        assert_eq!(probe(TableId::MovieKeyword, "query"), Some(0));
        // The per-table CCFs attached their own instruments under the table label:
        // every row insert was counted somewhere in ccf_inserts_total.
        let total_rows: u64 = db.tables.iter().map(|t| t.num_rows() as u64).sum();
        assert_eq!(
            snap.counter_sum("ccf_inserts_total") + snap.counter_sum("ccf_insert_failures_total"),
            total_rows,
            "bank build must count every row insert exactly once"
        );
        // The key-only baselines attached too (cuckoo_* namespace).
        assert!(snap.counter_sum("cuckoo_inserts_total") > 0);
    }

    #[test]
    fn small_bank_is_smaller_than_large_bank() {
        let db = db();
        let small = FilterBank::build(&db, FilterConfig::small(VariantKind::Chained));
        let large = FilterBank::build(&db, FilterConfig::large(VariantKind::Chained));
        assert!(small.total_ccf_bits() < large.total_ccf_bits());
    }

    #[test]
    fn ccf_is_much_smaller_than_raw_data() {
        // §10.7: the CCFs are an order of magnitude smaller than the raw data / a hash
        // table over it.
        let db = db();
        let bank = FilterBank::build(&db, FilterConfig::small(VariantKind::Bloom));
        let raw_bits: usize = db.tables.iter().map(|t| t.raw_size_bits()).sum();
        assert!(
            bank.total_ccf_bits() * 3 < raw_bits,
            "CCF bank ({} bits) not meaningfully smaller than raw data ({} bits)",
            bank.total_ccf_bits(),
            raw_bits
        );
    }
}
