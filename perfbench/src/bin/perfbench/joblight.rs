//! `joblight`: the paper's application (§10.3–10.6).
//!
//! Several synthetic IMDB datasets, each with sets of the 70 JOB-light queries, feed a
//! chained-CCF `FilterBank` in the large configuration, with its key-only cuckoo
//! baseline. For each dataset a pass builds the bank (insert); runs every query —
//! scan its base tables through `ccf-join`'s predicate bridge, then probe the CCF
//! cascade (query) and the key-only cascade (contains); and evicts a fixed slice of
//! rows (delete). The answers are
//! checked against an exact semijoin the benchmark computes from the tables itself:
//! `m_exact ≤ m_ccf ≤ m_predicate` and `m_exact ≤ m_key ≤ m_predicate` for every
//! instance, and absent keys within the §7 bound.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ccf_core::{ConditionalFilter, Predicate, VariantKind};
use ccf_hash::{AttrFingerprinter, Fingerprinter, HashFamily};
use ccf_join::bridge::{
    ccf_attrs_for_row, ccf_predicate_for, row_matches_table_predicates,
    row_matches_table_predicates_binned,
};
use ccf_join::{FilterBank, FilterConfig};
use ccf_workloads::imdb::{SyntheticImdb, SyntheticTable, TableId};
use ccf_workloads::joblight::{JobLightWorkload, QueryPredicate, QueryTable};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::alloc::Reading;
use crate::common::{
    absent_key, absent_key_fpr_bound, fpr_within_bound, ns_per, record_phases, repeated_setup,
    FilterMemory, Measured, Outcome, PassClock, Phase, Tally, SETUP_BUDGET_SHARE,
};
use crate::trace::Tracer;

/// Dataset scale divisor. At 1/2048 a dataset's tables hold ≈ 32 k rows over ≈ 1.2 k
/// movies and probe batches run from a handful of keys to ≈ 18 k (the run's notes
/// give the exact figures; README has the working-set sizes).
pub const SCALE: u64 = 2048;
/// Datasets per run, each drawn from its own seed derived from the run's. A pass
/// builds one bank per dataset, so a run's figures average over several draws of
/// the heavy-tailed duplication rather than hinge on one.
const DATASETS: u64 = 4;
/// Share of each table's rows evicted from every bank: half, because an eviction
/// walks its key's chain, and a thin random slice's cost hinges on the few heaviest
/// movies it happens to draw.
const EVICT_SHARE: f64 = 0.5;
/// Evictions per timed delete unit. Small units let each one's best time come from
/// whichever pass ran it with the least interference.
const EVICT_UNIT: usize = 64;
/// JOB-light query sets per dataset (70 queries each), so the latency percentiles
/// rest on over a thousand query units a pass and no single set's mix dominates them.
pub const QUERY_SETS: u64 = 4;
/// Absent keys probed per table for the false-positive check.
const ABSENT_PROBES: usize = 20_000;

/// One (query, base table) instance with its oracle counts.
#[derive(Debug)]
struct Instance {
    base: TableId,
    base_qt: QueryTable,
    others: Vec<QueryTable>,
    /// Rows of the base table matching its own predicates.
    m_pred: usize,
    /// Of those, rows whose key survives the exact semijoin.
    m_exact: usize,
    /// The same with range predicates binned (only computed for traced runs).
    m_exact_binned: usize,
}

struct Inputs {
    db: SyntheticImdb,
    /// Instances grouped by query, in query order.
    queries: Vec<Vec<Instance>>,
    /// Rows to evict: table, key and the attribute vector the bank stores.
    evict: Vec<(TableId, u64, Vec<u64>)>,
    absent: Vec<u64>,
}

/// Exact evaluation of a query table's predicates on one row, written apart from
/// the bridge so the oracle does not share its code.
fn oracle_matches(table: &SyntheticTable, row: usize, preds: &[QueryPredicate]) -> bool {
    preds.iter().all(|p| match *p {
        QueryPredicate::Eq { column, value } => table.columns[column][row] == value,
        QueryPredicate::Range { column, lo, hi } => (lo..=hi).contains(&table.columns[column][row]),
    })
}

/// The rows of `qt`'s table that satisfy its predicates, as their join keys (movie
/// ids, `1..=num_movies`) in row order, and as a membership table indexed by key.
fn matching_keys(db: &SyntheticImdb, qt: &QueryTable, binned: bool) -> (Vec<u64>, Vec<bool>) {
    let table = db.table(qt.table);
    let mut rows = Vec::new();
    let mut member = vec![false; db.num_movies as usize + 1];
    for row in 0..table.num_rows() {
        let matches = if binned {
            row_matches_table_predicates_binned(table, row, qt)
        } else {
            oracle_matches(table, row, &qt.predicates)
        };
        if matches {
            rows.push(table.join_keys[row]);
            member[table.join_keys[row] as usize] = true;
        }
    }
    (rows, member)
}

fn setup(seed: u64, scale: u64, query_sets: u64, with_binned: bool) -> Inputs {
    let db = SyntheticImdb::generate(scale, seed);
    let workloads: Vec<JobLightWorkload> = (0..query_sets)
        .map(|set| JobLightWorkload::generate(&db, seed ^ 0x70B1 ^ set << 40))
        .collect();
    let mut queries = Vec::new();
    for query in workloads.iter().flat_map(|w| &w.queries) {
        let mut instances = Vec::new();
        if query.tables.len() >= 2 {
            let exact: Vec<(Vec<u64>, Vec<bool>)> = query
                .tables
                .iter()
                .map(|qt| matching_keys(&db, qt, false))
                .collect();
            let binned: Vec<(Vec<u64>, Vec<bool>)> = if with_binned {
                query
                    .tables
                    .iter()
                    .map(|qt| matching_keys(&db, qt, true))
                    .collect()
            } else {
                Vec::new()
            };
            for (bi, base) in query.tables.iter().enumerate() {
                let survives = |sets: &[(Vec<u64>, Vec<bool>)], key: u64| {
                    sets.iter()
                        .zip(&query.tables)
                        .all(|((_, s), qt)| qt.table == base.table || s[key as usize])
                };
                let base_keys = &exact[bi].0;
                let m_pred = base_keys.len();
                let m_exact = base_keys.iter().filter(|&&k| survives(&exact, k)).count();
                let m_exact_binned = if with_binned {
                    base_keys.iter().filter(|&&k| survives(&binned, k)).count()
                } else {
                    0
                };
                instances.push(Instance {
                    base: base.table,
                    base_qt: base.clone(),
                    others: query
                        .tables
                        .iter()
                        .filter(|qt| qt.table != base.table)
                        .cloned()
                        .collect(),
                    m_pred,
                    m_exact,
                    m_exact_binned,
                });
            }
        }
        queries.push(instances);
    }

    let mut rng = StdRng::seed_from_u64(seed ^ 0xE71C7);
    let mut evict = Vec::new();
    for &id in &TableId::ALL {
        let table = db.table(id);
        let mut rows: Vec<usize> = (0..table.num_rows()).collect();
        rows.shuffle(&mut rng);
        rows.truncate((table.num_rows() as f64 * EVICT_SHARE).ceil() as usize);
        for row in rows {
            evict.push((id, table.join_keys[row], ccf_attrs_for_row(table, row)));
        }
    }
    let absent = (0..ABSENT_PROBES).map(|_| absent_key(&mut rng)).collect();
    Inputs {
        db,
        queries,
        evict,
        absent,
    }
}

/// Counters gathered over a run for the per-layer metrics.
#[derive(Debug, Default)]
struct Counts {
    rows_scanned: u64,
    ccf_keys: u64,
    key_keys: u64,
    hashed_keys: u64,
    hashed_rows: u64,
    build_allocs: u64,
    evict_allocs: u64,
    probe_allocs: u64,
    rows_built: u64,
    rows_evicted: u64,
    queries: u64,
    m_pred: u64,
    m_ccf: u64,
    m_key: u64,
    m_exact_binned: u64,
    /// Largest batch of keys a base-table scan handed to the CCF cascade.
    max_probe_batch: usize,
}

/// A run's accumulators.
#[derive(Debug, Default)]
struct Acc {
    tally: Tally,
    clock: PassClock,
    counts: Counts,
}

pub fn run(seed: u64, budget: Duration, tracer: &mut Tracer) -> Outcome {
    run_scaled(seed, budget, tracer, SCALE, QUERY_SETS)
}

pub fn run_scaled(
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
    scale: u64,
    query_sets: u64,
) -> Outcome {
    let traced = tracer.on();
    let (datasets, setup_s) = repeated_setup(budget / SETUP_BUDGET_SHARE, || {
        (0..DATASETS)
            .map(|d| setup(seed.wrapping_mul(DATASETS) + d, scale, query_sets, traced))
            .collect::<Vec<Inputs>>()
    });
    let total_rows: usize = datasets.iter().map(|i| i.db.total_rows()).sum();
    let mut acc = Acc::default();
    let mut bank_memory = BankMemory::default();
    let start = Instant::now();
    let mut pass = 0u64;
    while pass == 0 || start.elapsed() < budget {
        // Each pass builds one bank per dataset (a timed unit), runs that dataset's
        // queries on it, and evicts its slice.
        for (d, inputs) in (0u64..).zip(&datasets) {
            let batch = pass << 32 | d << 24;
            let (bank, retained) = build_bank(inputs, batch, tracer, &mut acc);
            if pass == 0 {
                bank_memory.add(&bank, retained);
                check_absent(inputs, &bank, &mut acc.tally);
            }
            for (qi, instances) in inputs.queries.iter().enumerate() {
                run_query(
                    inputs,
                    &bank,
                    instances,
                    batch | qi as u64,
                    tracer,
                    &mut acc,
                );
            }
            if traced && d + 1 == DATASETS {
                hash_in_isolation(inputs, &bank, batch, tracer, &mut acc.counts);
            }
            evict_slice(inputs, bank, batch, tracer, &mut acc);
        }
        acc.clock.end_pass();
        pass += 1;
    }
    let memory = bank_memory.filter_memory();

    let Acc {
        tally,
        clock,
        counts,
    } = acc;

    let mut layer = BTreeMap::new();
    let mut phases_match_clock = true;
    if traced {
        let st = tracer.self_times();
        let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        layer.insert(
            "ccf-hash.key_ns_per_key",
            ns_per(&st, "ccf-hash.fingerprint_and_bucket", counts.hashed_keys),
        );
        layer.insert(
            "ccf-hash.attr_ns_per_row",
            ns_per(&st, "ccf-hash.fingerprint_vector", counts.hashed_rows),
        );
        layer.insert(
            "ccf-cuckoo.contains_ns_per_key",
            ns_per(&st, "ccf-cuckoo.contains_batch", counts.key_keys),
        );
        layer.insert(
            "ccf-core.query_ns_per_key",
            ns_per(&st, "ccf-core.query_batch", counts.ccf_keys),
        );
        layer.insert(
            "ccf-core.allocs_per_insert",
            per(counts.build_allocs, counts.rows_built),
        );
        layer.insert(
            "ccf-core.allocs_per_delete",
            per(counts.evict_allocs, counts.rows_evicted),
        );
        layer.insert(
            "ccf-core.allocs_per_kkey_probed",
            per(counts.probe_allocs * 1000, counts.ccf_keys),
        );
        memory.record(total_rows as f64, &mut layer);
        layer.insert("ccf-shard.imbalance", 1.0);
        layer.insert(
            "ccf-join.scan_ns_per_row",
            ns_per(&st, "ccf-join.scan", counts.rows_scanned),
        );
        layer.insert(
            "ccf-join.probe_keys_per_query",
            per(counts.ccf_keys, counts.queries),
        );
        layer.insert(
            "ccf-join.ccf_reduction_factor",
            per(counts.m_ccf, counts.m_pred),
        );
        layer.insert(
            "ccf-join.key_reduction_factor",
            per(counts.m_key, counts.m_pred),
        );
        layer.insert(
            "ccf-join.fpr_vs_binned",
            per(
                counts.m_ccf.saturating_sub(counts.m_exact_binned),
                counts.m_pred.saturating_sub(counts.m_exact_binned),
            ),
        );
        phases_match_clock = record_phases(tracer, &clock, &mut layer);
    }
    let mut outcome = Outcome::assemble(
        Measured {
            setup_s,
            clock,
            bytes_per_row: memory.heap / total_rows as f64,
            layer,
            phases_match_clock,
        },
        tally,
        traced,
    );
    outcome.notes.push(memory.note(total_rows as f64));
    for inputs in &datasets {
        let table_bytes: usize = TableId::ALL
            .iter()
            .map(|&id| {
                let t = inputs.db.table(id);
                8 * (t.join_keys.len() + t.columns.iter().map(Vec::len).sum::<usize>())
            })
            .sum();
        outcome.notes.push(format!(
            "dataset: {} rows over {} movies in {:.2} MB of columns",
            inputs.db.total_rows(),
            inputs.db.num_movies,
            table_bytes as f64 / 1e6,
        ));
    }
    outcome.notes.push(format!(
        "probe batches up to {} keys",
        counts.max_probe_batch
    ));
    outcome
}

/// Insert: build the bank as one timed unit; returns it with the heap it retained.
fn build_bank(
    inputs: &Inputs,
    batch: u64,
    tracer: &mut Tracer,
    acc: &mut Acc,
) -> (FilterBank, i64) {
    let total_rows = inputs.db.total_rows();
    let phase = tracer.begin(Phase::Insert.span(), batch);
    let span = tracer.begin("ccf-join.build", batch);
    let mem = Reading::now();
    let t = Instant::now();
    let bank = FilterBank::build(&inputs.db, FilterConfig::large(VariantKind::Chained));
    let elapsed = t.elapsed();
    let retained = mem.retained_since();
    acc.counts.build_allocs += mem.events_since();
    tracer.end(span);
    tracer.end(phase);
    acc.clock.add(Phase::Insert, total_rows, elapsed);
    acc.counts.rows_built += total_rows as u64;
    acc.tally
        .batch(total_rows as u64, bank.total_failed_rows() as u64, || {
            format!("{} rows did not fit the bank", bank.total_failed_rows())
        });
    (bank, retained)
}

/// Delete: evict the slice in timed units of [`EVICT_UNIT`] rows, checking for
/// refusals and that the occupancy fell by exactly the removals reported.
fn evict_slice(
    inputs: &Inputs,
    mut bank: FilterBank,
    batch: u64,
    tracer: &mut Tracer,
    acc: &mut Acc,
) {
    let occupied_before: usize = bank.tables.iter().map(|t| t.ccf.occupied_entries()).sum();
    let (mut removed, mut refused) = (0usize, 0usize);
    for (i, unit) in inputs.evict.chunks(EVICT_UNIT).enumerate() {
        let id = batch | 1 << 20 | i as u64;
        let phase = tracer.begin(Phase::Delete.span(), id);
        let span = tracer.begin("ccf-join.evict_row", id);
        let mem = Reading::now();
        let t = Instant::now();
        for (table, key, attrs) in unit {
            match bank.evict_row(*table, *key, attrs) {
                Ok(r) => removed += usize::from(r),
                Err(_) => refused += 1,
            }
        }
        let elapsed = t.elapsed();
        acc.counts.evict_allocs += mem.events_since();
        tracer.end(span);
        tracer.end(phase);
        acc.clock.add(Phase::Delete, unit.len(), elapsed);
    }
    acc.counts.rows_evicted += inputs.evict.len() as u64;
    acc.tally
        .batch(inputs.evict.len() as u64, refused as u64, || {
            format!("{refused} evictions were refused")
        });
    let occupied_after: usize = bank.tables.iter().map(|t| t.ccf.occupied_entries()).sum();
    acc.tally
        .check(occupied_before - occupied_after == removed, || {
            format!(
                "evictions reported {removed} removals but occupancy fell by {}",
                occupied_before - occupied_after
            )
        });
}

/// The banks' memory summed over the datasets: CCFs and key-only filters together.
#[derive(Debug, Default)]
struct BankMemory {
    heap: i64,
    reported: usize,
    model_bits: usize,
    occupied: usize,
    capacity: usize,
    doublings: u32,
}

impl BankMemory {
    fn add(&mut self, bank: &FilterBank, retained: i64) {
        self.heap += retained;
        self.model_bits += bank.total_ccf_bits() + bank.total_key_filter_bits();
        for t in &bank.tables {
            let occ = t.ccf.occupancy();
            self.occupied += occ.occupied;
            self.capacity += occ.capacity();
            self.reported += occ.heap_bytes + t.key_filter.occupancy().heap_bytes;
            self.doublings += t.ccf.growth_stats().growth_bits;
        }
    }

    fn filter_memory(&self) -> FilterMemory {
        FilterMemory {
            heap: self.heap as f64,
            reported: self.reported as f64,
            model: self.model_bits as f64 / 8.0,
            load: self.occupied as f64 / self.capacity.max(1) as f64,
            doublings: f64::from(self.doublings),
        }
    }
}

/// One query: the timed query unit (scan and CCF cascade per instance), then the
/// key-only cascade over the same probe keys, each checked against the oracle.
fn run_query(
    inputs: &Inputs,
    bank: &FilterBank,
    instances: &[Instance],
    batch: u64,
    tracer: &mut Tracer,
    acc: &mut Acc,
) {
    let Acc {
        tally,
        clock,
        counts,
    } = acc;
    let mut probes: Vec<Vec<u64>> = Vec::with_capacity(instances.len());
    let mut m_ccf = Vec::with_capacity(instances.len());
    let mut probed = 0usize;
    let phase = tracer.begin(Phase::Query.span(), batch);
    let t = Instant::now();
    for inst in instances {
        let span = tracer.begin("ccf-join.scan", batch);
        let table = inputs.db.table(inst.base);
        let preds: Vec<(TableId, Predicate)> = inst
            .others
            .iter()
            .map(|qt| (qt.table, ccf_predicate_for(qt)))
            .collect();
        let mut keys: Vec<u64> = (0..table.num_rows())
            .filter(|&row| row_matches_table_predicates(table, row, &inst.base_qt))
            .map(|row| table.join_keys[row])
            .collect();
        tracer.end(span);
        counts.rows_scanned += table.num_rows() as u64;
        counts.max_probe_batch = counts.max_probe_batch.max(keys.len());
        probes.push(keys.clone());
        for (tid, pred) in &preds {
            if keys.is_empty() {
                break;
            }
            let span = tracer.begin("ccf-core.query_batch", batch);
            let mem = Reading::now();
            let hits = bank.table(*tid).ccf.query_batch(&keys, pred);
            counts.probe_allocs += mem.events_since();
            tracer.end(span);
            probed += keys.len();
            let mut hit = hits.into_iter();
            keys.retain(|_| hit.next().unwrap_or(false));
        }
        m_ccf.push(keys.len());
    }
    let elapsed = t.elapsed();
    tracer.end(phase);
    clock.add(Phase::Query, probed, elapsed);
    counts.ccf_keys += probed as u64;
    counts.queries += 1;

    let mut key_probed = 0usize;
    let mut m_key = Vec::with_capacity(instances.len());
    let phase = tracer.begin(Phase::Contains.span(), batch);
    let t = Instant::now();
    for (inst, mut keys) in instances.iter().zip(probes.iter().cloned()) {
        for qt in &inst.others {
            if keys.is_empty() {
                break;
            }
            let span = tracer.begin("ccf-cuckoo.contains_batch", batch);
            let hits = bank.table(qt.table).key_filter.contains_batch(&keys);
            tracer.end(span);
            key_probed += keys.len();
            let mut hit = hits.into_iter();
            keys.retain(|_| hit.next().unwrap_or(false));
        }
        m_key.push(keys.len());
    }
    let elapsed = t.elapsed();
    tracer.end(phase);
    clock.add(Phase::Contains, key_probed, elapsed);
    counts.key_keys += key_probed as u64;

    for (i, inst) in instances.iter().enumerate() {
        let m_pred = probes[i].len();
        tally.check(m_pred == inst.m_pred, || {
            format!(
                "{:?}: the bridge scan kept {m_pred} rows, the oracle {}",
                inst.base, inst.m_pred
            )
        });
        tally.check(inst.m_exact <= m_ccf[i] && m_ccf[i] <= m_pred, || {
            format!(
                "{:?}: CCF survivors {} outside [{}, {m_pred}]",
                inst.base, m_ccf[i], inst.m_exact
            )
        });
        tally.check(inst.m_exact <= m_key[i] && m_key[i] <= m_pred, || {
            format!(
                "{:?}: key-filter survivors {} outside [{}, {m_pred}]",
                inst.base, m_key[i], inst.m_exact
            )
        });
        counts.m_pred += m_pred as u64;
        counts.m_ccf += m_ccf[i] as u64;
        counts.m_key += m_key[i] as u64;
        counts.m_exact_binned += inst.m_exact_binned as u64;
    }
}

/// Absent keys against every table's CCF and key-only filter, within the §7 bound.
fn check_absent(inputs: &Inputs, bank: &FilterBank, tally: &mut Tally) {
    for t in &bank.tables {
        let p = t.ccf.params();
        let ccf_bound = absent_key_fpr_bound(
            p.entries_per_bucket,
            t.ccf.load_factor(),
            p.fingerprint_bits,
        );
        let ccf_fp = t
            .ccf
            .contains_key_batch(&inputs.absent)
            .iter()
            .filter(|&&h| h)
            .count();
        tally.check(
            fpr_within_bound(ccf_fp, inputs.absent.len(), ccf_bound),
            || {
                format!(
                    "{:?} CCF: {ccf_fp} false positives exceed the §7 bound",
                    t.table
                )
            },
        );
        let occ = t.key_filter.occupancy();
        let key_bound = absent_key_fpr_bound(
            occ.entries_per_bucket,
            occ.load_factor(),
            bank.config.fingerprint_bits,
        );
        let key_fp = t
            .key_filter
            .contains_batch(&inputs.absent)
            .iter()
            .filter(|&&h| h)
            .count();
        tally.check(
            fpr_within_bound(key_fp, inputs.absent.len(), key_bound),
            || {
                format!(
                    "{:?} key filter: {key_fp} false positives exceed the bound",
                    t.table
                )
            },
        );
    }
}

/// The hash layer in isolation: key fingerprints over each query's base-table keys
/// and attribute fingerprints over the evicted rows, with each table's hash family.
fn hash_in_isolation(
    inputs: &Inputs,
    bank: &FilterBank,
    batch: u64,
    tracer: &mut Tracer,
    counts: &mut Counts,
) {
    let span = tracer.begin("ccf-hash.fingerprint_and_bucket", batch);
    let mut sink = 0usize;
    for t in &bank.tables {
        let p = t.ccf.params();
        let f = Fingerprinter::new(&HashFamily::new(p.seed), p.fingerprint_bits);
        let base = t.ccf.growth_stats().base_buckets;
        for &key in &inputs.db.table(t.table).join_keys {
            let (fp, b) = f.fingerprint_and_bucket(key, base);
            sink = sink.wrapping_add(usize::from(fp) ^ b);
        }
        counts.hashed_keys += inputs.db.table(t.table).join_keys.len() as u64;
    }
    std::hint::black_box(sink);
    tracer.end(span);

    let span = tracer.begin("ccf-hash.fingerprint_vector", batch);
    let attr: BTreeMap<TableId, AttrFingerprinter> = bank
        .tables
        .iter()
        .map(|t| {
            let p = t.ccf.params();
            let family = HashFamily::new(p.seed);
            (
                t.table,
                AttrFingerprinter::new(&family, p.attr_bits, p.small_value_opt),
            )
        })
        .collect();
    for (id, _, attrs) in &inputs.evict {
        std::hint::black_box(attr[id].fingerprint_vector(attrs));
    }
    counts.hashed_rows += inputs.evict.len() as u64;
    tracer.end(span);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_checks_every_instance_without_failures() {
        let out = run_scaled(3, Duration::ZERO, &mut Tracer::new(false), 2048, 2);
        assert!(out.correct, "{:?}", out.notes);
        assert_eq!(out.failed, 0, "{:?}", out.notes);
        let traced = run_scaled(3, Duration::ZERO, &mut Tracer::new(true), 2048, 2);
        assert!(traced.correct, "{:?}", traced.notes);
        assert_eq!(traced.attempted, out.attempted);
    }

    #[test]
    fn oracle_agrees_with_the_bridge_on_every_row() {
        let db = SyntheticImdb::generate(2048, 9);
        let wl = JobLightWorkload::generate(&db, 9);
        for qt in wl.queries.iter().flat_map(|q| &q.tables) {
            let table = db.table(qt.table);
            for row in 0..table.num_rows() {
                assert_eq!(
                    oracle_matches(table, row, &qt.predicates),
                    row_matches_table_predicates(table, row, qt)
                );
            }
        }
    }
}
