//! `chained_churn`: one `ChainedCcf` under a sliding window larger than the L3.
//!
//! A hot set of keys is duplicated by the §10.1 Zipf–Mandelbrot distribution
//! (offset 2.7, at most 500 rows per key); every other key has one row. The rows of
//! all keys are shuffled into one cyclic stream. A round builds a fresh filter,
//! fills the window, then runs fixed steps: insert the next batch of rows, delete
//! the oldest batch, and run predicate-query and contains batches over live and
//! absent keys. Every answer is checked against a
//! multiset of live rows kept apart from the filter. Each round ends by replaying a
//! fixed, seed-independent scenario that trips the known chained-deletion fault;
//! its casualties are the only failures the run may count.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ccf_core::{CcfParams, ChainedCcf, InsertOutcome, Predicate};
use ccf_hash::{Fingerprinter, HashFamily};
use ccf_workloads::churn::{ChurnOp, SlidingWindowChurn};
use ccf_workloads::ZipfMandelbrot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alloc::Reading;
use crate::common::{
    absent_key, absent_key_fpr_bound, fpr_within_bound, key_pool, ns_per, record_phases,
    repeated_setup, FilterMemory, Measured, Outcome, PassClock, Phase, Tally, SETUP_BUDGET_SHARE,
};
use crate::trace::Tracer;

/// Workload size. The defaults make the live window DRAM-resident; tests shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Live rows once the window is full.
    pub window: usize,
    /// Rows in the cyclic stream (more than the window, so rows leave before they
    /// return).
    pub stream: usize,
    /// Keys with several rows; every other key of the stream has one row.
    pub hot_keys: usize,
    /// Mean rows per hot key.
    pub mean_dupes: f64,
    /// Steps per round after the fill.
    pub steps: usize,
    /// Rows inserted and deleted per step.
    pub batch: usize,
    /// Query (and contains) batches per step.
    pub query_batches: usize,
    /// Live keys per query batch.
    pub live_keys: usize,
    /// Absent keys per query batch.
    pub absent_keys: usize,
}

impl Size {
    pub const DEFAULT: Size = Size {
        window: 2_000_000,
        stream: 2_250_000,
        hot_keys: 30_000,
        mean_dupes: 8.0,
        steps: 40,
        batch: 8192,
        query_batches: 25,
        live_keys: 192,
        absent_keys: 64,
    };
}

/// Attribute categories: a query batch asks for one category.
const CATEGORIES: u64 = 16;
/// Key fingerprint width: the widest the filter supports, for the largest pool of
/// keys with pairwise distinct fingerprints.
const FP_BITS: u32 = 16;

/// One row of the stream: index of its key in the pool, per-key sequence number and
/// category. Attributes are `[category, seq mod 256, seq / 256]`, all below 2⁸ so the
/// small-value optimisation stores them exactly and a key's rows never share an
/// attribute fingerprint vector.
#[derive(Debug, Clone, Copy)]
struct StreamRow {
    key_idx: u32,
    seq: u16,
    cat: u8,
}

impl StreamRow {
    fn attrs(self) -> [u64; 3] {
        [
            u64::from(self.cat),
            u64::from(self.seq & 0xFF),
            u64::from(self.seq >> 8),
        ]
    }
}

/// A query batch: one category, keys with their pool index (`None` = absent).
#[derive(Debug)]
struct QueryBatch {
    pred: Predicate,
    cat: u8,
    keys: Vec<u64>,
    idx: Vec<Option<u32>>,
}

/// Everything set-up produces.
struct Inputs {
    size: Size,
    params: CcfParams,
    keys: Vec<u64>,
    /// Category of each single-row key (pool index minus `size.hot_keys`).
    single_cat: Vec<u8>,
    stream: Vec<StreamRow>,
    /// Per step, its query batches.
    queries: Vec<Vec<QueryBatch>>,
    casualty: Casualty,
}

fn setup(seed: u64, size: Size) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0A5_7EAD);
    let params = CcfParams {
        fingerprint_bits: FP_BITS,
        attr_bits: 8,
        num_attrs: 3,
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..CcfParams::default()
    }
    .sized_for_entries(size.window, 0.7)
    .with_auto_grow();

    let zipf = ZipfMandelbrot::paper(ZipfMandelbrot::solve_alpha_for_mean(size.mean_dupes));
    let mut stream = Vec::with_capacity(size.stream);
    for key_idx in 0..size.hot_keys as u32 {
        for seq in 0..zipf.sample(&mut rng) {
            stream.push(StreamRow {
                key_idx,
                seq: seq as u16,
                cat: rng.gen_range(0..CATEGORIES) as u8,
            });
        }
    }
    let hot_rows = stream.len();
    assert!(hot_rows < size.stream, "hot keys fill the whole stream");
    let mut single_cat = Vec::with_capacity(size.stream - hot_rows);
    for key_idx in size.hot_keys..size.hot_keys + size.stream - hot_rows {
        let cat = rng.gen_range(0..CATEGORIES) as u8;
        single_cat.push(cat);
        stream.push(StreamRow {
            key_idx: key_idx as u32,
            // A random sequence number keeps single-row keys that share a
            // fingerprint and bucket pair from sharing an attribute vector too.
            seq: rng.gen_range(0..1u64 << 16) as u16,
            cat,
        });
    }
    for i in (1..stream.len()).rev() {
        stream.swap(i, rng.gen_range(0..=i));
    }
    let keys = key_pool(
        size.hot_keys,
        single_cat.len(),
        params.seed,
        FP_BITS,
        &mut rng,
    );

    // Query batches: live keys drawn from the window as it stands after each step.
    let mut queries = Vec::with_capacity(size.steps);
    for step in 0..size.steps {
        let lo = (step + 1) * size.batch;
        let mut batches = Vec::with_capacity(size.query_batches);
        for _ in 0..size.query_batches {
            let cat = rng.gen_range(0..CATEGORIES) as u8;
            let mut entries: Vec<(u64, Option<u32>)> = Vec::new();
            while entries.len() < size.live_keys {
                let row = stream[(lo + rng.gen_range(0..size.window)) % stream.len()];
                if row.cat == cat {
                    entries.push((keys[row.key_idx as usize], Some(row.key_idx)));
                }
            }
            for _ in 0..size.absent_keys {
                entries.push((absent_key(&mut rng), None));
            }
            for i in (1..entries.len()).rev() {
                entries.swap(i, rng.gen_range(0..=i));
            }
            batches.push(QueryBatch {
                pred: Predicate::any(3).and_eq(0, u64::from(cat)),
                cat,
                keys: entries.iter().map(|e| e.0).collect(),
                idx: entries.iter().map(|e| e.1).collect(),
            });
        }
        queries.push(batches);
    }
    Inputs {
        size,
        params,
        keys,
        single_cat,
        stream,
        queries,
        casualty: Casualty::new(),
    }
}

/// The live-row multiset: live rows per key, and per (key, category) for hot keys
/// (a single-row key's one row has a fixed category).
struct LiveRows<'a> {
    per_key: Vec<u32>,
    per_cat: Vec<u32>,
    hot: usize,
    single_cat: &'a [u8],
}

impl<'a> LiveRows<'a> {
    fn new(inputs: &'a Inputs) -> Self {
        Self {
            per_key: vec![0; inputs.keys.len()],
            per_cat: vec![0; inputs.size.hot_keys * CATEGORIES as usize],
            hot: inputs.size.hot_keys,
            single_cat: &inputs.single_cat,
        }
    }

    fn apply(&mut self, row: StreamRow, delta: i32) {
        let k = row.key_idx as usize;
        self.per_key[k] = self.per_key[k].wrapping_add_signed(delta);
        if k < self.hot {
            let c = k * CATEGORIES as usize + usize::from(row.cat);
            self.per_cat[c] = self.per_cat[c].wrapping_add_signed(delta);
        }
    }

    fn has_key(&self, idx: Option<u32>) -> bool {
        idx.is_some_and(|k| self.per_key[k as usize] > 0)
    }

    fn has_row(&self, idx: Option<u32>, cat: u8) -> bool {
        idx.is_some_and(|k| {
            let k = k as usize;
            if k < self.hot {
                self.per_cat[k * CATEGORIES as usize + usize::from(cat)] > 0
            } else {
                self.per_key[k] > 0 && self.single_cat[k - self.hot] == cat
            }
        })
    }
}

/// Counters gathered over a run for the per-layer metrics.
#[derive(Debug, Default)]
struct Counts {
    rows_inserted: u64,
    rows_deleted: u64,
    keys_queried: u64,
    keys_contained: u64,
    insert_allocs: u64,
    delete_allocs: u64,
    probe_allocs: u64,
    hashed_keys: u64,
    hashed_rows: u64,
    absent_probes: usize,
    false_positives: usize,
}

/// A run's accumulators.
struct Run<'a> {
    inputs: &'a Inputs,
    tracer: &'a mut Tracer,
    tally: Tally,
    clock: PassClock,
    counts: Counts,
}

pub fn run(seed: u64, budget: Duration, tracer: &mut Tracer) -> Outcome {
    run_sized(seed, budget, tracer, Size::DEFAULT)
}

pub fn run_sized(seed: u64, budget: Duration, tracer: &mut Tracer, size: Size) -> Outcome {
    let (inputs, setup_s) = repeated_setup(budget / SETUP_BUDGET_SHARE, || setup(seed, size));
    let traced = tracer.on();
    let mut run = Run {
        inputs: &inputs,
        tracer,
        tally: Tally::default(),
        clock: PassClock::default(),
        counts: Counts::default(),
    };
    let mut memory = FilterMemory::default();
    let start = Instant::now();
    let mut round = 0u64;
    while round == 0 || start.elapsed() < budget {
        run.round(round, (round == 0).then_some(&mut memory));
        let (attempted, failed) = inputs.casualty.replay();
        run.tally.known(attempted, failed);
        run.clock.end_pass();
        round += 1;
    }
    let Run {
        tracer,
        tally,
        clock,
        counts,
        ..
    } = run;
    let mut layer = BTreeMap::new();
    let mut phases_match_clock = true;
    if traced {
        let st = tracer.self_times();
        let per_k = |n: u64, k: u64| if k == 0 { 0.0 } else { n as f64 / k as f64 };
        layer.insert(
            "ccf-hash.key_ns_per_key",
            ns_per(&st, "ccf-hash.fingerprint_and_bucket", counts.hashed_keys),
        );
        layer.insert(
            "ccf-hash.attr_ns_per_row",
            ns_per(&st, "ccf-hash.fingerprint_vector", counts.hashed_rows),
        );
        layer.insert(
            "ccf-core.insert_ns_per_row",
            ns_per(&st, "ccf-core.insert_row", counts.rows_inserted),
        );
        layer.insert(
            "ccf-core.query_ns_per_key",
            ns_per(&st, "ccf-core.query_batch", counts.keys_queried),
        );
        layer.insert(
            "ccf-core.contains_ns_per_key",
            ns_per(&st, "ccf-core.contains_key_batch", counts.keys_contained),
        );
        layer.insert(
            "ccf-core.delete_ns_per_row",
            ns_per(&st, "ccf-core.delete_row", counts.rows_deleted),
        );
        layer.insert(
            "ccf-core.allocs_per_insert",
            per_k(counts.insert_allocs, counts.rows_inserted),
        );
        layer.insert(
            "ccf-core.allocs_per_delete",
            per_k(counts.delete_allocs, counts.rows_deleted),
        );
        layer.insert(
            "ccf-core.allocs_per_kkey_probed",
            per_k(
                counts.probe_allocs * 1000,
                counts.keys_queried + counts.keys_contained,
            ),
        );
        memory.record(size.window as f64, &mut layer);
        layer.insert("ccf-shard.imbalance", 1.0);
        phases_match_clock = record_phases(tracer, &clock, &mut layer);
    }
    let mut outcome = Outcome::assemble(
        Measured {
            setup_s,
            clock,
            bytes_per_row: memory.heap / size.window as f64,
            layer,
            phases_match_clock,
        },
        tally,
        traced,
    );
    outcome.notes.push(memory.note(size.window as f64));
    outcome.notes.push(format!(
        "{} casualties of the chained-deletion fault per round",
        inputs.casualty.replay().1
    ));
    outcome
}

impl Run<'_> {
    /// Insert rows `range` of the stream (cyclically) as one timed batch; returns the
    /// heap bytes the filter retained.
    fn insert_batch(
        &mut self,
        filter: &mut ChainedCcf,
        range: std::ops::Range<usize>,
        batch_id: u64,
        live: &mut LiveRows<'_>,
    ) -> i64 {
        let (inputs, tracer) = (self.inputs, &mut *self.tracer);
        let n = inputs.stream.len();
        let phase = tracer.begin(Phase::Insert.span(), batch_id);
        let span = tracer.begin("ccf-core.insert_row", batch_id);
        let mem = Reading::now();
        let t = Instant::now();
        let mut bad = 0usize;
        for p in range.clone() {
            let row = inputs.stream[p % n];
            let r = filter.insert_row(inputs.keys[row.key_idx as usize], &row.attrs());
            bad += usize::from(!matches!(r, Ok(InsertOutcome::Inserted)));
        }
        let elapsed = t.elapsed();
        let retained = mem.retained_since();
        self.counts.insert_allocs += mem.events_since();
        tracer.end(span);
        tracer.end(phase);
        self.clock.add(Phase::Insert, range.len(), elapsed);
        self.counts.rows_inserted += range.len() as u64;
        for p in range.clone() {
            live.apply(inputs.stream[p % n], 1);
        }
        self.tally.batch(range.len() as u64, bad as u64, || {
            format!("{bad} inserts were not stored")
        });
        retained
    }

    /// One round: a fresh filter, the window fill, then the steps. The first round
    /// also records the filter's memory once the window is full.
    fn round(&mut self, round: u64, memory: Option<&mut FilterMemory>) {
        let inputs = self.inputs;
        let size = inputs.size;
        let n = inputs.stream.len();
        let mut live = LiveRows::new(inputs);
        let batch_base = round << 32;
        let absent_before = (self.counts.absent_probes, self.counts.false_positives);

        let mem = Reading::now();
        let mut filter = ChainedCcf::new(inputs.params);
        let mut heap = mem.retained_since();
        let mut at = 0usize;
        while at < size.window {
            let end = (at + size.batch).min(size.window);
            heap += self.insert_batch(&mut filter, at..end, batch_base | at as u64, &mut live);
            at = end;
        }
        if let Some(m) = memory {
            *m = FilterMemory {
                heap: heap as f64,
                reported: filter.occupancy().heap_bytes as f64,
                model: filter.size_bits() as f64 / 8.0,
                load: filter.load_factor(),
                doublings: f64::from(filter.growth_stats().growth_bits),
            };
        }

        let fingerprinter = Fingerprinter::new(
            &HashFamily::new(inputs.params.seed),
            inputs.params.fingerprint_bits,
        );
        for step in 0..size.steps {
            let batch_id = batch_base | (1 << 31) | step as u64;
            let new = size.window + step * size.batch;
            self.insert_batch(&mut filter, new..new + size.batch, batch_id, &mut live);
            let (tracer, tally, clock, counts) = (
                &mut *self.tracer,
                &mut self.tally,
                &mut self.clock,
                &mut self.counts,
            );

            // Delete the oldest batch.
            let old = step * size.batch..(step + 1) * size.batch;
            let phase = tracer.begin(Phase::Delete.span(), batch_id);
            let span = tracer.begin("ccf-core.delete_row", batch_id);
            let mem = Reading::now();
            let t = Instant::now();
            let mut missed = 0usize;
            for p in old.clone() {
                let row = inputs.stream[p % n];
                let r = filter.delete_row(inputs.keys[row.key_idx as usize], &row.attrs());
                missed += usize::from(r != Ok(true));
            }
            let elapsed = t.elapsed();
            counts.delete_allocs += mem.events_since();
            tracer.end(span);
            tracer.end(phase);
            clock.add(Phase::Delete, size.batch, elapsed);
            counts.rows_deleted += size.batch as u64;
            for p in old {
                live.apply(inputs.stream[p % n], -1);
            }
            tally.batch(size.batch as u64, missed as u64, || {
                format!("{missed} deletes of live rows found no entry (step {step})")
            });

            for (j, q) in inputs.queries[step].iter().enumerate() {
                let id = batch_id | (j as u64) << 16;
                let phase = tracer.begin(Phase::Query.span(), id);
                let span = tracer.begin("ccf-core.query_batch", id);
                let mem = Reading::now();
                let t = Instant::now();
                let hits = filter.query_batch(&q.keys, &q.pred);
                let elapsed = t.elapsed();
                counts.probe_allocs += mem.events_since();
                tracer.end(span);
                tracer.end(phase);
                clock.add(Phase::Query, q.keys.len(), elapsed);
                counts.keys_queried += q.keys.len() as u64;
                check_answers(
                    tally,
                    counts,
                    &hits,
                    &q.idx,
                    |i| live.has_row(i, q.cat),
                    "query",
                );

                let phase = tracer.begin(Phase::Contains.span(), id);
                let span = tracer.begin("ccf-core.contains_key_batch", id);
                let mem = Reading::now();
                let t = Instant::now();
                let hits = filter.contains_key_batch(&q.keys);
                let elapsed = t.elapsed();
                counts.probe_allocs += mem.events_since();
                tracer.end(span);
                tracer.end(phase);
                clock.add(Phase::Contains, q.keys.len(), elapsed);
                counts.keys_contained += q.keys.len() as u64;
                check_answers(
                    tally,
                    counts,
                    &hits,
                    &q.idx,
                    |i| live.has_key(i),
                    "contains",
                );
            }

            if tracer.on() {
                // Hash layer in isolation over this step's keys and inserted rows.
                let span = tracer.begin("ccf-hash.fingerprint_and_bucket", batch_id);
                let base = filter.growth_stats().base_buckets;
                let mut acc = 0usize;
                for q in &inputs.queries[step] {
                    for &k in &q.keys {
                        let (fp, b) = fingerprinter.fingerprint_and_bucket(k, base);
                        acc = acc.wrapping_add(usize::from(fp) ^ b);
                    }
                    counts.hashed_keys += q.keys.len() as u64;
                }
                std::hint::black_box(acc);
                tracer.end(span);
                let span = tracer.begin("ccf-hash.fingerprint_vector", batch_id);
                let attr_fp = filter.attr_fingerprinter();
                for p in new..new + size.batch {
                    std::hint::black_box(attr_fp.fingerprint_vector(&inputs.stream[p % n].attrs()));
                }
                counts.hashed_rows += size.batch as u64;
                tracer.end(span);
            }
        }

        // The round's absent-key answers against the §7 bound at its load: one check
        // per round, so every round attempts the same operations.
        let probes = self.counts.absent_probes - absent_before.0;
        let false_positives = self.counts.false_positives - absent_before.1;
        let p = inputs.params;
        let bound = absent_key_fpr_bound(
            p.entries_per_bucket,
            filter.load_factor(),
            p.fingerprint_bits,
        );
        self.tally
            .check(fpr_within_bound(false_positives, probes, bound), || {
                format!(
                    "{false_positives} false positives in {probes} absent probes exceed the §7 \
             bound {bound:.2e}"
                )
            });
    }
}

/// Check one batch of answers: no false negative for a key the oracle says is live
/// (one checked operation per key), and count false positives on absent keys.
fn check_answers(
    tally: &mut Tally,
    counts: &mut Counts,
    hits: &[bool],
    idx: &[Option<u32>],
    expected: impl Fn(Option<u32>) -> bool,
    what: &str,
) {
    tally.check(hits.len() == idx.len(), || {
        format!("{what} batch answered {} of {} keys", hits.len(), idx.len())
    });
    for (&hit, &i) in hits.iter().zip(idx) {
        if i.is_none() {
            counts.absent_probes += 1;
            counts.false_positives += usize::from(hit);
            tally.attempted += 1;
        } else {
            tally.check(hit || !expected(i), || {
                format!("{what}: live key #{} answered false", i.unwrap_or(0))
            });
        }
    }
}

/// A fixed, seed-independent replay that trips the chained-deletion fault: hot keys
/// under a 5-bit key fingerprint share κ often enough that a delete for one key
/// desaturates a pair in another key's chain and hides its deeper rows. Replays are
/// deterministic, so every round counts the same casualties.
struct Casualty {
    ops: Vec<ChurnOp>,
    live: Vec<ccf_workloads::multiset::Row>,
    params: CcfParams,
}

impl Casualty {
    const WINDOW: usize = 600;
    const INSERTS: usize = 2400;

    fn new() -> Self {
        let churn = SlidingWindowChurn::new(Self::WINDOW, 2, 40, 0x0CA5_0A17);
        let params = CcfParams {
            fingerprint_bits: 5,
            num_attrs: 2,
            seed: 0x5EED,
            ..CcfParams::default()
        }
        .sized_for_entries(Self::WINDOW, 0.7)
        .with_auto_grow();
        Self {
            ops: churn.ops(Self::INSERTS),
            live: churn.live_after(Self::INSERTS),
            params,
        }
    }

    /// Replay the scenario on a fresh filter: (operations checked, casualties).
    fn replay(&self) -> (u64, u64) {
        let mut filter = ChainedCcf::new(self.params);
        let (mut attempted, mut failed) = (0u64, 0u64);
        for op in &self.ops {
            match op {
                ChurnOp::Insert(row) => {
                    attempted += 1;
                    failed += u64::from(filter.insert_row(row.key, &row.attrs).is_err());
                }
                ChurnOp::Delete(row) => {
                    attempted += 1;
                    failed += u64::from(filter.delete_row(row.key, &row.attrs) != Ok(true));
                }
            }
        }
        for row in &self.live {
            let pred = Predicate::any(2)
                .and_eq(0, row.attrs[0])
                .and_eq(1, row.attrs[1]);
            attempted += 1;
            failed += u64::from(!(filter.query(row.key, &pred) && filter.contains_key(row.key)));
        }
        (attempted, failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Size = Size {
        window: 20_000,
        stream: 24_000,
        hot_keys: 1000,
        mean_dupes: 8.0,
        steps: 6,
        batch: 1000,
        query_batches: 2,
        live_keys: 96,
        absent_keys: 32,
    };

    #[test]
    fn casualty_replay_fails_the_same_way_every_time() {
        let c = Casualty::new();
        let first = c.replay();
        assert!(first.1 > 0, "the scenario must trip the fault: {first:?}");
        assert_eq!(first, c.replay());
    }

    #[test]
    fn tiny_run_has_only_the_known_failures() {
        let out = run_sized(5, Duration::ZERO, &mut Tracer::new(false), TINY);
        assert!(out.correct, "{:?}", out.notes);
        assert_eq!(out.failed, Casualty::new().replay().1);
        let traced = run_sized(5, Duration::ZERO, &mut Tracer::new(true), TINY);
        assert!(traced.correct, "{:?}", traced.notes);
        assert_eq!(traced.failed, out.failed);
        assert_eq!(traced.attempted, out.attempted);
    }

    #[test]
    fn failed_share_is_the_same_however_many_rounds_run() {
        let one = run_sized(6, Duration::ZERO, &mut Tracer::new(false), TINY);
        let more = run_sized(6, Duration::from_millis(150), &mut Tracer::new(false), TINY);
        let other_seed = run_sized(7, Duration::ZERO, &mut Tracer::new(false), TINY);
        assert!(
            more.attempted > one.attempted,
            "the longer run must run more rounds"
        );
        assert_eq!(one.failed * more.attempted, more.failed * one.attempted);
        assert_eq!(
            (one.failed, one.attempted),
            (other_seed.failed, other_seed.attempted)
        );
    }

    #[test]
    fn a_planted_false_negative_is_counted() {
        let mut tally = Tally::default();
        let mut counts = Counts::default();
        check_answers(
            &mut tally,
            &mut counts,
            &[true, false, false],
            &[Some(0), Some(1), None],
            |_| true,
            "query",
        );
        assert_eq!((tally.attempted, tally.failed), (4, 1));
        assert!(!tally.only_known_failures());
    }
}
