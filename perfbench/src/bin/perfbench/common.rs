//! What every workload shares: the metric catalogue, the tally of checked
//! operations, pass timing, percentiles, the §7 false-positive bound, key pools and
//! the JSON result line.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ccf_hash::{Fingerprinter, HashFamily};
use rand::rngs::StdRng;
use rand::RngCore;

/// End-to-end metrics: name and unit. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("insert_mrows_s", "Mrows/s"),
    ("query_mkeys_s", "Mkeys/s"),
    ("contains_mkeys_s", "Mkeys/s"),
    ("delete_mrows_s", "Mrows/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("bytes_per_row", "B"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: name and unit. A traced run of every workload reports all of
/// them; a layer that is not on a workload's path reads 0 there (README lists the
/// workload each metric belongs to).
pub const PER_LAYER: [(&str, &str); 35] = [
    ("ccf-hash.key_ns_per_key", "ns"),
    ("ccf-hash.attr_ns_per_row", "ns"),
    ("ccf-cuckoo.contains_ns_per_key", "ns"),
    ("ccf-core.insert_ns_per_row", "ns"),
    ("ccf-core.query_ns_per_key", "ns"),
    ("ccf-core.contains_ns_per_key", "ns"),
    ("ccf-core.delete_ns_per_row", "ns"),
    ("ccf-core.allocs_per_insert", "count"),
    ("ccf-core.allocs_per_delete", "count"),
    ("ccf-core.allocs_per_kkey_probed", "count"),
    ("ccf-core.heap_bytes_per_row", "B"),
    ("ccf-core.reported_heap_bytes_per_row", "B"),
    ("ccf-core.model_bytes_per_row", "B"),
    ("ccf-core.heap_over_model", "ratio"),
    ("ccf-core.load_factor", "ratio"),
    ("ccf-core.doublings", "count"),
    ("ccf-shard.route_ns_per_key", "ns"),
    ("ccf-shard.fanout_us_per_batch", "us"),
    ("ccf-shard.imbalance", "ratio"),
    ("ccf-service.codec_us_per_batch", "us"),
    ("ccf-service.wire_bytes_per_key", "B"),
    ("ccf-service.transport_us_per_batch", "us"),
    ("ccf-join.scan_ns_per_row", "ns"),
    ("ccf-join.probe_keys_per_query", "count"),
    ("ccf-join.ccf_reduction_factor", "ratio"),
    ("ccf-join.key_reduction_factor", "ratio"),
    ("ccf-join.fpr_vs_binned", "ratio"),
    ("insert.traced_ms", "ms"),
    ("insert.uncovered_ms", "ms"),
    ("query.traced_ms", "ms"),
    ("query.uncovered_ms", "ms"),
    ("contains.traced_ms", "ms"),
    ("contains.uncovered_ms", "ms"),
    ("delete.traced_ms", "ms"),
    ("delete.uncovered_ms", "ms"),
];

/// The four timed phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Insert = 0,
    Query = 1,
    Contains = 2,
    Delete = 3,
}

impl Phase {
    /// The phase's name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Insert => "insert",
            Phase::Query => "query",
            Phase::Contains => "contains",
            Phase::Delete => "delete",
        }
    }

    /// Name of the phase's top-level span.
    pub fn span(self) -> &'static str {
        match self {
            Phase::Insert => "phase.insert",
            Phase::Query => "phase.query",
            Phase::Contains => "phase.contains",
            Phase::Delete => "phase.delete",
        }
    }
}

/// Checked operations: how many were attempted, how many failed, and a few failure
/// messages for standard error.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failures of the known chained-deletion fault, counted apart so that any
    /// other failure makes the run incorrect.
    pub known_failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    const MAX_NOTES: usize = 8;

    /// Record one checked operation; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < Self::MAX_NOTES {
                self.notes.push(what());
            }
        }
    }

    /// Record a batch of `attempted` checked operations of which `failed` failed.
    pub fn batch(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.notes.len() < Self::MAX_NOTES {
            self.notes.push(what());
        }
    }

    /// Record operations of the known fault: `attempted` of them, `failed` failing.
    pub fn known(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        self.known_failed += failed;
    }

    /// Whether every failure is one of the known fault's.
    pub fn only_known_failures(&self) -> bool {
        self.failed == self.known_failed
    }
}

/// Per phase, the work and the best time of every timed unit, by its position in a
/// pass. Every pass runs the same sequence of units (the same batches, or batches of
/// the same size), so a position's best time over the passes is that unit with as
/// little interference from other processes as the run saw. Rates divide the work
/// of all positions by the sum of their best times; latency percentiles are taken
/// over the query positions' best times, or, with a latency group of `k` passes,
/// over each position's best time in each complete group of `k` passes.
///
/// The clock also keeps every phase's total time and unit count over all passes, for
/// the traced run to set against its phase spans.
#[derive(Debug, Default)]
pub struct PassClock {
    units: [Vec<(u64, u64)>; 4],
    cursor: [usize; 4],
    passes: usize,
    total_ns: [u64; 4],
    total_units: [u64; 4],
    /// Passes per latency group; 0 for one group of all passes.
    group: usize,
    /// Query positions' best times in the current latency group.
    open: Vec<u64>,
    /// Query positions' best times in every complete latency group.
    closed: Vec<u64>,
}

impl PassClock {
    /// A clock whose latency samples are the query positions' best times in each
    /// complete group of `passes` passes.
    pub fn with_latency_group(passes: usize) -> Self {
        PassClock {
            group: passes,
            ..PassClock::default()
        }
    }

    /// Record the next unit of a phase in the current pass: `work` items in
    /// `elapsed`.
    pub fn add(&mut self, phase: Phase, work: usize, elapsed: Duration) {
        let p = phase as usize;
        let ns = elapsed.as_nanos() as u64;
        match self.units[p].get_mut(self.cursor[p]) {
            Some(unit) => unit.1 = unit.1.min(ns),
            None => self.units[p].push((work as u64, ns)),
        }
        if phase == Phase::Query {
            match self.open.get_mut(self.cursor[p]) {
                Some(best) => *best = (*best).min(ns),
                None => self.open.push(ns),
            }
        }
        self.cursor[p] += 1;
        self.total_ns[p] += ns;
        self.total_units[p] += 1;
    }

    /// Close the current pass.
    pub fn end_pass(&mut self) {
        self.cursor = [0; 4];
        self.passes += 1;
        if self.group > 0 && self.passes.is_multiple_of(self.group) {
            self.closed.append(&mut self.open);
        }
    }

    /// A phase's rate over its units' best times, in millions of items per second.
    pub fn best_mrate(&self, phase: Phase) -> f64 {
        let units = &self.units[phase as usize];
        let work: u64 = units.iter().map(|u| u.0).sum();
        let ns: u64 = units.iter().map(|u| u.1).sum();
        if ns == 0 {
            0.0
        } else {
            work as f64 / ns as f64 * 1e3
        }
    }

    /// The query latency samples in microseconds: the positions' best times in each
    /// complete latency group, or over all passes so far if no group is complete.
    pub fn latency_us(&self) -> Vec<f64> {
        let ns = if self.closed.is_empty() {
            &self.open
        } else {
            &self.closed
        };
        ns.iter().map(|&t| t as f64 / 1e3).collect()
    }

    /// A phase's units over all passes, and their summed time in nanoseconds.
    pub fn totals(&self, phase: Phase) -> (u64, u64) {
        let p = phase as usize;
        (self.total_units[p], self.total_ns[p])
    }

    /// Number of closed passes.
    pub fn passes(&self) -> usize {
        self.passes
    }
}

/// Nearest-rank percentile of unsorted samples (`q` in 0..=1); 0 for no samples.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

/// Set-up repeats for this share of a run's measuring budget, and at least
/// [`SETUP_MIN_REPS`] times; `setup_s` is the shortest repetition. On a shared
/// machine whole stretches of a second or two run 30 % slower, so the repetitions
/// must span several seconds for the shortest to be a quiet one.
pub const SETUP_BUDGET_SHARE: u32 = 8;
/// Fewest set-up repetitions per run.
pub const SETUP_MIN_REPS: usize = 3;

/// Run `setup` at least [`SETUP_MIN_REPS`] times and until `span` has passed,
/// keeping the last result; also return the shortest repetition in seconds.
/// Earlier results are dropped before the next repetition.
pub fn repeated_setup<T>(span: Duration, mut setup: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let mut best = f64::INFINITY;
    let mut reps = 0;
    let mut last = None;
    while reps < SETUP_MIN_REPS || start.elapsed() < span {
        drop(last.take());
        let t = Instant::now();
        let value = setup();
        best = best.min(t.elapsed().as_secs_f64());
        last = Some(value);
        reps += 1;
    }
    (last.expect("at least one setup repetition ran"), best)
}

/// The §7.1 bound on the rate at which an absent key matches (eq. 4): the expected
/// number of occupied slots in the probed bucket pair, `2·b·β`, times `2^{-|κ|}`.
/// It bounds predicate queries on absent keys too, since a chain walk can only
/// report a match after a fingerprint match in the first pair.
pub fn absent_key_fpr_bound(entries_per_bucket: usize, load: f64, fp_bits: u32) -> f64 {
    (2.0 * entries_per_bucket as f64 * load * 2f64.powi(-(fp_bits as i32))).min(1.0)
}

/// Whether `false_positives` out of `probes` absent-key probes is within the bound,
/// allowing binomial noise (five standard deviations of a Poisson count, plus three).
pub fn fpr_within_bound(false_positives: usize, probes: usize, bound: f64) -> bool {
    let expected = bound * probes as f64;
    false_positives as f64 <= expected + 5.0 * expected.sqrt() + 3.0
}

/// A pool of `hot + single` keys: the first `hot` (keys that will have several live
/// rows) have fingerprints, under the given hash family, shared with no other key of
/// the pool; the `single` keys that follow (one live row each) avoid the hot keys'
/// fingerprints but may share among themselves. Keys have the top bit clear;
/// [`absent_key`] sets it, so absent keys never collide with pool keys.
///
/// Chained deletion is exact for a key whose fingerprint no other live key shares,
/// and single-row keys never form chains unless four of them share one fingerprint
/// and bucket pair (odds below 10⁻⁷ at the benchmark's sizes). Drawing keys this way
/// keeps the seeded streams clear of the known chained-deletion fault, whose
/// casualties would otherwise vary by seed.
pub fn key_pool(
    hot: usize,
    single: usize,
    family_seed: u64,
    fp_bits: u32,
    rng: &mut StdRng,
) -> Vec<u64> {
    let fingerprinter = Fingerprinter::new(&HashFamily::new(family_seed), fp_bits);
    let mut hot_fp = vec![false; 1 << fp_bits];
    assert!(
        hot < hot_fp.len() / 2,
        "{hot} hot keys need more than {fp_bits}-bit fingerprints"
    );
    let mut keys = Vec::with_capacity(hot + single);
    while keys.len() < hot {
        let key = rng.next_u64() >> 1;
        let fp = usize::from(fingerprinter.fingerprint(key));
        if !hot_fp[fp] {
            hot_fp[fp] = true;
            keys.push(key);
        }
    }
    while keys.len() < hot + single {
        let key = rng.next_u64() >> 1;
        if !hot_fp[usize::from(fingerprinter.fingerprint(key))] {
            keys.push(key);
        }
    }
    keys
}

/// A key that is in no pool made by [`key_pool`].
pub fn absent_key(rng: &mut StdRng) -> u64 {
    rng.next_u64() | 1 << 63
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 if unreadable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A filter's memory: the heap the counting allocator saw it retain, what its own
/// `heap_bytes()` and `size_bits()` report, and its load and growth.
#[derive(Debug, Default)]
pub struct FilterMemory {
    pub heap: f64,
    pub reported: f64,
    pub model: f64,
    pub load: f64,
    pub doublings: f64,
}

impl FilterMemory {
    /// Add the memory per-layer metrics for `rows` live rows.
    pub fn record(&self, rows: f64, layer: &mut BTreeMap<&'static str, f64>) {
        layer.insert("ccf-core.heap_bytes_per_row", self.heap / rows);
        layer.insert("ccf-core.reported_heap_bytes_per_row", self.reported / rows);
        layer.insert("ccf-core.model_bytes_per_row", self.model / rows);
        layer.insert("ccf-core.heap_over_model", self.heap / self.model);
        layer.insert("ccf-core.load_factor", self.load);
        layer.insert("ccf-core.doublings", self.doublings);
    }

    /// Measured against reported memory, for standard error.
    pub fn note(&self, rows: f64) -> String {
        format!(
            "filter heap {:.1} B/row measured by the allocator, {:.1} B/row by \
             heap_bytes(), {:.1} B/row by size_bits()",
            self.heap / rows,
            self.reported / rows,
            self.model / rows
        )
    }
}

/// A workload's result.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub notes: Vec<String>,
}

/// The measurements a workload hands to [`Outcome::assemble`].
#[derive(Debug, Default)]
pub struct Measured {
    pub setup_s: f64,
    pub clock: PassClock,
    pub bytes_per_row: f64,
    /// Per-layer values by name; names missing here read 0.
    pub layer: BTreeMap<&'static str, f64>,
    /// Whether the traced run's phase spans agreed with the clock.
    pub phases_match_clock: bool,
}

impl Outcome {
    /// Build the result: end-to-end metrics when `traced` is false, per-layer
    /// metrics otherwise.
    pub fn assemble(m: Measured, tally: Tally, traced: bool) -> Self {
        let mut notes = tally.notes.clone();
        let mut metrics = Vec::new();
        if traced {
            for (name, unit) in PER_LAYER {
                metrics.push((name, unit, m.layer.get(name).copied().unwrap_or(0.0)));
            }
            // The traced rates, to set against an untraced run's: tracing overhead.
            let rates = [Phase::Insert, Phase::Query, Phase::Contains, Phase::Delete]
                .map(|p| format!("{p:?} {:.4}", m.clock.best_mrate(p)));
            notes.push(format!("traced rates (M/s): {}", rates.join(", ")));
        } else {
            let mut query_us = m.clock.latency_us();
            let samples = query_us.len();
            if samples < 1000 {
                notes.push(format!(
                    "only {samples} query units: fewer than ten lie beyond p99"
                ));
            }
            let values = [
                m.setup_s,
                m.clock.best_mrate(Phase::Insert),
                m.clock.best_mrate(Phase::Query),
                m.clock.best_mrate(Phase::Contains),
                m.clock.best_mrate(Phase::Delete),
                percentile(&mut query_us, 0.5),
                percentile(&mut query_us, 0.99),
                m.bytes_per_row,
                peak_rss_mib(),
            ];
            for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
                metrics.push((name, unit, value));
            }
            notes.push(format!(
                "{} passes, {samples} query units",
                m.clock.passes()
            ));
        }
        let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
        if !finite {
            notes.push("a metric is not a finite number".into());
        }
        Outcome {
            correct: tally.only_known_failures() && finite && (!traced || m.phases_match_clock),
            attempted: tally.attempted.max(1),
            failed: tally.failed,
            metrics,
            notes,
        }
    }

    /// The result as one line of JSON.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Copy a traced run's phase breakdown into per-layer metrics; returns whether the
/// phase spans agree with the clock: every phase has as many spans as the clock has
/// units, and their summed duration covers the clock's summed time, exceeding it by
/// at most the spans' own bookkeeping (2 % plus 20 µs per span).
pub fn record_phases(
    tracer: &crate::trace::Tracer,
    clock: &PassClock,
    layer: &mut BTreeMap<&'static str, f64>,
) -> bool {
    let breakdown = tracer.phase_breakdown();
    let mut agree = true;
    for (phase, traced, uncovered) in [
        (Phase::Insert, "insert.traced_ms", "insert.uncovered_ms"),
        (Phase::Query, "query.traced_ms", "query.uncovered_ms"),
        (
            Phase::Contains,
            "contains.traced_ms",
            "contains.uncovered_ms",
        ),
        (Phase::Delete, "delete.traced_ms", "delete.uncovered_ms"),
    ] {
        let b = breakdown.get(phase.name()).cloned().unwrap_or_default();
        let (units, clock_ns) = clock.totals(phase);
        // Span ends are truncated to whole nanoseconds, so allow 1 ns per span below.
        agree &= b.spans == units
            && b.traced_ns + units >= clock_ns
            && b.traced_ns as f64 <= clock_ns as f64 * 1.02 + 20e3 * units as f64;
        layer.insert(traced, b.traced_ns as f64 / 1e6);
        layer.insert(uncovered, b.uncovered_ns as f64 / 1e6);
    }
    agree
}

/// Self time of span `name` per unit of work, in nanoseconds (0 with no work).
pub fn ns_per(self_times: &BTreeMap<&'static str, u64>, name: &str, work: u64) -> f64 {
    if work == 0 {
        return 0.0;
    }
    self_times.get(name).copied().unwrap_or(0) as f64 / work as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn pool_keys_have_distinct_fingerprints() {
        let mut rng = StdRng::seed_from_u64(3);
        let keys = key_pool(1000, 5000, 11, 12, &mut rng);
        let f = Fingerprinter::new(&HashFamily::new(11), 12);
        let hot: std::collections::HashSet<u16> =
            keys[..1000].iter().map(|&k| f.fingerprint(k)).collect();
        assert_eq!(hot.len(), 1000);
        assert!(keys[1000..]
            .iter()
            .all(|&k| !hot.contains(&f.fingerprint(k))));
        assert!(keys.iter().all(|&k| k >> 63 == 0));
        assert!(absent_key(&mut rng) >> 63 == 1);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let names = json.matches("\"name\": ").count();
        assert_eq!(names, 3 + END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} [{unit}] missing from {path}");
        }
    }

    #[test]
    fn phase_spans_must_agree_with_the_clock() {
        let mut tracer = crate::trace::Tracer::new(true);
        let mut clock = PassClock::default();
        let mut layer = BTreeMap::new();
        let span = tracer.begin(Phase::Query.span(), 0);
        let t = Instant::now();
        std::hint::black_box((0..1000u64).sum::<u64>());
        clock.add(Phase::Query, 1, t.elapsed());
        tracer.end(span);
        assert!(record_phases(&tracer, &clock, &mut layer));

        // A unit the clock timed outside any phase span.
        let mut extra = PassClock::default();
        extra.add(Phase::Query, 1, t.elapsed());
        extra.add(Phase::Query, 1, Duration::from_micros(1));
        assert!(!record_phases(&tracer, &extra, &mut layer));

        // A unit the clock timed longer than the span around it.
        let mut longer = PassClock::default();
        longer.add(Phase::Query, 1, Duration::from_secs(1));
        assert!(!record_phases(&tracer, &longer, &mut layer));
    }

    #[test]
    fn latency_samples_are_best_times_within_groups() {
        let times = [[5, 1], [3, 4], [1, 1]];
        let mut grouped = PassClock::with_latency_group(2);
        let mut whole = PassClock::default();
        for pass in times {
            for t in pass {
                grouped.add(Phase::Query, 1, Duration::from_micros(t));
                whole.add(Phase::Query, 1, Duration::from_micros(t));
            }
            grouped.end_pass();
            whole.end_pass();
        }
        // The third pass opens a second group that never completes.
        assert_eq!(grouped.latency_us(), [3.0, 1.0]);
        assert_eq!(whole.latency_us(), [1.0, 1.0]);
        assert_eq!(
            grouped.best_mrate(Phase::Query),
            whole.best_mrate(Phase::Query)
        );
    }

    #[test]
    fn fpr_check_tolerates_noise_but_not_excess() {
        assert!(fpr_within_bound(12, 10_000, 0.001));
        assert!(!fpr_within_bound(100, 10_000, 0.001));
    }

    #[test]
    fn json_line_has_the_driver_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 1,
            metrics: vec![("setup_s", "s", 0.25)],
            notes: vec![],
        };
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
