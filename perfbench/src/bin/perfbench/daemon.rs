//! `daemon_loopback`: an in-process `ccf-service` daemon on 127.0.0.1.
//!
//! The daemon hosts one chained tenant with 2 shards. One client runs a closed loop
//! over one connection: insert a batch of new rows, several query batches and one
//! contains batch over live and absent keys, delete the oldest batch. Keys are
//! dispersed (one live row each). The client, the daemon and its fan-out workers
//! share one CPU (see `threads`). Every wire answer is compared bit for bit with an in-process twin tenant
//! fed the same batches, and checked against the multiset of live rows.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ccf_core::{CcfParams, Predicate, VariantKind};
use ccf_hash::{AttrFingerprinter, Fingerprinter, HashFamily};
use ccf_service::wire::{self, BodyReader, BodyWriter, Opcode, Request, Response};
use ccf_service::{Client, DaemonConfig, RunningDaemon, Tenant, TenantSpec};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::alloc::Reading;
use crate::common::{
    absent_key, absent_key_fpr_bound, fpr_within_bound, ns_per, record_phases, repeated_setup,
    FilterMemory, Measured, Outcome, PassClock, Phase, Tally, SETUP_BUDGET_SHARE,
};
use crate::trace::Tracer;

/// Workload size; tests shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Live rows once the window is full.
    pub window: usize,
    /// Rows per insert, delete, query and contains batch.
    pub batch: usize,
    /// Absent keys in each query and contains batch.
    pub absent_keys: usize,
    /// Query batches per iteration, each over keys of its own.
    pub queries: usize,
    /// Closed-loop iterations per pass.
    pub iterations: usize,
}

impl Size {
    /// 1000 query units per pass, so that ten lie beyond p99. Query units are the
    /// cheapest in a pass, so eight per iteration fit more passes into a run than
    /// one did: 31–34 in 30 s, where the positions' best times have settled.
    pub const DEFAULT: Size = Size {
        window: 1 << 17,
        batch: 512,
        absent_keys: 128,
        queries: 8,
        iterations: 125,
    };
}

/// Rows per insert batch of the untimed window fill. Few large round trips keep
/// `setup_s` from resting on hundreds of thread wake-ups.
const FILL_BATCH: usize = 8192;

/// Passes per latency group: each latency sample is a query position's best of
/// three passes. Every query unit here is the same size, so a position's best over
/// a whole run only tells how often the run caught the machine in its fast mode:
/// stretches of tens of milliseconds in which round trips take about 200 µs against
/// the usual 300–350 µs. The p99 of such bests spread by 13–19 % of its median
/// between runs and moved 25 % between two sets of ten runs. Over bests of three,
/// which fall in the usual mode, p99 spread by 5–7 % and p50 by 8–10 % in two sets
/// of five runs.
const LATENCY_GROUP: usize = 3;

const TENANT: u32 = 1;
const SHARDS: usize = 2;
const CATEGORIES: u64 = 16;
const FP_BITS: u32 = 16;

/// A running daemon and the client connected to it; dropping it closes the
/// connection and shuts the daemon down.
struct Server {
    client: Option<Client>,
    daemon: Option<RunningDaemon>,
}

impl Server {
    fn start(spec: &TenantSpec) -> Result<Self, String> {
        let daemon = ccf_service::start(DaemonConfig {
            listen: "127.0.0.1:0".into(),
            tenants: vec![spec.clone()],
            snapshot_dir: None,
        })
        .map_err(|e| format!("daemon did not start: {e}"))?;
        let client = Client::connect(daemon.local_addr())
            .and_then(|c| c.set_timeout(Some(Duration::from_secs(60))).map(|()| c))
            .map_err(|e| format!("could not connect to the daemon: {e}"));
        let mut server = Server {
            client: None,
            daemon: Some(daemon),
        };
        server.client = Some(client?);
        Ok(server)
    }

    fn client(&mut self) -> &mut Client {
        self.client.as_mut().expect("a live server has a client")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        drop(self.client.take());
        if let Some(daemon) = self.daemon.take() {
            daemon.request_shutdown();
            if let Err(e) = daemon.wait() {
                eprintln!("perfbench: daemon shut down with an error: {e}");
            }
        }
    }
}

struct Inputs {
    size: Size,
    spec: TenantSpec,
    keys: Vec<u64>,
    /// Attribute vector of each key's one row.
    attrs: Vec<[u64; 3]>,
    /// Stream positions of each category (the first attribute), ascending.
    by_category: Vec<Vec<u32>>,
    server: Server,
}

/// Rows `from..from + batch` of the cyclic stream.
fn stream_rows(
    keys: &[u64],
    attrs: &[[u64; 3]],
    from: usize,
    batch: usize,
) -> Vec<(u64, Vec<u64>)> {
    let n = keys.len();
    (from..from + batch)
        .map(|p| (keys[p % n], attrs[p % n].to_vec()))
        .collect()
}

/// Set how many worker threads the twin's batch calls fan out over.
fn set_twin_threads(twin: &mut Tenant, threads: usize) {
    if let Tenant::Sharded(s) = twin {
        s.set_threads(threads);
    }
}

/// The twin, filled with the window's rows before the daemon starts: no daemon
/// thread allocates or frees while the allocator's reading brackets the fill, and
/// every answer vector is dropped before the reading ends, so the retained heap is
/// the twin's alone. Returns the twin, that heap, and the twin's answer code for
/// every row of the fill.
///
/// The twin runs its batches on the calling thread: a sharded batch's answers are
/// the same for any number of worker threads, and untimed checks that start no
/// threads leave more of a run to the timed round trips. Traced runs give the twin
/// the daemon's threads again, so that its fan-out can be timed.
fn filled_twin(
    spec: &TenantSpec,
    keys: &[u64],
    attrs: &[[u64; 3]],
    size: Size,
) -> Result<(Tenant, i64, Vec<u8>), String> {
    let mut codes = Vec::with_capacity(size.window);
    let mem = Reading::now();
    let mut twin = Tenant::from_spec(spec).map_err(|e| format!("the twin did not build: {e}"))?;
    set_twin_threads(&mut twin, 1);
    while codes.len() < size.window {
        let batch = FILL_BATCH.min(size.window - codes.len());
        let rows = stream_rows(keys, attrs, codes.len(), batch);
        codes.extend(
            twin.insert_batch(&rows)
                .iter()
                .map(wire::insert_result_code),
        );
    }
    Ok((twin, mem.retained_since(), codes))
}

/// Inputs, the filled twin, a started daemon with its connection, and the window
/// filled through the wire: everything before the first timed phase.
fn setup(seed: u64, size: Size) -> Result<(Inputs, Loop), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDAE7);
    let params = CcfParams {
        fingerprint_bits: FP_BITS,
        attr_bits: 8,
        num_attrs: 3,
        seed: seed.wrapping_mul(0xA24B_AED4_963E_E407),
        ..CcfParams::default()
    }
    .sized_for_entries(size.window / SHARDS, 0.7)
    .with_auto_grow();
    let spec = TenantSpec {
        id: TENANT,
        variant: VariantKind::Chained,
        shards: SHARDS,
        params,
    };
    // The stream cycles through twice the window, so a row is gone for a whole
    // window before it returns.
    // Dispersed keys: one live row each. The top bit stays clear, so no key is
    // an `absent_key`.
    let keys: Vec<u64> = (0..2 * size.window).map(|_| rng.next_u64() >> 1).collect();
    let attrs = keys
        .iter()
        .map(|_| {
            [
                rng.gen_range(0..CATEGORIES),
                rng.gen_range(0..256),
                rng.gen_range(0..256),
            ]
        })
        .collect::<Vec<_>>();
    let mut by_category = vec![Vec::new(); CATEGORIES as usize];
    for (p, a) in attrs.iter().enumerate() {
        by_category[a[0] as usize].push(p as u32);
    }
    let (twin, twin_heap, fill_codes) = filled_twin(&spec, &keys, &attrs, size)?;
    let server = Server::start(&spec)?;
    let mut inputs = Inputs {
        size,
        spec,
        keys,
        attrs,
        by_category,
        server,
    };
    let mut state = Loop::new(&inputs, seed, twin, twin_heap);
    state.fill(&mut inputs, &fill_codes);
    Ok((inputs, state))
}

/// Compare wire answers with the twin's; one checked operation per answer.
fn compare<T: PartialEq>(tally: &mut Tally, wire: &[T], twin: &[T], what: &str) {
    let differ = if wire.len() == twin.len() {
        wire.iter().zip(twin).filter(|(a, b)| a != b).count()
    } else {
        twin.len().max(1)
    };
    tally.batch(twin.len() as u64, differ as u64, || {
        format!("{differ} {what} answers differ from the in-process twin")
    });
}

/// Counters gathered over a run for the per-layer metrics.
#[derive(Debug, Default)]
struct Counts {
    query_batches: u64,
    query_keys: u64,
    rows_inserted: u64,
    rows_deleted: u64,
    insert_allocs: u64,
    delete_allocs: u64,
    probe_allocs: u64,
    probed_keys: u64,
    hashed_keys: u64,
    hashed_rows: u64,
    wire_bytes: u64,
    /// Round trip minus codec minus twin query, summed over query batches (ns).
    transport_ns: i64,
    absent_probes: usize,
    false_positives: usize,
    /// Live heap held by the twin once the window is full.
    twin_heap: i64,
}

pub fn run(seed: u64, budget: Duration, tracer: &mut Tracer) -> Outcome {
    run_sized(seed, budget, tracer, Size::DEFAULT)
}

pub fn run_sized(seed: u64, budget: Duration, tracer: &mut Tracer, size: Size) -> Outcome {
    // Before the first daemon starts, so that its threads, the fan-out workers they
    // spawn and the client all share one CPU and one malloc arena.
    let cpu = crate::threads::pin_to_one_cpu();
    let one_arena = crate::threads::one_malloc_arena();
    let (ready, setup_s) = repeated_setup(budget / SETUP_BUDGET_SHARE, || setup(seed, size));
    let (mut inputs, mut loop_state) = match ready {
        Ok(ready) => ready,
        Err(e) => {
            let mut tally = Tally::default();
            tally.check(false, || e);
            return Outcome::assemble(Measured::default(), tally, tracer.on());
        }
    };
    if tracer.on() {
        set_twin_threads(&mut loop_state.twin, SHARDS);
    }
    let heap_after_fill = loop_state.counts.twin_heap;
    let mut clock = PassClock::with_latency_group(LATENCY_GROUP);
    let start = Instant::now();
    // One daemon and one connection for the whole run: every pass runs the same
    // number of iterations over the full window. A daemon per pass would make runs
    // bimodal, since a pass whose threads happen to be placed well runs up to 50 %
    // faster and whether a run draws one would decide its figures.
    while clock.passes() == 0 || start.elapsed() < budget {
        for _ in 0..size.iterations {
            loop_state.iterate(&mut inputs, tracer, &mut clock);
        }
        clock.end_pass();
    }
    let Loop {
        mut tally,
        counts,
        twin,
        ..
    } = loop_state;

    let stats = twin.stats();
    let bound = absent_key_fpr_bound(
        inputs.spec.params.entries_per_bucket,
        stats.load_factor(),
        FP_BITS,
    );
    tally.check(
        fpr_within_bound(counts.false_positives, counts.absent_probes, bound),
        || {
            format!(
                "{} false positives in {} absent probes exceed the §7 bound {bound:.2e}",
                counts.false_positives, counts.absent_probes
            )
        },
    );
    let rows = size.window as f64;
    let memory = FilterMemory {
        heap: heap_after_fill as f64,
        reported: stats.occupancy.heap_bytes as f64,
        model: stats.total_size_bits as f64 / 8.0,
        load: stats.load_factor(),
        doublings: f64::from(stats.total_doublings()),
    };
    let mut layer = BTreeMap::new();
    let mut phases_match_clock = true;
    if tracer.on() {
        let st = tracer.self_times();
        let per = |n: f64, d: u64| if d == 0 { 0.0 } else { n / d as f64 };
        let self_ns = |name: &str| st.get(name).copied().unwrap_or(0) as f64;
        layer.insert(
            "ccf-hash.key_ns_per_key",
            ns_per(&st, "ccf-hash.fingerprint_and_bucket", counts.hashed_keys),
        );
        layer.insert(
            "ccf-hash.attr_ns_per_row",
            ns_per(&st, "ccf-hash.fingerprint_vector", counts.hashed_rows),
        );
        layer.insert(
            "ccf-core.query_ns_per_key",
            ns_per(&st, "ccf-core.query_batch_prehashed", counts.query_keys),
        );
        layer.insert(
            "ccf-core.allocs_per_insert",
            per(counts.insert_allocs as f64, counts.rows_inserted),
        );
        layer.insert(
            "ccf-core.allocs_per_delete",
            per(counts.delete_allocs as f64, counts.rows_deleted),
        );
        layer.insert(
            "ccf-core.allocs_per_kkey_probed",
            per(counts.probe_allocs as f64 * 1000.0, counts.probed_keys),
        );
        memory.record(rows, &mut layer);
        layer.insert(
            "ccf-shard.route_ns_per_key",
            ns_per(&st, "ccf-shard.partition", counts.query_keys),
        );
        let fanout_ns = self_ns("ccf-shard.query_batch")
            - self_ns("ccf-shard.partition")
            - self_ns("ccf-core.query_batch_prehashed");
        layer.insert(
            "ccf-shard.fanout_us_per_batch",
            per(fanout_ns / 1e3, counts.query_batches),
        );
        layer.insert("ccf-shard.imbalance", stats.load_imbalance());
        layer.insert(
            "ccf-service.codec_us_per_batch",
            per(self_ns("ccf-service.codec") / 1e3, counts.query_batches),
        );
        layer.insert(
            "ccf-service.wire_bytes_per_key",
            per(counts.wire_bytes as f64, counts.query_keys),
        );
        layer.insert(
            "ccf-service.transport_us_per_batch",
            per(counts.transport_ns as f64 / 1e3, counts.query_batches),
        );
        phases_match_clock = record_phases(tracer, &clock, &mut layer);
    }
    let mut outcome = Outcome::assemble(
        Measured {
            setup_s,
            clock,
            bytes_per_row: memory.heap / rows,
            layer,
            phases_match_clock,
        },
        tally,
        tracer.on(),
    );
    outcome.notes.push(memory.note(rows));
    outcome.notes.push(match cpu {
        Some(cpu) => format!("client and daemon ran on CPU {cpu}"),
        None => "could not keep the client and daemon on one CPU".into(),
    });
    if !one_arena {
        outcome
            .notes
            .push("could not limit malloc to one arena".into());
    }
    outcome
}

/// The closed loop's state: the window over the cyclic stream, the live-row
/// multiset, the twin and the tallies.
struct Loop {
    rng: StdRng,
    /// Stream position of the oldest live row and of the next row to insert.
    tail: usize,
    head: usize,
    live_rows: Vec<u32>,
    twin: Tenant,
    tally: Tally,
    counts: Counts,
    batch_id: u64,
}

impl Loop {
    fn new(inputs: &Inputs, seed: u64, twin: Tenant, twin_heap: i64) -> Self {
        let counts = Counts {
            twin_heap,
            ..Counts::default()
        };
        Loop {
            rng: StdRng::seed_from_u64(seed ^ 0x100F),
            tail: 0,
            head: 0,
            live_rows: vec![0; inputs.keys.len()],
            twin,
            tally: Tally::default(),
            counts,
            batch_id: 0,
        }
    }

    /// Send the rows the twin was filled with through the wire, untimed and
    /// untraced, checking each answer against the twin's code for that row.
    fn fill(&mut self, inputs: &mut Inputs, twin_codes: &[u8]) {
        let stored = wire::insert_result_code(&Ok(ccf_core::InsertOutcome::Inserted));
        let not_stored = twin_codes.iter().filter(|&&c| c != stored).count();
        self.tally.batch(0, not_stored as u64, || {
            format!("{not_stored} inserts of the window fill were not stored")
        });
        for twin in twin_codes.chunks(FILL_BATCH) {
            self.batch_id += 1;
            let rows = stream_rows(&inputs.keys, &inputs.attrs, self.head, twin.len());
            let client = inputs.server.client();
            let (codes, _) = self.round_trip(Phase::Insert, &mut Tracer::new(false), || {
                client.insert_rows(TENANT, &rows)
            });
            if let Some(codes) = codes {
                compare(&mut self.tally, &codes, twin, "insert");
            }
            self.admit(inputs, rows.len());
        }
    }

    fn rows(&self, inputs: &Inputs, from: usize) -> Vec<(u64, Vec<u64>)> {
        stream_rows(&inputs.keys, &inputs.attrs, from, inputs.size.batch)
    }

    /// Count `rows` rows from the head of the stream as live.
    fn admit(&mut self, inputs: &Inputs, rows: usize) {
        let n = inputs.keys.len();
        for p in self.head..self.head + rows {
            self.live_rows[p % n] += 1;
        }
        self.head += rows;
    }

    /// Time one round trip as a phase with a `ccf-service.client` span inside.
    fn round_trip<T>(
        &mut self,
        phase: Phase,
        tracer: &mut Tracer,
        call: impl FnOnce() -> Result<T, ccf_service::ServiceError>,
    ) -> (Option<T>, Duration) {
        let p = tracer.begin(phase.span(), self.batch_id);
        let s = tracer.begin("ccf-service.client", self.batch_id);
        let t = Instant::now();
        let result = call();
        let elapsed = t.elapsed();
        tracer.end(s);
        tracer.end(p);
        match result {
            Ok(v) => (Some(v), elapsed),
            Err(e) => {
                self.tally
                    .check(false, || format!("{phase:?} round trip failed: {e}"));
                (None, elapsed)
            }
        }
    }

    fn insert(&mut self, inputs: &mut Inputs, tracer: &mut Tracer, clock: &mut PassClock) {
        self.batch_id += 1;
        let rows = self.rows(inputs, self.head);
        let client = inputs.server.client();
        let (codes, elapsed) =
            self.round_trip(Phase::Insert, tracer, || client.insert_rows(TENANT, &rows));
        clock.add(Phase::Insert, rows.len(), elapsed);
        let mem = Reading::now();
        let results = self.twin.insert_batch(&rows);
        self.counts.insert_allocs += mem.events_since();
        let twin: Vec<u8> = results.iter().map(wire::insert_result_code).collect();
        self.counts.rows_inserted += rows.len() as u64;
        let stored = wire::insert_result_code(&Ok(ccf_core::InsertOutcome::Inserted));
        let not_stored = twin.iter().filter(|&&c| c != stored).count();
        self.tally.batch(0, not_stored as u64, || {
            format!("{not_stored} inserts were not stored")
        });
        if let Some(codes) = codes {
            compare(&mut self.tally, &codes, &twin, "insert");
        }
        if tracer.on() {
            let p = inputs.spec.params;
            let attr =
                AttrFingerprinter::new(&HashFamily::new(p.seed), p.attr_bits, p.small_value_opt);
            let span = tracer.begin("ccf-hash.fingerprint_vector", self.batch_id);
            for (_, a) in &rows {
                std::hint::black_box(attr.fingerprint_vector(a));
            }
            self.counts.hashed_rows += rows.len() as u64;
            tracer.end(span);
        }
        self.admit(inputs, rows.len());
    }

    fn iterate(&mut self, inputs: &mut Inputs, tracer: &mut Tracer, clock: &mut PassClock) {
        self.insert(inputs, tracer, clock);
        self.probe(inputs, tracer, clock);
        self.delete(inputs, tracer, clock);
    }

    /// Query batches, then a contains batch over the last query batch's keys.
    fn probe(&mut self, inputs: &mut Inputs, tracer: &mut Tracer, clock: &mut PassClock) {
        let mut probed = (Vec::new(), Vec::new());
        for _ in 0..inputs.size.queries {
            probed = self.query(inputs, tracer, clock);
        }
        let (keys, expect) = probed;
        let client = inputs.server.client();
        let (wire_hits, elapsed) =
            self.round_trip(Phase::Contains, tracer, || client.contains(TENANT, &keys));
        clock.add(Phase::Contains, keys.len(), elapsed);
        let mem = Reading::now();
        let twin = self.twin.contains_batch(&keys);
        self.counts.probe_allocs += mem.events_since();
        self.counts.probed_keys += keys.len() as u64;
        self.check_live(&twin, &expect, "contains", |_| true);
        if let Some(hits) = &wire_hits {
            compare(&mut self.tally, hits, &twin, "contains");
        }
    }

    /// One query batch over live rows of one category plus absent keys; returns the
    /// keys and, for each, its stream position or `None` for an absent key.
    fn query(
        &mut self,
        inputs: &mut Inputs,
        tracer: &mut Tracer,
        clock: &mut PassClock,
    ) -> (Vec<u64>, Vec<Option<usize>>) {
        self.batch_id += 1;
        let n = inputs.keys.len();
        let cat = self.rng.gen_range(0..CATEGORIES);
        let live_keys = inputs.size.batch - inputs.size.absent_keys;
        let mut keys = Vec::with_capacity(inputs.size.batch);
        let mut expect = Vec::with_capacity(inputs.size.batch);
        // Live rows of the category, uniformly: the positions of the cyclic window
        // [tail, head) are one or two ranges of the category's sorted positions.
        let of_cat = &inputs.by_category[cat as usize];
        let (a, b) = (self.tail % n, self.head % n);
        let from = of_cat.partition_point(|&p| (p as usize) < a);
        let to = of_cat.partition_point(|&p| (p as usize) < b);
        let live = if a < b {
            to - from
        } else {
            of_cat.len() - from + to
        };
        for _ in 0..if live > 0 { live_keys } else { 0 } {
            let i = from + self.rng.gen_range(0..live);
            let p = of_cat[if i < of_cat.len() {
                i
            } else {
                i - of_cat.len()
            }] as usize;
            keys.push(inputs.keys[p]);
            expect.push(Some(p));
        }
        for _ in 0..inputs.size.absent_keys {
            keys.push(absent_key(&mut self.rng));
            expect.push(None);
        }
        let pred = Predicate::any(3).and_eq(0, cat);

        let client = inputs.server.client();
        let (wire_hits, rtt) =
            self.round_trip(Phase::Query, tracer, || client.query(TENANT, &keys, &pred));
        clock.add(Phase::Query, keys.len(), rtt);
        let span = tracer.begin("ccf-service.tenant.query_batch", self.batch_id);
        let mem = Reading::now();
        let t = Instant::now();
        let twin = self.twin.query_batch(&keys, &pred);
        let twin_time = t.elapsed();
        self.counts.probe_allocs += mem.events_since();
        self.counts.probed_keys += keys.len() as u64;
        tracer.end(span);
        self.check_live(&twin, &expect, "query", |p| inputs.attrs[p][0] == cat);
        if let Some(hits) = &wire_hits {
            compare(&mut self.tally, hits, &twin, "query");
        }
        if tracer.on() {
            self.layers_in_isolation(&keys, &pred, &twin, rtt, twin_time, tracer);
        }
        (keys, expect)
    }

    /// No false negative for a live row; false positives on absent keys counted.
    fn check_live(
        &mut self,
        hits: &[bool],
        expect: &[Option<usize>],
        what: &str,
        row_matches: impl Fn(usize) -> bool,
    ) {
        let mut missed = 0u64;
        for (&hit, &e) in hits.iter().zip(expect) {
            match e {
                Some(p) => missed += u64::from(!hit && self.live_rows[p] > 0 && row_matches(p)),
                None => {
                    self.counts.absent_probes += 1;
                    self.counts.false_positives += usize::from(hit);
                }
            }
        }
        self.tally.batch(0, missed, || {
            format!("{missed} live rows answered false to {what}")
        });
    }

    fn delete(&mut self, inputs: &mut Inputs, tracer: &mut Tracer, clock: &mut PassClock) {
        self.batch_id += 1;
        let rows = self.rows(inputs, self.tail);
        let client = inputs.server.client();
        let (codes, elapsed) =
            self.round_trip(Phase::Delete, tracer, || client.delete_rows(TENANT, &rows));
        clock.add(Phase::Delete, rows.len(), elapsed);
        let mem = Reading::now();
        let results = self.twin.delete_row_batch(&rows);
        self.counts.delete_allocs += mem.events_since();
        let twin: Vec<u8> = results.iter().map(wire::delete_result_code).collect();
        self.counts.rows_deleted += rows.len() as u64;
        let removed = wire::delete_result_code(&Ok(true));
        let missed = twin.iter().filter(|&&c| c != removed).count();
        self.tally.batch(0, missed as u64, || {
            format!("{missed} deletes of live rows found no entry")
        });
        if let Some(codes) = codes {
            compare(&mut self.tally, &codes, &twin, "delete");
        }
        let n = inputs.keys.len();
        for p in self.tail..self.tail + rows.len() {
            self.live_rows[p % n] -= 1;
        }
        self.tail += rows.len();
    }

    /// Traced runs only: split the twin's sharded query into routing, per-shard
    /// filter work and fan-out, time the wire codec on this batch, and derive the
    /// transport share of the round trip.
    fn layers_in_isolation(
        &mut self,
        keys: &[u64],
        pred: &Predicate,
        hits: &[bool],
        rtt: Duration,
        twin_time: Duration,
        tracer: &mut Tracer,
    ) {
        let id = self.batch_id;
        if let Tenant::Sharded(s) = &self.twin {
            // The whole sharded call, then its routing and per-shard kernels alone
            // on the same partition; the fan-out's cost is the difference.
            let span = tracer.begin("ccf-shard.query_batch", id);
            std::hint::black_box(s.query_batch(keys, pred));
            tracer.end(span);
            let route = tracer.begin("ccf-shard.partition", id);
            let part = s.router().partition(keys);
            tracer.end(route);
            for (shard, chunk) in part.chunks.iter().enumerate() {
                let core = tracer.begin("ccf-core.query_batch_prehashed", id);
                std::hint::black_box(s.with_shard(shard, |f| {
                    use ccf_core::ConditionalFilter;
                    f.query_batch_prehashed(chunk, pred)
                }));
                tracer.end(core);
            }

            let span = tracer.begin("ccf-hash.fingerprint_and_bucket", id);
            s.with_shard(0, |f| {
                use ccf_core::ConditionalFilter;
                let p = f.params();
                let fp = Fingerprinter::new(&HashFamily::new(p.seed), p.fingerprint_bits);
                let base = f.growth_stats().base_buckets;
                for &k in keys {
                    std::hint::black_box(fp.fingerprint_and_bucket(k, base));
                }
            });
            tracer.end(span);
            self.counts.hashed_keys += keys.len() as u64;
        }

        let span = tracer.begin("ccf-service.codec", id);
        let t = Instant::now();
        let mut w = BodyWriter::new();
        wire::put_predicate(&mut w, pred);
        wire::put_keys(&mut w, keys);
        let request = wire::encode_request(&Request {
            opcode: Opcode::Query,
            tenant: TENANT,
            body: w.into_bytes(),
        });
        let parsed = wire::parse_request(&request[4..]);
        let mut w = BodyWriter::new();
        wire::put_bools(&mut w, hits);
        let response = wire::encode_response(&Response::ok(w.into_bytes()));
        let answer = wire::parse_response(&response[4..])
            .and_then(|r| wire::get_bools(&mut BodyReader::new(&r.body)));
        let codec = t.elapsed();
        tracer.end(span);
        self.tally
            .check(parsed.is_ok() && answer.as_deref() == Ok(hits), || {
                "the wire codec did not round-trip a query batch".into()
            });
        self.counts.wire_bytes += (request.len() + response.len()) as u64;
        self.counts.transport_ns +=
            rtt.as_nanos() as i64 - codec.as_nanos() as i64 - twin_time.as_nanos() as i64;
        self.counts.query_batches += 1;
        self.counts.query_keys += keys.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Size = Size {
        window: 4096,
        batch: 256,
        absent_keys: 64,
        queries: 2,
        iterations: 20,
    };

    #[test]
    fn tiny_loopback_run_matches_its_twin() {
        let out = run_sized(4, Duration::from_millis(200), &mut Tracer::new(false), TINY);
        assert!(out.correct, "{:?}", out.notes);
        assert_eq!(out.failed, 0, "{:?}", out.notes);
        let traced = run_sized(4, Duration::from_millis(200), &mut Tracer::new(true), TINY);
        assert!(traced.correct, "{:?}", traced.notes);
        assert_eq!(traced.failed, 0, "{:?}", traced.notes);
    }

    #[test]
    fn a_corrupted_wire_answer_is_counted() {
        let mut tally = Tally::default();
        let twin = [true, false, true];
        compare(&mut tally, &[true, true, true], &twin, "query");
        assert_eq!((tally.attempted, tally.failed), (3, 1));
        compare(&mut tally, &[true], &twin, "query");
        assert_eq!(tally.failed, 4);
        assert!(!tally.only_known_failures());
    }
}
