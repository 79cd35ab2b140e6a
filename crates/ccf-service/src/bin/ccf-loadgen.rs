//! Loopback load generator for the filter daemon.
//!
//! ```text
//! ccf-loadgen --embedded --rows 20000 --queries 50000 --batch 512
//! ccf-loadgen --addr 127.0.0.1:4870 --tenant 1 --rows 20000
//! ```
//!
//! Drives batched inserts, predicate queries, membership probes and deletes against
//! a daemon — one started in-process with `--embedded` (and shut down gracefully at
//! the end), or a remote one via `--addr`. Every response folds into a
//! [`StreamDigest`], batch latencies land in telemetry histograms, and the run
//! prints throughput, exact p50/p99 batch round-trip times (from every recorded
//! batch, not a histogram bucket bound) and the final digest. Any protocol error
//! fails the run with a non-zero exit code. `--shutdown` sends a graceful-shutdown
//! frame to a `--addr` daemon at the end of the run.

use std::process::ExitCode;
use std::time::Instant;

use ccf_service::{daemon, Client, DaemonConfig, StreamDigest, TenantSpec};
use ccf_telemetry::{buckets, Histogram, Telemetry};

struct Args {
    addr: Option<String>,
    embedded: bool,
    shutdown: bool,
    tenant: u32,
    rows: u64,
    queries: u64,
    batch: usize,
    seed: u64,
}

const USAGE: &str = "usage: ccf-loadgen (--embedded | --addr HOST:PORT) [--shutdown] \
                     [--tenant N] [--rows N] [--queries N] [--batch N] [--seed N]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        addr: None,
        embedded: false,
        shutdown: false,
        tenant: 1,
        rows: 20_000,
        queries: 50_000,
        batch: 512,
        seed: 42,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |field: &mut dyn FnMut(&str) -> Result<(), String>| -> Result<(), String> {
            let v = args
                .get(i + 1)
                .ok_or_else(|| format!("{flag} needs a value"))?;
            field(v)
        };
        match flag {
            "--embedded" => {
                out.embedded = true;
                i += 1;
            }
            "--shutdown" => {
                out.shutdown = true;
                i += 1;
            }
            "--addr" => {
                value(&mut |v| {
                    out.addr = Some(v.to_string());
                    Ok(())
                })?;
                i += 2;
            }
            "--tenant" => {
                value(&mut |v| {
                    out.tenant = v.parse().map_err(|_| format!("bad --tenant {v}"))?;
                    Ok(())
                })?;
                i += 2;
            }
            "--rows" => {
                value(&mut |v| {
                    out.rows = v.parse().map_err(|_| format!("bad --rows {v}"))?;
                    Ok(())
                })?;
                i += 2;
            }
            "--queries" => {
                value(&mut |v| {
                    out.queries = v.parse().map_err(|_| format!("bad --queries {v}"))?;
                    Ok(())
                })?;
                i += 2;
            }
            "--batch" => {
                value(&mut |v| {
                    out.batch = v.parse().map_err(|_| format!("bad --batch {v}"))?;
                    Ok(())
                })?;
                i += 2;
            }
            "--seed" => {
                value(&mut |v| {
                    out.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
                    Ok(())
                })?;
                i += 2;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if out.embedded == out.addr.is_some() {
        return Err(format!(
            "exactly one of --embedded or --addr is required\n{USAGE}"
        ));
    }
    if out.batch == 0 {
        return Err("--batch must be >= 1".to_string());
    }
    Ok(out)
}

/// The nearest-rank `q` quantile of `samples` (sorted in place): the smallest
/// sample with at least a fraction `q` of all samples at or below it; 0 when empty.
fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((samples.len() as f64) * q).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// One op's batch round-trip times: each in nanoseconds for exact quantiles, and
/// in the op's telemetry histogram series.
struct BatchTimes {
    hist: Histogram,
    ns: Vec<u64>,
}

impl BatchTimes {
    /// Run one wire batch and record its round trip.
    fn time<T>(&mut self, batch: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = batch();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.hist.observe(ns);
        self.ns.push(ns);
        out
    }
}

fn run(args: Args) -> Result<(), String> {
    // Embedded mode: spin the daemon in-process on an ephemeral loopback port.
    let embedded = if args.embedded {
        let spec = TenantSpec::parse(&format!(
            "id={},variant=mixed,shards=4,buckets=1024,attrs=2,seed={}",
            args.tenant, args.seed
        ))
        .map_err(|e| e.to_string())?;
        let running = daemon::start(DaemonConfig {
            listen: "127.0.0.1:0".into(),
            tenants: vec![spec],
            snapshot_dir: None,
        })
        .map_err(|e| e.to_string())?;
        Some(running)
    } else {
        None
    };
    let addr = match (&embedded, &args.addr) {
        (Some(r), _) => r.local_addr().to_string(),
        (None, Some(a)) => a.clone(),
        _ => unreachable!("parse_args enforces the xor"),
    };

    let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
    client.ping().map_err(|e| format!("ping failed: {e}"))?;

    let telemetry = Telemetry::enabled();
    let lat = |op: &str| BatchTimes {
        hist: telemetry.histogram(
            "loadgen_batch_latency_ns",
            "Wall-clock nanoseconds per wire batch",
            &buckets::latency_ns(),
            &[("op", op)],
        ),
        ns: Vec::new(),
    };
    let mut insert_lat = lat("insert");
    let mut query_lat = lat("query");
    let mut contains_lat = lat("contains");
    let mut delete_lat = lat("delete");

    let mut digest = StreamDigest::new();
    let mix = |k: u64| k.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);

    // Inserts.
    let rows: Vec<(u64, Vec<u64>)> = (0..args.rows)
        .map(|i| (mix(i), vec![i % 7, i % 11]))
        .collect();
    let t0 = Instant::now();
    for chunk in rows.chunks(args.batch) {
        let codes = insert_lat
            .time(|| client.insert_rows(args.tenant, chunk))
            .map_err(|e| format!("insert batch failed: {e}"))?;
        digest.update(&codes);
    }
    let insert_secs = t0.elapsed().as_secs_f64();

    // Predicate queries over a hit/miss mix.
    let pred_keys: Vec<u64> = (0..args.queries)
        .map(|i| {
            if i % 2 == 0 {
                mix(i / 2 % args.rows.max(1))
            } else {
                u64::MAX - i
            }
        })
        .collect();
    let pred = ccf_core::Predicate::any(2).and_eq(0, 3);
    let t1 = Instant::now();
    for chunk in pred_keys.chunks(args.batch) {
        let hits = query_lat
            .time(|| client.query(args.tenant, chunk, &pred))
            .map_err(|e| format!("query batch failed: {e}"))?;
        digest.update_bools(&hits);
    }
    let query_secs = t1.elapsed().as_secs_f64();

    // Key-only membership.
    for chunk in pred_keys.chunks(args.batch) {
        let hits = contains_lat
            .time(|| client.contains(args.tenant, chunk))
            .map_err(|e| format!("contains batch failed: {e}"))?;
        digest.update_bools(&hits);
    }

    // Delete a slice of the inserted rows (mixed tenants may refuse converted
    // groups — the refusal codes are part of the digest, not an error).
    let victims: Vec<(u64, Vec<u64>)> = rows.iter().step_by(10).cloned().collect();
    for chunk in victims.chunks(args.batch) {
        let codes = delete_lat
            .time(|| client.delete_rows(args.tenant, chunk))
            .map_err(|e| format!("delete batch failed: {e}"))?;
        digest.update(&codes);
    }

    let stats = client
        .stats(args.tenant)
        .map_err(|e| format!("stats failed: {e}"))?;
    println!(
        "loadgen tenant={} rows={} queries={} batch={}",
        args.tenant, args.rows, args.queries, args.batch
    );
    println!(
        "  inserts:  {:>10.0} rows/s",
        args.rows as f64 / insert_secs.max(1e-9)
    );
    println!(
        "  queries:  {:>10.0} keys/s",
        args.queries as f64 / query_secs.max(1e-9)
    );
    for (op, times) in [
        ("insert", &mut insert_lat),
        ("query", &mut query_lat),
        ("contains", &mut contains_lat),
        ("delete", &mut delete_lat),
    ] {
        println!(
            "  {op:>8} batch latency: p50 {} ns, p99 {} ns ({} batches)",
            quantile(&mut times.ns, 0.50),
            quantile(&mut times.ns, 0.99),
            times.ns.len()
        );
    }
    println!(
        "  tenant stats: shards={} occupied={} load_factor={:.3} doublings={}",
        stats.num_shards, stats.occupied, stats.load_factor, stats.doublings
    );
    println!("  stream digest: {:016x}", digest.value());
    println!("  protocol errors: 0");

    // Embedded daemons always shut down gracefully; `--shutdown` extends the same
    // courtesy to a remote daemon (CI uses it to assert the daemon's exit code).
    if args.embedded || args.shutdown {
        client
            .shutdown()
            .map_err(|e| format!("shutdown failed: {e}"))?;
    }
    if let Some(running) = embedded {
        running.wait().map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(parsed) => match run(parsed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("ccf-loadgen: {e}");
                ExitCode::from(1)
            }
        },
        Err(msg) => {
            eprintln!("{msg}");
            if msg == USAGE {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_nearest_rank_samples() {
        // 1..=100 in shuffled order: the p50 is the 50th smallest, the p99 the 99th.
        let mut samples: Vec<u64> = (1..=100u64).map(|i| (i * 37) % 101).collect();
        assert_eq!(quantile(&mut samples, 0.50), 50);
        assert_eq!(quantile(&mut samples, 0.99), 99);
        assert_eq!(quantile(&mut samples, 1.0), 100);
        // A 2× change in round-trip time shows as 2×, whatever bucket it falls in.
        let mut slow: Vec<u64> = samples.iter().map(|ns| 2 * ns).collect();
        assert_eq!(quantile(&mut slow, 0.50), 100);
        let mut one = vec![7_000];
        assert_eq!(quantile(&mut one, 0.99), 7_000);
        assert_eq!(quantile(&mut [], 0.5), 0);
    }
}
