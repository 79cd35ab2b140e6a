//! Telemetry-report workload (observability): exercise the whole instrumented stack
//! against one registry and dump the live exposition.
//!
//! Two phases share a single [`Telemetry`] registry:
//!
//! 1. **Zipf churn** — a sliding-window insert/delete stream with Zipf-hot keys
//!    replayed against a chained CCF built via [`CcfBuilder::telemetry`], populating
//!    the kick-depth / chain-walk histograms and the insert/delete outcome counters
//!    under real duplicate pressure.
//! 2. **Sharded probe** — a [`ShardedCcf`] with per-shard instruments attached,
//!    bulk-loaded and probed with Zipf-skewed batches, populating per-shard op
//!    counters and the service's batch latency/size histograms.
//!
//! The `telemetry_report` binary renders the result both as Prometheus-style text
//! exposition and as the compact human table; this module owns the workload so the
//! contents are unit-testable.

use ccf_core::{CcfBuilder, CcfParams, ConditionalFilter, Predicate, VariantKind};
use ccf_shard::ShardedCcf;
use ccf_telemetry::Telemetry;
use ccf_workloads::churn::{ChurnOp, SlidingWindowChurn};
use ccf_workloads::zipf::ZipfMandelbrot;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Knobs for the telemetry-report workload.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryWorkload {
    /// Churn arrivals (phase 1); the live window is `rows / 8`.
    pub rows: usize,
    /// Distinct keys loaded into the sharded service (phase 2).
    pub shard_keys: usize,
    /// Probe keys per sharded batch; four batches are issued.
    pub probes: usize,
    /// Shards in the phase-2 service.
    pub shards: usize,
    /// Deterministic seed for streams and filters.
    pub seed: u64,
}

impl TelemetryWorkload {
    /// A smoke-scale default (fast enough for CI; override via the binary's flags).
    pub fn new(rows: usize, shard_keys: usize, probes: usize, shards: usize, seed: u64) -> Self {
        Self {
            rows: rows.max(16),
            shard_keys: shard_keys.max(16),
            probes: probes.max(16),
            shards: shards.max(1),
            seed,
        }
    }
}

/// Run the two-phase workload against a fresh enabled registry and return it for
/// rendering. Everything is deterministic in `workload.seed`.
pub fn run_telemetry_workload(workload: &TelemetryWorkload) -> Telemetry {
    let telemetry = Telemetry::enabled();

    // Phase 1: Zipf-hot sliding-window churn against a chained CCF. A keyspace of
    // window/8 keeps several live rows per key, so chains, kicks, and delete repairs
    // all fire.
    let window = (workload.rows / 8).max(8);
    let mut filter = CcfBuilder::new()
        .variant(VariantKind::Chained)
        .num_attrs(2)
        .seed(workload.seed)
        .expected_rows(window)
        .target_load(0.7)
        .auto_grow()
        .telemetry(&telemetry)
        .build()
        .expect("churn filter params are valid");
    let keyspace = (window as u64 / 8).max(1);
    for op in SlidingWindowChurn::new(window, 2, keyspace, workload.seed).ops(workload.rows) {
        match op {
            ChurnOp::Insert(row) => {
                let _ = filter.insert_row(row.key, &row.attrs);
            }
            ChurnOp::Delete(row) => {
                let _ = filter.delete_row(row.key, &row.attrs);
            }
        }
    }

    // Phase 2: sharded probe service with per-shard instruments and batch
    // latency/size histograms.
    let mut service = ShardedCcf::sized_for_entries(
        VariantKind::Chained,
        CcfParams {
            num_attrs: 2,
            seed: workload.seed ^ 0x5AD,
            ..CcfParams::default()
        }
        .with_auto_grow(),
        workload.shards,
        workload.shard_keys,
        0.7,
    );
    service.attach_telemetry(&telemetry, &[]);
    let rows: Vec<(u64, [u64; 2])> = (0..workload.shard_keys as u64)
        .map(|k| (k.wrapping_mul(0x9E37_79B9), [k % 7, k % 11]))
        .collect();
    let outcomes = service.insert_batch(&rows);
    assert!(
        outcomes.iter().all(|o| o.is_ok()),
        "sized sharded service must absorb the load"
    );
    // Zipf-skewed probe ranks over twice the keyspace: the top half hits.
    let zipf = ZipfMandelbrot::new(
        1.2,
        ZipfMandelbrot::PAPER_OFFSET,
        (2 * workload.shard_keys) as u64,
    );
    let mut rng = StdRng::seed_from_u64(workload.seed ^ 0xBEEF);
    let probes: Vec<u64> = (0..workload.probes)
        .map(|_| (zipf.sample(&mut rng) - 1).wrapping_mul(0x9E37_79B9))
        .collect();
    let pred = Predicate::any(2).and_eq(0, 3);
    for chunk in probes.chunks(probes.len().div_ceil(2).max(1)) {
        service.contains_key_batch(chunk);
        service.query_batch(chunk, &pred);
    }

    telemetry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_contains_the_headline_series() {
        let telemetry = run_telemetry_workload(&TelemetryWorkload::new(4000, 2000, 2000, 4, 0xCCF));
        let text = telemetry.render_text();
        // Acceptance contract: kick-depth and batch-latency histograms from a real
        // sharded churn workload.
        assert!(text.contains("ccf_kick_depth_bucket"), "{text}");
        assert!(text.contains("ccf_shard_batch_latency_ns_bucket"), "{text}");
        // Outcome counters from the churn phase and per-shard series from the probe
        // phase.
        assert!(text.contains("ccf_inserts_total"), "{text}");
        assert!(text.contains("ccf_deletes_total"), "{text}");
        assert!(text.contains("shard=\"0\""), "{text}");
        assert!(text.contains("ccf_chain_walk_depth_bucket"), "{text}");

        let snap = telemetry.snapshot();
        assert!(snap.counter_sum("ccf_inserts_total") >= 4000 + 2000);
        assert!(snap.counter_sum("ccf_queries_total") > 0);
        let sizes = snap
            .histogram("ccf_shard_batch_keys", &[("op", "contains_key")])
            .expect("batch size series present");
        assert_eq!(sizes.sum, 2000, "every probe key counted exactly once");
    }

    #[test]
    fn workload_is_deterministic_modulo_latency() {
        let a = run_telemetry_workload(&TelemetryWorkload::new(2000, 1000, 500, 2, 7));
        let b = run_telemetry_workload(&TelemetryWorkload::new(2000, 1000, 500, 2, 7));
        let (sa, sb) = (a.snapshot(), b.snapshot());
        for name in [
            "ccf_inserts_total",
            "ccf_deletes_total",
            "ccf_queries_total",
            "ccf_query_hits_total",
            "ccf_grows_total",
        ] {
            assert_eq!(sa.counter_sum(name), sb.counter_sum(name), "{name} drifted");
        }
    }
}
