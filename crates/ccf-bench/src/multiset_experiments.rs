//! Multiset experiments: Figure 4 (load factor at first failed insertion) and Figure 5
//! (bit efficiency), per the setup of §10.1.
//!
//! "For each filter type and each setting for the average number of duplicates per key
//! in the input data, we generate a dataset that is approximately 20 % larger than the
//! capacity of the sketch and measure the number of items processed before the first
//! failed insertion and the load factor at that point. ... The results are averaged
//! over 20 runs using random salts for the hash functions."

use ccf_core::{CcfParams, ChainedCcf, ConditionalFilter, PlainCcf};
use ccf_telemetry::Telemetry;
use ccf_workloads::multiset::{DuplicateDistribution, MultisetStream, Row};

/// Which filter the multiset experiments compare (Figure 4's `type` facet).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultisetFilter {
    /// A plain multiset cuckoo filter (duplicates capped by the bucket pair).
    Plain,
    /// The CCF with chaining.
    Chained,
}

/// Which duplicate distribution drives the stream (Figure 4's column facet).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Every key has the same number of duplicates.
    Constant,
    /// Duplicates follow the truncated Zipf-Mandelbrot distribution.
    Zipf,
}

/// Result of inserting one stream until the first failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailurePoint {
    /// Load factor β at the first failed insertion (or at stream exhaustion).
    pub load_factor: f64,
    /// Number of rows successfully absorbed before the failure.
    pub rows_absorbed: usize,
    /// Whether a failure actually occurred (streams 20 % above capacity normally fail;
    /// if not, the stream was exhausted first).
    pub failed: bool,
}

/// Configuration of one Figure 4 cell.
#[derive(Debug, Clone, Copy)]
pub struct MultisetConfig {
    /// Filter under test.
    pub filter: MultisetFilter,
    /// Stream kind.
    pub stream: StreamKind,
    /// Target average duplicates per key.
    pub avg_duplicates: f64,
    /// Entries per bucket `b`.
    pub entries_per_bucket: usize,
    /// Number of buckets `m`.
    pub num_buckets: usize,
    /// Maximum duplicates per bucket pair `d` (chained filter only; the paper uses 3).
    pub max_dupes: usize,
    /// Random seed (one run per seed; Figure 4 averages 20).
    pub seed: u64,
}

impl MultisetConfig {
    fn params(&self) -> CcfParams {
        CcfParams {
            num_buckets: self.num_buckets,
            entries_per_bucket: self.entries_per_bucket,
            fingerprint_bits: 12,
            attr_bits: 8,
            num_attrs: 1,
            max_dupes: self.max_dupes,
            max_chain: None,
            seed: self.seed,
            ..CcfParams::default()
        }
    }

    fn stream(&self) -> MultisetStream {
        let dist = match self.stream {
            StreamKind::Constant => {
                DuplicateDistribution::Constant(self.avg_duplicates.round().max(1.0) as u64)
            }
            StreamKind::Zipf => DuplicateDistribution::zipf_with_mean(self.avg_duplicates.max(1.0)),
        };
        MultisetStream::new(dist, 1, self.seed ^ 0x5EED)
    }
}

/// Insert rows until the first failure, returning the failure point.
fn run_until_failure<F: ConditionalFilter>(filter: &mut F, rows: &[Row]) -> FailurePoint {
    let mut absorbed = 0usize;
    for row in rows {
        match filter.insert_row(row.key, &row.attrs) {
            Ok(_) => absorbed += 1,
            Err(_) => {
                return FailurePoint {
                    load_factor: filter.load_factor(),
                    rows_absorbed: absorbed,
                    failed: true,
                }
            }
        }
    }
    FailurePoint {
        load_factor: filter.load_factor(),
        rows_absorbed: absorbed,
        failed: false,
    }
}

/// Run one Figure 4 cell: build the filter, generate a stream 20 % above capacity, and
/// insert until the first failure.
pub fn load_factor_at_failure(config: &MultisetConfig) -> FailurePoint {
    load_factor_at_failure_with(config, &Telemetry::disabled())
}

/// As [`load_factor_at_failure`], with the cell's filter attached to a telemetry
/// registry — the figure bins use this so kick-depth and outcome distributions print
/// alongside the load-factor table (variant labels keep plain/chained series apart).
pub fn load_factor_at_failure_with(config: &MultisetConfig, telemetry: &Telemetry) -> FailurePoint {
    let params = config.params();
    let capacity = params.num_buckets.next_power_of_two() * params.entries_per_bucket;
    let rows = config.stream().generate_for_capacity(capacity);
    match config.filter {
        MultisetFilter::Plain => {
            let mut filter = PlainCcf::new(params);
            if telemetry.is_enabled() {
                filter.attach_telemetry(telemetry, &[]);
            }
            run_until_failure(&mut filter, &rows)
        }
        MultisetFilter::Chained => {
            let mut filter = ChainedCcf::new(params);
            if telemetry.is_enabled() {
                filter.attach_telemetry(telemetry, &[]);
            }
            run_until_failure(&mut filter, &rows)
        }
    }
}

/// Run one Figure 4 cell averaged over `runs` random salts.
pub fn averaged_load_factor(config: &MultisetConfig, runs: usize) -> FailurePoint {
    averaged_load_factor_with(config, runs, &Telemetry::disabled())
}

/// As [`averaged_load_factor`], threading a telemetry registry through every run.
pub fn averaged_load_factor_with(
    config: &MultisetConfig,
    runs: usize,
    telemetry: &Telemetry,
) -> FailurePoint {
    assert!(runs >= 1);
    let mut load = 0.0;
    let mut rows = 0usize;
    let mut any_failed = false;
    for r in 0..runs {
        let point = load_factor_at_failure_with(
            &MultisetConfig {
                seed: config.seed.wrapping_add(r as u64 * 7919),
                ..*config
            },
            telemetry,
        );
        load += point.load_factor;
        rows += point.rows_absorbed;
        any_failed |= point.failed;
    }
    FailurePoint {
        load_factor: load / runs as f64,
        rows_absorbed: rows / runs,
        failed: any_failed,
    }
}

/// One point of Figure 5: bit efficiency of a chained CCF at a given fill level and
/// duplicate cap `d`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyPoint {
    /// Duplicate cap `d` (Figure 5's `maxDupe`).
    pub max_dupes: usize,
    /// Fill (load factor) at which the measurement was taken, in percent.
    pub fill_pct: f64,
    /// Measured key-only FPR at that fill.
    pub fpr: f64,
    /// Bit efficiency (eq. 8): size / (n · log2(1/ρ)).
    pub bit_efficiency: f64,
}

/// Measure bit efficiency of a chained CCF (Figure 5): insert a stream with the given
/// duplicate distribution until the target fill, measure the key-only FPR empirically,
/// and apply eq. 8 with `n` = number of keys inserted (counting duplicates, §10.2).
pub fn bit_efficiency_point(
    stream_kind: StreamKind,
    avg_duplicates: f64,
    max_dupes: usize,
    target_fill: f64,
    num_buckets: usize,
    seed: u64,
) -> EfficiencyPoint {
    bit_efficiency_point_with(
        stream_kind,
        avg_duplicates,
        max_dupes,
        target_fill,
        num_buckets,
        seed,
        &Telemetry::disabled(),
    )
}

/// As [`bit_efficiency_point`], with the filter attached to a telemetry registry.
#[allow(clippy::too_many_arguments)]
pub fn bit_efficiency_point_with(
    stream_kind: StreamKind,
    avg_duplicates: f64,
    max_dupes: usize,
    target_fill: f64,
    num_buckets: usize,
    seed: u64,
    telemetry: &Telemetry,
) -> EfficiencyPoint {
    let params = CcfParams {
        num_buckets,
        entries_per_bucket: (2 * max_dupes).max(4),
        fingerprint_bits: 12,
        attr_bits: 8,
        num_attrs: 1,
        max_dupes,
        max_chain: None,
        seed,
        ..CcfParams::default()
    };
    let mut filter = ChainedCcf::new(params);
    if telemetry.is_enabled() {
        filter.attach_telemetry(telemetry, &[]);
    }
    let dist = match stream_kind {
        StreamKind::Constant => {
            DuplicateDistribution::Constant(avg_duplicates.round().max(1.0) as u64)
        }
        StreamKind::Zipf => DuplicateDistribution::zipf_with_mean(avg_duplicates.max(1.0)),
    };
    let rows = MultisetStream::new(dist, 1, seed ^ 0xF111).generate_for_capacity(filter.capacity());
    let mut inserted_rows = 0usize;
    for row in &rows {
        if filter.load_factor() >= target_fill {
            break;
        }
        if filter.insert_row(row.key, &row.attrs).is_ok() {
            inserted_rows += 1;
        } else {
            break;
        }
    }
    // Empirical key-only FPR over keys never inserted.
    let probes = 200_000u64;
    let false_pos = (0..probes)
        .filter(|i| filter.contains_key(1_000_000_000 + i))
        .count();
    let fpr = (false_pos as f64 / probes as f64).clamp(1e-9, 0.999_999);
    EfficiencyPoint {
        max_dupes,
        fill_pct: filter.load_factor() * 100.0,
        fpr,
        bit_efficiency: ccf_core::sizing::bit_efficiency(
            filter.size_bits(),
            inserted_rows.max(1),
            fpr,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_config(
        filter: MultisetFilter,
        stream: StreamKind,
        avg: f64,
        b: usize,
    ) -> MultisetConfig {
        MultisetConfig {
            filter,
            stream,
            avg_duplicates: avg,
            entries_per_bucket: b,
            num_buckets: 1 << 9,
            max_dupes: 3,
            seed: 99,
        }
    }

    #[test]
    fn chained_sustains_high_load_with_many_duplicates() {
        // Figure 4, right-hand side of each panel: chaining keeps the load factor high
        // even at 12 duplicates per key.
        let point = load_factor_at_failure(&base_config(
            MultisetFilter::Chained,
            StreamKind::Constant,
            12.0,
            6,
        ));
        assert!(point.failed, "stream 20% above capacity should overflow");
        assert!(
            point.load_factor > 0.75,
            "chained load factor {} too low",
            point.load_factor
        );
    }

    #[test]
    fn plain_collapses_with_many_duplicates() {
        let chained = load_factor_at_failure(&base_config(
            MultisetFilter::Chained,
            StreamKind::Constant,
            12.0,
            4,
        ));
        let plain = load_factor_at_failure(&base_config(
            MultisetFilter::Plain,
            StreamKind::Constant,
            12.0,
            4,
        ));
        // Figure 4: the plain filter fails far below the chained filter once the
        // number of duplicates exceeds what a bucket pair can hold.
        assert!(plain.failed);
        assert!(
            plain.load_factor < chained.load_factor * 0.75,
            "plain {} vs chained {}",
            plain.load_factor,
            chained.load_factor
        );
    }

    #[test]
    fn plain_fails_almost_immediately_on_zipf_data() {
        // §10.2: "For Zipf-Mandelbrot data, the plain cuckoo hash encounters very few
        // items before it fails."
        let point = load_factor_at_failure(&base_config(
            MultisetFilter::Plain,
            StreamKind::Zipf,
            8.0,
            4,
        ));
        assert!(point.failed);
        assert!(
            point.load_factor < 0.3,
            "plain filter on zipf data reached load {}",
            point.load_factor
        );
    }

    #[test]
    fn few_duplicates_make_plain_and_chained_comparable() {
        // Figure 4, left edge: when duplicates per key are below 2b, both filters do
        // fine.
        let chained = load_factor_at_failure(&base_config(
            MultisetFilter::Chained,
            StreamKind::Constant,
            2.0,
            6,
        ));
        let plain = load_factor_at_failure(&base_config(
            MultisetFilter::Plain,
            StreamKind::Constant,
            2.0,
            6,
        ));
        assert!(plain.load_factor > 0.7);
        assert!((plain.load_factor - chained.load_factor).abs() < 0.2);
    }

    #[test]
    fn averaging_smooths_runs() {
        let cfg = base_config(MultisetFilter::Chained, StreamKind::Zipf, 6.0, 6);
        let avg = averaged_load_factor(&cfg, 3);
        assert!(avg.failed);
        assert!(avg.load_factor > 0.6 && avg.load_factor <= 1.0);
    }

    #[test]
    fn bit_efficiency_is_in_the_papers_range() {
        // §10.2: an optimized chained filter reaches ≈ 1.93 at high fill with
        // duplicates; poorly filled filters are much worse.
        let full = bit_efficiency_point(StreamKind::Constant, 8.0, 3, 0.85, 1 << 10, 5);
        assert!(full.fill_pct > 70.0);
        assert!(
            (1.2..4.0).contains(&full.bit_efficiency),
            "efficiency at high fill = {}",
            full.bit_efficiency
        );
        let sparse = bit_efficiency_point(StreamKind::Constant, 8.0, 3, 0.15, 1 << 10, 5);
        assert!(
            sparse.bit_efficiency > full.bit_efficiency,
            "lower fill must waste more bits per item"
        );
    }
}
