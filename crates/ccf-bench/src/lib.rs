//! Experiment harness regenerating every table and figure of the paper's evaluation.
//!
//! Each figure/table has a binary in `src/bin/` that prints the corresponding rows or
//! series (see EXPERIMENTS.md at the repository root for the index and the recorded
//! results); the heavy lifting lives here so the binaries stay thin and the logic is
//! unit-testable. Throughput and latency (§10.8) are measured by the separate
//! `perfbench` package at the repository root, not here.
//!
//! | Module | Paper artefact |
//! |--------|----------------|
//! | [`multiset_experiments`] | Figure 4 (load factor at first failure), Figure 5 (bit efficiency) |
//! | [`fpr_experiments`] | Figure 2 (estimated vs actual FPR) |
//! | [`sizing_experiments`] | Figure 3 (predicted vs actual entries), Table 1 |
//! | [`joblight_experiments`] | Figures 6–10, Tables 2–3, §10.6 aggregates |
//! | [`churn_experiments`] | beyond the paper: sliding-window insert/delete churn |
//! | [`telemetry_experiments`] | beyond the paper: the `telemetry_report` exposition workload |
//! | [`report`] | plain-text table formatting shared by the binaries |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn_experiments;
pub mod fpr_experiments;
pub mod joblight_experiments;
pub mod multiset_experiments;
pub mod report;
pub mod sizing_experiments;
pub mod telemetry_experiments;

/// Default seed used by every experiment binary (override with `--seed N`).
pub const DEFAULT_SEED: u64 = 0xCCF_2020;

/// Parse a `--flag value` style argument from a binary's argv, falling back to a
/// default. Used by the experiment binaries for `--scale`, `--seed`, `--runs`.
pub fn arg_value<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_value_parses_flags_and_defaults() {
        let args: Vec<String> = ["prog", "--scale", "128", "--runs", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--scale", 64u64), 128);
        assert_eq!(arg_value(&args, "--runs", 20usize), 3);
        assert_eq!(arg_value(&args, "--seed", 7u64), 7);
        // Malformed values fall back to the default.
        let bad: Vec<String> = ["prog", "--scale", "banana"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&bad, "--scale", 64u64), 64);
    }
}
