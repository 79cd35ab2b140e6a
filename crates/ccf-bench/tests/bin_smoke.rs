//! Smoke tests for the experiment binaries (the 13 paper artefacts plus the churn
//! and telemetry-report harnesses): each one must run to completion at a minimal
//! workload scale and produce non-empty tabular output.
//!
//! `--scale` is a *divisor* of the synthetic IMDB size (scale N ⇒ 1/N of the full
//! dataset), so "minimal" means a large value. Binaries that don't take a given flag
//! simply ignore it, letting every binary share one argument list. Without these
//! tests the binaries would only be compiled, never executed, and could silently rot.

use std::process::Command;

/// Flags that make every binary's workload as small as it supports.
const SMOKE_ARGS: &[&str] = &[
    "--scale",
    "4096",
    "--runs",
    "1",
    "--rows",
    "2",
    "--buckets",
    "512",
    "--keys",
    "64",
    "--probes",
    "64",
    "--seed",
    "7",
];

fn run_smoke(name: &str, exe: &str) {
    let output = Command::new(exe)
        .args(SMOKE_ARGS)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {name} ({exe}): {e}"));
    assert!(
        output.status.success(),
        "{name} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.lines().count() >= 3,
        "{name} produced suspiciously little output:\n{stdout}"
    );
}

macro_rules! bin_smoke_tests {
    ($($name:ident),+ $(,)?) => {
        $(
            #[test]
            fn $name() {
                run_smoke(stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))));
            }
        )+
    };
}

bin_smoke_tests!(
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    table1,
    table2,
    table3,
    aggregate,
    churn,
    telemetry_report,
);

/// The workspace lint gate, in-process. `CARGO_BIN_EXE_*` variables only cover
/// this package's own bins, so the `ccf-lint` binary (owned by `ccf-analysis`)
/// can't be spawned here; `lint_workspace` is the exact code path the binary
/// runs, and the binary itself is smoke-tested in `ccf-analysis/tests/bin_smoke.rs`.
#[test]
fn ccf_lint() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root is two levels up");
    let run = ccf_analysis::lint_workspace(root).expect("lint run completes");
    let rendered: Vec<String> = run.findings.iter().map(|f| f.render()).collect();
    assert!(
        run.findings.is_empty(),
        "ccf-lint findings:\n{}",
        rendered.join("\n")
    );
}
