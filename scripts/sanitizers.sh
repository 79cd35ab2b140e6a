#!/usr/bin/env bash
# Optional sanitizer lanes for the concurrency-sensitive crates.
#
#   scripts/sanitizers.sh tsan   ThreadSanitizer over the ccf-shard and
#                                ccf-telemetry test suites (the two crates with
#                                real cross-thread mutation).
#   scripts/sanitizers.sh miri   Miri over ccf-cuckoo's packed store suite (the
#                                bit-twiddling kernels most likely to hide UB).
#
# Both lanes need a nightly toolchain with extra components (rust-src for
# -Zbuild-std, miri for miri). They DETECT what is installed and skip
# gracefully — exit 0 with a "skipped" note — so the CI job stays green on
# runners without nightly while still running the full lane wherever it is
# available. A detected-and-run lane that finds a race or UB fails loudly.
set -euo pipefail

mode="${1:-}"
if [[ "$mode" != "tsan" && "$mode" != "miri" ]]; then
    echo "usage: $0 {tsan|miri}" >&2
    exit 2
fi

# Bounded suites: sanitizers run 10-50x slower than native, so cap the
# property-test case counts well below the CI default.
export PROPTEST_CASES="${PROPTEST_CASES:-16}"

if ! command -v rustup >/dev/null 2>&1; then
    echo "sanitizers[$mode]: skipped — rustup not available"
    exit 0
fi
if ! rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
    echo "sanitizers[$mode]: skipped — no nightly toolchain installed"
    exit 0
fi

host_target="$(rustc -vV | sed -n 's/^host: //p')"

case "$mode" in
tsan)
    if ! rustup component list --toolchain nightly 2>/dev/null \
        | grep -q '^rust-src.*(installed)'; then
        echo "sanitizers[tsan]: skipped — nightly rust-src component not installed"
        exit 0
    fi
    echo "sanitizers[tsan]: ThreadSanitizer over ccf-shard + ccf-telemetry ($host_target)"
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -q \
        -Zbuild-std \
        --target "$host_target" \
        -p ccf-shard -p ccf-telemetry
    ;;
miri)
    if ! rustup component list --toolchain nightly 2>/dev/null \
        | grep -q '^miri.*(installed)'; then
        echo "sanitizers[miri]: skipped — nightly miri component not installed"
        exit 0
    fi
    echo "sanitizers[miri]: Miri over the ccf-cuckoo packed store suite"
    # Library unit tests only: the store kernels (bit-packing, SWAR probe) live
    # in-crate, and Miri cannot run the process-spawning integration suites
    # anyway. The filter keeps the runtime in minutes.
    MIRIFLAGS="${MIRIFLAGS:--Zmiri-strict-provenance}" \
        cargo +nightly miri test -q -p ccf-cuckoo --lib packed
    ;;
esac
echo "sanitizers[$mode]: done"
