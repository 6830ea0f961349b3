#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the result JSON
#   benchmark/run.sh [--seed N] [--repeat R] [--out FILE]
#       every workload, each in its own process, R timed runs then a
#       traced one, run_seconds of BENCHMARK.json each; writes one results
#       JSON (default benchmark/out/results.json)
#   benchmark/run.sh compare A.json B.json
#       judges results B against results A by BENCHMARK.json's bounds
#
# Run from the repo root: BENCHMARK.json is read from the working
# directory, traces and results go to benchmark/out/ under it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# stdout carries the result; the build talks on stderr
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

# hardware context recorded next to the numbers
export BENCH_RUSTC="${BENCH_RUSTC:-$(rustc --version 2>/dev/null || echo unknown)}"
export BENCH_COMMIT="${BENCH_COMMIT:-$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)}"

bin="$target/release/benchmark"
# Address-space randomisation moves step time by several percent from one
# process to the next on the reference box; measure under a fixed layout
# where the kernel lets us.
if command -v setarch >/dev/null && setarch "$(uname -m)" -R true 2>/dev/null; then
    exec setarch "$(uname -m)" -R "$bin" "$@"
fi
exec "$bin" "$@"
