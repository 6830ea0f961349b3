#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build + test suite.
# Run from anywhere; operates on the workspace that contains this script.
set -euo pipefail
cd "$(dirname "$0")"

# soak NAME [VAR=value ...] 'SHELL COMMAND'
# Runs the command, with the given environment, under a 10-minute GNU
# timeout watchdog and tells a hang from a broken property: a wedged
# fence or deadlocked eviction ends as exit 124/137 (surfaced as 124),
# an assertion failure as any other non-zero exit (surfaced as 1).
soak() {
    local name="$1" rc=0
    shift
    env "${@:1:$#-1}" timeout --kill-after=30 600 sh -c "${!#}" || rc=$?
    if [ "$rc" -eq 124 ] || [ "$rc" -eq 137 ]; then
        echo "$name HANG (watchdog fired)" >&2
        exit 124
    elif [ "$rc" -ne 0 ]; then
        echo "$name FAILED (assertion)" >&2
        exit 1
    fi
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q --no-fail-fast"
cargo build --release
# Hang watchdog: the fault-injection suites exercise deadline paths in the
# thread-backed collectives; a regression there shows up as a hang, not a
# failure. Kill the whole test run if it exceeds the budget.
# --no-fail-fast: one failing crate must not hide the crates after it.
timeout --kill-after=30 900 cargo test -q --no-fail-fast

echo "==> observability smoke: traced 2-rank training step"
# One training iteration of a 2-rank attention + MoE block with an
# injected stall; the example writes a Chrome trace and self-validates it
# (span nesting, retry counters, expert-load histogram) via the in-tree
# checker, exiting non-zero on any miss.
timeout --kill-after=30 120 \
    cargo run --release -p models --example trace_training_step -- target/trace_smoke.json

echo "==> digest identity: the program's own step reproduces the benchmark's losses"
# benchmark/src/step.rs composes its own training step; the program's is
# MoeTransformer::train_step. The example's digest mode rebuilds each
# training workload from parts with the benchmark's sub-seeds, and the
# two live runs must print the same loss_digest (no golden constant: the
# bits depend on the FMA-vs-scalar dispatch of the machine). The traced
# example must also issue the benchmark's collectives per step.
for seed in 3 11; do
    for pair in dense_1r:8 wire_2r:8 fine_2r:32; do
        workload=${pair%:*}
        theirs=$(bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 1 --trace 0 |
            grep '^loss_digest ')
        ours=$(timeout --kill-after=30 300 cargo run --release -q -p models \
            --example train_transformer -- digest "$workload" "$seed")
        if [ "$ours" != "$theirs
collectives_per_step ${pair#*:}" ]; then
            printf '%s seed %s: benchmark printed\n%s\nthe program printed\n%s\n' \
                "$workload" "$seed" "$theirs" "$ours" >&2
            exit 1
        fi
        echo "$workload seed $seed: $theirs, ${pair#*:} collectives/step"
    done
done

echo "==> step attribution: measured-vs-modeled phase split on 4 ranks"
# Calibrates per-phase alpha-beta models from fault-free runs, predicts
# the phase split at a larger scale through simnet's serial step chain,
# then validates the prediction against a real run — and reruns with an
# injected 15 ms straggler, which attribution must name the critical
# rank and whose stall must be booked as the victims' blocked wait.
# Writes a validated Chrome trace (stitched op keys included) plus a
# flight-recorder dump, and self-checks every property.
timeout --kill-after=30 300 \
    cargo run --release -p models --example step_attribution -- target/step_attribution.json

echo "==> conformance: workspace invariant linter"
# Static gates: no std::sync locks outside shims/, no unjustified
# unwrap/expect in the guarded crates, obs names only via the registry,
# no wildcard arms over CommError where Reconfigured/Abandoned must be
# distinguished — plus the dataflow auditor (unordered iteration,
# rank-divergent collectives, wall-clock decisions, float accumulation
# order, wall-clock assertions in tests). Non-zero exit on any
# violation; on failure the findings are re-emitted as JSON for
# one-glance triage. Also: no thread spawned in the compute crates.
if ! cargo run --release -p analyzer; then
    echo "analyzer findings (JSON):" >&2
    cargo run --release -p analyzer -- --json >&2 || true
    exit 1
fi

echo "==> conformance: collective schedule symmetry golden"
# The static schedule extractor's per-function collective op-graph must
# match the checked-in golden exactly: a new, removed or reordered
# collective call site is a deliberate protocol change and must be
# re-blessed with `cargo run --release -p analyzer -- --write-golden`.
# Entries are keyed by function name, so code that only shifts lines
# leaves the golden as it is.
cargo run --release -p analyzer -- --schedule-report > target/schedule_report.json
if ! diff -u results/schedule_report.json target/schedule_report.json; then
    echo "schedule report drifted from results/schedule_report.json;" >&2
    echo "re-bless with: cargo run --release -p analyzer -- --write-golden" >&2
    exit 1
fi

echo "==> figures golden: the nine deterministic experiment binaries"
# Modeled numbers are pinned to the last digit (table6_gating and
# fig5_perfmodel time this machine and stay out).
cargo build --release -q -p bench --bins && mkdir -p target/figures
for fig in ablations dispatch_algos fig3_timeline fig4_cases fig6_models fig7_scaling fig8_pp table2 table5; do
    "target/release/$fig" > "target/figures/$fig.txt"
    if ! diff -u "results/$fig.txt" "target/figures/$fig.txt"; then
        echo "re-bless with: cargo run --release -p bench --bin $fig > results/$fig.txt" >&2
        exit 1
    fi
done

echo "==> plan_sweep: the benchmark's planning workload, bit for bit"
# plan_sweep plans, lowers and simulates a seeded sample of the Table 4
# grid through models::iteration; its objective is a pure function of
# the schedules, so a change to planning, the step, its lowering or the
# engine that moves any makespan moves these bits.
for pair in 3:0.7350841691192694 5:0.7355275825197632; do
    seed=${pair%%:*} want=${pair#*:}
    out=$(bash benchmark/run.sh --workload plan_sweep --seed "$seed" --seconds 1 --trace 0 | tail -n 1)
    case "$out" in
        *'"correct":true'*'"failed":0'*'"objective":{"unit":"loss","value":'"$want"'}'*)
            echo "plan_sweep seed $seed: correct, 0 failed, objective $want" ;;
        *)
            printf 'plan_sweep seed %s: want correct, 0 failed, objective %s; got\n%s\n' \
                "$seed" "$want" "$out" >&2
            exit 1 ;;
    esac
done

echo "==> conformance: chaos suite under the lock doctor"
# Re-run the fault-injection suites with lock-order tracking armed.
# Every test holds a check_guard, so any potential-deadlock cycle or
# blocking hazard observed anywhere in the run fails the suite.
LOCK_DOCTOR=1 timeout --kill-after=30 300 \
    cargo test -q -p collectives --test chaos --test faults
LOCK_DOCTOR=1 timeout --kill-after=30 300 \
    cargo test -q -p models --test lock_doctor

echo "==> elastic recovery smoke: 3-rank run surviving a dead rank"
# Rank 2 dies permanently after one step; the survivors evict it,
# re-shard the orphaned experts, roll back to the last snapshot, and
# finish. The example self-validates the elastic.reconfigure spans, the
# membership-epoch gauge, the eviction counter, and the exported trace.
timeout --kill-after=30 120 \
    cargo run --release -p models --example elastic_recovery -- target/elastic_recovery.json

echo "==> elastic chaos soak: >= 8 seeds x 2-8 ranks under a hang watchdog"
# ELASTIC_SOAK_WIDE=1 widens the soak to 6- and 8-rank worlds. The
# in-process flight watchdog fires before the GNU one (9 min) and drains
# the last-N ring events of every thread to
# target/flight_elastic_soak.json, so a hang leaves a trace.
soak "elastic chaos soak" ELASTIC_SOAK_WIDE=1 \
    FLIGHT_DUMP=target/flight_elastic_soak.json FLIGHT_WATCHDOG_MS=540000 \
    'cargo test -q -p models --test elastic --test elastic_obs'

echo "==> migration soak: fence suite and straggler soak under the lock doctor"
# Live hot-expert migrations (the health ladder's quarantine drain)
# run with lock-order tracking armed the whole time: the fence protocol
# suite, the migrated-vs-unmigrated bit-identity test, and the 4-seed
# soak that delays one rank around both migration steps and requires
# every rank to end bit-identical to the fault-free migrated run.
soak "migration soak" LOCK_DOCTOR=1 \
    FLIGHT_DUMP=target/flight_migration.json FLIGHT_WATCHDOG_MS=540000 \
    'cargo test -q -p collectives --test migration_fence &&
     cargo test -q -p models --test migrate'

echo "==> gray-failure smoke: 4-rank run surviving a browned-out rank"
# Rank 3 limps (~5 ms per collective) but never dies. The health
# monitor scores it from all-reduced self-times, the ladder logs then
# quarantines it (draining a hot expert off it), the gray-failure
# pricing flips, and the fleet performs a live eviction. The example
# self-validates SPMD-identical scores, the health counters, the
# reconfigure spans, bit-identity against a fresh 3-rank world, and the
# exported trace.
timeout --kill-after=30 180 \
    cargo run --release -p bench --example gray_failure -- target/gray_failure.json

echo "==> gray-failure soak: escalation ladder under the lock doctor"
# The trainer-level gray-failure soak: per-seed brownout magnitudes and
# pricing horizons force both ladder outcomes — limp to completion when
# eviction never amortizes, or one clean live eviction with
# bit-identical survivors. Lock-order tracking is armed. (The brownout
# chaos proptests live in collectives/tests/chaos.rs, which the chaos
# stage above already runs under the lock doctor.)
soak "gray-failure soak" LOCK_DOCTOR=1 \
    'cargo test -q -p models --test health'

# The budget gates: every [[bench]] target of crates/bench, all on the
# one harness (crates/bench/src/gate.rs) — each rewrites its
# BENCH_<name>.json, appends results/bench_history.jsonl and exits
# non-zero listing every budget it missed:
#   harness     serial packed-GEMM GFLOPS floors at dims >= 256,
#               activations <= 4 ns/element, nt/tn >= 0.9x plain, the
#               skinny training-shape GEMMs (hot and cold) as shares of
#               the square rate, no large allocation and <= 2% of the
#               pre-recycler minor faults per warm MoE step, the §5
#               partitioner's t_moe(t_gar) curve >= 20x the degree scan,
#               Tutel's degree selection by op-list walk >= 4x the same
#               selection through task graphs (DEGREE_WALK_SPEEDUP_FLOOR)
#               (BENCH_compute)
#   lockdoctor  disabled lock-doctor fast path < 2% of a collectives run
#   migrate     hot-expert migration pause < 250 ms (best of 5)
#   attrib      instrumentation overhead < 2% of a forward, flight
#               recorder on and everything off
#   health      >= 90% of the healthy step rate within 20 steps of a
#               gray-failure eviction (median of 21 runs, each against
#               a healthy baseline timed right before it), bit-identical
#               to a fresh 3-rank world
#   profiler    the real wire and GEMM fit alpha-beta (r2 >= 0.9)
gates=$(sed -n '/^\[\[bench\]\]/{n;s/^name = "\(.*\)"/\1/p}' crates/bench/Cargo.toml)
[ -n "$gates" ] || { echo "no [[bench]] targets found" >&2; exit 1; }
for gate in $gates; do
    echo "==> budget gate: $gate"
    timeout --kill-after=30 300 cargo bench -q -p bench --bench "$gate"
done

echo "CI OK"
