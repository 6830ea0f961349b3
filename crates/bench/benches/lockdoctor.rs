//! Overhead guard for the lock doctor's disabled fast path.
//!
//! The contract (DESIGN.md §8) mirrors the obs registry's: with the
//! doctor off — the default — each `Mutex::lock` adds one relaxed
//! atomic load and a branch over a raw `std::sync::Mutex`, so the
//! instrumentation compiled into every workspace lock stays within the
//! same 2% budget the obs bench enforces, measured the same way:
//!
//! * directly: per-acquisition cost of a disabled shim lock minus a raw
//!   std lock, times the acquisitions one 4-rank collectives workload
//!   actually makes (counted by an enabled doctor run), as a fraction
//!   of the workload's wall time;
//! * for context: the same workload with the doctor enabled (tracking
//!   is allowed to cost more — it buys the order graph).
//!
//! Results go to `BENCH_lockdoctor.json`; exits non-zero when the
//! disabled overhead exceeds 2%.

use bench::gate::{best_of_ms, per_call_ns, Gate};
use collectives::{run_world, CommWorld};
use parking_lot::lock_doctor;

const LOCK_CALLS: usize = 2_000_000;
const WORKLOAD_RUNS: usize = 5;

/// The measured workload: a 4-rank world doing a mix of collectives —
/// the lock-heaviest code in the workspace (every op is rendezvous
/// through a shim mutex + condvar).
fn collectives_workload() {
    let world = CommWorld::new(4);
    run_world(world, |comm| {
        let group = comm.world_group();
        let mut x = vec![comm.rank() as f32; 64];
        for _ in 0..50 {
            group.all_reduce(&mut x).expect("all_reduce");
            let _ = group.all_gather(&x).expect("all_gather");
            group.barrier().expect("barrier");
        }
    });
}

fn main() {
    let mut gate = Gate::new("lockdoctor");
    assert!(
        !lock_doctor::is_enabled(),
        "doctor must start disabled (unset LOCK_DOCTOR)"
    );

    // Per-acquisition cost: disabled shim lock vs raw std lock. The
    // difference is the doctor's fast path — one relaxed load + branch.
    let shim = parking_lot::Mutex::new(0u64);
    let shim_ns = per_call_ns(LOCK_CALLS, || *std::hint::black_box(&shim).lock() += 1);
    #[expect(
        clippy::disallowed_types,
        reason = "this IS the raw baseline the shim's fast-path cost is measured against"
    )]
    let raw = std::sync::Mutex::new(0u64);
    let raw_ns = per_call_ns(LOCK_CALLS, || {
        *std::hint::black_box(&raw).lock().expect("unpoisoned") += 1;
    });
    let per_lock_ns = (shim_ns - raw_ns).max(0.0);

    // Wall time with the doctor off…
    let disabled_ms = best_of_ms(WORKLOAD_RUNS, collectives_workload);

    // …how many acquisitions the workload makes (enabled run counts
    // them), and the enabled wall time for context.
    lock_doctor::enable();
    let _ = lock_doctor::take_report();
    let enabled_ms = best_of_ms(WORKLOAD_RUNS, collectives_workload);
    let report = lock_doctor::take_report();
    lock_doctor::disable();
    let acquisitions = report.acquisitions / WORKLOAD_RUNS as u64;
    assert!(
        report.is_clean(),
        "bench workload tripped the doctor:\n{}",
        report.render()
    );

    let disabled_overhead_pct = 100.0 * (acquisitions as f64 * per_lock_ns) / (disabled_ms * 1e6);
    let enabled_overhead_pct = 100.0 * (enabled_ms - disabled_ms) / disabled_ms;

    println!(
        "disabled lock: shim {shim_ns:.2} ns, raw std {raw_ns:.2} ns, delta {per_lock_ns:.2} ns"
    );
    println!(
        "workload: {acquisitions} acquisitions/run, {disabled_ms:.3} ms off / {enabled_ms:.3} ms on"
    );
    println!("disabled overhead: {disabled_overhead_pct:.4}% (budget 2%)");
    println!("enabled overhead: {enabled_overhead_pct:.2}%");

    gate.require(
        disabled_overhead_pct < 2.0,
        format!(
            "disabled lock-doctor instrumentation must cost < 2% of the \
             collectives workload ({disabled_overhead_pct:.4}%)"
        ),
    );
    gate.finish([
        ("disabled_shim_lock_ns", shim_ns),
        ("raw_std_lock_ns", raw_ns),
        ("disabled_delta_ns", per_lock_ns),
        ("acquisitions_per_run", acquisitions as f64),
        ("workload_ms_disabled", disabled_ms),
        ("workload_ms_enabled", enabled_ms),
        ("disabled_overhead_pct", disabled_overhead_pct),
        ("enabled_overhead_pct", enabled_overhead_pct),
        ("budget_pct", 2.0),
    ]);
}
