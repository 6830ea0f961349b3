//! Shape budgets for the online profiler's *real* measurements.
//!
//! `profiler::{comm, cpu}` time the in-tree collectives and GEMM on this
//! machine and fit `t = α + β·n` to the sweep. Whether those fits come
//! out the way the α–β model assumes is a property of the hardware under
//! load, so it is budgeted here — with min-of-N sampling — and not
//! asserted in `cargo test`, where only the structure of a sweep and the
//! fit on synthetic points are checked:
//!
//! * **the wire is linear in bytes** — a 2-rank AllReduce over 2–16 MiB
//!   per rank fits with `β > 0` and `r² ≥ 0.9`, and the largest payload
//!   costs more than the smallest (the floor was 0.5 while every call
//!   page-faulted its payload copies in: 0.36–0.92 over three runs then,
//!   0.92–0.9996 over thirteen with the staging recycled, 0.967–0.996
//!   over six with nothing staged at all — 16 MiB leaves the cache);
//! * **the GEMM is linear in FLOPs** — a square-GEMM sweep fits with
//!   `β > 0` and `r² ≥ 0.9`, and the largest GEMM costs more than the
//!   smallest.
//!
//! Results go to `BENCH_profiler.json`; exits non-zero when a budget is
//! missed.

use bench::gate::Gate;
use jsonio::Json;
use profiler::comm::{self, CommOp};
use profiler::{cpu, FittedModel};

/// Repetitions per point; the sample is the minimum.
const RUNS: usize = 15;
const WIRE_R2_BUDGET: f64 = 0.9;
const GEMM_R2_BUDGET: f64 = 0.9;

/// One budgeted fit: judges it against `gate` and returns its report
/// row.
fn judge(
    gate: &mut Gate,
    name: &str,
    fitted: &FittedModel,
    first_ms: f64,
    last_ms: f64,
    r2_budget: f64,
) -> Json {
    let ok = fitted.model.beta > 0.0 && fitted.r_squared >= r2_budget && last_ms > first_ms;
    println!(
        "{name:<22} alpha {:9.5} ms  beta {:.3e} ms/unit  r2 {:.4} (budget {r2_budget})  \
         smallest {first_ms:.4} ms, largest {last_ms:.4} ms  {}",
        fitted.model.alpha,
        fitted.model.beta,
        fitted.r_squared,
        if ok { "ok" } else { "MISSED" }
    );
    gate.require(
        ok,
        format!(
            "{name}: the fit must have β > 0, r² ≥ {r2_budget} and cost more at the largest size"
        ),
    );
    Json::obj(vec![
        ("name", Json::from(name)),
        ("alpha_ms", Json::from(fitted.model.alpha)),
        ("beta_ms_per_unit", Json::from(fitted.model.beta)),
        ("r_squared", Json::from(fitted.r_squared)),
        ("r_squared_budget", Json::from(r2_budget)),
        ("smallest_ms", Json::from(first_ms)),
        ("largest_ms", Json::from(last_ms)),
        ("ok", Json::Bool(ok)),
    ])
}

fn main() {
    let mut gate = Gate::new("profiler");
    // 2–16 MiB per rank: the copy dominates the rendezvous wake-up
    let wire_sizes: Vec<usize> = (1..=8).map(|i| i << 19).collect();
    let wire = comm::measure_collective(CommOp::AllReduce, 2, &wire_sizes, RUNS);
    let wire_fit = comm::fit_samples(&wire).expect("distinct payloads");
    let wire_row = judge(
        &mut gate,
        "AllReduce 2r (bytes)",
        &wire_fit,
        wire[0].millis,
        wire[wire.len() - 1].millis,
        WIRE_R2_BUDGET,
    );

    let gemm = cpu::measure_gemm(&[64, 96, 128, 192, 256, 320], RUNS);
    let gemm_fit = cpu::fit_samples(&gemm).expect("distinct dims");
    let gemm_row = judge(
        &mut gate,
        "square GEMM (flops)",
        &gemm_fit,
        gemm[0].millis,
        gemm[gemm.len() - 1].millis,
        GEMM_R2_BUDGET,
    );

    gate.finish(vec![
        ("runs_per_point", Json::from(RUNS as f64)),
        ("fits", Json::Arr(vec![wire_row, gemm_row])),
    ]);
}
