//! Pure-std benchmark harness for the hot paths the paper quantifies in
//! §6.2, plus the packed-GEMM compute baseline.
//!
//! Runs under `cargo bench` (the `[[bench]]` target sets `harness = false`,
//! so this `main` owns the process). It times:
//!
//! * the packed GEMM over a size sweep straddling the parallel
//!   threshold, at several *explicit* thread counts via
//!   [`Tensor::matmul_with_threads`] — never via `TENSOR_THREADS`, whose
//!   `OnceLock` latch is read once per process and would turn a sweep
//!   into N measurements of the same count (the old harness did exactly
//!   that and recorded `speedup ≈ 1` at `hardware_threads: 1`);
//! * an end-to-end GShard MoE layer forward at the same explicit thread
//!   counts via [`MoeLayer::set_compute_threads`] — no child-process
//!   re-exec needed;
//! * the control-plane kernels (pipeline-degree solver, α–β model fit)
//!   the paper benchmarks against SLSQP.
//!
//! Results are printed as a table and written to `BENCH_compute.json`
//! so successive runs can be diffed. The gate's budget is a GFLOPS
//! floor per GEMM dim (`GFLOPS_FLOORS`) that the packed microkernel
//! must clear, so a kernel regression fails `ci.sh` instead of silently
//! shipping.

use bench::gate::{best_of_ms, reference_layer, Gate};
use bench::{perf_model, table4_grid};
use jsonio::Json;
use numopt::LinearFit;
use profiler::microbench::{comm_message_sizes, profile_op};
use scheduler::{find_optimal_pipeline_degree, MoePerfModel, Phase};
use simnet::Testbed;
use tensor::TensorRng;

/// Square GEMM dimensions for the sweep; 64 sits below the
/// `PAR_MIN_MACS` serial-fallback threshold, the rest above it.
const GEMM_DIMS: [usize; 4] = [64, 128, 256, 384];
/// Explicit worker counts for both sweeps. On a single-core box the
/// extra counts measure banding overhead rather than speedup; the floor
/// below is taken over the best count per dim, so that is fine.
const THREAD_SWEEP: [usize; 3] = [1, 2, 4];
/// Minimum best-thread-count GFLOPS per dim, `(dim, floor)`. The packed
/// AVX2 microkernel measures ~60–70 GFLOPS at dims ≥ 256 on the CI box;
/// the pre-rewrite blocked kernel measured ~18. The floor is set at 2×
/// the old kernel with headroom for a noisy shared host: dropping below
/// it means the packed kernel (or its dispatch) regressed.
const GFLOPS_FLOORS: [(usize, f64); 2] = [(256, 36.0), (384, 36.0)];
const GEMM_RUNS: usize = 5;
const MOE_RUNS: usize = 5;

/// Times the square GEMM at every dim × thread count; returns the JSON
/// rows plus `(dim, best_gflops)` for the floor check.
fn bench_gemm() -> (Vec<Json>, Vec<(usize, f64)>) {
    let mut rng = TensorRng::seed_from(0xC0FFEE);
    let mut rows = Vec::new();
    let mut best_per_dim = Vec::new();
    println!("GEMM thread sweep (explicit matmul_with_threads):");
    println!(
        "  {:>5}  {:>7}  {:>12}  {:>8}  {:>10}",
        "dim", "threads", "ms", "speedup", "GFLOP/s"
    );
    for &d in &GEMM_DIMS {
        let a = rng.uniform(&[d, d], -1.0, 1.0);
        let b = rng.uniform(&[d, d], -1.0, 1.0);
        let flops = 2.0 * (d as f64).powi(3);
        let mut sweep = Vec::new();
        let mut serial_ms = f64::NAN;
        let mut best_gflops = 0.0f64;
        for &t in &THREAD_SWEEP {
            let ms = best_of_ms(GEMM_RUNS, || {
                std::hint::black_box(a.matmul_with_threads(&b, t).expect("gemm").data()[0]);
            });
            if t == 1 {
                serial_ms = ms;
            }
            let gflops = flops / (ms * 1e-3) / 1e9;
            best_gflops = best_gflops.max(gflops);
            let speedup = serial_ms / ms;
            println!("  {d:>5}  {t:>7}  {ms:>12.4}  {speedup:>7.2}x  {gflops:>10.2}");
            sweep.push(Json::obj(vec![
                ("threads", Json::from(t)),
                ("ms", Json::from(ms)),
                ("speedup_vs_serial", Json::from(speedup)),
                ("gflops", Json::from(gflops)),
            ]));
        }
        best_per_dim.push((d, best_gflops));
        rows.push(Json::obj(vec![
            ("dim", Json::from(d)),
            ("serial_ms", Json::from(serial_ms)),
            ("best_gflops", Json::from(best_gflops)),
            ("sweep", Json::from(sweep)),
        ]));
    }
    (rows, best_per_dim)
}

/// Times one end-to-end MoE forward per explicit thread count; returns
/// the JSON sweep plus `(tokens, experts, best_ms)`.
fn bench_moe() -> (Vec<Json>, usize, usize, f64) {
    let (mut layer, input) = reference_layer();
    let (tokens, experts) = (layer.config().tokens(), layer.config().num_experts);
    let mut sweep = Vec::new();
    let mut serial_ms = f64::NAN;
    let mut best_ms = f64::INFINITY;
    println!("\nMoE layer forward ({tokens} tokens, {experts} experts):");
    for &t in &THREAD_SWEEP {
        layer.set_compute_threads(Some(t));
        let ms = best_of_ms(MOE_RUNS, || {
            let mut r = TensorRng::seed_from(1);
            std::hint::black_box(layer.forward(&input, &mut r).expect("forward"));
        });
        if t == 1 {
            serial_ms = ms;
        }
        best_ms = best_ms.min(ms);
        let speedup = serial_ms / ms;
        let tokens_per_s = tokens as f64 / (ms * 1e-3);
        println!("  threads {t}: {ms:.3} ms ({speedup:.2}x vs serial), {tokens_per_s:.0} tokens/s");
        sweep.push(Json::obj(vec![
            ("threads", Json::from(t)),
            ("ms", Json::from(ms)),
            ("speedup_vs_serial", Json::from(speedup)),
            ("tokens_per_s", Json::from(tokens_per_s)),
        ]));
    }
    (sweep, tokens, experts, best_ms)
}

fn bench_control_plane() -> Vec<(&'static str, f64)> {
    // §6.2: the SLSQP solve averages 193 ms per configuration; our exact
    // solver should be orders of magnitude faster
    let tb = Testbed::a();
    let specs: Vec<MoePerfModel> = table4_grid(&tb)
        .iter()
        .step_by(97)
        .map(|cfg| {
            let spec = cfg.layer_spec(&tb).expect("valid").moe;
            perf_model(&tb, &spec, Phase::Backward, 1.0)
        })
        .collect();
    let solver_ms = best_of_ms(GEMM_RUNS, || {
        for m in &specs {
            std::hint::black_box(find_optimal_pipeline_degree(std::hint::black_box(m)));
        }
    });

    // §6.2: least-squares fitting takes <10 ms in the paper
    let tb = Testbed::b();
    let p = profile_op("AlltoAll", &tb.costs.a2a, &comm_message_sizes(), 0.01, 5, 3);
    let xs: Vec<f64> = p.samples.iter().map(|s| s.0).collect();
    let ys: Vec<f64> = p.samples.iter().map(|s| s.1).collect();
    let fit_ms = best_of_ms(GEMM_RUNS, || {
        std::hint::black_box(LinearFit::fit(&xs, &ys).expect("fit"));
    });
    vec![
        ("find_optimal_pipeline_degree_sweep", solver_ms),
        ("linear_fit_24_points", fit_ms),
    ]
}

fn main() {
    let mut gate = Gate::new("compute");
    println!(
        "hardware threads: {} (sweeps use explicit thread counts)\n",
        tensor::par::hardware_threads()
    );

    let (gemm_rows, best_per_dim) = bench_gemm();
    let (moe_sweep, tokens, experts, moe_best_ms) = bench_moe();

    let control = bench_control_plane();
    println!("\ncontrol plane:");
    for (name, ms) in &control {
        println!("  {name}: {ms:.4} ms");
    }

    for (dim, floor) in GFLOPS_FLOORS {
        let best = best_per_dim
            .iter()
            .find(|(d, _)| *d == dim)
            .map(|(_, g)| *g)
            .expect("floor dim is in GEMM_DIMS");
        gate.require(
            best >= floor,
            format!(
                "GEMM dim {dim}: best {best:.1} GFLOPS is below the {floor:.1} floor — \
                 the packed microkernel regressed"
            ),
        );
    }

    gate.finish(vec![
        (
            "thread_sweep",
            Json::from(
                THREAD_SWEEP
                    .iter()
                    .map(|&t| Json::from(t))
                    .collect::<Vec<_>>(),
            ),
        ),
        ("gemm", Json::from(gemm_rows)),
        (
            "gemm_gflops_floors",
            Json::from(
                GFLOPS_FLOORS
                    .iter()
                    .map(|&(d, f)| {
                        Json::obj(vec![("dim", Json::from(d)), ("floor", Json::from(f))])
                    })
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "moe_layer",
            Json::obj(vec![
                ("tokens", Json::from(tokens)),
                ("experts", Json::from(experts)),
                ("best_ms", Json::from(moe_best_ms)),
                (
                    "best_tokens_per_s",
                    Json::from(tokens as f64 / (moe_best_ms * 1e-3)),
                ),
                ("sweep", Json::from(moe_sweep)),
            ]),
        ),
        (
            "control_plane",
            Json::obj(
                control
                    .iter()
                    .map(|(name, ms)| (*name, Json::from(*ms)))
                    .collect::<Vec<_>>(),
            ),
        ),
    ]);
}
