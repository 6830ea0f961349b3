//! Pure-std benchmark harness for the hot paths the paper quantifies in
//! §6.2, plus the compute layer's own baseline.
//!
//! Runs under `cargo bench` (the `[[bench]]` target sets `harness = false`,
//! so this `main` owns the process). It times:
//!
//! * the packed GEMM over a size sweep, one rate per dim: a GEMM runs
//!   on the thread that calls it;
//! * `matmul_nt` / `matmul_tn` beside the plain GEMM (the transposed
//!   packing must not cost what the transposes it replaced did);
//! * the skinny GEMMs the training workloads are made of — many rows
//!   against a narrow weight, a few rows against a wide one — in all
//!   three forms, hot and against 32 MB of cycled weights, each as a
//!   share of the square GEMM timed between them;
//! * the vector activations in ns per element;
//! * layer norm and its backward at `wire_2r`'s 512×256 token block,
//!   each beside the one-row-at-a-time loop it replaced;
//! * an end-to-end GShard MoE layer forward **and backward**, and what a
//!   warm forward + backward costs the memory system: allocations
//!   ≥ 64 KiB (from a counting `#[global_allocator]`, this binary only)
//!   and minor page faults (from `/proc/self/stat`, where there is one);
//! * the control-plane kernels (pipeline-degree solver, α–β model fit)
//!   the paper benchmarks against SLSQP, and the §5 gradient partitioner
//!   at the planner's settings, with the per-layer `t_moe(t_gar)` curve
//!   its objective reads beside the 64-degree scan that curve replaces;
//! * a baseline's 16-degree pipeline-degree selection, each candidate
//!   priced by walking its op list beside the same scan lowering every
//!   candidate to a task graph and simulating it.
//!
//! Results are printed as a table and written to `BENCH_compute.json`
//! so successive runs can be diffed. The budgets: a GFLOPS floor per
//! GEMM dim, activations ≤ 4 ns/element, `nt`/`tn` ≥ 0.9× plain (the
//! median of per-round ratios), a share of the square rate per skinny
//! shape (the median of per-round shares), no large allocation and
//! ≤ 2 % of the pre-recycler page faults per warm MoE step, a `t_gar`
//! priced by the curve ≥ 20× faster than by the scan, a degree
//! selection by the walk ≥ 3× faster than through task graphs — so a
//! kernel, packing, buffer-recycling or planner regression fails
//! `ci.sh` instead of silently shipping.

use baselines::ScheduleKind;
use bench::gate::{best_of_ms, median_ms, reference_layer, Gate};
use bench::{perf_model, table4_grid};
use jsonio::Json;
use models::{attention_backward_time, TransformerLayerSpec};
use numopt::LinearFit;
use profiler::microbench::{comm_message_sizes, profile_op};
use scheduler::{
    find_optimal_pipeline_degree, partition_gradients, GarCurve, GeneralizedLayer, MoePerfModel,
    Phase, StreamSet, PLANNER_DE,
};
use simnet::{Engine, TaskGraph, Testbed};
use tensor::{grad, Tensor, TensorRng};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// Square GEMM dimensions for the sweep.
const GEMM_DIMS: [usize; 4] = [64, 128, 256, 384];
/// Minimum GFLOPS per dim, `(dim, floor)`. At dims ≥ 256 one thread of
/// the CI box measures 115–140 on the 12×32 AVX-512 microkernel (60–85
/// on the 6×16 AVX2 one); the pre-rewrite blocked kernel measured ~18.
/// The floor is set at 2× that kernel with headroom for a noisy shared
/// host: dropping below it means the packed kernel (or its dispatch)
/// regressed.
const GFLOPS_FLOORS: [(usize, f64); 2] = [(256, 36.0), (384, 36.0)];
/// `nt`/`tn` GFLOPS as a share of the plain GEMM's.
const TRANSPOSED_FLOOR: f64 = 0.9;
/// The GEMMs a training step is made of, `(m, k, n)`: `wire_2r`'s 1 280
/// rows against a 32-column weight (32 multiply-adds per element of `A`
/// — a packing pass over `A` costs what the multiply does), `dense_1r`'s
/// 64-row expert batch against a 256 KB weight, `fine_2r`'s 20 rows
/// against 128 KB (20 multiply-adds per packed element of `B`). Each
/// with the share of the serial square GEMM's rate — timed in the same
/// rounds, so a slow minute of the host moves both — that all three
/// forms must keep: hot, and against weights that are cold every time
/// they are touched, as an expert's are. Set at 0.6–0.7 of what the
/// 512-bit kernel measures (1.0 / 0.85, 0.72 / 0.52, 0.42 / 0.27); the
/// kernel before it, which packed every strip of `A`, read 0.48–0.62 hot
/// on the first shape.
const SKINNY: [((usize, usize, usize), f64, f64); 3] = [
    ((1280, 256, 32), 0.7, 0.6),
    ((64, 128, 512), 0.45, 0.3),
    ((20, 256, 128), 0.25, 0.15),
];
/// The square GEMM the skinny shapes are read against.
const SKINNY_PROBE_DIM: usize = 256;
/// Weights cycled per cold measurement: beyond every cache level.
const COLD_BYTES: usize = 32 << 20;
const GEMM_FORMS: [&str; 3] = ["plain", "nt", "tn"];
/// Ceiling for every vector activation (libm measured ≈ 27).
const ACTIVATION_NS_CEILING: f64 = 4.0;
/// Minor faults per warm MoE forward + backward before tensors were
/// recycled (this measurement on commit `0ddae15`: 1061 on one thread,
/// with 29 allocations ≥ 64 KiB), and the share of
/// it a step may still take: a page the previous step already touched
/// must not fault again.
const PARENT_FAULTS_PER_STEP: f64 = 1061.0;
const FAULTS_VS_PARENT_CEILING: f64 = 0.02;
const GEMM_RUNS: usize = 15;
const MOE_RUNS: usize = 5;
/// Warm forward + backward steps the memory rows are averaged over.
const MEMORY_STEPS: usize = 20;
/// `wire_2r`'s token block, which every block's two layer norms see.
const NORM_SHAPE: [usize; 2] = [512, 256];
const NORM_EPS: f32 = 1e-5;
/// How much faster than the per-row loop, timed in the same process,
/// layer norm and its backward must run (2.5–3.0× and 2.2–2.4× on one
/// core of the AVX-512 reference box).
const NORM_SPEEDUP_FLOOR: f64 = 1.5;
/// How much faster than the degree scan, `find_optimal_pipeline_degree`,
/// on the same models and budgets, timed in the same process, a
/// `GarCurve` must price a Gradient-AllReduce budget (~11 ns against
/// ~1.9 µs, ≈ 175×, on one core of the AVX-512 reference box).
const GAR_CURVE_SPEEDUP_FLOOR: f64 = 20.0;
/// Gradient-AllReduce budgets the curve and the scan are priced at, ms.
const GAR_BUDGETS_MS: [f64; 8] = [0.0, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0];
/// Passes over the budgets per curve timing, so a pass outlasts the clock.
const CURVE_PASSES: usize = 200;
/// How much faster than lowering every candidate to a task graph and
/// simulating it, timed in the same process on the same models, Tutel's
/// 16-degree selection must run by walking each candidate's op list
/// (~4–5.5 µs against ~17–20 µs, 3.6–5.3× over six runs, on one core of
/// the 2-core box, under this binary's counting allocator). The floor
/// was 4× while every task still allocated its name and deps (7.7–9.4×
/// then); the flat task graph sped up the graph side most, and a walk
/// that built graphs or allocated per op would still read below 3×.
const DEGREE_WALK_SPEEDUP_FLOOR: f64 = 3.0;

/// Minor page faults this process has taken so far (`minflt`, the tenth
/// field of `/proc/self/stat`); `None` where there is no such file.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // the second field is the parenthesised command name, spaces and all
    let after_comm = stat.rsplit_once(')')?.1;
    after_comm.split_whitespace().nth(7)?.parse().ok()
}

/// Times the square GEMM at every dim; returns the JSON rows plus
/// `(dim, GFLOP/s)`.
fn bench_gemm() -> (Vec<Json>, Vec<(usize, f64)>) {
    let mut rng = TensorRng::seed_from(0xC0FFEE);
    let mut rows = Vec::new();
    let mut rates = Vec::new();
    println!("square GEMM:");
    println!("  {:>5}  {:>12}  {:>10}", "dim", "ms", "GFLOP/s");
    for &d in &GEMM_DIMS {
        let a = rng.uniform(&[d, d], -1.0, 1.0);
        let b = rng.uniform(&[d, d], -1.0, 1.0);
        let ms = best_of_ms(GEMM_RUNS, || {
            std::hint::black_box(a.matmul(&b).expect("gemm").data()[0]);
        });
        let gflops = 2.0 * (d as f64).powi(3) / (ms * 1e-3) / 1e9;
        println!("  {d:>5}  {ms:>12.4}  {gflops:>10.2}");
        rates.push((d, gflops));
        rows.push(Json::obj(vec![
            ("dim", Json::from(d)),
            ("ms", Json::from(ms)),
            ("gflops", Json::from(gflops)),
        ]));
    }
    (rows, rates)
}

/// Times `matmul_nt` and `matmul_tn` beside the plain GEMM; returns the
/// JSON rows (best-of rates) plus `(dim, nt ÷ plain, tn ÷ plain)`, each
/// ratio the median over rounds of that round's back-to-back calls — a
/// ratio of two minima taken in different rounds follows the host's
/// slow stretches, not the kernel.
fn bench_transposed() -> (Vec<Json>, Vec<(usize, f64, f64)>) {
    let mut rng = TensorRng::seed_from(0xBEEF);
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    println!("\ntransposed-operand GEMM (GFLOP/s):");
    println!(
        "  {:>5}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8}",
        "dim", "plain", "nt", "tn", "nt/plain", "tn/plain"
    );
    for &d in &GEMM_DIMS[1..] {
        let a = rng.uniform(&[d, d], -1.0, 1.0);
        let b = rng.uniform(&[d, d], -1.0, 1.0);
        // one call per form per round, so a slow stretch of the host
        // hits every form alike
        let forms: [&dyn Fn() -> Tensor; 3] = [
            &|| a.matmul(&b).expect("gemm"),
            &|| a.matmul_nt(&b).expect("gemm"),
            &|| a.matmul_tn(&b).expect("gemm"),
        ];
        let mut best_ms = [f64::INFINITY; 3];
        let (mut nt_ratios, mut tn_ratios) = (Vec::new(), Vec::new());
        for _ in 0..GEMM_RUNS {
            let round = forms.map(|form| {
                best_of_ms(1, || {
                    std::hint::black_box(form().data()[0]);
                })
            });
            for (best, ms) in best_ms.iter_mut().zip(round) {
                *best = best.min(ms);
            }
            // a rate ratio is the inverse of the time ratio
            nt_ratios.push(round[0] / round[1]);
            tn_ratios.push(round[0] / round[2]);
        }
        let [plain, nt, tn] = best_ms.map(|ms| 2.0 * (d as f64).powi(3) / (ms * 1e-3) / 1e9);
        // the gate decides on the median per-round ratios, not on the
        // ratios of the best rates
        let (nt_ratio, tn_ratio) = (median_ms(&mut nt_ratios), median_ms(&mut tn_ratios));
        println!(
            "  {d:>5}  {plain:>8.2}  {nt:>8.2}  {tn:>8.2}  {nt_ratio:>7.3}x  {tn_ratio:>7.3}x"
        );
        ratios.push((d, nt_ratio, tn_ratio));
        rows.push(Json::obj(vec![
            ("dim", Json::from(d)),
            ("plain_gflops", Json::from(plain)),
            ("nt_gflops", Json::from(nt)),
            ("tn_gflops", Json::from(tn)),
            ("nt_ratio", Json::from(nt_ratio)),
            ("tn_ratio", Json::from(tn_ratio)),
        ]));
    }
    (rows, ratios)
}

/// One skinny shape's rates as shares of the square probe's:
/// `(hot, cold)`, each `[plain, nt, tn]`, in [`SKINNY`] order.
type SkinnyShares = ([f64; 3], [f64; 3]);

/// Times [`SKINNY`] in all three forms, hot (one weight,
/// best call) and cold (a pass over [`COLD_BYTES`] of weights, best
/// pass), with the square probe timed before each. The JSON rows carry
/// both statistics; the shares returned for the gate are each the
/// median over rounds of that round's share — a ratio of two minima
/// taken in different rounds follows the host's slow stretches, not
/// the kernel.
fn bench_skinny() -> (Vec<Json>, Vec<SkinnyShares>) {
    let mut rng = TensorRng::seed_from(0x5C1);
    let d = SKINNY_PROBE_DIM;
    let (sa, sb) = (
        rng.uniform(&[d, d], -1.0, 1.0),
        rng.uniform(&[d, d], -1.0, 1.0),
    );
    let probe_ms = || {
        best_of_ms(GEMM_RUNS / 3, || {
            std::hint::black_box(sa.matmul(&sb).expect("gemm").data()[0]);
        })
    };
    let gflops = |flops: f64, ms: f64| flops / (ms * 1e-3) / 1e9;
    let mut rows = Vec::new();
    let mut shares = Vec::new();
    println!(
        "\nskinny GEMM (GFLOP/s; cold = {} MB of weights cycled):",
        COLD_BYTES >> 20
    );
    println!(
        "  {:>14}  {:>6}  {:>8}  {:>8}  {:>8}  {:>8}",
        "m x k x n", "", "plain", "nt", "tn", "square"
    );
    for ((m, k, n), hot_floor, cold_floor) in SKINNY {
        let a = rng.uniform(&[m, k], -1.0, 1.0);
        let at = a.transpose().expect("matrix");
        let count = COLD_BYTES.div_ceil(k * n * 4);
        let w = rng.uniform(&[k, n], -1.0, 1.0);
        let mut pool: Vec<Tensor> = (0..count).map(|_| w.clone()).collect();
        let forms: [&dyn Fn(&Tensor) -> Tensor; 3] = [
            &|w| a.matmul(w).expect("gemm"),
            &|w| a.matmul_nt(w).expect("gemm"),
            &|w| at.matmul_tn(w).expect("gemm"),
        ];
        let flops = 2.0 * (m * k * n) as f64;
        let square = |ms: f64| gflops(2.0 * (d as f64).powi(3), ms);
        let share = |ms: f64, probe: f64| gflops(flops, ms) / square(probe);
        let (mut hot_ms, mut cold_ms) = ([f64::INFINITY; 3], [f64::INFINITY; 3]);
        let (mut hot_probe, mut cold_probe) = (f64::INFINITY, f64::INFINITY);
        let (mut hot_rounds, mut cold_rounds): ([Vec<f64>; 3], [Vec<f64>; 3]) = Default::default();
        // A form's calls run back to back — `a` and its transpose do not
        // both fit the L2, and "hot" means hot — with the probe between.
        // Its hot calls come in three blocks a cold pass apart, so one
        // stretch of the host stealing the core cannot sink the form.
        // `plain` and `tn` read the weights as `(k, n)`, `nt` as `(n, k)`.
        for form in [0, 2, 1] {
            if GEMM_FORMS[form] == "nt" {
                for w in &mut pool {
                    w.reshape_in_place(&[n, k]).expect("same size");
                }
            }
            for _ in 0..3 {
                let probe = probe_ms();
                hot_probe = hot_probe.min(probe);
                let hot = best_of_ms(GEMM_RUNS / 3, || {
                    std::hint::black_box(forms[form](&pool[0]).data()[0]);
                });
                hot_ms[form] = hot_ms[form].min(hot);
                hot_rounds[form].push(share(hot, probe));
                let probe = probe_ms();
                cold_probe = cold_probe.min(probe);
                let pass = best_of_ms(1, || {
                    for w in &pool {
                        std::hint::black_box(forms[form](w).data()[0]);
                    }
                });
                let cold = pass / count as f64;
                cold_ms[form] = cold_ms[form].min(cold);
                cold_rounds[form].push(share(cold, probe));
            }
        }
        let hot = hot_ms.map(|ms| gflops(flops, ms));
        let cold = cold_ms.map(|ms| gflops(flops, ms));
        let shape = format!("{m}x{k}x{n}");
        for (label, g, probe) in [("hot", hot, hot_probe), ("cold", cold, cold_probe)] {
            println!(
                "  {shape:>14}  {label:>6}  {:>8.2}  {:>8.2}  {:>8.2}  {:>8.2}",
                g[0],
                g[1],
                g[2],
                square(probe)
            );
        }
        // the gate decides on the median per-round shares, not on the
        // shares of the best rates
        let hot_median = hot_rounds.map(|mut r| median_ms(&mut r));
        let cold_median = cold_rounds.map(|mut r| median_ms(&mut r));
        let by_form = |g: [f64; 3]| {
            Json::obj(
                GEMM_FORMS
                    .iter()
                    .zip(g)
                    .map(|(name, v)| (*name, Json::from(v)))
                    .collect::<Vec<_>>(),
            )
        };
        rows.push(Json::obj(vec![
            ("m", Json::from(m)),
            ("k", Json::from(k)),
            ("n", Json::from(n)),
            ("weights_cycled", Json::from(count)),
            ("hot_gflops", by_form(hot)),
            ("hot_square_gflops", Json::from(square(hot_probe))),
            ("cold_gflops", by_form(cold)),
            ("cold_square_gflops", Json::from(square(cold_probe))),
            (
                "hot_best_share",
                by_form(hot.map(|g| g / square(hot_probe))),
            ),
            (
                "cold_best_share",
                by_form(cold.map(|g| g / square(cold_probe))),
            ),
            ("hot_median_share", by_form(hot_median)),
            ("cold_median_share", by_form(cold_median)),
            ("hot_floor_vs_square", Json::from(hot_floor)),
            ("cold_floor_vs_square", Json::from(cold_floor)),
        ]));
        shares.push((hot_median, cold_median));
    }
    (rows, shares)
}

/// Times the vector activations on the 256×512 expert activation of
/// the benchmark's `dense_1r` workload; `(name, ns per element)`.
fn bench_activations() -> Vec<(&'static str, f64)> {
    let mut rng = TensorRng::seed_from(0xAC7);
    let x = rng.normal(&[256, 512], 0.0, 2.0);
    let g = rng.normal(&[256, 512], 0.0, 1.0);
    let elements = x.num_elements() as f64;
    let ns = |f: &dyn Fn() -> Tensor| {
        best_of_ms(GEMM_RUNS, || {
            std::hint::black_box(f().data()[0]);
        }) * 1e6
            / elements
    };
    let rows = vec![
        ("gelu", ns(&|| x.gelu())),
        (
            "gelu_backward",
            ns(&|| grad::gelu_backward(&g, &x).expect("shapes")),
        ),
        ("silu", ns(&|| x.silu())),
        (
            "silu_backward",
            ns(&|| grad::silu_backward(&g, &x).expect("shapes")),
        ),
    ];
    println!("\nvector activations (ns per element):");
    for (name, v) in &rows {
        println!("  {name}: {v:.3}");
    }
    rows
}

/// Per-row layer norm: the loop [`Tensor::layer_norm`] replaced.
fn per_row_layer_norm(x: &Tensor) -> Tensor {
    let cols = x.dims()[1];
    let mut out = x.clone();
    for row in out.data_mut().chunks_mut(cols) {
        let mean = row.iter().sum::<f32>() / cols as f32;
        let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / cols as f32;
        let denom = (var + NORM_EPS).sqrt();
        for v in row.iter_mut() {
            *v = (*v - mean) / denom;
        }
    }
    out
}

/// Per-row layer-norm backward: the loop [`grad::layer_norm_backward`]
/// replaced.
fn per_row_layer_norm_backward(grad_y: &Tensor, x: &Tensor) -> Tensor {
    let cols = x.dims()[1];
    let n = cols as f32;
    let mut out = tensor::buf::take(x.num_elements());
    for ((x_row, g_row), o_row) in x
        .data()
        .chunks(cols)
        .zip(grad_y.data().chunks(cols))
        .zip(out.chunks_mut(cols))
    {
        let mean = x_row.iter().sum::<f32>() / n;
        let var = x_row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
        let sigma = (var + NORM_EPS).sqrt();
        for (h, v) in o_row.iter_mut().zip(x_row) {
            *h = (v - mean) / sigma;
        }
        let g_mean = g_row.iter().sum::<f32>() / n;
        let gx_mean = g_row.iter().zip(&*o_row).map(|(g, h)| g * h).sum::<f32>() / n;
        for (o, g) in o_row.iter_mut().zip(g_row) {
            *o = (g - g_mean - *o * gx_mean) / sigma;
        }
    }
    Tensor::from_vec(out, x.dims()).expect("one output per input")
}

/// Times layer norm and its backward at [`NORM_SHAPE`], each beside the
/// per-row loop it replaced; `(name, µs, per-row µs)`.
fn bench_row_norms() -> Vec<(&'static str, f64, f64)> {
    let mut rng = TensorRng::seed_from(0x1A7);
    let x = rng.normal(&NORM_SHAPE, 0.0, 1.0);
    let g = rng.normal(&NORM_SHAPE, 0.0, 1.0);
    let us = |f: &dyn Fn() -> f32| {
        best_of_ms(GEMM_RUNS, || {
            std::hint::black_box(f());
        }) * 1e3
    };
    let forward = || x.layer_norm(NORM_EPS).expect("rank 2").data()[0];
    let backward = || {
        let dx = grad::layer_norm_backward(&g, &x, NORM_EPS).expect("shapes");
        dx.data()[0]
    };
    let rows = vec![
        (
            "layer_norm",
            us(&forward),
            us(&|| per_row_layer_norm(&x).data()[0]),
        ),
        (
            "layer_norm_backward",
            us(&backward),
            us(&|| per_row_layer_norm_backward(&g, &x).data()[0]),
        ),
    ];
    println!(
        "
row norms at {}x{} (µs, per-row loop):",
        NORM_SHAPE[0], NORM_SHAPE[1]
    );
    for (name, us, per_row) in &rows {
        println!("  {name}: {us:.1} ({per_row:.1}, {:.2}x)", per_row / us);
    }
    rows
}

/// Times one MoE-layer forward and one backward, then counts what
/// [`MEMORY_STEPS`] more warm forward + backward steps cost in large
/// allocations (on this thread) and minor faults (process-wide); returns
/// the JSON row plus both counts per step.
fn bench_moe() -> (Json, f64, Option<f64>) {
    let (mut layer, input) = reference_layer();
    let (tokens, experts) = (layer.config().tokens(), layer.config().num_experts);
    let grad_out = TensorRng::seed_from(2).normal(input.dims(), 0.0, 1.0);
    let ms = best_of_ms(MOE_RUNS, || {
        let mut r = TensorRng::seed_from(1);
        std::hint::black_box(layer.forward(&input, &mut r).expect("forward"));
    });
    let backward_ms = best_of_ms(MOE_RUNS, || {
        std::hint::black_box(layer.backward(&grad_out).expect("backward"));
    });
    let per_s = |ms: f64| tokens as f64 / (ms * 1e-3);
    println!(
        "\nMoE layer ({tokens} tokens, {experts} experts): {ms:.3} / {backward_ms:.3} ms \
         forward / backward, {:.0} / {:.0} tokens/s",
        per_s(ms),
        per_s(backward_ms)
    );
    let faults_before = minor_faults();
    let ((), _, large) = counting_alloc::count(|| {
        for _ in 0..MEMORY_STEPS {
            let mut r = TensorRng::seed_from(1);
            std::hint::black_box(layer.forward(&input, &mut r).expect("forward"));
            std::hint::black_box(layer.backward(&grad_out).expect("backward"));
        }
    });
    let per_step = |count: u64| count as f64 / MEMORY_STEPS as f64;
    let minor_faults = faults_before
        .zip(minor_faults())
        .map(|(before, after)| per_step(after - before));
    let large_allocs = per_step(large);
    println!(
        "  {large_allocs:.2} allocations >= {} KiB and {} minor faults per warm step",
        counting_alloc::LARGE >> 10,
        minor_faults.map_or("n/a".to_string(), |f| format!("{f:.1}")),
    );
    let mut row = vec![
        ("tokens", Json::from(tokens)),
        ("experts", Json::from(experts)),
        ("ms", Json::from(ms)),
        ("tokens_per_s", Json::from(per_s(ms))),
        ("backward_ms", Json::from(backward_ms)),
        ("backward_tokens_per_s", Json::from(per_s(backward_ms))),
        ("large_allocs_per_step", Json::from(large_allocs)),
    ];
    if let Some(faults) = minor_faults {
        row.push(("minor_faults_per_step", Json::from(faults)));
    }
    (Json::obj(row), large_allocs, minor_faults)
}

/// Tutel's pipeline-degree selection through task graphs: every degree
/// in `1..=16` lowered by `lower_layer`, simulated by the engine, the
/// first fastest kept — what `ScheduleKind::pipeline_degree` computes by
/// walking op lists.
fn tutel_degree_through_graphs(m: &MoePerfModel) -> u32 {
    let m = m.with_t_gar(0.0);
    let mut best = (0u32, f64::INFINITY);
    for r in 1..=16u32 {
        let mut graph = TaskGraph::new();
        let streams = StreamSet::add_to(&mut graph);
        let _ = ScheduleKind::Tutel.lower_layer(&mut graph, &streams, &m, r, &[], &[], "moe");
        let t = Engine::new()
            .simulate(&graph)
            .expect("lowered graphs simulate");
        if best.0 == 0 || t.makespan() < best.1 {
            best = (r, t.makespan());
        }
    }
    best.0
}

/// The control plane's timings: `(name, ms)` rows plus the speedups the
/// floors read.
struct ControlPlane {
    rows: Vec<(&'static str, f64)>,
    /// How many times faster the curve prices a budget than the scan.
    curve_speedup: f64,
    /// How many times faster the walk selects Tutel's degree than the
    /// task-graph scan.
    walk_speedup: f64,
    /// Whether both selections picked the same degree for every model.
    walk_agrees: bool,
}

/// Times the control-plane kernels.
fn bench_control_plane() -> ControlPlane {
    let tb = Testbed::a();
    let layer_specs: Vec<TransformerLayerSpec> = table4_grid(&tb)
        .iter()
        .step_by(97)
        .map(|cfg| cfg.layer_spec(&tb).expect("valid"))
        .collect();
    let specs: Vec<MoePerfModel> = layer_specs
        .iter()
        .map(|spec| perf_model(&tb, &spec.moe, Phase::Backward, 1.0))
        .collect();
    // §5.3: the partitioner `plan_iteration` runs, on 4-layer stacks
    let stacks: Vec<Vec<GeneralizedLayer>> = layer_specs
        .iter()
        .zip(&specs)
        .map(|(spec, m)| {
            let layer = GeneralizedLayer {
                moe: *m,
                t_olp_dense: attention_backward_time(&tb.costs, spec),
                grad_bytes: spec.dense_param_bytes,
            };
            vec![layer; 4]
        })
        .collect();
    let partition_ms = best_of_ms(MOE_RUNS, || {
        for stack in &stacks {
            std::hint::black_box(partition_gradients(
                std::hint::black_box(stack),
                tb.costs.all_reduce,
                PLANNER_DE,
            ));
        }
    }) / stacks.len() as f64;

    // §6.2: the SLSQP solve averages 193 ms per configuration; the exact
    // scan of all 64 degrees takes microseconds. This is also what the
    // partitioner's objective reads per layer and candidate
    let evals = (specs.len() * GAR_BUDGETS_MS.len()) as f64;
    let scan_ms = best_of_ms(GEMM_RUNS, || {
        for m in &specs {
            for t in GAR_BUDGETS_MS {
                let m = std::hint::black_box(m).with_t_gar(std::hint::black_box(t));
                std::hint::black_box(find_optimal_pipeline_degree(&m).t_moe);
            }
        }
    }) / evals;
    let curves: Vec<GarCurve> = specs.iter().map(GarCurve::new).collect();
    let curve_ms = best_of_ms(GEMM_RUNS, || {
        for _ in 0..CURVE_PASSES {
            for curve in &curves {
                for t in GAR_BUDGETS_MS {
                    std::hint::black_box(std::hint::black_box(curve).at(std::hint::black_box(t)));
                }
            }
        }
    }) / (evals * CURVE_PASSES as f64);

    // a baseline's degree selection: the walk against the task graphs
    let walk_ms = best_of_ms(GEMM_RUNS, || {
        for m in &specs {
            std::hint::black_box(ScheduleKind::Tutel.pipeline_degree(std::hint::black_box(m)));
        }
    }) / specs.len() as f64;
    let graph_ms = best_of_ms(GEMM_RUNS, || {
        for m in &specs {
            std::hint::black_box(tutel_degree_through_graphs(std::hint::black_box(m)));
        }
    }) / specs.len() as f64;
    let walk_agrees = specs
        .iter()
        .all(|m| ScheduleKind::Tutel.pipeline_degree(m) == tutel_degree_through_graphs(m));

    // §6.2: least-squares fitting takes <10 ms in the paper
    let tb = Testbed::b();
    let p = profile_op("AlltoAll", &tb.costs.a2a, &comm_message_sizes(), 0.01, 5, 3);
    let xs: Vec<f64> = p.samples.iter().map(|s| s.0).collect();
    let ys: Vec<f64> = p.samples.iter().map(|s| s.1).collect();
    let fit_ms = best_of_ms(GEMM_RUNS, || {
        std::hint::black_box(LinearFit::fit(&xs, &ys).expect("fit"));
    });
    let rows = vec![
        ("partition_gradients_4_layers", partition_ms),
        // the degree scan's row keeps the key it had when the scan was a
        // separate function, so `bench_history.jsonl` stays comparable;
        // older lines also carry `find_optimal_pipeline_degree_sweep`,
        // the same scan timed over all 16 models at one budget
        ("exhaustive_best_per_budget", scan_ms),
        ("gar_curve_per_budget", curve_ms),
        ("tutel_degree_walk", walk_ms),
        ("tutel_degree_task_graphs", graph_ms),
        ("linear_fit_24_points", fit_ms),
    ];
    ControlPlane {
        rows,
        curve_speedup: scan_ms / curve_ms,
        walk_speedup: graph_ms / walk_ms,
        walk_agrees,
    }
}

fn main() {
    let mut gate = Gate::new("compute");
    println!(
        "hardware threads: {} (a GEMM runs on one)\n",
        tensor::par::hardware_threads()
    );

    let (gemm_rows, gemm_rates) = bench_gemm();
    let (transposed_rows, transposed_ratios) = bench_transposed();
    // on a thread of its own, so the 32 MB weight pools leave with its
    // buffer recycler instead of sitting under the memory rows below
    let (skinny_rows, skinny_shares) =
        std::thread::scope(|s| s.spawn(bench_skinny).join().expect("skinny GEMM bench"));
    let activations = bench_activations();
    let norms = bench_row_norms();
    let (moe_row, large_allocs, minor_faults) = bench_moe();

    let control = bench_control_plane();
    let (curve_speedup, walk_speedup) = (control.curve_speedup, control.walk_speedup);
    println!("\ncontrol plane:");
    for (name, ms) in &control.rows {
        println!("  {name}: {ms:.3e} ms");
    }
    println!("  gar_curve_speedup_vs_scan: {curve_speedup:.1}x");
    println!("  degree_walk_speedup_vs_task_graphs: {walk_speedup:.1}x");

    for (dim, floor) in GFLOPS_FLOORS {
        let (_, gflops) = *gemm_rates
            .iter()
            .find(|rate| rate.0 == dim)
            .expect("floor dim is in GEMM_DIMS");
        gate.require(
            gflops >= floor,
            format!(
                "GEMM dim {dim}: {gflops:.1} GFLOPS is below the {floor:.1} floor — \
                 the packed microkernel regressed"
            ),
        );
    }
    for (dim, nt, tn) in transposed_ratios {
        gate.require(
            nt >= TRANSPOSED_FLOOR && tn >= TRANSPOSED_FLOOR,
            format!(
                "GEMM dim {dim}: nt/tn run at {nt:.2}x/{tn:.2}x of the plain GEMM, \
                 floor {TRANSPOSED_FLOOR:.2}x — the transposed packing regressed"
            ),
        );
    }
    for (((m, k, n), hot_floor, cold_floor), (hot, cold)) in SKINNY.iter().zip(&skinny_shares) {
        for (label, shares, floor) in [("hot", hot, hot_floor), ("cold", cold, cold_floor)] {
            for (form, share) in GEMM_FORMS.iter().zip(shares) {
                gate.require(
                    share >= floor,
                    format!(
                        "GEMM {m}x{k}x{n} {form} {label}: {share:.2}x the square \
                         {SKINNY_PROBE_DIM}\u{b3} rate, floor {floor:.2}x — packing or the \
                         ragged-strip path regressed"
                    ),
                );
            }
        }
    }
    for (name, ns) in &activations {
        gate.require(
            *ns <= ACTIVATION_NS_CEILING,
            format!("{name}: {ns:.2} ns/element, ceiling {ACTIVATION_NS_CEILING:.1}"),
        );
    }
    for (name, us, per_row) in &norms {
        gate.require(
            per_row / us >= NORM_SPEEDUP_FLOOR,
            format!(
                "{name}: {us:.1} µs, {:.2}x the per-row loop, floor {NORM_SPEEDUP_FLOOR:.1}x",
                per_row / us
            ),
        );
    }
    gate.require(
        large_allocs == 0.0,
        format!(
            "MoE layer: {large_allocs:.2} allocations >= {} KiB per warm forward + backward, \
             must be 0 — a tensor-sized buffer bypasses the recycler",
            counting_alloc::LARGE >> 10
        ),
    );
    gate.require(
        curve_speedup >= GAR_CURVE_SPEEDUP_FLOOR,
        format!(
            "GarCurve: prices a t_gar budget {curve_speedup:.1}x faster than the degree scan, \
             floor {GAR_CURVE_SPEEDUP_FLOOR:.0}x — the partitioner's objective regressed"
        ),
    );
    gate.require(
        walk_speedup >= DEGREE_WALK_SPEEDUP_FLOOR,
        format!(
            "Tutel degree selection: the op-list walk runs {walk_speedup:.1}x faster than \
             the task-graph scan, floor {DEGREE_WALK_SPEEDUP_FLOOR:.0}x — the walk regressed"
        ),
    );
    gate.require(
        control.walk_agrees,
        "Tutel degree selection: the op-list walk and the task-graph scan picked \
         different degrees"
            .to_string(),
    );
    let faults_ceiling = FAULTS_VS_PARENT_CEILING * PARENT_FAULTS_PER_STEP;
    if let Some(faults) = minor_faults {
        gate.require(
            faults <= faults_ceiling,
            format!(
                "MoE layer: {faults:.1} minor faults per warm forward + backward, ceiling \
                 {faults_ceiling:.1} ({FAULTS_VS_PARENT_CEILING} of {PARENT_FAULTS_PER_STEP})"
            ),
        );
    }

    gate.finish(vec![
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
        ("gemm_transposed", Json::from(transposed_rows)),
        ("gemm_skinny", Json::from(skinny_rows)),
        (
            "activation_ns_per_element",
            Json::obj(
                activations
                    .iter()
                    .map(|(name, ns)| (*name, Json::from(*ns)))
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "row_norm_us",
            Json::obj(
                norms
                    .iter()
                    .map(|(name, us, per_row)| {
                        let row = vec![
                            ("us", Json::from(*us)),
                            ("per_row_us", Json::from(*per_row)),
                        ];
                        (*name, Json::obj(row))
                    })
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "floors",
            Json::obj(vec![
                (
                    "row_norm_speedup_vs_per_row",
                    Json::from(NORM_SPEEDUP_FLOOR),
                ),
                ("activation_ns_ceiling", Json::from(ACTIVATION_NS_CEILING)),
                ("transposed_vs_plain", Json::from(TRANSPOSED_FLOOR)),
                ("moe_large_allocs_per_step", Json::from(0.0)),
                ("moe_minor_faults_per_step", Json::from(faults_ceiling)),
                (
                    "gar_curve_speedup_vs_scan",
                    Json::from(GAR_CURVE_SPEEDUP_FLOOR),
                ),
                (
                    "degree_walk_speedup_vs_task_graphs",
                    Json::from(DEGREE_WALK_SPEEDUP_FLOOR),
                ),
            ]),
        ),
        ("moe_layer", moe_row),
        (
            "control_plane",
            Json::obj(
                control
                    .rows
                    .iter()
                    .map(|(name, ms)| (*name, Json::from(*ms)))
                    .chain([
                        ("gar_curve_speedup_vs_scan", Json::from(curve_speedup)),
                        (
                            "degree_walk_speedup_vs_task_graphs",
                            Json::from(walk_speedup),
                        ),
                    ])
                    .collect::<Vec<_>>(),
            ),
        ),
    ]);
}
