//! Pure-std benchmark harness for the hot paths the paper quantifies in
//! §6.2, plus the compute layer's own baseline.
//!
//! Runs under `cargo bench` (the `[[bench]]` target sets `harness = false`,
//! so this `main` owns the process). It times:
//!
//! * the packed GEMM over a size sweep straddling the parallel
//!   threshold, at several *explicit* thread counts via
//!   [`Tensor::matmul_with_threads`] — never via `TENSOR_THREADS`, whose
//!   `OnceLock` latch is read once per process and would turn a sweep
//!   into N measurements of the same count;
//! * `matmul_nt` / `matmul_tn` beside the plain GEMM (the transposed
//!   packing must not cost what the transposes it replaced did);
//! * the skinny GEMMs the training workloads are made of — many rows
//!   against a narrow weight, a few rows against a wide one — in all
//!   three forms, hot and against 32 MB of cycled weights, each as a
//!   share of the square GEMM timed between them;
//! * the vector activations in ns per element, and the worker pool's
//!   hand-off, warm (worker polling) and cold (worker asleep);
//! * an end-to-end GShard MoE layer forward **and backward** at the same
//!   explicit thread counts via [`MoeLayer::set_compute_threads`], and
//!   what a warm forward + backward costs the memory system: allocations
//!   ≥ 64 KiB (from a counting `#[global_allocator]`, this binary only)
//!   and minor page faults (from `/proc/self/stat`, where there is one);
//! * the control-plane kernels (pipeline-degree solver, α–β model fit)
//!   the paper benchmarks against SLSQP.
//!
//! Results are printed as a table and written to `BENCH_compute.json`
//! so successive runs can be diffed. The budgets: a GFLOPS floor per
//! GEMM dim, activations ≤ 4 ns/element, `nt`/`tn` ≥ 0.9× plain, a share
//! of the square rate per skinny shape, no
//! large allocation and ≤ 2 % of the pre-recycler page faults per warm
//! MoE step, and — only on a box that reports at least two hardware
//! threads — a 2-thread speedup read against what the two cores gave
//! two independent serial GEMMs in the same rounds (≥ 0.95× of one
//! thread everywhere, ≥ 0.58 of that pair scaling at dims ≥ 256), so a
//! kernel, packing, pool or buffer-recycling regression fails `ci.sh`
//! instead of silently shipping.

use bench::gate::{best_of_ms, reference_layer, Gate};
use bench::{perf_model, table4_grid};
use jsonio::Json;
use numopt::LinearFit;
use profiler::microbench::{comm_message_sizes, profile_op};
use scheduler::{find_optimal_pipeline_degree, MoePerfModel, Phase};
use simnet::Testbed;
use tensor::{grad, Tensor, TensorRng};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// Square GEMM dimensions for the sweep; 64 and 128 sit below the serial
/// threshold (`PAR_MIN_NS`, 120 µs of work: 192³ on the 512-bit
/// microkernel) and run on one thread whatever is asked, the rest fan out.
const GEMM_DIMS: [usize; 4] = [64, 128, 256, 384];
/// Explicit worker counts for both sweeps. On a single-core box the
/// extra counts measure banding overhead rather than speedup; the floor
/// below is taken over the best count per dim, so that is fine.
const THREAD_SWEEP: [usize; 3] = [1, 2, 4];
/// Minimum best-thread-count GFLOPS per dim, `(dim, floor)`. At dims
/// ≥ 256 the CI box measures 155–190 on the 12×32 AVX-512 microkernel
/// (115–140 on one thread; the 6×16 AVX2 one read 105–145 and 60–85);
/// the pre-rewrite blocked kernel measured ~18. The floor is set at 2×
/// that kernel with headroom for a noisy shared host: dropping below
/// it means the packed kernel (or its dispatch) regressed.
const GFLOPS_FLOORS: [(usize, f64); 2] = [(256, 36.0), (384, 36.0)];
/// What two threads on one GEMM must keep of the *pair scaling* — what
/// the caller and the pool's worker get out of two independent serial
/// GEMMs of the same size, timed in the same rounds, so a minute in which
/// the host has no second core to give moves the floor with the
/// measurement (seven runs in a row on the CI box: pair scaling 1.36,
/// 1.37, 1.87 at dim 256, then 0.99–1.03 four times). Checked only when
/// the box reports at least two hardware threads. At every dim fanning
/// out must not cost more than 5 % of what the pair scaling leaves of one
/// thread; from [`PAIR_SHARE_FROM_DIM`] up it must also pay: measured
/// 0.73–0.86 of the pair scaling (speedups 1.10–1.59) with a second core
/// there, 0.96–1.02 without. One GEMM cannot reach 1.0: its threads share
/// the packed `B` and the output through the caller's cache (ROADMAP
/// 6(b)(ii)).
const SPEEDUP_FLOOR: f64 = 0.95;
const PAIR_SHARE_FROM_DIM: usize = 256;
const PAIR_SHARE_FLOOR: f64 = 0.58;
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
/// recycled (this measurement on commit `0ddae15`: 1061 / 1066 / 1092 at
/// 1 / 2 / 4 threads, with 29 allocations ≥ 64 KiB), and the share of
/// it a step may still take: a page the previous step already touched
/// must not fault again.
const PARENT_FAULTS_PER_STEP: f64 = 1061.0;
const FAULTS_VS_PARENT_CEILING: f64 = 0.02;
const GEMM_RUNS: usize = 15;
const MOE_RUNS: usize = 5;
/// Warm forward + backward steps the memory rows are averaged over.
const MEMORY_STEPS: usize = 20;

/// Minor page faults this process has taken so far (`minflt`, the tenth
/// field of `/proc/self/stat`); `None` where there is no such file.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // the second field is the parenthesised command name, spaces and all
    let after_comm = stat.rsplit_once(')')?.1;
    after_comm.split_whitespace().nth(7)?.parse().ok()
}

/// What the floor checks need of one dim of the thread sweep.
struct DimSweep {
    dim: usize,
    best_gflops: f64,
    speedup_2t: f64,
    pair_scaling: f64,
}

/// Times the square GEMM at every dim × thread count; returns the JSON
/// rows plus what the floor checks read.
fn bench_gemm() -> (Vec<Json>, Vec<DimSweep>) {
    let mut rng = TensorRng::seed_from(0xC0FFEE);
    let mut rows = Vec::new();
    let mut best_per_dim = Vec::new();
    println!("GEMM thread sweep (explicit matmul_with_threads):");
    println!(
        "  {:>5}  {:>7}  {:>12}  {:>8}  {:>10}",
        "dim", "threads", "ms", "speedup", "GFLOP/s"
    );
    let mut pair_out = [0.0f32; 2];
    for &d in &GEMM_DIMS {
        let a = rng.uniform(&[d, d], -1.0, 1.0);
        let b = rng.uniform(&[d, d], -1.0, 1.0);
        let flops = 2.0 * (d as f64).powi(3);
        // one call per thread count per round, so a slow stretch of the
        // host hits every count alike and the speedups stay comparable
        let mut best_ms = [f64::INFINITY; THREAD_SWEEP.len()];
        let mut pair_ms = f64::INFINITY;
        for _ in 0..GEMM_RUNS {
            for (best, &t) in best_ms.iter_mut().zip(&THREAD_SWEEP) {
                *best = best.min(best_of_ms(1, || {
                    std::hint::black_box(a.matmul_with_threads(&b, t).expect("gemm").data()[0]);
                }));
            }
            // two independent serial GEMMs, one per band of a 2-band job
            pair_ms = pair_ms.min(best_of_ms(1, || {
                tensor::par::for_each_row_band(&mut pair_out, 1, 1, 2, |_, out| {
                    out[0] = a.matmul_with_threads(&b, 1).expect("gemm").data()[0];
                });
            }));
        }
        let mut sweep = Vec::new();
        let serial_ms = best_ms[0];
        let mut best_gflops = 0.0f64;
        let mut speedup_2t = f64::NAN;
        for (&t, &ms) in THREAD_SWEEP.iter().zip(&best_ms) {
            let gflops = flops / (ms * 1e-3) / 1e9;
            best_gflops = best_gflops.max(gflops);
            let speedup = serial_ms / ms;
            if t == 2 {
                speedup_2t = speedup;
            }
            println!("  {d:>5}  {t:>7}  {ms:>12.4}  {speedup:>7.2}x  {gflops:>10.2}");
            sweep.push(Json::obj(vec![
                ("threads", Json::from(t)),
                ("ms", Json::from(ms)),
                ("speedup_vs_serial", Json::from(speedup)),
                ("gflops", Json::from(gflops)),
            ]));
        }
        let pair_scaling = 2.0 * serial_ms / pair_ms;
        println!("  {d:>5}  2 GEMMs  {pair_ms:>12.4}  {pair_scaling:>7.2}x  (pair scaling)");
        best_per_dim.push(DimSweep {
            dim: d,
            best_gflops,
            speedup_2t,
            pair_scaling,
        });
        rows.push(Json::obj(vec![
            ("dim", Json::from(d)),
            ("serial_ms", Json::from(serial_ms)),
            ("pair_scaling", Json::from(pair_scaling)),
            ("best_gflops", Json::from(best_gflops)),
            ("sweep", Json::from(sweep)),
        ]));
    }
    (rows, best_per_dim)
}

/// Times `matmul_nt` and `matmul_tn` beside the plain GEMM on one
/// thread; returns the JSON rows plus `(dim, nt ÷ plain, tn ÷ plain)`.
fn bench_transposed() -> (Vec<Json>, Vec<(usize, f64, f64)>) {
    let mut rng = TensorRng::seed_from(0xBEEF);
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    println!("\ntransposed-operand GEMM (1 thread, GFLOP/s):");
    println!("  {:>5}  {:>8}  {:>8}  {:>8}", "dim", "plain", "nt", "tn");
    for &d in &GEMM_DIMS[1..] {
        let a = rng.uniform(&[d, d], -1.0, 1.0);
        let b = rng.uniform(&[d, d], -1.0, 1.0);
        // one call per form per round, as in the thread sweep
        let forms: [&dyn Fn() -> Tensor; 3] = [
            &|| a.matmul_with_threads(&b, 1).expect("gemm"),
            &|| a.matmul_nt(&b, 1).expect("gemm"),
            &|| a.matmul_tn(&b, 1).expect("gemm"),
        ];
        let mut best_ms = [f64::INFINITY; 3];
        for _ in 0..GEMM_RUNS {
            for (best, form) in best_ms.iter_mut().zip(forms) {
                *best = best.min(best_of_ms(1, || {
                    std::hint::black_box(form().data()[0]);
                }));
            }
        }
        let [plain, nt, tn] = best_ms.map(|ms| 2.0 * (d as f64).powi(3) / (ms * 1e-3) / 1e9);
        println!("  {d:>5}  {plain:>8.2}  {nt:>8.2}  {tn:>8.2}");
        ratios.push((d, nt / plain, tn / plain));
        rows.push(Json::obj(vec![
            ("dim", Json::from(d)),
            ("plain_gflops", Json::from(plain)),
            ("nt_gflops", Json::from(nt)),
            ("tn_gflops", Json::from(tn)),
        ]));
    }
    (rows, ratios)
}

/// One skinny shape's rates as shares of the square probe's:
/// `(hot, cold)`, each `[plain, nt, tn]`, in [`SKINNY`] order.
type SkinnyShares = ([f64; 3], [f64; 3]);

/// Times [`SKINNY`] in all three forms on one thread, hot (one weight,
/// best call) and cold (a pass over [`COLD_BYTES`] of weights, best
/// pass), with the square probe timed before each.
fn bench_skinny() -> (Vec<Json>, Vec<SkinnyShares>) {
    let mut rng = TensorRng::seed_from(0x5C1);
    let d = SKINNY_PROBE_DIM;
    let (sa, sb) = (
        rng.uniform(&[d, d], -1.0, 1.0),
        rng.uniform(&[d, d], -1.0, 1.0),
    );
    let probe_ms = || {
        best_of_ms(GEMM_RUNS / 3, || {
            std::hint::black_box(sa.matmul_with_threads(&sb, 1).expect("gemm").data()[0]);
        })
    };
    let gflops = |flops: f64, ms: f64| flops / (ms * 1e-3) / 1e9;
    let mut rows = Vec::new();
    let mut shares = Vec::new();
    println!(
        "\nskinny GEMM (1 thread, GFLOP/s; cold = {} MB of weights cycled):",
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
            &|w| a.matmul_with_threads(w, 1).expect("gemm"),
            &|w| a.matmul_nt(w, 1).expect("gemm"),
            &|w| at.matmul_tn(w, 1).expect("gemm"),
        ];
        let (mut hot_ms, mut cold_ms) = ([f64::INFINITY; 3], [f64::INFINITY; 3]);
        let (mut hot_probe, mut cold_probe) = (f64::INFINITY, f64::INFINITY);
        // A form's calls run back to back — `a` and its transpose do not
        // both fit the L2, and "hot" means hot — with the probe between.
        // `plain` and `tn` read the weights as `(k, n)`, `nt` as `(n, k)`.
        for form in [0, 2, 1] {
            if GEMM_FORMS[form] == "nt" {
                for w in &mut pool {
                    w.reshape_in_place(&[n, k]).expect("same size");
                }
            }
            hot_probe = hot_probe.min(probe_ms());
            hot_ms[form] = best_of_ms(GEMM_RUNS, || {
                std::hint::black_box(forms[form](&pool[0]).data()[0]);
            });
            for _ in 0..3 {
                cold_probe = cold_probe.min(probe_ms());
                let pass = best_of_ms(1, || {
                    for w in &pool {
                        std::hint::black_box(forms[form](w).data()[0]);
                    }
                });
                cold_ms[form] = cold_ms[form].min(pass / count as f64);
            }
        }
        let flops = 2.0 * (m * k * n) as f64;
        let square = |ms: f64| gflops(2.0 * (d as f64).powi(3), ms);
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
            ("hot_floor_vs_square", Json::from(hot_floor)),
            ("cold_floor_vs_square", Json::from(cold_floor)),
        ]));
        shares.push((
            hot.map(|g| g / square(hot_probe)),
            cold.map(|g| g / square(cold_probe)),
        ));
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

/// The pool's hand-off: one empty two-band fan-out, back to back (the
/// worker is polling) and after a pause longer than its spin (the
/// worker is asleep and the caller pays the wake). µs per fan-out.
fn bench_pool_handoff() -> (f64, f64) {
    let mut out = [0.0f32; 2];
    let mut fan_out =
        || tensor::par::for_each_row_band(&mut out, 1, 1, 2, |_, band| band[0] += 1.0);
    fan_out(); // spawn the pool outside the timing
    let warm = bench::gate::per_call_ns(2000, &mut fan_out) / 1e3;
    let mut cold = f64::INFINITY;
    for _ in 0..20 {
        std::thread::sleep(std::time::Duration::from_millis(2));
        cold = cold.min(best_of_ms(1, &mut fan_out) * 1e3);
    }
    println!("\npool hand-off: {warm:.2} us warm, {cold:.2} us cold (worker asleep)");
    (warm, cold)
}

/// What [`bench_moe`] measured.
struct MoeBench {
    sweep: Vec<Json>,
    tokens: usize,
    experts: usize,
    best_ms: f64,
    best_backward_ms: f64,
    /// Worst row of the sweep, per warm forward + backward.
    large_allocs: f64,
    minor_faults: Option<f64>,
}

/// Times one MoE-layer forward and one backward per explicit thread
/// count, then counts what [`MEMORY_STEPS`] more warm forward + backward
/// steps cost in large allocations (on this thread) and minor faults
/// (process-wide).
fn bench_moe() -> MoeBench {
    let (mut layer, input) = reference_layer();
    let (tokens, experts) = (layer.config().tokens(), layer.config().num_experts);
    let grad_out = TensorRng::seed_from(2).normal(input.dims(), 0.0, 1.0);
    let mut sweep = Vec::new();
    let mut serial = (f64::NAN, f64::NAN);
    let mut best = (f64::INFINITY, f64::INFINITY);
    let (mut worst_allocs, mut worst_faults) = (0.0f64, None::<f64>);
    println!("\nMoE layer ({tokens} tokens, {experts} experts), forward / backward:");
    for &t in &THREAD_SWEEP {
        layer.set_compute_threads(Some(t));
        let fwd = best_of_ms(MOE_RUNS, || {
            let mut r = TensorRng::seed_from(1);
            std::hint::black_box(layer.forward(&input, &mut r).expect("forward"));
        });
        let bwd = best_of_ms(MOE_RUNS, || {
            std::hint::black_box(layer.backward(&grad_out).expect("backward"));
        });
        if t == 1 {
            serial = (fwd, bwd);
        }
        best = (best.0.min(fwd), best.1.min(bwd));
        let per_s = |ms: f64| tokens as f64 / (ms * 1e-3);
        println!(
            "  threads {t}: {fwd:.3} / {bwd:.3} ms ({:.2}x / {:.2}x vs serial), {:.0} / {:.0} tokens/s",
            serial.0 / fwd,
            serial.1 / bwd,
            per_s(fwd),
            per_s(bwd)
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
        let large = per_step(large);
        let faults = faults_before
            .zip(minor_faults())
            .map(|(before, after)| per_step(after - before));
        println!(
            "             {large:.2} allocations >= {} KiB and {} minor faults per warm step",
            counting_alloc::LARGE >> 10,
            faults.map_or("n/a".to_string(), |f| format!("{f:.1}")),
        );
        worst_allocs = worst_allocs.max(large);
        worst_faults = faults.map(|f| f.max(worst_faults.unwrap_or(0.0)));
        let mut row = vec![
            ("threads", Json::from(t)),
            ("ms", Json::from(fwd)),
            ("speedup_vs_serial", Json::from(serial.0 / fwd)),
            ("tokens_per_s", Json::from(per_s(fwd))),
            ("backward_ms", Json::from(bwd)),
            ("backward_speedup_vs_serial", Json::from(serial.1 / bwd)),
            ("backward_tokens_per_s", Json::from(per_s(bwd))),
            ("large_allocs_per_step", Json::from(large)),
        ];
        if let Some(faults) = faults {
            row.push(("minor_faults_per_step", Json::from(faults)));
        }
        sweep.push(Json::obj(row));
    }
    MoeBench {
        sweep,
        tokens,
        experts,
        best_ms: best.0,
        best_backward_ms: best.1,
        large_allocs: worst_allocs,
        minor_faults: worst_faults,
    }
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

    let (gemm_rows, per_dim) = bench_gemm();
    let (transposed_rows, transposed_ratios) = bench_transposed();
    // on a thread of its own, so the 32 MB weight pools leave with its
    // buffer recycler instead of sitting under the memory rows below
    let (skinny_rows, skinny_shares) =
        std::thread::scope(|s| s.spawn(bench_skinny).join().expect("skinny GEMM bench"));
    let activations = bench_activations();
    let (handoff_warm_us, handoff_cold_us) = bench_pool_handoff();
    let moe = bench_moe();

    let control = bench_control_plane();
    println!("\ncontrol plane:");
    for (name, ms) in &control {
        println!("  {name}: {ms:.4} ms");
    }

    for (dim, floor) in GFLOPS_FLOORS {
        let best = per_dim
            .iter()
            .find(|sweep| sweep.dim == dim)
            .map(|sweep| sweep.best_gflops)
            .expect("floor dim is in GEMM_DIMS");
        gate.require(
            best >= floor,
            format!(
                "GEMM dim {dim}: best {best:.1} GFLOPS is below the {floor:.1} floor — \
                 the packed microkernel regressed"
            ),
        );
    }
    if tensor::par::hardware_threads() >= 2 {
        for sweep in &per_dim {
            let (dim, speedup, pair_scaling) = (sweep.dim, sweep.speedup_2t, sweep.pair_scaling);
            let mut floor = SPEEDUP_FLOOR * pair_scaling.min(1.0);
            if dim >= PAIR_SHARE_FROM_DIM {
                floor = floor.max(PAIR_SHARE_FLOOR * pair_scaling);
            }
            gate.require(
                speedup >= floor,
                format!(
                    "GEMM dim {dim}: 2 threads run at {speedup:.2}x of 1, floor {floor:.2}x \
                     (two independent GEMMs scaled {pair_scaling:.2}x)"
                ),
            );
        }
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
    let large_allocs = moe.large_allocs;
    gate.require(
        large_allocs == 0.0,
        format!(
            "MoE layer: {large_allocs:.2} allocations >= {} KiB per warm forward + backward, \
             must be 0 — a tensor-sized buffer bypasses the recycler",
            counting_alloc::LARGE >> 10
        ),
    );
    let faults_ceiling = FAULTS_VS_PARENT_CEILING * PARENT_FAULTS_PER_STEP;
    if let Some(faults) = moe.minor_faults {
        gate.require(
            faults <= faults_ceiling,
            format!(
                "MoE layer: {faults:.1} minor faults per warm forward + backward, ceiling \
                 {faults_ceiling:.1} ({FAULTS_VS_PARENT_CEILING} of {PARENT_FAULTS_PER_STEP})"
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
            "pool_handoff_us",
            Json::obj(vec![
                ("warm", Json::from(handoff_warm_us)),
                ("cold", Json::from(handoff_cold_us)),
            ]),
        ),
        (
            "floors",
            Json::obj(vec![
                ("activation_ns_ceiling", Json::from(ACTIVATION_NS_CEILING)),
                ("transposed_vs_plain", Json::from(TRANSPOSED_FLOOR)),
                ("moe_large_allocs_per_step", Json::from(0.0)),
                ("moe_minor_faults_per_step", Json::from(faults_ceiling)),
                ("speedup_2_threads", Json::from(SPEEDUP_FLOOR)),
                (
                    "speedup_2_threads_vs_pair_scaling",
                    Json::obj(vec![
                        ("from_dim", Json::from(PAIR_SHARE_FROM_DIM)),
                        ("floor", Json::from(PAIR_SHARE_FLOOR)),
                    ]),
                ),
            ]),
        ),
        (
            "moe_layer",
            Json::obj(vec![
                ("tokens", Json::from(moe.tokens)),
                ("experts", Json::from(moe.experts)),
                ("best_ms", Json::from(moe.best_ms)),
                (
                    "best_tokens_per_s",
                    Json::from(moe.tokens as f64 / (moe.best_ms * 1e-3)),
                ),
                ("best_backward_ms", Json::from(moe.best_backward_ms)),
                (
                    "best_backward_tokens_per_s",
                    Json::from(moe.tokens as f64 / (moe.best_backward_ms * 1e-3)),
                ),
                ("sweep", Json::from(moe.sweep)),
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
