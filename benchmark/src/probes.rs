//! Layer probes: isolated calls of each layer's public functions at the
//! workload's own shapes, median of N.
//!
//! A probe answers "did this layer get faster?" without the rest of the
//! step around it; the traced steps answer "did that matter?".

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use baselines::ScheduleKind;
use collectives::{run_world, CommWorld, HybridTopology, ParallelDims};
use fsmoe::dist::DistMoeLayer;
use fsmoe::gate::{GShardGate, Gate};
use fsmoe::grouped;
use fsmoe::order::{OrderFn, TutelOrdering};
use models::attention::MultiHeadAttention;
use models::iteration::plan_iteration;
use numopt::DeConfig;
use profiler::fit_cost_model;
use profiler::microbench::profile_testbed;
use scheduler::{find_optimal_pipeline_degree, partition_gradients, GeneralizedLayer};
use simnet::Testbed;
use tensor::{grad, Tensor, TensorRng};

use crate::plan::table4_specs;
use crate::spec::TrainShape;
use crate::stats::{median, sub_seed};
use crate::step::Res;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Median seconds per call of `f`: at least `min_reps` calls, then more
/// until `budget` is spent (capped at 2000).
fn time_median(budget: Duration, min_reps: usize, mut f: impl FnMut() -> Res<()>) -> Res<f64> {
    f()?; // warm
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || (started.elapsed() < budget && samples.len() < 2000) {
        let t = Instant::now();
        f()?;
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&mut samples))
}

const SHORT: Duration = Duration::from_millis(60);

/// Median seconds per call over exactly `reps` calls after `warm`
/// untimed ones — for probes every rank of a world runs in step, where
/// the call count must not depend on a clock.
fn time_fixed<E>(reps: usize, warm: usize, mut f: impl FnMut() -> Result<(), E>) -> Result<f64, E> {
    let mut samples = Vec::with_capacity(reps);
    for i in 0..warm + reps {
        let t = Instant::now();
        f()?;
        if i >= warm {
            samples.push(t.elapsed().as_secs_f64());
        }
    }
    Ok(median(&mut samples))
}

/// Rows one rank's experts compute: `E/ranks` local experts, each fed
/// `ranks · capacity` rows.
fn local_expert_rows(shape: &TrainShape) -> Res<(usize, usize)> {
    let capacity = shape.moe_config()?.capacity();
    Ok((shape.experts / shape.ranks, shape.ranks * capacity))
}

/// `tensor`: the GEMM kernels at the workload's expert and attention
/// shapes.
pub fn tensor_probes(shape: &TrainShape, seed: u64, nproc: usize) -> Res<Metrics> {
    let mut m = Metrics::new();
    let mut rng = TensorRng::seed_from(sub_seed(seed, 2000));
    let (local, rows_each) = local_expert_rows(shape)?;
    let rows = local * rows_each;
    let (k, n) = (shape.embed, shape.hidden);
    let x = rng.normal(&[rows, k], 0.0, 1.0);
    let weights: Vec<Tensor> = (0..local).map(|_| rng.xavier(k, n)).collect();
    let flops = 2.0 * rows as f64 * k as f64 * n as f64;

    let serial = time_median(SHORT, 5, || {
        black_box(x.matmul_with_threads(&weights[0], 1)?);
        Ok(())
    })?;
    let parallel = time_median(SHORT, 5, || {
        black_box(x.matmul_with_threads(&weights[0], nproc)?);
        Ok(())
    })?;
    m.insert("tensor.matmul_gflops", flops / serial / 1e9);
    m.insert("tensor.matmul_par_speedup", serial / parallel);

    let refs: Vec<&Tensor> = weights.iter().collect();
    let offsets: Vec<usize> = (0..=local).map(|g| g * rows_each).collect();
    let grouped = time_median(SHORT, 5, || {
        black_box(x.matmul_grouped(&refs, &offsets, 1)?);
        Ok(())
    })?;
    m.insert("tensor.matmul_grouped_gflops", flops / grouped / 1e9);

    let a = rng.normal(&[64, 64], 0.0, 1.0);
    let b = rng.normal(&[64, 64], 0.0, 1.0);
    let small = time_median(SHORT, 20, || {
        black_box(a.matmul_with_threads(&b, 1)?);
        Ok(())
    })?;
    m.insert("tensor.matmul_small_us", small * 1e6);

    // attention projection: (tokens, M) · (M, M), both gradients
    if shape.heads.is_some() {
        let xp = rng.normal(&[shape.tokens, k], 0.0, 1.0);
        let wp = rng.xavier(k, k);
        let gy = rng.normal(&[shape.tokens, k], 0.0, 1.0);
        let bwd = time_median(SHORT, 5, || {
            black_box(grad::matmul_backward(&gy, &xp, &wp)?);
            Ok(())
        })?;
        let bwd_flops = 4.0 * shape.tokens as f64 * (k * k) as f64;
        m.insert("tensor.matmul_backward_gflops", bwd_flops / bwd / 1e9);
    }
    Ok(m)
}

/// `collectives`: latency at 1 KiB and bandwidth at 4 MiB per rank, on
/// two ranks.
pub fn collectives_probes() -> Res<Metrics> {
    const SMALL: usize = 1024 / 4;
    const LARGE: usize = 4 * 1024 * 1024 / 4;
    let outs = run_world(CommWorld::new(2), |comm| -> Result<Metrics, String> {
        let group = comm.world_group();
        let small = vec![1.0f32; SMALL];
        let large = vec![1.0f32; LARGE];
        let timed = |reps: usize, f: &mut dyn FnMut() -> collectives::Result<()>| {
            time_fixed(reps, 2, f).map_err(|e| e.to_string())
        };
        let mut m = Metrics::new();
        let mut buf = small.clone();
        let s = timed(300, &mut || group.all_reduce(&mut buf))?;
        m.insert("collectives.all_reduce_lat_us", s * 1e6);
        let s = timed(300, &mut || group.all_to_all(&small).map(drop))?;
        m.insert("collectives.all_to_all_lat_us", s * 1e6);

        let gbps = |s: f64| (LARGE * 4) as f64 / s / 1e9;
        let mut buf = large.clone();
        let s = timed(12, &mut || group.all_reduce(&mut buf))?;
        m.insert("collectives.all_reduce_gbps", gbps(s));
        let s = timed(12, &mut || group.all_to_all(&large).map(drop))?;
        m.insert("collectives.all_to_all_gbps", gbps(s));
        let s = timed(12, &mut || group.all_gather(&large).map(drop))?;
        m.insert("collectives.all_gather_gbps", gbps(s));
        let s = timed(12, &mut || group.reduce_scatter(&large).map(drop))?;
        m.insert("collectives.reduce_scatter_gbps", gbps(s));
        Ok(m)
    });
    Ok(outs.into_iter().next().ok_or("no rank reported")??)
}

/// `fsmoe`: gate, ordering, the grouped FFN and a forward-only layer, on
/// a world of the workload's size (every rank runs the same calls; rank
/// 0 is timed).
pub fn fsmoe_probes(shape: &TrainShape, seed: u64) -> Res<Metrics> {
    const REPS: usize = 15;
    let shape = *shape;
    let outs = run_world(CommWorld::new(shape.ranks), move |comm| -> Res<Metrics> {
        let config = shape.moe_config()?;
        let capacity = config.capacity();
        let mut rng = TensorRng::seed_from(sub_seed(seed, 2100 + comm.rank() as u64));
        let x = rng.normal(&[shape.tokens, shape.embed], 0.0, 1.0);
        let mut m = Metrics::new();
        let reps = |f: &mut dyn FnMut() -> Res<()>| time_fixed(REPS, 1, f);

        let mut gate_rng = TensorRng::seed_from(sub_seed(seed, 2200));
        let gate = GShardGate::new(shape.embed, shape.experts, config.top_k, &mut gate_rng);
        let s = reps(&mut || {
            black_box(gate.route(&x, capacity, &mut rng)?);
            Ok(())
        })?;
        m.insert("fsmoe.gate_route_us", s * 1e6);

        let routing = gate.route(&x, capacity, &mut rng)?;
        let order = TutelOrdering::new();
        let s = reps(&mut || {
            let buffer = order.order(&x, &routing)?;
            black_box(order.inverse(&buffer, &routing)?);
            Ok(())
        })?;
        m.insert("fsmoe.order_us", s * 1e6);

        let dims = ParallelDims {
            dp: shape.ranks,
            mp: 1,
            ep: shape.ranks,
            esp: 1,
        };
        let topo = HybridTopology::new(shape.ranks, 1, dims)?;
        let mut layer = DistMoeLayer::gshard(&config, &comm, &topo, sub_seed(seed, 2300))?;

        let (local, rows_each) = local_expert_rows(&shape)?;
        let rows = local * rows_each;
        let offsets: Vec<usize> = (0..=local).map(|g| g * rows_each).collect();
        let xe = rng.normal(&[rows, shape.embed], 0.0, 1.0);
        let gy = rng.normal(&[rows, shape.embed], 0.0, 1.0);
        let threads = tensor::par::num_threads();
        let fwd_flops = rows as f64 * config.flops_per_token();
        let s = reps(&mut || {
            black_box(grouped::forward_ffn(
                layer.shards(),
                &xe,
                &offsets,
                threads,
            )?);
            Ok(())
        })?;
        m.insert("fsmoe.grouped_ffn_fwd_gflops", fwd_flops / s / 1e9);
        let (_, state) = grouped::forward_ffn(layer.shards(), &xe, &offsets, threads)?
            .ok_or("built-in experts must be groupable")?;
        let s = reps(&mut || {
            black_box(grouped::backward_ffn(
                layer.shards(),
                &gy,
                &state,
                &offsets,
                threads,
            )?);
            Ok(())
        })?;
        m.insert("fsmoe.grouped_ffn_bwd_gflops", 2.0 * fwd_flops / s / 1e9);

        // forward only: the weights never change, so a packed-weight
        // cache would hit on every call here and never in training
        let s = reps(&mut || {
            black_box(layer.forward(&x, &mut rng)?);
            Ok(())
        })?;
        m.insert(
            "fsmoe.layer_fwd_tokens_per_s",
            (shape.tokens * shape.ranks) as f64 / s,
        );
        Ok(m)
    });
    outs.into_iter().next().ok_or("no rank reported")?
}

/// `models`: attention forward/backward at the workload's sequence
/// length (analytic FLOPs ÷ time); nothing for a model without attention.
pub fn models_probes(shape: &TrainShape, seed: u64) -> Res<Metrics> {
    let mut m = Metrics::new();
    let Some(heads) = shape.heads else {
        return Ok(m);
    };
    let mut rng = TensorRng::seed_from(sub_seed(seed, 2400));
    let attn = MultiHeadAttention::new(shape.embed, heads, &mut rng)?.causal();
    let x = rng.normal(&[shape.tokens, shape.embed], 0.0, 1.0);
    let gy = rng.normal(&[shape.tokens, shape.embed], 0.0, 1.0);
    let (t, e) = (shape.tokens as f64, shape.embed as f64);
    let fwd_flops = (8.0 * e * e + 4.0 * t * e) * t;
    let s = time_median(SHORT, 5, || {
        black_box(attn.forward(&x)?);
        Ok(())
    })?;
    m.insert("models.attn_fwd_gflops", fwd_flops / s / 1e9);
    let (_, state) = attn.forward(&x)?;
    let s = time_median(SHORT, 5, || {
        black_box(attn.backward(&gy, &state)?);
        Ok(())
    })?;
    m.insert("models.attn_bwd_gflops", 2.0 * fwd_flops / s / 1e9);
    Ok(m)
}

/// `scheduler` / `profiler`: the solver pieces in isolation, and the two
/// exact statistics (degree split over the full grid, fit quality).
pub fn planning_probes(seed: u64) -> Res<Metrics> {
    let mut m = Metrics::new();
    let testbed = Testbed::b();
    let specs = table4_specs(&testbed)?;

    // Tutel plans carry the plain forward and backward models (t_gar = 0)
    let plans: Vec<_> = specs
        .iter()
        .map(|s| plan_iteration(ScheduleKind::Tutel, &testbed.costs, s, 1))
        .collect();
    let differing = plans
        .iter()
        .filter(|p| {
            find_optimal_pipeline_degree(&p.fwd_model).r
                != find_optimal_pipeline_degree(&p.bwd_models[0]).r
        })
        .count();
    m.insert(
        "scheduler.fwd_bwd_degree_differs_pct",
        100.0 * differing as f64 / plans.len() as f64,
    );

    // a fixed spread of grid points, solved round-robin
    let picks: Vec<_> = plans.iter().step_by(plans.len() / 16).collect();
    let mut i = 0usize;
    let s = time_median(SHORT, 32, || {
        black_box(find_optimal_pipeline_degree(
            &picks[i % picks.len()].fwd_model,
        ));
        i += 1;
        Ok(())
    })?;
    m.insert("scheduler.pipeline_degree_solve_us", s * 1e6);

    // the optimiser settings plan_iteration uses, on a 4-layer stack
    let de = DeConfig {
        population: 12,
        generations: 40,
        seed: 0xF5,
        ..DeConfig::default()
    };
    let mut i = 0usize;
    let s = time_median(SHORT, 8, || {
        let k = i % picks.len();
        let layers: Vec<GeneralizedLayer> = (0..4)
            .map(|_| GeneralizedLayer {
                moe: picks[k].bwd_models[0],
                t_olp_dense: picks[k].attn_bwd,
                grad_bytes: specs[k * (plans.len() / 16)].dense_param_bytes,
            })
            .collect();
        black_box(partition_gradients(&layers, testbed.costs.all_reduce, de));
        i += 1;
        Ok(())
    })?;
    m.insert("scheduler.partition_gradients_us", s * 1e6);

    // live-profile flow: seeded 1 % jitter sweeps, then the α–β fits
    let mut r2_min = f64::INFINITY;
    let mut sweeps = Vec::new();
    for tb in [Testbed::a(), Testbed::b()] {
        for op in profile_testbed(&tb, 0.01, sub_seed(seed, 2500)) {
            r2_min = r2_min.min(op.fitted.r_squared);
            sweeps.push(op.samples);
        }
    }
    let mut i = 0usize;
    let s = time_median(SHORT, 32, || {
        black_box(fit_cost_model(&sweeps[i % sweeps.len()])?);
        i += 1;
        Ok(())
    })?;
    m.insert("profiler.fit_us", s * 1e6);
    m.insert("profiler.fit_r2_min", r2_min);
    Ok(m)
}
