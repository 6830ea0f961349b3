//! The `plan_sweep` workload: the paper's scheduler as a program.
//!
//! One *plan* is `plan_iteration → build_iteration_graph →
//! Engine::simulate` for one (testbed, layer spec, schedule). The unit
//! of work — what throughput counts and latency times — is one *config*:
//! a layer spec planned under every schedule of its set, i.e. one row of
//! the paper's tables. (Single plans are bimodal: the FSMoE schedules
//! run a differential-evolution search, the baselines do not.) The sweep
//! is the three model presets of Fig. 6 under all six schedules, then the
//! 1458-point Table-4 grid of both testbeds in seeded order under the
//! four schedules of Table 5 on a 4-layer stack. A run plans the presets
//! and the first 2000 grid configs (the seed's sample), then carries on
//! down the list, wrapping around, until `--seconds` have passed. The
//! simulated makespans double as a deterministic guard: a faster or
//! smaller scheduler must still produce schedules that win.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use baselines::ScheduleKind;
use collectives::ParallelDims;
use fsmoe::config::{FfnKind, MoeConfig};
use models::iteration::{build_iteration_graph, plan_iteration};
use models::layerspec::TransformerLayerSpec;
use models::presets::ModelPreset;
use simnet::{Engine, Testbed, TestbedKind};
use tensor::TensorRng;

use crate::stats::{geomean, p95_ms, sub_seed, Timed};
use crate::step::Res;
use crate::trace::{self_times_ns, total_by_name, Recorder, Span};

/// Layers of the configured-layer stack (as in the Table 5 experiment:
/// enough generalized-layer windows for the gradient-overlap policies).
const STACK_LAYERS: usize = 4;
/// Grid configs (over both testbeds) the seed draws — the sample behind
/// `objective`; fixed, so the metric does not depend on how many plans
/// fit into `--seconds`.
const SAMPLE_CONFIGS: usize = 2000;
/// Sample configs each pass of a traced run plans at the least.
const TRACED_CONFIGS: usize = 400;
/// Untimed configs that end set-up.
const WARMUP_CONFIGS: usize = 50;
/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// The schedules of Table 5, baseline first.
const GRID_SCHEDULES: [ScheduleKind; 4] = [
    ScheduleKind::Tutel,
    ScheduleKind::TutelImproved,
    ScheduleKind::FsMoeNoIio,
    ScheduleKind::FsMoe,
];

pub mod span {
    pub const CONFIG: &str = "config";
    pub const PLAN: &str = "plan";
    pub const PLAN_ITERATION: &str = "scheduler.plan_iteration";
    pub const LOWERING: &str = "baselines.lowering";
    pub const SIMULATE: &str = "simnet.simulate";
}

/// One unit of work: a layer spec and the schedules it is planned under.
#[derive(Debug, Clone)]
pub struct Config {
    testbed: usize,
    spec: TransformerLayerSpec,
    layers: usize,
    kinds: &'static [ScheduleKind],
}

/// The paper's layout on a testbed: `N_MP = N_ESP =` GPUs per node,
/// `N_EP = N_DP =` nodes.
fn testbed_dims(testbed: &Testbed) -> ParallelDims {
    ParallelDims {
        dp: testbed.nodes,
        mp: testbed.gpus_per_node,
        ep: testbed.nodes,
        esp: testbed.gpus_per_node,
    }
}

/// The 1458 layer specs of Table 4 on a testbed (experts = nodes, k = 2;
/// `L` candidates differ per testbed — the 2080 Ti memory limit).
pub fn table4_specs(testbed: &Testbed) -> Res<Vec<TransformerLayerSpec>> {
    let seq_lens: [usize; 3] = match testbed.kind {
        TestbedKind::A => [512, 1024, 2048],
        TestbedKind::B => [256, 512, 1024],
    };
    let dims = testbed_dims(testbed);
    let mut specs = Vec::with_capacity(1458);
    for batch in [1usize, 2, 4] {
        for heads in [8usize, 16, 32] {
            for seq_len in seq_lens {
                for embed in [1024usize, 2048, 4096] {
                    for hscale in [2usize, 3, 4] {
                        for f in [Some(1.2), Some(2.4), None] {
                            for ffn in [FfnKind::Gpt, FfnKind::Mixtral] {
                                let mut b = MoeConfig::builder();
                                b.batch_size(batch)
                                    .seq_len(seq_len)
                                    .embed_dim(embed)
                                    .hidden_dim(embed * hscale)
                                    .num_experts(testbed.nodes)
                                    .top_k(2.min(testbed.nodes))
                                    .ffn(ffn);
                                match f {
                                    Some(f) => b.capacity_factor(f),
                                    None => b.no_drop(),
                                };
                                specs.push(TransformerLayerSpec::new(&b.build()?, dims, heads));
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(specs)
}

/// The Fig. 6 models per testbed (B = 1, k = 2, f = 1.2; L = 1024 on A,
/// 256 on B; layer counts per §6.4).
fn presets_for(kind: TestbedKind) -> Vec<ModelPreset> {
    match kind {
        TestbedKind::A => vec![
            ModelPreset::gpt2_xl_moe()
                .with_seq_len(1024)
                .with_layers(12),
            ModelPreset::mixtral_7b().with_seq_len(1024).with_layers(32),
            ModelPreset::mixtral_22b()
                .with_seq_len(1024)
                .with_layers(33),
        ],
        TestbedKind::B => vec![
            ModelPreset::gpt2_xl_moe().with_seq_len(256).with_layers(12),
            ModelPreset::mixtral_7b().with_seq_len(256).with_layers(7),
        ],
    }
}

/// Everything a sweep needs, built in set-up.
pub struct Sweep {
    testbeds: [Testbed; 2],
    /// Presets (all six schedules), then grid configs in seeded order.
    configs: Vec<Config>,
    presets: usize,
}

impl Sweep {
    /// Builds the config list: the seed picks the order of the grid
    /// configs, and so which of them a run gets to.
    pub fn build(seed: u64) -> Res<Sweep> {
        let testbeds = [Testbed::a(), Testbed::b()];
        let mut configs = Vec::new();
        for (t, testbed) in testbeds.iter().enumerate() {
            for preset in presets_for(testbed.kind) {
                configs.push(Config {
                    testbed: t,
                    spec: preset.layer_spec(testbed)?,
                    layers: preset.layers,
                    kinds: &ScheduleKind::ALL,
                });
            }
        }
        let presets = configs.len();

        let mut rng = TensorRng::seed_from(sub_seed(seed, 7));
        let mut picked: Vec<(usize, TransformerLayerSpec)> = Vec::new();
        for (t, testbed) in testbeds.iter().enumerate() {
            picked.extend(table4_specs(testbed)?.into_iter().map(|s| (t, s)));
        }
        // Fisher–Yates over both grids: every prefix is a fair sample
        for i in (1..picked.len()).rev() {
            picked.swap(i, rng.index(i + 1));
        }
        configs.extend(picked.into_iter().map(|(testbed, spec)| Config {
            testbed,
            spec,
            layers: STACK_LAYERS,
            kinds: &GRID_SCHEDULES,
        }));
        Ok(Sweep {
            testbeds,
            configs,
            presets,
        })
    }

    /// Configs of the fixed window: the presets and the seeded sample.
    fn window(&self) -> usize {
        (self.presets + SAMPLE_CONFIGS).min(self.configs.len())
    }

    /// Plans one config under each of its schedules; returns the
    /// makespans (ms, in `kinds` order) and the tasks simulated.
    fn run_config(&self, config: &Config, rec: &mut Recorder) -> Res<(Vec<f64>, usize)> {
        let c = rec.begin(span::CONFIG);
        let costs = &self.testbeds[config.testbed].costs;
        let mut makespans = Vec::with_capacity(config.kinds.len());
        let mut tasks = 0;
        for &kind in config.kinds {
            let p = rec.begin(span::PLAN);
            let s = rec.begin(span::PLAN_ITERATION);
            let plan = plan_iteration(kind, costs, &config.spec, config.layers);
            rec.end(s);
            let s = rec.begin(span::LOWERING);
            let (graph, _) = build_iteration_graph(&plan);
            rec.end(s);
            let s = rec.begin(span::SIMULATE);
            let timeline = Engine::new().simulate(&graph);
            rec.end(s);
            rec.end(p);
            makespans.push(timeline?.makespan());
            tasks += graph.len();
        }
        rec.end(c);
        Ok((makespans, tasks))
    }

    fn warm_up(&self) -> Res<()> {
        let mut off = Recorder::off();
        for config in self.configs.iter().rev().take(WARMUP_CONFIGS) {
            black_box(self.run_config(config, &mut off)?);
        }
        Ok(())
    }
}

/// What a pass over the sweep measured.
struct Pass {
    config_s: Vec<f64>,
    /// Makespans by config index, first visit only (later visits repeat).
    makespans: Vec<Vec<f64>>,
    plans: usize,
    tasks: usize,
    /// Seconds, plans and tasks of the first `window` configs (counts are exact
    /// for a seed).
    window_s: f64,
    window_plans: usize,
    window_tasks: usize,
    failed: usize,
}

/// Plans configs in order (wrapping around) until `seconds` have passed
/// and at least the first `window` configs are done.
fn run_pass(sweep: &Sweep, window: usize, seconds: f64, rec: &mut Recorder) -> Res<Pass> {
    let mut pass = Pass {
        config_s: Vec::new(),
        makespans: Vec::new(),
        plans: 0,
        tasks: 0,
        window_s: 0.0,
        window_plans: 0,
        window_tasks: 0,
        failed: 0,
    };
    let started = Instant::now();
    let mut i = 0usize;
    while i < window || started.elapsed().as_secs_f64() < seconds {
        let config = &sweep.configs[i % sweep.configs.len()];
        rec.set_step(i);
        let t = Instant::now();
        let (makespans, tasks) = sweep.run_config(config, rec)?;
        let secs = t.elapsed().as_secs_f64();
        pass.config_s.push(secs);
        pass.plans += makespans.len();
        pass.tasks += tasks;
        if i < window {
            pass.window_s += secs;
            pass.window_plans += makespans.len();
            pass.window_tasks += tasks;
        }
        pass.failed += makespans
            .iter()
            .filter(|m| !(m.is_finite() && **m > 0.0))
            .count();
        if i < sweep.configs.len() {
            pass.makespans.push(makespans);
        }
        i += 1;
    }
    Ok(pass)
}

/// Geomean over `configs` of `makespan(num) ÷ makespan(den)`.
fn geomean_ratio(
    sweep: &Sweep,
    pass: &Pass,
    configs: std::ops::Range<usize>,
    num: ScheduleKind,
    den: ScheduleKind,
) -> f64 {
    let ratios: Vec<f64> = configs
        .filter_map(|c| {
            let kinds = sweep.configs[c].kinds;
            let at = |k| kinds.iter().position(|&x| x == k);
            let m = pass.makespans.get(c)?;
            Some(m[at(num)?] / m[at(den)?])
        })
        .collect();
    geomean(&ratios)
}

/// FSMoE ÷ Tutel makespan, geomean over the seeded sample (the inverse
/// of Table 5's speedup): what the scheduler minimises.
fn objective(sweep: &Sweep, pass: &Pass) -> f64 {
    geomean_ratio(
        sweep,
        pass,
        sweep.presets..sweep.window(),
        ScheduleKind::FsMoe,
        ScheduleKind::Tutel,
    )
}

/// Gate misses of a pass: finite makespans and the paper's who-wins
/// ordering DS-MoE ≥ Tutel ≥ FSMoE, in geomean.
fn gate_misses(sweep: &Sweep, pass: &Pass) -> Vec<String> {
    let mut misses = Vec::new();
    if pass.failed > 0 {
        misses.push(format!("{} plans gave a non-finite makespan", pass.failed));
    }
    let presets = || 0..sweep.presets;
    let tutel_vs_ds = geomean_ratio(
        sweep,
        pass,
        presets(),
        ScheduleKind::Tutel,
        ScheduleKind::DsMoe,
    );
    let fsmoe_vs_tutel = geomean_ratio(
        sweep,
        pass,
        presets(),
        ScheduleKind::FsMoe,
        ScheduleKind::Tutel,
    );
    if !(tutel_vs_ds <= 1.0 && fsmoe_vs_tutel <= 1.0) {
        misses.push(format!(
            "presets broke DS-MoE >= Tutel >= FSMoE: Tutel/DS-MoE {tutel_vs_ds}, FSMoE/Tutel {fsmoe_vs_tutel}"
        ));
    }
    let grid = objective(sweep, pass);
    // a NaN ratio is a miss too
    if grid.is_nan() || grid > 1.0 {
        misses.push(format!("grid broke Tutel >= FSMoE: FSMoE/Tutel {grid}"));
    }
    misses
}

pub fn run_timed(seed: u64, seconds: f64) -> Res<Timed> {
    // one set-up: build the sweep, plan the warm-up configs
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut sweep = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = Sweep::build(seed)?;
        s.warm_up()?;
        setups.push(t0.elapsed().as_secs_f64());
        sweep = Some(s);
    }
    let sweep = sweep.ok_or("no set-up ran")?;
    let pass = run_pass(&sweep, sweep.window(), seconds, &mut Recorder::off())?;
    Ok(Timed {
        objective: objective(&sweep, &pass),
        failed: pass.failed,
        misses: gate_misses(&sweep, &pass),
        item_s: pass.config_s,
        work_per_item: 1.0,
        setups_s: setups,
        loss_digest: None,
    })
}

/// Result of the planning part of a traced (`--trace 1`) run.
pub struct Traced {
    pub metrics: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
    pub attempted: usize,
    pub failed: usize,
    pub misses: Vec<String>,
}

/// Plans `sweep` untraced for `untraced_s`, then traced for `traced_s`
/// (each pass at least the presets and `TRACED_CONFIGS` of the sample),
/// and turns the driver spans into the planning stack's metrics.
pub fn run_traced(sweep: &Sweep, untraced_s: f64, traced_s: f64) -> Res<Traced> {
    sweep.warm_up()?;
    let window = sweep.presets + TRACED_CONFIGS;
    let untraced = run_pass(sweep, window, untraced_s, &mut Recorder::off())?;
    let mut rec = Recorder::on(Instant::now(), 0);
    let traced = run_pass(sweep, window, traced_s, &mut rec)?;
    let spans = rec.into_spans();

    let plans = traced.plans as f64;
    let totals = total_by_name(&spans);
    let us_per_plan = |name: &str| totals.get(name).copied().unwrap_or(0) as f64 / 1e3 / plans;
    let self_ns: u64 = spans
        .iter()
        .zip(self_times_ns(&spans))
        .filter(|(s, _)| s.name == span::PLAN || s.name == span::CONFIG)
        .map(|(_, ns)| ns)
        .sum();
    let simulate_s = totals.get(span::SIMULATE).copied().unwrap_or(0) as f64 / 1e9;

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert(
        "scheduler.plan_iteration_us",
        us_per_plan(span::PLAN_ITERATION),
    );
    m.insert("baselines.lowering_us", us_per_plan(span::LOWERING));
    m.insert("simnet.simulate_us", us_per_plan(span::SIMULATE));
    m.insert(
        "simnet.tasks_per_s",
        traced.tasks as f64 / simulate_s.max(1e-9),
    );
    m.insert(
        "simnet.tasks_per_plan",
        traced.window_tasks as f64 / traced.window_plans as f64,
    );
    m.insert(
        "driver.self_ms",
        self_ns as f64 / 1e6 / traced.config_s.len() as f64,
    );
    // both passes plan the same window, so compare the time it took
    m.insert(
        "obs.trace_overhead_pct",
        100.0 * (traced.window_s / untraced.window_s - 1.0),
    );
    if let Some(p95) = p95_ms(&untraced.config_s) {
        m.insert("driver.latency_ms_p95", p95);
    }
    m.insert(
        "baselines.sim_speedup_vs_dsmoe",
        1.0 / geomean_ratio(
            sweep,
            &traced,
            0..sweep.presets,
            ScheduleKind::FsMoe,
            ScheduleKind::DsMoe,
        ),
    );

    let mut misses = gate_misses(sweep, &untraced);
    misses.extend(gate_misses(sweep, &traced));
    // both passes cover at least the window; compare what they share
    let shared = untraced.makespans.len().min(traced.makespans.len());
    if untraced.makespans[..shared] != traced.makespans[..shared] {
        misses.push("two passes over the same sweep gave different makespans".into());
    }
    Ok(Traced {
        metrics: m,
        spans,
        attempted: untraced.config_s.len() + traced.config_s.len(),
        failed: untraced.failed + traced.failed,
        misses,
    })
}
