//! Ablation studies for FSMoE's design choices (DESIGN.md §4):
//!
//! 1. **Phase-separated pipeline degrees** (§4.4) — the same `r` for
//!    forward and backward vs. independently optimised degrees.
//! 2. **Gradient partitioning steps** (§5) — no partitioning vs. step 1
//!    (window filling) only vs. steps 1+2 (with differential evolution).
//! 3. **Inter/intra-node overlap** (§4) — the IIO contribution in
//!    isolation, including against FasterMoE's fixed two-way split.
//!
//! Regenerate with `cargo run --release -p bench --bin ablations`.

use baselines::{simulate_layer, ScheduleKind};
use bench::{geomean, perf_model, table4_grid};
use models::iteration::iteration_time;
use models::ModelPreset;
use numopt::DeConfig;
use scheduler::{
    find_optimal_pipeline_degree, partition_gradients, t_olp_moe, GeneralizedLayer, Phase,
};
use simnet::Testbed;

fn phase_separation_ablation(testbed: &Testbed) {
    println!(
        "## ablation 1 — separate fwd/bwd pipeline degrees ({})",
        testbed.kind
    );
    let grid = table4_grid(testbed);
    let mut tied = Vec::new();
    let mut separate = Vec::new();
    for cfg in grid.iter().step_by(9) {
        let spec = cfg.layer_spec(testbed).expect("valid grid config").moe;
        let fwd = perf_model(testbed, &spec, Phase::Forward, 0.0);
        let bwd = perf_model(testbed, &spec, Phase::Backward, 0.0);
        let r_f = find_optimal_pipeline_degree(&fwd);
        let r_b = find_optimal_pipeline_degree(&bwd);
        // tied: force the backward to reuse the forward's degree
        let (tied_bwd, _) = scheduler::cases::t_moe(&bwd, r_f.r);
        separate.push(r_f.t_moe + r_b.t_moe);
        tied.push(r_f.t_moe + tied_bwd);
    }
    let penalty = geomean(
        &tied
            .iter()
            .zip(&separate)
            .map(|(t, s)| t / s)
            .collect::<Vec<_>>(),
    );
    println!(
        "  reusing the forward degree in backward costs {:.2}% on average\n\
         (the paper reports 912/1458 configs with differing optimal degrees)\n",
        (penalty - 1.0) * 100.0
    );
}

fn gradient_partition_ablation(testbed: &Testbed) {
    println!(
        "## ablation 2 — gradient partitioning steps ({})",
        testbed.kind
    );
    let preset = ModelPreset::gpt2_xl_moe().with_seq_len(512).with_layers(8);
    let spec = preset.layer_spec(testbed).expect("valid preset");
    let bwd = perf_model(testbed, &spec.moe, Phase::Backward, 0.0);
    let ar = testbed.costs.all_reduce;
    let layers: Vec<GeneralizedLayer> = (0..preset.layers)
        .map(|_| GeneralizedLayer {
            moe: bwd,
            t_olp_dense: 2.0,
            grad_bytes: spec.dense_param_bytes,
        })
        .collect();
    let total_bytes = spec.dense_param_bytes * preset.layers as f64;

    // (a) no partitioning: all bytes after backward
    let base: f64 = layers
        .iter()
        .map(|l| find_optimal_pipeline_degree(&l.moe).t_moe)
        .sum::<f64>()
        + ar.time(total_bytes);

    // (b) step 1 only: fill windows greedily, flush the rest
    let mut carry = 0.0;
    let mut step1_total = 0.0;
    for (i, l) in layers.iter().enumerate() {
        if i > 0 {
            carry += l.grad_bytes;
        }
        let r0 = find_optimal_pipeline_degree(&l.moe);
        let window = t_olp_moe(&l.moe, r0.r) + l.t_olp_dense;
        let absorbed = carry.min(ar.invert(window));
        carry -= absorbed;
        step1_total += find_optimal_pipeline_degree(&l.moe.with_t_gar(if absorbed > 0.0 {
            ar.time(absorbed)
        } else {
            0.0
        }))
        .t_moe;
    }
    carry += layers.last().expect("non-empty").grad_bytes;
    step1_total += if carry > 0.0 { ar.time(carry) } else { 0.0 };

    // (c) steps 1+2: the full adaptive partition
    let de = DeConfig {
        population: 12,
        generations: 40,
        seed: 3,
        ..DeConfig::default()
    };
    let partition = partition_gradients(&layers, ar, de);
    let full: f64 = layers
        .iter()
        .zip(&partition.t_gar)
        .map(|(l, &t)| find_optimal_pipeline_degree(&l.moe.with_t_gar(t)).t_moe)
        .sum();

    println!("  no partitioning      : {base:8.1} ms  (1.000x)");
    println!(
        "  step 1 (windows) only: {step1_total:8.1} ms  ({:.3}x)",
        base / step1_total
    );
    println!(
        "  steps 1+2 (full §5)  : {full:8.1} ms  ({:.3}x)\n",
        base / full
    );
}

fn iio_ablation(testbed: &Testbed) {
    println!(
        "## ablation 3 — inter/intra overlap and FasterMoE ({})",
        testbed.kind
    );
    let preset = ModelPreset::mixtral_7b().with_seq_len(512).with_layers(6);
    let spec = preset.layer_spec(testbed).expect("valid preset");
    let bwd = perf_model(testbed, &spec.moe, Phase::Backward, 0.0);
    println!("  per-layer backward makespans (no gradient traffic):");
    for kind in [
        ScheduleKind::DsMoe,
        ScheduleKind::FasterMoe,
        ScheduleKind::Tutel,
        ScheduleKind::FsMoeNoIio,
        ScheduleKind::FsMoe,
    ] {
        let r = kind.pipeline_degree(&bwd);
        let t = simulate_layer(kind, &bwd, r, &[]);
        println!("    {:<14} r={r:<2} {t:8.2} ms", kind.name());
    }
    let ds = iteration_time(ScheduleKind::DsMoe, testbed, &preset).expect("valid");
    let faster = iteration_time(ScheduleKind::FasterMoe, testbed, &preset).expect("valid");
    println!(
        "  end-to-end: FasterMoE {:.2}x over DS-MoE (fixed split leaves\n\
         adaptive-degree headroom on the table)\n",
        ds / faster
    );
}

fn main() {
    println!("# FSMoE design-choice ablations\n");
    for testbed in [Testbed::a(), Testbed::b()] {
        phase_separation_ablation(&testbed);
        gradient_partition_ablation(&testbed);
        iio_ablation(&testbed);
    }
}
