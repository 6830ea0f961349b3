//! Whole-iteration planning and task-graph construction.
//!
//! An iteration is: forward through `n` transformer layers (attention →
//! MoE), then backward in reverse (MoE → attention), with the schedule's
//! Gradient-AllReduce policy deciding where each layer's dense-gradient
//! AllReduce rides:
//!
//! * DS-MoE / Tutel — all of it after backward finishes;
//! * Tutel-Improved — alongside the *next* layer's attention backward
//!   (dense parts only, Fig. 3b);
//! * PipeMoE+Lina — fixed 30 MB buckets squeezed behind MoE dispatches;
//! * FSMoE(-No-IIO) — the §5 adaptive partition, sized per layer by the
//!   inverse AllReduce model and differential evolution.

use baselines::{ScheduleKind, LINA_CHUNK_BYTES};
use scheduler::{
    lower, partition_gradients, GeneralizedLayer, MoePerfModel, Op, Phase, StreamSet, PLANNER_DE,
};
use simnet::{Engine, OpCosts, TaskGraph, TaskId, Testbed};

use crate::layerspec::{attention_backward_time, attention_forward_time, TransformerLayerSpec};
use crate::presets::ModelPreset;

/// A fully resolved per-iteration schedule: pipeline degrees and
/// Gradient-AllReduce placement for every layer.
#[derive(Debug, Clone)]
pub struct IterationPlan {
    /// The schedule being planned.
    pub kind: ScheduleKind,
    /// Number of transformer layers.
    pub layers: usize,
    /// Forward-phase MoE performance model (uniform across layers).
    pub fwd_model: MoePerfModel,
    /// Backward-phase models, one per layer in backward execution order
    /// (each carries its `t_gar` budget).
    pub bwd_models: Vec<MoePerfModel>,
    /// Forward pipeline degree.
    pub r_fwd: u32,
    /// Backward pipeline degrees, backward order.
    pub r_bwd: Vec<u32>,
    /// Gradient-AllReduce pieces issued inside each backward MoE layer.
    pub gar_in_moe: Vec<Vec<f64>>,
    /// Pieces issued alongside each layer's attention backward.
    pub gar_with_dense: Vec<Vec<f64>>,
    /// Pieces flushed after backward completes.
    pub gar_tail: Vec<f64>,
    /// Attention forward / backward durations.
    pub attn_fwd: f64,
    /// Attention backward duration.
    pub attn_bwd: f64,
}

/// Resolves pipeline degrees and the Gradient-AllReduce policy for
/// `kind` on a layer stack of `layers` copies of `spec`.
pub fn plan_iteration(
    kind: ScheduleKind,
    costs: &OpCosts,
    spec: &TransformerLayerSpec,
    layers: usize,
) -> IterationPlan {
    let moe = &spec.moe;
    let fwd_model = MoePerfModel::new(
        costs,
        moe.n_a2a,
        moe.n_ag,
        moe.n_rs,
        moe.n_exp,
        moe.gemms,
        Phase::Forward,
        0.0,
    );
    let bwd_base = MoePerfModel::new(
        costs,
        moe.n_a2a,
        moe.n_ag,
        moe.n_rs,
        moe.n_exp,
        moe.gemms,
        Phase::Backward,
        0.0,
    );
    let attn_fwd = attention_forward_time(costs, spec);
    let attn_bwd = attention_backward_time(costs, spec);
    let ar = costs.all_reduce;
    let bytes = spec.dense_param_bytes;

    let mut gar_in_moe = vec![Vec::new(); layers];
    let mut gar_with_dense = vec![Vec::new(); layers];
    let mut gar_tail = Vec::new();
    let mut bwd_models = vec![bwd_base; layers];

    match kind {
        ScheduleKind::DsMoe | ScheduleKind::Tutel | ScheduleKind::FasterMoe => {
            // everything at the end, one AllReduce per layer
            gar_tail = vec![ar.time(bytes); layers];
        }
        ScheduleKind::TutelImproved => {
            // layer i−1's gradient rides the dense window of backward
            // layer i; the last layer's gradient has no window left
            for slot in gar_with_dense.iter_mut().take(layers).skip(1) {
                slot.push(ar.time(bytes));
            }
            gar_tail.push(ar.time(bytes));
        }
        ScheduleKind::PipeMoeLina => {
            // fixed 30 MB buckets behind the MoE dispatches
            let chunk_time = ar.time(LINA_CHUNK_BYTES);
            let mut carry = 0.0f64;
            for slot in gar_in_moe.iter_mut().take(layers).skip(1) {
                carry += bytes;
                while carry >= LINA_CHUNK_BYTES {
                    slot.push(chunk_time);
                    carry -= LINA_CHUNK_BYTES;
                }
            }
            carry += bytes; // last layer's gradient
            if carry > 0.0 {
                gar_tail.push(ar.time(carry));
            }
        }
        ScheduleKind::FsMoeNoIio | ScheduleKind::FsMoe => {
            let gls: Vec<GeneralizedLayer> = (0..layers)
                .map(|_| GeneralizedLayer {
                    moe: bwd_base,
                    t_olp_dense: attn_bwd,
                    grad_bytes: bytes,
                })
                .collect();
            let partition = partition_gradients(&gls, ar, PLANNER_DE);
            for i in 0..layers {
                if partition.t_gar[i] > 0.0 {
                    gar_in_moe[i].push(partition.t_gar[i]);
                    bwd_models[i] = bwd_base.with_t_gar(partition.t_gar[i]);
                }
            }
        }
    }

    let r_fwd = kind.pipeline_degree(&fwd_model);
    // Layers that share a backward model share its degree: solve each
    // distinct model once (one solve for the Tutel family).
    let mut solved: Vec<(MoePerfModel, u32)> = Vec::new();
    let r_bwd = bwd_models
        .iter()
        .map(|m| {
            if let Some(&(_, r)) = solved.iter().find(|(s, _)| s == m) {
                return r;
            }
            let r = kind.pipeline_degree(m);
            solved.push((*m, r));
            r
        })
        .collect();
    IterationPlan {
        kind,
        layers,
        fwd_model,
        bwd_models,
        r_fwd,
        r_bwd,
        gar_in_moe,
        gar_with_dense,
        gar_tail,
        attn_fwd,
        attn_bwd,
    }
}

/// Lowers the forward half of a plan (attention → MoE per layer);
/// returns what the backward half waits for.
pub(crate) fn forward_graph(plan: &IterationPlan) -> (TaskGraph, StreamSet, Vec<TaskId>) {
    let mut graph = TaskGraph::new();
    let streams = StreamSet::add_to(&mut graph);
    let mut prev = Vec::new();
    for l in 0..plan.layers {
        let attn = lower(
            &[Op::Attn],
            &mut graph,
            &streams,
            |_| plan.attn_fwd,
            &prev,
            &format!("f{l}"),
        );
        let moe = plan.kind.lower_layer(
            &mut graph,
            &streams,
            &plan.fwd_model,
            plan.r_fwd,
            &[],
            &attn,
            &format!("f{l}.moe"),
        );
        prev = vec![moe];
    }
    (graph, streams, prev)
}

/// Lowers a plan to a simulatable task graph.
pub fn build_iteration_graph(plan: &IterationPlan) -> (TaskGraph, StreamSet) {
    let (mut graph, streams, mut prev) = forward_graph(plan);

    // Backward (index i counts backward execution order).
    for i in 0..plan.bwd_models.len() {
        let moe = plan.kind.lower_layer(
            &mut graph,
            &streams,
            &plan.bwd_models[i],
            plan.r_bwd[i],
            &plan.gar_in_moe[i],
            &prev,
            &format!("b{i}.moe"),
        );
        // The dense window: the pieces occupy the inter-node stream
        // alongside the attention backward; later layers contend with
        // them via issue order, they do not data-depend on them.
        let pieces = &plan.gar_with_dense[i];
        let window: Vec<Op> = std::iter::once(Op::Attn)
            .chain((0..pieces.len() as u32).map(Op::Gar))
            .collect();
        let ms = |op| match op {
            Op::Gar(j) => pieces[j as usize],
            _ => plan.attn_bwd,
        };
        prev = lower(&window, &mut graph, &streams, ms, &[moe], &format!("b{i}"));
        prev.truncate(1);
    }

    // Tail flush, one piece after the other.
    for (j, &t) in plan.gar_tail.iter().enumerate() {
        let piece = [Op::Gar(j as u32)];
        prev = lower(&piece, &mut graph, &streams, |_| t, &prev, "tail");
    }

    (graph, streams)
}

/// Simulated time of one training iteration of `preset` on `testbed`
/// under `kind`, ms.
///
/// # Errors
///
/// Propagates model-configuration errors.
pub fn iteration_time(
    kind: ScheduleKind,
    testbed: &Testbed,
    preset: &ModelPreset,
) -> fsmoe::Result<f64> {
    let spec = preset.layer_spec(testbed)?;
    let plan = plan_iteration(kind, &testbed.costs, &spec, preset.layers);
    Ok(makespan(&build_iteration_graph(&plan).0))
}

/// Simulated makespan of a graph built by this crate, ms.
pub(crate) fn makespan(graph: &TaskGraph) -> f64 {
    let timeline = Engine::new().simulate(graph);
    timeline.expect("builder graphs simulate").makespan()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(testbed: &Testbed, preset: &ModelPreset) -> Vec<(ScheduleKind, f64)> {
        ScheduleKind::ALL
            .iter()
            .map(|&k| (k, iteration_time(k, testbed, preset).unwrap()))
            .collect()
    }

    #[test]
    fn schedule_ordering_holds_on_gpt2_testbed_b() {
        let tb = Testbed::b();
        let preset = ModelPreset::gpt2_xl_moe().with_seq_len(256).with_layers(6);
        let t: std::collections::BTreeMap<ScheduleKind, f64> =
            times(&tb, &preset).into_iter().collect();
        let ds = t[&ScheduleKind::DsMoe];
        let tutel = t[&ScheduleKind::Tutel];
        let improved = t[&ScheduleKind::TutelImproved];
        let fsmoe = t[&ScheduleKind::FsMoe];
        let noiio = t[&ScheduleKind::FsMoeNoIio];
        assert!(tutel <= ds * 1.001, "Tutel {tutel} vs DS {ds}");
        assert!(
            improved <= tutel * 1.001,
            "Improved {improved} vs Tutel {tutel}"
        );
        assert!(
            noiio <= improved * 1.01,
            "NoIIO {noiio} vs Improved {improved}"
        );
        assert!(fsmoe <= noiio * 1.001, "FSMoE {fsmoe} vs NoIIO {noiio}");
        assert!(fsmoe < ds, "FSMoE must strictly beat DS-MoE");
    }

    #[test]
    fn fsmoe_speedup_magnitude_is_sane() {
        let tb = Testbed::a();
        let preset = ModelPreset::mixtral_7b().with_layers(4);
        let ds = iteration_time(ScheduleKind::DsMoe, &tb, &preset).unwrap();
        let fs = iteration_time(ScheduleKind::FsMoe, &tb, &preset).unwrap();
        let speedup = ds / fs;
        assert!(
            (1.02..6.0).contains(&speedup),
            "speedup {speedup} out of plausible band"
        );
    }

    #[test]
    fn makespan_scales_with_layers() {
        let tb = Testbed::b();
        let small = ModelPreset::gpt2_xl_moe().with_layers(2).with_seq_len(256);
        let large = ModelPreset::gpt2_xl_moe().with_layers(8).with_seq_len(256);
        for kind in [ScheduleKind::DsMoe, ScheduleKind::FsMoe] {
            let t2 = iteration_time(kind, &tb, &small).unwrap();
            let t8 = iteration_time(kind, &tb, &large).unwrap();
            assert!(t8 > 3.0 * t2, "{kind}: {t8} vs {t2}");
        }
    }

    #[test]
    fn lina_lands_between_tutel_and_fsmoe_usually() {
        let tb = Testbed::b();
        let preset = ModelPreset::gpt2_xl_moe().with_seq_len(256).with_layers(6);
        let t: std::collections::BTreeMap<ScheduleKind, f64> =
            times(&tb, &preset).into_iter().collect();
        // Lina must at least beat leaving all gradients to the end
        assert!(t[&ScheduleKind::PipeMoeLina] <= t[&ScheduleKind::Tutel] * 1.001);
    }

    #[test]
    fn plan_is_internally_consistent() {
        let tb = Testbed::b();
        let preset = ModelPreset::gpt2_xl_moe().with_seq_len(256).with_layers(4);
        let spec = preset.layer_spec(&tb).unwrap();
        for kind in ScheduleKind::ALL {
            let plan = plan_iteration(kind, &tb.costs, &spec, 4);
            assert_eq!(plan.bwd_models.len(), 4);
            assert_eq!(plan.r_bwd.len(), 4);
            assert!(plan.r_fwd >= 1);
            // total GAR time is positive somewhere for every schedule
            let total: f64 = plan
                .gar_in_moe
                .iter()
                .chain(&plan.gar_with_dense)
                .flatten()
                .sum::<f64>()
                + plan.gar_tail.iter().sum::<f64>();
            assert!(total > 0.0, "{kind} lost its gradients");
        }
    }

    #[test]
    fn fig6_iteration_makespans_are_pinned() {
        // every schedule x the Fig. 6 presets on both testbeds, to the
        // last bit, recorded from the head-selection engine the one
        // issue-order pass replaced
        let kinds = [
            ScheduleKind::DsMoe,
            ScheduleKind::Tutel,
            ScheduleKind::TutelImproved,
            ScheduleKind::PipeMoeLina,
            ScheduleKind::FasterMoe,
            ScheduleKind::FsMoeNoIio,
            ScheduleKind::FsMoe,
        ];
        let (a, b) = (Testbed::a(), Testbed::b());
        let cases: [(&Testbed, ModelPreset, [u64; 7]); 5] = [
            (
                &a,
                ModelPreset::gpt2_xl_moe()
                    .with_seq_len(1024)
                    .with_layers(12),
                [
                    0x4085fa7c56099b5e,
                    0x407b9bd0518119f2,
                    0x407b0c27919c4e98,
                    0x407abc1be04acbda,
                    0x407c0f044e07e8aa,
                    0x40795318d14cac32,
                    0x4073bcd4b4bd2973,
                ],
            ),
            (
                &a,
                ModelPreset::mixtral_7b().with_seq_len(1024).with_layers(32),
                [
                    0x40b8831dccb230a0,
                    0x40b10459e3c24b0e,
                    0x40b0a776a1b47e43,
                    0x40ade54f98d1246b,
                    0x40b1ac244c283282,
                    0x40adc0fe6d70229d,
                    0x40a44989093a4606,
                ],
            ),
            (
                &a,
                ModelPreset::mixtral_22b()
                    .with_seq_len(1024)
                    .with_layers(33),
                [
                    0x40c49507be2a6284,
                    0x40bd320ee7c80e3b,
                    0x40bc6f0853e5f3f0,
                    0x40b8824889aa4ba4,
                    0x40be8d48124dc024,
                    0x40b84ff1ab3c16bd,
                    0x40b0a9c939f28ba2,
                ],
            ),
            (
                &b,
                ModelPreset::gpt2_xl_moe().with_seq_len(256).with_layers(12),
                [
                    0x40712829f394f2cf,
                    0x406b5ab2231f5f26,
                    0x4069d25a4b6a2786,
                    0x406a3127babfe911,
                    0x406b92d89eb42afb,
                    0x406683d78f25d3cb,
                    0x4065be96de0e4ccd,
                ],
            ),
            (
                &b,
                ModelPreset::mixtral_7b().with_seq_len(256).with_layers(7),
                [
                    0x40862df40db12048,
                    0x4083418a3851182e,
                    0x4082ad4b78f5ec00,
                    0x407f2f187bc238c2,
                    0x4083879fb4a4a5ca,
                    0x407d9ea83e88d2d5,
                    0x407c4fa6ce323f8d,
                ],
            ),
        ];
        for (tb, preset, want) in &cases {
            for (&kind, &bits) in kinds.iter().zip(want) {
                let t = iteration_time(kind, tb, preset).unwrap();
                assert_eq!(
                    t.to_bits(),
                    bits,
                    "{kind} {} on {}: {t} vs {}",
                    preset.name,
                    tb.kind,
                    f64::from_bits(bits)
                );
            }
        }
    }

    #[test]
    fn fsmoe_partitions_conserve_gradient_bytes_in_time() {
        // FSMoE's in-MoE GAR time must price at least the AllReduce of
        // all dense bytes (alpha terms may add per piece)
        let tb = Testbed::b();
        let preset = ModelPreset::gpt2_xl_moe().with_seq_len(256).with_layers(4);
        let spec = preset.layer_spec(&tb).unwrap();
        let plan = plan_iteration(ScheduleKind::FsMoe, &tb.costs, &spec, 4);
        let in_moe: f64 = plan.gar_in_moe.iter().flatten().sum();
        let floor = tb.costs.all_reduce.time(4.0 * spec.dense_param_bytes);
        assert!(in_moe >= floor * 0.8, "{in_moe} vs floor {floor}");
    }
}
