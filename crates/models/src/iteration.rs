//! Whole-iteration planning: the training step as one list of
//! [`Segment`]s, built once by [`plan_iteration`], walked for its
//! makespan and lowered for task graphs.
//!
//! Forward, per layer: `[Attn]`, then `[MoE]`. Backward, per layer:
//! `[MoE + Gar…]`, then the dense window `[Gar…, Attn]`. Then the tail
//! `[Gar…]`. A schedule's Gradient-AllReduce policy is which segment
//! gets each layer's dense-gradient pieces:
//!
//! * DS-MoE / Tutel / FasterMoE — all of them in the tail;
//! * Tutel-Improved — the *next* backward layer's dense window (Fig. 3b);
//! * PipeMoE+Lina — fixed 30 MB buckets behind the MoE dispatches;
//! * FSMoE(-No-IIO) — the §5 adaptive partition, sized per layer by the
//!   inverse AllReduce model and differential evolution.

use std::fmt::{self, Display};

use baselines::{ScheduleKind, LINA_CHUNK_BYTES};
use scheduler::{
    lower, partition_gradients, GeneralizedLayer, MoePerfModel, Op, Phase, Segment, StreamSet,
    Walk, PLANNER_DE,
};
use simnet::{OpCosts, TaskGraph, Testbed};

use crate::layerspec::{attention_backward_time, attention_forward_time, TransformerLayerSpec};
use crate::presets::ModelPreset;

/// A fully resolved per-iteration schedule: pipeline degrees, and the
/// step with every Gradient-AllReduce piece placed.
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
    /// Attention forward duration.
    pub attn_fwd: f64,
    /// Attention backward duration.
    pub attn_bwd: f64,
    /// The training step in issue order; a segment's `layer` counts its
    /// phase's execution order, and the tail carries the last backward
    /// layer's.
    pub step: Vec<Segment>,
}

/// Resolves pipeline degrees and the Gradient-AllReduce policy for
/// `kind` on a layer stack of `layers` copies of `spec`.
///
/// # Panics
///
/// Panics when `layers == 0`.
pub fn plan_iteration(
    kind: ScheduleKind,
    costs: &OpCosts,
    spec: &TransformerLayerSpec,
    layers: usize,
) -> IterationPlan {
    assert!(layers >= 1, "an iteration needs at least one layer");
    let moe = &spec.moe;
    let model = |phase| {
        MoePerfModel::new(
            costs, moe.n_a2a, moe.n_ag, moe.n_rs, moe.n_exp, moe.gemms, phase, 0.0,
        )
    };
    let (fwd_model, bwd_base) = (model(Phase::Forward), model(Phase::Backward));
    let attn_fwd = attention_forward_time(costs, spec);
    let attn_bwd = attention_backward_time(costs, spec);
    let ar = costs.all_reduce;
    let bytes = spec.dense_param_bytes;

    // The pieces of each backward segment: `in_moe(i)` is backward
    // layer i's MoE segment, `window(i)` its dense window, `tail` the last.
    let in_moe = |i: usize| 2 * i;
    let window = |i: usize| 2 * i + 1;
    let tail = 2 * layers;
    let mut gar = vec![Vec::new(); tail + 1];
    let mut bwd_models = vec![bwd_base; layers];

    match kind {
        ScheduleKind::DsMoe | ScheduleKind::Tutel | ScheduleKind::FasterMoe => {
            // everything at the end, one AllReduce per layer
            gar[tail] = vec![ar.time(bytes); layers];
        }
        ScheduleKind::TutelImproved => {
            // layer i−1's gradient rides the dense window of backward
            // layer i; the last layer's gradient has no window left
            for i in 1..layers {
                gar[window(i)].push(ar.time(bytes));
            }
            gar[tail].push(ar.time(bytes));
        }
        ScheduleKind::PipeMoeLina => {
            // fixed 30 MB buckets behind the MoE dispatches
            let chunk_time = ar.time(LINA_CHUNK_BYTES);
            let mut carry = 0.0f64;
            for i in 1..layers {
                carry += bytes;
                while carry >= LINA_CHUNK_BYTES {
                    gar[in_moe(i)].push(chunk_time);
                    carry -= LINA_CHUNK_BYTES;
                }
            }
            carry += bytes; // last layer's gradient
            if carry > 0.0 {
                gar[tail].push(ar.time(carry));
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
                    gar[in_moe(i)].push(partition.t_gar[i]);
                    bwd_models[i] = bwd_base.with_t_gar(partition.t_gar[i]);
                }
            }
        }
    }

    let r_fwd = kind.pipeline_degree(&fwd_model);
    // Layers that share a backward model share its degree: solve each
    // distinct model once (one solve for the Tutel family).
    let mut r_bwd: Vec<u32> = Vec::with_capacity(layers);
    for (i, m) in bwd_models.iter().enumerate() {
        let seen = bwd_models[..i].iter().position(|s| s == m);
        r_bwd.push(seen.map_or_else(|| kind.pipeline_degree(m), |j| r_bwd[j]));
    }

    let segment = |phase, layer, ops, gar| Segment {
        phase,
        layer,
        ops,
        gar,
    };
    let pieces = |gar: &[f64]| (0..gar.len() as u32).map(Op::Gar);
    let mut step = Vec::with_capacity(4 * layers + 1);
    for l in 0..layers {
        step.push(segment(Phase::Forward, l, vec![Op::Attn], Vec::new()));
        let ops = kind.layer_ops(r_fwd, 0);
        step.push(segment(Phase::Forward, l, ops, Vec::new()));
    }
    for (i, &r) in r_bwd.iter().enumerate() {
        let pieces_in_moe = std::mem::take(&mut gar[in_moe(i)]);
        let ops = kind.layer_ops(r, pieces_in_moe.len());
        step.push(segment(Phase::Backward, i, ops, pieces_in_moe));
        let pieces_in_window = std::mem::take(&mut gar[window(i)]);
        let ops = pieces(&pieces_in_window).chain([Op::Attn]).collect();
        step.push(segment(Phase::Backward, i, ops, pieces_in_window));
    }
    let pieces_in_tail = std::mem::take(&mut gar[tail]);
    let ops = pieces(&pieces_in_tail).collect();
    step.push(segment(Phase::Backward, layers - 1, ops, pieces_in_tail));

    IterationPlan {
        kind,
        layers,
        fwd_model,
        bwd_models,
        r_fwd,
        r_bwd,
        attn_fwd,
        attn_bwd,
        step,
    }
}

impl IterationPlan {
    /// The prices of `seg`'s ops, ms: the schedule's price list for its
    /// layer's model, and attention's for its phase.
    pub fn prices<'a>(&'a self, seg: &'a Segment) -> impl Fn(Op) -> f64 + 'a {
        let i = seg.layer;
        let (m, r, attn) = match seg.phase {
            Phase::Forward => (&self.fwd_model, self.r_fwd, self.attn_fwd),
            Phase::Backward => (&self.bwd_models[i], self.r_bwd[i], self.attn_bwd),
        };
        let moe = self.kind.layer_prices(m, r, &seg.gar);
        move |op| if op == Op::Attn { attn } else { moe(op) }
    }

    /// Walks the step: each segment with the makespan so far once it is
    /// placed, ms.
    pub(crate) fn walk(&self) -> impl Iterator<Item = (&Segment, f64)> {
        let mut walk = Walk::default();
        self.step
            .iter()
            .map(move |seg| (seg, walk.segment(&seg.ops, self.prices(seg))))
    }

    /// Makespan of the whole step, ms.
    pub fn makespan(&self) -> f64 {
        self.walk().last().map_or(0.0, |(_, t)| t)
    }
}

/// Lowers a plan's step to a simulatable task graph: each segment
/// through `scheduler::lower`, gated on the previous one's last task.
/// The graph is sized up front and each segment writes its label once, so
/// this allocates per segment at most, not per task.
pub fn build_iteration_graph(plan: &IterationPlan) -> (TaskGraph, StreamSet) {
    let tasks = plan.step.iter().map(|seg| seg.ops.len()).sum();
    let mut graph = TaskGraph::with_capacity(tasks);
    let streams = StreamSet::add_to(&mut graph);
    let mut gate = None;
    for seg in &plan.step {
        let (ms, name) = (plan.prices(seg), Label(seg));
        let last = lower(&seg.ops, &mut graph, &streams, ms, gate.as_slice(), name);
        gate = last.or(gate);
    }
    (graph, streams)
}

/// The task-name prefix of a segment: `f3` / `f3.moe` (forward layer 3's
/// attention / MoE), `b0` / `b0.moe` (backward), and `tail`, written
/// where it is shown.
struct Label<'a>(&'a Segment);

impl Display for Label<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let seg = self.0;
        let phase = match seg.phase {
            Phase::Forward => 'f',
            Phase::Backward => 'b',
        };
        match seg.ops.last() {
            Some(Op::Attn) => write!(f, "{phase}{}", seg.layer),
            Some(Op::Gar(_)) | None => f.write_str("tail"),
            _ => write!(f, "{phase}{}.moe", seg.layer),
        }
    }
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
    Ok(plan_iteration(kind, &testbed.costs, &spec, preset.layers).makespan())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scheduler::Stream;
    use simnet::{Engine, TaskId};

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
            let total: f64 = plan.step.iter().flat_map(|seg| &seg.gar).sum();
            assert!(total > 0.0, "{kind} lost its gradients");
        }
    }

    /// The Fig. 6 presets on both testbeds.
    fn fig6_cases() -> [(Testbed, ModelPreset); 5] {
        let (a, b) = (Testbed::a(), Testbed::b());
        [
            (
                a.clone(),
                ModelPreset::gpt2_xl_moe()
                    .with_seq_len(1024)
                    .with_layers(12),
            ),
            (
                a.clone(),
                ModelPreset::mixtral_7b().with_seq_len(1024).with_layers(32),
            ),
            (
                a,
                ModelPreset::mixtral_22b()
                    .with_seq_len(1024)
                    .with_layers(33),
            ),
            (
                b.clone(),
                ModelPreset::gpt2_xl_moe().with_seq_len(256).with_layers(12),
            ),
            (
                b,
                ModelPreset::mixtral_7b().with_seq_len(256).with_layers(7),
            ),
        ]
    }

    /// Every schedule, the Fig. 6 set and FasterMoE.
    fn every_kind() -> impl Iterator<Item = ScheduleKind> {
        ScheduleKind::ALL
            .into_iter()
            .chain([ScheduleKind::FasterMoe])
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
        let wants: [[u64; 7]; 5] = [
            [
                0x4085fa7c56099b5e,
                0x407b9bd0518119f2,
                0x407b0c27919c4e98,
                0x407abc1be04acbda,
                0x407c0f044e07e8aa,
                0x40795318d14cac32,
                0x4073bcd4b4bd2973,
            ],
            [
                0x40b8831dccb230a0,
                0x40b10459e3c24b0e,
                0x40b0a776a1b47e43,
                0x40ade54f98d1246b,
                0x40b1ac244c283282,
                0x40adc0fe6d70229d,
                0x40a44989093a4606,
            ],
            [
                0x40c49507be2a6284,
                0x40bd320ee7c80e3b,
                0x40bc6f0853e5f3f0,
                0x40b8824889aa4ba4,
                0x40be8d48124dc024,
                0x40b84ff1ab3c16bd,
                0x40b0a9c939f28ba2,
            ],
            [
                0x40712829f394f2cf,
                0x406b5ab2231f5f26,
                0x4069d25a4b6a2786,
                0x406a3127babfe911,
                0x406b92d89eb42afb,
                0x406683d78f25d3cb,
                0x4065be96de0e4ccd,
            ],
            [
                0x40862df40db12048,
                0x4083418a3851182e,
                0x4082ad4b78f5ec00,
                0x407f2f187bc238c2,
                0x4083879fb4a4a5ca,
                0x407d9ea83e88d2d5,
                0x407c4fa6ce323f8d,
            ],
        ];
        for ((tb, preset), want) in fig6_cases().iter().zip(&wants) {
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
    fn step_walk_is_the_engine_bit_for_bit() {
        // every schedule x the Fig. 6 presets on both testbeds: the walk
        // of the step, and of its forward half, prices the lowered graph
        // to the engine's last bit
        let engine = |plan: &IterationPlan| {
            let timeline = Engine::new().simulate(&build_iteration_graph(plan).0);
            timeline.unwrap().makespan()
        };
        for (tb, preset) in &fig6_cases() {
            let spec = preset.layer_spec(tb).unwrap();
            for kind in every_kind() {
                let plan = plan_iteration(kind, &tb.costs, &spec, preset.layers);
                let mut forward = plan.clone();
                forward.step.retain(|seg| seg.phase == Phase::Forward);
                let fwd_in_walk = plan
                    .walk()
                    .filter(|(seg, _)| seg.phase == Phase::Forward)
                    .last()
                    .map(|(_, t)| t);
                let at = format!("{kind} {} on {}", preset.name, tb.kind);
                assert_eq!(fwd_in_walk, Some(forward.makespan()), "{at}");
                for (half, p) in [("forward", &forward), ("step", &plan)] {
                    let (walked, simulated) = (p.makespan(), engine(p));
                    assert_eq!(
                        walked.to_bits(),
                        simulated.to_bits(),
                        "{at} {half}: walk {walked} vs engine {simulated}"
                    );
                }
            }
        }
    }

    #[test]
    fn lowered_names_and_edges_are_the_steps() {
        // every schedule x the Fig. 6 presets on both testbeds: segment
        // by segment, each op of the step is one task named
        // `{label}.{op}`, on its op's stream, after the latest of its
        // producers issued earlier in the segment — or, without one, after
        // the last task of the segments before
        for (tb, preset) in &fig6_cases() {
            let spec = preset.layer_spec(tb).unwrap();
            for kind in every_kind() {
                let plan = plan_iteration(kind, &tb.costs, &spec, preset.layers);
                let (graph, streams) = build_iteration_graph(&plan);
                let at = format!("{kind} {} on {}", preset.name, tb.kind);
                let mut ids = graph.ids();
                let mut gate = None;
                for seg in &plan.step {
                    let tasks: Vec<TaskId> = ids.by_ref().take(seg.ops.len()).collect();
                    assert_eq!(tasks.len(), seg.ops.len(), "{at}: too few tasks");
                    for (k, (&op, &id)) in seg.ops.iter().zip(&tasks).enumerate() {
                        let name = format!("{}.{op}", Label(seg));
                        assert_eq!(graph.name(id).to_string(), name, "{at}");
                        let resource = match op.stream() {
                            Stream::Compute => streams.compute,
                            Stream::Intra => streams.intra,
                            Stream::Inter => streams.inter,
                        };
                        assert_eq!(graph.task(id).unwrap().resource, resource, "{at} {name}");
                        let producers = op.producers();
                        let producer = seg.ops[..k]
                            .iter()
                            .rposition(|&p| producers.contains(&Some(p)));
                        let want = producer.map_or(gate, |j| Some(tasks[j]));
                        assert_eq!(graph.deps(id), want.as_slice(), "{at} {name}");
                    }
                    gate = tasks.last().copied().or(gate);
                }
                assert_eq!(ids.next(), None, "{at}: too many tasks");
            }
        }
    }

    #[test]
    fn gradient_placement_is_pinned() {
        // which segments of a 3-layer step carry Gradient-AllReduce
        // pieces, and how many each
        let tb = Testbed::b();
        let preset = ModelPreset::mixtral_7b().with_seq_len(256).with_layers(3);
        let spec = preset.layer_spec(&tb).unwrap();
        let placement = |kind| {
            let plan = plan_iteration(kind, &tb.costs, &spec, 3);
            let carrying = plan.step.iter().filter(|seg| !seg.gar.is_empty());
            let placed: Vec<String> = carrying
                .map(|seg| format!("{}:{}", Label(seg), seg.gar.len()))
                .collect();
            placed.join(" ")
        };
        for kind in [
            ScheduleKind::DsMoe,
            ScheduleKind::Tutel,
            ScheduleKind::FasterMoe,
        ] {
            assert_eq!(placement(kind), "tail:3", "{kind}");
        }
        assert_eq!(placement(ScheduleKind::TutelImproved), "b1:1 b2:1 tail:1");
        // 30 MB buckets: two fill behind each later MoE layer's
        // dispatches, the remainder flushes at the end
        assert_eq!(
            placement(ScheduleKind::PipeMoeLina),
            "b1.moe:2 b2.moe:2 tail:1"
        );
        for kind in [ScheduleKind::FsMoeNoIio, ScheduleKind::FsMoe] {
            let want = "b0.moe:1 b1.moe:1 b2.moe:1";
            assert_eq!(placement(kind), want, "{kind}");
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
        let in_moe: f64 = plan
            .step
            .iter()
            .filter(|seg| Label(seg).to_string().ends_with(".moe"))
            .flat_map(|seg| &seg.gar)
            .sum();
        let floor = tb.costs.all_reduce.time(4.0 * spec.dense_param_bytes);
        assert!(in_moe >= floor * 0.8, "{in_moe} vs floor {floor}");
    }
}
