//! Each schedule's description of one MoE layer, lowered through the
//! scheduler's one `lower`.

use scheduler::{lower, makespan, moe_layer, MoePerfModel, Op, StreamSet};
use simnet::{TaskGraph, TaskId};

use crate::ScheduleKind;

impl ScheduleKind {
    /// One MoE layer's ops under this schedule at degree `r`, with `n_gar`
    /// Gradient-AllReduce pieces (see [`Self::lower_layer`]).
    pub fn layer_ops(self, r: u32, n_gar: usize) -> Vec<Op> {
        let mut ops = Vec::new();
        self.extend_layer_ops(&mut ops, r, n_gar);
        ops
    }

    /// Appends [`Self::layer_ops`] to `ops`.
    pub(crate) fn extend_layer_ops(self, ops: &mut Vec<Op>, r: u32, n_gar: usize) {
        moe_layer(ops, self == ScheduleKind::FsMoe, r, n_gar);
    }

    /// The prices of one MoE layer's ops under this schedule, piece `j`
    /// of the Gradient-AllReduce taking `gar_times[j]`.
    ///
    /// DeepSpeed-MoE always routes through its 2DH hierarchical
    /// AlltoAll; on the node-aligned topology its intra-node phase
    /// re-moves the full buffer and serialises on the same blocking
    /// queue, so each AlltoAll also pays an intra-node pass.
    pub fn layer_prices<'a>(
        self,
        m: &MoePerfModel,
        r: u32,
        gar_times: &'a [f64],
    ) -> impl Fn(Op) -> f64 + 'a {
        let a2a_extra = match self {
            ScheduleKind::DsMoe => m.ag.time_chunked(m.n_a2a, r),
            _ => 0.0,
        };
        m.op_ms(r, a2a_extra, gar_times)
    }

    /// Lowers one MoE layer under this schedule and returns its last
    /// combine — what the next layer waits for.
    ///
    /// * **FSMoE** issues `moe_layer`'s three-stream order: AlltoAll on
    ///   the inter-node link, AllGather/ReduceScatter on the intra-node
    ///   link, experts on the compute stream — all three overlap.
    /// * **Every baseline** issues PipeMoE's two-resource order, which is
    ///   how Tutel actually schedules ESP runs (and what the paper's
    ///   Fig. 3b/3c contrast targets): the chunk's AllGather → expert →
    ///   ReduceScatter sequence is one fused "computation" block
    ///   overlapped only against the AlltoAlls. The intra-node
    ///   collectives therefore serialise with the expert computation —
    ///   the exact inter/intra overlap FSMoE adds is absent.
    /// * `gar_times` are Gradient-AllReduce pieces this layer must issue
    ///   on the inter-node link, behind the dispatches (placement across
    ///   layers is the caller's policy). Nothing downstream
    ///   data-depends on them — they only contend for the link, and the
    ///   simulator's makespan still accounts for a straggling piece.
    ///
    /// # Panics
    ///
    /// Panics when `r == 0`.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per input of the layer's lowering"
    )]
    pub fn lower_layer(
        self,
        graph: &mut TaskGraph,
        streams: &StreamSet,
        m: &MoePerfModel,
        r: u32,
        gar_times: &[f64],
        deps: &[TaskId],
        label: &str,
    ) -> TaskId {
        let ops = self.layer_ops(r, gar_times.len());
        let ms = self.layer_prices(m, r, gar_times);
        lower(&ops, graph, streams, ms, deps, label).expect("a layer ends with its last combine")
    }
}

/// Simulated makespan of one isolated MoE layer under `kind`: what
/// simulating [`ScheduleKind::lower_layer`]'s graph reports, bit for bit,
/// walked straight off the op list.
pub fn simulate_layer(kind: ScheduleKind, m: &MoePerfModel, r: u32, gar_times: &[f64]) -> f64 {
    let ops = kind.layer_ops(r, gar_times.len());
    makespan(&ops, kind.layer_prices(m, r, gar_times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scheduler::Phase;
    use simnet::{Engine, Testbed};

    fn model(n_a2a: f64, n_exp: f64, t_gar: f64) -> MoePerfModel {
        MoePerfModel::new(
            &Testbed::b().costs,
            n_a2a,
            n_a2a,
            n_a2a,
            n_exp,
            2,
            Phase::Backward,
            t_gar,
        )
    }

    #[test]
    fn ds_moe_is_fully_sequential_plus_2dh_phase() {
        let m = model(4.0e6, 2.0e9, 0.0);
        let t = simulate_layer(ScheduleKind::DsMoe, &m, 1, &[]);
        // sequential time plus the 2DH intra-node pass on each of the
        // two AlltoAlls
        let expect = m.sequential_time() + 2.0 * m.ag.time_chunked(m.n_a2a, 1);
        assert!((t - expect).abs() < 1e-9, "{t} vs {expect}");
    }

    #[test]
    fn tutel_beats_ds_moe_on_balanced_configs() {
        let m = model(8.0e6, 4.0e10, 0.0);
        let r = ScheduleKind::Tutel.pipeline_degree(&m);
        let tutel = simulate_layer(ScheduleKind::Tutel, &m, r, &[]);
        let ds = simulate_layer(ScheduleKind::DsMoe, &m, 1, &[]);
        assert!(tutel < ds, "tutel {tutel} vs ds {ds}");
    }

    #[test]
    fn tutel_matches_pipemoe_closed_form_when_compute_bound() {
        // compute-bound: t = 2·t_a2a + r·(t_ag + t_exp + t_rs)
        let m = model(1.0e5, 1.0e11, 0.0);
        for r in [2u32, 4] {
            let t = simulate_layer(ScheduleKind::Tutel, &m, r, &[]);
            let formula = 2.0 * m.t_a2a(r) + f64::from(r) * (m.t_ag(r) + m.t_exp(r) + m.t_rs(r));
            assert!(
                (t - formula).abs() / formula < 0.01,
                "r={r}: {t} vs {formula}"
            );
        }
    }

    #[test]
    fn fsmoe_never_loses_to_no_iio_at_layer_level() {
        for (n_a2a, n_exp, gar) in [
            (2.0e6, 1.0e9, 0.0),
            (8.0e6, 4.0e10, 0.0),
            (8.0e6, 4.0e10, 3.0),
            (2.0e7, 2.0e9, 1.0),
        ] {
            let m = model(n_a2a, n_exp, gar);
            let gar_vec: Vec<f64> = if gar > 0.0 { vec![gar] } else { vec![] };
            let r_f = ScheduleKind::FsMoe.pipeline_degree(&m);
            let r_n = ScheduleKind::FsMoeNoIio.pipeline_degree(&m);
            let fsmoe = simulate_layer(ScheduleKind::FsMoe, &m, r_f, &gar_vec);
            let noiio = simulate_layer(ScheduleKind::FsMoeNoIio, &m, r_n, &gar_vec);
            // FSMoE picks r from the §4.2 closed forms while No-IIO
            // scans its own simulated lowering, so FSMoE may trail by a
            // few percent at case crossovers — never by much
            assert!(
                fsmoe <= noiio * 1.05 + 1e-9,
                "fsmoe {fsmoe} vs no-iio {noiio} at ({n_a2a}, {n_exp}, {gar})"
            );
        }
    }

    #[test]
    fn fsmoe_strictly_wins_when_intra_is_substantial() {
        // pipelined intra comm hides inside the expert/a2a overlap under
        // FSMoE but serialises with the experts under the baselines
        let m = model(1.0e7, 1.0e10, 0.0);
        let r = ScheduleKind::FsMoe.pipeline_degree(&m);
        let fsmoe = simulate_layer(ScheduleKind::FsMoe, &m, r, &[]);
        let noiio = simulate_layer(ScheduleKind::FsMoeNoIio, &m, r, &[]);
        assert!(fsmoe < noiio * 0.999, "fsmoe {fsmoe} vs no-iio {noiio}");
    }

    #[test]
    fn gar_pieces_extend_single_stream_makespan() {
        let m = model(4.0e6, 2.0e9, 0.0);
        let with = simulate_layer(ScheduleKind::Tutel, &m, 2, &[5.0]);
        let without = simulate_layer(ScheduleKind::Tutel, &m, 2, &[]);
        assert!(with > without);
    }

    /// Random layer models on both testbeds, in both phases, with every
    /// workload drawn log-uniformly across several decades.
    fn random_models(count: usize) -> Vec<MoePerfModel> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut uniform = move || {
            // xorshift64*: a fixed stream, no dependency
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut decades = move |lo: f64, hi: f64| 10f64.powf(lo + (hi - lo) * uniform());
        let mut models = Vec::new();
        for testbed in [Testbed::a(), Testbed::b()] {
            for phase in [Phase::Forward, Phase::Backward] {
                for k in 0..count {
                    let t_gar = decades(-2.0, 1.5);
                    models.push(MoePerfModel::new(
                        &testbed.costs,
                        decades(4.0, 8.5),
                        decades(4.0, 8.5),
                        decades(4.0, 8.5),
                        decades(6.0, 12.0),
                        2 + k % 2,
                        phase,
                        t_gar,
                    ));
                }
            }
        }
        models
    }

    #[test]
    fn all_schedules_simulate_cleanly() {
        // every schedule's lowering simulates at any degree, the inter-node
        // link carries exactly the AlltoAlls and the pieces, and the walk
        // `simulate_layer` prices it to the same bit as the engine
        let kinds: Vec<ScheduleKind> = ScheduleKind::ALL
            .into_iter()
            .chain([ScheduleKind::FasterMoe])
            .collect();
        for m in std::iter::once(model(4.0e6, 2.0e9, 1.0)).chain(random_models(6)) {
            let (x, y) = (m.t_gar, 2.5 * m.t_gar);
            for &kind in &kinds {
                assert!(kind.pipeline_degree(&m) >= 1);
                for r in (1..=16u32).chain([17, 32]) {
                    for gar in [&[][..], &[x], &[x, y]] {
                        let mut graph = TaskGraph::new();
                        let streams = StreamSet::add_to(&mut graph);
                        let _ = kind.lower_layer(&mut graph, &streams, &m, r, gar, &[], "moe");
                        let tl = Engine::new()
                            .simulate(&graph)
                            .unwrap_or_else(|e| panic!("{kind} r={r}: {e}"));
                        let t = tl.makespan();
                        assert!(t.is_finite() && t > 0.0, "{kind} r={r}: {t}");
                        let walked = simulate_layer(kind, &m, r, gar);
                        assert_eq!(
                            walked.to_bits(),
                            t.to_bits(),
                            "{kind} r={r} gar={gar:?} {m:?}: walk {walked} vs engine {t}"
                        );
                        let mut t_a2a = m.t_a2a(r);
                        if kind == ScheduleKind::DsMoe {
                            t_a2a += m.ag.time_chunked(m.n_a2a, r);
                        }
                        let busy = 2.0 * f64::from(r) * t_a2a + gar.iter().sum::<f64>();
                        assert!(
                            (tl.busy_time(streams.inter) - busy).abs() < 1e-9,
                            "{kind} r={r}: inter busy {} vs {busy}",
                            tl.busy_time(streams.inter)
                        );
                    }
                }
            }
        }
    }

    /// Asserts `(name, stream, dep names)` of every task of one gated
    /// layer, in insertion order.
    fn assert_structure(kind: ScheduleKind, r: u32, gar: &[f64], want: &[(&str, &str, &str)]) {
        let mut graph = TaskGraph::new();
        let streams = StreamSet::add_to(&mut graph);
        let gate = graph.add_task("gate", streams.compute, 1.0, &[]);
        let m = model(4.0e6, 2.0e9, 0.0);
        let _ = kind.lower_layer(&mut graph, &streams, &m, r, gar, &[gate], "moe");
        let name = |id: TaskId| graph.name(id).to_string();
        let got: Vec<(String, &str, String)> = graph
            .ids()
            .skip(1)
            .map(|id| {
                let deps: Vec<String> = graph.deps(id).iter().map(|&d| name(d)).collect();
                let resource = graph.task(id).expect("own task").resource;
                let stream = graph.resource_name(resource).expect("own stream");
                (name(id), stream, deps.join(" "))
            })
            .collect();
        let got: Vec<(&str, &str, &str)> = got.iter().map(|(n, s, d)| (&**n, *s, &**d)).collect();
        assert_eq!(got, want, "{kind} r={r}");
    }

    #[test]
    fn lowered_structure_is_frozen() {
        // recorded from the hand-wired builders of 08d5124 before they
        // were deleted: `render_gantt` legends print these names, and
        // per-stream issue order is insertion order
        assert_structure(
            ScheduleKind::FsMoe,
            3,
            &[1.0, 2.0],
            &[
                ("moe.D0", "inter", "gate"),
                ("moe.D1", "inter", "gate"),
                ("moe.D2", "inter", "gate"),
                ("moe.GAR0", "inter", "gate"),
                ("moe.GAR1", "inter", "gate"),
                ("moe.AG0", "intra", "moe.D0"),
                ("moe.E0", "compute", "moe.AG0"),
                ("moe.AG1", "intra", "moe.D1"),
                ("moe.E1", "compute", "moe.AG1"),
                ("moe.RS0", "intra", "moe.E0"),
                ("moe.AG2", "intra", "moe.D2"),
                ("moe.E2", "compute", "moe.AG2"),
                ("moe.RS1", "intra", "moe.E1"),
                ("moe.RS2", "intra", "moe.E2"),
                ("moe.C0", "inter", "moe.RS0"),
                ("moe.C1", "inter", "moe.RS1"),
                ("moe.C2", "inter", "moe.RS2"),
            ],
        );
        assert_structure(
            ScheduleKind::Tutel,
            2,
            &[1.0],
            &[
                ("moe.D0", "inter", "gate"),
                ("moe.B0", "compute", "moe.D0"),
                ("moe.D1", "inter", "gate"),
                ("moe.B1", "compute", "moe.D1"),
                ("moe.GAR0", "inter", "gate"),
                ("moe.C0", "inter", "moe.B0"),
                ("moe.C1", "inter", "moe.B1"),
            ],
        );
        assert_structure(
            ScheduleKind::DsMoe,
            1,
            &[],
            &[
                ("moe.D0", "inter", "gate"),
                ("moe.B0", "compute", "moe.D0"),
                ("moe.C0", "inter", "moe.B0"),
            ],
        );
    }
}
