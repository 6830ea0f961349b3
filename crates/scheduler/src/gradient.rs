//! Adaptive gradient partitioning for backpropagation (paper §5).
//!
//! Gradient-AllReduce and AlltoAll share the inter-node link, so the DP
//! gradient synchronisation cannot simply overlap "the MoE layer" — it
//! must be sliced and placed into the windows where the inter-node link
//! is idle. Two steps:
//!
//! 1. **Fill the overlappable windows** (§5.2): every generalized layer
//!    (an MoE layer plus the dense ops before the next MoE layer) has an
//!    idle window `t_olp = t_olp,moe + t_olp,dense`; the inverse
//!    AllReduce model `g⁻¹(t) = (t−α)/β` converts window time into the
//!    gradient bytes it absorbs (Eqs. 3–4).
//! 2. **Optimise the remainder** (§5.3): leftover bytes are distributed
//!    across layers by differential evolution, minimising the sum of the
//!    per-layer `t_moe` at the degree Algorithm 1 picks, with each
//!    layer's Gradient-AllReduce budget as input. Algorithm 1 is a scan
//!    of every degree ([`find_optimal_pipeline_degree`]); each layer's
//!    `t_moe(t_gar)` is read from a [`GarCurve`], which equals that scan
//!    bit for bit, so a candidate costs one binary search per layer
//!    rather than a 64-degree scan. The curve is built once per distinct
//!    layer: a layer whose model equals the one before (bit for bit)
//!    shares its curve, and one that also has the same dense time shares
//!    step 1's window with the last layer whose window was solved.
//!
//! Unlike Lina's fixed 30 MB chunks, both steps adapt to the measured
//! cost models — this is the paper's key advantage in Fig. 6.
//!
//! Simplification vs. Eq. 5: the paper bounds each layer's share by the
//! gradient bytes *causally available* when that layer runs; this
//! implementation lets DE distribute the remainder freely (backward
//! order still governs step 1). DESIGN.md records the substitution.

use numopt::{DeConfig, DifferentialEvolution};
use simnet::CostModel;

use crate::cases::t_olp_moe;
use crate::optimize::{find_optimal_pipeline_degree, GarCurve};
use crate::perf::MoePerfModel;

/// The differential-evolution settings the iteration planner solves
/// step 2 with.
pub const PLANNER_DE: DeConfig = DeConfig {
    population: 12,
    generations: 40,
    weight: 0.7,
    crossover: 0.9,
    seed: 0xF5,
};

/// One generalized layer: an MoE layer and the dense operations before
/// the next MoE layer (§5.2's unit of scheduling).
#[derive(Debug, Clone)]
pub struct GeneralizedLayer {
    /// Backward-phase performance model of the MoE layer (`t_gar` is
    /// ignored; the partitioner sets it).
    pub moe: MoePerfModel,
    /// Overlappable time of the dense parts, ms (measured before
    /// training per the paper).
    pub t_olp_dense: f64,
    /// Gradient bytes this generalized layer produces (its dense,
    /// DP-replicated parameters).
    pub grad_bytes: f64,
}

impl GeneralizedLayer {
    /// Whether `other` has the same step-1 window: the same MoE model and
    /// dense time, bit for bit.
    fn same_window(&self, other: &GeneralizedLayer) -> bool {
        self.moe.to_bits() == other.moe.to_bits()
            && self.t_olp_dense.to_bits() == other.t_olp_dense.to_bits()
    }
}

/// The partitioner's output.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientPartition {
    /// AllReduce bytes assigned to each generalized layer (same order as
    /// the input, which is backward execution order).
    pub bytes: Vec<f64>,
    /// Resulting Gradient-AllReduce time budget per layer, ms (the
    /// `t_gar` each layer's pipeline optimizer receives).
    pub t_gar: Vec<f64>,
    /// Bytes assigned by step 1 (window filling) — diagnostic.
    pub step1_bytes: Vec<f64>,
}

impl GradientPartition {
    /// Total bytes assigned across layers.
    pub fn total_bytes(&self) -> f64 {
        self.bytes.iter().sum()
    }
}

/// Runs the two-step partitioner over layers listed in backward
/// execution order.
///
/// `ar` is the cluster's AllReduce cost model. Returns per-layer byte
/// assignments whose total equals the total gradient bytes.
pub fn partition_gradients(
    layers: &[GeneralizedLayer],
    ar: CostModel,
    de: DeConfig,
) -> GradientPartition {
    let n = layers.len();
    if n == 0 {
        return GradientPartition {
            bytes: vec![],
            t_gar: vec![],
            step1_bytes: vec![],
        };
    }

    // ---- Step 1: fill each layer's overlappable window (Eqs. 3–4).
    // The gradient of generalized layer i−1 becomes available when layer
    // i runs (backward order), so bytes flow forward through a carry.
    let mut step1 = vec![0.0f64; n];
    let mut carry = 0.0f64;
    // the last window solved, and the layer it was solved for: a layer
    // equal to it reuses the window
    let mut solved: Option<(&GeneralizedLayer, f64)> = None;
    for i in 0..n {
        if i > 0 {
            carry += layers[i - 1].grad_bytes;
        }
        if carry <= 0.0 {
            continue;
        }
        let layer = &layers[i];
        let window = match solved {
            Some((s, window)) if s.same_window(layer) => window,
            _ => {
                let r0 = find_optimal_pipeline_degree(&layer.moe.with_t_gar(0.0));
                let window = t_olp_moe(&layer.moe, r0.r) + layer.t_olp_dense;
                solved = Some((layer, window));
                window
            }
        };
        let capacity = ar.invert(window); // g⁻¹: bytes the window absorbs
        let assigned = carry.min(capacity);
        step1[i] = assigned;
        carry -= assigned;
    }
    // gradient of the final layer never had a window
    let remaining = carry + layers[n - 1].grad_bytes;

    // ---- Step 2: distribute the remainder by differential evolution
    // (Eq. 5, with the causality bound relaxed — see module docs).
    let mut bytes = step1.clone();
    if remaining > 0.0 {
        if n == 1 {
            bytes[0] += remaining;
        } else {
            // a layer equal to the one before shares its curve
            let mut curves: Vec<GarCurve> = Vec::with_capacity(n);
            for (i, l) in layers.iter().enumerate() {
                let curve = match curves.last() {
                    Some(prev) if l.moe.to_bits() == layers[i - 1].moe.to_bits() => prev.clone(),
                    _ => GarCurve::new(&l.moe),
                };
                curves.push(curve);
            }
            let objective = |shares: &[f64]| -> f64 {
                let total: f64 = shares.iter().sum();
                curves
                    .iter()
                    .enumerate()
                    .map(|(i, curve)| {
                        let extra = if total > 0.0 {
                            remaining * shares[i] / total
                        } else {
                            remaining / n as f64
                        };
                        let b = step1[i] + extra;
                        let t_gar = if b > 0.0 { ar.time(b) } else { 0.0 };
                        curve.at(t_gar)
                    })
                    .sum()
            };
            let solver = DifferentialEvolution::new(vec![(0.0, 1.0); n], de);
            match solver.minimize(objective) {
                Ok(result) => {
                    let total: f64 = result.x.iter().sum();
                    for (b, &xi) in bytes.iter_mut().zip(&result.x) {
                        let extra = if total > 0.0 {
                            remaining * xi / total
                        } else {
                            remaining / n as f64
                        };
                        *b += extra;
                    }
                }
                Err(_) => {
                    // degenerate solver input: fall back to uniform
                    for b in bytes.iter_mut() {
                        *b += remaining / n as f64;
                    }
                }
            }
        }
    }

    let t_gar = bytes
        .iter()
        .map(|&b| if b > 0.0 { ar.time(b) } else { 0.0 })
        .collect();
    GradientPartition {
        bytes,
        t_gar,
        step1_bytes: step1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::Phase;
    use simnet::{OpCosts, Testbed};

    fn layer(costs: &OpCosts, n_exp: f64, grad_bytes: f64, dense: f64) -> GeneralizedLayer {
        GeneralizedLayer {
            moe: MoePerfModel::new(costs, 2.0e6, 2.0e6, 2.0e6, n_exp, 2, Phase::Backward, 0.0),
            t_olp_dense: dense,
            grad_bytes,
        }
    }

    fn fast_de() -> DeConfig {
        DeConfig {
            population: 8,
            generations: 25,
            seed: 7,
            ..DeConfig::default()
        }
    }

    #[test]
    fn bytes_are_conserved() {
        let costs = Testbed::b().costs;
        let layers = vec![
            layer(&costs, 1.0e10, 3.0e7, 1.0),
            layer(&costs, 2.0e10, 5.0e7, 2.0),
            layer(&costs, 1.0e10, 2.0e7, 1.5),
        ];
        let total: f64 = layers.iter().map(|l| l.grad_bytes).sum();
        let p = partition_gradients(&layers, costs.all_reduce, fast_de());
        assert!(
            (p.total_bytes() - total).abs() < total * 1e-9,
            "{} vs {total}",
            p.total_bytes()
        );
        assert_eq!(p.bytes.len(), 3);
        assert!(p.bytes.iter().all(|&b| b >= -1e-9));
    }

    #[test]
    fn step1_respects_windows() {
        let costs = Testbed::b().costs;
        let layers = vec![
            layer(&costs, 5.0e10, 1.0e8, 2.0),
            layer(&costs, 5.0e10, 1.0e8, 2.0),
            layer(&costs, 5.0e10, 0.0, 2.0),
        ];
        let p = partition_gradients(&layers, costs.all_reduce, fast_de());
        for (i, &b) in p.step1_bytes.iter().enumerate() {
            if b > 0.0 {
                let r0 = find_optimal_pipeline_degree(&layers[i].moe);
                let window = t_olp_moe(&layers[i].moe, r0.r) + layers[i].t_olp_dense;
                assert!(
                    costs.all_reduce.time(b) <= window + 1e-9,
                    "layer {i}: {b} bytes exceed window {window}"
                );
            }
        }
    }

    #[test]
    fn first_layer_gets_no_step1_bytes() {
        // no gradient exists before the first backward layer runs
        let costs = Testbed::b().costs;
        let layers = vec![
            layer(&costs, 5.0e10, 1.0e7, 5.0),
            layer(&costs, 5.0e10, 1.0e7, 5.0),
        ];
        let p = partition_gradients(&layers, costs.all_reduce, fast_de());
        assert_eq!(p.step1_bytes[0], 0.0);
    }

    #[test]
    fn big_windows_absorb_everything_in_step1() {
        let costs = Testbed::b().costs;
        // huge dense windows, small gradients
        let layers = vec![
            layer(&costs, 1.0e10, 1.0e5, 1000.0),
            layer(&costs, 1.0e10, 1.0e5, 1000.0),
            layer(&costs, 1.0e10, 0.0, 1000.0),
        ];
        let p = partition_gradients(&layers, costs.all_reduce, fast_de());
        // layers 1 and 2 fully absorb the gradients of layers 0 and 1
        assert!((p.step1_bytes[1] - 1.0e5).abs() < 1.0);
        assert!((p.step1_bytes[2] - 1.0e5).abs() < 1.0);
    }

    #[test]
    fn partition_beats_lina_style_uniform_chunks() {
        // the total predicted time under the adaptive partition must not
        // exceed a fixed uniform split of the same bytes (Lina's fixed
        // chunk size, which ignores per-layer windows)
        let costs = Testbed::b().costs;
        let layers = vec![
            layer(&costs, 8.0e10, 6.0e7, 3.0),
            layer(&costs, 1.0e9, 6.0e7, 0.1),
            layer(&costs, 8.0e10, 6.0e7, 3.0),
        ];
        let p = partition_gradients(&layers, costs.all_reduce, fast_de());
        let adaptive: f64 = layers
            .iter()
            .zip(&p.t_gar)
            .map(|(l, &t)| find_optimal_pipeline_degree(&l.moe.with_t_gar(t)).t_moe)
            .sum();
        let total: f64 = layers.iter().map(|l| l.grad_bytes).sum();
        let uniform: f64 = layers
            .iter()
            .map(|l| {
                find_optimal_pipeline_degree(
                    &l.moe
                        .with_t_gar(costs.all_reduce.time(total / layers.len() as f64)),
                )
                .t_moe
            })
            .sum();
        assert!(
            adaptive <= uniform * 1.01,
            "adaptive {adaptive} vs uniform {uniform}"
        );
    }

    #[test]
    fn empty_and_single_layer_edge_cases() {
        let costs = Testbed::b().costs;
        let p = partition_gradients(&[], costs.all_reduce, fast_de());
        assert!(p.bytes.is_empty());

        let single = vec![layer(&costs, 1.0e10, 4.0e7, 1.0)];
        let p = partition_gradients(&single, costs.all_reduce, fast_de());
        assert!((p.bytes[0] - 4.0e7).abs() < 1.0);
        assert!(p.t_gar[0] > 0.0);
    }

    #[test]
    fn planner_partitions_are_pinned() {
        // four unequal layers at the planner's settings, on both
        // testbeds; the bits were recorded with every budget priced by
        // the degree scan, so the curve must reproduce the scan's
        // partition exactly
        let pins: [(Testbed, [u64; 4], [u64; 4]); 2] = [
            (
                Testbed::a(),
                [
                    0x418bd481d04540ac,
                    0x4189755123f23a51,
                    0x4187dd7476ed8177,
                    0x419042724a6d81c4,
                ],
                [
                    0x403d66b280375d6b,
                    0x403af0610e1ec866,
                    0x403948fb468207da,
                    0x404122672d213908,
                ],
            ),
            (
                Testbed::b(),
                [
                    0x418ba49800e37dd7,
                    0x419d731c8a7b0b0d,
                    0x417a65e593c3a1f5,
                    0x4173dcd040893628,
                ],
                [
                    0x4041678046f8dd51,
                    0x405284a6795b2659,
                    0x4030aa0ac46d9c7c,
                    0x40291e5de8e15ccd,
                ],
            ),
        ];
        for (tb, bytes, t_gar) in pins {
            let layers: Vec<GeneralizedLayer> = [
                (4.0e6, 8.0e10, 6.0e7, 3.0),
                (2.0e6, 1.0e9, 4.0e7, 0.5),
                (8.0e6, 3.0e10, 8.0e7, 2.0),
                (1.0e6, 2.0e10, 5.0e7, 1.0),
            ]
            .iter()
            .map(|&(n_a2a, n_exp, grad_bytes, dense)| GeneralizedLayer {
                moe: MoePerfModel::new(
                    &tb.costs,
                    n_a2a,
                    n_a2a,
                    n_a2a,
                    n_exp,
                    2,
                    Phase::Backward,
                    0.0,
                ),
                t_olp_dense: dense,
                grad_bytes,
            })
            .collect();
            let p = partition_gradients(&layers, tb.costs.all_reduce, PLANNER_DE);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&p.bytes), bytes, "{:?} bytes", tb.kind);
            assert_eq!(bits(&p.t_gar), t_gar, "{:?} t_gar", tb.kind);
        }
    }

    #[test]
    fn identical_layer_partitions_are_pinned() {
        // four identical layers at the planner's settings, on both
        // testbeds, as `plan_iteration` builds an FSMoE stack; the bits
        // were recorded with a curve and a step-1 window built per layer,
        // so sharing them between equal layers must change nothing
        let pins: [(Testbed, [u64; 4], [u64; 4]); 2] = [
            (
                Testbed::a(),
                [
                    0x41920ef326323be2,
                    0x4184c473728f8292,
                    0x418133b40e835a28,
                    0x41942d69194455be,
                ],
                [
                    0x40430072731da747,
                    0x403611c5989f4754,
                    0x40325e41e925e8c1,
                    0x40453391fd26aa25,
                ],
            ),
            (
                Testbed::b(),
                [
                    0x41824a0eee6cb818,
                    0x416d8f072776195c,
                    0x417aee1e07480c61,
                    0x41a2d30011046ed7,
                ],
                [
                    0x40370f004199877b,
                    0x4022bbaea04a462e,
                    0x4030ff9a0cd601ec,
                    0x4057aaf4cc5fbf29,
                ],
            ),
        ];
        for (tb, bytes, t_gar) in pins {
            let moe = MoePerfModel::new(
                &tb.costs,
                4.0e6,
                4.0e6,
                4.0e6,
                8.0e10,
                2,
                Phase::Backward,
                0.0,
            );
            let layer = GeneralizedLayer {
                moe,
                t_olp_dense: 3.0,
                grad_bytes: 6.0e7,
            };
            let p = partition_gradients(&vec![layer; 4], tb.costs.all_reduce, PLANNER_DE);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&p.bytes), bytes, "{:?} bytes", tb.kind);
            assert_eq!(bits(&p.t_gar), t_gar, "{:?} t_gar", tb.kind);
        }
    }

    #[test]
    fn zero_gradients_mean_zero_budgets() {
        let costs = Testbed::b().costs;
        let layers = vec![layer(&costs, 1.0e10, 0.0, 1.0); 3];
        let p = partition_gradients(&layers, costs.all_reduce, fast_de());
        assert!(p.bytes.iter().all(|&b| b == 0.0));
        assert!(p.t_gar.iter().all(|&t| t == 0.0));
    }
}
