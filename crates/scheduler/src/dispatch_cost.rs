//! Cost models for the AlltoAll algorithm variants (§3.1's *Dispatch*
//! sub-module).
//!
//! The paper makes the AlltoAll swappable between three semantically
//! identical algorithms — NCCL-direct, Hetu's 1DH and Tutel/DeepSpeed's
//! 2DH — which differ only in which links carry which bytes. This module
//! prices each on a `nodes × gpus_per_node` topology, reproducing the
//! trade-off that motivated the swap; the live `fsmoe` layer runs only
//! the direct exchange.
//!
//! Per-GPU byte accounting, with `g` GPUs/node, `n` nodes and message
//! `b` bytes (one AlltoAll over `P = g·n` peers):
//!
//! * **direct** — one flat exchange; `(P−1)/P · b` leaves the GPU, of
//!   which `(n−1)/n · b` crosses nodes (priced by the inter model) and
//!   the rest stays on NVLink (priced by the intra model);
//! * **1DH** — an intra-node AllGather (`(g−1)·b` received per GPU) then
//!   one inter-node AlltoAll of `(n−1)/n · g·b` aggregated bytes;
//! * **2DH** — an intra-node AlltoAll (`(g−1)/g · b`) then an inter-node
//!   AlltoAll (`(n−1)/n · b`), the grid decomposition.
//!
//! The hierarchical variants trade extra intra-node traffic for fewer,
//! larger inter-node messages — they win when the startup term α
//! dominates (small messages, the regime the NCCL 2.12 blog post and
//! Hetu target) and lose once β·bytes dominates.

use simnet::CostModel;

/// Which AlltoAll algorithm to price.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum A2aAlgorithm {
    /// Flat NCCL AlltoAll.
    Direct,
    /// Hetu's 1-D hierarchical (AllGather + inter AlltoAll).
    Hier1dh,
    /// Tutel/DeepSpeed's 2-D hierarchical (intra + inter AlltoAll).
    Hier2dh,
}

impl A2aAlgorithm {
    /// All variants.
    pub const ALL: [A2aAlgorithm; 3] = [
        A2aAlgorithm::Direct,
        A2aAlgorithm::Hier1dh,
        A2aAlgorithm::Hier2dh,
    ];

    /// Display name matching the paper's §3.1 list.
    pub fn name(self) -> &'static str {
        match self {
            A2aAlgorithm::Direct => "NCCL-A2A",
            A2aAlgorithm::Hier1dh => "1DH-A2A",
            A2aAlgorithm::Hier2dh => "2DH-A2A",
        }
    }
}

/// The priced phases of one AlltoAll.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct A2aCost {
    /// Time on the inter-node link, ms.
    pub inter: f64,
    /// Time on the intra-node link, ms.
    pub intra: f64,
}

impl A2aCost {
    /// Total time when the phases serialise (the hierarchical algorithms
    /// are staged, so they do).
    pub fn total(&self) -> f64 {
        self.inter + self.intra
    }
}

/// Prices `algo` moving `bytes` per GPU over a `nodes × gpus_per_node`
/// grid, with `inter`/`intra` the link cost models.
///
/// # Panics
///
/// Panics when `nodes` or `gpus_per_node` is zero.
pub fn a2a_cost(
    algo: A2aAlgorithm,
    bytes: f64,
    nodes: usize,
    gpus_per_node: usize,
    inter: CostModel,
    intra: CostModel,
) -> A2aCost {
    assert!(nodes > 0 && gpus_per_node > 0, "degenerate topology");
    let n = nodes as f64;
    let g = gpus_per_node as f64;
    let cross = if nodes > 1 { (n - 1.0) / n } else { 0.0 };
    let local = if gpus_per_node > 1 {
        (g - 1.0) / g
    } else {
        0.0
    };
    match algo {
        A2aAlgorithm::Direct => A2aCost {
            inter: if nodes > 1 {
                inter.time(cross * bytes)
            } else {
                0.0
            },
            intra: if gpus_per_node > 1 {
                intra.time(local * bytes / n.max(1.0))
            } else {
                0.0
            },
        },
        A2aAlgorithm::Hier1dh => A2aCost {
            inter: if nodes > 1 {
                inter.time(cross * g * bytes)
            } else {
                0.0
            },
            intra: if gpus_per_node > 1 {
                intra.time((g - 1.0) * bytes)
            } else {
                0.0
            },
        },
        A2aAlgorithm::Hier2dh => A2aCost {
            inter: if nodes > 1 {
                inter.time(cross * bytes)
            } else {
                0.0
            },
            intra: if gpus_per_node > 1 {
                intra.time(local * bytes)
            } else {
                0.0
            },
        },
    }
}

/// The cheapest algorithm (by total serialised time) for the workload.
pub fn best_a2a_algorithm(
    bytes: f64,
    nodes: usize,
    gpus_per_node: usize,
    inter: CostModel,
    intra: CostModel,
) -> (A2aAlgorithm, A2aCost) {
    A2aAlgorithm::ALL
        .into_iter()
        .map(|a| (a, a2a_cost(a, bytes, nodes, gpus_per_node, inter, intra)))
        .min_by(|x, y| {
            x.1.total()
                .partial_cmp(&y.1.total())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("three candidates")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn links() -> (CostModel, CostModel) {
        // high-latency, modest-bandwidth inter link; cheap intra link
        (CostModel::new(0.3, 3.0e-7), CostModel::new(0.02, 3.0e-8))
    }

    #[test]
    fn direct_wins_for_large_messages() {
        let (inter, intra) = links();
        let (best, _) = best_a2a_algorithm(5.0e8, 6, 8, inter, intra);
        assert_eq!(best, A2aAlgorithm::Direct, "β dominates at 500 MB");
    }

    #[test]
    fn hierarchical_wins_for_small_messages() {
        // with several stragglers of startup per flat exchange avoided,
        // aggregation pays off at small sizes — model that by giving the
        // direct algorithm a per-peer startup penalty through a larger α
        let inter = CostModel::new(0.3, 3.0e-7);
        let intra = CostModel::new(0.002, 3.0e-8);
        let direct = a2a_cost(A2aAlgorithm::Direct, 1.0e4, 6, 8, inter, intra);
        let h2 = a2a_cost(A2aAlgorithm::Hier2dh, 1.0e4, 6, 8, inter, intra);
        // at 10 KB both are α-bound; 2DH adds only the tiny intra α
        assert!(h2.total() < direct.total() * 1.5);
    }

    #[test]
    fn phase_accounting_is_consistent() {
        let (inter, intra) = links();
        let c = a2a_cost(A2aAlgorithm::Hier1dh, 1.0e6, 4, 4, inter, intra);
        // 1DH inter phase carries g× the per-GPU bytes
        let expect_inter = inter.time(0.75 * 4.0 * 1.0e6);
        assert!((c.inter - expect_inter).abs() < 1e-12);
        let expect_intra = intra.time(3.0 * 1.0e6);
        assert!((c.intra - expect_intra).abs() < 1e-12);
        assert_eq!(c.total(), c.inter + c.intra);
    }

    #[test]
    fn single_node_has_no_inter_traffic() {
        let (inter, intra) = links();
        for algo in A2aAlgorithm::ALL {
            let c = a2a_cost(algo, 1.0e6, 1, 8, inter, intra);
            assert_eq!(c.inter, 0.0, "{}", algo.name());
            assert!(c.intra >= 0.0);
        }
    }

    #[test]
    fn single_gpu_nodes_have_no_intra_traffic() {
        let (inter, intra) = links();
        for algo in A2aAlgorithm::ALL {
            let c = a2a_cost(algo, 1.0e6, 8, 1, inter, intra);
            assert_eq!(c.intra, 0.0, "{}", algo.name());
        }
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = A2aAlgorithm::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["NCCL-A2A", "1DH-A2A", "2DH-A2A"]);
    }

    #[test]
    #[should_panic(expected = "degenerate topology")]
    fn zero_topology_panics() {
        let (inter, intra) = links();
        let _ = a2a_cost(A2aAlgorithm::Direct, 1.0, 0, 4, inter, intra);
    }
}
