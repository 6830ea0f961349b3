//! Hybrid-parallel process-group topology (DP + MP + EP + ESP).
//!
//! Training a large MoE model uses four interacting parallelisms
//! (paper §2.2): data parallelism over mini-batches, model parallelism
//! over attention shards, expert parallelism over experts, and
//! expert-sharding parallelism over the parameters of each expert. Each
//! parallelism induces a partition of the global ranks into groups; this
//! module constructs those partitions.
//!
//! The paper's target deployment (§4) aligns the MP and ESP groups with
//! the GPUs of one node (`mp == esp == gpus_per_node`): MP/ESP groups
//! are then each one node's contiguous ranks, so their traffic is
//! intra-node (NVLink), while the strided AlltoAll (EP) and
//! Gradient-AllReduce (DP) groups take one rank per node and cross
//! nodes. The FSMoE schedule prices the two kinds of link separately;
//! the groups themselves carry no link information.

use crate::{CommError, Result};

/// Sizes of the four parallel groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelDims {
    /// Workers per data-parallel group (`N_DP`).
    pub dp: usize,
    /// Workers per model-parallel group (`N_MP`).
    pub mp: usize,
    /// Workers per expert-parallel group (`N_EP`).
    pub ep: usize,
    /// Workers per expert-sharding group (`N_ESP`).
    pub esp: usize,
}

/// A cluster of `nodes × gpus_per_node` ranks with a hybrid-parallel
/// group layout.
///
/// Rank numbering is row-major: global rank = `node · gpus_per_node +
/// local`. MP and ESP groups are contiguous rank blocks (within-node when
/// aligned); EP and DP groups are strided across those blocks
/// (across-node when aligned) — matching Fig. 2 of the paper.
///
/// ```
/// use collectives::{HybridTopology, ParallelDims};
///
/// // Fig. 2 of the paper: 4 GPUs, all four dims = 2.
/// let topo = HybridTopology::new(2, 2, ParallelDims { dp: 2, mp: 2, ep: 2, esp: 2 }).unwrap();
/// assert_eq!(topo.mp_group(0), vec![0, 1]);
/// assert_eq!(topo.ep_group(0), vec![0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HybridTopology {
    nodes: usize,
    gpus_per_node: usize,
    dims: ParallelDims,
}

impl HybridTopology {
    /// Builds a topology and validates that the dims tile the cluster.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::BadParallelism`] when
    /// `dp·mp ≠ P`, `ep·esp ≠ P`, or MP/ESP groups would straddle node
    /// boundaries unevenly (group size must divide or be divided by
    /// `gpus_per_node`).
    pub fn new(nodes: usize, gpus_per_node: usize, dims: ParallelDims) -> Result<Self> {
        let p = nodes * gpus_per_node;
        if p == 0 {
            return Err(CommError::BadParallelism {
                reason: "cluster has zero ranks".into(),
            });
        }
        if dims.dp * dims.mp != p {
            return Err(CommError::BadParallelism {
                reason: format!("dp({}) x mp({}) != P({p})", dims.dp, dims.mp),
            });
        }
        if dims.ep * dims.esp != p {
            return Err(CommError::BadParallelism {
                reason: format!("ep({}) x esp({}) != P({p})", dims.ep, dims.esp),
            });
        }
        for (name, size) in [("mp", dims.mp), ("esp", dims.esp)] {
            if size == 0 || (!gpus_per_node.is_multiple_of(size) && size % gpus_per_node != 0) {
                return Err(CommError::BadParallelism {
                    reason: format!(
                        "{name} group size {size} incompatible with {gpus_per_node} gpus/node"
                    ),
                });
            }
        }
        Ok(HybridTopology {
            nodes,
            gpus_per_node,
            dims,
        })
    }

    /// The flat topology: one node, `n` GPUs, pure expert+data
    /// parallelism (`ep == dp == n`, no MP or ESP sharding). EP position
    /// equals rank, which is what lets an evicted *rank* map directly to
    /// an evicted *expert-parallel position*; `flat(1)` is local
    /// execution.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::BadParallelism`] when `n` is zero.
    pub fn flat(n: usize) -> Result<Self> {
        let dims = ParallelDims {
            dp: n,
            mp: 1,
            ep: n,
            esp: 1,
        };
        HybridTopology::new(1, n, dims)
    }

    /// Total ranks.
    pub fn world_size(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    /// The configured parallel dims.
    pub fn dims(&self) -> ParallelDims {
        self.dims
    }

    /// Ranks of the model-parallel group containing `rank` (contiguous
    /// block of `N_MP`).
    pub fn mp_group(&self, rank: usize) -> Vec<usize> {
        contiguous_group(rank, self.dims.mp)
    }

    /// Ranks of the expert-sharding group containing `rank` (contiguous
    /// block of `N_ESP`).
    pub fn esp_group(&self, rank: usize) -> Vec<usize> {
        contiguous_group(rank, self.dims.esp)
    }

    /// Ranks of the expert-parallel group containing `rank` (stride
    /// `N_ESP` across ESP blocks).
    pub fn ep_group(&self, rank: usize) -> Vec<usize> {
        strided_group(rank, self.dims.esp, self.dims.ep)
    }

    /// Ranks of the data-parallel group containing `rank` (stride `N_MP`
    /// across MP blocks) — the group Gradient-AllReduce runs over.
    pub fn dp_group(&self, rank: usize) -> Vec<usize> {
        strided_group(rank, self.dims.mp, self.dims.dp)
    }
}

/// Contiguous block of `size` ranks containing `rank`.
fn contiguous_group(rank: usize, size: usize) -> Vec<usize> {
    let start = rank - rank % size;
    (start..start + size).collect()
}

/// Group formed by striding: members share `rank % stride` and span
/// `count` consecutive blocks.
fn strided_group(rank: usize, stride: usize, count: usize) -> Vec<usize> {
    let offset = rank % stride;
    let block = (rank / stride) - (rank / stride) % count;
    (0..count).map(|j| (block + j) * stride + offset).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_fig2() -> HybridTopology {
        HybridTopology::new(
            2,
            2,
            ParallelDims {
                dp: 2,
                mp: 2,
                ep: 2,
                esp: 2,
            },
        )
        .unwrap()
    }

    #[test]
    fn fig2_groups_match_paper() {
        let t = paper_fig2();
        // GPU1..4 in the paper are ranks 0..3; node 0 = {0,1}, node 1 = {2,3}
        assert_eq!(t.mp_group(0), vec![0, 1]);
        assert_eq!(t.mp_group(3), vec![2, 3]);
        assert_eq!(t.esp_group(1), vec![0, 1]);
        // experts are distributed to (GPU1, GPU3) and (GPU2, GPU4)
        assert_eq!(t.ep_group(0), vec![0, 2]);
        assert_eq!(t.ep_group(1), vec![1, 3]);
        assert_eq!(t.dp_group(2), vec![0, 2]);
    }

    #[test]
    fn groups_partition_the_world() {
        let t = HybridTopology::new(
            4,
            4,
            ParallelDims {
                dp: 4,
                mp: 4,
                ep: 4,
                esp: 4,
            },
        )
        .unwrap();
        for group_fn in [
            HybridTopology::mp_group,
            HybridTopology::esp_group,
            HybridTopology::ep_group,
            HybridTopology::dp_group,
        ] {
            let mut seen = vec![0usize; t.world_size()];
            for r in 0..t.world_size() {
                let g = group_fn(&t, r);
                assert!(g.contains(&r), "rank {r} must be in its own group");
                for &m in &g {
                    seen[m] += 1;
                }
            }
            // each rank appears exactly group_size times (once per member)
            for (r, &count) in seen.iter().enumerate() {
                assert_eq!(count, 4, "rank {r}");
            }
        }
    }

    #[test]
    fn alignment_classifies_traffic() {
        let t = HybridTopology::new(
            2,
            4,
            ParallelDims {
                dp: 2,
                mp: 4,
                ep: 2,
                esp: 4,
            },
        )
        .unwrap();
        // node 0 = ranks 0..4, node 1 = ranks 4..8: MP/ESP groups are
        // one node's contiguous ranks, EP/DP groups one rank per node
        assert_eq!(t.mp_group(5), vec![4, 5, 6, 7]);
        assert_eq!(t.esp_group(5), vec![4, 5, 6, 7]);
        assert_eq!(t.ep_group(5), vec![1, 5]);
        assert_eq!(t.dp_group(5), vec![1, 5]);
    }

    #[test]
    fn unaligned_topology_allowed_but_flagged() {
        let t = HybridTopology::new(
            2,
            4,
            ParallelDims {
                dp: 4,
                mp: 2,
                ep: 4,
                esp: 2,
            },
        )
        .unwrap();
        // MP is half a node; EP mixes node-local and cross-node peers
        assert_eq!(t.mp_group(0), vec![0, 1]);
        assert_eq!(t.ep_group(0), vec![0, 2, 4, 6]);
    }

    #[test]
    fn rejects_bad_dims() {
        assert!(HybridTopology::new(
            2,
            2,
            ParallelDims {
                dp: 3,
                mp: 2,
                ep: 2,
                esp: 2
            }
        )
        .is_err());
        assert!(HybridTopology::new(
            2,
            2,
            ParallelDims {
                dp: 2,
                mp: 2,
                ep: 3,
                esp: 2
            }
        )
        .is_err());
        assert!(HybridTopology::new(
            0,
            4,
            ParallelDims {
                dp: 1,
                mp: 1,
                ep: 1,
                esp: 1
            }
        )
        .is_err());
        // esp=3 straddles 4-gpu nodes unevenly
        assert!(HybridTopology::new(
            3,
            4,
            ParallelDims {
                dp: 3,
                mp: 4,
                ep: 4,
                esp: 3
            }
        )
        .is_err());
    }

    #[test]
    fn node_local_math() {
        let t = HybridTopology::new(
            3,
            4,
            ParallelDims {
                dp: 3,
                mp: 4,
                ep: 3,
                esp: 4,
            },
        )
        .unwrap();
        assert_eq!(t.world_size(), 12);
    }
}
