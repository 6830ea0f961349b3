//! AlltoAll dispatch algorithms (the paper's *Dispatch*/*Combine*
//! sub-modules, §3.1).
//!
//! The paper pre-implements three AlltoAll algorithms behind one
//! interface so users can swap them "without impacting our scheduler":
//!
//! * [`NcclA2A`] — the default single-phase NCCL AlltoAll;
//! * [`Hier1DH`] — Hetu's 1-D hierarchical algorithm: an intra-node
//!   AllGather aggregates node-local traffic, one inter-node AlltoAll
//!   moves it, and a local selection finishes;
//! * [`Hier2DH`] — the Tutel/DeepSpeed 2-D hierarchical algorithm: an
//!   intra-node AlltoAll regroups messages by destination *local index*,
//!   then an inter-node AlltoAll delivers them, then a local permutation
//!   restores source order.
//!
//! All three deliver the identical permutation — the semantics tests
//! enforce equality with the direct algorithm — they differ only in which
//! links carry the bytes (which is what the cost model in the scheduler
//! crate prices).

use collectives::GroupComm;
use tensor::buf;

use crate::{MoeError, Result};

/// Process-group context a dispatcher runs over.
///
/// `ep_group` is the full expert-parallel group. The hierarchical
/// algorithms additionally need the intra-node slice (`intra`) and the
/// inter-node slice (`inter`) of that group; rank layout must satisfy
/// `ep_index = node_index · intra.size() + local_index`.
#[derive(Debug)]
pub struct DispatchCtx<'a> {
    /// The full EP group.
    pub ep_group: &'a GroupComm,
    /// Intra-node slice (same node, all locals). Required by 1DH/2DH.
    pub intra: Option<&'a GroupComm>,
    /// Inter-node slice (same local index, all nodes). Required by
    /// 1DH/2DH.
    pub inter: Option<&'a GroupComm>,
}

impl<'a> DispatchCtx<'a> {
    /// A context with only the flat EP group (direct algorithm only).
    pub fn flat(ep_group: &'a GroupComm) -> Self {
        DispatchCtx {
            ep_group,
            intra: None,
            inter: None,
        }
    }

    /// Advances every group in the context past one abandoned logical
    /// exchange (see [`GroupComm::skip_op`]).
    ///
    /// The degradation path calls this after giving up on an AlltoAll so
    /// this rank's *later* collectives on the same groups cannot
    /// rendezvous with a straggler's stale deposit for the abandoned one.
    /// A slice that spans the whole EP group (a one-node or
    /// one-GPU-per-node grid) shares the EP group's op stream, which
    /// advances once. For the flat algorithm this is exact (one skipped
    /// op on the EP group). For the hierarchical algorithms it is
    /// conservative: a sub-exchange that already completed before the
    /// failure is skipped too, which surfaces on a later exchange as a
    /// typed `CommError::Abandoned`/`Timeout` — a further degradation,
    /// never a silent cross-wire.
    pub fn skip_op(&self) {
        self.ep_group.skip_op();
        for g in [self.intra, self.inter].into_iter().flatten() {
            if g.ranks() != self.ep_group.ranks() {
                g.skip_op();
            }
        }
    }
}

/// An AlltoAll algorithm.
pub trait Dispatcher: std::fmt::Debug + Send {
    /// Short identifier used in logs and the scheduler's cost tables.
    fn name(&self) -> &'static str;

    /// Performs the AlltoAll permutation of `data` (which must divide
    /// evenly into `ep_group.size()` chunks) into `recv`, which is
    /// cleared and filled — a caller that passes a buffer of the right
    /// capacity allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns an error on bad buffer lengths or a missing sub-group for
    /// hierarchical algorithms.
    fn all_to_all(&self, data: &[f32], recv: &mut Vec<f32>, ctx: &DispatchCtx<'_>) -> Result<()>;
}

/// The default NCCL AlltoAll: one flat exchange over the EP group.
#[derive(Debug, Clone, Copy, Default)]
pub struct NcclA2A;

impl Dispatcher for NcclA2A {
    fn name(&self) -> &'static str {
        "nccl_a2a"
    }

    fn all_to_all(&self, data: &[f32], recv: &mut Vec<f32>, ctx: &DispatchCtx<'_>) -> Result<()> {
        Ok(ctx.ep_group.all_to_all_into(data, recv)?)
    }
}

fn hier_dims(ctx: &DispatchCtx<'_>) -> Result<(usize, usize, usize)> {
    let (Some(intra), Some(inter)) = (ctx.intra, ctx.inter) else {
        return Err(MoeError::BadConfig {
            field: "dispatch_ctx",
            reason: "hierarchical AlltoAll needs intra and inter groups".into(),
        });
    };
    let n1 = intra.size();
    let n2 = inter.size();
    if n1 * n2 != ctx.ep_group.size() {
        return Err(MoeError::BadConfig {
            field: "dispatch_ctx",
            reason: format!(
                "grid {n1}x{n2} does not cover EP group of {}",
                ctx.ep_group.size()
            ),
        });
    }
    Ok((n1, n2, ctx.ep_group.size()))
}

/// Hetu's 1-D hierarchical AlltoAll: AllGather within the node, one
/// inter-node AlltoAll, local extraction.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hier1DH;

impl Dispatcher for Hier1DH {
    fn name(&self) -> &'static str {
        "1dh_a2a"
    }

    fn all_to_all(&self, data: &[f32], recv: &mut Vec<f32>, ctx: &DispatchCtx<'_>) -> Result<()> {
        let (n1, _, n) = hier_dims(ctx)?;
        if !data.len().is_multiple_of(n) {
            return Err(MoeError::Comm(collectives::CommError::BadBufferLength {
                op: "1dh_a2a",
                len: data.len(),
                group_size: n,
            }));
        }
        let c = data.len() / n; // chunk size
        let intra = ctx.intra.expect("checked by hier_dims");
        let inter = ctx.inter.expect("checked by hier_dims");
        let my_local = intra.group_index();

        // Phase 1: intra-node AllGather — every GPU of the node now holds
        // the full node payload (n1 ranks × n chunks).
        let mut gathered = buf::take(n1 * n * c);
        intra.all_gather_into(data, &mut gathered)?;

        // Phase 2: inter-node AlltoAll among same-local peers. To node
        // j' we send, for every source local i'' of our node, the chunk
        // destined to EP rank (j', my_local).
        let mut send = buf::take(n * c);
        for (slot, chunk) in send.chunks_mut(c.max(1)).enumerate() {
            let (dst_node, src_local) = (slot / n1, slot % n1);
            let base = src_local * n * c + (dst_node * n1 + my_local) * c;
            chunk.copy_from_slice(&gathered[base..base + c]);
        }
        buf::give(gathered);
        // From node j'' come its n1 chunks for me, so `recv` is already
        // ordered by source EP rank (node-major × local-minor).
        inter.all_to_all_into(&send, recv)?;
        buf::give(send);
        Ok(())
    }
}

/// The Tutel/DeepSpeed-MoE 2-D hierarchical AlltoAll.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hier2DH;

impl Dispatcher for Hier2DH {
    fn name(&self) -> &'static str {
        "2dh_a2a"
    }

    fn all_to_all(&self, data: &[f32], recv: &mut Vec<f32>, ctx: &DispatchCtx<'_>) -> Result<()> {
        let (n1, n2, n) = hier_dims(ctx)?;
        if !data.len().is_multiple_of(n) {
            return Err(MoeError::Comm(collectives::CommError::BadBufferLength {
                op: "2dh_a2a",
                len: data.len(),
                group_size: n,
            }));
        }
        let c = data.len() / n;
        let intra = ctx.intra.expect("checked by hier_dims");
        let inter = ctx.inter.expect("checked by hier_dims");

        // Phase 1: intra-node AlltoAll grouped by destination local
        // index. To local peer i' send the n2 chunks destined to
        // (j', i') for every node j'.
        let mut send = buf::take(n * c);
        for (slot, chunk) in send.chunks_mut(c.max(1)).enumerate() {
            let (dst_local, dst_node) = (slot / n2, slot % n2);
            let dst_rank = dst_node * n1 + dst_local;
            chunk.copy_from_slice(&data[dst_rank * c..(dst_rank + 1) * c]);
        }
        // After this exchange we hold, from each source local i'', its n2
        // chunks destined to our local index on every node:
        // [src_local][dst_node] chunks.
        let mut recv1 = buf::take(n * c);
        intra.all_to_all_into(&send, &mut recv1)?;

        // Phase 2: inter-node AlltoAll grouped by destination node. To
        // node j' send, from every source local, its chunk for (j',
        // our local index).
        for (slot, chunk) in send.chunks_mut(c.max(1)).enumerate() {
            let (dst_node, src_local) = (slot / n1, slot % n1);
            let base = (src_local * n2 + dst_node) * c;
            chunk.copy_from_slice(&recv1[base..base + c]);
        }
        buf::give(recv1);
        // [src_node][src_local] chunks: already ordered by source EP
        // rank (node-major × local-minor = global EP order).
        inter.all_to_all_into(&send, recv)?;
        buf::give(send);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::run_ranks;

    /// Runs a dispatcher on a 2-node × 2-GPU grid and returns per-rank
    /// outputs, alongside the direct algorithm's outputs.
    fn compare_on_grid(dispatcher: &'static (dyn Dispatcher + Sync)) {
        let results = run_ranks(4, move |comm| {
            let all: Vec<usize> = (0..4).collect();
            let ep = comm.subgroup(&all).unwrap();
            let r = comm.rank();
            let node = r / 2;
            let local = r % 2;
            let intra = comm.subgroup(&[node * 2, node * 2 + 1]).unwrap();
            let inter = comm.subgroup(&[local, local + 2]).unwrap();
            // chunk size 3: value encodes (src, dst, lane)
            let data: Vec<f32> = (0..4)
                .flat_map(|dst| (0..3).map(move |lane| (r * 100 + dst * 10 + lane) as f32))
                .collect();
            let (mut direct, mut hier) = (Vec::new(), Vec::new());
            NcclA2A
                .all_to_all(&data, &mut direct, &DispatchCtx::flat(&ep))
                .unwrap();
            let ctx = DispatchCtx {
                ep_group: &ep,
                intra: Some(&intra),
                inter: Some(&inter),
            };
            dispatcher.all_to_all(&data, &mut hier, &ctx).unwrap();
            (direct, hier)
        });
        for (rank, (direct, hier)) in results.into_iter().enumerate() {
            assert_eq!(direct, hier, "rank {rank} mismatch for hierarchical a2a");
        }
    }

    #[test]
    fn hier_1dh_matches_direct() {
        static D: Hier1DH = Hier1DH;
        compare_on_grid(&D);
    }

    #[test]
    fn hier_2dh_matches_direct() {
        static D: Hier2DH = Hier2DH;
        compare_on_grid(&D);
    }

    #[test]
    fn hierarchical_requires_subgroups() {
        let results = run_ranks(2, |comm| {
            let ep = comm.world_group();
            let ctx = DispatchCtx::flat(&ep);
            let data = vec![0.0; 4];
            let mut recv = Vec::new();
            (
                Hier1DH.all_to_all(&data, &mut recv, &ctx).is_err(),
                Hier2DH.all_to_all(&data, &mut recv, &ctx).is_err(),
            )
        });
        for (a, b) in results {
            assert!(a && b);
        }
    }

    #[test]
    fn names() {
        assert_eq!(NcclA2A.name(), "nccl_a2a");
        assert_eq!(Hier1DH.name(), "1dh_a2a");
        assert_eq!(Hier2DH.name(), "2dh_a2a");
    }
}
