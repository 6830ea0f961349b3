//! The wire exchange of the MoE layer, and everything else on it that
//! calls a collective.
//!
//! When a [`MoeLayer`]'s EP or ESP group spans several ranks, tokens
//! reach their experts over the exact data flow of the paper's Fig. 2,
//! on real rank threads with real data movement:
//!
//! ```text
//! order → AlltoAll(EP) → ESP-AllGather → expert shard
//!       → ESP-ReduceScatter → AlltoAll(EP) → i-order
//! ```
//!
//! `MoeLayer::wire_in` is the first half (and, by adjointness, the
//! first half of backward), `MoeLayer::wire_out` the second. The
//! forward legs run under a [`FaultPolicy`]; the elastic operations —
//! collective checkpoint, restore, re-shard, migrate — live here too.
//!
//! The payload is fixed-size (`slots` blocks of `T + 1` rows per EP
//! position), but each block's header row carries its row count and the
//! experts compute on exactly the counted rows, where they lie: the
//! grouped GEMM reads each block's rows out of the gathered buffer and
//! writes the outputs at the same rows of the combine buffer
//! (`ShardLayout::segments`) — no row is gathered or scattered between
//! the wire and the experts. The ESP collectives are issued only when
//! the ESP group has several members.
//!
//! The equivalence suite asserts every world shape matches the one-rank
//! layer, whose exchange is the identity — distribution, like
//! scheduling, must never change the numbers.

// The MoE layer's wire path never panics: failures flow as `CommError`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::time::Duration;

use collectives::{CommError, Communicator, GroupComm, HybridTopology};
use tensor::{buf, Segments, Tensor, TensorRng};

use crate::checkpoint::LayerCheckpoint;
use crate::expert::{build_expert, Expert};
use crate::layer::MoeLayer;
use crate::reshard::ReshardPlan;
use crate::routing::Routing;
use crate::{MoeError, Result};

/// The one layer under the names it had while the distributed layer
/// was a type of its own.
pub use crate::layer::{MoeGrads as DistMoeGrads, MoeLayer as DistMoeLayer};

/// Retry/degradation policy for the EP-group AlltoAll collectives.
///
/// When a dispatch or combine AlltoAll fails with a *recoverable* fault
/// (a peer timed out or a peer other than this rank is down), the layer
/// retries up to `max_retries` times with bounded exponential backoff
/// and deterministic jitter (see [`FaultPolicy::backoff_for`]). If the
/// fault persists and `drop_on_failure` is set, the layer degrades
/// gracefully: the exchange's tokens are dropped (zero-filled, the
/// paper's capacity-drop semantics — dropped tokens ride the residual
/// path) and the per-layer drop counter plus the
/// [`MoeHooks::on_tokens_dropped`](crate::hooks::MoeHooks::on_tokens_dropped) hook record the loss, and the
/// abandoned exchange is skipped in the group's op stream
/// ([`collectives::GroupComm::skip_op`]) so a straggler's late deposit
/// for it fails with [`CommError::Abandoned`] instead of cross-wiring
/// into this rank's next collective. With `drop_on_failure` unset, the
/// layer propagates the error instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// How many times to re-enter a failed AlltoAll before giving up.
    pub max_retries: usize,
    /// Backoff before the first retry; attempt `k` waits
    /// `base_backoff · 2^(k−1)` before jitter.
    pub base_backoff: Duration,
    /// Degrade (drop tokens) instead of failing the whole layer.
    pub drop_on_failure: bool,
}

/// Ceiling on the un-jittered backoff — the exponential curve saturates
/// here instead of growing without bound.
#[expect(
    clippy::disallowed_methods,
    reason = "retry backoffs: a wait between attempts, not an op budget"
)]
const MAX_BACKOFF: Duration = Duration::from_millis(80);

/// Seed of the jitter stream: fixed, so runs replay exactly; the rank
/// salt decorrelates ranks.
const JITTER_SEED: u64 = 0x5EED;

impl Default for FaultPolicy {
    #[expect(
        clippy::disallowed_methods,
        reason = "retry backoffs: a wait between attempts, not an op budget"
    )]
    fn default() -> Self {
        FaultPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(5),
            drop_on_failure: true,
        }
    }
}

impl FaultPolicy {
    /// The wait before retry attempt `attempt` (1-based) on behalf of
    /// `salt` (callers pass their rank so ranks decorrelate).
    ///
    /// The un-jittered wait doubles per attempt from `base_backoff` and
    /// saturates at `MAX_BACKOFF`; it is then scaled by a deterministic
    /// jitter fraction in `[0.5, 1.0)` drawn from splitmix64 over
    /// `(JITTER_SEED, salt, attempt)`. Same policy, salt and attempt ⇒
    /// same wait, so fault-injection tests replay exactly; different
    /// ranks or attempts decorrelate, so retry stampedes spread out.
    pub fn backoff_for(&self, attempt: u32, salt: u64) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let shift = (attempt - 1).min(16);
        let raw = self
            .base_backoff
            .saturating_mul(1u32 << shift)
            .min(MAX_BACKOFF);
        let bits = splitmix64(
            JITTER_SEED ^ salt.rotate_left(17) ^ u64::from(attempt).wrapping_mul(0x9E37_79B9),
        );
        // 53 high bits → uniform fraction in [0, 1); map to [0.5, 1.0).
        let frac = 0.5 + ((bits >> 11) as f64) / ((1u64 << 53) as f64) * 0.5;
        raw.mul_f64(frac)
    }

    /// This policy with retry and degradation off — the backward pass,
    /// where a half-exchanged gradient must fail, not zero-fill.
    pub(crate) fn strict(self) -> Self {
        FaultPolicy {
            max_retries: 0,
            drop_on_failure: false,
            ..self
        }
    }
}

/// splitmix64: the standard 64-bit finalising mix — one multiply-xor
/// chain, deterministic, good avalanche. Used only for backoff jitter.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether a collective failure is worth retrying/degrading on this
/// rank. This rank being dead is terminal; so are poisoning, the
/// structural errors (bad buffers, SPMD violations), and the membership
/// signals — `Reconfigured`/`EvictConflict` must surface to the elastic
/// layer, never be retried or papered over by degradation.
fn recoverable(err: &CommError, self_rank: usize) -> bool {
    match err {
        CommError::Timeout { .. } | CommError::Abandoned { .. } => true,
        CommError::RankDown { rank } => *rank != self_rank,
        CommError::RankOutOfRange { .. }
        | CommError::InvalidGroup { .. }
        | CommError::NotAMember { .. }
        | CommError::BadBufferLength { .. }
        | CommError::BadParallelism { .. }
        | CommError::Poisoned { .. }
        | CommError::Reconfigured { .. }
        | CommError::EvictConflict { .. } => false,
    }
}

/// Runs one AlltoAll over `group` into `recv` under `policy`. `Ok(true)`
/// is a completed exchange; `Ok(false)` means the exchange was abandoned
/// after retries — the group's op stream is already advanced past it
/// ([`GroupComm::skip_op`]) so no later collective can rendezvous with
/// a straggler's stale deposit for it — and the caller must degrade by
/// zero-filling `recv`.
fn a2a_with_policy(
    group: &GroupComm,
    policy: FaultPolicy,
    self_rank: usize,
    data: &[f32],
    recv: &mut Vec<f32>,
) -> collectives::Result<bool> {
    let mut attempt = 0usize;
    loop {
        match group.all_to_all_into(data, recv) {
            Ok(()) => return Ok(true),
            Err(e) if recoverable(&e, self_rank) => {
                // `Abandoned` can never succeed on retry: the peers' op
                // stream has provably moved past this exchange.
                let retryable = !matches!(e, CommError::Abandoned { .. });
                if retryable && attempt < policy.max_retries {
                    attempt += 1;
                    std::thread::sleep(policy.backoff_for(attempt as u32, self_rank as u64));
                    continue;
                }
                if policy.drop_on_failure {
                    group.skip_op();
                    return Ok(false);
                }
                return Err(e);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Geometry of the gathered `[esp][ep][slot]` buffer of wire blocks.
///
/// A block is `T + 1` rows: a header row whose first element is the
/// block's row count, then `T` token rows, the first `count` occupied
/// ([`Routing::into_placed`](crate::routing::Routing::into_placed)).
/// Each EP position contributes `slots` blocks per source
/// ([`ExpertMap::slots_per_position`](crate::reshard::ExpertMap::slots_per_position));
/// this rank's `local_experts` occupy the leading ones, trailing pad
/// slots carry zeros and are never read.
///
/// The count's life cycle: the sender writes it after `before_dispatch`
/// ran (hooks see a zero header); the expert host reads it out of the
/// gathered buffer as the experts' row segments
/// ([`ShardLayout::segments`]) — `after_dispatch` sees the gathered
/// buffer, headers included, and the experts read their counted rows
/// where they lie and write their outputs at the same rows of a buffer
/// whose headers are zero again. The layer saves the segments with its
/// forward state for the backward to reuse. A zero-filled (degraded or
/// payload-dropped) block reads as count 0 — the capacity-drop
/// semantics.
#[derive(Clone, Copy)]
struct ShardLayout {
    m: usize,
    t: usize,
    n_esp: usize,
    n_ep: usize,
    slots: usize,
    local_experts: usize,
}

impl ShardLayout {
    /// Wire blocks each local expert receives (one per source rank).
    fn sources(&self) -> usize {
        self.n_esp * self.n_ep
    }

    /// Rows of the whole gathered buffer, pad slots included.
    fn gathered_rows(&self) -> usize {
        self.sources() * self.slots * (self.t + 1)
    }

    /// The experts' rows in the gathered buffer: per local expert, in
    /// `[esp][ep]` order, each source block's counted rows, one past its
    /// header. A count is a wire value, validated before anything is
    /// indexed by it.
    fn segments(self, gathered: &[f32]) -> Result<Segments> {
        let mut segments = Segments::new();
        for el in 0..self.local_experts {
            let runs = (0..self.sources()).map(|sp| {
                let header = (sp * self.slots + el) * (self.t + 1);
                let count = gathered[header * self.m];
                if count >= 0.0 && count <= self.t as f32 && count.fract() == 0.0 {
                    Ok((header + 1, count as usize))
                } else {
                    Err(MoeError::BadInput {
                        expected: format!("a wire block row count in 0..={}, got {count}", self.t),
                        actual: vec![header / (self.t + 1)],
                    })
                }
            });
            segments.push_group(runs.collect::<Result<Vec<_>>>()?);
        }
        Ok(segments)
    }
}

/// Splits one expert's flat wire weights back into tensors of `shapes`.
fn unflatten(flat: &[f32], shapes: &[Vec<usize>]) -> Result<Vec<Tensor>> {
    let mut off = 0usize;
    shapes
        .iter()
        .map(|dims| {
            let n: usize = dims.iter().product();
            off += n;
            Ok(Tensor::from_vec(flat[off - n..off].to_vec(), dims)?)
        })
        .collect()
}

impl MoeLayer {
    /// Records a degraded exchange: `count` token assignments fell back
    /// to the residual path.
    ///
    /// This is the **single write path** for drop accounting: the
    /// per-layer counter, the process-wide obs counters
    /// (`moe.dropped_tokens` / `moe.drop_events`) and the
    /// [`MoeHooks::on_tokens_dropped`](crate::hooks::MoeHooks::on_tokens_dropped)
    /// notification all fan out from here, so no two views of the
    /// account can diverge.
    fn record_drop(&mut self, count: usize) {
        self.dropped_tokens += count;
        obs::counter_add(obs::names::MOE_DROPPED_TOKENS, count as u64);
        obs::counter_add(obs::names::MOE_DROP_EVENTS, 1);
        self.hooks.on_tokens_dropped(count);
    }

    /// The row layout of the gathered buffer.
    fn shard_layout(&self) -> ShardLayout {
        ShardLayout {
            m: self.config.embed_dim,
            t: self.config.capacity(),
            n_esp: self.esp_group.size(),
            n_ep: self.ep_group.size(),
            slots: self.expert_map.slots_per_position(),
            local_experts: self.shards.len(),
        }
    }

    /// One AlltoAll over the EP group under `policy`, into a recycled
    /// buffer. An exchange the policy gives up on comes back zero-filled,
    /// and the assignments still `at_risk` this forward are recorded as
    /// dropped — taken, so a second lost leg does not count them again.
    fn ep_all_to_all(
        &mut self,
        data: &[f32],
        policy: FaultPolicy,
        at_risk: &mut Option<usize>,
    ) -> Result<Vec<f32>> {
        let mut recv = buf::take(data.len());
        if !a2a_with_policy(&self.ep_group, policy, self.rank, data, &mut recv)? {
            if let Some(count) = at_risk.take() {
                self.record_drop(count);
            }
            recv.clear();
            recv.resize(data.len(), 0.0);
        }
        Ok(recv)
    }

    /// Tokens to experts: the order buffer, in wire block layout
    /// ([`Routing::into_placed`](crate::routing::Routing::into_placed)) →
    /// AlltoAll(EP) → ESP-AllGather when experts are sharded → the
    /// gathered buffer itself and the local shards' rows in it. Forward
    /// (`saved: None`) writes each block's load into its header and
    /// reads the rows off the wire; backward runs its output-side
    /// gradients through the same legs (the combine exchange's adjoint),
    /// strict, on the rows the forward delivered (`saved`).
    pub(crate) fn wire_in(
        &mut self,
        mut buffer: Tensor,
        routing: &Routing,
        saved: Option<&Segments>,
        policy: FaultPolicy,
        at_risk: &mut Option<usize>,
    ) -> Result<(Tensor, Segments)> {
        let layout = self.shard_layout();
        if saved.is_none() {
            for (e, &load) in routing.expert_loads().iter().enumerate() {
                let header = self.expert_map.slot_of(e) * (layout.t + 1);
                buffer.data_mut()[header * layout.m] = load as f32;
            }
        }
        let mut gathered = self.ep_all_to_all(buffer.data(), policy, at_risk)?;
        // ESP-AllGather: replicate the node's token set to all shards.
        if layout.n_esp > 1 {
            let all = buf::take(layout.gathered_rows() * layout.m);
            let received = std::mem::replace(&mut gathered, all);
            self.esp_group.all_gather_into(&received, &mut gathered)?;
            buf::give(received);
        }
        let rows = match saved {
            Some(rows) => rows.clone(),
            None => layout.segments(&gathered)?,
        };
        let gathered = Tensor::from_vec(gathered, &[layout.gathered_rows(), layout.m])?;
        Ok((gathered, rows))
    }

    /// Experts to tokens, the mirror of [`MoeLayer::wire_in`]: the
    /// experts' output rows, already at their rows of the gathered
    /// layout (headers, uncounted rows and pad slots zero) →
    /// ESP-ReduceScatter when experts are sharded (sum the shard
    /// partials, keep our token slice) → AlltoAll(EP) (the transpose is
    /// its own inverse) → the order buffer, in the block layout it left
    /// in. Backward runs its input-side gradients through it (the
    /// dispatch exchange's adjoint).
    pub(crate) fn wire_out(
        &mut self,
        rows: Tensor,
        policy: FaultPolicy,
        at_risk: &mut Option<usize>,
    ) -> Result<Tensor> {
        let layout = self.shard_layout();
        let mut reduced = rows.into_vec();
        if layout.n_esp > 1 {
            let slice = buf::take(reduced.len() / layout.n_esp);
            let shard_out = std::mem::replace(&mut reduced, slice);
            self.esp_group
                .reduce_scatter_into(&shard_out, &mut reduced)?;
            buf::give(shard_out);
        }
        let combined = self.ep_all_to_all(&reduced, policy, at_risk)?;
        buf::give(reduced);
        let rows = combined.len() / layout.m;
        Ok(Tensor::from_vec(combined, &[rows, layout.m])?)
    }

    /// This rank's ESP shard of a `config.ffn` expert holding the full
    /// expert's `weights` verbatim.
    fn shard_from_weights(&self, weights: &[Tensor]) -> Result<Box<dyn Expert>> {
        // The build supplies the module structure; its random weights
        // are overwritten by the import, so the rng is a throwaway.
        let mut full = build_expert(
            self.config.ffn,
            self.config.embed_dim,
            self.config.hidden_dim,
            &mut TensorRng::seed_from(0),
        );
        full.import_weights(weights)?;
        full.shard(self.esp_group.group_index(), self.esp_group.size())
    }

    /// The flat wire form of one un-sharded local expert: its weight
    /// shapes and their total element count. All experts share one
    /// architecture, so every rank sizes wire buffers from any local
    /// expert.
    fn expert_wire_shapes(&self) -> (Vec<Vec<usize>>, usize) {
        let shapes: Vec<Vec<usize>> = self.shards[0]
            .weights()
            .iter()
            .map(|w| w.dims().to_vec())
            .collect();
        let total = shapes.iter().map(|d| d.iter().product::<usize>()).sum();
        (shapes, total)
    }

    /// Rebuilds this rank's gate and expert shards from a *full*
    /// checkpoint (all `E` experts), keeping only the experts the
    /// current [`ExpertMap`](crate::reshard::ExpertMap) places here, as
    /// `config.ffn` experts (a layer assembled from custom expert types
    /// does not keep them). Forward state is discarded.
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::BadInput`] when the checkpoint's gate family
    /// or expert count disagrees with the layer.
    pub fn restore_full(&mut self, checkpoint: &LayerCheckpoint) -> Result<()> {
        if checkpoint.gate_name != self.gate.name() {
            return Err(MoeError::BadInput {
                expected: format!("gate {:?}", self.gate.name()),
                actual: vec![checkpoint.gate_name.len()],
            });
        }
        if checkpoint.experts.len() != self.config.num_experts {
            return Err(MoeError::BadInput {
                expected: format!("{} expert weight sets", self.config.num_experts),
                actual: vec![checkpoint.experts.len()],
            });
        }
        self.gate.import_weights(&checkpoint.gate)?;
        let shards = self
            .expert_map
            .experts_on(self.ep_group.group_index())
            .iter()
            .map(|&e| self.shard_from_weights(&checkpoint.experts[e]))
            .collect::<Result<_>>()?;
        self.shards = shards;
        self.clear_state();
        Ok(())
    }

    /// Re-shards this rank's slice after a world reconfiguration:
    /// installs `plan`'s expert placement, rebinds the EP/ESP groups
    /// over the new communicator, and restores every locally hosted
    /// expert from `checkpoint`.
    ///
    /// The drop account ([`MoeLayer::dropped_tokens`]) survives the
    /// reshard — tokens lost before the eviction stay counted exactly
    /// once.
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::BadConfig`] when the plan disagrees with the
    /// layer config or the new topology, and propagates group-building
    /// and restore failures.
    pub fn reshard(
        &mut self,
        plan: &ReshardPlan,
        checkpoint: &LayerCheckpoint,
        comm: &Communicator,
        topo: &HybridTopology,
    ) -> Result<()> {
        if plan.map.num_experts() != self.config.num_experts {
            return Err(MoeError::BadConfig {
                field: "reshard_plan",
                reason: format!(
                    "plan places {} experts, layer has {}",
                    plan.map.num_experts(),
                    self.config.num_experts
                ),
            });
        }
        if plan.map.n_ep() != topo.dims().ep {
            return Err(MoeError::BadConfig {
                field: "reshard_plan",
                reason: format!(
                    "plan spans {} EP positions, topology has {}",
                    plan.map.n_ep(),
                    topo.dims().ep
                ),
            });
        }
        self.ep_group = comm.subgroup(&topo.ep_group(comm.rank()))?;
        self.esp_group = comm.subgroup(&topo.esp_group(comm.rank()))?;
        self.expert_map = plan.map.clone();
        self.rank = comm.rank();
        self.restore_full(checkpoint)
    }

    /// Migrates `expert` to EP position `to_pos` without an eviction:
    /// detect (the caller's job) → transfer → rebind.
    ///
    /// Every live rank of the world must call `migrate` with the same
    /// arguments, like any collective. The call:
    ///
    /// 1. validates the move and computes the new placement locally
    ///    (maps are SPMD-replicated, so every rank rejects a bad move
    ///    in lockstep before touching the network),
    /// 2. transfers the expert's weights from the source over a *world*
    ///    broadcast — every rank joins it, so it is also the move's one
    ///    rendezvous: no rank returns from it until every world member
    ///    has deposited, and no dispatch addressed to the old owner can
    ///    be in flight (the bytes are copied verbatim, so weights stay
    ///    bit-identical),
    /// 3. rebinds: installs the new `ExpertMap` everywhere and
    ///    drops stale forward state, so the next dispatch targets the
    ///    new owner.
    ///
    /// The world is **not** renumbered and no other expert moves.
    /// Because placement only re-bases rows, a migrated run computes
    /// bit-identically to the unmigrated one.
    ///
    /// Requires `N_ESP == 1` (un-sharded local experts) — the regime
    /// the elastic trainer runs in, same as
    /// [`MoeLayer::checkpoint_global`].
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::BadConfig`] under ESP sharding or for an
    /// invalid move (unknown expert, out-of-range or unchanged
    /// position, emptied source), and propagates broadcast failures as
    /// [`MoeError::Comm`]. The broadcast's outcome is shared, so a
    /// failed move fails on every rank and none installs the new map:
    /// a dead member gives [`CommError::RankDown`], a completed
    /// eviction [`CommError::Reconfigured`], a missing member past the
    /// deadline [`CommError::Timeout`].
    pub fn migrate(&mut self, expert: usize, to_pos: usize, comm: &Communicator) -> Result<()> {
        if self.esp_group.size() != 1 {
            return Err(MoeError::BadConfig {
                field: "esp",
                reason: format!(
                    "migrate needs un-sharded experts (N_ESP == 1), have {}",
                    self.esp_group.size()
                ),
            });
        }
        let new_map = self.expert_map.migrated(expert, to_pos)?;
        let from_pos = self.expert_map.position_of(expert);
        let from_rank = self.ep_group.ranks()[from_pos];
        let to_rank = self.ep_group.ranks()[to_pos];

        let mut span = obs::span(obs::names::CAT_FSMOE, obs::names::SPAN_ELASTIC_MIGRATE);
        span.attr("rank", self.rank);
        span.attr("expert", expert);
        span.attr("from", from_rank);
        span.attr("to", to_rank);

        // Transfer over a *world* broadcast rather than a pair
        // exchange: every rank shares the same collective outcome, so
        // a transfer fault cannot leave participants and bystanders
        // disagreeing about whether the new placement was installed.
        let (shapes, total) = self.expert_wire_shapes();
        let mut flat;
        let mut source_local = None;
        if self.rank == from_rank {
            let Some(local) = self
                .expert_map
                .experts_on(from_pos)
                .iter()
                .position(|&e| e == expert)
            else {
                return Err(MoeError::BadConfig {
                    field: "migrate",
                    reason: format!("expert {expert} missing from its own position"),
                });
            };
            source_local = Some(local);
            flat = Vec::with_capacity(total);
            for w in self.shards[local].weights() {
                flat.extend_from_slice(w.data());
            }
        } else {
            flat = vec![0.0f32; total];
        }
        comm.world_group().broadcast(from_rank, &mut flat)?;

        if let Some(local) = source_local {
            self.shards.remove(local);
        }
        if self.rank == to_rank {
            // The import is verbatim, so the transferred expert stays
            // bit-identical. `migrated` appends the expert to the
            // destination's list, so the new shard goes to the end of
            // ours.
            let weights = unflatten(&flat, &shapes)?;
            self.shards.push(self.shard_from_weights(&weights)?);
            obs::counter_add(obs::names::MOE_MIGRATIONS, 1);
        }
        self.expert_map = new_map;
        self.clear_state();
        Ok(())
    }

    /// Assembles the *full* layer checkpoint collectively: every rank
    /// contributes its local expert weights over an EP-group AllGather
    /// and all ranks return the same `E`-expert checkpoint (the gate is
    /// replicated, so it is exported locally).
    ///
    /// Requires `N_ESP == 1` (un-sharded local experts); the elastic
    /// trainer runs in exactly that regime.
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::BadConfig`] under ESP sharding, and
    /// propagates collective failures.
    pub fn checkpoint_global(&self) -> Result<LayerCheckpoint> {
        if self.esp_group.size() != 1 {
            return Err(MoeError::BadConfig {
                field: "esp",
                reason: format!(
                    "checkpoint_global needs un-sharded experts (N_ESP == 1), have {}",
                    self.esp_group.size()
                ),
            });
        }
        let (shapes, per_expert) = self.expert_wire_shapes();
        // The AllGather needs equal contributions, so under a
        // non-uniform placement every rank pads its flat weights to the
        // placement-wide slot count (the same padding the dispatch
        // AlltoAll uses).
        let slots = self.expert_map.slots_per_position();
        let mut flat = Vec::with_capacity(slots * per_expert);
        for shard in &self.shards {
            for w in shard.weights() {
                flat.extend_from_slice(w.data());
            }
        }
        flat.resize(slots * per_expert, 0.0);
        let gathered = self.ep_group.all_gather(&flat)?;

        let n_ep = self.ep_group.size();
        let mut experts: Vec<Vec<Tensor>> = vec![Vec::new(); self.config.num_experts];
        for p in 0..n_ep {
            let chunk = &gathered[p * flat.len()..(p + 1) * flat.len()];
            for (el, &e) in self.expert_map.experts_on(p).iter().enumerate() {
                experts[e] = unflatten(&chunk[el * per_expert..(el + 1) * per_expert], &shapes)?;
            }
        }
        Ok(LayerCheckpoint {
            gate_name: self.gate.name().to_string(),
            gate: self.gate.export_weights(),
            experts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One local expert of two slots, two sources, `T = 3`, `M = 2`.
    const LAYOUT: ShardLayout = ShardLayout {
        m: 2,
        t: 3,
        n_esp: 1,
        n_ep: 2,
        slots: 2,
        local_experts: 1,
    };

    fn gathered(count0: f32, count1: f32) -> Vec<f32> {
        let elems = LAYOUT.gathered_rows() * LAYOUT.m;
        let mut buffer: Vec<f32> = (0..elems).map(|i| i as f32).collect();
        buffer[0] = count0;
        buffer[2 * (LAYOUT.t + 1) * LAYOUT.m] = count1;
        buffer
    }

    #[test]
    fn counted_rows_become_segments_past_each_header() {
        let wire = gathered(3.0, 1.0);
        // block 0 rows 1..=3, then block 2 row 1; headers, the rows past
        // each count and the pad slot's blocks (1 and 3) belong to no run
        let segments = LAYOUT.segments(&wire).unwrap();
        assert_eq!(segments.groups(), 1);
        assert_eq!(segments.group(0), [(1, 3), (9, 1)]);
        // an identity expert reads them in place and writes them back at
        // the same rows, zeros everywhere else
        let rows = LAYOUT.gathered_rows();
        let x = Tensor::from_vec(wire.clone(), &[rows, 2]).unwrap();
        let y = x
            .matmul_segments(&[&Tensor::eye(2)], &segments, &segments, rows)
            .unwrap();
        for (i, &v) in y.data().iter().enumerate() {
            let kept = (2..8).contains(&i) || (18..20).contains(&i);
            assert_eq!(v, if kept { wire[i] } else { 0.0 }, "element {i}");
        }
    }

    #[test]
    fn a_corrupt_header_is_a_typed_error_not_an_index() {
        let empty = LAYOUT.segments(&gathered(-0.0, 0.0)).unwrap();
        assert_eq!(empty.group(0), [(1, 0), (9, 0)]);
        for bad in [f32::NAN, f32::INFINITY, -1.0, 0.5, 4.0, 1e30] {
            for wire in [gathered(bad, 1.0), gathered(1.0, bad)] {
                let err = LAYOUT.segments(&wire).unwrap_err();
                assert!(matches!(err, MoeError::BadInput { .. }), "{bad}: {err}");
            }
        }
    }
}
