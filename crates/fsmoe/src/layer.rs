//! The composed MoE layer — one struct whatever the parallelism.
//!
//! [`MoeLayer`] wires the six sub-modules together exactly in the
//! paper's order (Fig. 1): gate → order → dispatch → expert → combine →
//! i-order, with the six hooks interleaved, in one body whatever the
//! world. A token's row in the order buffer is data on the [`Routing`]
//! (`row_base[expert] + slot`), so the only thing that depends on the
//! EP and ESP groups the topology assigns this rank is whether the
//! **exchange** between tokens and experts moves data:
//!
//! * when both groups hold one rank it is the identity: the routing is
//!   laid out pad-free in shard order ([`Routing::into_dense`]) and the
//!   order buffer *is* the experts' grouped input — no capacity padding,
//!   no collectives, under any placement. This is local execution, and
//!   the numerical reference every other world shape must match;
//! * otherwise it is the wire path of [`crate::dist`] (Fig. 2): the
//!   order buffer is born in wire block layout
//!   ([`Routing::into_placed`]) → AlltoAll(EP) → ESP-AllGather → expert
//!   shards → ESP-ReduceScatter → AlltoAll(EP) → i-order. Each block
//!   carries its row count, so the shards too compute pad-free — in
//!   place on the wire buffer — and the ESP collectives exist only when
//!   experts are sharded.
//!
//! A local layer is the same type built over a one-rank world
//! ([`Communicator::solo`] and `HybridTopology::flat(1)`).
//!
//! # Backward semantics
//!
//! The backward pass is hand-written (the paper implements
//! backpropagation manually so the backward phase can be scheduled
//! independently, §4.4). Gradients flow to the **expert weights and the
//! layer input through the expert path**; the gate's combine weights are
//! treated as constants (a stop-gradient router). This matches the
//! common practice of freezing/detaching router gradients in MoE systems
//! and keeps the reproduction's scheduling-relevant compute identical;
//! DESIGN.md records the simplification.

// The MoE layer's wire path never panics: failures flow as `CommError`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use collectives::{Communicator, GroupComm, HybridTopology};
use tensor::{Segments, Tensor, TensorRng};

use crate::config::MoeConfig;
use crate::dist::FaultPolicy;
use crate::expert::{build_expert, Expert};
use crate::gate::{ExpertChoiceGate, GShardGate, Gate, SigmoidGate, SoftMoeGate, XMoeGate};
use crate::grouped::{self, FfnState};
use crate::hooks::{MoeHooks, NoopHooks};
use crate::order::{combine_backward, order_backward, OrderFn, TutelOrdering};
use crate::reshard::ExpertMap;
use crate::routing::Routing;
use crate::{MoeError, Result};

/// Gradients produced by [`MoeLayer::backward`] on one rank.
#[derive(Debug, Clone)]
pub struct MoeGrads {
    /// Gradient with respect to this rank's input block.
    pub input: Tensor,
    /// Weight gradients for this rank's local expert shards.
    pub shards: Vec<Vec<Tensor>>,
}

#[derive(Debug)]
struct ForwardState {
    routing: Routing,
    compute: FfnState,
    /// The experts' rows the forward dispatch delivered (see `dist`).
    rows: Segments,
}

/// One rank's slice of a Mixture-of-Experts layer with swappable
/// sub-modules.
///
/// Expert placement follows the paper: expert `e` is hosted by EP
/// position `e / (E/N_EP)` — i.e. by one node — and sharded across that
/// node's ESP group. Every `(expert, shard)` pair lives on exactly one
/// GPU, so expert weights need no data-parallel gradient
/// synchronisation (the Gradient-AllReduce of §5 covers the *dense*
/// parameters, which are DP-replicated).
pub struct MoeLayer {
    pub(crate) config: MoeConfig,
    pub(crate) gate: Box<dyn Gate>,
    order: Box<dyn OrderFn>,
    /// ESP shards of this rank's local experts, in
    /// [`ExpertMap::experts_on`] order.
    pub(crate) shards: Vec<Box<dyn Expert>>,
    pub(crate) ep_group: GroupComm,
    pub(crate) esp_group: GroupComm,
    /// Which global expert lives at which EP position (block placement
    /// until a reshard installs something else).
    pub(crate) expert_map: ExpertMap,
    state: Option<ForwardState>,
    /// This rank's global rank (to tell "a peer died" from "I died").
    pub(crate) rank: usize,
    pub(crate) fault_policy: FaultPolicy,
    pub(crate) hooks: Box<dyn MoeHooks>,
    /// Token assignments dropped by graceful degradation since
    /// construction.
    pub(crate) dropped_tokens: usize,
}

impl std::fmt::Debug for MoeLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MoeLayer")
            .field("gate", &self.gate.name())
            .field("order", &self.order.name())
            .field("local_experts", &self.shards.len())
            .field("ep", &self.ep_group.size())
            .field("esp", &self.esp_group.size())
            .finish()
    }
}

impl MoeLayer {
    /// Assembles this rank's slice from explicit sub-modules — the fully
    /// flexible constructor (everything else is sugar over this).
    /// `experts` is the full set of `E` un-sharded experts, identical on
    /// every rank; the layer keeps its `(expert, shard)` slices.
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::BadConfig`] when the module set disagrees with
    /// the config (expert count, gate width), `E` does not divide by
    /// `N_EP`, or the hidden size does not divide by `N_ESP`.
    pub fn with_modules(
        config: &MoeConfig,
        gate: Box<dyn Gate>,
        order: Box<dyn OrderFn>,
        experts: Vec<Box<dyn Expert>>,
        hooks: Box<dyn MoeHooks>,
        comm: &Communicator,
        topo: &HybridTopology,
    ) -> Result<Self> {
        if gate.num_experts() != config.num_experts {
            return Err(MoeError::BadConfig {
                field: "gate",
                reason: format!(
                    "gate routes over {} experts, config has {}",
                    gate.num_experts(),
                    config.num_experts
                ),
            });
        }
        if experts.len() != config.num_experts {
            return Err(MoeError::BadConfig {
                field: "experts",
                reason: format!(
                    "{} experts provided, config needs {}",
                    experts.len(),
                    config.num_experts
                ),
            });
        }
        let ep_group = comm.subgroup(&topo.ep_group(comm.rank()))?;
        let esp_group = comm.subgroup(&topo.esp_group(comm.rank()))?;
        let expert_map = ExpertMap::block(config.num_experts, ep_group.size())?;
        let shards = expert_map
            .experts_on(ep_group.group_index())
            .iter()
            .map(|&e| experts[e].shard(esp_group.group_index(), esp_group.size()))
            .collect::<Result<_>>()?;
        Ok(MoeLayer {
            config: config.clone(),
            gate,
            order,
            shards,
            ep_group,
            esp_group,
            expert_map,
            state: None,
            rank: comm.rank(),
            fault_policy: FaultPolicy::default(),
            hooks,
            dropped_tokens: 0,
        })
    }

    /// A layer around an arbitrary gate, with default experts, ordering
    /// and hooks. `rng` must be in the same state on every rank (the
    /// expert weights are drawn from it).
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn with_gate(
        config: &MoeConfig,
        gate: Box<dyn Gate>,
        rng: &mut TensorRng,
        comm: &Communicator,
        topo: &HybridTopology,
    ) -> Result<Self> {
        let experts = (0..config.num_experts)
            .map(|_| build_expert(config.ffn, config.embed_dim, config.hidden_dim, rng))
            .collect();
        MoeLayer::with_modules(
            config,
            gate,
            Box::new(TutelOrdering::new()),
            experts,
            Box::new(NoopHooks),
            comm,
            topo,
        )
    }

    /// A layer with the GShard top-k gate. Every rank must pass the same
    /// `seed` (gate weights are replicated; experts are materialised
    /// identically everywhere before sharding).
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn gshard(
        config: &MoeConfig,
        comm: &Communicator,
        topo: &HybridTopology,
        seed: u64,
    ) -> Result<Self> {
        let mut rng = TensorRng::seed_from(seed);
        let gate = GShardGate::new(config.embed_dim, config.num_experts, config.top_k, &mut rng);
        MoeLayer::with_gate(config, Box::new(gate), &mut rng, comm, topo)
    }

    /// A layer with the sigmoid (BASE/StableMoE) gate.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn sigmoid(
        config: &MoeConfig,
        comm: &Communicator,
        topo: &HybridTopology,
        seed: u64,
    ) -> Result<Self> {
        let mut rng = TensorRng::seed_from(seed);
        let gate = SigmoidGate::new(config.embed_dim, config.num_experts, config.top_k, &mut rng);
        MoeLayer::with_gate(config, Box::new(gate), &mut rng, comm, topo)
    }

    /// A layer with the X-MoE cosine gate (low rank = M/4, min 2).
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn xmoe(
        config: &MoeConfig,
        comm: &Communicator,
        topo: &HybridTopology,
        seed: u64,
    ) -> Result<Self> {
        let mut rng = TensorRng::seed_from(seed);
        let low_rank = (config.embed_dim / 4).max(2);
        let gate = XMoeGate::new(
            config.embed_dim,
            low_rank,
            config.num_experts,
            config.top_k,
            &mut rng,
        );
        MoeLayer::with_gate(config, Box::new(gate), &mut rng, comm, topo)
    }

    /// A layer with the SoftMoE gate.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn softmoe(
        config: &MoeConfig,
        comm: &Communicator,
        topo: &HybridTopology,
        seed: u64,
    ) -> Result<Self> {
        let mut rng = TensorRng::seed_from(seed);
        let gate = SoftMoeGate::new(config.embed_dim, config.num_experts, config.top_k, &mut rng);
        MoeLayer::with_gate(config, Box::new(gate), &mut rng, comm, topo)
    }

    /// A layer with the expert-choice gate.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn expert_choice(
        config: &MoeConfig,
        comm: &Communicator,
        topo: &HybridTopology,
        seed: u64,
    ) -> Result<Self> {
        let mut rng = TensorRng::seed_from(seed);
        let gate = ExpertChoiceGate::new(config.embed_dim, config.num_experts, &mut rng);
        MoeLayer::with_gate(config, Box::new(gate), &mut rng, comm, topo)
    }

    /// The layer's configuration.
    pub fn config(&self) -> &MoeConfig {
        &self.config
    }

    /// The gate in use.
    pub fn gate(&self) -> &dyn Gate {
        self.gate.as_ref()
    }

    /// This rank's local expert shards (the full experts on a layer
    /// without ESP sharding), in [`ExpertMap::experts_on`] order.
    pub fn shards(&self) -> &[Box<dyn Expert>] {
        &self.shards
    }

    /// The active expert placement.
    pub fn expert_map(&self) -> &ExpertMap {
        &self.expert_map
    }

    /// Replaces the retry/degradation policy for dispatch collectives.
    pub fn set_fault_policy(&mut self, policy: FaultPolicy) {
        self.fault_policy = policy;
    }

    /// The active retry/degradation policy.
    pub fn fault_policy(&self) -> FaultPolicy {
        self.fault_policy
    }

    /// Installs an extension hook set.
    pub fn set_hooks(&mut self, hooks: Box<dyn MoeHooks>) {
        self.hooks = hooks;
    }

    /// Token assignments dropped by graceful degradation so far.
    pub fn dropped_tokens(&self) -> usize {
        self.dropped_tokens
    }

    /// The routing decision of the most recent forward pass.
    pub fn last_routing(&self) -> Option<&Routing> {
        self.state.as_ref().map(|s| &s.routing)
    }

    /// Discards the saved forward state (the weights or placement it
    /// was computed under are gone).
    pub(crate) fn clear_state(&mut self) {
        self.state = None;
    }

    /// Whether tokens reach every expert without leaving this rank —
    /// the one world-shape test of a pass.
    fn exchange_is_identity(&self) -> bool {
        self.ep_group.size() == 1 && self.esp_group.size() == 1
    }

    /// The dispatch exchange (in backward, the combine exchange's
    /// adjoint): order buffer → the buffer the local shards compute on
    /// and their rows in it (backward reuses the forward's, `saved`).
    fn exchange_in(
        &mut self,
        buffer: Tensor,
        routing: &Routing,
        saved: Option<&Segments>,
        policy: FaultPolicy,
        at_risk: &mut Option<usize>,
    ) -> Result<(Tensor, Segments)> {
        if self.exchange_is_identity() {
            return Ok((buffer, Segments::from_offsets(&routing.group_offsets())));
        }
        self.wire_in(buffer, routing, saved, policy, at_risk)
    }

    /// The combine exchange (in backward, the dispatch exchange's
    /// adjoint): the local shards' output rows, in the layout they were
    /// computed in → order buffer.
    fn exchange_out(
        &mut self,
        rows: Tensor,
        policy: FaultPolicy,
        at_risk: &mut Option<usize>,
    ) -> Result<Tensor> {
        if self.exchange_is_identity() {
            return Ok(rows);
        }
        self.wire_out(rows, policy, at_risk)
    }

    /// Runs the layer on this rank's `(tokens, M)` input block.
    ///
    /// On the wire path a dispatch or combine AlltoAll that stays
    /// unreachable under the [`FaultPolicy`] drops this forward's routed
    /// assignments (zero-fill, counted at most once — losing the same
    /// tokens on both legs is still one loss) rather than failing the
    /// step.
    ///
    /// # Errors
    ///
    /// Returns an error on a shape mismatch, a sub-module or hook
    /// failure, or a collective fault the policy does not absorb.
    ///
    /// # Panics
    ///
    /// Panics (in the collectives layer) if ranks disagree on the
    /// sequence of collectives — an SPMD violation.
    pub fn forward(&mut self, input: &Tensor, rng: &mut TensorRng) -> Result<Tensor> {
        if input.rank() != 2 || input.dims()[1] != self.config.embed_dim {
            return Err(MoeError::BadInput {
                expected: format!("(tokens, {})", self.config.embed_dim),
                actual: input.dims().to_vec(),
            });
        }
        let mut fwd_span = obs::span(obs::names::CAT_FSMOE, obs::names::SPAN_MOE_FORWARD);
        fwd_span.attr("rank", self.rank);
        let mut input = input.clone();
        self.hooks.before_moe_start(&mut input)?;

        let routing = {
            let _s = obs::span(obs::names::CAT_FSMOE, obs::names::SPAN_GATE);
            self.gate.route(&input, self.config.capacity(), rng)?
        };
        // pad-free groups when no row leaves this rank, wire slots else
        let routing = if self.exchange_is_identity() {
            routing.into_dense(&self.expert_map)
        } else {
            routing.into_placed(&self.expert_map)
        };
        if obs::is_enabled() {
            for &load in &routing.expert_loads() {
                obs::record_hist(obs::names::MOE_EXPERT_LOAD, load as f64);
            }
        }
        let mut at_risk = Some(routing.assignments().len());

        let mut buffer = self.order.order(&input, &routing)?;
        let dispatch_span = obs::span(obs::names::CAT_FSMOE, obs::names::SPAN_DISPATCH);
        self.hooks.before_dispatch(&mut buffer, &routing)?;
        let (mut x, rows) =
            self.exchange_in(buffer, &routing, None, self.fault_policy, &mut at_risk)?;
        self.hooks.after_dispatch(&mut x, &routing)?;
        drop(dispatch_span);

        let compute_span = obs::span(obs::names::CAT_FSMOE, obs::names::SPAN_EXPERT_COMPUTE);
        let (mut y, compute) = grouped::forward_experts(&self.shards, x, &rows)?;
        drop(compute_span);

        let combine_span = obs::span(obs::names::CAT_FSMOE, obs::names::SPAN_COMBINE);
        self.hooks.before_combine(&mut y, &routing)?;
        let mut combined = self.exchange_out(y, self.fault_policy, &mut at_risk)?;
        self.hooks.after_combine(&mut combined, &routing)?;
        let mut output = self.order.inverse(&combined, &routing)?;
        self.hooks.before_moe_end(&mut output)?;
        drop(combine_span);

        self.state = Some(ForwardState {
            routing,
            compute,
            rows,
        });
        Ok(output)
    }

    /// Backpropagates this rank's output gradient through the most
    /// recent forward pass, mirroring its exchange (the adjoint of
    /// AllGather is ReduceScatter and vice versa; AlltoAll is
    /// self-adjoint).
    ///
    /// Unlike [`MoeLayer::forward`], backward does *not* degrade on
    /// collective failure: a half-exchanged gradient would silently skew
    /// the update, so faults propagate as errors and recovery is the
    /// caller's job (checkpoint rollback, see `models::elastic`).
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::NoForwardState`] before any forward, shape
    /// errors when `grad_output` disagrees with the forward output, and
    /// propagates collective faults ([`MoeError::Comm`]).
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<MoeGrads> {
        let mut bwd_span = obs::span(obs::names::CAT_FSMOE, obs::names::SPAN_MOE_BACKWARD);
        bwd_span.attr("rank", self.rank);
        let state = self.state.take().ok_or(MoeError::NoForwardState)?;
        let result = self.backward_through(&state, grad_output);
        self.state = Some(state);
        result
    }

    fn backward_through(&mut self, state: &ForwardState, grad_output: &Tensor) -> Result<MoeGrads> {
        let strict = self.fault_policy.strict();
        let routing = &state.routing;
        // i-order adjoint, then the combine exchange's adjoint back to
        // the expert hosts
        let grad_combined = combine_backward(grad_output, routing)?;
        let saved = Some(&state.rows);
        let (grad_y, rows) = self.exchange_in(grad_combined, routing, saved, strict, &mut None)?;
        let (grad_x, shard_grads) =
            grouped::backward_experts(&self.shards, &grad_y, &state.compute, &rows)?;
        // dispatch exchange's adjoint back to the token sources, then
        // the order adjoint
        let grad_buffer = self.exchange_out(grad_x, strict, &mut None)?;
        let grad_input = order_backward(&grad_buffer, routing)?;
        Ok(MoeGrads {
            input: grad_input,
            shards: shard_grads,
        })
    }

    /// Applies SGD updates to the local shards.
    ///
    /// # Errors
    ///
    /// Returns an error when `grads` does not match the shard list.
    pub fn apply_grads(&mut self, grads: &MoeGrads, lr: f32) -> Result<()> {
        if grads.shards.len() != self.shards.len() {
            return Err(MoeError::BadInput {
                expected: format!("{} shard gradient sets", self.shards.len()),
                actual: vec![grads.shards.len()],
            });
        }
        for (shard, g) in self.shards.iter_mut().zip(&grads.shards) {
            shard.apply_grads(g, lr)?;
        }
        Ok(())
    }
}
