//! The trainer: snapshot, roll back, and survive *permanent* rank loss.
//!
//! [`ElasticTrainer`] drives [`MoeTransformer::train_step`] — the model
//! owns the step; the trainer owns what surrounds it — over a model of
//! any depth and world size, snapshotting every `snapshot_interval`
//! steps: the model's full checkpoint *and* the routing RNG, both
//! needed for exact replay because gates consume randomness every
//! step. A step that fails leaves weights and RNG in partial state;
//! what happens next depends on the fault:
//!
//! * a fault with no dead peer to blame (this rank's own link, a
//!   corrupted step) propagates, and the caller rolls the trainer back
//!   in place with [`ElasticTrainer::rollback`]: weights, RNG stream and
//!   step counter return to the snapshot and the loop replays from
//!   there;
//! * a fault blamed on a dead peer — in the step, the snapshot or the
//!   health check — drives the elastic pipeline:
//!
//!   1. **blame** — classify the fault onto a dead peer
//!      ([`CommError::RankDown`] names it; timeouts and abandoned ops
//!      are pinned on any peer already known dead);
//!   2. **evict** — survivors agree via
//!      [`Communicator::propose_evict`], which bumps the membership
//!      epoch and fences the old world;
//!   3. **reconfigure** — each survivor rebinds into the shrunken world
//!      ([`Communicator::reconfigured`]) with contiguous ranks;
//!   4. **re-shard** — in every block the dead rank's experts are dealt
//!      round-robin across the survivors ([`ReshardPlan::round_robin`]);
//!   5. **roll back** — the same rollback, restoring every survivor's
//!      (new) expert set from the last snapshot.
//!
//! Placement is per block (expert map, eviction deal); fleet state —
//! health monitor, quarantine set, eviction count, snapshot clock,
//! route RNG — is one.
//!
//! The property that makes this trustworthy (pinned by the recovery and
//! elastic tests): a run that faults and rolls back ends with weights
//! **bit-identical** to a run that never faulted, and a 4-rank run that
//! permanently loses a rank finishes bit-identical to a fresh 3-rank
//! run started from the same snapshot. Expert placement is pure data
//! movement, so the survivors' answer is *the* answer.
//!
//! Snapshots are collective ([`MoeTransformer::checkpoint_global`]):
//! all ranks assemble the full expert set, so any survivor subset can
//! restore any expert. Rank 0 also persists each snapshot to disk when
//! a checkpoint directory is configured; rollback prefers the on-disk
//! copy (the restart path) but falls back to the in-memory snapshot —
//! with a typed error recorded, never a panic or silent zero weights —
//! when the file is missing, truncated, NaN-bearing, or disagrees with
//! memory.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use collectives::{CommError, Communicator, HybridTopology};
use fsmoe::checkpoint::ModelCheckpoint;
use fsmoe::reshard::ReshardPlan;
use fsmoe::{MoeError, Result};
use simnet::{price_gray_failure, GrayFailureCost};
use tensor::{Tensor, TensorRng};

use crate::block::MoeTransformer;
use crate::health::{drain_decision, HealthAction, HealthMonitor, HealthPolicy, MigrationDecision};

/// Evictions survived before a blamable failure propagates instead.
const MAX_EVICTIONS: usize = 1;

/// Deadline for the eviction vote itself (longer than the op deadline —
/// survivors may reach the vote at different times).
#[expect(
    clippy::disallowed_methods,
    reason = "the eviction vote's own deadline, one fixed protocol constant"
)]
const VOTE_DEADLINE: Duration = Duration::from_secs(5);

/// A consistent distributed snapshot: everything exact replay needs.
#[derive(Debug, Clone)]
struct ElasticSnapshot {
    step: usize,
    checkpoint: ModelCheckpoint,
    route_rng: TensorRng,
}

/// A fault-tolerant distributed training loop that survives permanent
/// rank loss by evict → reconfigure → re-shard → restore → resume.
#[derive(Debug)]
pub struct ElasticTrainer {
    comm: Communicator,
    model: MoeTransformer,
    /// Snapshot every this many steps (the rollback granularity).
    snapshot_interval: usize,
    route_rng: TensorRng,
    step: usize,
    snapshot: ElasticSnapshot,
    checkpoint_dir: Option<PathBuf>,
    evictions: usize,
    last_fallback: Option<MoeError>,
    migrations: usize,
    /// The gray-failure defense, when armed: the monitor and the
    /// horizon (steps) its last rung's pricing amortizes over.
    health: Option<(HealthMonitor, usize)>,
    /// EP positions currently quarantined (ascending, fleet-identical).
    quarantined: Vec<usize>,
    quarantines: usize,
}

impl ElasticTrainer {
    /// Wraps `model`, built over `comm`'s flat topology, and takes the
    /// initial collective snapshot (all ranks must call together). A
    /// snapshot is then taken every `snapshot_interval` steps: the
    /// rollback granularity.
    ///
    /// # Errors
    ///
    /// Propagates snapshot failures.
    pub fn new(
        model: MoeTransformer,
        comm: Communicator,
        route_rng: TensorRng,
        snapshot_interval: usize,
    ) -> Result<Self> {
        let snapshot = ElasticSnapshot {
            step: 0,
            checkpoint: model.checkpoint_global()?,
            route_rng: route_rng.clone(),
        };
        Ok(ElasticTrainer {
            comm,
            model,
            snapshot_interval,
            snapshot,
            route_rng,
            step: 0,
            checkpoint_dir: None,
            evictions: 0,
            last_fallback: None,
            migrations: 0,
            health: None,
            quarantined: Vec::new(),
            quarantines: 0,
        })
    }

    /// A trainer that *resumes* `model` from `checkpoint` at `step` —
    /// the fresh-world half of the bit-identity property: a new, smaller
    /// world starting from the snapshot a shrunken run rolled back to.
    /// Collective like [`Self::new`], whose initial snapshot it takes
    /// once the weights are in.
    ///
    /// # Errors
    ///
    /// Propagates restore and snapshot failures.
    pub fn resume(
        mut model: MoeTransformer,
        comm: Communicator,
        checkpoint: &ModelCheckpoint,
        route_rng: TensorRng,
        step: usize,
        snapshot_interval: usize,
    ) -> Result<Self> {
        model.restore_full(checkpoint)?;
        let mut trainer = Self::new(model, comm, route_rng, snapshot_interval)?;
        trainer.step = step;
        trainer.snapshot.step = step;
        Ok(trainer)
    }

    /// Also persists snapshots to `dir` (rank 0 writes, atomically) and
    /// prefers the on-disk copy during recovery.
    #[must_use]
    pub fn with_checkpoint_dir(mut self, dir: PathBuf) -> Self {
        self.checkpoint_dir = Some(dir);
        self
    }

    /// Arms the gray-failure defense: after every completed step the
    /// per-rank self times (step wall time minus blocked-rendezvous
    /// wait) are all-reduced and fed to a [`HealthMonitor`] over this
    /// world walking `policy`'s ladder — log, quarantine (hot experts
    /// drain off the slow rank through eviction-free migrations,
    /// [`fsmoe::layer::MoeLayer::migrate`]), and finally a *live*
    /// eviction once keep-limping-vs-evict over `horizon_steps` prices
    /// eviction cheaper ([`Self::price_eviction`]).
    ///
    /// SPMD: every rank must pass an identical `policy` and horizon, or
    /// ranks walk different ladders and the vote never converges.
    #[must_use]
    pub fn with_health(mut self, policy: HealthPolicy, horizon_steps: usize) -> Self {
        let monitor = HealthMonitor::new(self.comm.world_size(), policy);
        self.health = Some((monitor, horizon_steps));
        self
    }

    /// The health monitor, when armed (scores reflect the last step).
    pub fn health(&self) -> Option<&HealthMonitor> {
        self.health.as_ref().map(|(monitor, _)| monitor)
    }

    /// EP positions currently quarantined, ascending.
    pub fn quarantined(&self) -> &[usize] {
        &self.quarantined
    }

    /// Quarantine escalations taken so far.
    pub fn quarantines(&self) -> usize {
        self.quarantines
    }

    /// Eviction-free expert migrations completed so far.
    pub fn migrations(&self) -> usize {
        self.migrations
    }

    /// The wrapped model.
    pub fn model(&self) -> &MoeTransformer {
        &self.model
    }

    /// The current communicator (replaced on reconfiguration).
    pub fn comm(&self) -> &Communicator {
        &self.comm
    }

    /// Steps completed (rolled back on recovery).
    pub fn step(&self) -> usize {
        self.step
    }

    /// The step of the latest snapshot.
    pub fn last_snapshot_step(&self) -> usize {
        self.snapshot.step
    }

    /// Evictions survived so far.
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// The routing RNG as of now (cloned; used by the bit-identity
    /// tests to seed a fresh-world resume).
    pub fn route_rng(&self) -> TensorRng {
        self.route_rng.clone()
    }

    /// The typed error behind the most recent disk-checkpoint fallback,
    /// if recovery ever had to distrust the on-disk copy.
    pub fn last_fallback(&self) -> Option<&MoeError> {
        self.last_fallback.as_ref()
    }

    fn snapshot_path(&self, step: usize) -> Option<PathBuf> {
        self.checkpoint_dir
            .as_ref()
            .map(|d| d.join(format!("elastic-step-{step}.json")))
    }

    fn maybe_snapshot(&mut self) -> Result<()> {
        // The second guard skips re-snapshotting the step just rolled
        // back to.
        if !self.step.is_multiple_of(self.snapshot_interval) || self.step == self.snapshot.step {
            return Ok(());
        }
        let mut span = obs::span(obs::names::CAT_MODELS, obs::names::SPAN_SNAPSHOT);
        span.attr("step", self.step);
        let checkpoint = self.model.checkpoint_global()?;
        if self.comm.rank() == 0 {
            if let Some(path) = self.snapshot_path(self.step) {
                checkpoint.save(&path)?;
            }
        }
        self.snapshot = ElasticSnapshot {
            step: self.step,
            checkpoint,
            route_rng: self.route_rng.clone(),
        };
        Ok(())
    }

    /// Pins a step failure on a dead peer, if the fault is the kind a
    /// dead peer causes. `RankDown` names the culprit directly; a
    /// timeout, abandoned exchange, poisoned group, or fenced world is
    /// blamed on any peer already known dead. Everything else (shape
    /// errors, local faults) is unblamable and propagates.
    fn blame(&self, err: &MoeError) -> Option<usize> {
        let comm_err = match err {
            MoeError::Comm(e) => e,
            MoeError::BadConfig { .. }
            | MoeError::BadInput { .. }
            | MoeError::NoForwardState
            | MoeError::Tensor(_)
            | MoeError::CheckpointIo { .. }
            | MoeError::CorruptCheckpoint { .. } => return None,
        };
        match comm_err {
            CommError::RankDown { rank } if *rank != self.comm.rank() => Some(*rank),
            CommError::Timeout { .. }
            | CommError::Abandoned { .. }
            | CommError::Poisoned { .. }
            | CommError::Reconfigured { .. } => {
                (0..self.comm.world_size()).find(|&r| r != self.comm.rank() && self.comm.is_dead(r))
            }
            // This rank itself is down, a lost eviction race, or a
            // structural/config error: no peer to blame, propagate.
            CommError::RankDown { .. }
            | CommError::EvictConflict { .. }
            | CommError::RankOutOfRange { .. }
            | CommError::InvalidGroup { .. }
            | CommError::NotAMember { .. }
            | CommError::BadBufferLength { .. }
            | CommError::BadParallelism { .. } => None,
        }
    }

    /// Loads the recovery checkpoint, preferring the on-disk snapshot.
    /// A truncated, NaN-bearing, missing, or memory-disagreeing file
    /// records a typed fallback (and the `elastic.checkpoint_fallbacks`
    /// counter) and yields the in-memory snapshot instead — recovery
    /// never panics on a bad file and never restores garbage.
    fn load_recovery_checkpoint(&mut self) -> ModelCheckpoint {
        if let Some(path) = self.snapshot_path(self.snapshot.step) {
            if path.exists() {
                match ModelCheckpoint::load(&path) {
                    Ok(ck) if ck == self.snapshot.checkpoint => return ck,
                    Ok(_) => self.note_fallback(MoeError::CorruptCheckpoint {
                        reason: format!(
                            "on-disk snapshot for step {} disagrees with memory",
                            self.snapshot.step
                        ),
                    }),
                    Err(e) => self.note_fallback(e),
                }
            }
        }
        self.snapshot.checkpoint.clone()
    }

    fn note_fallback(&mut self, err: MoeError) {
        obs::counter_add(obs::names::ELASTIC_CHECKPOINT_FALLBACKS, 1);
        self.last_fallback = Some(err);
    }

    /// Rolls back to the latest snapshot in place: weights, routing RNG
    /// stream and step counter. Returns the step training resumes from;
    /// replay from there is bit-identical to a run that never faulted.
    ///
    /// Purely local (no collective): after a fault every rank saw, every
    /// rank calls it. The weights come from the on-disk snapshot when a
    /// valid one exists (the path a restarted process would take), else
    /// from memory — see [`ElasticTrainer::last_fallback`].
    ///
    /// # Errors
    ///
    /// Propagates restore failures (a snapshot always matches the model
    /// it was taken from, so none are expected).
    pub fn rollback(&mut self) -> Result<usize> {
        self.rollback_with(|model, checkpoint| model.restore_full(checkpoint))
    }

    /// The rollback body; `restore` installs the recovery checkpoint
    /// into the model (in place, or onto a new placement).
    fn rollback_with(
        &mut self,
        restore: impl FnOnce(&mut MoeTransformer, &ModelCheckpoint) -> Result<()>,
    ) -> Result<usize> {
        let mut span = obs::span(obs::names::CAT_MODELS, obs::names::SPAN_RECOVER);
        span.attr("to_step", self.snapshot.step);
        let checkpoint = self.load_recovery_checkpoint();
        restore(&mut self.model, &checkpoint)?;
        self.route_rng = self.snapshot.route_rng.clone();
        self.step = self.snapshot.step;
        Ok(self.step)
    }

    /// The full elastic pipeline: evict `victim`, rebind into the
    /// shrunken world, deal its experts across the survivors, and roll
    /// back onto the new placement. The health ladder restarts on the
    /// new world: old-world scores and quarantines name old ranks.
    fn recover_from_eviction(&mut self, victim: usize) -> Result<()> {
        let mut span = obs::span(obs::names::CAT_MODELS, obs::names::SPAN_ELASTIC_RECONFIGURE);
        span.attr("victim", victim);
        span.attr("from_step", self.step);
        let mut vote_comm = self.comm.clone();
        vote_comm.set_deadline(Some(VOTE_DEADLINE));
        let epoch = match vote_comm.propose_evict(victim) {
            Ok(epoch) => epoch,
            // Another handle already drove the world past us — rebind.
            Err(CommError::Reconfigured { epoch }) => epoch,
            Err(e) => return Err(MoeError::Comm(e)),
        };
        let new_comm = self.comm.reconfigured().map_err(MoeError::Comm)?;
        span.attr("epoch", epoch);
        span.attr("survivors", new_comm.world_size());
        // Flat topology: the evicted rank IS the evicted EP position.
        // The deal may be uneven on the gray-failure path: a
        // quarantine drain thins the victim's list before eviction, so
        // its orphan count rarely divides over the survivors.
        let plans = self
            .model
            .blocks()
            .iter()
            .map(|b| ReshardPlan::round_robin(b.moe().expert_map(), victim))
            .collect::<Result<Vec<_>>>()?;
        let topo = HybridTopology::flat(new_comm.world_size())?;
        self.rollback_with(|model, checkpoint| {
            model.reshard(&plans, checkpoint, &new_comm, &topo)
        })?;
        if let Some((monitor, _)) = self.health.as_mut() {
            monitor.reset(new_comm.world_size());
        }
        self.quarantined.clear();
        self.comm = new_comm;
        self.evictions += 1;
        Ok(())
    }

    /// Executes a migration in `block`. A failed move installs nothing
    /// anywhere (its world broadcast fails on every rank), and its error
    /// takes the step-error path: [`Self::blame`], then eviction.
    fn apply_migration(&mut self, block: usize, decision: MigrationDecision) -> Result<()> {
        self.model
            .layer_mut(block)
            .migrate(decision.expert, decision.to, &self.comm)?;
        self.migrations += 1;
        Ok(())
    }

    /// Fleet-wide expert loads per block, identical on every rank: one
    /// all-reduce over the concatenated per-block loads. `None` unless
    /// every block holds a routing (a migration drops its block's).
    fn fleet_loads(&self) -> Result<Option<Vec<Vec<f64>>>> {
        let routings: Option<Vec<_>> = self
            .model
            .blocks()
            .iter()
            .map(|b| b.moe().last_routing())
            .collect();
        let Some(routings) = routings else {
            return Ok(None);
        };
        let mut local: Vec<f32> = routings
            .iter()
            .flat_map(|r| r.expert_loads())
            .map(|l| l as f32)
            .collect();
        self.comm
            .world_group()
            .all_reduce(&mut local)
            .map_err(MoeError::Comm)?;
        let mut rest = local.as_slice();
        let per_block = routings.iter().map(|r| {
            let (loads, tail) = rest.split_at(r.num_experts());
            rest = tail;
            loads.iter().map(|&l| f64::from(l)).collect()
        });
        Ok(Some(per_block.collect()))
    }

    /// In every block, drains one hot expert off the lowest quarantined
    /// position onto the least-loaded healthy one ([`drain_decision`]).
    fn drain_quarantined(&mut self) -> Result<()> {
        let Some(loads) = self.fleet_loads()? else {
            return Ok(());
        };
        for (block, loads) in loads.iter().enumerate() {
            let map = self.model.blocks()[block].moe().expert_map();
            if let Some(decision) = drain_decision(map, loads, &self.quarantined) {
                self.apply_migration(block, decision)?;
            }
        }
        Ok(())
    }

    /// The post-step health check: all-reduce per-rank self times so
    /// every rank scores the identical vector, then walk the ladder on
    /// the monitor's verdict. Runs only when health is armed, and every
    /// branch is SPMD-deterministic.
    ///
    /// The ladder's last rung prices keep-limping vs evict
    /// ([`Self::price_eviction`]), and evicts the live-but-slow rank
    /// only when the arithmetic says so. Every pricing input is
    /// fleet-identical (all-reduced scores and medians, the shared
    /// model), so all ranks decide alike.
    ///
    /// Returns whether a live slow rank was evicted (the clock rolled
    /// back: replay), and `Err(RankDown{me})` when *this* rank is the
    /// priced-out victim: peers evict it, and the canonical self-down
    /// error tells the caller to stop stepping — exactly what a dead
    /// rank's caller sees.
    fn maybe_check_health(&mut self, self_us: f64) -> Result<bool> {
        let Some((monitor, horizon_steps)) = self.health.as_mut() else {
            return Ok(false);
        };
        let horizon_steps = *horizon_steps;
        let me = self.comm.rank();
        let mut v = vec![0.0f32; self.comm.world_size()];
        v[me] = self_us as f32;
        self.comm
            .world_group()
            .all_reduce(&mut v)
            .map_err(MoeError::Comm)?;
        let times: Vec<f64> = v.iter().map(|&t| f64::from(t)).collect();
        let action = monitor.observe(&times);
        let healthy_step_ms = monitor.median_self_us() / 1e3;
        match action {
            None | Some(HealthAction::Log { .. }) => Ok(false),
            Some(HealthAction::Quarantine { rank, .. }) => {
                if !self.quarantined.contains(&rank) {
                    self.quarantined.push(rank);
                    self.quarantined.sort_unstable();
                    self.quarantines += 1;
                }
                self.drain_quarantined()?;
                Ok(false)
            }
            Some(HealthAction::EvictCandidate { rank, score }) => {
                let cost = self.price_eviction(rank, healthy_step_ms, score, horizon_steps);
                if !cost.eviction_wins() || self.evictions >= MAX_EVICTIONS {
                    if let Some((monitor, _)) = self.health.as_mut() {
                        monitor.defer();
                    }
                    return Ok(false);
                }
                obs::counter_add(obs::names::HEALTH_EVICTIONS, 1);
                if rank == me {
                    return Err(MoeError::Comm(CommError::RankDown { rank }));
                }
                self.recover_from_eviction(rank)?;
                Ok(true)
            }
        }
    }

    /// Prices keep-limping vs evicting `victim`, whose health score is
    /// `slowdown`, over `horizon_steps`
    /// ([`simnet::price_gray_failure`]). The sizes come from state every
    /// rank holds identically, at 4 bytes a parameter: the snapshot
    /// every survivor reloads, and the victim's experts summed over
    /// blocks (flat topology: the victim's rank is its EP position). The
    /// rollback would replay the steps since that snapshot.
    fn price_eviction(
        &self,
        victim: usize,
        healthy_step_ms: f64,
        slowdown: f64,
        horizon_steps: usize,
    ) -> GrayFailureCost {
        let bytes = |params: usize| (params * std::mem::size_of::<f32>()) as f64;
        let checkpoint_params: usize = self
            .snapshot
            .checkpoint
            .blocks
            .iter()
            .map(|b| b.dense.iter().map(Tensor::num_elements).sum::<usize>() + b.moe.num_params())
            .sum();
        let moved_params: usize = self
            .model
            .blocks()
            .iter()
            .map(|b| {
                b.moe().config().params_per_expert() * b.moe().expert_map().experts_on(victim).len()
            })
            .sum();
        // Testbed A's α–β costs until the host's own fits replace them
        // (ROADMAP item 8).
        price_gray_failure(
            &simnet::Testbed::a().costs,
            self.comm.world_size(),
            healthy_step_ms,
            slowdown,
            horizon_steps,
            self.step - self.snapshot.step,
            bytes(moved_params),
            bytes(checkpoint_params),
        )
    }

    /// Runs one training step, driving the elastic pipeline when a peer
    /// is down: retried steps replay from the last snapshot on the
    /// surviving world, so a returned loss is always a *completed* step.
    ///
    /// # Errors
    ///
    /// Propagates unblamable failures, and blamable ones once the
    /// eviction budget (one eviction) is spent.
    pub fn train_step(&mut self, input: &Tensor, target: &Tensor, lr: f32) -> Result<f32> {
        loop {
            // Self time = step wall time minus time spent blocked in
            // rendezvous waits: a browned-out rank's injected slowness
            // is self time, while its healthy peers mostly accumulate
            // *wait* — which the subtraction removes, so the slow rank
            // stands out instead of dragging everyone's score up.
            let wait_before = self.comm.blocked_wait_us(self.comm.rank());
            #[expect(
                clippy::disallowed_methods,
                reason = "the per-rank self time is all-reduced inside maybe_check_health \
                          before any verdict, so every rank scores the same fleet-wide vector"
            )]
            let wall_start = Instant::now();
            let result = self
                .maybe_snapshot()
                .and_then(|()| {
                    self.model
                        .train_step(input, target, lr, &mut self.route_rng)
                })
                .and_then(|loss| {
                    self.step += 1;
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the self-time reading: all-reduced before any verdict"
                    )]
                    let wall_us = wall_start.elapsed().as_micros() as u64;
                    let waited = self
                        .comm
                        .blocked_wait_us(self.comm.rank())
                        .saturating_sub(wait_before);
                    let self_us = wall_us.saturating_sub(waited) as f64;
                    self.maybe_check_health(self_us)
                        .map(|evicted| (loss, evicted))
                });
            // A peer that dies at any of the three — the health
            // all-reduce included — is blamed and evicted below.
            let err = match result {
                Ok((loss, false)) => return Ok(loss),
                // The live eviction rolled the clock back to the
                // snapshot: replay the discarded steps on the shrunken
                // world.
                Ok((_, true)) => continue,
                Err(e) => e,
            };
            let Some(victim) = self.blame(&err) else {
                return Err(err);
            };
            if self.evictions >= MAX_EVICTIONS {
                return Err(err);
            }
            self.recover_from_eviction(victim)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use collectives::{run_world, CommWorld};
    use fsmoe::config::MoeConfig;

    use super::*;

    /// The eviction price reads its sizes off the model: `restore`
    /// reloads the whole snapshot and `reshard` moves the victim's
    /// experts, at 4 bytes a parameter.
    #[test]
    fn eviction_price_reads_its_sizes_from_the_model() {
        let cfg = MoeConfig::builder()
            .batch_size(1)
            .seq_len(4)
            .embed_dim(8)
            .hidden_dim(16)
            .num_experts(4)
            .top_k(2)
            .no_drop()
            .build()
            .unwrap();
        let run_cfg = cfg.clone();
        let priced = run_world(CommWorld::new(2), move |comm| {
            let topo = HybridTopology::flat(2).unwrap();
            let model = MoeTransformer::new(&run_cfg, Some(2), 2, &comm, &topo, 5).unwrap();
            let trainer = ElasticTrainer::new(model, comm, TensorRng::seed_from(0), 2).unwrap();
            let snapshot_params: usize = trainer
                .snapshot
                .checkpoint
                .blocks
                .iter()
                .flat_map(|b| {
                    b.dense
                        .iter()
                        .chain(&b.moe.gate)
                        .chain(b.moe.experts.iter().flatten())
                })
                .map(Tensor::num_elements)
                .sum();
            let cost = trainer.price_eviction(1, 10.0, 2.0, 1000);
            (
                snapshot_params,
                cost.evict.phase("restore"),
                cost.evict.phase("reshard"),
            )
        });
        let all_gather = simnet::Testbed::a().costs.all_gather;
        // Two blocks, each with two of its four experts on the victim.
        let victim_params = 2 * 2 * cfg.params_per_expert();
        for (snapshot_params, restore, reshard) in priced {
            assert_eq!(restore, all_gather.time(4.0 * snapshot_params as f64));
            assert_eq!(reshard, all_gather.time(4.0 * victim_params as f64));
        }
    }
}
