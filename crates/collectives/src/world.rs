//! World construction, sub-group registry, and world-wide fault state —
//! including the membership-epoch control plane that lets survivors
//! evict a permanently dead rank and continue on a shrunken world.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::fault::FaultInjector;
use crate::group::{GroupInner, FAULT_POLL};
use crate::{CommError, GroupComm, Result};

/// The shrunken world an agreed eviction produces: who survived (old
/// global ranks, ascending — a survivor's new rank is its index here)
/// and the fresh registry every survivor rebinds through.
#[derive(Debug)]
struct NextWorld {
    epoch: u64,
    survivors: Vec<usize>,
    registry: Arc<GroupRegistry>,
}

/// The in-progress eviction vote: at most one victim per epoch, one vote
/// per live rank, and the completed `next` world once everyone agreed.
#[derive(Debug)]
struct ReconfigVote {
    victim: Option<usize>,
    votes: Vec<bool>,
    next: Option<NextWorld>,
}

/// World-wide control plane shared by every group: which ranks are dead,
/// which faults are scheduled, and the membership epoch. Dead-rank and
/// fence reads are lock-free so the rendezvous hot path can consult them
/// while holding a group lock.
#[derive(Debug)]
pub(crate) struct WorldCtrl {
    dead: Vec<AtomicBool>,
    injector: Option<FaultInjector>,
    /// Per-rank cumulative time (µs) spent blocked in collective
    /// rendezvous waits — the live signal health scoring subtracts from
    /// step wall time to get per-rank *self* time.
    waited: Vec<AtomicU64>,
    /// Membership epoch: starts at the parent world's epoch (0 for a
    /// fresh [`CommWorld`]) and bumps once per agreed eviction.
    epoch: AtomicU64,
    /// Set when an eviction completes: the world is retired, and every
    /// in-flight or future collective on it fails with
    /// [`CommError::Reconfigured`].
    fenced: AtomicBool,
    reconfig: Mutex<ReconfigVote>,
    reconfig_cond: Condvar,
}

impl WorldCtrl {
    fn new(size: usize, injector: Option<FaultInjector>, epoch: u64) -> Self {
        WorldCtrl {
            dead: (0..size).map(|_| AtomicBool::new(false)).collect(),
            injector,
            waited: (0..size).map(|_| AtomicU64::new(0)).collect(),
            epoch: AtomicU64::new(epoch),
            fenced: AtomicBool::new(false),
            reconfig: Mutex::new(ReconfigVote {
                victim: None,
                votes: vec![false; size],
                next: None,
            }),
            reconfig_cond: Condvar::new(),
        }
    }

    pub(crate) fn is_dead(&self, rank: usize) -> bool {
        self.dead
            .get(rank)
            .is_some_and(|d| d.load(Ordering::Acquire))
    }

    pub(crate) fn mark_dead(&self, rank: usize) {
        if let Some(d) = self.dead.get(rank) {
            d.store(true, Ordering::Release);
        }
    }

    pub(crate) fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Accumulates `us` microseconds of blocked rendezvous wait for
    /// `rank`. Relaxed: the counter is monotone telemetry, not a
    /// synchronization edge.
    pub(crate) fn add_blocked_wait(&self, rank: usize, us: u64) {
        if let Some(w) = self.waited.get(rank) {
            w.fetch_add(us, Ordering::Relaxed);
        }
    }

    pub(crate) fn blocked_wait_us(&self, rank: usize) -> u64 {
        self.waited
            .get(rank)
            .map_or(0, |w| w.load(Ordering::Relaxed))
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The error a fenced world's collectives fail with, if fenced.
    pub(crate) fn reconfig_error(&self) -> Option<CommError> {
        if self.fenced.load(Ordering::Acquire) {
            Some(CommError::Reconfigured {
                epoch: self.epoch(),
            })
        } else {
            None
        }
    }
}

/// Shared registry mapping a rank set to its group state, so every rank
/// that requests the same sub-group binds to the same rendezvous object.
/// A `BTreeMap` so [`GroupRegistry::wake_all_groups`] wakes groups in a
/// deterministic order (DESIGN.md §13).
#[derive(Debug)]
struct GroupRegistry {
    groups: Mutex<BTreeMap<Vec<usize>, Arc<GroupInner>>>,
    ctrl: Arc<WorldCtrl>,
}

impl GroupRegistry {
    fn lookup(&self, ranks: &[usize]) -> Arc<GroupInner> {
        let mut map = self.groups.lock();
        Arc::clone(
            map.entry(ranks.to_vec())
                .or_insert_with(|| Arc::new(GroupInner::new(ranks.to_vec(), &self.ctrl))),
        )
    }

    /// Wakes every waiter on every group, so ranks blocked in a
    /// rendezvous observe a fence (or a death) without waiting out the
    /// fault-poll interval.
    fn wake_all_groups(&self) {
        let map = self.groups.lock();
        for group in map.values() {
            group.wake_all();
        }
    }
}

/// A world of `P` communicating ranks.
///
/// Construct one per simulated cluster, then hand each rank thread its
/// [`Communicator`] via [`CommWorld::into_communicators`]. Worlds are
/// configured before the split: [`CommWorld::with_deadline`] arms a
/// collective deadline on every group, [`CommWorld::with_faults`]
/// installs a [`FaultInjector`].
#[derive(Debug)]
pub struct CommWorld {
    size: usize,
    deadline: Option<Duration>,
    injector: Option<FaultInjector>,
}

impl CommWorld {
    /// Creates a world with `size` ranks, no deadline, no faults.
    ///
    /// # Panics
    ///
    /// Panics when `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "world size must be positive");
        CommWorld {
            size,
            deadline: None,
            injector: None,
        }
    }

    /// Arms a deadline on every collective: a rank whose peers have not
    /// all joined (or drained) within `deadline` gets
    /// [`CommError::Timeout`] instead of blocking forever.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Installs a fault injector consulted by every collective.
    #[must_use]
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Consumes the world, producing one [`Communicator`] per rank, in
    /// rank order.
    pub fn into_communicators(self) -> Vec<Communicator> {
        let ctrl = Arc::new(WorldCtrl::new(self.size, self.injector, 0));
        let registry = Arc::new(GroupRegistry {
            groups: Mutex::new(BTreeMap::new()),
            ctrl,
        });
        (0..self.size)
            .map(|rank| Communicator {
                rank,
                world_size: self.size,
                deadline: self.deadline,
                registry: Arc::clone(&registry),
            })
            .collect()
    }
}

/// One rank's handle into a [`CommWorld`].
///
/// Cheap to clone; clones refer to the same rank.
#[derive(Debug, Clone)]
pub struct Communicator {
    rank: usize,
    world_size: usize,
    deadline: Option<Duration>,
    registry: Arc<GroupRegistry>,
}

impl Communicator {
    /// The lone communicator of a fresh one-rank world — what a layer
    /// that runs locally is built over.
    pub fn solo() -> Communicator {
        CommWorld::new(1).into_communicators().remove(0)
    }

    /// This rank's global rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks in the world.
    pub fn world_size(&self) -> usize {
        self.world_size
    }

    /// The collective deadline groups created by this communicator
    /// inherit (`None` = wait forever).
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Overrides the inherited collective deadline for groups created
    /// *after* this call.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// Cumulative time `rank` has spent blocked in collective
    /// rendezvous waits on this world, µs. Monotone; callers diff
    /// consecutive readings to get per-step blocked time. A rank's step
    /// wall time minus its blocked-wait delta is its *self* time — the
    /// quantity `models::health` scores, because a limping rank shows
    /// large self time while its healthy peers show large waits.
    pub fn blocked_wait_us(&self, rank: usize) -> u64 {
        self.registry.ctrl.blocked_wait_us(rank)
    }

    /// Whether `rank` is known to be dead (killed by fault injection or
    /// declared via [`Communicator::declare_dead`]).
    pub fn is_dead(&self, rank: usize) -> bool {
        self.registry.ctrl.is_dead(rank)
    }

    /// Declares `rank` dead world-wide. Every in-flight and future
    /// collective on a group containing `rank` fails with
    /// [`CommError::RankDown`] instead of waiting for it.
    pub fn declare_dead(&self, rank: usize) {
        self.registry.ctrl.mark_dead(rank);
        self.registry.wake_all_groups();
    }

    /// The world's current membership epoch (0 until the first eviction
    /// completes; carried over into reconfigured worlds, so it is
    /// monotone across cascaded evictions).
    pub fn membership_epoch(&self) -> u64 {
        self.registry.ctrl.epoch()
    }

    /// Proposes evicting `victim` from the world and blocks until every
    /// *live* rank has agreed — a control-plane barrier among survivors.
    ///
    /// The victim is marked dead immediately, so in-flight data-plane
    /// collectives involving it fail fast with [`CommError::RankDown`]
    /// while the vote is still collecting. When the last live rank
    /// votes, the membership epoch bumps, the old world is *fenced*
    /// (every subsequent collective on it fails with
    /// [`CommError::Reconfigured`]) and a shrunken world is published
    /// for [`Communicator::reconfigured`] to hand out. Calling again
    /// with the same victim after completion is idempotent.
    ///
    /// Ranks that die *during* the vote are excluded from both the
    /// agreement and the survivor set. The fault injector is **not**
    /// carried into the new world: its schedule is keyed by old ranks.
    ///
    /// Returns the new membership epoch.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::RankOutOfRange`] for an out-of-world victim,
    /// [`CommError::InvalidGroup`] when proposing to evict oneself,
    /// [`CommError::RankDown`] when the caller itself is dead,
    /// [`CommError::EvictConflict`] when a different victim is already
    /// under agreement this epoch, and [`CommError::Timeout`] (with
    /// `op = "propose_evict"`) when the communicator's deadline expires
    /// before every live rank votes.
    #[expect(
        clippy::disallowed_methods,
        reason = "the op deadline's clock: it only decides when this rank stops waiting \
                  and returns Timeout, never what a rank computes"
    )]
    pub fn propose_evict(&self, victim: usize) -> Result<u64> {
        let ctrl = &self.registry.ctrl;
        if victim >= self.world_size {
            return Err(CommError::RankOutOfRange {
                rank: victim,
                world_size: self.world_size,
            });
        }
        if victim == self.rank {
            return Err(CommError::InvalidGroup {
                reason: format!("rank {} cannot propose evicting itself", self.rank),
            });
        }
        if ctrl.is_dead(self.rank) {
            return Err(CommError::RankDown { rank: self.rank });
        }
        // Fail in-flight data-plane ops involving the victim fast.
        ctrl.mark_dead(victim);
        self.registry.wake_all_groups();

        let started = Instant::now();
        let deadline = self.deadline.map(|d| started + d);
        let mut vote = ctrl.reconfig.lock();
        match vote.victim {
            None => vote.victim = Some(victim),
            Some(v) if v == victim => {}
            Some(v) => {
                return Err(CommError::EvictConflict {
                    proposed: victim,
                    agreed: v,
                })
            }
        }
        vote.votes[self.rank] = true;
        ctrl.reconfig_cond.notify_all();
        loop {
            if let Some(next) = &vote.next {
                return Ok(next.epoch);
            }
            let live: Vec<usize> = (0..self.world_size).filter(|&r| !ctrl.is_dead(r)).collect();
            if live.iter().all(|&r| vote.votes[r]) {
                // Last voter: publish the shrunken world and fence this
                // one. Survivors are the live ranks in ascending order;
                // a survivor's new rank is its index in that list.
                let epoch = ctrl.epoch.fetch_add(1, Ordering::AcqRel) + 1;
                let new_ctrl = Arc::new(WorldCtrl::new(live.len(), None, epoch));
                let registry = Arc::new(GroupRegistry {
                    groups: Mutex::new(BTreeMap::new()),
                    ctrl: new_ctrl,
                });
                vote.next = Some(NextWorld {
                    epoch,
                    survivors: live,
                    registry,
                });
                ctrl.fenced.store(true, Ordering::Release);
                obs::counter_add(obs::names::COLLECTIVES_EVICTIONS, 1);
                obs::set_gauge(obs::names::COLLECTIVES_MEMBERSHIP_EPOCH, epoch as f64);
                ctrl.reconfig_cond.notify_all();
                self.registry.wake_all_groups();
                return Ok(epoch);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                let waiting_on = live.iter().copied().filter(|&r| !vote.votes[r]).collect();
                return Err(CommError::Timeout {
                    op: "propose_evict",
                    waiting_on,
                    deadline: self.deadline.unwrap_or_default(),
                    elapsed: started.elapsed(),
                });
            }
            // Bounded wait: a voter may die without notifying this
            // condvar, so re-check the live set every FAULT_POLL.
            let dur = match deadline {
                Some(d) => d.saturating_duration_since(Instant::now()).min(FAULT_POLL),
                None => FAULT_POLL,
            };
            let _ = ctrl.reconfig_cond.wait_for(&mut vote, dur);
        }
    }

    /// Rebinds this rank into the shrunken world a completed eviction
    /// published: a new communicator with contiguous re-numbered ranks,
    /// an empty group registry (all derived groups are rebuilt on
    /// demand) and op streams starting from zero. The collective
    /// deadline carries over.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::InvalidGroup`] before any eviction has
    /// completed and [`CommError::RankDown`] when this rank is not a
    /// survivor.
    pub fn reconfigured(&self) -> Result<Communicator> {
        let vote = self.registry.ctrl.reconfig.lock();
        let Some(next) = &vote.next else {
            return Err(CommError::InvalidGroup {
                reason: "no completed reconfiguration on this world".into(),
            });
        };
        match next.survivors.iter().position(|&r| r == self.rank) {
            Some(new_rank) => Ok(Communicator {
                rank: new_rank,
                world_size: next.survivors.len(),
                deadline: self.deadline,
                registry: Arc::clone(&next.registry),
            }),
            None => Err(CommError::RankDown { rank: self.rank }),
        }
    }

    /// The last completed reconfiguration on this world, if any:
    /// `(epoch, survivors)` with survivors as *old* global ranks in
    /// ascending order (a survivor's new rank is its index).
    pub fn last_reconfiguration(&self) -> Option<(u64, Vec<usize>)> {
        let vote = self.registry.ctrl.reconfig.lock();
        vote.next
            .as_ref()
            .map(|next| (next.epoch, next.survivors.clone()))
    }

    /// The group containing every rank in the world.
    #[expect(
        clippy::expect_used,
        reason = "0..world_size is non-empty, duplicate-free and contains self.rank by construction"
    )]
    pub fn world_group(&self) -> GroupComm {
        let ranks: Vec<usize> = (0..self.world_size).collect();
        self.subgroup(&ranks)
            .expect("every rank is a member of the world group")
    }

    /// Binds this rank into the group over `ranks`.
    ///
    /// All members must call `subgroup` with an identical rank list (the
    /// SPMD convention NCCL communicator creation follows too).
    ///
    /// # Errors
    ///
    /// Returns an error when `ranks` is empty, contains duplicates or
    /// out-of-range ranks, or does not include this rank.
    pub fn subgroup(&self, ranks: &[usize]) -> Result<GroupComm> {
        if ranks.is_empty() {
            return Err(CommError::InvalidGroup {
                reason: "empty rank list".into(),
            });
        }
        let mut seen = vec![false; self.world_size];
        for &r in ranks {
            if r >= self.world_size {
                return Err(CommError::RankOutOfRange {
                    rank: r,
                    world_size: self.world_size,
                });
            }
            if seen[r] {
                return Err(CommError::InvalidGroup {
                    reason: format!("duplicate rank {r}"),
                });
            }
            seen[r] = true;
        }
        GroupComm::new(self.registry.lookup(ranks), self.rank, self.deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_produces_one_communicator_per_rank() {
        let comms = CommWorld::new(4).into_communicators();
        assert_eq!(comms.len(), 4);
        for (i, c) in comms.iter().enumerate() {
            assert_eq!(c.rank(), i);
            assert_eq!(c.world_size(), 4);
        }
    }

    #[test]
    #[should_panic(expected = "world size must be positive")]
    fn zero_world_panics() {
        let _ = CommWorld::new(0);
    }

    #[test]
    fn subgroup_validation() {
        let comms = CommWorld::new(4).into_communicators();
        assert!(comms[0].subgroup(&[]).is_err());
        assert!(comms[0].subgroup(&[0, 0]).is_err());
        assert!(comms[0].subgroup(&[0, 9]).is_err());
        // not a member
        assert!(matches!(
            comms[3].subgroup(&[0, 1]),
            Err(CommError::NotAMember { rank: 3 })
        ));
        let g = comms[1].subgroup(&[0, 1]).unwrap();
        assert_eq!(g.group_index(), 1);
        assert_eq!(g.ranks(), &[0, 1]);
    }

    #[test]
    fn same_rank_list_binds_same_group() {
        let comms = CommWorld::new(2).into_communicators();
        let a = comms[0].subgroup(&[0, 1]).unwrap();
        let b = comms[1].subgroup(&[0, 1]).unwrap();
        // Verified indirectly: they must rendezvous. Run a barrier across
        // two threads.
        let t = std::thread::spawn(move || b.barrier());
        a.barrier().unwrap();
        t.join().unwrap().unwrap();
    }

    #[test]
    fn deadline_and_dead_flags_propagate() {
        let mut comms = CommWorld::new(2)
            .with_deadline(Duration::from_millis(250))
            .into_communicators();
        assert_eq!(comms[0].deadline(), Some(Duration::from_millis(250)));
        comms[0].set_deadline(None);
        assert_eq!(comms[0].deadline(), None);
        assert!(!comms[1].is_dead(0));
        comms[1].declare_dead(0);
        assert!(comms[0].is_dead(0), "death is world-wide state");
    }
}
