//! Group communicators and the collective state machine.
//!
//! The rendezvous here is *fault-aware*: every wait is bounded by the
//! group's deadline (when armed), dead ranks (killed by fault injection
//! or declared dead) fail the collective with [`CommError::RankDown`]
//! instead of hanging every peer, and a rank that panics mid-collective
//! poisons the group so peers get [`CommError::Poisoned`] immediately.
//!
//! It is also *sequence-aware*: each rank carries a monotonic per-group
//! op id (advanced on completion, or explicitly by
//! [`GroupComm::skip_op`] when a caller abandons an exchange), and every
//! rendezvous round is stamped with the id it belongs to. Deposits from
//! different logical collectives therefore can never mix — a straggler
//! arriving behind the stream gets [`CommError::Abandoned`] instead of
//! cross-wiring its stale payload into a peer's *next* collective.
//!
//! # Buffers: who owns what
//!
//! Nothing is staged: each byte moves once, outside the lock. This file
//! is the **control plane** — gates, op-stream stamps, deadlines,
//! `withdraw` / `settle_drain`, fences, poison; [`plane`] is the **data
//! plane**. A deposit *publishes a view* — pointer and length — of the
//! caller's own send buffer. Once every member has arrived the round is
//! opened; each member **claims** it under the lock, drops the lock,
//! writes its own result straight from its peers' views into its
//! caller's buffer, and **releases**. AllReduce folds *slices* of the
//! group-owned `reduced`, handed to whichever members are awake so a slow
//! waker holds nobody up; members copy `reduced` out and leave, and it
//! drains lazily — the next round waits out the stragglers' copies.
//!
//! **The borrow rule.** *A view is dereferenced only between a member's
//! claim of a completed round and its release. The view's owner does not
//! return from its call — `Ok`, `Err`, written off while it slept, or
//! unwinding — while a claim that can read the view is outstanding or
//! can still be made* ([`GroupComm::exit`]; an error exit while the round
//! still collects retracts the view under the lock, when nobody can be
//! reading). `reduced` is resized only when a round opens, which the
//! same rule puts after every earlier claim's release.
//!
//! A one-rank group (every unsharded ESP group) has nobody to meet: it
//! passes the same fault gates, advances the same op stream and records
//! the same span, but moves the payload with one copy and no rendezvous.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::fault::FaultAction;
use crate::world::WorldCtrl;
use crate::{CommError, Result};

mod plane;
use plane::{Member, Plane};

/// How often waiting ranks re-check world fault state (dead ranks,
/// poisoning, membership fences) even without a notification. Bounds the
/// detection latency for ranks blocked on *other* groups than the one a
/// fault hit.
#[expect(
    clippy::disallowed_methods,
    reason = "poll cadence for fault re-checks, not an op budget"
)]
pub(crate) const FAULT_POLL: Duration = Duration::from_millis(25);

/// How long a wait polls — lock released, `yield_now` (ranks may
/// outnumber cores), re-check — before it parks in the condvar, whose
/// wake-up costs tens of microseconds: a zero-copy round has two waits,
/// arrival and release. Changes when a rank wakes, never what it computes.
#[expect(
    clippy::disallowed_methods,
    reason = "poll-before-park window of a wait, not an op budget"
)]
const POLL: Duration = Duration::from_micros(100);

/// Adds `ns` of waiting to `carry_ns` and takes out the whole
/// microseconds, keeping the remainder for the op's next wait — so waits
/// shorter than 1 µs, which polling makes the common kind, still count.
fn carry_us(carry_ns: &mut u64, ns: u64) -> u64 {
    let total = *carry_ns + ns;
    *carry_ns = total % 1_000;
    total / 1_000
}

/// One op's waiting: its deadline (`None` once the round is complete),
/// where the current wait's poll window ends (`None`: not begun), and
/// the blocked time not yet reported.
#[derive(Default)]
struct Wait {
    deadline: Option<Instant>,
    poll_until: Option<Instant>,
    carry_ns: u64,
}

type State<'a> = MutexGuard<'a, OpState>;

/// Which collective the group is currently executing, used to detect SPMD
/// violations (two ranks calling different collectives on one group, or
/// broadcasts from different roots) and to say what a member's result is
/// made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpTag {
    AllReduce,
    AllGather,
    ReduceScatter,
    AllToAll,
    /// The root's group index.
    Broadcast(usize),
    Barrier,
}

impl OpTag {
    fn name(self) -> obs::Name {
        match self {
            OpTag::AllReduce => obs::names::SPAN_ALL_REDUCE,
            OpTag::AllGather => obs::names::SPAN_ALL_GATHER,
            OpTag::ReduceScatter => obs::names::SPAN_REDUCE_SCATTER,
            OpTag::AllToAll => obs::names::SPAN_ALL_TO_ALL,
            OpTag::Broadcast(_) => obs::names::SPAN_BROADCAST,
            OpTag::Barrier => obs::names::SPAN_BARRIER,
        }
    }

    /// Whether the result is read from the element-wise sum of the
    /// deposits rather than from the deposits themselves.
    fn reduces(self) -> bool {
        matches!(self, OpTag::AllReduce | OpTag::ReduceScatter)
    }
}

/// The caller's buffers for one collective.
enum Io<'a> {
    /// The result replaces the payload (`all_reduce`, `broadcast`,
    /// `barrier` with an empty slice).
    InPlace(&'a mut [f32]),
    /// The payload is `send`; the result replaces the contents of `recv`.
    Into {
        send: &'a [f32],
        recv: &'a mut Vec<f32>,
    },
}

impl Io<'_> {
    fn send(&self) -> &[f32] {
        match self {
            Io::InPlace(data) => data,
            Io::Into { send, .. } => send,
        }
    }

    /// The result on a one-rank group, straight from the payload: itself,
    /// `v + 0.0` where the op sums (the group path starts its fold from
    /// zero, which turns `-0.0` into `+0.0`), or zeros when an injected
    /// fault dropped the payload.
    fn put_solo(&mut self, reduces: bool, dropped: bool) {
        match self {
            Io::InPlace(data) if dropped => data.fill(0.0),
            Io::InPlace(data) if reduces => data.iter_mut().for_each(|v| *v += 0.0),
            Io::InPlace(_) => {}
            Io::Into { send, recv } => {
                recv.clear();
                if dropped {
                    recv.resize(send.len(), 0.0);
                } else if reduces {
                    recv.extend(send.iter().map(|v| v + 0.0));
                } else {
                    recv.extend_from_slice(send);
                }
            }
        }
    }
}

#[derive(Debug)]
enum Phase {
    /// Ranks are depositing inputs; `usize` counts arrivals.
    Collecting(usize),
    /// The round is complete; members claim, copy and release.
    Distributing,
}

#[derive(Debug)]
struct OpState {
    phase: Phase,
    tag: Option<OpTag>,
    /// Op id of the current (or most recently opened) round. Monotone:
    /// a round is only ever claimed by a rank whose op id is ≥ it.
    round_id: u64,
    /// Whether member `i` has published a view for the open round.
    deposited: Vec<bool>,
    /// Views, claims and the reduction of the round.
    plane: Plane,
    /// Set when a member panicked mid-collective (or violated SPMD);
    /// permanent — the rendezvous state is indeterminate afterwards.
    poisoned: Option<usize>,
}

/// Process-global group-instance counter: every [`GroupInner`] gets a
/// unique id, shared by all ranks bound to it (the inner is one `Arc`).
/// Within one world, groups over the same rank set (e.g. a dp group and
/// the world group on a 1-node layout) are one `GroupInner` with one op
/// stream: the world's registry keys groups by rank set. The id tells
/// apart group instances of *different* worlds in one process —
/// parallel tests, and the fresh registry of a reconfigured world — so
/// it is part of every op key: (ranks, epoch, op_id) alone would collide
/// across them.
static NEXT_GID: AtomicU64 = AtomicU64::new(1);

/// Shared state for one communication group.
#[derive(Debug)]
pub(crate) struct GroupInner {
    /// This group instance's process-unique id (see [`NEXT_GID`]).
    gid: u64,
    ranks: Vec<usize>,
    state: Mutex<OpState>,
    cond: Condvar,
    ctrl: Arc<WorldCtrl>,
    /// Per-member op-stream position (indexed by group index): how many
    /// logical collectives the member has completed or skipped. Lives in
    /// the shared inner so every handle a rank binds to the group sees
    /// one consistent stream.
    streams: Vec<AtomicU64>,
    /// Per-member marker of the last op-stream position *attempted*
    /// (stored as position + 1, so 0 means "never"). Re-attempting a
    /// position is what the `collectives.retries` counter measures.
    attempts: Vec<AtomicU64>,
}

impl GroupInner {
    pub(crate) fn new(ranks: Vec<usize>, ctrl: &Arc<WorldCtrl>) -> Self {
        let n = ranks.len();
        GroupInner {
            gid: NEXT_GID.fetch_add(1, Ordering::Relaxed),
            ranks,
            state: Mutex::new(OpState {
                phase: Phase::Collecting(0),
                tag: None,
                round_id: 0,
                deposited: vec![false; n],
                plane: Plane::new(n),
                poisoned: None,
            }),
            cond: Condvar::new(),
            ctrl: Arc::clone(ctrl),
            streams: (0..n).map(|_| AtomicU64::new(0)).collect(),
            attempts: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Wakes every waiter blocked on this group's condvar, so world-wide
    /// events (deaths, membership fences) are observed promptly.
    pub(crate) fn wake_all(&self) {
        self.cond.notify_all();
    }
}

/// Bumps the per-error-kind obs counter for a failed collective, and —
/// on the one unrecoverable kind, `Poisoned` (a peer panicked
/// mid-collective) — captures a flight-recorder post-mortem (no-op
/// unless `$FLIGHT_DUMP` is set). Shared by every error exit out of
/// [`GroupComm::run`], so early fault-gate failures count like
/// rendezvous failures.
fn record_error_counters(err: &CommError) {
    let counter = match err {
        CommError::Timeout { .. } => Some(obs::names::COLLECTIVES_TIMEOUTS),
        CommError::Abandoned { .. } => Some(obs::names::COLLECTIVES_ABANDONED),
        CommError::Poisoned { .. } => Some(obs::names::COLLECTIVES_POISONED),
        CommError::RankDown { .. } => Some(obs::names::COLLECTIVES_RANK_DOWN),
        _ => None,
    };
    if let Some(name) = counter {
        obs::counter_add(name, 1);
    }
    if matches!(err, CommError::Poisoned { .. }) {
        obs::flight::try_dump("poisoned");
    }
}

/// Poisons the group when the holder's thread unwinds mid-collective, so
/// peers error out instead of waiting forever — on the unwinding member's
/// claim included, which [`GroupComm::exit`] retires; the member itself
/// stays until the claims that may be reading its view are released.
/// Declared before the state guard, so during a panic the mutex is
/// released first.
struct PoisonOnPanic<'a>(&'a GroupComm);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut st = self.0.inner.state.lock();
            st.poisoned.get_or_insert(self.0.global_rank);
            let _ = self.0.exit(st, &mut Wait::default(), Ok(()));
        }
    }
}

/// A communicator bound to one rank's membership in one group.
///
/// All collectives block until every member of the group has joined the
/// call, exactly like their NCCL counterparts — except that an armed
/// deadline ([`GroupComm::set_deadline`], inherited from
/// [`crate::CommWorld::with_deadline`]) converts an absent peer into
/// [`CommError::Timeout`], and a peer known dead into
/// [`CommError::RankDown`]. The semantics follow the MPI/NCCL
/// definitions; see each method.
#[derive(Debug, Clone)]
pub struct GroupComm {
    inner: Arc<GroupInner>,
    /// This rank's index *within the group* (dense, 0-based).
    index: usize,
    /// This rank's global rank (for diagnostics).
    global_rank: usize,
    /// Per-collective deadline; `None` waits forever.
    deadline: Option<Duration>,
}

impl GroupComm {
    pub(crate) fn new(
        inner: Arc<GroupInner>,
        global_rank: usize,
        deadline: Option<Duration>,
    ) -> Result<Self> {
        let index = inner
            .ranks
            .iter()
            .position(|&r| r == global_rank)
            .ok_or(CommError::NotAMember { rank: global_rank })?;
        Ok(GroupComm {
            inner,
            index,
            global_rank,
            deadline,
        })
    }

    /// Number of ranks in the group.
    pub fn size(&self) -> usize {
        self.inner.ranks.len()
    }

    /// This rank's dense index within the group.
    pub fn group_index(&self) -> usize {
        self.index
    }

    /// This rank's global rank.
    pub fn global_rank(&self) -> usize {
        self.global_rank
    }

    /// The global ranks composing the group, in group-index order.
    pub fn ranks(&self) -> &[usize] {
        &self.inner.ranks
    }

    /// The collective deadline currently armed on this handle.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Arms (or disarms, with `None`) the per-collective deadline.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// Advances this rank's op stream past one logical collective
    /// *without* running it.
    ///
    /// Callers that give up on an exchange (e.g. the degradation path in
    /// `fsmoe::dist` after its retry budget) use this to declare the op
    /// abandoned: peers still trying to run it observe the advanced
    /// stream and fail fast with [`CommError::Abandoned`] instead of
    /// rendezvousing their stale deposit with this rank's *next*
    /// collective. Only call between collectives — never with a deposit
    /// outstanding (the collectives' error paths guarantee this by
    /// withdrawing before returning).
    pub fn skip_op(&self) {
        self.inner.streams[self.index].fetch_add(1, Ordering::Relaxed);
        obs::counter_add(obs::names::COLLECTIVES_SKIPPED_OPS, 1);
    }

    /// This rank's position in the group's op stream: how many logical
    /// collectives it has completed or skipped ([`GroupComm::skip_op`]).
    pub fn op_stream_position(&self) -> u64 {
        self.inner.streams[self.index].load(Ordering::Relaxed)
    }

    /// One step of a wait: a poll while the wait's [`POLL`] window lasts,
    /// then a block on the condvar, never longer than the remaining
    /// deadline or the fault-poll interval. Either way the time counts as
    /// blocked ([`crate::Communicator::blocked_wait_us`]).
    #[expect(
        clippy::disallowed_methods,
        reason = "the op deadline's clock: it only decides when this rank stops waiting \
                  and returns Timeout, never what a rank computes"
    )]
    fn wait_step<'a>(&'a self, mut st: State<'a>, wait: &mut Wait) -> State<'a> {
        let now = Instant::now();
        if now < *wait.poll_until.get_or_insert(now + POLL) {
            drop(st);
            std::thread::yield_now();
            st = self.inner.state.lock();
        } else {
            let left = wait.deadline.map(|d| d.saturating_duration_since(now));
            let dur = left.map_or(FAULT_POLL, |left| left.min(FAULT_POLL));
            if dur.is_zero() {
                return st; // caller re-checks and reports the timeout
            }
            let _ = self.inner.cond.wait_for(&mut st, dur);
        }
        let us = carry_us(&mut wait.carry_ns, now.elapsed().as_nanos() as u64);
        if us > 0 {
            self.inner.ctrl.add_blocked_wait(self.global_rank, us);
        }
        st
    }

    /// First group member that is dead world-wide and has not deposited
    /// an input this round — the op can never complete.
    fn blocking_dead_member(&self, st: &OpState) -> Option<usize> {
        self.inner
            .ranks
            .iter()
            .enumerate()
            .find(|&(i, &r)| !st.deposited[i] && self.inner.ctrl.is_dead(r))
            .map(|(_, &r)| r)
    }

    /// Retracts this rank's deposit — and with it its view, which nobody
    /// can be reading while the round collects — so an abandoned op
    /// leaves the group reusable (retries re-enter a clean Collecting
    /// state).
    fn withdraw(&self, st: &mut OpState) {
        if let Phase::Collecting(c) = &mut st.phase {
            if std::mem::take(&mut st.deposited[self.index]) {
                *c -= 1;
            }
            if *c == 0 {
                st.tag = None;
            }
        }
    }

    /// Writes off results owed to dead ranks and, if the drain is
    /// complete — nothing owed, no claim outstanding — resets the group
    /// for the next collective.
    fn settle_drain(&self, st: &mut OpState) {
        if !matches!(st.phase, Phase::Distributing) {
            return;
        }
        for (i, &r) in self.inner.ranks.iter().enumerate() {
            if st.plane.member(i) == Member::Owed && self.inner.ctrl.is_dead(r) {
                st.plane.retire(i);
            }
        }
        if st.plane.drained() {
            st.phase = Phase::Collecting(0);
            st.tag = None;
            self.inner.cond.notify_all();
        }
    }

    /// Global ranks the caller is still waiting on.
    fn waiting_on(&self, st: &OpState) -> Vec<usize> {
        let stuck = |i: usize| match st.phase {
            Phase::Collecting(_) => !st.deposited[i] && i != self.index,
            Phase::Distributing => st.plane.member(i) != Member::Idle,
        };
        let ranks = self.inner.ranks.iter().enumerate();
        ranks.filter(|&(i, _)| stuck(i)).map(|(_, &r)| r).collect()
    }

    /// [`GroupComm::run_inner`] wrapped in fault injection and
    /// observability: exactly one success span per completed op (error
    /// and withdraw/retry paths record *no* span), stamped with the op's
    /// world-wide key ([`obs::names::op_key`]) so `obs::attrib` can
    /// stitch per-rank timelines; a `collectives.retries` increment
    /// whenever an op-stream position is attempted again; per-error-kind
    /// counters; and a flight-recorder dump on the one unrecoverable
    /// error (`Poisoned`).
    ///
    /// The injector consult lives *here*, before the span opens — an
    /// injected straggler delay is this rank arriving late, not wire
    /// time, so the span start must be the true arrival time. The
    /// preceding dead/fence gates replicate [`GroupComm::run_inner`]'s
    /// own (which it keeps — faults must never be consumed by a rank
    /// that could not have run the op anyway).
    fn run(&self, tag: OpTag, mut io: Io<'_>) -> Result<()> {
        let dropped = self.fault_gates().inspect_err(record_error_counters)?;

        let pos = self.op_stream_position();
        let marker = self.inner.attempts[self.index].swap(pos + 1, Ordering::Relaxed);
        if marker == pos + 1 {
            obs::counter_add(obs::names::COLLECTIVES_RETRIES, 1);
        }
        let bytes = std::mem::size_of_val(io.send());
        // Key epoch captured *before* the rendezvous: a live eviction can
        // bump the world epoch between this op's completion and the span
        // commit below, and a commit-time read would stamp the late-waking
        // rank's span with the new epoch — splitting one world-wide op
        // across two keys.
        let epoch = self.inner.ctrl.epoch();
        let span = obs::deferred_span(obs::names::CAT_COLLECTIVES, tag.name());
        let result = if self.size() == 1 {
            // Nobody to meet: the gates above were the whole fault
            // surface, and this rank's stream is the group's.
            io.put_solo(tag.reduces(), dropped);
            self.inner.streams[self.index].store(pos + 1, Ordering::Relaxed);
            Ok(())
        } else {
            self.run_inner(tag, &mut io, dropped)
        };
        match result {
            Ok(()) => {
                let mut span = span;
                if obs::is_enabled() {
                    span.attr("rank", self.global_rank);
                    span.attr("group", format_args!("{:?}", self.inner.ranks));
                    span.attr("op_id", pos);
                    span.attr("bytes", bytes);
                    span.attr(
                        "op_key",
                        obs::names::op_key(self.inner.gid, epoch, &self.inner.ranks, pos),
                    );
                }
                span.commit();
                Ok(())
            }
            Err(err) => {
                span.cancel();
                record_error_counters(&err);
                Err(err)
            }
        }
    }

    /// The pre-rendezvous fault gates [`GroupComm::run`] applies before
    /// its collective span opens: dead-rank fail-fast, eviction fence,
    /// then the injector consult — exactly the order `run_inner` used to
    /// apply them, so faults are never consumed by a rank that could not
    /// have run the op anyway. `Ok(true)` means an injected fault dropped
    /// this rank's payload: it deposits zeros.
    fn fault_gates(&self) -> Result<bool> {
        let ctrl = &self.inner.ctrl;
        if ctrl.is_dead(self.global_rank) {
            return Err(CommError::RankDown {
                rank: self.global_rank,
            });
        }
        if let Some(err) = ctrl.reconfig_error() {
            return Err(err);
        }
        if let Some(injector) = ctrl.injector() {
            let action = injector.on_collective(self.global_rank);
            if action.is_some() {
                obs::counter_add(obs::names::COLLECTIVES_FAULTS_INJECTED, 1);
            }
            match action {
                Some(FaultAction::Kill) => {
                    ctrl.mark_dead(self.global_rank);
                    self.inner.cond.notify_all();
                    return Err(CommError::RankDown {
                        rank: self.global_rank,
                    });
                }
                Some(FaultAction::Delay(d)) => std::thread::sleep(d),
                Some(FaultAction::DropPayload) => return Ok(true),
                None => {}
            }
        }
        Ok(false)
    }

    /// How every member that has deposited leaves: the owner's half of
    /// the borrow rule. While the round collects (error exits only) the
    /// deposit is withdrawn — nobody can be reading yet. Out of a
    /// completed round the member gives up what it has not claimed and
    /// stays, writing off the dead, until no claim can read its view;
    /// no deadline applies, for it waits on peers' copies and wake-ups,
    /// never on an arrival.
    fn exit<'a>(&'a self, mut st: State<'a>, wait: &mut Wait, result: Result<()>) -> Result<()> {
        self.withdraw(&mut st);
        st.plane.retire(self.index);
        (wait.deadline, wait.poll_until) = (None, None);
        loop {
            self.settle_drain(&mut st);
            if !st.plane.views_in_use(st.poisoned.is_some()) {
                break;
            }
            st = self.wait_step(st, wait);
        }
        drop(st);
        self.inner.cond.notify_all();
        result
    }

    /// The core rendezvous: publish a view of `io`'s payload (zeros when
    /// `dropped`), wait for all members — the last arrival opens the
    /// round — then claim it, write this rank's result into `io` outside
    /// the lock, release, and [`GroupComm::exit`].
    ///
    /// # Errors
    ///
    /// Returns [`CommError::RankDown`] when this rank or a peer is dead,
    /// [`CommError::Timeout`] when the armed deadline expires,
    /// [`CommError::Poisoned`] when a member panicked mid-collective, and
    /// [`CommError::Abandoned`] when peers have already skipped past this
    /// rank's op in the group's op stream.
    ///
    /// # Panics
    ///
    /// Panics when members concurrently issue different collectives on the
    /// same group (an SPMD violation), or pass payloads of different
    /// lengths to anything but an AllGather; the group is poisoned first
    /// so peers error out rather than deadlock.
    #[expect(
        clippy::disallowed_methods,
        reason = "the op deadline's clock: it only decides when this rank stops waiting \
                  and returns Timeout, never what a rank computes"
    )]
    fn run_inner(&self, tag: OpTag, io: &mut Io<'_>, dropped: bool) -> Result<()> {
        let ctrl = &self.inner.ctrl;
        // Redundant with [`GroupComm::run`]'s gates, deliberately: the
        // checks are cheap, and keeping them here means no path into the
        // rendezvous can skip them.
        if ctrl.is_dead(self.global_rank) {
            return Err(CommError::RankDown {
                rank: self.global_rank,
            });
        }
        if let Some(err) = ctrl.reconfig_error() {
            // The world was fenced by a completed eviction: no collective
            // on it can ever complete again.
            return Err(err);
        }

        let op = tag.name().as_str();
        let started = Instant::now();
        let deadline = self.deadline.map(|d| started + d);
        let expired = |deadline: Option<Instant>| deadline.is_some_and(|d| Instant::now() >= d);
        let timeout = |waiting_on| CommError::Timeout {
            op,
            waiting_on,
            deadline: self.deadline.unwrap_or_default(),
            elapsed: started.elapsed(),
        };
        let n = self.size();
        let _poison_guard = PoisonOnPanic(self);
        let mut wait = Wait {
            deadline,
            ..Wait::default()
        };
        let mut st = self.inner.state.lock();

        // Wait out the drain of a previous collective. Dead ranks never
        // take their results, so write them off as we go. A caller evicted
        // while it waited is told of its own death before the fence that
        // eviction raised, as at entry.
        loop {
            if let Some(rank) = st.poisoned {
                return Err(CommError::Poisoned { rank });
            }
            if ctrl.is_dead(self.global_rank) {
                return Err(CommError::RankDown {
                    rank: self.global_rank,
                });
            }
            if let Some(err) = ctrl.reconfig_error() {
                return Err(err);
            }
            self.settle_drain(&mut st);
            if matches!(st.phase, Phase::Collecting(_)) {
                break;
            }
            if expired(deadline) {
                return Err(timeout(self.waiting_on(&st)));
            }
            st = self.wait_step(st, &mut wait);
        }

        // Op-stream check: deposits from different logical collectives
        // must never mix. Behind the round → peers provably abandoned
        // our op (the stream only advances) and no retry can succeed.
        // Ahead of the round → the open round belongs to an op *we*
        // already skipped; flush its stale deposits so their owners get
        // `Abandoned` instead of cross-wiring into our exchange.
        let my_id = self.inner.streams[self.index].load(Ordering::Relaxed);
        if my_id < st.round_id {
            return Err(CommError::Abandoned {
                op,
                op_id: my_id,
                stream_id: st.round_id,
            });
        }
        if my_id > st.round_id {
            if st.tag.is_some() {
                st.deposited.fill(false);
                st.phase = Phase::Collecting(0);
                st.tag = None;
                self.inner.cond.notify_all();
            }
            st.round_id = my_id;
        }

        debug_assert_eq!(st.round_id, my_id, "round claimed at the caller's op id");
        match st.tag {
            None => st.tag = Some(tag),
            Some(t) if t == tag => {}
            Some(t) => {
                st.poisoned = Some(self.global_rank);
                let ranks = self.inner.ranks.clone();
                drop(st);
                self.inner.cond.notify_all();
                panic!(
                    "SPMD violation on group {:?}: rank {} called {:?} while {:?} in flight",
                    ranks, self.global_rank, tag, t
                );
            }
        }

        st.plane.publish(self.index, io.send(), dropped);
        st.deposited[self.index] = true;
        let arrived = match &mut st.phase {
            Phase::Collecting(c) => {
                *c += 1;
                *c
            }
            Phase::Distributing => unreachable!("waited out distribution above"),
        };

        if arrived == n {
            st.plane.open(tag);
            st.deposited.fill(false);
            st.phase = Phase::Distributing;
            self.inner.cond.notify_all();
        } else {
            wait.poll_until = None;
            loop {
                // Poison grants no new claim — the unwinding member
                // leaves once the outstanding ones are released.
                if let Some(rank) = st.poisoned {
                    return self.exit(st, &mut wait, Err(CommError::Poisoned { rank }));
                }
                // A completed exchange always wins: once the round is
                // complete and our result is waiting, a fence or death
                // verdict observed afterwards belongs to a *later* op.
                // Erroring here would orphan an op every peer already
                // recorded as a world-wide success — a live eviction
                // racing the victim's wake-up from its final collective
                // would leave the op's key with a missing participant.
                if st.plane.member(self.index) == Member::Owed {
                    break;
                }
                // Otherwise a dead caller hears of its own death first: its
                // eviction fences the world, and the victim must not take
                // that fence for a verdict on someone else.
                if ctrl.is_dead(self.global_rank) {
                    let rank = self.global_rank;
                    return self.exit(st, &mut wait, Err(CommError::RankDown { rank }));
                }
                if let Some(err) = ctrl.reconfig_error() {
                    return self.exit(st, &mut wait, Err(err));
                }
                if st.round_id != my_id {
                    // A peer that had already skipped our op flushed this
                    // round (our deposit is gone) and claimed the group
                    // for a later collective.
                    let err = CommError::Abandoned {
                        op,
                        op_id: my_id,
                        stream_id: st.round_id,
                    };
                    return self.exit(st, &mut wait, Err(err));
                }
                if matches!(st.phase, Phase::Distributing) {
                    // The round completed but our result is already
                    // written off: only `settle_drain` does that, and only
                    // for ranks the fleet marked dead — this rank was
                    // evicted while it slept and a peer drained on its
                    // behalf. Too late to claim the result; exit with the
                    // verdict once nobody reads our view.
                    let rank = self.global_rank;
                    return self.exit(st, &mut wait, Err(CommError::RankDown { rank }));
                }
                if let Some(rank) = self.blocking_dead_member(&st) {
                    return self.exit(st, &mut wait, Err(CommError::RankDown { rank }));
                }
                if expired(deadline) {
                    let err = timeout(self.waiting_on(&st));
                    return self.exit(st, &mut wait, Err(err));
                }
                st = self.wait_step(st, &mut wait);
            }
        }

        // SAFETY: the round is open and owes us — we opened it, or broke
        // out of the wait on exactly that, and have held the lock since —
        // and every exit of every member that published a view (`exit`,
        // also `PoisonOnPanic`'s) waits out `views_in_use` before it
        // returns: the claim/release rule.
        let claim = unsafe { st.plane.claim(self.index) };
        if matches!(tag, OpTag::AllReduce) {
            // Fold slices until none is free, then wait — for peers'
            // folds, not arrivals — until `reduced` is whole.
            (wait.deadline, wait.poll_until) = (None, None);
            while !st.plane.folded() {
                if let Some(slice) = st.plane.take_slice() {
                    drop(st);
                    claim.fold_slice(&slice);
                    st = self.inner.state.lock();
                    if st.plane.finish_slice(slice) {
                        self.inner.cond.notify_all();
                    }
                } else if let Some(rank) = st.poisoned {
                    st.plane.release(claim);
                    return self.exit(st, &mut wait, Err(CommError::Poisoned { rank }));
                } else {
                    st = self.wait_step(st, &mut wait);
                }
            }
        }
        drop(st);
        // SAFETY: an AllReduce left the loop above on `folded()`, checked
        // under the lock, and this claim is not yet released.
        unsafe { claim.deliver(tag, io, dropped) };
        st = self.inner.state.lock();
        st.plane.release(claim);
        // The op completed for this rank: advance its stream position.
        self.inner.streams[self.index].store(my_id + 1, Ordering::Relaxed);
        self.exit(st, &mut wait, Ok(()))
    }

    /// Element-wise sum across the group; every rank ends with the total.
    ///
    /// Used for MP output combination and — crucially for the paper's §5 —
    /// the Gradient-AllReduce of data-parallel training.
    ///
    /// # Errors
    ///
    /// Returns deadline/fault errors; see [`GroupComm::run`] internals
    /// ([`CommError::Timeout`], [`CommError::RankDown`],
    /// [`CommError::Poisoned`]).
    ///
    /// # Panics
    ///
    /// Panics if members pass buffers of different lengths.
    pub fn all_reduce(&self, data: &mut [f32]) -> Result<()> {
        self.run(OpTag::AllReduce, Io::InPlace(data))
    }

    /// Concatenates every rank's buffer in group-index order; every rank
    /// receives the concatenation.
    ///
    /// This is the paper's ESP-AllGather (§2.2): it replicates dispatched
    /// tokens to all expert shards in the ESP group.
    ///
    /// # Errors
    ///
    /// Returns deadline/fault errors ([`CommError::Timeout`],
    /// [`CommError::RankDown`], [`CommError::Poisoned`]).
    pub fn all_gather(&self, data: &[f32]) -> Result<Vec<f32>> {
        let mut recv = Vec::new();
        self.exchange(OpTag::AllGather, data, &mut recv)?;
        Ok(recv)
    }

    /// [`GroupComm::all_gather`] into a caller-provided buffer: `recv` is
    /// cleared and filled, so passing the same one every step allocates
    /// nothing. On error `recv` is left as it was.
    ///
    /// # Errors
    ///
    /// As [`GroupComm::all_gather`].
    pub fn all_gather_into(&self, send: &[f32], recv: &mut Vec<f32>) -> Result<()> {
        self.exchange(OpTag::AllGather, send, recv)
    }

    /// Sums all buffers element-wise, then scatters the sum: rank `i`
    /// receives the `i`-th of `size` equal slices.
    ///
    /// This is the paper's ESP-ReduceScatter: it aggregates expert-shard
    /// outputs and splits the result back to the dispatch layout.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::BadBufferLength`] when the buffer does not
    /// divide evenly by the group size, plus deadline/fault errors.
    pub fn reduce_scatter(&self, data: &[f32]) -> Result<Vec<f32>> {
        let mut recv = Vec::new();
        self.exchange(OpTag::ReduceScatter, data, &mut recv)?;
        Ok(recv)
    }

    /// [`GroupComm::reduce_scatter`] into a caller-provided buffer (see
    /// [`GroupComm::all_gather_into`]).
    ///
    /// # Errors
    ///
    /// As [`GroupComm::reduce_scatter`].
    pub fn reduce_scatter_into(&self, send: &[f32], recv: &mut Vec<f32>) -> Result<()> {
        self.exchange(OpTag::ReduceScatter, send, recv)
    }

    /// Splits each rank's buffer into `size` equal chunks and transposes:
    /// rank `i` receives chunk `i` from every rank, concatenated in group
    /// order.
    ///
    /// This is AlltoAll Dispatch/Combine (§2.2), the operation expert
    /// parallelism uses to move tokens to their experts and back.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::BadBufferLength`] when the buffer does not
    /// divide evenly by the group size, plus deadline/fault errors.
    pub fn all_to_all(&self, data: &[f32]) -> Result<Vec<f32>> {
        let mut recv = Vec::new();
        self.exchange(OpTag::AllToAll, data, &mut recv)?;
        Ok(recv)
    }

    /// [`GroupComm::all_to_all`] into a caller-provided buffer (see
    /// [`GroupComm::all_gather_into`]).
    ///
    /// # Errors
    ///
    /// As [`GroupComm::all_to_all`].
    pub fn all_to_all_into(&self, send: &[f32], recv: &mut Vec<f32>) -> Result<()> {
        self.exchange(OpTag::AllToAll, send, recv)
    }

    /// One `send` → `recv` collective; the two that scatter need `send`
    /// to split into one equal chunk per member.
    fn exchange(&self, tag: OpTag, send: &[f32], recv: &mut Vec<f32>) -> Result<()> {
        let group_size = self.size();
        if !matches!(tag, OpTag::AllGather) && !send.len().is_multiple_of(group_size) {
            return Err(CommError::BadBufferLength {
                op: tag.name().as_str(),
                len: send.len(),
                group_size,
            });
        }
        self.run(tag, Io::Into { send, recv })
    }

    /// Copies `root`'s buffer (by group index) to every rank.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::RankOutOfRange`] when `root` is not a valid
    /// group index, plus deadline/fault errors.
    pub fn broadcast(&self, root: usize, data: &mut [f32]) -> Result<()> {
        let n = self.size();
        if root >= n {
            return Err(CommError::RankOutOfRange {
                rank: root,
                world_size: n,
            });
        }
        self.run(OpTag::Broadcast(root), Io::InPlace(data))
    }

    /// Blocks until every member of the group has reached the barrier.
    ///
    /// # Errors
    ///
    /// Returns deadline/fault errors ([`CommError::Timeout`],
    /// [`CommError::RankDown`], [`CommError::Poisoned`]).
    pub fn barrier(&self) -> Result<()> {
        self.run(OpTag::Barrier, Io::InPlace(&mut []))
    }
}

#[cfg(test)]
mod tests {
    use super::carry_us;

    #[test]
    fn blocked_wait_carries_the_sub_microsecond_remainder_across_waits() {
        let mut carry = 0;
        // 4 × 300 ns: the per-wake truncation this replaces reported 0
        let reported: Vec<u64> = (0..4).map(|_| carry_us(&mut carry, 300)).collect();
        assert_eq!(reported, [0, 0, 0, 1]);
        assert_eq!(carry, 200);
        assert_eq!(carry_us(&mut carry, 2_799), 2, "200 + 2 799 ns");
        assert_eq!(carry, 999);
        assert_eq!(carry_us(&mut carry, 1), 1);
        assert_eq!((carry_us(&mut carry, 0), carry), (0, 0));
    }
}
