//! A thread-backed collective-communication runtime.
//!
//! The paper runs on NCCL; this crate reproduces the *semantics* of the
//! five collectives an MoE layer needs — AllReduce, AllGather,
//! ReduceScatter, AlltoAll and Broadcast — over OS threads with real data
//! movement, so the MoE data plane in `fsmoe` computes numerically correct
//! results under any schedule. (Timing is the job of the `simnet` crate;
//! here only correctness matters.)
//!
//! # Model
//!
//! A [`CommWorld`] owns `P` ranks. Each rank runs on its own thread and
//! holds a [`Communicator`]. Ranks form [`GroupComm`]s over arbitrary rank
//! subsets — the same subsets the paper's hybrid DP+MP+EP+ESP parallelism
//! uses, which [`HybridTopology`] constructs (§2.2, Fig. 2).
//!
//! Collectives are SPMD: every member of a group must call the same
//! operation in the same order. Mismatched calls are detected, poison the
//! group, and panic with a diagnostic rather than deadlocking.
//!
//! # Fault model
//!
//! Production clusters lose ranks. The runtime therefore supports:
//!
//! * **deadlines** ([`CommWorld::with_deadline`]) — one static budget
//!   per world, inherited by every group: an absent peer turns into
//!   [`CommError::Timeout`] instead of a hang;
//! * **dead-rank tracking** ([`Communicator::declare_dead`]) — peers of a
//!   dead rank fail fast with [`CommError::RankDown`];
//! * **panic poisoning** — a rank that panics mid-collective poisons the
//!   group, and peers get [`CommError::Poisoned`];
//! * **op-stream ids** — every rendezvous round is stamped with a
//!   monotonic per-group op id ([`GroupComm::skip_op`] advances past an
//!   abandoned exchange), so a degraded collective can never cross-wire
//!   with a straggler's late deposit: behind-the-stream ranks get
//!   [`CommError::Abandoned`] instead of silently mixed payloads;
//! * **fault injection** ([`FaultInjector`], [`CommWorld::with_faults`])
//!   — deterministic, seedable schedules of rank kills, straggler delays,
//!   payload drops and persistent brownouts ([`Brownout`]), so every
//!   collective can be attacked in tests;
//! * **elastic membership** ([`Communicator::propose_evict`],
//!   [`Communicator::reconfigured`]) — survivors of a permanently dead
//!   rank agree to evict it, the membership epoch bumps, the old world
//!   is fenced (in-flight ops fail with [`CommError::Reconfigured`]) and
//!   each survivor rebinds into a shrunken world with contiguous ranks
//!   and fresh op streams.
//!
//! # Example
//!
//! ```
//! use collectives::CommWorld;
//! use std::thread;
//!
//! let world = CommWorld::new(4);
//! let handles: Vec<_> = world
//!     .into_communicators()
//!     .into_iter()
//!     .map(|comm| {
//!         thread::spawn(move || {
//!             let group = comm.world_group();
//!             let mut x = vec![comm.rank() as f32];
//!             group.all_reduce(&mut x).unwrap();
//!             assert_eq!(x[0], 6.0); // 0+1+2+3
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! ```

// The distributed core never panics and starts no ad-hoc thread:
// failures flow as `CommError`, op budgets come from `with_deadline`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)
)]

mod error;
mod fault;
mod group;
mod topology;
mod world;

pub use error::CommError;
pub use fault::{Brownout, FaultAction, FaultInjector};
pub use group::GroupComm;
pub use topology::{HybridTopology, ParallelDims};
pub use world::{CommWorld, Communicator};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CommError>;

/// The collective deadline [`run_ranks`] arms on its world: so generous
/// that no healthy op comes near it, it turns a rank-divergent op in a
/// test into a [`CommError::Timeout`] instead of a hang.
#[expect(
    clippy::disallowed_methods,
    reason = "the harness's hang bound, not an op budget"
)]
pub const RUN_RANKS_DEADLINE: std::time::Duration = std::time::Duration::from_secs(60);

/// Runs `f` once per rank on `size` threads, passing each its
/// [`Communicator`], and returns the per-rank results in rank order.
/// Every collective is bounded by [`RUN_RANKS_DEADLINE`].
///
/// This is the harness every multi-rank test and example uses.
///
/// # Panics
///
/// Propagates panics from rank threads.
pub fn run_ranks<T, F>(size: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Communicator) -> T + Send + Sync + 'static,
{
    run_world(CommWorld::new(size).with_deadline(RUN_RANKS_DEADLINE), f)
}

/// Like [`run_ranks`], but over a pre-configured [`CommWorld`] (deadline,
/// fault schedule, …).
///
/// # Panics
///
/// Propagates panics from rank threads.
#[expect(
    clippy::disallowed_methods,
    reason = "the harness starts the rank threads: one thread per rank"
)]
#[expect(
    clippy::expect_used,
    reason = "test harness: a rank panic must propagate to the calling test, not become a Result"
)]
pub fn run_world<T, F>(world: CommWorld, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Communicator) -> T + Send + Sync + 'static,
{
    obs::flight::init_from_env();
    let f = std::sync::Arc::new(f);
    let handles: Vec<_> = world
        .into_communicators()
        .into_iter()
        .map(|comm| {
            let f = std::sync::Arc::clone(&f);
            std::thread::spawn(move || {
                // Unconditional: the flight recorder labels rank rows in
                // post-mortem dumps even with the registry disabled.
                obs::set_thread_name(&format!("rank {}", comm.rank()));
                f(comm)
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("rank thread panicked"))
        .collect()
}

/// Like [`run_world`], but panics if any rank fails to finish within
/// `budget` — the watchdog chaos tests use to prove no collective hangs.
///
/// Results come back in rank order. Rank threads that panic re-panic
/// here; rank threads that *hang* trip the watchdog without being joined
/// (they are left detached so the test suite can fail cleanly).
///
/// # Panics
///
/// Panics when a rank thread panics or does not finish within `budget`.
#[expect(
    clippy::disallowed_methods,
    reason = "the harness starts the rank threads, one per rank, and its watchdog reads \
              the clock only to give up on them"
)]
#[expect(
    clippy::expect_used,
    reason = "the watchdog loop panics before the collect unless every slot was filled"
)]
pub fn run_world_within<T, F>(world: CommWorld, budget: std::time::Duration, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Communicator) -> T + Send + Sync + 'static,
{
    obs::flight::init_from_env();
    let size = world.size();
    let f = std::sync::Arc::new(f);
    let (tx, rx) = std::sync::mpsc::channel();
    for comm in world.into_communicators() {
        let f = std::sync::Arc::clone(&f);
        let tx = tx.clone();
        std::thread::spawn(move || {
            let rank = comm.rank();
            obs::set_thread_name(&format!("rank {rank}"));
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(comm)));
            let _ = tx.send((rank, result));
        });
    }
    drop(tx);
    let deadline = std::time::Instant::now() + budget;
    let mut slots: Vec<Option<T>> = (0..size).map(|_| None).collect();
    for _ in 0..size {
        let remaining = deadline.saturating_duration_since(std::time::Instant::now());
        match rx.recv_timeout(remaining) {
            Ok((rank, Ok(value))) => slots[rank] = Some(value),
            Ok((rank, Err(payload))) => {
                panic!("rank {rank} panicked: {}", panic_message(&payload))
            }
            Err(_) => {
                let missing: Vec<usize> = slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.is_none())
                    .map(|(i, _)| i)
                    .collect();
                // Drain the flight rings *before* the panic unwinds the
                // harness: the hung ranks' open spans are the diagnosis.
                obs::flight::try_dump("watchdog");
                panic!(
                    "watchdog: ranks {missing:?} still running after {budget:?} — collective hang"
                );
            }
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("all ranks reported"))
        .collect()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}
