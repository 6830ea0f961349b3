//! Elastic-membership protocol tests: eviction agreement, epoch
//! fencing, contiguous re-numbering, fresh op streams, and the typed
//! failure modes of the vote itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use collectives::{run_world_within, CommError, CommWorld, Communicator};

const BUDGET: Duration = Duration::from_secs(30);

fn world(size: usize) -> CommWorld {
    CommWorld::new(size).with_deadline(Duration::from_secs(5))
}

/// The survivors' shared path: evict `victim`, rebind, and return the
/// new communicator.
fn evict_and_rebind(comm: &Communicator, victim: usize) -> Communicator {
    let epoch = comm.propose_evict(victim).expect("vote completes");
    assert_eq!(epoch, comm.membership_epoch());
    comm.reconfigured().expect("survivor rebinds")
}

#[test]
fn eviction_renumbers_survivors_and_bumps_epoch() {
    let results = run_world_within(world(4), BUDGET, |comm| {
        if comm.rank() == 2 {
            comm.declare_dead(comm.rank());
            return None;
        }
        let new_comm = evict_and_rebind(&comm, 2);
        // survivors [0, 1, 3] renumber to contiguous [0, 1, 2]
        assert_eq!(new_comm.world_size(), 3);
        let expected_new = match comm.rank() {
            0 => 0,
            1 => 1,
            3 => 2,
            _ => unreachable!(),
        };
        assert_eq!(new_comm.rank(), expected_new);
        let (epoch, survivors) = comm.last_reconfiguration().expect("published");
        assert_eq!(epoch, 1);
        assert_eq!(survivors, vec![0, 1, 3]);
        // The new world works: all_reduce over the shrunken group.
        let mut x = vec![new_comm.rank() as f32];
        new_comm.world_group().all_reduce(&mut x).unwrap();
        assert_eq!(x[0], 3.0); // 0 + 1 + 2
        Some((comm.membership_epoch(), new_comm.membership_epoch()))
    });
    for (rank, r) in results.iter().enumerate() {
        if rank == 2 {
            assert!(r.is_none());
        } else {
            assert_eq!(*r, Some((1, 1)), "epoch carries into the new world");
        }
    }
}

#[test]
fn fenced_world_fails_ops_with_reconfigured() {
    let results = run_world_within(world(3), BUDGET, |comm| {
        if comm.rank() == 2 {
            comm.declare_dead(comm.rank());
            return None;
        }
        let _ = evict_and_rebind(&comm, 2);
        // Any collective on the *old* world now fails cleanly.
        let err = comm.world_group().barrier().unwrap_err();
        Some(err)
    });
    for r in results.into_iter().flatten() {
        assert_eq!(r, CommError::Reconfigured { epoch: 1 });
    }
}

#[test]
fn in_flight_op_is_fenced_mid_wait() {
    // A deadline-less barrier deposit is already waiting on the old
    // world when the fence lands (the depositor's vote arrives from a
    // second handle of the same rank); the rendezvous wait loop must
    // observe the fence, withdraw the deposit, and fail with
    // Reconfigured instead of blocking forever.
    let comms = CommWorld::new(3).into_communicators();
    let c0_wait = comms[0].clone();
    let c0_vote = comms[0].clone();
    let c1 = comms[1].clone();
    comms[2].declare_dead(2);
    let waiter = std::thread::spawn(move || {
        let g = c0_wait.subgroup(&[0, 1]).unwrap();
        g.barrier().unwrap_err()
    });
    std::thread::sleep(Duration::from_millis(100));
    let voter0 = std::thread::spawn(move || c0_vote.propose_evict(2).unwrap());
    let voter1 = std::thread::spawn(move || c1.propose_evict(2).unwrap());
    assert_eq!(voter0.join().unwrap(), 1);
    assert_eq!(voter1.join().unwrap(), 1);
    let err = waiter.join().unwrap();
    assert!(
        matches!(err, CommError::Reconfigured { epoch: 1 }),
        "{err:?}"
    );
}

#[test]
fn evicted_waiter_hears_of_its_own_death() {
    // The victim's deposit is waiting on a live peer when the survivors
    // evict it. Its death comes before the fence its eviction raised:
    // it must leave with RankDown for itself, not Reconfigured, which
    // would read as a verdict on the rest of the world.
    let comms = CommWorld::new(3).into_communicators();
    let victim = comms[2].clone();
    let (c0, c1) = (comms[0].clone(), comms[1].clone());
    let waiter = std::thread::spawn(move || {
        let g = victim.subgroup(&[1, 2]).unwrap();
        g.barrier().unwrap_err()
    });
    std::thread::sleep(Duration::from_millis(100));
    let voter0 = std::thread::spawn(move || c0.propose_evict(2).unwrap());
    let voter1 = std::thread::spawn(move || c1.propose_evict(2).unwrap());
    assert_eq!(voter0.join().unwrap(), 1);
    assert_eq!(voter1.join().unwrap(), 1);
    assert_eq!(waiter.join().unwrap(), CommError::RankDown { rank: 2 });
}

#[test]
fn vote_failure_modes_are_typed() {
    let comms = CommWorld::new(4).into_communicators();
    // out-of-range victim
    assert!(matches!(
        comms[0].propose_evict(9),
        Err(CommError::RankOutOfRange { rank: 9, .. })
    ));
    // self-eviction
    assert!(matches!(
        comms[1].propose_evict(1),
        Err(CommError::InvalidGroup { .. })
    ));
    // a dead caller cannot vote
    comms[0].declare_dead(0);
    assert!(matches!(
        comms[0].propose_evict(2),
        Err(CommError::RankDown { rank: 0 })
    ));
    // no reconfiguration published yet
    assert!(comms[1].reconfigured().is_err());
    assert!(comms[1].last_reconfiguration().is_none());
}

#[test]
fn conflicting_proposals_get_evict_conflict() {
    let results = run_world_within(
        CommWorld::new(4).with_deadline(Duration::from_millis(300)),
        BUDGET,
        |comm| match comm.rank() {
            0 => {
                // First proposer: victim 2. The vote can never complete
                // (rank 1 errors out, rank 3 never votes), so the
                // deadline fires.
                let err = comm.propose_evict(2).unwrap_err();
                matches!(err, CommError::Timeout { .. })
            }
            1 => {
                std::thread::sleep(Duration::from_millis(100));
                let err = comm.propose_evict(3).unwrap_err();
                err == CommError::EvictConflict {
                    proposed: 3,
                    agreed: 2,
                }
            }
            _ => {
                std::thread::sleep(Duration::from_millis(500));
                true
            }
        },
    );
    assert_eq!(results, vec![true, true, true, true]);
}

#[test]
fn duplicate_proposal_is_idempotent() {
    let results = run_world_within(world(3), BUDGET, |comm| {
        if comm.rank() == 2 {
            comm.declare_dead(comm.rank());
            return None;
        }
        let first = comm.propose_evict(2).unwrap();
        let second = comm.propose_evict(2).unwrap();
        Some((first, second))
    });
    for r in results.into_iter().flatten() {
        assert_eq!(r, (1, 1));
    }
}

#[test]
fn victim_cannot_rebind() {
    let results = run_world_within(world(3), BUDGET, |comm| {
        if comm.rank() == 1 {
            comm.declare_dead(comm.rank());
            // Wait for the survivors' vote to complete, then try to
            // rebind anyway.
            for _ in 0..100 {
                if comm.last_reconfiguration().is_some() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            return Some(matches!(
                comm.reconfigured(),
                Err(CommError::RankDown { rank: 1 })
            ));
        }
        let _ = evict_and_rebind(&comm, 1);
        None
    });
    assert_eq!(results[1], Some(true));
}

#[test]
fn cascaded_evictions_keep_epoch_monotone() {
    let results = run_world_within(world(3), BUDGET, |comm| {
        if comm.rank() == 2 {
            comm.declare_dead(comm.rank());
            return None;
        }
        // The epoch is the one the vote returned: the new world's shared
        // counter may already have moved on — once rank 1 is marked dead
        // below (or by rank 0's proposal), rank 0 completes the next
        // vote alone, possibly before this rank reads anything.
        let first_epoch = comm.propose_evict(2).expect("vote completes");
        assert_eq!(first_epoch, 1);
        let second = comm.reconfigured().expect("survivor rebinds");
        if comm.rank() == 1 {
            // New rank 1 (old rank 1) dies in the second generation.
            second.declare_dead(second.rank());
            return Some(1);
        }
        // Old rank 0 == new rank 0 evicts new rank 1.
        assert_eq!(second.propose_evict(1).expect("lone survivor votes"), 2);
        let third = second.reconfigured().expect("survivor rebinds");
        assert_eq!(third.world_size(), 1);
        assert_eq!(third.membership_epoch(), 2);
        // A one-rank world still runs collectives.
        let mut x = vec![41.0f32];
        third.world_group().all_reduce(&mut x).unwrap();
        assert_eq!(x[0], 41.0);
        Some(2)
    });
    assert_eq!(results, vec![Some(2), Some(1), None]);
}

#[test]
fn op_streams_start_fresh_after_reconfiguration() {
    let results = run_world_within(world(3), BUDGET, |comm| {
        if comm.rank() == 2 {
            comm.declare_dead(comm.rank());
            return None;
        }
        // Advance the old world's op stream on the surviving pair.
        let old_pair = comm.subgroup(&[0, 1]).unwrap();
        old_pair.barrier().unwrap();
        old_pair.barrier().unwrap();
        assert_eq!(old_pair.op_stream_position(), 2);
        let new_comm = evict_and_rebind(&comm, 2);
        let new_pair = new_comm.subgroup(&[0, 1]).unwrap();
        assert_eq!(
            new_pair.op_stream_position(),
            0,
            "reconfigured worlds flush op streams"
        );
        new_pair.barrier().unwrap();
        Some(new_pair.op_stream_position())
    });
    assert_eq!(results, vec![Some(1), Some(1), None]);
}

#[test]
fn eviction_is_counted_and_epoch_gauged() {
    let session = obs::session();
    let evictions = Arc::new(AtomicU64::new(0));
    let ev = Arc::clone(&evictions);
    run_world_within(world(4), BUDGET, move |comm| {
        if comm.rank() == 3 {
            comm.declare_dead(comm.rank());
            return;
        }
        let _ = evict_and_rebind(&comm, 3);
        ev.fetch_add(1, Ordering::Relaxed);
    });
    let snap = session.snapshot();
    assert_eq!(
        snap.counter(obs::names::COLLECTIVES_EVICTIONS),
        1,
        "one agreed eviction counts once, not once per voter"
    );
    assert_eq!(
        snap.gauges
            .get(obs::names::COLLECTIVES_MEMBERSHIP_EPOCH.as_str()),
        Some(&1.0)
    );
    assert_eq!(evictions.load(Ordering::Relaxed), 3);
}
