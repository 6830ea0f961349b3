//! Fault-injection and deadline tests: killed ranks, stragglers, payload
//! drops, poisoning, and dead-rank declaration. The acceptance bar: a
//! rank killed mid-AlltoAll must leave every surviving rank with a
//! *typed error* within the deadline — never a hang.

use std::time::Duration;

use collectives::{
    run_world, run_world_within, CommError, CommWorld, FaultAction, FaultInjector, GroupComm,
};

const DEADLINE: Duration = Duration::from_millis(500);
/// Watchdog budget: generous, but far below "hang forever".
const BUDGET: Duration = Duration::from_secs(10);

#[test]
fn kill_mid_all_to_all_errors_all_survivors_within_deadline() {
    let _doctor = parking_lot::lock_doctor::check_guard();
    let world = CommWorld::new(4)
        .with_deadline(DEADLINE)
        .with_faults(FaultInjector::new().kill(2, 0));
    // `run_world_within` is the no-hang bound: it panics when any rank
    // is still inside the collective after BUDGET.
    let results = run_world_within(world, BUDGET, |comm| {
        let g = comm.world_group();
        let data = vec![comm.rank() as f32; 4];
        g.all_to_all(&data)
    });
    for (rank, res) in results.iter().enumerate() {
        let err = res.as_ref().expect_err("every rank must observe the fault");
        match err {
            CommError::RankDown { rank: dead } => assert_eq!(*dead, 2),
            CommError::Timeout {
                op,
                waiting_on,
                deadline,
                elapsed,
            } => {
                assert_eq!(*op, obs::names::SPAN_ALL_TO_ALL.as_str());
                assert!(waiting_on.contains(&2), "rank {rank}: {waiting_on:?}");
                assert_eq!(*deadline, DEADLINE, "the configured budget is reported");
                // A lower bound: a timeout cannot fire before its deadline, and
                // load only adds to it.
                assert!(
                    elapsed >= deadline,
                    "rank {rank}: gave up after {elapsed:?} < deadline {deadline:?}"
                );
            }
            other => panic!("rank {rank}: unexpected error {other:?}"),
        }
    }
}

#[test]
fn killed_rank_stays_dead_for_later_collectives() {
    let _doctor = parking_lot::lock_doctor::check_guard();
    let world = CommWorld::new(2)
        .with_deadline(DEADLINE)
        .with_faults(FaultInjector::new().kill(1, 0));
    let results = run_world_within(world, BUDGET, |comm| {
        let g = comm.world_group();
        let first = g.barrier();
        let second = g.barrier();
        (first, second)
    });
    // Rank 1 dies at op 0 and every later call fails the same way.
    assert_eq!(results[1].0, Err(CommError::RankDown { rank: 1 }));
    assert_eq!(results[1].1, Err(CommError::RankDown { rank: 1 }));
    // Rank 0 observes the death on both ops (RankDown fast path or
    // Timeout if it raced ahead of the kill).
    for res in [&results[0].0, &results[0].1] {
        assert!(res.is_err(), "rank 0 must not complete: {res:?}");
    }
}

#[test]
fn straggler_within_deadline_still_completes() {
    let _doctor = parking_lot::lock_doctor::check_guard();
    let world = CommWorld::new(3)
        .with_deadline(Duration::from_secs(5))
        .with_faults(FaultInjector::new().delay(1, 0, Duration::from_millis(50)));
    let results = run_world_within(world, BUDGET, |comm| {
        let g = comm.world_group();
        let mut v = vec![comm.rank() as f32];
        g.all_reduce(&mut v).map(|()| v[0])
    });
    for res in results {
        assert_eq!(res, Ok(3.0));
    }
}

#[test]
fn straggler_beyond_deadline_times_out_peers() {
    let _doctor = parking_lot::lock_doctor::check_guard();
    let world = CommWorld::new(2)
        .with_deadline(Duration::from_millis(100))
        .with_faults(FaultInjector::new().delay(1, 0, Duration::from_millis(400)));
    let results = run_world_within(world, BUDGET, |comm| {
        let g = comm.world_group();
        g.barrier()
    });
    // Rank 0 gives up on the straggler; the straggler, arriving to an
    // abandoned rendezvous, times out too. Nobody hangs.
    match &results[0] {
        Err(CommError::Timeout {
            op,
            waiting_on,
            deadline,
            elapsed,
        }) => {
            assert_eq!(*op, "barrier");
            assert_eq!(*waiting_on, vec![1]);
            assert_eq!(*deadline, Duration::from_millis(100));
            // A lower bound: a timeout cannot fire before its deadline, and
            // load only adds to it.
            assert!(elapsed >= deadline, "{elapsed:?} < {deadline:?}");
        }
        other => panic!("rank 0 must time out, got {other:?}"),
    }
    assert!(results[1].is_err());
}

#[test]
fn timed_out_op_can_be_retried_with_same_payload() {
    let _doctor = parking_lot::lock_doctor::check_guard();
    // Retry semantics the fsmoe layer relies on: a rank that times out
    // withdraws its deposit and re-enters with the *same* payload; a
    // straggling peer that finally arrives joins the retry and the op
    // completes with a consistent result on both sides.
    let world = CommWorld::new(2)
        .with_deadline(Duration::from_millis(150))
        .with_faults(FaultInjector::new().delay(1, 0, Duration::from_millis(300)));
    let results = run_world_within(world, BUDGET, |comm| {
        let g = comm.world_group();
        let base = vec![comm.rank() as f32 + 1.0];
        let mut attempts = 0;
        loop {
            let mut v = base.clone();
            match g.all_reduce(&mut v) {
                Ok(()) => return (attempts, v[0]),
                Err(CommError::Timeout { .. }) if attempts < 10 => attempts += 1,
                Err(e) => panic!("unexpected error: {e:?}"),
            }
        }
    });
    for (rank, (_, sum)) in results.iter().enumerate() {
        assert_eq!(*sum, 3.0, "rank {rank} retry produced wrong sum");
    }
}

#[test]
fn abandoned_op_fails_typed_instead_of_crosswiring() {
    let _doctor = parking_lot::lock_doctor::check_guard();
    // Rank 1 straggles past rank 0's patience on op A (an AlltoAll);
    // rank 0 gives up, skips the op, and issues its *next* collective B
    // on the same group. Without op-stream ids, rank 1's late deposit
    // for A would rendezvous with rank 0's B deposit — both tagged
    // AllToAll-family — and both ranks would silently compute over mixed
    // payloads. With ids, rank 1 gets `Abandoned`, skips A itself, and
    // joins B for a correct exchange.
    let world = CommWorld::new(2)
        .with_deadline(Duration::from_millis(100))
        .with_faults(FaultInjector::new().delay(1, 0, Duration::from_millis(500)));
    let results = run_world_within(world, BUDGET, |comm| {
        let g = comm.world_group();
        if comm.rank() == 0 {
            // Op A: one attempt, then abandon and move on.
            let a = g.all_to_all(&[0.0, 1.0]);
            assert!(matches!(a, Err(CommError::Timeout { .. })), "{a:?}");
            g.skip_op();
            assert_eq!(g.op_stream_position(), 1);
            // Op B: retry until the straggler catches up and joins.
            let mut attempts = 0;
            loop {
                let mut b = vec![1.0f32];
                match g.all_reduce(&mut b) {
                    Ok(()) => break Ok(b[0]),
                    Err(CommError::Timeout { .. }) if attempts < 50 => attempts += 1,
                    Err(e) => break Err(e),
                }
            }
        } else {
            // Wakes long after rank 0 abandoned op A and claimed op B.
            let a = g.all_to_all(&[2.0, 3.0]);
            match a {
                Err(CommError::Abandoned {
                    op,
                    op_id,
                    stream_id,
                }) => {
                    assert_eq!(op, obs::names::SPAN_ALL_TO_ALL.as_str());
                    assert!(stream_id > op_id, "stream {stream_id} vs op {op_id}");
                }
                other => panic!("expected Abandoned, got {other:?}"),
            }
            g.skip_op();
            let mut b = vec![2.0f32];
            g.all_reduce(&mut b).map(|()| b[0])
        }
    });
    // Op B completed consistently on both sides: 1 + 2.
    assert_eq!(results[0], Ok(3.0));
    assert_eq!(results[1], Ok(3.0));
}

#[test]
fn payload_drop_zeroes_contribution() {
    let _doctor = parking_lot::lock_doctor::check_guard();
    let world = CommWorld::new(2).with_faults(FaultInjector::new().drop_payload(1, 0));
    let results = run_world(world, |comm| {
        let g = comm.world_group();
        let mut v = vec![comm.rank() as f32 + 1.0, comm.rank() as f32 + 1.0];
        g.all_reduce(&mut v).unwrap();
        v
    });
    // Rank 1's [2,2] was zero-filled: the sum is rank 0's [1,1] alone.
    for r in results {
        assert_eq!(r, vec![1.0, 1.0]);
    }
}

#[test]
fn panicking_rank_poisons_group_for_peers() {
    let _doctor = parking_lot::lock_doctor::check_guard();
    let world = CommWorld::new(2).with_deadline(DEADLINE);
    let comms = world.into_communicators();
    let mut comms = comms.into_iter();
    let c0 = comms.next().unwrap();
    let c1 = comms.next().unwrap();

    let t1 = std::thread::spawn(move || {
        let g = c1.world_group();
        // Arrive last (the last arrival runs the reduction) with a
        // mismatched buffer length, so this thread panics mid-collective
        // while rank 0 is already committed to the rendezvous.
        std::thread::sleep(Duration::from_millis(100));
        let mut v = vec![1.0f32, 2.0];
        let _ = g.all_reduce(&mut v);
    });
    let t0 = std::thread::spawn(move || {
        let g = c0.world_group();
        let mut v = vec![1.0f32];
        g.all_reduce(&mut v)
    });

    assert!(t1.join().is_err(), "rank 1 must panic (length mismatch)");
    let r0 = t0.join().unwrap();
    match r0 {
        Err(CommError::Poisoned { .. }) | Err(CommError::Timeout { .. }) => {}
        other => panic!("rank 0 should observe poisoning or timeout, got {other:?}"),
    }
}

/// The runtime half of SPMD agreement: ranks that disagree on one op of
/// a group — its broadcast root, or the op itself — poison the group.
#[test]
fn disagreeing_broadcast_roots_poison_the_group() {
    type Op = fn(&GroupComm) -> collectives::Result<()>;
    // (what, the early rank's op, the late rank's op)
    let cases: [(&str, Op, Op); 2] = [
        (
            "root mismatch",
            |g| g.broadcast(0, &mut [0.0]),
            |g| g.broadcast(1, &mut [1.0]),
        ),
        (
            "op-kind mismatch",
            |g| g.all_reduce(&mut [1.0]),
            GroupComm::barrier,
        ),
    ];
    for (what, early, late) in cases {
        let _doctor = parking_lot::lock_doctor::check_guard();
        let world = CommWorld::new(2).with_deadline(DEADLINE);
        let comms = world.into_communicators();
        let mut comms = comms.into_iter();
        let c0 = comms.next().unwrap();
        let c1 = comms.next().unwrap();

        let t1 = std::thread::spawn(move || {
            // Arrive last with a different op: the members would read
            // different views, so the late rank panics instead.
            std::thread::sleep(Duration::from_millis(100));
            let _ = late(&c1.world_group());
        });
        let t0 = std::thread::spawn(move || early(&c0.world_group()));

        assert!(t1.join().is_err(), "rank 1 must panic ({what})");
        let r0 = t0.join().unwrap();
        match r0 {
            Err(CommError::Poisoned { .. }) | Err(CommError::Timeout { .. }) => {}
            other => panic!("{what}: rank 0 should observe poisoning or timeout, got {other:?}"),
        }
    }
}

#[test]
fn declare_dead_fails_in_flight_collective() {
    let _doctor = parking_lot::lock_doctor::check_guard();
    let world = CommWorld::new(2).with_deadline(Duration::from_secs(5));
    let comms = world.into_communicators();
    let observer = comms[0].clone();
    let mut comms = comms.into_iter();
    let c0 = comms.next().unwrap();
    let _c1 = comms.next().unwrap(); // never joins — it is "crashed"

    let t0 = std::thread::spawn(move || {
        let g = c0.world_group();
        g.barrier()
    });
    std::thread::sleep(Duration::from_millis(50));
    // A failure detector (here: the test) declares rank 1 dead.
    observer.declare_dead(1);
    let res = t0.join().unwrap();
    assert_eq!(res, Err(CommError::RankDown { rank: 1 }));
}

#[test]
fn fault_action_is_inspectable() {
    let _doctor = parking_lot::lock_doctor::check_guard();
    let inj = FaultInjector::new()
        .kill(0, 1)
        .delay(1, 2, Duration::from_millis(5))
        .drop_payload(2, 3);
    let mut events = inj.events();
    events.sort_by_key(|&(r, o, _)| (r, o));
    assert_eq!(
        events,
        vec![
            (0, 1, FaultAction::Kill),
            (1, 2, FaultAction::Delay(Duration::from_millis(5))),
            (2, 3, FaultAction::DropPayload),
        ]
    );
}
