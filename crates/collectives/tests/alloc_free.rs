//! The rendezvous allocates nothing once warm: after the first call of
//! each size, every `*_into` collective (and the in-place `all_reduce`)
//! reads its peers' published views and writes the caller's `recv` — a
//! count from a counting allocator, not a time. And publishing views
//! instead of staging copies must not cost the fault semantics anything:
//! a deposit withdrawn on `Timeout` and a round flushed after `skip_op`
//! leave nothing of the failed attempt behind for the next op to read.

use std::time::Duration;

use collectives::{run_ranks, run_world_within, CommError, CommWorld, FaultInjector};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// Watchdog budget: generous, but far below "hang forever".
const BUDGET: Duration = Duration::from_secs(10);
/// Elements each rank exchanges with each peer.
const CHUNK: usize = 4096;

/// Rank `src`'s payload: chunk `dst` holds `100·src + dst`.
fn payload(src: usize, n: usize) -> Vec<f32> {
    (0..n)
        .flat_map(|dst| std::iter::repeat_n((100 * src + dst) as f32, CHUNK))
        .collect()
}

/// What `dst` holds after an AlltoAll of [`payload`]s: chunk `src` is
/// `100·src + dst`.
fn transposed(dst: usize, n: usize) -> Vec<f32> {
    (0..n)
        .flat_map(|src| std::iter::repeat_n((100 * src + dst) as f32, CHUNK))
        .collect()
}

#[test]
fn warmed_into_calls_allocate_nothing_on_1_2_and_4_ranks() {
    for n in [1usize, 2, 4] {
        let allocations = run_ranks(n, move |comm| {
            let g = comm.world_group();
            let (rank, ranks) = (comm.rank(), n as f32);
            let send = payload(rank, n);
            let (mut a2a, mut gathered, mut scattered) = (Vec::new(), Vec::new(), Vec::new());
            let mut total = vec![0.0f32; CHUNK];
            let mut round = |total: &mut Vec<f32>| {
                g.all_to_all_into(&send, &mut a2a).unwrap();
                g.all_gather_into(&send[..CHUNK], &mut gathered).unwrap();
                g.reduce_scatter_into(&send, &mut scattered).unwrap();
                total.fill(1.0);
                g.all_reduce(total).unwrap();
            };
            // the first round sizes `reduced` and every `recv`
            round(&mut total);
            let ((), allocations, _) = counting_alloc::count(|| {
                for _ in 0..5 {
                    round(&mut total);
                }
            });
            assert_eq!(a2a, transposed(rank, n), "rank {rank} of {n}");
            let chunk0s: Vec<f32> = (0..n)
                .flat_map(|src| std::iter::repeat_n((100 * src) as f32, CHUNK))
                .collect();
            assert_eq!(gathered, chunk0s, "rank {rank} of {n}");
            // Σ_src (100·src + rank)
            let sum = 100.0 * (ranks * (ranks - 1.0) / 2.0) + ranks * rank as f32;
            assert_eq!(scattered, vec![sum; CHUNK], "rank {rank} of {n}");
            assert_eq!(total, vec![ranks; CHUNK], "rank {rank} of {n}");
            allocations
        });
        assert_eq!(allocations, vec![0; n], "{n}-rank group, per rank");
    }
}

#[test]
fn a_timed_out_deposit_is_withdrawn_and_its_slot_serves_the_retry() {
    let _doctor = parking_lot::lock_doctor::check_guard();
    // At op 1 rank 1 straggles past rank 0's deadline: rank 0 times out,
    // withdraws its view, and re-enters with the same `recv` and a `send`
    // it has **mutated between the attempts** — the payload it first
    // published is gone. The straggler joins a retry and must read the
    // payload of the attempt that completed. (With a copy staged at the
    // first attempt this assertion could only fail if the stale copy were
    // served; with views, it fails if a withdrawn view is ever read.)
    let world = CommWorld::new(2)
        .with_deadline(Duration::from_millis(150))
        .with_faults(FaultInjector::new().delay(1, 1, Duration::from_millis(300)));
    let results = run_world_within(world, BUDGET, |comm| {
        let g = comm.world_group();
        let rank = comm.rank();
        let mut recv = Vec::new();
        g.all_to_all_into(&vec![-1.0; 2 * CHUNK], &mut recv)
            .unwrap();
        let warm = recv.clone();
        // attempt `t` sends the payload shifted by `t`
        let attempt = |t: usize| payload(rank, 2).iter().map(|v| v + t as f32).collect();
        let mut send: Vec<f32> = attempt(0);
        let mut timeouts = 0;
        loop {
            match g.all_to_all_into(&send, &mut recv) {
                Ok(()) => return (timeouts, recv),
                Err(CommError::Timeout { .. }) if timeouts < 10 => {
                    assert_eq!(recv, warm, "a failed op leaves `recv` alone");
                    timeouts += 1;
                    send = attempt(timeouts);
                }
                Err(e) => panic!("unexpected error: {e:?}"),
            }
        }
    });
    let retries = results[0].0;
    assert!(retries >= 1, "rank 0 must have timed out and retried");
    assert_eq!(results[1].0, 0, "the straggler's first attempt completes");
    for (rank, (_, recv)) in results.iter().enumerate() {
        // chunk 0 came from rank 0's last attempt, chunk 1 from rank 1's only one
        let mut want = transposed(rank, 2);
        want[..CHUNK].iter_mut().for_each(|v| *v += retries as f32);
        assert_eq!(
            recv, &want,
            "rank {rank}: the retry read a withdrawn payload"
        );
    }
}

#[test]
fn a_skipped_op_is_abandoned_and_the_flushed_slots_serve_the_next_op() {
    let _doctor = parking_lot::lock_doctor::check_guard();
    // Rank 1 straggles past rank 0's patience on op A; rank 0 skips A
    // and opens op B on the same group. Rank 1's late deposit for A must
    // come back `Abandoned` — a flushed round's sleepers get that, never
    // a result — and once it skips too, B must exchange B's payloads,
    // with no view of A left for anyone to read.
    let world = CommWorld::new(2)
        .with_deadline(Duration::from_millis(100))
        .with_faults(FaultInjector::new().delay(1, 1, Duration::from_millis(500)));
    let results = run_world_within(world, BUDGET, |comm| {
        let g = comm.world_group();
        let rank = comm.rank();
        let mut recv = Vec::new();
        g.all_to_all_into(&vec![-1.0; 2 * CHUNK], &mut recv)
            .unwrap();
        let stale = vec![-7.0; 2 * CHUNK];
        let a = g.all_to_all_into(&stale, &mut recv);
        if rank == 0 {
            assert!(matches!(a, Err(CommError::Timeout { .. })), "{a:?}");
        } else {
            assert!(matches!(a, Err(CommError::Abandoned { .. })), "{a:?}");
        }
        g.skip_op();
        assert_eq!(g.op_stream_position(), 2);
        let send = payload(rank, 2);
        let mut timeouts = 0;
        loop {
            match g.all_to_all_into(&send, &mut recv) {
                Ok(()) => return recv == transposed(rank, 2),
                Err(CommError::Timeout { .. }) if timeouts < 50 => timeouts += 1,
                Err(e) => panic!("unexpected error: {e:?}"),
            }
        }
    });
    assert_eq!(results, vec![true, true]);
}
