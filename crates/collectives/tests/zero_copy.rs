//! Nothing is staged and no view outlives its call.
//!
//! Collectives read a peer's payload straight out of the buffer the peer
//! passed in. So the one thing a caller may do the instant its call
//! returns — scribble over that buffer — must never reach a peer: every
//! rank here overwrites its send buffer with the *next* op's pattern
//! immediately after each call, reuses one `recv`, and checks every
//! result against the closed form. Seeded stragglers skew the arrivals,
//! so some rounds a rank is the first to finish and waits for its peers'
//! copies, and some rounds it is the one they wait for.

use std::time::Duration;

use collectives::{run_world_within, CommWorld, FaultInjector};

/// Watchdog budget: generous, but far below "hang forever".
const BUDGET: Duration = Duration::from_secs(60);
/// Elements each rank exchanges with each peer.
const CHUNK: usize = 48;
const OPS_PER_ROUND: usize = 5;

/// Element `j` of rank `src`'s payload for op `op`: small integers, so
/// every sum below is exact in `f32`.
fn elem(op: usize, src: usize, j: usize) -> f32 {
    ((op * 31 + src * 7 + j * 3) % 251) as f32
}

fn fill(buf: &mut [f32], op: usize, src: usize) {
    buf.iter_mut()
        .enumerate()
        .for_each(|(j, v)| *v = elem(op, src, j));
}

fn sum_over(n: usize, op: usize, j: usize) -> f32 {
    (0..n).map(|src| elem(op, src, j)).sum()
}

/// A deterministic sprinkle of 1 ms stragglers: about one op in 24, the
/// rank chosen by the same hash.
fn stragglers(n: usize, ops: usize, seed: u64) -> FaultInjector {
    let mut injector = FaultInjector::new();
    let mut state = seed;
    for op in 0..ops {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if (state >> 33).is_multiple_of(24) {
            let rank = (state >> 40) as usize % n;
            injector = injector.delay(rank, op, Duration::from_millis(1));
        }
    }
    injector
}

#[test]
fn every_op_reads_this_ops_payloads_while_callers_scribble_on_theirs() {
    let _doctor = parking_lot::lock_doctor::check_guard();
    for (n, rounds) in [(2usize, 300usize), (3, 200), (4, 200), (8, 100)] {
        let world = CommWorld::new(n).with_faults(stragglers(n, rounds * OPS_PER_ROUND, n as u64));
        run_world_within(world, BUDGET, move |comm| {
            let g = comm.world_group();
            let me = comm.rank();
            // `n·CHUNK + 1`: the in-place ops get a length `n` does not divide
            let mut send = vec![0.0f32; n * CHUNK + 1];
            let mut recv = Vec::new();
            fill(&mut send, 0, me);
            for round in 0..rounds {
                let op = round * OPS_PER_ROUND;
                let ctx = |what: &str| format!("{what}, round {round}, rank {me} of {n}");

                g.all_to_all_into(&send[..n * CHUNK], &mut recv).unwrap();
                fill(&mut send, op + 1, me);
                let want: Vec<f32> = (0..n * CHUNK)
                    .map(|i| elem(op, i / CHUNK, me * CHUNK + i % CHUNK))
                    .collect();
                assert_eq!(recv, want, "{}", ctx("all_to_all"));

                // unequal lengths: rank k gathers CHUNK + k elements
                g.all_gather_into(&send[..CHUNK + me], &mut recv).unwrap();
                fill(&mut send, op + 2, me);
                let want: Vec<f32> = (0..n)
                    .flat_map(|src| (0..CHUNK + src).map(move |j| elem(op + 1, src, j)))
                    .collect();
                assert_eq!(recv, want, "{}", ctx("all_gather"));

                g.reduce_scatter_into(&send[..n * CHUNK], &mut recv)
                    .unwrap();
                fill(&mut send, op + 3, me);
                let want: Vec<f32> = (0..CHUNK)
                    .map(|j| sum_over(n, op + 2, me * CHUNK + j))
                    .collect();
                assert_eq!(recv, want, "{}", ctx("reduce_scatter"));

                g.all_reduce(&mut send).unwrap();
                let want: Vec<f32> = (0..send.len()).map(|j| sum_over(n, op + 3, j)).collect();
                assert_eq!(send, want, "{}", ctx("all_reduce"));
                fill(&mut send, op + 4, me);

                let root = round % n;
                g.broadcast(root, &mut send).unwrap();
                let want: Vec<f32> = (0..send.len()).map(|j| elem(op + 4, root, j)).collect();
                assert_eq!(send, want, "{}", ctx("broadcast"));
                fill(&mut send, op + 5, me);
            }
        });
    }
}

#[test]
fn all_reduce_slices_cover_lengths_the_group_does_not_divide() {
    let _doctor = parking_lot::lock_doctor::check_guard();
    for n in [2usize, 3, 4, 8] {
        let lens = [0, 1, n - 1, n, n + 1, 3 * n + 2, 5000];
        let world = CommWorld::new(n).with_faults(stragglers(n, 4 * lens.len(), 7));
        run_world_within(world, BUDGET, move |comm| {
            let g = comm.world_group();
            for (op, len) in lens.into_iter().cycle().take(4 * lens.len()).enumerate() {
                let mut data = vec![0.0f32; len];
                fill(&mut data, op, comm.rank());
                g.all_reduce(&mut data).unwrap();
                let want: Vec<f32> = (0..len).map(|j| sum_over(n, op, j)).collect();
                assert_eq!(data, want, "len {len} on {n} ranks, op {op}");
            }
        });
    }
}

#[test]
fn a_dropped_payload_reads_as_zeros_and_leaves_the_droppers_buffer_alone() {
    let _doctor = parking_lot::lock_doctor::check_guard();
    const N: usize = 3;
    const DROPPER: usize = 1;
    // one drop per op kind, on the dropper's ops 0..5
    let injector = (0..OPS_PER_ROUND).fold(FaultInjector::new(), |inj, op| {
        inj.drop_payload(DROPPER, op)
    });
    let world = CommWorld::new(N).with_faults(injector);
    run_world_within(world, BUDGET, |comm| {
        let g = comm.world_group();
        let me = comm.rank();
        // what member `src` contributes: the dropper's payload reads as zeros
        let sent = |src: usize, j: usize| {
            if src == DROPPER {
                0.0
            } else {
                elem(0, src, j)
            }
        };
        let mut send = vec![0.0f32; N * CHUNK];
        let mut recv = Vec::new();

        fill(&mut send, 0, me);
        let before = send.clone();
        g.all_to_all_into(&send, &mut recv).unwrap();
        let want: Vec<f32> = (0..N * CHUNK)
            .map(|i| sent(i / CHUNK, me * CHUNK + i % CHUNK))
            .collect();
        assert_eq!(recv, want, "all_to_all, rank {me}");
        assert_eq!(
            send, before,
            "a send buffer is never written, dropped or not"
        );

        g.all_gather_into(&send[..CHUNK + me], &mut recv).unwrap();
        let want: Vec<f32> = (0..N)
            .flat_map(|src| (0..CHUNK + src).map(move |j| sent(src, j)))
            .collect();
        assert_eq!(recv, want, "all_gather, rank {me}");

        g.reduce_scatter_into(&send, &mut recv).unwrap();
        let want: Vec<f32> = (0..CHUNK)
            .map(|j| (0..N).map(|src| sent(src, me * CHUNK + j)).sum())
            .collect();
        assert_eq!(recv, want, "reduce_scatter, rank {me}");
        assert_eq!(send, before);

        let mut data = before.clone();
        g.all_reduce(&mut data).unwrap();
        let want: Vec<f32> = (0..N * CHUNK)
            .map(|j| (0..N).map(|src| sent(src, j)).sum())
            .collect();
        assert_eq!(data, want, "all_reduce, rank {me}");

        // a dropped root broadcasts zeros — to itself as well
        let mut data = before.clone();
        g.broadcast(DROPPER, &mut data).unwrap();
        assert_eq!(data, vec![0.0; N * CHUNK], "broadcast, rank {me}");
    });
}
