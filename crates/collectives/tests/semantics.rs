//! Multi-rank semantic tests: every collective's algebraic post-condition,
//! exercised over real threads.

use collectives::{run_ranks, CommWorld, HybridTopology, ParallelDims, RUN_RANKS_DEADLINE};

/// A rank-divergent op in a test built on `run_ranks` times out
/// instead of hanging the suite: every rank, and every group it binds,
/// carries the harness's hang bound.
#[test]
fn run_ranks_arms_its_deadline_on_every_communicator() {
    let deadlines = run_ranks(3, |comm| (comm.deadline(), comm.world_group().deadline()));
    let armed = Some(RUN_RANKS_DEADLINE);
    assert_eq!(deadlines, vec![(armed, armed); 3]);
}

#[test]
fn all_reduce_is_elementwise_sum() {
    let results = run_ranks(4, |comm| {
        let g = comm.world_group();
        let mut data = vec![comm.rank() as f32, 10.0 * comm.rank() as f32];
        g.all_reduce(&mut data).unwrap();
        data
    });
    for r in results {
        assert_eq!(r, vec![6.0, 60.0]);
    }
}

#[test]
fn all_gather_concatenates_in_rank_order() {
    let results = run_ranks(3, |comm| {
        let g = comm.world_group();
        g.all_gather(&[comm.rank() as f32, -(comm.rank() as f32)])
            .unwrap()
    });
    for r in results {
        assert_eq!(r, vec![0.0, 0.0, 1.0, -1.0, 2.0, -2.0]);
    }
}

#[test]
fn reduce_scatter_sums_then_slices() {
    let results = run_ranks(2, |comm| {
        let g = comm.world_group();
        // rank 0: [1,2,3,4], rank 1: [10,20,30,40] → sum [11,22,33,44]
        let base = if comm.rank() == 0 { 1.0 } else { 10.0 };
        let data: Vec<f32> = (1..=4).map(|i| base * i as f32).collect();
        g.reduce_scatter(&data).unwrap()
    });
    assert_eq!(results[0], vec![11.0, 22.0]);
    assert_eq!(results[1], vec![33.0, 44.0]);
}

#[test]
fn reduce_scatter_then_all_gather_equals_all_reduce() {
    let results = run_ranks(4, |comm| {
        let g = comm.world_group();
        let data: Vec<f32> = (0..8).map(|i| (comm.rank() * 8 + i) as f32).collect();
        let scattered = g.reduce_scatter(&data).unwrap();
        let via_rs_ag = g.all_gather(&scattered).unwrap();
        let mut via_ar = data;
        g.all_reduce(&mut via_ar).unwrap();
        (via_rs_ag, via_ar)
    });
    for (a, b) in results {
        assert_eq!(a, b);
    }
}

#[test]
fn all_to_all_transposes_chunks() {
    let results = run_ranks(3, |comm| {
        let g = comm.world_group();
        // rank r sends value r*10 + destination
        let data: Vec<f32> = (0..3).map(|d| (comm.rank() * 10 + d) as f32).collect();
        g.all_to_all(&data).unwrap()
    });
    // rank d receives [0d, 1d, 2d]
    for (d, r) in results.iter().enumerate() {
        let expect: Vec<f32> = (0..3).map(|s| (s * 10 + d) as f32).collect();
        assert_eq!(r, &expect);
    }
}

#[test]
fn all_to_all_is_an_involution_for_two_ranks() {
    let results = run_ranks(2, |comm| {
        let g = comm.world_group();
        let data: Vec<f32> = (0..6).map(|i| (comm.rank() * 100 + i) as f32).collect();
        let once = g.all_to_all(&data).unwrap();
        let twice = g.all_to_all(&once).unwrap();
        (data, twice)
    });
    for (orig, round_trip) in results {
        assert_eq!(orig, round_trip);
    }
}

#[test]
fn all_to_all_preserves_multiset() {
    let results = run_ranks(4, |comm| {
        let g = comm.world_group();
        let data: Vec<f32> = (0..8).map(|i| (comm.rank() * 8 + i) as f32).collect();
        (data.clone(), g.all_to_all(&data).unwrap())
    });
    let mut sent: Vec<f32> = results.iter().flat_map(|(s, _)| s.clone()).collect();
    let mut recv: Vec<f32> = results.iter().flat_map(|(_, r)| r.clone()).collect();
    sent.sort_by(f32::total_cmp);
    recv.sort_by(f32::total_cmp);
    assert_eq!(sent, recv);
}

#[test]
fn broadcast_copies_root() {
    let results = run_ranks(3, |comm| {
        let g = comm.world_group();
        let mut data = vec![comm.rank() as f32 + 1.0; 4];
        g.broadcast(1, &mut data).unwrap();
        data
    });
    for r in results {
        assert_eq!(r, vec![2.0; 4]);
    }
}

#[test]
fn bad_buffer_lengths_error() {
    let results = run_ranks(2, |comm| {
        let g = comm.world_group();
        let a2a_err = g.all_to_all(&[1.0, 2.0, 3.0]).is_err();
        let rs_err = g.reduce_scatter(&[1.0]).is_err();
        let bcast_err = g.broadcast(5, &mut [1.0]).is_err();
        // A real collective afterwards still works (errors don't poison).
        let mut v = vec![1.0];
        g.all_reduce(&mut v).unwrap();
        (a2a_err, rs_err, bcast_err, v[0])
    });
    for (a, b, c, sum) in results {
        assert!(a && b && c);
        assert_eq!(sum, 2.0);
    }
}

#[test]
fn disjoint_subgroups_operate_independently() {
    let results = run_ranks(4, |comm| {
        let pair = if comm.rank() < 2 {
            vec![0, 1]
        } else {
            vec![2, 3]
        };
        let g = comm.subgroup(&pair).unwrap();
        let mut v = vec![comm.rank() as f32];
        g.all_reduce(&mut v).unwrap();
        v[0]
    });
    assert_eq!(results, vec![1.0, 1.0, 5.0, 5.0]);
}

#[test]
fn overlapping_group_families_compose() {
    // The Fig. 2 scenario: intra-node MP groups and cross-node EP groups
    // used back to back by all 4 ranks.
    let topo = HybridTopology::new(
        2,
        2,
        ParallelDims {
            dp: 2,
            mp: 2,
            ep: 2,
            esp: 2,
        },
    )
    .unwrap();
    let results = run_ranks(4, move |comm| {
        let mp = comm.subgroup(&topo.mp_group(comm.rank())).unwrap();
        let ep = comm.subgroup(&topo.ep_group(comm.rank())).unwrap();
        let mut v = vec![comm.rank() as f32];
        mp.all_reduce(&mut v).unwrap(); // {0,1}→1, {2,3}→5
        ep.all_reduce(&mut v).unwrap(); // {0,2}: 1+5=6; {1,3}: 1+5=6
        v[0]
    });
    assert_eq!(results, vec![6.0; 4]);
}

#[test]
fn repeated_collectives_do_not_cross_talk() {
    // Back-to-back collectives on one group must not leak state between
    // generations even when some ranks race ahead.
    let results = run_ranks(3, |comm| {
        let g = comm.world_group();
        let mut totals = Vec::new();
        for round in 0..50 {
            let mut v = vec![(comm.rank() + round) as f32];
            g.all_reduce(&mut v).unwrap();
            totals.push(v[0]);
        }
        totals
    });
    for r in results {
        for (round, v) in r.iter().enumerate() {
            assert_eq!(*v, (3 * round + 3) as f32);
        }
    }
}

#[test]
fn barrier_synchronizes() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let counter = Arc::new(AtomicUsize::new(0));
    let c2 = Arc::clone(&counter);
    let results = run_ranks(4, move |comm| {
        let g = comm.world_group();
        c2.fetch_add(1, Ordering::SeqCst);
        g.barrier().unwrap();
        // after the barrier, every rank must observe all 4 arrivals
        c2.load(Ordering::SeqCst)
    });
    for r in results {
        assert_eq!(r, 4);
    }
}

#[test]
fn large_world_all_reduce() {
    let n = 16;
    let results = run_ranks(n, move |comm| {
        let g = comm.world_group();
        let mut v = vec![1.0f32; 1000];
        g.all_reduce(&mut v).unwrap();
        v
    });
    for r in results {
        assert!(r.iter().all(|&v| v == n as f32));
    }
}

#[test]
fn world_size_accessor() {
    let w = CommWorld::new(5);
    assert_eq!(w.size(), 5);
}
