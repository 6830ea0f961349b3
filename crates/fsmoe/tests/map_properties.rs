//! Property tests over [`ExpertMap::from_lists`] and the padded slot
//! layout: any non-uniform placement round-trips its lookups, gives
//! every expert one slot among its position's leading ones (pads
//! trail), and rejects malformed placements with typed errors. What the
//! order functions do with those slots is `tests/layout.rs`.

use fsmoe::reshard::ExpertMap;
use fsmoe::MoeError;
use proptest::prelude::*;

/// Deterministic split of a seeded permutation of `0..experts` into
/// `positions` non-empty lists — an arbitrary valid non-uniform layout.
fn random_lists(experts: usize, positions: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut ids: Vec<usize> = (0..experts).collect();
    for i in (1..experts).rev() {
        ids.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    // Every position gets one expert up front; the rest scatter.
    let mut lists: Vec<Vec<usize>> = ids[..positions].iter().map(|&e| vec![e]).collect();
    for &e in &ids[positions..] {
        let p = (next() % positions as u64) as usize;
        lists[p].push(e);
    }
    lists
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lookups_round_trip_on_any_placement(
        experts in 1usize..16,
        positions in 1usize..8,
        seed in any::<u64>(),
    ) {
        let positions = positions.min(experts);
        let lists = random_lists(experts, positions, seed);
        let map = ExpertMap::from_lists(lists.clone()).unwrap();
        prop_assert_eq!(map.num_experts(), experts);
        prop_assert_eq!(map.n_ep(), positions);
        for (p, list) in lists.iter().enumerate() {
            prop_assert_eq!(map.experts_on(p), list.as_slice());
            for &e in list {
                prop_assert_eq!(map.position_of(e), p);
            }
        }
        for e in 0..experts {
            prop_assert!(map.experts_on(map.position_of(e)).contains(&e));
        }
    }

    #[test]
    fn slot_layout_lists_every_expert_once_with_trailing_pads(
        experts in 1usize..16,
        positions in 1usize..8,
        seed in any::<u64>(),
    ) {
        let positions = positions.min(experts);
        let map = ExpertMap::from_lists(random_lists(experts, positions, seed)).unwrap();
        let slots = map.slots_per_position();
        prop_assert_eq!(
            slots,
            (0..positions).map(|p| map.experts_on(p).len()).max().unwrap()
        );
        for e in 0..experts {
            let (p, i) = (map.slot_of(e) / slots, map.slot_of(e) % slots);
            // a leading slot of its own position: distinct experts get
            // distinct slots, and pads can only trail
            prop_assert_eq!(map.experts_on(p).get(i), Some(&e));
        }
    }

    #[test]
    fn uniform_maps_are_exactly_the_equal_length_ones(
        experts in 1usize..16,
        positions in 1usize..8,
        seed in any::<u64>(),
    ) {
        let positions = positions.min(experts);
        let lists = random_lists(experts, positions, seed);
        let equal_lengths = lists.iter().all(|l| l.len() == lists[0].len());
        let map = ExpertMap::from_lists(lists).unwrap();
        prop_assert_eq!(map.is_uniform(), equal_lengths);
        if map.is_uniform() {
            prop_assert_eq!(map.slots_per_position() * positions, experts);
        }
    }

    #[test]
    fn duplicate_and_out_of_range_placements_are_rejected(
        experts in 2usize..12,
        positions in 1usize..6,
        seed in any::<u64>(),
    ) {
        let positions = positions.min(experts);
        let lists = random_lists(experts, positions, seed);

        // Duplicate: repeat the first expert somewhere.
        let mut dup = lists.clone();
        let repeated = dup[0][0];
        dup[positions - 1].push(repeated);
        match ExpertMap::from_lists(dup) {
            Err(MoeError::BadConfig { field, reason }) => {
                prop_assert_eq!(field, "expert_map");
                // The count bump makes either check fire first; both
                // name a concrete expert id.
                prop_assert!(
                    reason.contains("placed twice") || reason.contains("out of range"),
                    "{}", reason
                );
            }
            other => prop_assert!(false, "expected BadConfig, got {:?}", other),
        }

        // Out of range / missing: replace one expert with an id beyond
        // the (unchanged) total.
        let mut oor = lists.clone();
        oor[0][0] = experts + 7;
        match ExpertMap::from_lists(oor) {
            Err(MoeError::BadConfig { field, .. }) => prop_assert_eq!(field, "expert_map"),
            other => prop_assert!(false, "expected BadConfig, got {:?}", other),
        }

        // An empty position is rejected whenever one exists to empty.
        if positions > 1 {
            let mut empty = lists;
            let moved = std::mem::take(&mut empty[0]);
            empty[positions - 1].extend(moved);
            match ExpertMap::from_lists(empty) {
                Err(MoeError::BadConfig { reason, .. }) => {
                    prop_assert!(reason.contains("hosts no experts"), "{}", reason);
                }
                other => prop_assert!(false, "expected BadConfig, got {:?}", other),
            }
        }
    }

    #[test]
    fn migration_moves_exactly_one_expert(
        experts in 2usize..12,
        positions in 2usize..6,
        seed in any::<u64>(),
    ) {
        let positions = positions.min(experts);
        let map = ExpertMap::from_lists(random_lists(experts, positions, seed)).unwrap();
        // Pick the first expert whose source keeps >= 1 resident and a
        // destination that differs.
        let Some(expert) = (0..experts)
            .find(|&e| map.experts_on(map.position_of(e)).len() > 1)
        else {
            // Every position hosts exactly one expert: nothing movable.
            return Ok(());
        };
        let from = map.position_of(expert);
        let to = (from + 1) % positions;
        let moved = map.migrated(expert, to).unwrap();
        prop_assert_eq!(moved.position_of(expert), to);
        prop_assert_eq!(moved.experts_on(to).last(), Some(&expert));
        for e in (0..experts).filter(|&e| e != expert) {
            prop_assert_eq!(moved.position_of(e), map.position_of(e));
        }
        // Source order is preserved minus the migrant.
        let expected: Vec<usize> = map
            .experts_on(from)
            .iter()
            .copied()
            .filter(|&e| e != expert)
            .collect();
        prop_assert_eq!(moved.experts_on(from), expected.as_slice());
    }
}
