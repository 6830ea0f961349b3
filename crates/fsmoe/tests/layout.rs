//! The layout invariant, as properties: a row lives at
//! `row_base[expert] + slot`, and nothing but that row index depends on
//! which base a [`Routing`] carries — the gate-fresh capacity-padded
//! block form, an [`ExpertMap`]'s wire slots ([`Routing::into_placed`])
//! or pad-free groups ([`Routing::into_dense`]). Buffer-shaped results
//! differ only by where their rows sit; token-shaped results are equal
//! bit for bit, because they accumulate in assignment order.

use fsmoe::order::{combine_backward, order_backward, GShardOrdering, OrderFn, TutelOrdering};
use fsmoe::reshard::ExpertMap;
use fsmoe::routing::{Routing, RoutingBuilder};
use fsmoe::Result;
use proptest::prelude::*;
use tensor::{Tensor, TensorRng};

/// Embedding width of every buffer here.
const M: usize = 3;

/// One random routing under each base, with the placement behind the
/// last two.
struct Case {
    map: ExpertMap,
    /// Gate-fresh, placed on `map`, dense in `map`'s slot order.
    bases: [Routing; 3],
    /// Experts in `map`'s slot order.
    slot_order: Vec<usize>,
    rng: TensorRng,
}

/// Uneven and empty experts, capacity drops, `k ∈ {1, 2}`, zero weights;
/// block, dealt and scattered (non-uniform, pad slots) placements.
fn case(seed: u64) -> Case {
    let mut state = seed | 1;
    let mut below = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let (tokens, experts, capacity) = (1 + below(10), 1 + below(8), 1 + below(5));
    let k = 1 + below(experts.min(2));
    let active = 1 + below(experts); // experts beyond stay (mostly) empty
    let mut builder = RoutingBuilder::new(tokens, experts, capacity);
    for t in 0..tokens {
        let first = below(active);
        builder.assign(t, first, below(8) as f32 / 7.0);
        if k == 2 {
            let second = (first + 1 + below(experts - 1)) % experts;
            builder.assign(t, second, below(8) as f32 / 7.0);
        }
    }
    let fresh = builder.finish();

    let positions = 1 + below(experts.min(4));
    let map = match below(3) {
        0 if experts.is_multiple_of(positions) => ExpertMap::block(experts, positions),
        0 => ExpertMap::block(experts, 1),
        kind => {
            // dealt round-robin, or one expert each and the rest anywhere
            let mut lists = vec![Vec::new(); positions];
            for e in 0..experts {
                let p = if kind == 1 || e < positions {
                    e % positions
                } else {
                    below(positions)
                };
                lists[p].push(experts - 1 - e);
            }
            ExpertMap::from_lists(lists)
        }
    }
    .unwrap();
    let slot_order = (0..map.n_ep())
        .flat_map(|p| map.experts_on(p).to_vec())
        .collect();
    let placed = fresh.clone().into_placed(&map);
    let dense = fresh.clone().into_dense(&map);
    Case {
        map,
        bases: [fresh, placed, dense],
        slot_order,
        rng: TensorRng::seed_from(seed),
    }
}

/// One of the four row movements.
type Movement = fn(&Tensor, &Routing) -> Result<Tensor>;

fn tutel_order(x: &Tensor, routing: &Routing) -> Result<Tensor> {
    TutelOrdering::new().order(x, routing)
}

fn tutel_inverse(r: &Tensor, routing: &Routing) -> Result<Tensor> {
    TutelOrdering::new().inverse(r, routing)
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The buffer rows assignments occupy, ascending.
fn occupied(routing: &Routing) -> Vec<usize> {
    let mut rows: Vec<usize> = routing
        .assignments()
        .iter()
        .map(|a| routing.row_of(a))
        .collect();
    rows.sort_unstable();
    rows
}

/// The buffer over `routing` holding, for every assignment, the row the
/// `dense` buffer holds for it; rows nobody occupies are zero.
fn corresponding(dense_buffer: &Tensor, dense: &Routing, routing: &Routing) -> Tensor {
    let mut buffer = Tensor::zeros(&[routing.rows(), M]);
    for (a, d) in routing.assignments().iter().zip(dense.assignments()) {
        let (dst, src) = (routing.row_of(a) * M, dense.row_of(d) * M);
        buffer.data_mut()[dst..dst + M].copy_from_slice(&dense_buffer.data()[src..src + M]);
    }
    buffer
}

fn dot(a: &Tensor, b: &Tensor) -> f32 {
    a.mul(b).unwrap().sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn buffers_differ_only_by_where_their_rows_sit(seed in any::<u64>()) {
        let mut c = case(seed);
        let [fresh, placed, dense] = &c.bases;
        let x = c.rng.normal(&[fresh.num_tokens(), M], 0.0, 1.0);
        // the gate-fresh form is the placed form of the one-position block map
        let fresh_dense = fresh.clone().into_dense(&ExpertMap::block(fresh.num_experts(), 1).unwrap());
        for (padded, dense) in [(placed, dense), (fresh, &fresh_dense)] {
            for movement in [tutel_order as Movement, combine_backward] {
                let wide = movement(&x, padded).unwrap();
                let tight = movement(&x, dense).unwrap();
                prop_assert_eq!(wide.dims(), &[padded.rows(), M]);
                prop_assert_eq!(tight.dims(), &[dense.assignments().len(), M]);
                let rows = occupied(padded);
                let kept: Vec<f32> = rows
                    .iter()
                    .flat_map(|&r| wide.data()[r * M..(r + 1) * M].to_vec())
                    .collect();
                prop_assert_eq!(bits(&kept), bits(tight.data()));
                for r in (0..padded.rows()).filter(|r| rows.binary_search(r).is_err()) {
                    prop_assert_eq!(bits(&wide.data()[r * M..(r + 1) * M]), [0; M], "row {}", r);
                }
            }
        }
    }

    #[test]
    fn token_results_are_identical_on_every_base(seed in any::<u64>()) {
        let mut c = case(seed);
        let dense = &c.bases[2];
        let rows = c.rng.normal(&[dense.rows(), M], 0.0, 1.0);
        for movement in [tutel_inverse as Movement, order_backward] {
            let want = movement(&rows, dense).unwrap();
            for routing in &c.bases {
                let got = movement(&corresponding(&rows, dense, routing), routing).unwrap();
                prop_assert_eq!(bits(got.data()), bits(want.data()));
            }
        }
    }

    #[test]
    fn backward_movements_are_the_adjoints(seed in any::<u64>()) {
        let mut c = case(seed);
        for routing in &c.bases {
            let x = c.rng.normal(&[routing.num_tokens(), M], 0.0, 1.0);
            let r = c.rng.normal(&[routing.rows(), M], 0.0, 1.0);
            // <order(x), r> = <x, order_backward(r)>
            let lhs = dot(&tutel_order(&x, routing).unwrap(), &r);
            let rhs = dot(&x, &order_backward(&r, routing).unwrap());
            prop_assert!((lhs - rhs).abs() < 1e-4, "order: {} vs {}", lhs, rhs);
            // <inverse(r), g> = <r, combine_backward(g)>
            let lhs = dot(&tutel_inverse(&r, routing).unwrap(), &x);
            let rhs = dot(&r, &combine_backward(&x, routing).unwrap());
            prop_assert!((lhs - rhs).abs() < 1e-4, "combine: {} vs {}", lhs, rhs);
        }
    }

    #[test]
    fn the_einsum_reference_agrees_on_every_base(seed in any::<u64>()) {
        let mut c = case(seed);
        let gshard = GShardOrdering::new();
        for routing in &c.bases {
            let x = c.rng.normal(&[routing.num_tokens(), M], 0.0, 1.0);
            let r = c.rng.normal(&[routing.rows(), M], 0.0, 1.0);
            let (got, want) = (gshard.order(&x, routing).unwrap(), tutel_order(&x, routing).unwrap());
            prop_assert!(got.allclose(&want, 1e-6));
            let (got, want) = (gshard.inverse(&r, routing).unwrap(), tutel_inverse(&r, routing).unwrap());
            prop_assert!(got.allclose(&want, 1e-5));
        }
    }

    #[test]
    fn group_offsets_partition_the_rows_in_slot_order(seed in any::<u64>()) {
        let c = case(seed);
        let [fresh, placed, dense] = &c.bases;
        let (experts, t) = (fresh.num_experts(), fresh.capacity());
        let loads = fresh.expert_loads();
        prop_assert_eq!(fresh.group_offsets(), (0..=experts).map(|e| e * t).collect::<Vec<_>>());
        for routing in [placed, dense] {
            prop_assert_eq!(routing.expert_loads(), loads.clone(), "re-basing moves no token");
            let offsets = routing.group_offsets();
            prop_assert_eq!(offsets.len(), experts + 1);
            prop_assert_eq!((offsets[0], offsets[experts]), (0, routing.rows()));
            // every assignment on a row of its own, inside its expert's group
            let mut rows = occupied(routing);
            rows.dedup();
            prop_assert_eq!(rows.len(), routing.assignments().len());
            for a in routing.assignments() {
                let i = c.slot_order.iter().position(|&e| e == a.expert).unwrap();
                prop_assert!((offsets[i]..offsets[i + 1]).contains(&routing.row_of(a)));
            }
        }
        prop_assert_eq!(dense.rows(), dense.assignments().len());
        prop_assert_eq!(placed.rows(), c.map.n_ep() * c.map.slots_per_position() * t);
        for (i, &e) in c.slot_order.iter().enumerate() {
            let (d, p) = (dense.group_offsets(), placed.group_offsets());
            prop_assert_eq!(d[i + 1] - d[i], loads[e], "dense groups are the loads");
            prop_assert_eq!(p[i], c.map.slot_of(e) * t, "placed groups start at wire slots");
        }
    }
}
