//! The layout invariant, as properties: a row lives at
//! `row_base[expert] + slot`, and nothing but that row index depends on
//! which base a [`Routing`] carries — the gate-fresh capacity-padded
//! block form, an [`ExpertMap`]'s wire slots ([`Routing::into_placed`])
//! or pad-free groups ([`Routing::into_dense`]). Buffer-shaped results
//! differ only by where their rows sit; token-shaped results are equal
//! bit for bit, because they accumulate in assignment order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use collectives::{run_ranks, Communicator, HybridTopology, ParallelDims};
use fsmoe::config::MoeConfig;
use fsmoe::expert::{build_expert, Expert, ExpertGrads, ExpertState};
use fsmoe::gate::Gate;
use fsmoe::hooks::NoopHooks;
use fsmoe::layer::MoeLayer;
use fsmoe::order::{combine_backward, order_backward, GShardOrdering, OrderFn, TutelOrdering};
use fsmoe::reshard::{ExpertMap, ReshardPlan};
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
        // a wire block is a header row, then the slot's `T` token rows
        for (routing, first) in [(placed, 1), (dense, 0)] {
            prop_assert_eq!(routing.expert_loads(), loads.clone(), "re-basing moves no token");
            let offsets = routing.group_offsets();
            prop_assert_eq!(offsets.len(), experts + 1);
            prop_assert_eq!((offsets[0], offsets[experts]), (first, routing.rows()));
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
        prop_assert_eq!(placed.rows(), c.map.n_ep() * c.map.slots_per_position() * (t + 1));
        let headers: Vec<usize> = (0..placed.rows()).step_by(t + 1).collect();
        prop_assert!(occupied(placed).iter().all(|r| !headers.contains(r)), "headers stay free");
        for (i, &e) in c.slot_order.iter().enumerate() {
            let (d, p) = (dense.group_offsets(), placed.group_offsets());
            prop_assert_eq!(d[i + 1] - d[i], loads[e], "dense groups are the loads");
            prop_assert_eq!(p[i], c.map.slot_of(e) * (t + 1) + 1, "placed groups start past their block's header");
        }
    }
}

// ---- the wire path computes on exactly the routed rows ----

/// Routes token `t` to the experts its first `k` input columns name.
#[derive(Debug)]
struct ScriptedGate {
    experts: usize,
    k: usize,
}

impl Gate for ScriptedGate {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn num_experts(&self) -> usize {
        self.experts
    }

    fn route(&self, input: &Tensor, capacity: usize, _rng: &mut TensorRng) -> Result<Routing> {
        let mut builder = RoutingBuilder::new(input.dims()[0], self.experts, capacity);
        for (t, row) in input.data().chunks(input.dims()[1]).enumerate() {
            for (j, &e) in row[..self.k].iter().enumerate() {
                builder.assign(t, e as usize, 0.75 - 0.5 * j as f32);
            }
        }
        Ok(builder.finish())
    }

    fn flops(&self, _tokens: usize) -> f64 {
        0.0
    }
}

/// An expert that counts the rows it is handed. Not groupable, so the
/// layer runs it over `offsets[e]..offsets[e + 1]` of the exchanged rows:
/// the count *is* the group offsets the expert compute received.
#[derive(Debug)]
struct Counted {
    inner: Box<dyn Expert>,
    id: usize,
    rows: Arc<Vec<AtomicUsize>>,
}

impl Expert for Counted {
    fn name(&self) -> &'static str {
        "counted"
    }

    fn forward(&self, x: &Tensor) -> Result<(Tensor, ExpertState)> {
        self.rows[self.id].fetch_add(x.dims()[0], Ordering::SeqCst);
        self.inner.forward(x)
    }

    fn backward(&self, grad_y: &Tensor, state: &ExpertState) -> Result<ExpertGrads> {
        self.inner.backward(grad_y, state)
    }

    fn weights(&self) -> Vec<&Tensor> {
        self.inner.weights()
    }

    fn apply_grads(&mut self, grads: &[Tensor], lr: f32) -> Result<()> {
        self.inner.apply_grads(grads, lr)
    }

    fn import_weights(&mut self, weights: &[Tensor]) -> Result<()> {
        self.inner.import_weights(weights)
    }

    fn flops_per_row(&self) -> f64 {
        self.inner.flops_per_row()
    }

    fn shard(&self, shard: usize, num_shards: usize) -> Result<Box<dyn Expert>> {
        Ok(Box::new(Counted {
            inner: self.inner.shard(shard, num_shards)?,
            id: self.id,
            rows: Arc::clone(&self.rows),
        }))
    }
}

/// The multi-rank worlds of the equivalence suite, by `(ranks, ep, esp)`.
#[derive(Debug, Clone, Copy)]
enum Wire {
    Two,
    Grid,
    Fig2,
}

impl Wire {
    fn topology(self) -> HybridTopology {
        let dims = |dp, mp, ep, esp| ParallelDims { dp, mp, ep, esp };
        match self {
            Wire::Two => HybridTopology::flat(2),
            Wire::Grid => HybridTopology::new(2, 2, dims(4, 1, 4, 1)),
            Wire::Fig2 => HybridTopology::new(2, 2, dims(2, 2, 2, 2)),
        }
        .unwrap()
    }
}

/// The experts of [`scripted_step`].
#[derive(Debug, Clone)]
enum Experts {
    /// [`Counted`] experts on the layer's block placement.
    Counted,
    /// The built-in experts — which compute on the wire buffer in place,
    /// through the grouped GEMM — on the given placement, or the block
    /// one.
    Grouped(Option<ExpertMap>),
}

/// One rank's layer over the scripted gate and experts of `kind`, one forward +
/// backward on `input`: output, input gradient, this rank's post-drop
/// loads, and the rows each counted expert was handed here.
fn scripted_step(
    config: &MoeConfig,
    comm: &Communicator,
    topo: &HybridTopology,
    kind: Experts,
    input: &Tensor,
) -> (Tensor, Tensor, Vec<usize>, Vec<usize>) {
    let rows: Arc<Vec<AtomicUsize>> = Arc::new(
        (0..config.num_experts)
            .map(|_| AtomicUsize::new(0))
            .collect(),
    );
    let mut rng = TensorRng::seed_from(5);
    let experts = (0..config.num_experts)
        .map(|id| -> Box<dyn Expert> {
            let inner = build_expert(config.ffn, config.embed_dim, config.hidden_dim, &mut rng);
            if matches!(kind, Experts::Grouped(_)) {
                return inner;
            }
            Box::new(Counted {
                inner,
                id,
                rows: Arc::clone(&rows),
            })
        })
        .collect();
    let gate = ScriptedGate {
        experts: config.num_experts,
        k: config.top_k,
    };
    let mut layer = MoeLayer::with_modules(
        config,
        Box::new(gate),
        Box::new(TutelOrdering::new()),
        experts,
        Box::new(NoopHooks),
        comm,
        topo,
    )
    .unwrap();
    if let Experts::Grouped(Some(map)) = kind {
        let checkpoint = layer.checkpoint_global().unwrap();
        layer
            .reshard(&ReshardPlan::custom(map), &checkpoint, comm, topo)
            .unwrap();
    }
    let y = layer.forward(input, &mut TensorRng::seed_from(0)).unwrap();
    let grads = layer.backward(&y.scale(0.5)).unwrap();
    let loads = layer.last_routing().unwrap().expert_loads();
    let seen = rows.iter().map(|r| r.load(Ordering::SeqCst)).collect();
    (y, grads.input, loads, seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random loads with an expert nobody picks, a rank whose tokens all
    /// go to remote experts, hot experts that overflow a small capacity,
    /// and `no_drop`: on every rank of every wire world each local expert
    /// is handed exactly the assignments routed to it — every computed
    /// row carries a token — and the numbers are the one-rank layer's.
    #[test]
    fn the_wire_path_computes_on_exactly_the_routed_rows(seed in any::<u64>()) {
        let mut state = seed | 1;
        let mut below = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let (experts, m) = (8usize, 4usize);
        let (tokens, k) = (1 + below(12), 1 + below(2));
        let mut builder = MoeConfig::builder();
        builder.batch_size(1).seq_len(tokens).embed_dim(m).hidden_dim(8).num_experts(experts).top_k(k);
        match below(3) {
            0 => builder.no_drop(),
            f => builder.capacity_factor(f as f64 * 0.5),
        };
        let config = builder.build().unwrap();
        let (empty, hot, remote_rank) = (below(experts), below(experts), below(2));
        for world in [Wire::Two, Wire::Fig2, Wire::Grid] {
            let topo = world.topology();
            let ranks = topo.world_size();
            let position = |r: usize| topo.ep_group(r).iter().position(|&q| q == r).unwrap();
            let map = ExpertMap::block(experts, topo.dims().ep).unwrap();
            // each rank's block: columns 0..k name the token's experts
            let inputs: Vec<Tensor> = (0..ranks)
                .map(|r| {
                    let allowed: Vec<usize> = (0..experts)
                        .filter(|&e| e != empty && (r != remote_rank || map.position_of(e) != position(r)))
                        .collect();
                    let mut x = TensorRng::seed_from(seed ^ r as u64).normal(&[tokens, m], 0.0, 1.0);
                    for row in x.data_mut().chunks_mut(m) {
                        let first = if allowed.contains(&hot) && below(3) > 0 {
                            allowed.iter().position(|&e| e == hot).unwrap()
                        } else {
                            below(allowed.len())
                        };
                        let second = (first + 1 + below(allowed.len() - 1)) % allowed.len();
                        (row[0], row[1]) = (allowed[first] as f32, allowed[second] as f32);
                    }
                    x
                })
                .collect();
            let solo = |experts: Experts, x: &Tensor| {
                scripted_step(&config, &Communicator::solo(), &HybridTopology::flat(1).unwrap(), experts, x)
            };
            let want: Vec<_> = inputs.iter().map(|x| solo(Experts::Counted, x)).collect();
            let on_world = |experts: Experts| {
                let (cfg, blocks) = (config.clone(), inputs.clone());
                run_ranks(ranks, move |comm| {
                    let (topo, x) = (world.topology(), &blocks[comm.rank()]);
                    scripted_step(&cfg, &comm, &topo, experts.clone(), x)
                })
            };
            let got = on_world(Experts::Counted);
            for (r, ((y, grad, loads, seen), (want_y, want_grad, want_loads, _))) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(loads, want_loads, "{:?} rank {}: the gate is the layer's own", world, r);
                if matches!(world, Wire::Fig2) {
                    prop_assert!(y.allclose(want_y, 1e-4) && grad.allclose(want_grad, 1e-4), "{:?} rank {}", world, r);
                } else {
                    prop_assert_eq!(bits(y.data()), bits(want_y.data()), "{:?} rank {} output", world, r);
                    prop_assert_eq!(bits(grad.data()), bits(want_grad.data()), "{:?} rank {} input grad", world, r);
                }
                // every source whose rows reach this rank: its ESP group's EP groups
                let sources: Vec<usize> = topo.esp_group(r).iter().flat_map(|&s| topo.ep_group(s)).collect();
                for (e, &handed) in seen.iter().enumerate() {
                    let routed: usize = sources.iter().map(|&q| got[q].2[e]).sum();
                    let here = map.position_of(e) == position(r);
                    prop_assert_eq!(handed, if here { routed } else { 0 }, "{:?} rank {} expert {}", world, r, e);
                }
                prop_assert_eq!(seen[empty], 0);
            }
            let kept: usize = got.iter().map(|g| g.2.iter().sum::<usize>()).sum();
            let computed: usize = got.iter().map(|g| g.3.iter().sum::<usize>()).sum();
            prop_assert_eq!(computed, kept * topo.dims().esp, "useful ratio 1.0: {:?}", world);

            // The grouped experts read each block's counted rows where the
            // wire left them and write their outputs at the same rows —
            // on the block placement and (where experts are whole, as a
            // re-shard needs) on a lopsided one whose short EP position
            // sends pad slots — with the one-rank layer's numbers.
            let n_ep = topo.dims().ep;
            let mut lists = vec![vec![]; n_ep];
            for e in 0..experts {
                lists[if e == 0 { 0 } else { 1 + e % (n_ep - 1) }].push(e);
            }
            let lopsided = ExpertMap::from_lists(lists).unwrap();
            prop_assert!(!lopsided.is_uniform());
            let want: Vec<_> = inputs.iter().map(|x| solo(Experts::Grouped(None), x)).collect();
            let placements = if topo.dims().esp == 1 { vec![None, Some(lopsided)] } else { vec![None] };
            for placement in placements {
                let got = on_world(Experts::Grouped(placement.clone()));
                for (r, ((y, grad, ..), (want_y, want_grad, ..))) in got.iter().zip(&want).enumerate() {
                    if matches!(world, Wire::Fig2) {
                        prop_assert!(y.allclose(want_y, 1e-4) && grad.allclose(want_grad, 1e-4), "{:?} rank {}", world, r);
                    } else {
                        prop_assert_eq!(bits(y.data()), bits(want_y.data()), "{:?} {:?} rank {} output", world, placement, r);
                        prop_assert_eq!(bits(grad.data()), bits(want_grad.data()), "{:?} {:?} rank {} input grad", world, placement, r);
                    }
                }
            }
        }
    }
}
