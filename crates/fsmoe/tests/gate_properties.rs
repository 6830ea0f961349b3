//! Property-based tests over the gate families: routing invariants that
//! must hold for any input, any gate, any capacity.

use fsmoe::gate::{ExpertChoiceGate, GShardGate, Gate, SigmoidGate, SoftMoeGate, XMoeGate};
use fsmoe::order::{GShardOrdering, OrderFn, TutelOrdering};
use fsmoe::routing::{Routing, RoutingBuilder};
use proptest::prelude::*;
use tensor::{Tensor, TensorRng};

fn gates(embed: usize, experts: usize, k: usize, seed: u64) -> Vec<Box<dyn Gate>> {
    let mut rng = TensorRng::seed_from(seed);
    vec![
        Box::new(GShardGate::new(embed, experts, k, &mut rng)),
        Box::new(SigmoidGate::new(embed, experts, k, &mut rng)),
        Box::new(XMoeGate::new(
            embed,
            (embed / 2).max(2),
            experts,
            k,
            &mut rng,
        )),
        Box::new(SoftMoeGate::new(embed, experts, k, &mut rng)),
        Box::new(ExpertChoiceGate::new(embed, experts, &mut rng)),
    ]
}

/// The token-choice skeleton as it was before the gates selected once
/// per token: a dense `Tensor::top_k` over the scores, weights computed
/// per token into a fresh `Vec` from whole-matrix tensors.
fn dense_token_choice(
    scores: &Tensor,
    k: usize,
    capacity: usize,
    weight_of: impl Fn(usize, &[usize], &[f32]) -> Vec<f32>,
) -> Routing {
    let (tokens, experts) = (scores.dims()[0], scores.dims()[1]);
    let topk = scores.top_k(k).unwrap();
    let mut builder = RoutingBuilder::new(tokens, experts, capacity);
    for t in 0..tokens {
        let weights = weight_of(t, &topk.indices[t], &topk.values[t]);
        for (&e, &w) in topk.indices[t].iter().zip(&weights) {
            builder.assign(t, e, w);
        }
    }
    builder.finish()
}

/// `Softmax(KeepTopK(scores, k))` weights, the dense way.
fn dense_kept_softmax(scores: &Tensor, k: usize, capacity: usize) -> Routing {
    let experts = scores.dims()[1];
    let probs = scores.keep_top_k(k).unwrap().softmax().unwrap();
    dense_token_choice(scores, k, capacity, |t, idx, _| {
        idx.iter().map(|&e| probs.data()[t * experts + e]).collect()
    })
}

/// What each of `gates(..)` must route, computed the dense way from the
/// gate's exported weights.
fn dense_reference(gate: &dyn Gate, input: &Tensor, k: usize, capacity: usize) -> Routing {
    let w = gate.export_weights();
    let experts = gate.num_experts();
    match gate.name() {
        "gshard" => dense_kept_softmax(&input.matmul(&w[0]).unwrap(), k, capacity),
        "sigmoid" => {
            dense_token_choice(&input.matmul(&w[0]).unwrap(), k, capacity, |_, _, vals| {
                vals.iter().map(|&v| 1.0 / (1.0 + (-v).exp())).collect()
            })
        }
        "xmoe" => {
            let projected = input.matmul(&w[0]).unwrap().l2_normalize(1e-8).unwrap();
            let embed = w[1].transpose().unwrap().l2_normalize(1e-8).unwrap();
            let scores = projected.matmul(&embed.transpose().unwrap()).unwrap();
            dense_kept_softmax(&scores.scale(1.0 / 0.07), k, capacity)
        }
        "softmoe" => {
            let logits = input.matmul(&w[0]).unwrap();
            let probs = logits.softmax().unwrap();
            dense_token_choice(&logits, k, capacity, |t, idx, _| {
                idx.iter().map(|&e| probs.data()[t * experts + e]).collect()
            })
        }
        "expert_choice" => {
            let tokens = input.dims()[0];
            let scores = input.matmul(&w[0]).unwrap().transpose().unwrap();
            let chosen = scores.top_k(capacity.min(tokens)).unwrap();
            let mut builder = RoutingBuilder::new(tokens, experts, capacity);
            for e in 0..experts {
                let vals = &chosen.values[e];
                let max = vals.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let exp: Vec<f32> = vals.iter().map(|v| (v - max).exp()).collect();
                let denom: f32 = exp.iter().sum();
                for (&t, &ev) in chosen.indices[e].iter().zip(&exp) {
                    builder.assign(t, e, ev / denom);
                }
            }
            builder.finish()
        }
        other => panic!("no reference for gate {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_gate_routes_exactly_what_the_dense_path_routed(
        tokens in 1usize..24,
        experts in 2usize..9,
        capacity in 1usize..16,
        tied in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let embed = 8usize;
        let k = 1 + (seed % 3) as usize % experts;
        let mut rng = TensorRng::seed_from(seed);
        let mut input = rng.normal(&[tokens, embed], 0.0, 1.0);
        // an all-zero token scores every expert the same
        input.data_mut()[..embed].fill(0.0);
        for mut gate in gates(embed, experts, k, seed) {
            if tied {
                // every expert's projection column equals its neighbour's:
                // each score ties with another on every token
                let mut weights = gate.export_weights();
                let scorer = usize::from(gate.name() == "xmoe"); // (d_low, E) embeddings
                let cols = weights[scorer].dims()[1];
                for row in weights[scorer].data_mut().chunks_mut(cols) {
                    for e in (1..cols).step_by(2) {
                        row[e] = row[e - 1];
                    }
                }
                gate.import_weights(&weights).unwrap();
            }
            let got = gate.route(&input, capacity, &mut TensorRng::seed_from(1)).unwrap();
            let want = dense_reference(gate.as_ref(), &input, k, capacity);
            // assignments, slots, drops — and the weights to the bit
            prop_assert_eq!(&got, &want, "{}", gate.name());
            let bits = |r: &Routing| r.assignments().iter().map(|a| a.weight.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want), "{}", gate.name());
        }
    }

    #[test]
    fn all_gates_produce_valid_routings(
        tokens in 1usize..24,
        experts in 2usize..6,
        capacity in 1usize..16,
        seed in any::<u64>(),
    ) {
        let embed = 8usize;
        let k = 2.min(experts);
        let mut rng = TensorRng::seed_from(seed);
        let input = rng.normal(&[tokens, embed], 0.0, 1.0);
        for gate in gates(embed, experts, k, seed) {
            let mut route_rng = TensorRng::seed_from(1);
            let routing = gate.route(&input, capacity, &mut route_rng).unwrap();
            // capacity respected for every expert
            for load in routing.expert_loads() {
                prop_assert!(load <= capacity, "{}: load {load} > {capacity}", gate.name());
            }
            // every assignment indexes a real token/expert with a finite,
            // non-negative weight; slots unique per expert
            let mut seen = std::collections::BTreeSet::new();
            for a in routing.assignments() {
                prop_assert!(a.token < tokens);
                prop_assert!(a.expert < experts);
                prop_assert!(a.slot < capacity);
                prop_assert!(a.weight.is_finite() && a.weight >= 0.0);
                prop_assert!(seen.insert((a.expert, a.slot)),
                    "{}: duplicate slot", gate.name());
            }
            prop_assert!(routing.drop_rate() >= 0.0 && routing.drop_rate() <= 1.0);
        }
    }

    #[test]
    fn token_choice_gates_assign_each_token_at_most_k_times(
        tokens in 1usize..20,
        seed in any::<u64>(),
    ) {
        let (embed, experts, k) = (8usize, 4usize, 2usize);
        let mut rng = TensorRng::seed_from(seed);
        let input = rng.normal(&[tokens, embed], 0.0, 1.0);
        // all but the expert-choice gate are token-choice
        for gate in gates(embed, experts, k, seed).into_iter().take(4) {
            let mut route_rng = TensorRng::seed_from(2);
            let routing = gate.route(&input, 1000, &mut route_rng).unwrap();
            let mut per_token = vec![0usize; tokens];
            for a in routing.assignments() {
                per_token[a.token] += 1;
            }
            for (t, &count) in per_token.iter().enumerate() {
                prop_assert!(count <= k, "{}: token {t} assigned {count} times", gate.name());
            }
        }
    }

    #[test]
    fn orderings_agree_for_every_gate(
        tokens in 1usize..16,
        capacity in 1usize..8,
        seed in any::<u64>(),
    ) {
        let (embed, experts, k) = (8usize, 3usize, 2usize);
        let mut rng = TensorRng::seed_from(seed);
        let input = rng.normal(&[tokens, embed], 0.0, 1.0);
        let gshard = GShardOrdering::new();
        let tutel = TutelOrdering::new();
        for gate in gates(embed, experts, k, seed) {
            let mut route_rng = TensorRng::seed_from(3);
            let routing = gate.route(&input, capacity, &mut route_rng).unwrap();
            let a = gshard.order(&input, &routing).unwrap();
            let b = tutel.order(&input, &routing).unwrap();
            prop_assert!(a.allclose(&b, 1e-5), "{}: orderings diverged", gate.name());
            let out_a = gshard.inverse(&a, &routing).unwrap();
            let out_b = tutel.inverse(&b, &routing).unwrap();
            prop_assert!(out_a.allclose(&out_b, 1e-4));
        }
    }

    #[test]
    fn expert_choice_is_perfectly_balanced(
        tokens in 4usize..32,
        experts in 2usize..6,
        seed in any::<u64>(),
    ) {
        let embed = 8usize;
        let mut rng = TensorRng::seed_from(seed);
        let gate = ExpertChoiceGate::new(embed, experts, &mut rng);
        let input = rng.normal(&[tokens, embed], 0.0, 1.0);
        let capacity = (tokens / 2).max(1);
        let mut route_rng = TensorRng::seed_from(4);
        let routing = gate.route(&input, capacity, &mut route_rng).unwrap();
        let loads = routing.expert_loads();
        prop_assert!(loads.iter().all(|&l| l == capacity.min(tokens)));
        prop_assert_eq!(routing.load_imbalance(), 0.0);
    }
}
