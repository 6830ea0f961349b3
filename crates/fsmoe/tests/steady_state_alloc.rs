//! A training step in steady state allocates nothing tensor-sized.
//!
//! Every `Tensor`, packing buffer and collective staging slot is drawn
//! from (and returned to) a recycler, so after a few warm-up steps a
//! forward + backward + update of a 2-rank, 2-layer MoE stack must run
//! entirely in memory the previous step left behind. The proof is a
//! count from a counting allocator on the rank threads — not a time —
//! taken over an expert-parallel world (`ep = 2`: two real AlltoAlls per
//! pass, one-rank ESP groups) and an expert-sharded one (`esp = 2`: real
//! AllGather and ReduceScatter).

use collectives::{run_ranks, HybridTopology, ParallelDims};
use fsmoe::config::MoeConfig;
use fsmoe::layer::MoeLayer;
use tensor::{Tensor, TensorRng};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

const RANKS: usize = 2;
const LAYERS: usize = 2;
const WARMUP_STEPS: usize = 3;

/// Forward through every layer, backward with the output as its own
/// gradient, SGD on the expert shards.
fn train_step(layers: &mut [MoeLayer], input: &Tensor, rng: &mut TensorRng) -> fsmoe::Result<()> {
    let mut x = input.clone();
    for layer in layers.iter_mut() {
        x = layer.forward(&x, rng)?;
    }
    let mut grad = x.scale(1e-3);
    for layer in layers.iter_mut().rev() {
        let grads = layer.backward(&grad)?;
        layer.apply_grads(&grads, 0.05)?;
        grad = grads.input;
    }
    Ok(())
}

#[test]
fn a_warm_two_rank_two_layer_step_makes_no_large_allocation() {
    // (256, 128) activations are 128 KiB: every tensor of the step is
    // "large"
    let config = MoeConfig::builder()
        .batch_size(1)
        .seq_len(256)
        .embed_dim(128)
        .hidden_dim(256)
        .num_experts(4)
        .top_k(2)
        .build()
        .unwrap();
    for (ep, esp) in [(RANKS, 1), (1, RANKS)] {
        let config = config.clone();
        let large = run_ranks(RANKS, move |comm| {
            let dims = ParallelDims {
                dp: RANKS,
                mp: 1,
                ep,
                esp,
            };
            let topo = HybridTopology::new(1, RANKS, dims).unwrap();
            let mut layers: Vec<MoeLayer> = (0..LAYERS as u64)
                .map(|l| MoeLayer::gshard(&config, &comm, &topo, 11 + l).unwrap())
                .collect();
            let mut rng = TensorRng::seed_from(100 + comm.rank() as u64);
            let input = rng.normal(&[config.tokens(), config.embed_dim], 0.0, 1.0);
            for _ in 0..WARMUP_STEPS {
                train_step(&mut layers, &input, &mut rng).unwrap();
            }
            let (result, _, large) =
                counting_alloc::count(|| train_step(&mut layers, &input, &mut rng));
            result.unwrap();
            large
        });
        assert_eq!(
            large,
            vec![0; RANKS],
            "allocations ≥ {} KiB per rank in a warm step (ep {ep}, esp {esp})",
            counting_alloc::LARGE >> 10
        );
    }
}
