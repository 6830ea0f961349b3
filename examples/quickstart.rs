//! Quickstart: build an MoE layer, run a few training steps, inspect
//! routing statistics.
//!
//! Run with `cargo run --release -p models --example quickstart`.

use collectives::{Communicator, HybridTopology};
use fsmoe::config::{FfnKind, MoeConfig};
use fsmoe::layer::MoeLayer;
use tensor::TensorRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An MoE layer in the paper's notation: B=2 samples of L=32 tokens,
    // M=64 embedding, H=128 expert hidden size, E=8 experts, top-2
    // routing with capacity factor 1.2 (overflowing tokens are dropped).
    let config = MoeConfig::builder()
        .batch_size(2)
        .seq_len(32)
        .embed_dim(64)
        .hidden_dim(128)
        .num_experts(8)
        .top_k(2)
        .capacity_factor(1.2)
        .ffn(FfnKind::Mixtral)
        .build()?;

    // One rank: the exchange between tokens and experts is the identity.
    // Over a larger world the same constructor builds that rank's slice
    // (see examples/train_transformer.rs).
    let (comm, topo) = (Communicator::solo(), HybridTopology::flat(1)?);
    let mut layer = MoeLayer::gshard(&config, &comm, &topo, 42)?;
    let mut rng = TensorRng::seed_from(43);
    let input = rng.normal(&[config.tokens(), config.embed_dim], 0.0, 1.0);

    println!(
        "MoE layer: {} experts ({} params each), capacity T = {}",
        config.num_experts,
        config.params_per_expert(),
        config.capacity()
    );

    // Regress the layer onto a random target with plain SGD — a toy
    // objective that exercises the full forward + hand-written backward
    // path. loss = mean((y - target)^2), so dL/dy = 2(y - target)/n.
    let target = rng.normal(&[config.tokens(), config.embed_dim], 0.0, 1.0);
    for step in 0..5 {
        let output = layer.forward(&input, &mut rng)?;
        let err = output.sub(&target)?;
        let loss = err.map(|v| v * v).mean();
        let grad_out = err.scale(2.0 / output.num_elements() as f32);
        let grads = layer.backward(&grad_out)?;
        layer.apply_grads(&grads, 0.5)?;

        let routing = layer.last_routing().expect("forward ran");
        println!(
            "step {step}: loss {loss:8.5}  |  dropped {:4.1}% of assignments, \
             load imbalance (cv) {:.3}",
            100.0 * routing.drop_rate(),
            routing.load_imbalance()
        );
    }

    let routing = layer.last_routing().expect("forward ran");
    println!("\nexpert loads: {:?}", routing.expert_loads());
    Ok(())
}
