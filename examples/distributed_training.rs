//! Distributed MoE training on the paper's Fig. 2 layout: 4 ranks,
//! `N_DP = N_MP = N_EP = N_ESP = 2`, with real AlltoAll dispatch,
//! ESP-AllGather/ReduceScatter and expert sharding over the thread-backed
//! collectives runtime.
//!
//! Run with `cargo run --release -p models --example distributed_training`.

use collectives::{run_ranks, HybridTopology, ParallelDims};
use fsmoe::config::MoeConfig;
use fsmoe::layer::MoeLayer;
use tensor::TensorRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = MoeConfig::builder()
        .batch_size(1)
        .seq_len(16)
        .embed_dim(32)
        .hidden_dim(64)
        .num_experts(2)
        .top_k(1)
        .no_drop()
        .build()?;

    println!("training a 2-expert MoE layer across 4 ranks (Fig. 2 layout)");
    println!("  expert 0 → node 0 (ranks 0,1 hold one shard each)");
    println!("  expert 1 → node 1 (ranks 2,3 hold one shard each)\n");

    let cfg = config.clone();
    let results = run_ranks(4, move |comm| {
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
        .expect("Fig. 2 dims are valid");
        let mut layer = MoeLayer::gshard(&cfg, &comm, &topo, 99).expect("layer construction");

        // each rank trains on its own token block
        let mut data_rng = TensorRng::seed_from(500 + comm.rank() as u64);
        let input = data_rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
        let mut route_rng = TensorRng::seed_from(0);

        let target = data_rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
        let mut losses = Vec::new();
        for _ in 0..4 {
            let output = layer.forward(&input, &mut route_rng).expect("forward");
            let err = output.sub(&target).expect("shapes match");
            losses.push(err.map(|v| v * v).mean());
            let grad_out = err.scale(2.0 / output.num_elements() as f32);
            let grads = layer.backward(&grad_out).expect("backward");
            layer.apply_grads(&grads, 0.5).expect("sgd step");
        }
        (comm.rank(), losses)
    });

    for (rank, losses) in results {
        let formatted: Vec<String> = losses.iter().map(|l| format!("{l:8.3}")).collect();
        println!("rank {rank}: loss trajectory {}", formatted.join(" → "));
    }
    println!("\nevery rank's loss falls: the sharded experts receive correct");
    println!("gradients through AlltoAll + ESP-AllGather/ReduceScatter.");
    Ok(())
}
