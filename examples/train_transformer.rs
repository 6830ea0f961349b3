//! Train the MoE transformer on N ranks through the program's own step
//! ([`MoeTransformer::train_step`]): forward, loss, hand-written
//! backward (§4.4), data-parallel all-reduce of the attention
//! gradients, SGD — over the thread-backed collectives runtime.
//!
//! ```text
//! cargo run --release -p models --example train_transformer
//!     2 ranks, two causal-attention + Mixtral-FFN MoE blocks
//! … -- fig2
//!     the paper's Fig. 2 layout, N_DP = N_MP = N_EP = N_ESP = 2 on 4
//!     ranks, configured layers (no attention): AlltoAll dispatch plus
//!     ESP-AllGather/ReduceScatter over sharded experts
//! … -- digest dense_1r|wire_2r|fine_2r SEED
//!     the benchmark's workload of that name, rebuilt from parts with
//!     the benchmark's sub-seeds and traced: prints the `loss_digest`
//!     `benchmark/run.sh --workload W --seed SEED` prints (ci.sh holds
//!     the two equal) and the collectives issued per step
//! ```

use collectives::{run_ranks, HybridTopology, ParallelDims};
use fsmoe::config::{FfnKind, MoeConfig};
use fsmoe::layer::MoeLayer;
use models::attention::MultiHeadAttention;
use models::{MoeTransformer, TransformerBlock};
use tensor::TensorRng;

type Res<T> = Result<T, Box<dyn std::error::Error>>;

fn main() -> Res<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let mut small = MoeConfig::builder();
    small.batch_size(1).seq_len(24).embed_dim(32).hidden_dim(64);
    match args[..] {
        [] => {
            println!("2 ranks × 2 blocks: 4-head causal attention + 4-expert Mixtral-FFN MoE\n");
            let config = small.num_experts(4).top_k(2).capacity_factor(2.0);
            let config = config.ffn(FfnKind::Mixtral).build()?;
            train(HybridTopology::flat(2)?, config, Some(4), 2, 0.3);
        }
        ["fig2"] => {
            println!("4 ranks, Fig. 2 layout: expert 0 → node 0, expert 1 → node 1,");
            println!("each sharded over its node's two ranks\n");
            let (dp, mp, ep, esp) = (2, 2, 2, 2);
            let topo = HybridTopology::new(2, 2, ParallelDims { dp, mp, ep, esp })?;
            train(
                topo,
                small.num_experts(2).top_k(1).no_drop().build()?,
                None,
                1,
                0.5,
            );
        }
        ["digest", workload, seed] => digest(workload, seed.parse()?)?,
        _ => return Err("usage: train_transformer [fig2 | digest WORKLOAD SEED]".into()),
    }
    Ok(())
}

/// Trains `depth` blocks for 8 steps on every rank of `topo`'s world,
/// each rank on its own token block; prints the loss trajectories.
fn train(topo: HybridTopology, config: MoeConfig, heads: Option<usize>, depth: usize, lr: f32) {
    let losses = run_ranks(topo.world_size(), move |comm| {
        let mut model =
            MoeTransformer::new(&config, heads, depth, &comm, &topo, 11).expect("model builds");
        let mut data_rng = TensorRng::seed_from(500 + comm.rank() as u64);
        let dims = [config.tokens(), config.embed_dim];
        let x = data_rng.normal(&dims, 0.0, 1.0);
        let target = data_rng.normal(&dims, 0.0, 1.0);
        let mut route_rng = TensorRng::seed_from(0);
        let step = |_| model.train_step(&x, &target, lr, &mut route_rng);
        (0..8).map(step).collect::<fsmoe::Result<Vec<f32>>>()
    });
    for (rank, losses) in losses.into_iter().enumerate() {
        let losses = losses.expect("training step");
        let line: Vec<String> = losses.iter().map(|l| format!("{l:.3}")).collect();
        println!("rank {rank}: loss {}", line.join(" → "));
    }
    println!("\nevery rank's loss falls: gradients flow through the collectives of");
    println!("the layout (AlltoAll, ESP-AllGather/ReduceScatter, DP-AllReduce).");
}

/// SplitMix64, as `benchmark/src/stats.rs` derives its sub-seeds.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The benchmark's run of `workload` — same weights (attention from
/// sub-seed `100 + b`, layer `200 + b`), routing stream (`300 + rank`),
/// batch pool (8 batches from `1000 + rank`, cycled) and step count (20
/// warm-up + 128) — through `MoeTransformer::train_step`.
fn digest(workload: &str, seed: u64) -> Res<()> {
    // `benchmark/src/spec.rs`'s training shapes
    let (ranks, blocks, heads, tokens, embed, hidden, experts, ffn, lr) = match workload {
        "dense_1r" => (1, 2u64, Some(4), 128, 128, 512, 4, FfnKind::Gpt, 0.5),
        "wire_2r" => (2, 2, None, 512, 256, 32, 8, FfnKind::Gpt, 4.0),
        "fine_2r" => (2, 4, Some(4), 64, 256, 128, 8, FfnKind::Mixtral, 0.5),
        _ => return Err("unknown workload".into()),
    };
    let config = MoeConfig::builder()
        .batch_size(1)
        .seq_len(tokens)
        .embed_dim(embed)
        .hidden_dim(hidden)
        .num_experts(experts)
        .top_k(2)
        .capacity_factor(1.25)
        .ffn(ffn)
        .build()?;
    let session = obs::session();
    let losses = run_ranks(ranks, move |comm| -> fsmoe::Result<Vec<f32>> {
        let topo = HybridTopology::flat(ranks)?;
        let block = |b| {
            let attention = match heads {
                Some(h) => {
                    let mut rng = TensorRng::seed_from(sub_seed(seed, 100 + b));
                    Some(MultiHeadAttention::new(embed, h, &mut rng)?.causal())
                }
                None => None,
            };
            let moe = MoeLayer::gshard(&config, &comm, &topo, sub_seed(seed, 200 + b))?;
            Ok(TransformerBlock::from_parts(attention, moe))
        };
        let blocks = (0..blocks).map(block).collect::<fsmoe::Result<_>>()?;
        let mut model = MoeTransformer::from_blocks(blocks, &comm, &topo)?;
        let rank = comm.rank() as u64;
        let mut route_rng = TensorRng::seed_from(sub_seed(seed, 300 + rank));
        let mut data_rng = TensorRng::seed_from(sub_seed(seed, 1000 + rank));
        let mut batch = || data_rng.normal(&[tokens, embed], 0.0, 1.0);
        let pool: Vec<_> = (0..8).map(|_| (batch(), batch())).collect();
        let step = |i: usize| {
            let (x, target) = &pool[i % pool.len()];
            model.train_step(x, target, lr, &mut route_rng)
        };
        (0..20 + 128).map(step).collect()
    });
    let snap = session.snapshot();
    drop(session);

    // FNV-1a over the loss bits, rank by rank (`stats::bits_digest`)
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let losses = losses.into_iter().collect::<fsmoe::Result<Vec<_>>>()?;
    for loss in losses.concat() {
        for b in loss.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    println!("loss_digest {h:016x}");
    let steps = snap.spans_named(obs::names::SPAN_TRAIN_STEP).len();
    let collectives = snap.spans_in(obs::names::CAT_COLLECTIVES).len();
    println!("collectives_per_step {}", collectives as f64 / steps as f64);
    Ok(())
}
