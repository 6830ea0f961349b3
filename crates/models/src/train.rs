//! The training step, with an iteration-level span tree.
//!
//! [`dist_train_step`] is the smallest complete "one training
//! iteration" over a [`MoeLayer`] of any world shape: MSE loss against
//! a regression target, backward, SGD update. Each call opens a
//! `models/train_step` span so an exported trace nests models → fsmoe →
//! collectives — the top of the span taxonomy DESIGN.md §7 documents and
//! the `trace_training_step` example renders.

use fsmoe::layer::MoeLayer;
use fsmoe::Result;
use tensor::{Tensor, TensorRng};

/// Runs one SGD step of `layer` against an MSE target; returns the loss
/// before the step.
///
/// The step is spanned as `models/train_step` (with the loss and the
/// layer's rank as attributes) around the layer's own
/// `fsmoe/moe.forward` and `fsmoe/moe.backward` spans, plus a
/// `models/update` span for the parameter update.
///
/// # Errors
///
/// Propagates layer failures (shape errors, collective faults).
pub fn dist_train_step(
    layer: &mut MoeLayer,
    input: &Tensor,
    target: &Tensor,
    lr: f32,
    route_rng: &mut TensorRng,
) -> Result<f32> {
    let mut step_span = obs::span(obs::names::CAT_MODELS, obs::names::SPAN_TRAIN_STEP);
    let y = layer.forward(input, route_rng)?;
    let err = y.sub(target)?;
    let loss = err.map(|v| v * v).mean();
    let grad = err.scale(2.0 / y.num_elements() as f32);
    let grads = layer.backward(&grad)?;
    {
        let _update = obs::span(obs::names::CAT_MODELS, obs::names::SPAN_UPDATE);
        layer.apply_grads(&grads, lr)?;
    }
    step_span.attr("loss", loss);
    Ok(loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::{run_world_within, CommWorld, HybridTopology};
    use fsmoe::config::MoeConfig;
    use std::time::Duration;

    #[test]
    fn dist_step_reduces_loss() {
        let cfg = MoeConfig::builder()
            .batch_size(1)
            .seq_len(6)
            .embed_dim(8)
            .hidden_dim(16)
            .num_experts(2)
            .top_k(1)
            .no_drop()
            .build()
            .unwrap();
        let losses = run_world_within(CommWorld::new(2), Duration::from_secs(30), move |comm| {
            let topo = HybridTopology::flat(2).unwrap();
            let mut layer = MoeLayer::gshard(&cfg, &comm, &topo, 9).unwrap();
            let mut rng = TensorRng::seed_from(100 + comm.rank() as u64);
            let x = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
            let target = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
            let mut route_rng = TensorRng::seed_from(0);
            let first = dist_train_step(&mut layer, &x, &target, 0.2, &mut route_rng).unwrap();
            let mut last = first;
            for _ in 0..6 {
                last = dist_train_step(&mut layer, &x, &target, 0.2, &mut route_rng).unwrap();
            }
            (first, last)
        });
        for (first, last) in losses {
            assert!(last < first, "loss should fall: {first} → {last}");
        }
    }
}
