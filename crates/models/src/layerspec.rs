//! Per-layer workload specification: attention + MoE.

use collectives::ParallelDims;
use fsmoe::config::MoeConfig;
use fsmoe::spec::{MoeLayerSpec, F32_BYTES};
use simnet::OpCosts;

/// The workload of one transformer layer (attention + MoE) on one GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransformerLayerSpec {
    /// Attention forward FLOPs per GPU.
    pub attn_flops: f64,
    /// Dense (DP-replicated, MP-sharded) parameter bytes per GPU —
    /// what Gradient-AllReduce must move for this layer.
    pub dense_param_bytes: f64,
    /// The MoE sub-layer volumes (forward phase).
    pub moe: MoeLayerSpec,
}

impl TransformerLayerSpec {
    /// Derives the workloads from a layer config and parallel layout.
    ///
    /// Attention forward FLOPs per GPU (with `t = B·L` tokens and the
    /// MP group sharding heads): `(8M² + 4LM)·t / N_MP` — four `M×M`
    /// projections plus the score/value batched GEMMs. The head count
    /// does not change FLOPs, only kernel shapes.
    pub fn new(config: &MoeConfig, dims: ParallelDims, heads: usize) -> Self {
        let _ = heads; // shapes only; FLOPs are head-count invariant
        let t = config.tokens() as f64;
        let m = config.embed_dim as f64;
        let l = config.seq_len as f64;
        let attn_flops = (8.0 * m * m + 4.0 * l * m) * t / dims.mp as f64;
        let dense_param_bytes = 4.0 * m * m / dims.mp as f64 * F32_BYTES;
        TransformerLayerSpec {
            attn_flops,
            dense_param_bytes,
            moe: MoeLayerSpec::from_config(config, dims),
        }
    }
}

/// Attention kernels (softmax, small per-head GEMMs, memory-bound
/// reshapes) run well below dense-GEMM peak; Table 2's measured
/// attention rows are ~3x what the raw FLOP count at the GEMM rate
/// predicts on both testbeds, so the same derating is applied here.
const ATTENTION_EFFICIENCY_DERATING: f64 = 3.0;

/// Attention forward time on a cluster: four projection GEMMs' startup
/// plus the FLOP volume at the (derated) GEMM rate.
pub fn attention_forward_time(costs: &OpCosts, spec: &TransformerLayerSpec) -> f64 {
    4.0 * costs.gemm.alpha + ATTENTION_EFFICIENCY_DERATING * spec.attn_flops * costs.gemm.beta
}

/// Attention backward time: twice the forward work (§4.4's rule applies
/// to dense GEMMs too).
pub fn attention_backward_time(costs: &OpCosts, spec: &TransformerLayerSpec) -> f64 {
    2.0 * attention_forward_time(costs, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmoe::config::FfnKind;
    use simnet::Testbed;

    fn spec() -> TransformerLayerSpec {
        let config = MoeConfig::builder()
            .batch_size(4)
            .seq_len(1024)
            .embed_dim(1600)
            .hidden_dim(6400)
            .num_experts(6)
            .top_k(2)
            .capacity_factor(1.2)
            .ffn(FfnKind::Gpt)
            .build()
            .unwrap();
        let dims = ParallelDims {
            dp: 6,
            mp: 8,
            ep: 6,
            esp: 8,
        };
        TransformerLayerSpec::new(&config, dims, 25)
    }

    #[test]
    fn attention_flops_scale_with_mp() {
        let s = spec();
        // doubling MP halves per-GPU attention work
        let config = MoeConfig::builder()
            .batch_size(4)
            .seq_len(1024)
            .embed_dim(1600)
            .hidden_dim(6400)
            .num_experts(6)
            .top_k(2)
            .capacity_factor(1.2)
            .build()
            .unwrap();
        let dims4 = ParallelDims {
            dp: 12,
            mp: 4,
            ep: 6,
            esp: 8,
        };
        let s4 = TransformerLayerSpec::new(&config, dims4, 25);
        assert!((s4.attn_flops / s.attn_flops - 2.0).abs() < 1e-9);
    }

    #[test]
    fn backward_attention_doubles_forward() {
        let costs = Testbed::a().costs;
        let s = spec();
        assert!(
            (attention_backward_time(&costs, &s) - 2.0 * attention_forward_time(&costs, &s)).abs()
                < 1e-12
        );
    }

    #[test]
    fn attention_time_is_the_derated_gemm_model() {
        // a modeled time, not a reading: four GEMM startups plus the
        // FLOP volume at a third of the GEMM rate (Table 2 reports GPT2
        // attention ≈ 1.7 ms forward on Testbed A; this spec models 0.6)
        let costs = Testbed::a().costs;
        let s = spec();
        let t = attention_forward_time(&costs, &s);
        assert_eq!(
            t,
            4.0 * costs.gemm.alpha + 3.0 * s.attn_flops * costs.gemm.beta
        );
        assert!(t > costs.gemm.time(s.attn_flops), "derating must cost");
    }

    #[test]
    fn dense_params_shrink_with_mp() {
        let s = spec();
        let expect = 4.0 * 1600.0 * 1600.0 / 8.0 * 4.0;
        assert!((s.dense_param_bytes - expect).abs() < 1.0);
    }
}
