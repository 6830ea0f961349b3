//! The benchmark's fixed tables: workloads, shapes and metric names.
//!
//! `BENCHMARK.json` at the repo root is the contract (names, units,
//! directions, bounds); the tables here are what the code emits, and the
//! schema test in `main.rs` holds the two together.

use fsmoe::config::{FfnKind, MoeConfig};

/// GShard gate settings shared by every training workload.
pub const TOP_K: usize = 2;
pub const CAPACITY_FACTOR: f64 = 1.25;
pub const LN_EPS: f32 = 1e-5;
/// Seeded `normal(0,1)` batches per rank, built in set-up and cycled.
pub const BATCH_POOL: usize = 8;
/// Untimed steps that end set-up.
pub const WARMUP_STEPS: usize = 20;
/// Timed steps after which the loss is read (fixed, so `objective` does
/// not depend on how many steps fit into `--seconds`).
pub const QUALITY_STEPS: usize = 128;

/// Shape of one training workload (per rank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainShape {
    pub name: &'static str,
    pub ranks: usize,
    pub blocks: usize,
    /// Attention heads; `None` is the paper's configured-layer stack
    /// (LN + MoE + residual, no attention).
    pub heads: Option<usize>,
    pub tokens: usize,
    pub embed: usize,
    pub hidden: usize,
    pub experts: usize,
    pub ffn: FfnKind,
    /// SGD rate. The loss is a mean over every element, so gradients
    /// are small; each rate is at most half of one that still converges
    /// and makes the loss fall by a fifth or more within `QUALITY_STEPS`.
    pub lr: f32,
}

impl TrainShape {
    /// The per-rank MoE layer configuration.
    pub fn moe_config(&self) -> fsmoe::Result<MoeConfig> {
        MoeConfig::builder()
            .batch_size(1)
            .seq_len(self.tokens)
            .embed_dim(self.embed)
            .hidden_dim(self.hidden)
            .num_experts(self.experts)
            .top_k(TOP_K)
            .capacity_factor(CAPACITY_FACTOR)
            .ffn(self.ffn)
            .build()
    }

    /// The same per-rank shape on one rank (weak-scaling reference).
    pub fn single_rank(&self) -> TrainShape {
        TrainShape { ranks: 1, ..*self }
    }
}

pub const DENSE_1R: TrainShape = TrainShape {
    name: "dense_1r",
    ranks: 1,
    blocks: 2,
    heads: Some(4),
    tokens: 128,
    embed: 128,
    hidden: 512,
    experts: 4,
    ffn: FfnKind::Gpt,
    lr: 0.5,
};

pub const WIRE_2R: TrainShape = TrainShape {
    name: "wire_2r",
    ranks: 2,
    blocks: 2,
    heads: None,
    tokens: 512,
    embed: 256,
    hidden: 32,
    experts: 8,
    ffn: FfnKind::Gpt,
    lr: 4.0,
};

pub const FINE_2R: TrainShape = TrainShape {
    name: "fine_2r",
    ranks: 2,
    blocks: 4,
    heads: Some(4),
    tokens: 64,
    embed: 256,
    hidden: 128,
    experts: 8,
    ffn: FfnKind::Mixtral,
    lr: 0.5,
};

pub const PLAN_SWEEP: &str = "plan_sweep";

/// Every workload name, in run order.
pub const WORKLOADS: [&str; 4] = [DENSE_1R.name, WIRE_2R.name, FINE_2R.name, PLAN_SWEEP];

pub const TRAIN_SHAPES: [TrainShape; 3] = [DENSE_1R, WIRE_2R, FINE_2R];

/// The training shape behind a workload name.
pub fn train_shape(name: &str) -> Option<TrainShape> {
    TRAIN_SHAPES.into_iter().find(|s| s.name == name)
}

/// End-to-end metrics `(name, unit)`, emitted by every `--trace 0` run.
/// An *item* is one training step (throughput in tokens/s) or one
/// `plan_sweep` config (configs/s).
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput", "1/s"),
    ("latency_ms_p50", "ms"),
    ("objective", "loss"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)` of the `--trace 1` runs. The prefix
/// is the crate the number belongs to. A workload measures the ones whose
/// layer it runs (see README.md); the rest are absent from its results.
pub const PER_LAYER: [(&str, &str); 56] = [
    // driver spans, per step per rank
    ("models.attn_fwd_ms", "ms/step"),
    ("models.attn_bwd_ms", "ms/step"),
    ("models.update_ms", "ms/step"),
    ("fsmoe.moe_fwd_ms", "ms/step"),
    ("fsmoe.moe_bwd_ms", "ms/step"),
    // the program's own spans inside the MoE forward
    ("fsmoe.gate_ms", "ms/step"),
    ("fsmoe.dispatch_ms", "ms/step"),
    ("fsmoe.expert_compute_ms", "ms/step"),
    ("fsmoe.combine_ms", "ms/step"),
    // exact counts from last_routing()
    ("fsmoe.expert_rows_useful_ratio", "ratio"),
    ("fsmoe.dropped_tokens_per_step", "count"),
    ("fsmoe.load_imbalance", "ratio"),
    // collectives: the program's spans and counters
    ("collectives.all_to_all_ms", "ms/step"),
    ("collectives.all_gather_ms", "ms/step"),
    ("collectives.reduce_scatter_ms", "ms/step"),
    ("collectives.all_reduce_ms", "ms/step"),
    ("collectives.grad_allreduce_ms", "ms/step"),
    ("collectives.blocked_wait_ms", "ms/step"),
    ("collectives.share_pct", "%"),
    ("collectives.calls_per_step", "count"),
    ("collectives.bytes_per_step", "bytes"),
    ("tensor.glue_ms", "ms/step"),
    ("driver.self_ms", "ms/item"),
    // the untraced items of the traced run
    ("driver.latency_ms_p95", "ms/item"),
    ("obs.trace_overhead_pct", "%"),
    // layer probes: isolated calls at the workload's own shapes
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.matmul_par_speedup", "ratio"),
    ("tensor.matmul_grouped_gflops", "GFLOP/s"),
    ("tensor.matmul_small_us", "us/call"),
    ("tensor.matmul_backward_gflops", "GFLOP/s"),
    ("collectives.all_reduce_lat_us", "us/call"),
    ("collectives.all_to_all_lat_us", "us/call"),
    ("collectives.all_reduce_gbps", "GB/s"),
    ("collectives.all_to_all_gbps", "GB/s"),
    ("collectives.all_gather_gbps", "GB/s"),
    ("collectives.reduce_scatter_gbps", "GB/s"),
    ("fsmoe.gate_route_us", "us/call"),
    ("fsmoe.order_us", "us/call"),
    ("fsmoe.grouped_ffn_fwd_gflops", "GFLOP/s"),
    ("fsmoe.grouped_ffn_bwd_gflops", "GFLOP/s"),
    ("fsmoe.layer_fwd_tokens_per_s", "1/s"),
    ("models.attn_fwd_gflops", "GFLOP/s"),
    ("models.attn_bwd_gflops", "GFLOP/s"),
    ("models.weak_scaling_eff_2r", "ratio"),
    // the planning stack
    ("scheduler.plan_iteration_us", "us/plan"),
    ("scheduler.pipeline_degree_solve_us", "us/call"),
    ("scheduler.partition_gradients_us", "us/call"),
    ("scheduler.fwd_bwd_degree_differs_pct", "%"),
    ("baselines.lowering_us", "us/plan"),
    ("baselines.sim_speedup_vs_dsmoe", "ratio"),
    ("simnet.simulate_us", "us/plan"),
    ("simnet.tasks_per_s", "1/s"),
    ("simnet.tasks_per_plan", "count"),
    ("profiler.fit_us", "us/call"),
    ("profiler.fit_r2_min", "ratio"),
    // the whole traced process (`VmHWM` at exit, trace buffers included)
    ("process.peak_rss_mb", "MB"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract's grammar for workload and metric names.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// The contract's grammar for units.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn every_name_and_unit_fits_the_grammar_and_is_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        for w in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w), "{w}");
        }
    }

    #[test]
    fn grammar_rejects_what_the_contract_rejects() {
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name("fsmoe.moe_fwd_ms"));
        assert!(valid_unit("GFLOP/s") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("tokens per s"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn shapes_build_valid_layer_configs() {
        for s in TRAIN_SHAPES {
            let cfg = s.moe_config().unwrap();
            assert_eq!(cfg.tokens(), s.tokens);
            assert_eq!(s.experts % s.ranks, 0, "{}", s.name);
            if let Some(h) = s.heads {
                assert_eq!(s.embed % h, 0, "{}", s.name);
            }
        }
    }
}
