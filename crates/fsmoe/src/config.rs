//! MoE layer configuration.
//!
//! Field names follow the paper's notation table (Table 1): `B` samples
//! per GPU, `L` tokens per sample, `M` embedding size, `H` expert hidden
//! size, `E` experts, `k` experts per token, `f` the capacity factor.

use crate::{MoeError, Result};

/// The expert feed-forward architecture (Table 4's *ffn-type*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FfnKind {
    /// "simple": the conventional two-layer GPT feed-forward
    /// (`GeLU(x·W1)·W2`) — 2 GEMMs.
    Gpt,
    /// The Mixtral SwiGLU expert (`(SiLU(x·W1) ⊙ x·W3)·W2`) — 3 GEMMs.
    Mixtral,
}

impl FfnKind {
    /// GEMMs per expert application; the paper scales `α_exp`, `β_exp` by
    /// this count (§4.1).
    pub fn gemms(self) -> usize {
        match self {
            FfnKind::Gpt => 2,
            FfnKind::Mixtral => 3,
        }
    }
}

impl std::fmt::Display for FfnKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FfnKind::Gpt => write!(f, "simple"),
            FfnKind::Mixtral => write!(f, "Mixtral"),
        }
    }
}

/// Configuration of one MoE layer.
///
/// Construct through [`MoeConfig::builder`], which validates all fields.
#[derive(Debug, Clone, PartialEq)]
pub struct MoeConfig {
    /// Samples per GPU (`B`).
    pub batch_size: usize,
    /// Tokens per sample (`L`).
    pub seq_len: usize,
    /// Token embedding size (`M`).
    pub embed_dim: usize,
    /// Expert hidden size (`H`).
    pub hidden_dim: usize,
    /// Total number of experts (`E`).
    pub num_experts: usize,
    /// Experts selected per token (`k`).
    pub top_k: usize,
    /// Capacity factor (`f`). `None` reproduces the paper's `f = *`:
    /// tokens are never dropped (capacity grows to fit).
    pub capacity_factor: Option<f64>,
    /// Expert architecture.
    pub ffn: FfnKind,
}

impl MoeConfig {
    /// Starts building a configuration.
    pub fn builder() -> MoeConfigBuilder {
        MoeConfigBuilder::default()
    }

    /// Tokens per GPU per iteration (`B·L`).
    pub fn tokens(&self) -> usize {
        self.batch_size * self.seq_len
    }

    /// The per-expert capacity `T = k·f·B·L/E` (Table 1), rounded up, or
    /// `k·B·L` (every token could go to one expert) when `f = *`.
    pub fn capacity(&self) -> usize {
        match self.capacity_factor {
            Some(f) => {
                let t = (self.top_k as f64 * f * self.tokens() as f64 / self.num_experts as f64)
                    .ceil() as usize;
                t.max(1)
            }
            None => self.top_k * self.tokens(),
        }
    }

    /// Parameters of one full (unsharded) expert.
    pub fn params_per_expert(&self) -> usize {
        self.embed_dim * self.hidden_dim * self.ffn.gemms()
    }

    /// Forward FLOPs for one token through one expert (2·M·H per GEMM).
    pub fn flops_per_token(&self) -> f64 {
        2.0 * self.embed_dim as f64 * self.hidden_dim as f64 * self.ffn.gemms() as f64
    }
}

/// Builder for [`MoeConfig`]; all setters are chainable.
#[derive(Debug, Clone)]
pub struct MoeConfigBuilder {
    batch_size: usize,
    seq_len: usize,
    embed_dim: usize,
    hidden_dim: usize,
    num_experts: usize,
    top_k: usize,
    capacity_factor: Option<f64>,
    ffn: FfnKind,
}

impl Default for MoeConfigBuilder {
    fn default() -> Self {
        MoeConfigBuilder {
            batch_size: 1,
            seq_len: 128,
            embed_dim: 64,
            hidden_dim: 128,
            num_experts: 4,
            top_k: 2,
            capacity_factor: Some(1.2),
            ffn: FfnKind::Gpt,
        }
    }
}

impl MoeConfigBuilder {
    /// Sets `B`, samples per GPU.
    pub fn batch_size(&mut self, v: usize) -> &mut Self {
        self.batch_size = v;
        self
    }

    /// Sets `L`, tokens per sample.
    pub fn seq_len(&mut self, v: usize) -> &mut Self {
        self.seq_len = v;
        self
    }

    /// Sets `M`, the embedding size.
    pub fn embed_dim(&mut self, v: usize) -> &mut Self {
        self.embed_dim = v;
        self
    }

    /// Sets `H`, the expert hidden size.
    pub fn hidden_dim(&mut self, v: usize) -> &mut Self {
        self.hidden_dim = v;
        self
    }

    /// Sets `E`, the number of experts.
    pub fn num_experts(&mut self, v: usize) -> &mut Self {
        self.num_experts = v;
        self
    }

    /// Sets `k`, experts per token.
    pub fn top_k(&mut self, v: usize) -> &mut Self {
        self.top_k = v;
        self
    }

    /// Sets the capacity factor `f`; [`MoeConfigBuilder::no_drop`] sets
    /// the paper's `f = *`.
    pub fn capacity_factor(&mut self, v: f64) -> &mut Self {
        self.capacity_factor = Some(v);
        self
    }

    /// Disables token dropping (`f = *`).
    pub fn no_drop(&mut self) -> &mut Self {
        self.capacity_factor = None;
        self
    }

    /// Sets the expert architecture.
    pub fn ffn(&mut self, v: FfnKind) -> &mut Self {
        self.ffn = v;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::BadConfig`] when any size is zero, `top_k`
    /// exceeds the expert count, the capacity factor is non-positive, or
    /// the per-expert capacity reaches `2^24` rows.
    pub fn build(&self) -> Result<MoeConfig> {
        let positive = [
            ("batch_size", self.batch_size),
            ("seq_len", self.seq_len),
            ("embed_dim", self.embed_dim),
            ("hidden_dim", self.hidden_dim),
            ("num_experts", self.num_experts),
            ("top_k", self.top_k),
        ];
        for (field, v) in positive {
            if v == 0 {
                return Err(MoeError::BadConfig {
                    field,
                    reason: "must be positive".into(),
                });
            }
        }
        if self.top_k > self.num_experts {
            return Err(MoeError::BadConfig {
                field: "top_k",
                reason: format!("{} exceeds num_experts {}", self.top_k, self.num_experts),
            });
        }
        if let Some(f) = self.capacity_factor {
            if !(f.is_finite() && f > 0.0) {
                return Err(MoeError::BadConfig {
                    field: "capacity_factor",
                    reason: format!("{f} must be positive and finite"),
                });
            }
        }
        let config = MoeConfig {
            batch_size: self.batch_size,
            seq_len: self.seq_len,
            embed_dim: self.embed_dim,
            hidden_dim: self.hidden_dim,
            num_experts: self.num_experts,
            top_k: self.top_k,
            capacity_factor: self.capacity_factor,
            ffn: self.ffn,
        };
        // a wire block's row count travels in an `f32` header
        if config.capacity() >= 1 << f32::MANTISSA_DIGITS {
            return Err(MoeError::BadConfig {
                field: "capacity",
                reason: format!("{} rows per expert is not below 2^24", config.capacity()),
            });
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_valid() {
        let c = MoeConfig::builder().build().unwrap();
        assert_eq!(c.tokens(), 128);
        assert_eq!(c.ffn, FfnKind::Gpt);
    }

    #[test]
    fn capacity_formula_matches_paper() {
        // T = k·f·B·L/E
        let c = MoeConfig::builder()
            .batch_size(4)
            .seq_len(1024)
            .num_experts(8)
            .top_k(2)
            .capacity_factor(1.2)
            .build()
            .unwrap();
        assert_eq!(c.capacity(), (2.0f64 * 1.2 * 4096.0 / 8.0).ceil() as usize);
    }

    #[test]
    fn no_drop_capacity_fits_everything() {
        let c = MoeConfig::builder()
            .batch_size(1)
            .seq_len(16)
            .num_experts(4)
            .top_k(2)
            .no_drop()
            .build()
            .unwrap();
        // worst case: all 16 tokens pick the same expert twice-over bound
        assert_eq!(c.capacity(), 32);
    }

    #[test]
    fn capacity_is_at_least_one() {
        let c = MoeConfig::builder()
            .batch_size(1)
            .seq_len(1)
            .num_experts(8)
            .top_k(1)
            .capacity_factor(0.5)
            .build()
            .unwrap();
        assert_eq!(c.capacity(), 1);
    }

    #[test]
    fn validation_rejects_bad_fields() {
        assert!(MoeConfig::builder().top_k(0).build().is_err());
        assert!(MoeConfig::builder()
            .num_experts(2)
            .top_k(3)
            .build()
            .is_err());
        assert!(MoeConfig::builder().capacity_factor(0.0).build().is_err());
        assert!(MoeConfig::builder()
            .capacity_factor(f64::INFINITY)
            .build()
            .is_err());
        assert!(MoeConfig::builder().embed_dim(0).build().is_err());
        // capacity k·B·L = 2^24 does not fit the wire header; one less does
        let mut huge = MoeConfig::builder();
        huge.batch_size(1 << 12).seq_len(1 << 12).top_k(1).no_drop();
        assert!(matches!(
            huge.build(),
            Err(MoeError::BadConfig {
                field: "capacity",
                ..
            })
        ));
        assert!(huge.seq_len((1 << 12) - 1).build().is_ok());
    }

    #[test]
    fn ffn_gemm_counts() {
        assert_eq!(FfnKind::Gpt.gemms(), 2);
        assert_eq!(FfnKind::Mixtral.gemms(), 3);
        assert_eq!(FfnKind::Gpt.to_string(), "simple");
        assert_eq!(FfnKind::Mixtral.to_string(), "Mixtral");
    }

    #[test]
    fn derived_quantities() {
        let c = MoeConfig::builder()
            .embed_dim(8)
            .hidden_dim(16)
            .ffn(FfnKind::Mixtral)
            .build()
            .unwrap();
        assert_eq!(c.params_per_expert(), 8 * 16 * 3);
        assert_eq!(c.flops_per_token(), 2.0 * 8.0 * 16.0 * 3.0);
    }
}
