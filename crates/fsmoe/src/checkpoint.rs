//! Checkpointing: serialisable weight bundles.
//!
//! A [`LayerCheckpoint`] captures every trainable tensor of an
//! [`MoeLayer`](crate::layer::MoeLayer) — gate projections and all `E`
//! experts' weights, assembled by
//! [`checkpoint_global`](crate::layer::MoeLayer::checkpoint_global) and
//! installed by [`restore_full`](crate::layer::MoeLayer::restore_full).
//! A [`ModelCheckpoint`] is a stack of them, each with the replicated
//! dense weights (attention) of its block: the unit that is persisted,
//! as plain data with a JSON wire form, so training state survives
//! process restarts (and, in the paper's setting, re-scheduling
//! decisions: the checkpoint is schedule-independent because the data
//! plane is).
//!
//! On-disk durability is crash-safe: [`ModelCheckpoint::save`] writes a
//! temporary sibling file and renames it over the target, so a crash
//! mid-write leaves either the old checkpoint or the new one — never a
//! torn file. Restore rejects truncated or NaN/∞-bearing payloads with
//! [`MoeError::CorruptCheckpoint`] instead of loading garbage weights.

use std::path::Path;

use jsonio::Json;
use tensor::Tensor;

use crate::{MoeError, Result};

/// All trainable weights of one MoE layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCheckpoint {
    /// The gate family the weights belong to (validated on restore).
    pub gate_name: String,
    /// Gate weights in [`crate::gate::Gate::export_weights`] order.
    pub gate: Vec<Tensor>,
    /// Per-expert weights in [`crate::expert::Expert::weights`] order.
    pub experts: Vec<Vec<Tensor>>,
}

impl LayerCheckpoint {
    /// Total parameters captured.
    pub fn num_params(&self) -> usize {
        self.gate.iter().map(Tensor::num_elements).sum::<usize>()
            + self
                .experts
                .iter()
                .flatten()
                .map(Tensor::num_elements)
                .sum::<usize>()
    }

    fn to_value(&self) -> Json {
        Json::obj([
            ("gate_name", Json::from(self.gate_name.as_str())),
            ("gate", tensors_to_json(&self.gate)),
            (
                "experts",
                Json::Arr(self.experts.iter().map(|ws| tensors_to_json(ws)).collect()),
            ),
        ])
    }

    fn from_value(doc: &Json) -> Result<LayerCheckpoint> {
        let gate_name = doc
            .get("gate_name")
            .and_then(Json::as_str)
            .map_err(bad_json)?;
        let experts = doc
            .get("experts")
            .and_then(Json::as_arr)
            .map_err(bad_json)?
            .iter()
            .map(tensors_from_json)
            .collect::<Result<Vec<_>>>()?;
        Ok(LayerCheckpoint {
            gate_name: gate_name.to_string(),
            gate: tensors_from_json(doc.get("gate").map_err(bad_json)?)?,
            experts,
        })
    }
}

/// One block of a [`ModelCheckpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct BlockCheckpoint {
    /// The block's replicated dense weights (attention projections) in
    /// their owner's order; empty for a block without attention. Every
    /// data-parallel replica holds the same values, so taking them
    /// costs no collective.
    pub dense: Vec<Tensor>,
    /// The block's MoE layer.
    pub moe: LayerCheckpoint,
}

/// All trainable weights of a stack of blocks — what the trainer
/// snapshots, persists and restores.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCheckpoint {
    /// One entry per block, first block first.
    pub blocks: Vec<BlockCheckpoint>,
}

impl ModelCheckpoint {
    /// Serialises to JSON. Weights round-trip bit-exactly (the writer
    /// uses shortest round-trip float formatting).
    pub fn to_json(&self) -> String {
        let blocks = self.blocks.iter().map(|b| {
            Json::obj([
                ("dense", tensors_to_json(&b.dense)),
                ("moe", b.moe.to_value()),
            ])
        });
        let doc = Json::obj([("blocks", Json::Arr(blocks.collect()))]);
        doc.to_string().expect("checkpoint weights are finite")
    }

    /// Parses a checkpoint previously written by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::CorruptCheckpoint`] on malformed JSON or
    /// non-finite weights, [`MoeError::BadInput`] on bad tensor data.
    pub fn from_json(text: &str) -> Result<ModelCheckpoint> {
        let doc = Json::parse(text).map_err(bad_json)?;
        let blocks = doc
            .get("blocks")
            .and_then(Json::as_arr)
            .map_err(bad_json)?
            .iter()
            .map(|b| {
                Ok(BlockCheckpoint {
                    dense: tensors_from_json(b.get("dense").map_err(bad_json)?)?,
                    moe: LayerCheckpoint::from_value(b.get("moe").map_err(bad_json)?)?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ModelCheckpoint { blocks })
    }

    /// Writes the checkpoint to `path` atomically: the JSON goes to a
    /// `<path>.tmp` sibling first, then a rename publishes it, so readers
    /// never observe a partially written file.
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::CheckpointIo`] when the write or rename fails.
    pub fn save(&self, path: &Path) -> Result<()> {
        let io_err = |reason: std::io::Error| MoeError::CheckpointIo {
            path: path.display().to_string(),
            reason: reason.to_string(),
        };
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_json()).map_err(io_err)?;
        std::fs::rename(&tmp, path).map_err(io_err)
    }

    /// Reads and validates a checkpoint previously written by
    /// [`Self::save`].
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::CheckpointIo`] when the file cannot be read
    /// and [`MoeError::CorruptCheckpoint`] when its contents are
    /// truncated, malformed, or carry non-finite weights.
    pub fn load(path: &Path) -> Result<ModelCheckpoint> {
        let text = std::fs::read_to_string(path).map_err(|e| MoeError::CheckpointIo {
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
        Self::from_json(&text)
    }
}

fn tensors_to_json(tensors: &[Tensor]) -> Json {
    Json::Arr(tensors.iter().map(tensor_to_json).collect())
}

fn tensors_from_json(value: &Json) -> Result<Vec<Tensor>> {
    value
        .as_arr()
        .map_err(bad_json)?
        .iter()
        .map(tensor_from_json)
        .collect()
}

fn tensor_to_json(t: &Tensor) -> Json {
    Json::obj([
        ("dims", Json::from(t.dims().to_vec())),
        ("data", Json::from(t.data().to_vec())),
    ])
}

fn tensor_from_json(value: &Json) -> Result<Tensor> {
    let dims = value
        .get("dims")
        .and_then(Json::as_arr)
        .map_err(bad_json)?
        .iter()
        .map(|d| d.as_usize().map_err(bad_json))
        .collect::<Result<Vec<_>>>()?;
    let data = value
        .get("data")
        .and_then(Json::as_arr)
        .map_err(bad_json)?
        .iter()
        .map(|v| v.as_f64().map(|f| f as f32).map_err(bad_json))
        .collect::<Result<Vec<_>>>()?;
    if let Some(bad) = data.iter().find(|v| !v.is_finite()) {
        return Err(MoeError::CorruptCheckpoint {
            reason: format!("non-finite weight {bad} in tensor of dims {dims:?}"),
        });
    }
    Tensor::from_vec(data, &dims).map_err(|e| MoeError::BadInput {
        expected: format!("valid tensor payload: {e}"),
        actual: dims,
    })
}

fn bad_json(e: jsonio::JsonError) -> MoeError {
    MoeError::CorruptCheckpoint {
        reason: format!("truncated or malformed checkpoint JSON: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MoeConfig;
    use crate::layer::MoeLayer;
    use collectives::{Communicator, HybridTopology};
    use tensor::TensorRng;

    type Build = fn(&MoeConfig, &Communicator, &HybridTopology, u64) -> Result<MoeLayer>;

    /// A one-rank layer (identity exchange).
    fn local(build: Build, cfg: &MoeConfig, seed: u64) -> MoeLayer {
        build(
            cfg,
            &Communicator::solo(),
            &HybridTopology::flat(1).unwrap(),
            seed,
        )
        .unwrap()
    }

    /// The persisted form of one bare layer.
    fn model_of(moe: LayerCheckpoint) -> ModelCheckpoint {
        let dense = Vec::new();
        ModelCheckpoint {
            blocks: vec![BlockCheckpoint { dense, moe }],
        }
    }

    /// A one-block model document around a layer document.
    fn wrap(layer_json: &str) -> String {
        format!(r#"{{"blocks":[{{"dense":[],"moe":{layer_json}}}]}}"#)
    }

    fn config() -> MoeConfig {
        MoeConfig::builder()
            .batch_size(1)
            .seq_len(8)
            .embed_dim(8)
            .hidden_dim(16)
            .num_experts(3)
            .top_k(2)
            .no_drop()
            .build()
            .unwrap()
    }

    #[test]
    fn checkpoint_restore_reproduces_outputs() {
        let cfg = config();
        let mut rng = TensorRng::seed_from(1);
        let mut original = local(MoeLayer::gshard, &cfg, 1);
        let input = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);

        // train a few steps so the weights moved off init
        let mut route_rng = TensorRng::seed_from(0);
        for _ in 0..2 {
            let y = original.forward(&input, &mut route_rng).unwrap();
            let g = original.backward(&Tensor::ones(y.dims())).unwrap();
            original.apply_grads(&g, 0.05).unwrap();
        }
        let snapshot = original.checkpoint_global().unwrap();
        let expect = original.forward(&input, &mut route_rng).unwrap();

        // a fresh layer with different init must reproduce after restore
        let mut restored = local(MoeLayer::gshard, &cfg, 999);
        let before = restored.forward(&input, &mut route_rng).unwrap();
        assert!(
            !before.allclose(&expect, 1e-4),
            "different init must differ"
        );
        restored.restore_full(&snapshot).unwrap();
        let after = restored.forward(&input, &mut route_rng).unwrap();
        assert!(after.allclose(&expect, 1e-5));
    }

    #[test]
    fn checkpoint_survives_json_round_trip() {
        let cfg = config();
        let layer = local(MoeLayer::sigmoid, &cfg, 2)
            .checkpoint_global()
            .unwrap();
        let snapshot = model_of(layer);
        let json = snapshot.to_json();
        let back = ModelCheckpoint::from_json(&json).unwrap();
        assert_eq!(snapshot, back);
        assert_eq!(back.blocks[0].moe.gate_name, "sigmoid");
        assert!(back.blocks[0].moe.num_params() > 0);
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(ModelCheckpoint::from_json("not json").is_err());
        assert!(ModelCheckpoint::from_json("{}").is_err());
        assert!(ModelCheckpoint::from_json(&wrap("{}")).is_err());
        assert!(ModelCheckpoint::from_json(&wrap(
            r#"{"gate_name":"g","gate":[{"dims":[2,2],"data":[1.0]}],"experts":[]}"#
        ))
        .is_err());
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fsmoe-ckpt-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn save_is_atomic_and_load_round_trips() {
        let cfg = config();
        let layer = local(MoeLayer::gshard, &cfg, 7)
            .checkpoint_global()
            .unwrap();
        // two blocks, the first with dense (attention) weights
        let mut snap = model_of(layer.clone());
        snap.blocks[0].dense = vec![TensorRng::seed_from(7).normal(&[4, 4], 0.0, 1.0)];
        snap.blocks.extend(model_of(layer).blocks);
        let path = temp_path("atomic.json");
        snap.save(&path).unwrap();
        // the temporary staging file must not outlive the rename
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        assert!(
            !std::path::Path::new(&tmp).exists(),
            "staging file must be renamed away"
        );
        let back = ModelCheckpoint::load(&path).unwrap();
        assert_eq!(snap, back);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = ModelCheckpoint::load(Path::new("/nonexistent/dir/ckpt.json")).unwrap_err();
        assert!(matches!(err, MoeError::CheckpointIo { .. }), "{err:?}");
    }

    #[test]
    fn load_rejects_truncated_file() {
        let cfg = config();
        let layer = local(MoeLayer::gshard, &cfg, 8)
            .checkpoint_global()
            .unwrap();
        let json = model_of(layer).to_json();
        let path = temp_path("truncated.json");
        // simulate a torn write: only half the bytes made it to disk
        std::fs::write(&path, &json[..json.len() / 2]).unwrap();
        let err = ModelCheckpoint::load(&path).unwrap_err();
        assert!(matches!(err, MoeError::CorruptCheckpoint { .. }), "{err:?}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn from_json_rejects_non_finite_weights() {
        // 1e999 overflows f64 parsing to infinity; NaN can't appear in
        // JSON literals, so ∞ is the smuggling vector to guard.
        let doc = r#"{"gate_name":"g","gate":[{"dims":[1],"data":[1e999]}],"experts":[]}"#;
        let err = ModelCheckpoint::from_json(&wrap(doc)).unwrap_err();
        assert!(
            matches!(err, MoeError::CorruptCheckpoint { ref reason } if reason.contains("non-finite")),
            "{err:?}"
        );
    }

    #[test]
    fn restore_validates_compatibility() {
        let cfg = config();
        let gshard = local(MoeLayer::gshard, &cfg, 3);
        let mut sigmoid = local(MoeLayer::sigmoid, &cfg, 4);
        // wrong gate family
        assert!(sigmoid
            .restore_full(&gshard.checkpoint_global().unwrap())
            .is_err());
        // wrong expert count
        let bigger = MoeConfig::builder()
            .batch_size(1)
            .seq_len(8)
            .embed_dim(8)
            .hidden_dim(16)
            .num_experts(4)
            .top_k(2)
            .no_drop()
            .build()
            .unwrap();
        let small = sigmoid.checkpoint_global().unwrap();
        assert!(local(MoeLayer::sigmoid, &bigger, 5)
            .restore_full(&small)
            .is_err());
        // wrong shapes within a matching family
        let wide = MoeConfig::builder()
            .batch_size(1)
            .seq_len(8)
            .embed_dim(16)
            .hidden_dim(32)
            .num_experts(3)
            .top_k(2)
            .no_drop()
            .build()
            .unwrap();
        assert!(local(MoeLayer::sigmoid, &wide, 6)
            .restore_full(&small)
            .is_err());
    }

    #[test]
    fn expert_choice_checkpoint_round_trips() {
        let cfg = config();
        let mut layer = local(MoeLayer::expert_choice, &cfg, 4);
        let snap = layer.checkpoint_global().unwrap();
        assert_eq!(snap.gate.len(), 1);
        layer.restore_full(&snap).unwrap();
        assert_eq!(layer.checkpoint_global().unwrap(), snap);
    }
}
