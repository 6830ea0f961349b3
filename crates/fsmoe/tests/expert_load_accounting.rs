//! The `moe.expert_load` histogram is a complete routing account: under
//! a drop-free configuration its per-expert counts sum to exactly
//! `tokens x top_k` for **every** gate family — the token-choice gates
//! (gshard, sigmoid, softmoe, xmoe) because each token keeps all `k`
//! assignments, and the expert-choice gate because `capacity_factor =
//! 1.0` with `E | k·tokens` gives each expert exactly `k·tokens / E`
//! picks. The quarantine drain picks its expert from the same loads; a
//! gate that leaks or double-counts assignments would drain the wrong
//! expert.

use collectives::{Communicator, HybridTopology};
use fsmoe::config::MoeConfig;
use fsmoe::gate::{ExpertChoiceGate, GShardGate, Gate, SigmoidGate, SoftMoeGate, XMoeGate};
use fsmoe::layer::MoeLayer;
use tensor::TensorRng;

const SEED: u64 = 19;

/// B=1, L=8, E=4, k=2: tokens·k = 16 and E | k·tokens, so the
/// expert-choice capacity under `f = 1.0` is exactly 4 per expert.
fn config(expert_choice: bool) -> MoeConfig {
    let mut b = MoeConfig::builder();
    b.batch_size(1)
        .seq_len(8)
        .embed_dim(8)
        .hidden_dim(16)
        .num_experts(4)
        .top_k(2);
    if expert_choice {
        b.capacity_factor(1.0);
    } else {
        b.no_drop();
    }
    b.build().unwrap()
}

fn gates(cfg: &MoeConfig) -> Vec<(Box<dyn Gate>, bool)> {
    let mut rng = TensorRng::seed_from(SEED);
    let (e, d, k) = (cfg.num_experts, cfg.embed_dim, cfg.top_k);
    vec![
        (
            Box::new(GShardGate::new(d, e, k, &mut rng)) as Box<dyn Gate>,
            false,
        ),
        (Box::new(SigmoidGate::new(d, e, k, &mut rng)), false),
        (Box::new(SoftMoeGate::new(d, e, k, &mut rng)), false),
        (Box::new(XMoeGate::new(d, 4, e, k, &mut rng)), false),
        (Box::new(ExpertChoiceGate::new(d, e, &mut rng)), true),
    ]
}

#[test]
fn expert_load_histogram_sums_to_tokens_times_k_under_every_gate() {
    let probe_cfg = config(false);
    for (gate, is_expert_choice) in gates(&probe_cfg) {
        let session = obs::session();
        let cfg = config(is_expert_choice);
        let name = gate.name().to_string();
        let mut rng = TensorRng::seed_from(SEED);
        let (comm, topo) = (Communicator::solo(), HybridTopology::flat(1).unwrap());
        let mut layer = MoeLayer::with_gate(&cfg, gate, &mut rng, &comm, &topo).unwrap();
        let input = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
        let mut route_rng = TensorRng::seed_from(3);
        layer.forward(&input, &mut route_rng).unwrap();

        let snap = session.snapshot();
        let hist = snap
            .histogram(obs::names::MOE_EXPERT_LOAD)
            .unwrap_or_else(|| panic!("{name}: load histogram recorded"));
        assert_eq!(
            hist.count, cfg.num_experts as u64,
            "{name}: one load sample per expert"
        );
        assert_eq!(
            hist.sum as usize,
            cfg.tokens() * cfg.top_k,
            "{name}: loads must sum to tokens x top_k"
        );
        // The same account the detector consumes.
        let loads = layer.last_routing().unwrap().expert_loads();
        assert_eq!(
            loads.iter().sum::<usize>(),
            cfg.tokens() * cfg.top_k,
            "{name}"
        );
        if is_expert_choice {
            assert!(
                loads
                    .iter()
                    .all(|&l| l == cfg.tokens() * cfg.top_k / cfg.num_experts),
                "{name}: expert choice fills every expert to capacity: {loads:?}"
            );
        }
    }
}
