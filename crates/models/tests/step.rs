//! The program's training step on N ranks
//! ([`MoeTransformer::train_step`]): what the benchmark gates from the
//! outside — replicated weights that stay replicated, bits that do not
//! depend on the thread count, a loss that falls, a warm step that
//! allocates nothing tensor-sized — held in tier-1. Counts and bits,
//! never times.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::process::Command;

use collectives::{run_ranks, HybridTopology, ParallelDims};
use fsmoe::config::MoeConfig;
use fsmoe::MoeError;
use models::MoeTransformer;
use tensor::{Tensor, TensorRng};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

fn config(seq_len: usize, embed_dim: usize, num_experts: usize) -> MoeConfig {
    MoeConfig::builder()
        .batch_size(1)
        .seq_len(seq_len)
        .embed_dim(embed_dim)
        .hidden_dim(2 * embed_dim)
        .num_experts(num_experts)
        .top_k(2)
        .build()
        .unwrap()
}

/// One rank's two 2-head attention blocks, its own data block and
/// routing stream, and the losses of the steps taken so far.
struct Run {
    model: MoeTransformer,
    x: Tensor,
    target: Tensor,
    route_rng: TensorRng,
    losses: Vec<f32>,
}

impl Run {
    fn step(&mut self) -> fsmoe::Result<f32> {
        self.model
            .train_step(&self.x, &self.target, 0.2, &mut self.route_rng)
    }
}

/// Trains for `steps` steps on `ranks` ranks; returns what `then` makes
/// of each rank's run.
fn train<T: Send + 'static>(
    cfg: &MoeConfig,
    ranks: usize,
    steps: usize,
    then: impl Fn(&mut Run) -> T + Send + Sync + 'static,
) -> Vec<T> {
    let cfg = cfg.clone();
    run_ranks(ranks, move |comm| {
        let topo = HybridTopology::flat(ranks).unwrap();
        let mut rng = TensorRng::seed_from(100 + comm.rank() as u64);
        let dims = [cfg.tokens(), cfg.embed_dim];
        let mut run = Run {
            model: MoeTransformer::new(&cfg, Some(2), 2, &comm, &topo, 9).unwrap(),
            x: rng.normal(&dims, 0.0, 1.0),
            target: rng.normal(&dims, 0.0, 1.0),
            route_rng: TensorRng::seed_from(comm.rank() as u64),
            losses: Vec::new(),
        };
        for _ in 0..steps {
            let loss = run.step().unwrap();
            run.losses.push(loss);
        }
        then(&mut run)
    })
}

#[test]
fn replicated_weights_stay_bit_identical_across_ranks() {
    for ranks in [2, 4] {
        let weights = train(&config(8, 8, 4), ranks, 6, |run| {
            let attention = run.model.blocks().iter().filter_map(|b| b.attention());
            let weights = attention.flat_map(|a| a.weights());
            weights
                .flat_map(|w| w.data().to_vec())
                .collect::<Vec<f32>>()
        });
        assert_eq!(weights[0].len(), 2 * 4 * 8 * 8);
        for (rank, w) in weights.iter().enumerate() {
            assert_eq!(
                w, &weights[0],
                "{ranks} ranks: rank {rank}'s attention weights"
            );
        }
    }
}

/// 64 KiB activations: the allocation counter's "large".
fn wide_config() -> MoeConfig {
    config(128, 128, 4)
}

/// A hash per rank of a 2-rank run's losses and final checkpoint.
fn fingerprint() -> String {
    let hashes = train(&wide_config(), 2, 3, |run| {
        let mut h = DefaultHasher::new();
        run.losses.iter().for_each(|l| l.to_bits().hash(&mut h));
        let checkpoint = run.model.checkpoint_global().unwrap();
        checkpoint.to_json().hash(&mut h);
        h.finish()
    });
    format!("fingerprint {hashes:?}")
}

/// Prints [`fingerprint`]; the test below runs it in a child process,
/// where it is the only world.
#[test]
fn fingerprint_of_a_two_rank_run() {
    println!("{}", fingerprint());
}

/// One world alone in a child process, against two worlds training at
/// once in this one: four rank threads share the kernel, and every
/// world must still get the lone run's bits.
#[test]
fn one_and_two_tensor_threads_compute_the_same_bits() {
    let out = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "fingerprint_of_a_two_rank_run", "--nocapture"])
        .output()
        .unwrap();
    assert!(out.status.success(), "lone world: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lone = stdout.lines().find(|l| l.starts_with("fingerprint ["));
    let lone = lone.unwrap_or_else(|| panic!("no fingerprint in {stdout}"));
    let together: Vec<String> = std::thread::scope(|s| {
        let worlds = [s.spawn(fingerprint), s.spawn(fingerprint)];
        worlds.map(|w| w.join().unwrap()).into()
    });
    assert_eq!(together, [lone, lone]);
}

#[test]
fn two_rank_loss_falls() {
    for losses in train(&config(6, 8, 2), 2, 7, |run| run.losses.clone()) {
        assert!(
            losses[6] < losses[0],
            "loss should fall: {} → {}",
            losses[0],
            losses[6]
        );
    }
}

#[test]
fn attention_on_a_model_parallel_topology_is_rejected() {
    let built = run_ranks(4, |comm| {
        let dims = ParallelDims {
            dp: 2,
            mp: 2,
            ep: 2,
            esp: 2,
        };
        let topo = HybridTopology::new(2, 2, dims).unwrap();
        let build = |heads| MoeTransformer::new(&config(8, 8, 2), heads, 1, &comm, &topo, 1);
        assert!(build(None).is_ok(), "configured layers run on any topology");
        build(Some(2)).map(|_| ())
    });
    for result in built {
        assert!(
            matches!(result, Err(MoeError::BadConfig { field: "heads", .. })),
            "{result:?}"
        );
    }
}

#[test]
fn a_warm_two_rank_attention_step_makes_no_large_allocation() {
    let large = train(&wide_config(), 2, 3, |run| {
        let (loss, _, large) = counting_alloc::count(|| run.step());
        loss.unwrap();
        large
    });
    assert_eq!(
        large,
        vec![0; 2],
        "allocations ≥ {} KiB per rank in a warm step",
        counting_alloc::LARGE >> 10
    );
}
