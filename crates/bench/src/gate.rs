//! The gate harness: the contract every `benches/*.rs` budget gate
//! shares, owned in one place.
//!
//! A gate measures, records and only then judges:
//!
//! 1. timing goes through [`best_of_ms`] / [`per_call_ns`] /
//!    [`median_ms`] — min-of-N for costs, median for step rates;
//! 2. [`Gate::require`] notes each budget as it is checked, so one run
//!    reports *every* miss, not the first;
//! 3. [`Gate::finish`] wraps the bench's numbers in the common envelope
//!    (`bench`, `unix_time`, `hardware_threads`, `profile`, `commit` —
//!    `<hash>+dirty` when tracked sources differ from it),
//!    rewrites `BENCH_<name>.json` at the repo root (or the first
//!    positional argument), appends the same line to
//!    `results/bench_history.jsonl` so the file at the root is the
//!    latest point of a trajectory, and exits non-zero listing the
//!    missed budgets — after the numbers are on disk, so a failing run
//!    still leaves them behind for diagnosis.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use jsonio::Json;
use tensor::TensorRng;

/// The workspace root: `cargo bench` runs with cwd = `crates/bench`, so
/// default outputs resolve through the manifest dir instead.
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Best-of-`runs` wall time of `f`, in milliseconds.
pub fn best_of_ms<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Best-of-3 cost of one call of `f`, in nanoseconds, amortised over
/// `calls` back-to-back calls (for fast paths a clock read would swamp).
pub fn per_call_ns<F: FnMut()>(calls: usize, mut f: F) -> f64 {
    best_of_ms(3, || {
        for _ in 0..calls {
            f();
        }
    }) * 1e6
        / calls as f64
}

/// Median of `samples` (sorts in place).
pub fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The reference workload the compute and observability gates share: a
/// one-rank GShard layer (512 tokens, M = 128, H = 256, 8 experts,
/// top-2) and its input.
pub fn reference_layer() -> (fsmoe::layer::MoeLayer, tensor::Tensor) {
    let cfg = fsmoe::config::MoeConfig::builder()
        .batch_size(1)
        .seq_len(512)
        .embed_dim(128)
        .hidden_dim(256)
        .num_experts(8)
        .top_k(2)
        .build()
        .expect("static config is valid");
    let layer = fsmoe::layer::MoeLayer::gshard(
        &cfg,
        &collectives::Communicator::solo(),
        &collectives::HybridTopology::flat(1).expect("one rank"),
        7,
    )
    .expect("layer builds");
    let input = TensorRng::seed_from(7).normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
    (layer, input)
}

/// One budget gate's run: where its numbers go and which budgets it
/// has missed so far.
pub struct Gate {
    name: &'static str,
    out_path: String,
    missed: Vec<String>,
}

impl Gate {
    /// The gate writing `BENCH_<name>.json` at the repo root, unless the
    /// first positional argument names another path.
    pub fn new(name: &'static str) -> Gate {
        let out_path = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'))
            .unwrap_or_else(|| format!("{REPO_ROOT}/BENCH_{name}.json"));
        Gate {
            name,
            out_path,
            missed: Vec::new(),
        }
    }

    /// Checks one budget: prints the verdict and, on a miss, keeps
    /// `what` for [`finish`](Self::finish) to fail the run with.
    pub fn require(&mut self, ok: bool, what: String) {
        if !ok {
            println!("BUDGET MISSED: {what}");
            self.missed.push(what);
        }
    }

    /// Writes the enveloped result (`fields` are the bench's own numbers
    /// or JSON values), appends it to the history, then exits non-zero
    /// if any budget was missed.
    pub fn finish<J: Into<Json>>(self, fields: impl IntoIterator<Item = (&'static str, J)>) {
        let unix_time = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let git = |args: &[&str]| {
            let mut git = std::process::Command::new("git");
            git.args(["-C", REPO_ROOT]).args(args).output().ok()
        };
        let mut commit = git(&["rev-parse", "--short", "HEAD"])
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        // numbers measured on edited sources are not that commit's
        let sources = ["crates", "shims", "Cargo.toml", "Cargo.lock"];
        let edited = git(&[&["diff", "--quiet", "HEAD", "--"][..], &sources[..]].concat());
        if edited.is_some_and(|out| out.status.code() == Some(1)) {
            commit += "+dirty";
        }
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        let mut pairs = vec![
            ("bench", Json::from(self.name)),
            ("unix_time", Json::from(unix_time as f64)),
            (
                "hardware_threads",
                Json::from(tensor::par::hardware_threads()),
            ),
            ("profile", Json::from(profile)),
            ("commit", Json::from(commit)),
        ];
        pairs.extend(fields.into_iter().map(|(key, value)| (key, value.into())));
        let line = Json::obj(pairs)
            .to_string()
            .expect("all benchmark numbers are finite")
            + "\n";
        std::fs::write(&self.out_path, &line).expect("write bench json");
        println!("wrote {}", self.out_path);
        let history = format!("{REPO_ROOT}/results/bench_history.jsonl");
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&history)
            .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()))
            .expect("append bench history");
        if !self.missed.is_empty() {
            eprintln!("{} gate: {} budget(s) missed", self.name, self.missed.len());
            for what in &self.missed {
                eprintln!("  {what}");
            }
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_the_upper_middle_sample() {
        assert_eq!(median_ms(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_ms(&mut [4.0, 1.0, 3.0, 2.0]), 3.0);
    }

    #[test]
    fn missed_budgets_accumulate_instead_of_aborting() {
        let mut gate = Gate::new("unit");
        gate.require(true, "held".to_string());
        gate.require(false, "first miss".to_string());
        gate.require(false, "second miss".to_string());
        assert_eq!(gate.missed, ["first miss", "second miss"]);
    }
}
