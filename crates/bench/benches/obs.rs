//! Overhead guard for the observability registry.
//!
//! The contract (DESIGN.md §7): with the registry disabled — the
//! default — every record call is one relaxed atomic load and a branch,
//! so instrumentation compiled into the expert-compute hot path costs
//! well under 2% of a forward pass. This bench measures that cost two
//! ways and enforces the budget:
//!
//! * directly: the per-call cost of a disabled span / histogram record,
//!   times the number of record calls one forward actually makes
//!   (counted from an enabled run's snapshot), as a fraction of the
//!   measured forward time;
//! * end to end: forward time with the registry enabled vs disabled,
//!   for context (enabled tracing is allowed to cost more — it buys a
//!   full trace).
//!
//! Results go to `BENCH_obs.json` (override with the first positional
//! argument). Exits non-zero when the disabled overhead exceeds 2%.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use jsonio::Json;
use tensor::TensorRng;

/// Best-of-`runs` wall time of `f`, in milliseconds.
fn best_of_ms<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

const MOE_RUNS: usize = 5;
const DISABLED_CALLS: usize = 2_000_000;

fn build_layer() -> (fsmoe::layer::MoeLayer, tensor::Tensor) {
    let mut rng = TensorRng::seed_from(7);
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
    let input = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
    (layer, input)
}

fn main() {
    let out_path = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_else(|| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json").to_string()
        });

    // Per-call cost of disabled instrumentation: the span constructor
    // and the histogram recorder both reduce to a relaxed load + branch.
    assert!(!obs::is_enabled(), "registry must start disabled");
    let span_ns = best_of_ms(3, || {
        for _ in 0..DISABLED_CALLS {
            std::hint::black_box(obs::span(
                obs::names::CAT_BENCH,
                obs::names::BENCH_SPAN_NOOP,
            ));
        }
    }) * 1e6
        / DISABLED_CALLS as f64;
    let hist_ns = best_of_ms(3, || {
        for _ in 0..DISABLED_CALLS {
            obs::record_hist(obs::names::BENCH_HIST_NOOP, std::hint::black_box(1.0));
        }
    }) * 1e6
        / DISABLED_CALLS as f64;

    let (mut layer, input) = build_layer();

    // How many record calls one forward makes, counted live.
    let (record_calls, enabled_ms) = {
        let session = obs::session();
        let mut r = TensorRng::seed_from(1);
        std::hint::black_box(layer.forward(&input, &mut r).expect("forward"));
        let snap = session.snapshot();
        let calls = snap.spans.len() as u64
            + snap.histograms.values().map(|h| h.count).sum::<u64>()
            + snap.counters.len() as u64;
        let ms = best_of_ms(MOE_RUNS, || {
            obs::reset();
            let mut r = TensorRng::seed_from(1);
            std::hint::black_box(layer.forward(&input, &mut r).expect("forward"));
        });
        (calls, ms)
    };

    let disabled_ms = best_of_ms(MOE_RUNS, || {
        let mut r = TensorRng::seed_from(1);
        std::hint::black_box(layer.forward(&input, &mut r).expect("forward"));
    });

    // The budget check: what the compiled-in, switched-off
    // instrumentation costs a forward pass.
    let per_call_ns = span_ns.max(hist_ns);
    let disabled_overhead_pct = 100.0 * (record_calls as f64 * per_call_ns) / (disabled_ms * 1e6);
    let enabled_overhead_pct = 100.0 * (enabled_ms - disabled_ms) / disabled_ms;

    println!("disabled record call: span {span_ns:.2} ns, histogram {hist_ns:.2} ns");
    println!(
        "forward: {record_calls} record calls, {disabled_ms:.3} ms off / {enabled_ms:.3} ms on"
    );
    println!("disabled overhead: {disabled_overhead_pct:.4}% (budget 2%)");
    println!("enabled overhead: {enabled_overhead_pct:.2}%");

    let unix_time = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let json = Json::obj(vec![
        ("bench", Json::from("obs")),
        ("unix_time", Json::from(unix_time as f64)),
        ("disabled_span_ns", Json::from(span_ns)),
        ("disabled_hist_ns", Json::from(hist_ns)),
        ("record_calls_per_forward", Json::from(record_calls as f64)),
        ("forward_ms_disabled", Json::from(disabled_ms)),
        ("forward_ms_enabled", Json::from(enabled_ms)),
        ("disabled_overhead_pct", Json::from(disabled_overhead_pct)),
        ("enabled_overhead_pct", Json::from(enabled_overhead_pct)),
        ("budget_pct", Json::from(2.0)),
    ]);
    let text = json.to_string().expect("all benchmark numbers are finite");
    std::fs::write(&out_path, text + "\n").expect("write baseline json");
    println!("wrote {out_path}");

    assert!(
        disabled_overhead_pct < 2.0,
        "disabled instrumentation must cost < 2% of a forward \
         ({disabled_overhead_pct:.4}%)"
    );
}
