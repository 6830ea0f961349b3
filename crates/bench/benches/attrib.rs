//! Overhead guard for the always-on flight recorder, plus attribution
//! throughput.
//!
//! The flight recorder's contract (DESIGN.md §11): every span and
//! counter call leaves an event in the per-thread ring *even when the
//! registry is off*, and that always-on recording costs a forward pass
//! under 2%. This bench measures and enforces the budget the same way
//! `benches/obs.rs` does for the registry:
//!
//! * per-event cost of the seqlock push (span begin/end pairs and
//!   counter deltas, registry off, recorder on vs off);
//! * events one real `MoeLayer::forward` actually records, counted from
//!   the ring's own monotonic event counter;
//! * overhead = events × per-event cost as a fraction of the measured
//!   forward time — asserted < 2% with the recorder on *and* off.
//!
//! Also times `obs::attrib::attribute` over a real 4-rank session so
//! regressions in the stitcher show up here (informational).
//!
//! Results go to `BENCH_attrib.json` (override with the first
//! positional argument). Exits non-zero when a budget is exceeded.

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
const CALLS: usize = 1_000_000;
const BUDGET_PCT: f64 = 2.0;

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

/// Per-call cost (ns) of a span create+drop and of a counter add, with
/// the flight recorder in the given state (registry always off here).
fn record_call_ns(recorder_on: bool) -> (f64, f64) {
    obs::flight::set_enabled(recorder_on);
    let span_ns = best_of_ms(3, || {
        for _ in 0..CALLS {
            std::hint::black_box(obs::span(
                obs::names::CAT_BENCH,
                obs::names::BENCH_SPAN_NOOP,
            ));
        }
    }) * 1e6
        / CALLS as f64;
    let counter_ns = best_of_ms(3, || {
        for _ in 0..CALLS {
            obs::counter_add(obs::names::BENCH_COUNTER_NOOP, std::hint::black_box(1));
        }
    }) * 1e6
        / CALLS as f64;
    obs::flight::set_enabled(true);
    (span_ns, counter_ns)
}

/// A small real 4-rank training session, for attribution timing.
fn attribution_snapshot() -> obs::Snapshot {
    let session = obs::session();
    let cfg = fsmoe::config::MoeConfig::builder()
        .batch_size(1)
        .seq_len(128)
        .embed_dim(64)
        .hidden_dim(128)
        .num_experts(4)
        .top_k(2)
        .no_drop()
        .build()
        .expect("bench config is valid");
    collectives::run_ranks(4, move |comm| {
        let topo = collectives::HybridTopology::flat(4).expect("4-rank EP layout is valid");
        let mut layer =
            fsmoe::layer::MoeLayer::gshard(&cfg, &comm, &topo, 7).expect("layer builds");
        let mut data_rng = TensorRng::seed_from(comm.rank() as u64);
        let input = data_rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
        let target = data_rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
        let mut route_rng = TensorRng::seed_from(1);
        for _ in 0..3 {
            models::dist_train_step(&mut layer, &input, &target, 0.1, &mut route_rng)
                .expect("fault-free steps succeed");
        }
    });
    session.snapshot()
}

fn main() {
    let out_path = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_else(|| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_attrib.json").to_string()
        });

    assert!(!obs::is_enabled(), "registry must start disabled");
    assert!(obs::flight::is_enabled(), "recorder must start enabled");

    let (span_on_ns, counter_on_ns) = record_call_ns(true);
    let (span_off_ns, counter_off_ns) = record_call_ns(false);

    // Events one real forward records in the ring.
    let (mut layer, input) = build_layer();
    let mut r = TensorRng::seed_from(1);
    std::hint::black_box(layer.forward(&input, &mut r).expect("warmup forward"));
    let before = obs::flight::events_recorded();
    let mut r = TensorRng::seed_from(1);
    std::hint::black_box(layer.forward(&input, &mut r).expect("counted forward"));
    let events_per_forward = obs::flight::events_recorded() - before;
    let forward_ms = best_of_ms(MOE_RUNS, || {
        let mut r = TensorRng::seed_from(1);
        std::hint::black_box(layer.forward(&input, &mut r).expect("forward"));
    });

    // A span call covers two ring events (begin + end); a counter one.
    let per_event_on_ns = (span_on_ns / 2.0).max(counter_on_ns);
    let per_call_off_ns = span_off_ns.max(counter_off_ns);
    let enabled_overhead_pct =
        100.0 * (events_per_forward as f64 * per_event_on_ns) / (forward_ms * 1e6);
    // Recorder off: the same call sites pay only the disabled branch.
    let disabled_overhead_pct =
        100.0 * (events_per_forward as f64 * per_call_off_ns) / (forward_ms * 1e6);

    println!("recorder on:  span {span_on_ns:.2} ns, counter {counter_on_ns:.2} ns per call");
    println!("recorder off: span {span_off_ns:.2} ns, counter {counter_off_ns:.2} ns per call");
    println!("forward: {events_per_forward} ring events, {forward_ms:.3} ms");
    println!(
        "recorder overhead: {enabled_overhead_pct:.4}% on, {disabled_overhead_pct:.4}% off \
         (budget {BUDGET_PCT}%)"
    );

    // Attribution throughput over a real multi-rank session.
    let snap = attribution_snapshot();
    let attribute_ms = best_of_ms(5, || {
        std::hint::black_box(obs::attrib::attribute(&snap).expect("session attributes"));
    });
    let report = obs::attrib::attribute(&snap).expect("session attributes");
    println!(
        "attribute(): {attribute_ms:.3} ms over {} spans → {} steps",
        snap.spans.len(),
        report.steps.len()
    );

    let unix_time = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let json = Json::obj(vec![
        ("bench", Json::from("attrib")),
        ("unix_time", Json::from(unix_time as f64)),
        ("flight_span_on_ns", Json::from(span_on_ns)),
        ("flight_counter_on_ns", Json::from(counter_on_ns)),
        ("flight_span_off_ns", Json::from(span_off_ns)),
        ("flight_counter_off_ns", Json::from(counter_off_ns)),
        (
            "flight_events_per_forward",
            Json::from(events_per_forward as f64),
        ),
        ("forward_ms", Json::from(forward_ms)),
        ("recorder_on_overhead_pct", Json::from(enabled_overhead_pct)),
        (
            "recorder_off_overhead_pct",
            Json::from(disabled_overhead_pct),
        ),
        ("attribute_ms", Json::from(attribute_ms)),
        ("attributed_spans", Json::from(snap.spans.len() as f64)),
        ("budget_pct", Json::from(BUDGET_PCT)),
    ]);
    let text = json.to_string().expect("all benchmark numbers are finite");
    std::fs::write(&out_path, text + "\n").expect("write baseline json");
    println!("wrote {out_path}");

    assert!(
        enabled_overhead_pct < BUDGET_PCT,
        "always-on flight recording must cost < {BUDGET_PCT}% of a forward \
         ({enabled_overhead_pct:.4}%)"
    );
    assert!(
        disabled_overhead_pct < BUDGET_PCT,
        "disabled recorder must cost < {BUDGET_PCT}% of a forward \
         ({disabled_overhead_pct:.4}%)"
    );
}
