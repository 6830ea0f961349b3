//! The observability gate: what compiled-in instrumentation costs a
//! forward pass, plus attribution throughput.
//!
//! Two contracts, one measurement over the same reference forward:
//!
//! * **the flight recorder is always on** (DESIGN.md §11): every span
//!   and counter call leaves an event in the per-thread ring even when
//!   the registry is off, and that recording costs a forward under 2%;
//! * **everything switched off is free** (§7): with the registry
//!   disabled — the default — and the recorder off, every record call
//!   is a relaxed load and a branch, also under 2% of a forward.
//!
//! Both are priced directly — per-call cost (span, counter, histogram;
//! registry off, recorder on vs off) times the calls one real
//! `MoeLayer::forward` makes (ring events from the ring's own monotonic
//! counter, registry record calls from an enabled run's snapshot), as a
//! fraction of the measured forward time. For context the forward is
//! also timed with the registry enabled (a full trace may cost more),
//! and `obs::attrib::attribute` is timed over a real 4-rank session so
//! regressions in the stitcher show up here.
//!
//! Results go to `BENCH_attrib.json`; exits non-zero when a budget is
//! exceeded.

use bench::gate::{best_of_ms, per_call_ns, reference_layer, Gate};
use tensor::TensorRng;

const MOE_RUNS: usize = 5;
const CALLS: usize = 1_000_000;
const BUDGET_PCT: f64 = 2.0;

/// Per-call cost (ns) of a span create+drop, a counter add and a
/// histogram record, with the flight recorder in the given state
/// (registry always off here).
fn record_call_ns(recorder_on: bool) -> [f64; 3] {
    obs::flight::set_enabled(recorder_on);
    let span_ns = per_call_ns(CALLS, || {
        std::hint::black_box(obs::span(
            obs::names::CAT_BENCH,
            obs::names::BENCH_SPAN_NOOP,
        ));
    });
    let counter_ns = per_call_ns(CALLS, || {
        obs::counter_add(obs::names::BENCH_COUNTER_NOOP, std::hint::black_box(1));
    });
    let hist_ns = per_call_ns(CALLS, || {
        obs::record_hist(obs::names::BENCH_HIST_NOOP, std::hint::black_box(1.0));
    });
    obs::flight::set_enabled(true);
    [span_ns, counter_ns, hist_ns]
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
        let mut model =
            models::MoeTransformer::new(&cfg, None, 1, &comm, &topo, 7).expect("model builds");
        let mut data_rng = TensorRng::seed_from(comm.rank() as u64);
        let input = data_rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
        let target = data_rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
        let mut route_rng = TensorRng::seed_from(1);
        for _ in 0..3 {
            model
                .train_step(&input, &target, 0.1, &mut route_rng)
                .expect("fault-free steps succeed");
        }
    });
    session.snapshot()
}

fn main() {
    let mut gate = Gate::new("attrib");
    assert!(!obs::is_enabled(), "registry must start disabled");
    assert!(obs::flight::is_enabled(), "recorder must start enabled");

    let [span_on_ns, counter_on_ns, hist_on_ns] = record_call_ns(true);
    let [span_off_ns, counter_off_ns, hist_off_ns] = record_call_ns(false);

    let (mut layer, input) = reference_layer();
    let mut forward = || {
        let mut r = TensorRng::seed_from(1);
        std::hint::black_box(layer.forward(&input, &mut r).expect("forward"));
    };
    forward();
    // After that warm-up: ring events one real forward records…
    let before = obs::flight::events_recorded();
    forward();
    let events_per_forward = obs::flight::events_recorded() - before;
    // …registry record calls it makes (counted live), and its time with
    // the registry enabled…
    let (record_calls, registry_on_ms) = {
        let session = obs::session();
        forward();
        let snap = session.snapshot();
        let calls = snap.spans.len() as u64
            + snap.histograms.values().map(|h| h.count).sum::<u64>()
            + snap.counters.len() as u64;
        let ms = best_of_ms(MOE_RUNS, || {
            obs::reset();
            forward();
        });
        (calls, ms)
    };
    // …and in the shipping state: registry off, recorder on.
    let forward_ms = best_of_ms(MOE_RUNS, &mut forward);

    // A span call covers two ring events (begin + end); a counter one.
    let per_event_on_ns = (span_on_ns / 2.0).max(counter_on_ns);
    let recorder_on_overhead_pct =
        100.0 * (events_per_forward as f64 * per_event_on_ns) / (forward_ms * 1e6);
    // Everything off: every call site — ring or registry — pays only
    // the disabled branch.
    let per_call_off_ns = span_off_ns.max(counter_off_ns).max(hist_off_ns);
    let disabled_calls = events_per_forward.max(record_calls);
    let disabled_overhead_pct =
        100.0 * (disabled_calls as f64 * per_call_off_ns) / (forward_ms * 1e6);
    let registry_on_overhead_pct = 100.0 * (registry_on_ms - forward_ms) / forward_ms;

    println!(
        "recorder on:  span {span_on_ns:.2} ns, counter {counter_on_ns:.2} ns, \
         histogram {hist_on_ns:.2} ns per call"
    );
    println!(
        "recorder off: span {span_off_ns:.2} ns, counter {counter_off_ns:.2} ns, \
         histogram {hist_off_ns:.2} ns per call"
    );
    println!(
        "forward: {events_per_forward} ring events, {record_calls} record calls, \
         {forward_ms:.3} ms ({registry_on_ms:.3} ms with the registry on, \
         {registry_on_overhead_pct:+.2}%)"
    );
    println!(
        "overhead: recorder on {recorder_on_overhead_pct:.4}%, all off \
         {disabled_overhead_pct:.4}% (budget {BUDGET_PCT}% each)"
    );
    gate.require(
        recorder_on_overhead_pct < BUDGET_PCT,
        format!(
            "always-on flight recording must cost < {BUDGET_PCT}% of a forward \
             ({recorder_on_overhead_pct:.4}%)"
        ),
    );
    gate.require(
        disabled_overhead_pct < BUDGET_PCT,
        format!(
            "disabled instrumentation must cost < {BUDGET_PCT}% of a forward \
             ({disabled_overhead_pct:.4}%)"
        ),
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

    gate.finish([
        ("flight_span_on_ns", span_on_ns),
        ("flight_counter_on_ns", counter_on_ns),
        ("flight_hist_on_ns", hist_on_ns),
        ("flight_span_off_ns", span_off_ns),
        ("flight_counter_off_ns", counter_off_ns),
        ("flight_hist_off_ns", hist_off_ns),
        ("flight_events_per_forward", events_per_forward as f64),
        ("record_calls_per_forward", record_calls as f64),
        ("forward_ms", forward_ms),
        ("forward_ms_registry_on", registry_on_ms),
        ("recorder_on_overhead_pct", recorder_on_overhead_pct),
        ("disabled_overhead_pct", disabled_overhead_pct),
        ("registry_on_overhead_pct", registry_on_overhead_pct),
        ("attribute_ms", attribute_ms),
        ("attributed_spans", snap.spans.len() as f64),
        ("budget_pct", BUDGET_PCT),
    ]);
}
