//! Trace one distributed training iteration end to end.
//!
//! Runs a single [`MoeTransformer::train_step`] over a 2-rank, one-block
//! attention model built from the `Smoke` preset, with one injected
//! fault (rank 1 stalls 400 ms entering its first collective while the
//! deadline is 80 ms) so the trace shows the retry machinery at work.
//! The resulting span tree nests `models` → `fsmoe` → `collectives`.
//!
//! The trace is written as Chrome trace-event JSON (open it in
//! `chrome://tracing` or <https://ui.perfetto.dev>) and self-validated
//! with the in-tree checker — CI runs this as its observability smoke
//! step.
//!
//! Run with
//! `cargo run --release -p models --example trace_training_step -- [out.json]`.

use std::time::Duration;

use collectives::{run_world_within, CommWorld, FaultInjector, HybridTopology};
use fsmoe::dist::FaultPolicy;
use models::{ModelPreset, MoeTransformer};
use obs::ensure;
use tensor::TensorRng;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/trace_smoke.json".to_string());

    let session = obs::session();

    // Rank 1 stalls well past the collective deadline on its first op,
    // forcing rank 0 to time out and retry until rank 1 shows up.
    let world = CommWorld::new(2)
        .with_deadline(Duration::from_millis(80))
        .with_faults(FaultInjector::new().delay(1, 0, Duration::from_millis(400)));
    let preset = ModelPreset::smoke();
    let cfg = preset.moe_config_for(2).expect("smoke preset is valid");
    let (run_cfg, heads) = (cfg.clone(), preset.heads);
    let losses = run_world_within(world, Duration::from_secs(60), move |comm| {
        let topo = HybridTopology::flat(2).expect("2-rank EP layout is valid");
        let mut model =
            MoeTransformer::new(&run_cfg, Some(heads), 1, &comm, &topo, 42).expect("model builds");
        // Generous retry budget: the stall should cost retries, never
        // dropped tokens.
        model.layer_mut(0).set_fault_policy(FaultPolicy {
            max_retries: 12,
            base_backoff: Duration::from_millis(10),
            drop_on_failure: true,
        });
        let mut data_rng = TensorRng::seed_from(500 + comm.rank() as u64);
        let input = data_rng.normal(&[run_cfg.tokens(), run_cfg.embed_dim], 0.0, 1.0);
        let target = data_rng.normal(&[run_cfg.tokens(), run_cfg.embed_dim], 0.0, 1.0);
        let mut route_rng = TensorRng::seed_from(0);
        let loss = model
            .train_step(&input, &target, 0.2, &mut route_rng)
            .expect("training step");
        (loss, model.dropped_tokens())
    });

    let snap = session.snapshot();
    drop(session);

    for (rank, (loss, dropped)) in losses.iter().enumerate() {
        println!("rank {rank}: loss {loss:.4}, dropped tokens {dropped}");
    }

    // The fault showed up as retries, not as lost tokens.
    let retries = snap.counter(obs::names::COLLECTIVES_RETRIES);
    let timeouts = snap.counter(obs::names::COLLECTIVES_TIMEOUTS);
    println!("collectives: {retries} retries after {timeouts} timeouts");
    ensure(retries > 0, "the injected stall must force >= 1 retry");
    ensure(
        snap.counter(obs::names::COLLECTIVES_FAULTS_INJECTED) > 0,
        "the fault injector must fire",
    );
    ensure(
        snap.counter(obs::names::MOE_DROPPED_TOKENS) == 0,
        "retries must absorb the stall without dropping tokens",
    );

    // The span tree nests models -> fsmoe -> collectives on each rank.
    let within = |inner: &obs::SpanRecord, outer: &obs::SpanRecord| {
        inner.tid == outer.tid
            && inner.start_us >= outer.start_us
            && inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us
    };
    let steps = snap.spans_named(obs::names::SPAN_TRAIN_STEP);
    ensure(steps.len() == 2, "one train_step span per rank");
    for step in &steps {
        let inside = |name, outer| {
            let found = snap
                .spans_named(name)
                .into_iter()
                .find(|s| within(s, outer));
            ensure(
                found.is_some(),
                &format!("{name} nests inside {}", outer.name),
            );
            found.unwrap_or(outer)
        };
        let forward = inside(obs::names::SPAN_MODEL_FORWARD, step);
        let backward = inside(obs::names::SPAN_MODEL_BACKWARD, step);
        inside(obs::names::SPAN_ATTN_FWD, forward);
        inside(obs::names::SPAN_ATTN_BWD, backward);
        inside(obs::names::SPAN_MOE_BACKWARD, backward);
        inside(obs::names::SPAN_UPDATE, step);
        let moe = inside(obs::names::SPAN_MOE_FORWARD, forward);
        let grad_ar = inside(obs::names::SPAN_GRAD_ALLREDUCE, step);
        for outer in [moe, grad_ar] {
            ensure(
                snap.spans_in(obs::names::CAT_COLLECTIVES)
                    .iter()
                    .any(|c| within(c, outer)),
                &format!("a collective span nests inside {}", outer.name),
            );
        }
    }
    let hist = snap.histogram(obs::names::MOE_EXPERT_LOAD);
    ensure(
        hist.is_some_and(|h| h.count > 0),
        "per-expert load histogram recorded",
    );

    // Export the Chrome trace and re-validate it as CI's checker would.
    match snap.write_validated_trace(&out_path) {
        Ok(stats) => println!("wrote {out_path}: {stats}"),
        Err(e) => ensure(false, &format!("trace invalid: {e}")),
    }
    println!("open it in chrome://tracing or https://ui.perfetto.dev");
}
