//! Flight-recorder conformance: ring wraparound keeps per-thread order
//! under concurrent writers, dump-on-panic produces a valid trace, and
//! the once-only env dump is idempotent.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use obs::flight::{self, FlightKind, RING_CAPACITY};
use obs::{names, Name};

/// Events recorded by this test's own writer threads, grouped by tid.
fn wrap_events_by_tid(
    marker: Name,
) -> std::collections::BTreeMap<u64, Vec<obs::flight::FlightEvent>> {
    let mut by_tid = std::collections::BTreeMap::new();
    for ev in flight::recent_events() {
        if ev.name == marker.as_str() {
            by_tid.entry(ev.tid).or_insert_with(Vec::new).push(ev);
        }
    }
    by_tid
}

#[test]
fn wraparound_under_concurrent_writers_keeps_per_thread_order() {
    const WRITERS: usize = 3;
    const PUSHES: usize = 2 * RING_CAPACITY; // every ring wraps fully
                                             // No other test in this binary records the bench probe name.
    let marker = names::BENCH_SPAN_NOOP;

    let running = Arc::new(AtomicBool::new(true));
    let handles: Vec<_> = (0..WRITERS)
        .map(|_| {
            let running = Arc::clone(&running);
            std::thread::spawn(move || {
                for _ in 0..PUSHES {
                    flight::annotate(marker);
                }
                running.store(false, Ordering::Release);
            })
        })
        .collect();

    // Read concurrently with the writers: torn slots must be skipped,
    // never misread, and what does come back is in per-thread seq order.
    while running.load(Ordering::Acquire) {
        for events in wrap_events_by_tid(marker).values() {
            for pair in events.windows(2) {
                assert!(
                    pair[0].seq < pair[1].seq,
                    "per-thread order violated mid-write: {} !< {}",
                    pair[0].seq,
                    pair[1].seq
                );
            }
        }
    }
    for h in handles {
        h.join().unwrap();
    }

    // Quiescent read: every writer's ring is exactly full, with the
    // *last* RING_CAPACITY seqs, consecutive and in order.
    let by_tid = wrap_events_by_tid(marker);
    let writer_tids: Vec<u64> = by_tid
        .iter()
        .filter(|(_, evs)| evs.len() >= RING_CAPACITY)
        .map(|(&tid, _)| tid)
        .collect();
    assert_eq!(
        writer_tids.len(),
        WRITERS,
        "each writer ring retains a full window: {:?}",
        by_tid
            .iter()
            .map(|(t, e)| (*t, e.len()))
            .collect::<Vec<_>>()
    );
    for tid in writer_tids {
        let events = &by_tid[&tid];
        assert_eq!(events.len(), RING_CAPACITY, "last-N events exactly");
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(
                ev.seq,
                events[0].seq + i as u64,
                "seqs are consecutive after wraparound"
            );
            assert_eq!(ev.kind, FlightKind::Mark);
        }
        assert!(
            events[0].seq >= (PUSHES - RING_CAPACITY) as u64,
            "the retained window is the *tail* of the stream"
        );
    }
}

/// All env-dependent dump scenarios live in ONE test: `FLIGHT_DUMP` is
/// process-global state, and cargo's parallel test threads must not
/// race on it.
#[test]
fn dump_on_panic_is_valid_and_once_only() {
    let path = std::env::temp_dir().join("fsmoe_flight_test_dump.json");
    let _ = std::fs::remove_file(&path);
    std::env::set_var("FLIGHT_DUMP", &path);
    flight::install_panic_hook();

    // A panicking thread triggers the hook: marker + dump.
    let result = std::thread::spawn(|| {
        let _open = obs::span(names::CAT_MODELS, names::SPAN_TRAIN_STEP);
        panic!("intentional test panic");
    })
    .join();
    assert!(result.is_err(), "the probe thread must panic");

    let text = std::fs::read_to_string(&path).expect("panic hook wrote the dump");
    let stats = obs::validate_trace(&text).expect("dump is a valid trace");
    assert!(stats.spans >= 2, "dump marker + the doomed span: {stats:?}");
    assert!(
        text.contains(names::FLIGHT_PANIC.as_str()),
        "panic marker recorded before draining"
    );
    assert!(
        text.contains(names::SPAN_TRAIN_STEP.as_str()) && text.contains("open"),
        "the span still open at panic time is the exhibit"
    );
    assert!(
        text.contains("\"reason\":\"panic\""),
        "dump reason recorded"
    );

    // Once-only: a second trigger neither dumps nor rewrites the file.
    assert!(
        !flight::try_dump("watchdog"),
        "the first fatal event consumed the dump"
    );
    let unchanged = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text, unchanged, "double-dump is idempotent");

    std::env::remove_var("FLIGHT_DUMP");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn explicit_dump_replays_open_spans_and_validates() {
    let open = obs::span(names::CAT_MODELS, names::SPAN_UPDATE);
    let doc = flight::dump_json("unit-test");
    drop(open);

    let text = doc.to_string().unwrap();
    obs::validate_trace(&text).expect("explicit dump validates");
    assert!(
        text.contains(names::SPAN_UPDATE.as_str()),
        "open span synthesized into the dump"
    );
    assert!(text.contains(names::FLIGHT_DUMP_SPAN.as_str()));
    let flight_meta = doc.get("flight").unwrap();
    assert_eq!(
        flight_meta.get("reason").unwrap().as_str().unwrap(),
        "unit-test"
    );
    assert!(
        flight_meta.get("events").unwrap().as_f64().unwrap() >= 1.0,
        "at least the open span's begin event drained"
    );
}
