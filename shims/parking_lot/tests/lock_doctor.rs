//! Lock-doctor behavior tests. These deliberately construct hazardous
//! acquisition patterns, so they live in their own test binary (the
//! doctor's state is process-global) and serialize through a test lock,
//! draining the report between scenarios with `take_report`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use parking_lot::{lock_doctor, Condvar, Mutex};

/// Serializes the doctor tests and drains any state a previous test
/// left behind. Uses a std mutex on purpose: the subject under test is
/// the shim, so the harness must not flow through it.
fn doctor_test<R>(f: impl FnOnce() -> R) -> R {
    #[expect(
        clippy::disallowed_types,
        reason = "the harness must not flow through the shim under test"
    )]
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _g = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    lock_doctor::enable();
    let _ = lock_doctor::take_report();
    let out = f();
    let _ = lock_doctor::take_report();
    out
}

/// The headline scenario: two threads acquire the same two mutexes in
/// opposite orders. A barrier sequences them so they never overlap —
/// the run cannot deadlock — yet the doctor must still report the
/// A→B/B→A cycle: it flags *potential* deadlocks, not manifested ones.
#[test]
fn abba_is_reported_as_cycle_without_deadlocking() {
    let report = doctor_test(|| {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        let gate = Arc::new(Barrier::new(2));

        // Thread 1: A then B, fully released before signalling.
        let t1 = {
            let (a, b, gate) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&gate));
            std::thread::spawn(move || {
                let ga = a.lock();
                let gb = b.lock();
                drop(gb);
                drop(ga);
                gate.wait();
            })
        };
        // Thread 2: waits until thread 1 is done, then B then A.
        let t2 = {
            let (a, b, gate) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&gate));
            std::thread::spawn(move || {
                gate.wait();
                let gb = b.lock();
                let ga = a.lock();
                drop(ga);
                drop(gb);
            })
        };
        t1.join().unwrap();
        t2.join().unwrap();
        lock_doctor::report()
    });

    assert_eq!(
        report.cycles.len(),
        1,
        "expected exactly the A/B cycle:\n{}",
        report.render()
    );
    let cycle = &report.cycles[0];
    assert_eq!(cycle.sites.len(), 2, "two-site cycle");
    assert_eq!(cycle.edges.len(), 2, "both direction edges recorded");
    // Both edges carry the acquiring thread's held-context site ids.
    for edge in &cycle.edges {
        assert!(
            edge.held.contains(&edge.from),
            "edge context must include the held site"
        );
    }
    // The render names both creation sites (this file).
    let rendered = report.render();
    assert!(rendered.contains("tests/lock_doctor.rs"), "{rendered}");
}

/// Holding one lock while `wait_for`-ing on a different mutex's condvar
/// is a blocking hazard even though nothing deadlocks.
#[test]
fn lock_held_across_condvar_wait_is_a_hazard() {
    let report = doctor_test(|| {
        let outer = Mutex::new(0u32);
        let pair = (Mutex::new(false), Condvar::new());
        let _held = outer.lock();
        let mut g = pair.0.lock();
        let timed_out = pair.1.wait_for(&mut g, Duration::from_millis(10));
        assert!(timed_out);
        drop(g);
        drop(_held);
        lock_doctor::report()
    });

    let hazard = report
        .hazards
        .iter()
        .find(|h| {
            matches!(
                h.kind,
                lock_doctor::HazardKind::HeldAcrossCondvarWait { timed: true }
            )
        })
        .unwrap_or_else(|| panic!("expected held-across-wait hazard:\n{}", report.render()));
    assert!(hazard.condvar.is_some(), "hazard names the condvar site");
    assert_ne!(
        hazard.held, hazard.mutex,
        "the held lock is not the waited mutex"
    );
    // Waiting on a condvar while holding ONLY its own mutex is fine:
    // no additional hazard beyond the deliberate one.
    assert_eq!(report.hazards.len(), 1, "{}", report.render());
}

/// An untimed `wait` with an extra lock held is the unbounded variant.
#[test]
fn untimed_wait_hazard_and_notify() {
    let report = doctor_test(|| {
        let outer = Arc::new(Mutex::new(()));
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let started = Arc::new(Barrier::new(2));
        let waiter = {
            let (outer, pair, started) =
                (Arc::clone(&outer), Arc::clone(&pair), Arc::clone(&started));
            std::thread::spawn(move || {
                let _held = outer.lock();
                let mut g = pair.0.lock();
                started.wait();
                while !*g {
                    pair.1.wait(&mut g);
                }
            })
        };
        started.wait();
        *pair.0.lock() = true;
        pair.1.notify_all();
        waiter.join().unwrap();
        lock_doctor::report()
    });
    assert!(
        report.hazards.iter().any(|h| matches!(
            h.kind,
            lock_doctor::HazardKind::HeldAcrossCondvarWait { timed: false }
        )),
        "{}",
        report.render()
    );
}

/// Re-locking an instance the thread already holds is a guaranteed
/// self-deadlock; the doctor records it before the thread blocks, so we
/// assert via a sacrificial thread we never join.
#[test]
fn reentrant_acquisition_is_recorded_before_blocking() {
    let report = doctor_test(|| {
        static RECORDED: AtomicBool = AtomicBool::new(false);
        let m: &'static Mutex<u32> = Box::leak(Box::new(Mutex::new(0)));
        std::thread::spawn(move || {
            let _g = m.lock();
            RECORDED.store(true, Ordering::SeqCst);
            let _g2 = m.lock(); // deadlocks forever; doctor logged it first
        });
        // The hazard is recorded by `on_lock` before the std lock call,
        // so once the second attempt starts the report has it. Poll
        // briefly rather than sleeping a fixed time.
        for _ in 0..500 {
            if RECORDED.load(Ordering::SeqCst) && !lock_doctor::report().hazards.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        lock_doctor::report()
    });
    assert!(
        report
            .hazards
            .iter()
            .any(|h| matches!(h.kind, lock_doctor::HazardKind::ReentrantAcquisition)),
        "{}",
        report.render()
    );
}

/// Nesting two *instances* of the same creation site is the degenerate
/// single-site cycle (how a registry of per-group locks can self-order).
#[test]
fn same_site_nesting_is_single_site_cycle() {
    let report = doctor_test(|| {
        let make = || Mutex::new(0u8); // one creation site, two instances
        let a = make();
        let b = make();
        let ga = a.lock();
        let gb = b.lock();
        drop(gb);
        drop(ga);
        lock_doctor::report()
    });
    assert_eq!(report.cycles.len(), 1, "{}", report.render());
    assert_eq!(report.cycles[0].sites.len(), 1, "single-site cycle");
}

/// Consistent A→B ordering from many threads is clean: edges accumulate
/// but no cycle and no hazard.
#[test]
fn consistent_order_is_clean() {
    let report = doctor_test(|| {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let mut ga = a.lock();
                        let mut gb = b.lock();
                        *ga += 1;
                        *gb += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        lock_doctor::report()
    });
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.acquisitions >= 400);
    assert_eq!(
        report.edges.iter().map(|e| e.count).sum::<u64>(),
        200,
        "A→B observed once per iteration"
    );
}

/// With the doctor disabled, nothing is tracked (the fast path bails
/// before touching any global state).
#[test]
fn disabled_doctor_tracks_nothing() {
    let report = doctor_test(|| {
        lock_doctor::disable();
        let a = Mutex::new(0u32);
        let b = Mutex::new(0u32);
        let gb = b.lock();
        let ga = a.lock();
        drop(ga);
        drop(gb);
        let r = lock_doctor::report();
        lock_doctor::enable();
        r
    });
    assert_eq!(report.acquisitions, 0);
    assert!(report.edges.is_empty() && report.cycles.is_empty() && report.hazards.is_empty());
}

/// `check_guard` panics with the rendered report on a dirty run and is
/// quiet on a clean one.
#[test]
fn check_guard_flags_dirty_runs() {
    doctor_test(|| {
        // Clean run: guard drops silently.
        {
            let _guard = lock_doctor::check_guard();
            let m = Mutex::new(1u8);
            let _ = m.lock();
        }
        // Dirty run: the guard's drop panics with the report.
        let result = std::panic::catch_unwind(|| {
            let _guard = lock_doctor::check_guard();
            let make = || Mutex::new(0u8);
            let (a, b) = (make(), make());
            let _ga = a.lock();
            let _gb = b.lock();
        });
        let err = result.expect_err("dirty run must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock doctor"), "panic carries report: {msg}");
        let _ = lock_doctor::take_report();
    });
}
