//! Fixture: test-wallclock-assert positive, allowed, message-only and
//! out-of-scope cases.
use std::time::{Duration, Instant};

fn production_budget() {
    let t0 = Instant::now();
    work();
    assert!(t0.elapsed() < Duration::from_secs(1));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_elapsed() {
        let t0 = Instant::now();
        work();
        assert!(t0.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn through_a_binding() {
        let start = Instant::now();
        work();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(ms < 5.0, "took {ms} ms");
    }

    #[test]
    fn compared_forms() {
        let stamp = SystemTime::now();
        assert_eq!(stamp, later());
        prop_assert!(later().elapsed().is_ok());
    }

    #[test]
    fn message_only() {
        let t0 = Instant::now();
        let ok = work();
        assert!(ok, "failed after {:?}", t0.elapsed());
        assert_eq!(ok, true, "failed after {:?}", t0.elapsed());
    }

    #[test]
    fn allowed() {
        let t0 = Instant::now();
        // lint: allow(test-wallclock-assert) — a lower bound the sleep guarantees
        assert!(t0.elapsed() >= Duration::ZERO);
    }
}
