//! The profiler mirrors its sweeps into the obs registry: every
//! averaged measurement becomes a histogram sample and every fitted
//! α–β model a trio of gauges.

use profiler::microbench::profile_testbed;
use simnet::Testbed;

#[test]
fn profiling_mirrors_sweeps_into_the_registry() {
    let session = obs::session();
    let profiles = profile_testbed(&Testbed::a(), 0.01, 42);
    let snap = session.snapshot();
    for p in &profiles {
        let hist = snap
            .histogram(obs::names::profiler_sample_us(p.name))
            .unwrap_or_else(|| panic!("{} histogram recorded", p.name));
        assert_eq!(hist.count, p.samples.len() as u64);
        let to_us: f64 = p.samples.iter().map(|&(_, t)| t * 1000.0).sum();
        assert!((hist.sum - to_us).abs() < 1e-6 * to_us.abs().max(1.0));
        for g in ["alpha", "beta", "r_squared"] {
            let key = format!("profiler.{}.{g}", p.name);
            assert!(snap.gauges.contains_key(&key), "{key} gauge recorded");
        }
        assert!(snap.gauges[&format!("profiler.{}.r_squared", p.name)] > 0.99);
    }
    // and the metrics dump carries them in text form
    let text = snap.metrics_text();
    assert!(text.contains("hist profiler.GEMM.sample_us"));
    assert!(text.contains("gauge profiler.AlltoAll.r_squared"));
}

#[test]
fn disabled_profiling_records_nothing() {
    let session = obs::session();
    obs::set_enabled(false);
    let _ = profile_testbed(&Testbed::a(), 0.01, 42);
    obs::set_enabled(true);
    let snap = session.snapshot();
    assert!(snap.histograms.is_empty());
    assert!(snap.gauges.is_empty());
}
