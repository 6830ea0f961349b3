//! Process-wide observability: spans, counters, histograms, gauges.
//!
//! The paper's analysis (§3.2, §5) is built on *seeing* where iteration
//! time goes — per-task timings feed the α–β cost models and the Fig. 7/8
//! breakdowns. This crate is the reproduction's measurement substrate: a
//! global, thread-safe registry of
//!
//! * **spans** — named, nested, per-thread timed regions with `key=value`
//!   attributes ([`span`], [`deferred_span`]);
//! * **counters** — monotonic `u64` event counts ([`counter_add`]);
//! * **histograms** — fixed power-of-two-bucket distributions
//!   ([`record_hist`]);
//! * **gauges** — last-write-wins `f64` observations ([`set_gauge`]);
//!
//! with two exporters: a Chrome trace-event JSON document
//! ([`Snapshot::chrome_trace`], loadable in `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev)) and a plain-text metrics dump
//! ([`Snapshot::metrics_text`]). [`validate_trace`] is the in-tree
//! checker CI uses on emitted traces.
//!
//! # Cost model
//!
//! Recording is **opt-in**. The registry starts disabled, and every
//! record call begins with one relaxed atomic load and a branch — when
//! disabled, no locks are taken, no strings are formatted, and nothing
//! allocates (the `attrib` gate, `crates/bench/benches/attrib.rs`,
//! holds its `disabled_overhead_pct` below 2% of a forward). Code that
//! must build an attribute value eagerly should gate on [`is_enabled`].
//!
//! # Sessions
//!
//! The registry is process-global, so concurrent tests that assert on
//! exact counts must serialise. [`session`] packages the discipline:
//! take the session lock, [`reset`] the registry, enable it, and disable
//! it again when the guard drops.
//!
//! Every record call takes a [`Name`] from the [`names`] registry.
//!
//! ```
//! use obs::names;
//!
//! let session = obs::session();
//! {
//!     let mut span = obs::span(names::CAT_MODELS, names::SPAN_TRAIN_STEP);
//!     span.attr("items", 3);
//!     obs::counter_add(names::MOE_MIGRATIONS, 1);
//! }
//! let snap = session.snapshot();
//! assert_eq!(snap.spans.len(), 1);
//! assert_eq!(snap.counter(names::MOE_MIGRATIONS), 1);
//! let trace = snap.chrome_trace().to_string().unwrap();
//! obs::validate_trace(&trace).unwrap();
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard};

pub mod attrib;
mod chrome;
pub mod flight;
pub mod names;
mod validate;

pub use chrome::TraceBuilder;
pub use names::Name;
pub use validate::{ensure, validate_trace, TraceStats};

/// Writes `text` to `path`, creating its parent directories.
fn write_creating_dirs(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

// --- registry ---------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn current_tid() -> u64 {
    TID.with(|cell| {
        let mut tid = cell.get();
        if tid == 0 {
            tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            cell.set(tid);
        }
        tid
    })
}

/// One finished span as stored in the registry.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Category (the subsystem: `"collectives"`, `"fsmoe"`, `"models"`…).
    pub cat: &'static str,
    /// Span name (`"all_to_all"`, `"expert_compute"`, …).
    pub name: &'static str,
    /// Recording thread, a small process-local id.
    pub tid: u64,
    /// Start, µs since the registry epoch (the last [`reset`]).
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// `key=value` attributes, in insertion order.
    pub attrs: Vec<(&'static str, String)>,
}

/// Power-of-two-bucket histogram: bucket 0 holds `v < 1`, bucket `i > 0`
/// holds `2^(i-1) <= v < 2^i`, and the last bucket absorbs overflow.
pub const HIST_BUCKETS: usize = 24;

/// A fixed-bucket histogram of `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Per-bucket counts (see [`HIST_BUCKETS`] for the boundaries).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HIST_BUCKETS],
        }
    }

    fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`q` in `[0, 1]`) of the recorded
    /// samples: a cumulative walk over the power-of-two buckets with
    /// linear interpolation inside the landing bucket. The result is
    /// clamped to the exact recorded `[min, max]`, so `quantile(0.0)`
    /// and `quantile(1.0)` are exact. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cum + n;
            if next as f64 >= target {
                let (lo, hi) = bucket_bounds(i);
                let lo = lo.max(self.min);
                let hi = hi.min(self.max);
                let frac = (target - cum as f64) / n as f64;
                return (lo + (hi - lo).max(0.0) * frac).clamp(self.min, self.max);
            }
            cum = next;
        }
        self.max
    }
}

fn bucket_index(v: f64) -> usize {
    if v < 1.0 {
        0
    } else {
        let exp = v.log2().floor();
        // v >= 1 so exp >= 0; +1 shifts past the underflow bucket
        ((exp as usize) + 1).min(HIST_BUCKETS - 1)
    }
}

struct Inner {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    threads: BTreeMap<u64, String>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    gauges: BTreeMap<String, f64>,
}

impl Inner {
    fn new() -> Self {
        Inner {
            epoch: Instant::now(),
            spans: Vec::new(),
            threads: BTreeMap::new(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            gauges: BTreeMap::new(),
        }
    }
}

fn inner() -> MutexGuard<'static, Inner> {
    static INNER: OnceLock<Mutex<Inner>> = OnceLock::new();
    INNER.get_or_init(|| Mutex::new(Inner::new())).lock()
}

/// Whether the registry currently records. One relaxed atomic load —
/// callers may gate eager attribute construction on this.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off without clearing data. Prefer [`session`]
/// in tests — it also takes the cross-test lock and resets.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Clears all spans and metrics and restarts the time epoch.
pub fn reset() {
    *inner() = Inner::new();
}

/// An exclusive recording session: holds the process-wide session lock,
/// resets and enables the registry on entry, disables it on drop.
///
/// Tests (and the trace example) use this so concurrent users of the
/// global registry cannot pollute each other's exact counts.
pub struct Session {
    _lock: MutexGuard<'static, ()>,
}

/// Opens a [`Session`]: lock, [`reset`], enable.
///
/// Blocks until any other live session drops.
#[must_use]
pub fn session() -> Session {
    static SESSION_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = SESSION_LOCK.get_or_init(|| Mutex::new(())).lock();
    reset();
    set_enabled(true);
    Session { _lock: lock }
}

impl Session {
    /// A copy of everything recorded so far in this session.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        snapshot()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        set_enabled(false);
    }
}

/// Names the calling thread in trace exports (e.g. `"rank 3"`). The
/// flight recorder notes the name unconditionally (its dumps must label
/// rank rows post-mortem); the registry itself only stores it while
/// enabled.
pub fn set_thread_name(name: &str) {
    flight::note_thread_name(name);
    if !is_enabled() {
        return;
    }
    let tid = current_tid();
    inner().threads.insert(tid, name.to_string());
}

// --- spans ------------------------------------------------------------

struct ActiveSpan {
    cat: &'static str,
    name: &'static str,
    start: Instant,
    attrs: Vec<(&'static str, String)>,
    record_on_drop: bool,
}

/// An RAII timed region. Created by [`span`] (records when dropped) or
/// [`deferred_span`] (records only on [`Span::commit`] — dropping
/// discards, which is how error paths avoid emitting success spans).
///
/// Independently of the registry, every span also leaves a begin/end
/// pair in the always-on [`flight`] ring (cancelled and discarded spans
/// included — the flight recorder answers "what was this thread
/// *doing*", not "what succeeded").
pub struct Span {
    active: Option<ActiveSpan>,
    /// Packed flight-recorder ids from [`flight::on_span_begin`]
    /// (0 = recorder was off at open).
    flight: u64,
}

impl Span {
    /// Attaches a `key=value` attribute. The value is only formatted
    /// while the registry is enabled (disabled spans hold no state).
    pub fn attr(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if let Some(active) = &mut self.active {
            active.attrs.push((key, value.to_string()));
        }
    }

    /// Records a deferred span now. (Also fine on a regular span: it
    /// just records at `commit` time instead of drop time.)
    pub fn commit(mut self) {
        if let Some(active) = self.active.take() {
            record_span(&active);
        }
    }

    /// Discards the span — nothing is recorded.
    pub fn cancel(mut self) {
        self.active = None;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.flight != 0 {
            flight::on_span_end(self.flight);
            self.flight = 0;
        }
        if let Some(active) = self.active.take() {
            if active.record_on_drop {
                record_span(&active);
            }
        }
    }
}

fn new_span(Name(cat): Name, Name(name): Name, record_on_drop: bool) -> Span {
    let flight = flight::on_span_begin(cat, name);
    if !is_enabled() {
        return Span {
            active: None,
            flight,
        };
    }
    Span {
        active: Some(ActiveSpan {
            cat,
            name,
            start: Instant::now(),
            attrs: Vec::new(),
            record_on_drop,
        }),
        flight,
    }
}

/// Opens a span that records when it goes out of scope.
#[must_use]
pub fn span(cat: Name, name: Name) -> Span {
    new_span(cat, name, true)
}

/// Opens a span that records **only** when [`Span::commit`] is called —
/// dropping it (e.g. on an error return) records nothing.
#[must_use]
pub fn deferred_span(cat: Name, name: Name) -> Span {
    new_span(cat, name, false)
}

fn record_span(active: &ActiveSpan) {
    if !is_enabled() {
        return; // session ended while the span was open
    }
    let tid = current_tid();
    let end = Instant::now();
    let mut guard = inner();
    let start_us = active
        .start
        .saturating_duration_since(guard.epoch)
        .as_micros() as u64;
    let dur_us = end.saturating_duration_since(active.start).as_micros() as u64;
    guard.spans.push(SpanRecord {
        cat: active.cat,
        name: active.name,
        tid,
        start_us,
        dur_us,
        attrs: active.attrs.clone(),
    });
}

// --- metrics ----------------------------------------------------------

/// Adds `delta` to the monotonic counter `name`. No-op in the registry
/// while disabled; the delta still lands in the [`flight`] ring.
pub fn counter_add(name: Name<impl AsRef<str>>, delta: u64) {
    let name = name.as_ref();
    flight::on_counter(name, delta);
    if !is_enabled() {
        return;
    }
    let mut guard = inner();
    match guard.counters.get_mut(name) {
        Some(v) => *v += delta,
        None => {
            guard.counters.insert(name.to_string(), delta);
        }
    }
}

/// Current value of counter `name` (0 when never incremented). Reads
/// work even while disabled — callers poll counters after a session.
#[must_use]
pub fn counter_value(name: impl AsRef<str>) -> u64 {
    inner().counters.get(name.as_ref()).copied().unwrap_or(0)
}

/// Records one sample into histogram `name`. Non-finite samples are
/// ignored. No-op while disabled.
pub fn record_hist(name: Name<impl AsRef<str>>, value: f64) {
    if !is_enabled() || !value.is_finite() {
        return;
    }
    let name = name.as_ref();
    let mut guard = inner();
    match guard.histograms.get_mut(name) {
        Some(h) => h.record(value),
        None => {
            let mut h = Histogram::new();
            h.record(value);
            guard.histograms.insert(name.to_string(), h);
        }
    }
}

/// Sets gauge `name` to `value` (last write wins). Non-finite values
/// are ignored. No-op while disabled.
pub fn set_gauge(name: Name<impl AsRef<str>>, value: f64) {
    if !is_enabled() || !value.is_finite() {
        return;
    }
    inner().gauges.insert(name.as_ref().to_string(), value);
}

/// Publishes the lock doctor's current findings as obs metrics
/// ([`names::LOCKDOCTOR_CYCLES`], [`names::LOCKDOCTOR_HAZARDS`] counters
/// and the sites/edges/acquisitions gauges) and returns the underlying
/// structured report for rendering. The counters are deltas against the
/// doctor's previous publish in this registry epoch, so end-of-run
/// publishing is idempotent per [`reset`]. Like every record call, the
/// metric writes are no-ops while the registry is disabled; the report
/// is returned either way.
pub fn publish_lock_doctor() -> parking_lot::lock_doctor::Report {
    let report = parking_lot::lock_doctor::report();
    if is_enabled() {
        let prior_cycles = counter_value(names::LOCKDOCTOR_CYCLES);
        let prior_hazards = counter_value(names::LOCKDOCTOR_HAZARDS);
        let cycles = report.cycles.len() as u64;
        let hazards = report.hazards.len() as u64;
        counter_add(
            names::LOCKDOCTOR_CYCLES,
            cycles.saturating_sub(prior_cycles),
        );
        counter_add(
            names::LOCKDOCTOR_HAZARDS,
            hazards.saturating_sub(prior_hazards),
        );
        set_gauge(names::LOCKDOCTOR_SITES, report.sites.len() as f64);
        set_gauge(names::LOCKDOCTOR_EDGES, report.edges.len() as f64);
        set_gauge(names::LOCKDOCTOR_ACQUISITIONS, report.acquisitions as f64);
    }
    report
}

// --- snapshot ---------------------------------------------------------

/// An immutable copy of the registry contents, plus the exporters.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// All recorded spans, in recording order.
    pub spans: Vec<SpanRecord>,
    /// Thread names by tid.
    pub threads: BTreeMap<u64, String>,
    /// Counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, f64>,
}

/// Copies the registry contents out (works enabled or disabled).
#[must_use]
pub fn snapshot() -> Snapshot {
    let guard = inner();
    Snapshot {
        spans: guard.spans.clone(),
        threads: guard.threads.clone(),
        counters: guard.counters.clone(),
        histograms: guard.histograms.clone(),
        gauges: guard.gauges.clone(),
    }
}

impl Snapshot {
    /// Counter value by name (0 when absent).
    #[must_use]
    pub fn counter(&self, name: impl AsRef<str>) -> u64 {
        self.counters.get(name.as_ref()).copied().unwrap_or(0)
    }

    /// Histogram by name.
    #[must_use]
    pub fn histogram(&self, name: impl AsRef<str>) -> Option<&Histogram> {
        self.histograms.get(name.as_ref())
    }

    /// Spans whose category is `cat`.
    #[must_use]
    pub fn spans_in(&self, cat: impl AsRef<str>) -> Vec<&SpanRecord> {
        let cat = cat.as_ref();
        self.spans.iter().filter(|s| s.cat == cat).collect()
    }

    /// Spans named `name` (any category).
    #[must_use]
    pub fn spans_named(&self, name: impl AsRef<str>) -> Vec<&SpanRecord> {
        let name = name.as_ref();
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// The plain-text metrics dump: one line per counter, histogram and
    /// gauge, deterministically ordered.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        let mut out = String::from("# fsmoe-rs metrics\n");
        for (name, v) in &self.counters {
            out.push_str(&format!("counter {name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "hist {name} count={} sum={} min={} max={} mean={} p50={} p95={} p99={}\n",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
            ));
            for (i, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                let (lo, hi) = bucket_bounds(i);
                out.push_str(&format!("hist {name} bucket[{lo},{hi}) {n}\n"));
            }
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge {name} {v}\n"));
        }
        out
    }
}

fn bucket_bounds(i: usize) -> (f64, f64) {
    if i == 0 {
        (0.0, 1.0)
    } else if i == HIST_BUCKETS - 1 {
        (2f64.powi(i as i32 - 1), f64::MAX)
    } else {
        (2f64.powi(i as i32 - 1), 2f64.powi(i as i32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let _session = session();
        set_enabled(false); // keep the lock so no other test interferes
        let before = snapshot().spans.len();
        {
            let mut s = span(Name("test"), Name("ignored"));
            s.attr("k", 1);
        }
        counter_add(Name("test.counter"), 5);
        record_hist(Name("test.hist"), 2.0);
        set_gauge(Name("test.gauge"), 1.5);
        let snap = snapshot();
        assert_eq!(snap.spans.len(), before);
        assert_eq!(snap.counter("test.counter"), 0);
        assert!(snap.histogram("test.hist").is_none());
        assert!(!snap.gauges.contains_key("test.gauge"));
    }

    #[test]
    fn session_records_spans_counters_hists_gauges() {
        let session = session();
        set_thread_name("unit-test");
        {
            let mut s = span(Name("test"), Name("outer"));
            s.attr("rank", 0);
            {
                let _inner = span(Name("test"), Name("inner"));
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
        counter_add(Name("test.counter"), 2);
        counter_add(Name("test.counter"), 3);
        record_hist(Name("test.hist"), 0.5);
        record_hist(Name("test.hist"), 3.0);
        record_hist(Name("test.hist"), 1e30); // overflow bucket
        set_gauge(Name("test.gauge"), 0.25);

        let snap = session.snapshot();
        assert_eq!(snap.spans.len(), 2, "inner drops first, then outer");
        assert_eq!(snap.spans[0].name, "inner");
        assert_eq!(snap.spans[1].name, "outer");
        assert_eq!(snap.spans[1].attrs, vec![("rank", "0".to_string())]);
        // the outer span contains the inner span in time
        assert!(snap.spans[1].start_us <= snap.spans[0].start_us);
        assert!(
            snap.spans[1].start_us + snap.spans[1].dur_us
                >= snap.spans[0].start_us + snap.spans[0].dur_us
        );
        assert_eq!(snap.counter("test.counter"), 5);
        assert_eq!(counter_value("test.counter"), 5);
        let h = snap.histogram("test.hist").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[2], 1, "3.0 lands in [2,4)");
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1, "1e30 overflows");
        assert_eq!(snap.gauges["test.gauge"], 0.25);
        assert!(snap.threads.values().any(|n| n == "unit-test"));
    }

    #[test]
    fn deferred_span_discards_on_drop_and_records_on_commit() {
        let session = session();
        {
            let dropped = deferred_span(Name("test"), Name("error_path"));
            drop(dropped);
        }
        {
            let committed = deferred_span(Name("test"), Name("success_path"));
            committed.commit();
        }
        let snap = session.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "success_path");
    }

    #[test]
    fn metrics_text_lists_everything() {
        let session = session();
        counter_add(Name("a.counter"), 7);
        record_hist(Name("b.hist"), 2.5);
        set_gauge(Name("c.gauge"), 1.0);
        let text = session.snapshot().metrics_text();
        assert!(text.contains("counter a.counter 7"));
        assert!(text.contains("hist b.hist count=1"));
        assert!(text.contains("bucket[2,4) 1"));
        assert!(text.contains("gauge c.gauge 1"));
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(0.99), 0);
        assert_eq!(bucket_index(1.0), 1);
        assert_eq!(bucket_index(1.99), 1);
        assert_eq!(bucket_index(2.0), 2);
        assert_eq!(bucket_index(1024.0), 11);
        assert_eq!(bucket_index(f64::MAX), HIST_BUCKETS - 1);
    }
}
