//! The always-on flight recorder: last-N events per thread, post-mortem.
//!
//! The registry ([`crate::span`] and friends) is opt-in and lossless —
//! perfect for examples and tests, useless for the failure nobody
//! enabled tracing for. The flight recorder is the complement: every
//! span begin/end, counter delta and explicit [`annotate`] marker is
//! *also* written into a small per-thread ring buffer, **even while the
//! registry is disabled**, at a cost the `attrib` bench holds under 2%
//! of the expert-compute hot path. When something dies — a panic, a
//! poisoned collective, a hang watchdog — [`try_dump`] drains the last
//! [`RING_CAPACITY`] events from every thread into one merged Chrome
//! trace, including the spans that were still *open*, which is exactly
//! the "what was every rank doing when it wedged" question a post-mortem
//! asks.
//!
//! # Memory model
//!
//! Each thread owns one fixed-capacity ring of slots; only the owner
//! writes, so writes need no CAS. Every slot is a quartet of `AtomicU64`
//! (`seq`, `meta`, `ts`, `value`) written under a per-slot sequence
//! protocol: the writer invalidates `seq`, stores the payload, then
//! publishes `seq = n + 1` (release) and advances the ring head. A
//! dumping thread reads `seq` (acquire), the payload, then `seq` again,
//! and simply *skips* any slot whose sequence was torn by a concurrent
//! overwrite. The recorder therefore never blocks a writer and never
//! lies — at worst a dump is missing the handful of events that were
//! being overwritten while it drained. Names are interned once per
//! thread (a thread-local cache over a global table), so the steady
//! state hot path is: one atomic flag load, one cache hit, one
//! timestamp, four plain stores.
//!
//! # Dump triggers
//!
//! * [`dump_to_file`] — explicit.
//! * [`try_dump`] — writes to the path in `$FLIGHT_DUMP`, once per
//!   process (later calls are no-ops and report `false`). Wired to the
//!   panic hook ([`install_panic_hook`]), to fatal (`Poisoned`)
//!   collective errors in `collectives`, and to the in-process hang
//!   watchdog armed by `$FLIGHT_WATCHDOG_MS` ([`init_from_env`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use jsonio::Json;
use parking_lot::Mutex;

use crate::{current_tid, names, Name, TraceBuilder};

/// Events retained per thread — the "last N" of the post-mortem.
pub const RING_CAPACITY: usize = 4096;

/// The flight recorder's process id in exported traces (the registry
/// uses 1, simnet 2).
pub const FLIGHT_PID: u64 = 3;

static FLIGHT: AtomicBool = AtomicBool::new(true);
static DUMPED: AtomicBool = AtomicBool::new(false);

/// Whether the recorder currently records (it starts **on**).
#[inline]
pub fn is_enabled() -> bool {
    FLIGHT.load(Ordering::Relaxed)
}

/// Turns the recorder on or off process-wide. Benches use this to
/// price the recorder; production code has no reason to touch it.
pub fn set_enabled(enabled: bool) {
    FLIGHT.store(enabled, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

// --- event encoding ---------------------------------------------------

/// What one ring slot records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A span opened (`meta` carries its category and name).
    SpanBegin,
    /// A span closed.
    SpanEnd,
    /// A counter was bumped (`value` carries the delta).
    CounterDelta,
    /// An explicit [`annotate`] marker.
    Mark,
}

const KIND_BEGIN: u64 = 1;
const KIND_END: u64 = 2;
const KIND_COUNTER: u64 = 3;
const KIND_MARK: u64 = 4;

fn pack_meta(kind: u64, cat_id: u32, name_id: u32) -> u64 {
    (kind << 60) | ((cat_id as u64 & 0x0fff_ffff) << 32) | name_id as u64
}

fn unpack_meta(meta: u64) -> (u64, u32, u32) {
    (meta >> 60, ((meta >> 32) & 0x0fff_ffff) as u32, meta as u32)
}

// --- name interning ---------------------------------------------------

#[expect(
    clippy::disallowed_types,
    reason = "lookup-only interner table, never iterated: hash order reaches no output"
)]
type NameIds = std::collections::HashMap<String, u32>;

#[derive(Default)]
struct Interner {
    names: Vec<String>,
    ids: NameIds,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(Interner::default()))
}

thread_local! {
    static INTERN_CACHE: std::cell::RefCell<NameIds> = std::cell::RefCell::new(NameIds::new());
}

fn intern(name: &str) -> u32 {
    INTERN_CACHE.with(|cache| {
        if let Some(&id) = cache.borrow().get(name) {
            return id;
        }
        let mut global = interner().lock();
        let id = match global.ids.get(name) {
            Some(&id) => id,
            None => {
                let id = global.names.len() as u32;
                global.names.push(name.to_string());
                global.ids.insert(name.to_string(), id);
                id
            }
        };
        drop(global);
        cache.borrow_mut().insert(name.to_string(), id);
        id
    })
}

// --- rings ------------------------------------------------------------

struct Slot {
    seq: AtomicU64,
    meta: AtomicU64,
    ts: AtomicU64,
    value: AtomicU64,
}

struct Ring {
    tid: u64,
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl Ring {
    fn new(tid: u64) -> Self {
        Ring {
            tid,
            head: AtomicU64::new(0),
            slots: (0..RING_CAPACITY)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                    ts: AtomicU64::new(0),
                    value: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Owner-thread-only append (see the module-level memory model).
    fn push(&self, kind: u64, cat_id: u32, name_id: u32, value: u64) {
        let n = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[n as usize % RING_CAPACITY];
        // Invalidate (swap is a full RMW, so the payload stores below
        // cannot be observed under the *old* sequence number).
        slot.seq.swap(u64::MAX, Ordering::AcqRel);
        slot.meta
            .store(pack_meta(kind, cat_id, name_id), Ordering::Relaxed);
        slot.ts.store(now_us(), Ordering::Relaxed);
        slot.value.store(value, Ordering::Relaxed);
        slot.seq.store(n + 1, Ordering::Release);
        self.head.store(n + 1, Ordering::Release);
    }
}

fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

fn thread_names() -> &'static Mutex<BTreeMap<u64, String>> {
    static NAMES: OnceLock<Mutex<BTreeMap<u64, String>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(BTreeMap::new()))
}

thread_local! {
    static RING: std::cell::RefCell<Option<Arc<Ring>>> = const { std::cell::RefCell::new(None) };
}

fn with_ring(f: impl FnOnce(&Ring)) {
    RING.with(|cell| {
        let mut slot = cell.borrow_mut();
        let ring = slot.get_or_insert_with(|| {
            let ring = Arc::new(Ring::new(current_tid()));
            rings().lock().push(Arc::clone(&ring));
            ring
        });
        f(ring);
    });
}

// --- record hooks -----------------------------------------------------

/// Hook for [`crate::span`]: records a begin event and returns the
/// packed ids the matching end event needs (0 = recorder off).
pub(crate) fn on_span_begin(cat: &'static str, name: &'static str) -> u64 {
    if !is_enabled() {
        return 0;
    }
    let cat_id = intern(cat);
    let name_id = intern(name);
    with_ring(|ring| ring.push(KIND_BEGIN, cat_id, name_id, 0));
    // Never 0 even for ids (0, 0): the kind bits are set.
    pack_meta(KIND_BEGIN, cat_id, name_id)
}

/// Hook for [`crate::Span`]'s drop: records the end event paired with
/// `packed` (a value returned by [`on_span_begin`]).
pub(crate) fn on_span_end(packed: u64) {
    if packed == 0 || !is_enabled() {
        return;
    }
    let (_, cat_id, name_id) = unpack_meta(packed);
    with_ring(|ring| ring.push(KIND_END, cat_id, name_id, 0));
}

/// Hook for [`crate::counter_add`]: records the delta.
pub(crate) fn on_counter(name: &str, delta: u64) {
    if !is_enabled() {
        return;
    }
    let name_id = intern(name);
    let cat_id = intern(names::CAT_FLIGHT.0);
    with_ring(|ring| ring.push(KIND_COUNTER, cat_id, name_id, delta));
}

/// Hook for [`crate::set_thread_name`]: names this thread's ring row in
/// dumps (recorded whether or not the registry is enabled).
pub(crate) fn note_thread_name(name: &str) {
    if !is_enabled() {
        return;
    }
    thread_names()
        .lock()
        .insert(current_tid(), name.to_string());
}

/// Drops an instant marker into the calling thread's ring — breadcrumbs
/// for post-mortems (`"flight.panic"`, `"flight.watchdog"`, …). Name
/// discipline is the registry's: declare the marker in `obs::names`.
pub fn annotate(Name(name): Name) {
    if !is_enabled() {
        return;
    }
    let name_id = intern(name);
    let cat_id = intern(names::CAT_FLIGHT.0);
    with_ring(|ring| ring.push(KIND_MARK, cat_id, name_id, 0));
}

/// Total events ever recorded across all rings (monotonic; survives
/// wraparound). Benches use the delta around a workload to count the
/// recorder's event rate.
#[must_use]
pub fn events_recorded() -> u64 {
    rings()
        .lock()
        .iter()
        .map(|r| r.head.load(Ordering::Acquire))
        .sum()
}

// --- draining ---------------------------------------------------------

/// One decoded ring event, as [`recent_events`] returns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Recording thread (the registry's tid space).
    pub tid: u64,
    /// The event's absolute sequence number on its thread (monotonic).
    pub seq: u64,
    /// Event kind.
    pub kind: FlightKind,
    /// Span/marker category (counters use `"flight"`).
    pub cat: String,
    /// Span, counter or marker name.
    pub name: String,
    /// Microseconds since the recorder's process epoch.
    pub ts_us: u64,
    /// Counter delta (0 for non-counter events).
    pub value: u64,
}

/// Snapshots the last ≤ [`RING_CAPACITY`] events of every thread, in
/// per-thread sequence order. Slots torn by concurrent overwrites are
/// skipped, never misread.
#[must_use]
pub fn recent_events() -> Vec<FlightEvent> {
    let rings: Vec<Arc<Ring>> = rings().lock().clone();
    let table: Vec<String> = interner().lock().names.clone();
    let mut out = Vec::new();
    for ring in rings {
        let head = ring.head.load(Ordering::Acquire);
        let start = head.saturating_sub(RING_CAPACITY as u64);
        for n in start..head {
            let slot = &ring.slots[n as usize % RING_CAPACITY];
            let expect = n + 1;
            if slot.seq.load(Ordering::Acquire) != expect {
                continue;
            }
            let meta = slot.meta.load(Ordering::Relaxed);
            let ts = slot.ts.load(Ordering::Relaxed);
            let value = slot.value.load(Ordering::Relaxed);
            std::sync::atomic::fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != expect {
                continue; // overwritten while we read — skip the torn slot
            }
            let (kind, cat_id, name_id) = unpack_meta(meta);
            let kind = match kind {
                KIND_BEGIN => FlightKind::SpanBegin,
                KIND_END => FlightKind::SpanEnd,
                KIND_COUNTER => FlightKind::CounterDelta,
                KIND_MARK => FlightKind::Mark,
                _ => continue,
            };
            let (Some(cat), Some(name)) = (table.get(cat_id as usize), table.get(name_id as usize))
            else {
                continue;
            };
            out.push(FlightEvent {
                tid: ring.tid,
                seq: n,
                kind,
                cat: cat.clone(),
                name: name.clone(),
                ts_us: ts,
                value,
            });
        }
    }
    out
}

/// Drains every ring into one merged Chrome trace-event document.
///
/// Per thread, begin/end events replay into `"X"` complete spans; ends
/// without a begin in the window get a begin synthesized at the
/// window's start, and spans still *open* are closed at "now" and
/// tagged `"open": "true"` — those are the post-mortem's main exhibit.
/// Counter deltas accumulate into `"C"` events. The dump always
/// contains at least its own `flight.dump` marker span, so it always
/// validates.
#[must_use]
pub fn dump_json(reason: &str) -> Json {
    crate::counter_add(names::FLIGHT_DUMPS, 1);
    let events = recent_events();
    let named = thread_names().lock().clone();
    let now = now_us();

    let mut builder = TraceBuilder::new();
    builder.process_name(FLIGHT_PID, "flight recorder");
    let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for &tid in &tids {
        let fallback = format!("thread {tid}");
        builder.thread_name(FLIGHT_PID, tid, named.get(&tid).unwrap_or(&fallback));
    }

    // (name, cumulative) per counter, across threads, in time order.
    let mut counter_events: Vec<(&str, u64, u64)> = Vec::new(); // name, ts, delta
    let mut total_events = 0usize;
    for &tid in &tids {
        let thread_events: Vec<&FlightEvent> = events.iter().filter(|e| e.tid == tid).collect();
        total_events += thread_events.len();
        let window_start = thread_events.iter().map(|e| e.ts_us).min().unwrap_or(0);
        // (cat, name, begin ts) of currently-open spans.
        let mut stack: Vec<(&str, &str, u64)> = Vec::new();
        // (cat, name, ts, dur, open)
        let mut xs: Vec<(&str, &str, u64, u64, bool)> = Vec::new();
        for ev in &thread_events {
            match ev.kind {
                FlightKind::SpanBegin => stack.push((&ev.cat, &ev.name, ev.ts_us)),
                FlightKind::SpanEnd => {
                    let (cat, name, begin) = stack
                        .pop()
                        // begin fell off the ring: synthesize it at the
                        // window start so the span still renders
                        .unwrap_or((&ev.cat, &ev.name, window_start));
                    xs.push((cat, name, begin, ev.ts_us.saturating_sub(begin), false));
                }
                FlightKind::CounterDelta => {
                    counter_events.push((&ev.name, ev.ts_us, ev.value));
                }
                FlightKind::Mark => xs.push((&ev.cat, &ev.name, ev.ts_us, 0, false)),
            }
        }
        for (cat, name, begin) in stack {
            xs.push((cat, name, begin, now.saturating_sub(begin), true));
        }
        xs.sort_by(|a, b| a.2.cmp(&b.2).then(b.3.cmp(&a.3)));
        for (cat, name, ts, dur, open) in xs {
            let args: &[(&str, &str)] = if open { &[("open", "true")] } else { &[] };
            builder.complete(FLIGHT_PID, tid, cat, name, ts, dur, args);
        }
    }
    counter_events.sort_by_key(|&(_, ts, _)| ts);
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, ts, delta) in counter_events {
        let total = totals.entry(name).or_insert(0);
        *total += delta;
        builder.counter(FLIGHT_PID, name, ts, *total as f64);
    }
    // The dump's own marker: every dump is a valid trace, even an
    // empty one.
    builder.complete(
        FLIGHT_PID,
        0,
        names::CAT_FLIGHT.0,
        names::FLIGHT_DUMP_SPAN.0,
        now,
        0,
        &[("reason", reason)],
    );

    builder.into_trace([(
        "flight",
        Json::obj([
            ("reason", Json::from(reason)),
            ("events", Json::from(total_events as f64)),
            ("threads", Json::from(tids.len() as f64)),
            ("capacity_per_thread", Json::from(RING_CAPACITY as f64)),
        ]),
    )])
}

/// Dumps the flight rings to `path` (parent directories are created).
/// Returns the number of ring events drained.
///
/// # Errors
///
/// Returns a description of the I/O or serialization failure.
pub fn dump_to_file(path: &std::path::Path, reason: &str) -> Result<usize, String> {
    let doc = dump_json(reason);
    let events = doc
        .get("flight")
        .and_then(|f| f.get("events"))
        .and_then(|e| e.as_f64())
        .map_or(0, |e| e as usize);
    let text = doc
        .to_string()
        .map_err(|e| format!("flight dump serialization: {e}"))?;
    crate::write_creating_dirs(path, &(text + "\n"))?;
    Ok(events)
}

/// Dumps to the path named by `$FLIGHT_DUMP`, **once per process** —
/// the first fatal event wins, later triggers are no-ops. Returns
/// whether this call performed the dump. With `$FLIGHT_DUMP` unset this
/// is free and does nothing, so fatal paths may call it unconditionally.
pub fn try_dump(reason: &str) -> bool {
    let Ok(path) = std::env::var("FLIGHT_DUMP") else {
        return false;
    };
    if DUMPED.swap(true, Ordering::SeqCst) {
        return false;
    }
    match dump_to_file(std::path::Path::new(&path), reason) {
        Ok(events) => {
            eprintln!("flight recorder: dumped {events} events to {path} ({reason})");
            true
        }
        Err(e) => {
            eprintln!("flight recorder: dump failed: {e}");
            false
        }
    }
}

/// Installs a panic hook (once) that marks the panic in the ring and
/// [`try_dump`]s before delegating to the previous hook.
pub fn install_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            annotate(names::FLIGHT_PANIC);
            try_dump("panic");
            prev(info);
        }));
    });
}

/// Arms the env-driven post-mortem hooks (idempotent; the multi-rank
/// harnesses call this on every world launch):
///
/// * `$FLIGHT_DUMP=<path>` — installs the panic hook;
/// * `$FLIGHT_WATCHDOG_MS=<ms>` — additionally spawns a detached
///   watchdog thread that marks and dumps if the process is still
///   alive that much later (set it just below the external kill
///   timeout, so the dump lands *before* the kill).
pub fn init_from_env() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        if std::env::var_os("FLIGHT_DUMP").is_none() {
            return;
        }
        install_panic_hook();
        let Some(ms) = std::env::var("FLIGHT_WATCHDOG_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        else {
            return;
        };
        let _ = std::thread::Builder::new()
            .name("flight-watchdog".to_string())
            .spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                annotate(names::FLIGHT_WATCHDOG);
                try_dump("watchdog");
            });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toggling the global recorder lives in a lib test. Both tests that
    /// record through `crate::span` hold the session lock: it keeps the
    /// off-window here from racing the ring assertions below, and keeps
    /// their spans out of whatever session another test has open.
    #[test]
    fn disabled_recorder_records_nothing() {
        let _serial = crate::session();
        set_enabled(false);
        annotate(Name("flight.test.disabled"));
        {
            let _s = crate::span(Name("flighttest"), Name("while.disabled"));
        }
        set_enabled(true);
        assert!(
            !recent_events()
                .iter()
                .any(|e| e.name == "flight.test.disabled" || e.name == "while.disabled"),
            "no events recorded while the recorder is off"
        );
    }

    #[test]
    fn spans_counters_and_marks_land_in_the_ring() {
        let _serial = crate::session();
        let before = events_recorded();
        {
            let _s = crate::span(Name("flighttest"), Name("ring.span"));
        }
        crate::counter_add(Name("flight.test.counter"), 3);
        annotate(Name("flight.test.mark"));
        assert!(events_recorded() >= before + 4, "begin+end+counter+mark");

        let events = recent_events();
        let find =
            |name: &str, kind: FlightKind| events.iter().any(|e| e.name == name && e.kind == kind);
        assert!(find("ring.span", FlightKind::SpanBegin));
        assert!(find("ring.span", FlightKind::SpanEnd));
        assert!(find("flight.test.mark", FlightKind::Mark));
        assert!(events.iter().any(|e| e.name == "flight.test.counter"
            && e.kind == FlightKind::CounterDelta
            && e.value == 3));
    }

    #[test]
    fn meta_packing_roundtrips() {
        let packed = pack_meta(KIND_COUNTER, 7, u32::MAX);
        assert_eq!(unpack_meta(packed), (KIND_COUNTER, 7, u32::MAX));
        let packed = pack_meta(KIND_BEGIN, 0, 0);
        assert_ne!(packed, 0, "a real begin never packs to the none-sentinel");
    }
}
