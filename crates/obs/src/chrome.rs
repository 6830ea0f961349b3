//! Chrome trace-event JSON export.
//!
//! The [trace-event format] is the lingua franca of timeline viewers:
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) both load
//! it directly. We emit the JSON-object form — `{"traceEvents": [...]}`
//! — with three event kinds:
//!
//! * `"X"` complete events (one per span: `name`, `cat`, `ts`, `dur` in
//!   µs, `pid`/`tid`, attributes under `args`);
//! * `"M"` metadata events naming processes and threads;
//! * `"C"` counter events carrying final counter values.
//!
//! Nesting needs no explicit parent links: viewers stack spans on the
//! same thread row by time containment, which is exactly how our RAII
//! spans nest. Extra top-level keys are allowed by the spec and ignored
//! by viewers, so [`Snapshot::chrome_trace`] also embeds the full
//! metrics snapshot under a top-level `"metrics"` key — one artifact
//! holds the timeline *and* the counters/histograms/gauges.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::BTreeMap;

use jsonio::Json;

use crate::{validate_trace, Histogram, Snapshot, TraceStats};

/// Incrementally builds a trace-event document. Shared by the registry
/// exporter and `simnet`'s timeline exporter so both emit one schema.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    events: Vec<Json>,
}

impl TraceBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    /// Names process `pid` in the viewer's process list.
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.events.push(Json::obj([
            ("ph", Json::from("M")),
            ("name", Json::from("process_name")),
            ("pid", Json::from(pid as f64)),
            ("tid", Json::from(0.0)),
            ("args", Json::obj([("name", Json::from(name))])),
        ]));
    }

    /// Names thread `tid` of process `pid` (one timeline row).
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.events.push(Json::obj([
            ("ph", Json::from("M")),
            ("name", Json::from("thread_name")),
            ("pid", Json::from(pid as f64)),
            ("tid", Json::from(tid as f64)),
            ("args", Json::obj([("name", Json::from(name))])),
        ]));
    }

    /// One complete ("X") event: a closed interval on a thread row.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per field of a Chrome \"X\" event"
    )]
    pub fn complete(
        &mut self,
        pid: u64,
        tid: u64,
        cat: &str,
        name: &str,
        ts_us: u64,
        dur_us: u64,
        args: &[(&str, &str)],
    ) {
        let args_obj = Json::Obj(
            args.iter()
                .map(|(k, v)| ((*k).to_string(), Json::from(*v)))
                .collect::<BTreeMap<_, _>>(),
        );
        self.events.push(Json::obj([
            ("ph", Json::from("X")),
            ("name", Json::from(name)),
            ("cat", Json::from(cat)),
            ("pid", Json::from(pid as f64)),
            ("tid", Json::from(tid as f64)),
            ("ts", Json::from(ts_us as f64)),
            ("dur", Json::from(dur_us as f64)),
            ("args", args_obj),
        ]));
    }

    /// One counter ("C") event: a sampled value at `ts_us`.
    pub fn counter(&mut self, pid: u64, name: &str, ts_us: u64, value: f64) {
        self.events.push(Json::obj([
            ("ph", Json::from("C")),
            ("name", Json::from(name)),
            ("pid", Json::from(pid as f64)),
            ("tid", Json::from(0.0)),
            ("ts", Json::from(ts_us as f64)),
            ("args", Json::obj([("value", Json::from(value))])),
        ]));
    }

    /// Finishes the document: `{"traceEvents": [...], ...extra}`.
    #[must_use]
    pub fn into_trace(self, extra: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        let mut top = BTreeMap::new();
        top.insert("traceEvents".to_string(), Json::Arr(self.events));
        top.insert("displayTimeUnit".to_string(), Json::from("ms"));
        for (k, v) in extra {
            top.insert(k.to_string(), v);
        }
        Json::Obj(top)
    }
}

/// The registry's process id in exported traces (`simnet` uses 2, so a
/// simulated timeline and a real run open side-by-side in one viewer).
pub const REGISTRY_PID: u64 = 1;

impl Snapshot {
    /// Exports the snapshot as one Chrome trace-event document: every
    /// span as an `"X"` event (attributes under `args`), thread-name
    /// metadata, final counter values as `"C"` events, and the complete
    /// metrics snapshot under the top-level `"metrics"` key.
    #[must_use]
    pub fn chrome_trace(&self) -> Json {
        let mut builder = TraceBuilder::new();
        builder.process_name(REGISTRY_PID, "fsmoe-rs");

        let mut tids: Vec<u64> = self.spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let fallback = format!("thread {tid}");
            let name = self.threads.get(&tid).unwrap_or(&fallback);
            builder.thread_name(REGISTRY_PID, tid, name);
        }

        // Viewers want rows sorted by start time; ties break longest
        // first so parents precede their children.
        let mut spans: Vec<_> = self.spans.iter().collect();
        spans.sort_by(|a, b| {
            a.start_us
                .cmp(&b.start_us)
                .then(b.dur_us.cmp(&a.dur_us))
                .then(a.tid.cmp(&b.tid))
        });
        let mut max_ts = 0u64;
        for span in spans {
            max_ts = max_ts.max(span.start_us + span.dur_us);
            let args: Vec<(&str, &str)> =
                span.attrs.iter().map(|(k, v)| (*k, v.as_str())).collect();
            builder.complete(
                REGISTRY_PID,
                span.tid,
                span.cat,
                span.name,
                span.start_us,
                span.dur_us,
                &args,
            );
        }
        for (name, &value) in &self.counters {
            builder.counter(REGISTRY_PID, name, max_ts, value as f64);
        }

        builder.into_trace([("metrics", self.metrics_json())])
    }

    /// Writes [`chrome_trace`](Self::chrome_trace) to `path` and
    /// re-validates the written text exactly as CI's checker sees it.
    ///
    /// # Errors
    ///
    /// Returns a description of the serialization, I/O or validation
    /// failure.
    pub fn write_validated_trace(&self, path: &str) -> Result<TraceStats, String> {
        let text = self
            .chrome_trace()
            .to_string()
            .map_err(|e| format!("trace serialization: {e}"))?;
        crate::write_creating_dirs(std::path::Path::new(path), &text)?;
        validate_trace(&text)
    }

    /// The metrics snapshot as a JSON object (the `"metrics"` key of
    /// [`Snapshot::chrome_trace`]).
    #[must_use]
    pub fn metrics_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, &v)| (k.clone(), Json::from(v as f64)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| (k.clone(), histogram_json(h)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, &v)| (k.clone(), Json::from(v)))
                .collect(),
        );
        Json::obj([
            ("counters", counters),
            ("histograms", histograms),
            ("gauges", gauges),
        ])
    }
}

fn histogram_json(h: &Histogram) -> Json {
    // An empty histogram is never stored, so min/max are finite.
    Json::obj([
        ("count", Json::from(h.count as f64)),
        ("sum", Json::from(h.sum)),
        ("min", Json::from(h.min)),
        ("max", Json::from(h.max)),
        ("mean", Json::from(h.mean())),
        ("p50", Json::from(h.quantile(0.50))),
        ("p95", Json::from(h.quantile(0.95))),
        ("p99", Json::from(h.quantile(0.99))),
        (
            "buckets",
            Json::Arr(h.buckets.iter().map(|&n| Json::from(n as f64)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use crate::Name;

    #[test]
    fn write_validated_trace_creates_dirs_and_revalidates_the_file() {
        let session = crate::session();
        drop(crate::span(Name("test"), Name("written")));
        let snap = session.snapshot();
        let dir = std::env::temp_dir().join(format!("obs_trace_{}", std::process::id()));
        let path = dir.join("nested/trace.json");
        let stats = snap
            .write_validated_trace(path.to_str().unwrap())
            .expect("trace writes and validates");
        assert!(stats.spans >= 1, "{stats}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(crate::validate_trace(&text).unwrap(), stats);
        assert!(stats.to_string().contains("spans on"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chrome_trace_contains_spans_threads_counters_and_metrics() {
        let session = crate::session();
        crate::set_thread_name("exporter-test");
        {
            let mut s = crate::span(Name("test"), Name("op"));
            s.attr("bytes", 64);
        }
        crate::counter_add(Name("test.counter"), 3);
        crate::record_hist(Name("test.hist"), 5.0);
        let doc = session.snapshot().chrome_trace();

        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let xs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str().unwrap() == "X")
            .collect();
        assert_eq!(xs.len(), 1);
        assert_eq!(xs[0].get("name").unwrap().as_str().unwrap(), "op");
        assert_eq!(
            xs[0]
                .get("args")
                .unwrap()
                .get("bytes")
                .unwrap()
                .as_str()
                .unwrap(),
            "64"
        );
        assert!(events.iter().any(|e| {
            e.get("ph").unwrap().as_str().unwrap() == "C"
                && e.get("name").unwrap().as_str().unwrap() == "test.counter"
        }));
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("counters")
                .unwrap()
                .get("test.counter")
                .unwrap()
                .as_usize()
                .unwrap(),
            3
        );
        assert_eq!(
            metrics
                .get("histograms")
                .unwrap()
                .get("test.hist")
                .unwrap()
                .get("count")
                .unwrap()
                .as_usize()
                .unwrap(),
            1
        );
        // and the whole document passes the CI checker
        crate::validate_trace(&doc.to_string().unwrap()).unwrap();
    }
}
