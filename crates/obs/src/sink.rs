//! Trace sinks and the [`Tracer`] handle that feeds them.

use crate::event::TraceEvent;
use serde::Value;
use std::collections::VecDeque;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A consumer of cycle-stamped [`TraceEvent`]s.
pub trait TraceSink: Send {
    /// Records one event. `cycle` is the machine cycle the event occurred
    /// on; within one run, calls arrive with non-decreasing cycles.
    fn record(&mut self, cycle: u64, event: TraceEvent);

    /// Finalizes the sink (e.g. writes buffered output). Called once when
    /// the run ends; implementations must tolerate repeated calls.
    fn finish(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A sink that drops every event.
///
/// Used by the bench guard to prove the emission hooks cost nothing
/// beyond the `Tracer`'s branch: recording through a `NullSink` performs
/// no allocation and no work.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn record(&mut self, _cycle: u64, _event: TraceEvent) {}
}

/// An in-memory ring buffer keeping the most recent `capacity` events.
#[derive(Debug)]
pub struct RingRecorder {
    buf: VecDeque<(u64, TraceEvent)>,
    capacity: usize,
    dropped: u64,
}

impl RingRecorder {
    /// A recorder holding at most `capacity` events (oldest evicted first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RingRecorder capacity must be positive");
        RingRecorder {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(u64, TraceEvent)> {
        self.buf.iter()
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for RingRecorder {
    fn record(&mut self, cycle: u64, event: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back((cycle, event));
    }
}

/// One Chrome trace-event record. Every producer in the crate (the
/// event-trace writer here, clp-trend's counter tracks, clp-scope's
/// span export) builds its records through this, so the key order and
/// the absent-means-omitted rule are written once.
#[derive(Default)]
pub(crate) struct ChromeEvent<'a> {
    pub(crate) name: String,
    pub(crate) cat: Option<&'a str>,
    pub(crate) ph: &'a str,
    pub(crate) ts: Option<u64>,
    pub(crate) dur: Option<u64>,
    pub(crate) pid: u64,
    pub(crate) tid: Option<u64>,
    pub(crate) id: Option<Value>,
    /// Instant scope (`"s"`).
    pub(crate) scope: Option<&'a str>,
    pub(crate) args: Option<Value>,
}

impl ChromeEvent<'_> {
    /// The record as a JSON object: the fields below in this order,
    /// an absent one omitted. Consumes the event, so a trace of a
    /// million records copies none of them.
    pub(crate) fn into_value(self) -> Value {
        let text = |s: &str| Value::String(s.to_string());
        let fields = [
            ("name", Some(Value::String(self.name))),
            ("cat", self.cat.map(text)),
            ("ph", Some(text(self.ph))),
            ("ts", self.ts.map(Value::UInt)),
            ("dur", self.dur.map(Value::UInt)),
            ("pid", Some(Value::UInt(self.pid))),
            ("tid", self.tid.map(Value::UInt)),
            ("id", self.id),
            ("s", self.scope.map(text)),
            ("args", self.args),
        ];
        let present = fields.into_iter();
        Value::Object(
            present
                .filter_map(|(k, v)| Some((k.to_string(), v?)))
                .collect(),
        )
    }

    /// A counter-track sample (`ph: "C"`): one series per `args` key.
    pub(crate) fn counter(name: &str, ts: u64, pid: u64, args: Value) -> Value {
        let event = ChromeEvent {
            name: name.to_string(),
            ph: "C",
            ts: Some(ts),
            pid,
            args: Some(args),
            ..ChromeEvent::default()
        };
        event.into_value()
    }
}

/// The compact `{"traceEvents": [..]}` text Perfetto loads, with its
/// `displayTimeUnit` when one is given. Takes the events by value and
/// writes the tree as it stands (`json!` and `serde_json::to_string`
/// would each copy it first).
pub(crate) fn chrome_trace(events: Vec<Value>, unit: Option<&str>) -> String {
    let mut doc = vec![("traceEvents".to_string(), Value::Array(events))];
    if let Some(unit) = unit {
        doc.push((
            "displayTimeUnit".to_string(),
            Value::String(unit.to_string()),
        ));
    }
    serde::json::to_string_value(&Value::Object(doc), false)
}

/// Writes the run as Chrome trace-event JSON, loadable in Perfetto
/// (<https://ui.perfetto.dev>) or `chrome://tracing`.
///
/// Block lifecycles become async begin/end pairs (`ph: "b"`/`"e"`) so a
/// block renders as a span from fetch to commit/flush; everything else
/// is an instant (`ph: "i"`). One simulated cycle maps to one
/// microsecond of trace time.
pub struct ChromeTraceWriter {
    path: PathBuf,
    events: Vec<Value>,
    written: bool,
}

impl ChromeTraceWriter {
    /// A writer that will emit JSON to `path` on [`TraceSink::finish`].
    #[must_use]
    pub fn new(path: impl AsRef<Path>) -> Self {
        ChromeTraceWriter {
            path: path.as_ref().to_path_buf(),
            events: Vec::new(),
            written: false,
        }
    }

    fn push(&mut self, cycle: u64, ph: &str, name: String, ev: &TraceEvent, id: Option<u64>) {
        let (pid, tid) = ev.track();
        let args = ev.args().into_iter().map(|(k, v)| (k.to_string(), v));
        let event = ChromeEvent {
            name,
            cat: Some(ev.category()),
            ph,
            ts: Some(cycle),
            pid,
            tid: Some(tid),
            id: id.map(|id| Value::String(format!("{id:#x}"))),
            // Thread-scoped instant.
            scope: (ph == "i").then_some("t"),
            args: Some(Value::Object(args.collect())),
            ..ChromeEvent::default()
        };
        self.events.push(event.into_value());
    }

    /// Number of buffered trace records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for ChromeTraceWriter {
    fn record(&mut self, cycle: u64, event: TraceEvent) {
        match event {
            TraceEvent::BlockFetched { proc, addr, .. } => {
                // Async span: opened at fetch, closed at commit/flush.
                let id = addr ^ ((proc as u64) << 48);
                self.push(cycle, "b", format!("block {addr:#x}"), &event, Some(id));
            }
            TraceEvent::BlockCommitted { proc, addr, .. }
            | TraceEvent::BlockFlushed { proc, addr, .. } => {
                let id = addr ^ ((proc as u64) << 48);
                self.push(cycle, "e", format!("block {addr:#x}"), &event, Some(id));
                // Also drop an instant so the cause is visible at a glance.
                self.push(cycle, "i", event.kind().to_string(), &event, None);
            }
            TraceEvent::ProfileBuckets { .. } => {
                // Counter sample: Perfetto draws one stacked counter
                // track per bucket from the args object.
                self.push(cycle, "C", event.kind().to_string(), &event, None);
            }
            _ => self.push(cycle, "i", event.kind().to_string(), &event, None),
        }
    }

    fn finish(&mut self) -> std::io::Result<()> {
        if self.written {
            return Ok(());
        }
        let text = chrome_trace(std::mem::take(&mut self.events), Some("ms"));
        std::fs::write(&self.path, text)?;
        self.written = true;
        Ok(())
    }
}

impl fmt::Debug for ChromeTraceWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChromeTraceWriter")
            .field("path", &self.path)
            .field("events", &self.events.len())
            .finish()
    }
}

/// The cheap, cloneable handle subsystems emit through.
///
/// `Tracer::off()` is the default everywhere: one `Option` check and the
/// event-constructing closure never runs, so an untraced run pays a
/// single predictable branch per hook. When tracing is on, all clones
/// share one sink behind a mutex (the simulator is single-threaded per
/// machine; the lock is uncontended).
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Mutex<dyn TraceSink>>>);

impl Tracer {
    /// A disabled tracer (all hooks become a single branch).
    #[must_use]
    pub fn off() -> Self {
        Tracer(None)
    }

    /// A tracer feeding `sink`.
    #[must_use]
    pub fn new(sink: impl TraceSink + 'static) -> Self {
        Tracer(Some(Arc::new(Mutex::new(sink))))
    }

    /// A tracer sharing an existing sink handle (lets the caller keep
    /// access to the sink, e.g. to inspect a [`RingRecorder`] afterwards).
    #[must_use]
    pub fn shared(sink: Arc<Mutex<dyn TraceSink>>) -> Self {
        Tracer(Some(sink))
    }

    /// Whether a sink is attached.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records the event produced by `make` — which is only invoked when
    /// a sink is attached, keeping the disabled path free of event
    /// construction.
    #[inline]
    pub fn emit(&self, cycle: u64, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.0 {
            sink.lock()
                .expect("trace sink poisoned")
                .record(cycle, make());
        }
    }

    /// Finalizes the sink (writes buffered output for file-backed sinks).
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error, if any.
    pub fn finish(&self) -> std::io::Result<()> {
        match &self.0 {
            Some(sink) => sink.lock().expect("trace sink poisoned").finish(),
            None => Ok(()),
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tracer({})", if self.enabled() { "on" } else { "off" })
    }
}
