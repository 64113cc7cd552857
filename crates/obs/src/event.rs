//! Structured JSONL access/event log with a non-blocking producer side.
//!
//! The serving hot path must never wait on disk: [`EventLog`] puts a
//! bounded channel between request threads and a dedicated writer thread,
//! and producers use a *non-blocking* send — when the channel is full the
//! line is counted as dropped (observable in `/metrics`) instead of
//! stalling the request. That makes the log lossy under extreme pressure
//! by design, which is the correct trade for an access log: the metrics
//! plane keeps exact counts, the log keeps exemplars.
//!
//! Log lines follow the `powerfits-access-v1` schema: the first line is a
//! `meta` record naming the schema, then `request` records (one per
//! served request, carrying the trace id, endpoint, status, cache
//! disposition, latency, and the flattened phase tree) and leveled
//! `event` records interleave. [`validate_access_jsonl`] checks a whole
//! log against that schema and is what `fitsctl checklog` and CI run.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::json::Shape::{Arr, Lit, Num, Obj, Str};
use crate::json::{text_of, typed_line, Shape, Value, Writer};
use crate::metrics::Counter;
use crate::span::Span;

/// Schema identifier written in the log's leading `meta` record.
pub const ACCESS_SCHEMA: &str = "powerfits-access-v1";

/// Severity of an `event` record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// Routine operational notices (startup, shutdown, dumps).
    Info,
    /// Degraded but self-healing conditions (shedding, drops).
    Warn,
    /// Failed requests or internal faults.
    Error,
}

impl Level {
    /// The schema's string form of the level.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// Everything one `request` log line carries. Phases are the request's
/// top-level spans; they are flattened to slash paths in the line, so the
/// full nesting survives without recursive JSON in every record.
#[derive(Debug)]
pub struct AccessRecord<'a> {
    /// Request trace id (echoed to the client as `X-Fits-Trace`).
    pub trace: &'a str,
    /// HTTP method.
    pub method: &'a str,
    /// Normalized endpoint label (path without query).
    pub endpoint: &'a str,
    /// Response status code.
    pub status: u16,
    /// Cache disposition: `hit`, `coalesced`, `miss`, or `-`.
    pub cache: &'a str,
    /// Total request latency in microseconds.
    pub us: u64,
    /// The request's span forest (empty when tracing is off).
    pub phases: &'a [Span],
}

impl AccessRecord<'_> {
    /// Renders the record as one schema-conformant JSONL line (no
    /// trailing newline).
    #[must_use]
    pub fn line(&self) -> String {
        let level = if self.status >= 500 {
            Level::Error
        } else if self.status >= 400 {
            Level::Warn
        } else {
            Level::Info
        };
        let mut w = Writer::new();
        w.begin_obj();
        w.field_str("type", "request");
        w.field_str("level", level.name());
        w.field_str("trace", self.trace);
        w.field_str("method", self.method);
        w.field_str("endpoint", self.endpoint);
        w.field_u64("status", u64::from(self.status));
        w.field_str("cache", self.cache);
        w.field_u64("us", self.us);
        w.key("phases");
        w.begin_arr();
        for span in self.phases {
            write_phases(&mut w, span, "");
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }
}

/// Flattens a span subtree into `{"name": "a/b", "us": .., "count": ..}`
/// entries, depth-first — the same order `SpanRegistry::visit` walks.
fn write_phases(w: &mut Writer, span: &Span, prefix: &str) {
    let path = if prefix.is_empty() {
        span.name.clone()
    } else {
        format!("{prefix}/{}", span.name)
    };
    w.begin_obj();
    w.field_str("name", &path);
    w.field_u64("us", span.nanos / 1_000);
    w.field_u64("count", span.count);
    w.end_obj();
    for child in &span.children {
        write_phases(w, child, &path);
    }
}

/// Renders a leveled `event` record as one JSONL line.
#[must_use]
pub fn event_line(level: Level, message: &str) -> String {
    let mut w = Writer::new();
    w.begin_obj();
    w.field_str("type", "event");
    w.field_str("level", level.name());
    w.field_str("message", message);
    w.end_obj();
    w.finish()
}

/// Renders the leading `meta` record.
#[must_use]
pub fn meta_line(commit: &str) -> String {
    let mut w = Writer::new();
    w.begin_obj();
    w.field_str("type", "meta");
    w.field_str("schema", ACCESS_SCHEMA);
    w.field_u64("pid", u64::from(std::process::id()));
    w.field_str("commit", commit);
    w.end_obj();
    w.finish()
}

/// Where the writer thread sends bytes.
type Sink = Box<dyn std::io::Write + Send>;

/// A bounded, non-blocking JSONL log.
///
/// Cloning is cheap (`Arc` inside); all clones feed the same writer
/// thread. A disabled log ([`EventLog::disabled`]) accepts and discards
/// every line without counting drops — "off" is not "failing".
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    inner: Option<Arc<LogInner>>,
}

struct LogInner {
    tx: Mutex<Option<SyncSender<String>>>,
    handle: Mutex<Option<JoinHandle<()>>>,
    dropped: Counter,
    emitted: Counter,
    capacity: usize,
}

impl std::fmt::Debug for LogInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogInner")
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped.get())
            .finish()
    }
}

impl EventLog {
    /// A log that discards everything (tracing off / no `--access-log`).
    #[must_use]
    pub fn disabled() -> EventLog {
        EventLog { inner: None }
    }

    /// A log appending to `path`, with a producer-side channel holding at
    /// most `capacity` in-flight lines. Writes the `meta` record first.
    pub fn to_file(path: &Path, capacity: usize, commit: &str) -> std::io::Result<EventLog> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(EventLog::to_sink(Box::new(file), capacity, commit))
    }

    /// A log writing to an arbitrary sink (used by tests to capture the
    /// stream in memory). Writes the `meta` record first.
    #[must_use]
    pub fn to_sink(mut sink: Sink, capacity: usize, commit: &str) -> EventLog {
        let (tx, rx) = sync_channel::<String>(capacity.max(1));
        let meta = meta_line(commit);
        let handle = std::thread::Builder::new()
            .name("fits-event-log".into())
            .spawn(move || {
                let _ = writeln!(sink, "{meta}");
                let _ = sink.flush();
                while let Ok(line) = rx.recv() {
                    let _ = writeln!(sink, "{line}");
                    let _ = sink.flush();
                }
                let _ = sink.flush();
            });
        // Thread spawn failing means the process is in deep trouble;
        // degrade to a log that counts every line as dropped.
        let handle = handle.ok();
        EventLog {
            inner: Some(Arc::new(LogInner {
                tx: Mutex::new(handle.is_some().then_some(tx)),
                handle: Mutex::new(handle),
                dropped: Counter::new(),
                emitted: Counter::new(),
                capacity: capacity.max(1),
            })),
        }
    }

    /// True when lines go anywhere at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Channel capacity (0 when disabled).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.capacity)
    }

    /// Enqueues one line without blocking. When the channel is full or
    /// the log is closed, the line is dropped and counted.
    pub fn emit(&self, line: String) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let tx = match inner.tx.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        match tx.as_ref() {
            Some(tx) => match tx.try_send(line) {
                Ok(()) => inner.emitted.inc(),
                Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                    inner.dropped.inc();
                }
            },
            None => inner.dropped.inc(),
        }
    }

    /// Lines accepted into the channel so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.emitted.get())
    }

    /// Lines dropped because the channel was full or closed.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.dropped.get())
    }

    /// Closes the channel and joins the writer thread, guaranteeing every
    /// accepted line reached the sink. Idempotent; later `emit`s count as
    /// drops.
    pub fn close(&self) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let tx = match inner.tx.lock() {
            Ok(mut g) => g.take(),
            Err(poisoned) => poisoned.into_inner().take(),
        };
        drop(tx);
        let handle = match inner.handle.lock() {
            Ok(mut g) => g.take(),
            Err(poisoned) => poisoned.into_inner().take(),
        };
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

/// A shared in-memory sink for tests: the bytes written so far are
/// readable through the returned handle.
#[must_use]
pub fn memory_sink() -> (Sink, Arc<Mutex<Vec<u8>>>) {
    #[derive(Clone)]
    struct Mem(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for Mem {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            match self.0.lock() {
                Ok(mut g) => g.extend_from_slice(buf),
                Err(poisoned) => poisoned.into_inner().extend_from_slice(buf),
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let shared = Arc::new(Mutex::new(Vec::new()));
    (Box::new(Mem(Arc::clone(&shared))), shared)
}

/// A sink that blocks forever on the `gate` counter before every write —
/// the differential test's tool for proving `emit` never blocks the
/// producer even when the writer thread is wedged.
#[must_use]
pub fn gated_sink(gate: Arc<AtomicU64>) -> Sink {
    struct Gated(Arc<AtomicU64>);
    impl std::io::Write for Gated {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            while self.0.load(Ordering::Relaxed) == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    Box::new(Gated(gate))
}

/// Summary of a validated access log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Commit recorded in the `meta` line.
    pub commit: String,
    /// Number of `request` records.
    pub requests: u64,
    /// Number of `event` records.
    pub events: u64,
    /// Every `request` record's trace id, in log order.
    pub traces: Vec<String>,
}

/// The leading `meta` record of an access log.
const ACCESS_META: Shape = Obj(&[
    ("type", Lit("meta")),
    ("schema", Lit(ACCESS_SCHEMA)),
    ("pid", Num),
    ("commit", Str),
]);

/// The records after `meta`, one shape per `"type"`.
const ACCESS_LINES: [Shape; 2] = [
    Obj(&[
        ("type", Lit("request")),
        ("level trace method endpoint cache", Str),
        ("status us", Num),
        ("phases", Arr(&Obj(&[("name", Str), ("us count", Num)]))),
    ]),
    Obj(&[("type", Lit("event")), ("level message", Str)]),
];

/// Validates a whole JSONL access log against `powerfits-access-v1`.
///
/// Checks: the first line is a `meta` record naming the schema; every
/// later line is a `request` or `event` record with its required fields
/// typed correctly; levels are legal; every `request` phase entry has
/// `name`/`us`/`count`. Returns per-type counts and the trace ids.
pub fn validate_access_jsonl(text: &str) -> Result<AccessStats, String> {
    let mut stats = AccessStats::default();
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let Some((i, first)) = lines.next() else {
        return Err("empty access log".to_string());
    };
    let (meta, _) = typed_line(&[ACCESS_META], first, i + 1)?;
    stats.commit = text_of(&meta, "commit").to_string();

    for (i, line) in lines {
        let (record, kind) = typed_line(&ACCESS_LINES, line, i + 1)?;
        let level = text_of(&record, "level");
        if !matches!(level, "info" | "warn" | "error") {
            return Err(format!("line {}: bad level '{level}'", i + 1));
        }
        if kind == "event" {
            stats.events += 1;
            continue;
        }
        let trace = text_of(&record, "trace");
        if trace.is_empty() {
            return Err(format!("line {}: empty trace id", i + 1));
        }
        let status = record.get("status").and_then(Value::as_f64).unwrap_or(0.0);
        if !(100.0..600.0).contains(&status) {
            return Err(format!("line {}: bad status {status}", i + 1));
        }
        stats.requests += 1;
        stats.traces.push(trace.to_string());
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &str, us: u64) -> Span {
        Span {
            name: name.to_string(),
            nanos: us * 1_000,
            count: 1,
            children: Vec::new(),
        }
    }

    #[test]
    fn access_record_lines_validate() {
        let mut parent = span("execute", 900);
        parent.children.push(span("profile", 400));
        let rec = AccessRecord {
            trace: "a1b2",
            method: "POST",
            endpoint: "/synthesize",
            status: 200,
            cache: "miss",
            us: 1234,
            phases: &[span("parse", 10), parent],
        };
        let text = format!(
            "{}\n{}\n{}\n",
            meta_line("deadbeef"),
            rec.line(),
            event_line(Level::Info, "shutdown: \"bye\"\n")
        );
        let stats = validate_access_jsonl(&text).expect("schema-valid");
        assert_eq!(stats.commit, "deadbeef");
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.events, 1);
        assert_eq!(stats.traces, ["a1b2"]);
        // Nested phases flatten to slash paths.
        assert!(rec.line().contains("execute/profile"));
    }

    #[test]
    fn validator_rejects_malformed_logs() {
        assert!(validate_access_jsonl("").is_err());
        assert!(validate_access_jsonl("{\"type\": \"request\"}").is_err());
        let meta = meta_line("x");
        let bad_status = format!(
            "{meta}\n{{\"type\": \"request\", \"level\": \"info\", \"trace\": \"t\", \
             \"method\": \"GET\", \"endpoint\": \"/x\", \"cache\": \"-\", \
             \"status\": 99, \"us\": 1, \"phases\": []}}"
        );
        assert!(validate_access_jsonl(&bad_status).is_err());
        let bad_level =
            format!("{meta}\n{{\"type\": \"event\", \"level\": \"debug\", \"message\": \"m\"}}");
        assert!(validate_access_jsonl(&bad_level).is_err());
        let wrong_schema = meta.replace(ACCESS_SCHEMA, "powerfits-access-v0");
        assert!(validate_access_jsonl(&wrong_schema).is_err());
    }

    #[test]
    fn log_round_trips_through_the_writer_thread() {
        let (sink, shared) = memory_sink();
        let log = EventLog::to_sink(sink, 64, "cafe");
        assert!(log.enabled());
        for i in 0..10 {
            log.emit(event_line(Level::Info, &format!("event {i}")));
        }
        log.close();
        let bytes = shared.lock().expect("sink").clone();
        let text = String::from_utf8(bytes).expect("utf8");
        let stats = validate_access_jsonl(&text).expect("valid log");
        assert_eq!(stats.events, 10);
        assert_eq!(stats.commit, "cafe");
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.emitted(), 10);
        // Emits after close are drops, not hangs.
        log.emit(event_line(Level::Info, "late"));
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn full_channel_drops_without_blocking() {
        let gate = Arc::new(AtomicU64::new(0));
        let log = EventLog::to_sink(gated_sink(Arc::clone(&gate)), 4, "c");
        let start = std::time::Instant::now();
        for i in 0..100 {
            log.emit(event_line(Level::Info, &format!("e{i}")));
        }
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "emit must never block on a wedged writer"
        );
        assert!(log.dropped() > 0, "overflow must be counted");
        assert_eq!(log.emitted() + log.dropped(), 100);
        gate.store(1, Ordering::Relaxed);
        log.close();
    }

    #[test]
    fn disabled_log_is_inert() {
        let log = EventLog::disabled();
        assert!(!log.enabled());
        log.emit("anything".to_string());
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.emitted(), 0);
        log.close();
    }

    #[test]
    fn every_access_mutant_is_rejected() {
        let rec = AccessRecord {
            trace: "a1b2",
            method: "POST",
            endpoint: "/synthesize",
            status: 200,
            cache: "miss",
            us: 1234,
            phases: &[span("parse", 10)],
        };
        let text = format!(
            "{}\n{}\n{}\n",
            meta_line("deadbeef"),
            rec.line(),
            event_line(Level::Info, "shutdown")
        );
        let all = crate::json::jsonl_mutants(&text, |i, record| {
            let kind = record.get("type").and_then(Value::as_str);
            match i {
                0 => ACCESS_META,
                _ => *ACCESS_LINES
                    .iter()
                    .find(|s| s.tag("type") == kind)
                    .expect("an access record type"),
            }
        });
        assert!(all.len() > 30, "{} mutants", all.len());
        for mutant in &all {
            assert!(validate_access_jsonl(mutant).is_err(), "accepted {mutant}");
        }
    }
}
