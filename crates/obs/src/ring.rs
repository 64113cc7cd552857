//! Flight recorder: a fixed-size in-memory ring of recent request
//! summaries plus a "slowest N" exemplar set that keeps each exemplar's
//! full span tree.
//!
//! The access log answers "what happened" after the fact, if it was
//! enabled and nothing dropped; the flight recorder answers "what is the
//! daemon doing *right now* and where did the recent slow requests spend
//! their time" from memory, with zero configuration and bounded cost. It
//! is dumped by `GET /debug/flight`, on shutdown, and from the panic
//! hook — the black box you read after the crash.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

use crate::json::{Spacing, Writer};
use crate::span::Span;

/// Schema identifier of the flight-recorder JSON dump.
pub const FLIGHT_SCHEMA: &str = "powerfits-flight-v1";

/// One completed request, summarized.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RequestSummary {
    /// Monotonic sequence number assigned by the recorder (1-based).
    pub seq: u64,
    /// Request trace id.
    pub trace: String,
    /// HTTP method.
    pub method: String,
    /// Normalized endpoint label.
    pub endpoint: String,
    /// Response status code.
    pub status: u16,
    /// Cache disposition: `hit`, `coalesced`, `miss`, or `-`.
    pub cache: String,
    /// Total latency in microseconds.
    pub us: u64,
}

#[derive(Debug, Default)]
struct FlightInner {
    seq: u64,
    recent: VecDeque<RequestSummary>,
    slowest: Vec<(RequestSummary, Vec<Span>)>,
}

/// The recorder: thread-safe, fixed memory, cheap to record into.
#[derive(Debug)]
pub struct FlightRecorder {
    recent_cap: usize,
    slowest_cap: usize,
    inner: Mutex<FlightInner>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(64, 8)
    }
}

impl FlightRecorder {
    /// A recorder keeping the last `recent_cap` summaries and the
    /// `slowest_cap` slowest requests (with span trees) seen so far.
    #[must_use]
    pub fn new(recent_cap: usize, slowest_cap: usize) -> FlightRecorder {
        FlightRecorder {
            recent_cap: recent_cap.max(1),
            slowest_cap: slowest_cap.max(1),
            inner: Mutex::new(FlightInner::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, FlightInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Records one completed request. `spans` is the request's span
    /// forest (empty when tracing is off); it is retained only if the
    /// request earns a slowest-N slot.
    pub fn record(&self, mut summary: RequestSummary, spans: Vec<Span>) {
        let mut inner = self.lock();
        inner.seq = inner.seq.saturating_add(1);
        summary.seq = inner.seq;
        if inner.recent.len() == self.recent_cap {
            inner.recent.pop_front();
        }
        inner.recent.push_back(summary.clone());
        let earns_slot = inner.slowest.len() < self.slowest_cap
            || inner.slowest.last().is_some_and(|(s, _)| summary.us > s.us);
        if earns_slot {
            let at = inner
                .slowest
                .iter()
                .position(|(s, _)| summary.us > s.us)
                .unwrap_or(inner.slowest.len());
            inner.slowest.insert(at, (summary, spans));
            inner.slowest.truncate(self.slowest_cap);
        }
    }

    /// Total requests recorded over the recorder's lifetime.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.lock().seq
    }

    /// The slowest-N summaries currently held, fastest last.
    #[must_use]
    pub fn slowest(&self) -> Vec<RequestSummary> {
        self.lock().slowest.iter().map(|(s, _)| s.clone()).collect()
    }

    /// Renders the full dump as one `powerfits-flight-v1` JSON object.
    #[must_use]
    pub fn render_json(&self) -> String {
        let inner = self.lock();
        let mut w = Writer::new(Spacing::Spaced);
        w.begin_obj();
        w.field_str("schema", FLIGHT_SCHEMA);
        w.field_u64("total", inner.seq);
        w.key("recent");
        w.begin_arr();
        for s in &inner.recent {
            write_summary(&mut w, s);
        }
        w.end_arr();
        w.key("slowest");
        w.begin_arr();
        for (s, spans) in &inner.slowest {
            w.begin_obj();
            summary_fields(&mut w, s);
            w.key("spans");
            w.begin_arr();
            for span in spans {
                write_span(&mut w, span);
            }
            w.end_arr();
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }
}

fn summary_fields(w: &mut Writer, s: &RequestSummary) {
    w.field_u64("seq", s.seq);
    w.field_str("trace", &s.trace);
    w.field_str("method", &s.method);
    w.field_str("endpoint", &s.endpoint);
    w.field_u64("status", u64::from(s.status));
    w.field_str("cache", &s.cache);
    w.field_u64("us", s.us);
}

fn write_summary(w: &mut Writer, s: &RequestSummary) {
    w.begin_obj();
    summary_fields(w, s);
    w.end_obj();
}

/// Recursive span-tree JSON: `{"name", "us", "count", "children": [...]}`.
fn write_span(w: &mut Writer, span: &Span) {
    w.begin_obj();
    w.field_str("name", &span.name);
    w.field_u64("us", span.nanos / 1_000);
    w.field_u64("count", span.count);
    w.key("children");
    w.begin_arr();
    for child in &span.children {
        write_span(w, child);
    }
    w.end_arr();
    w.end_obj();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn req(trace: &str, us: u64) -> RequestSummary {
        RequestSummary {
            seq: 0,
            trace: trace.to_string(),
            method: "POST".to_string(),
            endpoint: "/synthesize".to_string(),
            status: 200,
            cache: "miss".to_string(),
            us,
        }
    }

    fn spans(us: u64) -> Vec<Span> {
        vec![Span {
            name: "execute".to_string(),
            nanos: us * 1_000,
            count: 1,
            children: vec![Span {
                name: "profile".to_string(),
                nanos: us * 500,
                count: 1,
                children: Vec::new(),
            }],
        }]
    }

    #[test]
    fn ring_keeps_only_the_most_recent() {
        let fr = FlightRecorder::new(3, 2);
        for i in 0..5u64 {
            fr.record(req(&format!("t{i}"), 10), Vec::new());
        }
        assert_eq!(fr.total(), 5);
        let dump = parse(&fr.render_json()).expect("valid json");
        let Some(Value::Arr(recent)) = dump.get("recent").cloned() else {
            panic!("recent array");
        };
        assert_eq!(recent.len(), 3);
        // Oldest surviving entry is seq 3.
        assert_eq!(recent[0].get("seq").and_then(Value::as_f64), Some(3.0));
    }

    #[test]
    fn slowest_set_is_sorted_and_bounded_with_span_trees() {
        let fr = FlightRecorder::new(16, 2);
        fr.record(req("fast", 10), spans(10));
        fr.record(req("slow", 9_000), spans(9_000));
        fr.record(req("medium", 500), spans(500));
        fr.record(req("slowest", 20_000), spans(20_000));
        let slowest = fr.slowest();
        assert_eq!(slowest.len(), 2);
        assert_eq!(slowest[0].trace, "slowest");
        assert_eq!(slowest[1].trace, "slow");
        let dump = parse(&fr.render_json()).expect("valid json");
        assert_eq!(
            dump.get("schema").and_then(Value::as_str),
            Some(FLIGHT_SCHEMA)
        );
        let Some(Value::Arr(sl)) = dump.get("slowest").cloned() else {
            panic!("slowest array");
        };
        let Some(Value::Arr(tree)) = sl[0].get("spans").cloned() else {
            panic!("spans array");
        };
        let Some(Value::Arr(children)) = tree[0].get("children").cloned() else {
            panic!("children array");
        };
        assert_eq!(
            children[0].get("name").and_then(Value::as_str),
            Some("profile")
        );
    }

    #[test]
    fn ties_do_not_churn_the_slowest_set() {
        let fr = FlightRecorder::new(8, 1);
        fr.record(req("first", 100), Vec::new());
        fr.record(req("tie", 100), Vec::new());
        assert_eq!(fr.slowest()[0].trace, "first");
    }

    #[test]
    fn dump_escapes_hostile_strings() {
        let fr = FlightRecorder::new(4, 1);
        fr.record(req("a\"b\\c\n", 1), Vec::new());
        assert!(parse(&fr.render_json()).is_ok());
    }
}
