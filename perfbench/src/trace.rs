//! Benchmark-side span tracing.
//!
//! Spans are recorded around the *public* calls the benchmark makes into
//! each layer (the program itself carries no extra tracing), kept in
//! memory, and folded into per-layer self times when the run ends. A
//! layer's self time is its span's duration minus the part covered by its
//! child spans.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fits_core::{FlowObserver, FlowStage};

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer metric name, e.g. `sim.record`.
    pub name: &'static str,
    /// Duration in ms.
    pub ms: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// An in-memory span recorder for one thread.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

impl Tracer {
    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            ms: 0.0,
            parent: self.open.last().map(|&(p, _)| p),
        });
        self.open.push((id, Instant::now()));
        id
    }

    /// Closes the innermost open span, which must be `id`.
    ///
    /// # Panics
    ///
    /// On unbalanced enter/exit (a benchmark bug).
    pub fn exit(&mut self, id: usize) {
        let (open, start) = self.open.pop().expect("exit matches an enter");
        assert_eq!(open, id, "spans close innermost first");
        self.spans[id].ms = start.elapsed().as_secs_f64() * 1e3;
    }

    /// Records `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Adds an already-timed child of the innermost open span (how flow
    /// stage events, which arrive as durations, join the tree).
    pub fn child(&mut self, name: &'static str, wall: Duration) {
        self.spans.push(Span {
            name,
            ms: wall.as_secs_f64() * 1e3,
            parent: self.open.last().map(|&(p, _)| p),
        });
    }

    /// Self time per span name, in ms, summed over the whole run.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ms[p] += span.ms;
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(&child_ms) {
            *out.entry(span.name).or_insert(0.0) += (span.ms - covered).max(0.0);
        }
        out
    }
}

/// Collects flow stage events so the benchmark can attach them to the
/// span of the getter that triggered them.
#[derive(Default)]
pub struct StageLog {
    events: Mutex<Vec<(FlowStage, Duration)>>,
}

impl StageLog {
    /// Moves every pending event into `tracer` as children of its
    /// innermost open span, and returns how many whole-program
    /// executions they stood for (profile and equivalence runs).
    pub fn drain_into(&self, tracer: &mut Tracer) -> u64 {
        let events = std::mem::take(&mut *self.events.lock().expect("stage log lock"));
        let mut executions = 0;
        for (stage, wall) in events {
            if matches!(stage, FlowStage::Profile | FlowStage::Execute) {
                executions += 1;
            }
            tracer.child(stage_layer(stage), wall);
        }
        executions
    }
}

impl FlowObserver for StageLog {
    fn stage(&self, stage: FlowStage, wall: Duration) {
        self.events
            .lock()
            .expect("stage log lock")
            .push((stage, wall));
    }
}

/// The layer metric a flow stage reports under.
#[must_use]
pub fn stage_layer(stage: FlowStage) -> &'static str {
    match stage {
        FlowStage::Profile => "core.profile",
        FlowStage::Synthesize => "core.synthesize",
        FlowStage::Translate => "core.translate",
        FlowStage::Verify => "verify.static",
        FlowStage::Execute => "core.equiv_run",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let outer = t.enter("outer");
        t.child("inner", Duration::from_millis(2));
        std::thread::sleep(Duration::from_millis(5));
        t.exit(outer);
        let selfs = t.self_times();
        assert!((selfs["inner"] - 2.0).abs() < 1e-9);
        assert!(selfs["outer"] >= 3.0, "outer keeps its own sleep");
    }
}
