//! # fits-obs — tracing, metrics and power attribution
//!
//! The observability layer of the PowerFITS reproduction. The paper's whole
//! argument is an *attribution* claim — I-cache switching/internal/leakage
//! power shifts when the ISA is re-synthesized — and this crate provides the
//! lens to see **where** those shifts come from, instead of only end-of-run
//! totals:
//!
//! * [`SpanRegistry`] — a thread-safe registry of hierarchical phase timers
//!   (compile → profile → synthesize → translate → verify → execute →
//!   simulate → power). It implements `fits-core`'s `FlowObserver`, so
//!   installing a clone on a `FitsFlow` times every Figure-1 stage with no
//!   change to flow results.
//! * [`trace_timed_run`] — a timed simulation that additionally streams
//!   per-PC retire counts, per-set I-cache hit/miss/fill events and branch
//!   outcomes into compact histograms ([`SimTrace`]). It rides the
//!   `CacheEventObserver` seam in `fits-sim`'s timing model; the
//!   differential tests in `tests/` prove the traced run's `SimResult` is
//!   **bit-identical** to the untraced fast path.
//! * [`check_bounds`] — the dynamic-vs-static join: a traced run's per-set
//!   I-cache counters checked against the miss intervals and energy
//!   envelopes implied by the `CA` static cache analysis in `fits-verify`.
//!   A sound analysis brackets every run; the suite-wide differential test
//!   in `fits-bench` enforces exactly that.
//! * [`attribute_kernel`] — the power-attribution join: per-PC histograms ×
//!   the `fits-power` cache model, broken down per basic block (and per
//!   source kernel function) of the *native* program, with the FITS run
//!   mapped back onto the same blocks through the translator's expansion
//!   table — ARM vs. FITS, side by side.
//! * [`json`] — a dependency-free JSON parser (depth-capped, linear in
//!   string length: it parses the request bodies of the `fitsd` daemon in
//!   `fits-serve`), the one escaper, and [`json::check`]: one walker over
//!   declarative [`json::Shape`] tables. Every document validator in the
//!   workspace — trace JSONL, `SWEEP`/`PARETO`/`CACHE_BOUNDS` archives,
//!   the access log, fitsd bodies and flight dumps — is a shape table
//!   plus its cross-field rules, and [`json::mutants`] derives the
//!   corrupted documents their tests must reject.
//! * [`metrics`] — lock-free service counters and a log-bucketed latency
//!   histogram (p50/p99), the `/metrics` substrate of `fitsd`.
//! * [`event`] — the structured JSONL access/event log: a bounded channel
//!   in front of a dedicated writer thread (the request path never blocks
//!   on I/O; overflow is counted, not waited on), schema-validated by
//!   [`event::validate_access_jsonl`] (`powerfits-access-v1`).
//! * [`window`] — sliding ~60 s latency histograms and sampled gauges made
//!   of stamped one-second slots, so "what happened in the last minute"
//!   is answerable next to the lifetime aggregates.
//! * [`ring`] — the flight recorder: a ring of recent request summaries
//!   plus the slowest-N exemplars with full span trees, dumpable from
//!   `/debug/flight`, shutdown, and the panic hook.
//! * [`fmt`] — the one place numbers are rounded for reports (percentages,
//!   energies, durations), shared by `fits-bench`'s tables and the trace
//!   renderers.
//!
//! Everything here is strictly additive: with no observer installed the
//! simulator and flow run exactly the pre-observability code paths, and all
//! collectors use saturating counters so a pathological run degrades the
//! report, never the process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod attr;
pub mod bounds;
pub mod event;
pub mod fmt;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod ring;
pub mod span;
pub mod trace;
pub mod window;

pub use attr::{attribute_kernel, basic_blocks, Attribution, BasicBlock, BlockCost};
pub use bounds::{check_bounds, BoundsCheck, SetBounds};
pub use event::{validate_access_jsonl, AccessRecord, AccessStats, EventLog, Level};
pub use hist::{BranchCounts, BranchHistogram, PcHistogram, SetCounters, SetHistogram};
pub use metrics::{Counter, LatencyHistogram};
pub use ring::{FlightRecorder, RequestSummary};
pub use span::{ScopedObserver, ScopedSpans, Span, SpanGuard, SpanRegistry};
pub use trace::{trace_timed_run, CacheEvents, DCacheTotals, SimTrace};
pub use window::{GaugeSeries, GaugeSnapshot, WindowSnapshot, WindowedHistogram};
