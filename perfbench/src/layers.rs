//! The per-layer metric catalogue and the helpers that fill it from a
//! traced run.
//!
//! Every traced run prints every metric below; a layer a workload does
//! not exercise reads 0 there (see the README's layer map).

use crate::calib::Timeline;
use crate::paper::TracedCounts;
use crate::report::{Latencies, Report};
use crate::stats::mean;
use crate::trace::Tracer;

/// Span names whose self time is reported as `<name>_ms` per traced op.
pub const SPANS: &[&str] = &[
    "kernels.compile",
    "core.profile",
    "core.flow",
    "core.merge",
    "core.synthesize",
    "core.translate",
    "verify.static",
    "core.equiv_run",
    "isa.thumb",
    "sim.lift",
    "sim.record",
    "sim.price",
    "power.price",
];

/// Every per-layer metric with its unit, in report order.
pub const ALL: &[(&str, &str)] = &[
    ("kernels.compile_ms", "ms"),
    ("core.profile_ms", "ms"),
    ("core.flow_ms", "ms"),
    ("core.merge_ms", "ms"),
    ("core.synthesize_ms", "ms"),
    ("core.translate_ms", "ms"),
    ("verify.static_ms", "ms"),
    ("core.equiv_run_ms", "ms"),
    ("isa.thumb_ms", "ms"),
    ("sim.lift_ms", "ms"),
    ("sim.record_ms", "ms"),
    ("sim.price_ms", "ms"),
    ("power.price_ms", "ms"),
    ("sim.record_minstr_per_s", "Minstr/s"),
    ("sim.price_minstr_per_s", "Minstr/s"),
    ("sim.runs_per_op", "count"),
    ("core.synthesize_rounds", "count"),
    ("core.multi_rejected_ratio", "ratio"),
    ("core.multi_widenings", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.coalesced_ratio", "ratio"),
    ("serve.miss_ratio", "ratio"),
    ("serve.shed_count", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.cache_lookup_ms", "ms"),
    ("serve.coalesce_wait_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.serialize_ms", "ms"),
    ("serve.write_ms", "ms"),
    ("bench.ref_ms", "ms"),
    ("bench.wall_p50_ms", "ms"),
    ("bench.wall_p90_ms", "ms"),
    ("bench.wall_p99_ms", "ms"),
    ("bench.tracing_overhead", "ratio"),
    ("bench.unattributed_ms", "ms"),
];

/// Adds each span's self time per traced op, and the unattributed rest
/// of the traced ops' wall time.
pub fn report_spans(report: &mut Report, tracer: &Tracer, ops: f64) {
    let selfs = tracer.self_times();
    for name in SPANS {
        if let Some(ms) = selfs.get(name) {
            report.put(&format!("{name}_ms"), ms / ops, "ms");
        }
    }
}

/// Adds the simulator's throughput rates.
pub fn report_rates(report: &mut Report, tracer: &Tracer, counts: &TracedCounts) {
    let selfs = tracer.self_times();
    let per_s =
        |steps: u64, span: &str| selfs.get(span).map_or(0.0, |ms| steps as f64 / (ms * 1e3));
    report.put(
        "sim.record_minstr_per_s",
        per_s(counts.recorded_steps, "sim.record"),
        "Minstr/s",
    );
    report.put(
        "sim.price_minstr_per_s",
        per_s(counts.priced_steps, "sim.price"),
        "Minstr/s",
    );
}

/// Adds the harness metrics of a traced serial run: raw reference and
/// wall times of its untraced ops, the tracing overhead (traced over
/// untraced calibrated op time) and the op time no span covers.
pub fn report_harness(
    report: &mut Report,
    timeline: &Timeline,
    untraced: &Latencies,
    traced: &Latencies,
) {
    untraced.report_raw(report, timeline, Report::put);
    report.put(
        "bench.tracing_overhead",
        mean(&traced.norm) / mean(&untraced.norm),
        "ratio",
    );
    let attributed: f64 = report
        .metrics
        .iter()
        .filter(|m| m.unit == "ms" && SPANS.iter().any(|s| m.name == format!("{s}_ms")))
        .map(|m| m.value)
        .sum();
    report.put(
        "bench.unattributed_ms",
        (mean(&traced.wall) - attributed).max(0.0),
        "ms",
    );
}

/// Fills every catalogue metric a traced run did not report with 0, and
/// orders the metrics as the catalogue does.
pub fn complete(report: &mut Report) {
    let mut ordered = Vec::with_capacity(ALL.len());
    for &(name, unit) in ALL {
        let value = report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        ordered.push(crate::report::Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
    report.metrics = ordered;
}
