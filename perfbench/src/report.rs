//! The result one benchmark run prints, and the serial closed loop that
//! `paper` and `explore` share.

use std::time::{Duration, Instant};

use crate::calib::{Reference, Timeline};
use crate::stats::{mean, median, quantile, samples_beyond};

/// One named metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (as listed in `BENCHMARK.json`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// Everything a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops (or requests) attempted.
    pub attempted: u64,
    /// Ops that failed: an error or a wrong output.
    pub failed: u64,
    /// The first few failure descriptions (for stderr).
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Raw diagnostics printed to stderr only (uncalibrated wall times
    /// of an untraced run, for comparing spreads).
    pub raw: Vec<Metric>,
}

impl Report {
    /// Records one failed op.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.note(what);
    }

    /// Keeps a failure description whose op is already counted.
    pub fn note(&mut self, what: impl Into<String>) {
        if self.errors.len() < 16 {
            self.errors.push(what.into());
        }
    }

    /// Adds a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a stderr-only diagnostic.
    pub fn put_raw(&mut self, name: &str, value: f64, unit: &'static str) {
        self.raw.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Whether every op produced a correct output.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON result (the last line of standard output).
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (a benchmark bug, also counted as
/// a failure) become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Set-up repeats per side of the measured loop. Host speed drifts in
/// phases of seconds, so `setup_s` is the median of repeats taken before
/// and after the loop, not of back-to-back ones.
pub const SETUP_REPEATS: usize = 2;

/// The interpreter-reference burst time (ms) of the nominal host that
/// calibrated set-up times are expressed on.
pub const NOMINAL_REF_MS: f64 = 4.0;

/// A workload's set-up repeats, each calibrated like an op: its wall time
/// over the mean of an interpreter-reference burst right before and right
/// after it, scaled to seconds on a host whose burst takes
/// [`NOMINAL_REF_MS`]. Set-up work (compiling, profiling, simulating,
/// synthesizing) is compute-bound on every workload, hence one reference.
pub struct SetupTimes {
    reference: Reference,
    calibrated_s: Vec<f64>,
    wall_s: Vec<f64>,
}

impl Default for SetupTimes {
    fn default() -> Self {
        SetupTimes {
            reference: Reference::Interp,
            calibrated_s: Vec::new(),
            wall_s: Vec::new(),
        }
    }
}

impl SetupTimes {
    /// Runs `setup` [`SETUP_REPEATS`] times and returns the last result.
    pub fn repeat<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            // Drop the previous copy first so every repeat allocates alike.
            drop(last.take());
            let before = self.reference.burst_ms();
            let start = Instant::now();
            last = Some(setup());
            let wall = start.elapsed().as_secs_f64();
            let after = self.reference.burst_ms();
            self.wall_s.push(wall);
            self.calibrated_s
                .push(wall * NOMINAL_REF_MS / ((before + after) / 2.0));
        }
        last.expect("at least one set-up ran")
    }

    /// Adds `setup_s` (calibrated, median of the repeats) and the raw
    /// median wall time as a stderr diagnostic.
    pub fn report(&self, report: &mut Report) {
        report.put("setup_s", median(&self.calibrated_s), "s");
        report.put_raw("bench.setup_wall_s", median(&self.wall_s), "s");
    }
}

/// One timed op of a serial workload.
#[derive(Clone, Copy, Debug)]
pub struct OpSample {
    /// Wall time of the op's timed region, ms.
    pub wall_ms: f64,
    /// The calibration burst the op ran after.
    pub burst: usize,
    /// Whether the op ran on the traced path.
    pub traced: bool,
}

/// Seeded op order over a fixed pool of `n` inputs: `count` whole
/// permutations back to back, so every pass sends each input once and
/// the op mix is the same in every run, whatever the seed.
#[must_use]
pub fn permuted_passes(seed: u64, n: usize, count: usize) -> Vec<usize> {
    let mut rng = fits_rng::StdRng::seed_from_u64(seed);
    let mut order = Vec::with_capacity(n * count);
    for _ in 0..count {
        let mut pass: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            pass.swap(i, rng.gen_range(0..=i));
        }
        order.extend(pass);
    }
    order
}

/// Closed-loop serial runner: alternates a reference burst with one op
/// until `seconds` have passed, stopping only at the end of a pass of
/// `pass_len` inputs so every run measures whole passes. `op`
/// gets the index of its input in the workload's seeded stream and
/// whether to take the traced path, and returns the wall time of its
/// timed region in ms (checks run outside it). A traced run sends every
/// input twice, untraced then traced, so the two paths see the same mix.
pub fn run_serial(
    timeline: &mut Timeline,
    seconds: f64,
    pass_len: usize,
    trace: bool,
    mut op: impl FnMut(usize, bool) -> f64,
) -> Vec<OpSample> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut samples = Vec::new();
    loop {
        let burst = timeline.burst();
        let i = samples.len();
        let traced = trace && i % 2 == 1;
        let wall_ms = op(if trace { i / 2 } else { i }, traced);
        samples.push(OpSample {
            wall_ms,
            burst,
            traced,
        });
        let pass = if trace { 2 * pass_len } else { pass_len };
        if samples.len() % pass == 0 && Instant::now() >= deadline {
            break;
        }
    }
    // A closing burst so the last op has references on both sides.
    timeline.burst();
    samples
}

/// The tail percentile reported for `n` samples: the highest of p99 and
/// p90 that has at least ten samples beyond it.
#[must_use]
pub fn tail_quantile(n: usize) -> f64 {
    if samples_beyond(n, 0.99) >= 10 {
        0.99
    } else {
        0.9
    }
}

/// Adds the calibrated latency metrics over `norm` (reference units).
pub fn report_latency(report: &mut Report, norm: &[f64]) {
    report.put("latency_p50_norm", quantile(norm, 0.5), "ref");
    report.put("latency_p90_norm", quantile(norm, 0.9), "ref");
    report.put(
        "latency_tail_norm",
        quantile(norm, tail_quantile(norm.len())),
        "ref",
    );
}

/// Calibrated (reference-unit) and raw views of a set of op samples.
pub struct Latencies {
    /// Per-op time in reference units.
    pub norm: Vec<f64>,
    /// Per-op wall time in ms.
    pub wall: Vec<f64>,
}

impl Latencies {
    /// The samples selected by `keep`, calibrated against `timeline`.
    #[must_use]
    pub fn of(samples: &[OpSample], timeline: &Timeline, keep: impl Fn(&OpSample) -> bool) -> Self {
        let kept: Vec<&OpSample> = samples.iter().filter(|s| keep(s)).collect();
        Latencies {
            norm: kept
                .iter()
                .map(|s| s.wall_ms / timeline.local_ref(s.burst))
                .collect(),
            wall: kept.iter().map(|s| s.wall_ms).collect(),
        }
    }

    /// Ops per reference-loop duration.
    #[must_use]
    pub fn throughput_norm(&self) -> f64 {
        1.0 / mean(&self.norm)
    }

    /// Adds the calibrated end-to-end latency metrics plus raw diagnostics.
    pub fn report(&self, report: &mut Report, timeline: &Timeline) {
        report_latency(report, &self.norm);
        report.put("throughput_norm", self.throughput_norm(), "ops/ref");
        self.report_raw(report, timeline, Report::put_raw);
    }

    /// Adds the raw wall-time view through `put` (stderr diagnostics in
    /// an untraced run, `bench.*` metrics in a traced one).
    pub fn report_raw(
        &self,
        report: &mut Report,
        timeline: &Timeline,
        put: fn(&mut Report, &str, f64, &'static str),
    ) {
        put(report, "bench.ref_ms", timeline.ref_ms(), "ms");
        put(report, "bench.wall_p50_ms", quantile(&self.wall, 0.5), "ms");
        put(report, "bench.wall_p90_ms", quantile(&self.wall, 0.9), "ms");
        put(
            report,
            "bench.wall_p99_ms",
            quantile(&self.wall, 0.99),
            "ms",
        );
    }
}
