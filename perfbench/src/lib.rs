//! # perfbench — reference-calibrated benchmark for the PowerFITS workspace
//!
//! Three workloads drive the workspace's layers through their public
//! functions from one process: `paper` (the reproduction flow per
//! kernel), `explore` (the multi-application design-space loop) and
//! `serve` (an in-process `fitsd` under a closed loop). Each run checks
//! every output against an independent oracle and reports calibrated
//! end-to-end metrics, or — traced — per-layer metrics. See `README.md`.

#![forbid(unsafe_code)]

pub mod calib;
pub mod explore;
pub mod layers;
pub mod paper;
pub mod report;
pub mod scales;
pub mod serve;
pub mod stats;
pub mod trace;

/// Benchmark arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// Parses `--workload NAME --seed N --seconds S --trace 0|1`.
///
/// # Errors
///
/// A usage message for a missing or malformed argument.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

/// The workload names.
pub const WORKLOADS: &[&str] = &["paper", "explore", "serve"];

/// Runs one workload and completes its report with the metrics every
/// workload shares.
#[must_use]
pub fn run(args: &Args) -> report::Report {
    let mut report = match args.workload.as_str() {
        "paper" => paper::run(args.seed, args.seconds, args.trace),
        "explore" => explore::run(args.seed, args.seconds, args.trace),
        _ => serve::run(args.seed, args.seconds, args.trace),
    };
    if args.trace {
        layers::complete(&mut report);
    } else {
        let ok = report.attempted.saturating_sub(report.failed) as f64;
        report.put("success_rate", ok / report.attempted.max(1) as f64, "ratio");
        report.metrics.sort_by_key(|m| {
            END_TO_END
                .iter()
                .position(|n| *n == m.name)
                .unwrap_or(usize::MAX)
        });
    }
    let broken: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    for name in broken {
        report.fail(format!("metric {name} is not a finite number"));
    }
    report
}

/// The end-to-end metrics every untraced run prints, in report order.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "latency_p50_norm",
    "latency_p90_norm",
    "latency_tail_norm",
    "throughput_norm",
    "peak_rss_mb",
    "success_rate",
    "icache_energy_ratio",
    "code_size_ratio",
];
