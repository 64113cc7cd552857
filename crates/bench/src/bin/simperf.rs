//! `simperf` — simulator throughput and suite wall-clock harness.
//!
//! Measures what the experiment harness actually pays for: functional
//! simulation speed (MIPS), timing speed (record + price of one
//! configuration, and the execute-once/replay-many path), and the
//! wall-clock of a full 21-kernel × 4-configuration suite run at test
//! scale. The replay probes (`replay4_mips`, `suite_replay_mips`) count
//! retired instructions once per lane the replay actually runs — one per
//! class of `CompiledProgram::replay_classes`, not one per configuration —
//! so they keep measuring per-lane engine speed when configurations share
//! a lane. Results are written to
//! `BENCH.json` (hand-rolled JSON; the workspace has no serde) so CI can
//! archive a throughput record per commit without gating on the numbers,
//! and one compact line per run is appended to `BENCH_history.jsonl` —
//! the cumulative, commit-stamped record regressions are hunted in.
//! Each record carries a `meta` stamp (git commit, Unix timestamp, host,
//! OS, arch) so archived numbers stay attributable.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p fits-bench --bin simperf              # full run
//! cargo run --release -p fits-bench --bin simperf -- --smoke   # quick CI run
//! cargo run --release -p fits-bench --bin simperf -- \
//!     --baseline-seconds 1.135                                 # print speedup
//! cargo run --release -p fits-bench --bin simperf -- --out bench/BENCH.json
//! cargo run --release -p fits-bench --bin simperf -- --trace   # stage timings
//! cargo run --release -p fits-bench --bin simperf -- --no-history
//! cargo run --release -p fits-bench --bin simperf -- \
//!     --compare --max-regress 0.15      # gate on the previous history entry
//! ```
//!
//! `--compare` reads the last same-mode line of `BENCH_history.jsonl`
//! *before* appending this run, prints the per-metric MIPS deltas, and
//! exits nonzero when any metric fell by more than `--max-regress`
//! (default 0.1 = 10%). With no previous entry the gate passes trivially.
//!
//! Every suite pass constructs a fresh [`Artifacts`] cache (inside
//! [`run_suite`]), so repeated passes measure the same cold-cache work and
//! stay comparable across commits.

use std::fmt;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fits_bench::stamp::{git_commit, hostname, json_f64, meta_json, unix_timestamp};
use fits_bench::{run_suite, run_suite_with, Artifacts, ExperimentError};
use fits_core::{FitsFlow, FitsSet};
use fits_kernels::kernels::{Kernel, Scale};
use fits_obs::json::escape;
use fits_obs::SpanRegistry;
use fits_scenario::{ScenarioError, ScenarioSpec};
use fits_sim::{Ar32Set, CompiledProgram, Machine, Sa1100Config};

/// The kernel the MIPS probes execute. SHA has the largest dynamic
/// instruction count per unit of compile time in the suite.
const PROBE_KERNEL: Kernel = Kernel::Sha;

/// Everything that can stop a `simperf` run. Failures exit with code 1
/// and a one-line diagnosis; they never panic.
#[derive(Debug)]
enum SimperfError {
    /// A pipeline stage failed (compile, flow, simulation, decode).
    Pipeline(ExperimentError),
    /// A scenario could not be derived (bad sweep geometry).
    Scenario(ScenarioError),
    /// An archive file could not be written.
    Io { path: String, err: std::io::Error },
    /// `--compare` found a throughput regression beyond `--max-regress`.
    Regression(Vec<String>),
}

impl fmt::Display for SimperfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimperfError::Pipeline(e) => write!(f, "pipeline: {e}"),
            SimperfError::Scenario(e) => write!(f, "scenario: {e}"),
            SimperfError::Io { path, err } => write!(f, "write {path}: {err}"),
            SimperfError::Regression(lines) => {
                write!(f, "throughput regression:\n  {}", lines.join("\n  "))
            }
        }
    }
}

impl std::error::Error for SimperfError {}

struct Options {
    smoke: bool,
    out: String,
    history: Option<String>,
    baseline_seconds: Option<f64>,
    trace: bool,
    compare: bool,
    max_regress: f64,
}

fn parse_args() -> Options {
    let mut opts = Options {
        smoke: false,
        out: "BENCH.json".to_owned(),
        history: Some("BENCH_history.jsonl".to_owned()),
        baseline_seconds: None,
        trace: false,
        compare: false,
        max_regress: 0.1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--trace" => opts.trace = true,
            "--out" => opts.out = args.next().unwrap_or_else(|| usage("--out needs a path")),
            "--history" => {
                opts.history = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--history needs a path")),
                );
            }
            "--no-history" => opts.history = None,
            "--compare" => opts.compare = true,
            "--max-regress" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--max-regress needs a fraction"));
                opts.max_regress = v
                    .parse()
                    .ok()
                    .filter(|f: &f64| f.is_finite() && *f >= 0.0)
                    .unwrap_or_else(|| usage(&format!("invalid --max-regress value: {v}")));
            }
            "--baseline-seconds" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--baseline-seconds needs a value"));
                opts.baseline_seconds =
                    Some(v.parse().unwrap_or_else(|_| {
                        usage(&format!("invalid --baseline-seconds value: {v}"))
                    }));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    opts
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("simperf: {err}");
    }
    eprintln!(
        "usage: simperf [--smoke] [--trace] [--out PATH] [--history PATH] [--no-history] \
         [--baseline-seconds SECS] [--compare] [--max-regress FRAC]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Runs `f` repeatedly until `budget_secs` of wall time elapse (at least
/// once) and returns (total seconds, calls); a failing call aborts the
/// measurement.
fn measure(
    budget_secs: f64,
    mut f: impl FnMut() -> Result<(), SimperfError>,
) -> Result<(f64, u32), SimperfError> {
    let start = Instant::now();
    let mut calls = 0u32;
    loop {
        f()?;
        calls += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= budget_secs {
            return Ok((elapsed, calls));
        }
    }
}

fn main() {
    let opts = parse_args();
    if let Err(e) = run(&opts) {
        eprintln!("simperf: {e}");
        std::process::exit(1);
    }
}

/// How many lanes `price_all` replays for `cfgs` on `compiled`: one per
/// class of [`CompiledProgram::replay_classes`].
fn replayed_lanes(
    compiled: &CompiledProgram,
    cfgs: &[Sa1100Config],
) -> Result<usize, SimperfError> {
    let classes = compiled
        .replay_classes(cfgs)
        .map_err(|e| SimperfError::Pipeline(ExperimentError::Sim(e)))?;
    Ok(classes.iter().enumerate().filter(|&(i, &c)| c == i).count())
}

#[allow(clippy::too_many_lines)]
fn run(opts: &Options) -> Result<(), SimperfError> {
    let scale = Scale::test();
    let scenario = ScenarioSpec::sa1100();
    let budget = if opts.smoke { 0.05 } else { 0.4 };
    let suite_passes = if opts.smoke { 1 } else { 3 };

    eprintln!(
        "simperf: probe kernel {} at n={} ({} mode)",
        PROBE_KERNEL.name(),
        scale.n,
        if opts.smoke { "smoke" } else { "full" }
    );

    // --- Simulator throughput probes ----------------------------------
    let program = PROBE_KERNEL
        .compile(scale)
        .map_err(|e| SimperfError::Pipeline(ExperimentError::Compile(e)))?;
    let steps = Machine::new(Ar32Set::load(&program))
        .run()
        .map_err(|e| SimperfError::Pipeline(ExperimentError::Sim(e)))?
        .steps;
    let multi_cfgs: Vec<Sa1100Config> = [16 * 1024, 8 * 1024, 4 * 1024, 2 * 1024]
        .into_iter()
        .map(|bytes| {
            scenario
                .with_icache_bytes(bytes)
                .map(|s| s.machine_config())
                .map_err(|e| SimperfError::Scenario(e.into()))
        })
        .collect::<Result<_, _>>()?;

    let (secs, calls) = measure(budget, || {
        let mut m = Machine::new(Ar32Set::load(&program));
        black_box(
            m.run()
                .map_err(|e| SimperfError::Pipeline(ExperimentError::Sim(e)))?,
        );
        Ok(())
    })?;
    let functional_mips = steps as f64 * f64::from(calls) / secs / 1e6;

    // Block-compile once; the timed and recorder probes re-execute per
    // call, the replay probe prices a pre-recorded trace without
    // re-executing.
    let probe_set = Ar32Set::load(&program);
    let compiled = CompiledProgram::compile(&probe_set)
        .map_err(|e| SimperfError::Pipeline(ExperimentError::Sim(e)))?;
    // One timed run of one configuration: record, then price.
    let (secs, calls) = measure(budget, || {
        let mut m = Machine::new(Ar32Set::load(&program));
        let trace = m
            .run_recorded(&compiled)
            .map_err(|e| SimperfError::Pipeline(ExperimentError::Sim(e)))?;
        black_box(
            trace
                .price(&compiled, &Sa1100Config::icache_16k())
                .map_err(|e| SimperfError::Pipeline(ExperimentError::Sim(e)))?,
        );
        Ok(())
    })?;
    let timed_mips = steps as f64 * f64::from(calls) / secs / 1e6;

    let (secs, calls) = measure(budget, || {
        let mut m = Machine::new(Ar32Set::load(&program));
        black_box(
            m.run_recorded(&compiled)
                .map_err(|e| SimperfError::Pipeline(ExperimentError::Sim(e)))?,
        );
        Ok(())
    })?;
    let record_mips = steps as f64 * f64::from(calls) / secs / 1e6;

    let probe_trace = Machine::new(probe_set)
        .run_recorded(&compiled)
        .map_err(|e| SimperfError::Pipeline(ExperimentError::Sim(e)))?;
    let (secs, calls) = measure(budget, || {
        black_box(
            probe_trace
                .price_all(&compiled, &multi_cfgs)
                .map_err(|e| SimperfError::Pipeline(ExperimentError::Sim(e)))?,
        );
        Ok(())
    })?;
    // Retired instructions observed per wall second by every lane the
    // replay actually runs (the sweep hot path: record once, price every
    // configuration from the trace). Configurations that share a lane
    // (`replay_classes`) are priced without replaying, so they are not
    // counted: the figure stays per-lane engine speed.
    let replay4_mips =
        steps as f64 * replayed_lanes(&compiled, &multi_cfgs)? as f64 * f64::from(calls)
            / secs
            / 1e6;

    let flow = FitsFlow::new()
        .run(&program)
        .map_err(|e| SimperfError::Pipeline(ExperimentError::Flow(e)))?;
    let fits_compiled = FitsSet::load(&flow.fits)
        .map_err(|e| SimperfError::Pipeline(ExperimentError::Decode(e)))
        .and_then(|set| {
            CompiledProgram::compile(&set)
                .map_err(|e| SimperfError::Pipeline(ExperimentError::Sim(e)))
        })?;
    let (secs, calls) = measure(budget, || {
        let set = FitsSet::load(&flow.fits)
            .map_err(|e| SimperfError::Pipeline(ExperimentError::Decode(e)))?;
        let trace = Machine::new(set)
            .run_recorded(&fits_compiled)
            .map_err(|e| SimperfError::Pipeline(ExperimentError::Sim(e)))?;
        black_box(
            trace
                .price(&fits_compiled, &Sa1100Config::icache_16k())
                .map_err(|e| SimperfError::Pipeline(ExperimentError::Sim(e)))?,
        );
        Ok(())
    })?;
    let fits_steps = flow.fits_run.as_ref().map_or(steps, |r| r.steps);
    let fits_timed_mips = fits_steps as f64 * f64::from(calls) / secs / 1e6;

    // --- Whole-suite replay probe --------------------------------------
    // One recorded AR32 trace per kernel, then each call replays *all* of
    // them over the four sweep configurations — the shape of work a grid
    // sweep actually feeds the engine.
    let mut suite_traces = Vec::with_capacity(Kernel::ALL.len());
    let mut suite_lane_steps: u64 = 0;
    for &kernel in Kernel::ALL {
        let p = kernel
            .compile(scale)
            .map_err(|e| SimperfError::Pipeline(ExperimentError::Compile(e)))?;
        let set = Ar32Set::load(&p);
        let c = CompiledProgram::compile(&set)
            .map_err(|e| SimperfError::Pipeline(ExperimentError::Sim(e)))?;
        let t = Machine::new(set)
            .run_recorded(&c)
            .map_err(|e| SimperfError::Pipeline(ExperimentError::Sim(e)))?;
        suite_lane_steps += t.output.steps * replayed_lanes(&c, &multi_cfgs)? as u64;
        suite_traces.push((c, t));
    }
    // Per-kernel pricing latencies land in a sliding-window histogram (the
    // same type `fitsd`'s windowed metrics use); the probe runs well inside
    // one window, so the snapshot is the whole distribution — per-call
    // p50/p99 that a MIPS aggregate can't show.
    let pricing = fits_obs::WindowedHistogram::new();
    let (secs, calls) = measure(budget, || {
        for (c, t) in &suite_traces {
            let call = Instant::now();
            black_box(
                t.price_all(c, &multi_cfgs)
                    .map_err(|e| SimperfError::Pipeline(ExperimentError::Sim(e)))?,
            );
            pricing.record(call.elapsed());
        }
        Ok(())
    })?;
    let suite_replay_mips = suite_lane_steps as f64 * f64::from(calls) / secs / 1e6;
    let pricing = pricing.snapshot();
    eprintln!(
        "simperf: per-kernel pricing p50 {} us, p99 {} us, max {} us over {} calls",
        pricing.quantile_us(0.5),
        pricing.quantile_us(0.99),
        pricing.max_us,
        pricing.count,
    );
    drop(suite_traces);

    eprintln!(
        "simperf: functional {functional_mips:.1} MIPS, timed {timed_mips:.1} MIPS, \
         record {record_mips:.1} MIPS, replay-x4 {replay4_mips:.1} MIPS, \
         suite-replay {suite_replay_mips:.1} MIPS, fits timed {fits_timed_mips:.1} MIPS"
    );

    // --- Full-suite wall-clock ----------------------------------------
    let trace_reg = opts.trace.then(SpanRegistry::new);
    let mut suite_seconds = Vec::with_capacity(suite_passes);
    for pass in 0..suite_passes {
        let t = Instant::now();
        // Each pass builds a fresh artifact cache so repeated passes stay
        // cold-cache comparable; with --trace the flows additionally report
        // stage timings into the shared span registry.
        let suite = match &trace_reg {
            Some(reg) => {
                let guard = reg.enter("suite");
                let arts = Artifacts::new().with_flow_observer(Arc::new(reg.clone()));
                let suite =
                    run_suite_with(&arts, Kernel::ALL, scale).map_err(SimperfError::Pipeline)?;
                drop(guard);
                suite
            }
            None => run_suite(Kernel::ALL, scale).map_err(SimperfError::Pipeline)?,
        };
        let elapsed = t.elapsed().as_secs_f64();
        black_box(&suite);
        eprintln!("simperf: suite pass {}: {elapsed:.3}s", pass + 1);
        suite_seconds.push(elapsed);
    }
    if let Some(reg) = &trace_reg {
        eprintln!(
            "simperf: flow stage timings (all passes merged):\n{}",
            reg.render()
        );
    }
    let suite_best = suite_seconds.iter().copied().fold(f64::INFINITY, f64::min);
    let speedup = opts.baseline_seconds.map(|b| b / suite_best);
    if let (Some(baseline), Some(ratio)) = (opts.baseline_seconds, speedup) {
        eprintln!("simperf: suite best {suite_best:.3}s vs baseline {baseline:.3}s = {ratio:.2}x");
    } else {
        eprintln!("simperf: suite best {suite_best:.3}s");
    }

    // --- BENCH.json ----------------------------------------------------
    let all: Vec<String> = suite_seconds.iter().map(|s| json_f64(*s)).collect();
    let json = format!(
        "{{\n  \"schema\": \"powerfits-bench-v1\",\n  \"meta\": {meta},\n  \
         \"mode\": \"{mode}\",\n  \"scenario\": \"{scenario_id}\",\n  \
         \"probe_kernel\": \"{probe}\",\n  \"scale_n\": {n},\n  \"simulator\": {{\n    \
         \"steps_per_run\": {steps},\n    \"functional_mips\": {fm},\n    \
         \"timed_mips\": {tm},\n    \"record_mips\": {recm},\n    \
         \"replay4_mips\": {rm},\n    \"suite_replay_mips\": {srm},\n    \
         \"fits_timed_mips\": {ftm},\n    \"pricing_p50_us\": {pp50},\n    \
         \"pricing_p99_us\": {pp99},\n    \"pricing_max_us\": {pmax}\n  }},\n  \"suite\": {{\n    \
         \"kernels\": {kernels},\n    \"configs\": 4,\n    \"passes\": {passes},\n    \
         \"seconds_best\": {best},\n    \"seconds_all\": [{all}]\n  }},\n  \
         \"baseline_seconds\": {base},\n  \"speedup_vs_baseline\": {ratio}\n}}\n",
        meta = meta_json("  "),
        scenario_id = scenario.id(),
        mode = if opts.smoke { "smoke" } else { "full" },
        probe = PROBE_KERNEL.name(),
        n = scale.n,
        steps = steps,
        fm = json_f64(functional_mips),
        tm = json_f64(timed_mips),
        recm = json_f64(record_mips),
        rm = json_f64(replay4_mips),
        srm = json_f64(suite_replay_mips),
        ftm = json_f64(fits_timed_mips),
        pp50 = pricing.quantile_us(0.5),
        pp99 = pricing.quantile_us(0.99),
        pmax = pricing.max_us,
        kernels = Kernel::ALL.len(),
        passes = suite_passes,
        best = json_f64(suite_best),
        all = all.join(", "),
        base = opts.baseline_seconds.map_or("null".to_owned(), json_f64),
        ratio = speedup.map_or("null".to_owned(), json_f64),
    );
    std::fs::write(&opts.out, &json).map_err(|err| SimperfError::Io {
        path: opts.out.clone(),
        err,
    })?;
    eprintln!("simperf: wrote {}", opts.out);

    // --- --compare: diff against the previous same-mode history entry --
    // Read BEFORE appending this run, so a run always compares against its
    // predecessor, never against itself.
    let mode = if opts.smoke { "smoke" } else { "full" };
    let regressions = if opts.compare {
        let prev = opts
            .history
            .as_deref()
            .and_then(|path| last_history_entry(path, mode));
        match prev {
            None => {
                eprintln!(
                    "simperf: --compare: no previous \"{mode}\" entry in {}; nothing to gate",
                    opts.history.as_deref().unwrap_or("<no history>")
                );
                Vec::new()
            }
            Some(prev) => compare_metrics(
                &prev,
                &[
                    ("functional_mips", functional_mips),
                    ("timed_mips", timed_mips),
                    ("record_mips", record_mips),
                    ("replay4_mips", replay4_mips),
                    ("suite_replay_mips", suite_replay_mips),
                    ("fits_timed_mips", fits_timed_mips),
                ],
                opts.max_regress,
            ),
        }
    } else {
        Vec::new()
    };

    // --- BENCH_history.jsonl -------------------------------------------
    // One compact line per run, append-only: the cumulative record that
    // lets `grep`/`jq` chart throughput across commits.
    if let Some(history) = &opts.history {
        let line = format!(
            "{{\"schema\": \"powerfits-bench-history-v1\", \"commit\": \"{commit}\", \
             \"timestamp_unix\": {stamp}, \"host\": \"{host}\", \"mode\": \"{mode}\", \
             \"scenario\": \"{scenario_id}\", \"scale_n\": {n}, \
             \"functional_mips\": {fm}, \"timed_mips\": {tm}, \"record_mips\": {recm}, \
             \"replay4_mips\": {rm}, \"suite_replay_mips\": {srm}, \
             \"fits_timed_mips\": {ftm}, \"suite_passes\": {passes}, \
             \"suite_seconds_best\": {best}}}\n",
            commit = escape(&git_commit()),
            stamp = unix_timestamp(),
            host = escape(&hostname()),
            scenario_id = scenario.id(),
            n = scale.n,
            fm = json_f64(functional_mips),
            tm = json_f64(timed_mips),
            recm = json_f64(record_mips),
            rm = json_f64(replay4_mips),
            srm = json_f64(suite_replay_mips),
            ftm = json_f64(fits_timed_mips),
            passes = suite_passes,
            best = json_f64(suite_best),
        );
        use std::io::Write;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(history)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|err| SimperfError::Io {
                path: history.clone(),
                err,
            })?;
        eprintln!("simperf: appended to {history}");
    }
    if regressions.is_empty() {
        Ok(())
    } else {
        Err(SimperfError::Regression(regressions))
    }
}

/// The last history line whose `mode` matches, parsed. Unreadable files or
/// malformed lines are skipped silently — history is advisory, and a fresh
/// checkout with no file simply has nothing to compare against.
fn last_history_entry(path: &str, mode: &str) -> Option<fits_obs::json::Value> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().rev().find_map(|line| {
        let v = fits_obs::json::parse(line).ok()?;
        (v.get("mode")?.as_str()? == mode).then_some(v)
    })
}

/// Prints the delta of every metric present in the previous entry and
/// returns one line per metric that regressed by more than `max_regress`
/// (fractional; 0.1 = tolerate a 10% drop).
fn compare_metrics(
    prev: &fits_obs::json::Value,
    now: &[(&str, f64)],
    max_regress: f64,
) -> Vec<String> {
    let commit = prev.get("commit").and_then(|v| v.as_str()).unwrap_or("?");
    eprintln!(
        "simperf: --compare vs commit {commit} (max regress {:.1}%)",
        max_regress * 100.0
    );
    let mut failures = Vec::new();
    for &(key, current) in now {
        let Some(before) = prev.get(key).and_then(fits_obs::json::Value::as_f64) else {
            eprintln!("simperf:   {key}: no previous value (new metric)");
            continue;
        };
        if before <= 0.0 {
            continue;
        }
        let delta = current / before - 1.0;
        eprintln!(
            "simperf:   {key}: {before:.2} -> {current:.2} MIPS ({:+.1}%)",
            delta * 100.0
        );
        if delta < -max_regress {
            failures.push(format!(
                "{key} fell {:.1}% ({before:.2} -> {current:.2} MIPS), beyond --max-regress {:.1}%",
                -delta * 100.0,
                max_regress * 100.0
            ));
        }
    }
    failures
}
