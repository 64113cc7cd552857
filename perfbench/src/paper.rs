//! `paper`: the reproduction path. One op is `run_kernel_with` on a fresh
//! `Artifacts` for one kernel — profile, synthesize, translate, verify,
//! the equivalence run, one ARM and one FITS recording priced at all four
//! SA-1100 configurations, and the THUMB baseline — at the kernel's
//! equalized scale ([`crate::scales`]), in a seeded order over the suite.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use fits_bench::{paper_matrix, run_kernel_with, Artifacts, Config, ExperimentError};
use fits_core::FitsSet;
use fits_kernels::kernels::{Kernel, Scale};
use fits_power::{cache_power, chip_power_with, DecodeKind};
use fits_sim::{fold_emitted, Ar32Set, Machine, RunOutput};

use crate::calib::{Reference, Timeline};
use crate::report::{permuted_passes, run_serial, Latencies, Report, SetupTimes};
use crate::stats::geomean;
use crate::trace::{StageLog, Tracer};

/// The paper's two headline ratios for one kernel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratios {
    /// FITS8 over ARM16 total I-cache task energy (Fig. 11).
    pub icache_energy: f64,
    /// FITS code bytes over ARM code bytes (Fig. 5).
    pub code_size: f64,
}

/// What a kernel's program must produce: exit code and folded emit hash.
pub type Expected = (u32, u64);

/// The independent oracle: the kernel's pure-Rust reference output.
#[must_use]
pub fn expected(kernel: Kernel, scale: Scale) -> Expected {
    let reference = kernel.reference(scale);
    (reference.exit_code, fold_emitted(&reference.emitted))
}

fn check(what: &str, got: Option<&RunOutput>, want: Expected) -> Result<(), String> {
    match got {
        Some(out) if (out.exit_code, out.emitted) == want => Ok(()),
        Some(out) => Err(format!(
            "{what}: exit {} / emit {:016x}, reference {} / {:016x}",
            out.exit_code, out.emitted, want.0, want.1
        )),
        None => Err(format!("{what}: no output recorded")),
    }
}

/// One library op: `run_kernel_with` on a fresh cache, then the
/// native (profiling) and FITS (equivalence) outputs checked against the
/// reference. Returns the timed region's wall time and the ratios.
///
/// # Errors
///
/// Pipeline failures and oracle mismatches, as text.
pub fn library_op(kernel: Kernel, scale: Scale, want: Expected) -> Result<(f64, Ratios), String> {
    let artifacts = Artifacts::new();
    let start = Instant::now();
    let results = run_kernel_with(&artifacts, kernel, scale).map_err(|e| e.to_string())?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    // Cache reads only: both runs already happened inside the op.
    let profile = artifacts
        .profile(kernel, scale)
        .map_err(|e| e.to_string())?;
    let flow = artifacts.flow(kernel, scale).map_err(|e| e.to_string())?;
    check("native", profile.run.as_ref(), want)?;
    check("fits", flow.fits_run.as_ref(), want)?;
    let ratios = Ratios {
        icache_energy: results.run(Config::Fits8).icache.total_j()
            / results.run(Config::Arm16).icache.total_j(),
        code_size: results.fits_code_bytes as f64 / results.arm_code_bytes as f64,
    };
    Ok((wall_ms, ratios))
}

/// Per-op counts the traced path collects beside its spans.
#[derive(Default)]
pub struct TracedCounts {
    /// Whole-program executions (profile, equivalence, recordings).
    pub executions: u64,
    /// Instructions retired by the recordings.
    pub recorded_steps: u64,
    /// Instructions replayed by pricing (steps x machines priced).
    pub priced_steps: u64,
    /// Flow iterations (synthesis rounds).
    pub rounds: u64,
}

/// The same work as [`library_op`], split into the public calls
/// `run_kernel_with` makes so each layer gets its own span.
///
/// # Errors
///
/// Pipeline failures and oracle mismatches, as text.
pub fn traced_op(
    tracer: &mut Tracer,
    counts: &mut TracedCounts,
    kernel: Kernel,
    scale: Scale,
    want: Expected,
) -> Result<Ratios, String> {
    let e = |e: ExperimentError| e.to_string();
    let sim = |e: fits_sim::SimError| e.to_string();
    let stages = Arc::new(StageLog::default());
    let artifacts = Artifacts::new().with_flow_observer(stages.clone());

    let program = tracer
        .span("kernels.compile", || artifacts.program(kernel, scale))
        .map_err(e)?;
    let id = tracer.enter("core.profile");
    let profile = artifacts.profile(kernel, scale).map_err(e)?;
    counts.executions += stages.drain_into(tracer);
    tracer.exit(id);
    let id = tracer.enter("core.flow");
    let flow = artifacts.flow(kernel, scale).map_err(e)?;
    counts.executions += stages.drain_into(tracer);
    tracer.exit(id);
    let thumb = tracer
        .span("isa.thumb", || artifacts.thumb(kernel, scale))
        .map_err(e)?;
    counts.rounds += flow.iterations as u64;

    let matrix = paper_matrix();
    let (machines, machine_of) = matrix.machines();
    let arm_compiled = tracer
        .span("sim.lift", || artifacts.compiled_arm(kernel, scale))
        .map_err(e)?;
    let fits_compiled = tracer
        .span("sim.lift", || artifacts.compiled_fits(kernel, scale))
        .map_err(e)?;
    let arm_trace = tracer
        .span("sim.record", || {
            Machine::new(Ar32Set::load(&program)).run_recorded(&arm_compiled)
        })
        .map_err(sim)?;
    let arm_sims = tracer
        .span("sim.price", || {
            arm_trace.price_all(&arm_compiled, &machines)
        })
        .map_err(sim)?;
    let fits_trace = tracer.span("sim.record", || {
        FitsSet::load(&flow.fits)
            .map_err(|e| e.to_string())
            .and_then(|set| Machine::new(set).run_recorded(&fits_compiled).map_err(sim))
    })?;
    let fits_sims = tracer
        .span("sim.price", || {
            fits_trace.price_all(&fits_compiled, &machines)
        })
        .map_err(sim)?;
    counts.executions += 2;
    for trace in [&arm_trace, &fits_trace] {
        counts.recorded_steps += trace.output.steps;
        counts.priced_steps += trace.output.steps * machines.len() as u64;
    }

    let id = tracer.enter("power.price");
    let fits_decode = DecodeKind::Programmable {
        config_bits: flow.fits.config.config_bits(),
    };
    let mut icache = Vec::new();
    for (spec, &m) in matrix.scenarios.iter().zip(&machine_of) {
        for (sims, decode) in [(&arm_sims, DecodeKind::Fixed32), (&fits_sims, fits_decode)] {
            let sim = &sims[m];
            let power = cache_power(&spec.icache, &sim.icache, sim.cycles, &spec.tech);
            std::hint::black_box(chip_power_with(
                sim,
                &spec.icache,
                &spec.dcache,
                decode,
                &spec.tech,
            ));
            icache.push(power.total_j());
        }
    }
    tracer.exit(id);

    check("native", profile.run.as_ref(), want)?;
    check("fits", flow.fits_run.as_ref(), want)?;
    check("native recording", Some(&arm_trace.output), want)?;
    check("fits recording", Some(&fits_trace.output), want)?;
    // `icache` is [ARM16, FITS16, ARM8, FITS8] (scenario-major).
    std::hint::black_box(thumb.code_bytes());
    Ok(Ratios {
        icache_energy: icache[3] / icache[0],
        code_size: flow.fits.code_bytes() as f64 / program.code_bytes() as f64,
    })
}

/// Suite passes generated per run; the order wraps around past them.
const MAX_PASSES: usize = 400;

/// The workload's inputs: the op order and the oracle outputs.
struct Setup {
    table: Vec<(Kernel, Scale)>,
    expected: Vec<Expected>,
    order: Vec<usize>,
}

fn setup(seed: u64) -> Setup {
    let table = crate::scales::table();
    let expected = table.iter().map(|&(k, s)| expected(k, s)).collect();
    let order = permuted_passes(seed, table.len(), MAX_PASSES);
    Setup {
        table,
        expected,
        order,
    }
}

/// Runs the workload.
#[must_use]
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let mut setup_times = SetupTimes::default();
    let inputs = setup_times.repeat(|| setup(seed));
    let mut timeline = Timeline::new(Reference::Interp);
    let mut ratios: BTreeMap<&'static str, Ratios> = BTreeMap::new();
    let mut tracer = Tracer::default();
    let mut counts = TracedCounts::default();

    let samples = run_serial(
        &mut timeline,
        seconds,
        inputs.table.len(),
        trace,
        |i, traced| {
            let input = inputs.order[i % inputs.order.len()];
            let (kernel, scale) = inputs.table[input];
            let want = inputs.expected[input];
            let start = Instant::now();
            let outcome = if traced {
                traced_op(&mut tracer, &mut counts, kernel, scale, want)
                    .map(|r| (start.elapsed().as_secs_f64() * 1e3, r))
            } else {
                library_op(kernel, scale, want)
            };
            report.attempted += 1;
            match outcome {
                Ok((wall_ms, r)) => {
                    // Every repeat of a kernel must reproduce its ratios bit
                    // for bit, on either path.
                    let first = *ratios.entry(kernel.name()).or_insert(r);
                    if first.icache_energy.to_bits() != r.icache_energy.to_bits()
                        || first.code_size.to_bits() != r.code_size.to_bits()
                    {
                        report.fail(format!("{kernel}: ratios differ between repeats"));
                    }
                    wall_ms
                }
                Err(msg) => {
                    report.fail(format!("{kernel}@n={}: {msg}", scale.n));
                    start.elapsed().as_secs_f64() * 1e3
                }
            }
        },
    );

    // Read before the after-loop set-ups, which are measurement only.
    let peak_rss_mb = crate::stats::peak_rss_mb();
    // Kernel-name order makes the geomeans bit-identical across runs.
    let icache: Vec<f64> = ratios.values().map(|r| r.icache_energy).collect();
    let code: Vec<f64> = ratios.values().map(|r| r.code_size).collect();
    if ratios.len() != inputs.table.len() {
        report.fail(format!(
            "only {} of {} kernels completed",
            ratios.len(),
            inputs.table.len()
        ));
    }

    let untraced = Latencies::of(&samples, &timeline, |s| !s.traced);
    if trace {
        let traced = Latencies::of(&samples, &timeline, |s| s.traced);
        let ops = traced.wall.len() as f64;
        crate::layers::report_spans(&mut report, &tracer, ops);
        report.put(
            "core.synthesize_rounds",
            counts.rounds as f64 / ops,
            "count",
        );
        report.put("sim.runs_per_op", counts.executions as f64 / ops, "count");
        crate::layers::report_rates(&mut report, &tracer, &counts);
        crate::layers::report_harness(&mut report, &timeline, &untraced, &traced);
    } else {
        setup_times.repeat(|| setup(seed));
        setup_times.report(&mut report);
        untraced.report(&mut report, &timeline);
        report.put("peak_rss_mb", peak_rss_mb, "MB");
        report.put("icache_energy_ratio", geomean(&icache), "ratio");
        report.put("code_size_ratio", geomean(&code), "ratio");
    }
    report
}
