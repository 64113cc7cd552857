//! The §5 experimental setup: four processor configurations (ARM16, ARM8,
//! FITS16, FITS8 — ISA × I-cache size, everything else fixed at the
//! SA-1100 model) swept over the benchmark suite.
//!
//! The four timed configurations are measured with the
//! execute-once/replay-many engine ([`Machine::run_recorded`], then
//! [`fits_sim::RecordedTrace::price_all`]): each kernel's native binary
//! executes **once** and is priced for both ARM cache geometries, and its
//! FITS binary executes **once** and is priced for both FITS geometries —
//! the per-configuration [`SimResult`]s are bit-identical to separate
//! per-configuration runs. Those single executions are the pipeline's own:
//! the profiling run records the native binary and the flow's equivalence
//! check records the FITS binary, and [`run_kernel_scenarios`] prices
//! those recordings ([`Artifacts::profile_recorded`],
//! [`Artifacts::flow_recorded`]).

use std::cell::Cell;
use std::fmt;

use fits_core::FlowError;
use fits_kernels::kernels::{Kernel, Scale};
use fits_power::{cache_power, chip_power_with, CachePower, ChipPower, DecodeKind};
use fits_scenario::{ScenarioMatrix, ScenarioSpec};
use fits_sim::{CompiledProgram, InstrSet, Machine, RecordedTrace, SimResult};

use crate::artifacts::Artifacts;

/// One of the paper's four simulated configurations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Config {
    /// Native ISA, 16 KB I-cache (the baseline).
    Arm16,
    /// Native ISA, 8 KB I-cache.
    Arm8,
    /// FITS ISA, 16 KB I-cache.
    Fits16,
    /// FITS ISA, 8 KB I-cache.
    Fits8,
}

impl Config {
    /// All four configurations in the paper's order.
    pub const ALL: [Config; 4] = [Config::Arm16, Config::Arm8, Config::Fits16, Config::Fits8];

    /// The machine description this configuration simulates on: the
    /// SA-1100 preset scenario, resized to the configuration's I-cache
    /// capacity. The enum is now only a *name* for a point on the scenario
    /// plane — every geometry, latency and tech constant comes from the
    /// spec.
    #[must_use]
    pub fn scenario(self) -> ScenarioSpec {
        let base = ScenarioSpec::sa1100();
        match self {
            Config::Arm16 | Config::Fits16 => base,
            Config::Arm8 | Config::Fits8 => base
                .with_icache_bytes(8 * 1024)
                .expect("8 KB divides the fixed SA-1100 geometry"),
        }
    }

    /// I-cache capacity for the configuration (from its scenario).
    #[must_use]
    pub fn icache_bytes(self) -> u32 {
        self.scenario().icache.size_bytes
    }

    /// Whether this configuration runs the synthesized ISA.
    #[must_use]
    pub fn is_fits(self) -> bool {
        matches!(self, Config::Fits16 | Config::Fits8)
    }

    fn index(self) -> usize {
        Config::ALL.iter().position(|c| *c == self).expect("known")
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Config::Arm16 => "ARM16",
            Config::Arm8 => "ARM8",
            Config::Fits16 => "FITS16",
            Config::Fits8 => "FITS8",
        };
        f.write_str(s)
    }
}

/// One timed run of one kernel under one configuration.
#[derive(Clone, Debug)]
pub struct ConfigRun {
    /// Microarchitectural statistics.
    pub sim: SimResult,
    /// I-cache power report.
    pub icache: CachePower,
    /// Chip-wide power report.
    pub chip: ChipPower,
}

/// Everything measured for one kernel.
#[derive(Clone, Debug)]
pub struct KernelResults {
    /// The kernel.
    pub kernel: Kernel,
    /// Native code size in bytes.
    pub arm_code_bytes: usize,
    /// T16 (Thumb-like) translation size in bytes (Figure 5 baseline).
    pub thumb_code_bytes: usize,
    /// FITS code size in bytes.
    pub fits_code_bytes: usize,
    /// Static 1-to-1 mapping rate (Figure 3).
    pub mapping_static: f64,
    /// Dynamic 1-to-1 mapping rate (Figure 4).
    pub mapping_dynamic: f64,
    /// Programmable-decoder configuration size in bits.
    pub config_bits: usize,
    /// Timed runs, indexed by [`Config::ALL`] order.
    pub runs: Vec<ConfigRun>,
}

impl KernelResults {
    /// The run for one configuration.
    #[must_use]
    pub fn run(&self, cfg: Config) -> &ConfigRun {
        &self.runs[cfg.index()]
    }
}

/// Whole-suite results.
#[derive(Clone, Debug)]
pub struct SuiteResults {
    /// Per-kernel measurements, in [`Kernel::ALL`] order (for the kernels
    /// that were requested).
    pub kernels: Vec<KernelResults>,
    /// The workload scale used.
    pub scale: Scale,
}

/// Experiment failure for one kernel.
#[derive(Debug)]
pub enum ExperimentError {
    /// Kernel compilation failed (a kernel bug).
    Compile(fits_kernels::codegen::CompileError),
    /// The FITS flow failed.
    Flow(FlowError),
    /// A timed simulation failed.
    Sim(fits_sim::SimError),
    /// The FITS binary failed to load.
    Decode(fits_core::exec::FitsDecodeError),
    /// A multi-application synthesis failed (merge, translation or
    /// regression bound).
    Multi(fits_core::MultiError),
    /// A shared-ISA translation failed static verification — a
    /// translator bug surfaced as a diagnostic instead of a runaway
    /// simulation.
    Verify {
        /// The member kernel whose translation failed verification.
        kernel: String,
        /// The rendered verifier report.
        report: String,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Compile(e) => write!(f, "compile: {e}"),
            ExperimentError::Flow(e) => write!(f, "flow: {e}"),
            ExperimentError::Sim(e) => write!(f, "sim: {e}"),
            ExperimentError::Decode(e) => write!(f, "decode: {e}"),
            ExperimentError::Multi(e) => write!(f, "multi: {e}"),
            ExperimentError::Verify { kernel, report } => {
                write!(f, "verify({kernel}): {report}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

thread_local! {
    static TIMED_EXECUTIONS: Cell<u64> = const { Cell::new(0) };
}

/// Number of whole-program executions this thread has performed through
/// this crate: profiling runs, flow equivalence runs, the recordings
/// [`run_kernel_scenarios`] makes for already-cached artifacts,
/// [`price_shared_member`](crate::price_shared_member) runs and the traced
/// cache-bounds audits. Instrumentation for the tests that assert the
/// execute-once collapse: one ARM plus one FITS execution per kernel,
/// regardless of how many cache configurations are measured.
#[must_use]
pub fn timed_executions_on_this_thread() -> u64 {
    TIMED_EXECUTIONS.with(Cell::get)
}

/// Counts one whole-program execution on this thread.
pub(crate) fn note_timed_execution() {
    TIMED_EXECUTIONS.with(|c| c.set(c.get() + 1));
}

/// Records one whole-program execution of `set` against its lift, counted
/// by [`timed_executions_on_this_thread`].
pub(crate) fn record<S: InstrSet>(
    set: S,
    compiled: &CompiledProgram,
) -> Result<RecordedTrace, ExperimentError> {
    note_timed_execution();
    Machine::new(set)
        .run_recorded(compiled)
        .map_err(ExperimentError::Sim)
}

/// Runs all four configurations for one kernel, using a private artifact
/// cache. Sweeps that revisit kernels should prefer [`run_kernel_with`] and
/// share an [`Artifacts`].
///
/// # Errors
///
/// Propagates compilation, synthesis, translation and simulation failures
/// (none are expected for the shipped kernels).
pub fn run_kernel(kernel: Kernel, scale: Scale) -> Result<KernelResults, ExperimentError> {
    run_kernel_with(&Artifacts::new(), kernel, scale)
}

/// Runs all four configurations for one kernel against a shared artifact
/// cache: one native execution feeds both ARM cache geometries and one FITS
/// execution feeds both FITS geometries.
///
/// This is [`run_kernel_scenarios`] over [`paper_matrix`] — the §5 quad is
/// just the two SA-1100 scenario points, each measured under both ISAs. It
/// runs before the other lookups, so on a cold cache the profiling and
/// equivalence recordings are what it prices.
///
/// # Errors
///
/// Propagates compilation, synthesis, translation and simulation failures
/// (none are expected for the shipped kernels).
pub fn run_kernel_with(
    artifacts: &Artifacts,
    kernel: Kernel,
    scale: Scale,
) -> Result<KernelResults, ExperimentError> {
    let mut points = run_kernel_scenarios(artifacts, kernel, scale, &paper_matrix())?;
    let program = artifacts.program(kernel, scale)?;
    let flow = artifacts.flow(kernel, scale)?;
    // The THUMB baseline is a recompilation for the 8-register window
    // (r0-r3 scratch + r4-r7 allocatable): higher register pressure, more
    // spill code — the §6.2 effect — then a structural translation into
    // the 16-bit T16 encodings.
    let t16 = artifacts.thumb(kernel, scale)?;

    let eight = points.pop().expect("paper matrix has two scenarios");
    let sixteen = points.pop().expect("paper matrix has two scenarios");
    // [`Config::ALL`] order: ARM16, ARM8, FITS16, FITS8.
    let runs = vec![sixteen.arm, eight.arm, sixteen.fits, eight.fits];

    Ok(KernelResults {
        kernel,
        arm_code_bytes: program.code_bytes(),
        thumb_code_bytes: t16.code_bytes(),
        fits_code_bytes: flow.fits.code_bytes(),
        mapping_static: flow.mapping.static_one_to_one_rate(),
        mapping_dynamic: flow.dynamic_rate(),
        config_bits: flow.fits.config.config_bits(),
        runs,
    })
}

/// The paper's two machine points (SA-1100 with 16 KB and with 8 KB
/// I-cache) as a scenario matrix.
#[must_use]
pub fn paper_matrix() -> ScenarioMatrix {
    ScenarioMatrix {
        scenarios: vec![Config::Arm16.scenario(), Config::Arm8.scenario()],
    }
}

/// Both ISAs measured at one scenario point of a sweep.
#[derive(Clone, Debug)]
pub struct ScenarioRun {
    /// The machine description this point simulated on.
    pub scenario: ScenarioSpec,
    /// The native-ISA run under the scenario.
    pub arm: ConfigRun,
    /// The FITS-ISA run under the scenario.
    pub fits: ConfigRun,
}

/// Prices one replayed simulation under a scenario's tech node.
pub(crate) fn priced(spec: &ScenarioSpec, sim: SimResult, decode: DecodeKind) -> ConfigRun {
    let icache = cache_power(&spec.icache, &sim.icache, sim.cycles, &spec.tech);
    let chip = chip_power_with(&sim, &spec.icache, &spec.dcache, decode, &spec.tech);
    ConfigRun { sim, icache, chip }
}

/// Measures every scenario of a matrix for one kernel, under both ISAs,
/// with the execute-once/replay-many engine: the native binary executes
/// **once** and the FITS binary executes **once**, each feeding one timing
/// model per *distinct machine* in the matrix ([`ScenarioMatrix::machines`]
/// — tech nodes that only re-price an existing geometry share its replay).
/// Every timing replay is then priced under each scenario's own tech
/// parameters, which is pure post-processing on the [`SimResult`].
///
/// On a cold cache the executions are the pipeline's own: the profiling
/// run's recording prices the native binary and the flow's equivalence
/// recording prices the FITS binary. Artifacts an earlier call computed
/// come back without a recording, and their binaries are recorded here.
///
/// # Errors
///
/// Propagates compilation, synthesis, translation and simulation failures.
pub fn run_kernel_scenarios(
    artifacts: &Artifacts,
    kernel: Kernel,
    scale: Scale,
    matrix: &ScenarioMatrix,
) -> Result<Vec<ScenarioRun>, ExperimentError> {
    let (machines, machine_of) = matrix.machines();

    // The native recording is priced and dropped before the flow records
    // the FITS binary, so at most one trace is alive at a time.
    let arm_sims = {
        let (_, trace) = artifacts.profile_recorded(kernel, scale)?;
        let compiled = artifacts.compiled_arm(kernel, scale)?;
        let trace = match trace {
            Some(trace) => trace,
            None => record(artifacts.native_set(kernel, scale)?, &compiled)?,
        };
        trace
            .price_all(&compiled, &machines)
            .map_err(ExperimentError::Sim)?
    };
    // The verified flow statically validates the accepted triple (encoding
    // soundness, CFI, dataflow, translation validation) before execution.
    let (flow, trace) = artifacts.flow_recorded(kernel, scale)?;
    let fits_sims = {
        let compiled = artifacts.compiled_fits(kernel, scale)?;
        let trace = match trace {
            Some(trace) => trace,
            None => {
                let set = fits_core::FitsSet::load(&flow.fits).map_err(ExperimentError::Decode)?;
                record(set, &compiled)?
            }
        };
        trace
            .price_all(&compiled, &machines)
            .map_err(ExperimentError::Sim)?
    };

    let mut runs = Vec::with_capacity(matrix.len());
    for (spec, &m) in matrix.scenarios.iter().zip(&machine_of) {
        let decode = DecodeKind::Programmable {
            config_bits: flow.fits.config.config_bits(),
        };
        runs.push(ScenarioRun {
            scenario: spec.clone(),
            arm: priced(spec, arm_sims[m].clone(), DecodeKind::Fixed32),
            fits: priced(spec, fits_sims[m].clone(), decode),
        });
    }
    Ok(runs)
}

/// Runs the whole suite, one worker thread per CPU, sharing one artifact
/// cache across workers.
///
/// Results are collected over a channel (no shared lock), so a panicking
/// worker cannot poison the collection path and take the other workers
/// down with it: panics are caught per kernel, the remaining kernels keep
/// running, and the first failure in kernel order — panic or error — is
/// surfaced afterwards.
///
/// # Errors
///
/// Fails if any kernel fails (kernels are expected to be infallible; an
/// error indicates a regression).
///
/// # Panics
///
/// Re-raises the first worker panic (in kernel order) once all workers have
/// drained, preserving the original payload.
pub fn run_suite(kernels: &[Kernel], scale: Scale) -> Result<SuiteResults, ExperimentError> {
    run_suite_with(&Artifacts::new(), kernels, scale)
}

/// [`run_suite`] against a caller-supplied artifact cache — the way to run
/// the suite with a flow observer installed
/// ([`Artifacts::with_flow_observer`]) or to share artifacts across several
/// sweeps.
///
/// # Errors
///
/// Fails if any kernel fails, like [`run_suite`].
///
/// # Panics
///
/// Re-raises the first worker panic (in kernel order), like [`run_suite`].
pub fn run_suite_with(
    artifacts: &Artifacts,
    kernels: &[Kernel],
    scale: Scale,
) -> Result<SuiteResults, ExperimentError> {
    let out = kernels_in_parallel(kernels, |kernel| run_kernel_with(artifacts, kernel, scale))?;
    Ok(SuiteResults {
        kernels: out,
        scale,
    })
}

/// Runs `run` for every kernel on a worker pool (one thread per CPU),
/// collecting results over a channel in kernel order — the shared engine
/// behind [`run_suite_with`] and the scenario sweeps.
///
/// Panics are caught per kernel so one poisoned worker cannot take the
/// others down; the first failure in kernel order — panic or error — is
/// surfaced after every worker drains.
pub(crate) fn kernels_in_parallel<T: Send>(
    kernels: &[Kernel],
    run: impl Fn(Kernel) -> Result<T, ExperimentError> + Sync,
) -> Result<Vec<T>, ExperimentError> {
    type Outcome<T> = Result<Result<T, ExperimentError>, Box<dyn std::any::Any + Send>>;

    let workers = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Outcome<T>)>();

    std::thread::scope(|s| {
        for _ in 0..workers.min(kernels.len()) {
            let tx = tx.clone();
            let next = &next;
            let run = &run;
            s.spawn(move || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= kernels.len() {
                    break;
                }
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(kernels[i])));
                if tx.send((i, outcome)).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);

    let mut slots: Vec<Option<Outcome<T>>> = (0..kernels.len()).map(|_| None).collect();
    for (i, outcome) in rx {
        slots[i] = Some(outcome);
    }
    let mut out = Vec::with_capacity(kernels.len());
    for slot in slots {
        match slot.expect("every kernel index was sent exactly once") {
            Ok(Ok(results)) => out.push(results),
            Ok(Err(error)) => return Err(error),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fits_sim::Ar32Set;

    #[test]
    fn one_kernel_all_configs() {
        let r = run_kernel(Kernel::Crc32, Scale::test()).unwrap();
        assert_eq!(r.runs.len(), 4);
        // FITS configurations fetch roughly half as many I-cache words.
        let arm = &r.run(Config::Arm16).sim;
        let fits = &r.run(Config::Fits16).sim;
        let ratio = fits.icache.accesses as f64 / arm.icache.accesses as f64;
        assert!(
            (0.45..=0.62).contains(&ratio),
            "FITS fetch ratio {ratio:.3} should be near one half"
        );
        // Retired instructions are close (high 1-to-1 mapping).
        let inflate = fits.retired as f64 / arm.retired as f64;
        assert!((0.99..=1.15).contains(&inflate), "inflation {inflate:.3}");
        // Code sizes: FITS ~half of ARM, T16 in between.
        assert!(r.fits_code_bytes * 10 < r.arm_code_bytes * 6);
        assert!(r.thumb_code_bytes < r.arm_code_bytes);
        assert!(r.thumb_code_bytes > r.fits_code_bytes);
    }

    #[test]
    fn suite_runs_in_parallel() {
        let suite = run_suite(&[Kernel::Crc32, Kernel::Bitcount], Scale::test()).unwrap();
        assert_eq!(suite.kernels.len(), 2);
        assert_eq!(suite.kernels[0].kernel, Kernel::Crc32);
        assert_eq!(suite.kernels[1].kernel, Kernel::Bitcount);
    }

    /// A scenario grid costs the same two functional executions as the
    /// paper quad, no matter how many geometry × tech points it has, and
    /// tech nodes re-price without changing the microarchitectural counts.
    #[test]
    fn scenario_grid_reuses_one_execution_per_isa() {
        let matrix = ScenarioMatrix::grid(
            &ScenarioSpec::sa1100(),
            &[16 * 1024, 8 * 1024, 4 * 1024],
            &[
                ("sa1100".to_string(), fits_power::TechParams::sa1100()),
                ("65nm".to_string(), fits_power::TechParams::modern_65nm()),
            ],
        )
        .unwrap();
        let arts = Artifacts::new();
        let before = timed_executions_on_this_thread();
        let runs = run_kernel_scenarios(&arts, Kernel::Crc32, Scale::test(), &matrix).unwrap();
        assert_eq!(
            timed_executions_on_this_thread() - before,
            2,
            "six scenarios must cost one ARM + one FITS execution"
        );
        assert_eq!(runs.len(), 6);
        // Same geometry under another tech node: identical counts (the
        // node is power post-processing), different pricing.
        let (old, new) = (&runs[0], &runs[3]);
        assert_eq!(old.scenario.id(), "sa1100-i16k");
        assert_eq!(new.scenario.id(), "65nm-i16k");
        assert_eq!(old.arm.sim.cycles, new.arm.sim.cycles);
        assert_eq!(old.arm.sim.icache, new.arm.sim.icache);
        let lk_old = old.arm.icache.leakage_j / old.arm.icache.total_j();
        let lk_new = new.arm.icache.leakage_j / new.arm.icache.total_j();
        assert!(
            lk_new > 2.0 * lk_old,
            "65 nm leakage share {lk_new:.3} must dwarf 0.35 um {lk_old:.3}"
        );
    }

    /// A warm cache hands back no recordings, so a second call records
    /// both binaries itself — still two executions — and prices them to
    /// the same bits as the first call, which priced the profiling and
    /// equivalence recordings.
    #[test]
    fn warm_cache_records_each_binary_once_with_identical_results() {
        let arts = Artifacts::new();
        let matrix = paper_matrix();
        let before = timed_executions_on_this_thread();
        let handed_off =
            run_kernel_scenarios(&arts, Kernel::Crc32, Scale::test(), &matrix).unwrap();
        let cold = timed_executions_on_this_thread() - before;
        let recorded = run_kernel_scenarios(&arts, Kernel::Crc32, Scale::test(), &matrix).unwrap();
        let warm = timed_executions_on_this_thread() - before - cold;
        assert_eq!(
            (cold, warm),
            (2, 2),
            "one ARM + one FITS execution per call"
        );
        // Debug renders every f64 in its shortest round-trip form, so equal
        // text means bit-identical results.
        assert_eq!(format!("{handed_off:?}"), format!("{recorded:?}"));
    }

    /// The native set is loaded under the cache's own AR32 tables on both
    /// paths: a respelled (same machine, different hash) catalog prices
    /// exactly like the built-in slot, by hand-off and by fallback alike.
    #[test]
    fn custom_catalog_prices_like_the_builtin_on_both_paths() {
        use fits_isa::spec::{IsaSpec, SpecCatalog, AR32_SPEC_TEXT};
        use std::sync::Arc;

        let respelled = IsaSpec::load(&AR32_SPEC_TEXT.replace(
            "# --- branches and traps ---",
            "# --- branches and traps (respelled) ---",
        ))
        .unwrap();
        let catalog = Arc::new(SpecCatalog {
            ar32: Arc::new(respelled),
            ..SpecCatalog::default()
        });
        assert!(!catalog.is_builtin(), "mutation needle went stale");
        let matrix = paper_matrix();
        let sims = |runs: Vec<ScenarioRun>| -> Vec<(SimResult, SimResult)> {
            runs.into_iter().map(|r| (r.arm.sim, r.fits.sim)).collect()
        };
        let builtin = sims(
            run_kernel_scenarios(&Artifacts::new(), Kernel::Crc32, Scale::test(), &matrix).unwrap(),
        );
        let custom = Artifacts::new().with_isa(catalog);
        let handed_off =
            sims(run_kernel_scenarios(&custom, Kernel::Crc32, Scale::test(), &matrix).unwrap());
        let recorded =
            sims(run_kernel_scenarios(&custom, Kernel::Crc32, Scale::test(), &matrix).unwrap());
        assert_eq!(handed_off, builtin, "hand-off path");
        assert_eq!(recorded, builtin, "fallback path");
    }

    /// The execute-once/replay-many contract: `run_kernel` performs exactly
    /// one ARM execution and one FITS execution for its four timed
    /// configurations, and each configuration's statistics are bit-identical
    /// to a dedicated per-configuration run (one execution and one
    /// single-configuration pricing each).
    #[test]
    fn run_kernel_executes_once_per_isa() {
        let before = timed_executions_on_this_thread();
        let r = run_kernel(Kernel::Sha, Scale::test()).unwrap();
        assert_eq!(
            timed_executions_on_this_thread() - before,
            2,
            "four timed configurations must cost one ARM + one FITS execution"
        );

        // Independent runs, one execution per configuration.
        let arts = Artifacts::new();
        let program = arts.program(Kernel::Sha, Scale::test()).unwrap();
        let flow = arts.flow(Kernel::Sha, Scale::test()).unwrap();
        fn timed<S: fits_sim::InstrSet>(set: S, sa: &fits_sim::Sa1100Config) -> SimResult {
            let compiled = fits_sim::CompiledProgram::compile(&set).unwrap();
            let trace = Machine::new(set).run_recorded(&compiled).unwrap();
            trace.price(&compiled, sa).unwrap()
        }
        for cfg in Config::ALL {
            let sa = cfg.scenario().machine_config();
            let sim = if cfg.is_fits() {
                timed(fits_core::FitsSet::load(&flow.fits).unwrap(), &sa)
            } else {
                timed(Ar32Set::load(&program), &sa)
            };
            assert_eq!(
                r.run(cfg).sim,
                sim,
                "{cfg}: replayed statistics must be bit-identical to a per-config run"
            );
        }
    }
}
