//! The five-stage FITS system design flow (Figure 1): profile → synthesize
//! → compile → configure → execute, with the iterate-on-failure loop the
//! figure draws back from "requirements met?" to the synthesize stage.

use std::fmt;

use fits_isa::spec::{Ar32Tables, SpecCatalog, SpecError};
use fits_isa::Program;
use fits_sim::{CompiledProgram, Machine, RecordedTrace, RunOutput, SimError};

use crate::decoder::DecoderConfig;
use crate::exec::{FitsDecodeError, FitsSet};
use crate::profile::{profile_with, Profile};
use crate::synth::{synthesize, SynthOptions, Synthesis};
use crate::translate::{translate, FitsProgram, MappingStats, TranslateError, Translation};

/// Flow failure.
#[derive(Debug)]
pub enum FlowError {
    /// The profiling or verification run failed.
    Sim(SimError),
    /// Translation failed.
    Translate(TranslateError),
    /// The FITS binary failed to decode under its own configuration.
    Decode(FitsDecodeError),
    /// The FITS binary's behaviour diverged from the native program — the
    /// synthesized ISA is unsound (never expected; a hard bug).
    Mismatch {
        /// Native result.
        arm: RunOutput,
        /// FITS result.
        fits: RunOutput,
    },
    /// The mapping-rate floor was not reached within the iteration budget.
    RequirementsNotMet {
        /// Best static 1-to-1 rate achieved.
        best_static_rate: f64,
        /// The floor that was requested.
        floor: f64,
    },
    /// A static validator (see [`FlowValidator`]) rejected the accepted
    /// synthesis/translation pair before execution.
    Verify {
        /// The validator's rendered findings.
        report: String,
    },
    /// The flow's ISA spec catalog does not compile into usable engine
    /// tables (only possible with user-supplied specs).
    Spec(SpecError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Sim(e) => write!(f, "simulation failed: {e}"),
            FlowError::Translate(e) => write!(f, "translation failed: {e}"),
            FlowError::Decode(e) => write!(f, "decode failed: {e}"),
            FlowError::Mismatch { arm, fits } => write!(
                f,
                "FITS binary diverged: arm exit {:#x} vs fits exit {:#x}",
                arm.exit_code, fits.exit_code
            ),
            FlowError::RequirementsNotMet {
                best_static_rate,
                floor,
            } => write!(
                f,
                "mapping rate {best_static_rate:.3} below floor {floor:.3} after all iterations"
            ),
            FlowError::Verify { report } => {
                write!(f, "static verification rejected the translation:\n{report}")
            }
            FlowError::Spec(e) => write!(f, "ISA spec rejected: {e}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<SimError> for FlowError {
    fn from(e: SimError) -> Self {
        FlowError::Sim(e)
    }
}

impl From<TranslateError> for FlowError {
    fn from(e: TranslateError) -> Self {
        FlowError::Translate(e)
    }
}

impl From<FitsDecodeError> for FlowError {
    fn from(e: FitsDecodeError) -> Self {
        FlowError::Decode(e)
    }
}

/// A static analysis hook run on the accepted `(program, synthesis,
/// translation)` triple before the flow executes anything.
///
/// Implemented by `fits-verify`; defined here so the flow can carry a
/// validator without `fits-core` depending on the analysis crate.
pub trait FlowValidator: Send + Sync {
    /// Checks the triple; on rejection returns the rendered findings,
    /// which the flow surfaces as [`FlowError::Verify`].
    ///
    /// # Errors
    ///
    /// Returns the rendered diagnostic report when any analysis finds a
    /// defect.
    fn validate(
        &self,
        program: &Program,
        synthesis: &Synthesis,
        translation: &Translation,
    ) -> Result<(), String>;
}

/// The flow stages an observer can be notified about, in pipeline order.
///
/// `Synthesize` and `Translate` fire once per iteration of the Figure-1
/// feedback loop, so an observer may see several events for the same stage
/// within a single [`FitsFlow::run`]; aggregating observers should merge by
/// [`FlowStage::name`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FlowStage {
    /// Stage 1: the profiling execution of the native program.
    Profile,
    /// Stage 2: instruction-set synthesis from the profile.
    Synthesize,
    /// Stage 3: translation of the native program to the FITS ISA.
    Translate,
    /// Static verification of the accepted triple (when a
    /// [`FlowValidator`] is installed).
    Verify,
    /// Stage 5: the differential execution of the FITS binary, lifted and
    /// recorded so the same run can be priced.
    Execute,
}

impl FlowStage {
    /// Stable lower-case stage name, used as the span label in traces.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FlowStage::Profile => "profile",
            FlowStage::Synthesize => "synthesize",
            FlowStage::Translate => "translate",
            FlowStage::Verify => "verify",
            FlowStage::Execute => "execute",
        }
    }
}

/// A timing hook notified once per completed flow stage with the wall-clock
/// time that stage took.
///
/// Implemented by `fits-obs`'s span registry; defined here so the flow can
/// carry an observer without `fits-core` depending on the tracing crate —
/// the same inversion as [`FlowValidator`].
pub trait FlowObserver: Send + Sync {
    /// Called after a stage completes (even when it fails), with its
    /// wall-clock duration.
    fn stage(&self, stage: FlowStage, wall: std::time::Duration);
}

/// A [`FlowObserver`] that fans each stage event out to several observers
/// in order.
///
/// Long-lived hosts need one engine-side observer slot to feed more than
/// one consumer — the `fitsd` daemon tees every stage into both its
/// lifetime span registry and whatever per-request collector is active.
/// Teeing is associative and observation is passive, so the fan-out order
/// only affects event order, never results.
#[derive(Clone, Default)]
pub struct TeeObserver {
    sinks: Vec<std::sync::Arc<dyn FlowObserver>>,
}

impl fmt::Debug for TeeObserver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TeeObserver")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl TeeObserver {
    /// An empty tee (a valid observer that drops every event).
    #[must_use]
    pub fn new() -> TeeObserver {
        TeeObserver::default()
    }

    /// Builder-style addition of a sink.
    #[must_use]
    pub fn with(mut self, sink: std::sync::Arc<dyn FlowObserver>) -> TeeObserver {
        self.sinks.push(sink);
        self
    }
}

impl FlowObserver for TeeObserver {
    fn stage(&self, stage: FlowStage, wall: std::time::Duration) {
        for sink in &self.sinks {
            sink.stage(stage, wall);
        }
    }
}

/// The FITS design flow driver.
///
/// ```
/// use fits_core::FitsFlow;
/// use fits_kernels::kernels::{Kernel, Scale};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = Kernel::Crc32.compile(Scale::test())?;
/// let outcome = FitsFlow::new().run(&program)?;
/// assert!(outcome.mapping.static_one_to_one_rate() > 0.9);
/// assert!(outcome.fits.code_bytes() * 2 <= program.code_bytes() + 64);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct FitsFlow {
    /// Synthesis options for the first iteration.
    pub options: SynthOptions,
    /// Static mapping-rate floor; below it the flow iterates with a larger
    /// dictionary budget (the Figure-1 feedback arrow).
    pub min_static_rate: f64,
    /// Maximum synthesize→verify iterations.
    pub max_iterations: usize,
    /// Verify the FITS binary functionally against the profiling run
    /// (differential execution). Disable only for coverage probes.
    pub verify: bool,
    /// Optional static validator run on the accepted triple before any
    /// FITS execution (`fits_verify::verified_flow()` installs one).
    pub validator: Option<std::sync::Arc<dyn FlowValidator>>,
    /// Optional stage-timing observer (`fits-obs`'s span registry installs
    /// one). `None` costs one branch per stage; results are unaffected
    /// either way.
    pub observer: Option<std::sync::Arc<dyn FlowObserver>>,
    /// The ISA spec catalog the flow resolves against. Default is the
    /// shipped catalog; serving swaps in user-supplied specs per request.
    /// The catalog's content hash is stamped into [`FlowOutcome::isa_hash`].
    pub isa: std::sync::Arc<SpecCatalog>,
}

impl fmt::Debug for FitsFlow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FitsFlow")
            .field("options", &self.options)
            .field("min_static_rate", &self.min_static_rate)
            .field("max_iterations", &self.max_iterations)
            .field("verify", &self.verify)
            .field("validator", &self.validator.as_ref().map(|_| "<dyn>"))
            .field("observer", &self.observer.as_ref().map(|_| "<dyn>"))
            .field("isa", &self.isa.hash_hex())
            .finish()
    }
}

impl Default for FitsFlow {
    fn default() -> Self {
        FitsFlow {
            options: SynthOptions::default(),
            min_static_rate: 0.85,
            max_iterations: 3,
            verify: true,
            validator: None,
            observer: None,
            isa: std::sync::Arc::new(SpecCatalog::default()),
        }
    }
}

/// Everything the flow produced.
#[derive(Clone, Debug)]
pub struct FlowOutcome {
    /// Stage-1 profile.
    pub profile: Profile,
    /// Stage-2 synthesis (of the accepted iteration).
    pub synthesis: Synthesis,
    /// The FITS binary (stage 3/4: compiled and configured).
    pub fits: FitsProgram,
    /// Mapping statistics.
    pub mapping: MappingStats,
    /// Stage-5 verification run of the FITS binary (when enabled).
    pub fits_run: Option<RunOutput>,
    /// Iterations used.
    pub iterations: usize,
    /// Content hash of the ISA spec catalog the flow resolved against
    /// (three concatenated 16-hex-digit FNV-1a hashes: AR32, T16, FITS).
    pub isa_hash: String,
}

impl FlowOutcome {
    /// The dynamic 1-to-1 mapping rate (Figure 4's metric).
    #[must_use]
    pub fn dynamic_rate(&self) -> f64 {
        self.mapping
            .dynamic_one_to_one_rate(&self.profile.exec_counts)
    }

    /// Code-size ratio versus the native program (Figure 5's metric),
    /// given the native size in bytes.
    #[must_use]
    pub fn code_ratio(&self, native_bytes: usize) -> f64 {
        self.fits.code_bytes() as f64 / native_bytes as f64
    }

    /// The final decoder configuration.
    #[must_use]
    pub fn config(&self) -> &DecoderConfig {
        &self.fits.config
    }
}

impl FitsFlow {
    /// A flow with default options.
    #[must_use]
    pub fn new() -> FitsFlow {
        FitsFlow::default()
    }

    /// Builder-style override of the synthesis options.
    #[must_use]
    pub fn with_options(mut self, options: SynthOptions) -> FitsFlow {
        self.options = options;
        self
    }

    /// Builder-style installation of a stage-timing observer.
    #[must_use]
    pub fn with_observer(mut self, observer: std::sync::Arc<dyn FlowObserver>) -> FitsFlow {
        self.observer = Some(observer);
        self
    }

    /// Runs the full flow on a native program.
    ///
    /// # Errors
    ///
    /// See [`FlowError`]; `Mismatch` indicates a synthesis soundness bug
    /// and is checked on every run when `verify` is on.
    pub fn run(&self, program: &Program) -> Result<FlowOutcome, FlowError> {
        // Resolve the AR32 spec into encode tables. With the shipped
        // catalog this is the statically-compiled table; a user-supplied
        // spec compiles here (and a bad one fails before anything runs).
        let owned;
        let tables: &Ar32Tables = if self.isa.is_builtin() {
            Ar32Tables::builtin()
        } else {
            owned = Ar32Tables::from_spec(&self.isa.ar32).map_err(FlowError::Spec)?;
            &owned
        };
        // Stage 1: profile.
        let prof = self.timed(FlowStage::Profile, || profile_with(program, tables))?;
        self.run_profiled(program, prof)
    }

    /// Runs `f`, reporting its wall-clock time to the observer (if any)
    /// under `stage`. With no observer this is a direct call.
    fn timed<T>(&self, stage: FlowStage, f: impl FnOnce() -> T) -> T {
        match &self.observer {
            Some(obs) => {
                let start = std::time::Instant::now();
                let out = f();
                obs.stage(stage, start.elapsed());
                out
            }
            None => f(),
        }
    }

    /// Runs stages 2–5 from an existing stage-1 profile, avoiding a
    /// redundant profiling execution when the caller already holds one
    /// (sweep harnesses profile each program once and synthesize many
    /// configurations from it).
    ///
    /// `prof` must be the output of [`profile`](crate::profile()) on this same `program`: it
    /// carries the reference [`RunOutput`] the differential verification
    /// compares against.
    ///
    /// # Errors
    ///
    /// See [`FlowError`].
    pub fn run_profiled(&self, program: &Program, prof: Profile) -> Result<FlowOutcome, FlowError> {
        self.run_profiled_recorded(program, prof)
            .map(|(outcome, _)| outcome)
    }

    /// [`FitsFlow::run_profiled`], also handing back stage 5's lifted FITS
    /// program and recording (`None` when `verify` is off), so a caller
    /// can price the FITS binary ([`RecordedTrace::price_all`]) without
    /// executing it a second time. The recording is returned, never kept
    /// in the [`FlowOutcome`]: outcomes are cached and shared, and a trace
    /// grows with the dynamic instruction count.
    ///
    /// # Errors
    ///
    /// See [`FlowError`].
    pub fn run_profiled_recorded(
        &self,
        program: &Program,
        prof: Profile,
    ) -> Result<(FlowOutcome, Option<(CompiledProgram, RecordedTrace)>), FlowError> {
        let mut opts = self.options.clone();
        let mut best: Option<(Synthesis, Translation)> = None;
        let mut iterations = 0;
        for round in 0..self.max_iterations.max(1) {
            iterations = round + 1;
            // Stage 2: synthesize.
            let synthesis = self.timed(FlowStage::Synthesize, || synthesize(&prof, &opts));
            // Stage 3: compile (translate).
            let translation = self.timed(FlowStage::Translate, || {
                translate(program, &synthesis.config)
            })?;
            let rate = translation.stats.static_one_to_one_rate();
            let better = best
                .as_ref()
                .is_none_or(|(_, t)| rate > t.stats.static_one_to_one_rate());
            if better {
                best = Some((synthesis, translation));
            }
            if rate >= self.min_static_rate {
                break;
            }
            // Iterate: widen the dictionaries (cheapest corrective lever).
            opts.max_dict_bits = (opts.max_dict_bits + 1).min(8);
        }
        let (synthesis, translation) = best.expect("at least one iteration ran");
        let rate = translation.stats.static_one_to_one_rate();
        if rate < self.min_static_rate {
            return Err(FlowError::RequirementsNotMet {
                best_static_rate: rate,
                floor: self.min_static_rate,
            });
        }

        // Static verification of the accepted triple, before anything runs.
        if let Some(validator) = &self.validator {
            let verdict = self.timed(FlowStage::Verify, || {
                validator.validate(program, &synthesis, &translation)
            });
            if let Err(report) = verdict {
                return Err(FlowError::Verify { report });
            }
        }

        // Stage 4/5: configure the decoder (pre-decode), lift, and execute
        // through the recorder, so the run can also be priced.
        let recording = if self.verify {
            let (compiled, trace) = self.timed(FlowStage::Execute, || {
                let set = FitsSet::load(&translation.fits)?;
                let compiled = CompiledProgram::compile(&set)?;
                let trace = Machine::new(set).run_recorded(&compiled)?;
                Ok::<_, FlowError>((compiled, trace))
            })?;
            let arm = prof.run.as_ref().expect("profiling run recorded");
            let fits = trace.output;
            if fits.exit_code != arm.exit_code || fits.emitted != arm.emitted {
                return Err(FlowError::Mismatch { arm: *arm, fits });
            }
            Some((compiled, trace))
        } else {
            None
        };

        let outcome = FlowOutcome {
            profile: prof,
            synthesis,
            fits: translation.fits,
            mapping: translation.stats,
            fits_run: recording.as_ref().map(|(_, trace)| trace.output),
            iterations,
            isa_hash: self.isa.hash_hex(),
        };
        Ok((outcome, recording))
    }
}

/// Compile-time contract: flow handles cross threads.
///
/// Long-lived multi-threaded consumers (the bench suite runner, the `fitsd`
/// daemon) share one configured [`FitsFlow`] and hand [`FlowOutcome`]s
/// between worker threads — which only stays true as long as every trait
/// object the flow can carry ([`FlowValidator`], [`FlowObserver`]) keeps
/// its `Send + Sync` supertrait bounds. These assertions turn an
/// accidental regression of that contract into a compile error here,
/// instead of a trait-bound error three crates downstream.
#[allow(dead_code)]
const _FLOW_HANDLES_ARE_SEND_SYNC: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FitsFlow>();
    assert_send_sync::<FlowOutcome>();
    assert_send_sync::<FlowError>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use fits_kernels::kernels::{Kernel, Scale};

    #[test]
    fn flow_runs_end_to_end_and_verifies() {
        let program = Kernel::AdpcmEnc.compile(Scale::test()).unwrap();
        let out = FitsFlow::new().run(&program).unwrap();
        assert!(out.fits_run.is_some());
        assert!(out.mapping.static_one_to_one_rate() > 0.9);
        assert!(out.dynamic_rate() > 0.9);
        assert!(out.code_ratio(program.code_bytes()) < 0.6);
        assert_eq!(out.iterations, 1);
    }

    #[test]
    fn flow_reports_unreachable_floor() {
        let program = Kernel::Crc32.compile(Scale::test()).unwrap();
        let flow = FitsFlow {
            min_static_rate: 1.1, // impossible
            max_iterations: 2,
            ..FitsFlow::default()
        };
        match flow.run(&program) {
            Err(FlowError::RequirementsNotMet { .. }) => {}
            other => panic!("expected RequirementsNotMet, got {other:?}"),
        }
    }

    #[test]
    fn observer_sees_every_stage_without_changing_results() {
        use std::sync::{Arc, Mutex};
        use std::time::Duration;

        #[derive(Default)]
        struct Recorder(Mutex<Vec<&'static str>>);
        impl FlowObserver for Recorder {
            fn stage(&self, stage: FlowStage, _wall: Duration) {
                self.0
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(stage.name());
            }
        }

        let program = Kernel::Crc32.compile(Scale::test()).unwrap();
        let recorder = Arc::new(Recorder::default());
        let observed = FitsFlow::new()
            .with_observer(Arc::clone(&recorder) as Arc<dyn FlowObserver>)
            .run(&program)
            .unwrap();
        let plain = FitsFlow::new().run(&program).unwrap();

        let stages = recorder
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        assert_eq!(stages, ["profile", "synthesize", "translate", "execute"]);
        // Observation is passive: the outcome matches an unobserved flow.
        assert_eq!(observed.fits.instrs, plain.fits.instrs);
        assert_eq!(observed.iterations, plain.iterations);
        assert_eq!(observed.fits_run, plain.fits_run);
    }

    #[test]
    fn verification_can_be_disabled() {
        let program = Kernel::Crc32.compile(Scale::test()).unwrap();
        let flow = FitsFlow {
            verify: false,
            ..FitsFlow::default()
        };
        let out = flow.run(&program).unwrap();
        assert!(out.fits_run.is_none());
        let prof = crate::profile(&program).unwrap();
        let (_, recording) = flow.run_profiled_recorded(&program, prof).unwrap();
        assert!(recording.is_none());
    }

    /// The equivalence recording handed back is the FITS binary's run: its
    /// output is the outcome's `fits_run`, and it prices like a fresh
    /// recording of the same binary.
    #[test]
    fn equivalence_recording_is_handed_back() {
        let program = Kernel::Crc32.compile(Scale::test()).unwrap();
        let prof = crate::profile(&program).unwrap();
        let (out, recording) = FitsFlow::new()
            .run_profiled_recorded(&program, prof)
            .unwrap();
        let (compiled, trace) = recording.expect("verification records");
        assert_eq!(out.fits_run, Some(trace.output));
        let set = FitsSet::load(&out.fits).unwrap();
        let fresh = Machine::new(set).run_recorded(&compiled).unwrap();
        let cfg = fits_sim::Sa1100Config::icache_16k();
        assert_eq!(
            trace.price(&compiled, &cfg).unwrap(),
            fresh.price(&compiled, &cfg).unwrap()
        );
    }
}
