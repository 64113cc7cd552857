//! Shared, thread-safe cache of per-`(kernel, scale)` experiment artifacts.
//!
//! Every sweep in the harness (the §5 repro, the ablations, the THUMB size
//! study) starts from the same expensive inputs: the compiled native
//! [`Program`], its stage-1 [`Profile`], the accepted [`FlowOutcome`] and
//! the T16 recompilation. Before this cache each sweep point recompiled and
//! re-profiled from scratch — ablation A1 alone re-derived 5 kernels × 5
//! dictionary widths from identical profiles. An [`Artifacts`] instance
//! computes each artifact once and hands out `Arc`s; create one per process
//! (or per suite run, when measurement passes must stay independent) and
//! share it freely across worker threads.
//!
//! Computing the profile and the flow executes the native and the FITS
//! binary once each, through the recorder. [`Artifacts::profile_recorded`]
//! and [`Artifacts::flow_recorded`] hand those recordings to the one call
//! that computed the artifact, so the caller can price them instead of
//! executing again, and cache the lifts they were made against. The
//! recordings themselves are never cached: a trace grows with the dynamic
//! instruction count, and the cache lives as long as its host.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use fits_core::{
    profile_recorded, FitsSet, FlowError, FlowObserver, FlowOutcome, FlowStage, Profile,
    SynthOptions,
};
use fits_isa::spec::{Ar32Tables, SpecCatalog};
use fits_isa::thumb::{self, T16Program};
use fits_isa::{Program, Reg};
use fits_kernels::kernels::{Kernel, Scale};
use fits_sim::{Ar32Set, CompiledProgram, RecordedTrace};

use crate::experiment::{note_timed_execution, ExperimentError};

/// The low-register window the THUMB baseline recompiles for (r0–r3 stay
/// scratch; r4–r7 are allocatable), reproducing the §6.2 register-pressure
/// effect.
const THUMB_REGS: [Reg; 4] = [Reg::R4, Reg::R5, Reg::R6, Reg::R7];

type Key = (Kernel, u32);

fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // The maps are only ever mutated under short, panic-free insertions;
    // recover the guard rather than propagating a poison error.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn get_or_compute<V>(
    map: &Mutex<HashMap<Key, Arc<V>>>,
    key: Key,
    compute: impl FnOnce() -> Result<V, ExperimentError>,
) -> Result<Arc<V>, ExperimentError> {
    get_or_compute_with(map, key, || compute().map(|v| (v, ()))).map(|(v, _)| v)
}

/// [`get_or_compute`], also returning the by-product `X` that computing the
/// value yielded — `None` on a cache hit, since nothing was computed.
fn get_or_compute_with<V, X>(
    map: &Mutex<HashMap<Key, Arc<V>>>,
    key: Key,
    compute: impl FnOnce() -> Result<(V, X), ExperimentError>,
) -> Result<(Arc<V>, Option<X>), ExperimentError> {
    if let Some(v) = locked(map).get(&key) {
        return Ok((Arc::clone(v), None));
    }
    // Computed outside the lock so distinct keys build in parallel; a racing
    // duplicate of the same key is deterministic and the first insert wins.
    let (value, extra) = compute()?;
    let value = Arc::new(value);
    Ok((
        Arc::clone(locked(map).entry(key).or_insert(value)),
        Some(extra),
    ))
}

/// Caches a lift made as a by-product of another computation, unless one
/// is already cached (lifts of one binary are identical).
fn seed(map: &Mutex<HashMap<Key, Arc<CompiledProgram>>>, key: Key, compiled: CompiledProgram) {
    locked(map).entry(key).or_insert_with(|| Arc::new(compiled));
}

/// A cache of compiled programs, profiles, flow outcomes and THUMB
/// translations, keyed by `(kernel, scale)`.
#[derive(Default)]
pub struct Artifacts {
    programs: Mutex<HashMap<Key, Arc<Program>>>,
    profiles: Mutex<HashMap<Key, Arc<Profile>>>,
    flows: Mutex<HashMap<Key, Arc<FlowOutcome>>>,
    thumbs: Mutex<HashMap<Key, Arc<T16Program>>>,
    /// Block-compiled replay descriptors for the native binary. Only the
    /// *static* compilation is cached — recorded traces scale with dynamic
    /// instruction count and are deliberately never retained here: the
    /// profiling and equivalence recordings are handed to the one caller
    /// that computed them ([`Artifacts::profile_recorded`],
    /// [`Artifacts::flow_recorded`]) and dropped once priced.
    compiled_arm: Mutex<HashMap<Key, Arc<CompiledProgram>>>,
    /// Block-compiled replay descriptors for the synthesized FITS binary.
    compiled_fits: Mutex<HashMap<Key, Arc<CompiledProgram>>>,
    /// Optional stage-timing observer installed on every flow this cache
    /// builds (and notified of cached profiling runs). `None` leaves the
    /// pre-observability code paths untouched.
    flow_observer: Option<Arc<dyn FlowObserver>>,
    /// Synthesis options every flow this cache builds runs under. Flows
    /// are keyed by `(kernel, scale)` only, so one cache serves one synth
    /// configuration — sweeps that vary synthesis options use one
    /// `Artifacts` per option set (a `ScenarioMatrix` grid shares its base
    /// scenario's options, so the suite-level sweeps need just one).
    synth: Option<SynthOptions>,
    /// ISA spec catalog every artifact this cache builds resolves against.
    /// `None` (and the shipped catalog) use the static built-in tables; a
    /// user-supplied catalog compiles its own AR32 tables once, lazily.
    isa: Option<Arc<SpecCatalog>>,
    ar32_tables: std::sync::OnceLock<Result<Arc<Ar32Tables>, fits_isa::spec::SpecError>>,
}

impl std::fmt::Debug for Artifacts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Artifacts")
            .field("programs", &self.programs)
            .field("profiles", &self.profiles)
            .field("flows", &self.flows)
            .field("thumbs", &self.thumbs)
            .field("compiled_arm", &self.compiled_arm)
            .field("compiled_fits", &self.compiled_fits)
            .field(
                "flow_observer",
                &self.flow_observer.as_ref().map(|_| "<dyn>"),
            )
            .field("synth", &self.synth)
            .field("isa", &self.isa.as_ref().map(|c| c.hash_hex()))
            .finish()
    }
}

impl Artifacts {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Artifacts {
        Artifacts::default()
    }

    /// An empty cache whose flows report stage timings to `observer`.
    ///
    /// Only *computations* are observed: a cache hit returns the stored
    /// artifact without re-notifying, so span counts reflect work actually
    /// performed.
    #[must_use]
    pub fn with_flow_observer(mut self, observer: Arc<dyn FlowObserver>) -> Artifacts {
        self.flow_observer = Some(observer);
        self
    }

    /// An empty cache whose flows synthesize under `options` — how a
    /// scenario's [`SynthOptions`] (`ScenarioSpec::synth`) reach the FITS
    /// flow. Call before the first `flow()` lookup: flows are cached by
    /// `(kernel, scale)` under one option set per cache.
    #[must_use]
    pub fn with_synth(mut self, options: SynthOptions) -> Artifacts {
        self.synth = Some(options);
        self
    }

    /// An empty cache whose artifacts resolve against `isa` instead of the
    /// shipped spec catalog: profiles and replay descriptors encode the
    /// native binary through the catalog's AR32 tables, and flow outcomes
    /// carry its hash. Like [`Artifacts::with_synth`], one cache serves
    /// one catalog — callers with varying catalogs use an
    /// [`ArtifactsPool`].
    #[must_use]
    pub fn with_isa(mut self, isa: Arc<SpecCatalog>) -> Artifacts {
        self.isa = Some(isa);
        self
    }

    /// The AR32 tables this cache's artifacts are built with: the static
    /// built-ins unless a non-builtin catalog was installed, in which case
    /// the catalog's tables are compiled once and shared.
    fn tables(&self) -> Result<&Ar32Tables, ExperimentError> {
        let Some(catalog) = &self.isa else {
            return Ok(Ar32Tables::builtin());
        };
        if catalog.is_builtin() {
            return Ok(Ar32Tables::builtin());
        }
        self.ar32_tables
            .get_or_init(|| Ar32Tables::from_spec(&catalog.ar32).map(Arc::new))
            .as_deref()
            .map_err(|e| ExperimentError::Flow(FlowError::Spec(e.clone())))
    }

    /// The compiled native program.
    ///
    /// # Errors
    ///
    /// Propagates kernel compilation failures (unexpected for shipped
    /// kernels).
    pub fn program(&self, kernel: Kernel, scale: Scale) -> Result<Arc<Program>, ExperimentError> {
        get_or_compute(&self.programs, (kernel, scale.n), || {
            kernel.compile(scale).map_err(ExperimentError::Compile)
        })
    }

    /// The native instruction set under this cache's AR32 tables — the one
    /// way the cache loads the native binary, for lifting and recording.
    pub(crate) fn native_set(
        &self,
        kernel: Kernel,
        scale: Scale,
    ) -> Result<Ar32Set, ExperimentError> {
        let program = self.program(kernel, scale)?;
        Ok(Ar32Set::load_with(&program, self.tables()?))
    }

    /// The stage-1 profile of the native program (includes the reference
    /// functional run).
    ///
    /// # Errors
    ///
    /// Propagates compilation and simulation failures.
    pub fn profile(&self, kernel: Kernel, scale: Scale) -> Result<Arc<Profile>, ExperimentError> {
        self.profile_recorded(kernel, scale).map(|(prof, _)| prof)
    }

    /// [`Artifacts::profile`], also handing back the profiling run's
    /// recording when this call computed the profile (`None` on a cache
    /// hit). The recording prices the native binary without a second
    /// execution; it is never cached, and the lift it was made against
    /// seeds [`Artifacts::compiled_arm`].
    ///
    /// # Errors
    ///
    /// Propagates compilation and simulation failures.
    pub fn profile_recorded(
        &self,
        kernel: Kernel,
        scale: Scale,
    ) -> Result<(Arc<Profile>, Option<RecordedTrace>), ExperimentError> {
        let program = self.program(kernel, scale)?;
        let tables = self.tables()?;
        let key = (kernel, scale.n);
        get_or_compute_with(&self.profiles, key, || {
            let start = std::time::Instant::now();
            note_timed_execution();
            let (prof, compiled, trace) =
                profile_recorded(&program, tables).map_err(ExperimentError::Sim)?;
            // The flow below skips stage 1 (it consumes this cached
            // profile), so the profiling execution is reported here.
            if let Some(obs) = &self.flow_observer {
                obs.stage(FlowStage::Profile, start.elapsed());
            }
            seed(&self.compiled_arm, key, compiled);
            Ok((prof, trace))
        })
    }

    /// The accepted (and statically verified) flow outcome, built from the
    /// cached profile so the profiling execution happens once per
    /// `(kernel, scale)` no matter how many sweeps consume it.
    ///
    /// # Errors
    ///
    /// Propagates compilation, profiling and flow failures.
    pub fn flow(&self, kernel: Kernel, scale: Scale) -> Result<Arc<FlowOutcome>, ExperimentError> {
        self.flow_recorded(kernel, scale).map(|(flow, _)| flow)
    }

    /// [`Artifacts::flow`], also handing back the stage-5 equivalence
    /// recording of the FITS binary when this call computed the flow
    /// (`None` on a cache hit). Like [`Artifacts::profile_recorded`], the
    /// recording is never cached, and its lift seeds
    /// [`Artifacts::compiled_fits`].
    ///
    /// # Errors
    ///
    /// Propagates compilation, profiling and flow failures.
    pub fn flow_recorded(
        &self,
        kernel: Kernel,
        scale: Scale,
    ) -> Result<(Arc<FlowOutcome>, Option<RecordedTrace>), ExperimentError> {
        let program = self.program(kernel, scale)?;
        let prof = self.profile(kernel, scale)?;
        let key = (kernel, scale.n);
        let (flow, trace) = get_or_compute_with(&self.flows, key, || {
            let mut flow = fits_verify::verified_flow();
            if let Some(options) = self.synth.clone() {
                flow = flow.with_options(options);
            }
            if let Some(isa) = &self.isa {
                flow.isa = Arc::clone(isa);
            }
            if let Some(obs) = &self.flow_observer {
                flow = flow.with_observer(Arc::clone(obs));
            }
            let (outcome, recording) = flow
                .run_profiled_recorded(&program, (*prof).clone())
                .map_err(ExperimentError::Flow)?;
            let trace = recording.map(|(compiled, trace)| {
                note_timed_execution();
                seed(&self.compiled_fits, key, compiled);
                trace
            });
            Ok((outcome, trace))
        })?;
        Ok((flow, trace.flatten()))
    }

    /// The block-compiled replay descriptor for the native program — basic
    /// blocks, per-op step templates and pre-resolved successors, shared by
    /// every sweep that records or replays the kernel's AR32 binary.
    ///
    /// # Errors
    ///
    /// Propagates compilation and block-lifting failures.
    pub fn compiled_arm(
        &self,
        kernel: Kernel,
        scale: Scale,
    ) -> Result<Arc<CompiledProgram>, ExperimentError> {
        get_or_compute(&self.compiled_arm, (kernel, scale.n), || {
            CompiledProgram::compile(&self.native_set(kernel, scale)?).map_err(ExperimentError::Sim)
        })
    }

    /// The block-compiled replay descriptor for the synthesized FITS
    /// binary (built from the cached flow outcome).
    ///
    /// # Errors
    ///
    /// Propagates flow, decode and block-lifting failures.
    pub fn compiled_fits(
        &self,
        kernel: Kernel,
        scale: Scale,
    ) -> Result<Arc<CompiledProgram>, ExperimentError> {
        let flow = self.flow(kernel, scale)?;
        get_or_compute(&self.compiled_fits, (kernel, scale.n), || {
            let set = FitsSet::load(&flow.fits).map_err(ExperimentError::Decode)?;
            CompiledProgram::compile(&set).map_err(ExperimentError::Sim)
        })
    }

    /// The T16 (Thumb-like) translation of the 8-register recompilation —
    /// the Figure-5 code-size baseline.
    ///
    /// # Errors
    ///
    /// Propagates compilation failures.
    pub fn thumb(&self, kernel: Kernel, scale: Scale) -> Result<Arc<T16Program>, ExperimentError> {
        get_or_compute(&self.thumbs, (kernel, scale.n), || {
            let thumb_program =
                fits_kernels::codegen::compile_with_regs(&kernel.build_module(scale), &THUMB_REGS)
                    .map_err(ExperimentError::Compile)?;
            Ok(thumb::translate(&thumb_program))
        })
    }
}

/// A canonical, order-stable text key for a synthesis option set — the
/// piece of an [`ArtifactsPool`] (and of a `fitsd` request hash) that
/// captures "same flow configuration". Two option sets with equal keys
/// produce identical flows.
#[must_use]
pub fn synth_key(options: &SynthOptions) -> String {
    format!(
        "toggle:{},reg:{},space:{:.6},dict:{}",
        u8::from(options.toggle_aware),
        options.reg_bits,
        options.space_budget,
        options.max_dict_bits,
    )
}

/// A pool of [`Artifacts`] caches, one per synthesis configuration.
///
/// One `Artifacts` is keyed by `(kernel, scale)` under a *single* synth
/// option set; a long-lived server seeing requests with varying options
/// needs one cache per distinct set. The pool interns caches by
/// [`synth_key`], so concurrent requests with equal options share every
/// compiled program, profile, flow and THUMB translation.
#[derive(Default)]
pub struct ArtifactsPool {
    slots: Mutex<HashMap<String, Arc<Artifacts>>>,
    /// Observer installed on every cache this pool creates — how a host
    /// (the `fitsd` daemon) sees engine-stage timings for pool-served
    /// work regardless of which synth configuration a request lands on.
    flow_observer: Option<Arc<dyn FlowObserver>>,
}

impl std::fmt::Debug for ArtifactsPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactsPool")
            .field("slots", &self.slots)
            .field(
                "flow_observer",
                &self.flow_observer.as_ref().map(|_| "<dyn>"),
            )
            .finish()
    }
}

impl ArtifactsPool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> ArtifactsPool {
        ArtifactsPool::default()
    }

    /// An empty pool whose caches report stage timings to `observer`
    /// (see [`Artifacts::with_flow_observer`]). Install before the first
    /// [`ArtifactsPool::for_synth`] lookup — already-interned caches keep
    /// the observer they were created with.
    #[must_use]
    pub fn with_flow_observer(mut self, observer: Arc<dyn FlowObserver>) -> ArtifactsPool {
        self.flow_observer = Some(observer);
        self
    }

    /// The shared cache for `options`, created (configured with
    /// [`Artifacts::with_synth`]) on first use.
    #[must_use]
    pub fn for_synth(&self, options: &SynthOptions) -> Arc<Artifacts> {
        self.for_config(options, None)
    }

    /// The shared cache for `(options, isa)`. The slot key combines
    /// [`synth_key`] with the catalog's content hash, so requests that
    /// resolve against different machine descriptions never share
    /// artifacts even when their synthesis options agree. `None` (and the
    /// shipped catalog, which hashes identically) lands on the built-in
    /// slot.
    #[must_use]
    pub fn for_config(
        &self,
        options: &SynthOptions,
        isa: Option<&Arc<SpecCatalog>>,
    ) -> Arc<Artifacts> {
        let mut key = synth_key(options);
        if let Some(catalog) = isa {
            key.push_str("|isa=");
            key.push_str(&catalog.hash_hex());
        } else {
            key.push_str("|isa=");
            key.push_str(&SpecCatalog::default().hash_hex());
        }
        let mut slots = locked(&self.slots);
        Arc::clone(slots.entry(key).or_insert_with(|| {
            let mut arts = Artifacts::new().with_synth(options.clone());
            if let Some(catalog) = isa {
                arts = arts.with_isa(Arc::clone(catalog));
            }
            if let Some(obs) = &self.flow_observer {
                arts = arts.with_flow_observer(Arc::clone(obs));
            }
            Arc::new(arts)
        }))
    }

    /// Number of distinct synthesis configurations seen so far.
    #[must_use]
    pub fn len(&self) -> usize {
        locked(&self.slots).len()
    }

    /// Whether no configuration has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_are_cached_and_shared() {
        let arts = Artifacts::new();
        let a = arts.program(Kernel::Crc32, Scale::test()).unwrap();
        let b = arts.program(Kernel::Crc32, Scale::test()).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        let f1 = arts.flow(Kernel::Crc32, Scale::test()).unwrap();
        let f2 = arts.flow(Kernel::Crc32, Scale::test()).unwrap();
        assert!(Arc::ptr_eq(&f1, &f2));
        // The flow consumed the cached profile, not a fresh one.
        let p = arts.profile(Kernel::Crc32, Scale::test()).unwrap();
        assert_eq!(f1.profile.dyn_total, p.dyn_total);
    }

    #[test]
    fn scenario_synth_options_reach_the_flow() {
        // A scenario with a narrower dictionary must change the synthesized
        // ISA (ablation A1's effect), proving the options are not dropped
        // on the way to the flow.
        let spec = fits_scenario::ScenarioSpec::sa1100();
        let default_flow = Artifacts::new()
            .with_synth(spec.synth.clone())
            .flow(Kernel::Sha, Scale::test())
            .unwrap();
        let narrow = SynthOptions {
            max_dict_bits: 0,
            ..spec.synth
        };
        let narrow_flow = Artifacts::new()
            .with_synth(narrow)
            .flow(Kernel::Sha, Scale::test())
            .unwrap();
        assert!(
            narrow_flow.dynamic_rate() < default_flow.dynamic_rate(),
            "a zero-width dictionary must hurt the dynamic mapping rate              ({} vs {})",
            narrow_flow.dynamic_rate(),
            default_flow.dynamic_rate()
        );
    }

    #[test]
    fn pool_interns_caches_by_synth_options() {
        let pool = ArtifactsPool::new();
        let a = pool.for_synth(&SynthOptions::default());
        let b = pool.for_synth(&SynthOptions::default());
        assert!(Arc::ptr_eq(&a, &b), "equal options share one cache");
        let narrow = SynthOptions {
            max_dict_bits: 2,
            ..SynthOptions::default()
        };
        let c = pool.for_synth(&narrow);
        assert!(!Arc::ptr_eq(&a, &c), "distinct options get distinct caches");
        assert_eq!(pool.len(), 2);
        assert_ne!(
            synth_key(&SynthOptions::default()),
            synth_key(&narrow),
            "keys must separate the configurations"
        );
    }

    #[test]
    fn pool_observer_reaches_created_caches() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        #[derive(Default)]
        struct Count(AtomicUsize);
        impl FlowObserver for Count {
            fn stage(&self, _stage: FlowStage, _wall: std::time::Duration) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }

        let counter = Arc::new(Count::default());
        let pool =
            ArtifactsPool::new().with_flow_observer(Arc::clone(&counter) as Arc<dyn FlowObserver>);
        let arts = pool.for_synth(&SynthOptions::default());
        arts.profile(Kernel::Crc32, Scale::test()).unwrap();
        assert_eq!(counter.0.load(Ordering::Relaxed), 1, "profile observed");
        // A cache hit must not re-notify.
        arts.profile(Kernel::Crc32, Scale::test()).unwrap();
        assert_eq!(counter.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pool_separates_catalogs_by_content_hash() {
        use fits_isa::spec::{IsaSpec, AR32_SPEC_TEXT};

        let pool = ArtifactsPool::new();
        let builtin_slot = pool.for_synth(&SynthOptions::default());
        // The shipped catalog hashes identically to the default slot.
        let shipped = Arc::new(SpecCatalog::default());
        let same = pool.for_config(&SynthOptions::default(), Some(&shipped));
        assert!(Arc::ptr_eq(&builtin_slot, &same));
        // A content-different (but semantically equivalent) spec gets its
        // own slot.
        let respelled = IsaSpec::load(&AR32_SPEC_TEXT.replace(
            "# --- branches and traps ---",
            "# --- branches and traps (respelled) ---",
        ))
        .unwrap();
        let custom = Arc::new(SpecCatalog {
            ar32: Arc::new(respelled),
            ..SpecCatalog::default()
        });
        let other = pool.for_config(&SynthOptions::default(), Some(&custom));
        assert!(!Arc::ptr_eq(&builtin_slot, &other));
        assert_eq!(pool.len(), 2);
        // The custom cache's flows carry the catalog's hash.
        let flow = other.flow(Kernel::Crc32, Scale::test()).unwrap();
        assert_eq!(flow.isa_hash, custom.hash_hex());
        let builtin_flow = builtin_slot.flow(Kernel::Crc32, Scale::test()).unwrap();
        assert_ne!(flow.isa_hash, builtin_flow.isa_hash);
        // Same machine description, different spelling: identical results.
        assert_eq!(flow.profile.dyn_total, builtin_flow.profile.dyn_total);
        assert_eq!(flow.fits.instrs, builtin_flow.fits.instrs);
    }

    #[test]
    fn distinct_scales_are_distinct_entries() {
        let arts = Artifacts::new();
        let a = arts.program(Kernel::Crc32, Scale { n: 64 }).unwrap();
        let b = arts.program(Kernel::Crc32, Scale { n: 96 }).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
    }
}
