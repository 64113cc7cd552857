//! # fits-scenario — the machine-description plane
//!
//! The paper reports every number against one machine point: the SA-1100's
//! 16 KB / 32-way / 32-byte-line I-cache at a 0.35 µm node. That point used
//! to be baked into the codebase as constants; this crate lifts it into
//! data. A [`ScenarioSpec`] bundles everything that defines one simulated
//! machine — I-cache and D-cache geometry, timing-model latencies, the
//! technology node's energy/leakage calibration, and the synthesis options
//! the FITS flow should use — behind validated constructors: user-supplied
//! geometry produces typed [`ScenarioError`]s, never panics.
//!
//! A [`ScenarioMatrix`] is the sweep product of a base scenario with a
//! cache-size axis and a tech-node axis. The bench harness replays one
//! functional execution per ISA into every geometry of the matrix (the
//! execute-once/replay-many engine), then prices each point under its own
//! tech node — so asking "does the 16-bit ISA still win at 4 KB
//! direct-mapped, at 65 nm leakage ratios?" costs no extra executions.
//!
//! Named presets:
//!
//! * [`ScenarioSpec::sa1100`] — the paper's machine, bit-identical to the
//!   pre-scenario hard-coded path (proved by `fits-bench`'s differential
//!   test);
//! * [`ScenarioSpec::small_embedded`] — a 4 KB direct-mapped I-cache with
//!   16-byte lines, the cost-down microcontroller end of the spectrum;
//! * [`ScenarioSpec::modern_node`] — SA-1100 geometry priced at a 65 nm,
//!   leakage-dominated node.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::fmt;

use fits_core::SynthOptions;
use fits_isa::spec::excerpt;
use fits_power::TechParams;
use fits_sim::{validate_geometry, CacheConfig, GeometryError, Replacement, Sa1100Config};

/// Why a scenario could not be constructed. Names and ids come from
/// callers and may be untrusted, so the Display quotes them through
/// [`excerpt`]: a message stays small however long the name was.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// A cache geometry is invalid.
    Geometry {
        /// Which cache (`"icache"` / `"dcache"`).
        cache: &'static str,
        /// The typed geometry failure.
        error: GeometryError,
    },
    /// The scenario id is empty or contains characters outside
    /// `[a-z0-9.-]` (ids key trace files and JSON rows, so they stay
    /// filesystem- and JSON-safe by construction).
    BadId {
        /// The offending id.
        id: String,
    },
    /// A sweep axis was empty.
    EmptyAxis {
        /// Which axis (`"icache sizes"` / `"tech nodes"`).
        axis: &'static str,
    },
    /// One point of a [`ScenarioMatrix::grid`] has an invalid I-cache
    /// geometry — carries the grid coordinates so a bad sweep axis fails
    /// fast at matrix construction, naming the offending point instead of
    /// surfacing a bare geometry error deep inside a sweep.
    GridPoint {
        /// The tech-node name of the failing point.
        tech: String,
        /// The requested I-cache capacity in bytes.
        icache_bytes: u32,
        /// The typed geometry failure.
        error: GeometryError,
    },
    /// A preset name was not one of [`PRESET_NAMES`].
    UnknownPreset {
        /// The offending name.
        name: String,
    },
    /// A tech-node name was not one of [`TECH_NAMES`].
    UnknownTech {
        /// The offending name.
        name: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Geometry { cache, error } => write!(f, "{cache}: {error}"),
            ScenarioError::BadId { id } => {
                write!(
                    f,
                    "bad scenario id {:?} (need non-empty [a-z0-9.-])",
                    excerpt(id)
                )
            }
            ScenarioError::EmptyAxis { axis } => write!(f, "sweep axis {axis} is empty"),
            ScenarioError::GridPoint {
                tech,
                icache_bytes,
                error,
            } => write!(
                f,
                "grid point (tech {tech}, icache {icache_bytes} B): {error}"
            ),
            ScenarioError::UnknownPreset { name } => write!(
                f,
                "unknown scenario preset {:?} (presets: {})",
                excerpt(name),
                PRESET_NAMES.join(" ")
            ),
            ScenarioError::UnknownTech { name } => write!(
                f,
                "unknown tech node {:?} (nodes: {})",
                excerpt(name),
                TECH_NAMES.join(" ")
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<GeometryError> for ScenarioError {
    fn from(error: GeometryError) -> Self {
        ScenarioError::Geometry {
            cache: "icache",
            error,
        }
    }
}

/// Core-latency and clock parameters of the simulated machine — everything
/// in [`Sa1100Config`] except the cache geometries.
#[derive(Clone, Debug, PartialEq)]
pub struct TimingSpec {
    /// Cycles stalled on an I-cache miss.
    pub icache_miss_penalty: u64,
    /// Cycles stalled on a D-cache miss.
    pub dcache_miss_penalty: u64,
    /// Extra cycles occupied by a multiply.
    pub mul_extra_cycles: u64,
    /// Redirect bubble for a correctly-predicted taken branch.
    pub taken_branch_penalty: u64,
    /// Flush penalty for a mispredicted branch.
    pub mispredict_penalty: u64,
    /// Core clock in Hz.
    pub freq_hz: f64,
}

impl Default for TimingSpec {
    /// The SA-1100 latencies at 200 MHz (the paper's §5 machine).
    fn default() -> Self {
        TimingSpec {
            icache_miss_penalty: 24,
            dcache_miss_penalty: 24,
            mul_extra_cycles: 2,
            taken_branch_penalty: 1,
            mispredict_penalty: 3,
            freq_hz: 200.0e6,
        }
    }
}

/// One fully-described machine point: cache geometries, core latencies,
/// technology calibration and synthesis options, under a stable id.
///
/// Construction is validating: both geometries pass
/// [`fits_sim::validate_geometry`] and the id is checked, so any
/// `ScenarioSpec` value can be fed to the simulator without a panic path.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    id: String,
    /// Instruction-cache geometry (the sweeps' primary variable).
    pub icache: CacheConfig,
    /// Data-cache geometry.
    pub dcache: CacheConfig,
    /// Core latencies and clock.
    pub timing: TimingSpec,
    /// Technology-node calibration used to price this scenario's activity.
    pub tech: TechParams,
    /// The tech node's short name (`"sa1100"`, `"65nm"`), part of derived
    /// sweep ids.
    pub tech_name: String,
    /// Synthesis options the FITS flow uses under this scenario.
    pub synth: SynthOptions,
}

fn valid_id(id: &str) -> bool {
    !id.is_empty()
        && id
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '.')
}

/// A human-friendly size label: `"16k"` for multiples of 1024, raw bytes
/// otherwise.
fn size_label(bytes: u32) -> String {
    if bytes >= 1024 && bytes.is_multiple_of(1024) {
        format!("{}k", bytes / 1024)
    } else {
        format!("{bytes}b")
    }
}

impl ScenarioSpec {
    /// Builds a validated scenario.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Geometry`] when either cache geometry is invalid,
    /// [`ScenarioError::BadId`] when the id is empty or uses characters
    /// outside `[a-z0-9.-]`.
    pub fn new(
        id: &str,
        icache: CacheConfig,
        dcache: CacheConfig,
        timing: TimingSpec,
        tech: TechParams,
        tech_name: &str,
        synth: SynthOptions,
    ) -> Result<ScenarioSpec, ScenarioError> {
        if !valid_id(id) {
            return Err(ScenarioError::BadId { id: id.to_string() });
        }
        validate_geometry(&icache).map_err(|error| ScenarioError::Geometry {
            cache: "icache",
            error,
        })?;
        validate_geometry(&dcache).map_err(|error| ScenarioError::Geometry {
            cache: "dcache",
            error,
        })?;
        Ok(ScenarioSpec {
            id: id.to_string(),
            icache,
            dcache,
            timing,
            tech,
            tech_name: tech_name.to_string(),
            synth,
        })
    }

    /// The paper's machine: SA-1100 caches, latencies and 0.35 µm
    /// calibration. The repro's four configurations (ARM16/ARM8/FITS16/
    /// FITS8) are this scenario and its 8 KB resize.
    #[must_use]
    pub fn sa1100() -> ScenarioSpec {
        ScenarioSpec {
            id: "sa1100-i16k".to_string(),
            icache: CacheConfig::sa1100_icache(),
            dcache: CacheConfig::sa1100_dcache(),
            timing: TimingSpec::default(),
            tech: TechParams::sa1100(),
            tech_name: "sa1100".to_string(),
            synth: SynthOptions::default(),
        }
    }

    /// A cost-down embedded point: 4 KB direct-mapped I-cache and 4 KB
    /// 2-way D-cache with 16-byte lines, SA-1100 latencies and node. The
    /// "does the 16-bit ISA still win at 4 KB direct-mapped?" question.
    #[must_use]
    pub fn small_embedded() -> ScenarioSpec {
        let mut spec = ScenarioSpec::sa1100();
        spec.id = "small-embedded".to_string();
        spec.icache = CacheConfig {
            name: "icache".to_string(),
            size_bytes: 4 * 1024,
            ways: 1,
            line_bytes: 16,
            replacement: Replacement::Lru,
        };
        spec.dcache = CacheConfig {
            name: "dcache".to_string(),
            size_bytes: 4 * 1024,
            ways: 2,
            line_bytes: 16,
            replacement: Replacement::Lru,
        };
        spec
    }

    /// The SA-1100 geometry priced at a 65 nm, leakage-dominated node
    /// ([`TechParams::modern_65nm`]), clocked at that node's 600 MHz.
    #[must_use]
    pub fn modern_node() -> ScenarioSpec {
        let mut spec = ScenarioSpec::sa1100();
        let tech = TechParams::modern_65nm();
        spec.id = "modern-node".to_string();
        spec.timing.freq_hz = tech.freq_hz;
        spec.tech = tech;
        spec.tech_name = "65nm".to_string();
        spec
    }

    /// Looks a preset up by name (see [`PRESET_NAMES`]).
    #[must_use]
    pub fn preset(name: &str) -> Option<ScenarioSpec> {
        match name {
            "sa1100" => Some(ScenarioSpec::sa1100()),
            "small-embedded" => Some(ScenarioSpec::small_embedded()),
            "modern-node" => Some(ScenarioSpec::modern_node()),
            _ => None,
        }
    }

    /// The scenario's stable id.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// A copy with the I-cache resized and the id re-derived as
    /// `{tech_name}-i{size}`.
    ///
    /// # Errors
    ///
    /// The [`GeometryError`] of the invalid resize.
    pub fn with_icache_bytes(&self, bytes: u32) -> Result<ScenarioSpec, GeometryError> {
        let mut spec = self.clone();
        spec.icache = self.icache.resized(bytes)?;
        spec.id = format!("{}-i{}", spec.tech_name, size_label(bytes));
        Ok(spec)
    }

    /// A copy re-priced under another tech node, with the id re-derived.
    /// The core clock follows the node (`tech.freq_hz`).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::BadId`] when `tech_name` is not id-safe.
    pub fn with_tech(
        &self,
        tech_name: &str,
        tech: TechParams,
    ) -> Result<ScenarioSpec, ScenarioError> {
        if !valid_id(tech_name) {
            return Err(ScenarioError::BadId {
                id: tech_name.to_string(),
            });
        }
        let mut spec = self.clone();
        spec.id = format!("{}-i{}", tech_name, size_label(spec.icache.size_bytes));
        spec.timing.freq_hz = tech.freq_hz;
        spec.tech = tech;
        spec.tech_name = tech_name.to_string();
        Ok(spec)
    }

    /// The simulator configuration this scenario describes. Two scenarios
    /// with equal machine configs (same geometries and timing) can share
    /// one timing replay; only the power pricing differs.
    #[must_use]
    pub fn machine_config(&self) -> Sa1100Config {
        Sa1100Config {
            icache: self.icache.clone(),
            dcache: self.dcache.clone(),
            icache_miss_penalty: self.timing.icache_miss_penalty,
            dcache_miss_penalty: self.timing.dcache_miss_penalty,
            mul_extra_cycles: self.timing.mul_extra_cycles,
            taken_branch_penalty: self.timing.taken_branch_penalty,
            mispredict_penalty: self.timing.mispredict_penalty,
            freq_hz: self.timing.freq_hz,
        }
    }

    /// Whether `other` simulates on the same machine (equal geometries and
    /// timing) — the sharing test behind execute-once/replay-many sweeps.
    #[must_use]
    pub fn same_machine(&self, other: &ScenarioSpec) -> bool {
        self.icache == other.icache && self.dcache == other.dcache && self.timing == other.timing
    }

    /// The I-cache geometry as abstract-interpretation parameters. A
    /// scenario's geometry is validated at construction, so this cannot
    /// fail.
    #[must_use]
    pub fn icache_abstract(&self) -> AbstractCacheParams {
        AbstractCacheParams {
            sets: self.icache.sets(),
            ways: self.icache.ways,
            line_bytes: self.icache.line_bytes,
            policy: self.icache.replacement,
        }
    }

    /// Resolves a *request* — a preset name plus optional I-cache resize
    /// and tech-node override — into a validated scenario. This is how a
    /// serialized request (a `fitsd` body, a CLI flag pair) names a point
    /// on the plane without carrying raw geometry: every reachable spec
    /// went through the same validation as the presets.
    ///
    /// Overrides apply tech-first, then the resize, matching
    /// [`ScenarioMatrix::grid`] ordering.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::UnknownPreset`] / [`ScenarioError::UnknownTech`]
    /// for names off the plane, or the underlying geometry error for an
    /// impossible resize.
    pub fn resolve(
        preset: &str,
        tech: Option<&str>,
        icache_bytes: Option<u32>,
    ) -> Result<ScenarioSpec, ScenarioError> {
        let mut spec =
            ScenarioSpec::preset(preset).ok_or_else(|| ScenarioError::UnknownPreset {
                name: preset.to_string(),
            })?;
        if let Some(name) = tech {
            let params = tech_preset(name).ok_or_else(|| ScenarioError::UnknownTech {
                name: name.to_string(),
            })?;
            spec = spec.with_tech(name, params)?;
        }
        if let Some(bytes) = icache_bytes {
            spec = spec.with_icache_bytes(bytes)?;
        }
        Ok(spec)
    }
}

/// Cache geometry in the shape a static cache analysis consumes: set
/// count, associativity, line size and the replacement policy that picks
/// the abstract transfer function. Extracted from a validated
/// [`CacheConfig`] so the analysis never re-derives (or mis-derives)
/// geometry arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AbstractCacheParams {
    /// Number of sets (power of two).
    pub sets: u32,
    /// Associativity (lines per set).
    pub ways: u32,
    /// Line size in bytes (power of two, word-multiple).
    pub line_bytes: u32,
    /// Replacement policy — decides which must-domain transfer is sound.
    pub policy: Replacement,
}

impl AbstractCacheParams {
    /// Extracts analysis parameters from a cache configuration, validating
    /// the geometry first.
    ///
    /// # Errors
    ///
    /// The [`GeometryError`] of an invalid configuration.
    pub fn from_config(cfg: &CacheConfig) -> Result<AbstractCacheParams, GeometryError> {
        validate_geometry(cfg)?;
        Ok(AbstractCacheParams {
            sets: cfg.sets(),
            ways: cfg.ways,
            line_bytes: cfg.line_bytes,
            policy: cfg.replacement,
        })
    }

    /// Whether these parameters describe the same machine as `cfg` — the
    /// guard a sound analysis must pass before its classifications can be
    /// compared against that machine's traces.
    #[must_use]
    pub fn matches(&self, cfg: &CacheConfig) -> bool {
        self.sets == cfg.sets()
            && self.ways == cfg.ways
            && self.line_bytes == cfg.line_bytes
            && self.policy == cfg.replacement
    }

    /// The set index of a byte address under this geometry (the same
    /// mapping the simulator and the observability histograms use).
    #[must_use]
    pub fn set_of(&self, addr: u32) -> u32 {
        (addr / self.line_bytes) % self.sets
    }

    /// The line (block) address of a byte address: the address with the
    /// line offset stripped.
    #[must_use]
    pub fn line_of(&self, addr: u32) -> u32 {
        addr / self.line_bytes
    }

    /// Total lines in the cache.
    #[must_use]
    pub fn lines(&self) -> u32 {
        self.sets * self.ways
    }
}

/// All tech-node names accepted by [`tech_preset`].
pub const TECH_NAMES: [&str; 2] = ["sa1100", "65nm"];

/// Looks a named technology node up (see [`TECH_NAMES`]).
#[must_use]
pub fn tech_preset(name: &str) -> Option<TechParams> {
    match name {
        "sa1100" => Some(TechParams::sa1100()),
        "65nm" => Some(TechParams::modern_65nm()),
        _ => None,
    }
}

/// All preset names accepted by [`ScenarioSpec::preset`].
pub const PRESET_NAMES: [&str; 3] = ["sa1100", "small-embedded", "modern-node"];

/// A validated list of scenarios — usually the product of a cache-size
/// axis and a tech-node axis over one base scenario.
#[derive(Clone, Debug)]
pub struct ScenarioMatrix {
    /// The scenarios, tech-major (all sizes of the first node, then the
    /// next node).
    pub scenarios: Vec<ScenarioSpec>,
}

impl ScenarioMatrix {
    /// Builds the `tech × size` grid over `base`. Every point keeps the
    /// base D-cache, latencies and synthesis options; the I-cache capacity
    /// and the tech node vary. Ids follow `{tech}-i{size}`.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::EmptyAxis`] for an empty axis,
    /// [`ScenarioError::GridPoint`] naming the grid coordinates of the
    /// first invalid I-cache resize, or any id/tech failure of the base.
    pub fn grid(
        base: &ScenarioSpec,
        icache_sizes: &[u32],
        tech_nodes: &[(String, TechParams)],
    ) -> Result<ScenarioMatrix, ScenarioError> {
        if icache_sizes.is_empty() {
            return Err(ScenarioError::EmptyAxis {
                axis: "icache sizes",
            });
        }
        if tech_nodes.is_empty() {
            return Err(ScenarioError::EmptyAxis { axis: "tech nodes" });
        }
        let mut scenarios = Vec::with_capacity(icache_sizes.len() * tech_nodes.len());
        for (name, tech) in tech_nodes {
            let node_base = base.with_tech(name, tech.clone())?;
            for &bytes in icache_sizes {
                let spec = node_base.with_icache_bytes(bytes).map_err(|error| {
                    ScenarioError::GridPoint {
                        tech: name.clone(),
                        icache_bytes: bytes,
                        error,
                    }
                })?;
                scenarios.push(spec);
            }
        }
        Ok(ScenarioMatrix { scenarios })
    }

    /// The distinct machine configurations of the matrix, with a map from
    /// scenario index to machine index — tech nodes share timing replays.
    #[must_use]
    pub fn machines(&self) -> (Vec<Sa1100Config>, Vec<usize>) {
        let mut reps: Vec<&ScenarioSpec> = Vec::new();
        let mut machines = Vec::new();
        let mut index = Vec::with_capacity(self.scenarios.len());
        for spec in &self.scenarios {
            match reps.iter().position(|r| r.same_machine(spec)) {
                Some(i) => index.push(i),
                None => {
                    index.push(reps.len());
                    reps.push(spec);
                    machines.push(spec.machine_config());
                }
            }
        }
        (machines, index)
    }

    /// Number of scenarios.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the matrix is empty (never true for [`ScenarioMatrix::grid`]
    /// results).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_and_have_stable_ids() {
        for name in PRESET_NAMES {
            let spec = ScenarioSpec::preset(name).unwrap();
            assert!(valid_id(spec.id()), "{name}: id {:?}", spec.id());
            validate_geometry(&spec.icache).unwrap();
            validate_geometry(&spec.dcache).unwrap();
        }
        assert!(ScenarioSpec::preset("sa1101").is_none());
        assert_eq!(ScenarioSpec::sa1100().id(), "sa1100-i16k");
    }

    #[test]
    fn abstract_params_mirror_the_geometry() {
        for name in PRESET_NAMES {
            let spec = ScenarioSpec::preset(name).unwrap();
            let params = spec.icache_abstract();
            assert!(params.matches(&spec.icache), "{name}");
            assert_eq!(
                params,
                AbstractCacheParams::from_config(&spec.icache).unwrap()
            );
            assert_eq!(params.lines(), params.sets * params.ways);
            // Set mapping agrees with the simulator's (addr / line) % sets.
            let addr = 0x8000_0040;
            assert_eq!(
                params.set_of(addr),
                (addr / spec.icache.line_bytes) % spec.icache.sets()
            );
            assert_eq!(params.line_of(addr), addr / spec.icache.line_bytes);
        }
        let mut bad = CacheConfig::sa1100_icache();
        bad.ways = 0;
        assert!(matches!(
            AbstractCacheParams::from_config(&bad),
            Err(GeometryError::ZeroWays)
        ));
        let params = ScenarioSpec::sa1100().icache_abstract();
        assert!(!params.matches(&ScenarioSpec::small_embedded().icache));
    }

    #[test]
    fn sa1100_preset_matches_the_hardcoded_machine() {
        let spec = ScenarioSpec::sa1100();
        let m = spec.machine_config();
        let hard = Sa1100Config::icache_16k();
        assert_eq!(m.icache, hard.icache);
        assert_eq!(m.dcache, hard.dcache);
        assert_eq!(m.icache_miss_penalty, hard.icache_miss_penalty);
        assert_eq!(m.dcache_miss_penalty, hard.dcache_miss_penalty);
        assert_eq!(m.mul_extra_cycles, hard.mul_extra_cycles);
        assert_eq!(m.taken_branch_penalty, hard.taken_branch_penalty);
        assert_eq!(m.mispredict_penalty, hard.mispredict_penalty);
        assert!((m.freq_hz - hard.freq_hz).abs() < f64::EPSILON);
    }

    #[test]
    fn bad_inputs_are_typed_errors_not_panics() {
        let base = ScenarioSpec::sa1100();
        // 1000 bytes does not divide into 32 ways of 32-byte lines.
        assert!(matches!(
            base.with_icache_bytes(1000),
            Err(GeometryError::NotDivisible { .. })
        ));
        // 3 KB gives 3 sets.
        assert!(matches!(
            base.with_icache_bytes(3 * 1024),
            Err(GeometryError::SetsNotPowerOfTwo { sets: 3 })
        ));
        let mut bad = CacheConfig::sa1100_icache();
        bad.line_bytes = 24;
        assert!(matches!(
            ScenarioSpec::new(
                "x",
                bad,
                CacheConfig::sa1100_dcache(),
                TimingSpec::default(),
                TechParams::sa1100(),
                "sa1100",
                SynthOptions::default(),
            ),
            Err(ScenarioError::Geometry {
                cache: "icache",
                error: GeometryError::BadLineSize { line_bytes: 24 }
            })
        ));
        assert!(matches!(
            base.with_tech("Bad Name", TechParams::sa1100()),
            Err(ScenarioError::BadId { .. })
        ));
    }

    #[test]
    fn grid_names_the_failing_point() {
        let base = ScenarioSpec::sa1100();
        let nodes = vec![
            ("sa1100".to_string(), TechParams::sa1100()),
            ("65nm".to_string(), TechParams::modern_65nm()),
        ];
        // The bad size sits on the *second* tech node so the error must
        // carry the right coordinates, not just the first axis entry.
        let err = ScenarioMatrix::grid(&base, &[16 * 1024, 3 * 1024], &nodes)
            .expect_err("3 KB gives 3 sets");
        assert_eq!(
            err,
            ScenarioError::GridPoint {
                tech: "sa1100".to_string(),
                icache_bytes: 3 * 1024,
                error: GeometryError::SetsNotPowerOfTwo { sets: 3 },
            }
        );
        let msg = err.to_string();
        assert!(
            msg.contains("sa1100") && msg.contains("3072"),
            "coordinates must be printable: {msg}"
        );
    }

    #[test]
    fn grid_builds_the_cross_product_and_shares_machines_per_size() {
        let base = ScenarioSpec::sa1100();
        let sizes = [16 * 1024, 8 * 1024, 4 * 1024];
        let nodes = [
            ("sa1100".to_string(), TechParams::sa1100()),
            ("65nm".to_string(), TechParams::modern_65nm()),
        ];
        let matrix = ScenarioMatrix::grid(&base, &sizes, &nodes).unwrap();
        assert_eq!(matrix.len(), 6);
        let ids: Vec<&str> = matrix.scenarios.iter().map(ScenarioSpec::id).collect();
        assert_eq!(
            ids,
            [
                "sa1100-i16k",
                "sa1100-i8k",
                "sa1100-i4k",
                "65nm-i16k",
                "65nm-i8k",
                "65nm-i4k"
            ]
        );
        // The two nodes run at different clocks here, so machines are not
        // shared across nodes — but a same-clock re-pricing would share.
        let (machines, index) = matrix.machines();
        assert_eq!(machines.len(), 6);
        assert_eq!(index, [0, 1, 2, 3, 4, 5]);

        let same_clock = [
            ("a".to_string(), TechParams::sa1100()),
            ("b".to_string(), {
                let mut t = TechParams::modern_65nm();
                t.freq_hz = TechParams::sa1100().freq_hz;
                t
            }),
        ];
        let matrix = ScenarioMatrix::grid(&base, &sizes, &same_clock).unwrap();
        let (machines, index) = matrix.machines();
        assert_eq!(machines.len(), 3, "same machine, different pricing");
        assert_eq!(index, [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn empty_axes_are_rejected() {
        let base = ScenarioSpec::sa1100();
        assert!(matches!(
            ScenarioMatrix::grid(&base, &[], &[("sa1100".to_string(), TechParams::sa1100())]),
            Err(ScenarioError::EmptyAxis { .. })
        ));
        assert!(matches!(
            ScenarioMatrix::grid(&base, &[16 * 1024], &[]),
            Err(ScenarioError::EmptyAxis { .. })
        ));
    }

    #[test]
    fn resolve_composes_preset_tech_and_resize() {
        let plain = ScenarioSpec::resolve("sa1100", None, None).unwrap();
        assert_eq!(plain.id(), "sa1100-i16k");
        let repriced = ScenarioSpec::resolve("sa1100", Some("65nm"), Some(8 * 1024)).unwrap();
        assert_eq!(repriced.id(), "65nm-i8k");
        assert_eq!(repriced.icache.size_bytes, 8 * 1024);
        assert!((repriced.timing.freq_hz - TechParams::modern_65nm().freq_hz).abs() < 1.0);
        // small-embedded keeps its distinct D-cache through a resize.
        let small = ScenarioSpec::resolve("small-embedded", None, Some(8 * 1024)).unwrap();
        assert_eq!(small.dcache.line_bytes, 16);

        assert!(matches!(
            ScenarioSpec::resolve("sa1101", None, None),
            Err(ScenarioError::UnknownPreset { .. })
        ));
        assert!(matches!(
            ScenarioSpec::resolve("sa1100", Some("7nm"), None),
            Err(ScenarioError::UnknownTech { .. })
        ));
        assert!(matches!(
            ScenarioSpec::resolve("sa1100", None, Some(1000)),
            Err(ScenarioError::Geometry { .. })
        ));
        for name in TECH_NAMES {
            assert!(tech_preset(name).is_some());
        }
    }

    #[test]
    fn oversized_names_are_quoted_not_echoed() {
        let huge = "x".repeat(256 * 1024);
        let unknown_preset = ScenarioSpec::resolve(&huge, None, None).unwrap_err();
        let unknown_tech = ScenarioSpec::resolve("sa1100", Some(&huge), None).unwrap_err();
        let bad_id = ScenarioSpec::sa1100()
            .with_tech(&format!("{huge}!"), TechParams::sa1100())
            .unwrap_err();
        for e in [unknown_preset, unknown_tech, bad_id] {
            let message = e.to_string();
            assert!(message.len() < 1024, "{} bytes", message.len());
            assert!(message.contains(" bytes)"), "{message}");
        }
        // Short names are quoted whole.
        let e = ScenarioSpec::resolve("sa1101", None, None).unwrap_err();
        assert!(e
            .to_string()
            .starts_with("unknown scenario preset \"sa1101\" (presets: "));
    }

    #[test]
    fn size_labels() {
        assert_eq!(size_label(16 * 1024), "16k");
        assert_eq!(size_label(512), "512b");
        assert_eq!(size_label(1536), "1536b");
    }
}
