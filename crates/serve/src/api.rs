//! The JSON API: request schemas, canonical keys, response bodies.
//!
//! Every request body is schema-validated with the `fits_obs::json`
//! machinery *before* any work is scheduled; violations come back as
//! structured 400s carrying an error code and a JSON-pointer to the
//! offending field — a malformed request can never panic a worker.
//!
//! Every POST endpoint is a **pure function** of its canonical request
//! string ([`PostRequest::canonical`]): no timestamps, no host stamps,
//! fixed key order. That purity is what makes the content-addressed cache
//! and the coalescer sound — equal canonical strings may share one
//! execution and one response body, byte for byte.
//!
//! One table, `POST_ENDPOINTS`, names every POST target, the top-level
//! fields its body may carry, and the parser of its endpoint-specific
//! fields (its `Job`). [`PostRequest::from_target`] checks the fields
//! every endpoint shares once, in one order for all of them: unknown
//! fields, `scale`, then the job's own fields, `synth` (over the job's base
//! options), `isa`.

use std::sync::Arc;

use fits_bench::{
    cache_bounds_report_with, price_shared_member, run_fits_scenario, run_kernel_scenarios,
    synth_key, write_isa, write_sweep_fields, Artifacts, ExperimentError, IsaAggregate, SweepPoint,
};
use fits_core::{synthesize_multi, MultiError, MultiMember, MultiOptions, SynthOptions};
use fits_isa::spec::{builtin_ar32, excerpt, IsaSpec, SpecCatalog};
use fits_kernels::kernels::{Kernel, Scale};
use fits_obs::json::Shape::{self, Arr, Bool, Lit, NonEmpty, Num, Obj, Str};
use fits_obs::json::{
    check, check_cache_bounds, parse, Spacing, Value, Writer, CACHE_BOUNDS, ISA_AGGREGATE,
};
use fits_power::TechParams;
use fits_scenario::{tech_preset, ScenarioError, ScenarioMatrix, ScenarioSpec, PRESET_NAMES};

/// The response schema identifier every body carries.
pub const SCHEMA: &str = "powerfits-serve-v1";
/// Largest accepted workload scale (`Scale::experiment()` is 4096).
pub const MAX_SCALE: u32 = 4096;
/// Most I-cache sizes one sweep request may ask for.
pub const MAX_SWEEP_SIZES: usize = 8;

/// A structured request rejection: machine-readable code, JSON pointer to
/// the offending field, human-readable message. Renders as the 400 body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// Stable error code (`"parse"`, `"missing_field"`, `"bad_type"`,
    /// `"bad_value"`, `"unknown_field"`).
    pub code: &'static str,
    /// JSON pointer to the offending field (`"/synth/reg_bits"`; empty
    /// for document-level failures).
    pub pointer: String,
    /// What went wrong.
    pub message: String,
}

impl ApiError {
    pub(crate) fn new(code: &'static str, pointer: &str, message: impl Into<String>) -> ApiError {
        ApiError {
            code,
            pointer: pointer.to_string(),
            message: message.into(),
        }
    }

    /// The 400 response body for this rejection.
    #[must_use]
    pub fn body(&self) -> String {
        error_body(self.code, &self.pointer, &self.message)
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at {:?}: {}", self.code, self.pointer, self.message)
    }
}

impl std::error::Error for ApiError {}

// ---------------------------------------------------------------- helpers

fn parse_body(body: &str) -> Result<Value, ApiError> {
    if body.trim().is_empty() {
        // An absent body means "all defaults" — canonicalized as {}.
        return Ok(Value::Obj(Vec::new()));
    }
    parse(body).map_err(|e| ApiError::new("parse", "", e.to_string()))
}

/// Rejects any member of the object `v` (at `pointer`) not among the
/// space-separated `allowed` names. The offending key is quoted through
/// [`excerpt`], never echoed whole.
fn reject_unknown(v: &Value, pointer: &str, allowed: &str) -> Result<(), ApiError> {
    let Value::Obj(members) = v else {
        return Err(ApiError::new("bad_type", pointer, "expected an object"));
    };
    match members
        .iter()
        .find(|(key, _)| !allowed.split(' ').any(|a| a == key))
    {
        None => Ok(()),
        Some((key, _)) => Err(ApiError::new(
            "unknown_field",
            &format!("{pointer}/{}", excerpt(key)),
            format!("unknown field (allowed: {})", allowed.replace(' ', ", ")),
        )),
    }
}

/// The optional member `key` of `v` read through `get`; a member `get`
/// refuses is a `bad_type` rejection (`expected …`) at `{pointer}/{key}`.
fn opt<'a, T>(
    v: &'a Value,
    pointer: &str,
    key: &str,
    expected: &str,
    get: impl Fn(&'a Value) -> Option<T>,
) -> Result<Option<T>, ApiError> {
    let Some(member) = v.get(key) else {
        return Ok(None);
    };
    get(member).map(Some).ok_or_else(|| {
        ApiError::new(
            "bad_type",
            &format!("{pointer}/{key}"),
            format!("expected {expected}"),
        )
    })
}

fn opt_str<'a>(v: &'a Value, pointer: &str, key: &str) -> Result<Option<&'a str>, ApiError> {
    opt(v, pointer, key, "a string", Value::as_str)
}

fn opt_bool(v: &Value, pointer: &str, key: &str) -> Result<Option<bool>, ApiError> {
    opt(v, pointer, key, "a boolean", |b| match b {
        Value::Bool(b) => Some(*b),
        _ => None,
    })
}

fn opt_f64(v: &Value, pointer: &str, key: &str) -> Result<Option<f64>, ApiError> {
    opt(v, pointer, key, "a number", Value::as_f64)
}

/// The optional top-level array `key`.
fn opt_arr<'a>(v: &'a Value, key: &str) -> Result<Option<&'a [Value]>, ApiError> {
    opt(v, "", key, "an array", |a| match a {
        Value::Arr(items) => Some(items.as_slice()),
        _ => None,
    })
}

fn opt_uint(
    v: &Value,
    pointer: &str,
    key: &str,
    min: u64,
    max: u64,
) -> Result<Option<u64>, ApiError> {
    let Some(n) = opt_f64(v, pointer, key)? else {
        return Ok(None);
    };
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let int = n as u64;
    if n.fract() != 0.0 || n < 0.0 || !(min..=max).contains(&int) {
        return Err(ApiError::new(
            "bad_value",
            &format!("{pointer}/{key}"),
            format!("expected an integer in [{min}, {max}], got {n}"),
        ));
    }
    Ok(Some(int))
}

/// `value`, item `i` of the array `key`, read through `get`; an item `get`
/// refuses is a `bad_type` rejection (`expected …`) at `/{key}/{i}`.
fn item<'a, T>(
    value: &'a Value,
    key: &str,
    i: usize,
    expected: &str,
    get: impl Fn(&'a Value) -> Option<T>,
) -> Result<T, ApiError> {
    get(value).ok_or_else(|| {
        ApiError::new(
            "bad_type",
            &format!("/{key}/{i}"),
            format!("expected {expected}"),
        )
    })
}

fn kernel_field(v: &Value) -> Result<Kernel, ApiError> {
    let name = opt_str(v, "", "kernel")?
        .ok_or_else(|| ApiError::new("missing_field", "/kernel", "a kernel name is required"))?;
    Kernel::from_name(name).ok_or_else(|| {
        ApiError::new(
            "bad_value",
            "/kernel",
            format!("unknown kernel {:?}", excerpt(name)),
        )
    })
}

/// Parses the `"kernels"` name list; `absent` is what a request without
/// one gets. Wrong types, unknown names and duplicates are rejected at
/// `/kernels/{i}`, an empty list at `/kernels`.
fn kernels_field(
    v: &Value,
    absent: Result<Vec<Kernel>, ApiError>,
) -> Result<Vec<Kernel>, ApiError> {
    let items = match opt_arr(v, "kernels")? {
        None => return absent,
        Some([]) => {
            return Err(ApiError::new(
                "bad_value",
                "/kernels",
                "kernel list must not be empty",
            ))
        }
        Some(items) => items,
    };
    let mut kernels = Vec::with_capacity(items.len());
    for (i, value) in items.iter().enumerate() {
        let name = item(value, "kernels", i, "a string", Value::as_str)?;
        let bad = |what| {
            let message = format!("{what} kernel {:?}", excerpt(name));
            ApiError::new("bad_value", &format!("/kernels/{i}"), message)
        };
        let k = Kernel::from_name(name).ok_or_else(|| bad("unknown"))?;
        if kernels.contains(&k) {
            return Err(bad("duplicate"));
        }
        kernels.push(k);
    }
    Ok(kernels)
}

fn scale_field(v: &Value) -> Result<Scale, ApiError> {
    let n = opt_uint(v, "", "scale", 1, u64::from(MAX_SCALE))?.map_or_else(
        || Scale::test().n,
        |n| u32::try_from(n).unwrap_or(MAX_SCALE),
    );
    Ok(Scale { n })
}

/// Parses the optional `"synth"` override object on top of the job's
/// base options (a scenario's, or the defaults).
fn synth_field(v: &Value, base: SynthOptions) -> Result<SynthOptions, ApiError> {
    let Some(synth) = v.get("synth") else {
        return Ok(base);
    };
    let sp = "/synth";
    reject_unknown(
        synth,
        sp,
        "toggle_aware reg_bits space_budget max_dict_bits",
    )?;
    let mut options = base;
    if let Some(b) = opt_bool(synth, sp, "toggle_aware")? {
        options.toggle_aware = b;
    }
    // Only the full 4-bit window: every served kernel addresses r13 (the
    // stack pointer), which a 3-bit window cannot name, so 3 could never
    // translate.
    if let Some(bits) = opt_uint(synth, sp, "reg_bits", 4, 4)? {
        options.reg_bits = u8::try_from(bits).unwrap_or(4);
    }
    if let Some(budget) = opt_f64(synth, sp, "space_budget")? {
        if !(budget > 0.0 && budget <= 1.0) {
            return Err(ApiError::new(
                "bad_value",
                "/synth/space_budget",
                format!("expected a fraction in (0, 1], got {budget}"),
            ));
        }
        options.space_budget = budget;
    }
    if let Some(bits) = opt_uint(synth, sp, "max_dict_bits", 0, 12)? {
        options.max_dict_bits = u8::try_from(bits).unwrap_or(6);
    }
    Ok(options)
}

/// Parses the optional `"isa"` field: `"builtin"` (or absence, or text
/// hash-identical to the shipped spec) selects the built-in catalog; any
/// other value must be a complete `powerfits-isa-v1` document describing a
/// 32-bit replacement for the AR32 execution ISA. The document is linted
/// with the `ISA` verification family before any work is scheduled, so a
/// spec with ambiguous or non-round-tripping forms is rejected as a 400,
/// never handed to the pipeline.
fn isa_field(v: &Value) -> Result<Option<Arc<SpecCatalog>>, ApiError> {
    let Some(text) = opt_str(v, "", "isa")? else {
        return Ok(None);
    };
    if text == "builtin" {
        return Ok(None);
    }
    let bad = |message| ApiError::new("bad_value", "/isa", message);
    let spec = IsaSpec::load(text).map_err(|e| bad(format!("ISA spec rejected: {e}")))?;
    if spec.word_width != 32 {
        return Err(bad(format!(
            "only a 32-bit (AR32-shaped) spec can replace the execution ISA, \
             got word-width {}",
            spec.word_width
        )));
    }
    let report = fits_verify::lint_spec(&spec);
    if let Some(d) = report.diagnostics.first() {
        return Err(bad(format!(
            "ISA spec fails validation ({}): {}",
            d.code, d.message
        )));
    }
    if spec.hash() == builtin_ar32().hash() {
        // Respellings of the shipped spec share the builtin cache slots.
        return Ok(None);
    }
    Ok(Some(Arc::new(SpecCatalog {
        ar32: Arc::new(spec),
        ..SpecCatalog::default()
    })))
}

/// The one rejection of an unknown preset name. `ScenarioError`'s Display
/// quotes the name through [`excerpt`].
fn unknown_preset(name: &str) -> ApiError {
    let name = name.to_owned();
    let message = ScenarioError::UnknownPreset { name }.to_string();
    ApiError::new("bad_value", "/scenario", message)
}

/// The one rejection of an unknown tech-node name at `pointer`.
fn unknown_tech(pointer: &str, name: &str) -> ApiError {
    let name = name.to_owned();
    let message = ScenarioError::UnknownTech { name }.to_string();
    ApiError::new("bad_value", pointer, message)
}

/// Resolves the `scenario`/`tech`/`icache_bytes` machine point. The key is
/// built from the *request* fields, not the derived scenario id — two
/// presets can resize to the same id while describing different machines.
fn scenario_fields(v: &Value) -> Result<(String, ScenarioSpec), ApiError> {
    let preset = opt_str(v, "", "scenario")?.unwrap_or("sa1100");
    let tech = opt_str(v, "", "tech")?;
    let icache = opt_uint(v, "", "icache_bytes", 256, 1 << 24)?
        .map(|n| u32::try_from(n).unwrap_or(u32::MAX));
    let spec = ScenarioSpec::resolve(preset, tech, icache).map_err(|e| {
        let pointer = match e {
            ScenarioError::UnknownPreset { .. } => "/scenario",
            ScenarioError::UnknownTech { .. } => "/tech",
            _ => "/icache_bytes",
        };
        ApiError::new("bad_value", pointer, e.to_string())
    })?;
    let key = format!(
        "preset={preset}|tech={}|icache={}",
        tech.unwrap_or("-"),
        icache.map_or_else(|| "-".to_string(), |b| b.to_string()),
    );
    Ok((key, spec))
}

fn join<T: std::fmt::Display>(items: impl IntoIterator<Item = T>, sep: &str) -> String {
    items
        .into_iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(sep)
}

fn kernel_names(kernels: &[Kernel]) -> String {
    join(kernels.iter().map(|k| k.name()), "+")
}

// ---------------------------------------------------------------- requests

/// What a POST request asks for beyond the fields every endpoint shares.
#[derive(Debug)]
pub(crate) enum Job {
    Synthesize {
        kernel: Kernel,
    },
    Simulate {
        kernel: Kernel,
        scenario: Box<ScenarioSpec>,
    },
    /// Static I-cache analysis, with the traced differential unless
    /// `static_only`.
    Analyze {
        kernel: Kernel,
        scenario: Box<ScenarioSpec>,
        static_only: bool,
    },
    Sweep {
        kernels: Vec<Kernel>,
        matrix: ScenarioMatrix,
    },
    /// One shared ISA over `kernels` (sorted by name) with canonical
    /// integer `weights`; zero-weight members are gone from both.
    SynthesizeMulti {
        kernels: Vec<Kernel>,
        weights: Vec<u64>,
        epsilon: f64,
    },
}

/// A parsed job, the synthesis options `"synth"` overrides, and the job's
/// part of the canonical key (which carries `n`, the scale).
type Parsed = (Job, SynthOptions, String);

/// Parses a job's own fields of a body at scale `n`.
type ParseJob = fn(&Value, u32) -> Result<Parsed, ApiError>;

/// Every POST endpoint: its target, the top-level fields its body may
/// carry (space-separated, in the order an `unknown_field` rejection lists
/// them), and the parser of its job. The router and
/// [`PostRequest::from_target`] both read this table; nothing else names a
/// POST target.
pub(crate) const POST_ENDPOINTS: [(&str, &str, ParseJob); 5] = [
    ("/synthesize", "kernel scale synth isa", synthesize_job),
    (
        "/simulate",
        "kernel scale scenario tech icache_bytes synth isa",
        |v, n| machine_job(v, n, false),
    ),
    (
        "/analyze",
        "kernel scale scenario tech icache_bytes synth static_only isa",
        |v, n| machine_job(v, n, true),
    ),
    (
        "/sweep",
        "kernels scale scenario icache_bytes tech synth isa",
        sweep_job,
    ),
    (
        "/synthesize-multi",
        "kernels weights scale epsilon synth isa",
        multi_job,
    ),
];

fn synthesize_job(v: &Value, n: u32) -> Result<Parsed, ApiError> {
    let kernel = kernel_field(v)?;
    let key = format!("kernel={}|n={n}", kernel.name());
    Ok((Job::Synthesize { kernel }, SynthOptions::default(), key))
}

/// `/simulate` and `/analyze`: one kernel at one machine point. The traced
/// differential of `/analyze` is deterministic, so its body stays a pure
/// function of the key with `static_only = false` too.
fn machine_job(v: &Value, n: u32, analyze: bool) -> Result<Parsed, ApiError> {
    let kernel = kernel_field(v)?;
    let (scenario_key, scenario) = scenario_fields(v)?;
    let base = scenario.synth.clone();
    let mut key = format!("kernel={}|n={n}|{scenario_key}", kernel.name());
    let scenario = Box::new(scenario);
    let job = if analyze {
        let static_only = opt_bool(v, "", "static_only")?.unwrap_or(false);
        key.push_str(&format!("|static={static_only}"));
        Job::Analyze {
            kernel,
            scenario,
            static_only,
        }
    } else {
        Job::Simulate { kernel, scenario }
    };
    Ok((job, base, key))
}

/// `/sweep`: the `tech × icache_bytes` grid over one preset for a kernel
/// set (defaults: the full suite, 16 KB and 8 KB, the preset's node).
fn sweep_job(v: &Value, n: u32) -> Result<Parsed, ApiError> {
    let kernels = kernels_field(v, Ok(Kernel::ALL.to_vec()))?;
    let preset = opt_str(v, "", "scenario")?.unwrap_or("sa1100");
    let base = ScenarioSpec::preset(preset).ok_or_else(|| unknown_preset(preset))?;

    let sizes: Vec<u32> = match opt_arr(v, "icache_bytes")? {
        None => vec![16 * 1024, 8 * 1024],
        Some(items) if items.is_empty() || items.len() > MAX_SWEEP_SIZES => {
            return Err(ApiError::new(
                "bad_value",
                "/icache_bytes",
                format!("expected 1..={MAX_SWEEP_SIZES} sizes"),
            ))
        }
        Some(items) => items
            .iter()
            .enumerate()
            .map(|(i, value)| {
                let n = item(value, "icache_bytes", i, "a number", Value::as_f64)?;
                if n.fract() != 0.0 || !(256.0..=16_777_216.0).contains(&n) {
                    return Err(ApiError::new(
                        "bad_value",
                        &format!("/icache_bytes/{i}"),
                        format!("expected an integer byte count in [256, 2^24], got {n}"),
                    ));
                }
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                Ok(n as u32)
            })
            .collect::<Result<_, _>>()?,
    };

    let nodes: Vec<(String, TechParams)> = match opt_arr(v, "tech")? {
        None => vec![(base.tech_name.clone(), base.tech.clone())],
        Some([]) => {
            return Err(ApiError::new(
                "bad_value",
                "/tech",
                "tech list must not be empty",
            ))
        }
        Some(items) => items
            .iter()
            .enumerate()
            .map(|(i, value)| {
                let name = item(value, "tech", i, "a string", Value::as_str)?;
                let params =
                    tech_preset(name).ok_or_else(|| unknown_tech(&format!("/tech/{i}"), name))?;
                Ok((name.to_string(), params))
            })
            .collect::<Result<_, _>>()?,
    };

    let matrix = ScenarioMatrix::grid(&base, &sizes, &nodes)
        .map_err(|e| ApiError::new("bad_value", "/icache_bytes", e.to_string()))?;
    let key = format!(
        "kernels={}|n={n}|preset={preset}|sizes={}|tech={}",
        kernel_names(&kernels),
        join(&sizes, ","),
        join(nodes.iter().map(|(name, _)| name), ","),
    );
    Ok((Job::Sweep { kernels, matrix }, base.synth, key))
}

/// `/synthesize-multi`: one *shared* FITS ISA synthesized from the merged
/// profile of a kernel set, with per-kernel regression bounds, priced at
/// the SA-1100 reference scenario.
///
/// The member list is sorted by kernel name and the weight vector is
/// canonicalized ([`fits_core::canonical_weights`]) before the key is
/// built, so `{a, b}` and `{b, a}` share a key, `{1, 1}` and `{2, 2}`
/// share a key, and zero-weight members vanish from both the key and the
/// response (a request with an extra zero-weight kernel *is* the smaller
/// request). Degenerate weight vectors (all-zero, negative, non-finite)
/// are `bad_value` rejections at `/weights`, never panics.
fn multi_job(v: &Value, n: u32) -> Result<Parsed, ApiError> {
    let raw_kernels = kernels_field(
        v,
        Err(ApiError::new(
            "missing_field",
            "/kernels",
            "a kernel list is required",
        )),
    )?;
    let raw_weights: Vec<f64> = match opt_arr(v, "weights")? {
        None => vec![1.0; raw_kernels.len()],
        Some(items) if items.len() != raw_kernels.len() => {
            return Err(ApiError::new(
                "bad_value",
                "/weights",
                format!("{} weights for {} kernels", items.len(), raw_kernels.len()),
            ))
        }
        Some(items) => items
            .iter()
            .enumerate()
            .map(|(i, value)| item(value, "weights", i, "a number", Value::as_f64))
            .collect::<Result<_, _>>()?,
    };

    // Sort members by kernel name, then canonicalize the weights in
    // that order: the cache key must not depend on request spelling.
    let mut paired: Vec<(Kernel, f64)> = raw_kernels.into_iter().zip(raw_weights).collect();
    paired.sort_by_key(|(k, _)| k.name());
    let sorted_weights: Vec<f64> = paired.iter().map(|(_, w)| *w).collect();
    let canon = fits_core::canonical_weights(&sorted_weights)
        .map_err(|e| ApiError::new("bad_value", "/weights", e.to_string()))?;
    // `canonical_weights` keeps dropped positions as zeros so callers
    // can line warnings up with inputs; the cache key must not.
    let (kernels, weights): (Vec<Kernel>, Vec<u64>) = paired
        .iter()
        .zip(&canon.weights)
        .enumerate()
        .filter(|(i, _)| !canon.dropped.contains(i))
        .map(|(_, ((k, _), &w))| (*k, w))
        .unzip();

    let epsilon = opt_f64(v, "", "epsilon")?.unwrap_or(1.0);
    if !epsilon.is_finite() || !(-1.0..=100.0).contains(&epsilon) {
        return Err(ApiError::new(
            "bad_value",
            "/epsilon",
            format!("expected a number in [-1, 100], got {epsilon}"),
        ));
    }
    let key = format!(
        "kernels={}|w={}|n={n}|eps={epsilon:.6}",
        kernel_names(&kernels),
        join(&weights, ","),
    );
    let job = Job::SynthesizeMulti {
        kernels,
        weights,
        epsilon,
    };
    Ok((job, SynthOptions::default(), key))
}

/// A validated POST request: the endpoint's job, the fields every
/// endpoint shares, and the canonical request string (the cache and
/// coalescing key) `{endpoint}|{job fields}|synth=…{isa}`.
#[derive(Debug)]
pub struct PostRequest {
    job: Job,
    scale: Scale,
    synth: SynthOptions,
    isa: Option<Arc<SpecCatalog>>,
    canonical: String,
}

impl PostRequest {
    /// Parses and validates the body for `target` (`"/synthesize"` etc.);
    /// `Ok(None)` when `target` is not a POST endpoint.
    ///
    /// # Errors
    ///
    /// A structured [`ApiError`] naming the offending field. The shared
    /// fields are checked once, in one order for every endpoint: unknown
    /// fields, `scale`, the job's own fields, `synth`, `isa`.
    pub fn from_target(target: &str, body: &str) -> Result<Option<PostRequest>, ApiError> {
        let Some(&(_, allowed, parse_job)) = POST_ENDPOINTS.iter().find(|row| row.0 == target)
        else {
            return Ok(None);
        };
        let v = parse_body(body)?;
        reject_unknown(&v, "", allowed)?;
        let scale = scale_field(&v)?;
        let (job, base, job_key) = parse_job(&v, scale.n)?;
        let synth = synth_field(&v, base)?;
        let isa = isa_field(&v)?;
        let canonical = format!(
            "{}|{job_key}|synth={}{}",
            &target[1..],
            synth_key(&synth),
            // Empty for the built-in catalog, keeping its keys stable.
            isa.as_ref()
                .map_or_else(String::new, |c| format!("|isa={}", c.hash_hex())),
        );
        Ok(Some(PostRequest {
            job,
            scale,
            synth,
            isa,
            canonical,
        }))
    }

    /// The canonical request string.
    #[must_use]
    pub fn canonical(&self) -> String {
        self.canonical.clone()
    }

    /// The synthesis options of the request (selects the [`Artifacts`]
    /// cache in the pool).
    #[must_use]
    pub fn synth(&self) -> &SynthOptions {
        &self.synth
    }

    /// The replacement ISA catalog of the request, if any (selects the
    /// [`Artifacts`] cache in the pool together with
    /// [`PostRequest::synth`]).
    #[must_use]
    pub fn isa(&self) -> Option<&Arc<SpecCatalog>> {
        self.isa.as_ref()
    }

    /// Runs the computation against an artifact cache configured for
    /// [`PostRequest::synth`]: the response body, a pure function of the
    /// request given a deterministic pipeline.
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures ([`ExperimentError`]), reported as 500s.
    pub fn compute(&self, artifacts: &Artifacts) -> Result<String, ExperimentError> {
        match &self.job {
            Job::Synthesize { kernel } => synthesize_body(artifacts, self, *kernel),
            Job::Simulate { kernel, scenario } => simulate_body(artifacts, self, *kernel, scenario),
            Job::Analyze {
                kernel,
                scenario,
                static_only,
            } => analyze_body(artifacts, self, *kernel, scenario, *static_only),
            Job::Sweep { kernels, matrix } => sweep_body(artifacts, self, kernels, matrix),
            Job::SynthesizeMulti {
                kernels,
                weights,
                epsilon,
            } => synthesize_multi_body(artifacts, self, kernels, weights, *epsilon),
        }
    }
}

// ---------------------------------------------------------------- responses

/// A `powerfits-serve-v1` body for `endpoint`, one member per line, open
/// for the rest of its members. Every body ends with a newline.
fn body(endpoint: &str) -> Writer {
    let mut w = Writer::new(Spacing::Spaced);
    w.begin_obj_lines();
    w.field_str("schema", SCHEMA);
    w.field_str("endpoint", endpoint);
    w
}

/// An `"error"` body (400 or 500).
fn error_body(code: &str, pointer: &str, message: &str) -> String {
    let mut w = body("error");
    w.key("error");
    w.begin_obj();
    w.field_str("code", code);
    w.field_str("pointer", pointer);
    w.field_str("message", message);
    w.finish() + "\n"
}

/// Writes the `"synth"` member: the synthesis options the body ran under.
fn write_synth(w: &mut Writer, options: &SynthOptions) {
    w.key("synth");
    w.begin_obj();
    w.field_bool("toggle_aware", options.toggle_aware);
    w.field_u64("reg_bits", options.reg_bits.into());
    w.field_f64_prec("space_budget", options.space_budget, 6);
    w.field_u64("max_dict_bits", options.max_dict_bits.into());
    w.end_obj();
}

/// Computes the `/synthesize` response body — a pure function of the
/// request given a deterministic pipeline, shared by the daemon and the
/// differential tests.
///
/// # Errors
///
/// Propagates pipeline failures ([`ExperimentError`]), reported as 500s.
fn synthesize_body(
    artifacts: &Artifacts,
    req: &PostRequest,
    kernel: Kernel,
) -> Result<String, ExperimentError> {
    let program = artifacts.program(kernel, req.scale)?;
    let flow = artifacts.flow(kernel, req.scale)?;
    let thumb = artifacts.thumb(kernel, req.scale)?;
    let mut w = body("synthesize");
    w.field_str("kernel", kernel.name());
    w.field_u64("scale_n", req.scale.n.into());
    write_synth(&mut w, &req.synth);
    w.field_u64("arm_code_bytes", program.code_bytes() as u64);
    w.field_u64("thumb_code_bytes", thumb.code_bytes() as u64);
    w.field_u64("fits_code_bytes", flow.fits.code_bytes() as u64);
    w.field_f64_prec("code_ratio", flow.code_ratio(program.code_bytes()), 6);
    w.field_f64_prec("mapping_static", flow.mapping.static_one_to_one_rate(), 6);
    w.field_f64_prec("mapping_dynamic", flow.dynamic_rate(), 6);
    w.field_u64("config_bits", flow.fits.config.config_bits() as u64);
    w.field_u64("iterations", flow.iterations as u64);
    Ok(w.finish() + "\n")
}

/// Computes the `/simulate` response body (both ISAs at one machine
/// point, per-ISA numbers in the sweep schema's shape).
///
/// # Errors
///
/// Propagates pipeline failures ([`ExperimentError`]), reported as 500s.
fn simulate_body(
    artifacts: &Artifacts,
    req: &PostRequest,
    kernel: Kernel,
    scenario: &ScenarioSpec,
) -> Result<String, ExperimentError> {
    let matrix = ScenarioMatrix {
        scenarios: vec![scenario.clone()],
    };
    let run = run_kernel_scenarios(artifacts, kernel, req.scale, &matrix)?.remove(0);
    let point = SweepPoint {
        id: run.scenario.id().to_string(),
        icache_bytes: run.scenario.icache.size_bytes,
        tech_name: run.scenario.tech_name.clone(),
        arm: IsaAggregate::from_run(&run.arm),
        fits: IsaAggregate::from_run(&run.fits),
    };
    let mut w = body("simulate");
    w.field_str("kernel", kernel.name());
    w.field_u64("scale_n", req.scale.n.into());
    w.field_str("scenario", &point.id);
    w.field_u64("icache_bytes", point.icache_bytes.into());
    w.field_str("tech", &point.tech_name);
    w.key("arm");
    write_isa(&mut w, &point.arm);
    w.key("fits");
    write_isa(&mut w, &point.fits);
    w.field_f64_prec("icache_saving", point.icache_saving(), 6);
    w.field_f64_prec("chip_saving", point.chip_saving(), 6);
    Ok(w.finish() + "\n")
}

/// Computes the `/analyze` response body: the `CA` abstract-interpretation
/// cache analysis for one kernel, embedding the full
/// `powerfits-cache-bounds-v1` report. The traced differential run is
/// deterministic, so the body is a pure function of the request and safe
/// to cache.
///
/// # Errors
///
/// Propagates pipeline failures ([`ExperimentError`]), reported as 500s.
fn analyze_body(
    artifacts: &Artifacts,
    req: &PostRequest,
    kernel: Kernel,
    scenario: &ScenarioSpec,
    static_only: bool,
) -> Result<String, ExperimentError> {
    let report = cache_bounds_report_with(artifacts, &[kernel], scenario, req.scale, !static_only)?;
    let mut w = body("analyze");
    w.field_str("kernel", kernel.name());
    w.field_u64("scale_n", req.scale.n.into());
    w.field_str("scenario", scenario.id());
    w.field_bool("traced", !static_only);
    w.field_bool("sound", report.is_sound());
    w.field_raw("report", &report.render_json());
    Ok(w.finish() + "\n")
}

/// Computes the `/sweep` response body. Unlike the `fitssweep` archive
/// this carries no provenance stamp — responses must stay pure functions
/// of the request for the cache to be sound.
///
/// # Errors
///
/// Propagates pipeline failures ([`ExperimentError`]), reported as 500s.
fn sweep_body(
    artifacts: &Artifacts,
    req: &PostRequest,
    kernels: &[Kernel],
    matrix: &ScenarioMatrix,
) -> Result<String, ExperimentError> {
    let results = fits_bench::run_sweep_with(artifacts, kernels, req.scale, matrix)?;
    let mut w = body("sweep");
    write_sweep_fields(&mut w, &results, false);
    Ok(w.finish() + "\n")
}

/// Computes the `/synthesize-multi` response body: one shared ISA over
/// the member set, each member priced at the SA-1100 reference scenario
/// through [`price_shared_member`] — the *same* compiled-replay path the
/// `fitspareto` library report takes, so service and library numbers are
/// bit-identical for equal inputs.
///
/// A candidate rejected by the per-kernel regression bound is **not** an
/// internal error: the rejection is a deterministic function of the
/// request, so it renders as a 200 body with `"accepted": false` (and is
/// cached and coalesced like any other result).
///
/// # Errors
///
/// Propagates pipeline failures ([`ExperimentError`]), reported as 500s.
fn synthesize_multi_body(
    artifacts: &Artifacts,
    req: &PostRequest,
    kernels: &[Kernel],
    weights: &[u64],
    epsilon: f64,
) -> Result<String, ExperimentError> {
    let scenario = ScenarioSpec::sa1100();
    let mut w = body("synthesize-multi");
    w.key("kernels");
    w.begin_arr();
    kernels.iter().for_each(|k| w.str(k.name()));
    w.end_arr();
    w.key("weights");
    w.begin_arr();
    weights.iter().for_each(|&x| w.u64(x));
    w.end_arr();
    w.field_u64("scale_n", req.scale.n.into());
    w.field_f64_prec("epsilon", epsilon, 6);
    write_synth(&mut w, &req.synth);

    let programs: Vec<_> = kernels
        .iter()
        .map(|&k| artifacts.program(k, req.scale))
        .collect::<Result<_, _>>()?;
    let profiles: Vec<_> = kernels
        .iter()
        .map(|&k| artifacts.profile(k, req.scale))
        .collect::<Result<_, _>>()?;
    let members: Vec<MultiMember<'_>> = kernels
        .iter()
        .zip(&programs)
        .zip(&profiles)
        .map(|((kernel, program), profile)| MultiMember {
            name: kernel.name(),
            program,
            profile,
        })
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let weights: Vec<f64> = weights.iter().map(|&w| w as f64).collect();
    let options = MultiOptions {
        synth: req.synth.clone(),
        epsilon,
        ..MultiOptions::default()
    };

    let outcome = match synthesize_multi(&members, &weights, &options) {
        Ok(outcome) => outcome,
        Err(MultiError::RegressionBound {
            member,
            solo,
            shared,
            epsilon,
        }) => {
            w.field_bool("accepted", false);
            w.key("rejected");
            w.begin_obj();
            w.field_str("member", &member);
            w.field_f64_prec("solo_expansion", solo, 6);
            w.field_f64_prec("shared_expansion", shared, 6);
            w.field_f64_prec("epsilon", epsilon, 6);
            return Ok(w.finish() + "\n");
        }
        Err(e) => return Err(ExperimentError::Multi(e)),
    };
    w.field_bool("accepted", true);
    w.field_str("merged_profile", &outcome.merged_hash);
    w.key("shared");
    w.begin_obj();
    w.field_u64("code_bytes", outcome.shared_code_bytes() as u64);
    w.field_u64("config_bits", outcome.synthesis.config.config_bits() as u64);
    w.field_u64("decoder_slots", outcome.synthesis.config.ops.len() as u64);
    w.field_u64("iterations", outcome.iterations as u64);
    w.end_obj();

    // Per-member pricing: the shared binary through the same replay path
    // as the library report, the solo FITS baseline from the shared
    // artifact cache (the native binary is not reported, so it is neither
    // recorded nor priced).
    w.key("members");
    w.begin_arr_lines();
    for (kernel, m) in kernels.iter().zip(&outcome.members) {
        let shared_run = price_shared_member(&m.translation.fits, &scenario)?;
        let solo_run = run_fits_scenario(artifacts, *kernel, req.scale, &scenario)?;
        w.begin_obj();
        w.field_str("kernel", &m.name);
        w.field_u64("solo_code_bytes", m.solo_code_bytes as u64);
        w.field_u64("shared_code_bytes", m.translation.fits.code_bytes() as u64);
        w.field_f64_prec("regression", m.regression, 6);
        w.key("solo");
        write_isa(&mut w, &IsaAggregate::from_run(&solo_run));
        w.key("shared");
        write_isa(&mut w, &IsaAggregate::from_run(&shared_run));
        w.end_obj();
    }
    w.end_arr();
    Ok(w.finish() + "\n")
}

/// Version of the `powerfits-serve-v1` response contract reported by
/// `/healthz` (bumped when response shapes change within the same schema
/// string; `fitsctl wait` asserts it).
pub const SCHEMA_VERSION: u64 = 3;

/// The `GET /healthz` body. `uptime_s` is seconds since the daemon
/// started; `commit` is the build's git revision (or `"unknown"`).
#[must_use]
pub fn healthz_body(uptime_s: u64, commit: &str) -> String {
    let mut w = body("healthz");
    w.field_str("status", "ok");
    w.field_u64("schema_version", SCHEMA_VERSION);
    w.field_u64("uptime_s", uptime_s);
    w.field_str("commit", commit);
    w.field_u64("kernels", Kernel::ALL.len() as u64);
    w.key("presets");
    w.begin_arr();
    PRESET_NAMES.iter().for_each(|p| w.str(p));
    w.end_arr();
    w.finish() + "\n"
}

/// The 500 body for a pipeline failure.
#[must_use]
pub fn internal_error_body(err: &ExperimentError) -> String {
    error_body("internal", "", &err.to_string())
}

// ---------------------------------------------------------------- validation

const GAUGE: Shape = Obj(&[("last min max mean samples", Num)]);

/// What every `powerfits-serve-v1` body carries.
const HEADER: Shape = Obj(&[("schema", Lit(SCHEMA)), ("endpoint", Str)]);

/// The rest of each body, one shape per `"endpoint"` tag.
const ENDPOINTS: [Shape; 8] = [
    Obj(&[
        ("endpoint", Lit("healthz")),
        ("status", Lit("ok")),
        ("kernels schema_version uptime_s", Num),
        ("commit", Str),
    ]),
    Obj(&[
        ("endpoint", Lit("metrics")),
        ("requests ok client_errors server_errors", Num),
        ("rejected cache_hits coalesced_joins executions", Num),
        ("cache_entries queue_depth queue_capacity", Num),
        ("workers uptime_s", Num),
        ("latency_us", Obj(&[("count mean p50 p99 max", Num)])),
        ("log", Obj(&[("emitted dropped", Num)])),
        (
            "window",
            Arr(&Obj(&[
                ("endpoint class", Str),
                ("count rate_per_sec mean p50 p99 max", Num),
            ])),
        ),
        ("gauges", Obj(&[("queue_depth cache_entries", GAUGE)])),
        ("spans", Arr(&Obj(&[("path", Str), ("ms count", Num)]))),
    ]),
    Obj(&[
        ("endpoint", Lit("synthesize")),
        ("kernel", Str),
        ("scale_n arm_code_bytes thumb_code_bytes", Num),
        ("fits_code_bytes code_ratio mapping_static", Num),
        ("mapping_dynamic config_bits iterations", Num),
    ]),
    Obj(&[
        ("endpoint", Lit("simulate")),
        ("kernel scenario tech", Str),
        ("scale_n icache_bytes icache_saving chip_saving", Num),
        ("arm fits", ISA_AGGREGATE),
    ]),
    Obj(&[
        ("endpoint", Lit("sweep")),
        ("scale_n executions_per_kernel", Num),
        (
            "scenarios",
            NonEmpty(&Obj(&[("id", Str), ("arm fits", ISA_AGGREGATE)])),
        ),
    ]),
    Obj(&[
        ("endpoint", Lit("analyze")),
        ("kernel scenario", Str),
        ("scale_n", Num),
        ("sound traced", Bool),
        ("report", CACHE_BOUNDS),
    ]),
    Obj(&[
        ("endpoint", Lit("synthesize-multi")),
        ("kernels", NonEmpty(&Str)),
        ("weights", NonEmpty(&Num)),
        ("scale_n epsilon", Num),
        ("accepted", Bool),
    ]),
    Obj(&[
        ("endpoint", Lit("error")),
        ("error", Obj(&[("code pointer message", Str)])),
    ]),
];

/// The two `/synthesize-multi` variants, on top of its `ENDPOINTS` row.
const MULTI_ACCEPTED: Shape = Obj(&[
    ("merged_profile", Str),
    (
        "shared",
        Obj(&[("code_bytes config_bits decoder_slots iterations", Num)]),
    ),
    (
        "members",
        NonEmpty(&Obj(&[
            ("kernel", Str),
            ("solo_code_bytes shared_code_bytes regression", Num),
            ("solo shared", ISA_AGGREGATE),
        ])),
    ),
]);

const MULTI_REJECTED: Shape = Obj(&[(
    "rejected",
    Obj(&[
        ("member", Str),
        ("solo_expansion shared_expansion epsilon", Num),
    ]),
)]);

/// Validates any `fitsd` response body against the `powerfits-serve-v1`
/// schema and returns the endpoint it claims to be. `fitsctl` runs this
/// over every response it receives; the loopback tests and the CI smoke
/// job reuse it.
///
/// # Errors
///
/// A description of the first violation.
pub fn validate_serve_json(text: &str) -> Result<String, String> {
    let v = parse(text).map_err(|e| e.to_string())?;
    check(&v, &HEADER)?;
    let endpoint = v
        .get("endpoint")
        .and_then(Value::as_str)
        .unwrap_or_default();
    let shape = ENDPOINTS
        .iter()
        .find(|s| s.tag("endpoint") == Some(endpoint))
        .ok_or_else(|| format!("unknown endpoint \"{endpoint}\""))?;
    check(&v, shape).map_err(|e| format!("{endpoint}: {e}"))?;
    match endpoint {
        "synthesize-multi" => {
            let accepted = v.get("accepted") == Some(&Value::Bool(true));
            let variant = if accepted {
                &MULTI_ACCEPTED
            } else {
                &MULTI_REJECTED
            };
            check(&v, variant).map_err(|e| format!("{endpoint}: {e}"))?;
        }
        "analyze" => {
            let report = v.get("report").unwrap_or(&Value::Null);
            let counts = check_cache_bounds(report).map_err(|e| format!("analyze report: {e}"))?;
            if v.get("sound") != Some(&Value::Bool(counts.violations == 0)) {
                return Err("analyze: \"sound\" disagrees with the embedded report".to_string());
            }
        }
        _ => {}
    }
    Ok(endpoint.to_string())
}

/// One span-tree node of a flight dump; children nest to any depth.
static FLIGHT_SPAN: Shape = Obj(&[
    ("name", Str),
    ("us count", Num),
    ("children", Arr(&FLIGHT_SPAN)),
]);

const FLIGHT_SUMMARY: Shape = Obj(&[("seq status us", Num), ("trace method endpoint cache", Str)]);

const FLIGHT: Shape = Obj(&[
    ("schema", Lit("powerfits-flight-v1")),
    ("total", Num),
    ("recent slowest", Arr(&FLIGHT_SUMMARY)),
    ("slowest", Arr(&Obj(&[("spans", Arr(&FLIGHT_SPAN))]))),
]);

/// Validates a `GET /debug/flight` dump against `powerfits-flight-v1` and
/// returns the number of slowest-request exemplars it carries. Span trees
/// are checked recursively (`name`/`us`/`count`/`children` at every node).
///
/// # Errors
///
/// A description of the first violation.
pub fn validate_flight_json(text: &str) -> Result<usize, String> {
    let v = parse(text).map_err(|e| e.to_string())?;
    check(&v, &FLIGHT).map_err(|e| format!("flight: {e}"))?;
    Ok(match v.get("slowest") {
        Some(Value::Arr(slowest)) => slowest.len(),
        _ => 0,
    })
}

/// Shared artifact-pool handle the server threads use.
pub type SharedArtifacts = Arc<fits_bench::ArtifactsPool>;

#[cfg(test)]
mod tests {
    use super::*;
    use fits_obs::json::escape;

    fn post(target: &str, body: &str) -> PostRequest {
        PostRequest::from_target(target, body).unwrap().unwrap()
    }

    fn reject(target: &str, body: &str) -> ApiError {
        PostRequest::from_target(target, body).unwrap_err()
    }

    /// The kernels a request names, in job order.
    fn kernels(req: &PostRequest) -> &[Kernel] {
        match &req.job {
            Job::Synthesize { kernel }
            | Job::Simulate { kernel, .. }
            | Job::Analyze { kernel, .. } => std::slice::from_ref(kernel),
            Job::Sweep { kernels, .. } | Job::SynthesizeMulti { kernels, .. } => kernels,
        }
    }

    /// The machine point of a `/simulate` or `/analyze` request.
    fn scenario(req: &PostRequest) -> &ScenarioSpec {
        match &req.job {
            Job::Simulate { scenario, .. } | Job::Analyze { scenario, .. } => scenario,
            job => panic!("no machine point in {job:?}"),
        }
    }

    #[test]
    fn defaults_parse_from_an_empty_body() {
        let req = post("/synthesize", "{\"kernel\": \"crc32\"}");
        assert_eq!(kernels(&req), [Kernel::Crc32]);
        assert_eq!(req.scale.n, Scale::test().n);
        assert_eq!(
            req.canonical(),
            "synthesize|kernel=crc32|n=64|synth=toggle:1,reg:4,space:1.000000,dict:6"
        );
        let sim = post("/simulate", "{\"kernel\": \"sha\"}");
        assert_eq!(scenario(&sim).id(), "sa1100-i16k");
        let sweep = post("/sweep", "");
        assert_eq!(kernels(&sweep).len(), Kernel::ALL.len());
        let Job::Sweep { matrix, .. } = &sweep.job else {
            panic!("not a sweep")
        };
        assert_eq!(matrix.len(), 2, "default grid: two sizes, one node");
    }

    #[test]
    fn structured_errors_point_at_the_offending_field() {
        let err = reject("/synthesize", "{\"kernel\": \"nope\"}");
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/kernel"));
        let err = reject("/synthesize", "{}");
        assert_eq!(
            (err.code, err.pointer.as_str()),
            ("missing_field", "/kernel")
        );
        let err = reject("/synthesize", "not json");
        assert_eq!(err.code, "parse");
        let err = reject("/synthesize", "{\"kernel\": \"crc32\", \"scal\": 2}");
        assert_eq!((err.code, err.pointer.as_str()), ("unknown_field", "/scal"));
        let err = reject("/synthesize", "{\"kernel\": \"crc32\", \"scale\": 9999999}");
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/scale"));
        let err = reject(
            "/synthesize",
            "{\"kernel\": \"crc32\", \"synth\": {\"reg_bits\": 7}}",
        );
        assert_eq!(
            (err.code, err.pointer.as_str()),
            ("bad_value", "/synth/reg_bits")
        );
        let err = reject("/simulate", "{\"kernel\": \"crc32\", \"tech\": \"3nm\"}");
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/tech"));
        let err = reject(
            "/simulate",
            "{\"kernel\": \"crc32\", \"icache_bytes\": 1000}",
        );
        assert_eq!(err.pointer, "/icache_bytes");
        // Every rejection renders as a schema-valid error body.
        assert_eq!(validate_serve_json(&err.body()).unwrap(), "error");
    }

    /// A 3-bit register window cannot name r13 (the stack pointer), so the
    /// flow fails for the served kernels: `reg_bits` 3 must be refused up
    /// front as a 400, not accepted into a pipeline that can only 500.
    #[test]
    fn untranslatable_reg_bits_is_a_400_not_a_500() {
        let mut req = post("/synthesize", "{\"kernel\": \"crc32\"}");
        req.synth.reg_bits = 3;
        let pool = fits_bench::ArtifactsPool::new();
        let artifacts = pool.for_config(&req.synth, req.isa.as_ref());
        assert!(
            req.compute(&artifacts).is_err(),
            "a 3-bit window translates"
        );

        for (target, body) in [
            (
                "/synthesize",
                "{\"kernel\": \"crc32\", \"synth\": {\"reg_bits\": 3}}",
            ),
            (
                "/simulate",
                "{\"kernel\": \"sha\", \"synth\": {\"reg_bits\": 3}}",
            ),
            ("/sweep", "{\"synth\": {\"reg_bits\": 3}}"),
            (
                "/synthesize-multi",
                "{\"kernels\": [\"crc32\", \"sha\"], \"synth\": {\"reg_bits\": 3}}",
            ),
        ] {
            let err = reject(target, body);
            assert_eq!(
                (err.code, err.pointer.as_str()),
                ("bad_value", "/synth/reg_bits"),
                "{target}"
            );
        }
        let req = post(
            "/synthesize",
            "{\"kernel\": \"crc32\", \"synth\": {\"reg_bits\": 4}}",
        );
        assert_eq!(req.synth.reg_bits, 4);
    }

    #[test]
    fn oversized_request_text_is_quoted_not_echoed() {
        let huge = "k".repeat(256 * 1024);
        let field = |name: &str| format!("{{\"kernel\": \"crc32\", \"{name}\": \"{huge}\"}}");
        // An unknown key is quoted inside the pointer itself.
        let quoted_key = format!("{}… (262144 bytes)", &huge[..64]);
        let errors = [
            (
                reject("/synthesize", &format!("{{\"kernel\": \"{huge}\"}}")),
                "bad_value",
                "/kernel".to_string(),
            ),
            (
                reject("/synthesize", &field("isa")),
                "bad_value",
                "/isa".to_string(),
            ),
            (
                reject("/sweep", &format!("{{\"kernels\": [\"{huge}\"]}}")),
                "bad_value",
                "/kernels/0".to_string(),
            ),
            (
                reject("/simulate", &field("scenario")),
                "bad_value",
                "/scenario".to_string(),
            ),
            (
                reject("/simulate", &field("tech")),
                "bad_value",
                "/tech".to_string(),
            ),
            (
                reject("/analyze", &field("scenario")),
                "bad_value",
                "/scenario".to_string(),
            ),
            (
                reject("/analyze", &field("tech")),
                "bad_value",
                "/tech".to_string(),
            ),
            (
                reject("/sweep", &format!("{{\"scenario\": \"{huge}\"}}")),
                "bad_value",
                "/scenario".to_string(),
            ),
            (
                reject("/sweep", &format!("{{\"{huge}\": 1}}")),
                "unknown_field",
                format!("/{quoted_key}"),
            ),
            (
                reject(
                    "/synthesize",
                    &format!("{{\"kernel\": \"crc32\", \"synth\": {{\"{huge}\": 1}}}}"),
                ),
                "unknown_field",
                format!("/synth/{quoted_key}"),
            ),
        ];
        for (err, code, pointer) in errors {
            assert_eq!((err.code, err.pointer.as_str()), (code, pointer.as_str()));
            let body = err.body();
            assert!(body.len() < 1024, "{pointer}: {} byte body", body.len());
            assert!(body.contains("(262144 bytes)"), "{body}");
            assert_eq!(validate_serve_json(&body).unwrap(), "error");
        }
    }

    /// The exact canonical keys (and so `X-Fits-Key`s) of one request per
    /// endpoint and per key-shaping field: any change here splits or
    /// merges cache entries.
    #[test]
    fn canonical_keys_are_pinned() {
        const DEFAULT: &str = "synth=toggle:1,reg:4,space:1.000000,dict:6";
        let pins = [
            (
                "/synthesize",
                "{\"kernel\": \"crc32\"}",
                format!("synthesize|kernel=crc32|n=64|{DEFAULT}"),
            ),
            (
                "/synthesize",
                "{\"kernel\": \"sha\", \"scale\": 16, \"synth\": {\"toggle_aware\": false, \
                 \"reg_bits\": 4, \"space_budget\": 0.5, \"max_dict_bits\": 4}}",
                "synthesize|kernel=sha|n=16|synth=toggle:0,reg:4,space:0.500000,dict:4".to_string(),
            ),
            (
                "/simulate",
                "{\"kernel\": \"crc32\"}",
                format!("simulate|kernel=crc32|n=64|preset=sa1100|tech=-|icache=-|{DEFAULT}"),
            ),
            (
                "/simulate",
                "{\"kernel\": \"crc32\", \"scenario\": \"small-embedded\", \"tech\": \"65nm\", \
                 \"icache_bytes\": 8192}",
                format!(
                    "simulate|kernel=crc32|n=64|preset=small-embedded|tech=65nm|icache=8192|\
                     {DEFAULT}"
                ),
            ),
            (
                "/simulate",
                "{\"kernel\": \"sha\", \"scenario\": \"modern-node\", \
                 \"synth\": {\"space_budget\": 0.5}}",
                "simulate|kernel=sha|n=64|preset=modern-node|tech=-|icache=-|\
                 synth=toggle:1,reg:4,space:0.500000,dict:6"
                    .to_string(),
            ),
            (
                "/analyze",
                "{\"kernel\": \"crc32\"}",
                format!(
                    "analyze|kernel=crc32|n=64|preset=sa1100|tech=-|icache=-|static=false|{DEFAULT}"
                ),
            ),
            (
                "/analyze",
                "{\"kernel\": \"fft\", \"static_only\": true, \"icache_bytes\": 4096}",
                format!(
                    "analyze|kernel=fft|n=64|preset=sa1100|tech=-|icache=4096|static=true|{DEFAULT}"
                ),
            ),
            (
                "/sweep",
                "",
                format!(
                    "sweep|kernels=bitcount+qsort+susan.smoothing+susan.edges+susan.corners+\
                     jpeg.dct+lame.filter+dijkstra+patricia+stringsearch+ispell+blowfish.enc+\
                     blowfish.dec+rijndael.enc+rijndael.dec+sha+adpcm.enc+adpcm.dec+crc32+fft+gsm|\
                     n=64|preset=sa1100|sizes=16384,8192|tech=sa1100|{DEFAULT}"
                ),
            ),
            (
                "/sweep",
                "{\"kernels\": [\"sha\", \"crc32\"], \"scenario\": \"modern-node\", \
                 \"icache_bytes\": [16384, 4096], \"tech\": [\"65nm\", \"sa1100\"], \"scale\": 32}",
                format!(
                    "sweep|kernels=sha+crc32|n=32|preset=modern-node|sizes=16384,4096|\
                     tech=65nm,sa1100|{DEFAULT}"
                ),
            ),
            (
                "/synthesize-multi",
                "{\"kernels\": [\"sha\", \"fft\", \"crc32\"], \"weights\": [2, 0, 4], \
                 \"epsilon\": 0.25}",
                format!("synthesize-multi|kernels=crc32+sha|w=2,1|n=64|eps=0.250000|{DEFAULT}"),
            ),
            (
                "/synthesize-multi",
                "{\"kernels\": [\"crc32\", \"sha\"], \"synth\": {\"max_dict_bits\": 8}}",
                "synthesize-multi|kernels=crc32+sha|w=1,1|n=64|eps=1.000000|\
                 synth=toggle:1,reg:4,space:1.000000,dict:8"
                    .to_string(),
            ),
        ];
        for (target, body, key) in pins {
            assert_eq!(post(target, body).canonical(), key, "{target} {body}");
        }
    }

    #[test]
    fn canonical_keys_separate_distinct_requests() {
        let a = post("/simulate", "{\"kernel\": \"crc32\"}");
        let b = post(
            "/simulate",
            "{\"kernel\": \"crc32\", \"scenario\": \"small-embedded\", \"icache_bytes\": 8192}",
        );
        let c = post(
            "/simulate",
            "{\"kernel\": \"crc32\", \"icache_bytes\": 8192}",
        );
        assert_ne!(a.canonical(), b.canonical());
        // Same derived id family would collide; the canonical key must not.
        assert_ne!(b.canonical(), c.canonical());
        // Identical requests written with different whitespace/field order
        // share a key.
        let d = post(
            "/simulate",
            "{  \"icache_bytes\": 8192, \"kernel\": \"crc32\" }",
        );
        assert_eq!(c.canonical(), d.canonical());
    }

    #[test]
    fn isa_field_selects_and_keys_the_catalog() {
        use fits_isa::spec::AR32_SPEC_TEXT;
        // "builtin", an omitted field, and text hash-identical to the
        // shipped spec all share the default canonical key.
        let default = post("/synthesize", "{\"kernel\": \"crc32\"}");
        let named = post(
            "/synthesize",
            "{\"kernel\": \"crc32\", \"isa\": \"builtin\"}",
        );
        assert!(named.isa.is_none());
        assert_eq!(default.canonical(), named.canonical());
        let verbatim = post(
            "/synthesize",
            &format!(
                "{{\"kernel\": \"crc32\", \"isa\": \"{}\"}}",
                escape(AR32_SPEC_TEXT)
            ),
        );
        assert!(verbatim.isa.is_none());
        assert_eq!(verbatim.canonical(), default.canonical());
        // A respelled document is a different machine description: it gets
        // its own catalog and a content-hashed canonical key.
        let respelled = AR32_SPEC_TEXT.replace(
            "# --- branches and traps ---",
            "# --- branches and traps (respelled) ---",
        );
        assert_ne!(respelled, AR32_SPEC_TEXT, "mutation needle went stale");
        let custom = post(
            "/synthesize",
            &format!(
                "{{\"kernel\": \"crc32\", \"isa\": \"{}\"}}",
                escape(&respelled)
            ),
        );
        let catalog = custom.isa.clone().expect("a custom catalog");
        assert!(custom
            .canonical()
            .contains(&format!("|isa={}", catalog.hash_hex())));
        assert_ne!(custom.canonical(), default.canonical());
        // The other three endpoints key on it the same way.
        let sim = post(
            "/simulate",
            &format!(
                "{{\"kernel\": \"crc32\", \"isa\": \"{}\"}}",
                escape(&respelled)
            ),
        );
        assert!(sim.canonical().contains("|isa="));
        let sweep = post(
            "/sweep",
            &format!(
                "{{\"kernels\": [\"crc32\"], \"isa\": \"{}\"}}",
                escape(&respelled)
            ),
        );
        assert!(sweep.canonical().contains("|isa="));
    }

    #[test]
    fn bad_isa_specs_are_rejected_before_any_work() {
        use fits_isa::spec::{AR32_SPEC_TEXT, T16_SPEC_TEXT};
        // Unparseable text is a structured 400 at /isa.
        let err = reject(
            "/synthesize",
            "{\"kernel\": \"crc32\", \"isa\": \"isa broken {\"}",
        );
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/isa"));
        // A 16-bit spec cannot replace the 32-bit execution ISA.
        let err = reject(
            "/synthesize",
            &format!(
                "{{\"kernel\": \"crc32\", \"isa\": \"{}\"}}",
                escape(T16_SPEC_TEXT)
            ),
        );
        assert!(err.message.contains("word-width"), "{}", err.message);
        // A spec the ISA lint family rejects never reaches the pipeline.
        let unbound = AR32_SPEC_TEXT.replace("form swi", "form swj");
        let err = reject(
            "/synthesize",
            &format!(
                "{{\"kernel\": \"crc32\", \"isa\": \"{}\"}}",
                escape(&unbound)
            ),
        );
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/isa"));
        assert!(err.message.contains("ISA004"), "{}", err.message);
        assert_eq!(validate_serve_json(&err.body()).unwrap(), "error");
    }

    #[test]
    fn sweep_request_builds_the_grid() {
        let req = post(
            "/sweep",
            "{\"kernels\": [\"crc32\", \"sha\"], \"scale\": 64, \
             \"icache_bytes\": [16384, 8192], \"tech\": [\"sa1100\", \"65nm\"]}",
        );
        assert_eq!(kernels(&req), [Kernel::Crc32, Kernel::Sha]);
        let Job::Sweep { matrix, .. } = &req.job else {
            panic!("not a sweep")
        };
        assert_eq!(matrix.len(), 4);
        assert!(req.canonical().contains("kernels=crc32+sha"));
        let err = reject("/sweep", "{\"kernels\": [\"crc32\", \"crc32\"]}");
        assert_eq!(err.pointer, "/kernels/1");
    }

    #[test]
    fn healthz_and_errors_validate() {
        let body = healthz_body(42, "deadbeef");
        assert_eq!(validate_serve_json(&body).unwrap(), "healthz");
        assert!(body.contains("\"uptime_s\": 42"));
        assert!(body.contains("\"commit\": \"deadbeef\""));
        assert!(body.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(validate_serve_json("{\"schema\": \"other\"}").is_err());
        assert!(validate_serve_json("{}").is_err());
    }

    #[test]
    fn flight_dumps_validate() {
        let fr = fits_obs::FlightRecorder::new(4, 2);
        fr.record(
            fits_obs::RequestSummary {
                trace: "t1".to_string(),
                method: "POST".to_string(),
                endpoint: "synthesize".to_string(),
                status: 200,
                cache: "miss".to_string(),
                us: 1500,
                ..fits_obs::RequestSummary::default()
            },
            vec![fits_obs::Span {
                name: "execute".to_string(),
                nanos: 1_400_000,
                count: 1,
                children: Vec::new(),
            }],
        );
        assert_eq!(validate_flight_json(&fr.render_json()).unwrap(), 1);
        assert!(validate_flight_json("{}").is_err());
        assert!(validate_flight_json("{\"schema\": \"powerfits-flight-v1\"}").is_err());
    }

    #[test]
    fn analyze_request_parses_and_keys_on_the_trace_mode() {
        let traced = post("/analyze", "{\"kernel\": \"crc32\"}");
        assert!(matches!(
            traced.job,
            Job::Analyze {
                static_only: false,
                ..
            }
        ));
        assert_eq!(scenario(&traced).id(), "sa1100-i16k");
        let fast = post("/analyze", "{\"kernel\": \"crc32\", \"static_only\": true}");
        // Same machine point, different computation — distinct cache keys.
        assert_ne!(traced.canonical(), fast.canonical());
        let err = reject("/analyze", "{\"kernel\": \"crc32\", \"static_only\": 1}");
        assert_eq!(
            (err.code, err.pointer.as_str()),
            ("bad_type", "/static_only")
        );
        let err = reject("/analyze", "{\"kernel\": \"crc32\", \"traced\": true}");
        assert_eq!(err.code, "unknown_field");
    }

    #[test]
    fn multi_request_canonicalizes_members_and_weights() {
        // Member order and proportional weight spellings must not split
        // the cache: all four of these are the same computation.
        let a = post("/synthesize-multi", "{\"kernels\": [\"crc32\", \"sha\"]}");
        let b = post("/synthesize-multi", "{\"kernels\": [\"sha\", \"crc32\"]}");
        let c = post(
            "/synthesize-multi",
            "{\"kernels\": [\"crc32\", \"sha\"], \"weights\": [2, 2]}",
        );
        let d = post(
            "/synthesize-multi",
            "{\"kernels\": [\"crc32\", \"sha\"], \"weights\": [0.5, 0.5]}",
        );
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.canonical(), c.canonical());
        assert_eq!(a.canonical(), d.canonical());
        assert!(a
            .canonical()
            .starts_with("synthesize-multi|kernels=crc32+sha|w=1,1|"));
        // A zero-weight member vanishes: the padded request IS the
        // two-member request, key and all.
        let padded = post(
            "/synthesize-multi",
            "{\"kernels\": [\"crc32\", \"fft\", \"sha\"], \"weights\": [3, 0, 3]}",
        );
        assert_eq!(kernels(&padded), [Kernel::Crc32, Kernel::Sha]);
        assert_eq!(padded.canonical(), a.canonical());
        // Unequal weights are a genuinely different merged profile.
        let skewed = post(
            "/synthesize-multi",
            "{\"kernels\": [\"crc32\", \"sha\"], \"weights\": [1, 3]}",
        );
        assert_ne!(skewed.canonical(), a.canonical());
        // ...and so is a different epsilon.
        let tight = post(
            "/synthesize-multi",
            "{\"kernels\": [\"crc32\", \"sha\"], \"epsilon\": 0.25}",
        );
        assert_ne!(tight.canonical(), a.canonical());
    }

    #[test]
    fn multi_request_rejects_degenerate_inputs() {
        let err = reject("/synthesize-multi", "{}");
        assert_eq!(
            (err.code, err.pointer.as_str()),
            ("missing_field", "/kernels")
        );
        let err = reject("/synthesize-multi", "{\"kernels\": []}");
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/kernels"));
        let err = reject("/synthesize-multi", "{\"kernels\": [\"crc32\", \"crc32\"]}");
        assert_eq!(
            (err.code, err.pointer.as_str()),
            ("bad_value", "/kernels/1")
        );
        // Weight vector shape and content errors all point at /weights.
        let err = reject(
            "/synthesize-multi",
            "{\"kernels\": [\"crc32\", \"sha\"], \"weights\": [1]}",
        );
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/weights"));
        let err = reject(
            "/synthesize-multi",
            "{\"kernels\": [\"crc32\", \"sha\"], \"weights\": [0, 0]}",
        );
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/weights"));
        let err = reject(
            "/synthesize-multi",
            "{\"kernels\": [\"crc32\", \"sha\"], \"weights\": [1, -1]}",
        );
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/weights"));
        let err = reject(
            "/synthesize-multi",
            "{\"kernels\": [\"crc32\"], \"epsilon\": 200}",
        );
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/epsilon"));
        // Every rejection renders as a schema-valid error body.
        assert_eq!(validate_serve_json(&err.body()).unwrap(), "error");
    }

    #[test]
    fn multi_body_matches_the_library_pricing_bit_for_bit() {
        let req = post(
            "/synthesize-multi",
            "{\"kernels\": [\"bitcount\", \"crc32\"]}",
        );
        let artifacts = Artifacts::new().with_synth(req.synth.clone());
        let body = req.compute(&artifacts).unwrap();
        assert_eq!(validate_serve_json(&body).unwrap(), "synthesize-multi");
        assert!(body.contains("\"accepted\": true"));

        // Re-run the same synthesis through the library entry points and
        // demand the service body embeds the identical rendered numbers.
        let Job::SynthesizeMulti {
            kernels, epsilon, ..
        } = &req.job
        else {
            panic!("not a multi request")
        };
        let programs: Vec<_> = kernels
            .iter()
            .map(|&k| artifacts.program(k, req.scale).unwrap())
            .collect();
        let profiles: Vec<_> = kernels
            .iter()
            .map(|&k| artifacts.profile(k, req.scale).unwrap())
            .collect();
        let members: Vec<MultiMember<'_>> = kernels
            .iter()
            .zip(&programs)
            .zip(&profiles)
            .map(|((k, program), profile)| MultiMember {
                name: k.name(),
                program,
                profile,
            })
            .collect();
        let options = MultiOptions {
            synth: req.synth.clone(),
            epsilon: *epsilon,
            ..MultiOptions::default()
        };
        let outcome = synthesize_multi(&members, &[1.0, 1.0], &options).unwrap();
        assert!(body.contains(&format!("\"merged_profile\": \"{}\"", outcome.merged_hash)));
        let scenario = ScenarioSpec::sa1100();
        for m in &outcome.members {
            let run = price_shared_member(&m.translation.fits, &scenario).unwrap();
            let mut shared = Writer::new(Spacing::Spaced);
            write_isa(&mut shared, &IsaAggregate::from_run(&run));
            assert!(
                body.contains(&format!("\"shared\": {}", shared.finish())),
                "service body drifted from library pricing for {}",
                m.name
            );
        }
        // Identical requests produce identical bytes on recomputation.
        assert_eq!(body, req.compute(&artifacts).unwrap());
    }

    /// A cold `/synthesize-multi` over two kernels executes each member's
    /// native binary once (profiling), its solo FITS binary once (the
    /// flow's equivalence run, whose recording prices the solo baseline)
    /// and its shared FITS binary once. The native binary is never
    /// reported, so it is not recorded again.
    #[test]
    fn cold_multi_executes_each_member_binary_once() {
        use fits_bench::experiment::timed_executions_on_this_thread;

        let req = post(
            "/synthesize-multi",
            "{\"kernels\": [\"bitcount\", \"crc32\"]}",
        );
        let artifacts = Artifacts::new().with_synth(req.synth.clone());
        let before = timed_executions_on_this_thread();
        let body = req.compute(&artifacts).unwrap();
        assert!(body.contains("\"accepted\": true"));
        assert_eq!(timed_executions_on_this_thread() - before, 2 * 3);
    }

    #[test]
    fn multi_body_renders_a_regression_rejection_as_a_200() {
        let req = post(
            "/synthesize-multi",
            "{\"kernels\": [\"bitcount\", \"crc32\"], \"epsilon\": -0.99}",
        );
        let artifacts = Artifacts::new().with_synth(req.synth.clone());
        let body = req.compute(&artifacts).unwrap();
        assert_eq!(validate_serve_json(&body).unwrap(), "synthesize-multi");
        assert!(body.contains("\"accepted\": false"));
        assert!(body.contains("\"rejected\": {\"member\": "));
    }

    /// A cold `/simulate` prices the pipeline's own profiling and
    /// equivalence recordings: two executions, not four. A warm slot
    /// records both binaries again and renders the same bytes.
    #[test]
    fn cold_simulate_executes_each_binary_once() {
        use fits_bench::experiment::timed_executions_on_this_thread;

        let req = post("/simulate", "{\"kernel\": \"crc32\"}");
        let pool = fits_bench::ArtifactsPool::new();
        let artifacts = pool.for_config(&req.synth, req.isa.as_ref());
        let before = timed_executions_on_this_thread();
        let cold = req.compute(&artifacts).unwrap();
        assert_eq!(timed_executions_on_this_thread() - before, 2, "cold miss");
        let warm = req.compute(&artifacts).unwrap();
        assert_eq!(timed_executions_on_this_thread() - before, 4, "warm miss");
        assert_eq!(cold, warm);
    }

    #[test]
    fn analyze_body_validates_and_embeds_a_sound_report() {
        let req = post("/analyze", "{\"kernel\": \"crc32\", \"static_only\": true}");
        let artifacts = Artifacts::new().with_synth(req.synth.clone());
        let body = req.compute(&artifacts).unwrap();
        assert_eq!(validate_serve_json(&body).unwrap(), "analyze");
        assert!(body.contains("\"sound\": true"));
        // A lying top-level soundness flag is caught by the validator.
        let lying = body.replace("\"sound\": true,", "\"sound\": false,");
        assert!(validate_serve_json(&lying)
            .unwrap_err()
            .contains("disagrees"));
    }

    /// Every single-member corruption of a served body, generated from
    /// the tables that validate it, is rejected.
    fn rejects_every_mutant(body: &str) {
        let doc = parse(body).unwrap();
        let endpoint = validate_serve_json(body).unwrap();
        let row = ENDPOINTS
            .iter()
            .find(|s| s.tag("endpoint") == Some(endpoint.as_str()))
            .unwrap();
        let mut shapes = vec![&HEADER, row];
        if endpoint == "synthesize-multi" {
            let accepted = doc.get("accepted") == Some(&Value::Bool(true));
            shapes.push(if accepted {
                &MULTI_ACCEPTED
            } else {
                &MULTI_REJECTED
            });
        }
        for shape in shapes {
            let all = fits_obs::json::mutants(&doc, shape);
            assert!(!all.is_empty(), "{endpoint}: no mutants");
            for mutant in &all {
                assert!(
                    validate_serve_json(mutant).is_err(),
                    "{endpoint} accepted {mutant}"
                );
            }
        }
    }

    #[test]
    fn every_serve_mutant_is_rejected() {
        rejects_every_mutant(&healthz_body(42, "deadbeef"));
        rejects_every_mutant(&reject("/synthesize", "{}").body());
        let metrics = crate::metrics::ServeMetrics::new();
        metrics.finish("synthesize", 200, std::time::Duration::from_millis(3));
        rejects_every_mutant(&metrics.render_json(&crate::metrics::MetricsContext {
            queue_depth: 3,
            queue_capacity: 64,
            workers: 8,
            cache_entries: 5,
            uptime_s: 12,
            log_emitted: 7,
            log_dropped: 1,
        }));
        let req = post("/synthesize", "{\"kernel\": \"crc32\"}");
        let artifacts = Artifacts::new().with_synth(req.synth.clone());
        rejects_every_mutant(&req.compute(&artifacts).unwrap());
        let req = post("/simulate", "{\"kernel\": \"crc32\"}");
        let artifacts = Artifacts::new().with_synth(req.synth.clone());
        rejects_every_mutant(&req.compute(&artifacts).unwrap());
        let req = post(
            "/sweep",
            "{\"kernels\": [\"crc32\"], \"icache_bytes\": [8192]}",
        );
        let artifacts = Artifacts::new().with_synth(req.synth.clone());
        rejects_every_mutant(&req.compute(&artifacts).unwrap());
        let req = post("/analyze", "{\"kernel\": \"crc32\", \"static_only\": true}");
        let artifacts = Artifacts::new().with_synth(req.synth.clone());
        rejects_every_mutant(&req.compute(&artifacts).unwrap());
        for body in [
            "{\"kernels\": [\"bitcount\", \"crc32\"]}",
            "{\"kernels\": [\"bitcount\", \"crc32\"], \"epsilon\": -0.99}",
        ] {
            let req = post("/synthesize-multi", body);
            let artifacts = Artifacts::new().with_synth(req.synth.clone());
            rejects_every_mutant(&req.compute(&artifacts).unwrap());
        }
    }

    #[test]
    fn every_flight_mutant_is_rejected() {
        let span = |name: &str, children| fits_obs::Span {
            name: name.to_string(),
            nanos: 1_000,
            count: 1,
            children,
        };
        let fr = fits_obs::FlightRecorder::new(4, 2);
        fr.record(
            fits_obs::RequestSummary {
                trace: "t1".to_string(),
                method: "POST".to_string(),
                endpoint: "synthesize".to_string(),
                status: 200,
                cache: "miss".to_string(),
                us: 1500,
                ..fits_obs::RequestSummary::default()
            },
            vec![span("execute", vec![span("profile", Vec::new())])],
        );
        let dump = fr.render_json();
        let all = fits_obs::json::mutants(&parse(&dump).unwrap(), &FLIGHT);
        assert!(all.len() > 30, "{} mutants", all.len());
        for mutant in &all {
            assert!(validate_flight_json(mutant).is_err(), "accepted {mutant}");
        }
    }
}
