//! The JSON API: request schemas, canonical keys, response bodies.
//!
//! Every request body is schema-validated with the `fits_obs::json`
//! machinery *before* any work is scheduled; violations come back as
//! structured 400s carrying an error code and a JSON-pointer to the
//! offending field — a malformed request can never panic a worker.
//!
//! Every POST endpoint is a **pure function** of its canonical request
//! string ([`SynthesizeRequest::canonical`] and friends): no timestamps,
//! no host stamps, fixed key order. That purity is what makes the
//! content-addressed cache and the coalescer sound — equal canonical
//! strings may share one execution and one response body, byte for byte.

use std::sync::Arc;

use fits_bench::{
    cache_bounds_report_with, isa_json, price_shared_member, run_kernel_scenarios, synth_key,
    Artifacts, ExperimentError,
};
use fits_core::{synthesize_multi, MultiError, MultiMember, MultiOptions, SynthOptions};
use fits_isa::spec::{builtin_ar32, excerpt, IsaSpec, SpecCatalog};
use fits_kernels::kernels::{Kernel, Scale};
use fits_obs::json::Shape::{self, Arr, Bool, Lit, NonEmpty, Num, Obj, Str};
use fits_obs::json::{
    check, check_cache_bounds, escape, parse, Value, CACHE_BOUNDS, ISA_AGGREGATE,
};
use fits_scenario::{tech_preset, ScenarioMatrix, ScenarioSpec, PRESET_NAMES, TECH_NAMES};

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
    fn new(code: &'static str, pointer: &str, message: impl Into<String>) -> ApiError {
        ApiError {
            code,
            pointer: pointer.to_string(),
            message: message.into(),
        }
    }

    /// The 400 response body for this rejection.
    #[must_use]
    pub fn body(&self) -> String {
        format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"endpoint\": \"error\",\n  \"error\": {{\
             \"code\": \"{}\", \"pointer\": \"{}\", \"message\": \"{}\"}}\n}}\n",
            escape(self.code),
            escape(&self.pointer),
            escape(&self.message),
        )
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

fn members<'a>(v: &'a Value, pointer: &str) -> Result<&'a [(String, Value)], ApiError> {
    match v {
        Value::Obj(m) => Ok(m),
        _ => Err(ApiError::new("bad_type", pointer, "expected an object")),
    }
}

fn reject_unknown(v: &Value, pointer: &str, allowed: &[&str]) -> Result<(), ApiError> {
    for (key, _) in members(v, pointer)? {
        if !allowed.contains(&key.as_str()) {
            return Err(ApiError::new(
                "unknown_field",
                &format!("{pointer}/{key}"),
                format!("unknown field (allowed: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

fn opt_str<'a>(v: &'a Value, pointer: &str, key: &str) -> Result<Option<&'a str>, ApiError> {
    match v.get(key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s)),
        Some(_) => Err(ApiError::new(
            "bad_type",
            &format!("{pointer}/{key}"),
            "expected a string",
        )),
    }
}

fn opt_bool(v: &Value, pointer: &str, key: &str) -> Result<Option<bool>, ApiError> {
    match v.get(key) {
        None => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(ApiError::new(
            "bad_type",
            &format!("{pointer}/{key}"),
            "expected a boolean",
        )),
    }
}

fn opt_f64(v: &Value, pointer: &str, key: &str) -> Result<Option<f64>, ApiError> {
    match v.get(key) {
        None => Ok(None),
        Some(Value::Num(n)) => Ok(Some(*n)),
        Some(_) => Err(ApiError::new(
            "bad_type",
            &format!("{pointer}/{key}"),
            "expected a number",
        )),
    }
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

fn kernel_field(v: &Value, pointer: &str) -> Result<Kernel, ApiError> {
    let name = opt_str(v, pointer, "kernel")?.ok_or_else(|| {
        ApiError::new(
            "missing_field",
            &format!("{pointer}/kernel"),
            "a kernel name is required",
        )
    })?;
    Kernel::from_name(name).ok_or_else(|| {
        ApiError::new(
            "bad_value",
            &format!("{pointer}/kernel"),
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
    let items = match v.get("kernels") {
        None => return absent,
        Some(Value::Arr(items)) if items.is_empty() => {
            return Err(ApiError::new(
                "bad_value",
                "/kernels",
                "kernel list must not be empty",
            ))
        }
        Some(Value::Arr(items)) => items,
        Some(_) => return Err(ApiError::new("bad_type", "/kernels", "expected an array")),
    };
    let mut kernels = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let at = || format!("/kernels/{i}");
        let name = item
            .as_str()
            .ok_or_else(|| ApiError::new("bad_type", &at(), "expected a string"))?;
        let k = Kernel::from_name(name).ok_or_else(|| {
            ApiError::new(
                "bad_value",
                &at(),
                format!("unknown kernel {:?}", excerpt(name)),
            )
        })?;
        if kernels.contains(&k) {
            return Err(ApiError::new(
                "bad_value",
                &at(),
                format!("duplicate kernel {:?}", excerpt(name)),
            ));
        }
        kernels.push(k);
    }
    Ok(kernels)
}

fn scale_field(v: &Value, pointer: &str) -> Result<Scale, ApiError> {
    let n = opt_uint(v, pointer, "scale", 1, u64::from(MAX_SCALE))?.map_or_else(
        || Scale::test().n,
        |n| u32::try_from(n).unwrap_or(MAX_SCALE),
    );
    Ok(Scale { n })
}

/// Parses the optional `"synth"` override object on top of a scenario's
/// default options.
fn synth_field(v: &Value, pointer: &str, base: SynthOptions) -> Result<SynthOptions, ApiError> {
    let Some(synth) = v.get("synth") else {
        return Ok(base);
    };
    let sp = format!("{pointer}/synth");
    reject_unknown(
        synth,
        &sp,
        &["toggle_aware", "reg_bits", "space_budget", "max_dict_bits"],
    )?;
    let mut options = base;
    if let Some(b) = opt_bool(synth, &sp, "toggle_aware")? {
        options.toggle_aware = b;
    }
    if let Some(bits) = opt_uint(synth, &sp, "reg_bits", 3, 4)? {
        options.reg_bits = u8::try_from(bits).unwrap_or(4);
    }
    if let Some(budget) = opt_f64(synth, &sp, "space_budget")? {
        if !(budget > 0.0 && budget <= 1.0) {
            return Err(ApiError::new(
                "bad_value",
                &format!("{sp}/space_budget"),
                format!("expected a fraction in (0, 1], got {budget}"),
            ));
        }
        options.space_budget = budget;
    }
    if let Some(bits) = opt_uint(synth, &sp, "max_dict_bits", 0, 12)? {
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
fn isa_field(v: &Value, pointer: &str) -> Result<Option<Arc<SpecCatalog>>, ApiError> {
    let Some(text) = opt_str(v, pointer, "isa")? else {
        return Ok(None);
    };
    if text == "builtin" {
        return Ok(None);
    }
    let ip = format!("{pointer}/isa");
    let spec = IsaSpec::load(text)
        .map_err(|e| ApiError::new("bad_value", &ip, format!("ISA spec rejected: {e}")))?;
    if spec.word_width != 32 {
        return Err(ApiError::new(
            "bad_value",
            &ip,
            format!(
                "only a 32-bit (AR32-shaped) spec can replace the execution ISA, \
                 got word-width {}",
                spec.word_width
            ),
        ));
    }
    let report = fits_verify::lint_spec(&spec);
    if let Some(d) = report.diagnostics.first() {
        return Err(ApiError::new(
            "bad_value",
            &ip,
            format!("ISA spec fails validation ({}): {}", d.code, d.message),
        ));
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

/// The canonical-key suffix for a request's ISA catalog: empty for the
/// built-in catalog (keeping pre-existing keys stable), the catalog's
/// content hash otherwise.
fn isa_suffix(isa: Option<&Arc<SpecCatalog>>) -> String {
    isa.map_or_else(String::new, |c| format!("|isa={}", c.hash_hex()))
}

fn scenario_fields(v: &Value, pointer: &str) -> Result<(String, ScenarioSpec), ApiError> {
    let preset = opt_str(v, pointer, "scenario")?
        .unwrap_or("sa1100")
        .to_string();
    let tech = opt_str(v, pointer, "tech")?;
    let icache = opt_uint(v, pointer, "icache_bytes", 256, 1 << 24)?
        .map(|n| u32::try_from(n).unwrap_or(u32::MAX));
    let spec = ScenarioSpec::resolve(&preset, tech, icache).map_err(|e| {
        let field = match &e {
            fits_scenario::ScenarioError::UnknownPreset { .. } => "scenario",
            fits_scenario::ScenarioError::UnknownTech { .. } => "tech",
            _ => "icache_bytes",
        };
        ApiError::new("bad_value", &format!("{pointer}/{field}"), e.to_string())
    })?;
    let canonical = format!(
        "preset={preset}|tech={}|icache={}",
        tech.unwrap_or("-"),
        icache.map_or_else(|| "-".to_string(), |b| b.to_string()),
    );
    Ok((canonical, spec))
}

// ---------------------------------------------------------------- requests

/// A validated `POST /synthesize` request.
#[derive(Clone, Debug)]
pub struct SynthesizeRequest {
    /// The kernel to synthesize for.
    pub kernel: Kernel,
    /// Workload scale.
    pub scale: Scale,
    /// Synthesis options (defaults overlaid with the `"synth"` object).
    pub synth: SynthOptions,
    /// A replacement ISA catalog, or `None` for the shipped one.
    pub isa: Option<Arc<SpecCatalog>>,
}

impl SynthesizeRequest {
    /// Parses and validates a request body.
    ///
    /// # Errors
    ///
    /// A structured [`ApiError`] naming the offending field.
    pub fn from_body(body: &str) -> Result<SynthesizeRequest, ApiError> {
        let v = parse_body(body)?;
        reject_unknown(&v, "", &["kernel", "scale", "synth", "isa"])?;
        Ok(SynthesizeRequest {
            kernel: kernel_field(&v, "")?,
            scale: scale_field(&v, "")?,
            synth: synth_field(&v, "", SynthOptions::default())?,
            isa: isa_field(&v, "")?,
        })
    }

    /// The canonical request string (the cache/coalescing key).
    #[must_use]
    pub fn canonical(&self) -> String {
        format!(
            "synthesize|kernel={}|n={}|synth={}{}",
            self.kernel.name(),
            self.scale.n,
            synth_key(&self.synth),
            isa_suffix(self.isa.as_ref()),
        )
    }
}

/// A validated `POST /simulate` request.
#[derive(Clone, Debug)]
pub struct SimulateRequest {
    /// The kernel to run.
    pub kernel: Kernel,
    /// Workload scale.
    pub scale: Scale,
    /// The resolved machine point.
    pub scenario: ScenarioSpec,
    /// Synthesis options for the FITS side.
    pub synth: SynthOptions,
    /// A replacement ISA catalog, or `None` for the shipped one.
    pub isa: Option<Arc<SpecCatalog>>,
    scenario_canonical: String,
}

impl SimulateRequest {
    /// Parses and validates a request body.
    ///
    /// # Errors
    ///
    /// A structured [`ApiError`] naming the offending field.
    pub fn from_body(body: &str) -> Result<SimulateRequest, ApiError> {
        let v = parse_body(body)?;
        reject_unknown(
            &v,
            "",
            &[
                "kernel",
                "scale",
                "scenario",
                "tech",
                "icache_bytes",
                "synth",
                "isa",
            ],
        )?;
        let kernel = kernel_field(&v, "")?;
        let scale = scale_field(&v, "")?;
        let (scenario_canonical, scenario) = scenario_fields(&v, "")?;
        let synth = synth_field(&v, "", scenario.synth.clone())?;
        Ok(SimulateRequest {
            kernel,
            scale,
            scenario,
            synth,
            isa: isa_field(&v, "")?,
            scenario_canonical,
        })
    }

    /// The canonical request string (the cache/coalescing key). Built from
    /// the *request* fields, not the derived scenario id — two presets can
    /// resize to the same id while describing different machines.
    #[must_use]
    pub fn canonical(&self) -> String {
        format!(
            "simulate|kernel={}|n={}|{}|synth={}{}",
            self.kernel.name(),
            self.scale.n,
            self.scenario_canonical,
            synth_key(&self.synth),
            isa_suffix(self.isa.as_ref()),
        )
    }
}

/// A validated `POST /analyze` request — static I-cache analysis for one
/// kernel, with an optional traced differential.
#[derive(Clone, Debug)]
pub struct AnalyzeRequest {
    /// The kernel to analyze.
    pub kernel: Kernel,
    /// Workload scale.
    pub scale: Scale,
    /// The resolved machine point.
    pub scenario: ScenarioSpec,
    /// Synthesis options for the FITS side.
    pub synth: SynthOptions,
    /// Skip the traced run and report the static bounds alone.
    pub static_only: bool,
    /// A replacement ISA catalog, or `None` for the shipped one.
    pub isa: Option<Arc<SpecCatalog>>,
    scenario_canonical: String,
}

impl AnalyzeRequest {
    /// Parses and validates a request body.
    ///
    /// # Errors
    ///
    /// A structured [`ApiError`] naming the offending field.
    pub fn from_body(body: &str) -> Result<AnalyzeRequest, ApiError> {
        let v = parse_body(body)?;
        reject_unknown(
            &v,
            "",
            &[
                "kernel",
                "scale",
                "scenario",
                "tech",
                "icache_bytes",
                "synth",
                "static_only",
                "isa",
            ],
        )?;
        let kernel = kernel_field(&v, "")?;
        let scale = scale_field(&v, "")?;
        let (scenario_canonical, scenario) = scenario_fields(&v, "")?;
        let synth = synth_field(&v, "", scenario.synth.clone())?;
        let static_only = opt_bool(&v, "", "static_only")?.unwrap_or(false);
        Ok(AnalyzeRequest {
            kernel,
            scale,
            scenario,
            synth,
            static_only,
            isa: isa_field(&v, "")?,
            scenario_canonical,
        })
    }

    /// The canonical request string (the cache/coalescing key). The traced
    /// differential is deterministic, so the body stays a pure function of
    /// this key even with `static_only = false`.
    #[must_use]
    pub fn canonical(&self) -> String {
        format!(
            "analyze|kernel={}|n={}|{}|static={}|synth={}{}",
            self.kernel.name(),
            self.scale.n,
            self.scenario_canonical,
            self.static_only,
            synth_key(&self.synth),
            isa_suffix(self.isa.as_ref()),
        )
    }
}

/// A validated `POST /sweep` request.
#[derive(Clone, Debug)]
pub struct SweepRequest {
    /// Kernels to sweep (defaults to the full suite).
    pub kernels: Vec<Kernel>,
    /// Workload scale.
    pub scale: Scale,
    /// The grid to measure.
    pub matrix: ScenarioMatrix,
    /// Synthesis options shared by every point.
    pub synth: SynthOptions,
    /// A replacement ISA catalog, or `None` for the shipped one.
    pub isa: Option<Arc<SpecCatalog>>,
    canonical: String,
}

impl SweepRequest {
    /// Parses and validates a request body.
    ///
    /// # Errors
    ///
    /// A structured [`ApiError`] naming the offending field.
    pub fn from_body(body: &str) -> Result<SweepRequest, ApiError> {
        let v = parse_body(body)?;
        reject_unknown(
            &v,
            "",
            &[
                "kernels",
                "scale",
                "scenario",
                "icache_bytes",
                "tech",
                "synth",
                "isa",
            ],
        )?;
        let scale = scale_field(&v, "")?;

        let kernels = kernels_field(&v, Ok(Kernel::ALL.to_vec()))?;

        let preset = opt_str(&v, "", "scenario")?.unwrap_or("sa1100").to_string();
        let base = ScenarioSpec::preset(&preset).ok_or_else(|| {
            ApiError::new(
                "bad_value",
                "/scenario",
                format!(
                    "unknown scenario preset {preset:?} (presets: {})",
                    PRESET_NAMES.join(" ")
                ),
            )
        })?;

        let sizes: Vec<u32> = match v.get("icache_bytes") {
            None => vec![16 * 1024, 8 * 1024],
            Some(Value::Arr(items)) => {
                if items.is_empty() || items.len() > MAX_SWEEP_SIZES {
                    return Err(ApiError::new(
                        "bad_value",
                        "/icache_bytes",
                        format!("expected 1..={MAX_SWEEP_SIZES} sizes"),
                    ));
                }
                let mut sizes = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    let n = item.as_f64().ok_or_else(|| {
                        ApiError::new(
                            "bad_type",
                            &format!("/icache_bytes/{i}"),
                            "expected a number",
                        )
                    })?;
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    let bytes = n as u32;
                    if n.fract() != 0.0 || !(256.0..=16_777_216.0).contains(&n) {
                        return Err(ApiError::new(
                            "bad_value",
                            &format!("/icache_bytes/{i}"),
                            format!("expected an integer byte count in [256, 2^24], got {n}"),
                        ));
                    }
                    sizes.push(bytes);
                }
                sizes
            }
            Some(_) => {
                return Err(ApiError::new(
                    "bad_type",
                    "/icache_bytes",
                    "expected an array",
                ))
            }
        };

        let tech_names: Vec<String> = match v.get("tech") {
            None => vec![base.tech_name.clone()],
            Some(Value::Arr(items)) => {
                if items.is_empty() {
                    return Err(ApiError::new(
                        "bad_value",
                        "/tech",
                        "tech list must not be empty",
                    ));
                }
                let mut names = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    let name = item.as_str().ok_or_else(|| {
                        ApiError::new("bad_type", &format!("/tech/{i}"), "expected a string")
                    })?;
                    if tech_preset(name).is_none() {
                        return Err(ApiError::new(
                            "bad_value",
                            &format!("/tech/{i}"),
                            format!(
                                "unknown tech node {:?} (nodes: {})",
                                excerpt(name),
                                TECH_NAMES.join(" ")
                            ),
                        ));
                    }
                    names.push(name.to_string());
                }
                names
            }
            Some(_) => return Err(ApiError::new("bad_type", "/tech", "expected an array")),
        };

        let synth = synth_field(&v, "", base.synth.clone())?;
        let isa = isa_field(&v, "")?;
        let nodes: Vec<(String, fits_power::TechParams)> = tech_names
            .iter()
            .map(|name| {
                let params = tech_preset(name).unwrap_or_else(|| base.tech.clone());
                (name.clone(), params)
            })
            .collect();
        let matrix = ScenarioMatrix::grid(&base, &sizes, &nodes)
            .map_err(|e| ApiError::new("bad_value", "/icache_bytes", e.to_string()))?;

        let canonical = format!(
            "sweep|kernels={}|n={}|preset={}|sizes={}|tech={}|synth={}{}",
            kernels
                .iter()
                .map(|k| k.name())
                .collect::<Vec<_>>()
                .join("+"),
            scale.n,
            preset,
            sizes
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(","),
            tech_names.join(","),
            synth_key(&synth),
            isa_suffix(isa.as_ref()),
        );
        Ok(SweepRequest {
            kernels,
            scale,
            matrix,
            synth,
            isa,
            canonical,
        })
    }

    /// The canonical request string (the cache/coalescing key).
    #[must_use]
    pub fn canonical(&self) -> String {
        self.canonical.clone()
    }
}

/// A validated `POST /synthesize-multi` request: one *shared* FITS ISA
/// synthesized from the merged profile of a kernel set, with per-kernel
/// regression bounds, priced at the SA-1100 reference scenario.
///
/// The member list is sorted by kernel name and the weight vector is
/// canonicalized ([`fits_core::canonical_weights`]) before the cache key
/// is built, so `{a, b}` and `{b, a}` share a key, `{1, 1}` and `{2, 2}`
/// share a key, and zero-weight members vanish from both the key and the
/// response (a request with an extra zero-weight kernel *is* the smaller
/// request).
#[derive(Clone, Debug)]
pub struct SynthesizeMultiRequest {
    /// Retained member kernels, sorted by name.
    pub kernels: Vec<Kernel>,
    /// Canonical integer weights, aligned with `kernels`.
    pub weights: Vec<u64>,
    /// Workload scale.
    pub scale: Scale,
    /// Per-kernel regression bound (dynamic expansion vs. the per-app
    /// optimum).
    pub epsilon: f64,
    /// Synthesis options shared by the merged synthesis and the per-app
    /// baselines.
    pub synth: SynthOptions,
    /// A replacement ISA catalog, or `None` for the shipped one.
    pub isa: Option<Arc<SpecCatalog>>,
}

impl SynthesizeMultiRequest {
    /// Parses and validates a request body.
    ///
    /// # Errors
    ///
    /// A structured [`ApiError`] naming the offending field. Degenerate
    /// weight vectors (all-zero, negative, non-finite) are `bad_value`
    /// rejections at `/weights`, never panics.
    pub fn from_body(body: &str) -> Result<SynthesizeMultiRequest, ApiError> {
        let v = parse_body(body)?;
        reject_unknown(
            &v,
            "",
            &["kernels", "weights", "scale", "epsilon", "synth", "isa"],
        )?;
        let raw_kernels = kernels_field(
            &v,
            Err(ApiError::new(
                "missing_field",
                "/kernels",
                "a kernel list is required",
            )),
        )?;
        let raw_weights: Vec<f64> = match v.get("weights") {
            None => vec![1.0; raw_kernels.len()],
            Some(Value::Arr(items)) => {
                if items.len() != raw_kernels.len() {
                    return Err(ApiError::new(
                        "bad_value",
                        "/weights",
                        format!("{} weights for {} kernels", items.len(), raw_kernels.len()),
                    ));
                }
                let mut weights = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    weights.push(item.as_f64().ok_or_else(|| {
                        ApiError::new("bad_type", &format!("/weights/{i}"), "expected a number")
                    })?);
                }
                weights
            }
            Some(_) => return Err(ApiError::new("bad_type", "/weights", "expected an array")),
        };

        // Sort members by kernel name, then canonicalize the weights in
        // that order: the cache key must not depend on request spelling.
        let mut paired: Vec<(Kernel, f64)> = raw_kernels.into_iter().zip(raw_weights).collect();
        paired.sort_by_key(|(k, _)| k.name());
        let sorted_weights: Vec<f64> = paired.iter().map(|(_, w)| *w).collect();
        let canon = fits_core::canonical_weights(&sorted_weights)
            .map_err(|e| ApiError::new("bad_value", "/weights", e.to_string()))?;
        let kernels: Vec<Kernel> = paired
            .iter()
            .enumerate()
            .filter(|(i, _)| !canon.dropped.contains(i))
            .map(|(_, (k, _))| *k)
            .collect();
        // `canonical_weights` keeps dropped positions as zeros so callers
        // can line warnings up with inputs; the cache key must not.
        let weights: Vec<u64> = canon
            .weights
            .iter()
            .enumerate()
            .filter(|(i, _)| !canon.dropped.contains(i))
            .map(|(_, &w)| w)
            .collect();

        let epsilon = opt_f64(&v, "", "epsilon")?.unwrap_or(1.0);
        if !epsilon.is_finite() || !(-1.0..=100.0).contains(&epsilon) {
            return Err(ApiError::new(
                "bad_value",
                "/epsilon",
                format!("expected a number in [-1, 100], got {epsilon}"),
            ));
        }

        Ok(SynthesizeMultiRequest {
            kernels,
            weights,
            scale: scale_field(&v, "")?,
            epsilon,
            synth: synth_field(&v, "", SynthOptions::default())?,
            isa: isa_field(&v, "")?,
        })
    }

    /// The canonical request string (the cache/coalescing key): sorted
    /// member names plus the *canonical* weight vector, so proportional
    /// weight spellings coalesce onto one execution.
    #[must_use]
    pub fn canonical(&self) -> String {
        format!(
            "synthesize-multi|kernels={}|w={}|n={}|eps={:.6}|synth={}{}",
            self.kernels
                .iter()
                .map(|k| k.name())
                .collect::<Vec<_>>()
                .join("+"),
            self.weights
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(","),
            self.scale.n,
            self.epsilon,
            synth_key(&self.synth),
            isa_suffix(self.isa.as_ref()),
        )
    }
}

// ---------------------------------------------------------------- responses

fn saving(ours: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        1.0 - ours / base
    }
}

fn synth_json(options: &SynthOptions) -> String {
    format!(
        "{{\"toggle_aware\": {}, \"reg_bits\": {}, \"space_budget\": {:.6}, \"max_dict_bits\": {}}}",
        options.toggle_aware, options.reg_bits, options.space_budget, options.max_dict_bits,
    )
}

/// Computes the `/synthesize` response body — a pure function of the
/// request given a deterministic pipeline, shared by the daemon and the
/// differential tests.
///
/// # Errors
///
/// Propagates pipeline failures ([`ExperimentError`]), reported as 500s.
pub fn synthesize_body(
    artifacts: &Artifacts,
    req: &SynthesizeRequest,
) -> Result<String, ExperimentError> {
    let program = artifacts.program(req.kernel, req.scale)?;
    let flow = artifacts.flow(req.kernel, req.scale)?;
    let thumb = artifacts.thumb(req.kernel, req.scale)?;
    Ok(format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"endpoint\": \"synthesize\",\n  \
         \"kernel\": \"{kernel}\",\n  \"scale_n\": {n},\n  \"synth\": {synth},\n  \
         \"arm_code_bytes\": {arm},\n  \"thumb_code_bytes\": {thumb},\n  \
         \"fits_code_bytes\": {fits},\n  \"code_ratio\": {ratio:.6},\n  \
         \"mapping_static\": {ms:.6},\n  \"mapping_dynamic\": {md:.6},\n  \
         \"config_bits\": {bits},\n  \"iterations\": {iters}\n}}\n",
        kernel = escape(req.kernel.name()),
        n = req.scale.n,
        synth = synth_json(&req.synth),
        arm = program.code_bytes(),
        thumb = thumb.code_bytes(),
        fits = flow.fits.code_bytes(),
        ratio = flow.code_ratio(program.code_bytes()),
        ms = flow.mapping.static_one_to_one_rate(),
        md = flow.dynamic_rate(),
        bits = flow.fits.config.config_bits(),
        iters = flow.iterations,
    ))
}

/// Computes the `/simulate` response body (both ISAs at one machine
/// point, per-ISA numbers in the sweep schema's shape).
///
/// # Errors
///
/// Propagates pipeline failures ([`ExperimentError`]), reported as 500s.
pub fn simulate_body(
    artifacts: &Artifacts,
    req: &SimulateRequest,
) -> Result<String, ExperimentError> {
    let matrix = ScenarioMatrix {
        scenarios: vec![req.scenario.clone()],
    };
    let mut runs = run_kernel_scenarios(artifacts, req.kernel, req.scale, &matrix)?;
    let run = runs.remove(0);
    let arm = fits_bench::IsaAggregate::from_run(&run.arm);
    let fits = fits_bench::IsaAggregate::from_run(&run.fits);
    Ok(format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"endpoint\": \"simulate\",\n  \
         \"kernel\": \"{kernel}\",\n  \"scale_n\": {n},\n  \"scenario\": \"{id}\",\n  \
         \"icache_bytes\": {bytes},\n  \"tech\": \"{tech}\",\n  \"arm\": {arm},\n  \
         \"fits\": {fits},\n  \"icache_saving\": {isave:.6},\n  \"chip_saving\": {csave:.6}\n}}\n",
        kernel = escape(req.kernel.name()),
        n = req.scale.n,
        id = escape(run.scenario.id()),
        bytes = run.scenario.icache.size_bytes,
        tech = escape(&run.scenario.tech_name),
        arm = isa_json(&arm),
        fits = isa_json(&fits),
        isave = saving(fits.icache_j(), arm.icache_j()),
        csave = saving(fits.chip_j, arm.chip_j),
    ))
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
pub fn analyze_body(
    artifacts: &Artifacts,
    req: &AnalyzeRequest,
) -> Result<String, ExperimentError> {
    let report = cache_bounds_report_with(
        artifacts,
        &[req.kernel],
        &req.scenario,
        req.scale,
        !req.static_only,
    )?;
    Ok(format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"endpoint\": \"analyze\",\n  \
         \"kernel\": \"{kernel}\",\n  \"scale_n\": {n},\n  \"scenario\": \"{id}\",\n  \
         \"traced\": {traced},\n  \"sound\": {sound},\n  \"report\": {report}\n}}\n",
        kernel = escape(req.kernel.name()),
        n = req.scale.n,
        id = escape(req.scenario.id()),
        traced = !req.static_only,
        sound = report.is_sound(),
        report = report.render_json(),
    ))
}

/// Computes the `/sweep` response body. Unlike the `fitssweep` archive
/// this carries no provenance stamp — responses must stay pure functions
/// of the request for the cache to be sound.
///
/// # Errors
///
/// Propagates pipeline failures ([`ExperimentError`]), reported as 500s.
pub fn sweep_body(artifacts: &Artifacts, req: &SweepRequest) -> Result<String, ExperimentError> {
    let results = fits_bench::run_sweep_with(artifacts, &req.kernels, req.scale, &req.matrix)?;
    let kernels: Vec<String> = results
        .kernels
        .iter()
        .map(|k| format!("\"{}\"", escape(k.name())))
        .collect();
    let sizes: Vec<String> = results
        .icache_sizes
        .iter()
        .map(ToString::to_string)
        .collect();
    let tech: Vec<String> = results
        .tech_names
        .iter()
        .map(|t| format!("\"{}\"", escape(t)))
        .collect();
    let scenarios: Vec<String> = results
        .points
        .iter()
        .map(|p| {
            format!(
                "    {{\"id\": \"{id}\", \"icache_bytes\": {bytes}, \"tech\": \"{tech}\", \
                 \"arm\": {arm}, \"fits\": {fits}, \"icache_saving\": {isave:.6}, \
                 \"chip_saving\": {csave:.6}}}",
                id = escape(&p.id),
                bytes = p.icache_bytes,
                tech = escape(&p.tech_name),
                arm = isa_json(&p.arm),
                fits = isa_json(&p.fits),
                isave = p.icache_saving(),
                csave = p.chip_saving(),
            )
        })
        .collect();
    Ok(format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"endpoint\": \"sweep\",\n  \"scale_n\": {n},\n  \
         \"executions_per_kernel\": {execs},\n  \"kernels\": [{kernels}],\n  \
         \"grid\": {{\"icache_bytes\": [{sizes}], \"tech\": [{tech}]}},\n  \
         \"scenarios\": [\n{scenarios}\n  ]\n}}\n",
        n = results.scale.n,
        execs = results.executions_per_kernel,
        kernels = kernels.join(", "),
        sizes = sizes.join(", "),
        tech = tech.join(", "),
        scenarios = scenarios.join(",\n"),
    ))
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
pub fn synthesize_multi_body(
    artifacts: &Artifacts,
    req: &SynthesizeMultiRequest,
) -> Result<String, ExperimentError> {
    let scenario = ScenarioSpec::sa1100();
    let head = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"endpoint\": \"synthesize-multi\",\n  \
         \"kernels\": [{kernels}],\n  \"weights\": [{weights}],\n  \"scale_n\": {n},\n  \
         \"epsilon\": {eps:.6},\n  \"synth\": {synth}",
        kernels = req
            .kernels
            .iter()
            .map(|k| format!("\"{}\"", escape(k.name())))
            .collect::<Vec<_>>()
            .join(", "),
        weights = req
            .weights
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        n = req.scale.n,
        eps = req.epsilon,
        synth = synth_json(&req.synth),
    );

    let programs: Vec<_> = req
        .kernels
        .iter()
        .map(|&k| artifacts.program(k, req.scale))
        .collect::<Result<_, _>>()?;
    let profiles: Vec<_> = req
        .kernels
        .iter()
        .map(|&k| artifacts.profile(k, req.scale))
        .collect::<Result<_, _>>()?;
    let members: Vec<MultiMember<'_>> = req
        .kernels
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
    let weights: Vec<f64> = req.weights.iter().map(|&w| w as f64).collect();
    let options = MultiOptions {
        synth: req.synth.clone(),
        epsilon: req.epsilon,
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
            return Ok(format!(
                "{head},\n  \"accepted\": false,\n  \"rejected\": {{\"member\": \"{m}\", \
                 \"solo_expansion\": {solo:.6}, \"shared_expansion\": {shared:.6}, \
                 \"epsilon\": {epsilon:.6}}}\n}}\n",
                m = escape(&member),
            ))
        }
        Err(e) => return Err(ExperimentError::Multi(e)),
    };

    // Per-member pricing: the shared binary through the same replay path
    // as the library report, the solo baseline from the shared artifact
    // cache.
    let matrix = ScenarioMatrix {
        scenarios: vec![scenario.clone()],
    };
    let mut member_bodies = Vec::with_capacity(outcome.members.len());
    for (kernel, m) in req.kernels.iter().zip(&outcome.members) {
        let shared_run = price_shared_member(&m.translation.fits, &scenario)?;
        let mut solo_runs = run_kernel_scenarios(artifacts, *kernel, req.scale, &matrix)?;
        let solo_run = solo_runs.remove(0).fits;
        let shared = fits_bench::IsaAggregate::from_run(&shared_run);
        let solo = fits_bench::IsaAggregate::from_run(&solo_run);
        member_bodies.push(format!(
            "    {{\"kernel\": \"{kernel}\", \"solo_code_bytes\": {scb}, \
             \"shared_code_bytes\": {hcb}, \"regression\": {reg:.6}, \
             \"solo\": {solo}, \"shared\": {shared}}}",
            kernel = escape(&m.name),
            scb = m.solo_code_bytes,
            hcb = m.translation.fits.code_bytes(),
            reg = m.regression,
            solo = isa_json(&solo),
            shared = isa_json(&shared),
        ));
    }

    Ok(format!(
        "{head},\n  \"accepted\": true,\n  \"merged_profile\": \"{hash}\",\n  \
         \"shared\": {{\"code_bytes\": {code}, \"config_bits\": {bits}, \
         \"decoder_slots\": {slots}, \"iterations\": {iters}}},\n  \
         \"members\": [\n{members}\n  ]\n}}\n",
        hash = escape(&outcome.merged_hash),
        code = outcome.shared_code_bytes(),
        bits = outcome.synthesis.config.config_bits(),
        slots = outcome.synthesis.config.ops.len(),
        iters = outcome.iterations,
        members = member_bodies.join(",\n"),
    ))
}

/// Version of the `powerfits-serve-v1` response contract reported by
/// `/healthz` (bumped when response shapes change within the same schema
/// string; `fitsctl wait` asserts it).
pub const SCHEMA_VERSION: u64 = 3;

/// The `GET /healthz` body. `uptime_s` is seconds since the daemon
/// started; `commit` is the build's git revision (or `"unknown"`).
#[must_use]
pub fn healthz_body(uptime_s: u64, commit: &str) -> String {
    let presets: Vec<String> = PRESET_NAMES
        .iter()
        .map(|p| format!("\"{}\"", escape(p)))
        .collect();
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"endpoint\": \"healthz\",\n  \
         \"status\": \"ok\",\n  \"schema_version\": {SCHEMA_VERSION},\n  \
         \"uptime_s\": {uptime_s},\n  \"commit\": \"{}\",\n  \
         \"kernels\": {},\n  \"presets\": [{}]\n}}\n",
        escape(commit),
        Kernel::ALL.len(),
        presets.join(", "),
    )
}

/// The 500 body for a pipeline failure.
#[must_use]
pub fn internal_error_body(err: &ExperimentError) -> String {
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"endpoint\": \"error\",\n  \"error\": {{\
         \"code\": \"internal\", \"pointer\": \"\", \"message\": \"{}\"}}\n}}\n",
        escape(&err.to_string()),
    )
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

/// Dispatches a parsed POST request: canonical key plus the computation to
/// run on miss. The server's cache/coalesce layer wraps this.
pub enum PostRequest {
    /// `POST /synthesize`.
    Synthesize(SynthesizeRequest),
    /// `POST /simulate`.
    Simulate(Box<SimulateRequest>),
    /// `POST /analyze`.
    Analyze(Box<AnalyzeRequest>),
    /// `POST /sweep`.
    Sweep(SweepRequest),
    /// `POST /synthesize-multi`.
    SynthesizeMulti(SynthesizeMultiRequest),
}

impl PostRequest {
    /// Parses the body for `target` (`"/synthesize"` etc.).
    ///
    /// # Errors
    ///
    /// A structured [`ApiError`]; `None` canonical target returns
    /// `Err(None)`-free: unknown targets are handled by the router before
    /// this is called.
    pub fn from_target(target: &str, body: &str) -> Result<Option<PostRequest>, ApiError> {
        match target {
            "/synthesize" => Ok(Some(PostRequest::Synthesize(SynthesizeRequest::from_body(
                body,
            )?))),
            "/simulate" => Ok(Some(PostRequest::Simulate(Box::new(
                SimulateRequest::from_body(body)?,
            )))),
            "/analyze" => Ok(Some(PostRequest::Analyze(Box::new(
                AnalyzeRequest::from_body(body)?,
            )))),
            "/sweep" => Ok(Some(PostRequest::Sweep(SweepRequest::from_body(body)?))),
            "/synthesize-multi" => Ok(Some(PostRequest::SynthesizeMulti(
                SynthesizeMultiRequest::from_body(body)?,
            ))),
            _ => Ok(None),
        }
    }

    /// The canonical request string.
    #[must_use]
    pub fn canonical(&self) -> String {
        match self {
            PostRequest::Synthesize(r) => r.canonical(),
            PostRequest::Simulate(r) => r.canonical(),
            PostRequest::Analyze(r) => r.canonical(),
            PostRequest::Sweep(r) => r.canonical(),
            PostRequest::SynthesizeMulti(r) => r.canonical(),
        }
    }

    /// The synthesis options of the request (selects the [`Artifacts`]
    /// cache in the pool).
    #[must_use]
    pub fn synth(&self) -> &SynthOptions {
        match self {
            PostRequest::Synthesize(r) => &r.synth,
            PostRequest::Simulate(r) => &r.synth,
            PostRequest::Analyze(r) => &r.synth,
            PostRequest::Sweep(r) => &r.synth,
            PostRequest::SynthesizeMulti(r) => &r.synth,
        }
    }

    /// The replacement ISA catalog of the request, if any (selects the
    /// [`Artifacts`] cache in the pool together with
    /// [`PostRequest::synth`]).
    #[must_use]
    pub fn isa(&self) -> Option<&Arc<SpecCatalog>> {
        match self {
            PostRequest::Synthesize(r) => r.isa.as_ref(),
            PostRequest::Simulate(r) => r.isa.as_ref(),
            PostRequest::Analyze(r) => r.isa.as_ref(),
            PostRequest::Sweep(r) => r.isa.as_ref(),
            PostRequest::SynthesizeMulti(r) => r.isa.as_ref(),
        }
    }

    /// Runs the computation against an artifact cache configured for
    /// [`PostRequest::synth`].
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures ([`ExperimentError`]).
    pub fn compute(&self, artifacts: &Artifacts) -> Result<String, ExperimentError> {
        match self {
            PostRequest::Synthesize(r) => synthesize_body(artifacts, r),
            PostRequest::Simulate(r) => simulate_body(artifacts, r),
            PostRequest::Analyze(r) => analyze_body(artifacts, r),
            PostRequest::Sweep(r) => sweep_body(artifacts, r),
            PostRequest::SynthesizeMulti(r) => synthesize_multi_body(artifacts, r),
        }
    }
}

/// Shared artifact-pool handle the server threads use.
pub type SharedArtifacts = Arc<fits_bench::ArtifactsPool>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_parse_from_an_empty_body() {
        let req = SynthesizeRequest::from_body("{\"kernel\": \"crc32\"}").unwrap();
        assert_eq!(req.kernel, Kernel::Crc32);
        assert_eq!(req.scale.n, Scale::test().n);
        assert_eq!(
            req.canonical(),
            "synthesize|kernel=crc32|n=64|synth=toggle:1,reg:4,space:1.000000,dict:6"
        );
        let sim = SimulateRequest::from_body("{\"kernel\": \"sha\"}").unwrap();
        assert_eq!(sim.scenario.id(), "sa1100-i16k");
        let sweep = SweepRequest::from_body("").unwrap();
        assert_eq!(sweep.kernels.len(), Kernel::ALL.len());
        assert_eq!(sweep.matrix.len(), 2, "default grid: two sizes, one node");
    }

    #[test]
    fn structured_errors_point_at_the_offending_field() {
        let err = SynthesizeRequest::from_body("{\"kernel\": \"nope\"}").unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/kernel"));
        let err = SynthesizeRequest::from_body("{}").unwrap_err();
        assert_eq!(
            (err.code, err.pointer.as_str()),
            ("missing_field", "/kernel")
        );
        let err = SynthesizeRequest::from_body("not json").unwrap_err();
        assert_eq!(err.code, "parse");
        let err = SynthesizeRequest::from_body("{\"kernel\": \"crc32\", \"scal\": 2}").unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("unknown_field", "/scal"));
        let err = SynthesizeRequest::from_body("{\"kernel\": \"crc32\", \"scale\": 9999999}")
            .unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/scale"));
        let err =
            SynthesizeRequest::from_body("{\"kernel\": \"crc32\", \"synth\": {\"reg_bits\": 7}}")
                .unwrap_err();
        assert_eq!(
            (err.code, err.pointer.as_str()),
            ("bad_value", "/synth/reg_bits")
        );
        let err =
            SimulateRequest::from_body("{\"kernel\": \"crc32\", \"tech\": \"3nm\"}").unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/tech"));
        let err = SimulateRequest::from_body("{\"kernel\": \"crc32\", \"icache_bytes\": 1000}")
            .unwrap_err();
        assert_eq!(err.pointer, "/icache_bytes");
        // Every rejection renders as a schema-valid error body.
        assert_eq!(validate_serve_json(&err.body()).unwrap(), "error");
    }

    #[test]
    fn oversized_request_text_is_quoted_not_echoed() {
        let huge = "k".repeat(256 * 1024);
        let errors = [
            (
                SynthesizeRequest::from_body(&format!("{{\"kernel\": \"{huge}\"}}")).unwrap_err(),
                "/kernel",
            ),
            (
                SynthesizeRequest::from_body(&format!(
                    "{{\"kernel\": \"crc32\", \"isa\": \"{huge}\"}}"
                ))
                .unwrap_err(),
                "/isa",
            ),
            (
                SweepRequest::from_body(&format!("{{\"kernels\": [\"{huge}\"]}}")).unwrap_err(),
                "/kernels/0",
            ),
        ];
        for (err, pointer) in errors {
            assert_eq!((err.code, err.pointer.as_str()), ("bad_value", pointer));
            let body = err.body();
            assert!(body.len() < 1024, "{pointer}: {} byte body", body.len());
            assert!(body.contains("(262144 bytes)"), "{body}");
            assert_eq!(validate_serve_json(&body).unwrap(), "error");
        }
    }

    #[test]
    fn canonical_keys_separate_distinct_requests() {
        let a = SimulateRequest::from_body("{\"kernel\": \"crc32\"}").unwrap();
        let b = SimulateRequest::from_body(
            "{\"kernel\": \"crc32\", \"scenario\": \"small-embedded\", \"icache_bytes\": 8192}",
        )
        .unwrap();
        let c =
            SimulateRequest::from_body("{\"kernel\": \"crc32\", \"icache_bytes\": 8192}").unwrap();
        assert_ne!(a.canonical(), b.canonical());
        // Same derived id family would collide; the canonical key must not.
        assert_ne!(b.canonical(), c.canonical());
        // Identical requests written with different whitespace/field order
        // share a key.
        let d = SimulateRequest::from_body("{  \"icache_bytes\": 8192, \"kernel\": \"crc32\" }")
            .unwrap();
        assert_eq!(c.canonical(), d.canonical());
    }

    #[test]
    fn isa_field_selects_and_keys_the_catalog() {
        use fits_isa::spec::AR32_SPEC_TEXT;
        // "builtin", an omitted field, and text hash-identical to the
        // shipped spec all share the default canonical key.
        let default = SynthesizeRequest::from_body("{\"kernel\": \"crc32\"}").unwrap();
        let named =
            SynthesizeRequest::from_body("{\"kernel\": \"crc32\", \"isa\": \"builtin\"}").unwrap();
        assert!(named.isa.is_none());
        assert_eq!(default.canonical(), named.canonical());
        let verbatim = SynthesizeRequest::from_body(&format!(
            "{{\"kernel\": \"crc32\", \"isa\": \"{}\"}}",
            escape(AR32_SPEC_TEXT)
        ))
        .unwrap();
        assert!(verbatim.isa.is_none());
        assert_eq!(verbatim.canonical(), default.canonical());
        // A respelled document is a different machine description: it gets
        // its own catalog and a content-hashed canonical key.
        let respelled = AR32_SPEC_TEXT.replace(
            "# --- branches and traps ---",
            "# --- branches and traps (respelled) ---",
        );
        assert_ne!(respelled, AR32_SPEC_TEXT, "mutation needle went stale");
        let custom = SynthesizeRequest::from_body(&format!(
            "{{\"kernel\": \"crc32\", \"isa\": \"{}\"}}",
            escape(&respelled)
        ))
        .unwrap();
        let catalog = custom.isa.clone().expect("a custom catalog");
        assert!(custom
            .canonical()
            .contains(&format!("|isa={}", catalog.hash_hex())));
        assert_ne!(custom.canonical(), default.canonical());
        // The other three endpoints key on it the same way.
        let sim = SimulateRequest::from_body(&format!(
            "{{\"kernel\": \"crc32\", \"isa\": \"{}\"}}",
            escape(&respelled)
        ))
        .unwrap();
        assert!(sim.canonical().contains("|isa="));
        let sweep = SweepRequest::from_body(&format!(
            "{{\"kernels\": [\"crc32\"], \"isa\": \"{}\"}}",
            escape(&respelled)
        ))
        .unwrap();
        assert!(sweep.canonical().contains("|isa="));
    }

    #[test]
    fn bad_isa_specs_are_rejected_before_any_work() {
        use fits_isa::spec::{AR32_SPEC_TEXT, T16_SPEC_TEXT};
        // Unparseable text is a structured 400 at /isa.
        let err =
            SynthesizeRequest::from_body("{\"kernel\": \"crc32\", \"isa\": \"isa broken {\"}")
                .unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/isa"));
        // A 16-bit spec cannot replace the 32-bit execution ISA.
        let err = SynthesizeRequest::from_body(&format!(
            "{{\"kernel\": \"crc32\", \"isa\": \"{}\"}}",
            escape(T16_SPEC_TEXT)
        ))
        .unwrap_err();
        assert!(err.message.contains("word-width"), "{}", err.message);
        // A spec the ISA lint family rejects never reaches the pipeline.
        let unbound = AR32_SPEC_TEXT.replace("form swi", "form swj");
        let err = SynthesizeRequest::from_body(&format!(
            "{{\"kernel\": \"crc32\", \"isa\": \"{}\"}}",
            escape(&unbound)
        ))
        .unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/isa"));
        assert!(err.message.contains("ISA004"), "{}", err.message);
        assert_eq!(validate_serve_json(&err.body()).unwrap(), "error");
    }

    #[test]
    fn sweep_request_builds_the_grid() {
        let req = SweepRequest::from_body(
            "{\"kernels\": [\"crc32\", \"sha\"], \"scale\": 64, \
             \"icache_bytes\": [16384, 8192], \"tech\": [\"sa1100\", \"65nm\"]}",
        )
        .unwrap();
        assert_eq!(req.kernels, vec![Kernel::Crc32, Kernel::Sha]);
        assert_eq!(req.matrix.len(), 4);
        assert!(req.canonical().contains("kernels=crc32+sha"));
        let err = SweepRequest::from_body("{\"kernels\": [\"crc32\", \"crc32\"]}").unwrap_err();
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
        let traced = AnalyzeRequest::from_body("{\"kernel\": \"crc32\"}").unwrap();
        assert!(!traced.static_only);
        assert_eq!(traced.scenario.id(), "sa1100-i16k");
        let fast =
            AnalyzeRequest::from_body("{\"kernel\": \"crc32\", \"static_only\": true}").unwrap();
        // Same machine point, different computation — distinct cache keys.
        assert_ne!(traced.canonical(), fast.canonical());
        let err =
            AnalyzeRequest::from_body("{\"kernel\": \"crc32\", \"static_only\": 1}").unwrap_err();
        assert_eq!(
            (err.code, err.pointer.as_str()),
            ("bad_type", "/static_only")
        );
        let err =
            AnalyzeRequest::from_body("{\"kernel\": \"crc32\", \"traced\": true}").unwrap_err();
        assert_eq!(err.code, "unknown_field");
    }

    #[test]
    fn multi_request_canonicalizes_members_and_weights() {
        // Member order and proportional weight spellings must not split
        // the cache: all four of these are the same computation.
        let a = SynthesizeMultiRequest::from_body("{\"kernels\": [\"crc32\", \"sha\"]}").unwrap();
        let b = SynthesizeMultiRequest::from_body("{\"kernels\": [\"sha\", \"crc32\"]}").unwrap();
        let c = SynthesizeMultiRequest::from_body(
            "{\"kernels\": [\"crc32\", \"sha\"], \"weights\": [2, 2]}",
        )
        .unwrap();
        let d = SynthesizeMultiRequest::from_body(
            "{\"kernels\": [\"crc32\", \"sha\"], \"weights\": [0.5, 0.5]}",
        )
        .unwrap();
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.canonical(), c.canonical());
        assert_eq!(a.canonical(), d.canonical());
        assert!(a
            .canonical()
            .starts_with("synthesize-multi|kernels=crc32+sha|w=1,1|"));
        // A zero-weight member vanishes: the padded request IS the
        // two-member request, key and all.
        let padded = SynthesizeMultiRequest::from_body(
            "{\"kernels\": [\"crc32\", \"fft\", \"sha\"], \"weights\": [3, 0, 3]}",
        )
        .unwrap();
        assert_eq!(padded.kernels, vec![Kernel::Crc32, Kernel::Sha]);
        assert_eq!(padded.canonical(), a.canonical());
        // Unequal weights are a genuinely different merged profile.
        let skewed = SynthesizeMultiRequest::from_body(
            "{\"kernels\": [\"crc32\", \"sha\"], \"weights\": [1, 3]}",
        )
        .unwrap();
        assert_ne!(skewed.canonical(), a.canonical());
        // ...and so is a different epsilon.
        let tight = SynthesizeMultiRequest::from_body(
            "{\"kernels\": [\"crc32\", \"sha\"], \"epsilon\": 0.25}",
        )
        .unwrap();
        assert_ne!(tight.canonical(), a.canonical());
    }

    #[test]
    fn multi_request_rejects_degenerate_inputs() {
        let err = SynthesizeMultiRequest::from_body("{}").unwrap_err();
        assert_eq!(
            (err.code, err.pointer.as_str()),
            ("missing_field", "/kernels")
        );
        let err = SynthesizeMultiRequest::from_body("{\"kernels\": []}").unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/kernels"));
        let err =
            SynthesizeMultiRequest::from_body("{\"kernels\": [\"crc32\", \"crc32\"]}").unwrap_err();
        assert_eq!(
            (err.code, err.pointer.as_str()),
            ("bad_value", "/kernels/1")
        );
        // Weight vector shape and content errors all point at /weights.
        let err = SynthesizeMultiRequest::from_body(
            "{\"kernels\": [\"crc32\", \"sha\"], \"weights\": [1]}",
        )
        .unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/weights"));
        let err = SynthesizeMultiRequest::from_body(
            "{\"kernels\": [\"crc32\", \"sha\"], \"weights\": [0, 0]}",
        )
        .unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/weights"));
        let err = SynthesizeMultiRequest::from_body(
            "{\"kernels\": [\"crc32\", \"sha\"], \"weights\": [1, -1]}",
        )
        .unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/weights"));
        let err = SynthesizeMultiRequest::from_body("{\"kernels\": [\"crc32\"], \"epsilon\": 200}")
            .unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/epsilon"));
        // Every rejection renders as a schema-valid error body.
        assert_eq!(validate_serve_json(&err.body()).unwrap(), "error");
    }

    #[test]
    fn multi_body_matches_the_library_pricing_bit_for_bit() {
        let req =
            SynthesizeMultiRequest::from_body("{\"kernels\": [\"bitcount\", \"crc32\"]}").unwrap();
        let artifacts = Artifacts::new().with_synth(req.synth.clone());
        let body = synthesize_multi_body(&artifacts, &req).unwrap();
        assert_eq!(validate_serve_json(&body).unwrap(), "synthesize-multi");
        assert!(body.contains("\"accepted\": true"));

        // Re-run the same synthesis through the library entry points and
        // demand the service body embeds the identical rendered numbers.
        let programs: Vec<_> = req
            .kernels
            .iter()
            .map(|&k| artifacts.program(k, req.scale).unwrap())
            .collect();
        let profiles: Vec<_> = req
            .kernels
            .iter()
            .map(|&k| artifacts.profile(k, req.scale).unwrap())
            .collect();
        let members: Vec<MultiMember<'_>> = req
            .kernels
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
            epsilon: req.epsilon,
            ..MultiOptions::default()
        };
        let outcome = synthesize_multi(&members, &[1.0, 1.0], &options).unwrap();
        assert!(body.contains(&format!("\"merged_profile\": \"{}\"", outcome.merged_hash)));
        let scenario = ScenarioSpec::sa1100();
        for m in &outcome.members {
            let run = price_shared_member(&m.translation.fits, &scenario).unwrap();
            let shared = fits_bench::IsaAggregate::from_run(&run);
            assert!(
                body.contains(&format!("\"shared\": {}", isa_json(&shared))),
                "service body drifted from library pricing for {}",
                m.name
            );
        }
        // Identical requests produce identical bytes on recomputation.
        assert_eq!(body, synthesize_multi_body(&artifacts, &req).unwrap());
    }

    #[test]
    fn multi_body_renders_a_regression_rejection_as_a_200() {
        let req = SynthesizeMultiRequest::from_body(
            "{\"kernels\": [\"bitcount\", \"crc32\"], \"epsilon\": -0.99}",
        )
        .unwrap();
        let artifacts = Artifacts::new().with_synth(req.synth.clone());
        let body = synthesize_multi_body(&artifacts, &req).unwrap();
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

        let req = SimulateRequest::from_body("{\"kernel\": \"crc32\"}").unwrap();
        let pool = fits_bench::ArtifactsPool::new();
        let artifacts = pool.for_config(&req.synth, req.isa.as_ref());
        let before = timed_executions_on_this_thread();
        let cold = simulate_body(&artifacts, &req).unwrap();
        assert_eq!(timed_executions_on_this_thread() - before, 2, "cold miss");
        let warm = simulate_body(&artifacts, &req).unwrap();
        assert_eq!(timed_executions_on_this_thread() - before, 4, "warm miss");
        assert_eq!(cold, warm);
    }

    #[test]
    fn analyze_body_validates_and_embeds_a_sound_report() {
        let req =
            AnalyzeRequest::from_body("{\"kernel\": \"crc32\", \"static_only\": true}").unwrap();
        let artifacts = Artifacts::new().with_synth(req.synth.clone());
        let body = analyze_body(&artifacts, &req).unwrap();
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
        rejects_every_mutant(&SynthesizeRequest::from_body("{}").unwrap_err().body());
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
        let req = SynthesizeRequest::from_body("{\"kernel\": \"crc32\"}").unwrap();
        let artifacts = Artifacts::new().with_synth(req.synth.clone());
        rejects_every_mutant(&synthesize_body(&artifacts, &req).unwrap());
        let req = SimulateRequest::from_body("{\"kernel\": \"crc32\"}").unwrap();
        let artifacts = Artifacts::new().with_synth(req.synth.clone());
        rejects_every_mutant(&simulate_body(&artifacts, &req).unwrap());
        let req = SweepRequest::from_body("{\"kernels\": [\"crc32\"], \"icache_bytes\": [8192]}")
            .unwrap();
        let artifacts = Artifacts::new().with_synth(req.synth.clone());
        rejects_every_mutant(&sweep_body(&artifacts, &req).unwrap());
        let req =
            AnalyzeRequest::from_body("{\"kernel\": \"crc32\", \"static_only\": true}").unwrap();
        let artifacts = Artifacts::new().with_synth(req.synth.clone());
        rejects_every_mutant(&analyze_body(&artifacts, &req).unwrap());
        for body in [
            "{\"kernels\": [\"bitcount\", \"crc32\"]}",
            "{\"kernels\": [\"bitcount\", \"crc32\"], \"epsilon\": -0.99}",
        ] {
            let req = SynthesizeMultiRequest::from_body(body).unwrap();
            let artifacts = Artifacts::new().with_synth(req.synth.clone());
            rejects_every_mutant(&synthesize_multi_body(&artifacts, &req).unwrap());
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
