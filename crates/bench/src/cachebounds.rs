//! Static I-cache bounds for whole kernels: the `CA` analysis from
//! `fits-verify` run over both instruction streams of every kernel,
//! audited, joined against a traced simulation, and rendered as text or as
//! a `powerfits-cache-bounds-v1` JSON report.
//!
//! This is the orchestration layer behind `fitslint --cache`: for one
//! [`ScenarioSpec`] it analyzes the native AR32 binary and the synthesized
//! FITS binary of each kernel against the scenario's I-cache geometry,
//! audits each analysis against independently rebuilt ground truth
//! (`CA001`–`CA003`), and — unless running static-only — executes a traced
//! simulation and checks the observed per-set hit/miss counters against
//! the static miss intervals ([`fits_obs::check_bounds`]). The per-access
//! energy extremes of the scenario's cache and tech node turn those
//! intervals into `[lower, upper]` fetch-energy envelopes per kernel and
//! per basic block — power bounds obtained without (or validated against)
//! simulation.

use fits_core::{decode_word, FitsOp, FitsSet};
use fits_kernels::kernels::{Kernel, Scale};
use fits_obs::{check_bounds, trace_timed_run, BoundsCheck};
use fits_power::{access_energy_bounds, AccessEnergyBounds};
use fits_scenario::ScenarioSpec;
use fits_sim::{Ar32Set, Machine};
use fits_verify::{
    analyze_fits_cache, analyze_native_cache, audit, fits_cfg, native_cfg, CacheAnalysis,
    Diagnostic,
};

use fits_obs::fmt::fmt_energy;
use fits_obs::json::escape;

use crate::artifacts::Artifacts;
use crate::experiment::{note_timed_execution, ExperimentError};

/// Full-precision JSON float; scientific notation keeps nano-joule block
/// energies exact (and is valid JSON), where fixed 6-decimal formatting
/// would flush them to zero.
fn json_energy(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_owned()
    }
}

/// One instruction stream's analysis, audit and (optional) dynamic join.
#[derive(Clone, Debug)]
pub struct StreamBounds {
    /// The static cache analysis.
    pub analysis: CacheAnalysis,
    /// `CA` audit findings against rebuilt ground truth (empty = sound).
    pub audit: Vec<Diagnostic>,
    /// The dynamic-vs-static join, when the run was traced.
    pub check: Option<BoundsCheck>,
}

impl StreamBounds {
    /// Whether the audit is clean and every traced observation landed
    /// inside its static interval.
    #[must_use]
    pub fn is_sound(&self) -> bool {
        self.audit.is_empty() && self.check.as_ref().is_none_or(BoundsCheck::is_sound)
    }
}

/// Both streams of one kernel under one scenario.
#[derive(Clone, Debug)]
pub struct KernelCacheBounds {
    /// The kernel.
    pub kernel: Kernel,
    /// The native AR32 stream.
    pub arm: StreamBounds,
    /// The synthesized FITS stream.
    pub fits: StreamBounds,
}

impl KernelCacheBounds {
    /// Whether both streams are sound.
    #[must_use]
    pub fn is_sound(&self) -> bool {
        self.arm.is_sound() && self.fits.is_sound()
    }
}

/// The full `fitslint --cache` report: every requested kernel analyzed
/// under one scenario, with the scenario's per-access energy extremes.
#[derive(Clone, Debug)]
pub struct CacheBoundsReport {
    /// The scenario id the analyses ran against.
    pub scenario: String,
    /// Kernel input scale.
    pub scale: Scale,
    /// Per-access fetch-energy extremes of the scenario's I-cache.
    pub energy: AccessEnergyBounds,
    /// Per-kernel results.
    pub kernels: Vec<KernelCacheBounds>,
}

/// Analyzes one kernel's two instruction streams under `spec`.
///
/// With `traced`, each stream is additionally executed under the
/// scenario's timing model with the trace collector attached and the
/// observed per-set counters are checked against the static bounds.
///
/// # Errors
///
/// Any [`ExperimentError`] from compilation, the FITS flow, binary
/// loading, or the traced simulation.
pub fn kernel_cache_bounds(
    arts: &Artifacts,
    kernel: Kernel,
    spec: &ScenarioSpec,
    scale: Scale,
    traced: bool,
) -> Result<KernelCacheBounds, ExperimentError> {
    let program = arts.program(kernel, scale)?;
    let flow = arts.flow(kernel, scale)?;
    let params = spec.icache_abstract();
    let cfg = spec.machine_config();

    let arm_analysis = analyze_native_cache(&program, params);
    let arm_audit = audit(&arm_analysis, &native_cfg(&program), &spec.icache);
    let arm_check = if traced {
        let mut m = Machine::new(Ar32Set::load(&program));
        note_timed_execution();
        let (_, _, trace) = trace_timed_run(&mut m, &cfg).map_err(ExperimentError::Sim)?;
        Some(check_bounds(
            &arm_analysis,
            &trace.cache.fetches,
            &trace.cache.icache_sets,
        ))
    } else {
        None
    };

    let ops: Vec<Option<FitsOp>> = flow
        .fits
        .instrs
        .iter()
        .enumerate()
        .map(|(j, &w)| decode_word(&flow.fits.config, w, j).ok())
        .collect();
    let targets = &flow.fits.config.dicts.target;
    let fits_analysis = analyze_fits_cache(&ops, flow.fits.entry, targets, params);
    let fits_audit = audit(
        &fits_analysis,
        &fits_cfg(&ops, flow.fits.entry, targets),
        &spec.icache,
    );
    let fits_check = if traced {
        let set = FitsSet::load(&flow.fits).map_err(ExperimentError::Decode)?;
        let mut m = Machine::new(set);
        note_timed_execution();
        let (_, _, trace) = trace_timed_run(&mut m, &cfg).map_err(ExperimentError::Sim)?;
        Some(check_bounds(
            &fits_analysis,
            &trace.cache.fetches,
            &trace.cache.icache_sets,
        ))
    } else {
        None
    };

    Ok(KernelCacheBounds {
        kernel,
        arm: StreamBounds {
            analysis: arm_analysis,
            audit: arm_audit,
            check: arm_check,
        },
        fits: StreamBounds {
            analysis: fits_analysis,
            audit: fits_audit,
            check: fits_check,
        },
    })
}

/// Analyzes a set of kernels under one scenario and assembles the report.
///
/// # Errors
///
/// The first [`ExperimentError`] any kernel raises.
pub fn cache_bounds_report(
    kernels: &[Kernel],
    spec: &ScenarioSpec,
    scale: Scale,
    traced: bool,
) -> Result<CacheBoundsReport, ExperimentError> {
    let arts = Artifacts::new().with_synth(spec.synth.clone());
    cache_bounds_report_with(&arts, kernels, spec, scale, traced)
}

/// [`cache_bounds_report`] against a caller-supplied artifact cache —
/// the entry point for callers that pool artifacts across requests (the
/// `fitsd` daemon's `/analyze` endpoint).
///
/// # Errors
///
/// The first [`ExperimentError`] any kernel raises.
pub fn cache_bounds_report_with(
    arts: &Artifacts,
    kernels: &[Kernel],
    spec: &ScenarioSpec,
    scale: Scale,
    traced: bool,
) -> Result<CacheBoundsReport, ExperimentError> {
    let mut out = Vec::with_capacity(kernels.len());
    for &kernel in kernels {
        out.push(kernel_cache_bounds(arts, kernel, spec, scale, traced)?);
    }
    Ok(CacheBoundsReport {
        scenario: spec.id().to_string(),
        scale,
        energy: access_energy_bounds(&spec.icache, &spec.tech),
        kernels: out,
    })
}

impl CacheBoundsReport {
    /// Whether every kernel's every stream is sound.
    #[must_use]
    pub fn is_sound(&self) -> bool {
        self.kernels.iter().all(KernelCacheBounds::is_sound)
    }

    /// Total audit findings plus dynamic bound violations.
    #[must_use]
    pub fn violation_count(&self) -> usize {
        self.kernels
            .iter()
            .flat_map(|k| [&k.arm, &k.fits])
            .map(|s| s.audit.len() + s.check.as_ref().map_or(0, |c| c.violations.len()))
            .sum()
    }

    /// Renders the report as human-readable text.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "cache bounds [{}] scale n={}, {} kernel(s)\n",
            self.scenario,
            self.scale.n,
            self.kernels.len()
        );
        for k in &self.kernels {
            out.push_str(&format!("{}\n", k.kernel.name()));
            for (tag, stream) in [("arm ", &k.arm), ("fits", &k.fits)] {
                out.push_str(&render_stream_text(tag, stream, &self.energy));
            }
        }
        out.push_str(&format!(
            "summary: {} ({} violation(s))\n",
            if self.is_sound() { "sound" } else { "UNSOUND" },
            self.violation_count()
        ));
        out
    }

    /// Renders the report as a `powerfits-cache-bounds-v1` JSON document.
    #[must_use]
    pub fn render_json(&self) -> String {
        let kernels: Vec<String> = self
            .kernels
            .iter()
            .map(|k| {
                format!(
                    "{{\"kernel\":\"{}\",\"arm\":{},\"fits\":{}}}",
                    escape(k.kernel.name()),
                    render_stream_json(&k.arm, &self.energy),
                    render_stream_json(&k.fits, &self.energy)
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"powerfits-cache-bounds-v1\",\"preset\":\"{}\",\"scale\":\"{}\",\
             \"kernels\":[{}],\"sound\":{}}}",
            escape(&self.scenario),
            self.scale.n,
            kernels.join(","),
            self.is_sound()
        )
    }
}

fn render_stream_text(tag: &str, stream: &StreamBounds, energy: &AccessEnergyBounds) -> String {
    let (hit, miss, persist, unknown, unreach) = stream.analysis.word_counts();
    let mut out = format!(
        "  {tag}: words {} = {hit} hit / {miss} miss / {persist} persistent / \
         {unknown} unknown / {unreach} unreachable; blocks {}; audit {}\n",
        stream.analysis.words.len(),
        stream.analysis.blocks.len(),
        if stream.audit.is_empty() {
            "clean".to_string()
        } else {
            format!("{} finding(s)", stream.audit.len())
        }
    );
    for d in &stream.audit {
        out.push_str(&format!("        {}: {}\n", d.code, d.message));
    }
    if let Some(check) = &stream.check {
        let (lo, hi) = check.miss_interval();
        let (e_lo, e_hi) = check.energy_envelope(energy);
        out.push_str(&format!(
            "        observed {} accesses, {} misses in [{lo}, {hi}]; \
             fetch energy [{}, {}]\n",
            check.accesses(),
            check.misses(),
            fmt_energy(e_lo),
            fmt_energy(e_hi)
        ));
        for v in &check.violations {
            out.push_str(&format!("        VIOLATION: {v}\n"));
        }
    }
    // The three widest per-execution block envelopes: where static
    // uncertainty concentrates.
    let mut widest: Vec<(u32, f64, f64)> = stream
        .analysis
        .block_envelopes(energy)
        .into_iter()
        .zip(&stream.analysis.blocks)
        .filter(|(_, b)| b.reachable)
        .map(|((lo, hi), b)| (b.addr, lo, hi))
        .collect();
    widest.sort_by(|a, b| (b.2 - b.1).total_cmp(&(a.2 - a.1)));
    widest.truncate(3);
    if !widest.is_empty() {
        let items: Vec<String> = widest
            .iter()
            .map(|(addr, lo, hi)| format!("{addr:#x} [{}, {}]", fmt_energy(*lo), fmt_energy(*hi)))
            .collect();
        out.push_str(&format!(
            "        widest block envelopes (per execution): {}\n",
            items.join(", ")
        ));
    }
    out
}

fn render_stream_json(stream: &StreamBounds, energy: &AccessEnergyBounds) -> String {
    let (hit, miss, persist, unknown, unreach) = stream.analysis.word_counts();
    let mut out = format!(
        "{{\"words\":{{\"always_hit\":{hit},\"always_miss\":{miss},\
         \"persistent\":{persist},\"unknown\":{unknown},\"unreachable\":{unreach}}},\
         \"audit_findings\":{},\"blocks\":{}",
        stream.audit.len(),
        stream.analysis.blocks.len()
    );
    if let Some(check) = &stream.check {
        let (lo, hi) = check.miss_interval();
        let (e_lo, e_hi) = check.energy_envelope(energy);
        let violations: Vec<String> = check
            .violations
            .iter()
            .map(|v| format!("\"{}\"", escape(v)))
            .collect();
        out.push_str(&format!(
            ",\"bounds\":{{\"accesses\":{},\"misses\":{},\"miss_min\":{lo},\"miss_max\":{hi},\
             \"energy_lo_j\":{},\"energy_hi_j\":{},\"violations\":[{}]}}",
            check.accesses(),
            check.misses(),
            json_energy(e_lo),
            json_energy(e_hi),
            violations.join(",")
        ));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fits_obs::json::validate_cache_bounds_json;

    #[test]
    fn report_is_sound_and_its_json_validates() {
        let spec = ScenarioSpec::sa1100();
        let report =
            cache_bounds_report(&Kernel::ALL[..2], &spec, Scale::test(), true).expect("report");
        assert!(report.is_sound(), "text:\n{}", report.render_text());
        let counts = validate_cache_bounds_json(&report.render_json()).expect("schema");
        assert_eq!(counts.kernels, 2);
        assert_eq!(counts.traced_streams, 4);
        assert_eq!(counts.violations, 0);
    }

    #[test]
    fn static_only_report_omits_the_dynamic_join() {
        let spec = ScenarioSpec::small_embedded();
        let report =
            cache_bounds_report(&Kernel::ALL[..1], &spec, Scale::test(), false).expect("report");
        assert!(report.kernels[0].arm.check.is_none());
        let counts = validate_cache_bounds_json(&report.render_json()).expect("schema");
        assert_eq!(counts.traced_streams, 0);
    }
}
