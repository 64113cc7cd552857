//! The multi-application Pareto frontier: shared FITS ISAs over a kernel
//! set, enumerated across a synthesis-knob grid and priced on the
//! execute-once/replay-many engine.
//!
//! The paper synthesizes one ISA per program; a product ships one
//! programmable decoder for its whole workload. This module answers the
//! question that raises: how much I-cache power does a *shared* FITS ISA
//! leave on the table versus a bespoke ISA per kernel? Each candidate is
//! one merged-profile synthesis ([`fits_core::synthesize_multi`]) of the
//! whole set under one `(space_budget, max_dict_bits)` knob setting;
//! accepted candidates are priced at the SA-1100 reference scenario —
//! one FITS recording per member kernel per candidate, replay-priced —
//! and the non-dominated set over (total code size, total I-cache fetch
//! energy, decoder opcode slots) is the frontier
//! ([`fits_core::pareto_frontier`]).
//!
//! [`run_pareto_with`] produces [`ParetoResults`]; [`pareto_table`] /
//! [`pareto_member_table`] render the summaries and [`pareto_json`]
//! serializes the `powerfits-pareto-v1` schema the `fitspareto` CLI
//! archives as `PARETO.json` (validated by
//! [`fits_obs::json::validate_pareto_json`] before it is written).

use fits_core::{
    synthesize_multi, FitsProgram, MultiMember, MultiOptions, MultiOutcome, Profile, SynthOptions,
};
use fits_kernels::kernels::{Kernel, Scale};
use fits_obs::json::{Spacing, Writer};
use fits_power::DecodeKind;
use fits_scenario::{ScenarioMatrix, ScenarioSpec};
use fits_sim::CompiledProgram;

use crate::experiment::{
    kernels_in_parallel, priced, record, run_kernel_scenarios, ExperimentError,
};
use crate::report::{Row, Table};
use crate::{stamp, Artifacts, ConfigRun};

/// One synthesis-knob setting of the candidate grid.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CandidateSpec {
    /// Opcode-space budget passed to the synthesizer.
    pub space_budget: f64,
    /// Dictionary-index width ceiling passed to the synthesizer.
    pub max_dict_bits: u8,
}

impl CandidateSpec {
    /// Stable candidate id, e.g. `b100-d6` for budget 1.0 and 6 bits.
    #[must_use]
    pub fn id(&self) -> String {
        format!(
            "b{:03}-d{}",
            (self.space_budget * 100.0).round() as u32,
            self.max_dict_bits
        )
    }

    /// The synthesis options this candidate runs under.
    #[must_use]
    pub fn synth(&self) -> SynthOptions {
        SynthOptions {
            space_budget: self.space_budget,
            max_dict_bits: self.max_dict_bits,
            ..SynthOptions::default()
        }
    }
}

/// The default candidate grid: opcode-space budgets × dictionary widths.
/// Tight budgets trade decoder slots (and configuration bits) against
/// code size and fetch energy, which is what gives the frontier its
/// spread.
#[must_use]
pub fn default_candidates() -> Vec<CandidateSpec> {
    let mut grid = Vec::new();
    for &space_budget in &[1.0, 0.7, 0.45] {
        for &max_dict_bits in &[4u8, 6, 8] {
            grid.push(CandidateSpec {
                space_budget,
                max_dict_bits,
            });
        }
    }
    grid
}

/// Per-app vs. shared-ISA measurements for one member kernel at one
/// candidate, both priced at the same reference scenario.
#[derive(Clone, Debug)]
pub struct MemberPower {
    /// Kernel name.
    pub kernel: String,
    /// Code size under the kernel's own per-app ISA (bytes).
    pub solo_code_bytes: usize,
    /// Code size under the shared ISA (bytes).
    pub shared_code_bytes: usize,
    /// I-cache task energy under the per-app ISA (J).
    pub solo_icache_j: f64,
    /// I-cache task energy under the shared ISA (J).
    pub shared_icache_j: f64,
    /// Cycles under the per-app ISA.
    pub solo_cycles: u64,
    /// Cycles under the shared ISA.
    pub shared_cycles: u64,
    /// Dynamic-expansion regression vs. the per-app optimum (the bound
    /// the synthesis enforced).
    pub regression: f64,
}

/// One accepted candidate: the shared synthesis plus its suite totals on
/// the three frontier axes.
#[derive(Clone, Debug)]
pub struct ParetoPoint {
    /// Candidate id ([`CandidateSpec::id`]).
    pub id: String,
    /// The knob setting.
    pub spec: CandidateSpec,
    /// Total shared-ISA code size across the suite (bytes) — axis 1.
    pub code_bytes: usize,
    /// Total shared-ISA I-cache task energy across the suite (J) — axis 2.
    pub icache_j: f64,
    /// Shared decoder opcode slots — axis 3.
    pub decoder_slots: usize,
    /// Shared configuration size in bits.
    pub config_bits: usize,
    /// Iterations the shared synthesis used.
    pub iterations: usize,
    /// Per-member breakdown, in suite order.
    pub members: Vec<MemberPower>,
}

impl ParetoPoint {
    /// The point's coordinates on the minimized axes.
    #[must_use]
    pub fn axes(&self) -> [f64; 3] {
        [
            self.code_bytes as f64,
            self.icache_j,
            self.decoder_slots as f64,
        ]
    }
}

/// A candidate the synthesis rejected (regression bound or translation
/// failure) — recorded so the archive documents the grid's full extent.
#[derive(Clone, Debug)]
pub struct Rejection {
    /// Candidate id.
    pub id: String,
    /// The knob setting.
    pub spec: CandidateSpec,
    /// Why the candidate was rejected.
    pub reason: String,
}

/// A completed Pareto enumeration.
#[derive(Clone, Debug)]
pub struct ParetoResults {
    /// The workload scale every candidate ran at.
    pub scale: Scale,
    /// The member kernels, in run order.
    pub kernels: Vec<Kernel>,
    /// The per-kernel regression bound the synthesis enforced.
    pub epsilon: f64,
    /// Canonical hash of the merged profile every candidate synthesized
    /// from (equal weights; stamped into the archive meta).
    pub merged_hash: String,
    /// Accepted candidates, in grid order.
    pub points: Vec<ParetoPoint>,
    /// Indices into `points` of the non-dominated frontier.
    pub frontier: Vec<usize>,
    /// Rejected candidates, in grid order.
    pub rejected: Vec<Rejection>,
    /// Total per-app code size across the suite (bytes).
    pub solo_code_bytes: usize,
    /// Total per-app I-cache task energy across the suite (J).
    pub solo_icache_j: f64,
}

impl ParetoResults {
    /// The frontier point with the lowest I-cache energy (the natural
    /// reference for the per-app vs. shared table), if any candidate was
    /// accepted.
    #[must_use]
    pub fn best_energy_point(&self) -> Option<&ParetoPoint> {
        self.frontier
            .iter()
            .map(|&i| &self.points[i])
            .min_by(|a, b| a.icache_j.total_cmp(&b.icache_j))
    }
}

/// Prices one member's shared-ISA binary at a scenario: compile the FITS
/// set, execute once through the recorder, replay-price under the
/// scenario's machine and tech node. This is the exact path the solo
/// measurements take, so library and service results are bit-identical
/// by construction.
///
/// # Errors
///
/// Propagates load, compile and simulation failures.
pub fn price_shared_member(
    fits: &FitsProgram,
    scenario: &ScenarioSpec,
) -> Result<ConfigRun, ExperimentError> {
    let set = fits_core::FitsSet::load(fits).map_err(ExperimentError::Decode)?;
    let compiled = CompiledProgram::compile(&set).map_err(ExperimentError::Sim)?;
    let sim = record(set, &compiled)?
        .price(&compiled, &scenario.machine_config())
        .map_err(ExperimentError::Sim)?;
    let decode = DecodeKind::Programmable {
        config_bits: fits.config.config_bits(),
    };
    Ok(priced(scenario, sim, decode))
}

/// Runs one shared synthesis over the kernel set.
///
/// # Errors
///
/// Propagates merge, translation and regression-bound failures.
pub fn synthesize_candidate(
    members: &[MultiMember<'_>],
    spec: CandidateSpec,
    epsilon: f64,
) -> Result<MultiOutcome, fits_core::MultiError> {
    let options = MultiOptions {
        synth: spec.synth(),
        epsilon,
        ..MultiOptions::default()
    };
    let weights = vec![1.0; members.len()];
    synthesize_multi(members, &weights, &options)
}

/// Enumerates the candidate grid over `kernels` at `scale`, pricing every
/// accepted candidate at the SA-1100 reference scenario, and returns the
/// accepted points with their non-dominated frontier.
///
/// Costs: the solo baselines reuse the shared artifact cache (one
/// native plus one FITS recording per kernel, total); each accepted
/// candidate adds one FITS recording per kernel — every machine/tech
/// re-pricing of a point is free replay.
///
/// # Errors
///
/// Fails on kernel compilation, profiling or simulation errors, and on
/// any accepted member translation that fails static verification (not
/// on candidate rejection, which is recorded in
/// [`ParetoResults::rejected`]).
///
/// # Panics
///
/// Re-raises worker panics like [`crate::run_suite`].
pub fn run_pareto_with(
    artifacts: &Artifacts,
    kernels: &[Kernel],
    scale: Scale,
    epsilon: f64,
    candidates: &[CandidateSpec],
) -> Result<ParetoResults, ExperimentError> {
    let scenario = ScenarioSpec::sa1100();
    let matrix = ScenarioMatrix {
        scenarios: vec![scenario.clone()],
    };

    // Per-app baselines: one native + one FITS recording per kernel,
    // shared with everything else that uses `artifacts`.
    let solo: Vec<(usize, ConfigRun)> = kernels_in_parallel(kernels, |kernel| {
        let runs = run_kernel_scenarios(artifacts, kernel, scale, &matrix)?;
        let run = runs.into_iter().next().expect("matrix has one scenario");
        let flow = artifacts.flow(kernel, scale)?;
        Ok((flow.fits.code_bytes(), run.fits))
    })?;

    // The merge members (programs + profiles from the artifact cache).
    let programs: Vec<_> = kernels
        .iter()
        .map(|&k| artifacts.program(k, scale))
        .collect::<Result<_, _>>()?;
    let profiles: Vec<_> = kernels
        .iter()
        .map(|&k| artifacts.profile(k, scale))
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

    // All candidates share one merged profile (the knobs only steer the
    // synthesis): hash it once for the archive meta.
    let weighted: Vec<(&Profile, f64)> = profiles.iter().map(|p| (&**p, 1.0)).collect();
    let merged =
        Profile::merge_weighted(&weighted).map_err(|e| ExperimentError::Multi(e.into()))?;
    let merged_hash = fits_core::profile_hash(&merged.profile);

    let mut points = Vec::new();
    let mut rejected = Vec::new();
    for &spec in candidates {
        let outcome = match synthesize_candidate(&members, spec, epsilon) {
            Ok(outcome) => outcome,
            Err(e) => {
                rejected.push(Rejection {
                    id: spec.id(),
                    spec,
                    reason: e.to_string(),
                });
                continue;
            }
        };
        debug_assert_eq!(outcome.merged_hash, merged_hash);

        // Statically verify every member translation before pricing it:
        // a truncated branch displacement must fail here as a diagnostic,
        // not run to the simulator's step ceiling.
        for (member, program) in outcome.members.iter().zip(&programs) {
            let report = fits_verify::analyze(program, &outcome.synthesis, &member.translation);
            if !report.is_clean() {
                return Err(ExperimentError::Verify {
                    kernel: member.name.clone(),
                    report: report.render_text(),
                });
            }
        }

        // One FITS recording per member kernel for this candidate.
        let shared_runs: Vec<ConfigRun> = kernels_in_parallel(kernels, |kernel| {
            let member = outcome
                .members
                .iter()
                .find(|m| m.name == kernel.name())
                .expect("equal positive weights drop no member");
            price_shared_member(&member.translation.fits, &scenario)
        })?;

        let member_powers: Vec<MemberPower> = outcome
            .members
            .iter()
            .zip(&solo)
            .zip(&shared_runs)
            .map(|((m, (solo_code, solo_run)), shared_run)| MemberPower {
                kernel: m.name.clone(),
                solo_code_bytes: *solo_code,
                shared_code_bytes: m.translation.fits.code_bytes(),
                solo_icache_j: solo_run.icache.total_j(),
                shared_icache_j: shared_run.icache.total_j(),
                solo_cycles: solo_run.sim.cycles,
                shared_cycles: shared_run.sim.cycles,
                regression: m.regression,
            })
            .collect();

        points.push(ParetoPoint {
            id: spec.id(),
            spec,
            code_bytes: member_powers.iter().map(|m| m.shared_code_bytes).sum(),
            icache_j: member_powers.iter().map(|m| m.shared_icache_j).sum(),
            decoder_slots: outcome.synthesis.config.ops.len(),
            config_bits: outcome.synthesis.config.config_bits(),
            iterations: outcome.iterations,
            members: member_powers,
        });
    }

    let axes: Vec<[f64; 3]> = points.iter().map(ParetoPoint::axes).collect();
    let frontier = fits_core::pareto_frontier(&axes);

    Ok(ParetoResults {
        scale,
        kernels: kernels.to_vec(),
        epsilon,
        merged_hash,
        points,
        frontier,
        rejected,
        solo_code_bytes: solo.iter().map(|(code, _)| *code).sum(),
        solo_icache_j: solo.iter().map(|(_, run)| run.icache.total_j()).sum(),
    })
}

/// The candidate summary table: shared-vs-solo code and energy ratios,
/// decoder slots, and frontier membership, one row per accepted
/// candidate.
#[must_use]
pub fn pareto_table(results: &ParetoResults) -> Table {
    Table {
        id: "pareto",
        title: format!(
            "Shared-ISA candidates over {} kernels (n={}, epsilon={})",
            results.kernels.len(),
            results.scale.n,
            results.epsilon,
        ),
        unit: "ratio",
        scenario: Some(ScenarioSpec::sa1100().id().to_string()),
        columns: vec![
            "code/solo".to_string(),
            "i$/solo".to_string(),
            "slots".to_string(),
            "frontier".to_string(),
        ],
        rows: results
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| Row {
                label: p.id.clone(),
                values: vec![
                    ratio(p.code_bytes as f64, results.solo_code_bytes as f64),
                    ratio(p.icache_j, results.solo_icache_j),
                    p.decoder_slots as f64,
                    f64::from(u8::from(results.frontier.contains(&i))),
                ],
            })
            .collect(),
    }
}

/// The per-app vs. shared-ISA power table at the frontier's lowest-energy
/// point: solo and shared I-cache energy per kernel plus the enforced
/// regression, one row per member. Empty when every candidate was
/// rejected.
#[must_use]
pub fn pareto_member_table(results: &ParetoResults) -> Table {
    let (title, rows) = match results.best_energy_point() {
        Some(p) => (
            format!("Per-app vs shared ISA at {} (uJ I-cache)", p.id),
            p.members
                .iter()
                .map(|m| Row {
                    label: m.kernel.clone(),
                    values: vec![m.solo_icache_j * 1e6, m.shared_icache_j * 1e6, m.regression],
                })
                .collect(),
        ),
        None => (
            "Per-app vs shared ISA (no accepted candidate)".to_string(),
            Vec::new(),
        ),
    };
    Table {
        id: "pareto-members",
        title,
        unit: "uJ",
        scenario: Some(ScenarioSpec::sa1100().id().to_string()),
        columns: vec![
            "solo uJ".to_string(),
            "shared uJ".to_string(),
            "regress".to_string(),
        ],
        rows,
    }
}

fn ratio(ours: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        ours / base
    }
}

/// Serializes a Pareto enumeration into the `powerfits-pareto-v1` JSON
/// schema (see [`fits_obs::json::validate_pareto_json`]). The meta block
/// carries the ISA catalog hash *and* the merged-profile hash, so a
/// frontier stays attributable to the exact profile population it was
/// synthesized from.
#[must_use]
pub fn pareto_json(results: &ParetoResults) -> String {
    let mut w = Writer::new(Spacing::Spaced);
    w.begin_obj_lines();
    w.field_str("schema", "powerfits-pareto-v1");
    w.key("meta");
    stamp::write_meta(&mut w, &[("merged_profile", &results.merged_hash)]);
    w.field_u64("scale_n", u64::from(results.scale.n));
    w.field_f64_prec("epsilon", results.epsilon, 6);
    w.key("kernels");
    w.begin_arr();
    results.kernels.iter().for_each(|k| w.str(k.name()));
    w.end_arr();
    w.field_u64("solo_code_bytes", results.solo_code_bytes as u64);
    w.field_f64_prec("solo_icache_j", results.solo_icache_j, 6);
    w.key("points");
    w.begin_arr_lines();
    for p in &results.points {
        w.begin_obj_lines();
        w.field_str("id", &p.id);
        w.field_f64_prec("space_budget", p.spec.space_budget, 6);
        w.field_u64("max_dict_bits", p.spec.max_dict_bits.into());
        w.field_u64("code_bytes", p.code_bytes as u64);
        w.field_f64_prec("icache_j", p.icache_j, 6);
        w.field_u64("decoder_slots", p.decoder_slots as u64);
        w.field_u64("config_bits", p.config_bits as u64);
        w.field_u64("iterations", p.iterations as u64);
        w.key("members");
        w.begin_arr_lines();
        for m in &p.members {
            w.begin_obj();
            w.field_str("kernel", &m.kernel);
            w.field_u64("solo_code_bytes", m.solo_code_bytes as u64);
            w.field_u64("shared_code_bytes", m.shared_code_bytes as u64);
            w.field_f64_prec("solo_icache_j", m.solo_icache_j, 6);
            w.field_f64_prec("shared_icache_j", m.shared_icache_j, 6);
            w.field_u64("solo_cycles", m.solo_cycles);
            w.field_u64("shared_cycles", m.shared_cycles);
            w.field_f64_prec("regression", m.regression, 6);
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
    }
    w.end_arr();
    w.key("frontier");
    w.begin_arr();
    results.frontier.iter().for_each(|&i| w.u64(i as u64));
    w.end_arr();
    w.key("rejected");
    w.begin_arr_lines();
    for r in &results.rejected {
        w.begin_obj();
        w.field_str("id", &r.id);
        w.field_f64_prec("space_budget", r.spec.space_budget, 6);
        w.field_u64("max_dict_bits", r.spec.max_dict_bits.into());
        w.field_str("reason", &r.reason);
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.finish() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use fits_obs::json::validate_pareto_json;

    fn tiny_pareto() -> ParetoResults {
        let kernels = [Kernel::Crc32, Kernel::Bitcount, Kernel::Sha];
        run_pareto_with(
            &Artifacts::new(),
            &kernels,
            Scale::test(),
            1.0,
            &default_candidates(),
        )
        .expect("pareto runs")
    }

    #[test]
    fn pareto_enumerates_prices_and_serializes_schema_valid_json() {
        let results = tiny_pareto();
        assert!(!results.points.is_empty(), "grid must accept candidates");
        assert!(!results.frontier.is_empty());
        assert_eq!(results.merged_hash.len(), 16);
        for p in &results.points {
            assert_eq!(p.members.len(), 3);
            assert!(p.icache_j > 0.0 && p.code_bytes > 0 && p.decoder_slots > 0);
            for m in &p.members {
                assert!(m.shared_icache_j > 0.0 && m.solo_icache_j > 0.0);
                assert!(m.regression <= results.epsilon);
            }
        }
        // Frontier points are mutually non-dominated (strict recheck).
        for &i in &results.frontier {
            for &j in &results.frontier {
                if i == j {
                    continue;
                }
                let (a, b) = (results.points[i].axes(), results.points[j].axes());
                let dominates = (0..3).all(|k| a[k] <= b[k]) && (0..3).any(|k| a[k] < b[k]);
                assert!(!dominates, "frontier point {j} dominated by {i}");
            }
        }

        let json = pareto_json(&results);
        let counts = validate_pareto_json(&json).expect("schema-valid");
        assert_eq!(counts.points, results.points.len());
        assert_eq!(counts.frontier, results.frontier.len());
        assert_eq!(counts.kernels, 3);

        let table = pareto_table(&results);
        assert_eq!(table.rows.len(), results.points.len());
        let members = pareto_member_table(&results);
        assert_eq!(members.rows.len(), 3);
    }

    #[test]
    fn negative_epsilon_rejects_every_candidate() {
        let kernels = [Kernel::Crc32, Kernel::Bitcount];
        let results = run_pareto_with(
            &Artifacts::new(),
            &kernels,
            Scale::test(),
            -0.5,
            &default_candidates()[..2],
        )
        .expect("pareto runs");
        assert!(results.points.is_empty());
        assert_eq!(results.rejected.len(), 2);
        assert!(results.frontier.is_empty());
        for r in &results.rejected {
            assert!(r.reason.contains("degrades beyond epsilon"), "{}", r.reason);
        }
        // An all-rejected grid still renders (its empty point list as
        // `[]`), but an empty frontier must not validate, so `fitspareto`
        // refuses to archive it.
        let json = pareto_json(&results);
        assert!(json.contains("\n  \"points\": [],\n"), "{json}");
        assert!(
            validate_pareto_json(&json).is_err(),
            "empty frontier must not validate"
        );
    }

    #[test]
    fn every_pareto_mutant_is_rejected() {
        let json = pareto_json(&tiny_pareto());
        let doc = fits_obs::json::parse(&json).expect("parses");
        let all = fits_obs::json::mutants(&doc, &fits_obs::json::PARETO);
        assert!(all.len() > 60, "{} mutants", all.len());
        for mutant in &all {
            assert!(validate_pareto_json(mutant).is_err(), "accepted {mutant}");
        }
    }
}
