//! `explore`: the multi-application design-space loop. One op draws 1–3
//! member kernels and one candidate from the `fitspareto` grid (space
//! budget × dictionary width), runs `synthesize_candidate`, statically
//! verifies every accepted member translation and prices it with
//! `price_shared_member` at the SA-1100 point. Programs, profiles and
//! the native baselines are built during set-up, at test scale.

use std::sync::Arc;
use std::time::Instant;

use fits_bench::{
    default_candidates, price_shared_member, synthesize_candidate, Artifacts, CandidateSpec,
};
use fits_core::multi::dynamic_expansion;
use fits_core::{
    profile_hash, synthesize, translate, FitsSet, MultiError, MultiMember, MultiOptions, Profile,
    Synthesis, Translation,
};
use fits_isa::Program;
use fits_kernels::kernels::{Kernel, Scale};
use fits_power::{cache_power, chip_power_with, DecodeKind};
use fits_rng::StdRng;
use fits_scenario::ScenarioSpec;
use fits_sim::{Ar32Set, CompiledProgram, Machine};

use crate::calib::{Reference, Timeline};
use crate::paper::{expected, Expected, Ratios, TracedCounts};
use crate::report::{permuted_passes, run_serial, Latencies, Report, SetupTimes};
use crate::stats::geomean;
use crate::trace::Tracer;

/// Per-member regression bound every candidate is synthesized under.
pub const EPSILON: f64 = 0.25;

/// Ops in the fixed pool every pass of a run sends once.
pub const POOL: usize = 64;

/// Seed of the pool's draws. The pool is the same in every run so the
/// op mix is too; the benchmark seed orders it.
const POOL_SEED: u64 = 0x0e59_104e;

/// Pool passes generated per run; the order wraps around past them.
const MAX_PASSES: usize = 400;

/// One suite kernel, prepared for membership.
pub struct Member {
    /// The kernel.
    pub kernel: Kernel,
    /// Its native program.
    pub program: Arc<Program>,
    /// Its profile.
    pub profile: Arc<Profile>,
    /// The oracle output.
    pub want: Expected,
    /// Native I-cache task energy at SA-1100 16 KB (J).
    pub arm_icache_j: f64,
}

/// One op's inputs: member indices and the candidate knob setting.
#[derive(Clone, Debug)]
pub struct Draw {
    /// Indices into the member table, distinct.
    pub members: Vec<usize>,
    /// The candidate.
    pub spec: CandidateSpec,
}

/// How an op ended.
#[derive(Debug)]
pub enum Outcome {
    /// The candidate was accepted; one ratio pair per member, in draw
    /// order, plus the synthesis rounds used.
    Accepted(Vec<Ratios>, usize),
    /// The library rejected the candidate (regression bound or no
    /// translation after widening) — a valid answer.
    Rejected,
}

/// Builds the member table: programs, profiles, oracle outputs and the
/// native baseline priced at the SA-1100 point.
///
/// # Errors
///
/// Pipeline failures, as text.
pub fn members(scale: Scale) -> Result<Vec<Member>, String> {
    let artifacts = Artifacts::new();
    let scenario = ScenarioSpec::sa1100();
    Kernel::ALL
        .iter()
        .map(|&kernel| {
            let program = artifacts
                .program(kernel, scale)
                .map_err(|e| e.to_string())?;
            let profile = artifacts
                .profile(kernel, scale)
                .map_err(|e| e.to_string())?;
            let compiled = artifacts
                .compiled_arm(kernel, scale)
                .map_err(|e| e.to_string())?;
            let trace = Machine::new(Ar32Set::load(&program))
                .run_recorded(&compiled)
                .map_err(|e| e.to_string())?;
            let sim = trace
                .price(&compiled, &scenario.machine_config())
                .map_err(|e| e.to_string())?;
            let arm_icache_j =
                cache_power(&scenario.icache, &sim.icache, sim.cycles, &scenario.tech).total_j();
            Ok(Member {
                kernel,
                program,
                profile,
                want: expected(kernel, scale),
                arm_icache_j,
            })
        })
        .collect()
}

/// `len` seeded draws: 1–3 distinct members and one grid candidate each.
#[must_use]
pub fn draws(seed: u64, len: usize) -> Vec<Draw> {
    let grid = default_candidates();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let count = rng.gen_range(1..=3usize);
            let mut members: Vec<usize> = Vec::with_capacity(count);
            while members.len() < count {
                let m = rng.gen_range(0..Kernel::ALL.len());
                if !members.contains(&m) {
                    members.push(m);
                }
            }
            Draw {
                members,
                spec: grid[rng.gen_range(0..grid.len())],
            }
        })
        .collect()
}

fn ratio(member: &Member, icache_j: f64, fits: &fits_core::FitsProgram) -> Ratios {
    Ratios {
        icache_energy: icache_j / member.arm_icache_j,
        code_size: fits.code_bytes() as f64 / member.program.code_bytes() as f64,
    }
}

fn multi_members<'a>(table: &'a [Member], draw: &Draw) -> Vec<MultiMember<'a>> {
    draw.members
        .iter()
        .map(|&i| MultiMember {
            name: table[i].kernel.name(),
            program: &table[i].program,
            profile: &table[i].profile,
        })
        .collect()
}

fn verify(
    program: &Program,
    synthesis: &Synthesis,
    translation: &Translation,
) -> Result<(), String> {
    let report = fits_verify::analyze(program, synthesis, translation);
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("static verification: {}", report.render_text()))
    }
}

/// The library op: `synthesize_candidate`, static verification and
/// `price_shared_member` per accepted member. Returns the outcome and,
/// for accepted candidates, the member FITS programs (for the oracle,
/// which runs outside the timed region).
///
/// # Errors
///
/// Pipeline failures and verification findings, as text.
pub fn library_op(
    table: &[Member],
    draw: &Draw,
) -> Result<(Outcome, Vec<fits_core::FitsProgram>), String> {
    let scenario = ScenarioSpec::sa1100();
    let members = multi_members(table, draw);
    let outcome = match synthesize_candidate(&members, draw.spec, EPSILON) {
        Ok(outcome) => outcome,
        Err(MultiError::RegressionBound { .. } | MultiError::Translate { .. }) => {
            return Ok((Outcome::Rejected, Vec::new()))
        }
        Err(e) => return Err(e.to_string()),
    };
    let mut ratios = Vec::with_capacity(outcome.members.len());
    let mut programs = Vec::with_capacity(outcome.members.len());
    for (&i, shared) in draw.members.iter().zip(&outcome.members) {
        let member = &table[i];
        verify(&member.program, &outcome.synthesis, &shared.translation)?;
        let run =
            price_shared_member(&shared.translation.fits, &scenario).map_err(|e| e.to_string())?;
        ratios.push(ratio(
            member,
            run.icache.total_j(),
            &shared.translation.fits,
        ));
        programs.push(shared.translation.fits.clone());
    }
    Ok((Outcome::Accepted(ratios, outcome.iterations), programs))
}

/// Synthesizes under `opts` and translates every program, widening the
/// dictionary on failure up to `rounds` times — the retry policy
/// `synthesize_multi` applies to the shared ISA and to each per-app
/// baseline. Returns the synthesis, translations and rounds used, or
/// `None` when no round translated every program.
fn synth_translate(
    tracer: &mut Tracer,
    profile: &Profile,
    programs: &[&Program],
    opts: &fits_core::SynthOptions,
    rounds: usize,
) -> Option<(Synthesis, Vec<Translation>, usize)> {
    let mut opts = opts.clone();
    for round in 0..rounds.max(1) {
        let synthesis = tracer.span("core.synthesize", || synthesize(profile, &opts));
        let translations: Option<Vec<Translation>> = tracer.span("core.translate", || {
            programs
                .iter()
                .map(|p| translate(p, &synthesis.config).ok())
                .collect()
        });
        if let Some(translations) = translations {
            return Some((synthesis, translations, round + 1));
        }
        opts.max_dict_bits = (opts.max_dict_bits + 1).min(8);
    }
    None
}

/// The same work as [`library_op`], split into the public calls
/// `synthesize_multi` and `price_shared_member` make so each layer gets
/// its own span. The set-up of a traced run checks that both paths agree
/// bit for bit.
///
/// # Errors
///
/// Pipeline failures and verification findings, as text.
pub fn traced_op(
    tracer: &mut Tracer,
    counts: &mut TracedCounts,
    table: &[Member],
    draw: &Draw,
) -> Result<(Outcome, Vec<fits_core::FitsProgram>), String> {
    let options = MultiOptions {
        synth: draw.spec.synth(),
        epsilon: EPSILON,
        ..MultiOptions::default()
    };
    let picked: Vec<&Member> = draw.members.iter().map(|&i| &table[i]).collect();
    let merged = tracer.span("core.merge", || {
        let pairs: Vec<(&Profile, f64)> = picked.iter().map(|m| (&*m.profile, 1.0)).collect();
        Profile::merge_weighted(&pairs).inspect(|merged| {
            std::hint::black_box(profile_hash(&merged.profile));
        })
    });
    let merged = merged.map_err(|e| e.to_string())?;
    let programs: Vec<&Program> = picked.iter().map(|m| &*m.program).collect();
    let Some((synthesis, translations, rounds)) = synth_translate(
        tracer,
        &merged.profile,
        &programs,
        &options.synth,
        options.max_iterations,
    ) else {
        return Ok((Outcome::Rejected, Vec::new()));
    };
    counts.rounds += rounds as u64;
    for (member, shared) in picked.iter().zip(&translations) {
        let Some((_, solo, _)) = synth_translate(
            tracer,
            &member.profile,
            &[&member.program],
            &options.synth,
            options.max_iterations,
        ) else {
            return Ok((Outcome::Rejected, Vec::new()));
        };
        let counts_exec = &member.profile.exec_counts;
        let solo = dynamic_expansion(&solo[0], counts_exec);
        let shared = dynamic_expansion(shared, counts_exec);
        let regression = if solo > 0.0 { shared / solo - 1.0 } else { 0.0 };
        if regression > options.epsilon {
            return Ok((Outcome::Rejected, Vec::new()));
        }
    }

    let scenario = ScenarioSpec::sa1100();
    let mut ratios = Vec::with_capacity(picked.len());
    let mut fits_programs = Vec::with_capacity(picked.len());
    for (member, shared) in picked.iter().zip(&translations) {
        tracer.span("verify.static", || {
            verify(&member.program, &synthesis, shared)
        })?;
        let fits = &shared.fits;
        let (set, compiled) = tracer.span("sim.lift", || {
            let set = FitsSet::load(fits).map_err(|e| e.to_string())?;
            let compiled = CompiledProgram::compile(&set).map_err(|e| e.to_string())?;
            Ok::<_, String>((set, compiled))
        })?;
        let trace = tracer
            .span("sim.record", || Machine::new(set).run_recorded(&compiled))
            .map_err(|e| e.to_string())?;
        let sim = tracer
            .span("sim.price", || {
                trace.price(&compiled, &scenario.machine_config())
            })
            .map_err(|e| e.to_string())?;
        counts.executions += 1;
        counts.recorded_steps += trace.output.steps;
        counts.priced_steps += trace.output.steps;
        let icache_j = tracer.span("power.price", || {
            let decode = DecodeKind::Programmable {
                config_bits: fits.config.config_bits(),
            };
            let icache = cache_power(&scenario.icache, &sim.icache, sim.cycles, &scenario.tech);
            std::hint::black_box(chip_power_with(
                &sim,
                &scenario.icache,
                &scenario.dcache,
                decode,
                &scenario.tech,
            ));
            icache.total_j()
        });
        ratios.push(ratio(member, icache_j, fits));
        fits_programs.push(fits.clone());
    }
    Ok((Outcome::Accepted(ratios, rounds), fits_programs))
}

/// The oracle: every accepted member's FITS binary, run on the
/// interpreter, must reproduce the kernel's reference output.
fn check_outputs(
    table: &[Member],
    draw: &Draw,
    programs: &[fits_core::FitsProgram],
) -> Result<(), String> {
    for (&i, fits) in draw.members.iter().zip(programs) {
        let member = &table[i];
        let set = FitsSet::load(fits).map_err(|e| e.to_string())?;
        let out = Machine::new(set).run().map_err(|e| e.to_string())?;
        if (out.exit_code, out.emitted) != member.want {
            return Err(format!(
                "{}: shared-ISA binary exit {} / emit {:016x}, reference {} / {:016x}",
                member.kernel, out.exit_code, out.emitted, member.want.0, member.want.1
            ));
        }
    }
    Ok(())
}

fn same_ratios(x: &[Ratios], y: &[Ratios]) -> bool {
    x.len() == y.len()
        && x.iter().zip(y).all(|(p, q)| {
            p.icache_energy.to_bits() == q.icache_energy.to_bits()
                && p.code_size.to_bits() == q.code_size.to_bits()
        })
}

fn same(a: &Outcome, b: &Outcome) -> bool {
    match (a, b) {
        (Outcome::Rejected, Outcome::Rejected) => true,
        (Outcome::Accepted(x, rx), Outcome::Accepted(y, ry)) => rx == ry && same_ratios(x, y),
        _ => false,
    }
}

struct Setup {
    table: Vec<Member>,
    pool: Vec<Draw>,
    order: Vec<usize>,
}

/// Runs the workload.
#[must_use]
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let setup = || {
        members(Scale::test()).map(|table| Setup {
            table,
            pool: draws(POOL_SEED, POOL),
            order: permuted_passes(seed, POOL, MAX_PASSES),
        })
    };
    let mut setup_times = SetupTimes::default();
    let Setup { table, pool, order } = match setup_times.repeat(setup) {
        Ok(setup) => setup,
        Err(msg) => {
            report.attempted = 1;
            report.fail(format!("set-up: {msg}"));
            return report;
        }
    };
    let mut tracer = Tracer::default();
    let mut counts = TracedCounts::default();
    if trace {
        // The traced path must reproduce the library path exactly.
        for draw in pool.iter().take(12) {
            let lib = library_op(&table, draw).map(|r| r.0);
            let traced = traced_op(
                &mut Tracer::default(),
                &mut TracedCounts::default(),
                &table,
                draw,
            )
            .map(|r| r.0);
            match (lib, traced) {
                (Ok(a), Ok(b)) if same(&a, &b) => {}
                (a, b) => report.fail(format!("traced path diverges: {a:?} vs {b:?}")),
            }
        }
    }

    let mut timeline = Timeline::new(Reference::MapSort);
    // Ratios per pool draw, in pool order for bit-identical geomeans.
    let mut exact: Vec<Option<Vec<Ratios>>> = vec![None; POOL];
    let (mut accepted, mut rejected, mut widenings) = (0u64, 0u64, 0u64);
    let samples = run_serial(&mut timeline, seconds, POOL, trace, |i, traced| {
        let input = order[i % order.len()];
        let draw = &pool[input];
        let start = Instant::now();
        let result = if traced {
            traced_op(&mut tracer, &mut counts, &table, draw)
        } else {
            library_op(&table, draw)
        };
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        report.attempted += 1;
        match result.and_then(|(outcome, programs)| {
            check_outputs(&table, draw, &programs).map(|()| outcome)
        }) {
            Ok(outcome) => {
                let ratios = match outcome {
                    Outcome::Accepted(ratios, rounds) => {
                        accepted += 1;
                        widenings += rounds as u64 - 1;
                        ratios
                    }
                    Outcome::Rejected => {
                        rejected += 1;
                        Vec::new()
                    }
                };
                // Every repeat of a draw must reproduce its answer bit
                // for bit, on either path.
                let first = exact[input].get_or_insert_with(|| ratios.clone());
                if !same_ratios(first, &ratios) {
                    report.fail(format!("op {i} {draw:?}: answer differs between repeats"));
                }
            }
            Err(msg) => report.fail(format!("op {i} {draw:?}: {msg}")),
        }
        wall_ms
    });

    // Read before the after-loop set-ups, which are measurement only.
    let peak_rss_mb = crate::stats::peak_rss_mb();
    let untraced = Latencies::of(&samples, &timeline, |s| !s.traced);
    if trace {
        let traced = Latencies::of(&samples, &timeline, |s| s.traced);
        let ops = traced.wall.len() as f64;
        crate::layers::report_spans(&mut report, &tracer, ops);
        crate::layers::report_rates(&mut report, &tracer, &counts);
        report.put("sim.runs_per_op", counts.executions as f64 / ops, "count");
        report.put(
            "core.synthesize_rounds",
            counts.rounds as f64 / ops,
            "count",
        );
        let attempted = (accepted + rejected).max(1) as f64;
        report.put(
            "core.multi_rejected_ratio",
            rejected as f64 / attempted,
            "ratio",
        );
        report.put(
            "core.multi_widenings",
            widenings as f64 / attempted,
            "count",
        );
        crate::layers::report_harness(&mut report, &timeline, &untraced, &traced);
    } else {
        if let Err(msg) = setup_times.repeat(setup) {
            report.fail(format!("set-up: {msg}"));
        }
        setup_times.report(&mut report);
        untraced.report(&mut report, &timeline);
        report.put("peak_rss_mb", peak_rss_mb, "MB");
        let exact: Vec<Ratios> = exact.into_iter().flatten().flatten().collect();
        let icache: Vec<f64> = exact.iter().map(|r| r.icache_energy).collect();
        let code: Vec<f64> = exact.iter().map(|r| r.code_size).collect();
        report.put("icache_energy_ratio", geomean(&icache), "ratio");
        report.put("code_size_ratio", geomean(&code), "ratio");
    }
    report
}
