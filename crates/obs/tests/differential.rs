//! The observability contract, enforced differentially: enabling trace
//! collection NEVER changes simulation results, and what it collects is
//! exactly what happened.
//!
//! Two layers of evidence:
//!
//! * end-to-end, real programs: for every kernel × both ISAs × both paper
//!   I-cache sizes, [`trace_timed_run`] (record + replay with the
//!   cache-event collector) must return the `(RunOutput, SimResult)` of
//!   the interpreted reference model and the same per-PC retire counts,
//!   per-site branch outcomes, per-word fetches, per-set I-cache events,
//!   D-cache totals and stray buckets a per-step collector on that model
//!   counts;
//! * property-style, synthetic streams: for seeded random [`StepInfo`]
//!   streams (valid or not as real programs), the reference
//!   `TimingModel::observe` and `observe_with(.., collector)` must
//!   accumulate identical results, and the collector's totals must agree
//!   with the model's counters.

#![allow(clippy::unwrap_used)]

use fits_core::{FitsFlow, FitsSet};
use fits_isa::{InstrClass, Reg, TEXT_BASE};
use fits_kernels::kernels::{Kernel, Scale};
use fits_obs::hist::{BranchHistogram, PcHistogram};
use fits_obs::trace::{CacheEvents, SimTrace};
use fits_obs::trace_timed_run;
use fits_rng::StdRng;
use fits_sim::{
    Ar32Set, BranchOutcome, InstrSet, Machine, MemAccess, RunOutput, Sa1100Config, SimResult,
};
use fits_sim_ref::{StepInfo, TimingModel};

fn configs() -> [Sa1100Config; 2] {
    [Sa1100Config::icache_16k(), Sa1100Config::icache_8k()]
}

/// The per-step collector on the interpreted reference model: one retire
/// and branch record per [`StepInfo`], cache events straight from
/// `TimingModel::observe_with`.
fn reference_trace<S: InstrSet>(set: &S, cfg: &Sa1100Config) -> (RunOutput, SimResult, SimTrace) {
    let op_size = set.op_size();
    let mut timing = TimingModel::new(cfg).unwrap();
    let mut retires = PcHistogram::new(TEXT_BASE, op_size);
    let mut branches = BranchHistogram::new(TEXT_BASE, op_size);
    let mut cache = CacheEvents::new(cfg);
    let output = fits_sim_ref::run_observed(set, |_, info| {
        retires.record(info.pc);
        if let Some(b) = &info.branch {
            branches.record(info.pc, b.taken, b.taken != b.backward);
        }
        timing.observe_with(info, &mut cache);
    })
    .unwrap();
    let result = timing.finish_with(&mut cache);
    (
        output,
        result,
        SimTrace {
            retires,
            branches,
            cache,
        },
    )
}

/// Asserts every bin of two traces equal.
fn assert_traces_equal(label: &str, ours: &SimTrace, reference: &SimTrace) {
    assert_eq!(
        ours.retires.iter().collect::<Vec<_>>(),
        reference.retires.iter().collect::<Vec<_>>(),
        "{label}: per-PC retire counts diverged"
    );
    assert_eq!(ours.retires.stray(), reference.retires.stray(), "{label}");
    assert_eq!(
        ours.retires.stray(),
        0,
        "{label}: every PC maps into the text"
    );
    assert_eq!(
        ours.branches.iter().collect::<Vec<_>>(),
        reference.branches.iter().collect::<Vec<_>>(),
        "{label}: per-site branch outcomes diverged"
    );
    assert_eq!(
        ours.cache.fetches.iter().collect::<Vec<_>>(),
        reference.cache.fetches.iter().collect::<Vec<_>>(),
        "{label}: per-word fetch events diverged"
    );
    assert_eq!(
        ours.cache.fetches.stray(),
        reference.cache.fetches.stray(),
        "{label}"
    );
    assert_eq!(
        ours.cache.icache_sets.sets(),
        reference.cache.icache_sets.sets(),
        "{label}: per-set I-cache events diverged"
    );
    assert_eq!(
        ours.cache.dcache, reference.cache.dcache,
        "{label}: D-cache totals diverged"
    );
}

/// Traces one instruction set under both paper I-cache sizes and checks
/// the traced run against the reference collector, and the untraced
/// replay against both.
fn check_against_reference<S: InstrSet + Clone>(set: &S, label: &str) {
    for cfg in configs() {
        let label = format!("{label} @ {} B icache", cfg.icache.size_bytes);
        let (ref_out, ref_sim, ref_trace) = reference_trace(set, &cfg);
        let (out, sim, trace) = trace_timed_run(&mut Machine::new(set.clone()), &cfg).unwrap();
        assert_eq!(out, ref_out, "{label}: RunOutput must be bit-identical");
        assert_eq!(sim, ref_sim, "{label}: SimResult must be bit-identical");
        assert_eq!(trace.retired(), sim.retired, "{label}");
        assert_traces_equal(&label, &trace, &ref_trace);

        let compiled = fits_sim::CompiledProgram::compile(set).unwrap();
        let untraced = Machine::new(set.clone())
            .run_recorded(&compiled)
            .unwrap()
            .price(&compiled, &cfg)
            .unwrap();
        assert_eq!(untraced, sim, "{label}: tracing must be invisible");
    }
}

#[test]
fn traced_arm_runs_match_the_reference() {
    for &kernel in Kernel::ALL {
        let program = kernel.compile(Scale::test()).unwrap();
        check_against_reference(&Ar32Set::load(&program), &format!("{kernel} (AR32)"));
    }
}

#[test]
fn traced_fits_runs_match_the_reference() {
    for &kernel in Kernel::ALL {
        let program = kernel.compile(Scale::test()).unwrap();
        let flow = FitsFlow::new().run(&program).unwrap();
        check_against_reference(
            &FitsSet::load(&flow.fits).unwrap(),
            &format!("{kernel} (FITS)"),
        );
    }
}

/// A random but plausible retired-instruction record. Values need not form
/// a runnable program — the timing model only folds them into counters —
/// which lets the property cover states real kernels rarely reach
/// (unexecuted predicated memory ops, dense branch runs, stores to the
/// text range).
fn random_step(rng: &mut StdRng, pc: u32) -> StepInfo {
    let class = match rng.gen_range(0..10u32) {
        0..=5 => InstrClass::Operate,
        6..=7 => InstrClass::Memory,
        8 => InstrClass::Branch,
        _ => InstrClass::Trap,
    };
    let executed = rng.gen_range(0..10u32) != 0;
    let mem = (class == InstrClass::Memory && executed).then(|| MemAccess {
        addr: rng.gen_range(0u32..0x1_0000) & !3,
        size: 4,
        is_load: rng.gen_range(0..2u32) == 0,
        data: rng.gen(),
    });
    let branch = (class == InstrClass::Branch && executed).then(|| BranchOutcome {
        taken: rng.gen_range(0..2u32) == 0,
        backward: rng.gen_range(0..2u32) == 0,
    });
    let reg = |r: &mut StdRng| Some(Reg::new(r.gen_range(0..13u32) as u8));
    StepInfo {
        pc,
        size: 4,
        fetch_word_addr: pc & !3,
        fetch_word_value: rng.gen(),
        class,
        reg_reads: rng.gen_range(0..3u32),
        reg_writes: rng.gen_range(0..2u32),
        executed,
        mem,
        branch,
        is_mul: class == InstrClass::Operate && rng.gen_range(0..8u32) == 0,
        dests: [reg(rng), None],
        sources: [reg(rng), reg(rng), None],
        sets_flags: rng.gen_range(0..4u32) == 0,
        reads_flags: rng.gen_range(0..4u32) == 0,
    }
}

/// Drives one random stream through an untraced and a traced model and
/// returns both results plus the collector.
fn run_property_stream(seed: u64, steps: usize) -> (SimResult, SimResult, CacheEvents) {
    let cfg = if seed.is_multiple_of(2) {
        Sa1100Config::icache_16k()
    } else {
        Sa1100Config::icache_8k()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pc = TEXT_BASE;
    let stream: Vec<StepInfo> = (0..steps)
        .map(|_| {
            let info = random_step(&mut rng, pc);
            // Mostly sequential, with occasional jumps (taken branches).
            pc = if info.branch.is_some_and(|b| b.taken) {
                TEXT_BASE + rng.gen_range(0u32..4096) * 4
            } else {
                pc.wrapping_add(4)
            };
            info
        })
        .collect();

    let mut plain = TimingModel::new(&cfg).unwrap();
    let mut traced = TimingModel::new(&cfg).unwrap();
    let mut collector = CacheEvents::new(&cfg);
    for info in &stream {
        plain.observe(info);
        traced.observe_with(info, &mut collector);
    }
    (
        plain.finish(),
        traced.finish_with(&mut collector),
        collector,
    )
}

#[test]
fn property_observed_streams_match_unobserved() {
    for seed in 0..32u64 {
        let steps = 200 + (seed as usize) * 37 % 800;
        let (plain, traced, collector) = run_property_stream(seed, steps);
        assert_eq!(
            plain, traced,
            "seed {seed}: observer must not perturb the timing model"
        );
        assert_eq!(
            collector.fetches.total() + collector.fetches.stray(),
            traced.icache.accesses,
            "seed {seed}: one event per I-cache access"
        );
        assert_eq!(
            collector
                .icache_sets
                .sets()
                .iter()
                .map(|s| s.misses)
                .sum::<u64>(),
            traced.icache.misses,
            "seed {seed}: per-set misses sum to the model's total"
        );
        assert_eq!(
            collector.dcache.reads + collector.dcache.writes,
            traced.dcache.accesses,
            "seed {seed}: one event per D-cache access"
        );
        assert_eq!(collector.dcache.misses, traced.dcache.misses, "seed {seed}");
    }
}
