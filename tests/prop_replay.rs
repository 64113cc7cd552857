//! Property test for the block-compiled replay engine: random programs —
//! drawn from the *same* seeded generator distribution as the synthesis
//! properties (`tests/common`) — must behave bit-identically under the
//! interpreted reference model (`fits_sim_ref::run_observed` /
//! `fits_sim_ref::run_timed`) and the compiled path (`CompiledProgram` →
//! `run_recorded` → `price`), across all three scenario presets, for both
//! instruction sets.

#![allow(clippy::unwrap_used)]

mod common;

use common::{arb_steps, build};
use fits_rng::StdRng;
use powerfits::core::{FitsFlow, FitsSet};
use powerfits::scenario::{ScenarioSpec, PRESET_NAMES};
use powerfits::sim::{Ar32Set, CompiledProgram, InstrSet, Machine, Sa1100Config, SimError};

/// The machine configurations of all three scenario presets (sa1100,
/// small-embedded, modern-node).
fn preset_configs() -> Vec<Sa1100Config> {
    PRESET_NAMES
        .iter()
        .map(|name| ScenarioSpec::preset(name).unwrap().machine_config())
        .collect()
}

/// Runs one instruction set through both paths and asserts bit-identity of
/// the functional output and every preset's timing result.
fn assert_paths_agree<S: InstrSet + Clone>(set: &S, label: &str) {
    let compiled = CompiledProgram::compile(set).unwrap_or_else(|e| panic!("{label}: lift: {e}"));
    let trace = Machine::new(set.clone())
        .run_recorded(&compiled)
        .unwrap_or_else(|e| panic!("{label}: record: {e}"));

    let observed = fits_sim_ref::run_observed(set, |_, _| {})
        .unwrap_or_else(|e| panic!("{label}: interpret: {e}"));
    assert_eq!(trace.output, observed, "{label}: RunOutput diverged");

    for cfg in preset_configs() {
        let (out, reference) = fits_sim_ref::run_timed(set, &cfg)
            .unwrap_or_else(|e: SimError| panic!("{label}: run_timed: {e}"));
        let sim = trace
            .price(&compiled, &cfg)
            .unwrap_or_else(|e| panic!("{label}: price: {e}"));
        assert_eq!(out, trace.output, "{label}: timed RunOutput diverged");
        assert_eq!(
            sim, reference,
            "{label}: SimResult diverged at {} B icache",
            cfg.icache.size_bytes
        );
    }
}

/// AR32: every random program must replay bit-identically under all
/// presets.
#[test]
fn compiled_replay_matches_interpreter_on_random_programs() {
    let mut r = StdRng::seed_from_u64(0x5e9_1a7);
    for case in 0..32 {
        let steps = arb_steps(&mut r, 60);
        let program = build(&steps);
        assert_paths_agree(&Ar32Set::load(&program), &format!("case {case} (AR32)"));
    }
}

/// FITS: programs surviving the full synthesis flow must also replay
/// bit-identically — the compiled engine understands the synthesized ISA's
/// control flow (Jalr, wide forms), not just native branches.
#[test]
fn compiled_replay_matches_interpreter_on_random_fits_programs() {
    let mut r = StdRng::seed_from_u64(0xf1_7eb);
    for case in 0..8 {
        let steps = arb_steps(&mut r, 40);
        let program = build(&steps);
        let flow = FitsFlow {
            min_static_rate: 0.0, // synthetic soups may map poorly
            ..powerfits::verify::verified_flow()
        };
        let outcome = flow
            .run(&program)
            .unwrap_or_else(|e| panic!("case {case}: flow fails: {e}"));
        let set = FitsSet::load(&outcome.fits).unwrap();
        assert_paths_agree(&set, &format!("case {case} (FITS)"));
    }
}
