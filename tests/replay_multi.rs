//! Differential guarantees of the execute-once/replay-many engine: pricing
//! N configurations from a single recorded execution must be observationally
//! identical — bit-for-bit on every counter — to running each configuration
//! through the interpreted reference model in its own run, whichever drain
//! (fused for one configuration, batch for several) prices it, and the
//! no-observer fast path must agree exactly with the reference loop.

#![allow(clippy::unwrap_used)]

use std::cell::Cell;
use std::rc::Rc;

use powerfits::core::{FitsFlow, FitsSet};
use powerfits::kernels::kernels::{Kernel, Scale};
use powerfits::sim::{
    Ar32Set, CompiledProgram, ExecCtx, InstrSet, Machine, OpControl, OpMeta, Sa1100Config,
    SimError, StepOutcome,
};

/// The four cache configurations the experiment harness sweeps.
fn sweep_configs() -> Vec<Sa1100Config> {
    [16 * 1024, 8 * 1024, 4 * 1024, 2 * 1024]
        .into_iter()
        .map(|bytes| {
            Sa1100Config::icache_16k()
                .with_icache_bytes(bytes)
                .expect("sweep sizes divide the geometry")
        })
        .collect()
}

/// One recorded execution priced over N configs must be bit-identical to N
/// independent runs, each recording its own execution and pricing a single
/// config, for both instruction sets of every kernel.
#[test]
fn replay_many_is_bit_identical_to_per_config_runs() {
    let scale = Scale::test();
    let cfgs = sweep_configs();
    for &kernel in Kernel::ALL.iter() {
        let program = kernel.compile(scale).expect("kernel compiles");
        let flow = FitsFlow::new().run(&program).expect("flow accepts");
        check_replay_many(&Ar32Set::load(&program), &cfgs, &format!("{kernel} (AR32)"));
        check_replay_many(
            &FitsSet::load(&flow.fits).unwrap(),
            &cfgs,
            &format!("{kernel} (FITS)"),
        );
    }
}

fn check_replay_many<S: InstrSet + Clone>(set: &S, cfgs: &[Sa1100Config], label: &str) {
    let compiled = CompiledProgram::compile(set).expect("compiles to blocks");
    let multi = Machine::new(set.clone())
        .run_recorded(&compiled)
        .expect("multi run");
    let multi_sims = multi.price_all(&compiled, cfgs).expect("price all");
    assert_eq!(multi_sims.len(), cfgs.len(), "{label}: one result per config");
    for (cfg, multi_sim) in cfgs.iter().zip(&multi_sims) {
        let single = Machine::new(set.clone())
            .run_recorded(&compiled)
            .expect("single run");
        assert_eq!(single.output, multi.output, "{label}: RunOutput diverged");
        assert_eq!(
            single.price(&compiled, cfg).expect("price"),
            *multi_sim,
            "{label}: SimResult diverged at {} B icache",
            cfg.icache.size_bytes
        );
    }
}

/// The dedicated no-observer fast path in `Machine::run` must produce the
/// same `RunOutput` as the interpreted reference loop.
#[test]
fn fast_path_agrees_with_observed_path() {
    let scale = Scale::test();
    for &kernel in Kernel::ALL.iter() {
        let program = kernel.compile(scale).expect("kernel compiles");
        let fast = Machine::new(Ar32Set::load(&program)).run().expect("fast");
        let observed =
            fits_sim_ref::run_observed(&Ar32Set::load(&program), |_, _| {}).expect("observed");
        assert_eq!(fast, observed, "{kernel}: fast path diverged");
    }
}

/// An [`InstrSet`] wrapper counting `execute` calls, proving the replay
/// engine performs exactly one functional execution regardless of how many
/// configurations it prices.
struct CountingSet<S> {
    inner: S,
    executes: Rc<Cell<u64>>,
}

impl<S: InstrSet> InstrSet for CountingSet<S> {
    type Op = S::Op;

    fn entry_pc(&self) -> u32 {
        self.inner.entry_pc()
    }
    fn op_size(&self) -> u32 {
        self.inner.op_size()
    }
    fn op_count(&self) -> usize {
        self.inner.op_count()
    }
    fn control_flow(&self, pc: u32, op: &Self::Op) -> OpControl {
        self.inner.control_flow(pc, op)
    }
    fn initial_data(&self) -> &[u8] {
        self.inner.initial_data()
    }
    fn op_at(&self, pc: u32) -> Result<&Self::Op, SimError> {
        self.inner.op_at(pc)
    }
    fn fetch_word(&self, word_addr: u32) -> u32 {
        self.inner.fetch_word(word_addr)
    }
    fn describe(&self, op: &Self::Op) -> OpMeta {
        self.inner.describe(op)
    }
    fn execute(&self, op: &Self::Op, ctx: &mut ExecCtx<'_>) -> Result<StepOutcome, SimError> {
        self.executes.set(self.executes.get() + 1);
        self.inner.execute(op, ctx)
    }
}

#[test]
fn replay_many_executes_each_instruction_once() {
    let program = Kernel::Crc32.compile(Scale::test()).expect("compiles");
    let executes = Rc::new(Cell::new(0));
    let set = CountingSet {
        inner: Ar32Set::load(&program),
        executes: Rc::clone(&executes),
    };
    let compiled = CompiledProgram::compile(&set).expect("compiles to blocks");
    let trace = Machine::new(set)
        .run_recorded(&compiled)
        .expect("recorded run");
    let sims = trace
        .price_all(&compiled, &sweep_configs())
        .expect("price all");
    assert_eq!(sims.len(), 4);
    assert_eq!(
        executes.get(),
        trace.output.steps,
        "four configurations must share one execution, not re-execute"
    );
}

/// The explicit compiled API — `CompiledProgram::compile`, then
/// `Machine::run_recorded`, then `RecordedTrace::price_all` — must agree
/// bit-for-bit with per-config runs of the interpreted reference model,
/// for both instruction sets of every kernel; a recorded trace must be
/// re-priceable any number of times with identical results; and a
/// single-configuration `price_all` (the fused drain) must equal `price`
/// and the reference, so both drains stay covered.
#[test]
fn compiled_api_is_bit_identical_and_repriceable() {
    let scale = Scale::test();
    let cfgs = sweep_configs();
    for &kernel in Kernel::ALL.iter() {
        let program = kernel.compile(scale).expect("kernel compiles");
        let flow = FitsFlow::new().run(&program).expect("flow accepts");
        check_compiled_api(&Ar32Set::load(&program), &cfgs, &format!("{kernel} (AR32)"));
        check_compiled_api(
            &FitsSet::load(&flow.fits).unwrap(),
            &cfgs,
            &format!("{kernel} (FITS)"),
        );
    }
}

fn check_compiled_api<S: InstrSet + Clone>(set: &S, cfgs: &[Sa1100Config], label: &str) {
    let compiled = CompiledProgram::compile(set).expect("compiles to blocks");
    let trace = Machine::new(set.clone())
        .run_recorded(&compiled)
        .expect("recorded run");

    let first = trace.price_all(&compiled, cfgs).expect("price all");
    let again = trace.price_all(&compiled, cfgs).expect("re-price");
    assert_eq!(first, again, "{label}: re-pricing the same trace diverged");

    for (cfg, sim) in cfgs.iter().zip(&first) {
        let bytes = cfg.icache.size_bytes;
        let (out, reference) = fits_sim_ref::run_timed(set, cfg).expect("reference run");
        assert_eq!(out, trace.output, "{label}: RunOutput diverged");
        assert_eq!(
            *sim, reference,
            "{label}: batch drain diverged at {bytes} B icache"
        );
        let single = trace.price(&compiled, cfg).expect("price");
        assert_eq!(
            single, reference,
            "{label}: fused drain diverged at {bytes} B icache"
        );
        assert_eq!(
            trace
                .price_all(&compiled, std::slice::from_ref(cfg))
                .expect("price one"),
            vec![single],
            "{label}: one-config price_all diverged from price at {bytes} B icache"
        );
    }
}
