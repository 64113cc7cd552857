//! Differential guarantees of the execute-once/replay-many engine: pricing
//! N configurations from a single recorded execution must be observationally
//! identical — bit-for-bit on every counter — to running each configuration
//! through the interpreted reference model in its own run, whichever drain
//! (fused for one configuration, batch for several) prices it, and the
//! no-observer fast path must agree exactly with the reference loop.

#![allow(clippy::unwrap_used)]

use std::cell::Cell;
use std::rc::Rc;

use powerfits::core::{
    DecoderConfig, Dictionaries, FitsFlow, FitsOp, FitsProgram, FitsSet, RegMap,
};
use powerfits::isa::{Cond, DpOp, Instr, Operand2, Reg, TEXT_BASE};
use powerfits::kernels::kernels::{Kernel, Scale};
use powerfits::sim::{
    Ar32Set, CompiledProgram, ExecCtx, InstrSet, LoweredOp, Machine, OpMeta, Sa1100Config,
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
    assert_eq!(
        multi_sims.len(),
        cfgs.len(),
        "{label}: one result per config"
    );
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

/// An [`InstrSet`] wrapper counting `lower` and `execute` calls, proving
/// the replay engine lowers each static op exactly once and executes the
/// lowered form a single time — never the per-step `execute` oracle —
/// regardless of how many configurations it prices.
struct CountingSet<S> {
    inner: S,
    lowers: Rc<Cell<u64>>,
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
    fn lower(&self, pc: u32, op: &Self::Op) -> LoweredOp {
        self.lowers.set(self.lowers.get() + 1);
        self.inner.lower(pc, op)
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
    let lowers = Rc::new(Cell::new(0));
    let executes = Rc::new(Cell::new(0));
    let set = CountingSet {
        inner: Ar32Set::load(&program),
        lowers: Rc::clone(&lowers),
        executes: Rc::clone(&executes),
    };
    let compiled = CompiledProgram::compile(&set).expect("compiles to blocks");
    assert_eq!(
        lowers.get(),
        program.text.len() as u64,
        "one lowering per op"
    );
    let trace = Machine::new(set)
        .run_recorded(&compiled)
        .expect("recorded run");
    let sims = trace
        .price_all(&compiled, &sweep_configs())
        .expect("price all");
    assert_eq!(sims.len(), 4);
    let reference =
        fits_sim_ref::run_observed(&Ar32Set::load(&program), |_, _| {}).expect("reference run");
    assert_eq!(trace.output, reference, "one execution, same result");
    assert_eq!(
        lowers.get(),
        program.text.len() as u64,
        "four configurations must share one lowering, not re-lower"
    );
    assert_eq!(
        executes.get(),
        0,
        "the machine runs the lowered ops, never the per-step oracle"
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

/// The I-cache sizes the grouping suite test sweeps: the paper's pair
/// plus three sizes small enough that most binaries overflow them.
const FIT_SIZES: [u32; 5] = [16 * 1024, 8 * 1024, 4 * 1024, 2 * 1024, 1024];

/// `price_all` replays one lane per class of `replay_classes`. Text laid
/// out contiguously from a line-aligned base fits a cache — never evicts
/// — exactly when its byte size is at most the capacity, so over a
/// descending size sweep the expected classes follow from `code_bytes`
/// alone: every fitting lane shares the first fitting lane's replay and
/// every other lane is replayed on its own. Whatever the grouping, each
/// result must equal a dedicated `price` bit for bit.
#[test]
fn price_all_groups_exactly_the_lanes_whose_text_fits() {
    let scale = Scale::test();
    let cfgs: Vec<Sa1100Config> = FIT_SIZES
        .iter()
        .map(|&bytes| Sa1100Config::icache_16k().with_icache_bytes(bytes).unwrap())
        .collect();
    let mut grouped = 0;
    for &kernel in Kernel::ALL.iter() {
        let program = kernel.compile(scale).expect("kernel compiles");
        let flow = FitsFlow::new().run(&program).expect("flow accepts");
        grouped += check_fit_grouping(
            &Ar32Set::load(&program),
            program.code_bytes(),
            &cfgs,
            &format!("{kernel} (AR32)"),
        );
        grouped += check_fit_grouping(
            &FitsSet::load(&flow.fits).unwrap(),
            flow.fits.code_bytes(),
            &cfgs,
            &format!("{kernel} (FITS)"),
        );
    }
    assert!(grouped > 0, "the sweep must exercise grouping at all");
}

/// Checks one binary; returns how many of its lanes were grouped away.
fn check_fit_grouping<S: InstrSet + Clone>(
    set: &S,
    code_bytes: usize,
    cfgs: &[Sa1100Config],
    label: &str,
) -> usize {
    let compiled = CompiledProgram::compile(set).expect("compiles to blocks");
    let fits = |cfg: &Sa1100Config| code_bytes <= cfg.icache.size_bytes as usize;
    let first_fit = cfgs.iter().position(fits);
    let expected: Vec<usize> = cfgs
        .iter()
        .enumerate()
        .map(|(i, cfg)| if fits(cfg) { first_fit.unwrap() } else { i })
        .collect();
    let classes = compiled.replay_classes(cfgs).expect("classes");
    assert_eq!(classes, expected, "{label}: {code_bytes} B of text");

    let trace = Machine::new(set.clone())
        .run_recorded(&compiled)
        .expect("recorded run");
    let sims = trace.price_all(&compiled, cfgs).expect("price all");
    for (cfg, sim) in cfgs.iter().zip(&sims) {
        assert_eq!(
            trace.price(&compiled, cfg).expect("price"),
            *sim,
            "{label}: grouped pricing diverged at {} B icache",
            cfg.icache.size_bytes
        );
    }
    classes.iter().enumerate().filter(|&(i, &c)| c != i).count()
}

/// Grouping guards: eviction-free lanes that differ only in ways or in
/// replacement policy share a replay (and still equal `price`); lanes that
/// differ in I-cache line size, D-cache or any of the five penalties never
/// do, even when every I-cache is eviction-free.
#[test]
fn only_lanes_the_replay_cannot_tell_apart_are_grouped() {
    use powerfits::sim::Replacement;

    let program = Kernel::Crc32.compile(Scale::test()).expect("compiles");
    let set = Ar32Set::load(&program);
    let base = Sa1100Config::icache_16k();
    assert!(program.code_bytes() <= base.icache.size_bytes as usize);
    let with = |f: &dyn Fn(&mut Sa1100Config)| {
        let mut cfg = base.clone();
        f(&mut cfg);
        cfg
    };
    let twins = [
        with(&|c| c.icache.ways = 64),
        with(&|c| c.icache.ways = 8),
        with(&|c| c.icache.replacement = Replacement::Lru),
        with(&|c| {
            c.icache.ways = 16;
            c.icache.replacement = Replacement::Lru;
        }),
    ];
    let strangers = [
        with(&|c| c.icache.line_bytes = 64),
        with(&|c| c.dcache = c.dcache.resized(4 * 1024).unwrap()),
        with(&|c| c.dcache.replacement = Replacement::Lru),
        with(&|c| c.icache_miss_penalty += 1),
        with(&|c| c.dcache_miss_penalty += 1),
        with(&|c| c.mul_extra_cycles += 1),
        with(&|c| c.taken_branch_penalty += 1),
        with(&|c| c.mispredict_penalty += 1),
    ];
    let cfgs: Vec<Sa1100Config> = std::iter::once(base.clone())
        .chain(twins.iter().cloned())
        .chain(strangers.iter().cloned())
        .collect();

    let compiled = CompiledProgram::compile(&set).expect("compiles to blocks");
    let classes = compiled.replay_classes(&cfgs).expect("classes");
    let expected: Vec<usize> = (0..cfgs.len())
        .map(|i| if i <= twins.len() { 0 } else { i })
        .collect();
    assert_eq!(classes, expected);

    let trace = Machine::new(set).run_recorded(&compiled).expect("recorded");
    let sims = trace.price_all(&compiled, &cfgs).expect("price all");
    for (i, (cfg, sim)) in cfgs.iter().zip(&sims).enumerate() {
        assert_eq!(
            trace.price(&compiled, cfg).expect("price"),
            *sim,
            "lane {i} diverged from its own replay"
        );
    }
}

/// A hand-laid FITS op sequence, for control flow the translator never
/// emits on the suite: the ops execute through an empty binary's
/// `FitsSet`, which reads nothing from the binary itself.
#[derive(Clone)]
struct FitsOps {
    ops: Vec<FitsOp>,
    exec: FitsSet,
}

impl InstrSet for FitsOps {
    type Op = FitsOp;

    fn entry_pc(&self) -> u32 {
        TEXT_BASE
    }
    fn op_size(&self) -> u32 {
        2
    }
    fn op_count(&self) -> usize {
        self.ops.len()
    }
    fn initial_data(&self) -> &[u8] {
        &[]
    }
    fn op_at(&self, pc: u32) -> Result<&FitsOp, SimError> {
        pc.checked_sub(TEXT_BASE)
            .filter(|off| off % 2 == 0)
            .and_then(|off| self.ops.get((off / 2) as usize))
            .ok_or(SimError::BadPc { pc })
    }
    fn fetch_word(&self, word_addr: u32) -> u32 {
        word_addr.wrapping_mul(0x9e37_79b9)
    }
    fn describe(&self, op: &FitsOp) -> OpMeta {
        powerfits::core::op_meta(op)
    }
    fn lower(&self, pc: u32, op: &FitsOp) -> LoweredOp {
        self.exec.lower(pc, op)
    }
    fn execute(&self, op: &FitsOp, ctx: &mut ExecCtx<'_>) -> Result<StepOutcome, SimError> {
        self.exec.execute(op, ctx)
    }
}

/// A `jalr` that jumps backwards is predicted taken (BTFNT), so it must
/// not count as mispredicted: the recorder folds that per run, not per
/// op, and must agree with the reference model.
#[test]
fn backward_jalr_prices_like_the_reference() {
    let plain = FitsOp::Plain;
    let imm = |v| Operand2::imm(v).expect("encodable");
    let ops = vec![
        plain(Instr::mov(Reg::R1, imm(3))),
        plain(Instr::b(2)), // to main
        // func: r0 += 1; return
        plain(Instr::dp(DpOp::Add, Reg::R0, Reg::R0, imm(1))),
        plain(Instr::mov(Reg::PC, Operand2::reg(Reg::LR))),
        plain(Instr::Swi {
            cond: Cond::Al,
            imm: 0,
        }),
        // main: r4 = &func; loop: jalr r4; r1 -= 1; bne loop
        FitsOp::WideImm {
            op: DpOp::Mov,
            set_flags: false,
            rd: Reg::R4,
            rn: Reg::R4,
            imm: TEXT_BASE + 2 * 2,
        },
        FitsOp::Jalr(Reg::R4),
        plain(Instr::Dp {
            cond: Cond::Al,
            op: DpOp::Sub,
            set_flags: true,
            rd: Reg::R1,
            rn: Reg::R1,
            op2: imm(1),
        }),
        plain(Instr::b(-4).with_cond(Cond::Ne)),
        plain(Instr::Swi {
            cond: Cond::Al,
            imm: 0,
        }),
    ];
    let exec = FitsSet::load(&FitsProgram {
        instrs: Vec::new(),
        data: Vec::new(),
        entry: 0,
        config: DecoderConfig {
            ops: Vec::new(),
            regs: RegMap::full(),
            dicts: Dictionaries::default(),
        },
    })
    .expect("empty binary loads");
    let set = FitsOps { ops, exec };
    let compiled = CompiledProgram::compile(&set).expect("compiles to blocks");
    let trace = Machine::new(set.clone())
        .run_recorded(&compiled)
        .expect("recorded run");
    assert_eq!(trace.output.exit_code, 3, "three calls");
    let backward_jalrs = trace
        .branches()
        .filter(|&(index, taken, backward)| index == 6 && taken && backward)
        .count();
    assert_eq!(backward_jalrs, 3);
    for cfg in sweep_configs() {
        let (out, reference) = fits_sim_ref::run_timed(&set, &cfg).expect("reference run");
        assert_eq!(out, trace.output);
        assert_eq!(trace.price(&compiled, &cfg).expect("price"), reference);
    }
}
