//! Differential guarantees of the execute-once/replay-many engine: pricing
//! N configurations from a single recorded execution must be observationally
//! identical — bit-for-bit on every counter — to running each configuration
//! through the interpreted reference model in its own run, whether one lane
//! or several drain the pricing pass, and the no-observer fast path must
//! agree exactly with the reference loop. Pricing replays whole block runs
//! from pre-scheduled issue templates, so the hand-laid cases at the end
//! pin each boundary a template must patch (a carried pair, a deferred
//! fetch-dedup reset, a load-use stall across blocks, the terminator's
//! outcome, carried multiply penalties) and each run that must fall back
//! to the per-op walk (a skipped op in mid-block, a mid-block entry), on
//! every `SimResult` field and every cache event, for both ISAs. The last
//! four pin what folding a warm block's I-cache hits at once must keep:
//! fetch runs that straddle a peak window, a D-cache miss inside a warm
//! block, entry penalties with a carried load-use stall, and one pass
//! mixing a never-evicting lane with an evicting one.

#![allow(clippy::unwrap_used)]

use std::cell::Cell;
use std::rc::Rc;

use fits_sim_ref::TimingModel;
use powerfits::core::{
    DecoderConfig, Dictionaries, FitsFlow, FitsOp, FitsProgram, FitsSet, RegMap,
};
use powerfits::isa::{Cond, DpOp, Instr, MemOp, Operand2, Program, Reg, DATA_BASE, TEXT_BASE};
use powerfits::kernels::kernels::{Kernel, Scale};
use powerfits::sim::{
    Ar32Set, CacheConfig, CacheEventObserver, CompiledProgram, ExecCtx, InstrSet, LoweredOp,
    Machine, OpMeta, Replacement, Sa1100Config, SimError, StepOutcome,
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
/// single-configuration `price_all` must equal `price` and the reference,
/// so one-lane and multi-lane pricing stay covered.
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
            "{label}: multi-lane pricing diverged at {bytes} B icache"
        );
        let single = trace.price(&compiled, cfg).expect("price");
        assert_eq!(
            single, reference,
            "{label}: single-lane pricing diverged at {bytes} B icache"
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

impl FitsOps {
    fn new(ops: Vec<FitsOp>) -> FitsOps {
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
        FitsOps { ops, exec }
    }
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
    let set = FitsOps::new(ops);
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

/// Every cache access an observer sees: `(dcache, addr, write, hit)`.
#[derive(Debug, Default, PartialEq)]
struct CacheEvents(Vec<(bool, u32, bool, bool)>);

impl CacheEventObserver for CacheEvents {
    fn icache_access(&mut self, word_addr: u32, hit: bool) {
        self.0.push((false, word_addr, false, hit));
    }
    fn dcache_access(&mut self, addr: u32, write: bool, hit: bool) {
        self.0.push((true, addr, write, hit));
    }
}

/// Configurations that make every penalty visible and distinct: the
/// paper's pair, and a machine whose one-way 64-byte caches evict and
/// whose five penalties all differ.
fn boundary_configs() -> Vec<Sa1100Config> {
    let tiny = |name: &str| CacheConfig {
        name: name.into(),
        size_bytes: 64,
        ways: 1,
        line_bytes: 16,
        replacement: Replacement::Lru,
    };
    let odd = Sa1100Config {
        icache: tiny("tiny-i"),
        dcache: tiny("tiny-d"),
        icache_miss_penalty: 7,
        dcache_miss_penalty: 11,
        mul_extra_cycles: 3,
        taken_branch_penalty: 2,
        mispredict_penalty: 5,
        ..Sa1100Config::icache_16k()
    };
    vec![Sa1100Config::icache_16k(), Sa1100Config::icache_8k(), odd]
}

/// Prices `set` single-lane (observed) and multi-lane over
/// [`boundary_configs`], and holds every `SimResult` field and every cache
/// event to the interpreted reference.
fn assert_prices_like_the_reference<S: InstrSet + Clone>(set: &S, label: &str) {
    assert_prices_like_the_reference_on(set, label, &boundary_configs());
}

/// [`assert_prices_like_the_reference`] over the configurations `cfgs`,
/// which one `price_all` prices together; each one is also priced alone,
/// with and without an observer.
fn assert_prices_like_the_reference_on<S: InstrSet + Clone>(
    set: &S,
    label: &str,
    cfgs: &[Sa1100Config],
) {
    let compiled = CompiledProgram::compile(set).expect("compiles to blocks");
    let trace = Machine::new(set.clone())
        .run_recorded(&compiled)
        .expect("recorded run");
    let multi = trace.price_all(&compiled, cfgs).expect("price all");
    for (i, (cfg, multi_sim)) in cfgs.iter().zip(&multi).enumerate() {
        let mut model = TimingModel::new(cfg).expect("valid geometry");
        let mut want = CacheEvents::default();
        let out = fits_sim_ref::run_observed(set, |_, info| model.observe_with(info, &mut want))
            .expect("reference run");
        let reference = model.finish_with(&mut want);
        assert_eq!(out, trace.output, "{label}: RunOutput diverged");
        let mut got = CacheEvents::default();
        let single = trace
            .price_with(&compiled, cfg, &mut got)
            .expect("price with");
        assert_eq!(
            single, reference,
            "{label}: single lane diverged at config {i}"
        );
        assert_eq!(
            *multi_sim, reference,
            "{label}: multi lane diverged at config {i}"
        );
        assert_eq!(
            trace.price(&compiled, cfg).expect("price"),
            reference,
            "{label}: unobserved single lane diverged at config {i}"
        );
        assert_eq!(got, want, "{label}: cache events diverged at config {i}");
    }
}

/// Runs one op sequence as an AR32 binary (4-byte ops) and as a FITS
/// binary of plain ops (2-byte ops, two to a fetch word). `build` gets
/// the op size, for the cases that compute text addresses.
fn assert_both_isas_price_like_the_reference(label: &str, build: impl Fn(u32) -> Vec<Instr>) {
    let program = Program {
        text: build(4),
        ..Program::default()
    };
    assert_prices_like_the_reference(&Ar32Set::load(&program), &format!("{label} (AR32)"));
    let ops = build(2).into_iter().map(FitsOp::Plain).collect();
    assert_prices_like_the_reference(&FitsOps::new(ops), &format!("{label} (FITS)"));
}

fn imm(v: u32) -> Operand2 {
    Operand2::imm(v).expect("encodable")
}

fn add(rd: Reg, rn: Reg, v: u32) -> Instr {
    Instr::dp(DpOp::Add, rd, rn, imm(v))
}

/// `subs rd, rd, #1` — the loop counter, setting the flags `bne` reads.
fn dec(rd: Reg) -> Instr {
    Instr::Dp {
        cond: Cond::Al,
        op: DpOp::Sub,
        set_flags: true,
        rd,
        rn: rd,
        op2: imm(1),
    }
}

const EXIT: Instr = Instr::Swi {
    cond: Cond::Al,
    imm: 0,
};

/// A block that falls through into a branch target carries its last op
/// into the target block, where it pairs with the first op; the later
/// iterations carry the pending `bne` instead.
#[test]
fn a_carried_op_pairs_with_the_first_op_of_a_leader() {
    assert_both_isas_price_like_the_reference("carried pair", |_| {
        vec![
            Instr::mov(Reg::R0, imm(6)),
            Instr::mov(Reg::R1, imm(0)),
            Instr::mov(Reg::R3, imm(0)), // pending at the fall-through
            add(Reg::R2, Reg::R2, 1),    // loop: pairs with the carried mov
            add(Reg::R1, Reg::R1, 2),
            dec(Reg::R0),
            Instr::b(-5).with_cond(Cond::Ne),
            Instr::mov(Reg::R0, Operand2::reg(Reg::R1)),
            EXIT,
        ]
    });
}

/// The loop's `bne` cannot pair with the flag-setting `subs`, so it is
/// still pending when the loop head is fetched and resets fetch dedup
/// only afterwards: in FITS the loop head shares its word with the next
/// op, which is fetched again.
#[test]
fn a_deferred_dedup_reset_refetches_a_shared_word() {
    assert_both_isas_price_like_the_reference("deferred reset", |_| {
        vec![
            Instr::mov(Reg::R0, imm(5)),
            Instr::mov(Reg::R1, imm(0)),
            add(Reg::R1, Reg::R1, 1), // loop: word-aligned in FITS
            add(Reg::R2, Reg::R2, 3), // shares the loop head's word
            dec(Reg::R0),
            Instr::b(-5).with_cond(Cond::Ne),
            Instr::mov(Reg::R0, Operand2::reg(Reg::R1)),
            EXIT,
        ]
    });
}

/// A load ending one block stalls the next block's first issued group:
/// once when the load issues alone before the group (`loop`), once when
/// it pairs with the block's first op and the stalled group is the
/// template's first (`loop2`).
#[test]
fn a_load_in_one_block_stalls_the_first_group_of_the_next() {
    assert_both_isas_price_like_the_reference("load-use across blocks", |_| {
        vec![
            Instr::mov(Reg::R3, imm(DATA_BASE)),
            Instr::mov(Reg::R0, imm(3)),
            Instr::mem(MemOp::Str, Reg::R0, Reg::R3, 0),
            Instr::mem(MemOp::Ldr, Reg::R5, Reg::R3, 0), // pending at the fall-through
            Instr::dp(DpOp::Add, Reg::R6, Reg::R5, Operand2::reg(Reg::R0)), // loop
            Instr::mov(Reg::R8, imm(1)),
            Instr::mem(MemOp::Ldr, Reg::R5, Reg::R3, 0),
            dec(Reg::R0),
            Instr::b(-6).with_cond(Cond::Ne),
            Instr::mov(Reg::R0, imm(3)),
            Instr::mov(Reg::R9, imm(2)),
            Instr::mem(MemOp::Ldr, Reg::R5, Reg::R3, 0), // pending at the fall-through
            Instr::mov(Reg::R8, imm(1)),                 // loop2: pairs with the carried load
            add(Reg::R7, Reg::R5, 1),                    // first template group uses the load
            add(Reg::R2, Reg::R2, 1),
            dec(Reg::R0),
            Instr::b(-6).with_cond(Cond::Ne),
            Instr::mov(Reg::R0, Operand2::reg(Reg::R7)),
            EXIT,
        ]
    });
}

/// An `addne` inside the loop body fails its condition on even counts,
/// so those block runs take the per-op path and the others the template.
#[test]
fn a_skipped_conditional_in_mid_block_prices_like_the_reference() {
    assert_both_isas_price_like_the_reference("mid-block skip", |_| {
        vec![
            Instr::mov(Reg::R0, imm(6)),
            Instr::mov(Reg::R1, imm(0)),
            Instr::Dp {
                cond: Cond::Al,
                op: DpOp::Tst,
                set_flags: true,
                rd: Reg::R0,
                rn: Reg::R0,
                op2: imm(1),
            }, // loop
            Instr::dp(DpOp::Add, Reg::R1, Reg::R1, Operand2::reg(Reg::R0)).with_cond(Cond::Ne),
            add(Reg::R2, Reg::R2, 1),
            dec(Reg::R0),
            Instr::b(-6).with_cond(Cond::Ne),
            Instr::mov(Reg::R0, Operand2::reg(Reg::R1)),
            EXIT,
        ]
    });
}

/// `mov pc, r4` lands in the middle of the loop block: that run starts
/// mid-block and walks op by op; the loop's later runs cover the block.
#[test]
fn an_indirect_jump_into_mid_block_prices_like_the_reference() {
    assert_both_isas_price_like_the_reference("mid-block entry", |op_size| {
        vec![
            Instr::mov(Reg::R4, imm(TEXT_BASE)),
            add(Reg::R4, Reg::R4, 6 * op_size),
            Instr::mov(Reg::R0, imm(2)),
            Instr::mov(Reg::PC, Operand2::reg(Reg::R4)), // to op 6
            add(Reg::R1, Reg::R1, 1),                    // loop
            add(Reg::R2, Reg::R2, 2),
            add(Reg::R3, Reg::R3, 3), // the jump's target
            dec(Reg::R0),
            Instr::b(-6).with_cond(Cond::Ne),
            Instr::mov(Reg::R0, Operand2::reg(Reg::R1)),
            EXIT,
        ]
    });
}

/// The loop's `bne` pairs with the op before it, so the template issues
/// it: taken (predicted, backward) on every iteration but the last, and
/// not taken (mispredicted) on the last.
#[test]
fn a_not_taken_terminator_paired_inside_a_template_prices_like_the_reference() {
    assert_both_isas_price_like_the_reference("paired not-taken", |_| {
        vec![
            Instr::mov(Reg::R0, imm(4)),
            Instr::mov(Reg::R1, imm(0)),
            dec(Reg::R0), // loop
            add(Reg::R1, Reg::R1, 1),
            add(Reg::R2, Reg::R2, 2), // pairs with the bne
            Instr::b(-5).with_cond(Cond::Ne),
            Instr::mov(Reg::R0, Operand2::reg(Reg::R1)),
            EXIT,
        ]
    });
}

/// A `jalr` back to an earlier function pairs with the op before it, so
/// the template issues it; its recorded backward bit makes it predicted.
#[test]
fn a_backward_jalr_paired_inside_a_template_prices_like_the_reference() {
    let plain = FitsOp::Plain;
    let ops = vec![
        plain(Instr::mov(Reg::R1, imm(3))),
        plain(Instr::b(2)), // to main
        // func: r0 += 1; return
        plain(add(Reg::R0, Reg::R0, 1)),
        plain(Instr::mov(Reg::PC, Operand2::reg(Reg::LR))),
        plain(EXIT),
        // main: r4 = &func
        FitsOp::WideImm {
            op: DpOp::Mov,
            set_flags: false,
            rd: Reg::R4,
            rn: Reg::R4,
            imm: TEXT_BASE + 2 * 2,
        },
        plain(add(Reg::R2, Reg::R2, 1)), // loop: pairs with the jalr
        FitsOp::Jalr(Reg::R4),
        plain(dec(Reg::R1)),
        plain(Instr::b(-5).with_cond(Cond::Ne)),
        plain(EXIT),
    ];
    let set = FitsOps::new(ops);
    assert_prices_like_the_reference(&set, "paired backward jalr (FITS)");
}

/// Multiplies accumulate penalty deltas between cache events: a multiply
/// carried into the loop issues after the loop head's fetch, so its delta
/// rides the template's first event, and the loop's own multiplies sit
/// between fetches (two to a word in FITS) and around a store.
#[test]
fn multiplies_between_cache_events_price_like_the_reference() {
    assert_both_isas_price_like_the_reference("multiplies", |_| {
        vec![
            Instr::mov(Reg::R0, imm(3)),
            Instr::mov(Reg::R3, imm(DATA_BASE)),
            Instr::mov(Reg::R5, imm(7)),
            Instr::mul(Reg::R6, Reg::R5, Reg::R5), // pending at the fall-through
            add(Reg::R7, Reg::R6, 1),              // loop: waits for the multiply
            Instr::mul(Reg::R8, Reg::R5, Reg::R0),
            Instr::mul(Reg::R9, Reg::R5, Reg::R5),
            Instr::mem(MemOp::Str, Reg::R8, Reg::R3, 0),
            Instr::mul(Reg::R6, Reg::R5, Reg::R0),
            dec(Reg::R0),
            Instr::b(-8).with_cond(Cond::Ne),
            Instr::mov(Reg::R0, Operand2::reg(Reg::R7)),
            EXIT,
        ]
    });
}

/// `n` adds that touch none of the registers the cases below use, long
/// enough to give a loop body the fetches a fold needs in both ISAs.
fn filler(n: usize) -> impl Iterator<Item = Instr> {
    (0..n).map(|i| {
        let r = [Reg::R2, Reg::R8, Reg::R9][i % 3];
        add(r, r, 1)
    })
}

/// A warm loop body with no memory access is one run of fetches. Its
/// forty runs of about ten cycles each start at many phases of a
/// 64-cycle peak window, so some runs straddle a window boundary and
/// their accesses and toggles must be split between the two windows.
#[test]
fn warm_fetches_straddling_a_peak_window_price_like_the_reference() {
    assert_both_isas_price_like_the_reference("straddling fetches", |_| {
        let mut text = vec![
            Instr::mov(Reg::R0, imm(40)),
            add(Reg::R1, Reg::R1, 1), // loop
        ];
        text.extend(filler(12));
        text.extend([
            dec(Reg::R0),
            Instr::b(-16).with_cond(Cond::Ne),
            Instr::mov(Reg::R0, Operand2::reg(Reg::R1)),
            EXIT,
        ]);
        text
    });
}

/// Each iteration loads from a fresh D-cache line, so a miss inside the
/// warm loop body stalls it and pushes the fetches after the load later,
/// often into the next peak window.
#[test]
fn a_dcache_miss_inside_a_warm_block_prices_like_the_reference() {
    assert_both_isas_price_like_the_reference("D-miss in a warm block", |_| {
        let mut text = vec![
            Instr::mov(Reg::R0, imm(12)),
            Instr::mov(Reg::R3, imm(DATA_BASE)),
            add(Reg::R1, Reg::R1, 1), // loop
            Instr::mem(MemOp::Ldr, Reg::R5, Reg::R3, 0),
            add(Reg::R3, Reg::R3, 32),
        ];
        text.extend(filler(10));
        text.extend([
            dec(Reg::R0),
            Instr::b(-16).with_cond(Cond::Ne),
            Instr::mov(Reg::R0, Operand2::reg(Reg::R1)),
            EXIT,
        ]);
        text
    });
}

/// The outer loop leaves a load pending when it falls into the inner
/// loop. The inner loop's `mul` pairs with that load, so the multiply's
/// penalty is pending when the inner template starts, and the template's
/// first group, which reads the loaded register, stalls. The inner loop
/// is entered this way four times, so three of those runs are warm.
#[test]
fn entry_deltas_and_a_carried_stall_on_a_warm_block_price_like_the_reference() {
    assert_both_isas_price_like_the_reference("entry deltas and stall", |_| {
        let mut text = vec![
            Instr::mov(Reg::R0, imm(4)),
            Instr::mov(Reg::R1, imm(2)), // outer
            Instr::mov(Reg::R4, imm(DATA_BASE)),
            Instr::mem(MemOp::Ldr, Reg::R5, Reg::R4, 0), // pending at the fall-through
            Instr::mul(Reg::R6, Reg::R0, Reg::R0),       // inner: pairs with the load
            add(Reg::R7, Reg::R5, 1),                    // uses the load
        ];
        text.extend(filler(10));
        text.extend([
            dec(Reg::R1),
            Instr::b(-15).with_cond(Cond::Ne),
            dec(Reg::R0),
            Instr::b(-20).with_cond(Cond::Ne),
            Instr::mov(Reg::R0, Operand2::reg(Reg::R7)),
            EXIT,
        ]);
        text
    });
}

/// One `price_all` over a 16 KB I-cache that holds the whole loop and a
/// 128-byte LRU I-cache that the loop overflows, so one lane never evicts
/// and the other evicts on every iteration.
#[test]
fn one_pass_mixing_a_never_evicting_and_an_evicting_lane_prices_like_the_reference() {
    let small = Sa1100Config {
        icache: CacheConfig {
            name: "small-i".into(),
            size_bytes: 128,
            ways: 2,
            line_bytes: 32,
            replacement: Replacement::Lru,
        },
        ..Sa1100Config::icache_16k()
    };
    let cfgs = [Sa1100Config::icache_16k(), small];
    let build = |op_size: u32| {
        // 160 bytes of loop body: more than the small cache holds.
        let body = (0..160 / op_size).map(|i| add(Reg::R1, Reg::R1, i % 7 + 1));
        let mut text = vec![Instr::mov(Reg::R0, imm(6))];
        text.extend(body);
        text.push(dec(Reg::R0));
        let back = -(160 / op_size as i32) - 3;
        text.push(Instr::b(back).with_cond(Cond::Ne));
        text.extend([Instr::mov(Reg::R0, Operand2::reg(Reg::R1)), EXIT]);
        text
    };
    let program = Program {
        text: build(4),
        ..Program::default()
    };
    assert_prices_like_the_reference_on(&Ar32Set::load(&program), "mixed lanes (AR32)", &cfgs);
    let ops = build(2).into_iter().map(FitsOp::Plain).collect();
    assert_prices_like_the_reference_on(&FitsOps::new(ops), "mixed lanes (FITS)", &cfgs);
}
