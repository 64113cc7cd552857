//! The FITS profiler (stage 1 of the Figure-1 design flow).
//!
//! Produces "an extensive requirement analysis related to each element that
//! makes up an instruction set" (§3.2): opcode usage by family, immediate
//! value distributions per category, displacement ranges, condition-code
//! usage, register pressure and 2-vs-3-operand feasibility — everything the
//! synthesis stage's optimizer consumes.

use std::collections::{BTreeMap, HashMap};

use fits_isa::{AddrOffset, Cond, DpOp, Instr, MemOp, Operand2, Program, Shift, ShiftKind};
use fits_sim::{Ar32Set, CompiledProgram, Machine, RecordedTrace, RunOutput, SimError};

/// A static/dynamic counter pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stat {
    /// Occurrences in the text segment.
    pub stat: u64,
    /// Retired executions.
    pub dyn_: u64,
}

impl Stat {
    fn bump(&mut self, executions: u64) {
        self.stat += 1;
        self.dyn_ += executions;
    }
}

/// A value histogram with static and dynamic weights.
#[derive(Clone, Debug, Default)]
pub struct ValueHist {
    counts: HashMap<u32, Stat>,
}

impl ValueHist {
    /// Records one static site executed `executions` times.
    pub fn record(&mut self, value: u32, executions: u64) {
        self.counts.entry(value).or_default().bump(executions);
    }

    /// Merges a pre-aggregated stat (used to build the global per-category
    /// histograms out of the per-family ones).
    pub fn record_weighted(&mut self, value: u32, s: Stat) {
        let e = self.counts.entry(value).or_default();
        e.stat += s.stat;
        e.dyn_ += s.dyn_;
    }

    /// Distinct values seen.
    #[must_use]
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Values sorted by descending dynamic weight (ties: static, value).
    #[must_use]
    pub fn by_dynamic_weight(&self) -> Vec<(u32, Stat)> {
        let mut v: Vec<(u32, Stat)> = self.counts.iter().map(|(k, s)| (*k, *s)).collect();
        v.sort_by(|a, b| {
            b.1.dyn_
                .cmp(&a.1.dyn_)
                .then(b.1.stat.cmp(&a.1.stat))
                .then(a.0.cmp(&b.0))
        });
        v
    }

    /// Total dynamic weight.
    #[must_use]
    pub fn total_dyn(&self) -> u64 {
        self.counts.values().map(|s| s.dyn_).sum()
    }

    /// Dynamic weight of values satisfying `pred`.
    pub fn dyn_where(&self, mut pred: impl FnMut(u32) -> bool) -> u64 {
        self.counts
            .iter()
            .filter(|(v, _)| pred(**v))
            .map(|(_, s)| s.dyn_)
            .sum()
    }
}

/// An instruction-family key: the granularity at which opcodes are
/// synthesized. Set-flags variants are distinct families (they become
/// distinct opcodes, as on every 16-bit ISA).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKey {
    /// Register-register data processing (excluding compares and moves by
    /// shift).
    DpReg(DpOp, bool),
    /// Immediate data processing.
    DpImm(DpOp, bool),
    /// Shift by constant (`mov rd, ra, LSL #n`).
    ShiftImm(ShiftKind, bool),
    /// Shift by register.
    ShiftReg(ShiftKind, bool),
    /// Register compare (CMP/CMN/TST/TEQ).
    CmpReg(DpOp),
    /// Immediate compare.
    CmpImm(DpOp),
    /// 32-bit multiply.
    Mul,
    /// Load/store with immediate displacement.
    Mem(MemOp),
    /// Conditional/unconditional branch (link = BL).
    Branch(Cond, bool),
    /// Indirect jump (`mov pc, r`).
    BranchReg,
    /// Predicated move (condition, immediate-form flag).
    PredMov(Cond, bool),
    /// Software interrupt.
    Swi,
}

/// Classifies an AR32 instruction into its family, together with the
/// salient operand facts the profiler records.
#[must_use]
pub fn classify(instr: &Instr) -> Option<OpKey> {
    match instr {
        Instr::Dp {
            cond,
            op,
            set_flags,
            rd,
            op2,
            ..
        } => {
            if op.is_compare() {
                return Some(match op2 {
                    Operand2::Imm(_) => OpKey::CmpImm(*op),
                    Operand2::Reg(..) => OpKey::CmpReg(*op),
                });
            }
            if rd.is_pc() {
                return Some(OpKey::BranchReg);
            }
            if *cond != Cond::Al {
                // Our compiler only predicates moves; other predicated ops
                // would fall back to branch-around in translation.
                if *op == DpOp::Mov {
                    return Some(OpKey::PredMov(*cond, matches!(op2, Operand2::Imm(_))));
                }
                return None;
            }
            match (op, op2) {
                (DpOp::Mov, Operand2::Reg(_, Shift::Imm(kind, n))) if *n > 0 => {
                    Some(OpKey::ShiftImm(*kind, *set_flags))
                }
                (DpOp::Mov, Operand2::Reg(_, Shift::Reg(kind, _))) => {
                    Some(OpKey::ShiftReg(*kind, *set_flags))
                }
                (_, Operand2::Imm(_)) => Some(OpKey::DpImm(*op, *set_flags)),
                (_, Operand2::Reg(_, Shift::Imm(ShiftKind::Lsl, 0))) => {
                    Some(OpKey::DpReg(*op, *set_flags))
                }
                // Shifted-operand ALU ops other than MOV: not a family of
                // their own (translate via a scratch shift).
                _ => None,
            }
        }
        Instr::Mul { .. } => Some(OpKey::Mul),
        Instr::Mem { offset, op, .. } => match offset {
            AddrOffset::Imm(_) => Some(OpKey::Mem(*op)),
            AddrOffset::Reg { .. } => None,
        },
        Instr::Branch { cond, link, .. } => Some(OpKey::Branch(*cond, *link)),
        Instr::Swi { .. } => Some(OpKey::Swi),
    }
}

/// The profiler's output.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Static instruction count.
    pub static_instrs: usize,
    /// Total retired instructions.
    pub dyn_total: u64,
    /// Retired count per text index.
    pub exec_counts: Vec<u64>,
    /// Per-family usage. Ordered: synthesis iterates these maps and
    /// breaks ties by encounter order, so the order must not vary between
    /// runs (served results are cached/compared byte-for-byte).
    pub families: BTreeMap<OpKey, Stat>,
    /// Sites that fall outside every family (translated by expansion).
    pub unclassified: Stat,
    /// Operate-category immediates, per family.
    pub operate_imms: BTreeMap<OpKey, ValueHist>,
    /// Memory displacements (two's-complement i32), per memory op.
    pub mem_disps: BTreeMap<MemOp, ValueHist>,
    /// Shift amounts per kind.
    pub shift_amounts: BTreeMap<ShiftKind, ValueHist>,
    /// Branch displacements in instruction units (two's-complement), per
    /// (cond, link) family.
    pub branch_disps: BTreeMap<(Cond, bool), ValueHist>,
    /// For each register-register DP family: dynamic executions where
    /// `rd == rn` (2-address compatible) and the family total.
    pub rd_eq_rn: BTreeMap<OpKey, (u64, u64)>,
    /// Physical registers referenced anywhere.
    pub regs_used: u16,
    /// Condition codes appearing on predicated (non-branch) instructions —
    /// the branch-around fallback needs their inverses synthesized.
    pub pred_conds: std::collections::BTreeSet<Cond>,
    /// Shift kinds appearing in any shifted operand (including shapes the
    /// family classifier rejects) — the shift fallbacks must exist.
    pub shift_kinds: std::collections::BTreeSet<ShiftKind>,
    /// The functional run result (the profiling run doubles as the
    /// reference run for later differential checks).
    pub run: Option<RunOutput>,
}

impl Profile {
    /// Number of distinct physical registers referenced.
    #[must_use]
    pub fn distinct_regs(&self) -> u32 {
        self.regs_used.count_ones()
    }

    /// Dynamic usage share of a family.
    #[must_use]
    pub fn dyn_share(&self, key: OpKey) -> f64 {
        if self.dyn_total == 0 {
            return 0.0;
        }
        self.families
            .get(&key)
            .map_or(0.0, |s| s.dyn_ as f64 / self.dyn_total as f64)
    }

    /// The fraction of a DP-reg family's executions that are 2-address
    /// compatible (`rd == rn`) — the §3.3 operand-mode statistic.
    #[must_use]
    pub fn two_address_rate(&self, key: OpKey) -> f64 {
        match self.rd_eq_rn.get(&key) {
            Some((eq, total)) if *total > 0 => *eq as f64 / *total as f64,
            _ => 0.0,
        }
    }
}

fn record_instr(profile: &mut Profile, instr: &Instr, index: usize, executions: u64) {
    for r in instr.reads().into_iter().chain(instr.writes()) {
        profile.regs_used |= 1 << r.index();
    }
    // Operand-shape facts that must be visible regardless of family
    // classification: predication conditions and shifter usage.
    if instr.cond() != Cond::Al && !matches!(instr, Instr::Branch { .. }) {
        profile.pred_conds.insert(instr.cond());
    }
    if let Instr::Dp {
        op2: Operand2::Reg(_, shift),
        ..
    } = instr
    {
        match shift {
            Shift::Imm(kind, n) if *n > 0 => {
                profile.shift_kinds.insert(*kind);
                profile
                    .shift_amounts
                    .entry(*kind)
                    .or_default()
                    .record(u32::from(*n), executions);
            }
            Shift::Reg(kind, _) => {
                profile.shift_kinds.insert(*kind);
            }
            _ => {}
        }
    }
    let Some(key) = classify(instr) else {
        profile.unclassified.bump(executions);
        return;
    };
    profile.families.entry(key).or_default().bump(executions);
    match instr {
        Instr::Dp { rd, rn, op2, .. } => {
            if let Operand2::Imm(imm) = op2 {
                profile
                    .operate_imms
                    .entry(key)
                    .or_default()
                    .record(imm.value(), executions);
            }
            if matches!(key, OpKey::DpReg(..)) {
                let e = profile.rd_eq_rn.entry(key).or_default();
                if rd == rn {
                    e.0 += executions;
                }
                e.1 += executions;
            }
        }
        Instr::Mem {
            op,
            offset: AddrOffset::Imm(d),
            ..
        } => {
            profile
                .mem_disps
                .entry(*op)
                .or_default()
                .record(*d as u32, executions);
        }
        Instr::Branch { cond, link, offset } => {
            let _ = index;
            profile
                .branch_disps
                .entry((*cond, *link))
                .or_default()
                .record(*offset as u32, executions);
        }
        _ => {}
    }
}

/// Profiles a program: one static pass over the text plus one full
/// functional execution for dynamic counts (the paper's profile-guided
/// flow; §3.1 "we currently use profile information").
///
/// The dynamic counts ride the basic-block compiled replay engine: the
/// profiling run records a compact block trace
/// ([`Machine::run_recorded`]) and the per-instruction execution counts
/// fall out of a difference array over its entries — no per-step observer
/// closure.
///
/// # Errors
///
/// Propagates simulation errors from the profiling run.
pub fn profile(program: &Program) -> Result<Profile, SimError> {
    profile_with(program, fits_isa::spec::Ar32Tables::builtin())
}

/// [`profile`] with explicit spec-compiled AR32 encode tables: the
/// profiling execution's fetch/toggle accounting runs against the words
/// those tables produce. `profile` is this with the shipped tables.
///
/// # Errors
///
/// Propagates simulation errors from the profiling run.
pub fn profile_with(
    program: &Program,
    tables: &fits_isa::spec::Ar32Tables,
) -> Result<Profile, SimError> {
    profile_recorded(program, tables).map(|(profile, _, _)| profile)
}

/// [`profile_with`], also handing back the lifted native program and the
/// profiling run's recording, so a caller can price the native binary
/// ([`RecordedTrace::price_all`]) without executing it a second time.
///
/// # Errors
///
/// Propagates simulation errors from the profiling run.
pub fn profile_recorded(
    program: &Program,
    tables: &fits_isa::spec::Ar32Tables,
) -> Result<(Profile, CompiledProgram, RecordedTrace), SimError> {
    let set = Ar32Set::load_with(program, tables);
    let compiled = CompiledProgram::compile(&set)?;
    let mut machine = Machine::new(set);
    let trace = machine.run_recorded(&compiled)?;
    let exec_counts = trace.exec_counts(compiled.op_count());
    let run = trace.output;

    let mut p = Profile {
        static_instrs: program.text.len(),
        dyn_total: run.steps,
        run: Some(run),
        ..Profile::default()
    };
    for (i, instr) in program.text.iter().enumerate() {
        record_instr(&mut p, instr, i, exec_counts[i]);
    }
    p.exec_counts = exec_counts;
    Ok((p, compiled, trace))
}

/// Returns the minimum signed-field width (in bits) that holds `v`.
#[must_use]
pub fn signed_bits(v: i32) -> u8 {
    let mut w = 1u8;
    while w < 32 {
        let lo = -(1i64 << (w - 1));
        let hi = (1i64 << (w - 1)) - 1;
        if (i64::from(v)) >= lo && i64::from(v) <= hi {
            return w;
        }
        w += 1;
    }
    32
}

/// Returns the minimum unsigned-field width that holds `v`.
#[must_use]
pub fn unsigned_bits(v: u32) -> u8 {
    (32 - v.leading_zeros()).max(1) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use fits_isa::{Operand2, Reg};

    #[test]
    fn classify_families() {
        let add3 = Instr::dp(DpOp::Add, Reg::R0, Reg::R1, Operand2::reg(Reg::R2));
        assert_eq!(classify(&add3), Some(OpKey::DpReg(DpOp::Add, false)));
        let addi = Instr::dp(DpOp::Add, Reg::R0, Reg::R1, Operand2::imm(4).unwrap());
        assert_eq!(classify(&addi), Some(OpKey::DpImm(DpOp::Add, false)));
        let cmp = Instr::cmp(Reg::R0, Operand2::imm(3).unwrap());
        assert_eq!(classify(&cmp), Some(OpKey::CmpImm(DpOp::Cmp)));
        let lsl = Instr::mov(
            Reg::R0,
            Operand2::Reg(Reg::R1, Shift::Imm(ShiftKind::Lsl, 2)),
        );
        assert_eq!(classify(&lsl), Some(OpKey::ShiftImm(ShiftKind::Lsl, false)));
        let ret = Instr::mov(Reg::PC, Operand2::reg(Reg::LR));
        assert_eq!(classify(&ret), Some(OpKey::BranchReg));
        let predmov = Instr::mov(Reg::R0, Operand2::imm(1).unwrap()).with_cond(Cond::Eq);
        assert_eq!(classify(&predmov), Some(OpKey::PredMov(Cond::Eq, true)));
        let ldr = Instr::mem(MemOp::Ldr, Reg::R0, Reg::R1, 8);
        assert_eq!(classify(&ldr), Some(OpKey::Mem(MemOp::Ldr)));
        let b = Instr::b(-4).with_cond(Cond::Ne);
        assert_eq!(classify(&b), Some(OpKey::Branch(Cond::Ne, false)));
    }

    #[test]
    fn width_helpers() {
        assert_eq!(signed_bits(0), 1);
        assert_eq!(signed_bits(-1), 1);
        assert_eq!(signed_bits(1), 2);
        assert_eq!(signed_bits(-2), 2);
        assert_eq!(signed_bits(127), 8);
        assert_eq!(signed_bits(-128), 8);
        assert_eq!(signed_bits(128), 9);
        assert_eq!(unsigned_bits(0), 1);
        assert_eq!(unsigned_bits(1), 1);
        assert_eq!(unsigned_bits(15), 4);
        assert_eq!(unsigned_bits(16), 5);
    }

    #[test]
    fn value_hist_ordering() {
        let mut h = ValueHist::default();
        h.record(10, 5);
        h.record(20, 50);
        h.record(10, 3);
        let top = h.by_dynamic_weight();
        assert_eq!(top[0].0, 20);
        assert_eq!(top[1].0, 10);
        assert_eq!(top[1].1.stat, 2);
        assert_eq!(top[1].1.dyn_, 8);
        assert_eq!(h.distinct(), 2);
        assert_eq!(h.total_dyn(), 58);
        assert_eq!(h.dyn_where(|v| v < 15), 8);
    }

    #[test]
    fn profiles_a_small_program() {
        use fits_isa::Program;
        // r0 = 5; loop: r0 -= 1; bne loop; exit
        let program = Program {
            text: vec![
                Instr::mov(Reg::R0, Operand2::imm(5).unwrap()),
                Instr::Dp {
                    cond: Cond::Al,
                    op: DpOp::Sub,
                    set_flags: true,
                    rd: Reg::R0,
                    rn: Reg::R0,
                    op2: Operand2::imm(1).unwrap(),
                },
                Instr::b(-3).with_cond(Cond::Ne),
                Instr::Swi {
                    cond: Cond::Al,
                    imm: 0,
                },
            ],
            ..Program::default()
        };
        let p = profile(&program).unwrap();
        assert_eq!(p.static_instrs, 4);
        assert_eq!(p.dyn_total, 1 + 5 + 5 + 1);
        assert_eq!(p.exec_counts, vec![1, 5, 5, 1]);
        let subs = p.families[&OpKey::DpImm(DpOp::Sub, true)];
        assert_eq!(subs.stat, 1);
        assert_eq!(subs.dyn_, 5);
        let bne = p.families[&OpKey::Branch(Cond::Ne, false)];
        assert_eq!(bne.dyn_, 5);
        // The sub's rd == rn; it is an imm family though, so rd_eq_rn holds
        // only DpReg entries.
        assert!(p.rd_eq_rn.is_empty());
        assert!(p.regs_used & 1 != 0);
        assert_eq!(p.run.as_ref().unwrap().exit_code, 0);
    }
}
