//! The [`InstrSet`] abstraction and the native AR32 executor.

use fits_isa::alu::{dp_eval, mul_flags, shifter_operand};
use fits_isa::{AddrOffset, Index, Instr, InstrClass, MemOp, Program, Reg, Shift, TEXT_BASE};

use crate::cpu::BranchOutcome;
use crate::{ExecCtx, MemAccess, SimError, StepOutcome};

/// Static, per-instruction metadata the timing model needs.
///
/// Everything here is a pure function of the decoded instruction, so the
/// basic-block lifter ([`crate::CompiledProgram::compile`]) asks for it
/// **once per static op** ([`InstrSet::describe`]) and bakes it into the
/// op's step template, rather than re-deriving it per retired instruction.
#[derive(Clone, Copy, Debug)]
pub struct OpMeta {
    /// Broad category.
    pub class: InstrClass,
    /// Source registers (up to three).
    pub sources: [Option<Reg>; 3],
    /// Destination registers (up to two).
    pub dests: [Option<Reg>; 2],
    /// Whether the instruction writes the flags.
    pub sets_flags: bool,
    /// Whether the instruction reads the flags (predication, ADC/SBC, …).
    pub reads_flags: bool,
    /// Whether a multiplier is used.
    pub is_mul: bool,
    /// Register-file read ports used (`sources` entries that are `Some`).
    pub reg_reads: u32,
    /// Register-file write ports used (`dests` entries that are `Some`).
    pub reg_writes: u32,
}

impl OpMeta {
    /// Builds metadata, deriving the read/write port counts from the
    /// operand slots so they are computed exactly once per static op.
    #[must_use]
    pub fn new(
        class: InstrClass,
        sources: [Option<Reg>; 3],
        dests: [Option<Reg>; 2],
        sets_flags: bool,
        reads_flags: bool,
        is_mul: bool,
    ) -> OpMeta {
        OpMeta {
            class,
            sources,
            dests,
            sets_flags,
            reads_flags,
            is_mul,
            reg_reads: sources.iter().flatten().count() as u32,
            reg_writes: dests.iter().flatten().count() as u32,
        }
    }
}

/// Static control-flow shape of one decoded op — what the basic-block
/// lifter ([`crate::CompiledProgram`]) needs to place block leaders and
/// pre-resolve successor links.
///
/// The classification is purely static: a conditional branch is
/// [`OpControl::Branch`] whether or not any dynamic instance takes it, and
/// an op is [`OpControl::Indirect`] whenever its target is only known at
/// run time (`mov pc, r`, `ldr pc, …`, FITS `jalr`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpControl {
    /// Falls through to the next op.
    Sequential,
    /// Direct (possibly conditional) branch to a statically-known PC.
    Branch {
        /// Architectural target PC when the branch is taken.
        target: u32,
    },
    /// PC redirect whose target is only known at run time.
    Indirect,
    /// Trap (exit/emit); ends a block because `exit` stops the run.
    Trap,
}

/// An executable instruction set: the bridge between a program binary and
/// the ISA-agnostic [`crate::Machine`].
///
/// Implementations hold the pre-decoded text segment (instruction memory is
/// read-only in this simulator) and expose the raw encoded words so the
/// fetch path can account cache activity against the real bit patterns.
pub trait InstrSet {
    /// The decoded instruction type.
    type Op;

    /// Entry PC.
    fn entry_pc(&self) -> u32;

    /// Uniform encoded instruction size in bytes (4 for AR32, 2 for FITS).
    fn op_size(&self) -> u32;

    /// The initialized data image to load at `DATA_BASE`.
    fn initial_data(&self) -> &[u8];

    /// The decoded instruction at `pc`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadPc`] when `pc` is outside the text segment or
    /// misaligned.
    fn op_at(&self, pc: u32) -> Result<&Self::Op, SimError>;

    /// The encoded 32-bit word at an aligned text address (for fetch/toggle
    /// accounting). Out-of-range addresses return 0.
    fn fetch_word(&self, word_addr: u32) -> u32;

    /// Static metadata for an instruction.
    fn describe(&self, op: &Self::Op) -> OpMeta;

    /// Base address of the text segment (the PC of op index 0). Both
    /// shipped instruction sets place their text at the workspace-wide
    /// [`TEXT_BASE`].
    fn text_base(&self) -> u32 {
        TEXT_BASE
    }

    /// Number of decoded ops in the text segment. Op `i` lives at
    /// `text_base() + i * op_size()`.
    fn op_count(&self) -> usize;

    /// Static control-flow classification of the op at `pc`, used by the
    /// basic-block lifter to place leaders and pre-resolve direct branch
    /// targets. Must agree with what `execute` can actually do to the PC.
    fn control_flow(&self, pc: u32, op: &Self::Op) -> OpControl;

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Propagates memory faults and malformed-instruction conditions.
    fn execute(&self, op: &Self::Op, ctx: &mut ExecCtx<'_>) -> Result<StepOutcome, SimError>;
}

/// The native AR32 instruction set, pre-decoded from a [`Program`].
#[derive(Clone, Debug)]
pub struct Ar32Set {
    text: Vec<Instr>,
    words: Vec<u32>,
    data: Vec<u8>,
    entry: usize,
}

impl Ar32Set {
    /// Loads a program, pre-encoding every instruction for fetch accounting.
    #[must_use]
    pub fn load(program: &Program) -> Ar32Set {
        Ar32Set::load_with(program, fits_isa::spec::Ar32Tables::builtin())
    }

    /// Loads a program using spec-compiled encode tables for the fetch
    /// words, so toggle/cache accounting runs against the bit patterns the
    /// loaded ISA spec defines. `load` is this with the shipped tables
    /// (which are bit-identical to [`Instr::encode`]).
    #[must_use]
    pub fn load_with(program: &Program, tables: &fits_isa::spec::Ar32Tables) -> Ar32Set {
        Ar32Set {
            words: program.text.iter().map(|i| tables.encode(i)).collect(),
            text: program.text.clone(),
            data: program.data.clone(),
            entry: program.entry,
        }
    }

    fn index_of(&self, pc: u32) -> Result<usize, SimError> {
        if pc < TEXT_BASE || !pc.is_multiple_of(4) {
            return Err(SimError::BadPc { pc });
        }
        let index = ((pc - TEXT_BASE) / 4) as usize;
        if index >= self.text.len() {
            return Err(SimError::BadPc { pc });
        }
        Ok(index)
    }
}

/// Static metadata for an AR32 internal operation — shared with the FITS
/// executor, which pre-decodes to the same internal form.
#[must_use]
pub fn instr_meta(instr: &Instr) -> OpMeta {
    let mut sources = [None; 3];
    for (slot, r) in sources.iter_mut().zip(instr.reads()) {
        *slot = Some(r);
    }
    let mut dests = [None; 2];
    for (slot, r) in dests.iter_mut().zip(instr.writes()) {
        *slot = Some(r);
    }
    let reads_flags = instr.cond() != fits_isa::Cond::Al
        || matches!(
            instr,
            Instr::Dp {
                op: fits_isa::DpOp::Adc | fits_isa::DpOp::Sbc | fits_isa::DpOp::Rsc,
                ..
            }
        );
    OpMeta::new(
        instr.class(),
        sources,
        dests,
        instr.sets_flags(),
        reads_flags,
        matches!(instr, Instr::Mul { .. }),
    )
}

/// Static control flow of an [`Instr`], shared with the FITS executor
/// (whose `Plain` micro-ops are this same type at `op_size == 2`). The
/// branch-target arithmetic mirrors [`execute_instr`] exactly: words
/// relative to PC + 2·`op_size`, scaled by `op_size`.
#[must_use]
pub fn instr_control_flow(instr: &Instr, pc: u32, op_size: u32) -> OpControl {
    match instr {
        Instr::Branch { offset, .. } => OpControl::Branch {
            target: pc
                .wrapping_add(2 * op_size)
                .wrapping_add((offset.wrapping_mul(op_size as i32)) as u32),
        },
        Instr::Dp { op, rd, .. } if rd.is_pc() && !op.is_compare() => OpControl::Indirect,
        Instr::Mem { op, rd, .. } if op.is_load() && rd.is_pc() => OpControl::Indirect,
        Instr::Swi { .. } => OpControl::Trap,
        _ => OpControl::Sequential,
    }
}

/// Executes one AR32 instruction against the context. Shared with the FITS
/// executor in `fits-core`, whose programmable decoder expands each 16-bit
/// instruction to exactly this internal form — the "full range of functions"
/// datapath of the paper's §3.1.
///
/// # Errors
///
/// Propagates memory faults and unknown trap numbers.
pub fn execute_instr(
    instr: &Instr,
    ctx: &mut ExecCtx<'_>,
    op_size: u32,
) -> Result<StepOutcome, SimError> {
    let seq_pc = ctx.pc.wrapping_add(op_size);
    let mut out = StepOutcome {
        executed: true,
        next_pc: seq_pc,
        mem: None,
        exit: None,
        emit: None,
        branch: None,
        is_mul: false,
    };

    if !instr.cond().holds(ctx.cpu.flags) {
        out.executed = false;
        if let Instr::Branch { offset, .. } = instr {
            out.branch = Some(BranchOutcome {
                taken: false,
                backward: *offset < 0,
            });
        }
        return Ok(out);
    }

    match instr {
        Instr::Dp {
            op,
            set_flags,
            rd,
            rn,
            op2,
            ..
        } => {
            let (b, shifter_carry) = shifter_operand(op2, ctx.cpu.flags.c, |r| ctx.read_reg(r));
            let a = if op.ignores_rn() {
                0
            } else {
                ctx.read_reg(*rn)
            };
            let r = dp_eval(*op, a, b, shifter_carry, ctx.cpu.flags);
            if *set_flags {
                ctx.cpu.flags = r.flags;
            }
            if !op.is_compare() {
                if rd.is_pc() {
                    if !r.value.is_multiple_of(op_size) {
                        return Err(SimError::BadPc { pc: r.value });
                    }
                    out.next_pc = r.value;
                } else {
                    ctx.write_reg(*rd, r.value);
                }
            }
        }
        Instr::Mul {
            set_flags,
            rd,
            rm,
            rs,
            acc,
            ..
        } => {
            out.is_mul = true;
            let mut value = ctx.read_reg(*rm).wrapping_mul(ctx.read_reg(*rs));
            if let Some(rn) = acc {
                value = value.wrapping_add(ctx.read_reg(*rn));
            }
            if *set_flags {
                ctx.cpu.flags = mul_flags(value, ctx.cpu.flags);
            }
            ctx.write_reg(*rd, value);
        }
        Instr::Mem {
            op,
            rd,
            rn,
            offset,
            index,
            ..
        } => {
            let base = ctx.read_reg(*rn);
            let off_value = match offset {
                AddrOffset::Imm(d) => *d as u32,
                AddrOffset::Reg {
                    rm,
                    shift,
                    subtract,
                } => {
                    let raw = ctx.read_reg(*rm);
                    let shifted = match shift {
                        Shift::Imm(kind, n) => {
                            let amount = u32::from(*n);
                            fits_isa::alu::barrel_shift(*kind, raw, amount, false).0
                        }
                        Shift::Reg(..) => {
                            return Err(SimError::BadInstruction {
                                what: "register-shifted memory offset".to_string(),
                            })
                        }
                    };
                    if *subtract {
                        shifted.wrapping_neg()
                    } else {
                        shifted
                    }
                }
            };
            let indexed = base.wrapping_add(off_value);
            let addr = match index {
                Index::Post => base,
                _ => indexed,
            };
            let size = op.size();
            let signed = matches!(op, MemOp::Ldrsb | MemOp::Ldrsh);
            let data;
            if op.is_load() {
                let value = ctx.load(addr, size, signed)?;
                data = value;
                if index.writes_base() {
                    ctx.write_reg(*rn, indexed);
                }
                if rd.is_pc() {
                    if value % op_size != 0 {
                        return Err(SimError::BadPc { pc: value });
                    }
                    out.next_pc = value;
                } else {
                    ctx.write_reg(*rd, value);
                }
            } else {
                let value = ctx.read_reg(*rd);
                ctx.store(addr, size, value)?;
                data = value;
                if index.writes_base() {
                    ctx.write_reg(*rn, indexed);
                }
            }
            out.mem = Some(MemAccess {
                addr,
                size,
                is_load: op.is_load(),
                data,
            });
        }
        Instr::Branch { link, offset, .. } => {
            if *link {
                ctx.write_reg(Reg::LR, ctx.pc.wrapping_add(op_size));
            }
            // The offset is architectural: words relative to PC + 8 in AR32.
            // FITS reuses the same `Instr` as its micro-op form with its own
            // scaling, so the executor takes the op size into account.
            let scale = op_size;
            out.next_pc = ctx
                .pc
                .wrapping_add(2 * scale)
                .wrapping_add((offset.wrapping_mul(scale as i32)) as u32);
            out.branch = Some(BranchOutcome {
                taken: true,
                backward: *offset < 0,
            });
        }
        Instr::Swi { imm, .. } => match imm {
            0 => out.exit = Some(ctx.read_reg(Reg::R0)),
            1 => out.emit = Some(ctx.read_reg(Reg::R0)),
            n => return Err(SimError::UnknownSwi { number: *n }),
        },
    }
    Ok(out)
}

impl InstrSet for Ar32Set {
    type Op = Instr;

    fn entry_pc(&self) -> u32 {
        TEXT_BASE + (self.entry as u32) * 4
    }

    fn op_size(&self) -> u32 {
        4
    }

    fn initial_data(&self) -> &[u8] {
        &self.data
    }

    fn op_at(&self, pc: u32) -> Result<&Instr, SimError> {
        Ok(&self.text[self.index_of(pc)?])
    }

    fn fetch_word(&self, word_addr: u32) -> u32 {
        self.index_of(word_addr).map(|i| self.words[i]).unwrap_or(0)
    }

    fn describe(&self, op: &Instr) -> OpMeta {
        instr_meta(op)
    }

    fn op_count(&self) -> usize {
        self.text.len()
    }

    fn control_flow(&self, pc: u32, op: &Instr) -> OpControl {
        instr_control_flow(op, pc, 4)
    }

    fn execute(&self, op: &Instr, ctx: &mut ExecCtx<'_>) -> Result<StepOutcome, SimError> {
        execute_instr(op, ctx, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpuState, Memory};
    use fits_isa::{Cond, DpOp, Operand2, RotImm, ShiftKind, DATA_BASE};

    fn ctx_fixture() -> (CpuState, Memory) {
        (CpuState::new(), Memory::with_data(&[0; 64]))
    }

    fn exec(instr: Instr, cpu: &mut CpuState, mem: &mut Memory, pc: u32) -> StepOutcome {
        let mut ctx = ExecCtx { cpu, mem, pc };
        execute_instr(&instr, &mut ctx, 4).unwrap()
    }

    #[test]
    fn add_and_flags() {
        let (mut cpu, mut mem) = ctx_fixture();
        cpu.regs[1] = 7;
        let out = exec(
            Instr::dp(DpOp::Add, Reg::R0, Reg::R1, Operand2::imm(5).unwrap()),
            &mut cpu,
            &mut mem,
            TEXT_BASE,
        );
        assert_eq!(cpu.regs[0], 12);
        assert_eq!(out.next_pc, TEXT_BASE + 4);
        assert!(!cpu.flags.z, "no S bit, flags untouched");
    }

    #[test]
    fn conditional_skip() {
        let (mut cpu, mut mem) = ctx_fixture();
        cpu.regs[1] = 7;
        let out = exec(
            Instr::dp(DpOp::Add, Reg::R0, Reg::R1, Operand2::imm(5).unwrap()).with_cond(Cond::Eq),
            &mut cpu,
            &mut mem,
            TEXT_BASE,
        );
        assert!(!out.executed);
        assert_eq!(cpu.regs[0], 0);
    }

    #[test]
    fn load_store_round_trip() {
        let (mut cpu, mut mem) = ctx_fixture();
        cpu.regs[1] = DATA_BASE;
        cpu.regs[2] = 0xdead_beef;
        exec(
            Instr::mem(MemOp::Str, Reg::R2, Reg::R1, 8),
            &mut cpu,
            &mut mem,
            TEXT_BASE,
        );
        let out = exec(
            Instr::mem(MemOp::Ldr, Reg::R3, Reg::R1, 8),
            &mut cpu,
            &mut mem,
            TEXT_BASE + 4,
        );
        assert_eq!(cpu.regs[3], 0xdead_beef);
        let acc = out.mem.unwrap();
        assert_eq!(acc.addr, DATA_BASE + 8);
        assert!(acc.is_load);
        assert_eq!(acc.data, 0xdead_beef);
    }

    #[test]
    fn post_index_updates_base() {
        let (mut cpu, mut mem) = ctx_fixture();
        cpu.regs[1] = DATA_BASE;
        mem.store_w(DATA_BASE, 42).unwrap();
        let instr = Instr::Mem {
            cond: Cond::Al,
            op: MemOp::Ldr,
            rd: Reg::R0,
            rn: Reg::R1,
            offset: AddrOffset::Imm(4),
            index: Index::Post,
        };
        exec(instr, &mut cpu, &mut mem, TEXT_BASE);
        assert_eq!(cpu.regs[0], 42);
        assert_eq!(cpu.regs[1], DATA_BASE + 4);
    }

    #[test]
    fn scaled_register_offset() {
        let (mut cpu, mut mem) = ctx_fixture();
        cpu.regs[1] = DATA_BASE;
        cpu.regs[2] = 3;
        mem.store_w(DATA_BASE + 12, 99).unwrap();
        let instr = Instr::Mem {
            cond: Cond::Al,
            op: MemOp::Ldr,
            rd: Reg::R0,
            rn: Reg::R1,
            offset: AddrOffset::Reg {
                rm: Reg::R2,
                shift: Shift::Imm(ShiftKind::Lsl, 2),
                subtract: false,
            },
            index: Index::PreNoWb,
        };
        exec(instr, &mut cpu, &mut mem, TEXT_BASE);
        assert_eq!(cpu.regs[0], 99);
    }

    #[test]
    fn branch_and_link() {
        let (mut cpu, mut mem) = ctx_fixture();
        let out = exec(
            Instr::Branch {
                cond: Cond::Al,
                link: true,
                offset: 3,
            },
            &mut cpu,
            &mut mem,
            TEXT_BASE,
        );
        assert_eq!(out.next_pc, TEXT_BASE + 8 + 12);
        assert_eq!(cpu.regs[14], TEXT_BASE + 4);
        assert_eq!(
            out.branch,
            Some(BranchOutcome {
                taken: true,
                backward: false
            })
        );
    }

    #[test]
    fn return_via_mov_pc_lr() {
        let (mut cpu, mut mem) = ctx_fixture();
        cpu.regs[14] = TEXT_BASE + 0x40;
        let out = exec(
            Instr::mov(Reg::PC, Operand2::reg(Reg::LR)),
            &mut cpu,
            &mut mem,
            TEXT_BASE,
        );
        assert_eq!(out.next_pc, TEXT_BASE + 0x40);
    }

    #[test]
    fn mla_accumulates() {
        let (mut cpu, mut mem) = ctx_fixture();
        cpu.regs[1] = 6;
        cpu.regs[2] = 7;
        cpu.regs[3] = 100;
        let instr = Instr::Mul {
            cond: Cond::Al,
            set_flags: false,
            rd: Reg::R0,
            rm: Reg::R1,
            rs: Reg::R2,
            acc: Some(Reg::R3),
        };
        let out = exec(instr, &mut cpu, &mut mem, TEXT_BASE);
        assert_eq!(cpu.regs[0], 142);
        assert!(out.is_mul);
    }

    #[test]
    fn swi_exit_and_emit() {
        let (mut cpu, mut mem) = ctx_fixture();
        cpu.regs[0] = 77;
        let out = exec(
            Instr::Swi {
                cond: Cond::Al,
                imm: 0,
            },
            &mut cpu,
            &mut mem,
            TEXT_BASE,
        );
        assert_eq!(out.exit, Some(77));
        let out = exec(
            Instr::Swi {
                cond: Cond::Al,
                imm: 1,
            },
            &mut cpu,
            &mut mem,
            TEXT_BASE,
        );
        assert_eq!(out.emit, Some(77));
        let mut ctx = ExecCtx {
            cpu: &mut cpu,
            mem: &mut mem,
            pc: TEXT_BASE,
        };
        assert!(matches!(
            execute_instr(
                &Instr::Swi {
                    cond: Cond::Al,
                    imm: 9
                },
                &mut ctx,
                4
            ),
            Err(SimError::UnknownSwi { number: 9 })
        ));
    }

    #[test]
    fn rotated_immediate_materializes() {
        let (mut cpu, mut mem) = ctx_fixture();
        let imm = RotImm::encode(0x3fc0).unwrap();
        exec(
            Instr::mov(Reg::R0, Operand2::Imm(imm)),
            &mut cpu,
            &mut mem,
            TEXT_BASE,
        );
        assert_eq!(cpu.regs[0], 0x3fc0);
    }

    #[test]
    fn meta_flags() {
        let set = Ar32Set::load(&Program {
            text: vec![Instr::dp(
                DpOp::Adc,
                Reg::R0,
                Reg::R1,
                Operand2::reg(Reg::R2),
            )],
            ..Program::default()
        });
        let m = set.describe(&set.text[0]);
        assert!(m.reads_flags);
        assert!(!m.sets_flags);
        assert_eq!(m.class, InstrClass::Operate);
        assert_eq!(m.sources[0], Some(Reg::R1));
        assert_eq!(m.dests[0], Some(Reg::R0));
    }
}
