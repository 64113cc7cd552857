//! The lowered executable form: every static op resolved once, at lift
//! time, into the shape the machine's block loop executes.
//!
//! Interpreting a decoded [`Instr`] re-derives, on every retired step,
//! facts that never change: the rotated immediate and its carry rule, the
//! shifter form, the addressing mode, the branch target. A [`LoweredOp`]
//! fixes all of them once per static op ([`crate::InstrSet::lower`], called
//! by [`crate::CompiledProgram::compile`]). Both instruction sets lower to
//! this one form — AR32 through [`LoweredOp::from_instr`], FITS through the
//! same call for its plain micro-ops plus [`LoweredOp::wide_imm`],
//! [`LoweredOp::wide_mem`] and [`LoweredOp::jalr`] for its extras — so the
//! machine runs a single datapath for both.
//!
//! Each op also carries the trace byte the recorder writes for it: its
//! static bits (branch, backward, memory, load) with the executed and
//! taken bits of an executed instance, and the byte of an instance whose
//! condition failed. The block loop copies a whole block's executed bytes
//! at once and patches only the rare dynamic exceptions.
//!
//! [`crate::InstrSet::execute`] keeps the per-step form as the test oracle;
//! the differential tests hold the two bit-identical.

use fits_isa::alu::{barrel_shift, dp_eval, mul_flags};
use fits_isa::{AddrOffset, Cond, DpOp, Index, Instr, MemOp, Operand2, Reg, Shift, ShiftKind};

use crate::{CpuState, ExecCtx, Memory, SimError};

/// Trace-byte bits, one byte per retired op.
pub(crate) const F_EXECUTED: u8 = 1 << 0;
pub(crate) const F_MEM: u8 = 1 << 1;
pub(crate) const F_MEM_LOAD: u8 = 1 << 2;
pub(crate) const F_BRANCH: u8 = 1 << 3;
pub(crate) const F_TAKEN: u8 = 1 << 4;
pub(crate) const F_BACKWARD: u8 = 1 << 5;

/// Static control-flow shape of one lowered op — what the basic-block
/// lifter ([`crate::CompiledProgram`]) needs to place block leaders and
/// pre-resolve successor links.
///
/// The classification is purely static: a conditional branch is
/// [`OpControl::Branch`] whether or not any dynamic instance takes it, and
/// an op is [`OpControl::Indirect`] whenever its target is only known at
/// run time (`mov pc, r`, `ldr pc, …`, FITS `jalr`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OpControl {
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

/// One static op, pre-resolved for the machine's block loop (see the
/// module docs). Built by [`crate::InstrSet::lower`] for the op at one PC;
/// the branch target and link value are fixed for that PC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoweredOp {
    cond: Cond,
    kind: Kind,
    /// Trace byte of an executed instance (the backward bit of a `jalr`
    /// is added at run time).
    exec_byte: u8,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Dp {
        op: DpOp,
        set_flags: bool,
        /// Read even for MOV/MVN, whose result ignores it.
        rn: u8,
        op2: Op2,
        dest: Dest,
    },
    Mul {
        set_flags: bool,
        rd: u8,
        rm: u8,
        rs: u8,
        acc: Option<u8>,
    },
    Load {
        width: Width,
        /// Destination register, or [`PC`] for a load into the PC.
        rd: u8,
        /// Required alignment of a loaded PC value.
        align: u8,
        addr: Addr,
    },
    Store {
        width: Width,
        rd: u8,
        addr: Addr,
    },
    Branch {
        target: u32,
        /// The return address written to `lr` by a linking branch.
        link: Option<u32>,
    },
    Jalr {
        ra: u8,
        ret: u32,
        align: u8,
    },
    Exit,
    Emit,
    UnknownSwi(u32),
    /// A form no executor supports; fails when its condition passes.
    Bad(Unsupported),
}

/// The shifter operand with its form fixed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op2 {
    /// Immediate whose shifter carry-out is the incoming carry.
    Imm(u32),
    /// Immediate with a fixed shifter carry-out (rotated immediates).
    ImmCarry(u32, bool),
    /// Unshifted register.
    Reg(u8),
    /// Register shifted by a constant amount (1..=32).
    ShiftImm(u8, ShiftKind, u8),
    /// Register shifted by the low byte of another register.
    ShiftReg(u8, ShiftKind, u8),
}

/// Where a data-processing result goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dest {
    Reg(u8),
    /// Compares write only the flags.
    Discard,
    /// An indirect jump; the value must be aligned to the op size.
    Pc {
        align: u8,
    },
}

/// A load/store address computation with its mode fixed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Addr {
    rn: u8,
    offset: Offset,
    /// Post-indexed: access at the base, then add the offset.
    post: bool,
    /// Write the indexed address back to `rn` (never the PC).
    writeback: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Offset {
    Imm(u32),
    Reg {
        rm: u8,
        kind: ShiftKind,
        amount: u8,
        subtract: bool,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Width {
    Word,
    Half,
    Byte,
    SignedHalf,
    SignedByte,
}

impl Width {
    fn of(op: MemOp) -> Width {
        match op {
            MemOp::Ldr | MemOp::Str => Width::Word,
            MemOp::Ldrh | MemOp::Strh => Width::Half,
            MemOp::Ldrb | MemOp::Strb => Width::Byte,
            MemOp::Ldrsh => Width::SignedHalf,
            MemOp::Ldrsb => Width::SignedByte,
        }
    }
}

const PC: u8 = 15;

/// What one executed op did to control flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Executed; falls through.
    Next,
    /// Condition failed; falls through.
    Skipped,
    /// Redirected the PC.
    Jump(u32),
    /// Exit trap with this code.
    Exit(u32),
    /// Emit trap with this word; falls through.
    Emit(u32),
}

/// Receives what the block loop produces beyond architectural state: the
/// recorder of [`crate::Machine::run_recorded`], or `()` for a plain run.
pub(crate) trait Recorder {
    /// Ops `start..end` (one block run) are about to retire.
    fn block(&mut self, start: u32, end: u32);
    /// Op `index`, in the current block run, failed its condition.
    fn skip(&mut self, index: usize);
    /// A memory op accessed `addr`, moving `data`.
    fn mem(&mut self, addr: u32, data: u32);
    /// The block's terminating `jalr` jumped backwards.
    fn back_jump(&mut self);
}

impl Recorder for () {
    #[inline(always)]
    fn block(&mut self, _start: u32, _end: u32) {}
    #[inline(always)]
    fn skip(&mut self, _index: usize) {}
    #[inline(always)]
    fn mem(&mut self, _addr: u32, _data: u32) {}
    #[inline(always)]
    fn back_jump(&mut self) {}
}

/// What one [`LoweredOp::step`] did, in the terms the recorder stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoweredStep {
    /// The redirect target, or `None` when the op falls through.
    pub jump: Option<u32>,
    /// The trace byte the recorder writes for this step; equal to
    /// [`crate::StepOutcome::trace_flags`] of the oracle's step.
    pub trace_flags: u8,
    /// `(addr, data)` of the data access, if any.
    pub mem: Option<(u32, u32)>,
    /// The exit code, for an exit trap.
    pub exit: Option<u32>,
    /// The emitted word, for an emit trap.
    pub emit: Option<u32>,
}

/// [`Recorder`] for a single step.
#[derive(Default)]
struct StepRecord {
    mem: Option<(u32, u32)>,
    back_jump: bool,
}

impl Recorder for StepRecord {
    fn block(&mut self, _start: u32, _end: u32) {}
    fn skip(&mut self, _index: usize) {}
    fn mem(&mut self, addr: u32, data: u32) {
        self.mem = Some((addr, data));
    }
    fn back_jump(&mut self) {
        self.back_jump = true;
    }
}

/// The alignment a jump target needs: the op size, which every
/// instruction set keeps a small power of two.
fn alignment(op_size: u32) -> u8 {
    assert!(
        op_size.is_power_of_two() && op_size <= 128,
        "op size {op_size} is not a small power of two"
    );
    op_size as u8
}

impl LoweredOp {
    fn new(cond: Cond, kind: Kind) -> LoweredOp {
        let exec_byte = match kind {
            Kind::Load { .. } => F_EXECUTED | F_MEM | F_MEM_LOAD,
            Kind::Store { .. } => F_EXECUTED | F_MEM,
            Kind::Branch { .. } | Kind::Jalr { .. } => F_EXECUTED | F_BRANCH | F_TAKEN,
            _ => F_EXECUTED,
        };
        LoweredOp {
            cond,
            kind,
            exec_byte,
        }
    }

    /// Lowers an AR32 internal operation at `pc`, for an instruction set
    /// whose ops are `op_size` bytes: AR32 itself, and the FITS micro-ops
    /// that expand to this same form. Forms no executor supports — a
    /// register-shifted memory offset, a multiply into the PC, base
    /// writeback to the PC — lower to ops that fail with
    /// [`SimError::BadInstruction`] when their condition passes.
    ///
    /// # Panics
    ///
    /// Panics unless `op_size` is a power of two of at most 128 bytes.
    #[must_use]
    pub fn from_instr(instr: &Instr, pc: u32, op_size: u32) -> LoweredOp {
        let kind = match *instr {
            Instr::Dp {
                op,
                set_flags,
                rd,
                rn,
                op2,
                ..
            } => Kind::Dp {
                op,
                set_flags,
                rn: rn.index(),
                op2: lower_op2(op2),
                dest: if op.is_compare() {
                    Dest::Discard
                } else if rd.is_pc() {
                    Dest::Pc {
                        align: alignment(op_size),
                    }
                } else {
                    Dest::Reg(rd.index())
                },
            },
            Instr::Mul {
                set_flags,
                rd,
                rm,
                rs,
                acc,
                ..
            } => {
                if rd.is_pc() {
                    Kind::Bad(Unsupported::MulIntoPc)
                } else {
                    Kind::Mul {
                        set_flags,
                        rd: rd.index(),
                        rm: rm.index(),
                        rs: rs.index(),
                        acc: acc.map(Reg::index),
                    }
                }
            }
            Instr::Mem {
                op,
                rd,
                rn,
                offset,
                index,
                ..
            } => lower_mem(op, rd, rn, offset, index, op_size),
            Instr::Branch { link, offset, .. } => {
                let target = pc
                    .wrapping_add(2 * op_size)
                    .wrapping_add(offset.wrapping_mul(op_size as i32) as u32);
                let kind = Kind::Branch {
                    target,
                    link: link.then(|| pc.wrapping_add(op_size)),
                };
                let mut lowered = LoweredOp::new(instr.cond(), kind);
                if offset < 0 {
                    lowered.exec_byte |= F_BACKWARD;
                }
                return lowered;
            }
            Instr::Swi { imm, .. } => match imm {
                0 => Kind::Exit,
                1 => Kind::Emit,
                n => Kind::UnknownSwi(n),
            },
        };
        LoweredOp::new(instr.cond(), kind)
    }

    /// Lowers a FITS data-processing op with a full-width immediate, whose
    /// shifter carry-out is the incoming carry (an unrotated ARM
    /// immediate). A non-compare into the PC fails with
    /// [`SimError::BadInstruction`].
    #[must_use]
    pub fn wide_imm(op: DpOp, set_flags: bool, rd: Reg, rn: Reg, imm: u32) -> LoweredOp {
        let dest = if op.is_compare() {
            Dest::Discard
        } else if rd.is_pc() {
            return LoweredOp::new(Cond::Al, Kind::Bad(Unsupported::WideImmIntoPc));
        } else {
            Dest::Reg(rd.index())
        };
        LoweredOp::new(
            Cond::Al,
            Kind::Dp {
                op,
                set_flags,
                rn: rn.index(),
                op2: Op2::Imm(imm),
                dest,
            },
        )
    }

    /// Lowers a FITS memory op with a full-width displacement from `rb`
    /// (no writeback). A load into the PC fails with
    /// [`SimError::BadInstruction`].
    #[must_use]
    pub fn wide_mem(op: MemOp, rd: Reg, rb: Reg, disp: i32) -> LoweredOp {
        if op.is_load() && rd.is_pc() {
            return LoweredOp::new(Cond::Al, Kind::Bad(Unsupported::WideLoadIntoPc));
        }
        let addr = Addr {
            rn: rb.index(),
            offset: Offset::Imm(disp as u32),
            post: false,
            writeback: false,
        };
        let width = Width::of(op);
        let kind = if op.is_load() {
            Kind::Load {
                width,
                rd: rd.index(),
                align: 1,
                addr,
            }
        } else {
            Kind::Store {
                width,
                rd: rd.index(),
                addr,
            }
        };
        LoweredOp::new(Cond::Al, kind)
    }

    /// Lowers a FITS linking indirect jump through `ra` at `pc`: the
    /// target must be `op_size`-aligned, and `lr` receives `pc + op_size`.
    ///
    /// # Panics
    ///
    /// Panics unless `op_size` is a power of two of at most 128 bytes.
    #[must_use]
    pub fn jalr(ra: Reg, pc: u32, op_size: u32) -> LoweredOp {
        LoweredOp::new(
            Cond::Al,
            Kind::Jalr {
                ra: ra.index(),
                ret: pc.wrapping_add(op_size),
                align: alignment(op_size),
            },
        )
    }

    /// Static control-flow shape, for placing block leaders: every op that
    /// can redirect, trap or exit is classified as such, so only a block's
    /// last op ever leaves it.
    pub(crate) fn control(&self) -> OpControl {
        match self.kind {
            Kind::Branch { target, .. } => OpControl::Branch { target },
            Kind::Dp {
                dest: Dest::Pc { .. },
                ..
            }
            | Kind::Load { rd: PC, .. }
            | Kind::Jalr { .. } => OpControl::Indirect,
            Kind::Exit | Kind::Emit | Kind::UnknownSwi(_) => OpControl::Trap,
            _ => OpControl::Sequential,
        }
    }

    /// Trace byte of an executed instance, without the run-time backward
    /// bit of a `jalr`.
    pub(crate) fn exec_byte(&self) -> u8 {
        self.exec_byte
    }

    /// Trace byte of an instance whose condition failed.
    pub(crate) fn skip_byte(&self) -> u8 {
        // Only a branch's static bits survive a failed condition.
        self.exec_byte & (F_BRANCH | F_BACKWARD)
    }

    /// Executes this op once against `ctx`, whose `pc` must be the PC the
    /// op was lowered for — the block loop's step, exposed for the
    /// differential tests against [`crate::InstrSet::execute`].
    ///
    /// # Errors
    ///
    /// Exactly those of the oracle's step: memory faults, a misaligned
    /// jump target, an unknown trap number, an unsupported form.
    pub fn step(&self, ctx: &mut ExecCtx<'_>) -> Result<LoweredStep, SimError> {
        let mut record = StepRecord::default();
        let flow = self.exec(ctx.cpu, ctx.mem, ctx.pc, &mut record)?;
        let mut step = LoweredStep {
            jump: None,
            trace_flags: self.exec_byte,
            mem: record.mem,
            exit: None,
            emit: None,
        };
        match flow {
            Flow::Next => {}
            Flow::Skipped => step.trace_flags = self.skip_byte(),
            Flow::Jump(target) => step.jump = Some(target),
            Flow::Exit(code) => step.exit = Some(code),
            Flow::Emit(word) => step.emit = Some(word),
        }
        if record.back_jump {
            step.trace_flags |= F_BACKWARD;
        }
        Ok(step)
    }

    /// Executes this op at `pc`, reporting data accesses and backward
    /// `jalr`s to `rec`. Side effects happen in the oracle's order, so the
    /// state at a fault matches it too.
    #[inline(always)]
    pub(crate) fn exec<R: Recorder>(
        &self,
        cpu: &mut CpuState,
        mem: &mut Memory,
        pc: u32,
        rec: &mut R,
    ) -> Result<Flow, SimError> {
        if self.cond != Cond::Al && !self.cond.holds(cpu.flags) {
            return Ok(Flow::Skipped);
        }
        // `r15` reads as the ARM-visible PC + 8.
        let get = |cpu: &CpuState, r: u8| {
            if r == PC {
                pc.wrapping_add(8)
            } else {
                cpu.regs[usize::from(r & 15)]
            }
        };
        match self.kind {
            Kind::Dp {
                op,
                set_flags,
                rn,
                op2,
                dest,
            } => {
                let carry = cpu.flags.c;
                let (b, shifter_carry) = match op2 {
                    Op2::Imm(value) => (value, carry),
                    Op2::ImmCarry(value, c) => (value, c),
                    Op2::Reg(rm) => (get(cpu, rm), carry),
                    Op2::ShiftImm(rm, kind, amount) => {
                        barrel_shift(kind, get(cpu, rm), u32::from(amount), carry)
                    }
                    Op2::ShiftReg(rm, kind, rs) => {
                        let value = get(cpu, rm);
                        match get(cpu, rs) & 0xff {
                            0 => (value, carry),
                            amount => barrel_shift(kind, value, amount, carry),
                        }
                    }
                };
                let a = get(cpu, rn);
                let value = if set_flags {
                    let r = dp_eval(op, a, b, shifter_carry, cpu.flags);
                    cpu.flags = r.flags;
                    r.value
                } else {
                    dp_value(op, a, b, carry)
                };
                match dest {
                    Dest::Reg(rd) => cpu.regs[usize::from(rd & 15)] = value,
                    Dest::Discard => {}
                    Dest::Pc { align } => {
                        if value % u32::from(align) != 0 {
                            return Err(SimError::BadPc { pc: value });
                        }
                        return Ok(Flow::Jump(value));
                    }
                }
                Ok(Flow::Next)
            }
            Kind::Mul {
                set_flags,
                rd,
                rm,
                rs,
                acc,
            } => {
                let mut value = get(cpu, rm).wrapping_mul(get(cpu, rs));
                if let Some(rn) = acc {
                    value = value.wrapping_add(get(cpu, rn));
                }
                if set_flags {
                    cpu.flags = mul_flags(value, cpu.flags);
                }
                cpu.regs[usize::from(rd & 15)] = value;
                Ok(Flow::Next)
            }
            Kind::Load {
                width,
                rd,
                align,
                addr,
            } => {
                let (at, indexed) = addr.resolve(cpu, get);
                let value = match width {
                    Width::Word => mem.load_w(at)?,
                    Width::Half => mem.load_h(at)?,
                    Width::Byte => mem.load_b(at)?,
                    Width::SignedHalf => mem.load_h(at)? as u16 as i16 as i32 as u32,
                    Width::SignedByte => mem.load_b(at)? as u8 as i8 as i32 as u32,
                };
                if addr.writeback {
                    cpu.regs[usize::from(addr.rn & 15)] = indexed;
                }
                if rd == PC {
                    if value % u32::from(align) != 0 {
                        return Err(SimError::BadPc { pc: value });
                    }
                    rec.mem(at, value);
                    return Ok(Flow::Jump(value));
                }
                cpu.regs[usize::from(rd & 15)] = value;
                rec.mem(at, value);
                Ok(Flow::Next)
            }
            Kind::Store { width, rd, addr } => {
                let (at, indexed) = addr.resolve(cpu, get);
                let value = get(cpu, rd);
                match width {
                    Width::Word => mem.store_w(at, value)?,
                    Width::Half | Width::SignedHalf => mem.store_h(at, value)?,
                    Width::Byte | Width::SignedByte => mem.store_b(at, value)?,
                }
                if addr.writeback {
                    cpu.regs[usize::from(addr.rn & 15)] = indexed;
                }
                rec.mem(at, value);
                Ok(Flow::Next)
            }
            Kind::Branch { target, link } => {
                if let Some(ret) = link {
                    cpu.regs[usize::from(Reg::LR.index())] = ret;
                }
                Ok(Flow::Jump(target))
            }
            Kind::Jalr { ra, ret, align } => {
                let target = get(cpu, ra);
                if target % u32::from(align) != 0 {
                    return Err(SimError::BadPc { pc: target });
                }
                cpu.regs[usize::from(Reg::LR.index())] = ret;
                if target < pc {
                    rec.back_jump();
                }
                Ok(Flow::Jump(target))
            }
            Kind::Exit => Ok(Flow::Exit(cpu.regs[0])),
            Kind::Emit => Ok(Flow::Emit(cpu.regs[0])),
            Kind::UnknownSwi(number) => Err(SimError::UnknownSwi { number }),
            Kind::Bad(form) => Err(SimError::BadInstruction {
                what: form.what().to_string(),
            }),
        }
    }
}

/// A form no executor supports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Unsupported {
    MulIntoPc,
    WritebackToPc,
    WideImmIntoPc,
    WideLoadIntoPc,
    ShiftedOffset,
}

impl Unsupported {
    /// The diagnostic; the oracle executors report the same text.
    fn what(self) -> &'static str {
        match self {
            Unsupported::MulIntoPc => "multiply into pc",
            Unsupported::WritebackToPc => "base writeback to pc",
            Unsupported::WideImmIntoPc => "wide immediate into pc",
            Unsupported::WideLoadIntoPc => "wide-displacement load into pc",
            Unsupported::ShiftedOffset => "register-shifted memory offset",
        }
    }
}

impl Addr {
    /// `(access address, indexed address)`.
    #[inline(always)]
    fn resolve(&self, cpu: &CpuState, get: impl Fn(&CpuState, u8) -> u32) -> (u32, u32) {
        let base = get(cpu, self.rn);
        let offset = match self.offset {
            Offset::Imm(d) => d,
            Offset::Reg {
                rm,
                kind,
                amount,
                subtract,
            } => {
                let shifted = barrel_shift(kind, get(cpu, rm), u32::from(amount), false).0;
                if subtract {
                    shifted.wrapping_neg()
                } else {
                    shifted
                }
            }
        };
        let indexed = base.wrapping_add(offset);
        (if self.post { base } else { indexed }, indexed)
    }
}

fn lower_op2(op2: Operand2) -> Op2 {
    match op2 {
        Operand2::Imm(imm) => {
            if imm.rot() == 0 {
                Op2::Imm(imm.value())
            } else {
                Op2::ImmCarry(imm.value(), imm.value() >> 31 != 0)
            }
        }
        // A zero immediate amount leaves value and carry alone, whatever
        // the shift kind.
        Operand2::Reg(rm, Shift::Imm(_, 0)) => Op2::Reg(rm.index()),
        Operand2::Reg(rm, Shift::Imm(kind, amount)) => Op2::ShiftImm(rm.index(), kind, amount),
        Operand2::Reg(rm, Shift::Reg(kind, rs)) => Op2::ShiftReg(rm.index(), kind, rs.index()),
    }
}

fn lower_mem(op: MemOp, rd: Reg, rn: Reg, offset: AddrOffset, index: Index, op_size: u32) -> Kind {
    if index.writes_base() && rn.is_pc() {
        return Kind::Bad(Unsupported::WritebackToPc);
    }
    let offset = match offset {
        AddrOffset::Imm(d) => Offset::Imm(d as u32),
        AddrOffset::Reg {
            rm,
            shift: Shift::Imm(kind, amount),
            subtract,
        } => Offset::Reg {
            rm: rm.index(),
            kind,
            amount,
            subtract,
        },
        AddrOffset::Reg {
            shift: Shift::Reg(..),
            ..
        } => return Kind::Bad(Unsupported::ShiftedOffset),
    };
    let addr = Addr {
        rn: rn.index(),
        offset,
        post: index == Index::Post,
        writeback: index.writes_base(),
    };
    let width = Width::of(op);
    if op.is_load() {
        Kind::Load {
            width,
            rd: rd.index(),
            align: alignment(op_size),
            addr,
        }
    } else {
        Kind::Store {
            width,
            rd: rd.index(),
            addr,
        }
    }
}

/// The result of a non-flag-setting data-processing op: the value
/// [`dp_eval`] computes, without deriving flags nobody reads.
#[inline(always)]
fn dp_value(op: DpOp, a: u32, b: u32, carry: bool) -> u32 {
    let c = u32::from(carry);
    match op {
        DpOp::And | DpOp::Tst => a & b,
        DpOp::Eor | DpOp::Teq => a ^ b,
        DpOp::Orr => a | b,
        DpOp::Bic => a & !b,
        DpOp::Mov => b,
        DpOp::Mvn => !b,
        DpOp::Add | DpOp::Cmn => a.wrapping_add(b),
        DpOp::Adc => a.wrapping_add(b).wrapping_add(c),
        DpOp::Sub | DpOp::Cmp => a.wrapping_sub(b),
        DpOp::Sbc => a.wrapping_add(!b).wrapping_add(c),
        DpOp::Rsb => b.wrapping_sub(a),
        DpOp::Rsc => b.wrapping_add(!a).wrapping_add(c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fits_isa::alu::Flags;

    #[test]
    fn dp_value_matches_dp_eval_on_every_op() {
        let values = [0, 1, 0x7fff_ffff, 0x8000_0000, 0xffff_ffff, 0x1234_5678];
        for op in DpOp::ALL {
            for &a in &values {
                for &b in &values {
                    for carry in [false, true] {
                        let flags = Flags {
                            c: carry,
                            ..Flags::default()
                        };
                        assert_eq!(
                            dp_value(op, a, b, carry),
                            dp_eval(op, a, b, false, flags).value,
                            "{op:?} {a:#x} {b:#x} c={carry}"
                        );
                    }
                }
            }
        }
    }
}
