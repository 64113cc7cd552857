//! Execution of FITS binaries: implements `fits-sim`'s [`InstrSet`] on top
//! of the programmable decoder (stage 5 of the Figure-1 flow).
//!
//! Instructions are pre-decoded at load time through the [`DecoderConfig`]
//! — the software analogue of the FITS hardware's configured decode tables.
//! Each 16-bit instruction expands to the same internal micro-operation the
//! native executor uses ([`fits_isa::Instr`]), so both ISAs run on literally
//! the same datapath implementation; the only additions are wide dictionary
//! immediates (which cannot be expressed as rotated ARM immediates) and the
//! linking indirect jump.

use fits_isa::alu::{dp_eval, Flags};
use fits_isa::{Cond, DpOp, Instr, InstrClass, MemOp, Operand2, Reg, Shift, ShiftKind, TEXT_BASE};
use fits_sim::{ExecCtx, InstrSet, MemAccess, SimError, StepOutcome};

use crate::decoder::{DecoderConfig, Layout, MicroOp};
use crate::translate::{unpack, FitsProgram};

/// A pre-decoded FITS instruction.
#[derive(Clone, Copy, Debug)]
pub enum FitsOp {
    /// Expressible directly as an internal AR32 operation.
    Plain(Instr),
    /// Data-processing with a full-width dictionary immediate. The carry
    /// behaviour of flag-setting logical forms matches an unrotated ARM
    /// immediate (C preserved); the translator guarantees no other form is
    /// emitted.
    WideImm {
        /// Operation.
        op: DpOp,
        /// Update flags.
        set_flags: bool,
        /// Destination (ignored for compares).
        rd: Reg,
        /// First operand (same as `rd` for two-address forms).
        rn: Reg,
        /// The 32-bit immediate.
        imm: u32,
    },
    /// Memory access with a full-width dictionary displacement.
    WideMem {
        /// Access kind.
        op: MemOp,
        /// Data register.
        rd: Reg,
        /// Base register.
        rb: Reg,
        /// Signed displacement.
        disp: i32,
    },
    /// Linking indirect jump (`jalr`).
    Jalr(Reg),
}

/// The FITS instruction set: a pre-decoded binary plus its configuration.
#[derive(Clone, Debug)]
pub struct FitsSet {
    ops: Vec<FitsOp>,
    /// Packed instruction words (two 16-bit instructions per 32-bit word)
    /// for fetch/toggle accounting.
    words: Vec<u32>,
    data: Vec<u8>,
    entry: usize,
}

/// Decoding failure when loading a FITS binary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FitsDecodeError {
    /// Index of the undecodable instruction.
    pub index: usize,
    /// The offending word.
    pub word: u16,
    /// Description.
    pub what: String,
}

impl std::fmt::Display for FitsDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot decode FITS word {:#06x} at {}: {}",
            self.word, self.index, self.what
        )
    }
}

impl std::error::Error for FitsDecodeError {}

fn sign_extend(v: u16, w: u8) -> i32 {
    let shift = 32 - u32::from(w);
    ((u32::from(v) << shift) as i32) >> shift
}

fn decode_one(config: &DecoderConfig, word: u16, index: usize) -> Result<FitsOp, FitsDecodeError> {
    let entry = config.match_word(word).ok_or_else(|| FitsDecodeError {
        index,
        word,
        what: "no opcode prefix matches".to_string(),
    })?;
    let r = config.regs.field_bits;
    let f = unpack(entry, word, r);
    let reg = |i: usize| config.regs.phys(f[i]);
    let err = |what: &str| FitsDecodeError {
        index,
        word,
        what: what.to_string(),
    };
    let dict = |values: &[u32], idx: u16| -> Result<u32, FitsDecodeError> {
        values
            .get(idx as usize)
            .copied()
            .ok_or_else(|| err("dictionary index out of range"))
    };

    let op = match (entry.micro, entry.layout) {
        (MicroOp::Dp3 { op, set_flags }, Layout::R3) => FitsOp::Plain(Instr::Dp {
            cond: Cond::Al,
            op,
            set_flags,
            rd: reg(0),
            rn: reg(1),
            op2: Operand2::reg(reg(2)),
        }),
        // Figure 2's Operate format with OPRD as an immediate: 3-address
        // with a short literal or a dictionary value.
        (MicroOp::Dp3 { op, set_flags }, Layout::RRImm { .. }) => {
            let value = u32::from(f[2]);
            match Operand2::imm(value) {
                Some(op2) => FitsOp::Plain(Instr::Dp {
                    cond: Cond::Al,
                    op,
                    set_flags,
                    rd: reg(0),
                    rn: reg(1),
                    op2,
                }),
                None => FitsOp::WideImm {
                    op,
                    set_flags,
                    rd: reg(0),
                    rn: reg(1),
                    imm: value,
                },
            }
        }
        (MicroOp::Dp3 { op, set_flags }, Layout::RRDict { .. }) => FitsOp::WideImm {
            op,
            set_flags,
            rd: reg(0),
            rn: reg(1),
            imm: dict(&config.dicts.operate, f[2])?,
        },
        (MicroOp::Dp2Reg { op, set_flags }, Layout::R2) => FitsOp::Plain(Instr::Dp {
            cond: Cond::Al,
            op,
            set_flags,
            rd: reg(0),
            rn: reg(0),
            op2: Operand2::reg(reg(1)),
        }),
        (MicroOp::Dp2Imm { op, set_flags }, Layout::R2Imm { .. }) => {
            let value = u32::from(f[1]);
            match Operand2::imm(value) {
                Some(op2) => FitsOp::Plain(Instr::Dp {
                    cond: Cond::Al,
                    op,
                    set_flags,
                    rd: reg(0),
                    rn: reg(0),
                    op2,
                }),
                None => FitsOp::WideImm {
                    op,
                    set_flags,
                    rd: reg(0),
                    rn: reg(0),
                    imm: value,
                },
            }
        }
        (MicroOp::Dp2Imm { op, set_flags }, Layout::R2Dict { .. }) => FitsOp::WideImm {
            op,
            set_flags,
            rd: reg(0),
            rn: reg(0),
            imm: dict(&config.dicts.operate, f[1])?,
        },
        (MicroOp::ShiftImm { kind, set_flags }, Layout::RRImm { .. }) => {
            let amount = f[2] as u8;
            FitsOp::Plain(Instr::Dp {
                cond: Cond::Al,
                op: DpOp::Mov,
                set_flags,
                rd: reg(0),
                rn: reg(0),
                op2: Operand2::Reg(reg(1), shift_of(kind, amount).map_err(&err)?),
            })
        }
        (MicroOp::ShiftImm { kind, set_flags }, Layout::RRDict { .. }) => {
            let amount = dict(&config.dicts.shift, f[2])? as u8;
            FitsOp::Plain(Instr::Dp {
                cond: Cond::Al,
                op: DpOp::Mov,
                set_flags,
                rd: reg(0),
                rn: reg(0),
                op2: Operand2::Reg(reg(1), shift_of(kind, amount).map_err(&err)?),
            })
        }
        (MicroOp::ShiftReg { kind, set_flags }, Layout::R2) => FitsOp::Plain(Instr::Dp {
            cond: Cond::Al,
            op: DpOp::Mov,
            set_flags,
            rd: reg(0),
            rn: reg(0),
            op2: Operand2::Reg(reg(0), Shift::Reg(kind, reg(1))),
        }),
        (MicroOp::CmpReg { op }, Layout::R2) => FitsOp::Plain(Instr::Dp {
            cond: Cond::Al,
            op,
            set_flags: true,
            rd: Reg::R0,
            rn: reg(0),
            op2: Operand2::reg(reg(1)),
        }),
        (MicroOp::CmpImm { op }, Layout::R2Imm { .. }) => {
            let value = u32::from(f[1]);
            match Operand2::imm(value) {
                Some(op2) => FitsOp::Plain(Instr::Dp {
                    cond: Cond::Al,
                    op,
                    set_flags: true,
                    rd: Reg::R0,
                    rn: reg(0),
                    op2,
                }),
                None => FitsOp::WideImm {
                    op,
                    set_flags: true,
                    rd: Reg::R0,
                    rn: reg(0),
                    imm: value,
                },
            }
        }
        (MicroOp::CmpImm { op }, Layout::R2Dict { .. }) => FitsOp::WideImm {
            op,
            set_flags: true,
            rd: Reg::R0,
            rn: reg(0),
            imm: dict(&config.dicts.operate, f[1])?,
        },
        (MicroOp::Mul3, Layout::R3) => FitsOp::Plain(Instr::Mul {
            cond: Cond::Al,
            set_flags: false,
            rd: reg(0),
            rm: reg(1),
            rs: reg(2),
            acc: None,
        }),
        (MicroOp::Mem { op }, Layout::MemImm { w }) => {
            let disp = match op.size() {
                1 => sign_extend(f[2], w.max(1)),
                s => (u32::from(f[2]) * s) as i32,
            };
            FitsOp::Plain(Instr::mem(op, reg(0), reg(1), disp))
        }
        (MicroOp::Mem { op }, Layout::MemDict { .. }) => FitsOp::WideMem {
            op,
            rd: reg(0),
            rb: reg(1),
            disp: dict(&config.dicts.mem_disp, f[2])? as i32,
        },
        (MicroOp::Branch { cond, link }, Layout::Br { w }) => FitsOp::Plain(Instr::Branch {
            cond,
            link,
            offset: sign_extend(f[0], w),
        }),
        (MicroOp::BranchReg { link: false }, Layout::R1) => {
            FitsOp::Plain(Instr::mov(Reg::PC, Operand2::reg(reg(0))))
        }
        (MicroOp::BranchReg { link: true }, Layout::R1) => FitsOp::Jalr(reg(0)),
        (MicroOp::PredMovImm { cond }, Layout::R2Imm { .. }) => {
            let op2 = Operand2::imm(u32::from(f[1])).ok_or_else(|| err("predicated imm"))?;
            FitsOp::Plain(Instr::Dp {
                cond,
                op: DpOp::Mov,
                set_flags: false,
                rd: reg(0),
                rn: reg(0),
                op2,
            })
        }
        (MicroOp::PredMovReg { cond }, Layout::R2) => FitsOp::Plain(Instr::Dp {
            cond,
            op: DpOp::Mov,
            set_flags: false,
            rd: reg(0),
            rn: reg(0),
            op2: Operand2::reg(reg(1)),
        }),
        (MicroOp::LoadTarget, Layout::R2Dict { .. }) => FitsOp::WideImm {
            op: DpOp::Mov,
            set_flags: false,
            rd: reg(0),
            rn: reg(0),
            imm: dict(&config.dicts.target, f[1])?,
        },
        (MicroOp::Swi, Layout::Trap { .. }) => FitsOp::Plain(Instr::Swi {
            cond: Cond::Al,
            imm: u32::from(f[0]),
        }),
        (micro, layout) => {
            return Err(err(&format!(
                "inconsistent micro/layout pair {micro:?} / {layout:?}"
            )))
        }
    };
    Ok(op)
}

fn shift_of(kind: ShiftKind, amount: u8) -> Result<Shift, &'static str> {
    let s = match (kind, amount) {
        (_, 0) => Shift::NONE,
        (ShiftKind::Lsl, 1..=31) => Shift::Imm(ShiftKind::Lsl, amount),
        (ShiftKind::Lsr | ShiftKind::Asr, 1..=32) => Shift::Imm(kind, amount),
        (ShiftKind::Ror, 1..=31) => Shift::Imm(ShiftKind::Ror, amount),
        _ => return Err("shift amount out of range"),
    };
    Ok(s)
}

/// Decodes one 16-bit FITS instruction word under a decoder configuration.
///
/// The public face of the programmable decoder, used by static analyses
/// (`fits-verify`) that inspect a binary without loading it into a machine.
///
/// # Errors
///
/// Returns [`FitsDecodeError`] when no opcode prefix matches, a dictionary
/// index is out of range, or the micro-op/layout pair is inconsistent.
pub fn decode_word(
    config: &DecoderConfig,
    word: u16,
    index: usize,
) -> Result<FitsOp, FitsDecodeError> {
    decode_one(config, word, index)
}

/// Register/flag metadata for a decoded FITS instruction, independent of
/// any loaded binary (the per-op part of [`InstrSet::describe`]).
#[must_use]
pub fn op_meta(op: &FitsOp) -> fits_sim::OpMeta {
    match op {
        FitsOp::Plain(i) => fits_sim::instr_meta(i),
        FitsOp::WideImm {
            op,
            set_flags,
            rd,
            rn,
            ..
        } => {
            let compare = op.is_compare();
            fits_sim::OpMeta::new(
                InstrClass::Operate,
                [(!op.ignores_rn()).then_some(*rn), None, None],
                [(!compare).then_some(*rd), None],
                *set_flags || compare,
                matches!(op, DpOp::Adc | DpOp::Sbc | DpOp::Rsc),
                false,
            )
        }
        FitsOp::WideMem { op, rd, rb, .. } => fits_sim::OpMeta::new(
            InstrClass::Memory,
            [Some(*rb), (!op.is_load()).then_some(*rd), None],
            [op.is_load().then_some(*rd), None],
            false,
            false,
            false,
        ),
        FitsOp::Jalr(ra) => fits_sim::OpMeta::new(
            InstrClass::Branch,
            [Some(*ra), None, None],
            [Some(Reg::LR), None],
            false,
            false,
            false,
        ),
    }
}

impl FitsSet {
    /// Pre-decodes a FITS binary.
    ///
    /// # Errors
    ///
    /// Returns [`FitsDecodeError`] if any word fails to decode under the
    /// binary's configuration (a translator/synthesis bug).
    pub fn load(program: &FitsProgram) -> Result<FitsSet, FitsDecodeError> {
        let mut ops = Vec::with_capacity(program.instrs.len());
        for (i, &word) in program.instrs.iter().enumerate() {
            ops.push(decode_one(&program.config, word, i)?);
        }
        // Pack pairs of 16-bit instructions into fetch words.
        let mut words = Vec::with_capacity(program.instrs.len() / 2 + 1);
        for pair in program.instrs.chunks(2) {
            let lo = u32::from(pair[0]);
            let hi = pair.get(1).map_or(0, |w| u32::from(*w));
            words.push(lo | (hi << 16));
        }
        Ok(FitsSet {
            ops,
            words,
            data: program.data.clone(),
            entry: program.entry,
        })
    }

    fn index_of(&self, pc: u32) -> Result<usize, SimError> {
        if pc < TEXT_BASE || !pc.is_multiple_of(2) {
            return Err(SimError::BadPc { pc });
        }
        let index = ((pc - TEXT_BASE) / 2) as usize;
        if index >= self.ops.len() {
            return Err(SimError::BadPc { pc });
        }
        Ok(index)
    }
}

impl InstrSet for FitsSet {
    type Op = FitsOp;

    fn entry_pc(&self) -> u32 {
        TEXT_BASE + (self.entry as u32) * 2
    }

    fn op_size(&self) -> u32 {
        2
    }

    fn initial_data(&self) -> &[u8] {
        &self.data
    }

    fn op_at(&self, pc: u32) -> Result<&FitsOp, SimError> {
        Ok(&self.ops[self.index_of(pc)?])
    }

    fn fetch_word(&self, word_addr: u32) -> u32 {
        if word_addr < TEXT_BASE || !word_addr.is_multiple_of(4) {
            return 0;
        }
        let idx = ((word_addr - TEXT_BASE) / 4) as usize;
        self.words.get(idx).copied().unwrap_or(0)
    }

    fn describe(&self, op: &FitsOp) -> fits_sim::OpMeta {
        op_meta(op)
    }

    fn op_count(&self) -> usize {
        self.ops.len()
    }

    fn control_flow(&self, pc: u32, op: &FitsOp) -> fits_sim::OpControl {
        match op {
            // Plain micro-ops share the AR32 classifier at the 16-bit op
            // size (covers direct branches, `mov pc, r` and traps).
            FitsOp::Plain(i) => fits_sim::instr_control_flow(i, pc, 2),
            FitsOp::Jalr(_) => fits_sim::OpControl::Indirect,
            FitsOp::WideImm { .. } | FitsOp::WideMem { .. } => fits_sim::OpControl::Sequential,
        }
    }

    fn execute(&self, op: &FitsOp, ctx: &mut ExecCtx<'_>) -> Result<StepOutcome, SimError> {
        match op {
            FitsOp::Plain(i) => fits_sim::execute_instr(i, ctx, 2),
            FitsOp::WideImm {
                op,
                set_flags,
                rd,
                rn,
                imm,
            } => {
                let a = if op.ignores_rn() {
                    0
                } else {
                    ctx.read_reg(*rn)
                };
                // Wide immediates behave like unrotated ARM immediates: the
                // shifter carry-out equals the carry-in.
                let r = dp_eval(*op, a, *imm, ctx.cpu.flags.c, ctx.cpu.flags);
                if *set_flags {
                    ctx.cpu.flags = r.flags;
                }
                if !op.is_compare() {
                    ctx.write_reg(*rd, r.value);
                }
                Ok(StepOutcome {
                    executed: true,
                    next_pc: ctx.pc.wrapping_add(2),
                    mem: None,
                    exit: None,
                    emit: None,
                    branch: None,
                    is_mul: false,
                })
            }
            FitsOp::WideMem { op, rd, rb, disp } => {
                let addr = ctx.read_reg(*rb).wrapping_add(*disp as u32);
                let size = op.size();
                let signed = matches!(op, MemOp::Ldrsb | MemOp::Ldrsh);
                let data = if op.is_load() {
                    let v = ctx.load(addr, size, signed)?;
                    ctx.write_reg(*rd, v);
                    v
                } else {
                    let v = ctx.read_reg(*rd);
                    ctx.store(addr, size, v)?;
                    v
                };
                Ok(StepOutcome {
                    executed: true,
                    next_pc: ctx.pc.wrapping_add(2),
                    mem: Some(MemAccess {
                        addr,
                        size,
                        is_load: op.is_load(),
                        data,
                    }),
                    exit: None,
                    emit: None,
                    branch: None,
                    is_mul: false,
                })
            }
            FitsOp::Jalr(ra) => {
                let target = ctx.read_reg(*ra);
                if !target.is_multiple_of(2) {
                    return Err(SimError::BadPc { pc: target });
                }
                ctx.write_reg(Reg::LR, ctx.pc.wrapping_add(2));
                Ok(StepOutcome {
                    executed: true,
                    next_pc: target,
                    mem: None,
                    exit: None,
                    emit: None,
                    branch: Some(fits_sim::BranchOutcome {
                        taken: true,
                        backward: target < ctx.pc,
                    }),
                    is_mul: false,
                })
            }
        }
    }
}

/// Convenience: decode flags used by tests.
#[must_use]
pub fn flags_of(ctx: &ExecCtx<'_>) -> Flags {
    ctx.cpu.flags
}

/// Renders a disassembly of a FITS binary under its own configuration:
/// address, raw halfword, opcode prefix and the decoded micro-operation.
///
/// # Errors
///
/// Fails if any word does not decode (a corrupt binary/config pair).
pub fn disassemble(program: &FitsProgram) -> Result<String, FitsDecodeError> {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, &word) in program.instrs.iter().enumerate() {
        let op = decode_one(&program.config, word, i)?;
        let entry = program.config.match_word(word).expect("decoded above");
        let pc = TEXT_BASE + (i as u32) * 2;
        let prefix = entry.code >> (16 - u16::from(entry.len));
        let marker = if i == program.entry { ">" } else { " " };
        let _ = writeln!(
            out,
            "{marker} {pc:#010x}: {word:04x}  [{prefix:0w$b}] {op:?}",
            w = entry.len as usize
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile;
    use crate::synth::{synthesize, SynthOptions};
    use crate::translate::translate;
    use fits_kernels::kernels::{Kernel, Scale};
    use fits_sim::Machine;

    fn run_fits(k: Kernel) -> (fits_sim::RunOutput, fits_sim::RunOutput) {
        let program = k.compile(Scale::test()).unwrap();
        let p = profile(&program).unwrap();
        let s = synthesize(&p, &SynthOptions::default());
        let t = translate(&program, &s.config).unwrap();
        let set = FitsSet::load(&t.fits).unwrap();
        let mut m = Machine::new(set);
        let fits_run = m.run().unwrap();
        (p.run.unwrap(), fits_run)
    }

    #[test]
    fn crc32_fits_binary_matches_arm() {
        let (arm, fits) = run_fits(Kernel::Crc32);
        assert_eq!(arm.exit_code, fits.exit_code);
        assert_eq!(arm.emitted, fits.emitted);
    }

    #[test]
    fn bitcount_fits_binary_matches_arm() {
        let (arm, fits) = run_fits(Kernel::Bitcount);
        assert_eq!(arm.exit_code, fits.exit_code);
        assert_eq!(arm.emitted, fits.emitted);
    }

    #[test]
    fn qsort_fits_binary_matches_arm() {
        let (arm, fits) = run_fits(Kernel::Qsort);
        assert_eq!(arm.exit_code, fits.exit_code);
        assert_eq!(arm.emitted, fits.emitted);
    }

    #[test]
    fn sign_extension() {
        assert_eq!(sign_extend(0b1111, 4), -1);
        assert_eq!(sign_extend(0b0111, 4), 7);
        assert_eq!(sign_extend(0b1000, 4), -8);
        assert_eq!(sign_extend(0x3ff, 10), -1);
        assert_eq!(sign_extend(0x1ff, 10), 511);
    }
}
