//! The machine loop: drives an [`InstrSet`] over memory, either purely
//! functionally or recording a trace for the timing replay.

use crate::replay::{CompiledProgram, RecordedTrace, TraceEntry};
use crate::{CpuState, ExecCtx, InstrSet, Memory, SimError};

/// Default step budget: generous enough for the full-scale benchmark suite,
/// small enough to catch runaway programs.
pub const MAX_STEPS_DEFAULT: u64 = 4_000_000_000;

/// The functional result of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutput {
    /// The value of `r0` at the exit trap.
    pub exit_code: u32,
    /// FNV-1a hash over all words passed to the emit trap.
    pub emitted: u64,
    /// Dynamic instruction count (retired, including failed-condition ones).
    pub steps: u64,
}

impl RunOutput {
    /// A single checksum combining exit code and emitted stream, used by the
    /// differential tests (reference vs AR32 vs FITS).
    #[must_use]
    pub fn checksum(&self) -> u64 {
        fnv1a(fnv1a(FNV_OFFSET, u64::from(self.exit_code)), self.emitted)
    }
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds an emit stream into the hash the machine computes, so reference
/// implementations can be compared against [`RunOutput::emitted`].
#[must_use]
pub fn fold_emitted(words: &[u32]) -> u64 {
    words
        .iter()
        .fold(FNV_OFFSET, |h, &w| fnv1a(h, u64::from(w)))
}

pub(crate) fn fnv1a(hash: u64, value: u64) -> u64 {
    let mut h = hash;
    for byte in value.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A simulated machine: CPU state, memory and an instruction set.
#[derive(Clone, Debug)]
pub struct Machine<S: InstrSet> {
    set: S,
    cpu: CpuState,
    mem: Memory,
    pc: u32,
    step_limit: u64,
}

impl<S: InstrSet> Machine<S> {
    /// Builds a machine with fresh state and memory initialized from the
    /// instruction set's data image.
    #[must_use]
    pub fn new(set: S) -> Machine<S> {
        let mem = Memory::with_data(set.initial_data());
        let pc = set.entry_pc();
        Machine {
            set,
            cpu: CpuState::new(),
            mem,
            pc,
            step_limit: MAX_STEPS_DEFAULT,
        }
    }

    /// Caps the number of dynamic instructions before aborting.
    pub fn set_step_limit(&mut self, limit: u64) -> &mut Self {
        self.step_limit = limit;
        self
    }

    /// Read access to the memory image (for result inspection in tests).
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Read access to the CPU state.
    #[must_use]
    pub fn cpu(&self) -> &CpuState {
        &self.cpu
    }

    /// Read access to the instruction set this machine executes (for
    /// tooling that needs the encoded size or metadata tables).
    #[must_use]
    pub fn instr_set(&self) -> &S {
        &self.set
    }

    /// Runs to the exit trap, functional only (no timing).
    ///
    /// This is the true fast path: no per-op metadata is consulted and
    /// nothing is recorded — the loop is fetch → execute → retire.
    /// Functional results ([`RunOutput`]) are exactly those of
    /// [`Machine::run_recorded`].
    ///
    /// # Errors
    ///
    /// Any [`SimError`] raised by execution, including step-budget overrun.
    pub fn run(&mut self) -> Result<RunOutput, SimError> {
        let mut steps: u64 = 0;
        let mut emitted = FNV_OFFSET;
        loop {
            if steps >= self.step_limit {
                return Err(SimError::MaxSteps {
                    limit: self.step_limit,
                });
            }
            let op = self.set.op_at(self.pc)?;
            let mut ctx = ExecCtx {
                cpu: &mut self.cpu,
                mem: &mut self.mem,
                pc: self.pc,
            };
            let out = self.set.execute(op, &mut ctx)?;
            steps += 1;
            if let Some(word) = out.emit {
                emitted = fnv1a(emitted, u64::from(word));
            }
            if let Some(code) = out.exit {
                return Ok(RunOutput {
                    exit_code: code,
                    emitted,
                    steps,
                });
            }
            self.pc = out.next_pc;
        }
    }

    /// Lifts this machine's program into basic-block descriptors and step
    /// templates (see [`CompiledProgram::compile`]).
    ///
    /// # Errors
    ///
    /// Propagates decode-table lookup failures.
    pub fn compile(&self) -> Result<CompiledProgram, SimError> {
        CompiledProgram::compile(&self.set)
    }

    /// Runs to the exit trap **recording** a compact block-ID +
    /// dynamic-outcome trace against a lifted program, without driving any
    /// timing model. The returned trace replays over any number of
    /// configurations via [`RecordedTrace::price_all`]; its
    /// [`RunOutput`](RecordedTrace::output) is exactly that of
    /// [`Machine::run`].
    ///
    /// The hot loop walks whole basic blocks between control transfers:
    /// sequential successors advance without a PC→index lookup, and taken
    /// direct branches follow the block's pre-resolved successor link.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] raised by execution, a step-budget overrun, or a
    /// `compiled` program that was not lifted from this machine's
    /// instruction set.
    pub fn run_recorded(&mut self, compiled: &CompiledProgram) -> Result<RecordedTrace, SimError> {
        compiled.check_matches(&self.set)?;
        let op_size = self.set.op_size();
        let mut trace = RecordedTrace {
            output: RunOutput {
                exit_code: 0,
                emitted: FNV_OFFSET,
                steps: 0,
            },
            entries: Vec::new(),
            flags: Vec::new(),
            mem: Vec::new(),
            token: compiled.token(),
            statics: Default::default(),
        };
        let mut steps: u64 = 0;
        let mut emitted = FNV_OFFSET;
        let mut index = compiled.index_of_pc(self.pc)?;
        loop {
            let start = index;
            let boundary = compiled.boundary_of(index);
            let mut len = 0u32;
            // One trace entry: retire ops until the block ends, the PC
            // redirects, or the program exits.
            let next = loop {
                if steps >= self.step_limit {
                    return Err(SimError::MaxSteps {
                        limit: self.step_limit,
                    });
                }
                let op = self.set.op_at(self.pc)?;
                let mut ctx = ExecCtx {
                    cpu: &mut self.cpu,
                    mem: &mut self.mem,
                    pc: self.pc,
                };
                let out = self.set.execute(op, &mut ctx)?;
                steps += 1;
                len += 1;
                trace.record_step(&out);
                if let Some(word) = out.emit {
                    emitted = fnv1a(emitted, u64::from(word));
                }
                if let Some(code) = out.exit {
                    trace.entries.push(TraceEntry { start, len });
                    trace.output = RunOutput {
                        exit_code: code,
                        emitted,
                        steps,
                    };
                    trace.compute_statics(compiled.templates());
                    return Ok(trace);
                }
                let seq_pc = self.pc.wrapping_add(op_size);
                if out.next_pc != seq_pc {
                    self.pc = out.next_pc;
                    // Taken direct branches follow the pre-resolved link;
                    // indirect targets fall back to a checked lookup.
                    break match compiled.branch_link(index) {
                        Some((target_pc, target_index, _)) if target_pc == out.next_pc => {
                            target_index
                        }
                        _ => compiled.index_of_pc(out.next_pc)?,
                    };
                }
                self.pc = seq_pc;
                index += 1;
                if index == boundary {
                    break index;
                }
            };
            trace.entries.push(TraceEntry { start, len });
            index = next;
            if index as usize >= compiled.op_count() {
                // Fell off the end of the text segment: report it exactly
                // as `Machine::run` would on its next fetch.
                return Err(SimError::BadPc { pc: self.pc });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ar32Set;
    use fits_isa::{Cond, DpOp, Instr, MemOp, Operand2, Program, Reg, DATA_BASE};

    fn countdown_program() -> Program {
        Program {
            text: vec![
                Instr::mov(Reg::R0, Operand2::imm(100).unwrap()),
                Instr::mov(Reg::R1, Operand2::imm(0).unwrap()),
                // loop: r1 += r0; r0 -= 1; bne loop
                Instr::dp(DpOp::Add, Reg::R1, Reg::R1, Operand2::reg(Reg::R0)),
                Instr::Dp {
                    cond: Cond::Al,
                    op: DpOp::Sub,
                    set_flags: true,
                    rd: Reg::R0,
                    rn: Reg::R0,
                    op2: Operand2::imm(1).unwrap(),
                },
                Instr::b(-4).with_cond(Cond::Ne),
                Instr::mov(Reg::R0, Operand2::reg(Reg::R1)),
                Instr::Swi {
                    cond: Cond::Al,
                    imm: 0,
                },
            ],
            ..Program::default()
        }
    }

    #[test]
    fn sums_one_to_hundred() {
        let mut m = Machine::new(Ar32Set::load(&countdown_program()));
        let out = m.run().unwrap();
        assert_eq!(out.exit_code, 5050);
        assert_eq!(out.steps, 2 + 3 * 100 + 2);
    }

    #[test]
    fn step_limit_trips() {
        let spin = Program {
            text: vec![Instr::b(-2)], // branch to self
            ..Program::default()
        };
        let mut m = Machine::new(Ar32Set::load(&spin));
        m.set_step_limit(1000);
        assert!(matches!(m.run(), Err(SimError::MaxSteps { limit: 1000 })));
    }

    #[test]
    fn emit_affects_checksum() {
        let mk = |emit_value: u32| {
            let program = Program {
                text: vec![
                    Instr::mov(Reg::R0, Operand2::imm(emit_value).unwrap()),
                    Instr::Swi {
                        cond: Cond::Al,
                        imm: 1,
                    },
                    Instr::Swi {
                        cond: Cond::Al,
                        imm: 0,
                    },
                ],
                ..Program::default()
            };
            Machine::new(Ar32Set::load(&program)).run().unwrap()
        };
        let a = mk(1);
        let b = mk(2);
        assert_eq!(a.exit_code, 1);
        assert_ne!(a.checksum(), b.checksum());
    }

    #[test]
    fn memory_visible_after_run() {
        let program = Program {
            text: vec![
                Instr::mov(Reg::R1, Operand2::imm(DATA_BASE).unwrap()),
                Instr::mov(Reg::R0, Operand2::imm(42).unwrap()),
                Instr::mem(MemOp::Str, Reg::R0, Reg::R1, 0),
                Instr::Swi {
                    cond: Cond::Al,
                    imm: 0,
                },
            ],
            ..Program::default()
        };
        let mut m = Machine::new(Ar32Set::load(&program));
        m.run().unwrap();
        assert_eq!(m.memory().load_w(DATA_BASE).unwrap(), 42);
    }
}
