//! The machine loop: drives an [`InstrSet`] over memory, either purely
//! functionally or recording a trace for the timing replay.

use crate::lower::{Flow, Recorder};
use crate::replay::{CompiledProgram, RecordedTrace, TraceRecorder};
use crate::{CpuState, InstrSet, Memory, SimError};

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
    /// Lifts the program first ([`CompiledProgram::compile`], a few
    /// microseconds), then runs the same block loop as
    /// [`Machine::run_recorded`] with nothing recorded: one step-budget
    /// check per block run, then the block's lowered ops back to back.
    /// Functional results ([`RunOutput`]) and the machine state at a fault
    /// are exactly those of [`Machine::run_recorded`].
    ///
    /// # Errors
    ///
    /// Any [`SimError`] raised by execution, including step-budget overrun.
    pub fn run(&mut self) -> Result<RunOutput, SimError> {
        let compiled = CompiledProgram::compile(&self.set)?;
        self.run_blocks(&compiled, &mut ())
    }

    /// Lifts this machine's program into basic-block descriptors, step
    /// templates and lowered ops (see [`CompiledProgram::compile`]).
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
    /// The loop runs one basic block at a time on `compiled`'s lowered ops:
    /// the step budget is checked once per block run, each run appends one
    /// trace entry and copies its ops' pre-computed outcome bytes in one
    /// go, and only memory ops push to the access stream. Sequential
    /// successors need no PC lookup, and taken direct branches follow the
    /// block's pre-resolved successor link. The pairing-independent
    /// aggregates are folded once per static op at the end, not per
    /// retired step.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] raised by execution, a step-budget overrun, or a
    /// `compiled` program that was not lifted from this machine's
    /// instruction set.
    pub fn run_recorded(&mut self, compiled: &CompiledProgram) -> Result<RecordedTrace, SimError> {
        compiled.check_matches(&self.set)?;
        let mut recorder = TraceRecorder::new(compiled);
        let output = self.run_blocks(compiled, &mut recorder)?;
        Ok(recorder.finish(output))
    }

    /// The block loop shared by [`Machine::run`] and
    /// [`Machine::run_recorded`]. Only a block's last op can redirect,
    /// trap or exit (the lifter ends a block at every such op), so a block
    /// run whose ops all fit the step budget needs no further check; a
    /// run that would cross it retires up to the budget and stops with
    /// [`SimError::MaxSteps`] on the same step as a per-step loop would.
    fn run_blocks<R: Recorder>(
        &mut self,
        compiled: &CompiledProgram,
        rec: &mut R,
    ) -> Result<RunOutput, SimError> {
        let ops = compiled.lowered();
        let op_size = compiled.op_size();
        let limit = self.step_limit;
        let max_steps = SimError::MaxSteps { limit };
        // A per-step loop checks the budget before every fetch, so an
        // exhausted budget wins over a bad PC.
        let fetch_error =
            |steps: u64, e: SimError| if steps >= limit { max_steps.clone() } else { e };
        let mut steps: u64 = 0;
        let mut emitted = FNV_OFFSET;
        let mut index = compiled
            .index_of_pc(self.pc)
            .map_err(|e| fetch_error(steps, e))?;
        loop {
            let start = index as usize;
            let end = compiled.boundary_of(index) as usize;
            let block = &ops[start..end];
            let mut pc = self.pc;
            if block.len() as u64 > limit - steps {
                // The budget runs out inside this block run: only its
                // sequential body retires, so no trace is kept.
                for op in &block[..(limit - steps) as usize] {
                    if let Err(e) = op.exec(&mut self.cpu, &mut self.mem, pc, &mut ()) {
                        self.pc = pc;
                        return Err(e);
                    }
                    pc = pc.wrapping_add(op_size);
                }
                self.pc = pc;
                return Err(max_steps);
            }
            rec.block(index, end as u32);
            let mut flow = Flow::Next;
            for (k, op) in block.iter().enumerate() {
                match op.exec(&mut self.cpu, &mut self.mem, pc, rec) {
                    Ok(Flow::Next) => {}
                    Ok(Flow::Skipped) => rec.skip(start + k),
                    Ok(other) => {
                        debug_assert_eq!(k + 1, block.len(), "only a block's last op leaves it");
                        flow = other;
                        break;
                    }
                    Err(e) => {
                        self.pc = pc;
                        return Err(e);
                    }
                }
                pc = pc.wrapping_add(op_size);
            }
            steps += block.len() as u64;
            index = match flow {
                Flow::Next | Flow::Skipped => end as u32,
                Flow::Emit(word) => {
                    emitted = fnv1a(emitted, u64::from(word));
                    pc = pc.wrapping_add(op_size);
                    end as u32
                }
                Flow::Exit(code) => {
                    self.pc = pc;
                    return Ok(RunOutput {
                        exit_code: code,
                        emitted,
                        steps,
                    });
                }
                Flow::Jump(target) => {
                    pc = target;
                    // Taken direct branches follow the pre-resolved link;
                    // indirect targets fall back to a checked lookup.
                    match compiled.branch_link(end as u32 - 1) {
                        Some((link_pc, link_index, _)) if link_pc == target => link_index,
                        _ => match compiled.index_of_pc(target) {
                            Ok(i) => i,
                            Err(e) => {
                                self.pc = pc;
                                return Err(fetch_error(steps, e));
                            }
                        },
                    }
                }
            };
            self.pc = pc;
            if index as usize >= ops.len() {
                // Fell off the end of the text segment.
                return Err(fetch_error(steps, SimError::BadPc { pc }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ar32Set, ExecCtx};
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
    fn pc_writes_outside_control_flow_are_typed_errors() {
        let exit = Instr::Swi {
            cond: Cond::Al,
            imm: 0,
        };
        let multiply_into_pc = Instr::Mul {
            cond: Cond::Al,
            set_flags: false,
            rd: Reg::PC,
            rm: Reg::R1,
            rs: Reg::R2,
            acc: None,
        };
        let post_index_from_pc = Instr::Mem {
            cond: Cond::Al,
            op: MemOp::Ldr,
            rd: Reg::R0,
            rn: Reg::PC,
            offset: fits_isa::AddrOffset::Imm(4),
            index: fits_isa::Index::Post,
        };
        // Each used to trip the `write_reg` PC assert; now every path
        // reports the same typed error at the first step.
        for instr in [multiply_into_pc, post_index_from_pc] {
            let program = Program {
                text: vec![instr, exit],
                ..Program::default()
            };
            let set = Ar32Set::load(&program);
            let compiled = CompiledProgram::compile(&set).unwrap();
            let recorded = Machine::new(set.clone()).run_recorded(&compiled);
            assert!(
                matches!(recorded, Err(SimError::BadInstruction { .. })),
                "{instr:?}"
            );
            let run = Machine::new(set).run();
            assert!(
                matches!(run, Err(SimError::BadInstruction { .. })),
                "{instr:?}"
            );
            let (mut cpu, mut mem) = (CpuState::new(), Memory::with_data(&[]));
            let mut ctx = ExecCtx {
                cpu: &mut cpu,
                mem: &mut mem,
                pc: fits_isa::TEXT_BASE,
            };
            let oracle = crate::execute_instr(&instr, &mut ctx, 4);
            assert!(
                matches!(oracle, Err(SimError::BadInstruction { .. })),
                "{instr:?}"
            );
        }
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
