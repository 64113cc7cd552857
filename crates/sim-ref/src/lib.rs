//! # fits-sim-ref — the interpreted SA-1100 reference model
//!
//! `fits-sim` times programs with one engine: lift the program once
//! ([`fits_sim::CompiledProgram`]), record one functional execution
//! ([`fits_sim::Machine::run_recorded`]) and price configurations from the
//! trace ([`fits_sim::RecordedTrace::price_all`]). This crate keeps the
//! straightforward form of the same model as a test oracle: an interpreted
//! step loop that builds a [`StepInfo`] per retired instruction and feeds
//! it to a per-configuration [`TimingModel`].
//!
//! The differential tests compare the two, bit for bit, on every
//! [`SimResult`] counter and every [`fits_sim::CacheEventObserver`] event. The crate
//! is not published and is only ever a dev-dependency: no library links
//! it, so it cannot become a second production timing path.
//!
//! The loop drives only the public [`InstrSet`] API (`op_at`, `describe`,
//! `execute`, `fetch_word`) over a fresh [`Memory`] and [`CpuState`].
//!
//! ```
//! use fits_isa::{Cond, Instr, Program};
//! use fits_sim::{Ar32Set, CompiledProgram, Machine, Sa1100Config};
//!
//! let program = Program {
//!     text: vec![Instr::Swi { cond: Cond::Al, imm: 0 }],
//!     ..Program::default()
//! };
//! let cfg = Sa1100Config::icache_16k();
//! let (out, reference) = fits_sim_ref::run_timed(&Ar32Set::load(&program), &cfg).unwrap();
//!
//! let set = Ar32Set::load(&program);
//! let compiled = CompiledProgram::compile(&set).unwrap();
//! let trace = Machine::new(set).run_recorded(&compiled).unwrap();
//! assert_eq!(trace.output, out);
//! assert_eq!(trace.price(&compiled, &cfg).unwrap(), reference);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod timing;

use fits_isa::{InstrClass, Reg};
use fits_sim::{
    fold_emitted, BranchOutcome, CpuState, ExecCtx, InstrSet, MemAccess, Memory, OpMeta, RunOutput,
    Sa1100Config, SimError, SimResult, MAX_STEPS_DEFAULT,
};

pub use timing::TimingModel;

/// Everything the timing model needs to know about one retired instruction.
#[derive(Clone, Copy, Debug)]
pub struct StepInfo {
    /// The instruction's address.
    pub pc: u32,
    /// Encoded size in bytes (4 for AR32, 2 for FITS).
    pub size: u32,
    /// The aligned 32-bit word the fetch unit read to obtain it.
    pub fetch_word_addr: u32,
    /// The contents of that word (for output-toggle accounting).
    pub fetch_word_value: u32,
    /// Broad category.
    pub class: InstrClass,
    /// Register-file read/write port usage.
    pub reg_reads: u32,
    /// Register-file write port usage.
    pub reg_writes: u32,
    /// Whether the condition passed.
    pub executed: bool,
    /// Data access, if any.
    pub mem: Option<MemAccess>,
    /// Branch resolution, if this was a branch.
    pub branch: Option<BranchOutcome>,
    /// Whether a multiply unit was used.
    pub is_mul: bool,
    /// Destination registers written (up to two), for hazard tracking.
    pub dests: [Option<Reg>; 2],
    /// Source registers read (up to three), for hazard tracking.
    pub sources: [Option<Reg>; 3],
    /// Whether the flags were written.
    pub sets_flags: bool,
    /// Whether the instruction reads the flags (predication or ADC-style).
    pub reads_flags: bool,
}

/// Runs `set` from its entry point to the exit trap, invoking `observer`
/// with every retired instruction and its [`StepInfo`]. The run starts
/// from fresh CPU state and memory and stops after
/// [`MAX_STEPS_DEFAULT`] steps, like a fresh [`fits_sim::Machine`].
///
/// # Errors
///
/// Any [`SimError`] raised by execution, including step-budget overrun.
pub fn run_observed<S: InstrSet>(
    set: &S,
    mut observer: impl FnMut(&S::Op, &StepInfo),
) -> Result<RunOutput, SimError> {
    let op_size = set.op_size();
    let text_base = set.text_base();
    // Static metadata once per op, as the lifter computes it.
    let metas = (0..set.op_count() as u32)
        .map(|i| {
            set.op_at(text_base + i * op_size)
                .map(|op| set.describe(op))
        })
        .collect::<Result<Vec<OpMeta>, SimError>>()?;
    let mut cpu = CpuState::new();
    let mut mem = Memory::with_data(set.initial_data());
    let mut pc = set.entry_pc();
    let mut emitted = Vec::new();
    let mut steps: u64 = 0;
    loop {
        if steps >= MAX_STEPS_DEFAULT {
            return Err(SimError::MaxSteps {
                limit: MAX_STEPS_DEFAULT,
            });
        }
        let op = set.op_at(pc)?;
        let meta = &metas[((pc - text_base) / op_size) as usize];
        let mut ctx = ExecCtx {
            cpu: &mut cpu,
            mem: &mut mem,
            pc,
        };
        let out = set.execute(op, &mut ctx)?;
        let fetch_word_addr = pc & !3;
        let info = StepInfo {
            pc,
            size: op_size,
            fetch_word_addr,
            fetch_word_value: set.fetch_word(fetch_word_addr),
            class: meta.class,
            reg_reads: meta.reg_reads,
            reg_writes: meta.reg_writes,
            executed: out.executed,
            mem: out.mem,
            branch: out.branch,
            is_mul: out.is_mul && out.executed,
            dests: meta.dests,
            sources: meta.sources,
            sets_flags: meta.sets_flags && out.executed,
            reads_flags: meta.reads_flags,
        };
        observer(op, &info);
        steps += 1;
        emitted.extend(out.emit);
        if let Some(code) = out.exit {
            return Ok(RunOutput {
                exit_code: code,
                emitted: fold_emitted(&emitted),
                steps,
            });
        }
        pc = out.next_pc;
    }
}

/// Runs `set` to the exit trap under a fresh [`TimingModel`] for `cfg`,
/// returning the functional output and the timing statistics.
///
/// # Errors
///
/// Any [`SimError`] raised by execution or cache-geometry validation.
pub fn run_timed<S: InstrSet>(
    set: &S,
    cfg: &Sa1100Config,
) -> Result<(RunOutput, SimResult), SimError> {
    let mut timing = TimingModel::new(cfg)?;
    let output = run_observed(set, |_, info| timing.observe(info))?;
    Ok((output, timing.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fits_isa::{Cond, DpOp, Instr, Operand2, Program};
    use fits_sim::{Ar32Set, CompiledProgram, Machine};

    fn looped_program() -> Program {
        Program {
            text: vec![
                Instr::mov(Reg::R0, Operand2::imm(10).unwrap()),
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
    fn observer_sees_every_step() {
        let mut count = 0u64;
        let out = run_observed(&Ar32Set::load(&looped_program()), |_, info| {
            count += 1;
            assert_eq!(info.size, 4);
        });
        assert_eq!(out.unwrap().steps, count);
    }

    #[test]
    fn price_all_matches_run_timed() {
        let cfgs = [Sa1100Config::icache_16k(), Sa1100Config::icache_8k()];
        let set = Ar32Set::load(&looped_program());
        let compiled = CompiledProgram::compile(&set).unwrap();
        let trace = Machine::new(set).run_recorded(&compiled).unwrap();
        let sims = trace.price_all(&compiled, &cfgs).unwrap();
        for (cfg, sim) in cfgs.iter().zip(&sims) {
            let (out, reference) = run_timed(&Ar32Set::load(&looped_program()), cfg).unwrap();
            assert_eq!(out, trace.output);
            assert_eq!(*sim, reference);
        }
    }
}
