//! # fits-sim — functional and timing simulation
//!
//! The execution substrate of the PowerFITS reproduction, standing in for
//! SimpleScalar-ARM: a functional executor for program images, a
//! set-associative cache model with the activity counters the power model
//! needs (access counts, output-bit toggles, sliding-window peaks), and a
//! dual-issue in-order timing model configured after Intel's SA-1100
//! StrongARM (the paper's §5 experimental setup).
//!
//! Timing has one engine: lift the program once ([`CompiledProgram`]),
//! record one functional execution ([`Machine::run_recorded`]), then price
//! any number of configurations from the trace
//! ([`RecordedTrace::price_all`], or [`RecordedTrace::price_with`] to
//! observe every cache event).
//!
//! The crate is deliberately ISA-agnostic: anything implementing
//! [`InstrSet`] can be simulated. [`Ar32Set`] runs native AR32 programs;
//! `fits-core` provides the executor for synthesized 16-bit FITS binaries
//! (backed by its programmable decoder), so the same machinery measures both
//! sides of every experiment.
//!
//! ## Example
//!
//! ```
//! use fits_isa::{Instr, Operand2, Reg, Cond, DpOp, Program};
//! use fits_sim::{Ar32Set, Machine};
//!
//! # fn main() -> Result<(), fits_sim::SimError> {
//! // r0 = 10; loop { r0 -= 1 } until zero; exit(r0 + 3)
//! let program = Program {
//!     text: vec![
//!         Instr::mov(Reg::R0, Operand2::imm(10).unwrap()),
//!         Instr::Dp { cond: Cond::Al, op: DpOp::Sub, set_flags: true,
//!                     rd: Reg::R0, rn: Reg::R0, op2: Operand2::imm(1).unwrap() },
//!         Instr::b(-3).with_cond(Cond::Ne),
//!         Instr::dp(DpOp::Add, Reg::R0, Reg::R0, Operand2::imm(3).unwrap()),
//!         Instr::Swi { cond: Cond::Al, imm: 0 },
//!     ],
//!     ..Program::default()
//! };
//! let mut machine = Machine::new(Ar32Set::load(&program));
//! let run = machine.run()?;
//! assert_eq!(run.exit_code, 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod cache;
mod cpu;
mod error;
mod exec;
mod machine;
mod memory;
mod replay;
mod timing;

pub use cache::{
    validate_config, validate_geometry, Cache, CacheConfig, CacheStats, GeometryError, Replacement,
    WindowPeak, PEAK_WINDOW_CYCLES,
};
pub use cpu::{BranchOutcome, CpuState, ExecCtx, MemAccess, StepOutcome};
pub use error::SimError;
pub use exec::{
    execute_instr, instr_control_flow, instr_meta, Ar32Set, InstrSet, OpControl, OpMeta,
};
pub use machine::{fold_emitted, Machine, RunOutput, MAX_STEPS_DEFAULT};
pub use memory::Memory;
pub use replay::{BasicBlock, CompiledProgram, RecordedTrace, StepTemplate, TraceEntry};
pub use timing::{BranchStats, CacheEventObserver, Sa1100Config, SimResult};
