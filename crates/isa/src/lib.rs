//! # fits-isa — the AR32 and T16 instruction sets
//!
//! This crate defines the two *fixed* instruction sets used by the PowerFITS
//! reproduction:
//!
//! * **AR32** — a 32-bit ARM-flavoured RISC (condition codes, the barrel
//!   shifter ["operand2"], rotated 8-bit immediates, load/store with
//!   displacement, `MUL`/`MLA`, `SWI`). It plays the role of the native ARM
//!   ISA the paper compiles MiBench to. Encodings follow the classic ARM
//!   32-bit layouts so encode/decode round-trips are meaningful.
//! * **T16** — a Thumb-like 16-bit subset (8 visible registers, 2-address
//!   operations, 8-bit immediates) used only for the code-size baseline of
//!   the paper's Figure 5.
//!
//! The synthesized FITS instruction set itself is *not* defined here — it is
//! produced per-application by `fits-core`'s synthesis pass. This crate
//! supplies the shared vocabulary (registers, ALU flag semantics, the
//! internal operation set) both executors are built on.
//!
//! ## Example
//!
//! ```
//! use fits_isa::{Instr, DpOp, Operand2, Reg, Cond};
//!
//! // ADD r0, r1, #42
//! let add = Instr::dp(DpOp::Add, Reg::R0, Reg::R1, Operand2::imm(42).unwrap());
//! let word = add.encode();
//! let back = Instr::decode(word).unwrap();
//! assert_eq!(add, back);
//! assert_eq!(back.to_string(), "add r0, r1, #42");
//! assert_eq!(back.cond(), Cond::Al);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod alu;
mod cond;
mod decode;
mod encode;
mod instr;
mod operand;
pub mod program;
mod reg;
pub mod spec;
pub mod thumb;

pub use cond::Cond;
pub use decode::{DecodeError, DecodeErrorKind};
pub use instr::{Instr, InstrClass};
pub use operand::{AddrOffset, DpOp, Index, MemOp, Operand2, RotImm, Shift, ShiftKind};
pub use program::{Program, DATA_BASE, STACK_TOP, TEXT_BASE};
pub use reg::Reg;
