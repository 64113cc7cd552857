//! # fits-core — FITS instruction-set synthesis
//!
//! The paper's contribution: Framework-based Instruction-set Tuning
//! Synthesis. Given a program compiled for the native 32-bit AR32 ISA,
//! this crate
//!
//! 1. **profiles** it ([`profile`](profile())) — opcode families, immediate and
//!    displacement distributions, condition-code usage, register pressure,
//!    2-vs-3-operand feasibility;
//! 2. **synthesizes** a 16-bit application-specific instruction set
//!    ([`synth`]) as a prefix-free variable-length opcode space with
//!    per-category immediate dictionaries, organized in the paper's
//!    BIS/SIS/AIS tiers;
//! 3. **translates** the native binary 1-to-1/1-to-n into the synthesized
//!    ISA ([`translate`](translate())) with branch relaxation;
//! 4. models the **programmable decoder** ([`decoder`]) that the synthesized
//!    configuration is "downloaded" to; and
//! 5. **executes** the 16-bit binary ([`exec`]) on the same simulated
//!    datapath as the native ISA, which is what makes differential
//!    verification and the paper's I-cache power comparison possible.
//!
//! [`FitsFlow`] drives the five stages end to end (the paper's Figure 1),
//! including the iterate-until-requirements-met loop.
//!
//! ## Example
//!
//! ```
//! use fits_core::FitsFlow;
//! use fits_kernels::kernels::{Kernel, Scale};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Kernel::Crc32.compile(Scale::test())?;
//! let outcome = FitsFlow::new().run(&program)?;
//! println!(
//!     "static 1:1 {:.1}%  dynamic 1:1 {:.1}%  code ratio {:.2}",
//!     100.0 * outcome.mapping.static_one_to_one_rate(),
//!     100.0 * outcome.dynamic_rate(),
//!     outcome.code_ratio(program.code_bytes()),
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod decoder;
pub mod exec;
pub mod flow;
pub mod merge;
pub mod multi;
pub mod profile;
pub mod synth;
pub mod translate;

pub use decoder::{DecoderConfig, Dictionaries, Layout, MicroOp, OpcodeEntry, RegMap, Tier};
pub use exec::{decode_word, disassemble, op_meta, FitsOp, FitsSet};
pub use flow::{
    FitsFlow, FlowError, FlowObserver, FlowOutcome, FlowStage, FlowValidator, TeeObserver,
};
pub use merge::{
    canonical_text, canonical_weights, profile_hash, CanonicalWeights, MergeError, Merged,
};
pub use multi::{
    pareto_frontier, synthesize_multi, MemberOutcome, MultiError, MultiMember, MultiOptions,
    MultiOutcome,
};
pub use profile::{profile, profile_recorded, profile_with, OpKey, Profile};
pub use synth::{synthesize, SynthOptions, Synthesis};
pub use translate::{translate, FitsProgram, MappingStats, TranslateError, Translation};
