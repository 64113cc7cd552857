//! # powerfits — umbrella crate
//!
//! Reproduction of *PowerFITS: Reduce Dynamic and Static I-Cache Power Using
//! Application Specific Instruction Set Synthesis* (Cheng, Tyson, Mudge —
//! ISPASS 2005).
//!
//! This crate re-exports the whole workspace so applications can depend on a
//! single package:
//!
//! * [`isa`] — the AR32 (ARM-like) and T16 (Thumb-like) instruction sets.
//! * [`kernels`] — the embedded-benchmark IR, compiler and 21 MiBench-like
//!   kernels.
//! * [`sim`] — functional and SA-1100-style timing simulation with cache and
//!   activity models.
//! * [`power`] — the analytical CMOS power model (switching / internal /
//!   leakage / peak, cache and chip level).
//! * [`core`] — the FITS contribution: profiling, 16-bit instruction-set
//!   synthesis, programmable decoders and ARM→FITS translation.
//! * [`verify`] — static analyses over synthesized instruction sets and
//!   translated binaries (`fitslint`): encoding soundness, control-flow
//!   integrity, dataflow checks and per-rule translation validation.
//! * [`obs`] — observability: hierarchical phase timing, traced simulation
//!   histograms and per-basic-block power attribution (`fitstrace`).
//! * [`scenario`] — the data-driven scenario plane: named machine presets,
//!   tech nodes and validated sweep matrices.
//! * [`bench`](mod@bench) — experiment runners that regenerate every figure of the
//!   paper.
//!
//! ## Quick start
//!
//! ```
//! use powerfits::kernels::kernels::{Kernel, Scale};
//! use powerfits::core::FitsFlow;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Kernel::Crc32.compile(Scale::test())?;
//! let outcome = FitsFlow::new().run(&program)?;
//! assert!(outcome.mapping.static_one_to_one_rate() > 0.8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use fits_bench as bench;
pub use fits_core as core;
pub use fits_isa as isa;
pub use fits_kernels as kernels;
pub use fits_obs as obs;
pub use fits_power as power;
pub use fits_scenario as scenario;
pub use fits_sim as sim;
pub use fits_verify as verify;
