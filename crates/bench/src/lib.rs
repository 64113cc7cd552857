//! # fits-bench — the PowerFITS experiment harness
//!
//! Reproduces every table and figure of the paper's evaluation (§5–6):
//! four simulated SA-1100 configurations (ARM16/ARM8/FITS16/FITS8) swept
//! over the 21-kernel MiBench-like suite, with one table builder per
//! figure ([`figures`]), a parallel suite runner ([`experiment`]) and a
//! plain-text reporter ([`report`]).
//!
//! Entry points:
//!
//! * `cargo run -p fits-bench --bin powerfits-repro --release` — the full
//!   reproduction: every figure at experiment scale, then the A1–A4
//!   design-choice ablations. Its stdout is the archived
//!   `results/powerfits-repro-full.txt`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod artifacts;
pub mod cachebounds;
pub mod experiment;
pub mod figures;
pub mod lint;
pub mod pareto;
pub mod report;
pub mod stamp;
pub mod sweep;

pub use artifacts::{synth_key, Artifacts, ArtifactsPool};
pub use cachebounds::{
    cache_bounds_report, cache_bounds_report_with, kernel_cache_bounds, CacheBoundsReport,
    KernelCacheBounds, StreamBounds,
};
pub use experiment::{
    paper_matrix, run_fits_scenario, run_kernel, run_kernel_scenarios, run_kernel_with, run_suite,
    run_suite_with, Config, ConfigRun, ExperimentError, KernelResults, ScenarioRun, SuiteResults,
};
pub use pareto::{
    default_candidates, pareto_json, pareto_member_table, pareto_table, price_shared_member,
    run_pareto_with, synthesize_candidate, CandidateSpec, MemberPower, ParetoPoint, ParetoResults,
    Rejection,
};
pub use report::{Row, Table};
pub use sweep::{
    run_sweep_with, sweep_json, sweep_table, write_isa, write_sweep_fields, IsaAggregate,
    SweepPoint, SweepResults,
};
