//! The full PowerFITS reproduction: every figure at experiment scale,
//! followed by the A1–A4 ablations of the synthesis design choices:
//!
//! * A1 — immediate-dictionary capacity (max index width 0–8 bits);
//! * A2 — toggle-aware opcode assignment on/off (measured fetch toggles);
//! * A3 — register-window width (4-bit vs 3-bit register fields);
//! * A4 — opcode-space budget (what a shared decode table costs).
//!
//! `--trace` additionally times every flow stage across the suite with a
//! `fits-obs` span registry and prints the merged tree afterwards.

use std::sync::Arc;

use fits_bench::{figures, price_shared_member, run_suite_with, Artifacts, ExperimentError};
use fits_core::{
    synthesize, translate, FlowError, Profile, SynthOptions, Synthesis, TranslateError, Translation,
};
use fits_isa::Program;
use fits_kernels::kernels::{Kernel, Scale};
use fits_obs::SpanRegistry;
use fits_scenario::ScenarioSpec;

/// The ablations' own workload scale. Every ablation point synthesizes and
/// translates afresh, so it stays well below [`Scale::experiment`].
const ABLATION_SCALE: Scale = Scale { n: 192 };

/// The kernels every ablation sweeps.
const ABLATION_KERNELS: &[Kernel] = &[
    Kernel::Crc32,
    Kernel::Sha,
    Kernel::SusanEdges,
    Kernel::AdpcmEnc,
    Kernel::Dijkstra,
];

fn main() {
    let mut trace = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--trace" => trace = true,
            "--help" | "-h" => {
                eprintln!("usage: powerfits-repro [--trace]");
                return;
            }
            other => {
                eprintln!("powerfits-repro: unknown argument: {other}");
                eprintln!("usage: powerfits-repro [--trace]");
                std::process::exit(2);
            }
        }
    }

    let start = std::time::Instant::now();
    let reg = trace.then(SpanRegistry::new);
    let artifacts = match &reg {
        Some(reg) => Artifacts::new().with_flow_observer(Arc::new(reg.clone())),
        None => Artifacts::new(),
    };
    if let Err(e) = run(&artifacts, reg.as_ref()) {
        eprintln!("experiment failed: {e}");
        std::process::exit(1);
    }
    eprintln!("done in {:.1}s", start.elapsed().as_secs_f64());
}

/// Prints the figure tables, then the ablations, sharing one artifact
/// cache: each kernel is compiled and profiled once per scale.
fn run(artifacts: &Artifacts, reg: Option<&SpanRegistry>) -> Result<(), ExperimentError> {
    let scale = Scale::experiment();
    eprintln!(
        "running {} kernels x 4 configurations at scale n={} ...",
        Kernel::ALL.len(),
        scale.n
    );
    let suite = run_suite_with(artifacts, Kernel::ALL, scale)?;
    println!(
        "PowerFITS reproduction — all paper figures (scale n={})",
        scale.n
    );
    println!("================================================================");
    for table in figures::all_figures(&suite) {
        println!("{table}");
    }
    // Rendered before the ablations run, so the tree covers the suite only.
    if let Some(reg) = reg {
        eprintln!(
            "flow stage timings (suite-wide, merged by stage):\n{}",
            reg.render()
        );
    }
    ablation_dict_bits(artifacts)?;
    ablation_toggle_aware(artifacts)?;
    ablation_register_window(artifacts)?;
    ablation_space_budget(artifacts)
}

/// Synthesizes an ISA from `prof` under `opts` and translates `program`
/// into it.
fn synth_translate(
    program: &Program,
    prof: &Profile,
    opts: &SynthOptions,
) -> Result<(Synthesis, Translation), ExperimentError> {
    let synthesis = synthesize(prof, opts);
    let t = translate(program, &synthesis.config)
        .map_err(|e| ExperimentError::Flow(FlowError::Translate(e)))?;
    Ok((synthesis, t))
}

/// A1: dictionary capacity vs mapping rate — the §3.3 immediate-synthesis
/// knob. Tiny dictionaries force 1-to-n constant construction.
fn ablation_dict_bits(artifacts: &Artifacts) -> Result<(), ExperimentError> {
    println!("[A1] immediate-dictionary index width vs mapping rate");
    println!(
        "  {:<14} {:>6} {:>10} {:>10} {:>10}",
        "kernel", "bits", "static%", "dynamic%", "code"
    );
    for &kernel in ABLATION_KERNELS {
        let program = artifacts.program(kernel, ABLATION_SCALE)?;
        let prof = artifacts.profile(kernel, ABLATION_SCALE)?;
        for bits in [0u8, 2, 4, 6, 8] {
            let opts = SynthOptions {
                max_dict_bits: bits,
                ..SynthOptions::default()
            };
            let (_, t) = synth_translate(&program, &prof, &opts)?;
            println!(
                "  {:<14} {:>6} {:>10.1} {:>10.1} {:>10.3}",
                kernel.name(),
                bits,
                100.0 * t.stats.static_one_to_one_rate(),
                100.0 * t.stats.dynamic_one_to_one_rate(&prof.exec_counts),
                t.fits.code_bytes() as f64 / program.code_bytes() as f64,
            );
        }
    }
    println!();
    Ok(())
}

/// A2: toggle-aware opcode-value assignment — measured I-cache output
/// toggles per fetch with the optimization on and off, priced on the
/// SA-1100 16 KB machine.
fn ablation_toggle_aware(artifacts: &Artifacts) -> Result<(), ExperimentError> {
    println!("[A2] toggle-aware opcode assignment (fetch toggles per access)");
    println!(
        "  {:<14} {:>12} {:>12} {:>8}",
        "kernel", "gray-on", "gray-off", "delta%"
    );
    let scenario = ScenarioSpec::sa1100();
    for &kernel in ABLATION_KERNELS {
        let program = artifacts.program(kernel, ABLATION_SCALE)?;
        let prof = artifacts.profile(kernel, ABLATION_SCALE)?;
        let mut per_access = [0.0f64; 2];
        for (i, toggle_aware) in [true, false].into_iter().enumerate() {
            let opts = SynthOptions {
                toggle_aware,
                ..SynthOptions::default()
            };
            let (_, t) = synth_translate(&program, &prof, &opts)?;
            let icache = price_shared_member(&t.fits, &scenario)?.sim.icache;
            per_access[i] = icache.output_toggles as f64 / icache.accesses.max(1) as f64;
        }
        println!(
            "  {:<14} {:>12.3} {:>12.3} {:>7.2}%",
            kernel.name(),
            per_access[0],
            per_access[1],
            100.0 * (per_access[1] - per_access[0]) / per_access[1].max(1e-9),
        );
    }
    println!();
    Ok(())
}

/// A3: the 8-register window. Our kernel compiler targets the full ARM
/// register set, so post-hoc translation into a 3-bit window fails on the
/// registers outside it — quantifying why the paper synthesizes the
/// register organization *with* the compiler rather than after it. A
/// failed translation is the measured outcome here, not an error.
fn ablation_register_window(artifacts: &Artifacts) -> Result<(), ExperimentError> {
    println!("[A3] register-window width (4-bit vs 3-bit fields)");
    println!(
        "  {:<14} {:>10} {:>34}",
        "kernel", "regs used", "3-bit window outcome"
    );
    for &kernel in ABLATION_KERNELS {
        let program = artifacts.program(kernel, ABLATION_SCALE)?;
        let prof = artifacts.profile(kernel, ABLATION_SCALE)?;
        let opts = SynthOptions {
            reg_bits: 3,
            ..SynthOptions::default()
        };
        let synthesis = synthesize(&prof, &opts);
        let outcome = match translate(&program, &synthesis.config) {
            Ok(t) => format!(
                "translates ({:.1}% static)",
                100.0 * t.stats.static_one_to_one_rate()
            ),
            Err(TranslateError::RegisterOutsideWindow { reg, .. }) => {
                format!("fails: r{reg} outside window")
            }
            Err(e) => format!("fails: {e}"),
        };
        println!(
            "  {:<14} {:>10} {:>34}",
            kernel.name(),
            prof.distinct_regs(),
            outcome
        );
    }
    println!();
    Ok(())
}

/// A4: shrinking the opcode-space budget (e.g. sharing the decode table
/// between resident applications) versus expansion.
fn ablation_space_budget(artifacts: &Artifacts) -> Result<(), ExperimentError> {
    println!("[A4] opcode-space budget vs dynamic mapping rate");
    println!(
        "  {:<14} {:>8} {:>10} {:>10}",
        "kernel", "budget", "dynamic%", "opcodes"
    );
    for &kernel in ABLATION_KERNELS {
        let program = artifacts.program(kernel, ABLATION_SCALE)?;
        let prof = artifacts.profile(kernel, ABLATION_SCALE)?;
        for budget in [0.25f64, 0.5, 0.75, 1.0] {
            let opts = SynthOptions {
                space_budget: budget,
                ..SynthOptions::default()
            };
            let (synthesis, t) = synth_translate(&program, &prof, &opts)?;
            println!(
                "  {:<14} {:>8.2} {:>10.1} {:>10}",
                kernel.name(),
                budget,
                100.0 * t.stats.dynamic_one_to_one_rate(&prof.exec_counts),
                synthesis.config.ops.len(),
            );
        }
    }
    println!();
    Ok(())
}
