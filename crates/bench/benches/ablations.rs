//! Ablations of the synthesis design choices DESIGN.md calls out:
//!
//! * A1 — immediate-dictionary capacity (max index width 0–8 bits);
//! * A2 — toggle-aware opcode assignment on/off (measured fetch toggles);
//! * A3 — register-window width (4-bit vs 3-bit register fields);
//! * A4 — opcode-space budget (what a shared decode table costs).
//!
//! Run with `cargo bench -p fits-bench --bench ablations`.

use fits_bench::Artifacts;
use fits_core::{synthesize, translate, FitsSet, SynthOptions, TranslateError};
use fits_kernels::kernels::{Kernel, Scale};
use fits_sim::{CompiledProgram, Machine, Sa1100Config};

const KERNELS: &[Kernel] = &[
    Kernel::Crc32,
    Kernel::Sha,
    Kernel::SusanEdges,
    Kernel::AdpcmEnc,
    Kernel::Dijkstra,
];

fn main() {
    let scale = Scale { n: 192 };
    // One artifact cache for the whole process: each kernel is compiled and
    // profiled exactly once, no matter how many ablation points consume it.
    let artifacts = Artifacts::new();
    ablation_dict_bits(&artifacts, scale);
    ablation_toggle_aware(&artifacts, scale);
    ablation_register_window(&artifacts, scale);
    ablation_space_budget(&artifacts, scale);
}

/// A1: dictionary capacity vs mapping rate — the §3.3 immediate-synthesis
/// knob. Tiny dictionaries force 1-to-n constant construction.
fn ablation_dict_bits(artifacts: &Artifacts, scale: Scale) {
    println!("[A1] immediate-dictionary index width vs mapping rate");
    println!(
        "  {:<14} {:>6} {:>10} {:>10} {:>10}",
        "kernel", "bits", "static%", "dynamic%", "code"
    );
    for &kernel in KERNELS {
        let program = artifacts.program(kernel, scale).expect("compiles");
        let prof = artifacts.profile(kernel, scale).expect("profiles");
        for bits in [0u8, 2, 4, 6, 8] {
            let opts = SynthOptions {
                max_dict_bits: bits,
                ..SynthOptions::default()
            };
            let synthesis = synthesize(&prof, &opts);
            let t = translate(&program, &synthesis.config).expect("translates");
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
}

/// A2: toggle-aware opcode-value assignment — measured I-cache output
/// toggles per fetch with the optimization on and off.
fn ablation_toggle_aware(artifacts: &Artifacts, scale: Scale) {
    println!("[A2] toggle-aware opcode assignment (fetch toggles per access)");
    println!(
        "  {:<14} {:>12} {:>12} {:>8}",
        "kernel", "gray-on", "gray-off", "delta%"
    );
    for &kernel in KERNELS {
        let program = artifacts.program(kernel, scale).expect("compiles");
        let prof = artifacts.profile(kernel, scale).expect("profiles");
        let mut per_access = [0.0f64; 2];
        for (i, toggle_aware) in [true, false].into_iter().enumerate() {
            let opts = SynthOptions {
                toggle_aware,
                ..SynthOptions::default()
            };
            let synthesis = synthesize(&prof, &opts);
            let t = translate(&program, &synthesis.config).expect("translates");
            let set = FitsSet::load(&t.fits).expect("loads");
            let compiled = CompiledProgram::compile(&set).expect("lifts");
            let trace = Machine::new(set).run_recorded(&compiled).expect("runs");
            let sim = trace
                .price_all(&compiled, &[Sa1100Config::icache_16k()])
                .expect("prices")
                .remove(0);
            per_access[i] = sim.icache.output_toggles as f64 / sim.icache.accesses.max(1) as f64;
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
}

/// A3: the 8-register window. Our kernel compiler targets the full ARM
/// register set, so post-hoc translation into a 3-bit window fails on the
/// registers outside it — quantifying why the paper synthesizes the
/// register organization *with* the compiler rather than after it.
fn ablation_register_window(artifacts: &Artifacts, scale: Scale) {
    println!("[A3] register-window width (4-bit vs 3-bit fields)");
    println!(
        "  {:<14} {:>10} {:>34}",
        "kernel", "regs used", "3-bit window outcome"
    );
    for &kernel in KERNELS {
        let program = artifacts.program(kernel, scale).expect("compiles");
        let prof = artifacts.profile(kernel, scale).expect("profiles");
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
}

/// A4: shrinking the opcode-space budget (e.g. sharing the decode table
/// between resident applications) versus expansion.
fn ablation_space_budget(artifacts: &Artifacts, scale: Scale) {
    println!("[A4] opcode-space budget vs dynamic mapping rate");
    println!(
        "  {:<14} {:>8} {:>10} {:>10}",
        "kernel", "budget", "dynamic%", "opcodes"
    );
    for &kernel in KERNELS {
        let program = artifacts.program(kernel, scale).expect("compiles");
        let prof = artifacts.profile(kernel, scale).expect("profiles");
        for budget in [0.25f64, 0.5, 0.75, 1.0] {
            let opts = SynthOptions {
                space_budget: budget,
                ..SynthOptions::default()
            };
            let synthesis = synthesize(&prof, &opts);
            let t = translate(&program, &synthesis.config).expect("translates");
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
}
