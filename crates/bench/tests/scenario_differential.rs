//! Differential test for the scenario refactor: the `sa1100` preset driven
//! through the scenario plane reproduces the pre-refactor hard-coded
//! SA-1100 path **bit-identically** — every kernel of the suite, both
//! ISAs, both paper I-cache sizes, simulation statistics and power alike.
//!
//! The hard-coded side below deliberately spells out what the old code
//! baked in: `Sa1100Config::icache_16k()` resized by hand, one dedicated
//! run of the interpreted reference model per configuration,
//! `TechParams::sa1100()` pricing.

use fits_bench::{run_suite_with, Artifacts, Config};
use fits_kernels::kernels::{Kernel, Scale};
use fits_power::{cache_power, chip_power_with, DecodeKind, TechParams};
use fits_sim::{Ar32Set, Sa1100Config};

fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

#[test]
fn sa1100_scenario_is_bit_identical_to_the_hard_coded_path() {
    let arts = Artifacts::new();
    let scale = Scale::test();
    let suite = run_suite_with(&arts, Kernel::ALL, scale).expect("suite runs");
    assert_eq!(suite.kernels.len(), Kernel::ALL.len());

    let tech = TechParams::sa1100();
    for r in &suite.kernels {
        let program = arts.program(r.kernel, scale).expect("program");
        let flow = arts.flow(r.kernel, scale).expect("flow");
        for cfg in Config::ALL {
            let bytes = match cfg {
                Config::Arm16 | Config::Fits16 => 16 * 1024,
                Config::Arm8 | Config::Fits8 => 8 * 1024,
            };
            let sa = Sa1100Config::icache_16k()
                .with_icache_bytes(bytes)
                .expect("paper sizes divide the SA-1100 geometry");
            let sim = if cfg.is_fits() {
                let set = fits_core::FitsSet::load(&flow.fits).expect("decode");
                fits_sim_ref::run_timed(&set, &sa).expect("fits run").1
            } else {
                fits_sim_ref::run_timed(&Ar32Set::load(&program), &sa)
                    .expect("arm run")
                    .1
            };

            let run = r.run(cfg);
            assert_eq!(
                run.sim,
                sim,
                "{}/{cfg}: scenario-driven SimResult must be bit-identical",
                r.kernel.name()
            );

            let icache = cache_power(&sa.icache, &sim.icache, sim.cycles, &tech);
            let decode = if cfg.is_fits() {
                DecodeKind::Programmable {
                    config_bits: flow.fits.config.config_bits(),
                }
            } else {
                DecodeKind::Fixed32
            };
            let chip = chip_power_with(&sim, &sa.icache, &sa.dcache, decode, &tech);
            for (name, ours, theirs) in [
                ("switching_j", run.icache.switching_j, icache.switching_j),
                ("internal_j", run.icache.internal_j, icache.internal_j),
                ("leakage_j", run.icache.leakage_j, icache.leakage_j),
                ("peak_w", run.icache.peak_w, icache.peak_w),
                ("seconds", run.icache.seconds, icache.seconds),
                ("chip total_j", run.chip.total_j(), chip.total_j()),
            ] {
                assert!(
                    bits_eq(ours, theirs),
                    "{}/{cfg}: {name} drifted: {ours:e} vs {theirs:e}",
                    r.kernel.name()
                );
            }
        }
    }
}
