//! Design-space exploration: sweep the I-cache size for both ISAs on a few
//! benchmarks and watch the paper's headline effect appear — the FITS
//! binary behaves like it has a cache twice as large ("this instruction
//! packing effect makes FITS caches seem virtually twice as large as their
//! true physical size", §6.4.1).
//!
//! ```sh
//! cargo run --example design_space --release
//! ```

use powerfits::core::{FitsFlow, FitsSet};
use powerfits::kernels::kernels::{Kernel, Scale};
use powerfits::power::{cache_power, TechParams};
use powerfits::sim::{Ar32Set, CompiledProgram, Machine, Sa1100Config};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale { n: 256 };
    let tech = TechParams::sa1100();
    let sizes = [4 * 1024u32, 8 * 1024, 16 * 1024, 32 * 1024];

    println!(
        "{:<16} {:>7}  {:>12} {:>10} {:>12} {:>10}",
        "kernel", "i$ size", "ARM miss/M", "ARM mW", "FITS miss/M", "FITS mW"
    );
    let configs = sizes
        .map(|size| Sa1100Config::icache_16k().with_icache_bytes(size))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    for kernel in [Kernel::Sha, Kernel::SusanCorners, Kernel::Crc32] {
        let program = kernel.compile(scale)?;
        let flow = FitsFlow::new().run(&program)?;
        // Execute each binary once, then price every I-cache size from the
        // recorded trace.
        let arm_set = Ar32Set::load(&program);
        let arm_compiled = CompiledProgram::compile(&arm_set)?;
        let arm_sims = Machine::new(arm_set)
            .run_recorded(&arm_compiled)?
            .price_all(&arm_compiled, &configs)?;
        let fits_set = FitsSet::load(&flow.fits)?;
        let fits_compiled = CompiledProgram::compile(&fits_set)?;
        let fits_sims = Machine::new(fits_set)
            .run_recorded(&fits_compiled)?
            .price_all(&fits_compiled, &configs)?;

        for ((sa, arm_sim), fits_sim) in configs.iter().zip(&arm_sims).zip(&fits_sims) {
            let arm_power = cache_power(&sa.icache, &arm_sim.icache, arm_sim.cycles, &tech);
            let fits_power = cache_power(&sa.icache, &fits_sim.icache, fits_sim.cycles, &tech);
            println!(
                "{:<16} {:>5}KB  {:>12.0} {:>10.2} {:>12.0} {:>10.2}",
                kernel.name(),
                sa.icache.size_bytes / 1024,
                arm_sim.icache.misses_per_million(),
                1e3 * arm_power.average_w(),
                fits_sim.icache.misses_per_million(),
                1e3 * fits_power.average_w(),
            );
        }
        println!();
    }
    println!("Note how the FITS column at N KB tracks the ARM column at 2N KB.");
    Ok(())
}
