//! Runs native and FITS executions in lockstep for one kernel.

#![allow(clippy::unwrap_used)]

use fits_core::{profile::profile, synthesize, translate, FitsSet, SynthOptions};
use fits_kernels::kernels::{Kernel, Scale};
use fits_sim::Ar32Set;

fn stores<S: fits_sim::InstrSet>(set: S, lim: usize) -> Vec<(u32, u32, u32)> {
    let mut v = Vec::new();
    // The interpreted reference loop reports every retired step.
    let _ = fits_sim_ref::run_observed(&set, |_, info| {
        if let Some(mem) = &info.mem {
            // Skip stores of code addresses (saved LR): those differ
            // between the ISAs' address spaces by design.
            let is_code =
                mem.data >= fits_isa::TEXT_BASE && mem.data < fits_isa::TEXT_BASE + 0x20000;
            if !is_code && v.len() < lim {
                v.push((mem.addr, mem.data, info.pc));
            }
        }
    });
    v
}

fn main() {
    let k = Kernel::JpegDct;
    let program = k.compile(Scale::test()).unwrap();
    let p = profile(&program).unwrap();
    let s = synthesize(&p, &SynthOptions::default());
    let t = translate(&program, &s.config).unwrap();
    let a = stores(Ar32Set::load(&program), 50000);
    let f = stores(FitsSet::load(&t.fits).unwrap(), 50000);
    for (i, (x, y)) in a.iter().zip(f.iter()).enumerate() {
        if x.0 != y.0 || x.1 != y.1 {
            println!("divergence at store #{i}:");
            println!(
                "  ARM : addr {:#010x} data {:#010x} pc {:#010x}",
                x.0, x.1, x.2
            );
            println!(
                "  FITS: addr {:#010x} data {:#010x} pc {:#010x}",
                y.0, y.1, y.2
            );
            // context: surrounding ARM disasm
            let idx = ((x.2 - fits_isa::TEXT_BASE) / 4) as usize;
            for j in idx.saturating_sub(12)..(idx + 3).min(program.text.len()) {
                println!(
                    "  {} arm[{}] {}",
                    if j == idx { "=>" } else { "  " },
                    j,
                    program.text[j]
                );
            }
            return;
        }
    }
    println!("stores identical ({} vs {})", a.len(), f.len());
}
