//! Micro-benchmarks of the reproduction's own components: simulator
//! throughput, cache model, encoder/decoder, profiler, synthesis and
//! translation. These benchmark the *tooling* (so regressions in the
//! infrastructure are visible), not the paper's results — those come from
//! `paper_figures` and the `powerfits-repro` binary.
//!
//! Uses a small self-contained timing harness (median of repeated timed
//! batches) so the workspace has no external benchmarking dependency.

#![allow(clippy::unwrap_used)]

use std::hint::black_box;
use std::time::Instant;

use fits_core::{profile, synthesize, translate, FitsSet, SynthOptions};
use fits_isa::Instr;
use fits_kernels::kernels::{Kernel, Scale};
use fits_sim::{Ar32Set, Cache as SimCache, CacheConfig, CompiledProgram, Machine, Sa1100Config};

/// Times `f` over `samples` batches of `iters` calls and prints the median
/// per-call latency, plus throughput when `elements` per call is known.
fn bench(group: &str, name: &str, elements: Option<u64>, mut f: impl FnMut()) {
    const SAMPLES: usize = 9;
    const MIN_ITERS: u32 = 3;
    // Calibrate the batch size to ~20ms so fast ops get enough iterations.
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.02 / once) as u32).clamp(MIN_ITERS, 10_000);

    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() / f64::from(iters)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let median = samples[SAMPLES / 2];
    let rate = elements.map_or(String::new(), |n| {
        format!("  ({:.1} Melem/s)", n as f64 / median / 1e6)
    });
    println!("{group}/{name:<22} {:>10.3} us/iter{rate}", median * 1e6);
}

fn bench_simulator() {
    let program = Kernel::Crc32.compile(Scale { n: 64 }).unwrap();
    let steps = Machine::new(Ar32Set::load(&program)).run().unwrap().steps;

    bench("simulator", "functional_ar32", Some(steps), || {
        let mut m = Machine::new(Ar32Set::load(&program));
        black_box(m.run().unwrap());
    });
    // Timed runs go through the one timing engine: lift once, then record
    // one execution and price it per call.
    let compiled = CompiledProgram::compile(&Ar32Set::load(&program)).unwrap();
    let timed = |cfgs: &[Sa1100Config]| {
        let trace = Machine::new(Ar32Set::load(&program))
            .run_recorded(&compiled)
            .unwrap();
        black_box(trace.price_all(&compiled, cfgs).unwrap());
    };
    let single = [Sa1100Config::icache_16k()];
    bench("simulator", "timed_ar32", Some(steps), || timed(&single));
    // Execute-once/replay-many: one functional execution priced for four
    // configurations — compare against 4x the timed_ar32 line to see the
    // win.
    let multi_cfgs = [16 * 1024, 8 * 1024, 4 * 1024, 2 * 1024].map(|bytes| {
        Sa1100Config::icache_16k()
            .with_icache_bytes(bytes)
            .expect("sweep sizes divide the geometry")
    });
    bench("simulator", "timed_multi_ar32_x4", Some(steps), || {
        timed(&multi_cfgs);
    });
    let flow = fits_core::FitsFlow::new().run(&program).unwrap();
    let fits_compiled = CompiledProgram::compile(&FitsSet::load(&flow.fits).unwrap()).unwrap();
    bench("simulator", "timed_fits", Some(steps), || {
        let trace = Machine::new(FitsSet::load(&flow.fits).unwrap())
            .run_recorded(&fits_compiled)
            .unwrap();
        black_box(trace.price_all(&fits_compiled, &single).unwrap());
    });
}

fn bench_cache() {
    bench("cache", "access_10k", Some(10_000), || {
        let mut cache = SimCache::new(CacheConfig::sa1100_icache());
        let mut x: u32 = 1;
        for i in 0..10_000u64 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            cache.access((x >> 8) % (64 * 1024), false, x, i);
        }
        black_box(&cache);
    });
}

fn bench_isa() {
    let program = Kernel::Sha.compile(Scale { n: 64 }).unwrap();
    let words: Vec<u32> = program.text.iter().map(Instr::encode).collect();
    let n = program.text.len() as u64;
    bench("isa", "encode", Some(n), || {
        black_box(
            program
                .text
                .iter()
                .map(Instr::encode)
                .fold(0u32, |a, w| a ^ w),
        );
    });
    bench("isa", "decode", Some(n), || {
        black_box(
            words
                .iter()
                .map(|w| Instr::decode(*w).unwrap())
                .filter(Instr::sets_flags)
                .count(),
        );
    });
}

fn bench_synthesis() {
    let program = Kernel::Sha.compile(Scale { n: 64 }).unwrap();
    let prof = profile(&program).unwrap();
    bench("synthesis", "profile", None, || {
        black_box(profile(&program).unwrap());
    });
    bench("synthesis", "synthesize", None, || {
        black_box(synthesize(&prof, &SynthOptions::default()));
    });
    let synthesis = synthesize(&prof, &SynthOptions::default());
    bench("synthesis", "translate", None, || {
        black_box(translate(&program, &synthesis.config).unwrap());
    });
}

fn bench_kernels_compile() {
    bench("compiler", "compile_sha", None, || {
        black_box(Kernel::Sha.compile(Scale { n: 64 }).unwrap());
    });
    bench("compiler", "compile_susan_corners", None, || {
        black_box(Kernel::SusanCorners.compile(Scale { n: 64 }).unwrap());
    });
}

fn main() {
    bench_simulator();
    bench_cache();
    bench_isa();
    bench_synthesis();
    bench_kernels_compile();
}
