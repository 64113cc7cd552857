//! A pinned fingerprint of pricing: every `SimResult` field (peak windows
//! included) that `price_all` reports, and every cache event that
//! `price_with` reports to an observer, for all 21 kernels, both
//! instruction sets, and I-caches of 16, 8, 4, 2 and 1 KB at test scale.
//!
//! The expected hash was taken before pricing learned to fold the hits of
//! warm blocks on a never-evicting I-cache, so any change to a counter, a
//! cycle, a peak window or the order of the events fails here. The sizes
//! span I-caches that hold a whole binary's text (and so never evict) and
//! I-caches far smaller than it, so both pricing paths are covered.

#![allow(clippy::unwrap_used)]

use powerfits::core::{FitsFlow, FitsSet};
use powerfits::kernels::kernels::{Kernel, Scale};
use powerfits::sim::{
    Ar32Set, CacheEventObserver, CacheStats, CompiledProgram, InstrSet, Machine, Sa1100Config,
    SimResult, WindowPeak,
};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Hashes every cache event in order: `(cache, addr, write, hit)`.
impl CacheEventObserver for Fnv {
    fn icache_access(&mut self, word_addr: u32, hit: bool) {
        self.word(u64::from(word_addr) << 8 | u64::from(hit));
    }

    fn dcache_access(&mut self, addr: u32, write: bool, hit: bool) {
        self.word(1 << 48 | u64::from(addr) << 8 | u64::from(write) << 1 | u64::from(hit));
    }
}

fn hash_cache(h: &mut Fnv, stats: &CacheStats) {
    let CacheStats {
        accesses,
        hits,
        misses,
        fill_words,
        writebacks,
        writes,
        output_toggles,
        peak:
            WindowPeak {
                accesses: peak_accesses,
                toggles: peak_toggles,
                fill_words: peak_fill_words,
            },
    } = *stats;
    for v in [
        accesses,
        hits,
        misses,
        fill_words,
        writebacks,
        writes,
        output_toggles,
        peak_accesses,
        peak_toggles,
        peak_fill_words,
    ] {
        h.word(v);
    }
}

/// Hashes every field; the destructuring fails to compile if a field is
/// added without being hashed.
fn hash_sim(h: &mut Fnv, sim: &SimResult) {
    let SimResult {
        cycles,
        retired,
        executed,
        issue_groups,
        dual_issues,
        icache,
        dcache,
        class_counts,
        branch,
        reg_reads,
        reg_writes,
        flag_writes,
        mul_ops,
        load_use_stalls,
        icache_stall_cycles,
        dcache_stall_cycles,
    } = sim;
    for v in [
        *cycles,
        *retired,
        *executed,
        *issue_groups,
        *dual_issues,
        branch.branches,
        branch.taken,
        branch.mispredicted,
        *reg_reads,
        *reg_writes,
        *flag_writes,
        *mul_ops,
        *load_use_stalls,
        *icache_stall_cycles,
        *dcache_stall_cycles,
    ] {
        h.word(v);
    }
    for v in class_counts {
        h.word(*v);
    }
    hash_cache(h, icache);
    hash_cache(h, dcache);
}

fn configs() -> Vec<Sa1100Config> {
    [16, 8, 4, 2, 1]
        .into_iter()
        .map(|kb| {
            Sa1100Config::icache_16k()
                .with_icache_bytes(kb * 1024)
                .expect("the size divides the geometry")
        })
        .collect()
}

/// Folds one binary's `price_all` results, then each configuration's
/// observed events and `price_with` result, into `h`.
fn hash_binary<S: InstrSet + Clone>(h: &mut Fnv, set: &S, cfgs: &[Sa1100Config]) {
    let compiled = CompiledProgram::compile(set).unwrap();
    let trace = Machine::new(set.clone()).run_recorded(&compiled).unwrap();
    for sim in trace.price_all(&compiled, cfgs).unwrap() {
        hash_sim(h, &sim);
    }
    for cfg in cfgs {
        let sim = trace.price_with(&compiled, cfg, h).unwrap();
        hash_sim(h, &sim);
    }
}

#[test]
fn pricing_of_every_kernel_matches_the_pinned_hash() {
    let cfgs = configs();
    let mut h = Fnv::new();
    for &kernel in Kernel::ALL.iter() {
        let program = kernel.compile(Scale::test()).unwrap();
        let flow = FitsFlow::new().run(&program).unwrap();
        hash_binary(&mut h, &Ar32Set::load(&program), &cfgs);
        hash_binary(&mut h, &FitsSet::load(&flow.fits).unwrap(), &cfgs);
    }
    assert_eq!(
        h.0, 13_544_063_668_163_757_394,
        "pricing moved: a SimResult field or a cache event changed"
    );
}
