//! The simulation-side trace collector: rides the timing replay's
//! [`CacheEventObserver`] seam and the recorded trace's per-op execution
//! counts and branch outcomes to build per-PC retire counts, per-set
//! I-cache events and branch histograms — without perturbing a single
//! counter of the [`SimResult`].
//!
//! The contract the differential tests enforce: for any machine and
//! configuration, [`trace_timed_run`] returns a `(RunOutput, SimResult)`
//! pair **bit-identical** to an untraced record + [`RecordedTrace::price`]
//! (and to the interpreted reference model), and every histogram equals
//! what a per-step collector would have counted. The collector only
//! listens; it never feeds back into execution or timing.
//!
//! [`RecordedTrace::price`]: fits_sim::RecordedTrace::price

use fits_isa::TEXT_BASE;
use fits_sim::{
    validate_config, CacheEventObserver, CompiledProgram, InstrSet, Machine, RunOutput,
    Sa1100Config, SimError, SimResult,
};

use crate::hist::{BranchHistogram, PcHistogram, SetHistogram};

/// Aggregate D-cache activity seen by the collector (the D-cache is held
/// constant across the paper's configurations, so totals suffice).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DCacheTotals {
    /// Load accesses.
    pub reads: u64,
    /// Store accesses.
    pub writes: u64,
    /// Misses (either kind).
    pub misses: u64,
}

/// The [`CacheEventObserver`] half of the trace: per-word fetch counts,
/// per-set I-cache events and D-cache totals.
#[derive(Clone, Debug)]
pub struct CacheEvents {
    /// I-cache accesses per aligned fetch word (stride 4, both ISAs: two
    /// 16-bit FITS instructions share one fetched word and one event).
    pub fetches: PcHistogram,
    /// Per-set I-cache hit/miss/fill counters.
    pub icache_sets: SetHistogram,
    /// D-cache access totals.
    pub dcache: DCacheTotals,
}

impl CacheEvents {
    /// A collector for the given core configuration's I-cache geometry.
    #[must_use]
    pub fn new(cfg: &Sa1100Config) -> CacheEvents {
        CacheEvents {
            fetches: PcHistogram::new(TEXT_BASE, 4),
            icache_sets: SetHistogram::new(cfg.icache.sets(), cfg.icache.line_bytes),
            dcache: DCacheTotals::default(),
        }
    }
}

impl CacheEventObserver for CacheEvents {
    fn icache_access(&mut self, word_addr: u32, hit: bool) {
        self.fetches.record(word_addr);
        self.icache_sets.record(word_addr, hit);
    }

    fn dcache_access(&mut self, _addr: u32, write: bool, hit: bool) {
        if write {
            self.dcache.writes = self.dcache.writes.saturating_add(1);
        } else {
            self.dcache.reads = self.dcache.reads.saturating_add(1);
        }
        if !hit {
            self.dcache.misses = self.dcache.misses.saturating_add(1);
        }
    }
}

/// Everything one traced timed run collects beyond its [`SimResult`].
#[derive(Clone, Debug)]
pub struct SimTrace {
    /// Retired-instruction counts per PC (stride = the ISA's op size).
    pub retires: PcHistogram,
    /// Branch outcomes per branch site.
    pub branches: BranchHistogram,
    /// Cache-level events.
    pub cache: CacheEvents,
}

impl SimTrace {
    /// Dynamic instruction count seen by the trace.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retires.total()
    }
}

/// Runs `machine` to the exit trap under the SA-1100 timing model with the
/// trace collector attached, returning the functional output, the timing
/// statistics and the collected [`SimTrace`].
///
/// The run is the library's one timing engine: lift the program
/// ([`CompiledProgram::compile`]), record one execution
/// ([`Machine::run_recorded`]) and replay it for `cfg` with the cache-event
/// collector attached ([`RecordedTrace::price_with`]). Retire counts come
/// from [`RecordedTrace::exec_counts`] and branch outcomes from
/// [`RecordedTrace::branches`], so the `(RunOutput, SimResult)` pair is
/// bit-identical to an untraced [`RecordedTrace::price`].
///
/// [`RecordedTrace::price_with`]: fits_sim::RecordedTrace::price_with
/// [`RecordedTrace::exec_counts`]: fits_sim::RecordedTrace::exec_counts
/// [`RecordedTrace::branches`]: fits_sim::RecordedTrace::branches
/// [`RecordedTrace::price`]: fits_sim::RecordedTrace::price
///
/// # Errors
///
/// Any [`SimError`] raised by execution or cache-geometry validation.
pub fn trace_timed_run<S: InstrSet>(
    machine: &mut Machine<S>,
    cfg: &Sa1100Config,
) -> Result<(RunOutput, SimResult, SimTrace), SimError> {
    // Reject a degenerate geometry before running, and before the
    // collector sizes its per-set histogram from it.
    validate_config(&cfg.icache)?;
    validate_config(&cfg.dcache)?;
    let op_size = machine.instr_set().op_size();
    let compiled = CompiledProgram::compile(machine.instr_set())?;
    let recorded = machine.run_recorded(&compiled)?;
    let mut cache = CacheEvents::new(cfg);
    let result = recorded.price_with(&compiled, cfg, &mut cache)?;

    let templates = compiled.templates();
    let mut retires = PcHistogram::new(TEXT_BASE, op_size);
    for (template, &count) in templates.iter().zip(recorded.exec_counts()) {
        if count > 0 {
            retires.add(template.pc, count);
        }
    }
    let mut branches = BranchHistogram::new(TEXT_BASE, op_size);
    for (index, taken, backward) in recorded.branches() {
        // BTFNT, as the timing model predicts: backward predicted taken,
        // forward predicted not-taken.
        branches.record(templates[index as usize].pc, taken, taken != backward);
    }
    Ok((
        recorded.output,
        result,
        SimTrace {
            retires,
            branches,
            cache,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fits_kernels::kernels::{Kernel, Scale};
    use fits_sim::Ar32Set;

    #[test]
    fn trace_counts_are_consistent_with_sim_result() {
        let program = Kernel::Crc32.compile(Scale::test()).unwrap();
        let mut m = Machine::new(Ar32Set::load(&program));
        let cfg = Sa1100Config::icache_16k();
        let (out, sim, trace) = trace_timed_run(&mut m, &cfg).unwrap();

        assert_eq!(trace.retired(), out.steps, "one retire event per step");
        assert_eq!(trace.retired(), sim.retired);
        assert_eq!(
            trace.cache.fetches.total(),
            sim.icache.accesses,
            "one fetch event per I-cache access"
        );
        assert_eq!(
            trace.cache.icache_sets.total_accesses(),
            sim.icache.accesses
        );
        let set_misses: u64 = trace
            .cache
            .icache_sets
            .sets()
            .iter()
            .map(|s| s.misses)
            .sum();
        assert_eq!(set_misses, sim.icache.misses);
        assert_eq!(
            trace.cache.dcache.reads + trace.cache.dcache.writes,
            sim.dcache.accesses
        );
        assert_eq!(trace.cache.dcache.misses, sim.dcache.misses);
        let taken: u64 = trace.branches.iter().map(|(_, c)| c.taken).sum();
        let mis: u64 = trace.branches.iter().map(|(_, c)| c.mispredicted).sum();
        assert_eq!(taken, sim.branch.taken);
        assert_eq!(mis, sim.branch.mispredicted);
        assert_eq!(trace.retires.stray(), 0, "every PC maps into the text");
    }

    #[test]
    fn traced_run_is_bit_identical_to_untraced() {
        let program = Kernel::Bitcount.compile(Scale::test()).unwrap();
        let cfg = Sa1100Config::icache_8k();
        let set = Ar32Set::load(&program);
        let compiled = CompiledProgram::compile(&set).unwrap();
        let recorded = Machine::new(set).run_recorded(&compiled).unwrap();
        let (ref_out, ref_sim) = (recorded.output, recorded.price(&compiled, &cfg).unwrap());
        let (out, sim, _trace) =
            trace_timed_run(&mut Machine::new(Ar32Set::load(&program)), &cfg).unwrap();
        assert_eq!(out, ref_out);
        assert_eq!(sim, ref_sim);
    }
}
