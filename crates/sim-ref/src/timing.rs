//! The interpreted SA-1100 timing model: one pass of fetch / pair / issue /
//! account per retired instruction, one model per configuration.
//!
//! This is the step-by-step form of the pipeline `fits-sim` prices by
//! replaying a recorded trace. Each method below is the per-instruction
//! statement of one piece of that pipeline, including the order of cache
//! accesses within a dual-issue group and the deferred fetch-dedup reset
//! after taken branches.

use fits_isa::InstrClass;
use fits_sim::{validate_config, Cache, CacheEventObserver, Sa1100Config, SimError, SimResult};

use crate::StepInfo;

/// Streaming SA-1100 timing model; feed it [`StepInfo`]s, then call
/// [`TimingModel::finish`].
#[derive(Debug)]
pub struct TimingModel {
    /// Penalty values copied out of the borrowed [`Sa1100Config`] — the
    /// model keeps no clone of the configuration, so hot sweep paths can
    /// build one model per configuration from shared references.
    icache_miss_penalty: u64,
    dcache_miss_penalty: u64,
    mul_extra_cycles: u64,
    taken_branch_penalty: u64,
    mispredict_penalty: u64,
    icache: Cache,
    dcache: Cache,
    result: SimResult,
    /// First instruction of the currently-forming issue pair.
    pending: Option<StepInfo>,
    /// Word address most recently obtained from the fetch path.
    last_fetch_word: Option<u32>,
    /// Destination of a load issued in the immediately preceding group.
    last_group_load_dest: Option<fits_isa::Reg>,
    load_dest_this_group: Option<fits_isa::Reg>,
}

impl TimingModel {
    /// Builds a model, validating cache geometry. Takes the configuration
    /// by reference: only the two cache geometries are copied (into the
    /// caches themselves) plus the five penalty scalars.
    ///
    /// # Errors
    ///
    /// Returns an error when either cache geometry is degenerate.
    pub fn new(cfg: &Sa1100Config) -> Result<TimingModel, SimError> {
        validate_config(&cfg.icache)?;
        validate_config(&cfg.dcache)?;
        Ok(TimingModel {
            icache: Cache::new(cfg.icache.clone()),
            dcache: Cache::new(cfg.dcache.clone()),
            icache_miss_penalty: cfg.icache_miss_penalty,
            dcache_miss_penalty: cfg.dcache_miss_penalty,
            mul_extra_cycles: cfg.mul_extra_cycles,
            taken_branch_penalty: cfg.taken_branch_penalty,
            mispredict_penalty: cfg.mispredict_penalty,
            result: SimResult::default(),
            pending: None,
            last_fetch_word: None,
            last_group_load_dest: None,
            load_dest_this_group: None,
        })
    }

    fn fetch<O: CacheEventObserver>(&mut self, info: &StepInfo, obs: &mut O) {
        if self.last_fetch_word == Some(info.fetch_word_addr) {
            return; // second half of the same 32-bit fetch (16-bit ISAs)
        }
        self.last_fetch_word = Some(info.fetch_word_addr);
        let cycle = self.result.cycles;
        let hit = self
            .icache
            .access(info.fetch_word_addr, false, info.fetch_word_value, cycle);
        obs.icache_access(info.fetch_word_addr, hit);
        if !hit {
            self.result.cycles += self.icache_miss_penalty;
            self.result.icache_stall_cycles += self.icache_miss_penalty;
        }
    }

    fn can_pair(a: &StepInfo, b: &StepInfo) -> bool {
        // A control-flow op (or anything that redirected the PC) closes the
        // group.
        if a.branch.is_some() || a.class == InstrClass::Trap {
            return false;
        }
        // Fetch bandwidth: the pair must come from the same or the next
        // aligned word.
        if b.fetch_word_addr != a.fetch_word_addr && b.fetch_word_addr != a.fetch_word_addr + 4 {
            return false;
        }
        // Structural: one memory port, one multiplier.
        if a.mem.is_some() && b.mem.is_some() {
            return false;
        }
        if a.is_mul && b.is_mul {
            return false;
        }
        // RAW on registers.
        for d in a.dests.iter().flatten() {
            if b.sources.iter().flatten().any(|s| s == d) {
                return false;
            }
            // WAW within a pair also serializes on this simple core.
            if b.dests.iter().flatten().any(|s| s == d) {
                return false;
            }
        }
        // RAW on flags.
        if a.sets_flags && b.reads_flags {
            return false;
        }
        true
    }

    fn issue_group<O: CacheEventObserver>(
        &mut self,
        first: StepInfo,
        second: Option<StepInfo>,
        obs: &mut O,
    ) {
        self.result.cycles += 1;
        self.result.issue_groups += 1;
        if second.is_some() {
            self.result.dual_issues += 1;
        }
        self.load_dest_this_group = None;

        // Load-use interlock against the previous group.
        if let Some(dest) = self.last_group_load_dest {
            let uses = |i: &StepInfo| i.sources.iter().flatten().any(|s| *s == dest);
            if uses(&first) || second.as_ref().is_some_and(uses) {
                self.result.cycles += 1;
                self.result.load_use_stalls += 1;
            }
        }

        for info in std::iter::once(&first).chain(second.as_ref()) {
            self.account_instr(info, obs);
        }
        self.last_group_load_dest = self.load_dest_this_group.take();
    }

    fn account_instr<O: CacheEventObserver>(&mut self, info: &StepInfo, obs: &mut O) {
        let class_idx = match info.class {
            InstrClass::Operate => 0,
            InstrClass::Memory => 1,
            InstrClass::Branch => 2,
            InstrClass::Trap => 3,
        };
        self.result.class_counts[class_idx] += 1;
        if info.executed {
            self.result.executed += 1;
        }
        self.result.reg_reads += u64::from(info.reg_reads);
        self.result.reg_writes += u64::from(info.reg_writes);
        if info.sets_flags {
            self.result.flag_writes += 1;
        }
        if info.is_mul {
            self.result.mul_ops += 1;
            self.result.cycles += self.mul_extra_cycles;
        }
        if let Some(mem) = &info.mem {
            let cycle = self.result.cycles;
            let hit = self.dcache.access(mem.addr, !mem.is_load, mem.data, cycle);
            obs.dcache_access(mem.addr, !mem.is_load, hit);
            if !hit {
                self.result.cycles += self.dcache_miss_penalty;
                self.result.dcache_stall_cycles += self.dcache_miss_penalty;
            }
            if mem.is_load {
                self.load_dest_this_group = info.dests[0];
            }
        }
        if let Some(branch) = &info.branch {
            self.result.branch.branches += 1;
            let predicted_taken = branch.backward; // BTFNT
            if branch.taken {
                self.result.branch.taken += 1;
            }
            if branch.taken != predicted_taken {
                self.result.branch.mispredicted += 1;
                self.result.cycles += self.mispredict_penalty;
            } else if branch.taken {
                self.result.cycles += self.taken_branch_penalty;
            }
            if branch.taken {
                // The next fetch starts at the target word.
                self.last_fetch_word = None;
            }
        }
    }

    /// Feeds one retired instruction.
    pub fn observe(&mut self, info: &StepInfo) {
        self.observe_with(info, &mut ());
    }

    /// Feeds one retired instruction, reporting every cache access to
    /// `obs`. [`TimingModel::observe`] is this method with the no-op `()`
    /// observer — the accumulated [`SimResult`] is identical either way.
    pub fn observe_with<O: CacheEventObserver>(&mut self, info: &StepInfo, obs: &mut O) {
        self.result.retired += 1;
        self.fetch(info, obs);
        match self.pending.take() {
            None => self.pending = Some(*info),
            Some(prev) => {
                if Self::can_pair(&prev, info) {
                    self.issue_group(prev, Some(*info), obs);
                } else {
                    self.issue_group(prev, None, obs);
                    self.pending = Some(*info);
                }
            }
        }
    }

    /// Flushes pending state and returns the accumulated statistics.
    #[must_use]
    pub fn finish(self) -> SimResult {
        self.finish_with(&mut ())
    }

    /// Like [`TimingModel::finish`], reporting any cache accesses from the
    /// flushed final issue group to `obs`.
    #[must_use]
    pub fn finish_with<O: CacheEventObserver>(mut self, obs: &mut O) -> SimResult {
        if let Some(prev) = self.pending.take() {
            self.issue_group(prev, None, obs);
        }
        self.icache.finish();
        self.dcache.finish();
        self.result.icache = self.icache.stats().clone();
        self.result.dcache = self.dcache.stats().clone();
        self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fits_isa::{Reg, TEXT_BASE};
    use fits_sim::{BranchOutcome, MemAccess};

    fn info(pc: u32) -> StepInfo {
        StepInfo {
            pc,
            size: 4,
            fetch_word_addr: pc & !3,
            fetch_word_value: pc, // arbitrary
            class: InstrClass::Operate,
            reg_reads: 2,
            reg_writes: 1,
            executed: true,
            mem: None,
            branch: None,
            is_mul: false,
            dests: [Some(Reg::R0), None],
            sources: [Some(Reg::R1), Some(Reg::R2), None],
            sets_flags: false,
            reads_flags: false,
        }
    }

    fn model() -> TimingModel {
        TimingModel::new(&Sa1100Config::icache_16k()).unwrap()
    }

    #[test]
    fn independent_adjacent_ops_dual_issue() {
        let mut t = model();
        let mut a = info(TEXT_BASE);
        a.dests = [Some(Reg::R0), None];
        let mut b = info(TEXT_BASE + 4);
        b.dests = [Some(Reg::R3), None];
        b.sources = [Some(Reg::R4), None, None];
        t.observe(&a);
        t.observe(&b);
        let r = t.finish();
        assert_eq!(r.dual_issues, 1);
        assert_eq!(r.issue_groups, 1);
        assert_eq!(r.retired, 2);
    }

    #[test]
    fn raw_dependency_blocks_pairing() {
        let mut t = model();
        let a = info(TEXT_BASE); // writes r0
        let mut b = info(TEXT_BASE + 4);
        b.sources = [Some(Reg::R0), None, None]; // reads r0
        t.observe(&a);
        t.observe(&b);
        let r = t.finish();
        assert_eq!(r.dual_issues, 0);
        assert_eq!(r.issue_groups, 2);
    }

    #[test]
    fn flag_dependency_blocks_pairing() {
        let mut t = model();
        let mut a = info(TEXT_BASE);
        a.sets_flags = true;
        let mut b = info(TEXT_BASE + 4);
        b.sources = [Some(Reg::R4), None, None];
        b.dests = [Some(Reg::R5), None];
        b.reads_flags = true;
        t.observe(&a);
        t.observe(&b);
        assert_eq!(t.finish().dual_issues, 0);
    }

    #[test]
    fn two_memory_ops_serialize() {
        let mut t = model();
        let mem = Some(MemAccess {
            addr: fits_isa::DATA_BASE,
            size: 4,
            is_load: true,
            data: 0,
        });
        let mut a = info(TEXT_BASE);
        a.mem = mem;
        a.dests = [Some(Reg::R0), None];
        let mut b = info(TEXT_BASE + 4);
        b.mem = mem;
        b.dests = [Some(Reg::R3), None];
        b.sources = [Some(Reg::R4), None, None];
        t.observe(&a);
        t.observe(&b);
        assert_eq!(t.finish().dual_issues, 0);
    }

    #[test]
    fn icache_miss_stalls() {
        let mut t = model();
        t.observe(&info(TEXT_BASE));
        let r = t.finish();
        assert_eq!(r.icache.misses, 1, "cold fetch misses");
        assert!(r.cycles >= 24);
        assert_eq!(r.icache_stall_cycles, 24);
    }

    #[test]
    fn same_word_fetch_is_shared() {
        let mut t = model();
        // Two 16-bit instructions in one word: same fetch_word_addr.
        let mut a = info(TEXT_BASE);
        a.size = 2;
        let mut b = info(TEXT_BASE + 2);
        b.size = 2;
        b.fetch_word_addr = TEXT_BASE;
        b.dests = [Some(Reg::R3), None];
        b.sources = [Some(Reg::R4), None, None];
        t.observe(&a);
        t.observe(&b);
        let r = t.finish();
        assert_eq!(r.icache.accesses, 1, "one fetch feeds the pair");
        assert_eq!(r.dual_issues, 1);
    }

    #[test]
    fn load_use_stall_applies_across_groups() {
        let mut t = model();
        let mut a = info(TEXT_BASE);
        a.mem = Some(MemAccess {
            addr: fits_isa::DATA_BASE,
            size: 4,
            is_load: true,
            data: 0,
        });
        a.dests = [Some(Reg::R6), None];
        let mut b = info(TEXT_BASE + 4);
        b.sources = [Some(Reg::R6), None, None]; // immediately uses the load
        t.observe(&a);
        t.observe(&b);
        let r = t.finish();
        assert_eq!(r.load_use_stalls, 1);
    }

    #[test]
    fn branch_prediction_btfnt() {
        let mut t = model();
        // Backward taken: predicted correctly -> small penalty only.
        let mut a = info(TEXT_BASE);
        a.class = InstrClass::Branch;
        a.branch = Some(BranchOutcome {
            taken: true,
            backward: true,
        });
        a.dests = [None, None];
        t.observe(&a);
        // Forward taken: mispredict.
        let mut b = info(TEXT_BASE + 4);
        b.class = InstrClass::Branch;
        b.branch = Some(BranchOutcome {
            taken: true,
            backward: false,
        });
        b.dests = [None, None];
        t.observe(&b);
        let r = t.finish();
        assert_eq!(r.branch.branches, 2);
        assert_eq!(r.branch.taken, 2);
        assert_eq!(r.branch.mispredicted, 1);
    }

    #[test]
    fn ipc_bounded_by_two() {
        let mut t = model();
        for i in 0..1000u32 {
            let mut s = info(TEXT_BASE + i * 4);
            s.dests = [Some(Reg::new((i % 6) as u8)), None];
            s.sources = [Some(Reg::new(((i + 7) % 12) as u8)), None, None];
            t.observe(&s);
        }
        let r = t.finish();
        assert!(r.ipc() <= 2.0);
        // Cold-cache compulsory misses dominate this synthetic stream, so
        // judge issue throughput net of I-cache stalls.
        let busy = (r.cycles - r.icache_stall_cycles) as f64;
        assert!(r.retired as f64 / busy > 0.9, "net ipc too low: {busy}");
    }
}
