//! The basic-block compiled replay engine — the crate's SA-1100 timing
//! engine.
//!
//! Timing a run the naive way re-derives everything per retired
//! instruction: decode lookup, per-op metadata, and one full timing-model
//! pass per configuration. This module splits that work into three phases
//! so a geometry × tech sweep pays for the expensive parts exactly once:
//!
//! 1. **Lift** ([`CompiledProgram::compile`]) — discover basic blocks from
//!    the decoded text (leaders at the entry, at direct branch targets and
//!    after every control-flow op), precompute one static [`StepTemplate`]
//!    per op (PC, fetch word, class, ports, operands — everything the
//!    timing model needs that does not depend on the dynamic outcome) and
//!    pre-resolve direct successor links.
//! 2. **Record** ([`crate::Machine::run_recorded`]) — one functional
//!    execution emits a compact trace: `(block-entry index, length)` pairs
//!    plus one dynamic-outcome byte per retired op and a side stream of
//!    memory addresses/data. No timing model runs.
//! 3. **Replay** ([`RecordedTrace::price_all`]) — one pass over the trace
//!    re-runs the SA-1100 issue/hazard pipeline (which is configuration-
//!    independent: pairing, interlocks and prediction depend only on the
//!    program, never on cache geometry or penalty values) and prices the
//!    requested configurations, with per-configuration timing state held
//!    in [`Lane`]s. The cycle at which each cache access lands in a lane is
//!    reconstructed from shared event counters and lane-local stall totals,
//!    so every lane's `Cache` sees exactly the `(addr, data, cycle)`
//!    sequence a dedicated per-configuration model would have produced.
//!
//! The pipeline pass delivers its events through one of two drains, picked
//! by [`RecordedTrace::price_all`] from the number of configurations: the
//! fused single-lane drain ([`FusedSink`], also the only one that can
//! report events to a [`CacheEventObserver`]) applies each event inline,
//! and the batch drain ([`BufferSink`]) buffers events in bounded chunks
//! that every lane then drains in a tight loop.
//!
//! The differential tests (`tests/replay_multi.rs`, `tests/prop_replay.rs`
//! and the `fits-obs` suite) hold both drains bit-identical, on every
//! counter of [`SimResult`] and every [`CacheEventObserver`] event, to the
//! interpreted per-step reference model kept in the dev-only
//! `fits-sim-ref` crate.

use fits_isa::{InstrClass, Reg};

use crate::cache::validate_config;
use crate::machine::{RunOutput, FNV_OFFSET};
use crate::timing::{BranchStats, CacheEventObserver, Sa1100Config, SimResult};
use crate::{Cache, InstrSet, OpControl, SimError};

/// Static per-op template: everything the timing model needs to know about
/// an op that is a pure function of the decoded instruction, precomputed
/// once at lift time.
#[derive(Clone, Copy, Debug)]
pub struct StepTemplate {
    /// Architectural PC of the op.
    pub pc: u32,
    /// Aligned 32-bit fetch word address (`pc & !3`).
    pub fetch_word_addr: u32,
    /// Encoded contents of the fetch word (for cache toggle accounting).
    pub fetch_word_value: u32,
    /// Broad category.
    pub class: InstrClass,
    /// Register-file read ports used.
    pub reg_reads: u32,
    /// Register-file write ports used.
    pub reg_writes: u32,
    /// Destination registers.
    pub dests: [Option<Reg>; 2],
    /// Source registers.
    pub sources: [Option<Reg>; 3],
    /// Bitmask of `dests` (bit *i* = `r<i>`), for branch-free hazard
    /// checks in the replay pipeline.
    pub dest_mask: u16,
    /// Bitmask of `sources`.
    pub source_mask: u16,
    /// Bitmask of `dests[0]` alone (0 when absent) — the load-use
    /// interlock tracks only a load's first destination.
    pub dest0_mask: u16,
    /// Whether the op writes flags *when executed*.
    pub sets_flags: bool,
    /// Whether the op reads flags.
    pub reads_flags: bool,
    /// Whether the op uses the multiplier *when executed*.
    pub is_mul: bool,
}

/// One basic block of the lifted program, with pre-resolved successors.
#[derive(Clone, Copy, Debug)]
pub struct BasicBlock {
    /// Index of the block's first op (template index == op index).
    pub first: u32,
    /// Number of ops in the block.
    pub len: u32,
    /// Block entered on fall-through, if the terminator can fall through.
    pub fall_through: Option<u32>,
    /// Pre-resolved direct branch successor of the terminator:
    /// `(target PC, target op index, target block)`. `None` for indirect
    /// terminators, traps, and branches leaving the text segment.
    pub branch_to: Option<(u32, u32, u32)>,
}

/// Dynamic-outcome flags recorded per retired op (one byte each).
const F_EXECUTED: u8 = 1 << 0;
const F_MEM: u8 = 1 << 1;
const F_MEM_LOAD: u8 = 1 << 2;
const F_BRANCH: u8 = 1 << 3;
const F_TAKEN: u8 = 1 << 4;
const F_BACKWARD: u8 = 1 << 5;

/// A program lifted to basic-block descriptors and per-op static
/// templates — the shared, configuration-independent half of the compiled
/// replay engine. Build once per loaded binary with
/// [`CompiledProgram::compile`]; reuse across every recording and every
/// sweep point.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    op_size: u32,
    /// Op index of the program entry point.
    entry_index: u32,
    templates: Vec<StepTemplate>,
    blocks: Vec<BasicBlock>,
    /// Per-op: one-past-the-end op index of the containing block.
    boundary: Vec<u32>,
    /// Per-op: containing block id.
    block_of: Vec<u32>,
    /// Base address of op index 0.
    text_base: u32,
    /// Fingerprint tying recorded traces to this lifted program.
    token: u64,
}

impl CompiledProgram {
    /// Lifts a decoded program into block descriptors and step templates.
    ///
    /// # Errors
    ///
    /// Propagates decode-table lookup failures from the instruction set
    /// (impossible for well-formed loaded binaries).
    pub fn compile<S: InstrSet>(set: &S) -> Result<CompiledProgram, SimError> {
        let op_size = set.op_size();
        let text_base = set.text_base();
        let n = set.op_count();
        let entry_index = index_of(set.entry_pc(), text_base, op_size, n)?;

        let mut templates = Vec::with_capacity(n);
        let mut controls = Vec::with_capacity(n);
        let mut token = FNV_OFFSET;
        for i in 0..n {
            let pc = text_base.wrapping_add(i as u32 * op_size);
            let op = set.op_at(pc)?;
            let meta = set.describe(op);
            let fetch_word_addr = pc & !3;
            let fetch_word_value = set.fetch_word(fetch_word_addr);
            let mask = |regs: &[Option<Reg>]| -> u16 {
                regs.iter().flatten().fold(0u16, |m, r| m | 1 << r.index())
            };
            templates.push(StepTemplate {
                pc,
                fetch_word_addr,
                fetch_word_value,
                class: meta.class,
                reg_reads: meta.reg_reads,
                reg_writes: meta.reg_writes,
                dests: meta.dests,
                sources: meta.sources,
                dest_mask: mask(&meta.dests),
                source_mask: mask(&meta.sources),
                dest0_mask: mask(&meta.dests[..1]),
                sets_flags: meta.sets_flags,
                reads_flags: meta.reads_flags,
                is_mul: meta.is_mul,
            });
            controls.push(set.control_flow(pc, op));
            token = crate::machine::fnv1a(token, u64::from(fetch_word_value));
        }
        token = crate::machine::fnv1a(token, u64::from(op_size));
        token = crate::machine::fnv1a(token, n as u64);

        // Leaders: the entry, every direct branch target inside the text,
        // and the op after every control-flow op.
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
            leader[entry_index as usize] = true;
        }
        for (i, control) in controls.iter().enumerate() {
            match control {
                OpControl::Sequential => {}
                OpControl::Branch { target } => {
                    if i + 1 < n {
                        leader[i + 1] = true;
                    }
                    if let Ok(t) = index_of(*target, text_base, op_size, n) {
                        leader[t as usize] = true;
                    }
                }
                OpControl::Indirect | OpControl::Trap => {
                    if i + 1 < n {
                        leader[i + 1] = true;
                    }
                }
            }
        }

        // Partition into blocks and pre-resolve successor links.
        let mut blocks = Vec::new();
        let mut block_of = vec![0u32; n];
        let mut boundary = vec![0u32; n];
        let mut start = 0usize;
        for end in 1..=n {
            if end < n && !leader[end] {
                continue;
            }
            let id = blocks.len() as u32;
            let terminator = &controls[end - 1];
            let fall_through = match terminator {
                OpControl::Sequential | OpControl::Branch { .. } | OpControl::Trap if end < n => {
                    // Block ids are assigned in text order, so the
                    // fall-through block is always the next one.
                    Some(id + 1)
                }
                _ => None,
            };
            let branch_to = match terminator {
                OpControl::Branch { target } => index_of(*target, text_base, op_size, n)
                    .ok()
                    .map(|t| (*target, t, 0u32)), // block id patched below
                _ => None,
            };
            blocks.push(BasicBlock {
                first: start as u32,
                len: (end - start) as u32,
                fall_through,
                branch_to,
            });
            for slot in &mut block_of[start..end] {
                *slot = id;
            }
            for slot in &mut boundary[start..end] {
                *slot = end as u32;
            }
            start = end;
        }
        // Patch branch successors now that every op knows its block.
        let resolved: Vec<Option<(u32, u32, u32)>> = blocks
            .iter()
            .map(|b| b.branch_to.map(|(pc, t, _)| (pc, t, block_of[t as usize])))
            .collect();
        for (block, link) in blocks.iter_mut().zip(resolved) {
            block.branch_to = link;
        }

        Ok(CompiledProgram {
            op_size,
            entry_index,
            templates,
            blocks,
            boundary,
            block_of,
            text_base,
            token,
        })
    }

    /// The lifted basic blocks, in text order.
    #[must_use]
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The per-op static templates (template index == op index).
    #[must_use]
    pub fn templates(&self) -> &[StepTemplate] {
        &self.templates
    }

    /// Number of static ops.
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.templates.len()
    }

    /// Block id containing op `index`.
    #[must_use]
    pub fn block_of(&self, index: usize) -> u32 {
        self.block_of[index]
    }

    /// Checks that this lifted program belongs to `set` (same geometry and
    /// encoded text).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadInstruction`] on mismatch.
    pub fn check_matches<S: InstrSet>(&self, set: &S) -> Result<(), SimError> {
        if self.op_size != set.op_size()
            || self.templates.len() != set.op_count()
            || self.text_base != set.text_base()
        {
            return Err(SimError::BadInstruction {
                what: "compiled program does not match this instruction set".to_string(),
            });
        }
        Ok(())
    }

    /// Op index of the program entry point.
    #[must_use]
    pub fn entry_index(&self) -> u32 {
        self.entry_index
    }

    pub(crate) fn token(&self) -> u64 {
        self.token
    }

    pub(crate) fn index_of_pc(&self, pc: u32) -> Result<u32, SimError> {
        index_of(pc, self.text_base, self.op_size, self.templates.len())
    }

    pub(crate) fn boundary_of(&self, index: u32) -> u32 {
        self.boundary[index as usize]
    }

    /// Pre-resolved direct branch successor of the block containing op
    /// `index` (valid only when `index` is the block terminator, which is
    /// the only op that can redirect).
    pub(crate) fn branch_link(&self, index: u32) -> Option<(u32, u32, u32)> {
        self.blocks[self.block_of[index as usize] as usize].branch_to
    }
}

fn index_of(pc: u32, text_base: u32, op_size: u32, n: usize) -> Result<u32, SimError> {
    if pc < text_base || !pc.is_multiple_of(op_size) {
        return Err(SimError::BadPc { pc });
    }
    let index = (pc - text_base) / op_size;
    if index as usize >= n {
        return Err(SimError::BadPc { pc });
    }
    Ok(index)
}

/// One contiguous run of retired ops: `len` ops starting at op `start`.
/// Entries end at block boundaries or at a dynamic PC redirect, so each is
/// a (possibly partial, for indirect entry points) basic-block execution.
#[derive(Clone, Copy, Debug)]
pub struct TraceEntry {
    /// First op index of the run.
    pub start: u32,
    /// Retired op count.
    pub len: u32,
}

/// A recorded functional execution: the compact block-ID + dynamic-outcome
/// trace phase 2 produces. Replay it over any number of configurations
/// with [`RecordedTrace::price_all`] without re-executing the program.
#[derive(Clone, Debug)]
pub struct RecordedTrace {
    /// Functional result of the recorded execution.
    pub output: RunOutput,
    pub(crate) entries: Vec<TraceEntry>,
    /// One dynamic-outcome byte per retired op, in retire order.
    pub(crate) flags: Vec<u8>,
    /// `(addr, data)` per memory access, in retire order.
    pub(crate) mem: Vec<(u32, u32)>,
    pub(crate) token: u64,
    /// Pairing-independent aggregates, folded once at record time.
    pub(crate) statics: StaticCounters,
}

/// Instruction-mix aggregates that depend only on the retired-op stream,
/// not on issue pairing or any machine configuration: computed in a single
/// template+flag walk when the trace is recorded, so the replay pipeline
/// never touches them per op and every priced lane just copies them into
/// its [`SimResult`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct StaticCounters {
    pub(crate) retired: u64,
    pub(crate) executed: u64,
    pub(crate) class_counts: [u64; 4],
    pub(crate) branch: BranchStats,
    pub(crate) reg_reads: u64,
    pub(crate) reg_writes: u64,
    pub(crate) flag_writes: u64,
    pub(crate) mul_ops: u64,
}

/// Index of an instruction class in [`SimResult::class_counts`].
fn class_index(class: InstrClass) -> usize {
    match class {
        InstrClass::Operate => 0,
        InstrClass::Memory => 1,
        InstrClass::Branch => 2,
        InstrClass::Trap => 3,
    }
}

impl RecordedTrace {
    /// Appends one retired op's dynamic outcome (called by the recording
    /// loop in [`crate::Machine::run_recorded`]).
    pub(crate) fn record_step(&mut self, out: &crate::StepOutcome) {
        let mut f = 0u8;
        if out.executed {
            f |= F_EXECUTED;
        }
        if let Some(mem) = &out.mem {
            f |= F_MEM;
            if mem.is_load {
                f |= F_MEM_LOAD;
            }
            self.mem.push((mem.addr, mem.data));
        }
        if let Some(branch) = &out.branch {
            f |= F_BRANCH;
            if branch.taken {
                f |= F_TAKEN;
            }
            if branch.backward {
                f |= F_BACKWARD;
            }
        }
        self.flags.push(f);
    }

    /// Folds the pairing-independent aggregates (instruction mix, register
    /// traffic, branch outcomes) in one walk over the templates and flag
    /// bytes — called once by [`crate::Machine::run_recorded`] after the
    /// functional pass, so pricing never recomputes them per op.
    pub(crate) fn compute_statics(&mut self, templates: &[StepTemplate]) {
        let mut s = StaticCounters {
            retired: self.flags.len() as u64,
            ..StaticCounters::default()
        };
        let mut flag_idx = 0usize;
        for e in &self.entries {
            for k in 0..e.len {
                let t = &templates[(e.start + k) as usize];
                let f = self.flags[flag_idx];
                flag_idx += 1;
                let executed = f & F_EXECUTED != 0;
                s.class_counts[class_index(t.class)] += 1;
                s.executed += u64::from(executed);
                s.reg_reads += u64::from(t.reg_reads);
                s.reg_writes += u64::from(t.reg_writes);
                s.flag_writes += u64::from(t.sets_flags && executed);
                s.mul_ops += u64::from(t.is_mul && executed);
                if f & F_BRANCH != 0 {
                    let taken = f & F_TAKEN != 0;
                    s.branch.branches += 1;
                    s.branch.taken += u64::from(taken);
                    // BTFNT: backward predicted taken, forward not-taken.
                    s.branch.mispredicted += u64::from(taken != (f & F_BACKWARD != 0));
                }
            }
        }
        self.statics = s;
    }

    /// Number of block-run entries in the trace.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// The block-run entries.
    #[must_use]
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Per-static-op execution counts, by difference array over the trace
    /// entries — O(entries + ops) instead of one increment per retired
    /// instruction (the profiler's hot loop).
    #[must_use]
    pub fn exec_counts(&self, op_count: usize) -> Vec<u64> {
        let mut diff = vec![0i64; op_count + 1];
        for e in &self.entries {
            diff[e.start as usize] += 1;
            diff[(e.start + e.len) as usize] -= 1;
        }
        let mut counts = Vec::with_capacity(op_count);
        let mut acc = 0i64;
        for d in &diff[..op_count] {
            acc += d;
            counts.push(acc as u64);
        }
        counts
    }

    /// Per retired branch, in retire order: `(op index, taken, backward)`,
    /// read straight from the recorded outcome bytes. `backward` is the
    /// static direction the BTFNT predictor keys on.
    pub fn branches(&self) -> impl Iterator<Item = (u32, bool, bool)> + '_ {
        self.entries
            .iter()
            .flat_map(|e| e.start..e.start + e.len)
            .zip(&self.flags)
            .filter(|&(_, &f)| f & F_BRANCH != 0)
            .map(|(index, &f)| (index, f & F_TAKEN != 0, f & F_BACKWARD != 0))
    }

    /// Replays the SA-1100 pipeline once over the trace and prices **all**
    /// configurations. Returns one [`SimResult`] per configuration, in
    /// order. A single configuration runs the fused drain (the same pass
    /// as [`RecordedTrace::price`]); more than one run the batch drain,
    /// which amortizes one pipeline pass over every lane. Both drains give
    /// bit-identical results.
    ///
    /// # Errors
    ///
    /// Returns an error when a configuration's cache geometry is
    /// degenerate, or when `compiled` is not the program this trace was
    /// recorded from.
    pub fn price_all(
        &self,
        compiled: &CompiledProgram,
        cfgs: &[Sa1100Config],
    ) -> Result<Vec<SimResult>, SimError> {
        match cfgs {
            [cfg] => Ok(vec![self.price(compiled, cfg)?]),
            _ => self.price_batch(compiled, cfgs),
        }
    }

    /// Single-configuration replay.
    ///
    /// # Errors
    ///
    /// As [`RecordedTrace::price_all`].
    pub fn price(
        &self,
        compiled: &CompiledProgram,
        cfg: &Sa1100Config,
    ) -> Result<SimResult, SimError> {
        self.price_with(compiled, cfg, &mut ())
    }

    /// Single-configuration replay reporting every cache access to `obs`,
    /// in the order the timing model performs them — the fused drain: one
    /// pipeline pass applying each event to the lane inline.
    ///
    /// # Errors
    ///
    /// As [`RecordedTrace::price_all`].
    pub fn price_with<O: CacheEventObserver>(
        &self,
        compiled: &CompiledProgram,
        cfg: &Sa1100Config,
        obs: &mut O,
    ) -> Result<SimResult, SimError> {
        self.check_compiled(compiled)?;
        let lane = Lane::new(cfg)?;
        let mut replay = Replay::new(FusedSink { lane, obs });
        let mut cursor = OpCursor::new(self, compiled.templates());
        while let Some(op) = cursor.next_op() {
            replay.observe(op);
        }
        replay.flush_pending();
        Ok(replay.sink.lane.into_result(&replay.shared, &self.statics))
    }

    /// Checks that `compiled` is the program this trace was recorded from.
    fn check_compiled(&self, compiled: &CompiledProgram) -> Result<(), SimError> {
        if self.token != compiled.token() {
            return Err(SimError::BadInstruction {
                what: "recorded trace does not belong to this compiled program".to_string(),
            });
        }
        Ok(())
    }

    /// The batch drain behind [`RecordedTrace::price_all`] for more than
    /// one configuration: the pipeline pass fills a bounded buffer of
    /// cache/penalty events (so memory stays constant no matter how long
    /// the trace is), and each full buffer is drained by every lane in a
    /// tight, branch-light loop. One lane's cache state stays hot in L1 for
    /// a whole chunk instead of being evicted by its neighbours on every
    /// op, which is what makes this faster than one fused pass per
    /// configuration. Event order and cycle reconstruction are identical to
    /// the fused drain, so results stay bit-identical regardless of lane
    /// count.
    fn price_batch(
        &self,
        compiled: &CompiledProgram,
        cfgs: &[Sa1100Config],
    ) -> Result<Vec<SimResult>, SimError> {
        /// Events per chunk: small enough (16 B each) to stay
        /// cache-resident, large enough to amortize the loop switches.
        const CHUNK_EVENTS: usize = 1 << 15;

        self.check_compiled(compiled)?;
        let mut lanes = cfgs.iter().map(Lane::new).collect::<Result<Vec<_>, _>>()?;
        let mut replay = Replay::new(BufferSink {
            // One op can emit at most 1 I-cache + 1 D-cache event, so a
            // small slack past the target avoids reallocation.
            buf: Vec::with_capacity(CHUNK_EVENTS + 8),
            pending: [0; 3],
            last_word: [0; 2],
        });
        let mut cursor = OpCursor::new(self, compiled.templates());
        let mut done = false;
        while !done {
            while replay.sink.buf.len() < CHUNK_EVENTS {
                match cursor.next_op() {
                    Some(op) => replay.observe(op),
                    None => {
                        replay.flush_pending();
                        done = true;
                        break;
                    }
                }
            }
            for lane in &mut lanes {
                lane.apply(&replay.sink.buf);
            }
            replay.sink.buf.clear();
        }
        // Penalty events after the final cache access never rode a packed
        // delta; fold them into every lane's clock now.
        for lane in &mut lanes {
            lane.apply_trailing(&replay.sink.pending);
        }
        let shared = replay.shared;
        Ok(lanes
            .into_iter()
            .map(|lane| lane.into_result(&shared, &self.statics))
            .collect())
    }
}

/// A cursor decoding the compact trace back into [`RetiredOp`]s, one at a
/// time — the shared driver of both drains.
struct OpCursor<'t> {
    templates: &'t [StepTemplate],
    entries: &'t [TraceEntry],
    flags: &'t [u8],
    mem: &'t [(u32, u32)],
    entry_idx: usize,
    pos: u32,
    flag_idx: usize,
    mem_idx: usize,
}

impl<'t> OpCursor<'t> {
    fn new(trace: &'t RecordedTrace, templates: &'t [StepTemplate]) -> OpCursor<'t> {
        OpCursor {
            templates,
            entries: &trace.entries,
            flags: &trace.flags,
            mem: &trace.mem,
            entry_idx: 0,
            pos: 0,
            flag_idx: 0,
            mem_idx: 0,
        }
    }

    fn next_op(&mut self) -> Option<RetiredOp<'t>> {
        loop {
            let entry = self.entries.get(self.entry_idx)?;
            if self.pos == entry.len {
                self.entry_idx += 1;
                self.pos = 0;
                continue;
            }
            let template = &self.templates[(entry.start + self.pos) as usize];
            self.pos += 1;
            let f = self.flags[self.flag_idx];
            self.flag_idx += 1;
            let executed = f & F_EXECUTED != 0;
            let mem = if f & F_MEM != 0 {
                let (addr, data) = self.mem[self.mem_idx];
                self.mem_idx += 1;
                Some((addr, data, f & F_MEM_LOAD != 0))
            } else {
                None
            };
            let branch = if f & F_BRANCH != 0 {
                Some((f & F_TAKEN != 0, f & F_BACKWARD != 0))
            } else {
                None
            };
            return Some(RetiredOp {
                template,
                is_mul: template.is_mul && executed,
                sets_flags: template.sets_flags && executed,
                mem,
                branch,
            });
        }
    }
}

/// One retired op reconstructed from a template plus its recorded dynamic
/// outcome.
#[derive(Clone, Copy)]
struct RetiredOp<'a> {
    template: &'a StepTemplate,
    /// Executed-and-multiply: conditionally-skipped ops pay no penalty.
    is_mul: bool,
    sets_flags: bool,
    /// `(addr, data, is_load)`.
    mem: Option<(u32, u32, bool)>,
    /// `(taken, backward)`.
    branch: Option<(bool, bool)>,
}

/// Per-configuration timing state: the structure-of-arrays slice of the
/// replay. Everything configuration-dependent lives here; everything else
/// is shared across lanes in [`SharedCounters`].
struct Lane {
    /// `[icache, dcache]`, selected by the event's cache-select bit —
    /// array indexing instead of a per-event branch over cache kind.
    caches: [Cache; 2],
    /// Cycles lost to misses so far per cache (== misses × penalty).
    stalls: [u64; 2],
    /// Miss penalty per cache.
    miss_penalty: [u64; 2],
    /// Cycles from per-event penalties so far: every executed multiply
    /// adds `mul_extra`, every correctly-predicted taken branch adds
    /// `taken_penalty`, every mispredict adds `mispredict_penalty` —
    /// accumulated incrementally at the event instead of recomputed as
    /// `count × penalty` products on every cache access.
    event_cycles: u64,
    /// `[mul_extra, taken_penalty, mispredict_penalty]`, indexed in the
    /// order of the packed delta fields.
    event_penalty: [u64; 3],
}

impl Lane {
    /// A fresh lane for one configuration, validating both cache
    /// geometries.
    fn new(cfg: &Sa1100Config) -> Result<Lane, SimError> {
        validate_config(&cfg.icache)?;
        validate_config(&cfg.dcache)?;
        Ok(Lane {
            caches: [
                Cache::new(cfg.icache.clone()),
                Cache::new(cfg.dcache.clone()),
            ],
            stalls: [0, 0],
            miss_penalty: [cfg.icache_miss_penalty, cfg.dcache_miss_penalty],
            event_cycles: 0,
            event_penalty: [
                cfg.mul_extra_cycles,
                cfg.taken_branch_penalty,
                cfg.mispredict_penalty,
            ],
        })
    }

    /// The cycle counter a dedicated timing model for this lane's
    /// configuration would show right now, given the shared pipeline's
    /// `base_cycles` at this point: every increment the model ever applies
    /// is either configuration-independent (issue groups, load-use stalls —
    /// `base_cycles`), an event penalty folded into `event_cycles`, or a
    /// lane-local cache stall.
    #[inline]
    fn cycle_at(&self, base: u64) -> u64 {
        base + self.event_cycles + self.stalls[0] + self.stalls[1]
    }

    /// Drains one buffered event chunk — the per-lane hot loop of the
    /// batch engine. Every event is a cache access (penalty outcomes ride
    /// along as packed deltas, applied *before* the access — exactly when
    /// [`FusedSink`] would have bumped `event_cycles`), so the loop body
    /// is completely branch-free up to the cache's own hit/miss handling:
    /// no data-dependent dispatch to mispredict on.
    fn apply(&mut self, events: &[ReplayEvent]) {
        for ev in events {
            let p = ev.packed;
            // Penalty deltas are zero on the vast majority of events
            // (only branches and multiplies produce them), so one
            // well-predicted branch beats three unconditional multiplies.
            if p >> D_MUL != 0 {
                self.event_cycles += ((p >> D_MUL) & D_MAX) * self.event_penalty[0]
                    + ((p >> D_TAKEN) & D_MAX) * self.event_penalty[1]
                    + ((p >> D_MISPREDICT) & D_MAX) * self.event_penalty[2];
            }
            let which = ((p >> K_DCACHE) & 1) as usize;
            let write = (p >> K_WRITE) & 1 != 0;
            let cycle = (p & BASE_MASK) + self.event_cycles + self.stalls[0] + self.stalls[1];
            let hit =
                self.caches[which].access_toggles(ev.addr, write, u64::from(ev.toggles), cycle);
            self.stalls[which] += self.miss_penalty[which] * u64::from(!hit);
        }
    }

    /// Folds penalty deltas that trail the last cache event (accumulated
    /// in the sink but never attached to an access) into the lane clock.
    fn apply_trailing(&mut self, pending: &[u64; 3]) {
        self.event_cycles += pending[0] * self.event_penalty[0]
            + pending[1] * self.event_penalty[1]
            + pending[2] * self.event_penalty[2];
    }

    /// Finalizes the caches and assembles this lane's [`SimResult`] from
    /// the shared pairing counters and the trace's static aggregates.
    fn into_result(self, shared: &SharedCounters, statics: &StaticCounters) -> SimResult {
        let cycles = self.cycle_at(shared.base_cycles);
        let [mut icache, mut dcache] = self.caches;
        icache.finish();
        dcache.finish();
        SimResult {
            cycles,
            retired: statics.retired,
            executed: statics.executed,
            issue_groups: shared.issue_groups,
            dual_issues: shared.dual_issues,
            icache: icache.stats().clone(),
            dcache: dcache.stats().clone(),
            class_counts: statics.class_counts,
            branch: statics.branch,
            reg_reads: statics.reg_reads,
            reg_writes: statics.reg_writes,
            flag_writes: statics.flag_writes,
            mul_ops: statics.mul_ops,
            load_use_stalls: shared.load_use_stalls,
            icache_stall_cycles: self.stalls[0],
            dcache_stall_cycles: self.stalls[1],
        }
    }
}

/// One lane-facing event emitted by the shared pipeline pass, packed into
/// 16 bytes: the kind tag lives in the top byte of `tagged_base`, the
/// snapshot of [`SharedCounters::base_cycles`] at the access in the low 56
/// bits (a run would need two years of simulated 2.4 GHz time to
/// overflow). The snapshot lets a lane reconstruct the exact interpreted
/// cycle as `base + event_cycles + stalls` without seeing the pipeline at
/// all.
#[derive(Clone, Copy)]
struct ReplayEvent {
    /// Accessed address.
    addr: u32,
    /// Output-port toggle count for this access. The toggle sequence is a
    /// pure function of the access stream (XOR chain over the data words),
    /// so the shared pipeline pass computes each delta once and every lane
    /// just adds it — no per-lane popcount.
    toggles: u32,
    /// Bit-packed `base_cycles` snapshot (low 48 bits — a run would need
    /// a month of simulated 100 GHz time to overflow), cache-select and
    /// write bits, and the three penalty-delta nibbles (see the `K_*` /
    /// `D_*` constants).
    packed: u64,
}

/// Mask of the `base_cycles` snapshot inside [`ReplayEvent::packed`].
const BASE_MASK: u64 = (1 << 48) - 1;
/// Cache-select bit: 0 = I-cache, 1 = D-cache.
const K_DCACHE: u32 = 48;
/// Write bit (D-cache stores).
const K_WRITE: u32 = 49;
/// Executed multiplies since the previous cache event (4-bit delta).
const D_MUL: u32 = 50;
/// Correctly-predicted taken branches since the previous cache event.
const D_TAKEN: u32 = 54;
/// Mispredicted branches since the previous cache event.
const D_MISPREDICT: u32 = 58;
/// Maximum value of one penalty-delta nibble. The pipeline can emit at
/// most a handful of penalty events between consecutive cache accesses
/// (every op is fetched, and an issue group holds at most one multiply
/// and one branch), so 15 is unreachable in practice; the debug assert in
/// [`BufferSink::push`] guards the invariant.
const D_MAX: u64 = 0xf;

/// Where the shared pipeline pass delivers lane-facing events: either
/// straight into a single lane ([`FusedSink`], the fused drain), or into a
/// bounded buffer ([`BufferSink`], the batch drain).
trait EventSink {
    fn icache(&mut self, addr: u32, data: u32, base: u64);
    fn dcache(&mut self, addr: u32, write: bool, data: u32, base: u64);
    fn mul_event(&mut self);
    fn taken_event(&mut self);
    fn mispredict_event(&mut self);
}

/// The fused sink: applies each event to its one lane inline and reports
/// the lane's cache outcomes to the observer.
struct FusedSink<'o, O: CacheEventObserver> {
    lane: Lane,
    obs: &'o mut O,
}

impl<O: CacheEventObserver> EventSink for FusedSink<'_, O> {
    fn icache(&mut self, addr: u32, data: u32, base: u64) {
        let lane = &mut self.lane;
        let hit = lane.caches[0].access(addr, false, data, lane.cycle_at(base));
        if !hit {
            lane.stalls[0] += lane.miss_penalty[0];
        }
        self.obs.icache_access(addr, hit);
    }

    fn dcache(&mut self, addr: u32, write: bool, data: u32, base: u64) {
        let lane = &mut self.lane;
        let hit = lane.caches[1].access(addr, write, data, lane.cycle_at(base));
        if !hit {
            lane.stalls[1] += lane.miss_penalty[1];
        }
        self.obs.dcache_access(addr, write, hit);
    }

    fn mul_event(&mut self) {
        self.lane.event_cycles += self.lane.event_penalty[0];
    }

    fn taken_event(&mut self) {
        self.lane.event_cycles += self.lane.event_penalty[1];
    }

    fn mispredict_event(&mut self) {
        self.lane.event_cycles += self.lane.event_penalty[2];
    }
}

/// The batch sink: records each cache access (with its `base_cycles`
/// snapshot) for lanes to drain later in tight per-lane loops. Penalty
/// outcomes are not events of their own — they accumulate in `pending`
/// and ride the next cache event as packed deltas, so the lane loop sees
/// a homogeneous, branch-free stream.
struct BufferSink {
    buf: Vec<ReplayEvent>,
    /// Penalty events since the last cache event:
    /// `[muls, taken, mispredicts]`.
    pending: [u64; 3],
    /// Last word seen on each cache's output port (`[icache, dcache]`) —
    /// the pipeline-side mirror of `Cache::last_output`, used to compute
    /// each access's toggle count once instead of per lane.
    last_word: [u32; 2],
}

impl BufferSink {
    fn push(&mut self, addr: u32, data: u32, base: u64, dcache: bool, write: bool) {
        debug_assert!(
            self.pending.iter().all(|&p| p <= D_MAX) && base <= BASE_MASK,
            "replay event field overflow"
        );
        let packed = base
            | u64::from(dcache) << K_DCACHE
            | u64::from(write) << K_WRITE
            | self.pending[0] << D_MUL
            | self.pending[1] << D_TAKEN
            | self.pending[2] << D_MISPREDICT;
        self.pending = [0; 3];
        let toggles = (self.last_word[usize::from(dcache)] ^ data).count_ones();
        self.last_word[usize::from(dcache)] = data;
        self.buf.push(ReplayEvent {
            addr,
            toggles,
            packed,
        });
    }
}

impl EventSink for BufferSink {
    fn icache(&mut self, addr: u32, data: u32, base: u64) {
        self.push(addr, data, base, false, false);
    }

    fn dcache(&mut self, addr: u32, write: bool, data: u32, base: u64) {
        self.push(addr, data, base, true, write);
    }

    fn mul_event(&mut self) {
        self.pending[0] += 1;
    }

    fn taken_event(&mut self) {
        self.pending[1] += 1;
    }

    fn mispredict_event(&mut self) {
        self.pending[2] += 1;
    }
}

/// Configuration-independent **pairing** counters — the only aggregates
/// that genuinely need the fetch/pair/issue state machine. Everything
/// else a [`SimResult`] reports is pairing-independent and pre-folded
/// into the trace's [`StaticCounters`] at record time.
#[derive(Default)]
struct SharedCounters {
    /// Issue-group cycles plus load-use stall cycles.
    base_cycles: u64,
    issue_groups: u64,
    dual_issues: u64,
    load_use_stalls: u64,
}

/// The replay pipeline: the SA-1100 fetch / pair / issue / account state
/// machine, run **once** for all lanes, delivering lane-facing events
/// through an [`EventSink`]. The order of cache accesses within a
/// dual-issue group and the deferred fetch-dedup reset after taken
/// branches are part of the model: the interpreted reference in
/// `fits-sim-ref` follows the same steps per retired instruction, and the
/// differential tests hold the two bit-identical.
struct Replay<'a, S: EventSink> {
    sink: S,
    shared: SharedCounters,
    pending: Option<RetiredOp<'a>>,
    last_fetch_word: Option<u32>,
    /// `dest0_mask` of the previous group's load (0 when none) — the
    /// load-use interlock operates on register bitmasks.
    last_group_load_dest: u16,
    load_dest_this_group: u16,
}

impl<'a, S: EventSink> Replay<'a, S> {
    fn new(sink: S) -> Replay<'a, S> {
        Replay {
            sink,
            shared: SharedCounters::default(),
            pending: None,
            last_fetch_word: None,
            last_group_load_dest: 0,
            load_dest_this_group: 0,
        }
    }

    fn fetch(&mut self, template: &StepTemplate) {
        if self.last_fetch_word == Some(template.fetch_word_addr) {
            return; // second half of the same 32-bit fetch (16-bit ISAs)
        }
        self.last_fetch_word = Some(template.fetch_word_addr);
        self.sink.icache(
            template.fetch_word_addr,
            template.fetch_word_value,
            self.shared.base_cycles,
        );
    }

    fn can_pair(a: &RetiredOp<'_>, b: &RetiredOp<'_>) -> bool {
        if a.branch.is_some() || a.template.class == InstrClass::Trap {
            return false;
        }
        if b.template.fetch_word_addr != a.template.fetch_word_addr
            && b.template.fetch_word_addr != a.template.fetch_word_addr + 4
        {
            return false;
        }
        if a.mem.is_some() && b.mem.is_some() {
            return false;
        }
        if a.is_mul && b.is_mul {
            return false;
        }
        // RAW/WAW hazards via the precomputed register bitmasks — the
        // same predicate as iterating `dests` × `sources`/`dests`.
        if a.template.dest_mask & (b.template.source_mask | b.template.dest_mask) != 0 {
            return false;
        }
        if a.sets_flags && b.template.reads_flags {
            return false;
        }
        true
    }

    fn issue_group(&mut self, first: RetiredOp<'a>, second: Option<RetiredOp<'a>>) {
        self.shared.base_cycles += 1;
        self.shared.issue_groups += 1;
        if second.is_some() {
            self.shared.dual_issues += 1;
        }
        self.load_dest_this_group = 0;

        let dest = self.last_group_load_dest;
        if dest != 0 {
            let uses = |o: &RetiredOp<'_>| o.template.source_mask & dest != 0;
            if uses(&first) || second.as_ref().is_some_and(uses) {
                self.shared.base_cycles += 1;
                self.shared.load_use_stalls += 1;
            }
        }

        self.account(&first);
        if let Some(second) = &second {
            self.account(second);
        }
        self.last_group_load_dest = std::mem::take(&mut self.load_dest_this_group);
    }

    /// Delivers an op's lane-facing events. The mix/branch/register
    /// aggregates a per-step model would fold here are pairing-independent
    /// and already pre-computed in the trace's [`StaticCounters`], so the
    /// per-op pipeline work is only what the lanes actually need to see.
    fn account(&mut self, op: &RetiredOp<'_>) {
        if op.is_mul {
            self.sink.mul_event();
        }
        if let Some((addr, data, is_load)) = op.mem {
            self.sink
                .dcache(addr, !is_load, data, self.shared.base_cycles);
            if is_load {
                self.load_dest_this_group = op.template.dest0_mask;
            }
        }
        if let Some((taken, backward)) = op.branch {
            let predicted_taken = backward; // BTFNT
            if taken != predicted_taken {
                self.sink.mispredict_event();
            } else if taken {
                self.sink.taken_event();
            }
            if taken {
                // The next fetch starts at the target word.
                self.last_fetch_word = None;
            }
        }
    }

    fn observe(&mut self, op: RetiredOp<'a>) {
        self.fetch(op.template);
        match self.pending.take() {
            None => self.pending = Some(op),
            Some(prev) => {
                if Self::can_pair(&prev, &op) {
                    self.issue_group(prev, Some(op));
                } else {
                    self.issue_group(prev, None);
                    self.pending = Some(op);
                }
            }
        }
    }

    /// Issues the trailing single-op group, if any — the tail of the op
    /// stream that `observe` keeps pending for pairing.
    fn flush_pending(&mut self) {
        if let Some(prev) = self.pending.take() {
            self.issue_group(prev, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ar32Set, Machine};
    use fits_isa::{Cond, DpOp, Instr, Operand2, Program, Reg, TEXT_BASE};

    fn looped_program() -> Program {
        Program {
            text: vec![
                Instr::mov(Reg::R0, Operand2::imm(10).unwrap()),
                Instr::mov(Reg::R1, Operand2::imm(0).unwrap()),
                // loop: r1 += r0; r0 -= 1; bne loop
                Instr::dp(DpOp::Add, Reg::R1, Reg::R1, Operand2::reg(Reg::R0)),
                Instr::Dp {
                    cond: Cond::Al,
                    op: DpOp::Sub,
                    set_flags: true,
                    rd: Reg::R0,
                    rn: Reg::R0,
                    op2: Operand2::imm(1).unwrap(),
                },
                Instr::b(-4).with_cond(Cond::Ne),
                Instr::mov(Reg::R0, Operand2::reg(Reg::R1)),
                Instr::Swi {
                    cond: Cond::Al,
                    imm: 0,
                },
            ],
            ..Program::default()
        }
    }

    #[test]
    fn blocks_split_at_branches_and_targets() {
        let set = Ar32Set::load(&looped_program());
        let compiled = CompiledProgram::compile(&set).unwrap();
        // Leaders: 0 (entry), 2 (branch target), 5 (after branch), 6
        // (after nothing — 5..7 split by nothing else, Swi terminates).
        let firsts: Vec<u32> = compiled.blocks().iter().map(|b| b.first).collect();
        assert_eq!(firsts, vec![0, 2, 5]);
        let loop_block = compiled.blocks()[1];
        assert_eq!(loop_block.len, 3);
        let (target_pc, target_idx, target_block) = loop_block.branch_to.unwrap();
        assert_eq!(target_pc, TEXT_BASE + 8);
        assert_eq!(target_idx, 2);
        assert_eq!(target_block, 1, "loop branch links back to its own block");
        assert_eq!(loop_block.fall_through, Some(2));
    }

    #[test]
    fn recorded_trace_counts_match_run() {
        let set = Ar32Set::load(&looped_program());
        let compiled = CompiledProgram::compile(&set).unwrap();
        let mut m = Machine::new(Ar32Set::load(&looped_program()));
        let trace = m.run_recorded(&compiled).unwrap();
        let reference = Machine::new(Ar32Set::load(&looped_program()))
            .run()
            .unwrap();
        assert_eq!(trace.output, reference);
        assert_eq!(trace.flags.len() as u64, trace.output.steps);
        let counts = trace.exec_counts(compiled.op_count());
        assert_eq!(counts[0], 1);
        assert_eq!(counts[2], 10, "loop body retires once per iteration");
        assert_eq!(counts[4], 10);
        assert_eq!(counts[6], 1);
    }

    #[test]
    fn branches_report_per_site_outcomes() {
        let set = Ar32Set::load(&looped_program());
        let compiled = CompiledProgram::compile(&set).unwrap();
        let trace = Machine::new(set).run_recorded(&compiled).unwrap();
        let mut sites = std::collections::BTreeMap::<u32, (u64, u64)>::new();
        for (index, taken, backward) in trace.branches() {
            assert!(backward, "the loop's only branch points backwards");
            let site = sites.entry(index).or_default();
            if taken {
                site.0 += 1;
            } else {
                site.1 += 1;
            }
        }
        // `bne loop` at op 4: taken on nine iterations, falls through on
        // the tenth.
        assert_eq!(sites.into_iter().collect::<Vec<_>>(), vec![(4, (9, 1))]);
        let sim = trace.price(&compiled, &Sa1100Config::icache_16k()).unwrap();
        assert_eq!(sim.branch.branches, 10);
        assert_eq!(sim.branch.taken, 9);
        assert_eq!(sim.branch.mispredicted, 1);
    }

    #[test]
    fn mismatched_trace_is_rejected() {
        let set = Ar32Set::load(&looped_program());
        let compiled = CompiledProgram::compile(&set).unwrap();
        let trace = Machine::new(set).run_recorded(&compiled).unwrap();
        let other = Ar32Set::load(&Program {
            text: vec![Instr::Swi {
                cond: Cond::Al,
                imm: 0,
            }],
            ..Program::default()
        });
        let other_compiled = CompiledProgram::compile(&other).unwrap();
        assert!(trace
            .price_all(&other_compiled, &[Sa1100Config::icache_16k()])
            .is_err());
    }
}
