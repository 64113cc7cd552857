//! The basic-block compiled replay engine — the crate's SA-1100 timing
//! engine.
//!
//! Timing a run the naive way re-derives everything per retired
//! instruction: decode lookup, per-op metadata, and one full timing-model
//! pass per configuration. This module splits that work into three phases
//! so a geometry × tech sweep pays for the expensive parts exactly once:
//!
//! 1. **Lift** ([`CompiledProgram::compile`]) — lower every op once to
//!    its executable [`LoweredOp`], discover basic blocks from the lowered
//!    text (leaders at the entry, at direct branch targets and after every
//!    control-flow op), precompute one static [`StepTemplate`] per op (PC,
//!    fetch word, class, ports, operands — everything the timing model
//!    needs that does not depend on the dynamic outcome) and pre-resolve
//!    direct successor links.
//! 2. **Record** ([`crate::Machine::run_recorded`]) — one functional
//!    execution, a block run at a time over the lowered ops, emits a
//!    compact trace: `(block-entry index, length)` pairs plus one
//!    dynamic-outcome byte per retired op and a side stream of memory
//!    addresses/data. Each block run copies its ops' pre-computed outcome
//!    bytes at once and patches only the rare exceptions; the
//!    pairing-independent aggregates are folded once per static op at the
//!    end. No timing model runs.
//! 3. **Replay** ([`RecordedTrace::price_all`]) — one pass over the trace
//!    re-runs the SA-1100 issue/hazard pipeline (which is configuration-
//!    independent: pairing, interlocks and prediction depend only on the
//!    program, never on cache geometry or penalty values) and prices the
//!    requested configurations, with per-configuration timing state held
//!    in [`Lane`]s. The cycle at which each cache access lands in a lane is
//!    reconstructed from shared event counters and lane-local stall totals,
//!    so every lane's `Cache` counts exactly the `(addr, data, cycle)`
//!    sequence a dedicated per-configuration model would have produced —
//!    looked up access by access, or, for the fetches of a warm block on
//!    an I-cache that never evicts, counted as hits per peak window.
//!    Configurations no replay can tell apart share one lane
//!    ([`CompiledProgram::replay_classes`]): if no set of an I-cache ever
//!    receives more distinct text lines than it has ways, that cache never
//!    evicts, so every fetch misses exactly on the first touch of its line
//!    whatever the size, associativity or replacement policy. Two such
//!    configurations that agree on the I-cache line size, the D-cache and
//!    all five penalties therefore see the same hit/miss sequence, the
//!    same stalls and the same cycle stream — every [`SimResult`] field,
//!    peak windows included, is identical — and one replay prices both.
//!
//! Every `price*` call runs the same pass: the pipeline fills one bounded
//! [`EventBuffer`], and every lane drains each chunk of it in a tight loop
//! that also reports each access to a [`CacheEventObserver`] (the no-op
//! `()` of [`RecordedTrace::price`] and [`RecordedTrace::price_all`]
//! compiles away).
//!
//! The pipeline walk itself is priced **a block at a time**. Inside one
//! basic block whose ops take their executed outcome, the walk depends on
//! nothing dynamic but a few values at the block's edges, so each block
//! the trace runs whole is pre-run once per pricing call into a
//! [`BlockTemplate`]: its events with base-cycle offsets, fetch addresses
//! and toggles, D-cache access slots and penalty deltas, plus its totals
//! and exit state, from both entry states its first op can leave. A run of
//! the block replays the first op through the per-op path (its fetch, and
//! the re-fetch after a deferred dedup reset, stay single events), then
//! buffers one **block-run record** in place of the template's events:
//! the template's id, the base-cycle snapshot, the penalty deltas pending
//! at entry, the carried load-use stall bit and the index of the block's
//! first memory access ([`Replay::run_block`]). Only a template with a
//! [`Fold`] becomes records: one with fewer than [`FOLD_MIN_FETCHES`]
//! fetches, or any template in a pass where no lane can fold, has its
//! events copied into the buffer once instead, for every lane to drain.
//! The recorder flags runs that skipped an op before their terminator, so
//! finding a run's template is O(1). Runs that start mid-block or skip an
//! op before the terminator take the per-op path, which is also the code
//! the templates are generated from.
//!
//! Each lane expands a record itself, in the template's event order: the
//! entry deltas first, the stall on every event from the template's first
//! issue on, and each D-cache access from the memory stream, its toggles
//! taken by the lane's D-cache (the toggle sequence is an XOR chain over
//! the data words). **Warm rule:** on a lane whose I-cache never evicts
//! ([`CompiledProgram::icache_never_evicts`], decided once per lane), once
//! a template has run every line it fetches is resident, so every later
//! run of it hits on every fetch. With the no-op observer
//! ([`CacheEventObserver::OBSERVES`]), such a warm run does its D-cache
//! accesses in order and then counts its fetches without a lookup
//! ([`Lane::fold_block`]): a fetch's cycle is the lane clock at entry plus
//! its base offset, the template's multiplies before it priced at the
//! lane's penalty, and the stalls of the D misses before it. **Window
//! split:** fetch cycles never decrease, so the fetches are cut at each
//! [`crate::PEAK_WINDOW_CYCLES`] boundary they cross (found by binary
//! search) and each piece adds its count and toggle sum at once. Cold
//! runs, and evicting lanes in a pass where another lane folds, expand the
//! record event by event.
//!
//! The differential tests (`tests/replay_multi.rs`, `tests/prop_replay.rs`
//! and the `fits-obs` suite) hold single- and multi-lane pricing
//! bit-identical, on every counter of [`SimResult`] and every
//! [`CacheEventObserver`] event, to the interpreted per-step reference
//! model kept in the dev-only `fits-sim-ref` crate.

use fits_isa::{InstrClass, Reg};

use crate::cache::{validate_config, PEAK_WINDOW_CYCLES};
use crate::lower::{
    LoweredOp, OpControl, Recorder, F_BACKWARD, F_BRANCH, F_EXECUTED, F_MEM, F_MEM_LOAD, F_TAKEN,
};
use crate::machine::{RunOutput, FNV_OFFSET};
use crate::timing::{BranchStats, CacheEventObserver, Sa1100Config, SimResult};
use crate::{Cache, CacheConfig, InstrSet, SimError};

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
    /// Per-op executable form (index == op index).
    lowered: Vec<LoweredOp>,
    /// Per-op trace byte of an executed instance, contiguous so a block
    /// run's bytes are recorded with one copy.
    exec_bytes: Vec<u8>,
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
    /// Lifts a decoded program into block descriptors, step templates and
    /// the lowered executable form of every op ([`InstrSet::lower`]).
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
        let mut lowered = Vec::with_capacity(n);
        let mut token = FNV_OFFSET;
        for i in 0..n {
            let pc = text_base.wrapping_add(i as u32 * op_size);
            let op = set.op_at(pc)?;
            let meta = set.describe(op);
            lowered.push(set.lower(pc, op));
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
            token = crate::machine::fnv1a(token, u64::from(fetch_word_value));
        }
        token = crate::machine::fnv1a(token, u64::from(op_size));
        token = crate::machine::fnv1a(token, n as u64);
        let controls: Vec<OpControl> = lowered.iter().map(LoweredOp::control).collect();
        let exec_bytes = lowered.iter().map(LoweredOp::exec_byte).collect();

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
            lowered,
            exec_bytes,
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
    /// encoded text) — the machine runs the lifted ops, so a program lifted
    /// from another binary must not run on this one's data.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadInstruction`] on mismatch.
    pub fn check_matches<S: InstrSet>(&self, set: &S) -> Result<(), SimError> {
        if self.op_size != set.op_size()
            || self.templates.len() != set.op_count()
            || self.text_base != set.text_base()
            || self
                .templates
                .iter()
                .any(|t| set.fetch_word(t.fetch_word_addr) != t.fetch_word_value)
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

    /// Maps each configuration to the one whose replay prices it:
    /// `classes[i]` is the index of the first configuration in `cfgs` that
    /// no replay of this program can tell apart from `cfgs[i]`, so
    /// `classes[i] == i` exactly for the configurations
    /// [`RecordedTrace::price_all`] replays. Two configurations are
    /// grouped when both I-caches never evict on this program (no set
    /// receives more distinct text lines than it has ways) and they agree
    /// on the I-cache line size, the D-cache and all five penalties; size,
    /// associativity and replacement policy may differ. Costs O(static
    /// ops) per configuration and needs no trace.
    ///
    /// # Errors
    ///
    /// Every configuration's cache geometries are validated first, so a
    /// degenerate geometry errors even where it would have been grouped.
    pub fn replay_classes(&self, cfgs: &[Sa1100Config]) -> Result<Vec<usize>, SimError> {
        for cfg in cfgs {
            validate_config(&cfg.icache)?;
            validate_config(&cfg.dcache)?;
        }
        let quiet: Vec<bool> = cfgs
            .iter()
            .map(|cfg| self.icache_never_evicts(&cfg.icache))
            .collect();
        let same_machine = |a: &Sa1100Config, b: &Sa1100Config| {
            a.icache.line_bytes == b.icache.line_bytes
                && a.dcache == b.dcache
                && a.icache_miss_penalty == b.icache_miss_penalty
                && a.dcache_miss_penalty == b.dcache_miss_penalty
                && a.mul_extra_cycles == b.mul_extra_cycles
                && a.taken_branch_penalty == b.taken_branch_penalty
                && a.mispredict_penalty == b.mispredict_penalty
        };
        // Grouping is an equivalence over the quiet configurations, so the
        // first earlier match is its class's own representative.
        Ok((0..cfgs.len())
            .map(|i| {
                (0..i)
                    .find(|&j| quiet[i] && quiet[j] && same_machine(&cfgs[i], &cfgs[j]))
                    .unwrap_or(i)
            })
            .collect())
    }

    /// Whether an I-cache of geometry `icache` (validated) never evicts
    /// while running this program: no set receives more distinct text
    /// lines than it has ways, so every fill finds a free way and the
    /// replacement policy never runs.
    fn icache_never_evicts(&self, icache: &CacheConfig) -> bool {
        let sets = icache.sets();
        let shift = icache.line_bytes.trailing_zeros();
        let mut lines_in_set = vec![0u32; sets as usize];
        let mut last_line = None;
        for t in &self.templates {
            // Templates run in address order, so a line's repeats are
            // adjacent; were they not, a line counted twice would only
            // make the answer more conservative.
            let line = t.fetch_word_addr >> shift;
            if last_line != Some(line) {
                last_line = Some(line);
                lines_in_set[(line & (sets - 1)) as usize] += 1;
            }
        }
        lines_in_set.iter().all(|&n| n <= icache.ways)
    }

    pub(crate) fn token(&self) -> u64 {
        self.token
    }

    pub(crate) fn lowered(&self) -> &[LoweredOp] {
        &self.lowered
    }

    pub(crate) fn op_size(&self) -> u32 {
        self.op_size
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
    /// Whether an op before the run's last one failed its condition (the
    /// last op's outcome is its byte in the trace).
    pub body_skipped: bool,
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
    /// Per-static-op retire counts, built once at record time.
    pub(crate) counts: Vec<u64>,
}

/// Instruction-mix aggregates that depend only on the retired-op stream,
/// not on issue pairing or any machine configuration: folded once per
/// static op when the trace is recorded ([`TraceRecorder::finish`]), so
/// the replay pipeline never touches them per op and every priced lane
/// just copies them into its [`SimResult`].
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

    /// Per-static-op execution counts (index == op index), built once by
    /// difference array over the trace entries when the trace was
    /// recorded — no walk of the trace here.
    #[must_use]
    pub fn exec_counts(&self) -> &[u64] {
        &self.counts
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
    /// order. Each class of [`CompiledProgram::replay_classes`] is replayed
    /// as one lane of a single pipeline pass and its result copied to every
    /// member; an empty slice runs no pass at all. Results are
    /// bit-identical to pricing each configuration alone.
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
        self.check_compiled(compiled)?;
        let classes = compiled.replay_classes(cfgs)?;
        let replayed: Vec<&Sa1100Config> = cfgs
            .iter()
            .enumerate()
            .filter(|&(i, _)| classes[i] == i)
            .map(|(_, cfg)| cfg)
            .collect();
        if replayed.is_empty() {
            return Ok(Vec::new());
        }
        let (sims, ..) = self.replay(compiled, &replayed, &mut ())?;
        // Representatives precede their members, so a member copies a
        // result already in place.
        let mut fresh = sims.into_iter();
        let mut out: Vec<SimResult> = Vec::with_capacity(cfgs.len());
        for (i, &rep) in classes.iter().enumerate() {
            let sim = if rep == i {
                fresh.next().expect("one replayed lane per class")
            } else {
                out[rep].clone()
            };
            out.push(sim);
        }
        Ok(out)
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
    /// in the order the timing model performs them. The lane reports each
    /// access as it drains the event buffer; the no-op `()` observer of
    /// [`RecordedTrace::price`] compiles away.
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
        let (mut sims, ..) = self.replay(compiled, &[cfg], obs)?;
        Ok(sims.pop().expect("one lane per configuration"))
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

    /// The one pricing pass behind every `price*` call: the pipeline fills
    /// a bounded buffer of events (so memory stays constant no matter how
    /// long the trace is), and each full buffer is drained by every lane
    /// in a tight, branch-light loop that also reports each access to
    /// `obs`. A trace entry that runs a whole block with its ops' executed
    /// outcomes is priced from the block's [`BlockTemplate`] and buffered
    /// as one block-run record, which each lane expands itself; every
    /// other entry walks the pipeline op by op. Also returns the number of
    /// retired ops priced from templates and the number of I-cache hits
    /// counted without a lookup ([`Lane::fold_block`]), summed over lanes.
    fn replay<O: CacheEventObserver>(
        &self,
        compiled: &CompiledProgram,
        cfgs: &[&Sa1100Config],
        obs: &mut O,
    ) -> Result<(Vec<SimResult>, u64, u64), SimError> {
        /// Events per chunk: small enough (16 B each) to stay
        /// cache-resident, large enough to amortize the loop switches.
        const CHUNK_EVENTS: usize = 1 << 12;

        let mut lanes = cfgs
            .iter()
            .map(|cfg| Lane::new(cfg, compiled))
            .collect::<Result<Vec<_>, _>>()?;
        let steps = compiled.templates();
        // Templates get a fold, and their runs become block-run records,
        // only when some lane can fold. A block-run record holds its first
        // access's index in 32 bits.
        let folds =
            !O::OBSERVES && lanes.iter().any(Lane::folds) && u32::try_from(self.mem.len()).is_ok();
        let mut blocks = BlockTemplates::new(compiled, folds);
        let mut replay = Replay::new(Vec::with_capacity(CHUNK_EVENTS + 64));
        let (mut flag, mut mem, mut templated) = (0, 0, 0);
        for entry in &self.entries {
            let start = entry.start as usize;
            let bytes = &self.flags[flag..flag + entry.len as usize];
            flag += bytes.len();
            match blocks.lookup(entry, bytes) {
                Some((index, block)) => {
                    replay.run_block(index, block, &steps[start..], bytes, &self.mem, &mut mem);
                    templated += bytes.len() as u64;
                }
                None => {
                    for (step, &byte) in steps[start..].iter().zip(bytes) {
                        replay.observe(RetiredOp::decode(step, byte, &self.mem, &mut mem));
                    }
                }
            }
            if replay.sink.buf.len() >= CHUNK_EVENTS {
                for lane in &mut lanes {
                    lane.apply(&replay.sink.buf, &blocks.built, &self.mem, obs);
                }
                replay.sink.buf.clear();
            }
        }
        replay.flush_pending();
        for lane in &mut lanes {
            lane.apply(&replay.sink.buf, &blocks.built, &self.mem, obs);
            // Penalty events after the final cache access never rode a
            // packed delta; fold them into every lane's clock now.
            lane.apply_deltas(replay.sink.deltas);
        }
        let shared = replay.shared;
        let folded = lanes.iter().map(|lane| lane.folded).sum();
        let sims = lanes
            .into_iter()
            .map(|lane| lane.into_result(&shared, &self.statics))
            .collect();
        Ok((sims, templated, folded))
    }
}

/// Per-op retire counts over `entries`, by difference array.
fn exec_counts(entries: &[TraceEntry], op_count: usize) -> Vec<u64> {
    let mut diff = vec![0i64; op_count + 1];
    for e in entries {
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

/// The recorder behind [`crate::Machine::run_recorded`]: builds the trace
/// one block run at a time. Each run appends its entry and copies its
/// ops' executed trace bytes in one go; the rare exceptions — an op whose
/// condition failed, a backward `jalr` — patch their byte and are tallied
/// for the static aggregates.
pub(crate) struct TraceRecorder<'c> {
    compiled: &'c CompiledProgram,
    entries: Vec<TraceEntry>,
    flags: Vec<u8>,
    mem: Vec<(u32, u32)>,
    /// First op index of the current block run, and the offset of its
    /// byte in `flags`.
    block_start: usize,
    block_base: usize,
    /// Per op: retired instances whose condition failed.
    skips: Vec<u64>,
    /// `jalr`s that jumped backwards (predicted taken, so not
    /// mispredicted).
    back_jumps: u64,
}

impl<'c> TraceRecorder<'c> {
    pub(crate) fn new(compiled: &'c CompiledProgram) -> TraceRecorder<'c> {
        TraceRecorder {
            compiled,
            entries: Vec::new(),
            flags: Vec::new(),
            mem: Vec::new(),
            block_start: 0,
            block_base: 0,
            skips: vec![0; compiled.op_count()],
            back_jumps: 0,
        }
    }

    /// The finished trace of a run that produced `output`, with its
    /// pairing-independent aggregates folded per static op: retire counts
    /// by difference array over the entries, corrected by the tallied
    /// exceptions.
    pub(crate) fn finish(self, output: RunOutput) -> RecordedTrace {
        let compiled = self.compiled;
        let counts = exec_counts(&self.entries, compiled.op_count());
        let mut s = StaticCounters {
            retired: self.flags.len() as u64,
            ..StaticCounters::default()
        };
        let mut skipped = 0;
        for (i, t) in compiled.templates.iter().enumerate() {
            let (count, skips) = (counts[i], self.skips[i]);
            let ran = count - skips;
            skipped += skips;
            s.class_counts[class_index(t.class)] += count;
            s.reg_reads += count * u64::from(t.reg_reads);
            s.reg_writes += count * u64::from(t.reg_writes);
            s.flag_writes += ran * u64::from(t.sets_flags);
            s.mul_ops += ran * u64::from(t.is_mul);
            let byte = compiled.exec_bytes[i];
            if byte & F_BRANCH != 0 {
                s.branch.branches += count;
                s.branch.taken += ran;
                // BTFNT: backward predicted taken, forward not-taken. A
                // `jalr` counts as forward here; its backward jumps are
                // taken back out below.
                s.branch.mispredicted += if byte & F_BACKWARD != 0 { skips } else { ran };
            }
        }
        s.executed = s.retired - skipped;
        s.branch.mispredicted -= self.back_jumps;
        RecordedTrace {
            output,
            entries: self.entries,
            flags: self.flags,
            mem: self.mem,
            token: compiled.token(),
            statics: s,
            counts,
        }
    }
}

impl Recorder for TraceRecorder<'_> {
    #[inline(always)]
    fn block(&mut self, start: u32, end: u32) {
        self.entries.push(TraceEntry {
            start,
            len: end - start,
            body_skipped: false,
        });
        self.block_start = start as usize;
        self.block_base = self.flags.len();
        self.flags
            .extend_from_slice(&self.compiled.exec_bytes[start as usize..end as usize]);
    }

    fn skip(&mut self, index: usize) {
        let at = self.block_base + (index - self.block_start);
        self.flags[at] = self.compiled.lowered[index].skip_byte();
        self.skips[index] += 1;
        // A run's bytes are all copied when it starts, so the op is its
        // run's last exactly when its byte is the last one so far.
        if at + 1 < self.flags.len() {
            if let Some(entry) = self.entries.last_mut() {
                entry.body_skipped = true;
            }
        }
    }

    #[inline(always)]
    fn mem(&mut self, addr: u32, data: u32) {
        self.mem.push((addr, data));
    }

    fn back_jump(&mut self) {
        // A `jalr` ends its block, so its byte is the last one.
        if let Some(byte) = self.flags.last_mut() {
            *byte |= F_BACKWARD;
        }
        self.back_jumps += 1;
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

impl<'a> RetiredOp<'a> {
    /// The op of `template` whose recorded outcome byte is `byte`, taking
    /// its access (if any) from `mem[*next]` and advancing `next` past it.
    #[inline]
    fn decode(
        template: &'a StepTemplate,
        byte: u8,
        mem: &[(u32, u32)],
        next: &mut usize,
    ) -> RetiredOp<'a> {
        let executed = byte & F_EXECUTED != 0;
        let access = if byte & F_MEM != 0 {
            let (addr, data) = mem[*next];
            *next += 1;
            Some((addr, data, byte & F_MEM_LOAD != 0))
        } else {
            None
        };
        let branch = if byte & F_BRANCH != 0 {
            Some((byte & F_TAKEN != 0, byte & F_BACKWARD != 0))
        } else {
            None
        };
        RetiredOp {
            template,
            is_mul: template.is_mul && executed,
            sets_flags: template.sets_flags && executed,
            mem: access,
            branch,
        }
    }
}

/// Per-configuration timing state: the structure-of-arrays slice of the
/// replay. Everything configuration-dependent lives here; everything else
/// is shared across lanes in [`SharedCounters`].
struct Lane {
    /// `[icache, dcache]`, selected by the event's cache-select bit.
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
    /// Per issue template id: whether a run of it has been priced on this
    /// lane, so every line it fetches is resident. Empty when the I-cache
    /// can evict ([`CompiledProgram::icache_never_evicts`]): only a cache
    /// that never evicts keeps a line once fetched.
    warm: Vec<bool>,
    /// Warm I-cache hits counted without a lookup.
    folded: u64,
    /// Scratch of [`Lane::fold_block`]: which of a block run's D-cache
    /// accesses missed, by index.
    dmisses: Vec<u32>,
}

/// Where one templated block run's events land: its base-cycle snapshot,
/// its carried load-use stall, and the memory stream from its first
/// access.
struct BlockRun<'m> {
    base: u64,
    stall: u64,
    accesses: &'m [(u32, u32)],
}

impl BlockRun<'_> {
    /// The base cycle of a template event whose packed word is `packed`:
    /// the carried stall delays every event from the first issue on.
    #[inline(always)]
    fn base(&self, packed: u64) -> u64 {
        let offset = packed & BASE_MASK;
        self.base + offset + (self.stall & u64::from(offset != 0))
    }

    /// The cache access a template event stands for in this run: at its
    /// base cycle, and for a D-cache access with its address and data from
    /// the memory stream.
    #[inline(always)]
    fn event(&self, ev: &ReplayEvent) -> ReplayEvent {
        let (addr, word) = if (ev.packed >> K_DCACHE) & 1 == 0 {
            (ev.addr, ev.word)
        } else {
            self.accesses[ev.addr as usize]
        };
        let packed = (ev.packed & !BASE_MASK) | self.base(ev.packed);
        ReplayEvent { addr, word, packed }
    }
}

impl Lane {
    /// A fresh lane for one configuration, validating both cache
    /// geometries.
    fn new(cfg: &Sa1100Config, compiled: &CompiledProgram) -> Result<Lane, SimError> {
        validate_config(&cfg.icache)?;
        validate_config(&cfg.dcache)?;
        let templates = if compiled.icache_never_evicts(&cfg.icache) {
            2 * compiled.blocks.len()
        } else {
            0
        };
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
            warm: vec![false; templates],
            folded: 0,
            dmisses: Vec::new(),
        })
    }

    /// Whether this lane counts warm fetches without a lookup: its
    /// I-cache never evicts.
    fn folds(&self) -> bool {
        !self.warm.is_empty()
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

    /// Drains one buffered event chunk — the per-lane hot loop. Every
    /// event is a cache access or a block-run record (penalty outcomes
    /// ride along as packed deltas, applied *before* the event — exactly
    /// when a per-step model bumps its clock), and each access is reported
    /// to `obs`; for the no-op `()` observer the report compiles away.
    /// `templates` and `mem` are what the records index.
    #[inline]
    fn apply<O: CacheEventObserver>(
        &mut self,
        events: &[ReplayEvent],
        templates: &[BlockTemplate],
        mem: &[(u32, u32)],
        obs: &mut O,
    ) {
        for ev in events {
            if ev.packed >> K_BLOCK != 0 {
                self.block_run(ev, templates, mem, obs);
            } else {
                self.access(ev, obs);
            }
        }
    }

    /// One cache access: its penalty deltas, then the access of the cache
    /// and kind its packed word selects. Its word is the I-fetch's toggle
    /// count or the D access's data word.
    #[inline(always)]
    fn access<O: CacheEventObserver>(&mut self, ev: &ReplayEvent, obs: &mut O) {
        let p = ev.packed;
        // Penalty deltas are zero on the vast majority of accesses (only
        // branches and multiplies produce them), so one well-predicted
        // branch beats three unconditional multiplies.
        if p >> D_MUL != 0 {
            self.apply_deltas(p);
        }
        let cycle = self.cycle_at(p & BASE_MASK);
        if (p >> K_DCACHE) & 1 == 0 {
            let hit = self.caches[0].access_toggles(ev.addr, false, u64::from(ev.word), cycle);
            self.stalls[0] += self.miss_penalty[0] * u64::from(!hit);
            obs.icache_access(ev.addr, hit);
        } else {
            let write = (p >> K_WRITE) & 1 != 0;
            let hit = self.caches[1].access(ev.addr, write, ev.word, cycle);
            self.stalls[1] += self.miss_penalty[1] * u64::from(!hit);
            obs.dcache_access(ev.addr, write, hit);
        }
    }

    /// Expands one block-run record in its template's event order: the
    /// entry deltas first, the carried load-use stall on every event from
    /// the template's first issue on, and each D-cache access from the
    /// memory stream. Once the template has run on a lane whose I-cache
    /// never evicts, every line it fetches is resident, so later runs
    /// count its fetches as hits without a lookup ([`Lane::fold_block`])
    /// — unless an observer must see every access.
    fn block_run<O: CacheEventObserver>(
        &mut self,
        record: &ReplayEvent,
        templates: &[BlockTemplate],
        mem: &[(u32, u32)],
        obs: &mut O,
    ) {
        let p = record.packed;
        self.apply_deltas(p);
        let id = record.addr as usize;
        let tpl = &templates[id / 2].entry[id % 2];
        let at = BlockRun {
            base: p & BASE_MASK,
            stall: (p >> K_STALL) & 1,
            accesses: &mem[record.word as usize..],
        };
        let warm = !O::OBSERVES && self.warm.get(id) == Some(&true);
        if let Some(fold) = tpl.fold.as_ref().filter(|_| warm) {
            self.fold_block(fold, &at);
            return;
        }
        for ev in &tpl.events {
            self.access(&at.event(ev), obs);
        }
        if let Some(warm) = self.warm.get_mut(id) {
            *warm = true;
        }
    }

    /// Prices a warm run of a template on a lane whose I-cache never
    /// evicts. The D-cache accesses go first, in order, noting which
    /// miss: the I-cache only counts hits here, which
    /// neither stall nor touch the D-cache, so a fetch's cycle is the
    /// lane clock at entry plus its offset, the multiplies before it
    /// priced at this lane's `mul_extra`, and the D stalls before it.
    /// Fetch cycles never decrease, so the fetches split into one run per
    /// peak window they land in (`Cache::roll_window`), found by binary
    /// search, and each run's count and toggle sum are added at once.
    fn fold_block(&mut self, fold: &Fold, at: &BlockRun<'_>) {
        let mul = self.event_penalty[0];
        let clock = self.cycle_at(0);
        self.dmisses.clear();
        for (j, ev) in (0u32..).zip(&fold.data) {
            let (addr, data) = at.accesses[ev.addr as usize];
            let cycle = self.cycle_at(at.base(ev.packed)) + u64::from(ev.word) * mul;
            let write = (ev.packed >> K_WRITE) & 1 != 0;
            if !self.caches[1].access(addr, write, data, cycle) {
                self.stalls[1] += self.miss_penalty[1];
                self.dmisses.push(j);
            }
        }
        self.event_cycles += fold.muls * mul;
        let fetches = &fold.fetches[..];
        let Some(last) = fetches.last() else {
            return;
        };
        self.folded += fetches.len() as u64;
        let (dmisses, dpenalty) = (&self.dmisses, self.miss_penalty[1]);
        let cycle = |f: &FetchPoint| {
            let missed = dmisses.partition_point(|&j| j < f.data_before) as u64;
            clock + at.base(f.packed) + u64::from(f.muls) * mul + missed * dpenalty
        };
        let toggles_before = |k: usize| {
            fetches
                .get(k)
                .map_or(fold.toggles, |f| u64::from(f.toggles_before))
        };
        let icache = &mut self.caches[0];
        let mut k = 0;
        while k < fetches.len() {
            let start = cycle(&fetches[k]);
            let window_end = (start / PEAK_WINDOW_CYCLES + 1) * PEAK_WINDOW_CYCLES;
            let next = if cycle(last) < window_end {
                fetches.len()
            } else {
                k + 1 + fetches[k + 1..].partition_point(|f| cycle(f) < window_end)
            };
            let count = (next - k) as u64;
            icache.count_hits(start, count, toggles_before(next) - toggles_before(k));
            k = next;
        }
    }

    /// Folds the three penalty-delta nibbles of a packed word into the
    /// lane clock.
    #[inline]
    fn apply_deltas(&mut self, p: u64) {
        self.event_cycles += ((p >> D_MUL) & D_MAX) * self.event_penalty[0]
            + ((p >> D_TAKEN) & D_MAX) * self.event_penalty[1]
            + ((p >> D_MISPREDICT) & D_MAX) * self.event_penalty[2];
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
/// 16 bytes: a cache access, or the record of a block run priced from a
/// template. The snapshot of [`SharedCounters::base_cycles`] lets a lane
/// reconstruct the exact interpreted cycle as `base + event_cycles +
/// stalls` without seeing the pipeline at all.
#[derive(Clone, Copy, Debug)]
struct ReplayEvent {
    /// Accessed address. In an [`IssueTemplate`], a D-cache event holds
    /// instead the index of its access among the block's accesses; in a
    /// block-run record, the id of its issue template (block index × 2 +
    /// entry state).
    addr: u32,
    /// For an I-fetch, its output-port toggle count: the fetch stream is
    /// configuration-independent, so the shared pass computes each toggle
    /// once and every lane just adds it. For a D-cache access, the data
    /// word (each lane's D-cache takes the toggle, one popcount). For a
    /// block-run record, the index in the memory stream of the block's
    /// first access.
    word: u32,
    /// Bit-packed `base_cycles` snapshot (low 48 bits — a run would need
    /// a month of simulated 100 GHz time to overflow), cache-select and
    /// write bits, the three penalty-delta nibbles, and a block-run
    /// record's stall and record bits (see the `K_*` / `D_*` constants).
    packed: u64,
}

/// Mask of the `base_cycles` snapshot inside [`ReplayEvent::packed`].
const BASE_MASK: u64 = (1 << 48) - 1;
/// Cache-select bit: 0 = I-cache, 1 = D-cache.
const K_DCACHE: u32 = 48;
/// Write bit (D-cache stores).
const K_WRITE: u32 = 49;
/// Executed multiplies since the previous event (4-bit delta).
const D_MUL: u32 = 50;
/// Correctly-predicted taken branches since the previous event.
const D_TAKEN: u32 = 54;
/// Mispredicted branches since the previous event.
const D_MISPREDICT: u32 = 58;
/// A block-run record's carried load-use stall: one cycle on every event
/// from its template's first issue on.
const K_STALL: u32 = 62;
/// Marks a block-run record.
const K_BLOCK: u32 = 63;
/// Maximum value of one penalty-delta nibble. The pipeline can emit at
/// most a handful of penalty events between consecutive events (every op
/// is fetched, and an issue group holds at most one multiply and one
/// branch), so 15 is unreachable in practice; the debug assert in
/// [`EventBuffer::penalty`] guards the invariant.
const D_MAX: u64 = 0xf;

/// Where the pipeline pass delivers lane-facing events: each cache access
/// (with its `base_cycles` snapshot) and each templated block run is
/// buffered for lanes to drain later in tight per-lane loops. Penalty
/// outcomes are not events of their own — they accumulate in `deltas` and
/// ride the next event as packed deltas, so the lane loop sees a
/// homogeneous, branch-light stream.
struct EventBuffer {
    buf: Vec<ReplayEvent>,
    /// Penalty events since the last event, packed into the `D_*` nibbles
    /// exactly as they will ride the next event.
    deltas: u64,
    /// Last word seen on the I-cache's output port, used to compute each
    /// fetch's toggle count once instead of per lane.
    last_fetch_value: u32,
}

impl EventBuffer {
    #[inline(always)]
    fn push(&mut self, addr: u32, word: u32, base: u64, flags: u64) {
        debug_assert!(base <= BASE_MASK, "replay event field overflow");
        self.buf.push(ReplayEvent {
            addr,
            word,
            packed: base | flags | std::mem::take(&mut self.deltas),
        });
    }

    /// Buffers the I-fetch of the word `value` at `addr`.
    #[inline(always)]
    fn fetch(&mut self, addr: u32, value: u32, base: u64) {
        let toggles = (self.last_fetch_value ^ value).count_ones();
        self.last_fetch_value = value;
        self.push(addr, toggles, base, 0);
    }

    /// Buffers a D-cache access of `data` at `addr`.
    #[inline(always)]
    fn data(&mut self, addr: u32, data: u32, base: u64, write: bool) {
        self.push(
            addr,
            data,
            base,
            1 << K_DCACHE | u64::from(write) << K_WRITE,
        );
    }

    /// Counts one penalty event into the nibble at `shift`.
    #[inline(always)]
    fn penalty(&mut self, shift: u32) {
        debug_assert!(
            (self.deltas >> shift) & D_MAX < D_MAX,
            "replay event field overflow"
        );
        self.deltas += 1 << shift;
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
/// into its [`EventBuffer`]. The order of cache accesses within a
/// dual-issue group and the deferred fetch-dedup reset after taken
/// branches are part of the model: the interpreted reference in
/// `fits-sim-ref` follows the same steps per retired instruction, and the
/// differential tests hold the two bit-identical. The per-op steps are
/// `#[inline(always)]`: left to the inliner they stayed out of line, and
/// the per-op walk priced a single ARM lane at 26 ns/op instead of 18.
struct Replay<'a> {
    sink: EventBuffer,
    shared: SharedCounters,
    pending: Option<RetiredOp<'a>>,
    last_fetch_word: Option<u32>,
    /// `dest0_mask` of the previous group's load (0 when none) — the
    /// load-use interlock operates on register bitmasks.
    last_group_load_dest: u16,
    load_dest_this_group: u16,
}

impl<'a> Replay<'a> {
    fn new(buf: Vec<ReplayEvent>) -> Replay<'a> {
        Replay {
            sink: EventBuffer {
                buf,
                deltas: 0,
                last_fetch_value: 0,
            },
            shared: SharedCounters::default(),
            pending: None,
            last_fetch_word: None,
            last_group_load_dest: 0,
            load_dest_this_group: 0,
        }
    }

    #[inline(always)]
    fn fetch(&mut self, template: &StepTemplate) {
        if self.last_fetch_word == Some(template.fetch_word_addr) {
            return; // second half of the same 32-bit fetch (16-bit ISAs)
        }
        self.last_fetch_word = Some(template.fetch_word_addr);
        self.sink.fetch(
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

    #[inline(always)]
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
    #[inline(always)]
    fn account(&mut self, op: &RetiredOp<'_>) {
        if op.is_mul {
            self.sink.penalty(D_MUL);
        }
        if let Some((addr, data, is_load)) = op.mem {
            self.sink
                .data(addr, data, self.shared.base_cycles, !is_load);
            if is_load {
                self.load_dest_this_group = op.template.dest0_mask;
            }
        }
        if let Some((taken, backward)) = op.branch {
            self.branch(taken, backward);
        }
    }

    /// A retired branch's penalty and fetch redirect.
    #[inline(always)]
    fn branch(&mut self, taken: bool, backward: bool) {
        let predicted_taken = backward; // BTFNT
        if taken != predicted_taken {
            self.sink.penalty(D_MISPREDICT);
        } else if taken {
            self.sink.penalty(D_TAKEN);
        }
        if taken {
            // The next fetch starts at the target word.
            self.last_fetch_word = None;
        }
    }

    #[inline(always)]
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

    /// Prices one run of a whole block from its template, leaving the
    /// pipeline exactly as `observe` over each op would: `block` is
    /// `built[index]` of the [`BlockTemplates`], `steps` starts at the
    /// block's first op, `bytes` are the run's outcome bytes, and `next`
    /// indexes the block's first access in `mem` (advanced past the
    /// block's accesses).
    ///
    /// The first op goes through [`Replay::observe`], so it meets the
    /// carried pending op; the template of the resulting entry state then
    /// stands for the rest. A template with a [`Fold`] is buffered as one
    /// block-run record — the template's id, the base-cycle snapshot, the
    /// entry deltas, the carried load-use stall and the block's first
    /// access — which each lane expands itself ([`Lane::block_run`]), so
    /// the walk's cost does not grow with the block. Any other template's
    /// events are copied once, patched the same way, for every lane to
    /// drain: a lane that looks every access up drains a shared copy
    /// faster than it expands a record.
    fn run_block(
        &mut self,
        index: u32,
        block: &BlockTemplate,
        steps: &'a [StepTemplate],
        bytes: &[u8],
        mem: &[(u32, u32)],
        next: &mut usize,
    ) {
        let first_access = *next;
        self.observe(RetiredOp::decode(&steps[0], bytes[0], mem, next));
        let entry = usize::from(self.pending.is_none());
        let tpl = &block.entry[entry];
        // A taken branch left pending resets fetch dedup only after this
        // block's first fetch, so a second op sharing that fetch word is
        // fetched again.
        if self.last_fetch_word.is_none() && steps[1].fetch_word_addr == steps[0].fetch_word_addr {
            self.fetch(&steps[1]);
        }

        // A load issued by the previous group stalls the template's first
        // group, which delays every event from that issue on by a cycle.
        let stall = u64::from(self.last_group_load_dest & tpl.first_group_sources != 0);
        let (sink, base) = (&mut self.sink, self.shared.base_cycles);
        if tpl.events.is_empty() {
            // Nothing to deliver: pending deltas wait for the next event.
        } else if tpl.fold.is_some() {
            // Deltas pending at entry ride the record, ahead of the
            // template's first event.
            sink.push(
                2 * index + entry as u32,
                first_access as u32,
                base,
                stall << K_STALL | 1 << K_BLOCK,
            );
        } else {
            // The events every lane would expand the record into, once.
            let run = BlockRun {
                base,
                stall,
                accesses: &mem[first_access..],
            };
            let at = sink.buf.len();
            sink.buf.extend(tpl.events.iter().map(|ev| run.event(ev)));
            sink.buf[at].packed += std::mem::take(&mut sink.deltas);
        }
        sink.deltas += tpl.trailing;
        let last = &steps[bytes.len() - 1];
        sink.last_fetch_value = last.fetch_word_value;
        self.shared.base_cycles += tpl.base_cycles + stall;
        self.shared.issue_groups += tpl.issue_groups;
        self.shared.dual_issues += tpl.dual_issues;
        self.shared.load_use_stalls += tpl.load_use_stalls + stall;
        if tpl.issue_groups > 0 {
            self.last_group_load_dest = tpl.exit_load_dest;
        }
        self.last_fetch_word = Some(last.fetch_word_addr);

        // The terminator: still pending, or issued inside the template,
        // which then owes its recorded branch outcome.
        let term = bytes[bytes.len() - 1];
        *next = first_access + block.accesses;
        if tpl.ends_pending {
            let mut at = *next - usize::from(term & F_MEM != 0);
            self.pending = Some(RetiredOp::decode(last, term, mem, &mut at));
        } else {
            self.pending = None;
            if term & F_BRANCH != 0 {
                self.branch(term & F_TAKEN != 0, term & F_BACKWARD != 0);
            }
        }
    }
}

/// One block's pipeline pass from one entry state, pre-run over the
/// block's executed-outcome bytes from its second op on. Event base
/// snapshots are offsets from the block's entry; an offset of zero marks
/// an event that precedes the first issue. D-cache events carry the index
/// of their access among the block's accesses in place of an address.
struct IssueTemplate {
    events: Box<[ReplayEvent]>,
    /// How a warm run is priced on a lane whose I-cache never evicts, if
    /// not event by event.
    fold: Option<Fold>,
    /// Penalty deltas after the last event, packed as in
    /// [`EventBuffer::deltas`].
    trailing: u64,
    base_cycles: u64,
    issue_groups: u64,
    dual_issues: u64,
    load_use_stalls: u64,
    /// Sources of the first group issued (0 when none is), which a load in
    /// the group before the block can stall.
    first_group_sources: u16,
    /// `last_group_load_dest` after the last group issued, if any is.
    exit_load_dest: u16,
    /// Whether the terminator is still pending at exit (otherwise it was
    /// issued paired with the op before it).
    ends_pending: bool,
}

/// What a warm run of an [`IssueTemplate`] needs on a lane whose I-cache
/// never evicts ([`Lane::fold_block`]): its D-cache events, in order, and
/// its I-cache fetches as [`FetchPoint`]s. The only penalties inside a
/// template are its multiplies (the terminator's branch outcome is applied
/// by the run), kept as running counts for each lane to price at its own
/// `mul_extra`.
struct Fold {
    /// The D-cache events, each with the multiplies up to and including
    /// it in place of its (unused) word.
    data: Box<[ReplayEvent]>,
    fetches: Box<[FetchPoint]>,
    /// Sum of the fetches' toggle counts.
    toggles: u64,
    /// Multiplies of the whole template.
    muls: u64,
}

/// One I-cache fetch of a [`Fold`]: what its cycle on a lane depends on,
/// and the toggles of the fetches before it.
struct FetchPoint {
    /// The fetch event's packed word (its base offset).
    packed: u64,
    /// Multiplies up to and including the fetch.
    muls: u32,
    /// D-cache events before the fetch.
    data_before: u32,
    /// Sum of the toggle counts of the fetches before it.
    toggles_before: u32,
}

/// Fewest fetches a template needs for a [`Fold`]. Below it, a lane's work
/// per block-run record costs more than the lookups the fold saves. Over
/// the 42 perfbench `paper` binaries priced on the paper's cache pair,
/// minimums of 0, 3, 6, 10 and 16 were tried: 6 priced fastest, 2-3%
/// ahead of 0 and 10 (a margin near the run-to-run spread) and 9% ahead of
/// 16.
const FOLD_MIN_FETCHES: usize = 6;

impl Fold {
    /// The fold of a template with `events`, if it has at least
    /// [`FOLD_MIN_FETCHES`] fetches and no event carries a branch penalty
    /// (which no template issues).
    fn of(events: &[ReplayEvent]) -> Option<Fold> {
        let fetches = events.iter().filter(|ev| (ev.packed >> K_DCACHE) & 1 == 0);
        if fetches.count() < FOLD_MIN_FETCHES {
            return None;
        }
        let (mut data, mut fetches) = (Vec::new(), Vec::new());
        let (mut muls, mut toggles) = (0, 0);
        for ev in events {
            if ev.packed >> D_TAKEN != 0 {
                return None;
            }
            muls += (ev.packed >> D_MUL & D_MAX) as u32;
            if (ev.packed >> K_DCACHE) & 1 != 0 {
                data.push(ReplayEvent { word: muls, ..*ev });
            } else {
                fetches.push(FetchPoint {
                    packed: ev.packed,
                    muls,
                    data_before: data.len() as u32,
                    toggles_before: toggles,
                });
                toggles += ev.word;
            }
        }
        Some(Fold {
            data: data.into_boxed_slice(),
            fetches: fetches.into_boxed_slice(),
            toggles: u64::from(toggles),
            muls: u64::from(muls),
        })
    }
}

/// The issue templates of one basic block.
struct BlockTemplate {
    len: usize,
    /// Memory accesses of the block's executed-outcome ops.
    accesses: usize,
    /// Whether the terminator may take any recorded outcome: it has no
    /// memory access and is not a multiply, so its outcome changes neither
    /// its pairing nor the access stream.
    any_terminator: bool,
    /// `[first op left pending, first op consumed by a carried op]`.
    entry: [IssueTemplate; 2],
}

impl BlockTemplate {
    /// Pre-runs the block of `len` ops at op `first` from both entry
    /// states, each with its [`Fold`] if `folds`. The terminator's branch
    /// outcome is left out: the run that issues it inside the template
    /// applies the recorded one.
    fn build(compiled: &CompiledProgram, first: usize, len: usize, folds: bool) -> BlockTemplate {
        let steps = &compiled.templates[first..first + len];
        let bytes = &compiled.exec_bytes[first..first + len];
        // A stand-in memory stream whose k-th access has address k, so each
        // D-cache event records the slot a run fills from the real stream.
        let slots: Vec<(u32, u32)> = (0..len as u32).map(|slot| (slot, 0)).collect();
        let mut next = 0;
        let mut ops: Vec<RetiredOp<'_>> = steps
            .iter()
            .zip(bytes)
            .map(|(step, &byte)| RetiredOp::decode(step, byte, &slots, &mut next))
            .collect();
        ops[len - 1].branch = None;
        let group_sources = |i: usize| {
            let pair = ops.get(i + 1).filter(|b| Replay::can_pair(&ops[i], b));
            ops[i].template.source_mask | pair.map_or(0, |b| b.template.source_mask)
        };
        let run = |first_pending: bool| {
            let mut replay = Replay::new(Vec::new());
            replay.last_fetch_word = Some(steps[0].fetch_word_addr);
            replay.sink.last_fetch_value = steps[0].fetch_word_value;
            replay.pending = first_pending.then_some(ops[0]);
            for &op in &ops[1..] {
                replay.observe(op);
            }
            let first_group_sources = if first_pending {
                group_sources(0)
            } else if len > 2 {
                group_sources(1)
            } else {
                0
            };
            let events = replay.sink.buf;
            IssueTemplate {
                fold: Fold::of(&events).filter(|_| folds),
                events: events.into_boxed_slice(),
                trailing: replay.sink.deltas,
                base_cycles: replay.shared.base_cycles,
                issue_groups: replay.shared.issue_groups,
                dual_issues: replay.shared.dual_issues,
                load_use_stalls: replay.shared.load_use_stalls,
                first_group_sources,
                exit_load_dest: replay.last_group_load_dest,
                ends_pending: replay.pending.is_some(),
            }
        };
        let last = &steps[len - 1];
        BlockTemplate {
            len,
            accesses: next,
            any_terminator: bytes[len - 1] & F_MEM == 0 && !last.is_mul,
            entry: [run(true), run(false)],
        }
    }
}

/// The block templates of one pricing pass, built on first use: only
/// blocks the trace runs whole pay for one.
struct BlockTemplates<'c> {
    compiled: &'c CompiledProgram,
    /// Whether templates get their [`Fold`].
    folds: bool,
    /// Per op: index into `built` of the block it leads, or [`UNBUILT`] /
    /// [`NO_TEMPLATE`].
    slot: Vec<u32>,
    built: Vec<BlockTemplate>,
}

/// [`BlockTemplates::slot`] of an op not looked up yet.
const UNBUILT: u32 = u32::MAX;
/// [`BlockTemplates::slot`] of an op that leads no templated block: it
/// starts mid-block, or its block is a single op.
const NO_TEMPLATE: u32 = u32::MAX - 1;

impl<'c> BlockTemplates<'c> {
    fn new(compiled: &'c CompiledProgram, folds: bool) -> BlockTemplates<'c> {
        BlockTemplates {
            compiled,
            folds,
            slot: vec![UNBUILT; compiled.op_count()],
            built: Vec::new(),
        }
    }

    /// The template pricing the trace run `entry` whose outcome bytes are
    /// `bytes`, with its index in `built`, if the run covers
    /// its whole block and every op but the terminator took its executed
    /// outcome (the terminator too, unless any of its outcomes is
    /// templated). O(1): the recorder flagged the runs that skipped an op
    /// before the terminator.
    #[inline]
    fn lookup(&mut self, entry: &TraceEntry, bytes: &[u8]) -> Option<(u32, &BlockTemplate)> {
        let start = entry.start as usize;
        let mut slot = self.slot[start];
        if slot == UNBUILT {
            let block = &self.compiled.blocks[self.compiled.block_of[start] as usize];
            slot = if block.first as usize == start && block.len >= 2 {
                let built =
                    BlockTemplate::build(self.compiled, start, block.len as usize, self.folds);
                self.built.push(built);
                self.built.len() as u32 - 1
            } else {
                NO_TEMPLATE
            };
            self.slot[start] = slot;
        }
        let block = self.built.get(slot as usize)?;
        let last = start + bytes.len() - 1;
        (block.len == bytes.len()
            && !entry.body_skipped
            && (block.any_terminator || bytes[bytes.len() - 1] == self.compiled.exec_bytes[last]))
            .then_some((slot, block))
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
        let counts = trace.exec_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[2], 10, "loop body retires once per iteration");
        assert_eq!(counts[4], 10);
        assert_eq!(counts[6], 1);
    }

    /// The recorder writes each block run's bytes in one copy and patches
    /// the exceptions; the result must be exactly the bytes and accesses
    /// a per-step loop over the `execute` oracle reports, condition-failed
    /// ops and both access kinds included.
    #[test]
    fn recorded_bytes_and_accesses_match_the_per_step_oracle() {
        use crate::{CpuState, ExecCtx, Memory};
        use fits_isa::{AddrOffset, Index, MemOp, DATA_BASE};

        let imm = |v| Operand2::imm(v).unwrap();
        let program = Program {
            text: vec![
                Instr::mov(Reg::R3, imm(DATA_BASE)),
                Instr::mov(Reg::R0, imm(10)),
                // loop: [r3], #4 = r0; r1 += r0 if odd; r2 = [r3 - 4]
                Instr::Mem {
                    cond: Cond::Al,
                    op: MemOp::Str,
                    rd: Reg::R0,
                    rn: Reg::R3,
                    offset: AddrOffset::Imm(4),
                    index: Index::Post,
                },
                Instr::Dp {
                    cond: Cond::Al,
                    op: DpOp::Tst,
                    set_flags: true,
                    rd: Reg::R0,
                    rn: Reg::R0,
                    op2: imm(1),
                },
                Instr::dp(DpOp::Add, Reg::R1, Reg::R1, Operand2::reg(Reg::R0)).with_cond(Cond::Ne),
                Instr::mem(MemOp::Ldr, Reg::R2, Reg::R3, -4),
                Instr::Dp {
                    cond: Cond::Al,
                    op: DpOp::Sub,
                    set_flags: true,
                    rd: Reg::R0,
                    rn: Reg::R0,
                    op2: imm(1),
                },
                Instr::b(-7).with_cond(Cond::Ne),
                Instr::mov(Reg::R0, Operand2::reg(Reg::R1)),
                Instr::Swi {
                    cond: Cond::Al,
                    imm: 0,
                },
            ],
            ..Program::default()
        };
        let set = Ar32Set::load(&program);
        let compiled = CompiledProgram::compile(&set).unwrap();
        let trace = Machine::new(set.clone()).run_recorded(&compiled).unwrap();
        assert_eq!(trace.output.exit_code, 25, "odd counts 9 + 7 + 5 + 3 + 1");

        let (mut cpu, mut mem) = (CpuState::new(), Memory::with_data(&[]));
        let mut pc = set.entry_pc();
        let (mut flags, mut accesses) = (Vec::new(), Vec::new());
        loop {
            let mut ctx = ExecCtx {
                cpu: &mut cpu,
                mem: &mut mem,
                pc,
            };
            let out = set.execute(set.op_at(pc).unwrap(), &mut ctx).unwrap();
            flags.push(out.trace_flags());
            accesses.extend(out.mem.map(|m| (m.addr, m.data)));
            if out.exit.is_some() {
                break;
            }
            pc = out.next_pc;
        }
        assert_eq!(trace.flags, flags);
        assert_eq!(trace.mem, accesses);
        // Five even-count `addne`s and the final `bne` fail their condition.
        assert_eq!(trace.statics.executed, trace.statics.retired - 6);
    }

    /// Every run of the looped program covers a whole block with its
    /// executed outcomes (the loop's last `bne` falls through, which a
    /// branch terminator may), so all of it is priced from templates;
    /// a conditional failing in mid-block sends only its runs op by op.
    #[test]
    fn full_block_runs_are_priced_from_templates() {
        let cfg = Sa1100Config::icache_16k();
        let set = Ar32Set::load(&looped_program());
        let compiled = CompiledProgram::compile(&set).unwrap();
        let trace = Machine::new(set).run_recorded(&compiled).unwrap();
        let (sims, templated, _) = trace.replay(&compiled, &[&cfg], &mut ()).unwrap();
        assert_eq!(templated, trace.output.steps);
        assert_eq!(sims[0].retired, 34);

        let imm = |v| Operand2::imm(v).unwrap();
        let skipping = Program {
            text: vec![
                Instr::mov(Reg::R0, imm(4)),
                Instr::mov(Reg::R1, imm(0)),
                // loop: r1 += r0 if odd; r0 -= 1; bne loop
                Instr::Dp {
                    cond: Cond::Al,
                    op: DpOp::Tst,
                    set_flags: true,
                    rd: Reg::R0,
                    rn: Reg::R0,
                    op2: imm(1),
                },
                Instr::dp(DpOp::Add, Reg::R1, Reg::R1, Operand2::reg(Reg::R0)).with_cond(Cond::Ne),
                Instr::Dp {
                    cond: Cond::Al,
                    op: DpOp::Sub,
                    set_flags: true,
                    rd: Reg::R0,
                    rn: Reg::R0,
                    op2: imm(1),
                },
                Instr::b(-5).with_cond(Cond::Ne),
                Instr::Swi {
                    cond: Cond::Al,
                    imm: 0,
                },
            ],
            ..Program::default()
        };
        let set = Ar32Set::load(&skipping);
        let compiled = CompiledProgram::compile(&set).unwrap();
        let trace = Machine::new(set).run_recorded(&compiled).unwrap();
        let (_, templated, _) = trace.replay(&compiled, &[&cfg], &mut ()).unwrap();
        // The entry block and the two odd-count loop runs: 2 + 2 × 4 ops.
        assert_eq!(templated, 10);
    }

    /// On an I-cache that never evicts, a template's fetches are looked up
    /// on its first run and counted without a lookup on every later one:
    /// the loop's first run pairs its head with the carried `mov`, and its
    /// seven later runs take the other template, whose seven fetches
    /// (after the loop head's own) are counted so on the last six. An
    /// evicting I-cache, an observer that sees every access, or a loop
    /// body with too few fetches to pay for a fold looks every fetch up.
    #[test]
    fn warm_fetches_on_a_never_evicting_icache_are_folded() {
        struct Seen(u64);
        impl CacheEventObserver for Seen {
            fn icache_access(&mut self, _: u32, _: bool) {
                self.0 += 1;
            }
        }
        let add = |r| Instr::dp(DpOp::Add, r, r, Operand2::imm(1).unwrap());
        let mut text = vec![Instr::mov(Reg::R0, Operand2::imm(8).unwrap())];
        // loop: six adds; r0 -= 1; bne loop
        text.extend([Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R6].map(add));
        text.extend([
            Instr::Dp {
                cond: Cond::Al,
                op: DpOp::Sub,
                set_flags: true,
                rd: Reg::R0,
                rn: Reg::R0,
                op2: Operand2::imm(1).unwrap(),
            },
            Instr::b(-9).with_cond(Cond::Ne),
            Instr::Swi {
                cond: Cond::Al,
                imm: 0,
            },
        ]);
        let set = Ar32Set::load(&Program {
            text,
            ..Program::default()
        });
        let compiled = CompiledProgram::compile(&set).unwrap();
        let trace = Machine::new(set).run_recorded(&compiled).unwrap();
        let quiet = Sa1100Config::icache_16k();
        let (sims, _, folded) = trace.replay(&compiled, &[&quiet], &mut ()).unwrap();
        assert_eq!(folded, 6 * 7);
        assert_eq!(sims[0].icache.accesses, trace.output.steps);

        let mut seen = Seen(0);
        let (observed, _, folded) = trace.replay(&compiled, &[&quiet], &mut seen).unwrap();
        assert_eq!((folded, seen.0), (0, trace.output.steps));
        assert_eq!(observed, sims);

        let mut evicting = quiet.clone();
        evicting.icache = CacheConfig {
            name: "one-word".into(),
            size_bytes: 4,
            ways: 1,
            line_bytes: 4,
            replacement: crate::Replacement::Lru,
        };
        let (_, _, folded) = trace
            .replay(&compiled, &[&quiet, &evicting], &mut ())
            .unwrap();
        assert_eq!(folded, 6 * 7, "only the never-evicting lane folds");

        // The looped program's loop body fetches twice after its head.
        let set = Ar32Set::load(&looped_program());
        let compiled = CompiledProgram::compile(&set).unwrap();
        let trace = Machine::new(set).run_recorded(&compiled).unwrap();
        let (_, _, folded) = trace.replay(&compiled, &[&quiet], &mut ()).unwrap();
        assert_eq!(folded, 0);
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
    fn a_program_lifted_from_another_text_is_rejected() {
        let exit_with = |code| Program {
            text: vec![
                Instr::mov(Reg::R0, Operand2::imm(code).unwrap()),
                Instr::Swi {
                    cond: Cond::Al,
                    imm: 0,
                },
            ],
            ..Program::default()
        };
        let other = CompiledProgram::compile(&Ar32Set::load(&exit_with(1))).unwrap();
        let recorded = Machine::new(Ar32Set::load(&exit_with(2))).run_recorded(&other);
        assert!(matches!(recorded, Err(SimError::BadInstruction { .. })));
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

    /// `n` straight-line AR32 ops.
    fn straight_line(n: usize) -> Ar32Set {
        Ar32Set::load(&Program {
            text: vec![Instr::mov(Reg::R0, Operand2::imm(0).unwrap()); n],
            ..Program::default()
        })
    }

    /// AR32 ops re-addressed as 2-byte ops (op `i` at `TEXT_BASE + 2i`),
    /// so the lifter sees text laid out like a FITS binary's.
    struct Halved(Ar32Set);

    impl InstrSet for Halved {
        type Op = <Ar32Set as InstrSet>::Op;

        fn entry_pc(&self) -> u32 {
            TEXT_BASE
        }
        fn op_size(&self) -> u32 {
            2
        }
        fn op_count(&self) -> usize {
            self.0.op_count()
        }
        fn initial_data(&self) -> &[u8] {
            self.0.initial_data()
        }
        fn op_at(&self, pc: u32) -> Result<&Self::Op, SimError> {
            self.0.op_at(TEXT_BASE + (pc - TEXT_BASE) * 2)
        }
        fn fetch_word(&self, word_addr: u32) -> u32 {
            self.0.fetch_word(word_addr)
        }
        fn describe(&self, op: &Self::Op) -> crate::OpMeta {
            self.0.describe(op)
        }
        fn lower(&self, pc: u32, op: &Self::Op) -> LoweredOp {
            LoweredOp::from_instr(op, pc, 2)
        }
        fn execute(
            &self,
            op: &Self::Op,
            ctx: &mut crate::ExecCtx<'_>,
        ) -> Result<crate::StepOutcome, SimError> {
            self.0.execute(op, ctx)
        }
    }

    /// Whether a real LRU cache of geometry `icache` misses on a second
    /// in-order sweep over the program's fetch words — i.e. evicted.
    fn second_sweep_misses(compiled: &CompiledProgram, icache: &CacheConfig) -> bool {
        let mut cache = Cache::new(icache.clone());
        let mut sweep = || {
            compiled
                .templates()
                .iter()
                .filter(|t| !cache.access(t.fetch_word_addr, false, 0, 0))
                .count()
        };
        sweep();
        sweep() > 0
    }

    #[test]
    fn text_filling_every_way_never_evicts_and_one_more_line_does() {
        // 4 sets × 2 ways of 32-byte lines: 8 lines, 256 bytes of text.
        let icache = CacheConfig {
            name: "tiny".into(),
            size_bytes: 256,
            ways: 2,
            line_bytes: 32,
            replacement: crate::Replacement::Lru,
        };
        let fill = |op_size: usize| 256 / op_size;
        let programs = [
            (
                4,
                fill(4),
                CompiledProgram::compile(&straight_line(fill(4))),
            ),
            (
                4,
                fill(4) + 1,
                CompiledProgram::compile(&straight_line(fill(4) + 1)),
            ),
            (
                2,
                fill(2),
                CompiledProgram::compile(&Halved(straight_line(fill(2)))),
            ),
            (
                2,
                fill(2) + 1,
                CompiledProgram::compile(&Halved(straight_line(fill(2) + 1))),
            ),
        ];
        for (op_size, ops, compiled) in programs {
            let compiled = compiled.unwrap();
            let fits = ops * op_size <= 256;
            assert_eq!(
                compiled.icache_never_evicts(&icache),
                fits,
                "{ops} ops of {op_size} bytes in 256 bytes of cache"
            );
            assert_eq!(
                second_sweep_misses(&compiled, &icache),
                !fits,
                "the cache model disagrees for {ops} ops of {op_size} bytes"
            );
        }
    }

    #[test]
    fn no_configurations_price_to_nothing_and_bad_geometry_is_never_grouped_away() {
        let set = Ar32Set::load(&looped_program());
        let compiled = CompiledProgram::compile(&set).unwrap();
        let trace = Machine::new(set).run_recorded(&compiled).unwrap();
        assert_eq!(trace.price_all(&compiled, &[]).unwrap(), Vec::new());
        assert_eq!(compiled.replay_classes(&[]).unwrap(), Vec::<usize>::new());

        // The program's seven ops fit a 3 KB I-cache too, so it would
        // share the 16 KB replay — but three sets is not a valid geometry.
        let mut bad = Sa1100Config::icache_16k();
        bad.icache.size_bytes = 3 * 1024;
        let cfgs = [Sa1100Config::icache_16k(), bad];
        assert!(compiled.replay_classes(&cfgs).is_err());
        assert!(trace.price_all(&compiled, &cfgs).is_err());
    }
}
