//! Set-associative cache model with the activity counters the power model
//! consumes.
//!
//! Beyond the usual hit/miss accounting, every access records the Hamming
//! distance between successive data words on the cache's output port (the
//! "switching" activity of the paper's power breakdown) and feeds a sliding
//! cycle window that captures the busiest interval (the "peak power" input).

use std::fmt;

use crate::SimError;

/// Width of the sliding window used for peak-activity tracking, in cycles.
///
/// sim-panalyzer reports peak power per cycle; a single-cycle window makes
/// the metric binary (an access happened or not), so we follow the common
/// practice of a short multi-cycle window that still captures `di/dt`-scale
/// bursts.
pub const PEAK_WINDOW_CYCLES: u64 = 64;

/// Why a cache geometry is invalid.
///
/// Scenario sweeps feed user-supplied geometries into the simulator, so
/// invalid shapes must surface as values, not panics — every constructor
/// that derives a geometry returns this instead of asserting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GeometryError {
    /// The line size is below one word or not a power of two.
    BadLineSize {
        /// The offending line size in bytes.
        line_bytes: u32,
    },
    /// Zero ways requested.
    ZeroWays,
    /// The capacity does not divide into an integral number of sets.
    NotDivisible {
        /// Requested capacity in bytes.
        size_bytes: u32,
        /// Associativity.
        ways: u32,
        /// Line size in bytes.
        line_bytes: u32,
    },
    /// The set count is not a power of two (the index function is a mask).
    SetsNotPowerOfTwo {
        /// The resulting set count.
        sets: u32,
    },
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::BadLineSize { line_bytes } => {
                write!(f, "line size {line_bytes} must be a power of two >= 4")
            }
            GeometryError::ZeroWays => write!(f, "associativity must be nonzero"),
            GeometryError::NotDivisible {
                size_bytes,
                ways,
                line_bytes,
            } => write!(
                f,
                "{size_bytes} bytes not divisible into {ways} ways of {line_bytes}-byte lines"
            ),
            GeometryError::SetsNotPowerOfTwo { sets } => {
                write!(f, "set count {sets} must be a power of two")
            }
        }
    }
}

impl std::error::Error for GeometryError {}

/// Replacement policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Replacement {
    /// Least-recently-used.
    Lru,
    /// Pseudo-random (LFSR victim selection), the policy ARM's
    /// high-associativity caches actually implement — and what keeps a
    /// slightly-overflowing loop from degenerating into the 100% miss rate
    /// LRU produces on cyclic reference streams.
    PseudoRandom,
}

/// Geometry and identity of a cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable name (for reports).
    pub name: String,
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity (number of ways).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// The SA-1100 instruction cache: 16 KB, 32-way, 32-byte lines.
    #[must_use]
    pub fn sa1100_icache() -> CacheConfig {
        CacheConfig {
            name: "icache".to_string(),
            size_bytes: 16 * 1024,
            ways: 32,
            line_bytes: 32,
            replacement: Replacement::PseudoRandom,
        }
    }

    /// The SA-1100 data cache: 8 KB, 32-way, 32-byte lines.
    #[must_use]
    pub fn sa1100_dcache() -> CacheConfig {
        CacheConfig {
            name: "dcache".to_string(),
            size_bytes: 8 * 1024,
            ways: 32,
            line_bytes: 32,
            replacement: Replacement::PseudoRandom,
        }
    }

    /// Returns a copy resized to `size_bytes` (associativity and line size
    /// kept; the set count shrinks/grows), the paper's single controlled
    /// variable.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] when the requested capacity does not
    /// produce a valid geometry (non-integral or non-power-of-two set
    /// count). Sweep grids are user input, so this never panics.
    pub fn resized(&self, size_bytes: u32) -> Result<CacheConfig, GeometryError> {
        let mut cfg = self.clone();
        cfg.size_bytes = size_bytes;
        validate_geometry(&cfg)?;
        Ok(cfg)
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// Peak-activity snapshot: the busiest [`PEAK_WINDOW_CYCLES`]-cycle window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowPeak {
    /// Accesses in the busiest window.
    pub accesses: u64,
    /// Output-bit toggles in that window.
    pub toggles: u64,
    /// Line-fill words in that window.
    pub fill_words: u64,
}

/// Activity counters accumulated by a [`Cache`] over a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Words transferred by line fills.
    pub fill_words: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
    /// Write accesses (0 for an I-cache).
    pub writes: u64,
    /// Total Hamming distance between successive output words.
    pub output_toggles: u64,
    /// Busiest-window snapshot.
    pub peak: WindowPeak,
}

impl CacheStats {
    /// Miss rate as a fraction of accesses (0 when idle).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Misses per million accesses, the unit of the paper's Figure 13.
    #[must_use]
    pub fn misses_per_million(&self) -> f64 {
        self.miss_rate() * 1.0e6
    }
}

/// "No entry" sentinel for the line→way shortcut table: the low 32 bits
/// (the line-address field) are all-ones, which no validated geometry can
/// produce (line addresses are at most 30 bits wide).
const SHORTCUT_EMPTY: u64 = u64::MAX;

/// Entry count of the direct-mapped line→way shortcut table (2 KB per
/// cache): large enough to cover a hot loop's code and data lines, small
/// enough to stay L1-resident even with several replay lanes live.
const SHORTCUT_ENTRIES: usize = 256;

/// An LRU set-associative cache.
///
/// Line state is stored structure-of-arrays: the associative search only
/// streams the contiguous `u32` tag array (128 B for a 32-way set) instead
/// of striding over fat per-line records, which is what keeps the replay
/// engine's per-lane loop fast.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// Per-line tag, indexed `set * ways + way`. Only the first
    /// `filled[set]` ways of a set are meaningful.
    tags: Vec<u32>,
    /// Number of valid ways per set. Lines are never invalidated and fills
    /// always prefer the first free way, so validity is exactly "way index
    /// below this count" — the associative search scans only that prefix.
    filled: Vec<u32>,
    /// Per-line dirty bit.
    dirty: Vec<bool>,
    /// Per-line last-use tick for LRU victim selection (the tick is the
    /// running access count).
    lru: Vec<u64>,
    /// Running totals. `hits` is derived (`accesses - misses`) by
    /// [`Cache::finish`], not maintained per access.
    stats: CacheStats,
    last_output: u32,
    window_start: u64,
    /// Snapshot of the running totals at the start of the in-flight peak
    /// window; the window's own counters are the difference between the
    /// totals and this snapshot.
    win_start: WindowPeak,
    /// Deterministic xorshift state for pseudo-random victim selection.
    lfsr: u32,
    /// Lossy direct-mapped shortcut from line address to resident way
    /// index — the single fast path of [`Cache::access`]. Each entry packs
    /// `line_addr | (global way index << 32)` so the lookup is one load;
    /// entries are validated on use against `tags` (a refilled way no
    /// longer matches, falling back to the associative search), so stale
    /// entries are harmless and no invalidation bookkeeping is needed.
    shortcut: Vec<u64>,

    /// `log2(line_bytes)` when the line size is a power of two (the
    /// validated case), so the per-access address math is a shift instead
    /// of a hardware divide. `None` falls back to division — same values,
    /// only slower — for unvalidated geometries constructed in tests.
    line_shift: Option<u32>,
    /// `sets - 1` when the set count is a power of two (mask indexing) and
    /// `log2(sets)` for the tag shift, same fallback rule.
    set_mask_shift: Option<(u32, u32)>,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Cache {
        let n = (cfg.sets() * cfg.ways) as usize;
        let line_shift = (cfg.line_bytes.is_power_of_two() && cfg.line_bytes >= 4)
            .then(|| cfg.line_bytes.trailing_zeros());
        let sets = cfg.sets();
        let set_mask_shift =
            (sets > 0 && sets.is_power_of_two()).then(|| (sets - 1, sets.trailing_zeros()));
        Cache {
            cfg,
            tags: vec![u32::MAX; n],
            filled: vec![0; sets as usize],
            dirty: vec![false; n],
            lru: vec![0; n],
            stats: CacheStats::default(),
            last_output: 0,
            window_start: 0,
            win_start: WindowPeak::default(),
            lfsr: 0x2545_f491,
            shortcut: vec![SHORTCUT_EMPTY; SHORTCUT_ENTRIES],
            line_shift,
            set_mask_shift,
        }
    }

    /// `addr / line_bytes` via shift when the geometry allows.
    #[inline]
    fn line_addr_of(&self, addr: u32) -> u32 {
        match self.line_shift {
            Some(shift) => addr >> shift,
            None => addr / self.cfg.line_bytes,
        }
    }

    /// `(line_addr % sets, line_addr / sets)` via mask/shift when possible.
    #[inline]
    fn set_and_tag(&self, line_addr: u32) -> (u32, u32) {
        match self.set_mask_shift {
            Some((mask, shift)) => (line_addr & mask, line_addr >> shift),
            None => (line_addr % self.cfg.sets(), line_addr / self.cfg.sets()),
        }
    }

    /// Inverse of [`Cache::set_and_tag`]: the line address resident in a
    /// set under a given tag.
    #[inline]
    fn line_addr_from(&self, set: u32, tag: u32) -> u32 {
        match self.set_mask_shift {
            Some((_, shift)) => tag << shift | set,
            None => tag * self.cfg.sets() + set,
        }
    }

    /// The cache's geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics. Call [`Cache::finish`] first to fold the
    /// in-flight peak window in.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn roll_window(&mut self, cycle: u64) {
        let bucket = cycle / PEAK_WINDOW_CYCLES;
        if bucket != self.window_start {
            self.fold_window();
            self.window_start = bucket;
        }
    }

    /// Closes the in-flight window: derives its counters from the running
    /// totals (the hot access path maintains no separate window counters),
    /// folds it into the peak, and starts the next window at the current
    /// totals.
    #[cold]
    fn fold_window(&mut self) {
        let accesses = self.stats.accesses - self.win_start.accesses;
        if accesses > self.stats.peak.accesses {
            self.stats.peak = WindowPeak {
                accesses,
                toggles: self.stats.output_toggles - self.win_start.toggles,
                fill_words: self.stats.fill_words - self.win_start.fill_words,
            };
        }
        self.win_start = WindowPeak {
            accesses: self.stats.accesses,
            toggles: self.stats.output_toggles,
            fill_words: self.stats.fill_words,
        };
    }

    /// Performs one access at simulation time `cycle`. Returns `true` on a
    /// hit. `data` is the word on the cache's data port (instruction word or
    /// load/store data), used for toggle accounting.
    ///
    /// The body is split so the dominant case — a shortcut-table hit —
    /// stays small enough to inline into the replay engine's per-lane
    /// loop; the associative search and the miss path live in
    /// `Cache::access_search`.
    ///
    /// Soundness of the shortcut hit: the table holds only currently
    /// resident lines — entries are written on search hits and fills,
    /// and the entry of an evicted line is cleared when its way is
    /// refilled — so a matching entry *is* the hit, with no tag
    /// re-validation on the fast path.
    #[inline]
    pub fn access(&mut self, addr: u32, write: bool, data: u32, cycle: u64) -> bool {
        let toggles = u64::from((self.last_output ^ data).count_ones());
        self.last_output = data;
        self.access_toggles(addr, write, toggles, cycle)
    }

    /// [`Cache::access`] with the output-port toggle count already
    /// computed. The toggle sequence is a pure function of the access
    /// stream, so the replay engine computes each delta once in the
    /// shared pipeline pass and every lane calls this entry point —
    /// `last_output` is left untouched (nothing reads it on this path).
    #[inline]
    pub(crate) fn access_toggles(
        &mut self,
        addr: u32,
        write: bool,
        toggles: u64,
        cycle: u64,
    ) -> bool {
        self.roll_window(cycle);
        self.stats.accesses += 1;
        self.stats.writes += u64::from(write);
        self.stats.output_toggles += toggles;

        let line_addr = self.line_addr_of(addr);
        let h = line_addr as usize & (SHORTCUT_ENTRIES - 1);
        let entry = self.shortcut[h];
        if entry as u32 == line_addr {
            let idx = (entry >> 32) as usize;
            self.lru[idx] = self.stats.accesses;
            if write {
                self.dirty[idx] = true;
            }
            return true;
        }

        self.access_search(line_addr, write)
    }

    /// Counts `accesses` hits with `toggles` output-port toggles between
    /// them, all at cycles in the peak window of `cycle` — exactly what
    /// that many [`Cache::access_toggles`] calls on resident lines count.
    /// A hit also refreshes its line's LRU tick, which only victim
    /// selection reads, so this is exact on a cache that never evicts.
    #[inline]
    pub(crate) fn count_hits(&mut self, cycle: u64, accesses: u64, toggles: u64) {
        self.roll_window(cycle);
        self.stats.accesses += accesses;
        self.stats.output_toggles += toggles;
    }

    /// The associative-search and miss half of [`Cache::access`]; counter
    /// updates are identical to the pre-split single function. Kept out of
    /// line so the inlined fast path stays register-allocatable.
    #[inline(never)]
    fn access_search(&mut self, line_addr: u32, write: bool) -> bool {
        let (set, tag) = self.set_and_tag(line_addr);
        let ways = self.cfg.ways as usize;
        let base = set as usize * ways;
        let filled = self.filled[set as usize] as usize;
        let set_tags = &self.tags[base..base + filled];

        if let Some(way) = set_tags.iter().position(|&t| t == tag) {
            let idx = base + way;
            self.lru[idx] = self.stats.accesses;
            if write {
                self.dirty[idx] = true;
            }
            let h = line_addr as usize & (SHORTCUT_ENTRIES - 1);
            self.shortcut[h] = u64::from(line_addr) | (idx as u64) << 32;
            return true;
        }

        // Miss: pick a victim per the replacement policy and fill. Free
        // ways are always preferred (in way order, hence the prefix
        // invariant on `filled`).
        self.stats.misses += 1;
        let way = if filled < ways {
            self.filled[set as usize] += 1;
            filled
        } else {
            match self.cfg.replacement {
                Replacement::Lru => {
                    let set_lru = &self.lru[base..base + ways];
                    set_lru
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, l)| **l)
                        .map(|(i, _)| i)
                        .expect("at least one way")
                }
                Replacement::PseudoRandom => {
                    // xorshift32
                    self.lfsr ^= self.lfsr << 13;
                    self.lfsr ^= self.lfsr >> 17;
                    self.lfsr ^= self.lfsr << 5;
                    (self.lfsr as usize) % ways
                }
            }
        };
        let idx = base + way;
        if way < filled {
            if self.dirty[idx] {
                self.stats.writebacks += 1;
            }
            // Evicting a resident line: clear its shortcut entry (if it
            // still points at this way) to keep the table's "resident
            // lines only" invariant that lets `access` skip tag
            // validation.
            let evicted = self.line_addr_from(set, self.tags[idx]);
            let eh = evicted as usize & (SHORTCUT_ENTRIES - 1);
            if self.shortcut[eh] == u64::from(evicted) | (idx as u64) << 32 {
                self.shortcut[eh] = SHORTCUT_EMPTY;
            }
        }
        self.tags[idx] = tag;
        self.dirty[idx] = write;
        self.lru[idx] = self.stats.accesses;
        let h = line_addr as usize & (SHORTCUT_ENTRIES - 1);
        self.shortcut[h] = u64::from(line_addr) | (idx as u64) << 32;
        let fill = u64::from(self.cfg.line_bytes / 4);
        self.stats.fill_words += fill;
        false
    }

    /// Folds the in-flight peak window into the statistics and
    /// materializes the derived counters (`hits`). Idempotent.
    pub fn finish(&mut self) {
        self.fold_window();
        self.stats.hits = self.stats.accesses - self.stats.misses;
    }

    /// Checks whether an address would hit, without updating any state
    /// (used by tests and the reference model).
    #[must_use]
    pub fn probe(&self, addr: u32) -> bool {
        let line_addr = addr / self.cfg.line_bytes;
        let set = line_addr % self.cfg.sets();
        let tag = line_addr / self.cfg.sets();
        let ways = self.cfg.ways as usize;
        let base = set as usize * ways;
        let filled = self.filled[set as usize] as usize;
        self.tags[base..base + filled].contains(&tag)
    }
}

#[cfg(test)]
/// A deliberately naive reference model (fully associative per set via
/// linear search over an unbounded history) used by property tests to
/// validate the LRU implementation.
#[derive(Debug, Default)]
struct RefCacheModel {
    history: Vec<(u32, u64)>, // (line address, last use)
    tick: u64,
}

#[cfg(test)]
impl RefCacheModel {
    /// Mirrors [`Cache::access`] for hit/miss behaviour given a geometry.
    fn access(&mut self, cfg: &CacheConfig, addr: u32) -> bool {
        self.tick += 1;
        let line_addr = addr / cfg.line_bytes;
        let set = line_addr % cfg.sets();
        if let Some(entry) = self.history.iter_mut().find(|(l, _)| *l == line_addr) {
            entry.1 = self.tick;
            return true;
        }
        // Count resident lines of this set; evict LRU if full.
        let mut residents: Vec<usize> = self
            .history
            .iter()
            .enumerate()
            .filter(|(_, (l, _))| l % cfg.sets() == set)
            .map(|(i, _)| i)
            .collect();
        if residents.len() >= cfg.ways as usize {
            residents.sort_by_key(|&i| self.history[i].1);
            let evict = residents[0];
            self.history.remove(evict);
        }
        self.history.push((line_addr, self.tick));
        false
    }
}

/// Validates a cache geometry, returning the typed reason on failure.
///
/// # Errors
///
/// The first [`GeometryError`] found (line size, then ways, then
/// divisibility, then set count).
pub fn validate_geometry(cfg: &CacheConfig) -> Result<(), GeometryError> {
    if cfg.line_bytes < 4 || !cfg.line_bytes.is_power_of_two() {
        return Err(GeometryError::BadLineSize {
            line_bytes: cfg.line_bytes,
        });
    }
    if cfg.ways == 0 {
        return Err(GeometryError::ZeroWays);
    }
    if cfg.size_bytes == 0 || !cfg.size_bytes.is_multiple_of(cfg.ways * cfg.line_bytes) {
        return Err(GeometryError::NotDivisible {
            size_bytes: cfg.size_bytes,
            ways: cfg.ways,
            line_bytes: cfg.line_bytes,
        });
    }
    if !cfg.sets().is_power_of_two() {
        return Err(GeometryError::SetsNotPowerOfTwo { sets: cfg.sets() });
    }
    Ok(())
}

/// Validates a cache configuration for use by a simulation run.
///
/// # Errors
///
/// Returns [`SimError::BadInstruction`] describing the problem when the
/// geometry is degenerate (zero sets, non-power-of-two line size, …).
pub fn validate_config(cfg: &CacheConfig) -> Result<(), SimError> {
    validate_geometry(cfg).map_err(|e| SimError::BadInstruction {
        what: format!("cache {}: {e}", cfg.name),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheConfig {
        CacheConfig {
            name: "t".into(),
            size_bytes: 256,
            ways: 2,
            line_bytes: 32,
            replacement: Replacement::Lru,
        }
    }

    #[test]
    fn geometry() {
        let c = CacheConfig::sa1100_icache();
        assert_eq!(c.sets(), 16);
        assert_eq!(c.resized(8 * 1024).unwrap().sets(), 8);
        assert_eq!(tiny().sets(), 4);
        validate_config(&c).unwrap();
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(tiny());
        assert!(!c.access(0x1000, false, 1, 0));
        assert!(c.access(0x1000, false, 1, 1));
        assert!(c.access(0x101c, false, 1, 2), "same line");
        assert!(!c.access(0x1020, false, 1, 3), "next line");
        c.finish();
        let s = c.stats();
        assert_eq!(s.accesses, 4);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 2);
        assert_eq!(s.fill_words, 16);
    }

    #[test]
    fn lru_eviction() {
        let mut c = Cache::new(tiny()); // 4 sets, 2 ways, 32B lines
                                        // Three lines mapping to set 0: line addresses 0, 4, 8.
        let a = 0x0000; // set 0
        let b = 4 * 32; // set 0
        let d = 8 * 32; // set 0
        assert!(!c.access(a, false, 0, 0));
        assert!(!c.access(b, false, 0, 1));
        assert!(c.access(a, false, 0, 2)); // a most recent
        assert!(!c.access(d, false, 0, 3)); // evicts b (LRU)
        assert!(c.access(a, false, 0, 4));
        assert!(!c.access(b, false, 0, 5), "b was evicted");
    }

    #[test]
    fn writeback_counting() {
        let mut c = Cache::new(tiny());
        let a = 0x0000;
        let b = 4 * 32;
        let d = 8 * 32;
        c.access(a, true, 0, 0); // dirty
        c.access(b, false, 0, 1);
        c.access(d, false, 0, 2); // evicts a (dirty)
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn toggle_accounting_uses_hamming_distance() {
        let mut c = Cache::new(tiny());
        c.access(0, false, 0x0000_0000, 0);
        c.access(0, false, 0xffff_ffff, 1);
        c.access(0, false, 0xffff_fff0, 2);
        assert_eq!(c.stats().output_toggles, 32 + 4);
    }

    #[test]
    fn peak_window_tracks_busiest_interval() {
        let mut c = Cache::new(tiny());
        // Three accesses in window 0, one in window 1.
        c.access(0, false, 0, 0);
        c.access(0, false, 0, 1);
        c.access(0, false, 0, 2);
        c.access(0, false, 0, PEAK_WINDOW_CYCLES + 1);
        c.finish();
        assert_eq!(c.stats().peak.accesses, 3);
    }

    #[test]
    fn matches_reference_model() {
        let cfg = tiny();
        let mut c = Cache::new(cfg.clone());
        let mut r = RefCacheModel::default();
        // A pseudo-random but deterministic address stream.
        let mut x: u32 = 12345;
        for i in 0..2000u64 {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            let addr = (x >> 7) % 4096;
            assert_eq!(
                c.access(addr, false, 0, i),
                r.access(&cfg, addr),
                "divergence at access {i} addr {addr:#x}"
            );
        }
    }

    #[test]
    fn rejects_bad_geometry() {
        let mut cfg = tiny();
        cfg.ways = 0;
        assert!(validate_config(&cfg).is_err());
        let mut cfg = tiny();
        cfg.line_bytes = 24;
        assert!(validate_config(&cfg).is_err());
        let mut cfg = tiny();
        cfg.size_bytes = 300;
        assert!(validate_config(&cfg).is_err());
        let mut cfg = tiny();
        cfg.size_bytes = 192; // 3 sets
        assert!(validate_config(&cfg).is_err());
    }
}
