//! The SA-1100-style timing model: its configuration, its statistics and
//! its cache-event observer seam.
//!
//! The paper's §5 simulates Intel's SA-1100 StrongARM as a dual-issue
//! in-order machine at 200 MHz (§6.4.2: "the highest IPC possible is 2").
//! The model consumes the retired-instruction stream and accounts cycles
//! (the pipeline itself runs as the replay pass over a recorded trace, see
//! [`crate::RecordedTrace::price_all`]):
//!
//! * **Fetch** — one I-cache access per aligned 32-bit word. Two sequential
//!   16-bit FITS instructions share one fetch (the fetch-buffer effect that
//!   halves FITS I-cache traffic); every AR32 instruction is its own word.
//! * **Issue** — up to two instructions per cycle, subject to the classic
//!   in-order pairing rules: no intra-pair RAW (registers or flags), at most
//!   one memory op and one multiply per pair, a control-flow op ends the
//!   pair, and both must come from the same or adjacent fetch words.
//! * **Hazards** — one-cycle load-use interlock, multi-cycle multiply,
//!   static BTFNT branch prediction (backward taken / forward not-taken)
//!   with a redirect bubble on correct taken branches and a deeper flush on
//!   mispredicts, and blocking cache-miss stalls.

use crate::cache::GeometryError;
use crate::{CacheConfig, CacheStats};

/// Configuration of the simulated core, defaults modeled on the SA-1100.
#[derive(Clone, Debug)]
pub struct Sa1100Config {
    /// Instruction cache geometry (the experiments' controlled variable).
    pub icache: CacheConfig,
    /// Data cache geometry (held constant across configurations).
    pub dcache: CacheConfig,
    /// Cycles stalled on an I-cache miss.
    pub icache_miss_penalty: u64,
    /// Cycles stalled on a D-cache miss.
    pub dcache_miss_penalty: u64,
    /// Extra cycles occupied by a multiply.
    pub mul_extra_cycles: u64,
    /// Redirect bubble for a correctly-predicted taken branch.
    pub taken_branch_penalty: u64,
    /// Flush penalty for a mispredicted branch.
    pub mispredict_penalty: u64,
    /// Core clock, Hz (the paper's fixed 200 MHz).
    pub freq_hz: f64,
}

impl Sa1100Config {
    /// The baseline configuration with a 16 KB I-cache ("ARM16"/"FITS16").
    #[must_use]
    pub fn icache_16k() -> Sa1100Config {
        Sa1100Config {
            icache: CacheConfig::sa1100_icache(),
            dcache: CacheConfig::sa1100_dcache(),
            icache_miss_penalty: 24,
            dcache_miss_penalty: 24,
            mul_extra_cycles: 2,
            taken_branch_penalty: 1,
            mispredict_penalty: 3,
            freq_hz: 200.0e6,
        }
    }

    /// The half-size configuration with an 8 KB I-cache ("ARM8"/"FITS8").
    #[must_use]
    pub fn icache_8k() -> Sa1100Config {
        let mut cfg = Sa1100Config::icache_16k();
        cfg.icache = cfg
            .icache
            .resized(8 * 1024)
            .expect("8 KB divides the fixed SA-1100 geometry");
        cfg
    }

    /// A copy with the I-cache resized to `bytes`.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] when `bytes` is not compatible with the
    /// geometry (see [`CacheConfig::resized`]).
    pub fn with_icache_bytes(&self, bytes: u32) -> Result<Sa1100Config, GeometryError> {
        let mut cfg = self.clone();
        cfg.icache = cfg.icache.resized(bytes)?;
        Ok(cfg)
    }
}

/// Branch-behaviour counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Branch instructions retired.
    pub branches: u64,
    /// Taken branches.
    pub taken: u64,
    /// Static-prediction (BTFNT) mispredicts.
    pub mispredicted: u64,
}

/// Microarchitectural statistics from a timed run — the sole input (besides
/// geometry) to the `fits-power` model.
///
/// Equality is exact (every counter is an integer), which is what lets the
/// differential tests assert that pricing many configurations from one
/// recorded trace ([`crate::RecordedTrace::price_all`]) reproduces
/// per-configuration runs bit for bit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimResult {
    /// Total cycles.
    pub cycles: u64,
    /// Retired instructions (including failed-condition ones).
    pub retired: u64,
    /// Instructions whose condition passed.
    pub executed: u64,
    /// Issue groups (cycles that issued at least one instruction).
    pub issue_groups: u64,
    /// Groups that dual-issued.
    pub dual_issues: u64,
    /// Instruction-cache activity.
    pub icache: CacheStats,
    /// Data-cache activity.
    pub dcache: CacheStats,
    /// Retired-instruction counts per [`fits_isa::InstrClass`]
    /// (operate, memory, branch, trap).
    pub class_counts: [u64; 4],
    /// Branch behaviour.
    pub branch: BranchStats,
    /// Register-file read-port events.
    pub reg_reads: u64,
    /// Register-file write-port events.
    pub reg_writes: u64,
    /// Flag-register writes.
    pub flag_writes: u64,
    /// Multiplies executed.
    pub mul_ops: u64,
    /// Load-use interlock stalls.
    pub load_use_stalls: u64,
    /// Cycles lost to I-cache misses.
    pub icache_stall_cycles: u64,
    /// Cycles lost to D-cache misses.
    pub dcache_stall_cycles: u64,
}

impl SimResult {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Wall-clock runtime in seconds at the configured frequency.
    #[must_use]
    pub fn runtime_seconds(&self, freq_hz: f64) -> f64 {
        self.cycles as f64 / freq_hz
    }
}

/// Observer of the cache-level events the timing model generates while it
/// consumes a retired-instruction stream — the seam the `fits-obs` tracing
/// layer rides, attached with [`crate::RecordedTrace::price_with`].
///
/// Events fire only for **actual** cache accesses: a second 16-bit FITS
/// instruction served from the same fetched word produces no I-cache event,
/// exactly as it produces no access in [`CacheStats`]. A `hit == false`
/// event implies a line fill of `line_bytes / 4` words.
///
/// All methods default to no-ops, and `()` implements the trait, so the
/// untraced path ([`crate::RecordedTrace::price`] is `price_with(.., &mut
/// ())`) monomorphizes to exactly the pre-seam code — the differential
/// tests in `fits-obs` hold the two bit-identical.
pub trait CacheEventObserver {
    /// Whether this observer must see every access. Only the no-op `()`
    /// says no, which lets pricing count the I-cache hits of a block
    /// already resident in a cache that never evicts as one run instead
    /// of reporting them one by one.
    const OBSERVES: bool = true;

    /// One I-cache access of the aligned word at `word_addr`.
    fn icache_access(&mut self, word_addr: u32, hit: bool) {
        let _ = (word_addr, hit);
    }

    /// One D-cache access at `addr` (`write` for stores).
    fn dcache_access(&mut self, addr: u32, write: bool, hit: bool) {
        let _ = (addr, write, hit);
    }
}

/// The no-op observer used by the untraced fast path.
impl CacheEventObserver for () {
    const OBSERVES: bool = false;
}
