//! Host-speed calibration.
//!
//! On a shared VM the host's speed drifts by up to ~1.5x in phases that
//! last seconds, and on-CPU time drifts with it. Every workload therefore
//! times a frozen *reference loop* in short bursts between its ops and
//! divides each op's wall time by the median of the nearby bursts: a
//! calibrated time is "op cost in reference-loop units", which the drift
//! moves far less than it moves the raw milliseconds.
//!
//! The references live here and call no repository code, so no change to
//! the program can speed them up. Each one imitates the dominant layer of
//! the workload it calibrates:
//!
//! - [`Reference::Interp`] — a bytecode interpreter (match dispatch,
//!   register file, loads and stores), like the simulator that dominates
//!   `paper`;
//! - [`Reference::MapSort`] — ordered-map inserts plus a sort, like the
//!   synthesis and merging that dominate `explore`;
//! - [`Reference::Loopback`] — TCP connect/echo/close on loopback, like the
//!   per-request socket work that dominates `serve`'s cache hits.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crate::stats::median;

/// Bursts on each side of an op that its local reference is the median of.
const HALF_WINDOW: usize = 3;

/// A frozen reference loop.
pub enum Reference {
    /// Bytecode-interpreter dispatch.
    Interp,
    /// Ordered map plus sort.
    MapSort,
    /// Loopback connect/echo against a private echo thread.
    Loopback(EchoServer),
}

impl Reference {
    /// Runs one burst and returns its wall time in milliseconds.
    ///
    /// # Panics
    ///
    /// If the loopback echo fails (the benchmark cannot calibrate).
    pub fn burst_ms(&self) -> f64 {
        let start = Instant::now();
        match self {
            Reference::Interp => {
                black_box(interp(black_box(150_000)));
            }
            Reference::MapSort => {
                black_box(map_sort(black_box(8_000)));
            }
            Reference::Loopback(echo) => {
                for _ in 0..24 {
                    echo.round_trip().expect("loopback echo for calibration");
                }
            }
        }
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// One register-machine instruction of the interpreter reference.
#[derive(Clone, Copy)]
enum Op {
    Load(usize, usize),
    Store(usize, usize),
    Add(usize, usize, usize),
    Xor(usize, usize, usize),
    Rotl(usize, u32),
    AndImm(usize, u32),
    AddImm(usize, u32),
    BranchNonZero(usize, usize),
}

/// Runs a fixed hash-and-scatter program for `iterations` loop trips and
/// returns its checksum.
fn interp(iterations: u32) -> u32 {
    // r0 loop counter, r1 accumulator, r2 scratch, r3 address.
    let program = black_box([
        Op::AndImm(3, MASK),
        Op::Load(2, 3),
        Op::Add(1, 1, 2),
        Op::Rotl(1, 7),
        Op::Xor(1, 1, 0),
        Op::Add(3, 1, 0),
        Op::AndImm(3, MASK),
        Op::Store(3, 1),
        Op::Add(3, 3, 2),
        Op::AddImm(0, u32::MAX),
        Op::BranchNonZero(0, 0),
    ]);
    // A 4 KiB data memory: the reference must track the dispatch-bound
    // core speed, not memory contention (a 1 MiB memory tracked the
    // simulator worse).
    const MASK: u32 = 1023;
    let mut mem: Vec<u32> = (0..=MASK).map(|i| i.wrapping_mul(2_654_435_761)).collect();
    let mut regs = [iterations, 0, 0, 0];
    let mut pc = 0;
    while pc < program.len() {
        pc = match program[pc] {
            Op::Load(rd, ra) => {
                regs[rd] = mem[(regs[ra] & MASK) as usize];
                pc + 1
            }
            Op::Store(ra, rs) => {
                mem[(regs[ra] & MASK) as usize] = regs[rs];
                pc + 1
            }
            Op::Add(rd, a, b) => {
                regs[rd] = regs[a].wrapping_add(regs[b]);
                pc + 1
            }
            Op::Xor(rd, a, b) => {
                regs[rd] = regs[a] ^ regs[b];
                pc + 1
            }
            Op::Rotl(rd, k) => {
                regs[rd] = regs[rd].rotate_left(k);
                pc + 1
            }
            Op::AndImm(rd, k) => {
                regs[rd] &= k;
                pc + 1
            }
            Op::AddImm(rd, k) => {
                regs[rd] = regs[rd].wrapping_add(k);
                pc + 1
            }
            Op::BranchNonZero(r, target) => {
                if regs[r] != 0 {
                    target
                } else {
                    pc + 1
                }
            }
        };
    }
    regs[1] ^ mem[(regs[3] & MASK) as usize]
}

/// Inserts `n` pseudo-random keys into an ordered map, then sorts the
/// map's entries by value; returns a checksum.
fn map_sort(n: u64) -> u64 {
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..n {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *map.entry((x >> 33) % 1024).or_insert(0) += i ^ (x >> 7);
    }
    let mut entries: Vec<(u64, u64)> = map.iter().map(|(k, v)| (*v, *k)).collect();
    entries.sort_unstable();
    let mut names: Vec<String> = entries
        .iter()
        .take(256)
        .map(|(v, k)| format!("{k}:{v}"))
        .collect();
    names.sort();
    entries
        .iter()
        .fold(names.len() as u64, |h, (v, k)| h.rotate_left(5) ^ v ^ k)
}

/// A loopback echo service on its own thread: accepts a connection,
/// echoes one 64-byte message, closes.
pub struct EchoServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl EchoServer {
    /// Binds an ephemeral loopback port and starts the echo thread.
    ///
    /// # Errors
    ///
    /// Bind and spawn failures.
    pub fn start() -> std::io::Result<EchoServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("calib-echo".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        if let Ok(mut stream) = stream {
                            let mut buf = [0u8; 64];
                            if stream.read_exact(&mut buf).is_ok() {
                                let _ = stream.write_all(&buf);
                            }
                        }
                    }
                })?
        };
        Ok(EchoServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// One connect, 64-byte echo and close.
    ///
    /// # Errors
    ///
    /// Socket failures or a corrupted echo.
    pub fn round_trip(&self) -> std::io::Result<()> {
        let mut stream = TcpStream::connect(self.addr)?;
        let msg = [0x5au8; 64];
        stream.write_all(&msg)?;
        let mut back = [0u8; 64];
        stream.read_exact(&mut back)?;
        if back != msg {
            return Err(std::io::Error::other("echo mismatch"));
        }
        Ok(())
    }
}

impl Drop for EchoServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept so the thread sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Reference bursts interleaved with timed work, and the calibrated view
/// of that work.
pub struct Timeline {
    /// The reference timed between ops.
    pub reference: Reference,
    /// Burst durations in ms, in run order.
    pub bursts: Vec<f64>,
}

impl Timeline {
    /// A timeline over `reference`, warmed with a few untimed bursts.
    #[must_use]
    pub fn new(reference: Reference) -> Timeline {
        for _ in 0..4 {
            reference.burst_ms();
        }
        Timeline {
            reference,
            bursts: Vec::new(),
        }
    }

    /// Times one burst and returns the index of the gap it fills: work
    /// done after this call and before the next is "after burst `i`".
    pub fn burst(&mut self) -> usize {
        self.bursts.push(self.reference.burst_ms());
        self.bursts.len() - 1
    }

    /// The local reference (ms) for work done right after burst `i`: the
    /// median of the [`HALF_WINDOW`] bursts on either side.
    #[must_use]
    pub fn local_ref(&self, i: usize) -> f64 {
        let lo = (i + 1).saturating_sub(HALF_WINDOW);
        let hi = (i + 1 + HALF_WINDOW).min(self.bursts.len());
        median(&self.bursts[lo..hi])
    }

    /// Median burst duration over the whole run (ms).
    #[must_use]
    pub fn ref_ms(&self) -> f64 {
        median(&self.bursts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_are_deterministic() {
        assert_eq!(interp(1000), interp(1000));
        assert_eq!(map_sort(500), map_sort(500));
        let echo = EchoServer::start().expect("bind loopback");
        echo.round_trip().expect("echo");
    }

    #[test]
    fn local_reference_is_a_windowed_median() {
        let mut t = Timeline {
            reference: Reference::Interp,
            bursts: vec![1.0, 100.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        };
        // Work after burst 0 sees bursts 0..4 (the outlier is outvoted).
        assert_eq!(t.local_ref(0), 2.0);
        assert_eq!(t.local_ref(4), 4.0);
        t.bursts.truncate(2);
        assert_eq!(t.local_ref(1), 1.0);
    }
}
