//! The `paper` workload's per-kernel scale table.
//!
//! Kernel scales are not comparable across kernels: `n` counts elements,
//! bytes or blocks depending on the kernel. At one shared `n` the suite's
//! native instruction counts differ by more than 20x, so a percentile over
//! mixed kernels falls into the gaps between them. Each entry below is the
//! scale whose native run retires closest to [`TARGET_INSTRUCTIONS`]
//! (found by bisection on `Machine::run` steps); the `scale_table` test
//! re-checks every entry against [`BAND`].
//!
//! The target stays well below ~970k instructions, where `dijkstra` and
//! `susan.smoothing` stop growing with `n`.

use fits_kernels::kernels::{Kernel, Scale};

/// Native instructions every `paper` op aims to retire.
pub const TARGET_INSTRUCTIONS: u64 = 430_000;

/// Allowed relative distance of a table entry from the target.
pub const BAND: f64 = 0.05;

/// `(kernel name, n)` for every suite kernel, in suite order.
pub const SCALES: &[(&str, u32)] = &[
    ("bitcount", 205),
    ("qsort", 265),
    ("susan.smoothing", 459),
    ("susan.edges", 172),
    ("susan.corners", 111),
    ("jpeg.dct", 504),
    ("lame.filter", 1276),
    ("dijkstra", 128),
    ("patricia", 185),
    ("stringsearch", 57),
    ("ispell", 720),
    ("blowfish.enc", 1129),
    ("blowfish.dec", 1122),
    ("rijndael.enc", 1307),
    ("rijndael.dec", 1307),
    ("sha", 455),
    ("adpcm.enc", 712),
    ("adpcm.dec", 840),
    ("crc32", 2928),
    ("fft", 512),
    ("gsm", 223),
];

/// The table as typed `(kernel, scale)` pairs, in suite order.
///
/// # Panics
///
/// If a table name is not a suite kernel (caught by the `scale_table`
/// test).
#[must_use]
pub fn table() -> Vec<(Kernel, Scale)> {
    SCALES
        .iter()
        .map(|&(name, n)| {
            let kernel = Kernel::from_name(name).expect("scale table names suite kernels");
            (kernel, Scale { n })
        })
        .collect()
}
