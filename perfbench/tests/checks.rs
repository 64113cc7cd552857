//! Self-checks of the benchmark's fixed inputs and exact metrics.

use fits_kernels::kernels::{Kernel, Scale};
use fits_sim::{Ar32Set, Machine};
use perfbench::paper::{expected, library_op, traced_op, TracedCounts};
use perfbench::scales::{table, BAND, TARGET_INSTRUCTIONS};
use perfbench::trace::Tracer;

/// Every `paper` scale-table entry retires within the band of the shared
/// native-instruction target, and the table covers the suite once.
#[test]
fn scale_table_lands_on_the_target() {
    let entries = table();
    assert_eq!(entries.len(), Kernel::ALL.len());
    for kernel in Kernel::ALL {
        assert_eq!(
            entries.iter().filter(|(k, _)| k == kernel).count(),
            1,
            "{kernel} must appear once"
        );
    }
    for (kernel, scale) in entries {
        let program = kernel.compile(scale).expect("suite kernels compile");
        let steps = Machine::new(Ar32Set::load(&program))
            .run()
            .expect("suite kernels run")
            .steps;
        let off = steps as f64 / TARGET_INSTRUCTIONS as f64 - 1.0;
        assert!(
            off.abs() <= BAND,
            "{kernel} at n={} retires {steps} instructions, {:+.1}% from the target",
            scale.n,
            off * 100.0
        );
    }
}

/// The exact end-to-end metrics are bit-identical across repeat
/// invocations of `run_kernel_with`, and the traced path reproduces them.
#[test]
fn exact_ratios_repeat_bit_for_bit() {
    for (kernel, scale) in table()
        .into_iter()
        .filter(|(k, _)| matches!(k, Kernel::Crc32 | Kernel::Sha))
    {
        let want = expected(kernel, scale);
        let (_, first) = library_op(kernel, scale, want).expect("library op");
        let (_, second) = library_op(kernel, scale, want).expect("library op");
        let traced = traced_op(
            &mut Tracer::default(),
            &mut TracedCounts::default(),
            kernel,
            scale,
            want,
        )
        .expect("traced op");
        for other in [second, traced] {
            assert_eq!(first.icache_energy.to_bits(), other.icache_energy.to_bits());
            assert_eq!(first.code_size.to_bits(), other.code_size.to_bits());
        }
        assert!(first.icache_energy > 0.0 && first.icache_energy < 1.0);
    }
}

/// The traced `explore` path (the public calls inside
/// `synthesize_candidate` and `price_shared_member`) gives the library's
/// answers.
#[test]
fn explore_traced_path_matches_the_library() {
    use perfbench::explore::{draws, library_op, members, traced_op, Outcome};
    let table = members(Scale::test()).expect("members");
    let mut accepted = 0;
    for draw in draws(7, 6) {
        let (lib, _) = library_op(&table, &draw).expect("library op");
        let (traced, _) = traced_op(
            &mut Tracer::default(),
            &mut TracedCounts::default(),
            &table,
            &draw,
        )
        .expect("traced op");
        match (&lib, &traced) {
            (Outcome::Rejected, Outcome::Rejected) => {}
            (Outcome::Accepted(a, ra), Outcome::Accepted(b, rb)) => {
                accepted += 1;
                assert_eq!(ra, rb);
                assert_eq!(a, b);
            }
            _ => panic!("{draw:?}: library {lib:?}, traced {traced:?}"),
        }
    }
    assert!(accepted > 0, "the draws must exercise pricing");
}
