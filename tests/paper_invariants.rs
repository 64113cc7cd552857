//! Shape invariants from the paper's evaluation, asserted on a reduced-scale
//! suite run: who wins, by roughly what factor, and where the crossovers
//! fall. These are the claims EXPERIMENTS.md records quantitatively.

#![allow(clippy::unwrap_used)]

use powerfits::bench::{figures, run_suite, Config};
use powerfits::kernels::kernels::{Kernel, Scale};

fn small_suite() -> powerfits::bench::SuiteResults {
    // A representative subset that covers tiny, mid and cache-straddling
    // footprints; the full suite runs in the repro binary.
    run_suite(
        &[
            Kernel::Crc32,
            Kernel::Bitcount,
            Kernel::Sha,
            Kernel::SusanCorners,
            Kernel::Dijkstra,
            Kernel::AdpcmDec,
        ],
        Scale { n: 128 },
    )
    .expect("suite runs")
}

#[test]
fn mapping_rates_match_the_paper_band() {
    // Paper: 96% average static, 98% average dynamic (Figures 3-4).
    let suite = small_suite();
    let fig3 = figures::fig3_static_mapping(&suite);
    let fig4 = figures::fig4_dynamic_mapping(&suite);
    assert!(
        fig3.column_mean(0) > 0.94,
        "static {:.3}",
        fig3.column_mean(0)
    );
    assert!(
        fig4.column_mean(0) > 0.96,
        "dynamic {:.3}",
        fig4.column_mean(0)
    );
}

#[test]
fn code_size_ordering_and_factors() {
    // Paper Figure 5: FITS ~0.53 of ARM, THUMB ~0.67, FITS < THUMB < ARM.
    let suite = small_suite();
    let fig5 = figures::fig5_code_size(&suite);
    let thumb = fig5.column_mean(1);
    let fits = fig5.column_mean(2);
    assert!(
        fits < thumb && thumb < 1.0,
        "ordering: fits {fits:.3} thumb {thumb:.3}"
    );
    assert!((0.48..=0.60).contains(&fits), "FITS ratio {fits:.3}");
    assert!((0.60..=0.85).contains(&thumb), "THUMB ratio {thumb:.3}");
}

#[test]
fn switching_saving_favors_fits_only() {
    // Paper Figure 7: FITS16 ~ FITS8 ~ 50%, ARM8 ~ 0.
    let suite = small_suite();
    let fig7 = figures::fig7_switching_saving(&suite);
    let (fits16, fits8, arm8) = (
        fig7.column_mean(0),
        fig7.column_mean(1),
        fig7.column_mean(2),
    );
    assert!(
        (0.30..=0.60).contains(&fits16),
        "FITS16 switching {fits16:.3}"
    );
    assert!((fits8 - fits16).abs() < 0.10, "FITS16 ~ FITS8");
    assert!(arm8.abs() < 0.08, "ARM8 saves virtually none: {arm8:.3}");
}

#[test]
fn total_cache_power_ordering() {
    // Paper Figure 11: FITS8 (47%) > ARM8 (27%) > FITS16 (18%).
    let suite = small_suite();
    let fig11 = figures::fig11_total_saving(&suite);
    let (fits16, fits8, arm8) = (
        fig11.column_mean(0),
        fig11.column_mean(1),
        fig11.column_mean(2),
    );
    assert!(fits8 > arm8, "FITS8 {fits8:.3} must beat ARM8 {arm8:.3}");
    assert!(arm8 > fits16, "ARM8 {arm8:.3} above FITS16 {fits16:.3}");
    assert!((0.38..=0.60).contains(&fits8), "FITS8 {fits8:.3}");
    assert!((0.10..=0.30).contains(&fits16), "FITS16 {fits16:.3}");
}

#[test]
fn chip_saving_favors_fits8() {
    // Paper Figure 12: FITS8 ~15% is the best chip-level outcome.
    let suite = small_suite();
    let fig12 = figures::fig12_chip_saving(&suite);
    let (fits16, fits8) = (fig12.column_mean(0), fig12.column_mean(1));
    assert!(fits8 > fits16, "FITS8 {fits8:.3} > FITS16 {fits16:.3}");
    assert!((0.08..=0.25).contains(&fits8), "FITS8 chip {fits8:.3}");
}

#[test]
fn fits8_misses_no_more_than_arm16() {
    // Paper §6.4: "8 Kb caches for FITS have no more misses than 16 Kb for
    // ARM" — the halved-footprint spatial-locality effect.
    let suite = small_suite();
    for k in &suite.kernels {
        let arm16 = k.run(Config::Arm16).sim.icache.misses_per_million();
        let fits8 = k.run(Config::Fits8).sim.icache.misses_per_million();
        assert!(
            fits8 <= arm16 * 1.05 + 50.0,
            "{}: FITS8 {fits8:.0} ppm vs ARM16 {arm16:.0} ppm",
            k.kernel
        );
    }
}

#[test]
fn ipc_comparable_for_fits8_and_worst_for_arm8() {
    // Paper Figure 14: FITS8 ~ ARM16; ARM8 is the clear loser.
    let suite = small_suite();
    let fig14 = figures::fig14_ipc(&suite);
    let (arm16, arm8, _fits16, fits8) = (
        fig14.column_mean(0),
        fig14.column_mean(1),
        fig14.column_mean(2),
        fig14.column_mean(3),
    );
    assert!(
        fits8 >= arm16 * 0.93,
        "FITS8 IPC {fits8:.3} vs ARM16 {arm16:.3}"
    );
    assert!(
        arm8 <= arm16 + 1e-9,
        "ARM8 IPC {arm8:.3} cannot beat ARM16 {arm16:.3}"
    );
}

#[test]
fn cache_breakdown_internal_dominates() {
    // Paper §6.3.2: internal power contributes more than half of total
    // cache power in all four schemes.
    let suite = small_suite();
    let fig6 = figures::fig6_power_breakdown(&suite);
    for row in &fig6.rows {
        assert!(
            row.values[1] > 0.5,
            "{}: internal share {:.3} must dominate",
            row.label,
            row.values[1]
        );
        let sum: f64 = row.values.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "shares sum to 1");
    }
}

#[test]
fn fits_halves_fetch_traffic() {
    // The fetch-buffer effect: two 16-bit instructions per 32-bit fetch.
    let suite = small_suite();
    for k in &suite.kernels {
        let arm = k.run(Config::Arm16).sim.icache.accesses as f64;
        let fits = k.run(Config::Fits16).sim.icache.accesses as f64;
        let ratio = fits / arm;
        assert!(
            (0.42..=0.65).contains(&ratio),
            "{}: fetch ratio {ratio:.3}",
            k.kernel
        );
    }
}
