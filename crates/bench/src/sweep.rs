//! Scenario sweeps: the kernel suite over a cache-geometry × tech-node
//! grid, on the execute-once/replay-many engine.
//!
//! A sweep answers the question the paper's single machine point cannot:
//! does the FITS win survive away from the SA-1100 — at smaller caches,
//! and at nodes where leakage rivals dynamic power? The cost discipline is
//! the whole point of the engine: every kernel executes **twice** (one
//! native run, one FITS run) no matter how many grid points are measured;
//! geometries replay the retired-instruction stream, tech nodes are free
//! re-pricings of an existing replay.
//!
//! [`run_sweep_with`] produces [`SweepResults`]; [`sweep_table`] renders
//! the per-scenario summary and [`sweep_json`] serializes the schema the
//! `fitssweep` CLI archives as `SWEEP.json` (validated by
//! [`fits_obs::json::validate_sweep_json`] before it is written).

use fits_kernels::kernels::{Kernel, Scale};
use fits_obs::json::{Spacing, Writer};
use fits_scenario::ScenarioMatrix;

use crate::experiment::{kernels_in_parallel, run_kernel_scenarios, ExperimentError};
use crate::report::{Row, Table};
use crate::{stamp, ConfigRun};

/// Suite-level totals for one ISA under one scenario.
#[derive(Clone, Copy, Debug, Default)]
pub struct IsaAggregate {
    /// Total cycles across the suite.
    pub cycles: u64,
    /// Total I-cache switching energy (J).
    pub icache_switching_j: f64,
    /// Total I-cache internal energy (J).
    pub icache_internal_j: f64,
    /// Total I-cache leakage energy (J).
    pub icache_leakage_j: f64,
    /// Total chip task energy (J).
    pub chip_j: f64,
    /// Worst per-kernel I-cache peak power (W).
    pub peak_w: f64,
}

impl IsaAggregate {
    /// Total I-cache task energy (J).
    #[must_use]
    pub fn icache_j(&self) -> f64 {
        self.icache_switching_j + self.icache_internal_j + self.icache_leakage_j
    }

    /// The aggregate of a single run — how one kernel's [`ConfigRun`] is
    /// reported in the same shape as a suite total (the `fitsd`
    /// `/simulate` response reuses the sweep's per-ISA schema).
    #[must_use]
    pub fn from_run(run: &ConfigRun) -> IsaAggregate {
        let mut agg = IsaAggregate::default();
        agg.absorb(run);
        agg
    }

    fn absorb(&mut self, run: &ConfigRun) {
        self.cycles += run.sim.cycles;
        self.icache_switching_j += run.icache.switching_j;
        self.icache_internal_j += run.icache.internal_j;
        self.icache_leakage_j += run.icache.leakage_j;
        self.chip_j += run.chip.total_j();
        self.peak_w = self.peak_w.max(run.icache.peak_w);
    }
}

/// One grid point: both ISAs aggregated over the whole suite.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Scenario id (`{tech}-i{size}`).
    pub id: String,
    /// I-cache capacity at this point.
    pub icache_bytes: u32,
    /// Tech-node name at this point.
    pub tech_name: String,
    /// Native-ISA suite totals.
    pub arm: IsaAggregate,
    /// FITS-ISA suite totals.
    pub fits: IsaAggregate,
}

impl SweepPoint {
    /// Fractional FITS-vs-ARM I-cache energy saving at this point.
    #[must_use]
    pub fn icache_saving(&self) -> f64 {
        saving(self.fits.icache_j(), self.arm.icache_j())
    }

    /// Fractional FITS-vs-ARM chip energy saving at this point.
    #[must_use]
    pub fn chip_saving(&self) -> f64 {
        saving(self.fits.chip_j, self.arm.chip_j)
    }

    /// The ARM run's I-cache leakage share — the "is this node
    /// leakage-dominated?" indicator the modern-node scenarios exist for.
    #[must_use]
    pub fn arm_leakage_share(&self) -> f64 {
        let total = self.arm.icache_j();
        if total == 0.0 {
            0.0
        } else {
            self.arm.icache_leakage_j / total
        }
    }
}

fn saving(ours: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        1.0 - ours / base
    }
}

/// A completed sweep: the grid axes and one [`SweepPoint`] per scenario.
#[derive(Clone, Debug)]
pub struct SweepResults {
    /// The workload scale every point ran at.
    pub scale: Scale,
    /// The kernels of the suite, in run order.
    pub kernels: Vec<Kernel>,
    /// Distinct I-cache sizes of the grid, in sweep order.
    pub icache_sizes: Vec<u32>,
    /// Distinct tech-node names of the grid, in sweep order.
    pub tech_names: Vec<String>,
    /// One aggregate per scenario, in matrix order.
    pub points: Vec<SweepPoint>,
    /// Functional executions performed per kernel (always 2: one native,
    /// one FITS — recorded so the archive documents the engine's cost).
    pub executions_per_kernel: u64,
}

/// Runs the suite over every scenario of `matrix`, one worker per CPU,
/// sharing `artifacts` (so each kernel compiles, profiles and synthesizes
/// once) and aggregating per scenario.
///
/// # Errors
///
/// Fails if any kernel fails (kernels are expected to be infallible; an
/// error indicates a regression).
///
/// # Panics
///
/// Re-raises the first worker panic in kernel order, like
/// [`crate::run_suite`].
pub fn run_sweep_with(
    artifacts: &crate::Artifacts,
    kernels: &[Kernel],
    scale: Scale,
    matrix: &ScenarioMatrix,
) -> Result<SweepResults, ExperimentError> {
    let per_kernel = kernels_in_parallel(kernels, |kernel| {
        run_kernel_scenarios(artifacts, kernel, scale, matrix)
    })?;

    let mut points: Vec<SweepPoint> = matrix
        .scenarios
        .iter()
        .map(|spec| SweepPoint {
            id: spec.id().to_string(),
            icache_bytes: spec.icache.size_bytes,
            tech_name: spec.tech_name.clone(),
            arm: IsaAggregate::default(),
            fits: IsaAggregate::default(),
        })
        .collect();
    for runs in &per_kernel {
        for (point, run) in points.iter_mut().zip(runs) {
            point.arm.absorb(&run.arm);
            point.fits.absorb(&run.fits);
        }
    }

    let mut icache_sizes = Vec::new();
    let mut tech_names = Vec::new();
    for p in &points {
        if !icache_sizes.contains(&p.icache_bytes) {
            icache_sizes.push(p.icache_bytes);
        }
        if !tech_names.contains(&p.tech_name) {
            tech_names.push(p.tech_name.clone());
        }
    }

    Ok(SweepResults {
        scale,
        kernels: kernels.to_vec(),
        icache_sizes,
        tech_names,
        points,
        executions_per_kernel: 2,
    })
}

/// The per-scenario summary table: FITS-vs-ARM savings and the node's
/// leakage share, one row per grid point.
#[must_use]
pub fn sweep_table(results: &SweepResults) -> Table {
    Table {
        id: "sweep",
        title: format!(
            "FITS vs ARM across the scenario grid ({} kernels, n={})",
            results.kernels.len(),
            results.scale.n
        ),
        unit: "%",
        scenario: None,
        columns: vec![
            "i$ total".to_string(),
            "i$ sw".to_string(),
            "i$ leak".to_string(),
            "chip".to_string(),
            "leak%".to_string(),
        ],
        rows: results
            .points
            .iter()
            .map(|p| Row {
                label: p.id.clone(),
                values: vec![
                    p.icache_saving(),
                    saving(p.fits.icache_switching_j, p.arm.icache_switching_j),
                    saving(p.fits.icache_leakage_j, p.arm.icache_leakage_j),
                    p.chip_saving(),
                    p.arm_leakage_share(),
                ],
            })
            .collect(),
    }
}

/// Writes one per-ISA aggregate as the sweep schema's inline
/// `"arm"`/`"fits"` object — shared with the `fitsd` response bodies so
/// every service that reports per-ISA numbers speaks one schema.
pub fn write_isa(w: &mut Writer, agg: &IsaAggregate) {
    w.begin_obj();
    w.field_u64("cycles", agg.cycles);
    for (key, v) in [
        ("icache_j", agg.icache_j()),
        ("icache_switching_j", agg.icache_switching_j),
        ("icache_internal_j", agg.icache_internal_j),
        ("icache_leakage_j", agg.icache_leakage_j),
        ("chip_j", agg.chip_j),
        ("peak_w", agg.peak_w),
    ] {
        w.field_f64_prec(key, v, 6);
    }
    w.end_obj();
}

/// Writes a sweep's members after its header: scale, kernels, grid axes
/// and one record per scenario. `lines` puts the grid and each scenario
/// record one member per line, as the `SWEEP.json` archive does; fitsd's
/// `/sweep` body keeps them inline.
pub fn write_sweep_fields(w: &mut Writer, results: &SweepResults, lines: bool) {
    let open = |w: &mut Writer| {
        if lines {
            w.begin_obj_lines();
        } else {
            w.begin_obj();
        }
    };
    w.field_u64("scale_n", u64::from(results.scale.n));
    w.field_u64("executions_per_kernel", results.executions_per_kernel);
    w.key("kernels");
    w.begin_arr();
    results.kernels.iter().for_each(|k| w.str(k.name()));
    w.end_arr();
    w.key("grid");
    open(w);
    w.key("icache_bytes");
    w.begin_arr();
    results.icache_sizes.iter().for_each(|&b| w.u64(b.into()));
    w.end_arr();
    w.key("tech");
    w.begin_arr();
    results.tech_names.iter().for_each(|t| w.str(t));
    w.end_arr();
    w.end_obj();
    w.key("scenarios");
    w.begin_arr_lines();
    for p in &results.points {
        open(w);
        w.field_str("id", &p.id);
        w.field_u64("icache_bytes", p.icache_bytes.into());
        w.field_str("tech", &p.tech_name);
        w.key("arm");
        write_isa(w, &p.arm);
        w.key("fits");
        write_isa(w, &p.fits);
        w.field_f64_prec("icache_saving", p.icache_saving(), 6);
        w.field_f64_prec("chip_saving", p.chip_saving(), 6);
        w.end_obj();
    }
    w.end_arr();
}

/// Serializes a sweep into the `powerfits-sweep-v1` JSON schema (see
/// [`fits_obs::json::validate_sweep_json`]).
#[must_use]
pub fn sweep_json(results: &SweepResults) -> String {
    let mut w = Writer::new(Spacing::Spaced);
    w.begin_obj_lines();
    w.field_str("schema", "powerfits-sweep-v1");
    w.key("meta");
    stamp::write_meta(&mut w, &[]);
    write_sweep_fields(&mut w, results, true);
    w.end_obj();
    w.finish() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use fits_obs::json::validate_sweep_json;
    use fits_power::TechParams;
    use fits_scenario::ScenarioSpec;

    fn tiny_sweep() -> SweepResults {
        let matrix = ScenarioMatrix::grid(
            &ScenarioSpec::sa1100(),
            &[16 * 1024, 8 * 1024],
            &[
                ("sa1100".to_string(), TechParams::sa1100()),
                ("65nm".to_string(), TechParams::modern_65nm()),
            ],
        )
        .expect("valid grid");
        let kernels = [Kernel::Crc32, Kernel::Bitcount];
        run_sweep_with(&crate::Artifacts::new(), &kernels, Scale::test(), &matrix)
            .expect("sweep runs")
    }

    #[test]
    fn sweep_aggregates_and_serializes_schema_valid_json() {
        let results = tiny_sweep();
        assert_eq!(results.points.len(), 4);
        assert_eq!(results.icache_sizes, vec![16 * 1024, 8 * 1024]);
        assert_eq!(results.tech_names, vec!["sa1100", "65nm"]);
        for p in &results.points {
            assert!(p.arm.cycles > 0 && p.fits.cycles > 0);
            assert!(
                p.icache_saving() > 0.05,
                "{}: FITS must still win ({:.3})",
                p.id,
                p.icache_saving()
            );
        }
        // The modern node is leakage-dominated relative to 0.35 um.
        let old = &results.points[0];
        let new = &results.points[2];
        assert_eq!(old.id, "sa1100-i16k");
        assert_eq!(new.id, "65nm-i16k");
        assert!(new.arm_leakage_share() > 2.0 * old.arm_leakage_share());
        // Tech re-pricing shares the replayed counts.
        assert_eq!(old.arm.cycles, new.arm.cycles);

        let json = sweep_json(&results);
        let counts = validate_sweep_json(&json).expect("schema-valid");
        assert_eq!(counts.scenarios, 4);

        let table = sweep_table(&results);
        assert_eq!(table.rows.len(), 4);
        assert!(table.to_string().contains("sa1100-i16k"));
    }

    #[test]
    fn every_sweep_mutant_is_rejected() {
        let json = sweep_json(&tiny_sweep());
        let doc = fits_obs::json::parse(&json).expect("parses");
        let all = fits_obs::json::mutants(&doc, &fits_obs::json::SWEEP);
        assert!(all.len() > 40, "{} mutants", all.len());
        for mutant in &all {
            assert!(validate_sweep_json(mutant).is_err(), "accepted {mutant}");
        }
    }
}
