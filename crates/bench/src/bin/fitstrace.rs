//! `fitstrace` — end-to-end trace of one kernel through the FITS flow.
//!
//! Runs the full pipeline (compile → profile → synthesize → translate →
//! verify → execute) with `fits-obs` span timing attached, then traces one
//! ARM run and one FITS run under the SA-1100 timing model and joins the
//! per-PC histograms against the I-cache power model. The report answers
//! "where does the power go": a per-phase timing tree, an ARM-vs-FITS
//! summary, a per-function energy rollup and the top-N hot basic blocks
//! with attributed switching/internal/leakage energy for both ISAs.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p fits-bench --bin fitstrace -- crc32
//! cargo run --release -p fits-bench --bin fitstrace -- sha --scale 256 --top 15
//! cargo run --release -p fits-bench --bin fitstrace -- crc32 --icache 8k \
//!     --json trace.jsonl
//! cargo run --release -p fits-bench --bin fitstrace -- crc32 --scenario 65nm
//! cargo run --release -p fits-bench --bin fitstrace -- --smoke   # CI check
//! ```
//!
//! `--json` writes a JSONL event stream (`meta`, `span`, `block`,
//! `summary` lines) and re-validates it with `fits_obs::json` before
//! reporting success; `--smoke` is the CI mode — a small fixed run whose
//! export must pass schema validation.

use std::sync::Arc;

use fits_kernels::kernels::{Kernel, Scale};
use fits_obs::fmt::{fmt_count, fmt_energy};
use fits_obs::json::{validate_trace_jsonl, Spacing, Writer};
use fits_obs::{attribute_kernel, trace_timed_run, Attribution, SpanRegistry};
use fits_power::{cache_power, CachePower};
use fits_scenario::ScenarioSpec;
use fits_sim::{Ar32Set, Machine, SimResult};

struct Options {
    kernel: Kernel,
    scale: Scale,
    scenario: ScenarioSpec,
    top: usize,
    json: Option<String>,
    smoke: bool,
}

fn parse_args() -> Options {
    let mut kernel = None;
    let mut icache_bytes = None;
    let mut opts = Options {
        kernel: Kernel::Crc32,
        scale: Scale::experiment(),
        scenario: ScenarioSpec::sa1100(),
        top: 10,
        json: None,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--scale needs a value"));
                let n = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("invalid --scale value: {v}")));
                opts.scale = Scale { n };
            }
            "--icache" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--icache needs 8k or 16k"));
                icache_bytes = match v.as_str() {
                    "8k" => Some(8 * 1024),
                    "16k" => Some(16 * 1024),
                    other => usage(&format!("invalid --icache value: {other} (use 8k or 16k)")),
                };
            }
            "--scenario" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--scenario needs a preset name"));
                opts.scenario = match ScenarioSpec::preset(&v) {
                    Some(spec) => spec,
                    None => usage(&format!(
                        "unknown scenario preset: {v} (presets: {})",
                        fits_scenario::PRESET_NAMES.join(" ")
                    )),
                };
            }
            "--top" => {
                let v = args.next().unwrap_or_else(|| usage("--top needs a count"));
                opts.top = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("invalid --top value: {v}")));
            }
            "--json" => {
                opts.json = Some(args.next().unwrap_or_else(|| usage("--json needs a path")));
            }
            "--smoke" => opts.smoke = true,
            "--help" | "-h" => usage(""),
            name => {
                let k = Kernel::from_name(name)
                    .unwrap_or_else(|| usage(&format!("unknown kernel: {name}")));
                kernel = Some(k);
            }
        }
    }
    match kernel {
        Some(k) => opts.kernel = k,
        None if opts.smoke => {} // smoke defaults to crc32
        None => usage("a kernel name is required (or --smoke)"),
    }
    if opts.smoke {
        // Small, fast, deterministic: the CI gate checks the machinery and
        // the export schema, not the numbers.
        opts.scale = Scale::test();
        opts.top = opts.top.min(5);
    }
    if let Some(bytes) = icache_bytes {
        opts.scenario = opts
            .scenario
            .with_icache_bytes(bytes)
            .unwrap_or_else(|e| usage(&format!("--icache {bytes} does not fit the scenario: {e}")));
    }
    opts
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("fitstrace: {err}");
    }
    eprintln!(
        "usage: fitstrace KERNEL [--scale N] [--icache 8k|16k] [--scenario PRESET] \
         [--top N] [--json PATH] [--smoke]"
    );
    eprintln!("kernels: {}", kernel_names().join(" "));
    eprintln!("scenarios: {}", fits_scenario::PRESET_NAMES.join(" "));
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn kernel_names() -> Vec<&'static str> {
    Kernel::ALL.iter().map(|k| k.name()).collect()
}

fn fail(what: &str, err: &dyn std::fmt::Display) -> ! {
    eprintln!("fitstrace: {what}: {err}");
    std::process::exit(1);
}

struct IsaReport {
    isa: &'static str,
    sim: SimResult,
    power: CachePower,
}

fn main() {
    let opts = parse_args();
    let sa = opts.scenario.machine_config();
    let tech = opts.scenario.tech.clone();
    let reg = SpanRegistry::new();

    eprintln!(
        "fitstrace: {} at n={}, scenario {}",
        opts.kernel.name(),
        opts.scale.n,
        opts.scenario.id()
    );

    // --- Traced pipeline ----------------------------------------------
    let outer = reg.enter("fitstrace");
    let program = reg.time("compile", || opts.kernel.compile(opts.scale));
    let program = match program {
        Ok(p) => p,
        Err(e) => fail("compile", &e),
    };
    let flow_outcome = {
        let _flow = reg.enter("flow");
        fits_verify::verified_flow()
            .with_observer(Arc::new(reg.clone()))
            .run(&program)
    };
    let flow_outcome = match flow_outcome {
        Ok(f) => f,
        Err(e) => fail("flow", &e),
    };

    let (arm, fits) = {
        let _sim = reg.enter("simulate");
        let arm = reg.time("arm", || {
            trace_timed_run(&mut Machine::new(Ar32Set::load(&program)), &sa)
        });
        let fits = reg.time("fits", || {
            let set = match fits_core::FitsSet::load(&flow_outcome.fits) {
                Ok(s) => s,
                Err(e) => fail("fits decode", &e),
            };
            trace_timed_run(&mut Machine::new(set), &sa)
        });
        (arm, fits)
    };
    let (_, arm_sim, arm_trace) = match arm {
        Ok(r) => r,
        Err(e) => fail("arm simulation", &e),
    };
    let (_, fits_sim, fits_trace) = match fits {
        Ok(r) => r,
        Err(e) => fail("fits simulation", &e),
    };

    let (attr, arm_rep, fits_rep) = reg.time("power", || {
        let arm_power = cache_power(&sa.icache, &arm_sim.icache, arm_sim.cycles, &tech);
        let fits_power = cache_power(&sa.icache, &fits_sim.icache, fits_sim.cycles, &tech);
        let attr = attribute_kernel(
            &program,
            &flow_outcome.mapping.expansion,
            (&arm_trace, &arm_power),
            (&fits_trace, &fits_power),
        )
        .with_scenario(opts.scenario.id());
        (
            attr,
            IsaReport {
                isa: "arm",
                sim: arm_sim,
                power: arm_power,
            },
            IsaReport {
                isa: "fits",
                sim: fits_sim,
                power: fits_power,
            },
        )
    });
    drop(outer);

    // --- Text report ---------------------------------------------------
    println!(
        "fitstrace: {} (n={}, scenario {}, ARM vs FITS)",
        opts.kernel.name(),
        opts.scale.n,
        opts.scenario.id(),
    );
    println!("\nphase timings:");
    print!("{}", indent(&reg.render(), 2));

    println!("\nper-ISA summary (I-cache power):");
    println!(
        "  {:<5} {:>14} {:>14} {:>12} {:>10} {:>12} {:>12} {:>12}",
        "isa", "cycles", "retired", "i$ accesses", "i$ misses", "switching", "internal", "leakage"
    );
    for rep in [&arm_rep, &fits_rep] {
        println!(
            "  {:<5} {:>14} {:>14} {:>12} {:>10} {:>12} {:>12} {:>12}",
            rep.isa,
            fmt_count(rep.sim.cycles),
            fmt_count(rep.sim.retired),
            fmt_count(rep.sim.icache.accesses),
            fmt_count(rep.sim.icache.misses),
            fmt_energy(rep.power.switching_j),
            fmt_energy(rep.power.internal_j),
            fmt_energy(rep.power.leakage_j),
        );
    }

    println!("\nper-function energy (total attributed I-cache energy):");
    for (func, a, f) in attr.by_function() {
        if a.retired == 0 && f.retired == 0 {
            continue;
        }
        println!(
            "  {:<18} arm {:>12}  fits {:>12}",
            func,
            fmt_energy(a.total_j()),
            fmt_energy(f.total_j()),
        );
    }

    let top = attr.top_n(opts.top);
    println!(
        "\ntop {} hot blocks (by attributed I-cache energy, both ISAs):",
        top.len()
    );
    println!(
        "  {:<10} {:<18} {:>12} | {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10}",
        "addr",
        "block",
        "retired",
        "sw(arm)",
        "int(arm)",
        "lk(arm)",
        "sw(fits)",
        "int(fits)",
        "lk(fits)"
    );
    for &i in &top {
        let (a, f) = (&attr.arm[i], &attr.fits[i]);
        println!(
            "  {:<10} {:<18} {:>12} | {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10}",
            format!("{:#x}", attr.blocks[i].addr()),
            attr.label(i),
            fmt_count(a.retired),
            fmt_energy(a.switching_j),
            fmt_energy(a.internal_j),
            fmt_energy(a.leakage_j),
            fmt_energy(f.switching_j),
            fmt_energy(f.internal_j),
            fmt_energy(f.leakage_j),
        );
    }

    // --- JSONL export --------------------------------------------------
    let json_path = opts.json.clone().or_else(|| {
        opts.smoke.then(|| {
            std::env::temp_dir()
                .join("fitstrace-smoke.jsonl")
                .to_string_lossy()
                .into_owned()
        })
    });
    if let Some(path) = json_path {
        let text = export_jsonl(&opts, &reg, &attr, &arm_rep, &fits_rep);
        match validate_trace_jsonl(&text) {
            Ok(counts) => {
                if let Err(e) = std::fs::write(&path, &text) {
                    fail(&format!("write {path}"), &e);
                }
                eprintln!(
                    "fitstrace: wrote {path} ({} spans, {} blocks, {} summaries; schema ok)",
                    counts.spans, counts.blocks, counts.summaries
                );
                if opts.smoke {
                    println!("fitstrace: smoke ok");
                }
            }
            Err(e) => fail("JSONL schema validation", &e),
        }
    }
}

fn indent(text: &str, by: usize) -> String {
    text.lines()
        .map(|l| format!("{:by$}{l}\n", ""))
        .collect::<String>()
}

/// A JSONL record of type `kind`, open for the rest of its fields.
fn record(kind: &str) -> Writer {
    let mut w = Writer::new(Spacing::Compact);
    w.begin_obj();
    w.field_str("type", kind);
    w
}

/// The three energy components, in full precision.
fn energies(w: &mut Writer, switching_j: f64, internal_j: f64, leakage_j: f64) {
    w.field_f64("switching_j", switching_j);
    w.field_f64("internal_j", internal_j);
    w.field_f64("leakage_j", leakage_j);
}

fn export_jsonl(
    opts: &Options,
    reg: &SpanRegistry,
    attr: &Attribution,
    arm: &IsaReport,
    fits: &IsaReport,
) -> String {
    let mut lines = Vec::new();
    let mut w = record("meta");
    w.field_str("kernel", opts.kernel.name());
    w.field_str("scale", &opts.scale.n.to_string());
    w.field_str("icache", &opts.scenario.icache.size_bytes.to_string());
    w.field_str("scenario", opts.scenario.id());
    lines.push(w.finish());
    reg.visit(|path, span| {
        let mut w = record("span");
        w.field_str("path", path);
        w.field_f64("ms", span.nanos as f64 / 1.0e6);
        w.field_u64("count", span.count);
        lines.push(w.finish());
    });
    for i in 0..attr.blocks.len() {
        let (a, f) = (&attr.arm[i], &attr.fits[i]);
        if a.retired == 0 && f.retired == 0 {
            continue;
        }
        let mut w = record("block");
        w.field_str("addr", &format!("{:#x}", attr.blocks[i].addr()));
        w.field_str("label", &attr.label(i));
        w.field_str("func", &attr.blocks[i].func);
        for (key, c) in [("arm", a), ("fits", f)] {
            w.key(key);
            w.begin_obj();
            w.field_u64("retired", c.retired);
            w.field_u64("fetches", c.fetches);
            energies(&mut w, c.switching_j, c.internal_j, c.leakage_j);
            w.end_obj();
        }
        lines.push(w.finish());
    }
    for rep in [arm, fits] {
        let mut w = record("summary");
        w.field_str("isa", rep.isa);
        w.field_u64("cycles", rep.sim.cycles);
        w.field_u64("retired", rep.sim.retired);
        let p = &rep.power;
        energies(&mut w, p.switching_j, p.internal_j, p.leakage_j);
        lines.push(w.finish());
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}
