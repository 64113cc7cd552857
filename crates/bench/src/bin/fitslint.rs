//! `fitslint` — static verification of synthesized FITS instruction sets
//! and static I-cache bounds.
//!
//! Three modes share one CLI:
//!
//! * **lint** (default): runs the `fits-verify` analysis families (`ENC`,
//!   `CFI`, `DF`, `TV`) over kernels from the benchmark suite and reports
//!   rustc-style diagnostics or machine-readable JSON.
//! * **`--cache`**: runs the `CA` abstract-interpretation cache analysis
//!   over both instruction streams of each kernel, audits it against
//!   rebuilt ground truth, joins it with a traced simulation (skip the
//!   trace with `--static-only`) and reports per-kernel hit/miss and
//!   fetch-energy bounds — text or `powerfits-cache-bounds-v1` JSON.
//! * **`--isa`**: lints `powerfits-isa-v1` spec documents (the `ISA`
//!   family) — ambiguous form overlap, non-round-tripping forms, dead
//!   entries, specs that do not compile into a decode engine. Accepts
//!   file paths or the shipped spec names `ar32`, `t16`, `fits`.
//!
//! ```text
//! fitslint --all [--format text|json] [--scale N]
//! fitslint KERNEL [KERNEL...] [--format text|json] [--scale N]
//! fitslint --cache --all [--preset NAME] [--static-only] [--out PATH]
//! fitslint --isa SPEC [--isa SPEC...] [--format text|json] [--out PATH]
//! ```
//!
//! JSON output is validated against its own schema before the process
//! reports success, so a drifting emitter fails loudly in CI instead of
//! producing silently unparseable artifacts.
//!
//! Exits 0 when every linted kernel is clean (and every bound holds),
//! 1 on findings, violations or pipeline failures, and 2 on usage errors.

use std::fmt;
use std::process::ExitCode;

use fits_bench::lint::{lint_clean, lint_json, LintEntry};
use fits_bench::{cache_bounds_report, ExperimentError};
use fits_isa::spec::{AR32_SPEC_TEXT, FITS_SPEC_TEXT, T16_SPEC_TEXT};
use fits_kernels::kernels::{Kernel, Scale};
use fits_scenario::ScenarioSpec;
use fits_verify::{lint_kernel, lint_spec_text};

/// Everything that can stop a `fitslint` run (exit code 1). Usage errors
/// are handled separately (exit code 2); findings are not errors.
#[derive(Debug)]
enum LintError {
    /// The kernel pipeline failed (compile, flow, simulation, decode).
    Pipeline(ExperimentError),
    /// The tool's own JSON output failed its schema validation.
    InvalidJson(String),
    /// A report or spec file could not be written or read.
    Io { path: String, err: std::io::Error },
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Pipeline(e) => write!(f, "pipeline: {e}"),
            LintError::InvalidJson(e) => write!(f, "self-validation of JSON output failed: {e}"),
            LintError::Io { path, err } => write!(f, "{path}: {err}"),
        }
    }
}

impl std::error::Error for LintError {}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

struct Args {
    kernels: Vec<Kernel>,
    format: Format,
    scale: Scale,
    cache: bool,
    preset: String,
    static_only: bool,
    out: Option<String>,
    isa: Vec<String>,
}

fn usage() -> String {
    let mut names: Vec<&str> = Kernel::ALL.iter().map(|k| k.name()).collect();
    names.sort_unstable();
    format!(
        "usage: fitslint (--all | KERNEL...) [--format text|json] [--scale N]\n\
         \x20      [--cache [--preset NAME] [--static-only]] [--out PATH]\n\
         \x20      [--isa SPEC...]\n\
         \n\
         Statically verifies the synthesized instruction set and translated\n\
         binary of each kernel: encoding soundness (ENC), control-flow\n\
         integrity (CFI), dataflow (DF) and translation validation (TV).\n\
         \n\
         With --cache, instead runs the abstract-interpretation I-cache\n\
         analysis (CA) on both instruction streams, audits it, checks a\n\
         traced run against the static bounds (unless --static-only) and\n\
         reports per-kernel hit/miss and fetch-energy envelopes.\n\
         \n\
         With --isa, instead lints powerfits-isa-v1 spec documents (the\n\
         ISA family: ambiguous overlap, round-trip, dead entries, engine\n\
         compilation). SPEC is a file path or a shipped name (ar32 t16\n\
         fits).\n\
         \n\
         presets: sa1100 small-embedded modern-node\n\
         kernels: {}",
        names.join(" ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        kernels: Vec::new(),
        format: Format::Text,
        scale: Scale::test(),
        cache: false,
        preset: "sa1100".to_string(),
        static_only: false,
        out: None,
        isa: Vec::new(),
    };
    let mut all = false;
    let mut preset_given = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => all = true,
            "--cache" => args.cache = true,
            "--static-only" => args.static_only = true,
            "--format" => {
                args.format = match it.next().map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some(other) => {
                        return Err(format!("--format expects 'text' or 'json', got '{other}'"))
                    }
                    None => return Err("--format expects 'text' or 'json'".to_string()),
                };
            }
            "--scale" => {
                let n = it
                    .next()
                    .and_then(|s| s.parse::<u32>().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--scale expects a positive integer".to_string())?;
                args.scale = Scale { n };
            }
            "--preset" => {
                let name = it
                    .next()
                    .ok_or_else(|| "--preset expects a scenario name".to_string())?;
                if ScenarioSpec::preset(name).is_none() {
                    return Err(format!(
                        "unknown preset '{name}' (try sa1100, small-embedded, modern-node)"
                    ));
                }
                args.preset = name.clone();
                preset_given = true;
            }
            "--out" => {
                args.out = Some(
                    it.next()
                        .ok_or_else(|| "--out expects a path".to_string())?
                        .clone(),
                );
            }
            "--isa" => {
                args.isa.push(
                    it.next()
                        .ok_or_else(|| "--isa expects a spec path or shipped name".to_string())?
                        .clone(),
                );
            }
            "--help" | "-h" => return Err(String::new()),
            name if !name.starts_with('-') => {
                let kernel = Kernel::ALL
                    .iter()
                    .copied()
                    .find(|k| k.name() == name)
                    .ok_or_else(|| format!("unknown kernel '{name}'"))?;
                args.kernels.push(kernel);
            }
            flag => return Err(format!("unknown flag '{flag}'")),
        }
    }
    if !args.cache && (args.static_only || preset_given) {
        return Err("--preset and --static-only require --cache".to_string());
    }
    if !args.isa.is_empty() {
        if args.cache || all || !args.kernels.is_empty() {
            return Err("--isa lints spec documents and takes no kernels or --cache".to_string());
        }
        return Ok(args);
    }
    if all {
        args.kernels = Kernel::ALL.to_vec();
    }
    if args.kernels.is_empty() {
        return Err("no kernels selected (pass --all or kernel names)".to_string());
    }
    Ok(args)
}

/// Writes the rendered report to `--out`, when requested.
fn write_out(out: Option<&str>, rendered: &str) -> Result<(), LintError> {
    let Some(path) = out else { return Ok(()) };
    std::fs::write(path, rendered).map_err(|err| LintError::Io {
        path: path.to_string(),
        err,
    })?;
    eprintln!("fitslint: wrote {path}");
    Ok(())
}

/// The classic lint mode: `ENC`/`CFI`/`DF`/`TV` families per kernel.
/// Returns whether every kernel came back clean.
fn run_lint(args: &Args) -> Result<bool, LintError> {
    let entries: Vec<LintEntry> = args
        .kernels
        .iter()
        .map(|k| (k.name().to_string(), lint_kernel(*k, args.scale)))
        .collect();
    report_entries(args, "kernels", &entries, true)
}

/// Resolves one `--isa` operand: a shipped spec name or a file path.
fn isa_source(operand: &str) -> Result<String, LintError> {
    match operand {
        "ar32" => Ok(AR32_SPEC_TEXT.to_string()),
        "t16" => Ok(T16_SPEC_TEXT.to_string()),
        "fits" => Ok(FITS_SPEC_TEXT.to_string()),
        path => std::fs::read_to_string(path).map_err(|err| LintError::Io {
            path: path.to_string(),
            err,
        }),
    }
}

/// The `--isa` mode: the `ISA` family per spec document. Load failures
/// (parse or structural) count as findings, not usage errors. Returns
/// whether every spec came back clean.
fn run_isa(args: &Args) -> Result<bool, LintError> {
    let mut entries: Vec<LintEntry> = Vec::new();
    for operand in &args.isa {
        let report = lint_spec_text(&isa_source(operand)?).map_err(|e| e.to_string());
        entries.push((operand.clone(), report));
    }
    report_entries(args, "specs", &entries, false)
}

/// Prints the lint or `--isa` entries in the requested format (and writes
/// `--out`). In text mode a failed entry goes to stderr when
/// `errors_to_stderr`, else to the report. Returns whether all are clean.
fn report_entries(
    args: &Args,
    key: &str,
    entries: &[LintEntry],
    errors_to_stderr: bool,
) -> Result<bool, LintError> {
    let rendered = match args.format {
        Format::Text => {
            let mut text = String::new();
            for (name, result) in entries {
                match result {
                    Ok(report) if report.diagnostics.is_empty() => {
                        text.push_str(&format!("{}: clean\n", report.name));
                    }
                    Ok(report) => text.push_str(&report.render_text()),
                    Err(err) if errors_to_stderr => eprintln!("fitslint: {err}"),
                    Err(err) => text.push_str(&format!("{name}: {err}\n")),
                }
            }
            text
        }
        Format::Json => {
            let doc = lint_json(key, entries);
            // Prove the document parses before CI archives it.
            fits_obs::json::parse(&doc).map_err(|e| LintError::InvalidJson(e.to_string()))?;
            doc
        }
    };
    print!("{rendered}");
    write_out(args.out.as_deref(), &rendered)?;
    Ok(lint_clean(entries))
}

/// The `--cache` mode: `CA` bounds per kernel under one preset scenario.
/// Returns whether every analysis was sound.
fn run_cache(args: &Args) -> Result<bool, LintError> {
    let Some(spec) = ScenarioSpec::preset(&args.preset) else {
        // parse_args validated the name; a miss here is a programming
        // error surfaced as a pipeline-level failure, not a panic.
        return Err(LintError::InvalidJson(format!(
            "preset '{}' vanished between parsing and execution",
            args.preset
        )));
    };
    let report = cache_bounds_report(&args.kernels, &spec, args.scale, !args.static_only)
        .map_err(LintError::Pipeline)?;
    let rendered = match args.format {
        Format::Text => report.render_text(),
        Format::Json => {
            let doc = format!("{}\n", report.render_json());
            fits_obs::json::validate_cache_bounds_json(&doc).map_err(LintError::InvalidJson)?;
            doc
        }
    };
    print!("{rendered}");
    write_out(args.out.as_deref(), &rendered)?;
    Ok(report.is_sound())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("fitslint: {msg}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let clean = if !args.isa.is_empty() {
        run_isa(&args)
    } else if args.cache {
        run_cache(&args)
    } else {
        run_lint(&args)
    };
    match clean {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fitslint: {e}");
            ExitCode::from(1)
        }
    }
}
