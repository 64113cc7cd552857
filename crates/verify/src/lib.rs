//! # fits-verify — static verification of synthesized FITS instruction sets
//!
//! Analyzes a `(Program, Synthesis, Translation)` triple **without executing
//! it**, complementing the flow's differential execution with proofs that do
//! not depend on input coverage. Four analysis families, each with its own
//! rule-code prefix:
//!
//! * **`ENC` — encoding soundness**: the opcode table is prefix-free and
//!   within the 16-bit opcode-space budget, operand layouts fit their
//!   instruction words, every instruction word decodes under the binary's own
//!   configuration (including dictionary-index bounds), and each word
//!   round-trips bit-exactly through the programmable decoder's pack/unpack.
//! * **`CFI` — control-flow integrity**: every PC-relative branch lands on a
//!   translation boundary inside the text section, every target-dictionary
//!   entry names a valid FITS code address, and the entry point maps the
//!   native entry point.
//! * **`DF` — dataflow**: no FITS instruction reads a register that is never
//!   defined (unless the native program has the same property), and 1-to-n
//!   expansions do not break live flag def/use chains by inserting or
//!   dropping flag writes.
//! * **`TV` — translation validation**: each native instruction's expansion
//!   is replayed against the native instruction on a small abstract machine
//!   over several register/flag/memory valuations; register, flag and
//!   store-sequence effects must agree (modulo the translator's `ip`
//!   scratch).
//!
//! A fifth family checks the *machine description* rather than a triple:
//!
//! * **`ISA` — spec validation** ([`lint_spec`]): `powerfits-isa-v1`
//!   documents are vetted before decode tables are built from them —
//!   ambiguous form overlap (`ISA001`), forms that do not round-trip
//!   through decode/encode (`ISA002`), dead entries (`ISA003`), specs
//!   that do not compile into an engine (`ISA004`) — and synthesized
//!   decoder configurations are checked against the FITS vocabulary
//!   spec (`ISA005`, [`validate_decoder_config`]).
//!
//! A sixth family lives in its own modules because it is an *analysis*
//! rather than a pass/fail check:
//!
//! * **`CA` — cache analysis** ([`ca`]): abstract-interpretation
//!   classification of every instruction fetch (always-hit / always-miss /
//!   persistent / unknown) against a cache geometry, built on a reusable
//!   worklist [`fixpoint`] solver and conservative [`cfg`](mod@cfg) builders shared
//!   with the `DF` liveness analysis. Its `CA001`–`CA003` diagnostics
//!   audit an analysis result against rebuilt ground truth.
//!
//! A seventh family checks a *shared* configuration over a kernel set:
//!
//! * **`MULTI` — multi-application soundness** ([`verify_multi`]): a
//!   configuration synthesized from a merged profile must still pass
//!   `ISA005` vocabulary conformance, every member kernel's translated
//!   stream must decode under it (`MULTI001`, no per-kernel encoding
//!   fallout), and member binaries may diverge from the shared synthesis
//!   only by appending dictionary entries (`MULTI002`).
//!
//! [`analyze`] runs everything and returns a [`Report`];
//! [`verified_flow`] returns a [`FitsFlow`] that runs the same analyses as a
//! gate inside [`FitsFlow::run`], and the `fitslint` binary (in
//! `fits-bench`, which owns the kernel/scenario plumbing) drives them over
//! the kernel suite with rustc-style diagnostics or machine-readable JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::fmt;
use std::sync::Arc;

use fits_core::{decode_word, FitsFlow, FitsOp, FlowError, FlowValidator};
use fits_core::{Synthesis, Translation};
use fits_isa::{Program, TEXT_BASE};
use fits_kernels::kernels::{Kernel, Scale};

pub mod ca;
pub mod cfg;
mod cfi;
mod df;
mod enc;
pub mod fixpoint;
mod isa;
mod multi;
mod tv;

pub use ca::{analyze_fits_cache, analyze_native_cache, audit, CacheAnalysis, FetchClass};
pub use cfg::{fits_cfg, native_cfg, Cfg, CfgBuild};
pub use isa::{lint_spec, lint_spec_text, validate_decoder_config};
pub use multi::{verify_multi, MultiMemberBin};

/// How serious a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not a soundness violation; does not fail
    /// [`Report::is_clean`].
    Warning,
    /// A defect in the synthesized encoding or the translated binary.
    Error,
}

impl Severity {
    fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding, anchored to the FITS and/or native instruction it concerns.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Severity.
    pub severity: Severity,
    /// Stable rule code (`ENC001`, `CFI002`, `DF001`, `TV003`, …).
    pub code: &'static str,
    /// Human-readable description of the defect.
    pub message: String,
    /// FITS instruction index the finding anchors to, if any.
    pub fits_index: Option<usize>,
    /// Native (ARM) instruction index the finding anchors to, if any.
    pub arm_index: Option<usize>,
    /// Disassembly line for the anchor, filled in by [`analyze`].
    pub snippet: Option<String>,
}

impl Diagnostic {
    /// A new error-severity diagnostic.
    #[must_use]
    pub fn error(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            code,
            message: message.into(),
            fits_index: None,
            arm_index: None,
            snippet: None,
        }
    }

    /// A new warning-severity diagnostic.
    #[must_use]
    pub fn warning(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message)
        }
    }

    /// Anchors the diagnostic to a FITS instruction index.
    #[must_use]
    pub fn at_fits(mut self, index: usize) -> Diagnostic {
        self.fits_index = Some(index);
        self
    }

    /// Anchors the diagnostic to a native instruction index.
    #[must_use]
    pub fn at_arm(mut self, index: usize) -> Diagnostic {
        self.arm_index = Some(index);
        self
    }
}

/// The result of running every analysis family over one triple.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// What was analyzed (a kernel name, or `"program"`).
    pub name: String,
    /// All findings, in analysis order (`ENC`, `CFI`, `DF`, `TV`).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// True when no error-severity diagnostic was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Findings with a given rule-code prefix (e.g. `"CFI"`).
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.code.starts_with(prefix))
    }

    /// True when some finding carries exactly this rule code.
    #[must_use]
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Renders the findings rustc-style: severity, rule code, message and
    /// the disassembly-anchored span.
    #[must_use]
    pub fn render_text(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{}[{}]: {}", d.severity.as_str(), d.code, d.message);
            match (d.fits_index, d.arm_index) {
                (Some(j), _) => {
                    let pc = TEXT_BASE + 2 * j as u32;
                    let _ = writeln!(out, "  --> {}:fits[{j}] @ {pc:#010x}", self.name);
                }
                (None, Some(i)) => {
                    let pc = TEXT_BASE + 4 * i as u32;
                    let _ = writeln!(out, "  --> {}:arm[{i}] @ {pc:#010x}", self.name);
                }
                (None, None) => {
                    let _ = writeln!(out, "  --> {}:<configuration>", self.name);
                }
            }
            if let Some(s) = &d.snippet {
                let _ = writeln!(out, "   |  {s}");
            }
            if d.fits_index.is_some() {
                if let Some(i) = d.arm_index {
                    let _ = writeln!(out, "  note: expands arm[{i}]");
                }
            }
        }
        let errors = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let warnings = self.diagnostics.len() - errors;
        let _ = writeln!(
            out,
            "{}: {errors} error(s), {warnings} warning(s)",
            self.name
        );
        out
    }

    /// Renders the findings as a JSON object (machine-readable `fitslint`
    /// output).
    #[must_use]
    pub fn render_json(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"name\":{},\"clean\":{},\"diagnostics\":[",
            json_string(&self.name),
            self.is_clean()
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"severity\":{},\"code\":{},\"message\":{},\"fits_index\":{},\"arm_index\":{}}}",
                json_string(d.severity.as_str()),
                json_string(d.code),
                json_string(&d.message),
                json_opt(d.fits_index),
                json_opt(d.arm_index),
            );
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a string into a JSON string literal (hand-rolled: the workspace
/// carries no serialization dependency).
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_opt(v: Option<usize>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

/// Shared pre-decoded view of the triple under analysis.
pub(crate) struct Ctx<'a> {
    pub program: &'a Program,
    pub translation: &'a Translation,
    /// Decoded FITS ops; `None` where the word fails to decode (already
    /// reported as `ENC004`).
    pub ops: Vec<Option<FitsOp>>,
    /// ARM→FITS position prefix sums, when the mapping statistics are
    /// consistent with the binary.
    pub pos: Option<Vec<u32>>,
}

impl Ctx<'_> {
    /// The ARM instruction whose expansion contains FITS index `j`.
    pub fn arm_of(&self, j: usize) -> Option<usize> {
        let pos = self.pos.as_ref()?;
        let j = j as u32;
        match pos.binary_search(&j) {
            Ok(i) if i < self.program.text.len() => Some(i),
            Ok(i) => Some(i - 1),
            Err(i) => Some(i - 1),
        }
    }
}

/// Runs every analysis family over the triple and returns the findings.
///
/// The triple is the natural output of the flow's stages 1–3:
/// [`fits_core::profile()`] → [`fits_core::synthesize`] →
/// [`fits_core::translate()`].
#[must_use]
pub fn analyze(program: &Program, synthesis: &Synthesis, translation: &Translation) -> Report {
    let mut diags = Vec::new();

    // Pre-decode once; undecodable words become ENC004 findings and are
    // skipped by the later families.
    let config = &translation.fits.config;
    let ops: Vec<Option<FitsOp>> = translation
        .fits
        .instrs
        .iter()
        .enumerate()
        .map(|(j, &word)| match decode_word(config, word, j) {
            Ok(op) => Some(op),
            Err(e) => {
                diags.push(
                    Diagnostic::error(
                        "ENC004",
                        format!("word {:#06x} does not decode: {}", e.word, e.what),
                    )
                    .at_fits(j),
                );
                None
            }
        })
        .collect();

    // Position map, when the mapping statistics account for every word.
    let total: u32 = translation.stats.expansion.iter().sum();
    let pos = if translation.stats.expansion.len() == program.text.len()
        && total as usize == translation.fits.instrs.len()
    {
        Some(translation.stats.positions())
    } else {
        diags.push(Diagnostic::error(
            "CFI006",
            format!(
                "mapping statistics are inconsistent with the binary: \
                 {} expansion entries summing to {total} for {} native \
                 instructions and {} FITS words",
                translation.stats.expansion.len(),
                program.text.len(),
                translation.fits.instrs.len()
            ),
        ));
        None
    };

    let ctx = Ctx {
        program,
        translation,
        ops,
        pos,
    };

    enc::analyze_enc(&ctx, synthesis, &mut diags);
    cfi::analyze_cfi(&ctx, &mut diags);
    df::analyze_df(&ctx, &mut diags);
    tv::analyze_tv(&ctx, &mut diags);

    // Attach disassembly anchors.
    for d in &mut diags {
        if d.snippet.is_some() {
            continue;
        }
        if let Some(j) = d.fits_index {
            if d.arm_index.is_none() {
                d.arm_index = ctx.arm_of(j);
            }
            let word = translation.fits.instrs.get(j).copied().unwrap_or(0);
            let decoded = ctx
                .ops
                .get(j)
                .and_then(Option::as_ref)
                .map_or_else(|| "<undecodable>".to_string(), |op| format!("{op:?}"));
            d.snippet = Some(format!("{word:04x}  {decoded}"));
        } else if let Some(i) = d.arm_index {
            if let Some(instr) = program.text.get(i) {
                d.snippet = Some(format!("{instr}"));
            }
        }
    }

    Report {
        name: "program".to_string(),
        diagnostics: diags,
    }
}

/// The [`FlowValidator`] implementation: rejects the triple when any
/// analysis family reports an error.
#[derive(Debug, Default, Clone, Copy)]
pub struct StaticValidator;

impl FlowValidator for StaticValidator {
    fn validate(
        &self,
        program: &Program,
        synthesis: &Synthesis,
        translation: &Translation,
    ) -> Result<(), String> {
        let report = analyze(program, synthesis, translation);
        if report.is_clean() {
            Ok(())
        } else {
            Err(report.render_text())
        }
    }
}

/// A [`FitsFlow`] with the static validator installed: every accepted
/// synthesis/translation pair is verified by all four analysis families
/// before the flow's differential execution.
#[must_use]
pub fn verified_flow() -> FitsFlow {
    FitsFlow {
        validator: Some(Arc::new(StaticValidator)),
        ..FitsFlow::default()
    }
}

/// Runs the flow (without differential execution) on a program and lints
/// the accepted triple. Used by `fitslint` and the suite-wide tests.
///
/// # Errors
///
/// Propagates [`FlowError`] when profiling, synthesis or translation fail
/// outright (distinct from the lint findings in the returned [`Report`]).
pub fn lint_program(program: &Program, name: &str) -> Result<Report, FlowError> {
    let flow = FitsFlow {
        verify: false,
        ..FitsFlow::default()
    };
    let out = flow.run(program)?;
    let translation = Translation {
        fits: out.fits,
        stats: out.mapping,
    };
    let mut report = analyze(program, &out.synthesis, &translation);
    report.name = name.to_string();
    Ok(report)
}

/// Compiles one kernel at `scale` and lints its triple.
///
/// # Errors
///
/// Returns a rendered error string when compilation or the flow fail.
pub fn lint_kernel(kernel: Kernel, scale: Scale) -> Result<Report, String> {
    let program = kernel
        .compile(scale)
        .map_err(|e| format!("{}: compile failed: {e}", kernel.name()))?;
    lint_program(&program, kernel.name())
        .map_err(|e| format!("{}: flow failed: {e}", kernel.name()))
}
