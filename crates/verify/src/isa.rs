//! `ISA` — validation of `powerfits-isa-v1` spec documents.
//!
//! The other families check a *synthesized* triple; this one checks the
//! *machine description* itself, so user-supplied specs are vetted before
//! the flow builds decode tables from them. Rules:
//!
//! * `ISA001` — two decodable forms overlap ambiguously: some word matches
//!   both patterns but neither pattern is a subset of the other, so which
//!   form wins is decided by file order alone. (A specific form listed
//!   before a general one — a strict subset — is the intended idiom and is
//!   not flagged.)
//! * `ISA002` — a form does not round-trip: a word that decodes through
//!   the form re-encodes to a word that decodes to a *different*
//!   instruction. Checked by seeded sampling of each form's field bits.
//! * `ISA003` — an entry is dead: every word it matches is already claimed
//!   by earlier entries, so it can never fire.
//! * `ISA004` — the spec cannot be compiled into a decode engine (a form
//!   name without a bound constructor, a missing mandatory form, a
//!   missing required field letter).
//! * `ISA005` — a synthesized [`DecoderConfig`] steps outside the FITS
//!   spec's vocabulary (unknown layout or tier, opcode prefix longer than
//!   the word, register window size the spec does not permit).
//!
//! `ISA001`–`ISA004` apply to encoding specs (AR32- and T16-shaped);
//! `ISA005` applies to the FITS vocabulary spec via
//! [`validate_decoder_config`].

use fits_core::DecoderConfig;
use fits_isa::spec::{excerpt, Ar32Tables, IsaSpec, PatternEntry, T16Tables};

use crate::{Diagnostic, Report};

/// Deterministic xorshift64* stream used to fill form fields; seeded from
/// the spec hash so findings are reproducible per spec content.
struct Sampler(u64);

impl Sampler {
    fn next(&mut self) -> u32 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) as u32
    }
}

/// Samples drawn per form for the `ISA002` round-trip check.
const SAMPLES_PER_FORM: usize = 64;

/// Index of the first entry whose pattern matches `word`, in priority
/// (file) order.
fn first_match(spec: &IsaSpec, word: u32) -> Option<usize> {
    spec.entries.iter().position(|e| e.pattern.matches(word))
}

/// Words that exercise one form: the pattern's literal bits with the
/// free (field and don't-care) bits filled from the seeded stream, plus
/// the all-zeros and all-ones fills.
fn form_samples(entry: &PatternEntry, rng: &mut Sampler) -> Vec<u32> {
    let p = &entry.pattern;
    let word_mask = if p.width == 32 {
        u32::MAX
    } else {
        (1u32 << p.width) - 1
    };
    let free = !p.mask & word_mask;
    let mut words = vec![p.value, p.value | free];
    for _ in 0..SAMPLES_PER_FORM {
        words.push(p.value | (rng.next() & free));
    }
    words
}

/// Structural pattern checks shared by every encoding spec: ambiguous
/// form overlap (`ISA001`) and dead entries (`ISA003`).
fn check_patterns(spec: &IsaSpec, diags: &mut Vec<Diagnostic>) {
    for (j, b) in spec.entries.iter().enumerate() {
        for a in &spec.entries[..j] {
            if b.pattern.subset_of(&a.pattern) {
                diags.push(Diagnostic::error(
                    "ISA003",
                    format!(
                        "entry `{}` ({}) is dead: every word it matches is already \
                         claimed by `{}` ({})",
                        excerpt(&b.name),
                        b.pos,
                        excerpt(&a.name),
                        a.pos
                    ),
                ));
                // One shadowing witness is enough per entry.
                break;
            }
            if a.is_form()
                && b.is_form()
                && a.pattern.overlaps(&b.pattern)
                && !a.pattern.subset_of(&b.pattern)
            {
                diags.push(Diagnostic::error(
                    "ISA001",
                    format!(
                        "forms `{}` ({}) and `{}` ({}) overlap ambiguously: some words \
                         match both but neither pattern refines the other",
                        excerpt(&a.name),
                        a.pos,
                        excerpt(&b.name),
                        b.pos
                    ),
                ));
            }
        }
    }
}

/// `ISA002`/`ISA004` for an AR32-shaped (32-bit) spec: build the engine,
/// then round-trip seeded samples of every form through decode → encode
/// → decode.
fn check_ar32_engine(spec: &IsaSpec, diags: &mut Vec<Diagnostic>) {
    let tables = match Ar32Tables::from_spec(spec) {
        Ok(t) => t,
        Err(e) => {
            diags.push(Diagnostic::error(
                "ISA004",
                format!("spec does not compile into a decode engine: {e}"),
            ));
            return;
        }
    };
    let mut rng = Sampler(spec.hash() | 1);
    for (idx, entry) in spec.entries.iter().enumerate() {
        if !entry.is_form() {
            continue;
        }
        for word in form_samples(entry, &mut rng) {
            if first_match(spec, word) != Some(idx) {
                continue; // claimed by an earlier entry (e.g. a carve-out)
            }
            let Ok(instr) = tables.decode(word) else {
                continue; // field-value-dependent rejection: not a form defect
            };
            let back = tables.encode(&instr);
            if tables.decode(back).as_ref() != Ok(&instr) {
                diags.push(Diagnostic::error(
                    "ISA002",
                    format!(
                        "form `{}` ({}) does not round-trip: {word:#010x} decodes to \
                         `{instr}` which re-encodes as {back:#010x}",
                        excerpt(&entry.name),
                        entry.pos
                    ),
                ));
                break; // one witness per form
            }
        }
    }
}

/// `ISA002`/`ISA004` for a T16-shaped (16-bit) spec. The two-halfword BL
/// forms are skipped: their round-trip is pair-wise and covered by the
/// engine's own differential tests.
fn check_t16_engine(spec: &IsaSpec, diags: &mut Vec<Diagnostic>) {
    let tables = match T16Tables::from_spec(spec) {
        Ok(t) => t,
        Err(e) => {
            diags.push(Diagnostic::error(
                "ISA004",
                format!("spec does not compile into a decode engine: {e}"),
            ));
            return;
        }
    };
    let mut rng = Sampler(spec.hash() | 1);
    for (idx, entry) in spec.entries.iter().enumerate() {
        if !entry.is_form() || entry.name.starts_with("bl-") {
            continue;
        }
        for word in form_samples(entry, &mut rng) {
            if first_match(spec, word) != Some(idx) {
                continue;
            }
            let Ok((instr, used)) = tables.decode(&[word as u16]) else {
                continue;
            };
            if used != 1 {
                continue;
            }
            let mut out = Vec::with_capacity(2);
            if tables.encode(&instr, &mut out).is_err() {
                diags.push(Diagnostic::error(
                    "ISA002",
                    format!(
                        "form `{}` ({}) does not round-trip: {word:#06x} decodes to an \
                         instruction its own encoder rejects",
                        excerpt(&entry.name),
                        entry.pos
                    ),
                ));
                break;
            }
            if tables.decode(&out).map(|(i, _)| i).as_ref() != Ok(&instr) {
                diags.push(Diagnostic::error(
                    "ISA002",
                    format!(
                        "form `{}` ({}) does not round-trip: {word:#06x} re-encodes to \
                         a different instruction",
                        excerpt(&entry.name),
                        entry.pos
                    ),
                ));
                break;
            }
        }
    }
}

/// Lints one parsed spec: pattern structure (`ISA001`, `ISA003`) always,
/// plus engine compilation and form round-trips (`ISA002`, `ISA004`) for
/// encoding specs. A spec with no pattern entries (the FITS vocabulary
/// spec) gets the structural checks only.
#[must_use]
pub fn lint_spec(spec: &IsaSpec) -> Report {
    let mut diags = Vec::new();
    check_patterns(spec, &mut diags);
    if !spec.entries.is_empty() {
        if spec.word_width == 32 {
            check_ar32_engine(spec, &mut diags);
        } else {
            check_t16_engine(spec, &mut diags);
        }
    }
    Report {
        name: format!("isa:{}", spec.name),
        diagnostics: diags,
    }
}

/// Parses and lints a spec document, as `fitslint --isa` does.
///
/// # Errors
///
/// Returns the position-carrying load error when the document does not
/// parse or fails structural validation (those defects precede any lint).
pub fn lint_spec_text(text: &str) -> Result<Report, fits_isa::spec::SpecError> {
    let spec = IsaSpec::load(text)?;
    Ok(lint_spec(&spec))
}

/// `ISA005` — checks a synthesized [`DecoderConfig`] against the FITS
/// spec's vocabulary: every opcode's layout and tier must be named by the
/// spec, prefixes must fit the word width, and the register window must
/// be a size the spec permits.
#[must_use]
pub fn validate_decoder_config(config: &DecoderConfig, fits_spec: &IsaSpec) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (k, e) in config.ops.iter().enumerate() {
        let layout = e.layout.kind_name();
        if !fits_spec.layouts.iter().any(|l| l == layout) {
            diags.push(Diagnostic::error(
                "ISA005",
                format!(
                    "opcode entry {k} uses layout `{layout}`, which the FITS spec \
                     does not name"
                ),
            ));
        }
        let tier = e.tier.name();
        if !fits_spec.tiers.iter().any(|t| t == tier) {
            diags.push(Diagnostic::error(
                "ISA005",
                format!(
                    "opcode entry {k} sits in tier `{tier}`, which the FITS spec does not name"
                ),
            ));
        }
        if u32::from(e.len) > fits_spec.word_width {
            diags.push(Diagnostic::error(
                "ISA005",
                format!(
                    "opcode entry {k} has a {}-bit prefix in a {}-bit word",
                    e.len, fits_spec.word_width
                ),
            ));
        }
    }
    let window = config.regs.map.len() as u32;
    if !fits_spec.registers.windows.is_empty() && !fits_spec.registers.windows.contains(&window) {
        diags.push(Diagnostic::error(
            "ISA005",
            format!(
                "register window of {window} is not a size the FITS spec permits \
                 (allowed: {:?})",
                fits_spec.registers.windows
            ),
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use fits_core::{FitsFlow, FlowOutcome};
    use fits_isa::spec::{builtin_ar32, builtin_fits, builtin_t16};
    use fits_kernels::kernels::{Kernel, Scale};

    #[test]
    fn shipped_specs_are_clean() {
        for spec in [builtin_ar32(), builtin_t16(), builtin_fits()] {
            let report = lint_spec(spec);
            assert!(
                report.is_clean() && report.diagnostics.is_empty(),
                "{}: {}",
                spec.name,
                report.render_text()
            );
        }
    }

    fn outcome(kernel: Kernel) -> FlowOutcome {
        let program = kernel.compile(Scale::test()).unwrap();
        FitsFlow::new().run(&program).unwrap()
    }

    #[test]
    fn synthesized_configs_fit_the_fits_vocabulary() {
        for kernel in [Kernel::Crc32, Kernel::Sha] {
            let out = outcome(kernel);
            let diags = validate_decoder_config(&out.fits.config, builtin_fits());
            assert!(diags.is_empty(), "{kernel:?}: {diags:?}");
        }
    }

    #[test]
    fn foreign_vocabulary_is_isa005() {
        let out = outcome(Kernel::Crc32);
        let narrow = "isa f { schema powerfits-isa-v1 word-width 16 \
                      registers { count 16 window 4 } \
                      layouts { r3 } tiers { bis } }";
        let spec = IsaSpec::load(narrow).unwrap();
        let diags = validate_decoder_config(&out.fits.config, &spec);
        assert!(diags.iter().all(|d| d.code == "ISA005"));
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("layout") || d.message.contains("tier")),
            "{diags:?}"
        );
        assert!(diags.iter().any(|d| d.message.contains("register window")));
    }
}
