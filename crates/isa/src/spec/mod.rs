//! `IsaSpec` — a parsed, validated, runtime-loaded ISA description.
//!
//! The machine descriptions that used to be frozen Rust in this crate
//! (AR32 decode/encode tables, the T16 halfword formats, the FITS
//! decoder vocabulary) are now *data*: a small text format with a
//! `powerfits-isa-v1` schema describes the register file, the encoding
//! forms as bit patterns with named fields, the reserved carve-outs with
//! their rejection reasons, and (for FITS) the layout/tier/dictionary
//! vocabulary the synthesizer draws from. The shipped AR32/T16/FITS
//! descriptions are embedded spec texts compiled into pattern tables at
//! load; user-supplied specs go through the identical loader and are
//! validated by `fits-verify`'s ISA family before use.
//!
//! Split of responsibility: the spec carries *dispatch* — which words
//! belong to which named form, in priority order, with reserved
//! carve-outs — while Rust form constructors bound by form name carry
//! the field *semantics* (operand assembly, plus field-value-dependent
//! rejections such as ROR #0 or post-index writeback that a mask/value
//! pattern cannot express).

pub mod lex;
pub mod parse;
pub mod pattern;

mod ar32;
mod t16;

pub use ar32::Ar32Tables;
pub use pattern::{Field, Pattern};
pub use t16::T16Tables;

use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Schema identifier every spec must declare.
pub const SCHEMA: &str = "powerfits-isa-v1";

/// Embedded source text of the shipped AR32 spec.
pub const AR32_SPEC_TEXT: &str = include_str!("../../specs/ar32.isa");
/// Embedded source text of the shipped T16 spec.
pub const T16_SPEC_TEXT: &str = include_str!("../../specs/t16.isa");
/// Embedded source text of the shipped FITS spec.
pub const FITS_SPEC_TEXT: &str = include_str!("../../specs/fits.isa");

/// A 1-based line/column source position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pos {
    /// Line number, starting at 1.
    pub line: u32,
    /// Column number, starting at 1.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A spec loading error with the source position it points at.
#[derive(Clone, Debug)]
pub struct SpecError {
    /// Where in the spec text the problem is.
    pub pos: Pos,
    /// Human-readable description.
    pub message: String,
}

impl SpecError {
    pub(crate) fn new(pos: Pos, message: impl Into<String>) -> Self {
        SpecError {
            pos,
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec:{}: {}", self.pos, self.message)
    }
}

impl std::error::Error for SpecError {}

/// Longest run of untrusted text, in chars, a diagnostic quotes verbatim.
pub const EXCERPT_CHARS: usize = 64;

/// Bounds untrusted text (a spec token, a request field) for quoting in a
/// diagnostic. Text of at most [`EXCERPT_CHARS`] chars comes back as is;
/// longer text is cut on a char boundary after [`EXCERPT_CHARS`] chars and
/// followed by `…` and its total length in bytes, so an error message
/// stays small however large the input was.
#[must_use]
pub fn excerpt(text: &str) -> Cow<'_, str> {
    match text.char_indices().nth(EXCERPT_CHARS) {
        None => Cow::Borrowed(text),
        Some((cut, _)) => Cow::Owned(format!("{}… ({} bytes)", &text[..cut], text.len())),
    }
}

/// Whether a pattern entry decodes to an instruction or rejects a
/// reserved encoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EntryKind {
    /// A decodable instruction form; a Rust constructor bound by name
    /// supplies the field semantics.
    Form,
    /// A reserved carve-out: matching words are rejected with `reason`.
    Reserved {
        /// Why the encoding is rejected, as written in the spec.
        reason: String,
    },
}

/// One prioritized pattern entry: forms and reserved carve-outs share a
/// single ordered list; the first matching entry wins.
#[derive(Clone, Debug)]
pub struct PatternEntry {
    /// Form or carve-out name (unique within the spec).
    pub name: String,
    /// Form vs. reserved.
    pub kind: EntryKind,
    /// The bit pattern.
    pub pattern: Pattern,
    /// Source position of the entry's declaration.
    pub pos: Pos,
}

impl PatternEntry {
    /// Is this a decodable form (not a reserved carve-out)?
    #[must_use]
    pub fn is_form(&self) -> bool {
        matches!(self.kind, EntryKind::Form)
    }
}

/// The register file description.
#[derive(Clone, Debug, Default)]
pub struct RegisterFile {
    /// Number of architectural registers.
    pub count: u32,
    /// Named aliases (`sp` → 13, ...).
    pub aliases: Vec<(String, u32)>,
    /// Permitted visible-window sizes (FITS synthesis knob); empty means
    /// the full file is always visible.
    pub windows: Vec<u32>,
}

/// A parsed and structurally validated ISA specification.
#[derive(Clone, Debug)]
pub struct IsaSpec {
    /// ISA name (`ar32`, `t16`, `fits`, or a user-chosen name).
    pub name: String,
    /// Declared schema; always [`SCHEMA`] after validation.
    pub schema: String,
    /// Instruction word width in bits (16 or 32).
    pub word_width: u32,
    /// Register file description.
    pub registers: RegisterFile,
    /// Condition flags in declaration order.
    pub flags: Vec<String>,
    /// Prioritized encoding forms and reserved carve-outs, file order.
    pub entries: Vec<PatternEntry>,
    /// Operand-layout vocabulary (FITS synthesis plane).
    pub layouts: Vec<String>,
    /// Encoding-tier vocabulary (FITS synthesis plane).
    pub tiers: Vec<String>,
    /// Dictionary vocabulary (FITS synthesis plane).
    pub dictionaries: Vec<String>,
    source: String,
}

impl IsaSpec {
    /// Parses and structurally validates a spec document.
    ///
    /// # Errors
    ///
    /// Returns a position-carrying [`SpecError`] on lexical, syntactic or
    /// structural problems (wrong schema, bad width, duplicate names,
    /// out-of-range aliases).
    pub fn load(text: &str) -> Result<Self, SpecError> {
        let spec = parse::parse_spec(text)?;
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), SpecError> {
        let top = Pos { line: 1, col: 1 };
        if self.schema != SCHEMA {
            return Err(SpecError::new(
                top,
                format!("schema `{}` is not `{SCHEMA}`", excerpt(&self.schema)),
            ));
        }
        if self.word_width != 16 && self.word_width != 32 {
            return Err(SpecError::new(
                top,
                format!("word-width {} is not 16 or 32", self.word_width),
            ));
        }
        if self.registers.count == 0 || self.registers.count > 64 {
            return Err(SpecError::new(
                top,
                format!(
                    "register count {} out of range 1..=64",
                    self.registers.count
                ),
            ));
        }
        for (alias, idx) in &self.registers.aliases {
            if *idx >= self.registers.count {
                return Err(SpecError::new(
                    top,
                    format!(
                        "alias `{}` = {idx} exceeds register count {}",
                        excerpt(alias),
                        self.registers.count
                    ),
                ));
            }
        }
        for window in &self.registers.windows {
            if *window == 0 || *window > self.registers.count {
                return Err(SpecError::new(
                    top,
                    format!("window {window} out of range 1..={}", self.registers.count),
                ));
            }
        }
        for (i, entry) in self.entries.iter().enumerate() {
            if self.entries[..i].iter().any(|e| e.name == entry.name) {
                return Err(SpecError::new(
                    entry.pos,
                    format!("duplicate pattern name `{}`", excerpt(&entry.name)),
                ));
            }
        }
        for list in [&self.layouts, &self.tiers, &self.dictionaries] {
            for (i, name) in list.iter().enumerate() {
                if list[..i].iter().any(|n| n == name) {
                    return Err(SpecError::new(
                        top,
                        format!("duplicate name `{}`", excerpt(name)),
                    ));
                }
            }
        }
        Ok(())
    }

    /// The spec source text exactly as loaded.
    #[must_use]
    pub fn source(&self) -> &str {
        &self.source
    }

    /// FNV-1a hash of the source text — the spec's content address.
    #[must_use]
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.source.as_bytes() {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The content hash as fixed-width lowercase hex.
    #[must_use]
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.hash())
    }

    /// Iterates the decodable forms (skipping reserved carve-outs).
    pub fn forms(&self) -> impl Iterator<Item = &PatternEntry> {
        self.entries.iter().filter(|e| e.is_form())
    }

    /// Looks up an entry by name.
    #[must_use]
    pub fn entry(&self, name: &str) -> Option<&PatternEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// The shipped spec for a built-in ISA name, if any.
    #[must_use]
    pub fn builtin(name: &str) -> Option<&'static IsaSpec> {
        match name {
            "ar32" => Some(builtin_ar32()),
            "t16" => Some(builtin_t16()),
            "fits" => Some(builtin_fits()),
            _ => None,
        }
    }
}

fn load_shipped(text: &str, which: &str) -> IsaSpec {
    match IsaSpec::load(text) {
        Ok(spec) => spec,
        Err(err) => unreachable!("shipped {which} spec invalid: {err}"),
    }
}

/// The shipped AR32 spec (parsed once).
#[must_use]
pub fn builtin_ar32() -> &'static IsaSpec {
    static SPEC: OnceLock<IsaSpec> = OnceLock::new();
    SPEC.get_or_init(|| load_shipped(AR32_SPEC_TEXT, "ar32"))
}

/// The shipped T16 spec (parsed once).
#[must_use]
pub fn builtin_t16() -> &'static IsaSpec {
    static SPEC: OnceLock<IsaSpec> = OnceLock::new();
    SPEC.get_or_init(|| load_shipped(T16_SPEC_TEXT, "t16"))
}

/// The shipped FITS spec (parsed once).
#[must_use]
pub fn builtin_fits() -> &'static IsaSpec {
    static SPEC: OnceLock<IsaSpec> = OnceLock::new();
    SPEC.get_or_init(|| load_shipped(FITS_SPEC_TEXT, "fits"))
}

/// The three ISA specs a pipeline run resolves against. `Default` is the
/// shipped catalog; serving swaps in user-supplied specs per request.
#[derive(Clone, Debug)]
pub struct SpecCatalog {
    /// The AR32 (source ISA) spec.
    pub ar32: Arc<IsaSpec>,
    /// The T16 (Thumb-like comparison ISA) spec.
    pub t16: Arc<IsaSpec>,
    /// The FITS (synthesized ISA) vocabulary spec.
    pub fits: Arc<IsaSpec>,
}

impl Default for SpecCatalog {
    fn default() -> Self {
        SpecCatalog {
            ar32: Arc::new(builtin_ar32().clone()),
            t16: Arc::new(builtin_t16().clone()),
            fits: Arc::new(builtin_fits().clone()),
        }
    }
}

impl SpecCatalog {
    /// A compact identity string: the three spec hashes joined, used as
    /// a cache-key component and stamped into artifacts.
    #[must_use]
    pub fn hash_hex(&self) -> String {
        format!(
            "{}{}{}",
            self.ar32.hash_hex(),
            self.t16.hash_hex(),
            self.fits.hash_hex()
        )
    }

    /// Is this the shipped catalog (all three specs hash-identical to
    /// the built-ins)?
    #[must_use]
    pub fn is_builtin(&self) -> bool {
        self.ar32.hash() == builtin_ar32().hash()
            && self.t16.hash() == builtin_t16().hash()
            && self.fits.hash() == builtin_fits().hash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn excerpt_keeps_short_text_and_bounds_long_text_on_a_char_boundary() {
        assert_eq!(excerpt("crc32"), "crc32");
        let exact = "a".repeat(EXCERPT_CHARS);
        assert_eq!(excerpt(&exact), exact.as_str());
        // Two-byte chars: the cut lands after 64 chars, not 64 bytes.
        let long = "é".repeat(EXCERPT_CHARS + 1);
        assert_eq!(
            excerpt(&long),
            format!("{}… (130 bytes)", "é".repeat(EXCERPT_CHARS))
        );
        let err = IsaSpec::load(&"k".repeat(256 * 1024)).unwrap_err();
        assert!(err.message.len() < 256, "{}", err.message);
        assert!(
            err.message.ends_with("… (262144 bytes)`"),
            "{}",
            err.message
        );
    }

    #[test]
    fn shipped_specs_load() {
        let ar32 = builtin_ar32();
        assert_eq!(ar32.name, "ar32");
        assert_eq!(ar32.word_width, 32);
        assert_eq!(ar32.registers.count, 16);
        let t16 = builtin_t16();
        assert_eq!(t16.word_width, 16);
        let fits = builtin_fits();
        assert_eq!(fits.word_width, 16);
        assert!(!fits.layouts.is_empty());
        assert!(!fits.tiers.is_empty());
    }

    #[test]
    fn hash_is_stable_and_content_addressed() {
        let a = builtin_ar32();
        let b = IsaSpec::load(AR32_SPEC_TEXT).unwrap();
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a.hash_hex().len(), 16);
        let c = IsaSpec::load(&AR32_SPEC_TEXT.replace("ar32", "ar32x")).unwrap();
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn validation_rejects_structural_problems() {
        let bad_schema = "isa x { schema powerfits-isa-v2 word-width 32 registers { count 16 } }";
        assert!(IsaSpec::load(bad_schema)
            .unwrap_err()
            .to_string()
            .contains("schema"));
        let bad_width = "isa x { schema powerfits-isa-v1 word-width 24 registers { count 16 } }";
        assert!(IsaSpec::load(bad_width)
            .unwrap_err()
            .to_string()
            .contains("word-width"));
        let dup = "isa x { schema powerfits-isa-v1 word-width 16 registers { count 8 } \
                   form a { pattern \"0000000000000000\" } form a { pattern \"1111111111111111\" } }";
        let err = IsaSpec::load(dup).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
        let alias =
            "isa x { schema powerfits-isa-v1 word-width 16 registers { count 8 alias sp 13 } }";
        assert!(IsaSpec::load(alias)
            .unwrap_err()
            .to_string()
            .contains("alias"));
    }

    #[test]
    fn builtin_lookup_and_catalog() {
        assert!(IsaSpec::builtin("ar32").is_some());
        assert!(IsaSpec::builtin("nope").is_none());
        let catalog = SpecCatalog::default();
        assert!(catalog.is_builtin());
        assert_eq!(catalog.hash_hex().len(), 48);
    }
}
