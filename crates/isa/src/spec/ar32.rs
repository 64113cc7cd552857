//! Spec-driven AR32 decode/encode tables.
//!
//! [`Ar32Tables::from_spec`] compiles a loaded [`IsaSpec`] into a
//! prioritized match table. The spec carries the dispatch — which words
//! belong to which named form — while the Rust constructors bound here by
//! form name carry the field semantics, including the field-value-
//! dependent rejections a mask/value pattern cannot express (`ROR #0`,
//! post-index writeback, compare without S). Reserved carve-outs map by
//! name onto the same typed [`DecodeErrorKind`]s the built-in decoder
//! uses, so a spec-loaded table is bit- and error-identical to
//! [`Instr::decode`]/[`Instr::encode`] for the shipped spec.

use crate::decode::{DecodeError, DecodeErrorKind};
use crate::{AddrOffset, Cond, DpOp, Index, Instr, MemOp, Operand2, Reg, RotImm, Shift, ShiftKind};

use super::pattern::Pattern;
use super::{excerpt, EntryKind, IsaSpec, SpecError};

type Ctor = fn(&Pattern, u32) -> Result<Instr, DecodeError>;

#[derive(Debug)]
enum Action {
    Construct(Ctor),
    Reject(DecodeErrorKind),
}

#[derive(Debug)]
struct Compiled {
    name: String,
    pattern: Pattern,
    action: Action,
}

/// AR32 decode/encode tables compiled from a spec.
#[derive(Debug)]
pub struct Ar32Tables {
    entries: Vec<Compiled>,
}

fn ccond(p: &Pattern, w: u32) -> Cond {
    Cond::from_bits(p.extract('c', w) as u8)
}

fn creg(p: &Pattern, w: u32, letter: char) -> Reg {
    Reg::new((p.extract(letter, w) & 0xf) as u8)
}

fn shift_imm(word: u32, kind_bits: u32, amount: u32) -> Result<Shift, DecodeError> {
    let kind = ShiftKind::from_bits(kind_bits as u8);
    match (kind, amount) {
        (ShiftKind::Lsl, n) => Ok(Shift::Imm(ShiftKind::Lsl, n as u8)),
        (ShiftKind::Lsr, 0) => Ok(Shift::Imm(ShiftKind::Lsr, 32)),
        (ShiftKind::Asr, 0) => Ok(Shift::Imm(ShiftKind::Asr, 32)),
        (ShiftKind::Ror, 0) => Err(DecodeError::new(word, DecodeErrorKind::Rrx)),
        (k, n) => Ok(Shift::Imm(k, n as u8)),
    }
}

fn index_of(word: u32, p_bit: u32, w_bit: u32) -> Result<Index, DecodeError> {
    match (p_bit != 0, w_bit != 0) {
        (true, false) => Ok(Index::PreNoWb),
        (true, true) => Ok(Index::PreWb),
        (false, false) => Ok(Index::Post),
        (false, true) => Err(DecodeError::new(word, DecodeErrorKind::PostIndexWriteback)),
    }
}

/// Opcode/S extraction plus the compare-without-S rejection, which the
/// built-in decoder applies before looking at the operand (so a PSR
/// transfer wins over an RRX operand in the same word).
fn dp_pre(p: &Pattern, w: u32) -> Result<(DpOp, bool), DecodeError> {
    let op = DpOp::from_bits(p.extract('o', w) as u8);
    let set_flags = p.extract('S', w) != 0;
    if op.is_compare() && !set_flags {
        return Err(DecodeError::new(w, DecodeErrorKind::PsrTransfer));
    }
    Ok((op, set_flags))
}

fn mul_common(p: &Pattern, w: u32, acc: Option<Reg>) -> Result<Instr, DecodeError> {
    Ok(Instr::Mul {
        cond: ccond(p, w),
        set_flags: p.extract('S', w) != 0,
        rd: creg(p, w, 'd'),
        rm: creg(p, w, 'm'),
        rs: creg(p, w, 's'),
        acc,
    })
}

fn ctor_mul(p: &Pattern, w: u32) -> Result<Instr, DecodeError> {
    mul_common(p, w, None)
}

fn ctor_mla(p: &Pattern, w: u32) -> Result<Instr, DecodeError> {
    let acc = Some(creg(p, w, 'a'));
    mul_common(p, w, acc)
}

fn dp_common(p: &Pattern, w: u32, op2: Operand2, op: DpOp, set_flags: bool) -> Instr {
    Instr::Dp {
        cond: ccond(p, w),
        op,
        set_flags,
        rd: creg(p, w, 'd'),
        rn: creg(p, w, 'n'),
        op2,
    }
}

fn ctor_dp_rsr(p: &Pattern, w: u32) -> Result<Instr, DecodeError> {
    let (op, s) = dp_pre(p, w)?;
    let kind = ShiftKind::from_bits(p.extract('t', w) as u8);
    let op2 = Operand2::Reg(creg(p, w, 'm'), Shift::Reg(kind, creg(p, w, 's')));
    Ok(dp_common(p, w, op2, op, s))
}

fn ctor_dp_reg(p: &Pattern, w: u32) -> Result<Instr, DecodeError> {
    let (op, s) = dp_pre(p, w)?;
    let shift = shift_imm(w, p.extract('t', w), p.extract('i', w))?;
    Ok(dp_common(
        p,
        w,
        Operand2::Reg(creg(p, w, 'm'), shift),
        op,
        s,
    ))
}

fn ctor_dp_imm(p: &Pattern, w: u32) -> Result<Instr, DecodeError> {
    let (op, s) = dp_pre(p, w)?;
    let imm = RotImm::from_fields(p.extract('i', w) as u8, p.extract('r', w) as u8);
    Ok(dp_common(p, w, Operand2::Imm(imm), op, s))
}

fn mem_common(p: &Pattern, w: u32, op: MemOp, offset: AddrOffset) -> Result<Instr, DecodeError> {
    Ok(Instr::Mem {
        cond: ccond(p, w),
        op,
        rd: creg(p, w, 'd'),
        rn: creg(p, w, 'n'),
        offset,
        index: index_of(w, p.extract('p', w), p.extract('w', w))?,
    })
}

fn mem_half_imm(p: &Pattern, w: u32, op: MemOp) -> Result<Instr, DecodeError> {
    let mag = ((p.extract('h', w) << 4) | p.extract('l', w)) as i32;
    let up = p.extract('u', w) != 0;
    mem_common(p, w, op, AddrOffset::Imm(if up { mag } else { -mag }))
}

fn mem_half_reg(p: &Pattern, w: u32, op: MemOp) -> Result<Instr, DecodeError> {
    let offset = AddrOffset::Reg {
        rm: creg(p, w, 'm'),
        shift: Shift::NONE,
        subtract: p.extract('u', w) == 0,
    };
    mem_common(p, w, op, offset)
}

fn mem_word_imm(p: &Pattern, w: u32, op: MemOp) -> Result<Instr, DecodeError> {
    let mag = p.extract('i', w) as i32;
    let up = p.extract('u', w) != 0;
    mem_common(p, w, op, AddrOffset::Imm(if up { mag } else { -mag }))
}

fn mem_word_reg(p: &Pattern, w: u32, op: MemOp) -> Result<Instr, DecodeError> {
    let shift = shift_imm(w, p.extract('t', w), p.extract('i', w))?;
    let offset = AddrOffset::Reg {
        rm: creg(p, w, 'm'),
        shift,
        subtract: p.extract('u', w) == 0,
    };
    mem_common(p, w, op, offset)
}

macro_rules! mem_ctor {
    ($name:ident, $helper:ident, $op:expr) => {
        fn $name(p: &Pattern, w: u32) -> Result<Instr, DecodeError> {
            $helper(p, w, $op)
        }
    };
}

mem_ctor!(ctor_strh_imm, mem_half_imm, MemOp::Strh);
mem_ctor!(ctor_ldrh_imm, mem_half_imm, MemOp::Ldrh);
mem_ctor!(ctor_ldrsb_imm, mem_half_imm, MemOp::Ldrsb);
mem_ctor!(ctor_ldrsh_imm, mem_half_imm, MemOp::Ldrsh);
mem_ctor!(ctor_strh_reg, mem_half_reg, MemOp::Strh);
mem_ctor!(ctor_ldrh_reg, mem_half_reg, MemOp::Ldrh);
mem_ctor!(ctor_ldrsb_reg, mem_half_reg, MemOp::Ldrsb);
mem_ctor!(ctor_ldrsh_reg, mem_half_reg, MemOp::Ldrsh);
mem_ctor!(ctor_str_imm, mem_word_imm, MemOp::Str);
mem_ctor!(ctor_ldr_imm, mem_word_imm, MemOp::Ldr);
mem_ctor!(ctor_strb_imm, mem_word_imm, MemOp::Strb);
mem_ctor!(ctor_ldrb_imm, mem_word_imm, MemOp::Ldrb);
mem_ctor!(ctor_str_reg, mem_word_reg, MemOp::Str);
mem_ctor!(ctor_ldr_reg, mem_word_reg, MemOp::Ldr);
mem_ctor!(ctor_strb_reg, mem_word_reg, MemOp::Strb);
mem_ctor!(ctor_ldrb_reg, mem_word_reg, MemOp::Ldrb);

fn branch_common(p: &Pattern, w: u32, link: bool) -> Result<Instr, DecodeError> {
    let raw = p.extract('i', w);
    // Sign-extend the 24-bit field.
    let offset = ((raw << 8) as i32) >> 8;
    Ok(Instr::Branch {
        cond: ccond(p, w),
        link,
        offset,
    })
}

fn ctor_b(p: &Pattern, w: u32) -> Result<Instr, DecodeError> {
    branch_common(p, w, false)
}

fn ctor_bl(p: &Pattern, w: u32) -> Result<Instr, DecodeError> {
    branch_common(p, w, true)
}

fn ctor_swi(p: &Pattern, w: u32) -> Result<Instr, DecodeError> {
    Ok(Instr::Swi {
        cond: ccond(p, w),
        imm: p.extract('i', w),
    })
}

/// Every form name an AR32 spec must define, its constructor, and the
/// field letters the constructor reads.
const FORMS: &[(&str, Ctor, &str)] = &[
    ("mul", ctor_mul, "cSdsm"),
    ("mla", ctor_mla, "cSdasm"),
    ("dp-rsr", ctor_dp_rsr, "coSndstm"),
    ("dp-reg", ctor_dp_reg, "coSnditm"),
    ("dp-imm", ctor_dp_imm, "coSndri"),
    ("strh-imm", ctor_strh_imm, "cpuwndhl"),
    ("ldrh-imm", ctor_ldrh_imm, "cpuwndhl"),
    ("ldrsb-imm", ctor_ldrsb_imm, "cpuwndhl"),
    ("ldrsh-imm", ctor_ldrsh_imm, "cpuwndhl"),
    ("strh-reg", ctor_strh_reg, "cpuwndm"),
    ("ldrh-reg", ctor_ldrh_reg, "cpuwndm"),
    ("ldrsb-reg", ctor_ldrsb_reg, "cpuwndm"),
    ("ldrsh-reg", ctor_ldrsh_reg, "cpuwndm"),
    ("str-imm", ctor_str_imm, "cpuwndi"),
    ("ldr-imm", ctor_ldr_imm, "cpuwndi"),
    ("strb-imm", ctor_strb_imm, "cpuwndi"),
    ("ldrb-imm", ctor_ldrb_imm, "cpuwndi"),
    ("str-reg", ctor_str_reg, "cpuwnditm"),
    ("ldr-reg", ctor_ldr_reg, "cpuwnditm"),
    ("strb-reg", ctor_strb_reg, "cpuwnditm"),
    ("ldrb-reg", ctor_ldrb_reg, "cpuwnditm"),
    ("b", ctor_b, "ci"),
    ("bl", ctor_bl, "ci"),
    ("swi", ctor_swi, "ci"),
];

/// Maps a reserved carve-out name onto the typed rejection the built-in
/// decoder raises for the same words.
fn reserved_kind(name: &str) -> DecodeErrorKind {
    match name {
        "long-multiply" => DecodeErrorKind::LongMultiply,
        "mul-nonzero-rn" => DecodeErrorKind::MulNonzeroRn,
        "signed-store" => DecodeErrorKind::SignedStore,
        "halfword-hi-bits" => DecodeErrorKind::HalfwordHiBits,
        "mem-register-shift" => DecodeErrorKind::RegisterShiftMemOffset,
        _ => DecodeErrorKind::Unsupported,
    }
}

impl Ar32Tables {
    /// Compiles decode/encode tables from a loaded spec.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the spec is not 32-bit, names a form
    /// this engine has no constructor for, omits a field a constructor
    /// reads, or is missing one of the forms the encoder needs.
    pub fn from_spec(spec: &IsaSpec) -> Result<Ar32Tables, SpecError> {
        let top = super::Pos { line: 1, col: 1 };
        if spec.word_width != 32 {
            return Err(SpecError::new(
                top,
                format!(
                    "AR32 tables need word-width 32, spec has {}",
                    spec.word_width
                ),
            ));
        }
        let mut entries = Vec::with_capacity(spec.entries.len());
        for entry in &spec.entries {
            let action = match &entry.kind {
                EntryKind::Form => {
                    let Some(&(_, ctor, letters)) = FORMS.iter().find(|(n, _, _)| *n == entry.name)
                    else {
                        return Err(SpecError::new(
                            entry.pos,
                            format!("unknown AR32 form `{}`", excerpt(&entry.name)),
                        ));
                    };
                    for letter in letters.chars() {
                        if !entry.pattern.fields.iter().any(|f| f.letter == letter) {
                            return Err(SpecError::new(
                                entry.pos,
                                format!(
                                    "form `{}` pattern is missing field `{letter}`",
                                    entry.name
                                ),
                            ));
                        }
                    }
                    Action::Construct(ctor)
                }
                EntryKind::Reserved { .. } => Action::Reject(reserved_kind(&entry.name)),
            };
            entries.push(Compiled {
                name: entry.name.clone(),
                pattern: entry.pattern.clone(),
                action,
            });
        }
        for (name, _, _) in FORMS {
            if !entries
                .iter()
                .any(|e| e.name == *name && matches!(e.action, Action::Construct(_)))
            {
                return Err(SpecError::new(
                    top,
                    format!("spec is missing the AR32 form `{name}` (encode would be partial)"),
                ));
            }
        }
        Ok(Ar32Tables { entries })
    }

    /// The tables compiled from the shipped AR32 spec (built once).
    #[must_use]
    pub fn builtin() -> &'static Ar32Tables {
        static TABLES: std::sync::OnceLock<Ar32Tables> = std::sync::OnceLock::new();
        TABLES.get_or_init(|| match Ar32Tables::from_spec(super::builtin_ar32()) {
            Ok(t) => t,
            Err(err) => unreachable!("shipped ar32 spec does not compile: {err}"),
        })
    }

    /// Decodes a 32-bit word by first-match priority over the spec's
    /// pattern entries.
    ///
    /// # Errors
    ///
    /// Returns the same typed [`DecodeError`]s as [`Instr::decode`]:
    /// reserved carve-outs reject with their mapped kind, unmatched words
    /// with [`DecodeErrorKind::Unsupported`], and constructors raise the
    /// field-value-dependent rejections.
    pub fn decode(&self, word: u32) -> Result<Instr, DecodeError> {
        for e in &self.entries {
            if e.pattern.matches(word) {
                return match &e.action {
                    Action::Construct(ctor) => ctor(&e.pattern, word),
                    Action::Reject(kind) => Err(DecodeError::new(word, *kind)),
                };
            }
        }
        Err(DecodeError::new(word, DecodeErrorKind::Unsupported))
    }

    fn pattern(&self, name: &str) -> &Pattern {
        match self.entries.iter().find(|e| e.name == name) {
            Some(e) => &e.pattern,
            // from_spec proved every FORMS name present.
            None => unreachable!("form `{name}` vanished from compiled tables"),
        }
    }

    /// Encodes an instruction by packing the matching form's fields —
    /// bit-identical to [`Instr::encode`].
    #[must_use]
    pub fn encode(&self, instr: &Instr) -> u32 {
        let mut fields: Vec<(char, u32)> = Vec::with_capacity(9);
        fields.push(('c', u32::from(instr.cond().bits())));
        let name = match *instr {
            Instr::Dp {
                op,
                set_flags,
                rd,
                rn,
                op2,
                ..
            } => {
                fields.push(('o', u32::from(op.bits())));
                fields.push(('S', u32::from(set_flags)));
                fields.push(('n', u32::from(rn.index())));
                fields.push(('d', u32::from(rd.index())));
                match op2 {
                    Operand2::Imm(imm) => {
                        fields.push(('r', u32::from(imm.rot())));
                        fields.push(('i', u32::from(imm.imm8())));
                        "dp-imm"
                    }
                    Operand2::Reg(rm, Shift::Imm(kind, amount)) => {
                        fields.push(('i', shift_amount_field(amount)));
                        fields.push(('t', u32::from(kind.bits())));
                        fields.push(('m', u32::from(rm.index())));
                        "dp-reg"
                    }
                    Operand2::Reg(rm, Shift::Reg(kind, rs)) => {
                        fields.push(('s', u32::from(rs.index())));
                        fields.push(('t', u32::from(kind.bits())));
                        fields.push(('m', u32::from(rm.index())));
                        "dp-rsr"
                    }
                }
            }
            Instr::Mul {
                set_flags,
                rd,
                rm,
                rs,
                acc,
                ..
            } => {
                fields.push(('S', u32::from(set_flags)));
                fields.push(('d', u32::from(rd.index())));
                fields.push(('s', u32::from(rs.index())));
                fields.push(('m', u32::from(rm.index())));
                match acc {
                    Some(rn) => {
                        fields.push(('a', u32::from(rn.index())));
                        "mla"
                    }
                    None => "mul",
                }
            }
            Instr::Mem {
                op,
                rd,
                rn,
                offset,
                index,
                ..
            } => {
                let (p, w) = match index {
                    Index::PreNoWb => (1u32, 0u32),
                    Index::PreWb => (1, 1),
                    Index::Post => (0, 0),
                };
                fields.push(('p', p));
                fields.push(('w', w));
                fields.push(('n', u32::from(rn.index())));
                fields.push(('d', u32::from(rd.index())));
                if op.is_halfword_form() {
                    match offset {
                        AddrOffset::Imm(d) => {
                            let mag = d.unsigned_abs();
                            fields.push(('u', u32::from(d >= 0)));
                            fields.push(('h', mag >> 4));
                            fields.push(('l', mag & 0xf));
                            match op {
                                MemOp::Strh => "strh-imm",
                                MemOp::Ldrh => "ldrh-imm",
                                MemOp::Ldrsb => "ldrsb-imm",
                                _ => "ldrsh-imm",
                            }
                        }
                        AddrOffset::Reg { rm, subtract, .. } => {
                            fields.push(('u', u32::from(!subtract)));
                            fields.push(('m', u32::from(rm.index())));
                            match op {
                                MemOp::Strh => "strh-reg",
                                MemOp::Ldrh => "ldrh-reg",
                                MemOp::Ldrsb => "ldrsb-reg",
                                _ => "ldrsh-reg",
                            }
                        }
                    }
                } else {
                    match offset {
                        AddrOffset::Imm(d) => {
                            fields.push(('u', u32::from(d >= 0)));
                            fields.push(('i', d.unsigned_abs()));
                            match op {
                                MemOp::Str => "str-imm",
                                MemOp::Ldr => "ldr-imm",
                                MemOp::Strb => "strb-imm",
                                _ => "ldrb-imm",
                            }
                        }
                        AddrOffset::Reg {
                            rm,
                            shift,
                            subtract,
                        } => {
                            fields.push(('u', u32::from(!subtract)));
                            let (kind, amount) = match shift {
                                Shift::Imm(kind, amount) => (kind, amount),
                                // Register-shift offsets are invalid for
                                // memory forms; mirror the built-in
                                // encoder's debug contract by treating the
                                // shift fields as LSL #0.
                                Shift::Reg(kind, _) => (kind, 0),
                            };
                            fields.push(('i', shift_amount_field(amount)));
                            fields.push(('t', u32::from(kind.bits())));
                            fields.push(('m', u32::from(rm.index())));
                            match op {
                                MemOp::Str => "str-reg",
                                MemOp::Ldr => "ldr-reg",
                                MemOp::Strb => "strb-reg",
                                _ => "ldrb-reg",
                            }
                        }
                    }
                }
            }
            Instr::Branch { link, offset, .. } => {
                fields.push(('i', (offset as u32) & 0x00ff_ffff));
                if link {
                    "bl"
                } else {
                    "b"
                }
            }
            Instr::Swi { imm, .. } => {
                fields.push(('i', imm));
                "swi"
            }
        };
        self.pattern(name).pack(&fields)
    }
}

/// LSR/ASR #32 encode with a zero amount field.
fn shift_amount_field(amount: u8) -> u32 {
    if amount == 32 {
        0
    } else {
        u32::from(amount)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_words_match_builtin() {
        let t = Ar32Tables::builtin();
        for word in [
            0xe281_0004u32, // add r0, r1, #4
            0xe1a0_2003,    // mov r2, r3
            0xe000_0291,    // mul r0, r1, r2
            0xea00_0002,    // b +2
            0xebff_fffe,    // bl -2
            0xe591_0008,    // ldr r0, [r1, #8]
            0xe501_0004,    // str r0, [r1, #-4]
            0xef00_0011,    // swi #17
            0xe351_0000,    // cmp r1, #0
        ] {
            let via_spec = t.decode(word).unwrap();
            assert_eq!(via_spec, Instr::decode(word).unwrap(), "{word:#010x}");
            assert_eq!(t.encode(&via_spec), word, "{word:#010x}");
        }
    }

    #[test]
    fn rejections_match_builtin() {
        let t = Ar32Tables::builtin();
        for word in [
            0xe8bd_8000u32, // LDM (block transfer)
            0xee00_0000,    // coprocessor
            0xe10f_0000,    // MRS (compare without S)
            0xe1a0_0062,    // RRX shifter form
            0xe080_0291,    // UMULL
            0xe000_1291,    // MUL with nonzero Rn
            0xe1c1_02d4,    // signed store (LDRSB pattern with L=0... S=1 L=0)
        ] {
            let spec_err = t.decode(word).unwrap_err();
            let builtin_err = Instr::decode(word).unwrap_err();
            assert_eq!(spec_err, builtin_err, "{word:#010x}");
        }
    }

    #[test]
    fn exhaustive_strided_differential() {
        let t = Ar32Tables::builtin();
        // A multiplicative stride walks a well-spread sample of the word
        // space deterministically.
        let mut word: u32 = 0x9e37_79b9;
        for _ in 0..200_000 {
            word = word.wrapping_mul(0x0019_660d).wrapping_add(0x3c6e_f35f);
            match (t.decode(word), Instr::decode(word)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "{word:#010x}");
                    assert_eq!(t.encode(&a), a.encode(), "{word:#010x}");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{word:#010x}"),
                (a, b) => panic!("{word:#010x}: spec {a:?} vs builtin {b:?}"),
            }
        }
    }

    #[test]
    fn missing_form_is_a_build_error() {
        let text = super::super::AR32_SPEC_TEXT.replace(
            "form swi { pattern \"cccc 1111 iiii iiii iiii iiii iiii iiii\" }",
            "",
        );
        let spec = IsaSpec::load(&text).unwrap();
        let err = Ar32Tables::from_spec(&spec).unwrap_err();
        assert!(err.to_string().contains("missing the AR32 form `swi`"));
    }

    #[test]
    fn unknown_form_is_a_build_error() {
        let text = super::super::AR32_SPEC_TEXT.replace("form swi", "form swj");
        let spec = IsaSpec::load(&text).unwrap();
        let err = Ar32Tables::from_spec(&spec).unwrap_err();
        assert!(err.to_string().contains("unknown AR32 form `swj`"));
    }
}
