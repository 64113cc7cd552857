//! Spec-driven T16 decode/encode tables.
//!
//! The same split as the AR32 engine: the spec carries halfword dispatch
//! (priority-ordered patterns plus reserved carve-outs), the Rust side
//! carries field semantics and the encode-time validity checks a pattern
//! cannot express (low-register fields, immediate ranges, branch offset
//! fits). The two-halfword `BL` form is spec'd as a `bl-hi`/`bl-lo` pair
//! of forms the engine stitches together, mirroring
//! [`T16Instr::decode`]'s prefix/suffix pairing and its error cases.

use crate::thumb::{AddSubRhs, HiOp, Imm8Op, T16Alu, T16DecodeError, T16EncodeError, T16Instr};
use crate::{Cond, MemOp, Reg, ShiftKind};

use super::pattern::Pattern;
use super::{excerpt, EntryKind, IsaSpec, SpecError};

type Ctor = fn(&Pattern, u32) -> T16Instr;

#[derive(Debug)]
enum Action {
    Construct(Ctor),
    Reject(&'static str),
    BlPrefix,
    BlSuffix,
}

#[derive(Debug)]
struct Compiled {
    name: String,
    pattern: Pattern,
    action: Action,
}

/// T16 decode/encode tables compiled from a spec.
#[derive(Debug)]
pub struct T16Tables {
    entries: Vec<Compiled>,
}

fn reg3(p: &Pattern, w: u32, letter: char) -> Reg {
    Reg::new((p.extract(letter, w) & 7) as u8)
}

fn sext(v: u32, bits: u32) -> i32 {
    ((v << (32 - bits)) as i32) >> (32 - bits)
}

fn shift_ctor(p: &Pattern, w: u32, kind: ShiftKind) -> T16Instr {
    let raw = p.extract('i', w) as u8;
    let n = if raw == 0 && kind != ShiftKind::Lsl {
        32
    } else {
        raw
    };
    T16Instr::ShiftImm(kind, reg3(p, w, 'd'), reg3(p, w, 'm'), n)
}

fn ctor_lsl_imm(p: &Pattern, w: u32) -> T16Instr {
    shift_ctor(p, w, ShiftKind::Lsl)
}

fn ctor_lsr_imm(p: &Pattern, w: u32) -> T16Instr {
    shift_ctor(p, w, ShiftKind::Lsr)
}

fn ctor_asr_imm(p: &Pattern, w: u32) -> T16Instr {
    shift_ctor(p, w, ShiftKind::Asr)
}

fn add3(p: &Pattern, w: u32, sub: bool, rhs: AddSubRhs) -> T16Instr {
    T16Instr::AddSub3 {
        sub,
        rd: reg3(p, w, 'd'),
        rn: reg3(p, w, 'n'),
        rhs,
    }
}

fn ctor_add3_reg(p: &Pattern, w: u32) -> T16Instr {
    add3(p, w, false, AddSubRhs::Reg(reg3(p, w, 'm')))
}

fn ctor_sub3_reg(p: &Pattern, w: u32) -> T16Instr {
    add3(p, w, true, AddSubRhs::Reg(reg3(p, w, 'm')))
}

fn ctor_add3_imm3(p: &Pattern, w: u32) -> T16Instr {
    add3(p, w, false, AddSubRhs::Imm3((p.extract('i', w) & 7) as u8))
}

fn ctor_sub3_imm3(p: &Pattern, w: u32) -> T16Instr {
    add3(p, w, true, AddSubRhs::Imm3((p.extract('i', w) & 7) as u8))
}

fn imm8_ctor(p: &Pattern, w: u32, op: Imm8Op) -> T16Instr {
    T16Instr::Imm8(op, reg3(p, w, 'd'), p.extract('i', w) as u8)
}

fn ctor_mov_imm8(p: &Pattern, w: u32) -> T16Instr {
    imm8_ctor(p, w, Imm8Op::Mov)
}

fn ctor_cmp_imm8(p: &Pattern, w: u32) -> T16Instr {
    imm8_ctor(p, w, Imm8Op::Cmp)
}

fn ctor_add_imm8(p: &Pattern, w: u32) -> T16Instr {
    imm8_ctor(p, w, Imm8Op::Add)
}

fn ctor_sub_imm8(p: &Pattern, w: u32) -> T16Instr {
    imm8_ctor(p, w, Imm8Op::Sub)
}

fn alu_from_bits(bits: u32) -> T16Alu {
    match bits & 0xf {
        0 => T16Alu::And,
        1 => T16Alu::Eor,
        2 => T16Alu::Lsl,
        3 => T16Alu::Lsr,
        4 => T16Alu::Asr,
        5 => T16Alu::Adc,
        6 => T16Alu::Sbc,
        7 => T16Alu::Ror,
        8 => T16Alu::Tst,
        9 => T16Alu::Neg,
        10 => T16Alu::Cmp,
        11 => T16Alu::Cmn,
        12 => T16Alu::Orr,
        13 => T16Alu::Mul,
        14 => T16Alu::Bic,
        _ => T16Alu::Mvn,
    }
}

fn ctor_alu(p: &Pattern, w: u32) -> T16Instr {
    T16Instr::Alu(
        alu_from_bits(p.extract('o', w)),
        reg3(p, w, 'd'),
        reg3(p, w, 'm'),
    )
}

fn hi_regs(p: &Pattern, w: u32) -> (Reg, Reg) {
    let rd = Reg::new(((p.extract('h', w) << 3) | p.extract('d', w)) as u8);
    let rm = Reg::new(((p.extract('g', w) << 3) | p.extract('m', w)) as u8);
    (rd, rm)
}

fn hi_ctor(p: &Pattern, w: u32, op: HiOp) -> T16Instr {
    let (rd, rm) = hi_regs(p, w);
    T16Instr::HiOp(op, rd, rm)
}

fn ctor_hi_add(p: &Pattern, w: u32) -> T16Instr {
    hi_ctor(p, w, HiOp::Add)
}

fn ctor_hi_cmp(p: &Pattern, w: u32) -> T16Instr {
    hi_ctor(p, w, HiOp::Cmp)
}

fn ctor_hi_mov(p: &Pattern, w: u32) -> T16Instr {
    hi_ctor(p, w, HiOp::Mov)
}

fn ctor_bx(p: &Pattern, w: u32) -> T16Instr {
    let rm = Reg::new(((p.extract('g', w) << 3) | p.extract('m', w)) as u8);
    T16Instr::Bx(rm)
}

fn mem_reg_ctor(p: &Pattern, w: u32, op: MemOp) -> T16Instr {
    T16Instr::MemReg(op, reg3(p, w, 'd'), reg3(p, w, 'n'), reg3(p, w, 'm'))
}

fn mem_imm_ctor(p: &Pattern, w: u32, op: MemOp) -> T16Instr {
    T16Instr::MemImm(
        op,
        reg3(p, w, 'd'),
        reg3(p, w, 'n'),
        p.extract('i', w) as u8,
    )
}

macro_rules! mem_ctor {
    ($name:ident, $helper:ident, $op:expr) => {
        fn $name(p: &Pattern, w: u32) -> T16Instr {
            $helper(p, w, $op)
        }
    };
}

mem_ctor!(ctor_str_reg, mem_reg_ctor, MemOp::Str);
mem_ctor!(ctor_strh_reg, mem_reg_ctor, MemOp::Strh);
mem_ctor!(ctor_strb_reg, mem_reg_ctor, MemOp::Strb);
mem_ctor!(ctor_ldrsb_reg, mem_reg_ctor, MemOp::Ldrsb);
mem_ctor!(ctor_ldr_reg, mem_reg_ctor, MemOp::Ldr);
mem_ctor!(ctor_ldrh_reg, mem_reg_ctor, MemOp::Ldrh);
mem_ctor!(ctor_ldrb_reg, mem_reg_ctor, MemOp::Ldrb);
mem_ctor!(ctor_ldrsh_reg, mem_reg_ctor, MemOp::Ldrsh);
mem_ctor!(ctor_str_imm, mem_imm_ctor, MemOp::Str);
mem_ctor!(ctor_ldr_imm, mem_imm_ctor, MemOp::Ldr);
mem_ctor!(ctor_strb_imm, mem_imm_ctor, MemOp::Strb);
mem_ctor!(ctor_ldrb_imm, mem_imm_ctor, MemOp::Ldrb);
mem_ctor!(ctor_strh_imm, mem_imm_ctor, MemOp::Strh);
mem_ctor!(ctor_ldrh_imm, mem_imm_ctor, MemOp::Ldrh);

fn sp_ctor(p: &Pattern, w: u32, load: bool) -> T16Instr {
    T16Instr::MemSp {
        load,
        rd: reg3(p, w, 'd'),
        imm8: p.extract('i', w) as u8,
    }
}

fn ctor_str_sp(p: &Pattern, w: u32) -> T16Instr {
    sp_ctor(p, w, false)
}

fn ctor_ldr_sp(p: &Pattern, w: u32) -> T16Instr {
    sp_ctor(p, w, true)
}

fn ctor_swi(p: &Pattern, w: u32) -> T16Instr {
    T16Instr::Swi(p.extract('i', w) as u8)
}

fn ctor_bcond(p: &Pattern, w: u32) -> T16Instr {
    let cond = Cond::from_bits(p.extract('c', w) as u8);
    T16Instr::BCond(cond, sext(p.extract('i', w), 8))
}

fn ctor_b(p: &Pattern, w: u32) -> T16Instr {
    T16Instr::B(sext(p.extract('i', w), 11))
}

/// Every single-halfword form name a T16 spec must define (the `bl-hi`/
/// `bl-lo` pair is handled specially), its constructor, and the field
/// letters the constructor reads.
const FORMS: &[(&str, Ctor, &str)] = &[
    ("lsl-imm", ctor_lsl_imm, "imd"),
    ("lsr-imm", ctor_lsr_imm, "imd"),
    ("asr-imm", ctor_asr_imm, "imd"),
    ("add3-reg", ctor_add3_reg, "mnd"),
    ("sub3-reg", ctor_sub3_reg, "mnd"),
    ("add3-imm3", ctor_add3_imm3, "ind"),
    ("sub3-imm3", ctor_sub3_imm3, "ind"),
    ("mov-imm8", ctor_mov_imm8, "di"),
    ("cmp-imm8", ctor_cmp_imm8, "di"),
    ("add-imm8", ctor_add_imm8, "di"),
    ("sub-imm8", ctor_sub_imm8, "di"),
    ("alu", ctor_alu, "omd"),
    ("hi-add", ctor_hi_add, "hgmd"),
    ("hi-cmp", ctor_hi_cmp, "hgmd"),
    ("hi-mov", ctor_hi_mov, "hgmd"),
    ("bx", ctor_bx, "gm"),
    ("str-reg", ctor_str_reg, "mnd"),
    ("strh-reg", ctor_strh_reg, "mnd"),
    ("strb-reg", ctor_strb_reg, "mnd"),
    ("ldrsb-reg", ctor_ldrsb_reg, "mnd"),
    ("ldr-reg", ctor_ldr_reg, "mnd"),
    ("ldrh-reg", ctor_ldrh_reg, "mnd"),
    ("ldrb-reg", ctor_ldrb_reg, "mnd"),
    ("ldrsh-reg", ctor_ldrsh_reg, "mnd"),
    ("str-imm", ctor_str_imm, "ind"),
    ("ldr-imm", ctor_ldr_imm, "ind"),
    ("strb-imm", ctor_strb_imm, "ind"),
    ("ldrb-imm", ctor_ldrb_imm, "ind"),
    ("strh-imm", ctor_strh_imm, "ind"),
    ("ldrh-imm", ctor_ldrh_imm, "ind"),
    ("str-sp", ctor_str_sp, "di"),
    ("ldr-sp", ctor_ldr_sp, "di"),
    ("swi", ctor_swi, "i"),
    ("bcond", ctor_bcond, "ci"),
    ("b", ctor_b, "i"),
];

/// Maps a reserved carve-out name onto the exact reason string the
/// built-in decoder uses for the same halfwords.
fn reserved_reason(name: &str) -> &'static str {
    match name {
        "malformed-bx" => "malformed BX",
        "pc-relative-load" => "PC-relative load unsupported",
        "add-pc-sp" => "ADD to PC/SP unsupported",
        "misc-format" => "misc format space unsupported",
        "block-transfer" => "block transfer unsupported",
        "undef-cond-branch" => "undefined conditional-branch slot",
        "thumb2-prefix" => "Thumb-2 prefix space",
        _ => "unallocated halfword space",
    }
}

fn low(r: Reg) -> Result<u32, T16EncodeError> {
    if r.index() < 8 {
        Ok(u32::from(r.index()))
    } else {
        Err(T16EncodeError::new("high register in a low-register field"))
    }
}

fn fit_signed(v: i32, bits: u32, reason: &'static str) -> Result<u32, T16EncodeError> {
    let half = 1i32 << (bits - 1);
    if (-half..half).contains(&v) {
        Ok((v as u32) & ((1 << bits) - 1))
    } else {
        Err(T16EncodeError::new(reason))
    }
}

impl T16Tables {
    /// Compiles decode/encode tables from a loaded spec.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the spec is not 16-bit, names a form
    /// this engine has no constructor for, omits a field a constructor
    /// reads, or is missing a form the encoder needs.
    pub fn from_spec(spec: &IsaSpec) -> Result<T16Tables, SpecError> {
        let top = super::Pos { line: 1, col: 1 };
        if spec.word_width != 16 {
            return Err(SpecError::new(
                top,
                format!(
                    "T16 tables need word-width 16, spec has {}",
                    spec.word_width
                ),
            ));
        }
        let mut entries = Vec::with_capacity(spec.entries.len());
        for entry in &spec.entries {
            let action = match &entry.kind {
                EntryKind::Form => match entry.name.as_str() {
                    "bl-hi" => Action::BlPrefix,
                    "bl-lo" => Action::BlSuffix,
                    name => {
                        let Some(&(_, ctor, letters)) = FORMS.iter().find(|(n, _, _)| *n == name)
                        else {
                            return Err(SpecError::new(
                                entry.pos,
                                format!("unknown T16 form `{}`", excerpt(name)),
                            ));
                        };
                        for letter in letters.chars() {
                            if !entry.pattern.fields.iter().any(|f| f.letter == letter) {
                                return Err(SpecError::new(
                                    entry.pos,
                                    format!("form `{name}` pattern is missing field `{letter}`"),
                                ));
                            }
                        }
                        Action::Construct(ctor)
                    }
                },
                EntryKind::Reserved { .. } => Action::Reject(reserved_reason(&entry.name)),
            };
            entries.push(Compiled {
                name: entry.name.clone(),
                pattern: entry.pattern.clone(),
                action,
            });
        }
        for name in FORMS.iter().map(|(n, _, _)| *n).chain(["bl-hi", "bl-lo"]) {
            if !entries
                .iter()
                .any(|e| e.name == name && !matches!(e.action, Action::Reject(_)))
            {
                return Err(SpecError::new(
                    top,
                    format!("spec is missing the T16 form `{name}` (encode would be partial)"),
                ));
            }
        }
        Ok(T16Tables { entries })
    }

    /// The tables compiled from the shipped T16 spec (built once).
    #[must_use]
    pub fn builtin() -> &'static T16Tables {
        static TABLES: std::sync::OnceLock<T16Tables> = std::sync::OnceLock::new();
        TABLES.get_or_init(|| match T16Tables::from_spec(super::builtin_t16()) {
            Ok(t) => t,
            Err(err) => unreachable!("shipped t16 spec does not compile: {err}"),
        })
    }

    /// Decodes the instruction at the head of `stream`, returning it and
    /// the number of halfwords consumed (1, or 2 for `BL`) — bit- and
    /// error-identical to [`T16Instr::decode`].
    ///
    /// # Errors
    ///
    /// Returns the same [`T16DecodeError`]s as the built-in decoder,
    /// including the truncated/unpaired `BL` cases.
    pub fn decode(&self, stream: &[u16]) -> Result<(T16Instr, usize), T16DecodeError> {
        let Some(&w) = stream.first() else {
            return Err(T16DecodeError::new(0, "empty stream"));
        };
        let word = u32::from(w);
        for e in &self.entries {
            if !e.pattern.matches(word) {
                continue;
            }
            return match &e.action {
                Action::Construct(ctor) => Ok((ctor(&e.pattern, word), 1)),
                Action::Reject(reason) => Err(T16DecodeError::new(w, reason)),
                Action::BlSuffix => Err(T16DecodeError::new(w, "BL suffix without prefix")),
                Action::BlPrefix => {
                    let Some(&w2) = stream.get(1) else {
                        return Err(T16DecodeError::new(w, "truncated BL"));
                    };
                    let suffix = self.pattern("bl-lo");
                    if !suffix.matches(u32::from(w2)) {
                        return Err(T16DecodeError::new(w, "BL prefix without suffix"));
                    }
                    let hi = e.pattern.extract('i', word);
                    let lo = suffix.extract('i', u32::from(w2));
                    Ok((T16Instr::Bl(sext((hi << 11) | lo, 22)), 2))
                }
            };
        }
        Err(T16DecodeError::new(w, "unallocated halfword space"))
    }

    fn pattern(&self, name: &str) -> &Pattern {
        match self.entries.iter().find(|e| e.name == name) {
            Some(e) => &e.pattern,
            // from_spec proved every form name present.
            None => unreachable!("form `{name}` vanished from compiled tables"),
        }
    }

    /// Appends the instruction's halfword encoding to `out`, applying the
    /// same validity checks (in the same order) as [`T16Instr::encode`].
    ///
    /// # Errors
    ///
    /// Returns the same [`T16EncodeError`]s as the built-in encoder.
    pub fn encode(&self, instr: &T16Instr, out: &mut Vec<u16>) -> Result<(), T16EncodeError> {
        let mut fields: Vec<(char, u32)> = Vec::with_capacity(4);
        let name = match *instr {
            T16Instr::ShiftImm(kind, rd, rm, n) => {
                let name = match kind {
                    ShiftKind::Lsl => "lsl-imm",
                    ShiftKind::Lsr => "lsr-imm",
                    ShiftKind::Asr => "asr-imm",
                    ShiftKind::Ror => return Err(T16EncodeError::new("ROR by immediate")),
                };
                let imm5 = match (kind, n) {
                    (ShiftKind::Lsl, 0..=31) => u32::from(n),
                    (ShiftKind::Lsr | ShiftKind::Asr, 1..=31) => u32::from(n),
                    (ShiftKind::Lsr | ShiftKind::Asr, 32) => 0,
                    _ => return Err(T16EncodeError::new("shift amount out of range")),
                };
                fields.push(('i', imm5));
                fields.push(('m', low(rm)?));
                fields.push(('d', low(rd)?));
                name
            }
            T16Instr::AddSub3 { sub, rd, rn, rhs } => {
                let name = match rhs {
                    AddSubRhs::Reg(rm) => {
                        fields.push(('m', low(rm)?));
                        if sub {
                            "sub3-reg"
                        } else {
                            "add3-reg"
                        }
                    }
                    AddSubRhs::Imm3(n) => {
                        if n > 7 {
                            return Err(T16EncodeError::new("imm3 out of range"));
                        }
                        fields.push(('i', u32::from(n)));
                        if sub {
                            "sub3-imm3"
                        } else {
                            "add3-imm3"
                        }
                    }
                };
                fields.push(('n', low(rn)?));
                fields.push(('d', low(rd)?));
                name
            }
            T16Instr::Imm8(op, rd, n) => {
                fields.push(('d', low(rd)?));
                fields.push(('i', u32::from(n)));
                match op {
                    Imm8Op::Mov => "mov-imm8",
                    Imm8Op::Cmp => "cmp-imm8",
                    Imm8Op::Add => "add-imm8",
                    Imm8Op::Sub => "sub-imm8",
                }
            }
            T16Instr::Alu(op, rd, rm) => {
                fields.push(('o', op as u32));
                fields.push(('m', low(rm)?));
                fields.push(('d', low(rd)?));
                "alu"
            }
            T16Instr::HiOp(op, rd, rm) => {
                fields.push(('h', u32::from(rd.index() >> 3)));
                fields.push(('g', u32::from(rm.index() >> 3)));
                fields.push(('m', u32::from(rm.index() & 7)));
                fields.push(('d', u32::from(rd.index() & 7)));
                match op {
                    HiOp::Add => "hi-add",
                    HiOp::Cmp => "hi-cmp",
                    HiOp::Mov => "hi-mov",
                }
            }
            T16Instr::Bx(rm) => {
                fields.push(('g', u32::from(rm.index() >> 3)));
                fields.push(('m', u32::from(rm.index() & 7)));
                "bx"
            }
            T16Instr::MemReg(op, rd, rn, rm) => {
                fields.push(('m', low(rm)?));
                fields.push(('n', low(rn)?));
                fields.push(('d', low(rd)?));
                match op {
                    MemOp::Str => "str-reg",
                    MemOp::Strh => "strh-reg",
                    MemOp::Strb => "strb-reg",
                    MemOp::Ldrsb => "ldrsb-reg",
                    MemOp::Ldr => "ldr-reg",
                    MemOp::Ldrh => "ldrh-reg",
                    MemOp::Ldrb => "ldrb-reg",
                    MemOp::Ldrsh => "ldrsh-reg",
                }
            }
            T16Instr::MemImm(op, rd, rn, n) => {
                if n > 31 {
                    return Err(T16EncodeError::new("imm5 displacement out of range"));
                }
                let name = match op {
                    MemOp::Str => "str-imm",
                    MemOp::Ldr => "ldr-imm",
                    MemOp::Strb => "strb-imm",
                    MemOp::Ldrb => "ldrb-imm",
                    MemOp::Strh => "strh-imm",
                    MemOp::Ldrh => "ldrh-imm",
                    MemOp::Ldrsb | MemOp::Ldrsh => {
                        return Err(T16EncodeError::new("signed load has no immediate form"))
                    }
                };
                fields.push(('i', u32::from(n)));
                fields.push(('n', low(rn)?));
                fields.push(('d', low(rd)?));
                name
            }
            T16Instr::MemSp { load, rd, imm8 } => {
                fields.push(('d', low(rd)?));
                fields.push(('i', u32::from(imm8)));
                if load {
                    "ldr-sp"
                } else {
                    "str-sp"
                }
            }
            T16Instr::BCond(cond, off) => {
                if cond == Cond::Al || cond.bits() == 0b1111 {
                    return Err(T16EncodeError::new(
                        "conditional branch with AL/NV condition",
                    ));
                }
                fields.push(('c', u32::from(cond.bits())));
                fields.push((
                    'i',
                    fit_signed(off, 8, "conditional branch offset out of range")?,
                ));
                "bcond"
            }
            T16Instr::B(off) => {
                fields.push(('i', fit_signed(off, 11, "branch offset out of range")?));
                "b"
            }
            T16Instr::Swi(n) => {
                fields.push(('i', u32::from(n)));
                "swi"
            }
            T16Instr::Bl(off) => {
                if !(-(1 << 21)..(1 << 21)).contains(&off) {
                    return Err(T16EncodeError::new("BL offset out of range"));
                }
                let hi = ((off >> 11) as u32) & 0x7ff;
                let lo = (off as u32) & 0x7ff;
                out.push(self.pattern("bl-hi").pack(&[('i', hi)]) as u16);
                out.push(self.pattern("bl-lo").pack(&[('i', lo)]) as u16);
                return Ok(());
            }
        };
        out.push(self.pattern(name).pack(&fields) as u16);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every halfword, followed by a valid BL suffix so the `bl-hi` path
    /// is exercised too, decoded through both engines.
    #[test]
    fn exhaustive_halfword_differential() {
        let t = T16Tables::builtin();
        for w in 0..=u16::MAX {
            let stream = [w, 0xf800];
            match (t.decode(&stream), T16Instr::decode(&stream)) {
                (Ok((a, na)), Ok((b, nb))) => {
                    assert_eq!((a.clone(), na), (b, nb), "{w:#06x}");
                    let mut ours = Vec::new();
                    let mut theirs = Vec::new();
                    let enc_a = t.encode(&a, &mut ours);
                    let enc_b = a.encode(&mut theirs);
                    assert_eq!(enc_a, enc_b, "{w:#06x}");
                    assert_eq!(ours, theirs, "{w:#06x}");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{w:#06x}"),
                (a, b) => panic!("{w:#06x}: spec {a:?} vs builtin {b:?}"),
            }
        }
    }

    #[test]
    fn bl_edge_cases_match_builtin() {
        let t = T16Tables::builtin();
        // Truncated prefix.
        let s = [0xf123u16];
        assert_eq!(t.decode(&s), T16Instr::decode(&s));
        // Prefix followed by a non-suffix halfword.
        let s = [0xf123u16, 0x1234];
        assert_eq!(t.decode(&s), T16Instr::decode(&s));
        // Standalone suffix.
        let s = [0xf923u16];
        assert_eq!(t.decode(&s), T16Instr::decode(&s));
        // Empty stream.
        assert_eq!(t.decode(&[]), T16Instr::decode(&[]));
        // A real BL round-trips.
        let s = [0xf7ffu16, 0xfffe]; // bl -2
        let (instr, n) = t.decode(&s).unwrap();
        assert_eq!((instr.clone(), n), T16Instr::decode(&s).unwrap());
        assert_eq!(instr, T16Instr::Bl(-2));
        let mut out = Vec::new();
        t.encode(&instr, &mut out).unwrap();
        assert_eq!(out, s);
    }

    #[test]
    fn encode_errors_match_builtin() {
        let t = T16Tables::builtin();
        let bad = [
            T16Instr::ShiftImm(ShiftKind::Ror, Reg::R0, Reg::R1, 3),
            T16Instr::ShiftImm(ShiftKind::Lsl, Reg::R0, Reg::R1, 33),
            T16Instr::ShiftImm(ShiftKind::Lsl, Reg::R9, Reg::R1, 3),
            T16Instr::AddSub3 {
                sub: false,
                rd: Reg::R0,
                rn: Reg::R1,
                rhs: AddSubRhs::Imm3(9),
            },
            T16Instr::MemImm(MemOp::Ldrsh, Reg::R0, Reg::R1, 2),
            T16Instr::MemImm(MemOp::Ldr, Reg::R0, Reg::R1, 33),
            T16Instr::BCond(Cond::Al, 4),
            T16Instr::BCond(Cond::Eq, 500),
            T16Instr::B(5000),
            T16Instr::Bl(1 << 22),
        ];
        for instr in bad {
            let mut a = Vec::new();
            let mut b = Vec::new();
            let ea = t.encode(&instr, &mut a).unwrap_err();
            let eb = instr.encode(&mut b).unwrap_err();
            assert_eq!(ea, eb, "{instr:?}");
        }
    }

    #[test]
    fn missing_form_is_a_build_error() {
        let text =
            super::super::T16_SPEC_TEXT.replace("form swi { pattern \"11011111 iiiiiiii\" }", "");
        let spec = IsaSpec::load(&text).unwrap();
        let err = T16Tables::from_spec(&spec).unwrap_err();
        assert!(err.to_string().contains("missing the T16 form `swi`"));
    }
}
