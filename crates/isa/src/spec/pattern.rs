//! Bit-pattern language for instruction encodings.
//!
//! A pattern is a fixed-width bit string written MSB-first. Each character
//! is either a literal `0`/`1`, a don't-care `x`, or a field letter
//! (`a`-`w`, `y`, `z`, upper case allowed). Repeated runs of the same
//! letter are one field; split runs concatenate MSB-first. Spaces and
//! underscores are ignored, so specs can group nibbles for readability.

use super::{excerpt, Pos, SpecError};

/// One named field of a pattern: the runs of bit positions it occupies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    /// The field letter as written in the pattern.
    pub letter: char,
    /// Total width in bits across all runs.
    pub width: u32,
    /// `(shift, width)` runs in MSB-first order: the first run holds the
    /// most significant bits of the field value.
    pub runs: Vec<(u32, u32)>,
}

/// A parsed, fixed-width bit pattern with named fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pattern {
    /// Pattern width in bits (16 or 32 for the shipped specs).
    pub width: u32,
    /// Mask of literally-constrained bit positions.
    pub mask: u32,
    /// Required values at the masked positions.
    pub value: u32,
    /// Named fields in first-appearance order.
    pub fields: Vec<Field>,
    /// The source text as written (separators preserved), for diagnostics.
    pub text: String,
}

impl Pattern {
    /// Parses a pattern string, enforcing `expect_width` significant
    /// characters.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] at `pos` on width mismatch or characters
    /// outside the pattern alphabet.
    pub fn parse(text: &str, expect_width: u32, pos: Pos) -> Result<Self, SpecError> {
        let bits: Vec<char> = text.chars().filter(|&c| c != ' ' && c != '_').collect();
        let width =
            u32::try_from(bits.len()).map_err(|_| SpecError::new(pos, "pattern too wide"))?;
        if width != expect_width {
            return Err(SpecError::new(
                pos,
                format!(
                    "pattern \"{}\" has {width} bits, expected {expect_width}",
                    excerpt(text)
                ),
            ));
        }
        let mut mask = 0u32;
        let mut value = 0u32;
        let mut fields: Vec<Field> = Vec::new();
        for (i, &c) in bits.iter().enumerate() {
            // Index 0 is the MSB.
            let shift = width - 1 - u32::try_from(i).unwrap_or(0);
            match c {
                '0' => mask |= 1 << shift,
                '1' => {
                    mask |= 1 << shift;
                    value |= 1 << shift;
                }
                'x' | 'X' => {}
                c if c.is_ascii_alphabetic() => {
                    let idx = match fields.iter().position(|f| f.letter == c) {
                        Some(i) => i,
                        None => {
                            fields.push(Field {
                                letter: c,
                                width: 0,
                                runs: Vec::new(),
                            });
                            fields.len() - 1
                        }
                    };
                    let field = &mut fields[idx];
                    // Extend the last run if contiguous, else start a new
                    // run; string order is MSB-first so runs stay sorted.
                    match field.runs.last_mut() {
                        Some(&mut (ref mut run_shift, ref mut run_width))
                            if *run_shift == shift + 1 =>
                        {
                            *run_shift = shift;
                            *run_width += 1;
                        }
                        _ => field.runs.push((shift, 1)),
                    }
                    field.width += 1;
                }
                c => {
                    return Err(SpecError::new(
                        pos,
                        format!(
                            "pattern \"{}\" has invalid character `{c}` (use 0, 1, x or a field letter)",
                            excerpt(text)
                        ),
                    ));
                }
            }
        }
        Ok(Pattern {
            width,
            mask,
            value,
            fields,
            text: text.to_string(),
        })
    }

    /// Does `word` match this pattern's literal bits?
    #[must_use]
    pub fn matches(&self, word: u32) -> bool {
        word & self.mask == self.value
    }

    /// Extracts the named field from `word`, concatenating split runs
    /// MSB-first. Returns 0 for a letter the pattern does not define
    /// (engines validate required letters at build time).
    #[must_use]
    pub fn extract(&self, letter: char, word: u32) -> u32 {
        let Some(field) = self.fields.iter().find(|f| f.letter == letter) else {
            return 0;
        };
        let mut out = 0u32;
        for &(shift, width) in &field.runs {
            let run_mask = if width >= 32 {
                u32::MAX
            } else {
                (1 << width) - 1
            };
            out = (out << width) | ((word >> shift) & run_mask);
        }
        out
    }

    /// Packs field values into a word over the pattern's literal bits.
    /// Values wider than the field are masked to fit; letters the pattern
    /// does not define are ignored.
    #[must_use]
    pub fn pack(&self, values: &[(char, u32)]) -> u32 {
        let mut word = self.value;
        for &(letter, val) in values {
            let Some(field) = self.fields.iter().find(|f| f.letter == letter) else {
                continue;
            };
            let mut remaining = field.width;
            for &(shift, width) in &field.runs {
                remaining -= width;
                let run_mask = if width >= 32 {
                    u32::MAX
                } else {
                    (1 << width) - 1
                };
                word |= ((val >> remaining) & run_mask) << shift;
            }
        }
        word
    }

    /// Can some word match both patterns?
    #[must_use]
    pub fn overlaps(&self, other: &Pattern) -> bool {
        self.width == other.width && (self.value ^ other.value) & (self.mask & other.mask) == 0
    }

    /// Is every word matching `self` also matched by `other`?
    #[must_use]
    pub fn subset_of(&self, other: &Pattern) -> bool {
        self.width == other.width
            && other.mask & !self.mask == 0
            && (self.value ^ other.value) & other.mask == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POS: Pos = Pos { line: 1, col: 1 };

    #[test]
    fn parses_literals_and_fields() {
        let p = Pattern::parse("cccc 0000 000S dddd 0000 ssss 1001 mmmm", 32, POS).unwrap();
        assert_eq!(p.width, 32);
        // Literal bits: 0000 at 27..24 wait -- bits 27..25? compute directly.
        assert!(p.matches(0xe000_0291)); // mul r0, r1, r2
        assert!(!p.matches(0xe020_0291)); // mla has bit21 set
        assert_eq!(p.extract('c', 0xe000_0291), 0xe);
        assert_eq!(p.extract('d', 0xe000_0291), 0);
        assert_eq!(p.extract('s', 0xe000_0291), 2);
        assert_eq!(p.extract('m', 0xe000_0291), 1);
        assert_eq!(
            p.pack(&[('c', 0xe), ('d', 0), ('s', 2), ('m', 1), ('S', 0)]),
            0xe000_0291
        );
    }

    #[test]
    fn split_runs_concatenate_msb_first() {
        // Halfword immediate: hi nibble at 11..8, lo nibble at 3..0.
        let p = Pattern::parse("cccc 000p u1w0 nnnn dddd hhhh 1011 llll", 32, POS).unwrap();
        let word = p.pack(&[('h', 0xa), ('l', 0x5)]);
        assert_eq!(p.extract('h', word), 0xa);
        assert_eq!(p.extract('l', word), 0x5);
        // A genuinely split field in one letter.
        let q = Pattern::parse("ii00ii", 6, POS).unwrap();
        assert_eq!(q.fields.len(), 1);
        assert_eq!(q.fields[0].width, 4);
        assert_eq!(q.fields[0].runs, vec![(4, 2), (0, 2)]);
        assert_eq!(q.extract('i', 0b11_00_01), 0b1101);
        assert_eq!(q.pack(&[('i', 0b1101)]), 0b11_00_01);
    }

    #[test]
    fn width_and_alphabet_enforced() {
        assert!(Pattern::parse("0000", 5, POS).is_err());
        assert!(Pattern::parse("00?0", 4, POS).is_err());
        // Separators don't count toward width.
        assert!(Pattern::parse("00_00 1111", 8, POS).is_ok());
    }

    #[test]
    fn overlap_and_subset() {
        let swi = Pattern::parse("11011111 iiiiiiii", 16, POS).unwrap();
        let bcond = Pattern::parse("1101 cccc iiiiiiii", 16, POS).unwrap();
        let b = Pattern::parse("11100 iiiiiiiiiii", 16, POS).unwrap();
        assert!(swi.overlaps(&bcond));
        assert!(swi.subset_of(&bcond));
        assert!(!bcond.subset_of(&swi));
        assert!(!swi.overlaps(&b));
        assert!(!b.overlaps(&bcond));
    }

    #[test]
    fn extract_unknown_letter_is_zero() {
        let p = Pattern::parse("1010", 4, POS).unwrap();
        assert_eq!(p.extract('q', 0b1010), 0);
        assert_eq!(p.pack(&[('q', 3)]), 0b1010);
    }
}
