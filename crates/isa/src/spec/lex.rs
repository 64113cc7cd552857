//! Tokenizer for the `powerfits-isa-v1` ISA specification text format.
//!
//! The format is deliberately tiny: identifiers (kebab-case), unsigned
//! integers, double-quoted strings, braces, and `#` line comments. Every
//! token carries its source position so parse and validation diagnostics
//! can point at the offending line and column.

use super::{excerpt, Pos, SpecError};

/// A lexical token of the spec format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// Bare word: keywords, names, schema identifiers (`word-width`,
    /// `ar32`, `powerfits-isa-v1`).
    Ident(String),
    /// A double-quoted string (bit patterns, reserved reasons).
    Str(String),
    /// An unsigned integer literal.
    Int(u64),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
}

impl Tok {
    /// Short description for diagnostics.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{}`", excerpt(s)),
            Tok::Str(_) => "string".to_string(),
            Tok::Int(n) => format!("integer `{n}`"),
            Tok::LBrace => "`{`".to_string(),
            Tok::RBrace => "`}`".to_string(),
        }
    }
}

/// A token with the position of its first character.
#[derive(Clone, Debug)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// Line/column of the token's first character (1-based).
    pub pos: Pos,
}

fn ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.'
}

/// Tokenizes a spec document.
///
/// # Errors
///
/// Returns a position-carrying [`SpecError`] on unterminated strings or
/// characters outside the format's alphabet.
pub fn lex(text: &str) -> Result<Vec<Token>, SpecError> {
    let mut out = Vec::new();
    let mut line: u32 = 1;
    let mut col: u32 = 1;
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        let pos = Pos { line, col };
        match c {
            '\n' => {
                chars.next();
                line += 1;
                col = 1;
            }
            c if c.is_whitespace() => {
                chars.next();
                col += 1;
            }
            '#' => {
                // Line comment.
                for c in chars.by_ref() {
                    if c == '\n' {
                        break;
                    }
                }
                line += 1;
                col = 1;
            }
            '{' => {
                chars.next();
                col += 1;
                out.push(Token {
                    tok: Tok::LBrace,
                    pos,
                });
            }
            '}' => {
                chars.next();
                col += 1;
                out.push(Token {
                    tok: Tok::RBrace,
                    pos,
                });
            }
            '"' => {
                chars.next();
                col += 1;
                let mut s = String::new();
                let mut closed = false;
                for c in chars.by_ref() {
                    col += 1;
                    if c == '"' {
                        closed = true;
                        break;
                    }
                    if c == '\n' {
                        return Err(SpecError::new(pos, "unterminated string"));
                    }
                    s.push(c);
                }
                if !closed {
                    return Err(SpecError::new(pos, "unterminated string"));
                }
                out.push(Token {
                    tok: Tok::Str(s),
                    pos,
                });
            }
            c if c.is_ascii_digit() => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if !ident_char(c) {
                        break;
                    }
                    s.push(c);
                    chars.next();
                    col += 1;
                }
                let n = s.parse::<u64>().map_err(|_| {
                    SpecError::new(pos, format!("`{}` is not an unsigned integer", excerpt(&s)))
                })?;
                out.push(Token {
                    tok: Tok::Int(n),
                    pos,
                });
            }
            c if ident_char(c) => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if !ident_char(c) {
                        break;
                    }
                    s.push(c);
                    chars.next();
                    col += 1;
                }
                out.push(Token {
                    tok: Tok::Ident(s),
                    pos,
                });
            }
            c => {
                return Err(SpecError::new(
                    pos,
                    format!("unexpected character `{c}` (idents, ints, strings, braces and # comments only)"),
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_carry_positions() {
        let toks = lex("isa ar32 {\n  # comment\n  word-width 32\n}\n").unwrap();
        assert_eq!(toks.len(), 6);
        assert_eq!(toks[0].tok, Tok::Ident("isa".to_string()));
        assert_eq!((toks[0].pos.line, toks[0].pos.col), (1, 1));
        assert_eq!(toks[3].tok, Tok::Ident("word-width".to_string()));
        assert_eq!((toks[3].pos.line, toks[3].pos.col), (3, 3));
        assert_eq!(toks[4].tok, Tok::Int(32));
    }

    #[test]
    fn strings_and_errors() {
        let toks = lex("pattern \"cccc 0000\"").unwrap();
        assert_eq!(toks[1].tok, Tok::Str("cccc 0000".to_string()));
        let err = lex("pattern \"oops\n").unwrap_err();
        assert_eq!(err.pos.line, 1);
        assert!(err.to_string().contains("unterminated"));
        let err = lex("a $ b").unwrap_err();
        assert_eq!((err.pos.line, err.pos.col), (1, 3));
    }
}
