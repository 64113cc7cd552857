//! Recursive-descent parser for the `powerfits-isa-v1` spec format.
//!
//! Grammar (whitespace-separated, `#` line comments):
//!
//! ```text
//! spec  := "isa" name "{" item* "}"
//! item  := "schema" ident
//!        | "word-width" int
//!        | "registers" "{" ("count" int | "alias" ident int | "window" int)* "}"
//!        | "flags" "{" ident* "}"
//!        | "layouts" "{" ident* "}"
//!        | "tiers" "{" ident* "}"
//!        | "dictionaries" "{" ident* "}"
//!        | "form" name "{" "pattern" string "}"
//!        | "reserved" name "{" "pattern" string "reason" string "}"
//! ```
//!
//! `word-width` must precede the first `form`/`reserved` so pattern
//! strings can be width-checked as they are read.

use super::lex::{lex, Tok, Token};
use super::pattern::Pattern;
use super::{excerpt, EntryKind, IsaSpec, PatternEntry, Pos, RegisterFile, SpecError};

struct Parser {
    toks: Vec<Token>,
    i: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.i)
    }

    fn eof_pos(&self) -> Pos {
        self.toks.last().map_or(Pos { line: 1, col: 1 }, |t| t.pos)
    }

    fn next(&mut self, what: &str) -> Result<Token, SpecError> {
        let tok = self.toks.get(self.i).cloned().ok_or_else(|| {
            SpecError::new(
                self.eof_pos(),
                format!("expected {what}, found end of spec"),
            )
        })?;
        self.i += 1;
        Ok(tok)
    }

    fn ident(&mut self, what: &str) -> Result<(String, Pos), SpecError> {
        let tok = self.next(what)?;
        match tok.tok {
            Tok::Ident(s) => Ok((s, tok.pos)),
            other => Err(SpecError::new(
                tok.pos,
                format!("expected {what}, found {}", other.describe()),
            )),
        }
    }

    fn int(&mut self, what: &str) -> Result<(u64, Pos), SpecError> {
        let tok = self.next(what)?;
        match tok.tok {
            Tok::Int(n) => Ok((n, tok.pos)),
            other => Err(SpecError::new(
                tok.pos,
                format!("expected {what}, found {}", other.describe()),
            )),
        }
    }

    fn string(&mut self, what: &str) -> Result<(String, Pos), SpecError> {
        let tok = self.next(what)?;
        match tok.tok {
            Tok::Str(s) => Ok((s, tok.pos)),
            other => Err(SpecError::new(
                tok.pos,
                format!("expected {what}, found {}", other.describe()),
            )),
        }
    }

    fn lbrace(&mut self) -> Result<(), SpecError> {
        let tok = self.next("`{`")?;
        match tok.tok {
            Tok::LBrace => Ok(()),
            other => Err(SpecError::new(
                tok.pos,
                format!("expected `{{`, found {}", other.describe()),
            )),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<Pos, SpecError> {
        let (word, pos) = self.ident(&format!("`{kw}`"))?;
        if word == kw {
            Ok(pos)
        } else {
            Err(SpecError::new(
                pos,
                format!("expected `{kw}`, found `{}`", excerpt(&word)),
            ))
        }
    }

    fn at_rbrace(&self) -> bool {
        matches!(self.peek(), Some(t) if t.tok == Tok::RBrace)
    }

    /// Consumes idents until the closing brace of an already-opened block.
    fn ident_list(&mut self) -> Result<Vec<String>, SpecError> {
        let mut out = Vec::new();
        loop {
            if self.at_rbrace() {
                self.i += 1;
                return Ok(out);
            }
            let (name, _) = self.ident("a name or `}`")?;
            out.push(name);
        }
    }

    fn u32_field(&mut self, what: &str) -> Result<u32, SpecError> {
        let (n, pos) = self.int(what)?;
        u32::try_from(n).map_err(|_| SpecError::new(pos, format!("{what} {n} too large")))
    }
}

fn require_width(width: Option<u32>, pos: Pos) -> Result<u32, SpecError> {
    width.ok_or_else(|| SpecError::new(pos, "`word-width` must be declared before patterns"))
}

/// Parses a full spec document into an (unvalidated) [`IsaSpec`].
///
/// # Errors
///
/// Returns a position-carrying [`SpecError`] on any lexical or
/// syntactic problem.
pub fn parse_spec(text: &str) -> Result<IsaSpec, SpecError> {
    let mut p = Parser {
        toks: lex(text)?,
        i: 0,
    };
    p.keyword("isa")?;
    let (name, _) = p.ident("an ISA name")?;
    p.lbrace()?;

    let mut schema = String::new();
    let mut word_width: Option<u32> = None;
    let mut registers = RegisterFile::default();
    let mut flags = Vec::new();
    let mut entries: Vec<PatternEntry> = Vec::new();
    let mut layouts = Vec::new();
    let mut tiers = Vec::new();
    let mut dictionaries = Vec::new();

    loop {
        if p.at_rbrace() {
            p.i += 1;
            break;
        }
        let (item, item_pos) = p.ident("an item or `}`")?;
        match item.as_str() {
            "schema" => {
                let (s, _) = p.ident("a schema identifier")?;
                schema = s;
            }
            "word-width" => {
                word_width = Some(p.u32_field("word-width")?);
            }
            "registers" => {
                p.lbrace()?;
                loop {
                    if p.at_rbrace() {
                        p.i += 1;
                        break;
                    }
                    let (field, field_pos) = p.ident("a register item or `}`")?;
                    match field.as_str() {
                        "count" => registers.count = p.u32_field("count")?,
                        "alias" => {
                            let (alias, _) = p.ident("an alias name")?;
                            let idx = p.u32_field("alias index")?;
                            registers.aliases.push((alias, idx));
                        }
                        "window" => registers.windows.push(p.u32_field("window")?),
                        other => {
                            return Err(SpecError::new(
                                field_pos,
                                format!("unknown register item `{}`", excerpt(other)),
                            ));
                        }
                    }
                }
            }
            "flags" => {
                p.lbrace()?;
                flags = p.ident_list()?;
            }
            "layouts" => {
                p.lbrace()?;
                layouts = p.ident_list()?;
            }
            "tiers" => {
                p.lbrace()?;
                tiers = p.ident_list()?;
            }
            "dictionaries" => {
                p.lbrace()?;
                dictionaries = p.ident_list()?;
            }
            "form" => {
                let (form_name, pos) = p.ident("a form name")?;
                p.lbrace()?;
                p.keyword("pattern")?;
                let (pat_text, pat_pos) = p.string("a pattern string")?;
                let width = require_width(word_width, pat_pos)?;
                let pattern = Pattern::parse(&pat_text, width, pat_pos)?;
                let tok = p.next("`}`")?;
                if tok.tok != Tok::RBrace {
                    return Err(SpecError::new(
                        tok.pos,
                        format!("expected `}}`, found {}", tok.tok.describe()),
                    ));
                }
                entries.push(PatternEntry {
                    name: form_name,
                    kind: EntryKind::Form,
                    pattern,
                    pos,
                });
            }
            "reserved" => {
                let (res_name, pos) = p.ident("a reserved-pattern name")?;
                p.lbrace()?;
                p.keyword("pattern")?;
                let (pat_text, pat_pos) = p.string("a pattern string")?;
                let width = require_width(word_width, pat_pos)?;
                let pattern = Pattern::parse(&pat_text, width, pat_pos)?;
                p.keyword("reason")?;
                let (reason, _) = p.string("a reason string")?;
                let tok = p.next("`}`")?;
                if tok.tok != Tok::RBrace {
                    return Err(SpecError::new(
                        tok.pos,
                        format!("expected `}}`, found {}", tok.tok.describe()),
                    ));
                }
                entries.push(PatternEntry {
                    name: res_name,
                    kind: EntryKind::Reserved { reason },
                    pattern,
                    pos,
                });
            }
            other => {
                return Err(SpecError::new(
                    item_pos,
                    format!("unknown item `{}`", excerpt(other)),
                ));
            }
        }
    }
    if let Some(tok) = p.peek() {
        return Err(SpecError::new(
            tok.pos,
            format!("trailing {} after closing `}}`", tok.tok.describe()),
        ));
    }
    let word_width = word_width
        .ok_or_else(|| SpecError::new(Pos { line: 1, col: 1 }, "missing `word-width`"))?;
    Ok(IsaSpec {
        name,
        schema,
        word_width,
        registers,
        flags,
        entries,
        layouts,
        tiers,
        dictionaries,
        source: text.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_spec() {
        let spec = parse_spec(
            "isa tiny {\n schema powerfits-isa-v1\n word-width 16\n registers { count 8 alias sp 7 window 4 }\n flags { n z }\n form nop { pattern \"0000000000000000\" }\n reserved rest { pattern \"xxxxxxxxxxxxxxxx\" reason \"unsupported\" }\n}\n",
        )
        .unwrap();
        assert_eq!(spec.name, "tiny");
        assert_eq!(spec.word_width, 16);
        assert_eq!(spec.registers.count, 8);
        assert_eq!(spec.registers.aliases, vec![("sp".to_string(), 7)]);
        assert_eq!(spec.registers.windows, vec![4]);
        assert_eq!(spec.flags, vec!["n", "z"]);
        assert_eq!(spec.entries.len(), 2);
        assert!(spec.entries[0].is_form());
        assert_eq!(
            spec.entries[1].kind,
            EntryKind::Reserved {
                reason: "unsupported".to_string()
            }
        );
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse_spec("isa x {\n bogus 3\n}").unwrap_err();
        assert_eq!((err.pos.line, err.pos.col), (2, 2));
        assert!(err.to_string().contains("bogus"));
        let err = parse_spec("isa x {\n form f { pattern \"00\" }\n}").unwrap_err();
        assert!(err.to_string().contains("word-width"));
        let err = parse_spec("isa x { word-width 16").unwrap_err();
        assert!(err.to_string().contains("end of spec"));
    }

    #[test]
    fn pattern_width_checked_at_parse() {
        let err = parse_spec(
            "isa x { schema powerfits-isa-v1 word-width 16 form f { pattern \"000\" } }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("expected 16"));
    }
}
