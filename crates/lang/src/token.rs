//! Lexer for the Koka-like surface language.
//!
//! Newlines are significant as soft statement separators inside `{}`
//! blocks (like Koka), so the lexer emits them as tokens and the parser
//! decides where they matter. Identifiers are interned as the lexer meets
//! them, so a token is plain data.

use crate::error::{LangError, Span};
use crate::names::{Names, Sym};
use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tok {
    /// Lower-case identifier (variables, functions, type names).
    Ident(Sym),
    /// Upper-case identifier (constructors).
    ConId(Sym),
    /// Integer literal.
    Int(i64),
    // Keywords.
    Type,
    Fun,
    Fn,
    Val,
    Match,
    If,
    Then,
    Elif,
    Else,
    Return,
    // Punctuation.
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Semi,
    Newline,
    Arrow,  // ->
    Colon,  // :
    Assign, // :=
    Eq,     // =
    EqEq,   // ==
    NotEq,  // !=
    Lt,
    Le,
    Gt,
    Ge,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    AndAnd,
    OrOr,
    Bang, // ! (dereference, as in Koka)
    Eof,
}

impl Tok {
    /// The token as an error message names it.
    pub fn show(self, names: &Names) -> ShowTok<'_> {
        ShowTok(self, names)
    }
}

/// A token with the table that spells its name: [`Tok::show`].
pub struct ShowTok<'a>(Tok, &'a Names);

impl fmt::Display for ShowTok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Tok::Ident(s) => write!(f, "identifier `{}`", self.1.text(s)),
            Tok::ConId(s) => write!(f, "constructor `{}`", self.1.text(s)),
            Tok::Int(i) => write!(f, "integer `{i}`"),
            Tok::Type => f.write_str("`type`"),
            Tok::Fun => f.write_str("`fun`"),
            Tok::Fn => f.write_str("`fn`"),
            Tok::Val => f.write_str("`val`"),
            Tok::Match => f.write_str("`match`"),
            Tok::If => f.write_str("`if`"),
            Tok::Then => f.write_str("`then`"),
            Tok::Elif => f.write_str("`elif`"),
            Tok::Else => f.write_str("`else`"),
            Tok::Return => f.write_str("`return`"),
            Tok::LParen => f.write_str("`(`"),
            Tok::RParen => f.write_str("`)`"),
            Tok::LBrace => f.write_str("`{`"),
            Tok::RBrace => f.write_str("`}`"),
            Tok::Comma => f.write_str("`,`"),
            Tok::Semi => f.write_str("`;`"),
            Tok::Newline => f.write_str("end of line"),
            Tok::Arrow => f.write_str("`->`"),
            Tok::Colon => f.write_str("`:`"),
            Tok::Assign => f.write_str("`:=`"),
            Tok::Eq => f.write_str("`=`"),
            Tok::EqEq => f.write_str("`==`"),
            Tok::NotEq => f.write_str("`!=`"),
            Tok::Lt => f.write_str("`<`"),
            Tok::Le => f.write_str("`<=`"),
            Tok::Gt => f.write_str("`>`"),
            Tok::Ge => f.write_str("`>=`"),
            Tok::Plus => f.write_str("`+`"),
            Tok::Minus => f.write_str("`-`"),
            Tok::Star => f.write_str("`*`"),
            Tok::Slash => f.write_str("`/`"),
            Tok::Percent => f.write_str("`%`"),
            Tok::AndAnd => f.write_str("`&&`"),
            Tok::OrOr => f.write_str("`||`"),
            Tok::Bang => f.write_str("`!`"),
            Tok::Eof => f.write_str("end of input"),
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spanned {
    pub tok: Tok,
    pub span: Span,
}

/// Lexes a whole source string, interning its identifiers in `names`.
pub fn lex(src: &str, names: &mut Names) -> Result<Vec<Spanned>, LangError> {
    let bytes = src.as_bytes();
    // A token per 3.25 bytes of source in the suite programs.
    let mut out = Vec::with_capacity(src.len() / 3 + 1);
    let mut i = 0usize;
    let push = |out: &mut Vec<Spanned>, tok: Tok, start: usize, end: usize| {
        out.push(Spanned {
            tok,
            span: Span::new(start as u32, end as u32),
        });
    };
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\r' => {
                while i < bytes.len() && matches!(bytes[i], b' ' | b'\t' | b'\r') {
                    i += 1;
                }
            }
            '\n' => {
                // Collapse a run of newlines (and surrounding blanks)
                // into a single separator token.
                while i < bytes.len() && matches!(bytes[i], b'\n' | b' ' | b'\t' | b'\r') {
                    i += 1;
                }
                push(&mut out, Tok::Newline, start, i);
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                if depth > 0 {
                    return Err(LangError::lex(
                        "unterminated block comment",
                        Span::new(start as u32, i as u32),
                    ));
                }
            }
            '0'..='9' => {
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let n: i64 = text.parse().map_err(|_| {
                    LangError::lex(
                        &format!("integer literal `{text}` out of range"),
                        Span::new(start as u32, i as u32),
                    )
                })?;
                push(&mut out, Tok::Int(n), start, i);
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                // Hyphens join identifiers Koka-style (`is-red`,
                // `bal-left`) but only before a letter, so `n-1` still
                // lexes as a subtraction.
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric()
                        || bytes[i] == b'_'
                        || bytes[i] == b'-'
                            && i + 1 < bytes.len()
                            && (bytes[i + 1] as char).is_ascii_alphabetic())
                {
                    i += 1;
                }
                let text = &src[start..i];
                let tok = match text {
                    "type" => Tok::Type,
                    "fun" => Tok::Fun,
                    "fn" => Tok::Fn,
                    "val" => Tok::Val,
                    "match" => Tok::Match,
                    "if" => Tok::If,
                    "then" => Tok::Then,
                    "elif" => Tok::Elif,
                    "else" => Tok::Else,
                    "return" => Tok::Return,
                    _ if c.is_ascii_uppercase() => Tok::ConId(names.intern(text)),
                    _ => Tok::Ident(names.intern(text)),
                };
                push(&mut out, tok, start, i);
            }
            '(' => {
                i += 1;
                push(&mut out, Tok::LParen, start, i);
            }
            ')' => {
                i += 1;
                push(&mut out, Tok::RParen, start, i);
            }
            '{' => {
                i += 1;
                push(&mut out, Tok::LBrace, start, i);
            }
            '}' => {
                i += 1;
                push(&mut out, Tok::RBrace, start, i);
            }
            ',' => {
                i += 1;
                push(&mut out, Tok::Comma, start, i);
            }
            ';' => {
                i += 1;
                push(&mut out, Tok::Semi, start, i);
            }
            '-' if bytes.get(i + 1) == Some(&b'>') => {
                i += 2;
                push(&mut out, Tok::Arrow, start, i);
            }
            '-' => {
                i += 1;
                push(&mut out, Tok::Minus, start, i);
            }
            ':' if bytes.get(i + 1) == Some(&b'=') => {
                i += 2;
                push(&mut out, Tok::Assign, start, i);
            }
            ':' => {
                i += 1;
                push(&mut out, Tok::Colon, start, i);
            }
            '=' if bytes.get(i + 1) == Some(&b'=') => {
                i += 2;
                push(&mut out, Tok::EqEq, start, i);
            }
            '=' => {
                i += 1;
                push(&mut out, Tok::Eq, start, i);
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                i += 2;
                push(&mut out, Tok::NotEq, start, i);
            }
            '!' => {
                i += 1;
                push(&mut out, Tok::Bang, start, i);
            }
            '<' if bytes.get(i + 1) == Some(&b'=') => {
                i += 2;
                push(&mut out, Tok::Le, start, i);
            }
            '<' => {
                i += 1;
                push(&mut out, Tok::Lt, start, i);
            }
            '>' if bytes.get(i + 1) == Some(&b'=') => {
                i += 2;
                push(&mut out, Tok::Ge, start, i);
            }
            '>' => {
                i += 1;
                push(&mut out, Tok::Gt, start, i);
            }
            '+' => {
                i += 1;
                push(&mut out, Tok::Plus, start, i);
            }
            '*' => {
                i += 1;
                push(&mut out, Tok::Star, start, i);
            }
            '/' => {
                i += 1;
                push(&mut out, Tok::Slash, start, i);
            }
            '%' => {
                i += 1;
                push(&mut out, Tok::Percent, start, i);
            }
            '&' if bytes.get(i + 1) == Some(&b'&') => {
                i += 2;
                push(&mut out, Tok::AndAnd, start, i);
            }
            '|' if bytes.get(i + 1) == Some(&b'|') => {
                i += 2;
                push(&mut out, Tok::OrOr, start, i);
            }
            other => {
                return Err(LangError::lex(
                    &format!("unexpected character `{other}`"),
                    Span::new(start as u32, (start + 1) as u32),
                ))
            }
        }
    }
    out.push(Spanned {
        tok: Tok::Eof,
        span: Span::new(src.len() as u32, src.len() as u32),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each token as an error message names it.
    fn toks(src: &str) -> Vec<String> {
        let mut names = Names::new();
        let toks = lex(src, &mut names).unwrap();
        toks.into_iter()
            .map(|s| s.tok.show(&names).to_string())
            .collect()
    }

    #[test]
    fn lexes_keywords_and_idents() {
        assert_eq!(
            toks("fun map Cons xs"),
            vec![
                "`fun`",
                "identifier `map`",
                "constructor `Cons`",
                "identifier `xs`",
                "end of input"
            ]
        );
        // One name, one symbol.
        let mut names = Names::new();
        let toks = lex("xs ys xs", &mut names).unwrap();
        assert_eq!(toks[0].tok, toks[2].tok);
        assert_ne!(toks[0].tok, toks[1].tok);
    }

    #[test]
    fn lexes_hyphenated_identifiers() {
        // Koka-style: is-red, bal-left.
        assert_eq!(
            toks("is-red bal-left a - b"),
            vec![
                "identifier `is-red`",
                "identifier `bal-left`",
                "identifier `a`",
                "`-`",
                "identifier `b`",
                "end of input"
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        assert_eq!(
            toks("-> - := : == = != ! <= < >= > && ||"),
            vec![
                "`->`",
                "`-`",
                "`:=`",
                "`:`",
                "`==`",
                "`=`",
                "`!=`",
                "`!`",
                "`<=`",
                "`<`",
                "`>=`",
                "`>`",
                "`&&`",
                "`||`",
                "end of input"
            ]
        );
    }

    #[test]
    fn newlines_collapse() {
        assert_eq!(
            toks("a\n\n\nb"),
            vec![
                "identifier `a`",
                "end of line",
                "identifier `b`",
                "end of input"
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a // comment\nb /* multi\nline */ c"),
            vec![
                "identifier `a`",
                "end of line",
                "identifier `b`",
                "identifier `c`",
                "end of input"
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("42 0 123"),
            vec![
                "integer `42`",
                "integer `0`",
                "integer `123`",
                "end of input"
            ]
        );
    }

    #[test]
    fn rejects_bad_characters() {
        assert!(lex("a $ b", &mut Names::new()).is_err());
    }

    #[test]
    fn rejects_unterminated_comment() {
        assert!(lex("/* never ends", &mut Names::new()).is_err());
    }
}
