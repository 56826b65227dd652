//! Front-end errors with source spans.

use std::fmt;

/// A byte range in the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Start byte offset.
    pub start: u32,
    /// End byte offset (exclusive).
    pub end: u32,
}

impl Span {
    /// Creates a span.
    pub fn new(start: u32, end: u32) -> Self {
        Span { start, end }
    }

    /// The smallest span covering both.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Computes 1-based line and column for the start offset.
    pub fn line_col(&self, src: &str) -> (usize, usize) {
        let upto = &src[..(self.start as usize).min(src.len())];
        let line = upto.bytes().filter(|b| *b == b'\n').count() + 1;
        let col = upto.len() - upto.rfind('\n').map(|p| p + 1).unwrap_or(0) + 1;
        (line, col)
    }
}

/// Which phase produced the error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Lex,
    Parse,
    Resolve,
    Type,
    /// A source nested past a front-end limit (`parser::MAX_NESTING`,
    /// `MAX_DEPTH`): the daemon's `source-too-deep`.
    Depth,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Phase::Lex => "lex",
            Phase::Parse => "parse",
            Phase::Resolve => "resolve",
            Phase::Type => "type",
            Phase::Depth => "depth",
        })
    }
}

/// A non-fatal front-end diagnostic (redundant match arm,
/// non-exhaustive match, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LangWarning {
    /// Human-readable message.
    pub message: String,
    /// Location in the source.
    pub span: Span,
}

impl LangWarning {
    /// Renders the warning with line/column information.
    pub fn render(&self, src: &str) -> String {
        let (line, col) = self.span.line_col(src);
        format!("warning at {line}:{col}: {}", self.message)
    }
}

impl fmt::Display for LangWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "warning at byte {}: {}", self.span.start, self.message)
    }
}

/// A front-end error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LangError {
    /// The phase that failed.
    pub phase: Phase,
    /// Human-readable message.
    pub message: String,
    /// Location in the source.
    pub span: Span,
}

impl LangError {
    pub(crate) fn lex(message: &str, span: Span) -> Self {
        LangError {
            phase: Phase::Lex,
            message: message.into(),
            span,
        }
    }

    pub(crate) fn parse(message: String, span: Span) -> Self {
        LangError {
            phase: Phase::Parse,
            message,
            span,
        }
    }

    pub(crate) fn resolve(message: String, span: Span) -> Self {
        LangError {
            phase: Phase::Resolve,
            message,
            span,
        }
    }

    pub(crate) fn ty(message: String, span: Span) -> Self {
        LangError {
            phase: Phase::Type,
            message,
            span,
        }
    }

    pub(crate) fn depth(message: String, span: Span) -> Self {
        LangError {
            phase: Phase::Depth,
            message,
            span,
        }
    }

    /// Renders the error with line/column information against the
    /// original source text.
    pub fn render(&self, src: &str) -> String {
        let (line, col) = self.span.line_col(src);
        let line_text = src.lines().nth(line - 1).unwrap_or("");
        format!(
            "{} error at {line}:{col}: {}\n  | {line_text}\n  | {:>col$}",
            self.phase, self.message, "^",
        )
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} error at byte {}: {}",
            self.phase, self.span.start, self.message
        )
    }
}

impl std::error::Error for LangError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_computation() {
        let src = "abc\ndef\nghi";
        assert_eq!(Span::new(0, 1).line_col(src), (1, 1));
        assert_eq!(Span::new(4, 5).line_col(src), (2, 1));
        assert_eq!(Span::new(6, 7).line_col(src), (2, 3));
        assert_eq!(Span::new(9, 10).line_col(src), (3, 2));
    }

    #[test]
    fn merge_spans() {
        let a = Span::new(5, 8);
        let b = Span::new(2, 6);
        assert_eq!(a.merge(b), Span::new(2, 8));
    }

    #[test]
    fn render_points_at_line() {
        let src = "fun f() {\n  bad $\n}";
        let err = LangError::lex("unexpected character `$`", Span::new(16, 17));
        let rendered = err.render(src);
        assert!(rendered.contains("2:7"), "{rendered}");
        assert!(rendered.contains("bad $"), "{rendered}");
    }
}
