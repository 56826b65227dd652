//! Diagnostics and renderers for the analysis layer.
//!
//! Reports render two ways: a human format (one line per diagnostic,
//! `rustc`-ish) and a JSON format documented in `docs/ANALYSIS.md`. The
//! JSON is formatted by hand — the workspace is dependency-free by
//! design — and every string goes through [`crate::json::str_lit`].

use crate::ir::program::FunId;
use crate::json::str_lit;
use std::fmt::Write as _;

use super::cost::{Bound, CostInterval, CostVector, FunSummary, COST_FIELDS};

/// Stable lint codes (`--deny` keys; see `docs/ANALYSIS.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintCode {
    /// L1: a dropped/freed cell and a same-size fresh allocation on one
    /// path that reuse analysis (§2.4) did not pair.
    MissedReuse,
    /// L2: a dup/drop pair that fusion (§2.3, Fig. 1d) would cancel.
    UnfusedDupDrop,
    /// L3: a parameter borrow inference (§6) would borrow but the
    /// active configuration keeps owned.
    BorrowableParam,
    /// L4: self-recursion that allocates fresh cells on the recursive
    /// path — not functional-but-in-place (§2.4/§2.6).
    NonFbipRecursion,
}

impl LintCode {
    /// All codes, in order.
    pub const ALL: [LintCode; 4] = [
        LintCode::MissedReuse,
        LintCode::UnfusedDupDrop,
        LintCode::BorrowableParam,
        LintCode::NonFbipRecursion,
    ];

    /// The stable short code (`L1` … `L4`).
    pub fn code(self) -> &'static str {
        match self {
            LintCode::MissedReuse => "L1",
            LintCode::UnfusedDupDrop => "L2",
            LintCode::BorrowableParam => "L3",
            LintCode::NonFbipRecursion => "L4",
        }
    }

    /// The human name of the lint.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::MissedReuse => "missed-reuse",
            LintCode::UnfusedDupDrop => "unfused-dup-drop",
            LintCode::BorrowableParam => "borrowable-param",
            LintCode::NonFbipRecursion => "non-fbip-recursion",
        }
    }

    /// Parses either the short code (`L2`) or the name
    /// (`unfused-dup-drop`), case-insensitively.
    pub fn parse(s: &str) -> Option<LintCode> {
        LintCode::ALL
            .into_iter()
            .find(|c| c.code().eq_ignore_ascii_case(s) || c.name().eq_ignore_ascii_case(s))
    }
}

/// How serious a diagnostic is (lints are advisory; `--deny` upgrades
/// selected codes to errors at the CLI boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// An opportunity or observation.
    Note,
    /// A likely missed optimization.
    Warning,
}

impl Severity {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
        }
    }
}

/// One diagnostic, addressed to a function and an IR path inside it.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The lint that fired.
    pub code: LintCode,
    /// Advisory severity.
    pub severity: Severity,
    /// Owning function.
    pub fun: FunId,
    /// Its source name.
    pub fun_name: String,
    /// Slash-separated IR path (`match(xs)/arm[Cons]/…`); empty for a
    /// function-level diagnostic.
    pub path: String,
    /// Human message.
    pub message: String,
    /// Source byte span of the owning function, when the program came
    /// through `perceus-lang` (attached by the CLI via
    /// [`Diagnostics::attach_fun_spans`]).
    pub span: Option<(u32, u32)>,
}

impl Diagnostic {
    fn render(&self, out: &mut String) {
        let _ = write!(
            out,
            "{}[{}/{}] {}",
            self.severity.label(),
            self.code.code(),
            self.code.name(),
            self.fun_name
        );
        if let Some((start, end)) = self.span {
            let _ = write!(out, " @{start}..{end}");
        }
        if !self.path.is_empty() {
            let _ = write!(out, " at {}", self.path);
        }
        let _ = write!(out, ": {}", self.message);
    }

    fn to_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"code\":\"{}\",\"name\":\"{}\",\"severity\":\"{}\",\"fun\":{},\"fun_name\":{},\"path\":{},\"message\":{},\"span\":",
            self.code.code(),
            self.code.name(),
            self.severity.label(),
            self.fun.0,
            str_lit(&self.fun_name),
            str_lit(&self.path),
            str_lit(&self.message),
        );
        match self.span {
            Some((start, end)) => {
                let _ = write!(out, "{{\"start\":{start},\"end\":{end}}}");
            }
            None => out.push_str("null"),
        }
        out.push('}');
    }
}

/// An ordered collection of diagnostics.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Adds one diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// All diagnostics, in emission order (function order, pre-order
    /// paths within a function).
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Total number of diagnostics.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no lint fired.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// How many diagnostics carry `code`.
    pub fn count(&self, code: LintCode) -> usize {
        self.items.iter().filter(|d| d.code == code).count()
    }

    /// Attaches source spans by function id (`spans[f]` is the byte span
    /// of function `f`'s definition, as produced by
    /// `perceus_lang::compile_str_with_spans`).
    pub fn attach_fun_spans(&mut self, spans: &[(u32, u32)]) {
        for d in &mut self.items {
            if let Some(span) = spans.get(d.fun.0 as usize) {
                d.span = Some(*span);
            }
        }
    }

    /// One line per diagnostic plus a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.items {
            d.render(&mut out);
            out.push('\n');
        }
        let counts: Vec<String> = LintCode::ALL
            .into_iter()
            .filter_map(|c| {
                let n = self.count(c);
                (n > 0).then(|| format!("{} {}×{n}", c.code(), c.name()))
            })
            .collect();
        if counts.is_empty() {
            out.push_str("no lints\n");
        } else {
            let _ = writeln!(out, "{} lint(s): {}", self.len(), counts.join(", "));
        }
        out
    }

    /// JSON array of diagnostic objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            d.to_json(&mut out);
        }
        out.push(']');
        out
    }
}

fn bound_json(b: Bound) -> String {
    match b {
        Bound::Finite(n) => n.to_string(),
        Bound::Unbounded => "null".to_string(),
    }
}

fn interval_json(c: CostInterval) -> String {
    format!("{{\"min\":{},\"max\":{}}}", c.lo, bound_json(c.hi))
}

/// JSON object for one cost vector (field names are stable schema).
pub fn cost_vector_json(c: &CostVector) -> String {
    let mut out = String::from("{");
    for (i, (name, get)) in COST_FIELDS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{}", interval_json(get(c)));
    }
    let _ = write!(out, ",\"rc_ops\":{}", interval_json(c.rc_ops()));
    let _ = write!(out, ",\"total_allocs\":{}", interval_json(c.total_allocs()));
    out.push('}');
    out
}

/// Human one-liner for a cost vector: only the nonzero fields.
pub fn cost_vector_human(c: &CostVector) -> String {
    let parts: Vec<String> = COST_FIELDS
        .iter()
        .filter_map(|(name, get)| {
            let iv = get(c);
            (iv != CostInterval::ZERO).then(|| format!("{name}={iv}"))
        })
        .collect();
    if parts.is_empty() {
        "rc-free".to_string()
    } else {
        parts.join(" ")
    }
}

/// JSON object for one function summary.
pub fn fun_summary_json(s: &FunSummary) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"fun\":{},\"name\":{},\"may_abort\":{},\"cost\":{},\"arms\":[",
        s.fun.0,
        str_lit(&s.name),
        s.may_abort,
        cost_vector_json(&s.cost)
    );
    for (i, a) in s.arms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"path\":{},\"ctor\":{},\"cost\":{}}}",
            str_lit(&a.path),
            str_lit(&a.ctor),
            cost_vector_json(&a.cost)
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_codes_round_trip() {
        for c in LintCode::ALL {
            assert_eq!(LintCode::parse(c.code()), Some(c));
            assert_eq!(LintCode::parse(c.name()), Some(c));
            assert_eq!(LintCode::parse(&c.code().to_lowercase()), Some(c));
        }
        assert_eq!(LintCode::parse("L9"), None);
    }

    #[test]
    fn json_escaping() {
        let mut d = Diagnostics::default();
        d.push(Diagnostic {
            code: LintCode::UnfusedDupDrop,
            severity: Severity::Warning,
            fun: FunId(0),
            fun_name: "f\"1".into(),
            path: "a\\b".into(),
            message: "line\nbreak\u{1}".into(),
            span: None,
        });
        let doc = crate::json::parse(&d.to_json()).unwrap();
        let crate::json::Json::Arr(items) = doc else {
            panic!("{doc:?}")
        };
        let field = |k| items[0].get(k).and_then(crate::json::Json::as_str);
        assert_eq!(field("fun_name"), Some("f\"1"));
        assert_eq!(field("path"), Some("a\\b"));
        assert_eq!(field("message"), Some("line\nbreak\u{1}"));
    }

    #[test]
    fn diagnostics_render_and_count() {
        let mut d = Diagnostics::default();
        assert!(d.is_empty());
        d.push(Diagnostic {
            code: LintCode::UnfusedDupDrop,
            severity: Severity::Warning,
            fun: FunId(0),
            fun_name: "map".into(),
            path: "match(xs)/arm[Cons]".into(),
            message: "dup/drop pair on `x`".into(),
            span: None,
        });
        assert_eq!(d.count(LintCode::UnfusedDupDrop), 1);
        assert_eq!(d.count(LintCode::MissedReuse), 0);
        let human = d.render_human();
        assert!(human.contains("warning[L2/unfused-dup-drop] map"));
        assert!(human.contains("match(xs)/arm[Cons]"));
        let json = d.to_json();
        assert!(json.starts_with('['));
        assert!(json.contains("\"code\":\"L2\""));
        assert!(json.contains("\"span\":null"));
        d.attach_fun_spans(&[(10, 42)]);
        assert!(d.to_json().contains("\"span\":{\"start\":10,\"end\":42}"));
        assert!(d.render_human().contains("@10..42"));
    }
}
