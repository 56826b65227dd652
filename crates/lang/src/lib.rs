//! # perceus-lang
//!
//! A Koka-like surface language for the Perceus reproduction: lexer,
//! parser, name resolution, Hindley–Milner type inference, a
//! nested-pattern match compiler, and lowering to the λ¹ core IR of
//! `perceus-core`.
//!
//! ```
//! let program = perceus_lang::compile_str(r#"
//! type list<a> { Nil; Cons(head: a, tail: list<a>) }
//! fun sum(xs: list<int>, acc: int): int {
//!   match xs {
//!     Cons(x, xx) -> sum(xx, acc + x)
//!     Nil -> acc
//!   }
//! }
//! fun main(): int { sum(Cons(1, Cons(2, Nil)), 0) }
//! "#).unwrap();
//! assert!(program.entry.is_some());
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod error;
pub mod lower;
pub mod names;
pub mod parser;
pub mod resolve;
pub mod token;
pub mod types;

pub use error::{LangError, LangWarning, Span};
pub use parser::MAX_NESTING;

use perceus_core::ir::Program;

/// The deepest a lowered function body may be, counting every node on
/// a path from the body to a leaf. Each block statement becomes a `let`
/// around the rest of its block, so a statement is a level. The passes,
/// both checks and the backend recurse once per level; a body past this
/// is rejected by [`check_depth`] with a [`error::Phase::Depth`] error
/// (the daemon's `source-too-deep`). The largest generated programs the
/// tests and the benchmark compile reach about 400.
pub const MAX_DEPTH: usize = 512;

/// Returns the program if every function body is within [`MAX_DEPTH`],
/// measured without recursion. Otherwise it takes the program apart a
/// node at a time, since dropping it whole would recurse as deep as it
/// is, and returns the error.
///
/// [`compile_str`] does not apply this limit: the compiler itself works
/// at any depth given the stack for it. Callers that compile untrusted
/// sources on threads of a known stack apply it before the passes.
pub fn check_depth(p: Program) -> Result<Program, LangError> {
    let Some((id, f)) = p.funs().find(|(_, f)| f.body.depth() > MAX_DEPTH) else {
        return Ok(p);
    };
    let (start, end) = p.fun_spans.get(id.0 as usize).copied().unwrap_or_default();
    let err = LangError::depth(
        format!(
            "the body of `{}` is more than {MAX_DEPTH} levels deep once lowered \
             (each statement is a level)",
            f.name
        ),
        Span::new(start, end),
    );
    for f in p.funs {
        f.body.dismantle();
    }
    Err(err)
}

/// Compiles surface source text to a core program (user fragment).
///
/// Runs the full front end: parse → resolve → type check → match
/// compilation and lowering. The entry point is the function named
/// `main`, when present. Diagnostics are discarded; use
/// [`compile_str_checked`] to collect them.
pub fn compile_str(src: &str) -> Result<Program, LangError> {
    compile_str_checked(src).map(|(p, _)| p)
}

/// Like [`compile_str`], additionally returning non-fatal diagnostics
/// (unreachable match arms, matches that may abort at runtime).
pub fn compile_str_checked(src: &str) -> Result<(Program, Vec<LangWarning>), LangError> {
    let ast = parser::parse(src)?;
    let syms = resolve::resolve(&ast)?;
    types::check(&ast, &syms)?;
    lower::lower_checked(&ast, &syms)
}

/// Like [`compile_str`], additionally returning the source byte span of
/// every function definition, indexed by the core `FunId` (lowering
/// assigns function ids in declaration order, so `spans[f.0 as usize]`
/// is the definition that produced function `f`).
///
/// This is the provenance hook for `perceus_core::analysis`: its
/// diagnostics are addressed by `FunId`, and a consumer holding these
/// spans can map them back to source locations (e.g. via
/// [`Span::line_col`]).
pub fn compile_str_with_spans(src: &str) -> Result<(Program, Vec<Span>), LangError> {
    let ast = parser::parse(src)?;
    let syms = resolve::resolve(&ast)?;
    types::check(&ast, &syms)?;
    let (program, _) = lower::lower_checked(&ast, &syms)?;
    let spans = ast.funs.iter().map(|f| f.span).collect();
    Ok((program, spans))
}

// Lowering also records the same spans *inside* the program
// (`Program::fun_spans`, plus `CtorInfo::span` on the type table), so
// consumers that only see the core program — the pass pipeline, the
// backend `Compiled` form, the runtime profiler — carry provenance
// without holding a side table. `compile_str_with_spans` remains the
// richer front-end API (it returns `Span` values with `line_col`).

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_str_end_to_end() {
        let p = compile_str(
            r#"
fun double(x: int): int { x * 2 }
fun main(): int { double(21) }
"#,
        )
        .unwrap();
        assert_eq!(p.funs().count(), 2);
        assert!(p.entry.is_some());
    }

    #[test]
    fn reports_type_errors_with_phase() {
        let err = compile_str("fun main(): int { 1 + True }").unwrap_err();
        assert_eq!(err.phase, error::Phase::Type);
    }

    #[test]
    fn bodies_past_the_depth_limit_are_rejected() {
        let body = |lets: usize| {
            let mut s = String::from("fun main(n: int): int {\n  val x0 = n\n");
            for i in 1..=lets {
                s.push_str(&format!("  val x{i} = x{} + 1\n", i - 1));
            }
            s + &format!("  x{lets}\n}}")
        };
        // Each statement is one level; the last `let`'s right-hand side
        // ends two levels below it.
        let depth = |lets| compile_str(&body(lets)).unwrap().funs[0].body.depth();
        assert_eq!(depth(10), 13);
        let at_limit = MAX_DEPTH - 3;
        check_depth(compile_str(&body(at_limit)).unwrap()).unwrap();
        let err = check_depth(compile_str(&body(at_limit + 1)).unwrap()).unwrap_err();
        assert_eq!(err.phase, error::Phase::Depth);
        assert!(err.message.contains("`main`"), "{err}");
    }

    #[test]
    fn reports_parse_errors() {
        let err = compile_str("fun main( { }").unwrap_err();
        assert_eq!(err.phase, error::Phase::Parse);
    }

    #[test]
    fn spans_line_up_with_fun_ids() {
        let src = r#"
fun double(x: int): int { x * 2 }
fun main(): int { double(21) }
"#;
        let (p, spans) = compile_str_with_spans(src).unwrap();
        assert_eq!(spans.len(), p.funs().count());
        let double = p.find_fun("double").unwrap();
        let main = p.find_fun("main").unwrap();
        let text = |s: Span| &src[s.start as usize..s.end as usize];
        assert!(text(spans[double.0 as usize]).contains("double(x"));
        assert!(text(spans[main.0 as usize]).starts_with("fun main"));
        // The program itself carries the same table (profiler provenance).
        assert_eq!(
            p.fun_spans,
            spans.iter().map(|s| (s.start, s.end)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ctor_spans_are_recorded_on_the_type_table() {
        let src = r#"
type list<a> { Nil; Cons(head: a, tail: list<a>) }
fun main(): int { 0 }
"#;
        let p = compile_str(src).unwrap();
        let cons = p.types.find_ctor("Cons").unwrap();
        let (s, e) = p.types.ctor(cons).span.unwrap();
        assert!(src[s as usize..e as usize].starts_with("Cons"));
        // Built-ins have no source.
        assert!(p
            .types
            .ctor(perceus_core::ir::TypeTable::TRUE)
            .span
            .is_none());
    }
}
