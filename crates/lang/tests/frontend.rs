//! Front-end battery: parser corners, type-inference behaviors, error
//! reporting, and lowering invariants, on programs larger than the unit
//! tests cover.

use perceus_core::ir::wf::assert_well_formed;
use perceus_core::passes::normalize;
use perceus_lang::error::Phase;
use perceus_lang::{compile_str, LangError};

fn ok(src: &str) {
    let mut p = compile_str(src).unwrap_or_else(|e| panic!("{}", e.render(src)));
    normalize::normalize_program(&mut p);
    assert_well_formed(&p);
}

fn err(src: &str) -> LangError {
    compile_str(src).expect_err("should be rejected")
}

// ---- programs that must compile --------------------------------------

#[test]
fn polymorphic_pipelines() {
    ok(r#"
type list<a> { Nil; Cons(head: a, tail: list<a>) }
type pair<a, b> { P(fst: a, snd: b) }

fun zip(xs: list<a>, ys: list<b>): list<pair<a, b>> {
  match xs {
    Cons(x, xrest) ->
      match ys {
        Cons(y, yrest) -> Cons(P(x, y), zip(xrest, yrest))
        Nil -> Nil
      }
    Nil -> Nil
  }
}

fun fsts(ps: list<pair<a, b>>): list<a> {
  match ps {
    Cons(p, rest) ->
      match p { P(x, _) -> Cons(x, fsts(rest)) }
    Nil -> Nil
  }
}

fun main(n: int): int {
  match fsts(zip(Cons(n, Nil), Cons(True, Nil))) {
    Cons(x, _) -> x
    Nil -> 0
  }
}
"#);
}

#[test]
fn higher_order_and_closures() {
    ok(r#"
type list<a> { Nil; Cons(head: a, tail: list<a>) }

fun foldr(xs: list<a>, z: b, f: (a, b) -> b): b {
  match xs {
    Cons(x, rest) -> f(x, foldr(rest, z, f))
    Nil -> z
  }
}

fun compose(f: (b) -> c, g: (a) -> b): (a) -> c {
  fn(x) { f(g(x)) }
}

fun main(n: int): int {
  val add-n = fn(x) { x + n }
  val double = fn(x) { x * 2 }
  val both = compose(add-n, double)
  foldr(Cons(1, Cons(2, Nil)), 0, fn(x, acc) { both(x) + acc })
}
"#);
}

#[test]
fn deep_nesting_and_operators() {
    ok(r#"
fun main(n: int): int {
  val a = (((n + 1) * 2 - 3) / 4) % 5
  val b = if a < 0 || a > 10 && n != 0 then 0 - a else a
  min(max(a, b), 100)
}
"#);
}

#[test]
fn shadowing_rebinds() {
    ok(r#"
fun main(n: int): int {
  val x = n
  val x = x + 1
  val x = x * 2
  x
}
"#);
}

#[test]
fn comments_everywhere() {
    ok(r#"
// leading comment
type t { /* inline */ A; B(x: int) /* trailing */ }
/* multi
   line /* nested */ still comment */
fun main(n: int): int { // after code
  match B(n) { B(x) -> x; A -> 0 }
}
"#);
}

#[test]
fn hyphenated_names_and_subtraction() {
    ok(r#"
fun is-small(x: int): bool { x < 10 }
fun main(n: int): int {
  if is-small(n - 1) then n - 1 else 0
}
"#);
}

#[test]
fn unit_returns_and_sequencing() {
    ok(r#"
fun log-twice(x: int): unit {
  println(x)
  println(x * 2)
}
fun main(n: int): int {
  log-twice(n)
  n
}
"#);
}

/// Components are generalized callees first whatever the declaration
/// order: `b` relates to neither `a` nor `c`, which a comparison sort of
/// the components could not order (it refused this program with
/// "unbound variable `c`").
#[test]
fn callees_declared_after_their_callers() {
    ok(r#"
fun a(x: int): int { c(x) }
fun b(x: int): int { x }
fun c(x: int): int { x + 1 }
fun main(n: int): int { a(n) + b(n) }
"#);
    // `len` is used at two types, so it must be generalized before
    // `main` is inferred.
    ok(r#"
fun main(n: int): int { len(Cons(n, Nil)) + len(Cons(True, Nil)) }
fun len(xs: list<a>): int {
  match xs {
    Cons(_, t) -> 1 + len(t)
    Nil -> 0
  }
}
type list<a> { Nil; Cons(head: a, tail: list<a>) }
"#);
}

#[test]
fn big_mutual_recursion_scc() {
    ok(r#"
fun f1(n: int): int { if n == 0 then 1 else f2(n - 1) }
fun f2(n: int): int { if n == 0 then 2 else f3(n - 1) }
fun f3(n: int): int { if n == 0 then 3 else f1(n - 1) }
fun main(n: int): int { f1(n) + f2(n) + f3(n) }
"#);
}

// ---- programs that must be rejected, with the right phase ------------

#[test]
fn rejects_with_correct_phases() {
    assert_eq!(err("fun main( {").phase, Phase::Parse);
    assert_eq!(err("fun main(): int { 1 + () }").phase, Phase::Type);
    assert_eq!(err("type t { A }\ntype t { B }").phase, Phase::Resolve);
    assert_eq!(err("fun main(): int { missing(1) }").phase, Phase::Type);
}

#[test]
fn type_errors_carry_positions() {
    let src = "fun main(): int {\n  val x = 1\n  x + True\n}";
    let e = err(src);
    let rendered = e.render(src);
    assert!(rendered.contains("3:"), "line 3 expected: {rendered}");
}

#[test]
fn rejects_occurs_check() {
    // f applied to itself forces an infinite type.
    let e = err("fun main(): int { (fn(f) { f(f) })(fn(g) { g(g) }) }");
    assert_eq!(e.phase, Phase::Type);
    assert!(e.message.contains("infinite"), "{e}");
}

#[test]
fn rejects_arity_mismatches() {
    let e = err(r#"
type list<a> { Nil; Cons(head: a, tail: list<a>) }
fun main(): int { match Cons(1) { _ -> 0 } }
"#);
    assert_eq!(e.phase, Phase::Type);
}

#[test]
fn rejects_wrong_ctor_type_in_pattern() {
    let e = err(r#"
type a { MkA }
type b { MkB }
fun main(): int {
  match MkA {
    MkB -> 1
  }
}
"#);
    assert_eq!(e.phase, Phase::Type);
}

#[test]
fn rejects_heterogeneous_list() {
    let e = err(r#"
type list<a> { Nil; Cons(head: a, tail: list<a>) }
fun main(): int {
  match Cons(1, Cons(True, Nil)) { _ -> 0 }
}
"#);
    assert_eq!(e.phase, Phase::Type);
}

#[test]
fn rejects_unbound_type_in_signature() {
    let e = err("fun main(x: ghost<int>): int { 0 }");
    assert_eq!(e.phase, Phase::Type);
}

#[test]
fn rejects_non_bool_condition() {
    let e = err("fun main(n: int): int { if n then 1 else 2 }");
    assert_eq!(e.phase, Phase::Type);
}

// ---- lowering invariants ---------------------------------------------

#[test]
fn lowering_always_produces_anf() {
    use perceus_core::passes::normalize::is_anf;
    let srcs = [
        r#"fun main(n: int): int { (n + 1) * (n + 2) * (n + 3) }"#,
        r#"
type list<a> { Nil; Cons(head: a, tail: list<a>) }
fun main(n: int): int {
  match Cons(n + 1, Cons(n * 2, Nil)) {
    Cons(x, _) -> x
    Nil -> 0
  }
}
"#,
    ];
    for src in srcs {
        let mut p = compile_str(src).unwrap();
        normalize::normalize_program(&mut p);
        for (_, f) in p.funs() {
            assert!(is_anf(&f.body), "{src}");
        }
    }
}

#[test]
fn entry_point_is_main_when_present() {
    let p = compile_str("fun helper(): int { 1 }\nfun main(n: int): int { helper() }").unwrap();
    let entry = p.entry.expect("main found");
    assert_eq!(&*p.fun(entry).name, "main");
    let p = compile_str("fun not-main(): int { 1 }").unwrap();
    assert!(p.entry.is_none());
}

// ---- integer-literal patterns ------------------------------------------

#[test]
fn literal_pattern_type_mismatch_rejected() {
    let e = err(r#"
type t { A }
fun main(): int { match A { 0 -> 1; _ -> 2 } }
"#);
    assert_eq!(e.phase, Phase::Type);
}

// ---- match diagnostics ---------------------------------------------------

#[test]
fn warns_on_unreachable_arm() {
    let src = r#"
type t { A; B(x: int) }
fun f(v: t): int {
  match v {
    A -> 1
    _ -> 2
    B(x) -> x
  }
}
"#;
    let (_, warnings) = perceus_lang::compile_str_checked(src).unwrap();
    assert!(
        warnings.iter().any(|w| w.message.contains("unreachable")),
        "{warnings:?}"
    );
}

#[test]
fn warns_on_non_exhaustive_match() {
    let src = r#"
type t { A; B(x: int) }
fun f(v: t): int {
  match v { A -> 1 }
}
"#;
    let (_, warnings) = perceus_lang::compile_str_checked(src).unwrap();
    assert!(
        warnings
            .iter()
            .any(|w| w.message.contains("non-exhaustive")),
        "{warnings:?}"
    );
}

#[test]
fn no_warnings_on_clean_matches() {
    let src = r#"
type t { A; B(x: int) }
fun f(v: t): int {
  match v {
    A -> 1
    B(x) -> x
  }
}
"#;
    let (_, warnings) = perceus_lang::compile_str_checked(src).unwrap();
    assert!(warnings.is_empty(), "{warnings:?}");
}

#[test]
fn literal_matches_warn_without_catch_all() {
    let src = "fun f(n: int): int { match n { 0 -> 1; 1 -> 2 } }";
    let (_, warnings) = perceus_lang::compile_str_checked(src).unwrap();
    assert!(
        warnings
            .iter()
            .any(|w| w.message.contains("non-exhaustive")),
        "{warnings:?}"
    );
    let src = "fun f(n: int): int { match n { 0 -> 1; k -> k } }";
    let (_, warnings) = perceus_lang::compile_str_checked(src).unwrap();
    assert!(warnings.is_empty(), "{warnings:?}");
}

#[test]
fn suite_programs_are_warning_free() {
    for w in perceus_suite_sources() {
        let (_, warnings) = perceus_lang::compile_str_checked(w).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
    }
}

/// The suite sources, inlined to avoid a circular dev-dependency.
fn perceus_suite_sources() -> Vec<&'static str> {
    vec![
        include_str!("../../suite/programs/rbtree.pk"),
        include_str!("../../suite/programs/rbtree_ck.pk"),
        include_str!("../../suite/programs/deriv.pk"),
        include_str!("../../suite/programs/nqueens.pk"),
        include_str!("../../suite/programs/cfold.pk"),
        include_str!("../../suite/programs/tmap.pk"),
        include_str!("../../suite/programs/map.pk"),
        include_str!("../../suite/programs/msort.pk"),
        include_str!("../../suite/programs/queue.pk"),
    ]
}
