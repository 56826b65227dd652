//! Machine-level behavioral tests: tail calls, closures, aborts, step
//! limits, deep data, and the §2.6 constant-stack claim.

use perceus_core::passes::{PassConfig, RcStrategy};
use perceus_runtime::code::{Atom, Compiled, Instr, Slot};
use perceus_runtime::machine::{Machine, RunConfig};
use perceus_runtime::{ReclaimMode, RuntimeError, Value};
use perceus_suite::{
    compile_and_run, compile_with_config, compile_workload, run_workload, run_workload_budgeted,
    NativeHarness, Strategy, SuiteError,
};

/// Tail calls must not grow the continuation stack: a 10-million
/// iteration loop completes (a frame-pushing machine would hold 10M
/// frames; at ~50 bytes each that is half a gigabyte and seconds of
/// allocation — instead this runs flat).
#[test]
fn tail_calls_run_in_constant_stack() {
    let src = r#"
fun countdown(n: int, acc: int): int {
  if n == 0 then acc else countdown(n - 1, acc + 1)
}
fun main(n: int): int { countdown(n, 0) }
"#;
    let out = compile_and_run(src, Strategy::Perceus, 10_000_000, RunConfig::default()).unwrap();
    assert_eq!(format!("{}", out.value), "10000000");
}

/// The FBIP traversal of §2.6 is all tail calls: it maps a tree far
/// deeper than any native stack could handle if the machine recursed.
#[test]
fn fbip_traversal_is_stackless_on_degenerate_trees() {
    // A left spine of 200k nodes: the recursive tmap would need 200k
    // continuation frames just to descend; the visitor program needs
    // none.
    let src = r#"
type tree { Tip; Bin(left: tree, value: int, right: tree) }
type visitor {
  Done
  BinR(right: tree, value: int, visit: visitor)
  BinL(left: tree, value: int, visit: visitor)
}
type direction { Up; Down }

fun tmap-fbip(f: (int) -> int, t: tree, visit: visitor, d: direction): tree {
  match d {
    Down -> match t {
      Bin(l, x, r) -> tmap-fbip(f, l, BinR(r, x, visit), Down)
      Tip -> tmap-fbip(f, Tip, visit, Up)
    }
    Up -> match visit {
      Done -> t
      BinR(r, x, v) -> tmap-fbip(f, r, BinL(t, f(x), v), Down)
      BinL(l, x, v) -> tmap-fbip(f, Bin(l, x, t), v, Up)
    }
  }
}

fun spine(i: int, n: int, acc: tree): tree {
  if i >= n then acc
  else spine(i + 1, n, Bin(acc, i, Tip))
}

fun tsum(t: tree, acc: int): int {
  match t {
    Tip -> acc
    Bin(l, x, r) -> tsum(r, tsum(l, acc) + x)  // fine: left-deep only
  }
}

fun main(n: int): int {
  val t = spine(0, n, Tip)
  val t2 = tmap-fbip(fn(x) { x + 1 }, t, Done, Down)
  match t2 {
    Bin(_, x, _) -> x
    Tip -> 0 - 1
  }
}
"#;
    let out = compile_and_run(src, Strategy::Perceus, 200_000, RunConfig::default()).unwrap();
    // Top of the spine holds value n-1, mapped to n.
    assert_eq!(format!("{}", out.value), "200000");
    assert_eq!(out.leaked_blocks, 0);
}

/// A non-exhaustive match aborts with a useful message instead of
/// undefined behavior.
#[test]
fn match_failure_aborts() {
    let src = r#"
type t { A; B }
fun f(x: t): int {
  match x { A -> 1 }
}
fun main(n: int): int { f(B) }
"#;
    let err = compile_and_run(src, Strategy::Perceus, 0, RunConfig::default()).unwrap_err();
    match err {
        SuiteError::Runtime(RuntimeError::Abort(msg)) => {
            assert!(msg.contains("non-exhaustive"), "{msg}");
            assert!(msg.contains('f'), "{msg}");
        }
        other => panic!("expected abort, got {other}"),
    }
}

/// Division by zero is a checked runtime error.
#[test]
fn division_by_zero_is_checked() {
    let src = "fun main(n: int): int { 10 / n }";
    let err = compile_and_run(src, Strategy::Perceus, 0, RunConfig::default()).unwrap_err();
    assert!(matches!(
        err,
        SuiteError::Runtime(RuntimeError::DivisionByZero)
    ));
    let ok = compile_and_run(src, Strategy::Perceus, 5, RunConfig::default()).unwrap();
    assert_eq!(format!("{}", ok.value), "2");
}

/// `i64::MAX` and `i64::MIN` in source (there is no literal for MIN).
const MAX: &str = "9223372036854775807";
const MIN: &str = "(0 - 9223372036854775807 - 1)";

/// The integer edge cases of the primitives: `(name, main's body over
/// n, n, result)`, where `None` is a division by zero. Arithmetic wraps
/// (Fig. 6 is over 64-bit machine integers); `n` carries one operand so
/// the primitive runs on a slot, not on two constants.
fn wrapping_cases() -> Vec<(&'static str, String, i64, Option<i64>)> {
    vec![
        ("min_div_neg1", format!("{MIN} / n"), -1, Some(i64::MIN)),
        ("min_rem_neg1", format!("{MIN} % n"), -1, Some(0)),
        ("neg_min", format!("-({MIN} + n)"), 0, Some(i64::MIN)),
        ("max_plus_1", format!("{MAX} + n"), 1, Some(i64::MIN)),
        ("min_minus_1", format!("{MIN} - n"), 1, Some(i64::MAX)),
        ("max_times_2", format!("{MAX} * n"), 2, Some(-2)),
        ("div_by_0", "7 / n".into(), 0, None),
        ("rem_by_0", "7 % n".into(), 0, None),
    ]
}

fn wrapping_source(body: &str) -> String {
    format!("fun main(n: int): int {{ {body} }}")
}

/// Every strategy and the Fig. 6 oracle agree on the wrapping cases,
/// and agree on the expected answer: the wrapped integer, or a division
/// by zero (which `differential_check` alone would accept as "both
/// failed").
#[test]
fn wrapping_arithmetic_matches_the_oracle() {
    for (name, body, n, want) in wrapping_cases() {
        let src = wrapping_source(&body);
        let program = perceus_lang::compile_str(&src).unwrap();
        let cfg = perceus_suite::FuzzConfig {
            arg: n,
            shrink: false,
            ..Default::default()
        };
        let outcome = perceus_suite::differential_check(&program, &cfg);
        assert!(outcome.agreed(), "{name}: {:?}", outcome.divergences);
        let oracle = perceus_suite::driver::oracle_run_program(&program, n, cfg.fuel);
        for s in Strategy::ALL {
            let run = compile_and_run(&src, s, n, RunConfig::default());
            match want {
                Some(v) => {
                    assert_eq!(run.unwrap().value.to_string(), v.to_string(), "{name}");
                    assert_eq!(oracle.as_ref().unwrap().0.to_string(), v.to_string());
                }
                None => {
                    assert!(
                        matches!(run, Err(SuiteError::Runtime(RuntimeError::DivisionByZero))),
                        "{name} under {}: {run:?}",
                        s.label()
                    );
                    assert!(
                        matches!(
                            oracle,
                            Err(SuiteError::Oracle(
                                perceus_runtime::standard::OracleError::DivisionByZero
                            ))
                        ),
                        "{name}: oracle {oracle:?}"
                    );
                }
            }
        }
    }
}

/// The wrapping cases compiled to Rust give the machine's answers,
/// error codes and counters. A nested cargo build, so it runs only when
/// `PERCEUS_SLOW_TESTS` is set.
#[test]
fn wrapping_arithmetic_runs_natively() {
    if std::env::var_os("PERCEUS_SLOW_TESTS").is_none() {
        eprintln!("skipped: set PERCEUS_SLOW_TESTS=1 to build and run the native executor");
        return;
    }
    let cases = wrapping_cases();
    let programs = cases
        .iter()
        .map(|(name, body, _, _)| {
            let compiled = compile_workload(&wrapping_source(body), Strategy::Perceus).unwrap();
            (name.to_string(), compiled)
        })
        .collect();
    let harness = NativeHarness::from_programs(programs).expect("build");
    for (name, _, n, want) in cases {
        let check = harness.check(name, n).expect("run");
        assert!(
            check.passed(),
            "{name} diverged:\n  {}",
            check.mismatches.join("\n  ")
        );
        match want {
            Some(v) => assert_eq!(check.native.value, Some(v.to_string()), "{name}"),
            None => assert_eq!(
                check.native.error_code.as_deref(),
                Some("division-by-zero"),
                "{name}"
            ),
        }
    }
}

/// The step limit interrupts runaway programs.
#[test]
fn step_limit_interrupts() {
    let src = r#"
fun spin(n: int): int { spin(n) }
fun main(n: int): int { spin(n) }
"#;
    let config = RunConfig::new().with_step_limit(Some(10_000));
    let err = compile_and_run(src, Strategy::Perceus, 0, config).unwrap_err();
    assert!(matches!(
        err,
        SuiteError::Runtime(RuntimeError::StepLimit(10_000))
    ));
}

/// The memory limit meters the value stack and the frame records with
/// the heap: a deep non-tail recursion that allocates no block is
/// stopped at the same step every time, long before its ten million
/// frames exist. No slot of `f`'s 2-slot frame is live across its call,
/// so each level costs one word, its frame record, and the limit trips
/// at step 7 994 (when each level kept its whole window, 3 words, it
/// tripped at 2 002; with 3-slot frames, at 1 602).
#[test]
fn memory_limit_meters_the_stack_of_a_deep_recursion() {
    let src = r#"
fun f(n: int): int { if n == 0 then 0 else 1 + f(n - 1) }
fun main(n: int): int { f(n) }
"#;
    let code = compile_workload(src, Strategy::Perceus).unwrap();
    let trip = || {
        let config = RunConfig::new().with_memory_limit_words(Some(1_000));
        let mut m = Machine::new(&code, ReclaimMode::Rc, config);
        let err = m.run_entry(vec![Value::Int(10_000_000)]).unwrap_err();
        let RuntimeError::MemoryLimit {
            limit_words: 1_000,
            live_words,
        } = err
        else {
            panic!("expected MemoryLimit, got {err:?}");
        };
        assert_eq!(m.heap.stats.live_words, 0, "all of it is stack and frames");
        (live_words, m.heap.stats.steps)
    };
    let (live_words, steps) = trip();
    assert!((1_001..1_016).contains(&live_words), "{live_words}");
    assert!(steps < 10_000, "{steps}");
    assert_eq!(
        trip(),
        (live_words, steps),
        "the trip point is deterministic"
    );
}

/// Closures capture their environment by value and can escape the
/// scope that created them; the captured cells are freed exactly when
/// the closure is.
#[test]
fn escaping_closures_keep_captures_alive() {
    let src = r#"
type list<a> { Nil; Cons(head: a, tail: list<a>) }

fun adder-over(xs: list<int>): (int) -> int {
  // The closure captures xs; xs must stay alive inside it.
  fn(y) { head-or(xs, y) }
}

fun head-or(xs: list<int>, d: int): int {
  match xs {
    Cons(x, _) -> x + d
    Nil -> d
  }
}

fun main(n: int): int {
  val f = adder-over(Cons(n, Nil))
  f(1) + f(2)
}
"#;
    let out = compile_and_run(src, Strategy::Perceus, 40, RunConfig::default()).unwrap();
    assert_eq!(format!("{}", out.value), "83");
    assert_eq!(out.leaked_blocks, 0);
}

/// A lambda inside a lambda, capturing from both levels: the inner one
/// closes over `xs` (a capture of the outer), `a` (its parameter) and
/// `ys` (its local). The backend numbers lambdas as it meets them, so
/// an inner lambda, found while its outer one's body is compiled, comes
/// after every lambda that stands directly in a function.
#[test]
fn nested_lambdas_capture_from_both_levels() {
    let src = r#"
type list<a> { Nil; Cons(head: a, tail: list<a>) }

fun sum(xs: list<int>): int {
  match xs {
    Cons(x, xx) -> x + sum(xx)
    Nil -> 0
  }
}

fun make(xs: list<int>): (int) -> ((int) -> int) {
  fn(a) {
    val ys = Cons(a, xs)
    fn(b) { sum(xs) + sum(ys) + a * b }
  }
}

fun main(n: int): int {
  val f = make(Cons(n, Cons(1, Nil)))
  val g = f(2)
  val h = f(3)
  g(10) + h(100) + g(1)
}
"#;
    // The oracle reads capture lists, which normalization computes.
    let mut program = perceus_lang::compile_str(src).unwrap();
    perceus_core::passes::normalize::normalize_program(&mut program);
    let (expected, _) = perceus_suite::driver::oracle_run_program(&program, 40, 1_000_000).unwrap();
    for strategy in [Strategy::Perceus, Strategy::PerceusNoOpt, Strategy::Scoped] {
        let c = compile_workload(src, strategy).unwrap();
        let shapes: Vec<_> = c.lambdas.iter().map(|l| (l.ncaptures, l.nparams)).collect();
        // Inlining `make` into `main` copies the pair, so there may be
        // two of each: every outer lambda still precedes every inner one.
        let inner = shapes.iter().position(|s| *s == (3, 1)).expect("inner");
        assert!(
            inner > 0 && shapes[..inner].iter().all(|s| *s == (1, 1)),
            "{shapes:?}"
        );
        assert!(shapes[inner..].iter().all(|s| *s == (3, 1)), "{shapes:?}");
        let whole = run_workload(&c, strategy, 40, RunConfig::default()).unwrap();
        assert_eq!(whole.value, expected, "{strategy:?}");
        assert_eq!(whole.leaked_blocks, 0, "{strategy:?}");
        for budget in 1..=whole.stats.steps {
            let legs =
                run_workload_budgeted(&c, strategy, 40, RunConfig::default(), &[budget]).unwrap();
            assert_eq!(legs.outcome.value, expected, "{strategy:?} budget {budget}");
            assert_eq!(
                legs.outcome.stats, whole.stats,
                "{strategy:?} budget {budget}"
            );
            assert_eq!(
                legs.outcome.leaked_blocks, 0,
                "{strategy:?} budget {budget}"
            );
        }
    }
}

/// `println` output is ordered and identical across strategies.
#[test]
fn println_order_is_deterministic() {
    let src = r#"
fun emit(i: int, n: int): int {
  if i >= n then i
  else {
    println(i * i)
    emit(i + 1, n)
  }
}
fun main(n: int): int { emit(0, n) }
"#;
    let want: Vec<i64> = (0..6).map(|i| i * i).collect();
    for s in Strategy::ALL {
        let out = compile_and_run(src, s, 6, RunConfig::default()).unwrap();
        assert_eq!(out.output, want, "{}", s.label());
    }
}

/// Exercising the suite at a larger size under the GC with a small
/// threshold stresses collection during active recursion.
#[test]
fn gc_collects_during_deep_recursion() {
    // rbtree creates real garbage: every insertion replaces the spine
    // of the old tree. (map would not: input and output list are both
    // reachable for the whole run.)
    let w = perceus_suite::workload("rbtree").unwrap();
    let compiled = compile_workload(w.source, Strategy::Gc).unwrap();
    let config = RunConfig::new().with_gc(Some(perceus_runtime::gc::GcConfig {
        initial_threshold: 256,
        growth_factor: 1.5,
    }));
    let out = run_workload(&compiled, Strategy::Gc, 2_000, config).unwrap();
    assert_eq!(format!("{}", out.value), "200");
    assert!(out.stats.gc_collections > 0);
    assert!(out.stats.gc_swept > 0, "replaced spines are garbage");
    // Peak memory stays bounded well below total allocation.
    assert!(out.stats.peak_live_words < out.stats.alloc_words);
}

/// Scoped RC defeats tail calls (drops after the recursive call), so
/// deep recursion holds every frame — but the machine's continuation
/// stack is heap-allocated, so it degrades gracefully instead of
/// overflowing a native stack.
#[test]
fn scoped_deep_recursion_holds_frames_but_completes() {
    let src = r#"
fun countdown(n: int, acc: int): int {
  if n == 0 then acc else countdown(n - 1, acc + 1)
}
fun main(n: int): int { countdown(n, 0) }
"#;
    let out = compile_and_run(src, Strategy::Scoped, 300_000, RunConfig::default()).unwrap();
    assert_eq!(format!("{}", out.value), "300000");
    assert_eq!(out.leaked_blocks, 0);
}

/// The same machine handles interleaved strategies without any global
/// state: compile once per strategy, run many times, results agree.
#[test]
fn repeated_runs_share_compiled_code() {
    let w = perceus_suite::workload("nqueens").unwrap();
    let compiled = compile_workload(w.source, Strategy::Perceus).unwrap();
    for _ in 0..3 {
        for n in [4, 5, 6] {
            let a = run_workload(&compiled, Strategy::Perceus, n, RunConfig::default()).unwrap();
            let b = run_workload(&compiled, Strategy::Perceus, n, RunConfig::default()).unwrap();
            assert_eq!(a.value, b.value);
            assert_eq!(a.stats, b.stats, "stats deterministic across runs");
        }
    }
}

/// One way slot packing (`perceus_runtime::code`) lets a value take the
/// frame slot of another that is dead where the first is defined.
struct Shape {
    name: &'static str,
    src: &'static str,
    /// The passes that produce the sharing, and the strategy to run them
    /// under.
    config: fn() -> PassConfig,
    strategy: Strategy,
    n: i64,
    /// Finds the sharing in the compiled code.
    found: fn(&Compiled) -> bool,
}

const LIST: &str = "type list<a> { Nil; Cons(head: a, tail: list<a>) }
fun sum(xs: list<int>): int { match xs { Cons(x, t) -> x + sum(t)  Nil -> 0 } }
";

/// `ys` takes the slot of `xs`, which its constructor consumes, and `zs`
/// the slot of `ys`.
const DYING_OPERAND: &str = "
fun grow(xs: list<int>, n: int): int {
  val ys = Cons(n, xs)
  val zs = Cons(1, ys)
  sum(zs)
}
fun main(n: int): int { grow(Cons(n, Nil), n + 1) }
";

/// The arms never read `s` again, so their binders take its slot.
const SCRUTINEE: &str = "
type shape { Circle(r: int)  Rect(w: int, h: int) }
fun area(s: shape): int {
  match s {
    Circle(r) -> 3 * r * r
    Rect(w, h) -> w * h
  }
}
fun main(n: int): int { area(Circle(n)) + area(Rect(n, n + 1)) }
";

/// `k` is delivered after its right-hand side's temporary `t` is dead,
/// so both use the slot `c` leaves.
const ENTER_DST: &str = "
fun pick(c: bool, n: int): int {
  val k = if c then {
    val t = n * 2
    t + 1
  } else n
  k + n
}
fun main(n: int): int { pick(n > 2, n) + pick(n > 100, n) }
";

/// Without drop specialization the reuse token of `xs` stays a
/// `drop-reuse`, and takes the slot of `xs`.
const TOKEN: &str = "
fun inc(xs: list<int>): list<int> {
  match xs {
    Cons(x, t) -> Cons(x + 1, inc(t))
    Nil -> Nil
  }
}
fun build(n: int): list<int> { if n == 0 then Nil else Cons(n, build(n - 1)) }
fun main(n: int): int { sum(inc(build(n))) }
";

/// The slot an instruction writes as it runs, if any.
fn writes(ins: &Instr) -> Option<Slot> {
    match *ins {
        Instr::Atom { dst, .. }
        | Instr::Prim { dst, .. }
        | Instr::MkClosure { dst, .. }
        | Instr::Con { dst, .. }
        | Instr::ConReuse { dst, .. }
        | Instr::TokenOf { dst, .. }
        | Instr::NullToken { dst }
        | Instr::Call { dst, .. }
        | Instr::App { dst, .. }
        | Instr::Enter { dst, .. } => dst.as_slot(),
        Instr::DropReuse { token, .. } => Some(token),
        _ => None,
    }
}

fn shapes() -> [Shape; 5] {
    let dying_operand = |c: &Compiled| {
        c.code.instrs.iter().any(|i| match *i {
            Instr::Con { dst, args, .. } => dst.as_slot().is_some_and(|d| {
                (c.code.pool[args.range()].iter()).any(|o| c.code.atom(*o) == Atom::Slot(d))
            }),
            _ => false,
        })
    };
    let scrutinee = |c: &Compiled| {
        c.code.instrs.iter().any(|i| match *i {
            Instr::Match { scrut, arms, .. } => (c.code.arms[arms.range()].iter())
                .any(|arm| c.code.binders[arm.binders.range()].contains(&scrut)),
            _ => false,
        })
    };
    let enter_dst = |c: &Compiled| {
        (c.code.instrs.iter().enumerate()).any(|(pc, i)| match *i {
            Instr::Enter { dst, body } => dst.as_slot().is_some_and(|d| {
                c.code.instrs[pc + 1..body as usize]
                    .iter()
                    .any(|i| writes(i) == Some(d))
            }),
            _ => false,
        })
    };
    let token = |c: &Compiled| {
        (c.code.instrs.iter())
            .any(|i| matches!(*i, Instr::DropReuse { var, token } if var == token))
    };
    let without_drop_spec = || PassConfig::for_strategy(RcStrategy::Perceus).with_drop_spec(false);
    [
        Shape {
            name: "dying-operand",
            src: DYING_OPERAND,
            config: PassConfig::perceus,
            strategy: Strategy::Perceus,
            n: 5,
            found: dying_operand,
        },
        Shape {
            name: "scrutinee-erased",
            src: SCRUTINEE,
            config: PassConfig::erased,
            strategy: Strategy::Gc,
            n: 4,
            found: scrutinee,
        },
        // A borrowed scrutinee is never dropped either: the same sharing
        // under reference counting, which the native executor can run.
        Shape {
            name: "scrutinee-borrowed",
            src: SCRUTINEE,
            config: PassConfig::perceus_borrowing,
            strategy: Strategy::Perceus,
            n: 4,
            found: scrutinee,
        },
        Shape {
            name: "enter-dst",
            src: ENTER_DST,
            config: PassConfig::perceus,
            strategy: Strategy::Perceus,
            n: 7,
            found: enter_dst,
        },
        Shape {
            name: "drop-reuse-token",
            src: TOKEN,
            config: without_drop_spec,
            strategy: Strategy::Perceus,
            n: 6,
            found: token,
        },
    ]
}

impl Shape {
    fn source(&self) -> String {
        match self.src.contains("list<int>") {
            true => format!("{LIST}{}", self.src),
            false => self.src.to_string(),
        }
    }

    fn compile(&self) -> Compiled {
        let c = compile_with_config(&self.source(), (self.config)()).unwrap();
        assert!(
            (self.found)(&c),
            "{}: the sharing is not in the code",
            self.name
        );
        c
    }
}

/// Every sharing shape runs like its Fig. 6 semantics: the same value,
/// no leak under reference counting, a garbage-free audit at every step,
/// and the same value and counters when suspended and resumed after any
/// number of steps.
#[test]
fn slot_sharing_shapes_run_like_the_oracle() {
    for s in shapes() {
        let mut program = perceus_lang::compile_str(&s.source()).unwrap();
        perceus_core::passes::normalize::normalize_program(&mut program);
        let (expected, _) =
            perceus_suite::driver::oracle_run_program(&program, s.n, 1_000_000).unwrap();
        let c = s.compile();
        let audited = RunConfig::new().with_audit_every(Some(1));
        let whole = run_workload(&c, s.strategy, s.n, audited).unwrap();
        assert_eq!(whole.value, expected, "{}", s.name);
        assert!(whole.audits > 0, "{}", s.name);
        // The tracing collector holds its garbage until it next runs.
        if s.strategy.is_rc() {
            assert_eq!(whole.leaked_blocks, 0, "{}", s.name);
        }
        for budget in 1..=whole.stats.steps {
            let legs = run_workload_budgeted(&c, s.strategy, s.n, RunConfig::default(), &[budget])
                .unwrap();
            let name = s.name;
            assert_eq!(legs.outcome.value, expected, "{name} budget {budget}");
            assert_eq!(legs.outcome.stats, whole.stats, "{name} budget {budget}");
            assert_eq!(
                legs.outcome.leaked_blocks, whole.leaked_blocks,
                "{name} budget {budget}"
            );
        }
    }
}

/// The reference-counted sharing shapes, compiled to Rust by
/// `perceus-codegen`, match the machine bit for bit: value, output,
/// leaks and all 18 counters. A nested cargo build, so it runs only when
/// `PERCEUS_SLOW_TESTS` is set.
#[test]
fn slot_sharing_shapes_run_natively() {
    if std::env::var_os("PERCEUS_SLOW_TESTS").is_none() {
        eprintln!("skipped: set PERCEUS_SLOW_TESTS=1 to build and run the native executor");
        return;
    }
    let rc: Vec<Shape> = shapes()
        .into_iter()
        .filter(|s| s.strategy.is_rc())
        .collect();
    let programs = rc
        .iter()
        .map(|s| (s.name.to_string(), s.compile()))
        .collect();
    let harness = NativeHarness::from_programs(programs).expect("build");
    for s in &rc {
        let check = harness.check(s.name, s.n).expect("run");
        assert!(
            check.passed(),
            "{} diverged:\n  {}",
            s.name,
            check.mismatches.join("\n  ")
        );
        assert_eq!(check.native.leaked_blocks, 0, "{}", s.name);
    }
}

// ---- constructor recursion as a loop (tail recursion modulo cons) ----

const TRMC_LIST: &str = "type list<a> { Nil; Cons(head: a, tail: list<a>) }

fun build(i: int, n: int): list<int> {
  if i >= n then Nil else Cons(i, build(i + 1, n))
}

fun map(xs: list<a>, f: (a) -> b): list<b> {
  match xs {
    Cons(x, xx) -> Cons(f(x), map(xx, f))
    Nil -> Nil
  }
}

fun sum(xs: list<int>, acc: int): int {
  match xs {
    Cons(x, xx) -> sum(xx, acc + x)
    Nil -> acc
  }
}
";

/// The programs with TRMC sites the machine tests run: each name, its
/// source and argument, and the functions compiled as loops.
fn trmc_cases() -> Vec<(&'static str, String, i64, &'static [&'static str])> {
    vec![
        (
            "map",
            format!(
                "{TRMC_LIST}
fun main(n: int): int {{ sum(map(build(0, n), fn(x) {{ x * 3 + 1 }}), 0) }}"
            ),
            12,
            &["build", "map"],
        ),
        (
            // The inner `map` runs inside the outer one's `f`: a new
            // activation, whose context starts empty.
            "map-in-map",
            format!(
                "{TRMC_LIST}
fun sums(xss: list<list<int>>, acc: int): int {{
  match xss {{
    Cons(xs, rest) -> sums(rest, sum(xs, acc))
    Nil -> acc
  }}
}}
fun rows(i: int, n: int): list<list<int>> {{
  if i >= n then Nil else Cons(build(0, i), rows(i + 1, n))
}}
fun main(n: int): int {{
  sums(map(rows(0, n), fn(xs) {{ map(xs, fn(x) {{ x + n }}) }}), 0)
}}"
            ),
            6,
            &["build", "map", "rows"],
        ),
        (
            // Two sites, one in each branch.
            "merge",
            format!(
                "{TRMC_LIST}
fun merge(xs: list<int>, ys: list<int>): list<int> {{
  match xs {{
    Nil -> ys
    Cons(x, xx) -> match ys {{
      Nil -> Cons(x, xx)
      Cons(y, yy) ->
        if x <= y then Cons(x, merge(xx, Cons(y, yy)))
        else Cons(y, merge(Cons(x, xx), yy))
    }}
  }}
}}
fun evens(i: int, n: int): list<int> {{
  if i >= n then Nil else Cons(2 * i, evens(i + 1, n))
}}
fun main(n: int): int {{ sum(merge(evens(0, n), map(evens(0, n), fn(x) {{ x + 1 }})), 0) }}"
            ),
            9,
            &["build", "map", "merge", "evens"],
        ),
        (
            // The first field is a non-tail self call, its own activation
            // with its own context; the last is the site.
            "make",
            "type tree { Leaf; Node(left: tree, right: tree) }
fun make(d: int): tree { if d == 0 then Leaf else Node(make(d - 1), make(d - 1)) }
fun count(t: tree): int {
  match t {
    Leaf -> 1
    Node(l, r) -> 1 + count(l) + count(r)
  }
}
fun main(n: int): int { count(make(n)) }"
                .to_string(),
            5,
            &["make"],
        ),
    ]
}

/// The functions of `c` compiled with tail recursion modulo cons.
fn trmc_funs(c: &Compiled) -> Vec<&str> {
    (c.funs.iter().filter(|f| f.trmc))
        .map(|f| &*f.name)
        .collect()
}

/// Constructor recursion compiled as a loop runs like its Fig. 6
/// semantics: the same value, no leak, a garbage-free audit (contexts
/// included) at every step, and the same value and counters when
/// suspended and resumed after any number of steps.
#[test]
fn constructor_recursion_as_a_loop_runs_like_the_oracle() {
    for (name, src, n, funs) in trmc_cases() {
        let mut program = perceus_lang::compile_str(&src).unwrap();
        perceus_core::passes::normalize::normalize_program(&mut program);
        let (expected, _) =
            perceus_suite::driver::oracle_run_program(&program, n, 1_000_000).unwrap();
        let c = compile_workload(&src, Strategy::Perceus).unwrap();
        assert_eq!(trmc_funs(&c), funs, "{name}");
        let audited = RunConfig::new().with_audit_every(Some(1));
        let whole = run_workload(&c, Strategy::Perceus, n, audited).unwrap();
        assert_eq!(whole.value, expected, "{name}");
        assert!(whole.audits > whole.stats.steps / 2, "{name}");
        assert_eq!(whole.leaked_blocks, 0, "{name}");
        for budget in 1..=whole.stats.steps {
            let legs =
                run_workload_budgeted(&c, Strategy::Perceus, n, RunConfig::default(), &[budget])
                    .unwrap();
            assert_eq!(legs.outcome.value, expected, "{name} budget {budget}");
            assert_eq!(legs.outcome.stats, whole.stats, "{name} budget {budget}");
            assert_eq!(legs.outcome.leaked_blocks, 0, "{name} budget {budget}");
        }
    }
}

/// `map`'s `f` aborts at the k-th element, with the list half mapped:
/// the error is clean, the partly built result is owned through the
/// context's root, so the heap still audits, and a reset reclaims it.
#[test]
fn an_abort_inside_a_constructor_loop_leaves_an_auditable_heap() {
    let src = format!(
        "{TRMC_LIST}
fun main(n: int): int {{
  sum(map(build(0, 20), fn(x) {{ match x == n {{ False -> x + 1 }} }}), 0)
}}"
    );
    let c = compile_workload(&src, Strategy::Perceus).unwrap();
    assert_eq!(trmc_funs(&c), ["build", "map"]);
    for k in [0, 1, 7, 19] {
        let audited = RunConfig::new().with_audit_every(Some(1));
        let mut m = Machine::new(&c, ReclaimMode::Rc, audited);
        let err = m.run_entry(vec![Value::Int(k)]).unwrap_err();
        assert!(matches!(err, RuntimeError::Abort(_)), "{k}: {err}");
        assert_eq!(err.code(), "abort", "{k}");
        perceus_runtime::audit::check_machine(&m).expect("audit after the abort");
        assert!(
            m.heap.live_blocks() >= 20,
            "{k}: the input and output cells"
        );
        m.heap.reset();
        assert_eq!(m.heap.live_blocks(), 0, "{k}");
    }
}

/// A budget or a step limit that stops a run between a site's link and
/// its loop iteration — the cell is in the context, the call is next —
/// leaves a state the auditor accepts. The suspended run resumes to the
/// uninterrupted result; the stopped one resets to an empty heap.
#[test]
fn a_stop_between_the_link_and_the_loop_audits() {
    let src = format!(
        "{TRMC_LIST}
fun main(n: int): int {{ sum(map(build(0, n), fn(x) {{ x + 1 }}), 0) }}"
    );
    let c = compile_workload(&src, Strategy::Perceus).unwrap();
    let loops = |pc: u32| {
        matches!(
            c.code.instrs[pc as usize],
            Instr::Call { dst, .. } if dst == perceus_runtime::code::Dst::LOOP
        )
    };
    let whole = run_workload(&c, Strategy::Perceus, 10, RunConfig::default()).unwrap();
    let mut stops = 0;
    for budget in 1..whole.stats.steps {
        let mut m = Machine::new(&c, ReclaimMode::Rc, RunConfig::default());
        let mut exec = m.start_entry(vec![Value::Int(10)]).unwrap();
        let perceus_runtime::StepOutcome::Suspended { steps_used, .. } =
            exec.run(&mut m, Some(budget)).unwrap()
        else {
            panic!("budget {budget} must suspend");
        };
        if !loops(exec.pc().unwrap()) {
            continue;
        }
        stops += 1;
        exec.audit(&m.heap)
            .expect("audit between the link and the loop");
        let v = loop {
            match exec.run(&mut m, None).unwrap() {
                perceus_runtime::StepOutcome::Done(v) => break v,
                perceus_runtime::StepOutcome::Suspended { .. } => {}
            }
        };
        assert_eq!(m.read_back(v).unwrap(), whole.value, "budget {budget}");
        m.drop_result(v).unwrap();
        assert_eq!(m.heap.stats, whole.stats, "budget {budget}");
        // The same instruction is where a step limit of as many steps
        // stops the run.
        let limited = RunConfig::new().with_step_limit(Some(steps_used));
        let mut m = Machine::new(&c, ReclaimMode::Rc, limited);
        let err = m.run_entry(vec![Value::Int(10)]).unwrap_err();
        assert!(matches!(err, RuntimeError::StepLimit(_)), "{err}");
        perceus_runtime::audit::check_machine(&m).expect("audit at the step limit");
        m.heap.reset();
        assert_eq!(m.heap.live_blocks(), 0);
    }
    assert_eq!(stops, 20, "one stop per iteration of `build` and of `map`");
}

/// The constructor loops, compiled to Rust by `perceus-codegen`, match
/// the machine bit for bit: value, output, leaks and all 18 counters. A
/// nested cargo build, so it runs only when `PERCEUS_SLOW_TESTS` is set.
#[test]
fn constructor_recursion_as_a_loop_runs_natively() {
    if std::env::var_os("PERCEUS_SLOW_TESTS").is_none() {
        eprintln!("skipped: set PERCEUS_SLOW_TESTS=1 to build and run the native executor");
        return;
    }
    let cases = trmc_cases();
    let programs = (cases.iter())
        .map(|(name, src, _, _)| {
            (
                name.to_string(),
                compile_workload(src, Strategy::Perceus).unwrap(),
            )
        })
        .collect();
    let harness = NativeHarness::from_programs(programs).expect("build");
    for (name, _, n, _) in &cases {
        let check = harness.check(name, *n).expect("run");
        assert!(
            check.passed(),
            "{name} diverged:\n  {}",
            check.mismatches.join("\n  ")
        );
        assert_eq!(check.native.leaked_blocks, 0, "{name}");
    }
}
