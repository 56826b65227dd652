//! Robustness fuzzing for the front end: arbitrary input and mutated
//! valid programs must produce `Ok` or a located `Err` — never a panic,
//! and any accepted program must lower to well-formed core.

use perceus_core::ir::wf;
use perceus_core::passes::normalize;
use proptest::prelude::*;

const FRAGMENTS: &[&str] = &[
    "fun", "type", "val", "match", "if", "then", "elif", "else", "fn", "main", "x", "xs", "Cons",
    "Nil", "int", "bool", "list", "(", ")", "{", "}", "<", ">", ",", ";", "->", "=", "==", "!=",
    "<=", ">=", "+", "-", "*", "/", "%", "&&", "||", ":=", "!", ":", "0", "1", "42", "_", "\n",
    " ", "a", "b", "ref", "println",
];

const VALID: &str = r#"
type list<a> { Nil; Cons(head: a, tail: list<a>) }
fun map(xs: list<a>, f: (a) -> b): list<b> {
  match xs {
    Cons(x, xx) -> Cons(f(x), map(xx, f))
    Nil -> Nil
  }
}
fun main(n: int): int { n }
"#;

/// SplitMix64: the call-DAG generator's source of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A program of 25–64 functions whose calls form a random DAG: `f{i}`
/// calls only functions `f{j}` with `j > i`, and every fourth function
/// is polymorphic (`fun f{i}(x: a): a`), which an `int` caller uses at
/// `int` and at `bool`. The functions are declared in a shuffled order,
/// so most calls go to functions declared later.
fn call_dag(seed: u64) -> String {
    let mut rng = Rng(seed);
    let n = 25 + rng.below(40);
    let poly = |i: usize| i % 4 == 3;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut src = String::new();
    for &i in &order {
        let mut body = String::from("x");
        for _ in 0..rng.below(4) {
            if i + 1 == n {
                break;
            }
            let j = i + 1 + rng.below(n - i - 1);
            body = match (poly(i), poly(j)) {
                (true, true) => format!("f{j}({body})"),
                (true, false) => body,
                (false, true) => {
                    format!("{body} + f{j}(x) + (if f{j}(True) then 1 else 0)")
                }
                (false, false) => format!("{body} + f{j}(x)"),
            };
        }
        let ty = if poly(i) { "a" } else { "int" };
        src += &format!("fun f{i}(x: {ty}): {ty} {{ {body} }}\n");
        if i == order[n / 2] {
            src += "fun main(n: int): int { f0(n) }\n";
        }
    }
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every call DAG compiles, in any declaration order: components are
    /// generalized callees first.
    #[test]
    fn call_dags_compile_in_any_declaration_order(seed in any::<u64>()) {
        let src = call_dag(seed);
        let mut p = perceus_lang::compile_str(&src)
            .map_err(|e| TestCaseError::fail(format!("{}\n{src}", e.render(&src))))?;
        normalize::normalize_program(&mut p);
        wf::check_program(&p).expect("accepted programs are well-formed");
    }

    /// Random token soup: the compiler terminates with Ok or Err.
    #[test]
    fn token_soup_never_panics(parts in proptest::collection::vec(
        proptest::sample::select(FRAGMENTS), 0..60
    )) {
        let src: String = parts.concat();
        match perceus_lang::compile_str(&src) {
            Ok(mut p) => {
                normalize::normalize_program(&mut p);
                wf::check_program(&p).expect("accepted programs are well-formed");
            }
            Err(e) => {
                // The error must render against the source without
                // panicking (span sanity).
                let _ = e.render(&src);
            }
        }
    }

    /// Mutations of a valid program: delete or duplicate a random byte
    /// range — again, no panics, and acceptance implies well-formedness.
    #[test]
    fn mutated_program_never_panics(
        start in 0usize..200,
        len in 0usize..40,
        duplicate in any::<bool>(),
    ) {
        let bytes = VALID.as_bytes();
        let start = start.min(bytes.len());
        let end = (start + len).min(bytes.len());
        let mutated: Vec<u8> = if duplicate {
            [&bytes[..end], &bytes[start..end], &bytes[end..]].concat()
        } else {
            [&bytes[..start], &bytes[end..]].concat()
        };
        // Only valid UTF-8 inputs (the API takes &str).
        if let Ok(src) = std::str::from_utf8(&mutated) {
            match perceus_lang::compile_str(src) {
                Ok(mut p) => {
                    normalize::normalize_program(&mut p);
                    wf::check_program(&p).expect("accepted programs are well-formed");
                }
                Err(e) => {
                    let _ = e.render(src);
                }
            }
        }
    }
}
