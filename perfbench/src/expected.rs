//! Reference outputs: `expected.json` maps `(program, n)` to the value
//! `main(n)` must return.
//!
//! The reference never comes from the compiler under test: it is the
//! Fig. 6 standard-semantics oracle (`perceus_suite::oracle_run`, an
//! independent interpreter over the *erased* program) or, where the
//! natively recursive oracle cannot reach the frozen size, the closed
//! form the program's definition gives. `--bless-expected` rewrites the
//! file; a normal run only reads it.

use perceus_serve::json::{self, Json};
use perceus_suite::{compile_workload, oracle_run, run_workload, workload, Strategy};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Oracle fuel: enough for every frozen size the oracle's native stack
/// can reach.
const ORACLE_FUEL: u64 = 4_000_000_000;

pub fn path() -> PathBuf {
    crate::bench_dir().join("expected.json")
}

/// `(program, n)` → rendered result value.
#[derive(Debug, Default)]
pub struct Expected(BTreeMap<(String, i64), String>);

impl Expected {
    pub fn load() -> Result<Expected, String> {
        let path = path();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Expected, String> {
        let doc = json::parse(text)?;
        let Some(Json::Arr(entries)) = doc.get("entries") else {
            return Err("expected.json: no \"entries\" array".into());
        };
        let mut map = BTreeMap::new();
        for e in entries {
            let field = |k: &str| {
                e.get(k)
                    .ok_or(format!("expected.json: entry without {k:?}"))
            };
            let program = field("program")?
                .as_str()
                .ok_or("program must be a string")?;
            let n = field("n")?.as_i64().ok_or("n must be a number")?;
            let value = field("value")?.as_str().ok_or("value must be a string")?;
            map.insert((program.to_string(), n), value.to_string());
        }
        Ok(Expected(map))
    }

    pub fn get(&self, program: &str, n: i64) -> Result<&str, String> {
        self.0
            .get(&(program.to_string(), n))
            .map(String::as_str)
            .ok_or_else(|| {
                format!("expected.json has no entry for {program}({n}); run --bless-expected")
            })
    }
}

/// The value `main(n)` returns by the program's definition, for the
/// programs whose definition gives one (see the comments in
/// `crates/suite/src/workloads.rs` and the `.pk` sources).
fn closed_form(program: &str, n: i64) -> Option<i64> {
    match program {
        // Keys (i*17+3) % n, i in 0..n, are a permutation of 0..n when
        // 17 does not divide n; the result counts keys divisible by 10.
        "rbtree" if n % 17 != 0 => Some((n + 9) / 10),
        "tmap" | "tmap-rec" => Some(n * n + 2 * n),
        "map" => Some(n * (n + 1) / 2),
        "queue" => Some(n * (n - 1) / 2),
        "binarytrees" if n >= 2 => Some(((1 << (n + 1)) - 1) + 50 * ((1 << (n - 1)) - 1)),
        _ => None,
    }
}

/// Prints the oracle's value of `program(n)` — the hidden `--oracle`
/// mode [`reference`] runs in a child process.
pub fn print_oracle(program: &str, n: i64) -> Result<(), String> {
    let w = workload(program).ok_or(format!("no workload {program:?}"))?;
    let (v, _) = oracle_run(w.source, n, ORACLE_FUEL).map_err(|e| e.to_string())?;
    println!("{v}");
    Ok(())
}

/// The oracle's value, or why there is none. The oracle recurses
/// natively and aborts the process when a deep program overflows its
/// stack, so it runs in a child of this binary.
fn oracle_in_child(program: &str, n: i64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--oracle", program, &n.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    if out.status.success() {
        Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
    } else {
        Err(format!("{}", out.status))
    }
}

/// Computes the reference value for one `(program, n)` and says where it
/// came from. When both references exist they must agree.
fn reference(program: &str, n: i64) -> Result<(String, &'static str), String> {
    let closed = closed_form(program, n).map(|v| v.to_string());
    match (oracle_in_child(program, n), closed) {
        (Ok(v), Some(c)) if v != c => Err(format!(
            "{program}({n}): oracle says {v}, closed form says {c}"
        )),
        (Ok(v), _) => Ok((v, "oracle")),
        (Err(_), Some(c)) => Ok((c, "closed-form")),
        (Err(e), None) => Err(format!(
            "{program}({n}): oracle failed ({e}) and there is no closed form"
        )),
    }
}

/// Rewrites `expected.json` for the given `(program, n)` pairs. Each
/// entry also records the machine steps of the run at definition time —
/// a record of the frozen sizes' cost, not something a run checks (a
/// pass may legitimately change it).
pub fn bless(items: &[(&str, i64)]) -> Result<(), String> {
    let mut out = String::from(
        "{\"note\":\"Reference outputs for perfbench; written by --bless-expected. \
         value is checked on every run; source and steps_at_definition are records.\",\n\
         \"entries\":[",
    );
    let mut seen = std::collections::BTreeSet::new();
    for &(program, n) in items {
        if !seen.insert((program, n)) {
            continue;
        }
        let (value, source) = reference(program, n)?;
        let w = workload(program).ok_or(format!("no workload {program:?}"))?;
        let compiled = compile_workload(w.source, Strategy::Perceus).map_err(|e| e.to_string())?;
        let run = run_workload(&compiled, Strategy::Perceus, n, Default::default())
            .map_err(|e| format!("{program}({n}): {e}"))?;
        eprintln!(
            "blessed {program}({n}) = {value} [{source}], {} steps",
            run.stats.steps
        );
        if seen.len() > 1 {
            out.push(',');
        }
        let _ = write!(out, "\n{{\"program\":");
        json::push_str_lit(&mut out, program);
        let _ = write!(out, ",\"n\":{n},\"value\":");
        json::push_str_lit(&mut out, &value);
        let _ = write!(
            out,
            ",\"source\":\"{source}\",\"steps_at_definition\":{}}}",
            run.stats.steps
        );
    }
    out.push_str("\n]}\n");
    std::fs::write(path(), out).map_err(|e| format!("{}: {e}", path().display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_forms_agree_with_the_registry() {
        for w in perceus_suite::workloads() {
            for &(n, want) in w.expected {
                if let Some(got) = closed_form(w.name, n) {
                    assert_eq!(got, want, "{}({n})", w.name);
                }
            }
        }
        // rbtree's permutation argument does not hold when 17 | n.
        assert_eq!(closed_form("rbtree", 34), None);
    }

    #[test]
    fn parse_and_lookup() {
        let e = Expected::parse(
            r#"{"entries":[{"program":"map","n":8,"value":"36","source":"oracle"}]}"#,
        )
        .unwrap();
        assert_eq!(e.get("map", 8).unwrap(), "36");
        assert!(e.get("map", 9).is_err());
        assert!(Expected::parse(r#"{"entries":[{"program":"map"}]}"#).is_err());
    }
}
