//! End-to-end tests of the `perceus-suite` command-line interface,
//! exercising the documented exit-code contract:
//!
//! * `0` — success (including `--help`-style usage on no arguments)
//! * `1` — an operation ran and failed (e.g. `analyze --deny` violations)
//! * `2` — usage error: unknown subcommand, unknown option, bad value

use perceus_core::json::{self, Json};
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perceus-suite"))
        .args(args)
        .output()
        .expect("spawn perceus-suite")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The command's stdout, parsed as one JSON document.
fn json_doc(out: &Output) -> Json {
    let text = stdout(out);
    json::parse(text.trim()).unwrap_or_else(|e| panic!("{e}: {text}"))
}

/// An array field of `v`.
fn arr<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    match v.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("`{key}` is not an array: {other:?}"),
    }
}

fn str_field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` is not a string: {v:?}"))
}

#[test]
fn no_args_prints_usage_and_succeeds() {
    let out = run(&[]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).to_lowercase().contains("usage"),
        "usage text expected"
    );
    assert!(
        stdout(&out).contains("analyze"),
        "usage lists the analyze subcommand"
    );
}

#[test]
fn unknown_subcommand_exits_2() {
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("frobnicate"),
        "names the offending word"
    );
}

#[test]
fn unknown_option_exits_2() {
    let out = run(&["fuzz", "--bogus"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("--bogus"),
        "names the offending option"
    );
}

#[test]
fn unknown_workload_exits_2() {
    let out = run(&["stages", "--workload", "nope"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
}

#[test]
fn unknown_deny_code_exits_2() {
    let out = run(&["analyze", "--workload", "map", "--deny", "NOPE"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("NOPE"));
}

#[test]
fn missing_option_value_exits_2() {
    let out = run(&["analyze", "--workload"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
}

#[test]
fn stages_json_is_well_formed() {
    let out = run(&["stages", "--workload", "map", "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let doc = json_doc(&out);
    assert_eq!(str_field(&doc, "workload"), "map");
    let stages = arr(&doc, "stages");
    assert!(!stages.is_empty());
    for s in stages {
        assert!(s.get("nodes").and_then(Json::as_u64).is_some(), "{s:?}");
    }
}

#[test]
fn analyze_json_reports_diagnostics() {
    let out = run(&["analyze", "--workload", "rbtree", "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let doc = json_doc(&out);
    assert_eq!(doc.get("violations").and_then(Json::as_u64), Some(0));
    let target = &arr(&doc, "targets")[0];
    assert_eq!(str_field(target, "name"), "rbtree");
    let analysis = arr(target, "stages")
        .last()
        .unwrap()
        .get("analysis")
        .unwrap();
    assert!(!arr(analysis, "functions").is_empty());
    for d in arr(analysis, "diagnostics") {
        assert!(str_field(d, "code").starts_with('L'), "{d:?}");
    }
}

#[test]
fn analyze_deny_l2_passes_on_fused_output() {
    // The final stage under the default strategy is fully fused, so
    // denying L2 must not trip (this is the CI gate).
    let out = run(&["analyze", "--workload", "map", "--deny", "L2"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
}

#[test]
fn analyze_deny_violation_exits_1() {
    // rbtree's `ins` allocates along its recursion under the default
    // strategy (no reuse token on that path), so L4 fires at the final
    // stage; denying a code that fires must exit 1.
    let out = run(&["analyze", "--workload", "rbtree", "--deny", "L4"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
}

#[test]
fn analyze_deny_json_emits_the_full_report_before_failing() {
    // A tripped deny gate must still print the complete JSON document
    // (CI consumers read *which* gate fired from stdout), including the
    // per-target denied counts, and only then exit 1 — not 2.
    let out = run(&["analyze", "--workload", "rbtree", "--deny", "L4", "--json"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let doc = json_doc(&out);
    assert!(doc.get("violations").and_then(Json::as_u64) > Some(0));
    let target = &arr(&doc, "targets")[0];
    let denied = arr(target, "denied");
    assert_eq!(str_field(&denied[0], "code"), "L4");
    assert!(denied[0].get("count").and_then(Json::as_u64) > Some(0));
    assert!(
        !arr(target, "stages").is_empty(),
        "the report body is present too"
    );
}

#[test]
fn analyze_deny_json_reports_empty_denied_on_success() {
    let out = run(&["analyze", "--workload", "map", "--deny", "L2", "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("\"denied\":[]"),
        "clean gate, empty list"
    );
}

#[test]
fn parallel_runs_and_reports_the_join_audit() {
    let out = run(&[
        "parallel",
        "--workload",
        "map",
        "--threads",
        "2",
        "--n",
        "200",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("2 threads"), "got: {text}");
    assert!(text.contains("join audit: ok"), "got: {text}");
    assert!(text.contains("atomic rc ops:"), "got: {text}");
}

#[test]
fn parallel_json_is_well_formed() {
    let out = run(&[
        "parallel",
        "--workload",
        "map",
        "--threads",
        "2",
        "--n",
        "200",
        "--json",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let doc = json_doc(&out);
    assert!(doc.get("atomic_ops").and_then(Json::as_u64).is_some());
    assert_eq!(doc.get("threads").and_then(Json::as_u64), Some(2));
    let audit = doc.get("join_audit").unwrap();
    assert_eq!(audit.get("live_blocks").and_then(Json::as_u64), Some(0));
}

#[test]
fn profile_json_is_well_formed() {
    let out = run(&["profile", "--workload", "rbtree", "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let doc = json_doc(&out);
    assert_eq!(str_field(&doc, "workload"), "rbtree");
    let profile = doc.get("profile").unwrap();
    let functions = arr(profile, "functions");
    let calls: u64 = functions
        .iter()
        .map(|f| f.get("calls").and_then(Json::as_u64).unwrap())
        .sum();
    assert!(calls > 0, "{functions:?}");
    let totals = profile.get("totals").unwrap();
    assert!(totals.get("rc_ops").and_then(Json::as_u64).is_some());
}

#[test]
fn certify_json_is_well_formed() {
    let out = run(&["certify", "--workload", "map", "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let doc = json_doc(&out);
    assert_eq!(doc.get("violations").and_then(Json::as_u64), Some(0));
    let target = &arr(&doc, "targets")[0];
    assert_eq!(str_field(target, "name"), "map");
    let stage = arr(target, "stages").last().unwrap();
    assert!(arr(stage, "checker_errors").is_empty());
    let certs = arr(stage.get("certificates").unwrap(), "functions");
    assert!(
        certs.iter().any(|c| str_field(c, "name") == "map"),
        "{certs:?}"
    );
}

#[test]
fn parallel_unknown_workload_exits_2() {
    let out = run(&["parallel", "--workload", "nope"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
}

#[test]
fn parallel_zero_threads_exits_2() {
    let out = run(&["parallel", "--workload", "map", "--threads", "0"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
}
