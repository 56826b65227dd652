//! End-to-end differential tests: emit → cargo build → run the native
//! executor as a subprocess → compare against the abstract machine.
//!
//! These are the in-repo version of the CI `codegen-gate` job, scoped
//! down to stay fast under `cargo test`: two workloads plus a small
//! fuzz batch instead of all thirteen and 100 programs. The executor's
//! own build uses `CARGO_TARGET_DIR=target/native` (its own lock), so
//! nesting a cargo build inside the outer `cargo test` cannot
//! deadlock.
//!
//! A nested build from a cold cache takes minutes, so the tests run
//! only when `PERCEUS_SLOW_TESTS` is set (CI sets it).

use perceus_suite::native::{fuzz_native, NativeHarness};
use perceus_suite::Strategy;

/// True when `PERCEUS_SLOW_TESTS` asks for the nested cargo builds.
fn slow_tests() -> bool {
    let on = std::env::var_os("PERCEUS_SLOW_TESTS").is_some();
    if !on {
        eprintln!("skipped: set PERCEUS_SLOW_TESTS=1 to build and run the native executor");
    }
    on
}

/// Value, println output, leak count, and all 18 schedule counters
/// bit-identical on a reuse-heavy workload and an error-path workload.
#[test]
fn workloads_are_bit_identical() {
    if !slow_tests() {
        return;
    }
    let harness = NativeHarness::for_workloads(&["map", "exn"], Strategy::Perceus).expect("build");
    for name in ["map", "exn"] {
        let n = perceus_suite::workload(name).unwrap().test_n;
        let check = harness.check(name, n).expect("run");
        assert!(
            check.passed(),
            "{name} diverged:\n  {}",
            check.mismatches.join("\n  ")
        );
        assert!(check.machine.ok, "{name} machine run failed");
        assert_eq!(check.native.leaked_blocks, 0, "{name} leaked");
    }
}

/// The no-opt schedule (no reuse, no specialization — far more RC
/// traffic) is also reproduced exactly: the gate covers the translation
/// of the *unoptimized* instruction stream too.
#[test]
fn no_opt_schedule_is_bit_identical() {
    if !slow_tests() {
        return;
    }
    let harness = NativeHarness::for_workloads(&["map"], Strategy::PerceusNoOpt).expect("build");
    let check = harness.check("map", 100).expect("run");
    assert!(
        check.passed(),
        "map (no-opt) diverged:\n  {}",
        check.mismatches.join("\n  ")
    );
}

/// A small differential fuzz batch: generated programs (including ones
/// that abort or error at runtime) agree with the machine on outcome,
/// error code, and counters-at-failure.
#[test]
fn generated_programs_are_bit_identical() {
    if !slow_tests() {
        return;
    }
    let report = fuzz_native(0xC0DE6E, 8, 28, 5).expect("fuzz");
    assert!(
        report.failures.is_empty(),
        "{} of {} generated programs diverged; first:\n  {}",
        report.failures.len(),
        report.iters,
        report.failures[0].mismatches.join("\n  ")
    );
}
