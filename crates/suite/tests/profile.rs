//! Integration tests of the attributed profiler (`perceus_runtime::profile`)
//! through the suite driver and the `perceus-suite profile` CLI:
//!
//! * **exactness** — the profile is a partition of the run's heap
//!   statistics: summing every calling-context's counters reproduces
//!   the monotonic counters of [`Stats`] exactly, per workload and
//!   per strategy (the Appendix D.3 exact-count property, refined to
//!   attribution);
//! * **determinism** — profiling a deterministic single-threaded run
//!   twice renders byte-identical reports, and so does a 4-thread
//!   independent-instance run (spawn-order merge);
//! * **zero overhead** — a run with the profiler disabled produces
//!   bit-identical results and statistics to the seed behavior;
//! * **partition on every path** — a shared-input parallel run, a run
//!   suspended and resumed in budgeted legs, and a run that dies at its
//!   step limit all still partition their statistics.

use perceus_runtime::machine::{Machine, RunConfig};
use perceus_runtime::{ProfCounts, RuntimeError, Value};
use perceus_suite::{
    compile_workload, run_parallel, run_workload, run_workload_budgeted, workload, Strategy,
};
use std::process::{Command, Output};

fn profiled() -> RunConfig {
    RunConfig::new().with_profile(true)
}

#[test]
fn profile_totals_exactly_equal_run_stats() {
    for name in ["rbtree", "deriv", "nqueens", "cfold", "tmap", "map"] {
        let w = workload(name).unwrap();
        let compiled = compile_workload(w.source, Strategy::Perceus).unwrap();
        let out = run_workload(&compiled, Strategy::Perceus, w.test_n, profiled()).unwrap();
        let prof = out.profile.expect("profiling was enabled");
        assert_eq!(
            prof.totals(),
            ProfCounts::capture(&out.stats),
            "{name}: attributed counters must partition the run's stats"
        );
    }
}

#[test]
fn profile_is_exact_under_every_strategy() {
    let w = workload("rbtree").unwrap();
    for strategy in Strategy::ALL {
        let compiled = compile_workload(w.source, strategy).unwrap();
        let out = run_workload(&compiled, strategy, w.test_n, profiled()).unwrap();
        let prof = out.profile.expect("profiling was enabled");
        assert_eq!(
            prof.totals(),
            ProfCounts::capture(&out.stats),
            "{}: attributed counters must partition the run's stats",
            strategy.label()
        );
    }
}

#[test]
fn disabled_profiler_is_free() {
    let w = workload("rbtree").unwrap();
    let compiled = compile_workload(w.source, Strategy::Perceus).unwrap();
    let off = run_workload(&compiled, Strategy::Perceus, w.test_n, RunConfig::default()).unwrap();
    let on = run_workload(&compiled, Strategy::Perceus, w.test_n, profiled()).unwrap();
    assert!(off.profile.is_none(), "default config must not profile");
    assert_eq!(off.value, on.value);
    assert_eq!(
        off.stats, on.stats,
        "attribution must not change a single counter of the run itself"
    );
}

#[test]
fn single_threaded_report_is_deterministic() {
    let w = workload("rbtree").unwrap();
    let compiled = compile_workload(w.source, Strategy::Perceus).unwrap();
    let render = || {
        let out = run_workload(&compiled, Strategy::Perceus, w.test_n, profiled()).unwrap();
        let prof = out.profile.unwrap();
        (
            prof.render_json(&compiled, Some(w.source)),
            prof.render_folded(&compiled, perceus_runtime::ProfMetric::RcOps),
        )
    };
    let (json_a, folded_a) = render();
    let (json_b, folded_b) = render();
    assert_eq!(json_a, json_b, "two identical runs must render identically");
    assert_eq!(folded_a, folded_b);
    assert!(
        json_a.contains("\"name\":\"ins\""),
        "names the hot function"
    );
    assert!(folded_a.contains(";ins "), "folded stacks walk through ins");
}

#[test]
fn merged_parallel_profile_is_deterministic_and_exact() {
    // rbtree has no shared-input split: 4 independent instances, so
    // even the per-function split is deterministic after the
    // spawn-order merge (shared-input workloads only guarantee
    // deterministic *totals* — see docs/OBSERVABILITY.md).
    let w = workload("rbtree").unwrap();
    let compiled = compile_workload(w.source, Strategy::Perceus).unwrap();
    let run = || {
        let out = run_parallel(&w, Strategy::Perceus, w.test_n, 4, profiled()).unwrap();
        let prof = out.profile.expect("profiling was enabled");
        (
            prof.render_json(&compiled, Some(w.source)),
            prof.totals(),
            out.stats,
        )
    };
    let (json_a, totals_a, stats_a) = run();
    let (json_b, _, _) = run();
    assert_eq!(
        json_a, json_b,
        "4-thread merged report must be reproducible"
    );
    assert_eq!(
        totals_a,
        ProfCounts::capture(&stats_a),
        "merged attribution must still partition the merged stats"
    );
}

#[test]
fn shared_input_parallel_profile_is_exact() {
    // map splits one shared input across the workers: the builder's
    // share barrier, the workers' atomic dup/drop on the segment and
    // the shared-drop paths all land in the merged stats.
    let w = workload("map").unwrap();
    assert!(w.parallel.is_some(), "map has a shared-input split");
    let out = run_parallel(&w, Strategy::Perceus, w.test_n, 4, profiled()).unwrap();
    assert!(out.stats.atomic_ops > 0, "the workers touched the segment");
    let prof = out.profile.expect("profiling was enabled");
    assert_eq!(
        prof.totals(),
        ProfCounts::capture(&out.stats),
        "shared-input attribution must partition the merged stats"
    );
}

#[test]
fn budgeted_run_profile_is_exact_across_suspensions() {
    let w = workload("rbtree").unwrap();
    let compiled = compile_workload(w.source, Strategy::Perceus).unwrap();
    let whole = run_workload(&compiled, Strategy::Perceus, w.test_n, profiled()).unwrap();
    let budget = whole.stats.steps.div_ceil(8);
    let out = run_workload_budgeted(
        &compiled,
        Strategy::Perceus,
        w.test_n,
        profiled(),
        &[budget],
    )
    .unwrap();
    assert_eq!(out.suspensions, 7, "eight legs");
    assert_eq!(out.outcome.stats, whole.stats);
    let prof = out.outcome.profile.expect("profiling was enabled");
    assert_eq!(
        prof.totals(),
        ProfCounts::capture(&out.outcome.stats),
        "attribution must partition the stats of a run that suspended"
    );
    assert_eq!(
        prof.render_json(&compiled, Some(w.source)),
        whole
            .profile
            .unwrap()
            .render_json(&compiled, Some(w.source)),
        "suspending must not move a single attributed event"
    );
}

#[test]
fn step_limited_run_profile_is_exact() {
    let w = workload("rbtree").unwrap();
    let compiled = compile_workload(w.source, Strategy::Perceus).unwrap();
    let config = profiled().with_step_limit(Some(5_000));
    let mut m = Machine::new(&compiled, Strategy::Perceus.reclaim_mode(), config);
    let err = m.run_entry(vec![Value::Int(w.test_n)]).unwrap_err();
    assert!(matches!(err, RuntimeError::StepLimit(5_000)), "{err}");
    let prof = m.heap.take_profile().expect("profiling was enabled");
    assert!(
        prof.totals().rc_ops() > 0,
        "the run did work before the limit"
    );
    assert_eq!(
        prof.totals(),
        ProfCounts::capture(&m.heap.stats),
        "attribution must partition the stats of a run cut at its step limit"
    );
}

#[test]
fn constructor_attribution_accounts_for_reuse() {
    let w = workload("rbtree").unwrap();
    let compiled = compile_workload(w.source, Strategy::Perceus).unwrap();
    let out = run_workload(&compiled, Strategy::Perceus, w.test_n, profiled()).unwrap();
    let prof = out.profile.unwrap();
    let ctors = prof.per_ctor();
    let allocs: u64 = ctors.iter().map(|(_, c)| c.allocs).sum();
    let reuses: u64 = ctors.iter().map(|(_, c)| c.reuses).sum();
    assert_eq!(
        reuses, out.stats.reuses,
        "every reuse-token construction names its constructor"
    );
    assert!(
        allocs <= out.stats.allocations,
        "constructor allocs are a subset of all fresh allocations"
    );
    let node = ctors
        .iter()
        .map(|(id, c)| (compiled.types.ctor(*id).name.clone(), c))
        .find(|(name, _)| &**name == "Node")
        .expect("rbtree allocates Node cells");
    assert!(node.1.reuses > 0, "rbtree's insert reuses Node in place");
}

// --- CLI -----------------------------------------------------------

fn run_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perceus-suite"))
        .args(args)
        .output()
        .expect("spawn perceus-suite")
}

#[test]
fn profile_cli_json_is_byte_identical_across_runs() {
    let a = run_cli(&["profile", "--workload", "rbtree", "--json"]);
    let b = run_cli(&["profile", "--workload", "rbtree", "--json"]);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    assert_eq!(a.stdout, b.stdout, "profile --json must be deterministic");
    let text = String::from_utf8(a.stdout).unwrap();
    assert!(text.contains("\"workload\":\"rbtree\""));
    assert!(text.contains("\"totals\":{"));
}

#[test]
fn profile_cli_threads_merge_is_byte_identical_across_runs() {
    let args = [
        "profile",
        "--workload",
        "rbtree",
        "--threads",
        "4",
        "--json",
    ];
    let a = run_cli(&args);
    let b = run_cli(&args);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    assert_eq!(a.stdout, b.stdout, "merged profile must be deterministic");
}

#[test]
fn profile_cli_rejects_conflicting_and_unknown_flags() {
    let conflict = run_cli(&["profile", "--workload", "rbtree", "--json", "--folded"]);
    assert_eq!(conflict.status.code(), Some(2));
    let metric = run_cli(&["profile", "--metric", "nonsense"]);
    assert_eq!(metric.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&metric.stderr).contains("nonsense"));
}
