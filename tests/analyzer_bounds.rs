//! The static RC-cost analyzer against the running machine: the
//! worst-case interval of the entry function's summary must bound every
//! runtime `Stats` counter it models, on every standard workload and
//! every reference-counting strategy.
//!
//! The comparison maps analyzer categories onto runtime counters as
//! documented in `docs/ANALYSIS.md`:
//!
//! * `dup/drop/decref/is_unique` — the runtime only increments these
//!   when the operand is a counted heap value, so the static *executed
//!   instruction* count is an upper bound by construction (the static
//!   best case is **not** a runtime lower bound, for the same reason).
//! * `alloc + reuse_alloc` — compared jointly against
//!   `allocations + reuses` (a `Con@ru` takes either route).
//! * `free` is *not* compared: the runtime counter includes recursive
//!   frees triggered by a single `drop`, which no per-instruction count
//!   bounds.
//!
//! Also here: the stage-diff acceptance test (L2 nonzero after drop
//! specialization, zero after fusion) and exactness checks on a
//! non-recursive program where the bounds must be finite and tight.

use perceus_core::analysis::{Bound, CostInterval, LintCode};
use perceus_core::json::{self, Json};
use perceus_core::passes::PassName;
use perceus_core::Pipeline;
use perceus_runtime::machine::RunConfig;
use perceus_suite::{compile_workload, run_workload, workloads, Strategy};

/// Analyzes a workload source under a strategy and returns the entry
/// function's cost summary of the **final** stage (the shipped
/// program).
fn entry_cost(src: &str, strategy: Strategy) -> perceus_core::analysis::CostVector {
    let program = perceus_lang::compile_str(src).unwrap();
    let analyzed = Pipeline::new(strategy.pass_config())
        .analyze(program)
        .unwrap();
    analyzed
        .final_stage()
        .analysis
        .entry_summary()
        .expect("workloads have a main")
        .cost
}

fn check_bound(what: &str, ctx: &str, iv: CostInterval, observed: u64) {
    assert!(
        iv.covers(observed),
        "{ctx}: observed {what} = {observed} exceeds static worst case {iv}"
    );
}

#[test]
fn static_worst_case_bounds_runtime_counters_on_fig9_workloads() {
    for w in workloads().iter().filter(|w| w.in_figure9) {
        for &strategy in Strategy::ALL.iter().filter(|s| s.is_rc()) {
            let cost = entry_cost(w.source, strategy);
            let compiled = compile_workload(w.source, strategy).unwrap();
            let out = run_workload(&compiled, strategy, w.test_n, RunConfig::default()).unwrap();
            let ctx = format!("{} under {}", w.name, strategy.label());
            let s = &out.stats;
            check_bound("dups", &ctx, cost.dup, s.dups);
            check_bound("drops", &ctx, cost.drop, s.drops);
            check_bound("decrefs", &ctx, cost.decref, s.decrefs);
            check_bound("unique_tests", &ctx, cost.is_unique, s.unique_tests);
            check_bound(
                "allocations + reuses",
                &ctx,
                cost.total_allocs(),
                s.allocations + s.reuses,
            );
        }
    }
}

/// The same bounds hold on the *remaining* (non-Fig. 9) registered
/// workloads — the analyzer is not tuned to five programs.
#[test]
fn static_worst_case_bounds_runtime_counters_on_all_workloads() {
    for w in workloads().iter().filter(|w| !w.in_figure9) {
        let strategy = Strategy::Perceus;
        let cost = entry_cost(w.source, strategy);
        let compiled = compile_workload(w.source, strategy).unwrap();
        let out = run_workload(&compiled, strategy, w.test_n, RunConfig::default()).unwrap();
        let ctx = format!("{} under {}", w.name, strategy.label());
        let s = &out.stats;
        check_bound("dups", &ctx, cost.dup, s.dups);
        check_bound("drops", &ctx, cost.drop, s.drops);
        check_bound("decrefs", &ctx, cost.decref, s.decrefs);
        check_bound("unique_tests", &ctx, cost.is_unique, s.unique_tests);
        check_bound(
            "allocations + reuses",
            &ctx,
            cost.total_allocs(),
            s.allocations + s.reuses,
        );
    }
}

/// On a straight-line (non-recursive, first-order) program the bounds
/// must be *finite*, and the allocation bound tight enough to pin the
/// observed count between lo and hi.
#[test]
fn bounds_are_finite_and_tight_without_recursion() {
    let src = r#"
type pair { P(a: int, b: int) }
fun swap(p: pair): pair {
  match p { P(a, b) -> P(b, a) }
}
fun main(n: int): int {
  match swap(P(n, 2 * n)) { P(a, b) -> a - b }
}
"#;
    let cost = entry_cost(src, Strategy::Perceus);
    // No recursion, no closures: every worst case is finite.
    for (name, get) in perceus_core::analysis::cost::COST_FIELDS {
        assert!(
            !matches!(get(&cost).hi, Bound::Unbounded),
            "{name} must be finite on a straight-line program, got {}",
            get(&cost)
        );
    }
    let compiled = compile_workload(src, Strategy::Perceus).unwrap();
    let out = run_workload(&compiled, Strategy::Perceus, 7, RunConfig::default()).unwrap();
    // swap flips the pair: a = 2n, b = n, so main returns n.
    assert_eq!(out.value.to_string(), "7");
    let total = out.stats.allocations + out.stats.reuses;
    let iv = cost.total_allocs();
    assert!(iv.covers(total), "observed {total} vs {iv}");
    assert!(total >= 1, "the pair is heap-allocated");
}

/// The acceptance-criteria stage diff: on rbtree, L2 (unfused dup/drop)
/// is nonzero right after drop specialization and exactly zero after
/// fusion — the lint mirrors `passes::fuse`, so the final count is zero
/// by construction.
#[test]
fn l2_nonzero_before_fuse_zero_after_on_rbtree() {
    let src = perceus_suite::workload("rbtree").unwrap().source;
    let program = perceus_lang::compile_str(src).unwrap();
    let analyzed = Pipeline::new(Strategy::Perceus.pass_config())
        .analyze(program)
        .unwrap();
    let trend = analyzed.lint_trend(LintCode::UnfusedDupDrop);
    let at = |pass: PassName| {
        trend
            .iter()
            .find(|(p, _)| *p == pass)
            .map(|(_, n)| *n)
            .unwrap_or_else(|| panic!("{} stage missing", pass.label()))
    };
    assert!(
        at(PassName::DropSpec) > 0,
        "drop specialization leaves fusable pairs: {trend:?}"
    );
    assert_eq!(
        at(PassName::Fuse),
        0,
        "fusion must eliminate every fusable pair: {trend:?}"
    );
    // The final stage is the fuse stage under the full Perceus config.
    assert_eq!(analyzed.final_stage().pass, PassName::Fuse);
}

/// The same shape on `map` — the paper's running example — and the
/// whole trend is monotonically sensible: insertion creates the pairs,
/// fusion removes them.
#[test]
fn l2_stage_trend_on_map() {
    let src = perceus_suite::workload("map").unwrap().source;
    let program = perceus_lang::compile_str(src).unwrap();
    let analyzed = Pipeline::new(Strategy::Perceus.pass_config())
        .analyze(program)
        .unwrap();
    let trend = analyzed.lint_trend(LintCode::UnfusedDupDrop);
    // Pre-insertion stages have no dup/drop at all.
    for (pass, n) in &trend {
        if matches!(
            pass,
            PassName::Normalize | PassName::Inline | PassName::Reuse
        ) {
            assert_eq!(*n, 0, "no rc ops before insertion: {trend:?}");
        }
    }
    assert_eq!(
        trend.last().map(|(_, n)| *n),
        Some(0),
        "final stage must be fully fused: {trend:?}"
    );
}

/// Entry summaries bound a whole run, so a workload whose `main` can
/// only abort by fuel exhaustion reports `may_abort` consistently with
/// the machine's division/match-fallthrough reality — spot check that
/// the flag at least *exists* and the analyzer does not crash on every
/// registered workload at every stage.
#[test]
fn analyzer_runs_on_every_workload_at_every_stage() {
    for w in workloads() {
        for &strategy in Strategy::ALL.iter() {
            let program = perceus_lang::compile_str(w.source).unwrap();
            let analyzed = Pipeline::new(strategy.pass_config())
                .analyze(program)
                .unwrap();
            for stage in &analyzed.stages {
                assert!(
                    !stage.analysis.functions.is_empty(),
                    "{}: every function gets a summary",
                    w.name
                );
                let doc = json::parse(&stage.analysis.to_json()).unwrap();
                assert!(matches!(doc.get("functions"), Some(Json::Arr(fs)) if !fs.is_empty()));
            }
        }
    }
}
