//! Driver-level features: custom GC policies and pipeline determinism.

use perceus_core::passes::{PassConfig, Pipeline};
use perceus_runtime::machine::RunConfig;
use perceus_suite::{compile_workload, run_workload, workload, Strategy};

/// The pass pipeline is deterministic: compiling the same program twice
/// yields structurally identical functions.
#[test]
fn pipeline_is_deterministic() {
    let src = workload("rbtree").unwrap().source;
    let run = || {
        let p = perceus_lang::compile_str(src).unwrap();
        let p = Pipeline::new(PassConfig::perceus()).run(p).unwrap();
        perceus_core::ir::pretty::program_to_string(&p)
    };
    assert_eq!(run(), run());
}

/// GC policy knobs are honored: a tiny threshold collects often, a
/// huge one never does.
#[test]
fn gc_policy_is_respected() {
    let w = workload("rbtree").unwrap();
    let c = compile_workload(w.source, Strategy::Gc).unwrap();
    let eager = run_workload(
        &c,
        Strategy::Gc,
        500,
        RunConfig::new().with_gc(Some(perceus_runtime::gc::GcConfig {
            initial_threshold: 64,
            growth_factor: 1.2,
        })),
    )
    .unwrap();
    let lazy = run_workload(
        &c,
        Strategy::Gc,
        500,
        RunConfig::new().with_gc(Some(perceus_runtime::gc::GcConfig {
            initial_threshold: 1 << 30,
            growth_factor: 2.0,
        })),
    )
    .unwrap();
    assert!(eager.stats.gc_collections > 0);
    assert_eq!(lazy.stats.gc_collections, 0);
    assert_eq!(eager.value, lazy.value);
    assert!(eager.stats.peak_live_words < lazy.stats.peak_live_words);
}

/// Strategy metadata is complete and self-consistent.
#[test]
fn strategy_metadata() {
    for s in Strategy::ALL {
        assert!(!s.label().is_empty());
        assert!(!s.paper_column().is_empty());
        assert_eq!(
            s.is_rc(),
            s.reclaim_mode() == perceus_runtime::ReclaimMode::Rc
        );
    }
}
