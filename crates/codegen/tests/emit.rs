//! Unit tests of the emitter's translation decisions: reuse-token
//! placement, skip masks, drop-specialization arms, tail loops, and
//! the rejection paths. These inspect the emitted *text*; the e2e
//! differential tests (`tests/native_exec.rs`) prove the behaviour.

use perceus_codegen::{emit_batch, emit_module, NativeError};
use perceus_suite::{compile_workload, workload, Strategy};

fn emit_as(name: &str, strategy: Strategy) -> String {
    let w = workload(name).expect("registered workload");
    let compiled = compile_workload(w.source, strategy).expect("compiles");
    emit_module(0, name, &compiled).expect("emits")
}

fn emit(name: &str) -> String {
    emit_as(name, Strategy::Perceus)
}

/// Reuse tokens (§2.4) survive into the generated code: the paired
/// constructor becomes a three-arm match on the token — `alloc_into`
/// when a cell was reclaimed, a fresh allocation when the token is
/// null, an error on a non-token value. Under full Perceus, drop
/// specialization turns the drop site into `is_unique`/`claim`
/// branches; with reuse on but drop specialization off, the raw
/// `DropReuse` instruction survives and must lower to `drop_reuse`.
#[test]
fn reuse_tokens_are_emitted() {
    let src = emit("map");
    assert!(
        src.contains("rt.heap.claim("),
        "specialized token claim:\n{src}"
    );
    assert!(src.contains("rt.heap.alloc_into("), "reuse alloc:\n{src}");
    assert!(
        src.contains("Value::Token(None) =>"),
        "null-token fallback to a fresh allocation:\n{src}"
    );
    assert!(
        src.contains("RuntimeError::bad_reuse_token(other)"),
        "non-token rejection arm:\n{src}"
    );

    let config =
        perceus_core::passes::PassConfig::for_strategy(perceus_core::passes::RcStrategy::Perceus)
            .with_drop_spec(false);
    let w = workload("map").unwrap();
    let compiled = perceus_suite::compile_with_config(w.source, config).unwrap();
    let unspecialized = emit_module(0, "map", &compiled).unwrap();
    assert!(
        unspecialized.contains("rt.heap.drop_reuse("),
        "unspecialized DropReuse lowers to drop_reuse:\n{unspecialized}"
    );
}

/// Reuse *specialization* (§2.5) skip masks become static tables passed
/// to `alloc_into`, so the native executor skips (and counts) exactly
/// the same field writes as the machine.
#[test]
fn skip_masks_become_static_tables() {
    let src = emit("rbtree");
    assert!(
        src.contains("static SKIP_0: [bool;"),
        "deduplicated skip mask statics:\n{src}"
    );
    assert!(
        src.contains("&SKIP_0)?"),
        "mask passed to alloc_into:\n{src}"
    );
}

/// Drop specialization lowers `drop` into `IsUnique`/`Free`/`DecRef`
/// arms; each becomes the matching direct heap call so the counter
/// stream (`unique_tests`, `frees`, `decrefs`) is preserved.
#[test]
fn drop_specialization_arms_are_direct_heap_calls() {
    let src = emit("exn");
    assert!(src.contains("rt.heap.is_unique("), "IsUnique test:\n{src}");
    assert!(src.contains("rt.heap.free_cell("), "Free arm:\n{src}");
    assert!(src.contains("rt.heap.decref("), "DecRef arm:\n{src}");
}

/// Self-tail-calls compile to a `'tail` loop (env reset + continue),
/// not a Rust call — recursion depth stays O(1) where the machine's
/// frame replacement does the same.
#[test]
fn self_tail_calls_loop() {
    let src = emit("map");
    assert!(src.contains("'tail: loop {"), "loop header:\n{src}");
    assert!(src.contains("continue 'tail;"), "tail jump:\n{src}");
}

/// A program with no entry point cannot be an executor.
#[test]
fn missing_entry_is_rejected() {
    let w = workload("map").unwrap();
    let mut compiled = compile_workload(w.source, Strategy::Perceus).unwrap();
    compiled.entry = None;
    let err = emit_module(0, "map", &compiled).unwrap_err();
    assert!(matches!(err, NativeError::Emit(_)), "{err}");
    assert!(err.to_string().contains("entry"), "{err}");
}

/// Batch emission dispatches by name, so duplicates are ambiguous.
#[test]
fn duplicate_names_are_rejected() {
    let w = workload("map").unwrap();
    let compiled = compile_workload(w.source, Strategy::Perceus).unwrap();
    let err =
        emit_batch(&[("m".to_string(), &compiled), ("m".to_string(), &compiled)]).unwrap_err();
    assert!(err.to_string().contains("duplicate"), "{err}");
}
