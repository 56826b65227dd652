//! Microbenchmarks of the heap primitives — the per-operation costs
//! that §2 argues dominate reference counting ("the cost of reference
//! counting is linear in the number of reference counting operations").
//! These quantify the fast/slow path split of §2.7.2 and the benefit of
//! building into a reuse token versus a fresh allocation.

use criterion::{criterion_group, criterion_main, Criterion};
use perceus_core::ir::CtorId;
use perceus_runtime::heap::{BlockTag, Heap, HeapConfig, ReclaimMode};
use perceus_runtime::Value;
use std::hint::black_box;

fn heap_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("heap");

    group.bench_function("dup+drop (fast path)", |b| {
        let mut h = Heap::new(ReclaimMode::Rc);
        let a = h.alloc(BlockTag::Ctor(CtorId(2)), Box::new([Value::Int(1)]));
        let v = Value::Ref(a);
        b.iter(|| {
            h.dup(black_box(v)).unwrap();
            h.drop_value(black_box(v)).unwrap();
        });
    });

    group.bench_function("dup+drop (thread-shared slow path)", |b| {
        let mut h = Heap::new(ReclaimMode::Rc);
        let a = h.alloc(BlockTag::Ctor(CtorId(2)), Box::new([Value::Int(1)]));
        h.tshare(Value::Ref(a)).unwrap();
        let v = Value::Ref(a);
        b.iter(|| {
            h.dup(black_box(v)).unwrap();
            h.drop_value(black_box(v)).unwrap();
        });
    });

    group.bench_function("alloc+drop (free-list recycled)", |b| {
        // Default heap: after the first iteration every alloc is a
        // free-list hit — the steady state of a hot allocation loop.
        let mut h = Heap::new(ReclaimMode::Rc);
        b.iter(|| {
            let a = h.alloc_slice(
                BlockTag::Ctor(CtorId(2)),
                &[black_box(Value::Int(1)), Value::Unit],
            );
            h.drop_value(Value::Ref(a)).unwrap();
        });
    });

    group.bench_function("alloc+drop (bump only, recycling off)", |b| {
        // Recycling off: every alloc bumps the arena and a vacated
        // header is never relisted.
        let mut h = Heap::with_config(
            ReclaimMode::Rc,
            HeapConfig {
                recycle: false,
                ..HeapConfig::default()
            },
        );
        b.iter(|| {
            let a = h.alloc_slice(
                BlockTag::Ctor(CtorId(2)),
                &[black_box(Value::Int(1)), Value::Unit],
            );
            h.drop_value(Value::Ref(a)).unwrap();
        });
    });

    group.bench_function("reuse roundtrip (drop-reuse + build-into)", |b| {
        let mut h = Heap::new(ReclaimMode::Rc);
        let mut a = h.alloc(
            BlockTag::Ctor(CtorId(2)),
            Box::new([Value::Int(1), Value::Unit]),
        );
        b.iter(|| {
            let tok = h.drop_reuse(Value::Ref(a)).unwrap();
            let Value::Token(Some(t)) = tok else {
                unreachable!()
            };
            a = h
                .alloc_into(t, CtorId(2), &[black_box(Value::Int(2)), Value::Unit], &[])
                .unwrap();
        });
    });

    group.bench_function("is-unique test", |b| {
        let mut h = Heap::new(ReclaimMode::Rc);
        let a = h.alloc(BlockTag::Ctor(CtorId(2)), Box::new([Value::Int(1)]));
        let v = Value::Ref(a);
        b.iter(|| h.is_unique(black_box(v)).unwrap());
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = heap_ops
}
criterion_main!(benches);
