//! The heap primitives timed one at a time: the six loops of
//! `crates/bench/benches/heap_ops.rs` plus `Heap::reset` and
//! `audit::check_heap` on a just-reset heap (what a serve worker pays
//! between sessions).
//!
//! The vendored criterion shim is not statistical, so these are
//! min-of-batches timers: a batch is many iterations timed as one, and
//! the smallest batch is the primitive's cost with the least
//! interference (a neighbour can only add time).

use crate::report::Outcome;
use crate::stats::min;
use perceus_core::ir::CtorId;
use perceus_runtime::audit;
use perceus_runtime::heap::{BlockTag, Heap, HeapConfig, ReclaimMode};
use perceus_runtime::Value;
use std::hint::black_box;
use std::time::Instant;

pub const BATCHES: usize = 15;
const ITERS: usize = 20_000;

/// Nanoseconds per iteration of `f`: the smallest of `BATCHES` batches
/// of `iters` iterations each, after one warm-up batch.
pub fn min_of_batches(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut batch = || {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed().as_nanos() as f64 / iters as f64
    };
    batch();
    let samples: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    min(&samples)
}

const CTOR: BlockTag = BlockTag::Ctor(CtorId(2));

pub fn measure(out: &mut Outcome) {
    let mut put = |name: &str, ns: f64, unit: &'static str| out.put(name, ns, unit, BATCHES);

    {
        let mut h = Heap::new(ReclaimMode::Rc);
        let v = Value::Ref(h.alloc(CTOR, Box::new([Value::Int(1)])));
        let ns = min_of_batches(ITERS, || {
            h.dup(black_box(v)).unwrap();
            h.drop_value(black_box(v)).unwrap();
        });
        put("heap.dup_drop_ns", ns, "ns");
    }
    {
        // The negative-header slow path of §2.7.2 on a local block.
        let mut h = Heap::new(ReclaimMode::Rc);
        let v = Value::Ref(h.alloc(CTOR, Box::new([Value::Int(1)])));
        h.tshare(v).unwrap();
        let ns = min_of_batches(ITERS, || {
            h.dup(black_box(v)).unwrap();
            h.drop_value(black_box(v)).unwrap();
        });
        put("heap.tshare_dup_drop_ns", ns, "ns");
    }
    {
        // After the first iteration every alloc is a free-list hit.
        let mut h = Heap::new(ReclaimMode::Rc);
        let ns = min_of_batches(ITERS, || {
            let a = h.alloc_slice(CTOR, &[black_box(Value::Int(1)), Value::Unit]);
            h.drop_value(Value::Ref(a)).unwrap();
        });
        put("heap.alloc_drop_ns", ns, "ns");
    }
    {
        // Recycling off: every alloc boxes fresh storage, every free
        // returns it to the global allocator.
        let mut h = Heap::with_config(
            ReclaimMode::Rc,
            HeapConfig {
                recycle: false,
                ..HeapConfig::default()
            },
        );
        let ns = min_of_batches(ITERS, || {
            let a = h.alloc_slice(CTOR, &[black_box(Value::Int(1)), Value::Unit]);
            h.drop_value(Value::Ref(a)).unwrap();
        });
        put("heap.alloc_drop_malloc_ns", ns, "ns");
    }
    {
        let mut h = Heap::new(ReclaimMode::Rc);
        let mut a = h.alloc(CTOR, Box::new([Value::Int(1), Value::Unit]));
        let ns = min_of_batches(ITERS, || {
            let Value::Token(Some(t)) = h.drop_reuse(Value::Ref(a)).unwrap() else {
                unreachable!("a unique cell always yields its token")
            };
            a = h
                .alloc_into(t, CtorId(2), &[black_box(Value::Int(2)), Value::Unit], &[])
                .unwrap();
        });
        put("heap.reuse_roundtrip_ns", ns, "ns");
    }
    {
        let mut h = Heap::new(ReclaimMode::Rc);
        let v = Value::Ref(h.alloc(CTOR, Box::new([Value::Int(1)])));
        let ns = min_of_batches(ITERS, || {
            black_box(h.is_unique(black_box(v)).unwrap());
        });
        put("heap.is_unique_ns", ns, "ns");
    }
    {
        // A worker's heap after a session of ~1 k steps: a few hundred
        // slots, all on the free lists. Reset and audit are what the
        // worker pays before the next tenant.
        let mut h = Heap::new(ReclaimMode::Rc);
        let cells: Vec<_> = (0..256)
            .map(|i| h.alloc_slice(CTOR, &[Value::Int(i), Value::Unit]))
            .collect();
        for a in cells {
            h.drop_value(Value::Ref(a)).unwrap();
        }
        let ns = min_of_batches(ITERS / 10, || {
            black_box(h.reset());
        });
        put("heap.reset_us", ns / 1e3, "us");
        let ns = min_of_batches(ITERS / 10, || {
            black_box(audit::check_heap(&h, &[]).is_ok());
        });
        put("heap.audit_us", ns / 1e3, "us");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_primitive_reports_a_positive_time() {
        let mut out = Outcome::default();
        measure(&mut out);
        assert_eq!(out.metrics.len(), 8);
        for m in &out.metrics {
            assert!(m.value > 0.0, "{} = {}", m.name, m.value);
        }
    }

    #[test]
    fn batch_time_grows_with_the_work() {
        // black_box is a hint: confirm the loop body was not deleted.
        let mut h = Heap::new(ReclaimMode::Rc);
        let v = Value::Ref(h.alloc(CTOR, Box::new([Value::Int(1)])));
        let one = min_of_batches(2_000, || {
            h.dup(black_box(v)).unwrap();
            h.drop_value(black_box(v)).unwrap();
        });
        let four = min_of_batches(2_000, || {
            for _ in 0..4 {
                h.dup(black_box(v)).unwrap();
                h.drop_value(black_box(v)).unwrap();
            }
        });
        assert!(four > 2.0 * one, "{four} vs {one}");
    }
}
