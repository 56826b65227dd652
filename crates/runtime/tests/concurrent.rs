//! Real multi-threaded exercises of the shared segment (§2.7.2): many
//! threads hammering dup/drop on the same shared structure through
//! their own thread-local heaps, with the join-time garbage-free audit
//! over both segments afterwards.

use perceus_core::ir::CtorId;
use perceus_runtime::audit;
use perceus_runtime::heap::{BlockTag, Heap, ReclaimMode, SharedHeap, STICKY};
use perceus_runtime::value::Value;
use std::sync::Arc;

fn cell(h: &mut Heap, fields: Vec<Value>) -> Value {
    Value::Ref(h.alloc(BlockTag::Ctor(CtorId(0)), fields.into_boxed_slice()))
}

/// Builds a small list-like shared structure and hands back the frozen
/// segment plus the shared root, with `owners` references outstanding.
fn build_shared(owners: u32) -> (Arc<SharedHeap>, Value) {
    let mut builder = Heap::new(ReclaimMode::Rc);
    let mut seg = SharedHeap::new();
    let mut v = cell(&mut builder, vec![Value::Int(0)]);
    for i in 1..16 {
        v = cell(&mut builder, vec![Value::Int(i), v]);
    }
    let shared = builder.mark_shared(v, &mut seg).unwrap();
    assert_eq!(builder.live_blocks(), 0, "builder heap drained by the move");
    seg.retain(shared, owners - 1).unwrap();
    (Arc::new(seg), shared)
}

#[test]
fn contended_dup_drop_keeps_counts_exact() {
    const THREADS: u32 = 8;
    const ITERS: u64 = 2_000;
    let (seg, shared) = build_shared(THREADS);
    let total_atomics: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let seg = seg.clone();
                s.spawn(move || {
                    let mut h = Heap::new(ReclaimMode::Rc);
                    h.attach_shared(seg);
                    for _ in 0..ITERS {
                        h.dup(shared).unwrap();
                        h.drop_value(shared).unwrap();
                    }
                    // Consume this thread's own reference last.
                    h.drop_value(shared).unwrap();
                    h.stats.atomic_ops
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    // Every dup/drop paid a real RMW; the final 16-block teardown and
    // the per-thread root drops add more.
    assert!(total_atomics >= THREADS as u64 * ITERS * 2);
    assert_eq!(seg.live_blocks(), 0, "all references consumed");
    let report = audit::check_shared_at_join(&seg).unwrap();
    assert_eq!(report.live_blocks, 0);
    assert_eq!(report.freed_blocks, 16);
}

#[test]
fn exactly_one_thread_wins_the_closing_cas() {
    // All threads drop their reference simultaneously; the 16-block
    // spine must be freed exactly once (double frees would show up as
    // use-after-free errors or a negative live gauge).
    const THREADS: u32 = 8;
    for _ in 0..50 {
        let (seg, shared) = build_shared(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let seg = seg.clone();
                s.spawn(move || {
                    let mut h = Heap::new(ReclaimMode::Rc);
                    h.attach_shared(seg);
                    h.drop_value(shared).unwrap();
                });
            }
        });
        assert_eq!(seg.live_blocks(), 0);
        audit::check_shared_at_join(&seg).unwrap();
    }
}

#[test]
fn local_blocks_stay_on_the_non_atomic_fast_path() {
    // A worker doing purely local work next to an attached segment
    // must never pay an atomic: the fast path of §2.7.2.
    let (seg, shared) = build_shared(1);
    let mut h = Heap::new(ReclaimMode::Rc);
    h.attach_shared(seg.clone());
    let local = cell(&mut h, vec![Value::Int(9)]);
    for _ in 0..100 {
        h.dup(local).unwrap();
        h.drop_value(local).unwrap();
    }
    assert_eq!(h.stats.atomic_ops, 0, "local traffic is non-atomic");
    h.drop_value(local).unwrap();
    h.drop_value(shared).unwrap();
    assert!(h.stats.atomic_ops > 0, "the shared teardown was atomic");
}

#[test]
fn pinned_shared_blocks_survive_concurrent_drops() {
    let mut builder = Heap::new(ReclaimMode::Rc);
    let mut seg = SharedHeap::new();
    let v = cell(&mut builder, vec![Value::Int(5)]);
    let Value::Ref(addr) = v else { panic!() };
    *builder.header_mut(addr).unwrap() = STICKY;
    let shared = builder.mark_shared(v, &mut seg).unwrap();
    let seg = Arc::new(seg);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let seg = seg.clone();
            s.spawn(move || {
                let mut h = Heap::new(ReclaimMode::Rc);
                h.attach_shared(seg);
                for _ in 0..1_000 {
                    h.drop_value(shared).unwrap();
                }
                // Pinned headers never RMW: drops on them are free.
                assert_eq!(h.stats.atomic_ops, 0);
            });
        }
    });
    assert_eq!(seg.live_blocks(), 1, "pinned block never freed");
    let report = audit::check_shared_at_join(&seg).unwrap();
    assert_eq!(report.pinned_blocks, 1);
}

/// The closing CAS races epoch retirement and reclamation: droppers
/// release their references while a pinned reader walks the structure
/// through guard-protected views (zero RMWs) and a dedicated thread
/// hammers [`SharedHeap::try_reclaim`] the whole time. The pins must
/// keep every viewed block's storage valid; once the world quiesces,
/// every slot must have been freed exactly once and physically
/// reclaimed.
#[test]
fn epoch_reclaim_races_the_closing_cas() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const DROPPERS: u32 = 6;
    for _ in 0..20 {
        let (seg, shared) = build_shared(DROPPERS + 1);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let reclaimer_seg = seg.clone();
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    reclaimer_seg.try_reclaim();
                    std::hint::spin_loop();
                }
            });
            for _ in 0..DROPPERS {
                let seg = seg.clone();
                s.spawn(move || {
                    let mut h = Heap::new(ReclaimMode::Rc);
                    h.attach_shared(seg);
                    h.drop_value(shared).unwrap();
                });
            }
            let reader_seg = seg.clone();
            let reader = s.spawn(move || {
                let mut h = Heap::new(ReclaimMode::Rc);
                h.attach_shared(reader_seg);
                for _ in 0..200 {
                    // Walk the whole spine through views: the reader's
                    // reference keeps it live, the epoch pin keeps the
                    // storage valid against the concurrent reclaimer.
                    let mut v = shared;
                    let mut expect = 15;
                    while let Value::Ref(a) = v {
                        let view = h.view(a).unwrap();
                        assert_eq!(view.fields[0].value(), Value::Int(expect));
                        v = view.fields.get(1).map_or(Value::Unit, |f| f.value());
                        expect -= 1;
                    }
                    assert_eq!(expect, -1, "walked all 16 cells");
                }
                assert_eq!(h.stats.atomic_ops, 0, "views are RMW-free");
                // Release the reader's reference: whoever drops last
                // wins the closing CAS and retires the whole spine
                // while the reclaimer is still running.
                h.drop_value(shared).unwrap();
            });
            reader.join().unwrap();
            stop.store(true, Ordering::Relaxed);
        });
        seg.try_reclaim();
        assert_eq!(seg.live_blocks(), 0);
        let report = audit::check_shared_at_join(&seg).unwrap();
        assert_eq!(report.freed_blocks, 16, "each cell freed exactly once");
        assert_eq!(seg.reclaimed().0, 16, "all storage physically reclaimed");
    }
}

/// Weak upgrades race the death of their target: every racer sees
/// either a successful upgrade (a real strong reference it must then
/// drop) or a deterministic `None` — never garbage, never a panic —
/// and once the block is dead every subsequent upgrade returns `None`.
#[test]
fn weak_upgrade_after_free_is_deterministic() {
    use perceus_runtime::heap::BlockTag;
    const RACERS: u32 = 8;
    for _ in 0..20 {
        let mut seg = SharedHeap::new();
        let a = seg.alloc(
            BlockTag::Ctor(CtorId(0)),
            vec![Value::Int(7)].into_boxed_slice(),
            1,
        );
        let weak = seg.downgrade(a).unwrap();
        let strong = Value::Ref(a);
        let seg = Arc::new(seg);
        std::thread::scope(|s| {
            // One thread drops the only strong reference...
            let dropper_seg = seg.clone();
            s.spawn(move || {
                let mut h = Heap::new(ReclaimMode::Rc);
                h.attach_shared(dropper_seg);
                h.drop_value(strong).unwrap();
            });
            // ...while the racers upgrade the weak reference.
            for _ in 0..RACERS {
                let seg = seg.clone();
                s.spawn(move || {
                    let mut h = Heap::new(ReclaimMode::Rc);
                    h.attach_shared(seg);
                    for _ in 0..100 {
                        if let Some(v) = h.upgrade_weak(weak).unwrap() {
                            // A successful upgrade is a real strong
                            // reference: the field is readable and
                            // the reference must be released.
                            let Value::Ref(a) = v else { panic!() };
                            assert_eq!(h.view(a).unwrap().fields[0].value(), Value::Int(7));
                            h.drop_value(v).unwrap();
                        }
                    }
                });
            }
        });
        // The block is dead; upgrades fail deterministically forever.
        let mut h = Heap::new(ReclaimMode::Rc);
        h.attach_shared(seg.clone());
        for _ in 0..10 {
            assert_eq!(h.upgrade_weak(weak).unwrap(), None);
        }
        h.drop_value(weak).unwrap();
        drop(h);
        assert_eq!(seg.live_blocks(), 0);
        let report = audit::check_shared_at_join(&seg).unwrap();
        assert_eq!(report.freed_blocks, 1);
        assert_eq!(report.weak_refs, 0, "the probe weak was released");
        assert_eq!(
            seg.reclaimed().0,
            1,
            "storage reclaimed before segment drop"
        );
    }
}

/// The §2.7.3 cycle demonstration, made reclaimable: a ring with
/// strong forward edges and a weak back edge. Plain reference counting
/// would leak a strong ring forever; with the back edge weak, dropping
/// the external root cascades through the whole ring, the weak edge
/// confers no liveness, and every slot is freed and reclaimed — the
/// garbage-free audit passes over the drained segment.
#[test]
fn cyclic_structure_with_weak_back_edge_reclaims() {
    use perceus_runtime::heap::BlockTag;
    let tag = BlockTag::Ctor(CtorId(0));
    let mut seg = SharedHeap::new();
    // Three nodes: [payload, next, back]. Forward edges are strong,
    // the ring-closing back edge (n2 -> n0) is weak.
    let n0 = seg.alloc(tag, vec![Value::Int(0), Value::Unit, Value::Unit].into(), 1);
    let n1 = seg.alloc(tag, vec![Value::Int(1), Value::Unit, Value::Unit].into(), 1);
    let n2 = seg.alloc(tag, vec![Value::Int(2), Value::Unit, Value::Unit].into(), 1);
    seg.link(n0, 1, Value::Ref(n1)).unwrap();
    seg.link(n1, 1, Value::Ref(n2)).unwrap();
    let back = seg.downgrade(n0).unwrap();
    seg.link(n2, 2, back).unwrap();
    // An external probe into the ring, to interrogate it after death.
    let probe = seg.downgrade(n1).unwrap();
    let seg = Arc::new(seg);

    let mut h = Heap::new(ReclaimMode::Rc);
    h.attach_shared(seg.clone());
    // The ring is alive and navigable: n0 -> n1 -> n2 -~> n0.
    assert_eq!(h.view(n2).unwrap().fields[0].value(), Value::Int(2));
    let upgraded = h.upgrade_weak(probe).unwrap().expect("ring is live");
    h.drop_value(upgraded).unwrap();

    // Drop the only external strong reference: the cascade must free
    // the entire ring — the weak back edge confers no liveness.
    h.drop_value(Value::Ref(n0)).unwrap();
    assert_eq!(seg.live_blocks(), 0, "the ring is garbage and was freed");
    assert_eq!(h.upgrade_weak(probe).unwrap(), None, "the ring is dead");
    h.drop_value(probe).unwrap();
    drop(h); // detach: unpin and reclaim retired slots
    assert_eq!(seg.reclaimed().0, 3, "all three nodes physically reclaimed");
    let report = audit::check_shared_at_join(&seg).unwrap();
    assert_eq!(report.live_blocks, 0);
    assert_eq!(report.freed_blocks, 3);
    assert_eq!(report.weak_refs, 0);
    assert_eq!(report.reclaimed_blocks, 3);
}

#[test]
fn worker_audits_tolerate_shared_references_mid_run() {
    // A worker holding shared data inside local blocks passes the
    // in-flight heap audit (reachability crosses the segment boundary).
    let (seg, shared) = build_shared(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            let seg = seg.clone();
            s.spawn(move || {
                let mut h = Heap::new(ReclaimMode::Rc);
                h.attach_shared(seg);
                let holder = cell(&mut h, vec![shared]);
                let Value::Ref(root) = holder else { panic!() };
                let report = audit::check_heap(&h, &[root]).unwrap();
                assert_eq!(report.live_blocks, 1);
                h.drop_value(holder).unwrap();
                assert_eq!(h.live_blocks(), 0);
            });
        }
    });
    assert_eq!(seg.live_blocks(), 0);
}
