//! Calls, instructions and blocks allocate nothing: the machine runs
//! on one value stack and reads operands in place, and the heap keeps
//! every block's fields in one arena, so the only global-allocator
//! calls inside a run are the doublings of a handful of vectors. The
//! backend lowers core IR straight into those vectors' compile-time
//! counterparts, so `code::compile` allocates little more than they do.

use perceus_core::passes::Pipeline;
use perceus_runtime::machine::{Machine, RunConfig};
use perceus_runtime::{code, ReclaimMode, Value};
use perceus_suite::{compile_workload, workload, workloads, Strategy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls made by this thread (tests run on threads of
    /// their own, so runs do not see each other's).
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for (a `realloc` counts its growth).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is passed unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a `const`-initialised
// thread-local `Cell` with no destructor (as is the byte counter), so
// touching it neither allocates nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + new_size.saturating_sub(layout.size()) as u64));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Vectors that grow by doubling during a run: the value stack, the
/// frame records, the operand buffer, the heap's header table, its
/// field arena, its free lists and its drop worklist. Measured:
/// 78 calls for `map`, 58 for `rbtree`.
const DOUBLINGS: u64 = 100;

struct Run {
    calls: u64,
    bytes: u64,
    stats: perceus_runtime::Stats,
}

fn allocator_calls_in_run(name: &str, n: i64) -> Run {
    let w = workload(name).expect("registered");
    let c = compile_workload(w.source, Strategy::Perceus).unwrap();
    let mut m = Machine::new(&c, ReclaimMode::Rc, RunConfig::default());
    let args = vec![Value::Int(n)];
    let before = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    let v = m.run_entry(args).unwrap();
    let calls = CALLS.with(Cell::get) - before.0;
    let bytes = BYTES.with(Cell::get) - before.1;
    m.drop_result(v).unwrap();
    assert_eq!(m.heap.live_blocks(), 0, "{name}");
    Run {
        calls,
        bytes,
        stats: m.heap.stats,
    }
}

/// `map` recurses once per list cell: 20 000 frames deep.
#[test]
fn deep_recursion_allocates_only_block_storage() {
    let run = allocator_calls_in_run("map", 20_000);
    assert!(run.stats.freelist_misses >= 20_000, "every cell is fresh");
    assert!(run.calls <= DOUBLINGS, "{} allocator calls", run.calls);
    // With a `Box<[Value]>` per block the same run made 20 063 calls
    // for 7 324 768 bytes; it now asks for 6 946 912 (95 %), of which
    // 4 587 520 are the value stack's and the frame records' capacity,
    // which the block layout does not touch.
    assert!(run.bytes <= 7_000_000, "{} bytes requested", run.bytes);
}

/// `rbtree` makes ~150 000 calls and as many `Prim`/`Con` evaluations,
/// nearly all of which reuse a cell in place.
#[test]
fn reuse_heavy_run_allocates_only_block_storage() {
    let run = allocator_calls_in_run("rbtree", 10_000);
    assert!(run.stats.steps > 1_000_000, "{}", run.stats.steps);
    assert!(
        run.stats.freelist_misses >= 10_000,
        "one fresh node per key"
    );
    assert!(run.calls <= DOUBLINGS, "{} allocator calls", run.calls);
}

/// `code::compile` over the 13 suite programs under perceus, no-opt and
/// scoped. When it built a boxed tree per body and flattened that, the
/// 39 compiles made 18 797 allocator calls for 1 579 304 bytes; in one
/// walk they make 1 885 calls for 545 900 bytes — the tables of `Code`
/// as they grow, the type table's copy and one slot map.
#[test]
fn lowering_allocates_little_beyond_the_code_tables() {
    let (mut calls, mut bytes) = (0, 0);
    for w in workloads() {
        let lowered = perceus_lang::compile_str(w.source).unwrap();
        for strategy in [Strategy::Perceus, Strategy::PerceusNoOpt, Strategy::Scoped] {
            let p = Pipeline::new(strategy.pass_config())
                .run(lowered.clone())
                .unwrap();
            let before = (CALLS.with(Cell::get), BYTES.with(Cell::get));
            let c = code::compile(&p);
            calls += CALLS.with(Cell::get) - before.0;
            bytes += BYTES.with(Cell::get) - before.1;
            assert!(c.is_ok(), "{} under {}", w.name, strategy.label());
        }
    }
    assert!(calls <= 18_797 / 3, "{calls} allocator calls");
    assert!(bytes <= 1_579_304 / 2, "{bytes} bytes requested");
}
