//! Calls and instructions allocate nothing: the machine runs on one
//! value stack and reads operands in place, so the only global-allocator
//! calls inside a run are the heap's fresh block storage (one per
//! free-list miss) and the doublings of a handful of vectors.

use perceus_runtime::machine::{Machine, RunConfig};
use perceus_runtime::{ReclaimMode, Value};
use perceus_suite::{compile_workload, workload, Strategy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls made by this thread (tests run on threads of
    /// their own, so runs do not see each other's).
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is passed unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a `const`-initialised
// thread-local `Cell` with no destructor, so touching it neither
// allocates nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Vectors that grow by doubling during a run: the value stack, the
/// frame records, the operand buffer, the heap's slot table, its free
/// lists and its drop worklist. Measured: 63 calls over the misses for
/// `map`, 43 for `rbtree`.
const DOUBLINGS: u64 = 100;

fn allocator_calls_in_run(name: &str, n: i64) -> (u64, perceus_runtime::Stats) {
    let w = workload(name).expect("registered");
    let c = compile_workload(w.source, Strategy::Perceus).unwrap();
    let mut m = Machine::new(&c, ReclaimMode::Rc, RunConfig::default());
    let args = vec![Value::Int(n)];
    let before = CALLS.with(Cell::get);
    let v = m.run_entry(args).unwrap();
    let calls = CALLS.with(Cell::get) - before;
    m.drop_result(v).unwrap();
    assert_eq!(m.heap.live_blocks(), 0, "{name}");
    (calls, m.heap.stats)
}

/// `map` recurses once per list cell: 20 000 frames deep.
#[test]
fn deep_recursion_allocates_only_block_storage() {
    let (calls, st) = allocator_calls_in_run("map", 20_000);
    assert!(
        calls <= st.freelist_misses + DOUBLINGS,
        "{calls} allocator calls, {} free-list misses",
        st.freelist_misses
    );
}

/// `rbtree` makes ~150 000 calls and as many `Prim`/`Con` evaluations,
/// nearly all of which reuse a cell in place.
#[test]
fn reuse_heavy_run_allocates_only_block_storage() {
    let (calls, st) = allocator_calls_in_run("rbtree", 10_000);
    assert!(st.steps > 1_000_000, "{}", st.steps);
    assert!(
        calls <= st.freelist_misses + DOUBLINGS,
        "{calls} allocator calls, {} free-list misses",
        st.freelist_misses
    );
}
