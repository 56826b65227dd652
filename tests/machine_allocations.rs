//! Calls, instructions and blocks allocate nothing: the machine runs
//! on one value stack and reads operands in place, and the heap keeps
//! every block's fields in one arena, so the only global-allocator
//! calls inside a run are the doublings of a handful of vectors. The
//! backend lowers core IR straight into those vectors' compile-time
//! counterparts, so `code::compile` allocates little more than they do.
//! Perceus insertion rewrites each body in place and allocates the
//! instructions it inserts plus side arrays linear in the body, and the
//! checks and the passes that ask about free variables allocate side
//! arrays linear in the body too. The front end allocates its trees and
//! a few tables per program, names once each.

use perceus_core::check::check_program;
use perceus_core::ir::wf;
use perceus_core::passes::{drop_spec, insert, reuse, PassName, Pipeline};
use perceus_core::Program;
use perceus_runtime::machine::{Machine, RunConfig};
use perceus_runtime::{code, ReclaimMode, Value};
use perceus_suite::{compile_workload, workload, workloads, Strategy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write;

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
/// field arena and its drop worklist (the free lists are threaded
/// through dead headers and grow nothing). Measured: 34 calls for
/// `map`, 42 for `rbtree`; 78 and 58 when each block was a boxed slice
/// and the free lists were vectors.
const DOUBLINGS: u64 = 100;

struct Run {
    calls: u64,
    bytes: u64,
    stats: perceus_runtime::Stats,
}

fn allocator_calls_in_run(name: &str, n: i64) -> Run {
    let w = workload(name).expect("registered");
    allocator_calls_in_source(w.source, n)
}

fn allocator_calls_in_source(src: &str, n: i64) -> Run {
    let c = compile_workload(src, Strategy::Perceus).unwrap();
    let mut m = Machine::new(&c, ReclaimMode::Rc, RunConfig::default());
    let args = vec![Value::Int(n)];
    let before = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    let v = m.run_entry(args).unwrap();
    let calls = CALLS.with(Cell::get) - before.0;
    let bytes = BYTES.with(Cell::get) - before.1;
    m.drop_result(v).unwrap();
    assert_eq!(m.heap.live_blocks(), 0, "{src}");
    Run {
        calls,
        bytes,
        stats: m.heap.stats,
    }
}

/// `len` recurses once per list cell, under `+`: 20 000 frames deep.
/// (`build` is a loop, tail recursion modulo cons.)
#[test]
fn deep_recursion_allocates_only_block_storage() {
    let src = "type list<a> { Nil; Cons(head: a, tail: list<a>) }
        fun build(i: int, n: int): list<int> {
          if i >= n then Nil else Cons(i, build(i + 1, n))
        }
        fun len(xs: list<int>): int {
          match xs {
            Cons(_, xx) -> 1 + len(xx)
            Nil -> 0
          }
        }
        fun main(n: int): int { len(build(0, n)) }";
    let run = allocator_calls_in_source(src, 20_000);
    assert!(run.stats.freelist_misses >= 20_000, "every cell is fresh");
    assert!(run.calls <= DOUBLINGS, "{} allocator calls", run.calls);
    // With a `Box<[Value]>` per block, `map` at 20 000 (then a
    // recursion, not a loop) made 20 063 calls for 7 324 768 bytes,
    // and with slots numbered per scope 6 946 912, of which the value
    // stack's capacity was 4 194 304 (7-slot frames). Packed by
    // liveness, `map`'s frame is 4 slots: the stack's capacity was
    // 2 097 152 and the run asked for 4 849 760 (77 calls). A pending
    // call keeps only the 3 slots live across it, and leaves one 8-byte
    // frame record where a call and a compound right-hand side left two
    // of 12: the stack's capacity is 1 048 576, the records' 262 144, and
    // the run asks for 3 276 896 (75 calls). Storing each field as a
    // 9-byte packed `Field` instead of a 16-byte `Value` shrinks the
    // arena's doublings: the run asks for 2 818 144 (75 calls). `len`
    // keeps no slot across its call, so the same list and 20 000 frames
    // ask for 1 769 648 (60 calls): `map`'s block storage below, and
    // 262 144 of frame records. With 16-byte headers and the free
    // lists threaded through dead headers, 1 376 432 (46 calls).
    assert!(run.bytes <= 1_380_000, "{} bytes requested", run.bytes);
}

/// `build` and `map` are loops (tail recursion modulo cons): `map` at
/// 20 000 keeps no frame per cell, so what the run asks for is block
/// storage. The value stack's capacity does not depend on the length
/// (`machine`'s unit test pins that).
#[test]
fn constructor_recursion_allocates_only_block_storage() {
    let run = allocator_calls_in_run("map", 20_000);
    assert!(run.stats.freelist_misses >= 20_000, "every cell is fresh");
    assert!(run.calls <= DOUBLINGS, "{} allocator calls", run.calls);
    // The run asks for 1 114 352 bytes (34 calls): the header table's
    // 524 288 (32 768 headers of 16 bytes) and the field arena's 589 824
    // (65 536 fields of 9 bytes), and 240 bytes for everything else.
    // With 24-byte headers and a `Vec<u32>` per free list it asked for
    // 1 507 584 (49 calls), 786 432 of them headers and 131 072 the
    // list; as a recursion, 2 818 144, 1 310 720 of them for frames.
    assert!(run.bytes <= 1_120_000, "{} bytes requested", run.bytes);
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
    // The run asks for 1 010 032 bytes (42 calls), almost all of it the
    // header table and the field arena. With 24-byte headers and a
    // `Vec<u32>` per free list it asked for 1 206 640 (55 calls).
    assert!(run.bytes <= 1_020_000, "{} bytes requested", run.bytes);
}

/// `code::compile` over the 13 suite programs under perceus, no-opt and
/// scoped. When it built a boxed tree per body and flattened that, the
/// 39 compiles made 18 797 allocator calls for 1 579 304 bytes; in one
/// walk with slots numbered per scope they made 1 885 calls for 545 900
/// bytes. Packing slots by liveness, they make 2 603 calls for 695 808
/// bytes — the tables of `Code` as they grow, the type table's copy, the
/// variable table, and the packer's buffers: a live set per instruction
/// of the largest body, and the walk's undo log.
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

/// The program `strategy`'s pipeline hands to `pass`.
fn before(pass: PassName, source: &str, strategy: Strategy) -> Program {
    let lowered = perceus_lang::compile_str(source).unwrap();
    let trace = Pipeline::new(strategy.pass_config())
        .stages(lowered)
        .unwrap();
    let stages = trace.records();
    let at = stages
        .iter()
        .position(|s| s.pass == pass)
        .expect("the pipeline runs the pass");
    stages[at - 1].program.clone()
}

/// The program `strategy`'s pipeline hands to `insert_program`.
fn before_insert(source: &str, strategy: Strategy) -> Program {
    before(PassName::Insert, source, strategy)
}

/// Allocator calls and bytes requested by `f` alone.
fn cost(f: impl FnOnce()) -> (u64, u64) {
    let before = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        CALLS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

/// Allocator calls and bytes requested by `insert_program` alone.
fn insertion_cost(mut p: Program) -> (u64, u64) {
    cost(|| insert::insert_program(&mut p).unwrap())
}

/// Runs `f` on a thread with room for the recursion of every pass over
/// a few thousand nested lets (depth limits are a separate concern).
fn on_big_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(512 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap();
}

const LIST: &str = "type list<a> { Nil; Cons(head: a, tail: list<a>) }\n";

/// `val a = Cons(n, Nil); val b = …; val x0 = n; val x{i} = x{i-1} + 1 …`
/// then a match on `a` and `b`: two binders live across every let.
fn let_chain(lets: usize) -> String {
    let mut s = format!("{LIST}fun main(n: int): int {{\n  val a = Cons(n, Nil)\n  val b = Cons(n, Nil)\n  val x0 = n\n");
    for i in 1..=lets {
        writeln!(s, "  val x{i} = x{} + 1", i - 1).unwrap();
    }
    writeln!(
        s,
        "  match a {{\n    Cons(h, _) -> match b {{\n      Cons(k, _) -> h + k + x{lets}\n      Nil -> 0\n    }}\n    Nil -> 0\n  }}\n}}"
    )
    .unwrap();
    s
}

/// `n` lists, then `n` cells each holding one of them: the owned set Γ
/// holds every list not yet stored, so it is as large as the chain.
fn all_live_chain(n: usize) -> String {
    let mut s = format!("{LIST}fun main(n: int): list<list<int>> {{\n");
    for i in 1..=n {
        writeln!(s, "  val l{i} = Cons(n, Nil)").unwrap();
    }
    writeln!(s, "  val c0 = Nil").unwrap();
    for i in 1..=n {
        writeln!(s, "  val c{i} = Cons(l{i}, c{})", i - 1).unwrap();
    }
    writeln!(s, "  c{n}\n}}").unwrap();
    s
}

/// Insertion over the 13 suite programs under perceus and perceus-no-opt.
/// When every `let`, argument and arm recomputed the free variables of
/// its continuation and cloned `VarSet`s, the 26 insertions made 42 773
/// allocator calls for 4 053 088 bytes; rewriting each body in place
/// over one free-variable annotation, they make 3 167 calls for
/// 485 356 bytes — less than a plain clone of their output (7 117
/// calls, 816 336 bytes).
#[test]
fn insertion_allocates_little_beyond_its_output() {
    let (mut calls, mut bytes) = (0, 0);
    for w in workloads() {
        for strategy in [Strategy::Perceus, Strategy::PerceusNoOpt] {
            let (c, b) = insertion_cost(before_insert(w.source, strategy));
            calls += c;
            bytes += b;
        }
    }
    assert!(calls <= 42_773 / 3, "{calls} allocator calls");
    assert!(bytes <= 4_053_088 / 3, "{bytes} bytes requested");
}

/// Bytes requested by insertion grow linearly with let depth. When each
/// `let` re-walked its continuation, 4 000 lets asked for 3.9 × the
/// bytes of 2 000 (264.8 MB against 67.7 MB); now 2.0 × (800 kB against
/// 401 kB).
#[test]
fn insertion_bytes_are_linear_in_let_depth() {
    on_big_stack(|| {
        let bytes = |lets| insertion_cost(before_insert(&let_chain(lets), Strategy::Perceus)).1;
        let (half, full) = (bytes(2_000), bytes(4_000));
        assert!(
            full * 2 <= half * 5,
            "{full} bytes at 4 000 lets, {half} at 2 000"
        );
    });
}

/// A chain whose owned set is as large as the chain itself: 1 000 lists
/// and 1 000 cells. With cloned sets per node it asked for 272.5 MB; it
/// now asks for 9.1 MB: the free-variable annotation and the stack of Γ
/// sets, each about the sum of the live sets along the chain.
#[test]
fn insertion_of_an_all_live_chain_stays_small() {
    on_big_stack(|| {
        let p = before_insert(&all_live_chain(1_000), Strategy::PerceusNoOpt);
        let (_, bytes) = insertion_cost(p);
        assert!(bytes <= 27_250_000, "{bytes} bytes requested");
    });
}

/// `val x{i} = if x{i-1} > 0 then x{i-1} - 1 else 0`, `n` times: every
/// `if` is a match whose arms sit inside the scope of the whole chain.
fn if_chain(n: usize) -> String {
    let mut s = String::from("fun main(n: int): int {\n  val x0 = n\n");
    for i in 1..=n {
        writeln!(
            s,
            "  val x{i} = if x{} > 0 then x{} - 1 else 0",
            i - 1,
            i - 1
        )
        .unwrap();
    }
    writeln!(s, "  x{n}\n}}").unwrap();
    s
}

/// Bytes requested by the λ¹ check and the well-formedness check of the
/// compiled if-chain grow linearly with its length. With the ownership
/// environment as three hash tables cloned per arm, `check_program`
/// asked for 4.0 × as much at 4 000 ifs as at 2 000 (895.7 MB against
/// 223.8 MB); on per-id tables with an undo log, 2.0 × (416 232 bytes
/// against 208 232). The well-formedness scope, a `Vec` searched at
/// every use, was linear in bytes though not in time (98 304 against
/// 49 152); as a per-id table, 64 776 against 32 392.
#[test]
fn checking_bytes_are_linear_in_if_depth() {
    on_big_stack(|| {
        let compiled = |n| {
            let lowered = perceus_lang::compile_str(&if_chain(n)).unwrap();
            Pipeline::new(Strategy::Perceus.pass_config())
                .run(lowered)
                .unwrap()
        };
        let (half, full) = (compiled(2_000), compiled(4_000));
        let check = |p: &Program| cost(|| check_program(p).unwrap()).1;
        let (h, f) = (check(&half), check(&full));
        assert!(
            f * 2 <= h * 5,
            "check_program: {f} bytes at 4 000 ifs, {h} at 2 000"
        );
        let wf = |p: &Program| cost(|| wf::check_program(p).unwrap()).1;
        let (h, f) = (wf(&half), wf(&full));
        assert!(
            f * 2 <= h * 5,
            "wf::check_program: {f} bytes at 4 000 ifs, {h} at 2 000"
        );
    });
}

/// The same for reuse analysis and drop specialization together. Asking
/// `free_vars` per arm and per drop, they asked for 5 888 436 bytes at
/// 4 000 ifs against 2 944 436 at 2 000 (2.0 ×: the chain's arms are
/// small); reading one free-variable annotation per function, 7 086 304
/// against 3 543 264 (2.0 ×), the annotation's arrays included.
#[test]
fn reuse_and_drop_spec_bytes_are_linear_in_if_depth() {
    on_big_stack(|| {
        let bytes = |n| {
            let source = if_chain(n);
            let mut p = before(PassName::Reuse, &source, Strategy::Perceus);
            let mut q = before(PassName::DropSpec, &source, Strategy::Perceus);
            cost(|| reuse::reuse_program(&mut p, &reuse::ReuseConfig::default())).1
                + cost(|| drop_spec::drop_spec_program(&mut q, &Default::default())).1
        };
        let (half, full) = (bytes(2_000), bytes(4_000));
        assert!(
            full * 2 <= half * 5,
            "{full} bytes at 4 000 ifs, {half} at 2 000"
        );
    });
}

/// `compile_str` — the whole front end — over the 13 suite programs.
/// With a `String` per identifier copied into scopes, schemes and pattern
/// rows, inference deep-cloning types and a `HashMap` per instantiation,
/// it made 20 362 allocator calls for 1 774 332 bytes; interning names
/// and inferring over a type arena, 6 014 calls for 1 121 984 bytes:
/// the parse tree, the lowered program and a few tables per program.
#[test]
fn the_front_end_allocates_little_beyond_its_trees() {
    let (mut calls, mut bytes) = (0, 0);
    for w in workloads() {
        let (c, b) = cost(|| drop(perceus_lang::compile_str(w.source).unwrap()));
        calls += c;
        bytes += b;
    }
    assert!(calls <= 20_362 / 3, "{calls} allocator calls");
    assert!(bytes <= 1_774_332 * 2 / 3, "{bytes} bytes requested");
}

/// A function of `n` statements: `val x{i} = x{i-1} + 1`.
fn statements(n: usize) -> String {
    let mut s = String::from("fun main(n: int): int {\n  val x0 = n\n");
    for i in 1..=n {
        writeln!(s, "  val x{i} = x{} + 1", i - 1).unwrap();
    }
    writeln!(s, "  x{n}\n}}").unwrap();
    s
}

/// Bytes requested by the front end grow linearly with a source's
/// statements: 4 000 ask for 2.0 × the bytes of 2 000 (4 077 106 against
/// 2 034 858; 4 481 543 against 2 240 823 with a `String` per name).
#[test]
fn front_end_bytes_are_linear_in_statements() {
    on_big_stack(|| {
        let bytes = |n| {
            let src = statements(n);
            let mut lowered = None;
            cost(|| lowered = Some(perceus_lang::compile_str(&src).unwrap())).1
        };
        let (half, full) = (bytes(2_000), bytes(4_000));
        assert!(
            full * 2 <= half * 5,
            "{full} bytes at 4 000 statements, {half} at 2 000"
        );
    });
}

/// `check_program` over the 13 suite programs under perceus, no-opt and
/// scoped. Cloning its three hash tables per arm, the 39 checks made
/// 7 235 allocator calls for 2 707 688 bytes; on per-id tables allocated
/// once per program they make 256 calls for 265 096 bytes.
#[test]
fn checking_allocates_once_per_program() {
    let (mut calls, mut bytes) = (0, 0);
    for w in workloads() {
        let lowered = perceus_lang::compile_str(w.source).unwrap();
        for strategy in [Strategy::Perceus, Strategy::PerceusNoOpt, Strategy::Scoped] {
            let p = Pipeline::new(strategy.pass_config())
                .run(lowered.clone())
                .unwrap();
            let (c, b) = cost(|| check_program(&p).unwrap());
            calls += c;
            bytes += b;
        }
    }
    assert!(calls <= 7_235 / 3, "{calls} allocator calls");
    assert!(bytes <= 2_707_688 / 3, "{bytes} bytes requested");
}
