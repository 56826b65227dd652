//! Sequential-tenant sessions over one recycled heap: the runtime-level
//! contract behind `perceus-serve` (see `docs/SERVING.md`).
//!
//! The properties under test are the serving restatement of the
//! paper's theorems. Garbage-freedom (Thm. 2/4) means a completed
//! session leaves the worker heap empty, so `Heap::reset` between
//! tenants reclaims *zero* blocks on the happy path — and exactly the
//! aborted tenant's garbage otherwise. The generation check means an
//! address smuggled out of a dead session fails deterministically
//! instead of aliasing the next tenant's data.

use perceus_runtime::audit;
use perceus_runtime::heap::{Heap, ReclaimMode};
use perceus_runtime::machine::{Machine, RunConfig};
use perceus_runtime::{RuntimeError, Value};
use perceus_suite::{compile_workload, Strategy};

const LIST_SUM: &str = r#"
type list { Nil; Cons(head: int, tail: list) }

// Allocates each cell *before* the tail call, so a starved session
// aborts with a partial list live (the shape the reset test needs).
fun build(n: int, acc: list): list {
  if n <= 0 then acc
  else build(n - 1, Cons(n, acc))
}

fun sum(xs: list): int {
  match xs {
    Nil -> 0
    Cons(h, t) -> h + sum(t)
  }
}

fun main(n: int): int {
  sum(build(n, Nil))
}
"#;

fn compiled() -> perceus_runtime::code::Compiled {
    compile_workload(LIST_SUM, Strategy::Perceus).expect("compiles")
}

fn run_session(
    code: &perceus_runtime::code::Compiled,
    heap: Heap,
    config: RunConfig,
    n: i64,
) -> (Heap, Result<i64, RuntimeError>) {
    let mut m = Machine::with_heap(code, heap, config);
    let r = m.run_entry(vec![Value::Int(n)]).and_then(|v| {
        let out = m.read_back(v)?;
        m.drop_result(v)?;
        match out {
            perceus_runtime::DeepValue::Int(i) => Ok(i),
            other => Err(RuntimeError::Internal(format!("non-int result {other}"))),
        }
    });
    (m.into_heap(), r)
}

#[test]
fn clean_sessions_reset_to_zero_and_recycle() {
    let code = compiled();
    let mut heap = Heap::new(ReclaimMode::Rc);
    let mut cold = None;
    for session in 0..5 {
        let (h, r) = run_session(&code, heap, RunConfig::default(), 100);
        heap = h;
        assert_eq!(r.unwrap(), 5050, "session {session}");
        assert_eq!(heap.live_blocks(), 0, "Thm. 2: session {session} drained");
        let stats = heap.stats;
        match &cold {
            // Schedule counters are identical across tenants — only the
            // allocator-placement trio may (and should) change once the
            // free lists are warm.
            None => cold = Some(stats),
            Some(first) => {
                assert_eq!(stats.allocations, first.allocations, "session {session}");
                assert_eq!(stats.frees, first.frees, "session {session}");
                assert_eq!(stats.dups, first.dups, "session {session}");
                assert_eq!(stats.drops, first.drops, "session {session}");
                assert_eq!(stats.reuses, first.reuses, "session {session}");
                assert_eq!(stats.steps, first.steps, "session {session}");
                assert_eq!(stats.peak_live_words, first.peak_live_words);
                assert!(
                    stats.freelist_hits > first.freelist_hits,
                    "warm session {session} must allocate off the recycled lists"
                );
            }
        }
        let reclaimed = heap.reset();
        assert_eq!(reclaimed, 0, "a clean session leaves nothing to retire");
        audit::check_heap(&heap, &[]).expect("post-reset audit");
    }
}

#[test]
fn aborted_session_is_retired_and_the_next_tenant_is_unaffected() {
    let code = compiled();
    let heap = Heap::new(ReclaimMode::Rc);

    // Tenant 1 starves mid-build: the machine dies with the partial
    // list still rooted in its frames.
    let starved = RunConfig::new().with_step_limit(Some(120));
    let (mut heap, r) = run_session(&code, heap, starved, 100);
    assert!(matches!(r, Err(RuntimeError::StepLimit(_))), "{r:?}");
    let leaked = heap.live_blocks();
    assert!(leaked > 0, "an aborted build leaves live blocks");

    // Reset retires exactly that garbage and the audit passes.
    let reclaimed = heap.reset();
    assert_eq!(reclaimed, leaked);
    assert_eq!(heap.live_blocks(), 0);
    audit::check_heap(&heap, &[]).expect("post-reset audit");

    // Tenant 2 on the recycled heap reproduces a fresh heap's schedule
    // exactly.
    let (heap, r) = run_session(&code, heap, RunConfig::default(), 100);
    assert_eq!(r.unwrap(), 5050);
    let warm = heap.stats;
    let (fresh_heap, r) = run_session(&code, Heap::new(ReclaimMode::Rc), RunConfig::default(), 100);
    assert_eq!(r.unwrap(), 5050);
    let fresh = fresh_heap.stats;
    assert_eq!(warm.allocations, fresh.allocations);
    assert_eq!(warm.frees, fresh.frees);
    assert_eq!(warm.steps, fresh.steps);
    assert_eq!(warm.peak_live_blocks, fresh.peak_live_blocks);
}

#[test]
fn stale_addresses_from_a_dead_tenant_fail_deterministically() {
    let code = compiled();
    let heap = Heap::new(ReclaimMode::Rc);
    let starved = RunConfig::new().with_step_limit(Some(120));
    let mut m = Machine::with_heap(&code, heap, starved);
    assert!(m.run_entry(vec![Value::Int(100)]).is_err());

    // Capture an address the dead tenant still holds, then reset.
    let mut heap = m.into_heap();
    let stale = heap
        .iter_live()
        .next()
        .map(|(a, _)| a)
        .expect("the aborted session left a live block");
    heap.reset();

    // The slot was retired and its generation bumped: any access
    // through the smuggled address is an error, not the next tenant's
    // data.
    assert!(heap.view(stale).is_err(), "stale address must not resolve");
    assert!(heap.dup(Value::Ref(stale)).is_err());
}

#[test]
fn memory_limit_is_a_deterministic_sandbox() {
    let code = compiled();
    // The limit trips at the same step every time: live words are
    // exactly the reachable data under Perceus, so the sandbox has no
    // collector-timing slack.
    let mut steps_at_trip = None;
    for _ in 0..3 {
        let config = RunConfig::new().with_memory_limit_words(Some(64));
        let (heap, r) = run_session(&code, Heap::new(ReclaimMode::Rc), config, 1000);
        match r {
            Err(RuntimeError::MemoryLimit { live_words, .. }) => {
                assert!(live_words > 64);
                match steps_at_trip {
                    None => steps_at_trip = Some(heap.stats.steps),
                    Some(s) => assert_eq!(heap.stats.steps, s, "trip point must be deterministic"),
                }
            }
            other => panic!("expected MemoryLimit, got {other:?}"),
        }
    }
}
