//! The garbage-free / soundness auditor — executable counterparts of the
//! paper's theorems, checked against live machine states:
//!
//! * **Soundness (Thm. 1)** is enforced continuously by the
//!   generation-checked heap: a dangling reference in generated code is
//!   a deterministic [`crate::RuntimeError::UseAfterFree`], never corruption.
//! * **Count adequacy (Appendix D.3, lower bound)**: every live block's
//!   reference count is at least the number of references to it from
//!   other live blocks — a count below that would inevitably
//!   use-after-free later. The same bound holds for shared-segment
//!   blocks against *this thread's* references: other threads only ever
//!   drop references they own, so a racing decrement can never take a
//!   shared count below the references this (paused) thread holds.
//! * **Garbage-freeness (Thm. 2/4)**: every live block is reachable
//!   from the machine's roots (the value stack: every frame's slots,
//!   reuse tokens included). Two classes are tolerated and reported
//!   instead of flagged: blocks held only by a mutable-reference cycle
//!   (the paper's §2.7.4 explicitly leaves cycles to the programmer) and
//!   blocks whose count sits at the sticky floor — pinned alive *by
//!   design* (§2.7.2's overflow discipline trades exactly this much
//!   garbage-freedom for a bounded header).
//!
//! In a parallel run each worker thread audits its own local heap; the
//! thread-shared segment is audited once at thread join, when it is
//! quiescent, by [`check_shared_at_join`] — together the two cover both
//! heap segments, which is the Thm. 2/4 statement the concurrent
//! runtime can honestly make.
//!
//! A constructor recursion compiled as a loop (tail recursion modulo
//! cons) holds its partly built result in a context of two slots: a
//! root, an ordinary counted reference that owns the chain of cells
//! built so far, and a hole, a [`Value::Hole`] naming the last cell,
//! whose last field is the Unit placeholder the next value fills. The
//! hole is not a reference, so it is no root and no count; what makes it
//! sound is checked by `check_holes`.
//!
//! The machine invokes [`check_machine`] every `audit_every` steps (at
//! states that are not at a `dup`/`drop`, matching the side condition of
//! Theorem 4). The strongest end-to-end check is performed by the test
//! suites: after a run completes and the result is dropped, the heap
//! must be **empty**.

use crate::heap::{Heap, SharedHeap, STICKY};
use crate::machine::Machine;
use crate::value::{Addr, Value};
use std::collections::{HashMap, HashSet};

/// Outcome of a heap audit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Live blocks inspected.
    pub live_blocks: u64,
    /// Blocks kept alive only by a mutable-reference cycle (tolerated,
    /// per §2.7.4).
    pub cycle_garbage: u64,
    /// Blocks pinned at the sticky floor (or held only by pinned
    /// blocks): never freed by design, so not leaks (§2.7.2).
    pub pinned_blocks: u64,
}

/// Audits a machine state; returns a report or a violation description.
pub fn check_machine(m: &Machine<'_>) -> Result<AuditReport, String> {
    check_holes(&m.heap, m.root_values())?;
    check_heap(&m.heap, &live_roots(&m.heap, m.root_values()))
}

/// Checks every TRMC context among `values` (a machine's value stack):
/// each [`Value::Hole`] sits in the slot after its root, and following
/// last fields from the root reaches the hole's block through live
/// blocks, its last field the Unit placeholder. So the hole names a
/// block the root owns, and filling it writes over nothing.
pub(crate) fn check_holes<'a>(
    heap: &Heap,
    values: impl Iterator<Item = &'a Value>,
) -> Result<(), String> {
    let mut root = Value::Unit;
    for &v in values {
        if let Value::Hole(hole) = v {
            let Value::Ref(mut at) = root else {
                return Err(format!("hole {hole} follows {root}, not its root"));
            };
            // A chain is at most as long as the heap has blocks.
            let mut steps = heap.live_blocks();
            loop {
                let block = heap
                    .view(at)
                    .map_err(|e| format!("context of {root}: {e}"))?;
                let last = block.fields.last().map(|f| f.value());
                match last {
                    Some(Value::Unit) if at == hole => break,
                    Some(Value::Ref(next)) if at != hole && steps > 0 => {
                        at = next;
                        steps -= 1;
                    }
                    _ => {
                        return Err(format!(
                            "context of {root}: block {at} ends in {last:?}, not in \
                             hole {hole} or on the way to it"
                        ))
                    }
                }
            }
        }
        root = v;
    }
    Ok(())
}

/// The addresses among `values` (a machine's value stack) that name a
/// live block. A slot whose variable is dead, or that a freed callee's
/// window left behind, can hold a generation-stale address: not a root.
pub(crate) fn live_roots<'a>(heap: &Heap, values: impl Iterator<Item = &'a Value>) -> Vec<Addr> {
    values
        .filter_map(|v| match v {
            Value::Ref(a) | Value::Token(Some(a)) => Some(*a),
            _ => None,
        })
        .filter(|a| heap.ref_alive(*a))
        .collect()
}

/// A table keyed by [`Addr::index`]: an array over the local heap's slot
/// numbers — nearly every key — and a map for the rest, the
/// shared-segment addresses, whose index carries the segment bit. The
/// audit at every suspension point is what a budgeted run costs over a
/// straight one: 26 audits of a 50 000-node rbtree took 90 ms with
/// every key hashed and take 15 ms with this table.
struct ByIndex<T> {
    /// Local slot numbers are below this.
    slots: usize,
    /// Empty until the first local key: a worker audits a just-reset,
    /// empty heap between any two sessions, and that must stay cheap.
    local: Vec<T>,
    rest: HashMap<u32, T>,
}

impl<T: Copy + Default> ByIndex<T> {
    fn new(heap: &Heap) -> Self {
        ByIndex {
            slots: heap.slot_count(),
            local: Vec::new(),
            rest: HashMap::new(),
        }
    }

    fn at(&mut self, index: u32) -> &mut T {
        if (index as usize) < self.slots {
            if self.local.is_empty() {
                self.local.resize(self.slots, T::default());
            }
            &mut self.local[index as usize]
        } else {
            self.rest.entry(index).or_default()
        }
    }

    fn get(&self, index: u32) -> T {
        match self.local.get(index as usize) {
            Some(t) => *t,
            None => self.rest.get(&index).copied().unwrap_or_default(),
        }
    }
}

/// Audits a heap against an explicit root set. Local blocks carry the
/// full obligations (adequate counts, reachability); attached
/// shared-segment blocks are checked for dangling references and count
/// adequacy but not reachability — other threads may hold them.
pub fn check_heap(heap: &Heap, roots: &[Addr]) -> Result<AuditReport, String> {
    // 1. Count internal references (fields of live, unclaimed blocks).
    //    Keyed by `Addr::index`, which keeps the two segments disjoint
    //    (shared addresses carry the segment bit).
    let mut internal: ByIndex<u32> = ByIndex::new(heap);
    let mut live = Vec::new();
    for (addr, block) in heap.iter_live() {
        live.push(addr);
        if block.header == 0 {
            continue; // claimed by a reuse token: contents meaningless
        }
        for child in block.fields.iter().filter_map(|f| f.addr()) {
            if !heap.ref_alive(child) {
                return Err(format!("block {addr} holds dangling reference {child}"));
            }
            *internal.at(child.index) += 1;
        }
    }

    // 2. Count adequacy: header magnitude ≥ internal references. For
    //    shared children the bound still holds against this thread's
    //    live references even under concurrent drops elsewhere, so the
    //    check is safe on the shared side too.
    if heap.rc_active() {
        for (addr, block) in heap.iter_live() {
            if block.header == 0 {
                continue;
            }
            let count = block.header.unsigned_abs();
            let refs = internal.get(addr.index);
            if count < refs {
                return Err(format!(
                    "block {addr} has count {count} but {refs} internal references"
                ));
            }
        }
        for (&index, &refs) in internal.rest.iter() {
            let addr = Addr { index, gen: 0 };
            let Ok(view) = heap.view(addr) else {
                continue; // dangling already reported above
            };
            let count = view.header.unsigned_abs();
            if count < refs {
                return Err(format!(
                    "shared block {addr} has count {count} but {refs} references \
                     from this thread"
                ));
            }
        }
    }

    // 3. Reachability from roots (crossing into the shared segment
    //    freely: a local root may hold shared data).
    let mut seen: ByIndex<bool> = ByIndex::new(heap);
    let mut work: Vec<Addr> = roots.to_vec();
    while let Some(addr) = work.pop() {
        if std::mem::replace(seen.at(addr.index), true) {
            continue;
        }
        let Ok(block) = heap.view(addr) else {
            continue;
        };
        if block.header == 0 {
            continue; // claimed cells hold no real references
        }
        work.extend(block.fields.iter().filter_map(|f| f.addr()));
    }
    let unreachable: Vec<Addr> = live
        .iter()
        .copied()
        .filter(|a| !seen.get(a.index))
        .collect();

    // 4a. Sticky-pinned blocks are tolerated: a count at the floor is
    //     never decremented again, so the block (and everything it
    //     holds) stays alive by design, not by leak.
    let mut pinned_ok: HashSet<u32> = HashSet::new();
    for a in &unreachable {
        let Ok(b) = heap.view(*a) else { continue };
        if b.header <= STICKY {
            flood(heap, *a, &mut pinned_ok);
        }
    }

    // 4b. Remaining unreachable blocks are tolerated only when a cycle
    //     sustains them (mutable references, §2.7.4).
    let mut cycle_ok: HashSet<u32> = HashSet::new();
    for a in &unreachable {
        if cycle_ok.contains(&a.index) || pinned_ok.contains(&a.index) {
            continue;
        }
        if on_cycle(heap, *a) {
            // Everything reachable from a cycle node is cycle garbage.
            flood(heap, *a, &mut cycle_ok);
        }
    }
    let mut cycle_garbage = 0;
    let mut pinned_blocks = 0;
    for a in &unreachable {
        if pinned_ok.contains(&a.index) {
            pinned_blocks += 1;
        } else if cycle_ok.contains(&a.index) {
            cycle_garbage += 1;
        } else if heap.rc_active() {
            return Err(format!(
                "garbage-free violation: live block {a} is unreachable from the roots"
            ));
        }
    }

    Ok(AuditReport {
        live_blocks: live.len() as u64,
        cycle_garbage,
        pinned_blocks,
    })
}

/// Marks everything reachable from `start` (inclusive) in `out`.
fn flood(heap: &Heap, start: Addr, out: &mut HashSet<u32>) {
    let mut work = vec![start];
    while let Some(n) = work.pop() {
        if !out.insert(n.index) {
            continue;
        }
        if let Ok(b) = heap.view(n) {
            work.extend(b.fields.iter().filter_map(|f| f.addr()));
        }
    }
}

/// Can `start` reach itself?
fn on_cycle(heap: &Heap, start: Addr) -> bool {
    let mut seen = HashSet::new();
    let mut work = Vec::new();
    if let Ok(b) = heap.view(start) {
        work.extend(b.fields.iter().filter_map(|f| f.addr()));
    }
    while let Some(n) = work.pop() {
        if n.index == start.index {
            return true;
        }
        if !seen.insert(n.index) {
            continue;
        }
        if let Ok(b) = heap.view(n) {
            work.extend(b.fields.iter().filter_map(|f| f.addr()));
        }
    }
    false
}

/// Join-time report over the thread-shared segment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SharedAudit {
    /// Slots whose strong count reached zero during the run.
    pub freed_blocks: u64,
    /// Slots still live at join.
    pub live_blocks: u64,
    /// Live slots pinned at the sticky floor or held by pinned slots
    /// (tolerated, §2.7.2).
    pub pinned_blocks: u64,
    /// Outstanding weak counts summed over every slot (live or dead —
    /// a weak of a dead block is legal and still owns its count).
    pub weak_refs: u64,
    /// Dead slots whose field storage was physically released by epoch
    /// reclamation (the rest release at the next `try_reclaim`).
    pub reclaimed_blocks: u64,
}

/// Audits the thread-shared segment **after every worker has joined**
/// (the segment must be quiescent). The garbage-free claim at join: a
/// shared block may survive only if it is pinned at the sticky floor or
/// held by a pinned block — every counted reference was consumed by the
/// workers, so any other survivor is a leak. Count adequacy is checked
/// exactly (no races remain).
pub fn check_shared_at_join(segment: &SharedHeap) -> Result<SharedAudit, String> {
    let mut internal: HashMap<u32, u32> = HashMap::new();
    let mut weak_internal: HashMap<u32, u32> = HashMap::new();
    let mut weak_counts: HashMap<u32, u32> = HashMap::new();
    let mut live = Vec::new();
    let mut freed_blocks = 0;
    let mut weak_refs = 0u64;
    for (addr, header, weak, fields) in segment.iter_slots() {
        weak_refs += weak as u64;
        if weak > 0 {
            weak_counts.insert(addr.index, weak);
        }
        if header == 0 {
            freed_blocks += 1;
            continue;
        }
        if header > 0 {
            return Err(format!(
                "shared block {addr} has non-shared header {header}"
            ));
        }
        live.push((addr, header));
        for f in fields.iter() {
            if let Some(child) = f.addr() {
                if !child.is_shared() {
                    return Err(format!(
                        "shared block {addr} holds thread-local reference {child}"
                    ));
                }
                *internal.entry(child.index).or_insert(0) += 1;
            } else if let Some(child) = f.weak() {
                // Weak fields are not strong references: they confer no
                // liveness and are excluded from strong adequacy. Each
                // owns one *weak* count, checked below.
                *weak_internal.entry(child.index).or_insert(0) += 1;
            }
        }
    }
    // Count adequacy over the quiescent segment.
    for &(addr, header) in &live {
        let refs = internal.get(&addr.index).copied().unwrap_or(0);
        if header.unsigned_abs() < refs {
            return Err(format!(
                "shared block {addr} has count {} but {refs} internal references at join",
                header.unsigned_abs()
            ));
        }
    }
    // Weak adequacy: every weak field of a live block owns one weak
    // count on its target (the target's slot entry outlives its
    // storage, so a dangling weak is legal — but an *uncounted* one is
    // a bookkeeping bug that would later over-release).
    for (&index, &refs) in weak_internal.iter() {
        let have = weak_counts.get(&index).copied().unwrap_or(0);
        if have < refs {
            return Err(format!(
                "shared slot {index} has weak count {have} but {refs} weak references \
                 from live blocks at join"
            ));
        }
    }
    // Pinned blocks (and their holdings) survive by design; everything
    // else must have been reclaimed by the workers' final drops.
    let mut pinned_ok: HashSet<u32> = HashSet::new();
    for &(addr, header) in &live {
        if header <= STICKY {
            let mut work = vec![addr];
            while let Some(n) = work.pop() {
                if !pinned_ok.insert(n.index) {
                    continue;
                }
                if let Ok(b) = segment.view(n) {
                    work.extend(b.fields.iter().filter_map(|f| f.addr()));
                }
            }
        }
    }
    let mut pinned_blocks = 0;
    for &(addr, _) in &live {
        if pinned_ok.contains(&addr.index) {
            pinned_blocks += 1;
        } else {
            return Err(format!(
                "garbage-free violation at join: shared block {addr} is still live"
            ));
        }
    }
    Ok(SharedAudit {
        freed_blocks,
        live_blocks: live.len() as u64,
        pinned_blocks,
        weak_refs,
        reclaimed_blocks: segment.reclaimed().0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::{BlockTag, HeapConfig, ReclaimMode};
    use perceus_core::ir::CtorId;

    fn cell(h: &mut Heap, fields: Vec<Value>) -> Addr {
        h.alloc(BlockTag::Ctor(CtorId(0)), fields.into_boxed_slice())
    }

    #[test]
    fn accepts_reachable_heap() {
        let mut h = Heap::new(ReclaimMode::Rc);
        let inner = cell(&mut h, vec![Value::Int(1)]);
        let outer = cell(&mut h, vec![Value::Ref(inner)]);
        let report = check_heap(&h, &[outer]).unwrap();
        assert_eq!(report.live_blocks, 2);
        assert_eq!(report.cycle_garbage, 0);
        assert_eq!(report.pinned_blocks, 0);
    }

    /// A TRMC context passes when its hole is the block at the end of
    /// the root's chain of last fields and holds the placeholder, and
    /// fails when the hole is off the chain, not after its root, or
    /// already filled.
    #[test]
    fn checks_each_hole_against_its_roots_chain() {
        let mut h = Heap::new(ReclaimMode::Rc);
        let last = cell(&mut h, vec![Value::Int(2), Value::Unit]);
        let first = cell(&mut h, vec![Value::Int(1), Value::Ref(last)]);
        let other = cell(&mut h, vec![Value::Int(3), Value::Unit]);
        let check = |h: &Heap, stack: &[Value]| check_holes(h, stack.iter()).is_ok();
        let (root, hole) = (Value::Ref(first), Value::Hole(last));
        assert!(check(&h, &[root, hole]));
        assert!(!check(&h, &[root, Value::Hole(first)]));
        assert!(!check(&h, &[root, Value::Hole(other)]));
        assert!(!check(&h, &[hole, root]));
        h.fill_hole(last, Value::Int(4)).unwrap();
        assert!(!check(&h, &[root, hole]));
        assert!(h.fill_hole(last, Value::Int(5)).is_err(), "filled twice");
    }

    #[test]
    fn detects_leak() {
        let mut h = Heap::new(ReclaimMode::Rc);
        let _leaked = cell(&mut h, vec![]);
        let err = check_heap(&h, &[]).unwrap_err();
        assert!(err.contains("unreachable"), "{err}");
    }

    #[test]
    fn detects_undercount() {
        let mut h = Heap::new(ReclaimMode::Rc);
        let child = cell(&mut h, vec![]);
        let a = cell(&mut h, vec![Value::Ref(child)]);
        let b = cell(&mut h, vec![Value::Ref(child)]);
        // child's count is 1 but two blocks reference it.
        let err = check_heap(&h, &[a, b]).unwrap_err();
        assert!(err.contains("internal references"), "{err}");
    }

    #[test]
    fn tolerates_ref_cycles() {
        let mut h = Heap::new(ReclaimMode::Rc);
        let r = h.alloc(BlockTag::MutRef, vec![Value::Unit].into_boxed_slice());
        let holder = cell(&mut h, vec![Value::Ref(r)]);
        h.replace_field(r, 0, Value::Ref(holder)).unwrap();
        // Neither is reachable from any root, but they sustain each
        // other — the §2.7.4 situation.
        let report = check_heap(&h, &[]).unwrap();
        assert_eq!(report.cycle_garbage, 2);
    }

    fn pinned_case(recycle: bool) {
        // A block pinned at the sticky floor holds a child. Neither is
        // reachable from any root, and the pinned block is acyclic — yet
        // this is not a leak: the floor is never decremented (§2.7.2),
        // so the memory is retained *by design*. The audit must say
        // "pinned", not "garbage-free violation".
        let mut h = Heap::with_config(
            ReclaimMode::Rc,
            HeapConfig {
                recycle,
                ..HeapConfig::default()
            },
        );
        let child = cell(&mut h, vec![Value::Int(1)]);
        let a = cell(&mut h, vec![Value::Ref(child)]);
        *h.header_mut(a).unwrap() = crate::heap::STICKY;
        // Drops on the pinned block are no-ops; it stays live.
        h.drop_value(Value::Ref(a)).unwrap();
        assert_eq!(h.live_blocks(), 2, "sticky never freed");
        let report = check_heap(&h, &[]).unwrap();
        assert_eq!(report.pinned_blocks, 2, "pinned block and its holdings");
        assert_eq!(report.cycle_garbage, 0);
        // A genuinely leaked sibling still trips the audit.
        let _leaked = cell(&mut h, vec![]);
        let err = check_heap(&h, &[]).unwrap_err();
        assert!(err.contains("unreachable"), "{err}");
    }

    #[test]
    fn sticky_pinned_blocks_audit_as_pinned_with_recycling_on() {
        pinned_case(true);
    }

    #[test]
    fn sticky_pinned_blocks_audit_as_pinned_with_recycling_off() {
        pinned_case(false);
    }

    #[test]
    fn freelisted_blocks_are_invisible_to_the_audit() {
        // Populate several size-class free lists, then audit: a listed
        // slot is neither live (no count/reachability obligations) nor
        // leaked — the allocator is invisible to the garbage-free story.
        let mut h = Heap::new(ReclaimMode::Rc);
        for n in 0..4 {
            let fields: Vec<Value> = (0..n).map(Value::Int).collect();
            let a = cell(&mut h, fields);
            h.drop_value(Value::Ref(a)).unwrap();
        }
        assert_eq!(h.listed_blocks(), 4);
        let keep = cell(&mut h, vec![Value::Int(9)]);
        let report = check_heap(&h, &[keep]).unwrap();
        assert_eq!(report.live_blocks, 1, "listed blocks are not live");
        assert_eq!(report.cycle_garbage, 0, "listed blocks are not garbage");
    }

    #[test]
    fn reset_and_audit_of_a_clean_heap_do_not_scale_with_its_high_water_mark() {
        // What a worker pays between sessions, on a heap that once
        // held `cells` blocks and now holds none: the smallest of
        // several batches (a neighbour can only add time).
        fn between_sessions(cells: i64) -> std::time::Duration {
            let mut h = Heap::new(ReclaimMode::Rc);
            let all: Vec<Addr> = (0..cells)
                .map(|i| cell(&mut h, vec![Value::Int(i), Value::Unit]))
                .collect();
            for a in all {
                h.drop_value(Value::Ref(a)).unwrap();
            }
            let batch = |h: &mut Heap| {
                let t = std::time::Instant::now();
                for _ in 0..100 {
                    assert_eq!(h.reset(), 0);
                    assert_eq!(check_heap(h, &[]).unwrap().live_blocks, 0);
                }
                t.elapsed()
            };
            (0..10).map(|_| batch(&mut h)).min().unwrap()
        }
        let small = between_sessions(256);
        let large = between_sessions(200_000);
        // Walking the header table made this ratio about 2 000.
        assert!(large <= small * 20, "{large:?} against {small:?}");
    }

    #[test]
    fn claimed_cells_need_a_token_root() {
        let mut h = Heap::new(ReclaimMode::Rc);
        let a = cell(&mut h, vec![]);
        let tok = h.drop_reuse(Value::Ref(a)).unwrap();
        // With the token as root: fine.
        let Value::Token(Some(t)) = tok else { panic!() };
        check_heap(&h, &[t]).unwrap();
        // Without: a leak of reserved memory.
        let err = check_heap(&h, &[]).unwrap_err();
        assert!(err.contains("unreachable"), "{err}");
    }

    #[test]
    fn local_heap_audit_crosses_into_the_shared_segment() {
        use std::sync::Arc;
        let mut h = Heap::new(ReclaimMode::Rc);
        let mut seg = SharedHeap::new();
        let payload = cell(&mut h, vec![Value::Int(5)]);
        let shared = h.mark_shared(Value::Ref(payload), &mut seg).unwrap();
        h.attach_shared(Arc::new(seg));
        // A local block holding a shared reference: reachable, counts
        // adequate across the segment boundary.
        let Value::Ref(saddr) = shared else { panic!() };
        let holder = cell(&mut h, vec![shared]);
        let report = check_heap(&h, &[holder]).unwrap();
        assert_eq!(report.live_blocks, 1, "shared blocks audit separately");
        // Two local references with a shared count of 1: undercount.
        let holder2 = cell(&mut h, vec![shared]);
        let err = check_heap(&h, &[holder, holder2]).unwrap_err();
        assert!(err.contains("references"), "{err}");
        let _ = saddr;
    }

    #[test]
    fn shared_join_audit_passes_when_workers_drained_the_segment() {
        let mut h = Heap::new(ReclaimMode::Rc);
        let mut seg = SharedHeap::new();
        let inner = cell(&mut h, vec![Value::Int(1)]);
        let root = cell(&mut h, vec![Value::Ref(inner)]);
        let shared = h.mark_shared(Value::Ref(root), &mut seg).unwrap();
        let seg = std::sync::Arc::new(seg);
        h.attach_shared(seg.clone());
        h.drop_value(shared).unwrap();
        let report = check_shared_at_join(&seg).unwrap();
        assert_eq!(report.freed_blocks, 2);
        assert_eq!(report.live_blocks, 0);
    }

    #[test]
    fn shared_join_audit_flags_survivors_but_tolerates_pinned() {
        let mut h = Heap::new(ReclaimMode::Rc);
        let mut seg = SharedHeap::new();
        let a = cell(&mut h, vec![Value::Int(1)]);
        let _shared = h.mark_shared(Value::Ref(a), &mut seg).unwrap();
        // One outstanding reference never dropped: a leak at join.
        let err = check_shared_at_join(&seg).unwrap_err();
        assert!(err.contains("still live"), "{err}");
        // A pinned survivor is fine.
        let mut h2 = Heap::new(ReclaimMode::Rc);
        let mut seg2 = SharedHeap::new();
        let child = cell(&mut h2, vec![Value::Int(2)]);
        let b = cell(&mut h2, vec![Value::Ref(child)]);
        *h2.header_mut(b).unwrap() = crate::heap::STICKY;
        let _shared = h2.mark_shared(Value::Ref(b), &mut seg2).unwrap();
        let report = check_shared_at_join(&seg2).unwrap();
        assert_eq!(report.live_blocks, 2);
        assert_eq!(report.pinned_blocks, 2, "pinned root and its holdings");
    }
}
