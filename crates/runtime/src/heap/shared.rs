//! The thread-shared heap segment — the *real* atomic half of §2.7.2's
//! dual-mode reference counting, extended with the CIRC-style surface
//! of SNIPPETS.md snippet 1: epoch-protected **snapshot reads** that pay
//! zero atomic RMWs, **weak references** for the §2.7.3 cycle scenario,
//! and **epoch-based reclamation** of dead slots.
//!
//! Thread-local blocks live in [`crate::heap::Heap`] and pay plain
//! non-atomic counting. When a value crosses a thread boundary,
//! [`crate::heap::Heap::mark_shared`] moves its whole reachable closure
//! into a `SharedHeap`. Each slot's header packs **two counts into one
//! `AtomicU64`**: the low 32 bits are the *strong* count in the paper's
//! negative encoding (more negative = more references, `0` = dead,
//! at or below [`STICKY`] = pinned forever), the high 32 bits are the
//! *weak* count. A single sign test on the strong half still
//! distinguishes the fast path from the slow path.
//!
//! Concurrency model:
//!
//! * the segment is **frozen before it is shared**: blocks are installed
//!   through `&mut self`, then the whole segment is wrapped in an `Arc`
//!   and handed to the worker threads. Fields are never *written* again
//!   — but since dead slots are now reclaimed, field *storage* may be
//!   released mid-run, so reads are protected by the epoch scheme of
//!   [`crate::heap::epoch`] (every attached heap is a pinned
//!   participant; see the module docs there for the full argument);
//! * **snapshot reads pay no RMW at all**: code compiled with borrow
//!   inference (L3, `PassConfig::perceus_borrowing`) never consumes a
//!   borrowed parameter, so a read-only traversal of a shared structure
//!   executes zero `dup`/`drop` — the pinned epoch guard alone keeps
//!   the storage alive. `Stats::atomic_ops` stays exactly 0 on that
//!   path, which is what restores near-linear read scaling;
//! * `dup`/`drop`/`upgrade`/weak ops are the only run-time mutations,
//!   and they touch only the atomic header. Increments use relaxed
//!   ordering; `drop` uses acquire-release (the `Arc` protocol);
//! * a drop that wins the race to zero marks the block dead (strong
//!   half 0), pushes its strong children onto the *caller's* worklist,
//!   releases its weak children inline, updates the packed live/free
//!   gauge with **one** RMW (so `installs == live_blocks + frees` holds
//!   under any interleaving — the gauge-skew fix), and **retires the
//!   slot through the epoch queue**. [`SharedHeap::try_reclaim`] later
//!   frees the field storage once no pinned reader can still hold a
//!   view of it — dead slots no longer live until segment drop;
//! * a [`Weak`](Value::Weak) reference never keeps a block alive and
//!   never reads its fields: `upgrade` CASes the strong count back up
//!   and fails deterministically once the block is dead. Weak counts
//!   live in the slot entry (header + generation + tag), which is never
//!   freed, so dangling weaks are always safe and always detected.
//!
//! Shared blocks only ever reference other shared blocks (`mark_shared`
//! moves transitively), which is what makes the per-thread local heaps
//! independent: no local block is ever reachable from another thread.

use crate::error::RuntimeError;
use crate::heap::epoch::Collector;
use crate::heap::stats::Stats;
use crate::heap::{BlockTag, BlockView, STICKY};
use crate::value::{Addr, Field, Value};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

// ---- packed header helpers -------------------------------------------
//
// One `AtomicU64` per slot: low 32 bits = strong count as an `i32` in
// the negative encoding (0 dead, <0 live, <=STICKY pinned), high 32
// bits = weak count as a `u32`. Packing keeps strong/weak transitions
// single-RMW and lets the closing CAS observe both halves at once.

#[inline]
fn strong_of(h: u64) -> i32 {
    h as u32 as i32
}

#[inline]
fn weak_of(h: u64) -> u32 {
    (h >> 32) as u32
}

#[inline]
fn pack(strong: i32, weak: u32) -> u64 {
    ((weak as u64) << 32) | (strong as u32 as u64)
}

/// A block in the shared segment.
struct SharedSlot {
    /// Packed strong/weak header (see module docs).
    header: AtomicU64,
    /// Slot generation, bumped when the storage is reclaimed. Strong
    /// operations validate it, so even a hypothetical future slot reuse
    /// keeps stale addresses deterministic ([`RuntimeError::UseAfterFree`]).
    gen: AtomicU32,
    tag: BlockTag,
    /// Field storage. Immutable after the freeze; replaced with an
    /// empty box by [`SharedHeap::try_reclaim`] once the epoch scheme
    /// proves no reader can hold a view (the single writer is whoever
    /// drained the slot's index from the retirement queue — the queue
    /// mutex hands each index to exactly one caller, ever).
    fields: UnsafeCell<Box<[Field]>>,
}

// SAFETY: `fields` is written (a) before the freeze through `&mut self`
// and (b) by the single reclaimer that drained this slot's index, at a
// point where the epoch collector proves no participant can hold a
// borrow of the storage and the dead header turns every new access into
// a deterministic error. All other access is read-only.
unsafe impl Sync for SharedSlot {}
unsafe impl Send for SharedSlot {}

impl SharedSlot {
    /// SAFETY: caller must be a pinned participant (or the segment must
    /// be quiescent); see the struct-level safety comment.
    #[inline]
    unsafe fn fields(&self) -> &[Field] {
        unsafe { &*self.fields.get() }
    }

    fn words(&self) -> u64 {
        // Pre-freeze / quiescent use only (install, join audits).
        unsafe { self.fields() }.len() as u64 + 1
    }
}

/// The append-only thread-shared segment. Built single-threadedly (via
/// `&mut self`), then frozen in an `Arc` and attached to every worker's
/// local [`crate::heap::Heap`].
#[derive(Default)]
pub struct SharedHeap {
    slots: Vec<SharedSlot>,
    /// Blocks moved in by the share barrier.
    installs: u64,
    /// Words moved in (fields + header), for the working-set figures.
    install_words: u64,
    /// Packed gauge: `(live_blocks << 32) | frees`. The closing CAS
    /// updates both halves with one RMW, so any snapshot observes
    /// `installs == live_blocks + frees` exactly — never the transient
    /// skew three independent counters allowed.
    counts: AtomicU64,
    /// Currently live words. Updated separately from `counts` (word
    /// sizes do not pack), so it may trail the block gauge by a few
    /// words mid-race; it is advisory, used only for working-set plots.
    live_words: AtomicU64,
    /// Dead slots whose storage was actually released by
    /// [`SharedHeap::try_reclaim`].
    reclaimed_blocks: AtomicU64,
    /// Field words released by reclamation (excluding the header word,
    /// which lives in the slot entry and is never released).
    reclaimed_words: AtomicU64,
    /// The epoch collector guarding field storage (see
    /// [`crate::heap::epoch`]).
    epoch: Collector,
}

impl SharedHeap {
    /// An empty segment.
    pub fn new() -> Self {
        SharedHeap::default()
    }

    /// Number of slots ever installed (live + dead).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no block was ever installed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Currently live shared blocks.
    pub fn live_blocks(&self) -> u64 {
        self.counts.load(Ordering::Acquire) >> 32
    }

    /// The epoch collector guarding this segment's storage. Attached
    /// heaps register here; tests and drivers may inspect it.
    pub fn collector(&self) -> &Collector {
        &self.epoch
    }

    /// `(blocks, field_words)` physically released by reclamation.
    pub fn reclaimed(&self) -> (u64, u64) {
        (
            self.reclaimed_blocks.load(Ordering::Acquire),
            self.reclaimed_words.load(Ordering::Acquire),
        )
    }

    /// Installs a block moved in by the share barrier. `count` is the
    /// (positive) number of outstanding references; `pinned` carries a
    /// sticky local count over into the shared encoding. A count so
    /// large it would cross the sticky floor is clamped *at* the floor
    /// — pinning the block — rather than silently landing below it
    /// (the same overflow discipline `retain` applies).
    pub(crate) fn install(
        &mut self,
        tag: BlockTag,
        fields: Box<[Field]>,
        count: u32,
        pinned: bool,
    ) -> Addr {
        debug_assert!(count >= 1, "shared install with no outstanding references");
        let strong = if pinned {
            STICKY
        } else {
            (-(count.min(i32::MAX as u32) as i32)).max(STICKY)
        };
        let slot = self.slots.len() as u32;
        debug_assert!(slot < u32::MAX, "shared segment gauge overflow");
        let words = fields.len() as u64 + 1;
        self.slots.push(SharedSlot {
            header: AtomicU64::new(pack(strong, 0)),
            gen: AtomicU32::new(0),
            tag,
            fields: UnsafeCell::new(fields),
        });
        self.installs += 1;
        self.install_words += words;
        *self.counts.get_mut() += 1 << 32;
        *self.live_words.get_mut() += words;
        Addr::shared(slot, 0)
    }

    /// Builder API (pre-freeze): installs a block directly into the
    /// segment with `count` outstanding strong references. Used by
    /// drivers and tests that construct shared structures — e.g. the
    /// §2.7.3 cycle demonstration — without routing through a local
    /// heap (whose `mark_shared` barrier rejects cyclic data).
    pub fn alloc(&mut self, tag: BlockTag, fields: Box<[Value]>, count: u32) -> Addr {
        let fields = fields.into_vec().into_iter().map(Field::new).collect();
        self.install(tag, fields, count, false)
    }

    /// Builder API (pre-freeze): mints a weak reference to `addr`,
    /// bumping its weak count non-atomically. The returned
    /// [`Value::Weak`] owns one weak count (released by a later
    /// `drop`).
    pub fn downgrade(&mut self, addr: Addr) -> Result<Value, RuntimeError> {
        let slot = self.slot_mut(addr)?;
        let h = slot.header.get_mut();
        if strong_of(*h) == 0 {
            return Err(RuntimeError::UseAfterFree(addr));
        }
        *h = pack(strong_of(*h), weak_of(*h).saturating_add(1));
        Ok(Value::Weak(addr))
    }

    /// Builder API (pre-freeze): overwrites field `idx` of `parent` —
    /// the knot-tying write that makes cyclic structures (forward
    /// strong edges + weak back edges) constructible. The overwritten
    /// value must not own references (pass the placeholder it was
    /// installed with, e.g. `Value::Unit`).
    pub fn link(&mut self, parent: Addr, idx: usize, v: Value) -> Result<(), RuntimeError> {
        let slot = self.slot_mut(parent)?;
        if strong_of(*slot.header.get_mut()) == 0 {
            return Err(RuntimeError::UseAfterFree(parent));
        }
        let fields = slot.fields.get_mut();
        let Some(f) = fields.get_mut(idx) else {
            return Err(RuntimeError::Internal(format!(
                "link: block {parent} has no field {idx}"
            )));
        };
        debug_assert!(
            f.addr().is_none() && f.weak().is_none(),
            "link would overwrite an owning reference"
        );
        *f = Field::new(v);
        Ok(())
    }

    /// Adds `extra` references to a shared value before the segment is
    /// frozen (the driver uses this to hand each worker thread its own
    /// reference to the shared root). Non-atomic: requires `&mut self`.
    pub fn retain(&mut self, v: Value, extra: u32) -> Result<(), RuntimeError> {
        let Value::Ref(addr) = v else { return Ok(()) };
        let slot = self.slot_mut(addr)?;
        let h = slot.header.get_mut();
        let s = strong_of(*h);
        if s == 0 {
            return Err(RuntimeError::UseAfterFree(addr));
        }
        if s > 0 {
            return Err(RuntimeError::Internal(format!(
                "shared block {addr} has non-shared header {s}"
            )));
        }
        if s > STICKY {
            // More negative = more references; clamping at the sticky
            // floor pins the block (the overflow discipline of §2.7.2).
            let s = s
                .saturating_sub(extra.min(i32::MAX as u32) as i32)
                .max(STICKY);
            *h = pack(s, weak_of(*h));
        }
        Ok(())
    }

    fn slot(&self, addr: Addr) -> Result<&SharedSlot, RuntimeError> {
        debug_assert!(addr.is_shared());
        self.slots
            .get(addr.shared_slot())
            .ok_or(RuntimeError::BadAddress(addr))
    }

    fn slot_mut(&mut self, addr: Addr) -> Result<&mut SharedSlot, RuntimeError> {
        debug_assert!(addr.is_shared());
        self.slots
            .get_mut(addr.shared_slot())
            .ok_or(RuntimeError::BadAddress(addr))
    }

    /// Generation-validated slot access for strong operations: a stale
    /// generation (the slot was reclaimed, and hypothetically reused)
    /// is a deterministic use-after-free, mirroring the local heap.
    fn live_slot(&self, addr: Addr) -> Result<&SharedSlot, RuntimeError> {
        let slot = self.slot(addr)?;
        if slot.gen.load(Ordering::Acquire) != addr.gen {
            return Err(RuntimeError::UseAfterFree(addr));
        }
        Ok(slot)
    }

    /// Reads a block. Dead slots (strong count already zero) surface as
    /// a deterministic use-after-free, mirroring the generation check
    /// of the local heap.
    ///
    /// The caller must be an epoch participant pinned no later than any
    /// retirement of this slot (every attached [`crate::heap::Heap`]
    /// is), or the segment must be quiescent — that is what makes the
    /// returned field borrow safe against concurrent reclamation.
    pub(crate) fn view(&self, addr: Addr) -> Result<BlockView<'_>, RuntimeError> {
        let slot = self.live_slot(addr)?;
        let header = slot.header.load(Ordering::Acquire);
        if strong_of(header) == 0 {
            return Err(RuntimeError::UseAfterFree(addr));
        }
        // SAFETY: strong count observed nonzero under the caller's pin
        // (or quiescence): the storage cannot be reclaimed while this
        // borrow lives (see module docs and `epoch`).
        let fields = unsafe { slot.fields() };
        Ok(BlockView {
            header: strong_of(header),
            tag: slot.tag,
            fields,
            shared: true,
        })
    }

    /// `dup` on a shared block: one real atomic RMW toward the sticky
    /// floor (relaxed ordering suffices for increments, as in `Arc`).
    /// Pinned blocks are left untouched without any RMW. Returns the
    /// strong header after the operation and whether an RMW actually
    /// happened (false for pinned blocks, whose counts are frozen by
    /// design) — the caller's per-session reference ledger only moves
    /// when the count does.
    pub(crate) fn dup(&self, addr: Addr, stats: &mut Stats) -> Result<(i32, bool), RuntimeError> {
        let slot = self.live_slot(addr)?;
        match slot
            .header
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |h| {
                let s = strong_of(h);
                if s > STICKY && s < 0 {
                    Some(pack(s - 1, weak_of(h)))
                } else {
                    None
                }
            }) {
            Ok(prev) => {
                stats.atomic_ops += 1;
                Ok((strong_of(prev) - 1, true))
            }
            Err(h) => match strong_of(h) {
                0 => Err(RuntimeError::UseAfterFree(addr)),
                pinned if pinned <= STICKY => Ok((pinned, false)),
                bad => Err(RuntimeError::Internal(format!(
                    "shared block {addr} has non-shared header {bad}"
                ))),
            },
        }
    }

    /// `drop` on a shared block: one real atomic RMW with
    /// acquire-release ordering. Exactly one thread observes the count
    /// reach zero; that thread pushes the strong children onto `work`
    /// (they are shared blocks themselves), releases the weak children
    /// inline, updates the packed live/free gauge with a single RMW,
    /// and retires the slot through the epoch queue. Returns the strong
    /// header after the operation and whether an RMW actually happened
    /// (false for pinned blocks).
    pub(crate) fn drop_ref(
        &self,
        addr: Addr,
        stats: &mut Stats,
        work: &mut Vec<Addr>,
    ) -> Result<(i32, bool), RuntimeError> {
        let slot = self.live_slot(addr)?;
        match slot
            .header
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |h| {
                let s = strong_of(h);
                if s > STICKY && s < 0 {
                    Some(pack(s + 1, weak_of(h)))
                } else {
                    None
                }
            }) {
            Ok(prev) => {
                stats.atomic_ops += 1;
                let after = strong_of(prev) + 1;
                if after == 0 {
                    // This thread won the closing CAS: release the
                    // children exactly once. We are a pinned epoch
                    // participant and the slot cannot have been retired
                    // before this very CAS, so the field read is safe;
                    // racing threads with stale addresses fail
                    // deterministically on the dead strong count.
                    // SAFETY: see above.
                    let fields = unsafe { slot.fields() };
                    for f in fields.iter() {
                        if let Some(child) = f.addr() {
                            debug_assert!(
                                child.is_shared(),
                                "shared block held a thread-local reference"
                            );
                            work.push(child);
                        } else if let Some(child) = f.weak() {
                            // Weak edges never cascade: release the
                            // count inline.
                            self.weak_drop(child, stats)?;
                        }
                    }
                    // One RMW moves a block from `live` to `freed`:
                    // `installs == live_blocks + frees` holds at every
                    // instant, under any interleaving.
                    self.counts
                        .fetch_add((u64::MAX << 32) | 1, Ordering::AcqRel);
                    self.live_words.fetch_sub(slot.words(), Ordering::AcqRel);
                    // Defer the storage free until no pinned reader can
                    // hold a view (the retention fix: dead slots no
                    // longer live until segment drop).
                    self.epoch.retire(addr.shared_slot() as u32);
                }
                Ok((after, true))
            }
            Err(h) => match strong_of(h) {
                0 => Err(RuntimeError::UseAfterFree(addr)),
                pinned if pinned <= STICKY => Ok((pinned, false)),
                bad => Err(RuntimeError::Internal(format!(
                    "shared block {addr} has non-shared header {bad}"
                ))),
            },
        }
    }

    // ---- weak references (§2.7.3 via CIRC's Weak) --------------------

    /// Clones a weak reference: one RMW on the weak half. Legal even
    /// when the block is already dead (a weak of a dead block is still
    /// a value); the count saturates at `u32::MAX` (then pinned, like
    /// the sticky floor).
    pub(crate) fn weak_dup(&self, addr: Addr, stats: &mut Stats) -> Result<u32, RuntimeError> {
        let slot = self.slot(addr)?;
        let prev = slot
            .header
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |h| {
                match weak_of(h) {
                    u32::MAX => None, // saturated: pinned, no RMW
                    w => Some(pack(strong_of(h), w + 1)),
                }
            });
        match prev {
            Ok(h) => {
                stats.atomic_ops += 1;
                Ok(weak_of(h) + 1)
            }
            Err(h) => Ok(weak_of(h)),
        }
    }

    /// Releases a weak reference: one RMW on the weak half. The slot
    /// entry itself (header, generation, tag) is never freed, so this
    /// is always safe — even long after the storage was reclaimed.
    pub(crate) fn weak_drop(&self, addr: Addr, stats: &mut Stats) -> Result<u32, RuntimeError> {
        let slot = self.slot(addr)?;
        let prev =
            slot.header
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |h| match weak_of(h) {
                    0 => None,
                    u32::MAX => None, // saturated: pinned
                    w => Some(pack(strong_of(h), w - 1)),
                });
        match prev {
            Ok(h) => {
                stats.atomic_ops += 1;
                Ok(weak_of(h) - 1)
            }
            Err(h) if weak_of(h) == u32::MAX => Ok(u32::MAX),
            Err(_) => Err(RuntimeError::Internal(format!(
                "weak over-release on shared block {addr}"
            ))),
        }
    }

    /// Attempts to upgrade a weak reference to a strong one: a CAS that
    /// re-increments the strong count *only if the block is still
    /// alive*. Returns `Ok(Some((after, counted)))` on success (the
    /// caller now owns one strong reference; `counted` is false for
    /// pinned blocks, where no RMW ran) or `Ok(None)` —
    /// deterministically — once the block is dead. The weak reference
    /// itself is not consumed.
    pub(crate) fn upgrade(
        &self,
        addr: Addr,
        stats: &mut Stats,
    ) -> Result<Option<(i32, bool)>, RuntimeError> {
        let slot = self.slot(addr)?;
        match slot
            .header
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |h| {
                let s = strong_of(h);
                if s > STICKY && s < 0 {
                    Some(pack(s - 1, weak_of(h)))
                } else {
                    None
                }
            }) {
            Ok(prev) => {
                stats.atomic_ops += 1;
                Ok(Some((strong_of(prev) - 1, true)))
            }
            Err(h) => match strong_of(h) {
                0 => Ok(None), // dead: upgrade fails deterministically
                pinned if pinned <= STICKY => Ok(Some((pinned, false))),
                bad => Err(RuntimeError::Internal(format!(
                    "shared block {addr} has non-shared header {bad}"
                ))),
            },
        }
    }

    /// The current weak count of a slot (tests / audits).
    pub fn weak_count(&self, addr: Addr) -> Result<u32, RuntimeError> {
        Ok(weak_of(self.slot(addr)?.header.load(Ordering::Acquire)))
    }

    // ---- epoch reclamation -------------------------------------------

    /// Releases the field storage of every retired slot no pinned
    /// participant can still see (see [`crate::heap::epoch`]). Returns
    /// the number of slots reclaimed. Called from
    /// [`crate::heap::Heap::attach_shared`] / detach and callable any
    /// time; the caller must not hold a [`BlockView`] into this segment
    /// across the call unless it is a pinned participant (attached
    /// heaps always are — their pin makes their own views safe).
    pub fn try_reclaim(&self) -> u64 {
        let mut safe = Vec::new();
        self.epoch.drain_safe(&mut safe);
        if safe.is_empty() {
            return 0;
        }
        let mut blocks = 0;
        let mut words = 0;
        for idx in safe {
            let slot = &self.slots[idx as usize];
            debug_assert_eq!(
                strong_of(slot.header.load(Ordering::Acquire)),
                0,
                "reclaiming a live slot"
            );
            // Bump the generation first: even a (buggy) racing strong
            // access now fails the generation check before the swap.
            slot.gen.fetch_add(1, Ordering::AcqRel);
            // SAFETY: this thread drained `idx` from the retirement
            // queue, so it is the unique writer; the epoch frontier
            // proves no participant still holds a borrow of the
            // storage, and the dead header denies every new borrow.
            let storage = unsafe { &mut *slot.fields.get() };
            words += storage.len() as u64;
            *storage = Box::new([]);
            blocks += 1;
        }
        self.reclaimed_blocks.fetch_add(blocks, Ordering::AcqRel);
        self.reclaimed_words.fetch_add(words, Ordering::AcqRel);
        blocks
    }

    /// Iterates every slot with its current strong header, weak count
    /// and fields (audit support; call only when the segment is
    /// quiescent — e.g. at thread join). Reclaimed slots show their
    /// dead header and empty fields.
    pub(crate) fn iter_slots(&self) -> impl Iterator<Item = (Addr, i32, u32, &[Field])> + '_ {
        self.slots.iter().enumerate().map(|(i, s)| {
            let h = s.header.load(Ordering::Acquire);
            (
                Addr::shared(i as u32, s.gen.load(Ordering::Acquire)),
                strong_of(h),
                weak_of(h),
                // SAFETY: quiescent by contract — no concurrent
                // reclaimer can swap the storage under this borrow.
                unsafe { s.fields() },
            )
        })
    }

    /// A `Stats` snapshot for this segment, mergeable with the worker
    /// threads' stats. Blocks moved in by the share barrier were already
    /// counted as allocations *and* as `shared_marks` by the marking
    /// heap (the barrier transfers live accounting rather than
    /// re-counting), so only the segment's own gauges and run-time
    /// frees appear here.
    ///
    /// Consistency: `live_blocks` and `frees` come from one packed
    /// atomic load, so `installs == live_blocks + frees` holds exactly
    /// even while other threads race their closing CASes.
    pub fn snapshot(&self) -> Stats {
        let counts = self.counts.load(Ordering::Acquire);
        Stats {
            frees: counts & 0xFFFF_FFFF,
            live_blocks: counts >> 32,
            live_words: self.live_words.load(Ordering::Acquire),
            // The segment's high-water mark is its build-time size: it
            // only shrinks after the freeze.
            peak_live_blocks: self.installs,
            peak_live_words: self.install_words,
            ..Stats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perceus_core::ir::CtorId;

    fn ctor() -> BlockTag {
        BlockTag::Ctor(CtorId(0))
    }

    #[test]
    fn install_clamps_huge_counts_at_the_sticky_floor() {
        let mut seg = SharedHeap::new();
        // One below the floor magnitude: plain (very) negative count.
        let near = seg.install(ctor(), Box::new([]), STICKY.unsigned_abs() - 1, false);
        let v = seg.view(near).unwrap();
        assert_eq!(v.header, -((STICKY.unsigned_abs() - 1) as i32));
        assert!(v.header > STICKY);
        // At and beyond the floor magnitude: clamped exactly at STICKY,
        // never silently below it.
        for count in [STICKY.unsigned_abs(), STICKY.unsigned_abs() + 1, u32::MAX] {
            let a = seg.install(ctor(), Box::new([]), count, false);
            assert_eq!(seg.view(a).unwrap().header, STICKY, "count {count}");
            // Pinned: dup performs no RMW and reports no count motion.
            let mut stats = Stats::default();
            let (after, counted) = seg.dup(a, &mut stats).unwrap();
            assert_eq!(after, STICKY);
            assert!(!counted);
            assert_eq!(stats.atomic_ops, 0);
        }
    }

    #[test]
    fn packed_gauge_keeps_installs_equal_to_live_plus_frees() {
        let mut seg = SharedHeap::new();
        let a = seg.install(ctor(), Box::new([]), 1, false);
        let b = seg.install(ctor(), Box::new([]), 1, false);
        let snap = seg.snapshot();
        assert_eq!(snap.live_blocks, 2);
        assert_eq!(snap.frees, 0);
        let mut stats = Stats::default();
        let mut work = Vec::new();
        seg.drop_ref(a, &mut stats, &mut work).unwrap();
        let snap = seg.snapshot();
        assert_eq!(snap.live_blocks + snap.frees, 2);
        assert_eq!(snap.frees, 1);
        seg.drop_ref(b, &mut stats, &mut work).unwrap();
        let snap = seg.snapshot();
        assert_eq!(snap.live_blocks, 0);
        assert_eq!(snap.frees, 2);
    }

    #[test]
    fn dead_slots_retire_through_the_epoch_queue_and_reclaim() {
        let mut seg = SharedHeap::new();
        let payload: Box<[Field]> = (0..8).map(|i| Field::new(Value::Int(i))).collect();
        let a = seg.install(ctor(), payload, 1, false);
        let mut stats = Stats::default();
        let mut work = Vec::new();
        seg.drop_ref(a, &mut stats, &mut work).unwrap();
        assert_eq!(seg.collector().pending(), 1, "retired, not yet freed");
        assert_eq!(seg.reclaimed(), (0, 0));
        // No participants: reclaimable immediately.
        assert_eq!(seg.try_reclaim(), 1);
        assert_eq!(seg.reclaimed(), (1, 8));
        // Stale strong access after reclaim: deterministic error (the
        // generation no longer matches).
        assert!(matches!(seg.view(a), Err(RuntimeError::UseAfterFree(_))));
        let mut stats = Stats::default();
        assert!(seg.dup(a, &mut stats).is_err());
    }

    #[test]
    fn a_pinned_participant_blocks_reclaim_until_it_ticks() {
        let mut seg = SharedHeap::new();
        let a = seg.alloc(ctor(), Box::new([Value::Int(1)]), 1);
        let reader = seg.collector().register();
        let mut stats = Stats::default();
        let mut work = Vec::new();
        seg.drop_ref(a, &mut stats, &mut work).unwrap();
        assert_eq!(seg.try_reclaim(), 0, "reader pinned before retirement");
        seg.collector().repin(&reader); // quiescent tick
        assert_eq!(seg.try_reclaim(), 1);
        seg.collector().unregister(&reader);
    }

    #[test]
    fn weak_upgrade_succeeds_live_and_fails_dead_deterministically() {
        let mut seg = SharedHeap::new();
        let a = seg.alloc(ctor(), Box::new([Value::Int(7)]), 1);
        let w = seg.downgrade(a).unwrap();
        let Value::Weak(wa) = w else { panic!() };
        assert_eq!(seg.weak_count(a).unwrap(), 1);
        let mut stats = Stats::default();
        // Live: upgrade mints a strong reference.
        let up = seg.upgrade(wa, &mut stats).unwrap();
        assert_eq!(up, Some((-2, true)));
        let mut work = Vec::new();
        seg.drop_ref(wa, &mut stats, &mut work).unwrap(); // return upgraded ref
        seg.drop_ref(a, &mut stats, &mut work).unwrap(); // last strong: dead

        // Dead: upgrade fails deterministically, forever — even after
        // the storage is physically reclaimed.
        assert_eq!(seg.upgrade(wa, &mut stats).unwrap(), None);
        seg.try_reclaim();
        assert_eq!(seg.upgrade(wa, &mut stats).unwrap(), None);
        // The weak count survives reclamation (the slot entry is never
        // freed) and releases cleanly.
        assert_eq!(seg.weak_count(wa).unwrap(), 1);
        seg.weak_drop(wa, &mut stats).unwrap();
        assert_eq!(seg.weak_count(wa).unwrap(), 0);
    }

    #[test]
    fn closing_cas_releases_weak_children_inline() {
        let mut seg = SharedHeap::new();
        let target = seg.alloc(ctor(), Box::new([]), 1);
        let w = seg.downgrade(target).unwrap();
        let holder = seg.alloc(ctor(), Box::new([w]), 1);
        assert_eq!(seg.weak_count(target).unwrap(), 1);
        let mut stats = Stats::default();
        let mut work = Vec::new();
        seg.drop_ref(holder, &mut stats, &mut work).unwrap();
        assert!(work.is_empty(), "weak edges never cascade");
        assert_eq!(seg.weak_count(target).unwrap(), 0, "released inline");
        seg.drop_ref(target, &mut stats, &mut work).unwrap();
        assert_eq!(seg.snapshot().live_blocks, 0);
    }
}
