//! The reference-counted heap — the runtime realization of the heap
//! semantics of Fig. 7, with the representation choices of §2.7:
//!
//! * each block carries a signed header: positive values are plain
//!   reference counts; negative values are *thread-shared* counts that
//!   take the slow path; values at or below the sticky floor never
//!   change again (§2.7.2's overflow/pinning range);
//! * the heap is **two segments**: this thread-local one (plain `i32`
//!   headers, non-atomic counting — the fast path §2.7.2 promises) and
//!   an optional attached [`shared::SharedHeap`] whose headers are real
//!   `AtomicI32`s. [`Heap::mark_shared`] is the *share barrier*: it
//!   moves a value's reachable closure into the shared segment when the
//!   value crosses a thread boundary. Addresses carry the segment in
//!   their high bit, so every counting entry point routes with a single
//!   branch;
//! * `drop` frees recursively with an explicit worklist (no native-stack
//!   recursion, so dropping a million-element list is safe);
//! * `drop-reuse` returns the cell as a *reuse token* instead of freeing
//!   it (§2.4); a token is later consumed by a constructor-with-reuse
//!   (in-place build) or released by `drop-token`;
//! * every address is generation-checked, so a use-after-free in
//!   generated code is a deterministic error, not corruption;
//! * a block is a 16-byte **header record** plus an **extent of one
//!   field arena** the heap owns — no `malloc` per cell. Fields are
//!   stored as packed 9-byte [`Field`]s (both segments store them so),
//!   decoded to [`Value`]s only where a reader binds them. The extent is
//!   assigned when the header is first created and never split, merged
//!   or moved; a dead header is **relisted by exact field count** on
//!   size-class free lists threaded through the dead headers
//!   themselves, the design Lean's runtime uses (Ullrich & de Moura,
//!   *Counting Immutable Beans*), and the next same-arity allocation
//!   rewrites its extent in place. See `docs/RUNTIME.md`
//!   for the full memory model and the block state diagram
//!   (live → token → listed → recycled).
//!
//! The same heap serves the tracing-GC and arena baselines: in those
//! modes the counting entry points are inert and reclamation is driven
//! by [`crate::gc`] (or not at all).

pub mod epoch;
// The one module with `unsafe`: the shared segment's field cells.
#[allow(unsafe_code)]
pub mod shared;
pub mod stats;

pub use shared::SharedHeap;
pub use stats::{Stats, SCHEDULE_KEYS};

use crate::error::RuntimeError;
use crate::profile::{FrameKind, Profiler};
use crate::value::{Addr, Field, Value};
use perceus_core::ir::CtorId;
use perceus_core::passes::Validation;
use std::collections::HashMap;
use std::sync::Arc;

/// Identifies a lambda's code in the compiled program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LamId(pub u32);

/// What a heap block is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockTag {
    /// A data constructor cell.
    Ctor(CtorId),
    /// A closure: code pointer + captured environment.
    Closure(LamId),
    /// A first-class mutable reference cell (§2.7.3).
    MutRef,
}

/// A header record's lifecycle state (see the diagram in
/// `docs/RUNTIME.md`), stored as its discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// A live block (or one claimed by a reuse token, count 0).
    Used,
    /// Dead and threaded on the free list of its field count: neither
    /// live nor a leak, and the generation has already been bumped, so
    /// every stale address errors deterministically. Its `count` holds
    /// the next listed header's index.
    Listed,
    /// Dead and on no list: vacated with recycling off. Its extent is
    /// never handed out again.
    Vacant,
}

/// Constructor and lambda ids a block can carry: the 21 bits of a
/// header's `meta` word left by kind, state, mark and the inline field
/// count. `code::compile` refuses a program with more.
pub const ID_LIMIT: u32 = 1 << 21;

/// The end of the free lists (local indices are below 2³¹).
const NIL: u32 = u32::MAX;

/// The fixed-size record of one block. [`Addr::index`] is its position
/// in [`Heap::headers`]; its fields are the extent of the arena that
/// starts at `off`, assigned once, when the record is created, and kept
/// for the life of the heap.
#[derive(Debug, Clone, Copy)]
struct Header {
    /// Bumped at every death, so a stale address never names the
    /// extent's next tenant.
    gen: u32,
    /// Signed reference count (see module docs). `0` means the cell is
    /// *claimed* by a reuse token: memory held, contents meaningless.
    /// A listed header's count is the index of the next header on its
    /// free list ([`NIL`] at the end).
    count: i32,
    off: u32,
    /// Packed, low bit first: kind (2 bits), state (2), mark (1), the
    /// inline field count (6; [`Header::WIDE`] escapes to the tiling)
    /// and the [`CtorId`]/[`LamId`] payload (21).
    meta: u32,
}

// A million-cell heap is a million of these.
const _: () = assert!(std::mem::size_of::<Header>() == 16);

impl Header {
    const STATE_SHIFT: u32 = 2;
    const MARK: u32 = 1 << 4;
    const LEN_SHIFT: u32 = 5;
    /// The inline count of a block with more than 62 fields: its extent
    /// ends where the next header's begins (or at the arena's end), the
    /// tiling `check_extents` verifies.
    const WIDE: u32 = 0x3f;
    const ID_SHIFT: u32 = 11;

    /// A used header (state bits 0) with count 1.
    fn new(tag: BlockTag, off: u32, len: u32) -> Self {
        let mut h = Header {
            gen: 0,
            count: 1,
            off,
            meta: len.min(Self::WIDE) << Self::LEN_SHIFT,
        };
        h.set_tag(tag);
        h
    }

    #[inline(always)]
    fn state(&self) -> State {
        match (self.meta >> Self::STATE_SHIFT) & 3 {
            0 => State::Used,
            1 => State::Listed,
            _ => State::Vacant,
        }
    }

    fn set_state(&mut self, state: State) {
        self.meta = (self.meta & !(3 << Self::STATE_SHIFT)) | ((state as u32) << Self::STATE_SHIFT);
    }

    fn mark(&self) -> bool {
        self.meta & Self::MARK != 0
    }

    fn set_mark(&mut self, mark: bool) {
        self.meta = (self.meta & !Self::MARK) | if mark { Self::MARK } else { 0 };
    }

    /// The field count, or `None` for a block wider than the inline
    /// count holds.
    #[inline(always)]
    fn inline_len(&self) -> Option<usize> {
        let len = (self.meta >> Self::LEN_SHIFT) & Self::WIDE;
        (len != Self::WIDE).then_some(len as usize)
    }

    #[inline(always)]
    fn tag(&self) -> BlockTag {
        let id = self.meta >> Self::ID_SHIFT;
        match self.meta & 3 {
            0 => BlockTag::Ctor(CtorId(id)),
            1 => BlockTag::Closure(LamId(id)),
            _ => BlockTag::MutRef,
        }
    }

    /// Stores `tag`. Its id must be below [`ID_LIMIT`].
    #[inline]
    fn set_tag(&mut self, tag: BlockTag) {
        let (kind, id) = match tag {
            BlockTag::Ctor(c) => (0, c.0),
            BlockTag::Closure(l) => (1, l.0),
            BlockTag::MutRef => (2, 0),
        };
        assert!(id < ID_LIMIT, "block id {id} does not fit a header");
        let keep = ((1 << Self::ID_SHIFT) - 1) & !3;
        self.meta = (self.meta & keep) | (id << Self::ID_SHIFT) | kind;
    }
}

/// Header `index`'s fields within the arena: the inline count, or for a
/// wide block the tiling, which hands extents out in header order, back
/// to back.
#[inline(always)]
fn extent(headers: &[Header], arena_len: usize, index: usize) -> std::ops::Range<usize> {
    let h = &headers[index];
    let off = h.off as usize;
    match h.inline_len() {
        Some(len) => off..off + len,
        None => off..tiled_end(headers, arena_len, index),
    }
}

#[cold]
fn tiled_end(headers: &[Header], arena_len: usize, index: usize) -> usize {
    headers
        .get(index + 1)
        .map_or(arena_len, |next| next.off as usize)
}

/// One size class's free list, threaded through its listed headers'
/// `count` words.
#[derive(Debug, Clone, Copy)]
struct FreeList {
    head: u32,
    len: u32,
}

/// How the heap reclaims memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclaimMode {
    /// Precise reference counting (Perceus / scoped).
    Rc,
    /// Tracing collection: counting entry points are inert; the
    /// collector in [`crate::gc`] reclaims.
    Gc,
    /// Never reclaim (the paper's C++ leak baseline for deriv, nqueens,
    /// cfold).
    Arena,
}

/// Reference counts at or below this value are *sticky*: pinned alive
/// for the rest of the run (the paper's overflow mitigation).
pub const STICKY: i32 = i32::MIN / 2;

/// Number of exact size classes: field counts `0 ..= NUM_SIZE_CLASSES-1`
/// each get their own free list. Constructor arities in practice are
/// tiny (the suite's largest is red-black `Node` with 4 fields), so 16
/// classes cover everything; larger blocks share one overflow list that
/// is searched for an exact length.
pub const NUM_SIZE_CLASSES: usize = 16;

/// Allocator policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct HeapConfig {
    /// Serve allocations from the size-class free lists (on by
    /// default). Off, a vacated header is never relisted: every
    /// allocation bumps the arena (the "off" rows of the allocator
    /// ablation in `figures -- alloc`).
    pub recycle: bool,
    /// When active, release builds also pay the expensive runtime
    /// invariant checks (today: reuse-specialization skipped-field
    /// equality in [`Heap::alloc_into`]). Defaults to
    /// [`Validation::DebugOnly`].
    pub validation: Validation,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            recycle: true,
            validation: Validation::default(),
        }
    }
}

/// A read-only, segment-agnostic view of a block: the one shape both
/// the thread-local heap and the shared segment can serve, and the
/// only way to read a block (the machine's match/apply/read-back, the
/// auditor). Both segments store fields as packed [`Field`]s; a reader
/// decodes only the fields it uses.
pub struct BlockView<'a> {
    /// Signed header at read time (for shared blocks: an atomic load).
    pub header: i32,
    /// Block kind.
    pub tag: BlockTag,
    /// Fields (immutable for shared blocks by construction).
    pub fields: &'a [Field],
    /// True when the block lives in the shared segment.
    pub shared: bool,
}

/// The heap.
pub struct Heap {
    /// One record per block ever created, indexed by [`Addr::index`].
    headers: Vec<Header>,
    /// Every block's fields, 9 bytes each; a header names its extent.
    arena: Vec<Field>,
    /// Size-class segregated free lists: `lists[k]` threads the listed
    /// headers whose extent has exactly `k` fields, and the last list
    /// those with `NUM_SIZE_CLASSES` fields or more.
    lists: [FreeList; NUM_SIZE_CLASSES + 1],
    /// How many headers are [`State::Used`]: with none, `reset` and
    /// `iter_live` do not walk `headers`.
    used: usize,
    /// Reusable worklist for recursive drops (a fresh `Vec` per drop
    /// would put a malloc/free pair on the hottest rc path).
    drop_work: Vec<Addr>,
    config: HeapConfig,
    mode: ReclaimMode,
    /// The attached thread-shared segment, when this heap belongs to a
    /// worker thread of a parallel run (see [`Heap::attach_shared`]).
    shared: Option<Arc<SharedHeap>>,
    /// This heap's pin in the segment's epoch collector: registered on
    /// attach, re-pinned at quiescent points (`&mut self` methods that
    /// just dropped shared references — the borrow checker proves no
    /// [`BlockView`] is outstanding), deregistered on reset/drop. The
    /// pin is what makes every field borrow this heap hands out safe
    /// against concurrent reclamation of dead shared slots.
    epoch_pin: Option<Arc<epoch::Participant>>,
    /// Net shared-segment references this heap currently holds: +1 per
    /// counted shared `dup`, -1 per counted shared `drop`, with a
    /// freed shared block's outgoing references credited to the ledger
    /// the moment its children enter the drop worklist (they are then
    /// consumed by this heap). A balanced session ends at zero; a
    /// nonzero residue after [`Heap::reset`] is the session's
    /// un-returned shared references (see [`Heap::take_shared_drift`]).
    shared_held: u64,
    /// Runtime statistics.
    pub stats: Stats,
    /// The attributed profiler (see [`crate::profile`]), boxed to keep
    /// the disabled-by-default case one pointer wide.
    prof: Option<Box<Profiler>>,
}

impl Heap {
    /// Creates an empty heap in the given reclamation mode, with
    /// free-list recycling enabled.
    pub fn new(mode: ReclaimMode) -> Self {
        Self::with_config(mode, HeapConfig::default())
    }

    /// Creates an empty heap with an explicit allocator policy.
    pub fn with_config(mode: ReclaimMode, config: HeapConfig) -> Self {
        Heap {
            headers: Vec::new(),
            arena: Vec::new(),
            lists: [FreeList { head: NIL, len: 0 }; NUM_SIZE_CLASSES + 1],
            used: 0,
            drop_work: Vec::new(),
            config,
            mode,
            shared: None,
            epoch_pin: None,
            shared_held: 0,
            stats: Stats::default(),
            prof: None,
        }
    }

    /// Attaches a frozen thread-shared segment. Shared addresses (high
    /// bit set) route to it from every counting entry point; without an
    /// attachment they are [`RuntimeError::BadAddress`].
    ///
    /// Attaching registers this heap as a pinned participant in the
    /// segment's epoch collector: from here until [`Heap::reset`] (or
    /// drop), any dead slot the heap might still be reading keeps its
    /// storage. Attach also opportunistically reclaims storage retired
    /// before this pin.
    pub fn attach_shared(&mut self, segment: Arc<SharedHeap>) {
        self.detach_shared();
        self.epoch_pin = Some(segment.collector().register());
        segment.try_reclaim();
        self.shared = Some(segment);
    }

    /// Detaches the shared segment (if any): deregisters the epoch pin
    /// — releasing this heap's hold on retired storage — and reclaims
    /// whatever became safe.
    fn detach_shared(&mut self) {
        if let Some(sh) = self.shared.take() {
            if let Some(pin) = self.epoch_pin.take() {
                sh.collector().unregister(&pin);
            }
            sh.try_reclaim();
        }
        self.epoch_pin = None;
    }

    /// Re-pins this heap's epoch participant at the current epoch. Only
    /// called from `&mut self` methods — quiescent points where the
    /// borrow checker proves no [`BlockView`] borrow of this heap is
    /// outstanding — after shared drops that may have retired slots.
    #[inline]
    fn epoch_tick(&self) {
        if let (Some(sh), Some(pin)) = (self.shared.as_deref(), self.epoch_pin.as_deref()) {
            sh.collector().repin(pin);
        }
    }

    /// The attached shared segment, if any.
    #[cfg(test)]
    fn shared_segment(&self) -> Option<&SharedHeap> {
        self.shared.as_deref()
    }

    /// Net shared-segment references this heap currently holds: counted
    /// `dup`s minus counted `drop`s, with a freed shared block's
    /// outgoing references transferring onto the ledger as they enter
    /// the drop worklist. Zero whenever the heap's owner has spent
    /// every reference it minted.
    #[cfg(test)]
    fn shared_refs_held(&self) -> u64 {
        self.shared_held
    }

    /// Takes the shared-reference ledger residue (and zeroes it). The
    /// serving worker calls this after [`Heap::reset`]: a well-behaved
    /// session reads zero; a session aborted by a fuel/memory limit may
    /// die with shared references still rooted in dead machine frames,
    /// which cannot be returned safely (a consumed environment slot is
    /// indistinguishable from a live one without liveness info, and an
    /// over-drop could free a block other sessions still reference) —
    /// so the residue is surfaced as measured drift instead of
    /// vanishing silently.
    pub fn take_shared_drift(&mut self) -> u64 {
        std::mem::take(&mut self.shared_held)
    }

    /// Enables the attributed profiler (see [`crate::profile`]). Events
    /// counted before this point stay unattributed.
    pub fn enable_profile(&mut self) {
        self.prof = Some(Box::new(Profiler::open(&self.stats)));
    }

    /// True when the attributed profiler is enabled. The profile itself
    /// is read through [`Heap::take_profile`], which closes its open
    /// window first.
    pub fn profiling(&self) -> bool {
        self.prof.is_some()
    }

    /// Detaches the profile, crediting the events since the last frame
    /// change to the current frame; disables further profiling.
    pub fn take_profile(&mut self) -> Option<Profiler> {
        let mut p = *self.prof.take()?;
        p.flush(&self.stats);
        Some(p)
    }

    /// Machine hook: a call frame was entered.
    #[inline]
    pub fn prof_enter(&mut self, frame: FrameKind) {
        if let Some(p) = &mut self.prof {
            p.enter(&self.stats, frame);
        }
    }

    /// Machine hook: the current call frame returned.
    #[inline]
    pub fn prof_exit(&mut self) {
        if let Some(p) = &mut self.prof {
            p.exit(&self.stats);
        }
    }

    /// Machine hook: the current call frame was replaced by a tail call.
    #[inline]
    pub fn prof_tail(&mut self, frame: FrameKind) {
        if let Some(p) = &mut self.prof {
            p.tail(&self.stats, frame);
        }
    }

    #[inline]
    fn prof_on_alloc(&mut self, index: u32, tag: BlockTag, words: u64) {
        if let Some(p) = &mut self.prof {
            p.on_alloc(index, tag, words);
        }
    }

    #[inline]
    fn prof_on_release(&mut self, index: u32) {
        if let Some(p) = &mut self.prof {
            p.on_release(index);
        }
    }

    /// The reclamation mode.
    pub fn mode(&self) -> ReclaimMode {
        self.mode
    }

    /// True when reference counting is active.
    pub fn rc_active(&self) -> bool {
        self.mode == ReclaimMode::Rc
    }

    /// True when free-list recycling is enabled.
    pub fn recycling(&self) -> bool {
        self.config.recycle
    }

    /// Number of currently live blocks.
    pub fn live_blocks(&self) -> u64 {
        self.stats.live_blocks
    }

    /// Blocks currently parked on the free lists.
    pub fn listed_blocks(&self) -> u64 {
        self.lists.iter().map(|l| u64::from(l.len)).sum()
    }

    /// Free-list occupancy per size class: `(field_count, blocks)` for
    /// every nonempty class, ascending.
    pub fn free_list_occupancy(&self) -> Vec<(usize, usize)> {
        self.lists[..NUM_SIZE_CLASSES]
            .iter()
            .enumerate()
            .filter(|(_, l)| l.len > 0)
            .map(|(k, l)| (k, l.len as usize))
            .collect()
    }

    // ---- access ----------------------------------------------------

    fn lookup(headers: &[Header], addr: Addr) -> Result<&Header, RuntimeError> {
        let h = headers
            .get(addr.index as usize)
            .ok_or(RuntimeError::BadAddress(addr))?;
        // A dead header's generation is already stale, but stay
        // defensive: a listed extent must never be readable.
        if h.gen != addr.gen || h.state() != State::Used {
            return Err(RuntimeError::UseAfterFree(addr));
        }
        Ok(h)
    }

    fn lookup_mut(headers: &mut [Header], addr: Addr) -> Result<&mut Header, RuntimeError> {
        let h = headers
            .get_mut(addr.index as usize)
            .ok_or(RuntimeError::BadAddress(addr))?;
        if h.gen != addr.gen || h.state() != State::Used {
            return Err(RuntimeError::UseAfterFree(addr));
        }
        Ok(h)
    }

    /// Header `index`'s fields within the arena.
    #[inline(always)]
    fn extent(&self, index: u32) -> std::ops::Range<usize> {
        extent(&self.headers, self.arena.len(), index as usize)
    }

    /// Checks that `addr` names a live *thread-local* block, for
    /// writing; shared blocks are immutable by construction, so a shared
    /// address is an error.
    fn local(&self, addr: Addr) -> Result<(), RuntimeError> {
        if addr.is_shared() {
            return Err(RuntimeError::Internal(format!(
                "mutation of immutable shared block {addr}"
            )));
        }
        Self::lookup(&self.headers, addr).map(drop)
    }

    /// Stores `v` in field `i` of a thread-local block
    /// (generation-checked) and returns the value it held: the store of
    /// a mutable reference. Counts are the caller's.
    pub fn replace_field(&mut self, addr: Addr, i: usize, v: Value) -> Result<Value, RuntimeError> {
        self.local(addr)?;
        let extent = self.extent(addr.index);
        let f = self.arena[extent]
            .get_mut(i)
            .ok_or_else(|| RuntimeError::Internal(format!("block {addr} has no field {i}")))?;
        Ok(std::mem::replace(f, Field::new(v)).value())
    }

    /// Fills the hole of a block that a constructor recursion compiled
    /// as a loop built (tail recursion modulo cons): stores `v` in its
    /// last field, which must hold the Unit placeholder. Not a field
    /// write — the constructor counted that field when it stored the
    /// placeholder — and counts are the caller's.
    pub(crate) fn fill_hole(&mut self, addr: Addr, v: Value) -> Result<(), RuntimeError> {
        self.local(addr)?;
        let extent = self.extent(addr.index);
        match self.arena[extent].last_mut() {
            Some(f) if *f == Field::new(Value::Unit) => {
                *f = Field::new(v);
                Ok(())
            }
            _ => Err(RuntimeError::Internal(format!(
                "block {addr} has no hole to fill"
            ))),
        }
    }

    /// The signed reference count of a thread-local block, for writing
    /// (generation-checked): how tests pin a count at the sticky floor.
    pub fn header_mut(&mut self, addr: Addr) -> Result<&mut i32, RuntimeError> {
        self.local(addr)?;
        Ok(&mut self.headers[addr.index as usize].count)
    }

    /// Reads a block from either segment (generation-checked locally,
    /// liveness-checked in the shared segment).
    pub fn view(&self, addr: Addr) -> Result<BlockView<'_>, RuntimeError> {
        if addr.is_shared() {
            let sh = self
                .shared
                .as_deref()
                .ok_or(RuntimeError::BadAddress(addr))?;
            return sh.view(addr);
        }
        Self::lookup(&self.headers, addr)?;
        Ok(self.view_of(addr.index))
    }

    /// The constructor and fields of a constructor block in either
    /// segment, with one header lookup, or `None` for another kind of
    /// block: what a match reads.
    #[inline]
    pub fn ctor_fields(&self, addr: Addr) -> Result<Option<(CtorId, &[Field])>, RuntimeError> {
        if addr.is_shared() {
            let b = self.view(addr)?;
            return Ok(match b.tag {
                BlockTag::Ctor(c) => Some((c, b.fields)),
                _ => None,
            });
        }
        let BlockTag::Ctor(c) = Self::lookup(&self.headers, addr)?.tag() else {
            return Ok(None);
        };
        Ok(Some((c, &self.arena[self.extent(addr.index)])))
    }

    /// Header `index`, read as a block.
    fn view_of(&self, index: u32) -> BlockView<'_> {
        let h = &self.headers[index as usize];
        BlockView {
            header: h.count,
            tag: h.tag(),
            fields: &self.arena[self.extent(index)],
            shared: false,
        }
    }

    /// True when `addr` names a live block in either segment.
    pub fn ref_alive(&self, addr: Addr) -> bool {
        self.view(addr).is_ok()
    }

    // ---- free lists --------------------------------------------------

    /// Threads dead header `index`, of `len` fields, onto the head of
    /// its free list.
    fn relist(&mut self, index: u32, len: usize) {
        let list = &mut self.lists[len.min(NUM_SIZE_CLASSES)];
        let h = &mut self.headers[index as usize];
        h.set_state(State::Listed);
        h.count = list.head as i32;
        list.head = index;
        list.len += 1;
    }

    /// Unthreads the head of size class `len`'s list (LIFO).
    #[inline]
    fn pop_class(&mut self, len: usize) -> Option<u32> {
        if len >= NUM_SIZE_CLASSES {
            return None;
        }
        let list = &mut self.lists[len];
        let index = list.head;
        if index == NIL {
            return None;
        }
        list.head = self.headers[index as usize].count as u32;
        list.len -= 1;
        Some(index)
    }

    /// Unthreads the first header of exactly `len` fields from the
    /// overflow list, searched from its head.
    fn take_overflow(&mut self, len: usize) -> Option<u32> {
        let mut prev = NIL;
        let mut index = self.lists[NUM_SIZE_CLASSES].head;
        while index != NIL {
            let next = self.headers[index as usize].count;
            if self.extent(index).len() == len {
                match prev {
                    NIL => self.lists[NUM_SIZE_CLASSES].head = next as u32,
                    _ => self.headers[prev as usize].count = next,
                }
                self.lists[NUM_SIZE_CLASSES].len -= 1;
                return Some(index);
            }
            prev = index;
            index = next as u32;
        }
        None
    }

    // ---- allocation -------------------------------------------------

    /// [`Heap::alloc_slice`] from an owned field box (the box is copied
    /// into the arena and dropped).
    pub fn alloc(&mut self, tag: BlockTag, fields: Box<[Value]>) -> Addr {
        self.alloc_slice(tag, &fields)
    }

    /// Allocates a block with reference count 1 holding `vals`. A
    /// free-list hit rewrites a listed extent in place; a miss bumps
    /// the arena. Neither touches the global allocator (beyond the
    /// arena's own amortized growth). The tag's id must be below
    /// [`ID_LIMIT`].
    pub fn alloc_slice(&mut self, tag: BlockTag, vals: &[Value]) -> Addr {
        let len = vals.len();
        let words = len as u64 + 1;
        // A hit is the exact class's list being non-empty; an
        // out-of-class length always counts a miss, even when the
        // overflow list serves it.
        let mut hit = false;
        let listed = if !self.config.recycle {
            None
        } else if let Some(index) = self.pop_class(len) {
            hit = true;
            Some(index)
        } else {
            self.stats.freelist_misses += 1;
            self.take_overflow(len)
        };
        let addr = match listed {
            Some(index) => {
                let extent = self.extent(index);
                let h = &mut self.headers[index as usize];
                debug_assert!(
                    h.state() == State::Listed && extent.len() == len,
                    "free list served header {index} ({:?}, {} fields) for {len} fields",
                    h.state(),
                    extent.len(),
                );
                // The generation was bumped when the previous tenant
                // died.
                h.set_state(State::Used);
                h.count = 1;
                h.set_mark(false);
                h.set_tag(tag);
                let gen = h.gen;
                for (f, &v) in self.arena[extent].iter_mut().zip(vals) {
                    *f = Field::new(v);
                }
                Addr { index, gen }
            }
            None => {
                let index = u32::try_from(self.headers.len())
                    .ok()
                    .filter(|i| i & Addr::SHARED_BIT == 0)
                    .expect("local heap out of header indices");
                let off = u32::try_from(self.arena.len()).expect("field arena out of offsets");
                let len = u32::try_from(len).expect("block wider than the field arena");
                self.arena.extend(vals.iter().map(|&v| Field::new(v)));
                self.headers.push(Header::new(tag, off, len));
                Addr { index, gen: 0 }
            }
        };
        self.used += 1;
        self.stats.on_fresh_alloc(words);
        self.stats.field_writes += len as u64;
        self.prof_on_alloc(addr.index, tag, words);
        if hit {
            self.stats.freelist_hits += 1;
            self.stats.recycled_words += words;
        }
        addr
    }

    /// Builds a constructor in the memory held by a reuse token
    /// (`Con@ru` with a valid token). `skip` elides writes whose field
    /// already holds the value (reuse specialization, §2.5). The mask
    /// must be empty (no elision) or exactly as long as the argument
    /// list — a truncated mask from a broken specialization pass would
    /// otherwise corrupt fields silently. Skipped-field equality is
    /// checked whenever [`HeapConfig::validation`] is active (always
    /// under [`Validation::Full`], including release builds).
    pub fn alloc_into(
        &mut self,
        token: Addr,
        ctor: CtorId,
        args: &[Value],
        skip: &[bool],
    ) -> Result<Addr, RuntimeError> {
        if !skip.is_empty() && skip.len() != args.len() {
            return Err(RuntimeError::Internal(format!(
                "reuse skip mask at {token} has {} entries for {} constructor arguments",
                skip.len(),
                args.len()
            )));
        }
        let check_skipped = self.config.validation.active();
        let h = Self::lookup(&self.headers, token)?;
        if h.count != 0 {
            return Err(RuntimeError::Internal(format!(
                "reuse of unclaimed cell {token} (header {})",
                h.count
            )));
        }
        let extent = self.extent(token.index);
        if extent.len() != args.len() {
            return Err(RuntimeError::Internal(format!(
                "reuse size mismatch at {token}: cell has {} fields, constructor {}",
                extent.len(),
                args.len()
            )));
        }
        let fields = &mut self.arena[extent];
        let mut written = 0;
        for (i, &v) in args.iter().enumerate() {
            if skip.get(i).copied().unwrap_or(false) {
                if check_skipped && fields[i] != Field::new(v) {
                    return Err(RuntimeError::Internal(format!(
                        "reuse skip mask at {token}: skipped field {i} holds {} but the \
                         constructor argument is {v}",
                        fields[i].value()
                    )));
                }
            } else {
                fields[i] = Field::new(v);
                written += 1;
            }
        }
        let h = &mut self.headers[token.index as usize];
        h.count = 1;
        h.set_tag(BlockTag::Ctor(ctor));
        self.stats.field_writes += written;
        self.stats.skipped_writes += (args.len() - written as usize) as u64;
        self.stats.on_reuse();
        if let Some(p) = &mut self.prof {
            p.on_reuse(ctor);
        }
        Ok(token)
    }

    // ---- reference counting ------------------------------------------

    /// True when `dup`/`drop` of `v` touches a count: a reference under
    /// reference counting. Scalars, singletons and tokens are not
    /// counted, and this test is all they pay.
    #[inline(always)]
    fn counted(&self, v: Value) -> bool {
        matches!(v, Value::Ref(_) | Value::Weak(_)) && self.mode == ReclaimMode::Rc
    }

    /// `dup v` — the paper's fast/slow split on the header sign, with a
    /// first check for the by-far most common case: a uniquely-owned
    /// cell (header exactly 1) skips even the sign test's general path.
    #[inline(always)]
    pub fn dup(&mut self, v: Value) -> Result<(), RuntimeError> {
        if self.counted(v) {
            self.dup_counted(v)
        } else {
            Ok(())
        }
    }

    #[inline(never)]
    fn dup_counted(&mut self, v: Value) -> Result<(), RuntimeError> {
        if let Value::Weak(addr) = v {
            // Weak references clone on the weak half only (one RMW);
            // the strong count — and liveness — never move.
            self.stats.dups += 1;
            let sh = self
                .shared
                .as_deref()
                .ok_or(RuntimeError::BadAddress(addr))?;
            sh.weak_dup(addr, &mut self.stats)?;
            return Ok(());
        }
        let Value::Ref(addr) = v else { return Ok(()) };
        self.stats.dups += 1;
        if addr.is_shared() {
            let sh = self
                .shared
                .as_deref()
                .ok_or(RuntimeError::BadAddress(addr))?;
            let (_, counted) = sh.dup(addr, &mut self.stats)?;
            if counted {
                self.shared_held += 1;
            }
            return Ok(());
        }
        let h = Self::lookup_mut(&mut self.headers, addr)?;
        if h.count == 1 {
            // Uniquely owned: the dominant case in Perceus-optimized
            // code (everything not shared is unique).
            h.count = 2;
        } else if h.count > 0 {
            h.count += 1;
        } else {
            // Marked shared in place by an in-thread `tshare`: the
            // negative-count discipline without any atomic instruction
            // (the block never left this thread).
            self.stats.local_shared_ops += 1;
            if h.count > STICKY {
                h.count -= 1;
            }
        }
        Ok(())
    }

    /// `drop v` — decrement and free recursively at zero (worklist-based,
    /// so arbitrarily deep structures are safe). The uniquely-owned case
    /// (header 1) is checked first: it frees immediately without the
    /// shared-sign test.
    #[inline(always)]
    pub fn drop_value(&mut self, v: Value) -> Result<(), RuntimeError> {
        if self.counted(v) {
            self.drop_counted(v)
        } else {
            Ok(())
        }
    }

    #[inline(never)]
    fn drop_counted(&mut self, v: Value) -> Result<(), RuntimeError> {
        if let Value::Weak(addr) = v {
            self.stats.drops += 1;
            let sh = self
                .shared
                .as_deref()
                .ok_or(RuntimeError::BadAddress(addr))?;
            sh.weak_drop(addr, &mut self.stats)?;
            return Ok(());
        }
        let Value::Ref(addr) = v else { return Ok(()) };
        self.stats.drops += 1;
        if !addr.is_shared() {
            // A local block that stays alive: decrement in place; no
            // worklist, no weak references, nothing retired.
            let h = Self::lookup_mut(&mut self.headers, addr)?;
            if h.count > 1 {
                h.count -= 1;
                return Ok(());
            }
        }
        self.run_drop_loop(addr)
    }

    fn drop_loop(&mut self, work: &mut Vec<Addr>) -> Result<(), RuntimeError> {
        // Weak references released by freed local blocks. Weak drops
        // never cascade, so they drain in one batch at the end (which
        // also sidesteps borrowing the shared segment while a local
        // slot entry is held).
        let mut weak_drops: Vec<Addr> = Vec::new();
        while let Some(addr) = work.pop() {
            if addr.is_shared() {
                // Shared segment: one real atomic RMW; the winning
                // (count-to-zero) thread gets the children pushed onto
                // this worklist and keeps draining them here.
                let sh = self
                    .shared
                    .as_deref()
                    .ok_or(RuntimeError::BadAddress(addr))?;
                let before = work.len();
                let (after, counted) = sh.drop_ref(addr, &mut self.stats, work)?;
                if counted {
                    // One held reference spent; if this drop won the
                    // closing CAS, the dead block's outgoing references
                    // just became ours to consume (they are on the
                    // worklist), so credit them to the ledger now.
                    self.shared_held = self.shared_held.saturating_sub(1);
                    if after == 0 {
                        self.shared_held += (work.len() - before) as u64;
                    }
                }
                continue;
            }
            let h = Self::lookup_mut(&mut self.headers, addr)?;
            if h.count == 1 {
                // Last reference: free, children join the worklist.
                self.free_block(addr, work, &mut weak_drops);
            } else if h.count > 1 {
                h.count -= 1;
            } else if h.count == 0 {
                return Err(RuntimeError::Internal(format!(
                    "drop of claimed cell {addr}"
                )));
            } else {
                // In-thread `tshare` slow path (non-atomic: the block
                // is still thread-local).
                self.stats.local_shared_ops += 1;
                if h.count > STICKY {
                    h.count += 1;
                    if h.count == 0 {
                        self.free_block(addr, work, &mut weak_drops);
                    }
                }
            }
        }
        for wa in weak_drops {
            let sh = self.shared.as_deref().ok_or(RuntimeError::BadAddress(wa))?;
            sh.weak_drop(wa, &mut self.stats)?;
        }
        Ok(())
    }

    /// Frees a live block whose last reference just went: its children
    /// join the worklists and its header is vacated.
    fn free_block(&mut self, addr: Addr, work: &mut Vec<Addr>, weak_drops: &mut Vec<Addr>) {
        let extent = self.extent(addr.index);
        push_children(&self.arena[extent], work, weak_drops);
        let words = self.vacate(addr.index);
        self.stats.on_free(words);
    }

    /// The one way a used header dies (zero count, `free`, drop-token,
    /// sweep, eviction, reset): bumps the generation, making every
    /// outstanding address stale, and relists the header by its exact
    /// field count — or leaves it vacant for good when recycling is
    /// off. The extent stays where it is. Returns the words the block
    /// occupied; live accounting is the caller's.
    fn vacate(&mut self, index: u32) -> u64 {
        let len = self.extent(index).len();
        let h = &mut self.headers[index as usize];
        debug_assert_eq!(h.state(), State::Used, "vacating dead header {index}");
        h.gen = h.gen.wrapping_add(1);
        if self.config.recycle {
            self.relist(index, len);
        } else {
            h.set_state(State::Vacant);
        }
        self.used -= 1;
        self.prof_on_release(index);
        len as u64 + 1
    }

    /// `decref v` — decrement without the zero check; only emitted in
    /// the shared branch of an `is-unique`, where the count is ≥ 2.
    pub fn decref(&mut self, v: Value) -> Result<(), RuntimeError> {
        if self.mode != ReclaimMode::Rc {
            return Ok(());
        }
        let Value::Ref(addr) = v else { return Ok(()) };
        self.stats.decrefs += 1;
        if addr.is_shared() {
            // `is-unique` never reports shared blocks unique, so the
            // shared branch may hold the *last* reference and must
            // reclaim fully at zero — route through the drop loop,
            // which pays the real atomic RMW.
            return self.run_drop_loop(addr);
        }
        let h = Self::lookup_mut(&mut self.headers, addr)?;
        if h.count > 1 {
            h.count -= 1;
            Ok(())
        } else if h.count < 0 {
            // In-thread `tshare`: same discipline, no atomics.
            self.stats.local_shared_ops += 1;
            if h.count > STICKY {
                h.count += 1;
                if h.count == 0 {
                    // Shared count hit zero here: free fully. The drop
                    // loop releases the children as part of this free,
                    // not as program-emitted drop instructions.
                    h.count = 1;
                    return self.run_drop_loop(addr);
                }
            }
            Ok(())
        } else {
            Err(RuntimeError::Internal(format!(
                "decref of {addr} with header {}",
                h.count
            )))
        }
    }

    /// `is-unique(v)` — thread-shared blocks are never unique (in-place
    /// mutation of shared data is racy, §2.7.3).
    pub fn is_unique(&mut self, v: Value) -> Result<bool, RuntimeError> {
        self.stats.unique_tests += 1;
        let unique = match v {
            Value::Ref(addr) if addr.is_shared() => {
                // A plain sign test would do, but validate liveness so
                // a stale shared address still errors deterministically.
                self.view(addr)?;
                false
            }
            Value::Ref(addr) => Self::lookup(&self.headers, addr)?.count == 1,
            _ => false,
        };
        if unique {
            self.stats.unique_hits += 1;
        }
        Ok(unique)
    }

    /// `free v` — free the cell only; the children's ownership has been
    /// transferred to the surrounding match binders (fast path of
    /// Fig. 1d). Requires a unique cell.
    pub fn free_cell(&mut self, v: Value) -> Result<(), RuntimeError> {
        let Value::Ref(addr) = v else {
            return Err(RuntimeError::Internal("free of a non-reference".into()));
        };
        if addr.is_shared() {
            return Err(RuntimeError::Internal(format!(
                "free of shared block {addr} (shared blocks are never unique)"
            )));
        }
        let h = Self::lookup(&self.headers, addr)?;
        if h.count != 1 {
            return Err(RuntimeError::Internal(format!(
                "free of non-unique cell {addr} (header {})",
                h.count
            )));
        }
        self.release(addr)
    }

    /// `&v` — claim a unique cell as a reuse token (fast path of
    /// Fig. 1g). The memory is held; contents become meaningless.
    pub fn claim(&mut self, v: Value) -> Result<Value, RuntimeError> {
        let Value::Ref(addr) = v else {
            return Err(RuntimeError::Internal("&x of a non-reference".into()));
        };
        if addr.is_shared() {
            return Err(RuntimeError::Internal(format!(
                "&x of shared block {addr} (shared blocks are never unique)"
            )));
        }
        let h = Self::lookup_mut(&mut self.headers, addr)?;
        if h.count != 1 {
            return Err(RuntimeError::Internal(format!(
                "&x of non-unique cell {addr} (header {})",
                h.count
            )));
        }
        h.count = 0;
        Ok(Value::Token(Some(addr)))
    }

    /// `drop-reuse v` (unspecialized, Fig. 1e): if unique, drop the
    /// children and claim the cell; otherwise decrement and return the
    /// null token.
    pub fn drop_reuse(&mut self, v: Value) -> Result<Value, RuntimeError> {
        match v {
            Value::Ref(addr) if addr.is_shared() => {
                // Shared blocks are never unique: decrement (possibly
                // reclaiming fully) and yield the null token.
                self.stats.unique_tests += 1;
                self.stats.decrefs += 1;
                self.run_drop_loop(addr)?;
                Ok(Value::Token(None))
            }
            Value::Ref(addr) => {
                self.stats.unique_tests += 1;
                let h = Self::lookup_mut(&mut self.headers, addr)?;
                if h.count == 1 {
                    self.stats.unique_hits += 1;
                    // Claim first (acyclic data: the children never point
                    // back), then drop the children — via the pooled
                    // worklist, so the roundtrip allocates nothing.
                    let mut work = std::mem::take(&mut self.drop_work);
                    let mut weak_children: Vec<Addr> = Vec::new();
                    h.count = 0;
                    let extent = self.extent(addr.index);
                    push_children(&self.arena[extent], &mut work, &mut weak_children);
                    self.stats.drops += (work.len() + weak_children.len()) as u64;
                    let r = self.drop_loop(&mut work);
                    work.clear();
                    self.drop_work = work;
                    r?;
                    for wa in weak_children {
                        let sh = self.shared.as_deref().ok_or(RuntimeError::BadAddress(wa))?;
                        sh.weak_drop(wa, &mut self.stats)?;
                    }
                    Ok(Value::Token(Some(addr)))
                } else {
                    self.decref_or_shared_drop(addr)?;
                    Ok(Value::Token(None))
                }
            }
            // Singletons and non-references yield the null token.
            _ => Ok(Value::Token(None)),
        }
    }

    /// Releases one reference to `addr` through the drop loop, which
    /// reclaims fully at zero (and, for a shared-segment address, pays
    /// the real atomic RMW). Counts no `drop` instruction.
    fn run_drop_loop(&mut self, addr: Addr) -> Result<(), RuntimeError> {
        let mut work = std::mem::take(&mut self.drop_work);
        work.push(addr);
        let r = self.drop_loop(&mut work);
        work.clear();
        self.drop_work = work;
        // Quiescent point: this drop may have retired shared slots
        // (directly, or through a local block's shared children), and
        // this heap provably holds no views (we have `&mut self`) —
        // advance the pin so reclamation can proceed. No-op when no
        // segment is attached.
        self.epoch_tick();
        r
    }

    fn decref_or_shared_drop(&mut self, addr: Addr) -> Result<(), RuntimeError> {
        let h = Self::lookup_mut(&mut self.headers, addr)?;
        self.stats.decrefs += 1;
        if h.count > 1 {
            h.count -= 1;
        } else if h.count < 0 {
            self.stats.local_shared_ops += 1;
            if h.count > STICKY {
                h.count += 1;
                if h.count == 0 {
                    // Shared count hit zero here: free fully.
                    h.count = 1;
                    return self.drop_value(Value::Ref(addr));
                }
            }
        } else {
            return Err(RuntimeError::Internal(format!(
                "drop-reuse decrement of {addr} with header {}",
                h.count
            )));
        }
        Ok(())
    }

    /// Attempts to upgrade a weak reference to a strong one. Returns
    /// `Some(Value::Ref(..))` — the caller now owns one counted strong
    /// reference — while the block lives, or `None`, deterministically,
    /// once it is dead. The weak reference itself is not consumed.
    pub fn upgrade_weak(&mut self, v: Value) -> Result<Option<Value>, RuntimeError> {
        let Value::Weak(addr) = v else {
            return Err(RuntimeError::Internal("upgrade of a non-weak value".into()));
        };
        let sh = self
            .shared
            .as_deref()
            .ok_or(RuntimeError::BadAddress(addr))?;
        match sh.upgrade(addr, &mut self.stats)? {
            Some((_, counted)) => {
                if counted {
                    self.shared_held += 1;
                }
                Ok(Some(Value::Ref(addr)))
            }
            None => Ok(None),
        }
    }

    /// `drop-token t` — release an unused token, freeing the held memory.
    pub fn drop_token(&mut self, v: Value) -> Result<(), RuntimeError> {
        match v {
            Value::Token(Some(addr)) => {
                if Self::lookup(&self.headers, addr)?.count != 0 {
                    return Err(RuntimeError::Internal(format!(
                        "drop-token of unclaimed cell {addr}"
                    )));
                }
                self.release(addr)?;
                self.stats.token_frees += 1;
                Ok(())
            }
            Value::Token(None) => Ok(()),
            _ => Err(RuntimeError::Internal("drop-token of a non-token".into())),
        }
    }

    /// `tshare v` — mark a value and everything reachable from it as
    /// thread-shared (§2.7.2). Idempotent; safe on cyclic ref structures.
    pub fn tshare(&mut self, v: Value) -> Result<(), RuntimeError> {
        let mut work = Vec::new();
        if let Value::Ref(a) = v {
            work.push(a);
        }
        while let Some(addr) = work.pop() {
            if addr.is_shared() {
                continue; // already in the shared segment
            }
            let h = Self::lookup_mut(&mut self.headers, addr)?;
            if h.count < 0 {
                continue; // already shared — also breaks ref cycles
            }
            if h.count == 0 {
                return Err(RuntimeError::Internal(format!(
                    "tshare of claimed cell {addr}"
                )));
            }
            h.count = -h.count;
            let extent = self.extent(addr.index);
            work.extend(self.arena[extent].iter().filter_map(|f| f.addr()));
            self.stats.shared_marks += 1;
        }
        Ok(())
    }

    /// The *share barrier* (§2.7.2, realized): moves `v`'s entire
    /// reachable closure out of this thread-local heap into `segment`
    /// (whose headers are real atomics), rewriting every intra-closure
    /// reference to its shared address, and returns the rewritten value.
    ///
    /// Unlike the in-thread [`Heap::tshare`] (which flips signs in
    /// place and never pays an atomic), this is the barrier a value
    /// crosses when it is about to be handed to other threads: after it
    /// returns, every surviving *local* address into the moved closure
    /// is stale and fails deterministically via the generation check.
    ///
    /// Counts transfer as-is (a local count of `k` becomes a shared
    /// count of `-k`; sticky stays pinned). Mutable references are
    /// rejected — shared data must be immutable (§2.7.3), which is also
    /// what makes the moved closure acyclic and the traversal total.
    pub fn mark_shared(
        &mut self,
        v: Value,
        segment: &mut SharedHeap,
    ) -> Result<Value, RuntimeError> {
        let Value::Ref(root) = v else { return Ok(v) };
        if root.is_shared() {
            return Ok(v);
        }
        let mut moved: HashMap<u32, Addr> = HashMap::new();
        // Iterative post-order DFS: children move first, so a parent
        // can rewrite its fields to final shared addresses.
        let mut stack: Vec<(Addr, usize)> = vec![(root, 0)];
        while let Some((addr, i)) = stack.pop() {
            if i == 0 && moved.contains_key(&addr.index) {
                continue; // diamond: already moved via another parent
            }
            let b = self.view(addr)?;
            if b.tag == BlockTag::MutRef {
                return Err(RuntimeError::Internal(format!(
                    "cannot share mutable reference {addr} across threads (§2.7.3)"
                )));
            }
            if b.header == 0 {
                return Err(RuntimeError::Internal(format!(
                    "cannot share claimed cell {addr}"
                )));
            }
            if let Some(f) = b.fields.get(i) {
                stack.push((addr, i + 1));
                if let Some(child) = f.addr() {
                    if !child.is_shared() && !moved.contains_key(&child.index) {
                        stack.push((child, 0));
                    }
                }
                continue;
            }
            // All children are in the segment: move this block.
            let pinned = b.header <= STICKY;
            let count = b.header.unsigned_abs();
            let tag = b.tag;
            let fields: Box<[Field]> = b
                .fields
                .iter()
                .map(|&f| match f.addr() {
                    Some(c) if !c.is_shared() => Field::new(Value::Ref(moved[&c.index])),
                    _ => f,
                })
                .collect();
            let saddr = segment.install(tag, fields, count, pinned);
            moved.insert(addr.index, saddr);
            self.evict(addr)?;
            self.stats.shared_marks += 1;
        }
        Ok(Value::Ref(moved[&root.index]))
    }

    /// Removes a block whose contents have moved to the shared segment.
    /// Live accounting transfers to the segment — this is a move, not a
    /// free, so `Stats::frees` stays untouched. Legal in every reclaim
    /// mode (even the arena: nothing is reclaimed, the block just
    /// changes segment).
    fn evict(&mut self, addr: Addr) -> Result<(), RuntimeError> {
        Self::lookup(&self.headers, addr)?;
        let words = self.vacate(addr.index);
        self.stats.live_blocks -= 1;
        self.stats.live_words -= words;
        Ok(())
    }

    // ---- session recycling ------------------------------------------

    /// Resets the heap between serving sessions: every live block
    /// (including cells claimed by an abandoned reuse token) is
    /// vacated — its generation bumped, so *any* address the previous
    /// session might have leaked fails deterministically, its header
    /// relisted — statistics are zeroed, and the attached shared
    /// segment is detached. A heap with no live block (the state a
    /// well-behaved session leaves) is not walked at all. Returns the number of
    /// blocks reclaimed — zero after a well-behaved garbage-free
    /// session, nonzero when the previous session was aborted mid-run
    /// (fuel or memory exhaustion) with values still rooted in its
    /// machine.
    ///
    /// Headers, arena and free lists are kept — that is the point: the
    /// next session's allocations are served from the warm free lists
    /// ([`HeapConfig::recycle`]), so a long-lived worker's arena stops
    /// growing once it has seen its largest session. Everything
    /// *observable* is as if the heap were freshly constructed — the
    /// generation check is what makes cross-session reuse of the same
    /// extents safe (see `docs/RUNTIME.md`).
    pub fn reset(&mut self) -> u64 {
        let reclaimed = self.used as u64;
        if self.used > 0 {
            // Repay the shared-segment references held by live blocks'
            // fields while vacating them: a field owns exactly one
            // reference, so this part of an aborted session's holdings
            // can be returned precisely (with real atomic drops).
            // References still rooted in the dead machine's frames are
            // *not* recoverable here — a consumed slot is
            // indistinguishable from a live one without liveness info —
            // so they stay on the ledger and surface through
            // [`Heap::take_shared_drift`].
            let repay = self.mode == ReclaimMode::Rc && self.shared.is_some();
            let mut held: Vec<Addr> = Vec::new();
            let mut weak_held: Vec<Addr> = Vec::new();
            for index in 0..self.headers.len() {
                let h = &self.headers[index];
                if h.state() != State::Used {
                    continue;
                }
                // A cell claimed by a reuse token has meaningless
                // contents.
                if repay && h.count != 0 {
                    for f in &self.arena[self.extent(index as u32)] {
                        if let Some(a) = f.addr() {
                            if a.is_shared() {
                                held.push(a);
                            }
                        } else if let Some(a) = f.weak() {
                            weak_held.push(a);
                        }
                    }
                }
                self.vacate(index as u32);
            }
            if !held.is_empty() {
                let _ = self.drop_loop(&mut held);
            }
            for wa in weak_held {
                if let Some(sh) = self.shared.as_deref() {
                    let _ = sh.weak_drop(wa, &mut self.stats);
                }
            }
        }
        self.drop_work.clear();
        // Unpin from the epoch collector and reclaim whatever this
        // session's drops retired — the serving-layer retention fix:
        // dead shared slots give their storage back here, not at
        // segment teardown.
        self.detach_shared();
        self.stats = Stats::default();
        // Deliberately *not* zeroed: `shared_held` carries the aborted
        // session's un-returned references out to `take_shared_drift`.
        // The profiler's open window counts from the zeroed `Stats`.
        if self.prof.is_some() {
            self.enable_profile();
        }
        reclaimed
    }

    // ---- reclamation plumbing ---------------------------------------

    /// Frees one validated cell (`free`, `drop-token`): its children
    /// are not touched.
    fn release(&mut self, addr: Addr) -> Result<(), RuntimeError> {
        if self.mode == ReclaimMode::Arena {
            // The arena never reclaims; callers in arena mode never get
            // here because rc entry points are inert, but be defensive.
            return Err(RuntimeError::Internal("release in arena mode".into()));
        }
        Self::lookup(&self.headers, addr)?;
        let words = self.vacate(addr.index);
        self.stats.on_free(words);
        Ok(())
    }

    /// How many local headers exist: every live local [`Addr::index`]
    /// is below it (the auditor sizes its tables by it).
    pub(crate) fn slot_count(&self) -> usize {
        self.headers.len()
    }

    /// Iterates live blocks with their addresses (auditor and
    /// collector), stopping at the last one: a heap with no live block
    /// is not walked. Free-listed blocks are invisible here: they are
    /// neither live nor leaked.
    pub fn iter_live(&self) -> impl Iterator<Item = (Addr, BlockView<'_>)> + '_ {
        self.headers
            .iter()
            .enumerate()
            .filter(|(_, h)| h.state() == State::Used)
            .take(self.used)
            .map(|(i, h)| {
                let addr = Addr {
                    index: i as u32,
                    gen: h.gen,
                };
                (addr, self.view_of(addr.index))
            })
    }

    /// Collector support: clear all mark bits.
    pub(crate) fn clear_marks(&mut self) {
        for h in &mut self.headers {
            h.set_mark(false);
        }
    }

    /// Collector support: marks a live local block; returns its fields
    /// the first time, `None` when it was already marked or `addr` is
    /// stale or shared.
    pub(crate) fn mark(&mut self, addr: Addr) -> Option<&[Field]> {
        let h = Self::lookup_mut(&mut self.headers, addr).ok()?;
        if h.mark() {
            return None;
        }
        h.set_mark(true);
        Some(&self.arena[self.extent(addr.index)])
    }

    /// Collector support: sweep unmarked blocks onto the free lists;
    /// returns count swept.
    pub(crate) fn sweep(&mut self) -> u64 {
        let mut swept = 0;
        for index in 0..self.headers.len() {
            let h = &self.headers[index];
            if h.state() == State::Used && !h.mark() {
                let words = self.vacate(index as u32);
                self.stats.on_free(words);
                swept += 1;
            }
        }
        self.stats.gc_swept += swept;
        swept
    }
}

/// Sorts the references a dying (or just claimed) block held onto the
/// drop worklists.
fn push_children(fields: &[Field], work: &mut Vec<Addr>, weak: &mut Vec<Addr>) {
    for f in fields {
        if let Some(child) = f.addr() {
            work.push(child);
        } else if let Some(child) = f.weak() {
            weak.push(child);
        }
    }
}

impl Drop for Heap {
    fn drop(&mut self) {
        // A dropped heap must not leave its epoch pin registered: a
        // stale pin would block the segment's reclamation forever
        // (worker heaps die at thread join while the driver still holds
        // the segment).
        self.detach_shared();
    }
}

#[cfg(test)]
mod model;

#[cfg(test)]
mod tests {
    use super::*;
    use perceus_core::ir::CtorId;

    fn heap() -> Heap {
        Heap::new(ReclaimMode::Rc)
    }

    fn cell(h: &mut Heap, fields: Vec<Value>) -> Addr {
        h.alloc(BlockTag::Ctor(CtorId(9)), fields.into_boxed_slice())
    }

    #[test]
    fn alloc_and_drop_frees() {
        let mut h = heap();
        let a = cell(&mut h, vec![Value::Int(1)]);
        assert_eq!(h.live_blocks(), 1);
        h.drop_value(Value::Ref(a)).unwrap();
        assert_eq!(h.live_blocks(), 0);
        // Use after free is a detected error, not corruption.
        assert!(matches!(h.view(a), Err(RuntimeError::UseAfterFree(_))));
    }

    #[test]
    fn drop_frees_recursively() {
        let mut h = heap();
        let inner = cell(&mut h, vec![Value::Int(1)]);
        let outer = cell(&mut h, vec![Value::Ref(inner)]);
        assert_eq!(h.live_blocks(), 2);
        h.drop_value(Value::Ref(outer)).unwrap();
        assert_eq!(h.live_blocks(), 0);
    }

    #[test]
    fn deep_drop_does_not_recurse_natively() {
        // A 100k-deep chain: would overflow the native stack if drop
        // recursed.
        let mut h = heap();
        let mut cur = cell(&mut h, vec![Value::Unit]);
        for _ in 0..100_000 {
            cur = cell(&mut h, vec![Value::Ref(cur)]);
        }
        h.drop_value(Value::Ref(cur)).unwrap();
        assert_eq!(h.live_blocks(), 0);
    }

    #[test]
    fn dup_keeps_alive() {
        let mut h = heap();
        let a = cell(&mut h, vec![]);
        h.dup(Value::Ref(a)).unwrap();
        h.drop_value(Value::Ref(a)).unwrap();
        assert_eq!(h.live_blocks(), 1);
        h.drop_value(Value::Ref(a)).unwrap();
        assert_eq!(h.live_blocks(), 0);
    }

    #[test]
    fn is_unique_semantics() {
        let mut h = heap();
        let a = cell(&mut h, vec![]);
        assert!(h.is_unique(Value::Ref(a)).unwrap());
        h.dup(Value::Ref(a)).unwrap();
        assert!(!h.is_unique(Value::Ref(a)).unwrap());
        assert!(!h.is_unique(Value::Int(3)).unwrap());
        h.drop_value(Value::Ref(a)).unwrap();
        h.drop_value(Value::Ref(a)).unwrap();
    }

    #[test]
    fn drop_reuse_unique_claims_cell() {
        let mut h = heap();
        let child = cell(&mut h, vec![]);
        let a = cell(&mut h, vec![Value::Ref(child)]);
        let tok = h.drop_reuse(Value::Ref(a)).unwrap();
        // Child freed; cell claimed (memory held: still a live block).
        assert_eq!(tok, Value::Token(Some(a)));
        assert_eq!(h.live_blocks(), 1);
        // Building into the token reuses, not allocates.
        let before = h.stats.allocations;
        let out = h.alloc_into(a, CtorId(9), &[Value::Int(7)], &[]).unwrap();
        assert_eq!(out, a);
        assert_eq!(h.stats.allocations, before);
        assert_eq!(h.stats.reuses, 1);
        h.drop_value(Value::Ref(out)).unwrap();
        assert_eq!(h.live_blocks(), 0);
    }

    #[test]
    fn drop_reuse_shared_returns_null_token() {
        let mut h = heap();
        let a = cell(&mut h, vec![]);
        h.dup(Value::Ref(a)).unwrap();
        let tok = h.drop_reuse(Value::Ref(a)).unwrap();
        assert_eq!(tok, Value::Token(None));
        assert_eq!(h.view(a).unwrap().header, 1);
        h.drop_value(Value::Ref(a)).unwrap();
    }

    #[test]
    fn drop_token_frees_claimed_memory() {
        let mut h = heap();
        let a = cell(&mut h, vec![]);
        let tok = h.drop_reuse(Value::Ref(a)).unwrap();
        h.drop_token(tok).unwrap();
        assert_eq!(h.live_blocks(), 0);
        assert_eq!(h.stats.token_frees, 1);
    }

    #[test]
    fn reset_repays_field_held_shared_refs_and_surfaces_frame_drift() {
        let mut h = heap();
        let mut seg = SharedHeap::new();
        let inner = cell(&mut h, vec![Value::Int(1)]);
        let root = cell(&mut h, vec![Value::Ref(inner)]);
        let shared = h.mark_shared(Value::Ref(root), &mut seg).unwrap();
        let Value::Ref(sa) = shared else { panic!() };
        h.attach_shared(Arc::new(seg));
        // Mint two references: one will be stored into a local block's
        // field, the other stays loose (a dead machine frame's root
        // after an abort). The barrier-transferred count itself belongs
        // to the segment's owner, not this ledger.
        h.dup(shared).unwrap();
        h.dup(shared).unwrap();
        assert_eq!(h.shared_refs_held(), 2);
        let _holder = cell(&mut h, vec![shared]);
        assert_eq!(
            h.shared_segment().unwrap().view(sa).unwrap().header,
            -3,
            "owner + two minted references"
        );
        // Abort-style reset: the holder's field reference is repaid
        // with a real atomic drop; the loose one becomes measured
        // drift.
        let seg = Arc::clone(h.shared.as_ref().unwrap());
        let reclaimed = h.reset();
        assert_eq!(reclaimed, 1, "only the holder block was live");
        assert_eq!(seg.view(sa).unwrap().header, -2, "field ref returned");
        assert_eq!(h.take_shared_drift(), 1, "the frame-held reference");
        assert_eq!(h.take_shared_drift(), 0, "take zeroes the ledger");
    }

    #[test]
    fn balanced_shared_sessions_leave_no_drift() {
        let mut h = heap();
        let mut seg = SharedHeap::new();
        let inner = cell(&mut h, vec![Value::Int(7)]);
        let root = cell(&mut h, vec![Value::Ref(inner)]);
        let shared = h.mark_shared(Value::Ref(root), &mut seg).unwrap();
        h.attach_shared(Arc::new(seg));
        h.dup(shared).unwrap();
        assert_eq!(h.shared_refs_held(), 1);
        h.drop_value(shared).unwrap();
        assert_eq!(h.shared_refs_held(), 0);
        h.reset();
        assert_eq!(h.take_shared_drift(), 0);
    }

    #[test]
    fn thread_shared_counting() {
        let mut h = heap();
        let a = cell(&mut h, vec![]);
        h.tshare(Value::Ref(a)).unwrap();
        assert!(h.view(a).unwrap().header < 0);
        assert!(
            !h.is_unique(Value::Ref(a)).unwrap(),
            "shared is never unique"
        );
        h.dup(Value::Ref(a)).unwrap();
        assert_eq!(h.view(a).unwrap().header, -2);
        assert!(h.stats.local_shared_ops >= 1);
        assert_eq!(
            h.stats.atomic_ops, 0,
            "in-thread tshare never pays a real atomic"
        );
        h.drop_value(Value::Ref(a)).unwrap();
        assert_eq!(h.live_blocks(), 1);
        h.drop_value(Value::Ref(a)).unwrap();
        assert_eq!(h.live_blocks(), 0);
    }

    #[test]
    fn tshare_marks_children_and_handles_cycles() {
        let mut h = heap();
        let r = h.alloc(BlockTag::MutRef, vec![Value::Unit].into_boxed_slice());
        let holder = cell(&mut h, vec![Value::Ref(r)]);
        // Tie the knot: r -> holder -> r.
        h.replace_field(r, 0, Value::Ref(holder)).unwrap();
        h.tshare(Value::Ref(holder)).unwrap(); // must terminate
        assert!(h.view(r).unwrap().header < 0);
        assert!(h.view(holder).unwrap().header < 0);
    }

    #[test]
    fn sticky_counts_are_pinned() {
        let mut h = heap();
        let a = cell(&mut h, vec![]);
        *h.header_mut(a).unwrap() = STICKY;
        h.dup(Value::Ref(a)).unwrap();
        assert_eq!(h.view(a).unwrap().header, STICKY);
        h.drop_value(Value::Ref(a)).unwrap();
        assert_eq!(h.view(a).unwrap().header, STICKY, "sticky never freed");
        assert_eq!(h.live_blocks(), 1);
    }

    #[test]
    fn gc_mode_rc_is_inert() {
        let mut h = Heap::new(ReclaimMode::Gc);
        let a = cell(&mut h, vec![]);
        h.drop_value(Value::Ref(a)).unwrap();
        assert_eq!(h.live_blocks(), 1, "gc mode ignores drops");
        assert_eq!(h.stats.drops, 0);
    }

    #[test]
    fn reuse_skip_mask_elides_writes() {
        let mut h = heap();
        let a = cell(&mut h, vec![Value::Int(1), Value::Int(2)]);
        let writes_before = h.stats.field_writes;
        let tok = h.drop_reuse(Value::Ref(a)).unwrap();
        let Value::Token(Some(t)) = tok else { panic!() };
        h.alloc_into(
            t,
            CtorId(9),
            &[Value::Int(1), Value::Int(5)],
            &[true, false],
        )
        .unwrap();
        assert_eq!(h.stats.field_writes - writes_before, 1);
        assert_eq!(h.stats.skipped_writes, 1);
        h.drop_value(Value::Ref(t)).unwrap();
    }

    #[test]
    fn truncated_skip_mask_is_a_hard_error() {
        // Regression: a skip mask shorter than the argument list used to
        // be tolerated silently (missing entries treated as "write"),
        // hiding a broken reuse-specialization pass.
        let mut h = heap();
        let a = cell(&mut h, vec![Value::Int(1), Value::Int(2)]);
        let tok = h.drop_reuse(Value::Ref(a)).unwrap();
        let Value::Token(Some(t)) = tok else { panic!() };
        let err = h
            .alloc_into(t, CtorId(9), &[Value::Int(1), Value::Int(5)], &[true])
            .unwrap_err();
        assert!(
            matches!(&err, RuntimeError::Internal(m) if m.contains("skip mask")),
            "{err}"
        );
        // The cell stays claimed: the token is still releasable.
        h.drop_token(Value::Token(Some(t))).unwrap();
        assert_eq!(h.live_blocks(), 0);
    }

    #[test]
    fn skipped_field_mismatch_is_checked_under_full_validation() {
        let mut h = Heap::with_config(
            ReclaimMode::Rc,
            HeapConfig {
                recycle: true,
                validation: Validation::Full,
            },
        );
        let a = h.alloc(
            BlockTag::Ctor(CtorId(9)),
            vec![Value::Int(1), Value::Int(2)].into_boxed_slice(),
        );
        let tok = h.drop_reuse(Value::Ref(a)).unwrap();
        let Value::Token(Some(t)) = tok else { panic!() };
        // Claim says field 0 already holds the argument, but it holds 1,
        // not 7: under Full validation this is an error even in release.
        let err = h
            .alloc_into(
                t,
                CtorId(9),
                &[Value::Int(7), Value::Int(5)],
                &[true, false],
            )
            .unwrap_err();
        assert!(
            matches!(&err, RuntimeError::Internal(m) if m.contains("skipped field")),
            "{err}"
        );
        // With Validation::Off the same mask is trusted (release-speed
        // path) — build a fresh heap to show the policy is config-driven.
        let mut h2 = Heap::with_config(
            ReclaimMode::Rc,
            HeapConfig {
                recycle: true,
                validation: Validation::Off,
            },
        );
        let b = h2.alloc(
            BlockTag::Ctor(CtorId(9)),
            vec![Value::Int(1), Value::Int(2)].into_boxed_slice(),
        );
        let tok = h2.drop_reuse(Value::Ref(b)).unwrap();
        let Value::Token(Some(t2)) = tok else {
            panic!()
        };
        h2.alloc_into(
            t2,
            CtorId(9),
            &[Value::Int(1), Value::Int(5)],
            &[true, false],
        )
        .unwrap();
        h2.drop_value(Value::Ref(t2)).unwrap();
    }

    #[test]
    fn mark_shared_moves_closure_and_staleness_is_deterministic() {
        let mut h = heap();
        let mut seg = SharedHeap::new();
        let leaf = cell(&mut h, vec![Value::Int(7)]);
        let root = cell(&mut h, vec![Value::Ref(leaf), Value::Int(1)]);
        let shared = h.mark_shared(Value::Ref(root), &mut seg).unwrap();
        let Value::Ref(sroot) = shared else { panic!() };
        assert!(sroot.is_shared());
        assert_eq!(h.live_blocks(), 0, "both blocks left the local heap");
        assert_eq!(seg.live_blocks(), 2);
        assert_eq!(h.stats.shared_marks, 2);
        // Stale local addresses fail deterministically.
        assert!(matches!(h.view(root), Err(RuntimeError::UseAfterFree(_))));
        // The moved structure is readable through the attached segment.
        let seg = Arc::new(seg);
        h.attach_shared(seg.clone());
        let view = h.view(sroot).unwrap();
        assert_eq!(view.header, -1);
        assert!(view.shared);
        let Value::Ref(schild) = view.fields[0].value() else {
            panic!()
        };
        assert!(schild.is_shared(), "intra-closure references rewritten");
        assert_eq!(h.view(schild).unwrap().fields[0].value(), Value::Int(7));
        // Dropping the only reference empties the segment; the drops
        // are real atomic RMWs.
        h.drop_value(shared).unwrap();
        assert_eq!(seg.live_blocks(), 0);
        assert!(h.stats.atomic_ops >= 2);
    }

    #[test]
    fn mark_shared_preserves_counts_across_diamonds() {
        let mut h = heap();
        let mut seg = SharedHeap::new();
        // Diamond: root -> (left, right), both -> base (count 2).
        let base = cell(&mut h, vec![Value::Int(0)]);
        h.dup(Value::Ref(base)).unwrap();
        let left = cell(&mut h, vec![Value::Ref(base)]);
        let right = cell(&mut h, vec![Value::Ref(base)]);
        let root = cell(&mut h, vec![Value::Ref(left), Value::Ref(right)]);
        let shared = h.mark_shared(Value::Ref(root), &mut seg).unwrap();
        assert_eq!(seg.len(), 4, "base moved once, not twice");
        let seg = Arc::new(seg);
        h.attach_shared(seg.clone());
        let Value::Ref(sroot) = shared else { panic!() };
        let Value::Ref(sleft) = h.view(sroot).unwrap().fields[0].value() else {
            panic!()
        };
        let Value::Ref(sbase) = h.view(sleft).unwrap().fields[0].value() else {
            panic!()
        };
        assert_eq!(h.view(sbase).unwrap().header, -2, "count carried over");
        h.drop_value(shared).unwrap();
        assert_eq!(seg.live_blocks(), 0, "diamond fully reclaimed");
    }

    #[test]
    fn mark_shared_rejects_mutable_references() {
        let mut h = heap();
        let mut seg = SharedHeap::new();
        let r = h.alloc(BlockTag::MutRef, vec![Value::Int(3)].into_boxed_slice());
        let holder = cell(&mut h, vec![Value::Ref(r)]);
        let err = h.mark_shared(Value::Ref(holder), &mut seg).unwrap_err();
        assert!(
            matches!(&err, RuntimeError::Internal(m) if m.contains("mutable reference")),
            "{err}"
        );
    }

    #[test]
    fn shared_blocks_are_never_unique_and_never_reused() {
        let mut h = heap();
        let mut seg = SharedHeap::new();
        let a = cell(&mut h, vec![Value::Int(4)]);
        let shared = h.mark_shared(Value::Ref(a), &mut seg).unwrap();
        seg.retain(shared, 1).unwrap(); // a second owner
        h.attach_shared(Arc::new(seg));
        assert!(!h.is_unique(shared).unwrap());
        let tok = h.drop_reuse(shared).unwrap();
        assert_eq!(tok, Value::Token(None), "shared cells yield no token");
        h.drop_value(shared).unwrap();
        assert_eq!(h.shared_segment().unwrap().live_blocks(), 0);
        // Real atomics were paid: the is-unique probe is free, but the
        // decrement and the final drop each did one RMW.
        assert_eq!(h.stats.atomic_ops, 2);
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let mut h = heap();
        let a = cell(&mut h, vec![]);
        h.drop_value(Value::Ref(a)).unwrap();
        let b = cell(&mut h, vec![]);
        assert_eq!(a.index, b.index, "header recycled");
        assert_ne!(a.gen, b.gen, "generation bumped");
        assert!(h.view(a).is_err());
        assert!(h.view(b).is_ok());
        h.drop_value(Value::Ref(b)).unwrap();
    }

    // ---- size-class free-list allocator ------------------------------

    #[test]
    fn freelist_hit_recycles_storage_and_bumps_generation() {
        let mut h = heap();
        let a = h.alloc_slice(BlockTag::Ctor(CtorId(9)), &[Value::Int(1), Value::Int(2)]);
        h.drop_value(Value::Ref(a)).unwrap();
        assert_eq!(h.listed_blocks(), 1);
        let b = h.alloc_slice(BlockTag::Ctor(CtorId(9)), &[Value::Int(3), Value::Int(4)]);
        assert_eq!(h.stats.freelist_hits, 1);
        assert_eq!(h.stats.recycled_words, 3);
        assert_eq!(a.index, b.index, "same header recycled");
        assert_ne!(a.gen, b.gen, "generation bumped across recycling");
        assert_eq!(h.arena.len(), 2, "the listed extent was rewritten in place");
        // The stale address is a deterministic error, never the new cell.
        assert!(matches!(h.view(a), Err(RuntimeError::UseAfterFree(_))));
        assert_eq!(h.view(b).unwrap().fields[0].value(), Value::Int(3));
        h.drop_value(Value::Ref(b)).unwrap();
    }

    #[test]
    fn size_classes_never_serve_wrong_sized_blocks() {
        let mut h = heap();
        // Retire one block in each of three classes.
        let a1 = h.alloc_slice(BlockTag::Ctor(CtorId(1)), &[Value::Int(1)]);
        let a2 = h.alloc_slice(BlockTag::Ctor(CtorId(2)), &[Value::Int(1), Value::Int(2)]);
        let a3 = h.alloc_slice(
            BlockTag::Ctor(CtorId(3)),
            &[Value::Int(1), Value::Int(2), Value::Int(3)],
        );
        for a in [a1, a2, a3] {
            h.drop_value(Value::Ref(a)).unwrap();
        }
        assert_eq!(h.free_list_occupancy(), vec![(1, 1), (2, 1), (3, 1)]);
        // A 2-field allocation must come from the 2-field class only.
        let b = h.alloc_slice(BlockTag::Ctor(CtorId(4)), &[Value::Int(7), Value::Int(8)]);
        assert_eq!(h.view(b).unwrap().fields.len(), 2);
        assert_eq!(b.index, a2.index, "exact-fit class served the header");
        assert_eq!(h.free_list_occupancy(), vec![(1, 1), (3, 1)]);
        // A 4-field allocation misses every list (no 4-class block).
        let misses_before = h.stats.freelist_misses;
        let c = h.alloc_slice(
            BlockTag::Ctor(CtorId(5)),
            &[Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)],
        );
        assert_eq!(h.stats.freelist_misses, misses_before + 1);
        assert_eq!(h.view(c).unwrap().fields.len(), 4);
        h.check_extents().unwrap();
        h.drop_value(Value::Ref(b)).unwrap();
        h.drop_value(Value::Ref(c)).unwrap();
    }

    #[test]
    fn oversize_blocks_recycle_by_exact_length_and_always_count_a_miss() {
        let mut h = heap();
        let big: Vec<Value> = (0..NUM_SIZE_CLASSES as i64 + 4).map(Value::Int).collect();
        let a = h.alloc_slice(BlockTag::Ctor(CtorId(9)), &big);
        h.drop_value(Value::Ref(a)).unwrap();
        assert_eq!(h.free_list_occupancy(), vec![], "no exact class holds it");
        assert_eq!(h.listed_blocks(), 1, "the overflow list does");
        // Another out-of-class length is not served by it.
        let c = h.alloc_slice(BlockTag::Ctor(CtorId(9)), &big[1..]);
        assert_ne!(a.index, c.index);
        // The exact length is: header and extent recycle, no arena
        // growth, and — out of class — it still counts as a miss.
        let arena = h.arena.len();
        let b = h.alloc_slice(BlockTag::Ctor(CtorId(9)), &big);
        assert_eq!(a.index, b.index);
        assert_ne!(a.gen, b.gen);
        assert_eq!(h.arena.len(), arena);
        let fields: Vec<Value> = h
            .view(b)
            .unwrap()
            .fields
            .iter()
            .map(|f| f.value())
            .collect();
        assert_eq!(fields, big);
        assert_eq!(h.stats.freelist_hits, 0);
        assert_eq!(h.stats.freelist_misses, 3);
        h.check_extents().unwrap();
        h.drop_value(Value::Ref(b)).unwrap();
        h.drop_value(Value::Ref(c)).unwrap();
    }

    #[test]
    fn recycling_off_never_relists_a_vacated_header() {
        let mut h = Heap::with_config(
            ReclaimMode::Rc,
            HeapConfig {
                recycle: false,
                ..HeapConfig::default()
            },
        );
        let a = h.alloc_slice(BlockTag::Ctor(CtorId(9)), &[Value::Int(1)]);
        h.drop_value(Value::Ref(a)).unwrap();
        assert_eq!(h.listed_blocks(), 0);
        let b = h.alloc_slice(BlockTag::Ctor(CtorId(9)), &[Value::Int(2)]);
        assert_eq!(h.stats.freelist_hits, 0);
        assert_eq!(h.stats.freelist_misses, 0, "misses not counted when off");
        // Every allocation bumps the arena; the dead header stays dead
        // and its generation still protects against stale addresses.
        assert_ne!(a.index, b.index);
        assert_eq!(h.arena.len(), 2);
        assert!(matches!(h.view(a), Err(RuntimeError::UseAfterFree(_))));
        h.check_extents().unwrap();
        h.drop_value(Value::Ref(b)).unwrap();
        assert_eq!(h.live_blocks(), 0);
    }

    #[test]
    fn listed_blocks_are_not_live_and_not_readable() {
        let mut h = heap();
        let a = cell(&mut h, vec![Value::Int(5)]);
        h.drop_value(Value::Ref(a)).unwrap();
        assert_eq!(h.live_blocks(), 0);
        assert_eq!(h.listed_blocks(), 1);
        assert_eq!(h.iter_live().count(), 0, "listed blocks are invisible");
        assert!(matches!(h.view(a), Err(RuntimeError::UseAfterFree(_))));
    }

    #[test]
    fn freelist_roundtrip_preserves_rc_semantics_under_churn() {
        // A hot loop in one class plus interleaved other classes: the
        // steady state allocates entirely from the free lists.
        let mut h = heap();
        let warm = h.alloc_slice(BlockTag::Ctor(CtorId(9)), &[Value::Int(0), Value::Int(0)]);
        h.drop_value(Value::Ref(warm)).unwrap();
        let fresh_before = h.stats.allocations;
        for i in 0..1000 {
            let a = h.alloc_slice(
                BlockTag::Ctor(CtorId(9)),
                &[Value::Int(i), Value::Int(i + 1)],
            );
            let b = h.alloc_slice(BlockTag::Ctor(CtorId(9)), &[Value::Ref(a)]);
            h.drop_value(Value::Ref(b)).unwrap();
        }
        assert_eq!(h.live_blocks(), 0);
        assert_eq!(h.stats.allocations - fresh_before, 2000);
        // Only the very first 1-field alloc can miss; everything else is
        // served from the lists.
        assert!(h.stats.freelist_hits >= 1999, "{}", h.stats.freelist_hits);
        assert!(h.stats.recycled_words >= 1999 * 2);
    }

    #[test]
    fn class_lists_hand_headers_back_in_lifo_order() {
        let mut h = heap();
        let blocks: Vec<Addr> = (0..3)
            .map(|i| h.alloc_slice(BlockTag::Ctor(CtorId(9)), &[Value::Int(i), Value::Int(i)]))
            .collect();
        for &a in &blocks {
            h.drop_value(Value::Ref(a)).unwrap();
        }
        h.check_extents().unwrap();
        let again: Vec<u32> = (0..3)
            .map(|i| {
                h.alloc_slice(BlockTag::Ctor(CtorId(9)), &[Value::Int(i), Value::Int(i)])
                    .index
            })
            .collect();
        let freed_last_first: Vec<u32> = blocks.iter().rev().map(|a| a.index).collect();
        assert_eq!(again, freed_last_first);
        assert_eq!(h.stats.freelist_hits, 3);
    }

    #[test]
    fn wide_blocks_read_their_length_from_the_tiling() {
        let wide: Vec<Value> = (0..Header::WIDE as i64 + 7).map(Value::Int).collect();
        // Once as the last header, once with a header after it.
        for followed in [false, true] {
            let mut h = heap();
            let before = h.alloc_slice(BlockTag::Ctor(CtorId(1)), &[Value::Int(0)]);
            let a = h.alloc_slice(BlockTag::Ctor(CtorId(2)), &wide);
            assert!(h.headers[a.index as usize].inline_len().is_none());
            let after = followed.then(|| h.alloc_slice(BlockTag::Ctor(CtorId(3)), &[]));
            assert_eq!(h.view(a).unwrap().fields.len(), wide.len());
            h.check_extents().unwrap();
            h.drop_value(Value::Ref(a)).unwrap();
            assert_eq!(h.listed_blocks(), 1);
            h.check_extents().unwrap();
            let arena = h.arena.len();
            let b = h.alloc_slice(BlockTag::Ctor(CtorId(4)), &wide);
            assert_eq!(
                (b.index, h.arena.len()),
                (a.index, arena),
                "recycled in place"
            );
            let v = h.view(b).unwrap();
            assert_eq!(v.fields.len(), wide.len());
            assert_eq!(v.fields[wide.len() - 1].value(), wide[wide.len() - 1]);
            assert_eq!(v.tag, BlockTag::Ctor(CtorId(4)));
            h.check_extents().unwrap();
            for x in [Some(before), Some(b), after].into_iter().flatten() {
                h.drop_value(Value::Ref(x)).unwrap();
            }
            assert_eq!(h.live_blocks(), 0);
            h.check_extents().unwrap();
        }
    }

    #[test]
    fn header_meta_round_trips_every_field() {
        let mut h = Header::new(BlockTag::Closure(LamId(ID_LIMIT - 1)), 5, 62);
        assert_eq!(h.tag(), BlockTag::Closure(LamId(ID_LIMIT - 1)));
        assert_eq!(
            (h.inline_len(), h.state(), h.mark()),
            (Some(62), State::Used, false)
        );
        h.set_mark(true);
        h.set_state(State::Listed);
        h.set_tag(BlockTag::MutRef);
        assert_eq!(h.tag(), BlockTag::MutRef);
        assert_eq!(
            (h.inline_len(), h.state(), h.mark()),
            (Some(62), State::Listed, true)
        );
        h.set_tag(BlockTag::Ctor(CtorId(7)));
        h.set_state(State::Vacant);
        assert_eq!(h.tag(), BlockTag::Ctor(CtorId(7)));
        assert_eq!(
            (h.inline_len(), h.state(), h.mark()),
            (Some(62), State::Vacant, true)
        );
        assert_eq!(Header::new(BlockTag::MutRef, 0, 63).inline_len(), None);
    }
}
