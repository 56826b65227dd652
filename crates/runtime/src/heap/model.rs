//! Model-based test of the local heap: random operation sequences run
//! against [`Heap`] and against a `HashMap` of plain blocks, compared
//! after every step. The model knows nothing about headers, extents or
//! free lists — only what a block holds and how many references it has
//! — so whatever the heap does with its storage, the two must agree on
//! everything a program can observe.

use super::*;
use crate::audit;
use perceus_core::ir::FunId;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct ModelBlock {
    /// Signed count as the heap keeps it: negative once `tshare`d, `0`
    /// while claimed by a reuse token.
    count: i32,
    tag: BlockTag,
    fields: Vec<Value>,
}

struct Model {
    heap: Heap,
    blocks: HashMap<Addr, ModelBlock>,
    /// References the driver owns, one entry per count it may spend.
    handles: Vec<Addr>,
    /// Claimed cells the driver holds a token for.
    tokens: Vec<Addr>,
    /// Every address that has died.
    retired: Vec<Addr>,
}

type Check = Result<(), TestCaseError>;

impl Heap {
    /// Test support: every header's extent lies inside the arena, no
    /// two headers' extents overlap (dead ones included: an extent is
    /// never split, merged or moved), only a block wider than the
    /// inline count reads its length from the tiling, `used` is exact,
    /// and the free lists thread exactly the listed headers: each chain
    /// acyclic, each listed header on one chain of its own length, and
    /// the chain lengths those [`Heap::free_list_occupancy`] and
    /// [`Heap::listed_blocks`] report.
    pub(super) fn check_extents(&self) -> Result<(), String> {
        let mut end = 0;
        for (i, h) in self.headers.iter().enumerate() {
            // Extents are handed out in header order, back to back.
            if h.off as usize != end {
                return Err(format!("header {i} starts at {} not {end}", h.off));
            }
            end = self.extent(i as u32).end;
            if h.inline_len().is_none() && end - (h.off as usize) < Header::WIDE as usize {
                return Err(format!(
                    "wide header {i} has {} fields",
                    end - h.off as usize
                ));
            }
        }
        if end != self.arena.len() {
            return Err(format!(
                "extents end at {end}, arena at {}",
                self.arena.len()
            ));
        }
        let count = |s: State| self.headers.iter().filter(|h| h.state() == s).count();
        if count(State::Used) != self.used {
            return Err(format!(
                "{} used headers, counted {}",
                count(State::Used),
                self.used
            ));
        }
        let mut chained = vec![false; self.headers.len()];
        let mut occupancy = Vec::new();
        let mut listed = 0;
        for (class, list) in self.lists.iter().enumerate() {
            let mut len = 0;
            let mut i = list.head;
            while i != NIL {
                let h = self
                    .headers
                    .get(i as usize)
                    .ok_or(format!("list {class} names header {i}"))?;
                if std::mem::replace(&mut chained[i as usize], true) {
                    return Err(format!("header {i} is on a list twice (list {class})"));
                }
                let fields = self.extent(i).len();
                let fits = match class {
                    NUM_SIZE_CLASSES => fields >= NUM_SIZE_CLASSES,
                    k => fields == k,
                };
                if h.state() != State::Listed || !fits {
                    return Err(format!(
                        "list {class} holds header {i}: {:?} with {fields} fields",
                        h.state()
                    ));
                }
                len += 1;
                i = h.count as u32;
            }
            if len != list.len {
                return Err(format!("list {class} threads {len}, counts {}", list.len));
            }
            if class < NUM_SIZE_CLASSES && len > 0 {
                occupancy.push((class, len as usize));
            }
            listed += len as usize;
        }
        if listed != count(State::Listed) {
            return Err(format!(
                "{} listed headers, {listed} on lists",
                count(State::Listed)
            ));
        }
        if occupancy != self.free_list_occupancy() || listed as u64 != self.listed_blocks() {
            return Err(format!(
                "chains {occupancy:?} ({listed}), reported {:?} ({})",
                self.free_list_occupancy(),
                self.listed_blocks()
            ));
        }
        if !self.config.recycle && listed != 0 {
            return Err(format!("{listed} headers relisted with recycling off"));
        }
        Ok(())
    }
}

fn pick<T: Copy>(items: &[T], r: u64) -> Option<T> {
    (!items.is_empty()).then(|| items[(r % items.len() as u64) as usize])
}

fn take(items: &mut Vec<Addr>, r: u64) -> Option<Addr> {
    (!items.is_empty()).then(|| items.swap_remove((r % items.len() as u64) as usize))
}

impl Model {
    fn new(recycle: bool) -> Self {
        let config = HeapConfig {
            recycle,
            ..HeapConfig::default()
        };
        Model {
            heap: Heap::with_config(ReclaimMode::Rc, config),
            blocks: HashMap::new(),
            handles: Vec::new(),
            tokens: Vec::new(),
            retired: Vec::new(),
        }
    }

    fn tag(r: u64) -> BlockTag {
        match r % 3 {
            0 => BlockTag::Ctor(CtorId((r >> 8) as u32 % 50)),
            1 => BlockTag::Closure(LamId((r >> 8) as u32 % 50)),
            _ => BlockTag::MutRef,
        }
    }

    /// `len` field values: references to blocks the driver has a handle
    /// on, each retained for the field to own, and scalars of every
    /// other stored tag.
    fn fields(&mut self, len: usize, mut r: u64) -> Vec<Value> {
        (0..len)
            .map(|_| {
                r = r
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match pick(&self.handles, r >> 20) {
                    Some(a) if r & 3 == 0 => {
                        self.dup(a);
                        Value::Ref(a)
                    }
                    _ => Self::scalar(r),
                }
            })
            .collect()
    }

    fn dup(&mut self, a: Addr) {
        self.heap.dup(Value::Ref(a)).expect("dup of a live block");
        let b = self.blocks.get_mut(&a).expect("handle names a model block");
        b.count += b.count.signum();
    }

    /// Releases one reference in the model; at zero the block dies and
    /// releases its children.
    fn release(&mut self, a: Addr) {
        let mut work = vec![a];
        while let Some(a) = work.pop() {
            let b = self.blocks.get_mut(&a).expect("reference to a model block");
            b.count -= b.count.signum();
            if b.count == 0 {
                let b = self.blocks.remove(&a).expect("just seen");
                work.extend(b.fields.iter().filter_map(Value::addr));
                self.retired.push(a);
            }
        }
    }

    fn step(&mut self, op: u8, a: u64, b: u64) -> Check {
        match op {
            // alloc_slice / alloc: lengths straddle the last size class
            // and the widest inline count.
            0..=3 => {
                let len = match a % 8 {
                    0 => NUM_SIZE_CLASSES - 1 + (a >> 8) as usize % 4,
                    1 => Header::WIDE as usize - 2 + (a >> 8) as usize % 4,
                    _ => (a >> 8) as usize % 5,
                };
                let fields = self.fields(len, b);
                let tag = Self::tag(b);
                let before = self.heap.stats;
                let listed = self.heap.listed_blocks();
                let addr = if op.is_multiple_of(2) {
                    self.heap.alloc_slice(tag, &fields)
                } else {
                    self.heap.alloc(tag, fields.clone().into_boxed_slice())
                };
                prop_assert!(!addr.is_shared());
                prop_assert!(!self.blocks.contains_key(&addr), "{addr} handed out twice");
                prop_assert!(!self.retired.contains(&addr), "{addr} reborn");
                let st = self.heap.stats;
                if st.freelist_hits > before.freelist_hits {
                    prop_assert!(len < NUM_SIZE_CLASSES);
                    prop_assert_eq!(self.heap.listed_blocks(), listed - 1);
                }
                let count = (st.freelist_hits - before.freelist_hits)
                    + (st.freelist_misses - before.freelist_misses);
                prop_assert_eq!(count, self.heap.recycling() as u64);
                let block = ModelBlock {
                    count: 1,
                    tag,
                    fields,
                };
                self.blocks.insert(addr, block);
                self.handles.push(addr);
            }
            4 => {
                if let Some(h) = pick(&self.handles, a) {
                    self.dup(h);
                    self.handles.push(h);
                }
            }
            5 | 6 => {
                if let Some(h) = take(&mut self.handles, a) {
                    self.heap.drop_value(Value::Ref(h)).expect("drop");
                    self.release(h);
                }
            }
            7 => {
                if let Some(h) = take(&mut self.handles, a) {
                    if self.blocks[&h].count == 1 {
                        // The last reference: `decref` refuses it.
                        prop_assert!(self.heap.decref(Value::Ref(h)).is_err());
                        self.handles.push(h);
                    } else {
                        self.heap.decref(Value::Ref(h)).expect("decref");
                        self.release(h);
                    }
                }
            }
            8 | 9 => {
                if let Some(h) = take(&mut self.handles, a) {
                    let token = self.heap.drop_reuse(Value::Ref(h)).expect("drop_reuse");
                    if self.blocks[&h].count == 1 {
                        prop_assert_eq!(token, Value::Token(Some(h)));
                        let block = self.blocks.get_mut(&h).expect("just read");
                        block.count = 0;
                        let children: Vec<Addr> =
                            block.fields.iter().filter_map(Value::addr).collect();
                        for c in children {
                            self.release(c);
                        }
                        self.tokens.push(h);
                    } else {
                        prop_assert_eq!(token, Value::Token(None));
                        self.release(h);
                    }
                }
            }
            10 | 11 => {
                if let Some(t) = take(&mut self.tokens, a) {
                    let old = self.blocks[&t].fields.clone();
                    let mut args = self.fields(old.len(), b);
                    // Reuse specialization: skip fields that already
                    // hold the argument.
                    let mut skip = vec![false; args.len()];
                    for i in 0..args.len() {
                        if let (Value::Int(x), Value::Int(_)) = (old[i], args[i]) {
                            if (b >> i) & 1 == 1 {
                                args[i] = Value::Int(x);
                                skip[i] = true;
                            }
                        }
                    }
                    let mask: &[bool] = if b & (1 << 40) == 0 { &skip } else { &[] };
                    let ctor = CtorId(b as u32 % 50);
                    let out = self.heap.alloc_into(t, ctor, &args, mask).expect("reuse");
                    prop_assert_eq!(out, t);
                    let block = ModelBlock {
                        count: 1,
                        tag: BlockTag::Ctor(ctor),
                        fields: args,
                    };
                    self.blocks.insert(t, block);
                    self.handles.push(t);
                }
            }
            12 => {
                if let Some(t) = take(&mut self.tokens, a) {
                    self.heap
                        .drop_token(Value::Token(Some(t)))
                        .expect("drop_token");
                    self.blocks.remove(&t);
                    self.retired.push(t);
                }
            }
            13 => {
                if let Some(h) = take(&mut self.handles, a) {
                    if self.blocks[&h].count == 1 {
                        // The children's references pass to the driver.
                        self.heap.free_cell(Value::Ref(h)).expect("free");
                        let b = self.blocks.remove(&h).expect("just read");
                        self.handles.extend(b.fields.iter().filter_map(Value::addr));
                        self.retired.push(h);
                    } else {
                        prop_assert!(self.heap.free_cell(Value::Ref(h)).is_err());
                        self.handles.push(h);
                    }
                }
            }
            14 => {
                if let Some(h) = pick(&self.handles, a) {
                    self.heap.tshare(Value::Ref(h)).expect("tshare");
                    let mut work = vec![h];
                    while let Some(x) = work.pop() {
                        let b = self.blocks.get_mut(&x).expect("reachable block");
                        if b.count > 0 {
                            b.count = -b.count;
                            work.extend(b.fields.iter().filter_map(Value::addr));
                        }
                    }
                }
            }
            _ => {
                // Rare: most sequences should build up some state.
                if a.is_multiple_of(4) {
                    let reclaimed = self.heap.reset();
                    prop_assert_eq!(reclaimed, self.blocks.len() as u64);
                    self.retired.extend(self.blocks.drain().map(|(a, _)| a));
                    self.handles.clear();
                    self.tokens.clear();
                }
            }
        }
        Ok(())
    }

    /// A field that owns no reference: integers at full width and at
    /// their extremes, singletons, globals, unit and the null token.
    fn scalar(r: u64) -> Value {
        let id = (r >> 24) as u32;
        match (r >> 56) % 10 {
            0 => Value::Int(i64::MIN),
            1 => Value::Int(i64::MAX),
            2 => Value::Int(-1),
            3 => Value::Enum(CtorId(id)),
            4 => Value::Global(FunId(id)),
            5 => Value::Unit,
            6 => Value::Token(None),
            _ => Value::Int(r.rotate_left(23) as i64),
        }
    }

    fn check(&self) -> Check {
        let heap = &self.heap;
        for (addr, m) in &self.blocks {
            let v = match heap.view(*addr) {
                Ok(v) => v,
                Err(e) => return Err(TestCaseError::fail(format!("{addr} unreadable: {e}"))),
            };
            prop_assert_eq!(v.header, m.count, "count of {}", addr);
            prop_assert_eq!(v.fields.len(), m.fields.len(), "length of {}", addr);
            // A claimed cell's contents are meaningless (but stay put).
            let fields: Vec<Value> = v.fields.iter().map(|f| f.value()).collect();
            prop_assert_eq!(fields, m.fields.clone(), "fields of {}", addr);
            if m.count != 0 {
                prop_assert_eq!(v.tag, m.tag, "tag of {}", addr);
            }
        }
        prop_assert_eq!(heap.live_blocks(), self.blocks.len() as u64);
        let words: u64 = self
            .blocks
            .values()
            .map(|b| b.fields.len() as u64 + 1)
            .sum();
        prop_assert_eq!(heap.stats.live_words, words);
        let mut live: Vec<Addr> = heap.iter_live().map(|(a, _)| a).collect();
        let mut expected: Vec<Addr> = self.blocks.keys().copied().collect();
        live.sort_by_key(|a| a.index);
        expected.sort_by_key(|a| a.index);
        prop_assert_eq!(live, expected);

        if let Err(e) = heap.check_extents() {
            return Err(TestCaseError::fail(e));
        }
        if !heap.recycling() {
            prop_assert_eq!(heap.listed_blocks(), 0);
            prop_assert_eq!(heap.stats.freelist_hits + heap.stats.freelist_misses, 0);
        }
        for a in &self.retired {
            prop_assert!(
                matches!(heap.view(*a), Err(RuntimeError::UseAfterFree(_))),
                "retired {a} is not stale"
            );
        }
        let beyond = Addr {
            index: heap.slot_count() as u32,
            gen: 0,
        };
        prop_assert!(matches!(
            heap.view(beyond),
            Err(RuntimeError::BadAddress(_))
        ));

        // Counts are adequate and every block is reachable from what
        // the driver holds: the garbage-free audit, on every state.
        let roots: Vec<Addr> = self.handles.iter().chain(&self.tokens).copied().collect();
        if let Err(e) = audit::check_heap(heap, &roots) {
            return Err(TestCaseError::fail(e));
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn heap_agrees_with_the_reference_model(
        recycle in any::<bool>(),
        ops in proptest::collection::vec((0u8..16, any::<u64>(), any::<u64>()), 1..160),
    ) {
        let mut m = Model::new(recycle);
        for (i, (op, a, b)) in ops.iter().enumerate() {
            if let Err(e) = m.step(*op, *a, *b).and_then(|()| m.check()) {
                return Err(TestCaseError::fail(format!("step {i} (op {op}): {e}")));
            }
        }
        // Spend everything the driver holds: the heap must end empty.
        for t in std::mem::take(&mut m.tokens) {
            m.heap.drop_token(Value::Token(Some(t))).expect("drop_token");
        }
        for h in std::mem::take(&mut m.handles) {
            m.heap.drop_value(Value::Ref(h)).expect("drop");
        }
        prop_assert_eq!(m.heap.live_blocks(), 0);
        prop_assert_eq!(m.heap.iter_live().count(), 0);
    }
}
