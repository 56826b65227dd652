//! The attributed profiler: every heap/RC event credited to the machine
//! call frame that executed it, and from there back to source.
//!
//! The paper's evaluation (§4) is entirely a measurement exercise —
//! Fig. 9/11 compare *counts* of reference-count operations and
//! allocations across systems — and the Koka/Lean runtimes this
//! reproduction follows grew matching profiling layers ("Counting
//! Immutable Beans" reports per-benchmark RC totals the same way). This
//! module is the attribution substrate behind `perceus-suite profile`
//! and the `Profile` section of `perceus-bench`:
//!
//! * the machine maintains a **calling-context tree** (CCT): one node
//!   per distinct stack of [`FrameKind`]s (top-level functions and
//!   lifted lambdas). Enter/exit follow call frames; tail calls replace
//!   the current node in place, so FBIP loops do not grow the tree;
//! * the current CCT node changes only at a frame boundary, so the
//!   profiler keeps one open window: at every enter, exit and tail
//!   call it credits the attributable [`Stats`] counters' difference
//!   since the last boundary to the node being left, then moves on.
//!   Attribution is therefore **exact by construction**: summing all
//!   nodes reproduces the run's `Stats` field for field, whatever path
//!   an operation took (see `ProfCounts::capture`), and no heap
//!   operation carries a profiling hook of its own;
//! * dedicated hooks record what the counter diff cannot: fresh
//!   allocations **by size class** and **by constructor**, reuse hits
//!   by constructor, and per-function **peak live words** (an owner
//!   table maps each heap slot to the frame that allocated it, so a
//!   free is debited from the allocator's liveness, not the dropper's);
//! * when the profiler is disabled (the default) every hook is one
//!   branch on an `Option` that is `None`, taken per frame change and
//!   per fresh allocation, reuse or free — the zero-overhead test in
//!   `perceus-suite` asserts it changes nothing by comparing `Stats` of
//!   profiled and unprofiled runs.
//!
//! Profiles from concurrent machines merge with [`Profiler::merge`],
//! which is associative with the empty profiler as identity (counts
//! add, peaks max, CCT children keep the left operand's order) — the
//! same discipline as [`Stats::merge`], so `suite::parallel` can fold
//! worker profiles in thread-index order and get a deterministic
//! report. See `docs/OBSERVABILITY.md` for the full pipeline.

use crate::code::Compiled;
use crate::heap::stats::Stats;
use crate::heap::{BlockTag, LamId, NUM_SIZE_CLASSES};
use perceus_core::ir::{CtorId, FunId};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Which code the machine is executing: the attribution key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Outside any function: machine entry glue and the final result
    /// drop.
    Root,
    /// A top-level function.
    Fun(FunId),
    /// A lifted lambda.
    Lam(LamId),
}

impl FrameKind {
    /// Deterministic ordering key for reports (root, then functions by
    /// id, then lambdas by id).
    fn order_key(self) -> (u8, u32) {
        match self {
            FrameKind::Root => (0, 0),
            FrameKind::Fun(f) => (1, f.0),
            FrameKind::Lam(l) => (2, l.0),
        }
    }

    /// Human-readable name against a compiled program.
    pub fn name(self, code: &Compiled) -> String {
        match self {
            FrameKind::Root => "<toplevel>".to_string(),
            FrameKind::Fun(f) => code.funs[f.0 as usize].name.to_string(),
            FrameKind::Lam(l) => format!("<lambda#{}>", l.0),
        }
    }
}

/// The attributable subset of [`Stats`]: the monotonic event counters.
/// Gauges (`live_*`) and high-water marks are excluded — a windowed
/// difference of a gauge is not an event count — and so is `steps`,
/// which the machine (not the heap) advances. Arithmetic is wrapping:
/// `decref` transiently *decrements* `Stats::drops` when reclassifying
/// an internal child release, and the window diff must absorb that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfCounts {
    pub dups: u64,
    pub drops: u64,
    pub decrefs: u64,
    pub unique_tests: u64,
    pub unique_hits: u64,
    pub allocations: u64,
    pub alloc_words: u64,
    pub reuses: u64,
    pub frees: u64,
    pub freelist_hits: u64,
    pub freelist_misses: u64,
    pub recycled_words: u64,
    pub field_writes: u64,
    pub skipped_writes: u64,
    pub token_frees: u64,
    pub shared_marks: u64,
    pub atomic_ops: u64,
    pub local_shared_ops: u64,
}

macro_rules! for_each_prof_counter {
    ($m:ident) => {
        $m!(
            dups,
            drops,
            decrefs,
            unique_tests,
            unique_hits,
            allocations,
            alloc_words,
            reuses,
            frees,
            freelist_hits,
            freelist_misses,
            recycled_words,
            field_writes,
            skipped_writes,
            token_frees,
            shared_marks,
            atomic_ops,
            local_shared_ops
        )
    };
}

impl ProfCounts {
    /// Snapshots the attributable counters of a [`Stats`].
    pub fn capture(s: &Stats) -> ProfCounts {
        macro_rules! cap {
            ($($f:ident),*) => { ProfCounts { $($f: s.$f),* } }
        }
        for_each_prof_counter!(cap)
    }

    /// Field-wise wrapping difference (`self - before`).
    #[must_use]
    pub fn diff(&self, before: &ProfCounts) -> ProfCounts {
        macro_rules! d {
            ($($f:ident),*) => { ProfCounts { $($f: self.$f.wrapping_sub(before.$f)),* } }
        }
        for_each_prof_counter!(d)
    }

    /// Field-wise accumulation.
    pub fn add(&mut self, other: &ProfCounts) {
        macro_rules! a {
            ($($f:ident),*) => {{ $(self.$f = self.$f.wrapping_add(other.$f);)* }}
        }
        for_each_prof_counter!(a);
    }

    /// Reference-count operations (the Fig. 9 `rc-ops` quantity).
    pub fn rc_ops(&self) -> u64 {
        self.dups + self.drops + self.decrefs + self.unique_tests
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == ProfCounts::default()
    }

    /// `(label, value)` pairs in canonical report order.
    pub fn entries(&self) -> Vec<(&'static str, u64)> {
        macro_rules! e {
            ($($f:ident),*) => { vec![$((stringify!($f), self.$f)),*] }
        }
        for_each_prof_counter!(e)
    }
}

/// Construction profile of one constructor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtorCounts {
    /// Fresh heap allocations of this constructor.
    pub allocs: u64,
    /// Constructions served in place from a reuse token (§2.4/§2.5).
    pub reuses: u64,
}

impl CtorCounts {
    /// Fraction of constructions served by reuse.
    pub fn reuse_rate(&self) -> f64 {
        let t = self.allocs + self.reuses;
        if t == 0 {
            0.0
        } else {
            self.reuses as f64 / t as f64
        }
    }
}

/// One calling-context-tree node.
#[derive(Debug, Clone)]
struct Node {
    frame: FrameKind,
    parent: usize,
    /// Children in first-seen order (deterministic for a deterministic
    /// run; `merge` preserves the left operand's order).
    children: Vec<usize>,
    /// Times this exact context was entered (tail calls count).
    calls: u64,
    /// Events attributed to this context (exclusive, not inherited).
    counts: ProfCounts,
    /// Fresh allocations by size class (index = field count; the last
    /// bucket collects oversize blocks).
    alloc_classes: [u64; NUM_SIZE_CLASSES + 1],
}

impl Node {
    fn new(frame: FrameKind, parent: usize) -> Node {
        Node {
            frame,
            parent,
            children: Vec::new(),
            calls: 0,
            counts: ProfCounts::default(),
            alloc_classes: [0; NUM_SIZE_CLASSES + 1],
        }
    }
}

/// Per-frame live-word accounting (peak liveness attribution).
#[derive(Debug, Clone, Copy, Default)]
struct FrameLive {
    live_words: u64,
    peak_words: u64,
}

/// The attributed profiler. Owned by the heap (so allocation hooks can
/// reach it); driven by the machine (which tracks call frames).
#[derive(Debug, Clone)]
pub struct Profiler {
    nodes: Vec<Node>,
    cur: usize,
    /// The heap's attributable counters when the open window began
    /// (the last frame change, or when profiling was enabled).
    base: ProfCounts,
    /// Per-constructor construction counts, indexed by `CtorId` (grown
    /// on demand).
    ctors: Vec<CtorCounts>,
    /// Interned frames for the liveness table.
    frames: Vec<FrameKind>,
    frame_ids: HashMap<FrameKind, u32>,
    /// Live/peak words per interned frame, debited on free from the
    /// *allocating* frame.
    live: Vec<FrameLive>,
    /// `owners[slot] = (interned frame, words)` for live local blocks.
    owners: Vec<Option<(u32, u32)>>,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

impl Profiler {
    /// An empty profiler positioned at the root context.
    pub fn new() -> Profiler {
        Profiler {
            nodes: vec![Node::new(FrameKind::Root, 0)],
            cur: 0,
            base: ProfCounts::default(),
            ctors: Vec::new(),
            frames: Vec::new(),
            frame_ids: HashMap::new(),
            live: Vec::new(),
            owners: Vec::new(),
        }
    }

    fn child(&mut self, parent: usize, frame: FrameKind) -> usize {
        if let Some(&c) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].frame == frame)
        {
            return c;
        }
        let c = self.nodes.len();
        self.nodes.push(Node::new(frame, parent));
        self.nodes[parent].children.push(c);
        c
    }

    /// An empty profiler whose first window opens at `stats`: events
    /// counted before it stay unattributed.
    pub(crate) fn open(stats: &Stats) -> Profiler {
        Profiler {
            base: ProfCounts::capture(stats),
            ..Profiler::new()
        }
    }

    /// Closes the open window: everything counted since it began is
    /// credited to the current context, and a new window begins.
    pub(crate) fn flush(&mut self, stats: &Stats) {
        let now = ProfCounts::capture(stats);
        self.nodes[self.cur].counts.add(&now.diff(&self.base));
        self.base = now;
    }

    /// Enters a call frame (machine: function entry / saved call frame).
    pub fn enter(&mut self, stats: &Stats, frame: FrameKind) {
        self.flush(stats);
        let c = self.child(self.cur, frame);
        self.nodes[c].calls += 1;
        self.cur = c;
    }

    /// Leaves the current frame (machine: `ret` popping a call frame).
    pub fn exit(&mut self, stats: &Stats) {
        self.flush(stats);
        self.cur = self.nodes[self.cur].parent;
    }

    /// Tail call: the current frame is replaced in place — the tree
    /// stays flat for FBIP loops instead of growing one node per
    /// iteration.
    pub fn tail(&mut self, stats: &Stats, frame: FrameKind) {
        self.flush(stats);
        let parent = self.nodes[self.cur].parent;
        let c = self.child(parent, frame);
        self.nodes[c].calls += 1;
        self.cur = c;
    }

    /// Credits counters no machine frame executed to the root context:
    /// a shared segment's own frees, which a parallel run folds into
    /// its merged `Stats`, so the merged profile partitions them too.
    pub fn credit_root(&mut self, delta: &ProfCounts) {
        self.nodes[0].counts.add(delta);
    }

    fn intern(&mut self, frame: FrameKind) -> u32 {
        if let Some(&id) = self.frame_ids.get(&frame) {
            return id;
        }
        let id = self.frames.len() as u32;
        self.frames.push(frame);
        self.live.push(FrameLive::default());
        self.frame_ids.insert(frame, id);
        id
    }

    /// A fresh local-heap allocation: size class + constructor + owner
    /// bookkeeping (called by the heap next to `Stats::on_fresh_alloc`).
    pub fn on_alloc(&mut self, slot: u32, tag: BlockTag, words: u64) {
        let class = (words as usize - 1).min(NUM_SIZE_CLASSES);
        self.nodes[self.cur].alloc_classes[class] += 1;
        if let BlockTag::Ctor(c) = tag {
            self.ctor_mut(c).allocs += 1;
        }
        let frame = self.nodes[self.cur].frame;
        let fid = self.intern(frame);
        let entry = &mut self.live[fid as usize];
        entry.live_words += words;
        entry.peak_words = entry.peak_words.max(entry.live_words);
        let slot = slot as usize;
        if slot >= self.owners.len() {
            self.owners.resize(slot + 1, None);
        }
        self.owners[slot] = Some((fid, words as u32));
    }

    /// A construction served in place from a reuse token. The cell's
    /// owner (and live accounting) stays with the frame that originally
    /// allocated the storage — reuse holds memory, it does not move it.
    pub fn on_reuse(&mut self, ctor: CtorId) {
        self.ctor_mut(ctor).reuses += 1;
    }

    /// A local block left the heap (freed, token-released, swept, or
    /// evicted to the shared segment): debit the allocating frame.
    pub fn on_release(&mut self, slot: u32) {
        if let Some(Some((fid, words))) = self.owners.get_mut(slot as usize).map(Option::take) {
            self.live[fid as usize].live_words -= words as u64;
        }
    }

    fn ctor_mut(&mut self, c: CtorId) -> &mut CtorCounts {
        let i = c.0 as usize;
        if i >= self.ctors.len() {
            self.ctors.resize(i + 1, CtorCounts::default());
        }
        &mut self.ctors[i]
    }

    /// Sum of every node's counts — equals `ProfCounts::capture` of the
    /// run's final `Stats` (exactness by construction; asserted by the
    /// suite's profile tests).
    pub fn totals(&self) -> ProfCounts {
        let mut t = ProfCounts::default();
        for n in &self.nodes {
            t.add(&n.counts);
        }
        t
    }

    /// Merges two profiles (associative; `Profiler::new()` is the
    /// identity): CCT counts add context-wise, constructor counts add,
    /// per-frame live words add and peaks take the max — concurrent
    /// heaps are disjoint, so the combined peak is bounded by the max
    /// any one actor observed (the `Stats::merge` argument).
    #[must_use]
    pub fn merge(&self, other: &Profiler) -> Profiler {
        let mut out = self.clone();
        // Post-run profiles carry no live blocks to track.
        out.owners.clear();
        // CCT merge: walk `other` and mirror each context into `out`.
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)]; // (out node, other node)
        while let Some((o, t)) = stack.pop() {
            out.nodes[o].calls += other.nodes[t].calls;
            let delta = other.nodes[t].counts;
            out.nodes[o].counts.add(&delta);
            for k in 0..other.nodes[t].alloc_classes.len() {
                out.nodes[o].alloc_classes[k] += other.nodes[t].alloc_classes[k];
            }
            for &tc in &other.nodes[t].children {
                let frame = other.nodes[tc].frame;
                let oc = out.child(o, frame);
                stack.push((oc, tc));
            }
        }
        // Constructor counts.
        if other.ctors.len() > out.ctors.len() {
            out.ctors.resize(other.ctors.len(), CtorCounts::default());
        }
        for (i, c) in other.ctors.iter().enumerate() {
            out.ctors[i].allocs += c.allocs;
            out.ctors[i].reuses += c.reuses;
        }
        // Liveness: add live, max peaks, per frame kind.
        for (i, fl) in other.live.iter().enumerate() {
            let fid = out.intern(other.frames[i]) as usize;
            out.live[fid].live_words += fl.live_words;
            out.live[fid].peak_words = out.live[fid].peak_words.max(fl.peak_words);
        }
        out
    }

    /// Aggregates the CCT by frame (all contexts of one function fold
    /// together), in deterministic order: root, functions by id,
    /// lambdas by id.
    pub fn per_frame(&self) -> Vec<FrameProfile> {
        let mut by_frame: HashMap<FrameKind, FrameProfile> = HashMap::new();
        for n in &self.nodes {
            let e = by_frame.entry(n.frame).or_insert_with(|| FrameProfile {
                frame: n.frame,
                ..FrameProfile::default()
            });
            e.calls += n.calls;
            e.counts.add(&n.counts);
            for (k, c) in n.alloc_classes.iter().enumerate() {
                e.alloc_classes[k] += c;
            }
        }
        for (i, fl) in self.live.iter().enumerate() {
            if let Some(e) = by_frame.get_mut(&self.frames[i]) {
                e.peak_live_words = fl.peak_words;
            }
        }
        let mut rows: Vec<FrameProfile> = by_frame
            .into_values()
            .filter(|r| r.calls > 0 || !r.counts.is_zero() || r.frame == FrameKind::Root)
            .collect();
        rows.sort_by_key(|r| r.frame.order_key());
        rows
    }

    /// Per-constructor construction profile, by `CtorId`, skipping
    /// constructors that were never built on the heap.
    pub fn per_ctor(&self) -> Vec<(CtorId, CtorCounts)> {
        self.ctors
            .iter()
            .enumerate()
            .filter(|(_, c)| c.allocs + c.reuses > 0)
            .map(|(i, c)| (CtorId(i as u32), *c))
            .collect()
    }

    /// Flamegraph-compatible folded stacks over the machine call
    /// frames: one `frame;frame;... value` line per context with a
    /// nonzero metric, in deterministic DFS order.
    pub fn render_folded(&self, code: &Compiled, metric: ProfMetric) -> String {
        let mut out = String::new();
        let mut path: Vec<String> = Vec::new();
        self.fold_node(0, code, metric, &mut path, &mut out);
        out
    }

    fn fold_node(
        &self,
        node: usize,
        code: &Compiled,
        metric: ProfMetric,
        path: &mut Vec<String>,
        out: &mut String,
    ) {
        path.push(self.nodes[node].frame.name(code));
        let v = metric.of(&self.nodes[node]);
        if v > 0 {
            let _ = writeln!(out, "{} {v}", path.join(";"));
        }
        for &c in &self.nodes[node].children {
            self.fold_node(c, code, metric, path, out);
        }
        path.pop();
    }

    /// The complete profile as a JSON document (schema in
    /// `docs/OBSERVABILITY.md`). `src` enables source locations: each
    /// function row gains `"src":{"start":..,"end":..,"line":..}` from
    /// the span table the front end threaded through the program.
    pub fn render_json(&self, code: &Compiled, src: Option<&str>) -> String {
        let mut out = String::from("{\"functions\":[");
        for (i, r) in self.per_frame().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"calls\":{}",
                r.frame.name(code),
                r.calls
            );
            if let FrameKind::Fun(f) = r.frame {
                if let Some(&(start, end)) = code.fun_spans.get(f.0 as usize) {
                    let _ = write!(out, ",\"src\":{{\"start\":{start},\"end\":{end}");
                    if let Some(text) = src {
                        let (line, col) = line_col(text, start);
                        let _ = write!(out, ",\"line\":{line},\"col\":{col}");
                    }
                    out.push('}');
                }
            }
            for (k, v) in r.counts.entries() {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            let classes: Vec<String> = r.alloc_classes.iter().map(u64::to_string).collect();
            let _ = write!(
                out,
                ",\"rc_ops\":{},\"alloc_by_class\":[{}],\"peak_live_words\":{}}}",
                r.counts.rc_ops(),
                classes.join(","),
                r.peak_live_words
            );
        }
        out.push_str("],\"ctors\":[");
        for (i, (id, c)) in self.per_ctor().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let info = code.types.ctor(*id);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"arity\":{},\"allocs\":{},\"reuses\":{},\"reuse_rate\":{:.4}",
                info.name,
                info.arity,
                c.allocs,
                c.reuses,
                c.reuse_rate()
            );
            if let Some((start, end)) = info.span {
                let _ = write!(out, ",\"src\":{{\"start\":{start},\"end\":{end}");
                if let Some(text) = src {
                    let (line, col) = line_col(text, start);
                    let _ = write!(out, ",\"line\":{line},\"col\":{col}");
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("],\"totals\":{");
        let totals = self.totals();
        for (i, (k, v)) in totals.entries().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        let _ = write!(out, ",\"rc_ops\":{}}}}}", totals.rc_ops());
        out
    }
}

/// Aggregated profile of one frame (all calling contexts folded).
#[derive(Debug, Clone)]
pub struct FrameProfile {
    /// The frame.
    pub frame: FrameKind,
    /// Times entered.
    pub calls: u64,
    /// Events attributed.
    pub counts: ProfCounts,
    /// Fresh allocations by size class.
    pub alloc_classes: [u64; NUM_SIZE_CLASSES + 1],
    /// High-water mark of words this frame had allocated and not yet
    /// freed (debited at free from the allocating frame).
    pub peak_live_words: u64,
}

impl Default for FrameProfile {
    fn default() -> Self {
        FrameProfile {
            frame: FrameKind::Root,
            calls: 0,
            counts: ProfCounts::default(),
            alloc_classes: [0; NUM_SIZE_CLASSES + 1],
            peak_live_words: 0,
        }
    }
}

/// Which quantity a folded-stack line reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfMetric {
    /// dup + drop + decref + is-unique.
    RcOps,
    /// Fresh allocations.
    Allocs,
    /// Fresh words allocated.
    AllocWords,
    /// Reuse-token constructions.
    Reuses,
}

impl ProfMetric {
    /// All metrics with their CLI names.
    pub const ALL: [(ProfMetric, &'static str); 4] = [
        (ProfMetric::RcOps, "rc-ops"),
        (ProfMetric::Allocs, "allocs"),
        (ProfMetric::AllocWords, "alloc-words"),
        (ProfMetric::Reuses, "reuses"),
    ];

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<ProfMetric> {
        Self::ALL.iter().find(|(_, n)| *n == name).map(|(m, _)| *m)
    }

    /// The CLI name.
    pub fn name(self) -> &'static str {
        Self::ALL.iter().find(|(m, _)| *m == self).unwrap().1
    }

    fn of(self, n: &Node) -> u64 {
        match self {
            ProfMetric::RcOps => n.counts.rc_ops(),
            ProfMetric::Allocs => n.counts.allocations,
            ProfMetric::AllocWords => n.counts.alloc_words,
            ProfMetric::Reuses => n.counts.reuses,
        }
    }
}

/// 1-based line/column of a byte offset.
fn line_col(src: &str, offset: u32) -> (u32, u32) {
    let upto = &src[..(offset as usize).min(src.len())];
    let line = upto.bytes().filter(|&b| b == b'\n').count() as u32 + 1;
    let col = upto.bytes().rev().take_while(|&b| b != b'\n').count() as u32 + 1;
    (line, col)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_and_diff_roundtrip() {
        let mut s = Stats {
            dups: 5,
            drops: 3,
            ..Stats::default()
        };
        let before = ProfCounts::capture(&s);
        s.dups += 2;
        s.drops -= 1; // the decref reclassification pattern
        let d = ProfCounts::capture(&s).diff(&before);
        assert_eq!(d.dups, 2);
        assert_eq!(d.drops, u64::MAX); // wrapping: absorbed by a later add
        let mut acc = ProfCounts {
            drops: 1,
            ..ProfCounts::default()
        };
        acc.add(&d);
        assert_eq!(acc.drops, 0);
    }

    #[test]
    fn cct_enter_exit_tail() {
        let mut s = Stats::default();
        let mut p = Profiler::open(&s);
        s.dups += 1; // before any call: credited to the root
        p.enter(&s, FrameKind::Fun(FunId(0)));
        s.dups += 1;
        p.enter(&s, FrameKind::Fun(FunId(1)));
        s.dups += 2;
        // Tail-recursive loop: the node is reused, not regrown.
        for _ in 0..10 {
            p.tail(&s, FrameKind::Fun(FunId(1)));
        }
        s.dups += 3;
        p.exit(&s);
        s.dups += 4;
        p.exit(&s);
        assert_eq!(p.cur, 0);
        assert_eq!(p.nodes.len(), 3, "tail calls do not grow the tree");
        assert_eq!(p.totals().dups, 11);
        assert_eq!(p.nodes[0].counts.dups, 1);
        let rows = p.per_frame();
        let f0 = rows
            .iter()
            .find(|r| r.frame == FrameKind::Fun(FunId(0)))
            .unwrap();
        assert_eq!(f0.counts.dups, 5);
        let f1 = rows
            .iter()
            .find(|r| r.frame == FrameKind::Fun(FunId(1)))
            .unwrap();
        assert_eq!(f1.calls, 11);
        assert_eq!(f1.counts.dups, 5);
    }

    #[test]
    fn the_open_window_starts_at_enable_and_ends_at_flush() {
        let mut s = Stats {
            dups: 7, // counted before profiling: never attributed
            ..Stats::default()
        };
        let mut p = Profiler::open(&s);
        p.enter(&s, FrameKind::Fun(FunId(0)));
        s.dups += 2;
        s.allocations += 1;
        // No frame change since: only the flush credits the window.
        assert!(p.totals().is_zero());
        p.flush(&s);
        assert_eq!(p.totals().dups, 2);
        assert_eq!(p.totals().allocations, 1);
        p.flush(&s);
        assert_eq!(p.totals().dups, 2, "a window is credited once");
    }

    #[test]
    fn owner_table_debits_the_allocating_frame() {
        let s = Stats::default();
        let mut p = Profiler::new();
        p.enter(&s, FrameKind::Fun(FunId(0)));
        p.on_alloc(0, BlockTag::Ctor(CtorId(2)), 3);
        p.on_alloc(1, BlockTag::Ctor(CtorId(2)), 3);
        p.exit(&s);
        p.enter(&s, FrameKind::Fun(FunId(1)));
        // Fun(1) frees what Fun(0) allocated: the debit lands on Fun(0).
        p.on_release(0);
        p.on_alloc(7, BlockTag::MutRef, 2);
        p.exit(&s);
        let rows = p.per_frame();
        let f0 = rows
            .iter()
            .find(|r| r.frame == FrameKind::Fun(FunId(0)))
            .unwrap();
        assert_eq!(f0.peak_live_words, 6);
        let f1 = rows
            .iter()
            .find(|r| r.frame == FrameKind::Fun(FunId(1)))
            .unwrap();
        assert_eq!(f1.peak_live_words, 2);
        assert_eq!(
            p.per_ctor(),
            vec![(
                CtorId(2),
                CtorCounts {
                    allocs: 2,
                    reuses: 0
                }
            )]
        );
    }

    #[test]
    fn merge_is_associative_with_identity() {
        let mk = |d: u64| {
            let mut s = Stats::default();
            let mut p = Profiler::new();
            p.enter(&s, FrameKind::Fun(FunId(0)));
            s.dups += d;
            s.allocations += 1;
            p.on_alloc(0, BlockTag::Ctor(CtorId(0)), 2);
            p.on_release(0);
            p.exit(&s);
            p
        };
        let (a, b, c) = (mk(1), mk(2), mk(4));
        let left = a.merge(&b).merge(&c);
        let right = a.merge(&b.merge(&c));
        assert_eq!(left.totals(), right.totals());
        assert_eq!(left.nodes.len(), right.nodes.len());
        assert_eq!(left.per_ctor(), right.per_ctor());
        let id = Profiler::new();
        assert_eq!(a.merge(&id).totals(), a.totals());
        assert_eq!(id.merge(&a).totals(), a.totals());
        assert_eq!(left.totals().dups, 7);
    }

    #[test]
    fn line_col_is_one_based() {
        let src = "ab\ncde\nf";
        assert_eq!(line_col(src, 0), (1, 1));
        assert_eq!(line_col(src, 3), (2, 1));
        assert_eq!(line_col(src, 5), (2, 3));
        assert_eq!(line_col(src, 7), (3, 1));
    }
}
