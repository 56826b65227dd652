//! Runtime statistics: the quantities behind every figure of the paper's
//! evaluation (execution cost drivers and the peak-working-set analog).

use std::fmt;

/// Counters collected by the heap and machine during a run.
///
/// All counters are exact (no sampling). `peak_live_words` is the
/// reproduction's analog of Fig. 9's peak working set: for the
/// reference-counting modes it is the true live heap; for the tracing-GC
/// mode it includes not-yet-swept garbage (as a real GC's RSS does); for
/// the arena mode it only ever grows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Fresh block allocations (not served by a reuse token).
    pub allocations: u64,
    /// Words allocated fresh (fields + header).
    pub alloc_words: u64,
    /// Allocations served in-place from a reuse token (§2.4).
    pub reuses: u64,
    /// Blocks freed (by rc reaching zero, explicit `free`, token release,
    /// or GC sweep).
    pub frees: u64,
    /// Executed `dup` operations that touched a counted block.
    pub dups: u64,
    /// Executed `drop` operations that touched a counted block.
    pub drops: u64,
    /// Executed `decref` fast decrements.
    pub decrefs: u64,
    /// `is-unique` tests executed.
    pub unique_tests: u64,
    /// `is-unique` tests that took the unique fast path.
    pub unique_hits: u64,
    /// RC operations that executed a **real atomic RMW** on a
    /// shared-segment header. Exactly zero in single-threaded runs: the
    /// thread-local fast path never issues an atomic instruction, and
    /// pinned (sticky) headers are left untouched without an RMW.
    pub atomic_ops: u64,
    /// RC operations that took the negative-header slow path on a
    /// *thread-local* block (the in-thread `tshare` discipline). No
    /// atomic instruction runs — the block never left this thread.
    pub local_shared_ops: u64,
    /// Field writes performed when constructing.
    pub field_writes: u64,
    /// Field writes skipped by reuse specialization (§2.5).
    pub skipped_writes: u64,
    /// Reuse tokens released unused (memory freed by `drop-token`).
    pub token_frees: u64,
    /// Blocks marked thread-shared by `tshare` (§2.7.2).
    pub shared_marks: u64,
    /// Allocations served from a size-class free list (a listed extent
    /// rewritten in place).
    pub freelist_hits: u64,
    /// Allocations that found their size class empty (or have none:
    /// 16 fields or more).
    pub freelist_misses: u64,
    /// Words served from the free lists (fields + header, summed over
    /// every hit).
    pub recycled_words: u64,
    /// Garbage collections run (tracing-GC mode only).
    pub gc_collections: u64,
    /// Blocks traced live across all collections.
    pub gc_marked: u64,
    /// Blocks reclaimed by sweeps.
    pub gc_swept: u64,
    /// Currently live blocks.
    pub live_blocks: u64,
    /// Currently live words.
    pub live_words: u64,
    /// High-water mark of `live_blocks`.
    pub peak_live_blocks: u64,
    /// High-water mark of `live_words` — the Fig. 9 "rss" analog.
    pub peak_live_words: u64,
    /// Abstract machine steps executed.
    pub steps: u64,
}

/// The *RC schedule*: the deterministic counters that pin a workload's
/// exact dup/drop/alloc/reuse behaviour, in canonical order. These are
/// the quantities gated with zero tolerance by `BENCH_BASELINE.json`
/// and by the machine-vs-native differential check — two executors that
/// agree on all of them (plus the result value) executed the *same*
/// reference-counting schedule, not merely equivalent programs. The
/// volatile quantities (wall time, thread interleavings, `atomic_ops`)
/// are deliberately excluded.
pub const SCHEDULE_KEYS: [&str; 18] = [
    "allocations",
    "alloc_words",
    "reuses",
    "frees",
    "dups",
    "drops",
    "decrefs",
    "unique_tests",
    "unique_hits",
    "freelist_hits",
    "freelist_misses",
    "recycled_words",
    "field_writes",
    "skipped_writes",
    "token_frees",
    "peak_live_blocks",
    "peak_live_words",
    "steps",
];

impl Stats {
    /// Total reference-count operations executed (the quantity §2 says
    /// Perceus optimizes: "the cost of reference counting is linear in
    /// the number of reference counting operations").
    pub fn rc_ops(&self) -> u64 {
        self.dups + self.drops + self.decrefs + self.unique_tests
    }

    /// The schedule counters in [`SCHEDULE_KEYS`] order.
    pub fn schedule_values(&self) -> [u64; 18] {
        [
            self.allocations,
            self.alloc_words,
            self.reuses,
            self.frees,
            self.dups,
            self.drops,
            self.decrefs,
            self.unique_tests,
            self.unique_hits,
            self.freelist_hits,
            self.freelist_misses,
            self.recycled_words,
            self.field_writes,
            self.skipped_writes,
            self.token_frees,
            self.peak_live_blocks,
            self.peak_live_words,
            self.steps,
        ]
    }

    /// Total allocations by either path.
    pub fn total_allocations(&self) -> u64 {
        self.allocations + self.reuses
    }

    /// Fraction of constructions served by in-place reuse.
    pub fn reuse_rate(&self) -> f64 {
        let t = self.total_allocations();
        if t == 0 {
            0.0
        } else {
            self.reuses as f64 / t as f64
        }
    }

    /// Fraction of fresh allocations served from the size-class free
    /// lists (reuse-token constructions are not counted: they never
    /// consult the allocator at all).
    pub fn freelist_hit_rate(&self) -> f64 {
        let t = self.freelist_hits + self.freelist_misses;
        if t == 0 {
            0.0
        } else {
            self.freelist_hits as f64 / t as f64
        }
    }

    fn record_alloc(&mut self, words: u64) {
        self.live_blocks += 1;
        self.live_words += words;
        self.peak_live_blocks = self.peak_live_blocks.max(self.live_blocks);
        self.peak_live_words = self.peak_live_words.max(self.live_words);
    }

    pub(crate) fn on_fresh_alloc(&mut self, words: u64) {
        self.allocations += 1;
        self.alloc_words += words;
        self.record_alloc(words);
    }

    pub(crate) fn on_reuse(&mut self) {
        self.reuses += 1;
        // live accounting unchanged: the cell never stopped being held.
    }

    pub(crate) fn on_free(&mut self, words: u64) {
        self.frees += 1;
        self.live_blocks -= 1;
        self.live_words -= words;
    }

    /// Merges the stats of two *disjoint* actors (worker threads over
    /// disjoint local heaps, or a thread and the shared segment's
    /// snapshot): cumulative counters and current live gauges add;
    /// peaks take the max (the concurrent high-water mark is bounded by
    /// the max observed by any one actor — summing peaks reached at
    /// different times would double-count).
    ///
    /// The operation is associative and commutative with `Stats::default()`
    /// as identity, so any fold order over a thread pool merges to the
    /// same report.
    #[must_use]
    pub fn merge(&self, other: &Stats) -> Stats {
        Stats {
            allocations: self.allocations + other.allocations,
            alloc_words: self.alloc_words + other.alloc_words,
            reuses: self.reuses + other.reuses,
            frees: self.frees + other.frees,
            dups: self.dups + other.dups,
            drops: self.drops + other.drops,
            decrefs: self.decrefs + other.decrefs,
            unique_tests: self.unique_tests + other.unique_tests,
            unique_hits: self.unique_hits + other.unique_hits,
            atomic_ops: self.atomic_ops + other.atomic_ops,
            local_shared_ops: self.local_shared_ops + other.local_shared_ops,
            field_writes: self.field_writes + other.field_writes,
            skipped_writes: self.skipped_writes + other.skipped_writes,
            token_frees: self.token_frees + other.token_frees,
            shared_marks: self.shared_marks + other.shared_marks,
            freelist_hits: self.freelist_hits + other.freelist_hits,
            freelist_misses: self.freelist_misses + other.freelist_misses,
            recycled_words: self.recycled_words + other.recycled_words,
            gc_collections: self.gc_collections + other.gc_collections,
            gc_marked: self.gc_marked + other.gc_marked,
            gc_swept: self.gc_swept + other.gc_swept,
            live_blocks: self.live_blocks + other.live_blocks,
            live_words: self.live_words + other.live_words,
            peak_live_blocks: self.peak_live_blocks.max(other.peak_live_blocks),
            peak_live_words: self.peak_live_words.max(other.peak_live_words),
            steps: self.steps + other.steps,
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "alloc {} (+{} reused, {:.1}% reuse) free {}  peak {} blocks / {} words",
            self.allocations,
            self.reuses,
            self.reuse_rate() * 100.0,
            self.frees,
            self.peak_live_blocks,
            self.peak_live_words
        )?;
        writeln!(
            f,
            "rc ops: {} dup, {} drop, {} decref, {} is-unique ({} unique), \
             {} atomic, {} local-shared",
            self.dups,
            self.drops,
            self.decrefs,
            self.unique_tests,
            self.unique_hits,
            self.atomic_ops,
            self.local_shared_ops
        )?;
        writeln!(
            f,
            "freelist: {} hits / {} misses ({:.1}% hit), {} words recycled",
            self.freelist_hits,
            self.freelist_misses,
            self.freelist_hit_rate() * 100.0,
            self.recycled_words
        )?;
        write!(
            f,
            "writes: {} fields ({} skipped); gc: {} collections; steps: {}",
            self.field_writes, self.skipped_writes, self.gc_collections, self.steps
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracking() {
        let mut s = Stats::default();
        s.on_fresh_alloc(3);
        s.on_fresh_alloc(3);
        s.on_free(3);
        s.on_fresh_alloc(3);
        assert_eq!(s.live_blocks, 2);
        assert_eq!(s.peak_live_blocks, 2);
        assert_eq!(s.peak_live_words, 6);
        assert_eq!(s.allocations, 3);
        assert_eq!(s.frees, 1);
    }

    #[test]
    fn reuse_rate() {
        let mut s = Stats::default();
        s.on_fresh_alloc(2);
        s.on_reuse();
        assert!((s.reuse_rate() - 0.5).abs() < 1e-9);
        assert_eq!(s.total_allocations(), 2);
    }

    #[test]
    fn freelist_hit_rate() {
        let mut s = Stats::default();
        assert_eq!(s.freelist_hit_rate(), 0.0);
        s.freelist_hits = 3;
        s.freelist_misses = 1;
        assert!((s.freelist_hit_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn merge_is_associative_with_max_peaks() {
        let a = Stats {
            dups: 10,
            atomic_ops: 3,
            live_blocks: 2,
            live_words: 8,
            peak_live_blocks: 5,
            peak_live_words: 40,
            ..Stats::default()
        };
        let b = Stats {
            dups: 7,
            frees: 4,
            peak_live_blocks: 9,
            peak_live_words: 20,
            ..Stats::default()
        };
        let c = Stats {
            drops: 1,
            peak_live_blocks: 6,
            peak_live_words: 60,
            ..Stats::default()
        };
        let left = a.merge(&b).merge(&c);
        let right = a.merge(&b.merge(&c));
        assert_eq!(left, right, "merge is associative");
        assert_eq!(left, c.merge(&b).merge(&a), "and commutative");
        assert_eq!(left.dups, 17);
        assert_eq!(left.peak_live_blocks, 9, "peaks take the max");
        assert_eq!(left.peak_live_words, 60);
        assert_eq!(left.live_blocks, 2, "live gauges add");
        let id = Stats::default();
        assert_eq!(a.merge(&id), a, "default is the identity");
    }

    #[test]
    fn rc_ops_sum() {
        let s = Stats {
            dups: 2,
            drops: 3,
            decrefs: 4,
            unique_tests: 5,
            ..Stats::default()
        };
        assert_eq!(s.rc_ops(), 14);
    }
}
