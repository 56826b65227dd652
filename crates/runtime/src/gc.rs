//! A mark–sweep tracing collector — the stand-in for the generational
//! tracing collectors of OCaml, GHC and the JVM in the Fig. 9 comparison
//! (see DESIGN.md for the substitution rationale).
//!
//! The collector is precise: the machine enumerates its roots (the
//! value stack, which holds every frame's slots) and the collector
//! traces the object graph from them. Collections trigger when
//! the live block count exceeds a threshold that grows geometrically
//! with the surviving heap — the classic growth-ratio policy, which is
//! what gives tracing collectors their characteristic memory headroom
//! over precise reference counting (the paper's Fig. 9 memory plot).

use crate::heap::Heap;
use crate::value::Value;

/// Collector policy.
#[derive(Debug, Clone, Copy)]
pub struct GcConfig {
    /// Initial collection threshold, in live blocks.
    pub initial_threshold: u64,
    /// After a collection, the next threshold is
    /// `survivors * growth_factor` (at least `initial_threshold`).
    pub growth_factor: f64,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            initial_threshold: 1 << 12,
            growth_factor: 2.0,
        }
    }
}

/// Mark–sweep collector state.
#[derive(Debug, Clone)]
pub struct Collector {
    config: GcConfig,
    threshold: u64,
}

impl Collector {
    /// Creates a collector with the given policy.
    pub fn new(config: GcConfig) -> Self {
        Collector {
            threshold: config.initial_threshold,
            config,
        }
    }

    /// Should the machine collect before the next allocation?
    pub fn should_collect(&self, heap: &Heap) -> bool {
        heap.live_blocks() >= self.threshold
    }

    /// Runs a full mark–sweep collection from the given roots.
    /// Returns the number of blocks reclaimed.
    pub fn collect<'a>(&mut self, heap: &mut Heap, roots: impl Iterator<Item = &'a Value>) -> u64 {
        heap.clear_marks();
        // Mark.
        let mut work: Vec<_> = roots.filter_map(|v| v.addr()).collect();
        // A reuse token holds memory too (not applicable in GC mode, but
        // harmless to handle uniformly).
        let mut marked = 0u64;
        while let Some(addr) = work.pop() {
            // `None` for a block marked before, a stale root (dead
            // slot) or a shared-segment address: none is local garbage.
            // The shared segment is reference-counted even for GC-mode
            // workers and is audited at thread join instead.
            if let Some(fields) = heap.mark(addr) {
                marked += 1;
                work.extend(fields.iter().filter_map(|f| f.addr()));
            }
        }
        heap.stats.gc_collections += 1;
        heap.stats.gc_marked += marked;
        // Sweep.
        let swept = heap.sweep();
        // Next threshold grows with the surviving heap.
        self.threshold = ((heap.live_blocks() as f64 * self.config.growth_factor) as u64)
            .max(self.config.initial_threshold);
        swept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::{BlockTag, ReclaimMode};
    use perceus_core::ir::CtorId;

    fn cell(h: &mut Heap, fields: Vec<Value>) -> Value {
        Value::Ref(h.alloc(BlockTag::Ctor(CtorId(0)), fields.into_boxed_slice()))
    }

    #[test]
    fn collects_unreachable_keeps_reachable() {
        let mut h = Heap::new(ReclaimMode::Gc);
        let keep_child = cell(&mut h, vec![Value::Int(1)]);
        let keep = cell(&mut h, vec![keep_child]);
        let _garbage = cell(&mut h, vec![Value::Int(2)]);
        let _garbage2 = cell(&mut h, vec![Value::Int(3)]);
        let mut gc = Collector::new(GcConfig::default());
        let roots = [keep];
        let swept = gc.collect(&mut h, roots.iter());
        assert_eq!(swept, 2);
        assert_eq!(h.live_blocks(), 2);
        assert!(h.view(keep.addr().unwrap()).is_ok());
    }

    #[test]
    fn collects_cycles() {
        // Unlike reference counting, the tracing collector reclaims
        // cycles (the §2.7.4 limitation in reverse).
        let mut h = Heap::new(ReclaimMode::Gc);
        let a = cell(&mut h, vec![Value::Unit]);
        let b = cell(&mut h, vec![a]);
        h.replace_field(a.addr().unwrap(), 0, b).unwrap();
        let mut gc = Collector::new(GcConfig::default());
        let swept = gc.collect(&mut h, std::iter::empty());
        assert_eq!(swept, 2);
        assert_eq!(h.live_blocks(), 0);
    }

    #[test]
    fn threshold_grows_with_survivors() {
        let mut h = Heap::new(ReclaimMode::Gc);
        let mut roots = Vec::new();
        for i in 0..100 {
            roots.push(cell(&mut h, vec![Value::Int(i)]));
        }
        let mut gc = Collector::new(GcConfig {
            initial_threshold: 10,
            growth_factor: 2.0,
        });
        assert!(gc.should_collect(&h));
        gc.collect(&mut h, roots.iter());
        assert_eq!(h.live_blocks(), 100);
        // 100 survivors * 2.0 = 200.
        assert!(!gc.should_collect(&h));
    }
}
