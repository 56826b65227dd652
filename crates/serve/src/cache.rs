//! Server-side caches: compiled programs keyed by workload name or
//! source hash, and frozen shared immutable inputs keyed by (program,
//! size).
//!
//! The program cache is the reason a serving daemon beats a batch CLI
//! at all: the pipeline (parse → HM inference → passes → resource check
//! → backend) costs orders of magnitude more than one interpreted
//! session, so a thousand sessions of the same program must pay it
//! once. Entries are `Arc`-shared with every worker; a cache hit is a
//! lock + clone.
//!
//! The shared-input cache extends PR 4's share barrier across
//! *sessions* instead of threads: the first session that asks for a
//! workload's shared input builds it on a scratch heap, moves it
//! through [`perceus_runtime::Heap::mark_shared`] into an atomic-header
//! segment, and every later session (on any worker) attaches the
//! frozen segment and pays one atomic `dup` for its reference. The
//! cache itself holds the builder's original reference, so the count
//! never reaches zero while the entry lives — and because shared
//! blocks are immutable by construction (`mark_shared` rejects mutable
//! refs), no session can observe another session through it.

use crate::protocol::RunRequest;
use crate::relock;
use perceus_runtime::code::Compiled;
use perceus_runtime::{SharedHeap, Value};
use perceus_suite::{
    compile_borrowing, compile_workload, workload, ParallelSpec, Strategy, SuiteError,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// FNV-1a over the source text, strategy label, and borrow flag: the
/// cache key of an inline source, and the shared-input key of every
/// program. Deterministic across runs (ids in logs are stable). The
/// borrow-inferred (snapshot-read) build of a program is a different
/// executable, so it caches under a different key.
pub fn program_key(source: &str, strategy: Strategy, borrow: bool) -> u64 {
    let marker: &[u8] = if borrow { b"+borrow" } else { b"" };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in source
        .bytes()
        .chain(strategy.label().bytes())
        .chain(marker.iter().copied())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The program cache key. A registry workload is keyed by its name, so
/// a hit hashes a few bytes rather than the whole source; an inline
/// source by [`program_key`] over its text. The two are different
/// variants, so no inline source can land on a registry entry even
/// when its text is byte-identical (their names, default sizes and
/// shared-input specs differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgramKey {
    Workload {
        name: &'static str,
        strategy: Strategy,
        borrow: bool,
    },
    Source(u64),
}

/// A compiled program, shared by every worker that runs it.
pub struct CachedProgram {
    /// Cache key.
    pub key: ProgramKey,
    /// The borrow-agnostic key. Shared inputs are cached under *this*,
    /// so the borrowed and owned builds of one program attach the same
    /// frozen segment instead of freezing it twice.
    pub input_key: u64,
    /// The source text. With `strategy` and `borrow` it is what an
    /// inline source's key hashes, kept so that a key hit can be told
    /// from a collision.
    pub source: Box<str>,
    /// Strategy the program was compiled under.
    pub strategy: Strategy,
    /// Whether the program was compiled under borrow inference (the
    /// snapshot-read variant).
    pub borrow: bool,
    /// The executable form.
    pub compiled: Compiled,
    /// The shared-input split, when the program is a registry workload
    /// that declares one.
    pub spec: Option<ParallelSpec>,
    /// Display name (workload name, or `source-<key>` for inline
    /// sources).
    pub name: String,
    /// Default problem size (registry test size, or 0 for inline
    /// sources).
    pub default_n: i64,
}

impl CachedProgram {
    /// True when this is the build that `key` asks for, not merely a
    /// program resident under it: a registry key names its build
    /// exactly, an inline one must also carry the same source.
    fn is_build_of(&self, key: ProgramKey, source: &str, strategy: Strategy, borrow: bool) -> bool {
        self.key == key
            && match key {
                ProgramKey::Workload { .. } => true,
                ProgramKey::Source(_) => {
                    self.strategy == strategy && self.borrow == borrow && *self.source == *source
                }
            }
    }
}

/// The compiled-program cache.
pub struct ProgramCache {
    map: Mutex<HashMap<ProgramKey, Arc<CachedProgram>>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ProgramCache {
    /// An empty cache bounded at `capacity` programs.
    pub fn new(capacity: usize) -> Self {
        ProgramCache {
            map: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Resolves a run request to a compiled program, compiling on miss;
    /// the flag says whether this call hit the cache (reported per
    /// session on the wire). Compilation happens outside the lock, so
    /// concurrent misses on *different* programs compile in parallel
    /// (racing misses on the same program both compile; the first
    /// insert wins and the loser's work is dropped — correct because
    /// compilation is deterministic).
    ///
    /// An inline source's key is a 64-bit hash that a tenant can collide
    /// on purpose, so a key hit counts only when the resident entry is
    /// this very program. A request whose key belongs to another
    /// program is a miss that compiles and runs uncached; the resident
    /// entry stays.
    pub fn resolve(&self, req: &RunRequest) -> Result<(Arc<CachedProgram>, bool), SuiteError> {
        let (strategy, borrow) = (req.strategy, req.borrow);
        let (key, source, spec, default_n) = match (&req.workload, &req.source) {
            (Some(w), _) => {
                let w = workload(w).ok_or_else(|| {
                    SuiteError::Audit(format!("unknown workload {w:?} (see `workloads()`)"))
                })?;
                let key = ProgramKey::Workload {
                    name: w.name,
                    strategy,
                    borrow,
                };
                (key, w.source, w.parallel, w.test_n)
            }
            (None, Some(src)) => {
                let key = ProgramKey::Source(program_key(src, strategy, borrow));
                (key, src.as_str(), None, 0)
            }
            (None, None) => unreachable!("protocol validation requires one"),
        };
        if let Some(hit) = relock(&self.map)
            .get(&key)
            .filter(|p| p.is_build_of(key, source, strategy, borrow))
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(hit), true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let compiled = if borrow {
            compile_borrowing(source)?
        } else {
            compile_workload(source, strategy)?
        };
        let name = match key {
            ProgramKey::Workload { name, .. } => name.to_string(),
            ProgramKey::Source(hash) => format!("source-{hash:016x}"),
        };
        let entry = Arc::new(CachedProgram {
            key,
            input_key: program_key(source, strategy, false),
            source: source.into(),
            strategy,
            borrow,
            compiled,
            spec,
            name,
            default_n,
        });
        let mut map = relock(&self.map);
        if let Some(resident) = map.get(&key) {
            // A racing miss on this program got there first, or the key
            // is another program's and this one runs uncached.
            let same = resident.is_build_of(key, source, strategy, borrow);
            return Ok((if same { Arc::clone(resident) } else { entry }, false));
        }
        if map.len() >= self.capacity {
            // The population is small (the suite plus ad-hoc sources);
            // arbitrary eviction keeps the bound without LRU bookkeeping.
            if let Some(&victim) = map.keys().next() {
                map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        map.insert(key, Arc::clone(&entry));
        Ok((entry, false))
    }

    /// `(programs, hits, misses, evictions)` for the stats endpoint.
    pub fn stats(&self) -> (usize, u64, u64, u64) {
        (
            relock(&self.map).len(),
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }
}

/// A frozen cross-session shared input.
pub struct SharedInput {
    /// The atomic-header segment holding the input.
    pub seg: Arc<SharedHeap>,
    /// The rewritten root (a shared-segment address). The cache's own
    /// reference keeps the count ≥ 1 for the entry's lifetime.
    pub root: Value,
    /// Live shared blocks right after the freeze — the drift baseline:
    /// a drained server must read exactly this many again.
    pub live_baseline: u64,
}

/// The shared-input cache, keyed by (program key, problem size).
#[derive(Default)]
pub struct SharedInputs {
    map: Mutex<HashMap<(u64, i64), Arc<SharedInput>>>,
}

impl SharedInputs {
    /// Looks up a frozen input.
    pub fn get(&self, key: u64, n: i64) -> Option<Arc<SharedInput>> {
        relock(&self.map).get(&(key, n)).cloned()
    }

    /// Inserts a freshly built input unless a racing builder won;
    /// returns the entry that ended up cached.
    pub fn insert(&self, key: u64, n: i64, input: SharedInput) -> Arc<SharedInput> {
        let mut map = relock(&self.map);
        Arc::clone(map.entry((key, n)).or_insert_with(|| Arc::new(input)))
    }

    /// `(entries, live_blocks_total, baseline_total)` for the stats
    /// endpoint. A drained server must read `live == baseline`: every
    /// session returned exactly the references it took.
    pub fn stats(&self) -> (usize, u64, u64) {
        let map = relock(&self.map);
        let live = map.values().map(|e| e.seg.live_blocks()).sum();
        let baseline = map.values().map(|e| e.live_baseline).sum();
        (map.len(), live, baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_req(workload: &str) -> RunRequest {
        RunRequest {
            id: 1,
            workload: Some(workload.into()),
            source: None,
            n: None,
            strategy: Strategy::Perceus,
            fuel: None,
            memory: None,
            shared: false,
            borrow: false,
            profile: false,
            resumable: false,
        }
    }

    #[test]
    fn second_resolve_is_a_hit() {
        let cache = ProgramCache::new(8);
        let (a, hit_a) = cache.resolve(&run_req("map")).unwrap();
        let (b, hit_b) = cache.resolve(&run_req("map")).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!hit_a);
        assert!(hit_b);
        let (len, hits, misses, _) = cache.stats();
        assert_eq!((len, hits, misses), (1, 1, 1));
    }

    #[test]
    fn strategies_cache_separately() {
        let cache = ProgramCache::new(8);
        let (a, _) = cache.resolve(&run_req("map")).unwrap();
        let mut req = run_req("map");
        req.strategy = Strategy::Scoped;
        let (b, _) = cache.resolve(&req).unwrap();
        assert_ne!(a.key, b.key);
    }

    #[test]
    fn borrowed_builds_cache_separately_but_share_the_input_key() {
        let cache = ProgramCache::new(8);
        let (owned, _) = cache.resolve(&run_req("map")).unwrap();
        let mut req = run_req("map");
        req.borrow = true;
        let (borrowed, _) = cache.resolve(&req).unwrap();
        assert_ne!(owned.key, borrowed.key, "different executables");
        assert!(borrowed.borrow);
        assert_eq!(
            owned.input_key, borrowed.input_key,
            "one frozen shared input serves both builds"
        );
    }

    #[test]
    fn capacity_is_bounded() {
        let cache = ProgramCache::new(1);
        cache.resolve(&run_req("map")).unwrap();
        cache.resolve(&run_req("rbtree")).unwrap();
        let (len, _, _, evictions) = cache.stats();
        assert_eq!(len, 1);
        assert_eq!(evictions, 1);
    }

    /// A tenant that finds a source whose key collides with another
    /// tenant's program must not get that program: plant A under B's
    /// key and ask for B.
    #[test]
    fn a_key_collision_is_served_its_own_program_uncached() {
        use perceus_runtime::machine::RunConfig;
        let inline = |source: &str| RunRequest {
            workload: None,
            source: Some(source.into()),
            ..run_req("")
        };
        let req_a = inline("fun main(n: int): int { n + 1 }");
        let req_b = inline("fun main(n: int): int { n * 2 }");
        let (a, _) = ProgramCache::new(8).resolve(&req_a).unwrap();
        let key_b = ProgramKey::Source(program_key(
            req_b.source.as_deref().unwrap(),
            req_b.strategy,
            false,
        ));

        let cache = ProgramCache::new(8);
        relock(&cache.map).insert(key_b, Arc::clone(&a));
        for _ in 0..2 {
            let (b, hit) = cache.resolve(&req_b).unwrap();
            assert!(!hit);
            assert_eq!(&*b.source, req_b.source.as_deref().unwrap());
            let out =
                perceus_suite::run_workload(&b.compiled, b.strategy, 20, RunConfig::default())
                    .unwrap();
            assert_eq!(out.value.to_string(), "40", "B doubles, A would say 21");
        }
        let (len, hits, misses, evictions) = cache.stats();
        assert_eq!((len, hits, misses, evictions), (1, 0, 2, 0));
        assert!(
            Arc::ptr_eq(&relock(&cache.map)[&key_b], &a),
            "A stays resident"
        );
    }

    /// A registry request and an inline request with the registry's
    /// source byte for byte are two programs: each compiles once, each
    /// hits its own entry, and each answers its own value (the
    /// registry's default size is its test size, an inline source's 0).
    #[test]
    fn a_registry_workload_and_its_inline_source_cache_apart() {
        use perceus_runtime::machine::RunConfig;
        let map = workload("map").unwrap();
        let registry = run_req("map");
        let inline = RunRequest {
            workload: None,
            source: Some(map.source.into()),
            ..run_req("")
        };
        let cache = ProgramCache::new(8);
        for round in 0..2 {
            let (r, r_hit) = cache.resolve(&registry).unwrap();
            let (i, i_hit) = cache.resolve(&inline).unwrap();
            assert_eq!((r_hit, i_hit), (round == 1, round == 1));
            assert_eq!(r.name, "map");
            assert!(i.name.starts_with("source-"), "{}", i.name);
            assert!(r.spec.is_some() && i.spec.is_none());
            for (p, want) in [(&r, map.test_n * (map.test_n + 1) / 2), (&i, 0)] {
                let out = perceus_suite::run_workload(
                    &p.compiled,
                    p.strategy,
                    p.default_n,
                    RunConfig::default(),
                )
                .unwrap();
                assert_eq!(out.value.to_string(), want.to_string());
            }
        }
        let (len, hits, misses, _) = cache.stats();
        assert_eq!((len, hits, misses), (2, 2, 2));
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let cache = ProgramCache::new(8);
        assert!(cache.resolve(&run_req("nope")).is_err());
    }
}
