//! The parallel workload driver: N abstract machines running
//! concurrently, sharing one immutable input through the atomic-header
//! segment of §2.7.2 ([`perceus_runtime::SharedHeap`]).
//!
//! For workloads that declare a [`ParallelSpec`], a *builder* machine
//! constructs the input once on its thread-local heap, the share
//! barrier ([`perceus_runtime::Heap::mark_shared`]) moves the whole
//! structure into the shared segment, and each worker thread receives
//! its own reference (added non-atomically before the segment is
//! frozen). The workers then run the consume function concurrently:
//! every reference-count operation on the shared structure is a real
//! atomic RMW, while each worker's own allocations stay on the
//! non-atomic fast path of its private heap.
//!
//! Workloads without a spec (and every run under a non-rc strategy,
//! whose workers emit no reference-count operations and therefore
//! cannot maintain shared counts) fall back to N independent `main(n)`
//! instances — still a useful smoke test that the machines do not
//! interfere.
//!
//! After the join, the Thm. 2/4 garbage-free audit runs over both heap
//! segments: each rc worker's local heap must be empty and pass
//! [`perceus_runtime::audit::check_heap`], and the quiescent shared
//! segment must pass [`perceus_runtime::audit::check_shared_at_join`]
//! (fully drained up to pinned blocks). Worker statistics are folded
//! with the associative [`Stats::merge`]: counters sum, peaks take the
//! maximum across concurrent heaps.

use crate::driver::{compile_with_config, compile_workload, Strategy, SuiteError};
use crate::workloads::Workload;
use perceus_core::passes::PassConfig;
use perceus_runtime::audit::{self, SharedAudit};
use perceus_runtime::machine::{DeepValue, Machine, RunConfig};
use perceus_runtime::{ProfCounts, Profiler, ReclaimMode, RuntimeError, SharedHeap, Stats, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a workload splits into a shared immutable input (built once) and
/// a consume phase (run by every worker thread).
#[derive(Debug, Clone, Copy)]
pub struct ParallelSpec {
    /// The function that builds the shared input.
    pub build: &'static str,
    /// Arguments to `build` for problem size `n`.
    pub build_args: fn(i64) -> Vec<Value>,
    /// The function every worker runs over the shared input. Its first
    /// use consumes the worker's reference (owned calling convention).
    pub consume: &'static str,
    /// Arguments to `consume` given the shared root and size `n`.
    pub consume_args: fn(Value, i64) -> Vec<Value>,
}

/// The outcome of one parallel run.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// The per-worker result (all workers must agree).
    pub value: DeepValue,
    /// Builder + workers + shared-segment statistics, folded with
    /// [`Stats::merge`].
    pub stats: Stats,
    /// Worker thread count.
    pub threads: u32,
    /// Wall-clock time of the concurrent phase (excludes compilation
    /// and the build of the shared input).
    pub elapsed: Duration,
    /// Whether the run went through the shared-input path (a spec was
    /// declared and the strategy is reference-counted).
    pub shared_input: bool,
    /// Blocks the share barrier moved into the shared segment.
    pub shared_installs: u64,
    /// The join-time audit of the shared segment (`None` under non-rc
    /// strategies, whose workers do not maintain shared counts).
    pub shared_audit: Option<SharedAudit>,
    /// The attributed profile when `RunConfig::profile` was set: builder
    /// and workers merged in spawn order (associative
    /// [`Profiler::merge`], so the totals are deterministic), with the
    /// shared segment's frees credited to the root context. On the
    /// shared-input path the *per-function split* of the drain after a
    /// closing decrement still depends on which thread won it — see
    /// `docs/OBSERVABILITY.md`.
    pub profile: Option<Profiler>,
}

impl ParallelOutcome {
    /// Consume calls per second across all workers.
    pub fn throughput(&self) -> f64 {
        self.threads as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Runs `threads` machines concurrently over the workload, sharing the
/// input through the atomic segment when the workload and strategy
/// support it. Errors if any worker fails, if the workers disagree on
/// the result, or if a join-time garbage-free audit fails.
pub fn run_parallel(
    w: &Workload,
    strategy: Strategy,
    n: i64,
    threads: u32,
    config: RunConfig,
) -> Result<ParallelOutcome, SuiteError> {
    if threads == 0 {
        return Err(SuiteError::Runtime(RuntimeError::Internal(
            "parallel run needs at least one thread".into(),
        )));
    }
    let compiled = compile_workload(w.source, strategy)?;
    let spec = w.parallel.filter(|_| strategy.is_rc());

    // Build the shared input once, then move it across the barrier and
    // hand every worker its own reference before the segment freezes.
    let mut seg = SharedHeap::new();
    let mut stats = Stats::default();
    let mut profile: Option<Profiler> = None;
    let mut shared_root = Value::Unit;
    let mut consume = None;
    if let Some(spec) = spec {
        let find = |name: &str| {
            compiled.find_fun(name).ok_or_else(|| {
                SuiteError::Runtime(RuntimeError::Internal(format!(
                    "workload {} has no function `{name}`",
                    w.name
                )))
            })
        };
        let build = find(spec.build)?;
        consume = Some(find(spec.consume)?);
        let mut b = Machine::new(&compiled, strategy.reclaim_mode(), config.clone());
        let v = b.run_fun(build, (spec.build_args)(n))?;
        shared_root = b.heap.mark_shared(v, &mut seg)?;
        if b.heap.live_blocks() != 0 {
            return Err(SuiteError::Audit(format!(
                "builder heap retains {} blocks after the share barrier",
                b.heap.live_blocks()
            )));
        }
        seg.retain(shared_root, threads - 1)?;
        stats = b.heap.stats;
        profile = b.heap.take_profile();
    }
    let shared_installs = seg.len() as u64;
    let seg = Arc::new(seg);

    let start = Instant::now();
    type WorkerResult = (DeepValue, Stats, Option<Profiler>);
    let results: Vec<Result<WorkerResult, SuiteError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let seg = Arc::clone(&seg);
                let config = config.clone();
                let compiled = &compiled;
                s.spawn(move || {
                    let mut m = Machine::new(compiled, strategy.reclaim_mode(), config);
                    m.heap.attach_shared(seg);
                    let v = match (spec, consume) {
                        (Some(spec), Some(f)) => m.run_fun(f, (spec.consume_args)(shared_root, n)),
                        _ => m.run_entry(vec![Value::Int(n)]),
                    }?;
                    let value = m.read_back(v)?;
                    m.drop_result(v)?;
                    if strategy.is_rc() {
                        // Thm. 2: a worker's private heap is empty once
                        // its result is dropped; whatever shared data it
                        // touched is accounted in the segment.
                        if m.heap.live_blocks() != 0 {
                            return Err(SuiteError::Audit(format!(
                                "worker heap retains {} blocks after the run",
                                m.heap.live_blocks()
                            )));
                        }
                        audit::check_heap(&m.heap, &[]).map_err(SuiteError::Audit)?;
                    }
                    let profile = m.heap.take_profile();
                    Ok((value, m.heap.stats, profile))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread must not panic"))
            .collect()
    });
    let elapsed = start.elapsed();

    let mut value: Option<DeepValue> = None;
    for r in results {
        let (v, st, p) = r?;
        match &value {
            None => value = Some(v),
            Some(first) if *first != v => {
                return Err(SuiteError::Audit(format!(
                    "worker threads disagree on the result: {first} vs {v}"
                )))
            }
            Some(_) => {}
        }
        stats = stats.merge(&st);
        // Fold profiles in spawn order (merge is associative, so the
        // combined totals do not depend on which worker finished first).
        profile = match (profile, p) {
            (Some(a), Some(b)) => Some(a.merge(&b)),
            (a, b) => a.or(b),
        };
    }
    // The segment counts its own frees; the merged profile credits
    // them to the root context, as no worker frame owns them.
    let seg_stats = seg.snapshot();
    stats = stats.merge(&seg_stats);
    if let Some(p) = &mut profile {
        p.credit_root(&ProfCounts::capture(&seg_stats));
    }

    // With every worker joined the segment is quiescent: run the
    // join-time garbage-free audit over it.
    let shared_audit = if strategy.is_rc() {
        Some(audit::check_shared_at_join(&seg).map_err(SuiteError::Audit)?)
    } else {
        None
    };

    Ok(ParallelOutcome {
        value: value.expect("at least one worker ran"),
        stats,
        threads,
        elapsed,
        shared_input: spec.is_some(),
        shared_installs,
        shared_audit,
        profile,
    })
}

/// How workers of a contended run access the shared input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// Guard-protected borrowed reads: the consume function is compiled
    /// under borrow inference ([`PassConfig::perceus_borrowing`]), so a
    /// pure traversal of the shared structure performs **zero** atomic
    /// RMWs — the worker's epoch pin (taken at
    /// [`perceus_runtime::Heap::attach_shared`]) is what keeps the
    /// blocks alive, not per-read count traffic.
    Snapshot,
    /// The owned calling convention of [`run_parallel`]: every call
    /// consumes a strong reference and every interior visit is a real
    /// atomic dup/drop pair on the shared header — the contended
    /// baseline the snapshot path is measured against.
    Owned,
}

impl ReadMode {
    /// Display label (used by the CLI and bench JSON).
    pub fn label(self) -> &'static str {
        match self {
            ReadMode::Snapshot => "snapshot",
            ReadMode::Owned => "owned",
        }
    }
}

/// The outcome of one contended read-mostly run.
#[derive(Debug, Clone)]
pub struct ContendedOutcome {
    /// The per-call result (all workers, all repetitions must agree).
    pub value: DeepValue,
    /// Builder + workers + segment statistics, folded with
    /// [`Stats::merge`]. Excludes the driver's final cleanup drop, so
    /// under [`ReadMode::Snapshot`] `stats.atomic_ops` counts only the
    /// read phase.
    pub stats: Stats,
    /// Worker thread count.
    pub threads: u32,
    /// Consume calls per worker.
    pub reps: u32,
    /// Wall-clock time of the concurrent read phase.
    pub elapsed: Duration,
    /// Atomic RMWs performed by the workers during the read phase
    /// (zero on the snapshot path — the acceptance gate).
    pub read_atomics: u64,
    /// The join-time garbage-free audit of the drained segment.
    pub shared_audit: SharedAudit,
    /// Shared slots whose storage the epoch collector reclaimed before
    /// segment drop (nonzero here is the retention fix at work).
    pub reclaimed_blocks: u64,
}

impl ContendedOutcome {
    /// Consume calls per second across all workers.
    pub fn throughput(&self) -> f64 {
        (self.threads as u64 * self.reps as u64) as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Runs the contended read-mostly workload: `threads` workers each
/// traverse one shared immutable input `reps` times, under either
/// guard-protected snapshot reads or the owned atomic-RMW baseline.
///
/// The driver keeps ownership of the shared root across the whole read
/// phase and drops it only after the join, so the segment drains
/// through the epoch queue and the Thm. 2/4 audit runs over a fully
/// reclaimed segment in *both* modes.
pub fn run_contended(
    w: &Workload,
    mode: ReadMode,
    n: i64,
    threads: u32,
    reps: u32,
    config: RunConfig,
) -> Result<ContendedOutcome, SuiteError> {
    if threads == 0 || reps == 0 {
        return Err(SuiteError::Runtime(RuntimeError::Internal(
            "contended run needs at least one thread and one repetition".into(),
        )));
    }
    let spec = w.parallel.ok_or_else(|| {
        SuiteError::Runtime(RuntimeError::Internal(format!(
            "workload {} has no parallel spec",
            w.name
        )))
    })?;
    let compiled = match mode {
        ReadMode::Snapshot => compile_with_config(w.source, PassConfig::perceus_borrowing())?,
        ReadMode::Owned => compile_workload(w.source, Strategy::Perceus)?,
    };
    let find = |name: &str| {
        compiled.find_fun(name).ok_or_else(|| {
            SuiteError::Runtime(RuntimeError::Internal(format!(
                "workload {} has no function `{name}`",
                w.name
            )))
        })
    };
    let build = find(spec.build)?;
    let consume = find(spec.consume)?;
    if mode == ReadMode::Snapshot && !compiled.param_borrowed(consume, 0) {
        return Err(SuiteError::Audit(format!(
            "borrow inference did not borrow `{}`'s first parameter; \
             the snapshot path needs a borrowed traversal",
            spec.consume
        )));
    }

    // Build the shared input once and move it across the share barrier.
    let mut seg = SharedHeap::new();
    let mut b = Machine::new(&compiled, ReclaimMode::Rc, config.clone());
    let v = b.run_fun(build, (spec.build_args)(n))?;
    let shared_root = b.heap.mark_shared(v, &mut seg)?;
    if b.heap.live_blocks() != 0 {
        return Err(SuiteError::Audit(format!(
            "builder heap retains {} blocks after the share barrier",
            b.heap.live_blocks()
        )));
    }
    // Ownership for the read phase: the driver always keeps one strong
    // reference on the root (dropped after the join). Owned-mode
    // workers additionally consume one pre-added reference per call;
    // snapshot-mode workers consume nothing.
    if mode == ReadMode::Owned {
        seg.retain(shared_root, threads * reps)?;
    }
    let mut stats = b.heap.stats;
    drop(b);
    let seg = Arc::new(seg);

    let start = Instant::now();
    let results: Vec<Result<(DeepValue, Stats), SuiteError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let seg = Arc::clone(&seg);
                let config = config.clone();
                let compiled = &compiled;
                s.spawn(move || {
                    let mut m = Machine::new(compiled, ReclaimMode::Rc, config);
                    m.heap.attach_shared(seg);
                    let mut value: Option<DeepValue> = None;
                    for _ in 0..reps {
                        let v = m.run_fun(consume, (spec.consume_args)(shared_root, n))?;
                        let got = m.read_back(v)?;
                        m.drop_result(v)?;
                        match &value {
                            None => value = Some(got),
                            Some(first) if *first != got => {
                                return Err(SuiteError::Audit(format!(
                                    "repetitions disagree on the result: {first} vs {got}"
                                )))
                            }
                            Some(_) => {}
                        }
                    }
                    if m.heap.live_blocks() != 0 {
                        return Err(SuiteError::Audit(format!(
                            "worker heap retains {} blocks after the run",
                            m.heap.live_blocks()
                        )));
                    }
                    audit::check_heap(&m.heap, &[]).map_err(SuiteError::Audit)?;
                    Ok((value.expect("reps >= 1"), m.heap.stats))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread must not panic"))
            .collect()
    });
    let elapsed = start.elapsed();

    let mut value: Option<DeepValue> = None;
    let mut read_atomics = 0u64;
    for r in results {
        let (v, st) = r?;
        match &value {
            None => value = Some(v),
            Some(first) if *first != v => {
                return Err(SuiteError::Audit(format!(
                    "worker threads disagree on the result: {first} vs {v}"
                )))
            }
            Some(_) => {}
        }
        read_atomics += st.atomic_ops;
        stats = stats.merge(&st);
    }

    // The driver's reference kept the structure alive through the read
    // phase; release it now so the segment drains through the epoch
    // queue, then audit the quiescent, reclaimed segment.
    let mut cleanup = Machine::new(&compiled, ReclaimMode::Rc, config);
    cleanup.heap.attach_shared(Arc::clone(&seg));
    cleanup.drop_result(shared_root)?;
    drop(cleanup); // detaches, unpins, and reclaims retired slots
    stats = stats.merge(&seg.snapshot());
    let shared_audit = audit::check_shared_at_join(&seg).map_err(SuiteError::Audit)?;
    let reclaimed_blocks = seg.reclaimed().0;

    Ok(ContendedOutcome {
        value: value.expect("at least one worker ran"),
        stats,
        threads,
        reps,
        elapsed,
        read_atomics,
        shared_audit,
        reclaimed_blocks,
    })
}
