//! The session worker: one OS thread owning one long-lived [`Heap`],
//! recycled across thousands of tenant sessions — plus, since protocol
//! v2, the shard's *suspension table* of parked resumable sessions.
//!
//! This is the serving payoff of the paper's garbage-freedom theorems
//! (Thm. 2/4). Because a Perceus session frees everything it allocates
//! by the time its result is dropped, a worker does not need a fresh
//! heap per tenant: it runs a session with [`Machine::with_heap`],
//! takes the heap back with [`Machine::into_heap`], and calls
//! [`Heap::reset`] — which retires whatever an *aborted* session left
//! behind (fuel/memory-limited runs die mid-expression with values
//! still rooted in machine frames), bumps the generation of every
//! retired slot so stale addresses from the dead tenant fail
//! deterministically, and feeds the slots back to the size-class free
//! lists. A well-behaved session reclaims zero blocks at reset and its
//! successor allocates straight out of the previous tenants' warm free
//! lists.
//!
//! **Resumable sessions** run on a *private* heap instead of the
//! worker's recycled one: when their per-leg fuel runs out the machine
//! suspends at an auditable point (Theorem 4's side condition — never
//! mid reference-count operation), and the worker parks the suspended
//! [`Execution`] together with its heap in the shard's bounded park
//! table. Garbage-freedom is what makes the table's
//! admission accounting honest: a parked heap's `live_words` is
//! *exactly* the session's reachable data, with no slack for floating
//! garbage, so the memory budget it is charged against means what it
//! says. When parking would exceed the table's capacity or word budget
//! the oldest session is evicted — a real abort whose heap is reset
//! (repaying its words) and whose next `resume` gets a deterministic
//! `no-such-session` rejection.
//!
//! After every reset the worker audits its heap with
//! [`audit::check_heap`]: the per-session garbage-free check that makes
//! "zero leaks across N tenants" an asserted property instead of a
//! hope. At every *suspension* the same audit runs against the parked
//! continuation's roots — the suspension-point invariant of the
//! checkpoint/resume API. Session statistics and (optional) attributed
//! profiles fold into the server-wide aggregate with the associative
//! [`Stats::merge`] / [`Profiler::merge`], so the totals are
//! independent of completion order under churn.

use crate::cache::{CachedProgram, ProgramCache, SharedInput, SharedInputs};
use crate::json::ObjBuilder;
use crate::protocol::{self, Outcome, ResumeRequest, RunRequest};
use crate::server::Conn;
use perceus_bench::counters::counter_values;
use perceus_bench::COUNTER_KEYS;
use perceus_lang::error::Phase;
use perceus_runtime::audit;
use perceus_runtime::machine::{Machine, RunConfig};
use perceus_runtime::{
    Execution, Heap, Profiler, ReclaimMode, RuntimeError, SharedHeap, Stats, StepOutcome, Value,
};
use perceus_suite::{ParallelSpec, Strategy, SuiteError};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A `run` session admitted to a worker queue: the parsed request plus
/// the connection the worker writes its reply to.
pub struct RunJob {
    pub req: RunRequest,
    pub reply: Arc<Conn>,
}

/// A `resume` op routed to the shard that parked the session.
pub struct ResumeJob {
    pub req: ResumeRequest,
    pub reply: Arc<Conn>,
}

/// Anything a worker shard can be asked to do.
pub enum Job {
    Run(RunJob),
    Resume(ResumeJob),
}

impl Job {
    /// The client correlation id (for drain-time rejections).
    fn id(&self) -> u64 {
        match self {
            Job::Run(j) => j.req.id,
            Job::Resume(j) => j.req.id,
        }
    }

    fn reply(&self) -> &Conn {
        match self {
            Job::Run(j) => &j.reply,
            Job::Resume(j) => &j.reply,
        }
    }
}

/// Server-wide totals, folded under one lock at session completion.
#[derive(Default)]
pub struct Aggregate {
    /// Sessions that ran to some terminal state on a worker (evicted
    /// parked sessions included — eviction is their terminal state).
    pub sessions: u64,
    pub ok: u64,
    pub fuel_exhausted: u64,
    pub memory_limit: u64,
    pub compile_errors: u64,
    pub failed: u64,
    /// Legs answered `suspended` with a session token (one session can
    /// contribute many).
    pub suspended: u64,
    /// `resume` ops that found their parked session and ran a leg.
    pub resumes: u64,
    /// Parked sessions aborted by park-table pressure or shutdown;
    /// their next `resume` gets `no-such-session`.
    pub evicted: u64,
    /// Blocks still live after an *ok* session dropped its result —
    /// genuine leaks; the serve-smoke gate requires this to stay zero.
    pub leaked_blocks: u64,
    /// Blocks [`Heap::reset`] retired after aborted sessions (expected
    /// to be nonzero exactly when sessions hit fuel/memory limits or a
    /// parked session is evicted mid-flight).
    pub reclaimed_blocks: u64,
    /// Post-reset [`audit::check_heap`] failures, plus suspension-point
    /// audit failures (must stay zero).
    pub audit_failures: u64,
    /// Shared-segment references that aborted shared sessions failed
    /// to return (the one-way drift documented in `docs/SERVING.md`):
    /// a session killed by a fuel/memory limit may die with shared
    /// references still rooted in dead machine frames. [`Heap::reset`]
    /// repays the references held by local block *fields*; the
    /// frame-held residue only pins shared blocks (counts inflate, so
    /// they are never freed early) and is bounded by the segment,
    /// whose storage is released wholesale when the cache entry drops.
    /// Must stay zero for every *ok* session.
    pub shared_ref_drift: u64,
    /// All session heap statistics, merged associatively.
    pub stats: Stats,
    /// Merged attributed profile of every `profile:true` session.
    pub profile: Option<Profiler>,
}

/// State shared by every worker, connection, and the control plane.
pub struct ServeCtx {
    pub programs: ProgramCache,
    pub inputs: SharedInputs,
    pub aggregate: Mutex<Aggregate>,
    /// Fuel (steps) granted when the request doesn't ask. For resumable
    /// sessions this is the per-*leg* budget.
    pub default_fuel: u64,
    /// Hard fuel ceiling: per-session for plain runs, per-leg *and*
    /// cumulative for resumable sessions (a resumable session that has
    /// burned this many steps across all its legs dies with
    /// `fuel-exhausted` instead of suspending again).
    pub max_fuel: u64,
    /// Live-word budget granted when the request doesn't ask.
    pub default_memory: u64,
    /// Hard per-session live-word ceiling (requests are clamped).
    pub max_memory: u64,
    /// Per-shard cap on parked sessions; parking past it evicts the
    /// shard's oldest.
    pub park_capacity: u64,
    /// Per-shard cap on the summed `live_words` of parked sessions —
    /// the admission-control memory charge for suspended tenants.
    pub park_memory_words: u64,
    /// Sessions admitted but not yet answered (admission control).
    pub inflight: AtomicU64,
    /// Sessions turned away by admission control.
    pub rejected: AtomicU64,
    /// Connections closed because a reply write timed out or failed
    /// ([`crate::server::REPLY_WRITE_TIMEOUT`]).
    pub reply_write_timeouts: AtomicU64,
    /// Currently parked sessions, across all shards (gauge).
    pub parked: AtomicU64,
    /// Summed live words of currently parked sessions (gauge).
    pub parked_words: AtomicU64,
}

/// The worker loop: pull a job, run the session (or a resumed leg) on
/// the right heap, answer, repeat. Exits when the shutdown flag rises
/// or the queue's senders are gone. `shard` is this worker's index —
/// the high bits of every session token it mints, which is how the
/// dispatcher routes `resume` ops back here.
pub fn worker_loop(
    shard: usize,
    jobs: Receiver<Job>,
    ctx: Arc<ServeCtx>,
    shutdown: Arc<AtomicBool>,
) {
    // Workers serve only garbage-free (rc) strategies, so one Rc-mode
    // heap works for every tenant regardless of which rc strategy
    // compiled its program.
    let mut heap = Heap::new(ReclaimMode::Rc);
    let mut parked = ParkTable::new(shard as u64);
    loop {
        if shutdown.load(Ordering::Relaxed) {
            break;
        }
        let (conn, response) = match jobs.recv_timeout(Duration::from_millis(100)) {
            Ok(Job::Run(job)) if !job.req.resumable => {
                let (returned, response) = run_session(heap, &ctx, &job.req);
                heap = returned;
                (job.reply, response)
            }
            Ok(Job::Run(job)) => (job.reply, run_resumable(&mut parked, &ctx, &job.req)),
            Ok(Job::Resume(job)) => (job.reply, resume_session(&mut parked, &ctx, &job.req)),
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => {
                parked.evict_all(&ctx);
                return;
            }
        };
        // The session is answered: it leaves the in-flight count before
        // the write, which may wait on a slow client. A dead connection
        // just discards the response.
        ctx.inflight.fetch_sub(1, Ordering::Relaxed);
        conn.send(response);
    }
    // Shutdown: every parked session is evicted (a real abort with the
    // usual reset + audit accounting) — a daemon going away must not
    // strand continuations that can never be resumed.
    parked.evict_all(&ctx);
    // ... and jobs possibly still queued (or racing in from connections
    // that haven't seen the flag yet) must still be answered and the
    // inflight gauge returned to zero, or their clients hang until EOF.
    // Keep receiving until the last sender is gone — connection threads
    // exit on the same flag, and the acceptor when the shutdown wakes
    // it, so disconnection is guaranteed.
    loop {
        match jobs.recv_timeout(Duration::from_millis(100)) {
            Ok(job) => {
                ctx.rejected.fetch_add(1, Ordering::Relaxed);
                ctx.inflight.fetch_sub(1, Ordering::Relaxed);
                job.reply().send(crate::protocol::error_response(
                    job.id(),
                    Outcome::Rejected,
                    "shutdown",
                    "server shutting down",
                ));
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Everything a response (terminal or suspended) needs to describe its
/// session, threaded through legs and park/resume cycles.
#[derive(Clone)]
struct SessionMeta {
    id: u64,
    name: String,
    strategy: Strategy,
    n: i64,
    cached: bool,
    shared: bool,
    /// Whether the session read the shared input through the borrowed
    /// (snapshot) path — zero RMWs, no per-session reference.
    borrow: bool,
    /// Whether this session went through the resumable path (its
    /// responses then carry a `resumes` count).
    resumable: bool,
    /// Completed `resume` legs so far.
    resumes: u64,
    /// The fuel figure quoted in a `fuel-exhausted` error: the request
    /// budget for plain runs, the cumulative server ceiling for
    /// resumable ones.
    fuel_limit: u64,
    /// The clamped live-word budget (quoted in `memory-limit` errors
    /// and re-applied on every resumed leg).
    memory: u64,
    profile: bool,
    /// Start of the current leg (responses report per-leg latency).
    start: Instant,
}

/// The admission gate for `borrow` (snapshot-read) sessions: every
/// combination rejected here can *never* be served, so the answer is a
/// terminal structured `rejected` (not `busy`), before any compilation
/// happens. Returns `None` when the request is servable.
fn reject_borrow(ctx: &ServeCtx, req: &RunRequest) -> Option<String> {
    if !req.borrow {
        return None;
    }
    let (code, msg) = if !req.shared {
        (
            "borrow-without-shared",
            "\"borrow\":true requires \"shared\":true — snapshot reads borrow the frozen shared input".to_string(),
        )
    } else if req.strategy != Strategy::Perceus {
        (
            "borrow-unsupported",
            format!(
                "strategy {:?} has no borrow-inference variant; snapshot reads require \"perceus\"",
                req.strategy.label()
            ),
        )
    } else if req.resumable {
        (
            "borrow-not-resumable",
            "a borrowed session cannot suspend: its epoch pin would stall shared-segment \
             reclamation for as long as it stayed parked"
                .to_string(),
        )
    } else {
        return None;
    };
    finish_failed(ctx, Outcome::Rejected);
    Some(run_error(req.id, Outcome::Rejected, code, &msg))
}

/// Runs one session on the worker's heap and returns the heap (reset,
/// ready for the next tenant) and the response line.
pub fn run_session(heap: Heap, ctx: &ServeCtx, req: &RunRequest) -> (Heap, String) {
    let start = Instant::now();
    if let Some(resp) = reject_borrow(ctx, req) {
        return (heap, resp);
    }
    let (prog, cached) = match ctx.programs.resolve(req) {
        Ok(p) => p,
        Err(e) => {
            finish_failed(ctx, Outcome::CompileError);
            return (
                heap,
                run_error(
                    req.id,
                    Outcome::CompileError,
                    compile_code(&e),
                    &e.to_string(),
                ),
            );
        }
    };
    if !prog.strategy.is_rc() {
        // Per-session audits and heap recycling both lean on
        // garbage-freedom; a deferred-reclamation tenant would leave
        // floating garbage the reset would misreport as a leak.
        finish_failed(ctx, Outcome::Rejected);
        let msg = format!(
            "strategy {:?} is not garbage-free; serve accepts rc strategies only",
            prog.strategy.label()
        );
        return (
            heap,
            run_error(req.id, Outcome::Rejected, "not-garbage-free", &msg),
        );
    }
    let n = req.n.unwrap_or(prog.default_n);
    let fuel = req.fuel.unwrap_or(ctx.default_fuel).min(ctx.max_fuel);
    let memory = req.memory.unwrap_or(ctx.default_memory).min(ctx.max_memory);
    let config = RunConfig::new()
        .with_step_limit(Some(fuel))
        .with_memory_limit_words(Some(memory))
        .with_profile(req.profile);

    let shared = if req.shared {
        let Some(spec) = prog.spec else {
            finish_failed(ctx, Outcome::Rejected);
            let msg = format!("workload `{}` declares no shared input", prog.name);
            return (
                heap,
                run_error(req.id, Outcome::Rejected, "no-shared-input", &msg),
            );
        };
        match shared_input(ctx, &prog, spec, n) {
            Ok(input) => Some((input, spec)),
            Err(e) => {
                finish_failed(ctx, Outcome::Failed);
                return (heap, run_error(req.id, Outcome::Failed, "internal", &e));
            }
        }
    } else {
        None
    };

    // A borrowed session needs the consume function's first parameter
    // actually borrow-inferred — a workload whose traversal consumes
    // its argument can never serve snapshot reads, which is a terminal
    // rejection, not a runtime failure.
    if req.borrow {
        if let Some((_, spec)) = &shared {
            let borrowed = prog
                .compiled
                .find_fun(spec.consume)
                .is_some_and(|f| prog.compiled.param_borrowed(f, 0));
            if !borrowed {
                finish_failed(ctx, Outcome::Rejected);
                let msg = format!(
                    "borrow inference did not borrow `{}`'s first parameter; \
                     workload `{}` cannot serve snapshot reads",
                    spec.consume, prog.name
                );
                return (
                    heap,
                    run_error(req.id, Outcome::Rejected, "not-borrowable", &msg),
                );
            }
        }
    }

    let meta = SessionMeta {
        id: req.id,
        name: prog.name.clone(),
        strategy: prog.strategy,
        n,
        cached,
        shared: shared.is_some(),
        borrow: req.borrow,
        resumable: false,
        resumes: 0,
        fuel_limit: fuel,
        memory,
        profile: req.profile,
        start,
    };
    let mut m = Machine::with_heap(&prog.compiled, heap, config);
    let run = match &shared {
        Some((input, spec)) => {
            m.heap.attach_shared(Arc::clone(&input.seg));
            let f = prog.compiled.find_fun(spec.consume).ok_or_else(|| {
                RuntimeError::Internal(format!("no consume function `{}`", spec.consume))
            });
            f.and_then(|f| {
                if req.borrow {
                    // Snapshot path: the session never mints a
                    // reference. The cache's own reference plus the
                    // heap's epoch pin keep the input alive, and the
                    // borrowed calling convention never consumes the
                    // root — zero atomic RMWs end to end.
                    m.run_fun(f, (spec.consume_args)(input.root, n))
                } else {
                    // Mint this session's own reference with a real
                    // atomic RMW (the cache holds the builder's
                    // reference, so the count stays ≥ 1 between
                    // sessions); the consume call's owned calling
                    // convention spends it.
                    m.heap.dup(input.root)?;
                    m.run_fun(f, (spec.consume_args)(input.root, n))
                }
            })
        }
        None => m.run_entry(vec![Value::Int(n)]),
    };
    conclude(m, ctx, &meta, run)
}

/// Runs the first leg of a resumable session. Unlike the recycled-heap
/// path, the session gets a *private* fresh heap: if it suspends, that
/// heap is parked with the continuation, and the worker's own heap
/// never holds a tenant's live data across jobs.
fn run_resumable(parked: &mut ParkTable, ctx: &ServeCtx, req: &RunRequest) -> String {
    let start = Instant::now();
    if let Some(resp) = reject_borrow(ctx, req) {
        return resp;
    }
    let (prog, cached) = match ctx.programs.resolve(req) {
        Ok(p) => p,
        Err(e) => {
            finish_failed(ctx, Outcome::CompileError);
            return run_error(
                req.id,
                Outcome::CompileError,
                compile_code(&e),
                &e.to_string(),
            );
        }
    };
    if !prog.strategy.is_rc() {
        // Resumability leans even harder on garbage-freedom: the parked
        // heap's live words are charged against the park budget as the
        // session's exact footprint (Thm. 2/4 — no floating garbage at
        // the suspension point).
        finish_failed(ctx, Outcome::Rejected);
        let msg = format!(
            "strategy {:?} is not garbage-free; resumable sessions require an rc strategy",
            prog.strategy.label()
        );
        return run_error(req.id, Outcome::Rejected, "not-garbage-free", &msg);
    }
    let n = req.n.unwrap_or(prog.default_n);
    let budget = req.fuel.unwrap_or(ctx.default_fuel).min(ctx.max_fuel);
    let memory = req.memory.unwrap_or(ctx.default_memory).min(ctx.max_memory);
    // The *machine* limit is the cumulative ceiling; the per-leg budget
    // below is what makes the session suspend instead of die.
    let config = RunConfig::new()
        .with_step_limit(Some(ctx.max_fuel))
        .with_memory_limit_words(Some(memory))
        .with_profile(req.profile);

    let shared = if req.shared {
        let Some(spec) = prog.spec else {
            finish_failed(ctx, Outcome::Rejected);
            let msg = format!("workload `{}` declares no shared input", prog.name);
            return run_error(req.id, Outcome::Rejected, "no-shared-input", &msg);
        };
        match shared_input(ctx, &prog, spec, n) {
            Ok(input) => Some((input, spec)),
            Err(e) => {
                finish_failed(ctx, Outcome::Failed);
                return run_error(req.id, Outcome::Failed, "internal", &e);
            }
        }
    } else {
        None
    };

    let meta = SessionMeta {
        id: req.id,
        name: prog.name.clone(),
        strategy: prog.strategy,
        n,
        cached,
        shared: shared.is_some(),
        borrow: false, // borrow + resumable is rejected above
        resumable: true,
        resumes: 0,
        fuel_limit: ctx.max_fuel,
        memory,
        profile: req.profile,
        start,
    };
    let mut m = Machine::with_heap(&prog.compiled, Heap::new(ReclaimMode::Rc), config);
    let started = match &shared {
        Some((input, spec)) => {
            m.heap.attach_shared(Arc::clone(&input.seg));
            m.heap.dup(input.root).and_then(|()| {
                let f = prog.compiled.find_fun(spec.consume).ok_or_else(|| {
                    RuntimeError::Internal(format!("no consume function `{}`", spec.consume))
                })?;
                m.start(f, (spec.consume_args)(input.root, n))
            })
        }
        None => m.start_entry(vec![Value::Int(n)]),
    };
    let exec = match started {
        Ok(e) => e,
        Err(e) => return conclude(m, ctx, &meta, Err(e)).1,
    };
    advance(parked, ctx, m, exec, &prog, meta, budget)
}

/// Resumes a parked session for one more leg.
fn resume_session(parked: &mut ParkTable, ctx: &ServeCtx, req: &ResumeRequest) -> String {
    let Some(s) = parked.take(req.session, ctx) else {
        return run_error(
            req.id,
            Outcome::Rejected,
            "no-such-session",
            &format!(
                "no parked session {} on this shard (completed, evicted, or never created)",
                req.session
            ),
        );
    };
    let budget = req.fuel.unwrap_or(ctx.default_fuel).min(ctx.max_fuel);
    let ParkedSession {
        exec,
        heap,
        prog,
        mut meta,
        ..
    } = s;
    meta.id = req.id;
    meta.resumes += 1;
    meta.start = Instant::now();
    crate::relock(&ctx.aggregate).resumes += 1;
    // The heap already carries the session's profiler (if any), trace,
    // and cumulative [`Stats`]; the config re-applies the session's
    // limits ([`Machine::with_heap`] only *enables* profiling when the
    // heap has none, so a parked profile is never clobbered).
    let config = RunConfig::new()
        .with_step_limit(Some(ctx.max_fuel))
        .with_memory_limit_words(Some(meta.memory))
        .with_profile(meta.profile);
    let m = Machine::with_heap(&prog.compiled, heap, config);
    advance(parked, ctx, m, exec, &prog, meta, budget)
}

/// Drives one leg of a resumable execution: to completion (or death),
/// or to the next suspension — in which case the session is parked and
/// the client gets its token.
fn advance(
    parked: &mut ParkTable,
    ctx: &ServeCtx,
    mut m: Machine<'_>,
    mut exec: Execution,
    prog: &Arc<CachedProgram>,
    meta: SessionMeta,
    budget: u64,
) -> String {
    match exec.run(&mut m, Some(budget.max(1))) {
        Ok(StepOutcome::Done(v)) => conclude(m, ctx, &meta, Ok(v)).1,
        Err(e) => conclude(m, ctx, &meta, Err(e)).1,
        Ok(StepOutcome::Suspended {
            steps_used,
            live_words,
        }) => {
            // The suspension-point invariant: the parked continuation's
            // roots account for *every* live block (garbage-freedom at
            // the suspension point), checked here on the live heap
            // before the session is parked.
            let audit_ok = exec.audit(&m.heap).is_ok();
            let heap = m.into_heap();
            let token = parked.park(
                ParkedSession {
                    token: 0, // minted by `park`
                    exec,
                    heap,
                    prog: Arc::clone(prog),
                    meta: meta.clone(),
                    live_words,
                },
                ctx,
            );
            {
                let mut agg = crate::relock(&ctx.aggregate);
                agg.suspended += 1;
                if !audit_ok {
                    agg.audit_failures += 1;
                }
            }
            protocol::response()
                .u64("id", meta.id)
                .bool("ok", false)
                .str("outcome", Outcome::Suspended.label())
                .u64("session", token)
                .str("program", &meta.name)
                .str("strategy", meta.strategy.label())
                .i64("n", meta.n)
                .bool("cached", meta.cached)
                .bool("shared", meta.shared)
                .u64("steps_used", steps_used)
                .u64("live_words", live_words)
                .u64("resumes", meta.resumes)
                .bool("audit_ok", audit_ok)
                .u64("micros", meta.start.elapsed().as_micros() as u64)
                .finish()
        }
    }
}

/// The shared tail of every terminal session outcome, recycled-heap or
/// resumable: fold the result, reset the heap, audit, book the
/// aggregate, render the response. Returns the reset heap (the
/// recycled-heap path reuses it; the resumable path drops it).
fn conclude(
    mut m: Machine<'_>,
    ctx: &ServeCtx,
    meta: &SessionMeta,
    run: Result<Value, RuntimeError>,
) -> (Heap, String) {
    let (outcome, value, error, code) = match run {
        Ok(v) => match m.read_back(v).and_then(|dv| {
            m.drop_result(v)?;
            Ok(dv)
        }) {
            Ok(dv) => (Outcome::Ok, Some(dv.to_string()), None, None),
            Err(e) => (Outcome::Failed, None, Some(e.to_string()), Some(e.code())),
        },
        Err(e @ RuntimeError::StepLimit(_)) => (
            Outcome::FuelExhausted,
            None,
            Some(format!(
                "fuel budget of {} steps exhausted",
                meta.fuel_limit
            )),
            Some(e.code()),
        ),
        Err(e @ RuntimeError::MemoryLimit { .. }) => {
            let live = match &e {
                RuntimeError::MemoryLimit { live_words, .. } => *live_words,
                _ => unreachable!(),
            };
            (
                Outcome::MemoryLimit,
                None,
                Some(format!(
                    "memory budget of {} words exceeded ({live} live)",
                    meta.memory
                )),
                Some(e.code()),
            )
        }
        Err(e) => (Outcome::Failed, None, Some(e.to_string()), Some(e.code())),
    };

    let output = m.output().to_vec();
    let mut heap = m.into_heap();
    let stats = heap.stats;
    let profile = heap.take_profile();
    let leaked = heap.live_blocks();
    let reclaimed = heap.reset();
    // References the session minted into the shared segment but never
    // spent (nonzero only for shared sessions aborted by a limit; the
    // reset already repaid the block-field-held part).
    let shared_drift = heap.take_shared_drift();
    let audit_ok = audit::check_heap(&heap, &[]).is_ok();

    {
        let mut agg = crate::relock(&ctx.aggregate);
        agg.sessions += 1;
        match outcome {
            Outcome::Ok => agg.ok += 1,
            Outcome::FuelExhausted => agg.fuel_exhausted += 1,
            Outcome::MemoryLimit => agg.memory_limit += 1,
            Outcome::CompileError => agg.compile_errors += 1,
            Outcome::Failed | Outcome::Rejected | Outcome::Busy | Outcome::Suspended => {
                agg.failed += 1
            }
        }
        if outcome == Outcome::Ok {
            agg.leaked_blocks += leaked;
        }
        agg.reclaimed_blocks += reclaimed;
        agg.shared_ref_drift += shared_drift;
        if !audit_ok {
            agg.audit_failures += 1;
        }
        agg.stats = agg.stats.merge(&stats);
        agg.profile = match (agg.profile.take(), profile) {
            (Some(a), Some(b)) => Some(a.merge(&b)),
            (a, b) => a.or(b),
        };
    }

    let mut b = protocol::response()
        .u64("id", meta.id)
        .bool("ok", outcome == Outcome::Ok)
        .str("outcome", outcome.label())
        .str("program", &meta.name)
        .str("strategy", meta.strategy.label())
        .i64("n", meta.n)
        .bool("cached", meta.cached)
        .bool("shared", meta.shared)
        .bool("borrow", meta.borrow)
        .u64("micros", meta.start.elapsed().as_micros() as u64)
        .u64("leaked_blocks", leaked)
        .u64("reclaimed_blocks", reclaimed)
        .u64("shared_ref_drift", shared_drift)
        // Not part of the gated `counters` (the baseline is
        // single-threaded); reported separately so borrowed sessions
        // can prove their zero-RMW read path on the wire.
        .u64("atomic_ops", stats.atomic_ops)
        .bool("audit_ok", audit_ok)
        .raw("counters", &render_counters(&stats));
    if meta.resumable {
        b = b.u64("resumes", meta.resumes);
    }
    if let Some(v) = &value {
        b = b.str("value", v);
    }
    if let Some(c) = code {
        b = b.str("code", c);
    }
    if let Some(e) = &error {
        b = b.str("error", e);
    }
    if !output.is_empty() {
        let mut arr = String::from("[");
        for (i, v) in output.iter().enumerate() {
            if i > 0 {
                arr.push(',');
            }
            let _ = write!(arr, "{v}");
        }
        arr.push(']');
        b = b.raw("output", &arr);
    }
    (heap, b.finish())
}

/// A suspended session in a shard's park table: the continuation (plain
/// data — positions are `pc`s into the program's flat code), its private
/// heap (cumulative stats, profiler, shared attachment and all), and the
/// program to run it against.
struct ParkedSession {
    token: u64,
    exec: Execution,
    heap: Heap,
    prog: Arc<CachedProgram>,
    meta: SessionMeta,
    /// Live heap words at suspension — the words this session charges
    /// against [`ServeCtx::park_memory_words`].
    live_words: u64,
}

/// A shard's bounded suspension table. Oldest-first eviction: parking
/// past the capacity or word budget aborts the longest-parked session
/// (its heap is reset — repaying its words — and its next resume gets
/// `no-such-session`).
struct ParkTable {
    shard: u64,
    seq: u64,
    /// Park order (oldest first). The population is bounded and small,
    /// so linear token lookup beats a map's bookkeeping.
    entries: Vec<ParkedSession>,
    /// Summed `live_words` of `entries`.
    words: u64,
}

impl ParkTable {
    fn new(shard: u64) -> Self {
        ParkTable {
            shard,
            seq: 0,
            entries: Vec::new(),
            words: 0,
        }
    }

    /// Parks a session, minting its token (`shard << 48 | seq` — the
    /// dispatcher routes resumes by the high bits), then evicts oldest
    /// sessions while the table exceeds its caps. A session too large
    /// for the budget can thus be evicted immediately after parking;
    /// its client still holds a valid protocol exchange (`suspended`
    /// then `no-such-session`), which is the documented eviction
    /// surface.
    fn park(&mut self, mut s: ParkedSession, ctx: &ServeCtx) -> u64 {
        self.seq += 1;
        let token = (self.shard << 48) | self.seq;
        s.token = token;
        self.words += s.live_words;
        ctx.parked.fetch_add(1, Ordering::Relaxed);
        ctx.parked_words.fetch_add(s.live_words, Ordering::Relaxed);
        self.entries.push(s);
        while self.entries.len() as u64 > ctx.park_capacity.max(1)
            || self.words > ctx.park_memory_words
        {
            if self.entries.is_empty() {
                break;
            }
            let victim = self.entries.remove(0);
            self.evict(victim, ctx);
        }
        token
    }

    /// Removes and returns the parked session with this token.
    fn take(&mut self, token: u64, ctx: &ServeCtx) -> Option<ParkedSession> {
        let i = self.entries.iter().position(|e| e.token == token)?;
        let s = self.entries.remove(i);
        self.words -= s.live_words;
        ctx.parked.fetch_sub(1, Ordering::Relaxed);
        ctx.parked_words.fetch_sub(s.live_words, Ordering::Relaxed);
        Some(s)
    }

    /// Aborts a parked session: drop the continuation, reset its heap
    /// (repaying every live word), audit, and book it as a terminal
    /// `evicted` session in the aggregate.
    fn evict(&mut self, s: ParkedSession, ctx: &ServeCtx) {
        self.words -= s.live_words;
        ctx.parked.fetch_sub(1, Ordering::Relaxed);
        ctx.parked_words.fetch_sub(s.live_words, Ordering::Relaxed);
        // The continuation's stack only *names* heap blocks; the heap
        // owns them, so dropping it with the session leaks nothing and
        // the reset retires the whole live set.
        let mut heap = s.heap;
        let stats = heap.stats;
        heap.prof_exit(); // balance the entry frame the session never exited
        let profile = heap.take_profile();
        let reclaimed = heap.reset();
        let shared_drift = heap.take_shared_drift();
        let audit_ok = audit::check_heap(&heap, &[]).is_ok();
        let mut agg = crate::relock(&ctx.aggregate);
        agg.sessions += 1;
        agg.evicted += 1;
        agg.reclaimed_blocks += reclaimed;
        agg.shared_ref_drift += shared_drift;
        if !audit_ok {
            agg.audit_failures += 1;
        }
        agg.stats = agg.stats.merge(&stats);
        agg.profile = match (agg.profile.take(), profile) {
            (Some(a), Some(b)) => Some(a.merge(&b)),
            (a, b) => a.or(b),
        };
    }

    /// Evicts everything (shutdown drain).
    fn evict_all(&mut self, ctx: &ServeCtx) {
        while !self.entries.is_empty() {
            let victim = self.entries.remove(0);
            self.evict(victim, ctx);
        }
    }
}

/// All 18 gated counters of one session, as a JSON object fragment in
/// [`COUNTER_KEYS`] order (the loadtest drift check reads these).
fn render_counters(stats: &Stats) -> String {
    let mut b = ObjBuilder::new();
    for (key, value) in COUNTER_KEYS.iter().zip(counter_values(stats)) {
        b = b.u64(key, value);
    }
    b.finish()
}

/// Looks up the frozen shared input for `(program, n)`, building and
/// freezing it on first use. Racing builders are benign: the loser's
/// segment is dropped and both sessions use the cached winner.
fn shared_input(
    ctx: &ServeCtx,
    prog: &crate::cache::CachedProgram,
    spec: ParallelSpec,
    n: i64,
) -> Result<Arc<SharedInput>, String> {
    if let Some(input) = ctx.inputs.get(prog.input_key, n) {
        return Ok(input);
    }
    let build = prog
        .compiled
        .find_fun(spec.build)
        .ok_or_else(|| format!("no build function `{}`", spec.build))?;
    // Build on a throwaway machine, not the worker heap: after the
    // share barrier the builder heap must be empty anyway, and a build
    // failure must not contaminate the tenant heap.
    let mut builder = Machine::new(
        &prog.compiled,
        prog.strategy.reclaim_mode(),
        RunConfig::default(),
    );
    let v = builder
        .run_fun(build, (spec.build_args)(n))
        .map_err(|e| format!("shared-input build failed: {e}"))?;
    let mut seg = SharedHeap::new();
    let root = builder
        .heap
        .mark_shared(v, &mut seg)
        .map_err(|e| format!("share barrier failed: {e}"))?;
    if builder.heap.live_blocks() != 0 {
        return Err(format!(
            "builder heap retains {} blocks after the share barrier",
            builder.heap.live_blocks()
        ));
    }
    {
        let mut agg = crate::relock(&ctx.aggregate);
        agg.stats = agg.stats.merge(&builder.heap.stats);
    }
    let live_baseline = seg.live_blocks();
    Ok(ctx.inputs.insert(
        prog.input_key,
        n,
        SharedInput {
            seg: Arc::new(seg),
            root,
            live_baseline,
        },
    ))
}

/// Books a session that never reached the machine.
fn finish_failed(ctx: &ServeCtx, outcome: Outcome) {
    let mut agg = crate::relock(&ctx.aggregate);
    agg.sessions += 1;
    match outcome {
        Outcome::CompileError => agg.compile_errors += 1,
        _ => agg.failed += 1,
    }
}

/// An error response for a session that produced no counters.
/// The `code` of a program that did not compile: `source-too-deep` for a
/// source past a front-end nesting limit, `compile-error` otherwise.
fn compile_code(e: &SuiteError) -> &'static str {
    match e {
        SuiteError::Lang(e) if e.phase == Phase::Depth => "source-too-deep",
        _ => "compile-error",
    }
}

fn run_error(id: u64, outcome: Outcome, code: &str, msg: &str) -> String {
    crate::protocol::error_response(id, outcome, code, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use perceus_suite::Strategy;

    fn ctx() -> ServeCtx {
        ServeCtx {
            programs: ProgramCache::new(64),
            inputs: SharedInputs::default(),
            aggregate: Mutex::new(Aggregate::default()),
            default_fuel: 10_000_000,
            max_fuel: 100_000_000,
            default_memory: 1 << 20,
            max_memory: 64 << 20,
            park_capacity: 64,
            park_memory_words: 32 << 20,
            inflight: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            reply_write_timeouts: AtomicU64::new(0),
            parked: AtomicU64::new(0),
            parked_words: AtomicU64::new(0),
        }
    }

    fn req(workload: &str) -> RunRequest {
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

    /// Drives a suspended session to a terminal response with repeated
    /// `resume` ops, returning (terminal response, legs run).
    fn resume_to_end(
        table: &mut ParkTable,
        ctx: &ServeCtx,
        first: &str,
        fuel: Option<u64>,
    ) -> (String, u64) {
        let mut resp = json::parse(first).unwrap();
        let mut raw = first.to_string();
        for legs in 0..10_000 {
            if resp.get("outcome").and_then(Json::as_str) != Some("suspended") {
                return (raw, legs);
            }
            let session = resp.get("session").and_then(Json::as_u64).unwrap();
            raw = resume_session(
                table,
                ctx,
                &ResumeRequest {
                    id: 1,
                    session,
                    fuel,
                },
            );
            resp = json::parse(&raw).unwrap();
        }
        panic!("session never terminated: {raw}");
    }

    #[test]
    fn ok_session_leaves_heap_clean() {
        let ctx = ctx();
        let (heap, resp) = run_session(Heap::new(ReclaimMode::Rc), &ctx, &req("map"));
        assert!(resp.contains("\"outcome\":\"ok\""), "{resp}");
        assert!(resp.contains("\"leaked_blocks\":0"), "{resp}");
        assert!(resp.contains("\"reclaimed_blocks\":0"), "{resp}");
        assert_eq!(heap.live_blocks(), 0);
        let agg = ctx.aggregate.lock().unwrap();
        assert_eq!((agg.sessions, agg.ok, agg.leaked_blocks), (1, 1, 0));
        assert_eq!(agg.audit_failures, 0);
    }

    #[test]
    fn fuel_exhaustion_is_reclaimed_and_audited() {
        let ctx = ctx();
        let mut r = req("rbtree");
        r.fuel = Some(2_000); // dies mid-build with live frames
        let (heap, resp) = run_session(Heap::new(ReclaimMode::Rc), &ctx, &r);
        assert!(resp.contains("\"outcome\":\"fuel-exhausted\""), "{resp}");
        assert!(resp.contains("\"code\":\"step-limit\""), "{resp}");
        assert!(resp.contains("\"audit_ok\":true"), "{resp}");
        assert_eq!(
            heap.live_blocks(),
            0,
            "reset must retire the tenant's garbage"
        );
        let agg = ctx.aggregate.lock().unwrap();
        assert_eq!(agg.fuel_exhausted, 1);
        assert!(
            agg.reclaimed_blocks > 0,
            "an aborted build leaves blocks to retire"
        );
        assert_eq!(agg.audit_failures, 0);
    }

    #[test]
    fn memory_limit_is_enforced() {
        let ctx = ctx();
        let mut r = req("rbtree");
        r.memory = Some(64); // far below the tree's live size
        let (_, resp) = run_session(Heap::new(ReclaimMode::Rc), &ctx, &r);
        assert!(resp.contains("\"outcome\":\"memory-limit\""), "{resp}");
        assert!(resp.contains("\"code\":\"memory-limit\""), "{resp}");
    }

    #[test]
    fn non_rc_strategies_are_rejected() {
        let ctx = ctx();
        let mut r = req("map");
        r.strategy = Strategy::Gc;
        let (_, resp) = run_session(Heap::new(ReclaimMode::Rc), &ctx, &r);
        assert!(resp.contains("\"outcome\":\"rejected\""), "{resp}");
        assert!(resp.contains("\"code\":\"not-garbage-free\""), "{resp}");
    }

    #[test]
    fn warm_session_matches_cold_schedule_counters() {
        // The drift-gate property: a session on a recycled heap must
        // reproduce a fresh heap's schedule counters exactly (only the
        // freelist trio may differ).
        let ctx = ctx();
        let (heap, cold) = run_session(Heap::new(ReclaimMode::Rc), &ctx, &req("map"));
        let (_, warm) = run_session(heap, &ctx, &req("map"));
        let cold = crate::json::parse(&cold).unwrap();
        let warm = crate::json::parse(&warm).unwrap();
        let exempt = ["freelist_hits", "freelist_misses", "recycled_words"];
        for key in COUNTER_KEYS {
            if exempt.contains(&key) {
                continue;
            }
            assert_eq!(
                cold.get("counters").and_then(|c| c.get(key)),
                warm.get("counters").and_then(|c| c.get(key)),
                "counter {key} drifted between cold and warm sessions"
            );
        }
        // And the warm heap actually recycled: the second session's
        // allocations came off the first session's free lists.
        let hits = warm
            .get("counters")
            .and_then(|c| c.get("freelist_hits"))
            .and_then(crate::json::Json::as_u64)
            .unwrap();
        assert!(hits > 0, "warm session must hit the recycled free lists");
    }

    #[test]
    fn resumable_session_completes_with_identical_counters() {
        // The serving restatement of resume determinism: a session
        // suspended many times must end with *bit-identical* counters
        // to an uninterrupted one (both start on a cold heap here, so
        // even the freelist trio matches).
        let ctx = ctx();
        let (_, straight) = run_session(Heap::new(ReclaimMode::Rc), &ctx, &req("map"));
        let straight = json::parse(&straight).unwrap();

        let mut table = ParkTable::new(0);
        let mut r = req("map");
        r.resumable = true;
        r.fuel = Some(2_000);
        let first = run_resumable(&mut table, &ctx, &r);
        assert!(first.contains("\"outcome\":\"suspended\""), "{first}");
        assert!(first.contains("\"audit_ok\":true"), "{first}");
        assert!(first.contains("\"session\":"), "{first}");

        let (last, legs) = resume_to_end(&mut table, &ctx, &first, Some(2_000));
        assert!(legs >= 2, "map at test size must need several legs");
        let last = json::parse(&last).unwrap();
        assert_eq!(last.get("outcome").and_then(Json::as_str), Some("ok"));
        assert_eq!(last.get("leaked_blocks").and_then(Json::as_u64), Some(0));
        assert_eq!(last.get("audit_ok").and_then(Json::as_bool), Some(true));
        assert_eq!(last.get("resumes").and_then(Json::as_u64), Some(legs));
        for key in COUNTER_KEYS {
            assert_eq!(
                straight.get("counters").and_then(|c| c.get(key)),
                last.get("counters").and_then(|c| c.get(key)),
                "counter {key} drifted between straight and resumed sessions"
            );
        }
        assert_eq!(
            straight.get("value").and_then(Json::as_str),
            last.get("value").and_then(Json::as_str),
        );

        let agg = ctx.aggregate.lock().unwrap();
        assert_eq!(agg.ok, 2);
        assert_eq!(agg.suspended, legs, "every leg but the last suspended");
        assert_eq!(agg.resumes, legs);
        assert_eq!(agg.evicted, 0);
        assert_eq!(agg.audit_failures, 0);
        drop(agg);
        assert_eq!(ctx.parked.load(Ordering::Relaxed), 0);
        assert_eq!(ctx.parked_words.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn borrowed_snapshot_session_pays_zero_atomics() {
        let ctx = ctx();
        let mut owned = req("map");
        owned.shared = true;
        let (heap, a) = run_session(Heap::new(ReclaimMode::Rc), &ctx, &owned);
        let a = json::parse(&a).unwrap();
        assert_eq!(a.get("outcome").and_then(Json::as_str), Some("ok"));
        assert!(
            a.get("atomic_ops").and_then(Json::as_u64).unwrap() > 0,
            "owned shared reads pay per-visit RMWs"
        );

        let mut borrowed = req("map");
        borrowed.shared = true;
        borrowed.borrow = true;
        let (_, b) = run_session(heap, &ctx, &borrowed);
        let b = json::parse(&b).unwrap();
        assert_eq!(b.get("outcome").and_then(Json::as_str), Some("ok"), "{b:?}");
        assert_eq!(b.get("borrow").and_then(Json::as_bool), Some(true));
        assert_eq!(
            b.get("atomic_ops").and_then(Json::as_u64),
            Some(0),
            "the snapshot path must be RMW-free: {b:?}"
        );
        assert_eq!(b.get("shared_ref_drift").and_then(Json::as_u64), Some(0));
        assert_eq!(b.get("leaked_blocks").and_then(Json::as_u64), Some(0));
        assert_eq!(
            a.get("value").and_then(Json::as_str),
            b.get("value").and_then(Json::as_str),
            "owned and borrowed reads agree"
        );
        // The borrowed build attached the owned build's frozen input
        // (keyed borrow-agnostically), and the segment is untouched.
        let (entries, live, baseline) = ctx.inputs.stats();
        assert_eq!(entries, 1, "one frozen input serves both builds");
        assert_eq!(live, baseline);
    }

    #[test]
    fn unservable_borrow_combinations_are_rejected() {
        let ctx = ctx();
        let mut r = req("map");
        r.borrow = true; // missing shared
        let (_, resp) = run_session(Heap::new(ReclaimMode::Rc), &ctx, &r);
        assert!(resp.contains("\"outcome\":\"rejected\""), "{resp}");
        assert!(
            resp.contains("\"code\":\"borrow-without-shared\""),
            "{resp}"
        );

        let mut r = req("map");
        r.borrow = true;
        r.shared = true;
        r.strategy = Strategy::Scoped;
        let (_, resp) = run_session(Heap::new(ReclaimMode::Rc), &ctx, &r);
        assert!(resp.contains("\"code\":\"borrow-unsupported\""), "{resp}");

        let mut r = req("map");
        r.borrow = true;
        r.shared = true;
        r.resumable = true;
        let mut table = ParkTable::new(0);
        let resp = run_resumable(&mut table, &ctx, &r);
        assert!(resp.contains("\"code\":\"borrow-not-resumable\""), "{resp}");

        let agg = ctx.aggregate.lock().unwrap();
        assert_eq!(
            (agg.sessions, agg.failed),
            (3, 3),
            "each rejection is a booked terminal session"
        );
    }

    #[test]
    fn resume_of_unknown_session_is_rejected() {
        let ctx = ctx();
        let mut table = ParkTable::new(0);
        let resp = resume_session(
            &mut table,
            &ctx,
            &ResumeRequest {
                id: 7,
                session: 12345,
                fuel: None,
            },
        );
        assert!(resp.contains("\"outcome\":\"rejected\""), "{resp}");
        assert!(resp.contains("\"code\":\"no-such-session\""), "{resp}");
        assert!(resp.contains("\"id\":7"), "{resp}");
    }

    #[test]
    fn park_pressure_evicts_oldest_with_heap_repayment() {
        let mut ctx = ctx();
        ctx.park_capacity = 1;
        let mut table = ParkTable::new(3);
        let mut r = req("rbtree");
        r.resumable = true;
        r.fuel = Some(2_000);
        let a = json::parse(&run_resumable(&mut table, &ctx, &r)).unwrap();
        let b = json::parse(&run_resumable(&mut table, &ctx, &r)).unwrap();
        let tok_a = a.get("session").and_then(Json::as_u64).unwrap();
        let tok_b = b.get("session").and_then(Json::as_u64).unwrap();
        assert_eq!(tok_a >> 48, 3, "token carries the shard in its high bits");
        assert_ne!(tok_a, tok_b);
        // Parking B evicted A (capacity 1, oldest first) with a real
        // abort: terminal accounting, words repaid, audit clean.
        {
            let agg = ctx.aggregate.lock().unwrap();
            assert_eq!((agg.evicted, agg.sessions), (1, 1));
            assert!(agg.reclaimed_blocks > 0, "the evicted heap had live data");
            assert_eq!(agg.audit_failures, 0);
        }
        assert_eq!(ctx.parked.load(Ordering::Relaxed), 1);
        let resp = resume_session(
            &mut table,
            &ctx,
            &ResumeRequest {
                id: 9,
                session: tok_a,
                fuel: None,
            },
        );
        assert!(resp.contains("\"code\":\"no-such-session\""), "{resp}");
        // B is untouched and still runs to completion.
        let b_raw = resume_session(
            &mut table,
            &ctx,
            &ResumeRequest {
                id: 10,
                session: tok_b,
                fuel: None,
            },
        );
        let (last, _) = resume_to_end(&mut table, &ctx, &b_raw, None);
        assert!(last.contains("\"outcome\":\"ok\""), "{last}");
        assert_eq!(ctx.parked.load(Ordering::Relaxed), 0);
        assert_eq!(ctx.parked_words.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn shutdown_drain_evicts_parked_sessions() {
        let ctx = ctx();
        let mut table = ParkTable::new(0);
        let mut r = req("rbtree");
        r.resumable = true;
        r.fuel = Some(2_000);
        let first = run_resumable(&mut table, &ctx, &r);
        assert!(first.contains("\"outcome\":\"suspended\""), "{first}");
        assert_eq!(ctx.parked.load(Ordering::Relaxed), 1);
        table.evict_all(&ctx);
        assert_eq!(ctx.parked.load(Ordering::Relaxed), 0);
        assert_eq!(ctx.parked_words.load(Ordering::Relaxed), 0);
        let agg = ctx.aggregate.lock().unwrap();
        assert_eq!(agg.evicted, 1);
        assert_eq!(agg.audit_failures, 0);
    }

    #[test]
    fn shutdown_drains_queued_jobs_with_rejection() {
        use std::io::Read;
        use std::net::{TcpListener, TcpStream};
        use std::sync::mpsc;
        let ctx = Arc::new(ctx());
        // A loopback socket pair: the accepted end is the connection
        // the worker answers on, the other is the client.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let conn = Arc::new(Conn::new(listener.accept().unwrap().0, Arc::clone(&ctx)));
        let (tx, rx) = mpsc::sync_channel::<Job>(8);
        for id in 0..2 {
            ctx.inflight.fetch_add(1, Ordering::Relaxed);
            tx.send(Job::Run(RunJob {
                req: RunRequest { id, ..req("map") },
                reply: Arc::clone(&conn),
            }))
            .unwrap();
        }
        ctx.inflight.fetch_add(1, Ordering::Relaxed);
        tx.send(Job::Resume(ResumeJob {
            req: ResumeRequest {
                id: 2,
                session: 1,
                fuel: None,
            },
            reply: conn,
        }))
        .unwrap();
        drop(tx);
        let shutdown = Arc::new(AtomicBool::new(true));
        worker_loop(0, rx, Arc::clone(&ctx), shutdown);
        // The jobs held the last handles: the write half is shut down,
        // so the client reads every reply and then EOF.
        let mut replies = String::new();
        client.read_to_string(&mut replies).unwrap();
        let replies: Vec<&str> = replies.lines().collect();
        assert_eq!(replies.len(), 3, "every queued job must be answered");
        for r in &replies {
            assert!(r.contains("\"outcome\":\"rejected\""), "{r}");
            assert!(r.contains("\"code\":\"shutdown\""), "{r}");
            assert!(r.contains("shutting down"), "{r}");
        }
        assert_eq!(
            ctx.inflight.load(Ordering::Relaxed),
            0,
            "the inflight gauge must return to zero"
        );
        assert_eq!(ctx.rejected.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn aborted_shared_session_reports_ref_drift_and_never_unpins_the_input() {
        let ctx = ctx();
        // A healthy shared session freezes the input and balances its
        // ledger.
        let mut warm = req("map");
        warm.shared = true;
        let (heap, a) = run_session(Heap::new(ReclaimMode::Rc), &ctx, &warm);
        assert!(a.contains("\"outcome\":\"ok\""), "{a}");
        assert!(a.contains("\"shared_ref_drift\":0"), "{a}");
        // Starve a shared session: it dies with shared references
        // still rooted in dead machine frames.
        let mut starved = req("map");
        starved.shared = true;
        starved.fuel = Some(800);
        let (heap, b) = run_session(heap, &ctx, &starved);
        assert!(b.contains("\"outcome\":\"fuel-exhausted\""), "{b}");
        assert!(b.contains("\"audit_ok\":true"), "{b}");
        assert_eq!(heap.live_blocks(), 0, "local heap still resets clean");
        let agg = ctx.aggregate.lock().unwrap();
        assert!(
            agg.shared_ref_drift > 0,
            "the un-returned references must surface as measured drift"
        );
        drop(agg);
        // Drift only *pins* shared blocks (counts inflate): the
        // segment's live gauge never moves, so successors are safe.
        let (_, live, baseline) = ctx.inputs.stats();
        assert_eq!(live, baseline);
        // And a successor shared session on the same heap still works.
        let mut again = req("map");
        again.shared = true;
        let (_, c) = run_session(heap, &ctx, &again);
        assert!(c.contains("\"outcome\":\"ok\""), "{c}");
        assert!(c.contains("\"shared_ref_drift\":0"), "{c}");
    }

    #[test]
    fn shared_sessions_reuse_one_frozen_input() {
        let ctx = ctx();
        let mut r = req("map");
        r.shared = true;
        let (heap, a) = run_session(Heap::new(ReclaimMode::Rc), &ctx, &r);
        let (_, b) = run_session(heap, &ctx, &r);
        assert!(a.contains("\"outcome\":\"ok\""), "{a}");
        assert!(b.contains("\"outcome\":\"ok\""), "{b}");
        let (entries, _, _) = ctx.inputs.stats();
        assert_eq!(entries, 1, "second session must reuse the frozen input");
        // The cached entry keeps its baseline reference: the segment is
        // exactly as live as the moment it was frozen.
        let input = ctx.inputs.get(
            crate::cache::program_key(
                perceus_suite::workload("map").unwrap().source,
                Strategy::Perceus,
                false,
            ),
            perceus_suite::workload("map").unwrap().test_n,
        );
        let input = input.unwrap();
        assert_eq!(input.seg.live_blocks(), input.live_baseline);
    }
}
