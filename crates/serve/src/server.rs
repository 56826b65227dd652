//! The daemon: a TCP front end over a sharded pool of session workers.
//!
//! Architecture (see `docs/SERVING.md` for the full picture):
//!
//! ```text
//! client ──line──▶ connection reader ──Job──▶ worker shard queue (bounded)
//!                        │                          │ session on recycled heap
//! client ◀──line── connection writer ◀──String──────┘
//! ```
//!
//! Each accepted connection gets a reader thread (parses
//! newline-delimited requests, runs admission control, dispatches to a
//! worker shard round-robin) and a writer thread (serializes response
//! lines back; workers on different shards finish out of order, which
//! is why responses carry the client's `id`). Admission control is two
//! gates: a global in-flight cap, and the bounded per-shard queue —
//! when every shard's queue is full the session is turned away
//! immediately with `outcome: "busy"` (transient backpressure, retry
//! after backoff; `"rejected"` is reserved for permanently unservable
//! requests) instead of queuing without bound, so an overloaded server
//! degrades by fast refusal rather than by latency collapse.

use crate::cache::{ProgramCache, SharedInputs};
use crate::json::ObjBuilder;
use crate::protocol::{self, Outcome, ParseError, Request, DEFAULT_FUEL, DEFAULT_MEMORY_WORDS};
use crate::worker::{worker_loop, Aggregate, Job, ResumeJob, RunJob, ServeCtx};
use perceus_bench::counters::counter_values;
use perceus_bench::COUNTER_KEYS;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The longest request line a connection may send, without its `\n`.
/// Past it the daemon answers `request-too-large` once and closes the
/// connection, so one client cannot grow a reader's buffer without
/// bound. The largest line the tests, the loadtest or perfbench send
/// carries an inline suite program: about 3 KB.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// The stack each session worker runs on. Compiling recurses once per
/// nesting level of the source, which the front end bounds
/// (`perceus_lang::MAX_NESTING`, `perceus_lang::MAX_DEPTH`); a source at
/// both limits compiles through every stage in half of this, in a debug
/// build (it needs 2–4 MiB there). It is reserved address space: only
/// the depth a compile reaches is ever touched.
pub const WORKER_STACK: usize = 16 << 20;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker shards (each owns one recycled heap).
    pub workers: usize,
    /// Bounded depth of each shard's job queue.
    pub queue_depth: usize,
    /// Global cap on admitted-but-unanswered sessions.
    pub max_inflight: u64,
    /// Per-session fuel when the request doesn't ask / hard ceiling.
    pub default_fuel: u64,
    pub max_fuel: u64,
    /// Per-session live words when the request doesn't ask / ceiling.
    pub default_memory: u64,
    pub max_memory: u64,
    /// Compiled-program cache capacity.
    pub cache_capacity: usize,
    /// Per-shard cap on parked (suspended) resumable sessions; parking
    /// past it evicts the shard's oldest.
    pub park_capacity: u64,
    /// Per-shard cap on the summed live words of parked sessions.
    pub park_memory_words: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 16);
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            queue_depth: 128,
            max_inflight: (workers * 128) as u64,
            default_fuel: DEFAULT_FUEL,
            max_fuel: DEFAULT_FUEL,
            default_memory: DEFAULT_MEMORY_WORDS,
            max_memory: DEFAULT_MEMORY_WORDS,
            cache_capacity: 256,
            park_capacity: 64,
            park_memory_words: 32 << 20,
        }
    }
}

/// A running daemon.
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<ServeCtx>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared server state (tests read aggregates directly).
    pub fn ctx(&self) -> &Arc<ServeCtx> {
        &self.ctx
    }

    /// Raises the shutdown flag; workers and the acceptor drain out.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// Shuts down and joins every daemon thread.
    pub fn join(mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Parks until the shutdown flag rises — a client's
    /// `{"op":"shutdown"}` or another thread's [`ServerHandle::shutdown`]
    /// — then joins every daemon thread. Unlike [`ServerHandle::join`],
    /// this never initiates the shutdown itself: it is how the `serve`
    /// command keeps the daemon alive for its whole service life.
    pub fn wait(mut self) {
        while !self.shutdown.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(25));
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Starts the daemon: binds, spawns the worker pool and the acceptor,
/// returns immediately.
pub fn start(config: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let ctx = Arc::new(ServeCtx {
        programs: ProgramCache::new(config.cache_capacity),
        inputs: SharedInputs::default(),
        aggregate: Mutex::new(Aggregate::default()),
        default_fuel: config.default_fuel.min(config.max_fuel),
        max_fuel: config.max_fuel,
        default_memory: config.default_memory.min(config.max_memory),
        max_memory: config.max_memory,
        park_capacity: config.park_capacity,
        park_memory_words: config.park_memory_words,
        inflight: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        parked: AtomicU64::new(0),
        parked_words: AtomicU64::new(0),
    });
    let shutdown = Arc::new(AtomicBool::new(false));

    let mut threads = Vec::new();
    let mut shards = Vec::with_capacity(config.workers);
    for shard in 0..config.workers.max(1) {
        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth.max(1));
        shards.push(tx);
        let ctx = Arc::clone(&ctx);
        let stop = Arc::clone(&shutdown);
        let spawned = std::thread::Builder::new()
            .name(format!("serve-worker-{shard}"))
            .stack_size(WORKER_STACK)
            .spawn(move || worker_loop(shard, rx, ctx, stop));
        match spawned {
            Ok(worker) => threads.push(worker),
            Err(e) => {
                shutdown.store(true, Ordering::Relaxed);
                for t in threads {
                    let _ = t.join();
                }
                return Err(e);
            }
        }
    }

    let acceptor = {
        let ctx = Arc::clone(&ctx);
        let shutdown = Arc::clone(&shutdown);
        let shards = Arc::new(shards);
        let max_inflight = config.max_inflight;
        let workers = config.workers;
        std::thread::spawn(move || {
            let next_shard = Arc::new(AtomicUsize::new(0));
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            while !shutdown.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let ctx = Arc::clone(&ctx);
                        let shutdown = Arc::clone(&shutdown);
                        let shards = Arc::clone(&shards);
                        let next_shard = Arc::clone(&next_shard);
                        conns.push(std::thread::spawn(move || {
                            connection(
                                stream,
                                ctx,
                                shutdown,
                                shards,
                                next_shard,
                                max_inflight,
                                workers,
                            );
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
                conns.retain(|c| !c.is_finished());
            }
            for c in conns {
                let _ = c.join();
            }
        })
    };
    threads.push(acceptor);

    Ok(ServerHandle {
        addr,
        ctx,
        shutdown,
        threads,
    })
}

/// One client connection: reader here, writer on a side thread.
#[allow(clippy::too_many_arguments)]
fn connection(
    stream: TcpStream,
    ctx: Arc<ServeCtx>,
    shutdown: Arc<AtomicBool>,
    shards: Arc<Vec<SyncSender<Job>>>,
    next_shard: Arc<AtomicUsize>,
    max_inflight: u64,
    workers: usize,
) {
    // A reply is one small segment the client is waiting for: send it
    // at once. Held back by Nagle's algorithm, a reply written in two
    // pieces waits for the client's delayed ACK of the first (~40 ms).
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // Responses (from workers and from the control plane) funnel
    // through one channel so lines never interleave on the socket.
    let (reply_tx, reply_rx) = mpsc::channel::<String>();
    let writer = std::thread::spawn(move || {
        let mut out = write_half;
        while let Ok(mut line) = reply_rx.recv() {
            // One write per reply: line and terminator together.
            line.push('\n');
            if out
                .write_all(line.as_bytes())
                .and_then(|()| out.flush())
                .is_err()
            {
                break;
            }
        }
        let _ = out.shutdown(std::net::Shutdown::Write);
    });

    // Requests are read as raw bytes and split on '\n' by hand. A
    // `BufReader::read_line` over a socket with a read timeout would
    // *truncate* a partially-received line when the timeout fires
    // mid-line (`append_to_string` discards the consumed bytes on
    // `Err`), silently corrupting any request split across a >100ms
    // gap — a slow client, or a large inline source spread over
    // delayed TCP segments. The timeout exists only so the shutdown
    // flag is polled; partial data survives in `buf` across timeouts.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut stream = stream;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut scanned = 0; // bytes before this hold no '\n'
    let mut too_large = false;
    'conn: while !shutdown.load(Ordering::Relaxed) {
        while let Some(nl) = buf[scanned..].iter().position(|&b| b == b'\n') {
            let len = scanned + nl;
            scanned = 0;
            if len > MAX_REQUEST_BYTES {
                too_large = true;
                break 'conn;
            }
            let line: Vec<u8> = buf.drain(..=len).collect();
            let line = String::from_utf8_lossy(&line);
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if !dispatch(
                trimmed,
                &ctx,
                &shutdown,
                &shards,
                &next_shard,
                max_inflight,
                workers,
                &reply_tx,
            ) {
                break 'conn; // client-initiated shutdown
            }
        }
        if buf.len() > MAX_REQUEST_BYTES {
            too_large = true;
            break;
        }
        scanned = buf.len();
        match stream.read(&mut chunk) {
            Ok(0) => break, // EOF
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    if too_large {
        let _ = reply_tx.send(protocol::protocol_error(
            "request-too-large",
            &format!("request line longer than {MAX_REQUEST_BYTES} bytes; closing the connection"),
        ));
    }
    drop(reply_tx);
    let _ = writer.join();
}

/// Handles one request line on a connection. Returns `false` when the
/// client asked the daemon to shut down (the connection stops reading).
#[allow(clippy::too_many_arguments)]
fn dispatch(
    trimmed: &str,
    ctx: &Arc<ServeCtx>,
    shutdown: &AtomicBool,
    shards: &[SyncSender<Job>],
    next_shard: &AtomicUsize,
    max_inflight: u64,
    workers: usize,
    reply_tx: &mpsc::Sender<String>,
) -> bool {
    match protocol::parse_request(trimmed) {
        Err(ParseError::Bad(e)) => {
            let _ = reply_tx.send(protocol::protocol_error("bad-request", &e));
        }
        Err(ParseError::Version { got, id }) => {
            let _ = reply_tx.send(protocol::version_error(got, id));
        }
        Ok(Request::Health) => {
            let _ = reply_tx.send(
                protocol::response()
                    .bool("ok", true)
                    .u64("workers", workers as u64)
                    .u64("inflight", ctx.inflight.load(Ordering::Relaxed))
                    .finish(),
            );
        }
        Ok(Request::Stats) => {
            let _ = reply_tx.send(render_stats(ctx, workers));
        }
        Ok(Request::Shutdown) => {
            let _ = reply_tx.send(protocol::response().bool("ok", true).finish());
            shutdown.store(true, Ordering::Relaxed);
            return false;
        }
        Ok(Request::Run(req)) => {
            // Gate 1: the global in-flight cap. Backpressure is
            // `busy` — transient by definition — never `rejected`,
            // which is reserved for requests that can *never* succeed.
            if ctx.inflight.fetch_add(1, Ordering::Relaxed) >= max_inflight {
                ctx.inflight.fetch_sub(1, Ordering::Relaxed);
                ctx.rejected.fetch_add(1, Ordering::Relaxed);
                let _ = reply_tx.send(protocol::error_response(
                    req.id,
                    Outcome::Busy,
                    "busy",
                    "server at capacity (in-flight cap)",
                ));
                return true;
            }
            // Gate 2: a bounded shard queue, round-robin with failover
            // so one slow shard doesn't reject while others sit idle.
            let id = req.id;
            let mut job = Job::Run(RunJob {
                req: *req,
                reply: reply_tx.clone(),
            });
            let start = next_shard.fetch_add(1, Ordering::Relaxed);
            let mut admitted = false;
            for i in 0..shards.len() {
                let shard = &shards[(start + i) % shards.len()];
                match shard.try_send(job) {
                    Ok(()) => {
                        admitted = true;
                        break;
                    }
                    Err(TrySendError::Full(j)) | Err(TrySendError::Disconnected(j)) => {
                        job = j;
                    }
                }
            }
            if !admitted {
                ctx.inflight.fetch_sub(1, Ordering::Relaxed);
                ctx.rejected.fetch_add(1, Ordering::Relaxed);
                let _ = reply_tx.send(protocol::error_response(
                    id,
                    Outcome::Busy,
                    "busy",
                    "server at capacity (all shard queues full)",
                ));
            }
        }
        Ok(Request::Resume(req)) => {
            // A resume has no shard freedom: the session token's high
            // bits name the one worker whose park table holds the
            // continuation, so there is no failover — that queue or
            // nothing.
            let shard_idx = (req.session >> 48) as usize;
            if shard_idx >= shards.len() {
                let _ = reply_tx.send(protocol::error_response(
                    req.id,
                    Outcome::Rejected,
                    "no-such-session",
                    &format!("session token {} names no worker shard", req.session),
                ));
                return true;
            }
            if ctx.inflight.fetch_add(1, Ordering::Relaxed) >= max_inflight {
                ctx.inflight.fetch_sub(1, Ordering::Relaxed);
                ctx.rejected.fetch_add(1, Ordering::Relaxed);
                let _ = reply_tx.send(protocol::error_response(
                    req.id,
                    Outcome::Busy,
                    "busy",
                    "server at capacity (in-flight cap)",
                ));
                return true;
            }
            let id = req.id;
            let job = Job::Resume(ResumeJob {
                req,
                reply: reply_tx.clone(),
            });
            match shards[shard_idx].try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                    ctx.inflight.fetch_sub(1, Ordering::Relaxed);
                    ctx.rejected.fetch_add(1, Ordering::Relaxed);
                    let _ = reply_tx.send(protocol::error_response(
                        id,
                        Outcome::Busy,
                        "busy",
                        "session's worker shard queue is full",
                    ));
                }
            }
        }
    }
    true
}

/// The `stats` response: lifecycle totals, cache effectiveness, shared
/// segments, and the merged gated counters of every session so far.
fn render_stats(ctx: &ServeCtx, workers: usize) -> String {
    let (programs, hits, misses, evictions) = ctx.programs.stats();
    let (inputs, shared_live, shared_baseline) = ctx.inputs.stats();
    let agg = crate::relock(&ctx.aggregate);
    let mut counters = ObjBuilder::new();
    for (key, value) in COUNTER_KEYS.iter().zip(counter_values(&agg.stats)) {
        counters = counters.u64(key, value);
    }
    protocol::response()
        .bool("ok", true)
        .u64("workers", workers as u64)
        .u64("sessions", agg.sessions)
        .u64("sessions_ok", agg.ok)
        .u64("fuel_exhausted", agg.fuel_exhausted)
        .u64("memory_limit", agg.memory_limit)
        .u64("compile_errors", agg.compile_errors)
        .u64("failed", agg.failed)
        .u64("suspended", agg.suspended)
        .u64("resumes", agg.resumes)
        .u64("evicted", agg.evicted)
        .u64("parked", ctx.parked.load(Ordering::Relaxed))
        .u64("parked_words", ctx.parked_words.load(Ordering::Relaxed))
        .u64("rejected", ctx.rejected.load(Ordering::Relaxed))
        .u64("inflight", ctx.inflight.load(Ordering::Relaxed))
        .u64("leaked_blocks", agg.leaked_blocks)
        .u64("reclaimed_blocks", agg.reclaimed_blocks)
        .u64("audit_failures", agg.audit_failures)
        .u64("shared_ref_drift", agg.shared_ref_drift)
        .u64("cache_programs", programs as u64)
        .u64("cache_hits", hits)
        .u64("cache_misses", misses)
        .u64("cache_evictions", evictions)
        .u64("shared_inputs", inputs as u64)
        .u64("shared_live_blocks", shared_live)
        .u64("shared_baseline_blocks", shared_baseline)
        .u64("atomic_ops", agg.stats.atomic_ops)
        .bool("profiled", agg.profile.is_some())
        .raw("counters", &counters.finish())
        .finish()
}
