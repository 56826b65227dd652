//! The daemon: a TCP front end over a sharded pool of session workers.
//!
//! Architecture (see `docs/SERVING.md` for the full picture):
//!
//! ```text
//! client ──line──▶ connection reader ──Job──▶ worker shard queue (bounded)
//!    ▲                   │ control replies          │ session on recycled heap
//!    └──line──── Conn: write half + lock ◀──reply───┘
//! ```
//!
//! Each accepted connection gets one reader thread: it parses
//! newline-delimited requests, runs admission control and dispatches
//! to a worker shard round-robin. A reply takes no further hop: the
//! thread that produces it writes it to the socket itself, under the
//! connection's [`Conn`] lock — the worker that ran the session, or the
//! reader for control ops and errors. Workers on different shards
//! finish out of order, which is why responses carry the client's `id`.
//! Admission control is two gates: a global in-flight cap, and the
//! bounded per-shard queue — when every shard's queue is full the
//! session is turned away immediately with `outcome: "busy"` (transient
//! backpressure, retry after backoff; `"rejected"` is reserved for
//! permanently unservable requests) instead of queuing without bound,
//! so an overloaded server degrades by fast refusal rather than by
//! latency collapse.

use crate::cache::{ProgramCache, SharedInputs};
use crate::json::ObjBuilder;
use crate::protocol::{self, Outcome, ParseError, Request, DEFAULT_FUEL, DEFAULT_MEMORY_WORDS};
use crate::relock;
use crate::worker::{worker_loop, Aggregate, Job, ResumeJob, RunJob, ServeCtx};
use perceus_bench::counters::counter_values;
use perceus_bench::COUNTER_KEYS;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
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

/// How long one reply write may wait for the client to make room. A
/// write that times out or fails marks its connection dead ([`Conn`]):
/// both halves shut down, and later replies to it are dropped unwritten
/// (their sessions still run and still return the in-flight gauge to
/// zero). This bounds a client that pipelines requests and never reads,
/// which would otherwise hold a worker in a blocked write forever.
///
/// The value is safe because a client that keeps reading never waits
/// here: a socket buffer holds hundreds of kilobytes of replies, and
/// the CI loadtest (10 connections × window 20), perfbench and every
/// test keep far fewer than that unread.
pub const REPLY_WRITE_TIMEOUT: Duration = Duration::from_millis(250);

/// The write half of one client connection, shared by every thread that
/// answers on it: the connection's reader (control ops and errors) and
/// each worker running one of its sessions. The lock makes every reply
/// one uninterrupted `write_all`, so lines never interleave. When the
/// last holder drops it the write half shuts down, and the client reads
/// EOF after its last reply.
pub struct Conn {
    /// `None` once a write failed or timed out: the connection is dead.
    out: Mutex<Option<TcpStream>>,
    /// Where a killed connection is counted
    /// ([`ServeCtx::reply_write_timeouts`]).
    ctx: Arc<ServeCtx>,
}

impl Conn {
    /// Wraps a connection's write half (a clone of the accepted socket).
    pub fn new(out: TcpStream, ctx: Arc<ServeCtx>) -> Self {
        Conn {
            out: Mutex::new(Some(out)),
            ctx,
        }
    }

    /// Writes one reply line; the `\n` is added here so line and
    /// terminator go out in one write. On a dead connection the line is
    /// dropped; a failed write kills the connection.
    pub fn send(&self, mut line: String) {
        let mut out = relock(&self.out);
        let Some(stream) = out.as_mut() else {
            return;
        };
        line.push('\n');
        if stream.write_all(line.as_bytes()).is_err() {
            // Shutting the read half down too ends the reader with EOF.
            let _ = stream.shutdown(Shutdown::Both);
            *out = None;
            self.ctx
                .reply_write_timeouts
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        let out = self.out.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let Some(stream) = out {
            let _ = stream.shutdown(Shutdown::Write);
        }
    }
}

/// A running daemon.
pub struct ServerHandle {
    addr: SocketAddr,
    /// Where a connect wakes the acceptor (see [`wake_addr`]).
    wake: SocketAddr,
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
        raise_shutdown(&self.shutdown, self.wake);
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
    /// command keeps the daemon alive for its whole service life. Every
    /// daemon thread runs until the flag rises, so joining them is the
    /// wait.
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The address that reaches a listener bound to `addr`: itself, or
/// loopback on the bound port when `addr` is unspecified (`0.0.0.0`,
/// `::`).
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip: IpAddr = match addr.ip() {
        ip if !ip.is_unspecified() => ip,
        IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
        IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
    };
    SocketAddr::new(ip, addr.port())
}

/// Raises the shutdown flag, then wakes this daemon's acceptor — it
/// blocks in `accept` — with a connection to its own listener. A
/// refused connect means the acceptor is gone already.
fn raise_shutdown(flag: &AtomicBool, wake: SocketAddr) {
    flag.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(wake);
}

/// What the acceptor and every connection reader share.
struct Front {
    ctx: Arc<ServeCtx>,
    shutdown: Arc<AtomicBool>,
    /// Where a connect wakes the acceptor.
    wake: SocketAddr,
    shards: Vec<SyncSender<Job>>,
    next_shard: AtomicUsize,
    max_inflight: u64,
    workers: usize,
}

/// Starts the daemon: binds, spawns the worker pool and the acceptor,
/// returns immediately.
pub fn start(config: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let wake = wake_addr(addr);

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
        reply_write_timeouts: AtomicU64::new(0),
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

    let front = Arc::new(Front {
        ctx: Arc::clone(&ctx),
        shutdown: Arc::clone(&shutdown),
        wake,
        shards,
        next_shard: AtomicUsize::new(0),
        max_inflight: config.max_inflight,
        workers: config.workers,
    });
    threads.push(std::thread::spawn(move || {
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        for stream in listener.incoming() {
            // Whatever woke us, the flag decides: the shutdown wake-up
            // connection is dropped unanswered.
            if front.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else {
                break;
            };
            let front = Arc::clone(&front);
            conns.push(std::thread::spawn(move || connection(stream, &front)));
            conns.retain(|c| !c.is_finished());
        }
        drop(listener); // later wake-ups are refused, not queued
        for c in conns {
            let _ = c.join();
        }
    }));

    Ok(ServerHandle {
        addr,
        wake,
        ctx,
        shutdown,
        threads,
    })
}

/// One client connection's reader. Replies go out through the shared
/// [`Conn`], written by whichever thread produced them.
fn connection(stream: TcpStream, front: &Front) {
    // A reply is one small segment the client is waiting for: send it
    // at once. Held back by Nagle's algorithm, a reply written in two
    // pieces waits for the client's delayed ACK of the first (~40 ms).
    let _ = stream.set_nodelay(true);
    // Socket options are per socket, so the write half shares it.
    let _ = stream.set_write_timeout(Some(REPLY_WRITE_TIMEOUT));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(Conn::new(write_half, Arc::clone(&front.ctx)));

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
    'conn: while !front.shutdown.load(Ordering::Relaxed) {
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
            if !dispatch(trimmed, front, &conn) {
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
        conn.send(protocol::protocol_error(
            "request-too-large",
            &format!("request line longer than {MAX_REQUEST_BYTES} bytes; closing the connection"),
        ));
    }
}

/// Handles one request line on a connection. Returns `false` when the
/// client asked the daemon to shut down (the connection stops reading).
fn dispatch(trimmed: &str, front: &Front, conn: &Arc<Conn>) -> bool {
    let ctx = &front.ctx;
    let shards = &front.shards;
    match protocol::parse_request(trimmed) {
        Err(ParseError::Bad(e)) => {
            conn.send(protocol::protocol_error("bad-request", &e));
        }
        Err(ParseError::Version { got, id }) => {
            conn.send(protocol::version_error(got, id));
        }
        Ok(Request::Health) => {
            conn.send(
                protocol::response()
                    .bool("ok", true)
                    .u64("workers", front.workers as u64)
                    .u64("inflight", ctx.inflight.load(Ordering::Relaxed))
                    .finish(),
            );
        }
        Ok(Request::Stats) => {
            conn.send(render_stats(ctx, front.workers));
        }
        Ok(Request::Shutdown) => {
            conn.send(protocol::response().bool("ok", true).finish());
            raise_shutdown(&front.shutdown, front.wake);
            return false;
        }
        Ok(Request::Run(req)) => {
            // Gate 1: the global in-flight cap. Backpressure is
            // `busy` — transient by definition — never `rejected`,
            // which is reserved for requests that can *never* succeed.
            if ctx.inflight.fetch_add(1, Ordering::Relaxed) >= front.max_inflight {
                ctx.inflight.fetch_sub(1, Ordering::Relaxed);
                ctx.rejected.fetch_add(1, Ordering::Relaxed);
                conn.send(protocol::error_response(
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
                reply: Arc::clone(conn),
            });
            let start = front.next_shard.fetch_add(1, Ordering::Relaxed);
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
                conn.send(protocol::error_response(
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
                conn.send(protocol::error_response(
                    req.id,
                    Outcome::Rejected,
                    "no-such-session",
                    &format!("session token {} names no worker shard", req.session),
                ));
                return true;
            }
            if ctx.inflight.fetch_add(1, Ordering::Relaxed) >= front.max_inflight {
                ctx.inflight.fetch_sub(1, Ordering::Relaxed);
                ctx.rejected.fetch_add(1, Ordering::Relaxed);
                conn.send(protocol::error_response(
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
                reply: Arc::clone(conn),
            });
            match shards[shard_idx].try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                    ctx.inflight.fetch_sub(1, Ordering::Relaxed);
                    ctx.rejected.fetch_add(1, Ordering::Relaxed);
                    conn.send(protocol::error_response(
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
        .u64(
            "reply_write_timeouts",
            ctx.reply_write_timeouts.load(Ordering::Relaxed),
        )
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
