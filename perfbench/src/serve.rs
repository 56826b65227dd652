//! `serve-warm` and `serve-cold`: an in-process daemon driven over TCP.
//!
//! Both send the same mix at n = 8 (≈ 1 k machine steps a session), so
//! the daemon's own work — request parse, queue, cache, heap reset,
//! audit, 18-counter encode, the wire — dominates, not execution.
//! `serve-warm` reads the program cache (every session hits);
//! `serve-cold` writes it (every session carries a unique inline source,
//! misses, compiles, inserts and past capacity evicts).
//!
//! Loops. Independent tenants arrive whether or not the daemon keeps
//! up, so latency is measured in an **open loop**: requests are due at
//! fixed times, latency runs from the due time, and the generator's own
//! lateness is reported. Capacity is measured in a **closed loop**
//! (each connection keeps a window of requests outstanding), because
//! sessions per second under saturation is the one serve number that
//! repeats within a few percent. `serve-cold` is closed throughout: its
//! sessions cost a compile each, so its capacity is the question.

use crate::expected::Expected;
use crate::heapops::{self, min_of_batches, BATCHES};
use crate::report::Outcome;
use crate::stats::{median, percentile, summarize};
use crate::trace::Trace;
use crate::{timed_setup, Args};
use perceus_runtime::{Heap, ReclaimMode};
use perceus_serve::json::{self, Json};
use perceus_serve::protocol::{self, Request};
use perceus_serve::worker::run_session;
use perceus_serve::{loadtest, start, ProgramCache, ServeConfig, ServerHandle};
use perceus_suite::workload;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::linux::net::TcpStreamExt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub const WARM: &str = "serve-warm";
pub const COLD: &str = "serve-cold";

/// The session mix: the default mix of `perceus-serve loadtest`.
pub const MIX: [&str; 6] = ["map", "rbtree", "msort", "queue", "deriv", "tmap"];
/// Problem size of every session.
pub const N: i64 = 8;
/// Client connections, one load-generator thread each.
pub const CONNECTIONS: usize = 2;
/// Daemon worker shards.
const WORKERS: usize = 2;
/// Requests each connection keeps outstanding in a closed loop.
const WARM_WINDOW: usize = 4;
const COLD_WINDOW: usize = 1;

/// Open-loop rungs in sessions per second, frozen at definition time
/// at 50/63/77/90/103 % of the ≈ 15 000 sessions/s the daemon sustained
/// then (README.md records the measurement): the first rung is where
/// the end-to-end latency is read, so it sits well under capacity; the
/// last sits just over it, so a faster daemon has a rung to gain. Fixed
/// absolute rates keep the rungs comparable across commits: a faster
/// daemon shows as lower latency at the same rate, not as a moved rung.
pub const RUNG_RATES: [f64; 5] = [7500.0, 9500.0, 11500.0, 13500.0, 15500.0];
/// The latency limit on the tail percentile, frozen at definition time
/// at 3× the first rung's median (≈ 0.4 ms then).
pub const LATENCY_LIMIT_US: f64 = 1200.0;

/// SplitMix64: request `id`'s place in the mix is a pure function of
/// `(seed, id)`, so any thread can build any request.
fn mix_index(seed: u64, id: u64) -> usize {
    let mut z = seed
        .wrapping_add(id.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) % MIX.len() as u64) as usize
}

/// The inline source of a cold session: the program's text made unique
/// by a trailing comment, so no two sessions share a cache key.
pub fn cold_source(seed: u64, id: u64) -> String {
    let w = workload(MIX[mix_index(seed, id)]).expect("MIX names registered workloads");
    format!("{}\n// {seed}-{id}\n", w.source)
}

/// The request line of session `id`.
pub fn request_line(cold: bool, seed: u64, id: u64) -> String {
    let mut line = format!("{{\"op\":\"run\",\"v\":2,\"id\":{id},\"n\":{N},");
    if cold {
        line.push_str("\"source\":");
        json::push_str_lit(&mut line, &cold_source(seed, id));
    } else {
        line.push_str("\"workload\":");
        json::push_str_lit(&mut line, MIX[mix_index(seed, id)]);
    }
    line.push('}');
    line
}

/// What every load phase needs to know.
struct Plan<'a> {
    addr: SocketAddr,
    cold: bool,
    seed: u64,
    /// Reference value of each mix program at [`N`].
    expected: &'a [String; MIX.len()],
    /// Keep per-request intervals for the trace.
    traced: bool,
    /// Source of session ids, unique for the daemon's life (a cold
    /// source is unique because its id is).
    ids: &'a AtomicU64,
}

/// What one connection saw in one phase.
#[derive(Default)]
struct Seen {
    sent: u64,
    ok: u64,
    busy_retries: u64,
    leaked_blocks: u64,
    audit_failures: u64,
    failures: Vec<String>,
    /// Client latency of each answered session, µs.
    latency_us: Vec<f64>,
    /// The service time each reply reports (`micros`), when traced.
    service_us: Vec<f64>,
    /// `(id, from, to)` of each answered session, when traced.
    intervals: Vec<(u64, Instant, Instant)>,
}

impl Seen {
    /// Folds in what another connection of the same phase saw.
    fn merge(&mut self, o: Seen) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.busy_retries += o.busy_retries;
        self.leaked_blocks += o.leaked_blocks;
        self.audit_failures += o.audit_failures;
        self.failures.extend(o.failures);
        self.latency_us.extend(o.latency_us);
        self.service_us.extend(o.service_us);
        self.intervals.extend(o.intervals);
    }

    /// Folds the phase into the run's outcome: every session sent was
    /// attempted; every one not answered `ok`, clean and right failed.
    fn account(&self, out: &mut Outcome) {
        out.attempted += self.sent;
        for f in &self.failures {
            out.fail(f.clone());
        }
    }

    /// Adds this phase's sessions to the trace: a `serve.request` span
    /// from due/send time to reply, with the worker's reported service
    /// time as its child, so the request's self time is queue + wire.
    fn record(&self, trace: &mut Trace) {
        for (&(id, from, to), &service) in self.intervals.iter().zip(&self.service_us) {
            let parent = trace.record_at("serve.request", from, to, None, id);
            let service = Duration::from_nanos((service * 1e3) as u64);
            let begin = to.checked_sub(service).unwrap_or(from).max(from);
            trace.record_at("serve.worker.service", begin, to, parent, id);
        }
    }
}

/// The receiving half of a connection: reads reply lines, and
/// acknowledges every segment the moment it arrives.
///
/// The daemon writes a reply as two small writes (the line, then the
/// newline) on a socket without `TCP_NODELAY`, so the newline waits for
/// the line to be acknowledged. A client that delays that ACK the usual
/// 40–200 ms caps a closed loop at window ÷ 40 ms (215 sessions/s
/// measured here, against ~9 000 without the stall) and makes open-loop
/// latency track the *client's* send period. Setting `TCP_QUICKACK`
/// while an ACK is pending sends it at once; the flag does not stick,
/// so it is set after every `read`. With it the benchmark measures the
/// daemon rather than the kernel's ACK timer; README.md records the
/// finding.
struct Replies {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Replies {
    fn line(&mut self) -> Result<String, String> {
        loop {
            if let Some(nl) = self.buf.iter().position(|b| *b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=nl).collect();
                return Ok(String::from_utf8_lossy(&line).trim().to_string());
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(format!("recv: {e}")),
            }
            self.stream
                .set_quickack(true)
                .map_err(|e| format!("TCP_QUICKACK: {e}"))?;
        }
    }
}

fn connect(addr: SocketAddr) -> Result<(TcpStream, Replies), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    // A request is one small write; it must not wait for the previous
    // one to be acknowledged.
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .map_err(|e| e.to_string())?;
    let replies = Replies {
        stream: stream.try_clone().map_err(|e| e.to_string())?,
        buf: Vec::new(),
    };
    Ok((stream, replies))
}

fn send(stream: &mut TcpStream, line: &str) -> Result<(), String> {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))
}

/// Reads one reply and checks it. Returns the session id and whether
/// the daemon turned it away as busy.
fn read_reply(
    reader: &mut Replies,
    plan: &Plan<'_>,
    seen: &mut Seen,
) -> Result<(u64, bool), String> {
    let resp = json::parse(&reader.line()?)?;
    let id = resp
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("reply without id")?;
    let outcome = resp.get("outcome").and_then(Json::as_str).unwrap_or("?");
    if outcome == "busy" {
        return Ok((id, true));
    }
    let want = &plan.expected[mix_index(plan.seed, id)];
    let leaked = resp.get("leaked_blocks").and_then(Json::as_u64);
    let audit_ok = resp.get("audit_ok").and_then(Json::as_bool) == Some(true);
    let value = resp.get("value").and_then(Json::as_str);
    seen.leaked_blocks += leaked.unwrap_or(0);
    seen.audit_failures += u64::from(!audit_ok);
    if plan.traced {
        seen.service_us.push(
            resp.get("micros")
                .and_then(Json::as_u64)
                .map_or(0.0, |m| m as f64),
        );
    }
    if outcome == "ok" && leaked == Some(0) && audit_ok && value == Some(want) {
        seen.ok += 1;
    } else {
        seen.failures.push(format!(
            "session {id}: outcome {outcome}, value {value:?} (want {want}), \
             leaked {leaked:?}, audit_ok {audit_ok}"
        ));
    }
    Ok((id, false))
}

/// One connection of a closed loop: keeps `window` sessions outstanding
/// until `seconds` have passed, then collects what is still in flight.
fn closed_connection(plan: &Plan<'_>, window: usize, seconds: f64) -> Result<Seen, String> {
    let (mut stream, mut reader) = connect(plan.addr)?;
    let mut seen = Seen::default();
    let mut sent_at: HashMap<u64, Instant> = HashMap::new();
    let start = Instant::now();
    let launch = |stream: &mut TcpStream,
                  sent_at: &mut HashMap<u64, Instant>,
                  seen: &mut Seen|
     -> Result<(), String> {
        let id = plan.ids.fetch_add(1, Ordering::Relaxed);
        let line = request_line(plan.cold, plan.seed, id);
        sent_at.insert(id, Instant::now());
        seen.sent += 1;
        send(stream, &line)
    };
    for _ in 0..window {
        launch(&mut stream, &mut sent_at, &mut seen)?;
    }
    while !sent_at.is_empty() {
        let (id, busy) = read_reply(&mut reader, plan, &mut seen)?;
        let now = Instant::now();
        let from = sent_at
            .remove(&id)
            .ok_or(format!("reply for unknown id {id}"))?;
        if busy {
            // Turned away, not failed: back off and send it again.
            seen.busy_retries += 1;
            std::thread::sleep(Duration::from_millis(2));
            sent_at.insert(id, from);
            send(&mut stream, &request_line(plan.cold, plan.seed, id))?;
            continue;
        }
        seen.latency_us.push((now - from).as_secs_f64() * 1e6);
        if plan.traced {
            seen.intervals.push((id, from, now));
        }
        if start.elapsed().as_secs_f64() < seconds {
            launch(&mut stream, &mut sent_at, &mut seen)?;
        }
    }
    Ok(seen)
}

/// A closed loop over all connections. Returns what was seen and the
/// sessions answered per second.
fn closed_loop(plan: &Plan<'_>, window: usize, seconds: f64) -> Result<(Seen, f64), String> {
    let start = Instant::now();
    let seen = std::thread::scope(|s| {
        let conns: Vec<_> = (0..CONNECTIONS)
            .map(|_| s.spawn(|| closed_connection(plan, window, seconds)))
            .collect();
        let mut all = Seen::default();
        for c in conns {
            all.merge(c.join().map_err(|_| "load thread panicked")??);
        }
        Ok::<_, String>(all)
    })?;
    let rate = seen.latency_us.len() as f64 / start.elapsed().as_secs_f64();
    Ok((seen, rate))
}

/// When request `k` of an open loop is due.
fn due(t0: Instant, k: u64, rate: f64) -> Instant {
    t0 + Duration::from_secs_f64(k as f64 / rate)
}

/// Latency of a request answered at `answered`, from its due time: a
/// stall delays every later request's *sending*, and timing from the
/// due time charges that wait to the daemon, not to the generator.
fn latency_from_due(t0: Instant, k: u64, rate: f64, answered: Instant) -> f64 {
    answered
        .saturating_duration_since(due(t0, k, rate))
        .as_secs_f64()
        * 1e6
}

/// One rung of the open loop.
struct Rung {
    seen: Seen,
    /// How late each request left the generator, µs.
    late_us: Vec<f64>,
    /// Requests unanswered when the last one was sent.
    backlog_end: u64,
}

/// An open loop at `rate` sessions per second for `seconds`: this
/// thread sends request `k` at its due time on connection `k mod 2`;
/// one thread per connection receives.
fn open_loop(plan: &Plan<'_>, rate: f64, seconds: f64) -> Result<Rung, String> {
    let total = (rate * seconds).floor().max(CONNECTIONS as f64) as u64;
    let base = plan.ids.fetch_add(total, Ordering::Relaxed);
    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        conns.push(connect(plan.addr)?);
    }
    let answered = AtomicU64::new(0);
    let t0 = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        let mut senders = Vec::new();
        let mut receivers = Vec::new();
        for (c, (stream, mut reader)) in conns.into_iter().enumerate() {
            senders.push(stream);
            let answered = &answered;
            let mine = (total + (CONNECTIONS - 1 - c) as u64) / CONNECTIONS as u64;
            receivers.push(s.spawn(move || -> Result<Seen, String> {
                let mut seen = Seen::default();
                for _ in 0..mine {
                    let (id, busy) = read_reply(&mut reader, plan, &mut seen)?;
                    let now = Instant::now();
                    answered.fetch_add(1, Ordering::Relaxed);
                    if busy {
                        // An open loop does not retry: a refused
                        // request missed its limit.
                        seen.failures.push(format!("session {id}: refused busy"));
                        continue;
                    }
                    let k = id - base;
                    seen.latency_us.push(latency_from_due(t0, k, rate, now));
                    if plan.traced {
                        seen.intervals.push((id, due(t0, k, rate), now));
                    }
                }
                Ok(seen)
            }));
        }
        let mut late_us = Vec::with_capacity(total as usize);
        let mut sent = Ok(());
        for k in 0..total {
            let due = due(t0, k, rate);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            late_us.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
            let line = request_line(plan.cold, plan.seed, base + k);
            sent = send(&mut senders[k as usize % CONNECTIONS], &line);
            if sent.is_err() {
                break;
            }
        }
        let backlog_end = total - answered.load(Ordering::Relaxed);
        let mut seen = Seen {
            sent: total,
            ..Seen::default()
        };
        if sent.is_err() {
            // Unblock the receivers: they wait for replies to requests
            // that never left.
            for s in &senders {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
        for r in receivers {
            match r.join().map_err(|_| "load thread panicked")? {
                Ok(part) => seen.merge(part),
                Err(e) => sent = sent.and(Err(e)),
            }
        }
        sent?;
        Ok(Rung {
            seen,
            late_us,
            backlog_end,
        })
    })
}

impl Rung {
    /// A rung holds when its tail percentile meets the limit and the
    /// backlog at the end is no more than a queue that meets the limit
    /// would hold (Little's law) — i.e. it was not still growing.
    fn holds(&self, rate: f64) -> bool {
        let tail = summarize(&self.seen.latency_us).tail;
        self.seen.failures.is_empty()
            && tail <= LATENCY_LIMIT_US
            && self.backlog_end as f64 <= rate * LATENCY_LIMIT_US / 1e6
    }
}

/// The highest rate that holds with every lower rung holding too.
fn max_rate_ok(held: &[bool]) -> f64 {
    held.iter()
        .zip(RUNG_RATES)
        .take_while(|(ok, _)| **ok)
        .last()
        .map_or(0.0, |(_, r)| r)
}

struct Daemon {
    handle: ServerHandle,
    expected: [String; MIX.len()],
    ids: AtomicU64,
}

/// Starts the daemon and readies its cache: a warm daemon has compiled
/// every mix program once; a cold one has compiled one unique source.
fn setup(cold: bool, seed: u64) -> Result<Daemon, String> {
    let expected = Expected::load()?;
    let mut values = MIX.map(String::from);
    for v in &mut values {
        *v = expected.get(v, N)?.to_string();
    }
    let handle = start(ServeConfig {
        workers: WORKERS,
        // Deep enough that an overloaded rung queues instead of being
        // refused: overload must show as latency, not as failures.
        queue_depth: 8192,
        max_inflight: 16384,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("starting the daemon: {e}"))?;
    let daemon = Daemon {
        handle,
        expected: values,
        ids: AtomicU64::new(0),
    };
    let plan = daemon.plan(cold, seed, false);
    let (mut stream, mut reader) = connect(plan.addr)?;
    let mut seen = Seen::default();
    // Ids 0.. walk the mix until each program has been sent once.
    let mut warmed = [false; MIX.len()];
    while warmed.contains(&false) {
        let id = daemon.ids.fetch_add(1, Ordering::Relaxed);
        warmed[mix_index(seed, id)] = true;
        send(&mut stream, &request_line(cold, seed, id))?;
        read_reply(&mut reader, &plan, &mut seen)?;
        if cold {
            break;
        }
    }
    match seen.failures.first() {
        Some(f) => Err(format!("warming the daemon: {f}")),
        None => Ok(daemon),
    }
}

impl Daemon {
    fn plan(&self, cold: bool, seed: u64, traced: bool) -> Plan<'_> {
        Plan {
            addr: self.handle.addr(),
            cold,
            seed,
            expected: &self.expected,
            traced,
            ids: &self.ids,
        }
    }
}

pub fn run(cold: bool, args: &Args) -> Result<Outcome, String> {
    let name = if cold { COLD } else { WARM };
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < CONNECTIONS {
        eprintln!(
            "{name}: fewer cores than load-generator threads; latencies include their contention"
        );
    }
    let ready = timed_setup(|| setup(cold, args.seed), |d| d.handle.join())?;
    let daemon = ready.state;
    let mut out = Outcome::default();
    let result = if args.trace {
        traced(name, cold, &daemon, args, &mut out)
    } else {
        untraced(cold, &daemon, args, &mut out).map(|()| {
            out.put("setup_s", ready.setup_s, "s", ready.reps);
        })
    };
    daemon.handle.join();
    result.map(|()| out)
}

fn window(cold: bool) -> usize {
    if cold {
        COLD_WINDOW
    } else {
        WARM_WINDOW
    }
}

/// The end-to-end run: one closed loop for the whole window.
fn untraced(cold: bool, daemon: &Daemon, args: &Args, out: &mut Outcome) -> Result<(), String> {
    let plan = daemon.plan(cold, args.seed, false);
    // A short closed loop first: connections, threads and the workers'
    // heaps are warm before anything is timed.
    closed_loop(&plan, window(cold), 0.3)?.0.account(out);
    let (seen, rate) = closed_loop(&plan, window(cold), args.seconds)?;
    seen.account(out);
    let latency = summarize(&seen.latency_us);
    out.put("work_ms_p50", latency.p50 / 1e3, "ms", latency.n);
    out.put("ops_per_s", rate, "1/s", latency.n);
    Ok(())
}

/// The traced run: the layers called directly, the closed loop without
/// and with spans, and (warm) the open-loop ladder.
fn traced(
    name: &str,
    cold: bool,
    daemon: &Daemon,
    args: &Args,
    out: &mut Outcome,
) -> Result<(), String> {
    let whole = Instant::now();
    let mut trace = Trace::new(true);
    heapops::measure(out);
    direct_probes(cold, daemon, args.seed, out)?;
    let left = (args.seconds - whole.elapsed().as_secs_f64()).max(2.0);
    let quiet = daemon.plan(cold, args.seed, false);
    let loud = daemon.plan(cold, args.seed, true);

    // The closed loop of the end-to-end run, once without spans and
    // once with: their ratio is the tracing overhead. The ladder takes
    // two thirds of a warm run's window.
    let closed_s = if cold { left / 2.0 } else { left / 6.0 };
    let plain = closed_loop(&quiet, window(cold), closed_s)?.0;
    let mut phases = vec![closed_loop(&loud, window(cold), closed_s)?.0];
    let tail = summarize(&plain.latency_us);
    out.put("work_ms_tail", tail.tail / 1e3, "ms", tail.n);
    out.put(
        "trace_overhead_ratio",
        median(&phases[0].latency_us) / tail.p50,
        "ratio",
        phases[0].latency_us.len(),
    );

    if !cold {
        let each = left * 2.0 / 3.0 / RUNG_RATES.len() as f64;
        let mut held = Vec::new();
        let mut late_us = Vec::new();
        for (i, rate) in RUNG_RATES.into_iter().enumerate() {
            let rung = open_loop(&loud, rate, each)?;
            let lat = sorted(&rung.seen.latency_us);
            out.put(
                format!("serve.rung.{}.latency_p95_us", i + 1),
                percentile(&lat, 95.0),
                "us",
                lat.len(),
            );
            out.count(format!("serve.rung.{}.ok", i + 1), rung.seen.ok);
            held.push(rung.holds(rate));
            late_us.extend(rung.late_us);
            phases.push(rung.seen);
        }
        out.put(
            "serve.max_rate_ok_per_s",
            max_rate_ok(&held),
            "1/s",
            held.len(),
        );
        out.put(
            "serve.gen_late_p99_us",
            percentile(&sorted(&late_us), 99.0),
            "us",
            late_us.len(),
        );
    }
    plain.account(out);
    for phase in &phases {
        phase.account(out);
        phase.record(&mut trace);
    }

    // Latency as a tenant sees it: the first rung of the open loop when
    // there is one, the closed loop otherwise.
    let main = phases.get(1).unwrap_or(&phases[0]);
    let lat = sorted(&main.latency_us);
    out.put(
        "serve.latency_p50_us",
        percentile(&lat, 50.0),
        "us",
        lat.len(),
    );
    out.put(
        "serve.latency_p99_us",
        percentile(&lat, 99.0),
        "us",
        lat.len(),
    );
    out.put(
        "serve.latency_max_us",
        percentile(&lat, 100.0),
        "us",
        lat.len(),
    );
    out.put(
        "serve.worker.service_us_p50",
        median(&main.service_us),
        "us",
        main.service_us.len(),
    );
    // What a request does not spend in the worker — admission, the
    // shard queue, reply encoding, the wire — is its span's self time:
    // client latency minus the service time the reply reports.
    let wire: Vec<f64> = main
        .latency_us
        .iter()
        .zip(&main.service_us)
        .map(|(l, s)| (l - s).max(0.0))
        .collect();
    out.put("serve.queue_wire_us_p50", median(&wire), "us", wire.len());

    let total = |f: fn(&Seen) -> u64| f(&plain) + phases.iter().map(f).sum::<u64>();
    out.count("serve.sent", total(|s| s.sent));
    out.count("serve.ok", total(|s| s.ok));
    out.count("serve.busy_retries", total(|s| s.busy_retries));
    out.count("serve.leaked_blocks", total(|s| s.leaked_blocks));
    out.count("serve.audit_failures", total(|s| s.audit_failures));

    let stats = loadtest::final_stats(&daemon.handle.addr().to_string())?;
    let stat = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0);
    let (hits, misses) = (stat("cache_hits"), stat("cache_misses"));
    out.put(
        "serve.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        1,
    );
    out.count("serve.cache.evictions", stat("cache_evictions"));
    crate::write_trace(name, &trace)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The serve layers called directly, with no TCP or queue between:
/// request parsing, the program cache, and a whole session on a
/// worker's heap.
fn direct_probes(cold: bool, daemon: &Daemon, seed: u64, out: &mut Outcome) -> Result<(), String> {
    const REPS: usize = 200;
    let id = 1 << 40; // far from any id the load phases use
    let line = request_line(false, seed, id);
    out.put(
        "serve.json.parse_ns",
        min_of_batches(REPS, || {
            black_box(json::parse(black_box(&line)).is_ok());
        }),
        "ns",
        BATCHES,
    );
    out.put(
        "serve.protocol.parse_request_ns",
        min_of_batches(REPS, || {
            black_box(protocol::parse_request(black_box(&line)).is_ok());
        }),
        "ns",
        BATCHES,
    );

    let parse = |line: &str| match protocol::parse_request(line) {
        Ok(Request::Run(r)) => Ok(*r),
        other => Err(format!("request line did not parse as a run: {other:?}")),
    };
    // A cache of its own, so the daemon's hit ratio stays the traffic's.
    let cache = ProgramCache::new(256);
    let warm_req = parse(&line)?;
    cache.resolve(&warm_req).map_err(|e| e.to_string())?;
    out.put(
        "serve.cache.resolve_hit_ns",
        min_of_batches(REPS, || {
            black_box(cache.resolve(black_box(&warm_req)).is_ok());
        }),
        "ns",
        BATCHES,
    );
    if cold {
        let mut miss_us = Vec::new();
        for i in 0..60 {
            let req = parse(&request_line(true, seed, id + i))?;
            let t = Instant::now();
            let hit = cache.resolve(&req).map_err(|e| e.to_string())?.1;
            miss_us.push(t.elapsed().as_secs_f64() * 1e6);
            if hit {
                return Err("a unique source hit the cache".into());
            }
        }
        out.put(
            "serve.cache.resolve_miss_us",
            median(&miss_us),
            "us",
            miss_us.len(),
        );
    }

    // Whole sessions on a heap recycled between them, as a worker does.
    let ctx = daemon.handle.ctx();
    let mut heap = Heap::new(ReclaimMode::Rc);
    let mut session_us = Vec::new();
    for i in 0..(REPS as u64) {
        let req = parse(&request_line(cold, seed, id + 1000 + i))?;
        let t = Instant::now();
        let (h, reply) = run_session(heap, ctx, &req);
        session_us.push(t.elapsed().as_secs_f64() * 1e6);
        heap = h;
        let resp = json::parse(&reply)?;
        let want = &daemon.expected[mix_index(seed, req.id)];
        out.check(
            if resp.get("value").and_then(Json::as_str) == Some(want)
                && resp.get("audit_ok").and_then(Json::as_bool) == Some(true)
                && resp.get("leaked_blocks").and_then(Json::as_u64) == Some(0)
            {
                Ok(())
            } else {
                Err(format!("direct session {}: {reply}", req.id))
            },
        );
    }
    out.put(
        "serve.worker.run_session_us",
        median(&session_us),
        "us",
        session_us.len(),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_and_sources_are_reproducible_from_the_seed() {
        for id in [0, 1, 77, 1 << 33] {
            assert_eq!(request_line(false, 42, id), request_line(false, 42, id));
            assert_eq!(cold_source(42, id), cold_source(42, id));
        }
        // Another seed draws another mix; another id another source.
        assert!((0..64).any(|id| mix_index(1, id) != mix_index(2, id)));
        assert_ne!(cold_source(42, 5), cold_source(42, 6));
        assert!(cold_source(42, 5).ends_with("// 42-5\n"));
        // Every program of the mix is drawn.
        let mut drawn = [false; MIX.len()];
        (0..200).for_each(|id| drawn[mix_index(9, id)] = true);
        assert_eq!(drawn, [true; MIX.len()]);
    }

    #[test]
    fn request_lines_parse_as_the_daemon_parses_them() {
        let Ok(Request::Run(warm)) = protocol::parse_request(&request_line(false, 3, 10)) else {
            panic!("warm line must parse")
        };
        assert_eq!((warm.id, warm.n), (10, Some(N)));
        assert_eq!(warm.workload.as_deref(), Some(MIX[mix_index(3, 10)]));
        let Ok(Request::Run(cold)) = protocol::parse_request(&request_line(true, 3, 10)) else {
            panic!("cold line must parse")
        };
        assert_eq!(cold.source, Some(cold_source(3, 10)));
        assert!(cold.workload.is_none());
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        let t0 = Instant::now();
        // 100 requests a second: request 50 is due half a second in.
        assert_eq!(due(t0, 50, 100.0), t0 + Duration::from_millis(500));
        // Answered 3 ms after it was due — whenever it was really sent,
        // even if a stall held it back until 2 ms after its due time.
        let answered = t0 + Duration::from_millis(503);
        assert!((latency_from_due(t0, 50, 100.0, answered) - 3000.0).abs() < 1.0);
        // An answer cannot precede the due time; a clock quirk reads 0.
        assert_eq!(latency_from_due(t0, 50, 100.0, t0), 0.0);
    }

    #[test]
    fn a_rung_fails_on_its_tail_or_a_growing_backlog() {
        let rung = |latency: f64, backlog_end| Rung {
            seen: Seen {
                latency_us: vec![latency; 100],
                ..Seen::default()
            },
            late_us: Vec::new(),
            backlog_end,
        };
        assert!(rung(LATENCY_LIMIT_US, 0).holds(1000.0));
        assert!(!rung(LATENCY_LIMIT_US + 1.0, 0).holds(1000.0));
        // At 1000/s a queue that meets the limit holds at most
        // rate × limit requests.
        let cap = (1000.0 * LATENCY_LIMIT_US / 1e6) as u64;
        assert!(rung(100.0, cap).holds(1000.0));
        assert!(!rung(100.0, cap + 1).holds(1000.0));
        let mut refused = rung(100.0, 0);
        refused.seen.failures.push("refused".into());
        assert!(!refused.holds(1000.0));
    }

    #[test]
    fn max_rate_is_the_last_rung_of_an_unbroken_run() {
        assert_eq!(
            max_rate_ok(&[true, true, false, true, false]),
            RUNG_RATES[1]
        );
        assert_eq!(max_rate_ok(&[false, true, true, true, true]), 0.0);
        assert_eq!(max_rate_ok(&[true; 5]), RUNG_RATES[4]);
    }

    #[test]
    fn the_load_generator_is_two_connections_one_thread_each() {
        assert_eq!(CONNECTIONS, 2);
        assert!(RUNG_RATES.windows(2).all(|w| w[0] < w[1]));
    }
}
