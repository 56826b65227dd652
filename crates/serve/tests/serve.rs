//! End-to-end daemon tests: real TCP connections against an in-process
//! `perceus-serve`, covering the session lifecycle, heap recycling
//! across tenants, cross-session shared inputs, admission control, and
//! the loadtest drift gate against `BENCH_BASELINE.json`.

use perceus_lang::{MAX_DEPTH, MAX_NESTING};
use perceus_serve::json::{self, Json};
use perceus_serve::loadtest::{self, LoadConfig};
use perceus_serve::server::{
    start, ServeConfig, MAX_REQUEST_BYTES, REPLY_WRITE_TIMEOUT, WORKER_STACK,
};
use perceus_suite::{compile_borrowing, compile_workload, Strategy};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

fn server(configure: impl FnOnce(&mut ServeConfig)) -> perceus_serve::ServerHandle {
    let mut config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    configure(&mut config);
    start(config).expect("daemon binds")
}

/// Sends every line, then reads one response per line; `run` responses
/// are keyed by id, control responses by arrival order under keys
/// ≥ `CONTROL_BASE`.
const CONTROL_BASE: u64 = 1 << 60;

fn roundtrip(addr: std::net::SocketAddr, lines: &[String]) -> HashMap<u64, Json> {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut w = stream.try_clone().expect("clone");
    for line in lines {
        w.write_all(line.as_bytes()).unwrap();
        w.write_all(b"\n").unwrap();
    }
    let mut reader = BufReader::new(stream);
    let mut out = HashMap::new();
    let mut control = CONTROL_BASE;
    for _ in 0..lines.len() {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "early EOF");
        let v = json::parse(line.trim()).expect("valid response json");
        let key = v.get("id").and_then(Json::as_u64).unwrap_or_else(|| {
            control += 1;
            control
        });
        out.insert(key, v);
    }
    out
}

fn run_line(id: u64, workload: &str, extra: &str) -> String {
    format!(r#"{{"op":"run","id":{id},"workload":"{workload}"{extra}}}"#)
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.get(key)
        .unwrap_or_else(|| panic!("response missing {key}: {v:?}"))
}

#[test]
fn sessions_compile_once_and_run_correct() {
    let h = server(|_| {});
    // The first map session completes before the second is sent, so
    // the second is a guaranteed program-cache hit (two pipelined
    // misses may legitimately race and both compile).
    let mut rs = roundtrip(h.addr(), &[run_line(1, "map", "")]);
    rs.extend(roundtrip(
        h.addr(),
        &[run_line(2, "map", ""), run_line(3, "rbtree", "")],
    ));
    for id in [1, 2, 3] {
        assert_eq!(
            field(&rs[&id], "outcome").as_str(),
            Some("ok"),
            "{:?}",
            rs[&id]
        );
        assert_eq!(field(&rs[&id], "leaked_blocks").as_u64(), Some(0));
        assert_eq!(field(&rs[&id], "audit_ok").as_bool(), Some(true));
    }
    // map at its test size n=500: sum of 1..=500.
    assert_eq!(field(&rs[&1], "value").as_str(), Some("125250"));
    assert_eq!(field(&rs[&2], "value").as_str(), Some("125250"));
    assert_eq!(field(&rs[&1], "cached").as_bool(), Some(false));
    assert_eq!(field(&rs[&2], "cached").as_bool(), Some(true), "{rs:?}");
    h.join();
}

#[test]
fn starved_tenant_is_reclaimed_and_next_tenant_matches_baseline() {
    // One worker: the starved session and its successor share a heap.
    let h = server(|c| c.workers = 1);
    let starved = roundtrip(h.addr(), &[run_line(1, "rbtree", r#","fuel":2000"#)]);
    let r = &starved[&1];
    assert_eq!(field(r, "outcome").as_str(), Some("fuel-exhausted"));
    assert!(field(r, "reclaimed_blocks").as_u64().unwrap() > 0);
    assert_eq!(field(r, "audit_ok").as_bool(), Some(true));

    // The next tenant on the same (recycled) heap reproduces the
    // committed counter baseline exactly, minus the placement trio.
    let baseline_src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_BASELINE.json"
    ))
    .expect("baseline present");
    let baseline = perceus_bench::Baseline::parse_json(&baseline_src).unwrap();
    let row = baseline
        .workloads
        .iter()
        .find(|w| w.name == "rbtree")
        .unwrap();
    let after = roundtrip(h.addr(), &[run_line(2, "rbtree", "")]);
    let counters = field(&after[&2], "counters");
    for (key, expected) in &row.counters {
        if loadtest::PLACEMENT_COUNTERS.contains(&key.as_str()) {
            continue;
        }
        assert_eq!(
            counters.get(key).and_then(Json::as_u64),
            Some(*expected),
            "counter {key} drifted after a starved tenant"
        );
    }
    // And the recycling actually happened: the warm tenant found the
    // starved tenant's retired slots on the free lists.
    assert!(
        counters
            .get("freelist_hits")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    h.join();
}

#[test]
fn deep_recursion_trips_the_memory_limit_and_the_worker_survives() {
    // One worker: the next session must land on the same shard.
    let h = server(|c| c.workers = 1);
    // Ten million pending frames and not one heap block: the limit has
    // to meter the pending calls, or the worker grows by hundreds of MB
    // and answers `ok`.
    let deep = r#"{"op":"run","id":1,"n":10000000,"memory":1000,"source":"fun f(n: int): int { if n == 0 then 0 else 1 + f(n - 1) }\nfun main(n: int): int { f(n) }"}"#;
    let rs = roundtrip(h.addr(), &[deep.to_string()]);
    let r = &rs[&1];
    assert_eq!(field(r, "outcome").as_str(), Some("memory-limit"), "{r:?}");
    assert_eq!(field(r, "code").as_str(), Some("memory-limit"), "{r:?}");
    assert_eq!(field(r, "audit_ok").as_bool(), Some(true));

    let next = roundtrip(h.addr(), &[run_line(2, "map", "")]);
    assert_eq!(field(&next[&2], "outcome").as_str(), Some("ok"), "{next:?}");
    assert_eq!(field(&next[&2], "value").as_str(), Some("125250"));
    assert_eq!(field(&next[&2], "leaked_blocks").as_u64(), Some(0));
    h.join();
}

/// A JSON string literal holding `text`.
fn json_str(text: &str) -> String {
    format!(
        "\"{}\"",
        text.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    )
}

/// `fun main(n: int): int { (((… n …))) }`, `parens` deep.
fn parenthesized(parens: usize) -> String {
    format!(
        "fun main(n: int): int {{ {}n{} }}",
        "(".repeat(parens),
        ")".repeat(parens)
    )
}

/// `val x{i} = x{i-1} + 1`, `lets` times, in `fun name(n: int): int`.
fn let_chain(name: &str, lets: usize) -> String {
    let mut s = format!("fun {name}(n: int): int {{\n  val x0 = n\n");
    for i in 1..=lets {
        s.push_str(&format!("  val x{i} = x{} + 1\n", i - 1));
    }
    s + &format!("  x{lets}\n}}\n")
}

/// A source at both nesting limits: an expression tree `MAX_NESTING`
/// deep, a body whose lowered form is `MAX_DEPTH` deep, and one as deep
/// whose every statement dups a list, so insertion makes it deeper
/// still. Every stage of every daemon build (front end, passes, both
/// checks, lowering to `Code`) compiles it on half a worker's stack, in
/// whichever build the test runs: a debug build needs 2–4 MiB.
#[test]
fn a_source_at_both_limits_compiles_on_half_a_worker_stack() {
    let sums = MAX_NESTING - 2; // the block, the sums and `n`
    let lets = MAX_DEPTH - 3; // x0, the lets, and the last right-hand side
    let mut src = String::from("type list<a> { Nil; Cons(head: a, tail: list<a>) }\n");
    src += &format!(
        "fun nest(n: int): int {{ {}n{} }}\n",
        "1 + (".repeat(sums),
        ")".repeat(sums)
    );
    src += &let_chain("long", lets);
    src += "fun len(l: list<int>): int { match l { Cons(_, t) -> 1 + len(t)\n Nil -> 0 } }\n";
    // Here the last right-hand side, `x + len(l)`, ends three levels down.
    src += "fun shared(l: list<int>): int {\n  val x0 = 0\n";
    for i in 1..lets {
        src += &format!("  val x{i} = x{} + len(l)\n", i - 1);
    }
    src += &format!("  x{}\n}}\n", lets - 1);
    src += "fun main(n: int): int { nest(n) + long(n) + shared(Cons(n, Nil)) }\n";
    std::thread::Builder::new()
        .stack_size(WORKER_STACK / 2)
        .spawn(move || {
            let lowered = perceus_lang::compile_str(&src).unwrap();
            for name in ["long", "shared"] {
                let f = lowered.find_fun(name).unwrap();
                assert_eq!(lowered.fun(f).body.depth(), MAX_DEPTH, "{name}");
            }
            for s in [Strategy::Perceus, Strategy::PerceusNoOpt, Strategy::Scoped] {
                compile_workload(&src, s).unwrap_or_else(|e| panic!("{}: {e}", s.label()));
            }
            compile_borrowing(&src).unwrap();
        })
        .unwrap()
        .join()
        .expect("compiles within half a worker stack");
}

/// Two sources that each overflowed a 2 MiB worker: 1 000 parentheses,
/// and 700 statements. Each is refused as `source-too-deep`, and the
/// shard's next session is served.
#[test]
fn sources_past_the_nesting_limits_are_refused_and_the_worker_survives() {
    let h = server(|c| c.workers = 1);
    let run = |id: u64, src: &str| {
        format!(
            r#"{{"op":"run","id":{id},"n":3,"source":{}}}"#,
            json_str(src)
        )
    };
    let chain = let_chain("main", 700);
    let rs = roundtrip(h.addr(), &[run(1, &parenthesized(1_000)), run(2, &chain)]);
    for id in [1, 2] {
        let r = &rs[&id];
        assert_eq!(field(r, "outcome").as_str(), Some("compile-error"), "{r:?}");
        assert_eq!(field(r, "code").as_str(), Some("source-too-deep"), "{r:?}");
    }
    let next = roundtrip(h.addr(), &[run(3, &let_chain("main", 300))]);
    assert_eq!(field(&next[&3], "outcome").as_str(), Some("ok"), "{next:?}");
    assert_eq!(field(&next[&3], "value").as_str(), Some("303"));
    h.join();
}

/// `n` functions whose calls form a heap-shaped DAG — `f{i}` calls
/// `f{2i+1}` and `f{2i+2}` — declared in the order `i * 7 mod n`, so
/// most callees come after their callers; `main(n)` is `n` times `n`.
fn heap_dag(n: usize) -> String {
    let mut s = String::new();
    for k in 0..n {
        let i = k * 7 % n;
        let mut body = String::from("x");
        for j in [2 * i + 1, 2 * i + 2].into_iter().filter(|&j| j < n) {
            body += &format!(" + f{j}(x)");
        }
        s += &format!("fun f{i}(x: int): int {{ {body} }}\n");
    }
    s + "fun main(n: int): int { f0(n) }\n"
}

/// Sources that call functions declared after them compile. The type
/// checker used to order call-graph components with a comparison sort
/// that is not a total order: it refused the four-function source with
/// "unbound variable `c`", and on the 40-function one the sort panicked
/// and took the shard's worker with it.
#[test]
fn sources_calling_later_declared_functions_answer_ok() {
    let h = server(|c| c.workers = 1);
    let run = |id: u64, src: &str| {
        format!(
            r#"{{"op":"run","id":{id},"n":3,"source":{}}}"#,
            json_str(src)
        )
    };
    let four = "fun a(x: int): int { c(x) }\nfun b(x: int): int { x }\n\
                fun c(x: int): int { x + 1 }\nfun main(n: int): int { a(n) + b(n) }\n";
    let rs = roundtrip(h.addr(), &[run(1, &heap_dag(40)), run(2, four)]);
    for (id, value) in [(1, "120"), (2, "7")] {
        let r = &rs[&id];
        assert_eq!(field(r, "outcome").as_str(), Some("ok"), "{r:?}");
        assert_eq!(field(r, "value").as_str(), Some(value), "{r:?}");
    }
    let next = roundtrip(h.addr(), &[run_line(3, "map", "")]);
    assert_eq!(field(&next[&3], "outcome").as_str(), Some("ok"), "{next:?}");
    h.join();
}

#[test]
fn shared_inputs_are_frozen_once_and_isolated() {
    let h = server(|_| {});
    let rs = roundtrip(
        h.addr(),
        &[
            run_line(1, "map", r#","shared":true"#),
            run_line(2, "map", r#","shared":true"#),
            run_line(3, "refs", r#","shared":true"#),
            run_line(4, "refs", r#","shared":true"#),
        ],
    );
    for id in [1, 2, 3, 4] {
        assert_eq!(
            field(&rs[&id], "outcome").as_str(),
            Some("ok"),
            "{:?}",
            rs[&id]
        );
        assert_eq!(field(&rs[&id], "shared").as_bool(), Some(true));
        assert_eq!(field(&rs[&id], "leaked_blocks").as_u64(), Some(0));
    }
    // Isolation: sessions over the same frozen input agree exactly —
    // nothing one session did (all its work is private-heap) is
    // observable to the other, and the input itself is immutable by
    // the share barrier's construction.
    assert_eq!(
        field(&rs[&1], "value").as_str(),
        field(&rs[&2], "value").as_str()
    );
    assert_eq!(
        field(&rs[&3], "value").as_str(),
        field(&rs[&4], "value").as_str()
    );

    // The segments drained back to their freeze-time baseline: every
    // session returned exactly the reference it minted.
    let stats = roundtrip(h.addr(), &[r#"{"op":"stats"}"#.to_string()]);
    let stats = &stats[&(CONTROL_BASE + 1)];
    assert_eq!(field(stats, "shared_inputs").as_u64(), Some(2));
    assert_eq!(
        field(stats, "shared_live_blocks").as_u64(),
        field(stats, "shared_baseline_blocks").as_u64()
    );
    assert_eq!(field(stats, "leaked_blocks").as_u64(), Some(0));
    assert_eq!(field(stats, "audit_failures").as_u64(), Some(0));
    h.join();
}

#[test]
fn admission_control_turns_away_at_capacity_as_busy() {
    let h = server(|c| c.max_inflight = 0);
    let rs = roundtrip(h.addr(), &[run_line(1, "map", "")]);
    // Capacity is transient backpressure: the client may retry.
    assert_eq!(field(&rs[&1], "outcome").as_str(), Some("busy"));
    let stats = roundtrip(h.addr(), &[r#"{"op":"stats"}"#.to_string()]);
    assert_eq!(
        field(&stats[&(CONTROL_BASE + 1)], "rejected").as_u64(),
        Some(1)
    );
    h.join();
}

#[test]
fn permanently_unservable_requests_are_rejected_not_busy() {
    let h = server(|_| {});
    // A non-garbage-free strategy can never be served: retrying is
    // pointless, so the outcome must be the terminal "rejected", not
    // the retryable "busy".
    let rs = roundtrip(
        h.addr(),
        &[run_line(1, "map", r#","strategy":"tracing-gc""#)],
    );
    assert_eq!(
        field(&rs[&1], "outcome").as_str(),
        Some("rejected"),
        "{:?}",
        rs[&1]
    );
    h.join();
}

#[test]
fn slow_clients_survive_read_timeouts_mid_line() {
    let h = server(|_| {});
    let mut stream = TcpStream::connect(h.addr()).expect("connect");
    let line = run_line(5, "map", "");
    let (head, tail) = line.as_bytes().split_at(line.len() / 2);
    // Stall longer than the server's 100ms read-poll interval with a
    // request line half-written: the reader must keep the partial
    // bytes intact across the timeout.
    stream.write_all(head).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(350));
    stream.write_all(tail).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    assert!(reader.read_line(&mut resp).unwrap() > 0, "early EOF");
    let v = json::parse(resp.trim()).expect("valid response json");
    assert_eq!(field(&v, "id").as_u64(), Some(5));
    assert_eq!(field(&v, "outcome").as_str(), Some("ok"), "{v:?}");
    h.join();
}

/// A client that waits for each reply before it sends the next request
/// — with no socket options, so its kernel delays ACKs — must not be
/// paced by them. A reply sent as two writes on a Nagle socket holds
/// the second until the first is ACKed, ~40 ms later: 2 s for these 50.
#[test]
fn sequential_round_trips_are_not_paced_by_delayed_acks() {
    let h = server(|_| {});
    let stream = TcpStream::connect(h.addr()).expect("connect");
    let mut w = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let start = std::time::Instant::now();
    for _ in 0..50 {
        w.write_all(b"{\"op\":\"health\"}\n").unwrap();
        let mut resp = String::new();
        assert!(reader.read_line(&mut resp).unwrap() > 0, "early EOF");
        let v = json::parse(resp.trim()).expect("valid response json");
        assert_eq!(field(&v, "ok").as_bool(), Some(true), "{v:?}");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(1000),
        "50 round trips took {elapsed:?}"
    );
    drop(w);
    drop(reader);
    h.join();
}

#[test]
fn wait_parks_until_a_client_requests_shutdown() {
    let h = server(|_| {});
    let addr = h.addr();
    let driver = std::thread::spawn(move || {
        // If wait() returned on its own (the old join() behaviour shut
        // the daemon down ~immediately), this session would fail to
        // connect or get no reply — failing the test from this thread.
        std::thread::sleep(std::time::Duration::from_millis(200));
        let rs = roundtrip(addr, &[run_line(1, "map", "")]);
        assert_eq!(field(&rs[&1], "outcome").as_str(), Some("ok"));
        let _ = roundtrip(addr, &[r#"{"op":"shutdown"}"#.to_string()]);
    });
    // Parks until the driver's shutdown request raises the flag.
    h.wait();
    driver.join().expect("driver thread succeeds");
}

#[test]
fn health_shutdown_and_bad_requests() {
    let h = server(|_| {});
    let rs = roundtrip(
        h.addr(),
        &[
            r#"{"op":"health"}"#.to_string(),
            "this is not json".to_string(),
            r#"{"op":"run","id":9,"workload":"no-such-workload"}"#.to_string(),
        ],
    );
    let by_outcome: Vec<&str> = rs
        .values()
        .filter_map(|v| v.get("outcome").and_then(Json::as_str))
        .collect();
    assert!(by_outcome.contains(&"bad-request"), "{rs:?}");
    assert_eq!(
        field(&rs[&9], "outcome").as_str(),
        Some("compile-error"),
        "{rs:?}"
    );
    let _ = roundtrip(h.addr(), &[r#"{"op":"shutdown"}"#.to_string()]);
    // The flag is up; join must complete rather than hang.
    h.join();
}

/// The acceptor blocks in `accept`, and `join` wakes it with a
/// connection of its own to that daemon's listener — on loopback when
/// the daemon is bound to an unspecified address. A daemon nobody ever
/// connected to still joins; without the wake-up it would hang.
#[test]
fn join_of_an_idle_daemon_returns() {
    let (done, joined) = std::sync::mpsc::channel();
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let h = server(|c| c.addr = addr.into());
        let done = done.clone();
        std::thread::spawn(move || {
            h.join();
            done.send(addr).unwrap();
        });
    }
    for _ in 0..2 {
        joined
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("an idle daemon's join returns");
    }
}

/// A program whose reply carries `n` printed integers of 7 digits: 8
/// bytes each on the wire, so 2 000 make a reply larger than a TCP
/// segment.
const SPEW: &str = "fun spew(i: int, n: int): int {
  if i >= n then n
  else {
    println(1000000 + i)
    spew(i + 1, n)
  }
}
fun main(n: int): int { spew(0, n) }
";

fn spew_line(id: u64, n: usize) -> String {
    format!(
        r#"{{"op":"run","id":{id},"n":{n},"source":{}}}"#,
        json_str(SPEW)
    )
}

/// Replies from two workers and from the connection's reader share one
/// socket; under the connection's lock each is one `write_all`, so no
/// line tears. 500 sessions pipelined on one connection mix small
/// replies with ones over 8 KB, interleaved with `health` ops and
/// malformed lines that the reader answers itself.
#[test]
fn pipelined_replies_from_workers_and_reader_never_interleave() {
    const SESSIONS: u64 = 500;
    const MIX: [&str; 6] = ["map", "rbtree", "msort", "queue", "deriv", "tmap"];
    let h = server(|c| {
        c.queue_depth = 1024;
        c.max_inflight = 1024;
    });
    let stream = TcpStream::connect(h.addr()).expect("connect");
    let mut w = stream.try_clone().expect("clone");
    let (mut healths, mut malformed) = (0, 0);
    let mut lines = String::new();
    for id in 0..SESSIONS {
        if id % 3 == 0 {
            lines += &spew_line(id, 2000);
        } else {
            lines += &run_line(id, MIX[id as usize % MIX.len()], "");
        }
        lines.push('\n');
        if id % 7 == 0 {
            lines += "{\"op\":\"health\"}\n";
            healths += 1;
        }
        if id % 11 == 0 {
            lines += "{\"op\":\"run\",\"id\":\n";
            malformed += 1;
        }
    }
    // Written from a thread of its own: the replies outgrow the socket
    // buffers long before the requests are all sent.
    let writer = std::thread::spawn(move || w.write_all(lines.as_bytes()).unwrap());
    let mut reader = BufReader::new(stream);
    let mut answered = vec![0u32; SESSIONS as usize];
    let (mut seen_healths, mut seen_malformed, mut big) = (0, 0, 0);
    for _ in 0..SESSIONS + healths + malformed {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "early EOF");
        let v = json::parse(line.trim())
            .unwrap_or_else(|e| panic!("a torn line ({e}): {:.200}…", line));
        if let Some(id) = v.get("id").and_then(Json::as_u64) {
            answered[id as usize] += 1;
            assert_eq!(field(&v, "outcome").as_str(), Some("ok"), "{v:?}");
            if id % 3 == 0 {
                assert!(line.len() >= 8 * 2000, "{} bytes", line.len());
                big += 1;
            }
        } else if v.get("outcome").and_then(Json::as_str) == Some("bad-request") {
            seen_malformed += 1;
        } else {
            assert_eq!(field(&v, "workers").as_u64(), Some(2), "{v:?}");
            seen_healths += 1;
        }
    }
    writer.join().unwrap();
    assert!(answered.iter().all(|&n| n == 1), "every id exactly once");
    assert_eq!((seen_healths, seen_malformed), (healths, malformed));
    assert_eq!(big, SESSIONS.div_ceil(3));
    h.join();
}

/// A client that pipelines sessions and never reads: once its socket
/// buffers fill, a reply write waits `REPLY_WRITE_TIMEOUT`, fails, and
/// the daemon closes the connection and drops its remaining replies
/// (`stats` counts it in `reply_write_timeouts`). Another client is
/// served meanwhile, and the in-flight gauge returns to zero.
#[test]
fn a_client_that_never_reads_is_closed_and_others_are_served() {
    use std::time::{Duration, Instant};
    let h = server(|c| {
        c.queue_depth = 1024;
        c.max_inflight = 1024;
    });
    // 400 replies of ≈ 48 KB, 19 MB: far past the loopback socket
    // buffers (the daemon's send buffer grows to `tcp_wmem`'s maximum,
    // 4 MiB by default; an idle client's receive buffer stays near
    // 128 KiB).
    let mut a = TcpStream::connect(h.addr()).expect("connect");
    let mut lines = String::new();
    for id in 0..400 {
        lines += &spew_line(id, 6000);
        lines.push('\n');
    }
    a.write_all(lines.as_bytes()).unwrap();

    let b: Vec<String> = (0..200).map(|id| run_line(id, "map", "")).collect();
    let rs = roundtrip(h.addr(), &b);
    assert_eq!(rs.len(), 200);
    for v in rs.values() {
        assert_eq!(field(v, "outcome").as_str(), Some("ok"), "{v:?}");
    }

    // A must not read before the daemon has given up on it: a read
    // that starts before any reply write has waited out
    // `REPLY_WRITE_TIMEOUT` lets the writes go on, and A is never
    // closed. The close is timed from the first timeout seen: what came
    // before it is B's sessions and the daemon's work on A's first
    // replies, which measure the host's load, not the daemon.
    let deadline = Instant::now() + Duration::from_secs(5) + 20 * REPLY_WRITE_TIMEOUT;
    let timed_out = loop {
        let stats = roundtrip(h.addr(), &[r#"{"op":"stats"}"#.to_string()]);
        let timeouts = field(&stats[&(CONTROL_BASE + 1)], "reply_write_timeouts").as_u64();
        if timeouts >= Some(1) {
            break Instant::now();
        }
        assert!(
            Instant::now() < deadline,
            "no reply write to A timed out: {timeouts:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };

    // A reads what reached it, then EOF: the daemon closed it. Were it
    // still open, reading would let the daemon write on and the read
    // would time out instead.
    a.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut sink = [0u8; 1 << 16];
    loop {
        match a.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(e) => panic!("the daemon never closed a client that does not read: {e}"),
        }
    }
    let closed = timed_out.elapsed();
    assert!(
        closed < Duration::from_secs(5) + 20 * REPLY_WRITE_TIMEOUT,
        "closed after {closed:?}"
    );

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = roundtrip(h.addr(), &[r#"{"op":"stats"}"#.to_string()]);
        let inflight = field(&stats[&(CONTROL_BASE + 1)], "inflight").as_u64();
        if inflight == Some(0) {
            break;
        }
        assert!(Instant::now() < deadline, "inflight stuck at {inflight:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    h.join();
}

/// A line past the cap with no newline yet is answered once with
/// `request-too-large`, then the connection closes; the daemon keeps
/// serving other connections.
#[test]
fn an_oversized_request_line_is_refused_and_its_connection_closed() {
    let h = server(|_| {});
    let mut stream = TcpStream::connect(h.addr()).expect("connect");
    stream
        .write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1])
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    assert!(reader.read_line(&mut resp).unwrap() > 0, "early EOF");
    let v = json::parse(resp.trim()).expect("valid response json");
    assert_eq!(
        field(&v, "code").as_str(),
        Some("request-too-large"),
        "{v:?}"
    );
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "then EOF: {rest}");
    let rs = roundtrip(h.addr(), &[r#"{"op":"health"}"#.to_string()]);
    assert_eq!(field(&rs[&(CONTROL_BASE + 1)], "ok").as_bool(), Some(true));
    h.join();
}

#[test]
fn malformed_requests_get_structured_answers_and_the_connection_survives() {
    let h = server(|_| {});
    let rs = roundtrip(
        h.addr(),
        &[
            // Truncated JSON, a non-JSON line, an unknown op, and a run
            // without an id: each must come back as a structured
            // `bad-request`, not a dropped connection or a panic.
            r#"{"op":"run","id":"#.to_string(),
            "garbage over the wire".to_string(),
            r#"{"op":"frobnicate","id":1}"#.to_string(),
            r#"{"op":"run","workload":"map"}"#.to_string(),
            // Nesting far past `json::MAX_DEPTH`: an error, not a
            // stack overflow on the connection thread.
            "[".repeat(100_000),
            r#"{"a":"#.repeat(100_000),
            // Parsable but permanently unservable: borrow without
            // shared gets a terminal `rejected` with a stable code.
            r#"{"op":"run","id":3,"workload":"map","borrow":true}"#.to_string(),
            // And the same connection still serves a healthy session.
            run_line(4, "map", ""),
        ],
    );
    let bad_requests = rs
        .values()
        .filter(|v| v.get("outcome").and_then(Json::as_str) == Some("bad-request"))
        .count();
    assert_eq!(bad_requests, 6, "{rs:?}");
    assert_eq!(
        field(&rs[&3], "outcome").as_str(),
        Some("rejected"),
        "{rs:?}"
    );
    assert_eq!(
        field(&rs[&3], "code").as_str(),
        Some("borrow-without-shared")
    );
    assert_eq!(field(&rs[&4], "outcome").as_str(), Some("ok"), "{rs:?}");
    h.join();
}

#[test]
fn borrowed_snapshot_sessions_pay_zero_atomics_over_tcp() {
    let h = server(|_| {});
    // Freeze the input with an owned session first (so the borrowed
    // session below is deterministic about which build froze it), then
    // contrast the two read paths.
    let owned = roundtrip(h.addr(), &[run_line(1, "map", r#","shared":true"#)]);
    let borrowed = roundtrip(
        h.addr(),
        &[run_line(2, "map", r#","shared":true,"borrow":true"#)],
    );
    assert_eq!(field(&owned[&1], "outcome").as_str(), Some("ok"));
    assert_eq!(
        field(&borrowed[&2], "outcome").as_str(),
        Some("ok"),
        "{borrowed:?}"
    );
    assert!(
        field(&owned[&1], "atomic_ops").as_u64().unwrap() > 0,
        "owned shared reads pay per-visit RMWs"
    );
    assert_eq!(field(&borrowed[&2], "borrow").as_bool(), Some(true));
    assert_eq!(
        field(&borrowed[&2], "atomic_ops").as_u64(),
        Some(0),
        "the snapshot read path is RMW-free end to end"
    );
    assert_eq!(field(&borrowed[&2], "shared_ref_drift").as_u64(), Some(0));
    assert_eq!(field(&borrowed[&2], "leaked_blocks").as_u64(), Some(0));
    assert_eq!(
        field(&owned[&1], "value").as_str(),
        field(&borrowed[&2], "value").as_str(),
        "both read paths agree on the result"
    );
    // One frozen input served both builds (the borrow-agnostic input
    // key), and the segment sits exactly at its freeze-time baseline.
    let stats = roundtrip(h.addr(), &[r#"{"op":"stats"}"#.to_string()]);
    let stats = &stats[&(CONTROL_BASE + 1)];
    assert_eq!(field(stats, "shared_inputs").as_u64(), Some(1));
    assert_eq!(
        field(stats, "shared_live_blocks").as_u64(),
        field(stats, "shared_baseline_blocks").as_u64()
    );
    assert_eq!(field(stats, "audit_failures").as_u64(), Some(0));
    h.join();
}

/// The 240-session loadtest runs only when `PERCEUS_SLOW_TESTS` is set
/// (CI sets it); the smaller loadtest below always runs.
#[test]
fn loadtest_sustains_concurrent_mixed_sessions_with_zero_drift() {
    if std::env::var_os("PERCEUS_SLOW_TESTS").is_none() {
        eprintln!("skipped: set PERCEUS_SLOW_TESTS=1 to run the 240-session loadtest");
        return;
    }
    let h = server(|c| {
        c.max_inflight = 4096;
        c.queue_depth = 256;
    });
    let baseline_src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_BASELINE.json"
    ))
    .expect("baseline present");
    let cfg = LoadConfig {
        addr: h.addr().to_string(),
        sessions: 240,
        connections: 6,
        window: 20,
        baseline: Some(perceus_bench::Baseline::parse_json(&baseline_src).unwrap()),
        ..LoadConfig::default()
    };
    let report = loadtest::run(&cfg).expect("loadtest runs");
    assert!(
        report.passed(),
        "drift={:?} leaks={} audits={} other={}",
        report.drift_violations,
        report.leaked_blocks,
        report.audit_violations,
        report.other_outcomes
    );
    assert!(report.drift_checked > 0, "the gate must actually check");
    // With resume on (the default), starved sessions suspend instead of
    // aborting, and each must reach a clean terminal state.
    assert!(
        report.suspended_legs > 0,
        "the mix must exercise suspension"
    );
    assert!(
        report.resumed_sessions + report.evicted_sessions > 0,
        "starved sessions must resume to completion or evict cleanly"
    );
    assert!(report.shared_sessions > 0, "the mix must exercise sharing");
    assert!(report.cache_hit_sessions > 0);

    let stats = loadtest::final_stats(&cfg.addr).unwrap();
    assert_eq!(field(&stats, "leaked_blocks").as_u64(), Some(0));
    assert_eq!(field(&stats, "audit_failures").as_u64(), Some(0));
    assert_eq!(field(&stats, "parked").as_u64(), Some(0), "drained");
    assert_eq!(
        field(&stats, "shared_live_blocks").as_u64(),
        field(&stats, "shared_baseline_blocks").as_u64()
    );
    h.join();
}

#[test]
fn loadtest_without_resume_still_exercises_aborts() {
    let h = server(|c| {
        c.max_inflight = 1024;
        c.queue_depth = 128;
    });
    let cfg = LoadConfig {
        addr: h.addr().to_string(),
        sessions: 93,
        connections: 3,
        window: 8,
        resume: false,
        ..LoadConfig::default()
    };
    let report = loadtest::run(&cfg).expect("loadtest runs");
    assert!(report.passed(), "other={}", report.other_outcomes);
    assert!(report.fuel_exhausted > 0, "starved sessions abort (v1 mix)");
    assert_eq!(report.suspended_legs, 0);
    h.join();
}

/// Drives one resumable session to a terminal response, resuming every
/// time it suspends; returns `(final_response, resume_legs)`.
fn resume_to_terminal(
    addr: std::net::SocketAddr,
    id: u64,
    first: String,
    resume_fuel: u64,
) -> (Json, u64) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut w = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut line = first;
    let mut legs = 0u64;
    loop {
        w.write_all(line.as_bytes()).unwrap();
        w.write_all(b"\n").unwrap();
        let mut resp = String::new();
        assert!(reader.read_line(&mut resp).unwrap() > 0, "early EOF");
        let v = json::parse(resp.trim()).expect("valid response json");
        assert_eq!(field(&v, "v").as_u64(), Some(2), "{v:?}");
        if field(&v, "outcome").as_str() != Some("suspended") {
            return (v, legs);
        }
        // Suspension points are audited: Perceus' garbage-free
        // invariant holds mid-execution, not just at session exit.
        assert_eq!(field(&v, "audit_ok").as_bool(), Some(true), "{v:?}");
        let token = field(&v, "session").as_u64().expect("session token");
        legs += 1;
        line =
            format!(r#"{{"op":"resume","v":2,"id":{id},"session":{token},"fuel":{resume_fuel}}}"#);
    }
}

#[test]
fn suspended_session_resumes_to_baseline_counters_over_tcp() {
    let h = server(|c| c.workers = 1);
    let (v, legs) = resume_to_terminal(
        h.addr(),
        41,
        run_line(41, "rbtree", r#","v":2,"fuel":2000,"resumable":true"#),
        2000,
    );
    assert_eq!(field(&v, "outcome").as_str(), Some("ok"), "{v:?}");
    assert!(legs > 0, "2000 fuel cannot finish rbtree in one leg");
    assert_eq!(field(&v, "resumes").as_u64(), Some(legs));
    assert_eq!(field(&v, "leaked_blocks").as_u64(), Some(0));
    assert_eq!(field(&v, "audit_ok").as_bool(), Some(true));

    // The interrupted execution reproduces the committed baseline
    // bit-for-bit — all counters, placement trio included, because a
    // resumable session runs on its own fresh heap exactly like the
    // cold benchmark run did.
    let baseline_src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_BASELINE.json"
    ))
    .expect("baseline present");
    let baseline = perceus_bench::Baseline::parse_json(&baseline_src).unwrap();
    let row = baseline
        .workloads
        .iter()
        .find(|w| w.name == "rbtree")
        .unwrap();
    let counters = field(&v, "counters");
    for (key, expected) in &row.counters {
        assert_eq!(
            counters.get(key).and_then(Json::as_u64),
            Some(*expected),
            "counter {key} drifted across {legs} suspensions"
        );
    }
    h.join();
}

#[test]
fn resume_of_unknown_or_evicted_session_is_rejected() {
    // park_capacity 1: parking a second session evicts the first.
    let h = server(|c| {
        c.workers = 1;
        c.park_capacity = 1;
    });
    let a = roundtrip(
        h.addr(),
        &[run_line(
            1,
            "rbtree",
            r#","v":2,"fuel":2000,"resumable":true"#,
        )],
    );
    assert_eq!(field(&a[&1], "outcome").as_str(), Some("suspended"));
    let tok_a = field(&a[&1], "session").as_u64().unwrap();

    let b = roundtrip(
        h.addr(),
        &[run_line(
            2,
            "msort",
            r#","v":2,"fuel":2000,"resumable":true"#,
        )],
    );
    assert_eq!(field(&b[&2], "outcome").as_str(), Some("suspended"));
    let tok_b = field(&b[&2], "session").as_u64().unwrap();

    // A was evicted to make room for B: its token is now dead, and the
    // rejection is terminal (code no-such-session), not retryable busy.
    let r = roundtrip(
        h.addr(),
        &[format!(
            r#"{{"op":"resume","v":2,"id":3,"session":{tok_a},"fuel":2000}}"#
        )],
    );
    assert_eq!(field(&r[&3], "outcome").as_str(), Some("rejected"), "{r:?}");
    assert_eq!(field(&r[&3], "code").as_str(), Some("no-such-session"));

    // B is still parked and runs to completion; the eviction repaid A's
    // heap, so the drained server reports nothing parked and no leaks.
    let (v, _) = resume_to_terminal(
        h.addr(),
        4,
        format!(r#"{{"op":"resume","v":2,"id":4,"session":{tok_b},"fuel":2000}}"#),
        2000,
    );
    assert_eq!(field(&v, "outcome").as_str(), Some("ok"), "{v:?}");
    let stats = roundtrip(h.addr(), &[r#"{"op":"stats"}"#.to_string()]);
    let stats = &stats[&(CONTROL_BASE + 1)];
    assert_eq!(field(stats, "parked").as_u64(), Some(0));
    assert_eq!(field(stats, "evicted").as_u64(), Some(1));
    assert_eq!(field(stats, "leaked_blocks").as_u64(), Some(0));
    assert_eq!(field(stats, "audit_failures").as_u64(), Some(0));
    h.join();
}

#[test]
fn unsupported_protocol_version_is_rejected_with_range() {
    let h = server(|_| {});
    let rs = roundtrip(
        h.addr(),
        &[r#"{"op":"run","v":9,"id":7,"workload":"map"}"#.to_string()],
    );
    let r = &rs[&7];
    assert_eq!(field(r, "outcome").as_str(), Some("rejected"), "{r:?}");
    assert_eq!(field(r, "code").as_str(), Some("unsupported-version"));
    assert_eq!(field(r, "supported_min").as_u64(), Some(1));
    assert_eq!(field(r, "supported_max").as_u64(), Some(2));
    // Version 1 requests (no "v" field) still work unchanged, and every
    // response carries the server's version stamp.
    let ok = roundtrip(h.addr(), &[run_line(8, "map", "")]);
    assert_eq!(field(&ok[&8], "outcome").as_str(), Some("ok"));
    assert_eq!(field(&ok[&8], "v").as_u64(), Some(2));
    h.join();
}
