//! `perfbench`: the repo's benchmark. Six workloads, end-to-end and
//! per-layer wall-clock metrics for the compiler, the machine, the heap
//! and the serving daemon. See README.md for the metric and workload
//! dictionary; `BENCHMARK.json` at the repo root is the contract.
//!
//! ```text
//! perfbench --seed S                      every workload, untraced, one child process each
//! perfbench --seed S --trace              ... then every workload again with spans
//! perfbench --workload W --seed S --seconds N --trace 0|1
//!                                         one workload; last stdout line is the result JSON
//! perfbench --check-noise [--seconds N]   the suite twice; spreads against the bounds
//! perfbench --bless-expected              rewrite expected.json from the oracle
//! ```

mod compile;
mod exec;
mod expected;
mod heapops;
mod noise;
mod report;
mod serve;
mod stats;
mod trace;

use report::Outcome;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// What a workload run is asked for.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Seeds what a workload draws at random: the serve workloads'
    /// request sequence and unique sources. The exec and compile
    /// workloads draw nothing — their inputs are fixed programs at frozen
    /// sizes — because the driver takes a metric's spread across runs
    /// with different seeds, and anything a seed changed there (the
    /// programs, or merely their order: ±10 % on a compile sweep, 24 vs
    /// 35 MB peak RSS on exec-shared) would be read as noise.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub trace: bool,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 6] = [
    exec::REUSE.name,
    exec::SHARED.name,
    exec::CHURN.name,
    compile::NAME,
    serve::WARM,
    serve::COLD,
];

/// `run_seconds` of `BENCHMARK.json`: the window when `--seconds` is
/// not given.
pub const DEFAULT_SECONDS: f64 = 15.0;

/// End-to-end metrics: name, unit, and the share of the parent's median
/// by which each may worsen. Every workload reports every one (README.md
/// says what the unit of work is on each).
pub const END_TO_END: [(&str, &str, f64); 4] = [
    ("setup_s", "s", 0.25),
    ("work_ms_p50", "ms", 0.25),
    ("ops_per_s", "1/s", 0.25),
    ("rss_peak_mb", "MB", 0.25),
];

/// Per-layer metrics, name and unit, in `BENCHMARK.json` order. A layer
/// that does no work on a workload reads 0 there.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut put = |name: &str, unit: &'static str| v.push((name.to_string(), unit));
    for n in ["parse", "resolve", "infer", "lower"] {
        put(&format!("lang.{n}_us"), "us");
    }
    put("lang.src_bytes", "count");
    put("lang.bytes_per_s", "1/s");
    for n in [
        "normalize",
        "inline",
        "reuse",
        "borrow",
        "insert",
        "scoped",
        "reuse-spec",
        "drop-spec",
        "fuse",
        "total",
    ] {
        put(&format!("passes.{n}_us"), "us");
    }
    put("passes.nodes_in", "count");
    put("passes.nodes_out", "count");
    put("check.linear_us", "us");
    put("code.compile_us", "us");
    put("code.funs", "count");
    put("codegen.emit_us", "us");
    put("codegen.emitted_bytes", "count");
    put("machine.ns_per_step", "ns");
    put("machine.steps", "count");
    for set in exec::SETS {
        for (program, _) in set.programs {
            put(&format!("machine.run_ms.{program}"), "ms");
        }
    }
    for n in ["new", "read_back", "drop_result"] {
        put(&format!("machine.{n}_us"), "us");
    }
    put("machine.resume_overhead_ratio", "ratio");
    put("machine.legs", "count");
    for n in [
        "allocations",
        "reuses",
        "dups",
        "drops",
        "decrefs",
        "unique_tests",
        "freelist_hits",
        "freelist_misses",
        "peak_live_words",
    ] {
        put(&format!("heap.{n}"), "count");
    }
    for n in ["reuse", "freelist_hit", "unique_hit"] {
        put(&format!("heap.{n}_ratio"), "ratio");
    }
    for n in [
        "reuse_roundtrip",
        "is_unique",
        "dup_drop",
        "tshare_dup_drop",
        "alloc_drop",
        "alloc_drop_malloc",
    ] {
        put(&format!("heap.{n}_ns"), "ns");
    }
    put("heap.reset_us", "us");
    put("heap.audit_us", "us");
    put("serve.protocol.parse_request_ns", "ns");
    put("serve.json.parse_ns", "ns");
    put("serve.cache.resolve_hit_ns", "ns");
    put("serve.cache.resolve_miss_us", "us");
    put("serve.cache.hit_ratio", "ratio");
    put("serve.cache.evictions", "count");
    put("serve.worker.service_us_p50", "us");
    put("serve.worker.run_session_us", "us");
    put("serve.queue_wire_us_p50", "us");
    for n in [
        "busy_retries",
        "sent",
        "ok",
        "leaked_blocks",
        "audit_failures",
    ] {
        put(&format!("serve.{n}"), "count");
    }
    put("serve.latency_p50_us", "us");
    put("serve.latency_p99_us", "us");
    put("serve.latency_max_us", "us");
    put("serve.gen_late_p99_us", "us");
    for i in 1..=serve::RUNG_RATES.len() {
        put(&format!("serve.rung.{i}.latency_p95_us"), "us");
        put(&format!("serve.rung.{i}.ok"), "count");
    }
    put("serve.max_rate_ok_per_s", "1/s");
    put("work_ms_tail", "ms");
    put("trace_overhead_ratio", "ratio");
    v
}

/// Set-up runs at least this many times; its median is `setup_s`.
pub const SETUP_REPS: usize = 9;
/// ... and, when it is cheap, until this much time has gone into it (at
/// most [`SETUP_REPS_MAX`] times): a sub-millisecond set-up measured
/// nine times at process start moved ±25 % between sets of ten runs.
const SETUP_BUDGET_S: f64 = 0.25;
const SETUP_REPS_MAX: usize = 199;

/// A ready state, the median time the later half of the set-ups took,
/// and how many set-ups that is the median of.
pub struct Ready<S> {
    pub state: S,
    pub setup_s: f64,
    pub reps: usize,
}

/// Runs `setup` repeatedly, tearing down every state but the last, and
/// returns the last state with the median set-up time. Set-up is
/// everything that makes the system ready — reading `expected.json`,
/// compiling programs, generating inputs, starting and warming a daemon
/// — so that work a change moves out of the timed window shows here.
pub fn timed_setup<S>(
    mut setup: impl FnMut() -> Result<S, String>,
    mut teardown: impl FnMut(S),
) -> Result<Ready<S>, String> {
    let began = Instant::now();
    let mut times = Vec::new();
    let mut state = None;
    while times.len() < SETUP_REPS
        || (times.len() < SETUP_REPS_MAX && began.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        if let Some(s) = state.take() {
            teardown(s);
        }
        let t = Instant::now();
        state = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    // The first set-ups of a process run on a cold, slow-clocked core
    // (0.55 vs 0.84 ms from one process to the next); the later half is
    // the steady cost.
    let steady = &times[times.len() / 2..];
    Ok(Ready {
        state: state.expect("SETUP_REPS > 0"),
        setup_s: stats::median(steady),
        reps: steady.len(),
    })
}

/// The benchmark's own directory: `perfbench/` under the working
/// directory when run from a checkout's root (as the driver does),
/// otherwise where the package was built from.
pub fn bench_dir() -> PathBuf {
    let here = PathBuf::from("perfbench");
    if here.join("expected.json").is_file() {
        here
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// Writes a workload's spans to `perfbench/out/trace-<workload>.json`.
pub fn write_trace(workload: &str, trace: &trace::Trace) -> Result<(), String> {
    let dir = bench_dir().join("out");
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace.render_json(workload)))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Peak resident set of this process in MiB (`VmHWM`). Each workload
/// runs in a process of its own, so this is the workload's peak.
fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs one workload in this process and shapes its metrics to the
/// contract: exactly the end-to-end list untraced, exactly the
/// per-layer list traced, in list order.
fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    let mut out = match name {
        n if n == compile::NAME => compile::run(args),
        n if n == serve::WARM => serve::run(false, args),
        n if n == serve::COLD => serve::run(true, args),
        n => match exec::SETS.iter().find(|s| s.name == n) {
            Some(set) => exec::run(set, args),
            None => Err(format!("unknown workload {n:?}; one of {WORKLOADS:?}")),
        },
    }?;
    let listed: Vec<(String, &'static str)> = if args.trace {
        per_layer()
    } else {
        out.put("rss_peak_mb", rss_peak_mb()?, "MB", 1);
        END_TO_END
            .iter()
            .map(|(n, u, _)| (n.to_string(), *u))
            .collect()
    };
    if let Some(stray) = out
        .metrics
        .iter()
        .find(|m| !listed.iter().any(|(n, u)| *n == m.name && *u == m.unit))
    {
        return Err(format!(
            "{name} reported {} [{}], which BENCHMARK.json does not list",
            stray.name, stray.unit
        ));
    }
    let measured = std::mem::take(&mut out.metrics);
    for (n, unit) in listed {
        match measured.iter().find(|m| m.name == n) {
            Some(m) => out.metrics.push(m.clone()),
            // An end-to-end metric is never absent; a layer that did no
            // work on this workload reads 0.
            None if args.trace => out.put(n, 0.0, unit, 0),
            None => return Err(format!("{name} did not report {n}")),
        }
    }
    Ok(out)
}

/// Runs one workload in a child process of this binary, echoes what it
/// printed, and returns its result line. A child per workload keeps
/// `rss_peak_mb` per workload and keeps one workload's warm allocator
/// from helping the next.
pub fn run_child(name: &str, args: &Args, echo: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or(format!("{name} printed no result line"))?;
    if echo {
        println!("{table}");
    }
    if !output.status.success() {
        return Err(format!("{name} failed ({})", output.status));
    }
    Ok(line.to_string())
}

struct Cli {
    workload: Option<String>,
    args: Args,
    check_noise: bool,
    bless: bool,
    /// `--oracle PROGRAM N`: print the oracle's value (see `expected`).
    oracle: Option<(String, i64)>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        args: Args {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
        },
        check_noise: false,
        bless: false,
        oracle: None,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a name")?),
            "--seed" => {
                cli.args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.args.seconds > 0.0 && cli.args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            // `--trace` alone turns tracing on; the driver writes `--trace 0|1`.
            "--trace" => {
                cli.args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => false,
                    Some("1") | None => true,
                    Some(v) if v.starts_with("--") => true,
                    Some(v) => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                };
                argv.next_if(|v| v == "0" || v == "1");
            }
            "--check-noise" => cli.check_noise = true,
            "--bless-expected" => cli.bless = true,
            "--oracle" => {
                let program = value("a program")?;
                let n = value("a size")?
                    .parse()
                    .map_err(|e| format!("--oracle: {e}"))?;
                cli.oracle = Some((program, n));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// Every `(program, n)` a workload checks against `expected.json`.
fn expected_items() -> Vec<(&'static str, i64)> {
    let mut items: Vec<(&'static str, i64)> = exec::SETS
        .iter()
        .flat_map(|s| s.programs.iter().copied())
        .collect();
    items.extend(serve::MIX.map(|p| (p, serve::N)));
    items.extend(compile::expected_items());
    items
}

fn real_main() -> Result<bool, String> {
    let cli = parse_cli()?;
    if let Some((program, n)) = &cli.oracle {
        expected::print_oracle(program, *n)?;
        return Ok(true);
    }
    if cli.bless {
        expected::bless(&expected_items())?;
        return Ok(true);
    }
    if cli.check_noise {
        return noise::check(&cli.args);
    }
    if let Some(name) = &cli.workload {
        let out = run_workload(name, &cli.args)?;
        print!(
            "{}",
            out.render_table(&format!(
                "{name} seed {} {} s{}",
                cli.args.seed,
                cli.args.seconds,
                if cli.args.trace { " traced" } else { "" }
            ))
        );
        println!("{}", out.result_line());
        return Ok(out.correct());
    }
    // The whole suite: untraced first, so tracing cannot touch the
    // end-to-end numbers, then traced if asked.
    let mut ok = true;
    for trace in [false, true] {
        if trace && !cli.args.trace {
            break;
        }
        for name in WORKLOADS {
            let line = run_child(name, &Args { trace, ..cli.args }, true)?;
            ok &= line.contains("\"correct\":true");
        }
    }
    println!(
        "{}",
        if ok {
            "all outputs correct"
        } else {
            "FAILED: see above"
        }
    );
    Ok(ok)
}

/// Fixes glibc's mmap threshold at 64 KiB. By default the threshold
/// climbs (to 32 MiB) as large blocks are freed, and whether a big
/// vector then lives on the main heap or in its own mapping decided
/// exec-shared's peak RSS run by run: 24, 29 or 35 MB for the same
/// program, same seed, ASLR off. Pinned, a large block is always its
/// own mapping, grown by `mremap` and returned on free: 23.8–24.0 MB in
/// ten runs, timings unchanged within noise.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` is glibc's documented tunable setter; it takes
    // two plain integers and only stores them in the allocator's own
    // state. It is called first thing in `main`, before any other thread
    // exists. A refusal (return 0) leaves the default in place, which
    // only costs steadiness.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 64 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    pin_mmap_threshold();
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perceus_serve::json::{self, Json};

    fn benchmark_json() -> Json {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn names(list: &Json) -> Vec<(String, String)> {
        let Json::Arr(items) = list else {
            panic!("not a list")
        };
        items
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_binary_reports() {
        let doc = benchmark_json();
        let workloads = names(doc.get("workloads").unwrap());
        assert_eq!(
            workloads.iter().map(|w| w.0.as_str()).collect::<Vec<_>>(),
            WORKLOADS
        );
        let e2e = doc.get("end_to_end").unwrap();
        assert_eq!(
            names(e2e),
            END_TO_END.map(|(n, u, _)| (n.to_string(), u.to_string()))
        );
        let Json::Arr(items) = e2e else { panic!() };
        for (item, (name, _, bound)) in items.iter().zip(END_TO_END) {
            assert_eq!(item.get("bound"), Some(&Json::Num(bound)), "{name}");
            assert_eq!(
                item.get("better").and_then(Json::as_str),
                Some(if name == "ops_per_s" {
                    "higher"
                } else {
                    "lower"
                })
            );
        }
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names(doc.get("per_layer").unwrap()), layers);
        assert!(layers.len() <= 128);
        assert_eq!(doc.get("run_seconds"), Some(&Json::Num(DEFAULT_SECONDS)));
    }

    #[test]
    fn metric_names_meet_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        let e2e = END_TO_END.map(|(n, u, _)| (n.to_string(), u));
        for (name, unit) in per_layer().into_iter().chain(e2e) {
            assert!(ok(&name, "_.-", 64), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(ok(unit, "_/%.-", 16), "{unit}");
            assert!(seen.insert(name.clone()), "{name} listed twice");
        }
        assert!(END_TO_END.iter().all(|m| m.2 <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.0 == "setup_s" && m.1 == "s"));
    }

    #[test]
    fn timed_setup_tears_down_all_but_the_last() {
        let mut made = 0;
        let mut torn = Vec::new();
        let ready = timed_setup(
            || {
                made += 1;
                Ok(made)
            },
            |s| torn.push(s),
        )
        .unwrap();
        // An instant set-up runs until the cap, not the clock.
        assert_eq!(ready.state, SETUP_REPS_MAX);
        assert_eq!(ready.reps, SETUP_REPS_MAX - SETUP_REPS_MAX / 2);
        assert_eq!(torn, (1..SETUP_REPS_MAX).collect::<Vec<_>>());
        assert!(ready.setup_s >= 0.0);
        // A slow one stops at the floor.
        let slow = timed_setup(
            || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                Ok(())
            },
            drop,
        )
        .unwrap();
        assert_eq!(slow.reps, SETUP_REPS - SETUP_REPS / 2);
        assert!(timed_setup(|| Err::<(), _>("no".to_string()), drop).is_err());
    }
}
