//! `perceus-bench` — the parallel throughput driver (§2.7.2) and the
//! deterministic counter gate.
//!
//! ```text
//! perceus-bench --workload rbtree --threads 4 [--n SIZE]
//!               [--strategy perceus] [--repeat 3] [--profile]
//! perceus-bench --counters-json [FILE]
//! perceus-bench --check-baseline BENCH_BASELINE.json [--tolerance 0]
//! ```
//!
//! Runs N abstract machines concurrently (see
//! [`perceus_suite::parallel`]): workloads with a shared-input split
//! (map, refs) share one immutable structure through the atomic-header
//! segment, the rest run independent `main(n)` instances per thread.
//! Each repeat reports aggregate throughput and the merged statistics;
//! the join-time garbage-free audit runs over both heap segments after
//! every repeat and any failure exits 1. `--profile` re-runs the
//! workload once with the attributed profiler on and appends a
//! per-function breakdown of the RC traffic.
//!
//! The two baseline modes skip the throughput bench entirely:
//! `--counters-json` prints (or writes) the canonical deterministic
//! counters of every workload ([`perceus_bench::counters`]), and
//! `--check-baseline` compares the current counters against a committed
//! file, exiting 1 on any drift beyond `--tolerance` (a relative
//! fraction; the CI gate uses 0).
//!
//! `--backend native` routes execution through the codegen backend
//! (docs/CODEGEN.md): with `--check-baseline` the counters come from
//! the compiled executor (the same committed baseline must hold at
//! zero tolerance — the schedule-identity proof); without it, the
//! default mode becomes a machine-vs-native wall-clock record over a
//! comma-separated `--workload` list, emitted as one JSON line (the
//! `native-speedup` CI artifact).

#![forbid(unsafe_code)]

use perceus_bench::counters::Baseline;
use perceus_runtime::machine::RunConfig;
use perceus_suite::{run_contended, run_parallel, workload, workloads, ReadMode, Strategy};
use std::process::ExitCode;

struct Options {
    /// `None` means the per-mode default (rbtree for the throughput
    /// bench, map for `--read-scaling`).
    workload: Option<String>,
    threads: u32,
    n: Option<i64>,
    strategy: Strategy,
    repeat: usize,
    profile: bool,
    /// `Some("-")` prints to stdout.
    counters_json: Option<String>,
    check_baseline: Option<String>,
    check_certs: Option<String>,
    tolerance: f64,
    /// `Some("-")` prints to stdout.
    read_scaling: Option<String>,
    backend: Backend,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Backend {
    /// The abstract machine (interpreter) — the default.
    Machine,
    /// The codegen backend: workloads compiled to Rust and run in the
    /// native executor subprocess.
    Native,
}

fn usage() -> ! {
    eprintln!(
        "usage: perceus-bench --workload NAME [--threads N] [--n SIZE]\n\
         \x20                    [--strategy NAME] [--repeat K] [--profile]\n\
         \x20      perceus-bench --counters-json [FILE|-]\n\
         \x20      perceus-bench --check-baseline FILE [--tolerance 0]\n\
         \x20      perceus-bench --check-certs FILE\n\
         \x20      perceus-bench --read-scaling [FILE|-] [--workload map] [--n SIZE]\n\
         \x20      perceus-bench --backend native [--workload rbtree,map] [--repeat 3]\n\
         \x20      perceus-bench --backend native --check-baseline FILE [--tolerance 0]\n\
         workloads: {}\n\
         strategies: {}",
        workloads()
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", "),
        Strategy::ALL
            .iter()
            .map(|s| s.label())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        workload: None,
        threads: 4,
        n: None,
        strategy: Strategy::Perceus,
        repeat: 3,
        profile: false,
        counters_json: None,
        check_baseline: None,
        check_certs: None,
        tolerance: 0.0,
        read_scaling: None,
        backend: Backend::Machine,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, what: &str| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("{what} requires a value");
            usage()
        })
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => opts.workload = Some(value(&args, &mut i, "--workload")),
            "--threads" => match value(&args, &mut i, "--threads").parse() {
                Ok(t) if t > 0 => opts.threads = t,
                _ => usage(),
            },
            "--n" => match value(&args, &mut i, "--n").parse() {
                Ok(n) => opts.n = Some(n),
                Err(_) => usage(),
            },
            "--repeat" => match value(&args, &mut i, "--repeat").parse() {
                Ok(k) if k > 0 => opts.repeat = k,
                _ => usage(),
            },
            "--strategy" => {
                let name = value(&args, &mut i, "--strategy");
                match Strategy::ALL.iter().find(|s| s.label() == name) {
                    Some(s) => opts.strategy = *s,
                    None => usage(),
                }
            }
            "--profile" => opts.profile = true,
            "--counters-json" => {
                // The file operand is optional: a following flag (or
                // nothing) means stdout.
                match args.get(i + 1) {
                    Some(next) if !next.starts_with("--") => {
                        opts.counters_json = Some(next.clone());
                        i += 1;
                    }
                    _ => opts.counters_json = Some("-".to_string()),
                }
            }
            "--check-baseline" => {
                opts.check_baseline = Some(value(&args, &mut i, "--check-baseline"))
            }
            "--check-certs" => opts.check_certs = Some(value(&args, &mut i, "--check-certs")),
            "--read-scaling" => {
                // The file operand is optional, as for --counters-json.
                match args.get(i + 1) {
                    Some(next) if !next.starts_with("--") => {
                        opts.read_scaling = Some(next.clone());
                        i += 1;
                    }
                    _ => opts.read_scaling = Some("-".to_string()),
                }
            }
            "--backend" => match value(&args, &mut i, "--backend").as_str() {
                "machine" => opts.backend = Backend::Machine,
                "native" => opts.backend = Backend::Native,
                _ => usage(),
            },
            "--tolerance" => match value(&args, &mut i, "--tolerance").parse() {
                Ok(t) if t >= 0.0 => opts.tolerance = t,
                _ => usage(),
            },
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    opts
}

/// `--counters-json`: print or write the current canonical counters.
fn run_counters_json(target: &str) -> ExitCode {
    let current = match perceus_bench::counters::collect() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("counter collection failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json = current.render_json();
    if target == "-" {
        print!("{json}");
        return ExitCode::SUCCESS;
    }
    match std::fs::write(target, &json) {
        Ok(()) => {
            eprintln!(
                "wrote {} workload baselines to {target}",
                current.workloads.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {target}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--check-baseline`: recompute the counters — on the machine or, with
/// `--backend native`, through the compiled executor — and gate on
/// drift against the committed file.
fn run_check_baseline(path: &str, tolerance: f64, backend: Backend) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match Baseline::parse_json(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let current = match backend {
        Backend::Machine => match perceus_bench::counters::collect() {
            Ok(b) => b,
            Err(e) => {
                eprintln!("counter collection failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        Backend::Native => match perceus_bench::counters::collect_native() {
            Ok(b) => b,
            Err(e) => {
                eprintln!("native counter collection failed: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let label = match backend {
        Backend::Machine => "machine",
        Backend::Native => "native",
    };
    let violations = baseline.check(&current, tolerance);
    if violations.is_empty() {
        println!(
            "counter gate ({label}): OK — {} workloads x {} counters match {path} \
             (tolerance {tolerance})",
            baseline.workloads.len(),
            perceus_bench::COUNTER_KEYS.len(),
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "counter gate ({label}): FAILED — {} violation(s) against {path} \
             (tolerance {tolerance})",
            violations.len()
        );
        for v in &violations {
            println!("  {v}");
        }
        println!("if the change is intentional, regenerate with:");
        println!("  cargo run --release -p perceus-bench -- --counters-json {path}");
        ExitCode::FAILURE
    }
}

/// `--check-certs`: re-certify every baseline workload and replay it
/// under the profiler against the certified bounds.
fn run_check_certs(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match Baseline::parse_json(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let violations = match perceus_bench::check_certs(&baseline) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("cert gate failed to run: {e}");
            return ExitCode::FAILURE;
        }
    };
    if violations.is_empty() {
        println!(
            "cert gate: OK — {} workloads certified, checked and replayed within bounds",
            baseline.workloads.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("cert gate: FAILED — {} violation(s)", violations.len());
        for v in &violations {
            println!("  {v}");
        }
        ExitCode::FAILURE
    }
}

/// `--read-scaling`: the contended read-mostly workload at 1, 8 and 32
/// worker threads, under both guard-protected snapshot reads and the
/// owned atomic-RMW baseline, emitted as one JSON record (the artifact
/// the CI threaded-smoke job records). Fails if any snapshot run pays
/// an atomic RMW or leaves the segment undrained — the wall-clock
/// ratio is reported but not gated, since it only means something on
/// hardware with real parallelism (`cores` is in the record).
fn run_read_scaling(opts: &Options, target: &str) -> ExitCode {
    let name = opts.workload.as_deref().unwrap_or("map");
    let Some(w) = workload(name) else {
        eprintln!("unknown workload `{name}`");
        usage();
    };
    if w.parallel.is_none() {
        eprintln!("workload `{name}` has no shared-input split");
        return ExitCode::FAILURE;
    }
    let n = opts.n.unwrap_or(w.test_n);
    let reps: u32 = 8;
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut entries = Vec::new();
    let mut gate_ok = true;
    for threads in [1u32, 8, 32] {
        let mut tputs = [0.0f64; 2];
        for (slot, mode) in [ReadMode::Snapshot, ReadMode::Owned]
            .into_iter()
            .enumerate()
        {
            let out = match run_contended(&w, mode, n, threads, reps, RunConfig::default()) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("{name} ({} @ {threads} threads): {e}", mode.label());
                    return ExitCode::FAILURE;
                }
            };
            if mode == ReadMode::Snapshot
                && (out.read_atomics != 0 || out.shared_audit.live_blocks != 0)
            {
                eprintln!(
                    "{name} (snapshot @ {threads} threads): gate failed — \
                     {} read-phase atomic RMWs, {} live blocks at join",
                    out.read_atomics, out.shared_audit.live_blocks
                );
                gate_ok = false;
            }
            tputs[slot] = out.throughput();
            entries.push(format!(
                "{{\"threads\":{threads},\"mode\":\"{}\",\"elapsed_secs\":{:.6},\
                 \"throughput\":{:.3},\"read_atomics\":{},\"reclaimed_blocks\":{}}}",
                mode.label(),
                out.elapsed.as_secs_f64(),
                out.throughput(),
                out.read_atomics,
                out.reclaimed_blocks,
            ));
        }
        entries.push(format!(
            "{{\"threads\":{threads},\"mode\":\"ratio\",\"snapshot_over_owned\":{:.3}}}",
            tputs[0] / tputs[1].max(1e-9)
        ));
    }
    let json = format!(
        "{{\"workload\":\"{name}\",\"n\":{n},\"reps\":{reps},\"cores\":{cores},\
         \"entries\":[{}]}}\n",
        entries.join(",")
    );
    if target == "-" {
        print!("{json}");
    } else if let Err(e) = std::fs::write(target, &json) {
        eprintln!("cannot write {target}: {e}");
        return ExitCode::FAILURE;
    } else {
        eprintln!("wrote read-scaling record to {target}");
    }
    if gate_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--backend native` (no gate flag): the machine-vs-native wall-clock
/// record. Both executors run the same compiled workloads; each side
/// keeps its best-of-`--repeat` run time. The record is one JSON line
/// on stdout (the CI `native-speedup` artifact) — informational, not a
/// gate: wall time is hardware-dependent, unlike the counters.
fn run_native_speedup(opts: &Options) -> ExitCode {
    use perceus_suite::native::NativeHarness;

    let list = opts.workload.clone().unwrap_or_else(|| "rbtree,map".into());
    let names: Vec<&str> = list.split(',').map(str::trim).collect();
    let mut selected = Vec::new();
    for name in &names {
        match workload(name) {
            Some(w) => selected.push(w),
            None => {
                eprintln!("unknown workload `{name}`");
                usage();
            }
        }
    }
    let harness = match NativeHarness::for_workloads(&names, opts.strategy) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("native build failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rows = Vec::new();
    for w in &selected {
        let n = opts.n.unwrap_or(w.default_n);
        let (mut machine_ns, mut native_ns) = (u64::MAX, u64::MAX);
        for _ in 0..opts.repeat {
            let m = match harness.run_machine(w.name, n) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{}: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            };
            let nv = match harness.run_native(w.name, n) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{}: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            };
            if !m.ok || !nv.ok {
                eprintln!(
                    "{}: run failed (machine ok={}, native ok={})",
                    w.name, m.ok, nv.ok
                );
                return ExitCode::FAILURE;
            }
            machine_ns = machine_ns.min(m.wall_ns);
            native_ns = native_ns.min(nv.wall_ns);
        }
        let speedup = machine_ns as f64 / (native_ns as f64).max(1.0);
        eprintln!(
            "{:>10}  n={n:<8} machine={machine_ns:>12}ns native={native_ns:>12}ns \
             speedup={speedup:.2}x",
            w.name
        );
        rows.push(format!(
            "{{\"name\":\"{}\",\"n\":{n},\"machine_ns\":{machine_ns},\
             \"native_ns\":{native_ns},\"speedup\":{speedup:.3}}}",
            w.name
        ));
    }
    println!(
        "{{\"backend\":\"native\",\"strategy\":\"{}\",\"repeat\":{},\"workloads\":[{}]}}",
        opts.strategy.label(),
        opts.repeat,
        rows.join(",")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let opts = parse_args();
    if let Some(target) = &opts.counters_json {
        return run_counters_json(target);
    }
    if let Some(path) = &opts.check_baseline {
        return run_check_baseline(path, opts.tolerance, opts.backend);
    }
    if let Some(path) = &opts.check_certs {
        return run_check_certs(path);
    }
    if let Some(target) = opts.read_scaling.clone() {
        return run_read_scaling(&opts, &target);
    }
    if opts.backend == Backend::Native {
        return run_native_speedup(&opts);
    }
    let name = opts.workload.as_deref().unwrap_or("rbtree");
    let Some(w) = workload(name) else {
        eprintln!("unknown workload `{name}`");
        usage();
    };
    let n = opts.n.unwrap_or(w.default_n);
    println!(
        "# perceus-bench: {} under {}, {} threads, n={n}, {} repeats",
        w.name,
        opts.strategy.label(),
        opts.threads,
        opts.repeat
    );
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "repeat", "time", "runs/s", "atomic-ops", "rc-ops", "peak-words", "audit"
    );
    let mut best: Option<f64> = None;
    for k in 0..opts.repeat {
        let out = match run_parallel(&w, opts.strategy, n, opts.threads, RunConfig::default()) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        };
        let tput = out.throughput();
        best = Some(best.map_or(tput, |b: f64| b.max(tput)));
        let audit = match &out.shared_audit {
            Some(a) if a.live_blocks == 0 && a.pinned_blocks == 0 => "ok".to_string(),
            Some(a) => format!("ok({}p)", a.pinned_blocks),
            None => "n/a".to_string(),
        };
        println!(
            "{:<8} {:>9.3}s {:>12.1} {:>12} {:>12} {:>12} {:>8}",
            k + 1,
            out.elapsed.as_secs_f64(),
            tput,
            out.stats.atomic_ops,
            out.stats.rc_ops(),
            out.stats.peak_live_words,
            audit
        );
    }
    println!(
        "# best aggregate throughput: {:.1} runs/s across {} threads",
        best.unwrap_or(0.0),
        opts.threads
    );
    if opts.profile {
        return run_profile_section(&w, &opts, n);
    }
    ExitCode::SUCCESS
}

/// `--profile`: one extra (untimed) run with the attributed profiler on,
/// reporting where the RC traffic and allocations come from.
fn run_profile_section(w: &perceus_suite::Workload, opts: &Options, n: i64) -> ExitCode {
    let config = RunConfig::new().with_profile(true);
    let compiled = match perceus_suite::compile_workload(w.source, opts.strategy) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    let out = match run_parallel(w, opts.strategy, n, opts.threads, config) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    let Some(profiler) = out.profile else {
        eprintln!("{}: run produced no profile", w.name);
        return ExitCode::FAILURE;
    };
    println!(
        "# profile (one extra run, {} threads, merged)",
        opts.threads
    );
    println!(
        "{:<24} {:>8} {:>12} {:>10} {:>12} {:>10}",
        "function", "calls", "rc-ops", "allocs", "words", "reuses"
    );
    for r in profiler.per_frame() {
        println!(
            "{:<24} {:>8} {:>12} {:>10} {:>12} {:>10}",
            r.frame.name(&compiled),
            r.calls,
            r.counts.rc_ops(),
            r.counts.allocations,
            r.counts.alloc_words,
            r.counts.reuses
        );
    }
    let t = profiler.totals();
    println!(
        "# profile totals: {} rc-ops, {} allocations, {} reuses",
        t.rc_ops(),
        t.allocations,
        t.reuses
    );
    ExitCode::SUCCESS
}
