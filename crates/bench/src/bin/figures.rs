//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! figures [EXPERIMENT…] [--repeat K] [--scale PCT] [--n NAME=SIZE]
//!
//! experiments:
//!   fig9-time   Fig. 9 (top): relative execution time per strategy
//!   fig9-rss    Fig. 9 (bottom): relative peak working set
//!   rcops       §2.3–2.5: reference-count operation counts
//!   fbip        §2.6: FBIP traversal — allocation-free in-place mapping
//!   ablate      per-optimization ablation (reuse, drop-spec, …)
//!   shared      §2.7.2: thread-shared atomic operation costs
//!   borrow      §6 extension: inferred borrowed parameters
//!   alloc       allocator ablation: size-class free lists on vs. off
//!   extra       additional workloads (msort, binarytrees, queue, …)
//!   all         everything above (default)
//! ```
//!
//! The figures normalize to the full-Perceus configuration, exactly as
//! the paper normalizes to Koka. Fig. 11 (Appendix C) is the same
//! harness re-run on a second machine; invoke `fig9-time`/`fig9-rss`
//! there.

#![forbid(unsafe_code)]

use perceus_bench::measure::{measure, Measurement};
use perceus_core::passes::{Ablation, PassConfig};
use perceus_runtime::machine::RunConfig;
use perceus_suite::{
    compile_with_config, run_parallel, run_workload, workload, workloads, Strategy, Workload,
};
use std::collections::HashMap;

struct Options {
    experiments: Vec<String>,
    repeat: usize,
    scale: f64,
    sizes: HashMap<String, i64>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        experiments: Vec::new(),
        repeat: 3,
        scale: 1.0,
        sizes: HashMap::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--repeat" => {
                opts.repeat = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--repeat K");
            }
            "--scale" => {
                let pct: f64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale PCT");
                opts.scale = pct / 100.0;
            }
            "--n" => {
                let kv = args.next().expect("--n NAME=SIZE");
                let (name, size) = kv.split_once('=').expect("--n NAME=SIZE");
                opts.sizes
                    .insert(name.to_string(), size.parse().expect("size"));
            }
            other => opts.experiments.push(other.to_string()),
        }
    }
    if opts.experiments.is_empty() || opts.experiments.iter().any(|e| e == "all") {
        opts.experiments = [
            "fig9-time",
            "fig9-rss",
            "rcops",
            "fbip",
            "ablate",
            "shared",
            "borrow",
            "alloc",
            "extra",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    opts
}

fn size_for(opts: &Options, w: &Workload) -> i64 {
    opts.sizes
        .get(w.name)
        .copied()
        .unwrap_or(((w.default_n as f64) * opts.scale).max(1.0) as i64)
}

fn main() {
    let opts = parse_args();
    println!("# Perceus reproduction — figure harness");
    println!(
        "# repeat={} scale={:.0}%  (strategies: {})",
        opts.repeat,
        opts.scale * 100.0,
        Strategy::ALL
            .iter()
            .map(|s| format!("{} = {}", s.label(), s.paper_column()))
            .collect::<Vec<_>>()
            .join("; ")
    );
    for e in opts.experiments.clone() {
        match e.as_str() {
            "fig9-time" => fig9(&opts, Metric::Time),
            "fig9-rss" => fig9(&opts, Metric::PeakWords),
            "rcops" => rcops(&opts),
            "fbip" => fbip(&opts),
            "ablate" => ablate(&opts),
            "shared" => shared(&opts),
            "borrow" => borrow(&opts),
            "alloc" => alloc_ablation(&opts),
            "extra" => extra(&opts),
            other => eprintln!("unknown experiment `{other}` (skipped)"),
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Metric {
    Time,
    PeakWords,
}

/// Fig. 9: the five benchmarks × five strategies, normalized to Perceus.
fn fig9(opts: &Options, metric: Metric) {
    match metric {
        Metric::Time => println!("\n## Fig. 9 (top): relative execution time (lower is better)"),
        Metric::PeakWords => {
            println!("\n## Fig. 9 (bottom): relative peak working set (live heap words)")
        }
    }
    println!(
        "{:<12} {:>9} | {:>14} {:>14} {:>14} {:>14} {:>14}",
        "benchmark", "n", "perceus", "no-opt", "scoped-rc", "tracing-gc", "arena"
    );
    for w in workloads().iter().filter(|w| w.in_figure9) {
        let n = size_for(opts, w);
        let mut cells = Vec::new();
        let mut base: Option<f64> = None;
        let mut result: Option<i64> = None;
        for s in Strategy::ALL {
            match measure(w, s, n, opts.repeat) {
                Ok(m) => {
                    if let Some(r) = result {
                        assert_eq!(r, m.result, "{}: strategies disagree!", w.name);
                    }
                    result = Some(m.result);
                    let v = match metric {
                        Metric::Time => m.secs(),
                        Metric::PeakWords => m.stats.peak_live_words as f64,
                    };
                    let b = *base.get_or_insert(v);
                    let cell = match metric {
                        Metric::Time => format!("{:>6.2}x {:>6.2}s", v / b, v),
                        Metric::PeakWords => {
                            format!("{:>6.2}x {:>6}k", v / b, (v / 1000.0) as u64)
                        }
                    };
                    cells.push(cell);
                }
                Err(e) => cells.push(format!("error: {e}")),
            }
        }
        println!(
            "{:<12} {:>9} | {}",
            w.name,
            n,
            cells
                .iter()
                .map(|c| format!("{c:>14}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
}

/// §2.3–2.5: counts of reference-count operations and allocations — the
/// quantities the optimizations remove.
fn rcops(opts: &Options) {
    println!("\n## rc operations (map over a fresh list; rbtree)");
    println!(
        "{:<10} {:<16} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10} {:>8}",
        "benchmark", "strategy", "dup", "drop", "decref", "is-unique", "alloc", "reuse", "reuse%"
    );
    for name in ["map", "rbtree"] {
        let w = workload(name).expect("registered");
        let n = size_for(opts, &w).min(20_000);
        for s in [Strategy::Perceus, Strategy::PerceusNoOpt, Strategy::Scoped] {
            let m = measure(&w, s, n, 1).expect("measure");
            let st = m.stats;
            println!(
                "{:<10} {:<16} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10} {:>7.1}%",
                name,
                s.label(),
                st.dups,
                st.drops,
                st.decrefs,
                st.unique_tests,
                st.allocations,
                st.reuses,
                st.reuse_rate() * 100.0
            );
        }
    }
}

/// §2.6: the FBIP traversal maps a tree with zero fresh allocations and
/// zero continuation-stack growth; the recursive version allocates
/// frames instead.
fn fbip(opts: &Options) {
    println!("\n## FBIP (§2.6): in-order tree map, unique tree");
    println!(
        "{:<10} {:>9} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "variant", "n", "time", "alloc", "reuse", "skipped-wr", "result"
    );
    for name in ["tmap", "tmap-rec"] {
        let w = workload(name).expect("registered");
        let n = size_for(opts, &w);
        let m = measure(&w, Strategy::Perceus, n, opts.repeat).expect("measure");
        // Building the input tree takes n allocations; everything the
        // traversal itself does should be reuse.
        println!(
            "{:<10} {:>9} {:>9.2}s {:>10} {:>12} {:>12} {:>10}",
            name,
            n,
            m.secs(),
            m.stats.allocations,
            m.stats.reuses,
            m.stats.skipped_writes,
            m.result
        );
    }
}

/// Ablation: each optimization individually disabled (the design-choice
/// study DESIGN.md calls out).
fn ablate(opts: &Options) {
    println!("\n## ablation: perceus with one optimization disabled");
    println!(
        "{:<10} {:<22} {:>10} {:>12} {:>10} {:>10} {:>12}",
        "benchmark", "config", "time", "rc-ops", "alloc", "reuse", "peak-words"
    );
    let configs: Vec<(String, PassConfig)> =
        std::iter::once(("full".to_string(), PassConfig::perceus()))
            .chain(
                [
                    Ablation::Reuse,
                    Ablation::ReuseSpec,
                    Ablation::DropSpec,
                    Ablation::Fuse,
                    Ablation::Inline,
                ]
                .into_iter()
                .map(|ab| (format!("without-{ab:?}"), PassConfig::perceus().without(ab))),
            )
            .collect();
    for name in ["rbtree", "cfold"] {
        let w = workload(name).expect("registered");
        let n = size_for(opts, &w).min(20_000);
        for (label, cfg) in &configs {
            let compiled = compile_with_config(w.source, cfg.clone()).expect("compile");
            let start = std::time::Instant::now();
            let out =
                run_workload(&compiled, Strategy::Perceus, n, RunConfig::default()).expect("run");
            let t = start.elapsed();
            println!(
                "{:<10} {:<22} {:>9.2}s {:>12} {:>10} {:>10} {:>12}",
                name,
                label,
                t.as_secs_f64(),
                out.stats.rc_ops(),
                out.stats.allocations,
                out.stats.reuses,
                out.stats.peak_live_words
            );
        }
    }
}

/// §2.7.2: the dual-mode rc costs. In-machine `tshare` flips headers
/// to the sticky-negative encoding on the *local* heap — a slow path,
/// but not an atomic one. Real atomics only appear when a structure
/// crosses a thread boundary through the shared segment, which the
/// parallel driver exercises at increasing thread counts.
fn shared(opts: &Options) {
    println!("\n## thread-shared (§2.7.2): local sticky marking vs. real atomic sharing");
    let w = workload("refs").expect("registered");
    let n = size_for(opts, &w);
    let m = measure(&w, Strategy::Perceus, n, 1).expect("measure");
    let st = m.stats;
    println!(
        "refs(n={n}) single-thread: rc-ops={} local-shared={} ({:.1}%) atomic={} shared-marks={}",
        st.rc_ops(),
        st.local_shared_ops,
        100.0 * st.local_shared_ops as f64 / st.rc_ops().max(1) as f64,
        st.atomic_ops,
        st.shared_marks
    );
    println!(
        "{:<10} {:>8} {:>10} {:>12} {:>12} {:>12}",
        "workload", "threads", "time", "runs/s", "atomic-ops", "rc-ops"
    );
    let w = workload("map").expect("registered");
    let n = size_for(opts, &w).min(20_000);
    for threads in [1, 2, 4] {
        match run_parallel(&w, Strategy::Perceus, n, threads, RunConfig::default()) {
            Ok(out) => println!(
                "{:<10} {:>8} {:>9.2}s {:>12.1} {:>12} {:>12}",
                w.name,
                threads,
                out.elapsed.as_secs_f64(),
                out.throughput(),
                out.stats.atomic_ops,
                out.stats.rc_ops()
            ),
            Err(e) => println!("{} at {threads} threads: {e}", w.name),
        }
    }
}

/// §6 extension: inferred borrowed parameters. Fewer rc operations on
/// inspection-heavy code (the paper's motivation for naming it as
/// future work); programs are no longer garbage-free during a call, but
/// stay balanced — the heap is empty at exit.
fn borrow(opts: &Options) {
    println!("\n## borrowing (§6 extension): owned vs inferred-borrowed parameters");
    println!(
        "{:<10} {:<10} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "benchmark", "convention", "time", "dup", "drop", "rc-ops", "peak-words"
    );
    for name in ["rbtree", "cfold", "deriv", "nqueens", "map"] {
        let w = workload(name).expect("registered");
        let n = size_for(opts, &w).min(50_000);
        for (label, cfg) in [
            ("owned", PassConfig::perceus()),
            ("borrowed", PassConfig::perceus_borrowing()),
        ] {
            let compiled = compile_with_config(w.source, cfg).expect("compile");
            let start = std::time::Instant::now();
            let out =
                run_workload(&compiled, Strategy::Perceus, n, RunConfig::default()).expect("run");
            let t = start.elapsed();
            assert_eq!(out.leaked_blocks, 0, "borrowing stays balanced");
            println!(
                "{:<10} {:<10} {:>9.2}s {:>12} {:>12} {:>12} {:>12}",
                name,
                label,
                t.as_secs_f64(),
                out.stats.dups,
                out.stats.drops,
                out.stats.rc_ops(),
                out.stats.peak_live_words
            );
        }
    }
}

/// Allocator ablation: the size-class free lists on (default) vs. off
/// (vacated headers never relisted: every allocation bumps the arena). Hit rate and recycled
/// words quantify how much of each workload's allocation traffic the
/// lists absorb; see docs/RUNTIME.md for the design.
fn alloc_ablation(opts: &Options) {
    println!("\n## allocator ablation: size-class free lists on vs. off");
    println!(
        "{:<10} {:<10} {:>10} {:>12} {:>12} {:>8} {:>14} {:>10}",
        "benchmark",
        "freelists",
        "time",
        "fl-hits",
        "fl-misses",
        "hit%",
        "recycled-words",
        "classes"
    );
    for name in ["rbtree", "cfold", "deriv", "map"] {
        let w = workload(name).expect("registered");
        let n = size_for(opts, &w).min(50_000);
        let compiled = compile_with_config(w.source, PassConfig::perceus()).expect("compile");
        for (label, recycle) in [("on", true), ("off", false)] {
            let cfg = RunConfig::new().with_heap_recycle(recycle);
            let start = std::time::Instant::now();
            let out = run_workload(&compiled, Strategy::Perceus, n, cfg).expect("run");
            let t = start.elapsed();
            let st = out.stats;
            println!(
                "{:<10} {:<10} {:>9.2}s {:>12} {:>12} {:>7.1}% {:>14} {:>10}",
                name,
                label,
                t.as_secs_f64(),
                st.freelist_hits,
                st.freelist_misses,
                st.freelist_hit_rate() * 100.0,
                st.recycled_words,
                out.free_list_occupancy.len()
            );
        }
    }
}

/// Extra workloads beyond the paper's five: the same perceus-vs-GC
/// comparison on merge sort (FBIP-style splits/merges), binary-trees
/// churn, and Okasaki's batched queue.
fn extra(opts: &Options) {
    println!("\n## extra workloads (perceus vs tracing-gc)");
    println!(
        "{:<12} {:>9} {:<12} {:>10} {:>10} {:>10} {:>8} {:>12}",
        "workload", "n", "strategy", "time", "alloc", "reuse", "reuse%", "peak-words"
    );
    for name in ["msort", "binarytrees", "queue", "exn"] {
        let w = workload(name).expect("registered");
        let n = size_for(opts, &w);
        for s in [Strategy::Perceus, Strategy::Gc] {
            match measure(&w, s, n, opts.repeat.min(2)) {
                Ok(m) => println!(
                    "{:<12} {:>9} {:<12} {:>9.2}s {:>10} {:>10} {:>7.1}% {:>12}",
                    name,
                    n,
                    s.label(),
                    m.secs(),
                    m.stats.allocations,
                    m.stats.reuses,
                    m.stats.reuse_rate() * 100.0,
                    m.stats.peak_live_words
                ),
                Err(e) => println!("{name} under {}: {e}", s.label()),
            }
        }
    }
}

// Re-exported measurement type referenced in docs.
#[allow(unused_imports)]
use Measurement as _;
