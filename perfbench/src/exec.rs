//! The three `exec-*` workloads: precompiled suite programs run on the
//! abstract machine. Front end, passes and serve do no work here; the
//! three sets use the same machine and heap through different paths.

use crate::expected::Expected;
use crate::report::Outcome;
use crate::stats::{geomean, median, summarize};
use crate::trace::{self_times_per_op, Trace};
use crate::{heapops, timed_setup, Args};
use perceus_runtime::code::Compiled;
use perceus_runtime::machine::{Machine, RunConfig};
use perceus_runtime::{ReclaimMode, RuntimeError, Stats, Value};
use perceus_suite::{compile_workload, run_workload, run_workload_budgeted, workload, Strategy};
use std::time::Instant;

/// A set of `(program, n)` at frozen sizes. Sizes give 0.05–0.35 s per
/// program on the 2-core reference container; see README.md for why
/// each program sits in its set.
pub struct Set {
    pub name: &'static str,
    pub programs: &'static [(&'static str, i64)],
}

/// Uniquely-owned data: constructions go through `drop_reuse` /
/// `alloc_into` / `is_unique` — machine dispatch and the heap's reuse
/// path do the work.
pub const REUSE: Set = Set {
    name: "exec-reuse",
    programs: &[
        ("rbtree", 50_000),
        ("tmap", 100_000),
        ("msort", 20_000),
        ("queue", 100_000),
    ],
};

/// Heavily shared data: `dup`/`drop`/`decref` dominate and reuse mostly
/// fails — the heap's counting path.
pub const SHARED: Set = Set {
    name: "exec-shared",
    programs: &[("deriv", 1_200), ("nqueens", 9), ("rbtree-ck", 20_000)],
};

/// Allocate-and-free churn through the size-class free lists and fresh
/// `alloc` — the heap's allocation path.
pub const CHURN: Set = Set {
    name: "exec-churn",
    programs: &[
        ("binarytrees", 14),
        ("cfold", 16),
        ("map", 500_000),
        ("tmap-rec", 100_000),
    ],
};

pub const SETS: [&Set; 3] = [&REUSE, &SHARED, &CHURN];

/// Fuel per leg of the budgeted run behind `machine.resume_overhead_ratio`:
/// 5–26 suspensions (each audited) per program at the frozen sizes.
const LEG_FUEL: u64 = 1_000_000;

struct Prog {
    name: &'static str,
    n: i64,
    compiled: Compiled,
    expected: String,
}

fn setup(set: &Set) -> Result<Vec<Prog>, String> {
    let expected = Expected::load()?;
    set.programs
        .iter()
        .map(|&(name, n)| {
            let w = workload(name).ok_or(format!("no workload {name:?}"))?;
            Ok(Prog {
                name,
                n,
                compiled: compile_workload(w.source, Strategy::Perceus)
                    .map_err(|e| format!("{name}: {e}"))?,
                expected: expected.get(name, n)?.to_string(),
            })
        })
        .collect()
}

/// One `Machine::new → run_entry → read_back → drop_result`, timed as a
/// whole; the spans inside are no-ops on a disabled trace.
fn run_once(p: &Prog, trace: &mut Trace) -> (f64, Result<Stats, String>) {
    let t = Instant::now();
    let (m, result) = trace.span("exec.run", |trace| {
        let mut m = trace.span("machine.new", |_| {
            Machine::new(&p.compiled, ReclaimMode::Rc, RunConfig::default())
        });
        let result = (|| {
            let v = trace.span("machine.run_entry", |_| m.run_entry(vec![Value::Int(p.n)]))?;
            let dv = trace.span("machine.read_back", |_| m.read_back(v))?;
            trace.span("machine.drop_result", |_| m.drop_result(v))?;
            Ok::<_, RuntimeError>(dv.to_string())
        })();
        (m, result)
    });
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let stats = m.heap.stats;
    let leaked = m.heap.live_blocks();
    // The heap's storage is released here, outside the timed region.
    drop(m);
    let checked = match result {
        Err(e) => Err(e.to_string()),
        Ok(got) if got != p.expected => Err(format!("got {got}, want {}", p.expected)),
        Ok(_) if leaked != 0 => Err(format!("{leaked} blocks leaked")),
        Ok(_) => Ok(stats),
    };
    (ms, checked.map_err(|e| format!("{}({}): {e}", p.name, p.n)))
}

/// What the sweeps of one window measured. Sample `i` of `ms[p]` is
/// program `p`'s wall time in sweep `i`; `traced[i]` says whether sweep
/// `i` recorded spans; `stats[p]` is program `p`'s counters.
struct Sweeps {
    ms: Vec<Vec<f64>>,
    traced: Vec<bool>,
    stats: Vec<Stats>,
    elapsed_s: f64,
}

/// Runs sweeps over the set until the window closes.
fn sweeps(progs: &[Prog], seconds: f64, trace: &mut Trace, out: &mut Outcome) -> Sweeps {
    let mut off = Trace::new(false);
    let mut s = Sweeps {
        ms: vec![Vec::new(); progs.len()],
        traced: Vec::new(),
        stats: vec![Stats::default(); progs.len()],
        elapsed_s: 0.0,
    };
    let mut sweep = |trace: &mut Trace, out: &mut Outcome, ms: Option<&mut Vec<Vec<f64>>>| {
        trace.next_op();
        let mut times = Vec::with_capacity(progs.len());
        for (p, stats) in progs.iter().zip(&mut s.stats) {
            let (t, checked) = run_once(p, trace);
            times.push(t);
            out.check(checked.map(|st| *stats = st));
        }
        if let Some(ms) = ms {
            ms.iter_mut().zip(times).for_each(|(v, t)| v.push(t));
        }
    };
    // The first sweep warms the allocator and the caches; it is checked
    // but not timed (rbtree: 1.08 s cold vs 0.65 s warm).
    let warm = Instant::now();
    sweep(&mut off, out, None);
    let sweep_s = warm.elapsed().as_secs_f64();
    let start = Instant::now();
    // A closed set of whole sweeps: stop when the next one would not fit
    // (but a traced run needs one sweep of each kind).
    let least = if trace.enabled() { 2 } else { 1 };
    while s.traced.len() < least || start.elapsed().as_secs_f64() + sweep_s <= seconds {
        // A traced run alternates, so both kinds see the same machine.
        let on = trace.enabled() && s.traced.len() % 2 == 1;
        sweep(
            if on { &mut *trace } else { &mut off },
            out,
            Some(&mut s.ms),
        );
        s.traced.push(on);
    }
    s.elapsed_s = start.elapsed().as_secs_f64();
    s
}

/// Geometric mean over programs of each program's median ms over the
/// sweeps selected by `pick`, and how many sweeps that is.
fn geomean_p50(s: &Sweeps, pick: impl Fn(usize) -> bool) -> (f64, usize) {
    let mut n = 0;
    let medians: Vec<f64> =
        s.ms.iter()
            .map(|ms| {
                let picked: Vec<f64> = (0..ms.len()).filter(|i| pick(*i)).map(|i| ms[i]).collect();
                n = picked.len();
                median(&picked)
            })
            .collect();
    (geomean(&medians), n)
}

/// How much slower than its own median an untraced run is at the tail.
/// A window holds too few runs of one program for a tail, so each run is
/// divided by its program's median and the ratios are pooled: the pool
/// supports a percentile that no single program does.
fn tail_slowdown(s: &Sweeps) -> (f64, usize) {
    let ratios: Vec<f64> =
        s.ms.iter()
            .flat_map(|ms| {
                let plain: Vec<f64> = (0..ms.len())
                    .filter(|i| !s.traced[*i])
                    .map(|i| ms[i])
                    .collect();
                let p50 = median(&plain);
                plain.into_iter().map(move |t| t / p50)
            })
            .collect();
    (summarize(&ratios).tail, ratios.len())
}

pub fn run(set: &Set, args: &Args) -> Result<Outcome, String> {
    let ready = timed_setup(|| setup(set), drop)?;
    let progs = ready.state;
    let mut out = Outcome::default();
    let mut trace = Trace::new(args.trace);

    if !args.trace {
        let s = sweeps(&progs, args.seconds, &mut trace, &mut out);
        let (p50, n) = geomean_p50(&s, |_| true);
        out.put("setup_s", ready.setup_s, "s", ready.reps);
        out.put("work_ms_p50", p50, "ms", n);
        out.put(
            "ops_per_s",
            (n * progs.len()) as f64 / s.elapsed_s,
            "1/s",
            n * progs.len(),
        );
        return Ok(out);
    }

    // Traced run: the probes first, then alternating sweeps in what is
    // left of the window.
    let whole = Instant::now();
    heapops::measure(&mut out);
    resume_overhead(&progs[0], &mut out)?;
    let left = (args.seconds - whole.elapsed().as_secs_f64()).max(1.0);
    let s = sweeps(&progs, left, &mut trace, &mut out);

    let (untraced, _) = geomean_p50(&s, |i| !s.traced[i]);
    let (slowdown, pooled) = tail_slowdown(&s);
    out.put("work_ms_tail", untraced * slowdown, "ms", pooled);
    let (traced, n_traced) = geomean_p50(&s, |i| s.traced[i]);
    out.put("trace_overhead_ratio", traced / untraced, "ratio", n_traced);
    for (p, ms) in progs.iter().zip(&s.ms) {
        out.put(
            format!("machine.run_ms.{}", p.name),
            median(ms),
            "ms",
            ms.len(),
        );
    }
    let per_sweep = self_times_per_op(trace.spans());
    let us = |name: &str| -> (f64, usize) {
        let v = per_sweep.get(name).map(Vec::as_slice).unwrap_or(&[]);
        (median(v) / 1e3, v.len())
    };
    let total: Stats = s.stats.iter().fold(Stats::default(), |a, b| a.merge(b));
    let (run_us, n) = us("machine.run_entry");
    out.put(
        "machine.ns_per_step",
        run_us * 1e3 / total.steps.max(1) as f64,
        "ns",
        n,
    );
    for name in ["machine.new", "machine.read_back", "machine.drop_result"] {
        let (v, n) = us(name);
        out.put(format!("{name}_us"), v, "us", n);
    }
    out.count("machine.steps", total.steps);
    heap_counts(&total, &s.stats, &mut out);
    crate::write_trace(set.name, &trace)?;
    Ok(out)
}

/// The heap's work as counts, summed over one run of each program, and
/// the useful-outcome ratios. `Stats::merge` takes the larger peak, but
/// Fig. 9's memory column is per program, so peaks are summed here.
fn heap_counts(total: &Stats, per_prog: &[Stats], out: &mut Outcome) {
    out.count("heap.allocations", total.allocations);
    out.count("heap.reuses", total.reuses);
    out.count("heap.dups", total.dups);
    out.count("heap.drops", total.drops);
    out.count("heap.decrefs", total.decrefs);
    out.count("heap.unique_tests", total.unique_tests);
    out.count("heap.freelist_hits", total.freelist_hits);
    out.count("heap.freelist_misses", total.freelist_misses);
    out.count(
        "heap.peak_live_words",
        per_prog.iter().map(|s| s.peak_live_words).sum(),
    );
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    out.put(
        "heap.reuse_ratio",
        ratio(total.reuses, total.reuses + total.allocations),
        "ratio",
        1,
    );
    out.put(
        "heap.freelist_hit_ratio",
        ratio(
            total.freelist_hits,
            total.freelist_hits + total.freelist_misses,
        ),
        "ratio",
        1,
    );
    out.put(
        "heap.unique_hit_ratio",
        ratio(total.unique_hits, total.unique_tests),
        "ratio",
        1,
    );
}

/// The checkpoint path: the set's first program run in fixed-fuel legs
/// (suspend, audit, resume) against the same program run straight.
fn resume_overhead(p: &Prog, out: &mut Outcome) -> Result<(), String> {
    let mut ratios = Vec::new();
    let mut legs = 0;
    for _ in 0..3 {
        let t = Instant::now();
        let straight = run_workload(&p.compiled, Strategy::Perceus, p.n, RunConfig::default())
            .map_err(|e| e.to_string())?;
        let straight_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let legged = run_workload_budgeted(
            &p.compiled,
            Strategy::Perceus,
            p.n,
            RunConfig::default(),
            &[LEG_FUEL],
        )
        .map_err(|e| e.to_string())?;
        ratios.push(t.elapsed().as_secs_f64() / straight_s);
        legs = legged.suspensions + 1;
        out.check(
            match perceus_suite::determinism_divergence(&straight, &legged) {
                None => Ok(()),
                Some(d) => Err(format!("{}({}) resumed run diverged: {d}", p.name, p.n)),
            },
        );
    }
    out.put(
        "machine.resume_overhead_ratio",
        median(&ratios),
        "ratio",
        ratios.len(),
    );
    out.count("machine.legs", legs);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_name_registered_programs_once() {
        let mut all: Vec<&str> = SETS
            .iter()
            .flat_map(|s| s.programs.iter().map(|p| p.0))
            .collect();
        assert_eq!(all.len(), 11);
        assert!(all.iter().all(|p| workload(p).is_some()));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 11);
    }
}
