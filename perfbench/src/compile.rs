//! `compile-cold`: source → `Compiled` for every suite program under
//! the strategies the daemon and the figures compile with, plus seeded
//! generated programs of growing size. Front end, every λ¹ pass, the
//! resource checker and lowering do all the work; the machine and heap
//! do none inside the timed sweeps.

use crate::expected::Expected;
use crate::report::Outcome;
use crate::stats::{median, summarize};
use crate::trace::{self_times_per_op, Trace};
use crate::{timed_setup, Args};
use perceus_core::check as linear;
use perceus_core::ir::Program;
use perceus_core::passes::normalize::normalize_program;
use perceus_core::passes::{PassConfig, PassName, Pipeline};
use perceus_lang::{lower, parser, resolve, types};
use perceus_runtime::code::{self, Compiled};
use perceus_runtime::machine::RunConfig;
use perceus_suite::driver::oracle_run_program;
use perceus_suite::genprog::random_program;
use perceus_suite::{
    compile_borrowing, compile_workload, run_workload, workloads, Strategy, Workload,
};
use std::time::Instant;

pub const NAME: &str = "compile-cold";

/// The strategies every suite program is compiled under: the daemon
/// accepts exactly the garbage-free ones, and they exercise three
/// different pass schedules (all nine passes but `scoped`; insertion
/// only; `scoped` only).
const STRATEGIES: [Strategy; 3] = [Strategy::Perceus, Strategy::PerceusNoOpt, Strategy::Scoped];

/// Suite programs also compiled under borrow inference: the ones the
/// daemon serves as `"borrow":true` snapshot reads (those with a
/// `ParallelSpec`), so the `borrow` pass is on the clock too.
fn borrowing(w: &Workload) -> bool {
    w.parallel.is_some()
}

/// Sizes of the generated programs: eight steps from 40 to 400 nodes of
/// generator budget, well past the ≤ 102-line suite sources.
const GEN_SIZES: [u32; 8] = [40, 91, 143, 194, 246, 297, 349, 400];

/// Generator seed of the first generated program. It is a constant, not
/// the run's `--seed`: compile cost per generated program varies ±70 %
/// from one generator seed to the next, and the driver takes a metric's
/// spread across runs with different `--seed`s, so a seed that changed
/// the programs would drown a 10 % regression in input variation (see
/// `Args::seed`).
const GEN_SEED: u64 = 2021;

/// Argument and oracle fuel for checking a generated program once.
const GEN_ARG: i64 = 3;
const GEN_FUEL: u64 = 5_000_000;

struct Inputs {
    expected: Expected,
    generated: Vec<Program>,
}

fn setup() -> Result<Inputs, String> {
    Ok(Inputs {
        expected: Expected::load()?,
        generated: GEN_SIZES
            .iter()
            .enumerate()
            .map(|(i, &size)| random_program(GEN_SEED + i as u64, size))
            .collect(),
    })
}

/// Every `(program, n)` whose reference value this workload needs.
pub fn expected_items() -> Vec<(&'static str, i64)> {
    workloads().iter().map(|w| (w.name, w.test_n)).collect()
}

fn pass_span(pass: PassName) -> &'static str {
    match pass {
        PassName::Normalize => "passes.normalize",
        PassName::Inline => "passes.inline",
        PassName::Reuse => "passes.reuse",
        PassName::Borrow => "passes.borrow",
        PassName::Insert => "passes.insert",
        PassName::Scoped => "passes.scoped",
        PassName::ReuseSpec => "passes.reuse-spec",
        PassName::DropSpec => "passes.drop-spec",
        PassName::Fuse => "passes.fuse",
    }
}

fn nodes(p: &Program) -> u64 {
    p.funs().map(|(_, f)| f.body.size() as u64).sum()
}

/// Exact counts of one sweep's work; identical on every sweep of every
/// run of one build and seed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    src_bytes: u64,
    nodes_in: u64,
    nodes_out: u64,
    funs: u64,
    emitted_bytes: u64,
}

/// Core program → `Compiled`, stage by stage under spans. Does what
/// `perceus_suite::driver::compile_program` does in one call.
fn back_end(
    program: Program,
    config: PassConfig,
    trace: &mut Trace,
    counts: &mut Counts,
) -> Result<Compiled, String> {
    counts.nodes_in += nodes(&program);
    let rc = config.strategy() != perceus_core::passes::RcStrategy::None;
    let staged = trace.span("passes.total", |trace| {
        let staged = Pipeline::new(config).stages(program);
        if let Ok(st) = &staged {
            for (pass, elapsed) in st.timings() {
                trace.record(pass_span(pass), elapsed.as_nanos() as u64);
            }
        }
        staged
    });
    let program = staged.map_err(|e| e.to_string())?.into_final();
    counts.nodes_out += nodes(&program);
    if rc {
        trace
            .span("check.linear", |_| linear::check_program(&program))
            .map_err(|e| e.to_string())?;
    }
    let compiled = trace
        .span("code.compile", |_| code::compile(&program))
        .map_err(|e| e.to_string())?;
    counts.funs += compiled.funs.len() as u64;
    Ok(compiled)
}

fn front_end(src: &str, trace: &mut Trace, counts: &mut Counts) -> Result<Program, String> {
    counts.src_bytes += src.len() as u64;
    let ast = trace
        .span("lang.parse", |_| parser::parse(src))
        .map_err(|e| e.to_string())?;
    let syms = trace
        .span("lang.resolve", |_| resolve::resolve(&ast))
        .map_err(|e| e.to_string())?;
    trace
        .span("lang.infer", |_| types::check(&ast, &syms))
        .map_err(|e| e.to_string())?;
    trace
        .span("lang.lower", |_| lower::lower_checked(&ast, &syms))
        .map(|(p, _)| p)
        .map_err(|e| e.to_string())
}

/// One compile of the sweep: which program, and how.
enum Job<'a> {
    Suite(&'a Workload, Strategy),
    Borrowing(&'a Workload),
    Generated(usize, &'a Program),
}

impl Job<'_> {
    fn label(&self) -> String {
        match self {
            Job::Suite(w, s) => format!("{} under {}", w.name, s.label()),
            Job::Borrowing(w) => format!("{} under perceus+borrow", w.name),
            Job::Generated(i, _) => format!("generated #{i} (size {})", GEN_SIZES[*i]),
        }
    }

    /// The whole-call path the untraced run times.
    fn compile(&self) -> Result<Compiled, String> {
        match self {
            Job::Suite(w, s) => compile_workload(w.source, *s).map_err(|e| e.to_string()),
            Job::Borrowing(w) => compile_borrowing(w.source).map_err(|e| e.to_string()),
            Job::Generated(_, p) => {
                perceus_suite::driver::compile_program((*p).clone(), Strategy::Perceus)
                    .map_err(|e| e.to_string())
            }
        }
    }

    /// The same work with a span around every stage.
    fn compile_traced(&self, trace: &mut Trace, counts: &mut Counts) -> Result<Compiled, String> {
        match self {
            Job::Suite(w, s) => {
                let p = front_end(w.source, trace, counts)?;
                back_end(p, s.pass_config(), trace, counts)
            }
            Job::Borrowing(w) => {
                let p = front_end(w.source, trace, counts)?;
                back_end(p, PassConfig::perceus_borrowing(), trace, counts)
            }
            Job::Generated(_, p) => back_end((*p).clone(), PassConfig::perceus(), trace, counts),
        }
    }
}

/// Every compile of a sweep.
fn jobs(inputs: &Inputs) -> Vec<Job<'_>> {
    let mut jobs = Vec::new();
    for w in workloads() {
        jobs.extend(STRATEGIES.map(|s| Job::Suite(w, s)));
        if borrowing(w) {
            jobs.push(Job::Borrowing(w));
        }
    }
    jobs.extend(
        inputs
            .generated
            .iter()
            .enumerate()
            .map(|(i, p)| Job::Generated(i, p)),
    );
    jobs
}

/// Runs what one job compiled and compares it with the reference — the
/// oracle's value from `expected.json`, or for a generated program the
/// oracle run on the spot. Done once, outside the timed sweeps.
fn check_output(job: &Job<'_>, compiled: &Compiled, expected: &Expected) -> Result<(), String> {
    let (n, want) = match job {
        Job::Suite(w, _) | Job::Borrowing(w) => {
            (w.test_n, expected.get(w.name, w.test_n)?.to_string())
        }
        Job::Generated(_, p) => {
            // The generator leaves lambda captures to the normalizer,
            // and the oracle needs them.
            let mut p = (*p).clone();
            normalize_program(&mut p);
            let (v, _) = oracle_run_program(&p, GEN_ARG, GEN_FUEL).map_err(|e| e.to_string())?;
            (GEN_ARG, v.to_string())
        }
    };
    let strategy = match job {
        Job::Suite(_, s) => *s,
        _ => Strategy::Perceus,
    };
    let run =
        run_workload(compiled, strategy, n, RunConfig::default()).map_err(|e| e.to_string())?;
    if run.value.to_string() != want {
        return Err(format!("main({n}) = {}, want {want}", run.value));
    }
    if run.leaked_blocks != 0 {
        return Err(format!("main({n}) leaked {} blocks", run.leaked_blocks));
    }
    Ok(())
}

/// One sweep over every job: compiles them all under one timer, then
/// (off the clock) hands each result to `each` and, when traced, emits
/// the Perceus builds. Returns the compiles' wall ms.
fn sweep(
    jobs: &[Job<'_>],
    trace: &mut Trace,
    counts: &mut Counts,
    out: &mut Outcome,
    mut each: impl FnMut(usize, &Job<'_>, &Compiled, &mut Outcome),
) -> f64 {
    trace.next_op();
    let t = Instant::now();
    let mut compiled = Vec::with_capacity(jobs.len());
    for job in jobs {
        compiled.push(if trace.enabled() {
            job.compile_traced(trace, counts)
        } else {
            job.compile()
        });
    }
    let ms = t.elapsed().as_secs_f64() * 1e3;
    for (i, (job, c)) in jobs.iter().zip(&compiled).enumerate() {
        match c {
            Ok(c) => {
                out.attempted += 1;
                each(i, job, c, out);
            }
            Err(e) => out.check(Err(format!("{}: {e}", job.label()))),
        }
    }
    if trace.enabled() {
        // The native backend's emitter: pure and deterministic, so it is
        // a layer timing; its build+run is not a workload (README.md).
        let perceus: Vec<(String, &Compiled)> = jobs
            .iter()
            .zip(&compiled)
            .filter_map(|(j, c)| match (j, c) {
                (Job::Suite(w, Strategy::Perceus), Ok(c)) => Some((w.name.to_string(), c)),
                _ => None,
            })
            .collect();
        match trace.span("codegen.emit", |_| perceus_codegen::emit_batch(&perceus)) {
            Ok(text) => counts.emitted_bytes += text.len() as u64,
            Err(e) => out.fail(format!("emit_batch: {e}")),
        }
    }
    ms
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let ready = timed_setup(setup, drop)?;
    let inputs = ready.state;
    let jobs = jobs(&inputs);
    let mut out = Outcome::default();
    let mut off = Trace::new(false);
    let mut trace = Trace::new(args.trace);
    let mut scratch = Counts::default();

    // Warm-up sweep: untimed, and the one place outputs are checked by
    // running them. Later sweeps must compile the same number of
    // functions per job.
    let mut funs = vec![0usize; jobs.len()];
    sweep(&jobs, &mut off, &mut scratch, &mut out, |i, job, c, out| {
        funs[i] = c.funs.len();
        if let Err(e) = check_output(job, c, &inputs.expected) {
            out.fail(format!("{}: {e}", job.label()));
        }
    });
    let same_funs = |i: usize, job: &Job<'_>, c: &Compiled, out: &mut Outcome| {
        if c.funs.len() != funs[i] {
            out.fail(format!(
                "{}: {} functions, first sweep had {}",
                job.label(),
                c.funs.len(),
                funs[i]
            ));
        }
    };

    let start = Instant::now();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut counts = Counts::default();
    while start.elapsed().as_secs_f64() < args.seconds {
        // A traced run alternates, so both kinds see the same machine.
        if args.trace && untraced_ms.len() > traced_ms.len() {
            let mut c = Counts::default();
            traced_ms.push(sweep(&jobs, &mut trace, &mut c, &mut out, same_funs));
            if counts != Counts::default() && c != counts {
                out.fail(format!("sweep counts changed: {c:?} vs {counts:?}"));
            }
            counts = c;
        } else {
            untraced_ms.push(sweep(&jobs, &mut off, &mut scratch, &mut out, same_funs));
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();

    if !args.trace {
        let s = summarize(&untraced_ms);
        out.put("setup_s", ready.setup_s, "s", ready.reps);
        out.put("work_ms_p50", s.p50, "ms", s.n);
        out.put(
            "ops_per_s",
            (s.n * jobs.len()) as f64 / elapsed_s,
            "1/s",
            s.n * jobs.len(),
        );
        return Ok(out);
    }

    let plain = summarize(&untraced_ms);
    out.put("work_ms_tail", plain.tail, "ms", plain.n);
    out.put(
        "trace_overhead_ratio",
        median(&traced_ms) / plain.p50,
        "ratio",
        traced_ms.len(),
    );
    let per_sweep = self_times_per_op(trace.spans());
    let median_us = |span: &str| -> (f64, usize) {
        let v = per_sweep.get(span).map(Vec::as_slice).unwrap_or(&[]);
        (median(v) / 1e3, v.len())
    };
    let mut front_us = 0.0;
    for span in ["lang.parse", "lang.resolve", "lang.infer", "lang.lower"] {
        let (v, n) = median_us(span);
        front_us += v;
        out.put(format!("{span}_us"), v, "us", n);
    }
    // `passes.total` as a span is the pipeline's own bookkeeping; the
    // metric is the whole pipeline, so the passes are added back.
    let (mut passes_us, n) = median_us("passes.total");
    for pass in PassName::ALL {
        let (v, n) = median_us(pass_span(pass));
        passes_us += v;
        out.put(format!("{}_us", pass_span(pass)), v, "us", n);
    }
    out.put("passes.total_us", passes_us, "us", n);
    for span in ["check.linear", "code.compile", "codegen.emit"] {
        let (v, n) = median_us(span);
        out.put(format!("{span}_us"), v, "us", n);
    }
    out.count("lang.src_bytes", counts.src_bytes);
    out.put(
        "lang.bytes_per_s",
        counts.src_bytes as f64 / (front_us / 1e6),
        "1/s",
        n,
    );
    out.count("passes.nodes_in", counts.nodes_in);
    out.count("passes.nodes_out", counts.nodes_out);
    out.count("code.funs", counts.funs);
    out.count("codegen.emitted_bytes", counts.emitted_bytes);
    crate::write_trace(NAME, &trace)?;
    Ok(out)
}
