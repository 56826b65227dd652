//! `perceus-suite` — the suite's command-line entry point.
//!
//! ```text
//! perceus-suite fuzz [--seed 0xC0FFEE] [--iters 200] [--size 28]
//!                    [--arg 5] [--audit-every 64] [--no-shrink]
//!                    [--json FILE] [--quiet]
//! perceus-suite stages [--workload map] [--strategy perceus] [--json]
//! perceus-suite analyze [--workload map | --file F | --all]
//!                       [--strategy perceus] [--stage final]
//!                       [--json] [--deny L2]
//! perceus-suite certify [--workload map | --file F | --all]
//!                       [--strategy perceus] [--stage final]
//!                       [--json] [--deny] [--replay]
//! perceus-suite parallel [--workload map] [--threads 4] [--n SIZE]
//!                        [--strategy perceus] [--json]
//! perceus-suite contended [--workload map] [--mode snapshot|owned]
//!                         [--threads 8] [--reps 16] [--n SIZE]
//!                         [--json] [--require-zero-atomics]
//! perceus-suite profile [--workload map] [--n SIZE] [--threads 1]
//!                       [--strategy perceus] [--json | --folded]
//!                       [--metric rc-ops]
//! perceus-suite resume [--workload map | --all] [--chunks 8]
//!                      [--n SIZE] [--strategy perceus] [--json]
//! perceus-suite native [--workload map | --all] [--n SIZE]
//!                      [--strategy perceus] [--json]
//!                      [--fuzz N [--seed S] [--size SZ] [--arg A]]
//! ```
//!
//! `fuzz` drives random programs through every strategy plus the
//! standard-semantics oracle (see [`perceus_suite::diff`]), printing a
//! JSON summary and exiting nonzero on any divergence or garbage-free
//! violation. `stages` prints the named pass boundaries of a workload's
//! compilation (sizes and per-stage timing). `analyze` runs the static
//! RC-cost analyzer and lints (`perceus_core::analysis`) over stage
//! snapshots; `--deny` turns selected lint codes into a failing exit
//! for CI gating — in `--json` mode the complete report (including the
//! per-target `denied` counts) is always emitted before the failing
//! exit. `certify` runs the potential-based resource analysis
//! (`perceus_core::analysis::potential`), printing per-function
//! symbolic cost certificates (linear bounds over input sizes, ω where
//! no linear potential exists) after re-verifying each with the
//! independent checker; `--replay` additionally runs registered
//! workloads under the attributed profiler at three input sizes and
//! checks measured counts against the certified bounds, and `--deny`
//! turns any checker rejection or measured exceedance into a failing
//! exit. `parallel` runs N machines concurrently over a shared
//! immutable input (see [`perceus_suite::parallel`]) and reports
//! aggregate throughput, merged statistics and the join-time
//! garbage-free audit. `profile` runs a workload with the attributed
//! profiler enabled ([`perceus_runtime::profile`]) and reports
//! per-function and per-constructor reference-count/allocation
//! behaviour; `--folded` emits flamegraph-compatible folded stacks and
//! `--json` the full calling-context report (schema in
//! `docs/OBSERVABILITY.md`). JSON schemas for the other subcommands are
//! documented in `docs/ANALYSIS.md`.
//!
//! Exit codes: 0 success, 1 operational failure (including denied
//! lints), 2 usage error.

#![forbid(unsafe_code)]

use perceus_core::analysis::LintCode;
use perceus_core::json::str_lit;
use perceus_core::passes::{PassName, Pipeline};
use perceus_suite::diff::{fuzz_with, FuzzConfig};
use perceus_suite::{workload, workloads, Strategy};
use std::process::ExitCode;

/// Exit code for malformed command lines (distinct from operational
/// failures, which exit 1).
const EXIT_USAGE: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("fuzz") => run_fuzz(&args[1..]),
        Some("stages") => run_stages(&args[1..]),
        Some("analyze") => run_analyze(&args[1..]),
        Some("certify") => run_certify(&args[1..]),
        Some("parallel") => run_parallel_cmd(&args[1..]),
        Some("contended") => run_contended_cmd(&args[1..]),
        Some("profile") => run_profile_cmd(&args[1..]),
        Some("resume") => run_resume_cmd(&args[1..]),
        Some("native") => run_native_cmd(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => usage_error(&format!("unknown subcommand `{other}`")),
    }
}

const USAGE: &str = "\
usage: perceus-suite <subcommand> [options]

subcommands:
  fuzz     differential-test random programs across every strategy
           and the standard-semantics oracle
    --seed <u64|0xHEX>   master seed            (default 0xC0FFEE)
    --iters <n>          programs to check      (default 50)
    --size <n>           generator size budget  (default 28)
    --arg <n>            argument to main       (default 5)
    --fuel <n>           oracle fuel            (default 50000000)
    --audit-every <n>    in-flight audit period (default 64)
    --no-shrink          report failures unreduced
    --json <file>        also write the JSON report to a file
    --quiet              no per-iteration progress dots

  stages   print the named pass boundaries of a workload compilation
    --workload <name>    workload to compile    (default map)
    --strategy <name>    perceus | perceus-no-opt | scoped-rc |
                         tracing-gc | arena     (default perceus)
    --json               machine-readable output

  analyze  static RC-cost summaries and lints (docs/ANALYSIS.md)
    --workload <name>    analyze a registered workload (default map)
    --file <path>        analyze a surface-language source file
    --all                analyze every registered workload
    --strategy <name>    as for stages          (default perceus)
    --stage <sel>        final | all | a pass label such as `fuse`
                         (default final)
    --json               machine-readable report
    --deny <code>        exit 1 if the final stage carries this lint
                         (repeatable; L1..L4 or a lint name)

  certify  potential-based cost certificates: per-function linear
           bounds on RC counters, independently re-checked, optionally
           validated against profiler measurements (docs/ANALYSIS.md)
    --workload <name>    certify a registered workload (default map)
    --file <path>        certify a surface-language source file
    --all                certify every registered workload
    --strategy <name>    as for stages          (default perceus)
    --stage <sel>        final | all | a pass label (default final)
    --json               machine-readable certificates
    --replay             run registered workloads under the profiler
                         at three input sizes and check measured
                         counts against the certified bounds
    --deny               exit 1 on any checker rejection or (with
                         --replay) measured-count exceedance

  parallel run N machines concurrently; workloads with a shared-input
           split (map, refs) share one immutable structure through the
           atomic segment, others run independent main(n) instances
    --workload <name>    workload to run        (default map)
    --threads <n>        worker thread count    (default 4)
    --n <size>           problem size           (default per workload)
    --strategy <name>    as for stages          (default perceus)
    --json               machine-readable output

  contended run the contended read-mostly workload: N workers each
           traverse one shared immutable input R times, under either
           guard-protected snapshot reads (borrow-inferred, zero atomic
           RMWs) or the owned atomic-RMW baseline
    --workload <name>    workload to run        (default map; needs a
                         shared-input split)
    --mode <m>           snapshot | owned       (default snapshot)
    --threads <n>        worker thread count    (default 8)
    --reps <n>           consume calls per worker (default 16)
    --n <size>           problem size           (default per workload)
    --json               machine-readable output
    --require-zero-atomics
                         exit 1 unless the read phase performed zero
                         atomic RMWs and the segment fully drained
                         (the CI gate for the snapshot path)

  profile  run one workload with the attributed profiler and report
           per-function / per-constructor RC and allocation behaviour
    --workload <name>    workload to profile    (default map)
    --n <size>           problem size           (default per-workload
                         test size)
    --threads <n>        1 = single machine; >1 profiles a parallel
                         run and merges the per-thread profiles
                         (default 1)
    --strategy <name>    as for stages          (default perceus)
    --json               full calling-context report
                         (docs/OBSERVABILITY.md)
    --folded             flamegraph-compatible folded stacks
    --metric <m>         folded-stack weight: rc-ops | allocs |
                         alloc-words | reuses  (default rc-ops)

  resume   run workloads in budgeted legs over the resumable Execution
           API, audit garbage-freedom at every suspension point, and
           verify the interrupted schedule is bit-identical (result,
           output, every Stats counter) to an uninterrupted run
    --workload <name>    workload to check      (default: all)
    --all                check every registered workload
    --chunks <n>         legs to split the run into (default 8)
    --n <size>           problem size           (default per-workload
                         test size)
    --strategy <name>    as for stages          (default perceus)
    --json               machine-readable output

  native   compile workloads to Rust through perceus-codegen, run the
           native executor, and check value, output, leak count, and
           all 18 schedule counters bit-for-bit against the machine
           (docs/CODEGEN.md); with --fuzz, differentially check
           generated programs instead
    --workload <name>    workload to check      (default map;
                         repeatable)
    --all                check every registered workload
    --n <size>           problem size           (default per-workload
                         test size)
    --strategy <name>    perceus | perceus-no-opt (the RC strategies;
                         others are rejected)   (default perceus)
    --json               machine-readable output
    --fuzz <n>           differential fuzz: n generated programs,
                         machine vs native
    --seed <u64|0xHEX>   fuzz master seed       (default 0xC0DE6E)
    --size <n>           fuzz generator budget  (default 28)
    --arg <n>            fuzz argument to main  (default 5)

exit codes: 0 ok, 1 failure (divergence, pipeline error, denied lint,
            failed join audit), 2 usage error
";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}\n\n{USAGE}");
    ExitCode::from(EXIT_USAGE)
}

fn parse_u64(s: &str, what: &str) -> u64 {
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    match parsed {
        Ok(v) => v,
        Err(_) => {
            eprintln!("invalid {what}: `{s}`");
            std::process::exit(EXIT_USAGE as i32);
        }
    }
}

fn next_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    match args.get(*i) {
        Some(v) => v,
        None => {
            eprintln!("{flag} requires a value\n\n{USAGE}");
            std::process::exit(EXIT_USAGE as i32);
        }
    }
}

fn parse_strategy(name: &str) -> Option<Strategy> {
    Strategy::ALL.iter().copied().find(|s| s.label() == name)
}

fn run_fuzz(args: &[String]) -> ExitCode {
    let mut cfg = FuzzConfig::default();
    let mut json_path: Option<String> = None;
    let mut quiet = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => cfg.seed = parse_u64(next_value(args, &mut i, "--seed"), "seed"),
            "--iters" => cfg.iters = parse_u64(next_value(args, &mut i, "--iters"), "iters"),
            "--size" => cfg.size = parse_u64(next_value(args, &mut i, "--size"), "size") as u32,
            "--arg" => cfg.arg = parse_u64(next_value(args, &mut i, "--arg"), "arg") as i64,
            "--fuel" => cfg.fuel = parse_u64(next_value(args, &mut i, "--fuel"), "fuel"),
            "--audit-every" => {
                let every = parse_u64(next_value(args, &mut i, "--audit-every"), "audit period");
                cfg.audit_every = (every > 0).then_some(every);
            }
            "--no-shrink" => cfg.shrink = false,
            "--json" => json_path = Some(next_value(args, &mut i, "--json").to_string()),
            "--quiet" => quiet = true,
            other => return usage_error(&format!("unknown fuzz option `{other}`")),
        }
        i += 1;
    }

    eprintln!(
        "fuzz: {} iterations, seed {:#x}, size {}, {} strategies + oracle",
        cfg.iters,
        cfg.seed,
        cfg.size,
        Strategy::ALL.len()
    );
    let report = fuzz_with(&cfg, |iter, outcome| {
        if quiet {
            return;
        }
        use std::io::Write;
        let mut err = std::io::stderr();
        let _ = write!(err, "{}", if outcome.agreed() { "." } else { "X" });
        if (iter + 1) % 50 == 0 {
            let _ = writeln!(err, " {}", iter + 1);
        }
        let _ = err.flush();
    });
    if !quiet {
        eprintln!();
    }

    let json = report.to_json();
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    print!("{json}");

    if report.clean() {
        eprintln!(
            "fuzz: OK — {} programs agreed across {} strategies ({} in-flight audits)",
            report.iters,
            report.strategies.len(),
            report.audits
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "fuzz: FAILED — {} of {} programs diverged",
            report.failures.len(),
            report.iters
        );
        for f in &report.failures {
            eprintln!(
                "  iter {} (seed {:#x}, {} -> {} nodes after {} shrink steps):",
                f.iter, f.seed, f.original_nodes, f.reported_nodes, f.shrink_steps
            );
            for d in &f.divergences {
                eprintln!("    {d}");
            }
        }
        ExitCode::FAILURE
    }
}

fn run_stages(args: &[String]) -> ExitCode {
    let mut workload_name = "map".to_string();
    let mut strategy = Strategy::Perceus;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => workload_name = next_value(args, &mut i, "--workload").to_string(),
            "--strategy" => {
                let name = next_value(args, &mut i, "--strategy");
                strategy = match parse_strategy(name) {
                    Some(s) => s,
                    None => return usage_error(&format!("unknown strategy `{name}`")),
                };
            }
            "--json" => json = true,
            other => return usage_error(&format!("unknown stages option `{other}`")),
        }
        i += 1;
    }

    let w = match workload(&workload_name) {
        Some(w) => w,
        None => {
            return usage_error(&format!(
                "unknown workload `{workload_name}`; available: {}",
                workload_names().join(", ")
            ))
        }
    };
    let program = match perceus_lang::compile_str(w.source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("front end failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match Pipeline::new(strategy.pass_config()).stages(program) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("pipeline failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        let mut out = format!(
            "{{\"workload\":{},\"strategy\":{},\"stages\":[",
            str_lit(w.name),
            str_lit(strategy.label())
        );
        for (i, record) in trace.records().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let nodes: usize = record.program.funs.iter().map(|f| f.body.size()).sum();
            out.push_str(&format!(
                "{{\"stage\":\"{}\",\"nodes\":{},\"nanos\":{}}}",
                record.pass.label(),
                nodes,
                record.elapsed.as_nanos()
            ));
        }
        out.push_str("]}");
        println!("{out}");
    } else {
        println!(
            "{} under {} — {} stages",
            w.name,
            strategy.label(),
            trace.len()
        );
        println!("{:<12} {:>8} {:>12}", "stage", "nodes", "time");
        for record in trace.records() {
            let nodes: usize = record.program.funs.iter().map(|f| f.body.size()).sum();
            println!(
                "{:<12} {:>8} {:>9.1?}",
                record.pass.label(),
                nodes,
                record.elapsed
            );
        }
    }
    ExitCode::SUCCESS
}

/// Which stage snapshots `analyze` reports on.
enum StageSel {
    Final,
    All,
    One(PassName),
}

fn run_analyze(args: &[String]) -> ExitCode {
    let mut workload_names_sel: Vec<String> = Vec::new();
    let mut files: Vec<String> = Vec::new();
    let mut all = false;
    let mut strategy = Strategy::Perceus;
    let mut stage_sel = StageSel::Final;
    let mut json = false;
    let mut deny: Vec<LintCode> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                workload_names_sel.push(next_value(args, &mut i, "--workload").to_string())
            }
            "--file" => files.push(next_value(args, &mut i, "--file").to_string()),
            "--all" => all = true,
            "--strategy" => {
                let name = next_value(args, &mut i, "--strategy");
                strategy = match parse_strategy(name) {
                    Some(s) => s,
                    None => return usage_error(&format!("unknown strategy `{name}`")),
                };
            }
            "--stage" => {
                let sel = next_value(args, &mut i, "--stage");
                stage_sel = match sel {
                    "final" => StageSel::Final,
                    "all" => StageSel::All,
                    label => match PassName::ALL.iter().find(|p| p.label() == label) {
                        Some(p) => StageSel::One(*p),
                        None => {
                            return usage_error(&format!(
                                "unknown stage `{label}` (use final, all, or a pass label)"
                            ))
                        }
                    },
                };
            }
            "--json" => json = true,
            "--deny" => {
                let code = next_value(args, &mut i, "--deny");
                match LintCode::parse(code) {
                    Some(c) => deny.push(c),
                    None => return usage_error(&format!("unknown lint code `{code}`")),
                }
            }
            other => return usage_error(&format!("unknown analyze option `{other}`")),
        }
        i += 1;
    }

    // Resolve targets: (name, source).
    let mut targets: Vec<(String, String)> = Vec::new();
    if all {
        for w in workloads() {
            targets.push((w.name.to_string(), w.source.to_string()));
        }
    }
    for name in &workload_names_sel {
        match workload(name) {
            Some(w) => targets.push((w.name.to_string(), w.source.to_string())),
            None => {
                return usage_error(&format!(
                    "unknown workload `{name}`; available: {}",
                    workload_names().join(", ")
                ))
            }
        }
    }
    for path in &files {
        match std::fs::read_to_string(path) {
            Ok(src) => targets.push((path.clone(), src)),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if targets.is_empty() {
        targets.push((
            "map".to_string(),
            workload("map").unwrap().source.to_string(),
        ));
    }

    let mut violations = 0usize;
    let mut json_targets: Vec<String> = Vec::new();
    for (name, src) in &targets {
        let (program, spans) = match perceus_lang::compile_str_with_spans(src) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{name}: front end failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let spans: Vec<(u32, u32)> = spans.iter().map(|s| (s.start, s.end)).collect();
        let mut analyzed = match Pipeline::new(strategy.pass_config()).analyze(program) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("{name}: pipeline failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        for stage in &mut analyzed.stages {
            stage.analysis.diagnostics.attach_fun_spans(&spans);
        }

        // `--deny` always gates on the shipped (final) program,
        // independently of which snapshots are being displayed.
        let final_stage = analyzed.final_stage();
        let denied: Vec<(LintCode, usize)> = deny
            .iter()
            .map(|c| (*c, final_stage.analysis.diagnostics.count(*c)))
            .filter(|(_, n)| *n > 0)
            .collect();
        violations += denied.iter().map(|(_, n)| n).sum::<usize>();

        let selected: Vec<_> = match stage_sel {
            StageSel::Final => vec![analyzed.final_stage()],
            StageSel::All => analyzed.stages.iter().collect(),
            StageSel::One(pass) => match analyzed.stage(pass) {
                Some(s) => vec![s],
                None => {
                    eprintln!(
                        "{name}: stage `{}` did not run under strategy {}",
                        pass.label(),
                        strategy.label()
                    );
                    return ExitCode::FAILURE;
                }
            },
        };

        if json {
            // The denied counts are part of the report: a CI consumer
            // must be able to read *which* gate tripped from the same
            // document that made the process exit 1.
            let denied_json: Vec<String> = denied
                .iter()
                .map(|(c, n)| format!("{{\"code\":\"{}\",\"count\":{n}}}", c.code()))
                .collect();
            let mut t = format!(
                "{{\"name\":{},\"strategy\":{},\"denied\":[{}],\"stages\":[",
                str_lit(name),
                str_lit(strategy.label()),
                denied_json.join(",")
            );
            for (i, s) in selected.iter().enumerate() {
                if i > 0 {
                    t.push(',');
                }
                t.push_str(&format!(
                    "{{\"stage\":\"{}\",\"analysis\":{}}}",
                    s.pass.label(),
                    s.analysis.to_json()
                ));
            }
            t.push_str("]}");
            json_targets.push(t);
        } else {
            for s in &selected {
                println!(
                    "== {name} under {} (stage {}) ==",
                    strategy.label(),
                    s.pass.label()
                );
                print!("{}", s.analysis.render_human());
            }
            for (c, n) in &denied {
                println!(
                    "denied: {n} {} ({}) lint(s) in final stage",
                    c.code(),
                    c.name()
                );
            }
        }
    }

    if json {
        let deny_json: Vec<String> = deny.iter().map(|c| format!("\"{}\"", c.code())).collect();
        println!(
            "{{\"targets\":[{}],\"deny\":[{}],\"violations\":{}}}",
            json_targets.join(","),
            deny_json.join(","),
            violations
        );
    } else if !deny.is_empty() {
        println!(
            "deny gate: {} violation(s) across {} target(s)",
            violations,
            targets.len()
        );
    }

    if violations > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_certify(args: &[String]) -> ExitCode {
    use perceus_suite::certify::{certify_snapshot, replay_sizes, replay_workload, StageCerts};
    use perceus_suite::Workload;

    let mut workload_names_sel: Vec<String> = Vec::new();
    let mut files: Vec<String> = Vec::new();
    let mut all = false;
    let mut strategy = Strategy::Perceus;
    let mut stage_sel = StageSel::Final;
    let mut json = false;
    let mut deny = false;
    let mut replay = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                workload_names_sel.push(next_value(args, &mut i, "--workload").to_string())
            }
            "--file" => files.push(next_value(args, &mut i, "--file").to_string()),
            "--all" => all = true,
            "--strategy" => {
                let name = next_value(args, &mut i, "--strategy");
                strategy = match parse_strategy(name) {
                    Some(s) => s,
                    None => return usage_error(&format!("unknown strategy `{name}`")),
                };
            }
            "--stage" => {
                let sel = next_value(args, &mut i, "--stage");
                stage_sel = match sel {
                    "final" => StageSel::Final,
                    "all" => StageSel::All,
                    label => match PassName::ALL.iter().find(|p| p.label() == label) {
                        Some(p) => StageSel::One(*p),
                        None => {
                            return usage_error(&format!(
                                "unknown stage `{label}` (use final, all, or a pass label)"
                            ))
                        }
                    },
                };
            }
            "--json" => json = true,
            "--deny" => deny = true,
            "--replay" => replay = true,
            other => return usage_error(&format!("unknown certify option `{other}`")),
        }
        i += 1;
    }

    // Resolve targets: (name, source, registered workload if any —
    // replay needs the workload's runner and size ladder).
    let mut targets: Vec<(String, String, Option<Workload>)> = Vec::new();
    if all {
        for w in workloads() {
            targets.push((w.name.to_string(), w.source.to_string(), Some(*w)));
        }
    }
    for name in &workload_names_sel {
        match workload(name) {
            Some(w) => targets.push((w.name.to_string(), w.source.to_string(), Some(w))),
            None => {
                return usage_error(&format!(
                    "unknown workload `{name}`; available: {}",
                    workload_names().join(", ")
                ))
            }
        }
    }
    for path in &files {
        match std::fs::read_to_string(path) {
            Ok(src) => targets.push((path.clone(), src, None)),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if targets.is_empty() {
        let w = workload("map").unwrap();
        targets.push((w.name.to_string(), w.source.to_string(), Some(w)));
    }

    let mut violations = 0usize;
    let mut json_targets: Vec<String> = Vec::new();
    for (name, src, wl) in &targets {
        let program = match perceus_lang::compile_str(src) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{name}: front end failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let trace = match Pipeline::new(strategy.pass_config()).stages(program) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{name}: pipeline failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let snaps: Vec<_> = trace.stages().collect();
        let selected: Vec<StageCerts> = match stage_sel {
            StageSel::Final => {
                let (pass, p) = *snaps.last().expect("pipeline runs ≥ 1 stage");
                vec![certify_snapshot(pass, p.clone())]
            }
            StageSel::All => snaps
                .iter()
                .map(|(pass, p)| certify_snapshot(*pass, (*p).clone()))
                .collect(),
            StageSel::One(pass) => match snaps.iter().find(|(sp, _)| *sp == pass) {
                Some((sp, p)) => vec![certify_snapshot(*sp, (*p).clone())],
                None => {
                    eprintln!(
                        "{name}: stage `{}` did not run under strategy {}",
                        pass.label(),
                        strategy.label()
                    );
                    return ExitCode::FAILURE;
                }
            },
        };
        violations += selected.iter().map(|s| s.errors.len()).sum::<usize>();

        // Replay validates against the shipped program's certificates,
        // independently of which snapshots are displayed.
        let mut replays: Vec<perceus_suite::ReplayReport> = Vec::new();
        if replay {
            if let Some(w) = wl {
                let last_pass = snaps.last().map(|(p, _)| *p);
                let owned_final;
                let final_sc = match selected.iter().find(|s| Some(s.pass) == last_pass) {
                    Some(sc) => sc,
                    None => {
                        let (pass, p) = *snaps.last().expect("pipeline runs ≥ 1 stage");
                        owned_final = certify_snapshot(pass, p.clone());
                        violations += owned_final.errors.len();
                        &owned_final
                    }
                };
                for n in replay_sizes(w) {
                    match replay_workload(w, strategy, n, final_sc) {
                        Ok(r) => {
                            violations += r.exceedances.len();
                            replays.push(r);
                        }
                        Err(e) => {
                            eprintln!("{name}: replay at n={n} failed: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            } else if !json {
                println!("note: --replay skipped for file target {name} (no registered runner)");
            }
        }

        if json {
            let mut t = format!(
                "{{\"name\":{},\"strategy\":{},\"stages\":[",
                str_lit(name),
                str_lit(strategy.label()),
            );
            for (i, s) in selected.iter().enumerate() {
                if i > 0 {
                    t.push(',');
                }
                let errs: Vec<String> = s.errors.iter().map(|e| str_lit(&e.to_string())).collect();
                t.push_str(&format!(
                    "{{\"stage\":\"{}\",\"checker_errors\":[{}],\"certificates\":{}}}",
                    s.pass.label(),
                    errs.join(","),
                    s.certs.to_json(&s.program)
                ));
            }
            t.push_str("],\"replay\":[");
            for (i, r) in replays.iter().enumerate() {
                if i > 0 {
                    t.push(',');
                }
                let exc: Vec<String> = r
                    .exceedances
                    .iter()
                    .map(|x| str_lit(&x.to_string()))
                    .collect();
                t.push_str(&format!(
                    "{{\"n\":{},\"entry_counters_checked\":{},\"frames_checked\":{},\
                     \"fbip_frames_checked\":{},\"exceedances\":[{}]}}",
                    r.n,
                    r.entry_counters_checked,
                    r.frames_checked,
                    r.fbip_frames_checked,
                    exc.join(",")
                ));
            }
            t.push_str("]}");
            json_targets.push(t);
        } else {
            for s in &selected {
                println!(
                    "== {name} under {} (stage {}) ==",
                    strategy.label(),
                    s.pass.label()
                );
                print!("{}", s.certs.render_human(&s.program));
                if s.errors.is_empty() {
                    println!("  checker: all certificates verified");
                } else {
                    println!("  checker: {} rejection(s):", s.errors.len());
                    for e in &s.errors {
                        println!("    {e}");
                    }
                }
            }
            for r in &replays {
                println!(
                    "replay n={}: {} entry counters, {} frames, {} fbip frames checked, {} exceedance(s)",
                    r.n,
                    r.entry_counters_checked,
                    r.frames_checked,
                    r.fbip_frames_checked,
                    r.exceedances.len()
                );
                for x in &r.exceedances {
                    println!("    {x}");
                }
            }
        }
    }

    if json {
        println!(
            "{{\"targets\":[{}],\"deny\":{},\"violations\":{}}}",
            json_targets.join(","),
            deny,
            violations
        );
    } else if deny {
        println!(
            "deny gate: {} violation(s) across {} target(s)",
            violations,
            targets.len()
        );
    }

    if deny && violations > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_parallel_cmd(args: &[String]) -> ExitCode {
    use perceus_runtime::machine::RunConfig;

    let mut workload_name = "map".to_string();
    let mut threads: u32 = 4;
    let mut n: Option<i64> = None;
    let mut strategy = Strategy::Perceus;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => workload_name = next_value(args, &mut i, "--workload").to_string(),
            "--threads" => {
                threads = parse_u64(next_value(args, &mut i, "--threads"), "thread count") as u32;
                if threads == 0 {
                    return usage_error("--threads must be at least 1");
                }
            }
            "--n" => n = Some(parse_u64(next_value(args, &mut i, "--n"), "size") as i64),
            "--strategy" => {
                let name = next_value(args, &mut i, "--strategy");
                strategy = match parse_strategy(name) {
                    Some(s) => s,
                    None => return usage_error(&format!("unknown strategy `{name}`")),
                };
            }
            "--json" => json = true,
            other => return usage_error(&format!("unknown parallel option `{other}`")),
        }
        i += 1;
    }

    let w = match workload(&workload_name) {
        Some(w) => w,
        None => {
            return usage_error(&format!(
                "unknown workload `{workload_name}`; available: {}",
                workload_names().join(", ")
            ))
        }
    };
    let n = n.unwrap_or(w.default_n);
    let out = match perceus_suite::run_parallel(&w, strategy, n, threads, RunConfig::default()) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    let st = &out.stats;
    if json {
        let audit = match &out.shared_audit {
            Some(a) => format!(
                "{{\"freed_blocks\":{},\"live_blocks\":{},\"pinned_blocks\":{}}}",
                a.freed_blocks, a.live_blocks, a.pinned_blocks
            ),
            None => "null".to_string(),
        };
        println!(
            "{{\"workload\":{},\"strategy\":{},\"threads\":{},\"n\":{},\
             \"result\":{},\"elapsed_secs\":{:.6},\"throughput\":{:.3},\
             \"shared_input\":{},\"shared_installs\":{},\"atomic_ops\":{},\
             \"local_shared_ops\":{},\"shared_marks\":{},\"rc_ops\":{},\
             \"peak_live_words\":{},\"join_audit\":{audit}}}",
            str_lit(w.name),
            str_lit(strategy.label()),
            out.threads,
            n,
            str_lit(&out.value.to_string()),
            out.elapsed.as_secs_f64(),
            out.throughput(),
            out.shared_input,
            out.shared_installs,
            st.atomic_ops,
            st.local_shared_ops,
            st.shared_marks,
            st.rc_ops(),
            st.peak_live_words,
        );
    } else {
        println!(
            "{} under {}: {} threads, n={n} ({})",
            w.name,
            strategy.label(),
            out.threads,
            if out.shared_input {
                "shared immutable input"
            } else {
                "independent instances"
            }
        );
        println!("  result: {} (all threads agree)", out.value);
        println!(
            "  elapsed: {:.3}s  throughput: {:.1} runs/s",
            out.elapsed.as_secs_f64(),
            out.throughput()
        );
        println!(
            "  atomic rc ops: {}  local shared ops: {}  shared installs: {}  peak words: {}",
            st.atomic_ops, st.local_shared_ops, out.shared_installs, st.peak_live_words
        );
        match &out.shared_audit {
            Some(a) => println!(
                "  join audit: ok — {} freed, {} live, {} pinned",
                a.freed_blocks, a.live_blocks, a.pinned_blocks
            ),
            None => println!("  join audit: skipped (non-rc strategy)"),
        }
    }
    ExitCode::SUCCESS
}

fn run_contended_cmd(args: &[String]) -> ExitCode {
    use perceus_runtime::machine::RunConfig;
    use perceus_suite::ReadMode;

    let mut workload_name = "map".to_string();
    let mut mode = ReadMode::Snapshot;
    let mut threads: u32 = 8;
    let mut reps: u32 = 16;
    let mut n: Option<i64> = None;
    let mut json = false;
    let mut gate = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => workload_name = next_value(args, &mut i, "--workload").to_string(),
            "--mode" => {
                mode = match next_value(args, &mut i, "--mode") {
                    "snapshot" => ReadMode::Snapshot,
                    "owned" => ReadMode::Owned,
                    other => return usage_error(&format!("unknown mode `{other}`")),
                };
            }
            "--threads" => {
                threads = parse_u64(next_value(args, &mut i, "--threads"), "thread count") as u32;
                if threads == 0 {
                    return usage_error("--threads must be at least 1");
                }
            }
            "--reps" => {
                reps = parse_u64(next_value(args, &mut i, "--reps"), "repetition count") as u32;
                if reps == 0 {
                    return usage_error("--reps must be at least 1");
                }
            }
            "--n" => n = Some(parse_u64(next_value(args, &mut i, "--n"), "size") as i64),
            "--json" => json = true,
            "--require-zero-atomics" => gate = true,
            other => return usage_error(&format!("unknown contended option `{other}`")),
        }
        i += 1;
    }

    let w = match workload(&workload_name) {
        Some(w) => w,
        None => {
            return usage_error(&format!(
                "unknown workload `{workload_name}`; available: {}",
                workload_names().join(", ")
            ))
        }
    };
    let n = n.unwrap_or(w.test_n);
    let out = match perceus_suite::run_contended(&w, mode, n, threads, reps, RunConfig::default()) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    let a = &out.shared_audit;
    if json {
        println!(
            "{{\"workload\":{},\"mode\":{},\"threads\":{},\"reps\":{},\"n\":{},\
             \"result\":{},\"elapsed_secs\":{:.6},\"throughput\":{:.3},\
             \"read_atomics\":{},\"reclaimed_blocks\":{},\
             \"join_audit\":{{\"freed_blocks\":{},\"live_blocks\":{},\"pinned_blocks\":{},\
             \"weak_refs\":{}}}}}",
            str_lit(w.name),
            str_lit(mode.label()),
            out.threads,
            out.reps,
            n,
            str_lit(&out.value.to_string()),
            out.elapsed.as_secs_f64(),
            out.throughput(),
            out.read_atomics,
            out.reclaimed_blocks,
            a.freed_blocks,
            a.live_blocks,
            a.pinned_blocks,
            a.weak_refs,
        );
    } else {
        println!(
            "{} contended ({} reads): {} threads x {} reps, n={n}",
            w.name,
            mode.label(),
            out.threads,
            out.reps
        );
        println!("  result: {} (all workers, all reps agree)", out.value);
        println!(
            "  elapsed: {:.3}s  throughput: {:.1} reads/s",
            out.elapsed.as_secs_f64(),
            out.throughput()
        );
        println!(
            "  read-phase atomic RMWs: {}  reclaimed slots: {}",
            out.read_atomics, out.reclaimed_blocks
        );
        println!(
            "  join audit: ok — {} freed, {} live, {} pinned, {} weak refs",
            a.freed_blocks, a.live_blocks, a.pinned_blocks, a.weak_refs
        );
    }
    if gate && (out.read_atomics != 0 || a.live_blocks != 0) {
        eprintln!(
            "{}: gate failed — {} read-phase atomic RMWs, {} live blocks at join",
            w.name, out.read_atomics, a.live_blocks
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run_resume_cmd(args: &[String]) -> ExitCode {
    use perceus_runtime::machine::RunConfig;

    let mut workload_name: Option<String> = None;
    let mut all = false;
    let mut chunks: u64 = 8;
    let mut n: Option<i64> = None;
    let mut strategy = Strategy::Perceus;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                workload_name = Some(next_value(args, &mut i, "--workload").to_string())
            }
            "--all" => all = true,
            "--chunks" => {
                chunks = parse_u64(next_value(args, &mut i, "--chunks"), "chunk count").max(1)
            }
            "--n" => n = Some(parse_u64(next_value(args, &mut i, "--n"), "size") as i64),
            "--strategy" => {
                let name = next_value(args, &mut i, "--strategy");
                strategy = match parse_strategy(name) {
                    Some(s) => s,
                    None => return usage_error(&format!("unknown strategy `{name}`")),
                };
            }
            "--json" => json = true,
            other => return usage_error(&format!("unknown resume option `{other}`")),
        }
        i += 1;
    }
    let selected: Vec<perceus_suite::Workload> = if all || workload_name.is_none() {
        workloads().to_vec()
    } else {
        let name = workload_name.as_deref().unwrap();
        match workload(name) {
            Some(w) => vec![w],
            None => {
                return usage_error(&format!(
                    "unknown workload `{name}`; available: {}",
                    workload_names().join(", ")
                ))
            }
        }
    };

    let mut failed = false;
    let mut rows = Vec::new();
    for w in selected {
        let size = n.unwrap_or(w.test_n);
        let compiled = match perceus_suite::compile_workload(w.source, strategy) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{}: {e}", w.name);
                failed = true;
                continue;
            }
        };
        let straight =
            match perceus_suite::run_workload(&compiled, strategy, size, RunConfig::default()) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("{}: {e}", w.name);
                    failed = true;
                    continue;
                }
            };
        let budget = (straight.stats.steps / chunks).max(1);
        let resumed = match perceus_suite::run_workload_budgeted(
            &compiled,
            strategy,
            size,
            RunConfig::default(),
            &[budget],
        ) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{}: budgeted run: {e}", w.name);
                failed = true;
                continue;
            }
        };
        let divergence = perceus_suite::determinism_divergence(&straight, &resumed);
        if let Some(d) = &divergence {
            eprintln!("{}: {d}", w.name);
            failed = true;
        }
        if json {
            rows.push(format!(
                "{{\"workload\":\"{}\",\"n\":{size},\"steps\":{},\"suspensions\":{},\"deterministic\":{}}}",
                w.name,
                straight.stats.steps,
                resumed.suspensions,
                divergence.is_none()
            ));
        } else {
            println!(
                "{:>10}  n={size:<8} steps={:<12} suspensions={:<4} {}",
                w.name,
                straight.stats.steps,
                resumed.suspensions,
                if divergence.is_none() {
                    "bit-identical"
                } else {
                    "DIVERGED"
                }
            );
        }
    }
    if json {
        println!(
            "{{\"strategy\":\"{}\",\"chunks\":{chunks},\"workloads\":[{}]}}",
            strategy.label(),
            rows.join(",")
        );
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_native_cmd(args: &[String]) -> ExitCode {
    use perceus_suite::native::{fuzz_native, NativeCheck, NativeHarness};

    let mut workload_names_sel: Vec<String> = Vec::new();
    let mut all = false;
    let mut n: Option<i64> = None;
    let mut strategy = Strategy::Perceus;
    let mut json = false;
    let mut fuzz_iters: Option<u32> = None;
    let mut seed: u64 = 0xC0DE6E;
    let mut size: u32 = 28;
    let mut arg: i64 = 5;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                workload_names_sel.push(next_value(args, &mut i, "--workload").to_string())
            }
            "--all" => all = true,
            "--n" => n = Some(parse_u64(next_value(args, &mut i, "--n"), "size") as i64),
            "--strategy" => {
                let name = next_value(args, &mut i, "--strategy");
                strategy = match parse_strategy(name) {
                    Some(s) => s,
                    None => return usage_error(&format!("unknown strategy `{name}`")),
                };
            }
            "--json" => json = true,
            "--fuzz" => {
                fuzz_iters =
                    Some(parse_u64(next_value(args, &mut i, "--fuzz"), "fuzz count") as u32)
            }
            "--seed" => seed = parse_u64(next_value(args, &mut i, "--seed"), "seed"),
            "--size" => size = parse_u64(next_value(args, &mut i, "--size"), "size") as u32,
            "--arg" => arg = parse_u64(next_value(args, &mut i, "--arg"), "arg") as i64,
            other => return usage_error(&format!("unknown native option `{other}`")),
        }
        i += 1;
    }

    let render_failure = |check: &NativeCheck| {
        eprintln!("{}: DIVERGED (n={})", check.name, check.n);
        for m in &check.mismatches {
            eprintln!("    {m}");
        }
    };
    let check_json = |check: &NativeCheck| {
        let mismatches: Vec<String> = check.mismatches.iter().map(|m| str_lit(m)).collect();
        format!(
            "{{\"name\":{},\"n\":{},\"ok\":{},\"value\":{},\
             \"machine_wall_ns\":{},\"native_wall_ns\":{},\"mismatches\":[{}]}}",
            str_lit(&check.name),
            check.n,
            check.passed(),
            match &check.native.value {
                Some(v) => str_lit(v),
                None => "null".to_string(),
            },
            check.machine.wall_ns,
            check.native.wall_ns,
            mismatches.join(",")
        )
    };

    // Differential fuzz leg: generated programs, machine vs native.
    if let Some(iters) = fuzz_iters {
        let report = match fuzz_native(seed, iters, size, arg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("native fuzz: {e}");
                return ExitCode::FAILURE;
            }
        };
        let clean = report.failures.is_empty();
        if json {
            let rows: Vec<String> = report.failures.iter().map(&check_json).collect();
            println!(
                "{{\"backend\":\"native\",\"fuzz\":{{\"seed\":{seed},\"iters\":{iters},\
                 \"size\":{size},\"arg\":{arg},\"failures\":[{}]}},\"ok\":{clean}}}",
                rows.join(",")
            );
        }
        if clean {
            eprintln!(
                "native fuzz: OK — {} generated programs bit-identical to the machine",
                report.iters
            );
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "native fuzz: FAILED — {} of {} programs diverged",
                report.failures.len(),
                report.iters
            );
            for f in &report.failures {
                render_failure(f);
            }
            ExitCode::FAILURE
        }
    } else {
        let selected: Vec<perceus_suite::Workload> = if all {
            workloads().to_vec()
        } else if workload_names_sel.is_empty() {
            vec![workload("map").unwrap()]
        } else {
            let mut out = Vec::new();
            for name in &workload_names_sel {
                match workload(name) {
                    Some(w) => out.push(w),
                    None => {
                        return usage_error(&format!(
                            "unknown workload `{name}`; available: {}",
                            workload_names().join(", ")
                        ))
                    }
                }
            }
            out
        };
        let names: Vec<&str> = selected.iter().map(|w| w.name).collect();
        let harness = match NativeHarness::for_workloads(&names, strategy) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("native: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut rows = Vec::new();
        let mut failed = false;
        for w in &selected {
            let size = n.unwrap_or(w.test_n);
            let check = match harness.check(w.name, size) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("{}: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            };
            if json {
                rows.push(check_json(&check));
            } else if check.passed() {
                println!(
                    "{:>10}  n={:<8} machine={:>12}ns native={:>12}ns bit-identical",
                    check.name, check.n, check.machine.wall_ns, check.native.wall_ns
                );
            }
            if !check.passed() {
                failed = true;
                render_failure(&check);
            }
        }
        if json {
            println!(
                "{{\"backend\":\"native\",\"strategy\":{},\"checks\":[{}],\"ok\":{}}}",
                str_lit(strategy.label()),
                rows.join(","),
                !failed
            );
        }
        if failed {
            ExitCode::FAILURE
        } else {
            eprintln!(
                "native: OK — {} workload(s) bit-identical to the machine",
                selected.len()
            );
            ExitCode::SUCCESS
        }
    }
}

fn run_profile_cmd(args: &[String]) -> ExitCode {
    use perceus_runtime::machine::RunConfig;
    use perceus_runtime::{ProfMetric, Profiler};

    let mut workload_name = "map".to_string();
    let mut threads: u32 = 1;
    let mut n: Option<i64> = None;
    let mut strategy = Strategy::Perceus;
    let mut json = false;
    let mut folded = false;
    let mut metric = ProfMetric::RcOps;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => workload_name = next_value(args, &mut i, "--workload").to_string(),
            "--threads" => {
                threads = parse_u64(next_value(args, &mut i, "--threads"), "thread count") as u32;
                if threads == 0 {
                    return usage_error("--threads must be at least 1");
                }
            }
            "--n" => n = Some(parse_u64(next_value(args, &mut i, "--n"), "size") as i64),
            "--strategy" => {
                let name = next_value(args, &mut i, "--strategy");
                strategy = match parse_strategy(name) {
                    Some(s) => s,
                    None => return usage_error(&format!("unknown strategy `{name}`")),
                };
            }
            "--json" => json = true,
            "--folded" => folded = true,
            "--metric" => {
                let name = next_value(args, &mut i, "--metric");
                metric = match ProfMetric::parse(name) {
                    Some(m) => m,
                    None => {
                        let names: Vec<&str> = ProfMetric::ALL.iter().map(|(_, n)| *n).collect();
                        return usage_error(&format!(
                            "unknown metric `{name}`; available: {}",
                            names.join(", ")
                        ));
                    }
                };
            }
            other => return usage_error(&format!("unknown profile option `{other}`")),
        }
        i += 1;
    }
    if json && folded {
        return usage_error("--json and --folded are mutually exclusive");
    }

    let w = match workload(&workload_name) {
        Some(w) => w,
        None => {
            return usage_error(&format!(
                "unknown workload `{workload_name}`; available: {}",
                workload_names().join(", ")
            ))
        }
    };
    // Profiling attributes *every* heap event, so the per-workload test
    // size keeps even the interpreted tree workloads interactive.
    let n = n.unwrap_or(w.test_n);
    let config = RunConfig::new().with_profile(true);

    let compiled = match perceus_suite::compile_workload(w.source, strategy) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    let profiler: Profiler = if threads == 1 {
        match perceus_suite::run_workload(&compiled, strategy, n, config) {
            Ok(out) => match out.profile {
                Some(p) => p,
                None => {
                    eprintln!("{}: run produced no profile", w.name);
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("{}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        }
    } else {
        match perceus_suite::run_parallel(&w, strategy, n, threads, config) {
            Ok(out) => match out.profile {
                Some(p) => p,
                None => {
                    eprintln!("{}: run produced no profile", w.name);
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("{}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        }
    };

    if folded {
        print!("{}", profiler.render_folded(&compiled, metric));
        return ExitCode::SUCCESS;
    }
    if json {
        println!(
            "{{\"workload\":{},\"strategy\":{},\"n\":{n},\"threads\":{threads},\
             \"profile\":{}}}",
            str_lit(w.name),
            str_lit(strategy.label()),
            profiler.render_json(&compiled, Some(w.source))
        );
        return ExitCode::SUCCESS;
    }

    println!(
        "{} under {}: n={n}, {} thread{}",
        w.name,
        strategy.label(),
        threads,
        if threads == 1 { "" } else { "s" }
    );
    println!(
        "  {:<24} {:>8} {:>10} {:>8} {:>10} {:>8} {:>10}",
        "function", "calls", "rc ops", "allocs", "words", "reuses", "peak words"
    );
    for r in profiler.per_frame() {
        println!(
            "  {:<24} {:>8} {:>10} {:>8} {:>10} {:>8} {:>10}",
            r.frame.name(&compiled),
            r.calls,
            r.counts.rc_ops(),
            r.counts.allocations,
            r.counts.alloc_words,
            r.counts.reuses,
            r.peak_live_words
        );
    }
    let ctors = profiler.per_ctor();
    if !ctors.is_empty() {
        println!(
            "  {:<24} {:>8} {:>8} {:>8}",
            "constructor", "allocs", "reuses", "reuse%"
        );
        for (id, c) in &ctors {
            let info = compiled.types.ctor(*id);
            println!(
                "  {:<24} {:>8} {:>8} {:>7.1}%",
                info.name,
                c.allocs,
                c.reuses,
                c.reuse_rate() * 100.0
            );
        }
    }
    let t = profiler.totals();
    println!(
        "  totals: rc ops {}  allocations {}  words {}  reuses {}  frees {}",
        t.rc_ops(),
        t.allocations,
        t.alloc_words,
        t.reuses,
        t.frees
    );
    ExitCode::SUCCESS
}

fn workload_names() -> Vec<&'static str> {
    workloads().iter().map(|w| w.name).collect()
}
