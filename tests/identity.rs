//! Identity digests: what the compiler produces, pinned stage by stage.
//!
//! A refactor that claims "the output is byte-identical" is checked
//! here, not by hand: for every program and pass configuration the test
//! hashes (64-bit FNV-1a)
//!
//! * `stage:<pass>` — `program_to_string` of the program as it leaves
//!   each stage of `Pipeline::stages()`,
//! * `code` — the `Debug` text of `Compiled::code` followed by
//!   `(name, arity, nslots, entry)` per function and `(ncaptures,
//!   nparams, nslots, entry)` per lambda (never `Compiled`'s own
//!   `Debug`, which prints the process-unique `uid`),
//! * `emit` — the Rust module `perceus_codegen::emit_module` renders
//!   (text only, no nested cargo build),
//!
//! and compares them with the committed `tests/identity.digests`. The
//! programs are the 13 suite programs and 104 generated ones at a
//! fixed seed, each under perceus, perceus-no-opt, scoped and
//! borrowing. The 13 suite programs under perceus and scoped also
//! carry a `profile` class: each runs `main(test_n)` on the machine
//! with the attributed profiler on, and the digest covers
//! `Profiler::render_json` (with source locations) followed by
//! `render_folded` for every `ProfMetric` — per-frame attribution,
//! constructor counts, size classes and peak liveness. The front end has two classes of its own, under the
//! config name `front`:
//!
//! * `lower` — `program_to_string` of what `compile_str_checked` makes
//!   of a source, before any pass, then the program's `Debug` text
//!   (every variable's id and hint, the type table with its spans, the
//!   borrow masks) and the warnings, for the 13 suite programs and the
//!   sources embedded in `examples/`,
//! * `error` — the rendered `LangError` (or, for a source that
//!   compiles, its rendered warnings) of every case in
//!   `tests/identity.errors` and of sources nested past each limit.
//!
//! When a change is meant to move a digest, regenerate with
//!
//! ```text
//! BLESS=1 cargo test --test identity
//! ```
//!
//! and say in the PR which class of digest moved and why.

use perceus_core::ir::pretty::program_to_string;
use perceus_core::ir::Program;
use perceus_core::passes::{PassConfig, Pipeline};
use perceus_lang::{check_depth, lower, parser, resolve, types, LangError, LangWarning};
use perceus_runtime::code::{self, Compiled};
use perceus_runtime::machine::RunConfig;
use perceus_runtime::ProfMetric;
use perceus_suite::genprog::random_program;
use perceus_suite::{compile_workload, run_workload, workloads, Strategy, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const GEN_PROGRAMS: u64 = 104;
const GEN_SEED: u64 = 0x1D_E471;
const GEN_SIZES: [u32; 4] = [12, 20, 30, 40];

fn configs() -> [(&'static str, PassConfig); 4] {
    [
        ("perceus", PassConfig::perceus()),
        ("perceus-no-opt", PassConfig::perceus_no_opt()),
        ("scoped", PassConfig::scoped()),
        ("borrowing", PassConfig::perceus_borrowing()),
    ]
}

fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn code_dump(c: &Compiled) -> String {
    let mut s = format!("{:?}\n", c.code);
    for f in &c.funs {
        let _ = writeln!(s, "{:?}", (&*f.name, f.arity, f.nslots, f.entry));
    }
    for l in &c.lambdas {
        let _ = writeln!(s, "{:?}", (l.ncaptures, l.nparams, l.nslots, l.entry));
    }
    s
}

/// `program config class` → digest, for one program under one config.
fn digest(name: &str, config_name: &str, config: PassConfig, p: Program, out: &mut Digests) {
    let mut put = |class: &str, text: &str| {
        out.insert(format!("{name} {config_name} {class}"), fnv64(text));
    };
    let trace = Pipeline::new(config)
        .stages(p)
        .unwrap_or_else(|e| panic!("{name} under {config_name}: {e}"));
    for (pass, stage) in trace.stages() {
        put(
            &format!("stage:{}", pass.label()),
            &program_to_string(stage),
        );
    }
    let compiled = code::compile(trace.final_program())
        .unwrap_or_else(|e| panic!("{name} under {config_name}: {e}"));
    put("code", &code_dump(&compiled));
    let module = perceus_codegen::emit_module(0, name, &compiled)
        .unwrap_or_else(|e| panic!("{name} under {config_name}: {e}"));
    put("emit", &module);
}

type Digests = BTreeMap<String, u64>;

/// The `profile` class: one profiled run of a suite program.
fn profile_digest(w: &Workload, config_name: &str, strategy: Strategy, out: &mut Digests) {
    let compiled = compile_workload(w.source, strategy)
        .unwrap_or_else(|e| panic!("{} under {config_name}: {e}", w.name));
    let run = run_workload(
        &compiled,
        strategy,
        w.test_n,
        RunConfig::new().with_profile(true),
    )
    .unwrap_or_else(|e| panic!("{} under {config_name}: {e}", w.name));
    let prof = run.profile.expect("profiling was enabled");
    let mut text = prof.render_json(&compiled, Some(w.source));
    for (metric, _) in ProfMetric::ALL {
        text.push('\n');
        text.push_str(&prof.render_folded(&compiled, metric));
    }
    out.insert(format!("{} {config_name} profile", w.name), fnv64(&text));
}

/// The front end stage by stage, as `compile_str_checked` runs it, with
/// the lowered program's depth checked; `infer: false` skips type
/// inference.
fn front_end(src: &str, infer: bool) -> Result<(Program, Vec<LangWarning>), LangError> {
    let ast = parser::parse(src)?;
    let syms = resolve::resolve(&ast)?;
    if infer {
        types::check(&ast, &syms)?;
    }
    let (program, warnings) = lower::lower_checked(&ast, &syms)?;
    Ok((check_depth(program)?, warnings))
}

fn render_warnings(src: &str, warnings: &[LangWarning]) -> String {
    let mut s = String::new();
    for w in warnings {
        let _ = writeln!(s, "{}", w.render(src));
    }
    s
}

/// Every `const NAME: &str = r#"…"#` in the files of `examples/`, as
/// `examples/<file stem>/<NAME>`.
fn example_sources() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("examples/")
        .map(|e| e.expect("directory entry").path())
        .collect();
    files.sort();
    let mut out = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("example source");
        let stem = file
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("file name");
        for (i, _) in text.match_indices(": &str = r#\"") {
            let name = text[..i].rsplit(' ').next().expect("const name");
            let body = &text[i + ": &str = r#\"".len()..];
            let end = body.find("\"#").expect("raw string closes");
            out.push((format!("examples/{stem}/{name}"), body[..end].to_string()));
        }
    }
    assert!(out.len() >= 3, "examples/ embeds at least three sources");
    out
}

/// The cases of `tests/identity.errors` — `(name, source, infer)` — and
/// one source past each nesting limit.
fn error_cases() -> Vec<(String, String, bool)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/identity.errors");
    let text = std::fs::read_to_string(&path).expect("tests/identity.errors");
    let mut cases: Vec<(String, String, bool)> = Vec::new();
    for line in text.lines() {
        if let Some(header) = line.strip_prefix("=== ") {
            let (name, infer) = match header.strip_suffix(" unchecked") {
                Some(name) => (name, false),
                None => (header, true),
            };
            cases.push((name.to_string(), String::new(), infer));
        } else if let Some((_, src, _)) = cases.last_mut() {
            src.push_str(line);
            src.push('\n');
        }
    }
    let main = |body: String| format!("fun main(n: int): int {{ {body} }}\n");
    let limit = perceus_lang::MAX_NESTING + 10;
    cases.push((
        "depth/parentheses".into(),
        main(format!("{}n{}", "(".repeat(limit), ")".repeat(limit))),
        true,
    ));
    cases.push((
        "depth/operators".into(),
        main(format!("n{}", " + 1".repeat(limit))),
        true,
    ));
    let mut lets = String::from("fun main(n: int): int {\n  val x0 = n\n");
    for i in 1..perceus_lang::MAX_DEPTH {
        let _ = writeln!(lets, "  val x{i} = x{} + 1", i - 1);
    }
    lets += &format!("  x{}\n}}\n", perceus_lang::MAX_DEPTH - 1);
    cases.push(("depth/statements".into(), lets, true));
    cases
}

/// The `lower` and `error` classes.
fn front_end_digests() -> Digests {
    let mut out = Digests::new();
    let mut put = |name: &str, class: &str, text: &str| {
        out.insert(format!("{name} front {class}"), fnv64(text));
    };
    let sources = workloads()
        .iter()
        .map(|w| (w.name.to_string(), w.source.to_string()))
        .chain(example_sources());
    for (name, src) in sources {
        let (p, warnings) = perceus_lang::compile_str_checked(&src)
            .unwrap_or_else(|e| panic!("{name}: {}", e.render(&src)));
        let text = format!(
            "{}\n{p:?}\n{}",
            program_to_string(&p),
            render_warnings(&src, &warnings)
        );
        put(&name, "lower", &text);
    }
    for (name, src, infer) in error_cases() {
        let text = match front_end(&src, infer) {
            Ok((_, warnings)) => render_warnings(&src, &warnings),
            Err(e) => e.render(&src),
        };
        put(&name, "error", &text);
    }
    out
}

fn compute() -> Digests {
    // The parser and lowering recurse once per level, and the error
    // cases reach the nesting limits: more than a test thread's stack
    // in a debug build.
    let mut out = std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(front_end_digests)
        .expect("spawn")
        .join()
        .expect("front-end digests");
    let suite = workloads();
    assert_eq!(suite.len(), 13);
    for w in suite {
        let p = perceus_lang::compile_str(w.source).expect(w.name);
        for (config_name, config) in configs() {
            digest(w.name, config_name, config, p.clone(), &mut out);
        }
        for (config_name, strategy) in
            [("perceus", Strategy::Perceus), ("scoped", Strategy::Scoped)]
        {
            profile_digest(w, config_name, strategy, &mut out);
        }
    }
    for i in 0..GEN_PROGRAMS {
        let p = random_program(GEN_SEED + i, GEN_SIZES[i as usize % GEN_SIZES.len()]);
        for (config_name, config) in configs() {
            digest(
                &format!("gen{i:03}"),
                config_name,
                config,
                p.clone(),
                &mut out,
            );
        }
    }
    out
}

fn digests_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/identity.digests")
}

fn parse(text: &str) -> Digests {
    text.lines()
        .map(|line| {
            let (key, hex) = line.rsplit_once(' ').expect(line);
            (key.to_string(), u64::from_str_radix(hex, 16).expect(line))
        })
        .collect()
}

#[test]
fn compiler_output_matches_committed_digests() {
    let actual = compute();
    let path = digests_path();
    if std::env::var_os("BLESS").is_some() {
        let mut text = String::new();
        for (key, hash) in &actual {
            let _ = writeln!(text, "{key} {hash:016x}");
        }
        std::fs::write(&path, text).expect("write digests");
        return;
    }
    let expected = parse(&std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}; run with BLESS=1 to create",
            path.display()
        )
    }));
    let mut moved = Vec::new();
    for (key, hash) in &actual {
        match expected.get(key) {
            Some(want) if want == hash => {}
            Some(want) => moved.push(format!("{key}: {hash:016x}, committed {want:016x}")),
            None => moved.push(format!("{key}: not in the committed file")),
        }
    }
    for key in expected.keys().filter(|k| !actual.contains_key(*k)) {
        moved.push(format!("{key}: committed but no longer produced"));
    }
    assert!(
        moved.is_empty(),
        "{} of {} digests (program config class) differ from {}:\n  {}\n\
         if intentional, regenerate with BLESS=1 and say which class moved",
        moved.len(),
        actual.len(),
        path.display(),
        moved.join("\n  ")
    );
}
