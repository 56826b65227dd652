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
//! borrowing. When a change is meant to move a digest, regenerate with
//!
//! ```text
//! BLESS=1 cargo test --test identity
//! ```
//!
//! and say in the PR which class of digest moved and why.

use perceus_core::ir::pretty::program_to_string;
use perceus_core::ir::Program;
use perceus_core::passes::{PassConfig, Pipeline};
use perceus_runtime::code::{self, Compiled};
use perceus_suite::genprog::random_program;
use perceus_suite::workloads;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

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

fn compute() -> Digests {
    let mut out = Digests::new();
    let suite = workloads();
    assert_eq!(suite.len(), 13);
    for w in suite {
        let p = perceus_lang::compile_str(w.source).expect(w.name);
        for (config_name, config) in configs() {
            digest(w.name, config_name, config, p.clone(), &mut out);
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
