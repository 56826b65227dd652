//! `pkc` — a compiler-explorer CLI for the Perceus pipeline.
//!
//! Reads a surface-language program and shows the core IR after each
//! stage: lowering, reuse analysis, dup/drop insertion, specialization
//! and fusion — then optionally runs it.
//!
//! ```sh
//! # explore the passes on a file
//! cargo run --example pkc -- crates/suite/programs/rbtree.pk --stages
//!
//! # run main(n) under a strategy
//! cargo run --release --example pkc -- crates/suite/programs/rbtree.pk --run 1000 --strategy perceus
//! ```

use perceus_core::ir::pretty::program_to_string;
use perceus_core::passes::{drop_spec, fuse, inline, insert, normalize, reuse, reuse_spec};
use perceus_runtime::machine::RunConfig;
use perceus_suite::{compile_workload, run_workload, Strategy};

fn usage() -> ! {
    eprintln!(
        "usage: pkc FILE [--stages] [--run N] [--strategy NAME]\n\
         strategies: perceus (default), perceus-no-opt, scoped-rc, tracing-gc, arena"
    );
    std::process::exit(2)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file = None;
    let mut stages = false;
    let mut run_n: Option<i64> = None;
    let mut strategy = Strategy::Perceus;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stages" => stages = true,
            "--run" => {
                run_n = Some(
                    it.next()
                        .unwrap_or_else(|| usage())
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--strategy" => {
                let name = it.next().unwrap_or_else(|| usage());
                strategy = Strategy::ALL
                    .into_iter()
                    .find(|s| s.label() == name)
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            other if file.is_none() => file = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(file) = file else { usage() };
    let src = std::fs::read_to_string(&file)?;

    if stages || run_n.is_none() {
        let mut p = match perceus_lang::compile_str_checked(&src) {
            Ok((p, warnings)) => {
                for w in &warnings {
                    eprintln!("{}", w.render(&src));
                }
                p
            }
            Err(e) => {
                eprintln!("{}", e.render(&src));
                std::process::exit(1);
            }
        };
        normalize::normalize_program(&mut p);
        println!("=== 1. lowered core (ANF) ===\n{}", program_to_string(&p));
        inline::inline_program(&mut p, &inline::InlineConfig::default());
        normalize::normalize_program(&mut p);
        reuse::reuse_program(&mut p, &reuse::ReuseConfig::default());
        println!(
            "=== 2. after inlining + reuse analysis (Fig. 1e: @tokens) ===\n{}",
            program_to_string(&p)
        );
        insert::insert_program(&mut p)?;
        println!(
            "=== 3. after Perceus insertion (Fig. 1b: dup/drop) ===\n{}",
            program_to_string(&p)
        );
        reuse_spec::reuse_spec_program(&mut p);
        drop_spec::drop_spec_program(&mut p, &drop_spec::DropSpecConfig::default());
        fuse::fuse_program(&mut p);
        println!(
            "=== 4. after specialization + fusion (Fig. 1g: is-unique fast paths) ===\n{}",
            program_to_string(&p)
        );
    }

    if let Some(n) = run_n {
        let compiled = compile_workload(&src, strategy)?;
        let start = std::time::Instant::now();
        let out = run_workload(&compiled, strategy, n, RunConfig::new())?;
        println!("main({n}) = {}  [{:?}]", out.value, start.elapsed());
        for line in out.output {
            println!("println: {line}");
        }
        println!("{}", out.stats);
        if strategy.is_rc() {
            println!("leaked blocks: {}", out.leaked_blocks);
        }
    }
    Ok(())
}
