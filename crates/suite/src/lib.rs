//! # perceus-suite
//!
//! The paper's benchmark programs (§4 and the overview examples),
//! written in the `perceus-lang` surface language, plus a one-call
//! driver that compiles a program under any memory-management strategy
//! and runs it on the `perceus-runtime` machine.
//!
//! The five *strategies* reproduce the systems compared in Fig. 9 (see
//! DESIGN.md for the substitution rationale):
//!
//! | Strategy | Paper column |
//! |---|---|
//! | [`Strategy::Perceus`] | Koka (all optimizations) |
//! | [`Strategy::PerceusNoOpt`] | Koka, no-opt |
//! | [`Strategy::Scoped`] | Swift / C++ `shared_ptr` / Nim (scope-tied RC) |
//! | [`Strategy::Gc`] | OCaml / Haskell / Java (tracing collection) |
//! | [`Strategy::Arena`] | C++ leak baseline (deriv, nqueens, cfold) |

#![forbid(unsafe_code)]

//! The differential-testing subsystem lives in [`diff`] (strategy ×
//! oracle agreement plus the garbage-free invariant, over [`genprog`]
//! programs) and [`shrink`] (greedy counterexample reduction); the
//! `perceus-suite` binary exposes it as the `fuzz` subcommand.

pub mod certify;
pub mod diff;
pub mod driver;
pub mod genprog;
pub mod native;
pub mod parallel;
pub mod resume;
pub mod shrink;
pub mod workloads;

pub use certify::{
    certify_and_replay, certify_final, certify_stages, eval_bound_at, replay_sizes,
    replay_workload, Exceedance, ReplayReport, StageCerts,
};
pub use diff::{
    differential_check, fuzz, CheckOutcome, Divergence, Failure, FuzzConfig, FuzzReport,
};
pub use driver::{
    compile_and_run, compile_borrowing, compile_with_config, compile_workload, oracle_run,
    run_workload, RunOutcome, Strategy, SuiteError,
};
pub use native::{
    compare_probes, ensure_supported, fuzz_native, machine_probe, ExecProbe, NativeBin,
    NativeCheck, NativeFuzzReport, NativeHarness, NativeReport,
};
pub use parallel::{
    run_contended, run_parallel, ContendedOutcome, ParallelOutcome, ParallelSpec, ReadMode,
};
pub use resume::{determinism_divergence, run_workload_budgeted, ResumeOutcome};
pub use shrink::{shrink_program, ShrinkOutcome};
pub use workloads::{workload, workloads, Workload};
