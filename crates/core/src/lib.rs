//! # perceus-core
//!
//! The λ¹ linear resource calculus and the Perceus reference-counting
//! algorithm from *Perceus: Garbage Free Reference Counting with Reuse*
//! (Reinking, Xie, de Moura, Leijen — PLDI 2021).
//!
//! This crate contains:
//!
//! * [`ir`] — the core intermediate representation: an untyped functional
//!   core language with algebraic data types, explicit control flow, and
//!   the reference-counting instruction forms of the paper (`dup`, `drop`,
//!   `drop-reuse`, `is-unique`, `free`, `decref`, constructor-with-reuse).
//! * [`check`] — the *resource checker*, an executable analog of the
//!   declarative linear resource rules (Fig. 5): it verifies that every
//!   owned reference is consumed exactly once on every control-flow path.
//! * [`passes`] — the Perceus insertion algorithm (Fig. 8) and every
//!   optimization described in §2 of the paper: reuse analysis,
//!   drop specialization, drop-reuse specialization, dup push-down with
//!   dup/drop fusion, and reuse specialization; plus the scoped
//!   ("`shared_ptr`-style", §2.2) insertion used as a baseline, an ANF
//!   normalizer and a small-function inliner.
//!
//! The typical pipeline is driven by [`passes::Pipeline`]:
//!
//! ```
//! use perceus_core::ir::Program;
//! use perceus_core::passes::{Pipeline, PassConfig};
//!
//! // A program is usually produced by the `perceus-lang` front end; here
//! // we start from an empty one just to show the driver API.
//! let program = Program::new();
//! let compiled = Pipeline::new(PassConfig::perceus()).run(program).unwrap();
//! assert!(compiled.funs.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod check;
pub mod ir;
pub mod json;
pub mod passes;

pub use analysis::{analyze_program, Analysis, Diagnostic, Diagnostics, LintCode};
pub use ir::{Expr, Program, Var};
pub use passes::{
    AnalyzedStages, PassConfig, PassError, PassName, Pipeline, StageAnalysis, StageError,
    StageTrace, Validation,
};
