//! # perceus-repro
//!
//! A from-scratch Rust reproduction of *Perceus: Garbage Free Reference
//! Counting with Reuse* (Reinking, Xie, de Moura, Leijen — PLDI 2021).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`perceus_core`] (re-exported as `core`) — the λ¹ IR, the Perceus insertion algorithm
//!   and every optimization pass of the paper (reuse analysis, drop
//!   specialization, dup/drop fusion, reuse specialization), plus the
//!   resource checker.
//! * [`perceus_lang`] (re-exported as `lang`) — a Koka-like surface language: lexer,
//!   parser, Hindley–Milner type inference, nested-pattern match
//!   compilation, lowering to the IR.
//! * [`perceus_runtime`] (re-exported as `runtime`) — the reference-counted heap of Fig. 7
//!   (with the thread-shared negative-count encoding of §2.7.2), an
//!   abstract machine, the standard-semantics oracle of Fig. 6, a
//!   reachability auditor for the garbage-free theorems, and the
//!   tracing-GC / arena baseline collectors.
//! * [`perceus_suite`] (re-exported as `suite`) — the paper's benchmark programs (rbtree,
//!   rbtree-ck, deriv, nqueens, cfold, the FBIP tree traversals).
//!
//! See `README.md` for a walkthrough, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for paper-vs-measured results.

#![forbid(unsafe_code)]

pub use perceus_core as core;
pub use perceus_lang as lang;
pub use perceus_runtime as runtime;
pub use perceus_suite as suite;
