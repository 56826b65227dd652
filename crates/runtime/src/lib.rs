//! # perceus-runtime
//!
//! The runtime half of the Perceus reproduction:
//!
//! * [`heap`] — the reference-counted heap of Fig. 7: signed headers
//!   with the thread-shared negative encoding and sticky range of
//!   §2.7.2, worklist-based recursive `drop`, reuse tokens (§2.4),
//!   generation-checked addresses; plus [`heap::shared`], the
//!   atomic-header thread-shared segment and the `mark_shared` barrier
//!   that moves values across thread boundaries;
//! * [`code`] — the backend: core IR → slot-resolved executable form;
//! * [`machine`] — a tail-call-safe abstract machine implementing the
//!   (appᵣ)/(matchᵣ) conventions;
//! * [`gc`] — a mark–sweep collector (the tracing-GC baseline);
//! * [`standard`] — the plain semantics of Fig. 6, the differential
//!   oracle for Theorem 1;
//! * [`audit`] — executable checks for the garbage-free theorems
//!   (Thm. 2/4) and the exact-count property (Appendix D.3);
//! * [`native`] — what code compiled by `perceus-codegen` links
//!   against: the per-run state, the report line and the subprocess
//!   driver (its primitives and dispatch are the machine's own);
//! * [`profile`] — the attributed profiler: every heap/RC event
//!   credited to the executing function (calling-context tree,
//!   per-constructor reuse rates, per-function peak liveness), exact
//!   against [`heap::Stats`] and free when disabled.
//!
//! Typical use (see `perceus-suite` for a one-call driver):
//!
//! ```
//! use perceus_core::{Pipeline, PassConfig};
//! use perceus_core::ir::builder::ProgramBuilder;
//! use perceus_core::ir::Expr;
//! use perceus_runtime::{code, machine::{Machine, RunConfig}, heap::ReclaimMode};
//!
//! let mut pb = ProgramBuilder::new();
//! let x = pb.fresh("x");
//! let id = pb.fun("id", vec![x.clone()], Expr::Var(x));
//! pb.entry(id);
//! let program = Pipeline::new(PassConfig::perceus()).run(pb.finish()).unwrap();
//! let compiled = code::compile(&program).unwrap();
//! let mut m = Machine::new(&compiled, ReclaimMode::Rc, RunConfig::default());
//! let out = m.run_entry(vec![perceus_runtime::value::Value::Int(7)]).unwrap();
//! assert_eq!(out.as_int(), Some(7));
//! ```

#![deny(unsafe_code)]

pub mod audit;
pub mod code;
pub mod error;
pub mod gc;
pub mod heap;
pub mod machine;
pub mod native;
pub mod profile;
pub mod standard;
pub mod value;

pub use error::RuntimeError;
pub use heap::{Heap, ReclaimMode, SharedHeap, Stats, SCHEDULE_KEYS};
pub use machine::{DeepValue, Execution, Machine, RunConfig, StepOutcome};
pub use profile::{FrameKind, ProfCounts, ProfMetric, Profiler};
pub use value::{Field, Value};
