//! # perceus-codegen
//!
//! The native backend: translates a [`Compiled`] λ¹ program into a
//! standalone Rust module — one Rust function per λ¹ function, with the
//! abstract machine's instruction stream written out as straight-line
//! code. Every `dup`/`drop`/`alloc`/`alloc_into`/`is_unique` the
//! machine would execute appears as an explicit call against the *same*
//! [`perceus_runtime::Heap`], in the same order, and every machine step
//! is counted — so a native run produces **bit-identical**
//! [`perceus_runtime::Stats`] schedule counters
//! ([`perceus_runtime::SCHEDULE_KEYS`]) to an interpreted run. What
//! changes is only the execution engine: interpreter dispatch (the
//! `step_loop` match) is compiled away, which is how Perceus itself is
//! evaluated (Koka compiles to C; "Counting Immutable Beans" compiles
//! the same discipline into Lean's native runtime).
//!
//! The pipeline is *emit → compile → run*:
//!
//! 1. [`emit_batch`] renders any number of compiled programs into one
//!    Rust source file (a `main.rs` with one module per program). It
//!    defines no runtime function: the primitives, match dispatch,
//!    error texts and subprocess driver are imported from
//!    [`perceus_runtime::native`], the same definitions the machine
//!    runs;
//! 2. [`build_programs`] writes it as a tiny cargo project under
//!    `target/native/` (path-dependencies on `perceus-runtime` and
//!    `perceus-core`, built `--offline`) and compiles it with the
//!    already-installed toolchain, caching the binary by a content hash
//!    of the generated source *and* the runtime/core crate sources;
//! 3. [`NativeBin::run`] executes one program in a subprocess and
//!    parses its single-line JSON report (result value, `println`
//!    output, the 18 schedule counters, leaked blocks, wall time).
//!
//! Batching matters: the machine-vs-native differential gate runs 13
//! workloads plus a 100-program fuzz leg, and each batch costs exactly
//! one `cargo build`.
//!
//! ## What the native backend does not do
//!
//! By design (documented limits, see `docs/CODEGEN.md`):
//!
//! * **No mid-run suspension.** The machine's resumable
//!   [`perceus_runtime::Execution`] checkpoints its explicit frame
//!   stack; native frames live on the Rust call stack and cannot be
//!   parked. Budgeted/resumable execution must use the machine —
//!   drivers reject it with [`NativeError::Unsupported`].
//! * **Reference-counting heaps only.** The tracing-GC mode needs root
//!   enumeration of the machine's environments, and the arena mode is a
//!   leak baseline; both stay interpreter-only.
//! * **Single-threaded.** One subprocess, one heap, no shared segment.

#![forbid(unsafe_code)]

mod emit;
mod project;
mod report;

pub use emit::{emit_batch, emit_module};
pub use project::{build_programs, build_source, native_workdir, NativeBin};
pub use report::NativeReport;

use perceus_runtime::code::Compiled;
use std::fmt;

/// An error from the native backend's emit/compile/run pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NativeError {
    /// The program's executable IR contains something the emitter
    /// cannot translate (an internal invariant violation — the pass
    /// pipeline never produces these).
    Emit(String),
    /// A feature the native backend rejects by design (suspension,
    /// non-RC reclaim modes); the machine supports it, use that.
    Unsupported(String),
    /// `cargo build` of the generated project failed.
    Build(String),
    /// The generated executor subprocess failed to run or died.
    Subprocess(String),
    /// The subprocess report could not be parsed.
    Report(String),
    /// Filesystem trouble while writing the generated project.
    Io(String),
}

impl fmt::Display for NativeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NativeError::Emit(m) => write!(f, "codegen emit: {m}"),
            NativeError::Unsupported(m) => write!(f, "native backend: {m}"),
            NativeError::Build(m) => write!(f, "native build: {m}"),
            NativeError::Subprocess(m) => write!(f, "native executor: {m}"),
            NativeError::Report(m) => write!(f, "native report: {m}"),
            NativeError::Io(m) => write!(f, "native io: {m}"),
        }
    }
}

impl std::error::Error for NativeError {}

impl From<std::io::Error> for NativeError {
    fn from(e: std::io::Error) -> Self {
        NativeError::Io(e.to_string())
    }
}

/// Emits and compiles a batch of programs, returning the executor
/// binary. The names must be unique; each becomes the `--prog` key the
/// subprocess dispatches on.
pub fn build(programs: &[(String, &Compiled)]) -> Result<NativeBin, NativeError> {
    build_programs(programs)
}
