//! Runtime errors.

use crate::value::{Addr, Value};
use perceus_core::ir::CtorId;
use std::fmt;

/// An error raised while executing a compiled program.
///
/// `#[non_exhaustive]`: downstream matches must carry a wildcard arm,
/// so adding an error variant is not a breaking change. Every variant
/// has a stable machine-readable code ([`RuntimeError::code`]) that
/// wire protocols report verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// `abort(...)` was executed (non-exhaustive match, etc.).
    Abort(String),
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// An address referenced a freed (or re-tenanted) cell. With the
    /// generation-checked heap this is how any unsoundness in generated
    /// reference counting surfaces — deterministically.
    UseAfterFree(Addr),
    /// An address was out of range entirely.
    BadAddress(Addr),
    /// The configured step budget was exhausted.
    StepLimit(u64),
    /// The configured live-memory budget was exceeded: the session's
    /// live heap plus its value stack and frame records grew past
    /// `limit_words` (they reached `live_words`). Because the heap is
    /// garbage-free (Thm. 2), the live words at any step are exactly
    /// the program's reachable data — so this limit is a
    /// *deterministic* sandbox, not an allocator-dependent OOM.
    MemoryLimit { limit_words: u64, live_words: u64 },
    /// A value had the wrong shape for the operation (a compiler bug or
    /// an ill-typed hand-built program).
    TypeMismatch(String),
    /// A pattern match fell through every arm with no default.
    MatchFailure(String),
    /// An internal invariant of the heap or machine was violated.
    Internal(String),
}

impl RuntimeError {
    /// The stable machine-readable code for this error, one per
    /// variant. These strings are a wire-protocol contract (see
    /// docs/SERVING.md): they never change for an existing variant, and
    /// a new variant must introduce a new code.
    pub fn code(&self) -> &'static str {
        match self {
            RuntimeError::Abort(_) => "abort",
            RuntimeError::DivisionByZero => "division-by-zero",
            RuntimeError::UseAfterFree(_) => "use-after-free",
            RuntimeError::BadAddress(_) => "bad-address",
            RuntimeError::StepLimit(_) => "step-limit",
            RuntimeError::MemoryLimit { .. } => "memory-limit",
            RuntimeError::TypeMismatch(_) => "type-mismatch",
            RuntimeError::MatchFailure(_) => "match-failure",
            RuntimeError::Internal(_) => "internal",
        }
    }
}

/// The texts of the dispatch errors, shared by the machine and the
/// native backend's generated code (so both report the same message).
impl RuntimeError {
    /// A call of function `name` with the wrong number of arguments.
    #[cold]
    pub fn fun_arity(name: &str, want: usize, got: usize) -> Self {
        RuntimeError::TypeMismatch(format!("{name} expects {want} arguments, got {got}"))
    }

    /// An application of a closure with the wrong number of arguments.
    #[cold]
    pub fn closure_arity(want: usize, got: usize) -> Self {
        RuntimeError::TypeMismatch(format!("closure expects {want} arguments, got {got}"))
    }

    /// An application of a heap block that is not a closure.
    #[cold]
    pub fn non_function_block() -> Self {
        RuntimeError::TypeMismatch("application of a non-function block".into())
    }

    /// An application of an immediate that is not a function.
    #[cold]
    pub fn apply_non_function(v: Value) -> Self {
        RuntimeError::TypeMismatch(format!("application of non-function value {v}"))
    }

    /// A constructor reuse whose token slot holds no token.
    #[cold]
    pub fn bad_reuse_token(v: Value) -> Self {
        RuntimeError::TypeMismatch(format!("constructor reuse argument is not a token: {v}"))
    }

    /// A match with no arm for constructor `ctor` (named `name`) and no
    /// default.
    #[cold]
    pub fn no_arm(name: &str, ctor: CtorId) -> Self {
        RuntimeError::MatchFailure(format!("no arm for constructor {name} ({ctor:?})"))
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Abort(m) => write!(f, "abort: {m}"),
            RuntimeError::DivisionByZero => f.write_str("division by zero"),
            RuntimeError::UseAfterFree(a) => write!(f, "use after free at {a}"),
            RuntimeError::BadAddress(a) => write!(f, "bad address {a}"),
            RuntimeError::StepLimit(n) => write!(f, "step limit of {n} exhausted"),
            RuntimeError::MemoryLimit {
                limit_words,
                live_words,
            } => write!(
                f,
                "memory limit of {limit_words} words exceeded ({live_words} live)"
            ),
            RuntimeError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            RuntimeError::MatchFailure(m) => write!(f, "match failure: {m}"),
            RuntimeError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for RuntimeError {}
