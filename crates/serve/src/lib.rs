//! `perceus-serve`: a multi-tenant serving harness over the Perceus
//! runtime.
//!
//! The daemon accepts compile+run sessions over newline-delimited JSON
//! on TCP, caches compiled programs by workload name or source hash,
//! and executes sessions on a sharded pool of workers that each
//! *recycle one heap* across tenants ([`perceus_runtime::Heap::reset`]
//! between sessions).
//! The design leans on the paper's central properties:
//!
//! - **Garbage-freedom (Thm. 2/4)** makes per-session accounting
//!   exact: an ok session leaves zero live blocks, so "zero leaks
//!   across all tenants" is audited per session, not sampled; and the
//!   live-word memory limit is a deterministic sandbox, not a
//!   collector-timing artifact.
//! - **Generation-checked addresses** make cross-session slot reuse
//!   safe: a stale address from an evicted tenant fails
//!   deterministically instead of reading the next tenant's data.
//! - **The share barrier (§2.7.2-3)** extends to cross-*session*
//!   sharing: immutable inputs are frozen once into an atomic-header
//!   segment and every session on any worker pays one atomic `dup`.
//!
//! See `docs/SERVING.md` for the architecture and the session
//! lifecycle state machine, and `crate::loadtest` for the traffic
//! generator behind the `serve-smoke` CI gate.

#![forbid(unsafe_code)]

pub mod cache;
pub mod loadtest;
pub mod protocol;
pub mod server;
pub mod worker;

pub use cache::{CachedProgram, ProgramCache, SharedInputs};
pub use loadtest::{LoadConfig, LoadReport};
/// The wire protocol's JSON reader and writer.
pub use perceus_core::json;
pub use protocol::{Outcome, Request, RunRequest};
pub use server::{start, ServeConfig, ServerHandle};

/// Locks a daemon-shared mutex, recovering the data if a panicking
/// thread poisoned it. Every mutex in the daemon guards plain counters
/// or maps whose critical sections are single-assignment small — they
/// are internally consistent at every instruction boundary — so poison
/// carries no integrity information here. Propagating it instead
/// (`.lock().unwrap()`) would turn one panicking session into a panic
/// in *every* subsequent session that touches the aggregate: the
/// daemon keeps accepting connections while every worker dies, which
/// clients observe as a hang, not an error.
pub(crate) fn relock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
