//! # perceus-bench
//!
//! The measurement harness behind every figure of the paper's
//! evaluation. The [`measure()`] function runs a workload under a strategy
//! with warmup and repetition and reports wall time plus the full
//! runtime statistics; the `figures` binary (`src/bin/figures.rs`)
//! formats the paper's tables. Wall-clock claims are measured by the
//! separate `perfbench/` package (see its README), not here.

#![forbid(unsafe_code)]

//! The `counters` module turns the deterministic counter subset of
//! [`perceus_runtime::Stats`] into a committed baseline
//! (`BENCH_BASELINE.json`) that CI compares at zero tolerance; the
//! `certgate` module replays the same baseline workloads against their
//! certified symbolic cost bounds (`perceus-bench --check-certs`).

pub mod certgate;
pub mod counters;
pub mod measure;

pub use certgate::check_certs;
pub use counters::{collect, collect_native, Baseline, WorkloadCounters, COUNTER_KEYS};
pub use measure::{measure, Measurement};
