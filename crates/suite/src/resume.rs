//! The checkpoint/resume driver: runs a workload in budgeted legs over
//! the resumable [`perceus_runtime::Execution`] API instead of
//! run-to-completion, auditing garbage-freedom at every suspension
//! point.
//!
//! Because Perceus is garbage-free at every step (Thm. 2/4), a
//! suspended machine is a precise heap snapshot: suspending and
//! resuming must be *invisible* in the schedule — the result value, the
//! `println` output, and every [`perceus_runtime::Stats`] counter must
//! be bit-identical to an uninterrupted run. [`run_workload_budgeted`]
//! is the driver the determinism tests (and the `perceus-suite resume`
//! subcommand) use to prove that.

use crate::driver::{RunOutcome, Strategy, SuiteError};
use perceus_runtime::code::Compiled;
use perceus_runtime::machine::{Machine, RunConfig, StepOutcome};
use perceus_runtime::Value;

/// A [`RunOutcome`] plus how the execution was interrupted.
#[derive(Debug, Clone)]
pub struct ResumeOutcome {
    /// The run's result — comparable field-for-field against an
    /// uninterrupted [`crate::run_workload`] of the same program.
    pub outcome: RunOutcome,
    /// How many times the execution suspended before completing.
    pub suspensions: u64,
}

/// Runs a compiled workload's `main(n)` in budgeted legs: leg `i` gets
/// `budgets[i]` steps (the last budget repeats once the schedule runs
/// out; budgets are clamped to ≥ 1 so every leg makes progress). At
/// every suspension point the heap is audited against the suspended
/// continuation's roots — `check_heap` passing there is the
/// suspension-point invariant of the resumable API.
///
/// An empty `budgets` slice runs to completion in one leg.
pub fn run_workload_budgeted(
    compiled: &Compiled,
    strategy: Strategy,
    n: i64,
    config: RunConfig,
    budgets: &[u64],
) -> Result<ResumeOutcome, SuiteError> {
    let audit_suspensions = strategy.is_rc();
    let mut m = Machine::new(compiled, strategy.reclaim_mode(), config);
    let mut exec = m.start_entry(vec![Value::Int(n)])?;
    let mut suspensions = 0u64;
    let mut leg = 0usize;
    let v = loop {
        let budget = budgets
            .get(leg)
            .or_else(|| budgets.last())
            .map(|b| (*b).max(1));
        leg += 1;
        match exec.run(&mut m, budget)? {
            StepOutcome::Done(v) => break v,
            StepOutcome::Suspended { .. } => {
                suspensions += 1;
                if audit_suspensions {
                    exec.audit(&m.heap)
                        .map_err(|e| SuiteError::Audit(format!("at suspension point: {e}")))?;
                }
            }
        }
    };
    let value = m.read_back(v)?;
    let output = m.output().to_vec();
    m.drop_result(v)?;
    let stats = m.heap.stats;
    Ok(ResumeOutcome {
        outcome: RunOutcome {
            value,
            stats,
            output,
            leaked_blocks: m.heap.live_blocks(),
            free_list_occupancy: m.heap.free_list_occupancy(),
            audits: m.audits_run(),
            profile: m.heap.take_profile(),
        },
        suspensions,
    })
}

/// Compares a budgeted run against an uninterrupted one of the same
/// compiled program and returns the first discrepancy, if any — the
/// resume-determinism check in reusable form. `None` means the
/// interrupted schedule was bit-identical.
pub fn determinism_divergence(
    uninterrupted: &RunOutcome,
    resumed: &ResumeOutcome,
) -> Option<String> {
    let r = &resumed.outcome;
    if r.value != uninterrupted.value {
        return Some(format!(
            "value diverged: {} vs {}",
            r.value, uninterrupted.value
        ));
    }
    if r.output != uninterrupted.output {
        return Some("println output diverged".into());
    }
    if r.stats != uninterrupted.stats {
        return Some(format!(
            "stats diverged:\n  resumed:       {:?}\n  uninterrupted: {:?}",
            r.stats, uninterrupted.stats
        ));
    }
    if r.leaked_blocks != uninterrupted.leaked_blocks {
        return Some(format!(
            "leaked blocks diverged: {} vs {}",
            r.leaked_blocks, uninterrupted.leaked_blocks
        ));
    }
    None
}
