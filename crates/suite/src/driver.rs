//! The compile-and-run driver: surface source → pass pipeline →
//! backend → abstract machine, under a chosen memory-management
//! strategy.

use perceus_core::check as linear;
use perceus_core::ir::{erase_program, Program};
use perceus_core::passes::{PassConfig, PassError, Pipeline, RcStrategy};
use perceus_lang::LangError;
use perceus_runtime::code::{self, Compiled};
use perceus_runtime::machine::{DeepValue, Machine, RunConfig};
use perceus_runtime::standard::{to_deep, Oracle, OracleError, SValue};
use perceus_runtime::{Profiler, ReclaimMode, RuntimeError, Stats, Value};
use std::fmt;

/// The memory-management strategies compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Full Perceus (the paper's Koka column).
    Perceus,
    /// Precise reference counting without reuse/specialization
    /// ("Koka, no-opt").
    PerceusNoOpt,
    /// Scope-tied reference counting (§2.2 baseline).
    Scoped,
    /// Tracing mark–sweep collection.
    Gc,
    /// Never reclaim.
    Arena,
}

impl Strategy {
    /// All strategies, in the order Fig. 9 lists its systems.
    pub const ALL: [Strategy; 5] = [
        Strategy::Perceus,
        Strategy::PerceusNoOpt,
        Strategy::Scoped,
        Strategy::Gc,
        Strategy::Arena,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Perceus => "perceus",
            Strategy::PerceusNoOpt => "perceus-no-opt",
            Strategy::Scoped => "scoped-rc",
            Strategy::Gc => "tracing-gc",
            Strategy::Arena => "arena",
        }
    }

    /// The system(s) of the paper this strategy stands in for.
    pub fn paper_column(self) -> &'static str {
        match self {
            Strategy::Perceus => "Koka",
            Strategy::PerceusNoOpt => "Koka, no-opt",
            Strategy::Scoped => "Swift (scoped rc)",
            Strategy::Gc => "OCaml/Haskell/Java (tracing)",
            Strategy::Arena => "C++ (no reclamation)",
        }
    }

    /// How this evaluation strategy lowers onto the two independent
    /// axes below it: the compile-time insertion discipline
    /// ([`RcStrategy`]) and the runtime reclamation mode
    /// ([`ReclaimMode`]). This is the single source of truth — every
    /// other mapping (`pass_config`, `reclaim_mode`, `is_rc`) derives
    /// from it.
    pub fn lowering(self) -> (RcStrategy, ReclaimMode) {
        match self {
            Strategy::Perceus | Strategy::PerceusNoOpt => (RcStrategy::Perceus, ReclaimMode::Rc),
            Strategy::Scoped => (RcStrategy::Scoped, ReclaimMode::Rc),
            Strategy::Gc => (RcStrategy::None, ReclaimMode::Gc),
            Strategy::Arena => (RcStrategy::None, ReclaimMode::Arena),
        }
    }

    /// The pass configuration for this strategy: the canonical config
    /// for the lowered insertion discipline, minus the optimizations
    /// for the no-opt column.
    pub fn pass_config(self) -> PassConfig {
        let config = PassConfig::for_strategy(self.lowering().0);
        match self {
            Strategy::PerceusNoOpt => config
                .with_reuse(false)
                .with_reuse_spec(false)
                .with_drop_spec(false)
                .with_fuse(false),
            _ => config,
        }
    }

    /// The heap reclamation mode for this strategy.
    pub fn reclaim_mode(self) -> ReclaimMode {
        self.lowering().1
    }

    /// True for the reference-counting strategies (whose heaps must be
    /// empty after the result is dropped).
    pub fn is_rc(self) -> bool {
        self.lowering().1 == ReclaimMode::Rc
    }
}

/// An error from the driver.
#[derive(Debug)]
pub enum SuiteError {
    /// Front-end failure.
    Lang(LangError),
    /// Pass pipeline failure.
    Pass(PassError),
    /// The resource checker rejected the pass output (a pass bug).
    Linear(linear::LinearError),
    /// Backend or execution failure.
    Runtime(RuntimeError),
    /// The standard-semantics oracle failed.
    Oracle(OracleError),
    /// A garbage-free audit failed, or parallel workers disagreed (see
    /// [`crate::parallel`]).
    Audit(String),
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteError::Lang(e) => write!(f, "{e}"),
            SuiteError::Pass(e) => write!(f, "{e}"),
            SuiteError::Linear(e) => write!(f, "{e}"),
            SuiteError::Runtime(e) => write!(f, "{e}"),
            SuiteError::Oracle(e) => write!(f, "oracle: {e}"),
            SuiteError::Audit(msg) => write!(f, "audit: {msg}"),
        }
    }
}

impl std::error::Error for SuiteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SuiteError::Lang(e) => Some(e),
            SuiteError::Pass(e) => Some(e),
            SuiteError::Linear(e) => Some(e),
            SuiteError::Runtime(e) => Some(e),
            SuiteError::Oracle(e) => Some(e),
            SuiteError::Audit(_) => None,
        }
    }
}

impl From<LangError> for SuiteError {
    fn from(e: LangError) -> Self {
        SuiteError::Lang(e)
    }
}
impl From<PassError> for SuiteError {
    fn from(e: PassError) -> Self {
        SuiteError::Pass(e)
    }
}
impl From<RuntimeError> for SuiteError {
    fn from(e: RuntimeError) -> Self {
        SuiteError::Runtime(e)
    }
}
impl From<OracleError> for SuiteError {
    fn from(e: OracleError) -> Self {
        SuiteError::Oracle(e)
    }
}

/// Compiles source text under the given strategy, through the whole
/// stack: parse/typecheck → passes → resource check (for the rc
/// strategies) → backend.
///
/// A source past the front end's nesting limits
/// ([`perceus_lang::MAX_NESTING`], [`perceus_lang::MAX_DEPTH`]) is
/// rejected with a [`perceus_lang::error::Phase::Depth`] error, so every
/// stage's recursion stays within a stack of known size.
pub fn compile_workload(src: &str, strategy: Strategy) -> Result<Compiled, SuiteError> {
    let program = perceus_lang::compile_str(src)?;
    compile_program(program, strategy)
}

/// Like [`compile_workload`] but starting from an already-lowered core
/// program.
pub fn compile_program(program: Program, strategy: Strategy) -> Result<Compiled, SuiteError> {
    let program = perceus_lang::check_depth(program)?;
    let program = Pipeline::new(strategy.pass_config()).run(program)?;
    if strategy.is_rc() {
        linear::check_program(&program).map_err(SuiteError::Linear)?;
    }
    Ok(code::compile(&program)?)
}

/// Compiles with an explicit pass configuration (used by the ablation
/// experiments, which toggle individual optimizations).
pub fn compile_with_config(src: &str, config: PassConfig) -> Result<Compiled, SuiteError> {
    let rc = config.strategy() != RcStrategy::None;
    let program = perceus_lang::check_depth(perceus_lang::compile_str(src)?)?;
    let program = Pipeline::new(config).run(program)?;
    if rc {
        linear::check_program(&program).map_err(SuiteError::Linear)?;
    }
    Ok(code::compile(&program)?)
}

/// Compiles under the Perceus strategy with borrow inference on — the
/// snapshot-read variant: borrowed parameters are never consumed, so a
/// pure traversal of a shared-segment structure emits no reference
/// count operations at all (zero atomic RMWs on the read path).
pub fn compile_borrowing(src: &str) -> Result<Compiled, SuiteError> {
    compile_with_config(src, PassConfig::perceus_borrowing())
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The program result, read back as a tree.
    pub value: DeepValue,
    /// Runtime statistics (the quantities behind every figure).
    pub stats: Stats,
    /// `println` output.
    pub output: Vec<i64>,
    /// Heap blocks still live after the result was dropped. For the
    /// reference-counting strategies of a garbage-free compiler this is
    /// **zero** (Theorem 2); the GC/arena strategies retain whatever
    /// they haven't collected.
    pub leaked_blocks: u64,
    /// Size-class free-list occupancy at exit: `(field_count, blocks)`
    /// for every nonempty class (empty when recycling is off).
    pub free_list_occupancy: Vec<(usize, usize)>,
    /// Number of in-flight garbage-free audits that ran (nonzero only
    /// when `RunConfig::audit_every` was set; each audit verified heap
    /// reachability and reference-count adequacy mid-run).
    pub audits: u64,
    /// The attributed profile, when `RunConfig::profile` was set (see
    /// [`perceus_runtime::profile`]).
    pub profile: Option<Profiler>,
}

/// Runs a compiled workload's `main(n)`.
pub fn run_workload(
    compiled: &Compiled,
    strategy: Strategy,
    n: i64,
    config: RunConfig,
) -> Result<RunOutcome, SuiteError> {
    let mut m = Machine::new(compiled, strategy.reclaim_mode(), config);
    let v = m.run_entry(vec![Value::Int(n)])?;
    let value = m.read_back(v)?;
    let output = m.output().to_vec();
    m.drop_result(v)?;
    let stats = m.heap.stats;
    Ok(RunOutcome {
        value,
        stats,
        output,
        leaked_blocks: m.heap.live_blocks(),
        free_list_occupancy: m.heap.free_list_occupancy(),
        audits: m.audits_run(),
        profile: m.heap.take_profile(),
    })
}

/// Convenience: compile and run in one call.
pub fn compile_and_run(
    src: &str,
    strategy: Strategy,
    n: i64,
    config: RunConfig,
) -> Result<RunOutcome, SuiteError> {
    let compiled = compile_workload(src, strategy)?;
    run_workload(&compiled, strategy, n, config)
}

/// Runs a program's erasure under the standard semantics of Fig. 6 (the
/// Theorem 1 oracle). Executed on a large-stack thread because the
/// oracle is natively recursive.
pub fn oracle_run(src: &str, n: i64, fuel: u64) -> Result<(DeepValue, Vec<i64>), SuiteError> {
    let program = perceus_lang::compile_str(src)?;
    oracle_run_program(&program, n, fuel)
}

/// [`oracle_run`] starting from a core program.
pub fn oracle_run_program(
    program: &Program,
    n: i64,
    fuel: u64,
) -> Result<(DeepValue, Vec<i64>), SuiteError> {
    let erased = erase_program(program);
    let types = erased.types.clone();
    let handle = std::thread::Builder::new()
        .stack_size(512 << 20)
        .spawn(move || {
            let mut oracle = Oracle::new(&erased, fuel).with_max_depth(2_000_000);
            let v = oracle
                .run_entry(vec![SValue::Int(n)])
                .map(|v| to_deep(&v, &types))?;
            Ok::<_, OracleError>((v, oracle.output))
        })
        .expect("spawning the oracle thread");
    handle
        .join()
        .expect("oracle thread must not panic")
        .map_err(SuiteError::Oracle)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
fun fib(n: int): int {
  if n < 2 then n else fib(n - 1) + fib(n - 2)
}
fun main(n: int): int { fib(n) }
"#;

    #[test]
    fn compile_and_run_all_strategies() {
        for s in Strategy::ALL {
            let out = compile_and_run(SRC, s, 15, RunConfig::default()).unwrap();
            assert_eq!(out.value, DeepValue::Int(610), "{}", s.label());
            if s.is_rc() {
                assert_eq!(out.leaked_blocks, 0, "{}", s.label());
            }
        }
    }

    #[test]
    fn oracle_agrees() {
        let (v, _) = oracle_run(SRC, 15, 100_000_000).unwrap();
        assert_eq!(v, DeepValue::Int(610));
    }

    #[test]
    fn lowering_is_the_single_source_of_truth() {
        for s in Strategy::ALL {
            let (rc, mode) = s.lowering();
            assert_eq!(s.pass_config().strategy(), rc, "{}", s.label());
            assert_eq!(s.reclaim_mode(), mode, "{}", s.label());
            assert_eq!(s.is_rc(), mode == ReclaimMode::Rc, "{}", s.label());
        }
        // No rc insertion without an rc heap, and vice versa.
        for s in Strategy::ALL {
            let (rc, mode) = s.lowering();
            assert_eq!(rc == RcStrategy::None, mode != ReclaimMode::Rc);
        }
    }

    #[test]
    fn strategy_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            Strategy::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), Strategy::ALL.len());
    }
}
