//! Differential testing of the whole compilation stack.
//!
//! Each check takes one random core program ([`crate::genprog`]) and
//! runs it through every [`Strategy`] *and* the standard-semantics
//! oracle (Fig. 6), asserting that:
//!
//! * all six executions agree on the result value and the `println`
//!   output (Theorem 1, observational equivalence of the rc-instrumented
//!   machine and the standard semantics);
//! * the reference-counting strategies leak nothing: the heap is empty
//!   after the result is dropped, and the in-flight audits
//!   ([`perceus_runtime::audit`]) report zero violations of count
//!   adequacy and reachability (Theorems 2 and 4 — the garbage-free
//!   invariant);
//! * compilation runs with **full per-stage validation**
//!   ([`Validation::Full`]), so a pass that breaks well-formedness or
//!   the λ¹ discipline is caught at its own boundary and attributed by
//!   name even in release builds.
//!
//! Disagreements are reported as [`Divergence`]s; the fuzz loop shrinks
//! the offending program ([`crate::shrink`]) before recording it, while
//! requiring the shrunk program to reproduce a divergence of the same
//! [`Divergence::class`].

use crate::driver::{self, Strategy, SuiteError};
use crate::genprog;
use crate::shrink;
use perceus_core::check as linear;
use perceus_core::ir::{pretty, Program};
use perceus_core::json::str_lit;
use perceus_core::passes::{PassName, Pipeline, StageMutation, Validation};
use perceus_runtime::code::{self, Compiled};
use perceus_runtime::machine::RunConfig;
use std::fmt;

/// Configuration of the differential fuzz loop.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; per-iteration seeds are derived with a splitmix64
    /// step so neighboring seeds give unrelated programs.
    pub seed: u64,
    /// Number of random programs to check.
    pub iters: u64,
    /// Size budget handed to the generator.
    pub size: u32,
    /// The integer argument `main` is run with.
    pub arg: i64,
    /// Fuel for the (natively recursive) oracle.
    pub fuel: u64,
    /// Machine step limit per run.
    pub step_limit: Option<u64>,
    /// Run the garbage-free auditor every N machine steps (rc
    /// strategies only; `None` disables in-flight audits).
    pub audit_every: Option<u64>,
    /// Shrink failing programs before reporting them.
    pub shrink: bool,
    /// Upper bound on predicate evaluations (whole-matrix re-checks)
    /// spent shrinking one failure.
    pub shrink_budget: usize,
    /// Per-stage validation level used for every compilation.
    pub validation: Validation,
    /// Test instrumentation: corrupt the program after the named pass
    /// in every compilation (see `Pipeline::with_mutation_after`).
    pub mutation: Option<(PassName, StageMutation)>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0xC0FFEE,
            iters: 50,
            size: 28,
            arg: 5,
            fuel: 50_000_000,
            step_limit: Some(10_000_000),
            audit_every: Some(64),
            shrink: true,
            shrink_budget: 4_000,
            validation: Validation::Full,
            mutation: None,
        }
    }
}

/// One way two executions of the same program disagreed.
#[derive(Debug, Clone)]
pub enum Divergence {
    /// Compilation failed under one strategy (a stage error names the
    /// offending pass in `error`).
    Compile { strategy: Strategy, error: String },
    /// The machine failed at runtime where the oracle succeeded. An
    /// in-flight audit violation (garbage-free invariant) surfaces
    /// here, as the auditor aborts the run.
    Run { strategy: Strategy, error: String },
    /// The machine succeeded where the oracle failed.
    OracleOnly { strategy: Strategy, error: String },
    /// Result values differ.
    Value {
        strategy: Strategy,
        oracle: String,
        machine: String,
    },
    /// `println` output differs.
    Output {
        strategy: Strategy,
        oracle: Vec<i64>,
        machine: Vec<i64>,
    },
    /// A reference-counting strategy left live blocks behind after the
    /// result was dropped (garbage-free violation, Theorem 2).
    Leak { strategy: Strategy, leaked: u64 },
}

impl Divergence {
    /// The strategy involved.
    pub fn strategy(&self) -> Strategy {
        match self {
            Divergence::Compile { strategy, .. }
            | Divergence::Run { strategy, .. }
            | Divergence::OracleOnly { strategy, .. }
            | Divergence::Value { strategy, .. }
            | Divergence::Output { strategy, .. }
            | Divergence::Leak { strategy, .. } => *strategy,
        }
    }

    /// A coarse failure class, used by the shrinker to make sure a
    /// reduced program still exhibits the *same kind* of failure under
    /// the same strategy — not merely any failure.
    pub fn class(&self) -> String {
        let kind = match self {
            Divergence::Compile { .. } => "compile",
            Divergence::Run { .. } => "run",
            Divergence::OracleOnly { .. } => "oracle-only",
            Divergence::Value { .. } => "value",
            Divergence::Output { .. } => "output",
            Divergence::Leak { .. } => "leak",
        };
        format!("{kind}:{}", self.strategy().label())
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Compile { strategy, error } => {
                write!(f, "[{}] compilation failed: {error}", strategy.label())
            }
            Divergence::Run { strategy, error } => {
                write!(f, "[{}] run failed: {error}", strategy.label())
            }
            Divergence::OracleOnly { strategy, error } => write!(
                f,
                "[{}] machine succeeded but the oracle failed: {error}",
                strategy.label()
            ),
            Divergence::Value {
                strategy,
                oracle,
                machine,
            } => write!(
                f,
                "[{}] value mismatch: oracle {oracle}, machine {machine}",
                strategy.label()
            ),
            Divergence::Output {
                strategy,
                oracle,
                machine,
            } => write!(
                f,
                "[{}] output mismatch: oracle {oracle:?}, machine {machine:?}",
                strategy.label()
            ),
            Divergence::Leak { strategy, leaked } => write!(
                f,
                "[{}] garbage-free violation: {leaked} blocks leaked",
                strategy.label()
            ),
        }
    }
}

/// Outcome of one differential check.
#[derive(Debug, Clone, Default)]
pub struct CheckOutcome {
    /// All observed disagreements (empty = the program agrees
    /// everywhere).
    pub divergences: Vec<Divergence>,
    /// Total in-flight garbage-free audits that ran across strategies.
    pub audits: u64,
}

impl CheckOutcome {
    /// Did every strategy agree with the oracle and keep the heap
    /// garbage-free?
    pub fn agreed(&self) -> bool {
        self.divergences.is_empty()
    }
}

fn compile(
    program: &Program,
    strategy: Strategy,
    cfg: &FuzzConfig,
) -> Result<Compiled, SuiteError> {
    let mut pipeline = Pipeline::new(strategy.pass_config().with_validation(cfg.validation));
    if let Some((pass, mutation)) = cfg.mutation {
        pipeline = pipeline.with_mutation_after(pass, mutation);
    }
    let program = pipeline.run(program.clone()).map_err(SuiteError::Pass)?;
    if strategy.is_rc() {
        linear::check_program(&program).map_err(SuiteError::Linear)?;
    }
    code::compile(&program).map_err(SuiteError::Runtime)
}

/// Runs `program` under every strategy and the oracle, collecting every
/// disagreement.
pub fn differential_check(program: &Program, cfg: &FuzzConfig) -> CheckOutcome {
    // Normalize up front (the pipeline does so anyway — it's
    // idempotent) so the oracle sees computed lambda captures even for
    // raw generator output, which leaves `captures` empty.
    let program = {
        let mut p = program.clone();
        perceus_core::passes::normalize::normalize_program(&mut p);
        p
    };
    let program = &program;
    let oracle = driver::oracle_run_program(program, cfg.arg, cfg.fuel);
    let mut out = CheckOutcome::default();
    for strategy in Strategy::ALL {
        let compiled = match compile(program, strategy, cfg) {
            Ok(c) => c,
            Err(e) => {
                out.divergences.push(Divergence::Compile {
                    strategy,
                    error: e.to_string(),
                });
                continue;
            }
        };
        let run_config = RunConfig::new()
            .with_step_limit(cfg.step_limit)
            .with_audit_every(if strategy.is_rc() {
                cfg.audit_every
            } else {
                None
            })
            // The fuzzer is exactly where release builds should pay for
            // the full runtime invariant checks (skip-mask width and
            // skipped-field equality on every reuse).
            .with_validation(Validation::Full);
        let run = driver::run_workload(&compiled, strategy, cfg.arg, run_config);
        match (&oracle, run) {
            (Ok((value, output)), Ok(got)) => {
                out.audits += got.audits;
                if got.value != *value {
                    out.divergences.push(Divergence::Value {
                        strategy,
                        oracle: format!("{value:?}"),
                        machine: format!("{:?}", got.value),
                    });
                }
                if got.output != *output {
                    out.divergences.push(Divergence::Output {
                        strategy,
                        oracle: output.clone(),
                        machine: got.output,
                    });
                }
                if strategy.is_rc() && got.leaked_blocks > 0 {
                    out.divergences.push(Divergence::Leak {
                        strategy,
                        leaked: got.leaked_blocks,
                    });
                }
            }
            (Ok(_), Err(e)) => out.divergences.push(Divergence::Run {
                strategy,
                error: e.to_string(),
            }),
            (Err(e), Ok(_)) => out.divergences.push(Divergence::OracleOnly {
                strategy,
                error: e.to_string(),
            }),
            // Both failed: the strategies agree the program is broken
            // (e.g. out of fuel) — not a divergence.
            (Err(_), Err(_)) => {}
        }
    }
    out
}

/// One recorded failure of the fuzz loop.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Iteration index (0-based).
    pub iter: u64,
    /// The derived seed that generated the program.
    pub seed: u64,
    /// The divergences of the *reported* (shrunk, when shrinking is on)
    /// program.
    pub divergences: Vec<Divergence>,
    /// Pretty-printed offending program (shrunk, when shrinking is on).
    pub program: String,
    /// Expression nodes in the originally generated program.
    pub original_nodes: usize,
    /// Expression nodes in the reported program.
    pub reported_nodes: usize,
    /// Accepted shrink steps (0 = shrinking off or nothing shrank).
    pub shrink_steps: usize,
}

/// Summary of a whole fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Master seed.
    pub seed: u64,
    /// Iterations requested (= programs checked).
    pub iters: u64,
    /// Generator size budget.
    pub size: u32,
    /// `main` argument.
    pub arg: i64,
    /// Strategy labels checked against the oracle.
    pub strategies: Vec<&'static str>,
    /// Total in-flight garbage-free audits that ran.
    pub audits: u64,
    /// All failures (empty = clean run).
    pub failures: Vec<Failure>,
}

impl FuzzReport {
    /// Did the whole run agree everywhere?
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the report as a JSON document (formatted by hand,
    /// strings escaped by `perceus_core::json`).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"iters\": {},\n", self.iters));
        s.push_str(&format!("  \"size\": {},\n", self.size));
        s.push_str(&format!("  \"arg\": {},\n", self.arg));
        s.push_str(&format!(
            "  \"strategies\": [{}],\n",
            self.strategies
                .iter()
                .map(|l| format!("\"{l}\""))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        s.push_str(&format!("  \"audits\": {},\n", self.audits));
        s.push_str(&format!("  \"failure_count\": {},\n", self.failures.len()));
        s.push_str("  \"failures\": [");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {\n");
            s.push_str(&format!("      \"iter\": {},\n", f.iter));
            s.push_str(&format!("      \"seed\": {},\n", f.seed));
            s.push_str(&format!(
                "      \"classes\": [{}],\n",
                f.divergences
                    .iter()
                    .map(|d| str_lit(&d.class()))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            s.push_str(&format!(
                "      \"divergences\": [{}],\n",
                f.divergences
                    .iter()
                    .map(|d| str_lit(&d.to_string()))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            s.push_str(&format!(
                "      \"original_nodes\": {},\n",
                f.original_nodes
            ));
            s.push_str(&format!(
                "      \"reported_nodes\": {},\n",
                f.reported_nodes
            ));
            s.push_str(&format!("      \"shrink_steps\": {},\n", f.shrink_steps));
            s.push_str(&format!("      \"program\": {}\n", str_lit(&f.program)));
            s.push_str("    }");
        }
        if !self.failures.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

/// One splitmix64 scramble step — derives unrelated per-iteration seeds
/// from consecutive counter values.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the differential fuzz loop.
pub fn fuzz(cfg: &FuzzConfig) -> FuzzReport {
    fuzz_with(cfg, |_, _| {})
}

/// [`fuzz`] with a per-iteration progress callback `(iter, outcome)`.
pub fn fuzz_with(cfg: &FuzzConfig, mut on_iter: impl FnMut(u64, &CheckOutcome)) -> FuzzReport {
    let mut report = FuzzReport {
        seed: cfg.seed,
        iters: cfg.iters,
        size: cfg.size,
        arg: cfg.arg,
        strategies: Strategy::ALL.iter().map(|s| s.label()).collect(),
        audits: 0,
        failures: Vec::new(),
    };
    for iter in 0..cfg.iters {
        let seed = splitmix64(cfg.seed ^ iter.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let program = genprog::random_program(seed, cfg.size);
        let outcome = differential_check(&program, cfg);
        report.audits += outcome.audits;
        on_iter(iter, &outcome);
        if outcome.agreed() {
            continue;
        }
        report
            .failures
            .push(reduce_failure(iter, seed, program, outcome, cfg));
    }
    report
}

/// Shrinks a failing program (when enabled) and packages the report
/// entry. The shrunk program must diverge in one of the *same classes*
/// as the original failure.
fn reduce_failure(
    iter: u64,
    seed: u64,
    mut program: Program,
    outcome: CheckOutcome,
    cfg: &FuzzConfig,
) -> Failure {
    // Shrink in normalized space: raw generator output leaves lambda
    // captures empty, which the shrinker's well-formedness prefilter
    // would reject wholesale. Normalizing does not change the failure —
    // the check normalizes before compiling anyway.
    perceus_core::passes::normalize::normalize_program(&mut program);
    let original_nodes = shrink::program_nodes(&program);
    let classes: Vec<String> = outcome.divergences.iter().map(|d| d.class()).collect();
    let (reported, divergences, steps) = if cfg.shrink {
        let mut budget = cfg.shrink_budget;
        let out = shrink::shrink_program(&program, usize::MAX, |candidate| {
            if budget == 0 {
                return false;
            }
            budget -= 1;
            differential_check(candidate, cfg)
                .divergences
                .iter()
                .any(|d| classes.contains(&d.class()))
        });
        let divergences = differential_check(&out.program, cfg).divergences;
        (out.program, divergences, out.steps)
    } else {
        (program, outcome.divergences, 0)
    };
    Failure {
        iter,
        seed,
        divergences,
        program: pretty::program_to_string(&reported),
        original_nodes,
        reported_nodes: shrink::program_nodes(&reported),
        shrink_steps: steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perceus_core::json::{self, Json};

    fn quick_cfg() -> FuzzConfig {
        FuzzConfig {
            iters: 8,
            size: 20,
            audit_every: Some(16),
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn strategies_agree_on_random_programs() {
        let report = fuzz(&quick_cfg());
        assert!(
            report.clean(),
            "unexpected divergences:\n{}",
            report.to_json()
        );
        assert!(report.audits > 0, "audits should have run");
    }

    #[test]
    fn fuzz_report_json_is_well_formed_enough() {
        let report = fuzz(&FuzzConfig {
            iters: 1,
            ..quick_cfg()
        });
        let doc = json::parse(&report.to_json()).unwrap();
        assert_eq!(doc.get("failure_count").and_then(Json::as_u64), Some(0));
        assert!(
            matches!(doc.get("strategies"), Some(Json::Arr(s)) if s.len() == Strategy::ALL.len())
        );
    }

    #[test]
    fn injected_pass_corruption_is_caught_and_shrunk() {
        use perceus_core::ir::Expr;
        // Corrupt the fuse output of every Perceus compilation: an
        // unmatched dup of the entry's first parameter. The per-stage
        // checker must catch it (strict λ¹) and the failure must
        // attribute the fuse stage; the shrunk witness must stay small
        // and reproduce the same class.
        fn corrupt(p: &mut perceus_core::ir::Program) {
            let entry = p.entry.unwrap();
            let f = &mut p.funs[entry.0 as usize];
            let par = f.params[0].clone();
            let body = std::mem::replace(&mut f.body, Expr::unit());
            f.body = Expr::dup(par, body);
        }
        let cfg = FuzzConfig {
            iters: 2,
            mutation: Some((PassName::Fuse, corrupt)),
            ..quick_cfg()
        };
        let report = fuzz(&cfg);
        assert!(!report.clean(), "the corruption must be detected");
        for failure in &report.failures {
            let classes: Vec<String> = failure.divergences.iter().map(|d| d.class()).collect();
            assert!(
                classes.iter().any(|c| c == "compile:perceus"),
                "expected a perceus compile failure, got {classes:?}"
            );
            let msg = failure
                .divergences
                .iter()
                .map(|d| d.to_string())
                .collect::<String>();
            assert!(
                msg.contains("pass `fuse`"),
                "stage attribution missing: {msg}"
            );
            assert!(failure.reported_nodes <= failure.original_nodes);
        }
    }
}
