//! Native-backend driver: runs workloads through `perceus-codegen`'s
//! compiled executor and checks them against the abstract machine.
//!
//! The contract is **schedule identity**, not just value equality: a
//! check passes only when machine and native agree on the result value,
//! the `println` output, the leak count, and all 18 deterministic
//! schedule counters ([`SCHEDULE_KEYS`]) bit-for-bit. Two executors
//! that agree on all of that executed the same sequence of RC
//! operations — the CI `codegen-gate` job runs this over every baseline
//! workload plus a differential fuzz leg of generated programs.
//!
//! Rejection paths ([`NativeError::Unsupported`]): non-RC strategies
//! (tracing-GC needs machine-rooted collection; arena is a leak
//! baseline) and budgeted/resumable execution (native code cannot
//! suspend mid-run; see `docs/CODEGEN.md`).

use crate::driver::{compile_program, compile_workload, Strategy, SuiteError};
use crate::genprog;
use crate::workloads::workload;
use perceus_codegen as codegen;
pub use perceus_codegen::{NativeBin, NativeReport};
use perceus_runtime::code::Compiled;
use perceus_runtime::machine::{Machine, RunConfig};
use perceus_runtime::value::Value;
use perceus_runtime::SCHEDULE_KEYS;
use std::fmt;
use std::time::Instant;

/// An error from the native driver (distinct from a *mismatch*, which
/// is data — see [`NativeCheck`]).
#[derive(Debug)]
pub enum NativeError {
    /// The request is outside the native backend's design envelope.
    Unsupported(String),
    /// Emit/build/run failure in `perceus-codegen`.
    Codegen(codegen::NativeError),
    /// Compilation of the program itself failed.
    Suite(SuiteError),
}

impl fmt::Display for NativeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NativeError::Unsupported(m) => write!(f, "native backend: {m}"),
            NativeError::Codegen(e) => write!(f, "{e}"),
            NativeError::Suite(e) => write!(f, "{e}"),
        }
    }
}

impl From<codegen::NativeError> for NativeError {
    fn from(e: codegen::NativeError) -> Self {
        NativeError::Codegen(e)
    }
}

impl From<SuiteError> for NativeError {
    fn from(e: SuiteError) -> Self {
        NativeError::Suite(e)
    }
}

/// Checks a request against the native backend's design limits.
/// `budget` mirrors the machine's step-budget parameter: any `Some`
/// means the caller wants mid-run suspension, which generated code
/// (running on the Rust call stack) cannot do.
pub fn ensure_supported(strategy: Strategy, budget: Option<u64>) -> Result<(), NativeError> {
    if !strategy.is_rc() {
        return Err(NativeError::Unsupported(format!(
            "only the reference-counting strategies compile natively; `{}` needs the {:?} heap \
             and the machine's rooted environments",
            strategy.label(),
            strategy.reclaim_mode()
        )));
    }
    if budget.is_some() {
        return Err(NativeError::Unsupported(
            "budgeted/resumable execution cannot suspend native frames mid-run; \
             use the machine backend"
                .into(),
        ));
    }
    Ok(())
}

/// One executor's observation of a run: everything the differential
/// check compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecProbe {
    /// Finished with a value (vs a runtime error).
    pub ok: bool,
    /// Rendered result (the machine's `DeepValue` display) when `ok`.
    pub value: Option<String>,
    /// Stable error code (`RuntimeError::code`) when not `ok`.
    pub error_code: Option<String>,
    /// `println` output.
    pub output: Vec<i64>,
    /// The 18 schedule counters, [`SCHEDULE_KEYS`] order.
    pub counters: [u64; 18],
    /// Blocks still live after the result drop (0 = garbage-free).
    pub leaked_blocks: u64,
    /// Wall time of the run itself.
    pub wall_ns: u64,
}

/// A machine-vs-native comparison for one program at one input.
#[derive(Debug, Clone)]
pub struct NativeCheck {
    /// Program name (workload or fuzz id).
    pub name: String,
    /// Input to `main`.
    pub n: i64,
    /// What the interpreter observed.
    pub machine: ExecProbe,
    /// What the compiled executor observed.
    pub native: ExecProbe,
    /// Human-readable disagreements; empty means schedule identity.
    pub mismatches: Vec<String>,
}

impl NativeCheck {
    /// True when the executors agreed on everything.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// A batch of programs compiled both ways: interpreter-ready `Compiled`
/// plus one native executor binary holding all of them.
#[derive(Debug)]
pub struct NativeHarness {
    bin: NativeBin,
    programs: Vec<(String, Compiled)>,
}

impl NativeHarness {
    /// Builds a harness for registered workloads under `strategy`
    /// (must be an RC strategy). One `cargo build` for the whole batch.
    pub fn for_workloads(names: &[&str], strategy: Strategy) -> Result<Self, NativeError> {
        ensure_supported(strategy, None)?;
        let mut programs = Vec::with_capacity(names.len());
        for name in names {
            let w = workload(name)
                .ok_or_else(|| NativeError::Unsupported(format!("unknown workload `{name}`")))?;
            let compiled = compile_workload(w.source, strategy)?;
            programs.push((w.name.to_string(), compiled));
        }
        Self::from_programs(programs)
    }

    /// Builds a harness from already-compiled programs.
    pub fn from_programs(programs: Vec<(String, Compiled)>) -> Result<Self, NativeError> {
        let refs: Vec<(String, &Compiled)> = programs.iter().map(|(n, c)| (n.clone(), c)).collect();
        let bin = codegen::build_programs(&refs)?;
        Ok(NativeHarness { bin, programs })
    }

    /// The underlying executor binary.
    pub fn bin(&self) -> &NativeBin {
        &self.bin
    }

    /// Program names in this harness.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.programs.iter().map(|(n, _)| n.as_str())
    }

    /// Runs one program natively and normalizes its report.
    pub fn run_native(&self, name: &str, n: i64) -> Result<ExecProbe, NativeError> {
        Ok(probe_from_report(self.bin.run(name, n)?))
    }

    /// Runs one program on the machine (interpreter) only.
    pub fn run_machine(&self, name: &str, n: i64) -> Result<ExecProbe, NativeError> {
        let compiled = self
            .programs
            .iter()
            .find(|(pn, _)| pn == name)
            .map(|(_, c)| c)
            .ok_or_else(|| {
                NativeError::Unsupported(format!("program `{name}` is not in this harness"))
            })?;
        Ok(machine_probe(compiled, n))
    }

    /// The full differential check: run both executors, compare value,
    /// output, leak count, and all 18 counters bit-for-bit.
    pub fn check(&self, name: &str, n: i64) -> Result<NativeCheck, NativeError> {
        let machine = self.run_machine(name, n)?;
        let native = self.run_native(name, n)?;
        let mismatches = compare_probes(&machine, &native);
        Ok(NativeCheck {
            name: name.to_string(),
            n,
            machine,
            native,
            mismatches,
        })
    }
}

/// Runs `compiled` on the interpreter, observing exactly what the
/// native executor reports: run → render → drop result → stats. Runtime
/// errors are observations (the fuzz leg compares error codes and the
/// counters accumulated up to the failure), not driver errors.
pub fn machine_probe(compiled: &Compiled, n: i64) -> ExecProbe {
    let mut m = Machine::new(
        compiled,
        Strategy::Perceus.reclaim_mode(),
        RunConfig::default(),
    );
    let start = Instant::now();
    let result = m.run_entry(vec![Value::Int(n)]);
    let wall_ns = start.elapsed().as_nanos() as u64;
    match result.and_then(|v| {
        let rendered = m.read_back(v)?.to_string();
        m.drop_result(v)?;
        Ok(rendered)
    }) {
        Ok(value) => ExecProbe {
            ok: true,
            value: Some(value),
            error_code: None,
            output: m.output().to_vec(),
            counters: m.heap.stats.schedule_values(),
            leaked_blocks: m.heap.live_blocks(),
            wall_ns,
        },
        Err(e) => ExecProbe {
            ok: false,
            value: None,
            error_code: Some(e.code().to_string()),
            output: m.output().to_vec(),
            counters: m.heap.stats.schedule_values(),
            leaked_blocks: m.heap.live_blocks(),
            wall_ns,
        },
    }
}

fn probe_from_report(r: NativeReport) -> ExecProbe {
    ExecProbe {
        ok: r.ok,
        value: r.value,
        error_code: r.code,
        output: r.output,
        counters: r.counters,
        leaked_blocks: r.leaked_blocks,
        wall_ns: r.wall_ns,
    }
}

/// The comparison at the heart of the gate. Returns one line per
/// disagreement; empty means the two executors ran the same schedule.
pub fn compare_probes(machine: &ExecProbe, native: &ExecProbe) -> Vec<String> {
    let mut out = Vec::new();
    if machine.ok != native.ok {
        out.push(format!(
            "outcome: machine {} vs native {}",
            outcome_label(machine),
            outcome_label(native)
        ));
    } else if machine.ok {
        if machine.value != native.value {
            out.push(format!(
                "value: machine {:?} vs native {:?}",
                machine.value.as_deref().unwrap_or(""),
                native.value.as_deref().unwrap_or("")
            ));
        }
    } else if machine.error_code != native.error_code {
        out.push(format!(
            "error code: machine {:?} vs native {:?}",
            machine.error_code.as_deref().unwrap_or(""),
            native.error_code.as_deref().unwrap_or("")
        ));
    }
    if machine.output != native.output {
        out.push(format!(
            "output: machine {} values vs native {} values (first divergence at {:?})",
            machine.output.len(),
            native.output.len(),
            machine
                .output
                .iter()
                .zip(native.output.iter())
                .position(|(a, b)| a != b)
        ));
    }
    for (i, key) in SCHEDULE_KEYS.iter().enumerate() {
        if machine.counters[i] != native.counters[i] {
            out.push(format!(
                "counter {key}: machine {} vs native {}",
                machine.counters[i], native.counters[i]
            ));
        }
    }
    if machine.leaked_blocks != native.leaked_blocks {
        out.push(format!(
            "leaked_blocks: machine {} vs native {}",
            machine.leaked_blocks, native.leaked_blocks
        ));
    }
    out
}

fn outcome_label(p: &ExecProbe) -> String {
    if p.ok {
        "ok".to_string()
    } else {
        format!("error[{}]", p.error_code.as_deref().unwrap_or("?"))
    }
}

/// Report of a machine-vs-native differential fuzz run.
#[derive(Debug)]
pub struct NativeFuzzReport {
    /// Programs generated and compiled into the batch executor.
    pub iters: u32,
    /// Checks that disagreed (empty = clean).
    pub failures: Vec<NativeCheck>,
}

/// Differential fuzz: generate `iters` random programs
/// ([`genprog::random_program`]), compile the whole batch into one
/// native executor, and check each against the machine — value/error
/// code, output, leaks, and bit-identical counters.
pub fn fuzz_native(
    seed: u64,
    iters: u32,
    size: u32,
    arg: i64,
) -> Result<NativeFuzzReport, NativeError> {
    let mut programs = Vec::with_capacity(iters as usize);
    for i in 0..iters {
        let p = genprog::random_program(seed.wrapping_add(u64::from(i)), size);
        let compiled = compile_program(p, Strategy::Perceus)?;
        programs.push((format!("g{i}"), compiled));
    }
    let harness = NativeHarness::from_programs(programs)?;
    let mut failures = Vec::new();
    for i in 0..iters {
        let check = harness.check(&format!("g{i}"), arg)?;
        if !check.passed() {
            failures.push(check);
        }
    }
    Ok(NativeFuzzReport { iters, failures })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing-GC and arena heaps cannot back the native executor: the
    /// rejection must be explicit, not a miscompile.
    #[test]
    fn non_rc_strategies_are_rejected() {
        for strategy in [Strategy::Gc, Strategy::Arena] {
            let err = ensure_supported(strategy, None).unwrap_err();
            assert!(matches!(err, NativeError::Unsupported(_)), "{err}");
            assert!(err.to_string().contains(strategy.label()), "{err}");
        }
        // Scoped RC shares the machine's heap discipline and is fine.
        assert!(ensure_supported(Strategy::Scoped, None).is_ok());
        assert!(ensure_supported(Strategy::Perceus, None).is_ok());
    }

    /// Budgeted (resumable) execution needs mid-run suspension, which
    /// generated code running on the Rust stack cannot do.
    #[test]
    fn budgeted_execution_is_rejected() {
        let err = ensure_supported(Strategy::Perceus, Some(1000)).unwrap_err();
        assert!(matches!(err, NativeError::Unsupported(_)), "{err}");
        assert!(err.to_string().contains("suspend"), "{err}");
    }

    /// The harness refuses unknown workloads up front (before paying
    /// for a cargo build).
    #[test]
    fn unknown_workload_is_rejected() {
        let err = NativeHarness::for_workloads(&["no-such"], Strategy::Perceus).unwrap_err();
        assert!(err.to_string().contains("no-such"), "{err}");
    }

    /// `compare_probes` reports every divergence channel, not just the
    /// first.
    #[test]
    fn compare_reports_each_divergence() {
        let a = ExecProbe {
            ok: true,
            value: Some("1".into()),
            error_code: None,
            output: vec![1],
            counters: [0; 18],
            leaked_blocks: 0,
            wall_ns: 5,
        };
        let mut b = a.clone();
        assert!(compare_probes(&a, &b).is_empty());
        b.value = Some("2".into());
        b.output = vec![2];
        b.counters[0] = 7;
        b.counters[17] = 9;
        b.leaked_blocks = 3;
        let bad = compare_probes(&a, &b);
        assert_eq!(bad.len(), 5, "{bad:?}");
        assert!(bad.iter().any(|m| m.contains("allocations")), "{bad:?}");
        assert!(bad.iter().any(|m| m.contains("steps")), "{bad:?}");
        // Wall time is volatile and must never be compared.
        b = a.clone();
        b.wall_ns = 999;
        assert!(compare_probes(&a, &b).is_empty());
    }

    /// Error-vs-ok disagreement is a single outcome mismatch with both
    /// labels visible.
    #[test]
    fn outcome_mismatch_shows_error_code() {
        let ok = ExecProbe {
            ok: true,
            value: Some("()".into()),
            error_code: None,
            output: vec![],
            counters: [0; 18],
            leaked_blocks: 0,
            wall_ns: 0,
        };
        let err = ExecProbe {
            ok: false,
            value: None,
            error_code: Some("abort".into()),
            output: vec![],
            counters: [0; 18],
            leaked_blocks: 0,
            wall_ns: 0,
        };
        let bad = compare_probes(&ok, &err);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("error[abort]"), "{bad:?}");
    }
}
