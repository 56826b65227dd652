//! What a workload hands back: named metrics with units and sample
//! counts, and the operations attempted and failed.

use perceus_serve::json::push_str_lit;
use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises (1 for a count).
    pub samples: usize,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: program runs, compiles or sessions.
    pub attempted: u64,
    /// Operations refused, failed, leaked, audit-failed or wrong.
    pub failed: u64,
    /// The first few failures, for the person reading the log.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.put(name, value as f64, "count", 1);
    }

    /// Records one checked operation; `Err` carries what was wrong.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.fail(msg);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, values with all their digits.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_lit(&mut out, &m.name);
            let _ = write!(out, ":{{\"value\":{},\"unit\":", json_number(m.value));
            push_str_lit(&mut out, m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// The table a person reads: one metric per line, with unit and
    /// sample count.
    pub fn render_table(&self, title: &str) -> String {
        let mut out = format!(
            "== {title}: attempted {} failed {} ==\n",
            self.attempted, self.failed
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<40} {:>16} {:<6} n={}",
                m.name,
                json_number(m.value),
                m.unit,
                m.samples
            );
        }
        for f in &self.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
        out
    }
}

/// A float as JSON: Rust's shortest round-trip form; JSON has no NaN or
/// infinity, so a broken measurement reads 0 (and fails the never-zero
/// rule loudly instead of breaking the parser).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perceus_serve::json::{self, Json};

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.put("work_ms_p50", 1.203456789, "ms", 40);
        o.count("machine.steps", 12);
        let v = json::parse(&o.result_line()).unwrap();
        let Json::Obj(top) = &v else { panic!() };
        let keys: Vec<_> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let m = v.get("metrics").unwrap().get("work_ms_p50").unwrap();
        assert_eq!(m.get("value"), Some(&Json::Num(1.203456789)));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.check(Err("rbtree(10): got 2, want 1".into()));
        assert_eq!((o.attempted, o.failed, o.correct()), (2, 1, false));
        assert!(o.render_table("t").contains("FAILED: rbtree"));
        // Nothing attempted is not a pass either.
        assert!(!Outcome::default().correct());
    }
}
