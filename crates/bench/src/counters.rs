//! Deterministic per-workload counter baselines and the CI regression
//! gate behind `perceus-bench --check-baseline`.
//!
//! Wall-clock timing is too noisy to gate a shared CI runner, but the
//! *counters* behind the paper's figures — RC operations, allocations,
//! reuse hits, peak liveness, machine steps — are exact, deterministic
//! functions of the compiled program and its input. A single-threaded
//! Perceus run of every registered workload at its test size therefore
//! produces machine-independent numbers that can be committed
//! (`BENCH_BASELINE.json`) and compared with **zero tolerance**: any
//! drift is either an intentional compiler/runtime change (regenerate
//! the baseline and review the diff) or a real regression.
//!
//! The JSON is rendered canonically — workloads sorted by name, counter
//! keys in the fixed [`COUNTER_KEYS`] order, no whitespace — so the
//! committed file is byte-reproducible and diffs stay minimal.
//!
//! ```text
//! perceus-bench --counters-json -             # print current counters
//! perceus-bench --counters-json FILE          # regenerate the baseline
//! perceus-bench --check-baseline BENCH_BASELINE.json --tolerance 0
//! ```

use perceus_core::json::{self, Json};
use perceus_runtime::machine::RunConfig;
use perceus_runtime::{Stats, SCHEDULE_KEYS};
use perceus_suite::native::{NativeError, NativeHarness};
use perceus_suite::{compile_workload, run_workload, workloads, Strategy, SuiteError};

/// Schema version of the baseline document.
pub const BASELINE_VERSION: u64 = 1;

/// The gated counters, in canonical render order: the runtime's RC
/// *schedule* ([`perceus_runtime::SCHEDULE_KEYS`]) — exact event counts
/// and high-water marks of a single-threaded run. The volatile
/// quantities (wall time, thread interleavings, `atomic_ops`) are
/// deliberately excluded. The native backend reports the same 18 keys
/// in the same order, so one committed baseline gates both executors.
pub const COUNTER_KEYS: [&str; 18] = SCHEDULE_KEYS;

/// The gated counter values of one run, in [`COUNTER_KEYS`] order.
pub fn counter_values(st: &Stats) -> [u64; 18] {
    st.schedule_values()
}

/// One workload's gated counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadCounters {
    /// Workload name.
    pub name: String,
    /// Problem size the counters were measured at.
    pub n: i64,
    /// `(key, value)` pairs in the baseline's order.
    pub counters: Vec<(String, u64)>,
}

/// A full baseline document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// Schema version ([`BASELINE_VERSION`]).
    pub version: u64,
    /// Strategy label the counters were measured under.
    pub strategy: String,
    /// Per-workload counters, sorted by name.
    pub workloads: Vec<WorkloadCounters>,
}

/// Runs every registered workload single-threaded under Perceus at its
/// test size and collects the gated counters.
pub fn collect() -> Result<Baseline, SuiteError> {
    let strategy = Strategy::Perceus;
    let mut rows = Vec::new();
    for w in workloads() {
        let compiled = compile_workload(w.source, strategy)?;
        let out = run_workload(&compiled, strategy, w.test_n, RunConfig::default())?;
        let counters = COUNTER_KEYS
            .iter()
            .zip(counter_values(&out.stats))
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        rows.push(WorkloadCounters {
            name: w.name.to_string(),
            n: w.test_n,
            counters,
        });
    }
    rows.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(Baseline {
        version: BASELINE_VERSION,
        strategy: strategy.label().to_string(),
        workloads: rows,
    })
}

/// Collects the same baseline through the native codegen backend: every
/// workload is compiled to Rust, the executor runs it at the test size,
/// and the counters come from the subprocess report. Because the native
/// executor mirrors the machine's RC schedule exactly, this document
/// must be byte-identical to [`collect`]'s — checking it against the
/// committed `BENCH_BASELINE.json` at zero tolerance is the CI proof.
pub fn collect_native() -> Result<Baseline, NativeError> {
    let strategy = Strategy::Perceus;
    let names: Vec<&str> = workloads().iter().map(|w| w.name).collect();
    let harness = NativeHarness::for_workloads(&names, strategy)?;
    let mut rows = Vec::new();
    for w in workloads() {
        let probe = harness.run_native(w.name, w.test_n)?;
        if !probe.ok {
            return Err(NativeError::Unsupported(format!(
                "native run of `{}` failed: {}",
                w.name,
                probe.error_code.as_deref().unwrap_or("unknown error")
            )));
        }
        let counters = COUNTER_KEYS
            .iter()
            .zip(probe.counters)
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        rows.push(WorkloadCounters {
            name: w.name.to_string(),
            n: w.test_n,
            counters,
        });
    }
    rows.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(Baseline {
        version: BASELINE_VERSION,
        strategy: strategy.label().to_string(),
        workloads: rows,
    })
}

impl Baseline {
    /// Canonical JSON: sorted workloads, fixed key order, no
    /// whitespace, trailing newline. Byte-reproducible, so a zero
    /// tolerance check is equivalent to a string comparison.
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"version\":{},\"strategy\":\"{}\",\"workloads\":[",
            self.version, self.strategy
        );
        for (i, w) in self.workloads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"n\":{},\"counters\":{{",
                w.name, w.n
            ));
            for (j, (k, v)) in w.counters.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{k}\":{v}"));
            }
            out.push_str("}}");
        }
        out.push_str("]}\n");
        out
    }

    /// Parses a baseline document (any JSON layout of the fields
    /// [`Baseline::render_json`] emits). Counters come back in
    /// [`COUNTER_KEYS`] order, so a parsed baseline renders canonically.
    pub fn parse_json(src: &str) -> Result<Baseline, String> {
        fn field<'a, T>(
            v: &'a Json,
            key: &str,
            read: fn(&'a Json) -> Option<T>,
        ) -> Result<T, String> {
            v.get(key)
                .and_then(read)
                .ok_or_else(|| format!("baseline: `{key}` missing or of the wrong type"))
        }
        let doc = json::parse(src).map_err(|e| format!("baseline parse error: {e}"))?;
        let Some(Json::Arr(rows)) = doc.get("workloads") else {
            return Err("baseline: `workloads` must be an array".into());
        };
        let workloads = rows
            .iter()
            .map(|w| {
                let Some(Json::Obj(counters)) = w.get("counters") else {
                    return Err("baseline: workload without a `counters` object".to_string());
                };
                let mut counters = counters
                    .iter()
                    .map(|(k, v)| match v.as_u64() {
                        Some(v) => Ok((k.clone(), v)),
                        None => Err(format!("baseline: counter `{k}` is not a count")),
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                counters.sort_by_key(|(k, _)| {
                    COUNTER_KEYS
                        .iter()
                        .position(|c| c == k)
                        .unwrap_or(usize::MAX)
                });
                Ok(WorkloadCounters {
                    name: field(w, "name", Json::as_str)?.to_string(),
                    n: field(w, "n", Json::as_i64)?,
                    counters,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Baseline {
            version: field(&doc, "version", Json::as_u64)?,
            strategy: field(&doc, "strategy", Json::as_str)?.to_string(),
            workloads,
        })
    }

    /// Compares `current` against this baseline. `tolerance` is a
    /// relative bound: a counter may drift by at most
    /// `tolerance * baseline` (so `0.0` demands exact equality, the CI
    /// default). Returns one human-readable line per violation; empty
    /// means the gate passes.
    pub fn check(&self, current: &Baseline, tolerance: f64) -> Vec<String> {
        let mut bad = Vec::new();
        if current.version != self.version {
            bad.push(format!(
                "baseline version {} != current {}",
                self.version, current.version
            ));
        }
        if current.strategy != self.strategy {
            bad.push(format!(
                "baseline strategy `{}` != current `{}`",
                self.strategy, current.strategy
            ));
        }
        for b in &self.workloads {
            let Some(c) = current.workloads.iter().find(|c| c.name == b.name) else {
                bad.push(format!(
                    "workload `{}` is in the baseline but was not run",
                    b.name
                ));
                continue;
            };
            if c.n != b.n {
                bad.push(format!(
                    "{}: baseline n={} != current n={}",
                    b.name, b.n, c.n
                ));
                continue;
            }
            for (k, bv) in &b.counters {
                let Some((_, cv)) = c.counters.iter().find(|(ck, _)| ck == k) else {
                    bad.push(format!(
                        "{}: counter `{k}` missing from current run",
                        b.name
                    ));
                    continue;
                };
                let drift = (*cv as f64 - *bv as f64).abs();
                let allowed = tolerance * *bv as f64;
                if drift > allowed {
                    bad.push(format!(
                        "{}: {k} = {cv}, baseline {bv} ({}{} vs allowed {:.0})",
                        b.name,
                        if cv >= bv { "+" } else { "-" },
                        cv.abs_diff(*bv),
                        allowed,
                    ));
                }
            }
            for (k, _) in &c.counters {
                if !b.counters.iter().any(|(bk, _)| bk == k) {
                    bad.push(format!(
                        "{}: counter `{k}` not in the baseline (regenerate it)",
                        b.name
                    ));
                }
            }
        }
        for c in &current.workloads {
            if !self.workloads.iter().any(|b| b.name == c.name) {
                bad.push(format!(
                    "workload `{}` is not in the baseline (regenerate it)",
                    c.name
                ));
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Baseline {
        Baseline {
            version: 1,
            strategy: "perceus".into(),
            workloads: vec![WorkloadCounters {
                name: "rbtree".into(),
                n: 400,
                counters: vec![("frees".into(), 3), ("dups".into(), 10)],
            }],
        }
    }

    #[test]
    fn json_roundtrips_canonically() {
        let b = sample();
        let json = b.render_json();
        let parsed = Baseline::parse_json(&json).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(parsed.render_json(), json, "render is canonical");
    }

    #[test]
    fn parse_tolerates_whitespace_but_rejects_junk() {
        let pretty = "{\n  \"version\": 1,\n  \"strategy\": \"perceus\",\n  \
                      \"workloads\": [ ]\n}\n";
        let b = Baseline::parse_json(pretty).unwrap();
        assert_eq!(b.workloads.len(), 0);
        assert!(Baseline::parse_json("{\"version\":1}").is_err());
        assert!(
            Baseline::parse_json("{\"version\":1,\"strategy\":\"p\",\"workloads\":[]}x").is_err()
        );
    }

    #[test]
    fn zero_tolerance_flags_any_drift() {
        let base = sample();
        let mut cur = sample();
        assert!(base.check(&cur, 0.0).is_empty());
        cur.workloads[0].counters[1].1 = 11;
        let bad = base.check(&cur, 0.0);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("dups"), "{bad:?}");
        // 10% relative tolerance absorbs the +1 on a baseline of 10.
        assert!(base.check(&cur, 0.1).is_empty());
    }

    #[test]
    fn missing_and_extra_workloads_are_violations() {
        let base = sample();
        let empty = Baseline {
            workloads: vec![],
            ..sample()
        };
        assert_eq!(base.check(&empty, 0.0).len(), 1);
        assert_eq!(empty.check(&base, 0.0).len(), 1);
    }

    #[test]
    fn collected_counters_are_reproducible() {
        let a = collect().unwrap();
        let b = collect().unwrap();
        assert_eq!(a.render_json(), b.render_json());
        assert!(a.workloads.iter().any(|w| w.name == "rbtree"));
        for w in &a.workloads {
            assert_eq!(w.counters.len(), COUNTER_KEYS.len());
        }
    }
}
