//! `--check-noise`: the suite run twice on one build. Two runs of the
//! same code must agree within each end-to-end metric's own bound, and
//! every exact count must be identical; otherwise the benchmark cannot
//! tell a regression from its own noise.

use crate::{per_layer, run_child, Args, END_TO_END, WORKLOADS};
use perceus_serve::json::{self, Json};

/// Per-layer counts that are a pure function of the build and the seed:
/// the machine's and heap's operation counts, the compiler's node and
/// byte counts. (Session counts of a closed loop are counts too, but
/// depend on how fast the loop ran.)
fn exact(name: &str, unit: &str) -> bool {
    unit == "count"
        && ["heap.", "machine.", "passes.", "code.", "codegen.", "lang."]
            .iter()
            .any(|p| name.starts_with(p))
}

fn metric(line: &str, name: &str) -> Result<f64, String> {
    match json::parse(line)?
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
    {
        Some(Json::Num(v)) => Ok(*v),
        _ => Err(format!("result line has no metric {name}")),
    }
}

/// The difference of two runs as a share of their middle.
pub fn spread_of_two(a: f64, b: f64) -> f64 {
    let mid = (a + b) / 2.0;
    if mid == 0.0 {
        0.0
    } else {
        (a - b).abs() / mid.abs()
    }
}

pub fn check(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "{:<13} {:<28} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "run 1", "run 2", "spread", "bound"
    );
    for name in WORKLOADS {
        let untraced = Args {
            trace: false,
            ..*args
        };
        let runs = [
            run_child(name, &untraced, false)?,
            run_child(name, &untraced, false)?,
        ];
        for (metric_name, _, bound) in END_TO_END {
            let (a, b) = (
                metric(&runs[0], metric_name)?,
                metric(&runs[1], metric_name)?,
            );
            let spread = spread_of_two(a, b);
            // The driver does not gate `setup_s` on its spread (it
            // compares medians of ten runs): a millisecond of compiling
            // differs ±20 % from one process to the next. It is printed,
            // not judged.
            let breach = spread > bound && metric_name != "setup_s";
            ok &= !breach;
            println!(
                "{name:<13} {metric_name:<28} {a:>14.4} {b:>14.4} {:>7.2}% {:>6.0}%{}",
                spread * 100.0,
                bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
        let traced = Args {
            trace: true,
            ..*args
        };
        let runs = [
            run_child(name, &traced, false)?,
            run_child(name, &traced, false)?,
        ];
        let mut counts = 0;
        for (metric_name, unit) in per_layer() {
            if !exact(&metric_name, unit) {
                continue;
            }
            let (a, b) = (
                metric(&runs[0], &metric_name)?,
                metric(&runs[1], &metric_name)?,
            );
            counts += 1;
            if a != b {
                ok = false;
                println!("{name:<13} {metric_name:<28} {a:>14} {b:>14}  COUNT DIFFERS");
            }
        }
        println!("{name:<13} {counts} exact counts compared");
    }
    println!(
        "{}",
        if ok {
            "noise check passed"
        } else {
            "noise check FAILED"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_relative_to_the_middle() {
        assert!((spread_of_two(95.0, 105.0) - 0.1).abs() < 1e-12);
        assert_eq!(spread_of_two(7.0, 7.0), 0.0);
        assert_eq!(spread_of_two(0.0, 0.0), 0.0);
    }

    #[test]
    fn exact_counts_are_the_deterministic_layers() {
        assert!(exact("machine.steps", "count"));
        assert!(exact("heap.reuses", "count"));
        assert!(exact("passes.nodes_out", "count"));
        assert!(exact("codegen.emitted_bytes", "count"));
        assert!(!exact("serve.sent", "count"));
        assert!(!exact("machine.ns_per_step", "ns"));
    }

    #[test]
    fn metric_reads_a_result_line() {
        let line = r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"ops_per_s":{"value":12.5,"unit":"1/s"}}}"#;
        assert_eq!(metric(line, "ops_per_s"), Ok(12.5));
        assert!(metric(line, "setup_s").is_err());
    }
}
