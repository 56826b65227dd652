//! Reader for the executor's single-line JSON report, a typed read
//! over the workspace's one JSON reader ([`perceus_core::json`]).

use crate::NativeError;
use perceus_core::json::{self, Json};
use perceus_runtime::SCHEDULE_KEYS;

/// One program's report from the native executor subprocess.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NativeReport {
    /// Whether the run finished with a value.
    pub ok: bool,
    /// Rendered result value (the machine's `DeepValue` display) when
    /// `ok`.
    pub value: Option<String>,
    /// Error display when not `ok`.
    pub error: Option<String>,
    /// Stable error code (`RuntimeError::code`) when not `ok`.
    pub code: Option<String>,
    /// The `println` output stream.
    pub output: Vec<i64>,
    /// The 18 schedule counters in [`SCHEDULE_KEYS`] order, read by
    /// name.
    pub counters: [u64; 18],
    /// Live blocks left after dropping the result (0 = garbage-free).
    pub leaked_blocks: u64,
    /// Wall time of the run itself (excludes render/drop/report).
    pub wall_ns: u64,
}

/// Parses one report line.
pub fn parse_report(line: &str) -> Result<NativeReport, NativeError> {
    let fail = |what: &str| NativeError::Report(format!("{what} in report {line:?}"));
    let doc = json::parse(line).map_err(|e| fail(&e))?;
    let field = |key: &str| {
        doc.get(key)
            .ok_or_else(|| fail(&format!("missing `{key}`")))
    };
    let wrong = |key: &str| fail(&format!("`{key}` of the wrong type"));
    let uint = |key: &str| field(key)?.as_u64().ok_or_else(|| wrong(key));
    let text = |key: &str| match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| wrong(key)),
    };
    let Json::Arr(output) = field("output")? else {
        return Err(wrong("output"));
    };
    let counters = field("counters")?;
    if !matches!(counters, Json::Obj(m) if m.len() == SCHEDULE_KEYS.len()) {
        return Err(fail("expected an object of the 18 schedule counters"));
    }
    let mut values = [0u64; 18];
    for (slot, key) in values.iter_mut().zip(SCHEDULE_KEYS) {
        *slot = counters
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| fail(&format!("counter `{key}` missing or not a count")))?;
    }
    Ok(NativeReport {
        ok: field("ok")?.as_bool().ok_or_else(|| wrong("ok"))?,
        value: text("value")?,
        error: text("error")?,
        code: text("code")?,
        output: output
            .iter()
            .map(|v| v.as_i64().ok_or_else(|| wrong("output")))
            .collect::<Result<_, _>>()?,
        counters: values,
        leaked_blocks: uint("leaked_blocks")?,
        wall_ns: uint("wall_ns")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report line with every schedule counter set to its index, plus
    /// `extra` fields.
    fn report(extra: &str) -> String {
        let counters: Vec<String> = SCHEDULE_KEYS
            .iter()
            .enumerate()
            .map(|(i, k)| format!("\"{k}\":{i}"))
            .collect();
        format!(
            "{{{extra},\"counters\":{{{}}},\"leaked_blocks\":0,\"wall_ns\":12345}}",
            counters.join(",")
        )
    }

    #[test]
    fn parses_success_report() {
        let r = parse_report(&report(
            r#""ok":true,"value":"Cons(1, Nil)","output":[1,-2,3,4611686018427387905]"#,
        ))
        .unwrap();
        assert!(r.ok);
        assert_eq!(r.value.as_deref(), Some("Cons(1, Nil)"));
        assert_eq!(r.output, vec![1, -2, 3, (1 << 62) + 1], "output is exact");
        assert_eq!(r.counters, std::array::from_fn(|i| i as u64));
        assert_eq!(r.leaked_blocks, 0);
        assert_eq!(r.wall_ns, 12345);
    }

    #[test]
    fn parses_error_report_with_escapes() {
        let r = parse_report(&report(
            r#""ok":false,"error":"abort: \"boom\"","code":"abort","output":[]"#,
        ))
        .unwrap();
        assert!(!r.ok);
        assert_eq!(r.error.as_deref(), Some("abort: \"boom\""));
        assert_eq!(r.code.as_deref(), Some("abort"));
        assert_eq!(r.value, None);
    }

    #[test]
    fn counter_values_requires_all_18() {
        let shuffled = report(r#""ok":true,"output":[]"#).replace("\"steps\":17", "\"zzz\":1");
        assert!(
            parse_report(&shuffled).is_err(),
            "a missing counter is an error"
        );
        let r = parse_report(
            r#"{"ok":true,"output":[],"counters":{"a":1},"leaked_blocks":0,"wall_ns":0}"#,
        );
        assert!(r.is_err());
    }

    /// A run's state as the executor leaves it: printed output, some
    /// counters moved, one block still live.
    fn finished_run() -> perceus_runtime::native::Rt {
        use perceus_runtime::heap::BlockTag;
        use perceus_runtime::Value;
        let mut rt = perceus_runtime::native::Rt::new();
        rt.output = vec![3, -1, i64::MIN];
        rt.heap.alloc_slice(
            BlockTag::Ctor(perceus_core::ir::CtorId(2)),
            &[Value::Int(7)],
        );
        rt.heap.stats.steps = 41;
        rt.heap.stats.dups = 5;
        rt
    }

    /// The executor's writer (`perceus_runtime::native::report`) and this
    /// reader agree on every field of a successful run.
    #[test]
    fn native_report_round_trips_a_value() {
        let rt = finished_run();
        let line = perceus_runtime::native::report(&rt, &Ok("Cons(1, Nil)".into()), 99);
        let r = parse_report(&line).unwrap();
        assert!(r.ok);
        assert_eq!(r.value.as_deref(), Some("Cons(1, Nil)"));
        assert_eq!((r.error, r.code), (None, None));
        assert_eq!(r.output, rt.output);
        assert_eq!(r.counters, rt.heap.stats.schedule_values());
        assert_eq!((r.leaked_blocks, r.wall_ns), (1, 99));
    }

    /// An error run carries its code, output and counters-at-failure;
    /// a message with quotes, a backslash and control characters comes
    /// back exactly.
    #[test]
    fn native_report_round_trips_errors() {
        use perceus_runtime::RuntimeError;
        let rt = finished_run();
        for e in [
            RuntimeError::DivisionByZero,
            RuntimeError::Abort("say \"hi\"\\ \n\t\u{1} λ".into()),
        ] {
            let line = perceus_runtime::native::report(&rt, &Err(e.clone()), 7);
            let r = parse_report(&line).unwrap();
            assert!(!r.ok);
            assert_eq!(r.value, None);
            assert_eq!(r.error, Some(e.to_string()));
            assert_eq!(r.code.as_deref(), Some(e.code()));
            assert_eq!(r.output, rt.output);
            assert_eq!(r.counters, rt.heap.stats.schedule_values());
            assert_eq!((r.leaked_blocks, r.wall_ns), (1, 7));
        }
    }

    #[test]
    fn rejects_unknown_fields_and_junk() {
        assert!(parse_report(r#"{"nope":1}"#).is_err());
        assert!(parse_report("not json").is_err());
        assert!(parse_report(&report(r#""ok":1,"output":[]"#)).is_err());
        assert!(parse_report(&report(r#""ok":true,"output":[1.5]"#)).is_err());
    }
}
