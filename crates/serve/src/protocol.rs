//! The wire protocol: newline-delimited JSON over TCP.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. Responses to `run`/`resume` requests carry
//! the client's `id`, and a connection may keep many runs in flight —
//! responses come back in *completion* order (sessions execute on
//! different workers), so the `id` is the correlation key. See
//! `docs/SERVING.md` for the full schema.
//!
//! **Versioning.** Every response carries `"v":` [`PROTOCOL_VERSION`].
//! Requests may carry `"v"`; omitting it means version 1 (the
//! pre-resume protocol, which this daemon still speaks). A request
//! whose version falls outside [[`MIN_PROTOCOL_VERSION`],
//! [`PROTOCOL_VERSION`]] gets a structured `rejected` response with
//! code `unsupported-version` and the supported range — never a silent
//! best-effort parse.
//!
//! Requests:
//!
//! ```text
//! {"op":"run","id":1,"workload":"rbtree","n":400}
//! {"op":"run","v":2,"id":2,"source":"fun main(n: int): int { n }","n":7,
//!  "strategy":"perceus","fuel":1000000,"memory":200000,
//!  "shared":false,"borrow":false,"profile":false,"resumable":true}
//! {"op":"resume","v":2,"id":3,"session":281474976710657,"fuel":50000}
//! {"op":"stats"}      {"op":"health"}      {"op":"shutdown"}
//! ```

use crate::json::{self, Json, ObjBuilder};
use perceus_suite::Strategy;

/// Default per-session fuel (machine steps) when neither the request
/// nor the server configuration says otherwise.
pub const DEFAULT_FUEL: u64 = 200_000_000;

/// Default per-session live-memory limit in words.
pub const DEFAULT_MEMORY_WORDS: u64 = 64 << 20;

/// The protocol version this daemon speaks (and stamps on every
/// response). Version 2 added `resumable` runs, the `resume` op, the
/// `suspended` outcome, and stable error `code`s.
pub const PROTOCOL_VERSION: u64 = 2;

/// The oldest request version still accepted. Version-1 requests (no
/// `"v"` field) parse unchanged; their responses simply carry the new
/// fields.
pub const MIN_PROTOCOL_VERSION: u64 = 1;

/// A parsed `run` request.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Client correlation id (echoed in the response).
    pub id: u64,
    /// Workload name from the suite registry, if given.
    pub workload: Option<String>,
    /// Inline surface-language source, if given (exclusive with
    /// `workload`).
    pub source: Option<String>,
    /// Problem size passed to `main` (or the consume function on the
    /// shared path). Defaults to the workload's test size.
    pub n: Option<i64>,
    /// Memory-management strategy (must be garbage-free; see
    /// [`crate::worker`]).
    pub strategy: Strategy,
    /// Per-session step budget (clamped to the server maximum). For a
    /// resumable session this is the *per-leg* budget; running past it
    /// suspends instead of aborting.
    pub fuel: Option<u64>,
    /// Per-session live-word budget (clamped to the server maximum).
    pub memory: Option<u64>,
    /// Run over the cross-session shared immutable input (requires a
    /// workload with a [`perceus_suite::ParallelSpec`]).
    pub shared: bool,
    /// Borrow the shared input instead of minting a per-session
    /// reference: the consume function is compiled under borrow
    /// inference and the traversal pays **zero** atomic RMWs (snapshot
    /// reads — the worker heap's epoch pin carries liveness). Requires
    /// `shared:true`, the `perceus` strategy, and a non-resumable
    /// session; anything else gets a structured `rejected`.
    pub borrow: bool,
    /// Attribute this session's heap events to functions and fold the
    /// profile into the server aggregate.
    pub profile: bool,
    /// Suspend (outcome `suspended`, with a `session` token) instead of
    /// aborting when the fuel budget runs out; resume with
    /// `{"op":"resume","session":...}`. Requires a garbage-free (rc)
    /// strategy.
    pub resumable: bool,
}

/// A parsed `resume` request.
#[derive(Debug, Clone)]
pub struct ResumeRequest {
    /// Client correlation id (echoed in the response).
    pub id: u64,
    /// The session token from a `suspended` response.
    pub session: u64,
    /// Step budget for this leg (clamped to the server maximum;
    /// defaults to the server's default fuel).
    pub fuel: Option<u64>,
}

/// Any parsed request.
#[derive(Debug, Clone)]
pub enum Request {
    Run(Box<RunRequest>),
    Resume(ResumeRequest),
    Stats,
    Health,
    Shutdown,
}

/// Why a request line could not be turned into a [`Request`].
#[derive(Debug, Clone)]
pub enum ParseError {
    /// Malformed JSON, missing fields, unknown op — answered with a
    /// `bad-request` protocol error.
    Bad(String),
    /// The request declared a protocol version outside the supported
    /// range — answered with a structured `rejected` carrying the range
    /// (see [`version_error`]).
    Version {
        /// The version the request asked for.
        got: u64,
        /// The request's `id`, when one was present (so the client can
        /// correlate the rejection).
        id: Option<u64>,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Bad(m) => f.write_str(m),
            ParseError::Version { got, .. } => write!(
                f,
                "protocol version {got} unsupported (supported: {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION})"
            ),
        }
    }
}

/// Reads an optional request field: `None` when absent, a
/// `bad-request` naming the field when present with the wrong type —
/// never a silent default, truncation or saturation.
fn field<'a, T>(
    v: &'a Json,
    key: &str,
    read: fn(&'a Json) -> Option<T>,
    kind: &str,
) -> Result<Option<T>, ParseError> {
    v.get(key)
        .map(|x| read(x).ok_or_else(|| ParseError::Bad(format!("\"{key}\" must be {kind}"))))
        .transpose()
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, ParseError> {
    let v = json::parse(line).map_err(ParseError::Bad)?;
    let uint = |key| field(&v, key, Json::as_u64, "a non-negative integer");
    let flag = |key| Ok(field(&v, key, Json::as_bool, "a boolean")?.unwrap_or(false));
    let text = |key| field(&v, key, Json::as_str, "a string");
    if let Some(ver) = uint("v")? {
        if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&ver) {
            return Err(ParseError::Version {
                got: ver,
                id: v.get("id").and_then(Json::as_u64),
            });
        }
    }
    let required = |what: &str| ParseError::Bad(format!("{what} request needs a numeric \"id\""));
    match text("op")?.unwrap_or("run") {
        "stats" => Ok(Request::Stats),
        "health" => Ok(Request::Health),
        "shutdown" => Ok(Request::Shutdown),
        "resume" => Ok(Request::Resume(ResumeRequest {
            id: uint("id")?.ok_or_else(|| required("resume"))?,
            session: uint("session")?.ok_or_else(|| {
                ParseError::Bad("resume request needs a numeric \"session\" token".into())
            })?,
            fuel: uint("fuel")?,
        })),
        "run" => {
            let id = uint("id")?.ok_or_else(|| required("run"))?;
            let workload = text("workload")?.map(str::to_string);
            let source = text("source")?.map(str::to_string);
            if workload.is_none() && source.is_none() {
                return Err(ParseError::Bad(
                    "run request needs \"workload\" or \"source\"".into(),
                ));
            }
            if workload.is_some() && source.is_some() {
                return Err(ParseError::Bad(
                    "run request takes \"workload\" or \"source\", not both".into(),
                ));
            }
            let strategy = match text("strategy")? {
                None => Strategy::Perceus,
                Some(label) => Strategy::ALL
                    .into_iter()
                    .find(|s| s.label() == label)
                    .ok_or_else(|| ParseError::Bad(format!("unknown strategy {label:?}")))?,
            };
            Ok(Request::Run(Box::new(RunRequest {
                id,
                workload,
                source,
                n: field(&v, "n", Json::as_i64, "an integer")?,
                strategy,
                fuel: uint("fuel")?,
                memory: uint("memory")?,
                shared: flag("shared")?,
                borrow: flag("borrow")?,
                profile: flag("profile")?,
                resumable: flag("resumable")?,
            })))
        }
        other => Err(ParseError::Bad(format!("unknown op {other:?}"))),
    }
}

/// How a session ended (the states of the lifecycle state machine in
/// `docs/SERVING.md`; all terminal except `Suspended`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Ran to completion; result and counters attached.
    Ok,
    /// The per-session step budget ran out mid-run (non-resumable
    /// sessions, or a resumable session hitting the *cumulative*
    /// server fuel ceiling).
    FuelExhausted,
    /// The per-session live-memory budget was exceeded mid-run.
    MemoryLimit,
    /// Compilation (front end, passes, resource check, backend) failed.
    CompileError,
    /// Any other runtime failure (abort, type error, …).
    Failed,
    /// Permanently unservable (non-rc strategy, workload without a
    /// shared spec, unknown session token, unsupported protocol
    /// version): retrying the same request can never succeed.
    Rejected,
    /// Transient backpressure (in-flight cap hit, every shard queue
    /// full): the session never ran and a retry after backoff is
    /// expected to succeed.
    Busy,
    /// Not terminal: the session ran out of leg fuel at an auditable
    /// point and is parked; the response carries a `session` token for
    /// `{"op":"resume"}`. The session may later end `ok`, `failed`, …,
    /// or be evicted (a `rejected` with code `no-such-session` on the
    /// next resume).
    Suspended,
}

impl Outcome {
    /// Wire label.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::FuelExhausted => "fuel-exhausted",
            Outcome::MemoryLimit => "memory-limit",
            Outcome::CompileError => "compile-error",
            Outcome::Failed => "failed",
            Outcome::Rejected => "rejected",
            Outcome::Busy => "busy",
            Outcome::Suspended => "suspended",
        }
    }
}

/// Starts a response object with the protocol version stamped — every
/// response the daemon emits goes through this.
pub fn response() -> ObjBuilder {
    ObjBuilder::new().u64("v", PROTOCOL_VERSION)
}

/// Renders an error response for a `run`/`resume` request. `code` is
/// the stable machine-readable error code — for runtime failures,
/// [`perceus_runtime::RuntimeError::code`] verbatim; for serving-layer
/// rejections, one of the codes documented in docs/SERVING.md
/// (`busy`, `shutdown`, `no-such-session`, `not-garbage-free`, …).
pub fn error_response(id: u64, outcome: Outcome, code: &str, msg: &str) -> String {
    response()
        .u64("id", id)
        .bool("ok", false)
        .str("outcome", outcome.label())
        .str("code", code)
        .str("error", msg)
        .finish()
}

/// Renders a protocol-level error: a line with no session (unparsable,
/// unknown op: `bad-request`; over the length cap: `request-too-large`).
pub fn protocol_error(code: &str, msg: &str) -> String {
    response()
        .bool("ok", false)
        .str("outcome", "bad-request")
        .str("code", code)
        .str("error", msg)
        .finish()
}

/// Renders the structured rejection for an unsupported protocol
/// version: outcome `rejected`, code `unsupported-version`, and the
/// supported range.
pub fn version_error(got: u64, id: Option<u64>) -> String {
    let mut b = response();
    if let Some(id) = id {
        b = b.u64("id", id);
    }
    b.bool("ok", false)
        .str("outcome", Outcome::Rejected.label())
        .str("code", "unsupported-version")
        .str(
            "error",
            &format!("protocol version {got} unsupported by this daemon"),
        )
        .u64("supported_min", MIN_PROTOCOL_VERSION)
        .u64("supported_max", PROTOCOL_VERSION)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_run() {
        let r = parse_request(r#"{"op":"run","id":3,"workload":"map"}"#).unwrap();
        let Request::Run(r) = r else { panic!() };
        assert_eq!(r.id, 3);
        assert_eq!(r.workload.as_deref(), Some("map"));
        assert_eq!(r.strategy, Strategy::Perceus);
        assert!(!r.shared);
        assert!(!r.borrow);
        assert!(!r.resumable);
    }

    #[test]
    fn run_needs_id_and_program() {
        assert!(parse_request(r#"{"op":"run","workload":"map"}"#).is_err());
        assert!(parse_request(r#"{"op":"run","id":1}"#).is_err());
        assert!(
            parse_request(r#"{"op":"run","id":1,"workload":"map","source":"x"}"#).is_err(),
            "workload and source are exclusive"
        );
    }

    #[test]
    fn borrow_flag_parses() {
        let line = r#"{"op":"run","id":1,"workload":"map","shared":true,"borrow":true}"#;
        let Request::Run(r) = parse_request(line).unwrap() else {
            panic!()
        };
        assert!(r.shared);
        assert!(r.borrow);
    }

    #[test]
    fn strategy_labels_resolve() {
        let r = parse_request(r#"{"op":"run","id":1,"workload":"map","strategy":"scoped-rc"}"#)
            .unwrap();
        let Request::Run(r) = r else { panic!() };
        assert_eq!(r.strategy, Strategy::Scoped);
        assert!(parse_request(r#"{"op":"run","id":1,"workload":"map","strategy":"zap"}"#).is_err());
    }

    #[test]
    fn control_ops_parse() {
        assert!(matches!(
            parse_request(r#"{"op":"stats"}"#),
            Ok(Request::Stats)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#),
            Ok(Request::Shutdown)
        ));
    }

    #[test]
    fn resume_parses_and_validates() {
        let r = parse_request(r#"{"op":"resume","id":9,"session":77,"fuel":1000}"#).unwrap();
        let Request::Resume(r) = r else { panic!() };
        assert_eq!((r.id, r.session, r.fuel), (9, 77, Some(1000)));
        assert!(matches!(
            parse_request(r#"{"op":"resume","id":9}"#),
            Err(ParseError::Bad(_))
        ));
    }

    #[test]
    fn version_gate() {
        // Supported versions pass; absent means v1.
        assert!(parse_request(r#"{"op":"stats","v":1}"#).is_ok());
        assert!(parse_request(r#"{"op":"stats","v":2}"#).is_ok());
        assert!(parse_request(r#"{"op":"stats"}"#).is_ok());
        // Out-of-range versions carry the id for correlation.
        match parse_request(r#"{"op":"run","v":9,"id":4,"workload":"map"}"#) {
            Err(ParseError::Version { got, id }) => {
                assert_eq!((got, id), (9, Some(4)));
            }
            other => panic!("expected version error, got {other:?}"),
        }
        let resp = version_error(9, Some(4));
        assert!(resp.contains("\"supported_min\":1"), "{resp}");
        assert!(resp.contains("\"supported_max\":2"), "{resp}");
        assert!(resp.contains("\"code\":\"unsupported-version\""), "{resp}");
    }

    #[test]
    fn every_response_is_version_stamped() {
        for resp in [
            error_response(1, Outcome::Failed, "abort", "boom"),
            protocol_error("bad-request", "nope"),
            version_error(3, None),
            response().bool("ok", true).finish(),
        ] {
            assert!(resp.starts_with("{\"v\":2,"), "{resp}");
        }
    }

    /// The `bad-request` message of `line`, which must be one.
    fn bad(line: &str) -> String {
        match parse_request(line) {
            Err(ParseError::Bad(m)) => m,
            other => panic!("{line}: expected bad-request, got {other:?}"),
        }
    }

    #[test]
    fn integer_fields_of_the_wrong_type_are_refused() {
        for n in [r#""8""#, "8.5", "1e300", "true"] {
            let m = bad(&format!(
                r#"{{"op":"run","id":1,"workload":"map","n":{n}}}"#
            ));
            assert!(m.contains("\"n\" must be an integer"), "{m}");
        }
        let Request::Run(r) =
            parse_request(r#"{"op":"run","id":1,"workload":"map","n":-8}"#).unwrap()
        else {
            panic!()
        };
        assert_eq!(r.n, Some(-8));
    }

    #[test]
    fn unsigned_fields_of_the_wrong_type_are_refused() {
        for (key, value) in [
            ("fuel", "-1"),
            ("memory", "2.5"),
            ("id", r#""7""#),
            ("v", "-2"),
        ] {
            let m = bad(&format!(
                r#"{{"op":"run","id":1,"workload":"map","{key}":{value}}}"#
            ));
            assert!(
                m.contains(&format!("\"{key}\" must be a non-negative integer")),
                "{m}"
            );
        }
        let m = bad(r#"{"op":"resume","id":1,"session":-3}"#);
        assert!(m.contains("\"session\""), "{m}");
    }

    #[test]
    fn bool_fields_of_the_wrong_type_are_refused() {
        for key in ["shared", "borrow", "profile", "resumable"] {
            let m = bad(&format!(
                r#"{{"op":"run","id":1,"workload":"map","{key}":1}}"#
            ));
            assert!(m.contains(&format!("\"{key}\" must be a boolean")), "{m}");
        }
    }

    #[test]
    fn string_fields_of_the_wrong_type_are_refused() {
        for (key, value) in [
            ("workload", "5"),
            ("source", "[]"),
            ("strategy", "null"),
            ("op", "{}"),
        ] {
            let m = bad(&format!(
                r#"{{"op":"run","id":1,"workload":"map","{key}":{value}}}"#
            ));
            assert!(m.contains(&format!("\"{key}\" must be a string")), "{m}");
        }
    }

    #[test]
    fn resume_tokens_above_2_53_stay_exact() {
        let token = (32u64 << 48) | 3;
        let line = format!(r#"{{"op":"resume","id":18446744073709551615,"session":{token}}}"#);
        let Request::Resume(r) = parse_request(&line).unwrap() else {
            panic!()
        };
        assert_eq!((r.id, r.session), (u64::MAX, token));
    }

    #[test]
    fn a_one_mebibyte_source_parses_in_linear_time() {
        let chunk = "fun f(n: int): int { n } //\"é\"\n";
        let source = chunk.repeat(((1 << 20) - 1024) / chunk.len());
        assert_eq!(source.len(), (1 << 20) - 1024);
        let mut line = String::from(r#"{"op":"run","id":1,"source":"#);
        json::push_str_lit(&mut line, &source);
        line.push('}');
        let start = std::time::Instant::now();
        let Request::Run(r) = parse_request(&line).unwrap() else {
            panic!()
        };
        assert!(start.elapsed().as_secs_f64() < 1.0, "{:?}", start.elapsed());
        assert_eq!(r.source.as_deref(), Some(&*source));
    }

    const LINES: &[&str] = &[
        r#"{"op":"run","v":2,"id":2,"source":"fun main(n: int): int { n }","n":7,"strategy":"perceus","fuel":1000000,"memory":200000,"shared":false,"borrow":false,"profile":false,"resumable":true}"#,
        r#"{"op":"resume","v":2,"id":3,"session":9007199254740995,"fuel":50000}"#,
        r#"{"op":"run","id":1,"workload":"rbtree","n":400}"#,
        r#"{"op":"stats"}"#,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Random bytes and byte-mutated protocol lines never panic the
        /// request parser.
        #[test]
        fn parse_request_never_panics(
            seed in proptest::sample::select(LINES),
            edits in proptest::collection::vec((0usize..512, 0u16..256, 0u16..3), 0..8),
            noise in proptest::collection::vec(0u16..256, 0..64),
        ) {
            let mut bytes = seed.as_bytes().to_vec();
            for &(at, b, kind) in &edits {
                let at = at % (bytes.len() + 1);
                match kind {
                    0 => bytes.insert(at, b as u8),
                    _ if at == bytes.len() => bytes.push(b as u8),
                    1 => {
                        bytes.remove(at);
                    }
                    _ => bytes[at] = b as u8,
                }
            }
            let _ = parse_request(&String::from_utf8_lossy(&bytes));
            let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
            let _ = parse_request(&String::from_utf8_lossy(&noise));
        }
    }
}
