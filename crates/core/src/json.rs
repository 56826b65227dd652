//! The workspace's one JSON reader and writer.
//!
//! The build environment is offline (no serde), so every JSON document
//! the workspace reads or writes goes through this module: the daemon's
//! wire protocol, the native executor's report line, the committed
//! counter baseline, and the CLIs' `--json` output. One request or
//! response of the protocol is one JSON object on one line
//! (newline-delimited), so framing is trivial and a stream can be
//! inspected with standard tools.
//!
//! The reader faces untrusted input on the daemon, so it is bounded:
//! nesting deeper than [`MAX_DEPTH`] is an error, not a stack overflow;
//! each string is scanned once; and integer literals are exact (see
//! [`Json::Int`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`parse`] accepts. Every
/// document the workspace writes nests a few levels; the bound keeps a
/// hostile line from recursing the reader off its thread's stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A fractional or exponent literal, or an integer literal an `f64`
    /// holds exactly (|n| ≤ 2^53).
    Num(f64),
    /// An integer literal too large for `Num` to hold exactly
    /// (|n| > 2^53): 64-bit session tokens, ids and counters.
    Int(i128),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Reads a field of an object (`None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a signed integer: `None` unless it is integral and
    /// in range (never truncated or saturated).
    pub fn as_i64(&self) -> Option<i64> {
        self.as_integer().and_then(|n| i64::try_from(n).ok())
    }

    /// The value as an unsigned integer: `None` unless it is integral,
    /// non-negative and in range.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_integer().and_then(|n| u64::try_from(n).ok())
    }

    fn as_integer(&self) -> Option<i128> {
        match *self {
            Json::Int(n) => Some(n),
            // `as` saturates, and a saturated value is out of every
            // caller's range.
            Json::Num(n) if n.fract() == 0.0 => Some(n as i128),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one JSON document (a full line of the protocol).
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        src,
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += hit as usize;
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    /// One value, inside `depth` enclosing arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad keyword at byte {}", self.pos))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let bad = || format!("bad number at byte {start}");
        self.eat(b'-');
        let int_start = self.pos;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.bytes[int_start] == b'0') {
            return Err(bad());
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        if self.eat(b'e') || self.eat(b'E') {
            integral = false;
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        let text = &self.src[start..self.pos];
        if integral {
            if let Ok(n) = text.parse::<i128>() {
                if n.unsigned_abs() > 1 << 53 {
                    return Ok(Json::Int(n));
                }
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| bad())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // The source is a `&str` and both delimiters are ASCII, so
            // every run between them is whole UTF-8: copy it at once.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b't') => out.push('\t'),
                Some(b'r') => out.push('\r'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let code = self
                        .src
                        .get(self.pos + 1..self.pos + 5)
                        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or("bad \\u escape")?;
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.pos += 4;
                }
                other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
            }
            self.pos += 1;
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth)?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
}

/// Appends a JSON string literal (with escapes) to `out`.
pub fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The JSON string literal of `s`, quotes included: [`push_str_lit`]
/// for a `format!` argument.
pub fn str_lit(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_str_lit(&mut out, s);
    out
}

/// A builder for one-line JSON objects (insertion order preserved —
/// responses lead with `id`/`ok` so a human can scan a stream).
#[derive(Default)]
pub struct ObjBuilder {
    buf: String,
    any: bool,
}

impl ObjBuilder {
    pub fn new() -> Self {
        ObjBuilder {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, key: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        push_str_lit(&mut self.buf, key);
        self.buf.push(':');
    }

    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.key(key);
        push_str_lit(&mut self.buf, v);
        self
    }

    pub fn u64(mut self, key: &str, v: u64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{v}");
        self
    }

    pub fn i64(mut self, key: &str, v: i64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{v}");
        self
    }

    pub fn f64(mut self, key: &str, v: f64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{v:.3}");
        self
    }

    pub fn bool(mut self, key: &str, v: bool) -> Self {
        self.key(key);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Inserts a pre-rendered JSON fragment (nested object/array).
    pub fn raw(mut self, key: &str, fragment: &str) -> Self {
        self.key(key);
        self.buf.push_str(fragment);
        self
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrips_protocol_shapes() {
        let line = ObjBuilder::new()
            .str("op", "run")
            .u64("id", 7)
            .str("workload", "rbtree")
            .i64("n", 400)
            .bool("shared", false)
            .raw("output", "[1,2,3]")
            .finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("run"));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(400));
        assert_eq!(v.get("shared").and_then(Json::as_bool), Some(false));
        assert!(matches!(v.get("output"), Some(Json::Arr(a)) if a.len() == 3));
    }

    #[test]
    fn escapes_are_bidirectional() {
        let text = "a\"b\\c\nd\te\r\u{1}f/é≠😀";
        let s = str_lit(text);
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\r\\u0001f/é≠😀\"");
        assert_eq!(parse(&s).unwrap().as_str(), Some(text));
        assert_eq!(
            parse(r#""\/\b\f\u00e9\u12""#).unwrap_err(),
            "bad \\u escape",
            "a short \\u escape is an error"
        );
        assert_eq!(parse(r#""\u00e9\/""#).unwrap().as_str(), Some("é/"));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "{\"a\":}",
            "[1,]",
            "{} trailing",
            "01",
            "1.",
            "-",
            "1e",
            ".5",
            "\"\\u+fff\"",
            "\"ab",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    fn nested_arrays(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    fn nested_objects(depth: usize) -> String {
        "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth)
    }

    #[test]
    fn nesting_is_bounded_by_max_depth() {
        for doc in [nested_arrays(MAX_DEPTH), nested_objects(MAX_DEPTH)] {
            assert!(parse(&doc).is_ok(), "{doc}");
        }
        for doc in [nested_arrays(MAX_DEPTH + 1), nested_objects(MAX_DEPTH + 1)] {
            let err = parse(&doc).unwrap_err();
            assert!(err.contains("nesting deeper than 64"), "{err}");
        }
        // Far past the bound the reader still answers with an error on a
        // default-sized thread stack.
        std::thread::spawn(|| {
            assert!(parse(&nested_arrays(100_000)).is_err());
            assert!(parse(&nested_objects(100_000)).is_err());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn integers_are_exact() {
        let two53 = 1u64 << 53;
        let line = ObjBuilder::new()
            .u64("max", u64::MAX)
            .i64("min", i64::MIN)
            .u64("above", two53 + 1)
            .u64("at", two53)
            .finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("max").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(v.get("min").and_then(Json::as_i64), Some(i64::MIN));
        assert_eq!(v.get("above").and_then(Json::as_u64), Some(two53 + 1));
        assert_eq!(v.get("at").and_then(Json::as_u64), Some(two53));
        assert_eq!(v.get("above"), Some(&Json::Int(two53 as i128 + 1)));
        assert_eq!(v.get("at"), Some(&Json::Num(two53 as f64)));
        assert_eq!(v.get("max").and_then(Json::as_i64), None, "out of range");
        assert_eq!(v.get("min").and_then(Json::as_u64), None, "negative");
        let token = (32u64 << 48) | 3;
        let v = parse(&format!("{{\"session\":{token}}}")).unwrap();
        assert_eq!(v.get("session").and_then(Json::as_u64), Some(token));
    }

    #[test]
    fn non_integers_do_not_read_as_integers() {
        for lit in [
            "1.5", "-1", "1e300", "1e400", "-0.5", "\"7\"", "true", "null",
        ] {
            assert_eq!(parse(lit).unwrap().as_u64(), None, "{lit}");
        }
        for lit in ["1.5", "1e300", "9223372036854775808", "\"7\""] {
            assert_eq!(parse(lit).unwrap().as_i64(), None, "{lit}");
        }
        assert_eq!(parse("2.0").unwrap().as_u64(), Some(2));
        assert_eq!(parse("-3").unwrap().as_i64(), Some(-3));
        assert_eq!(parse("-0").unwrap().as_u64(), Some(0));
    }

    /// Documents to mutate: every shape the workspace writes.
    const SEEDS: &[&str] = &[
        r#"{"op":"run","v":2,"id":2,"source":"fun main(n: int): int { n }","n":7,"strategy":"perceus","fuel":1000000,"shared":false}"#,
        r#"{"op":"resume","v":2,"id":3,"session":9007199254740995,"fuel":50000}"#,
        r#"{"ok":true,"value":"Cons(1, Nil)","output":[1,-2,3],"counters":{"steps":42},"leaked_blocks":0,"wall_ns":12}"#,
        r#"{"version":1,"strategy":"perceus","workloads":[{"name":"map","n":8,"counters":{"dups":1}}]}"#,
        r#"[null,true,false,-0.5e-3,"\u00e9\n",{},[]]"#,
    ];

    /// Applies `edits` of (position, byte, kind) to `seed`: insert,
    /// delete or overwrite one byte each.
    fn mutate(seed: &str, edits: &[(usize, u16, u16)]) -> String {
        let mut bytes = seed.as_bytes().to_vec();
        for &(at, b, kind) in edits {
            let at = at % (bytes.len() + 1);
            match kind {
                0 => bytes.insert(at, b as u8),
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ if at < bytes.len() => bytes[at] = b as u8,
                _ => bytes.push(b as u8),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    fn depth_of(v: &Json) -> usize {
        match v {
            Json::Arr(items) => 1 + items.iter().map(depth_of).max().unwrap_or(0),
            Json::Obj(m) => 1 + m.values().map(depth_of).max().unwrap_or(0),
            _ => 0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random bytes never panic the reader, and nothing it accepts
        /// nests past the bound.
        #[test]
        fn json_random_bytes_never_panic(bytes in proptest::collection::vec(0u16..256, 0..96)) {
            let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            if let Ok(v) = parse(&String::from_utf8_lossy(&bytes)) {
                prop_assert!(depth_of(&v) <= MAX_DEPTH);
            }
        }

        /// Mutated documents never panic the reader either.
        #[test]
        fn json_mutated_documents_never_panic(
            seed in proptest::sample::select(SEEDS),
            edits in proptest::collection::vec((0usize..256, 0u16..256, 0u16..3), 1..6),
        ) {
            if let Ok(v) = parse(&mutate(seed, &edits)) {
                prop_assert!(depth_of(&v) <= MAX_DEPTH);
            }
        }

        /// Nesting up to `MAX_DEPTH` parses and one level more is an
        /// error, whichever containers make it up.
        #[test]
        fn json_nesting_limit_holds(depth in 0usize..200, kinds in any::<u64>()) {
            let mut doc = String::new();
            for i in 0..depth {
                doc.push_str(if (kinds >> (i % 64)) & 1 == 0 { "[" } else { "{\"k\":" });
            }
            doc.push('0');
            for i in (0..depth).rev() {
                doc.push(if (kinds >> (i % 64)) & 1 == 0 { ']' } else { '}' });
            }
            prop_assert_eq!(parse(&doc).is_ok(), depth <= MAX_DEPTH, "depth {}", depth);
        }
    }
}
