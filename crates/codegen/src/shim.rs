//! The fixed runtime shim embedded at the top of every generated
//! executor. It owns the *non-program* halves of the machine that
//! generated code still needs — the heap handle, the primitive
//! operations of `eval_prim`, constructor dispatch, result rendering
//! (the machine's `DeepValue` display), and the subprocess `main` that
//! prints one JSON report line on stdout.
//!
//! Everything here is a verbatim mirror of `perceus-runtime`'s machine:
//! same heap calls in the same order, same error messages, same
//! `run → render → drop result → read stats` sequence as the suite's
//! `run_workload`. The only machine feature deliberately absent is the
//! resumable frame stack (budgeted suspension) — generated code runs on
//! the Rust call stack and cannot park.

/// Source of the `mod shim { ... }` block, spliced into every generated
/// `main.rs` by [`crate::emit_batch`].
pub const SHIM_SOURCE: &str = r##"/// Fixed runtime bridge: heap handle, primitives, dispatch helpers,
/// result rendering, and the subprocess driver.
mod shim {
    pub use perceus_runtime::heap::{BlockTag, Heap, LamId, ReclaimMode};
    pub use perceus_runtime::value::{Addr, Value};
    pub use perceus_runtime::{RuntimeError, SCHEDULE_KEYS};
    use perceus_core::ir::TypeTable;
    use perceus_core::json;
    pub use perceus_core::ir::{CtorId, FunId};

    /// One generated program, as registered in the executor binary.
    pub struct Program {
        pub name: &'static str,
        pub run: fn(&mut Rt, &[Value]) -> Result<Value, RuntimeError>,
        pub ctor_names: &'static [&'static str],
    }

    /// The per-run state generated functions thread through: the same
    /// `Heap` the interpreter uses, plus the `println` output stream.
    pub struct Rt {
        pub heap: Heap,
        pub output: Vec<i64>,
    }

    impl Rt {
        pub fn new() -> Rt {
            Rt {
                heap: Heap::new(ReclaimMode::Rc),
                output: Vec::new(),
            }
        }

        /// One abstract-machine step. The interpreter charges exactly
        /// one per `step_loop` iteration; generated code charges one at
        /// every cur-position node, which is the same thing.
        #[inline(always)]
        pub fn step(&mut self) {
            self.heap.stats.steps += 1;
        }
    }

    // ---- primitives (verbatim mirrors of the machine's eval_prim) --

    fn int(v: &Value) -> Result<i64, RuntimeError> {
        v.as_int()
            .ok_or_else(|| RuntimeError::TypeMismatch(format!("expected an integer, got {v}")))
    }

    fn boolean(b: bool) -> Value {
        Value::Enum(if b { TypeTable::TRUE } else { TypeTable::FALSE })
    }

    fn value_eq(a: &Value, b: &Value) -> Result<bool, RuntimeError> {
        match (a, b) {
            (Value::Int(x), Value::Int(y)) => Ok(x == y),
            (Value::Enum(x), Value::Enum(y)) => Ok(x == y),
            (Value::Unit, Value::Unit) => Ok(true),
            _ => Err(RuntimeError::TypeMismatch(format!(
                "== on non-primitive values {a} and {b}"
            ))),
        }
    }

    fn ref_addr(v: &Value) -> Result<Addr, RuntimeError> {
        v.addr()
            .ok_or_else(|| RuntimeError::TypeMismatch(format!("expected a reference, got {v}")))
    }

    pub fn prim_add(a: Value, b: Value) -> Result<Value, RuntimeError> {
        Ok(Value::Int(int(&a)?.wrapping_add(int(&b)?)))
    }

    pub fn prim_sub(a: Value, b: Value) -> Result<Value, RuntimeError> {
        Ok(Value::Int(int(&a)?.wrapping_sub(int(&b)?)))
    }

    pub fn prim_mul(a: Value, b: Value) -> Result<Value, RuntimeError> {
        Ok(Value::Int(int(&a)?.wrapping_mul(int(&b)?)))
    }

    pub fn prim_div(a: Value, b: Value) -> Result<Value, RuntimeError> {
        // Divisor first: the machine reports division-by-zero even when
        // the numerator is not an integer.
        let d = int(&b)?;
        if d == 0 {
            return Err(RuntimeError::DivisionByZero);
        }
        Ok(Value::Int(int(&a)?.wrapping_div(d)))
    }

    pub fn prim_rem(a: Value, b: Value) -> Result<Value, RuntimeError> {
        let d = int(&b)?;
        if d == 0 {
            return Err(RuntimeError::DivisionByZero);
        }
        Ok(Value::Int(int(&a)?.wrapping_rem(d)))
    }

    pub fn prim_neg(a: Value) -> Result<Value, RuntimeError> {
        Ok(Value::Int(int(&a)?.wrapping_neg()))
    }

    pub fn prim_lt(a: Value, b: Value) -> Result<Value, RuntimeError> {
        Ok(boolean(int(&a)? < int(&b)?))
    }

    pub fn prim_le(a: Value, b: Value) -> Result<Value, RuntimeError> {
        Ok(boolean(int(&a)? <= int(&b)?))
    }

    pub fn prim_gt(a: Value, b: Value) -> Result<Value, RuntimeError> {
        Ok(boolean(int(&a)? > int(&b)?))
    }

    pub fn prim_ge(a: Value, b: Value) -> Result<Value, RuntimeError> {
        Ok(boolean(int(&a)? >= int(&b)?))
    }

    pub fn prim_eq(a: Value, b: Value) -> Result<Value, RuntimeError> {
        Ok(boolean(value_eq(&a, &b)?))
    }

    pub fn prim_ne(a: Value, b: Value) -> Result<Value, RuntimeError> {
        Ok(boolean(!value_eq(&a, &b)?))
    }

    pub fn prim_min(a: Value, b: Value) -> Result<Value, RuntimeError> {
        Ok(Value::Int(int(&a)?.min(int(&b)?)))
    }

    pub fn prim_max(a: Value, b: Value) -> Result<Value, RuntimeError> {
        Ok(Value::Int(int(&a)?.max(int(&b)?)))
    }

    pub fn prim_ref_new(rt: &mut Rt, v: Value) -> Result<Value, RuntimeError> {
        Ok(Value::Ref(rt.heap.alloc_slice(BlockTag::MutRef, &[v])))
    }

    pub fn prim_ref_get(rt: &mut Rt, r: Value) -> Result<Value, RuntimeError> {
        // §2.7.3: read, retain the content, release the ref.
        let addr = ref_addr(&r)?;
        let content = rt.heap.view(addr)?.fields[0];
        rt.heap.dup(content)?;
        rt.heap.drop_value(r)?;
        Ok(content)
    }

    pub fn prim_ref_set(rt: &mut Rt, r: Value, v: Value) -> Result<Value, RuntimeError> {
        let addr = ref_addr(&r)?;
        if rt.heap.view(addr)?.tag != BlockTag::MutRef {
            return Err(RuntimeError::TypeMismatch(":= on a non-ref".into()));
        }
        let old = std::mem::replace(rt.heap.field_mut(addr, 0)?, v);
        rt.heap.drop_value(old)?;
        rt.heap.drop_value(r)?;
        Ok(Value::Unit)
    }

    pub fn prim_tshare(rt: &mut Rt, v: Value) -> Result<Value, RuntimeError> {
        rt.heap.tshare(v)?;
        rt.heap.drop_value(v)?;
        Ok(Value::Unit)
    }

    pub fn prim_println(rt: &mut Rt, v: Value) -> Result<Value, RuntimeError> {
        let n = match v {
            Value::Int(i) => i,
            Value::Unit => 0,
            other => {
                return Err(RuntimeError::TypeMismatch(format!(
                    "println of non-integer {other}"
                )))
            }
        };
        rt.output.push(n);
        Ok(Value::Unit)
    }

    // ---- dispatch helpers (select_arm / prepare_* error paths) -----

    /// Constructor dispatch for `match` — the scrutinee half of the
    /// machine's `select_arm`.
    pub fn ctor_of(heap: &Heap, v: Value) -> Result<(u32, Option<Addr>), RuntimeError> {
        match v {
            Value::Enum(c) => Ok((c.0, None)),
            Value::Ref(a) => {
                let block = heap.view(a)?;
                match block.tag {
                    BlockTag::Ctor(c) => Ok((c.0, Some(a))),
                    _ => Err(RuntimeError::TypeMismatch(
                        "match on a non-constructor block".into(),
                    )),
                }
            }
            other => Err(RuntimeError::TypeMismatch(format!(
                "match on non-constructor value {other}"
            ))),
        }
    }

    pub fn fun_arity(name: &str, want: usize, got: usize) -> RuntimeError {
        RuntimeError::TypeMismatch(format!("{name} expects {want} arguments, got {got}"))
    }

    pub fn closure_arity(want: usize, got: usize) -> RuntimeError {
        RuntimeError::TypeMismatch(format!("closure expects {want} arguments, got {got}"))
    }

    pub fn non_function_block() -> RuntimeError {
        RuntimeError::TypeMismatch("application of a non-function block".into())
    }

    pub fn apply_non_function(v: Value) -> RuntimeError {
        RuntimeError::TypeMismatch(format!("application of non-function value {v}"))
    }

    pub fn bad_reuse_token(v: Value) -> RuntimeError {
        RuntimeError::TypeMismatch(format!("constructor reuse argument is not a token: {v}"))
    }

    pub fn no_arm(names: &[&str], ctor: u32) -> RuntimeError {
        RuntimeError::MatchFailure(format!(
            "no arm for constructor {} ({:?})",
            names.get(ctor as usize).copied().unwrap_or("?"),
            CtorId(ctor)
        ))
    }

    pub fn unknown_fun(g: u32) -> RuntimeError {
        RuntimeError::Internal(format!("unknown function id {g}"))
    }

    pub fn unknown_lam(l: u32) -> RuntimeError {
        RuntimeError::Internal(format!("unknown lambda id {l}"))
    }

    // ---- result rendering (the machine's DeepValue display) --------

    fn ctor_name<'a>(names: &'a [&'a str], c: CtorId) -> &'a str {
        names.get(c.0 as usize).copied().unwrap_or("?")
    }

    /// Renders a result exactly as `DeepValue`'s `Display` would after
    /// `read_back`: `()`, integers, `Name(f1, f2)` (no parens when
    /// nullary), `<fun>` for closures and globals, `ref(v)`, `<weak>`.
    pub fn render(heap: &Heap, names: &[&str], v: Value) -> Result<String, RuntimeError> {
        let mut out = String::new();
        render_into(heap, names, v, &mut out)?;
        Ok(out)
    }

    fn render_into(
        heap: &Heap,
        names: &[&str],
        v: Value,
        out: &mut String,
    ) -> Result<(), RuntimeError> {
        match v {
            Value::Unit | Value::Token(_) => out.push_str("()"),
            Value::Int(i) => {
                out.push_str(&i.to_string());
            }
            Value::Enum(c) => out.push_str(ctor_name(names, c)),
            Value::Global(_) => out.push_str("<fun>"),
            Value::Weak(_) => out.push_str("<weak>"),
            Value::Ref(a) => {
                let b = heap.view(a)?;
                match b.tag {
                    BlockTag::Ctor(c) => {
                        out.push_str(ctor_name(names, c));
                        if !b.fields.is_empty() {
                            out.push('(');
                            for (i, f) in b.fields.iter().enumerate() {
                                if i > 0 {
                                    out.push_str(", ");
                                }
                                render_into(heap, names, *f, out)?;
                            }
                            out.push(')');
                        }
                    }
                    BlockTag::Closure(_) => out.push_str("<fun>"),
                    BlockTag::MutRef => {
                        out.push_str("ref(");
                        render_into(heap, names, b.fields[0], out)?;
                        out.push(')');
                    }
                }
            }
        }
        Ok(())
    }

    // ---- JSON report -----------------------------------------------

    fn push_output(out: &mut String, output: &[i64]) {
        out.push_str("\"output\":[");
        for (i, n) in output.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&n.to_string());
        }
        out.push_str("],");
    }

    /// Counters, leaked blocks, wall time — shared tail of success and
    /// error reports (errors carry counters too: the differential fuzz
    /// leg compares schedules even on failing programs).
    fn push_tail(out: &mut String, rt: &Rt, wall_ns: u64) {
        out.push_str("\"counters\":{");
        let vals = rt.heap.stats.schedule_values();
        for (i, (k, v)) in SCHEDULE_KEYS.iter().zip(vals.iter()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{v}"));
        }
        out.push_str(&format!(
            "}},\"leaked_blocks\":{},\"wall_ns\":{}}}",
            rt.heap.live_blocks(),
            wall_ns
        ));
    }

    fn error_json(rt: &Rt, e: &RuntimeError, wall_ns: u64) -> String {
        let mut out = format!(
            "{{\"ok\":false,\"error\":{},\"code\":\"{}\",",
            json::str_lit(&e.to_string()),
            e.code()
        );
        push_output(&mut out, &rt.output);
        push_tail(&mut out, rt, wall_ns);
        out
    }

    /// Runs one program and renders its report. Mirrors the suite
    /// driver's order: run, render the value, drop the result (which
    /// moves the schedule counters), then read stats and leak count.
    fn execute(p: &Program, n: i64) -> String {
        let mut rt = Rt::new();
        let start = std::time::Instant::now();
        let result = (p.run)(&mut rt, &[Value::Int(n)]);
        let wall_ns = start.elapsed().as_nanos() as u64;
        match result {
            Ok(v) => {
                let value = match render(&rt.heap, p.ctor_names, v) {
                    Ok(s) => s,
                    Err(e) => return error_json(&rt, &e, wall_ns),
                };
                if let Err(e) = rt.heap.drop_value(v) {
                    return error_json(&rt, &e, wall_ns);
                }
                let mut out = format!("{{\"ok\":true,\"value\":{},", json::str_lit(&value));
                push_output(&mut out, &rt.output);
                push_tail(&mut out, &rt, wall_ns);
                out
            }
            Err(e) => error_json(&rt, &e, wall_ns),
        }
    }

    /// The executor entry point: `--prog NAME --n INT` (and `--list`).
    /// Runs on a 512 MiB stack — generated code recurses on the Rust
    /// stack where the machine grew its frame vector.
    pub fn main_with(programs: &'static [Program]) -> i32 {
        let mut prog: Option<String> = None;
        let mut n: i64 = 0;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--prog" => prog = args.next(),
                "--n" => {
                    let Some(v) = args.next().and_then(|s| s.parse::<i64>().ok()) else {
                        eprintln!("--n needs an integer");
                        return 2;
                    };
                    n = v;
                }
                "--list" => {
                    for p in programs {
                        println!("{}", p.name);
                    }
                    return 0;
                }
                other => {
                    eprintln!("unknown argument `{other}`");
                    return 2;
                }
            }
        }
        let Some(name) = prog else {
            eprintln!("--prog is required");
            return 2;
        };
        let Some(p) = programs.iter().find(|p| p.name == name) else {
            eprintln!("unknown program `{name}`; try --list");
            return 2;
        };
        let handle = std::thread::Builder::new()
            .stack_size(512 << 20)
            .spawn(move || execute(p, n))
            .expect("spawn executor thread");
        match handle.join() {
            Ok(json) => {
                println!("{json}");
                0
            }
            Err(_) => {
                eprintln!("executor thread panicked");
                1
            }
        }
    }
}
"##;
