//! The abstract machine: an environment-based, tail-call-safe
//! interpreter for compiled programs, implementing the reference-counted
//! heap semantics of Fig. 7:
//!
//! * values flow by move — ownership transfers with the value; only the
//!   explicit `dup`/`drop` instructions emitted by the insertion passes
//!   touch reference counts (the machine mirrors substitution semantics);
//! * closure application performs rule (appᵣ): retain the captured
//!   environment, release the closure, jump to the body;
//! * `match` *borrows* its scrutinee and binds fields without retaining —
//!   the compiled arm code contains the binder `dup`s and the scrutinee
//!   `drop` (the Fig. 1b form);
//! * tail calls never grow the continuation stack, which is what makes
//!   the FBIP traversals of §2.6 run in constant stack space.
//!
//! The machine runs the flat [`Code`] of a [`Compiled`] program on one
//! value stack. A frame is the window `stack[base..base + nslots]`. A
//! call trims the caller's window to the slots live across it, pushes
//! the arguments above them and fills the window to the callee's
//! `nslots`; a return truncates the stack to the caller's slots and
//! grows its window back; a tail call puts the new arguments over the
//! dying window. Every continuation is resolved when the code is
//! compiled: a compound right-hand side ends in joins, and a pending
//! call is an 8-byte frame record of `(site, base)`, its call site
//! naming the rest. So a suspended [`Execution`] is plain data: numbers
//! and values, valid against any copy of its program.
//!
//! The same machine executes all memory-management modes; in GC mode it
//! additionally triggers the mark–sweep collector of [`crate::gc`] at
//! allocation points, enumerating the value stack as roots.

use crate::code::{
    Arm, Atom, Code, Compiled, Dst, Instr, Opnd, Pc, ReuseSite, Span, NO_PC, NO_SLOT,
};
use crate::error::RuntimeError;
use crate::gc::{Collector, GcConfig};
use crate::heap::{BlockTag, Heap, HeapConfig, ReclaimMode};
use crate::profile::FrameKind;
use crate::value::{Field, Value};
use perceus_core::ir::expr::PrimOp;
use perceus_core::ir::{CtorId, FunId, TypeTable};
use perceus_core::passes::Validation;
use std::fmt;

/// Machine configuration.
///
/// Built with the `with_*` methods (the [`perceus_core::passes::PassConfig`]
/// pattern: private fields, chainable setters, accessors), so growing a
/// new knob — per-resume budgets, say — is never a breaking
/// struct-literal change for downstream callers:
///
/// ```
/// use perceus_runtime::RunConfig;
/// let config = RunConfig::new().with_step_limit(Some(10_000)).with_profile(true);
/// assert_eq!(config.step_limit(), Some(10_000));
/// ```
#[derive(Debug, Clone)]
pub struct RunConfig {
    step_limit: Option<u64>,
    memory_limit_words: Option<u64>,
    gc: Option<GcConfig>,
    audit_every: Option<u64>,
    heap_recycle: bool,
    validation: Validation,
    profile: bool,
}

impl RunConfig {
    /// The default configuration: no limits, allocator recycling on,
    /// default validation, no profiling.
    pub fn new() -> Self {
        RunConfig {
            step_limit: None,
            memory_limit_words: None,
            gc: None,
            audit_every: None,
            heap_recycle: true,
            validation: Validation::default(),
            profile: false,
        }
    }

    /// Abort with [`RuntimeError::StepLimit`] after this many steps
    /// (`None` = unlimited). Steps are counted in
    /// [`crate::heap::Stats::steps`], which survives suspension — so for
    /// a resumable [`Execution`] this is the *cumulative* fuel ceiling
    /// across all resume legs, while the per-leg budget passed to
    /// [`Execution::run`] only suspends.
    pub fn with_step_limit(mut self, limit: Option<u64>) -> Self {
        self.step_limit = limit;
        self
    }

    /// Abort with [`RuntimeError::MemoryLimit`] once the session holds
    /// more than this many words (`None` = unlimited). Enforced in the
    /// machine loop against `Stats::live_words` plus the value stack
    /// and the frame records (one word per slot and per pending frame),
    /// so a deep non-tail recursion that allocates nothing is metered
    /// too. Under a garbage-free strategy the heap part is exactly the
    /// reachable data, so the limit is deterministic (the same program
    /// at the same size always hits it at the same step — or never).
    pub fn with_memory_limit_words(mut self, limit: Option<u64>) -> Self {
        self.memory_limit_words = limit;
        self
    }

    /// Collector policy (GC mode only; `None` uses the default).
    pub fn with_gc(mut self, gc: Option<GcConfig>) -> Self {
        self.gc = gc;
        self
    }

    /// Run the garbage-free/soundness auditor every N steps (expensive;
    /// for tests). See [`crate::audit`].
    pub fn with_audit_every(mut self, every: Option<u64>) -> Self {
        self.audit_every = every;
        self
    }

    /// Serve allocations from the heap's size-class free lists (on by
    /// default); off, every allocation bumps the heap's arena, for the
    /// allocator ablation.
    pub fn with_heap_recycle(mut self, recycle: bool) -> Self {
        self.heap_recycle = recycle;
        self
    }

    /// Runtime invariant-check policy (see
    /// [`crate::heap::HeapConfig::validation`]). `Full` makes release
    /// builds also verify reuse-specialization skip masks.
    pub fn with_validation(mut self, validation: Validation) -> Self {
        self.validation = validation;
        self
    }

    /// Attribute every heap/RC event to the executing function (see
    /// [`crate::profile`]). Off by default: the disabled profiler costs
    /// one predictable branch per heap entry point and nothing else.
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// The step (fuel) ceiling, if any.
    pub fn step_limit(&self) -> Option<u64> {
        self.step_limit
    }

    /// The live-heap ceiling in words, if any.
    pub fn memory_limit_words(&self) -> Option<u64> {
        self.memory_limit_words
    }

    /// The collector policy override, if any.
    pub fn gc(&self) -> Option<GcConfig> {
        self.gc
    }

    /// The audit cadence, if any.
    pub fn audit_every(&self) -> Option<u64> {
        self.audit_every
    }

    /// Whether allocations are served from size-class free lists.
    pub fn heap_recycle(&self) -> bool {
        self.heap_recycle
    }

    /// The runtime invariant-check policy.
    pub fn validation(&self) -> Validation {
        self.validation
    }

    /// Whether the per-function profiler is on.
    pub fn profile(&self) -> bool {
        self.profile
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// A pending call: the record of its call site in
/// [`Code::sites`](crate::code::Code::sites), which says where the value
/// goes, where the caller goes on and how large its window is, and the
/// start of the caller's window.
#[derive(Debug, Clone, Copy)]
struct Frame {
    site: u32,
    base: u32,
}

// The frame stack of a deep recursion is as long as the recursion.
const _: () = assert!(std::mem::size_of::<Frame>() == 8);

/// The abstract machine.
pub struct Machine<'p> {
    code: &'p Compiled,
    /// The heap (public so tests and the harness can read statistics).
    pub heap: Heap,
    /// The value stack: every live frame's window, oldest first.
    stack: Vec<Value>,
    /// Start of the running frame's window.
    base: usize,
    frames: Vec<Frame>,
    /// Operand values of the constructor or closure being built.
    operands: Vec<Value>,
    output: Vec<i64>,
    collector: Option<Collector>,
    config: RunConfig,
    /// Number of garbage-free audits run (see `RunConfig::audit_every`).
    audits: u64,
}

impl<'p> Machine<'p> {
    /// Creates a machine for `code` with the given reclamation mode.
    pub fn new(code: &'p Compiled, mode: ReclaimMode, config: RunConfig) -> Self {
        let heap = Heap::with_config(
            mode,
            HeapConfig {
                recycle: config.heap_recycle,
                validation: config.validation,
            },
        );
        Self::with_heap(code, heap, config)
    }

    /// Creates a machine over an *existing* heap — the serving-harness
    /// entry point, where a long-lived worker recycles one heap across
    /// thousands of sessions ([`Heap::reset`] between them) so each
    /// session's allocations hit the previous sessions' warm free
    /// lists. The heap keeps its own reclaim mode and allocator policy;
    /// the run configuration contributes the per-session limits and
    /// turns profiling on if the heap does not have it yet.
    ///
    /// The machine holds no state besides the heap and this call's
    /// fresh stack, so a `with_heap` → run → [`Machine::into_heap`]
    /// round trip is fully reentrant: any number of sequential sessions
    /// can share the heap with no bleed-through (and the generation
    /// check catches a leaked address from a previous tenant
    /// deterministically).
    pub fn with_heap(code: &'p Compiled, mut heap: Heap, config: RunConfig) -> Self {
        let collector = match heap.mode() {
            ReclaimMode::Gc => Some(Collector::new(config.gc.unwrap_or_default())),
            _ => None,
        };
        if config.profile && !heap.profiling() {
            heap.enable_profile();
        }
        Machine {
            code,
            heap,
            stack: Vec::new(),
            base: 0,
            frames: Vec::new(),
            operands: Vec::new(),
            output: Vec::new(),
            collector,
            config,
            audits: 0,
        }
    }

    /// Consumes the machine and returns its heap (the serving worker
    /// takes it back after a session to reset and reuse it).
    pub fn into_heap(self) -> Heap {
        self.heap
    }

    /// How many in-flight garbage-free audits ran (each one checked
    /// reachability and count adequacy of the whole heap). Zero unless
    /// [`RunConfig::audit_every`] was set.
    pub fn audits_run(&self) -> u64 {
        self.audits
    }

    /// The integers printed by `println` during the run.
    pub fn output(&self) -> &[i64] {
        &self.output
    }

    /// The type table (for rendering values).
    pub fn types(&self) -> &TypeTable {
        &self.code.types
    }

    /// Runs the program's entry function with the given arguments.
    ///
    /// A thin run-until-done wrapper over [`Machine::start`] /
    /// [`Execution::run`].
    pub fn run_entry(&mut self, args: Vec<Value>) -> Result<Value, RuntimeError> {
        let entry = self
            .code
            .entry
            .ok_or_else(|| RuntimeError::Internal("program has no entry point".into()))?;
        self.run_fun(entry, args)
    }

    /// Runs an arbitrary function to completion — a thin wrapper over
    /// [`Machine::start`] / [`Execution::run`] with no budget.
    pub fn run_fun(&mut self, fun: FunId, args: Vec<Value>) -> Result<Value, RuntimeError> {
        let mut exec = self.start(fun, args)?;
        match exec.run(self, None)? {
            StepOutcome::Done(v) => Ok(v),
            StepOutcome::Suspended { .. } => Err(RuntimeError::Internal(
                "unbudgeted execution suspended".into(),
            )),
        }
    }

    /// Begins a *resumable* execution of `fun` — the checkpoint/resume
    /// entry point. The returned [`Execution`] owns the continuation
    /// state (value stack, frame records, pending output) whenever it is
    /// suspended; drive it with [`Execution::run`], giving each leg a
    /// step budget. The profiler frame stack lives inside the heap, so
    /// it travels with the heap across suspensions automatically.
    ///
    /// One machine drives one execution at a time: state is swapped
    /// into the machine for the duration of each [`Execution::run`] leg
    /// and back out at suspension. Starting a second execution while
    /// another is suspended is fine (each owns its state); running two
    /// *interleaved* legs on one machine is not — the profiler stack
    /// would interleave.
    pub fn start(&mut self, fun: FunId, mut args: Vec<Value>) -> Result<Execution, RuntimeError> {
        let f = &self.code.funs[fun.0 as usize];
        if f.arity != args.len() {
            return Err(RuntimeError::fun_arity(&f.name, f.arity, args.len()));
        }
        self.heap.prof_enter(FrameKind::Fun(fun));
        args.resize(f.nslots, Value::Unit);
        Ok(Execution {
            pc: Some(f.entry),
            stack: args,
            base: 0,
            frames: Vec::new(),
            output: Vec::new(),
            steps: 0,
            code_uid: self.code.uid(),
            finished: false,
        })
    }

    /// Begins a resumable execution of the program's entry function.
    pub fn start_entry(&mut self, args: Vec<Value>) -> Result<Execution, RuntimeError> {
        let entry = self
            .code
            .entry
            .ok_or_else(|| RuntimeError::Internal("program has no entry point".into()))?;
        self.start(entry, args)
    }

    /// What a memory limit is charged: live heap words plus one word
    /// per value-stack slot and per pending frame.
    fn metered_words(&self) -> u64 {
        self.heap.stats.live_words + (self.stack.len() + self.frames.len()) as u64
    }

    // ---- the main loop ------------------------------------------------

    /// Runs from `start` until the program is done, fails, or — in a
    /// `LIMITED` leg with a `step_end` — has used up its budget.
    ///
    /// `LIMITED` is chosen once per leg: a leg with no budget, fuel
    /// ceiling, memory ceiling or audit cadence runs the copy of the
    /// loop that tests for none of them.
    fn step_loop<const LIMITED: bool>(
        &mut self,
        start: Pc,
        step_end: Option<u64>,
    ) -> Result<Step, RuntimeError> {
        let program = self.code;
        let code = &program.code;
        let mut pc = start as usize;
        loop {
            let ins = code.instrs[pc];
            if LIMITED {
                if let Some(end) = step_end {
                    // Suspend *before* executing the instruction, and only
                    // at a non-RC instruction: Theorem 4's side condition —
                    // the same one the in-flight auditor uses — guarantees
                    // the suspended state is garbage-free and auditable. A
                    // run of RC instructions past the budget only
                    // overshoots by the length of that run.
                    if self.heap.stats.steps >= end && !ins.is_rc() {
                        return Ok(Step::Suspend(pc as Pc));
                    }
                }
            }
            self.heap.stats.steps += 1;
            if LIMITED {
                if let Some(limit) = self.config.step_limit {
                    if self.heap.stats.steps > limit {
                        return Err(RuntimeError::StepLimit(limit));
                    }
                }
                if let Some(limit) = self.config.memory_limit_words {
                    let live_words = self.metered_words();
                    if live_words > limit {
                        return Err(RuntimeError::MemoryLimit {
                            limit_words: limit,
                            live_words,
                        });
                    }
                }
                if let Some(every) = self.config.audit_every {
                    if self.heap.stats.steps.is_multiple_of(every) && !ins.is_rc() {
                        crate::audit::check_machine(self).map_err(RuntimeError::Internal)?;
                        self.audits += 1;
                    }
                }
            }
            // A value-producing instruction ends by delivering its value;
            // everything else sets `pc` itself.
            let (dst, v) = match ins {
                Instr::Atom { dst, a } => (dst, self.read(code, a)),
                Instr::Prim { dst, op, args } => {
                    let mut vals = [Value::Unit; 2];
                    let args = &code.pool[args.range()];
                    for (v, a) in vals.iter_mut().zip(args) {
                        *v = self.read(code, *a);
                    }
                    if op == PrimOp::RefNew {
                        self.maybe_collect();
                    }
                    let vals = &vals[..args.len().min(2)];
                    (dst, eval_prim(&mut self.heap, &mut self.output, op, vals)?)
                }
                Instr::MkClosure { dst, lam, captures } => {
                    self.maybe_collect();
                    self.read_operands(code, captures);
                    let addr = self
                        .heap
                        .alloc_slice(BlockTag::Closure(lam), &self.operands);
                    (dst, Value::Ref(addr))
                }
                Instr::Con { dst, ctor, args } => {
                    self.read_operands(code, args);
                    self.maybe_collect();
                    let addr = self.heap.alloc_slice(BlockTag::Ctor(ctor), &self.operands);
                    (dst, Value::Ref(addr))
                }
                Instr::ConReuse { dst, site } => {
                    (dst, self.con_reuse(code, &code.reuse[site as usize])?)
                }
                Instr::TokenOf { dst, var } => (dst, self.heap.claim(self.slot(var))?),
                Instr::NullToken { dst } => (dst, Value::Token(None)),
                Instr::Abort { msg, .. } => {
                    return Err(RuntimeError::Abort(code.aborts[msg as usize].to_string()))
                }
                Instr::Call { dst, fun, args } => {
                    pc = self.call(program, fun, args, dst)?;
                    continue;
                }
                Instr::App { dst, fun, args } => {
                    let f = self.read(code, fun);
                    pc = self.apply(program, f, args, dst)?;
                    continue;
                }
                // The right-hand side follows; its joins go on at `body`.
                Instr::Enter { .. } => {
                    pc += 1;
                    continue;
                }
                Instr::Match {
                    scrut,
                    arms,
                    default,
                } => {
                    let v = self.slot(scrut);
                    pc = select_arm(
                        &self.heap,
                        program,
                        &mut self.stack[self.base..],
                        v,
                        &code.arms[arms.range()],
                        default,
                    )? as usize;
                    continue;
                }
                Instr::IsUnique { var, shared } => {
                    pc = if self.heap.is_unique(self.slot(var))? {
                        pc + 1
                    } else {
                        shared as usize
                    };
                    continue;
                }
                Instr::Dup(s) => {
                    self.heap.dup(self.slot(s))?;
                    pc += 1;
                    continue;
                }
                Instr::Drop(s) => {
                    self.heap.drop_value(self.slot(s))?;
                    pc += 1;
                    continue;
                }
                Instr::DropReuse { var, token } => {
                    let t = self.heap.drop_reuse(self.slot(var))?;
                    self.stack[self.base + token as usize] = t;
                    pc += 1;
                    continue;
                }
                Instr::Free(s) => {
                    self.heap.free_cell(self.slot(s))?;
                    pc += 1;
                    continue;
                }
                Instr::DecRef(s) => {
                    self.heap.decref(self.slot(s))?;
                    pc += 1;
                    continue;
                }
                Instr::DropToken(s) => {
                    self.heap.drop_token(self.slot(s))?;
                    pc += 1;
                    continue;
                }
            };
            if let Some(s) = dst.as_slot() {
                self.stack[self.base + s as usize] = v;
                pc += 1;
            } else if let Some(enter) = dst.as_join() {
                let Instr::Enter { dst, body } = code.instrs[enter as usize] else {
                    return Err(RuntimeError::Internal(format!("join of non-Enter {enter}")));
                };
                if let Some(s) = dst.as_slot() {
                    self.stack[self.base + s as usize] = v;
                }
                pc = body as usize;
            } else if dst == Dst::DISCARD {
                pc += 1;
            } else {
                let v = if dst == Dst::TAIL {
                    v
                } else {
                    // The context of TRMC: the top two slots of the window.
                    let n = self.stack.len();
                    let [root, hole] = &mut self.stack[n - 2..] else {
                        unreachable!("a TRMC window holds its context")
                    };
                    if dst == Dst::LINK {
                        link(&mut self.heap, root, hole, v)?;
                        pc += 1;
                        continue;
                    }
                    fill(&mut self.heap, *root, *hole, v)?
                };
                match self.ret(v) {
                    Some(next) => pc = next as usize,
                    None => return Ok(Step::Done(v)),
                }
            }
        }
    }

    /// Returns a value to the pending call: the callee's window dies and
    /// the caller's grows back to its size.
    fn ret(&mut self, v: Value) -> Option<Pc> {
        let f = self.frames.pop()?;
        let site = self.code.code.sites[f.site as usize];
        self.heap.prof_exit();
        self.stack.truncate(self.base);
        self.base = f.base as usize;
        self.stack
            .resize(self.base + site.window as usize, Value::Unit);
        if let Some(s) = site.dst.as_slot() {
            self.stack[self.base + s as usize] = v;
        }
        Some(site.next)
    }

    fn slot(&self, s: u32) -> Value {
        self.stack[self.base + s as usize]
    }

    fn read(&self, code: &Code, a: Opnd) -> Value {
        match code.atom(a) {
            Atom::Slot(s) => self.slot(s),
            Atom::Const(v) => v,
        }
    }

    fn read_operands(&mut self, code: &Code, args: Span) {
        self.operands.clear();
        self.push_operands(code, args);
    }

    /// Appends the values of `args` to the operands.
    #[inline(always)]
    fn push_operands(&mut self, code: &Code, args: Span) {
        for a in &code.pool[args.range()] {
            let v = self.read(code, *a);
            self.operands.push(v);
        }
    }

    /// A direct call (from the current frame's operands); returns the
    /// callee's entry point.
    fn call(
        &mut self,
        program: &Compiled,
        fun: FunId,
        args: Span,
        dst: Dst,
    ) -> Result<usize, RuntimeError> {
        let f = &program.funs[fun.0 as usize];
        if f.arity != args.len() {
            return Err(RuntimeError::fun_arity(&f.name, f.arity, args.len()));
        }
        self.read_operands(&program.code, args);
        self.open_window(&program.code, f.nslots, FrameKind::Fun(fun), dst)?;
        Ok(f.entry as usize)
    }

    /// Application of a first-class function value — rule (appᵣ):
    /// `dup ys; drop f; jump`.
    fn apply(
        &mut self,
        program: &Compiled,
        f: Value,
        args: Span,
        dst: Dst,
    ) -> Result<usize, RuntimeError> {
        match f {
            Value::Global(id) => self.call(program, id, args, dst),
            Value::Ref(addr) => {
                let block = self.heap.view(addr)?;
                let BlockTag::Closure(lam) = block.tag else {
                    return Err(RuntimeError::non_function_block());
                };
                let l = &program.lambdas[lam.0 as usize];
                if l.nparams != args.len() {
                    return Err(RuntimeError::closure_arity(l.nparams, args.len()));
                }
                self.operands.clear();
                for f in block.fields {
                    self.operands.push(f.value());
                }
                self.push_operands(&program.code, args);
                // Rule (appᵣ): retain the captures, release the closure.
                for i in 0..l.ncaptures {
                    self.heap.dup(self.operands[i])?;
                }
                self.heap.drop_value(f)?;
                self.open_window(&program.code, l.nslots, FrameKind::Lam(lam), dst)?;
                Ok(l.entry as usize)
            }
            other => Err(RuntimeError::apply_non_function(other)),
        }
    }

    /// Makes the operands the first slots of a new window of `nslots`.
    /// A tail call puts them over the dying window. Any other call keeps
    /// of the caller's window only the slots its site says are live
    /// across the call, opens the new window right above them and leaves
    /// a frame record to return by.
    fn open_window(
        &mut self,
        code: &Code,
        nslots: usize,
        callee: FrameKind,
        dst: Dst,
    ) -> Result<(), RuntimeError> {
        match dst.as_site() {
            None if dst == Dst::LOOP => {
                // A loop iteration of TRMC: the same function's window,
                // whose top two slots, the context, stay.
                self.heap.prof_tail(callee);
                let (args, ctx) = (self.base + self.operands.len(), self.stack.len() - 2);
                self.stack[self.base..args].copy_from_slice(&self.operands);
                self.stack[args..ctx].fill(Value::Unit);
                return Ok(());
            }
            None => {
                self.heap.prof_tail(callee);
                self.stack.truncate(self.base);
            }
            Some(site) => {
                self.heap.prof_enter(callee);
                let base = u32::try_from(self.base)
                    .map_err(|_| RuntimeError::Internal("value stack overflow".into()))?;
                self.frames.push(Frame { site, base });
                self.base += code.sites[site as usize].keep as usize;
                self.stack.truncate(self.base);
            }
        }
        for &v in &self.operands {
            self.stack.push(v);
        }
        self.stack.resize(self.base + nslots, Value::Unit);
        Ok(())
    }

    /// Constructor allocation into a reuse token, or fresh when the
    /// token is null.
    fn con_reuse(&mut self, code: &Code, site: &ReuseSite) -> Result<Value, RuntimeError> {
        self.read_operands(code, site.args);
        match self.slot(site.token) {
            Value::Token(Some(addr)) => {
                let out = self
                    .heap
                    .alloc_into(addr, site.ctor, &self.operands, &site.skip)?;
                return Ok(Value::Ref(out));
            }
            Value::Token(None) => {}
            other => return Err(RuntimeError::bad_reuse_token(other)),
        }
        self.maybe_collect();
        let addr = self
            .heap
            .alloc_slice(BlockTag::Ctor(site.ctor), &self.operands);
        Ok(Value::Ref(addr))
    }

    /// Collect (GC mode) if the policy says so; all live values are on
    /// the value stack at allocation points thanks to ANF.
    fn maybe_collect(&mut self) {
        let Some(collector) = &mut self.collector else {
            return;
        };
        if collector.should_collect(&self.heap) {
            collector.collect(&mut self.heap, self.stack.iter());
        }
    }

    // ---- inspection ----------------------------------------------------

    /// Reads a value back as a deep tree (for tests and the oracle
    /// comparison). Does not consume ownership.
    pub fn read_back(&self, v: Value) -> Result<DeepValue, RuntimeError> {
        let types = &self.code.types;
        read_back_in(&self.heap, &|c| &*types.ctor(c).name, v)
    }

    /// Drops the program result (callers use this before asserting that
    /// a garbage-free run left the heap empty).
    pub fn drop_result(&mut self, v: Value) -> Result<(), RuntimeError> {
        self.heap.drop_value(v)
    }

    /// Root values for the auditor: the whole value stack.
    pub(crate) fn root_values(&self) -> impl Iterator<Item = &Value> {
        self.stack.iter()
    }
}

/// What one step-loop leg produced (internal).
enum Step {
    Done(Value),
    Suspend(Pc),
}

/// The outcome of one [`Execution::run`] leg.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepOutcome {
    /// The execution finished with this result value.
    Done(Value),
    /// The budget ran out at an auditable point; the execution owns its
    /// continuation and can be resumed with more fuel, at once or after
    /// being parked.
    Suspended {
        /// Cumulative steps executed by this execution so far.
        steps_used: u64,
        /// Words the suspended session holds: live heap words — because
        /// Perceus is garbage-free at every step (Thm. 2/4), *exactly*
        /// the reachable data — plus its value stack and frame records,
        /// the same sum a memory limit is charged. Admission control can
        /// charge it against a memory budget with no slack for floating
        /// garbage.
        live_words: u64,
    },
}

/// A resumable execution: the machine's continuation state between
/// [`Execution::run`] legs.
///
/// While suspended it owns the value stack, the frame records, and the
/// output buffer; the heap (including the profiler frame stack) stays
/// with the [`Machine`]. A suspended execution is a precise, auditable
/// snapshot: [`Execution::root_addrs`] plus
/// [`crate::audit::check_heap`] must report zero floating garbage —
/// that is the suspension-point invariant this API maintains by only
/// suspending at instructions satisfying Theorem 4's side condition.
///
/// It is also the *checkpoint*: plain data — a [`Pc`], a window base,
/// values, `(site, base)` records, printed integers, a step count
/// and the program's [`Compiled::uid`] — that borrows nothing. A serving
/// worker parks it in a table across requests and later runs it on a
/// fresh [`Machine`] over the parked heap and any copy of the program.
#[derive(Debug)]
pub struct Execution {
    /// The next instruction; `None` while a leg is running.
    pc: Option<Pc>,
    stack: Vec<Value>,
    base: usize,
    frames: Vec<Frame>,
    output: Vec<i64>,
    steps: u64,
    code_uid: u64,
    finished: bool,
}

impl Execution {
    /// Runs until done, error, or (with a budget) suspension after
    /// roughly `budget` more steps. `machine` must be a machine over the
    /// heap that carries this execution's data and profiler stack, for
    /// the program that started it (any copy: [`Compiled::uid`] is
    /// checked, and a machine for another program is refused).
    ///
    /// On `Done`/`Err` the execution is finished and cannot run again;
    /// the profiler exits the entry frame exactly as the old
    /// run-to-completion API did. On `Suspended` the continuation moves
    /// back into `self` and the machine is left neutral (empty stack).
    pub fn run(
        &mut self,
        machine: &mut Machine<'_>,
        budget: Option<u64>,
    ) -> Result<StepOutcome, RuntimeError> {
        if self.finished {
            return Err(RuntimeError::Internal(
                "resume of a finished execution".into(),
            ));
        }
        if self.code_uid != machine.code.uid() {
            return Err(RuntimeError::Internal(
                "execution resumed on a machine for a different program".into(),
            ));
        }
        let pc = self.pc.take().ok_or_else(|| {
            RuntimeError::Internal("resume of an execution that is already running".into())
        })?;
        machine.stack = std::mem::take(&mut self.stack);
        machine.base = self.base;
        machine.frames = std::mem::take(&mut self.frames);
        if !self.output.is_empty() {
            // Carry output printed by earlier legs (machine.output is
            // empty unless the caller reuses one machine across legs, in
            // which case it already holds this execution's history).
            let mut out = std::mem::take(&mut self.output);
            out.append(&mut machine.output);
            machine.output = out;
        }
        let start_steps = machine.heap.stats.steps;
        let step_end = budget.map(|b| start_steps.saturating_add(b));
        let config = &machine.config;
        let limited = step_end.is_some()
            || config.step_limit.is_some()
            || config.memory_limit_words.is_some()
            || config.audit_every.is_some();
        let r = if limited {
            machine.step_loop::<true>(pc, step_end)
        } else {
            machine.step_loop::<false>(pc, None)
        };
        self.steps = self
            .steps
            .saturating_add(machine.heap.stats.steps - start_steps);
        match r {
            Ok(Step::Done(v)) => {
                self.finished = true;
                machine.heap.prof_exit();
                Ok(StepOutcome::Done(v))
            }
            Ok(Step::Suspend(next)) => {
                let live_words = machine.metered_words();
                self.pc = Some(next);
                self.stack = std::mem::take(&mut machine.stack);
                self.base = machine.base;
                self.frames = std::mem::take(&mut machine.frames);
                self.output = std::mem::take(&mut machine.output);
                Ok(StepOutcome::Suspended {
                    steps_used: self.steps,
                    live_words,
                })
            }
            Err(e) => {
                self.finished = true;
                machine.heap.prof_exit();
                Err(e)
            }
        }
    }

    /// Whether the execution has completed (or died with an error).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Cumulative steps executed across all legs so far.
    pub fn steps_used(&self) -> u64 {
        self.steps
    }

    /// The instruction a suspended execution goes on at; `None` once it
    /// is finished.
    pub fn pc(&self) -> Option<Pc> {
        self.pc
    }

    /// Heap roots of the suspended continuation: every live address on
    /// the value stack. Feed these to [`crate::audit::check_heap`] to
    /// assert garbage-freedom at the suspension point.
    pub fn root_addrs(&self, heap: &Heap) -> Vec<crate::value::Addr> {
        crate::audit::live_roots(heap, self.stack.iter())
    }

    /// Audits the suspended continuation over `heap`: its TRMC contexts
    /// (each hole on its root's chain, see [`crate::audit`]), then the
    /// heap against [`Execution::root_addrs`].
    pub fn audit(&self, heap: &Heap) -> Result<crate::audit::AuditReport, String> {
        crate::audit::check_holes(heap, self.stack.iter())?;
        crate::audit::check_heap(heap, &self.root_addrs(heap))
    }
}

/// Tail recursion modulo cons, the link: `cell`, just built with the
/// Unit placeholder in its last field, goes into the hole of the context
/// `(root, hole)` — or becomes its root while the context is empty — and
/// is the new hole. The machine and the native backend's generated code
/// both call this one definition.
#[inline(always)]
pub fn link(
    heap: &mut Heap,
    root: &mut Value,
    hole: &mut Value,
    cell: Value,
) -> Result<(), RuntimeError> {
    let Value::Ref(addr) = cell else {
        return Err(RuntimeError::Internal(format!("link of non-block {cell}")));
    };
    match *hole {
        Value::Hole(h) => heap.fill_hole(h, cell)?,
        _ => *root = cell,
    }
    *hole = Value::Hole(addr);
    Ok(())
}

/// Tail recursion modulo cons, the fill: the function's result `v` goes
/// into the hole of the context `(root, hole)` and the root is the
/// result — or `v` itself while the context is empty. Shared with the
/// native backend like [`link`].
#[inline(always)]
pub fn fill(heap: &mut Heap, root: Value, hole: Value, v: Value) -> Result<Value, RuntimeError> {
    match hole {
        Value::Hole(h) => {
            heap.fill_hole(h, v)?;
            Ok(root)
        }
        _ => Ok(v),
    }
}

/// Selects and binds a match arm — a borrowing bind per Fig. 1b: fields
/// are copied into the binder slots with no retains; the compiled arm
/// code contains the binder `dup`s and scrutinee `drop`. Returns the
/// arm's first instruction.
fn select_arm(
    heap: &Heap,
    program: &Compiled,
    window: &mut [Value],
    scrut: Value,
    arms: &[Arm],
    default: Pc,
) -> Result<Pc, RuntimeError> {
    let (ctor, fields) = scrutinee(heap, scrut)?;
    for arm in arms {
        if arm.ctor == ctor {
            let binders = &program.code.binders[arm.binders.range()];
            for (slot, f) in binders.iter().zip(fields) {
                if *slot != NO_SLOT {
                    window[*slot as usize] = f.value();
                }
            }
            return Ok(arm.body);
        }
    }
    if default != NO_PC {
        return Ok(default);
    }
    Err(RuntimeError::no_arm(&program.types.ctor(ctor).name, ctor))
}

/// The scrutinee half of a match: the constructor of `v` and its
/// fields (none for a nullary constructor), borrowed from the heap.
/// Shared by the machine's arm selection and the native backend's
/// generated `match`.
#[inline(always)]
pub fn scrutinee(heap: &Heap, v: Value) -> Result<(CtorId, &[Field]), RuntimeError> {
    match v {
        Value::Enum(c) => Ok((c, &[])),
        Value::Ref(a) => heap
            .ctor_fields(a)?
            .ok_or_else(|| RuntimeError::TypeMismatch("match on a non-constructor block".into())),
        other => Err(RuntimeError::TypeMismatch(format!(
            "match on non-constructor value {other}"
        ))),
    }
}

/// The primitive operations, applied to `vals` (as many as
/// [`PrimOp::arity`]): integer arithmetic wraps, division and remainder
/// check for zero, and the reference-cell primitives move ownership as
/// §2.7.3 describes. `println` appends to `output`. The machine and the
/// native backend's generated code both call this one definition; it
/// is always inlined, so a call with a constant `op` folds to that
/// operation's code.
#[inline(always)]
pub fn eval_prim(
    heap: &mut Heap,
    output: &mut Vec<i64>,
    op: PrimOp,
    vals: &[Value],
) -> Result<Value, RuntimeError> {
    use PrimOp::*;
    let int = |v: &Value| {
        v.as_int()
            .ok_or_else(|| RuntimeError::TypeMismatch(format!("expected an integer, got {v}")))
    };
    let boolean = |b: bool| Value::Enum(if b { TypeTable::TRUE } else { TypeTable::FALSE });
    Ok(match op {
        Add => Value::Int(int(&vals[0])?.wrapping_add(int(&vals[1])?)),
        Sub => Value::Int(int(&vals[0])?.wrapping_sub(int(&vals[1])?)),
        Mul => Value::Int(int(&vals[0])?.wrapping_mul(int(&vals[1])?)),
        Div => {
            let d = int(&vals[1])?;
            if d == 0 {
                return Err(RuntimeError::DivisionByZero);
            }
            Value::Int(int(&vals[0])?.wrapping_div(d))
        }
        Rem => {
            let d = int(&vals[1])?;
            if d == 0 {
                return Err(RuntimeError::DivisionByZero);
            }
            Value::Int(int(&vals[0])?.wrapping_rem(d))
        }
        Neg => Value::Int(int(&vals[0])?.wrapping_neg()),
        Lt => boolean(int(&vals[0])? < int(&vals[1])?),
        Le => boolean(int(&vals[0])? <= int(&vals[1])?),
        Gt => boolean(int(&vals[0])? > int(&vals[1])?),
        Ge => boolean(int(&vals[0])? >= int(&vals[1])?),
        Eq => boolean(value_eq(&vals[0], &vals[1])?),
        Ne => boolean(!value_eq(&vals[0], &vals[1])?),
        Min => Value::Int(int(&vals[0])?.min(int(&vals[1])?)),
        Max => Value::Int(int(&vals[0])?.max(int(&vals[1])?)),
        RefNew => Value::Ref(heap.alloc_slice(BlockTag::MutRef, &[vals[0]])),
        RefGet => {
            // §2.7.3: read, retain the content, release the ref.
            let addr = ref_addr(&vals[0])?;
            let content = heap.view(addr)?.fields[0].value();
            heap.dup(content)?;
            heap.drop_value(vals[0])?;
            content
        }
        RefSet => {
            let addr = ref_addr(&vals[0])?;
            if heap.view(addr)?.tag != BlockTag::MutRef {
                return Err(RuntimeError::TypeMismatch(":= on a non-ref".into()));
            }
            let old = heap.replace_field(addr, 0, vals[1])?;
            heap.drop_value(old)?;
            heap.drop_value(vals[0])?;
            Value::Unit
        }
        TShare => {
            heap.tshare(vals[0])?;
            heap.drop_value(vals[0])?;
            Value::Unit
        }
        Println => {
            let n = match vals[0] {
                Value::Int(i) => i,
                Value::Unit => 0,
                other => {
                    return Err(RuntimeError::TypeMismatch(format!(
                        "println of non-integer {other}"
                    )))
                }
            };
            output.push(n);
            Value::Unit
        }
    })
}

fn ref_addr(v: &Value) -> Result<crate::value::Addr, RuntimeError> {
    v.addr()
        .ok_or_else(|| RuntimeError::TypeMismatch(format!("expected a reference, got {v}")))
}

/// Structural equality for the `==` primitive (ints, singletons, unit).
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

/// A machine value read back as a tree, independent of the heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeepValue {
    Unit,
    Int(i64),
    /// Constructor by name (names make test failures readable).
    Ctor(String, Vec<DeepValue>),
    /// Closures compare as opaque.
    Closure,
    /// Mutable reference cell.
    MutRef(Box<DeepValue>),
    /// A weak shared reference, read back opaquely: following it would
    /// recurse through cycles (that is what weak back-edges are for),
    /// and its target's liveness is another thread's business.
    Weak,
}

impl fmt::Display for DeepValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeepValue::Unit => f.write_str("()"),
            DeepValue::Int(i) => write!(f, "{i}"),
            DeepValue::Ctor(name, fields) => {
                f.write_str(name)?;
                if !fields.is_empty() {
                    f.write_str("(")?;
                    for (i, x) in fields.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        write!(f, "{x}")?;
                    }
                    f.write_str(")")?;
                }
                Ok(())
            }
            DeepValue::Closure => f.write_str("<fun>"),
            DeepValue::MutRef(v) => write!(f, "ref({v})"),
            DeepValue::Weak => f.write_str("<weak>"),
        }
    }
}

/// Reads a machine value into a [`DeepValue`] tree, naming each
/// constructor by `ctor_name`.
pub fn read_back_in<'n>(
    heap: &Heap,
    ctor_name: &dyn Fn(CtorId) -> &'n str,
    v: Value,
) -> Result<DeepValue, RuntimeError> {
    match v {
        Value::Unit | Value::Token(_) | Value::Hole(_) => Ok(DeepValue::Unit),
        Value::Weak(_) => Ok(DeepValue::Weak),
        Value::Int(i) => Ok(DeepValue::Int(i)),
        Value::Enum(c) => Ok(DeepValue::Ctor(ctor_name(c).to_string(), Vec::new())),
        Value::Global(_) => Ok(DeepValue::Closure),
        Value::Ref(addr) => {
            let b = heap.view(addr)?;
            match b.tag {
                BlockTag::Ctor(c) => {
                    let mut fields = Vec::with_capacity(b.fields.len());
                    for f in b.fields.iter() {
                        fields.push(read_back_in(heap, ctor_name, f.value())?);
                    }
                    Ok(DeepValue::Ctor(ctor_name(c).to_string(), fields))
                }
                BlockTag::Closure(_) => Ok(DeepValue::Closure),
                BlockTag::MutRef => Ok(DeepValue::MutRef(Box::new(read_back_in(
                    heap,
                    ctor_name,
                    b.fields[0].value(),
                )?))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::compile;
    use perceus_core::ir::builder::{arm, arm0, con, ite, ProgramBuilder};
    use perceus_core::ir::expr::{Expr, Lambda, PrimOp};
    use perceus_core::passes::{PassConfig, Pipeline};

    fn run(p: perceus_core::ir::Program, arg: i64) -> (Value, Stats) {
        let p = Pipeline::new(PassConfig::perceus()).run(p).unwrap();
        let compiled = compile(&p).unwrap();
        let mut m = Machine::new(&compiled, ReclaimMode::Rc, RunConfig::default());
        let v = m.run_entry(vec![Value::Int(arg)]).unwrap();
        m.drop_result(v).unwrap();
        assert_eq!(m.heap.live_blocks(), 0, "garbage-free");
        (v, m.heap.stats)
    }

    use crate::heap::Stats;

    /// A compound let-rhs (match) uses a Local frame and continues in
    /// the same environment.
    #[test]
    fn local_frames_for_compound_rhs() {
        let mut pb = ProgramBuilder::new();
        let n = pb.fresh("n");
        let c = pb.fresh("c");
        let x = pb.fresh("x");
        // val c = (n < 5); val x = match c { True -> 1; False -> 2 }; x + n
        let body = Expr::let_(
            c.clone(),
            Expr::Prim(PrimOp::Lt, vec![Expr::Var(n.clone()), Expr::int(5)]),
            Expr::let_(
                x.clone(),
                ite(c.clone(), Expr::int(1), Expr::int(2)),
                Expr::Prim(
                    PrimOp::Add,
                    vec![Expr::Var(x.clone()), Expr::Var(n.clone())],
                ),
            ),
        );
        let f = pb.fun("f", vec![n.clone()], body);
        pb.entry(f);
        let (v, _) = run(pb.finish(), 3);
        assert_eq!(v.as_int(), Some(4));
        let mut pb = ProgramBuilder::new();
        let n = pb.fresh("n");
        let c = pb.fresh("c");
        let x = pb.fresh("x");
        let body = Expr::let_(
            c.clone(),
            Expr::Prim(PrimOp::Lt, vec![Expr::Var(n.clone()), Expr::int(5)]),
            Expr::let_(
                x.clone(),
                ite(c.clone(), Expr::int(1), Expr::int(2)),
                Expr::Prim(
                    PrimOp::Add,
                    vec![Expr::Var(x.clone()), Expr::Var(n.clone())],
                ),
            ),
        );
        let f = pb.fun("f", vec![n.clone()], body);
        pb.entry(f);
        let (v, _) = run(pb.finish(), 9);
        assert_eq!(v.as_int(), Some(11));
    }

    /// Applying a non-function value is a type error, not a crash.
    #[test]
    fn applying_non_function_errors() {
        let mut pb = ProgramBuilder::new();
        let n = pb.fresh("n");
        let body = Expr::App(Box::new(Expr::Var(n.clone())), vec![Expr::int(1)]);
        let f = pb.fun("f", vec![n], body);
        pb.entry(f);
        let p = Pipeline::new(PassConfig::perceus())
            .run(pb.finish())
            .unwrap();
        let compiled = compile(&p).unwrap();
        let mut m = Machine::new(&compiled, ReclaimMode::Rc, RunConfig::default());
        let err = m.run_entry(vec![Value::Int(7)]).unwrap_err();
        assert!(matches!(err, RuntimeError::TypeMismatch(_)), "{err}");
    }

    /// A closure value built from a Global is applied by direct entry
    /// (no closure allocation, no rc traffic on the callee).
    #[test]
    fn global_as_value_applies_directly() {
        let mut pb = ProgramBuilder::new();
        let x = pb.fresh("x");
        let inc = pb.fun(
            "inc",
            vec![x.clone()],
            Expr::Prim(PrimOp::Add, vec![Expr::Var(x), Expr::int(1)]),
        );
        let n = pb.fresh("n");
        let g = pb.fresh("g");
        let body = Expr::let_(
            g.clone(),
            Expr::Global(inc),
            Expr::App(Box::new(Expr::Var(g.clone())), vec![Expr::Var(n.clone())]),
        );
        let f = pb.fun("main", vec![n], body);
        pb.entry(f);
        let (v, st) = run(pb.finish(), 41);
        assert_eq!(v.as_int(), Some(42));
        assert_eq!(st.allocations, 0, "no closure allocated for a global");
    }

    /// Closure application follows (appᵣ): captured values are retained
    /// for the body and the closure itself is released per call.
    #[test]
    fn closure_call_retains_captures_releases_closure() {
        let mut pb = ProgramBuilder::new();
        let (_, cs) = pb.data("box", &[("BoxV", 1)]);
        let bx = cs[0];
        let n = pb.fresh("n");
        let b = pb.fresh("b");
        let f = pb.fresh("f");
        let q = pb.fresh("q");
        let r1 = pb.fresh("r1");
        let r2 = pb.fresh("r2");
        let inner1 = pb.fresh("i1");
        let inner2 = pb.fresh("i2");
        // val b = BoxV(n)
        // val f = fn(q){ match b { BoxV(i) -> i + q } }
        // f(1) + f(2)   — two calls through the same closure.
        let lam = Expr::Lam(Lambda {
            params: vec![q.clone()],
            captures: vec![],
            body: Box::new(Expr::Match {
                scrutinee: b.clone(),
                arms: vec![arm(
                    bx,
                    vec![inner1.clone()],
                    Expr::Prim(
                        PrimOp::Add,
                        vec![Expr::Var(inner1.clone()), Expr::Var(q.clone())],
                    ),
                )],
                default: None,
            }),
        });
        let body = Expr::let_(
            b.clone(),
            con(bx, vec![Expr::Var(n.clone())]),
            Expr::let_(
                f.clone(),
                lam,
                Expr::let_(
                    r1.clone(),
                    Expr::App(Box::new(Expr::Var(f.clone())), vec![Expr::int(1)]),
                    Expr::let_(
                        r2.clone(),
                        Expr::App(Box::new(Expr::Var(f.clone())), vec![Expr::int(2)]),
                        Expr::Prim(
                            PrimOp::Add,
                            vec![Expr::Var(r1.clone()), Expr::Var(r2.clone())],
                        ),
                    ),
                ),
            ),
        );
        let _ = inner2;
        let main = pb.fun("main", vec![n], body);
        pb.entry(main);
        let (v, st) = run(pb.finish(), 10);
        assert_eq!(v.as_int(), Some(23));
        // One BoxV + one closure allocated; everything freed.
        assert_eq!(st.allocations, 2);
    }

    /// A recursive list build-and-sum program — enough steps and live
    /// heap to make budgeted suspension interesting.
    fn list_sum_compiled() -> Compiled {
        let mut pb = ProgramBuilder::new();
        let (_, cs) = pb.data("list", &[("Nil", 0), ("Cons", 2)]);
        let (nil, cons) = (cs[0], cs[1]);

        // build(n) = if n < 1 then Nil else Cons(n, build(n - 1))
        let n = pb.fresh("n");
        let build = pb.declare("build", vec![n.clone()]);
        let c = pb.fresh("c");
        let t = pb.fresh("t");
        let body = Expr::let_(
            c.clone(),
            Expr::Prim(PrimOp::Lt, vec![Expr::Var(n.clone()), Expr::int(1)]),
            ite(
                c.clone(),
                con(nil, vec![]),
                Expr::let_(
                    t.clone(),
                    Expr::Call(
                        build,
                        vec![Expr::Prim(
                            PrimOp::Sub,
                            vec![Expr::Var(n.clone()), Expr::int(1)],
                        )],
                    ),
                    con(cons, vec![Expr::Var(n.clone()), Expr::Var(t.clone())]),
                ),
            ),
        );
        pb.set_body(build, body);

        // sum(xs) = match xs { Nil -> 0; Cons(h, t) -> h + sum(t) }
        let xs = pb.fresh("xs");
        let sum = pb.declare("sum", vec![xs.clone()]);
        let h = pb.fresh("h");
        let t2 = pb.fresh("t2");
        let r = pb.fresh("r");
        let body = Expr::Match {
            scrutinee: xs.clone(),
            arms: vec![
                arm0(nil, Expr::int(0)),
                arm(
                    cons,
                    vec![h.clone(), t2.clone()],
                    Expr::let_(
                        r.clone(),
                        Expr::Call(sum, vec![Expr::Var(t2.clone())]),
                        Expr::Prim(
                            PrimOp::Add,
                            vec![Expr::Var(h.clone()), Expr::Var(r.clone())],
                        ),
                    ),
                ),
            ],
            default: None,
        };
        pb.set_body(sum, body);

        let m = pb.fresh("m");
        let l = pb.fresh("l");
        let body = Expr::let_(
            l.clone(),
            Expr::Call(build, vec![Expr::Var(m.clone())]),
            Expr::Call(sum, vec![Expr::Var(l.clone())]),
        );
        let main = pb.fun("main", vec![m], body);
        pb.entry(main);
        let p = Pipeline::new(PassConfig::perceus())
            .run(pb.finish())
            .unwrap();
        compile(&p).unwrap()
    }

    /// Chopping a run into fixed budgets suspends (at auditable points)
    /// and resumes to the identical result and bit-identical stats.
    #[test]
    fn budgeted_legs_match_uninterrupted_run_exactly() {
        let compiled = list_sum_compiled();

        let mut m = Machine::new(&compiled, ReclaimMode::Rc, RunConfig::default());
        let v = m.run_entry(vec![Value::Int(50)]).unwrap();
        m.drop_result(v).unwrap();
        assert_eq!(m.heap.live_blocks(), 0);
        let uninterrupted = m.heap.stats;

        let mut m = Machine::new(&compiled, ReclaimMode::Rc, RunConfig::default());
        let mut exec = m.start_entry(vec![Value::Int(50)]).unwrap();
        let mut suspensions = 0u64;
        let v = loop {
            match exec.run(&mut m, Some(97)).unwrap() {
                StepOutcome::Done(v) => break v,
                StepOutcome::Suspended { steps_used, .. } => {
                    suspensions += 1;
                    assert_eq!(steps_used, m.heap.stats.steps);
                    // The suspension-point invariant: the parked state
                    // is garbage-free and fully auditable.
                    let roots = exec.root_addrs(&m.heap);
                    crate::audit::check_heap(&m.heap, &roots).expect("suspension audit");
                }
            }
        };
        assert!(suspensions > 2, "the budget must actually bite");
        m.drop_result(v).unwrap();
        assert_eq!(m.heap.live_blocks(), 0, "garbage-free after resume");
        assert_eq!(v.as_int(), Some(50 * 51 / 2));
        assert_eq!(m.heap.stats, uninterrupted, "bit-identical schedule");
    }

    /// A suspended execution is a checkpoint that borrows nothing: park
    /// it with its heap, audit it while parked, then run it on a new
    /// machine for a *clone* of the program — positions are `pc`s, so
    /// the clone is as good as the original and the schedule is
    /// bit-identical. A machine for another program is refused.
    #[test]
    fn checkpoint_resumes_against_a_clone_but_not_another_program() {
        let compiled = list_sum_compiled();
        let mut m = Machine::new(&compiled, ReclaimMode::Rc, RunConfig::default());
        let v = m.run_entry(vec![Value::Int(40)]).unwrap();
        m.drop_result(v).unwrap();
        let uninterrupted = m.heap.stats;

        let mut m = Machine::new(&compiled, ReclaimMode::Rc, RunConfig::default());
        let mut exec = m.start_entry(vec![Value::Int(40)]).unwrap();
        let StepOutcome::Suspended { .. } = exec.run(&mut m, Some(200)).unwrap() else {
            panic!("a 200-step budget must suspend this program");
        };
        let heap = m.into_heap();
        let roots = exec.root_addrs(&heap);
        crate::audit::check_heap(&heap, &roots).expect("parked audit");

        // Structurally the same program, compiled separately: another
        // identity, so its pcs are not trusted to mean the same.
        let other = list_sum_compiled();
        assert_ne!(other.uid(), compiled.uid());
        let mut wrong = Machine::new(&other, ReclaimMode::Rc, RunConfig::default());
        let err = exec.run(&mut wrong, Some(500)).unwrap_err();
        assert!(matches!(err, RuntimeError::Internal(_)), "{err}");
        assert!(
            !exec.is_finished(),
            "a refused resume leaves the checkpoint intact"
        );

        let clone = compiled.clone();
        assert_eq!(clone.uid(), compiled.uid());
        drop(compiled);
        let mut m = Machine::with_heap(&clone, heap, RunConfig::default());
        let v = loop {
            match exec.run(&mut m, Some(500)).unwrap() {
                StepOutcome::Done(v) => break v,
                StepOutcome::Suspended { .. } => {}
            }
        };
        assert_eq!(v.as_int(), Some(40 * 41 / 2));
        m.drop_result(v).unwrap();
        assert_eq!(m.heap.live_blocks(), 0);
        assert_eq!(m.heap.stats, uninterrupted, "bit-identical schedule");
    }

    /// Compiles a source under Perceus.
    fn compile_src(src: &str) -> Compiled {
        let p = perceus_lang::compile_str(src).unwrap();
        compile(&Pipeline::new(PassConfig::perceus()).run(p).unwrap()).unwrap()
    }

    /// The suspensions of an execution of `main(n)` in legs of `budget`
    /// steps, each as `(live_words, frame records, value-stack slots, pc)`.
    fn suspensions(c: &Compiled, n: i64, budget: u64, legs: usize) -> Vec<(u64, usize, usize, Pc)> {
        let mut m = Machine::new(c, ReclaimMode::Rc, RunConfig::default());
        let mut exec = m.start_entry(vec![Value::Int(n)]).unwrap();
        let mut out = Vec::new();
        while out.len() < legs {
            match exec.run(&mut m, Some(budget)).unwrap() {
                StepOutcome::Suspended { live_words, .. } => {
                    let pc = exec.pc.unwrap();
                    out.push((live_words, exec.frames.len(), exec.stack.len(), pc));
                }
                StepOutcome::Done(_) => break,
            }
        }
        out
    }

    /// In `f(n) = 1 + f(n - 1)` no slot is live across the call: a level
    /// of the recursion costs one frame record and no value-stack slot,
    /// so suspensions k levels apart differ in `live_words` by exactly k.
    #[test]
    fn a_level_of_recursion_costs_one_frame_record_and_no_stack() {
        let c = compile_src(
            "fun f(n: int): int { if n == 0 then 0 else 1 + f(n - 1) }
             fun main(n: int): int { f(n) }",
        );
        let f = &c.funs[c.find_fun("f").unwrap().0 as usize];
        let sites: Vec<_> = (c.code.sites.iter()).map(|s| (s.keep, s.window)).collect();
        assert_eq!(sites, [(0, f.nslots as u32)], "one call site, nothing kept");
        let seen = suspensions(&c, 1_000_000, 1_000, 5);
        assert_eq!(seen.len(), 5);
        for w in seen.windows(2) {
            let k = w[1].1 - w[0].1;
            assert!(k > 100, "{seen:?}");
            assert_eq!(w[1].0 - w[0].0, k as u64, "{seen:?}");
            assert_eq!(w[1].2, f.nslots, "the stack holds f's window only");
        }
    }

    /// `build` and `map` in the suite's `map` are loops (tail recursion
    /// modulo cons): a run reserves as much value stack and as many
    /// frame records for a list of 100 000 cells as for one of 100.
    #[test]
    fn constructor_recursion_reserves_the_same_stack_at_any_length() {
        let path = format!("{}/../suite/programs/map.pk", env!("CARGO_MANIFEST_DIR"));
        let c = compile_src(&std::fs::read_to_string(&path).unwrap());
        let trmc: Vec<&str> = (c.funs.iter().filter(|f| f.trmc))
            .map(|f| &*f.name)
            .collect();
        assert_eq!(trmc, ["build", "map"]);
        let reserved = |n: i64| {
            let mut m = Machine::new(&c, ReclaimMode::Rc, RunConfig::default());
            let v = m.run_entry(vec![Value::Int(n)]).unwrap();
            assert_eq!(v.as_int(), Some(n * (n + 1) / 2));
            (m.stack.capacity(), m.frames.capacity())
        };
        assert_eq!(reserved(100), reserved(100_000));
    }

    /// A compound right-hand side goes on at its `Enter`'s body by its
    /// join: suspended anywhere inside one, a run has no frame record.
    #[test]
    fn a_compound_right_hand_side_pushes_no_frame_record() {
        let c = compile_src(
            "fun main(n: int): int {
               val k = if n > 2 then { val t = n * 2
                                       t + 1 } else n
               k + n
             }",
        );
        let rhs = (c.code.instrs.iter().enumerate())
            .find_map(|(pc, i)| match i {
                Instr::Enter { body, .. } => Some(pc as Pc + 1..*body),
                _ => None,
            })
            .expect("a compound right-hand side");
        let seen = suspensions(&c, 5, 1, usize::MAX);
        assert!(seen.iter().any(|s| rhs.contains(&s.3)), "{seen:?}");
        assert!(seen.iter().all(|s| s.1 == 0), "{seen:?}");
    }

    /// Singleton constructors dispatch without touching the heap.
    #[test]
    fn singleton_match_never_allocates() {
        let mut pb = ProgramBuilder::new();
        let (_, cs) = pb.data("tri", &[("L", 0), ("M", 0), ("R", 0)]);
        let n = pb.fresh("n");
        let c = pb.fresh("c");
        let s = pb.fresh("s");
        let body = Expr::let_(
            c.clone(),
            Expr::Prim(PrimOp::Lt, vec![Expr::Var(n.clone()), Expr::int(0)]),
            Expr::let_(
                s.clone(),
                ite(c.clone(), con(cs[0], vec![]), con(cs[2], vec![])),
                Expr::Match {
                    scrutinee: s.clone(),
                    arms: vec![
                        arm0(cs[0], Expr::int(-1)),
                        arm0(cs[1], Expr::int(0)),
                        arm0(cs[2], Expr::int(1)),
                    ],
                    default: None,
                },
            ),
        );
        let main = pb.fun("main", vec![n], body);
        pb.entry(main);
        let (v, st) = run(pb.finish(), 7);
        assert_eq!(v.as_int(), Some(1));
        assert_eq!(st.allocations, 0);
        assert_eq!(st.rc_ops(), 0, "singletons cost nothing");
    }
}
