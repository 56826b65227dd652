//! Backend compilation: core IR → slot-resolved executable code.
//!
//! Variables become dense frame slots (the moral equivalent of Koka
//! compiling to C locals), lambdas are lifted into a code table, and
//! atoms are pre-evaluated into immediate [`Value`]s where possible.
//!
//! The result, [`Code`], is the one executable form of a program: one
//! [`Instr`] per node the machine charges a step for, in one vector
//! shared by every function and lambda, with operand lists in a pool
//! beside it. [`compile`] produces it in a single walk over the core
//! [`Expr`]; the abstract machine in [`crate::machine`] executes it, so
//! a position in a running program is a plain [`Pc`], and the native
//! emitter (`perceus-codegen`) reads the same instructions.
//!
//! Slots are packed by liveness: nothing dead keeps a slot (Defn. 1
//! applied to frames). The walk gives every binder a virtual slot of its
//! own. Then, per body, one backward walk over its instructions finds
//! what is live at each, and one forward walk follows every path and
//! gives each binder, where it is defined, the lowest frame slot that
//! holds no variable live there. So a frame is only as large as the most
//! values live at one time. A binder is defined
//!
//! * for parameters and captures: on entry, in slots `0..k`;
//! * for a `let` whose right-hand side is one instruction, and for the
//!   token of a `drop-reuse`: after that instruction has read its
//!   operands, so `val y = x + 1` may put `y` in the slot of an `x` that
//!   dies there;
//! * for any other `let`: when the right-hand side's value arrives at
//!   the body, so the right-hand side's temporaries may use its slot;
//! * for match binders: on entry to their arm, so they may take the
//!   scrutinee's slot when the arm does not use it (the arm is chosen
//!   before any binder is written).
//!
//! The code is tree-shaped and each virtual slot has one definition, so
//! this greedy order needs no more slots than the most variables live at
//! any definition. The same forward walk is the safety net: it tracks
//! which variable each slot holds on the path it follows and rejects any
//! read of a slot that holds another, so a liveness bug is a compile
//! error, never a wrong value.
//!
//! Every continuation is resolved here too. The instructions that end a
//! compound right-hand side deliver to a join that names its
//! [`Instr::Enter`]. Each non-tail call has a [`CallSite`] holding where
//! its value goes and where the caller goes on, and how many of the
//! caller's slots stay across the call: one more than the highest slot
//! live where it goes on, read from the same live sets. A pending call
//! keeps nothing dead either.
//!
//! A function that recurses under a constructor, `C(…, f(…))` in tail
//! position, and makes no tail call of another function, is compiled
//! as a loop that builds its result top down (tail recursion modulo
//! cons, [`CodeFun::trmc`]): the constructor comes first, linked into a
//! context of two slots at the top of the window, and the call is a
//! loop iteration. See docs/RUNTIME.md.

use crate::error::RuntimeError;
use crate::heap::LamId;
use crate::value::Value;
use perceus_core::ir::expr::{Expr, Lambda, Lit, PrimOp};
use perceus_core::ir::{CtorId, FunId, Program, TypeTable, Var};
use std::sync::Arc;

/// A frame slot index.
pub type Slot = u32;

/// A pre-resolved atom: either a slot read or an immediate value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Atom {
    /// Read the value in a frame slot.
    Slot(Slot),
    /// An immediate (literal, global, or singleton constructor).
    Const(Value),
}

/// A position in [`Code::instrs`].
pub type Pc = u32;

/// "No position": a match without a default arm.
pub const NO_PC: Pc = u32::MAX;

/// "No slot": a constructor field a match arm does not bind.
pub const NO_SLOT: Slot = u32::MAX;

/// Where an instruction's value goes. One word: a frame slot, a join, a
/// call site, or one of five marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dst(u32);

impl Dst {
    /// Result of the function: a call here is a tail call.
    pub const TAIL: Dst = Dst(u32::MAX);
    /// Evaluated for effect (the left side of a `Seq`).
    pub const DISCARD: Dst = Dst(u32::MAX - 1);
    /// Result of a function compiled with tail recursion modulo cons
    /// ([`CodeFun::trmc`]): the value fills the hole of the function's
    /// context and its root is returned — or, while the context is
    /// empty, the value itself.
    pub const FILL: Dst = Dst(u32::MAX - 2);
    /// A constructor at a site of tail recursion modulo cons: the cell,
    /// built with a Unit placeholder in its last field, is linked into
    /// the context and becomes its hole; the next instruction runs.
    pub const LINK: Dst = Dst(u32::MAX - 3);
    /// A self call in tail position of a function compiled with tail
    /// recursion modulo cons: a loop iteration that keeps the context.
    pub const LOOP: Dst = Dst(u32::MAX - 4);
    /// The top two bits say which kind of destination this is.
    const KIND: u32 = 3 << 30;
    const JOIN: u32 = 1 << 30;
    const SITE: u32 = 2 << 30;

    /// Store into a frame slot (a `Let` binder).
    pub fn slot(s: Slot) -> Dst {
        debug_assert!(s < Dst::JOIN);
        Dst(s)
    }

    /// The slot to store into, if this is one.
    pub fn as_slot(self) -> Option<Slot> {
        (self.0 < Dst::JOIN).then_some(self.0)
    }

    /// The end of a compound right-hand side: the value goes where the
    /// [`Instr::Enter`] at `enter` says, and its `body` runs next.
    fn join(enter: usize) -> Result<Dst, RuntimeError> {
        Dst::tagged(Dst::JOIN, enter)
    }

    /// The [`Instr::Enter`] this joins, if this is a join.
    pub fn as_join(self) -> Option<Pc> {
        (self.0 & Dst::KIND == Dst::JOIN).then_some(self.0 & !Dst::KIND)
    }

    /// A non-tail call's destination: its record in [`Code::sites`].
    fn site(i: usize) -> Result<Dst, RuntimeError> {
        Dst::tagged(Dst::SITE, i)
    }

    /// The index of the call site in [`Code::sites`], if this is one.
    pub fn as_site(self) -> Option<u32> {
        (self.0 & Dst::KIND == Dst::SITE).then_some(self.0 & !Dst::KIND)
    }

    fn tagged(kind: u32, n: usize) -> Result<Dst, RuntimeError> {
        match u32::try_from(n) {
            Ok(n) if n < Dst::JOIN => Ok(Dst(kind | n)),
            _ => Err(too_large()),
        }
    }

    /// Renames the slot this is, if it is one.
    fn rename(&mut self, f: impl Fn(Slot) -> Slot) {
        if let Some(s) = self.as_slot() {
            self.0 = f(s);
        }
    }

    /// True for [`Dst::TAIL`], [`Dst::FILL`] and [`Dst::LOOP`]: the
    /// instruction ends the function's body.
    pub fn ends_body(self) -> bool {
        self == Dst::TAIL || self == Dst::FILL || self == Dst::LOOP
    }

    /// True for the marks that end the body, and for joins: the
    /// instruction ends its expression and its value goes to a
    /// continuation.
    pub fn is_terminal(self) -> bool {
        self.ends_body() || self.as_join().is_some()
    }
}

/// What a pending non-tail call goes on with, resolved when the code is
/// compiled: one record per call site, named by the call's destination
/// ([`Dst::as_site`]) and by the frame record of the pending call, so a
/// return is one load.
#[derive(Debug, Clone, Copy)]
pub struct CallSite {
    /// Where the value goes in the caller's window: a slot or
    /// [`Dst::DISCARD`].
    pub dst: Dst,
    /// The caller's instruction to go on at.
    pub next: Pc,
    /// The caller's window keeps its slots `0..keep` across the call:
    /// one more than the highest slot live after it. The callee's
    /// window opens right above them.
    pub keep: u32,
    /// The caller's window size, restored when the call returns.
    pub window: u32,
}

/// An operand in [`Code::pool`]: a frame slot, or an index into
/// [`Code::consts`] when the top bit is set. [`Code::atom`] decodes it.
#[derive(Debug, Clone, Copy)]
pub struct Opnd(u32);

impl Opnd {
    const CONST_BIT: u32 = 1 << 31;
}

/// A run of entries in one of [`Code`]'s side tables.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// The index range the span covers.
    pub fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    /// Number of entries.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// True when the span covers nothing.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// One machine instruction: one core [`Expr`] node that the machine
/// visits as its current expression, and so one step. A `Let` or `Seq` whose
/// right-hand side is a call or cannot call is a single instruction —
/// that right-hand side with the binder (or [`Dst::DISCARD`]) as its
/// destination; any other right-hand side gets an [`Instr::Enter`] and
/// instructions of its own. Unless stated otherwise, the instruction at
/// `pc + 1` runs next.
#[derive(Debug, Clone, Copy)]
pub enum Instr {
    /// Produce an operand's value.
    Atom { dst: Dst, a: Opnd },
    /// Primitive application.
    Prim { dst: Dst, op: PrimOp, args: Span },
    /// Closure allocation; `captures` are slot operands.
    MkClosure {
        dst: Dst,
        lam: LamId,
        captures: Span,
    },
    /// Fresh constructor allocation.
    Con { dst: Dst, ctor: CtorId, args: Span },
    /// Constructor allocation into a reuse token (`Code::reuse[site]`).
    ConReuse { dst: Dst, site: u32 },
    /// `&x` — claim the cell as a token.
    TokenOf { dst: Dst, var: Slot },
    /// The null token.
    NullToken { dst: Dst },
    /// Runtime failure with message `Code::aborts[msg]`. `end` is where
    /// the expression it stands in ends ([`Dst::TAIL`] or a join): slot
    /// packing keeps live what would run after it.
    Abort { msg: u32, end: Dst },
    /// Direct call of a top-level function. `dst` is [`Dst::TAIL`] or
    /// the call's site ([`Dst::as_site`]).
    Call { dst: Dst, fun: FunId, args: Span },
    /// Application of a closure or global value; `dst` as for `Call`.
    App { dst: Dst, fun: Opnd, args: Span },
    /// A let right-hand side (or statement) that is itself compound: its
    /// code follows, and each instruction that ends it delivers to the
    /// join of this `Enter` ([`Dst::as_join`] names its pc): the value
    /// goes to `dst`, a slot or [`Dst::DISCARD`], and `body` runs next.
    /// Nothing is pushed: the continuation is resolved here.
    Enter { dst: Dst, body: Pc },
    /// Flat match on a slot: jump to the arm (in `Code::arms`) for the
    /// value's constructor, binding its fields, else to `default`.
    Match {
        scrut: Slot,
        arms: Span,
        default: Pc,
    },
    /// The uniqueness test of Fig. 1c/1f: fall through when unique, jump
    /// to `shared` otherwise.
    IsUnique { var: Slot, shared: Pc },
    /// `dup`.
    Dup(Slot),
    /// `drop`.
    Drop(Slot),
    /// `val token = drop-reuse var`.
    DropReuse { var: Slot, token: Slot },
    /// Specialized cell free (unique fast path).
    Free(Slot),
    /// Specialized decrement (shared slow path).
    DecRef(Slot),
    /// Release an unused reuse token.
    DropToken(Slot),
}

// Every instruction executed is one copy out of the code.
const _: () = assert!(std::mem::size_of::<Instr>() == 20);

impl Instr {
    /// True for the instructions between which a state need not be
    /// garbage-free — Theorem 4's side condition ("not at a dup/drop
    /// operation"). The machine never suspends or audits before one.
    ///
    /// `TokenOf` belongs here when it ends an expression: the unfused
    /// drop-reuse expansion is `drop child…; &x` (Fig. 1f), and between
    /// the child drops and the claim the cell's fields transiently
    /// dangle. The claim itself ends the window (claimed cells' fields
    /// are not treated as references).
    pub fn is_rc(&self) -> bool {
        match self {
            Instr::Dup(_)
            | Instr::Drop(_)
            | Instr::DropReuse { .. }
            | Instr::Free(_)
            | Instr::DecRef(_)
            | Instr::DropToken(_)
            | Instr::IsUnique { .. } => true,
            Instr::TokenOf { dst, .. } | Instr::NullToken { dst } => dst.is_terminal(),
            _ => false,
        }
    }
}

/// One arm of a flat match.
#[derive(Debug, Clone, Copy)]
pub struct Arm {
    /// Constructor matched (singletons compare by id, blocks by tag).
    pub ctor: CtorId,
    /// First instruction of the arm body.
    pub body: Pc,
    /// Destination slot per field in `Code::binders` ([`NO_SLOT`] =
    /// field not bound).
    pub binders: Span,
}

/// The operands of an [`Instr::ConReuse`].
#[derive(Debug, Clone)]
pub struct ReuseSite {
    /// Constructor built.
    pub ctor: CtorId,
    /// Field operands in `Code::pool`.
    pub args: Span,
    /// Slot holding the reuse token.
    pub token: Slot,
    /// The reuse-specialization mask (§2.5).
    pub skip: Arc<[bool]>,
}

/// The flat executable form of a whole program.
#[derive(Debug, Clone, Default)]
pub struct Code {
    /// Every function's and lambda's instructions; [`CodeFun::entry`]
    /// and [`CodeLam::entry`] point in.
    pub instrs: Vec<Instr>,
    /// Operand lists of calls, primitives, constructors and closures.
    pub pool: Vec<Opnd>,
    /// Immediate values that operands name.
    pub consts: Vec<Value>,
    /// Arms of every match, one run per [`Instr::Match`].
    pub arms: Vec<Arm>,
    /// Binder slots of every arm.
    pub binders: Vec<Slot>,
    /// Reuse sites.
    pub reuse: Vec<ReuseSite>,
    /// Non-tail call sites.
    pub sites: Vec<CallSite>,
    /// Abort messages.
    pub aborts: Vec<Arc<str>>,
}

/// A compiled top-level function.
#[derive(Debug, Clone)]
pub struct CodeFun {
    /// Source name.
    pub name: Arc<str>,
    /// Parameter count (parameters live in slots `0..arity`).
    pub arity: usize,
    /// Frame slots: the most values live at one time, and the two of
    /// the context when `trmc` is set.
    pub nslots: usize,
    /// First instruction of the body.
    pub entry: Pc,
    /// Compiled with tail recursion modulo cons: the top two slots of
    /// the window are the context, `root` and `hole`, and every call
    /// site keeps the whole window.
    pub trmc: bool,
}

/// A compiled lambda. Captures live in slots `0..ncaptures`, parameters
/// in `ncaptures..ncaptures+nparams`.
#[derive(Debug, Clone)]
pub struct CodeLam {
    /// Capture count.
    pub ncaptures: usize,
    /// Parameter count.
    pub nparams: usize,
    /// Frame slots: the most values live at one time.
    pub nslots: usize,
    /// First instruction of the body.
    pub entry: Pc,
}

/// A fully compiled program, ready for the machine.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Type table (for constructor arities and diagnostics).
    pub types: TypeTable,
    /// Functions, indexed by `FunId`.
    pub funs: Vec<CodeFun>,
    /// Lambdas, indexed by `LamId`.
    pub lambdas: Vec<CodeLam>,
    /// The entry point.
    pub entry: Option<FunId>,
    /// Source byte spans of the functions, indexed like `funs` (empty
    /// for builder-made programs). Carried verbatim from
    /// [`Program::fun_spans`] so profiler reports can point at source.
    pub fun_spans: Vec<(u32, u32)>,
    /// Per-function borrow masks (indexed like `funs`), carried from
    /// the borrow-inference pass: `fun_borrows[f][i]` is true when
    /// parameter `i` of function `f` is *borrowed* — the function never
    /// consumes it, so a caller that retains ownership can pass a
    /// shared value without any `dup`/`drop` at all (the zero-RMW
    /// snapshot-read calling convention). Empty masks mean "all owned"
    /// (borrow inference off).
    pub fun_borrows: Vec<Box<[bool]>>,
    /// The flat code of every function and lambda.
    pub code: Code,
    /// Identity of this program (see [`Compiled::uid`]).
    uid: u64,
}

impl Compiled {
    /// Looks up a function by name.
    pub fn find_fun(&self, name: &str) -> Option<FunId> {
        self.funs
            .iter()
            .position(|f| &*f.name == name)
            .map(|i| FunId(i as u32))
    }

    /// The borrow mask of `f`'s parameters, if borrow inference ran
    /// (`None` means every parameter is owned).
    pub fn borrow_mask(&self, f: FunId) -> Option<&[bool]> {
        self.fun_borrows
            .get(f.0 as usize)
            .filter(|m| !m.is_empty())
            .map(|m| &m[..])
    }

    /// True when parameter `i` of `f` is borrowed (never consumed by
    /// the function — callers retain ownership across the call).
    pub fn param_borrowed(&self, f: FunId, i: usize) -> bool {
        self.borrow_mask(f).is_some_and(|m| m.get(i) == Some(&true))
    }

    /// A process-unique id for the program [`compile`] produced, kept by
    /// clones: a suspended [`crate::machine::Execution`] stores positions
    /// as [`Pc`]s, which mean the same in every copy, and uses the id to
    /// refuse a machine that runs some other program.
    pub fn uid(&self) -> u64 {
        self.uid
    }
}

fn fresh_uid() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Compiles a (pass-processed) core program to executable form.
pub fn compile(p: &Program) -> Result<Compiled, RuntimeError> {
    let mut lower = Lower::new(p);
    let mut funs = Vec::with_capacity(p.funs.len());
    for (id, f) in p.funs() {
        let who = || format!("function `{}`", f.name);
        let trmc = trmc_sites(id, &f.body).is_some_and(|n| n > 0);
        let (entry, nslots) = lower.body(f.params.iter(), &f.body, trmc.then_some(id), &who)?;
        funs.push(CodeFun {
            name: f.name.clone(),
            arity: f.params.len(),
            nslots,
            entry,
            trmc,
        });
    }
    // Lambda bodies follow the functions, in `LamId` order. A lambda is
    // numbered when the walk meets it, so one found inside a lambda's
    // body takes the next id after all those known so far.
    let mut lambdas = Vec::new();
    while let Some(&lam) = lower.pending.get(lambdas.len()) {
        let id = lambdas.len();
        let who = || format!("lambda #{id}");
        let params = lam.captures.iter().chain(&lam.params);
        let (entry, nslots) = lower.body(params, &lam.body, None, &who)?;
        lambdas.push(CodeLam {
            ncaptures: lam.captures.len(),
            nparams: lam.params.len(),
            nslots,
            entry,
        });
    }
    // A daemon caches hundreds of compiled programs: keep no growth slack.
    let mut code = lower.code;
    code.instrs.shrink_to_fit();
    code.pool.shrink_to_fit();
    code.consts.shrink_to_fit();
    code.arms.shrink_to_fit();
    code.binders.shrink_to_fit();
    code.reuse.shrink_to_fit();
    code.sites.shrink_to_fit();
    code.aborts.shrink_to_fit();
    Ok(Compiled {
        types: p.types.clone(),
        funs,
        lambdas,
        entry: p.entry,
        fun_spans: p.fun_spans.clone(),
        fun_borrows: p
            .funs()
            .map(|(id, _)| {
                p.borrow_mask(id)
                    .map(|m| m.to_vec().into_boxed_slice())
                    .unwrap_or_default()
            })
            .collect(),
        code,
        uid: fresh_uid(),
    })
}

fn too_large() -> RuntimeError {
    RuntimeError::Internal("program too large for its code offsets".into())
}

/// A constructor or lambda id, refused unless it fits the bits a block
/// header holds for it ([`crate::heap::ID_LIMIT`]).
fn block_id(id: u32) -> Result<u32, RuntimeError> {
    (id < crate::heap::ID_LIMIT)
        .then_some(id)
        .ok_or_else(too_large)
}

/// A table index as the 31 bits an [`Opnd`] leaves for it.
fn index(n: usize) -> Result<u32, RuntimeError> {
    u32::try_from(n)
        .ok()
        .filter(|n| *n < Opnd::CONST_BIT)
        .ok_or_else(too_large)
}

fn span_from(start: usize, end: usize) -> Result<Span, RuntimeError> {
    let (start, end) = (index(start)?, index(end)?);
    Ok(Span {
        start,
        len: end - start,
    })
}

impl Opnd {
    /// The slot the operand reads, unless it is an immediate.
    fn slot(self) -> Option<Slot> {
        (self.0 & Opnd::CONST_BIT == 0).then_some(self.0)
    }
}

impl Code {
    /// What an operand names: a slot, or the immediate value itself.
    pub fn atom(&self, o: Opnd) -> Atom {
        match o.slot() {
            Some(s) => Atom::Slot(s),
            None => Atom::Const(self.consts[(o.0 & !Opnd::CONST_BIT) as usize]),
        }
    }

    /// What `ins` reads and writes, and where control goes on from it.
    fn step(&self, ins: &Instr) -> Step {
        let step = |read: Option<Slot>, args: Span, dst: Dst| {
            // A non-tail call goes on as its site says.
            let dst = dst.as_site().map_or(dst, |i| self.sites[i as usize].dst);
            Step {
                read: read.unwrap_or(NO_SLOT),
                args,
                def: dst.as_slot().unwrap_or(NO_SLOT),
                next: match dst.as_join() {
                    Some(enter) => Next::Join(enter),
                    None if dst.ends_body() => Next::Tail,
                    None => Next::Pc,
                },
            }
        };
        let none = Span { start: 0, len: 0 };
        let rc = |var: Slot| step(Some(var), none, Dst::DISCARD);
        match *ins {
            Instr::Atom { dst, a } => step(a.slot(), none, dst),
            Instr::Prim { dst, args, .. }
            | Instr::Con { dst, args, .. }
            | Instr::Call { dst, args, .. }
            | Instr::MkClosure {
                dst,
                captures: args,
                ..
            } => step(None, args, dst),
            Instr::App { dst, fun, args } => step(fun.slot(), args, dst),
            Instr::ConReuse { dst, site } => {
                let site = &self.reuse[site as usize];
                step(Some(site.token), site.args, dst)
            }
            Instr::TokenOf { dst, var } => step(Some(var), none, dst),
            Instr::NullToken { dst } => step(None, none, dst),
            Instr::Dup(var)
            | Instr::Drop(var)
            | Instr::Free(var)
            | Instr::DecRef(var)
            | Instr::DropToken(var) => rc(var),
            Instr::DropReuse { var, token } => step(Some(var), none, Dst::slot(token)),
            Instr::IsUnique { var, shared } => Step {
                next: Next::IsUnique(shared),
                ..rc(var)
            },
            Instr::Match {
                scrut,
                arms,
                default,
            } => Step {
                next: Next::Match(arms, default),
                ..rc(scrut)
            },
            Instr::Enter { dst, body } => Step {
                next: Next::Enter(dst, body),
                ..step(None, none, Dst::DISCARD)
            },
            Instr::Abort { end, .. } => Step {
                next: Next::Abort(end.as_join()),
                ..step(None, none, Dst::DISCARD)
            },
        }
    }

    /// Calls `f` with every slot `ins` reads (a match's scrutinee, not
    /// the binders its arms write).
    #[cfg(test)]
    fn reads(&self, ins: &Instr, mut f: impl FnMut(Slot)) {
        let step = self.step(ins);
        if step.read != NO_SLOT {
            f(step.read);
        }
        self.pool[step.args.range()]
            .iter()
            .filter_map(|o| o.slot())
            .for_each(f);
    }

    /// Where the next body's entries will begin in the tables that name
    /// slots.
    fn ends(&self) -> Ends {
        Ends {
            instrs: self.instrs.len(),
            pool: self.pool.len(),
            binders: self.binders.len(),
            reuse: self.reuse.len(),
            sites: self.sites.len(),
        }
    }

    /// Renames through `phys` every slot of the body whose entries begin
    /// at `from`: it is the last body, so they run to each table's end.
    fn rename(&mut self, from: Ends, phys: &[Slot]) {
        let f = |s: Slot| phys[s as usize];
        for o in &mut self.pool[from.pool..] {
            if let Some(s) = o.slot() {
                o.0 = f(s);
            }
        }
        for b in &mut self.binders[from.binders..] {
            if *b != NO_SLOT {
                *b = f(*b);
            }
        }
        for site in &mut self.reuse[from.reuse..] {
            site.token = f(site.token);
        }
        for ins in &mut self.instrs[from.instrs..] {
            match ins {
                Instr::Atom { dst, a } => {
                    if let Some(s) = a.slot() {
                        a.0 = f(s);
                    }
                    dst.rename(f);
                }
                Instr::Prim { dst, .. }
                | Instr::MkClosure { dst, .. }
                | Instr::Con { dst, .. }
                | Instr::ConReuse { dst, .. }
                | Instr::NullToken { dst }
                | Instr::Call { dst, .. }
                | Instr::Enter { dst, .. } => dst.rename(f),
                Instr::App { dst, fun, .. } => {
                    if let Some(s) = fun.slot() {
                        fun.0 = f(s);
                    }
                    dst.rename(f);
                }
                Instr::TokenOf { dst, var } => {
                    dst.rename(f);
                    *var = f(*var);
                }
                Instr::DropReuse { var, token } => {
                    *var = f(*var);
                    *token = f(*token);
                }
                Instr::Match { scrut: var, .. }
                | Instr::IsUnique { var, .. }
                | Instr::Dup(var)
                | Instr::Drop(var)
                | Instr::Free(var)
                | Instr::DecRef(var)
                | Instr::DropToken(var) => *var = f(*var),
                Instr::Abort { .. } => {}
            }
        }
    }
}

/// The lengths of the tables of [`Code`] that name slots.
#[derive(Clone, Copy)]
struct Ends {
    instrs: usize,
    pool: usize,
    binders: usize,
    reuse: usize,
    sites: usize,
}

/// True for the expressions that are one instruction wherever they
/// stand: a call, and everything that cannot call. As a `Let`/`Seq`
/// right-hand side the machine evaluates them within the `Let`'s own
/// step.
fn is_leaf(e: &Expr) -> bool {
    !matches!(
        e,
        Expr::Let { .. }
            | Expr::Seq(..)
            | Expr::Match { .. }
            | Expr::IsUnique { .. }
            | Expr::Dup(..)
            | Expr::Drop(..)
            | Expr::DropReuse { .. }
            | Expr::Free(..)
            | Expr::DecRef(..)
            | Expr::DropToken(..)
    )
}

/// Tail recursion modulo cons (TRMC): how many sites the tail positions
/// of `e`, in the body of function `f`, hold, or `None` when one of them
/// rules the function out — a tail call of another function or a tail
/// application, which would need a frame to fill the hole after. A
/// function with a site and no such tail is compiled as a loop that
/// builds its result top down (Leijen and Lorenzen, "Tail Recursion
/// Modulo Context", POPL 2023); see docs/RUNTIME.md.
fn trmc_sites(f: FunId, e: &Expr) -> Option<usize> {
    match e {
        Expr::Let { var, rhs, body } if trmc_site(f, var, rhs, body) => Some(1),
        Expr::Let { body, .. } | Expr::Seq(_, body) => trmc_sites(f, body),
        Expr::Match { arms, default, .. } => (arms.iter().map(|a| &a.body))
            .chain(default.as_deref())
            .try_fold(0, |n, e| Some(n + trmc_sites(f, e)?)),
        Expr::IsUnique { unique, shared, .. } => {
            Some(trmc_sites(f, unique)? + trmc_sites(f, shared)?)
        }
        Expr::Dup(_, rest)
        | Expr::Drop(_, rest)
        | Expr::Free(_, rest)
        | Expr::DecRef(_, rest)
        | Expr::DropToken(_, rest)
        | Expr::DropReuse { body: rest, .. } => trmc_sites(f, rest),
        Expr::Call(g, _) => (*g == f).then_some(0),
        Expr::App(..) => None,
        _ => Some(0),
    }
}

/// True for a site of TRMC in tail position: `val var = rhs` where
/// `rhs` ends in a call of `f` that is the last instruction before a
/// constructor whose last field is `var`, which nothing else there
/// reads, and which the constructor writes (no reuse skip).
fn trmc_site(f: FunId, var: &Var, rhs: &Expr, body: &Expr) -> bool {
    let Expr::Con {
        args, reuse, skip, ..
    } = body
    else {
        return false;
    };
    let is_var = |e: &Expr| matches!(e, Expr::Var(v) if v == var);
    match args.split_last() {
        Some((last, rest)) => {
            ends_in_call(f, rhs)
                && is_var(last)
                && !rest.iter().any(is_var)
                && reuse.as_ref() != Some(var)
                && skip.get(rest.len()) != Some(&true)
        }
        None => false,
    }
}

/// True when `rhs` is a call of `f` after straight-line code: lets,
/// statements and RC instructions, which bind nothing the code after
/// `rhs` reads, so a constructor after it may run before the call.
fn ends_in_call(f: FunId, rhs: &Expr) -> bool {
    match rhs {
        Expr::Let { body: rest, .. }
        | Expr::Seq(_, rest)
        | Expr::Dup(_, rest)
        | Expr::Drop(_, rest)
        | Expr::Free(_, rest)
        | Expr::DecRef(_, rest)
        | Expr::DropToken(_, rest)
        | Expr::DropReuse { body: rest, .. } => ends_in_call(f, rest),
        Expr::Call(g, _) => *g == f,
        _ => false,
    }
}

/// The one walk from core IR to instructions: appends a body's code with
/// a virtual slot per binder, then packs those into frame slots.
struct Lower<'p> {
    types: &'p TypeTable,
    code: Code,
    /// Every lambda met so far, indexed by `LamId`; bodies are emitted
    /// after the functions.
    pending: Vec<&'p Lambda>,
    /// The virtual slot of each variable id bound so far in the body
    /// being compiled, [`NO_SLOT`] for every other id.
    ids: Vec<Slot>,
    /// The variable of each virtual slot of that body.
    vars: Vec<&'p Var>,
    /// The function of that body when it is compiled with tail
    /// recursion modulo cons.
    trmc: Option<FunId>,
    /// The constructor of the TRMC site whose right-hand side is being
    /// emitted: it goes before the call the right-hand side ends in.
    site_con: Option<&'p Expr>,
    pack: Pack,
}

impl<'p> Lower<'p> {
    fn new(p: &'p Program) -> Self {
        Lower {
            types: &p.types,
            code: Code::default(),
            pending: Vec::new(),
            ids: vec![NO_SLOT; p.var_gen.peek() as usize],
            vars: Vec::new(),
            trmc: None,
            site_con: None,
            pack: Pack::default(),
        }
    }

    /// Emits one function or lambda body whose frame starts with
    /// `params`, packs its slots, and returns its entry point and frame
    /// size. `trmc` is the function when it is compiled with tail
    /// recursion modulo cons; `who` names the body in an error.
    fn body(
        &mut self,
        params: impl Iterator<Item = &'p Var>,
        body: &'p Expr,
        trmc: Option<FunId>,
        who: &dyn Fn() -> String,
    ) -> Result<(Pc, usize), RuntimeError> {
        let from = self.code.ends();
        self.trmc = trmc;
        let (entry, k) = self.emit(params, body)?;
        let pack = &mut self.pack;
        pack.liveness(&self.code, entry as usize, self.vars.len());
        let nslots = pack.place(&self.code, entry as usize, k, false);
        let nslots = nslots.map_err(|c| {
            let held = match self.vars.get(c.held as usize) {
                Some(v) => format!("{v:?}"),
                None => "no one variable on every path".into(),
            };
            RuntimeError::Internal(format!(
                "slot packing of {}: pc {} reads {:?} from slot {}, which holds {held}",
                who(),
                c.pc,
                self.vars[c.read as usize],
                c.slot
            ))
        })?;
        if let Some(v) = pack.phys.iter().position(|p| *p == NO_SLOT) {
            return Err(RuntimeError::Internal(format!(
                "slot packing of {}: {:?} is never defined",
                who(),
                self.vars[v]
            )));
        }
        // The context of TRMC sits above the packed slots, and every call
        // site keeps it.
        let nslots = nslots + if trmc.is_some() { 2 } else { 0 };
        pack.sites(
            &mut self.code,
            from.sites,
            entry as usize,
            nslots,
            trmc.is_some(),
        );
        self.code.rename(from, &pack.phys);
        Ok((entry, nslots))
    }

    /// Emits a body with virtual slots, `params` in `0..k`; returns its
    /// entry point and `k`.
    fn emit(
        &mut self,
        params: impl Iterator<Item = &'p Var>,
        body: &'p Expr,
    ) -> Result<(Pc, usize), RuntimeError> {
        for v in self.vars.drain(..) {
            self.ids[v.id() as usize] = NO_SLOT;
        }
        self.pack.aborts.clear();
        let entry = self.here()?;
        for v in params {
            let s = self.fresh(v);
            self.scope(v, s);
        }
        let k = self.vars.len();
        let end = if self.trmc.is_some() {
            Dst::FILL
        } else {
            Dst::TAIL
        };
        self.expr(body, end)?;
        Ok((entry, k))
    }

    /// A virtual slot of its own for `v`, which is not in scope yet.
    fn fresh(&mut self, v: &'p Var) -> Slot {
        self.vars.push(v);
        (self.vars.len() - 1) as Slot
    }

    /// Brings `v` into scope as virtual slot `s`.
    fn scope(&mut self, v: &Var, s: Slot) {
        let id = v.id() as usize;
        if id >= self.ids.len() {
            self.ids.resize(id + 1, NO_SLOT);
        }
        self.ids[id] = s;
    }

    fn slot(&self, v: &Var) -> Result<Slot, RuntimeError> {
        (self.ids.get(v.id() as usize).copied())
            .filter(|s| *s != NO_SLOT)
            .ok_or_else(|| RuntimeError::Internal(format!("unresolved variable {v:?}")))
    }

    /// The immediate value of a literal, global or singleton constructor.
    fn immediate(&self, e: &Expr) -> Option<Value> {
        match e {
            Expr::Lit(Lit::Int(i)) => Some(Value::Int(*i)),
            Expr::Lit(Lit::Unit) => Some(Value::Unit),
            Expr::Global(f) => Some(Value::Global(*f)),
            Expr::Con { ctor, args, .. }
                if args.is_empty() && self.types.ctor(*ctor).arity == 0 =>
            {
                Some(Value::Enum(*ctor))
            }
            _ => None,
        }
    }

    fn slot_opnd(&self, v: &Var) -> Result<Opnd, RuntimeError> {
        Ok(Opnd(index(self.slot(v)? as usize)?))
    }

    fn opnd(&mut self, e: &Expr) -> Result<Opnd, RuntimeError> {
        if let Expr::Var(v) = e {
            return self.slot_opnd(v);
        }
        let Some(v) = self.immediate(e) else {
            return Err(RuntimeError::Internal(format!(
                "non-atomic argument (not in ANF): {e:?}"
            )));
        };
        self.constant(v)
    }

    fn constant(&mut self, v: Value) -> Result<Opnd, RuntimeError> {
        let i = index(self.code.consts.len())?;
        self.code.consts.push(v);
        Ok(Opnd(i | Opnd::CONST_BIT))
    }

    fn opnds(&mut self, args: &[Expr]) -> Result<Span, RuntimeError> {
        let start = self.code.pool.len();
        for a in args {
            let o = self.opnd(a)?;
            self.code.pool.push(o);
        }
        span_from(start, self.code.pool.len())
    }

    fn here(&self) -> Result<Pc, RuntimeError> {
        index(self.code.instrs.len())
    }

    /// Emits a node in current-expression position. `end` is where the
    /// expression's own value goes: [`Dst::TAIL`] or a join.
    fn expr(&mut self, e: &'p Expr, end: Dst) -> Result<(), RuntimeError> {
        match e {
            Expr::Let { var, rhs, body }
                if end == Dst::FILL && self.trmc.is_some_and(|f| trmc_site(f, var, rhs, body)) =>
            {
                // A site of TRMC: the right-hand side's code up to its
                // call, then the constructor and the call (see `leaf`).
                // A compound right-hand side's `Enter` is a step that now
                // delivers nothing: it stays, as a step that does nothing.
                if !is_leaf(rhs) {
                    let a = self.constant(Value::Unit)?;
                    let dst = Dst::DISCARD;
                    self.code.instrs.push(Instr::Atom { dst, a });
                }
                self.site_con = Some(body);
                self.expr(rhs, end)
            }
            Expr::Let { var, rhs, body } => {
                // The right-hand side delivers to the binder's slot before
                // the binder is in scope.
                let s = self.fresh(var);
                self.bound(rhs, Dst::slot(s), end)?;
                self.scope(var, s);
                self.expr(body, end)
            }
            Expr::Seq(a, b) => {
                self.bound(a, Dst::DISCARD, end)?;
                self.expr(b, end)
            }
            Expr::Match {
                scrutinee,
                arms,
                default,
            } => {
                let scrut = self.slot(scrutinee)?;
                let at = self.code.instrs.len();
                // The arms of one match are adjacent, so they are laid
                // out before any body (which may hold matches itself).
                let first = self.code.arms.len();
                for arm in arms {
                    if let Some(t) = &arm.reuse_token {
                        return Err(RuntimeError::Internal(format!(
                            "unlowered reuse annotation @{t:?} reached the backend"
                        )));
                    }
                    let start = self.code.binders.len();
                    for b in &arm.binders {
                        let s = b.as_ref().map_or(NO_SLOT, |b| self.fresh(b));
                        self.code.binders.push(s);
                    }
                    self.code.arms.push(Arm {
                        ctor: arm.ctor,
                        body: NO_PC,
                        binders: span_from(start, self.code.binders.len())?,
                    });
                }
                self.code.instrs.push(Instr::Match {
                    scrut,
                    arms: span_from(first, self.code.arms.len())?,
                    default: NO_PC,
                });
                for (i, arm) in arms.iter().enumerate() {
                    self.code.arms[first + i].body = self.here()?;
                    let binders = self.code.arms[first + i].binders;
                    for (b, j) in arm.binders.iter().zip(binders.range()) {
                        if let Some(b) = b {
                            self.scope(b, self.code.binders[j]);
                        }
                    }
                    self.expr(&arm.body, end)?;
                }
                if let Some(d) = default {
                    self.land(at)?;
                    self.expr(d, end)?;
                }
                Ok(())
            }
            Expr::IsUnique {
                var,
                unique,
                shared,
                ..
            } => {
                let at = self.code.instrs.len();
                self.code.instrs.push(Instr::IsUnique {
                    var: self.slot(var)?,
                    shared: NO_PC,
                });
                self.expr(unique, end)?;
                self.land(at)?;
                self.expr(shared, end)
            }
            Expr::Dup(v, rest) => self.then(Instr::Dup(self.slot(v)?), rest, end),
            Expr::Drop(v, rest) => self.then(Instr::Drop(self.slot(v)?), rest, end),
            Expr::Free(v, rest) => self.then(Instr::Free(self.slot(v)?), rest, end),
            Expr::DecRef(v, rest) => self.then(Instr::DecRef(self.slot(v)?), rest, end),
            Expr::DropToken(v, rest) => self.then(Instr::DropToken(self.slot(v)?), rest, end),
            Expr::DropReuse { var, token, body } => {
                let var = self.slot(var)?;
                let s = self.fresh(token);
                self.scope(token, s);
                self.then(Instr::DropReuse { var, token: s }, body, end)
            }
            leaf => self.leaf(leaf, end, end),
        }
    }

    fn then(&mut self, i: Instr, rest: &'p Expr, end: Dst) -> Result<(), RuntimeError> {
        self.code.instrs.push(i);
        self.expr(rest, end)
    }

    /// Emits a `Let`/`Seq` right-hand side delivering to `dst`, in an
    /// expression that ends at `end`.
    fn bound(&mut self, rhs: &'p Expr, dst: Dst, end: Dst) -> Result<(), RuntimeError> {
        if is_leaf(rhs) {
            return self.leaf(rhs, dst, end);
        }
        let at = self.code.instrs.len();
        self.code.instrs.push(Instr::Enter { dst, body: NO_PC });
        self.expr(rhs, Dst::join(at)?)?;
        self.land(at)
    }

    /// Makes the next instruction the jump target of the one at `at`,
    /// which was emitted before its target was known.
    fn land(&mut self, at: usize) -> Result<(), RuntimeError> {
        let pc = self.here()?;
        match &mut self.code.instrs[at] {
            Instr::Match {
                default: target, ..
            }
            | Instr::IsUnique { shared: target, .. }
            | Instr::Enter { body: target, .. } => *target = pc,
            other => {
                return Err(RuntimeError::Internal(format!(
                    "{other:?} has no jump target"
                )))
            }
        }
        Ok(())
    }

    /// The constructor of a site of TRMC, `val t = f(…); C(…, t)`, which
    /// goes right before the call: with a Unit placeholder for `t`, and
    /// linked into the context. Still one instruction, so the steps are
    /// the same.
    fn link(&mut self, con: &'p Expr) -> Result<(), RuntimeError> {
        let Expr::Con {
            ctor,
            args,
            reuse,
            skip,
        } = con
        else {
            return Err(RuntimeError::Internal(format!("TRMC site at {con:?}")));
        };
        let start = self.code.pool.len();
        for a in &args[..args.len() - 1] {
            let o = self.opnd(a)?;
            self.code.pool.push(o);
        }
        let placeholder = self.constant(Value::Unit)?;
        self.code.pool.push(placeholder);
        let args = span_from(start, self.code.pool.len())?;
        let i = self.con(*ctor, args, reuse.as_ref(), skip, Dst::LINK)?;
        self.code.instrs.push(i);
        Ok(())
    }

    /// A constructor of the operands `args`, into the token `reuse` if
    /// there is one.
    fn con(
        &mut self,
        ctor: CtorId,
        args: Span,
        reuse: Option<&Var>,
        skip: &[bool],
        dst: Dst,
    ) -> Result<Instr, RuntimeError> {
        block_id(ctor.0)?;
        let Some(token) = reuse else {
            return Ok(Instr::Con { dst, ctor, args });
        };
        let site = index(self.code.reuse.len())?;
        let token = self.slot(token)?;
        self.code.reuse.push(ReuseSite {
            ctor,
            args,
            token,
            skip: skip.into(),
        });
        Ok(Instr::ConReuse { dst, site })
    }

    /// A non-tail call's site, which goes on as `dst` says, or
    /// [`Dst::TAIL`]/[`Dst::LOOP`]. Slot packing fills in the rest of
    /// the record.
    fn site(&mut self, dst: Dst) -> Result<Dst, RuntimeError> {
        if dst == Dst::TAIL || dst == Dst::LOOP {
            return Ok(dst);
        }
        let site = Dst::site(self.code.sites.len())?;
        self.code.sites.push(CallSite {
            dst,
            next: self.here()? + 1,
            keep: 0,
            window: 0,
        });
        Ok(site)
    }

    /// Emits a call or an expression that cannot call: one instruction,
    /// in an expression that ends at `end`.
    fn leaf(&mut self, e: &'p Expr, dst: Dst, end: Dst) -> Result<(), RuntimeError> {
        // Under TRMC every tail call is a self call (`trmc_sites`), a
        // loop iteration, and the one that ends a site's right-hand side
        // follows its constructor.
        let dst = match e {
            Expr::Call(..) if dst == Dst::FILL => {
                if let Some(con) = self.site_con.take() {
                    self.link(con)?;
                }
                Dst::LOOP
            }
            _ => dst,
        };
        let i = match e {
            Expr::App(fun, args) => Instr::App {
                dst: self.site(dst)?,
                fun: self.opnd(fun)?,
                args: self.opnds(args)?,
            },
            Expr::Call(fun, args) => Instr::Call {
                dst: self.site(dst)?,
                fun: *fun,
                args: self.opnds(args)?,
            },
            Expr::Prim(op, args) => Instr::Prim {
                dst,
                op: *op,
                args: self.opnds(args)?,
            },
            Expr::Lam(lam) => {
                // Captures are read from the *enclosing* frame.
                let start = self.code.pool.len();
                for c in &lam.captures {
                    let o = self.slot_opnd(c)?;
                    self.code.pool.push(o);
                }
                let id = LamId(block_id(index(self.pending.len())?)?);
                self.pending.push(lam);
                Instr::MkClosure {
                    dst,
                    lam: id,
                    captures: span_from(start, self.code.pool.len())?,
                }
            }
            Expr::Con {
                ctor,
                args,
                reuse,
                skip,
            } if self.immediate(e).is_none() => {
                let args = self.opnds(args)?;
                self.con(*ctor, args, reuse.as_ref(), skip, dst)?
            }
            Expr::TokenOf(v) => Instr::TokenOf {
                dst,
                var: self.slot(v)?,
            },
            Expr::NullToken => Instr::NullToken { dst },
            Expr::Abort(msg) => {
                let i = index(self.code.aborts.len())?;
                self.code.aborts.push(Arc::from(msg.as_str()));
                Instr::Abort { msg: i, end }
            }
            atom => Instr::Atom {
                dst,
                a: self.opnd(atom)?,
            },
        };
        // Slot packing needs to know which binder an abort leaves
        // undefined.
        if let (Instr::Abort { .. }, Some(s)) = (i, dst.as_slot()) {
            self.pack.aborts.push((self.here()?, s));
        }
        self.code.instrs.push(i);
        Ok(())
    }
}

/// One instruction as slot packing sees it: the slots it reads, then the
/// one it writes, then where control goes.
struct Step {
    /// A slot read outside the operand pool, or [`NO_SLOT`].
    read: Slot,
    /// Operands read from the pool.
    args: Span,
    /// The slot written after the reads, or [`NO_SLOT`]. An `Enter`'s
    /// destination is written at its body, a match's binders on entry to
    /// their arm.
    def: Slot,
    next: Next,
}

/// Where control goes after an instruction.
enum Next {
    /// To the next instruction.
    Pc,
    /// Out of the function.
    Tail,
    /// To the body of the `Enter` at this pc.
    Join(Pc),
    /// Nowhere: the run fails. For liveness, to the body of the `Enter`
    /// whose right-hand side it ends, if any.
    Abort(Option<Pc>),
    /// Into the right-hand side that follows, then to `body` with the
    /// value in `dst`.
    Enter(Dst, Pc),
    /// To one of the arms, or to the default.
    Match(Span, Pc),
    /// To the next instruction or to `shared`.
    IsUnique(Pc),
}

/// Adds the live set of instruction `from` to that of `to`, an earlier
/// one, in rows of `w` words.
fn union(live: &mut [u64], w: usize, to: usize, from: usize) {
    let (lo, hi) = live.split_at_mut(from * w);
    for (a, b) in lo[to * w..][..w].iter_mut().zip(&hi[..w]) {
        *a |= *b;
    }
}

/// A read the check rejected: the instruction at `pc` names virtual slot
/// `read`, but on the path followed its frame slot `slot` holds `held`
/// ([`NO_SLOT`]: no one variable).
#[derive(Debug)]
struct Clash {
    pc: usize,
    read: Slot,
    slot: Slot,
    held: Slot,
}

/// Slot packing of one body: a backward walk finds what is live at each
/// instruction, then a forward walk places each binder and checks every
/// read. The buffers are kept from body to body.
#[derive(Default)]
struct Pack {
    /// Each abort a `let` binds, with the binder: the rest of that `let`
    /// never runs.
    aborts: Vec<(Pc, Slot)>,
    /// Virtual slots of the body.
    nvirt: usize,
    /// `u64` words per live set: one bit per virtual slot.
    words: usize,
    /// The live-in set of each instruction of the body, and an empty set
    /// past its end.
    live: Vec<u64>,
    /// The frame slot of each virtual slot.
    phys: Vec<Slot>,
    /// The virtual slot each frame slot holds on the path being followed;
    /// as many as the frame has slots so far.
    holds: Vec<Slot>,
    /// `(slot, what it held)` for each write on that path.
    undo: Vec<(Slot, Slot)>,
    /// Slots written on the paths that end a right-hand side so far.
    written: Vec<Slot>,
    /// Every pair `(v, u)` where `v` was kept out of the slot of `u`,
    /// live where `v` is defined.
    #[cfg(test)]
    kept_apart: Vec<(Slot, Slot)>,
}

impl Pack {
    /// The backward walk: the live-in set of every instruction from
    /// `entry` to the end of the code, over `nvirt` virtual slots. A body
    /// is laid out in pre-order — the next instruction, the arms, the
    /// `shared` branch and an `Enter`'s body all come after the
    /// instruction that leads to them — so one pass from the end meets
    /// every successor first.
    fn liveness(&mut self, code: &Code, entry: usize, nvirt: usize) {
        let instrs = &code.instrs[entry..];
        let w = nvirt.div_ceil(64);
        self.nvirt = nvirt;
        self.words = w;
        self.live.clear();
        self.live.resize((instrs.len() + 1) * w, 0);
        let live = &mut self.live[..];
        let at = |pc: Pc| pc as usize - entry;
        for (i, ins) in instrs.iter().enumerate().rev() {
            // What is live after the instruction, less what it defines,
            // plus what it reads.
            let step = code.step(ins);
            let mut def = step.def;
            match step.next {
                Next::Pc => union(live, w, i, i + 1),
                Next::Tail | Next::Abort(None) => {}
                // A join goes on at the body of its `Enter`. So, for
                // liveness, does an abort in a right-hand side: what the
                // body reads stays live across a right-hand side that
                // always aborts.
                Next::Join(enter) | Next::Abort(Some(enter)) => {
                    if let Instr::Enter { dst, body } = code.instrs[enter as usize] {
                        union(live, w, i, at(body));
                        def = dst.as_slot().unwrap_or(NO_SLOT);
                    }
                }
                Next::Enter(dst, body) => {
                    union(live, w, i, i + 1);
                    union(live, w, i, at(body));
                    def = dst.as_slot().unwrap_or(NO_SLOT);
                }
                Next::Match(arms, default) => {
                    for arm in &code.arms[arms.range()] {
                        union(live, w, i, at(arm.body));
                        for &b in &code.binders[arm.binders.range()] {
                            if b != NO_SLOT {
                                live[i * w + b as usize / 64] &= !(1 << (b % 64));
                            }
                        }
                    }
                    if default != NO_PC {
                        union(live, w, i, at(default));
                    }
                }
                Next::IsUnique(shared) => {
                    union(live, w, i, i + 1);
                    union(live, w, i, at(shared));
                }
            }
            if def != NO_SLOT {
                live[i * w + def as usize / 64] &= !(1 << (def % 64));
            }
            let reads = code.pool[step.args.range()].iter().filter_map(|o| o.slot());
            for s in reads.chain((step.read != NO_SLOT).then_some(step.read)) {
                live[i * w + s as usize / 64] |= 1 << (s % 64);
            }
        }
    }

    /// The forward walk: follows every path of the body at `entry` in
    /// code order, places each virtual slot where it is defined (unless
    /// `fixed`: then `phys` is given), and checks every read against what
    /// the path last wrote into its frame slot. The check tests the
    /// assignment against the reads themselves, not against the liveness
    /// that chose it. Returns the frame size.
    fn place(&mut self, code: &Code, entry: usize, k: usize, fixed: bool) -> Result<usize, Clash> {
        let high = if fixed {
            let placed = self.phys.iter().filter(|p| **p != NO_SLOT);
            placed.max().map_or(k, |p| k.max(*p as usize + 1))
        } else {
            self.phys.clear();
            self.phys.extend(0..k as Slot);
            self.phys.resize(self.nvirt, NO_SLOT);
            k
        };
        self.holds.clear();
        self.holds.resize(high, NO_SLOT);
        for v in 0..k {
            self.holds[self.phys[v] as usize] = v as Slot;
        }
        self.undo.clear();
        self.written.clear();
        let body = Body { code, entry, fixed };
        self.follow(&body, entry, code.instrs.len(), None, false)?;
        Ok(self.holds.len())
    }

    /// Follows the paths from `pc` to `end`, the end of its region: a
    /// body, a right-hand side, an arm or a branch. A join records the
    /// slots its path wrote since `join`, where the innermost `Enter`
    /// began its right-hand side. A `dead` path runs after an abort: it is
    /// placed, not checked.
    fn follow(
        &mut self,
        b: &Body,
        mut pc: usize,
        end: usize,
        join: Option<usize>,
        mut dead: bool,
    ) -> Result<(), Clash> {
        loop {
            let step = b.code.step(&b.code.instrs[pc]);
            if !dead {
                let reads = b.code.pool[step.args.range()]
                    .iter()
                    .filter_map(|o| o.slot());
                for read in reads.chain((step.read != NO_SLOT).then_some(step.read)) {
                    let slot = self.phys[read as usize];
                    let held = self.holds.get(slot as usize).copied().unwrap_or(NO_SLOT);
                    if held != read {
                        return Err(Clash {
                            pc,
                            read,
                            slot,
                            held,
                        });
                    }
                }
            }
            match step.next {
                Next::Pc => {
                    pc += 1;
                    if step.def != NO_SLOT {
                        self.define(b, step.def, pc, &[]);
                    }
                }
                Next::Tail => return Ok(()),
                Next::Join(_) => {
                    if let Some(join) = join {
                        let written = self.undo[join..].iter().map(|&(slot, _)| slot);
                        self.written.extend(written);
                    }
                    return Ok(());
                }
                // Code after an abort in its own region is the rest of a
                // `let` or statement whose right-hand side aborts: it never
                // runs, but its binders still need slots.
                Next::Abort(_) if pc + 1 < end => {
                    pc += 1;
                    dead = true;
                    if let Some(&(_, v)) = self.aborts.iter().find(|a| a.0 as usize + 1 == pc) {
                        self.define(b, v, pc, &[]);
                    }
                }
                Next::Abort(_) => return Ok(()),
                Next::Enter(dst, body) => {
                    // The body goes on from the state at the `Enter`, less
                    // every slot a path of the right-hand side wrote.
                    let (mark, from) = (self.undo.len(), self.written.len());
                    self.follow(b, pc + 1, body as usize, Some(mark), dead)?;
                    self.revert(mark);
                    for i in from..self.written.len() {
                        self.set(self.written[i], NO_SLOT);
                    }
                    self.written.truncate(from);
                    pc = body as usize;
                    if let Some(d) = dst.as_slot() {
                        self.define(b, d, pc, &[]);
                    }
                }
                Next::Match(arms, default) => {
                    let mark = self.undo.len();
                    let arms = &b.code.arms[arms.range()];
                    for (i, arm) in arms.iter().enumerate() {
                        self.revert(mark);
                        // An arm's binders are all written on entry, so
                        // each keeps out of the slots of those before it.
                        let binders = &b.code.binders[arm.binders.range()];
                        for (j, &v) in binders.iter().enumerate() {
                            if v != NO_SLOT {
                                self.define(b, v, arm.body as usize, &binders[..j]);
                            }
                        }
                        let next = arms.get(i + 1).map_or(default, |a| a.body);
                        let next = if next == NO_PC { end } else { next as usize };
                        self.follow(b, arm.body as usize, next, join, dead)?;
                    }
                    if default != NO_PC {
                        self.revert(mark);
                        self.follow(b, default as usize, end, join, dead)?;
                    }
                    return Ok(());
                }
                Next::IsUnique(shared) => {
                    let mark = self.undo.len();
                    self.follow(b, pc + 1, shared as usize, join, dead)?;
                    self.revert(mark);
                    return self.follow(b, shared as usize, end, join, dead);
                }
            }
        }
    }

    /// Completes the records of the body's call sites, from `from` on,
    /// for a frame of `window` slots: resolves a join to its `Enter`, and
    /// keeps across each call the slots up to the highest one live where
    /// the caller goes on, but for the one the call's value goes to — or
    /// the `whole` window, whose top holds a TRMC context.
    fn sites(&self, code: &mut Code, from: usize, entry: usize, window: usize, whole: bool) {
        let Code { instrs, sites, .. } = code;
        let w = self.words;
        for site in &mut sites[from..] {
            if let Some(enter) = site.dst.as_join() {
                if let Instr::Enter { dst, body } = instrs[enter as usize] {
                    (site.dst, site.next) = (dst, body);
                }
            }
            let def = site.dst.as_slot().unwrap_or(NO_SLOT);
            let row = &self.live[(site.next as usize - entry) * w..][..w];
            let mut keep = 0;
            for (i, &word) in row.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let v = (i * 64) as Slot + bits.trailing_zeros();
                    bits &= bits - 1;
                    if v != def {
                        keep = keep.max(self.phys[v as usize] + 1);
                    }
                }
            }
            site.keep = if whole { window as u32 } else { keep };
            site.window = window as u32;
            site.dst.rename(|s| self.phys[s as usize]);
        }
    }

    /// Virtual slot `v` is defined just before instruction `x`, after the
    /// binders `before` of its arm. Unless the assignment is fixed, it
    /// takes the lowest frame slot that holds no variable live at `x`,
    /// nor one of `before`.
    fn define(&mut self, b: &Body, v: Slot, x: usize, before: &[Slot]) {
        if !b.fixed {
            let w = self.words;
            let row = &self.live[(x - b.entry) * w..][..w];
            let live = |u: Slot| u != NO_SLOT && row[u as usize / 64] >> (u % 64) & 1 == 1;
            let before = |p: usize| {
                (before.iter()).any(|&c| c != NO_SLOT && self.phys[c as usize] as usize == p)
            };
            let p = (0..self.holds.len())
                .find(|&p| !live(self.holds[p]) && !before(p))
                .unwrap_or(self.holds.len());
            #[cfg(test)]
            for &u in &self.holds[..p] {
                if live(u) {
                    self.kept_apart.push((v, u));
                }
            }
            if p == self.holds.len() {
                self.holds.push(NO_SLOT);
            }
            self.phys[v as usize] = p as Slot;
        }
        self.set(self.phys[v as usize], v);
    }

    /// Writes `v` into frame slot `slot`, to be undone by [`Pack::revert`].
    fn set(&mut self, slot: Slot, v: Slot) {
        let held = std::mem::replace(&mut self.holds[slot as usize], v);
        self.undo.push((slot, held));
    }

    /// Undoes the writes since `mark`.
    fn revert(&mut self, mark: usize) {
        for (slot, held) in self.undo.drain(mark..).rev() {
            self.holds[slot as usize] = held;
        }
    }
}

/// What the walk reads about the body it places.
struct Body<'a> {
    code: &'a Code,
    entry: usize,
    /// Check [`Pack::phys`], do not choose it.
    fixed: bool,
}

#[cfg(test)]
impl Compiled {
    /// The instructions of function `f`. Bodies are laid out back to
    /// back: functions in order, then lambdas.
    fn fun_instrs(&self, f: usize) -> &[Instr] {
        let end = match (self.funs.get(f + 1), self.lambdas.first()) {
            (Some(next), _) => next.entry,
            (None, Some(lam)) => lam.entry,
            (None, None) => self.code.instrs.len() as Pc,
        };
        &self.code.instrs[self.funs[f].entry as usize..end as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perceus_core::ir::builder::ProgramBuilder;
    use perceus_core::ir::Expr;

    #[test]
    fn ids_past_the_header_width_are_refused() {
        let last = crate::heap::ID_LIMIT - 1;
        assert_eq!(block_id(last).unwrap(), last);
        for id in [last + 1, u32::MAX] {
            let err = block_id(id).unwrap_err();
            assert!(err.to_string().contains("too large"), "{err}");
        }
    }

    #[test]
    fn compiles_simple_function() {
        let mut pb = ProgramBuilder::new();
        let x = pb.fresh("x");
        let id = pb.fun("id", vec![x.clone()], Expr::Var(x));
        pb.entry(id);
        let c = compile(&pb.finish()).unwrap();
        assert_eq!(c.funs.len(), 1);
        assert_eq!(c.funs[0].arity, 1);
        assert_eq!(c.funs[0].nslots, 1);
        assert!(matches!(
            c.fun_instrs(0),
            [Instr::Atom { dst: Dst::TAIL, a }] if c.code.atom(*a) == Atom::Slot(0)
        ));
        assert_eq!(c.find_fun("id"), Some(id));
    }

    #[test]
    fn singleton_constructors_compile_to_immediates() {
        use perceus_core::ir::builder::con;
        let mut pb = ProgramBuilder::new();
        let (_, ctors) = pb.data("list", &[("Nil", 0), ("Cons", 2)]);
        pb.fun("f", vec![], con(ctors[0], vec![]));
        let c = compile(&pb.finish()).unwrap();
        assert!(matches!(
            c.fun_instrs(0),
            [Instr::Atom { a, .. }] if matches!(c.code.atom(*a), Atom::Const(Value::Enum(_)))
        ));
    }

    #[test]
    fn lambdas_are_lifted() {
        use perceus_core::ir::expr::Lambda;
        let mut pb = ProgramBuilder::new();
        let x = pb.fresh("x");
        let y = pb.fresh("y");
        let lam = Expr::Lam(Lambda {
            params: vec![y.clone()],
            captures: vec![x.clone()],
            body: Box::new(Expr::Var(x.clone())),
        });
        pb.fun("f", vec![x.clone()], lam);
        let c = compile(&pb.finish()).unwrap();
        assert_eq!(c.lambdas.len(), 1);
        assert_eq!(c.lambdas[0].ncaptures, 1);
        assert_eq!(c.lambdas[0].nparams, 1);
        let [Instr::MkClosure { captures, .. }] = c.fun_instrs(0) else {
            panic!("{:?}", c.fun_instrs(0))
        };
        let captures: Vec<Atom> = c.code.pool[captures.range()]
            .iter()
            .map(|o| c.code.atom(*o))
            .collect();
        assert_eq!(captures, [Atom::Slot(0)]);
    }

    #[test]
    fn rejects_non_anf() {
        use perceus_core::ir::expr::PrimOp;
        let mut pb = ProgramBuilder::new();
        pb.fun(
            "f",
            vec![],
            Expr::Prim(
                PrimOp::Add,
                vec![
                    Expr::Prim(PrimOp::Add, vec![Expr::int(1), Expr::int(2)]),
                    Expr::int(3),
                ],
            ),
        );
        assert!(compile(&pb.finish()).is_err());
    }
}

#[cfg(test)]
mod shape_tests {
    use super::*;
    use perceus_core::ir::builder::ProgramBuilder;
    use perceus_core::ir::Expr;
    use perceus_core::passes::{PassConfig, Pipeline};
    use perceus_core::Program;

    fn compile_map(config: PassConfig) -> Compiled {
        let mut pb = ProgramBuilder::new();
        let (_, cs) = pb.data("list", &[("Nil", 0), ("Cons", 2)]);
        let (nil, cons) = (cs[0], cs[1]);
        let xs = pb.fresh("xs");
        let f = pb.fresh("f");
        let x = pb.fresh("x");
        let xx = pb.fresh("xx");
        let map = pb.declare("map", vec![xs.clone(), f.clone()]);
        use perceus_core::ir::builder::{arm, arm0, con};
        pb.set_body(
            map,
            Expr::Match {
                scrutinee: xs.clone(),
                arms: vec![
                    arm(
                        cons,
                        vec![x.clone(), xx.clone()],
                        con(
                            cons,
                            vec![
                                Expr::App(
                                    Box::new(Expr::Var(f.clone())),
                                    vec![Expr::Var(x.clone())],
                                ),
                                Expr::Call(map, vec![Expr::Var(xx.clone()), Expr::Var(f.clone())]),
                            ],
                        ),
                    ),
                    arm0(nil, con(nil, vec![])),
                ],
                default: None,
            },
        );
        pb.entry(map);
        let p: Program = Pipeline::new(config).run(pb.finish()).unwrap();
        compile(&p).unwrap()
    }

    fn count(c: &Compiled, pred: impl Fn(&Instr) -> bool) -> usize {
        c.fun_instrs(0).iter().filter(|i| pred(i)).count()
    }

    /// The fully-optimized map compiles exactly one is-unique, one
    /// token-of, one reuse-annotated Con, and no plain drop-reuse.
    #[test]
    fn optimized_map_shape() {
        let c = compile_map(PassConfig::perceus());
        assert_eq!(count(&c, |i| matches!(i, Instr::IsUnique { .. })), 1);
        assert_eq!(count(&c, |i| matches!(i, Instr::TokenOf { .. })), 1);
        assert_eq!(count(&c, |i| matches!(i, Instr::ConReuse { .. })), 1);
        assert_eq!(
            count(&c, |i| matches!(i, Instr::DropReuse { .. })),
            0,
            "drop-reuse must be specialized away"
        );
    }

    /// The no-opt build keeps the generic instructions instead.
    #[test]
    fn no_opt_map_shape() {
        let c = compile_map(PassConfig::perceus_no_opt());
        assert_eq!(count(&c, |i| matches!(i, Instr::IsUnique { .. })), 0);
        assert_eq!(count(&c, |i| matches!(i, Instr::ConReuse { .. })), 0);
        assert!(count(&c, |i| matches!(i, Instr::Drop(_))) >= 1);
    }

    /// Arity errors at machine entry are reported cleanly.
    #[test]
    fn run_fun_checks_arity() {
        use crate::machine::{Machine, RunConfig};
        use crate::{ReclaimMode, RuntimeError, Value};
        let c = compile_map(PassConfig::perceus());
        let mut m = Machine::new(&c, ReclaimMode::Rc, RunConfig::default());
        let err = m.run_entry(vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(err, RuntimeError::TypeMismatch(_)), "{err}");
    }
}

/// Frame sizing and the instruction ↔ core `Expr` correspondence, on
/// the suite programs.
#[cfg(test)]
mod flat_tests {
    use super::*;
    use perceus_core::ir::fv::free_vars;
    use perceus_core::ir::VarSet;
    use perceus_core::passes::{PassConfig, Pipeline};

    fn lower_src(src: &str, config: PassConfig) -> Program {
        let p = perceus_lang::compile_str(src).expect("front end");
        Pipeline::new(config).run(p).expect("passes")
    }

    fn compile_src(src: &str, config: PassConfig) -> Compiled {
        compile(&lower_src(src, config)).expect("backend")
    }

    fn suite_program(name: &str) -> String {
        let path = format!("{}/../suite/programs/{name}.pk", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    fn nslots(c: &Compiled, fun: &str) -> usize {
        c.funs[c.find_fun(fun).expect(fun).0 as usize].nslots
    }

    /// Frames are as large as the most values live at one time, plus the
    /// two slots of a TRMC context. Summing every binder gave rbtree's
    /// `ins` 136 slots and deriv's `d` 79; numbering them per scope gave
    /// 32 and 11, and `map` 7.
    #[test]
    fn frames_are_sized_by_liveness() {
        let frame = |program: &str, fun: &str| {
            nslots(
                &compile_src(&suite_program(program), PassConfig::perceus()),
                fun,
            )
        };
        assert_eq!(frame("map", "map"), 4 + 2);
        let ins = frame("rbtree", "ins");
        assert!(ins <= 14 + 2, "{ins}");
        let d = frame("deriv", "d");
        assert!(d <= 7, "{d}");
        let drive = frame("queue", "drive");
        assert!(drive <= 10, "{drive}");
    }

    /// The most variables live at once at any definition in `e` — what a
    /// frame packed by liveness needs — computed on the core program from
    /// `free_vars`. `after` is what the continuation of `e` reads; lambdas
    /// met on the way join `lambdas`, in the order the backend numbers
    /// them.
    fn max_live<'p>(e: &'p Expr, after: &VarSet, lambdas: &mut Vec<&'p Lambda>) -> usize {
        // A definition of `new` just before `rest`: what is live then,
        // the new binders included whether or not `rest` reads them.
        let defined = |rest: &Expr, new: &[&Var]| {
            let mut live = free_vars(rest).union(after);
            for v in new {
                live.remove(v);
            }
            live.len() + new.len()
        };
        match e {
            Expr::Let { var, rhs, body } => {
                let mut rest = free_vars(body).union(after);
                rest.remove(var);
                let inner = max_live(rhs, &rest, lambdas);
                (rest.len() + 1)
                    .max(inner)
                    .max(max_live(body, after, lambdas))
            }
            Expr::Seq(a, b) => {
                let inner = max_live(a, &free_vars(b).union(after), lambdas);
                inner.max(max_live(b, after, lambdas))
            }
            Expr::Match { arms, default, .. } => {
                let mut most = 0;
                for arm in arms {
                    let new: Vec<&Var> = arm.binders.iter().flatten().collect();
                    most = most
                        .max(defined(&arm.body, &new))
                        .max(max_live(&arm.body, after, lambdas));
                }
                default
                    .as_deref()
                    .map_or(most, |d| most.max(max_live(d, after, lambdas)))
            }
            Expr::IsUnique { unique, shared, .. } => {
                max_live(unique, after, lambdas).max(max_live(shared, after, lambdas))
            }
            Expr::DropReuse { token, body, .. } => {
                defined(body, &[token]).max(max_live(body, after, lambdas))
            }
            Expr::Dup(_, rest)
            | Expr::Drop(_, rest)
            | Expr::Free(_, rest)
            | Expr::DecRef(_, rest)
            | Expr::DropToken(_, rest) => max_live(rest, after, lambdas),
            Expr::Lam(lam) => {
                lambdas.push(lam);
                0
            }
            _ => 0,
        }
    }

    /// Packing is optimal: every function's and lambda's frame is exactly
    /// as large as the most variables live at one time (and a TRMC
    /// context), on the 13 suite programs under three strategies.
    #[test]
    fn frames_match_a_max_live_oracle() {
        let dir = format!("{}/../suite/programs", env!("CARGO_MANIFEST_DIR"));
        let mut bodies = 0;
        for entry in std::fs::read_dir(&dir).expect(&dir) {
            let path = entry.unwrap().path();
            if path.extension() != Some("pk".as_ref()) {
                continue;
            }
            let src = std::fs::read_to_string(&path).unwrap();
            for config in [
                PassConfig::perceus(),
                PassConfig::perceus_no_opt(),
                PassConfig::scoped(),
            ] {
                let p = lower_src(&src, config);
                let c = compile(&p).expect("backend");
                let mut lambdas = Vec::new();
                let mut want: Vec<usize> = (p.funs.iter().zip(&c.funs))
                    .map(|(f, code)| {
                        let ctx = if code.trmc { 2 } else { 0 };
                        ctx + f
                            .params
                            .len()
                            .max(max_live(&f.body, &VarSet::new(), &mut lambdas))
                    })
                    .collect();
                while let Some(&lam) = lambdas.get(want.len() - p.funs.len()) {
                    let k = lam.captures.len() + lam.params.len();
                    want.push(k.max(max_live(&lam.body, &VarSet::new(), &mut lambdas)));
                }
                let got: Vec<usize> = (c.funs.iter().map(|f| f.nslots))
                    .chain(c.lambdas.iter().map(|l| l.nslots))
                    .collect();
                assert_eq!(got, want, "{}", path.display());
                bodies += got.len();
            }
        }
        assert!(bodies > 100, "{bodies}");
    }

    /// One body lowered with virtual slots and placed, but not renamed.
    struct Packed {
        code: Code,
        entry: usize,
        k: usize,
        pack: Pack,
    }

    impl Packed {
        fn new(p: &Program, fun: &str) -> Packed {
            let f = p.fun(p.find_fun(fun).expect(fun));
            let mut lower = Lower::new(p);
            let (entry, k) = lower.emit(f.params.iter(), &f.body).unwrap();
            let mut pack = std::mem::take(&mut lower.pack);
            pack.liveness(&lower.code, entry as usize, lower.vars.len());
            pack.place(&lower.code, entry as usize, k, false)
                .expect("the packer's own assignment passes");
            Packed {
                code: lower.code,
                entry: entry as usize,
                k,
                pack,
            }
        }

        /// Checks the body with virtual slot `v` moved to frame slot `to`.
        fn check_with(&mut self, v: Slot, to: Slot) -> Result<usize, Clash> {
            let kept = std::mem::replace(&mut self.pack.phys[v as usize], to);
            let r = (self.pack).place(&self.code, self.entry, self.k, true);
            self.pack.phys[v as usize] = kept;
            r
        }
    }

    /// Bodies with no abort, so that every path the check follows ends
    /// in a read of what the packing kept.
    fn mutation_subjects() -> Vec<(Program, &'static str)> {
        let mut out = Vec::new();
        for (program, funs) in [
            ("map", &["map"][..]),
            ("rbtree", &["ins", "bal-left", "bal-right"][..]),
            ("deriv", &["d"][..]),
            ("queue", &["drive"][..]),
        ] {
            for config in [PassConfig::perceus(), PassConfig::perceus_no_opt()] {
                let p = lower_src(&suite_program(program), config);
                for &fun in funs {
                    if p.find_fun(fun).is_some() {
                        out.push((p.clone(), fun));
                    }
                }
            }
        }
        assert!(out.len() >= 8, "{}", out.len());
        out
    }

    /// The check rejects two interfering virtual slots in one frame slot:
    /// wherever the packer kept a definition out of the slot of a
    /// variable read after it, putting it there is an error.
    #[test]
    fn the_check_rejects_interfering_slots_sharing_a_frame_slot() {
        let mut mutations = 0;
        for (p, fun) in mutation_subjects() {
            let mut b = Packed::new(&p, fun);
            assert!(
                !(b.code.instrs[b.entry..].iter()).any(|i| matches!(i, Instr::Abort { .. })),
                "{fun}"
            );
            for (v, u) in std::mem::take(&mut b.pack.kept_apart) {
                let to = b.pack.phys[u as usize];
                assert!(
                    b.check_with(v, to).is_err(),
                    "{fun}: v{v} in the slot of v{u}, read after v{v} is defined"
                );
                mutations += 1;
            }
        }
        assert!(mutations > 100, "{mutations}");
    }

    /// The check rejects a binder freed one instruction early: when an
    /// instruction's definition takes the slot of a variable the next
    /// instruction reads, the read is an error.
    #[test]
    fn the_check_rejects_a_binder_freed_one_instruction_early() {
        let mut mutations = 0;
        for (p, fun) in mutation_subjects() {
            let mut b = Packed::new(&p, fun);
            for pc in b.entry..b.code.instrs.len() - 1 {
                let def = b.code.step(&b.code.instrs[pc]).def;
                if def == NO_SLOT {
                    continue;
                }
                let mut next = Vec::new();
                b.code.reads(&b.code.instrs[pc + 1], |s| next.push(s));
                for v in next.into_iter().filter(|v| *v != def) {
                    let to = b.pack.phys[v as usize];
                    let err = b.check_with(def, to).unwrap_err();
                    assert_eq!((err.pc, err.read), (pc + 1, v), "{fun}");
                    mutations += 1;
                }
            }
        }
        assert!(mutations > 20, "{mutations}");
    }

    /// `a` takes the slot of `p`, which its arm does not read, and `b`
    /// shares it; `a` is live across the nested match, so `y` sits above
    /// it — in the slot of `q`, which no arm reads — and `z` shares `y`'s.
    #[test]
    fn sibling_arms_share_slots_and_live_binders_keep_theirs() {
        let src = "
            type t { A(x: int)  B(y: int) }
            fun f(p: t, q: t): int {
              match p {
                A(a) -> match q { A(y) -> a + y  B(z) -> a - z }
                B(b) -> b
              }
            }
            fun main(n: int): int { f(A(n), B(n)) }";
        let c = compile_src(src, PassConfig::erased());
        let f = &c.funs[c.find_fun("f").unwrap().0 as usize];
        let arms = |pc: Pc| -> &[Arm] {
            let Instr::Match { arms, .. } = c.code.instrs[pc as usize] else {
                panic!("{:?}", c.code.instrs[pc as usize])
            };
            &c.code.arms[arms.range()]
        };
        let binders = |pc: Pc| -> Vec<&[Slot]> {
            (arms(pc).iter())
                .map(|a| &c.code.binders[a.binders.range()])
                .collect()
        };
        assert_eq!(binders(f.entry), [[0], [0]], "a in p's slot, b shares it");
        assert_eq!(
            binders(arms(f.entry)[0].body),
            [[1], [1]],
            "y above the live a, in q's slot, and z shares it"
        );
        assert_eq!(f.nslots, 2);
    }

    /// The nodes the machine charges a step for — the emitter's
    /// `rt.step()` sites: every node except a `Let`/`Seq` right-hand
    /// side that is a call or cannot call. Lambdas met on the way join
    /// `lambdas`, in the order the backend numbers them.
    fn cur_nodes<'p>(e: &'p Expr, lambdas: &mut Vec<&'p Lambda>) -> usize {
        let bound = |rhs: &'p Expr, lambdas: &mut Vec<&'p Lambda>| {
            cur_nodes(rhs, lambdas) - usize::from(is_leaf(rhs))
        };
        1 + match e {
            Expr::Let { rhs, body, .. } => bound(rhs, lambdas) + cur_nodes(body, lambdas),
            Expr::Seq(a, b) => bound(a, lambdas) + cur_nodes(b, lambdas),
            Expr::Match { arms, default, .. } => {
                arms.iter()
                    .map(|a| cur_nodes(&a.body, lambdas))
                    .sum::<usize>()
                    + default.as_deref().map_or(0, |d| cur_nodes(d, lambdas))
            }
            Expr::IsUnique { unique, shared, .. } => {
                cur_nodes(unique, lambdas) + cur_nodes(shared, lambdas)
            }
            Expr::Dup(_, r)
            | Expr::Drop(_, r)
            | Expr::Free(_, r)
            | Expr::DecRef(_, r)
            | Expr::DropToken(_, r)
            | Expr::DropReuse { body: r, .. } => cur_nodes(r, lambdas),
            Expr::Lam(lam) => {
                lambdas.push(lam);
                0
            }
            _ => 0,
        }
    }

    /// One instruction per step-charged node, body by body, so step
    /// counts, fuel limits and suspension points are those of the core
    /// program by construction.
    #[test]
    fn one_instruction_per_step_charged_node() {
        let dir = format!("{}/../suite/programs", env!("CARGO_MANIFEST_DIR"));
        let mut programs = 0;
        for entry in std::fs::read_dir(&dir).expect(&dir) {
            let path = entry.unwrap().path();
            if path.extension() != Some("pk".as_ref()) {
                continue;
            }
            programs += 1;
            let src = std::fs::read_to_string(&path).unwrap();
            for config in [
                PassConfig::perceus(),
                PassConfig::perceus_no_opt(),
                PassConfig::scoped(),
            ] {
                let p = lower_src(&src, config);
                let c = compile(&p).expect("backend");
                // Bodies are laid out back to back: functions in order,
                // then lambdas in the order they were met.
                let mut lambdas = Vec::new();
                let mut nodes: Vec<usize> = p
                    .funs
                    .iter()
                    .map(|f| cur_nodes(&f.body, &mut lambdas))
                    .collect();
                while let Some(&lam) = lambdas.get(nodes.len() - p.funs.len()) {
                    nodes.push(cur_nodes(&lam.body, &mut lambdas));
                }
                let entries: Vec<Pc> = (c.funs.iter().map(|f| f.entry))
                    .chain(c.lambdas.iter().map(|l| l.entry))
                    .chain([c.code.instrs.len() as Pc])
                    .collect();
                assert_eq!(entries.len(), nodes.len() + 1, "{}", path.display());
                for (pcs, nodes) in entries.windows(2).zip(nodes) {
                    assert_eq!(
                        (pcs[1] - pcs[0]) as usize,
                        nodes,
                        "{} at pc {}",
                        path.display(),
                        pcs[0]
                    );
                }
            }
        }
        assert_eq!(programs, 13);
    }
}
