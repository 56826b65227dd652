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
//! Slots are numbered per scope: a match arm, an `is-unique` branch and
//! a let right-hand side each restart at the depth of the scope that
//! encloses them, so a frame is as large as the deepest chain of live
//! binders, not the count of all binders in the function.

use crate::error::RuntimeError;
use crate::heap::LamId;
use crate::value::Value;
use perceus_core::ir::expr::{Expr, Lambda, Lit, PrimOp};
use perceus_core::ir::{CtorId, FunId, Program, TypeTable, Var};
use std::collections::HashMap;
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

/// "No position": a match without a default arm, or a call frame that
/// only passes its value on to the frame below.
pub const NO_PC: Pc = u32::MAX;

/// "No slot": a constructor field a match arm does not bind.
pub const NO_SLOT: Slot = u32::MAX;

/// Where an instruction's value goes. One word: a frame slot, or one of
/// three marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dst(u32);

impl Dst {
    /// Result of the function: a call here is a tail call.
    pub const TAIL: Dst = Dst(u32::MAX);
    /// Result of a compound let right-hand side or statement: the value
    /// goes to the pending continuation of the same frame.
    pub const RETURN: Dst = Dst(u32::MAX - 1);
    /// Evaluated for effect (the left side of a `Seq`).
    pub const DISCARD: Dst = Dst(u32::MAX - 2);

    /// Store into a frame slot (a `Let` binder).
    pub fn slot(s: Slot) -> Dst {
        debug_assert!(s < Dst::DISCARD.0);
        Dst(s)
    }

    /// The slot to store into, if this is one.
    pub fn as_slot(self) -> Option<Slot> {
        (self.0 < Dst::DISCARD.0).then_some(self.0)
    }

    /// True for [`Dst::TAIL`] and [`Dst::RETURN`]: the instruction ends
    /// its expression and its value goes to a continuation.
    pub fn is_terminal(self) -> bool {
        self.0 >= Dst::RETURN.0
    }
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
    /// Runtime failure with message `Code::aborts[msg]`.
    Abort { msg: u32 },
    /// Direct call of a top-level function.
    Call { dst: Dst, fun: FunId, args: Span },
    /// Application of a closure or global value.
    App { dst: Dst, fun: Opnd, args: Span },
    /// A let right-hand side (or statement) that is itself compound: its
    /// code follows and ends in [`Dst::RETURN`] instructions, whose value
    /// goes to `dst`; then `body` runs.
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
    /// Frame slots: the deepest chain of live binders.
    pub nslots: usize,
    /// First instruction of the body.
    pub entry: Pc,
}

/// A compiled lambda. Captures live in slots `0..ncaptures`, parameters
/// in `ncaptures..ncaptures+nparams`.
#[derive(Debug, Clone)]
pub struct CodeLam {
    /// Capture count.
    pub ncaptures: usize,
    /// Parameter count.
    pub nparams: usize,
    /// Frame slots: the deepest chain of live binders.
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
    let mut lower = Lower {
        types: &p.types,
        code: Code::default(),
        pending: Vec::new(),
        slots: HashMap::new(),
        next: 0,
        high: 0,
    };
    let mut funs = Vec::with_capacity(p.funs.len());
    for (_, f) in p.funs() {
        let (entry, nslots) = lower.body(f.params.iter(), &f.body)?;
        funs.push(CodeFun {
            name: f.name.clone(),
            arity: f.params.len(),
            nslots,
            entry,
        });
    }
    // Lambda bodies follow the functions, in `LamId` order. A lambda is
    // numbered when the walk meets it, so one found inside a lambda's
    // body takes the next id after all those known so far.
    let mut lambdas = Vec::new();
    while let Some(&lam) = lower.pending.get(lambdas.len()) {
        let (entry, nslots) = lower.body(lam.captures.iter().chain(&lam.params), &lam.body)?;
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

/// A table index as the 31 bits an [`Opnd`] leaves for it.
fn index(n: usize) -> Result<u32, RuntimeError> {
    u32::try_from(n)
        .ok()
        .filter(|n| *n < Opnd::CONST_BIT)
        .ok_or_else(|| RuntimeError::Internal("program too large for 31-bit code offsets".into()))
}

fn span_from(start: usize, end: usize) -> Result<Span, RuntimeError> {
    let (start, end) = (index(start)?, index(end)?);
    Ok(Span {
        start,
        len: end - start,
    })
}

impl Code {
    /// What an operand names: a slot, or the immediate value itself.
    pub fn atom(&self, o: Opnd) -> Atom {
        if o.0 & Opnd::CONST_BIT == 0 {
            Atom::Slot(o.0)
        } else {
            Atom::Const(self.consts[(o.0 & !Opnd::CONST_BIT) as usize])
        }
    }
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

/// The one walk from core IR to instructions: numbers the slots of the
/// body it is in and appends that body's code.
struct Lower<'p> {
    types: &'p TypeTable,
    code: Code,
    /// Every lambda met so far, indexed by `LamId`; bodies are emitted
    /// after the functions.
    pending: Vec<&'p Lambda>,
    slots: HashMap<u32, Slot>,
    /// The next free slot in the scope being compiled.
    next: Slot,
    /// The most slots any scope of the body needed: the frame size.
    high: Slot,
}

impl<'p> Lower<'p> {
    /// Emits one function or lambda body whose frame starts with
    /// `params`; returns its entry point and frame size.
    fn body(
        &mut self,
        params: impl Iterator<Item = &'p Var>,
        body: &'p Expr,
    ) -> Result<(Pc, usize), RuntimeError> {
        self.slots.clear();
        self.next = 0;
        self.high = 0;
        for v in params {
            self.bind(v);
        }
        let entry = self.here()?;
        self.expr(body, Dst::TAIL)?;
        Ok((entry, self.high as usize))
    }

    fn bind(&mut self, v: &Var) -> Slot {
        let s = self.next;
        self.next += 1;
        self.high = self.high.max(self.next);
        self.slots.insert(v.id(), s);
        s
    }

    /// Emits `e` in a scope of its own: the slots its binders take are
    /// free again afterwards, because nothing after `e` can name them.
    fn scoped(&mut self, e: &'p Expr, end: Dst) -> Result<(), RuntimeError> {
        let depth = self.next;
        let r = self.expr(e, end);
        self.next = depth;
        r
    }

    fn slot(&self, v: &Var) -> Result<Slot, RuntimeError> {
        self.slots
            .get(&v.id())
            .copied()
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
    /// expression's own value goes: [`Dst::TAIL`] or [`Dst::RETURN`].
    fn expr(&mut self, e: &'p Expr, end: Dst) -> Result<(), RuntimeError> {
        match e {
            Expr::Let { var, rhs, body } => {
                // The binder takes the first free slot, so the right-hand
                // side can deliver there before the binder is in scope.
                self.bound(rhs, Dst::slot(self.next))?;
                self.bind(var);
                self.expr(body, end)
            }
            Expr::Seq(a, b) => {
                self.bound(a, Dst::DISCARD)?;
                self.expr(b, end)
            }
            Expr::Match {
                scrutinee,
                arms,
                default,
            } => {
                let scrut = self.slot(scrutinee)?;
                let depth = self.next;
                let at = self.code.instrs.len();
                // The arms of one match are adjacent, so they are laid
                // out before any body (which may hold matches itself).
                // Sibling arms share slot numbers: each arm's binders
                // count up from the depth of the match.
                let first = self.code.arms.len();
                for arm in arms {
                    if let Some(t) = &arm.reuse_token {
                        return Err(RuntimeError::Internal(format!(
                            "unlowered reuse annotation @{t:?} reached the backend"
                        )));
                    }
                    let start = self.code.binders.len();
                    let mut slot = depth;
                    for b in &arm.binders {
                        self.code
                            .binders
                            .push(if b.is_some() { slot } else { NO_SLOT });
                        slot += u32::from(b.is_some());
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
                    for b in arm.binders.iter().flatten() {
                        self.bind(b);
                    }
                    self.expr(&arm.body, end)?;
                    self.next = depth;
                }
                if let Some(d) = default {
                    self.land(at)?;
                    self.scoped(d, end)?;
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
                self.scoped(unique, end)?;
                self.land(at)?;
                self.scoped(shared, end)
            }
            Expr::Dup(v, rest) => self.then(Instr::Dup(self.slot(v)?), rest, end),
            Expr::Drop(v, rest) => self.then(Instr::Drop(self.slot(v)?), rest, end),
            Expr::Free(v, rest) => self.then(Instr::Free(self.slot(v)?), rest, end),
            Expr::DecRef(v, rest) => self.then(Instr::DecRef(self.slot(v)?), rest, end),
            Expr::DropToken(v, rest) => self.then(Instr::DropToken(self.slot(v)?), rest, end),
            Expr::DropReuse { var, token, body } => {
                let var = self.slot(var)?;
                let token = self.bind(token);
                self.then(Instr::DropReuse { var, token }, body, end)
            }
            leaf => self.leaf(leaf, end),
        }
    }

    fn then(&mut self, i: Instr, rest: &'p Expr, end: Dst) -> Result<(), RuntimeError> {
        self.code.instrs.push(i);
        self.expr(rest, end)
    }

    /// Emits a `Let`/`Seq` right-hand side delivering to `dst`.
    fn bound(&mut self, rhs: &'p Expr, dst: Dst) -> Result<(), RuntimeError> {
        if is_leaf(rhs) {
            return self.leaf(rhs, dst);
        }
        let at = self.code.instrs.len();
        self.code.instrs.push(Instr::Enter { dst, body: NO_PC });
        self.scoped(rhs, Dst::RETURN)?;
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

    /// Emits a call or an expression that cannot call: one instruction.
    fn leaf(&mut self, e: &'p Expr, dst: Dst) -> Result<(), RuntimeError> {
        let i = match e {
            Expr::App(fun, args) => Instr::App {
                dst,
                fun: self.opnd(fun)?,
                args: self.opnds(args)?,
            },
            Expr::Call(fun, args) => Instr::Call {
                dst,
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
                let id = LamId(index(self.pending.len())?);
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
                let ctor = *ctor;
                match reuse {
                    None => Instr::Con {
                        dst,
                        ctor,
                        args: self.opnds(args)?,
                    },
                    Some(token) => {
                        let site = index(self.code.reuse.len())?;
                        let site_args = self.opnds(args)?;
                        let token = self.slot(token)?;
                        self.code.reuse.push(ReuseSite {
                            ctor,
                            args: site_args,
                            token,
                            skip: skip.as_slice().into(),
                        });
                        Instr::ConReuse { dst, site }
                    }
                }
            }
            Expr::TokenOf(v) => Instr::TokenOf {
                dst,
                var: self.slot(v)?,
            },
            Expr::NullToken => Instr::NullToken { dst },
            Expr::Abort(msg) => {
                let i = index(self.code.aborts.len())?;
                self.code.aborts.push(Arc::from(msg.as_str()));
                Instr::Abort { msg: i }
            }
            atom => Instr::Atom {
                dst,
                a: self.opnd(atom)?,
            },
        };
        self.code.instrs.push(i);
        Ok(())
    }
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

    /// Frames are as large as the deepest scope. Summing every binder
    /// gave rbtree's `ins` 136 slots and deriv's `d` 79.
    #[test]
    fn frames_are_sized_by_the_deepest_scope() {
        let rbtree = compile_src(&suite_program("rbtree"), PassConfig::perceus());
        assert!(nslots(&rbtree, "ins") <= 40, "{}", nslots(&rbtree, "ins"));
        let deriv = compile_src(&suite_program("deriv"), PassConfig::perceus());
        assert!(nslots(&deriv, "d") <= 16, "{}", nslots(&deriv, "d"));
    }

    /// `a` and `b` are binders of sibling arms and share a slot; `x` is
    /// live across the nested match, so `y` and `z` sit above it.
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
        assert_eq!(binders(f.entry), [[2], [2]], "a, and b shares a's slot");
        assert_eq!(
            binders(arms(f.entry)[0].body),
            [[3], [3]],
            "y sits above the live a, and z shares y's slot"
        );
        assert!(f.nslots <= 5, "{}", f.nslots);
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
