//! Backend compilation: core IR → slot-resolved executable code.
//!
//! Variables become dense frame slots (the moral equivalent of Koka
//! compiling to C locals), lambdas are lifted into a code table, and
//! atoms are pre-evaluated into immediate [`Value`]s where possible.
//!
//! The result has two forms of the same program. The slot-resolved
//! [`RExpr`] tree is the native emitter's input. [`Code`] is that tree
//! flattened: one [`Instr`] per node the machine charges a step for,
//! in one vector shared by every function and lambda, with operand
//! lists in a pool beside it. The abstract machine in
//! [`crate::machine`] executes the flat form, so a position in a
//! running program is a plain [`Pc`].
//!
//! Slots are numbered per scope: a match arm, an `is-unique` branch and
//! a let right-hand side each restart at the depth of the scope that
//! encloses them, so a frame is as large as the deepest chain of live
//! binders, not the count of all binders in the function.

use crate::error::RuntimeError;
use crate::heap::LamId;
use crate::value::Value;
use perceus_core::ir::expr::{Expr, Lit, PrimOp};
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

/// One arm of a compiled match.
#[derive(Debug, Clone)]
pub struct RArm {
    /// Constructor matched (singletons compare by id, blocks by tag).
    pub ctor: CtorId,
    /// Destination slots for the fields (`None` = field not bound).
    pub binders: Vec<Option<Slot>>,
    /// Arm body.
    pub body: RExpr,
}

/// Slot-resolved executable expressions.
#[derive(Debug, Clone)]
pub enum RExpr {
    /// Produce an atom's value.
    Atom(Atom),
    /// Indirect application of a closure or global value.
    App { fun: Atom, args: Vec<Atom> },
    /// Direct call of a top-level function.
    Call { fun: FunId, args: Vec<Atom> },
    /// Primitive application.
    Prim { op: PrimOp, args: Vec<Atom> },
    /// Closure allocation (consumes the captured values' ownership).
    MkClosure { lam: LamId, captures: Vec<Slot> },
    /// Constructor allocation; `reuse` names a token slot; `skip` is the
    /// reuse-specialization mask (§2.5).
    Con {
        ctor: CtorId,
        args: Vec<Atom>,
        reuse: Option<Slot>,
        skip: Arc<[bool]>,
    },
    /// `val slot = rhs; body`.
    Let {
        slot: Slot,
        rhs: Box<RExpr>,
        body: Box<RExpr>,
    },
    /// `rhs; body` (rhs value discarded).
    Seq(Box<RExpr>, Box<RExpr>),
    /// Flat match on the value in a slot.
    Match {
        scrut: Slot,
        arms: Vec<RArm>,
        default: Option<Box<RExpr>>,
    },
    /// Runtime failure.
    Abort(Arc<str>),
    /// `dup`.
    Dup(Slot, Box<RExpr>),
    /// `drop`.
    Drop(Slot, Box<RExpr>),
    /// `val token = drop-reuse var; body`.
    DropReuse {
        var: Slot,
        token: Slot,
        body: Box<RExpr>,
    },
    /// Specialized cell free (unique fast path).
    Free(Slot, Box<RExpr>),
    /// Specialized decrement (shared slow path).
    DecRef(Slot, Box<RExpr>),
    /// Release an unused reuse token.
    DropToken(Slot, Box<RExpr>),
    /// The uniqueness test of Fig. 1c/1f.
    IsUnique {
        var: Slot,
        unique: Box<RExpr>,
        shared: Box<RExpr>,
    },
    /// `&x` — claim the cell as a token.
    TokenOf(Slot),
    /// The null token.
    NullToken,
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

/// One machine instruction: one [`RExpr`] node that the machine visits
/// as its current expression, and so one step. A `Let` or `Seq` whose
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
    /// Body, as the native emitter reads it.
    pub body: RExpr,
    /// Body, as the machine runs it: its first instruction.
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
    /// Body, as the native emitter reads it.
    pub body: RExpr,
    /// Body, as the machine runs it: its first instruction.
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
    let mut out = Compiled {
        types: p.types.clone(),
        funs: Vec::with_capacity(p.funs.len()),
        lambdas: Vec::new(),
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
        code: Code::default(),
        uid: fresh_uid(),
    };
    for (_, f) in p.funs() {
        let mut cx = FrameCx::new(&p.types);
        for par in &f.params {
            cx.bind(par);
        }
        let body = cx.expr(&f.body, &mut out.lambdas)?;
        out.funs.push(CodeFun {
            name: f.name.clone(),
            arity: f.params.len(),
            nslots: cx.high as usize,
            body,
            entry: NO_PC,
        });
    }
    for f in &mut out.funs {
        f.entry = out.code.flatten(&f.body)?;
    }
    for l in &mut out.lambdas {
        l.entry = out.code.flatten(&l.body)?;
    }
    // A daemon caches hundreds of compiled programs: keep no growth slack.
    let code = &mut out.code;
    code.instrs.shrink_to_fit();
    code.pool.shrink_to_fit();
    code.consts.shrink_to_fit();
    code.arms.shrink_to_fit();
    code.binders.shrink_to_fit();
    code.reuse.shrink_to_fit();
    code.aborts.shrink_to_fit();
    Ok(out)
}

struct FrameCx<'t> {
    types: &'t TypeTable,
    slots: HashMap<u32, Slot>,
    /// The next free slot in the scope being compiled.
    next: Slot,
    /// The most slots any scope needed: the frame size.
    high: Slot,
}

impl<'t> FrameCx<'t> {
    fn new(types: &'t TypeTable) -> Self {
        FrameCx {
            types,
            slots: HashMap::new(),
            next: 0,
            high: 0,
        }
    }

    fn bind(&mut self, v: &Var) -> Slot {
        let s = self.next;
        self.next += 1;
        self.high = self.high.max(self.next);
        self.slots.insert(v.id(), s);
        s
    }

    /// Compiles `e` in a scope of its own: the slots its binders take are
    /// free again afterwards, because nothing after `e` can name them.
    fn scoped(&mut self, e: &Expr, lambdas: &mut Vec<CodeLam>) -> Result<RExpr, RuntimeError> {
        let depth = self.next;
        let r = self.expr(e, lambdas);
        self.next = depth;
        r
    }

    fn slot(&self, v: &Var) -> Result<Slot, RuntimeError> {
        self.slots
            .get(&v.id())
            .copied()
            .ok_or_else(|| RuntimeError::Internal(format!("unresolved variable {v:?}")))
    }

    fn atom(&self, e: &Expr) -> Result<Atom, RuntimeError> {
        match e {
            Expr::Var(v) => Ok(Atom::Slot(self.slot(v)?)),
            Expr::Lit(Lit::Int(i)) => Ok(Atom::Const(Value::Int(*i))),
            Expr::Lit(Lit::Unit) => Ok(Atom::Const(Value::Unit)),
            Expr::Global(f) => Ok(Atom::Const(Value::Global(*f))),
            Expr::Con { ctor, args, .. }
                if args.is_empty() && self.types.ctor(*ctor).arity == 0 =>
            {
                Ok(Atom::Const(Value::Enum(*ctor)))
            }
            other => Err(RuntimeError::Internal(format!(
                "non-atomic argument (not in ANF): {other:?}"
            ))),
        }
    }

    fn atoms(&self, es: &[Expr]) -> Result<Vec<Atom>, RuntimeError> {
        es.iter().map(|e| self.atom(e)).collect()
    }

    fn expr(&mut self, e: &Expr, lambdas: &mut Vec<CodeLam>) -> Result<RExpr, RuntimeError> {
        match e {
            Expr::Var(_) | Expr::Lit(_) | Expr::Global(_) => Ok(RExpr::Atom(self.atom(e)?)),
            Expr::App(f, args) => Ok(RExpr::App {
                fun: self.atom(f)?,
                args: self.atoms(args)?,
            }),
            Expr::Call(f, args) => Ok(RExpr::Call {
                fun: *f,
                args: self.atoms(args)?,
            }),
            Expr::Prim(op, args) => Ok(RExpr::Prim {
                op: *op,
                args: self.atoms(args)?,
            }),
            Expr::Lam(lam) => {
                // Captures are read from the *enclosing* frame.
                let cap_slots: Vec<Slot> = lam
                    .captures
                    .iter()
                    .map(|c| self.slot(c))
                    .collect::<Result<_, _>>()?;
                let mut inner = FrameCx::new(self.types);
                for c in &lam.captures {
                    inner.bind(c);
                }
                for par in &lam.params {
                    inner.bind(par);
                }
                let body = inner.expr(&lam.body, lambdas)?;
                let id = LamId(lambdas.len() as u32);
                lambdas.push(CodeLam {
                    ncaptures: lam.captures.len(),
                    nparams: lam.params.len(),
                    nslots: inner.high as usize,
                    body,
                    entry: NO_PC,
                });
                Ok(RExpr::MkClosure {
                    lam: id,
                    captures: cap_slots,
                })
            }
            Expr::Con {
                ctor,
                args,
                reuse,
                skip,
            } => {
                if args.is_empty() && self.types.ctor(*ctor).arity == 0 {
                    return Ok(RExpr::Atom(Atom::Const(Value::Enum(*ctor))));
                }
                Ok(RExpr::Con {
                    ctor: *ctor,
                    args: self.atoms(args)?,
                    reuse: reuse.as_ref().map(|t| self.slot(t)).transpose()?,
                    skip: skip.clone().into(),
                })
            }
            Expr::Let { var, rhs, body } => {
                let rhs = self.scoped(rhs, lambdas)?;
                let slot = self.bind(var);
                let body = self.expr(body, lambdas)?;
                Ok(RExpr::Let {
                    slot,
                    rhs: Box::new(rhs),
                    body: Box::new(body),
                })
            }
            Expr::Seq(a, b) => Ok(RExpr::Seq(
                Box::new(self.scoped(a, lambdas)?),
                Box::new(self.expr(b, lambdas)?),
            )),
            Expr::Match {
                scrutinee,
                arms,
                default,
            } => {
                let scrut = self.slot(scrutinee)?;
                let depth = self.next;
                let mut rarms = Vec::with_capacity(arms.len());
                for arm in arms {
                    let binders: Vec<Option<Slot>> = arm
                        .binders
                        .iter()
                        .map(|b| b.as_ref().map(|v| self.bind(v)))
                        .collect();
                    if let Some(t) = &arm.reuse_token {
                        return Err(RuntimeError::Internal(format!(
                            "unlowered reuse annotation @{t:?} reached the backend"
                        )));
                    }
                    let body = self.expr(&arm.body, lambdas)?;
                    // Sibling arms share slot numbers.
                    self.next = depth;
                    rarms.push(RArm {
                        ctor: arm.ctor,
                        binders,
                        body,
                    });
                }
                let default = match default {
                    Some(d) => Some(Box::new(self.scoped(d, lambdas)?)),
                    None => None,
                };
                Ok(RExpr::Match {
                    scrut,
                    arms: rarms,
                    default,
                })
            }
            Expr::Abort(msg) => Ok(RExpr::Abort(Arc::from(msg.as_str()))),
            Expr::Dup(v, rest) => Ok(RExpr::Dup(
                self.slot(v)?,
                Box::new(self.expr(rest, lambdas)?),
            )),
            Expr::Drop(v, rest) => Ok(RExpr::Drop(
                self.slot(v)?,
                Box::new(self.expr(rest, lambdas)?),
            )),
            Expr::DropReuse { var, token, body } => {
                let var = self.slot(var)?;
                let token = self.bind(token);
                Ok(RExpr::DropReuse {
                    var,
                    token,
                    body: Box::new(self.expr(body, lambdas)?),
                })
            }
            Expr::Free(v, rest) => Ok(RExpr::Free(
                self.slot(v)?,
                Box::new(self.expr(rest, lambdas)?),
            )),
            Expr::DecRef(v, rest) => Ok(RExpr::DecRef(
                self.slot(v)?,
                Box::new(self.expr(rest, lambdas)?),
            )),
            Expr::DropToken(v, rest) => Ok(RExpr::DropToken(
                self.slot(v)?,
                Box::new(self.expr(rest, lambdas)?),
            )),
            Expr::IsUnique {
                var,
                unique,
                shared,
                ..
            } => Ok(RExpr::IsUnique {
                var: self.slot(var)?,
                unique: Box::new(self.scoped(unique, lambdas)?),
                shared: Box::new(self.scoped(shared, lambdas)?),
            }),
            Expr::TokenOf(v) => Ok(RExpr::TokenOf(self.slot(v)?)),
            Expr::NullToken => Ok(RExpr::NullToken),
        }
    }
}

/// True for the value-producing expressions that cannot call: as a
/// `Let`/`Seq` right-hand side the machine evaluates them within the
/// `Let`'s own step. The native emitter follows the same rule.
pub fn is_simple(e: &RExpr) -> bool {
    matches!(
        e,
        RExpr::Atom(_)
            | RExpr::Prim { .. }
            | RExpr::MkClosure { .. }
            | RExpr::Con { .. }
            | RExpr::TokenOf(_)
            | RExpr::NullToken
            | RExpr::Abort(_)
    )
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

    /// Appends the instructions of one function or lambda body and
    /// returns its entry point.
    fn flatten(&mut self, body: &RExpr) -> Result<Pc, RuntimeError> {
        let entry = self.here()?;
        self.expr(body, Dst::TAIL)?;
        Ok(entry)
    }

    fn here(&self) -> Result<Pc, RuntimeError> {
        index(self.instrs.len())
    }

    fn opnd(&mut self, a: &Atom) -> Result<Opnd, RuntimeError> {
        match a {
            Atom::Slot(s) if *s < Opnd::CONST_BIT => Ok(Opnd(*s)),
            Atom::Slot(_) => Err(RuntimeError::Internal("slot number out of range".into())),
            Atom::Const(v) => {
                let i = index(self.consts.len())?;
                self.consts.push(*v);
                Ok(Opnd(i | Opnd::CONST_BIT))
            }
        }
    }

    fn opnds(&mut self, args: impl IntoIterator<Item = Atom>) -> Result<Span, RuntimeError> {
        let start = self.pool.len();
        for a in args {
            let o = self.opnd(&a)?;
            self.pool.push(o);
        }
        span_from(start, self.pool.len())
    }

    /// Emits a node in current-expression position. `end` is where the
    /// expression's own value goes: [`Dst::TAIL`] or [`Dst::RETURN`].
    fn expr(&mut self, e: &RExpr, end: Dst) -> Result<(), RuntimeError> {
        match e {
            RExpr::Let { slot, rhs, body } => {
                self.bound(rhs, Dst::slot(*slot))?;
                self.expr(body, end)
            }
            RExpr::Seq(a, b) => {
                self.bound(a, Dst::DISCARD)?;
                self.expr(b, end)
            }
            RExpr::Match {
                scrut,
                arms,
                default,
            } => {
                let at = self.instrs.len();
                // The arms of one match are adjacent, so they are laid
                // out before any body (which may hold matches itself).
                let first = self.arms.len();
                for arm in arms {
                    let start = self.binders.len();
                    self.binders
                        .extend(arm.binders.iter().map(|b| b.unwrap_or(NO_SLOT)));
                    self.arms.push(Arm {
                        ctor: arm.ctor,
                        body: NO_PC,
                        binders: span_from(start, self.binders.len())?,
                    });
                }
                self.instrs.push(Instr::Match {
                    scrut: *scrut,
                    arms: span_from(first, self.arms.len())?,
                    default: NO_PC,
                });
                for (i, arm) in arms.iter().enumerate() {
                    self.arms[first + i].body = self.here()?;
                    self.expr(&arm.body, end)?;
                }
                if let Some(d) = default {
                    self.land(at)?;
                    self.expr(d, end)?;
                }
                Ok(())
            }
            RExpr::IsUnique {
                var,
                unique,
                shared,
            } => {
                let at = self.instrs.len();
                self.instrs.push(Instr::IsUnique {
                    var: *var,
                    shared: NO_PC,
                });
                self.expr(unique, end)?;
                self.land(at)?;
                self.expr(shared, end)
            }
            RExpr::Dup(s, rest) => self.then(Instr::Dup(*s), rest, end),
            RExpr::Drop(s, rest) => self.then(Instr::Drop(*s), rest, end),
            RExpr::Free(s, rest) => self.then(Instr::Free(*s), rest, end),
            RExpr::DecRef(s, rest) => self.then(Instr::DecRef(*s), rest, end),
            RExpr::DropToken(s, rest) => self.then(Instr::DropToken(*s), rest, end),
            RExpr::DropReuse { var, token, body } => self.then(
                Instr::DropReuse {
                    var: *var,
                    token: *token,
                },
                body,
                end,
            ),
            leaf => self.leaf(leaf, end),
        }
    }

    fn then(&mut self, i: Instr, rest: &RExpr, end: Dst) -> Result<(), RuntimeError> {
        self.instrs.push(i);
        self.expr(rest, end)
    }

    /// Emits a `Let`/`Seq` right-hand side delivering to `dst`.
    fn bound(&mut self, rhs: &RExpr, dst: Dst) -> Result<(), RuntimeError> {
        if is_simple(rhs) || matches!(rhs, RExpr::Call { .. } | RExpr::App { .. }) {
            return self.leaf(rhs, dst);
        }
        let at = self.instrs.len();
        self.instrs.push(Instr::Enter { dst, body: NO_PC });
        self.expr(rhs, Dst::RETURN)?;
        self.land(at)
    }

    /// Makes the next instruction the jump target of the one at `at`,
    /// which was emitted before its target was known.
    fn land(&mut self, at: usize) -> Result<(), RuntimeError> {
        let pc = self.here()?;
        match &mut self.instrs[at] {
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

    /// Emits a call or a simple expression: one instruction.
    fn leaf(&mut self, e: &RExpr, dst: Dst) -> Result<(), RuntimeError> {
        let i = match e {
            RExpr::Atom(a) => Instr::Atom {
                dst,
                a: self.opnd(a)?,
            },
            RExpr::App { fun, args } => Instr::App {
                dst,
                fun: self.opnd(fun)?,
                args: self.opnds(args.iter().copied())?,
            },
            RExpr::Call { fun, args } => Instr::Call {
                dst,
                fun: *fun,
                args: self.opnds(args.iter().copied())?,
            },
            RExpr::Prim { op, args } => Instr::Prim {
                dst,
                op: *op,
                args: self.opnds(args.iter().copied())?,
            },
            RExpr::MkClosure { lam, captures } => Instr::MkClosure {
                dst,
                lam: *lam,
                captures: self.opnds(captures.iter().map(|s| Atom::Slot(*s)))?,
            },
            RExpr::Con {
                ctor,
                args,
                reuse: None,
                ..
            } => Instr::Con {
                dst,
                ctor: *ctor,
                args: self.opnds(args.iter().copied())?,
            },
            RExpr::Con {
                ctor,
                args,
                reuse: Some(token),
                skip,
            } => {
                let site = index(self.reuse.len())?;
                let args = self.opnds(args.iter().copied())?;
                self.reuse.push(ReuseSite {
                    ctor: *ctor,
                    args,
                    token: *token,
                    skip: skip.clone(),
                });
                Instr::ConReuse { dst, site }
            }
            RExpr::TokenOf(s) => Instr::TokenOf { dst, var: *s },
            RExpr::NullToken => Instr::NullToken { dst },
            RExpr::Abort(msg) => {
                let i = index(self.aborts.len())?;
                self.aborts.push(msg.clone());
                Instr::Abort { msg: i }
            }
            compound => {
                return Err(RuntimeError::Internal(format!(
                    "compound expression in leaf position: {compound:?}"
                )))
            }
        };
        self.instrs.push(i);
        Ok(())
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
        assert!(matches!(c.funs[0].body, RExpr::Atom(Atom::Slot(0))));
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
            c.funs[0].body,
            RExpr::Atom(Atom::Const(Value::Enum(_)))
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
        assert!(matches!(
            c.funs[0].body,
            RExpr::MkClosure { captures: ref cs, .. } if cs == &vec![0]
        ));
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

    fn count_nodes(e: &RExpr, pred: &dyn Fn(&RExpr) -> bool) -> usize {
        let mut n = usize::from(pred(e));
        match e {
            RExpr::Let { rhs, body, .. } => {
                n += count_nodes(rhs, pred) + count_nodes(body, pred);
            }
            RExpr::Seq(a, b) => n += count_nodes(a, pred) + count_nodes(b, pred),
            RExpr::Match { arms, default, .. } => {
                for a in arms {
                    n += count_nodes(&a.body, pred);
                }
                if let Some(d) = default {
                    n += count_nodes(d, pred);
                }
            }
            RExpr::Dup(_, r)
            | RExpr::Drop(_, r)
            | RExpr::Free(_, r)
            | RExpr::DecRef(_, r)
            | RExpr::DropToken(_, r) => n += count_nodes(r, pred),
            RExpr::DropReuse { body, .. } => n += count_nodes(body, pred),
            RExpr::IsUnique { unique, shared, .. } => {
                n += count_nodes(unique, pred) + count_nodes(shared, pred);
            }
            _ => {}
        }
        n
    }

    /// The fully-optimized map compiles exactly one is-unique, one
    /// token-of, one reuse-annotated Con, and no plain drop-reuse.
    #[test]
    fn optimized_map_shape() {
        let c = compile_map(PassConfig::perceus());
        let body = &c.funs[0].body;
        assert_eq!(
            count_nodes(body, &|e| matches!(e, RExpr::IsUnique { .. })),
            1
        );
        assert_eq!(count_nodes(body, &|e| matches!(e, RExpr::TokenOf(_))), 1);
        assert_eq!(
            count_nodes(body, &|e| matches!(e, RExpr::Con { reuse: Some(_), .. })),
            1
        );
        assert_eq!(
            count_nodes(body, &|e| matches!(e, RExpr::DropReuse { .. })),
            0,
            "drop-reuse must be specialized away"
        );
    }

    /// The no-opt build keeps the generic instructions instead.
    #[test]
    fn no_opt_map_shape() {
        let c = compile_map(PassConfig::perceus_no_opt());
        let body = &c.funs[0].body;
        assert_eq!(
            count_nodes(body, &|e| matches!(e, RExpr::IsUnique { .. })),
            0
        );
        assert_eq!(
            count_nodes(body, &|e| matches!(e, RExpr::Con { reuse: Some(_), .. })),
            0
        );
        assert!(count_nodes(body, &|e| matches!(e, RExpr::Drop(..))) >= 1);
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

/// Frame sizing and the instruction ↔ `RExpr` correspondence, on the
/// suite programs.
#[cfg(test)]
mod flat_tests {
    use super::*;
    use perceus_core::passes::{PassConfig, Pipeline};

    fn compile_src(src: &str, config: PassConfig) -> Compiled {
        let p = perceus_lang::compile_str(src).expect("front end");
        compile(&Pipeline::new(config).run(p).expect("passes")).expect("backend")
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
        let RExpr::Match { arms, .. } = &f.body else {
            panic!("{:?}", f.body)
        };
        assert_eq!(arms[0].binders, vec![Some(2)], "a");
        assert_eq!(arms[1].binders, vec![Some(2)], "b shares a's slot");
        let RExpr::Match { arms: inner, .. } = &arms[0].body else {
            panic!("{:?}", arms[0].body)
        };
        assert_eq!(inner[0].binders, vec![Some(3)], "y sits above the live a");
        assert_eq!(inner[1].binders, vec![Some(3)], "z shares y's slot");
        assert!(f.nslots <= 5, "{}", f.nslots);
    }

    /// The nodes the machine charges a step for — the emitter's
    /// `rt.step()` sites: every node except a `Let`/`Seq` right-hand
    /// side that is a call or simple.
    fn cur_nodes(e: &RExpr) -> usize {
        let bound = |rhs: &RExpr| {
            if is_simple(rhs) || matches!(rhs, RExpr::Call { .. } | RExpr::App { .. }) {
                0
            } else {
                cur_nodes(rhs)
            }
        };
        1 + match e {
            RExpr::Let { rhs, body, .. } => bound(rhs) + cur_nodes(body),
            RExpr::Seq(a, b) => bound(a) + cur_nodes(b),
            RExpr::Match { arms, default, .. } => {
                arms.iter().map(|a| cur_nodes(&a.body)).sum::<usize>()
                    + default.as_deref().map_or(0, cur_nodes)
            }
            RExpr::IsUnique { unique, shared, .. } => cur_nodes(unique) + cur_nodes(shared),
            RExpr::Dup(_, r)
            | RExpr::Drop(_, r)
            | RExpr::Free(_, r)
            | RExpr::DecRef(_, r)
            | RExpr::DropToken(_, r)
            | RExpr::DropReuse { body: r, .. } => cur_nodes(r),
            _ => 0,
        }
    }

    /// One instruction per step-charged node, function by function, so
    /// step counts, fuel limits and suspension points are those of the
    /// tree by construction.
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
                let c = compile_src(&src, config);
                // Bodies are laid out back to back: functions in order,
                // then lambdas.
                let mut bodies: Vec<(Pc, &RExpr)> = Vec::new();
                bodies.extend(c.funs.iter().map(|f| (f.entry, &f.body)));
                bodies.extend(c.lambdas.iter().map(|l| (l.entry, &l.body)));
                let ends = bodies
                    .iter()
                    .skip(1)
                    .map(|b| b.0)
                    .chain([c.code.instrs.len() as Pc]);
                for ((entry, body), end) in bodies.iter().zip(ends) {
                    assert_eq!(
                        (end - entry) as usize,
                        cur_nodes(body),
                        "{} at pc {entry}",
                        path.display()
                    );
                }
            }
        }
        assert_eq!(programs, 13);
    }
}
