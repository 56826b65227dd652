//! The expression language of the λ¹ core calculus (Fig. 4 of the paper),
//! extended with the instruction forms produced by the Perceus passes
//! (Fig. 1): `dup`, `drop`, `drop-reuse`, `is-unique`, `free`, `decref`,
//! reuse tokens and constructor-with-reuse.
//!
//! The surface front end produces only the *user fragment* (everything
//! except the reference-counting forms); the passes in
//! [`crate::passes`] introduce the rest. [`Expr::is_user_fragment`]
//! documents the split.

use super::program::{CtorId, FunId};
use super::var::Var;
use std::fmt;

/// Literal values. Literals are *value types* in the sense of §2.7.1 of
/// the paper: they are not heap allocated and take no part in reference
/// counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lit {
    /// Machine integer (Koka's `int` specialized to 63-bit-ish range).
    Int(i64),
    /// The unit value `()`.
    Unit,
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lit::Int(i) => write!(f, "{i}"),
            Lit::Unit => write!(f, "()"),
        }
    }
}

/// Primitive operations on value types, plus the effectful primitives of
/// §2.7 (mutable references, thread sharing, console output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (traps on zero, like Koka's `exn` effect made
    /// explicit).
    Div,
    /// Integer remainder (traps on zero).
    Rem,
    /// Integer negation.
    Neg,
    /// Comparisons; produce the built-in `bool` data type.
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    /// Minimum / maximum of two integers.
    Min,
    Max,
    /// `ref(v)` — allocate a first-class mutable reference cell (§2.7.3).
    RefNew,
    /// `!r` — read a mutable reference (dups the content, per §2.7.3).
    RefGet,
    /// `r := v` — write a mutable reference (drops the old content).
    RefSet,
    /// `tshare(v)` — mark a value and its children as thread-shared so
    /// that subsequent RC operations use the atomic path (§2.7.2).
    TShare,
    /// `println(v)` — print an integer (or unit) to the run's output sink.
    Println,
}

impl PrimOp {
    /// Number of arguments the primitive expects.
    pub fn arity(self) -> usize {
        match self {
            PrimOp::Neg | PrimOp::RefNew | PrimOp::RefGet | PrimOp::TShare | PrimOp::Println => 1,
            PrimOp::Add
            | PrimOp::Sub
            | PrimOp::Mul
            | PrimOp::Div
            | PrimOp::Rem
            | PrimOp::Lt
            | PrimOp::Le
            | PrimOp::Gt
            | PrimOp::Ge
            | PrimOp::Eq
            | PrimOp::Ne
            | PrimOp::Min
            | PrimOp::Max
            | PrimOp::RefSet => 2,
        }
    }

    /// The surface-level name of the primitive.
    pub fn name(self) -> &'static str {
        match self {
            PrimOp::Add => "+",
            PrimOp::Sub => "-",
            PrimOp::Mul => "*",
            PrimOp::Div => "/",
            PrimOp::Rem => "%",
            PrimOp::Neg => "neg",
            PrimOp::Lt => "<",
            PrimOp::Le => "<=",
            PrimOp::Gt => ">",
            PrimOp::Ge => ">=",
            PrimOp::Eq => "==",
            PrimOp::Ne => "!=",
            PrimOp::Min => "min",
            PrimOp::Max => "max",
            PrimOp::RefNew => "ref",
            PrimOp::RefGet => "deref",
            PrimOp::RefSet => ":=",
            PrimOp::TShare => "tshare",
            PrimOp::Println => "println",
        }
    }
}

impl fmt::Display for PrimOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A lambda abstraction.
///
/// Following the paper's `λʸˢ x. e` form, the captured free variables are
/// recorded explicitly: allocating the closure *consumes* one ownership
/// of each capture (rule *lam* / `(lamᵣ)`).
#[derive(Debug, Clone, PartialEq)]
pub struct Lambda {
    /// Parameters (the paper is unary; we allow the obvious n-ary
    /// generalization that Koka and Lean both use).
    pub params: Vec<Var>,
    /// The captured environment `ys` — exactly the free variables of the
    /// lambda, in ascending id order.
    pub captures: Vec<Var>,
    /// The body.
    pub body: Box<Expr>,
}

/// One arm of a flat `match`.
///
/// After lowering, every scrutinee is a variable and every pattern is a
/// single constructor with variable binders (the nested patterns of the
/// surface language are compiled away by the match compiler in
/// `perceus-lang`).
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    /// The constructor this arm matches.
    pub ctor: CtorId,
    /// One binder per field; `None` is a wildcard the arm never names.
    pub binders: Vec<Option<Var>>,
    /// When reuse analysis (§2.4) paired this arm with a constructor
    /// allocation of the same size, the token variable bound by
    /// `drop-reuse` at the start of the arm.
    pub reuse_token: Option<Var>,
    /// The arm body.
    pub body: Expr,
}

/// Expressions of the core language.
///
/// The *user fragment* — what the front end produces — consists of
/// `Var`, `Lit`, `Global`, `App`, `Call`, `Prim`, `Lam`, `Con` (with
/// `reuse: None`), `Let`, `Match` (with `reuse_token: None`), `Seq` and
/// `Abort`. All remaining forms are reference-counting instructions that
/// only the passes introduce; they are rendered with a distinct syntax by
/// the pretty printer, mirroring the paper's gray-background convention.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A variable occurrence. Under the owned calling convention this
    /// *consumes* one ownership of the variable.
    Var(Var),
    /// A literal (value type — never reference counted).
    Lit(Lit),
    /// A reference to a top-level function used as a first-class value.
    /// Globals live for the whole program and are not reference counted.
    Global(FunId),
    /// Indirect application `e(e₁, …, eₙ)` of a closure or global value.
    App(Box<Expr>, Vec<Expr>),
    /// Direct call of a known top-level function (no closure allocation).
    Call(FunId, Vec<Expr>),
    /// Primitive application.
    Prim(PrimOp, Vec<Expr>),
    /// Lambda abstraction (allocates a closure).
    Lam(Lambda),
    /// Constructor application, possibly with a reuse token (`Con@ru` of
    /// §2.4) and, after reuse specialization (§2.5), a `skip` mask
    /// recording which field writes can be elided when the token is
    /// valid because the field already holds exactly that value.
    Con {
        ctor: CtorId,
        args: Vec<Expr>,
        /// Reuse token variable, if reuse analysis attached one.
        reuse: Option<Var>,
        /// `skip[i]` ⇒ when reusing in place, field `i` already contains
        /// `args[i]` and the write is skipped. Empty means "write all".
        skip: Vec<bool>,
    },
    /// `val x = e₁; e₂`.
    Let {
        var: Var,
        rhs: Box<Expr>,
        body: Box<Expr>,
    },
    /// Sequencing `e₁; e₂` (evaluate `e₁` for effect, discard the unit
    /// result). Used for statement-position RC instructions.
    Seq(Box<Expr>, Box<Expr>),
    /// Flat match on a variable. `default` catches any constructor not
    /// listed in `arms` (produced by the match compiler).
    Match {
        scrutinee: Var,
        arms: Vec<Arm>,
        default: Option<Box<Expr>>,
    },
    /// Runtime failure with a message (non-exhaustive match, division by
    /// zero made explicit, …).
    Abort(String),

    // ---- reference-counting instructions (pass-introduced) ----
    /// `dup x; e` — increment the reference count of `x`.
    Dup(Var, Box<Expr>),
    /// `drop x; e` — decrement; free recursively on zero.
    Drop(Var, Box<Expr>),
    /// `val token = drop-reuse x; e` — like `drop`, but when `x` is
    /// unique its memory is returned as a reuse token (§2.4).
    DropReuse {
        var: Var,
        token: Var,
        body: Box<Expr>,
    },
    /// `free x; e` — free the cell of `x` *only* (its children's
    /// ownership has been transferred to the surrounding arm's binders).
    /// Only valid in the unique branch of an [`Expr::IsUnique`].
    Free(Var, Box<Expr>),
    /// `decref x; e` — decrement without the zero check. Only valid in
    /// the shared branch of an [`Expr::IsUnique`] (count is ≥ 2).
    DecRef(Var, Box<Expr>),
    /// `drop-token t; e` — release an unused reuse token (frees the held
    /// memory if the token is valid).
    DropToken(Var, Box<Expr>),
    /// `if is-unique(x) then e₁ else e₂` — the runtime uniqueness test
    /// that drop/drop-reuse specialization expands into (Fig. 1c/1f).
    /// `binders` are the match binders of `x`'s arm whose ownership is
    /// transferred into the unique branch.
    IsUnique {
        var: Var,
        binders: Vec<Var>,
        unique: Box<Expr>,
        shared: Box<Expr>,
    },
    /// `&x` — claim the memory of `x` as a valid reuse token. Only valid
    /// in the unique branch of an [`Expr::IsUnique`] on `x`.
    TokenOf(Var),
    /// The null reuse token (allocate fresh).
    NullToken,
}

impl Expr {
    /// The unit literal.
    pub fn unit() -> Expr {
        Expr::Lit(Lit::Unit)
    }

    /// An integer literal.
    pub fn int(i: i64) -> Expr {
        Expr::Lit(Lit::Int(i))
    }

    /// `val var = rhs; body`.
    pub fn let_(var: Var, rhs: Expr, body: Expr) -> Expr {
        Expr::Let {
            var,
            rhs: Box::new(rhs),
            body: Box::new(body),
        }
    }

    /// `e1; e2`.
    pub fn seq(e1: Expr, e2: Expr) -> Expr {
        Expr::Seq(Box::new(e1), Box::new(e2))
    }

    /// `dup x; e`.
    pub fn dup(x: Var, e: Expr) -> Expr {
        Expr::Dup(x, Box::new(e))
    }

    /// `drop x; e`.
    pub fn drop_(x: Var, e: Expr) -> Expr {
        Expr::Drop(x, Box::new(e))
    }

    /// Wraps `e` in `dup` instructions for each variable (in order).
    pub fn dup_all<I: IntoIterator<Item = Var>>(vars: I, e: Expr) -> Expr
    where
        I::IntoIter: DoubleEndedIterator,
    {
        vars.into_iter().rev().fold(e, |acc, v| Expr::dup(v, acc))
    }

    /// Wraps `e` in `drop` instructions for each variable (in order).
    pub fn drop_all<I: IntoIterator<Item = Var>>(vars: I, e: Expr) -> Expr
    where
        I::IntoIter: DoubleEndedIterator,
    {
        vars.into_iter().rev().fold(e, |acc, v| Expr::drop_(v, acc))
    }

    /// Replaces the expression with `f` of it, in place: the way a pass
    /// puts an instruction in front of a subtree it is rewriting.
    pub(crate) fn wrap(&mut self, f: impl FnOnce(Box<Expr>) -> Expr) {
        let inner = std::mem::replace(self, Expr::NullToken);
        *self = f(Box::new(inner));
    }

    /// True when the expression is an *atom*: a trivial value whose
    /// evaluation allocates nothing and cannot diverge. ANF normalization
    /// ([`crate::passes::normalize`]) arranges for all argument positions
    /// to hold atoms.
    pub fn is_atom(&self) -> bool {
        matches!(self, Expr::Var(_) | Expr::Lit(_) | Expr::Global(_))
    }

    /// True when the expression belongs to the user fragment (contains no
    /// pass-introduced reference-counting instruction anywhere).
    pub fn is_user_fragment(&self) -> bool {
        let mut user = true;
        self.visit(&mut |e| match e {
            Expr::Dup(..)
            | Expr::Drop(..)
            | Expr::DropReuse { .. }
            | Expr::Free(..)
            | Expr::DecRef(..)
            | Expr::DropToken(..)
            | Expr::IsUnique { .. }
            | Expr::TokenOf(_)
            | Expr::NullToken => user = false,
            Expr::Con { reuse, .. } if reuse.is_some() => user = false,
            Expr::Match { arms, .. } if arms.iter().any(|a| a.reuse_token.is_some()) => {
                user = false
            }
            _ => {}
        });
        user
    }

    /// Calls `f` on this expression and every sub-expression, pre-order.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        self.for_each_child(|c| c.visit(f));
    }

    /// Calls `f` on each direct sub-expression, in the order
    /// [`Expr::visit`] meets them.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        match self {
            Expr::Var(_)
            | Expr::Lit(_)
            | Expr::Global(_)
            | Expr::Abort(_)
            | Expr::TokenOf(_)
            | Expr::NullToken => {}
            Expr::App(fun, args) => {
                f(fun);
                args.iter().for_each(f);
            }
            Expr::Call(_, args) | Expr::Prim(_, args) | Expr::Con { args, .. } => {
                args.iter().for_each(f)
            }
            Expr::Lam(lam) => f(&lam.body),
            Expr::Let {
                rhs: a, body: b, ..
            }
            | Expr::Seq(a, b)
            | Expr::IsUnique {
                unique: a,
                shared: b,
                ..
            } => {
                f(a);
                f(b);
            }
            Expr::Match { arms, default, .. } => {
                arms.iter().for_each(|arm| f(&arm.body));
                if let Some(d) = default {
                    f(d);
                }
            }
            Expr::Dup(_, e)
            | Expr::Drop(_, e)
            | Expr::Free(_, e)
            | Expr::DecRef(_, e)
            | Expr::DropToken(_, e)
            | Expr::DropReuse { body: e, .. } => f(e),
        }
    }

    /// Calls `f` on each direct sub-expression, in the order
    /// [`Expr::visit`] meets them.
    pub fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut Expr)) {
        match self {
            Expr::Var(_)
            | Expr::Lit(_)
            | Expr::Global(_)
            | Expr::Abort(_)
            | Expr::TokenOf(_)
            | Expr::NullToken => {}
            Expr::App(fun, args) => {
                f(fun);
                args.iter_mut().for_each(f);
            }
            Expr::Call(_, args) | Expr::Prim(_, args) | Expr::Con { args, .. } => {
                args.iter_mut().for_each(f)
            }
            Expr::Lam(lam) => f(&mut lam.body),
            Expr::Let {
                rhs: a, body: b, ..
            }
            | Expr::Seq(a, b)
            | Expr::IsUnique {
                unique: a,
                shared: b,
                ..
            } => {
                f(a);
                f(b);
            }
            Expr::Match { arms, default, .. } => {
                arms.iter_mut().for_each(|arm| f(&mut arm.body));
                if let Some(d) = default {
                    f(d);
                }
            }
            Expr::Dup(_, e)
            | Expr::Drop(_, e)
            | Expr::Free(_, e)
            | Expr::DecRef(_, e)
            | Expr::DropToken(_, e)
            | Expr::DropReuse { body: e, .. } => f(e),
        }
    }

    /// Counts the nodes of the expression tree (used by the inliner's
    /// size heuristic and by tests).
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Drops the expression a node at a time. Dropping a tree as a whole
    /// recurses once per level, so one deeper than the stack holds (a
    /// body rejected for its depth) is taken apart this way instead.
    pub fn dismantle(self) {
        let mut stack = vec![self];
        while let Some(mut e) = stack.pop() {
            e.for_each_child_mut(|c| stack.push(std::mem::replace(c, Expr::NullToken)));
        }
    }

    /// The number of nodes on the longest path from this expression down
    /// to a leaf. Measured without recursion, so it is safe on a body of
    /// any depth: the passes recurse once per level.
    pub fn depth(&self) -> usize {
        let mut deepest = 0;
        let mut stack = vec![(self, 1)];
        while let Some((e, d)) = stack.pop() {
            deepest = deepest.max(d);
            e.for_each_child(|c| stack.push((c, d + 1)));
        }
        deepest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(id: u32, hint: &str) -> Var {
        Var::new(id, hint)
    }

    #[test]
    fn primop_arities() {
        assert_eq!(PrimOp::Add.arity(), 2);
        assert_eq!(PrimOp::Neg.arity(), 1);
        assert_eq!(PrimOp::Println.arity(), 1);
        assert_eq!(PrimOp::RefSet.arity(), 2);
    }

    #[test]
    fn user_fragment_detection() {
        let x = v(0, "x");
        let plain = Expr::let_(x.clone(), Expr::int(1), Expr::Var(x.clone()));
        assert!(plain.is_user_fragment());
        let with_rc = Expr::dup(x.clone(), plain.clone());
        assert!(!with_rc.is_user_fragment());
        let deep = Expr::let_(
            x.clone(),
            Expr::drop_(x.clone(), Expr::unit()),
            Expr::unit(),
        );
        assert!(!deep.is_user_fragment());
    }

    #[test]
    fn dup_all_preserves_order() {
        let a = v(0, "a");
        let b = v(1, "b");
        let e = Expr::dup_all([a.clone(), b.clone()], Expr::unit());
        match e {
            Expr::Dup(first, rest) => {
                assert_eq!(first, a);
                match *rest {
                    Expr::Dup(second, _) => assert_eq!(second, b),
                    other => panic!("expected inner dup, got {other:?}"),
                }
            }
            other => panic!("expected dup, got {other:?}"),
        }
    }

    #[test]
    fn size_counts_nodes() {
        let x = v(0, "x");
        let e = Expr::let_(x.clone(), Expr::int(1), Expr::Var(x));
        assert_eq!(e.size(), 3);
    }

    #[test]
    fn depth_follows_the_longest_path() {
        let x = v(0, "x");
        assert_eq!(Expr::int(1).depth(), 1);
        // val x = (1; 2); x — the right-hand side is the deeper child.
        let e = Expr::let_(
            x.clone(),
            Expr::seq(Expr::int(1), Expr::int(2)),
            Expr::Var(x.clone()),
        );
        assert_eq!(e.depth(), 3);
        // A chain far deeper than any test thread's stack.
        let chain = (0..200_000).fold(Expr::Var(x.clone()), |e, _| Expr::dup(x.clone(), e));
        assert_eq!(chain.depth(), 200_001);
        chain.dismantle();
    }

    #[test]
    fn atoms() {
        assert!(Expr::int(1).is_atom());
        assert!(Expr::Var(v(0, "x")).is_atom());
        assert!(!Expr::seq(Expr::unit(), Expr::unit()).is_atom());
    }
}
