//! The surface abstract syntax tree. Every name in it is a [`Sym`] of
//! the program's name table.

use crate::error::Span;
use crate::names::{Names, Sym};

/// A whole source file.
#[derive(Debug, Clone, Default)]
pub struct SProgram {
    /// The text of every name the tree holds.
    pub names: Names,
    /// `type` declarations, in source order.
    pub types: Vec<STypeDef>,
    /// `fun` definitions, in source order.
    pub funs: Vec<SFunDef>,
}

/// A data type declaration.
#[derive(Debug, Clone)]
pub struct STypeDef {
    pub name: Sym,
    /// Type parameters, e.g. `a` in `type list<a>`.
    pub params: Vec<Sym>,
    pub ctors: Vec<SCtorDef>,
    pub span: Span,
}

/// One constructor of a data type.
#[derive(Debug, Clone)]
pub struct SCtorDef {
    pub name: Sym,
    /// Fields: optional name plus type.
    pub fields: Vec<(Option<Sym>, SType)>,
    pub span: Span,
}

/// Surface types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SType {
    /// A named type, possibly applied: `int`, `list<a>`, `ref<int>`.
    /// Type *variables* are lower-case names that are not declared data
    /// types; the resolver decides.
    Name(Sym, Vec<SType>),
    /// Function type `(t1, …, tn) -> t`.
    Fn(Vec<SType>, Box<SType>),
    /// `()`.
    Unit,
}

/// One function parameter.
#[derive(Debug, Clone)]
pub struct SParam {
    pub name: Sym,
    /// Optional type annotation.
    pub ann: Option<SType>,
    /// `borrow` modifier (§6 / Lean's `@&`): the caller keeps ownership
    /// for the duration of the call. Always sound — a consuming use
    /// inside the body simply retains first — but surrenders the
    /// garbage-free property for this parameter.
    pub borrowed: bool,
}

/// A function definition.
#[derive(Debug, Clone)]
pub struct SFunDef {
    pub name: Sym,
    /// Parameters.
    pub params: Vec<SParam>,
    /// Optional result type annotation.
    pub ret: Option<SType>,
    pub body: SExpr,
    pub span: Span,
}

/// Binary operators of the surface language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
    /// `r := v` (mutable reference assignment).
    Assign,
}

/// Surface expressions.
#[derive(Debug, Clone)]
pub enum SExpr {
    /// Lower-case identifier: local variable, parameter, or top-level
    /// function reference.
    Var(Sym, Span),
    /// Upper-case identifier: constructor (possibly applied by `Call`).
    Con(Sym, Span),
    /// Integer literal.
    Int(i64, Span),
    /// `()`.
    Unit(Span),
    /// Application `e(e1, …, en)`.
    Call(Box<SExpr>, Vec<SExpr>, Span),
    /// Binary operation (desugared by lowering).
    Binop(BinOp, Box<SExpr>, Box<SExpr>, Span),
    /// Unary minus.
    Neg(Box<SExpr>, Span),
    /// Dereference `!e`.
    Deref(Box<SExpr>, Span),
    /// `if c then a elif c2 then b else d` (else optional only for
    /// unit-typed branches; the parser requires it).
    If(Box<SExpr>, Box<SExpr>, Box<SExpr>, Span),
    /// `match e { pat -> body … }`.
    Match(Box<SExpr>, Vec<SArm>, Span),
    /// `{ stmt; …; tail }`.
    Block(Vec<SStmt>, Box<SExpr>, Span),
    /// `fn(x, y) { body }`.
    Lam(Vec<Sym>, Box<SExpr>, Span),
}

impl SExpr {
    /// The source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            SExpr::Var(_, s)
            | SExpr::Con(_, s)
            | SExpr::Int(_, s)
            | SExpr::Unit(s)
            | SExpr::Call(_, _, s)
            | SExpr::Binop(_, _, _, s)
            | SExpr::Neg(_, s)
            | SExpr::Deref(_, s)
            | SExpr::If(_, _, _, s)
            | SExpr::Match(_, _, s)
            | SExpr::Block(_, _, s)
            | SExpr::Lam(_, _, s) => *s,
        }
    }
}

/// A statement inside a block.
#[derive(Debug, Clone)]
pub enum SStmt {
    /// `val x = e`.
    Val(Sym, SExpr, Span),
    /// An expression evaluated for its effect.
    Expr(SExpr),
}

/// A match arm with a (possibly nested) pattern.
#[derive(Debug, Clone)]
pub struct SArm {
    pub pattern: SPat,
    pub body: SExpr,
    pub span: Span,
}

/// Surface patterns. Nested patterns are compiled to flat matches by the
/// match compiler in [`crate::lower`].
#[derive(Debug, Clone)]
pub enum SPat {
    /// `_`.
    Wild(Span),
    /// A variable binder.
    Var(Sym, Span),
    /// An integer literal (`match n { 0 -> …; _ -> … }`).
    Int(i64, Span),
    /// `Cons(p1, …, pn)`; fields may be omitted entirely (`Node` as a
    /// shorthand for `Node(_, …, _)`, like the paper's `Node(Red)`
    /// prefix patterns — trailing fields default to wildcards).
    Ctor(Sym, Vec<SPat>, Span),
}

impl SPat {
    /// The source span of the pattern.
    pub fn span(&self) -> Span {
        match self {
            SPat::Wild(s) | SPat::Var(_, s) | SPat::Int(_, s) | SPat::Ctor(_, _, s) => *s,
        }
    }
}
