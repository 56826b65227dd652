//! Hindley–Milner type inference for the surface language.
//!
//! Koka's effect rows are out of scope for this reproduction (the paper
//! takes the *output* of effect compilation as its starting point — see
//! DESIGN.md), so this is classic HM: unification with let-polymorphism,
//! generalizing top-level functions per strongly-connected component of
//! the call graph (monomorphic recursion inside an SCC), components taken
//! callees first in the order of `perceus_core::ir::callgraph::sccs`.
//!
//! Types live in one arena per program: a type is a `TyId`, a node's
//! children are a run of ids, and a unification variable is a node whose
//! binding is a link — union-find with path compression, so following a
//! substitution never copies a type. A scheme's body is a type whose
//! quantified variables are `Node::Gen` indices; instantiating one
//! copies the body once with fresh variables for them, and a scheme with
//! no quantified variables is shared as it is.
//!
//! Inference is a pure checker: lowering does not depend on inferred
//! types (the match compiler derives constructor signatures from the
//! patterns themselves), so a program that fails here never reaches the
//! backend.

use crate::ast::*;
use crate::error::{LangError, Span};
use crate::names::{Names, Scope, Sym};
use crate::resolve::{Builtin, Symbols};
use perceus_core::ir::callgraph::sccs;
use perceus_core::ir::{DataId, FunId, TypeTable};

/// A type: an index into the [`Arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TyId(u32);

/// One type constructor of the arena.
#[derive(Debug, Clone, Copy)]
enum Node {
    /// Unification variable `n`, printed `tn`; free while `links[n]` is
    /// [`NONE`].
    Var(u32),
    /// The `i`th quantified variable of the scheme the node belongs to.
    Gen(u32),
    Int,
    Unit,
    /// A data type applied to the `len` types at `kids[start..]` (bool
    /// is `Data(TypeTable::BOOL, _, 0)`).
    Data(DataId, u32, u32),
    /// A function of the `len` parameter types at `kids[start..]`; its
    /// result follows them.
    Fn(u32, u32),
    /// A mutable reference (§2.7.3).
    Ref(TyId),
}

const INT: TyId = TyId(0);
const UNIT: TyId = TyId(1);
const BOOL: TyId = TyId(2);
/// The link of a free variable.
const NONE: TyId = TyId(u32::MAX);

/// Every type of one program.
struct Arena {
    nodes: Vec<Node>,
    /// Per node: an occurs check found no free variable under it. No
    /// binding can undo that, so later checks stop there.
    ground: Vec<bool>,
    /// The children of `Data` and `Fn` nodes, a run per node.
    kids: Vec<TyId>,
    /// What each unification variable is bound to, by number.
    links: Vec<TyId>,
}

impl Arena {
    fn new() -> Self {
        Arena {
            nodes: vec![Node::Int, Node::Unit, Node::Data(TypeTable::BOOL, 0, 0)],
            ground: vec![true; 3],
            kids: Vec::new(),
            links: Vec::new(),
        }
    }

    fn node(&self, t: TyId) -> Node {
        self.nodes[t.0 as usize]
    }

    fn kid(&self, start: u32, i: u32) -> TyId {
        self.kids[(start + i) as usize]
    }

    fn push(&mut self, n: Node) -> TyId {
        self.nodes.push(n);
        self.ground.push(false);
        TyId(self.nodes.len() as u32 - 1)
    }

    fn fresh(&mut self) -> TyId {
        self.links.push(NONE);
        self.push(Node::Var(self.links.len() as u32 - 1))
    }

    fn data(&mut self, d: DataId, args: &[TyId]) -> TyId {
        let start = self.kids.len() as u32;
        self.kids.extend_from_slice(args);
        self.push(Node::Data(d, start, args.len() as u32))
    }

    fn fun(&mut self, params: &[TyId], ret: TyId) -> TyId {
        let start = self.kids.len() as u32;
        self.kids.extend_from_slice(params);
        self.kids.push(ret);
        self.push(Node::Fn(start, params.len() as u32))
    }

    /// The type `t` stands for: past every bound variable, each of which
    /// is relinked straight to it.
    fn find(&mut self, t: TyId) -> TyId {
        let mut root = t;
        while let Node::Var(v) = self.node(root) {
            match self.links[v as usize] {
                NONE => break,
                next => root = next,
            }
        }
        let mut t = t;
        while t != root {
            let Node::Var(v) = self.node(t) else { break };
            t = std::mem::replace(&mut self.links[v as usize], root);
        }
        root
    }

    fn occurs(&mut self, v: u32, t: TyId) -> bool {
        self.scan(v, t).is_err()
    }

    /// `Err` when the free variable `v` occurs in `t`; otherwise whether
    /// `t` holds no free variable at all, which is recorded in `ground`.
    fn scan(&mut self, v: u32, t: TyId) -> Result<bool, ()> {
        let t = self.find(t);
        if self.ground[t.0 as usize] {
            return Ok(true);
        }
        let ground = match self.node(t) {
            Node::Var(w) if v == w => return Err(()),
            Node::Var(_) => false,
            Node::Gen(_) | Node::Int | Node::Unit => true,
            Node::Data(_, start, len) => self.scan_kids(v, start, len)?,
            Node::Fn(start, len) => self.scan_kids(v, start, len + 1)?,
            Node::Ref(t) => self.scan(v, t)?,
        };
        self.ground[t.0 as usize] = ground;
        Ok(ground)
    }

    fn scan_kids(&mut self, v: u32, start: u32, len: u32) -> Result<bool, ()> {
        let mut ground = true;
        for i in 0..len {
            ground &= self.scan(v, self.kid(start, i))?;
        }
        Ok(ground)
    }

    fn unify(&mut self, a: TyId, b: TyId, span: Span, names: &TypeTable) -> Result<(), LangError> {
        let a = self.find(a);
        let b = self.find(b);
        if a == b {
            return Ok(());
        }
        match (self.node(a), self.node(b)) {
            (Node::Var(v), _) => self.bind(v, b, span, names),
            (_, Node::Var(v)) => self.bind(v, a, span, names),
            (Node::Int, Node::Int) | (Node::Unit, Node::Unit) => Ok(()),
            (Node::Data(d1, s1, n1), Node::Data(d2, s2, n2)) if d1 == d2 && n1 == n2 => {
                for i in 0..n1 {
                    self.unify(self.kid(s1, i), self.kid(s2, i), span, names)?;
                }
                Ok(())
            }
            // The parameters, then the results.
            (Node::Fn(s1, n1), Node::Fn(s2, n2)) if n1 == n2 => {
                for i in 0..=n1 {
                    self.unify(self.kid(s1, i), self.kid(s2, i), span, names)?;
                }
                Ok(())
            }
            (Node::Ref(x), Node::Ref(y)) => self.unify(x, y, span, names),
            _ => Err(LangError::ty(
                format!(
                    "type mismatch: expected {}, found {}",
                    self.show(a, names),
                    self.show(b, names)
                ),
                span,
            )),
        }
    }

    /// Binds the free variable `v` to `t`.
    fn bind(&mut self, v: u32, t: TyId, span: Span, names: &TypeTable) -> Result<(), LangError> {
        if self.occurs(v, t) {
            return Err(LangError::ty(
                format!("infinite type: t{v} occurs in {}", self.show(t, names)),
                span,
            ));
        }
        self.links[v as usize] = t;
        Ok(())
    }

    /// Renders a type for error messages.
    fn show(&mut self, t: TyId, names: &TypeTable) -> String {
        let t = self.find(t);
        let list = |a: &mut Arena, start: u32, len: u32| -> String {
            let parts: Vec<String> = (0..len).map(|i| a.show(a.kid(start, i), names)).collect();
            parts.join(", ")
        };
        match self.node(t) {
            Node::Var(v) => format!("t{v}"),
            Node::Gen(i) => format!("'{i}"),
            Node::Int => "int".into(),
            Node::Unit => "unit".into(),
            Node::Data(d, _, 0) => names.data(d).name.to_string(),
            Node::Data(d, start, len) => {
                format!("{}<{}>", names.data(d).name, list(self, start, len))
            }
            Node::Fn(start, len) => {
                let params = list(self, start, len);
                format!("({params}) -> {}", self.show(self.kid(start, len), names))
            }
            Node::Ref(t) => format!("ref<{}>", self.show(t, names)),
        }
    }
}

/// A polymorphic type: `ty` with `Gen(0)` to `Gen(vars - 1)` quantified.
#[derive(Debug, Clone, Copy)]
struct Scheme {
    ty: TyId,
    vars: u32,
}

/// What inference knows of a top-level function.
#[derive(Debug, Clone, Copy)]
enum FunTy {
    /// Its component is still to come.
    Unknown,
    /// Its component is being inferred: one type for every use.
    Mono(TyId),
    /// Generalized.
    Poly(Scheme),
}

/// Type-checks a resolved program.
pub fn check(p: &SProgram, syms: &Symbols) -> Result<(), LangError> {
    let mut cx = Cx::new(p, syms);
    for group in sccs(&mentions(p, syms)) {
        // Monotypes for the group.
        for &f in &group {
            let fd = &p.funs[f.0 as usize];
            cx.tyvars.clear();
            let base = cx.scratch.len();
            for par in &fd.params {
                let t = match &par.ann {
                    Some(t) => cx.conv(t, fd.span)?,
                    None => cx.arena.fresh(),
                };
                cx.scratch.push(t);
            }
            let ret = match &fd.ret {
                Some(t) => cx.conv(t, fd.span)?,
                None => cx.arena.fresh(),
            };
            let mono = cx.arena.fun(&cx.scratch[base..], ret);
            cx.scratch.truncate(base);
            cx.funs[f.0 as usize] = FunTy::Mono(mono);
        }
        // Infer bodies.
        for &f in &group {
            let fd = &p.funs[f.0 as usize];
            let FunTy::Mono(mono) = cx.funs[f.0 as usize] else {
                unreachable!("set above")
            };
            let Node::Fn(start, len) = cx.arena.node(mono) else {
                unreachable!("a function type")
            };
            let mark = cx.env.enter();
            for (i, par) in fd.params.iter().enumerate() {
                cx.env.bind(par.name, cx.arena.kid(start, i as u32));
            }
            let t = cx.expr(&fd.body)?;
            cx.env.leave(mark);
            let ret = cx.arena.kid(start, len);
            cx.arena.unify(t, ret, fd.body.span(), &syms.types)?;
        }
        // Generalize.
        for &f in &group {
            if let FunTy::Mono(mono) = cx.funs[f.0 as usize] {
                cx.funs[f.0 as usize] = FunTy::Poly(cx.generalize(mono));
            }
        }
    }
    Ok(())
}

/// For each function, the functions its body names, each once, in the
/// order it first names them. A local that shadows a function adds an
/// edge too: extra edges only coarsen generalization.
fn mentions(p: &SProgram, syms: &Symbols) -> Vec<Vec<FunId>> {
    fn walk(e: &SExpr, found: &mut impl FnMut(Sym)) {
        match e {
            SExpr::Var(name, _) => found(*name),
            SExpr::Con(..) | SExpr::Int(..) | SExpr::Unit(_) => {}
            SExpr::Call(f, args, _) => {
                walk(f, found);
                args.iter().for_each(|a| walk(a, found));
            }
            SExpr::Binop(_, a, b, _) => {
                walk(a, found);
                walk(b, found);
            }
            SExpr::Neg(a, _) | SExpr::Deref(a, _) => walk(a, found),
            SExpr::If(c, t, f, _) => {
                walk(c, found);
                walk(t, found);
                walk(f, found);
            }
            SExpr::Match(s, arms, _) => {
                walk(s, found);
                arms.iter().for_each(|a| walk(&a.body, found));
            }
            SExpr::Block(stmts, tail, _) => {
                for s in stmts {
                    match s {
                        SStmt::Val(_, rhs, _) => walk(rhs, found),
                        SStmt::Expr(e) => walk(e, found),
                    }
                }
                walk(tail, found);
            }
            SExpr::Lam(_, body, _) => walk(body, found),
        }
    }
    // `seen[g] == i + 1` once function `i` has named `g`.
    let mut seen = vec![0u32; p.funs.len()];
    let mut edges = Vec::with_capacity(p.funs.len());
    for (i, fd) in p.funs.iter().enumerate() {
        let mut out = Vec::new();
        walk(&fd.body, &mut |name| {
            if let Some((g, _)) = syms.fun(name) {
                if seen[g.0 as usize] != i as u32 + 1 {
                    seen[g.0 as usize] = i as u32 + 1;
                    out.push(g);
                }
            }
        });
        edges.push(out);
    }
    edges
}

struct Cx<'a> {
    syms: &'a Symbols,
    names: &'a Names,
    arena: Arena,
    /// The children of the nodes being built, one run per build in
    /// progress, innermost last.
    scratch: Vec<TyId>,
    /// The fresh variables of the scheme being instantiated.
    inst: Vec<TyId>,
    /// The variables of the generalization in progress, in the order it
    /// met them.
    quantified: Vec<u32>,
    /// The type variables of the signature being converted.
    tyvars: Vec<(Sym, TyId)>,
    /// The types of the locals in scope.
    env: Scope<TyId>,
    /// Constructor schemes, by `CtorId`.
    ctors: Vec<Scheme>,
    /// By `FunId`.
    funs: Vec<FunTy>,
    /// The builtins' types that have no variables.
    println: TyId,
    not: TyId,
    min_max: TyId,
}

impl<'a> Cx<'a> {
    /// A checker for `p` holding every constructor's scheme.
    fn new(p: &'a SProgram, syms: &'a Symbols) -> Self {
        let mut arena = Arena::new();
        let println = arena.fun(&[INT], UNIT);
        let not = arena.fun(&[BOOL], BOOL);
        let min_max = arena.fun(&[INT, INT], INT);
        let mut cx = Cx {
            syms,
            names: &p.names,
            arena,
            scratch: Vec::new(),
            inst: Vec::new(),
            quantified: Vec::new(),
            tyvars: Vec::new(),
            env: Scope::new(p.names.len()),
            // `False` and `True`.
            ctors: vec![Scheme { ty: BOOL, vars: 0 }; 2],
            funs: vec![FunTy::Unknown; p.funs.len()],
            println,
            not,
            min_max,
        };
        // User constructors follow bool's, in declaration order.
        for td in &p.types {
            let data = syms.data(td.name).expect("resolved");
            let gens: Vec<TyId> = (0..td.params.len() as u32)
                .map(|i| cx.arena.push(Node::Gen(i)))
                .collect();
            let result = cx.arena.data(data, &gens);
            for cd in &td.ctors {
                let ty = if cd.fields.is_empty() {
                    result
                } else {
                    let base = cx.scratch.len();
                    for (_, ft) in &cd.fields {
                        let t = cx.conv_rigid(ft, &td.params);
                        cx.scratch.push(t);
                    }
                    let ty = cx.arena.fun(&cx.scratch[base..], result);
                    cx.scratch.truncate(base);
                    ty
                };
                cx.ctors.push(Scheme {
                    ty,
                    vars: td.params.len() as u32,
                });
            }
        }
        cx
    }

    fn text(&self, s: Sym) -> &'a str {
        self.names.text(s)
    }

    fn unify(&mut self, a: TyId, b: TyId, span: Span) -> Result<(), LangError> {
        self.arena.unify(a, b, span, &self.syms.types)
    }

    /// Converts a constructor field's type, in which the data type's
    /// parameters are the scheme's quantified variables.
    fn conv_rigid(&mut self, t: &SType, params: &[Sym]) -> TyId {
        match t {
            SType::Unit => UNIT,
            SType::Fn(args, ret) => {
                let base = self.scratch.len();
                for a in args {
                    let t = self.conv_rigid(a, params);
                    self.scratch.push(t);
                }
                let ret = self.conv_rigid(ret, params);
                let t = self.arena.fun(&self.scratch[base..], ret);
                self.scratch.truncate(base);
                t
            }
            SType::Name(name, args) => match *name {
                Sym::INT => INT,
                Sym::UNIT => UNIT,
                Sym::REF if !args.is_empty() => {
                    let inner = self.conv_rigid(&args[0], params);
                    self.arena.push(Node::Ref(inner))
                }
                _ => {
                    if let Some(i) = params.iter().position(|p| p == name) {
                        self.arena.push(Node::Gen(i as u32))
                    } else {
                        let d = self.syms.data(*name).expect("resolved");
                        let base = self.scratch.len();
                        for a in args {
                            let t = self.conv_rigid(a, params);
                            self.scratch.push(t);
                        }
                        let t = self.arena.data(d, &self.scratch[base..]);
                        self.scratch.truncate(base);
                        t
                    }
                }
            },
        }
    }

    /// Converts an annotation; unknown *unapplied* lower-case names
    /// become flexible signature variables (lenient checking; see module
    /// docs), while an unknown name with type arguments is an error.
    fn conv(&mut self, t: &SType, span: Span) -> Result<TyId, LangError> {
        Ok(match t {
            SType::Unit => UNIT,
            SType::Fn(args, ret) => {
                let base = self.scratch.len();
                for a in args {
                    let t = self.conv(a, span)?;
                    self.scratch.push(t);
                }
                let ret = self.conv(ret, span)?;
                let t = self.arena.fun(&self.scratch[base..], ret);
                self.scratch.truncate(base);
                t
            }
            SType::Name(name, args) => match *name {
                Sym::INT => INT,
                Sym::UNIT => UNIT,
                Sym::REF => {
                    let Some(arg) = args.first() else {
                        return Err(LangError::ty(
                            "type `ref` expects 1 parameters, got 0".into(),
                            span,
                        ));
                    };
                    let inner = self.conv(arg, span)?;
                    self.arena.push(Node::Ref(inner))
                }
                _ => {
                    if let Some(d) = self.syms.data(*name) {
                        let params = self.syms.params[d.0 as usize].len();
                        if params != args.len() {
                            return Err(LangError::ty(
                                format!(
                                    "type `{}` expects {params} parameters, got {}",
                                    self.text(*name),
                                    args.len()
                                ),
                                span,
                            ));
                        }
                        let base = self.scratch.len();
                        for a in args {
                            let t = self.conv(a, span)?;
                            self.scratch.push(t);
                        }
                        let t = self.arena.data(d, &self.scratch[base..]);
                        self.scratch.truncate(base);
                        t
                    } else if args.is_empty() {
                        match self.tyvars.iter().find(|(n, _)| n == name) {
                            Some(&(_, t)) => t,
                            None => {
                                let t = self.arena.fresh();
                                self.tyvars.push((*name, t));
                                t
                            }
                        }
                    } else {
                        return Err(LangError::ty(
                            format!("unknown type `{}`", self.text(*name)),
                            span,
                        ));
                    }
                }
            },
        })
    }

    /// The scheme's type with fresh variables for its quantified ones.
    fn instantiate(&mut self, s: Scheme) -> TyId {
        if s.vars == 0 {
            return s.ty;
        }
        self.inst.clear();
        for _ in 0..s.vars {
            let v = self.arena.fresh();
            self.inst.push(v);
        }
        self.copy(s.ty, false)
    }

    /// The scheme of a function's inferred type: every variable left in
    /// it quantified, in the order a left-to-right walk meets them.
    fn generalize(&mut self, t: TyId) -> Scheme {
        self.quantified.clear();
        let ty = self.copy(t, true);
        Scheme {
            ty,
            vars: self.quantified.len() as u32,
        }
    }

    /// A copy of `t` that instantiates (`quantify: false`) or quantifies
    /// (`true`) its variables. Leaves without variables are shared.
    fn copy(&mut self, t: TyId, quantify: bool) -> TyId {
        let t = if quantify { self.arena.find(t) } else { t };
        match self.arena.node(t) {
            Node::Gen(i) if !quantify => self.inst[i as usize],
            Node::Var(v) if quantify => {
                let i = match self.quantified.iter().position(|&w| w == v) {
                    Some(i) => i,
                    None => {
                        self.quantified.push(v);
                        self.quantified.len() - 1
                    }
                };
                self.arena.push(Node::Gen(i as u32))
            }
            Node::Var(_) | Node::Gen(_) | Node::Int | Node::Unit | Node::Data(_, _, 0) => t,
            Node::Data(d, start, len) => {
                let base = self.scratch.len();
                for i in 0..len {
                    let k = self.copy(self.arena.kid(start, i), quantify);
                    self.scratch.push(k);
                }
                let t = self.arena.data(d, &self.scratch[base..]);
                self.scratch.truncate(base);
                t
            }
            Node::Fn(start, len) => {
                let base = self.scratch.len();
                for i in 0..len {
                    let k = self.copy(self.arena.kid(start, i), quantify);
                    self.scratch.push(k);
                }
                let ret = self.copy(self.arena.kid(start, len), quantify);
                let t = self.arena.fun(&self.scratch[base..], ret);
                self.scratch.truncate(base);
                t
            }
            Node::Ref(inner) => {
                let inner = self.copy(inner, quantify);
                self.arena.push(Node::Ref(inner))
            }
        }
    }

    fn builtin_type(&mut self, b: Builtin) -> TyId {
        match b {
            Builtin::Println => self.println,
            Builtin::RefNew => {
                let a = self.arena.fresh();
                let r = self.arena.push(Node::Ref(a));
                self.arena.fun(&[a], r)
            }
            Builtin::TShare => {
                let a = self.arena.fresh();
                self.arena.fun(&[a], UNIT)
            }
            Builtin::Not => self.not,
            Builtin::Min | Builtin::Max => self.min_max,
        }
    }

    fn lookup_var(&mut self, name: Sym, span: Span) -> Result<TyId, LangError> {
        if let Some(&t) = self.env.get(name) {
            return Ok(t);
        }
        if let Some((f, _)) = self.syms.fun(name) {
            match self.funs[f.0 as usize] {
                FunTy::Mono(t) => return Ok(t),
                FunTy::Poly(s) => return Ok(self.instantiate(s)),
                FunTy::Unknown => {}
            }
        }
        if let Some(b) = Builtin::of(name) {
            return Ok(self.builtin_type(b));
        }
        Err(LangError::ty(
            format!("unbound variable `{}`", self.text(name)),
            span,
        ))
    }

    fn ctor_scheme(&self, name: Sym, span: Span) -> Result<Scheme, LangError> {
        match self.syms.ctor(name) {
            Some(c) => Ok(self.ctors[c.0 as usize]),
            None => Err(LangError::ty(
                format!("unknown constructor `{}`", self.text(name)),
                span,
            )),
        }
    }

    fn expr(&mut self, e: &SExpr) -> Result<TyId, LangError> {
        match e {
            SExpr::Int(_, _) => Ok(INT),
            SExpr::Unit(_) => Ok(UNIT),
            SExpr::Var(name, span) => self.lookup_var(*name, *span),
            SExpr::Con(name, span) => {
                let s = self.ctor_scheme(*name, *span)?;
                Ok(self.instantiate(s))
            }
            SExpr::Call(f, args, span) => {
                let tf = self.expr(f)?;
                let base = self.scratch.len();
                for a in args {
                    let t = self.expr(a)?;
                    self.scratch.push(t);
                }
                let ret = self.arena.fresh();
                let call = self.arena.fun(&self.scratch[base..], ret);
                self.scratch.truncate(base);
                self.unify(tf, call, *span)?;
                Ok(ret)
            }
            SExpr::Binop(op, a, b, span) => {
                let ta = self.expr(a)?;
                let tb = self.expr(b)?;
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                        self.unify(ta, INT, a.span())?;
                        self.unify(tb, INT, b.span())?;
                        Ok(INT)
                    }
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
                        self.unify(ta, INT, a.span())?;
                        self.unify(tb, INT, b.span())?;
                        Ok(BOOL)
                    }
                    BinOp::And | BinOp::Or => {
                        self.unify(ta, BOOL, a.span())?;
                        self.unify(tb, BOOL, b.span())?;
                        Ok(BOOL)
                    }
                    BinOp::Assign => {
                        let r = self.arena.push(Node::Ref(tb));
                        self.unify(ta, r, *span)?;
                        Ok(UNIT)
                    }
                }
            }
            SExpr::Neg(inner, _) => {
                let t = self.expr(inner)?;
                self.unify(t, INT, inner.span())?;
                Ok(INT)
            }
            SExpr::Deref(inner, span) => {
                let t = self.expr(inner)?;
                let a = self.arena.fresh();
                let r = self.arena.push(Node::Ref(a));
                self.unify(t, r, *span)?;
                Ok(a)
            }
            SExpr::If(c, t, f, _) => {
                let tc = self.expr(c)?;
                self.unify(tc, BOOL, c.span())?;
                let tt = self.expr(t)?;
                let tf = self.expr(f)?;
                self.unify(tt, tf, f.span())?;
                Ok(tt)
            }
            SExpr::Match(scrut, arms, span) => {
                let ts = self.expr(scrut)?;
                let result = self.arena.fresh();
                if arms.is_empty() {
                    return Err(LangError::ty("empty match".into(), *span));
                }
                for arm in arms {
                    let mark = self.env.enter();
                    self.pattern(&arm.pattern, ts)?;
                    let tb = self.expr(&arm.body)?;
                    self.env.leave(mark);
                    self.unify(tb, result, arm.body.span())?;
                }
                Ok(result)
            }
            SExpr::Block(stmts, tail, _) => {
                let mark = self.env.enter();
                for s in stmts {
                    match s {
                        SStmt::Val(name, rhs, _) => {
                            let t = self.expr(rhs)?;
                            self.env.bind(*name, t);
                        }
                        SStmt::Expr(e) => {
                            self.expr(e)?; // value discarded
                        }
                    }
                }
                let t = self.expr(tail);
                self.env.leave(mark);
                t
            }
            SExpr::Lam(params, body, _) => {
                let base = self.scratch.len();
                let mark = self.env.enter();
                for &p in params {
                    let t = self.arena.fresh();
                    self.scratch.push(t);
                    self.env.bind(p, t);
                }
                let ret = self.expr(body)?;
                self.env.leave(mark);
                let t = self.arena.fun(&self.scratch[base..], ret);
                self.scratch.truncate(base);
                Ok(t)
            }
        }
    }

    fn pattern(&mut self, p: &SPat, expected: TyId) -> Result<(), LangError> {
        match p {
            SPat::Wild(_) => Ok(()),
            SPat::Var(name, _) => {
                self.env.bind(*name, expected);
                Ok(())
            }
            SPat::Int(_, span) => self.unify(expected, INT, *span),
            SPat::Ctor(name, subpats, span) => {
                let s = self.ctor_scheme(*name, *span)?;
                let inst = self.instantiate(s);
                let (start, fields, result) = match self.arena.node(inst) {
                    Node::Fn(start, len) => (start, len, self.arena.kid(start, len)),
                    _ => (0, 0, inst),
                };
                self.unify(expected, result, *span)?;
                if subpats.len() > fields as usize {
                    return Err(LangError::ty(
                        format!(
                            "constructor `{}` has {fields} fields, pattern has {}",
                            self.text(*name),
                            subpats.len()
                        ),
                        *span,
                    ));
                }
                // Prefix patterns: trailing fields are wildcards (the
                // paper's `Node(Red)` idiom).
                for (i, sub) in subpats.iter().enumerate() {
                    self.pattern(sub, self.arena.kid(start, i as u32))?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::resolve::resolve;

    fn check_src(src: &str) -> Result<(), LangError> {
        let p = parse(src).unwrap();
        let syms = resolve(&p)?;
        check(&p, &syms)
    }

    #[test]
    fn accepts_polymorphic_map() {
        check_src(
            r#"
type list<a> { Nil; Cons(head: a, tail: list<a>) }
fun map(xs: list<a>, f: (a) -> b): list<b> {
  match xs {
    Cons(x, xx) -> Cons(f(x), map(xx, f))
    Nil -> Nil
  }
}
fun main(): list<int> {
  map(Cons(1, Nil), fn(x) { x + 1 })
}
"#,
        )
        .unwrap();
    }

    #[test]
    fn polymorphic_function_used_at_two_types() {
        check_src(
            r#"
type list<a> { Nil; Cons(head: a, tail: list<a>) }
fun len(xs: list<a>): int {
  match xs {
    Cons(_, xx) -> 1 + len(xx)
    Nil -> 0
  }
}
fun main(): int {
  len(Cons(1, Nil)) + len(Cons(True, Nil))
}
"#,
        )
        .unwrap();
    }

    #[test]
    fn rejects_type_mismatch() {
        let err = check_src("fun f(): int { 1 + True }").unwrap_err();
        assert!(err.message.contains("mismatch"), "{err}");
    }

    #[test]
    fn rejects_branch_mismatch() {
        let err = check_src("fun f(x: bool): int { if x then 1 else False }").unwrap_err();
        assert!(err.message.contains("mismatch"), "{err}");
    }

    #[test]
    fn rejects_unbound_variable() {
        let err = check_src("fun f(): int { ghost }").unwrap_err();
        assert!(err.message.contains("unbound"), "{err}");
    }

    #[test]
    fn infers_without_annotations() {
        check_src(
            r#"
fun add3(x) { x + 3 }
fun main() { add3(4) }
"#,
        )
        .unwrap();
    }

    #[test]
    fn mutual_recursion() {
        check_src(
            r#"
fun even(n: int): bool { if n == 0 then True else odd(n - 1) }
fun odd(n: int): bool { if n == 0 then False else even(n - 1) }
fun main(): bool { even(10) }
"#,
        )
        .unwrap();
    }

    #[test]
    fn refs_and_assignment() {
        check_src(
            r#"
fun main(): int {
  val r = ref(1)
  r := 5
  !r
}
"#,
        )
        .unwrap();
    }

    #[test]
    fn rejects_assign_to_non_ref() {
        let err = check_src("fun f(x: int): unit { x := 1 }").unwrap_err();
        assert!(err.message.contains("mismatch"), "{err}");
    }

    #[test]
    fn rejects_pattern_arity_overflow() {
        let err = check_src("type t { C(x: int) }\nfun f(v: t): int { match v { C(a, b) -> a } }")
            .unwrap_err();
        assert!(err.message.contains("fields"), "{err}");
    }

    /// Each `ref(x{i-1})` binds a fresh variable to a type as deep as the
    /// chain so far. The occurs check stops where an earlier check found
    /// no free variable, so the chain checks in linear time; walking the
    /// whole type every time, 8 000 links took 5 s in a release build.
    #[test]
    fn types_as_deep_as_the_source_check_in_linear_time() {
        let mut src = String::from("fun main(n: int): int {\n  val x0 = n\n");
        for i in 1..=20_000 {
            src += &format!("  val x{i} = ref(x{})\n", i - 1);
        }
        src += "  n\n}\n";
        let start = std::time::Instant::now();
        check_src(&src).unwrap();
        assert!(start.elapsed().as_secs() < 10, "{:?}", start.elapsed());
    }

    /// `ref` takes one type argument: a signature without it is an
    /// error, not a panic. A data type may still name a parameter `ref`.
    #[test]
    fn ref_without_its_argument() {
        let err = check_src("fun f(x: ref): int { 0 }").unwrap_err();
        assert!(err.message.contains("`ref` expects 1"), "{err}");
        check_src("type t<ref> { C(x: ref) }").unwrap();
    }

    #[test]
    fn prefix_patterns_accepted() {
        check_src(
            r#"
type color { Red; Black }
type tree { Leaf; Node(c: color, l: tree, k: int, v: bool, r: tree) }
fun is-red(t: tree): bool {
  match t {
    Node(Red) -> True
    _ -> False
  }
}
"#,
        )
        .unwrap();
    }
}
