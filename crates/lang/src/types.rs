//! Hindley–Milner type inference for the surface language.
//!
//! Koka's effect rows are out of scope for this reproduction (the paper
//! takes the *output* of effect compilation as its starting point — see
//! DESIGN.md), so this is classic HM: unification with let-polymorphism,
//! generalizing top-level functions per strongly-connected component of
//! the call graph (monomorphic recursion inside an SCC).
//!
//! Inference is a pure checker: lowering does not depend on inferred
//! types (the match compiler derives constructor signatures from the
//! patterns themselves), so a program that fails here never reaches the
//! backend.

use crate::ast::*;
use crate::error::{LangError, Span};
use crate::resolve::{Builtin, Symbols};
use perceus_core::ir::{DataId, TypeTable};
use std::collections::HashMap;

/// Inferred types.
#[derive(Debug, Clone, PartialEq)]
pub enum Type {
    /// A unification variable.
    Var(u32),
    Int,
    Unit,
    /// A declared data type (bool is `Data(TypeTable::BOOL, [])`).
    Data(DataId, Vec<Type>),
    /// A function type.
    Fn(Vec<Type>, Box<Type>),
    /// A mutable reference (§2.7.3).
    Ref(Box<Type>),
}

impl Type {
    fn bool_() -> Type {
        Type::Data(TypeTable::BOOL, Vec::new())
    }
}

/// A polymorphic type scheme (`vars` are the quantified variable ids).
#[derive(Debug, Clone)]
pub struct Scheme {
    vars: Vec<u32>,
    ty: Type,
}

/// The unifier: a growable substitution.
#[derive(Debug, Default)]
struct Unifier {
    subst: Vec<Option<Type>>,
}

impl Unifier {
    fn fresh(&mut self) -> Type {
        self.subst.push(None);
        Type::Var((self.subst.len() - 1) as u32)
    }

    /// Follows substitution links at the head of a type.
    fn shallow(&self, mut t: Type) -> Type {
        while let Type::Var(v) = t {
            match &self.subst[v as usize] {
                Some(next) => t = next.clone(),
                None => return Type::Var(v),
            }
        }
        t
    }

    /// Fully applies the substitution.
    fn zonk(&self, t: &Type) -> Type {
        match self.shallow(t.clone()) {
            Type::Var(v) => Type::Var(v),
            Type::Int => Type::Int,
            Type::Unit => Type::Unit,
            Type::Data(d, args) => Type::Data(d, args.iter().map(|a| self.zonk(a)).collect()),
            Type::Fn(args, ret) => Type::Fn(
                args.iter().map(|a| self.zonk(a)).collect(),
                Box::new(self.zonk(&ret)),
            ),
            Type::Ref(t) => Type::Ref(Box::new(self.zonk(&t))),
        }
    }

    fn occurs(&self, v: u32, t: &Type) -> bool {
        match self.shallow(t.clone()) {
            Type::Var(w) => v == w,
            Type::Int | Type::Unit => false,
            Type::Data(_, args) => args.iter().any(|a| self.occurs(v, a)),
            Type::Fn(args, ret) => args.iter().any(|a| self.occurs(v, a)) || self.occurs(v, &ret),
            Type::Ref(t) => self.occurs(v, &t),
        }
    }

    fn unify(
        &mut self,
        a: &Type,
        b: &Type,
        span: Span,
        names: &TypeTable,
    ) -> Result<(), LangError> {
        let a = self.shallow(a.clone());
        let b = self.shallow(b.clone());
        match (a, b) {
            (Type::Var(v), Type::Var(w)) if v == w => Ok(()),
            (Type::Var(v), t) | (t, Type::Var(v)) => {
                if self.occurs(v, &t) {
                    return Err(LangError::ty(
                        format!("infinite type: t{v} occurs in {}", self.show(&t, names)),
                        span,
                    ));
                }
                self.subst[v as usize] = Some(t);
                Ok(())
            }
            (Type::Int, Type::Int) | (Type::Unit, Type::Unit) => Ok(()),
            (Type::Data(d1, a1), Type::Data(d2, a2)) if d1 == d2 && a1.len() == a2.len() => {
                for (x, y) in a1.iter().zip(a2.iter()) {
                    self.unify(x, y, span, names)?;
                }
                Ok(())
            }
            (Type::Fn(a1, r1), Type::Fn(a2, r2)) if a1.len() == a2.len() => {
                for (x, y) in a1.iter().zip(a2.iter()) {
                    self.unify(x, y, span, names)?;
                }
                self.unify(&r1, &r2, span, names)
            }
            (Type::Ref(x), Type::Ref(y)) => self.unify(&x, &y, span, names),
            (x, y) => Err(LangError::ty(
                format!(
                    "type mismatch: expected {}, found {}",
                    self.show(&x, names),
                    self.show(&y, names)
                ),
                span,
            )),
        }
    }

    /// Renders a type for error messages.
    fn show(&self, t: &Type, names: &TypeTable) -> String {
        match self.shallow(t.clone()) {
            Type::Var(v) => format!("t{v}"),
            Type::Int => "int".into(),
            Type::Unit => "unit".into(),
            Type::Data(d, args) => {
                let base = names.data(d).name.to_string();
                if args.is_empty() {
                    base
                } else {
                    let args: Vec<String> = args.iter().map(|a| self.show(a, names)).collect();
                    format!("{base}<{}>", args.join(", "))
                }
            }
            Type::Fn(args, ret) => {
                let args: Vec<String> = args.iter().map(|a| self.show(a, names)).collect();
                format!("({}) -> {}", args.join(", "), self.show(&ret, names))
            }
            Type::Ref(t) => format!("ref<{}>", self.show(&t, names)),
        }
    }
}

/// Type-checks a resolved program.
pub fn check(p: &SProgram, syms: &Symbols) -> Result<(), LangError> {
    let mut cx = Cx {
        syms,
        uni: Unifier::default(),
        ctor_schemes: HashMap::new(),
        fun_schemes: HashMap::new(),
        fun_monotypes: HashMap::new(),
    };
    // Constructor schemes from declarations.
    let ctor_schemes: HashMap<String, Scheme> = syms
        .ctors
        .iter()
        .map(|(name, sym)| {
            let parent = syms
                .datas
                .values()
                .find(|d| d.id == sym.data)
                .expect("ctor's data exists");
            let vars: Vec<u32> = (0..parent.params.len() as u32).collect();
            let var_map: HashMap<&str, u32> = parent
                .params
                .iter()
                .enumerate()
                .map(|(i, n)| (n.as_str(), i as u32))
                .collect();
            let fields: Vec<Type> = sym
                .fields
                .iter()
                .map(|f| conv_rigid(f, &var_map, syms))
                .collect();
            let result = Type::Data(sym.data, vars.iter().map(|v| Type::Var(*v)).collect());
            let ty = if fields.is_empty() {
                result
            } else {
                Type::Fn(fields, Box::new(result))
            };
            (name.clone(), Scheme { vars, ty })
        })
        .collect();
    // A scheme's quantified vars are local indices; reserve as many
    // unifier slots as the largest data-type parameter list so that
    // instantiation can remap safely.
    cx.ctor_schemes = ctor_schemes;

    // Process functions SCC by SCC in dependency order.
    for group in sccs(p, syms) {
        // Monotypes for the group.
        for &i in &group {
            let fd = &p.funs[i];
            let mut tyvars = HashMap::new();
            let mut params: Vec<Type> = Vec::with_capacity(fd.params.len());
            for par in &fd.params {
                params.push(match &par.ann {
                    Some(t) => cx.conv(t, &mut tyvars, fd.span)?,
                    None => cx.uni.fresh(),
                });
            }
            let ret = match &fd.ret {
                Some(t) => cx.conv(t, &mut tyvars, fd.span)?,
                None => cx.uni.fresh(),
            };
            cx.fun_monotypes
                .insert(fd.name.clone(), Type::Fn(params, Box::new(ret)));
        }
        // Infer bodies.
        for &i in &group {
            let fd = &p.funs[i];
            let Type::Fn(params, ret) = cx.fun_monotypes[&fd.name].clone() else {
                unreachable!()
            };
            let mut env: Vec<(String, Type)> = fd
                .params
                .iter()
                .map(|p| p.name.clone())
                .zip(params)
                .collect();
            let t = cx.expr(&fd.body, &mut env)?;
            cx.uni.unify(&t, &ret, fd.body.span(), &syms.types)?;
        }
        // Generalize.
        for &i in &group {
            let fd = &p.funs[i];
            let mono = cx.fun_monotypes.remove(&fd.name).expect("monotype set");
            let ty = cx.uni.zonk(&mono);
            let mut vars = Vec::new();
            type_vars(&ty, &mut vars);
            cx.fun_schemes.insert(fd.name.clone(), Scheme { vars, ty });
        }
    }
    Ok(())
}

/// Converts a *rigid* surface type (constructor fields) where type
/// variables map to fixed scheme indices.
fn conv_rigid(t: &SType, var_map: &HashMap<&str, u32>, syms: &Symbols) -> Type {
    match t {
        SType::Unit => Type::Unit,
        SType::Fn(args, ret) => Type::Fn(
            args.iter().map(|a| conv_rigid(a, var_map, syms)).collect(),
            Box::new(conv_rigid(ret, var_map, syms)),
        ),
        SType::Name(name, args) => match name.as_str() {
            "int" => Type::Int,
            "unit" => Type::Unit,
            "ref" => Type::Ref(Box::new(conv_rigid(&args[0], var_map, syms))),
            _ => {
                if let Some(v) = var_map.get(name.as_str()) {
                    Type::Var(*v)
                } else {
                    let d = &syms.datas[name];
                    Type::Data(
                        d.id,
                        args.iter().map(|a| conv_rigid(a, var_map, syms)).collect(),
                    )
                }
            }
        },
    }
}

fn type_vars(t: &Type, out: &mut Vec<u32>) {
    match t {
        Type::Var(v) => {
            if !out.contains(v) {
                out.push(*v);
            }
        }
        Type::Int | Type::Unit => {}
        Type::Data(_, args) => args.iter().for_each(|a| type_vars(a, out)),
        Type::Fn(args, ret) => {
            args.iter().for_each(|a| type_vars(a, out));
            type_vars(ret, out);
        }
        Type::Ref(t) => type_vars(t, out),
    }
}

struct Cx<'a> {
    syms: &'a Symbols,
    uni: Unifier,
    ctor_schemes: HashMap<String, Scheme>,
    fun_schemes: HashMap<String, Scheme>,
    /// Monotypes of the SCC currently being inferred.
    fun_monotypes: HashMap<String, Type>,
}

impl<'a> Cx<'a> {
    /// Converts an annotation; unknown *unapplied* lower-case names
    /// become flexible signature variables (lenient checking; see module
    /// docs), while an unknown name with type arguments is an error.
    fn conv(
        &mut self,
        t: &SType,
        tyvars: &mut HashMap<String, Type>,
        span: Span,
    ) -> Result<Type, LangError> {
        Ok(match t {
            SType::Unit => Type::Unit,
            SType::Fn(args, ret) => {
                let args = args
                    .iter()
                    .map(|a| self.conv(a, tyvars, span))
                    .collect::<Result<_, _>>()?;
                let ret = self.conv(ret, tyvars, span)?;
                Type::Fn(args, Box::new(ret))
            }
            SType::Name(name, args) => match name.as_str() {
                "int" => Type::Int,
                "unit" => Type::Unit,
                "ref" => {
                    let inner = self.conv(&args[0], tyvars, span)?;
                    Type::Ref(Box::new(inner))
                }
                _ => {
                    if let Some(d) = self.syms.datas.get(name) {
                        if d.params.len() != args.len() {
                            return Err(LangError::ty(
                                format!(
                                    "type `{name}` expects {} parameters, got {}",
                                    d.params.len(),
                                    args.len()
                                ),
                                span,
                            ));
                        }
                        let id = d.id;
                        let args = args
                            .iter()
                            .map(|a| self.conv(a, tyvars, span))
                            .collect::<Result<_, _>>()?;
                        Type::Data(id, args)
                    } else if args.is_empty() {
                        tyvars
                            .entry(name.clone())
                            .or_insert_with(|| self.uni.fresh())
                            .clone()
                    } else {
                        return Err(LangError::ty(format!("unknown type `{name}`"), span));
                    }
                }
            },
        })
    }

    fn instantiate(&mut self, s: &Scheme) -> Type {
        let map: HashMap<u32, Type> = s.vars.iter().map(|v| (*v, self.uni.fresh())).collect();
        subst_vars(&s.ty, &map)
    }

    fn builtin_type(&mut self, b: Builtin) -> Type {
        match b {
            Builtin::Println => Type::Fn(vec![Type::Int], Box::new(Type::Unit)),
            Builtin::RefNew => {
                let a = self.uni.fresh();
                Type::Fn(vec![a.clone()], Box::new(Type::Ref(Box::new(a))))
            }
            Builtin::TShare => {
                let a = self.uni.fresh();
                Type::Fn(vec![a], Box::new(Type::Unit))
            }
            Builtin::Not => Type::Fn(vec![Type::bool_()], Box::new(Type::bool_())),
            Builtin::Min | Builtin::Max => {
                Type::Fn(vec![Type::Int, Type::Int], Box::new(Type::Int))
            }
        }
    }

    fn lookup_var(
        &mut self,
        name: &str,
        env: &[(String, Type)],
        span: Span,
    ) -> Result<Type, LangError> {
        if let Some((_, t)) = env.iter().rev().find(|(n, _)| n == name) {
            return Ok(t.clone());
        }
        if let Some(t) = self.fun_monotypes.get(name) {
            return Ok(t.clone());
        }
        if let Some(s) = self.fun_schemes.get(name).cloned() {
            return Ok(self.instantiate(&s));
        }
        if let Some((_, b)) = Builtin::ALL.iter().find(|(n, _)| *n == name) {
            return Ok(self.builtin_type(*b));
        }
        Err(LangError::ty(format!("unbound variable `{name}`"), span))
    }

    fn expr(&mut self, e: &SExpr, env: &mut Vec<(String, Type)>) -> Result<Type, LangError> {
        match e {
            SExpr::Int(_, _) => Ok(Type::Int),
            SExpr::Unit(_) => Ok(Type::Unit),
            SExpr::Var(name, span) => self.lookup_var(name, env, *span),
            SExpr::Con(name, span) => {
                let s =
                    self.ctor_schemes.get(name).cloned().ok_or_else(|| {
                        LangError::ty(format!("unknown constructor `{name}`"), *span)
                    })?;
                Ok(self.instantiate(&s))
            }
            SExpr::Call(f, args, span) => {
                let tf = self.expr(f, env)?;
                let mut targs = Vec::with_capacity(args.len());
                for a in args {
                    targs.push(self.expr(a, env)?);
                }
                let ret = self.uni.fresh();
                self.uni.unify(
                    &tf,
                    &Type::Fn(targs, Box::new(ret.clone())),
                    *span,
                    &self.syms.types,
                )?;
                Ok(ret)
            }
            SExpr::Binop(op, a, b, span) => {
                let ta = self.expr(a, env)?;
                let tb = self.expr(b, env)?;
                let types = &self.syms.types;
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                        self.uni.unify(&ta, &Type::Int, a.span(), types)?;
                        self.uni.unify(&tb, &Type::Int, b.span(), types)?;
                        Ok(Type::Int)
                    }
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
                        self.uni.unify(&ta, &Type::Int, a.span(), types)?;
                        self.uni.unify(&tb, &Type::Int, b.span(), types)?;
                        Ok(Type::bool_())
                    }
                    BinOp::And | BinOp::Or => {
                        self.uni.unify(&ta, &Type::bool_(), a.span(), types)?;
                        self.uni.unify(&tb, &Type::bool_(), b.span(), types)?;
                        Ok(Type::bool_())
                    }
                    BinOp::Assign => {
                        self.uni
                            .unify(&ta, &Type::Ref(Box::new(tb)), *span, types)?;
                        Ok(Type::Unit)
                    }
                }
            }
            SExpr::Neg(inner, _) => {
                let t = self.expr(inner, env)?;
                self.uni
                    .unify(&t, &Type::Int, inner.span(), &self.syms.types)?;
                Ok(Type::Int)
            }
            SExpr::Deref(inner, span) => {
                let t = self.expr(inner, env)?;
                let a = self.uni.fresh();
                self.uni
                    .unify(&t, &Type::Ref(Box::new(a.clone())), *span, &self.syms.types)?;
                Ok(a)
            }
            SExpr::If(c, t, f, _) => {
                let tc = self.expr(c, env)?;
                self.uni
                    .unify(&tc, &Type::bool_(), c.span(), &self.syms.types)?;
                let tt = self.expr(t, env)?;
                let tf = self.expr(f, env)?;
                self.uni.unify(&tt, &tf, f.span(), &self.syms.types)?;
                Ok(tt)
            }
            SExpr::Match(scrut, arms, span) => {
                let ts = self.expr(scrut, env)?;
                let result = self.uni.fresh();
                if arms.is_empty() {
                    return Err(LangError::ty("empty match".into(), *span));
                }
                for arm in arms {
                    let before = env.len();
                    self.pattern(&arm.pattern, &ts, env)?;
                    let tb = self.expr(&arm.body, env)?;
                    env.truncate(before);
                    self.uni
                        .unify(&tb, &result, arm.body.span(), &self.syms.types)?;
                }
                Ok(result)
            }
            SExpr::Block(stmts, tail, _) => {
                let before = env.len();
                for s in stmts {
                    match s {
                        SStmt::Val(name, rhs, _) => {
                            let t = self.expr(rhs, env)?;
                            env.push((name.clone(), t));
                        }
                        SStmt::Expr(e) => {
                            self.expr(e, env)?; // value discarded
                        }
                    }
                }
                let t = self.expr(tail, env);
                env.truncate(before);
                t
            }
            SExpr::Lam(params, body, _) => {
                let ptypes: Vec<Type> = params.iter().map(|_| self.uni.fresh()).collect();
                let before = env.len();
                env.extend(params.iter().cloned().zip(ptypes.iter().cloned()));
                let ret = self.expr(body, env)?;
                env.truncate(before);
                Ok(Type::Fn(ptypes, Box::new(ret)))
            }
        }
    }

    fn pattern(
        &mut self,
        p: &SPat,
        expected: &Type,
        env: &mut Vec<(String, Type)>,
    ) -> Result<(), LangError> {
        match p {
            SPat::Wild(_) => Ok(()),
            SPat::Var(name, _) => {
                env.push((name.clone(), expected.clone()));
                Ok(())
            }
            SPat::Int(_, span) => self
                .uni
                .unify(expected, &Type::Int, *span, &self.syms.types),
            SPat::Ctor(name, subpats, span) => {
                let s =
                    self.ctor_schemes.get(name).cloned().ok_or_else(|| {
                        LangError::ty(format!("unknown constructor `{name}`"), *span)
                    })?;
                let inst = self.instantiate(&s);
                let (fields, result) = match inst {
                    Type::Fn(fields, result) => (fields, *result),
                    result => (Vec::new(), result),
                };
                self.uni.unify(expected, &result, *span, &self.syms.types)?;
                if subpats.len() > fields.len() {
                    return Err(LangError::ty(
                        format!(
                            "constructor `{name}` has {} fields, pattern has {}",
                            fields.len(),
                            subpats.len()
                        ),
                        *span,
                    ));
                }
                // Prefix patterns: trailing fields are wildcards (the
                // paper's `Node(Red)` idiom).
                for (sub, ft) in subpats.iter().zip(fields.iter()) {
                    self.pattern(sub, ft, env)?;
                }
                Ok(())
            }
        }
    }
}

fn subst_vars(t: &Type, map: &HashMap<u32, Type>) -> Type {
    match t {
        Type::Var(v) => map.get(v).cloned().unwrap_or(Type::Var(*v)),
        Type::Int => Type::Int,
        Type::Unit => Type::Unit,
        Type::Data(d, args) => Type::Data(*d, args.iter().map(|a| subst_vars(a, map)).collect()),
        Type::Fn(args, ret) => Type::Fn(
            args.iter().map(|a| subst_vars(a, map)).collect(),
            Box::new(subst_vars(ret, map)),
        ),
        Type::Ref(t) => Type::Ref(Box::new(subst_vars(t, map))),
    }
}

/// Strongly-connected components of the function call graph, in
/// dependency order (callees before callers).
fn sccs(p: &SProgram, syms: &Symbols) -> Vec<Vec<usize>> {
    let n = p.funs.len();
    // Edges: fun i mentions fun j (respecting local shadowing is not
    // necessary for soundness — extra edges only coarsen generalization).
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, fd) in p.funs.iter().enumerate() {
        let mut mentioned = Vec::new();
        collect_mentions(&fd.body, &mut mentioned);
        for name in mentioned {
            if let Some((fid, _)) = syms.funs.get(&name) {
                let j = fid.0 as usize;
                if !edges[i].contains(&j) {
                    edges[i].push(j);
                }
            }
        }
    }
    // Reachability-based SCCs (graphs here are small).
    let reach = |from: usize| -> Vec<bool> {
        let mut seen = vec![false; n];
        let mut work = vec![from];
        while let Some(u) = work.pop() {
            for &v in &edges[u] {
                if !seen[v] {
                    seen[v] = true;
                    work.push(v);
                }
            }
        }
        seen
    };
    let reaches: Vec<Vec<bool>> = (0..n).map(reach).collect();
    let mut assigned = vec![usize::MAX; n];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in 0..n {
        if assigned[i] != usize::MAX {
            continue;
        }
        let g = groups.len();
        let mut group = vec![i];
        assigned[i] = g;
        for j in (i + 1)..n {
            if assigned[j] == usize::MAX && reaches[i][j] && reaches[j][i] {
                assigned[j] = g;
                group.push(j);
            }
        }
        groups.push(group);
    }
    // Topological order: callees first.
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by(|&a, &b| {
        let a_calls_b = groups[a]
            .iter()
            .any(|&i| groups[b].iter().any(|&j| reaches[i][j]));
        let b_calls_a = groups[b]
            .iter()
            .any(|&i| groups[a].iter().any(|&j| reaches[i][j]));
        match (a_calls_b, b_calls_a) {
            (true, false) => std::cmp::Ordering::Greater, // a depends on b
            (false, true) => std::cmp::Ordering::Less,
            _ => a.cmp(&b),
        }
    });
    order.into_iter().map(|g| groups[g].clone()).collect()
}

fn collect_mentions(e: &SExpr, out: &mut Vec<String>) {
    match e {
        SExpr::Var(name, _) => out.push(name.clone()),
        SExpr::Con(..) | SExpr::Int(..) | SExpr::Unit(_) => {}
        SExpr::Call(f, args, _) => {
            collect_mentions(f, out);
            args.iter().for_each(|a| collect_mentions(a, out));
        }
        SExpr::Binop(_, a, b, _) => {
            collect_mentions(a, out);
            collect_mentions(b, out);
        }
        SExpr::Neg(a, _) | SExpr::Deref(a, _) => collect_mentions(a, out),
        SExpr::If(c, t, f, _) => {
            collect_mentions(c, out);
            collect_mentions(t, out);
            collect_mentions(f, out);
        }
        SExpr::Match(s, arms, _) => {
            collect_mentions(s, out);
            arms.iter().for_each(|a| collect_mentions(&a.body, out));
        }
        SExpr::Block(stmts, tail, _) => {
            for s in stmts {
                match s {
                    SStmt::Val(_, rhs, _) => collect_mentions(rhs, out),
                    SStmt::Expr(e) => collect_mentions(e, out),
                }
            }
            collect_mentions(tail, out);
        }
        SExpr::Lam(_, body, _) => collect_mentions(body, out),
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
