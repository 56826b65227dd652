//! Lowering: typed surface AST → core λ¹ IR.
//!
//! The main job is the *match compiler*: nested patterns (Okasaki's
//! red-black rebalancing matches three constructors deep) are compiled
//! into the flat, single-constructor matches of the core language using
//! the classic column-specialization algorithm (à la Maranget). Rows
//! with variable or wildcard patterns flow into every specialized arm,
//! so right-hand sides may be lowered more than once; every lowering
//! generates fresh core variables, keeping ids globally unique. A row
//! holds references to the surface patterns it still has to match, so
//! specializing a column copies no pattern.
//!
//! Everything else is syntax-directed desugaring: `if` to a match on the
//! built-in `bool`, `&&`/`||` to conditionals, operators to primitives,
//! statement blocks to `val` chains, and bare constructors or builtins
//! in value position to eta-expanded lambdas.
//!
//! The variables in scope are a per-name table (`Scope`); a core
//! variable's hint shares the text of the name table.

use crate::ast::*;
use crate::error::{LangError, LangWarning, Span};
use crate::names::{Names, Scope, Sym};
use crate::resolve::{Builtin, Symbols};
use perceus_core::ir::builder::ite;
use perceus_core::ir::expr::{Arm, Expr, Lambda, PrimOp};
use perceus_core::ir::{CtorId, FunDef, Program, TypeTable, Var, VarGen};
use std::sync::Arc;

/// Lowers a resolved, type-checked program to the core IR, discarding
/// diagnostics (see [`lower_checked`] to collect them).
pub fn lower(p: &SProgram, syms: &Symbols) -> Result<Program, LangError> {
    lower_checked(p, syms).map(|(program, _)| program)
}

/// Lowers a program and collects non-fatal diagnostics: redundant match
/// arms (an arm no scrutinee value can reach) and matches that can fall
/// through at runtime.
pub fn lower_checked(
    p: &SProgram,
    syms: &Symbols,
) -> Result<(Program, Vec<LangWarning>), LangError> {
    let mut out = Program {
        types: syms.types.clone(),
        funs: Vec::with_capacity(p.funs.len()),
        entry: None,
        var_gen: VarGen::default(),
        borrows: Vec::with_capacity(p.funs.len()),
        fun_spans: Vec::with_capacity(p.funs.len()),
    };
    let mut cx = Cx {
        syms,
        names: &p.names,
        gen: VarGen::default(),
        fun: "",
        warnings: Vec::new(),
        scope: Scope::new(p.names.len()),
        hint_m: Arc::from("m"),
        hint_c: Arc::from("c"),
        hint_s: Arc::from("_s"),
    };
    for fd in &p.funs {
        cx.fun = p.names.text(fd.name);
        let mark = cx.scope.enter();
        let params: Vec<Var> = fd
            .params
            .iter()
            .map(|par| {
                let v = cx.fresh(par.name);
                cx.scope.bind(par.name, v.clone());
                v
            })
            .collect();
        let body = cx.expr(&fd.body)?;
        cx.scope.leave(mark);
        // Explicit `borrow` annotations seed the program's borrow masks
        // (the inference pass may add more when enabled, and never
        // demotes an explicit request — a consuming use just retains).
        out.borrows
            .push(fd.params.iter().map(|p| p.borrowed).collect());
        out.fun_spans.push((fd.span.start, fd.span.end));
        out.add_fun(FunDef {
            name: p.names.shared(fd.name).clone(),
            params,
            body,
        });
    }
    out.entry = out.find_fun("main");
    if let Some(entry) = out.entry {
        if let Some(fd) = p.funs.get(entry.0 as usize) {
            if let Some(par) = fd.params.iter().find(|p| p.borrowed) {
                return Err(LangError::resolve(
                    format!(
                        "entry-point parameter `{}` cannot be `borrow` (the host passes owned values)",
                        p.names.text(par.name)
                    ),
                    fd.span,
                ));
            }
        }
    }
    // Masks that request nothing are dropped so the default stays the
    // paper's all-owned convention.
    if out.borrows.iter().all(|m| m.iter().all(|b| !b)) {
        out.borrows.clear();
    }
    out.var_gen = cx.gen;
    Ok((out, cx.warnings))
}

struct Cx<'a> {
    syms: &'a Symbols,
    names: &'a Names,
    gen: VarGen,
    /// The name of the function being lowered.
    fun: &'a str,
    warnings: Vec<LangWarning>,
    /// The core variable each source name stands for.
    scope: Scope<Var>,
    /// The hints of the variables lowering introduces, shared by all.
    hint_m: Arc<str>,
    hint_c: Arc<str>,
    hint_s: Arc<str>,
}

/// The wildcard a prefix pattern's missing fields, and the fields of a
/// constructor matched by a variable or wildcard, stand for.
static WILD: SPat = SPat::Wild(Span { start: 0, end: 0 });

impl<'a> Cx<'a> {
    /// A fresh variable hinted with a source name.
    fn fresh(&mut self, name: Sym) -> Var {
        self.gen.fresh_shared(self.names.shared(name).clone())
    }

    fn text(&self, s: Sym) -> &'a str {
        self.names.text(s)
    }

    fn expr(&mut self, e: &SExpr) -> Result<Expr, LangError> {
        match e {
            SExpr::Int(i, _) => Ok(Expr::int(*i)),
            SExpr::Unit(_) => Ok(Expr::unit()),
            SExpr::Var(name, span) => {
                if let Some(v) = self.scope.get(*name) {
                    return Ok(Expr::Var(v.clone()));
                }
                if let Some((fid, _)) = self.syms.fun(*name) {
                    return Ok(Expr::Global(fid));
                }
                if let Some(b) = Builtin::of(*name) {
                    return Ok(self.eta_builtin(b));
                }
                Err(LangError::resolve(
                    format!("unbound variable `{}`", self.text(*name)),
                    *span,
                ))
            }
            SExpr::Con(name, span) => {
                let id = self.ctor(*name, *span)?;
                let arity = self.syms.types.ctor(id).arity;
                if arity == 0 {
                    Ok(con(id, Vec::new()))
                } else {
                    // Eta-expand a bare constructor used as a function.
                    let params: Vec<Var> = (0..arity)
                        .map(|i| self.gen.fresh(&format!("c{i}")))
                        .collect();
                    let args = params.iter().cloned().map(Expr::Var).collect();
                    Ok(Expr::Lam(Lambda {
                        params,
                        captures: Vec::new(),
                        body: Box::new(con(id, args)),
                    }))
                }
            }
            SExpr::Call(f, args, span) => self.call(f, args, *span),
            SExpr::Binop(op, a, b, _) => self.binop(*op, a, b),
            SExpr::Neg(a, _) => {
                let a = self.expr(a)?;
                Ok(Expr::Prim(PrimOp::Neg, vec![a]))
            }
            SExpr::Deref(a, _) => {
                let a = self.expr(a)?;
                Ok(Expr::Prim(PrimOp::RefGet, vec![a]))
            }
            SExpr::If(c, t, f, _) => {
                let c = self.expr(c)?;
                let t = self.expr(t)?;
                let f = self.expr(f)?;
                Ok(self.ite_expr(c, t, f))
            }
            SExpr::Match(scrut, arms, span) => {
                let scrut_e = self.expr(scrut)?;
                let occ = self.gen.fresh_shared(self.hint_m.clone());
                let rows: Vec<Row> = arms
                    .iter()
                    .enumerate()
                    .map(|(i, arm)| Row {
                        pats: vec![&arm.pattern],
                        bindings: Vec::new(),
                        body: &arm.body,
                        arm_id: i,
                    })
                    .collect();
                let mut diag = MatchDiag {
                    used: vec![false; arms.len()],
                    fell_through: false,
                };
                let body = self.compile_match(vec![occ.clone()], rows, &mut diag)?;
                for (arm, used) in arms.iter().zip(&diag.used) {
                    if !used {
                        self.warnings.push(LangWarning {
                            message: format!(
                                "unreachable match arm in `{}` (covered by earlier arms)",
                                self.fun
                            ),
                            span: arm.span,
                        });
                    }
                }
                if diag.fell_through {
                    self.warnings.push(LangWarning {
                        message: format!(
                            "non-exhaustive match in `{}` may abort at runtime",
                            self.fun
                        ),
                        span: *span,
                    });
                }
                Ok(Expr::let_(occ, scrut_e, body))
            }
            SExpr::Block(stmts, tail, _) => {
                let mark = self.scope.enter();
                let mut bindings: Vec<(Var, Expr)> = Vec::with_capacity(stmts.len());
                for s in stmts {
                    match s {
                        SStmt::Val(name, rhs, _) => {
                            let rhs = self.expr(rhs)?;
                            let v = self.fresh(*name);
                            self.scope.bind(*name, v.clone());
                            bindings.push((v, rhs));
                        }
                        SStmt::Expr(e) => {
                            // Bind to a throwaway; insertion will drop it
                            // right after (sbind-drop), so non-unit
                            // statement results are still reclaimed.
                            let rhs = self.expr(e)?;
                            let v = self.gen.fresh_shared(self.hint_s.clone());
                            bindings.push((v, rhs));
                        }
                    }
                }
                let tail = self.expr(tail)?;
                self.scope.leave(mark);
                Ok(bindings
                    .into_iter()
                    .rev()
                    .fold(tail, |acc, (v, rhs)| Expr::let_(v, rhs, acc)))
            }
            SExpr::Lam(params, body, _) => {
                let mark = self.scope.enter();
                let params: Vec<Var> = params
                    .iter()
                    .map(|&n| {
                        let v = self.fresh(n);
                        self.scope.bind(n, v.clone());
                        v
                    })
                    .collect();
                let body = self.expr(body)?;
                self.scope.leave(mark);
                Ok(Expr::Lam(Lambda {
                    params,
                    captures: Vec::new(), // computed by normalization
                    body: Box::new(body),
                }))
            }
        }
    }

    /// The constructor named `name`.
    fn ctor(&self, name: Sym, span: Span) -> Result<CtorId, LangError> {
        self.syms.ctor(name).ok_or_else(|| {
            LangError::resolve(format!("unknown constructor `{}`", self.text(name)), span)
        })
    }

    /// `if c then t else f` with arbitrary expressions: bind the
    /// condition so the core match scrutinee is a variable.
    fn ite_expr(&mut self, c: Expr, t: Expr, f: Expr) -> Expr {
        let cv = self.gen.fresh_shared(self.hint_c.clone());
        let m = ite(cv.clone(), t, f);
        Expr::let_(cv, c, m)
    }

    fn call(&mut self, f: &SExpr, args: &[SExpr], span: Span) -> Result<Expr, LangError> {
        let largs: Vec<Expr> = args
            .iter()
            .map(|a| self.expr(a))
            .collect::<Result<_, _>>()?;
        match f {
            SExpr::Con(name, cspan) => {
                let id = self.ctor(*name, *cspan)?;
                let arity = self.syms.types.ctor(id).arity;
                if arity != largs.len() {
                    return Err(LangError::resolve(
                        format!(
                            "constructor `{}` expects {arity} arguments, got {}",
                            self.text(*name),
                            largs.len()
                        ),
                        span,
                    ));
                }
                Ok(con(id, largs))
            }
            SExpr::Var(name, _) if self.scope.get(*name).is_none() => {
                if let Some((fid, arity)) = self.syms.fun(*name) {
                    if arity != largs.len() {
                        return Err(LangError::resolve(
                            format!(
                                "`{}` expects {arity} arguments, got {}",
                                self.text(*name),
                                largs.len()
                            ),
                            span,
                        ));
                    }
                    return Ok(Expr::Call(fid, largs));
                }
                if let Some(b) = Builtin::of(*name) {
                    return self.builtin_call(b, largs, span);
                }
                Err(LangError::resolve(
                    format!("unbound function `{}`", self.text(*name)),
                    span,
                ))
            }
            other => {
                let f = self.expr(other)?;
                Ok(Expr::App(Box::new(f), largs))
            }
        }
    }

    fn builtin_call(&mut self, b: Builtin, args: Vec<Expr>, span: Span) -> Result<Expr, LangError> {
        if args.len() != b.arity() {
            return Err(LangError::resolve(
                format!(
                    "builtin expects {} arguments, got {}",
                    b.arity(),
                    args.len()
                ),
                span,
            ));
        }
        Ok(match b {
            Builtin::Println => Expr::Prim(PrimOp::Println, args),
            Builtin::RefNew => Expr::Prim(PrimOp::RefNew, args),
            Builtin::TShare => Expr::Prim(PrimOp::TShare, args),
            Builtin::Min => Expr::Prim(PrimOp::Min, args),
            Builtin::Max => Expr::Prim(PrimOp::Max, args),
            Builtin::Not => {
                let [a] = <[Expr; 1]>::try_from(args).expect("arity checked");
                self.ite_expr(
                    a,
                    con(TypeTable::FALSE, vec![]),
                    con(TypeTable::TRUE, vec![]),
                )
            }
        })
    }

    fn binop(&mut self, op: BinOp, a: &SExpr, b: &SExpr) -> Result<Expr, LangError> {
        let la = self.expr(a)?;
        // Short-circuit operators must not evaluate the rhs eagerly.
        match op {
            BinOp::And => {
                let lb = self.expr(b)?;
                return Ok(self.ite_expr(la, lb, con(TypeTable::FALSE, vec![])));
            }
            BinOp::Or => {
                let lb = self.expr(b)?;
                return Ok(self.ite_expr(la, con(TypeTable::TRUE, vec![]), lb));
            }
            _ => {}
        }
        let lb = self.expr(b)?;
        let prim = match op {
            BinOp::Add => PrimOp::Add,
            BinOp::Sub => PrimOp::Sub,
            BinOp::Mul => PrimOp::Mul,
            BinOp::Div => PrimOp::Div,
            BinOp::Rem => PrimOp::Rem,
            BinOp::Lt => PrimOp::Lt,
            BinOp::Le => PrimOp::Le,
            BinOp::Gt => PrimOp::Gt,
            BinOp::Ge => PrimOp::Ge,
            BinOp::Eq => PrimOp::Eq,
            BinOp::Ne => PrimOp::Ne,
            BinOp::Assign => PrimOp::RefSet,
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        };
        Ok(Expr::Prim(prim, vec![la, lb]))
    }

    // ---- the match compiler ---------------------------------------------

    fn compile_match(
        &mut self,
        occs: Vec<Var>,
        rows: Vec<Row<'_>>,
        diag: &mut MatchDiag,
    ) -> Result<Expr, LangError> {
        let Some(first) = rows.first() else {
            diag.fell_through = true;
            return Ok(Expr::Abort(format!(
                "non-exhaustive match in `{}`",
                self.fun
            )));
        };
        // Irrefutable first row: bind and lower its body.
        if first
            .pats
            .iter()
            .all(|p| matches!(p, SPat::Wild(_) | SPat::Var(..)))
        {
            diag.used[first.arm_id] = true;
            let mark = self.scope.enter();
            for (name, v) in &first.bindings {
                self.scope.bind(*name, v.clone());
            }
            for (p, occ) in first.pats.iter().zip(occs.iter()) {
                if let SPat::Var(name, _) = p {
                    self.scope.bind(*name, occ.clone());
                }
            }
            let out = self.expr(first.body)?;
            self.scope.leave(mark);
            return Ok(out);
        }
        // Pick the first column containing a refutable pattern.
        let col = (0..occs.len())
            .find(|i| {
                rows.iter()
                    .any(|r| matches!(r.pats[*i], SPat::Ctor(..) | SPat::Int(..)))
            })
            .expect("refutable row implies a constructor or literal column");
        // Literal columns compile to equality chains.
        if rows.iter().any(|r| matches!(r.pats[col], SPat::Int(..))) {
            return self.compile_literal_column(occs, rows, col, diag);
        }
        // The data type of the column, from any constructor in it.
        let data = rows
            .iter()
            .find_map(|r| match r.pats[col] {
                SPat::Ctor(name, _, _) => self.syms.ctor(*name),
                _ => None,
            })
            .map(|c| self.syms.types.ctor(c).data)
            .expect("constructor column");
        // Constructors present in the column, in first-appearance order.
        let mut present: Vec<(Sym, CtorId, usize)> = Vec::new();
        for r in &rows {
            if let SPat::Ctor(name, _, cspan) = r.pats[col] {
                let id = self.ctor(*name, *cspan)?;
                if self.syms.types.ctor(id).data != data {
                    return Err(LangError::resolve(
                        format!("pattern `{}` belongs to a different type", self.text(*name)),
                        *cspan,
                    ));
                }
                if !present.iter().any(|(n, _, _)| n == name) {
                    present.push((*name, id, self.syms.types.ctor(id).arity));
                }
            }
        }
        let all_ctors = self.syms.types.data(data).ctors.len();

        let mut arms = Vec::with_capacity(present.len());
        for &(name, ctor, arity) in &present {
            // Fresh binders for the fields.
            let info = self.syms.types.ctor(ctor);
            let binders: Vec<Var> = (0..arity)
                .map(
                    |i| match info.field_names.get(i).filter(|n| !n.is_empty()) {
                        Some(n) => self.gen.fresh_shared(n.clone()),
                        None => self.gen.fresh(&format!("f{i}")),
                    },
                )
                .collect();
            // Specialized sub-matrix.
            let mut sub_rows = Vec::new();
            for r in &rows {
                match r.pats[col] {
                    SPat::Int(..) => unreachable!("literal in constructor column"),
                    SPat::Ctor(n, subpats, _) if *n == name => {
                        // Prefix patterns: pad trailing wildcards.
                        let pad = arity.saturating_sub(subpats.len());
                        sub_rows.push(r.splice(
                            col,
                            subpats.iter().chain(std::iter::repeat_n(&WILD, pad)),
                            None,
                        ));
                    }
                    SPat::Ctor(..) => {}
                    SPat::Wild(_) => {
                        sub_rows.push(r.splice(col, std::iter::repeat_n(&WILD, arity), None));
                    }
                    SPat::Var(n, _) => {
                        let bound = Some((*n, occs[col].clone()));
                        sub_rows.push(r.splice(col, std::iter::repeat_n(&WILD, arity), bound));
                    }
                }
            }
            let mut sub_occs = occs.clone();
            sub_occs.splice(col..=col, binders.iter().cloned());
            let body = self.compile_match(sub_occs, sub_rows, diag)?;
            arms.push(Arm {
                ctor,
                binders: binders.into_iter().map(Some).collect(),
                reuse_token: None,
                body,
            });
        }

        // Default arm for constructors not in the column.
        let default = if present.len() == all_ctors {
            None
        } else {
            let def_rows = self.default_rows(&rows, col, &occs[col]);
            let mut def_occs = occs.clone();
            def_occs.remove(col);
            Some(Box::new(self.compile_match(def_occs, def_rows, diag)?))
        };

        Ok(Expr::Match {
            scrutinee: occs[col].clone(),
            arms,
            default,
        })
    }

    /// The rows whose pattern in column `col` matches anything, with the
    /// column removed: a variable there binds `occ`.
    fn default_rows<'s>(&self, rows: &[Row<'s>], col: usize, occ: &Var) -> Vec<Row<'s>> {
        let mut out = Vec::new();
        for r in rows {
            match r.pats[col] {
                SPat::Int(..) | SPat::Ctor(..) => {}
                SPat::Wild(_) => out.push(r.splice(col, std::iter::empty(), None)),
                SPat::Var(n, _) => {
                    out.push(r.splice(col, std::iter::empty(), Some((*n, occ.clone()))))
                }
            }
        }
        out
    }

    /// Compiles a column of integer-literal patterns into an equality
    /// chain: `if occ == ℓ₁ then … elif occ == ℓ₂ then … else default`.
    /// Integer matches are never exhaustive, so the default sub-matrix
    /// (wildcard/variable rows) supplies the fall-through; when it is
    /// empty, the chain ends in a runtime abort.
    fn compile_literal_column(
        &mut self,
        occs: Vec<Var>,
        rows: Vec<Row<'_>>,
        col: usize,
        diag: &mut MatchDiag,
    ) -> Result<Expr, LangError> {
        // Distinct literals, first-appearance order.
        let mut lits: Vec<i64> = Vec::new();
        for r in &rows {
            if let SPat::Int(i, _) = r.pats[col] {
                if !lits.contains(i) {
                    lits.push(*i);
                }
            }
        }
        if rows.iter().any(|r| matches!(r.pats[col], SPat::Ctor(..))) {
            unreachable!("ctor in literal column");
        }
        // Default sub-matrix: wildcard/variable rows with the column
        // removed.
        let def_rows = self.default_rows(&rows, col, &occs[col]);
        let mut def_occs = occs.clone();
        def_occs.remove(col);
        let mut chain = self.compile_match(def_occs, def_rows, diag)?;
        // Build the chain inside-out: later literals first.
        for lit in lits.into_iter().rev() {
            let mut sub_rows = Vec::new();
            for r in &rows {
                match r.pats[col] {
                    SPat::Int(i, _) if *i == lit => {
                        sub_rows.push(r.splice(col, std::iter::empty(), None))
                    }
                    SPat::Int(..) | SPat::Ctor(..) => {}
                    SPat::Wild(_) => sub_rows.push(r.splice(col, std::iter::empty(), None)),
                    SPat::Var(n, _) => sub_rows.push(r.splice(
                        col,
                        std::iter::empty(),
                        Some((*n, occs[col].clone())),
                    )),
                }
            }
            let mut sub_occs = occs.clone();
            sub_occs.remove(col);
            let hit = self.compile_match(sub_occs, sub_rows, diag)?;
            let c = self.gen.fresh_shared(self.hint_c.clone());
            let test = Expr::Prim(
                PrimOp::Eq,
                vec![Expr::Var(occs[col].clone()), Expr::int(lit)],
            );
            chain = Expr::let_(c.clone(), test, ite(c, hit, chain));
        }
        Ok(chain)
    }

    /// Eta-expands a builtin used as a first-class value.
    fn eta_builtin(&mut self, b: Builtin) -> Expr {
        let params: Vec<Var> = (0..b.arity())
            .map(|i| self.gen.fresh(&format!("b{i}")))
            .collect();
        let args: Vec<Expr> = params.iter().cloned().map(Expr::Var).collect();
        let body = self
            .builtin_call(b, args, Span::default())
            .expect("arity matches by construction");
        Expr::Lam(Lambda {
            params,
            captures: Vec::new(),
            body: Box::new(body),
        })
    }
}

/// Diagnostics collected while compiling one surface `match`.
struct MatchDiag {
    /// Per surface arm: whether some leaf reached its body.
    used: Vec<bool>,
    /// Some path falls through to a runtime abort.
    fell_through: bool,
}

/// One row of the pattern matrix.
struct Row<'s> {
    /// The patterns the row has still to match, one per column.
    pats: Vec<&'s SPat>,
    /// Variable-pattern bindings accumulated so far (name → occurrence).
    bindings: Vec<(Sym, Var)>,
    body: &'s SExpr,
    /// Index of the surface arm this row descends from (diagnostics).
    arm_id: usize,
}

impl<'s> Row<'s> {
    /// The row with column `col` replaced by `with`, and with `bound`
    /// added to its bindings.
    fn splice(
        &self,
        col: usize,
        with: impl Iterator<Item = &'s SPat>,
        bound: Option<(Sym, Var)>,
    ) -> Row<'s> {
        let mut pats = Vec::with_capacity(self.pats.len() + with.size_hint().0);
        pats.extend_from_slice(&self.pats[..col]);
        pats.extend(with);
        pats.extend_from_slice(&self.pats[col + 1..]);
        let mut bindings = Vec::with_capacity(self.bindings.len() + usize::from(bound.is_some()));
        bindings.extend_from_slice(&self.bindings);
        bindings.extend(bound);
        Row {
            pats,
            bindings,
            body: self.body,
            arm_id: self.arm_id,
        }
    }
}

fn con(ctor: CtorId, args: Vec<Expr>) -> Expr {
    Expr::Con {
        ctor,
        args,
        reuse: None,
        skip: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::resolve::resolve;
    use perceus_core::ir::wf::assert_well_formed;

    fn lower_src(src: &str) -> Program {
        let p = parse(src).unwrap();
        let syms = resolve(&p).unwrap();
        crate::types::check(&p, &syms).unwrap();
        let prog = lower(&p, &syms).unwrap();
        // Normalize to establish capture annotations before checking.
        let mut prog = prog;
        perceus_core::passes::normalize::normalize_program(&mut prog);
        assert_well_formed(&prog);
        prog
    }

    #[test]
    fn lowers_map() {
        let p = lower_src(
            r#"
type list<a> { Nil; Cons(head: a, tail: list<a>) }
fun map(xs: list<a>, f: (a) -> b): list<b> {
  match xs {
    Cons(x, xx) -> Cons(f(x), map(xx, f))
    Nil -> Nil
  }
}
"#,
        );
        assert_eq!(p.funs().count(), 1);
        let s = perceus_core::ir::pretty::program_to_string(&p);
        assert!(s.contains("match"), "{s}");
        assert!(s.contains("Cons"), "{s}");
    }

    #[test]
    fn compiles_nested_patterns_to_flat_matches() {
        let p = lower_src(
            r#"
type color { Red; Black }
type tree { Leaf; Node(c: color, l: tree, k: int, v: bool, r: tree) }
fun deep(t: tree): int {
  match t {
    Node(_, Node(Red, lx), ky) -> ky
    Node(_, l, k) -> k
    Leaf -> 0
  }
}
"#,
        );
        let s = perceus_core::ir::pretty::program_to_string(&p);
        // Two nested flat matches: outer on t, inner on the left child,
        // and one on the color.
        let count = s.matches("match").count();
        assert!(count >= 3, "expected nested flat matches: {s}");
    }

    #[test]
    fn exhaustive_match_has_no_default() {
        let p = lower_src(
            r#"
type list<a> { Nil; Cons(head: a, tail: list<a>) }
fun f(xs: list<int>): int {
  match xs {
    Cons(x, _) -> x
    Nil -> 0
  }
}
"#,
        );
        // Normalization copy-propagates the scrutinee binding away.
        match &p.funs[0].body {
            Expr::Match { default, arms, .. } => {
                assert!(default.is_none());
                assert_eq!(arms.len(), 2);
            }
            other => panic!("expected match, got {other:?}"),
        }
    }

    #[test]
    fn non_exhaustive_match_gets_abort_default() {
        let p = lower_src(
            r#"
type list<a> { Nil; Cons(head: a, tail: list<a>) }
fun f(xs: list<int>): int {
  match xs {
    Cons(x, _) -> x
  }
}
"#,
        );
        let s = perceus_core::ir::pretty::program_to_string(&p);
        assert!(s.contains("abort"), "{s}");
    }

    #[test]
    fn if_lowers_to_bool_match() {
        let p = lower_src("fun f(x: int): int { if x < 3 then 1 else 2 }");
        let s = perceus_core::ir::pretty::program_to_string(&p);
        assert!(s.contains("True ->"), "{s}");
        assert!(s.contains("False ->"), "{s}");
    }

    #[test]
    fn short_circuit_and() {
        // `f(x) && g(x)` must not evaluate g eagerly: it lowers to a
        // conditional around the second operand.
        let p = lower_src(
            r#"
fun f(x: int): bool { x > 0 }
fun g(x: int): bool { 10 / x > 1 }
fun both(x: int): bool { f(x) && g(x) }
"#,
        );
        let s = perceus_core::ir::pretty::program_to_string(&p);
        let both = s.split("fun both").nth(1).unwrap();
        assert!(both.contains("match"), "short-circuit via match: {both}");
    }

    #[test]
    fn bare_ctor_eta_expands() {
        let p = lower_src(
            r#"
type list<a> { Nil; Cons(head: a, tail: list<a>) }
fun apply(f: (int, list<int>) -> list<int>): list<int> { f(1, Nil) }
fun main(): list<int> { apply(Cons) }
"#,
        );
        let s = perceus_core::ir::pretty::program_to_string(&p);
        assert!(s.contains("fn"), "{s}");
    }

    #[test]
    fn prefix_pattern_pads_wildcards() {
        let p = lower_src(
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
        );
        let s = perceus_core::ir::pretty::program_to_string(&p);
        assert!(s.contains("Node("), "{s}");
    }
}
