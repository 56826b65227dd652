//! Well-formedness checking for core programs: scoping, arities, and
//! consistency of pass-introduced annotations. Run between passes in
//! debug builds and by the test suite to catch transformation bugs early,
//! and once at the end of every release compile.
//!
//! # Cost
//!
//! One check takes time linear in the size of each function:
//!
//! - The scope is a table indexed by variable id holding the lambda
//!   nesting level that binds the id, raised at a binder and restored
//!   when its scope ends, so a scope test costs the same at any depth.
//!   A lambda body is checked one level up, where only its captures and
//!   parameters are bound.
//! - A lambda's captures are compared with its free variables from the
//!   function's free-variable annotation ([`ir::fv`](crate::ir::fv)),
//!   made on the first lambda the check meets.

use super::expr::{Expr, Lambda};
use super::fv::FreeVars;
use super::program::{FunId, Program, TypeTable};
use super::var::{Var, VarSet};
use std::fmt;

/// A well-formedness violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WfError {
    /// Function in which the violation occurred (`None` for table-level
    /// problems).
    pub fun: Option<FunId>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for WfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.fun {
            Some(id) => write!(f, "in function #{}: {}", id.0, self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for WfError {}

/// Checks the whole program; returns the first violation found.
pub fn check_program(p: &Program) -> Result<(), WfError> {
    if let Some(entry) = p.entry {
        if entry.0 as usize >= p.funs.len() {
            return Err(WfError {
                fun: None,
                message: format!("entry point #{} out of range", entry.0),
            });
        }
    }
    let mut cx = Cx {
        p,
        fun: FunId(0),
        body: &Expr::NullToken,
        scope: vec![0; p.var_gen.peek() as usize],
        saved: Vec::new(),
        level: 1,
        node: 0,
        fv: FreeVars::default(),
        annotated: false,
        ids: Vec::new(),
    };
    for (id, f) in p.funs() {
        cx.fun = id;
        cx.body = &f.body;
        cx.node = 0;
        cx.annotated = false;
        for par in &f.params {
            if cx.in_scope(par) {
                return Err(cx.err(format!("duplicate parameter {par:?}")));
            }
            cx.bind(par)?;
        }
        cx.expr(&f.body)?;
        cx.restore(0);
    }
    Ok(())
}

struct Cx<'a> {
    p: &'a Program,
    fun: FunId,
    body: &'a Expr,
    /// Per id, the lambda nesting level whose scope binds it (0: none).
    /// An id is in scope when it is bound at the current level.
    scope: Vec<u32>,
    /// `(id, previous level)` per binding in force, innermost last.
    saved: Vec<(u32, u32)>,
    level: u32,
    /// The pre-order number of the node being checked.
    node: usize,
    /// The function's free-variable annotation, once `annotated`.
    fv: FreeVars,
    annotated: bool,
    /// Scratch: a lambda's capture ids, sorted.
    ids: Vec<u32>,
}

impl<'a> Cx<'a> {
    fn err(&self, message: String) -> WfError {
        WfError {
            fun: Some(self.fun),
            message,
        }
    }

    fn in_scope(&self, v: &Var) -> bool {
        self.scope.get(v.id() as usize) == Some(&self.level)
    }

    fn use_var(&self, v: &Var, what: &str) -> Result<(), WfError> {
        if self.in_scope(v) {
            Ok(())
        } else {
            Err(self.err(format!("{what} {v:?} is not in scope")))
        }
    }

    fn bind(&mut self, v: &Var) -> Result<(), WfError> {
        // Shadowing by id is a pass bug: ids are globally unique.
        if self.in_scope(v) {
            return Err(self.err(format!("rebinding of variable {v:?}")));
        }
        let i = v.id() as usize;
        if i >= self.scope.len() {
            self.scope.resize(i + 1, 0);
        }
        self.saved.push((v.id(), self.scope[i]));
        self.scope[i] = self.level;
        Ok(())
    }

    /// Ends every binding made since `saved` had length `mark`.
    fn restore(&mut self, mark: usize) {
        for (id, level) in self.saved.drain(mark..).rev() {
            self.scope[id as usize] = level;
        }
    }

    fn ctor_arity(&self, id: super::program::CtorId) -> Result<usize, WfError> {
        if id.0 as usize >= self.p.types.ctor_count() {
            return Err(self.err(format!("constructor #{} out of range", id.0)));
        }
        Ok(self.p.types.ctor(id).arity)
    }

    fn expr(&mut self, e: &'a Expr) -> Result<(), WfError> {
        let n = self.node;
        self.node += 1;
        match e {
            Expr::Var(v) => self.use_var(v, "variable"),
            Expr::Lit(_) | Expr::Abort(_) | Expr::NullToken => Ok(()),
            Expr::Global(f) | Expr::Call(f, _) if f.0 as usize >= self.p.funs.len() => {
                Err(self.err(format!("function #{} out of range", f.0)))
            }
            Expr::Global(_) => Ok(()),
            Expr::Call(f, args) => {
                let def = self.p.fun(*f);
                if def.params.len() != args.len() {
                    return Err(self.err(format!(
                        "call of {} with {} args, expected {}",
                        def.name,
                        args.len(),
                        def.params.len()
                    )));
                }
                for a in args {
                    self.expr(a)?;
                }
                Ok(())
            }
            Expr::App(f, args) => {
                self.expr(f)?;
                for a in args {
                    self.expr(a)?;
                }
                Ok(())
            }
            Expr::Prim(op, args) => {
                if op.arity() != args.len() {
                    return Err(self.err(format!(
                        "primitive {op} with {} args, expected {}",
                        args.len(),
                        op.arity()
                    )));
                }
                for a in args {
                    self.expr(a)?;
                }
                Ok(())
            }
            Expr::Lam(lam) => self.lambda(n, lam),
            Expr::Con {
                ctor,
                args,
                reuse,
                skip,
            } => {
                let arity = self.ctor_arity(*ctor)?;
                if args.len() != arity {
                    return Err(self.err(format!(
                        "constructor {} applied to {} args, expected {arity}",
                        self.p.types.ctor(*ctor).name,
                        args.len()
                    )));
                }
                if let Some(t) = reuse {
                    self.use_var(t, "reuse token")?;
                    if arity == 0 {
                        return Err(self.err("reuse token on a singleton constructor".to_string()));
                    }
                }
                if !skip.is_empty() {
                    if skip.len() != arity {
                        return Err(self.err("skip mask length mismatch".to_string()));
                    }
                    if reuse.is_none() {
                        return Err(self.err("skip mask without reuse token".to_string()));
                    }
                }
                for a in args {
                    self.expr(a)?;
                }
                Ok(())
            }
            Expr::Let { var, rhs, body } => {
                self.expr(rhs)?;
                let mark = self.saved.len();
                self.bind(var)?;
                self.expr(body)?;
                self.restore(mark);
                Ok(())
            }
            Expr::Seq(a, b) => {
                self.expr(a)?;
                self.expr(b)
            }
            Expr::Match {
                scrutinee,
                arms,
                default,
            } => {
                self.use_var(scrutinee, "scrutinee")?;
                for arm in arms {
                    let arity = self.ctor_arity(arm.ctor)?;
                    if arm.binders.len() != arity {
                        return Err(self.err(format!(
                            "pattern {} with {} binders, expected {arity}",
                            self.p.types.ctor(arm.ctor).name,
                            arm.binders.len()
                        )));
                    }
                    let mark = self.saved.len();
                    for b in arm.binders.iter().flatten() {
                        self.bind(b)?;
                    }
                    if let Some(t) = &arm.reuse_token {
                        if arity == 0 {
                            return Err(self.err("reuse token on a singleton pattern".to_string()));
                        }
                        self.bind(t)?;
                    }
                    self.expr(&arm.body)?;
                    self.restore(mark);
                }
                if let Some(d) = default {
                    self.expr(d)?;
                }
                Ok(())
            }
            Expr::Dup(v, rest)
            | Expr::Drop(v, rest)
            | Expr::Free(v, rest)
            | Expr::DecRef(v, rest)
            | Expr::DropToken(v, rest) => {
                self.use_var(v, "rc operand")?;
                self.expr(rest)
            }
            Expr::DropReuse { var, token, body } => {
                self.use_var(var, "drop-reuse operand")?;
                let mark = self.saved.len();
                self.bind(token)?;
                self.expr(body)?;
                self.restore(mark);
                Ok(())
            }
            Expr::IsUnique {
                var,
                binders,
                unique,
                shared,
            } => {
                self.use_var(var, "is-unique operand")?;
                for b in binders {
                    self.use_var(b, "is-unique binder")?;
                }
                self.expr(unique)?;
                self.expr(shared)
            }
            Expr::TokenOf(v) => self.use_var(v, "token-of operand"),
        }
    }

    /// Lambda node `n`.
    fn lambda(&mut self, n: usize, lam: &'a Lambda) -> Result<(), WfError> {
        // Captures must be exactly the free variables, each in scope.
        if !self.annotated {
            self.fv.annotate(self.body);
            self.annotated = true;
        }
        for c in &lam.captures {
            self.use_var(c, "capture")?;
        }
        self.ids.clear();
        self.ids.extend(lam.captures.iter().map(Var::id));
        self.ids.sort_unstable();
        self.ids.dedup();
        if self.ids != self.fv.free(n) {
            let declared: VarSet = lam.captures.iter().cloned().collect();
            let params = &self.p.funs[self.fun.0 as usize].params;
            self.fv.annotate_named(self.body, params);
            let fv: VarSet = self.fv.free(n).iter().map(|&id| self.fv.name(id)).collect();
            return Err(self.err(format!(
                "lambda captures {declared:?} do not match free variables {fv:?}"
            )));
        }
        // The body is checked in its own scope: params + captures only.
        let mark = self.saved.len();
        self.level += 1;
        for v in lam.captures.iter().chain(lam.params.iter()) {
            self.bind(v)?;
        }
        self.expr(&lam.body)?;
        self.restore(mark);
        self.level -= 1;
        Ok(())
    }
}

/// Convenience used by tests: panics with a readable message on error.
pub fn assert_well_formed(p: &Program) {
    if let Err(e) = check_program(p) {
        panic!("program not well-formed: {e}\n{p}");
    }
}

/// Returns true when the bool type is used consistently (both builtin
/// ctor ids resolve to the builtin data). Mostly a guard for hand-built
/// tables in tests.
pub fn bool_builtin_intact(types: &TypeTable) -> bool {
    types.ctor(TypeTable::TRUE).data == TypeTable::BOOL
        && types.ctor(TypeTable::FALSE).data == TypeTable::BOOL
        && types.ctor(TypeTable::TRUE).arity == 0
        && types.ctor(TypeTable::FALSE).arity == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::expr::{Arm, Lit};
    use crate::ir::program::FunDef;

    fn v(id: u32, hint: &str) -> Var {
        Var::new(id, hint)
    }

    fn prog_with_body(params: Vec<Var>, body: Expr) -> Program {
        let mut p = Program::new();
        p.add_fun(FunDef {
            name: "f".into(),
            params,
            body,
        });
        p
    }

    #[test]
    fn accepts_simple_program() {
        let x = v(0, "x");
        let p = prog_with_body(vec![x.clone()], Expr::Var(x));
        assert!(check_program(&p).is_ok());
    }

    #[test]
    fn rejects_unbound_variable() {
        let p = prog_with_body(vec![], Expr::Var(v(7, "ghost")));
        let err = check_program(&p).unwrap_err();
        assert!(err.message.contains("not in scope"), "{err}");
    }

    #[test]
    fn rejects_ctor_arity_mismatch() {
        let mut p = Program::new();
        let list = p.types.add_data("list");
        let cons = p.types.add_ctor_arity(list, "Cons", 2);
        p.add_fun(FunDef {
            name: "f".into(),
            params: vec![],
            body: Expr::Con {
                ctor: cons,
                args: vec![Expr::Lit(Lit::Int(1))],
                reuse: None,
                skip: vec![],
            },
        });
        assert!(check_program(&p).is_err());
    }

    #[test]
    fn rejects_wrong_captures() {
        use crate::ir::expr::Lambda;
        let x = v(0, "x");
        let y = v(1, "y");
        let lam = Lambda {
            params: vec![y.clone()],
            captures: vec![], // wrong: x is free in the body
            body: Box::new(Expr::Var(x.clone())),
        };
        let p = prog_with_body(vec![x], Expr::Lam(lam));
        let err = check_program(&p).unwrap_err();
        assert!(err.message.contains("captures"), "{err}");
    }

    #[test]
    fn rejects_match_binder_arity() {
        let mut p = Program::new();
        let list = p.types.add_data("list");
        let _nil = p.types.add_ctor_arity(list, "Nil", 0);
        let cons = p.types.add_ctor_arity(list, "Cons", 2);
        let xs = v(0, "xs");
        p.add_fun(FunDef {
            name: "f".into(),
            params: vec![xs.clone()],
            body: Expr::Match {
                scrutinee: xs.clone(),
                arms: vec![Arm {
                    ctor: cons,
                    binders: vec![Some(v(1, "h"))], // wrong arity
                    reuse_token: None,
                    body: Expr::unit(),
                }],
                default: Some(Box::new(Expr::unit())),
            },
        });
        assert!(check_program(&p).is_err());
    }

    #[test]
    fn rejects_skip_without_reuse() {
        let mut p = Program::new();
        let list = p.types.add_data("pair");
        let mk = p.types.add_ctor_arity(list, "Pair", 2);
        p.add_fun(FunDef {
            name: "f".into(),
            params: vec![],
            body: Expr::Con {
                ctor: mk,
                args: vec![Expr::int(1), Expr::int(2)],
                reuse: None,
                skip: vec![true, false],
            },
        });
        assert!(check_program(&p).is_err());
    }

    #[test]
    fn rejects_rebinding() {
        let x = v(0, "x");
        let body = Expr::let_(
            x.clone(),
            Expr::int(1),
            Expr::let_(x.clone(), Expr::int(2), Expr::Var(x.clone())),
        );
        let p = prog_with_body(vec![], body);
        let err = check_program(&p).unwrap_err();
        assert!(err.message.contains("rebinding"), "{err}");
    }
}
