//! A-normalization and capture annotation.
//!
//! The Perceus rules (Fig. 8) and the abstract machine both assume a
//! program in *administrative normal form*: every argument position (of
//! applications, direct calls, primitives and constructors) holds an
//! atom — a variable, literal or global — and every lambda carries its
//! exact free-variable set as its capture list. This pass establishes
//! that form, and additionally:
//!
//! * names every match-arm field with a fresh binder when the source used
//!   a wildcard, so that drop specialization (Fig. 1c) can transfer or
//!   drop each child explicitly; and
//! * propagates variable-to-variable `val` bindings (copy propagation),
//!   which keeps the ownership environments of the Perceus rules free of
//!   aliases.
//!
//! Captures are set once an outermost lambda is normalized, from one
//! free-variable annotation ([`ir::fv`](crate::ir::fv)) of it, so nested
//! lambdas do not walk their bodies again.

use crate::ir::expr::{Arm, Expr, Lambda};
use crate::ir::fv::FreeVars;
use crate::ir::program::Program;
use crate::ir::var::{Var, VarGen};
use std::collections::HashMap;

/// Normalizes every function of the program in place.
pub fn normalize_program(p: &mut Program) {
    let mut gen = std::mem::take(&mut p.var_gen);
    let mut n = Normalizer {
        gen: &mut gen,
        fv: FreeVars::default(),
        lambdas: 0,
    };
    for f in &mut p.funs {
        let body = std::mem::replace(&mut f.body, Expr::unit());
        f.body = n.expr(body, &mut HashMap::new());
    }
    p.var_gen = gen;
}

/// Normalizes a single expression (used by unit tests).
pub fn normalize_expr(e: Expr, gen: &mut VarGen) -> Expr {
    Normalizer {
        gen,
        fv: FreeVars::default(),
        lambdas: 0,
    }
    .expr(e, &mut HashMap::new())
}

/// Sets the captures of every lambda in `e`, node `n` of `fv`, to the
/// lambda's free variables in ascending id order.
fn set_captures(fv: &FreeVars, e: &mut Expr, n: usize) {
    if let Expr::Lam(lam) = e {
        lam.captures = fv.free(n).iter().map(|&id| fv.name(id)).collect();
    }
    let mut c = n + 1;
    e.for_each_child_mut(|child| {
        set_captures(fv, child, c);
        c = fv.next(c);
    });
}

struct Normalizer<'a> {
    gen: &'a mut VarGen,
    /// The annotation of the outermost lambda just normalized.
    fv: FreeVars,
    /// How many lambdas enclose the expression being normalized.
    lambdas: usize,
}

type Subst = HashMap<Var, Var>;

impl<'a> Normalizer<'a> {
    /// Normalizes `e` under the copy-propagation substitution `sub`.
    fn expr(&mut self, e: Expr, sub: &mut Subst) -> Expr {
        match e {
            Expr::Var(v) => Expr::Var(resolve(&v, sub)),
            Expr::Lit(_) | Expr::Global(_) | Expr::Abort(_) | Expr::NullToken => e,
            Expr::TokenOf(v) => Expr::TokenOf(resolve(&v, sub)),
            Expr::App(f, args) => {
                let mut binds = Vec::new();
                let f = self.atomize(*f, sub, &mut binds);
                let args = args
                    .into_iter()
                    .map(|a| self.atomize(a, sub, &mut binds))
                    .collect();
                wrap(binds, Expr::App(Box::new(f), args))
            }
            Expr::Call(id, args) => {
                let mut binds = Vec::new();
                let args = args
                    .into_iter()
                    .map(|a| self.atomize(a, sub, &mut binds))
                    .collect();
                wrap(binds, Expr::Call(id, args))
            }
            Expr::Prim(op, args) => {
                let mut binds = Vec::new();
                let args = args
                    .into_iter()
                    .map(|a| self.atomize(a, sub, &mut binds))
                    .collect();
                wrap(binds, Expr::Prim(op, args))
            }
            Expr::Con {
                ctor,
                args,
                reuse,
                skip,
            } => {
                let mut binds = Vec::new();
                let args = args
                    .into_iter()
                    .map(|a| self.atomize(a, sub, &mut binds))
                    .collect();
                let reuse = reuse.map(|t| resolve(&t, sub));
                wrap(
                    binds,
                    Expr::Con {
                        ctor,
                        args,
                        reuse,
                        skip,
                    },
                )
            }
            Expr::Lam(lam) => {
                self.lambdas += 1;
                let mut e = Expr::Lam(self.lambda(lam, sub));
                self.lambdas -= 1;
                if self.lambdas == 0 {
                    // The captures of this lambda and every lambda in it.
                    self.fv.annotate_named(&e, []);
                    set_captures(&self.fv, &mut e, 0);
                }
                e
            }
            Expr::Let { var, rhs, body } => {
                let rhs = self.expr(*rhs, sub);
                if let Expr::Var(alias) = &rhs {
                    // Copy propagation: val x = y; e  ⇒  e[x := y]
                    sub.insert(var, alias.clone());
                    let body = self.expr(*body, sub);
                    return body;
                }
                let body = self.expr(*body, sub);
                Expr::let_(var, rhs, body)
            }
            Expr::Seq(a, b) => {
                let a = self.expr(*a, sub);
                let b = self.expr(*b, sub);
                // Drop trivially pure statements.
                if a.is_atom() {
                    b
                } else {
                    Expr::seq(a, b)
                }
            }
            Expr::Match {
                scrutinee,
                arms,
                default,
            } => {
                let scrutinee = resolve(&scrutinee, sub);
                let arms = arms.into_iter().map(|arm| self.arm(arm, sub)).collect();
                let default = default.map(|d| Box::new(self.expr(*d, sub)));
                Expr::Match {
                    scrutinee,
                    arms,
                    default,
                }
            }
            Expr::Dup(v, rest) => Expr::dup(resolve(&v, sub), self.expr(*rest, sub)),
            Expr::Drop(v, rest) => Expr::drop_(resolve(&v, sub), self.expr(*rest, sub)),
            Expr::Free(v, rest) => Expr::Free(resolve(&v, sub), Box::new(self.expr(*rest, sub))),
            Expr::DecRef(v, rest) => {
                Expr::DecRef(resolve(&v, sub), Box::new(self.expr(*rest, sub)))
            }
            Expr::DropToken(v, rest) => {
                Expr::DropToken(resolve(&v, sub), Box::new(self.expr(*rest, sub)))
            }
            Expr::DropReuse { var, token, body } => Expr::DropReuse {
                var: resolve(&var, sub),
                token,
                body: Box::new(self.expr(*body, sub)),
            },
            Expr::IsUnique {
                var,
                binders,
                unique,
                shared,
            } => Expr::IsUnique {
                var: resolve(&var, sub),
                binders: binders.iter().map(|b| resolve(b, sub)).collect(),
                unique: Box::new(self.expr(*unique, sub)),
                shared: Box::new(self.expr(*shared, sub)),
            },
        }
    }

    fn arm(&mut self, arm: Arm, sub: &mut Subst) -> Arm {
        // Name every wildcard field so later passes can address children.
        let binders = arm
            .binders
            .into_iter()
            .map(|b| Some(b.unwrap_or_else(|| self.gen.fresh("_w"))))
            .collect();
        Arm {
            ctor: arm.ctor,
            binders,
            reuse_token: arm.reuse_token,
            body: self.expr(arm.body, sub),
        }
    }

    fn lambda(&mut self, lam: Lambda, sub: &mut Subst) -> Lambda {
        Lambda {
            params: lam.params,
            captures: Vec::new(),
            body: Box::new(self.expr(*lam.body, sub)),
        }
    }

    /// Normalizes `e` to an atom, hoisting a binding when necessary.
    fn atomize(&mut self, e: Expr, sub: &mut Subst, binds: &mut Vec<(Var, Expr)>) -> Expr {
        let e = self.expr(e, sub);
        if e.is_atom() {
            e
        } else {
            let tmp = self.gen.fresh("_t");
            binds.push((tmp.clone(), e));
            Expr::Var(tmp)
        }
    }
}

fn resolve(v: &Var, sub: &Subst) -> Var {
    let mut cur = v;
    while let Some(next) = sub.get(cur) {
        cur = next;
    }
    cur.clone()
}

fn wrap(binds: Vec<(Var, Expr)>, body: Expr) -> Expr {
    binds
        .into_iter()
        .rev()
        .fold(body, |acc, (v, rhs)| Expr::let_(v, rhs, acc))
}

/// Returns true when `e` is in A-normal form (argument positions are
/// atoms). Used by debug assertions and tests.
pub fn is_anf(e: &Expr) -> bool {
    let mut ok = true;
    e.visit(&mut |n| match n {
        Expr::App(f, args) if (!f.is_atom() || args.iter().any(|a| !a.is_atom())) => {
            ok = false;
        }
        Expr::Call(_, args) | Expr::Prim(_, args) | Expr::Con { args, .. }
            if args.iter().any(|a| !a.is_atom()) =>
        {
            ok = false;
        }
        _ => {}
    });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::expr::PrimOp;

    fn v(id: u32, hint: &str) -> Var {
        Var::new(id, hint)
    }

    #[test]
    fn hoists_nested_arguments() {
        // (1 + 2) * 3  ⇒  val t = 1 + 2; t * 3
        let mut gen = VarGen::starting_at(100);
        let e = Expr::Prim(
            PrimOp::Mul,
            vec![
                Expr::Prim(PrimOp::Add, vec![Expr::int(1), Expr::int(2)]),
                Expr::int(3),
            ],
        );
        let n = normalize_expr(e, &mut gen);
        assert!(is_anf(&n));
        match &n {
            Expr::Let { rhs, body, .. } => {
                assert!(matches!(**rhs, Expr::Prim(PrimOp::Add, _)));
                assert!(matches!(**body, Expr::Prim(PrimOp::Mul, _)));
            }
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn copy_propagates_variable_lets() {
        let x = v(0, "x");
        let y = v(1, "y");
        // val y = x; y + y   ⇒   x + x
        let e = Expr::let_(
            y.clone(),
            Expr::Var(x.clone()),
            Expr::Prim(
                PrimOp::Add,
                vec![Expr::Var(y.clone()), Expr::Var(y.clone())],
            ),
        );
        let mut gen = VarGen::starting_at(100);
        let n = normalize_expr(e, &mut gen);
        assert_eq!(
            n,
            Expr::Prim(PrimOp::Add, vec![Expr::Var(x.clone()), Expr::Var(x)])
        );
    }

    #[test]
    fn names_wildcard_binders() {
        use crate::ir::expr::Arm;
        use crate::ir::program::CtorId;
        let s = v(0, "s");
        let e = Expr::Match {
            scrutinee: s.clone(),
            arms: vec![Arm {
                ctor: CtorId(7),
                binders: vec![None, Some(v(1, "t"))],
                reuse_token: None,
                body: Expr::unit(),
            }],
            default: None,
        };
        let mut gen = VarGen::starting_at(100);
        let n = normalize_expr(e, &mut gen);
        match n {
            Expr::Match { arms, .. } => {
                assert!(arms[0].binders.iter().all(Option::is_some));
            }
            other => panic!("expected match, got {other:?}"),
        }
    }

    #[test]
    fn annotates_lambda_captures() {
        let x = v(0, "x");
        let y = v(1, "y");
        let lam = Expr::Lam(Lambda {
            params: vec![y.clone()],
            captures: vec![],
            body: Box::new(Expr::Prim(
                PrimOp::Add,
                vec![Expr::Var(x.clone()), Expr::Var(y.clone())],
            )),
        });
        let mut gen = VarGen::starting_at(100);
        let n = normalize_expr(lam, &mut gen);
        match n {
            Expr::Lam(l) => assert_eq!(l.captures, vec![x]),
            other => panic!("expected lambda, got {other:?}"),
        }
    }

    #[test]
    fn is_anf_detects_violations() {
        let e = Expr::Call(
            crate::ir::program::FunId(0),
            vec![Expr::Prim(PrimOp::Add, vec![Expr::int(1), Expr::int(2)])],
        );
        assert!(!is_anf(&e));
    }
}
