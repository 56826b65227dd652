//! Free-variable computation for core expressions.

use super::expr::{Expr, Lambda};
use super::var::{Var, VarSet};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Returns the free variables of `e` as an ordered set.
pub fn free_vars(e: &Expr) -> VarSet {
    let mut out = VarSet::new();
    collect(e, &mut Bound::default(), &mut out);
    out
}

/// Returns the free variables of a lambda: `fv(body) − params`.
pub fn lambda_free_vars(lam: &Lambda) -> VarSet {
    let mut out = VarSet::new();
    let mut bound = Bound::default();
    bound.push(&lam.params);
    collect(&lam.body, &mut bound, &mut out);
    out
}

/// The binders in scope, as a count per id, so a membership test costs
/// the same at any depth. A count, not a flag: an id bound again in a
/// nested scope is still bound when the inner scope ends.
#[derive(Default)]
struct Bound(HashMap<u32, u32, BuildHasherDefault<IdHasher>>);

impl Bound {
    fn contains(&self, v: &Var) -> bool {
        self.0.get(&v.id()).is_some_and(|&n| n > 0)
    }

    fn push<'a>(&mut self, vars: impl IntoIterator<Item = &'a Var>) {
        for v in vars {
            *self.0.entry(v.id()).or_insert(0) += 1;
        }
    }

    fn pop<'a>(&mut self, vars: impl IntoIterator<Item = &'a Var>) {
        for v in vars {
            *self.0.get_mut(&v.id()).expect("pops follow pushes") -= 1;
        }
    }
}

/// Variable ids are small integers the compiler hands out, never chosen
/// by a client, so one multiplication spreads them well enough (and
/// SipHash made `free_vars` ≈ 40 % slower than the scan it replaces).
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("only u32 ids are hashed")
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn collect(e: &Expr, bound: &mut Bound, out: &mut VarSet) {
    let use_var = |v: &Var, bound: &Bound, out: &mut VarSet| {
        if !bound.contains(v) {
            out.insert(v.clone());
        }
    };
    match e {
        Expr::Var(v) | Expr::TokenOf(v) => use_var(v, bound, out),
        Expr::Lit(_) | Expr::Global(_) | Expr::Abort(_) | Expr::NullToken => {}
        Expr::App(f, args) => {
            collect(f, bound, out);
            for a in args {
                collect(a, bound, out);
            }
        }
        Expr::Call(_, args) | Expr::Prim(_, args) => {
            for a in args {
                collect(a, bound, out);
            }
        }
        Expr::Lam(lam) => {
            bound.push(&lam.params);
            collect(&lam.body, bound, out);
            bound.pop(&lam.params);
        }
        Expr::Con { args, reuse, .. } => {
            if let Some(t) = reuse {
                use_var(t, bound, out);
            }
            for a in args {
                collect(a, bound, out);
            }
        }
        Expr::Let { var, rhs, body } => {
            collect(rhs, bound, out);
            bound.push([var]);
            collect(body, bound, out);
            bound.pop([var]);
        }
        Expr::Seq(a, b) => {
            collect(a, bound, out);
            collect(b, bound, out);
        }
        Expr::Match {
            scrutinee,
            arms,
            default,
        } => {
            use_var(scrutinee, bound, out);
            for arm in arms {
                let binders = || arm.binders.iter().flatten().chain(&arm.reuse_token);
                bound.push(binders());
                collect(&arm.body, bound, out);
                bound.pop(binders());
            }
            if let Some(d) = default {
                collect(d, bound, out);
            }
        }
        Expr::Dup(v, e)
        | Expr::Drop(v, e)
        | Expr::Free(v, e)
        | Expr::DecRef(v, e)
        | Expr::DropToken(v, e) => {
            use_var(v, bound, out);
            collect(e, bound, out);
        }
        Expr::DropReuse { var, token, body } => {
            use_var(var, bound, out);
            bound.push([token]);
            collect(body, bound, out);
            bound.pop([token]);
        }
        Expr::IsUnique {
            var,
            unique,
            shared,
            ..
        } => {
            use_var(var, bound, out);
            collect(unique, bound, out);
            collect(shared, bound, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::expr::Lambda;

    fn v(id: u32, hint: &str) -> Var {
        Var::new(id, hint)
    }

    #[test]
    fn let_binds() {
        let x = v(0, "x");
        let y = v(1, "y");
        let e = Expr::let_(x.clone(), Expr::Var(y.clone()), Expr::Var(x.clone()));
        let fv = free_vars(&e);
        assert!(fv.contains(&y));
        assert!(!fv.contains(&x));
    }

    #[test]
    fn lambda_params_bound() {
        let x = v(0, "x");
        let y = v(1, "y");
        let lam = Lambda {
            params: vec![x.clone()],
            captures: vec![],
            body: Box::new(Expr::App(
                Box::new(Expr::Var(y.clone())),
                vec![Expr::Var(x.clone())],
            )),
        };
        let fv = lambda_free_vars(&lam);
        assert_eq!(fv.len(), 1);
        assert!(fv.contains(&y));
    }

    #[test]
    fn match_binders_and_token_bound() {
        use crate::ir::expr::Arm;
        use crate::ir::program::CtorId;
        let s = v(0, "s");
        let h = v(1, "h");
        let t = v(2, "t");
        let ru = v(3, "ru");
        let e = Expr::Match {
            scrutinee: s.clone(),
            arms: vec![Arm {
                ctor: CtorId(0),
                binders: vec![Some(h.clone()), Some(t.clone())],
                reuse_token: Some(ru.clone()),
                body: Expr::Con {
                    ctor: CtorId(0),
                    args: vec![Expr::Var(h.clone()), Expr::Var(t.clone())],
                    reuse: Some(ru.clone()),
                    skip: vec![],
                },
            }],
            default: None,
        };
        let fv = free_vars(&e);
        assert_eq!(fv.len(), 1);
        assert!(fv.contains(&s));
    }

    #[test]
    fn rc_instructions_use_their_var() {
        let x = v(0, "x");
        let fv = free_vars(&Expr::dup(x.clone(), Expr::unit()));
        assert!(fv.contains(&x));
        let fv = free_vars(&Expr::TokenOf(x.clone()));
        assert!(fv.contains(&x));
    }

    #[test]
    fn rebinding_across_sibling_arms_and_nested_scopes() {
        use crate::ir::expr::Arm;
        use crate::ir::program::CtorId;
        let (s, x, z) = (v(0, "s"), v(1, "x"), v(2, "z"));
        let ids = |set: VarSet| set.iter().map(Var::id).collect::<Vec<_>>();
        let arm = |body| Arm {
            ctor: CtorId(0),
            binders: vec![Some(x.clone())],
            reuse_token: None,
            body,
        };
        // Both arms bind x; the default uses it unbound, so it is free
        // there once the arms' bindings have ended.
        let e = Expr::Match {
            scrutinee: s.clone(),
            arms: vec![arm(Expr::Var(x.clone())), arm(Expr::Var(x.clone()))],
            default: Some(Box::new(Expr::Var(x.clone()))),
        };
        assert_eq!(ids(free_vars(&e)), vec![0, 1]);
        // λx. (val x = z; x); x — the inner binding of x ends, the
        // parameter still binds the last use.
        let lam = Lambda {
            params: vec![x.clone()],
            captures: vec![],
            body: Box::new(Expr::seq(
                Expr::let_(x.clone(), Expr::Var(z.clone()), Expr::Var(x.clone())),
                Expr::Var(x.clone()),
            )),
        };
        assert_eq!(ids(lambda_free_vars(&lam)), vec![2]);
    }

    #[test]
    fn drop_reuse_binds_token() {
        let x = v(0, "x");
        let t = v(1, "ru");
        let e = Expr::DropReuse {
            var: x.clone(),
            token: t.clone(),
            body: Box::new(Expr::Var(t.clone())),
        };
        let fv = free_vars(&e);
        assert_eq!(fv.len(), 1);
        assert!(fv.contains(&x));
    }
}
