//! Drop specialization and drop-reuse specialization (§2.3/§2.4,
//! Fig. 1c and Fig. 1f of the paper).
//!
//! Inside a match arm the constructor of the scrutinee is statically
//! known, so its `drop` can be inlined and specialized:
//!
//! ```text
//! drop x; e                       if is-unique(x) { drop b₁ … drop bₙ; free x }
//!            ──────────────▶      else            { decref x }
//!                                 e
//! ```
//!
//! and a `drop-reuse` becomes the token-producing conditional of Fig. 1f:
//!
//! ```text
//! val ru = drop-reuse x; e   ⇒   val ru = if is-unique(x) { drop bᵢ…; &x }
//!                                         else            { decref x; NULL }
//!                                e
//! ```
//!
//! Following the paper, a plain `drop` is only specialized when at least
//! one child is used afterwards — otherwise the generic `drop` is both
//! smaller and just as fast (e.g. the `Nil` branch of `map`).
//!
//! In the unique branch, the cell's ownership of its children transfers
//! to the arm binders (recorded in [`Expr::IsUnique::binders`]); the
//! resource checker relies on this to validate the output.
//!
//! Whether a continuation uses a child is read from the function's
//! free-variable annotation ([`ir::fv`](crate::ir::fv)), so the pass
//! walks each body once, in place, plus the annotation's walk.

use crate::ir::expr::Expr;
use crate::ir::fv::FreeVars;
use crate::ir::program::Program;
use crate::ir::var::Var;

/// Which specializations to perform.
#[derive(Debug, Clone, Copy)]
pub struct DropSpecConfig {
    /// Specialize plain `drop` of matched cells (Fig. 1c).
    pub specialize_drop: bool,
    /// Specialize `drop-reuse` into the token conditional (Fig. 1f).
    pub specialize_drop_reuse: bool,
}

impl Default for DropSpecConfig {
    fn default() -> Self {
        DropSpecConfig {
            specialize_drop: true,
            specialize_drop_reuse: true,
        }
    }
}

/// Runs the pass over every function.
pub fn drop_spec_program(p: &mut Program, config: &DropSpecConfig) {
    let mut fv = FreeVars::default();
    for f in &mut p.funs {
        fv.annotate(&f.body);
        let mut cx = Cx {
            fv: &fv,
            config,
            arms: Vec::new(),
            floor: 0,
            node: 0,
        };
        cx.rewrite(&mut f.body);
    }
}

struct Cx<'a> {
    /// The free variables of the original body, by pre-order node.
    fv: &'a FreeVars,
    config: &'a DropSpecConfig,
    /// The enclosing match arms, innermost last: each scrutinee's id and
    /// the arm's binders, lent by the arm while its body is rewritten.
    arms: Vec<(u32, Vec<Option<Var>>)>,
    /// Where the arms of the innermost enclosing lambda body start: the
    /// closure may not capture the binders of arms outside it, so it
    /// cannot dismantle their cells.
    floor: usize,
    /// The pre-order number of the next node of the original body.
    node: usize,
}

impl Cx<'_> {
    /// The binders of the innermost enclosing arm that matched `x`, when
    /// that arm names every field, so the cell can be dismantled.
    fn binders(&self, x: &Var) -> Option<&[Option<Var>]> {
        let (_, binders) = self.arms[self.floor..]
            .iter()
            .rfind(|(s, _)| *s == x.id())?;
        binders.iter().all(Option::is_some).then_some(binders)
    }

    /// Rewrites `e` in place, the next node of the original body.
    fn rewrite(&mut self, e: &mut Expr) {
        let n = self.node;
        self.node += 1;
        match e {
            Expr::Drop(x, rest) => {
                // The continuation is the next node.
                let bs = self
                    .binders(x)
                    .filter(|bs| {
                        self.config.specialize_drop
                            && bs
                                .iter()
                                .flatten()
                                .any(|b| self.fv.contains(self.node, b.id()))
                    })
                    .map(children);
                self.rewrite(rest);
                if let Some(bs) = bs {
                    let Expr::Drop(x, rest) = std::mem::replace(e, Expr::NullToken) else {
                        unreachable!("matched above")
                    };
                    let unique =
                        Expr::drop_all(bs.clone(), Expr::Free(x.clone(), Box::new(Expr::unit())));
                    let shared = Expr::DecRef(x.clone(), Box::new(Expr::unit()));
                    let test = Expr::IsUnique {
                        var: x,
                        binders: bs,
                        unique: Box::new(unique),
                        shared: Box::new(shared),
                    };
                    *e = Expr::Seq(Box::new(test), rest);
                }
            }
            Expr::DropReuse { var, body, .. } => {
                let bs = self
                    .binders(var)
                    .filter(|_| self.config.specialize_drop_reuse)
                    .map(children);
                self.rewrite(body);
                if let Some(bs) = bs {
                    let Expr::DropReuse { var, token, body } =
                        std::mem::replace(e, Expr::NullToken)
                    else {
                        unreachable!("matched above")
                    };
                    let unique = Expr::drop_all(bs.clone(), Expr::TokenOf(var.clone()));
                    let shared = Expr::DecRef(var.clone(), Box::new(Expr::NullToken));
                    let rhs = Expr::IsUnique {
                        var,
                        binders: bs,
                        unique: Box::new(unique),
                        shared: Box::new(shared),
                    };
                    *e = Expr::Let {
                        var: token,
                        rhs: Box::new(rhs),
                        body,
                    };
                }
            }
            Expr::Match {
                scrutinee,
                arms,
                default,
            } => {
                for arm in arms.iter_mut() {
                    self.arms
                        .push((scrutinee.id(), std::mem::take(&mut arm.binders)));
                    self.rewrite(&mut arm.body);
                    arm.binders = self.arms.pop().expect("pushed above").1;
                }
                if let Some(d) = default {
                    self.rewrite(d);
                }
            }
            Expr::Lam(lam) => {
                let floor = std::mem::replace(&mut self.floor, self.arms.len());
                self.rewrite(&mut lam.body);
                self.floor = floor;
            }
            Expr::Let {
                rhs: a, body: b, ..
            }
            | Expr::Seq(a, b)
            | Expr::IsUnique {
                unique: a,
                shared: b,
                ..
            } => {
                self.rewrite(a);
                self.rewrite(b);
            }
            Expr::Dup(_, rest)
            | Expr::Free(_, rest)
            | Expr::DecRef(_, rest)
            | Expr::DropToken(_, rest) => self.rewrite(rest),
            // ANF: argument positions are atoms; nothing to rewrite inside.
            Expr::App(f, _) => {
                self.rewrite(f);
                self.node = self.fv.next(n);
            }
            Expr::Call(..)
            | Expr::Prim(..)
            | Expr::Con { .. }
            | Expr::Var(_)
            | Expr::Lit(_)
            | Expr::Global(_)
            | Expr::Abort(_)
            | Expr::TokenOf(_)
            | Expr::NullToken => self.node = self.fv.next(n),
        }
    }
}

/// The variables of a cell's children, from [`Cx::binders`].
fn children(binders: &[Option<Var>]) -> Vec<Var> {
    binders.iter().flatten().cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::builder::{arm, con, ProgramBuilder};
    use crate::ir::pretty::program_to_string;

    /// match xs { Cons(x, xx) -> dup x; dup xx; drop xs; Cons(x, xx) }
    fn sample(reuse: bool) -> Program {
        let mut pb = ProgramBuilder::new();
        let (_, ctors) = pb.data("list", &[("Nil", 0), ("Cons", 2)]);
        let cons = ctors[1];
        let xs = pb.fresh("xs");
        let x = pb.fresh("x");
        let xx = pb.fresh("xx");
        let ru = pb.fresh("ru");
        let alloc = if reuse {
            Expr::Con {
                ctor: cons,
                args: vec![Expr::Var(x.clone()), Expr::Var(xx.clone())],
                reuse: Some(ru.clone()),
                skip: vec![],
            }
        } else {
            con(cons, vec![Expr::Var(x.clone()), Expr::Var(xx.clone())])
        };
        let inner = if reuse {
            Expr::DropReuse {
                var: xs.clone(),
                token: ru.clone(),
                body: Box::new(alloc),
            }
        } else {
            Expr::drop_(xs.clone(), alloc)
        };
        let body = Expr::Match {
            scrutinee: xs.clone(),
            arms: vec![arm(
                cons,
                vec![x.clone(), xx.clone()],
                Expr::dup(x.clone(), Expr::dup(xx.clone(), inner)),
            )],
            default: Some(Box::new(Expr::unit())),
        };
        pb.fun("f", vec![xs], body);
        pb.finish()
    }

    #[test]
    fn specializes_drop_of_matched_cell() {
        let mut p = sample(false);
        drop_spec_program(&mut p, &DropSpecConfig::default());
        let s = program_to_string(&p);
        assert!(s.contains("if is-unique(xs)"), "{s}");
        assert!(s.contains("free xs"), "{s}");
        assert!(s.contains("decref xs"), "{s}");
        // Children dropped in the unique branch (Fig. 1c).
        let unique = s.split("if is-unique").nth(1).unwrap();
        assert!(unique.contains("drop x"), "{s}");
        assert!(unique.contains("drop xx"), "{s}");
    }

    #[test]
    fn specializes_drop_reuse_into_token_conditional() {
        let mut p = sample(true);
        drop_spec_program(&mut p, &DropSpecConfig::default());
        let s = program_to_string(&p);
        assert!(s.contains("val ru = {"), "{s}");
        assert!(s.contains("&xs"), "{s}");
        assert!(s.contains("NULL"), "{s}");
        assert!(s.contains("decref xs"), "{s}");
    }

    #[test]
    fn leaves_unrelated_drops_alone() {
        // drop of a variable that was never matched stays generic.
        let mut pb = ProgramBuilder::new();
        let x = pb.fresh("x");
        pb.fun("f", vec![x.clone()], Expr::drop_(x.clone(), Expr::int(0)));
        let mut p = pb.finish();
        drop_spec_program(&mut p, &DropSpecConfig::default());
        assert_eq!(p.funs[0].body, Expr::drop_(x, Expr::int(0)));
    }

    #[test]
    fn does_not_specialize_when_children_unused() {
        // match xs { Cons(x, xx) -> drop xs; 42 } — no child used after.
        let mut pb = ProgramBuilder::new();
        let (_, ctors) = pb.data("list", &[("Nil", 0), ("Cons", 2)]);
        let cons = ctors[1];
        let xs = pb.fresh("xs");
        let x = pb.fresh("x");
        let xx = pb.fresh("xx");
        let body = Expr::Match {
            scrutinee: xs.clone(),
            arms: vec![arm(
                cons,
                vec![x, xx],
                Expr::drop_(xs.clone(), Expr::int(42)),
            )],
            default: Some(Box::new(Expr::unit())),
        };
        pb.fun("f", vec![xs], body);
        let mut p = pb.finish();
        drop_spec_program(&mut p, &DropSpecConfig::default());
        let s = program_to_string(&p);
        assert!(!s.contains("is-unique"), "{s}");
    }

    #[test]
    fn config_can_disable() {
        let mut p = sample(false);
        drop_spec_program(
            &mut p,
            &DropSpecConfig {
                specialize_drop: false,
                specialize_drop_reuse: false,
            },
        );
        let s = program_to_string(&p);
        assert!(!s.contains("is-unique"), "{s}");
    }
}
