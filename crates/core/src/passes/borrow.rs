//! Borrow inference — the paper's §6 future-work item ("we would like
//! to integrate selective borrowing"), implemented in the style of
//! Ullrich & de Moura's Lean scheme.
//!
//! A function parameter is *borrowed* when the caller keeps ownership
//! for the duration of the call and the callee only inspects the value.
//! A borrowed parameter is never consumed by the callee: no `drop` on
//! exit, no `dup`-before-`drop` churn when the callee only matches on
//! it. The classic example is `is-red(t)` or a length function — with
//! owned parameters every call pays a retain/release pair; borrowed,
//! they pay nothing.
//!
//! The price, as the paper notes, is that borrowed programs are no
//! longer *garbage-free*: the caller holds its reference across the
//! whole call even if the callee's last use is early. The pipeline
//! therefore leaves borrowing **off** by default
//! ([`PassConfig::perceus`](crate::passes::PassConfig::perceus)) and
//! offers it as an opt-in.
//!
//! ## Inference
//!
//! Greatest fixpoint: every parameter starts as a borrow candidate and
//! is demoted to owned when the body contains an *owning* occurrence —
//! any occurrence other than (a) a match scrutinee or (b) an argument
//! in a position that is (currently) borrowed. Constructor arguments,
//! closure captures, primitive arguments, returned values and
//! indirect-call arguments all demote. Entry-point parameters stay
//! owned (the host passes owned values).

use crate::ir::expr::Expr;
use crate::ir::program::Program;
use crate::ir::var::Var;
use std::collections::HashSet;

/// Per-function borrow masks: `masks[f][i]` is true when parameter `i`
/// of function `f` is borrowed.
pub type BorrowMasks = Vec<Vec<bool>>;

/// Runs borrow inference and stores the masks in `p.borrows`.
/// Returns the number of parameters inferred borrowed.
pub fn borrow_program(p: &mut Program) -> usize {
    let masks = infer_borrows(p);
    let n = masks.iter().flatten().filter(|b| **b).count();
    p.borrows = masks;
    n
}

/// Computes the greatest-fixpoint borrow masks without modifying the
/// program.
pub fn infer_borrows(p: &Program) -> BorrowMasks {
    let mut masks: BorrowMasks = p.funs.iter().map(|f| vec![true; f.params.len()]).collect();
    // The entry point is called by the host with owned arguments.
    if let Some(entry) = p.entry {
        for b in &mut masks[entry.0 as usize] {
            *b = false;
        }
    }
    loop {
        let mut changed = false;
        for (fi, f) in p.funs.iter().enumerate() {
            // Parameters with any owning occurrence under the current
            // masks get demoted.
            let mut owning: HashSet<Var> = HashSet::new();
            collect_owning(&f.body, &masks, &mut owning);
            for (pi, param) in f.params.iter().enumerate() {
                if masks[fi][pi] && owning.contains(param) {
                    masks[fi][pi] = false;
                    changed = true;
                }
            }
        }
        if !changed {
            return masks;
        }
    }
}

/// Collects variables with an owning occurrence in `e`.
fn collect_owning(e: &Expr, masks: &BorrowMasks, out: &mut HashSet<Var>) {
    match e {
        // A bare variable in value position is returned/bound: owning.
        Expr::Var(v) => {
            out.insert(v.clone());
        }
        Expr::Lit(_) | Expr::Global(_) | Expr::Abort(_) | Expr::NullToken => {}
        Expr::TokenOf(v) => {
            out.insert(v.clone());
        }
        Expr::Call(f, args) => {
            let mask = masks.get(f.0 as usize);
            for (i, a) in args.iter().enumerate() {
                let borrowed_pos = mask.and_then(|m| m.get(i)).copied().unwrap_or(false);
                match a {
                    Expr::Var(_) if borrowed_pos => {} // borrow-use: fine
                    _ => collect_owning(a, masks, out),
                }
            }
        }
        Expr::App(f, args) => {
            collect_owning(f, masks, out);
            for a in args {
                collect_owning(a, masks, out);
            }
        }
        Expr::Prim(_, args) => {
            // Conservative: primitives consume their reference
            // arguments (`!r` drops the ref). Integer-typed uses are
            // demoted too, which is free — value types carry no counts.
            for a in args {
                collect_owning(a, masks, out);
            }
        }
        Expr::Lam(lam) => {
            // Captures are consumed by the closure. Normalization set
            // them to the lambda's free variables from the function's
            // free-variable annotation; body occurrences of *other*
            // variables are the lambda's own business (params are local).
            out.extend(lam.captures.iter().cloned());
        }
        Expr::Con { args, reuse, .. } => {
            if let Some(t) = reuse {
                out.insert(t.clone());
            }
            for a in args {
                collect_owning(a, masks, out);
            }
        }
        Expr::Let { rhs, body, .. } => {
            collect_owning(rhs, masks, out);
            collect_owning(body, masks, out);
        }
        Expr::Seq(a, b) => {
            collect_owning(a, masks, out);
            collect_owning(b, masks, out);
        }
        Expr::Match {
            scrutinee, // inspecting is exactly what borrowing allows …
            arms,
            default,
        } => {
            // … unless reuse analysis wants to consume the cell: a
            // reuse-annotated arm turns the match into an owning use
            // (reuse beats borrowing, as in Lean).
            if arms.iter().any(|a| a.reuse_token.is_some()) {
                out.insert(scrutinee.clone());
            }
            for arm in arms {
                collect_owning(&arm.body, masks, out);
            }
            if let Some(d) = default {
                collect_owning(d, masks, out);
            }
        }
        Expr::Dup(_, rest)
        | Expr::Drop(_, rest)
        | Expr::Free(_, rest)
        | Expr::DecRef(_, rest)
        | Expr::DropToken(_, rest) => collect_owning(rest, masks, out),
        Expr::DropReuse { var, body, .. } => {
            out.insert(var.clone());
            collect_owning(body, masks, out);
        }
        Expr::IsUnique {
            var,
            unique,
            shared,
            ..
        } => {
            out.insert(var.clone());
            collect_owning(unique, masks, out);
            collect_owning(shared, masks, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::builder::{arm, arm0, con, ite, ProgramBuilder};
    use crate::ir::expr::PrimOp;

    /// fun len(xs, acc) { match xs { Cons(_, t) -> len(t, acc + 1); Nil -> acc } }
    /// fun main(n) { … } — xs can be borrowed? No: `t` is passed at xs's
    /// own (borrowed) position, so yes — and acc is an int (owned, but
    /// that costs nothing).
    #[test]
    fn length_parameter_is_borrowed() {
        let mut pb = ProgramBuilder::new();
        let (_, cs) = pb.data("list", &[("Nil", 0), ("Cons", 2)]);
        let (nil, cons) = (cs[0], cs[1]);
        let xs = pb.fresh("xs");
        let acc = pb.fresh("acc");
        let h = pb.fresh("h");
        let t = pb.fresh("t");
        let len = pb.declare("len", vec![xs.clone(), acc.clone()]);
        pb.set_body(
            len,
            Expr::Match {
                scrutinee: xs.clone(),
                arms: vec![
                    arm(
                        cons,
                        vec![h.clone(), t.clone()],
                        Expr::Call(
                            len,
                            vec![
                                Expr::Var(t.clone()),
                                Expr::Prim(PrimOp::Add, vec![Expr::Var(acc.clone()), Expr::int(1)]),
                            ],
                        ),
                    ),
                    arm0(nil, Expr::Var(acc.clone())),
                ],
                default: None,
            },
        );
        let n = pb.fresh("n");
        let ys = pb.fresh("ys");
        let main = pb.declare("main", vec![n.clone()]);
        pb.set_body(
            main,
            Expr::let_(
                ys.clone(),
                con(cons, vec![Expr::Var(n.clone()), con(nil, vec![])]),
                Expr::Call(len, vec![Expr::Var(ys.clone()), Expr::int(0)]),
            ),
        );
        pb.entry(main);
        let p = pb.finish();
        let masks = infer_borrows(&p);
        assert!(masks[len.0 as usize][0], "xs only inspected: borrowed");
        // acc is returned in the Nil arm: owning.
        assert!(!masks[len.0 as usize][1], "acc returned: owned");
        assert!(
            masks[main.0 as usize].iter().all(|b| !b),
            "entry params stay owned"
        );
    }

    /// A parameter stored into a constructor must be owned.
    #[test]
    fn stored_parameter_is_owned() {
        let mut pb = ProgramBuilder::new();
        let (_, cs) = pb.data("list", &[("Nil", 0), ("Cons", 2)]);
        let cons = cs[1];
        let x = pb.fresh("x");
        let xs = pb.fresh("xs");
        let f = pb.fun(
            "push",
            vec![x.clone(), xs.clone()],
            con(cons, vec![Expr::Var(x.clone()), Expr::Var(xs.clone())]),
        );
        let p = pb.finish();
        let masks = infer_borrows(&p);
        assert!(!masks[f.0 as usize][0]);
        assert!(!masks[f.0 as usize][1]);
    }

    /// Demotion propagates through the call graph: if `g` stores its
    /// parameter, then `f` passing its own parameter to `g` is demoted
    /// too (fixpoint, not a single pass).
    #[test]
    fn demotion_is_transitive() {
        let mut pb = ProgramBuilder::new();
        let (_, cs) = pb.data("list", &[("Nil", 0), ("Cons", 2)]);
        let cons = cs[1];
        let y = pb.fresh("y");
        let g = pb.fun(
            "g",
            vec![y.clone()],
            con(cons, vec![Expr::int(0), Expr::Var(y.clone())]),
        );
        let x = pb.fresh("x");
        let f = pb.fun(
            "f",
            vec![x.clone()],
            Expr::Call(g, vec![Expr::Var(x.clone())]),
        );
        let p = pb.finish();
        let masks = infer_borrows(&p);
        assert!(!masks[g.0 as usize][0]);
        assert!(!masks[f.0 as usize][0], "transitively owned");
    }

    /// A parameter captured by a closure must be owned.
    #[test]
    fn captured_parameter_is_owned() {
        use crate::ir::expr::Lambda;
        let mut pb = ProgramBuilder::new();
        let x = pb.fresh("x");
        let q = pb.fresh("q");
        let f = pb.fun(
            "mk",
            vec![x.clone()],
            Expr::Lam(Lambda {
                params: vec![q.clone()],
                captures: vec![x.clone()],
                body: Box::new(Expr::Var(x.clone())),
            }),
        );
        let p = pb.finish();
        let masks = infer_borrows(&p);
        assert!(!masks[f.0 as usize][0]);
    }

    /// Pure inspection via nested matches stays borrowed.
    #[test]
    fn multi_level_inspection_is_borrowed() {
        let mut pb = ProgramBuilder::new();
        let (_, cs) = pb.data("list", &[("Nil", 0), ("Cons", 2)]);
        let (nil, cons) = (cs[0], cs[1]);
        let xs = pb.fresh("xs");
        let h = pb.fresh("h");
        let t = pb.fresh("t");
        let c = pb.fresh("c");
        // fun head-or(xs) = match xs { Cons(h, t) -> if h < 3 then 1 else 0; Nil -> 0 }
        let body = Expr::Match {
            scrutinee: xs.clone(),
            arms: vec![
                arm(
                    cons,
                    vec![h.clone(), t.clone()],
                    Expr::let_(
                        c.clone(),
                        Expr::Prim(PrimOp::Lt, vec![Expr::Var(h.clone()), Expr::int(3)]),
                        ite(c.clone(), Expr::int(1), Expr::int(0)),
                    ),
                ),
                arm0(nil, Expr::int(0)),
            ],
            default: None,
        };
        let f = pb.fun("head-or", vec![xs.clone()], body);
        let p = pb.finish();
        let masks = infer_borrows(&p);
        assert!(masks[f.0 as usize][0]);
    }
}
