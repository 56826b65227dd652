//! Reuse analysis (§2.4 of the paper, following Ullrich & de Moura's
//! reset/reuse scheme).
//!
//! The pass runs on the user fragment *before* reference-count insertion.
//! For every match arm that deconstructs a heap cell which is dead in the
//! arm body (the scrutinee does not occur free), it tries to pair the
//! cell with a constructor allocation of the same size on every
//! control-flow path through the body. When at least one path can reuse,
//! the arm is annotated with a reuse token (later turned into a
//! `drop-reuse` by insertion), the paired allocations become `Con@token`,
//! and paths that allocate nothing of that size release the token with a
//! `drop-token` instruction.
//!
//! Tokens never flow into lambda bodies (the closure may outlive or never
//! reach the allocation) and are consumed exactly once per path, which
//! the resource checker verifies after insertion.
//!
//! Whether a scrutinee is dead in an arm is read from the function's
//! free-variable annotation ([`ir::fv`](crate::ir::fv)), so the pass
//! walks each body once, in place, plus the annotation's walk.

use crate::ir::expr::{Arm, Expr};
use crate::ir::fv::FreeVars;
use crate::ir::program::{CtorId, Program, TypeTable};
use crate::ir::var::{Var, VarGen};
use std::collections::HashSet;

/// Tuning knobs for reuse analysis.
#[derive(Debug, Clone)]
pub struct ReuseConfig {
    /// Only pair cells of at least this many fields (arity-0 cells are
    /// immediates and can never be reused).
    pub min_arity: usize,
}

impl Default for ReuseConfig {
    fn default() -> Self {
        ReuseConfig { min_arity: 1 }
    }
}

/// Runs reuse analysis over the whole program. Parameters marked
/// borrowed (`p.borrows`, §6) — and anything destructured out of them —
/// can never be consumed, so their matches are skipped.
pub fn reuse_program(p: &mut Program, config: &ReuseConfig) {
    let mut fv = FreeVars::default();
    for (fi, f) in p.funs.iter_mut().enumerate() {
        let mut tainted: HashSet<Var> = HashSet::new();
        if let Some(mask) = p.borrows.get(fi) {
            for (pi, par) in f.params.iter().enumerate() {
                if mask.get(pi).copied().unwrap_or(false) {
                    tainted.insert(par.clone());
                }
            }
        }
        fv.annotate(&f.body);
        let mut cx = Cx {
            types: &p.types,
            gen: &mut p.var_gen,
            config,
            tainted,
            fv: &fv,
            node: 0,
        };
        cx.expr(&mut f.body, &mut Vec::new());
    }
}

/// A reuse token that is available on the current path.
#[derive(Debug, Clone)]
struct Avail {
    token: Var,
    arity: usize,
    /// Constructor of the matched cell — used to prefer same-shape
    /// pairings, which is what makes reuse *specialization* (§2.5) fire.
    ctor: CtorId,
    used: bool,
}

struct Cx<'a> {
    types: &'a TypeTable,
    gen: &'a mut VarGen,
    config: &'a ReuseConfig,
    /// Variables that live in borrowed cells: never reuse candidates.
    tainted: HashSet<Var>,
    /// The free variables of the original body, by pre-order node.
    fv: &'a FreeVars,
    /// The pre-order number of the next node of the original body.
    node: usize,
}

impl<'a> Cx<'a> {
    /// Rewrites `e` in place, the next node of the original body,
    /// consuming available tokens along each path. Any token in `avail`
    /// marked used stays used; tokens left unused by the caller's path
    /// are released by the caller.
    fn expr(&mut self, e: &mut Expr, avail: &mut Vec<Avail>) {
        let n = self.node;
        self.node += 1;
        match e {
            Expr::Con {
                ctor, args, reuse, ..
            } => {
                self.all(args, avail);
                // Allocation sites: try to pair with an available token.
                let arity = self.types.ctor(*ctor).arity;
                if reuse.is_none() && arity >= self.config.min_arity.max(1) {
                    *reuse = self.take_token(arity, *ctor, avail);
                }
            }
            Expr::Let {
                rhs: a, body: b, ..
            }
            | Expr::Seq(a, b) => {
                self.expr(a, avail);
                self.expr(b, avail);
            }
            Expr::Match {
                scrutinee,
                arms,
                default,
            } => self.match_(scrutinee, arms, default.as_deref_mut(), avail),
            // Tokens do not flow into closures: analyze the body with a
            // fresh (empty) availability.
            Expr::Lam(lam) => self.expr(&mut lam.body, &mut Vec::new()),
            Expr::App(f, args) => {
                self.expr(f, avail);
                self.all(args, avail);
            }
            Expr::Call(_, args) | Expr::Prim(_, args) => self.all(args, avail),
            // Leaves and RC instructions (absent in the user fragment).
            _ => self.node = self.fv.next(n),
        }
    }

    fn all(&mut self, es: &mut [Expr], avail: &mut Vec<Avail>) {
        es.iter_mut().for_each(|e| self.expr(e, avail));
    }

    /// Takes the best available token of the given arity: prefer the most
    /// recently matched cell with the same constructor (enables reuse
    /// specialization), otherwise the most recent size match.
    fn take_token(&self, arity: usize, ctor: CtorId, avail: &mut [Avail]) -> Option<Var> {
        let pick = avail
            .iter()
            .rposition(|t| !t.used && t.arity == arity && t.ctor == ctor)
            .or_else(|| avail.iter().rposition(|t| !t.used && t.arity == arity))?;
        avail[pick].used = true;
        Some(avail[pick].token.clone())
    }

    #[allow(clippy::ptr_arg)] // arms push/pop their own tokens on the Vec
    fn match_(
        &mut self,
        scrutinee: &Var,
        arms: &mut [Arm],
        mut default: Option<&mut Expr>,
        avail: &mut Vec<Avail>,
    ) {
        // Each arm is a separate path: it sees the tokens available at
        // the match, and must settle its own additions.
        let mut any_used = vec![false; avail.len()];
        let mut locals = Vec::with_capacity(arms.len() + 1);
        for arm in arms.iter_mut() {
            let mut local = avail.clone();
            self.arm(scrutinee, arm, &mut local);
            locals.push(local);
        }
        if let Some(d) = &mut default {
            let mut local = avail.clone();
            self.expr(d, &mut local);
            locals.push(local);
        }
        for local in &locals {
            for (i, t) in local.iter().take(any_used.len()).enumerate() {
                any_used[i] |= t.used;
            }
        }
        // A token used on *any* path is consumed by the match as a whole:
        // mark it used for the caller, and release it explicitly on the
        // paths that did not use it.
        for (i, used) in any_used.iter().enumerate() {
            if *used {
                avail[i].used = true;
            }
        }
        let bodies = arms.iter_mut().map(|arm| &mut arm.body).chain(default);
        for (body, local) in bodies.zip(&locals) {
            for (i, t) in local.iter().take(any_used.len()).enumerate() {
                if any_used[i] && !t.used {
                    body.wrap(|b| Expr::DropToken(t.token.clone(), b));
                }
            }
        }
    }

    fn arm(&mut self, scrutinee: &Var, arm: &mut Arm, avail: &mut Vec<Avail>) {
        let arity = self.types.ctor(arm.ctor).arity;
        // Binders of a tainted (borrowed) cell are tainted too.
        if self.tainted.contains(scrutinee) {
            for b in arm.binders.iter().flatten() {
                self.tainted.insert(b.clone());
            }
        }
        let can_reuse = arm.reuse_token.is_none()
            && arity >= self.config.min_arity.max(1)
            && !self.tainted.contains(scrutinee)
            // The arm body is the next node.
            && !self.fv.contains(self.node, scrutinee.id())
            && has_alloc_of_arity(&arm.body, arity, self.types);
        if !can_reuse {
            self.expr(&mut arm.body, avail);
            return;
        }
        let token = self.gen.fresh("ru");
        avail.push(Avail {
            token: token.clone(),
            arity,
            ctor: arm.ctor,
            used: false,
        });
        self.expr(&mut arm.body, avail);
        let mine = avail.pop().expect("own token still on stack");
        debug_assert_eq!(mine.token, token);
        if !mine.used {
            // No path ended up using it after all (e.g. the candidate
            // allocations all took other tokens): release at arm entry.
            arm.body.wrap(|b| Expr::DropToken(token.clone(), b));
        }
        arm.reuse_token = Some(token);
    }
}

/// Conservative pre-check: does the body contain a constructor allocation
/// of exactly this arity outside any lambda?
fn has_alloc_of_arity(e: &Expr, arity: usize, types: &TypeTable) -> bool {
    match e {
        Expr::Con { ctor, args, .. } => {
            types.ctor(*ctor).arity == arity
                || args.iter().any(|a| has_alloc_of_arity(a, arity, types))
        }
        Expr::Lam(_) => false,
        Expr::Let { rhs, body, .. } => {
            has_alloc_of_arity(rhs, arity, types) || has_alloc_of_arity(body, arity, types)
        }
        Expr::Seq(a, b) => {
            has_alloc_of_arity(a, arity, types) || has_alloc_of_arity(b, arity, types)
        }
        Expr::Match { arms, default, .. } => {
            arms.iter()
                .any(|a| has_alloc_of_arity(&a.body, arity, types))
                || default
                    .as_ref()
                    .is_some_and(|d| has_alloc_of_arity(d, arity, types))
        }
        Expr::App(f, args) => {
            has_alloc_of_arity(f, arity, types)
                || args.iter().any(|a| has_alloc_of_arity(a, arity, types))
        }
        Expr::Call(_, args) | Expr::Prim(_, args) => {
            args.iter().any(|a| has_alloc_of_arity(a, arity, types))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::builder::{arm, arm0, con, ProgramBuilder};

    /// Builds `fun f(xs, v) { match xs { Cons(x, xx) -> Cons(v, xx); Nil -> Nil } }`.
    fn sample() -> (Program, CtorId, CtorId) {
        let mut pb = ProgramBuilder::new();
        let (_, ctors) = pb.data("list", &[("Nil", 0), ("Cons", 2)]);
        let (nil, cons) = (ctors[0], ctors[1]);
        let xs = pb.fresh("xs");
        let v = pb.fresh("v");
        let x = pb.fresh("x");
        let xx = pb.fresh("xx");
        let body = Expr::Match {
            scrutinee: xs.clone(),
            arms: vec![
                arm(
                    cons,
                    vec![x.clone(), xx.clone()],
                    con(cons, vec![Expr::Var(v.clone()), Expr::Var(xx.clone())]),
                ),
                arm0(nil, con(nil, vec![])),
            ],
            default: None,
        };
        pb.fun("f", vec![xs, v], body);
        (pb.finish(), nil, cons)
    }

    #[test]
    fn pairs_matched_cell_with_allocation() {
        let (mut p, _nil, _cons) = sample();
        reuse_program(&mut p, &ReuseConfig::default());
        let body = &p.funs[0].body;
        match body {
            Expr::Match { arms, .. } => {
                let token = arms[0].reuse_token.clone().expect("token on Cons arm");
                match &arms[0].body {
                    Expr::Con { reuse, .. } => assert_eq!(reuse.as_ref(), Some(&token)),
                    other => panic!("expected annotated con, got {other:?}"),
                }
                assert!(arms[1].reuse_token.is_none(), "Nil arm gets no token");
            }
            other => panic!("expected match, got {other:?}"),
        }
    }

    #[test]
    fn no_token_when_scrutinee_is_live() {
        // fun f(xs) { match xs { Cons(x, xx) -> Cons(x, xs); ... } }
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
                vec![x.clone(), xx],
                con(cons, vec![Expr::Var(x), Expr::Var(xs.clone())]),
            )],
            default: Some(Box::new(Expr::unit())),
        };
        pb.fun("f", vec![xs], body);
        let mut p = pb.finish();
        reuse_program(&mut p, &ReuseConfig::default());
        match &p.funs[0].body {
            Expr::Match { arms, .. } => assert!(arms[0].reuse_token.is_none()),
            other => panic!("expected match, got {other:?}"),
        }
    }

    #[test]
    fn drops_token_on_paths_without_allocation() {
        // match xs { Cons(x, xx) -> match c { True -> Cons(x, xx); False -> Nil } }
        let mut pb = ProgramBuilder::new();
        let (_, ctors) = pb.data("list", &[("Nil", 0), ("Cons", 2)]);
        let (nil, cons) = (ctors[0], ctors[1]);
        let xs = pb.fresh("xs");
        let c = pb.fresh("c");
        let x = pb.fresh("x");
        let xx = pb.fresh("xx");
        let inner = crate::ir::builder::ite(
            c.clone(),
            con(cons, vec![Expr::Var(x.clone()), Expr::Var(xx.clone())]),
            con(nil, vec![]),
        );
        let body = Expr::Match {
            scrutinee: xs.clone(),
            arms: vec![arm(cons, vec![x, xx], inner)],
            default: Some(Box::new(Expr::unit())),
        };
        pb.fun("f", vec![xs, c], body);
        let mut p = pb.finish();
        reuse_program(&mut p, &ReuseConfig::default());
        let s = crate::ir::pretty::program_to_string(&p);
        assert!(s.contains("drop-token"), "False path must release: {s}");
        assert!(s.contains("Cons@"), "True path must reuse: {s}");
    }

    #[test]
    fn no_allocation_means_no_token() {
        // match xs { Cons(x, xx) -> x } — nothing to reuse.
        let mut pb = ProgramBuilder::new();
        let (_, ctors) = pb.data("list", &[("Nil", 0), ("Cons", 2)]);
        let cons = ctors[1];
        let xs = pb.fresh("xs");
        let x = pb.fresh("x");
        let xx = pb.fresh("xx");
        let body = Expr::Match {
            scrutinee: xs.clone(),
            arms: vec![arm(cons, vec![x.clone(), xx], Expr::Var(x.clone()))],
            default: Some(Box::new(Expr::unit())),
        };
        pb.fun("f", vec![xs], body);
        let mut p = pb.finish();
        reuse_program(&mut p, &ReuseConfig::default());
        match &p.funs[0].body {
            Expr::Match { arms, .. } => assert!(arms[0].reuse_token.is_none()),
            other => panic!("expected match, got {other:?}"),
        }
    }

    #[test]
    fn prefers_same_constructor_token() {
        // Two nested matched cells of equal arity but different ctors;
        // the allocation should take the same-ctor token.
        let mut pb = ProgramBuilder::new();
        let (_, ctors) = pb.data("t", &[("A", 2), ("B", 2)]);
        let (a, b) = (ctors[0], ctors[1]);
        let xs = pb.fresh("xs");
        let ys = pb.fresh("ys");
        let p1 = pb.fresh("p1");
        let p2 = pb.fresh("p2");
        let q1 = pb.fresh("q1");
        let q2 = pb.fresh("q2");
        // match xs { A(p1, p2) -> match ys { B(q1, q2) -> B(p1, q1) } }
        let inner = Expr::Match {
            scrutinee: ys.clone(),
            arms: vec![arm(
                b,
                vec![q1.clone(), q2],
                con(b, vec![Expr::Var(p1.clone()), Expr::Var(q1.clone())]),
            )],
            default: Some(Box::new(Expr::unit())),
        };
        let body = Expr::Match {
            scrutinee: xs.clone(),
            arms: vec![arm(a, vec![p1, p2], inner)],
            default: Some(Box::new(Expr::unit())),
        };
        pb.fun("f", vec![xs, ys], body);
        let mut p = pb.finish();
        reuse_program(&mut p, &ReuseConfig::default());
        // The B allocation must be paired with ys's token (the B cell).
        let s = crate::ir::pretty::program_to_string(&p);
        let outer_token_line = s.lines().find(|l| l.contains("A(p1, p2) @")).unwrap();
        let inner_token_line = s.lines().find(|l| l.contains("B(q1, q2) @")).unwrap();
        let inner_tok = inner_token_line
            .split('@')
            .nth(1)
            .unwrap()
            .trim_end_matches(" ->");
        let alloc_line = s.lines().find(|l| l.contains("B@")).unwrap();
        assert!(
            alloc_line.contains(&format!("B@{inner_tok}")),
            "allocation should use same-ctor token: {s} (outer {outer_token_line})"
        );
    }
}
