//! A small-function inliner.
//!
//! §2.5 of the paper notes that the compiler inlines `bal-left` into
//! `ins`, at which point *every* matched `Node` has a corresponding
//! `Node` allocation and reuse analysis eliminates all allocations on
//! the fast path. This pass provides exactly that: direct calls to
//! small, non-recursive top-level functions are replaced by their
//! (alpha-renamed) bodies, before reuse analysis runs.

use crate::ir::callgraph::{call_graph, recursive};
use crate::ir::expr::{Arm, Expr, Lambda};
use crate::ir::program::{FunDef, FunId, Program};
use crate::ir::var::{Var, VarGen};

/// Tuning knobs for the inliner.
#[derive(Debug, Clone)]
pub struct InlineConfig {
    /// Maximum body size (IR nodes) of an inlinable function.
    pub max_size: usize,
    /// How many rounds to run (each round may expose new direct calls).
    pub rounds: usize,
}

impl Default for InlineConfig {
    fn default() -> Self {
        InlineConfig {
            max_size: 256,
            rounds: 2,
        }
    }
}

/// Runs the inliner; returns the number of call sites inlined.
///
/// A round rewrites the functions in order, each in place. A call is
/// replaced by the callee's body as the round found it, renamed while it
/// is copied, and the copy is not searched for further calls until the
/// next round. A callee's body is therefore copied aside first only when
/// the round may change it before a later function inlines it.
pub fn inline_program(p: &mut Program, config: &InlineConfig) -> usize {
    let mut total = 0;
    for _ in 0..config.rounds {
        let calls = call_graph(p);
        let candidate: Vec<bool> = p
            .funs
            .iter()
            .zip(recursive(&calls))
            .map(|(f, rec)| !rec && f.body.size() <= config.max_size)
            .collect();
        if !candidate.contains(&true) {
            return total;
        }
        // The last function that names each one.
        let mut last_caller = vec![0; p.funs.len()];
        for (k, callees) in calls.iter().enumerate() {
            for g in callees {
                last_caller[g.0 as usize] = k;
            }
        }
        let mut snapshot: Vec<Option<Expr>> = vec![None; p.funs.len()];
        let mut cx = Inliner {
            rename: vec![None; p.var_gen.peek() as usize],
            bound: Vec::new(),
            gen: std::mem::take(&mut p.var_gen),
            count: 0,
        };
        for i in 0..p.funs.len() {
            if !calls[i]
                .iter()
                .any(|g| g.0 as usize != i && candidate[g.0 as usize])
            {
                continue;
            }
            if candidate[i] && last_caller[i] > i {
                snapshot[i] = Some(p.funs[i].body.clone());
            }
            let mut body = std::mem::replace(&mut p.funs[i].body, Expr::unit());
            let round = Round {
                funs: &p.funs,
                candidate: &candidate,
                snapshot: &snapshot,
                current: FunId(i as u32),
            };
            cx.rewrite(&mut body, &round);
            p.funs[i].body = body;
        }
        p.var_gen = cx.gen;
        total += cx.count;
        if cx.count == 0 {
            break;
        }
    }
    total
}

/// What one round inlines: the functions as the round found them.
struct Round<'a> {
    /// Every function; the one being rewritten has a placeholder body.
    funs: &'a [FunDef],
    candidate: &'a [bool],
    /// The round-start body of each candidate the round has already
    /// rewritten and a later function names.
    snapshot: &'a [Option<Expr>],
    /// The function being rewritten, never inlined into itself.
    current: FunId,
}

struct Inliner {
    /// The copy's variable for each variable of the body being copied,
    /// by id.
    rename: Vec<Option<Var>>,
    /// The ids `rename` holds, cleared after each copy.
    bound: Vec<u32>,
    gen: VarGen,
    count: usize,
}

impl Inliner {
    /// Inlines every candidate call in `e`, arguments first.
    fn rewrite(&mut self, e: &mut Expr, round: &Round<'_>) {
        match e {
            Expr::Call(callee, args) => {
                for a in args.iter_mut() {
                    self.rewrite(a, round);
                }
                let c = callee.0 as usize;
                if *callee == round.current || round.candidate.get(c) != Some(&true) {
                    return;
                }
                self.count += 1;
                let f = &round.funs[c];
                let body = round.snapshot[c].as_ref().unwrap_or(&f.body);
                let params: Vec<Var> = f.params.iter().map(|p| self.bind(p)).collect();
                let copy = self.copy(body);
                for id in self.bound.drain(..) {
                    self.rename[id as usize] = None;
                }
                let args = std::mem::take(args);
                *e = params
                    .into_iter()
                    .zip(args)
                    .rev()
                    .fold(copy, |acc, (p, a)| Expr::let_(p, a, acc));
            }
            Expr::App(..)
            | Expr::Prim(..)
            | Expr::Con { .. }
            | Expr::Let { .. }
            | Expr::Seq(..)
            | Expr::Match { .. }
            | Expr::Lam(_) => e.for_each_child_mut(|c| self.rewrite(c, round)),
            _ => {}
        }
    }

    /// A fresh variable for `v`, which the copy renames to it.
    fn bind(&mut self, v: &Var) -> Var {
        let fresh = self.gen.fresh_like(v);
        let id = v.id() as usize;
        if id >= self.rename.len() {
            self.rename.resize(id + 1, None);
        }
        if self.rename[id].is_none() {
            self.bound.push(v.id());
        }
        self.rename[id] = Some(fresh.clone());
        fresh
    }

    fn ren(&self, v: &Var) -> Var {
        match self.rename.get(v.id() as usize) {
            Some(Some(to)) => to.clone(),
            _ => v.clone(),
        }
    }

    fn copy_all(&mut self, es: &[Expr]) -> Vec<Expr> {
        es.iter().map(|e| self.copy(e)).collect()
    }

    /// A copy of `e` in which every variable it binds is fresh.
    fn copy(&mut self, e: &Expr) -> Expr {
        match e {
            Expr::Var(v) => Expr::Var(self.ren(v)),
            Expr::Lit(_) | Expr::Global(_) | Expr::Abort(_) | Expr::NullToken => e.clone(),
            Expr::TokenOf(v) => Expr::TokenOf(self.ren(v)),
            Expr::App(f, args) => {
                let f = self.copy(f);
                Expr::App(Box::new(f), self.copy_all(args))
            }
            Expr::Call(id, args) => Expr::Call(*id, self.copy_all(args)),
            Expr::Prim(op, args) => Expr::Prim(*op, self.copy_all(args)),
            Expr::Con {
                ctor,
                args,
                reuse,
                skip,
            } => Expr::Con {
                ctor: *ctor,
                args: self.copy_all(args),
                reuse: reuse.as_ref().map(|t| self.ren(t)),
                skip: skip.clone(),
            },
            Expr::Lam(lam) => {
                let params = lam.params.iter().map(|p| self.bind(p)).collect();
                let captures = lam.captures.iter().map(|c| self.ren(c)).collect();
                Expr::Lam(Lambda {
                    params,
                    captures,
                    body: Box::new(self.copy(&lam.body)),
                })
            }
            Expr::Let { var, rhs, body } => {
                let rhs = self.copy(rhs);
                let var = self.bind(var);
                Expr::let_(var, rhs, self.copy(body))
            }
            Expr::Seq(a, b) => {
                let a = self.copy(a);
                Expr::seq(a, self.copy(b))
            }
            Expr::Match {
                scrutinee,
                arms,
                default,
            } => Expr::Match {
                scrutinee: self.ren(scrutinee),
                arms: arms
                    .iter()
                    .map(|arm| {
                        let binders = arm
                            .binders
                            .iter()
                            .map(|b| b.as_ref().map(|b| self.bind(b)))
                            .collect();
                        let reuse_token = arm.reuse_token.as_ref().map(|t| self.bind(t));
                        Arm {
                            ctor: arm.ctor,
                            binders,
                            reuse_token,
                            body: self.copy(&arm.body),
                        }
                    })
                    .collect(),
                default: default.as_ref().map(|d| Box::new(self.copy(d))),
            },
            Expr::Dup(v, rest) => Expr::dup(self.ren(v), self.copy(rest)),
            Expr::Drop(v, rest) => Expr::drop_(self.ren(v), self.copy(rest)),
            Expr::Free(v, rest) => Expr::Free(self.ren(v), Box::new(self.copy(rest))),
            Expr::DecRef(v, rest) => Expr::DecRef(self.ren(v), Box::new(self.copy(rest))),
            Expr::DropToken(v, rest) => Expr::DropToken(self.ren(v), Box::new(self.copy(rest))),
            Expr::DropReuse { var, token, body } => {
                let var = self.ren(var);
                let token = self.bind(token);
                Expr::DropReuse {
                    var,
                    token,
                    body: Box::new(self.copy(body)),
                }
            }
            Expr::IsUnique {
                var,
                binders,
                unique,
                shared,
            } => {
                let unique = self.copy(unique);
                Expr::IsUnique {
                    var: self.ren(var),
                    binders: binders.iter().map(|b| self.ren(b)).collect(),
                    unique: Box::new(unique),
                    shared: Box::new(self.copy(shared)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::builder::ProgramBuilder;
    use crate::ir::expr::PrimOp;
    use crate::ir::wf::assert_well_formed;

    #[test]
    fn inlines_small_helper() {
        // fun inc(x) { x + 1 }   fun main(n) { inc(n) }
        let mut pb = ProgramBuilder::new();
        let x = pb.fresh("x");
        let inc = pb.fun(
            "inc",
            vec![x.clone()],
            Expr::Prim(PrimOp::Add, vec![Expr::Var(x.clone()), Expr::int(1)]),
        );
        let n = pb.fresh("n");
        let main = pb.fun("main", vec![n.clone()], Expr::Call(inc, vec![Expr::Var(n)]));
        pb.entry(main);
        let mut p = pb.finish();
        let count = inline_program(&mut p, &InlineConfig::default());
        assert_eq!(count, 1);
        assert_well_formed(&p);
        let s = crate::ir::pretty::program_to_string(&p);
        let main_part = s.split("fun main").nth(1).unwrap();
        assert!(!main_part.contains("@fun0("), "call not inlined: {s}");
        assert!(main_part.contains('+'), "{s}");
    }

    #[test]
    fn leaves_recursive_functions() {
        let mut pb = ProgramBuilder::new();
        let n = pb.fresh("n");
        let f = pb.declare("loopy", vec![n.clone()]);
        pb.set_body(f, Expr::Call(f, vec![Expr::Var(n.clone())]));
        let m = pb.fresh("m");
        pb.fun("main", vec![m.clone()], Expr::Call(f, vec![Expr::Var(m)]));
        let mut p = pb.finish();
        assert_eq!(inline_program(&mut p, &InlineConfig::default()), 0);
    }

    #[test]
    fn respects_size_limit() {
        let mut pb = ProgramBuilder::new();
        let x = pb.fresh("x");
        // A chain of additions well over the limit.
        let mut body = Expr::Var(x.clone());
        for _ in 0..100 {
            body = Expr::Prim(PrimOp::Add, vec![body, Expr::int(1)]);
        }
        let big = pb.fun("big", vec![x.clone()], body);
        let n = pb.fresh("n");
        pb.fun("main", vec![n.clone()], Expr::Call(big, vec![Expr::Var(n)]));
        let mut p = pb.finish();
        let cfg = InlineConfig {
            max_size: 16,
            rounds: 1,
        };
        assert_eq!(inline_program(&mut p, &cfg), 0);
    }

    #[test]
    fn mutual_recursion_detected() {
        let mut pb = ProgramBuilder::new();
        let a = pb.fresh("a");
        let f = pb.declare("even", vec![a.clone()]);
        let b = pb.fresh("b");
        let g = pb.declare("odd", vec![b.clone()]);
        pb.set_body(f, Expr::Call(g, vec![Expr::Var(a)]));
        pb.set_body(g, Expr::Call(f, vec![Expr::Var(b)]));
        let mut p = pb.finish();
        assert_eq!(inline_program(&mut p, &InlineConfig::default()), 0);
    }
}
