//! Free variables of core expressions.
//!
//! `FreeVars` is the one free-variable annotation of the back end. One
//! walk over a function body records the free variables of every node,
//! and every pass that asks about them reads the record instead of
//! walking a subtree again:
//!
//! - insertion splits Γ by it (`Γ₂ = Γ ∩ fv(e₂)`, the right-to-left
//!   split of arguments, an arm's dead set, a lambda's captures);
//! - reuse analysis asks whether a scrutinee occurs free in an arm;
//! - drop specialization asks whether a continuation mentions a binder;
//! - normalization sets each lambda's captures from it, and the
//!   well-formedness check compares the captures against it.
//!
//! [`free_vars`] and [`lambda_free_vars`] walk one expression each. They
//! are the reference the annotation is tested against, not a pass tool.
//!
//! # Cost
//!
//! Annotating a body takes one walk, time and memory linear in its size
//! plus the summed sizes of its nodes' free-variable sets. A query about
//! one node is a slice or a binary search.

use super::expr::{Expr, Lambda};
use super::var::{Var, VarSet};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One node of an annotated body.
#[derive(Clone, Copy, Default)]
struct Node {
    /// Its free variables are `FreeVars::ids[lo..hi]`, ascending.
    lo: u32,
    hi: u32,
    /// The pre-order number one past its subtree: its next sibling's.
    end: u32,
}

/// The free variables of every node of one body, computed bottom-up in
/// one walk. Nodes are numbered in pre-order, the order in which
/// [`Expr::visit`] meets them, so a pass finds a node's children from
/// its own number: the first is `n + 1`, and each next one starts where
/// the previous subtree ends ([`FreeVars::next`]).
#[derive(Default)]
pub(crate) struct FreeVars {
    nodes: Vec<Node>,
    ids: Vec<u32>,
    /// Each id's variable, to name one a pass does not have at hand: a
    /// dead drop, a release after a borrowing call, a capture. A binder
    /// names its id; a use names an id nothing in the body binds. Kept
    /// only by [`FreeVars::annotate_named`].
    names: Vec<Option<Var>>,
    named: bool,
    /// Scratch for one node's set: the union so far, its next value, and
    /// the variables a premise binds.
    acc: Vec<u32>,
    tmp: Vec<u32>,
    bound: Vec<u32>,
}

impl FreeVars {
    /// Annotates `body`, replacing any previous annotation.
    pub(crate) fn annotate(&mut self, body: &Expr) {
        self.nodes.clear();
        self.ids.clear();
        self.named = false;
        self.node(body);
    }

    /// Annotates `body` like [`FreeVars::annotate`] and also records the
    /// variable of every id it binds or uses, and of its free variables
    /// `roots` (the function's parameters), for [`FreeVars::name`].
    pub(crate) fn annotate_named<'v>(
        &mut self,
        body: &Expr,
        roots: impl IntoIterator<Item = &'v Var>,
    ) {
        self.nodes.clear();
        self.ids.clear();
        self.named = true;
        for v in roots {
            self.bind(v);
        }
        self.node(body);
    }

    /// The free variables of node `n`, as ascending ids.
    pub(crate) fn free(&self, n: usize) -> &[u32] {
        let Node { lo, hi, .. } = self.nodes[n];
        &self.ids[lo as usize..hi as usize]
    }

    /// Does `id` occur free in node `n`?
    pub(crate) fn contains(&self, n: usize, id: u32) -> bool {
        self.free(n).binary_search(&id).is_ok()
    }

    /// The number of node `n`'s next sibling: one past its subtree.
    pub(crate) fn next(&self, n: usize) -> usize {
        self.nodes[n].end as usize
    }

    /// One past the largest id a named annotation met: the size of a
    /// per-id table that covers the body.
    pub(crate) fn id_bound(&self) -> usize {
        self.names.len()
    }

    /// The variable with id `id`, if a named annotation met it.
    pub(crate) fn get_name(&self, id: u32) -> Option<&Var> {
        self.names.get(id as usize).and_then(Option::as_ref)
    }

    /// The variable with id `id`, which a named annotation met.
    pub(crate) fn name(&self, id: u32) -> Var {
        self.get_name(id)
            .cloned()
            .expect("every free id is bound or used in the body")
    }

    /// Makes room for `v` in the per-id table.
    fn see(&mut self, v: &Var) -> &mut Option<Var> {
        let i = v.id() as usize;
        if i >= self.names.len() {
            self.names.resize(i + 1, None);
        }
        &mut self.names[i]
    }

    fn bind(&mut self, v: &Var) {
        if self.named {
            *self.see(v) = Some(v.clone());
        }
    }

    /// Numbers `e` and its subtree, then records `fv(e)`: the union of
    /// its children's sets, less what `e` binds in each, plus the
    /// variables `e` uses itself.
    fn node(&mut self, e: &Expr) {
        let n = self.nodes.len();
        self.nodes.push(Node::default());
        match e {
            Expr::Var(_)
            | Expr::TokenOf(_)
            | Expr::Lit(_)
            | Expr::Global(_)
            | Expr::Abort(_)
            | Expr::NullToken => {}
            Expr::App(f, args) => {
                self.node(f);
                args.iter().for_each(|a| self.node(a));
            }
            Expr::Call(_, args) | Expr::Prim(_, args) | Expr::Con { args, .. } => {
                args.iter().for_each(|a| self.node(a));
            }
            Expr::Lam(lam) => {
                lam.params.iter().for_each(|p| self.bind(p));
                self.node(&lam.body);
            }
            Expr::Let { var, rhs, body } => {
                self.bind(var);
                self.node(rhs);
                self.node(body);
            }
            Expr::Seq(a, b) => {
                self.node(a);
                self.node(b);
            }
            Expr::Match { arms, default, .. } => {
                for arm in arms {
                    for b in arm.binders.iter().flatten().chain(&arm.reuse_token) {
                        self.bind(b);
                    }
                    self.node(&arm.body);
                }
                if let Some(d) = default {
                    self.node(d);
                }
            }
            Expr::Dup(_, e)
            | Expr::Drop(_, e)
            | Expr::Free(_, e)
            | Expr::DecRef(_, e)
            | Expr::DropToken(_, e) => self.node(e),
            Expr::DropReuse { token, body, .. } => {
                self.bind(token);
                self.node(body);
            }
            Expr::IsUnique { unique, shared, .. } => {
                self.node(unique);
                self.node(shared);
            }
        }

        self.acc.clear();
        let first = n + 1;
        match e {
            Expr::Lam(lam) => self.union(first, &lam.params),
            Expr::Let { var, .. } => {
                self.union(first, []);
                self.union(self.next(first), [var]);
            }
            Expr::Match { arms, default, .. } => {
                let mut c = first;
                for arm in arms {
                    self.union(c, arm.binders.iter().flatten().chain(&arm.reuse_token));
                    c = self.next(c);
                }
                if default.is_some() {
                    self.union(c, []);
                }
            }
            Expr::DropReuse { token, .. } => self.union(first, [token]),
            _ => {
                let mut c = first;
                while c < self.nodes.len() {
                    self.union(c, []);
                    c = self.next(c);
                }
            }
        }
        match e {
            Expr::Var(x)
            | Expr::TokenOf(x)
            | Expr::Match { scrutinee: x, .. }
            | Expr::Dup(x, _)
            | Expr::Drop(x, _)
            | Expr::Free(x, _)
            | Expr::DecRef(x, _)
            | Expr::DropToken(x, _)
            | Expr::DropReuse { var: x, .. }
            | Expr::IsUnique { var: x, .. }
            | Expr::Con { reuse: Some(x), .. } => self.add(x),
            _ => {}
        }

        let lo = self.ids.len() as u32;
        self.ids.extend_from_slice(&self.acc);
        self.nodes[n] = Node {
            lo,
            hi: self.ids.len() as u32,
            end: self.nodes.len() as u32,
        };
    }

    /// `acc ← acc ∪ (fv(c) − bound)`, by one merge of ascending runs.
    fn union<'v>(&mut self, c: usize, bound: impl IntoIterator<Item = &'v Var>) {
        self.bound.clear();
        self.bound.extend(bound.into_iter().map(Var::id));
        let Node { lo, hi, .. } = self.nodes[c];
        let child = &self.ids[lo as usize..hi as usize];
        if self.acc.is_empty() && self.bound.is_empty() {
            self.acc.extend_from_slice(child);
            return;
        }
        self.bound.sort_unstable();
        let (acc, tmp, bound) = (&self.acc, &mut self.tmp, &self.bound);
        tmp.clear();
        let mut i = 0;
        for &x in child {
            if bound.binary_search(&x).is_ok() {
                continue;
            }
            while i < acc.len() && acc[i] < x {
                tmp.push(acc[i]);
                i += 1;
            }
            if i < acc.len() && acc[i] == x {
                i += 1;
            }
            tmp.push(x);
        }
        tmp.extend_from_slice(&acc[i..]);
        std::mem::swap(&mut self.acc, &mut self.tmp);
    }

    /// `acc ← acc ∪ {x}`.
    fn add(&mut self, x: &Var) {
        if self.named {
            let name = self.see(x);
            if name.is_none() {
                *name = Some(x.clone());
            }
        }
        if let Err(i) = self.acc.binary_search(&x.id()) {
            self.acc.insert(i, x.id());
        }
    }
}

/// Returns the free variables of `e` as an ordered set, by a walk of its
/// own: the reference the passes' annotation is tested against.
pub fn free_vars(e: &Expr) -> VarSet {
    let mut out = VarSet::new();
    collect(e, &mut Bound::default(), &mut out);
    out
}

/// Returns the free variables of a lambda, `fv(body) − params`, by a walk
/// of its own: the reference the passes' annotation is tested against.
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
/// by a client, so one multiplication spreads them well enough.
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
    use crate::ir::expr::{Arm, Lambda, PrimOp};
    use crate::ir::program::CtorId;

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

    /// The annotation agrees with `free_vars` on every node of a body
    /// with every binding form, numbered as `Expr::visit` meets them, and
    /// a lambda node's set is `lambda_free_vars`.
    #[test]
    fn annotation_matches_free_vars_on_every_node() {
        let (a, b, c, t) = (v(0, "a"), v(1, "b"), v(2, "c"), v(3, "t"));
        let body = Expr::let_(
            b.clone(),
            Expr::Lam(Lambda {
                params: vec![c.clone()],
                captures: vec![a.clone()],
                body: Box::new(Expr::Prim(
                    PrimOp::Add,
                    vec![Expr::Var(a.clone()), Expr::Var(c.clone())],
                )),
            }),
            Expr::Match {
                scrutinee: a.clone(),
                arms: vec![Arm {
                    ctor: CtorId(0),
                    binders: vec![Some(c.clone()), None],
                    reuse_token: Some(t.clone()),
                    body: Expr::DropToken(
                        t.clone(),
                        Box::new(Expr::App(
                            Box::new(Expr::Var(b.clone())),
                            vec![Expr::Var(c.clone())],
                        )),
                    ),
                }],
                default: Some(Box::new(Expr::seq(Expr::unit(), Expr::Var(b.clone())))),
            },
        );
        let mut fv = FreeVars::default();
        fv.annotate_named(&body, []);
        let mut n = 0;
        body.visit(&mut |sub| {
            let expected = match sub {
                Expr::Lam(lam) => lambda_free_vars(lam),
                _ => free_vars(sub),
            };
            let expected: Vec<u32> = expected.iter().map(Var::id).collect();
            assert_eq!(fv.free(n), expected, "node {n}: {sub:?}");
            n += 1;
        });
        assert_eq!(n, fv.nodes.len());
        // A free variable nothing binds is named by its use.
        assert_eq!(fv.name(a.id()).hint(), "a");
    }
}
