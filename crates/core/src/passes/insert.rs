//! The Perceus reference-count insertion algorithm — the syntax-directed
//! linear resource rules of Fig. 8 of the paper, generalized to n-ary
//! functions, direct calls, primitives and data constructors, and
//! (optionally) to *borrowed* parameters (§6 / the Lean convention).
//!
//! The derivation `Δ | Γ ⊢ₛ e ⇝ e′` threads a *borrowed* environment Δ
//! and an *owned* environment Γ with the invariants of the paper:
//!
//! 1. `Δ ∩ Γ = ∅`
//! 2. `Γ ⊆ fv(e)`
//! 3. `fv(e) ⊆ Δ ∪ Γ`
//!
//! The algorithm is *precise* (garbage-free): `dup`s are pushed to the
//! leaves (as late as possible) and `drop`s are emitted as early as
//! possible — immediately after a binding or at the start of a match arm.
//!
//! Match arms follow the paper's compiled form (Fig. 1b): the match
//! itself borrows the scrutinee; the generated arm code first `dup`s the
//! pattern binders that the arm actually uses, then `drop`s (or
//! `drop-reuse`s, when reuse analysis attached a token) the scrutinee,
//! then `drop`s any owned variables that are dead in this arm. This is
//! the fusion of rule (matchᵣ)'s implicit `dup ys; drop x` with rule
//! *smatch*'s arm-entry drops, which is exactly what the Koka compiler
//! emits. A match on a *borrowed* scrutinee emits neither the scrutinee
//! drop nor any dup for it — the borrower guarantees liveness.
//!
//! With borrow masks present (see [`crate::passes::borrow`]), arguments
//! in borrowed positions of a direct call are not consumed: the caller
//! retains ownership and, when the call was the last use, releases the
//! value right after the call returns.
//!
//! # Cost
//!
//! One derivation takes time linear in the size of the function plus
//! the summed sizes of its nodes' free-variable sets, which bound every
//! split, and never walks a subtree twice:
//!
//! - The annotation of [`ir::fv`](crate::ir::fv) computes the free
//!   variables of every node once per function, bottom-up, into one flat
//!   array indexed by pre-order node number. Every split — `Γ₂ = Γ ∩
//!   fv(e₂)`, the right-to-left split of arguments, an arm's dead set, a
//!   lambda's captures — reads it.
//! - Γ is an ascending run of variable ids on one stack: a rule pushes
//!   the sets of its premises and pops them when it returns.
//! - Δ is a borrow count per id, raised before a premise that borrows
//!   and lowered after it; a lambda body sets its captures aside.
//! - The body is rewritten in place. A `Var` is cloned only into an
//!   instruction the derivation inserts, and once per binder into the
//!   table that names a dead or released variable.

use crate::ir::expr::{Arm, Expr, Lambda};
use crate::ir::fv::FreeVars;
use crate::ir::program::{FunId, Program};
use crate::ir::var::{Var, VarGen};
use std::fmt;

/// An error from the insertion algorithm. These indicate ill-scoped
/// input or an internal invariant violation — a well-formed user-fragment
/// program never triggers one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertError(pub String);

impl fmt::Display for InsertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "perceus insertion: {}", self.0)
    }
}

impl std::error::Error for InsertError {}

/// Runs Perceus insertion over every function of the program, honoring
/// `program.borrows` when present.
///
/// Expects the user fragment (plus reuse-analysis annotations) in ANF;
/// produces a program whose functions contain explicit `dup`/`drop`/
/// `drop-reuse` instructions and consume their owned parameters (the
/// owned calling convention of §2.2).
pub fn insert_program(p: &mut Program) -> Result<(), InsertError> {
    let mut ins = Insert::new(&p.borrows, &mut p.var_gen);
    for (fi, f) in p.funs.iter_mut().enumerate() {
        let mask = p.borrows.get(fi).map_or(&[][..], Vec::as_slice);
        ins.function(&f.params, mask, &mut f.body)?;
    }
    Ok(())
}

/// One Γ: the ascending ids `Sets::0[lo..hi]`.
#[derive(Clone, Copy)]
struct Set {
    lo: usize,
    hi: usize,
}

impl Set {
    fn len(self) -> usize {
        self.hi - self.lo
    }
}

/// The Γ of every derivation in progress, on one stack: a rule pushes
/// its premises' sets above its own and truncates them when it returns.
#[derive(Default)]
struct Sets(Vec<u32>);

impl Sets {
    fn get(&self, s: Set) -> &[u32] {
        &self.0[s.lo..s.hi]
    }

    fn contains(&self, s: Set, id: u32) -> bool {
        self.get(s).binary_search(&id).is_ok()
    }

    fn mark(&self) -> usize {
        self.0.len()
    }

    fn truncate(&mut self, mark: usize) {
        self.0.truncate(mark);
    }

    /// Pushes the ids of `s` that `keep` accepts, as a new set.
    fn filter(&mut self, s: Set, keep: impl Fn(u32) -> bool) -> Set {
        let lo = self.0.len();
        for i in s.lo..s.hi {
            let v = self.0[i];
            if keep(v) {
                self.0.push(v);
            }
        }
        Set {
            lo,
            hi: self.0.len(),
        }
    }

    /// Sorts and dedups the ids pushed since `lo` into one set.
    fn close(&mut self, lo: usize) -> Set {
        let tail = &mut self.0[lo..];
        tail.sort_unstable();
        let mut len = 0;
        for i in 0..tail.len() {
            if len == 0 || tail[i] != tail[len - 1] {
                tail[len] = tail[i];
                len += 1;
            }
        }
        self.0.truncate(lo + len);
        Set { lo, hi: lo + len }
    }

    /// Adds `id` to `s`, the topmost set.
    fn insert(&mut self, s: Set, id: u32) -> Set {
        debug_assert_eq!(s.hi, self.0.len(), "only the topmost set grows");
        match self.get(s).binary_search(&id) {
            Ok(_) => s,
            Err(i) => {
                self.0.insert(s.lo + i, id);
                Set {
                    lo: s.lo,
                    hi: s.hi + 1,
                }
            }
        }
    }
}

/// Δ as a borrow count per variable id: a rule raises the ids a premise
/// may borrow before deriving it and lowers them after, so Δ is never
/// copied. A count, not a flag, so every raise is undone exactly.
#[derive(Default)]
struct Borrowed {
    count: Vec<u32>,
    /// Counts set aside by [`Borrowed::suspend`], innermost last.
    saved: Vec<u32>,
}

impl Borrowed {
    fn fit(&mut self, len: usize) {
        if self.count.len() < len {
            self.count.resize(len, 0);
        }
    }

    fn has(&self, id: u32) -> bool {
        self.count[id as usize] > 0
    }

    fn raise(&mut self, ids: &[u32]) {
        for &v in ids {
            self.count[v as usize] += 1;
        }
    }

    fn lower(&mut self, ids: &[u32]) {
        for &v in ids {
            self.count[v as usize] -= 1;
        }
    }

    /// Removes `ids` from Δ until the matching [`Borrowed::resume`].
    fn suspend(&mut self, ids: &[u32]) {
        for &v in ids {
            self.saved.push(std::mem::take(&mut self.count[v as usize]));
        }
    }

    fn resume(&mut self, ids: &[u32]) {
        for &v in ids.iter().rev() {
            self.count[v as usize] = self.saved.pop().expect("resume follows suspend");
        }
    }
}

/// Whether the match owns its scrutinee (and must consume it per arm)
/// or merely borrows it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ScrutineeMode {
    Owned,
    Borrowed,
}

/// The state of the derivations of one program.
struct Insert<'a> {
    /// Borrow masks per function (§6); empty or all-false = all owned.
    borrows: &'a [Vec<bool>],
    /// Source of the `_r` results of borrowing calls.
    gen: &'a mut VarGen,
    fv: FreeVars,
    gamma: Sets,
    delta: Borrowed,
}

impl<'a> Insert<'a> {
    fn new(borrows: &'a [Vec<bool>], gen: &'a mut VarGen) -> Self {
        Insert {
            borrows,
            gen,
            fv: FreeVars::default(),
            gamma: Sets::default(),
            delta: Borrowed::default(),
        }
    }

    fn annotate<'v>(&mut self, body: &Expr, roots: impl IntoIterator<Item = &'v Var>) {
        self.fv.annotate_named(body, roots);
        self.delta.fit(self.fv.id_bound());
    }

    fn mask(&self, f: FunId) -> &'a [bool] {
        self.borrows.get(f.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// One function: Δ is its borrowed parameters, Γ the owned ones its
    /// body uses. Unused owned parameters are dropped on entry
    /// (slam-drop); borrowed parameters are never dropped.
    fn function(
        &mut self,
        params: &[Var],
        mask: &[bool],
        body: &mut Expr,
    ) -> Result<(), InsertError> {
        self.annotate(body, params);
        let borrowed = |i: usize| mask.get(i).copied().unwrap_or(false);
        for (i, p) in params.iter().enumerate() {
            if borrowed(i) {
                self.delta.raise(&[p.id()]);
            } else if self.fv.contains(0, p.id()) {
                self.gamma.0.push(p.id());
            }
        }
        let g = self.gamma.close(0);
        self.expr(0, g, body)?;
        self.gamma.truncate(0);
        for (i, p) in params.iter().enumerate().rev() {
            if borrowed(i) {
                self.delta.lower(&[p.id()]);
            } else if !self.fv.contains(0, p.id()) {
                body.wrap(|b| Expr::Drop(p.clone(), b));
            }
        }
        Ok(())
    }

    /// The derivation `Δ | Γ ⊢ₛ e ⇝ e′` of node `n`, rewriting `e` into
    /// `e′` in place.
    fn expr(&mut self, n: usize, g: Set, e: &mut Expr) -> Result<(), InsertError> {
        debug_assert!(
            self.gamma.get(g).iter().all(|&v| !self.delta.has(v)),
            "Δ ∩ Γ must be empty: Γ={}",
            self.show(self.gamma.get(g))
        );
        let mark = self.gamma.mark();
        let dups = match e {
            Expr::Var(x) => {
                if self.var(g, x)? {
                    vec![x.clone()]
                } else {
                    Vec::new()
                }
            }
            Expr::Lit(_) | Expr::Global(_) | Expr::Abort(_) | Expr::NullToken => {
                self.expect_empty(g, "literal")?;
                Vec::new()
            }
            Expr::TokenOf(_) | Expr::IsUnique { .. } | Expr::Free(..) | Expr::DecRef(..) => {
                return Err(InsertError(
                    "specialized instruction in insertion input".into(),
                ))
            }
            Expr::Dup(..) | Expr::Drop(..) | Expr::DropReuse { .. } => {
                return Err(InsertError(
                    "reference-count instruction in insertion input".into(),
                ))
            }
            // Reuse analysis runs before insertion and releases unused
            // tokens with drop-token; the token is a linear resource
            // consumed here.
            Expr::DropToken(t, rest) => {
                let g = self.consume(g, t, "drop-token")?;
                self.expr(n + 1, g, rest)?;
                Vec::new()
            }
            // [sapp] generalized: callee first, then arguments left to right.
            Expr::App(f, args) => self.sequence(n + 1, g, Some(f.as_mut()), args, &[])?.0,
            Expr::Prim(_, args) => self.sequence(n + 1, g, None, args, &[])?.0,
            Expr::Call(id, args) => {
                let mask = self.mask(*id);
                let (dups, release) = self.sequence(n + 1, g, None, args, mask)?;
                dup_all(e, dups);
                if !release.is_empty() {
                    // val r = f(…); drop x…; r
                    let r = self.gen.fresh("_r");
                    e.wrap(|call| Expr::Let {
                        var: r.clone(),
                        rhs: call,
                        body: Box::new(Expr::drop_all(release, Expr::Var(r))),
                    });
                }
                Vec::new()
            }
            // [scon]; a reuse token is consumed by the allocation itself.
            Expr::Con { args, reuse, .. } => {
                let g = match reuse {
                    Some(t) => self.consume(g, t, "constructor")?,
                    None => g,
                };
                self.sequence(n + 1, g, None, args, &[])?.0
            }
            Expr::Lam(lam) => self.lam(n, g, lam)?,
            Expr::Let { var, rhs, body } => {
                self.bind(n, g, Some(var), rhs, body)?;
                Vec::new()
            }
            // Like sbind with an anonymous unit binding (never dropped:
            // unit is a value type).
            Expr::Seq(a, b) => {
                self.bind(n, g, None, a, b)?;
                Vec::new()
            }
            Expr::Match {
                scrutinee,
                arms,
                default,
            } => self.matches(n, g, scrutinee, arms, default.as_deref_mut())?,
        };
        self.gamma.truncate(mark);
        dup_all(e, dups);
        Ok(())
    }

    /// [svar] / [svar-dup]: `x` is the one owned variable, or nothing is
    /// owned and `x` is borrowed — then the use needs a `dup` (`true`).
    fn var(&self, g: Set, x: &Var) -> Result<bool, InsertError> {
        match self.gamma.get(g) {
            [v] if *v == x.id() => Ok(false),
            [] if self.delta.has(x.id()) => Ok(true),
            owned => Err(InsertError(format!(
                "variable {x:?} not exactly owned (Γ={}) nor borrowed",
                self.show(owned)
            ))),
        }
    }

    fn expect_empty(&self, g: Set, what: &str) -> Result<(), InsertError> {
        match self.gamma.get(g) {
            [] => Ok(()),
            owned => Err(InsertError(format!(
                "owned variables {} unused at {what}",
                self.show(owned)
            ))),
        }
    }

    /// Γ less the reuse token `t`, which must be owned: a token is a
    /// linear resource its use consumes.
    fn consume(&mut self, g: Set, t: &Var, at: &str) -> Result<Set, InsertError> {
        if !self.gamma.contains(g, t.id()) {
            return Err(InsertError(format!("token {t:?} not owned at {at}")));
        }
        Ok(self.gamma.filter(g, |v| v != t.id()))
    }

    /// [sapp] generalized to premises evaluated left to right from node
    /// `first` (the callee, then the arguments): `γ ∈ Γ` is owned by the
    /// *last* premise whose free variables contain it and borrowed by the
    /// earlier ones. Returns the `dup`s svar-dup put on argument atoms,
    /// to be hoisted in front of the node so arguments stay atoms (ANF):
    /// the other arguments are effect-free atoms, so the `dup`s commute
    /// with them and happen in the same order, just earlier.
    ///
    /// With a borrow `mask` (§6), an argument in a borrowed position is
    /// passed verbatim and takes no part in the split. An owned variable
    /// whose last use is such a position is returned second, *released*:
    /// the caller drops it right after the call returns — the closest a
    /// caller can get to garbage-free under borrowing.
    fn sequence(
        &mut self,
        first: usize,
        g: Set,
        callee: Option<&mut Expr>,
        args: &mut [Expr],
        mask: &[bool],
    ) -> Result<(Vec<Var>, Vec<Var>), InsertError> {
        const UNUSED: u32 = u32::MAX;
        const RELEASED: u32 = u32::MAX - 1;
        let shift = usize::from(callee.is_some());
        let borrowed = |i: usize| i >= shift && mask.get(i - shift).copied().unwrap_or(false);
        // owner[j]: the premise that owns the j-th id of Γ.
        let owner = self.gamma.mark();
        self.gamma.0.resize(owner + g.len(), UNUSED);
        let mut c = first;
        for i in 0..shift + args.len() {
            for &v in self.fv.free(c) {
                if let Ok(j) = self.gamma.get(g).binary_search(&v) {
                    let o = &mut self.gamma.0[owner + j];
                    if !borrowed(i) {
                        *o = i as u32;
                    } else if *o == UNUSED {
                        *o = RELEASED;
                    }
                }
            }
            c = self.fv.next(c);
        }
        let unused: Vec<u32> = (0..g.len())
            .filter(|&j| self.gamma.0[owner + j] == UNUSED)
            .map(|j| self.gamma.0[g.lo + j])
            .collect();
        if !unused.is_empty() {
            return Err(InsertError(format!(
                "owned variables {} unused in application",
                self.show(&unused)
            )));
        }

        // Every id of Γ is borrowed until its owner's turn.
        self.delta.raise(self.gamma.get(g));
        let mut dups = Vec::new();
        let mut c = first;
        for (i, e) in callee.into_iter().chain(args.iter_mut()).enumerate() {
            if borrowed(i) {
                self.borrowed_arg(g, e)?;
            } else if let Expr::Var(x) = e {
                let own = match self.gamma.get(g).binary_search(&x.id()) {
                    Ok(j) if self.gamma.0[owner + j] == i as u32 => {
                        self.delta.lower(&[x.id()]);
                        Set {
                            lo: g.lo + j,
                            hi: g.lo + j + 1,
                        }
                    }
                    _ => Set { lo: g.lo, hi: g.lo },
                };
                if self.var(own, x)? {
                    dups.push(x.clone());
                }
            } else {
                let lo = self.gamma.mark();
                if !self.fv.free(c).is_empty() {
                    for j in 0..g.len() {
                        if self.gamma.0[owner + j] == i as u32 {
                            let v = self.gamma.0[g.lo + j];
                            self.gamma.0.push(v);
                            self.delta.lower(&[v]);
                        }
                    }
                }
                let own = Set {
                    lo,
                    hi: self.gamma.mark(),
                };
                self.expr(c, own, e)?;
                self.gamma.truncate(lo);
            }
            c = self.fv.next(c);
        }
        let mut release = Vec::new();
        for j in 0..g.len() {
            if self.gamma.0[owner + j] == RELEASED {
                let v = self.gamma.0[g.lo + j];
                self.delta.lower(&[v]);
                release.push(self.fv.name(v));
            }
        }
        self.gamma.truncate(owner);
        Ok((dups, release))
    }

    /// A borrowed position takes an atom verbatim: no dup, no
    /// consumption. Its variable is alive through the call: borrowed
    /// here, owned by a later argument, or released after the call.
    fn borrowed_arg(&self, g: Set, a: &Expr) -> Result<(), InsertError> {
        if !a.is_atom() {
            return Err(InsertError(
                "non-atomic argument in borrowed position (not in ANF)".into(),
            ));
        }
        match a {
            Expr::Var(v) if !self.delta.has(v.id()) && !self.gamma.contains(g, v.id()) => Err(
                InsertError(format!("borrowed argument {v:?} is not alive at the call")),
            ),
            _ => Ok(()),
        }
    }

    /// [slam] / [slam-drop]: the closure takes one ownership of each
    /// capture — out of Γ, or by a `dup` (returned) when the capture is
    /// borrowed. Its body is derived afresh with Δ = ∅ and Γ = the
    /// captures and parameters it uses, and drops the parameters it
    /// does not.
    fn lam(&mut self, n: usize, g: Set, lam: &mut Lambda) -> Result<Vec<Var>, InsertError> {
        let ys = self.fv.free(n);
        // Invariant (2) gives Γ ⊆ ys; the rest must be borrowed and gets
        // dup'd to take ownership for the closure (Δ₁ = ys − Γ).
        if let Some(&v) = self
            .gamma
            .get(g)
            .iter()
            .find(|v| ys.binary_search(v).is_err())
        {
            return Err(InsertError(format!(
                "lambda owns {} beyond its free variables {}",
                self.show(&[v]),
                self.show(ys)
            )));
        }
        if let Some(&y) = ys
            .iter()
            .find(|&&y| !self.gamma.contains(g, y) && !self.delta.has(y))
        {
            return Err(InsertError(format!(
                "lambda capture {} neither owned nor borrowed",
                self.show(&[y])
            )));
        }
        if !lam.captures.iter().map(Var::id).eq(ys.iter().copied()) {
            lam.captures = ys.iter().map(|&y| self.fv.name(y)).collect();
        }
        let dups = lam
            .captures
            .iter()
            .filter(|c| !self.gamma.contains(g, c.id()))
            .cloned()
            .collect();

        self.delta.suspend(self.fv.free(n));
        let lo = self.gamma.mark();
        self.gamma.0.extend_from_slice(self.fv.free(n + 1));
        let owned = Set {
            lo,
            hi: self.gamma.mark(),
        };
        self.expr(n + 1, owned, &mut lam.body)?;
        self.gamma.truncate(lo);
        self.delta.resume(self.fv.free(n));

        let used = self.fv.free(n + 1);
        for p in lam.params.iter().rev() {
            if used.binary_search(&p.id()).is_err() {
                lam.body.wrap(|b| Expr::Drop(p.clone(), b));
            }
        }
        Ok(dups)
    }

    /// [sbind] / [sbind-drop]: `Γ₂ = Γ ∩ fv(e₂)` goes to the body and is
    /// borrowed by the right-hand side, which owns the rest. A binder the
    /// body does not use is dropped right after the binding (`var` is
    /// `None` for a `Seq`).
    fn bind(
        &mut self,
        n: usize,
        g: Set,
        var: Option<&Var>,
        rhs: &mut Expr,
        body: &mut Expr,
    ) -> Result<(), InsertError> {
        let b = self.fv.next(n + 1);
        let in_body = self.fv.free(b);
        let g1 = self.gamma.filter(g, |v| in_body.binary_search(&v).is_err());
        let g2 = self.gamma.filter(g, |v| in_body.binary_search(&v).is_ok());
        self.delta.raise(self.gamma.get(g2));
        self.expr(n + 1, g1, rhs)?;
        self.delta.lower(self.gamma.get(g2));
        let live = var.filter(|x| self.fv.contains(b, x.id()));
        let g2 = match live {
            Some(x) => self.gamma.insert(g2, x.id()),
            None => g2,
        };
        self.expr(b, g2, body)?;
        if let (Some(x), None) = (var, live) {
            body.wrap(|e| Expr::Drop(x.clone(), e));
        }
        Ok(())
    }

    /// [smatch] in the compiled form of Fig. 1b (see the module docs).
    /// Returns the `dup` that takes ownership of a borrowed scrutinee
    /// whose arms carry reuse tokens.
    fn matches(
        &mut self,
        n: usize,
        g: Set,
        s: &Var,
        arms: &mut [Arm],
        default: Option<&mut Expr>,
    ) -> Result<Vec<Var>, InsertError> {
        if self.gamma.contains(g, s.id()) {
            let rest = self.gamma.filter(g, |v| v != s.id());
            self.arms(n, rest, s, arms, default, ScrutineeMode::Owned)?;
            return Ok(Vec::new());
        }
        if !self.delta.has(s.id()) {
            return Err(InsertError(format!(
                "scrutinee {s:?} neither owned nor borrowed"
            )));
        }
        // Borrowed scrutinee. Without reuse tokens, the arms can simply
        // borrow it too: no dup, no arm drop — this is what makes a
        // borrowed `is-red(t)` entirely rc-free.
        if arms.iter().all(|a| a.reuse_token.is_none()) {
            self.arms(n, g, s, arms, default, ScrutineeMode::Borrowed)?;
            return Ok(Vec::new());
        }
        // Reuse tokens require consumption: take ownership first
        // (svar-dup) and derive the match as owned.
        self.delta.suspend(&[s.id()]);
        self.arms(n, g, s, arms, default, ScrutineeMode::Owned)?;
        self.delta.resume(&[s.id()]);
        Ok(vec![s.clone()])
    }

    fn arms(
        &mut self,
        n: usize,
        rest: Set,
        s: &Var,
        arms: &mut [Arm],
        default: Option<&mut Expr>,
        mode: ScrutineeMode,
    ) -> Result<(), InsertError> {
        let mut c = n + 1;
        for arm in arms {
            let token = arm.reuse_token.take(); // the DropReuse carries it
            self.arm(c, rest, s, &arm.binders, token, &mut arm.body, mode)?;
            c = self.fv.next(c);
        }
        if let Some(d) = default {
            self.arm(c, rest, s, &[], None, d, mode)?;
        }
        Ok(())
    }

    /// One arm of a match at node `c` (the default has no binders and
    /// no token); `rest` is Γ less the scrutinee. Owned, the generated
    /// code reads: dup the used binders; drop (or drop-reuse into the
    /// token) the scrutinee unless the arm uses it; drop the owned
    /// variables dead in this arm; body. Borrowed, the cell is pinned
    /// for the whole derivation, so its fields are borrowed too: no
    /// entry dups, no scrutinee drop; a use of a binder dups at the use
    /// site (svar-dup).
    #[allow(clippy::too_many_arguments)]
    fn arm(
        &mut self,
        c: usize,
        rest: Set,
        s: &Var,
        binders: &[Option<Var>],
        token: Option<Var>,
        body: &mut Expr,
        mode: ScrutineeMode,
    ) -> Result<(), InsertError> {
        let used = self.fv.free(c);
        let scrut_live = used.binary_search(&s.id()).is_ok();
        if token.is_some() && (scrut_live || mode == ScrutineeMode::Borrowed) {
            return Err(InsertError(format!(
                "reuse token on arm that cannot consume scrutinee {s:?}"
            )));
        }
        let binders = binders.iter().flatten();
        let mark = self.gamma.mark();
        let own = self.gamma.filter(rest, |v| used.binary_search(&v).is_ok());
        let own = match mode {
            ScrutineeMode::Borrowed => {
                binders.clone().for_each(|b| self.delta.raise(&[b.id()]));
                own
            }
            ScrutineeMode::Owned => {
                for b in binders.clone() {
                    if used.binary_search(&b.id()).is_ok() {
                        self.gamma.0.push(b.id());
                    }
                }
                if scrut_live {
                    self.gamma.0.push(s.id());
                }
                if let Some(t) = &token {
                    self.gamma.0.push(t.id());
                }
                self.gamma.close(own.lo)
            }
        };
        self.expr(c, own, body)?;

        // Emission order (innermost-out): dead drops, scrutinee
        // consumption, binder dups.
        let used = self.fv.free(c);
        for &v in self.gamma.get(rest).iter().rev() {
            if used.binary_search(&v).is_err() {
                body.wrap(|b| Expr::Drop(self.fv.name(v), b));
            }
        }
        match mode {
            ScrutineeMode::Borrowed => binders.for_each(|b| self.delta.lower(&[b.id()])),
            ScrutineeMode::Owned => {
                if !scrut_live {
                    body.wrap(|b| match token {
                        Some(token) => Expr::DropReuse {
                            var: s.clone(),
                            token,
                            body: b,
                        },
                        None => Expr::Drop(s.clone(), b),
                    });
                }
                for b in binders.rev() {
                    if used.binary_search(&b.id()).is_ok() {
                        body.wrap(|e| Expr::Dup(b.clone(), e));
                    }
                }
            }
        }
        self.gamma.truncate(mark);
        Ok(())
    }

    /// `{x#1, y#2}`, for error messages.
    fn show(&self, ids: &[u32]) -> String {
        let names: Vec<String> = ids
            .iter()
            .map(|&id| match self.fv.get_name(id) {
                Some(v) => format!("{v:?}"),
                None => format!("#{id}"),
            })
            .collect();
        format!("{{{}}}", names.join(", "))
    }
}

/// Wraps `e` in a `dup` of each variable, the first outermost.
fn dup_all(e: &mut Expr, vars: Vec<Var>) {
    for x in vars.into_iter().rev() {
        e.wrap(|inner| Expr::Dup(x, inner));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::erase::erase;
    use crate::ir::expr::PrimOp;
    use crate::ir::pretty::expr_to_string;
    use crate::ir::program::TypeTable;

    fn v(id: u32, hint: &str) -> Var {
        Var::new(id, hint)
    }

    /// `Δ | Γ ⊢ₛ e` under the given borrow masks, as `insert_program`
    /// derives a body.
    fn derive(
        borrows: &[Vec<bool>],
        delta: &[&Var],
        gamma: &[&Var],
        mut e: Expr,
    ) -> Result<Expr, InsertError> {
        let mut gen = VarGen::starting_at(10_000);
        let mut ins = Insert::new(borrows, &mut gen);
        ins.annotate(&e, delta.iter().chain(gamma).copied());
        for x in delta {
            ins.delta.raise(&[x.id()]);
        }
        ins.gamma.0.extend(gamma.iter().map(|x| x.id()));
        let g = ins.gamma.close(0);
        ins.expr(0, g, &mut e)?;
        Ok(e)
    }

    /// [`derive`] with no borrow masks (the default convention).
    fn infer0(delta: &[&Var], gamma: &[&Var], e: Expr) -> Result<Expr, InsertError> {
        derive(&[], delta, gamma, e)
    }

    #[test]
    fn k_combinator_drops_unused() {
        // λx y. x  ⇒  body of the lambda drops y
        let x = v(0, "x");
        let y = v(1, "y");
        let lam = Expr::Lam(Lambda {
            params: vec![x.clone(), y.clone()],
            captures: vec![],
            body: Box::new(Expr::Var(x.clone())),
        });
        let out = infer0(&[], &[], lam).unwrap();
        match out {
            Expr::Lam(l) => assert_eq!(*l.body, Expr::drop_(y, Expr::Var(x))),
            other => panic!("expected lambda, got {other:?}"),
        }
    }

    #[test]
    fn duplicated_use_dups_at_leaf() {
        // x + x with x owned: the dup for the first (borrowing) use is
        // hoisted in front of the application to keep it in ANF.
        let x = v(0, "x");
        let e = Expr::Prim(
            PrimOp::Add,
            vec![Expr::Var(x.clone()), Expr::Var(x.clone())],
        );
        let out = infer0(&[], &[&x], e).unwrap();
        assert_eq!(
            out,
            Expr::dup(
                x.clone(),
                Expr::Prim(
                    PrimOp::Add,
                    vec![Expr::Var(x.clone()), Expr::Var(x.clone())]
                )
            )
        );
    }

    #[test]
    fn borrowed_variable_gets_dup() {
        let x = v(0, "x");
        let out = infer0(&[&x], &[], Expr::Var(x.clone())).unwrap();
        assert_eq!(out, Expr::dup(x.clone(), Expr::Var(x)));
    }

    #[test]
    fn unused_let_binding_dropped_immediately() {
        // val y = x; 42  ⇒  val y = x; drop y; 42
        let x = v(0, "x");
        let y = v(1, "y");
        let e = Expr::let_(y.clone(), Expr::Var(x.clone()), Expr::int(42));
        let out = infer0(&[], &[&x], e).unwrap();
        assert_eq!(
            out,
            Expr::let_(y.clone(), Expr::Var(x), Expr::drop_(y, Expr::int(42)))
        );
    }

    #[test]
    fn map_cons_arm_matches_figure_1b() {
        // The running example of the paper (Fig. 1b): in the Cons arm the
        // generated code is dup x; dup xx; drop xs; Cons(dup(f)(x), map(xx,f)).
        let mut types = TypeTable::new();
        let list = types.add_data("list");
        let nil = types.add_ctor_arity(list, "Nil", 0);
        let cons = types.add_ctor_arity(list, "Cons", 2);
        let map = crate::ir::program::FunId(0);

        let xs = v(0, "xs");
        let f = v(1, "f");
        let x = v(2, "x");
        let xx = v(3, "xx");
        let y = v(4, "y");
        let ys = v(5, "ys");
        // Cons arm body (ANF): val y = f(x); val ys = map(xx, f); Cons(y, ys)
        let cons_body = Expr::let_(
            y.clone(),
            Expr::App(Box::new(Expr::Var(f.clone())), vec![Expr::Var(x.clone())]),
            Expr::let_(
                ys.clone(),
                Expr::Call(map, vec![Expr::Var(xx.clone()), Expr::Var(f.clone())]),
                Expr::Con {
                    ctor: cons,
                    args: vec![Expr::Var(y.clone()), Expr::Var(ys.clone())],
                    reuse: None,
                    skip: vec![],
                },
            ),
        );
        let body = Expr::Match {
            scrutinee: xs.clone(),
            arms: vec![
                Arm {
                    ctor: cons,
                    binders: vec![Some(x.clone()), Some(xx.clone())],
                    reuse_token: None,
                    body: cons_body,
                },
                Arm {
                    ctor: nil,
                    binders: vec![],
                    reuse_token: None,
                    body: Expr::Con {
                        ctor: nil,
                        args: vec![],
                        reuse: None,
                        skip: vec![],
                    },
                },
            ],
            default: None,
        };
        let out = infer0(&[], &[&xs, &f], body.clone()).unwrap();
        let printed = expr_to_string(&out, &types);
        // Cons arm: dup x; dup xx; drop xs — then f is dup'd at its first
        // use because it is borrowed there (used again by the map call).
        let cons_arm = printed
            .split("Cons(x, xx)")
            .nth(1)
            .expect("cons arm printed");
        let dup_x = cons_arm.find("dup x").expect("dup x");
        let dup_xx = cons_arm.find("dup xx").expect("dup xx");
        let drop_xs = cons_arm.find("drop xs").expect("drop xs");
        let dup_f = cons_arm.find("dup f").expect("dup f");
        assert!(
            dup_x < dup_xx && dup_xx < drop_xs && drop_xs < dup_f,
            "{printed}"
        );
        // Nil arm drops both the scrutinee and the dead f.
        let nil_arm = cons_arm.split("Nil ->").nth(1).expect("nil arm");
        assert!(nil_arm.contains("drop xs"), "{printed}");
        assert!(nil_arm.contains("drop f"), "{printed}");
        // Lemma 1: erasing recovers the input.
        assert_eq!(erase(out), body);
    }

    #[test]
    fn rejects_rc_instructions_in_input() {
        let x = v(0, "x");
        let e = Expr::dup(x.clone(), Expr::Var(x.clone()));
        assert!(infer0(&[], &[&x], e).is_err());
    }

    #[test]
    fn lambda_captures_consume_ownership() {
        // With x owned, λy. x + y consumes x into the closure: no dup.
        let x = v(0, "x");
        let y = v(1, "y");
        let lam = Expr::Lam(Lambda {
            params: vec![y.clone()],
            captures: vec![x.clone()],
            body: Box::new(Expr::Prim(
                PrimOp::Add,
                vec![Expr::Var(x.clone()), Expr::Var(y.clone())],
            )),
        });
        let out = infer0(&[], &[&x], lam.clone()).unwrap();
        assert!(matches!(out, Expr::Lam(_)), "no dup expected: {out:?}");
        // With x merely borrowed, the closure must dup it first.
        let out = infer0(&[&x], &[], lam).unwrap();
        assert!(matches!(out, Expr::Dup(ref d, _) if *d == x), "{out:?}");
    }

    #[test]
    fn borrowed_match_emits_no_scrutinee_rc_ops() {
        // match t (borrowed) { C(a) -> 1; N -> 0 } — no dup t, no drop t.
        let mut types = TypeTable::new();
        let d = types.add_data("t");
        let n0 = types.add_ctor_arity(d, "N", 0);
        let c1 = types.add_ctor_arity(d, "C", 1);
        let t = v(0, "t");
        let a = v(1, "a");
        let e = Expr::Match {
            scrutinee: t.clone(),
            arms: vec![
                Arm {
                    ctor: c1,
                    binders: vec![Some(a.clone())],
                    reuse_token: None,
                    body: Expr::int(1),
                },
                Arm {
                    ctor: n0,
                    binders: vec![],
                    reuse_token: None,
                    body: Expr::int(0),
                },
            ],
            default: None,
        };
        let out = infer0(&[&t], &[], e).unwrap();
        let s = expr_to_string(&out, &types);
        assert!(!s.contains("dup"), "{s}");
        assert!(!s.contains("drop"), "{s}");
    }

    #[test]
    fn borrowed_match_with_reuse_token_takes_ownership_first() {
        // match t (borrowed) { C(a) with token ru -> C@ru(a) }: the
        // token needs the cell, so the match dups t and consumes it.
        let mut types = TypeTable::new();
        let d = types.add_data("t");
        let c1 = types.add_ctor_arity(d, "C", 1);
        let t = v(0, "t");
        let a = v(1, "a");
        let ru = v(2, "ru");
        let e = Expr::Match {
            scrutinee: t.clone(),
            arms: vec![Arm {
                ctor: c1,
                binders: vec![Some(a.clone())],
                reuse_token: Some(ru.clone()),
                body: Expr::Con {
                    ctor: c1,
                    args: vec![Expr::Var(a.clone())],
                    reuse: Some(ru.clone()),
                    skip: vec![],
                },
            }],
            default: None,
        };
        let out = infer0(&[&t], &[], e).unwrap();
        let Expr::Dup(d, inner) = out else {
            panic!("expected dup t first, got {out:?}")
        };
        assert_eq!(d, t);
        let Expr::Match { arms, .. } = *inner else {
            panic!("expected the match under the dup")
        };
        assert_eq!(
            arms[0].body,
            Expr::dup(
                a.clone(),
                Expr::DropReuse {
                    var: t,
                    token: ru.clone(),
                    body: Box::new(Expr::Con {
                        ctor: c1,
                        args: vec![Expr::Var(a)],
                        reuse: Some(ru),
                        skip: vec![],
                    }),
                }
            )
        );
    }

    #[test]
    fn borrowing_call_releases_last_use_after_call() {
        // fun g(borrowed q) …; with x owned and dead after: the caller
        // emits  val r = g(x); drop x; r.
        let x = v(1, "x");
        let g = crate::ir::program::FunId(0);
        let e = Expr::Call(g, vec![Expr::Var(x.clone())]);
        let out = derive(&[vec![true]], &[], &[&x], e).unwrap();
        match out {
            Expr::Let { var, rhs, body } => {
                assert_eq!(
                    var.id(),
                    10_000,
                    "the fresh result comes from the program's VarGen"
                );
                assert!(matches!(*rhs, Expr::Call(..)));
                assert!(matches!(*body, Expr::Drop(ref d, _) if *d == x), "{body:?}");
            }
            other => panic!("expected release-after-call wrapper, got {other:?}"),
        }
    }

    #[test]
    fn borrowing_call_with_later_use_adds_nothing() {
        // x used again after the borrowed call: no dup for the call, no
        // release — the later use consumes.
        let x = v(1, "x");
        let r = v(2, "r");
        let g = crate::ir::program::FunId(0);
        let e = Expr::let_(
            r.clone(),
            Expr::Call(g, vec![Expr::Var(x.clone())]),
            Expr::Var(x.clone()),
        );
        let out = derive(&[vec![true]], &[], &[&x], e).unwrap();
        let types = TypeTable::new();
        let s = expr_to_string(&out, &types);
        assert!(!s.contains("dup x"), "{s}");
        assert!(s.contains("drop r"), "unused result dropped: {s}");
    }

    #[test]
    fn owned_positions_in_borrowing_call_still_split() {
        // g(borrowed a, owned b): b consumed by the call, a borrowed and
        // dead after → release-after wrapper for a only.
        let a = v(1, "a");
        let b = v(2, "b");
        let g = crate::ir::program::FunId(0);
        let e = Expr::Call(g, vec![Expr::Var(a.clone()), Expr::Var(b.clone())]);
        let out = derive(&[vec![true, false]], &[], &[&a, &b], e).unwrap();
        let types = TypeTable::new();
        let s = expr_to_string(&out, &types);
        assert!(s.contains("drop a"), "{s}");
        assert!(!s.contains("drop b"), "{s}");
        assert!(!s.contains("dup"), "{s}");
    }

    #[test]
    fn dead_drops_come_out_in_ascending_id_order() {
        // match s { C -> 0 } with z, y, x owned (given out of order) and
        // unused: the arm drops s, then x, y, z by id.
        let mut types = TypeTable::new();
        let d = types.add_data("t");
        let c0 = types.add_ctor_arity(d, "C", 0);
        let s = v(0, "s");
        let (x, y, z) = (v(3, "x"), v(5, "y"), v(7, "z"));
        let e = Expr::Match {
            scrutinee: s.clone(),
            arms: vec![Arm {
                ctor: c0,
                binders: vec![],
                reuse_token: None,
                body: Expr::int(0),
            }],
            default: None,
        };
        let out = infer0(&[], &[&z, &s, &y, &x], e).unwrap();
        let Expr::Match { arms, .. } = out else {
            panic!("expected a match")
        };
        let expected = Expr::drop_all([s, x, y, z], Expr::int(0));
        assert_eq!(arms[0].body, expected);
    }
}
