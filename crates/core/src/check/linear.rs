//! The *resource checker*: an executable counterpart of the declarative
//! linear resource calculus (Fig. 5 of the paper).
//!
//! After insertion (and after each optimization pass), every function
//! must satisfy a path-sensitive ownership discipline:
//!
//! * every owned reference is consumed **exactly once** on every
//!   control-flow path (uses, `drop`, `decref`, `free`, `drop-reuse`,
//!   `&x`, closure capture, and constructor/call arguments all consume);
//! * `dup` may only target a variable that is provably alive: one that
//!   is currently owned, or a match binder whose parent cell is alive
//!   (the borrowed-field rule that justifies Fig. 1b's
//!   `dup x; dup xx; drop xs` ordering);
//! * at a control-flow join (the arms of a `match` or of an
//!   `is-unique`), every path must agree on the resulting ownership;
//! * entering the unique branch of `is-unique(x)` transfers the cell's
//!   ownership of its fields to the arm binders (one count each), which
//!   is what makes the fused fast path of Fig. 1d/1g — `free x` with no
//!   other rc instruction — check out.
//!
//! Theorem 3 of the paper (the syntax-directed system is sound w.r.t.
//! the declarative one) corresponds to: everything the insertion pass
//! emits passes this checker; the test suites of `perceus-core` and the
//! integration tests enforce it for every program and every pass
//! combination.
//!
//! # Cost
//!
//! One check takes time linear in the size of the function plus the
//! ownership changes its branches make, and allocates nothing per node:
//!
//! - The ownership environment is one table indexed by variable id,
//!   allocated once per program and sized from `Program::var_gen`. An
//!   entry holds the owned count (or "not tracked"), the parent binder
//!   whose cell keeps it alive, and the pinned bit of a borrowed
//!   parameter. Each binder's `Var` is kept by reference, for error texts
//!   only.
//! - Every write first records the entry's old value in an undo log,
//!   once per entry per branch. A branch — a match arm, the default,
//!   either side of `is-unique` — starts at the log's mark, and when it
//!   ends keeps the final value of every entry it changed and rewinds the
//!   log. The join compares the branches' final values over the entries
//!   any of them changed, against the value before the branches where one
//!   left an entry alone, and re-applies the last branch's values.
//! - Each function and each lambda body is a world of its own: an entry
//!   is stamped with the world that wrote it, and one stamped by another
//!   world reads as not tracked. So nothing is cleared between functions,
//!   a lambda body starts empty without copying anything, and its writes
//!   are rewound when it ends.

use crate::ir::expr::{Arm, Expr, Lambda};
use crate::ir::program::{FunId, Program};
use crate::ir::var::Var;
use std::fmt;

/// Which face of the λ¹ resource calculus to check against.
///
/// The paper has two systems (Fig. 5): the *declarative* one, where
/// contraction (`dup`) and weakening (`drop`) are admissible at any
/// point, and the *syntax-directed* one, where every dup/drop is
/// explicit and ownership is consumed exactly once per path. Programs
/// **before** Perceus insertion are judged against the declarative
/// system; pass output **after** insertion must satisfy the strict one
/// (Theorem 3 is the inclusion between the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// Syntax-directed: exact consumption, balanced joins, no leaks.
    Strict,
    /// Declarative: uses only require the variable to be provably
    /// alive; implicit contraction/weakening is allowed.
    Relaxed,
}

/// A violation of the linear ownership discipline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearError {
    /// Function in which the violation occurred.
    pub fun: Option<FunId>,
    /// Description of the violation.
    pub message: String,
}

impl fmt::Display for LinearError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.fun {
            Some(id) => write!(f, "linearity (fun #{}): {}", id.0, self.message),
            None => write!(f, "linearity: {}", self.message),
        }
    }
}

impl std::error::Error for LinearError {}

/// Checks every function of a program, honoring its borrow masks, under
/// the strict (syntax-directed) discipline.
pub fn check_program(p: &Program) -> Result<(), LinearError> {
    check_program_with(p, Discipline::Strict)
}

/// Checks every function against the declarative system: every use must
/// target a provably-alive variable, but implicit dup/drop is allowed.
/// This is the check that applies to pipeline stages *before* Perceus
/// insertion (and to the erased programs of the GC/arena strategies).
pub fn check_program_relaxed(p: &Program) -> Result<(), LinearError> {
    check_program_with(p, Discipline::Relaxed)
}

/// Checks every function of a program under the chosen discipline.
pub fn check_program_with(p: &Program, discipline: Discipline) -> Result<(), LinearError> {
    let mut cx = Checker::new(&p.borrows, discipline, p.var_gen.peek() as usize);
    for (id, f) in p.funs() {
        let mask = p.borrows.get(id.0 as usize).map_or(&[][..], Vec::as_slice);
        cx.function(&f.params, mask, &f.body)
            .map_err(|message| LinearError {
                fun: Some(id),
                message,
            })?;
    }
    Ok(())
}

/// Checks one function body under the owned calling convention
/// (parameters owned with count 1, all consumed by the end), strictly.
pub fn check_fun_body(params: &[Var], body: &Expr) -> Result<(), String> {
    Checker::new(&[], Discipline::Strict, 0).function(params, &[], body)
}

/// The count of an entry that is not a tracked resource.
const UNTRACKED: i32 = i32::MIN;
/// The parent of an entry no cell keeps alive.
const NO_PARENT: u32 = u32::MAX;

/// What the environment knows about one variable.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Own {
    /// Owned references, or [`UNTRACKED`].
    count: i32,
    /// The scrutinee whose cell keeps this match binder alive, or
    /// [`NO_PARENT`].
    parent: u32,
    /// A borrowed parameter, alive for the whole function body (§6).
    pinned: bool,
}

impl Own {
    /// The count the joins compare: untracked holds nothing.
    fn held(self) -> i32 {
        self.count.max(0)
    }
}

const FREE: Own = Own {
    count: UNTRACKED,
    parent: NO_PARENT,
    pinned: false,
};

/// One table entry: its value and the world and branch that last wrote
/// it.
#[derive(Clone, Copy)]
struct Entry {
    own: Own,
    world: u32,
    epoch: u32,
}

const EMPTY: Entry = Entry {
    own: FREE,
    world: 0,
    epoch: 0,
};

/// The ownership environment of the function being checked, and the
/// branches of the joins in progress (see the module's *Cost*).
struct Checker<'a> {
    /// Borrow masks per function (§6).
    borrows: &'a [Vec<bool>],
    relaxed: bool,
    table: Vec<Entry>,
    /// Each id's binder, for error texts.
    names: Vec<Option<&'a Var>>,
    /// `(id, entry before the current epoch's first write)`.
    log: Vec<(u32, Entry)>,
    /// The current world (function or lambda body), and the log length
    /// when it began.
    world: u32,
    world_mark: usize,
    /// The current branch: an entry stamped with it has its value from
    /// before the branch in the log already.
    epoch: u32,
    /// The last world or epoch handed out.
    serial: u32,
    /// The branches of the joins in progress: per branch a run of
    /// `finals`, the entries it changed with their final values, in
    /// ascending id order.
    finals: Vec<(u32, Own)>,
    runs: Vec<(usize, usize)>,
}

impl<'a> Checker<'a> {
    fn new(borrows: &'a [Vec<bool>], discipline: Discipline, ids: usize) -> Self {
        Checker {
            borrows,
            relaxed: discipline == Discipline::Relaxed,
            table: vec![EMPTY; ids],
            names: vec![None; ids],
            log: Vec::with_capacity(ids),
            world: 0,
            world_mark: 0,
            epoch: 0,
            serial: 0,
            finals: Vec::new(),
            runs: Vec::new(),
        }
    }

    fn fresh(&mut self) -> u32 {
        self.serial += 1;
        self.serial
    }

    fn borrowed_pos(&self, f: FunId, i: usize) -> bool {
        self.borrows
            .get(f.0 as usize)
            .and_then(|m| m.get(i))
            .copied()
            .unwrap_or(false)
    }

    fn get(&self, id: u32) -> Own {
        match self.table.get(id as usize) {
            Some(e) if e.world == self.world => e.own,
            _ => FREE,
        }
    }

    /// Makes room for `id` in the per-id tables.
    fn fit(&mut self, id: u32) {
        let i = id as usize;
        if i >= self.table.len() {
            self.table.resize(i + 1, EMPTY);
            self.names.resize(i + 1, None);
        }
    }

    fn set(&mut self, id: u32, own: Own) {
        self.fit(id);
        let e = &mut self.table[id as usize];
        if e.epoch != self.epoch {
            self.log.push((id, *e));
            e.epoch = self.epoch;
        }
        e.world = self.world;
        e.own = own;
    }

    /// Restores every entry written since the log had length `mark`.
    fn rewind(&mut self, mark: usize) {
        for (id, e) in self.log.drain(mark..).rev() {
            self.table[id as usize] = e;
        }
    }

    fn name(&mut self, v: &'a Var) {
        self.fit(v.id());
        self.names[v.id() as usize] = Some(v);
    }

    fn tracked(&self, v: &Var) -> bool {
        self.get(v.id()).count != UNTRACKED
    }

    fn alive(&self, v: &Var) -> bool {
        let mut id = v.id();
        // Parent chains follow match nesting; the bound only stops a
        // cycle in malformed input.
        for _ in 0..=self.table.len() {
            let o = self.get(id);
            if o.pinned || o.count > 0 {
                return true;
            }
            if o.parent == NO_PARENT {
                return false;
            }
            id = o.parent;
        }
        false
    }

    /// Sets `v`'s count, tracking it from now on.
    fn bind(&mut self, v: &'a Var, count: i32) {
        self.name(v);
        let o = self.get(v.id());
        self.set(v.id(), Own { count, ..o });
    }

    fn grant(&mut self, v: &'a Var) {
        let o = self.get(v.id());
        if o.count == UNTRACKED {
            self.bind(v, 1);
        } else {
            self.set(
                v.id(),
                Own {
                    count: o.count + 1,
                    ..o
                },
            );
        }
    }

    /// Consumes one ownership of `v` (strict), or merely checks that `v`
    /// is alive (relaxed: contraction is implicit there).
    fn consume(&mut self, v: &Var, what: &str) -> Result<(), String> {
        if self.relaxed {
            return if self.alive(v) || self.tracked(v) {
                Ok(())
            } else {
                Err(format!("{what} of {v:?} which is not in scope"))
            };
        }
        let o = self.get(v.id());
        match o.count {
            UNTRACKED => Err(format!("{what} of {v:?} which is not a tracked resource")),
            c if c < 1 => Err(format!("{what} of {v:?} without ownership (count {c})")),
            c => {
                self.set(v.id(), Own { count: c - 1, ..o });
                Ok(())
            }
        }
    }

    /// Ends a binding that leaves scope; under the strict discipline a
    /// leftover count is a leak, under the relaxed one weakening is
    /// implicit.
    fn unbind(&mut self, v: &Var, what: &str) -> Result<(), String> {
        let o = self.get(v.id());
        match o.count {
            _ if self.relaxed => {}
            0 => {}
            UNTRACKED => return Err(format!("{what} {v:?} was never bound")),
            n => return Err(format!("{what} {v:?} leaves scope with count {n}")),
        }
        self.set(
            v.id(),
            Own {
                count: UNTRACKED,
                ..o
            },
        );
        Ok(())
    }

    /// Does the current world hold anything, from the log's `mark` on?
    fn holds(&self, mark: usize) -> bool {
        self.log[mark..]
            .iter()
            .any(|&(id, _)| self.get(id).count > 0)
    }

    /// The current world's owned variables with their counts, by id —
    /// with `over`'s values (ascending ids) in place of the table's.
    fn footprint(&self, over: &[(u32, Own)]) -> Vec<(Var, isize)> {
        let mut ids: Vec<u32> = self.log[self.world_mark..]
            .iter()
            .map(|&(id, _)| id)
            .chain(over.iter().map(|&(id, _)| id))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .filter_map(|id| {
                let own = match over.binary_search_by_key(&id, |&(id, _)| id) {
                    Ok(i) => over[i].1,
                    Err(_) => self.get(id),
                };
                (own.count > 0).then(|| {
                    let var = self.names[id as usize]
                        .cloned()
                        .unwrap_or_else(|| Var::new(id, ""));
                    (var, own.count as isize)
                })
            })
            .collect()
    }

    /// One function: parameters owned with count 1, or pinned alive when
    /// borrowed, and all consumed by the end.
    fn function(&mut self, params: &'a [Var], mask: &[bool], body: &'a Expr) -> Result<(), String> {
        self.log.clear();
        self.world = self.fresh();
        self.epoch = self.world;
        self.world_mark = 0;
        for (i, par) in params.iter().enumerate() {
            if mask.get(i).copied().unwrap_or(false) {
                // Borrowed: alive for the whole body, never consumed here.
                self.bind(par, 0);
                let o = self.get(par.id());
                self.set(par.id(), Own { pinned: true, ..o });
            } else {
                self.bind(par, 1);
            }
        }
        if self.check(body)? && !self.relaxed && self.holds(0) {
            return Err(format!(
                "resources leaked at function exit: {:?}",
                self.footprint(&[])
            ));
        }
        Ok(())
    }

    /// Checks `e`; returns false if the path diverges (aborts), in which
    /// case the environment is left as it stood at the abort.
    fn check(&mut self, e: &'a Expr) -> Result<bool, String> {
        match e {
            Expr::Var(x) => {
                self.consume(x, "use")?;
                Ok(true)
            }
            Expr::Lit(_) | Expr::Global(_) | Expr::NullToken => Ok(true),
            Expr::Abort(_) => Ok(false),
            Expr::TokenOf(x) => {
                self.consume(x, "&")?;
                Ok(true)
            }
            Expr::App(f, args) => Ok(self.check(f)? && self.all(args)?),
            Expr::Call(f, args) => {
                for (i, a) in args.iter().enumerate() {
                    // A variable in a borrowed position is used without
                    // being consumed; it only has to be alive (§6).
                    if self.borrowed_pos(*f, i) {
                        if let Expr::Var(v) = a {
                            if !self.alive(v) {
                                return Err(format!("borrowed argument {v:?} is dead at the call"));
                            }
                            continue;
                        }
                    }
                    if !self.check(a)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Expr::Prim(_, args) => self.all(args),
            Expr::Con { args, reuse, .. } => {
                if let Some(t) = reuse {
                    self.consume(t, "reuse")?;
                }
                self.all(args)
            }
            Expr::Lam(lam) => self.lambda(lam),
            Expr::Let { var, rhs, body } => {
                if !self.check(rhs)? {
                    return Ok(false);
                }
                self.bind(var, 1);
                if !self.check(body)? {
                    return Ok(false);
                }
                self.unbind(var, "let binding")?;
                Ok(true)
            }
            Expr::Seq(a, b) => Ok(self.check(a)? && self.check(b)?),
            Expr::Match {
                scrutinee,
                arms,
                default,
            } => {
                if !self.alive(scrutinee) {
                    return Err(format!("match on dead scrutinee {scrutinee:?}"));
                }
                let join = (self.finals.len(), self.runs.len());
                for arm in arms {
                    self.branch(|cx| cx.arm(scrutinee, arm))?;
                }
                if let Some(d) = default {
                    self.branch(|cx| cx.check(d))?;
                }
                self.join(join, "match")
            }
            Expr::IsUnique {
                var,
                binders,
                unique,
                shared,
            } => {
                if self.relaxed {
                    if !self.alive(var) && !self.tracked(var) {
                        return Err(format!("is-unique on out-of-scope {var:?}"));
                    }
                } else if self.get(var.id()).count < 1 {
                    return Err(format!("is-unique on unowned {var:?}"));
                }
                let join = (self.finals.len(), self.runs.len());
                self.branch(|cx| {
                    // Entering the unique branch transfers the cell's
                    // field references to the binders.
                    for b in binders {
                        cx.grant(b);
                    }
                    cx.check(unique)
                })?;
                self.branch(|cx| cx.check(shared))?;
                self.join(join, "is-unique")
            }
            Expr::Dup(x, rest) => {
                if !self.alive(x) {
                    return Err(format!("dup of dead variable {x:?}"));
                }
                self.grant(x);
                self.check(rest)
            }
            Expr::Drop(x, rest) | Expr::DecRef(x, rest) | Expr::Free(x, rest) => {
                let what = match e {
                    Expr::Drop(..) => "drop",
                    Expr::DecRef(..) => "decref",
                    _ => "free",
                };
                self.consume(x, what)?;
                self.check(rest)
            }
            Expr::DropToken(t, rest) => {
                self.consume(t, "drop-token")?;
                self.check(rest)
            }
            Expr::DropReuse { var, token, body } => {
                self.consume(var, "drop-reuse")?;
                self.bind(token, 1);
                if !self.check(body)? {
                    return Ok(false);
                }
                self.unbind(token, "reuse token")?;
                Ok(true)
            }
        }
    }

    /// Checks `es` left to right; false once one diverges.
    fn all(&mut self, es: &'a [Expr]) -> Result<bool, String> {
        for e in es {
            if !self.check(e)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The closure consumes its captures, and its body is a world of its
    /// own: captures and parameters owned, everything consumed by the end.
    fn lambda(&mut self, lam: &'a Lambda) -> Result<bool, String> {
        for c in &lam.captures {
            self.consume(c, "capture")?;
        }
        let outer = (self.world, self.epoch, self.world_mark);
        let mark = self.log.len();
        self.world = self.fresh();
        self.epoch = self.world;
        self.world_mark = mark;
        for v in lam.captures.iter().chain(&lam.params) {
            self.bind(v, 1);
        }
        let leak = (self.check(&lam.body)? && !self.relaxed && self.holds(mark))
            .then(|| self.footprint(&[]));
        self.rewind(mark);
        (self.world, self.epoch, self.world_mark) = outer;
        match leak {
            Some(fp) => Err(format!("lambda leaks resources: {fp:?}")),
            None => Ok(true),
        }
    }

    /// One arm of a match on `s`: its binders are borrowed from the
    /// scrutinee cell, alive while the cell is.
    fn arm(&mut self, s: &Var, arm: &'a Arm) -> Result<bool, String> {
        for b in arm.binders.iter().flatten() {
            self.bind(b, 0);
            let o = self.get(b.id());
            self.set(
                b.id(),
                Own {
                    parent: s.id(),
                    ..o
                },
            );
        }
        if let Some(t) = &arm.reuse_token {
            if !self.relaxed {
                return Err(format!(
                    "unlowered reuse annotation @{t:?} (insertion should have consumed it)"
                ));
            }
            // Pre-insertion: reuse analysis has attached the token; the
            // arm body may pass it to a constructor.
            self.bind(t, 1);
        }
        if !self.check(&arm.body)? {
            return Ok(false);
        }
        for b in arm.binders.iter().flatten() {
            self.unbind(b, "match binder")?;
            let o = self.get(b.id());
            self.set(
                b.id(),
                Own {
                    parent: NO_PARENT,
                    ..o
                },
            );
        }
        if let Some(t) = &arm.reuse_token {
            self.unbind(t, "reuse annotation")?;
        }
        Ok(true)
    }

    /// Runs one branch of a join from the current environment, records
    /// the entries it changed with their final values (unless it
    /// diverged), and restores the environment.
    fn branch(
        &mut self,
        run: impl FnOnce(&mut Self) -> Result<bool, String>,
    ) -> Result<(), String> {
        let (mark, outer) = (self.log.len(), self.epoch);
        self.epoch = self.fresh();
        let reached = run(self)?;
        self.end_branch(mark, outer, reached);
        Ok(())
    }

    /// The part of [`Checker::branch`] that does not depend on what the
    /// branch runs, kept in one copy.
    #[inline(never)]
    fn end_branch(&mut self, mark: usize, outer: u32, reached: bool) {
        if reached {
            let lo = self.finals.len();
            for i in mark..self.log.len() {
                let (id, before) = self.log[i];
                let before = if before.world == self.world {
                    before.own
                } else {
                    FREE
                };
                let now = self.get(id);
                if now != before {
                    self.finals.push((id, now));
                }
            }
            self.finals[lo..].sort_unstable_by_key(|&(id, _)| id);
            self.runs.push((lo, self.finals.len()));
        }
        self.rewind(mark);
        self.epoch = outer;
    }

    /// Joins the branches recorded since the given lengths of `finals`
    /// and `runs`: all surviving paths must agree on what they hold
    /// (strict only; the declarative system weakens each branch
    /// independently), and the environment becomes the last one's.
    /// False when every branch diverges.
    fn join(&mut self, (finals, runs): (usize, usize), what: &str) -> Result<bool, String> {
        let Some(&(lo, hi)) = self.runs[runs..].last() else {
            return Ok(false); // all paths diverge
        };
        if !self.relaxed {
            let last = &self.finals[lo..hi];
            for &(a, b) in &self.runs[runs..self.runs.len() - 1] {
                let other = &self.finals[a..b];
                if !self.agree(other, last) {
                    return Err(format!(
                        "{what} branches disagree on ownership: {:?} vs {:?}",
                        self.footprint(last),
                        self.footprint(other)
                    ));
                }
            }
        }
        for i in lo..hi {
            let (id, own) = self.finals[i];
            self.set(id, own);
        }
        self.finals.truncate(finals);
        self.runs.truncate(runs);
        Ok(true)
    }

    /// Do two branches, given as the entries each changed (ascending ids),
    /// end holding the same counts? An entry one branch left alone holds
    /// what it held before the branches.
    fn agree(&self, a: &[(u32, Own)], b: &[(u32, Own)]) -> bool {
        let (mut i, mut j) = (0, 0);
        loop {
            let (x, y) = match (a.get(i), b.get(j)) {
                (None, None) => return true,
                (Some(&(p, x)), Some(&(q, y))) if p == q => {
                    i += 1;
                    j += 1;
                    (x, y)
                }
                (Some(&(p, x)), Some(&(q, _))) if p < q => {
                    i += 1;
                    (x, self.get(p))
                }
                (Some(&(p, x)), None) => {
                    i += 1;
                    (x, self.get(p))
                }
                (_, Some(&(q, y))) => {
                    j += 1;
                    (self.get(q), y)
                }
            };
            if x.held() != y.held() {
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::var::Var;

    fn v(id: u32, hint: &str) -> Var {
        Var::new(id, hint)
    }

    #[test]
    fn accepts_single_use() {
        let x = v(0, "x");
        assert!(check_fun_body(std::slice::from_ref(&x), &Expr::Var(x.clone())).is_ok());
    }

    #[test]
    fn rejects_double_use() {
        use crate::ir::expr::PrimOp;
        let x = v(0, "x");
        let e = Expr::Prim(
            PrimOp::Add,
            vec![Expr::Var(x.clone()), Expr::Var(x.clone())],
        );
        let err = check_fun_body(&[x], &e).unwrap_err();
        assert!(err.contains("without ownership"), "{err}");
    }

    #[test]
    fn accepts_dup_then_double_use() {
        use crate::ir::expr::PrimOp;
        let x = v(0, "x");
        let e = Expr::dup(
            x.clone(),
            Expr::Prim(
                PrimOp::Add,
                vec![Expr::Var(x.clone()), Expr::Var(x.clone())],
            ),
        );
        assert!(check_fun_body(&[x], &e).is_ok());
    }

    #[test]
    fn rejects_leak() {
        let x = v(0, "x");
        let e = Expr::int(1); // x never consumed
        let err = check_fun_body(&[x], &e).unwrap_err();
        assert!(err.contains("leaked"), "{err}");
    }

    #[test]
    fn rejects_unbalanced_branches() {
        use crate::ir::builder::ite;
        let c = v(0, "c");
        let x = v(1, "x");
        // if c then x else 0 — x consumed on one path only.
        let e = ite(c.clone(), Expr::Var(x.clone()), Expr::int(0));
        let err = check_fun_body(&[c, x], &e).unwrap_err();
        assert!(err.contains("disagree"), "{err}");
    }

    #[test]
    fn unique_branch_grants_binders() {
        // The fused fast path (Fig. 1d): free consumes the cell, binders
        // become owned and are consumed by the continuation.
        use crate::ir::builder::{arm, con, ProgramBuilder};
        let mut pb = ProgramBuilder::new();
        let (_, ctors) = pb.data("list", &[("Nil", 0), ("Cons", 2)]);
        let cons = ctors[1];
        let xs = pb.fresh("xs");
        let x = pb.fresh("x");
        let xx = pb.fresh("xx");
        let cond = Expr::IsUnique {
            var: xs.clone(),
            binders: vec![x.clone(), xx.clone()],
            unique: Box::new(Expr::Free(xs.clone(), Box::new(Expr::unit()))),
            shared: Box::new(Expr::dup(
                x.clone(),
                Expr::dup(xx.clone(), Expr::DecRef(xs.clone(), Box::new(Expr::unit()))),
            )),
        };
        let body = Expr::Match {
            scrutinee: xs.clone(),
            arms: vec![arm(
                cons,
                vec![x.clone(), xx.clone()],
                Expr::seq(
                    cond,
                    con(cons, vec![Expr::Var(x.clone()), Expr::Var(xx.clone())]),
                ),
            )],
            default: Some(Box::new(Expr::drop_(xs.clone(), Expr::unit()))),
        };
        pb.fun("f", vec![xs], body);
        let p = pb.finish();
        check_program(&p).unwrap();
    }

    #[test]
    fn rejects_dup_of_dead_binder() {
        use crate::ir::builder::arm;
        let mut pb = crate::ir::builder::ProgramBuilder::new();
        let (_, ctors) = pb.data("list", &[("Nil", 0), ("Cons", 2)]);
        let cons = ctors[1];
        let xs = pb.fresh("xs");
        let x = pb.fresh("x");
        let xx = pb.fresh("xx");
        // drop xs (frees the cell), *then* dup x — invalid order.
        let body = Expr::Match {
            scrutinee: xs.clone(),
            arms: vec![arm(
                cons,
                vec![x.clone(), xx.clone()],
                Expr::drop_(xs.clone(), Expr::dup(x.clone(), Expr::Var(x.clone()))),
            )],
            default: Some(Box::new(Expr::drop_(xs.clone(), Expr::unit()))),
        };
        pb.fun("f", vec![xs], body);
        let p = pb.finish();
        let err = check_program(&p).unwrap_err();
        assert!(err.message.contains("dup of dead"), "{err}");
    }

    #[test]
    fn relaxed_allows_contraction_and_weakening() {
        use crate::ir::expr::PrimOp;
        let mut p = crate::ir::program::Program::new();
        let x = v(0, "x");
        let y = v(1, "y");
        // x used twice (contraction), y never used (weakening): rejected
        // strictly, accepted declaratively.
        p.add_fun(crate::ir::program::FunDef {
            name: "f".into(),
            params: vec![x.clone(), y],
            body: Expr::Prim(
                PrimOp::Add,
                vec![Expr::Var(x.clone()), Expr::Var(x.clone())],
            ),
        });
        assert!(check_program(&p).is_err());
        check_program_relaxed(&p).unwrap();
    }

    #[test]
    fn relaxed_still_rejects_out_of_scope_use() {
        let mut p = crate::ir::program::Program::new();
        p.add_fun(crate::ir::program::FunDef {
            name: "f".into(),
            params: vec![],
            body: Expr::Var(v(9, "ghost")),
        });
        let err = check_program_relaxed(&p).unwrap_err();
        assert!(err.message.contains("not in scope"), "{err}");
    }

    #[test]
    fn relaxed_accepts_reuse_annotations() {
        // Post-reuse-analysis, pre-insertion shape: a match arm carries a
        // reuse token that a constructor in the body consumes.
        use crate::ir::builder::ProgramBuilder;
        use crate::ir::expr::Arm;
        let mut pb = ProgramBuilder::new();
        let (_, ctors) = pb.data("list", &[("Nil", 0), ("Cons", 2)]);
        let (nil, cons) = (ctors[0], ctors[1]);
        let xs = pb.fresh("xs");
        let h = pb.fresh("h");
        let t = pb.fresh("t");
        let ru = pb.fresh("ru");
        let body = Expr::Match {
            scrutinee: xs.clone(),
            arms: vec![
                Arm {
                    ctor: cons,
                    binders: vec![Some(h.clone()), Some(t.clone())],
                    reuse_token: Some(ru.clone()),
                    body: Expr::Con {
                        ctor: cons,
                        args: vec![Expr::Var(h), Expr::Var(t)],
                        reuse: Some(ru),
                        skip: vec![],
                    },
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
        pb.fun("f", vec![xs], body);
        let p = pb.finish();
        assert!(check_program(&p).is_err(), "strict rejects annotations");
        check_program_relaxed(&p).unwrap();
    }

    #[test]
    fn closure_consumes_captures() {
        use crate::ir::expr::Lambda;
        let x = v(0, "x");
        let y = v(1, "y");
        let lam = Expr::Lam(Lambda {
            params: vec![y.clone()],
            captures: vec![x.clone()],
            body: Box::new(Expr::drop_(y.clone(), Expr::Var(x.clone()))),
        });
        // x consumed by the capture; nothing leaks.
        assert!(check_fun_body(&[x], &lam).is_ok());
    }

    /// `fun f(xs)` over a `Cons`/`Nil` list type: the builder, the
    /// `Cons` constructor and `xs`.
    fn list_fun() -> (
        crate::ir::builder::ProgramBuilder,
        crate::ir::program::CtorId,
        Var,
    ) {
        let mut pb = crate::ir::builder::ProgramBuilder::new();
        let (_, ctors) = pb.data("list", &[("Nil", 0), ("Cons", 2)]);
        let xs = pb.fresh("xs");
        (pb, ctors[1], xs)
    }

    #[test]
    fn join_where_only_one_arm_touches_an_id() {
        use crate::ir::builder::ite;
        let (c, x, y) = (v(0, "c"), v(1, "x"), v(2, "y"));
        let drop_c = |e| Expr::drop_(c.clone(), e);
        // The first arm dups and drops y, ending where it began; the
        // second never touches y.
        let e = ite(
            c.clone(),
            drop_c(Expr::dup(
                y.clone(),
                Expr::drop_(y.clone(), Expr::drop_(y.clone(), Expr::Var(x.clone()))),
            )),
            drop_c(Expr::drop_(y.clone(), Expr::Var(x.clone()))),
        );
        check_fun_body(&[c.clone(), x.clone(), y.clone()], &e).unwrap();
        // Only the first arm releases y: the second still holds it.
        let e = ite(
            c.clone(),
            drop_c(Expr::drop_(y.clone(), Expr::Var(x.clone()))),
            drop_c(Expr::Var(x.clone())),
        );
        let err = check_fun_body(&[c, x, y], &e).unwrap_err();
        assert!(err.contains("match branches disagree"), "{err}");
        assert!(err.contains("[(y#2, 1)] vs []"), "{err}");
    }

    #[test]
    fn join_where_both_arms_touch_an_id_and_end_equal() {
        use crate::ir::builder::ite;
        let (c, x, y) = (v(0, "c"), v(1, "x"), v(2, "y"));
        // Both arms consume c, x and y, in different orders and with a
        // different number of steps.
        let e = ite(
            c.clone(),
            Expr::drop_(c.clone(), Expr::drop_(y.clone(), Expr::Var(x.clone()))),
            Expr::dup(
                x.clone(),
                Expr::drop_(
                    x.clone(),
                    Expr::drop_(c.clone(), Expr::drop_(y.clone(), Expr::Var(x.clone()))),
                ),
            ),
        );
        check_fun_body(&[c, x, y], &e).unwrap();
    }

    /// `match xs { Cons(x, xx) -> (is-unique(xs) …); drop x; drop xx; 0 }`
    /// whose unique branch matches on `xx` and then on `yy`, nested, with
    /// `deep` in the innermost arm and `()` everywhere else.
    fn unique_branch_with_nested_matches(deep: fn(&Var) -> Expr) -> Result<(), LinearError> {
        use crate::ir::builder::arm;
        let (mut pb, cons, xs) = list_fun();
        let [x, xx, y, yy, z, zz] = ["x", "xx", "y", "yy", "z", "zz"].map(|h| pb.fresh(h));
        let inner = Expr::Match {
            scrutinee: yy.clone(),
            arms: vec![arm(cons, vec![z, zz], deep(&x))],
            default: Some(Box::new(Expr::unit())),
        };
        let outer = Expr::Match {
            scrutinee: xx.clone(),
            arms: vec![arm(cons, vec![y, yy], inner)],
            default: Some(Box::new(Expr::unit())),
        };
        let test = Expr::IsUnique {
            var: xs.clone(),
            binders: vec![x.clone(), xx.clone()],
            unique: Box::new(Expr::Free(xs.clone(), Box::new(outer))),
            shared: Box::new(Expr::dup(
                x.clone(),
                Expr::dup(xx.clone(), Expr::DecRef(xs.clone(), Box::new(Expr::unit()))),
            )),
        };
        let body = Expr::Match {
            scrutinee: xs.clone(),
            arms: vec![arm(
                cons,
                vec![x.clone(), xx.clone()],
                Expr::seq(test, Expr::drop_(x, Expr::drop_(xx, Expr::int(0)))),
            )],
            default: Some(Box::new(Expr::drop_(xs.clone(), Expr::int(1)))),
        };
        pb.fun("f", vec![xs], body);
        check_program(&pb.finish())
    }

    #[test]
    fn nested_matches_inside_an_is_unique_branch() {
        // The binders of the nested matches stay alive through xx, which
        // the unique branch owns once xs is freed.
        unique_branch_with_nested_matches(|_| Expr::unit()).unwrap();
        // One innermost arm keeps an extra x: the innermost join fails.
        let err =
            unique_branch_with_nested_matches(|x| Expr::dup(x.clone(), Expr::unit())).unwrap_err();
        assert!(err.message.contains("match branches disagree"), "{err}");
    }

    #[test]
    fn a_lambda_in_an_arm_does_not_see_the_arms_binders() {
        use crate::ir::builder::arm;
        let lambda = |h: &Var, captures: Vec<Var>| {
            Expr::Lam(Lambda {
                params: vec![],
                captures,
                body: Box::new(Expr::Var(h.clone())),
            })
        };
        let check = |capture: bool| {
            let (mut pb, cons, xs) = list_fun();
            let (h, t) = (pb.fresh("h"), pb.fresh("t"));
            let body = if capture {
                Expr::dup(
                    h.clone(),
                    Expr::drop_(xs.clone(), lambda(&h, vec![h.clone()])),
                )
            } else {
                Expr::drop_(xs.clone(), lambda(&h, vec![]))
            };
            let e = Expr::Match {
                scrutinee: xs.clone(),
                arms: vec![arm(cons, vec![h, t], body)],
                default: Some(Box::new(Expr::drop_(xs.clone(), Expr::unit()))),
            };
            pb.fun("f", vec![xs], e);
            check_program(&pb.finish())
        };
        // Captured, h is the closure's own: accepted.
        check(true).unwrap();
        // Not captured, h is out of the lambda's world even though the
        // arm still has it alive through xs.
        let err = check(false).unwrap_err();
        assert!(err.message.contains("use of h#"), "{err}");
        assert!(err.message.contains("not a tracked resource"), "{err}");
    }

    #[test]
    fn relaxed_accepts_branches_the_strict_discipline_rejects() {
        use crate::ir::builder::ite;
        let mut p = crate::ir::program::Program::new();
        let (c, x) = (v(0, "c"), v(1, "x"));
        // x consumed on one path only, c never: implicit weakening.
        p.add_fun(crate::ir::program::FunDef {
            name: "f".into(),
            params: vec![c.clone(), x.clone()],
            body: ite(c, Expr::Var(x), Expr::int(0)),
        });
        let err = check_program(&p).unwrap_err();
        assert!(err.message.contains("disagree"), "{err}");
        check_program_relaxed(&p).unwrap();
    }
}
