//! Potential-based amortized cost analysis: linear symbolic bounds for
//! the RC counters (ROADMAP item 5, "Automatic Linear Resource Bound
//! Analysis" applied to λ¹).
//!
//! Where [`super::cost`] widens every recursive bound to ω, this module
//! infers per-function **affine bounds** over the [`Atom`]s of
//! [`super::linear`] — e.g. `alloc ≤ |xs.Cons|` for `map`, or
//! `alloc ≤ max(n − i, 0)` for a counting loop — and packages them as
//! [`FunCert`] certificates (see [`super::certificate`]).
//!
//! # How it works
//!
//! The engine is a *path-sensitive symbolic evaluator* plus a
//! *guess-and-check* inferencer:
//!
//! 1. A path evaluator enumerates the control-flow paths of a function
//!    body, tracking for each path (a) the accumulated cost in every
//!    counter as a [`SymBound`], (b) the [`Facts`] the path learned from
//!    comparison guards and match arms, and (c) an abstract value
//!    for the result. Calls are *not* unfolded: a call site
//!    charges the callee's certificate, instantiated by substituting the
//!    caller's abstract arguments into the callee's atoms. For a
//!    recursive function the certificate under test itself supplies the
//!    inductive hypothesis, so checking a certificate is checking a
//!    verification condition per path — induction over the call tree of
//!    terminating runs.
//! 2. Inference processes functions in reverse-topological SCC order.
//!    Non-recursive functions get the pointwise-max join of their path
//!    costs (always checker-valid). Self-recursive functions get a small
//!    candidate space — `base + d·measure` where measures come from the
//!    atoms the recursive paths destructure and from the positive parts
//!    of their guard facts — filtered through the checker, then
//!    *coordinate-minimized*: every coefficient is decremented while the
//!    certificate still checks, so any further downward perturbation is
//!    rejected by construction. Mutual recursion stays at ω.
//!
//! # Cost models
//!
//! Every certificate carries two bound vectors:
//!
//! * [`CostMode::Worst`] — unconditional worst case, mirroring
//!   [`super::cost`]'s per-instruction charges (a `Con@ru` may both
//!   allocate and reuse depending on the token; `is-unique` explores
//!   both branches). Sound against the runtime `Stats` on every run.
//! * [`CostMode::Fbip`] — the §2.4/Thm. 2 regime: every uniqueness test
//!   hits, every reuse token is valid. `Con@ru` never allocates fresh
//!   and `is-unique` takes only the unique branch. These bounds are
//!   *conditional*: the replay validator asserts them only for frames
//!   whose `unique_tests == unique_hits`.
//!
//! Abort-terminated paths are excluded from all claims: certificates
//! cover normally-completing runs (which is also exactly what the replay
//! validator measures).

use super::super::ir::callgraph::{call_graph, sccs};
use super::super::ir::expr::{Arm, Expr, Lambda, Lit, PrimOp};
use super::super::ir::program::{CtorId, FunId, Program, TypeTable};
use super::certificate::{CertSet, FunCert};
use super::linear::{Atom, Facts, LinExpr, RawExpr, SymBound};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// Number of tracked cost counters (same set as [`super::cost`]).
pub const NCOUNTERS: usize = 8;

/// Counter names, index-aligned with the bound vectors in a
/// [`FunCert`] and with [`super::cost::COST_FIELDS`].
pub const COUNTERS: [&str; NCOUNTERS] = [
    "dup",
    "drop",
    "decref",
    "is_unique",
    "free",
    "drop_token",
    "alloc",
    "reuse_alloc",
];

pub(crate) const C_DUP: usize = 0;
pub(crate) const C_DROP: usize = 1;
pub(crate) const C_DECREF: usize = 2;
pub(crate) const C_IS_UNIQUE: usize = 3;
pub(crate) const C_FREE: usize = 4;
pub(crate) const C_DROP_TOKEN: usize = 5;
pub(crate) const C_ALLOC: usize = 6;
pub(crate) const C_REUSE: usize = 7;

/// Which cost model a bound vector describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostMode {
    /// Unconditional worst case (sound on every run).
    Worst,
    /// First-class FBIP regime: all uniqueness tests hit, all reuse
    /// tokens valid. Conditional — see the module docs.
    Fbip,
}

/// Per-constructor cell-count bounds of an abstract value. Keys are
/// every arity ≥ 1 constructor of the program; [`SymBound::Omega`]
/// means unknown.
pub(crate) type Counts = BTreeMap<CtorId, SymBound>;

/// A known lambda value: the abstraction plus a snapshot of its
/// captured environment.
#[derive(Clone)]
pub(crate) struct LamVal {
    lam: Rc<Lambda>,
    captures: Vec<(u32, AbsVal)>,
}

/// Comparison provenance of a boolean value: raw facts that hold on the
/// true / false branches of a match on it.
#[derive(Clone, Default)]
pub(crate) struct GuardFacts {
    if_true: Vec<RawExpr>,
    if_false: Vec<RawExpr>,
}

/// The abstract value of the symbolic evaluator — a product of
/// independent views, each optional.
#[derive(Clone, Default)]
pub(crate) struct AbsVal {
    /// Exact affine raw integer value over the parameters.
    raw: Option<RawExpr>,
    /// Upper bounds on reachable constructor cells; `None` = unknown.
    counts: Option<Counts>,
    /// Known closure.
    lam: Option<LamVal>,
    /// Known top-level function used as a value.
    global: Option<FunId>,
    /// This value *is* parameter `i` (used to meter closure-parameter
    /// applications).
    param: Option<u32>,
    /// Comparison provenance (for guard facts at `match`).
    guard: Option<GuardFacts>,
    /// Known constructor arity (mirrors `cost.rs`'s arity tracking for
    /// `drop-reuse`).
    arity: Option<u64>,
    /// Reuse-token validity: `Some(true)` = definitely a claimed cell,
    /// `Some(false)` = definitely the null token, `None` = unknown.
    token_valid: Option<Option<bool>>,
}

impl AbsVal {
    fn unknown() -> AbsVal {
        AbsVal::default()
    }

    fn int(raw: RawExpr, zero: &Counts) -> AbsVal {
        AbsVal {
            raw: Some(raw),
            counts: Some(zero.clone()),
            ..AbsVal::default()
        }
    }
}

/// One fully-evaluated path through a function body.
pub(crate) struct PathOut {
    /// What the path knows (guards + match arms).
    pub(crate) facts: Facts,
    /// Accumulated cost per counter.
    pub(crate) cost: [SymBound; NCOUNTERS],
    /// Applications of each closure parameter.
    pub(crate) apps: Vec<SymBound>,
    /// Constructor-cell counts of the result value (`None` = unknown).
    pub(crate) ret: Option<Counts>,
    /// Number of self-calls on the path (measure collection).
    pub(crate) self_calls: u32,
}

/// Shared evaluation context.
struct Cx<'a> {
    p: &'a Program,
    certs: &'a CertSet,
    mode: CostMode,
    fun: FunId,
    nparams: usize,
    max_arity: u64,
    counted: Vec<CtorId>,
    path_cap: usize,
}

/// Mutable per-path evaluation state.
#[derive(Clone)]
struct State {
    env: HashMap<u32, AbsVal>,
    facts: Facts,
    cost: [SymBound; NCOUNTERS],
    apps: Vec<SymBound>,
    self_calls: u32,
    aborted: bool,
    /// Set when the path count overflowed and this state stands for
    /// "everything else" with ω costs.
    exploded: bool,
}

const PATH_CAP: usize = 512;
const MINIMIZE_CAP: usize = 256;

fn zero_cost() -> [SymBound; NCOUNTERS] {
    std::array::from_fn(|_| SymBound::zero())
}

impl State {
    fn charge(&mut self, slot: usize, amount: i64) {
        self.cost[slot] = self.cost[slot].add_k(amount);
    }

    fn charge_bound(&mut self, slot: usize, b: &SymBound) {
        self.cost[slot] = self.cost[slot].add(b);
    }

    fn explode(&mut self) {
        for c in &mut self.cost {
            *c = SymBound::Omega;
        }
        for a in &mut self.apps {
            *a = SymBound::Omega;
        }
        self.exploded = true;
    }
}

impl<'a> Cx<'a> {
    fn new(p: &'a Program, certs: &'a CertSet, fun: FunId, mode: CostMode) -> Cx<'a> {
        let counted: Vec<CtorId> = p
            .types
            .ctors()
            .filter(|(_, info)| info.arity >= 1)
            .map(|(id, _)| id)
            .collect();
        let max_arity = p
            .types
            .ctors()
            .map(|(_, info)| info.arity as u64)
            .max()
            .unwrap_or(0);
        Cx {
            p,
            certs,
            mode,
            fun,
            nparams: p.funs[fun.0 as usize].params.len(),
            max_arity,
            counted,
            path_cap: PATH_CAP,
        }
    }

    fn zero_counts(&self) -> Counts {
        self.counted
            .iter()
            .map(|&c| (c, SymBound::zero()))
            .collect()
    }

    fn param_val(&self, i: u32) -> AbsVal {
        let counts = self
            .counted
            .iter()
            .map(|&c| {
                (
                    c,
                    SymBound::Finite(LinExpr::atom(Atom::Count { param: i, ctor: c })),
                )
            })
            .collect();
        AbsVal {
            raw: Some(RawExpr::var(i)),
            counts: Some(counts),
            param: Some(i),
            ..AbsVal::default()
        }
    }
}

/// Instantiates a callee bound into the caller's space by substituting
/// the caller's abstract arguments for the callee's atoms. Negative
/// atom coefficients are dropped — the arguments only provide *upper*
/// bounds, so subtracting them is unsound, while dropping a negative
/// term only loosens the bound.
fn instantiate(b: &SymBound, args: &[AbsVal]) -> SymBound {
    let SymBound::Finite(e) = b else {
        return SymBound::Omega;
    };
    let mut out = SymBound::konst(e.k);
    for (atom, &c) in &e.terms {
        if c < 0 {
            continue;
        }
        let contrib = match atom {
            Atom::Count { param, ctor } => match args.get(*param as usize) {
                Some(a) => match &a.counts {
                    Some(cv) => cv.get(ctor).cloned().unwrap_or_else(SymBound::zero),
                    None => SymBound::Omega,
                },
                None => SymBound::Omega,
            },
            Atom::Pos(r) => {
                let subst = r.subst(|p| args.get(p as usize).and_then(|a| a.raw.clone()));
                match subst {
                    Some(r2) => match r2.as_const() {
                        Some(k) => SymBound::konst(k.max(0)),
                        None => SymBound::Finite(LinExpr::atom(Atom::Pos(r2))),
                    },
                    None => SymBound::Omega,
                }
            }
        };
        out = out.add(&contrib.scale(c));
    }
    out
}

/// Per-slot product `a · b`, finite only when one side is a constant.
fn mul_bounds(a: &SymBound, b: &SymBound) -> SymBound {
    if let Some(k) = a.as_const() {
        return b.scale(k.max(0));
    }
    if let Some(k) = b.as_const() {
        return a.scale(k.max(0));
    }
    SymBound::Omega
}

/// Evaluates every control-flow path of `fun`'s body under the given
/// certificate set (used for callee and self-call charges) and cost
/// mode. Aborting paths are dropped.
pub(crate) fn eval_fun_paths(
    p: &Program,
    certs: &CertSet,
    fun: FunId,
    mode: CostMode,
) -> Vec<PathOut> {
    let cx = Cx::new(p, certs, fun, mode);
    let f = &p.funs[fun.0 as usize];
    let mut env = HashMap::new();
    for (i, v) in f.params.iter().enumerate() {
        env.insert(v.id(), cx.param_val(i as u32));
    }
    let st = State {
        env,
        facts: Facts::default(),
        cost: zero_cost(),
        apps: vec![SymBound::zero(); cx.nparams],
        self_calls: 0,
        aborted: false,
        exploded: false,
    };
    let results = eval(&cx, &f.body, st);
    results
        .into_iter()
        .filter(|(st, _)| !st.aborted)
        .map(|(st, v)| PathOut {
            // An exploded state stands for every path beyond the cap
            // but evaluation continued with only path #0's environment
            // and value: its result counts and any facts learned after
            // the collapse describe a strict subset of the real paths.
            // Claim nothing, so every finite slot claim — ret included —
            // fails against this path in both inference and the
            // independent checker (costs and apps are already sticky-ω).
            ret: if st.exploded { None } else { v.counts },
            facts: if st.exploded {
                Facts::default()
            } else {
                st.facts
            },
            cost: st.cost,
            apps: st.apps,
            self_calls: st.self_calls,
        })
        .collect()
}

/// Sequential evaluation of an expression list (threading branching
/// states through each element).
fn eval_list(cx: &Cx, exprs: &[Expr], st: State) -> Vec<(State, Vec<AbsVal>)> {
    let mut acc: Vec<(State, Vec<AbsVal>)> = vec![(st, Vec::with_capacity(exprs.len()))];
    for e in exprs {
        let mut next = Vec::new();
        for (s, vals) in acc {
            if s.aborted {
                next.push((s, vals));
                continue;
            }
            for (s2, v) in eval(cx, e, s) {
                let mut vs = vals.clone();
                vs.push(v);
                next.push((s2, vs));
            }
        }
        acc = cap_paths(cx, next, |(s, _)| s);
    }
    acc
}

/// Enforces the path cap by collapsing an oversized path set into one
/// exploded (all-ω) state. The survivor keeps path #0's environment and
/// value only so evaluation can continue; the sticky `exploded` flag
/// marks everything derived from them as untrusted, and
/// [`eval_fun_paths`] strips the final value's counts and the
/// accumulated facts from exploded paths before they reach any claim
/// check.
fn cap_paths<T>(cx: &Cx, mut paths: Vec<T>, state_of: impl Fn(&mut T) -> &mut State) -> Vec<T> {
    if paths.len() <= cx.path_cap {
        return paths;
    }
    let mut first = paths.swap_remove(0);
    {
        let s = state_of(&mut first);
        s.explode();
        s.facts = Facts::default();
        s.aborted = false;
    }
    vec![first]
}

/// Charges a direct or indirect call of `callee` with abstract `args`
/// onto the state, returning the abstract result.
fn charge_call(cx: &Cx, st: &mut State, callee: FunId, args: &[AbsVal]) -> AbsVal {
    if callee == cx.fun {
        st.self_calls += 1;
    }
    let cert = &cx.certs.funs[callee.0 as usize];
    let bounds = match cx.mode {
        CostMode::Worst => &cert.worst,
        CostMode::Fbip => &cert.fbip,
    };
    for (slot, b) in bounds.iter().enumerate() {
        let contrib = instantiate(b, args);
        st.charge_bound(slot, &contrib);
    }
    // Closure-parameter applications inside the callee: each application
    // of argument j costs whatever applying that argument costs.
    for (j, arg) in args.iter().enumerate() {
        let apps_j = cert
            .apps
            .get(j)
            .map(|b| instantiate(b, args))
            .unwrap_or(SymBound::Omega);
        if apps_j.as_const() == Some(0) {
            continue;
        }
        if let Some(i) = arg.param {
            // Pass-through: our own closure parameter is applied by the
            // callee; meter it, our caller pays.
            st.apps[i as usize] = st.apps[i as usize].add(&apps_j);
        } else if let Some(lv) = &arg.lam {
            let per_app = lam_app_cost(cx, lv);
            for (slot, per) in per_app.iter().enumerate() {
                let c = mul_bounds(&apps_j, per);
                st.charge_bound(slot, &c);
            }
        } else if let Some(g) = arg.global {
            let gb = match cx.mode {
                CostMode::Worst => &cx.certs.funs[g.0 as usize].worst,
                CostMode::Fbip => &cx.certs.funs[g.0 as usize].fbip,
            };
            for (slot, b) in gb.iter().enumerate() {
                // Globals apply with zero (appᵣ) overhead — direct call.
                let per = instantiate(b, &[]);
                let c = mul_bounds(&apps_j, &per);
                st.charge_bound(slot, &c);
            }
        } else {
            // The callee may apply an argument we know nothing about.
            for c in &mut st.cost {
                *c = SymBound::Omega;
            }
        }
    }
    // Result: constructor counts from the callee's ret bounds.
    let counts: Counts = cx
        .counted
        .iter()
        .map(|&ct| {
            let b = cert
                .ret
                .get(&ct)
                .map(|b| instantiate(b, args))
                .unwrap_or(SymBound::Omega);
            (ct, b)
        })
        .collect();
    AbsVal {
        counts: Some(counts),
        ..AbsVal::default()
    }
}

/// The per-application cost of a known lambda: the (appᵣ) overhead —
/// one dup per capture, one drop of the closure — plus the joined cost
/// of the body with unknown parameters.
fn lam_app_cost(cx: &Cx, lv: &LamVal) -> [SymBound; NCOUNTERS] {
    let mut env = HashMap::new();
    for pvar in &lv.lam.params {
        env.insert(pvar.id(), AbsVal::unknown());
    }
    for (id, v) in &lv.captures {
        env.insert(*id, v.clone());
    }
    let st = State {
        env,
        facts: Facts::default(),
        cost: zero_cost(),
        apps: vec![SymBound::zero(); cx.nparams],
        self_calls: 0,
        aborted: false,
        exploded: false,
    };
    let mut out = zero_cost();
    out[C_DUP] = SymBound::konst(lv.lam.captures.len() as i64);
    out[C_DROP] = SymBound::konst(1);
    let mut body = zero_cost();
    let mut any = false;
    let mut apply_inside = false;
    for (s, _) in eval(cx, &lv.lam.body, st) {
        if s.aborted {
            continue;
        }
        for (slot, b) in body.iter_mut().enumerate() {
            *b = if any {
                b.join(&s.cost[slot])
            } else {
                s.cost[slot].clone()
            };
        }
        if s.apps.iter().any(|a| a.as_const() != Some(0)) {
            apply_inside = true;
        }
        any = true;
    }
    for slot in 0..NCOUNTERS {
        out[slot] = if apply_inside {
            SymBound::Omega
        } else {
            out[slot].add(&body[slot])
        };
    }
    out
}

/// Applies a value: direct (global), inline (known lambda), metered
/// (closure parameter), or unknown (ω).
fn apply_value(cx: &Cx, mut st: State, f: AbsVal, args: Vec<AbsVal>) -> Vec<(State, AbsVal)> {
    if let Some(g) = f.global {
        // `Value::Global` applies as a direct call: no closure, no RC
        // traffic (the machine's prepare_apply special case).
        let v = charge_call(cx, &mut st, g, &args);
        return vec![(st, v)];
    }
    if let Some(lv) = f.lam.clone() {
        if lv.lam.params.len() != args.len() {
            st.explode();
            return vec![(st, AbsVal::unknown())];
        }
        // (appᵣ): dup every capture, drop the closure, enter the body.
        st.charge(C_DUP, lv.lam.captures.len() as i64);
        st.charge(C_DROP, 1);
        let saved_env = st.env.clone();
        let mut env = HashMap::new();
        for (pvar, a) in lv.lam.params.iter().zip(args) {
            env.insert(pvar.id(), a);
        }
        for (id, v) in &lv.captures {
            env.insert(*id, v.clone());
        }
        st.env = env;
        let results = eval(cx, &lv.lam.body, st);
        return results
            .into_iter()
            .map(|(mut s, v)| {
                s.env = saved_env.clone();
                (s, v)
            })
            .collect();
    }
    if let Some(i) = f.param {
        // Applying our own closure parameter: meter it; the caller pays
        // the actual cost at instantiation time.
        st.apps[i as usize] = st.apps[i as usize].add_k(1);
        return vec![(st, AbsVal::unknown())];
    }
    // Unknown callee: no finite bound.
    st.explode();
    st.aborted = false;
    vec![(st, AbsVal::unknown())]
}

/// Comparison guard facts for a primitive, when both operands have raw
/// views. `Eq` true gives both directions; `Eq` false / `Ne` true are
/// non-convex and give nothing.
fn guard_of(op: PrimOp, a: &AbsVal, b: &AbsVal) -> Option<GuardFacts> {
    let (ra, rb) = (a.raw.as_ref()?, b.raw.as_ref()?);
    let lt = |x: &RawExpr, y: &RawExpr| y.sub(x)?.add_k(-1); // x < y ⟹ y − x − 1 ≥ 0
    let le = |x: &RawExpr, y: &RawExpr| y.sub(x); // x ≤ y ⟹ y − x ≥ 0
    let g = match op {
        PrimOp::Lt => GuardFacts {
            if_true: vec![lt(ra, rb)?],
            if_false: vec![le(rb, ra)?],
        },
        PrimOp::Le => GuardFacts {
            if_true: vec![le(ra, rb)?],
            if_false: vec![lt(rb, ra)?],
        },
        PrimOp::Gt => GuardFacts {
            if_true: vec![lt(rb, ra)?],
            if_false: vec![le(ra, rb)?],
        },
        PrimOp::Ge => GuardFacts {
            if_true: vec![le(rb, ra)?],
            if_false: vec![lt(ra, rb)?],
        },
        PrimOp::Eq => GuardFacts {
            if_true: vec![le(ra, rb)?, le(rb, ra)?],
            if_false: vec![],
        },
        PrimOp::Ne => GuardFacts {
            if_true: vec![],
            if_false: vec![le(ra, rb)?, le(rb, ra)?],
        },
        _ => return None,
    };
    Some(g)
}

/// The raw view of a primitive result, when computable exactly.
fn prim_raw(op: PrimOp, args: &[AbsVal]) -> Option<RawExpr> {
    let raw = |i: usize| args.get(i).and_then(|a| a.raw.as_ref());
    match op {
        PrimOp::Add => raw(0)?.add(raw(1)?),
        PrimOp::Sub => raw(0)?.sub(raw(1)?),
        PrimOp::Neg => raw(0)?.scale(-1),
        PrimOp::Mul => {
            let (a, b) = (raw(0)?, raw(1)?);
            if let Some(k) = a.as_const() {
                b.scale(k)
            } else if let Some(k) = b.as_const() {
                a.scale(k)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// The core path-sensitive evaluator. Returns every resulting
/// (state, value) pair; aborted states carry no value of interest.
fn eval(cx: &Cx, e: &Expr, mut st: State) -> Vec<(State, AbsVal)> {
    if st.aborted {
        return vec![(st, AbsVal::unknown())];
    }
    match e {
        Expr::Var(v) => {
            let val = st.env.get(&v.id()).cloned().unwrap_or_else(AbsVal::unknown);
            vec![(st, val)]
        }
        Expr::Lit(Lit::Int(k)) => {
            let v = AbsVal::int(RawExpr::konst(*k), &cx.zero_counts());
            vec![(st, v)]
        }
        Expr::Lit(Lit::Unit) => {
            let v = AbsVal {
                counts: Some(cx.zero_counts()),
                ..AbsVal::default()
            };
            vec![(st, v)]
        }
        Expr::Global(g) => {
            let v = AbsVal {
                global: Some(*g),
                counts: Some(cx.zero_counts()),
                ..AbsVal::default()
            };
            vec![(st, v)]
        }
        Expr::Abort(_) => {
            st.aborted = true;
            vec![(st, AbsVal::unknown())]
        }
        Expr::Call(fid, args) => {
            let mut out = Vec::new();
            for (mut s, vals) in eval_list(cx, args, st) {
                if s.aborted {
                    out.push((s, AbsVal::unknown()));
                    continue;
                }
                let v = charge_call(cx, &mut s, *fid, &vals);
                out.push((s, v));
            }
            out
        }
        Expr::App(f, args) => {
            let mut out = Vec::new();
            for (s, fv) in eval(cx, f, st) {
                if s.aborted {
                    out.push((s, AbsVal::unknown()));
                    continue;
                }
                for (s2, vals) in eval_list(cx, args, s) {
                    if s2.aborted {
                        out.push((s2, AbsVal::unknown()));
                        continue;
                    }
                    out.extend(apply_value(cx, s2, fv.clone(), vals));
                }
            }
            cap_paths(cx, out, |(s, _)| s)
        }
        Expr::Prim(op, args) => {
            let mut out = Vec::new();
            for (mut s, vals) in eval_list(cx, args, st) {
                if s.aborted {
                    out.push((s, AbsVal::unknown()));
                    continue;
                }
                // Internal RC traffic of the effectful primitives,
                // mirroring cost.rs::prim_cost.
                match op {
                    PrimOp::RefNew => s.charge(C_ALLOC, 1),
                    PrimOp::RefGet => {
                        s.charge(C_DUP, 1);
                        s.charge(C_DROP, 1);
                    }
                    PrimOp::RefSet => s.charge(C_DROP, 2),
                    PrimOp::TShare => s.charge(C_DROP, 1),
                    _ => {}
                }
                let raw = prim_raw(*op, &vals);
                let guard = match (vals.first(), vals.get(1)) {
                    (Some(a), Some(b)) => guard_of(*op, a, b),
                    _ => None,
                };
                let counts = match op {
                    // Value-typed results carry no cells; a ref read
                    // yields whatever was stored — unknown.
                    PrimOp::RefGet | PrimOp::RefNew => None,
                    _ => Some(cx.zero_counts()),
                };
                let v = AbsVal {
                    raw,
                    counts,
                    guard,
                    ..AbsVal::default()
                };
                out.push((s, v));
            }
            out
        }
        Expr::Lam(lam) => {
            // MkClosure: one fresh allocation, always.
            st.charge(C_ALLOC, 1);
            let captures = lam
                .captures
                .iter()
                .map(|c| {
                    (
                        c.id(),
                        st.env.get(&c.id()).cloned().unwrap_or_else(AbsVal::unknown),
                    )
                })
                .collect();
            let v = AbsVal {
                lam: Some(LamVal {
                    lam: Rc::new(lam.clone()),
                    captures,
                }),
                counts: Some(cx.zero_counts()),
                ..AbsVal::default()
            };
            vec![(st, v)]
        }
        Expr::Con {
            ctor,
            args,
            reuse,
            skip: _,
        } => {
            let arity = cx.p.types.ctor(*ctor).arity as u64;
            let mut out = Vec::new();
            for (mut s, vals) in eval_list(cx, args, st.clone()) {
                if s.aborted {
                    out.push((s, AbsVal::unknown()));
                    continue;
                }
                if arity >= 1 {
                    match reuse {
                        None => s.charge(C_ALLOC, 1),
                        Some(tok) => {
                            let validity = s
                                .env
                                .get(&tok.id())
                                .and_then(|v| v.token_valid)
                                .unwrap_or(None);
                            match (cx.mode, validity) {
                                // Known-null token: always fresh.
                                (_, Some(false)) => s.charge(C_ALLOC, 1),
                                // Known-valid token: always reuse.
                                (_, Some(true)) => s.charge(C_REUSE, 1),
                                // Unknown token, worst case: may go
                                // either way — bound both counters.
                                (CostMode::Worst, None) => {
                                    s.charge(C_ALLOC, 1);
                                    s.charge(C_REUSE, 1);
                                }
                                // FBIP regime: tokens are valid.
                                (CostMode::Fbip, None) => s.charge(C_REUSE, 1),
                            }
                        }
                    }
                }
                let mut counts = Some(cx.zero_counts());
                for a in &vals {
                    counts = match (counts, &a.counts) {
                        (Some(acc), Some(ac)) => {
                            let mut m = acc;
                            for (c, b) in ac {
                                let e = m.entry(*c).or_insert_with(SymBound::zero);
                                *e = e.add(b);
                            }
                            Some(m)
                        }
                        _ => None,
                    };
                }
                if arity >= 1 {
                    if let Some(m) = &mut counts {
                        let e = m.entry(*ctor).or_insert_with(SymBound::zero);
                        *e = e.add_k(1);
                    }
                }
                let v = AbsVal {
                    counts,
                    arity: Some(arity),
                    ..AbsVal::default()
                };
                out.push((s, v));
            }
            out
        }
        Expr::Let { var, rhs, body } => {
            let mut out = Vec::new();
            for (mut s, v) in eval(cx, rhs, st) {
                if s.aborted {
                    out.push((s, AbsVal::unknown()));
                    continue;
                }
                s.env.insert(var.id(), v);
                out.extend(eval(cx, body, s));
            }
            cap_paths(cx, out, |(s, _)| s)
        }
        Expr::Seq(a, b) => {
            let mut out = Vec::new();
            for (s, _) in eval(cx, a, st) {
                if s.aborted {
                    out.push((s, AbsVal::unknown()));
                    continue;
                }
                out.extend(eval(cx, b, s));
            }
            cap_paths(cx, out, |(s, _)| s)
        }
        Expr::Match {
            scrutinee,
            arms,
            default,
        } => {
            let sv = st
                .env
                .get(&scrutinee.id())
                .cloned()
                .unwrap_or_else(AbsVal::unknown);
            let mut out = Vec::new();
            for arm in arms {
                let s = arm_state(cx, &st, scrutinee.id(), &sv, arm);
                out.extend(eval(cx, &arm.body, s));
            }
            if let Some(d) = default {
                out.extend(eval(cx, d, st.clone()));
            }
            // No default and no matching arm: the machine aborts; the
            // implicit abort path carries no claim, so nothing to add.
            cap_paths(cx, out, |(s, _)| s)
        }
        // ---- reference-counting instructions ----
        Expr::Dup(_, e) => {
            st.charge(C_DUP, 1);
            eval(cx, e, st)
        }
        Expr::Drop(_, e) => {
            st.charge(C_DROP, 1);
            eval(cx, e, st)
        }
        Expr::Free(_, e) => {
            st.charge(C_FREE, 1);
            eval(cx, e, st)
        }
        Expr::DecRef(_, e) => {
            st.charge(C_DECREF, 1);
            eval(cx, e, st)
        }
        Expr::DropToken(_, e) => {
            st.charge(C_DROP_TOKEN, 1);
            eval(cx, e, st)
        }
        Expr::DropReuse { var, token, body } => {
            // Fig. 1e: one uniqueness test; if unique, the children are
            // dropped (≤ arity) and the cell claimed; if shared, one
            // decref. The FBIP regime assumes the unique outcome.
            st.charge(C_IS_UNIQUE, 1);
            let arity = st
                .env
                .get(&var.id())
                .and_then(|v| v.arity)
                .unwrap_or(cx.max_arity);
            st.charge(C_DROP, arity as i64);
            if cx.mode == CostMode::Worst {
                st.charge(C_DECREF, 1);
            }
            st.env.insert(
                token.id(),
                AbsVal {
                    token_valid: Some(None),
                    ..AbsVal::default()
                },
            );
            eval(cx, body, st)
        }
        Expr::IsUnique {
            var: _,
            binders: _,
            unique,
            shared,
        } => {
            st.charge(C_IS_UNIQUE, 1);
            match cx.mode {
                CostMode::Worst => {
                    let mut out = eval(cx, unique, st.clone());
                    out.extend(eval(cx, shared, st));
                    cap_paths(cx, out, |(s, _)| s)
                }
                CostMode::Fbip => eval(cx, unique, st),
            }
        }
        Expr::TokenOf(_) => {
            let v = AbsVal {
                token_valid: Some(Some(true)),
                ..AbsVal::default()
            };
            vec![(st, v)]
        }
        Expr::NullToken => {
            let v = AbsVal {
                token_valid: Some(Some(false)),
                ..AbsVal::default()
            };
            vec![(st, v)]
        }
    }
}

/// Builds the entry state of one match arm: records the match fact
/// (`count ≥ 1` for counted constructors; guard facts for booleans),
/// binds the binders with decremented counts, and tracks the
/// scrutinee's arity for `drop-reuse`.
fn arm_state(cx: &Cx, st: &State, scrut_id: u32, sv: &AbsVal, arm: &Arm) -> State {
    let mut s = st.clone();
    let info = cx.p.types.ctor(arm.ctor);
    let arity = info.arity as u64;
    // Boolean scrutinee with comparison provenance: guard facts.
    if let Some(g) = &sv.guard {
        let raws = if arm.ctor == TypeTable::TRUE {
            &g.if_true
        } else if arm.ctor == TypeTable::FALSE {
            &g.if_false
        } else {
            &g.if_true[0..0]
        };
        for r in raws {
            s.facts.push_raw(r.clone());
        }
    }
    // Matching an arity ≥ 1 constructor proves at least one such cell.
    let cv = sv.counts.as_ref();
    if arity >= 1 {
        if let Some(SymBound::Finite(e)) = cv.and_then(|m| m.get(&arm.ctor)) {
            if let Some(fact) = e.add_k(-1) {
                s.facts.push_lin(fact);
            }
        }
    }
    // Binder counts: each binder holds a sub-tree of the scrutinee, so
    // its per-constructor counts are bounded by the scrutinee's, minus
    // the matched cell itself.
    let binder_counts: Option<Counts> = cv.map(|m| {
        m.iter()
            .map(|(c, b)| {
                let b2 = if *c == arm.ctor && arity >= 1 {
                    match b {
                        SymBound::Finite(e) => match e.add_k(-1) {
                            Some(e2) => SymBound::Finite(e2),
                            None => SymBound::Omega,
                        },
                        SymBound::Omega => SymBound::Omega,
                    }
                } else {
                    b.clone()
                };
                (*c, b2)
            })
            .collect()
    });
    for b in arm.binders.iter().flatten() {
        s.env.insert(
            b.id(),
            AbsVal {
                counts: binder_counts.clone(),
                ..AbsVal::default()
            },
        );
    }
    // Track the scrutinee's arity for a drop-reuse inside the arm
    // (mirrors cost.rs's arity map).
    if let Some(v) = s.env.get_mut(&scrut_id) {
        v.arity = Some(arity);
    }
    s
}

// ---------------------------------------------------------------------
// Inference
// ---------------------------------------------------------------------

/// Infers a certificate for every function of the program, in
/// reverse-topological SCC order of the call graph. Singleton
/// non-recursive functions get joined path bounds; self-recursive
/// functions get guess-and-check bounds; mutual recursion stays at ω.
/// Every returned certificate passes
/// [`super::certificate::check_fun_cert`] and is coordinate-minimal:
/// decrementing any single coefficient makes the checker reject it.
pub fn infer_certificates(p: &Program) -> CertSet {
    let mut certs = CertSet::bottom(p);
    let calls = call_graph(p);
    for scc in sccs(&calls) {
        match scc.as_slice() {
            [f] => {
                let selfrec = calls[f.0 as usize].contains(f);
                if selfrec {
                    infer_recursive(p, &mut certs, *f);
                } else {
                    infer_direct(p, &mut certs, *f);
                }
                minimize(p, &mut certs, *f);
                degrade_until_valid(p, &mut certs, *f);
            }
            _ => {
                // Mutual recursion: no linear potential inferred; the
                // bottom (all-ω) certificates are already in place and
                // trivially valid.
            }
        }
    }
    certs
}

fn join_slot(paths: &[PathOut], slot: usize) -> SymBound {
    paths
        .iter()
        .map(|p| p.cost[slot].clone())
        .reduce(|a, b| a.join(&b))
        .unwrap_or_else(SymBound::zero)
}

fn join_apps(paths: &[PathOut], i: usize) -> SymBound {
    paths
        .iter()
        .map(|p| p.apps[i].clone())
        .reduce(|a, b| a.join(&b))
        .unwrap_or_else(SymBound::zero)
}

fn join_ret(paths: &[PathOut], ct: CtorId) -> SymBound {
    paths
        .iter()
        .map(|p| match &p.ret {
            Some(m) => m.get(&ct).cloned().unwrap_or_else(SymBound::zero),
            None => SymBound::Omega,
        })
        .reduce(|a, b| a.join(&b))
        .unwrap_or_else(SymBound::zero)
}

/// Non-recursive function: the pointwise-max join over its paths is a
/// valid certificate by construction.
fn infer_direct(p: &Program, certs: &mut CertSet, f: FunId) {
    let nparams = p.funs[f.0 as usize].params.len();
    let counted: Vec<CtorId> = certs.funs[f.0 as usize].ret.keys().copied().collect();
    let worst = eval_fun_paths(p, certs, f, CostMode::Worst);
    let fbip = eval_fun_paths(p, certs, f, CostMode::Fbip);
    let cert = &mut certs.funs[f.0 as usize];
    for slot in 0..NCOUNTERS {
        cert.worst[slot] = join_slot(&worst, slot);
        cert.fbip[slot] = join_slot(&fbip, slot);
    }
    for i in 0..nparams {
        cert.apps[i] = join_apps(&worst, i);
    }
    for ct in counted {
        cert.ret.insert(ct, join_ret(&worst, ct));
    }
    cert.recursive = false;
}

/// The candidate measures for a self-recursive function: every count
/// atom destructured on a recursive path, the positive part of every
/// raw guard fact on a recursive path (plus one — a strict guard means
/// at least one more iteration), per-constructor cross-parameter sums,
/// and the grand sum of everything.
fn collect_measures(paths: &[PathOut]) -> Vec<LinExpr> {
    let mut atoms: Vec<Atom> = Vec::new();
    for path in paths.iter().filter(|p| p.self_calls > 0) {
        for fact in &path.facts.lin {
            for a in fact.terms.keys() {
                if matches!(a, Atom::Count { .. }) && !atoms.contains(a) {
                    atoms.push(a.clone());
                }
            }
        }
        for r in &path.facts.raw {
            if let Some(r1) = r.add_k(1) {
                let a = Atom::Pos(r1);
                if !atoms.contains(&a) {
                    atoms.push(a);
                }
            }
        }
    }
    let mut measures: Vec<LinExpr> = atoms.iter().cloned().map(LinExpr::atom).collect();
    // Per-constructor sums across parameters (merge-style recursion
    // alternates which parameter shrinks).
    let mut by_ctor: BTreeMap<CtorId, Vec<Atom>> = BTreeMap::new();
    for a in &atoms {
        if let Atom::Count { ctor, .. } = a {
            by_ctor.entry(*ctor).or_default().push(a.clone());
        }
    }
    for group in by_ctor.values().filter(|g| g.len() > 1) {
        let mut e = LinExpr::konst(0);
        for a in group {
            if let Some(e2) = e.add(&LinExpr::atom(a.clone())) {
                e = e2;
            }
        }
        if !measures.contains(&e) {
            measures.push(e);
        }
    }
    // Grand sum of all collected atoms.
    if atoms.len() > 1 {
        let mut e = LinExpr::konst(0);
        for a in &atoms {
            if let Some(e2) = e.add(&LinExpr::atom(a.clone())) {
                e = e2;
            }
        }
        if !measures.contains(&e) {
            measures.push(e);
        }
    }
    measures
}

/// The slot coordinates of a certificate, for staged inference and
/// minimization.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    Ret(CtorId),
    Apps(usize),
    Counter(CostMode, usize),
}

fn get_slot(cert: &FunCert, s: Slot) -> SymBound {
    match s {
        Slot::Ret(ct) => cert.ret.get(&ct).cloned().unwrap_or(SymBound::Omega),
        Slot::Apps(i) => cert.apps[i].clone(),
        Slot::Counter(CostMode::Worst, i) => cert.worst[i].clone(),
        Slot::Counter(CostMode::Fbip, i) => cert.fbip[i].clone(),
    }
}

fn set_slot(cert: &mut FunCert, s: Slot, b: SymBound) {
    match s {
        Slot::Ret(ct) => {
            cert.ret.insert(ct, b);
        }
        Slot::Apps(i) => cert.apps[i] = b,
        Slot::Counter(CostMode::Worst, i) => cert.worst[i] = b,
        Slot::Counter(CostMode::Fbip, i) => cert.fbip[i] = b,
    }
}

/// The cost mode whose path set a slot's claim must hold on. `ret` and
/// `apps` claims are verified on the worst-mode paths (a superset of
/// the FBIP ones).
fn slot_mode(s: Slot) -> CostMode {
    match s {
        Slot::Counter(m, _) => m,
        _ => CostMode::Worst,
    }
}

/// Verifies a claim for slot `s` against an already-evaluated path set.
fn check_claim_against(paths: &[PathOut], claim: &SymBound, s: Slot) -> bool {
    let SymBound::Finite(claim) = claim else {
        return true; // ω claims are trivially valid
    };
    for path in paths {
        let actual = match s {
            Slot::Ret(ct) => match &path.ret {
                Some(m) => m.get(&ct).cloned().unwrap_or_else(SymBound::zero),
                None => SymBound::Omega,
            },
            Slot::Apps(i) => path.apps[i].clone(),
            Slot::Counter(_, i) => path.cost[i].clone(),
        };
        let SymBound::Finite(actual) = actual else {
            return false;
        };
        let Some(goal) = claim.sub(&actual) else {
            return false;
        };
        if !path.facts.entails_nonneg(&goal) {
            return false;
        }
    }
    true
}

/// Cached worst/FBIP path sets for slot checking. Valid only while the
/// function's own certificate cannot influence its path costs — i.e.
/// for non-recursive functions (whose paths contain no self-calls).
struct PathCache {
    worst: Vec<PathOut>,
    fbip: Vec<PathOut>,
}

impl PathCache {
    fn build(p: &Program, certs: &CertSet, f: FunId) -> PathCache {
        PathCache {
            worst: eval_fun_paths(p, certs, f, CostMode::Worst),
            fbip: eval_fun_paths(p, certs, f, CostMode::Fbip),
        }
    }

    fn paths(&self, mode: CostMode) -> &[PathOut] {
        match mode {
            CostMode::Worst => &self.worst,
            CostMode::Fbip => &self.fbip,
        }
    }
}

/// Verifies one slot's claim under the current certificate set,
/// re-evaluating paths unless a cache is supplied.
fn check_slot(p: &Program, certs: &CertSet, f: FunId, s: Slot, cache: Option<&PathCache>) -> bool {
    let claim = get_slot(&certs.funs[f.0 as usize], s);
    if !claim.is_finite() {
        return true;
    }
    match cache {
        Some(c) => check_claim_against(c.paths(slot_mode(s)), &claim, s),
        None => {
            let paths = eval_fun_paths(p, certs, f, slot_mode(s));
            check_claim_against(&paths, &claim, s)
        }
    }
}

/// All slots of a function's certificate, in dependency order: ret and
/// apps claims feed counter claims through call-site instantiation.
fn all_slots(cert: &FunCert) -> Vec<Slot> {
    let mut out: Vec<Slot> = cert.ret.keys().map(|&c| Slot::Ret(c)).collect();
    out.extend((0..cert.apps.len()).map(Slot::Apps));
    for i in 0..NCOUNTERS {
        out.push(Slot::Counter(CostMode::Worst, i));
        out.push(Slot::Counter(CostMode::Fbip, i));
    }
    out
}

/// Self-recursive function: staged guess-and-check. Each slot is
/// seeded with the recursion-free join (self-contribution zeroed), then
/// grown by `d · measure` candidates until the checker accepts.
fn infer_recursive(p: &Program, certs: &mut CertSet, f: FunId) {
    certs.funs[f.0 as usize].recursive = true;
    // Stage 0: zero the self-certificate so the joins below see only
    // the recursion-free part. The candidate search then restores one
    // slot at a time. (Other slots stay ω — a sound inductive
    // hypothesis — until their own stage runs.)
    {
        let cert = &mut certs.funs[f.0 as usize];
        let cts: Vec<CtorId> = cert.ret.keys().copied().collect();
        for ct in cts {
            cert.ret.insert(ct, SymBound::zero());
        }
        for a in &mut cert.apps {
            *a = SymBound::zero();
        }
        for s in 0..NCOUNTERS {
            cert.worst[s] = SymBound::zero();
            cert.fbip[s] = SymBound::zero();
        }
    }
    let base_worst = eval_fun_paths(p, certs, f, CostMode::Worst);
    let base_fbip = eval_fun_paths(p, certs, f, CostMode::Fbip);
    let measures = collect_measures(&base_worst);
    // Reset to ω before staging: unproven slots must be ω hypotheses.
    {
        let cert = &mut certs.funs[f.0 as usize];
        let cts: Vec<CtorId> = cert.ret.keys().copied().collect();
        for ct in cts {
            cert.ret.insert(ct, SymBound::Omega);
        }
        for a in &mut cert.apps {
            *a = SymBound::Omega;
        }
        for s in 0..NCOUNTERS {
            cert.worst[s] = SymBound::Omega;
            cert.fbip[s] = SymBound::Omega;
        }
    }
    let rec_worst: Vec<&PathOut> = base_worst.iter().filter(|pa| pa.self_calls > 0).collect();
    let slot_seeds = |slot: Slot| -> (SymBound, SymBound) {
        // (recursion-free join, per-iteration fixed cost) for the slot.
        let (paths, rec_join): (&[PathOut], SymBound) = match slot {
            Slot::Counter(CostMode::Fbip, i) => {
                let rj = base_fbip
                    .iter()
                    .filter(|pa| pa.self_calls > 0)
                    .map(|pa| pa.cost[i].clone())
                    .reduce(|a, b| a.join(&b))
                    .unwrap_or_else(SymBound::zero);
                (&base_fbip, rj)
            }
            Slot::Counter(CostMode::Worst, i) => {
                let rj = rec_worst
                    .iter()
                    .map(|pa| pa.cost[i].clone())
                    .reduce(|a, b| a.join(&b))
                    .unwrap_or_else(SymBound::zero);
                (&base_worst, rj)
            }
            _ => (&base_worst, SymBound::zero()),
        };
        let base = match slot {
            Slot::Ret(ct) => join_ret(paths, ct),
            Slot::Apps(i) => join_apps(paths, i),
            Slot::Counter(_, i) => join_slot(paths, i),
        };
        (base, rec_join)
    };
    for slot in all_slots(&certs.funs[f.0 as usize].clone()) {
        let (base, rec_join) = slot_seeds(slot);
        let SymBound::Finite(base) = base else {
            continue; // stays ω
        };
        let mut d_cands: Vec<i64> = vec![1];
        if let Some(k) = rec_join.as_const() {
            for d in [k, k + 1] {
                if d > 0 && !d_cands.contains(&d) {
                    d_cands.push(d);
                }
            }
        }
        for d in [base.k, base.k + 1] {
            if d > 0 && !d_cands.contains(&d) {
                d_cands.push(d);
            }
        }
        // Candidate order: the recursion-free join alone (loops that
        // pay nothing per iteration), then base + d·measure.
        let mut candidates: Vec<LinExpr> = vec![base.clone()];
        for m in &measures {
            for &d in &d_cands {
                if let Some(grown) = m.scale(d).and_then(|g| base.add(&g)) {
                    if !candidates.contains(&grown) {
                        candidates.push(grown);
                    }
                }
            }
        }
        for cand in candidates {
            set_slot(&mut certs.funs[f.0 as usize], slot, SymBound::Finite(cand));
            if check_slot(p, certs, f, slot, None) {
                break;
            }
            set_slot(&mut certs.funs[f.0 as usize], slot, SymBound::Omega);
        }
    }
}

/// Greedy coordinate minimization: decrement every coefficient of every
/// finite slot while the slot still checks. At the fixpoint, any single
/// downward perturbation is rejected by the checker — which is exactly
/// what the certificate property test asserts. A slot whose coordinates
/// keep decrementing past a cap (possible only when no terminating path
/// constrains it) is degraded to ω rather than shipped non-minimal.
fn minimize(p: &Program, certs: &mut CertSet, f: FunId) {
    // Non-recursive functions: path costs cannot depend on the claims
    // under test, so one evaluation per mode serves every check below.
    let cache = if certs.funs[f.0 as usize].recursive {
        None
    } else {
        Some(PathCache::build(p, certs, f))
    };
    let slots = all_slots(&certs.funs[f.0 as usize]);
    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds < 8 {
        changed = false;
        rounds += 1;
        for &slot in &slots {
            let SymBound::Finite(cur) = get_slot(&certs.funs[f.0 as usize], slot) else {
                continue;
            };
            // Coordinates: the constant, then each atom coefficient.
            let coords: Vec<Option<Atom>> = std::iter::once(None)
                .chain(cur.terms.keys().cloned().map(Some))
                .collect();
            for coord in coords {
                let mut steps = 0;
                while let SymBound::Finite(cur) = get_slot(&certs.funs[f.0 as usize], slot) {
                    let dec = match &coord {
                        None => cur.add_k(-1),
                        Some(a) => cur.sub(&LinExpr::atom(a.clone())),
                    };
                    let Some(dec) = dec else { break };
                    set_slot(&mut certs.funs[f.0 as usize], slot, SymBound::Finite(dec));
                    if !check_slot(p, certs, f, slot, cache.as_ref()) {
                        set_slot(&mut certs.funs[f.0 as usize], slot, SymBound::Finite(cur));
                        break;
                    }
                    changed = true;
                    steps += 1;
                    if steps > MINIMIZE_CAP {
                        set_slot(&mut certs.funs[f.0 as usize], slot, SymBound::Omega);
                        break;
                    }
                }
            }
        }
    }
}

/// Re-verifies every slot of a function's certificate and degrades any
/// failing slot to ω, looping until the whole certificate is valid
/// (termination: slots only move toward ω).
fn degrade_until_valid(p: &Program, certs: &mut CertSet, f: FunId) {
    loop {
        let cache = if certs.funs[f.0 as usize].recursive {
            None
        } else {
            Some(PathCache::build(p, certs, f))
        };
        let mut dirty = false;
        for slot in all_slots(&certs.funs[f.0 as usize]) {
            if !check_slot(p, certs, f, slot, cache.as_ref()) {
                set_slot(&mut certs.funs[f.0 as usize], slot, SymBound::Omega);
                dirty = true;
            }
        }
        if !dirty {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::builder::{arm, arm0, con, ite, ProgramBuilder};
    use crate::ir::expr::Expr;

    // The unit tests here exercise the plumbing; end-to-end inference
    // over real workloads is covered by the certificate tests and the
    // suite's certify integration tests.

    #[test]
    fn sccs_identify_self_recursion() {
        let mut pb = ProgramBuilder::new();
        let x = pb.fresh("x");
        let f = pb.declare("loop", vec![x.clone()]);
        pb.set_body(f, Expr::Call(f, vec![Expr::Var(x)]));
        let p = pb.finish();
        let calls = call_graph(&p);
        assert!(sccs(&calls).iter().any(|s| s == &vec![f]));
        assert!(calls[f.0 as usize].contains(&f));
    }

    #[test]
    fn non_recursive_constant_costs() {
        // fun pair(x) = Cons(x, Nil)  — one allocation, no RC traffic.
        let mut pb = ProgramBuilder::new();
        let (_, ctors) = pb.data("list", &[("Nil", 0), ("Cons", 2)]);
        let (nil, cons) = (ctors[0], ctors[1]);
        let x = pb.fresh("x");
        let f = pb.fun(
            "pair",
            vec![x.clone()],
            con(cons, vec![Expr::Var(x), con(nil, vec![])]),
        );
        let p = pb.finish();
        let certs = infer_certificates(&p);
        let cert = &certs.funs[f.0 as usize];
        assert_eq!(cert.worst[C_ALLOC].as_const(), Some(1));
        assert_eq!(cert.worst[C_DUP].as_const(), Some(0));
        assert!(!cert.recursive);
        // The result has exactly one Cons cell plus whatever x holds.
        let ret = cert.ret.get(&cons).unwrap().as_finite().unwrap();
        assert_eq!(ret.k, 1);
        assert_eq!(
            ret.terms
                .get(&Atom::Count {
                    param: 0,
                    ctor: cons
                })
                .copied(),
            Some(1)
        );
    }

    #[test]
    fn recursive_list_walk_gets_constant_alloc() {
        // fun len(xs) = match xs { Nil -> 0; Cons(_, xx) -> 1 + len(xx) }
        // No allocations at all; alloc bound must be the constant 0.
        let mut pb = ProgramBuilder::new();
        let (_, ctors) = pb.data("list", &[("Nil", 0), ("Cons", 2)]);
        let (nil, cons) = (ctors[0], ctors[1]);
        let xs = pb.fresh("xs");
        let hd = pb.fresh("hd");
        let xx = pb.fresh("xx");
        let f = pb.declare("len", vec![xs.clone()]);
        pb.set_body(
            f,
            Expr::Match {
                scrutinee: xs.clone(),
                arms: vec![
                    arm0(nil, Expr::int(0)),
                    arm(
                        cons,
                        vec![hd, xx.clone()],
                        Expr::Prim(
                            PrimOp::Add,
                            vec![Expr::int(1), Expr::Call(f, vec![Expr::Var(xx)])],
                        ),
                    ),
                ],
                default: None,
            },
        );
        let p = pb.finish();
        let certs = infer_certificates(&p);
        let cert = &certs.funs[f.0 as usize];
        assert!(cert.recursive);
        assert_eq!(cert.worst[C_ALLOC].as_const(), Some(0));
    }

    #[test]
    fn recursive_copy_gets_length_bound() {
        // fun copy(xs) = match xs { Nil -> Nil; Cons(x, xx) ->
        //   Cons(x, copy(xx)) } — allocates exactly |xs.Cons| + 1 cells
        //   (each Cons plus the final Nil is arity 0, so just |xs.Cons|).
        let mut pb = ProgramBuilder::new();
        let (_, ctors) = pb.data("list", &[("Nil", 0), ("Cons", 2)]);
        let (nil, cons) = (ctors[0], ctors[1]);
        let xs = pb.fresh("xs");
        let x = pb.fresh("x");
        let xx = pb.fresh("xx");
        let f = pb.declare("copy", vec![xs.clone()]);
        pb.set_body(
            f,
            Expr::Match {
                scrutinee: xs.clone(),
                arms: vec![
                    arm0(nil, con(nil, vec![])),
                    arm(
                        cons,
                        vec![x.clone(), xx.clone()],
                        con(cons, vec![Expr::Var(x), Expr::Call(f, vec![Expr::Var(xx)])]),
                    ),
                ],
                default: None,
            },
        );
        let p = pb.finish();
        let certs = infer_certificates(&p);
        let cert = &certs.funs[f.0 as usize];
        let alloc = cert.worst[C_ALLOC].as_finite().expect("finite alloc bound");
        // Exactly 1·|xs.Cons| + 0 after minimization.
        assert_eq!(alloc.k, 0);
        assert_eq!(
            alloc
                .terms
                .get(&Atom::Count {
                    param: 0,
                    ctor: cons
                })
                .copied(),
            Some(1)
        );
    }

    #[test]
    fn path_cap_collapse_claims_nothing() {
        // fun wide(b0, …, b9) =
        //   let t0 = if b0 then 0 else 0 in … let t8 = … in
        //   if b9 then Nil else Cons(0, Nil)
        // 2^10 = 1024 > PATH_CAP paths, so evaluation collapses to the
        // exploded all-True path #0 — which returns Nil, while the
        // paths the collapse swallowed return one Cons cell. The
        // collapsed path must claim nothing: inference may not ship a
        // finite ret bound derived from path #0, and the independent
        // checker must reject an understated hand-written one.
        let mut pb = ProgramBuilder::new();
        let (_, ctors) = pb.data("list", &[("Nil", 0), ("Cons", 2)]);
        let (nil, cons) = (ctors[0], ctors[1]);
        let params: Vec<_> = (0..10).map(|i| pb.fresh(&format!("b{i}"))).collect();
        let f = pb.declare("wide", params.clone());
        let mut body = ite(
            params[9].clone(),
            con(nil, vec![]),
            con(cons, vec![Expr::int(0), con(nil, vec![])]),
        );
        for j in (0..9).rev() {
            let t = pb.fresh("t");
            body = Expr::let_(t, ite(params[j].clone(), Expr::int(0), Expr::int(0)), body);
        }
        pb.set_body(f, body);
        let p = pb.finish();
        assert!(1 << params.len() > PATH_CAP);
        let certs = infer_certificates(&p);
        let cert = &certs.funs[f.0 as usize];
        assert!(!cert.ret.get(&cons).unwrap().is_finite());
        assert!(!cert.worst[C_ALLOC].is_finite());
        let mut bad = certs.clone();
        bad.funs[f.0 as usize].ret.insert(cons, SymBound::konst(0));
        assert!(
            crate::analysis::certificate::check_fun_cert(&p, &bad, f, CostMode::Worst).is_err(),
            "checker accepted a ret claim true only on the collapsed path #0"
        );
    }

    #[test]
    fn counting_loop_gets_pos_bound() {
        // fun build(i, n) = if i < n then Cons(i, build(i + 1, n))
        //                   else Nil — allocates max(n − i, 0) cells.
        let mut pb = ProgramBuilder::new();
        let (_, ctors) = pb.data("list", &[("Nil", 0), ("Cons", 2)]);
        let (nil, cons) = (ctors[0], ctors[1]);
        let i = pb.fresh("i");
        let n = pb.fresh("n");
        let g = pb.fresh("g");
        let f = pb.declare("build", vec![i.clone(), n.clone()]);
        let rec = con(
            cons,
            vec![
                Expr::Var(i.clone()),
                Expr::Call(
                    f,
                    vec![
                        Expr::Prim(PrimOp::Add, vec![Expr::Var(i.clone()), Expr::int(1)]),
                        Expr::Var(n.clone()),
                    ],
                ),
            ],
        );
        pb.set_body(
            f,
            Expr::let_(
                g.clone(),
                Expr::Prim(PrimOp::Lt, vec![Expr::Var(i.clone()), Expr::Var(n.clone())]),
                ite(g, rec, con(nil, vec![])),
            ),
        );
        let p = pb.finish();
        let certs = infer_certificates(&p);
        let cert = &certs.funs[f.0 as usize];
        let alloc = cert.worst[C_ALLOC].as_finite().expect("finite alloc bound");
        assert_eq!(alloc.k, 0);
        // The single term is max(n − i, 0) with coefficient 1.
        assert_eq!(alloc.terms.len(), 1);
        let (atom, &c) = alloc.terms.iter().next().unwrap();
        assert_eq!(c, 1);
        let Atom::Pos(r) = atom else {
            panic!("expected a Pos atom, got {atom:?}")
        };
        assert_eq!(r.coeffs.get(&0), Some(&-1)); // −i
        assert_eq!(r.coeffs.get(&1), Some(&1)); // +n
        assert_eq!(r.k, 0);
    }
}
