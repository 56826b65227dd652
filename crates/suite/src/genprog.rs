//! A generator of random, closed, well-formed, *terminating* core
//! programs, used by the property-based tests to fuzz the whole
//! pipeline (Lemma 1, Theorems 1–4) far beyond the hand-written suite.
//!
//! Generated programs are first-order-plus-closures over `int`, `bool`,
//! and a list type; they contain no user recursion, so they always
//! terminate, while still exercising every ownership situation:
//! multiple/zero uses of bindings, shared and unique data, matches that
//! can be reuse-paired, closures that capture, and higher-order calls.
//!
//! A second entry point, [`random_list_recursion`], generates the user
//! recursion the first leaves out: structurally recursive list
//! functions, which terminate because each recurses only on the tail it
//! matched, built so that the backend compiles them as loops (tail
//! recursion modulo cons).

use perceus_core::ir::builder::ite;
use perceus_core::ir::expr::{Arm, Expr, Lambda, PrimOp};
use perceus_core::ir::{CtorId, FunDef, FunId, Program, Var, VarGen};

/// Deterministic xorshift RNG (no external dependency needed here; the
/// property tests feed seeds from proptest).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// The generated value sorts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sort {
    Int,
    List,
    /// A mutable `ref<int>` cell (§2.7.3).
    RefInt,
}

struct Gen {
    rng: Rng,
    gen: VarGen,
    nil: CtorId,
    cons: CtorId,
    /// In-scope variables with their sorts.
    scope: Vec<(Var, Sort)>,
    /// Remaining size budget.
    fuel: u32,
    /// Callable helper functions (filled once they exist).
    helpers: Vec<FunId>,
}

/// Generates a random program whose entry takes one integer argument.
pub fn random_program(seed: u64, size: u32) -> Program {
    let mut p = Program::new();
    let list = p.types.add_data("list");
    let nil = p.types.add_ctor_arity(list, "Nil", 0);
    let cons = p.types.add_ctor_arity(list, "Cons", 2);

    let mut g = Gen {
        rng: Rng::new(seed),
        gen: VarGen::default(),
        nil,
        cons,
        scope: Vec::new(),
        fuel: size,
        helpers: Vec::new(),
    };

    // A couple of helper functions the main expression can call.
    let mut helpers = Vec::new();
    for i in 0..2 {
        let a = g.gen.fresh("a");
        let l = g.gen.fresh("l");
        g.scope = vec![(a.clone(), Sort::Int), (l.clone(), Sort::List)];
        g.fuel = size / 2;
        let want = if i == 0 { Sort::Int } else { Sort::List };
        let body = g.expr(want);
        helpers.push(p.add_fun(FunDef {
            name: format!("helper{i}").into(),
            params: vec![a, l],
            body,
        }));
    }

    let n = g.gen.fresh("n");
    g.scope = vec![(n.clone(), Sort::Int)];
    g.fuel = size;
    g.helpers = helpers.clone();
    let body = g.expr(Sort::Int);
    let main = p.add_fun(FunDef {
        name: "main".into(),
        params: vec![n],
        body,
    });
    p.entry = Some(main);
    p.var_gen = g.gen;
    p
}

/// Generates a random program of structurally recursive list functions
/// whose entry takes one integer argument. Each function `rec<j>(xs, a)`
/// matches `xs` and recurses only on its tail: in a constructor's last
/// field (a site of tail recursion modulo cons, with random other
/// fields), in tail position, or behind a random test; arms may abort,
/// and the `Nil` case returns a list. `rec0` has a site and no tail
/// call of another function, so it is always compiled as a loop; a
/// later one may tail-call an earlier one, which rules it out. `main`
/// builds a list and maps it, unique (reuse in place) or shared (fresh
/// cells).
pub fn random_list_recursion(seed: u64, size: u32) -> Program {
    let mut p = Program::new();
    let list = p.types.add_data("list");
    let nil = p.types.add_ctor_arity(list, "Nil", 0);
    let cons = p.types.add_ctor_arity(list, "Cons", 2);
    let mut g = Gen {
        rng: Rng::new(seed),
        gen: VarGen::default(),
        nil,
        cons,
        scope: Vec::new(),
        fuel: 0,
        helpers: Vec::new(),
    };
    // build(i, n) = if i >= n then Nil else Cons(i, build(i + 1, n))
    let (i, n) = (g.gen.fresh("i"), g.gen.fresh("n"));
    let build = p.add_fun(FunDef {
        name: "build".into(),
        params: vec![i.clone(), n.clone()],
        body: Expr::unit(),
    });
    let c = g.gen.fresh("c");
    let next = Expr::Prim(PrimOp::Add, vec![Expr::Var(i.clone()), Expr::int(1)]);
    let more = g.cons(
        Expr::Var(i.clone()),
        Expr::Call(build, vec![next, Expr::Var(n.clone())]),
    );
    p.funs[build.0 as usize].body = Expr::let_(
        c.clone(),
        Expr::Prim(PrimOp::Ge, vec![Expr::Var(i), Expr::Var(n)]),
        ite(c, g.nil(), more),
    );
    // sum(xs, acc): the loop that consumes a result.
    let (xs, acc, h, t) = (
        g.gen.fresh("xs"),
        g.gen.fresh("acc"),
        g.gen.fresh("h"),
        g.gen.fresh("t"),
    );
    let sum = p.add_fun(FunDef {
        name: "sum".into(),
        params: vec![xs.clone(), acc.clone()],
        body: Expr::unit(),
    });
    let add = Expr::Prim(
        PrimOp::Add,
        vec![Expr::Var(acc.clone()), Expr::Var(h.clone())],
    );
    p.funs[sum.0 as usize].body = g.match_xs(
        xs,
        h,
        t.clone(),
        Expr::Call(sum, vec![Expr::Var(t), add]),
        Expr::Var(acc),
    );

    let mut recs = Vec::new();
    for j in 0..1 + g.rng.below(3) {
        let (xs, a) = (g.gen.fresh("xs"), g.gen.fresh("a"));
        let f = p.add_fun(FunDef {
            name: format!("rec{j}").into(),
            params: vec![xs.clone(), a.clone()],
            body: Expr::unit(),
        });
        let (h, t) = (g.gen.fresh("h"), g.gen.fresh("t"));
        g.scope = vec![(h.clone(), Sort::Int), (a.clone(), Sort::Int)];
        let mut arm = g.rec_arm(f, &t, &recs, size / 4, 3);
        if j == 0 && !has_site(f, &arm) {
            arm = g.rec_site(f, &t, size / 4);
        }
        g.scope = vec![(a.clone(), Sort::Int)];
        let base = g.rec_base(size / 4);
        p.funs[f.0 as usize].body = g.match_xs(xs, h, t, arm, base);
        recs.push(f);
    }

    // main(n): map a built list once (unique) or twice (shared).
    let (n, xs) = (g.gen.fresh("n"), g.gen.fresh("xs"));
    g.scope = vec![(n.clone(), Sort::Int)];
    g.fuel = size / 4;
    let pick = |g: &mut Gen| {
        let f = recs[g.rng.below(recs.len())];
        let a = g.expr(Sort::Int);
        let mapped = Expr::Call(f, vec![Expr::Var(xs.clone()), a]);
        Expr::Call(sum, vec![mapped, Expr::int(0)])
    };
    let first = pick(&mut g);
    let body = if g.rng.chance(40) {
        let second = pick(&mut g);
        Expr::Prim(PrimOp::Add, vec![first, second])
    } else {
        first
    };
    let len = Expr::Prim(PrimOp::Min, vec![Expr::Var(n.clone()), Expr::int(40)]);
    let body = Expr::let_(xs, Expr::Call(build, vec![Expr::int(0), len]), body);
    let main = p.add_fun(FunDef {
        name: "main".into(),
        params: vec![n],
        body,
    });
    p.entry = Some(main);
    p.var_gen = g.gen;
    p
}

/// True when `e` has a constructor whose last field is a call of `f`.
fn has_site(f: FunId, e: &Expr) -> bool {
    match e {
        Expr::Con { args, .. } => matches!(args.last(), Some(Expr::Call(g, _)) if *g == f),
        Expr::Let { body, .. } => has_site(f, body),
        Expr::Match { arms, .. } => arms.iter().any(|a| has_site(f, &a.body)),
        _ => false,
    }
}

impl Gen {
    fn nil(&self) -> Expr {
        Expr::Con {
            ctor: self.nil,
            args: vec![],
            reuse: None,
            skip: vec![],
        }
    }

    fn cons(&self, head: Expr, tail: Expr) -> Expr {
        Expr::Con {
            ctor: self.cons,
            args: vec![head, tail],
            reuse: None,
            skip: vec![],
        }
    }

    /// `match xs { Cons(h, t) -> cons_body; Nil -> nil_body }`.
    fn match_xs(&self, xs: Var, h: Var, t: Var, cons_body: Expr, nil_body: Expr) -> Expr {
        Expr::Match {
            scrutinee: xs,
            arms: vec![
                Arm {
                    ctor: self.cons,
                    binders: vec![Some(h), Some(t)],
                    reuse_token: None,
                    body: cons_body,
                },
                Arm {
                    ctor: self.nil,
                    binders: vec![],
                    reuse_token: None,
                    body: nil_body,
                },
            ],
            default: None,
        }
    }

    /// A random integer expression over the scope, of `fuel` nodes.
    fn small_int(&mut self, fuel: u32) -> Expr {
        self.fuel = fuel;
        self.expr(Sort::Int)
    }

    /// `f(t, e)`: the recursion on the matched tail `t`.
    fn rec_call(&mut self, f: FunId, t: &Var, fuel: u32) -> Expr {
        let a = self.small_int(fuel);
        Expr::Call(f, vec![Expr::Var(t.clone()), a])
    }

    /// `Cons(e, f(t, e'))`: a site.
    fn rec_site(&mut self, f: FunId, t: &Var, fuel: u32) -> Expr {
        let head = self.small_int(fuel);
        let call = self.rec_call(f, t, fuel);
        self.cons(head, call)
    }

    /// The `Cons` arm of a recursive function `f`, `depth` tests deep:
    /// a site, a tail self call, a test between two arms, an abort
    /// behind a test, or a tail call of an earlier function in `recs`.
    fn rec_arm(&mut self, f: FunId, t: &Var, recs: &[FunId], fuel: u32, depth: u32) -> Expr {
        match self.rng.below(20) {
            _ if depth == 0 => self.rec_site(f, t, fuel),
            0..=9 => self.rec_site(f, t, fuel),
            10..=12 => self.rec_call(f, t, fuel),
            13..=16 => {
                let (a, b) = (self.small_int(fuel), self.small_int(fuel));
                let c = self.gen.fresh("c");
                let yes = self.rec_arm(f, t, recs, fuel, depth - 1);
                let no = self.rec_arm(f, t, recs, fuel, depth - 1);
                Expr::let_(
                    c.clone(),
                    Expr::Prim(PrimOp::Lt, vec![a, b]),
                    ite(c, yes, no),
                )
            }
            17 | 18 => {
                let (a, b) = (self.small_int(fuel), self.small_int(fuel));
                let c = self.gen.fresh("c");
                let rest = self.rec_arm(f, t, recs, fuel, depth - 1);
                let abort = Expr::Abort(format!("rec abort {}", self.rng.below(100)));
                Expr::let_(
                    c.clone(),
                    Expr::Prim(PrimOp::Eq, vec![a, b]),
                    ite(c, abort, rest),
                )
            }
            _ => match recs.last() {
                Some(&g) => self.rec_call(g, t, fuel),
                None => self.rec_site(f, t, fuel),
            },
        }
    }

    /// The `Nil` arm: a list (empty or fresh) or an abort.
    fn rec_base(&mut self, fuel: u32) -> Expr {
        match self.rng.below(10) {
            0..=4 => self.nil(),
            5..=7 => {
                let head = self.small_int(fuel);
                self.cons(head, self.nil())
            }
            8 => {
                self.fuel = fuel;
                self.expr(Sort::List)
            }
            _ => Expr::Abort("rec abort at the end".into()),
        }
    }

    fn vars_of(&self, sort: Sort) -> Vec<Var> {
        self.scope
            .iter()
            .filter(|(_, s)| *s == sort)
            .map(|(v, _)| v.clone())
            .collect()
    }

    fn expr(&mut self, sort: Sort) -> Expr {
        if self.fuel == 0 {
            return self.leaf(sort);
        }
        self.fuel -= 1;
        match sort {
            Sort::RefInt => self.leaf(sort),
            Sort::Int => match self.rng.below(13) {
                0 | 1 => self.leaf(sort),
                2 | 3 => {
                    let a = self.expr(Sort::Int);
                    let b = self.expr(Sort::Int);
                    let op =
                        [PrimOp::Add, PrimOp::Sub, PrimOp::Mul, PrimOp::Min][self.rng.below(4)];
                    Expr::Prim(op, vec![a, b])
                }
                4 => self.let_in(sort),
                5 => self.match_list(sort),
                6 => self.if_(sort),
                7 => self.call_helper(Sort::Int),
                8 => self.apply_lambda(),
                9 => self.with_ref(),
                10 => self.tshare_then(sort),
                _ => self.leaf(sort),
            },
            Sort::List => match self.rng.below(10) {
                0 | 1 => self.leaf(sort),
                2..=4 => {
                    let h = self.expr(Sort::Int);
                    let t = self.expr(Sort::List);
                    Expr::Con {
                        ctor: self.cons,
                        args: vec![h, t],
                        reuse: None,
                        skip: vec![],
                    }
                }
                5 => self.let_in(sort),
                6 => self.match_list(sort),
                7 => self.if_(sort),
                8 => self.call_helper(Sort::List),
                _ => self.leaf(sort),
            },
        }
    }

    fn leaf(&mut self, sort: Sort) -> Expr {
        let vars = self.vars_of(sort);
        match sort {
            Sort::RefInt => {
                // Only reachable through a scoped ref variable; read it.
                if let Some(v) = vars.first() {
                    Expr::Prim(PrimOp::RefGet, vec![Expr::Var(v.clone())])
                } else {
                    Expr::int(0)
                }
            }
            Sort::Int => {
                if !vars.is_empty() && self.rng.chance(60) {
                    Expr::Var(vars[self.rng.below(vars.len())].clone())
                } else {
                    Expr::int((self.rng.next() % 20) as i64 - 5)
                }
            }
            Sort::List => {
                if !vars.is_empty() && self.rng.chance(60) {
                    Expr::Var(vars[self.rng.below(vars.len())].clone())
                } else {
                    Expr::Con {
                        ctor: self.nil,
                        args: vec![],
                        reuse: None,
                        skip: vec![],
                    }
                }
            }
        }
    }

    /// `val r = ref(e); (r := e2); !r + e3` — exercises the §2.7.3
    /// reference-cell conventions (read retains content, write releases
    /// the old value) under every strategy.
    fn with_ref(&mut self) -> Expr {
        let init = self.expr(Sort::Int);
        let r = self.gen.fresh("r");
        self.scope.push((r.clone(), Sort::RefInt));
        let stores = self.rng.below(3);
        let mut body = {
            let extra = self.expr(Sort::Int);
            Expr::Prim(
                PrimOp::Add,
                vec![
                    Expr::Prim(PrimOp::RefGet, vec![Expr::Var(r.clone())]),
                    extra,
                ],
            )
        };
        for _ in 0..stores {
            let v = self.expr(Sort::Int);
            let s = self.gen.fresh("_st");
            body = Expr::let_(
                s,
                Expr::Prim(PrimOp::RefSet, vec![Expr::Var(r.clone()), v]),
                body,
            );
        }
        self.scope.pop();
        Expr::let_(r, Expr::Prim(PrimOp::RefNew, vec![init]), body)
    }

    /// `tshare(e); k` — flips a structure onto the atomic slow path
    /// (§2.7.2) and continues; counts must stay balanced either way.
    fn tshare_then(&mut self, sort: Sort) -> Expr {
        let shared = self.expr(Sort::List);
        let s = self.gen.fresh("_sh");
        let k = self.expr(sort);
        Expr::let_(s, Expr::Prim(PrimOp::TShare, vec![shared]), k)
    }

    fn let_in(&mut self, sort: Sort) -> Expr {
        let rhs_sort = if self.rng.chance(50) {
            Sort::Int
        } else {
            Sort::List
        };
        let rhs = self.expr(rhs_sort);
        let v = self.gen.fresh("v");
        self.scope.push((v.clone(), rhs_sort));
        let body = self.expr(sort);
        self.scope.pop();
        Expr::let_(v, rhs, body)
    }

    fn match_list(&mut self, sort: Sort) -> Expr {
        // Bind a scrutinee, then match it — sometimes sharing it first
        // (a second live use defeats reuse: exercises the slow path).
        let scrut_rhs = self.expr(Sort::List);
        let s = self.gen.fresh("s");
        let h = self.gen.fresh("h");
        let t = self.gen.fresh("t");
        self.scope.push((s.clone(), Sort::List));
        let keep_alive = self.rng.chance(30);
        self.scope.push((h.clone(), Sort::Int));
        self.scope.push((t.clone(), Sort::List));
        let cons_body = self.expr(sort);
        self.scope.pop();
        self.scope.pop();
        let nil_body = self.expr(sort);
        self.scope.pop();
        let mut m = Expr::Match {
            scrutinee: s.clone(),
            arms: vec![
                Arm {
                    ctor: self.cons,
                    binders: vec![Some(h), Some(t)],
                    reuse_token: None,
                    body: cons_body,
                },
                Arm {
                    ctor: self.nil,
                    binders: vec![],
                    reuse_token: None,
                    body: nil_body,
                },
            ],
            default: None,
        };
        if keep_alive && sort == Sort::Int {
            // Use the scrutinee again after the match via a length-ish
            // observation: match m2 { Cons -> 1; Nil -> 0 } + …
            let h2 = self.gen.fresh("h2");
            let t2 = self.gen.fresh("t2");
            let again = Expr::Match {
                scrutinee: s.clone(),
                arms: vec![
                    Arm {
                        ctor: self.cons,
                        binders: vec![Some(h2.clone()), Some(t2)],
                        reuse_token: None,
                        body: Expr::Var(h2),
                    },
                    Arm {
                        ctor: self.nil,
                        binders: vec![],
                        reuse_token: None,
                        body: Expr::int(0),
                    },
                ],
                default: None,
            };
            let x = self.gen.fresh("x");
            let y = self.gen.fresh("y");
            m = Expr::let_(
                x.clone(),
                again,
                Expr::let_(
                    y.clone(),
                    m,
                    Expr::Prim(PrimOp::Add, vec![Expr::Var(x), Expr::Var(y)]),
                ),
            );
        }
        Expr::let_(s, scrut_rhs, m)
    }

    fn if_(&mut self, sort: Sort) -> Expr {
        let a = self.expr(Sort::Int);
        let b = self.expr(Sort::Int);
        let c = self.gen.fresh("c");
        let t = self.expr(sort);
        let f = self.expr(sort);
        Expr::let_(c.clone(), Expr::Prim(PrimOp::Lt, vec![a, b]), ite(c, t, f))
    }

    fn call_helper(&mut self, sort: Sort) -> Expr {
        if self.helpers.is_empty() {
            return self.leaf(sort);
        }
        let which = match sort {
            Sort::Int | Sort::RefInt => self.helpers[0],
            Sort::List => self.helpers[self.helpers.len() - 1],
        };
        let a = self.expr(Sort::Int);
        let l = self.expr(Sort::List);
        Expr::Call(which, vec![a, l])
    }

    /// Builds and immediately applies a closure capturing the scope.
    fn apply_lambda(&mut self) -> Expr {
        let p1 = self.gen.fresh("p");
        let saved: Vec<(Var, Sort)> = self.scope.clone();
        self.scope.push((p1.clone(), Sort::Int));
        let body = self.expr(Sort::Int);
        self.scope = saved;
        let arg = self.expr(Sort::Int);
        Expr::App(
            Box::new(Expr::Lam(Lambda {
                params: vec![p1],
                captures: Vec::new(), // normalization computes these
                body: Box::new(body),
            })),
            vec![arg],
        )
    }
}
