//! A mutation corpus for the λ¹ checker (Fig. 5, Theorem 3): the final
//! code of every suite program under every reference-counting pipeline
//! is accepted, and so no mutant of it that deletes one `dup`, `drop`,
//! `decref`, `free` or `drop-token`, or points one at another variable in
//! scope, may be accepted.

use perceus_core::check::check_program;
use perceus_core::ir::{Expr, Program, Var};
use perceus_core::passes::{PassConfig, Pipeline};
use perceus_suite::workloads;

fn configs() -> [(&'static str, PassConfig); 4] {
    [
        ("perceus", PassConfig::perceus()),
        ("perceus-no-opt", PassConfig::perceus_no_opt()),
        ("scoped", PassConfig::scoped()),
        ("borrowing", PassConfig::perceus_borrowing()),
    ]
}

#[derive(Clone, Copy, Debug)]
enum Mutation {
    /// The instruction is removed; its continuation takes its place.
    Delete,
    /// The instruction names the innermost other variable in scope.
    Retarget,
}

/// The variable of a `dup`, `drop`, `decref`, `free` or `drop-token`.
fn rc_var(e: &mut Expr) -> Option<&mut Var> {
    match e {
        Expr::Dup(x, _)
        | Expr::Drop(x, _)
        | Expr::DecRef(x, _)
        | Expr::Free(x, _)
        | Expr::DropToken(x, _) => Some(x),
        _ => None,
    }
}

fn count_rc(e: &Expr) -> usize {
    let mut n = 0;
    e.visit(&mut |e| {
        n += usize::from(matches!(
            e,
            Expr::Dup(..)
                | Expr::Drop(..)
                | Expr::DecRef(..)
                | Expr::Free(..)
                | Expr::DropToken(..)
        ))
    });
    n
}

/// Applies `m` to the rc instruction `k` places further in pre-order,
/// counting `k` down; `scope` holds the variables in scope, innermost
/// last. Returns `Some(applied)` once the instruction is reached:
/// `false` when there is no other variable to retarget it to.
fn mutate(e: &mut Expr, k: &mut usize, m: Mutation, scope: &mut Vec<Var>) -> Option<bool> {
    if let Some(x) = rc_var(e) {
        if *k == 0 {
            return Some(match m {
                Mutation::Delete => {
                    let rest = match e {
                        Expr::Dup(_, r)
                        | Expr::Drop(_, r)
                        | Expr::DecRef(_, r)
                        | Expr::Free(_, r)
                        | Expr::DropToken(_, r) => std::mem::replace(&mut **r, Expr::unit()),
                        _ => unreachable!("an rc instruction"),
                    };
                    *e = rest;
                    true
                }
                Mutation::Retarget => match scope.iter().rev().find(|v| *v != x) {
                    Some(other) => {
                        *x = other.clone();
                        true
                    }
                    None => false,
                },
            });
        }
        *k -= 1;
    }
    let mark = scope.len();
    let found = match e {
        Expr::Let { var, rhs, body } => mutate(rhs, k, m, scope).or_else(|| {
            scope.push(var.clone());
            mutate(body, k, m, scope)
        }),
        Expr::Match { arms, default, .. } => arms
            .iter_mut()
            .find_map(|arm| {
                scope.truncate(mark);
                scope.extend(
                    arm.binders
                        .iter()
                        .flatten()
                        .chain(&arm.reuse_token)
                        .cloned(),
                );
                mutate(&mut arm.body, k, m, scope)
            })
            .or_else(|| {
                scope.truncate(mark);
                default.as_mut().and_then(|d| mutate(d, k, m, scope))
            }),
        Expr::DropReuse { token, body, .. } => {
            scope.push(token.clone());
            mutate(body, k, m, scope)
        }
        Expr::Lam(lam) => {
            // A lambda body sees only its captures and parameters.
            let outer = std::mem::replace(scope, lam.captures.clone());
            scope.extend(lam.params.iter().cloned());
            let found = mutate(&mut lam.body, k, m, scope);
            *scope = outer;
            return found;
        }
        _ => {
            let mut found = None;
            e.for_each_child_mut(|c| {
                if found.is_none() {
                    found = mutate(c, k, m, scope);
                }
            });
            found
        }
    };
    scope.truncate(mark);
    found
}

/// Every mutant of `p` made by `m`: how many were made, and the ones
/// `check_program` accepted.
fn accepted_mutants(p: &Program, m: Mutation) -> (usize, Vec<String>) {
    let mut made = 0;
    let mut accepted = Vec::new();
    for (f, def) in p.funs.iter().enumerate() {
        for k in 0..count_rc(&def.body) {
            let mut q = p.clone();
            let mut scope = def.params.clone();
            let applied = mutate(&mut q.funs[f].body, &mut { k }, m, &mut scope);
            if applied != Some(true) {
                continue;
            }
            made += 1;
            if check_program(&q).is_ok() {
                accepted.push(format!("{m:?} of rc instruction #{k} in {}", def.name));
            }
        }
    }
    (made, accepted)
}

#[test]
fn every_deleted_or_retargeted_rc_instruction_is_rejected() {
    let mut totals = [0usize; 2];
    for w in workloads() {
        let lowered = perceus_lang::compile_str(w.source).expect("suite programs compile");
        for (label, config) in configs() {
            let p = Pipeline::new(config)
                .run(lowered.clone())
                .expect("pipeline");
            check_program(&p).unwrap_or_else(|e| panic!("{} under {label}: {e}", w.name));
            for (i, m) in [Mutation::Delete, Mutation::Retarget]
                .into_iter()
                .enumerate()
            {
                let (made, accepted) = accepted_mutants(&p, m);
                totals[i] += made;
                assert!(
                    accepted.is_empty(),
                    "{} under {label}: accepted {accepted:?}",
                    w.name
                );
            }
        }
    }
    // 13 programs × 4 pipelines: 7 258 deletions and 7 217 retargets.
    assert_eq!(totals, [7_258, 7_217], "mutants made");
}
