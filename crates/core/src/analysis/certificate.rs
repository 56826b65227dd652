//! Cost certificates: the artifact of the potential analysis and the
//! independent checker that re-verifies them against the IR.
//!
//! A [`FunCert`] claims, for one function, an upper bound per RC
//! counter (in both [`CostMode`]s), per-constructor bounds on the cells
//! its result can hold, and how often it applies each of its
//! parameters. A [`CertSet`] holds one certificate per program
//! function.
//!
//! # Checker soundness
//!
//! [`check_fun_cert`] knows nothing about how a certificate was
//! guessed. It re-evaluates every control-flow path of the function
//! symbolically (taking the certificate set itself as the inductive
//! hypothesis at call sites) and asks the entailment engine of
//! [`super::linear`] to prove `claim − path_cost ≥ 0` under the path's
//! guard and match facts. If every path of every function discharges,
//! the claims hold for all terminating runs by induction on the call
//! tree: a run's outermost call unfolds into sub-calls whose claims are
//! either (a) already verified certificates of *other* functions or
//! (b) the claim under test applied to structurally smaller work —
//! exactly the premise of the per-path verification condition. The
//! entailment engine only ever *under*-approximates (it may fail to
//! prove a true inequality, never prove a false one), so a certificate
//! the checker accepts is sound; one it rejects may still be true but
//! is not certified.
//!
//! Certificates cover *normally completing* runs: abort paths are
//! excluded from both the claims and the runtime replay they are
//! validated against.
//!
//! # JSON schema
//!
//! `CertSet::to_json` emits (names resolved, stable key order):
//!
//! ```json
//! {"functions":[{"fun":0,"name":"map","params":["f","xs"],
//!   "recursive":true,
//!   "worst":{"alloc":{"const":0,"terms":[{"coeff":1,
//!     "atom":{"kind":"count","param":1,"ctor":"Cons"}}]}, …},
//!   "fbip":{…},
//!   "ret":{"Cons":{…}},
//!   "apps":[{…}, …]}]}
//! ```
//!
//! A bound is `null` for ω, else `{"const": b, "terms": [{coeff, atom}]}`
//! meaning `Σ coeff·atom + const`. An atom is either
//! `{"kind":"count","param":i,"ctor":name}` (constructor cells
//! reachable from parameter `i`) or `{"kind":"pos","const":k,
//! "coeffs":[{"param":i,"coeff":c}]}` (`max(Σ c·pᵢ + k, 0)` over raw
//! integer parameter values). This module only *emits* certificates;
//! there is deliberately no parser — consumers that want to re-check a
//! certificate re-infer and compare, which keeps the trusted base to
//! the evaluator + entailment engine.

use super::super::ir::program::{CtorId, FunId, Program};
use super::linear::{Atom, SymBound};
use super::potential::{eval_fun_paths, CostMode, COUNTERS, NCOUNTERS};
use crate::json::str_lit;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// The certified bounds of one function. All bounds are upper bounds
/// over atoms of the function's own parameters; [`SymBound::Omega`]
/// claims nothing.
#[derive(Debug, Clone)]
pub struct FunCert {
    /// The function this certifies.
    pub fun: FunId,
    /// Its name (for rendering and JSON).
    pub name: String,
    /// Whether the function is self-recursive (certificate is inductive).
    pub recursive: bool,
    /// Worst-case counter bounds, indexed like
    /// [`super::potential::COUNTERS`].
    pub worst: [SymBound; NCOUNTERS],
    /// FBIP-regime counter bounds (all uniqueness tests hit, all reuse
    /// tokens valid) — conditional, see [`CostMode::Fbip`].
    pub fbip: [SymBound; NCOUNTERS],
    /// Per-constructor bounds on the cells reachable from the result.
    pub ret: BTreeMap<CtorId, SymBound>,
    /// How often each parameter is applied as a closure (callers pay
    /// the per-application cost at instantiation).
    pub apps: Vec<SymBound>,
}

/// One certificate per function of a program, indexed by [`FunId`].
#[derive(Debug, Clone)]
pub struct CertSet {
    /// Certificates, position `i` ↔ `FunId(i)`.
    pub funs: Vec<FunCert>,
}

impl CertSet {
    /// The bottom certificate set: every claim is ω (trivially valid).
    /// `ret` is pre-keyed with every arity ≥ 1 constructor.
    pub fn bottom(p: &Program) -> CertSet {
        let counted: Vec<CtorId> = p
            .types
            .ctors()
            .filter(|(_, info)| info.arity >= 1)
            .map(|(id, _)| id)
            .collect();
        let funs = p
            .funs
            .iter()
            .enumerate()
            .map(|(i, f)| FunCert {
                fun: FunId(i as u32),
                name: f.name.to_string(),
                recursive: false,
                worst: std::array::from_fn(|_| SymBound::Omega),
                fbip: std::array::from_fn(|_| SymBound::Omega),
                ret: counted.iter().map(|&c| (c, SymBound::Omega)).collect(),
                apps: vec![SymBound::Omega; f.params.len()],
            })
            .collect();
        CertSet { funs }
    }

    /// The certificate of the function named `name`.
    pub fn fun_cert(&self, name: &str) -> Option<&FunCert> {
        self.funs.iter().find(|c| c.name == name)
    }
}

/// A rejected claim: which function, which claim, and why.
#[derive(Debug, Clone)]
pub struct CertError {
    /// The function whose certificate failed.
    pub fun: FunId,
    /// Its name.
    pub name: String,
    /// The cost model the claim belongs to.
    pub mode: CostMode,
    /// Which claim failed, e.g. `"alloc"`, `"ret[Cons]"`, `"apps[0]"`.
    pub slot: String,
    /// Human explanation.
    pub detail: String,
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:?} claim `{}` not verified: {}",
            self.name, self.mode, self.slot, self.detail
        )
    }
}

impl std::error::Error for CertError {}

/// Re-verifies one function's certificate against the IR under one
/// cost mode, independently of how it was inferred. Under
/// [`CostMode::Worst`] the `ret` and `apps` claims are checked too
/// (the worst-mode path set is a superset of the FBIP one, so checking
/// them there covers both).
pub fn check_fun_cert(
    p: &Program,
    certs: &CertSet,
    fun: FunId,
    mode: CostMode,
) -> Result<(), CertError> {
    let cert = &certs.funs[fun.0 as usize];
    let claims = match mode {
        CostMode::Worst => &cert.worst,
        CostMode::Fbip => &cert.fbip,
    };
    let err = |slot: String, detail: String| CertError {
        fun,
        name: cert.name.clone(),
        mode,
        slot,
        detail,
    };
    let paths = eval_fun_paths(p, certs, fun, mode);
    for (pi, path) in paths.iter().enumerate() {
        let verify = |claim: &SymBound, actual: &SymBound, slot: &str| -> Result<(), CertError> {
            let SymBound::Finite(claim) = claim else {
                return Ok(()); // ω claims nothing
            };
            let SymBound::Finite(actual) = actual else {
                return Err(err(
                    slot.to_string(),
                    format!("path #{pi} has unbounded cost but the claim is finite"),
                ));
            };
            let Some(goal) = claim.sub(actual) else {
                return Err(err(slot.to_string(), "coefficient overflow".to_string()));
            };
            if !path.facts.entails_nonneg(&goal) {
                return Err(err(
                    slot.to_string(),
                    format!("path #{pi}: cannot prove {claim} − ({actual}) ≥ 0"),
                ));
            }
            Ok(())
        };
        for (i, name) in COUNTERS.iter().enumerate() {
            verify(&claims[i], &path.cost[i], name)?;
        }
        if mode == CostMode::Worst {
            for (ct, claim) in &cert.ret {
                let actual = match &path.ret {
                    Some(m) => m.get(ct).cloned().unwrap_or_else(SymBound::zero),
                    None => SymBound::Omega,
                };
                let slot = format!("ret[{}]", p.types.ctor(*ct).name);
                verify(claim, &actual, &slot)?;
            }
            for (i, claim) in cert.apps.iter().enumerate() {
                verify(claim, &path.apps[i], &format!("apps[{i}]"))?;
            }
        }
    }
    Ok(())
}

/// Checks every certificate of a set under both cost modes; returns
/// every rejection.
pub fn check_cert_set(p: &Program, certs: &CertSet) -> Vec<CertError> {
    let mut out = Vec::new();
    for i in 0..certs.funs.len() {
        for mode in [CostMode::Worst, CostMode::Fbip] {
            if let Err(e) = check_fun_cert(p, certs, FunId(i as u32), mode) {
                out.push(e);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

fn atom_json(p: &Program, a: &Atom) -> String {
    match a {
        Atom::Count { param, ctor } => format!(
            "{{\"kind\":\"count\",\"param\":{},\"ctor\":{}}}",
            param,
            str_lit(&p.types.ctor(*ctor).name)
        ),
        Atom::Pos(r) => {
            let coeffs: Vec<String> = r
                .coeffs
                .iter()
                .map(|(i, c)| format!("{{\"param\":{i},\"coeff\":{c}}}"))
                .collect();
            format!(
                "{{\"kind\":\"pos\",\"const\":{},\"coeffs\":[{}]}}",
                r.k,
                coeffs.join(",")
            )
        }
    }
}

fn bound_json(p: &Program, b: &SymBound) -> String {
    match b {
        SymBound::Omega => "null".to_string(),
        SymBound::Finite(e) => {
            let terms: Vec<String> = e
                .terms
                .iter()
                .map(|(a, c)| format!("{{\"coeff\":{},\"atom\":{}}}", c, atom_json(p, a)))
                .collect();
            format!("{{\"const\":{},\"terms\":[{}]}}", e.k, terms.join(","))
        }
    }
}

/// Renders one bound for humans, resolving parameter and constructor
/// names: `2·|xs.Cons| + 3`, `max(n − i, 0)`, `ω`.
pub fn bound_human(p: &Program, fun: FunId, b: &SymBound) -> String {
    let params = &p.funs[fun.0 as usize].params;
    let pname = |i: u32| -> String {
        params
            .get(i as usize)
            .map(|v| v.hint().to_string())
            .unwrap_or_else(|| format!("p{i}"))
    };
    match b {
        SymBound::Omega => "ω".to_string(),
        SymBound::Finite(e) => e.render(&|a: &Atom| match a {
            Atom::Count { param, ctor } => {
                format!("|{}.{}|", pname(*param), p.types.ctor(*ctor).name)
            }
            Atom::Pos(r) => format!("max({}, 0)", r.render(&|i| pname(i))),
        }),
    }
}

impl CertSet {
    /// The full certificate JSON document (schema in the module docs).
    pub fn to_json(&self, p: &Program) -> String {
        let mut out = String::from("{\"functions\":[");
        for (i, cert) in self.funs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let params: Vec<String> = p.funs[cert.fun.0 as usize]
                .params
                .iter()
                .map(|v| str_lit(v.hint()))
                .collect();
            let _ = write!(
                out,
                "{{\"fun\":{},\"name\":{},\"params\":[{}],\"recursive\":{}",
                cert.fun.0,
                str_lit(&cert.name),
                params.join(","),
                cert.recursive
            );
            for (key, bounds) in [("worst", &cert.worst), ("fbip", &cert.fbip)] {
                let _ = write!(out, ",\"{key}\":{{");
                for (j, name) in COUNTERS.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":{}", name, bound_json(p, &bounds[j]));
                }
                out.push('}');
            }
            out.push_str(",\"ret\":{");
            for (j, (ct, b)) in cert.ret.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{}:{}",
                    str_lit(&p.types.ctor(*ct).name),
                    bound_json(p, b)
                );
            }
            out.push_str("},\"apps\":[");
            for (j, b) in cert.apps.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&bound_json(p, b));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Human-readable certificate table.
    pub fn render_human(&self, p: &Program) -> String {
        let mut out = String::new();
        for cert in &self.funs {
            let rec = if cert.recursive { " (recursive)" } else { "" };
            let _ = writeln!(out, "  {}{}:", cert.name, rec);
            for (key, bounds) in [("worst", &cert.worst), ("fbip ", &cert.fbip)] {
                let cols: Vec<String> = COUNTERS
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| bounds[*j].as_const() != Some(0))
                    .map(|(j, name)| format!("{name} ≤ {}", bound_human(p, cert.fun, &bounds[j])))
                    .collect();
                let line = if cols.is_empty() {
                    "0 everywhere".to_string()
                } else {
                    cols.join(", ")
                };
                let _ = writeln!(out, "    {key}: {line}");
            }
            let rets: Vec<String> = cert
                .ret
                .iter()
                .filter(|(_, b)| b.as_const() != Some(0))
                .map(|(ct, b)| {
                    format!(
                        "{} ≤ {}",
                        p.types.ctor(*ct).name,
                        bound_human(p, cert.fun, b)
                    )
                })
                .collect();
            if !rets.is_empty() {
                let _ = writeln!(out, "    ret:   {}", rets.join(", "));
            }
            let apps: Vec<String> = cert
                .apps
                .iter()
                .enumerate()
                .filter(|(_, b)| b.as_const() != Some(0))
                .map(|(i, b)| {
                    let pn = p.funs[cert.fun.0 as usize]
                        .params
                        .get(i)
                        .map(|v| v.hint().to_string())
                        .unwrap_or_else(|| format!("p{i}"));
                    format!("{pn} applied ≤ {}", bound_human(p, cert.fun, b))
                })
                .collect();
            if !apps.is_empty() {
                let _ = writeln!(out, "    apps:  {}", apps.join(", "));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::linear::LinExpr;
    use super::super::potential::{infer_certificates, C_ALLOC};
    use super::*;
    use crate::ir::builder::{arm, arm0, con, ProgramBuilder};
    use crate::ir::expr::Expr;
    use crate::ir::program::TypeTable;

    fn copy_program() -> (Program, FunId, CtorId) {
        // fun copy(xs) = match xs { Nil -> Nil; Cons(x, xx) ->
        //   Cons(x, copy(xx)) }
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
        (pb.finish(), f, cons)
    }

    #[test]
    fn inferred_certificates_pass_the_checker() {
        let (p, _, _) = copy_program();
        let certs = infer_certificates(&p);
        let errs = check_cert_set(&p, &certs);
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn perturbed_certificate_is_rejected() {
        let (p, f, cons) = copy_program();
        let mut certs = infer_certificates(&p);
        // The inferred alloc bound is 1·|xs.Cons|; claiming one less
        // must fail the checker.
        let alloc = certs.funs[f.0 as usize].worst[C_ALLOC].clone();
        let SymBound::Finite(e) = alloc else {
            panic!("expected finite alloc bound")
        };
        assert_eq!(
            e.terms
                .get(&Atom::Count {
                    param: 0,
                    ctor: cons
                })
                .copied(),
            Some(1)
        );
        let perturbed = e
            .sub(&LinExpr::atom(Atom::Count {
                param: 0,
                ctor: cons,
            }))
            .unwrap();
        certs.funs[f.0 as usize].worst[C_ALLOC] = SymBound::Finite(perturbed);
        assert!(check_fun_cert(&p, &certs, f, CostMode::Worst).is_err());
        // Constant perturbation of a claim whose constant is already
        // minimal must also fail.
        let mut certs2 = infer_certificates(&p);
        let SymBound::Finite(e2) = certs2.funs[f.0 as usize].worst[C_ALLOC].clone() else {
            panic!()
        };
        certs2.funs[f.0 as usize].worst[C_ALLOC] = SymBound::Finite(e2.add_k(-1).unwrap());
        assert!(check_fun_cert(&p, &certs2, f, CostMode::Worst).is_err());
    }

    #[test]
    fn bottom_set_is_trivially_valid() {
        let (p, _, _) = copy_program();
        let certs = CertSet::bottom(&p);
        assert!(check_cert_set(&p, &certs).is_empty());
    }

    #[test]
    fn json_and_human_rendering() {
        let (p, f, _) = copy_program();
        let certs = infer_certificates(&p);
        let json = certs.to_json(&p);
        assert!(json.contains("\"name\":\"copy\""));
        assert!(json.contains("\"recursive\":true"));
        assert!(json.contains("\"kind\":\"count\""));
        assert!(json.contains("\"ctor\":\"Cons\""));
        let human = certs.render_human(&p);
        assert!(human.contains("copy (recursive)"));
        assert!(human.contains("alloc ≤ |xs.Cons|"), "{human}");
        // ω rendering resolves through bound_human.
        assert_eq!(bound_human(&p, f, &SymBound::Omega), "ω");
        let _ = TypeTable::TRUE; // silence unused import on some cfgs
    }
}
