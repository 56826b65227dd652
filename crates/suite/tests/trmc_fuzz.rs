//! Constructor recursion compiled as a loop (tail recursion modulo
//! cons), fuzzed: random structurally recursive list functions
//! ([`random_list_recursion`]) with sites, tail self calls, tests,
//! aborts and reuse or fresh cells, run against the Fig. 6 oracle.

use perceus_runtime::machine::RunConfig;
use perceus_suite::diff::{differential_check, FuzzConfig};
use perceus_suite::driver::compile_program;
use perceus_suite::genprog::random_list_recursion;
use perceus_suite::{run_workload, run_workload_budgeted, Strategy};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every strategy agrees with the oracle, leaks nothing and audits
    /// garbage-free at every step; the Perceus build compiles a site,
    /// and a run suspended every `budget` steps (audited at each
    /// suspension, contexts included) ends with the uninterrupted run's
    /// value and counters.
    #[test]
    fn constructor_loops_run_like_the_oracle(
        seed in any::<u64>(),
        size in 8u32..40,
        n in 0i64..12,
        budget in 1u32..64,
    ) {
        let program = random_list_recursion(seed, size);
        let cfg = FuzzConfig {
            arg: n,
            audit_every: Some(1),
            shrink: false,
            ..FuzzConfig::default()
        };
        let outcome = differential_check(&program, &cfg);
        prop_assert!(outcome.agreed(), "seed {}: {:?}", seed, outcome.divergences);
        let c = compile_program(program, Strategy::Perceus).unwrap();
        prop_assert!(c.funs.iter().any(|f| f.trmc), "seed {}: no site", seed);
        let whole = run_workload(&c, Strategy::Perceus, n, RunConfig::default());
        let legs = run_workload_budgeted(&c, Strategy::Perceus, n, RunConfig::default(), &[u64::from(budget)]);
        match (whole, legs) {
            (Ok(whole), Ok(legs)) => {
                prop_assert_eq!(&legs.outcome.value, &whole.value, "seed {}", seed);
                prop_assert_eq!(legs.outcome.stats, whole.stats, "seed {}", seed);
                prop_assert_eq!(legs.outcome.leaked_blocks, 0, "seed {}", seed);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string(), "seed {}", seed),
            (a, b) => prop_assert!(false, "seed {}: {:?} vs {:?}", seed, a.err(), b.err()),
        }
    }
}

/// The generator makes what it promises: in 200 programs, functions
/// the rule compiles as loops and ones it rules out (a tail call of
/// another function), runs that abort and runs that finish.
#[test]
fn generated_programs_cover_loops_exclusions_and_aborts() {
    let (mut loops, mut excluded, mut aborts, mut done) = (0, 0, 0, 0);
    for seed in 0..200 {
        let c = compile_program(random_list_recursion(seed, 24), Strategy::Perceus).unwrap();
        let recs = c.funs.iter().filter(|f| f.name.starts_with("rec"));
        for f in recs {
            if f.trmc {
                loops += 1;
            } else {
                excluded += 1;
            }
        }
        match run_workload(&c, Strategy::Perceus, 8, RunConfig::default()) {
            Ok(_) => done += 1,
            Err(_) => aborts += 1,
        }
    }
    assert!(
        loops >= 200 && excluded > 10,
        "{loops} loops, {excluded} excluded"
    );
    assert!(
        aborts > 10 && done > 100,
        "{aborts} aborted, {done} finished"
    );
}
