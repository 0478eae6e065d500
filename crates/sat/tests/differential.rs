//! Differential testing of the CDCL solver against the exhaustive reference
//! solver, plus randomized checks of assumptions and unsat cores.

use emm_sat::naive::NaiveSolver;
use emm_sat::{Budget, CnfSink, Lit, SolveResult, Solver, Var};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Builds `n_vars` fresh variables in a solver.
fn mk_vars(s: &mut Solver, n: usize) -> Vec<Lit> {
    (0..n).map(|_| s.new_var().positive()).collect()
}

fn random_cnf(rng: &mut StdRng, n_vars: usize, n_clauses: usize, max_len: usize) -> Vec<Vec<Lit>> {
    (0..n_clauses)
        .map(|_| {
            let len = rng.random_range(1..=max_len);
            (0..len)
                .map(|_| {
                    let v = Var::from_index(rng.random_range(0..n_vars));
                    Lit::new(v, rng.random_bool(0.5))
                })
                .collect()
        })
        .collect()
}

#[test]
fn random_cnf_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0xE33);
    let mut n_sat = 0;
    let mut n_unsat = 0;
    for round in 0..300 {
        let n_vars = rng.random_range(3..14);
        let n_clauses = rng.random_range(1..(n_vars * 5));
        let cnf = random_cnf(&mut rng, n_vars, n_clauses, 3);

        let mut cdcl = Solver::new();
        mk_vars(&mut cdcl, n_vars);
        for c in &cnf {
            cdcl.add_clause(c);
        }
        let got = cdcl.solve();

        let mut reference = NaiveSolver::new(n_vars);
        for c in &cnf {
            reference.add_clause(c);
        }
        let expected = reference.solve().expect("small instance");
        match got {
            SolveResult::Sat => {
                assert!(
                    expected,
                    "round {round}: CDCL=SAT, reference=UNSAT\n{cnf:?}"
                );
                n_sat += 1;
                // The model must satisfy every clause.
                for c in &cnf {
                    assert!(
                        c.iter().any(|&l| cdcl.model_value(l) == Some(true)),
                        "round {round}: model violates {c:?}"
                    );
                }
            }
            SolveResult::Unsat => {
                assert!(
                    !expected,
                    "round {round}: CDCL=UNSAT, reference=SAT\n{cnf:?}"
                );
                n_unsat += 1;
            }
            SolveResult::Unknown => panic!("round {round}: unexpected Unknown"),
        }
    }
    assert!(n_sat > 20, "want a healthy mix, got {n_sat} SAT");
    assert!(n_unsat > 20, "want a healthy mix, got {n_unsat} UNSAT");
}

#[test]
fn random_assumptions_match_reference() {
    let mut rng = StdRng::seed_from_u64(0xA55);
    for round in 0..200 {
        let n_vars = rng.random_range(3..12);
        let n_clauses = rng.random_range(1..(n_vars * 4));
        let cnf = random_cnf(&mut rng, n_vars, n_clauses, 3);
        let n_assumptions = rng.random_range(0..=n_vars.min(4));
        let assumptions: Vec<Lit> = (0..n_assumptions)
            .map(|_| {
                Lit::new(
                    Var::from_index(rng.random_range(0..n_vars)),
                    rng.random_bool(0.5),
                )
            })
            .collect();

        let mut cdcl = Solver::new();
        mk_vars(&mut cdcl, n_vars);
        for c in &cnf {
            cdcl.add_clause(c);
        }
        let got = cdcl.solve_with(&assumptions);

        let mut reference = NaiveSolver::new(n_vars);
        for c in &cnf {
            reference.add_clause(c);
        }
        for &a in &assumptions {
            reference.add_clause(&[a]);
        }
        let expected = reference.solve().expect("small instance");
        match got {
            SolveResult::Sat => {
                assert!(
                    expected,
                    "round {round}: CDCL=SAT under {assumptions:?}\n{cnf:?}"
                );
                for &a in &assumptions {
                    assert_eq!(
                        cdcl.model_value(a),
                        Some(true),
                        "assumption {a:?} not honored"
                    );
                }
            }
            SolveResult::Unsat => {
                assert!(
                    !expected,
                    "round {round}: CDCL=UNSAT under {assumptions:?}\n{cnf:?}"
                );
                // The failed assumption set must itself be sufficient.
                let failed = cdcl.failed_assumptions().to_vec();
                for f in &failed {
                    assert!(
                        assumptions.contains(f),
                        "failed lit {f:?} not an assumption"
                    );
                }
                let mut replay = NaiveSolver::new(n_vars);
                for c in &cnf {
                    replay.add_clause(c);
                }
                for &a in &failed {
                    replay.add_clause(&[a]);
                }
                assert_eq!(
                    replay.solve(),
                    Some(false),
                    "round {round}: failed set {failed:?} insufficient"
                );
            }
            SolveResult::Unknown => panic!("round {round}: unexpected Unknown"),
        }
    }
}

#[test]
fn incremental_solving_matches_batch() {
    let mut rng = StdRng::seed_from_u64(0x1234);
    for _ in 0..100 {
        let n_vars = rng.random_range(3..10);
        let cnf = random_cnf(&mut rng, n_vars, n_vars * 4, 3);
        let mut inc = Solver::new();
        mk_vars(&mut inc, n_vars);
        let mut reference = NaiveSolver::new(n_vars);
        for (i, c) in cnf.iter().enumerate() {
            inc.add_clause(c);
            reference.add_clause(c);
            if i % 3 == 0 {
                let got = inc.solve();
                let expected = reference.clone().solve().expect("small");
                match got {
                    SolveResult::Sat => assert!(expected),
                    SolveResult::Unsat => assert!(!expected),
                    SolveResult::Unknown => panic!("unexpected Unknown"),
                }
                if got == SolveResult::Unsat {
                    break;
                }
            }
        }
    }
}

#[test]
#[allow(clippy::needless_range_loop)]
fn budget_unknown_then_resolvable() {
    // A hard instance aborted by budget can be finished with more budget.
    let mut s = Solver::new();
    let mut rows: Vec<Vec<Lit>> = Vec::new();
    let (pigeons, holes) = (9, 8);
    for _ in 0..pigeons {
        rows.push((0..holes).map(|_| s.new_var().positive()).collect());
    }
    for row in &rows {
        s.add_clause(row);
    }
    for h in 0..holes {
        for i in 0..pigeons {
            for j in i + 1..pigeons {
                s.add_clause(&[!rows[i][h], !rows[j][h]]);
            }
        }
    }
    s.set_budget(Budget::conflicts(5));
    assert_eq!(s.solve(), SolveResult::Unknown);
    s.set_budget(Budget::unlimited());
    assert_eq!(s.solve(), SolveResult::Unsat);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tseitin AND/OR trees evaluate like the Boolean functions they encode.
    #[test]
    fn gate_trees_evaluate_correctly(inputs in proptest::collection::vec(any::<bool>(), 4),
                                     structure in 0u8..4) {
        let mut s = Solver::new();
        let lits: Vec<Lit> = (0..4).map(|_| s.new_var().positive()).collect();
        let (out, expected) = match structure {
            0 => {
                let g1 = s.add_and_gate(lits[0], lits[1]);
                let g2 = s.add_and_gate(lits[2], lits[3]);
                (s.add_and_gate(g1, g2), inputs.iter().all(|&b| b))
            }
            1 => {
                let g1 = s.add_or_gate(lits[0], lits[1]);
                let g2 = s.add_or_gate(lits[2], lits[3]);
                (s.add_or_gate(g1, g2), inputs.iter().any(|&b| b))
            }
            2 => {
                let g1 = s.add_and_gate(lits[0], !lits[1]);
                (s.add_or_gate(g1, lits[2]), (inputs[0] && !inputs[1]) || inputs[2])
            }
            _ => {
                let g1 = s.add_or_gate(!lits[0], lits[3]);
                (s.add_and_gate(g1, !lits[2]), (!inputs[0] || inputs[3]) && !inputs[2])
            }
        };
        for (l, &b) in lits.iter().zip(&inputs) {
            s.add_clause(&[if b { *l } else { !*l }]);
        }
        prop_assert_eq!(s.solve(), SolveResult::Sat);
        prop_assert_eq!(s.model_value(out), Some(expected));
    }
}

/// Selector-based (failed-assumption) group cores — the mechanism
/// proof-based abstraction uses — must be *sufficient*: solving the
/// formula with one activation selector per clause group, the groups
/// named by the failed selectors are UNSAT on their own, replayed
/// through the reference solver.
#[test]
fn selector_group_cores_are_sufficient() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let mut checked = 0;
    for _ in 0..150 {
        let n_vars = rng.random_range(3..9);
        let n_groups = rng.random_range(2..5);
        let clauses_per_group = rng.random_range(1..4);
        // Build groups of clauses.
        let groups: Vec<Vec<Vec<Lit>>> = (0..n_groups)
            .map(|_| random_cnf(&mut rng, n_vars, clauses_per_group, 3))
            .collect();

        // One selector per group, assumption-based core.
        let mut b = Solver::new();
        mk_vars(&mut b, n_vars);
        let selectors: Vec<Lit> = (0..n_groups).map(|_| b.new_var().positive()).collect();
        for (gi, group) in groups.iter().enumerate() {
            for clause in group {
                let mut guarded = clause.clone();
                guarded.push(!selectors[gi]);
                b.add_clause(&guarded);
            }
        }
        if b.solve_with(&selectors) != SolveResult::Unsat {
            continue;
        }
        checked += 1;
        let failed_groups: std::collections::HashSet<usize> = b
            .failed_assumptions()
            .iter()
            .filter_map(|l| selectors.iter().position(|s| s == l))
            .collect();

        let mut replay = NaiveSolver::new(n_vars);
        for &gi in &failed_groups {
            for clause in &groups[gi] {
                replay.add_clause(clause);
            }
        }
        assert_eq!(
            replay.solve(),
            Some(false),
            "selector core {failed_groups:?} must be sufficient"
        );
    }
    assert!(checked > 20, "too few UNSAT instances: {checked}");
}
