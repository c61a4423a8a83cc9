//! SAT by Davis–Putnam variable elimination (paper §8.3.1).
//!
//! Eliminating variable `v` replaces the clauses containing `v` by all
//! resolvents `C_i ∨ C_j − {v, ¬v}` for `C_i ∋ v`, `C_j ∋ ¬v` (tautologies
//! dropped, subsumed clauses removed). Along a nested elimination order of a
//! β-acyclic formula, every resolvent is subsumed by an existing clause or a
//! tautology (the chain property), so the clause set never grows and the
//! procedure is polynomial (Theorem 8.3).

use crate::formula::{Clause, Cnf};
use faq_hypergraph::{nested_elimination_order, Var};

/// Statistics from a Davis–Putnam run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DpStats {
    /// Maximum number of live clauses at any point.
    pub max_clauses: usize,
    /// Total resolvents generated (before tautology/subsumption filtering).
    pub resolvents: u64,
}

/// Davis–Putnam elimination along the given variable order (eliminates from
/// the **back** of `order`, matching the paper's vertex-ordering convention).
///
/// Works on any CNF; runs in polynomial time when `order` is a nested
/// elimination order of a β-acyclic formula, and may blow up otherwise.
pub fn davis_putnam_sat(cnf: &Cnf, order: &[Var]) -> (bool, DpStats) {
    let mut clauses: Vec<Clause> = cnf.clauses.clone();
    let mut stats = DpStats { max_clauses: clauses.len(), resolvents: 0 };

    // Initial housekeeping: an empty clause is immediate UNSAT.
    if clauses.iter().any(|c| c.is_empty()) {
        return (false, stats);
    }
    subsume(&mut clauses);

    for &v in order.iter().rev() {
        let (pos, rest): (Vec<Clause>, Vec<Clause>) =
            clauses.into_iter().partition(|c| c.polarity(v) == Some(true));
        let (neg, mut rest): (Vec<Clause>, Vec<Clause>) =
            rest.into_iter().partition(|c| c.polarity(v) == Some(false));

        // Resolve every positive clause with every negative clause.
        for ci in &pos {
            for cj in &neg {
                stats.resolvents += 1;
                if let Some(resolvent) = ci.without(v).or(&cj.without(v)) {
                    if resolvent.is_empty() {
                        return (false, stats);
                    }
                    rest.push(resolvent);
                }
            }
        }
        // Pure-literal case (pos or neg empty): the satisfied clauses vanish.
        subsume(&mut rest);
        stats.max_clauses = stats.max_clauses.max(rest.len());
        clauses = rest;
    }

    (true, stats)
}

/// Remove duplicate and subsumed clauses.
fn subsume(clauses: &mut Vec<Clause>) {
    clauses.sort_by_key(|c| c.len());
    let mut keep: Vec<Clause> = Vec::with_capacity(clauses.len());
    'outer: for c in clauses.drain(..) {
        for k in &keep {
            if k.implies(&c) {
                continue 'outer; // subsumed (or duplicate)
            }
        }
        keep.push(c);
    }
    *clauses = std::mem::take(&mut keep);
}

/// SAT for β-acyclic CNF in polynomial time (Theorem 8.3).
///
/// Returns `None` when the clause hypergraph is not β-acyclic.
pub fn sat_beta_acyclic(cnf: &Cnf) -> Option<(bool, DpStats)> {
    let order = nested_elimination_order(&cnf.hypergraph())?;
    Some(davis_putnam_sat(cnf, &order))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_sat;
    use crate::formula::Lit;
    use crate::gen::random_interval_cnf;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn simple_sat_and_unsat() {
        let sat = Cnf::new(
            2,
            vec![
                Clause::new([Lit::pos(0), Lit::pos(1)]).unwrap(),
                Clause::new([Lit::neg(0)]).unwrap(),
            ],
        );
        let (ok, _) = sat_beta_acyclic(&sat).unwrap();
        assert!(ok);

        let unsat = Cnf::new(
            1,
            vec![Clause::new([Lit::pos(0)]).unwrap(), Clause::new([Lit::neg(0)]).unwrap()],
        );
        let (ok, _) = sat_beta_acyclic(&unsat).unwrap();
        assert!(!ok);
    }

    #[test]
    fn matches_bruteforce_on_interval_cnfs() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..60 {
            let n = rng.gen_range(2..10u32);
            let m = rng.gen_range(1..12);
            let cnf = random_interval_cnf(n, m, 4, &mut rng);
            let (got, _) = sat_beta_acyclic(&cnf).expect("interval CNFs are β-acyclic");
            let want = brute_force_sat(&cnf);
            assert_eq!(got, want, "{cnf}");
        }
    }

    #[test]
    fn matches_bruteforce_on_arbitrary_small_cnfs_any_order() {
        // Davis–Putnam is correct along ANY order (just maybe slow).
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..60 {
            let n = rng.gen_range(2..7u32);
            let m = rng.gen_range(1..8);
            let cnf = crate::gen::random_cnf(n, m, 3, &mut rng);
            let order: Vec<Var> = (0..n).map(Var).collect();
            let (got, _) = davis_putnam_sat(&cnf, &order);
            assert_eq!(got, brute_force_sat(&cnf), "{cnf}");
        }
    }

    #[test]
    fn clause_count_stays_bounded_on_neo() {
        // Theorem 8.3's mechanism: along a NEO the live clause count never
        // exceeds the input clause count.
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..25 {
            let n = rng.gen_range(4..14u32);
            let m = rng.gen_range(2..16);
            let cnf = random_interval_cnf(n, m, 5, &mut rng);
            let (_, stats) = sat_beta_acyclic(&cnf).unwrap();
            assert!(
                stats.max_clauses <= cnf.clauses.len().max(1),
                "clause blow-up: {} -> {} on {cnf}",
                cnf.clauses.len(),
                stats.max_clauses
            );
        }
    }

    #[test]
    fn non_beta_acyclic_reports_none() {
        // Triangle of binary clauses + covering clause is α- but not β-acyclic.
        let cnf = Cnf::new(
            3,
            vec![
                Clause::new([Lit::pos(0), Lit::pos(1)]).unwrap(),
                Clause::new([Lit::pos(1), Lit::pos(2)]).unwrap(),
                Clause::new([Lit::pos(0), Lit::pos(2)]).unwrap(),
                Clause::new([Lit::pos(0), Lit::pos(1), Lit::pos(2)]).unwrap(),
            ],
        );
        assert!(sat_beta_acyclic(&cnf).is_none());
    }

    #[test]
    fn empty_and_trivial_formulas() {
        let top = Cnf::new(3, vec![]);
        assert!(sat_beta_acyclic(&top).unwrap().0);
        let bot = Cnf::new(2, vec![Clause::new([]).unwrap()]);
        assert!(!sat_beta_acyclic(&bot).unwrap().0);
    }
}
