//! Random CNF generators for tests and benchmarks.

use crate::formula::{Clause, Cnf, Lit};
use rand::Rng;

/// A random *interval* CNF: every clause's variable set is a contiguous
/// interval of `{0, …, n−1}`. Interval hypergraphs are β-acyclic (any subset
/// of intervals GYO-reduces), so these formulas exercise the polynomial
/// Theorem 8.3 / 8.4 algorithms.
pub fn random_interval_cnf<R: Rng>(
    num_vars: u32,
    num_clauses: usize,
    max_width: u32,
    rng: &mut R,
) -> Cnf {
    assert!(num_vars >= 1);
    let mut clauses = Vec::with_capacity(num_clauses);
    while clauses.len() < num_clauses {
        let w = rng.gen_range(1..=max_width.min(num_vars));
        let start = rng.gen_range(0..=(num_vars - w));
        let lits =
            (start..start + w).map(|i| if rng.gen_bool(0.5) { Lit::pos(i) } else { Lit::neg(i) });
        clauses.push(Clause::new(lits).expect("interval literals are distinct"));
    }
    Cnf::new(num_vars, clauses)
}

/// A general random CNF (arbitrary supports) for cross-validation.
#[cfg(test)]
pub(crate) fn random_cnf<R: Rng>(
    num_vars: u32,
    num_clauses: usize,
    max_width: u32,
    rng: &mut R,
) -> Cnf {
    assert!(num_vars >= 1);
    let mut clauses = Vec::with_capacity(num_clauses);
    while clauses.len() < num_clauses {
        let w = rng.gen_range(1..=max_width.min(num_vars)) as usize;
        let mut vars: Vec<u32> = (0..num_vars).collect();
        // Fisher–Yates prefix shuffle.
        for i in 0..w {
            let j = rng.gen_range(i..vars.len());
            vars.swap(i, j);
        }
        let lits =
            vars[..w].iter().map(|&i| if rng.gen_bool(0.5) { Lit::pos(i) } else { Lit::neg(i) });
        clauses.push(Clause::new(lits).expect("distinct variables"));
    }
    Cnf::new(num_vars, clauses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faq_hypergraph::is_beta_acyclic;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn interval_cnfs_are_beta_acyclic() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..40 {
            let cnf = random_interval_cnf(8, 10, 4, &mut rng);
            assert!(is_beta_acyclic(&cnf.hypergraph()), "{cnf}");
        }
    }

    #[test]
    fn generators_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        let cnf = random_cnf(6, 12, 3, &mut rng);
        assert_eq!(cnf.clauses.len(), 12);
        for c in &cnf.clauses {
            assert!(c.len() <= 3 && !c.is_empty());
        }
    }
}
