//! Brute-force SAT and model counting — the test oracles.

use crate::formula::Cnf;

/// Whether the formula is satisfiable (exhaustive search, ≤ 25 variables).
pub fn brute_force_sat(cnf: &Cnf) -> bool {
    assert!(cnf.num_vars <= 25, "brute force limited to 25 variables");
    let n = cnf.num_vars as usize;
    let mut assignment = vec![false; n];
    for mask in 0u64..(1u64 << n) {
        for (i, slot) in assignment.iter_mut().enumerate() {
            *slot = mask >> i & 1 == 1;
        }
        if cnf.eval(&assignment) {
            return true;
        }
    }
    // 0 variables: the empty assignment decides.
    if n == 0 {
        return cnf.clauses.iter().all(|c| !c.is_empty());
    }
    false
}

/// The number of satisfying assignments (exhaustive, ≤ 25 variables).
pub fn brute_force_count(cnf: &Cnf) -> u64 {
    assert!(cnf.num_vars <= 25, "brute force limited to 25 variables");
    let n = cnf.num_vars as usize;
    let mut assignment = vec![false; n];
    let mut count = 0;
    for mask in 0u64..(1u64 << n) {
        for (i, slot) in assignment.iter_mut().enumerate() {
            *slot = mask >> i & 1 == 1;
        }
        if cnf.eval(&assignment) {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::{Clause, Lit};

    #[test]
    fn simple_counts() {
        // (x0 ∨ x1): 3 of 4 assignments.
        let cnf = Cnf::new(2, vec![Clause::new([Lit::pos(0), Lit::pos(1)]).unwrap()]);
        assert!(brute_force_sat(&cnf));
        assert_eq!(brute_force_count(&cnf), 3);
    }

    #[test]
    fn unsat_detected() {
        let cnf = Cnf::new(
            1,
            vec![Clause::new([Lit::pos(0)]).unwrap(), Clause::new([Lit::neg(0)]).unwrap()],
        );
        assert!(!brute_force_sat(&cnf));
        assert_eq!(brute_force_count(&cnf), 0);
    }

    #[test]
    fn unused_variables_double_count() {
        let cnf = Cnf::new(3, vec![Clause::new([Lit::pos(0)]).unwrap()]);
        assert_eq!(brute_force_count(&cnf), 4);
    }

    #[test]
    fn empty_formula_is_valid() {
        let cnf = Cnf::new(2, vec![]);
        assert_eq!(brute_force_count(&cnf), 4);
        assert!(brute_force_sat(&cnf));
    }

    #[test]
    fn empty_clause_is_unsat() {
        let cnf = Cnf::new(2, vec![Clause::new([]).unwrap()]);
        assert!(!brute_force_sat(&cnf));
        assert_eq!(brute_force_count(&cnf), 0);
    }
}
