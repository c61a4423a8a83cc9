//! #SAT / #WSAT by weighted-clause elimination (paper §8.3.2, Theorem 8.4).
//!
//! A weighted clause `(C, w)` denotes the box factor `ψ(x) = 1` if `x`
//! satisfies `C` and `w` otherwise; plain #SAT uses `w = 0`. Eliminating the
//! last variable `v` of a nested elimination order rewrites the clause chain
//! `∂(v)` (sorted by support size — nested by β-acyclicity) into:
//!
//! * `C'_0` — the empty clause of weight 2 (a scalar factor), and
//! * `C'_i = [C_i] − v` with weight
//!   `[color_{∂≤i_P}(C'_i ∨ v) + color_{∂≤i_N}(C'_i ∨ ¬v)] /
//!    [color_{∂<i_P}(C'_i ∨ v) + color_{∂<i_N}(C'_i ∨ ¬v)]`
//!   (0 when the denominator vanishes), where `color_C(D) = Π{w(C) : C ⟹ D}`.
//!
//! The supports of the new clauses are old supports minus `v`, so the
//! hypergraph remains β-acyclic and the instance size is unchanged — overall
//! polynomial time.

use crate::formula::{Clause, Cnf, Lit};
use faq_hypergraph::{nested_elimination_order, Var};

/// A weighted clause: value `1` when satisfied, `weight` otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct WClause {
    /// The clause.
    pub clause: Clause,
    /// The value taken by falsifying assignments.
    pub weight: f64,
}

impl WClause {
    /// A plain #SAT clause (weight 0).
    pub(crate) fn hard(clause: Clause) -> WClause {
        WClause { clause, weight: 0.0 }
    }
}

/// `color_C(D) = Π { weight(C) : C ∈ set, C ⟹ D }` (empty product = 1).
fn color(set: &[&WClause], d: &Clause) -> f64 {
    let mut acc = 1.0;
    for wc in set {
        if wc.clause.implies(d) {
            acc *= wc.weight;
        }
    }
    acc
}

/// Eliminate variable `v` from a weighted clause set, multiplying any scalar
/// (empty-clause) results into `scalar`.
fn eliminate(wclauses: Vec<WClause>, v: Var, scalar: &mut f64) -> Vec<WClause> {
    let (incident, mut rest): (Vec<WClause>, Vec<WClause>) =
        wclauses.into_iter().partition(|wc| wc.clause.polarity(v).is_some());

    if incident.is_empty() {
        // Σ_{x_v} of an expression without x_v: factor 2.
        *scalar *= 2.0;
        return rest;
    }

    // Sort ascending by support size; β-acyclicity + NEO makes this a chain.
    let mut sorted = incident;
    sorted.sort_by_key(|wc| wc.clause.len());

    // C'_0: empty clause of weight 2.
    *scalar *= 2.0;

    for i in 0..sorted.len() {
        let ci = &sorted[i];
        let ci_reduced = ci.clause.without(v);
        // D = C'_i ∨ v, D̄ = C'_i ∨ ¬v. Both always exist: C'_i has no v.
        let d_pos = ci_reduced.with(Lit { var: v, positive: true }).expect("no v in C'_i");
        let d_neg = ci_reduced.with(Lit { var: v, positive: false }).expect("no v in C'_i");

        let pol = |wc: &WClause, positive: bool| wc.clause.polarity(v) == Some(positive);
        let le_p: Vec<&WClause> = sorted[..=i].iter().filter(|wc| pol(wc, true)).collect();
        let le_n: Vec<&WClause> = sorted[..=i].iter().filter(|wc| pol(wc, false)).collect();
        let lt_p: Vec<&WClause> = sorted[..i].iter().filter(|wc| pol(wc, true)).collect();
        let lt_n: Vec<&WClause> = sorted[..i].iter().filter(|wc| pol(wc, false)).collect();

        let den = color(&lt_p, &d_pos) + color(&lt_n, &d_neg);
        let weight =
            if den == 0.0 { 0.0 } else { (color(&le_p, &d_pos) + color(&le_n, &d_neg)) / den };

        if ci_reduced.is_empty() {
            *scalar *= weight;
        } else {
            rest.push(WClause { clause: ci_reduced, weight });
        }
    }
    rest
}

/// #WSAT along a given elimination order (eliminates from the back).
///
/// Correct along a NEO of a β-acyclic clause hypergraph; the chain property is
/// what justifies the weight rewriting, so this function *requires* it and is
/// exposed for callers that computed the order themselves.
pub(crate) fn count_weighted_with_order(
    num_vars: u32,
    wclauses: Vec<WClause>,
    order: &[Var],
) -> f64 {
    assert_eq!(order.len(), num_vars as usize, "order must cover all variables");
    let mut scalar = 1.0;
    let mut live = wclauses;
    for &v in order.iter().rev() {
        if scalar == 0.0 {
            return 0.0;
        }
        live = eliminate(live, v, &mut scalar);
    }
    // All variables eliminated: surviving clauses are empty-support and were
    // folded into the scalar already; anything left must be empty.
    debug_assert!(live.iter().all(|wc| wc.clause.is_empty()));
    for wc in live {
        // An empty clause at the end contributes its weight directly.
        scalar *= wc.weight;
    }
    scalar
}

/// Weighted model count of a β-acyclic weighted CNF (Theorem 8.4).
/// Returns `None` when the clause hypergraph is not β-acyclic.
pub fn count_weighted_beta_acyclic(num_vars: u32, wclauses: &[WClause]) -> Option<f64> {
    let mut h = faq_hypergraph::Hypergraph::new();
    for i in 0..num_vars {
        h.add_vertex(Var(i));
    }
    for wc in wclauses {
        if !wc.clause.is_empty() {
            h.add_edge(wc.clause.vars());
        }
    }
    let order = nested_elimination_order(&h)?;
    Some(count_weighted_with_order(num_vars, wclauses.to_vec(), &order))
}

/// #SAT of a β-acyclic CNF in polynomial time (Theorem 8.4).
/// Returns `None` when the clause hypergraph is not β-acyclic.
pub fn count_beta_acyclic(cnf: &Cnf) -> Option<f64> {
    let wclauses: Vec<WClause> = cnf.clauses.iter().map(|c| WClause::hard(c.clone())).collect();
    count_weighted_beta_acyclic(cnf.num_vars, &wclauses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_count;
    use crate::gen::random_interval_cnf;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn single_clause_counts() {
        // (x0 ∨ x1) over 2 vars: 3 models.
        let cnf = Cnf::new(2, vec![Clause::new([Lit::pos(0), Lit::pos(1)]).unwrap()]);
        let got = count_beta_acyclic(&cnf).unwrap();
        assert!(close(got, 3.0), "{got}");
    }

    #[test]
    fn unsat_counts_zero() {
        let cnf = Cnf::new(
            1,
            vec![Clause::new([Lit::pos(0)]).unwrap(), Clause::new([Lit::neg(0)]).unwrap()],
        );
        assert!(close(count_beta_acyclic(&cnf).unwrap(), 0.0));
    }

    #[test]
    fn empty_formula_counts_all() {
        let cnf = Cnf::new(4, vec![]);
        assert!(close(count_beta_acyclic(&cnf).unwrap(), 16.0));
    }

    #[test]
    fn matches_bruteforce_on_interval_cnfs() {
        let mut rng = StdRng::seed_from_u64(123);
        for _ in 0..80 {
            let n = rng.gen_range(2..10u32);
            let m = rng.gen_range(1..12);
            let cnf = random_interval_cnf(n, m, 4, &mut rng);
            let got = count_beta_acyclic(&cnf).expect("interval CNFs are β-acyclic");
            let want = brute_force_count(&cnf) as f64;
            assert!(close(got, want), "{cnf}: got {got}, want {want}");
        }
    }

    #[test]
    fn weighted_counting_matches_bruteforce() {
        // Weighted semantics: Σ_x Π_C (1 if satisfied else w_C).
        let mut rng = StdRng::seed_from_u64(321);
        for _ in 0..40 {
            let n = rng.gen_range(2..8u32);
            let m = rng.gen_range(1..8);
            let cnf = random_interval_cnf(n, m, 3, &mut rng);
            let wclauses: Vec<WClause> = cnf
                .clauses
                .iter()
                .map(|c| WClause {
                    clause: c.clone(),
                    weight: [0.0, 0.5, 1.0, 2.0][rng.gen_range(0..4)],
                })
                .collect();
            let got = count_weighted_beta_acyclic(n, &wclauses).unwrap();
            // Brute force the weighted sum.
            let mut want = 0.0;
            let mut assignment = vec![false; n as usize];
            for mask in 0u64..(1 << n) {
                for (i, slot) in assignment.iter_mut().enumerate() {
                    *slot = mask >> i & 1 == 1;
                }
                let mut prod = 1.0;
                for wc in &wclauses {
                    if !wc.clause.eval(&assignment) {
                        prod *= wc.weight;
                    }
                }
                want += prod;
            }
            assert!(close(got, want), "got {got}, want {want}");
        }
    }

    #[test]
    fn duplicate_clauses_are_independent_factors() {
        // Two copies of (x0) with weight 0 — count is still 1 (x0 = true).
        let c = Clause::new([Lit::pos(0)]).unwrap();
        let wclauses = vec![WClause::hard(c.clone()), WClause::hard(c)];
        let got = count_weighted_beta_acyclic(1, &wclauses).unwrap();
        assert!(close(got, 1.0), "{got}");
    }

    #[test]
    fn non_beta_acyclic_reports_none() {
        let cnf = Cnf::new(
            3,
            vec![
                Clause::new([Lit::pos(0), Lit::pos(1)]).unwrap(),
                Clause::new([Lit::pos(1), Lit::pos(2)]).unwrap(),
                Clause::new([Lit::pos(0), Lit::pos(2)]).unwrap(),
                Clause::new([Lit::pos(0), Lit::pos(1), Lit::pos(2)]).unwrap(),
            ],
        );
        assert!(count_beta_acyclic(&cnf).is_none());
    }
}
