//! Constraint satisfaction problems as FAQ instances (paper Appendix A).
//!
//! * k-coloring (Example A.2): Boolean FAQ with disequality factors;
//! * #k-coloring: the same hypergraph over the counting semiring;
//! * the permanent (Example A.11): `Σ_x Π_i ψ_i(x_i) Π_{j<k} [x_j ≠ x_k]`;
//! * triangle counting (Example A.8) lives in [`crate::joins`].

use faq_core::{Engine, FaqError, FaqQuery, VarAgg};
use faq_factor::{Domains, Factor};
use faq_hypergraph::Var;
use faq_semiring::{AggDomain, AggId, BoolDomain, CountDomain, SemiringElem};

/// Build the disequality factor `ψ(x_u, x_v) = [x_u ≠ x_v]` over `k` values.
fn diseq_bool(u: Var, w: Var, k: u32) -> Factor<bool> {
    Factor::dense(vec![u, w], &[k, k], |t| t[0] != t[1], |&b| !b).expect("distinct vars")
}

fn diseq_count(u: Var, w: Var, k: u32) -> Factor<u64> {
    Factor::dense(vec![u, w], &[k, k], |t| u64::from(t[0] != t[1]), |&x| x == 0)
        .expect("distinct vars")
}

/// Whether the graph (edge list over `n` nodes) is `k`-colorable.
pub fn is_k_colorable(n: u32, edges: &[(u32, u32)], k: u32) -> Result<bool, FaqError> {
    let factors = edges.iter().map(|&(a, b)| diseq_bool(Var(a), Var(b), k)).collect();
    let q = coloring_query(BoolDomain, BoolDomain::OR, n, k, factors)?;
    Ok(Engine::sequential().evaluate(&q)?.scalar().copied().unwrap_or(false))
}

/// The number of proper `k`-colorings of the graph.
pub fn count_k_colorings(n: u32, edges: &[(u32, u32)], k: u32) -> Result<u64, FaqError> {
    let factors = edges.iter().map(|&(a, b)| diseq_count(Var(a), Var(b), k)).collect();
    let q = coloring_query(CountDomain, CountDomain::SUM, n, k, factors)?;
    Ok(Engine::sequential().evaluate(&q)?.scalar().copied().unwrap_or(0))
}

/// `⊕_{x_0} … ⊕_{x_{n−1}}` of the product of the disequality `factors` over
/// `k` colors, `⊕` being the aggregate `op` of `domain`.
fn coloring_query<D: AggDomain>(
    domain: D,
    op: AggId,
    n: u32,
    k: u32,
    factors: Vec<Factor<D::E>>,
) -> Result<FaqQuery<D>, FaqError> {
    let bound = (0..n).map(|i| (Var(i), VarAgg::Semiring(op))).collect();
    FaqQuery::new(domain, Domains::uniform(n as usize, k), vec![], bound, factors)
}

/// The permanent of an `n×n` non-negative integer matrix via FAQ
/// (Example A.11): variable `x_i` = the column assigned to row `i`; singleton
/// factors carry the entries, pairwise disequalities enforce a permutation.
pub fn permanent(a: &[Vec<u64>]) -> Result<u64, FaqError> {
    let n = a.len() as u32;
    assert!(a.iter().all(|row| row.len() == n as usize), "square matrix required");
    let mut factors: Vec<Factor<u64>> = Vec::new();
    for (i, row) in a.iter().enumerate() {
        factors.push(
            Factor::new(
                vec![Var(i as u32)],
                row.iter()
                    .enumerate()
                    .filter(|(_, &v)| v != 0)
                    .map(|(j, &v)| (vec![j as u32], v))
                    .collect(),
            )
            .expect("distinct columns"),
        );
    }
    for j in 0..n {
        for k in j + 1..n {
            factors.push(diseq_count(Var(j), Var(k), n));
        }
    }
    let q = FaqQuery::new(
        CountDomain,
        Domains::uniform(n as usize, n),
        vec![],
        (0..n).map(|i| (Var(i), VarAgg::Semiring(CountDomain::SUM))).collect(),
        factors,
    )?;
    // The permanent's hypergraph is a clique: no ordering beats another, so
    // use the input one.
    Ok(Engine::sequential().evaluate(&q)?.scalar().copied().unwrap_or(0))
}

/// A general binary-or-higher CSP: variables with finite domains and
/// table constraints (paper Example A.4).
#[derive(Debug, Clone)]
pub struct Csp {
    /// Per-variable domain sizes.
    pub domains: Domains,
    /// Constraints: scope plus the allowed tuples.
    pub constraints: Vec<(Vec<Var>, Vec<Vec<u32>>)>,
}

impl Csp {
    /// Whether the CSP has a solution (Boolean FAQ).
    pub fn is_satisfiable(&self) -> Result<bool, FaqError> {
        let q = self.aggregate(BoolDomain, BoolDomain::OR, true)?;
        Ok(Engine::sequential().evaluate(&q)?.scalar().copied().unwrap_or(false))
    }

    /// The number of solutions (counting FAQ).
    pub fn count_solutions(&self) -> Result<u64, FaqError> {
        let q = self.aggregate(CountDomain, CountDomain::SUM, 1)?;
        Ok(Engine::sequential().evaluate(&q)?.scalar().copied().unwrap_or(0))
    }

    /// Enumerate all solutions (all variables free).
    pub fn solutions(&self) -> Result<Vec<Vec<u32>>, FaqError> {
        let free = self.domains.vars().collect();
        let q = FaqQuery::new(BoolDomain, self.domains.clone(), free, vec![], self.factors(true))?;
        let out = Engine::sequential().evaluate(&q)?;
        Ok(out.factor.iter().map(|(row, _)| row.to_vec()).collect())
    }

    /// The constraints as factors valued `one` on their allowed tuples.
    fn factors<E: SemiringElem>(&self, one: E) -> Vec<Factor<E>> {
        self.constraints
            .iter()
            .map(|(vars, tuples)| {
                let rows = tuples.iter().map(|t| (t.clone(), one.clone())).collect();
                Factor::new(vars.clone(), rows).expect("distinct allowed tuples")
            })
            .collect()
    }

    /// Every variable aggregated by `op` of `domain` over [`Csp::factors`].
    fn aggregate<D: AggDomain>(
        &self,
        domain: D,
        op: AggId,
        one: D::E,
    ) -> Result<FaqQuery<D>, FaqError> {
        let bound = self.domains.vars().map(|v| (v, VarAgg::Semiring(op))).collect();
        FaqQuery::new(domain, self.domains.clone(), vec![], bound, self.factors(one))
    }
}

/// The `n`-queens problem as a CSP: variable `i` = the column of the queen in
/// row `i`; pairwise constraints forbid shared columns and diagonals.
pub fn n_queens(n: u32) -> Csp {
    let mut constraints = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            let mut allowed = Vec::new();
            for a in 0..n {
                for b in 0..n {
                    let diag = (a as i64 - b as i64).unsigned_abs() as u32 == j - i;
                    if a != b && !diag {
                        allowed.push(vec![a, b]);
                    }
                }
            }
            constraints.push((vec![Var(i), Var(j)], allowed));
        }
    }
    Csp { domains: Domains::uniform(n as usize, n), constraints }
}

/// Reference permanent by Ryser-style full expansion (test oracle, `n ≤ 10`).
#[cfg(test)]
pub(crate) fn permanent_naive(a: &[Vec<u64>]) -> u64 {
    let n = a.len();
    assert!(n <= 10);
    let mut perm = 0u64;
    let mut cols: Vec<usize> = (0..n).collect();
    fn rec(a: &[Vec<u64>], row: usize, cols: &mut Vec<usize>, acc: u64, total: &mut u64) {
        if acc == 0 {
            // Still need to exhaust permutations, but products stay zero —
            // prune.
            return;
        }
        let n = a.len();
        if row == n {
            *total += acc;
            return;
        }
        for i in row..n {
            cols.swap(row, i);
            rec(a, row + 1, cols, acc * a[row][cols[row]], total);
            cols.swap(row, i);
        }
    }
    rec(a, 0, &mut cols, 1, &mut perm);
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: u32) -> Vec<(u32, u32)> {
        (0..n).map(|i| (i, (i + 1) % n)).collect()
    }

    #[test]
    fn odd_cycle_not_2_colorable() {
        assert!(!is_k_colorable(5, &cycle(5), 2).unwrap());
        assert!(is_k_colorable(5, &cycle(5), 3).unwrap());
        assert!(is_k_colorable(6, &cycle(6), 2).unwrap());
    }

    #[test]
    fn isolated_vertices_color_freely() {
        // Vertex 2 touches no edge: the width is undefined (Uncoverable) but
        // the coloring query must still evaluate — regression for the
        // fallible-faqw migration.
        assert!(is_k_colorable(3, &[(0, 1)], 2).unwrap());
        // 2 choices for the edge's proper colorings (2·1) × 2 free for v2 = 4.
        assert_eq!(count_k_colorings(3, &[(0, 1)], 2).unwrap(), 4);
    }

    #[test]
    fn counting_colorings_of_cycles() {
        // Proper k-colorings of C_n: (k−1)^n + (−1)^n (k−1).
        let count = |n: u32, k: u32| count_k_colorings(n, &cycle(n), k).unwrap();
        assert_eq!(count(3, 3), 6);
        assert_eq!(count(4, 2), 2);
        assert_eq!(count(4, 3), 18);
        assert_eq!(count(5, 3), 30);
    }

    #[test]
    fn counting_colorings_of_path() {
        // Path with n vertices: k(k−1)^{n−1}.
        let edges = [(0, 1), (1, 2), (2, 3)];
        assert_eq!(count_k_colorings(4, &edges, 3).unwrap(), 3 * 2 * 2 * 2);
    }

    #[test]
    fn triangle_needs_three_colors() {
        let t = [(0, 1), (1, 2), (0, 2)];
        assert!(!is_k_colorable(3, &t, 2).unwrap());
        assert!(is_k_colorable(3, &t, 3).unwrap());
        assert_eq!(count_k_colorings(3, &t, 3).unwrap(), 6);
    }

    #[test]
    fn n_queens_counts() {
        // Known values: 4-queens = 2, 5-queens = 10, 6-queens = 4.
        assert_eq!(n_queens(4).count_solutions().unwrap(), 2);
        assert_eq!(n_queens(5).count_solutions().unwrap(), 10);
        assert_eq!(n_queens(6).count_solutions().unwrap(), 4);
        assert!(n_queens(4).is_satisfiable().unwrap());
        assert!(!n_queens(3).is_satisfiable().unwrap());
    }

    #[test]
    fn n_queens_solutions_are_valid() {
        let sols = n_queens(5).solutions().unwrap();
        assert_eq!(sols.len(), 10);
        for s in &sols {
            for i in 0..5usize {
                for j in i + 1..5 {
                    assert_ne!(s[i], s[j]);
                    assert_ne!((s[i] as i64 - s[j] as i64).unsigned_abs(), (j - i) as u64);
                }
            }
        }
    }

    #[test]
    fn csp_consistency_between_modes() {
        // count == |solutions| and satisfiable == (count > 0).
        let csp = n_queens(5);
        let count = csp.count_solutions().unwrap();
        assert_eq!(count, csp.solutions().unwrap().len() as u64);
        assert_eq!(csp.is_satisfiable().unwrap(), count > 0);
    }

    #[test]
    fn permanent_small_cases() {
        // Identity: 1. All-ones 3×3: 3! = 6.
        let eye = vec![vec![1, 0], vec![0, 1]];
        assert_eq!(permanent(&eye).unwrap(), 1);
        let ones = vec![vec![1; 3]; 3];
        assert_eq!(permanent(&ones).unwrap(), 6);
    }

    #[test]
    fn permanent_matches_naive() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for n in 2..=4usize {
            for _ in 0..5 {
                let a: Vec<Vec<u64>> =
                    (0..n).map(|_| (0..n).map(|_| rng.gen_range(0..4)).collect()).collect();
                assert_eq!(permanent(&a).unwrap(), permanent_naive(&a), "{a:?}");
            }
        }
    }

    /// Colorings and CSPs run the planner's order: on this module's
    /// instances — the ones above and the Petersen graph of
    /// `tests/apps_end_to_end.rs` — it is no wider than the width
    /// optimizer's.
    #[test]
    fn planner_is_no_wider_than_the_width_optimizer() {
        // The Petersen graph: an outer 5-cycle, an inner pentagram, five spokes.
        let petersen =
            (0..5).flat_map(|i| [(i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5), (i, 5 + i)]).collect();
        let graphs: Vec<(u32, Vec<(u32, u32)>)> = vec![
            (3, vec![(0, 1)]),
            (3, cycle(3)),
            (4, cycle(4)),
            (5, cycle(5)),
            (6, cycle(6)),
            (4, vec![(0, 1), (1, 2), (2, 3)]),
            (10, petersen),
        ];
        for (n, edges) in &graphs {
            for k in [2, 3] {
                let bools = edges.iter().map(|&(a, b)| diseq_bool(Var(a), Var(b), k)).collect();
                let q = coloring_query(BoolDomain, BoolDomain::OR, *n, k, bools).unwrap();
                crate::assert_plan_no_wider(&q, 2_000, 14);
                let counts = edges.iter().map(|&(a, b)| diseq_count(Var(a), Var(b), k)).collect();
                let q = coloring_query(CountDomain, CountDomain::SUM, *n, k, counts).unwrap();
                crate::assert_plan_no_wider(&q, 2_000, 14);
            }
        }
        for n in 3..=6 {
            let csp = n_queens(n);
            let q = csp.aggregate(BoolDomain, BoolDomain::OR, true).unwrap();
            crate::assert_plan_no_wider(&q, 2_000, 12);
            let q = csp.aggregate(CountDomain, CountDomain::SUM, 1).unwrap();
            crate::assert_plan_no_wider(&q, 2_000, 12);
        }
    }
}
