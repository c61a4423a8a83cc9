//! Edge-cover numbers and the AGM bound (paper §4.2).
//!
//! For a hypergraph `H = (V, E)` and a vertex set `B ⊆ V`:
//!
//! * `ρ_H(B)` — the minimum number of edges covering `B` (integral cover);
//! * `ρ*_H(B)` — its LP relaxation (fractional cover), solved with the
//!   in-repo simplex;
//! * `AGM_H(B)` — the data-dependent bound `Π_S |ψ_S|^{λ*_S}` where `λ*`
//!   minimizes `Σ λ_S log|ψ_S|` over fractional covers of `B`.

use crate::{Hypergraph, VarSet};
use faq_lp::{ConstraintOp, LinearProgram};

/// A fractional edge cover: one weight per edge of the hypergraph.
#[derive(Debug, Clone)]
pub struct FractionalCover {
    /// Per-edge weights `λ_S ≥ 0` (aligned with `Hypergraph::edges`).
    pub weights: Vec<f64>,
    /// The LP objective value.
    pub value: f64,
}

/// Solve the fractional edge cover LP for `B` with per-edge objective costs.
///
/// Minimizes `Σ cost_S · λ_S` subject to `Σ_{S ∋ v} λ_S ≥ 1` for every
/// `v ∈ B` and `λ ≥ 0`. Edges disjoint from `B` are still variables but any
/// optimal solution gives them weight 0 (their cost is assumed non-negative).
///
/// Returns `None` if some vertex of `B` is not covered by any edge (LP
/// infeasible).
pub(crate) fn fractional_cover_with_costs(
    h: &Hypergraph,
    b: &VarSet,
    costs: &[f64],
) -> Option<FractionalCover> {
    assert_eq!(costs.len(), h.num_edges());
    if b.is_empty() {
        return Some(FractionalCover { weights: vec![0.0; h.num_edges()], value: 0.0 });
    }
    let mut lp = LinearProgram::minimize(costs.to_vec());
    for v in b {
        let coeffs: Vec<f64> =
            h.edges().iter().map(|e| if e.contains(v) { 1.0 } else { 0.0 }).collect();
        if coeffs.iter().all(|&c| c == 0.0) {
            return None; // uncoverable vertex
        }
        lp = lp.constraint(coeffs, ConstraintOp::Ge, 1.0);
    }
    let sol = lp.solve().ok()?;
    Some(FractionalCover { weights: sol.x, value: sol.objective })
}

/// The optimal fractional edge cover of `B` (unit costs).
pub fn fractional_cover(h: &Hypergraph, b: &VarSet) -> Option<FractionalCover> {
    fractional_cover_with_costs(h, b, &vec![1.0; h.num_edges()])
}

/// `ρ*_H(B)` — the fractional edge cover number. Panics if `B` is uncoverable.
pub fn rho_star(h: &Hypergraph, b: &VarSet) -> f64 {
    fractional_cover(h, b)
        .unwrap_or_else(|| panic!("vertex set {b:?} not coverable by edges of {h:?}"))
        .value
}

/// An integral edge cover of `B`.
#[derive(Debug, Clone)]
pub struct IntegralCover {
    /// Indices of the chosen edges.
    pub edges: Vec<usize>,
}

/// The optimal integral edge cover of `B` via branch-and-bound over edges.
///
/// Query hypergraphs have few edges, so exponential search with pruning on
/// the incumbent is fine. Returns `None` if `B` is uncoverable.
pub fn integral_cover(h: &Hypergraph, b: &VarSet) -> Option<IntegralCover> {
    if b.is_empty() {
        return Some(IntegralCover { edges: Vec::new() });
    }
    // Only edges intersecting B are useful; dominated edges (whose B-part is
    // contained in another edge's) could be pruned, but plain BnB suffices.
    let useful: Vec<usize> = (0..h.num_edges()).filter(|&i| !h.edges()[i].is_disjoint(b)).collect();
    let mut best: Option<Vec<usize>> = None;
    let mut chosen: Vec<usize> = Vec::new();

    fn recurse(
        h: &Hypergraph,
        b: &VarSet,
        useful: &[usize],
        covered: &VarSet,
        chosen: &mut Vec<usize>,
        best: &mut Option<Vec<usize>>,
    ) {
        if b.is_subset(covered) {
            if best.as_ref().is_none_or(|bst| chosen.len() < bst.len()) {
                *best = Some(chosen.clone());
            }
            return;
        }
        if let Some(bst) = best {
            if chosen.len() + 1 >= bst.len() {
                return; // adding any edge cannot beat the incumbent
            }
        }
        // Branch on the first uncovered vertex; try every edge covering it.
        // Each recursion level covers a fresh vertex, so no duplicate covers
        // are enumerated.
        let target = *b.iter().find(|v| !covered.contains(v)).expect("uncovered vertex exists");
        for &e_idx in useful {
            if h.edges()[e_idx].contains(&target) {
                let mut cov2 = covered.clone();
                cov2.extend(h.edges()[e_idx].intersection(b).copied());
                chosen.push(e_idx);
                recurse(h, b, useful, &cov2, chosen, best);
                chosen.pop();
            }
        }
    }

    recurse(h, b, &useful, &VarSet::new(), &mut chosen, &mut best);
    best.map(|edges| IntegralCover { edges })
}

/// `ρ_H(B)` — the integral edge cover number. Panics if `B` is uncoverable.
pub fn rho_integral(h: &Hypergraph, b: &VarSet) -> usize {
    integral_cover(h, b)
        .unwrap_or_else(|| panic!("vertex set {b:?} not coverable by edges of {h:?}"))
        .edges
        .len()
}

/// `AGM_H(B)` for the given per-edge sizes (paper eq. (3)).
///
/// Minimizes `Σ λ_S log₂|ψ_S|` over fractional covers of `B` and returns
/// `Π |ψ_S|^{λ*_S}`. Sizes of 0 are clamped to 1 (an empty relation makes the
/// whole join empty; callers should special-case that upstream).
pub fn agm_bound(h: &Hypergraph, b: &VarSet, sizes: &[u64]) -> Option<f64> {
    assert_eq!(sizes.len(), h.num_edges());
    let costs: Vec<f64> = sizes.iter().map(|&s| (s.max(1) as f64).log2()).collect();
    let cover = fractional_cover_with_costs(h, b, &costs)?;
    Some(2f64.powf(cover.value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{varset, Hypergraph};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn triangle_fractional_vs_integral() {
        let h = Hypergraph::from_edges(&[&[0, 1], &[0, 2], &[1, 2]]);
        let b = varset(&[0, 1, 2]);
        assert!(close(rho_star(&h, &b), 1.5));
        assert_eq!(rho_integral(&h, &b), 2);
    }

    #[test]
    fn agm_triangle_is_n_to_1_5() {
        let h = Hypergraph::from_edges(&[&[0, 1], &[0, 2], &[1, 2]]);
        let b = varset(&[0, 1, 2]);
        let n = 1024u64;
        let agm = agm_bound(&h, &b, &[n, n, n]).unwrap();
        assert!(close(agm, (n as f64).powf(1.5)), "{agm}");
    }

    #[test]
    fn agm_prefers_small_relations() {
        // Cover {0,1,2} by {0,1} (size 2^10) + {2} (size 2^2) vs the big edge
        // {0,1,2} of size 2^20: LP should pick the small pair.
        let h = Hypergraph::from_edges(&[&[0, 1], &[2], &[0, 1, 2]]);
        let b = varset(&[0, 1, 2]);
        let agm = agm_bound(&h, &b, &[1 << 10, 1 << 2, 1 << 20]).unwrap();
        assert!(close(agm.log2(), 12.0), "{agm}");
    }

    #[test]
    fn empty_target_costs_nothing() {
        let h = Hypergraph::from_edges(&[&[0, 1]]);
        assert!(close(rho_star(&h, &VarSet::new()), 0.0));
        assert_eq!(rho_integral(&h, &VarSet::new()), 0);
    }

    #[test]
    fn subset_cover_uses_one_edge() {
        let h = Hypergraph::from_edges(&[&[0, 1, 2], &[2, 3]]);
        assert!(close(rho_star(&h, &varset(&[0, 1])), 1.0));
        assert_eq!(rho_integral(&h, &varset(&[0, 1])), 1);
        assert_eq!(rho_integral(&h, &varset(&[0, 3])), 2);
    }

    #[test]
    fn uncoverable_returns_none() {
        let h = Hypergraph::from_edges(&[&[0, 1]]);
        assert!(fractional_cover(&h, &varset(&[5])).is_none());
        assert!(integral_cover(&h, &varset(&[5])).is_none());
    }

    #[test]
    fn k_cycle_cover_is_k_over_2() {
        // C_5: ρ* = 5/2, ρ = 3.
        let h = Hypergraph::from_edges(&[&[0, 1], &[1, 2], &[2, 3], &[3, 4], &[4, 0]]);
        let b = varset(&[0, 1, 2, 3, 4]);
        assert!(close(rho_star(&h, &b), 2.5));
        assert_eq!(rho_integral(&h, &b), 3);
    }

    #[test]
    fn fractional_never_exceeds_integral() {
        use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..40 {
            let n: u32 = rng.gen_range(2..7);
            let m = rng.gen_range(1..7);
            let mut h = Hypergraph::new();
            let mut covered = VarSet::new();
            for _ in 0..m {
                let k = rng.gen_range(1..=n.min(3));
                let mut vs: Vec<u32> = (0..n).collect();
                vs.shuffle(&mut rng);
                let e: Vec<crate::Var> = vs[..k as usize].iter().map(|&i| crate::Var(i)).collect();
                covered.extend(e.iter().copied());
                h.add_edge(e);
            }
            let b = covered;
            if b.is_empty() {
                continue;
            }
            let frac = rho_star(&h, &b);
            let int = rho_integral(&h, &b) as f64;
            assert!(frac <= int + 1e-6, "ρ*={frac} > ρ={int}");
            assert!(frac >= 1.0 - 1e-6);
        }
    }
}
