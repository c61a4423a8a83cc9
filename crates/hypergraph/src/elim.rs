//! The elimination hypergraph sequence of a vertex ordering.
//!
//! Fix a vertex ordering `σ = (v₁, …, vₙ)`. Definition 4.8 (and its FAQ-aware
//! refinement, Definition 5.4) eliminates vertices from the *back* of the
//! ordering: at step `k = n, n−1, …, 1` the current hypergraph `H_k` loses
//! `v_k` together with its incident edges `∂(v_k)`, and gains either
//!
//! * the single "fold" edge `U_k − {v_k}` — when `v_k` is a free variable or a
//!   semiring aggregate (the intermediate factor `ψ_{U_k−{k}}` of InsideOut), or
//! * the shrunken edges `S − {v_k}` for `S ∈ ∂(v_k)` — when `v_k` is a product
//!   aggregate (paper eq. (8): factors are marginalized individually).
//!
//! The sets `U_k` drive every width parameter in the paper: the induced
//! `g`-width of `σ` is `max_k g(U_k)` (Definition 4.11), and the fractional
//! FAQ-width is `max_{k∈K} ρ*_H(U_k)` (Definition 5.10).

use crate::{Hypergraph, Var, VarSet};

/// How eliminating a vertex rewrites the hypergraph (Definition 5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElimRule {
    /// Free variable or semiring aggregate: `∂(v)` is replaced by the single
    /// edge `U_v − {v}`.
    Fold,
    /// Product aggregate: each edge of `∂(v)` individually loses `v`.
    Shrink,
}

/// The full elimination trace of a vertex ordering.
#[derive(Debug, Clone)]
pub struct EliminationSequence {
    order: Vec<Var>,
    /// `U_k` for each position `k` (aligned with `order`; `u_sets[k]` includes `v_{k+1}` itself).
    u_sets: Vec<VarSet>,
    /// Edge sets of `H_k` *before* eliminating `order[k]` (aligned with `order`).
    edge_sets: Vec<Vec<VarSet>>,
}

impl EliminationSequence {
    /// Run the elimination with every vertex folded (the classical Def 4.8
    /// sequence used for tree-width-style parameters).
    pub fn new(h: &Hypergraph, order: &[Var]) -> Self {
        Self::with_rules(h, order, &vec![ElimRule::Fold; order.len()])
    }

    /// Run the elimination with a per-vertex rewrite rule.
    ///
    /// `order` must list every vertex of `h` exactly once; `rules[k]` applies
    /// to `order[k]`.
    pub(crate) fn with_rules(h: &Hypergraph, order: &[Var], rules: &[ElimRule]) -> Self {
        let mut edge_sets = vec![Vec::new(); order.len()];
        let u_sets = eliminate(h, order, rules, |k, edges| edge_sets[k] = edges.to_vec());
        EliminationSequence { order: order.to_vec(), u_sets, edge_sets }
    }

    /// `U_k` for position `k` (0-based within `order`). Includes `order[k]`
    /// itself whenever the vertex has at least one incident edge.
    pub fn u_set(&self, k: usize) -> &VarSet {
        &self.u_sets[k]
    }

    /// The edge multiset of `H_k` (the hypergraph *before* `order[k]` is
    /// eliminated).
    pub fn edges_before(&self, k: usize) -> &[VarSet] {
        &self.edge_sets[k]
    }

    /// The induced `g`-width `max_k g(U_k)` (Definition 4.11) over a subset of
    /// positions. Positions with empty `U_k` (isolated at elimination time)
    /// are skipped.
    pub(crate) fn induced_width_over<F: FnMut(&VarSet) -> f64>(
        &self,
        positions: &[usize],
        mut g: F,
    ) -> f64 {
        let mut w = 0.0f64;
        for &k in positions {
            if !self.u_sets[k].is_empty() {
                w = w.max(g(&self.u_sets[k]));
            }
        }
        w
    }

    /// The induced `g`-width over *all* positions.
    pub(crate) fn induced_width<F: FnMut(&VarSet) -> f64>(&self, g: F) -> f64 {
        let all: Vec<usize> = (0..self.order.len()).collect();
        self.induced_width_over(&all, g)
    }
}

/// The sets `U_k` of eliminating along `order` under per-vertex `rules`
/// (Definition 5.4), aligned with `order` — what
/// `EliminationSequence::with_rules` records, without the per-step edge
/// snapshots it keeps beside them. The cheap form for callers that only need
/// widths, such as a search evaluating hundreds of orderings.
pub fn u_sets_with_rules(h: &Hypergraph, order: &[Var], rules: &[ElimRule]) -> Vec<VarSet> {
    eliminate(h, order, rules, |_, _| {})
}

/// Run the elimination from the back of `order`, showing `before_step` the
/// edges of `H_k` as each `order[k]` is about to go; returns every `U_k`.
fn eliminate(
    h: &Hypergraph,
    order: &[Var],
    rules: &[ElimRule],
    mut before_step: impl FnMut(usize, &[VarSet]),
) -> Vec<VarSet> {
    assert_eq!(order.len(), rules.len(), "one rule per ordered vertex");
    assert_eq!(
        order.iter().copied().collect::<VarSet>(),
        h.vertices().clone(),
        "ordering must cover the vertex set exactly"
    );

    let n = order.len();
    let mut edges: Vec<VarSet> = h.edges().to_vec();
    let mut u_sets = vec![VarSet::new(); n];

    for k in (0..n).rev() {
        let vk = order[k];
        before_step(k, &edges);
        let (incident, rest): (Vec<VarSet>, Vec<VarSet>) =
            edges.into_iter().partition(|e| e.contains(&vk));
        let mut u = VarSet::new();
        for e in &incident {
            u.extend(e.iter().copied());
        }
        u_sets[k] = u.clone();
        edges = rest;
        match rules[k] {
            ElimRule::Fold => {
                u.remove(&vk);
                if !u.is_empty() {
                    edges.push(u);
                }
            }
            ElimRule::Shrink => {
                for mut e in incident {
                    e.remove(&vk);
                    if !e.is_empty() {
                        edges.push(e);
                    }
                }
            }
        }
    }
    u_sets
}

/// The set `U_v` that a **fold-only** elimination would produce for `v` after
/// the vertices of `eliminated` have already been eliminated (in any order),
/// computed via the path characterization:
///
/// `u ∈ U_v` iff `u = v`, or some edge containing `u` is reachable from `v`
/// through vertices of `eliminated` in the Gaifman graph — equivalently there
/// is a path `v = w₀, w₁, …, w_t = u` whose internal vertices all lie in
/// `eliminated`.
///
/// This quantity is order-independent given the *set* `eliminated`, which is
/// what makes the exact subset-DP ordering search (`ordering::best_ordering_exact`)
/// correct. A property test cross-checks it against [`EliminationSequence`].
pub(crate) fn fold_u_set(h: &Hypergraph, eliminated: &VarSet, v: Var) -> VarSet {
    debug_assert!(!eliminated.contains(&v));
    let mut u = VarSet::new();
    let mut frontier = vec![v];
    let mut visited_elim = VarSet::new();
    let mut touched = false;
    while let Some(x) = frontier.pop() {
        for e in h.edges() {
            if e.contains(&x) {
                touched = true;
                for &y in e {
                    if y == v {
                        continue;
                    }
                    if eliminated.contains(&y) {
                        if visited_elim.insert(y) {
                            frontier.push(y);
                        }
                    } else {
                        u.insert(y);
                    }
                }
            }
        }
    }
    if touched {
        u.insert(v);
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{v, varset};

    /// The classical induced width (`g(B) = |B| − 1`), i.e. the tree-width
    /// witnessed by the ordering.
    fn tree_width(seq: &EliminationSequence) -> usize {
        seq.induced_width(|u| u.len() as f64 - 1.0) as usize
    }

    fn path4() -> Hypergraph {
        // 0 - 1 - 2 - 3
        Hypergraph::from_edges(&[&[0, 1], &[1, 2], &[2, 3]])
    }

    #[test]
    fn path_elimination_end_first() {
        let h = path4();
        let order = [v(0), v(1), v(2), v(3)];
        let seq = EliminationSequence::new(&h, &order);
        // Eliminate 3: U = {2,3}; new edge {2}.
        assert_eq!(seq.u_set(3), &varset(&[2, 3]));
        // Eliminate 2: U = {1,2} (edges {1,2} and {2}).
        assert_eq!(seq.u_set(2), &varset(&[1, 2]));
        assert_eq!(seq.u_set(1), &varset(&[0, 1]));
        assert_eq!(seq.u_set(0), &varset(&[0]));
        assert_eq!(tree_width(&seq), 1);
    }

    #[test]
    fn bad_order_on_path_raises_width() {
        let h = path4();
        // Eliminating the middle vertices last keeps them low; eliminating
        // interior first (i.e. placing them at the END of σ) creates fill.
        let order = [v(0), v(3), v(1), v(2)];
        let seq = EliminationSequence::new(&h, &order);
        // Eliminate 2 first: U = {1,2,3} -> width 2.
        assert_eq!(seq.u_set(3), &varset(&[1, 2, 3]));
        assert_eq!(tree_width(&seq), 2);
    }

    #[test]
    fn triangle_width_is_two_any_order() {
        let h = Hypergraph::from_edges(&[&[0, 1], &[0, 2], &[1, 2]]);
        for order in [[v(0), v(1), v(2)], [v(2), v(0), v(1)], [v(1), v(2), v(0)]] {
            let seq = EliminationSequence::new(&h, &order);
            assert_eq!(tree_width(&seq), 2, "order {order:?}");
        }
    }

    #[test]
    fn shrink_rule_keeps_edges_apart() {
        // Edges {0,2}, {1,2}; eliminating 2 with Shrink yields {0}, {1} —
        // no {0,1} fill edge, unlike Fold.
        let h = Hypergraph::from_edges(&[&[0, 2], &[1, 2]]);
        let fold = EliminationSequence::new(&h, &[v(0), v(1), v(2)]);
        assert_eq!(fold.u_set(1), &varset(&[0, 1])); // fill happened
        let rules = [ElimRule::Fold, ElimRule::Fold, ElimRule::Shrink];
        let shrink = EliminationSequence::with_rules(&h, &[v(0), v(1), v(2)], &rules);
        assert_eq!(shrink.u_set(2), &varset(&[0, 1, 2]));
        assert_eq!(shrink.u_set(1), &varset(&[1])); // no fill
        assert_eq!(shrink.u_set(0), &varset(&[0]));
    }

    #[test]
    fn isolated_vertex_has_empty_u() {
        let mut h = path4();
        h.add_vertex(v(7));
        let order = [v(0), v(1), v(2), v(3), v(7)];
        let seq = EliminationSequence::new(&h, &order);
        assert!(seq.u_set(4).is_empty());
        assert_eq!(tree_width(&seq), 1);
    }

    #[test]
    fn fold_u_set_matches_direct_elimination() {
        use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..60 {
            let n: u32 = rng.gen_range(3..8);
            let m = rng.gen_range(2..8);
            let mut h = Hypergraph::new();
            for i in 0..n {
                h.add_vertex(Var(i));
            }
            for _ in 0..m {
                let k = rng.gen_range(1..=3.min(n));
                let mut vs: Vec<u32> = (0..n).collect();
                vs.shuffle(&mut rng);
                h.add_edge(vs[..k as usize].iter().map(|&i| Var(i)));
            }
            let mut order: Vec<Var> = (0..n).map(Var).collect();
            order.shuffle(&mut rng);
            let seq = EliminationSequence::new(&h, &order);
            for k in 0..order.len() {
                let eliminated: VarSet = order[k + 1..].iter().copied().collect();
                let expect = fold_u_set(&h, &eliminated, order[k]);
                assert_eq!(
                    seq.u_set(k),
                    &expect,
                    "vertex {:?} at position {k} in {order:?}",
                    order[k]
                );
            }
        }
    }
}
