//! Searching for vertex orderings with small induced widths.
//!
//! By Lemma 4.12 / Corollary 4.13, the `g`-width of a hypergraph equals the
//! minimum over vertex orderings of the induced `g`-width `max_k g(U_k)`; for
//! `g = ρ*` this is the fractional hypertree width. Computing it is NP-hard
//! (paper §7), so this module offers:
//!
//! * [`best_ordering_exact`] — exact subset dynamic programming over
//!   eliminated vertex sets (feasible to ~16 vertices), using the
//!   order-independent path characterization of `U_v` (`elim::fold_u_set`);
//! * [`min_fill_ordering`], [`min_degree_ordering`] and a greedy `g`-ordering
//!   — standard heuristics;
//! * [`best_ordering`] — exact when small, otherwise best-of-heuristics. This
//!   is the "fhtw blackbox" plugged into the faqw approximation algorithm of
//!   paper §7 (Theorems 7.2 / 7.5).

use crate::elim::{fold_u_set, EliminationSequence};
use crate::{Hypergraph, Var, VarSet};
use std::collections::HashMap;

/// Result of an ordering search.
#[derive(Debug, Clone)]
pub struct OrderingResult {
    /// The vertex ordering `σ = (v₁, …, vₙ)` (eliminate from the back).
    pub order: Vec<Var>,
    /// Its induced `g`-width.
    pub width: f64,
    /// Whether the search was exact (subset DP) or heuristic.
    pub exact: bool,
}

/// Memoized width function over vertex sets.
struct MemoG<'a> {
    g: Box<dyn FnMut(&VarSet) -> f64 + 'a>,
    cache: HashMap<Vec<Var>, f64>,
}

impl<'a> MemoG<'a> {
    fn new<F: FnMut(&VarSet) -> f64 + 'a>(g: F) -> Self {
        MemoG { g: Box::new(g), cache: HashMap::new() }
    }

    fn eval(&mut self, s: &VarSet) -> f64 {
        if s.is_empty() {
            return 0.0;
        }
        let key: Vec<Var> = s.iter().copied().collect();
        if let Some(&v) = self.cache.get(&key) {
            return v;
        }
        let v = (self.g)(s);
        self.cache.insert(key, v);
        v
    }
}

/// Exact minimum induced `g`-width via DP over subsets of eliminated vertices.
///
/// `g` must be monotone (paper Lemma 4.12 requires it); all standard width
/// functions (`|B|−1`, `ρ`, `ρ*`) are. Panics if `h` has more than 20
/// vertices — use [`best_ordering`] for graceful fallback.
pub fn best_ordering_exact<F: FnMut(&VarSet) -> f64>(h: &Hypergraph, g: F) -> OrderingResult {
    let verts: Vec<Var> = h.vertices().iter().copied().collect();
    let n = verts.len();
    assert!(n <= 20, "exact ordering search limited to 20 vertices, got {n}");
    if n == 0 {
        return OrderingResult { order: Vec::new(), width: 0.0, exact: true };
    }
    let mut memo = MemoG::new(g);

    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    // best[mask] = minimal achievable max-width having eliminated exactly `mask`.
    let mut best: Vec<f64> = vec![f64::INFINITY; (full as usize) + 1];
    let mut choice: Vec<u8> = vec![u8::MAX; (full as usize) + 1];
    best[0] = 0.0;

    // Iterate masks in increasing popcount order: plain increasing numeric
    // order works because mask' = mask | bit > mask.
    for mask in 0..=full {
        let cur = best[mask as usize];
        if !cur.is_finite() {
            continue;
        }
        let eliminated: VarSet = (0..n).filter(|&i| mask >> i & 1 == 1).map(|i| verts[i]).collect();
        for (i, &vert) in verts.iter().enumerate() {
            if mask >> i & 1 == 1 {
                continue;
            }
            let u = fold_u_set(h, &eliminated, vert);
            let w = cur.max(memo.eval(&u));
            let nxt = (mask | (1 << i)) as usize;
            if w < best[nxt] - 1e-12 {
                best[nxt] = w;
                choice[nxt] = i as u8;
            }
        }
    }

    // Reconstruct σ. The DP eliminates from the back of σ (mask = suffix of σ
    // already eliminated), so walking choices from the full mask downward
    // yields v₁, v₂, …, vₙ — σ in front-to-back order already.
    let mut mask = full;
    let mut sigma: Vec<Var> = Vec::with_capacity(n);
    while mask != 0 {
        let i = choice[mask as usize] as usize;
        sigma.push(verts[i]);
        mask &= !(1u32 << i);
    }
    OrderingResult { order: sigma, width: best[full as usize], exact: true }
}

/// Greedy ordering: repeatedly eliminate the vertex minimizing `g(U_v)` given
/// what has been eliminated so far.
pub(crate) fn greedy_g_ordering<F: FnMut(&VarSet) -> f64>(h: &Hypergraph, g: F) -> OrderingResult {
    let mut memo = MemoG::new(g);
    let mut remaining: Vec<Var> = h.vertices().iter().copied().collect();
    let mut eliminated = VarSet::new();
    let mut rev: Vec<Var> = Vec::new();
    let mut width = 0.0f64;
    while !remaining.is_empty() {
        let (pos, _, w) = remaining
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let u = fold_u_set(h, &eliminated, v);
                (i, v, memo.eval(&u))
            })
            .min_by(|a, b| a.2.partial_cmp(&b.2).unwrap())
            .unwrap();
        width = width.max(w);
        let v = remaining.remove(pos);
        eliminated.insert(v);
        rev.push(v);
    }
    rev.reverse();
    OrderingResult { order: rev, width, exact: false }
}

/// The min-degree heuristic on the Gaifman graph (`g(U) = |U|`).
pub fn min_degree_ordering(h: &Hypergraph) -> OrderingResult {
    greedy_g_ordering(h, |u| u.len() as f64)
}

/// The min-fill heuristic: eliminate the vertex whose elimination adds the
/// fewest fill edges to the (evolving) Gaifman graph.
pub fn min_fill_ordering(h: &Hypergraph) -> OrderingResult {
    let verts: Vec<Var> = h.vertices().iter().copied().collect();
    let n = verts.len();
    let idx: HashMap<Var, usize> = verts.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    // Adjacency matrix of the Gaifman graph.
    let mut adj = vec![vec![false; n]; n];
    for e in h.edges() {
        let ids: Vec<usize> = e.iter().map(|v| idx[v]).collect();
        for &a in &ids {
            for &b in &ids {
                if a != b {
                    adj[a][b] = true;
                }
            }
        }
    }
    let mut alive: Vec<bool> = vec![true; n];
    let mut rev: Vec<Var> = Vec::new();
    for _ in 0..n {
        // Pick alive vertex with fewest missing edges among alive neighbors.
        let mut best_v = usize::MAX;
        let mut best_fill = usize::MAX;
        for v in 0..n {
            if !alive[v] {
                continue;
            }
            let nbrs: Vec<usize> = (0..n).filter(|&u| alive[u] && adj[v][u]).collect();
            let mut fill = 0;
            for i in 0..nbrs.len() {
                for j in i + 1..nbrs.len() {
                    if !adj[nbrs[i]][nbrs[j]] {
                        fill += 1;
                    }
                }
            }
            if fill < best_fill {
                best_fill = fill;
                best_v = v;
            }
        }
        let v = best_v;
        alive[v] = false;
        // Connect the neighborhood into a clique.
        let nbrs: Vec<usize> = (0..n).filter(|&u| alive[u] && adj[v][u]).collect();
        for i in 0..nbrs.len() {
            for j in i + 1..nbrs.len() {
                adj[nbrs[i]][nbrs[j]] = true;
                adj[nbrs[j]][nbrs[i]] = true;
            }
        }
        rev.push(verts[v]);
    }
    rev.reverse();
    let order = rev;
    OrderingResult { order, width: f64::NAN, exact: false }
}

/// Find a good ordering for width function `g`: exact subset DP when the
/// hypergraph has at most `exact_limit` vertices, otherwise the best of the
/// min-fill / min-degree / greedy-`g` heuristics, scored by `g`.
pub fn best_ordering<F: FnMut(&VarSet) -> f64>(
    h: &Hypergraph,
    mut g: F,
    exact_limit: usize,
) -> OrderingResult {
    let n = h.num_vertices();
    if n == 0 {
        return OrderingResult { order: Vec::new(), width: 0.0, exact: true };
    }
    if n <= exact_limit.min(20) {
        return best_ordering_exact(h, g);
    }
    let mut candidates = vec![min_fill_ordering(h), min_degree_ordering(h)];
    candidates.push(greedy_g_ordering(h, &mut g));
    let mut best: Option<OrderingResult> = None;
    for mut c in candidates {
        let seq = EliminationSequence::new(h, &c.order);
        c.width = seq.induced_width(&mut g);
        if best.as_ref().is_none_or(|b| c.width < b.width) {
            best = Some(c);
        }
    }
    best.unwrap()
}

/// Convenience: the fractional hypertree width of `h` (exact for ≤ `exact_limit`
/// vertices), together with a witnessing ordering.
pub fn fhtw(h: &Hypergraph, exact_limit: usize) -> OrderingResult {
    let pruned = h.maximal_edges();
    let mut res = best_ordering(&pruned, |b| crate::widths::rho_star(&pruned, b), exact_limit);
    // Re-score on the original hypergraph (same value: covers use the same
    // maximal edges) to keep the contract simple.
    let seq = EliminationSequence::new(h, &res.order);
    res.width = seq.induced_width(|b| crate::widths::rho_star(h, b));
    res
}

/// Convenience: the tree width of `h` (exact for ≤ `exact_limit` vertices).
pub fn treewidth(h: &Hypergraph, exact_limit: usize) -> OrderingResult {
    let mut r = best_ordering(h, |b| (b.len() as f64) - 1.0, exact_limit);
    if !r.width.is_finite() {
        r.width = 0.0;
    }
    OrderingResult { width: r.width.max(0.0), ..r }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_has_treewidth_one() {
        let h = Hypergraph::from_edges(&[&[0, 1], &[1, 2], &[2, 3], &[3, 4]]);
        let r = treewidth(&h, 16);
        assert!(r.exact);
        assert_eq!(r.width, 1.0);
    }

    #[test]
    fn cycle_has_treewidth_two() {
        let h = Hypergraph::from_edges(&[&[0, 1], &[1, 2], &[2, 3], &[3, 4], &[4, 0]]);
        assert_eq!(treewidth(&h, 16).width, 2.0);
    }

    #[test]
    fn clique_treewidth_n_minus_one() {
        let mut h = Hypergraph::new();
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                h.add_edge([Var(i), Var(j)]);
            }
        }
        assert_eq!(treewidth(&h, 16).width, 4.0);
    }

    #[test]
    fn triangle_fhtw_is_three_halves() {
        let h = Hypergraph::from_edges(&[&[0, 1], &[0, 2], &[1, 2]]);
        let r = fhtw(&h, 16);
        assert!((r.width - 1.5).abs() < 1e-6, "{}", r.width);
    }

    #[test]
    fn acyclic_fhtw_is_one() {
        let h = Hypergraph::from_edges(&[&[0, 1, 2], &[2, 3], &[3, 4, 5]]);
        let r = fhtw(&h, 16);
        assert!((r.width - 1.0).abs() < 1e-6, "{}", r.width);
    }

    #[test]
    fn heuristics_match_exact_on_small_graphs() {
        use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..25 {
            let n: u32 = rng.gen_range(3..7);
            let m = rng.gen_range(2..7);
            let mut h = Hypergraph::new();
            for i in 0..n {
                h.add_vertex(Var(i));
            }
            for _ in 0..m {
                let k = rng.gen_range(1..=n.min(3));
                let mut vs: Vec<u32> = (0..n).collect();
                vs.shuffle(&mut rng);
                h.add_edge(vs[..k as usize].iter().map(|&i| Var(i)));
            }
            let exact = best_ordering_exact(&h, |b| b.len() as f64);
            // Heuristic width is an upper bound on exact width.
            let heur = best_ordering(&h, |b| b.len() as f64, 0);
            assert!(heur.width + 1e-9 >= exact.width);
            // And the exact ordering really witnesses its width.
            let seq = EliminationSequence::new(&h, &exact.order);
            let w = seq.induced_width(|b| b.len() as f64);
            assert!((w - exact.width).abs() < 1e-9);
        }
    }

    #[test]
    fn fhtw_leq_treewidth_plus_one() {
        use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..15 {
            let n: u32 = rng.gen_range(3..7);
            let m = rng.gen_range(2..6);
            let mut h = Hypergraph::new();
            for i in 0..n {
                h.add_vertex(Var(i));
            }
            for _ in 0..m {
                let k = rng.gen_range(1..=n.min(3));
                let mut vs: Vec<u32> = (0..n).collect();
                vs.shuffle(&mut rng);
                h.add_edge(vs[..k as usize].iter().map(|&i| Var(i)));
            }
            let tw = treewidth(&h, 16).width;
            let fw = fhtw(&h, 16).width;
            // ρ*(B) ≤ |B| for any B, so fhtw ≤ tw + 1.
            assert!(fw <= tw + 1.0 + 1e-6, "fhtw {fw} > tw+1 {}", tw + 1.0);
        }
    }

    #[test]
    fn min_fill_produces_permutation() {
        let h = Hypergraph::from_edges(&[&[0, 1], &[1, 2], &[2, 0], &[2, 3]]);
        let r = min_fill_ordering(&h);
        let mut sorted = r.order.clone();
        sorted.sort();
        assert_eq!(sorted, vec![Var(0), Var(1), Var(2), Var(3)]);
    }

    #[test]
    fn empty_graph() {
        let h = Hypergraph::new();
        let r = fhtw(&h, 16);
        assert!(r.order.is_empty());
        assert_eq!(r.width, 0.0);
    }
}
