//! β-acyclicity, nest points and nested elimination orders.
//!
//! A hypergraph is β-acyclic iff *every* subset of its edges is α-acyclic
//! (Definition 4.5). Equivalently (Proposition 4.10), there is a vertex
//! ordering `σ = (v₁, …, vₙ)` — a **nested elimination order** (NEO) — such
//! that at every elimination step the edges incident to the eliminated vertex
//! form a chain under inclusion. Such a vertex is a *nest point*; β-acyclic
//! hypergraphs always contain one (Brouwer–Kolen), which yields the greedy
//! recognition algorithm implemented here.
//!
//! NEOs are the backbone of the polynomial SAT / #SAT algorithms of paper
//! §8.3: eliminating the last NEO variable keeps the clause set from growing.

use crate::{Hypergraph, Var, VarSet};

/// Whether the edges incident to `v` (restricted to the live vertex set)
/// form an inclusion chain.
fn is_nest_point(edges: &[VarSet], v: Var) -> bool {
    let mut incident: Vec<&VarSet> = edges.iter().filter(|e| e.contains(&v)).collect();
    incident.sort_by_key(|e| e.len());
    for w in incident.windows(2) {
        if !w[0].is_subset(w[1]) {
            return false;
        }
    }
    true
}

/// Compute a nested elimination order for `h`.
///
/// Returns `σ = (v₁, …, vₙ)` such that eliminating from the back (`vₙ` first)
/// always removes a nest point; `None` if `h` is not β-acyclic.
pub fn nested_elimination_order(h: &Hypergraph) -> Option<Vec<Var>> {
    let mut live_vertices: Vec<Var> = h.vertices().iter().copied().collect();
    let mut edges: Vec<VarSet> = h.edges().to_vec();
    let mut rev_order: Vec<Var> = Vec::new();

    while !live_vertices.is_empty() {
        let pos = live_vertices.iter().position(|&v| is_nest_point(&edges, v))?;
        let v = live_vertices.remove(pos);
        rev_order.push(v);
        for e in edges.iter_mut() {
            e.remove(&v);
        }
        edges.retain(|e| !e.is_empty());
    }

    rev_order.reverse();
    Some(rev_order)
}

/// Whether `h` is β-acyclic (greedy nest-point elimination succeeds).
pub fn is_beta_acyclic(h: &Hypergraph) -> bool {
    nested_elimination_order(h).is_some()
}

/// Check that `order` is a nested elimination order for `h`: eliminating
/// from its back, every vertex is a nest point when it goes (Prop 4.10).
pub fn is_nested_elimination_order(h: &Hypergraph, order: &[Var]) -> bool {
    if order.iter().copied().collect::<VarSet>() != *h.vertices() {
        return false;
    }
    let mut edges: Vec<VarSet> = h.edges().to_vec();
    for &v in order.iter().rev() {
        if !is_nest_point(&edges, v) {
            return false;
        }
        for e in edges.iter_mut() {
            e.remove(&v);
        }
        edges.retain(|e| !e.is_empty());
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force β-acyclicity via the definition: every subset of edges is
    /// α-acyclic. Exponential in the number of edges; used to cross-validate
    /// the nest-point algorithm in tests.
    fn is_beta_acyclic_bruteforce(h: &Hypergraph) -> bool {
        let m = h.num_edges();
        assert!(m <= 16, "brute force limited to 16 edges");
        for mask in 0u32..(1 << m) {
            let mut sub = Hypergraph::new();
            for (i, e) in h.edges().iter().enumerate() {
                if mask >> i & 1 == 1 {
                    sub.add_edge(e.iter().copied());
                }
            }
            if !crate::acyclic::is_alpha_acyclic(&sub) {
                return false;
            }
        }
        true
    }

    #[test]
    fn interval_hypergraphs_are_beta_acyclic() {
        // Edges are intervals over a path: always β-acyclic.
        let h =
            Hypergraph::from_edges(&[&[0, 1, 2], &[1, 2], &[2, 3, 4], &[3, 4], &[0, 1, 2, 3, 4]]);
        assert!(is_beta_acyclic(&h));
        let neo = nested_elimination_order(&h).unwrap();
        assert!(is_nested_elimination_order(&h, &neo));
    }

    #[test]
    fn triangle_is_not_beta_acyclic() {
        let h = Hypergraph::from_edges(&[&[0, 1], &[0, 2], &[1, 2]]);
        assert!(!is_beta_acyclic(&h));
    }

    #[test]
    fn alpha_but_not_beta() {
        // Triangle + covering edge: α-acyclic but not β-acyclic (paper Def 4.5
        // motivation).
        let h = Hypergraph::from_edges(&[&[0, 1], &[0, 2], &[1, 2], &[0, 1, 2]]);
        assert!(crate::acyclic::is_alpha_acyclic(&h));
        assert!(!is_beta_acyclic(&h));
    }

    #[test]
    fn nested_chain_family() {
        let h = Hypergraph::from_edges(&[&[0], &[0, 1], &[0, 1, 2], &[0, 1, 2, 3]]);
        assert!(is_beta_acyclic(&h));
    }

    #[test]
    fn neo_matches_bruteforce_on_random_instances() {
        use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen_acyclic = 0;
        let mut seen_cyclic = 0;
        for _ in 0..80 {
            let n: u32 = rng.gen_range(3..7);
            let m = rng.gen_range(2..6);
            let mut h = Hypergraph::new();
            for _ in 0..m {
                let k = rng.gen_range(1..=n.min(4));
                let mut vs: Vec<u32> = (0..n).collect();
                vs.shuffle(&mut rng);
                h.add_edge(vs[..k as usize].iter().map(|&i| Var(i)));
            }
            let fast = is_beta_acyclic(&h);
            let slow = is_beta_acyclic_bruteforce(&h);
            assert_eq!(fast, slow, "mismatch on {h:?}");
            if fast {
                seen_acyclic += 1;
                let neo = nested_elimination_order(&h).unwrap();
                assert!(is_nested_elimination_order(&h, &neo));
            } else {
                seen_cyclic += 1;
            }
        }
        assert!(seen_acyclic > 0 && seen_cyclic > 0, "want both outcomes exercised");
    }

    #[test]
    fn beta_implies_alpha_on_random_instances() {
        use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..60 {
            let n: u32 = rng.gen_range(3..8);
            let m = rng.gen_range(2..6);
            let mut h = Hypergraph::new();
            for _ in 0..m {
                let k = rng.gen_range(1..=n.min(4));
                let mut vs: Vec<u32> = (0..n).collect();
                vs.shuffle(&mut rng);
                h.add_edge(vs[..k as usize].iter().map(|&i| Var(i)));
            }
            if is_beta_acyclic(&h) {
                assert!(crate::acyclic::is_alpha_acyclic(&h), "β ⊆ α violated: {h:?}");
            }
        }
    }

    #[test]
    fn wrong_order_rejected() {
        // On the chain family, eliminating the deepest-nested vertex LAST in
        // reverse order (i.e. first position of σ) is fine, but an order that
        // eliminates vertex 0 first breaks every chain containing it... in
        // fact for this family vertex 0 is in all edges, so removing it first
        // still leaves chains. Use a family where order matters:
        let h = Hypergraph::from_edges(&[&[0, 1], &[1, 2], &[1]]);
        // v=1 is not a nest point while 0 and 2 are present ({0,1} vs {1,2}).
        assert!(!is_nested_elimination_order(&h, &[Var(0), Var(2), Var(1)]));
        assert!(is_nested_elimination_order(&h, &[Var(1), Var(0), Var(2)]));
    }
}
