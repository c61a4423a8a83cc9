//! Tree decompositions and their widths (paper Definitions 4.3, 4.6).

use crate::elim::EliminationSequence;
use crate::{Hypergraph, Var, VarSet};

/// A tree decomposition `(T, χ)` of a hypergraph.
#[derive(Debug, Clone)]
pub struct TreeDecomposition {
    /// Bags, one per tree node.
    pub bags: Vec<VarSet>,
    /// `parent[i]` is the parent node of node `i`; the root maps to itself.
    pub parent: Vec<usize>,
}

impl TreeDecomposition {
    /// Build a tree decomposition from a vertex ordering via the elimination
    /// sequence: the bag of `v_k` is `U_k`; it attaches to the bag of the
    /// earliest-eliminated vertex of `U_k − {v_k}` (standard construction
    /// behind Lemma 4.12 / Corollary 4.13).
    pub fn from_ordering(h: &Hypergraph, order: &[Var]) -> Self {
        let seq = EliminationSequence::new(h, order);
        let n = order.len();
        let pos: std::collections::BTreeMap<Var, usize> =
            order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut bags: Vec<VarSet> = Vec::with_capacity(n);
        let mut parent: Vec<usize> = Vec::with_capacity(n);
        for (k, &vert) in order.iter().enumerate() {
            let mut bag = seq.u_set(k).clone();
            if bag.is_empty() {
                bag.insert(vert); // isolated vertex still needs a bag
            }
            bags.push(bag);
        }
        for k in 0..n {
            // Parent = position of the latest-position vertex in U_k − {v_k}
            // that is eliminated AFTER v_k... vertices of U_k other than v_k
            // all have positions < k (they are eliminated later since we
            // eliminate from the back). Attach to the maximum such position.
            let anchor = bags[k].iter().filter(|&&u| u != order[k]).map(|u| pos[u]).max();
            parent.push(anchor.unwrap_or(k));
        }
        // Ensure root(s) self-loop; nodes with no anchor already do.
        TreeDecomposition { bags, parent }
    }

    /// Validate the two tree-decomposition properties plus tree-shapedness.
    pub fn validate(&self, h: &Hypergraph) -> Result<(), String> {
        let n = self.bags.len();
        if self.parent.len() != n {
            return Err("parent/bags length mismatch".into());
        }
        // (tree) parent pointers must be acyclic apart from self-loop roots.
        for start in 0..n {
            let mut cur = start;
            let mut steps = 0;
            while self.parent[cur] != cur {
                cur = self.parent[cur];
                steps += 1;
                if steps > n {
                    return Err("parent pointers contain a cycle".into());
                }
            }
        }
        // (a) every hyperedge is inside some bag.
        for (i, e) in h.edges().iter().enumerate() {
            if !self.bags.iter().any(|b| e.is_subset(b)) {
                return Err(format!("edge {i} ({e:?}) not covered by any bag"));
            }
        }
        // (b) for every vertex the nodes containing it form a connected subtree.
        for &vtx in h.vertices() {
            let holders: Vec<usize> = (0..n).filter(|&i| self.bags[i].contains(&vtx)).collect();
            if holders.is_empty() {
                return Err(format!("vertex {vtx:?} appears in no bag"));
            }
            // Walk up from every holder: once we leave the holder set, we may
            // not re-enter it.
            for &start in &holders {
                let mut cur = start;
                let mut left = false;
                while self.parent[cur] != cur {
                    cur = self.parent[cur];
                    let inside = self.bags[cur].contains(&vtx);
                    if !inside {
                        left = true;
                    } else if left {
                        return Err(format!("vertex {vtx:?} induces a disconnected subtree"));
                    }
                }
            }
            // Also: all holders must share the same "topmost holder".
            let top_of = |mut cur: usize| {
                let mut top = cur;
                while self.parent[cur] != cur {
                    cur = self.parent[cur];
                    if self.bags[cur].contains(&vtx) {
                        top = cur;
                    }
                }
                top
            };
            let tops: std::collections::BTreeSet<usize> =
                holders.iter().map(|&s| top_of(s)).collect();
            if tops.len() > 1 {
                return Err(format!("vertex {vtx:?} induces a forest, not a subtree"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{v, varset, widths::rho_star};

    /// The classical width: `max |bag| − 1`.
    fn width(td: &TreeDecomposition) -> usize {
        td.bags.iter().map(|b| b.len().saturating_sub(1)).max().unwrap_or(0)
    }

    #[test]
    fn trivial_is_valid() {
        let h = Hypergraph::from_edges(&[&[0, 1], &[1, 2]]);
        let td = TreeDecomposition { bags: vec![h.vertices().clone()], parent: vec![0] };
        td.validate(&h).unwrap();
        assert_eq!(width(&td), 2);
    }

    #[test]
    fn path_ordering_gives_width_one() {
        let h = Hypergraph::from_edges(&[&[0, 1], &[1, 2], &[2, 3]]);
        let td = TreeDecomposition::from_ordering(&h, &[v(0), v(1), v(2), v(3)]);
        td.validate(&h).unwrap();
        assert_eq!(width(&td), 1);
    }

    #[test]
    fn triangle_from_ordering() {
        let h = Hypergraph::from_edges(&[&[0, 1], &[0, 2], &[1, 2]]);
        let td = TreeDecomposition::from_ordering(&h, &[v(0), v(1), v(2)]);
        td.validate(&h).unwrap();
        assert_eq!(width(&td), 2);
        // fractional width of the triangle decomposition: one bag {0,1,2} -> 1.5.
        let w = td.bags.iter().map(|b| rho_star(&h, b)).fold(0.0, f64::max);
        assert!((w - 1.5).abs() < 1e-6);
    }

    #[test]
    fn random_orderings_yield_valid_decompositions() {
        use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..50 {
            let n: u32 = rng.gen_range(2..8);
            let m = rng.gen_range(1..8);
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
            let mut order: Vec<Var> = (0..n).map(Var).collect();
            order.shuffle(&mut rng);
            let td = TreeDecomposition::from_ordering(&h, &order);
            td.validate(&h).unwrap_or_else(|e| panic!("{e} for {h:?} order {order:?}"));
        }
    }

    #[test]
    fn validate_rejects_uncovered_edge() {
        let h = Hypergraph::from_edges(&[&[0, 1], &[1, 2]]);
        let td =
            TreeDecomposition { bags: vec![varset(&[0, 1]), varset(&[2])], parent: vec![0, 0] };
        assert!(td.validate(&h).is_err());
    }

    #[test]
    fn validate_rejects_disconnected_vertex() {
        let mut h = Hypergraph::from_edges(&[&[0, 1]]);
        h.add_vertex(v(2));
        let td = TreeDecomposition {
            bags: vec![varset(&[0, 1, 2]), varset(&[0, 1]), varset(&[1, 2])],
            parent: vec![0, 0, 1],
        };
        // vertex 2 appears in bags 0 and 2 but not 1: path 2 -> 1 -> 0 leaves
        // and re-enters — invalid.
        assert!(td.validate(&h).is_err());
    }
}
