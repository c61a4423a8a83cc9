//! α-acyclicity, GYO reduction and join trees (paper Definition 4.4, Prop 4.9).
//!
//! A hypergraph is α-acyclic iff it has a tree decomposition whose bags are
//! hyperedges — equivalently, iff the GYO (Graham / Yu–Özsoyoğlu) reduction
//! empties it: repeatedly delete *ear vertices* (vertices appearing in exactly
//! one edge) and edges contained in other edges.

use crate::{Hypergraph, Var, VarSet};
use std::collections::BTreeMap;

/// The result of a GYO reduction.
#[derive(Debug, Clone)]
pub struct GyoReduction {
    /// Whether the reduction emptied the hypergraph (α-acyclicity witness).
    pub acyclic: bool,
    /// For each original edge index that was absorbed into another edge,
    /// the absorbing edge's original index (parent in the join tree).
    pub absorbed_into: BTreeMap<usize, usize>,
    /// Elimination order of the ear vertices, in removal order.
    pub ear_vertices: Vec<Var>,
}

/// Run the GYO reduction on `h`.
pub fn gyo_reduce(h: &Hypergraph) -> GyoReduction {
    // Work on (original index, current vertex set) pairs.
    let mut live: Vec<(usize, VarSet)> =
        h.edges().iter().cloned().enumerate().filter(|(_, e)| !e.is_empty()).collect();
    let mut absorbed_into = BTreeMap::new();
    let mut ear_vertices = Vec::new();

    loop {
        let mut changed = false;

        // Rule 1: remove vertices that occur in exactly one live edge.
        let mut occurrence: BTreeMap<Var, usize> = BTreeMap::new();
        for (_, e) in &live {
            for &v in e {
                *occurrence.entry(v).or_insert(0) += 1;
            }
        }
        for (_, e) in live.iter_mut() {
            let before = e.len();
            e.retain(|v| occurrence[v] > 1);
            if e.len() != before {
                changed = true;
                // Ears removed from this edge.
            }
        }
        for (v, c) in &occurrence {
            if *c == 1 {
                ear_vertices.push(*v);
            }
        }

        // Rule 2: remove edges contained in another live edge (empty edges too).
        let mut i = 0;
        while i < live.len() {
            let mut absorbed = None;
            for j in 0..live.len() {
                if i != j && live[i].1.is_subset(&live[j].1) {
                    absorbed = Some(j);
                    break;
                }
            }
            if live[i].1.is_empty() {
                live.remove(i);
                changed = true;
            } else if let Some(j) = absorbed {
                absorbed_into.insert(live[i].0, live[j].0);
                live.remove(i);
                changed = true;
            } else {
                i += 1;
            }
        }

        if !changed {
            break;
        }
    }

    GyoReduction { acyclic: live.len() <= 1, absorbed_into, ear_vertices }
}

/// Whether `h` is α-acyclic.
pub fn is_alpha_acyclic(h: &Hypergraph) -> bool {
    gyo_reduce(h).acyclic
}

/// A join tree: a tree over the edge indices of an α-acyclic hypergraph, such
/// that for every vertex the edges containing it form a connected subtree.
#[derive(Debug, Clone)]
pub struct JoinTree {
    /// `parent[i]` is the parent edge index of edge `i`; the root maps to itself.
    pub parent: Vec<usize>,
    /// The root edge index.
    pub root: usize,
}

/// Build a join tree for an α-acyclic hypergraph; `None` if `h` is cyclic or empty.
pub fn join_tree(h: &Hypergraph) -> Option<JoinTree> {
    if h.num_edges() == 0 {
        return None;
    }
    let red = gyo_reduce(h);
    if !red.acyclic {
        return None;
    }
    let m = h.num_edges();
    let mut parent: Vec<usize> = (0..m).collect();
    // Edges absorbed during GYO hang off their absorber; the last surviving
    // edge becomes the root. Chase chains to the final representative.
    for (&child, &par) in &red.absorbed_into {
        parent[child] = par;
    }
    // The root: any edge that never got absorbed.
    let root = (0..m).find(|&i| parent[i] == i).unwrap_or(0);
    // Edges that were never absorbed but aren't root (possible with duplicate
    // edges all absorbed into one) — point them at the root.
    for (i, p) in parent.iter_mut().enumerate() {
        if *p == i && i != root {
            *p = root;
        }
    }
    Some(JoinTree { parent, root })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::v;

    /// Verify the join-tree running-intersection property.
    fn validate_join_tree(h: &Hypergraph, t: &JoinTree) -> bool {
        let m = h.num_edges();
        if t.parent.len() != m {
            return false;
        }
        // For each vertex, the set of edges containing it must form a connected
        // subtree: check that from every edge containing v, walking to the root,
        // once we leave the set we never re-enter.
        for &vtx in h.vertices().iter() {
            let holders: Vec<usize> = (0..m).filter(|&i| h.edges()[i].contains(&vtx)).collect();
            if holders.is_empty() {
                continue;
            }
            // The connected-subtree condition is equivalent to: the nearest common
            // "holder ancestor" structure is itself connected. Simple check: for
            // each holder, walk up until reaching another holder or the root; if we
            // reach another holder the segment between must be all holders.
            for &start in &holders {
                let mut cur = start;
                let mut left_set = false;
                let mut steps = 0;
                while t.parent[cur] != cur {
                    cur = t.parent[cur];
                    steps += 1;
                    if steps > m {
                        return false; // cycle
                    }
                    let inside = h.edges()[cur].contains(&vtx);
                    if !inside {
                        left_set = true;
                    } else if left_set {
                        return false; // re-entered: disconnected subtree
                    }
                }
            }
        }
        true
    }

    #[test]
    fn path_is_acyclic() {
        let h = Hypergraph::from_edges(&[&[0, 1], &[1, 2], &[2, 3]]);
        assert!(is_alpha_acyclic(&h));
        let t = join_tree(&h).unwrap();
        assert!(validate_join_tree(&h, &t));
    }

    #[test]
    fn triangle_is_cyclic() {
        let h = Hypergraph::from_edges(&[&[0, 1], &[0, 2], &[1, 2]]);
        assert!(!is_alpha_acyclic(&h));
        assert!(join_tree(&h).is_none());
    }

    #[test]
    fn triangle_plus_big_edge_is_acyclic() {
        // Adding an edge covering everything makes any hypergraph α-acyclic
        // (the paper's motivation for β-acyclicity).
        let h = Hypergraph::from_edges(&[&[0, 1], &[0, 2], &[1, 2], &[0, 1, 2]]);
        assert!(is_alpha_acyclic(&h));
        let t = join_tree(&h).unwrap();
        assert!(validate_join_tree(&h, &t));
    }

    #[test]
    fn star_is_acyclic() {
        let h = Hypergraph::from_edges(&[&[0, 1], &[0, 2], &[0, 3], &[0, 4]]);
        assert!(is_alpha_acyclic(&h));
        assert!(validate_join_tree(&h, &join_tree(&h).unwrap()));
    }

    #[test]
    fn ears_are_recorded() {
        let h = Hypergraph::from_edges(&[&[0, 1], &[1, 2]]);
        let red = gyo_reduce(&h);
        assert!(red.acyclic);
        assert!(red.ear_vertices.contains(&v(0)));
        assert!(red.ear_vertices.contains(&v(2)));
    }

    #[test]
    fn cycle_c4_is_cyclic_but_chord_makes_acyclic_with_cover() {
        let c4 = Hypergraph::from_edges(&[&[0, 1], &[1, 2], &[2, 3], &[3, 0]]);
        assert!(!is_alpha_acyclic(&c4));
        let covered = Hypergraph::from_edges(&[&[0, 1], &[1, 2], &[2, 3], &[3, 0], &[0, 1, 2, 3]]);
        assert!(is_alpha_acyclic(&covered));
    }

    #[test]
    fn duplicate_edges_handled() {
        let h = Hypergraph::from_edges(&[&[0, 1], &[0, 1], &[1, 2]]);
        assert!(is_alpha_acyclic(&h));
        let t = join_tree(&h).unwrap();
        assert!(validate_join_tree(&h, &t));
    }
}
