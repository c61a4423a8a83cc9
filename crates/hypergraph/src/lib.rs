//! Multi-hypergraphs, vertex orderings, acyclicity and width parameters.
//!
//! This crate implements the combinatorial substrate of the FAQ paper (§4):
//!
//! * [`Hypergraph`] — a multi-hypergraph over [`Var`] vertices;
//! * [`elim`] — the elimination hypergraph sequence of Definition 4.8 /
//!   Definition 5.4 and induced `g`-widths of vertex orderings;
//! * [`gyo_reduce`] / [`is_alpha_acyclic`] / [`join_tree`] — GYO reduction,
//!   α-acyclicity (Def 4.4) and join trees;
//! * [`is_beta_acyclic`] / [`nested_elimination_order`] /
//!   [`is_nested_elimination_order`] — β-acyclicity (Def 4.5) via nest points,
//!   and nested elimination orders (Prop 4.10);
//! * [`widths`] — integral and fractional edge cover numbers `ρ`, `ρ*`
//!   (§4.2) and the AGM bound;
//! * [`TreeDecomposition`] — tree decompositions (Def 4.3) built from an
//!   ordering, and their validation;
//! * [`ordering`] — exact (subset DP) and heuristic searches for vertex
//!   orderings minimizing induced widths (tw / fhtw, Cor 4.13);
//! * [`compose`] — hypergraph composition and the fhtw bounds of §8.5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod acyclic;
mod beta;
pub mod compose;
pub mod elim;
pub mod ordering;
mod treedec;
pub mod widths;
#[cfg(test)]
mod zoo;

pub use acyclic::{gyo_reduce, is_alpha_acyclic, join_tree};
pub use beta::{is_beta_acyclic, is_nested_elimination_order, nested_elimination_order};
pub use elim::EliminationSequence;
pub use ordering::{best_ordering_exact, min_degree_ordering, min_fill_ordering};
pub use treedec::TreeDecomposition;
pub use widths::{agm_bound, fractional_cover, integral_cover, rho_integral, rho_star};

use std::collections::BTreeSet;
use std::fmt;

/// A variable / vertex identifier.
///
/// Variables are small dense integers; domain metadata lives elsewhere
/// (`faq-factor`'s `Domains`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// The index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.0)
    }
}

/// Convenience constructor: `v(3)` is `Var(3)`.
pub fn v(i: u32) -> Var {
    Var(i)
}

/// A set of variables, kept sorted and deduplicated.
pub type VarSet = BTreeSet<Var>;

/// Build a [`VarSet`] from a slice of raw indices.
pub fn varset(vars: &[u32]) -> VarSet {
    vars.iter().map(|&i| Var(i)).collect()
}

/// A multi-hypergraph `H = (V, E)`.
///
/// Edges are stored as sorted, deduplicated variable lists; the same variable
/// set may appear in several edges (the FAQ hypergraph is a multi-hypergraph:
/// one edge per input factor). The vertex set is tracked explicitly so that
/// isolated vertices — which the paper's constructions use (the dummy free
/// variable `X₀`) — are representable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hypergraph {
    vertices: VarSet,
    edges: Vec<VarSet>,
}

impl Hypergraph {
    /// An empty hypergraph.
    pub fn new() -> Self {
        Hypergraph { vertices: BTreeSet::new(), edges: Vec::new() }
    }

    /// Build from edges given as slices of raw variable indices.
    ///
    /// The vertex set is the union of the edges.
    pub fn from_edges(edges: &[&[u32]]) -> Self {
        let mut h = Hypergraph::new();
        for e in edges {
            h.add_edge(e.iter().map(|&i| Var(i)));
        }
        h
    }

    /// Add an edge; its vertices join the vertex set. Returns the edge index.
    pub fn add_edge<I: IntoIterator<Item = Var>>(&mut self, vars: I) -> usize {
        let set: VarSet = vars.into_iter().collect();
        self.vertices.extend(set.iter().copied());
        self.edges.push(set);
        self.edges.len() - 1
    }

    /// Add an isolated vertex (no incident edge).
    pub fn add_vertex(&mut self, v: Var) {
        self.vertices.insert(v);
    }

    /// The vertex set.
    pub fn vertices(&self) -> &VarSet {
        &self.vertices
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// The edges, in insertion order.
    pub fn edges(&self) -> &[VarSet] {
        &self.edges
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Connected components of the vertex set (isolated vertices form their
    /// own components). Components are returned as sorted vertex sets, in
    /// ascending order of their minimum vertex.
    pub fn connected_components(&self) -> Vec<VarSet> {
        let mut comp: Vec<VarSet> = Vec::new();
        let mut seen: VarSet = BTreeSet::new();
        for &start in &self.vertices {
            if seen.contains(&start) {
                continue;
            }
            let mut stack = vec![start];
            let mut cur = VarSet::new();
            seen.insert(start);
            while let Some(x) = stack.pop() {
                cur.insert(x);
                for e in &self.edges {
                    if e.contains(&x) {
                        for &y in e {
                            if seen.insert(y) {
                                stack.push(y);
                            }
                        }
                    }
                }
            }
            comp.push(cur);
        }
        comp
    }

    /// Deduplicate edges and drop edges contained in other edges.
    ///
    /// Width computations only depend on the inclusion-maximal edges; pruning
    /// shrinks the LPs. (Do **not** use this on FAQ query hypergraphs, where
    /// each edge carries a factor.)
    pub fn maximal_edges(&self) -> Hypergraph {
        let mut keep: Vec<bool> = vec![true; self.edges.len()];
        for (i, k) in keep.iter_mut().enumerate() {
            for j in 0..self.edges.len() {
                if i != j
                    && *k
                    && self.edges[i].is_subset(&self.edges[j])
                    && (self.edges[i] != self.edges[j] || i > j)
                {
                    *k = false;
                }
            }
        }
        let edges: Vec<VarSet> =
            self.edges.iter().zip(&keep).filter(|(_, &k)| k).map(|(e, _)| e.clone()).collect();
        Hypergraph { vertices: self.vertices.clone(), edges }
    }
}

impl Default for Hypergraph {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Hypergraph {
        Hypergraph::from_edges(&[&[0, 1], &[0, 2], &[1, 2]])
    }

    #[test]
    fn basic_accessors() {
        let h = triangle();
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_edges(), 3);
    }

    #[test]
    fn isolated_vertices_tracked() {
        let mut h = triangle();
        h.add_vertex(Var(9));
        assert_eq!(h.num_vertices(), 4);
        let comps = h.connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[1], varset(&[9]));
    }

    #[test]
    fn components_split_after_cut() {
        let h = Hypergraph::from_edges(&[&[0, 1], &[1, 2], &[3, 4]]);
        assert_eq!(h.connected_components().len(), 2);
        // Cutting vertex 1 leaves {0}, {2} and {3, 4}.
        let g = Hypergraph::from_edges(&[&[0], &[2], &[3, 4]]);
        assert_eq!(g.connected_components().len(), 3);
    }

    #[test]
    fn maximal_edge_pruning() {
        let h = Hypergraph::from_edges(&[&[0, 1], &[0, 1, 2], &[0, 1], &[2]]);
        let m = h.maximal_edges();
        assert_eq!(m.num_edges(), 1);
        assert_eq!(m.edges()[0], varset(&[0, 1, 2]));
        assert_eq!(m.num_vertices(), 3);
    }

    #[test]
    fn multigraph_edges_preserved() {
        let h = Hypergraph::from_edges(&[&[0, 1], &[0, 1]]);
        assert_eq!(h.num_edges(), 2);
    }
}
