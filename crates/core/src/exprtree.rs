//! Expression trees and the precedence poset (paper §6).
//!
//! The expression tree of a FAQ query captures which variable orderings are
//! semantically equivalent to the input expression. It is built in two steps
//! (Definitions 6.1 and 6.18):
//!
//! * **Compartmentalization** — the first tag block becomes a node; the rest
//!   of the query splits into the *extended* connected components of the
//!   hypergraph minus that block and minus the product variables `W`, each
//!   recursively compartmentalized. Product variables adjacent to a component
//!   are pulled into its extension (and may appear in several components —
//!   "copies"); edges that fall entirely inside `W` contribute their product
//!   variables to a *dangling* leaf node.
//! * **Compression** — a child node with the same tag as its parent merges
//!   into the parent, repeatedly.
//!
//! When the product `⊗` is not idempotent on the whole domain, the
//! construction first extends every hyperedge with *all* product variables
//! (Definition 6.30), which restores soundness of the component analysis.
//!
//! The variable-level ancestor relation of the tree is the **precedence
//! poset** (Definition 6.3 / 6.22, well-defined by Corollary 6.21); its linear
//! extensions `LinEx(P)` are sound and width-complete for `EVO(ϕ)`
//! (Theorems 6.8/6.23 and 6.12/6.27).

use faq_hypergraph::{Hypergraph, Var, VarSet};
use faq_semiring::AggId;
use std::collections::BTreeMap;
use std::fmt;

/// The tag of a variable in the quantifier prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tag {
    /// Free (output) variable.
    Free,
    /// Semiring aggregate; the id must be pre-canonicalized so that
    /// functionally identical operators compare equal (Definition 6.4).
    Semiring(AggId),
    /// The product aggregate `⊗`.
    Product,
}

impl Tag {
    /// Whether this tag folds during elimination (free or semiring).
    pub(crate) fn is_fold(self) -> bool {
        !matches!(self, Tag::Product)
    }
}

/// The combinatorial shape of a FAQ query: the tagged quantifier prefix and
/// the hyperedges. This is all the §6–§7 machinery needs — factor values never
/// enter.
#[derive(Debug, Clone, Default)]
pub struct QueryShape {
    /// Variables with tags, in query order (free first).
    pub seq: Vec<(Var, Tag)>,
    /// The query hyperedges (one per factor).
    pub edges: Vec<VarSet>,
    /// Whether `⊗` acts idempotently on the inputs — either domain-wide, or
    /// under the `F(D_I)` promise of Definition 5.8. When `false` and product
    /// aggregates are present, the tree builder applies the Definition 6.30
    /// edge extension.
    pub mul_idempotent: bool,
    /// Semiring operators known to be *closed* on the idempotent elements
    /// (paper §6.2). Non-closed aggregates (e.g. `Σ` over `ℕ`) never commute
    /// with product aggregates — even across disconnected components — so the
    /// precedence machinery preserves their original order relative to every
    /// product variable. Leave empty for the conservative default.
    pub closed_ops: std::collections::BTreeSet<AggId>,
}

/// A node of the expression tree.
#[derive(Debug, Clone)]
pub struct ExprNode {
    /// The node's variables, in original query order. Product variables may
    /// appear in several nodes (copies).
    pub vars: Vec<Var>,
    /// The node's tag. All variables of a node share it.
    pub tag: Tag,
    /// Child node ids.
    pub children: Vec<usize>,
}

/// The compressed expression tree.
#[derive(Debug, Clone)]
pub struct ExprTree {
    /// Nodes; `nodes[root]` is the root (the free block, possibly empty).
    pub nodes: Vec<ExprNode>,
    /// Root node id.
    pub root: usize,
}

impl QueryShape {
    /// All variables in query order.
    pub(crate) fn vars(&self) -> Vec<Var> {
        self.seq.iter().map(|&(v, _)| v).collect()
    }

    /// The free variables.
    pub(crate) fn free_vars(&self) -> Vec<Var> {
        self.seq.iter().filter(|(_, t)| *t == Tag::Free).map(|&(v, _)| v).collect()
    }

    /// The tag of `v`.
    pub(crate) fn tag_of(&self, v: Var) -> Option<Tag> {
        self.seq.iter().find(|&&(s, _)| s == v).map(|&(_, t)| t)
    }

    /// Position of `v` in the query prefix.
    pub(crate) fn seq_pos(&self, v: Var) -> Option<usize> {
        self.seq.iter().position(|&(s, _)| s == v)
    }

    /// The query hypergraph over the original edges (vertices include
    /// variables in no edge).
    pub fn hypergraph(&self) -> Hypergraph {
        let mut h = Hypergraph::new();
        for &(v, _) in &self.seq {
            h.add_vertex(v);
        }
        for e in &self.edges {
            h.add_edge(e.iter().copied());
        }
        h
    }

    /// The product-tagged variables.
    pub(crate) fn product_vars(&self) -> VarSet {
        self.seq.iter().filter(|(_, t)| *t == Tag::Product).map(|&(v, _)| v).collect()
    }

    /// The semiring-tagged variables whose operator is *not* closed on the
    /// idempotent elements.
    pub(crate) fn non_closed_vars(&self) -> VarSet {
        self.seq
            .iter()
            .filter(|(_, t)| matches!(t, Tag::Semiring(op) if !self.closed_ops.contains(op)))
            .map(|&(v, _)| v)
            .collect()
    }

    /// The edges used for the expression-tree construction: the original ones
    /// in the idempotent regime (or with no product aggregates), otherwise
    /// each edge extended with every product variable (Definition 6.30).
    pub(crate) fn effective_edges(&self) -> Vec<VarSet> {
        let products = self.product_vars();
        if self.mul_idempotent || products.is_empty() {
            return self.edges.clone();
        }
        self.edges.iter().map(|e| e.union(&products).copied().collect()).collect()
    }

    /// The pairs of variables that never commute, as `(earlier, later)` in
    /// query order: a product variable and a non-closed semiring variable,
    /// even when structurally independent (`(Σ a)^k ≠ Σ aᵏ`). Every
    /// equivalent ordering keeps each pair's order. Listed in lexicographic
    /// order of their query positions.
    pub(crate) fn non_commuting_pairs(&self) -> Vec<(Var, Var)> {
        let products = self.product_vars();
        let non_closed = self.non_closed_vars();
        let mut pairs = Vec::new();
        for (a, &(u, _)) in self.seq.iter().enumerate() {
            for &(w, _) in &self.seq[a + 1..] {
                if (products.contains(&u) && non_closed.contains(&w))
                    || (non_closed.contains(&u) && products.contains(&w))
                {
                    pairs.push((u, w));
                }
            }
        }
        pairs
    }

    /// The precedence relation of the query: the expression-tree poset
    /// (Definition 6.22) strengthened with the order of every
    /// [`QueryShape::non_commuting_pairs`] pair.
    pub(crate) fn precedence(&self) -> BTreeMap<Var, VarSet> {
        let mut preds = self.expr_tree().precedence();
        for (u, w) in self.non_commuting_pairs() {
            preds.get_mut(&w).expect("registered").insert(u);
        }
        close_poset(preds)
    }

    /// Build the compressed expression tree.
    pub fn expr_tree(&self) -> ExprTree {
        let mut nodes: Vec<ExprNode> = Vec::new();
        let free: Vec<Var> = self.free_vars();
        let rest: Vec<(Var, Tag)> =
            self.seq.iter().copied().filter(|(_, t)| *t != Tag::Free).collect();
        let rest_vars: VarSet = rest.iter().map(|&(v, _)| v).collect();
        let edges: Vec<VarSet> = self
            .effective_edges()
            .iter()
            .map(|e| e.intersection(&rest_vars).copied().collect::<VarSet>())
            .filter(|e: &VarSet| !e.is_empty())
            .collect();

        let root = nodes.len();
        nodes.push(ExprNode { vars: free, tag: Tag::Free, children: Vec::new() });
        attach_children(&mut nodes, root, &rest, &edges);
        let mut tree = ExprTree { nodes, root };
        tree.compress(self);
        tree.sort_node_vars(self);
        tree
    }
}

/// Build the subtree for a non-empty tagged sequence with edges already
/// restricted to its variables; returns the subtree root id.
fn build_inner(nodes: &mut Vec<ExprNode>, seq: &[(Var, Tag)], edges: &[VarSet]) -> usize {
    debug_assert!(!seq.is_empty());
    let first_tag = seq[0].1;
    let block_len = seq.iter().take_while(|(_, t)| *t == first_tag).count();
    let block: Vec<Var> = seq[..block_len].iter().map(|&(v, _)| v).collect();
    let block_set: VarSet = block.iter().copied().collect();
    let id = nodes.len();
    nodes.push(ExprNode { vars: block, tag: first_tag, children: Vec::new() });

    let rest: Vec<(Var, Tag)> =
        seq[block_len..].iter().copied().filter(|(v, _)| !block_set.contains(v)).collect();
    let rest_vars: VarSet = rest.iter().map(|&(v, _)| v).collect();
    let redges: Vec<VarSet> = edges
        .iter()
        .map(|e| e.intersection(&rest_vars).copied().collect::<VarSet>())
        .filter(|e: &VarSet| !e.is_empty())
        .collect();
    attach_children(nodes, id, &rest, &redges);
    id
}

/// Shared compartmentalization step: split `rest` into extended components of
/// the hypergraph minus the parent block minus the product variables, plus a
/// dangling product node; attach each as a child of `parent`.
fn attach_children(
    nodes: &mut Vec<ExprNode>,
    parent: usize,
    rest: &[(Var, Tag)],
    redges: &[VarSet],
) {
    if rest.is_empty() {
        return;
    }
    let w: VarSet = rest.iter().filter(|(_, t)| *t == Tag::Product).map(|&(v, _)| v).collect();
    let core: VarSet = rest.iter().filter(|(_, t)| *t != Tag::Product).map(|&(v, _)| v).collect();

    // Connected components of the core (isolated core vertices included).
    let mut core_h = Hypergraph::new();
    for &v in &core {
        core_h.add_vertex(v);
    }
    for e in redges {
        let ce: VarSet = e.intersection(&core).copied().collect();
        if !ce.is_empty() {
            core_h.add_edge(ce.iter().copied());
        }
    }
    let comps = core_h.connected_components();

    for comp in &comps {
        // Extended component: pull in adjacent product variables.
        let mut vext: VarSet = comp.clone();
        for e in redges {
            if !e.is_disjoint(comp) {
                vext.extend(e.intersection(&w).copied());
            }
        }
        let eext: Vec<VarSet> = redges
            .iter()
            .filter(|e| !e.is_disjoint(comp))
            .map(|e| e.intersection(&vext).copied().collect::<VarSet>())
            .collect();
        let cseq: Vec<(Var, Tag)> =
            rest.iter().copied().filter(|(v, _)| vext.contains(v)).collect();
        let child = build_inner(nodes, &cseq, &eext);
        nodes[parent].children.push(child);
    }

    // Dangling product node: product variables of edges entirely inside W,
    // plus product variables in no edge at all.
    let mut dangling: VarSet = VarSet::new();
    for e in redges {
        if e.is_subset(&w) {
            dangling.extend(e.iter().copied());
        }
    }
    for &pv in &w {
        if !redges.iter().any(|e| e.contains(&pv)) {
            dangling.insert(pv);
        }
    }
    if !dangling.is_empty() {
        let vars: Vec<Var> =
            rest.iter().map(|&(v, _)| v).filter(|v| dangling.contains(v)).collect();
        let id = nodes.len();
        nodes.push(ExprNode { vars, tag: Tag::Product, children: Vec::new() });
        nodes[parent].children.push(id);
    }
}

/// Close a strict-predecessor relation transitively and assert that it is
/// antisymmetric (Corollary 6.21): a precedence relation must be a poset.
fn close_poset(mut preds: BTreeMap<Var, VarSet>) -> BTreeMap<Var, VarSet> {
    loop {
        let mut changed = false;
        let vars: Vec<Var> = preds.keys().copied().collect();
        for &v in &vars {
            let ps: Vec<Var> = preds[&v].iter().copied().collect();
            for p in ps {
                let grand: Vec<Var> = preds[&p].iter().copied().collect();
                for g in grand {
                    if g != v && preds.get_mut(&v).expect("registered").insert(g) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    for (v, ps) in &preds {
        for p in ps {
            assert!(
                !preds[p].contains(v),
                "precedence relation is not a poset: {v} and {p} mutually precede"
            );
        }
    }
    preds
}

impl ExprTree {
    /// Merge same-tag children into parents until no merge applies
    /// (the compression step of Definitions 6.1/6.18), then drop dead nodes.
    ///
    /// A merge is skipped when it would lift a variable above a sibling
    /// subtree containing its non-commuting counterpart (a product variable
    /// vs a non-closed semiring variable that precedes it in the original
    /// query) — such a lift would contradict the order-preservation
    /// constraints of [`QueryShape::precedence`].
    fn compress(&mut self, shape: &QueryShape) {
        let pairs = shape.non_commuting_pairs();
        loop {
            let mut merged = false;
            // Find a (parent, child) pair with equal tags.
            'scan: for p in 0..self.nodes.len() {
                for (ci, &c) in self.nodes[p].children.iter().enumerate() {
                    if self.nodes[p].tag == self.nodes[c].tag && p != self.root {
                        // Merge guard: lifting c's vars above the sibling
                        // subtrees must not invert a pairwise constraint.
                        let mut sibling_vars: Vec<Var> = Vec::new();
                        for &sib in &self.nodes[p].children {
                            if sib != c {
                                let mut stack = vec![sib];
                                while let Some(i) = stack.pop() {
                                    sibling_vars.extend(self.nodes[i].vars.iter().copied());
                                    stack.extend(self.nodes[i].children.iter().copied());
                                }
                            }
                        }
                        let inverts = self.nodes[c]
                            .vars
                            .iter()
                            .any(|&x| sibling_vars.iter().any(|&y| pairs.contains(&(y, x))));
                        if inverts {
                            continue;
                        }
                        let child = self.nodes[c].clone();
                        let parent = &mut self.nodes[p];
                        parent.children.remove(ci);
                        for v in child.vars {
                            if !parent.vars.contains(&v) {
                                parent.vars.push(v);
                            }
                        }
                        let grandkids = child.children;
                        self.nodes[p].children.extend(grandkids);
                        self.nodes[c].vars.clear();
                        self.nodes[c].children.clear();
                        merged = true;
                        break 'scan;
                    }
                }
            }
            if !merged {
                break;
            }
        }
        self.compact();
    }

    /// Drop unreachable / emptied nodes and renumber.
    fn compact(&mut self) {
        let mut alive = vec![false; self.nodes.len()];
        let mut stack = vec![self.root];
        while let Some(i) = stack.pop() {
            if alive[i] {
                continue;
            }
            alive[i] = true;
            stack.extend(self.nodes[i].children.iter().copied());
        }
        let mut remap = vec![usize::MAX; self.nodes.len()];
        let mut out: Vec<ExprNode> = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if alive[i] {
                remap[i] = out.len();
                out.push(node.clone());
            }
        }
        for node in &mut out {
            for c in &mut node.children {
                *c = remap[*c];
            }
        }
        self.root = remap[self.root];
        self.nodes = out;
    }

    fn sort_node_vars(&mut self, shape: &QueryShape) {
        for node in &mut self.nodes {
            node.vars.sort_by_key(|&v| shape.seq_pos(v).unwrap_or(usize::MAX));
            node.children.sort();
        }
    }

    /// Node ids containing (a copy of) `v`.
    pub fn nodes_of(&self, v: Var) -> Vec<usize> {
        (0..self.nodes.len()).filter(|&i| self.nodes[i].vars.contains(&v)).collect()
    }

    /// All (ancestor, descendant) node-id pairs (strict).
    pub(crate) fn ancestor_pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        let mut stack: Vec<(usize, Vec<usize>)> = vec![(self.root, Vec::new())];
        while let Some((node, ancestors)) = stack.pop() {
            for &a in &ancestors {
                pairs.push((a, node));
            }
            for &c in &self.nodes[node].children {
                let mut anc = ancestors.clone();
                anc.push(node);
                stack.push((c, anc));
            }
        }
        pairs
    }

    /// The precedence poset as strict-predecessor sets: `preds[v]` contains
    /// `u` iff `u ≺ v` (some copy of `u` lives in a strict ancestor of a node
    /// containing `v`).
    pub(crate) fn precedence(&self) -> BTreeMap<Var, VarSet> {
        let mut preds: BTreeMap<Var, VarSet> = BTreeMap::new();
        for node in &self.nodes {
            for &v in &node.vars {
                preds.entry(v).or_default();
            }
        }
        for (a, d) in self.ancestor_pairs() {
            for &u in &self.nodes[a].vars {
                for &v in &self.nodes[d].vars {
                    if u != v {
                        preds.get_mut(&v).expect("v registered").insert(u);
                    }
                }
            }
        }
        // Node ancestors already give most of the closure, but copies can
        // relay constraints.
        close_poset(preds)
    }

    /// Render the tree as an indented listing (used by the examples that
    /// reproduce Figures 2–6).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_node(self.root, 0, &mut out);
        out
    }

    fn render_node(&self, id: usize, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let node = &self.nodes[id];
        let tag = match node.tag {
            Tag::Free => "free".to_string(),
            Tag::Semiring(op) => format!("⊕{}", op.0),
            Tag::Product => "⊗".to_string(),
        };
        let vars: Vec<String> = node.vars.iter().map(|v| v.to_string()).collect();
        writeln!(out, "{}[{}] {{{}}}", "  ".repeat(depth), tag, vars.join(",")).unwrap();
        for &c in &node.children {
            self.render_node(c, depth + 1, out);
        }
    }
}

impl fmt::Display for ExprTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faq_hypergraph::{v, varset};

    const SUM: Tag = Tag::Semiring(AggId(0));
    const MAX: Tag = Tag::Semiring(AggId(1));

    fn node_by_vars<'a>(t: &'a ExprTree, vars: &[u32]) -> Option<&'a ExprNode> {
        let set: VarSet = varset(vars);
        t.nodes.iter().find(|n| n.vars.iter().copied().collect::<VarSet>() == set)
    }

    /// Paper Example 6.2 / Figures 2–3:
    /// ϕ = Σ1 Σ2 max3 Σ4 Σ5 max6 max7 ψ12 ψ135 ψ14 ψ246 ψ27 ψ37.
    /// Final tree: root {} → {1,2,4}Σ with children {3,7}max (child {5}Σ)
    /// and {6}max.
    #[test]
    fn example_6_2_tree() {
        let shape = QueryShape {
            seq: vec![
                (v(1), SUM),
                (v(2), SUM),
                (v(3), MAX),
                (v(4), SUM),
                (v(5), SUM),
                (v(6), MAX),
                (v(7), MAX),
            ],
            edges: vec![
                varset(&[1, 2]),
                varset(&[1, 3, 5]),
                varset(&[1, 4]),
                varset(&[2, 4, 6]),
                varset(&[2, 7]),
                varset(&[3, 7]),
            ],
            mul_idempotent: false,
            closed_ops: Default::default(),
        };
        let t = shape.expr_tree();
        // Root is the (empty) free node with a single child {1,2,4}.
        assert!(t.nodes[t.root].vars.is_empty());
        assert_eq!(t.nodes[t.root].children.len(), 1);
        let top = node_by_vars(&t, &[1, 2, 4]).expect("node {1,2,4}");
        assert_eq!(top.tag, SUM);
        assert_eq!(top.children.len(), 2);
        let n37 = node_by_vars(&t, &[3, 7]).expect("node {3,7}");
        assert_eq!(n37.tag, MAX);
        assert_eq!(n37.children.len(), 1);
        let n5 = node_by_vars(&t, &[5]).expect("node {5}");
        assert_eq!(n5.tag, SUM);
        let n6 = node_by_vars(&t, &[6]).expect("node {6}");
        assert_eq!(n6.tag, MAX);
        assert!(n5.children.is_empty() && n6.children.is_empty());
    }

    /// Paper Example 6.19 / Figures 4–6 (product aggregates, DI-idempotent):
    /// ϕ = max1 max2 Σ3 Σ4 Π5 max6 Π7 max8 ψ13 ψ24 ψ34 ψ15 ψ16 ψ26 ψ257 ψ167 ψ278.
    /// Final tree: root {} → {1,2,6}max with children {5,7}⊗, {3,4}Σ, {7}⊗,
    /// {7}⊗→{8}max; the {6} child {7}⊗ stays separate from the C3 chain
    /// {7}⊗→{8}max.
    #[test]
    fn example_6_19_tree() {
        let shape = QueryShape {
            seq: vec![
                (v(1), MAX),
                (v(2), MAX),
                (v(3), SUM),
                (v(4), SUM),
                (v(5), Tag::Product),
                (v(6), MAX),
                (v(7), Tag::Product),
                (v(8), MAX),
            ],
            edges: vec![
                varset(&[1, 3]),
                varset(&[2, 4]),
                varset(&[3, 4]),
                varset(&[1, 5]),
                varset(&[1, 6]),
                varset(&[2, 6]),
                varset(&[2, 5, 7]),
                varset(&[1, 6, 7]),
                varset(&[2, 7, 8]),
            ],
            mul_idempotent: true,
            closed_ops: [AggId(1)].into_iter().collect(),
        };
        let t = shape.expr_tree();
        assert!(t.nodes[t.root].vars.is_empty());
        let top = node_by_vars(&t, &[1, 2, 6]).expect("node {1,2,6}");
        assert_eq!(top.tag, MAX);
        assert_eq!(top.children.len(), 4);
        assert!(node_by_vars(&t, &[3, 4]).is_some());
        let dangling = node_by_vars(&t, &[5, 7]).expect("dangling {5,7}");
        assert_eq!(dangling.tag, Tag::Product);
        assert!(dangling.children.is_empty());
        // {8}max hangs under a {7}⊗ node.
        let n8 = node_by_vars(&t, &[8]).expect("node {8}");
        assert_eq!(n8.tag, MAX);
        let sevens = t.nodes_of(v(7));
        // 7 occurs three times: in the dangling node and two singleton nodes.
        assert_eq!(sevens.len(), 3);
        // Structural checks via the precedence poset:
        let preds = t.precedence();
        assert!(preds[&v(8)].contains(&v(7)));
        assert!(preds[&v(8)].contains(&v(1)));
        assert!(preds[&v(7)].contains(&v(1)));
        assert!(preds[&v(5)].contains(&v(2)));
        assert!(!preds[&v(3)].contains(&v(5)));
    }

    /// The §6.1 counterexample: ϕ = Σ1 Σ2 max3 max4 Σ5 ψ15 ψ25 ψ13 ψ24 —
    /// tree root {} → {1,2,5}Σ → children {3}max and {4}max.
    #[test]
    fn section_6_1_counterexample_tree() {
        let shape = QueryShape {
            seq: vec![(v(1), SUM), (v(2), SUM), (v(3), MAX), (v(4), MAX), (v(5), SUM)],
            edges: vec![varset(&[1, 5]), varset(&[2, 5]), varset(&[1, 3]), varset(&[2, 4])],
            mul_idempotent: false,
            closed_ops: Default::default(),
        };
        let t = shape.expr_tree();
        let top = node_by_vars(&t, &[1, 2, 5]).expect("node {1,2,5}");
        assert_eq!(top.tag, SUM);
        assert_eq!(top.children.len(), 2);
        assert!(node_by_vars(&t, &[3]).is_some());
        assert!(node_by_vars(&t, &[4]).is_some());
    }

    /// Example 6.13: ϕ = Σ1 max2 Σ3 ψ12 ψ13 → root {} → {1,3}Σ → {2}max.
    #[test]
    fn example_6_13_tree() {
        let shape = QueryShape {
            seq: vec![(v(1), SUM), (v(2), MAX), (v(3), SUM)],
            edges: vec![varset(&[1, 2]), varset(&[1, 3])],
            mul_idempotent: false,
            closed_ops: Default::default(),
        };
        let t = shape.expr_tree();
        let top = node_by_vars(&t, &[1, 3]).expect("node {1,3}");
        assert_eq!(top.tag, SUM);
        assert_eq!(top.children.len(), 1);
        assert_eq!(t.nodes[top.children[0]].vars, vec![v(2)]);
    }

    /// FAQ-SS: tree of depth ≤ 1 — root holds the frees, children are the
    /// connected components of the bound part.
    #[test]
    fn faq_ss_tree_is_flat() {
        let shape = QueryShape {
            seq: vec![(v(0), Tag::Free), (v(1), SUM), (v(2), SUM), (v(3), SUM)],
            edges: vec![varset(&[0, 1]), varset(&[1, 2]), varset(&[0, 3])],
            mul_idempotent: false,
            closed_ops: Default::default(),
        };
        let t = shape.expr_tree();
        assert_eq!(t.nodes[t.root].vars, vec![v(0)]);
        assert_eq!(t.nodes[t.root].children.len(), 2); // {1,2} and {3}
        let preds = t.precedence();
        assert!(preds[&v(1)].contains(&v(0)));
        assert!(preds[&v(3)].contains(&v(0)));
        assert!(!preds[&v(2)].contains(&v(3)));
    }

    /// Def 6.30 extension: Σ1 Π2 Σ3 ψ13 ψ2 over a non-idempotent domain must
    /// order 1 before 3 (the extended edge {1,2,3} glues x2 into the chain).
    #[test]
    fn non_idempotent_extension_orders_products() {
        let shape = QueryShape {
            seq: vec![(v(1), SUM), (v(2), Tag::Product), (v(3), SUM)],
            edges: vec![varset(&[1, 3]), varset(&[2])],
            mul_idempotent: false,
            closed_ops: Default::default(),
        };
        let eff = shape.effective_edges();
        assert_eq!(eff[0], varset(&[1, 2, 3]));
        assert_eq!(eff[1], varset(&[2]));
        let t = shape.expr_tree();
        let preds = t.precedence();
        assert!(preds[&v(3)].contains(&v(1)), "x1 must precede x3:\n{t}");
        assert!(preds[&v(2)].contains(&v(1)), "x1 must precede x2:\n{t}");
    }

    #[test]
    fn isolated_bound_variable_becomes_component() {
        let shape = QueryShape {
            seq: vec![(v(0), SUM), (v(1), SUM)],
            edges: vec![varset(&[0])],
            mul_idempotent: false,
            closed_ops: Default::default(),
        };
        let t = shape.expr_tree();
        // Both are Σ: compression merges them under the root's children; the
        // two components {0} and {1} stay siblings.
        assert_eq!(t.nodes[t.root].children.len(), 2);
    }

    #[test]
    fn precedence_is_transitive() {
        let shape = QueryShape {
            seq: vec![(v(1), SUM), (v(2), MAX), (v(3), SUM), (v(4), MAX)],
            edges: vec![varset(&[1, 2]), varset(&[2, 3]), varset(&[3, 4])],
            mul_idempotent: false,
            closed_ops: Default::default(),
        };
        let t = shape.expr_tree();
        let preds = t.precedence();
        // chain: 1 ≺ 2 ≺ 3 ≺ 4 (alternating tags force the full chain).
        assert!(preds[&v(4)].contains(&v(1)));
    }
}
