//! The fractional FAQ-width and its optimization (paper §5.5, §7).
//!
//! For a ϕ-equivalent ordering `σ`, `faqw(σ) = max_{k∈K} ρ*_H(U^σ_k)`
//! (Definition 5.10), where `K` collects the free and semiring positions and
//! the sets `U^σ_k` come from the aggregate-aware elimination sequence of
//! Definition 5.4 (product variables *shrink* edges instead of folding them).
//! InsideOut runs in `O~(N^{faqw(σ)} + ‖ϕ‖)` (Proposition 5.9).
//!
//! `faqw(ϕ) = min_{σ∈EVO(ϕ)} faqw(σ)`, and by the completeness results it
//! suffices to search `LinEx(P)` (Corollaries 6.14/6.28):
//!
//! * [`faqw_exact`] — exhaustive search over linear extensions (with a cap);
//! * [`faqw_approx`] — the Theorem 7.2/7.5 approximation: build the
//!   per-node hypergraphs `H_L`, order each with an fhtw blackbox, and
//!   concatenate along the node poset. With an exact blackbox the guarantee is
//!   `faqw(σ) ≤ 2·faqw(ϕ)`.

use crate::exprtree::{QueryShape, Tag};
use crate::query::FaqError;
use faq_hypergraph::elim::{u_sets_with_rules, ElimRule};
use faq_hypergraph::ordering::best_ordering;
use faq_hypergraph::widths::fractional_cover;
use faq_hypergraph::{Hypergraph, Var, VarSet};
use std::collections::{BTreeMap, HashMap};

/// Result of a width computation / ordering search.
#[derive(Debug, Clone)]
pub struct FaqwResult {
    /// The chosen ϕ-equivalent ordering.
    pub order: Vec<Var>,
    /// `faqw(order)`.
    pub width: f64,
    /// Whether the search provably found the optimum (`faqw(ϕ)`).
    pub exact: bool,
}

/// `faqw(σ)` for many orderings of one shape: the query hypergraph and a
/// memo of `ρ*_H` per `U`-set, shared by every ordering asked about — the
/// orderings of one search differ in few of their `U`-sets.
pub(crate) struct FaqwMemo<'a> {
    shape: &'a QueryShape,
    h: Hypergraph,
    cache: HashMap<VarSet, f64>,
}

impl<'a> FaqwMemo<'a> {
    /// Errors with [`FaqError::Uncoverable`] on degenerate queries where a
    /// free/semiring variable is covered by no edge.
    pub(crate) fn new(shape: &'a QueryShape) -> Result<Self, FaqError> {
        check_fold_coverage(shape)?;
        Ok(FaqwMemo { shape, h: shape.hypergraph(), cache: HashMap::new() })
    }

    fn rho_star(&mut self, b: &VarSet) -> Result<f64, FaqError> {
        if b.is_empty() {
            return Ok(0.0);
        }
        if let Some(&w) = self.cache.get(b) {
            return Ok(w);
        }
        // A U-set containing a variable that appears in no edge (degenerate
        // queries: a free variable constrained by nothing, all-nullary
        // inputs) has no fractional cover — surface that as an error instead
        // of crashing; evaluation itself stays well-defined for such queries.
        let w = fractional_cover(&self.h, b)
            .ok_or_else(|| FaqError::Uncoverable(b.iter().copied().collect()))?
            .value;
        self.cache.insert(b.clone(), w);
        Ok(w)
    }

    /// `faqw(σ)` (Definition 5.10).
    pub(crate) fn faqw_of_ordering(&mut self, sigma: &[Var]) -> Result<f64, FaqError> {
        let rules = elimination_rules(self.shape, sigma);
        let u_sets = u_sets_with_rules(&self.h, sigma, &rules);
        let mut width = 0.0f64;
        for (u, rule) in u_sets.iter().zip(&rules) {
            if matches!(rule, ElimRule::Fold) && !u.is_empty() {
                width = width.max(self.rho_star(u)?);
            }
        }
        Ok(width)
    }
}

fn elimination_rules(shape: &QueryShape, sigma: &[Var]) -> Vec<ElimRule> {
    sigma
        .iter()
        .map(|&v| match shape.tag_of(v).expect("sigma var has a tag") {
            Tag::Product => ElimRule::Shrink,
            _ => ElimRule::Fold,
        })
        .collect()
}

/// Check that every free/semiring variable is covered by at least one edge —
/// the premise of every `ρ*`-based width. A fold variable in no edge makes
/// `faqw` undefined (its elimination iterates the raw domain, so the
/// `N^{faqw}` bound says nothing); such degenerate queries — a free variable
/// constrained by nothing, all-nullary inputs — must surface as
/// [`FaqError::Uncoverable`] here rather than crash deeper in the LP layer.
fn check_fold_coverage(shape: &QueryShape) -> Result<(), FaqError> {
    let covered: VarSet = shape.edges.iter().flat_map(|e| e.iter().copied()).collect();
    let missing: Vec<Var> = shape
        .seq
        .iter()
        .filter(|&&(v, tag)| tag.is_fold() && !covered.contains(&v))
        .map(|&(v, _)| v)
        .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(FaqError::Uncoverable(missing))
    }
}

/// `faqw(σ)` for a given ordering (Definition 5.10).
///
/// Errors with [`FaqError::Uncoverable`] on degenerate queries where a
/// free/semiring variable is covered by no edge.
pub fn faqw_of_ordering(shape: &QueryShape, sigma: &[Var]) -> Result<f64, FaqError> {
    FaqwMemo::new(shape)?.faqw_of_ordering(sigma)
}

/// Exhaustive `faqw(ϕ)` over `LinEx(P)`, visiting at most `cap` extensions
/// (at least one: the first extension is always visited).
///
/// Returns the best ordering found; `exact` is `true` when the enumeration
/// completed within the cap. Errors with [`FaqError::Uncoverable`] when the
/// query has a variable covered by no edge.
pub fn faqw_exact(shape: &QueryShape, cap: usize) -> Result<FaqwResult, FaqError> {
    let mut memo = FaqwMemo::new(shape)?;
    let (extensions, exhausted) = crate::evo::linear_extensions(shape, cap.max(1));
    let mut best: Option<(Vec<Var>, f64)> = None;
    for sigma in extensions {
        let w = memo.faqw_of_ordering(&sigma)?;
        if best.as_ref().is_none_or(|(_, bw)| w < *bw - 1e-12) {
            best = Some((sigma, w));
        }
    }
    let (order, width) = best.expect("a query always has at least one linear extension");
    Ok(FaqwResult { order, width, exact: exhausted })
}

/// The Theorem 7.2 / 7.5 approximation algorithm.
///
/// For every semiring/free node `L` of the expression tree, builds the local
/// hypergraph `H_L` (edges projected to `L`, excluding those that touch a
/// semiring descendant, plus one edge `S_{L,C}` per child summarizing the
/// residue of the `C`-branch), orders `L` with the fhtw blackbox
/// ([`best_ordering`], exact up to `exact_limit` vertices), and concatenates
/// the per-node orderings along a topological order of the node/product
/// poset.
pub fn faqw_approx(shape: &QueryShape, exact_limit: usize) -> Result<FaqwResult, FaqError> {
    check_fold_coverage(shape)?;
    let tree = shape.expr_tree();
    let eff_edges = shape.effective_edges();

    // Vars of semiring/free nodes in each node's subtree.
    let n_nodes = tree.nodes.len();
    let mut subtree_semiring_vars: Vec<VarSet> = vec![VarSet::new(); n_nodes];
    // Process nodes bottom-up (children have larger ids is not guaranteed:
    // compute via explicit recursion).
    fn collect(tree: &crate::exprtree::ExprTree, id: usize, out: &mut Vec<VarSet>) -> VarSet {
        let mut acc = VarSet::new();
        if tree.nodes[id].tag.is_fold() {
            acc.extend(tree.nodes[id].vars.iter().copied());
        }
        let children = tree.nodes[id].children.clone();
        for c in children {
            let sub = collect(tree, c, out);
            acc.extend(sub.iter().copied());
        }
        out[id] = acc.clone();
        acc
    }
    collect(&tree, tree.root, &mut subtree_semiring_vars);

    // Per-node local ordering for semiring/free nodes.
    let mut node_orders: BTreeMap<usize, Vec<Var>> = BTreeMap::new();
    for (id, node) in tree.nodes.iter().enumerate() {
        if !node.tag.is_fold() || node.vars.is_empty() {
            continue;
        }
        let l_set: VarSet = node.vars.iter().copied().collect();
        // Semiring vars strictly below L.
        let mut below = VarSet::new();
        for &c in &node.children {
            below.extend(subtree_semiring_vars[c].iter().copied());
        }
        let mut hl = Hypergraph::new();
        for &v in &l_set {
            hl.add_vertex(v);
        }
        for s in &eff_edges {
            let sl: VarSet = s.intersection(&l_set).copied().collect();
            if !sl.is_empty() && s.is_disjoint(&below) {
                hl.add_edge(sl.iter().copied());
            }
        }
        for &c in &node.children {
            // E̅(C): edges touching a semiring/free node of the C-subtree.
            let cvars = &subtree_semiring_vars[c];
            if cvars.is_empty() {
                continue;
            }
            let mut slc = VarSet::new();
            for s in &eff_edges {
                if !s.is_disjoint(cvars) {
                    slc.extend(s.intersection(&l_set).copied());
                }
            }
            if !slc.is_empty() {
                hl.add_edge(slc.iter().copied());
            }
        }
        let pruned = hl.maximal_edges();
        let res = best_ordering(
            &pruned,
            |b| fractional_cover(&pruned, b).map(|c| c.value).unwrap_or(b.len() as f64),
            exact_limit,
        );
        node_orders.insert(id, res.order);
    }

    // Items: semiring/free nodes + individual product variables.
    // Topologically sort by the ancestor relation (product copies merge).
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
    enum Item {
        Node(usize),
        ProductVar(Var),
    }
    let mut items: Vec<Item> = Vec::new();
    let mut item_of_node: BTreeMap<usize, usize> = BTreeMap::new();
    // Every variable's item: its fold node's, or a product variable's own.
    let mut item_of_var: BTreeMap<Var, usize> = BTreeMap::new();
    for (id, node) in tree.nodes.iter().enumerate() {
        if node.tag.is_fold() {
            item_of_node.insert(id, items.len());
            item_of_var.extend(node.vars.iter().map(|&v| (v, items.len())));
            items.push(Item::Node(id));
        } else {
            for &v in &node.vars {
                item_of_var.entry(v).or_insert_with(|| {
                    items.push(Item::ProductVar(v));
                    items.len() - 1
                });
            }
        }
    }
    let item_ids = |node_id: usize| -> Vec<usize> {
        let node = &tree.nodes[node_id];
        if node.tag.is_fold() {
            vec![item_of_node[&node_id]]
        } else {
            node.vars.iter().map(|v| item_of_var[v]).collect()
        }
    };
    let mut preds: Vec<std::collections::BTreeSet<usize>> =
        vec![std::collections::BTreeSet::new(); items.len()];
    for (a, d) in tree.ancestor_pairs() {
        for &ai in &item_ids(a) {
            for &di in &item_ids(d) {
                if ai != di {
                    preds[di].insert(ai);
                }
            }
        }
    }
    for (u, w) in shape.non_commuting_pairs() {
        preds[item_of_var[&w]].insert(item_of_var[&u]);
    }
    // Kahn with deterministic tie-break (earliest query position).
    let item_priority = |it: &Item| -> usize {
        match it {
            Item::Node(id) => {
                tree.nodes[*id].vars.iter().filter_map(|v| shape.seq_pos(*v)).min().unwrap_or(0)
            }
            Item::ProductVar(v) => shape.seq_pos(*v).unwrap_or(usize::MAX),
        }
    };
    let mut emitted = vec![false; items.len()];
    let mut sigma: Vec<Var> = Vec::new();
    for _ in 0..items.len() {
        let mut ready: Vec<usize> = (0..items.len())
            .filter(|&i| !emitted[i] && preds[i].iter().all(|&p| emitted[p]))
            .collect();
        ready.sort_by_key(|&i| item_priority(&items[i]));
        let pick = *ready.first().expect("poset has no cycle (Cor 6.21)");
        emitted[pick] = true;
        match items[pick] {
            Item::Node(id) => {
                if let Some(order) = node_orders.get(&id) {
                    sigma.extend(order.iter().copied());
                } else {
                    sigma.extend(tree.nodes[id].vars.iter().copied());
                }
            }
            Item::ProductVar(v) => sigma.push(v),
        }
    }

    let width = faqw_of_ordering(shape, &sigma)?;
    Ok(FaqwResult { order: sigma, width, exact: false })
}

/// Best-effort optimizer: exact LinEx search when the enumeration fits in
/// `linex_cap`, otherwise the approximation algorithm (and whichever of the
/// two is better when both run).
pub fn faqw_optimize(
    shape: &QueryShape,
    linex_cap: usize,
    exact_limit: usize,
) -> Result<FaqwResult, FaqError> {
    let exact = faqw_exact(shape, linex_cap)?;
    if exact.exact {
        return Ok(exact);
    }
    let approx = faqw_approx(shape, exact_limit)?;
    Ok(if approx.width < exact.width { approx } else { exact })
}

#[cfg(test)]
mod tests {
    use super::*;
    use faq_hypergraph::{v, varset};
    use faq_semiring::AggId;

    const SUM: Tag = Tag::Semiring(AggId(0));
    const MAX: Tag = Tag::Semiring(AggId(1));

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn faq_ss_width_equals_fhtw() {
        // Triangle, all Σ: faqw = fhtw = 1.5 (Proposition 5.12).
        let shape = QueryShape {
            seq: vec![(v(0), SUM), (v(1), SUM), (v(2), SUM)],
            edges: vec![varset(&[0, 1]), varset(&[0, 2]), varset(&[1, 2])],
            mul_idempotent: false,
            closed_ops: Default::default(),
        };
        let r = faqw_exact(&shape, 1000).unwrap();
        assert!(r.exact);
        assert!(close(r.width, 1.5), "{}", r.width);
    }

    #[test]
    fn acyclic_faq_ss_width_is_one() {
        let shape = QueryShape {
            seq: vec![(v(0), SUM), (v(1), SUM), (v(2), SUM), (v(3), SUM)],
            edges: vec![varset(&[0, 1]), varset(&[1, 2]), varset(&[2, 3])],
            mul_idempotent: false,
            closed_ops: Default::default(),
        };
        let r = faqw_exact(&shape, 1000).unwrap();
        assert!(close(r.width, 1.0), "{}", r.width);
    }

    #[test]
    fn example_5_6_idempotent_width_drops() {
        // ϕ = max1 max2 Π3 Σ4 max5 max6 ψ15 ψ25 ψ134 ψ236 with {0,1} factors:
        // the ordering (5,1,2,3,4,6) achieves faqw 1, the input order pays 2.
        let shape = QueryShape {
            seq: vec![
                (v(1), MAX),
                (v(2), MAX),
                (v(3), Tag::Product),
                (v(4), SUM),
                (v(5), MAX),
                (v(6), MAX),
            ],
            edges: vec![varset(&[1, 5]), varset(&[2, 5]), varset(&[1, 3, 4]), varset(&[2, 3, 6])],
            mul_idempotent: true,
            closed_ops: [AggId(1)].into_iter().collect(),
        };
        let input_order = [v(1), v(2), v(3), v(4), v(5), v(6)];
        let w_in = faqw_of_ordering(&shape, &input_order).unwrap();
        assert!(close(w_in, 2.0), "input order width {w_in}");
        let good = [v(5), v(1), v(2), v(3), v(4), v(6)];
        assert!(crate::evo::is_equivalent_ordering(&shape, &good));
        let w_good = faqw_of_ordering(&shape, &good).unwrap();
        assert!(close(w_good, 1.0), "good order width {w_good}");
        let r = faqw_exact(&shape, 100_000).unwrap();
        assert!(r.exact);
        assert!(close(r.width, 1.0), "optimal width {}", r.width);
    }

    #[test]
    fn chen_dalmau_family_has_bounded_faqw() {
        // Φ = ∀x1..xn ∃x_{n+1} (S(x1..xn) ∧ ∧_i R(xi, x_{n+1})): the
        // Chen–Dalmau prefix width is n+1, but faqw stays bounded by 2
        // (§7.2.1). The exact value is 2 − 1/n: cover U = {1..n+1} with
        // λ_S = 1 − 1/n and λ_{R_i} = 1/n.
        for n in [2u32, 3, 4] {
            let mut seq: Vec<(Var, Tag)> = (1..=n).map(|i| (v(i), Tag::Product)).collect();
            seq.push((v(n + 1), MAX));
            let mut edges = vec![(1..=n).map(v).collect::<VarSet>()];
            for i in 1..=n {
                edges.push(varset(&[i, n + 1]));
            }
            let shape = QueryShape {
                seq,
                edges,
                mul_idempotent: true,
                closed_ops: [AggId(1)].into_iter().collect(),
            };
            let r = faqw_exact(&shape, 100_000).unwrap();
            assert!(r.exact, "n={n}");
            assert!(close(r.width, 2.0 - 1.0 / n as f64), "n={n}: faqw {}", r.width);
            assert!(r.width <= 2.0 + 1e-9, "bounded by 2");
        }
    }

    #[test]
    fn approx_is_equivalent_and_bounded() {
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
        let exact = faqw_exact(&shape, 1_000_000).unwrap();
        assert!(exact.exact);
        let approx = faqw_approx(&shape, 16).unwrap();
        assert!(
            crate::evo::is_equivalent_ordering(&shape, &approx.order),
            "approx order {:?} not in EVO",
            approx.order
        );
        // opt ≤ approx ≤ opt + g(opt) = 2·opt with the exact blackbox.
        assert!(approx.width >= exact.width - 1e-9);
        assert!(
            approx.width <= 2.0 * exact.width + 1e-9,
            "approx {} vs exact {}",
            approx.width,
            exact.width
        );
    }

    #[test]
    fn exact_orderings_are_equivalent() {
        let shape = QueryShape {
            seq: vec![(v(1), SUM), (v(2), MAX), (v(3), SUM)],
            edges: vec![varset(&[1, 2]), varset(&[1, 3])],
            mul_idempotent: false,
            closed_ops: Default::default(),
        };
        let r = faqw_exact(&shape, 1000).unwrap();
        assert!(crate::evo::is_equivalent_ordering(&shape, &r.order));
        assert!(r.width >= 1.0 - 1e-9);
    }

    /// Example 6.13's poset has exactly two linear extensions: a cap of two
    /// visits both, so the answer is exact; a cap of zero still visits one.
    #[test]
    fn exact_search_at_and_below_the_extension_count() {
        let shape = QueryShape {
            seq: vec![(v(1), SUM), (v(2), MAX), (v(3), SUM)],
            edges: vec![varset(&[1, 2]), varset(&[1, 3])],
            mul_idempotent: false,
            closed_ops: Default::default(),
        };
        let at_cap = faqw_exact(&shape, 2).unwrap();
        assert!(at_cap.exact);
        assert!(close(at_cap.width, 1.0));
        for cap in [0, 1] {
            let cut = faqw_exact(&shape, cap).unwrap();
            assert!(!cut.exact, "cap {cap}");
            assert_eq!(cut.order, vec![v(1), v(3), v(2)], "cap {cap}: the first extension");
        }
    }

    #[test]
    fn optimize_prefers_exact_when_feasible() {
        let shape = QueryShape {
            seq: vec![(v(0), SUM), (v(1), SUM)],
            edges: vec![varset(&[0, 1])],
            mul_idempotent: false,
            closed_ops: Default::default(),
        };
        let r = faqw_optimize(&shape, 100, 16).unwrap();
        assert!(r.exact);
        assert!(close(r.width, 1.0));
    }

    #[test]
    fn free_variables_enter_k() {
        // ϕ(x0, x1) = Σ_{x2} ψ012: U for the free pair covers the whole edge.
        let shape = QueryShape {
            seq: vec![(v(0), Tag::Free), (v(1), Tag::Free), (v(2), SUM)],
            edges: vec![varset(&[0, 1, 2])],
            mul_idempotent: false,
            closed_ops: Default::default(),
        };
        let w = faqw_of_ordering(&shape, &[v(0), v(1), v(2)]).unwrap();
        assert!(close(w, 1.0), "{w}");
    }
}
