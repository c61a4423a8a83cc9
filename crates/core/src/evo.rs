//! Equivalent variable orderings (paper §5.4, §6).
//!
//! * [`linear_extensions`] enumerates `LinEx(P)` — the linear extensions of
//!   the precedence poset, each of which is a ϕ-equivalent ordering
//!   (soundness, Theorems 6.8/6.23), and which suffice for width optimization
//!   (completeness, Corollaries 6.14/6.28).
//! * [`is_equivalent_ordering`] decides membership in `EVO(ϕ)` in polynomial
//!   time via the component-wise-equivalence recursion (Definitions 6.10/6.25,
//!   Lemmas 6.9/6.24): after the free prefix, the next variable must lie in
//!   the child node of the (recomputed) expression-tree root; consuming a
//!   semiring variable conditions the query, while a product node must be
//!   consumed as one block; extended components are checked independently and
//!   dangling product variables are unconstrained.

use crate::exprtree::{QueryShape, Tag};
use faq_hypergraph::{Hypergraph, Var, VarSet};

/// Enumerate linear extensions of the precedence poset, up to `cap` many.
///
/// Returns `(extensions, exhausted)`; `exhausted` is `false` when the cap
/// truncated the enumeration.
pub fn linear_extensions(shape: &QueryShape, cap: usize) -> (Vec<Vec<Var>>, bool) {
    let preds = shape.precedence();
    let vars: Vec<Var> = shape.vars();
    let mut out: Vec<Vec<Var>> = Vec::new();
    let mut current: Vec<Var> = Vec::new();
    let mut used: VarSet = VarSet::new();
    let exhausted = enumerate(&vars, &preds, &mut current, &mut used, &mut out, cap);
    (out, exhausted)
}

fn enumerate(
    vars: &[Var],
    preds: &std::collections::BTreeMap<Var, VarSet>,
    current: &mut Vec<Var>,
    used: &mut VarSet,
    out: &mut Vec<Vec<Var>>,
    cap: usize,
) -> bool {
    if out.len() >= cap {
        return false;
    }
    if current.len() == vars.len() {
        out.push(current.clone());
        return true;
    }
    let mut complete = true;
    let mut any = false;
    for &v in vars {
        if used.contains(&v) {
            continue;
        }
        if preds[&v].iter().all(|p| used.contains(p)) {
            any = true;
            used.insert(v);
            current.push(v);
            complete &= enumerate(vars, preds, current, used, out, cap);
            current.pop();
            used.remove(&v);
            if out.len() >= cap {
                return false;
            }
        }
    }
    assert!(any, "precedence poset has a cycle — should be impossible (Cor 6.21)");
    complete
}

/// Decide whether `pi` is a ϕ-equivalent variable ordering.
///
/// For queries with product aggregates over a domain where `⊗` is idempotent,
/// this decides membership in `EVO(ϕ, F(D_I))` for the promise class of
/// Definition 5.8 (all input factors range over the idempotent elements), per
/// the paper's §6.2 analysis. Otherwise it decides the Definition 6.30
/// (extended-edge) relation, which is sound for arbitrary inputs.
pub fn is_equivalent_ordering(shape: &QueryShape, pi: &[Var]) -> bool {
    let all: VarSet = shape.vars().into_iter().collect();
    let got: VarSet = pi.iter().copied().collect();
    if pi.len() != all.len() || all != got {
        return false;
    }
    // Free prefix check.
    let free: VarSet = shape.free_vars().into_iter().collect();
    let f = free.len();
    let prefix: VarSet = pi[..f].iter().copied().collect();
    if prefix != free {
        return false;
    }
    // Product aggregates never commute with non-closed semiring aggregates,
    // even across structurally independent components ((Σa)^k ≠ Σ(a^k)):
    // their original relative order must be preserved globally.
    let products = shape.product_vars();
    let non_closed = shape.non_closed_vars();
    if !products.is_empty() && !non_closed.is_empty() {
        let seq_pos = |v: Var| shape.seq_pos(v).expect("var in seq");
        let pi_pos = |v: Var| pi.iter().position(|&x| x == v).expect("var in pi");
        for &w in &products {
            for &u in &non_closed {
                if (seq_pos(u) < seq_pos(w)) != (pi_pos(u) < pi_pos(w)) {
                    return false;
                }
            }
        }
    }
    // Condition on the free variables and check the bound part.
    let bound_seq: Vec<(Var, Tag)> =
        shape.seq.iter().copied().filter(|(_, t)| *t != Tag::Free).collect();
    let bound_vars: VarSet = bound_seq.iter().map(|&(v, _)| v).collect();
    let edges: Vec<VarSet> = shape
        .effective_edges()
        .iter()
        .map(|e| e.intersection(&bound_vars).copied().collect::<VarSet>())
        .filter(|e: &VarSet| !e.is_empty())
        .collect();
    check(&bound_seq, &edges, &pi[f..])
}

fn check(seq: &[(Var, Tag)], edges: &[VarSet], pi: &[Var]) -> bool {
    if seq.is_empty() {
        return pi.is_empty();
    }
    debug_assert_eq!(seq.len(), pi.len());

    let w: VarSet = seq.iter().filter(|(_, t)| *t == Tag::Product).map(|&(v, _)| v).collect();
    let core: VarSet = seq.iter().filter(|(_, t)| *t != Tag::Product).map(|&(v, _)| v).collect();

    if core.is_empty() {
        // Only product variables remain: all aggregates are ⊗ and commute.
        return true;
    }

    // Extended components of the current hypergraph.
    let mut core_h = Hypergraph::new();
    for &v in &core {
        core_h.add_vertex(v);
    }
    for e in edges {
        let ce: VarSet = e.intersection(&core).copied().collect();
        if !ce.is_empty() {
            core_h.add_edge(ce.iter().copied());
        }
    }
    let comps = core_h.connected_components();
    let mut covered: VarSet = VarSet::new();
    let mut extended: Vec<(VarSet, Vec<VarSet>)> = Vec::new();
    for comp in &comps {
        let mut vext: VarSet = comp.clone();
        for e in edges {
            if !e.is_disjoint(comp) {
                vext.extend(e.intersection(&w).copied());
            }
        }
        let eext: Vec<VarSet> = edges
            .iter()
            .filter(|e| !e.is_disjoint(comp))
            .map(|e| e.intersection(&vext).copied().collect::<VarSet>())
            .collect();
        covered.extend(vext.iter().copied());
        extended.push((vext, eext));
    }
    let dangling_only: VarSet =
        seq.iter().map(|&(v, _)| v).filter(|v| !covered.contains(v)).collect();

    if extended.len() >= 2 || !dangling_only.is_empty() {
        // Components are independent; dangling product variables are
        // unconstrained (Definition 6.25).
        for (vext, eext) in &extended {
            let sub_seq: Vec<(Var, Tag)> =
                seq.iter().copied().filter(|(v, _)| vext.contains(v)).collect();
            let sub_pi: Vec<Var> = pi.iter().copied().filter(|v| vext.contains(v)).collect();
            if !check(&sub_seq, eext, &sub_pi) {
                return false;
            }
        }
        return true;
    }

    // Single extended component covering everything: the next variable of pi
    // must lie in the root's unique child node of the (compressed) expression
    // tree (Lemma 6.9 / 6.24).
    let sub_shape = QueryShape {
        seq: seq.to_vec(),
        edges: edges.to_vec(),
        // Edges are already extended if they needed to be; claim every op
        // closed so `effective_edges` does not re-extend. The global
        // product/non-closed order constraint was checked upfront.
        mul_idempotent: true,
        closed_ops: seq
            .iter()
            .filter_map(|(_, t)| match t {
                Tag::Semiring(op) => Some(*op),
                _ => None,
            })
            .collect(),
    };
    let tree = sub_shape.expr_tree();
    // The root may have a dangling product leaf next to the component child;
    // eligibility for the first position is governed by the child whose
    // subtree contains the core (non-product) variables — dangling variables
    // with copies inside the component are constrained by those copies.
    let subtree_has_core = |start: usize| -> bool {
        let mut stack = vec![start];
        while let Some(i) = stack.pop() {
            if tree.nodes[i].vars.iter().any(|v| core.contains(v)) {
                return true;
            }
            stack.extend(tree.nodes[i].children.iter().copied());
        }
        false
    };
    let top_id = tree.nodes[tree.root]
        .children
        .iter()
        .copied()
        .find(|&c| subtree_has_core(c))
        .expect("a connected query has a core-bearing top node");
    let top = &tree.nodes[top_id];

    let u = pi[0];
    if !top.vars.contains(&u) {
        return false;
    }
    match top.tag {
        Tag::Product => {
            // Consume the whole product node as a block (Definition 6.25).
            let p = top.vars.len();
            if pi.len() < p {
                return false;
            }
            let block: VarSet = top.vars.iter().copied().collect();
            let taken: VarSet = pi[..p].iter().copied().collect();
            if block != taken {
                return false;
            }
            let rem_seq: Vec<(Var, Tag)> =
                seq.iter().copied().filter(|(v, _)| !block.contains(v)).collect();
            let rem_vars: VarSet = rem_seq.iter().map(|&(v, _)| v).collect();
            let rem_edges: Vec<VarSet> = edges
                .iter()
                .map(|e| e.intersection(&rem_vars).copied().collect::<VarSet>())
                .filter(|e: &VarSet| !e.is_empty())
                .collect();
            check(&rem_seq, &rem_edges, &pi[p..])
        }
        _ => {
            // Consume the single semiring variable (conditioning on it).
            let rem_seq: Vec<(Var, Tag)> = seq.iter().copied().filter(|&(v, _)| v != u).collect();
            let rem_edges: Vec<VarSet> = edges
                .iter()
                .map(|e| e.iter().copied().filter(|&x| x != u).collect::<VarSet>())
                .filter(|e: &VarSet| !e.is_empty())
                .collect();
            check(&rem_seq, &rem_edges, &pi[1..])
        }
    }
}

/// Decide [`is_equivalent_ordering`] for a batch of candidate orderings
/// across the [`ExecPolicy`](crate::exec::ExecPolicy)'s worker pool.
///
/// Membership tests against one shape are independent, so candidates stripe
/// across scoped threads. Results come back in candidate order, identical to
/// mapping [`is_equivalent_ordering`] sequentially. (Exhaustive width search
/// itself — [`crate::width::faqw_exact`] — stays sequential: its per-ordering
/// cost is dominated by the shared `ρ*` memo, which a stripe would lose.)
pub fn are_equivalent_orderings(
    shape: &QueryShape,
    candidates: &[Vec<Var>],
    policy: &crate::exec::ExecPolicy,
) -> Vec<bool> {
    let threads = policy.effective_threads();
    if threads <= 1 || candidates.len() < 2 {
        return candidates.iter().map(|pi| is_equivalent_ordering(shape, pi)).collect();
    }
    let stripe = candidates.len().div_ceil(threads);
    let mut out = vec![false; candidates.len()];
    std::thread::scope(|s| {
        for (cands, results) in candidates.chunks(stripe).zip(out.chunks_mut(stripe)) {
            s.spawn(move || {
                for (pi, slot) in cands.iter().zip(results.iter_mut()) {
                    *slot = is_equivalent_ordering(shape, pi);
                }
            });
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use faq_hypergraph::{v, varset};
    use faq_semiring::AggId;

    const SUM: Tag = Tag::Semiring(AggId(0));
    const MAX: Tag = Tag::Semiring(AggId(1));

    /// Example 6.13: EVO(ϕ) = {(1,2,3), (1,3,2), (3,1,2)} for
    /// ϕ = Σ1 max2 Σ3 ψ12 ψ13.
    #[test]
    fn example_6_13_membership() {
        let shape = QueryShape {
            seq: vec![(v(1), SUM), (v(2), MAX), (v(3), SUM)],
            edges: vec![varset(&[1, 2]), varset(&[1, 3])],
            mul_idempotent: false,
            closed_ops: Default::default(),
        };
        let evo: Vec<Vec<Var>> = permutations(&[1, 2, 3])
            .into_iter()
            .filter(|p| is_equivalent_ordering(&shape, p))
            .collect();
        let expect: Vec<Vec<Var>> =
            vec![vec![v(1), v(2), v(3)], vec![v(1), v(3), v(2)], vec![v(3), v(1), v(2)]];
        assert_eq!(sorted(evo), sorted(expect));
        // LinEx(P) = {(1,3,2), (3,1,2)} ⊆ EVO.
        let (linex, done) = linear_extensions(&shape, 100);
        assert!(done);
        assert_eq!(sorted(linex), sorted(vec![vec![v(1), v(3), v(2)], vec![v(3), v(1), v(2)]]));
    }

    /// The §6.1 counterexample: interleavings such as (5,1,3,2,4) are in EVO
    /// but not in LinEx(P).
    #[test]
    fn section_6_1_interleavings() {
        let shape = QueryShape {
            seq: vec![(v(1), SUM), (v(2), SUM), (v(3), MAX), (v(4), MAX), (v(5), SUM)],
            edges: vec![varset(&[1, 5]), varset(&[2, 5]), varset(&[1, 3]), varset(&[2, 4])],
            mul_idempotent: false,
            closed_ops: Default::default(),
        };
        for pi in [
            vec![v(5), v(1), v(3), v(2), v(4)],
            vec![v(5), v(2), v(4), v(1), v(3)],
            vec![v(1), v(2), v(5), v(3), v(4)],
            // After conditioning on 1, the components {3} and {2,4,5} may
            // interleave freely — so 3 can even precede 2.
            vec![v(1), v(3), v(2), v(4), v(5)],
        ] {
            assert!(is_equivalent_ordering(&shape, &pi), "{pi:?} should be in EVO");
        }
        // Orderings violating the structure are rejected: max variables may
        // not precede the Σ variables of their own component.
        for pi in [vec![v(3), v(1), v(5), v(2), v(4)], vec![v(1), v(4), v(3), v(2), v(5)]] {
            assert!(!is_equivalent_ordering(&shape, &pi), "{pi:?} should not be in EVO");
        }
    }

    /// Every enumerated linear extension passes the membership test
    /// (soundness of LinEx ⊆ EVO).
    #[test]
    fn linex_subset_of_evo() {
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
        let (linex, done) = linear_extensions(&shape, 10_000);
        assert!(done);
        assert!(!linex.is_empty());
        for pi in &linex {
            assert!(is_equivalent_ordering(&shape, pi), "{pi:?} in LinEx but rejected");
        }
        // The original query order is always equivalent.
        assert!(is_equivalent_ordering(&shape, &[v(1), v(2), v(3), v(4), v(5), v(6), v(7)]));
    }

    #[test]
    fn free_variables_must_come_first() {
        let shape = QueryShape {
            seq: vec![(v(0), Tag::Free), (v(1), SUM)],
            edges: vec![varset(&[0, 1])],
            mul_idempotent: false,
            closed_ops: Default::default(),
        };
        assert!(is_equivalent_ordering(&shape, &[v(0), v(1)]));
        assert!(!is_equivalent_ordering(&shape, &[v(1), v(0)]));
    }

    #[test]
    fn faq_ss_accepts_all_bound_permutations() {
        let shape = QueryShape {
            seq: vec![(v(0), Tag::Free), (v(1), SUM), (v(2), SUM), (v(3), SUM)],
            edges: vec![varset(&[0, 1]), varset(&[1, 2]), varset(&[2, 3])],
            mul_idempotent: false,
            closed_ops: Default::default(),
        };
        for p in permutations(&[1, 2, 3]) {
            let mut pi = vec![v(0)];
            pi.extend(p);
            assert!(is_equivalent_ordering(&shape, &pi), "{pi:?}");
        }
    }

    #[test]
    fn product_block_must_stay_consecutive() {
        // ϕ = Π1 Π2 Σ3 ψ123 (idempotent promise): (1,3,2) invalid.
        let shape = QueryShape {
            seq: vec![(v(1), Tag::Product), (v(2), Tag::Product), (v(3), SUM)],
            edges: vec![varset(&[1, 2, 3])],
            mul_idempotent: true,
            closed_ops: Default::default(),
        };
        assert!(is_equivalent_ordering(&shape, &[v(1), v(2), v(3)]));
        assert!(is_equivalent_ordering(&shape, &[v(2), v(1), v(3)]));
        assert!(!is_equivalent_ordering(&shape, &[v(1), v(3), v(2)]));
        assert!(!is_equivalent_ordering(&shape, &[v(3), v(1), v(2)]));
    }

    /// Semantic cross-validation: orderings accepted by the checker evaluate
    /// identically to the original on random inputs; for rejected orderings
    /// there exist adversarial inputs where values differ (we verify the
    /// accepted side, which is the soundness-critical one).
    #[test]
    fn accepted_orderings_evaluate_identically() {
        use crate::engine::Engine;
        use crate::query::{FaqQuery, VarAgg};
        use faq_factor::{Domains, Factor};
        use faq_semiring::CountDomain;
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(2024);
        // ϕ = Σ1 max2 Σ3 ψ12 ψ23 over the counting domain.
        for _ in 0..20 {
            let mk = |rng: &mut StdRng, a: u32, b: u32| {
                let mut tuples = Vec::new();
                for x in 0..2u32 {
                    for y in 0..2u32 {
                        if rng.gen_bool(0.7) {
                            tuples.push((vec![x, y], rng.gen_range(1..5u64)));
                        }
                    }
                }
                Factor::with_combine(vec![v(a), v(b)], tuples, |x, y| x + y, |&x| x == 0).unwrap()
            };
            let f12 = mk(&mut rng, 1, 2);
            let f23 = mk(&mut rng, 2, 3);
            let mk_query = |bound: Vec<(Var, VarAgg)>| {
                FaqQuery::new(
                    CountDomain,
                    Domains::new(vec![2, 2, 2, 2]),
                    vec![],
                    bound,
                    vec![f12.clone(), f23.clone()],
                )
                .unwrap()
            };
            let q = mk_query(vec![
                (v(1), VarAgg::Semiring(CountDomain::SUM)),
                (v(2), VarAgg::Semiring(CountDomain::MAX)),
                (v(3), VarAgg::Semiring(CountDomain::SUM)),
            ]);
            let shape = q.shape();
            let reference = crate::naive::naive_eval(&q);
            for p in permutations(&[1, 2, 3]) {
                if is_equivalent_ordering(&shape, &p) {
                    let got = Engine::sequential().evaluate_with_order(&q, &p).unwrap();
                    assert_eq!(got.factor, reference, "accepted order {p:?} differs");
                }
            }
        }
    }

    #[test]
    fn batch_membership_matches_sequential() {
        let shape = QueryShape {
            seq: vec![(v(1), SUM), (v(2), MAX), (v(3), SUM)],
            edges: vec![varset(&[1, 2]), varset(&[1, 3])],
            mul_idempotent: false,
            closed_ops: Default::default(),
        };
        let candidates = permutations(&[1, 2, 3]);
        let expect: Vec<bool> =
            candidates.iter().map(|p| is_equivalent_ordering(&shape, p)).collect();
        for threads in [1usize, 2, 4] {
            let policy = crate::exec::ExecPolicy::with_threads(threads);
            assert_eq!(are_equivalent_orderings(&shape, &candidates, &policy), expect);
        }
    }

    fn permutations(items: &[u32]) -> Vec<Vec<Var>> {
        let mut out = Vec::new();
        let mut arr: Vec<Var> = items.iter().map(|&i| v(i)).collect();
        permute(&mut arr, 0, &mut out);
        out
    }

    fn permute(arr: &mut Vec<Var>, k: usize, out: &mut Vec<Vec<Var>>) {
        if k == arr.len() {
            out.push(arr.clone());
            return;
        }
        for i in k..arr.len() {
            arr.swap(k, i);
            permute(arr, k + 1, out);
            arr.swap(k, i);
        }
    }

    fn sorted(mut v: Vec<Vec<Var>>) -> Vec<Vec<Var>> {
        v.sort();
        v
    }
}
