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
//!
//! # Membership is a walk over states
//!
//! What the recursion may do next depends on the *conditioned sub-query* it
//! has reached — the variables not yet consumed and the edges left on them —
//! and not on the order in which the consumed variables came. `analyze`
//! computes that answer (all-product, a split into extended components, or
//! the top node) from a sub-query alone, and an `EvoChecker` interns every
//! sub-query it meets as a state and memoizes the analysis and the
//! transitions `(state, variable) → state` per shape. Testing one ordering is
//! then a walk of table lookups, and orderings that share prefixes — the
//! planner's hundreds of `LinEx(P)` candidates differ in their last few
//! positions — share every expression tree built along them. There is one
//! implementation: [`is_equivalent_ordering`] is the walk over a fresh
//! checker, and [`crate::Planner::plan`] feeds many orderings to one.

use crate::exprtree::{QueryShape, Tag};
use faq_hypergraph::{Hypergraph, Var, VarSet};
use std::collections::HashMap;

/// Enumerate linear extensions of the precedence poset, up to `cap` many.
///
/// Returns `(extensions, exhausted)`; `exhausted` is `false` when the cap
/// truncated the enumeration, and `true` whenever nothing was cut off — a
/// poset with exactly `cap` extensions included.
pub fn linear_extensions(shape: &QueryShape, cap: usize) -> (Vec<Vec<Var>>, bool) {
    let preds = shape.precedence();
    let vars: Vec<Var> = shape.vars();
    let mut out: Vec<Vec<Var>> = Vec::new();
    let mut current: Vec<Var> = Vec::new();
    let mut used: VarSet = VarSet::new();
    // Probe for one extension past the cap: only finding it shows that the
    // cap cut something off.
    enumerate(&vars, &preds, &mut current, &mut used, &mut out, cap.saturating_add(1));
    let exhausted = out.len() <= cap;
    out.truncate(cap);
    (out, exhausted)
}

/// Depth-first enumeration in lexicographic order of query positions,
/// stopping once `out` holds `limit` extensions.
fn enumerate(
    vars: &[Var],
    preds: &std::collections::BTreeMap<Var, VarSet>,
    current: &mut Vec<Var>,
    used: &mut VarSet,
    out: &mut Vec<Vec<Var>>,
    limit: usize,
) {
    if out.len() >= limit {
        return;
    }
    if current.len() == vars.len() {
        out.push(current.clone());
        return;
    }
    let mut any = false;
    for &v in vars {
        if used.contains(&v) {
            continue;
        }
        if preds[&v].iter().all(|p| used.contains(p)) {
            any = true;
            used.insert(v);
            current.push(v);
            enumerate(vars, preds, current, used, out, limit);
            current.pop();
            used.remove(&v);
            if out.len() >= limit {
                return;
            }
        }
    }
    assert!(any, "precedence poset has a cycle — should be impossible (Cor 6.21)");
}

/// Decide whether `pi` is a ϕ-equivalent variable ordering.
///
/// For queries with product aggregates over a domain where `⊗` is idempotent,
/// this decides membership in `EVO(ϕ, F(D_I))` for the promise class of
/// Definition 5.8 (all input factors range over the idempotent elements), per
/// the paper's §6.2 analysis. Otherwise it decides the Definition 6.30
/// (extended-edge) relation, which is sound for arbitrary inputs.
pub fn is_equivalent_ordering(shape: &QueryShape, pi: &[Var]) -> bool {
    EvoChecker::new(shape).check(pi)
}

/// A conditioned sub-query of the membership recursion: the variables not yet
/// consumed, with their tags, in query order, and the edges restricted to
/// them (empty restrictions dropped).
#[derive(Clone, PartialEq, Eq, Hash)]
struct SubQuery {
    seq: Vec<(Var, Tag)>,
    edges: Vec<VarSet>,
}

impl SubQuery {
    /// The sub-query conditioned on `gone`: those variables leave the prefix
    /// and every edge.
    fn without(&self, gone: &[Var]) -> SubQuery {
        SubQuery {
            seq: self.seq.iter().copied().filter(|(v, _)| !gone.contains(v)).collect(),
            edges: self
                .edges
                .iter()
                .map(|e| e.iter().copied().filter(|x| !gone.contains(x)).collect::<VarSet>())
                .filter(|e: &VarSet| !e.is_empty())
                .collect(),
        }
    }
}

/// What the recursion of Lemmas 6.9 / 6.24 may do at a sub-query.
enum Analysis {
    /// Only product variables remain: all aggregates are `⊗` and commute.
    Unconstrained,
    /// Several extended components, or dangling product variables: the
    /// components are independent and checked each on its own; dangling
    /// product variables are unconstrained (Definition 6.25).
    Split(Vec<SubQuery>),
    /// One extended component covering everything: the next variable must lie
    /// in this node — the root's core-bearing child in the compressed
    /// expression tree — and a product node is consumed as one block.
    Top { vars: Vec<Var>, tag: Tag },
}

fn analyze(q: &SubQuery) -> Analysis {
    let SubQuery { seq, edges } = q;
    let w: VarSet = seq.iter().filter(|(_, t)| *t == Tag::Product).map(|&(v, _)| v).collect();
    let core: VarSet = seq.iter().filter(|(_, t)| *t != Tag::Product).map(|&(v, _)| v).collect();

    if core.is_empty() {
        return Analysis::Unconstrained;
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
    let mut extended: Vec<SubQuery> = Vec::new();
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
        let sub_seq = seq.iter().copied().filter(|(v, _)| vext.contains(v)).collect();
        extended.push(SubQuery { seq: sub_seq, edges: eext });
    }
    let dangling = seq.iter().any(|(v, _)| !covered.contains(v));

    if extended.len() >= 2 || dangling {
        return Analysis::Split(extended);
    }

    // Single extended component covering everything: the next variable of pi
    // must lie in the root's unique child node of the (compressed) expression
    // tree (Lemma 6.9 / 6.24).
    let sub_shape = QueryShape {
        seq: seq.to_vec(),
        edges: edges.to_vec(),
        // Edges are already extended if they needed to be; claim every op
        // closed so `effective_edges` does not re-extend. The global
        // product/non-closed order constraint is checked per ordering.
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
    Analysis::Top { vars: top.vars.clone(), tag: top.tag }
}

/// A variable's part in one state of the walk.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Consumed already, or in another component: the walk skips it.
    Absent,
    /// Still to come, but not eligible next.
    Waiting,
    /// In the top node: eligible next.
    Top,
}

/// How the walk leaves a state; the memoized form of [`Analysis`].
#[derive(Clone, Copy)]
enum Exit {
    /// Nothing constrains the rest.
    Unconstrained,
    /// Walk each of `EvoChecker::parts[lo..hi]` on its own.
    Split { lo: usize, hi: usize },
    /// Consume one [`Role::Top`] variable and follow [`State::next`].
    Semiring,
    /// Consume the whole top node, `len` variables, as a block and follow
    /// [`State::after_block`].
    Product { len: usize },
}

/// An interned [`SubQuery`] with everything the walk has learnt about it.
struct State {
    query: SubQuery,
    /// `None` until the walk first arrives here.
    exit: Option<Exit>,
    /// Per variable (by position in the shape's prefix).
    role: Vec<Role>,
    /// Per variable: the state conditioned on it, [`UNKNOWN`] until taken.
    next: Vec<usize>,
    /// The state after the top product block, [`UNKNOWN`] until taken.
    after_block: usize,
}

const UNKNOWN: usize = usize::MAX;

/// The `EVO(ϕ)` membership test for many orderings of one shape: verdicts
/// are those of [`is_equivalent_ordering`] whatever was asked before, and
/// the work done for one ordering is kept for all that share a state with it
/// (see the module docs). The tables grow by one entry per distinct
/// sub-query met — a few per ordering when orderings share prefixes, as
/// enumerated linear extensions do.
pub(crate) struct EvoChecker {
    /// Variable → position in the shape's prefix, the index of every
    /// per-variable table.
    index: HashMap<Var, usize>,
    vars: Vec<Var>,
    free: Vec<bool>,
    num_free: usize,
    /// The query positions of [`QueryShape::non_commuting_pairs`], earlier
    /// first: an ordering must keep every pair's order.
    ordered: Vec<(usize, usize)>,
    states: Vec<State>,
    ids: HashMap<SubQuery, usize>,
    /// Component lists of the [`Exit::Split`] states, back to back.
    parts: Vec<usize>,
    root: usize,
}

impl EvoChecker {
    pub(crate) fn new(shape: &QueryShape) -> EvoChecker {
        let vars = shape.vars();
        let index: HashMap<Var, usize> = vars.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let free: Vec<bool> = shape.seq.iter().map(|(_, t)| *t == Tag::Free).collect();
        let ordered =
            shape.non_commuting_pairs().iter().map(|(u, w)| (index[u], index[w])).collect();
        // Condition on the free variables; the walk checks the bound part.
        let bound_seq: Vec<(Var, Tag)> =
            shape.seq.iter().copied().filter(|(_, t)| *t != Tag::Free).collect();
        let bound_vars: VarSet = bound_seq.iter().map(|&(v, _)| v).collect();
        let edges: Vec<VarSet> = shape
            .effective_edges()
            .iter()
            .map(|e| e.intersection(&bound_vars).copied().collect::<VarSet>())
            .filter(|e: &VarSet| !e.is_empty())
            .collect();
        let mut checker = EvoChecker {
            index,
            vars,
            num_free: free.iter().filter(|&&f| f).count(),
            free,
            ordered,
            states: Vec::new(),
            ids: HashMap::new(),
            parts: Vec::new(),
            root: 0,
        };
        checker.root = checker.intern(SubQuery { seq: bound_seq, edges });
        checker
    }

    /// Whether `pi` is a ϕ-equivalent ordering of the checker's shape.
    pub(crate) fn check(&mut self, pi: &[Var]) -> bool {
        let n = self.vars.len();
        if pi.len() != n {
            return false;
        }
        // `pi` by prefix position, and its inverse: a permutation of the
        // query's variables or no ordering at all.
        let mut at = vec![UNKNOWN; n];
        let mut order = Vec::with_capacity(n);
        for (k, v) in pi.iter().enumerate() {
            match self.index.get(v) {
                Some(&i) if at[i] == UNKNOWN => {
                    at[i] = k;
                    order.push(i);
                }
                _ => return false,
            }
        }
        if order[..self.num_free].iter().any(|&i| !self.free[i]) {
            return false; // the free variables form the prefix
        }
        if self.ordered.iter().any(|&(a, b)| at[a] > at[b]) {
            return false;
        }
        self.walk(self.root, &order[self.num_free..])
    }

    fn intern(&mut self, query: SubQuery) -> usize {
        if let Some(&id) = self.ids.get(&query) {
            return id;
        }
        let id = self.states.len();
        let mut role = vec![Role::Absent; self.vars.len()];
        for (v, _) in &query.seq {
            role[self.index[v]] = Role::Waiting;
        }
        let next = vec![UNKNOWN; self.vars.len()];
        self.ids.insert(query.clone(), id);
        self.states.push(State { query, exit: None, role, next, after_block: UNKNOWN });
        id
    }

    /// How the walk leaves state `id`, analyzing its sub-query on the first
    /// arrival.
    fn exit(&mut self, id: usize) -> Exit {
        if let Some(exit) = self.states[id].exit {
            return exit;
        }
        let exit = match analyze(&self.states[id].query) {
            Analysis::Unconstrained => Exit::Unconstrained,
            Analysis::Split(components) => {
                let lo = self.parts.len();
                for sub in components {
                    let part = self.intern(sub);
                    self.parts.push(part);
                }
                Exit::Split { lo, hi: self.parts.len() }
            }
            Analysis::Top { vars, tag } => {
                for v in &vars {
                    self.states[id].role[self.index[v]] = Role::Top;
                }
                match tag {
                    // Consume the whole product node as a block
                    // (Definition 6.25).
                    Tag::Product => Exit::Product { len: vars.len() },
                    // Consume a single semiring variable (conditioning on it).
                    _ => Exit::Semiring,
                }
            }
        };
        self.states[id].exit = Some(exit);
        exit
    }

    /// The state `id` conditioned on its top-node variable `i`.
    fn next(&mut self, id: usize, i: usize) -> usize {
        if self.states[id].next[i] == UNKNOWN {
            let rest = self.states[id].query.without(&[self.vars[i]]);
            self.states[id].next[i] = self.intern(rest);
        }
        self.states[id].next[i]
    }

    /// The state `id` with its whole top node — a product block — consumed.
    fn after_block(&mut self, id: usize) -> usize {
        if self.states[id].after_block == UNKNOWN {
            let state = &self.states[id];
            let block: Vec<Var> = (0..self.vars.len())
                .filter(|&i| state.role[i] == Role::Top)
                .map(|i| self.vars[i])
                .collect();
            let rest = state.query.without(&block);
            self.states[id].after_block = self.intern(rest);
        }
        self.states[id].after_block
    }

    /// Whether `order`, read on the variables of state `id` alone, is
    /// accepted from there. Every variable of the state occurs in `order`;
    /// variables of other components may lie between them.
    fn walk(&mut self, mut id: usize, mut order: &[usize]) -> bool {
        // The state's next variable in `order`, if it lies in the top node,
        // and what follows it.
        fn take_top<'a>(role: &[Role], order: &'a [usize]) -> Option<(usize, &'a [usize])> {
            let k = order
                .iter()
                .position(|&i| role[i] != Role::Absent)
                .expect("an ordering lists every variable of the states it reaches");
            (role[order[k]] == Role::Top).then(|| (order[k], &order[k + 1..]))
        }
        loop {
            match self.exit(id) {
                Exit::Unconstrained => return true,
                Exit::Split { lo, hi } => {
                    return (lo..hi).all(|p| self.walk(self.parts[p], order));
                }
                Exit::Semiring => {
                    let Some((i, rest)) = take_top(&self.states[id].role, order) else {
                        return false;
                    };
                    order = rest;
                    id = self.next(id, i);
                }
                Exit::Product { len } => {
                    for _ in 0..len {
                        let Some((_, rest)) = take_top(&self.states[id].role, order) else {
                            return false;
                        };
                        order = rest;
                    }
                    id = self.after_block(id);
                }
            }
        }
    }
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

    /// Semantic cross-validation: every permutation the checker accepts for
    /// `shape` evaluates `q` to what brute force over eq. (1) gives (for
    /// rejected orderings there exist adversarial inputs where values differ;
    /// the accepted side is the soundness-critical one). Returns how many
    /// orderings were accepted.
    fn assert_accepted_orderings_evaluate_to_naive<D: faq_semiring::AggDomain + Sync>(
        q: &crate::query::FaqQuery<D>,
        shape: &QueryShape,
    ) -> usize {
        let reference = crate::naive::naive_eval(q);
        let ids: Vec<u32> = shape.seq.iter().map(|(x, _)| x.0).collect();
        let mut checker = EvoChecker::new(shape);
        let mut accepted = 0;
        for p in permutations(&ids) {
            if checker.check(&p) {
                accepted += 1;
                let got = crate::engine::Engine::sequential().evaluate_with_order(q, &p).unwrap();
                // The output lists the free variables in `p`'s order.
                let got = got.factor.reorder(reference.schema());
                assert_eq!(got, reference, "accepted order {p:?} differs");
            }
        }
        accepted
    }

    #[test]
    fn accepted_orderings_evaluate_identically() {
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
            let q = FaqQuery::new(
                CountDomain,
                Domains::new(vec![2, 2, 2, 2]),
                vec![],
                vec![
                    (v(1), VarAgg::Semiring(CountDomain::SUM)),
                    (v(2), VarAgg::Semiring(CountDomain::MAX)),
                    (v(3), VarAgg::Semiring(CountDomain::SUM)),
                ],
                vec![mk(&mut rng, 1, 2), mk(&mut rng, 2, 3)],
            )
            .unwrap();
            assert!(assert_accepted_orderings_evaluate_to_naive(&q, &q.shape()) >= 1);
        }
    }

    /// The same beyond Σ/max: a product aggregate over `{0,1}`-valued
    /// factors — Example 5.6 with domains of at most three values — under the
    /// conservative shape and under the `F(D_I)` promise, which accepts more.
    #[test]
    fn accepted_orderings_evaluate_identically_with_a_product_aggregate() {
        use crate::query::{FaqQuery, VarAgg};
        use faq_factor::{Domains, Factor};
        use faq_semiring::RealDomain;
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(56);
        let sizes = [2u32, 3, 3, 2, 3, 3, 3];
        for _ in 0..8 {
            let mut indicator = |schema: &[u32]| {
                let dims: Vec<u32> = schema.iter().map(|&i| sizes[i as usize]).collect();
                let vars = schema.iter().map(|&i| v(i)).collect();
                let value = |_: &[u32]| if rng.gen_bool(0.75) { 1.0f64 } else { 0.0 };
                Factor::dense(vars, &dims, value, |&x| x == 0.0).unwrap()
            };
            let max = VarAgg::Semiring(RealDomain::MAX);
            let q = FaqQuery::new(
                RealDomain,
                Domains::new(sizes.to_vec()),
                vec![],
                vec![
                    (v(1), max),
                    (v(2), max),
                    (v(3), VarAgg::Product),
                    (v(4), VarAgg::Semiring(RealDomain::SUM)),
                    (v(5), max),
                    (v(6), max),
                ],
                vec![
                    indicator(&[1, 5]),
                    indicator(&[2, 5]),
                    indicator(&[1, 3, 4]),
                    indicator(&[2, 3, 6]),
                ],
            )
            .unwrap();
            let conservative = assert_accepted_orderings_evaluate_to_naive(&q, &q.shape());
            let promise = q.shape_promising_idempotent_inputs();
            let promised = assert_accepted_orderings_evaluate_to_naive(&q, &promise);
            assert!(1 <= conservative && conservative < promised, "{conservative} vs {promised}");
        }
    }

    /// And with two free variables under mixed aggregates:
    /// `ϕ(x0, x1) = Σ₂ max₃ Π₄ ψ02 ψ123 ψ34 ψ01` over counting.
    #[test]
    fn accepted_orderings_evaluate_identically_with_two_free_variables() {
        use crate::query::{FaqQuery, VarAgg};
        use faq_factor::{Domains, Factor};
        use faq_semiring::CountDomain;
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..12 {
            let mut counts = |schema: &[u32]| {
                let vars = schema.iter().map(|&i| v(i)).collect();
                let value = |_: &[u32]| rng.gen_range(0..3u64);
                Factor::dense(vars, &vec![3; schema.len()], value, |&x| x == 0).unwrap()
            };
            let q = FaqQuery::new(
                CountDomain,
                Domains::uniform(5, 3),
                vec![v(0), v(1)],
                vec![
                    (v(2), VarAgg::Semiring(CountDomain::SUM)),
                    (v(3), VarAgg::Semiring(CountDomain::MAX)),
                    (v(4), VarAgg::Product),
                ],
                vec![counts(&[0, 2]), counts(&[1, 2, 3]), counts(&[3, 4]), counts(&[0, 1])],
            )
            .unwrap();
            // Both orders of the free pair, nothing else.
            assert_eq!(assert_accepted_orderings_evaluate_to_naive(&q, &q.shape()), 2);
        }
    }

    /// The cap is reached exactly: nothing was cut off, and the caller must
    /// hear so (Example 6.13's poset has two linear extensions).
    #[test]
    fn exact_cap_is_exhausted() {
        let shape = QueryShape {
            seq: vec![(v(1), SUM), (v(2), MAX), (v(3), SUM)],
            edges: vec![varset(&[1, 2]), varset(&[1, 3])],
            mul_idempotent: false,
            closed_ops: Default::default(),
        };
        let all = vec![vec![v(1), v(3), v(2)], vec![v(3), v(1), v(2)]];
        assert_eq!(linear_extensions(&shape, 3), (all.clone(), true));
        assert_eq!(linear_extensions(&shape, 2), (all.clone(), true));
        assert_eq!(linear_extensions(&shape, 1), (all[..1].to_vec(), false));
        assert_eq!(linear_extensions(&shape, 0), (vec![], false));
    }

    /// Shapes of at most seven variables covering every branch of the
    /// membership recursion.
    fn shape_family() -> Vec<(&'static str, QueryShape)> {
        let shape = |seq: &[(u32, Tag)], edges: &[&[u32]], idem: bool, closed: &[u32]| QueryShape {
            seq: seq.iter().map(|&(i, t)| (v(i), t)).collect(),
            edges: edges.iter().map(|e| varset(e)).collect(),
            mul_idempotent: idem,
            closed_ops: closed.iter().map(|&i| AggId(i)).collect(),
        };
        const PROD: Tag = Tag::Product;
        const FREE: Tag = Tag::Free;
        vec![
            (
                "pure Σ under a free variable, a 6-cycle with a chord",
                shape(
                    &[(1, FREE), (2, SUM), (3, SUM), (4, SUM), (5, SUM), (6, SUM)],
                    &[&[1, 2], &[2, 3], &[3, 4], &[4, 5], &[5, 6], &[1, 6], &[2, 5]],
                    false,
                    &[],
                ),
            ),
            (
                "mixed Σ/max, Example 6.2",
                shape(
                    &[(1, SUM), (2, SUM), (3, MAX), (4, SUM), (5, SUM), (6, MAX), (7, MAX)],
                    &[&[1, 2], &[1, 3, 5], &[1, 4], &[2, 4, 6], &[2, 7], &[3, 7]],
                    false,
                    &[],
                ),
            ),
            (
                "two components",
                shape(
                    &[(1, SUM), (2, MAX), (3, SUM), (4, MAX), (5, SUM)],
                    &[&[1, 2], &[3, 4], &[4, 5]],
                    false,
                    &[],
                ),
            ),
            (
                "product blocks, Example 5.6",
                shape(
                    &[(1, MAX), (2, MAX), (3, PROD), (4, SUM), (5, MAX), (6, MAX)],
                    &[&[1, 5], &[2, 5], &[1, 3, 4], &[2, 3, 6]],
                    true,
                    &[1],
                ),
            ),
            (
                "a two-variable product block over a non-closed Σ",
                shape(
                    &[(1, MAX), (2, PROD), (3, PROD), (4, SUM), (5, MAX)],
                    &[&[1, 2, 3], &[2, 3, 4], &[4, 5], &[1, 5]],
                    true,
                    &[1],
                ),
            ),
            (
                "dangling product variables",
                shape(
                    &[(1, MAX), (2, PROD), (3, PROD), (4, MAX), (5, PROD), (6, MAX)],
                    &[&[1, 4], &[2, 3], &[1, 2], &[4, 6], &[5]],
                    true,
                    &[1],
                ),
            ),
            (
                "free variables, non-idempotent ⊗ (Definition 6.30 extension)",
                shape(
                    &[(0, FREE), (1, FREE), (2, SUM), (3, MAX), (4, PROD)],
                    &[&[0, 2], &[1, 2, 3], &[3, 4], &[0, 1]],
                    false,
                    &[],
                ),
            ),
            (
                "non-idempotent ⊗ between non-closed ops",
                shape(
                    &[(1, SUM), (2, PROD), (3, MAX), (4, SUM), (5, PROD), (6, MAX)],
                    &[&[1, 3], &[2, 4], &[3, 5], &[4, 6]],
                    false,
                    &[],
                ),
            ),
            (
                "idempotent ⊗, Σ non-closed and max closed",
                shape(
                    &[(0, FREE), (1, MAX), (2, PROD), (3, SUM), (4, MAX), (5, PROD), (6, SUM)],
                    &[&[0, 1], &[1, 2], &[2, 3], &[3, 4, 5], &[5, 6]],
                    true,
                    &[1],
                ),
            ),
        ]
    }

    /// What a checker has been asked before cannot change what it answers:
    /// one shared checker fed every permutation in lexicographic, reversed
    /// and shuffled order gives the verdicts of a fresh checker per call.
    #[test]
    fn memo_history_cannot_change_a_verdict() {
        use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for (name, shape) in shape_family() {
            let ids: Vec<u32> = shape.seq.iter().map(|(x, _)| x.0).collect();
            let mut perms = permutations(&ids);
            perms.sort();
            let fresh: HashMap<&[Var], bool> =
                perms.iter().map(|p| (p.as_slice(), is_equivalent_ordering(&shape, p))).collect();
            let accepted = fresh.values().filter(|&&ok| ok).count();
            assert!(0 < accepted && accepted < perms.len(), "{name}: {accepted} accepted");
            assert!(fresh[shape.vars().as_slice()], "{name}: the query's own order");

            let mut reversed = perms.clone();
            reversed.reverse();
            let mut shuffled = perms.clone();
            shuffled.shuffle(&mut rng);
            for feed in [&perms, &reversed, &shuffled] {
                let mut shared = EvoChecker::new(&shape);
                for p in feed {
                    assert_eq!(shared.check(p), fresh[p.as_slice()], "{name}: {p:?}");
                }
                // Asked again with every state known, it answers the same.
                for p in feed.iter().take(50) {
                    assert_eq!(shared.check(p), fresh[p.as_slice()], "{name}: {p:?} again");
                }
            }
        }
    }

    /// Not an ordering at all: a repeated, missing or foreign variable.
    #[test]
    fn non_permutations_are_rejected() {
        let (_, shape) = shape_family().swap_remove(2);
        let mut checker = EvoChecker::new(&shape);
        assert!(checker.check(&[v(1), v(2), v(3), v(4), v(5)]));
        assert!(!checker.check(&[v(1), v(2), v(3), v(4)]));
        assert!(!checker.check(&[v(1), v(2), v(3), v(4), v(4)]));
        assert!(!checker.check(&[v(1), v(2), v(3), v(4), v(9)]));
        assert!(!checker.check(&[v(1), v(2), v(3), v(4), v(5), v(5)]));
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
