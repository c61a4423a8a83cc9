//! Junction-tree message passing over a tree decomposition (paper §8.4).
//!
//! Variable elimination answers one query; message passing (belief
//! propagation on the bags of a tree decomposition) is "variable elimination
//! run in all directions at once": after one calibration pass, *every*
//! single-variable (indeed every within-bag) marginal is available — the
//! output representation that "prepares the model for future queries".
//!
//! This is the classical counterpart the paper contrasts InsideOut against;
//! the per-bag computations reuse the same factor algebra and multiway join.

use faq_core::FaqError;
use faq_factor::{Domains, Factor};
use faq_hypergraph::ordering::fhtw;
use faq_hypergraph::{Hypergraph, TreeDecomposition, Var, VarSet};
use faq_join::{multiway_join_range_rep, JoinInput, JoinRep};
use faq_semiring::Semiring;

/// A calibrated junction tree over an arbitrary commutative semiring.
pub struct JunctionTree<S: Semiring> {
    semiring: S,
    domains: Domains,
    /// Bag variable sets, in join order.
    bags: Vec<Vec<Var>>,
    /// Parent pointer per bag (root points to itself).
    parent: Vec<usize>,
    /// Calibrated beliefs: `β_i = ψ_i ⊗ Π messages into i`, one per bag.
    beliefs: Vec<Factor<S::E>>,
}

impl<S: Semiring> JunctionTree<S> {
    /// Build and calibrate a junction tree for the given potentials.
    ///
    /// `exact_limit` bounds the exact tree-decomposition search (see
    /// [`fhtw`]); larger models fall back to heuristics.
    pub fn build(
        semiring: S,
        domains: &Domains,
        potentials: &[Factor<S::E>],
        exact_limit: usize,
    ) -> Result<Self, FaqError> {
        // 1. Tree decomposition of the model hypergraph.
        let mut h = Hypergraph::new();
        for v in domains.vars() {
            h.add_vertex(v);
        }
        for p in potentials {
            h.add_edge(p.schema().iter().copied());
        }
        let ordering = fhtw(&h, exact_limit).order;
        let td = TreeDecomposition::from_ordering(&h, &ordering);
        td.validate(&h).map_err(FaqError::BadOrdering)?;

        let bags: Vec<Vec<Var>> = td.bags.iter().map(|b| b.iter().copied().collect()).collect();
        let parent = td.parent.clone();
        let n = bags.len();

        // 2. Assign each potential to some bag covering it; materialize the
        //    per-bag clique potentials (missing potentials → the constant 1
        //    over the bag, represented lazily as `None`).
        let mut assigned: Vec<Vec<&Factor<S::E>>> = vec![Vec::new(); n];
        'outer: for p in potentials {
            let pvars: VarSet = p.schema().iter().copied().collect();
            for (i, bag) in td.bags.iter().enumerate() {
                if pvars.is_subset(bag) {
                    assigned[i].push(p);
                    continue 'outer;
                }
            }
            unreachable!("tree decomposition covers every edge");
        }
        let mut clique: Vec<Option<Factor<S::E>>> = Vec::with_capacity(n);
        for i in 0..n {
            if assigned[i].is_empty() {
                clique.push(None);
            } else {
                clique.push(Some(join_over(
                    &semiring,
                    domains,
                    &bags[i],
                    &assigned[i].iter().map(|f| (*f).clone()).collect::<Vec<_>>(),
                )));
            }
        }

        // 3. Two-pass message passing. Order bags by depth (root first).
        let mut depth = vec![0usize; n];
        for (i, slot) in depth.iter_mut().enumerate() {
            let mut cur = i;
            let mut d = 0;
            while parent[cur] != cur {
                cur = parent[cur];
                d += 1;
            }
            *slot = d;
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| depth[i]);

        // Upward messages: leaves to root.
        let mut up: Vec<Option<Factor<S::E>>> = vec![None; n];
        for &i in order.iter().rev() {
            if parent[i] == i {
                continue;
            }
            let children: Vec<usize> = (0..n).filter(|&c| parent[c] == i && c != i).collect();
            let mut inputs: Vec<Factor<S::E>> = Vec::new();
            if let Some(c) = &clique[i] {
                inputs.push(c.clone());
            }
            for &c in &children {
                if let Some(m) = &up[c] {
                    inputs.push(m.clone());
                }
            }
            let sep: Vec<Var> =
                bags[i].iter().copied().filter(|v| bags[parent[i]].contains(v)).collect();
            up[i] = Some(message(&semiring, domains, &bags[i], &inputs, &sep));
        }

        // Downward messages: root to leaves.
        let mut down: Vec<Option<Factor<S::E>>> = vec![None; n];
        for &i in &order {
            let children: Vec<usize> = (0..n).filter(|&c| parent[c] == i && c != i).collect();
            for &c in &children {
                let mut inputs: Vec<Factor<S::E>> = Vec::new();
                if let Some(cp) = &clique[i] {
                    inputs.push(cp.clone());
                }
                if parent[i] != i {
                    if let Some(m) = &down[i] {
                        inputs.push(m.clone());
                    }
                }
                for &sib in &children {
                    if sib != c {
                        if let Some(m) = &up[sib] {
                            inputs.push(m.clone());
                        }
                    }
                }
                let sep: Vec<Var> =
                    bags[c].iter().copied().filter(|v| bags[i].contains(v)).collect();
                down[c] = Some(message(&semiring, domains, &bags[i], &inputs, &sep));
            }
        }

        // 4. Calibrated beliefs.
        let mut beliefs: Vec<Factor<S::E>> = Vec::with_capacity(n);
        for i in 0..n {
            let children: Vec<usize> = (0..n).filter(|&c| parent[c] == i && c != i).collect();
            let mut inputs: Vec<Factor<S::E>> = Vec::new();
            if let Some(cp) = &clique[i] {
                inputs.push(cp.clone());
            }
            if parent[i] != i {
                if let Some(m) = &down[i] {
                    inputs.push(m.clone());
                }
            }
            for &c in &children {
                if let Some(m) = &up[c] {
                    inputs.push(m.clone());
                }
            }
            beliefs.push(join_over(&semiring, domains, &bags[i], &inputs));
        }

        Ok(JunctionTree { semiring, domains: domains.clone(), bags, parent, beliefs })
    }

    /// Number of bags.
    pub fn num_bags(&self) -> usize {
        self.bags.len()
    }

    /// The unnormalized marginal over `vars`, which must be contained in some
    /// single bag (the standard junction-tree query model). Returns `None`
    /// when no bag covers `vars`.
    pub fn marginal(&self, vars: &[Var]) -> Option<Factor<S::E>> {
        let want: VarSet = vars.iter().copied().collect();
        let bag = (0..self.bags.len())
            .find(|&i| want.is_subset(&self.bags[i].iter().copied().collect()))?;
        let s = &self.semiring;
        Some(self.beliefs[bag].project_combine(vars, |a, b| s.add(a, b), |e| s.is_zero(e)))
    }

    /// Calibration invariant: adjacent beliefs agree on their separator.
    /// Returns the first violation as `(bag, parent)` if any.
    pub fn check_calibration(&self, eq: impl Fn(&S::E, &S::E) -> bool) -> Option<(usize, usize)> {
        let s = &self.semiring;
        for i in 0..self.bags.len() {
            let p = self.parent[i];
            if p == i {
                continue;
            }
            let sep: Vec<Var> =
                self.bags[i].iter().copied().filter(|v| self.bags[p].contains(v)).collect();
            let a = self.beliefs[i].project_combine(&sep, |x, y| s.add(x, y), |e| s.is_zero(e));
            let b = self.beliefs[p].project_combine(&sep, |x, y| s.add(x, y), |e| s.is_zero(e));
            if a.len() != b.len() {
                return Some((i, p));
            }
            for (row, val) in a.iter() {
                match b.get(row) {
                    Some(other) if eq(val, other) => {}
                    _ => return Some((i, p)),
                }
            }
        }
        let _ = &self.domains;
        None
    }
}

/// Materialize the product of `inputs` over the bag variables.
fn join_over<S: Semiring>(
    s: &S,
    domains: &Domains,
    bag: &[Var],
    inputs: &[Factor<S::E>],
) -> Factor<S::E> {
    let join_inputs: Vec<JoinInput<'_, S::E>> = inputs.iter().map(JoinInput::value).collect();
    let mut rows: Vec<(Vec<u32>, S::E)> = Vec::new();
    multiway_join_range_rep(
        JoinRep::Trie,
        domains,
        bag,
        &join_inputs,
        (0, u32::MAX),
        s.one(),
        |a, b| s.mul(a, b),
        |binding, val| {
            if !s.is_zero(&val) {
                rows.push((binding.to_vec(), val));
            }
        },
    );
    Factor::new(bag.to_vec(), rows).expect("join emits distinct rows")
}

/// Compute a message: join `inputs` over `bag`, then `⊕`-project to `sep`.
fn message<S: Semiring>(
    s: &S,
    domains: &Domains,
    bag: &[Var],
    inputs: &[Factor<S::E>],
    sep: &[Var],
) -> Factor<S::E> {
    let joint = join_over(s, domains, bag, inputs);
    joint.project_combine(sep, |a, b| s.add(a, b), |e| s.is_zero(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pgm;
    use faq_hypergraph::v;
    use faq_semiring::F64SumProd;
    use rand::{rngs::StdRng, SeedableRng};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn all_marginals_match_variable_elimination() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..5 {
            let model = pgm::random_tree(7, 3, &mut rng);
            let jt = JunctionTree::build(F64SumProd, &model.domains, &model.potentials, 14)
                .expect("junction tree builds");
            for var in model.domains.vars() {
                let via_jt = jt.marginal(&[var]).expect("single var is in some bag");
                let via_ve = model.marginal(&[var]).unwrap();
                assert_eq!(via_jt.len(), via_ve.len(), "{var}");
                for (row, val) in via_ve.iter() {
                    let got = via_jt.get(row).unwrap();
                    assert!(close(*got, *val), "{var} at {row:?}: {got} vs {val}");
                }
            }
        }
    }

    #[test]
    fn grid_marginals_match() {
        let mut rng = StdRng::seed_from_u64(18);
        let model = pgm::random_grid(2, 3, 2, &mut rng);
        let jt = JunctionTree::build(F64SumProd, &model.domains, &model.potentials, 14).unwrap();
        for var in model.domains.vars() {
            let via_jt = jt.marginal(&[var]).unwrap();
            let via_ve = model.marginal_naive(&[var]).unwrap();
            for (row, val) in via_ve.iter() {
                assert!(close(*via_jt.get(row).unwrap(), *val));
            }
        }
    }

    #[test]
    fn calibration_invariant_holds() {
        let mut rng = StdRng::seed_from_u64(19);
        let model = pgm::random_chain(6, 3, &mut rng);
        let jt = JunctionTree::build(F64SumProd, &model.domains, &model.potentials, 14).unwrap();
        assert_eq!(jt.check_calibration(|a, b| close(*a, *b)), None);
        assert!(jt.num_bags() >= 1);
    }

    #[test]
    fn pairwise_in_bag_marginals() {
        let mut rng = StdRng::seed_from_u64(20);
        let model = pgm::random_chain(5, 2, &mut rng);
        let jt = JunctionTree::build(F64SumProd, &model.domains, &model.potentials, 14).unwrap();
        // Adjacent chain variables share a bag; their pairwise marginal must
        // match variable elimination.
        let via_jt = jt.marginal(&[v(2), v(3)]).expect("edge covered by a bag");
        let via_ve = model.marginal(&[v(2), v(3)]).unwrap();
        for (row, val) in via_ve.iter() {
            assert!(close(*via_jt.get(row).unwrap(), *val));
        }
    }

    #[test]
    fn uncovered_set_returns_none() {
        let mut rng = StdRng::seed_from_u64(21);
        let model = pgm::random_chain(6, 2, &mut rng);
        let jt = JunctionTree::build(F64SumProd, &model.domains, &model.potentials, 14).unwrap();
        // The chain endpoints never share a bag at treewidth 1.
        assert!(jt.marginal(&[v(0), v(5)]).is_none());
    }
}
