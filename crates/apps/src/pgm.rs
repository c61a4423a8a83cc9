//! Probabilistic graphical models: marginals and MAP (Table 1, rows 5–6).
//!
//! A discrete Markov random field is a hypergraph of non-negative potentials
//! `ψ_S`. Marginalization is FAQ-SS over `(ℝ₊, +, ×)`; MAP over
//! `(ℝ₊, max, ×)`. InsideOut is exactly variable elimination, and along a
//! width-optimal ordering it carries the fractional-hypertree-width
//! guarantee, improving the classical treewidth bound the PGM literature
//! states. Inference here runs along the [`Planner`]'s ordering: the cheapest
//! ϕ-equivalent candidate under the AGM cost model, width breaking ties.

use faq_core::{naive_eval, Engine, FaqError, FaqQuery, Planner, VarAgg};
use faq_factor::{Domains, Factor};
use faq_hypergraph::Var;
use faq_semiring::RealDomain;
use rand::Rng;

/// A discrete graphical model (unnormalized Gibbs distribution).
#[derive(Debug, Clone)]
pub struct GraphicalModel {
    /// Per-variable domain sizes.
    pub domains: Domains,
    /// The potentials.
    pub potentials: Vec<Factor<f64>>,
}

impl GraphicalModel {
    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.domains.len()
    }

    fn faq(
        &self,
        free: Vec<Var>,
        op: faq_semiring::AggId,
    ) -> Result<FaqQuery<RealDomain>, FaqError> {
        let free_set: std::collections::BTreeSet<Var> = free.iter().copied().collect();
        let bound: Vec<(Var, VarAgg)> = self
            .domains
            .vars()
            .filter(|v| !free_set.contains(v))
            .map(|v| (v, VarAgg::Semiring(op)))
            .collect();
        FaqQuery::new(RealDomain, self.domains.clone(), free, bound, self.potentials.clone())
    }

    fn run(&self, q: &FaqQuery<RealDomain>) -> Result<Factor<f64>, FaqError> {
        // Conditioning can leave a variable with no potential at all: `faqw`
        // is then undefined (Uncoverable), but the planner still prices every
        // candidate by domain products.
        let order = Planner::sequential().plan(q)?.order;
        Ok(Engine::sequential().evaluate_with_order(q, &order)?.factor)
    }

    /// The unnormalized marginal over `free`: `Σ_{rest} Π ψ`.
    pub fn marginal(&self, free: &[Var]) -> Result<Factor<f64>, FaqError> {
        let q = self.faq(free.to_vec(), RealDomain::SUM)?;
        self.run(&q)
    }

    /// The partition function `Z = Σ_x Π ψ`.
    pub fn partition_function(&self) -> Result<f64, FaqError> {
        Ok(self.marginal(&[])?.get(&[]).copied().unwrap_or(0.0))
    }

    /// The MAP value `max_x Π ψ`.
    pub fn map_value(&self) -> Result<f64, FaqError> {
        let q = self.faq(vec![], RealDomain::MAX)?;
        Ok(self.run(&q)?.get(&[]).copied().unwrap_or(0.0))
    }

    /// Max-marginal over `free`: `max_{rest} Π ψ`.
    pub(crate) fn max_marginal(&self, free: &[Var]) -> Result<Factor<f64>, FaqError> {
        let q = self.faq(free.to_vec(), RealDomain::MAX)?;
        self.run(&q)
    }

    /// A MAP assignment, recovered by iterative conditioning: fix each
    /// variable to an argmax of its max-marginal given the prefix, condition,
    /// and repeat. Costs `n` inference passes.
    pub fn map_assignment(&self) -> Result<(Vec<u32>, f64), FaqError> {
        let mut model = self.clone();
        let vars: Vec<Var> = self.domains.vars().collect();
        let mut assignment: Vec<u32> = vec![0; vars.len()];
        let map_val = self.map_value()?;
        for &v in &vars {
            let mm = model.max_marginal(&[v])?;
            // argmax over the marginal.
            let mut best: Option<(u32, f64)> = None;
            for i in 0..mm.len() {
                let x = mm.row(i)[0];
                let val = *mm.value(i);
                if best.is_none_or(|(_, b)| val > b) {
                    best = Some((x, val));
                }
            }
            let (x, _) = best.unwrap_or((0, 0.0));
            assignment[v.index()] = x;
            // Condition every potential containing v on x. Keep the variable
            // in the domain catalog (arity bookkeeping) but restrict factors.
            model.potentials = model
                .potentials
                .iter()
                .map(|f| if f.schema().contains(&v) { f.condition(v, x) } else { f.clone() })
                .collect();
        }
        Ok((assignment, map_val))
    }

    /// Evaluate `Π ψ` at a full assignment.
    pub fn score(&self, assignment: &[u32]) -> f64 {
        let mut acc = 1.0;
        for f in &self.potentials {
            let key: Vec<u32> = f.schema().iter().map(|v| assignment[v.index()]).collect();
            match f.get(&key) {
                Some(val) => acc *= val,
                None => return 0.0,
            }
        }
        acc
    }

    /// Brute-force marginal (test oracle).
    pub fn marginal_naive(&self, free: &[Var]) -> Result<Factor<f64>, FaqError> {
        let q = self.faq(free.to_vec(), RealDomain::SUM)?;
        Ok(naive_eval(&q))
    }

    /// Brute-force MAP value (test oracle).
    pub fn map_value_naive(&self) -> Result<f64, FaqError> {
        let q = self.faq(vec![], RealDomain::MAX)?;
        Ok(naive_eval(&q).get(&[]).copied().unwrap_or(0.0))
    }
}

/// A random chain model `x_0 — x_1 — … — x_{n−1}` with dense pairwise
/// potentials in `(0, 1]`.
pub fn random_chain<R: Rng>(n: usize, d: u32, rng: &mut R) -> GraphicalModel {
    assert!(n >= 2);
    let domains = Domains::uniform(n, d);
    let mut potentials = Vec::new();
    for i in 0..n - 1 {
        potentials.push(random_potential(&[Var(i as u32), Var(i as u32 + 1)], d, rng));
    }
    GraphicalModel { domains, potentials }
}

/// A random `rows × cols` grid model with dense pairwise potentials.
pub fn random_grid<R: Rng>(rows: usize, cols: usize, d: u32, rng: &mut R) -> GraphicalModel {
    let n = rows * cols;
    let domains = Domains::uniform(n, d);
    let at = |r: usize, c: usize| Var((r * cols + c) as u32);
    let mut potentials = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                potentials.push(random_potential(&[at(r, c), at(r, c + 1)], d, rng));
            }
            if r + 1 < rows {
                potentials.push(random_potential(&[at(r, c), at(r + 1, c)], d, rng));
            }
        }
    }
    GraphicalModel { domains, potentials }
}

/// A random tree model over `n` variables (uniform random attachment).
#[cfg(test)]
pub(crate) fn random_tree<R: Rng>(n: usize, d: u32, rng: &mut R) -> GraphicalModel {
    assert!(n >= 2);
    let domains = Domains::uniform(n, d);
    let mut potentials = Vec::new();
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        potentials.push(random_potential(&[Var(parent as u32), Var(i as u32)], d, rng));
    }
    GraphicalModel { domains, potentials }
}

fn random_potential<R: Rng>(vars: &[Var], d: u32, rng: &mut R) -> Factor<f64> {
    let sizes = vec![d; vars.len()];
    Factor::dense(vars.to_vec(), &sizes, |_| rng.gen_range(0.05..1.0), |&x| x == 0.0)
        .expect("distinct vars")
}

#[cfg(test)]
mod tests {
    use super::*;
    use faq_hypergraph::v;
    use rand::{rngs::StdRng, SeedableRng};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    fn factors_close(a: &Factor<f64>, b: &Factor<f64>) {
        assert_eq!(a.len(), b.len(), "{a:?} vs {b:?}");
        for (row, val) in a.iter() {
            let other = b.get(row).unwrap_or_else(|| panic!("missing row {row:?}"));
            assert!(close(*val, *other), "row {row:?}: {val} vs {other}");
        }
    }

    #[test]
    fn chain_marginal_matches_naive() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = random_chain(5, 3, &mut rng);
        let got = m.marginal(&[v(2)]).unwrap();
        let want = m.marginal_naive(&[v(2)]).unwrap();
        factors_close(&got, &want);
    }

    #[test]
    fn grid_partition_function_matches_naive() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = random_grid(2, 3, 2, &mut rng);
        let got = m.partition_function().unwrap();
        let want = m.marginal_naive(&[]).unwrap().get(&[]).copied().unwrap();
        assert!(close(got, want), "{got} vs {want}");
    }

    #[test]
    fn map_value_matches_naive() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let m = random_tree(6, 2, &mut rng);
            assert!(close(m.map_value().unwrap(), m.map_value_naive().unwrap()));
        }
    }

    #[test]
    fn map_assignment_achieves_map_value() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..5 {
            let m = random_chain(5, 3, &mut rng);
            let (assignment, map_val) = m.map_assignment().unwrap();
            assert!(
                close(m.score(&assignment), map_val),
                "score {} vs map {}",
                m.score(&assignment),
                map_val
            );
        }
    }

    #[test]
    fn pairwise_marginal() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = random_grid(2, 2, 2, &mut rng);
        let got = m.marginal(&[v(0), v(3)]).unwrap();
        let want = m.marginal_naive(&[v(0), v(3)]).unwrap();
        factors_close(&got, &want);
    }

    #[test]
    fn deterministic_potentials() {
        // Hand-built chain: ψ01 = [[1,0],[0,1]] (identity), ψ12 likewise;
        // Z = Σ over x0=x1=x2: 2.
        let eye =
            Factor::new(vec![v(0), v(1)], vec![(vec![0, 0], 1.0), (vec![1, 1], 1.0)]).unwrap();
        let eye2 = eye.reorder(&[v(0), v(1)]);
        let mut eye12 =
            Factor::new(vec![v(1), v(2)], vec![(vec![0, 0], 1.0), (vec![1, 1], 1.0)]).unwrap();
        let m = GraphicalModel {
            domains: Domains::uniform(3, 2),
            potentials: vec![eye2, std::mem::replace(&mut eye12, Factor::nullary(None))],
        };
        assert!(close(m.partition_function().unwrap(), 2.0));
        assert!(close(m.map_value().unwrap(), 1.0));
        let (a, _) = m.map_assignment().unwrap();
        assert!(a == vec![0, 0, 0] || a == vec![1, 1, 1]);
    }
}
