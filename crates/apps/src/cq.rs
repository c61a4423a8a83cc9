//! Conjunctive queries: BCQ, CQ evaluation and #CQ (Table 1, row "#CQ").
//!
//! * BCQ — `∃x… ∧ R(…)`: FAQ over the Boolean domain, all variables bound
//!   with `∨` aggregates.
//! * CQ — free variables plus existential projections.
//! * #CQ — count the answers of a CQ: `Σ_{free} max_{bound} Π ψ` over the
//!   counting domain (the paper's Table 1 formulation: `max` over `{0,1}`
//!   plays `∃`, the outer `Σ` counts).

use faq_core::{naive_eval, Engine, FaqError, FaqQuery, VarAgg};
use faq_factor::{Domains, Factor};
use faq_hypergraph::Var;
use faq_semiring::{BoolDomain, CountDomain};

/// An atom of a conjunctive query: a relation over a variable tuple.
#[derive(Debug, Clone)]
pub struct Atom {
    /// The variables of the atom.
    pub vars: Vec<Var>,
    /// The tuples of the relation (distinct).
    pub tuples: Vec<Vec<u32>>,
}

impl Atom {
    /// Boolean factor of the atom.
    pub(crate) fn bool_factor(&self) -> Factor<bool> {
        Factor::new(self.vars.clone(), self.tuples.iter().map(|t| (t.clone(), true)).collect())
            .expect("atom tuples are distinct")
    }

    /// `{0,1}`-valued counting factor of the atom.
    pub(crate) fn count_factor(&self) -> Factor<u64> {
        Factor::new(self.vars.clone(), self.tuples.iter().map(|t| (t.clone(), 1u64)).collect())
            .expect("atom tuples are distinct")
    }
}

/// A conjunctive query with free and existentially quantified variables.
#[derive(Debug, Clone)]
pub struct ConjunctiveQuery {
    /// Per-variable domain sizes.
    pub domains: Domains,
    /// Free (output) variables.
    pub free: Vec<Var>,
    /// Existentially quantified variables.
    pub exists: Vec<Var>,
    /// The atoms.
    pub atoms: Vec<Atom>,
}

impl ConjunctiveQuery {
    /// The Boolean FAQ instance (CQ evaluation).
    pub(crate) fn to_bool_faq(&self) -> Result<FaqQuery<BoolDomain>, FaqError> {
        FaqQuery::new(
            BoolDomain,
            self.domains.clone(),
            self.free.clone(),
            self.exists.iter().map(|&v| (v, VarAgg::Semiring(BoolDomain::OR))).collect(),
            self.atoms.iter().map(|a| a.bool_factor()).collect(),
        )
    }

    /// Evaluate the CQ: the set of answer tuples over the free variables.
    pub fn evaluate(&self) -> Result<Factor<bool>, FaqError> {
        Ok(Engine::sequential().evaluate(&self.to_bool_faq()?)?.factor)
    }

    /// Boolean CQ: is the query non-empty? (All variables existential.)
    pub fn is_satisfiable(&self) -> Result<bool, FaqError> {
        assert!(self.free.is_empty(), "BCQ requires no free variables");
        Ok(Engine::sequential().evaluate(&self.to_bool_faq()?)?.scalar().copied().unwrap_or(false))
    }

    /// The #CQ instance: `Σ_{free} max_{exists} Π ψ` over the counting
    /// domain — a zero-free-variable FAQ whose scalar is the answer count.
    pub(crate) fn to_count_faq(&self) -> Result<FaqQuery<CountDomain>, FaqError> {
        let mut bound: Vec<(Var, VarAgg)> =
            self.free.iter().map(|&v| (v, VarAgg::Semiring(CountDomain::SUM))).collect();
        bound.extend(self.exists.iter().map(|&v| (v, VarAgg::Semiring(CountDomain::MAX))));
        FaqQuery::new(
            CountDomain,
            self.domains.clone(),
            vec![],
            bound,
            self.atoms.iter().map(|a| a.count_factor()).collect(),
        )
    }

    /// #CQ: the number of answers, via InsideOut on the planner's
    /// equivalent ordering.
    pub fn count_answers(&self) -> Result<u64, FaqError> {
        let out = Engine::sequential().evaluate(&self.to_count_faq()?)?;
        Ok(out.scalar().copied().unwrap_or(0))
    }

    /// #CQ by brute force (test oracle).
    pub fn count_answers_naive(&self) -> Result<u64, FaqError> {
        let q = self.to_count_faq()?;
        let out = naive_eval(&q);
        Ok(out.get(&[]).copied().unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faq_hypergraph::v;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn atom(vars: &[u32], tuples: &[&[u32]]) -> Atom {
        Atom {
            vars: vars.iter().map(|&i| v(i)).collect(),
            tuples: tuples.iter().map(|t| t.to_vec()).collect(),
        }
    }

    #[test]
    fn bcq_satisfiability() {
        // ∃x0 x1: R(x0), S(x0, x1).
        let q = ConjunctiveQuery {
            domains: Domains::uniform(2, 3),
            free: vec![],
            exists: vec![v(0), v(1)],
            atoms: vec![atom(&[0], &[&[1]]), atom(&[0, 1], &[&[1, 2], &[0, 0]])],
        };
        assert!(q.is_satisfiable().unwrap());

        let q2 = ConjunctiveQuery {
            domains: Domains::uniform(2, 3),
            free: vec![],
            exists: vec![v(0), v(1)],
            atoms: vec![atom(&[0], &[&[2]]), atom(&[0, 1], &[&[1, 2], &[0, 0]])],
        };
        assert!(!q2.is_satisfiable().unwrap());
    }

    #[test]
    fn cq_projection() {
        // ϕ(x0) = ∃x1: R(x0, x1).
        let q = ConjunctiveQuery {
            domains: Domains::uniform(2, 3),
            free: vec![v(0)],
            exists: vec![v(1)],
            atoms: vec![atom(&[0, 1], &[&[0, 1], &[0, 2], &[2, 0]])],
        };
        let out = q.evaluate().unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.get(&[0]).is_some());
        assert!(out.get(&[2]).is_some());
        assert!(out.get(&[1]).is_none());
    }

    #[test]
    fn count_answers_matches_projection_size() {
        let q = ConjunctiveQuery {
            domains: Domains::uniform(3, 3),
            free: vec![v(0)],
            exists: vec![v(1), v(2)],
            atoms: vec![
                atom(&[0, 1], &[&[0, 1], &[1, 1], &[2, 0]]),
                atom(&[1, 2], &[&[1, 2], &[0, 0]]),
            ],
        };
        crate::assert_plan_no_wider(&q.to_count_faq().unwrap(), 5_000, 14);
        let eval_len = q.evaluate().unwrap().len() as u64;
        assert_eq!(q.count_answers().unwrap(), eval_len);
        assert_eq!(q.count_answers_naive().unwrap(), eval_len);
    }

    #[test]
    fn random_cq_count_vs_naive() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..15 {
            let d = 3u32;
            let mk = |rng: &mut StdRng, vars: &[u32]| {
                let mut tuples = Vec::new();
                for _ in 0..rng.gen_range(1..8) {
                    tuples.push((0..vars.len()).map(|_| rng.gen_range(0..d)).collect::<Vec<u32>>());
                }
                tuples.sort();
                tuples.dedup();
                Atom { vars: vars.iter().map(|&i| v(i)).collect(), tuples }
            };
            let q = ConjunctiveQuery {
                domains: Domains::uniform(4, d),
                free: vec![v(0), v(3)],
                exists: vec![v(1), v(2)],
                atoms: vec![mk(&mut rng, &[0, 1]), mk(&mut rng, &[1, 2]), mk(&mut rng, &[2, 3])],
            };
            crate::assert_plan_no_wider(&q.to_count_faq().unwrap(), 5_000, 14);
            assert_eq!(q.count_answers().unwrap(), q.count_answers_naive().unwrap());
        }
    }

    #[test]
    fn no_exists_pure_join_count() {
        let q = ConjunctiveQuery {
            domains: Domains::uniform(2, 2),
            free: vec![v(0), v(1)],
            exists: vec![],
            atoms: vec![atom(&[0, 1], &[&[0, 0], &[1, 1]])],
        };
        crate::assert_plan_no_wider(&q.to_count_faq().unwrap(), 5_000, 14);
        assert_eq!(q.count_answers().unwrap(), 2);
    }

    /// `count_answers` runs the planner's order: no wider than the width
    /// optimizer's on this module's instances (the tests above check theirs)
    /// and on chains like `paper_tables`' #CQ row.
    #[test]
    fn planner_is_no_wider_than_the_width_optimizer_on_chains() {
        let mut rng = StdRng::seed_from_u64(7);
        for len in [4u32, 6] {
            let atoms = (0..len - 1)
                .map(|a| {
                    let mut tuples: Vec<Vec<u32>> =
                        (0..6).map(|_| vec![rng.gen_range(0..3), rng.gen_range(0..3)]).collect();
                    tuples.sort();
                    tuples.dedup();
                    Atom { vars: vec![v(a), v(a + 1)], tuples }
                })
                .collect();
            let q = ConjunctiveQuery {
                domains: Domains::uniform(len as usize, 3),
                free: vec![v(0), v(len - 1)],
                exists: (1..len - 1).map(v).collect(),
                atoms,
            };
            crate::assert_plan_no_wider(&q.to_count_faq().unwrap(), 5_000, 14);
        }
    }
}
