//! Quantified conjunctive queries: QCQ and #QCQ (Table 1, rows 1–2).
//!
//! For `Φ(X_1..X_f) = Q_{f+1}X_{f+1} … Q_nX_n ∧_R R`, with `Q_i ∈ {∃, ∀}`:
//!
//! * QCQ (paper Example A.20): over the Boolean domain, `∃ → ∨` (semiring)
//!   and `∀ → ∧ = ⊗` (product). Since `∧` is idempotent on `{0,1}`, every
//!   product aggregate is idempotent and the §6.2 machinery applies.
//! * #QCQ (paper Example 1.3): over the counting domain, the head variables
//!   are summed (`Σ`), `∃ → max`, `∀ → ×`; input factors are `{0,1}`-valued,
//!   so all product aggregates act idempotently on the inner part while the
//!   outer `Σ` counts. This was the paper's *new* tractability result.
//!
//! [`chen_dalmau_family`] builds the §7.2.1 instances separating `faqw`
//! (bounded by 2) from the Chen–Dalmau prefix width (`n+1`).

use crate::cq::Atom;
use faq_core::{naive_eval, Engine, FaqError, FaqQuery, VarAgg};
use faq_factor::Domains;
use faq_hypergraph::Var;
use faq_semiring::{BoolDomain, CountDomain};

/// A quantifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantifier {
    /// Existential.
    Exists,
    /// Universal.
    ForAll,
}

/// A quantified conjunctive query.
#[derive(Debug, Clone)]
pub struct QuantifiedCq {
    /// Per-variable domain sizes.
    pub domains: Domains,
    /// Free variables (the counting head of #QCQ).
    pub free: Vec<Var>,
    /// Quantified variables, outermost first.
    pub prefix: Vec<(Var, Quantifier)>,
    /// The atoms.
    pub atoms: Vec<Atom>,
}

impl QuantifiedCq {
    /// The Boolean FAQ for QCQ (free variables stay free).
    pub(crate) fn to_bool_faq(&self) -> Result<FaqQuery<BoolDomain>, FaqError> {
        FaqQuery::new(
            BoolDomain,
            self.domains.clone(),
            self.free.clone(),
            self.prefix
                .iter()
                .map(|&(v, q)| {
                    (
                        v,
                        match q {
                            Quantifier::Exists => VarAgg::Semiring(BoolDomain::OR),
                            Quantifier::ForAll => VarAgg::Product,
                        },
                    )
                })
                .collect(),
            self.atoms.iter().map(|a| a.bool_factor()).collect(),
        )
    }

    /// The counting FAQ for #QCQ: `Σ_{free} (∃→max / ∀→×) Π ψ`, a scalar.
    pub(crate) fn to_count_faq(&self) -> Result<FaqQuery<CountDomain>, FaqError> {
        let mut bound: Vec<(Var, VarAgg)> =
            self.free.iter().map(|&v| (v, VarAgg::Semiring(CountDomain::SUM))).collect();
        bound.extend(self.prefix.iter().map(|&(v, q)| {
            (
                v,
                match q {
                    Quantifier::Exists => VarAgg::Semiring(CountDomain::MAX),
                    Quantifier::ForAll => VarAgg::Product,
                },
            )
        }));
        FaqQuery::new(
            CountDomain,
            self.domains.clone(),
            vec![],
            bound,
            self.atoms.iter().map(|a| a.count_factor()).collect(),
        )
    }

    /// Evaluate QCQ: the relation over the free variables (or, with no free
    /// variables, a scalar truth value — use [`QuantifiedCq::holds`]).
    pub(crate) fn evaluate(&self) -> Result<faq_factor::Factor<bool>, FaqError> {
        let q = self.to_bool_faq()?;
        // Careful with idempotence: BoolDomain's ⊗ = ∧ is idempotent on the
        // whole domain, so the §6.2 expression tree is used as-is.
        // Left on the width optimizer with #QCQ: only `cq` and `csp` were
        // shown (by test) to plan no wider than it; `count` says why #QCQ
        // cannot move to the planner.
        let shape = q.shape();
        let order = width_order_or(&shape, q.ordering(), 5_000, 14)?;
        Ok(Engine::sequential().evaluate_with_order(&q, &order)?.factor)
    }

    /// The sentence value of a fully quantified QCQ.
    pub fn holds(&self) -> Result<bool, FaqError> {
        assert!(self.free.is_empty(), "holds() requires a sentence");
        Ok(self.evaluate()?.get(&[]).copied().unwrap_or(false))
    }

    /// #QCQ: count free-variable assignments satisfying the quantified part.
    pub fn count(&self) -> Result<u64, FaqError> {
        let q = self.to_count_faq()?;
        // Input factors are {0,1}-valued: the F(D_I) promise of Def 5.8 holds.
        // The planner orders by `q.shape()`, which does not take that promise,
        // so the order comes from the width optimizer over the promised shape.
        let shape = q.shape_promising_idempotent_inputs();
        let order = width_order_or(&shape, q.ordering(), 5_000, 14)?;
        let out = Engine::sequential().evaluate_with_order(&q, &order)?;
        Ok(out.scalar().copied().unwrap_or(0))
    }

    /// #QCQ by brute force (test oracle).
    pub fn count_naive(&self) -> Result<u64, FaqError> {
        let q = self.to_count_faq()?;
        Ok(naive_eval(&q).get(&[]).copied().unwrap_or(0))
    }
}

/// The §7.2.1 family `Φ = ∀x_1 … ∀x_n ∃x_{n+1} (S(x_1..x_n) ∧ ∧_i R(x_i, x_{n+1}))`.
///
/// `s_tuples` populates `S` (arity `n`), `r_tuples` populates `R` (arity 2);
/// all variables share domain size `d`. The Chen–Dalmau prefix width of this
/// family is `n+1`, while `faqw = 2 − 1/n ≤ 2`.
pub fn chen_dalmau_family(
    n: u32,
    d: u32,
    s_tuples: Vec<Vec<u32>>,
    r_tuples: Vec<Vec<u32>>,
) -> QuantifiedCq {
    let mut prefix: Vec<(Var, Quantifier)> = (0..n).map(|i| (Var(i), Quantifier::ForAll)).collect();
    prefix.push((Var(n), Quantifier::Exists));
    let mut atoms = vec![Atom { vars: (0..n).map(Var).collect(), tuples: s_tuples }];
    for i in 0..n {
        atoms.push(Atom { vars: vec![Var(i), Var(n)], tuples: r_tuples.clone() });
    }
    QuantifiedCq { domains: Domains::uniform(n as usize + 1, d), free: vec![], prefix, atoms }
}

/// A width-optimized ordering for `shape`, falling back to `query_order` when
/// the width is undefined (`FaqError::Uncoverable`: some free/semiring
/// variable appears in no atom). Such queries evaluate fine by domain
/// iteration; only `ρ*`-based width optimization is meaningless for them.
fn width_order_or(
    shape: &faq_core::QueryShape,
    query_order: Vec<faq_hypergraph::Var>,
    linex_cap: usize,
    exact_limit: usize,
) -> Result<Vec<faq_hypergraph::Var>, faq_core::FaqError> {
    match faq_core::width::faqw_optimize(shape, linex_cap, exact_limit) {
        Ok(best) => Ok(best.order),
        Err(faq_core::FaqError::Uncoverable(_)) => Ok(query_order),
        Err(e) => Err(e),
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
    fn forall_exists_sentence() {
        // ∀x0 ∃x1 R(x0,x1) over domain 2.
        let full = atom(&[0, 1], &[&[0, 0], &[1, 1]]);
        let q = QuantifiedCq {
            domains: Domains::uniform(2, 2),
            free: vec![],
            prefix: vec![(v(0), Quantifier::ForAll), (v(1), Quantifier::Exists)],
            atoms: vec![full],
        };
        assert!(q.holds().unwrap());

        let partial = atom(&[0, 1], &[&[0, 0], &[0, 1]]);
        let q2 = QuantifiedCq {
            domains: Domains::uniform(2, 2),
            free: vec![],
            prefix: vec![(v(0), Quantifier::ForAll), (v(1), Quantifier::Exists)],
            atoms: vec![partial],
        };
        assert!(!q2.holds().unwrap());
    }

    #[test]
    fn exists_forall_differs_from_forall_exists() {
        // R = {(0,0),(1,1),(0,1)}: ∀x0∃x1 R ✓ and ∃x1∀x0 R? need a column
        // x1 hitting all x0: x1=... (0,?)&(1,?): x1=1 gives (0,1),(1,1) ✓.
        let r = atom(&[0, 1], &[&[0, 0], &[1, 1], &[0, 1]]);
        let fe = QuantifiedCq {
            domains: Domains::uniform(2, 2),
            free: vec![],
            prefix: vec![(v(0), Quantifier::ForAll), (v(1), Quantifier::Exists)],
            atoms: vec![r.clone()],
        };
        assert!(fe.holds().unwrap());
        // Drop (1,1): ∀∃ still holds via (1,?)… no—(1,·) only via (1,1).
        let r2 = atom(&[0, 1], &[&[0, 0], &[0, 1]]);
        let fe2 = QuantifiedCq {
            domains: Domains::uniform(2, 2),
            free: vec![],
            prefix: vec![(v(0), Quantifier::ForAll), (v(1), Quantifier::Exists)],
            atoms: vec![r2],
        };
        assert!(!fe2.holds().unwrap());
    }

    #[test]
    fn sharp_qcq_counts_free_assignments() {
        // ϕ(x0) = ∀x1 ∃x2: R(x0,x1) → … simplified: count x0 with
        // ∀x1 ∃x2 (S(x0,x1) ∧ T(x1,x2)).
        let s = atom(&[0, 1], &[&[0, 0], &[0, 1], &[1, 0]]);
        let t = atom(&[1, 2], &[&[0, 1], &[1, 0]]);
        let q = QuantifiedCq {
            domains: Domains::uniform(3, 2),
            free: vec![v(0)],
            prefix: vec![(v(1), Quantifier::ForAll), (v(2), Quantifier::Exists)],
            atoms: vec![s, t],
        };
        // x0=0: S(0,0),S(0,1) ✓ and T has a witness for both x1 ⇒ satisfied.
        // x0=1: S(1,1) missing ⇒ ∀x1 fails.
        assert_eq!(q.count().unwrap(), 1);
        assert_eq!(q.count_naive().unwrap(), 1);
    }

    #[test]
    fn random_sharp_qcq_vs_naive() {
        let mut rng = StdRng::seed_from_u64(99);
        for round in 0..20 {
            let d = 2u32;
            let mk = |rng: &mut StdRng, vars: &[u32]| {
                let mut tuples = Vec::new();
                for _ in 0..rng.gen_range(1..7) {
                    tuples.push((0..vars.len()).map(|_| rng.gen_range(0..d)).collect::<Vec<u32>>());
                }
                tuples.sort();
                tuples.dedup();
                Atom { vars: vars.iter().map(|&i| v(i)).collect(), tuples }
            };
            let quants = [Quantifier::ForAll, Quantifier::Exists];
            let q = QuantifiedCq {
                domains: Domains::uniform(4, d),
                free: vec![v(0)],
                prefix: vec![
                    (v(1), quants[rng.gen_range(0..2)]),
                    (v(2), quants[rng.gen_range(0..2)]),
                    (v(3), quants[rng.gen_range(0..2)]),
                ],
                atoms: vec![mk(&mut rng, &[0, 1]), mk(&mut rng, &[1, 2]), mk(&mut rng, &[2, 3])],
            };
            assert_eq!(
                q.count().unwrap(),
                q.count_naive().unwrap(),
                "round {round}: {:?}",
                q.prefix
            );
        }
    }

    #[test]
    fn chen_dalmau_instances_evaluate() {
        // S = all tuples, R = identity pairs: ∀x ∃y (true ∧ R(x,y)) holds
        // exactly when R's left column is total.
        let n = 3u32;
        let d = 2u32;
        let mut s_tuples = Vec::new();
        for a in 0..d {
            for b in 0..d {
                for c in 0..d {
                    s_tuples.push(vec![a, b, c]);
                }
            }
        }
        // R(x, 0) for every x: y = 0 witnesses every universal choice.
        let r_tuples: Vec<Vec<u32>> = (0..d).map(|x| vec![x, 0]).collect();
        let q = chen_dalmau_family(n, d, s_tuples.clone(), r_tuples);
        assert!(q.holds().unwrap());
        // Remove the R-row for x=1: ∀ fails.
        let q2 = chen_dalmau_family(n, d, s_tuples, vec![vec![0, 0]]);
        assert!(!q2.holds().unwrap());
    }
}
