//! The evaluation facade: one [`Engine`] in front of every way to run a
//! query.
//!
//! One-shot evaluation (sequential or on a worker pool) and the planned
//! serving path ([`crate::plan::Planner`] → [`PreparedQuery`]) are the same
//! engine — the compiled step list of [`mod@crate::insideout`] — run under
//! the same one [`ExecPolicy`], so one builder-style handle fronts them all.
//! Both choose their ordering the same way: picking a ϕ-equivalent σ of
//! small cost is the evaluator's job (paper §6, `EVO(ϕ)`), so
//! [`Engine::evaluate`] plans `q` first and runs the plan's σ; only
//! [`Engine::evaluate_with_order`] runs a σ the caller names.
//!
//! ```
//! use faq_core::{Engine, FaqQuery, VarAgg};
//! use faq_factor::{Domains, Factor};
//! use faq_hypergraph::Var;
//! use faq_semiring::CountDomain;
//!
//! let q = FaqQuery::new(
//!     CountDomain,
//!     Domains::uniform(2, 2),
//!     vec![],
//!     vec![
//!         (Var(0), VarAgg::Semiring(CountDomain::SUM)),
//!         (Var(1), VarAgg::Semiring(CountDomain::SUM)),
//!     ],
//!     vec![Factor::new(vec![Var(0), Var(1)], vec![(vec![0, 1], 2u64)]).unwrap()],
//! )
//! .unwrap();
//!
//! // One-shot evaluation under a thread budget:
//! let out = Engine::new().threads(2).evaluate(&q).unwrap();
//! assert_eq!(out.scalar(), Some(&2));
//!
//! // The serving path: cost-based planning once, evaluation many times.
//! let prepared = Engine::new().threads(2).prepare(&q).unwrap();
//! assert_eq!(prepared.evaluate().unwrap().factor, out.factor);
//! ```

use crate::exec::ExecPolicy;
use crate::insideout::FaqOutput;
use crate::plan::{Planner, PreparedQuery};
use crate::query::{FaqError, FaqQuery};
use faq_hypergraph::Var;
use faq_semiring::AggDomain;

/// The unified evaluation facade: builder-style configuration in front of the
/// sequential engine, the parallel engine, and the cost-based serving path.
///
/// An `Engine` is cheap to construct and clone — it holds configuration, not
/// data. The two families of entry points:
///
/// * [`Engine::evaluate`] — one-shot evaluation along the planner's
///   ϕ-equivalent ordering, under the engine's [`ExecPolicy`];
///   [`Engine::evaluate_with_order`] — the same along a caller-chosen σ (the
///   paper's path, no planning pass);
/// * [`Engine::prepare`] — the serving path: the same plan, plus aligned +
///   indexed inputs, in a reusable [`PreparedQuery`] handle.
///
/// For one σ, the thread count and policy affect performance only: every
/// path is bit-identical to `Engine::sequential()` along the same σ. A plan
/// reads schemas and row counts, never the thread count, so
/// `Engine::new().threads(t).evaluate(q)` is bit-identical to
/// `Engine::sequential().evaluate(q)` for every `t` and every semiring.
///
/// The engine has one [`ExecPolicy`], kept on its planner: one-shot
/// evaluations run under it and every plan [`Engine::prepare`] makes carries
/// it, so both paths chunk by the same thread budget and chunk floor.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    planner: Planner,
}

impl Engine {
    /// An engine with the default policy: one worker per hardware thread,
    /// default chunk floor.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// An engine pinned to sequential execution (one thread everywhere) —
    /// exactly the paper's Algorithm 1. Constructed without probing the
    /// host's parallelism.
    pub fn sequential() -> Engine {
        Engine::with_policy(ExecPolicy::sequential())
    }

    /// An engine evaluating, and planning, under `policy`.
    pub fn with_policy(policy: ExecPolicy) -> Engine {
        Engine { planner: Planner::with_policy(policy) }
    }

    /// This engine with up to `n` worker threads, for both one-shot
    /// evaluation and the plans it prepares.
    pub fn threads(mut self, n: usize) -> Engine {
        self.planner.policy = self.planner.policy.threads(n);
        self
    }

    /// This engine with chunk floor `rows` (see
    /// [`ExecPolicy::min_chunk_rows`]).
    pub fn min_chunk_rows(mut self, rows: usize) -> Engine {
        self.planner.policy = self.planner.policy.min_chunk_rows(rows);
        self
    }

    /// The execution policy this engine evaluates and plans under.
    pub(crate) fn policy(&self) -> &ExecPolicy {
        &self.planner.policy
    }

    /// Evaluate `q` along the ordering the planner chooses for it, under the
    /// engine's policy.
    ///
    /// [`Planner::plan`] validates `q` and picks, from the ϕ-equivalent
    /// orderings it has put through the EVO test, one of least estimated
    /// cost; on a tie it keeps `q`'s own ordering. The output's columns
    /// follow `q.free`, whatever the chosen σ's free prefix. Bit-identical
    /// to `Engine::sequential().evaluate(q)` for every thread count; for
    /// f64 values it may differ in the last bits from a run along another σ,
    /// since ⊕ then associates differently.
    ///
    /// The factors of `q` are borrowed, not copied. A trie index a join
    /// builds lazily lands on (and stays cached in) a caller's factor only
    /// when the plan needs no realignment of it; a factor the chosen σ
    /// reorders is indexed on a temporary copy.
    pub fn evaluate<D: AggDomain + Sync>(
        &self,
        q: &FaqQuery<D>,
    ) -> Result<FaqOutput<D::E>, FaqError> {
        let plan = self.planner.plan(q)?;
        let out = crate::insideout::evaluate(q, &plan.order, self.policy())?;
        Ok(FaqOutput { factor: out.factor.align_to(&q.free), stats: out.stats })
    }

    /// Evaluate `q` along a caller-chosen ordering `sigma`, borrowing the
    /// factors like [`Engine::evaluate`]. No planning pass; the output's
    /// columns follow `sigma`'s free prefix.
    ///
    /// `sigma` must be a permutation of the query's variables with the free
    /// variables first. **Semantic** equivalence of the ordering (membership
    /// in `EVO(ϕ)`, paper §5.4) is the caller's contract — validate with
    /// [`crate::evo::is_equivalent_ordering`] or obtain orderings from
    /// [`crate::width`].
    pub fn evaluate_with_order<D: AggDomain + Sync>(
        &self,
        q: &FaqQuery<D>,
        sigma: &[Var],
    ) -> Result<FaqOutput<D::E>, FaqError> {
        crate::insideout::evaluate(q, sigma, self.policy())
    }

    /// Prepare `q` for repeated evaluation: cost-based ordering choice plus
    /// cached aligned/indexed inputs. Every call plans `q` itself — a plan is
    /// derived from the query it runs, never borrowed from another.
    pub fn prepare<D: AggDomain + Clone + Sync>(
        &self,
        q: &FaqQuery<D>,
    ) -> Result<PreparedQuery<D>, FaqError> {
        self.planner.prepare(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::VarAgg;
    use faq_factor::{Domains, Factor};
    use faq_hypergraph::v;
    use faq_semiring::CountDomain;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn triangle(seed: u64, rows: usize) -> FaqQuery<CountDomain> {
        let mut r = StdRng::seed_from_u64(seed);
        let d = 10u32;
        let mut mk = |a: u32, b: u32| {
            let mut tuples = std::collections::BTreeMap::new();
            for _ in 0..rows {
                tuples.insert(vec![r.gen_range(0..d), r.gen_range(0..d)], r.gen_range(1..4u64));
            }
            Factor::new(vec![v(a), v(b)], tuples.into_iter().collect()).unwrap()
        };
        FaqQuery::new(
            CountDomain,
            Domains::uniform(3, d),
            vec![v(0)],
            vec![
                (v(1), VarAgg::Semiring(CountDomain::SUM)),
                (v(2), VarAgg::Semiring(CountDomain::SUM)),
            ],
            vec![mk(0, 1), mk(1, 2), mk(0, 2)],
        )
        .unwrap()
    }

    #[test]
    fn engine_policy_variants_agree() {
        let q = triangle(1, 70);
        let reference = Engine::sequential().evaluate(&q).unwrap();
        for engine in [
            Engine::new().threads(4).min_chunk_rows(1),
            Engine::with_policy(ExecPolicy::with_threads(2)),
            Engine::with_policy(ExecPolicy::with_threads(4).min_chunk_rows(1)),
        ] {
            assert_eq!(engine.evaluate(&q).unwrap().factor, reference.factor);
            // Plans chunk exactly as one-shot evaluations do.
            let prepared = engine.prepare(&q).unwrap();
            assert_eq!(&prepared.plan().policy, engine.policy());
            assert_eq!(prepared.evaluate().unwrap().factor, reference.factor);
        }
    }

    /// A fully free path `ψ01 ψ12` whose plan puts `x1` — the variable both
    /// factors share — innermost, where its step spans every factor and is
    /// the output join: one-shot evaluation runs that σ, yet returns its
    /// columns in `q.free` order, equal to a run along the plan's σ realigned.
    #[test]
    fn planned_free_prefix_keeps_the_callers_columns() {
        let wide = (0..8u32).flat_map(|a| (0..8).map(move |b| (vec![a, b], 1u64))).collect();
        let q = FaqQuery::new(
            CountDomain,
            Domains::uniform(3, 8),
            vec![v(0), v(1), v(2)],
            vec![],
            vec![
                Factor::new(vec![v(0), v(1)], wide).unwrap(),
                Factor::new(vec![v(1), v(2)], vec![(vec![3, 6], 2u64)]).unwrap(),
            ],
        )
        .unwrap();
        let plan = Planner::sequential().plan(&q).unwrap();
        assert_eq!(plan.order, vec![v(0), v(2), v(1)], "the plan permutes the free prefix");
        let along_plan = Engine::sequential().evaluate_with_order(&q, &plan.order).unwrap();
        assert_eq!(along_plan.factor.schema(), &[v(0), v(2), v(1)]);
        for engine in [Engine::sequential(), Engine::new().threads(4).min_chunk_rows(1)] {
            let out = engine.evaluate(&q).unwrap();
            assert_eq!(out.factor.schema(), &q.free[..]);
            assert_eq!(out.factor, along_plan.factor.align_to(&q.free));
            assert_eq!(out.factor.len(), 8);
            assert_eq!(out.factor.get(&[5, 3, 6]), Some(&2));
        }
    }
}
