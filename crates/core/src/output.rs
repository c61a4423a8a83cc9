//! Output representations beyond the listing (paper §8.4).
//!
//! After InsideOut has eliminated all bound variables and recorded the free
//! variable guards, the output is already determined *without* materializing
//! it: the value factors of `E_f` give `ϕ(x) = ⊗_S ψ_S(x_S)`, and the guard
//! factors `ψ_{U_k}` certify which bindings extend to output tuples. This is
//! the paper's "O~(1)-delay enumeration representation":
//!
//! * [`FactorizedOutput::value_query`] answers `ϕ(y)` in `O~(1)` lookups;
//! * [`FactorizedOutput::for_each`] enumerates the output without ever
//!   visiting a dead branch (each backtracking step is supported by the
//!   guards, so the delay between consecutive tuples is `O~(1)` in the query
//!   size). It runs the one leapfrog kernel the engine's output join runs,
//!   which counts its seeks and polls the deadline and cancel controls;
//! * [`FactorizedOutput::materialize`] recovers the listing representation.

use crate::insideout::{run_elimination, EliminationArtifacts};
use crate::query::{FaqError, FaqQuery};
use faq_factor::{Domains, Factor};
use faq_hypergraph::Var;
use faq_join::{multiway_join_range_rep, JoinInput, JoinRep};
use faq_semiring::{AggDomain, SemiringElem};

/// The factorized output of a FAQ query (guards + value factors).
#[derive(Debug, Clone)]
pub struct FactorizedOutput<E: SemiringElem> {
    /// Free variables in output order.
    pub free_order: Vec<Var>,
    /// Value factors over subsets of the free variables.
    pub value_factors: Vec<Factor<E>>,
    /// Guard (indicator) factors over subsets of the free variables.
    pub guards: Vec<Factor<E>>,
    domains: Domains,
}

impl<E: SemiringElem> FactorizedOutput<E> {
    /// Build the factorized output by running InsideOut phases 1–2.
    pub fn compute<D: AggDomain<E = E> + Sync>(q: &FaqQuery<D>) -> Result<Self, FaqError> {
        let sigma = q.ordering();
        Self::compute_with_order(q, &sigma)
    }

    /// Build the factorized output along a chosen equivalent ordering.
    pub(crate) fn compute_with_order<D: AggDomain<E = E> + Sync>(
        q: &FaqQuery<D>,
        sigma: &[Var],
    ) -> Result<Self, FaqError> {
        let EliminationArtifacts { free_order, ef_edges, guards } = run_elimination(q, sigma)?;
        Ok(FactorizedOutput {
            free_order,
            value_factors: ef_edges,
            guards,
            domains: q.domains.clone(),
        })
    }

    /// `ϕ(y)` for a full free-variable binding `y` (aligned with
    /// `free_order`). Returns `None` when the value is the semiring zero.
    pub fn value_query(&self, y: &[u32], one: E, mut mul: impl FnMut(&E, &E) -> E) -> Option<E> {
        assert_eq!(y.len(), self.free_order.len());
        let mut acc = one;
        for f in &self.value_factors {
            let key: Vec<u32> = f
                .schema()
                .iter()
                .map(|v| {
                    let pos = self.free_order.iter().position(|o| o == v).expect("free var");
                    y[pos]
                })
                .collect();
            match f.get_cloned(&key) {
                Some(val) => acc = mul(&acc, &val),
                None => return None,
            }
        }
        Some(acc)
    }

    /// Enumerate all output tuples (with values) in lexicographic order of
    /// the free ordering, without materializing the result.
    pub fn for_each(
        &self,
        one: E,
        mut mul: impl FnMut(&E, &E) -> E,
        mut is_zero: impl FnMut(&E) -> bool,
        mut cb: impl FnMut(&[u32], E),
    ) {
        let mut inputs: Vec<JoinInput<'_, E>> = Vec::new();
        for f in &self.value_factors {
            inputs.push(JoinInput::value(f));
        }
        for g in &self.guards {
            inputs.push(JoinInput::filter(g));
        }
        multiway_join_range_rep(
            JoinRep::Trie,
            &self.domains,
            &self.free_order,
            &inputs,
            (0, u32::MAX),
            one,
            &mut mul,
            |b, val| {
                if !is_zero(&val) {
                    cb(b, val);
                }
            },
        );
    }

    /// Materialize the listing representation.
    pub fn materialize(
        &self,
        one: E,
        mul: impl FnMut(&E, &E) -> E,
        is_zero: impl FnMut(&E) -> bool,
    ) -> Factor<E> {
        let mut rows: Vec<(Vec<u32>, E)> = Vec::new();
        self.for_each(one, mul, is_zero, |b, val| rows.push((b.to_vec(), val)));
        Factor::new(self.free_order.clone(), rows).expect("join emits distinct bindings")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::query::VarAgg;
    use faq_hypergraph::v;
    use faq_semiring::CountDomain;

    fn sample() -> FaqQuery<CountDomain> {
        let f01 = Factor::new(
            vec![v(0), v(1)],
            vec![(vec![0, 0], 1u64), (vec![0, 1], 2), (vec![1, 0], 3), (vec![2, 1], 4)],
        )
        .unwrap();
        let f12 = Factor::new(
            vec![v(1), v(2)],
            vec![(vec![0, 0], 5u64), (vec![1, 1], 6), (vec![1, 2], 7)],
        )
        .unwrap();
        FaqQuery::new(
            CountDomain,
            Domains::new(vec![3, 2, 3]),
            vec![v(0), v(1)],
            vec![(v(2), VarAgg::Semiring(CountDomain::SUM))],
            vec![f01, f12],
        )
        .unwrap()
    }

    #[test]
    fn factorized_matches_materialized() {
        let q = sample();
        let direct = Engine::sequential().evaluate(&q).unwrap().factor;
        let fo = FactorizedOutput::compute(&q).unwrap();
        let mat = fo.materialize(1u64, |a, b| a * b, |&x| x == 0);
        assert_eq!(mat, direct);
    }

    /// The listing of a dense triangle fuses its free steps into the output
    /// join; the factorized form keeps every guard, and enumerating it gives
    /// that listing.
    #[test]
    fn dense_triangle_keeps_its_guards() {
        let edges = |a: u32, b: u32, skip: u32| {
            let rows = (0..64u32)
                .map(|i| (i / 8, i % 8))
                .filter(|&(x, y)| (x * 3 + y) % skip != 0)
                .map(|(x, y)| (vec![x, y], u64::from(x + y) + 1))
                .collect();
            Factor::new(vec![v(a), v(b)], rows).unwrap()
        };
        let q = FaqQuery::new(
            CountDomain,
            Domains::uniform(3, 8),
            vec![v(0), v(1), v(2)],
            vec![],
            vec![edges(0, 1, 5), edges(1, 2, 4), edges(0, 2, 7)],
        )
        .unwrap();
        let listing = Engine::sequential().evaluate(&q).unwrap();
        assert!(listing.stats.steps.is_empty(), "the listing ran no guard step");
        let fo = FactorizedOutput::compute(&q).unwrap();
        assert_eq!(fo.guards.len(), 3);
        assert_eq!(fo.materialize(1u64, |a, b| a * b, |&x| x == 0), listing.factor);
        let mut rows: Vec<(Vec<u32>, u64)> = Vec::new();
        fo.for_each(1u64, |a, b| a * b, |&x| x == 0, |b, val| rows.push((b.to_vec(), val)));
        let want: Vec<(Vec<u32>, u64)> =
            listing.factor.iter().map(|(r, &val)| (r.to_vec(), val)).collect();
        assert!(!want.is_empty());
        assert_eq!(rows, want);
    }

    #[test]
    fn value_queries() {
        let q = sample();
        let fo = FactorizedOutput::compute(&q).unwrap();
        let direct = Engine::sequential().evaluate(&q).unwrap().factor;
        for x0 in 0..3u32 {
            for x1 in 0..2u32 {
                let expect = direct.get(&[x0, x1]).copied();
                let got = fo.value_query(&[x0, x1], 1u64, |a, b| a * b);
                assert_eq!(got, expect, "({x0},{x1})");
            }
        }
    }

    /// A spilled factor over free variables only survives into `E_f`, and
    /// a value query reads it through the lookup that serves either backing.
    #[test]
    fn value_query_reads_a_spilled_value_factor() {
        let mut q = sample();
        let f0 = Factor::new(vec![v(0)], vec![(vec![0], 2u64), (vec![2], 3)]).unwrap();
        q.factors
            .push(f0.to_spilled(faq_factor::SpillConfig { chunk_rows: 1, ..Default::default() }));
        let fo = FactorizedOutput::compute(&q).unwrap();
        assert!(fo.value_factors.iter().any(Factor::is_spilled));
        let direct = Engine::sequential().evaluate(&q).unwrap().factor;
        for x0 in 0..3u32 {
            for x1 in 0..2u32 {
                let expect = direct.get(&[x0, x1]).copied();
                assert_eq!(fo.value_query(&[x0, x1], 1u64, |a, b| a * b), expect, "({x0},{x1})");
            }
        }
    }

    #[test]
    fn enumeration_is_sorted_and_complete() {
        let q = sample();
        let fo = FactorizedOutput::compute(&q).unwrap();
        let mut keys: Vec<Vec<u32>> = Vec::new();
        fo.for_each(1u64, |a, b| a * b, |&x| x == 0, |b, _| keys.push(b.to_vec()));
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), Engine::sequential().evaluate(&q).unwrap().factor.len());
    }

    /// Every binding `for_each` enumerates, with its value.
    fn collect(fo: &FactorizedOutput<u64>) -> Vec<(Vec<u32>, u64)> {
        let mut out: Vec<(Vec<u32>, u64)> = Vec::new();
        fo.for_each(1u64, |a, b| a * b, |&x| x == 0, |b, val| out.push((b.to_vec(), val)));
        out
    }

    #[test]
    fn streaming_iterator_empty_output() {
        // An unsatisfiable query enumerates nothing.
        let f = Factor::new(vec![v(0)], vec![(vec![0], 1u64)]).unwrap();
        let g = Factor::new(vec![v(0)], vec![(vec![1], 1u64)]).unwrap();
        let q = FaqQuery::new(CountDomain, Domains::uniform(1, 2), vec![v(0)], vec![], vec![f, g])
            .unwrap();
        assert_eq!(collect(&FactorizedOutput::compute(&q).unwrap()), vec![]);
    }

    #[test]
    fn streaming_iterator_nullary_query() {
        // f = 0 free variables: the empty binding is enumerated exactly once
        // when the scalar is non-zero.
        let f = Factor::new(vec![v(0)], vec![(vec![0], 2u64)]).unwrap();
        let q = FaqQuery::new(
            CountDomain,
            Domains::uniform(1, 2),
            vec![],
            vec![(v(0), VarAgg::Semiring(CountDomain::SUM))],
            vec![f],
        )
        .unwrap();
        assert_eq!(collect(&FactorizedOutput::compute(&q).unwrap()), vec![(vec![], 2)]);
    }
}
