//! Property tests: the parallel InsideOut engine is bit-identical to the
//! sequential engine.
//!
//! Random queries over three semiring families — counting (`ℕ, +, ×`),
//! max-tropical (`ℝ ∪ {−∞}, max, +`) and boolean (`∨, ∧`) — are evaluated
//! with `Engine::sequential()` and with `Engine::with_policy` under every combination of
//! thread count ∈ {1, 2, 4} and adversarial `min_chunk_rows` ∈
//! {0, 1, 3, usize::MAX}; the output factors must be equal bit for bit.
//! Aggregate mixes include product (`⊗`) variables and free variables, so the
//! guard phase and the final output join are exercised too.

use faq::core::{Engine, ExecPolicy, FaqQuery, VarAgg};
use faq::factor::{Domains, Factor};
use faq::hypergraph::Var;
use faq::semiring::{AggDomain, BoolDomain, CountDomain, MaxPlus, SingleSemiringDomain};
use proptest::prelude::*;

mod common;
use common::{pairs_factor, skeleton, DOM};

/// Thread counts × adversarial chunk floors under test.
fn policies() -> Vec<ExecPolicy> {
    let mut out = Vec::new();
    for threads in [1usize, 2, 4] {
        for min_chunk_rows in [0usize, 1, 3, usize::MAX] {
            out.push(ExecPolicy::sequential().threads(threads).min_chunk_rows(min_chunk_rows));
        }
    }
    out
}

/// Assert a parallel engine ≡ the sequential engine for every policy.
fn assert_par_equivalent<D: AggDomain + Sync>(q: &FaqQuery<D>) {
    let seq = Engine::sequential().evaluate(q).unwrap();
    for policy in policies() {
        let par = Engine::with_policy(policy.clone()).evaluate(q).unwrap();
        assert_eq!(
            par.factor, seq.factor,
            "parallel output diverged under threads={} min_chunk_rows={}",
            policy.threads, policy.min_chunk_rows
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Counting semiring (`#CQ`-style): sum / max / product aggregate mixes.
    #[test]
    fn counting_par_equals_seq(
        s01 in proptest::collection::vec(0u32..3, (DOM * DOM) as usize),
        s12 in proptest::collection::vec(0u32..3, (DOM * DOM) as usize),
        s02 in proptest::collection::vec(0u32..3, (DOM * DOM) as usize),
        aggs in proptest::collection::vec(0usize..3, 3),
        free in 0usize..3,
    ) {
        let f01 = pairs_factor(0, 1, &s01, |i| s01[i] as u64);
        let f12 = pairs_factor(1, 2, &s12, |i| s12[i] as u64);
        let f02 = pairs_factor(0, 2, &s02, |i| s02[i] as u64);
        let (free_vars, bound) = skeleton(free, &aggs, |a| match a {
            0 => VarAgg::Semiring(CountDomain::SUM),
            1 => VarAgg::Semiring(CountDomain::MAX),
            _ => VarAgg::Product,
        });
        let q = FaqQuery::new(
            CountDomain,
            Domains::uniform(3, DOM),
            free_vars,
            bound,
            vec![f01, f12, f02],
        ).unwrap();
        assert_par_equivalent(&q);
    }

    /// Max-tropical semiring (MAP in log space): max / + aggregate mixes on
    /// an f64 carrier — the family where fold re-association would show up
    /// as bit-level drift.
    #[test]
    fn max_tropical_par_equals_seq(
        s01 in proptest::collection::vec(0u32..4, (DOM * DOM) as usize),
        s12 in proptest::collection::vec(0u32..4, (DOM * DOM) as usize),
        aggs in proptest::collection::vec(0usize..2, 3),
        free in 0usize..3,
    ) {
        let val = |s: &[u32]| {
            let s = s.to_vec();
            move |i: usize| s[i] as f64 * 0.25
        };
        let f01 = pairs_factor(0, 1, &s01, val(&s01));
        let f12 = pairs_factor(1, 2, &s12, val(&s12));
        let (free_vars, bound) = skeleton(free, &aggs, |a| match a {
            0 => VarAgg::Semiring(SingleSemiringDomain::<MaxPlus>::OP),
            _ => VarAgg::Product,
        });
        let q = FaqQuery::new(
            SingleSemiringDomain::new(MaxPlus),
            Domains::uniform(3, DOM),
            free_vars,
            bound,
            vec![f01, f12],
        ).unwrap();
        assert_par_equivalent(&q);
    }

    /// Boolean semiring (QCQ): ∃ / ∀ quantifier mixes.
    #[test]
    fn boolean_par_equals_seq(
        s01 in proptest::collection::vec(0u32..2, (DOM * DOM) as usize),
        s12 in proptest::collection::vec(0u32..2, (DOM * DOM) as usize),
        s02 in proptest::collection::vec(0u32..2, (DOM * DOM) as usize),
        aggs in proptest::collection::vec(0usize..2, 3),
        free in 0usize..3,
    ) {
        let f01 = pairs_factor(0, 1, &s01, |_| true);
        let f12 = pairs_factor(1, 2, &s12, |_| true);
        let f02 = pairs_factor(0, 2, &s02, |_| true);
        let (free_vars, bound) = skeleton(free, &aggs, |a| match a {
            0 => VarAgg::Semiring(BoolDomain::OR),
            _ => VarAgg::Product,
        });
        let q = FaqQuery::new(
            BoolDomain,
            Domains::uniform(3, DOM),
            free_vars,
            bound,
            vec![f01, f12, f02],
        ).unwrap();
        assert_par_equivalent(&q);
    }
}

/// Larger single-shot case: enough rows that the default chunk floor engages
/// and every thread count actually chunks.
#[test]
fn large_counting_query_chunks_for_real() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut r = StdRng::seed_from_u64(2024);
    let d = 64u32;
    let mut mk = |a: u32, b: u32| {
        let mut tuples = std::collections::BTreeMap::new();
        for _ in 0..3000 {
            tuples.insert(vec![r.gen_range(0..d), r.gen_range(0..d)], r.gen_range(1..5u64));
        }
        Factor::new(vec![Var(a), Var(b)], tuples.into_iter().collect()).unwrap()
    };
    let q = FaqQuery::new(
        CountDomain,
        Domains::uniform(3, d),
        vec![Var(0)],
        vec![
            (Var(1), VarAgg::Semiring(CountDomain::SUM)),
            (Var(2), VarAgg::Semiring(CountDomain::MAX)),
        ],
        vec![mk(0, 1), mk(1, 2), mk(0, 2)],
    )
    .unwrap();
    let seq = Engine::sequential().evaluate(&q).unwrap();
    for threads in [2usize, 4, 8] {
        let par = Engine::with_policy(ExecPolicy::with_threads(threads)).evaluate(&q).unwrap();
        assert_eq!(par.factor, seq.factor, "threads {threads}");
    }
}
