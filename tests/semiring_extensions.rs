//! Extension features: provenance polynomials through the engine (factorized
//! databases connection, §2.2/§8.4) and non-semiring aggregates via carrier
//! lifting (Appendix B: `average` as the (sum, count) pair semiring).

use faq::core::{Engine, FaqQuery, VarAgg};
use faq::factor::{Domains, Factor};
use faq::hypergraph::Var;
use faq::semiring::ext::{avg_of, PairSemiring};
use faq::semiring::{F64SumProd, Polynomial, ProvenanceSemiring, SingleSemiringDomain};
use std::collections::BTreeMap;

/// A two-hop join where each input tuple carries its own indeterminate: the
/// output provenance enumerates the derivations, and evaluating the
/// polynomials under the counting homomorphism reproduces the join
/// multiplicities.
#[test]
fn provenance_polynomials_through_insideout() {
    let prov = ProvenanceSemiring;
    // R(x0,x1) = {(0,0)→x0, (0,1)→x1}, S(x1,x2) = {(0,5)→x2, (1,5)→x3}.
    let r = Factor::new(
        vec![Var(0), Var(1)],
        vec![(vec![0, 0], Polynomial::var(0)), (vec![0, 1], Polynomial::var(1))],
    )
    .unwrap();
    let s = Factor::new(
        vec![Var(1), Var(2)],
        vec![(vec![0, 5], Polynomial::var(2)), (vec![1, 5], Polynomial::var(3))],
    )
    .unwrap();
    // ϕ(x0) = Σ_{x1,x2} R·S  over ℕ[X].
    let q = FaqQuery::new(
        SingleSemiringDomain::new(prov),
        Domains::new(vec![1, 2, 6]),
        vec![Var(0)],
        vec![
            (Var(1), VarAgg::Semiring(SingleSemiringDomain::<ProvenanceSemiring>::OP)),
            (Var(2), VarAgg::Semiring(SingleSemiringDomain::<ProvenanceSemiring>::OP)),
        ],
        vec![r, s],
    )
    .unwrap();
    let out = Engine::sequential().evaluate(&q).unwrap().factor;
    assert_eq!(out.len(), 1);
    let p = out.get(&[0]).unwrap();
    // Derivations: x0·x2 (via x1=0) + x1·x3 (via x1=1).
    assert_eq!(p.num_terms(), 2);
    assert_eq!(p.degree(), 2);
    // Counting homomorphism: every tuple present once ⇒ multiplicity 2.
    let all_ones: BTreeMap<u32, u64> = (0..4).map(|i| (i, 1u64)).collect();
    assert_eq!(p.eval(&all_ones, 0), 2);
    // Deleting tuple x1 (set it to 0) kills one derivation.
    let mut minus: BTreeMap<u32, u64> = all_ones.clone();
    minus.insert(1, 0);
    assert_eq!(p.eval(&minus, 0), 1);
    println!("provenance of output (0): {p}");
}

/// Appendix B: `average` is not a semiring aggregate on ℝ, but it is the
/// projection of the `(sum, count)` pair semiring. Compute a grouped average
/// through the engine.
#[test]
fn average_aggregate_via_pair_semiring() {
    let pair = PairSemiring::new(F64SumProd, F64SumProd);
    // scores(student, score-bucket) with values (score, 1) pairs.
    let scores = Factor::new(
        vec![Var(0), Var(1)],
        vec![
            (vec![0, 0], (80.0, 1.0)),
            (vec![0, 1], (90.0, 1.0)),
            (vec![0, 2], (100.0, 1.0)),
            (vec![1, 0], (60.0, 1.0)),
            (vec![1, 1], (70.0, 1.0)),
        ],
    )
    .unwrap();
    // ϕ(student) = Σ_{bucket} scores — accumulating (sum, count).
    let q = FaqQuery::new(
        SingleSemiringDomain::new(pair),
        Domains::new(vec![2, 3]),
        vec![Var(0)],
        vec![(
            Var(1),
            VarAgg::Semiring(SingleSemiringDomain::<PairSemiring<F64SumProd, F64SumProd>>::OP),
        )],
        vec![scores],
    )
    .unwrap();
    let out = Engine::sequential().evaluate(&q).unwrap().factor;
    assert_eq!(avg_of(out.get(&[0]).unwrap()), Some(90.0));
    assert_eq!(avg_of(out.get(&[1]).unwrap()), Some(65.0));
}

/// The pair-semiring laws survive the engine: sums and counts accumulated
/// through InsideOut match independently computed totals.
#[test]
fn pair_semiring_totals_match_components() {
    let pair = PairSemiring::new(F64SumProd, F64SumProd);
    let data: Vec<(Vec<u32>, (f64, f64))> =
        (0..12u32).map(|i| (vec![i % 3, i / 3], ((i as f64) * 1.5, 1.0))).collect();
    let f = Factor::new(vec![Var(0), Var(1)], data.clone()).unwrap();
    let q = FaqQuery::new(
        SingleSemiringDomain::new(pair),
        Domains::new(vec![3, 4]),
        vec![],
        vec![
            (
                Var(0),
                VarAgg::Semiring(SingleSemiringDomain::<PairSemiring<F64SumProd, F64SumProd>>::OP),
            ),
            (
                Var(1),
                VarAgg::Semiring(SingleSemiringDomain::<PairSemiring<F64SumProd, F64SumProd>>::OP),
            ),
        ],
        vec![f],
    )
    .unwrap();
    let out = Engine::sequential().evaluate(&q).unwrap();
    let (sum, count) = out.scalar().copied().unwrap();
    let expect_sum: f64 = data.iter().map(|(_, (s, _))| s).sum();
    assert!((sum - expect_sum).abs() < 1e-9);
    assert_eq!(count, 12.0);
}

/// The set semiring through the engine: union/intersection provenance of a
/// Boolean-style query.
#[test]
fn set_semiring_union_intersection() {
    use faq::semiring::SetSemiring;
    let s = SetSemiring::new(8);
    let set = |ids: &[u32]| ids.iter().copied().collect::<std::collections::BTreeSet<u32>>();
    let r = Factor::new(vec![Var(0)], vec![(vec![0], set(&[0, 1, 2])), (vec![1], set(&[3, 4]))])
        .unwrap();
    let t = Factor::new(vec![Var(0)], vec![(vec![0], set(&[1, 2, 5])), (vec![1], set(&[4, 6]))])
        .unwrap();
    // ϕ = ⋃_{x0} (R(x0) ∩ T(x0)).
    let q = FaqQuery::new(
        SingleSemiringDomain::new(s),
        Domains::uniform(1, 2),
        vec![],
        vec![(Var(0), VarAgg::Semiring(SingleSemiringDomain::<SetSemiring>::OP))],
        vec![r, t],
    )
    .unwrap();
    let out = Engine::sequential().evaluate(&q).unwrap();
    assert_eq!(out.scalar().cloned(), Some(set(&[1, 2, 4])));
}
