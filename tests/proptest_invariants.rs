//! Property-based tests (proptest) on the core data structures and the
//! semiring laws. InsideOut ≡ brute force is `tests/oracle.rs`'s property.

use faq::factor::Factor;
use faq::hypergraph::elim::EliminationSequence;
use faq::hypergraph::{Hypergraph, Var};
use faq::semiring::Semiring;
use proptest::prelude::*;

/// Strategy: a small factor over the given variables with dense-ish support.
fn factor_strategy(vars: Vec<Var>, dom: u32) -> impl Strategy<Value = Factor<u64>> {
    let space: usize = (dom as usize).pow(vars.len() as u32);
    proptest::collection::vec(0u64..5, space).prop_map(move |vals| {
        let mut tuples = Vec::new();
        let mut cur = vec![0u32; vars.len()];
        for v in vals {
            if v != 0 {
                tuples.push((cur.clone(), v));
            }
            for i in (0..vars.len()).rev() {
                cur[i] += 1;
                if cur[i] < dom {
                    break;
                }
                cur[i] = 0;
            }
        }
        Factor::new(vars.clone(), tuples).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Factor projection then re-projection is idempotent on the support.
    #[test]
    fn projection_idempotent(f in factor_strategy(vec![Var(0), Var(1), Var(2)], 3)) {
        let keep = [Var(0), Var(2)];
        let once = f.project_combine(&keep, |a, b| a + b, |&x| x == 0);
        let twice = once.project_combine(&keep, |a, b| a + b, |&x| x == 0);
        prop_assert_eq!(&once, &twice);
        // Sum of values is preserved by projection (no zeros can appear with
        // u64 addition of positives).
        let total: u64 = (0..f.len()).map(|i| *f.value(i)).sum();
        let ptotal: u64 = (0..once.len()).map(|i| *once.value(i)).sum();
        prop_assert_eq!(total, ptotal);
    }

    /// reorder() preserves the multiset of (tuple-as-map, value) pairs.
    #[test]
    fn reorder_preserves_content(f in factor_strategy(vec![Var(0), Var(1)], 3)) {
        let g = f.reorder(&[Var(1), Var(0)]);
        prop_assert_eq!(f.len(), g.len());
        for (row, val) in f.iter() {
            prop_assert_eq!(g.get(&[row[1], row[0]]), Some(val));
        }
    }

    /// The elimination sequence's U-sets cover each eliminated vertex's
    /// incident edges, and the fold rule only shrinks later hypergraphs.
    #[test]
    fn elimination_sequence_wellformed(
        edges in proptest::collection::vec(
            proptest::collection::btree_set(0u32..5, 1..=3),
            1..6,
        )
    ) {
        let mut h = Hypergraph::new();
        for i in 0..5u32 {
            h.add_vertex(Var(i));
        }
        for e in &edges {
            h.add_edge(e.iter().map(|&i| Var(i)));
        }
        let order: Vec<Var> = (0..5).map(Var).collect();
        let seq = EliminationSequence::new(&h, &order);
        for (k, vert) in order.iter().enumerate() {
            let u = seq.u_set(k);
            // Every edge of H_k incident to order[k] is inside U_k.
            for e in seq.edges_before(k) {
                if e.contains(vert) {
                    prop_assert!(e.is_subset(u));
                }
            }
        }
    }

    /// Semiring law spot-checks under proptest-driven values (CountSumProd).
    #[test]
    fn count_semiring_laws(a in 0u64..100, b in 0u64..100, c in 0u64..100) {
        let s = faq::semiring::CountSumProd;
        prop_assert_eq!(s.add(&a, &b), s.add(&b, &a));
        prop_assert_eq!(s.mul(&a, &s.add(&b, &c)), s.add(&s.mul(&a, &b), &s.mul(&a, &c)));
        prop_assert_eq!(s.mul(&a, &s.one()), a);
        prop_assert_eq!(s.mul(&a, &s.zero()), 0);
    }

    /// pow by repeated squaring equals iterated multiplication.
    #[test]
    fn pow_consistent(base in 0u64..5, k in 0u64..12) {
        let s = faq::semiring::CountSumProd;
        let mut expect = 1u64;
        for _ in 0..k {
            expect *= base;
        }
        prop_assert_eq!(s.pow(&base, k), expect);
    }
}
