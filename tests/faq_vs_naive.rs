//! InsideOut ≡ the naive evaluator on two shapes the engine's oracle
//! (`tests/oracle.rs`, which crosses random instances with every semiring
//! family, aggregate mix, free-variable count and ordering) does not draw:
//! the orderings the width optimizer picks on a 5-cycle, and Example 6.19's
//! hypergraph with its interleaved products.

use faq::core::evo::is_equivalent_ordering;
use faq::core::width::faqw_optimize;
use faq::core::{naive_eval, Engine, FaqQuery, VarAgg};
use faq::factor::{Domains, Factor};
use faq::hypergraph::Var;
use faq::semiring::{BoolDomain, CountDomain, SemiringElem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random factor over `vars`, each of domain `dom`: every cell of the box,
/// in row-major order, is present with probability `density` and valued
/// `value`.
fn random_factor<E: SemiringElem>(
    rng: &mut StdRng,
    vars: &[Var],
    dom: u32,
    density: f64,
    value: E,
) -> Factor<E> {
    let arity = vars.len() as u32;
    let cells = (0..dom.pow(arity)).filter(|_| rng.gen_bool(density));
    let row = |c: u32| (0..arity).rev().map(|i| c / dom.pow(i) % dom).collect();
    Factor::new(vars.to_vec(), cells.map(|c| (row(c), value.clone())).collect()).unwrap()
}

#[test]
fn width_optimized_orderings_stay_correct() {
    let mut rng = StdRng::seed_from_u64(31337);
    for _ in 0..25 {
        let dom = 2u32;
        let domains = Domains::uniform(5, dom);
        let factors = vec![
            random_factor(&mut rng, &[Var(0), Var(1)], dom, 0.7, true),
            random_factor(&mut rng, &[Var(1), Var(2)], dom, 0.7, true),
            random_factor(&mut rng, &[Var(2), Var(3)], dom, 0.7, true),
            random_factor(&mut rng, &[Var(3), Var(4)], dom, 0.7, true),
            random_factor(&mut rng, &[Var(0), Var(4)], dom, 0.7, true),
        ];
        let aggs = [VarAgg::Semiring(BoolDomain::OR), VarAgg::Product];
        let bound: Vec<(Var, VarAgg)> =
            (0..5u32).map(|i| (Var(i), aggs[rng.gen_range(0..2)])).collect();
        let q = FaqQuery::new(BoolDomain, domains, vec![], bound, factors).unwrap();
        let expect = naive_eval(&q);
        let shape = q.shape();
        let best = faqw_optimize(&shape, 2_000, 12).unwrap();
        assert!(
            is_equivalent_ordering(&shape, &best.order),
            "optimizer returned non-equivalent ordering {:?}",
            best.order
        );
        let got = Engine::sequential().evaluate_with_order(&q, &best.order).unwrap();
        assert_eq!(got.factor, expect);
    }
}

/// The Example 6.19 hypergraph shape (products interleaved with max/Σ,
/// variable copies in the expression tree) with random `{0,1}` factors:
/// InsideOut along every small LinEx ordering must match naive evaluation.
#[test]
fn example_6_19_shape_random_instances() {
    let mut rng = StdRng::seed_from_u64(61919);
    let edges: [&[u32]; 9] =
        [&[1, 3], &[2, 4], &[3, 4], &[1, 5], &[1, 6], &[2, 6], &[2, 5, 7], &[1, 6, 7], &[2, 7, 8]];
    for round in 0..10 {
        let dom = 2u32;
        let mut domains_sizes = vec![1u32]; // Var(0) unused
        domains_sizes.extend(std::iter::repeat_n(dom, 8));
        let factors: Vec<Factor<u64>> = edges
            .iter()
            .map(|schema| {
                let vars: Vec<Var> = schema.iter().map(|&i| Var(i)).collect();
                random_factor(&mut rng, &vars, dom, 0.8, 1u64)
            })
            .collect();
        let q = FaqQuery::new(
            CountDomain,
            Domains::new(domains_sizes),
            vec![],
            vec![
                (Var(1), VarAgg::Semiring(CountDomain::MAX)),
                (Var(2), VarAgg::Semiring(CountDomain::MAX)),
                (Var(3), VarAgg::Semiring(CountDomain::SUM)),
                (Var(4), VarAgg::Semiring(CountDomain::SUM)),
                (Var(5), VarAgg::Product),
                (Var(6), VarAgg::Semiring(CountDomain::MAX)),
                (Var(7), VarAgg::Product),
                (Var(8), VarAgg::Semiring(CountDomain::MAX)),
            ],
            factors,
        )
        .unwrap();
        let expect = naive_eval(&q);
        // Original order.
        assert_eq!(
            Engine::sequential().evaluate(&q).unwrap().factor,
            expect,
            "round {round}: input order"
        );
        // A handful of LinEx orderings under the idempotent promise.
        let shape = q.shape_promising_idempotent_inputs();
        let (linex, _) = faq::core::evo::linear_extensions(&shape, 12);
        for sigma in linex {
            let got = Engine::sequential().evaluate_with_order(&q, &sigma).unwrap();
            assert_eq!(got.factor, expect, "round {round}: ordering {sigma:?}");
        }
    }
}
