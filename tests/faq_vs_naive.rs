//! The central correctness property: InsideOut ≡ the naive evaluator on
//! randomized FAQ instances, across semirings, aggregate mixes, free-variable
//! configurations and equivalent orderings.

use faq::core::evo::is_equivalent_ordering;
use faq::core::width::faqw_optimize;
use faq::core::{naive_eval, Engine, FaqQuery, VarAgg};
use faq::factor::{Domains, Factor};
use faq::hypergraph::Var;
use faq::semiring::{BoolDomain, CountDomain, RealDomain};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random sparse factor over `vars` with values in `1..=4`.
fn random_count_factor(rng: &mut StdRng, vars: &[Var], dom: u32, density: f64) -> Factor<u64> {
    let mut tuples = Vec::new();
    let mut cur = vec![0u32; vars.len()];
    loop {
        if rng.gen_bool(density) {
            tuples.push((cur.clone(), rng.gen_range(1..=4u64)));
        }
        let mut i = vars.len();
        let done = loop {
            if i == 0 {
                break true;
            }
            i -= 1;
            cur[i] += 1;
            if cur[i] < dom {
                break false;
            }
            cur[i] = 0;
        };
        if done {
            break;
        }
    }
    Factor::new(vars.to_vec(), tuples).unwrap()
}

fn random_bool_factor(rng: &mut StdRng, vars: &[Var], dom: u32, density: f64) -> Factor<bool> {
    let f = random_count_factor(rng, vars, dom, density);
    Factor::new(vars.to_vec(), f.iter().map(|(row, _)| (row.to_vec(), true)).collect()).unwrap()
}

#[test]
fn random_count_queries_all_aggregate_mixes() {
    let mut rng = StdRng::seed_from_u64(20160626);
    for round in 0..60 {
        let n_vars = rng.gen_range(3..6usize);
        let dom = rng.gen_range(2..4u32);
        let domains = Domains::uniform(n_vars, dom);
        let n_free = rng.gen_range(0..=1usize);
        let free: Vec<Var> = (0..n_free as u32).map(Var).collect();
        let aggs = [
            VarAgg::Semiring(CountDomain::SUM),
            VarAgg::Semiring(CountDomain::MAX),
            VarAgg::Product,
        ];
        let bound: Vec<(Var, VarAgg)> =
            (n_free as u32..n_vars as u32).map(|i| (Var(i), aggs[rng.gen_range(0..3)])).collect();
        // Random chain + one extra random binary factor, guaranteeing
        // coverage of every variable.
        let mut factors = Vec::new();
        for i in 0..n_vars - 1 {
            factors.push(random_count_factor(
                &mut rng,
                &[Var(i as u32), Var(i as u32 + 1)],
                dom,
                0.7,
            ));
        }
        let a = rng.gen_range(0..n_vars as u32);
        let b = (a + 1 + rng.gen_range(0..n_vars as u32 - 1)) % n_vars as u32;
        if a != b {
            factors.push(random_count_factor(&mut rng, &[Var(a.min(b)), Var(a.max(b))], dom, 0.5));
        }
        let q = FaqQuery::new(CountDomain, domains, free, bound, factors).unwrap();
        let expect = naive_eval(&q);
        let got = Engine::sequential().evaluate(&q).unwrap();
        assert_eq!(got.factor, expect, "round {round}: {q:?}");
    }
}

#[test]
fn random_real_queries_with_free_variables() {
    let mut rng = StdRng::seed_from_u64(777);
    for _ in 0..40 {
        let dom = 3u32;
        let domains = Domains::uniform(4, dom);
        let mk = |rng: &mut StdRng, a: u32, b: u32| {
            let f = random_count_factor(rng, &[Var(a), Var(b)], dom, 0.6);
            Factor::new(
                vec![Var(a), Var(b)],
                f.iter().map(|(row, v)| (row.to_vec(), *v as f64 * 0.25)).collect(),
            )
            .unwrap()
        };
        let factors = vec![mk(&mut rng, 0, 1), mk(&mut rng, 1, 2), mk(&mut rng, 2, 3)];
        let q = FaqQuery::new(
            RealDomain,
            domains,
            vec![Var(0), Var(1)],
            vec![
                (Var(2), VarAgg::Semiring(RealDomain::SUM)),
                (Var(3), VarAgg::Semiring(RealDomain::MAX)),
            ],
            factors,
        )
        .unwrap();
        let expect = naive_eval(&q);
        let got = Engine::sequential().evaluate(&q).unwrap();
        assert_eq!(got.factor.len(), expect.len());
        for (row, val) in expect.iter() {
            let g = got.factor.get(row).unwrap_or_else(|| panic!("missing {row:?}"));
            assert!((g - val).abs() < 1e-9 * (1.0 + val.abs()), "{row:?}: {g} vs {val}");
        }
    }
}

#[test]
fn width_optimized_orderings_stay_correct() {
    let mut rng = StdRng::seed_from_u64(31337);
    for _ in 0..25 {
        let dom = 2u32;
        let domains = Domains::uniform(5, dom);
        let factors = vec![
            random_bool_factor(&mut rng, &[Var(0), Var(1)], dom, 0.7),
            random_bool_factor(&mut rng, &[Var(1), Var(2)], dom, 0.7),
            random_bool_factor(&mut rng, &[Var(2), Var(3)], dom, 0.7),
            random_bool_factor(&mut rng, &[Var(3), Var(4)], dom, 0.7),
            random_bool_factor(&mut rng, &[Var(0), Var(4)], dom, 0.7),
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

#[test]
fn every_linex_ordering_evaluates_identically() {
    let mut rng = StdRng::seed_from_u64(4242);
    for _ in 0..15 {
        let dom = 2u32;
        let domains = Domains::uniform(4, dom);
        let factors = vec![
            random_count_factor(&mut rng, &[Var(0), Var(1)], dom, 0.8),
            random_count_factor(&mut rng, &[Var(1), Var(2)], dom, 0.8),
            random_count_factor(&mut rng, &[Var(2), Var(3)], dom, 0.8),
        ];
        let q = FaqQuery::new(
            CountDomain,
            domains,
            vec![],
            vec![
                (Var(0), VarAgg::Semiring(CountDomain::SUM)),
                (Var(1), VarAgg::Semiring(CountDomain::MAX)),
                (Var(2), VarAgg::Semiring(CountDomain::SUM)),
                (Var(3), VarAgg::Semiring(CountDomain::MAX)),
            ],
            factors,
        )
        .unwrap();
        let expect = naive_eval(&q);
        let (linex, complete) = faq::core::evo::linear_extensions(&q.shape(), 1_000);
        assert!(complete);
        for sigma in linex {
            let got = Engine::sequential().evaluate_with_order(&q, &sigma).unwrap();
            assert_eq!(got.factor, expect, "ordering {sigma:?}");
        }
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
                let mut tuples = Vec::new();
                let mut cur = vec![0u32; vars.len()];
                loop {
                    if rng.gen_bool(0.8) {
                        tuples.push((cur.clone(), 1u64));
                    }
                    let mut i = vars.len();
                    let done = loop {
                        if i == 0 {
                            break true;
                        }
                        i -= 1;
                        cur[i] += 1;
                        if cur[i] < dom {
                            break false;
                        }
                        cur[i] = 0;
                    };
                    if done {
                        break;
                    }
                }
                Factor::new(vars, tuples).unwrap()
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

#[test]
fn boolean_queries_roundtrip() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..30 {
        let dom = 3u32;
        let domains = Domains::uniform(3, dom);
        let factors = vec![
            random_bool_factor(&mut rng, &[Var(0), Var(1)], dom, 0.5),
            random_bool_factor(&mut rng, &[Var(1), Var(2)], dom, 0.5),
        ];
        let q = FaqQuery::new(
            BoolDomain,
            domains,
            vec![Var(0)],
            vec![(Var(1), VarAgg::Semiring(BoolDomain::OR)), (Var(2), VarAgg::Product)],
            factors,
        )
        .unwrap();
        assert_eq!(Engine::sequential().evaluate(&q).unwrap().factor, naive_eval(&q));
    }
}
