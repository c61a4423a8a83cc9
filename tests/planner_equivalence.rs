//! The planner's edge-case suite and the degenerate-query panic
//! regressions. Cost-based plans are a pure performance choice — outputs are
//! bit-identical to the sequential InsideOut engine — and the random
//! instances that show it for every semiring family, thread count and
//! ordering are `tests/oracle.rs`'s; these are the named cases:
//!
//! 1. **Edge cases** — empty factors, single-row factors and
//!    single-variable queries through `common::oracle`'s
//!    `assert_plan_equivalent` (chunking planners with threads ∈ {1, 2, 4},
//!    every admission budget); thread counts that choose plans but not
//!    results; plans that never cross domains.
//! 2. **Regressions** — the two former panic paths (a free variable covered
//!    by no edge; all-nullary inputs) now surface as
//!    `FaqError::Uncoverable` from the width API while evaluation —
//!    sequential, parallel, and planned — keeps working.

use faq::core::width::{faqw_exact, faqw_of_ordering};
use faq::core::{naive_eval, ElimStats, Engine};
use faq::core::{ExecPolicy, FaqError, FaqQuery, Planner, VarAgg};
use faq::factor::{Domains, Factor};
use faq::hypergraph::Var;
use faq::semiring::{AggDomain, BoolDomain, CountDomain};

mod common;
use common::oracle::assert_plan_equivalent;
use common::{random_triangle, DOM};

// ---- Edge cases ------------------------------------------------------------

#[test]
fn empty_factor_plans_to_empty_output() {
    let empty = Factor::<u64>::new(vec![Var(0), Var(1)], vec![]).unwrap();
    let other =
        Factor::new(vec![Var(1), Var(2)], vec![(vec![0, 0], 2u64), (vec![1, 2], 3)]).unwrap();
    let q = FaqQuery::new(
        CountDomain,
        Domains::uniform(3, DOM),
        vec![Var(0)],
        vec![
            (Var(1), VarAgg::Semiring(CountDomain::SUM)),
            (Var(2), VarAgg::Semiring(CountDomain::SUM)),
        ],
        vec![empty, other],
    )
    .unwrap();
    assert_plan_equivalent(&q);
    let out = Planner::sequential().prepare(&q).unwrap().evaluate().unwrap();
    assert!(out.factor.is_empty());
}

#[test]
fn single_row_factors_plan_and_evaluate() {
    let f01 = Factor::new(vec![Var(0), Var(1)], vec![(vec![1, 2], 5u64)]).unwrap();
    let f12 = Factor::new(vec![Var(1), Var(2)], vec![(vec![2, 3], 7u64)]).unwrap();
    let q = FaqQuery::new(
        CountDomain,
        Domains::uniform(3, DOM),
        vec![Var(0)],
        vec![
            (Var(1), VarAgg::Semiring(CountDomain::SUM)),
            (Var(2), VarAgg::Semiring(CountDomain::MAX)),
        ],
        vec![f01, f12],
    )
    .unwrap();
    assert_plan_equivalent(&q);
    assert_eq!(naive_eval(&q), Engine::sequential().evaluate(&q).unwrap().factor);
}

#[test]
fn single_variable_queries_plan_and_evaluate() {
    // Bound-only: a scalar aggregate over one unary factor.
    let f = Factor::new(vec![Var(0)], vec![(vec![0], 2u64), (vec![2], 3)]).unwrap();
    let q = FaqQuery::new(
        CountDomain,
        Domains::uniform(1, DOM),
        vec![],
        vec![(Var(0), VarAgg::Semiring(CountDomain::SUM))],
        vec![f.clone()],
    )
    .unwrap();
    assert_plan_equivalent(&q);
    let out = Planner::sequential().prepare(&q).unwrap().evaluate().unwrap();
    assert_eq!(out.scalar(), Some(&5));

    // Free-only: the same factor listed as output.
    let qf = FaqQuery::new(CountDomain, Domains::uniform(1, DOM), vec![Var(0)], vec![], vec![f])
        .unwrap();
    assert_plan_equivalent(&qf);
}

#[test]
fn thread_counts_choose_plans_not_results() {
    // Large enough (~2100 distinct rows per factor) that a 4-thread plan's
    // steps clear the default chunk floor.
    let q = random_triangle(77, 64, 3000);
    let seq_plan = Planner::sequential().prepare(&q).unwrap();
    let par_plan = Planner::with_threads(4).prepare(&q).unwrap();
    assert_eq!(seq_plan.plan().policy.threads, 1);
    assert_eq!(par_plan.plan().policy.threads, 4);
    let (seq, par) = (seq_plan.evaluate().unwrap(), par_plan.evaluate().unwrap());
    // Every chunk of a chunked step searches from a root node of its own, so
    // a run that chunked anything visits more nodes than the sequential run.
    let nodes = |stats: &ElimStats| {
        let joins = stats.steps.iter().filter_map(|s| s.join).chain(stats.output_join);
        joins.map(|j| j.nodes).sum::<u64>()
    };
    assert!(
        nodes(&par.stats) > nodes(&seq.stats),
        "a 4-thread plan should chunk at least one step on ~2100-row inputs"
    );
    assert_eq!(seq.factor, par.factor);
    assert_eq!(seq.factor, Engine::sequential().evaluate(&q).unwrap().factor);
}

/// Which orderings are ϕ-equivalent depends on the domain (§6, Def. 6.30):
/// Example 5.6's hyperedges and prefix under `BoolDomain` (`⊗` idempotent, `∨`
/// closed on `D_I`) and under `CountDomain` are two shapes with two `EVO`
/// sets. One engine preparing both, the Boolean one first over the very same
/// keys, must hand each query a plan made for its own shape.
#[test]
fn plans_never_cross_domains() {
    use faq::core::evo::is_equivalent_ordering;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn example_5_6<D: AggDomain>(
        domain: D,
        keys: &[Vec<Vec<u32>>],
        mut value: impl FnMut() -> D::E,
    ) -> FaqQuery<D> {
        let schemas: [&[u32]; 4] = [&[1, 5], &[2, 5], &[1, 3, 4], &[2, 3, 6]];
        let factors = schemas
            .iter()
            .zip(keys)
            .map(|(schema, keys)| {
                let rows = keys.iter().map(|k| (k.clone(), value())).collect();
                Factor::new(schema.iter().map(|&i| Var(i)).collect(), rows).unwrap()
            })
            .collect();
        let sum = VarAgg::Semiring(faq::semiring::AggId(0));
        let bound = vec![
            (Var(1), sum),
            (Var(2), sum),
            (Var(3), VarAgg::Product),
            (Var(4), sum),
            (Var(5), sum),
            (Var(6), sum),
        ];
        FaqQuery::new(domain, Domains::uniform(7, 3), vec![], bound, factors).unwrap()
    }

    fn assert_own_plan<D: AggDomain + Clone + Sync>(engine: &Engine, q: &FaqQuery<D>, seed: u64) {
        let prepared = engine.prepare(q).unwrap();
        let order = &prepared.plan().order;
        assert!(is_equivalent_ordering(&q.shape(), order), "seed {seed}: {order:?} ∉ EVO");
        assert_eq!(prepared.evaluate().unwrap().factor, naive_eval(q), "seed {seed}");
    }

    for seed in 0..20 {
        let mut r = StdRng::seed_from_u64(seed);
        let keys: Vec<Vec<Vec<u32>>> = [2usize, 2, 3, 3]
            .iter()
            .map(|&arity| {
                let cells = (0..3u32.pow(arity as u32)).filter(|_| r.gen_bool(0.7));
                cells.map(|c| (0..arity as u32).map(|i| c / 3u32.pow(i) % 3).collect()).collect()
            })
            .collect();
        let engine = Engine::sequential();
        assert_own_plan(&engine, &example_5_6(BoolDomain, &keys, || true), seed);
        assert_own_plan(&engine, &example_5_6(CountDomain, &keys, || r.gen_range(1..4u64)), seed);
    }
}

// ---- Panic-path regressions (degenerate queries) ---------------------------

/// A free variable covered by no edge: `ϕ(x0, x1) = ψ(x0)` with `x1` free.
fn free_var_no_edge_query() -> FaqQuery<CountDomain> {
    let f = Factor::new(vec![Var(0)], vec![(vec![0], 2u64), (vec![1], 3)]).unwrap();
    FaqQuery::new(CountDomain, Domains::uniform(2, 3), vec![Var(0), Var(1)], vec![], vec![f])
        .unwrap()
}

/// All-nullary inputs: `ϕ = Σ_{x0} c₁ · c₂` — every edge is empty.
fn all_nullary_query() -> FaqQuery<CountDomain> {
    FaqQuery::new(
        CountDomain,
        Domains::uniform(1, 3),
        vec![],
        vec![(Var(0), VarAgg::Semiring(CountDomain::SUM))],
        vec![Factor::nullary(Some(2u64)), Factor::nullary(Some(3u64))],
    )
    .unwrap()
}

#[test]
fn free_variable_in_no_edge_errs_instead_of_panicking() {
    let q = free_var_no_edge_query();
    let shape = q.shape();
    // The width API returns Err(Uncoverable) — previously a panic in
    // `RhoStar::eval` ("U-set not coverable by the query's edges").
    assert!(matches!(faqw_exact(&shape, 100), Err(FaqError::Uncoverable(_))));
    assert!(matches!(faqw_of_ordering(&shape, &[Var(0), Var(1)]), Err(FaqError::Uncoverable(_))));
    // Evaluation is well-defined: the free variable iterates its domain.
    let expect = naive_eval(&q);
    assert_eq!(Engine::sequential().evaluate(&q).unwrap().factor, expect);
    for threads in [1usize, 2, 4] {
        let policy = ExecPolicy::sequential().threads(threads).min_chunk_rows(1);
        assert_eq!(Engine::with_policy(policy).evaluate(&q).unwrap().factor, expect);
    }
    // The planner degrades gracefully (cost falls back to domain products)
    // and records that no width is defined.
    let prepared = Planner::with_threads(4).prepare(&q).unwrap();
    assert_eq!(prepared.plan().width, None);
    assert_eq!(prepared.evaluate().unwrap().factor, expect);
}

#[test]
fn all_nullary_inputs_err_instead_of_panicking() {
    let q = all_nullary_query();
    let shape = q.shape();
    assert!(matches!(faqw_exact(&shape, 100), Err(FaqError::Uncoverable(_))));
    assert!(matches!(faqw_of_ordering(&shape, &[Var(0)]), Err(FaqError::Uncoverable(_))));
    // Σ_{x0∈Dom(3)} 2·3 = 18, from every engine and from a plan.
    assert_eq!(Engine::sequential().evaluate(&q).unwrap().scalar(), Some(&18));
    for threads in [1usize, 4] {
        let policy = ExecPolicy::sequential().threads(threads).min_chunk_rows(1);
        assert_eq!(Engine::with_policy(policy).evaluate(&q).unwrap().scalar(), Some(&18));
    }
    let prepared = Planner::with_threads(4).prepare(&q).unwrap();
    assert_eq!(prepared.plan().width, None);
    assert_eq!(prepared.evaluate().unwrap().scalar(), Some(&18));
}
