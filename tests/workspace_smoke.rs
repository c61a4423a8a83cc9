//! Workspace smoke test: every facade re-export resolves and a tiny FAQ
//! instance evaluates identically under naive evaluation and InsideOut.
//!
//! This is the first test a fresh checkout should run: it fails fast if the
//! crate graph, the facade's `pub use` surface, or the basic engine pipeline
//! is broken, without depending on any of the deeper paper-reproduction
//! machinery the other integration tests exercise.

use faq::core::{naive_eval, Engine, FaqQuery, VarAgg};
use faq::factor::{Domains, Factor};
use faq::hypergraph::{Hypergraph, Var, VarSet};
use faq::semiring::{CountDomain, Semiring};

/// A two-factor chain query Σ_{x0} max_{x1} Π_{x2} ψ01·ψ12, built entirely
/// through facade paths, must agree between the naive oracle and InsideOut.
#[test]
fn facade_pipeline_insideout_equals_naive() {
    let f01 = Factor::new(
        vec![Var(0), Var(1)],
        vec![(vec![0, 0], 2u64), (vec![0, 1], 1), (vec![1, 0], 3), (vec![1, 1], 1)],
    )
    .unwrap();
    let f12 = Factor::new(
        vec![Var(1), Var(2)],
        vec![(vec![0, 0], 1u64), (vec![0, 1], 4), (vec![1, 0], 2), (vec![1, 1], 1)],
    )
    .unwrap();
    let q = FaqQuery::new(
        CountDomain,
        Domains::uniform(3, 2),
        vec![],
        vec![
            (Var(0), VarAgg::Semiring(CountDomain::SUM)),
            (Var(1), VarAgg::Semiring(CountDomain::MAX)),
            (Var(2), VarAgg::Product),
        ],
        vec![f01, f12],
    )
    .unwrap();

    let expect = naive_eval(&q);
    let got = Engine::sequential().evaluate(&q).unwrap();
    assert_eq!(got.factor, expect);
    assert!(got.scalar().is_some(), "non-trivial instance must not evaluate to zero");
}

/// The remaining facade modules resolve and their basic entry points work.
#[test]
fn facade_reexports_resolve() {
    // semiring: a concrete Semiring impl through the facade path.
    let s = faq::semiring::CountSumProd;
    assert_eq!(s.add(&2, &3), 5);

    // hypergraph + lp: ρ* of the triangle is 3/2 (paper §4.2), computed by
    // faq::lp's simplex under the hood.
    let mut h = Hypergraph::new();
    for i in 0..3 {
        h.add_vertex(Var(i));
    }
    h.add_edge([Var(0), Var(1)]);
    h.add_edge([Var(1), Var(2)]);
    h.add_edge([Var(0), Var(2)]);
    let all: VarSet = (0..3).map(Var).collect();
    let rho = faq::hypergraph::rho_star(&h, &all);
    assert!((rho - 1.5).abs() < 1e-9, "triangle fractional edge cover, got {rho}");

    // lp, directly: minimize x s.t. x ≥ 7.
    let sol = faq::lp::LinearProgram::minimize(vec![1.0])
        .constraint(vec![1.0], faq::lp::ConstraintOp::Ge, 7.0)
        .solve()
        .unwrap();
    assert!((sol.objective - 7.0).abs() < 1e-9);

    // apps + join: triangle counting on a 3-clique finds one triangle per
    // orientation of the query's variable bindings.
    let q = faq::apps::joins::triangle_query(&[(0, 1), (1, 2), (0, 2)], 3);
    assert_eq!(q.count().unwrap(), 1);

    // cnf: a trivially satisfiable β-acyclic formula.
    let clause = faq::cnf::Clause::new(vec![faq::cnf::Lit::pos(0)]).unwrap();
    let cnf = faq::cnf::Cnf::new(2, vec![clause]);
    assert!(faq::cnf::brute_force_sat(&cnf));
}
