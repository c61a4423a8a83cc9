//! FAQ composition (paper §8.2 / §8.5): the output of one FAQ instance feeds
//! another as an input factor. Materializing the inner instance and running
//! the outer one must agree with the monolithic flat query, and the composed
//! hypergraph's width behaves per Proposition 8.5.

use faq::core::{Engine, FaqQuery, VarAgg};
use faq::factor::{Domains, Factor};
use faq::hypergraph::compose::{compose, star_of_stars_gap};
use faq::hypergraph::ordering::fhtw;
use faq::hypergraph::widths::rho_star;
use faq::hypergraph::Var;
use faq::semiring::CountDomain;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_factor(rng: &mut StdRng, vars: &[Var], dom: u32) -> Factor<u64> {
    let mut tuples = Vec::new();
    let mut cur = vec![0u32; vars.len()];
    loop {
        if rng.gen_bool(0.6) {
            tuples.push((cur.clone(), rng.gen_range(1..4u64)));
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

/// Inner instance ψ'(x0, x2) = Σ_{x1} R(x0,x1) S(x1,x2); outer instance
/// ϕ = Σ_{x0,x2,x3} ψ'(x0,x2) T(x2,x3). Composition ≡ the flat 4-variable
/// query (associativity of Σ/Π — the §8.2 reduction).
#[test]
fn composed_evaluation_equals_flat_query() {
    let mut rng = StdRng::seed_from_u64(85);
    for _ in 0..15 {
        let dom = 3u32;
        let r = random_factor(&mut rng, &[Var(0), Var(1)], dom);
        let s = random_factor(&mut rng, &[Var(1), Var(2)], dom);
        let t = random_factor(&mut rng, &[Var(2), Var(3)], dom);

        // Inner: free (x0, x2), bound x1.
        let inner = FaqQuery::new(
            CountDomain,
            Domains::uniform(4, dom),
            vec![Var(0), Var(2)],
            vec![(Var(1), VarAgg::Semiring(CountDomain::SUM))],
            vec![r.clone(), s.clone()],
        )
        .unwrap();
        let psi_prime = Engine::sequential().evaluate(&inner).unwrap().factor;

        // Outer: scalar over ψ' and T.
        let outer = FaqQuery::new(
            CountDomain,
            Domains::uniform(4, dom),
            vec![],
            vec![
                (Var(0), VarAgg::Semiring(CountDomain::SUM)),
                (Var(2), VarAgg::Semiring(CountDomain::SUM)),
                (Var(3), VarAgg::Semiring(CountDomain::SUM)),
            ],
            vec![psi_prime, t.clone()],
        )
        .unwrap();
        let composed =
            Engine::sequential().evaluate(&outer).unwrap().scalar().copied().unwrap_or(0);

        // Flat query.
        let flat = FaqQuery::new(
            CountDomain,
            Domains::uniform(4, dom),
            vec![],
            (0..4).map(|i| (Var(i), VarAgg::Semiring(CountDomain::SUM))).collect(),
            vec![r, s, t],
        )
        .unwrap();
        let expect = Engine::sequential().evaluate(&flat).unwrap().scalar().copied().unwrap_or(0);
        assert_eq!(composed, expect);
    }
}

/// Proposition 8.5 at the width level: the composed hypergraph's fhtw is
/// bounded by `fhtw(H⁰) · max_e ρ*(H¹_e)` on random compositions.
#[test]
fn proposition_8_5_on_random_compositions() {
    let mut rng = StdRng::seed_from_u64(86);
    for _ in 0..10 {
        // Outer: a path of 3-ary edges; inner: random decompositions of each.
        let n = 6u32;
        let mut outer = faq::hypergraph::Hypergraph::new();
        let e1 = outer.add_edge([Var(0), Var(1), Var(2)]);
        let e2 = outer.add_edge([Var(2), Var(3), Var(4)]);
        let e3 = outer.add_edge([Var(4), Var(5), Var(0)]);
        let _ = (e1, e2, e3);
        let mut inner = Vec::new();
        for e in outer.edges() {
            let vs: Vec<Var> = e.iter().copied().collect();
            let mut hi = faq::hypergraph::Hypergraph::new();
            // Random binary edges covering the triple.
            hi.add_edge([vs[0], vs[1]]);
            hi.add_edge([vs[1], vs[2]]);
            if rng.gen_bool(0.5) {
                hi.add_edge([vs[0], vs[2]]);
            }
            inner.push(hi);
        }
        let comp = compose(&outer, &inner);
        let lhs = fhtw(&comp, 12).width;
        let outer_w = fhtw(&outer, 12).width;
        let max_rho: f64 =
            inner.iter().map(|h| rho_star(h, &h.vertices().clone())).fold(0.0, f64::max);
        assert!(lhs <= outer_w * max_rho + 1e-6, "fhtw {lhs} > {outer_w} × {max_rho}");
        let _ = n;
    }
}

/// The Lemma 8.7 gap family again, at a size the exact search still handles,
/// exercised through the public facade.
#[test]
fn lemma_8_7_gap_through_facade() {
    let (outer, inner) = star_of_stars_gap(4);
    let comp = compose(&outer, &inner);
    let w = fhtw(&comp, 12).width;
    assert!(w >= 2.0 - 1e-9, "gap instance width {w}");
    assert!((fhtw(&outer, 12).width - 1.0).abs() < 1e-9);
}
