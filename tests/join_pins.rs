//! Work-count pins: the exact search counters of the leapfrog kernel on
//! fixed instances.
//!
//! The paper's cost model is read off these counters — per step, the seeks
//! of the OutsideIn join are bounded by AGM(U) (Thm 5.1) — so a kernel change
//! that makes the join faster must not make it *do* different work. Each
//! case pins `JoinStats { matches, seeks, nodes }` of one
//! `multiway_join_range_rep(JoinRep::Trie, ..)` call over the full range,
//! plus, where the instance is a query, the 1-thread
//! `ElimStats::total_seeks()` of the engine evaluating it along a fixed
//! ordering. The numbers were recorded from the recursive kernel before its
//! deepest level was fused; a change that moves one must update it on
//! purpose and say why.

use faq::core::{Engine, FaqQuery, VarAgg};
use faq::factor::{Domains, Factor};
use faq::hypergraph::Var;
use faq::join::{multiway_join_range_rep, JoinInput, JoinRep, JoinStats};
use faq::semiring::CountDomain;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// `edges` distinct random pairs over `0..dom` on `(a, b)`, valued in `1..4`.
fn random_edges(a: u32, b: u32, dom: u32, edges: usize, seed: u64) -> Factor<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut map = std::collections::BTreeMap::new();
    while map.len() < edges {
        map.insert(vec![rng.gen_range(0..dom), rng.gen_range(0..dom)], rng.gen_range(1..4u64));
    }
    Factor::new(vec![Var(a), Var(b)], map.into_iter().collect()).unwrap()
}

/// The same rows over another schema.
fn rename(f: &Factor<u64>, a: u32, b: u32) -> Factor<u64> {
    Factor::new(vec![Var(a), Var(b)], f.iter().map(|(r, &x)| (r.to_vec(), x)).collect()).unwrap()
}

/// One full-range trie join: its stats, output rows and `Σ` of its values.
fn join(dom: &Domains, order: &[u32], inputs: &[JoinInput<'_, u64>]) -> (JoinStats, u64, u64) {
    let order: Vec<Var> = order.iter().map(|&i| Var(i)).collect();
    let (mut rows, mut sum) = (0u64, 0u64);
    let stats = multiway_join_range_rep(
        JoinRep::Trie,
        dom,
        &order,
        inputs,
        (0, u32::MAX),
        1u64,
        |a, b| a * b,
        |_, v| {
            rows += 1;
            sum += v;
        },
    );
    (stats, rows, sum)
}

/// The 1-thread engine's total seeks and output rows for a counting query
/// over `factors` with every variable summed but `free`, along `0..n`.
fn engine_seeks(dom: &Domains, free: &[u32], factors: Vec<Factor<u64>>) -> (u64, usize) {
    let n = dom.len() as u32;
    let q = FaqQuery::new(
        CountDomain,
        dom.clone(),
        free.iter().map(|&i| Var(i)).collect(),
        (0..n)
            .filter(|i| !free.contains(i))
            .map(|i| (Var(i), VarAgg::Semiring(CountDomain::SUM)))
            .collect(),
        factors,
    )
    .unwrap();
    let order: Vec<Var> = (0..n).map(Var).collect();
    let out = Engine::sequential().evaluate_with_order(&q, &order).unwrap();
    (out.stats.total_seeks(), out.factor.len())
}

fn stats(matches: u64, seeks: u64, nodes: u64) -> JoinStats {
    JoinStats { matches, seeks, nodes }
}

/// Sparse triangle count: few matches among many seeks — the shape of the
/// benchmark's `tri_count`.
#[test]
fn sparse_triangle_count() {
    let r = random_edges(0, 1, 600, 3000, 11);
    let s = rename(&r, 0, 2);
    let t = rename(&r, 1, 2);
    let dom = Domains::uniform(3, 600);
    let got = join(&dom, &[0, 1, 2], &[&r, &s, &t].map(JoinInput::value));
    let engine = engine_seeks(&dom, &[], vec![r, s, t]);
    assert_eq!((got, engine), ((stats(230, 33842, 3822), 230, 2292), (36133, 1)));
}

/// Dense triangle listing: most leaf intersections match — the shape of the
/// benchmark's `tri_list`.
#[test]
fn dense_triangle_listing() {
    let r = random_edges(0, 1, 40, 800, 12);
    let s = rename(&r, 0, 2);
    let t = rename(&r, 1, 2);
    let dom = Domains::uniform(3, 40);
    let got = join(&dom, &[0, 1, 2], &[&r, &s, &t].map(JoinInput::value));
    let engine = engine_seeks(&dom, &[0, 1, 2], vec![r, s, t]);
    // A fused full-CQ listing costs exactly the kernel's own join seeks (89 901 → 37 724).
    assert_eq!((got, engine), ((stats(8332, 37724, 9173), 8332, 69919), (37724, 8332)));
}

/// A 4-cycle `R(a,b) S(b,c) T(c,d) U(a,d)`: two participants at every level.
#[test]
fn four_cycle() {
    let r = random_edges(0, 1, 60, 500, 13);
    let s = random_edges(1, 2, 60, 500, 14);
    let t = random_edges(2, 3, 60, 500, 15);
    let u = random_edges(0, 3, 60, 500, 16);
    let dom = Domains::uniform(4, 60);
    let got = join(&dom, &[0, 1, 2, 3], &[&r, &s, &t, &u].map(JoinInput::value));
    let engine = engine_seeks(&dom, &[], vec![r, s, t, u]);
    // The x3 step's U = {a, c, d} holds no input with both a and c; its kernel
    // binds d first instead of walking a × c (69 225 → 36 224).
    assert_eq!((got, engine), ((stats(4981, 69163, 9704), 4981, 81725), (36224, 1)));
}

/// A step with a lazy indicator projection at its deepest level: `G(b, x)`
/// filters `b` through its first column only, beside a value input and a
/// full-arity guard.
#[test]
fn prefix_filter_step() {
    let r = random_edges(0, 1, 200, 2500, 17);
    let g = random_edges(1, 2, 200, 900, 18);
    let h = random_edges(0, 1, 200, 2500, 19);
    let dom = Domains::uniform(3, 200);
    let got = join(
        &dom,
        &[0, 1],
        &[JoinInput::value(&r), JoinInput::prefix_filter(&g, 1), JoinInput::filter(&h)],
    );
    assert_eq!(got, (stats(142, 4994, 343), 142, 285));
}
