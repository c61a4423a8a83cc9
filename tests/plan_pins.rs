//! The plans the planner chooses for the committed benchmark's `plan_infer`
//! shapes, pinned bit for bit.
//!
//! A plan depends on the query's schema and its factors' row counts only, so
//! the four shapes are rebuilt here from their definitions (the benchmark's
//! `gen.rs` is not a dependency), with values and — for Example 5.6 — row
//! counts from this file's own fixed seed; `mixed_two_free` is the
//! product-aggregate query of `faq_core::plan`'s unit tests. Every value
//! below was recorded at the commit *before* planning was keyed by state
//! (PR 23): a planner change that only does the same work cheaper leaves
//! this file untouched, and one that chooses differently (a wider search, a
//! new candidate source) must update the pins on purpose.

use faq::core::{FaqQuery, Planner, QueryPlan, VarAgg};
use faq::factor::{Domains, Factor};
use faq::hypergraph::Var;
use faq::semiring::{CountDomain, RealDomain};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A pairwise model over `edges` with dense `d × d` potentials: variable 0
/// free, the rest under `agg`.
fn pairwise(
    rng: &mut StdRng,
    n: u32,
    d: u32,
    agg: VarAgg,
    edges: &[(u32, u32)],
) -> FaqQuery<RealDomain> {
    let factors = edges
        .iter()
        .map(|&(a, b)| {
            Factor::dense(
                vec![Var(a.min(b)), Var(a.max(b))],
                &[d, d],
                |_| rng.gen_range(0.1..1.0f64),
                |&x| x == 0.0,
            )
            .unwrap()
        })
        .collect();
    FaqQuery::new(
        RealDomain,
        Domains::uniform(n as usize, d),
        vec![Var(0)],
        (1..n).map(|v| (Var(v), agg)).collect(),
        factors,
    )
    .unwrap()
}

/// A `w × h` grid model, Σ-marginal of variable 0; per cell, the edge to the
/// right then the edge down.
fn grid(rng: &mut StdRng, w: u32, h: u32) -> FaqQuery<RealDomain> {
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((y * w + x, y * w + x + 1));
            }
            if y + 1 < h {
                edges.push((y * w + x, (y + 1) * w + x));
            }
        }
    }
    pairwise(rng, w * h, 4, VarAgg::Semiring(RealDomain::SUM), &edges)
}

/// A binary-heap-shaped tree model (parent of `i` is `(i − 1) / 2`),
/// max-marginal of variable 0.
fn tree(rng: &mut StdRng, n: u32) -> FaqQuery<RealDomain> {
    let edges: Vec<(u32, u32)> = (1..n).map(|i| ((i - 1) / 2, i)).collect();
    pairwise(rng, n, 4, VarAgg::Semiring(RealDomain::MAX), &edges)
}

/// Example 5.6 at scale `n`: `max₁ max₂ Π₃ Σ₄ max₅ max₆ ψ15 ψ25 ψ134 ψ236`
/// over `{0,1}`-valued factors — `n` sampled pairs per binary factor, `n`
/// sampled `(x_a, x_c)` with both values of `x₃` per ternary one.
fn example_5_6(rng: &mut StdRng, n: u32) -> FaqQuery<RealDomain> {
    let ones = |schema: &[u32], rows: std::collections::BTreeSet<Vec<u32>>| {
        Factor::new(
            schema.iter().map(|&i| Var(i)).collect(),
            rows.into_iter().map(|r| (r, 1.0f64)).collect(),
        )
        .unwrap()
    };
    let mut pairs = |a: u32, b: u32| {
        let rows = (0..n).map(|_| vec![rng.gen_range(0..n), rng.gen_range(0..n)]).collect();
        ones(&[a, b], rows)
    };
    let (psi15, psi25) = (pairs(1, 5), pairs(2, 5));
    let mut triples = |a: u32, c: u32| {
        let mut rows = std::collections::BTreeSet::new();
        for _ in 0..n {
            let (xa, xc) = (rng.gen_range(0..n), rng.gen_range(0..n));
            rows.extend([vec![xa, 0, xc], vec![xa, 1, xc]]);
        }
        ones(&[a, 3, c], rows)
    };
    let (psi134, psi236) = (triples(1, 4), triples(2, 6));
    let max = VarAgg::Semiring(RealDomain::MAX);
    FaqQuery::new(
        RealDomain,
        Domains::new(vec![2, n, n, 2, n, n, n]),
        vec![],
        vec![
            (Var(1), max),
            (Var(2), max),
            (Var(3), VarAgg::Product),
            (Var(4), VarAgg::Semiring(RealDomain::SUM)),
            (Var(5), max),
            (Var(6), max),
        ],
        vec![psi15, psi25, psi134, psi236],
    )
    .unwrap()
}

/// `ϕ(x0, x1) = Σ₂ max₃ Π₄ ψ02 ψ123 ψ34 ψ01` over counting.
fn mixed_two_free() -> FaqQuery<CountDomain> {
    let mut r = StdRng::seed_from_u64(11);
    let mut mk = |schema: &[u32]| {
        Factor::dense(
            schema.iter().map(|&i| Var(i)).collect(),
            &vec![3; schema.len()],
            |_| r.gen_range(0..3u64),
            |&x| x == 0,
        )
        .unwrap()
    };
    FaqQuery::new(
        CountDomain,
        Domains::uniform(5, 3),
        vec![Var(0), Var(1)],
        vec![
            (Var(2), VarAgg::Semiring(CountDomain::SUM)),
            (Var(3), VarAgg::Semiring(CountDomain::MAX)),
            (Var(4), VarAgg::Product),
        ],
        vec![mk(&[0, 2]), mk(&[1, 2, 3]), mk(&[3, 4]), mk(&[0, 1])],
    )
    .unwrap()
}

/// One pinned step: the eliminated variable, its `U`-set in join order, and
/// the bits of the step's estimated rows.
type StepPin = (u32, &'static [u32], u64);

struct Pin {
    order: &'static [u32],
    est_cost_bits: u64,
    width: Option<f64>,
    steps: &'static [StepPin],
}

fn assert_pinned(name: &str, plan: &QueryPlan, pin: &Pin) {
    let ids = |vars: &[Var]| vars.iter().map(|v| v.0).collect::<Vec<u32>>();
    assert_eq!(ids(&plan.order), pin.order, "{name}: order");
    assert_eq!(
        plan.est_cost.to_bits(),
        pin.est_cost_bits,
        "{name}: est_cost {} = {:#018x}",
        plan.est_cost,
        plan.est_cost.to_bits()
    );
    assert_eq!(plan.width.map(f64::to_bits), pin.width.map(f64::to_bits), "{name}: width");
    let steps: Vec<(u32, Vec<u32>, u64)> =
        plan.steps.iter().map(|s| (s.var.0, ids(&s.u_vars), s.est_rows.to_bits())).collect();
    let pinned: Vec<(u32, Vec<u32>, u64)> =
        pin.steps.iter().map(|&(var, u, est)| (var, u.to_vec(), est)).collect();
    assert_eq!(steps, pinned, "{name}: steps (var, U in join order, est_rows bits)");
}

const ROWS_16: u64 = 0x4030000000000000; // 16.0
const ROWS_64: u64 = 0x4050000000000000; // 64.0
const ROWS_256: u64 = 0x4070000000000000; // 256.0

#[test]
fn benchmark_shapes_plan_as_recorded() {
    let mut rng = StdRng::seed_from_u64(23);
    let planner = Planner::sequential();
    let plan = |q: &FaqQuery<RealDomain>| planner.plan(q).unwrap();

    // 8! linear extensions, 768 enumerated: the truncated path.
    let grid_3x3 = Pin {
        order: &[0, 1, 3, 2, 4, 5, 7, 6, 8],
        est_cost_bits: 0x4090500000000000, // 1044.0
        width: Some(3.0),
        steps: &[
            (8, &[5, 7, 8], ROWS_64),
            (6, &[3, 7, 6], ROWS_64),
            (7, &[3, 4, 5, 7], ROWS_256),
            (5, &[3, 2, 4, 5], ROWS_256),
            (4, &[1, 3, 2, 4], ROWS_256),
            (2, &[1, 3, 2], ROWS_64),
            (3, &[0, 1, 3], ROWS_64),
            (1, &[0, 1], ROWS_16),
            // Fused into the output join: (0, &[0], 4.0) → no step, est_cost − 4.0.
        ],
    };
    assert_pinned("grid 3x3", &plan(&grid(&mut rng, 3, 3)), &grid_3x3);

    let grid_2x3 = Pin {
        order: &[0, 1, 2, 3, 4, 5],
        est_cost_bits: 0x4071400000000000, // 276.0
        width: Some(2.0),
        steps: &[
            (5, &[3, 4, 5], ROWS_64),
            (4, &[2, 3, 4], ROWS_64),
            (3, &[1, 2, 3], ROWS_64),
            (2, &[0, 1, 2], ROWS_64),
            (1, &[0, 1], ROWS_16),
            // Fused into the output join: (0, &[0], 4.0) → no step, est_cost − 4.0.
        ],
    };
    assert_pinned("grid 2x3", &plan(&grid(&mut rng, 2, 3)), &grid_2x3);

    // Every candidate ties on cost: the width tie-break sees all of them.
    let tree_10 = Pin {
        order: &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
        est_cost_bits: 0x4062800000000000, // 148.0
        width: Some(1.0),
        steps: &[
            (9, &[4, 9], ROWS_16),
            (8, &[3, 8], ROWS_16),
            (7, &[3, 7], ROWS_16),
            (6, &[2, 6], ROWS_16),
            (5, &[2, 5], ROWS_16),
            (4, &[1, 4], ROWS_16),
            (3, &[1, 3], ROWS_16),
            (2, &[0, 2], ROWS_16),
            (1, &[0, 1], ROWS_16),
            // Fused into the output join: (0, &[0], 4.0) → no step, est_cost − 4.0.
        ],
    };
    assert_pinned("tree 10", &plan(&tree(&mut rng, 10)), &tree_10);

    let q = example_5_6(&mut rng, 1000);
    let sizes: Vec<usize> = q.factors.iter().map(|f| f.len()).collect();
    assert_eq!(sizes, [1000, 999, 2000, 2000], "the seed's row counts enter the estimates");
    let example = Pin {
        order: &[2, 1, 3, 4, 5, 6],
        est_cost_bits: 0x413e9037fffffffa, // 2002999.9999999986
        width: Some(2.0),
        steps: &[
            (6, &[2, 3, 6], 0x409f400000000000), // 2000.0
            (5, &[2, 1, 5], 0x412e7caffffffffa), // 998999.9999999993
            (4, &[1, 3, 4], 0x409f400000000000), // 2000.0
            (1, &[2, 1], 0x412e7caffffffffa),    // 998999.9999999993
            (2, &[2], 0x408f37fffffffffb),       // 998.9999999999994
        ],
    };
    assert_pinned("example 5.6", &plan(&q), &example);

    let mixed = Pin {
        order: &[0, 1, 2, 3, 4],
        est_cost_bits: 0x4044b2b2af8917fc, // 41.396078054371145
        width: Some(1.5),
        // Fused into the output join: (1, &[0, 1], 8.0), (0, &[0], 3.0) → no steps, est_cost − 11.0.
        steps: &[
            (3, &[1, 2, 3], 0x402a000000000000), // 13.0
            (2, &[0, 1, 2], 0x403465655f122ff7), // 20.39607805437114
        ],
    };
    assert_pinned("mixed_two_free", &planner.plan(&mixed_two_free()).unwrap(), &mixed);
}

/// Example 5.6 at n = 1000, evaluated along its pinned plan. Every σ of the
/// query eliminates x5 with U = {x1, x2, x5}, and no input holds both x1 and
/// x2: joined in σ order, the step walks the x1 × x2 cross product before it
/// seeks x5. Each step joins in a connected order, x5 first.
#[test]
fn example_5_6_plan_seeks_stay_linear() {
    let mut rng = StdRng::seed_from_u64(23);
    // The draws of `benchmark_shapes_plan_as_recorded` before its Example 5.6.
    let _ = (grid(&mut rng, 3, 3), grid(&mut rng, 2, 3), tree(&mut rng, 10));
    let q = example_5_6(&mut rng, 1000);
    let prepared = Planner::sequential().prepare(&q).unwrap();
    let ids: Vec<u32> = prepared.plan().order.iter().map(|v| v.0).collect();
    assert_eq!(ids, [2, 1, 3, 4, 5, 6], "the pinned plan");
    let seeks = prepared.evaluate().unwrap().stats.total_seeks();
    // 1 065 236 seeks when every step joined in σ order (x5 last).
    assert!(seeks <= 1_065_236 / 20, "{seeks} seeks: a step walks a cross product");
}
