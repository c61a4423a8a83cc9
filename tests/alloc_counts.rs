//! Allocation-budget tests for the flat-row InsideOut hot path.
//!
//! The elimination pipeline (PR 5) claims per-step heap allocations of
//! `O(arity + chunks)` — plus `O(log rows)` amortized buffer doubling — where
//! it used to allocate a `Vec<u32>` per emitted row. A counting global
//! allocator ([`faq_testalloc::CountingAllocator`]) verifies the claim on a
//! workload big enough that the old per-row behaviour would blow the budget
//! by two orders of magnitude.
//!
//! The budgets below are deliberately loose (×4-ish headroom over measured
//! counts) so they don't flake across allocator or std versions, while
//! staying far below one allocation per output row.
//!
//! The same allocator's live-byte gauge checks that a factor's body is
//! shared, not copied, by `Factor::clone` and `PreparedQuery::clone`.

use faq::core::{Engine, ExecPolicy, FaqQuery, Planner, VarAgg};
use faq::factor::{DeltaFactor, DeltaOp, Domains, Factor};
use faq::hypergraph::Var;
use faq::semiring::{CountSumProd, SingleSemiringDomain};
use faq_testalloc::{allocation_count, current_bytes, CountingAllocator};
use rand::{rngs::StdRng, Rng, SeedableRng};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// `allocation_count()` is process-global and the test harness runs this
/// file's tests on parallel threads: each test holds this lock for its whole
/// body so the other's allocations never land inside a measured window.
static MEASURING: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A triangle join (all variables free: guard steps + output join) over a
/// random graph — the hot-path shape the benchmarks measure.
fn triangle(m: usize) -> FaqQuery<SingleSemiringDomain<CountSumProd>> {
    let mut rng = StdRng::seed_from_u64(97);
    let n = 64u32;
    let mut edges = std::collections::BTreeSet::new();
    while edges.len() < m {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            edges.insert((a, b));
        }
    }
    let tuples: Vec<(Vec<u32>, u64)> = edges.iter().map(|&(a, b)| (vec![a, b], 1)).collect();
    let fac = |x: u32, y: u32| {
        Factor::new(vec![Var(x), Var(y)], tuples.iter().map(|(t, v)| (t.clone(), *v)).collect())
            .unwrap()
    };
    FaqQuery::new(
        SingleSemiringDomain::new(CountSumProd),
        Domains::uniform(3, n),
        vec![Var(0), Var(1), Var(2)],
        vec![],
        vec![fac(0, 1), fac(1, 2), fac(0, 2)],
    )
    .unwrap()
}

#[test]
fn elimination_allocates_per_step_not_per_row() {
    let _alone = MEASURING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let q = triangle(1500);
    let sigma = q.ordering();
    // Pre-build the input indexes (the serving path does this in `prepare`),
    // so the runs below never pay the input build.
    for f in &q.factors {
        f.trie();
    }

    // Warm once outside the measurement (lazy statics, thread-local setup).
    let engine = Engine::sequential();
    let warm = engine.evaluate_with_order(&q, &sigma).unwrap();
    let total_rows: usize = q.factors.iter().map(|f| f.len()).sum::<usize>() + warm.factor.len();
    assert!(total_rows > 4_000, "workload too small to witness O(rows) allocation");

    let before = allocation_count();
    let out = engine.evaluate_with_order(&q, &sigma).unwrap();
    let sequential_allocs = allocation_count() - before;
    assert_eq!(out.factor, warm.factor);

    // The old pipeline allocated ≥ 1 Vec per emitted row (plus tuple vectors
    // per projection and a full re-sort buffer); the flat pipeline's budget
    // is per *step*, not per row. 3 guard steps + 1 output join over >17k
    // rows measured ~510 allocations (mostly amortized buffer doubling);
    // budget 1024 ≪ total_rows.
    assert!(
        (sequential_allocs as usize) < 1024,
        "sequential run allocated {sequential_allocs} times for {total_rows} rows"
    );
    assert!((sequential_allocs as usize) < total_rows / 4);

    // Chunked execution adds O(chunks) per step (worker builders, spawn
    // bookkeeping), not O(rows).
    let engine = Engine::with_policy(ExecPolicy::sequential().threads(4).min_chunk_rows(64));
    let before = allocation_count();
    let par = engine.evaluate_with_order(&q, &sigma).unwrap();
    let parallel_allocs = allocation_count() - before;
    assert_eq!(par.factor, warm.factor);
    assert!(
        (parallel_allocs as usize) < 2048,
        "parallel run allocated {parallel_allocs} times for {total_rows} rows"
    );
}

#[test]
fn delta_path_allocates_within_budget() {
    let _alone = MEASURING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let q = triangle(1500);
    let mut prepared = Planner::sequential().prepare(&q).unwrap();
    let total_rows: usize = q.factors.iter().map(|f| f.len()).sum::<usize>()
        + prepared.evaluate().unwrap().factor.len();

    // Prime the trace cache (a full evaluation) outside the measurement.
    let schema = vec![Var(0), Var(1)];
    let prime = DeltaFactor::new(schema.clone(), vec![(vec![63, 62], DeltaOp::Put(1u64))]).unwrap();
    prepared.apply_delta(0, &prime).unwrap();

    // A 1-row point update must not re-materialize O(rows) worth of
    // allocations: the replayed steps run restricted to the touched anchor
    // ranges (or as single whole-step joins), splicing into cached
    // intermediates with reserve-once builders — the budget is O(steps ×
    // (arity + log rows)), orders of magnitude below one per row.
    let one_row = DeltaFactor::new(schema, vec![(vec![62, 61], DeltaOp::Put(1u64))]).unwrap();
    let before = allocation_count();
    let out = prepared.apply_delta(0, &one_row).unwrap();
    let delta_allocs = allocation_count() - before;
    assert!(
        (delta_allocs as usize) < 4096,
        "1-row delta allocated {delta_allocs} times over {total_rows} rows"
    );
    assert!((delta_allocs as usize) < total_rows / 4);

    // And it computed the right thing: bit-identical to a fresh run.
    assert_eq!(out.factor, prepared.evaluate().unwrap().factor);
}

#[test]
fn budgeted_evaluation_allocates_like_evaluate() {
    let _alone = MEASURING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let q = triangle(1500);
    let prepared = Planner::sequential().prepare(&q).unwrap();
    let budget = ExecPolicy::sequential();
    let warm = prepared.evaluate_budgeted(&budget).unwrap();

    let before = allocation_count();
    let plain = prepared.evaluate().unwrap();
    let plain_allocs = allocation_count() - before;
    let before = allocation_count();
    let budgeted = prepared.evaluate_budgeted(&budget).unwrap();
    let budgeted_allocs = allocation_count() - before;
    assert_eq!(plain.factor, warm.factor);
    assert_eq!(budgeted.factor, warm.factor);

    // Both runs are sequential, so they do the same work. Admission clamps
    // the plan's one policy; it must not copy the plan (its order, every
    // step's U-set) per served query.
    assert!(
        budgeted_allocs <= plain_allocs + 4,
        "budgeted run allocated {budgeted_allocs} times, evaluate() {plain_allocs}"
    );
}

/// The benchmark's 3×3 grid model: Σ-marginal of corner variable 0, dense
/// `4 × 4` pair potentials. Its poset has 8! linear extensions, so a planning
/// pass takes the truncated path: 768 enumerated candidates plus the width
/// optimizers' and the data-driven one.
fn grid_3x3() -> FaqQuery<SingleSemiringDomain<CountSumProd>> {
    let sum = VarAgg::Semiring(SingleSemiringDomain::<CountSumProd>::OP);
    let right = (0..3u32).flat_map(|y| (0..2u32).map(move |x| (y * 3 + x, y * 3 + x + 1)));
    let down = (0..2u32).flat_map(|y| (0..3u32).map(move |x| (y * 3 + x, (y + 1) * 3 + x)));
    let factors = right
        .chain(down)
        .map(|(a, b)| Factor::dense(vec![Var(a), Var(b)], &[4, 4], |_| 1u64, |_| false).unwrap())
        .collect();
    FaqQuery::new(
        SingleSemiringDomain::new(CountSumProd),
        Domains::uniform(9, 4),
        vec![Var(0)],
        (1..9).map(|i| (Var(i), sum)).collect(),
        factors,
    )
    .unwrap()
}

/// Planning is priced by state, not by candidate: the membership test, the
/// step costs and `ρ*` are each memoized once per planning pass, so hundreds
/// of candidates that share prefixes share the work. A wall-clock-free guard
/// on that: when every candidate rebuilt its expression trees and compiled
/// its own program, one pass over this query allocated 1 382 874 times.
#[test]
fn planning_allocates_per_state_not_per_candidate() {
    let _alone = MEASURING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let q = grid_3x3();
    let planner = Planner::sequential();
    let warm = planner.plan(&q).unwrap();

    let before = allocation_count();
    let plan = planner.plan(&q).unwrap();
    let plan_allocs = allocation_count() - before;
    assert_eq!(plan.order, warm.order);
    // Measured 56 080; the budget is ×4 that, and under a quarter of the
    // per-candidate count.
    assert!(plan_allocs < 230_000, "one planning pass allocated {plan_allocs} times");
}

#[test]
fn clones_share_one_body() {
    let _alone = MEASURING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // 20 000 rows (a, b) with a < 100, b < 200: ~234 KiB of listing each,
    // about as much again once indexed.
    let relation = |x: u32, y: u32| {
        let rows: Vec<u32> = (0..20_000u32).flat_map(|i| [i / 200, i % 200]).collect();
        Factor::from_sorted_distinct(vec![Var(x), Var(y)], rows, vec![1u64; 20_000]).unwrap()
    };
    let f = relation(0, 1);

    // The index lives in the shared body: built through one handle, it is
    // there for a sibling cloned before the build.
    let sibling = f.clone();
    assert!(sibling.trie_if_built().is_none());
    f.trie();
    assert!(sibling.trie_if_built().is_some(), "a clone must see the index its sibling built");

    let sum = VarAgg::Semiring(SingleSemiringDomain::<CountSumProd>::OP);
    let q = FaqQuery::new(
        SingleSemiringDomain::new(CountSumProd),
        Domains::uniform(3, 200),
        vec![],
        vec![(Var(0), sum), (Var(1), sum), (Var(2), sum)],
        vec![f.clone(), relation(1, 2), relation(0, 2)],
    )
    .unwrap();
    let prepared = Planner::sequential().prepare(&q).unwrap();

    // One copied listing is already four times the whole budget.
    let before = current_bytes();
    let factors: Vec<Factor<u64>> = (0..64).map(|_| f.clone()).collect();
    let handles: Vec<_> = (0..64).map(|_| prepared.clone()).collect();
    let grown = current_bytes().saturating_sub(before);
    assert!(grown < 64 * 1024, "128 clones grew the heap by {grown} bytes");
    assert!(factors.iter().all(|c| c.shares_body(&f)));
    drop(handles);
}
