//! Differential tests: `PreparedQuery::apply_delta` is bit-identical to
//! merging the delta by hand, swapping the factor in with `update_factor`,
//! and re-evaluating from scratch — and so is the publish seam a serving
//! writer uses: one `DeltaFactor::apply_to` on the catalog's copy of the
//! slot, then `PreparedQuery::install_merged` on each handle.
//!
//! Three proptest families — counting (sum/max/product aggregate mixes),
//! max-tropical, boolean — each checked under planners with threads ∈
//! {1, 2, 4}, plus deterministic adversarial cases: the empty delta, a delta
//! touching every row, deltas against an empty factor, repeated deltas to
//! one slot, interleaved deltas across slots, and the `update_factor`
//! rollback regression (failed updates leave cached intermediates intact).

use faq::core::{FaqError, FaqQuery, Planner, PreparedQuery, VarAgg};
use faq::factor::{DeltaFactor, DeltaOp, Domains, Factor, SpillConfig};
use faq::hypergraph::Var;
use faq::semiring::{AggDomain, AggId, BoolDomain, CountDomain, MaxPlus, SingleSemiringDomain};
use proptest::prelude::*;

mod common;
use common::{pairs_factor, skeleton, DOM};

/// One delta batch over a counting factor: sorted keys with their ops.
type DeltaEntries = Vec<(Vec<u32>, DeltaOp<u64>)>;

/// Planners under test: sequential plus parallel with an adversarial chunk
/// floor, so multi-threaded plans actually engage on tiny inputs.
fn planners() -> Vec<Planner> {
    [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            let mut p = Planner::with_threads(threads);
            p.policy.min_chunk_rows = 1;
            p
        })
        .collect()
}

/// Apply `delta` incrementally on `prepared` and from scratch on `oracle`
/// (manual merge + `update_factor` + `evaluate`), asserting bit-identical
/// output factors; returns the from-scratch output.
fn assert_delta_matches<D: AggDomain + Clone + Sync>(
    prepared: &mut PreparedQuery<D>,
    oracle: &mut PreparedQuery<D>,
    slot: usize,
    delta: &DeltaFactor<D::E>,
) -> Factor<D::E> {
    let incr = prepared.apply_delta(slot, delta).unwrap();
    let dom = oracle.query().domain.clone();
    let order = oracle.plan().order.clone();
    let aligned = delta.align_to(&order);
    let (merged, _) = aligned.apply_to(
        &oracle.query().factors[slot],
        |a, b| dom.add(AggId(0), a, b),
        |x| dom.is_zero(x),
    );
    oracle.update_factor(slot, merged).unwrap();
    let fresh = oracle.evaluate().unwrap();
    assert_eq!(incr.factor, fresh.factor, "incremental output diverged from recompute");
    fresh.factor
}

/// The publish seam, by hand: merge `delta` into a copy of the slot kept in
/// the query's *original* column order (a serving catalog's copy), then give
/// `(merged, ranges)` to the handle's install half. A handle whose plan
/// reordered its copy of the slot must refuse that merge untouched — it is
/// not a version of the factor it holds — and takes `apply_delta` instead.
/// Returns the handle's output.
fn publish_by_hand<D: AggDomain + Clone + Sync>(
    catalog: &mut Factor<D::E>,
    handle: &mut PreparedQuery<D>,
    slot: usize,
    delta: &DeltaFactor<D::E>,
) -> Factor<D::E> {
    let dom = handle.query().domain.clone();
    let (merged, ranges) = delta.align_to(catalog.schema()).apply_to(
        catalog,
        |a, b| dom.add(AggId(0), a, b),
        |x| dom.is_zero(x),
    );
    let input = handle.query().factors[slot].clone();
    let out = if input.schema() == merged.schema() {
        let unchanged = ranges.is_empty();
        let out = handle.install_merged(slot, merged.clone(), ranges).unwrap();
        // An effect-free batch replays nothing and keeps the body it had;
        // otherwise the handle now reads the one merged body.
        let kept = if unchanged { &input } else { &merged };
        assert!(handle.query().factors[slot].shares_body(kept));
        assert!(!unchanged || out.stats.steps.is_empty());
        out
    } else {
        assert!(matches!(
            handle.install_merged(slot, merged.clone(), ranges),
            Err(FaqError::BadOrdering(_))
        ));
        assert!(handle.query().factors[slot].shares_body(&input), "a refused install mutated");
        handle.apply_delta(slot, delta).unwrap()
    };
    *catalog = merged;
    out.factor
}

/// Run one delta twice (deltas accumulate) against every planner.
fn check_delta_family<D: AggDomain + Clone + Sync>(
    q: &FaqQuery<D>,
    slot: usize,
    entries: Vec<(Vec<u32>, DeltaOp<D::E>)>,
) {
    let delta = DeltaFactor::new(q.factors[slot].schema().to_vec(), entries).unwrap();
    for planner in planners() {
        let mut prepared = planner.prepare(q).unwrap();
        let mut oracle = planner.prepare(q).unwrap();
        let mut seam = planner.prepare(q).unwrap();
        let mut catalog = q.factors[slot].clone();
        // A second application of the same batch accumulates on the cached
        // intermediates of the first.
        for _ in 0..2 {
            let fresh = assert_delta_matches(&mut prepared, &mut oracle, slot, &delta);
            let seamed = publish_by_hand(&mut catalog, &mut seam, slot, &delta);
            assert_eq!(seamed, fresh, "merge-once-then-install diverged from recompute");
        }
    }
}

/// Strategy: raw delta entries (key, kind, value-seed) with distinct keys.
fn delta_entries() -> impl Strategy<Value = Vec<(u32, u32, usize, u64)>> {
    proptest::collection::vec((0u32..DOM, 0u32..DOM, 0usize..3, 0u64..5), 0..8).prop_map(|raw| {
        // Deduplicate keys (last write wins) — DeltaFactor rejects duplicates.
        let mut by_key = std::collections::BTreeMap::new();
        for (a, b, kind, v) in raw {
            by_key.insert((a, b), (kind, v));
        }
        by_key.into_iter().map(|((a, b), (kind, v))| (a, b, kind, v)).collect()
    })
}

fn delta_ops<E>(
    raw: &[(u32, u32, usize, u64)],
    mut value_of: impl FnMut(u64) -> E,
) -> Vec<(Vec<u32>, DeltaOp<E>)> {
    raw.iter()
        .map(|&(a, b, kind, v)| {
            let op = match kind {
                0 => DeltaOp::Put(value_of(v)),
                1 => DeltaOp::Merge(value_of(v)),
                _ => DeltaOp::Delete,
            };
            (vec![a, b], op)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Counting semiring, sum / max / product aggregate mixes.
    #[test]
    fn counting_delta_equals_recompute(
        s01 in proptest::collection::vec(0u32..2, (DOM * DOM) as usize),
        s12 in proptest::collection::vec(0u32..2, (DOM * DOM) as usize),
        s02 in proptest::collection::vec(0u32..2, (DOM * DOM) as usize),
        free in 0usize..=3,
        aggs in proptest::collection::vec(0usize..3, 3),
        slot in 0usize..3,
        raw in delta_entries(),
    ) {
        let pick = |i: usize| match i {
            0 => VarAgg::Semiring(CountDomain::SUM),
            1 => VarAgg::Semiring(CountDomain::MAX),
            _ => VarAgg::Product,
        };
        let (free_vars, bound) = skeleton(free, &aggs, pick);
        let q = FaqQuery::new(
            CountDomain,
            Domains::uniform(3, DOM),
            free_vars,
            bound,
            vec![
                pairs_factor(0, 1, &s01, |i| i as u64 % 3 + 1),
                pairs_factor(1, 2, &s12, |i| i as u64 % 4 + 1),
                pairs_factor(0, 2, &s02, |i| i as u64 % 2 + 1),
            ],
        ).unwrap();
        check_delta_family(&q, slot, delta_ops(&raw, |v| v));
    }

    /// Max-tropical semiring (f64 carrier): restricted replay must stay
    /// bit-identical even for floating-point values.
    #[test]
    fn tropical_delta_equals_recompute(
        s01 in proptest::collection::vec(0u32..2, (DOM * DOM) as usize),
        s12 in proptest::collection::vec(0u32..2, (DOM * DOM) as usize),
        s02 in proptest::collection::vec(0u32..2, (DOM * DOM) as usize),
        free in 0usize..=3,
        slot in 0usize..3,
        raw in delta_entries(),
    ) {
        let dom = SingleSemiringDomain::new(MaxPlus);
        let (free_vars, bound) = skeleton(free, &[0, 0, 0], |_| VarAgg::Semiring(AggId(0)));
        let q = FaqQuery::new(
            dom,
            Domains::uniform(3, DOM),
            free_vars,
            bound,
            vec![
                pairs_factor(0, 1, &s01, |i| i as f64 * 0.5),
                pairs_factor(1, 2, &s12, |i| i as f64 - 3.0),
                pairs_factor(0, 2, &s02, |i| (i % 5) as f64),
            ],
        ).unwrap();
        check_delta_family(&q, slot, delta_ops(&raw, |v| v as f64 - 1.0));
    }

    /// Boolean semiring (conjunctive queries with projections).
    #[test]
    fn boolean_delta_equals_recompute(
        s01 in proptest::collection::vec(0u32..2, (DOM * DOM) as usize),
        s12 in proptest::collection::vec(0u32..2, (DOM * DOM) as usize),
        s02 in proptest::collection::vec(0u32..2, (DOM * DOM) as usize),
        free in 0usize..=3,
        slot in 0usize..3,
        raw in delta_entries(),
    ) {
        let (free_vars, bound) =
            skeleton(free, &[0, 0, 0], |_| VarAgg::Semiring(BoolDomain::OR));
        let q = FaqQuery::new(
            BoolDomain,
            Domains::uniform(3, DOM),
            free_vars,
            bound,
            vec![
                pairs_factor(0, 1, &s01, |_| true),
                pairs_factor(1, 2, &s12, |_| true),
                pairs_factor(0, 2, &s02, |_| true),
            ],
        ).unwrap();
        check_delta_family(&q, slot, delta_ops(&raw, |_| true));
    }
}

/// An all-free counting triangle over fixed supports — the deterministic
/// workhorse of the adversarial cases.
fn counting_triangle() -> FaqQuery<CountDomain> {
    let dense: Vec<u32> = (0..DOM * DOM).map(|i| u32::from(i % 3 != 1)).collect();
    let sparse: Vec<u32> = (0..DOM * DOM).map(|i| u32::from(i % 5 == 0)).collect();
    let mid: Vec<u32> = (0..DOM * DOM).map(|i| u32::from(i % 2 == 0)).collect();
    FaqQuery::new(
        CountDomain,
        Domains::uniform(3, DOM),
        vec![Var(0), Var(1), Var(2)],
        vec![],
        vec![
            pairs_factor(0, 1, &dense, |i| i as u64 + 1),
            pairs_factor(1, 2, &sparse, |i| i as u64 % 7 + 1),
            pairs_factor(0, 2, &mid, |i| i as u64 % 3 + 1),
        ],
    )
    .unwrap()
}

#[test]
fn empty_delta_serves_cached_output() {
    let q = counting_triangle();
    let mut prepared = Planner::sequential().prepare(&q).unwrap();
    let baseline = prepared.evaluate().unwrap().factor;
    let delta: DeltaFactor<u64> = DeltaFactor::new(vec![Var(0), Var(1)], vec![]).unwrap();
    let out = prepared.apply_delta(0, &delta).unwrap();
    assert_eq!(out.factor, baseline);
    // No replay happened: the stats are empty.
    assert!(out.stats.steps.is_empty());
    assert!(out.stats.output_join.is_none());
    // Deleting absent keys is equally a no-op.
    let absent = DeltaFactor::deletes(vec![Var(0), Var(1)], vec![vec![0, 1], vec![3, 1]]).unwrap();
    assert!(q.factors[0].get(&[0, 1]).is_none());
    let out = prepared.apply_delta(0, &absent).unwrap();
    assert_eq!(out.factor, baseline);
    assert!(out.stats.steps.is_empty());
    // The install half alone: an unchanged factor with no ranges is the same
    // no-op (`publish_by_hand` asserts that nothing was replayed).
    let mut catalog = prepared.query().factors[0].clone();
    assert_eq!(publish_by_hand(&mut catalog, &mut prepared, 0, &absent), baseline);
}

/// A free variable must lead every plan order, so a factor listed as
/// `(x1, x0)` with `x0` free is reordered by `prepare`: the handle's copy of
/// the slot is not in the catalog's column order, the install half refuses
/// the catalog-order merge, and the `apply_delta` path still matches a
/// recompute (`publish_by_hand` asserts the refusal).
#[test]
fn reordered_slot_takes_the_apply_delta_path() {
    let flipped = Factor::new(
        vec![Var(1), Var(0)],
        vec![(vec![0, 1], 2u64), (vec![2, 0], 3), (vec![3, 3], 1)],
    )
    .unwrap();
    let other = pairs_factor(0, 1, &[1; (DOM * DOM) as usize], |i| i as u64 % 3 + 1);
    let q = FaqQuery::new(
        CountDomain,
        Domains::uniform(2, DOM),
        vec![Var(0)],
        vec![(Var(1), VarAgg::Semiring(CountDomain::SUM))],
        vec![flipped, other],
    )
    .unwrap();
    let probe = Planner::sequential().prepare(&q).unwrap();
    assert_eq!(probe.query().factors[0].schema(), &[Var(0), Var(1)], "prepare must reorder slot 0");
    let entries = vec![
        (vec![0, 1], DeltaOp::Merge(4u64)),
        (vec![1, 2], DeltaOp::Put(5)),
        (vec![3, 3], DeltaOp::Delete),
    ];
    check_delta_family(&q, 0, entries);
}

/// A replayed product step (eq. (8)) reports its work in the same currency
/// as a fresh run's — `join: Some(_)`, one `seek` per row read — counting
/// only the factors the delta actually reached, so `total_seeks` does not
/// lose product-step work after a delta.
#[test]
fn replayed_product_step_reports_rows_rewritten() {
    // ϕ = Σ_{x0} Π_{x1} ψ(x0, x1) · χ(x0), ψ full over x1.
    let psi = pairs_factor(0, 1, &[1; (DOM * DOM) as usize], |i| i as u64 % 3 + 1);
    let chi = Factor::new(vec![Var(0)], (0..DOM).map(|a| (vec![a], 2u64)).collect()).unwrap();
    let q = FaqQuery::new(
        CountDomain,
        Domains::uniform(2, DOM),
        vec![],
        vec![(Var(0), VarAgg::Semiring(CountDomain::SUM)), (Var(1), VarAgg::Product)],
        vec![psi, chi],
    )
    .unwrap();
    let mut prepared = Planner::sequential().prepare(&q).unwrap();
    let fresh = prepared.evaluate().unwrap();
    let product = |stats: &faq::core::ElimStats| {
        let step = stats.steps.iter().find(|s| !s.semiring).expect("a product step ran");
        (step.var, step.join.expect("product steps report their reads"))
    };
    let rows = |p: &PreparedQuery<CountDomain>, slot: usize| p.query().factors[slot].len() as u64;
    // Fresh: both factors are rewritten (ψ marginalized, χ powered).
    assert_eq!(product(&fresh.stats).1.seeks, rows(&prepared, 0) + rows(&prepared, 1));

    // A delta to ψ reaches only ψ's rewrite: χ's powered copy is reused.
    let delta = DeltaFactor::new(vec![Var(0), Var(1)], vec![(vec![2, 1], DeltaOp::Put(5u64))]);
    let replayed = prepared.apply_delta(0, &delta.unwrap()).unwrap();
    assert_eq!(replayed.factor, prepared.evaluate().unwrap().factor);
    let (var, work) = product(&replayed.stats);
    assert_eq!(var, Var(1));
    assert_eq!(work.seeks, rows(&prepared, 0), "one read per row of the rewritten factor");
    assert!(replayed.stats.total_seeks() >= work.seeks);
}

#[test]
fn delta_touching_every_row_equals_recompute() {
    let q = counting_triangle();
    for slot in 0..3 {
        // Rewrite every existing row and add every missing key: a full
        // overwrite of the slot, still served through the delta path.
        let mut entries: DeltaEntries = Vec::new();
        for a in 0..DOM {
            for b in 0..DOM {
                entries.push((vec![a, b], DeltaOp::Put(a as u64 * 10 + b as u64 + 1)));
            }
        }
        check_delta_family(&q, slot, entries);
    }
}

#[test]
fn delta_to_empty_factor_equals_recompute() {
    let mut q = counting_triangle();
    q.factors[0] = Factor::new(vec![Var(0), Var(1)], vec![]).unwrap();
    // Populate the empty factor through deltas alone.
    let entries = vec![
        (vec![0, 0], DeltaOp::Put(2u64)),
        (vec![0, 2], DeltaOp::Put(1)),
        (vec![2, 2], DeltaOp::Merge(3)),
        (vec![3, 1], DeltaOp::Delete),
    ];
    check_delta_family(&q, 0, entries);
}

#[test]
fn repeated_deltas_to_one_slot_accumulate() {
    let q = counting_triangle();
    let planner = Planner::sequential();
    let mut prepared = planner.prepare(&q).unwrap();
    let mut oracle = planner.prepare(&q).unwrap();
    let batches: Vec<DeltaEntries> = vec![
        vec![(vec![1, 1], DeltaOp::Put(5))],
        vec![(vec![1, 1], DeltaOp::Merge(2)), (vec![0, 0], DeltaOp::Delete)],
        vec![(vec![1, 1], DeltaOp::Delete)],
        vec![(vec![0, 0], DeltaOp::Put(7)), (vec![1, 1], DeltaOp::Put(1))],
        vec![(vec![3, 3], DeltaOp::Merge(4))],
    ];
    for entries in batches {
        let delta = DeltaFactor::new(vec![Var(0), Var(1)], entries).unwrap();
        assert_delta_matches(&mut prepared, &mut oracle, 0, &delta);
    }
}

#[test]
fn interleaved_deltas_across_slots_accumulate() {
    let q = counting_triangle();
    for planner in planners() {
        let mut prepared = planner.prepare(&q).unwrap();
        let mut oracle = planner.prepare(&q).unwrap();
        let script: Vec<(usize, DeltaEntries)> = vec![
            (0, vec![(vec![2, 3], DeltaOp::Put(4))]),
            (1, vec![(vec![3, 3], DeltaOp::Put(2)), (vec![0, 0], DeltaOp::Delete)]),
            (2, vec![(vec![2, 2], DeltaOp::Merge(6))]),
            (0, vec![(vec![2, 3], DeltaOp::Delete), (vec![0, 1], DeltaOp::Merge(1))]),
            (2, vec![(vec![2, 2], DeltaOp::Put(1))]),
        ];
        for (slot, entries) in script {
            let schema = q.factors[slot].schema().to_vec();
            let delta = DeltaFactor::new(schema, entries).unwrap();
            assert_delta_matches(&mut prepared, &mut oracle, slot, &delta);
        }
    }
}

#[test]
fn apply_delta_with_explicit_operator() {
    // CountDomain's AggId(1) is max: merging through it keeps the larger
    // multiplicity instead of summing.
    let q = counting_triangle();
    let planner = Planner::sequential();
    let mut prepared = planner.prepare(&q).unwrap();
    let mut oracle = planner.prepare(&q).unwrap();
    let delta =
        DeltaFactor::new(vec![Var(0), Var(1)], vec![(vec![0, 0], DeltaOp::Merge(2u64))]).unwrap();
    let incr = prepared.apply_delta_with(0, &delta, CountDomain::MAX).unwrap();
    let aligned = delta.align_to(&oracle.plan().order.clone());
    let (merged, _) = aligned.apply_to(&oracle.query().factors[0], |a, b| *a.max(b), |x| *x == 0);
    oracle.update_factor(0, merged).unwrap();
    assert_eq!(incr.factor, oracle.evaluate().unwrap().factor);
}

#[test]
fn apply_delta_rejects_bad_inputs_without_mutating() {
    let q = counting_triangle();
    let mut prepared = Planner::sequential().prepare(&q).unwrap();
    let baseline = prepared.evaluate().unwrap().factor;

    // Slot out of range.
    let d = DeltaFactor::new(vec![Var(0), Var(1)], vec![(vec![0, 0], DeltaOp::Delete)]).unwrap();
    assert!(prepared.apply_delta(9, &d).is_err());

    // Schema mismatch names the slot and a symmetric-difference variable.
    let bad = DeltaFactor::new(vec![Var(0), Var(2)], vec![(vec![0, 0], DeltaOp::Delete)]).unwrap();
    match prepared.apply_delta(0, &bad) {
        Err(FaqError::FactorSchemaMismatch { slot, var }) => {
            assert_eq!(slot, 0);
            assert!(var == Var(1) || var == Var(2));
        }
        other => panic!("expected FactorSchemaMismatch, got {other:?}"),
    }
    let msg = prepared.apply_delta(0, &bad).unwrap_err().to_string();
    assert!(msg.contains("slot 0"), "error must name the slot: {msg}");

    // Key outside the domain.
    let oob =
        DeltaFactor::new(vec![Var(0), Var(1)], vec![(vec![DOM, 0], DeltaOp::Put(1u64))]).unwrap();
    assert!(matches!(
        prepared.apply_delta(0, &oob),
        Err(FaqError::ValueOutOfDomain { var: Var(0), value }) if value == DOM
    ));

    // Unknown merge operator.
    assert!(matches!(
        prepared.apply_delta_with(0, &d, AggId(99)),
        Err(FaqError::UnknownAggregate(AggId(99)))
    ));

    // None of the rejected calls disturbed the handle.
    assert_eq!(prepared.evaluate().unwrap().factor, baseline);
}

#[test]
fn failed_update_factor_names_slot_and_keeps_delta_cache() {
    let q = counting_triangle();
    let planner = Planner::sequential();
    let mut prepared = planner.prepare(&q).unwrap();
    let mut oracle = planner.prepare(&q).unwrap();

    // Prime the delta cache.
    let d1 =
        DeltaFactor::new(vec![Var(0), Var(1)], vec![(vec![1, 1], DeltaOp::Put(3u64))]).unwrap();
    assert_delta_matches(&mut prepared, &mut oracle, 0, &d1);

    // A schema-mismatched update must fail, name the slot, and leave both
    // the factors and the cached intermediates untouched.
    let wrong = Factor::new(vec![Var(1), Var(2)], vec![(vec![0, 0], 1u64)]).unwrap();
    match prepared.update_factor(0, wrong) {
        Err(FaqError::FactorSchemaMismatch { slot, .. }) => assert_eq!(slot, 0),
        other => panic!("expected FactorSchemaMismatch, got {other:?}"),
    }
    // An out-of-domain update rolls back and equally preserves the cache.
    let oob = Factor::new(vec![Var(0), Var(1)], vec![(vec![DOM, 0], 1u64)]).unwrap();
    assert!(matches!(prepared.update_factor(0, oob), Err(FaqError::ValueOutOfDomain { .. })));

    // Incremental evaluation keeps working against the (intact) cache.
    let d2 = DeltaFactor::new(
        vec![Var(0), Var(1)],
        vec![(vec![1, 1], DeltaOp::Delete), (vec![2, 0], DeltaOp::Merge(2u64))],
    )
    .unwrap();
    assert_delta_matches(&mut prepared, &mut oracle, 0, &d2);

    // A *successful* update invalidates the cache: the next delta re-primes
    // against the new values and still matches recompute.
    let fresh =
        Factor::new(vec![Var(0), Var(1)], vec![(vec![0, 3], 2u64), (vec![3, 3], 1)]).unwrap();
    prepared.update_factor(0, fresh.clone()).unwrap();
    oracle.update_factor(0, fresh).unwrap();
    let d3 =
        DeltaFactor::new(vec![Var(0), Var(1)], vec![(vec![3, 3], DeltaOp::Merge(5u64))]).unwrap();
    assert_delta_matches(&mut prepared, &mut oracle, 0, &d3);
}

/// Deltas against a *spilled* base splice only the touched chunks: the merge
/// faults in exactly the chunk the delta lands in (cold chunks are shared by
/// metadata), the spliced result stays spilled and bit-identical to merging
/// on an in-memory copy, and the incremental engine path over the spilled
/// slot matches a scratch recompute under every planner.
#[test]
fn spilled_base_delta_splices_only_touched_chunks() {
    let q = counting_triangle();
    let config = SpillConfig {
        chunk_rows: 3,
        level_chunk_entries: 3,
        window_chunks: 2,
        ..SpillConfig::default()
    };
    let spilled = q.factors[0].to_spilled(config);
    let chunks = spilled.spill_stats().unwrap().chunks;
    assert!(chunks >= 3, "base must span several chunks, got {chunks}");

    // Every delta key has a = 0, so only the first chunk is touched: the
    // base's a = 0 rows all sort before chunk 1's first row.
    let entries: Vec<(Vec<u32>, DeltaOp<u64>)> = vec![
        (vec![0, 0], DeltaOp::Merge(7)),
        (vec![0, 1], DeltaOp::Put(9)),
        (vec![0, 3], DeltaOp::Delete),
    ];
    let delta = DeltaFactor::new(vec![Var(0), Var(1)], entries.clone()).unwrap();
    let before = spilled.spill_stats().unwrap().reads;
    let (merged, changed) = delta.apply_to(&spilled, |a, b| a + b, |&x| x == 0);
    let faulted = spilled.spill_stats().unwrap().reads - before;
    assert!(merged.is_spilled(), "splicing a spilled base stays spilled");
    assert_eq!(faulted, 1, "only the touched chunk may fault in");
    let (mem_merged, mem_changed) = delta.apply_to(&q.factors[0], |a, b| a + b, |&x| x == 0);
    assert_eq!(changed, mem_changed, "changed first-column ranges");
    assert_eq!(merged, mem_merged, "spliced listing diverged from the heap merge");

    // End-to-end: the prepared-query delta path over the spilled slot.
    let q_spilled = FaqQuery::new(
        CountDomain,
        Domains::uniform(3, DOM),
        q.free.clone(),
        q.bound.clone(),
        vec![spilled, q.factors[1].clone(), q.factors[2].clone()],
    )
    .unwrap();
    check_delta_family(&q_spilled, 0, entries);
}

/// A storage fault during the spilled splice of `apply_delta` surfaces as a
/// typed [`FaqError::Storage`] with the handle untouched: the factor is not
/// mutated and the cached trace survives (no re-prime I/O on the next call).
/// Validation failures on a spilled slot are equally non-mutating.
#[test]
fn failed_apply_delta_on_spilled_slot_preserves_factor_and_trace() {
    use faq::factor::fault::FaultPlan;

    let q = counting_triangle();
    let config = SpillConfig {
        chunk_rows: 3,
        level_chunk_entries: 3,
        window_chunks: 2,
        ..SpillConfig::default()
    };
    // `prepare` re-aligns misaligned factors into in-memory copies, which
    // would silently de-spill the slot under test: probe the plan order
    // first, then spill the already-aligned factor so the prepared handle
    // keeps the file-chunked listing.
    let planner = Planner::sequential();
    let probe = planner.prepare(&q).unwrap();
    let mut q_spilled = probe.query().clone();
    q_spilled.factors[0] = q_spilled.factors[0].to_spilled(config);

    // Sequential planner: the splice (and its chunk I/O) stays on this
    // thread, where the thread-local fault plan is installed.
    let mut prepared = planner.prepare(&q_spilled).unwrap();
    let mut oracle = planner.prepare(&q_spilled).unwrap();
    assert!(
        prepared.query().factors[0].is_spilled(),
        "the slot under test must stay file-chunked through prepare"
    );

    // Prime the cached trace: an empty delta primes without splicing.
    let empty: DeltaFactor<u64> = DeltaFactor::new(vec![Var(0), Var(1)], vec![]).unwrap();
    let baseline = prepared.apply_delta(0, &empty).unwrap().factor;

    let entries: DeltaEntries = vec![
        (vec![0, 0], DeltaOp::Merge(7)),
        (vec![0, 1], DeltaOp::Put(9)),
        (vec![0, 3], DeltaOp::Delete),
    ];
    let delta = DeltaFactor::new(vec![Var(0), Var(1)], entries).unwrap();

    // Every chunk op fails hard: the splice must rewrite the touched chunk,
    // so the apply aborts before anything is installed and surfaces the
    // typed storage error.
    {
        let _g = FaultPlan::seeded(11).fail_hard(1.0).install_local();
        match prepared.apply_delta(0, &delta) {
            Err(FaqError::Storage(_)) => {}
            other => panic!("expected FaqError::Storage, got {other:?}"),
        }
    }

    // Not mutated: the slot still serves the pre-failure output...
    assert_eq!(prepared.evaluate().unwrap().factor, baseline);
    // ...and the cached trace survived: a no-op delta is served from the
    // cache without a single chunk fault. (A dropped cache would re-prime
    // here with a full kept evaluation over the spilled slot.)
    let reads_before = prepared.query().factors[0].spill_stats().unwrap().reads;
    assert_eq!(prepared.apply_delta(0, &empty).unwrap().factor, baseline);
    assert_eq!(
        prepared.query().factors[0].spill_stats().unwrap().reads,
        reads_before,
        "cached trace must survive the failed apply without re-prime I/O"
    );

    // Validation failures on the spilled slot leave the handle equally
    // undisturbed.
    let oob =
        DeltaFactor::new(vec![Var(0), Var(1)], vec![(vec![DOM, 0], DeltaOp::Put(1u64))]).unwrap();
    assert!(matches!(
        prepared.apply_delta(0, &oob),
        Err(FaqError::ValueOutOfDomain { var: Var(0), value }) if value == DOM
    ));
    let bad = DeltaFactor::new(vec![Var(0), Var(2)], vec![(vec![0, 0], DeltaOp::Delete)]).unwrap();
    assert!(matches!(
        prepared.apply_delta(0, &bad),
        Err(FaqError::FactorSchemaMismatch { slot: 0, .. })
    ));
    assert_eq!(prepared.evaluate().unwrap().factor, baseline);

    // The handle keeps working: the same delta now applies cleanly and
    // matches the scratch recompute.
    assert_delta_matches(&mut prepared, &mut oracle, 0, &delta);
}
