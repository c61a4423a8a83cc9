//! Differential tests, named cases: `PreparedQuery::apply_delta` is
//! bit-identical to merging the delta by hand, swapping the factor in with
//! `update_factor`, and re-evaluating from scratch — and so is the publish
//! seam a serving writer uses: one `DeltaFactor::apply_to` on the catalog's
//! copy of the slot, then `PreparedQuery::install_merged` on each handle.
//!
//! Random instances of every semiring family, through both delta paths,
//! are `tests/oracle.rs`'s. Here are the deterministic adversarial cases,
//! checked with the same helpers (`common::oracle`): the empty delta, a
//! delta touching every row, deltas against an empty factor, a reordered
//! slot, repeated deltas to one slot, interleaved deltas across slots,
//! spilled bases, and the `update_factor` rollback regression (failed
//! updates leave cached intermediates intact).

use faq::core::{FaqError, FaqQuery, Planner, PreparedQuery, VarAgg};
use faq::factor::{DeltaFactor, DeltaOp, Domains, Factor, SpillConfig};
use faq::hypergraph::Var;
use faq::semiring::{AggId, CountDomain};

mod common;
use common::oracle::{
    assert_delta_matches, check_delta_family, chunking_planner, publish_by_hand, THREADS,
};
use common::{pairs_factor, DOM};

/// One delta batch over a counting factor: sorted keys with their ops.
type DeltaEntries = Vec<(Vec<u32>, DeltaOp<u64>)>;

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

/// A merged heap factor is indexed by the replay's join of it, not by the
/// merge: after `apply_delta` every slot it touched holds a built trie, so
/// the handle stays serving-ready (the next evaluation indexes no input),
/// and the output still equals `update_factor` followed by `evaluate`.
#[test]
fn apply_delta_leaves_the_joined_slot_indexed() {
    let q = counting_triangle();
    let planner = Planner::sequential();
    let mut prepared = planner.prepare(&q).unwrap();
    let mut oracle = planner.prepare(&q).unwrap();
    for slot in 0..3 {
        let delta = DeltaFactor::new(
            prepared.query().factors[slot].schema().to_vec(),
            vec![(vec![1, 1], DeltaOp::Put(5)), (vec![2, 0], DeltaOp::Merge(3))],
        )
        .unwrap();
        let before = prepared.query().factors[slot].clone();
        assert_delta_matches(&mut prepared, &mut oracle, slot, &delta);
        let merged = &prepared.query().factors[slot];
        assert!(!merged.shares_body(&before), "slot {slot}: the delta changed the factor");
        assert!(merged.trie_if_built().is_some(), "slot {slot}: the replay indexed the merge");
    }
}

#[test]
fn interleaved_deltas_across_slots_accumulate() {
    let q = counting_triangle();
    for threads in THREADS {
        let planner = chunking_planner(threads);
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

/// Deltas against a *spilled* base merge in one sequential pass over it
/// (no chunk of the base is read twice) into a spilled factor that is
/// indexed as it is written — indexing it afterwards reads nothing — and
/// bit-identical to merging on an in-memory copy; the incremental engine
/// path over the spilled slot matches a scratch recompute under every
/// planner.
#[test]
fn spilled_base_delta_merges_in_one_pass_and_comes_back_indexed() {
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

    // Every delta key has a = 0.
    let entries: Vec<(Vec<u32>, DeltaOp<u64>)> = vec![
        (vec![0, 0], DeltaOp::Merge(7)),
        (vec![0, 1], DeltaOp::Put(9)),
        (vec![0, 3], DeltaOp::Delete),
    ];
    let delta = DeltaFactor::new(vec![Var(0), Var(1)], entries.clone()).unwrap();
    let before = spilled.spill_stats().unwrap().reads;
    let (merged, changed) = delta.apply_to(&spilled, |a, b| a + b, |&x| x == 0);
    let faulted = spilled.spill_stats().unwrap().reads - before;
    assert!(merged.is_spilled(), "merging into a spilled base stays spilled");
    assert!(faulted <= chunks as u64, "one pass: {faulted} reads of {chunks} chunks");
    assert!(merged.trie_if_built().is_some(), "the merge is indexed as it is written");
    let indexed_before = merged.spill_stats().unwrap().reads;
    let _ = merged.trie();
    assert_eq!(merged.spill_stats().unwrap().reads, indexed_before, "indexing read a chunk");
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
        let _g = FaultPlan::seeded(11).fail_hard(1.0).arm([&prepared.query().factors[0]]);
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
