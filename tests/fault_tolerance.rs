//! Deadline-bounded queries over the out-of-core workload: an expiring
//! budget must surface as a typed [`ServeError::DeadlineExceeded`] promptly
//! (within 2× the requested budget) and leave the serving gauges — pinned
//! chunk bytes, admission permits — exactly where they were before the
//! submission. A storage fault at any engine or server entry point — while
//! preparing, updating, merging, replaying or evaluating over a spilled
//! input — must likewise come back as a typed error and leave what it was
//! applied to as it was.

use faq::factor::fault::{Deadline, FaultPlan};
use faq::factor::SpillConfig;
use faq::serve::{CacheMode, FaqServer, QuerySpec, ServeConfig, ServeError};
use faq::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::{Duration, Instant};

const DOM: u32 = 64;

/// The pinned-chunk gauges are process-global and the test harness runs this
/// file's tests on parallel threads: every test that spills holds this lock
/// for its whole body, so no other test's pins land inside the deadline
/// test's gauge readings.
static GAUGES: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn hold_gauges() -> std::sync::MutexGuard<'static, ()> {
    // A failed test poisons the lock; the gauges it guards are still valid.
    GAUGES.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn edge(seed: u64, rows: usize, a: u32, b: u32) -> Factor<u64> {
    let mut r = StdRng::seed_from_u64(seed);
    let mut tuples = std::collections::BTreeMap::new();
    for _ in 0..rows {
        tuples.insert(vec![r.gen_range(0..DOM), r.gen_range(0..DOM)], r.gen_range(1..4u64));
    }
    Factor::new(vec![Var(a), Var(b)], tuples.into_iter().collect()).unwrap()
}

fn spec() -> QuerySpec {
    QuerySpec::new(
        vec![Var(0)],
        vec![
            (Var(1), VarAgg::Semiring(CountDomain::SUM)),
            (Var(2), VarAgg::Semiring(CountDomain::SUM)),
        ],
        vec![0, 1, 2],
    )
}

#[test]
fn deadline_bounded_out_of_core_query_cleans_up() {
    let _gauges = hold_gauges();
    let spill =
        SpillConfig { dir: None, chunk_rows: 64, level_chunk_entries: 64, window_chunks: 2 };
    let catalog: Vec<Factor<u64>> = [edge(3, 3000, 0, 1), edge(4, 3000, 1, 2), edge(5, 3000, 0, 2)]
        .iter()
        .map(|f| f.to_spilled(spill.clone()))
        .collect();
    let server = FaqServer::with_config(
        ServeConfig::default().workers(1),
        CountDomain,
        Domains::uniform(3, DOM),
        catalog,
    );
    let q = server.register(spec()).unwrap();
    let tenant = server.tenant("t", 4);

    // Warmup: a first full unbounded evaluation fills every chunk window to
    // its (deterministic) end-of-evaluation state. A second one starts from
    // that state, as the aborted run below does, and gives the reference
    // values for the pinned-bytes gauge and its peak: from emptier windows
    // the same accesses may pin a different mix of full and tail chunks.
    server.submit_with(&tenant, q, None, CacheMode::Bypass).unwrap().wait().unwrap();
    faq::factor::reset_peak_pinned_bytes();
    let warm_start = Instant::now();
    let warm = server.submit_with(&tenant, q, None, CacheMode::Bypass).unwrap().wait().unwrap();
    let full_eval = warm_start.elapsed();
    let pinned_before = faq::factor::pinned_bytes();
    let peak_full = faq::factor::peak_pinned_bytes();
    assert_eq!(tenant.in_flight(), 0);

    // The budget must genuinely truncate the evaluation: take a fraction of
    // the measured full evaluation, floored high enough that scheduling
    // noise cannot dominate the 2× bound.
    let budget = (full_eval / 8).max(Duration::from_millis(25));
    if budget * 2 >= full_eval {
        // Machine too fast for this workload to outlast any meaningful
        // budget — the deadline path is still covered by the serve unit
        // tests and the chaos suite.
        eprintln!("full evaluation took {full_eval:?}; skipping timing assertions");
        return;
    }
    let policy = ExecPolicy::sequential().deadline(Deadline::after(budget));
    faq::factor::reset_peak_pinned_bytes();
    let start = Instant::now();
    let err = server
        .submit_with(&tenant, q, Some(&policy), CacheMode::Bypass)
        .unwrap()
        .wait()
        .unwrap_err();
    let elapsed = start.elapsed();
    assert_eq!(err, ServeError::DeadlineExceeded);
    assert!(
        elapsed <= budget * 2,
        "deadline must abort within 2x the budget: budget {budget:?}, took {elapsed:?}"
    );

    // Partial-work cleanup: permits released, and the aborted run (a prefix
    // of the deterministic full evaluation) never pinned more than the full
    // evaluation's high-water mark — the abort dropped its pins instead of
    // leaking them past the LRU window policy.
    assert_eq!(tenant.in_flight(), 0, "aborted submission released its permits");
    assert!(
        faq::factor::peak_pinned_bytes() <= peak_full,
        "aborted evaluation must stay within the full evaluation's pin high-water mark: \
         peak {} vs full-eval peak {}",
        faq::factor::peak_pinned_bytes(),
        peak_full
    );

    // The same query, unbounded, still completes, matches the warmup, and —
    // because both the evaluation and the LRU replacement are deterministic —
    // returns the pinned-chunk gauge to exactly its pre-query value. The
    // abort left no stray pins behind.
    let again = server.submit_with(&tenant, q, None, CacheMode::Bypass).unwrap().wait().unwrap();
    assert_eq!(*again.factor, *warm.factor);
    assert_eq!(
        faq::factor::pinned_bytes(),
        pinned_before,
        "gauge must return to its pre-query value once the windows requiesce"
    );
    assert!(server.stats().deadline_exceeded >= 1);
}

fn spill() -> SpillConfig {
    SpillConfig { dir: None, chunk_rows: 16, level_chunk_entries: 16, window_chunks: 2 }
}

/// The query `spec()` registers, over the given factors.
fn triangle(factors: Vec<Factor<u64>>) -> FaqQuery<CountDomain> {
    let spec = spec();
    FaqQuery::new(CountDomain, Domains::uniform(3, DOM), spec.free, spec.bound, factors).unwrap()
}

fn is_storage<T>(r: Result<T, FaqError>) -> bool {
    matches!(r, Err(FaqError::Storage(_)))
}

/// Realigning a spilled input fails under an injected hard fault:
/// `Planner::prepare`, `Engine::prepare` and `FaqServer::register` return
/// the typed storage error instead of unwinding, and the server still
/// answers the query it registered before the fault.
#[test]
fn prepare_time_storage_faults_are_typed() {
    let _gauges = hold_gauges();
    // Slot 3 is a spilled R(0, 2) that no query reads before the fault, held
    // in the column order (2, 0): every plan binds the free x0 first, so
    // preparing a query over it realigns it, reading its chunks. (A spilled
    // factor is indexed when it is written; an aligned one costs prepare no
    // chunk read.)
    let r02 = edge(6, 600, 0, 2).reorder(&[Var(2), Var(0)]);
    let catalog: Vec<Factor<u64>> =
        [edge(3, 600, 0, 1), edge(4, 600, 1, 2), edge(5, 600, 0, 2), r02]
            .iter()
            .map(|f| f.to_spilled(spill()))
            .collect();
    let server = FaqServer::with_config(
        ServeConfig::default().workers(1),
        CountDomain,
        Domains::uniform(3, DOM),
        catalog.clone(),
    );
    let q = server.register(spec()).unwrap();
    let tenant = server.tenant("t", 4);
    let before = server.submit_with(&tenant, q, None, CacheMode::Bypass).unwrap().wait().unwrap();
    let epoch = server.current_epoch();

    let late = triangle(vec![catalog[0].clone(), catalog[1].clone(), catalog[3].clone()]);
    let late_spec = QuerySpec::new(spec().free, spec().bound, vec![0, 1, 3]);
    {
        let _g = FaultPlan::seeded(7).fail_hard(1.0).arm(&catalog);
        assert!(is_storage(Planner::default().prepare(&late)));
        assert!(is_storage(Engine::new().prepare(&late)));
        let err = server.register(late_spec).unwrap_err();
        assert!(matches!(err, ServeError::Faq(FaqError::Storage(_))), "got {err:?}");
    }
    assert_eq!(server.current_epoch(), epoch, "a failed register publishes nothing");
    let after = server.submit_with(&tenant, q, None, CacheMode::Bypass).unwrap().wait().unwrap();
    assert_eq!(*after.factor, *before.factor);
}

/// A failed `update_factor` leaves the handle as it was: the slot keeps the
/// old factor's body and the handle still evaluates to the old output.
#[test]
fn failed_update_factor_leaves_the_handle_as_it_was() {
    let _gauges = hold_gauges();
    let q = triangle(vec![edge(3, 600, 0, 1), edge(4, 600, 1, 2), edge(5, 600, 0, 2)]);
    let mut prepared = Planner::sequential().prepare(&q).unwrap();
    let old = prepared.query().factors[0].clone();
    let output = prepared.evaluate().unwrap().factor;
    // Columns (1, 0), against a plan that binds x0 first: the update
    // realigns it, reading its chunks.
    let fresh = edge(9, 600, 0, 1).reorder(&[Var(1), Var(0)]).to_spilled(spill());
    {
        let _g = FaultPlan::seeded(7).fail_hard(1.0).arm([&fresh]);
        assert!(is_storage(prepared.update_factor(0, fresh)));
    }
    assert!(prepared.query().factors[0].shares_body(&old));
    assert_eq!(prepared.evaluate().unwrap().factor, output);
}

/// Every fallible engine and server entry returns a typed storage error
/// under a hard fault on every chunk operation, and none of them panics.
#[test]
fn every_entry_point_types_storage_faults() {
    let _gauges = hold_gauges();
    let edges = [edge(3, 600, 0, 1), edge(4, 600, 1, 2), edge(5, 600, 0, 2)];
    let spilled = || edges.iter().map(|f| f.to_spilled(spill())).collect::<Vec<_>>();
    // Spilled in the plan's column order, so `prepare` keeps each input
    // file-chunked (a realigned input would be an in-memory copy).
    let planner = Planner::sequential();
    let aligned = planner.prepare(&triangle(edges.to_vec())).unwrap().query().factors.clone();
    let aligned: Vec<Factor<u64>> = aligned.iter().map(|f| f.to_spilled(spill())).collect();
    let q = triangle(aligned.clone());
    let mut prepared = planner.prepare(&q).unwrap();
    let plan = std::sync::Arc::new(prepared.plan().clone());
    let delta =
        DeltaFactor::inserts(aligned[0].schema().to_vec(), vec![(vec![1, 2], 5u64)]).unwrap();
    let (merged, ranges) = delta.apply_to(&aligned[0], |a, b| a + b, |x| *x == 0);
    let catalog = spilled();
    let server = FaqServer::with_config(
        ServeConfig::default().workers(1),
        CountDomain,
        Domains::uniform(3, DOM),
        catalog.clone(),
    );
    let fresh = triangle(spilled());
    // Misaligned, so the update reads its chunks to realign it.
    let update = edges[0].reorder(&[Var(1), Var(0)]).to_spilled(spill());
    let server_delta =
        DeltaFactor::inserts(vec![Var(0), Var(1)], vec![(vec![1, 2], 5u64)]).unwrap();
    let cap = ExecPolicy::sequential();

    let armed = aligned.iter().chain(&catalog).chain(&fresh.factors).chain([&update]);
    let _g = FaultPlan::seeded(7).fail_hard(1.0).arm(armed);
    assert!(is_storage(Engine::sequential().evaluate(&fresh)));
    assert!(is_storage(Engine::sequential().evaluate_with_order(&fresh, &q.ordering())));
    assert!(is_storage(Engine::sequential().prepare(&fresh)));
    assert!(is_storage(planner.prepare(&fresh)));
    assert!(is_storage(PreparedQuery::with_plan(&fresh, plan)));
    assert!(is_storage(prepared.evaluate()));
    assert!(is_storage(prepared.evaluate_budgeted(&cap)));
    assert!(is_storage(prepared.update_factor(0, update)));
    assert!(is_storage(prepared.apply_delta(0, &delta)));
    assert!(is_storage(prepared.apply_delta_with(0, &delta, AggId(0))));
    assert!(is_storage(prepared.install_merged(0, merged, ranges)));
    let err = server.register(spec()).unwrap_err();
    assert!(matches!(err, ServeError::Faq(FaqError::Storage(_))), "got {err:?}");
    let err = server.publish_delta(0, &server_delta).unwrap_err();
    assert!(matches!(err, ServeError::Faq(FaqError::Storage(_))), "got {err:?}");
}

/// A plan armed on spilled inputs faults their chunk reads on the parallel
/// engine's range workers too, not only on the thread that armed it.
#[test]
fn chunk_workers_type_storage_faults() {
    let _gauges = hold_gauges();
    // Columns already in the written order, so every input stays spilled.
    let inputs: Vec<Factor<u64>> = [edge(3, 600, 0, 1), edge(4, 600, 1, 2), edge(5, 600, 0, 2)]
        .iter()
        .map(|f| f.to_spilled(spill()))
        .collect();
    let q = triangle(inputs.clone());
    let engine = Engine::new().threads(2).min_chunk_rows(1);
    // Index the inputs first, so the faulted run reads chunks only inside
    // its step joins.
    engine.evaluate_with_order(&q, &q.ordering()).unwrap();
    let _g = FaultPlan::seeded(7).fail_hard(1.0).arm(&inputs);
    assert!(is_storage(engine.evaluate_with_order(&q, &q.ordering())));
}
