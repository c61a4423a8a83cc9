//! Serving-runtime stress test: concurrent writers publish epochs while
//! readers evaluate, and every answer must be consistent with exactly one
//! published epoch — bit-identical to a serial oracle that replays the
//! deltas in epoch order.
//!
//! This is the `faq_serve` correctness contract: a reader never observes a
//! half-applied delta (its snapshot is immutable), never observes a stale
//! cache entry (the writer refreshes caches incrementally at publish), and
//! the epoch tag on the answer names exactly which data version it saw.

use faq::serve::{CacheMode, FaqServer, QuerySpec, ServeConfig};
use faq::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const DOM: u32 = 10;

fn edge(seed: u64, rows: usize, a: u32, b: u32) -> Factor<u64> {
    let mut r = StdRng::seed_from_u64(seed);
    let mut tuples = std::collections::BTreeMap::new();
    for _ in 0..rows {
        tuples.insert(vec![r.gen_range(0..DOM), r.gen_range(0..DOM)], r.gen_range(1..4u64));
    }
    Factor::new(vec![Var(a), Var(b)], tuples.into_iter().collect()).unwrap()
}

/// ϕ(x0) = Σ_{x1} Σ_{x2} R0(x0,x1)·R1(x1,x2)·R2(x0,x2): per-node triangle
/// counts, so a mixed-epoch answer is visible in the output rows, not just
/// in a scalar.
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

fn oracle_eval(catalog: &[Factor<u64>]) -> Factor<u64> {
    let q = FaqQuery::new(
        CountDomain,
        Domains::uniform(3, DOM),
        vec![Var(0)],
        vec![
            (Var(1), VarAgg::Semiring(CountDomain::SUM)),
            (Var(2), VarAgg::Semiring(CountDomain::SUM)),
        ],
        catalog.to_vec(),
    )
    .unwrap();
    Engine::sequential().evaluate(&q).unwrap().factor
}

fn random_delta(r: &mut StdRng, slot: usize) -> DeltaFactor<u64> {
    let schema = [(0u32, 1u32), (1, 2), (0, 2)][slot];
    let n = r.gen_range(1..4usize);
    let mut tuples = std::collections::BTreeMap::new();
    for _ in 0..n {
        tuples.insert(vec![r.gen_range(0..DOM), r.gen_range(0..DOM)], r.gen_range(1..3u64));
    }
    DeltaFactor::inserts(vec![Var(schema.0), Var(schema.1)], tuples.into_iter().collect()).unwrap()
}

fn run_stress(workers: usize, seed: u64) {
    let catalog = vec![edge(seed, 180, 0, 1), edge(seed + 1, 180, 1, 2), edge(seed + 2, 180, 0, 2)];
    let server = FaqServer::with_config(
        ServeConfig::default().workers(workers),
        CountDomain,
        Domains::uniform(3, DOM),
        catalog.clone(),
    );
    let q = server.register(spec()).unwrap();

    // Every publish is recorded with the epoch it created, so the oracle can
    // replay the exact serial history the (lock-serialized) writers produced.
    let publishes: Mutex<Vec<(u64, usize, DeltaFactor<u64>)>> = Mutex::new(Vec::new());
    let observations: Mutex<Vec<(u64, Arc<Factor<u64>>)>> = Mutex::new(Vec::new());
    let writers_done = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Two writers, each owning one catalog slot.
        for w in 0..2usize {
            let server = &server;
            let publishes = &publishes;
            s.spawn(move || {
                let mut r = StdRng::seed_from_u64(seed ^ ((w as u64) << 32));
                for _ in 0..6 {
                    let delta = random_delta(&mut r, w);
                    let epoch = server.publish_delta(w, &delta).unwrap();
                    publishes.lock().unwrap().push((epoch, w, delta));
                    std::thread::yield_now();
                }
            });
        }
        // Two readers alternating cache modes, racing the writers and then
        // taking a few more turns after the last publish so the final epoch
        // is observed too.
        for rd in 0..2usize {
            let server = &server;
            let observations = &observations;
            let writers_done = &writers_done;
            s.spawn(move || {
                let tenant = server.tenant(&format!("reader-{rd}"), 8);
                let mut turns = 0usize;
                let mut after_done = 0usize;
                while after_done < 4 {
                    if writers_done.load(Ordering::SeqCst) {
                        after_done += 1;
                    }
                    let mode =
                        if turns.is_multiple_of(2) { CacheMode::Shared } else { CacheMode::Bypass };
                    let out = server.submit_with(&tenant, q, None, mode).unwrap().wait().unwrap();
                    observations.lock().unwrap().push((out.epoch, out.factor));
                    turns += 1;
                }
            });
        }
        // Flip the done flag once both writers have joined — scope threads
        // can't be joined selectively, so run the writers' join inline.
        let server = &server;
        let writers_done = &writers_done;
        let publishes = &publishes;
        s.spawn(move || {
            while publishes.lock().unwrap().len() < 12 {
                std::thread::yield_now();
            }
            // All 12 publishes recorded; readers taking further turns now see
            // the final epoch.
            let _ = server.current_epoch();
            writers_done.store(true, Ordering::SeqCst);
        });
    });

    // Serial oracle: replay the publishes in epoch order from the initial
    // catalog, evaluating the expected output at every epoch.
    let mut publishes = publishes.into_inner().unwrap();
    publishes.sort_by_key(|(e, _, _)| *e);
    assert_eq!(publishes.len(), 12);
    let mut expected = std::collections::HashMap::new();
    let mut cat = catalog;
    // Epoch 1 is the registration publish over the initial data.
    expected.insert(1u64, oracle_eval(&cat));
    for (epoch, slot, delta) in &publishes {
        let (merged, _) = delta.apply_to(&cat[*slot], |a, b| a + b, |v| *v == 0);
        cat[*slot] = merged;
        expected.insert(*epoch, oracle_eval(&cat));
    }

    let observations = observations.into_inner().unwrap();
    assert!(observations.len() >= 8);
    let final_epoch = publishes.last().unwrap().0;
    let mut saw_final = false;
    for (epoch, factor) in &observations {
        let want = expected
            .get(epoch)
            .unwrap_or_else(|| panic!("answer tagged with unpublished epoch {epoch}"));
        assert_eq!(
            &**factor, want,
            "answer at epoch {epoch} must be bit-identical to the serial oracle"
        );
        saw_final |= *epoch == final_epoch;
    }
    assert!(saw_final, "the post-quiescence reads must observe the final epoch {final_epoch}");
}

#[test]
fn epochs_consistent_two_workers() {
    run_stress(2, 0xFAC7);
}

#[test]
fn epochs_consistent_four_workers() {
    run_stress(4, 0xBEEF);
}

/// A snapshot is a set of handles on factor bodies; a publish replaces the
/// writer's handles and never writes through a body. A reader holding epoch
/// `e` therefore evaluates the same answers before and after 50 further
/// publishes on every slot, while the latest epoch follows the serial oracle.
#[test]
fn held_snapshot_is_unchanged_by_later_publishes() {
    let mut cat = vec![edge(21, 60, 0, 1), edge(22, 60, 1, 2), edge(23, 60, 0, 2)];
    let server = FaqServer::with_config(
        ServeConfig::default().workers(1),
        CountDomain,
        Domains::uniform(3, DOM),
        cat.clone(),
    );
    let sum = |v: u32| (Var(v), VarAgg::Semiring(CountDomain::SUM));
    let ids = [
        server.register(spec()).unwrap(),
        server.register(QuerySpec::new(vec![], vec![sum(0), sum(1), sum(2)], vec![0, 1])).unwrap(),
    ];
    let answers = |snap: &faq::serve::Snapshot<CountDomain>| -> Vec<Factor<u64>> {
        ids.iter().map(|&id| snap.prepared(id).unwrap().evaluate().unwrap().factor).collect()
    };
    let held = server.snapshot();
    let before = answers(&held);
    assert_eq!(before[0], oracle_eval(&cat));

    let mut r = StdRng::seed_from_u64(0x5EED);
    for _ in 0..50 {
        for (slot, base) in cat.iter_mut().enumerate() {
            let delta = random_delta(&mut r, slot);
            server.publish_delta(slot, &delta).unwrap();
            *base = delta.apply_to(base, |a, b| a + b, |v| *v == 0).0;
        }
    }
    assert_eq!(answers(&held), before, "a later publish leaked into a held epoch");
    let latest = server.snapshot();
    assert_eq!(latest.epoch(), held.epoch() + 150);
    let now = answers(&latest);
    assert_eq!(now[0], oracle_eval(&cat));
    assert_ne!(now, before, "150 publishes must have moved the answers");
}
