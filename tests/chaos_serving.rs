//! Deterministic fault-injection (chaos) suite for the serving runtime.
//!
//! With a seeded [`FaultPlan`] failing/corrupting/delaying chunk I/O and a
//! seeded [`PanicPlan`] crashing workers, the serving stress run must uphold
//! the fault-tolerance contract: **every** submission resolves to either a
//! result bit-identical to a serial oracle at its answer's epoch or a typed
//! [`ServeError`]; failed publishes never advance the epoch or tear the
//! catalog; and once the faults stop, the full worker pool serves again.
//!
//! Knobs (all optional, for the CI chaos matrix):
//! * `FAQ_CHAOS_SEED` — master seed (default 1);
//! * `FAQ_CHAOS_WORKERS` — worker threads (default 2);
//! * `FAQ_CHAOS_SUBMISSIONS` — total reader submissions (default 500);
//! * `FAQ_CHAOS_SUMMARY` — path to write the failure-counter summary to
//!   (default `target/chaos-summary-<seed>-w<workers>.txt`).

use faq::factor::fault::Deadline;
use faq::factor::{FaultPlan, SpillConfig};
use faq::serve::{CacheMode, FaqServer, PanicPlan, QuerySpec, ServeConfig, ServeError};
use faq::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

const DOM: u32 = 10;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn edge(seed: u64, rows: usize, a: u32, b: u32) -> Factor<u64> {
    let mut r = StdRng::seed_from_u64(seed);
    let mut tuples = std::collections::BTreeMap::new();
    for _ in 0..rows {
        tuples.insert(vec![r.gen_range(0..DOM), r.gen_range(0..DOM)], r.gen_range(1..4u64));
    }
    Factor::new(vec![Var(a), Var(b)], tuples.into_iter().collect()).unwrap()
}

/// ϕ(x0) = Σ_{x1,x2} R0(x0,x1)·R1(x1,x2)·R2(x0,x2): per-node triangle counts,
/// so serving a wrong or mixed-epoch answer shows up in the output rows.
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

#[test]
fn chaos_every_submission_correct_or_typed_error() {
    let seed = env_u64("FAQ_CHAOS_SEED", 1);
    let workers = env_u64("FAQ_CHAOS_WORKERS", 2) as usize;
    let total_submissions = env_u64("FAQ_CHAOS_SUBMISSIONS", 500);

    // Spilled catalog with tiny chunks and a tight pin window, so chunk I/O
    // (and therefore injected storage faults) happens throughout.
    let spill = SpillConfig { dir: None, chunk_rows: 8, level_chunk_entries: 64, window_chunks: 2 };
    let mem_catalog =
        vec![edge(seed, 120, 0, 1), edge(seed + 1, 120, 1, 2), edge(seed + 2, 120, 0, 2)];
    let catalog: Vec<Factor<u64>> =
        mem_catalog.iter().map(|f| f.to_spilled(spill.clone())).collect();

    let panic_plan = PanicPlan::seeded(seed ^ 0x9E3779B97F4A7C15, 0.05);
    let server = FaqServer::with_config(
        ServeConfig::default().workers(workers).max_in_flight(256).panic_plan(panic_plan.clone()),
        CountDomain,
        Domains::uniform(3, DOM),
        catalog.clone(),
    );
    // Register (and implicitly prime the masters) before the faults start.
    let q = server.register(spec()).unwrap();

    // Serial history: epoch → in-memory mirror of the catalog at that epoch.
    // Only *successful* publishes advance it — a failed publish must leave
    // the previous epoch serving, which the oracle check below verifies.
    let expected: Mutex<std::collections::HashMap<u64, Vec<Factor<u64>>>> =
        Mutex::new(std::collections::HashMap::new());
    expected.lock().unwrap().insert(server.current_epoch(), mem_catalog.clone());

    let observations: Mutex<Vec<(u64, std::sync::Arc<Factor<u64>>)>> = Mutex::new(Vec::new());
    let error_counts = [
        ("storage", AtomicU64::new(0)),
        ("deadline", AtomicU64::new(0)),
        ("panicked", AtomicU64::new(0)),
        ("overloaded", AtomicU64::new(0)),
        ("other-typed", AtomicU64::new(0)),
    ];
    let ok_count = AtomicU64::new(0);
    let writer_failures = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let submitted = AtomicU64::new(0);

    // ≥1% injected chunk-read failures, plus transient errors (absorbed by
    // retry), corruption and delays — decided per logical chunk op from the
    // seed, identically for every thread. Armed on the handles kept above,
    // the plan reaches the server's copies of them and every delta splice a
    // publish makes from them: they share the spill directories.
    let fault_guard = FaultPlan::seeded(seed)
        .fail_transient(0.02)
        .fail_hard(0.01)
        .corrupt(0.01)
        .delay(0.01, 200)
        .arm(&catalog);

    std::thread::scope(|s| {
        // One writer publishing deltas round-robin over the slots, keeping
        // the in-memory mirror in lockstep with successful publishes.
        {
            let server = &server;
            let expected = &expected;
            let done = &done;
            let writer_failures = &writer_failures;
            s.spawn(move || {
                let mut r = StdRng::seed_from_u64(seed ^ 0xD1B54A32D192ED03);
                let mut mirror = mem_catalog.clone();
                let mut published = 0usize;
                while !done.load(Ordering::SeqCst) {
                    let slot = published % 3;
                    let delta = random_delta(&mut r, slot);
                    match server.publish_delta(slot, &delta) {
                        Ok(epoch) => {
                            let (merged, _) =
                                delta.apply_to(&mirror[slot], |a, b| a + b, |v| *v == 0);
                            mirror[slot] = merged;
                            expected.lock().unwrap().insert(epoch, mirror.clone());
                        }
                        Err(ServeError::Faq(_)) => {
                            // Typed failure: the epoch must not have moved —
                            // readers keep verifying against the old mirror.
                            writer_failures.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(e) => panic!("publish failed with non-engine error {e}"),
                    }
                    published += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }

        // Readers hammer the server until the submission budget is spent.
        let readers = workers.max(2);
        let submitted = &submitted;
        for rd in 0..readers {
            let server = &server;
            let observations = &observations;
            let error_counts = &error_counts;
            let ok_count = &ok_count;
            s.spawn(move || {
                let tenant = server.tenant(&format!("chaos-{rd}"), 64);
                let mut turn = 0usize;
                while submitted.fetch_add(1, Ordering::SeqCst) < total_submissions {
                    turn += 1;
                    let mode =
                        if turn.is_multiple_of(3) { CacheMode::Shared } else { CacheMode::Bypass };
                    // Every 7th submission carries a tight deadline; it may
                    // still finish in time, so both outcomes are legal.
                    let budget = (turn.is_multiple_of(7)).then(|| {
                        ExecPolicy::sequential().deadline(Deadline::after(Duration::from_millis(2)))
                    });
                    let ticket = match server.submit_with(&tenant, q, budget.as_ref(), mode) {
                        Ok(t) => t,
                        Err(ServeError::Overloaded { .. }) => {
                            error_counts[3].1.fetch_add(1, Ordering::SeqCst);
                            continue;
                        }
                        Err(e) => panic!("admission failed unexpectedly: {e}"),
                    };
                    match ticket.wait() {
                        Ok(out) => {
                            ok_count.fetch_add(1, Ordering::SeqCst);
                            observations.lock().unwrap().push((out.epoch, out.factor));
                        }
                        Err(ServeError::Faq(FaqError::Storage(_))) => {
                            error_counts[0].1.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(ServeError::DeadlineExceeded) => {
                            error_counts[1].1.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(ServeError::QueryPanicked) => {
                            error_counts[2].1.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(ServeError::Overloaded { .. }) => {
                            error_counts[3].1.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(e @ ServeError::Faq(_)) => {
                            panic!("unexpected engine error under injection: {e}")
                        }
                        Err(e) => panic!("untyped failure escaped the runtime: {e}"),
                    }
                }
            });
        }

        // The scope joins the readers; release the writer once they're done.
        let done = &done;
        let submitted2 = submitted;
        s.spawn(move || {
            while submitted2.load(Ordering::SeqCst) < total_submissions {
                std::thread::sleep(Duration::from_millis(5));
            }
            done.store(true, Ordering::SeqCst);
        });
    });

    // Chaos over: stop injecting and verify the pool recovered in full.
    drop(fault_guard);
    panic_plan.set_enabled(false);
    let tenant = server.tenant("recovery", 64);
    let recovery: Vec<_> = (0..workers * 2)
        .map(|_| server.submit_with(&tenant, q, None, CacheMode::Bypass).unwrap())
        .collect();
    let recovered: Vec<_> = recovery
        .into_iter()
        .map(|t| t.wait().expect("clean submission after chaos must succeed"))
        .collect();
    for o in &recovered {
        assert_eq!(*o.factor, *recovered[0].factor, "recovered pool must agree");
    }
    assert_eq!(tenant.in_flight(), 0);

    // Every successful answer must be bit-identical to the serial oracle at
    // the epoch it was answered at.
    let expected = expected.into_inner().unwrap();
    let observations = observations.into_inner().unwrap();
    let mut oracle_cache: std::collections::HashMap<u64, Factor<u64>> =
        std::collections::HashMap::new();
    for (epoch, factor) in &observations {
        let cat = expected
            .get(epoch)
            .unwrap_or_else(|| panic!("answer tagged with unpublished epoch {epoch}"));
        let want = oracle_cache.entry(*epoch).or_insert_with(|| oracle_eval(cat));
        assert_eq!(
            &**factor, want,
            "answer at epoch {epoch} must be bit-identical to the serial oracle"
        );
    }

    // Failure-counter summary, for eyeballs and the CI artifact.
    let stats = server.stats();
    let summary = format!(
        "chaos summary: seed={seed} workers={workers}\n\
         submissions: attempted={} ok={} rejected={}\n\
         typed errors: storage={} deadline={} panicked={} overloaded={} other={}\n\
         writer: failed_publishes={} epochs={}\n\
         server counters: deadline_exceeded={} panicked={} io_retries={} corrupt_chunks={}\n",
        stats.submitted,
        ok_count.load(Ordering::SeqCst),
        stats.rejected,
        error_counts[0].1.load(Ordering::SeqCst),
        error_counts[1].1.load(Ordering::SeqCst),
        error_counts[2].1.load(Ordering::SeqCst),
        error_counts[3].1.load(Ordering::SeqCst),
        error_counts[4].1.load(Ordering::SeqCst),
        writer_failures.load(Ordering::SeqCst),
        server.current_epoch(),
        stats.deadline_exceeded,
        stats.panicked,
        stats.io_retries,
        stats.corrupt_chunks,
    );
    eprintln!("{summary}");
    let path = std::env::var("FAQ_CHAOS_SUMMARY")
        .unwrap_or_else(|_| format!("target/chaos-summary-{seed}-w{workers}.txt"));
    if let Some(parent) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let _ = std::fs::write(&path, &summary);

    assert!(ok_count.load(Ordering::SeqCst) > 0, "some submissions must succeed under chaos");
}
