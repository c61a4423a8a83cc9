//! Listing vs columnar-trie join kernels on the tier-1 join workloads.
//!
//! Both kernels run the same leapfrog search and issue the same number of
//! seeks on a full-range join (asserted below, along with bit-identical
//! outputs); what differs is the cost per seek. The listing kernel re-scans
//! shared row prefixes with whole-row binary searches; the trie kernel
//! binary-searches the distinct values of one cached index level and descends
//! in O(1). The seek counts per query are printed once so the bench output
//! documents the workload's conditional-query volume.
//!
//! Run in `--test` mode (one unmeasured pass per benchmark) via
//! `cargo bench -p faq_bench --bench trie_join -- --test` — CI does this on
//! every push.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use faq_apps::joins::{self, NaturalJoin};
use faq_bench::rng;
use faq_core::{ExecPolicy, JoinRep};

fn policy(rep: JoinRep) -> ExecPolicy {
    ExecPolicy::sequential().rep(rep)
}

fn check_and_report(name: &str, q: &NaturalJoin) {
    let listing = q.evaluate_par(&policy(JoinRep::Listing)).unwrap();
    let trie = q.evaluate_par(&policy(JoinRep::Trie)).unwrap();
    assert_eq!(listing.factor, trie.factor, "{name}: representations diverged");
    assert_eq!(
        listing.stats.total_seeks(),
        trie.stats.total_seeks(),
        "{name}: full-range seek counts must match"
    );
    println!(
        "{name}: {} output rows, {} seeks per run (both kernels)",
        trie.factor.len(),
        trie.stats.total_seeks()
    );
}

fn bench_triangle(c: &mut Criterion) {
    let mut group = c.benchmark_group("trie_join/triangle_random");
    group.sample_size(10);
    let mut r = rng(21);
    for &m in &[2000usize, 8000] {
        let edges = joins::random_graph(128, m, &mut r);
        let q = joins::triangle_query(&edges, 128);
        check_and_report(&format!("triangle m={m}"), &q);
        for (label, rep) in [("listing", JoinRep::Listing), ("trie", JoinRep::Trie)] {
            let p = policy(rep);
            group.bench_with_input(BenchmarkId::new(label, m), &m, |b, _| {
                b.iter(|| q.evaluate_par(&p).unwrap())
            });
        }
    }
    group.finish();
}

fn bench_path4(c: &mut Criterion) {
    let mut group = c.benchmark_group("trie_join/path4_random");
    group.sample_size(10);
    let mut r = rng(23);
    // Sparse graph: all five path variables are free, so the output lists
    // every 4-path — keep it around half a million rows.
    let edges = joins::random_graph(96, 800, &mut r);
    let q = joins::path_query(&edges, 96, 4);
    check_and_report("path4 m=800", &q);
    for (label, rep) in [("listing", JoinRep::Listing), ("trie", JoinRep::Trie)] {
        let p = policy(rep);
        group.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, _| {
            b.iter(|| q.evaluate_par(&p).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_triangle, bench_path4);
criterion_main!(benches);
