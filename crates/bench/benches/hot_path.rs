//! The InsideOut hot path end to end: elimination joins, intermediate factor
//! construction, and the output join on the triangle / path4 / PGM workloads.
//!
//! This bench tracks the absolute cost of the serving path across PRs. The
//! workloads are defined once in [`faq_bench::hot_path`] and shared with the
//! `paper_tables` H1 table, whose `--json` output (`BENCH_9.json`) is the
//! machine-readable perf trajectory CI archives.
//!
//! Run in `--test` mode (one unmeasured pass per benchmark) via
//! `cargo bench -p faq_bench --bench hot_path -- --test` — CI does this on
//! every push.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use faq_bench::hot_path;
use faq_core::{Engine, ExecPolicy};

fn bench_triangle(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_path/triangle_random");
    group.sample_size(10);
    let policy = ExecPolicy::sequential();
    for (m, q) in hot_path::triangles(&[2000, 8000]) {
        group.bench_with_input(BenchmarkId::new("insideout", m), &m, |b, _| {
            b.iter(|| q.evaluate_par(&policy).unwrap())
        });
    }
    group.finish();
}

fn bench_path4(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_path/path4_random");
    group.sample_size(10);
    let policy = ExecPolicy::sequential();
    let q = hot_path::path4(800);
    group.bench_with_input(BenchmarkId::from_parameter("insideout"), &(), |b, _| {
        b.iter(|| q.evaluate_par(&policy).unwrap())
    });
    group.finish();
}

fn bench_pgm(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_path/pgm_chain");
    group.sample_size(10);
    // 48-variable chain, domain 48: every elimination is a two-factor join of
    // ~d² rows — the allocation-per-row regime the flat pipeline targets.
    let (q, sigma) = hot_path::pgm_chain_marginal(48, 48);
    group.bench_with_input(BenchmarkId::from_parameter("marginal_n48_d48"), &(), |b, _| {
        b.iter(|| Engine::sequential().evaluate_with_order(&q, &sigma).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_triangle, bench_path4, bench_pgm);
criterion_main!(benches);
