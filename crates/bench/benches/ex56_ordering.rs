//! Example 5.6: the effect of the variable ordering on InsideOut's runtime.
//!
//! The input ordering `(1,…,6)` costs `O(N²)`; the equivalent ordering
//! `(5,1,2,3,4,6)` — valid because the product aggregate is idempotent on the
//! `{0,1}` inputs — costs `O(N)`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use faq_bench::{example_5_6_good_order, example_5_6_input_order, example_5_6_query};
use faq_core::Engine;

fn bench_orderings(c: &mut Criterion) {
    let mut group = c.benchmark_group("ex56_ordering");
    group.sample_size(10);
    for &n in &[250u32, 500, 1000] {
        let q = example_5_6_query(n, 99);
        let input = example_5_6_input_order();
        let good = example_5_6_good_order();
        group.bench_with_input(BenchmarkId::new("input_order", n), &n, |b, _| {
            b.iter(|| Engine::sequential().evaluate_with_order(&q, &input).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("good_order", n), &n, |b, _| {
            b.iter(|| Engine::sequential().evaluate_with_order(&q, &good).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_orderings);
criterion_main!(benches);
