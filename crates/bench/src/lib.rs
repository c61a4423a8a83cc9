//! Shared workloads and measurement helpers for the paper-reproduction
//! benchmarks.
//!
//! Every table and figure of the FAQ paper maps to a generator here plus a
//! criterion bench (`benches/`) and a row printed by the `paper_tables`
//! binary (recorded in `EXPERIMENTS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use faq_core::{FaqQuery, VarAgg};
use faq_factor::{Domains, Factor};
use faq_hypergraph::Var;
use faq_semiring::RealDomain;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Deterministic RNG for reproducible workloads.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Median wall-clock time of `iters` runs of `f`, in seconds.
pub fn time_median<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(iters >= 1);
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = f();
        samples.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Fit the slope of `log(y)` against `log(x)` — the empirical scaling
/// exponent of a series of `(size, time)` measurements.
pub fn scaling_exponent(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2);
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// The Example 5.6 query at scale `n`:
/// `ϕ = max_{x1} max_{x2} Π_{x3} Σ_{x4} max_{x5} max_{x6} ψ15 ψ25 ψ134 ψ236`
/// with `{0,1}`-valued factors of `Θ(n)` tuples (so that the idempotent
/// machinery applies and the orderings `(1..6)` vs `(5,1,2,3,4,6)` cost
/// `O(N²)` vs `O(N)`).
pub fn example_5_6_query(n: u32, seed: u64) -> FaqQuery<RealDomain> {
    let mut r = rng(seed);
    let dom3 = 2u32; // keep the product variable's domain small
    let domains = Domains::new(vec![2, n, n, dom3, n, n, n]);
    // Variables are 1-indexed as in the paper; Var(0) is unused filler with
    // domain 2 (the engine never touches it since it's not in the query).
    let v = Var;

    // ψ15, ψ25: n random pairs each. ψ134, ψ236: n random triples, with the
    // x3 column *complete* per (x1, x4) group often enough to survive Π_{x3}.
    let mut pairs = |a: u32, b: u32| {
        let mut tuples = std::collections::BTreeSet::new();
        for _ in 0..n {
            tuples.insert(vec![r.gen_range(0..n), r.gen_range(0..n)]);
        }
        Factor::new(vec![v(a), v(b)], tuples.into_iter().map(|t| (t, 1.0f64)).collect()).unwrap()
    };
    let psi15 = pairs(1, 5);
    let psi25 = pairs(2, 5);
    let mut triples = |a: u32, b: u32, c: u32| {
        // For each of ~n (x_a, x_b) pairs, include BOTH x3 values so the
        // product aggregate keeps the group.
        let mut tuples = std::collections::BTreeSet::new();
        for _ in 0..n {
            let xa = r.gen_range(0..n);
            let xb = r.gen_range(0..n);
            for x3 in 0..dom3 {
                tuples.insert(vec![xa, x3, xb]);
            }
        }
        Factor::new(vec![v(a), v(b), v(c)], tuples.into_iter().map(|t| (t, 1.0f64)).collect())
            .unwrap()
    };
    let psi134 = triples(1, 3, 4);
    let psi236 = triples(2, 3, 6);

    FaqQuery::new(
        RealDomain,
        domains,
        vec![],
        vec![
            (v(1), VarAgg::Semiring(RealDomain::MAX)),
            (v(2), VarAgg::Semiring(RealDomain::MAX)),
            (v(3), VarAgg::Product),
            (v(4), VarAgg::Semiring(RealDomain::SUM)),
            (v(5), VarAgg::Semiring(RealDomain::MAX)),
            (v(6), VarAgg::Semiring(RealDomain::MAX)),
        ],
        vec![psi15, psi25, psi134, psi236],
    )
    .unwrap()
}

pub mod out_of_core;

/// The multi-tenant serving workload — the single definition shared by
/// `benches/serving.rs` and the `paper_tables` M1 table / `BENCH_9.json`
/// `"serving"` records.
pub mod serving;

/// The seek-kernel microbench workload — the single definition shared by
/// `benches/seek_kernel.rs` and the `paper_tables` S1 table / `BENCH_9.json`
/// `"seek"` records. Isolates the windowed least-upper-bound search (the one
/// operation behind every leapfrog seek) from the join machinery, so the
/// plain binary search and the galloping kernel can be compared per probe.
pub mod seek {
    use faq_factor::{LevelStorage, VecStorage};
    use rand::Rng;

    /// A sorted-distinct trie level of `n` values (random gaps of 1–7) plus
    /// two probe sequences of equal length: `ascending` models warm leapfrog
    /// traffic (bounds only grow within a window, the hint carries), `random`
    /// models cold first probes on fresh windows.
    pub struct SeekWorkload {
        /// The level's values, for the plain-binary-search reference.
        pub values: Vec<u32>,
        /// The same values behind the galloping kernel.
        pub storage: VecStorage,
        /// Sorted probe bounds (warm traffic).
        pub ascending: Vec<u32>,
        /// Unsorted probe bounds (cold traffic).
        pub random: Vec<u32>,
    }

    /// Build the deterministic workload for a level of `n` values.
    pub fn workload(n: usize, probes: usize, seed: u64) -> SeekWorkload {
        let mut r = super::rng(seed);
        let mut values: Vec<u32> = Vec::with_capacity(n);
        let mut next = 0u32;
        for _ in 0..n {
            next += r.gen_range(1..8u32);
            values.push(next);
        }
        let max = values.last().copied().unwrap_or(0) + 4;
        let mut ascending: Vec<u32> = (0..probes).map(|_| r.gen_range(0..max)).collect();
        ascending.sort_unstable();
        let random: Vec<u32> = (0..probes).map(|_| r.gen_range(0..max)).collect();
        let offsets: Vec<usize> = (0..=n).collect();
        let storage = VecStorage::from_parts(values.clone(), offsets.clone(), offsets);
        SeekWorkload { values, storage, ascending, random }
    }

    /// One probe pass through the old kernel — a plain `partition_point`
    /// binary search per seek. Returns the sum of result indices (a checksum
    /// the galloping pass must reproduce exactly).
    pub fn run_binary(values: &[u32], probes: &[u32]) -> u64 {
        let mut acc = 0u64;
        for &b in probes {
            acc += values.partition_point(|&v| v < b) as u64;
        }
        acc
    }

    /// The same pass through the galloping kernel. `warm` carries each seek's
    /// result into the next seek's hint the way a [`faq_factor::TrieCursor`]
    /// does; cold passes `usize::MAX` every time.
    pub fn run_gallop(storage: &VecStorage, probes: &[u32], warm: bool) -> u64 {
        let n = storage.len();
        let window = (0, n);
        let mut hint = usize::MAX;
        let mut acc = 0u64;
        for &b in probes {
            let j = storage.lub_from(window, hint, b);
            acc += j as u64;
            if warm {
                hint = j.min(n.saturating_sub(1));
            }
        }
        acc
    }
}

/// The hot-path workload family — the *single* definition shared by
/// `benches/hot_path.rs` and the `paper_tables` H1 table / `BENCH_9.json`
/// perf trajectory, so the archived trajectory always measures exactly what
/// the bench measures (same seeds, sizes, and query shapes).
pub mod hot_path {
    use super::rng;
    use faq_apps::{joins, pgm};
    use faq_core::{FaqQuery, VarAgg};
    use faq_hypergraph::Var;
    use faq_semiring::RealDomain;

    /// Triangle joins over 128-node random graphs (seed 21). Pass the whole
    /// size list at once: the instances share one RNG stream, so the graph
    /// for a given `m` depends on the sizes drawn before it.
    pub fn triangles(ms: &[usize]) -> Vec<(usize, joins::NaturalJoin)> {
        let mut r = rng(21);
        ms.iter()
            .map(|&m| {
                let edges = joins::random_graph(128, m, &mut r);
                (m, joins::triangle_query(&edges, 128))
            })
            .collect()
    }

    /// The lexicographically first edge absent from relation `slot` of `q` —
    /// the point update `benches/delta.rs` and the `paper_tables` D1 table
    /// insert and delete, so both measure the same incremental workload.
    pub fn absent_edge(q: &joins::NaturalJoin, slot: usize) -> Vec<u32> {
        let present: std::collections::BTreeSet<&Vec<u32>> =
            q.relations[slot].tuples.iter().collect();
        for a in 0..128u32 {
            for b in 0..128u32 {
                if a != b && !present.contains(&vec![a, b]) {
                    return vec![a, b];
                }
            }
        }
        unreachable!("random graph instances never saturate 128 nodes")
    }

    /// The path4 join over a sparse 96-node random graph (seed 23).
    pub fn path4(m: usize) -> joins::NaturalJoin {
        let mut r = rng(23);
        let edges = joins::random_graph(96, m, &mut r);
        joins::path_query(&edges, 96, 4)
    }

    /// An `n`-variable chain PGM with domain `d` (seed 31), posed as the
    /// plain FAQ marginal over `Var(0)` along the chain's own ordering —
    /// every elimination is a two-factor join of ~d² rows, isolating the
    /// elimination kernels from `GraphicalModel::marginal`'s per-call
    /// width-ordering search.
    pub fn pgm_chain_marginal(n: usize, d: u32) -> (FaqQuery<RealDomain>, Vec<Var>) {
        let mut r = rng(31);
        let model = pgm::random_chain(n, d, &mut r);
        let bound: Vec<(Var, VarAgg)> = model
            .domains
            .vars()
            .filter(|&v| v != Var(0))
            .map(|v| (v, VarAgg::Semiring(RealDomain::SUM)))
            .collect();
        let q = FaqQuery::new(
            RealDomain,
            model.domains.clone(),
            vec![Var(0)],
            bound,
            model.potentials.clone(),
        )
        .expect("chain PGM is a valid FAQ");
        let sigma = q.ordering();
        (q, sigma)
    }
}

/// The paper's good ordering for Example 5.6: `(5, 1, 2, 3, 4, 6)`.
pub fn example_5_6_good_order() -> Vec<Var> {
    [5u32, 1, 2, 3, 4, 6].iter().map(|&i| Var(i)).collect()
}

/// The input ordering for Example 5.6: `(1, 2, 3, 4, 5, 6)`.
pub fn example_5_6_input_order() -> Vec<Var> {
    (1..=6u32).map(Var).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faq_core::{naive_eval, Engine};

    #[test]
    fn scaling_exponent_of_square_law() {
        let pts: Vec<(f64, f64)> = (1..6).map(|i| (i as f64, (i * i) as f64)).collect();
        let e = scaling_exponent(&pts);
        assert!((e - 2.0).abs() < 1e-9);
    }

    #[test]
    fn example_5_6_orders_agree() {
        let q = example_5_6_query(6, 1);
        let a = Engine::sequential().evaluate_with_order(&q, &example_5_6_input_order()).unwrap();
        let b = Engine::sequential().evaluate_with_order(&q, &example_5_6_good_order()).unwrap();
        assert_eq!(a.factor, b.factor);
        let n = naive_eval(&q);
        assert_eq!(a.factor, n);
    }

    #[test]
    fn example_5_6_good_order_is_equivalent() {
        let q = example_5_6_query(5, 2);
        let shape = q.shape_promising_idempotent_inputs();
        assert!(faq_core::evo::is_equivalent_ordering(&shape, &example_5_6_good_order()));
        assert!(faq_core::evo::is_equivalent_ordering(&shape, &example_5_6_input_order()));
    }
}
