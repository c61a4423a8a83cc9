//! The out-of-core triangle workload — the single definition shared by
//! `benches/out_of_core.rs` and the `paper_tables` O1 table / `BENCH_9.json`
//! `"out_of_core"` records.
//!
//! The workload streams a large edge relation `R(a, b)` — too big for the
//! configured resident-memory cap — straight into a file-chunked
//! ([`faq_factor::SpillConfig`]) factor, plants `planted` closing wedges in
//! two small in-memory relations `S(b, c)` / `T(a, c)`, and counts triangles
//! `Σ_a Σ_b Σ_c R(a,b)·S(b,c)·T(a,c)` through the ordinary engine path:
//! spilled trie built by streaming, leapfrog seeks over pinned chunk
//! windows, partition cuts aligned to `R`'s chunk boundaries.
//!
//! Every planted wedge closes exactly one triangle and nothing else does
//! (each `c` value pairs with a single `S` and a single `T` edge), so the
//! expected count is known at *any* scale without an in-memory oracle —
//! [`run`] asserts it, along with the resident-memory cap itself.

use faq_core::{Engine, ExecPolicy, FaqQuery, VarAgg};
use faq_factor::{
    chunk_reads, peak_pinned_bytes, reset_peak_pinned_bytes, Domains, Factor, FactorBuilder,
    SpillConfig,
};
use faq_hypergraph::{v, Var};
use faq_semiring::CountDomain;
use rand::Rng;
use std::time::Instant;

/// Parameters of one out-of-core triangle run.
#[derive(Debug, Clone)]
pub struct OocParams {
    /// Rows of the big relation `R` (the spilled factor).
    pub rows: usize,
    /// Node-id space of `a` and `b`; the key space `nodes²` is kept ≥ 4×
    /// the expected span of the generated keys so generation never exhausts
    /// it.
    pub nodes: u32,
    /// Planted closing wedges = the exact expected triangle count.
    pub planted: usize,
    /// Resident-memory cap asserted against the peak pinned chunk bytes.
    pub cap_bytes: usize,
    /// Rows per spill chunk (kept a multiple of 64 so trie-level chunks
    /// align with the head-sample stride).
    pub chunk_rows: usize,
    /// LRU window, in chunks, per spilled structure.
    pub window_chunks: usize,
    /// Worker threads for the chunk-partitioned join.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl OocParams {
    /// The CI smoke configuration: ~1.3·10⁶ rows (≈20 MiB on disk) against
    /// a 4 MiB resident cap — the relation is ≥ 4× the cap, yet small
    /// enough to generate and join in seconds.
    pub fn smoke() -> OocParams {
        OocParams {
            rows: 1_300_000,
            nodes: 4096,
            planted: 512,
            cap_bytes: 4 << 20,
            chunk_rows: 4096,
            window_chunks: 8,
            threads: 2,
            seed: 41,
        }
    }

    /// The full-scale configuration: 10⁷ rows (≈160 MiB on disk) against a
    /// 32 MiB cap. `FAQ_OOC_ROWS` and `FAQ_OOC_CAP_MB` override the scale.
    pub fn full() -> OocParams {
        let rows = std::env::var("FAQ_OOC_ROWS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(10_000_000usize);
        let cap_mb =
            std::env::var("FAQ_OOC_CAP_MB").ok().and_then(|s| s.parse().ok()).unwrap_or(32usize);
        // Scale the node space with √rows so sparsity (and thus the
        // per-chunk value spread the partitioner cuts on) stays comparable.
        let nodes = ((rows as f64 * 32.0).sqrt().ceil() as u32).next_power_of_two();
        OocParams {
            rows,
            nodes,
            planted: 2048,
            cap_bytes: cap_mb << 20,
            chunk_rows: 8192,
            window_chunks: 8,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            seed: 43,
        }
    }
}

/// The generated instance: `R` spilled (or in-memory for the oracle), `S`
/// and `T` small, plus the query's domains and the exact expected count.
pub struct OocData {
    /// The big edge relation (spilled unless built with [`generate_mem`]).
    pub r: Factor<u64>,
    /// Closing edges `S(b, c)`.
    pub s: Factor<u64>,
    /// Closing edges `T(a, c)`.
    pub t: Factor<u64>,
    /// Domains of `(a, b, c)`.
    pub domains: Domains,
    /// Exact expected triangle count.
    pub planted: usize,
}

/// Stream the instance, spilling `R` under `config`; `None` keeps `R` in
/// memory (the oracle used by equivalence tests).
fn generate_with(p: &OocParams, config: Option<SpillConfig>) -> OocData {
    let mut rng = super::rng(p.seed);
    let keyspace = u64::from(p.nodes) * u64::from(p.nodes);
    let avg = (keyspace / (2 * p.rows as u64)).max(1);
    assert!(avg >= 2, "R must stay sparse: raise `nodes` or lower `rows`");
    let schema = vec![v(0), v(1)];
    let mut builder = match config {
        Some(c) => FactorBuilder::<u64>::new_spilled(schema, c).expect("distinct schema"),
        None => {
            let mut b = FactorBuilder::new(schema).expect("distinct schema");
            b.reserve(p.rows);
            b
        }
    };
    // Ascending random keys by gaps: strictly sorted pairs stream straight
    // into the builder, with O(1) generator state however large R is. A
    // reservoir sample of the emitted edges picks the wedges to close.
    let mut sample: Vec<(u32, u32)> = Vec::with_capacity(p.planted);
    let mut key = 0u64;
    let mut emitted = 0usize;
    while emitted < p.rows {
        key += rng.gen_range(1..=2 * avg);
        assert!(key < keyspace, "key space exhausted: gap distribution is miscalibrated");
        let (a, b) = ((key / u64::from(p.nodes)) as u32, (key % u64::from(p.nodes)) as u32);
        builder.push(&[a, b], 1u64);
        if sample.len() < p.planted {
            sample.push((a, b));
        } else {
            let j = rng.gen_range(0..=emitted);
            if j < p.planted {
                sample[j] = (a, b);
            }
        }
        emitted += 1;
    }
    let r = builder.finish();
    // Close wedge i with the private value c = i: S gains (bᵢ, i), T gains
    // (aᵢ, i). Each c pairs exactly one S edge with one T edge, and the
    // sampled (aᵢ, bᵢ) is in R, so the triangle count is exactly `planted`.
    let planted = sample.len();
    let s_rows: std::collections::BTreeSet<Vec<u32>> =
        sample.iter().enumerate().map(|(i, &(_, b))| vec![b, i as u32]).collect();
    let t_rows: std::collections::BTreeSet<Vec<u32>> =
        sample.iter().enumerate().map(|(i, &(a, _))| vec![a, i as u32]).collect();
    let s = Factor::new(vec![v(1), v(2)], s_rows.into_iter().map(|r| (r, 1u64)).collect())
        .expect("sorted distinct closing edges");
    let t = Factor::new(vec![v(0), v(2)], t_rows.into_iter().map(|r| (r, 1u64)).collect())
        .expect("sorted distinct closing edges");
    let domains = Domains::new(vec![p.nodes, p.nodes, planted.max(1) as u32]);
    OocData { r, s, t, domains, planted }
}

/// Generate the instance with `R` spilled under the run's chunk geometry.
pub fn generate(p: &OocParams) -> OocData {
    let config = SpillConfig {
        chunk_rows: p.chunk_rows,
        level_chunk_entries: p.chunk_rows,
        window_chunks: p.window_chunks,
        ..SpillConfig::default()
    };
    generate_with(p, Some(config))
}

/// Generate the *same* instance (same seed, same rows) with `R` on the
/// heap — the bit-identical oracle for equivalence assertions.
pub fn generate_mem(p: &OocParams) -> OocData {
    generate_with(p, None)
}

/// Pose the triangle count as a FAQ over `data` and evaluate it with
/// `threads` workers along the fixed ordering `(a, b, c)` — every factor's
/// schema already follows it, so the spilled `R` is never realigned.
pub fn count_triangles(data: &OocData, threads: usize) -> u64 {
    let q = FaqQuery::new(
        CountDomain,
        data.domains.clone(),
        vec![],
        vec![
            (v(0), VarAgg::Semiring(CountDomain::SUM)),
            (v(1), VarAgg::Semiring(CountDomain::SUM)),
            (v(2), VarAgg::Semiring(CountDomain::SUM)),
        ],
        vec![data.r.clone(), data.s.clone(), data.t.clone()],
    )
    .expect("triangle query is a valid FAQ");
    let sigma: Vec<Var> = vec![v(0), v(1), v(2)];
    let policy = ExecPolicy::with_threads(threads).min_chunk_rows(1024);
    let out =
        Engine::with_policy(policy).evaluate_with_order(&q, &sigma).expect("evaluation succeeds");
    out.factor.get(&[]).copied().unwrap_or(0)
}

/// Results of one out-of-core run.
#[derive(Debug, Clone)]
pub struct OocReport {
    /// Rows of `R`.
    pub rows: usize,
    /// Bytes of `R`'s chunk file on disk.
    pub file_bytes: usize,
    /// The configured resident cap.
    pub cap_bytes: usize,
    /// Peak bytes of simultaneously pinned chunks during evaluation.
    pub peak_pinned: usize,
    /// Chunks faulted in from disk during evaluation.
    pub reads: u64,
    /// The counted triangles (== planted).
    pub triangles: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Generation wall time, seconds.
    pub gen_secs: f64,
    /// Evaluation (trie build + join) wall time, seconds.
    pub eval_secs: f64,
}

/// Generate and evaluate one instance, asserting the out-of-core claims:
/// the relation is ≥ 4× the cap, the peak pinned chunk window stays under
/// the cap, and the count equals the planted number of triangles.
pub fn run(p: &OocParams) -> OocReport {
    let t0 = Instant::now();
    let data = generate(p);
    let gen_secs = t0.elapsed().as_secs_f64();
    let stats = data.r.spill_stats().expect("R is spilled");
    assert!(
        stats.file_bytes >= 4 * p.cap_bytes,
        "R must dwarf the cap: {} file bytes vs {} cap",
        stats.file_bytes,
        p.cap_bytes
    );
    reset_peak_pinned_bytes();
    let reads0 = chunk_reads();
    let t1 = Instant::now();
    let triangles = count_triangles(&data, p.threads);
    let eval_secs = t1.elapsed().as_secs_f64();
    let peak_pinned = peak_pinned_bytes();
    assert!(
        peak_pinned <= p.cap_bytes,
        "peak pinned chunk bytes {} exceeded the {}-byte resident cap",
        peak_pinned,
        p.cap_bytes
    );
    assert_eq!(triangles, data.planted as u64, "count must equal the planted triangles");
    OocReport {
        rows: p.rows,
        file_bytes: stats.file_bytes,
        cap_bytes: p.cap_bytes,
        peak_pinned,
        reads: chunk_reads() - reads0,
        triangles,
        threads: p.threads,
        gen_secs,
        eval_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_instance_counts_planted_triangles_within_cap() {
        let mut p = OocParams::smoke();
        p.rows = 200_000;
        p.nodes = 2048;
        p.cap_bytes = 700 << 10;
        p.chunk_rows = 1024;
        p.planted = 64;
        let report = run(&p);
        assert_eq!(report.triangles, 64);
        assert!(report.peak_pinned <= p.cap_bytes);
        assert!(report.file_bytes >= 4 * p.cap_bytes);
        // The spilled count agrees with the identical in-memory instance
        // at every thread count.
        let mem = generate_mem(&p);
        assert_eq!(mem.planted, 64);
        for threads in [1, 4] {
            assert_eq!(count_triangles(&mem, threads), 64);
        }
    }
}
