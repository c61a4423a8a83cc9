//! Every size, count and rate of the benchmark, frozen. Nothing here is
//! re-derived from a measurement at run time: a faster program is offered
//! the same load, so its gain shows as lower latency, not as more load.
//! All sizing assumes the reference host's `nproc` = 2.

/// A random triangle catalog `R(0,1)`, `S(1,2)`, `T(0,2)`.
#[derive(Debug, Clone, Copy)]
pub struct TriParams {
    pub nodes: u32,
    /// Distinct pairs per relation.
    pub edges: usize,
    /// All three variables free (list triangles) instead of Σ-bound (count).
    pub list: bool,
}

/// Sparse graph, scalar output: the op is seeks and trie builds.
pub const TRI_COUNT: TriParams = TriParams { nodes: 4000, edges: 60_000, list: false };
/// Dense graph, ~244 k output rows: the op is builder, trie growth and merge.
pub const TRI_LIST: TriParams = TriParams { nodes: 128, edges: 8000, list: true };
/// The serving catalog is the `tri_count` instance.
pub const SERVE_CATALOG: TriParams = TRI_COUNT;

/// `plan_infer`: one round plans, prepares and evaluates these four.
pub const GRID_A: (u32, u32, u32) = (3, 3, 4);
pub const GRID_B: (u32, u32, u32) = (2, 3, 4);
pub const TREE: (u32, u32) = (10, 4);
pub const EXAMPLE_5_6_N: u32 = 1000;

/// `ooc_count`: `R` spilled in `chunk_rows`-row chunks behind a
/// `window_chunks`-chunk LRU window per column, far smaller than `R`.
pub const OOC_ROWS: usize = 1_000_000;
pub const OOC_NODES: u32 = 4096;
pub const OOC_PLANTED: usize = 512;
pub const OOC_CHUNK_ROWS: usize = 4096;
pub const OOC_WINDOW_CHUNKS: usize = 8;
/// Engine threads of the `ooc_count` op. One, not `nproc`: with two chunk
/// workers sharing each 8-chunk LRU window the one-shot engine is bimodal
/// across instances (seeds 6 and 10 ran 370 and 284 ms per op against 108 ms
/// for the other eight), and a bimodal workload cannot carry a bound. The
/// traced run's `factor.spilled_vs_mem` still runs at `nproc` and shows it.
pub const OOC_THREADS: usize = 1;

/// Share of `--seconds` that `serve_read` spends in the closed-loop phase A;
/// the rest is the open-loop phase B.
pub const SERVE_CLOSED_SHARE: f64 = 0.4;
/// Requests outstanding per worker in phase A. The server deals requests to
/// workers round-robin, so with exactly one per worker a finished worker
/// often idles while its next request queues behind the other's; two per
/// worker keep every queue fed, and the measured capacity steady.
pub const SERVE_CLOSED_DEPTH: usize = 2;
/// Phase B arrival rate: half of phase A's `ops_per_s` on the reference host
/// at the commit that added the benchmark, rounded to 5 qps, then frozen.
pub const SERVE_OPEN_QPS: f64 = 35.0;
/// An open-loop answer later than this after it was due counts as failed.
/// Thirty median latencies: a queue that grows passes it within seconds,
/// while the sandbox's stalls (one request in 7500 ran past 250 ms) do not.
pub const SERVE_LIMIT_MS: f64 = 1000.0;
/// `serve_write`'s background reader, open loop, `CacheMode::Shared`.
pub const SERVE_READER_QPS: f64 = 50.0;
/// Rows in `serve_write`'s batch delta.
pub const SERVE_BATCH_ROWS: usize = 64;
/// Admission cap: high enough that the frozen load is never refused.
pub const SERVE_MAX_IN_FLIGHT: usize = 4096;

/// How long the collector sleeps between polls of pending tickets. It bounds
/// what polling adds to a measured latency and keeps the collector's share
/// of a core negligible.
pub const POLL_INTERVAL_US: u64 = 200;

/// Set-up is repeated until this many runs and this much time are spent, and
/// the median is reported, so a cheap set-up is not one noisy sample.
pub const SETUP_MIN_RUNS: usize = 3;
pub const SETUP_MAX_RUNS: usize = 30;
pub const SETUP_MIN_SECS: f64 = 3.0;

/// Untimed ops run at the end of set-up.
pub const WARMUP_OPS: usize = 2;

/// The held-out seed: never used while a change is written.
pub const HELD_OUT_SEED: u64 = 2;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u32 = 15;
