//! The metric and workload tables: the single definition behind
//! `BENCHMARK.json` (a test keeps the two equal), the printed report,
//! `compare` and `selfcheck`.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
    /// A count that must repeat exactly between runs of one build.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound, exact: false }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: 0.0, exact: false }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: 0.0, exact: true }
}

use Better::{Higher, Lower};

pub const WORKLOADS: [(&str, &str); 6] = [
    ("tri_count", "sparse triangle count, scalar output: trie build and leapfrog seeks dominate, so a seek-kernel or cursor change must show here"),
    ("tri_list", "dense triangle listing, 244k output rows: builder, trie growth and chunk merge dominate, so a seek gain that costs the builder shows here"),
    ("plan_infer", "a round of four fresh small-data queries (three PGMs, Example 5.6): planning (candidate orderings and their cost model) is ~90% of the op, joins almost none"),
    ("ooc_count", "triangle count with R spilled to chunks behind a small LRU window: the one workload larger than the program's cache, chunk I/O dominates"),
    ("serve_read", "FaqServer, three queries in equal shares, cache bypassed, closed-loop capacity then fixed-rate open loop: queueing and reply cost on top of evaluation"),
    ("serve_write", "closed-loop publish_delta stream (1-row, 64-row, non-leading) under a 50 qps cached reader checked per epoch: delta replay and epoch publish, evaluation almost none"),
];

/// Every bound is the contract's ceiling, 0.25, because the reference host's
/// own noise floor asks for it: over five ten-seed studies the widest
/// quartile spreads were 16 % (`op_ms_p50`), 19 % (`op_ms_p90`), 17 %
/// (`ops_per_s`) and 15 % (`peak_rss_mb`), most of it the host shifting by
/// 10–20 % between runs. A bound under its metric's own spread would call
/// every comparison unresolved.
pub const END_TO_END: [Metric; 5] = [
    e2e("op_ms_p50", "ms", Lower, 0.25),
    e2e("op_ms_p90", "ms", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

pub const PER_LAYER: [Metric; 59] = [
    layer("core.plan_ms", "ms", Lower),
    layer("core.width_ms", "ms", Lower),
    layer("core.linex_ms", "ms", Lower),
    layer("core.plan_width_gap", "count", Lower),
    layer("core.est_over_actual_rows", "ratio", Lower),
    layer("core.prepare_ms", "ms", Lower),
    layer("core.eval_ms", "ms", Lower),
    exact("core.seeks_per_op", "count", Lower),
    exact("core.max_intermediate_rows", "count", Lower),
    layer("core.par_speedup", "ratio", Higher),
    layer("core.delta_apply_ms", "ms", Lower),
    layer("core.delta_nonleading_ms", "ms", Lower),
    layer("core.delta_vs_recompute", "ratio", Lower),
    layer("join.leapfrog_ms", "ms", Lower),
    exact("join.seeks", "count", Lower),
    exact("join.matches", "count", Higher),
    exact("join.nodes", "count", Lower),
    layer("join.ns_per_seek", "ns", Lower),
    layer("join.matches_per_seek", "ratio", Higher),
    layer("join.share_of_eval", "ratio", Lower),
    layer("factor.build_ms", "ms", Lower),
    layer("factor.trie_build_ms", "ms", Lower),
    layer("factor.reorder_ms", "ms", Lower),
    layer("factor.merge_ms", "ms", Lower),
    layer("factor.seek_warm_ns", "ns", Lower),
    layer("factor.seek_cold_ns", "ns", Lower),
    layer("factor.seek_vs_binary", "ratio", Lower),
    exact("factor.allocs_per_op", "count", Lower),
    layer("factor.delta_merge_ms", "ms", Lower),
    layer("factor.spill_write_mb_s", "MiB/s", Higher),
    exact("factor.chunk_reads_per_op", "count", Lower),
    layer("factor.read_amplification", "ratio", Lower),
    layer("factor.peak_pinned_mb", "MiB", Lower),
    layer("factor.spilled_vs_mem", "ratio", Lower),
    layer("factor.io_retries", "count", Lower),
    layer("factor.corrupt_chunks", "count", Lower),
    layer("hypergraph.rho_star_us", "us", Lower),
    layer("hypergraph.agm_bound_us", "us", Lower),
    layer("lp.solve_us", "us", Lower),
    exact("semiring.mul_ops_per_op", "count", Lower),
    exact("semiring.add_ops_per_op", "count", Lower),
    layer("serve.submit_us", "us", Lower),
    layer("serve.overhead_ms_p50", "ms", Lower),
    layer("serve.reported_latency_ms_p50", "ms", Lower),
    layer("serve.hit_us_p50", "us", Lower),
    layer("serve.read_during_write_us_p90", "us", Lower),
    layer("serve.cache_hit_share", "ratio", Higher),
    layer("serve.coalesced_share", "ratio", Higher),
    layer("serve.rejected", "count", Lower),
    layer("serve.deadline_exceeded", "count", Lower),
    layer("serve.panicked", "count", Lower),
    layer("serve.live_epochs_max", "count", Lower),
    layer("serve.resident_mb", "MiB", Lower),
    layer("serve.publish_small_ms", "ms", Lower),
    layer("serve.publish_batch_ms", "ms", Lower),
    layer("serve.publish_nonleading_ms", "ms", Lower),
    layer("driver.lateness_ms_p90", "ms", Lower),
    layer("driver.trace_overhead_share", "ratio", Lower),
    layer("driver.samples", "count", Higher),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

fn better(b: Better) -> Json {
    Json::Str(if b == Lower { "lower" } else { "higher" }.to_owned())
}

/// The contents of the root `BENCHMARK.json` (`run -- manifest` prints it).
pub fn manifest(run_seconds: u32) -> String {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::Str((*s).to_owned())).collect());
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, w)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                Json::Str((*n).into()),
                Json::Str((*w).into())
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": {}, \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.better),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": {}}}",
                m.name,
                m.unit,
                better(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        strs(&["bash", "benchmark/bench.sh"]),
        strs(&["benchmark"]),
        run_seconds,
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}
