//! Regenerate the tables and figures of the FAQ paper on laptop-scale
//! workloads. Output is recorded in `EXPERIMENTS.md`.
//!
//! Usage: `cargo run -p faq_bench --release --bin paper_tables [--fast] [--threads N] [--json [PATH]]`
//!
//! `--threads N` sets the worker-pool size of the parallel-engine table
//! (default: the host's available parallelism). `--json` additionally writes
//! the hot-path (H1), incremental-delta (D1), serving (M1), seek-kernel
//! (S1) and out-of-core (O1) tables as machine-readable JSON — the per-PR
//! perf trajectory CI uploads as an artifact — to `PATH` (default
//! `BENCH_9.json`).

use faq_apps::{cq, joins, matrix, pgm, qcq};
use faq_bench::{example_5_6_good_order, example_5_6_input_order, example_5_6_query};
use faq_bench::{rng, scaling_exponent, time_median};
use faq_cnf as cnf;
use faq_core::width::{faqw_exact, faqw_of_ordering};
use faq_core::{Engine, ExecPolicy, QueryShape, Tag};
use faq_hypergraph::{compose, ordering as hord, Var, VarSet};
use faq_join::pairwise_hash_join;
use faq_semiring::{AggId, Complex64};
use rand::Rng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let fast = args.iter().any(|a| a == "--fast");
    let threads = match args.iter().position(|a| a == "--threads") {
        Some(i) => {
            let value = args.get(i + 1).expect("--threads requires a value");
            match value.parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => panic!("--threads takes a positive integer, got {value:?}"),
            }
        }
        None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    };
    let json_path: Option<String> = args.iter().position(|a| a == "--json").map(|i| {
        args.get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "BENCH_9.json".to_string())
    });
    let iters = if fast { 1 } else { 3 };
    println!("# FAQ paper reproduction — measured tables\n");
    println!(
        "(median of {iters} runs per cell; shapes, not absolute numbers, are the claim; \
         parallel engine runs with {threads} thread(s))\n"
    );
    t1_joins(iters, fast);
    t1_logic(iters, fast);
    t1_pgm(iters, fast);
    t1_mcm(iters, fast);
    t1_dft(iters, fast);
    ex56(iters, fast);
    par_table(iters, fast, threads);
    plan_table(iters, fast);
    let delta_rows = delta_table(iters, fast);
    let serving_rows = serving_table(fast);
    let seek_rows = seek_table(iters, fast);
    let ooc_rows = ooc_table(fast);
    hot_table(iters, fast, json_path.as_deref(), &delta_rows, &serving_rows, &seek_rows, &ooc_rows);
    width_table();
    sat_tables(iters, fast);
    composition_table();
}

/// Table 1, row "Joins": triangle query, InsideOut/LFTJ vs pairwise hash join.
fn t1_joins(iters: usize, fast: bool) {
    println!("## T1.4 Joins — triangle query (InsideOut ~ N^1.5 vs pairwise ~ N^2)\n");
    println!("| N (edges) | insideout (s) | hash-join (s) | out rows |");
    println!("|---|---|---|---|");
    let sizes: &[u32] = if fast { &[200, 400] } else { &[250, 500, 1000, 2000, 4000] };
    let mut io_pts = Vec::new();
    let mut hj_pts = Vec::new();
    for &m in sizes {
        // Skewed hub instance: pairwise plans materialize Θ(N²).
        let edges = joins::skewed_triangle_instance(m / 2);
        let q = joins::triangle_query(&edges, m / 2);
        let t_io = time_median(iters, || q.evaluate().unwrap());
        let factors: Vec<_> = q.relations.iter().map(|r| r.to_factor()).collect();
        let refs: Vec<&_> = factors.iter().collect();
        let t_hj = time_median(iters, || pairwise_hash_join(&refs, |a, b| a * b, |&x| x == 0));
        let rows = q.evaluate().unwrap().factor.len();
        println!("| {} | {:.5} | {:.5} | {} |", edges.len(), t_io, t_hj, rows);
        io_pts.push((edges.len() as f64, t_io.max(1e-7)));
        hj_pts.push((edges.len() as f64, t_hj.max(1e-7)));
    }
    println!(
        "\nfitted exponents: insideout ≈ N^{:.2}, hash-join ≈ N^{:.2}\n",
        scaling_exponent(&io_pts),
        scaling_exponent(&hj_pts)
    );
}

/// Table 1, rows #QCQ / QCQ / #CQ: InsideOut vs full enumeration.
fn t1_logic(iters: usize, fast: bool) {
    println!("## T1.1–T1.3 Logic — #QCQ, QCQ, #CQ (InsideOut vs naive enumeration)\n");
    println!("| problem | vars | N | insideout (s) | naive (s) | agree |");
    println!("|---|---|---|---|---|---|");
    let n_atom_tuples = if fast { 50 } else { 200 };
    let chain_len = if fast { 6 } else { 8 };
    let mut r = rng(42);
    // Chain #QCQ: free head + alternating ∃/∀ down a chain, domain 3.
    let d = 3u32;
    let mk_atom = |r: &mut rand::rngs::StdRng, a: u32, b: u32| {
        let mut tuples: Vec<Vec<u32>> = Vec::new();
        for _ in 0..n_atom_tuples {
            tuples.push(vec![r.gen_range(0..d), r.gen_range(0..d)]);
        }
        tuples.sort();
        tuples.dedup();
        cq::Atom { vars: vec![Var(a), Var(b)], tuples }
    };
    let atoms: Vec<cq::Atom> =
        (0..chain_len - 1).map(|i| mk_atom(&mut r, i as u32, i as u32 + 1)).collect();

    // #QCQ
    let quants: Vec<(Var, qcq::Quantifier)> = (1..chain_len as u32)
        .map(|i| {
            (Var(i), if i % 2 == 1 { qcq::Quantifier::Exists } else { qcq::Quantifier::ForAll })
        })
        .collect();
    let q = qcq::QuantifiedCq {
        domains: faq_factor::Domains::uniform(chain_len, d),
        free: vec![Var(0)],
        prefix: quants.clone(),
        atoms: atoms.clone(),
    };
    let t_fast = time_median(iters, || q.count().unwrap());
    let t_naive = time_median(1, || q.count_naive().unwrap());
    let agree = q.count().unwrap() == q.count_naive().unwrap();
    println!("| #QCQ | {chain_len} | {n_atom_tuples} | {t_fast:.5} | {t_naive:.5} | {agree} |");

    // QCQ sentence
    let qs = qcq::QuantifiedCq {
        domains: faq_factor::Domains::uniform(chain_len, d),
        free: vec![],
        prefix: std::iter::once((Var(0), qcq::Quantifier::ForAll)).chain(quants).collect(),
        atoms: atoms.clone(),
    };
    let t_fast = time_median(iters, || qs.holds().unwrap());
    println!("| QCQ | {chain_len} | {n_atom_tuples} | {t_fast:.5} | – | – |");

    // #CQ
    let c = cq::ConjunctiveQuery {
        domains: faq_factor::Domains::uniform(chain_len, d),
        free: vec![Var(0), Var(chain_len as u32 - 1)],
        exists: (1..chain_len as u32 - 1).map(Var).collect(),
        atoms,
    };
    let t_fast = time_median(iters, || c.count_answers().unwrap());
    let t_naive = time_median(1, || c.count_answers_naive().unwrap());
    let agree = c.count_answers().unwrap() == c.count_answers_naive().unwrap();
    println!("| #CQ | {chain_len} | {n_atom_tuples} | {t_fast:.5} | {t_naive:.5} | {agree} |");
    println!();
}

/// Table 1, rows Marginal / MAP: chain & grid PGMs, InsideOut vs brute force.
fn t1_pgm(iters: usize, fast: bool) {
    println!("## T1.5–T1.6 PGM — marginal & MAP (InsideOut vs brute force)\n");
    println!("| model | vars | d | marginal (s) | MAP (s) | brute (s) |");
    println!("|---|---|---|---|---|---|");
    let mut r = rng(7);
    let configs: &[(&str, usize, usize, u32)] =
        if fast { &[("chain", 8, 1, 3)] } else { &[("chain", 12, 1, 4), ("grid3xC", 4, 3, 3)] };
    for &(name, a, b, d) in configs {
        let model = if name == "chain" {
            pgm::random_chain(a, d, &mut r)
        } else {
            pgm::random_grid(b, a, d, &mut r)
        };
        let n = model.num_vars();
        let t_marg = time_median(iters, || model.partition_function().unwrap());
        let t_map = time_median(iters, || model.map_value().unwrap());
        let t_brute = time_median(1, || model.map_value_naive().unwrap());
        println!("| {name} | {n} | {d} | {t_marg:.5} | {t_map:.5} | {t_brute:.5} |");
    }
    println!();
}

/// Table 1, row MCM: matrix chain — DP-optimal ordering vs worst ordering.
fn t1_mcm(iters: usize, fast: bool) {
    println!("## T1.7 MCM — matrix chain (DP-optimal FAQ ordering vs left-to-right)\n");
    println!("| dims | dp cost | io(dp order) s | io(input order) s | dense dp (s) |");
    println!("|---|---|---|---|---|");
    let n: usize = if fast { 24 } else { 64 };
    let mut r = rng(5);
    // 1 × n × 1 × n × 1 chain: optimal cost Θ(n), worst Θ(n²).
    let chain = matrix::MatrixChain {
        matrices: vec![
            matrix::Matrix::random(1, n, &mut r),
            matrix::Matrix::random(n, 1, &mut r),
            matrix::Matrix::random(1, n, &mut r),
            matrix::Matrix::random(n, 1, &mut r),
        ],
    };
    let (cost, _) = chain.dp_optimal();
    let dp_order = chain.dp_variable_ordering();
    let t_good = time_median(iters, || chain.evaluate_insideout(&dp_order).unwrap());
    let t_input = time_median(iters, || chain.evaluate().unwrap());
    let t_dense = time_median(iters, || chain.evaluate_dp());
    println!("| 1×{n}×1×{n}×1 | {cost} | {t_good:.5} | {t_input:.5} | {t_dense:.5} |");
    println!();
}

/// Table 1, row DFT: FAQ/FFT O(N log N) vs naive O(N²).
fn t1_dft(iters: usize, fast: bool) {
    println!("## T1.8 DFT — FAQ factorization (FFT) vs naive O(N²)\n");
    println!("| N = 2^m | faq-fft (s) | naive (s) |");
    println!("|---|---|---|");
    let ms: &[usize] = if fast { &[6, 8] } else { &[6, 8, 10, 12] };
    let mut fft_pts = Vec::new();
    let mut naive_pts = Vec::new();
    for &m in ms {
        let n = 1usize << m;
        let mut r = rng(m as u64);
        let input: Vec<Complex64> = (0..n)
            .map(|_| Complex64::new(r.gen_range(-1.0..1.0), r.gen_range(-1.0..1.0)))
            .collect();
        let t_fft = time_median(iters, || matrix::dft_faq(2, m, &input).unwrap());
        let t_naive = time_median(1, || matrix::naive_dft(&input));
        println!("| {n} | {t_fft:.5} | {t_naive:.5} |");
        fft_pts.push((n as f64, t_fft.max(1e-7)));
        naive_pts.push((n as f64, t_naive.max(1e-7)));
    }
    println!(
        "\nfitted exponents: faq-fft ≈ N^{:.2}, naive ≈ N^{:.2}\n",
        scaling_exponent(&fft_pts),
        scaling_exponent(&naive_pts)
    );
}

/// Example 5.6: effect of the variable ordering (O(N²) vs O(N)).
fn ex56(iters: usize, fast: bool) {
    println!("## E5.6 Ordering effect — input order (1..6) vs (5,1,2,3,4,6)\n");
    println!("| N | t(input order) s | t(good order) s | seeks input | seeks good |");
    println!("|---|---|---|---|---|");
    let sizes: &[u32] = if fast { &[100, 200] } else { &[250, 500, 1000, 2000] };
    let mut in_pts = Vec::new();
    let mut good_pts = Vec::new();
    for &n in sizes {
        let q = example_5_6_query(n, 99);
        let run = |order: Vec<Var>| Engine::sequential().evaluate_with_order(&q, &order).unwrap();
        let t_in = time_median(iters, || run(example_5_6_input_order()));
        let t_good = time_median(iters, || run(example_5_6_good_order()));
        let s_in = run(example_5_6_input_order()).stats.total_seeks();
        let s_good = run(example_5_6_good_order()).stats.total_seeks();
        println!("| {n} | {t_in:.5} | {t_good:.5} | {s_in} | {s_good} |");
        in_pts.push((n as f64, t_in.max(1e-7)));
        good_pts.push((n as f64, t_good.max(1e-7)));
    }
    println!(
        "\nfitted exponents: input ≈ N^{:.2}, good ≈ N^{:.2}\n",
        scaling_exponent(&in_pts),
        scaling_exponent(&good_pts)
    );
}

/// Parallel InsideOut: chunked factor kernels vs the sequential engine on the
/// random triangle join. Outputs are asserted bit-identical before timing.
fn par_table(iters: usize, fast: bool, threads: usize) {
    println!("## P1 Parallel InsideOut — triangle join, sequential vs {threads}-thread chunked\n");
    println!("| N (edges) | sequential (s) | parallel (s) | speedup | identical |");
    println!("|---|---|---|---|---|");
    let sizes: &[usize] = if fast { &[1000, 2000] } else { &[2000, 8000, 20000] };
    let policy = ExecPolicy::sequential().threads(threads).min_chunk_rows(64);
    let mut r = rng(17);
    for &m in sizes {
        let nodes = (4 * (m as f64).sqrt() as u32).max(8);
        let edges = joins::random_graph(nodes, m, &mut r);
        let q = joins::triangle_query(&edges, nodes);
        let seq = q.evaluate().unwrap();
        let par = q.evaluate_par(&policy).unwrap();
        let identical = par.factor == seq.factor;
        assert!(identical, "parallel output diverged from sequential at N={}", edges.len());
        let t_seq = time_median(iters, || q.evaluate().unwrap());
        let t_par = time_median(iters, || q.evaluate_par(&policy).unwrap());
        println!(
            "| {} | {t_seq:.5} | {t_par:.5} | {:.2}x | {identical} |",
            edges.len(),
            t_seq / t_par.max(1e-9)
        );
    }
    println!();
}

/// Cost-based planner: width-only ordering vs the cost-based plan, and cold
/// vs prepared evaluation, on the triangle join. Outputs are asserted
/// bit-identical before timing.
fn plan_table(iters: usize, fast: bool) {
    use faq_core::Planner;
    println!("## P2 Planner — width-only vs cost-based plan; cold vs prepared evaluation\n");
    println!(
        "| N (edges) | width-only order (s) | cost-based order (s) | cold: plan+prep+eval (s) | \
         prepared eval (s) | serve speedup | identical |"
    );
    println!("|---|---|---|---|---|---|---|");
    let sizes: &[usize] = if fast { &[1000, 2000] } else { &[2000, 8000, 20000] };
    let planner = Planner::sequential();
    let mut r = rng(29);
    for &m in sizes {
        let nodes = (4 * (m as f64).sqrt() as u32).max(8);
        let edges = joins::random_graph(nodes, m, &mut r);
        let q = joins::triangle_query(&edges, nodes);
        let faq = q.to_faq().unwrap();
        // Width-only baseline: the §7 optimizer's ordering, no data. Both
        // ordering columns run the same cold engine (per-call alignment and
        // index builds), so they isolate the ordering choice; the serving
        // columns then isolate the prepared handle's caching.
        let width_order = faqw_exact(&faq.shape(), 50_000).unwrap().order;
        let prepared = q.prepare_with(&planner).unwrap();
        let cost_order = prepared.plan().order.clone();
        let run = |order: &[Var]| Engine::sequential().evaluate_with_order(&faq, order).unwrap();
        let wo = run(&width_order);
        let cp = prepared.evaluate().unwrap();
        let identical = wo.factor == cp.factor;
        assert!(identical, "cost-based plan diverged at N={}", edges.len());
        let t_width = time_median(iters, || run(&width_order));
        let t_cost = time_median(iters, || run(&cost_order));
        let t_cold = time_median(iters, || {
            planner.prepare(&q.to_faq().unwrap()).unwrap().evaluate().unwrap()
        });
        let t_served = time_median(iters, || prepared.evaluate().unwrap());
        println!(
            "| {} | {t_width:.5} | {t_cost:.5} | {t_cold:.5} | {t_served:.5} | {:.2}x | {identical} |",
            edges.len(),
            t_cold / t_served.max(1e-9)
        );
    }
    println!();
}

/// D1: incremental delta evaluation — a 1-row point update (insert + delete
/// of the same absent edge) applied through `PreparedQuery::apply_delta`
/// (range-restricted replay over cached per-step intermediates) vs the
/// `update_factor` + full `evaluate` path, on the hot-path triangle
/// instances. Outputs are asserted bit-identical before timing; the returned
/// rows join H1's in the `--json` perf-trajectory file.
fn delta_table(iters: usize, fast: bool) -> Vec<(String, f64, f64)> {
    use faq_core::Planner;
    println!("## D1 Incremental updates — 1-row delta: apply_delta vs update + recompute\n");
    println!("| workload | apply_delta (ms) | update+recompute (ms) | speedup |");
    println!("|---|---|---|---|");
    let sizes: &[usize] = if fast { &[1000, 2000] } else { &[2000, 8000] };
    let planner = Planner::sequential();
    let mut rows = Vec::new();
    for (m, q) in faq_bench::hot_path::triangles(sizes) {
        let edge = faq_bench::hot_path::absent_edge(&q, 0);
        let ins = q.insert_delta(0, std::slice::from_ref(&edge));
        let del = q.delete_delta(0, std::slice::from_ref(&edge));
        let mut prepared = q.prepare_with(&planner).unwrap();
        let mut oracle = q.prepare_with(&planner).unwrap();
        let base = q.relations[0].to_factor();
        let mut with_edge = q.relations[0].clone();
        with_edge.tuples.push(edge);
        with_edge.tuples.sort();
        let with_edge = with_edge.to_factor();

        // Correctness before timing: both directions bit-identical.
        let after_ins = prepared.apply_delta(0, &ins).unwrap();
        oracle.update_factor(0, with_edge.clone()).unwrap();
        assert_eq!(after_ins.factor, oracle.evaluate().unwrap().factor);
        let after_del = prepared.apply_delta(0, &del).unwrap();
        oracle.update_factor(0, base.clone()).unwrap();
        assert_eq!(after_del.factor, oracle.evaluate().unwrap().factor);

        // Each timed pass is one insert + one delete, so both engines do real
        // work every round and the instance returns to its starting state.
        let t_delta = time_median(iters, || {
            (prepared.apply_delta(0, &ins).unwrap(), prepared.apply_delta(0, &del).unwrap())
        });
        let t_full = time_median(iters, || {
            oracle.update_factor(0, with_edge.clone()).unwrap();
            let up = oracle.evaluate().unwrap();
            oracle.update_factor(0, base.clone()).unwrap();
            (up, oracle.evaluate().unwrap())
        });
        println!(
            "| triangle_m{m} | {:.3} | {:.3} | {:.2}x |",
            t_delta * 1e3,
            t_full * 1e3,
            t_full / t_delta.max(1e-9)
        );
        rows.push((format!("triangle_m{m}"), t_delta * 1e3, t_full * 1e3));
    }
    println!();
    rows
}

/// H1: the hot-path perf trajectory — absolute wall-clock of the flat-row
/// InsideOut pipeline (PR 5) on the triangle / path4 / PGM-chain workloads
/// the `hot_path` bench measures, plus the conditional-query volume and
/// output size per workload. With `--json`, the same rows — plus the D1
/// incremental-delta, M1 serving, S1 seek-kernel and O1 out-of-core rows —
/// are written to a machine-readable file (`BENCH_9.json` by default) so CI
/// can archive one perf point per push.
fn hot_table(
    iters: usize,
    fast: bool,
    json_path: Option<&str>,
    delta_rows: &[(String, f64, f64)],
    serving_rows: &[faq_bench::serving::ServingReport],
    seek_rows: &[(String, f64, f64)],
    ooc_rows: &[faq_bench::out_of_core::OocReport],
) {
    println!("## H1 Hot path — flat-row InsideOut pipeline (perf trajectory)\n");
    println!("| workload | median (ms) | seeks | out rows |");
    println!("|---|---|---|---|");
    let policy = ExecPolicy::sequential();
    let mut entries: Vec<(String, f64, u64, usize)> = Vec::new();

    // Workloads shared with benches/hot_path.rs via faq_bench::hot_path —
    // one definition, so the JSON trajectory measures what the bench does.
    let tri_sizes: &[usize] = if fast { &[1000, 2000] } else { &[2000, 8000] };
    for (m, q) in faq_bench::hot_path::triangles(tri_sizes) {
        // One untimed pass reads the counters and warms the timing loop.
        let out = q.evaluate_par(&policy).unwrap();
        let t = time_median(iters, || q.evaluate_par(&policy).unwrap());
        entries.push((
            format!("triangle_m{m}"),
            t * 1e3,
            out.stats.total_seeks(),
            out.factor.len(),
        ));
    }
    let path_m = if fast { 300 } else { 800 };
    let q = faq_bench::hot_path::path4(path_m);
    let out = q.evaluate_par(&policy).unwrap();
    let t = time_median(iters, || q.evaluate_par(&policy).unwrap());
    entries.push((format!("path4_m{path_m}"), t * 1e3, out.stats.total_seeks(), out.factor.len()));

    // PGM chain marginal, evaluated as a plain FAQ over (ℝ₊, +, ×) along the
    // chain's own ordering so the seek counter is observable.
    let (n, d) = if fast { (16usize, 12u32) } else { (48, 48) };
    let (q, sigma) = faq_bench::hot_path::pgm_chain_marginal(n, d);
    let out = Engine::sequential().evaluate_with_order(&q, &sigma).unwrap();
    let t = time_median(iters, || Engine::sequential().evaluate_with_order(&q, &sigma).unwrap());
    entries.push((
        format!("pgm_chain_n{n}_d{d}"),
        t * 1e3,
        out.stats.total_seeks(),
        out.factor.len(),
    ));

    for (name, ms, seeks, rows) in &entries {
        println!("| {name} | {ms:.3} | {seeks} | {rows} |");
    }
    println!();

    if let Some(path) = json_path {
        // Record the run configuration: fast mode shrinks the workloads, so
        // trajectories are only comparable within the same mode.
        let mut s = format!(
            "{{\n  \"bench\": \"hot_path\",\n  \"fast\": {fast},\n  \"iters\": {iters},\n  \
             \"workloads\": [\n"
        );
        for (i, (name, ms, seeks, rows)) in entries.iter().enumerate() {
            let sep = if i + 1 < entries.len() { "," } else { "" };
            s.push_str(&format!(
                "    {{\"name\": \"{name}\", \"median_ms\": {ms:.3}, \"seeks\": {seeks}, \
                 \"rows\": {rows}}}{sep}\n"
            ));
        }
        s.push_str("  ],\n  \"delta\": [\n");
        for (i, (name, delta_ms, full_ms)) in delta_rows.iter().enumerate() {
            let sep = if i + 1 < delta_rows.len() { "," } else { "" };
            s.push_str(&format!(
                "    {{\"name\": \"{name}\", \"apply_delta_ms\": {delta_ms:.3}, \
                 \"recompute_ms\": {full_ms:.3}}}{sep}\n"
            ));
        }
        s.push_str("  ],\n  \"serving\": [\n");
        for (i, r) in serving_rows.iter().enumerate() {
            let sep = if i + 1 < serving_rows.len() { "," } else { "" };
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"tenants\": {}, \"workers\": {}, \
                 \"qps\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}{sep}\n",
                r.name, r.tenants, r.workers, r.qps, r.p50_ms, r.p99_ms
            ));
        }
        s.push_str("  ],\n  \"seek\": [\n");
        for (i, (name, binary_us, gallop_us)) in seek_rows.iter().enumerate() {
            let sep = if i + 1 < seek_rows.len() { "," } else { "" };
            s.push_str(&format!(
                "    {{\"name\": \"{name}\", \"binary_us\": {binary_us:.1}, \
                 \"gallop_us\": {gallop_us:.1}}}{sep}\n"
            ));
        }
        s.push_str("  ],\n  \"out_of_core\": [\n");
        for (i, r) in ooc_rows.iter().enumerate() {
            let sep = if i + 1 < ooc_rows.len() { "," } else { "" };
            s.push_str(&format!(
                "    {{\"rows\": {}, \"file_bytes\": {}, \"cap_bytes\": {}, \
                 \"peak_pinned_bytes\": {}, \"chunk_reads\": {}, \"eval_s\": {:.3}, \
                 \"threads\": {}}}{sep}\n",
                r.rows, r.file_bytes, r.cap_bytes, r.peak_pinned, r.reads, r.eval_secs, r.threads
            ));
        }
        s.push_str("  ]\n}\n");
        std::fs::write(path, s).expect("write the perf-trajectory JSON");
        println!("wrote perf trajectory to {path}\n");
    }
}

/// M1: the multi-tenant serving runtime (`faq_serve`) on the triangle
/// workload — open-loop qps and latency percentiles per tenant mix. The
/// 4-tenant bypass row is the headline (every request evaluates); the
/// shared row shows cross-tenant result reuse. Rows join the `--json` perf
/// trajectory as the `"serving"` array.
fn serving_table(fast: bool) -> Vec<faq_bench::serving::ServingReport> {
    use faq_serve::CacheMode;
    println!("## M1 Serving — multi-tenant runtime (epoch snapshots, worker pool)\n");
    println!("| workload | tenants | workers | requests | qps | p50 (ms) | p99 (ms) |");
    println!("|---|---|---|---|---|---|---|");
    let per_tenant = if fast { 16 } else { 60 };
    let mut reports = Vec::new();
    for (tenants, workers, cache) in
        [(4usize, 4usize, CacheMode::Bypass), (8, 4, CacheMode::Bypass), (4, 4, CacheMode::Shared)]
    {
        let r = faq_bench::serving::run_triangle_serving(2000, tenants, workers, per_tenant, cache);
        println!(
            "| {} | {} | {} | {} | {:.1} | {:.3} | {:.3} |",
            r.name, r.tenants, r.workers, r.requests, r.qps, r.p50_ms, r.p99_ms
        );
        reports.push(r);
    }
    println!();
    reports
}

/// S1: the seek-kernel microbench — plain binary search vs the branch-free
/// galloping kernel behind `VecStorage`, on the shared [`faq_bench::seek`]
/// workload (4096 probes per pass). `asc` models warm leapfrog traffic (the
/// hint carries between seeks); `rand` models cold first probes, where the
/// head-sample array does the narrowing. Checksums pin the two kernels to
/// identical answers before any timing; rows join the `--json` perf
/// trajectory as the `"seek"` array.
fn seek_table(iters: usize, fast: bool) -> Vec<(String, f64, f64)> {
    use faq_bench::seek;
    println!("## S1 Seek kernels — binary search vs branch-free galloping\n");
    println!("| level size | bounds | binary (µs) | gallop (µs) | speedup |");
    println!("|---|---|---|---|---|");
    let sizes: &[usize] = if fast { &[1 << 12] } else { &[1 << 12, 1 << 16] };
    let mut rows = Vec::new();
    for &n in sizes {
        let w = seek::workload(n, 4096, 77);
        for (pat, bounds, warm) in [("asc", &w.ascending, true), ("rand", &w.random, false)] {
            assert_eq!(
                seek::run_binary(&w.values, bounds),
                seek::run_gallop(&w.storage, bounds, warm),
                "gallop kernel diverged from binary search at n={n} pattern={pat}"
            );
            let t_bin = time_median(iters.max(3), || seek::run_binary(&w.values, bounds));
            let t_gal = time_median(iters.max(3), || seek::run_gallop(&w.storage, bounds, warm));
            println!(
                "| {n} | {pat} | {:.1} | {:.1} | {:.2}x |",
                t_bin * 1e6,
                t_gal * 1e6,
                t_bin / t_gal.max(1e-12)
            );
            rows.push((format!("n{n}_{pat}"), t_bin * 1e6, t_gal * 1e6));
        }
    }
    println!();
    rows
}

/// O1: out-of-core factors — triangle count over a file-chunked relation at
/// least 4× the configured resident cap ([`faq_bench::out_of_core`]). The
/// run itself asserts the claims (peak pinned chunk bytes under the cap,
/// count equal to the planted triangles); the row records how far under the
/// cap the resident window stayed. Rows join the `--json` perf trajectory
/// as the `"out_of_core"` array.
fn ooc_table(fast: bool) -> Vec<faq_bench::out_of_core::OocReport> {
    use faq_bench::out_of_core::{self, OocParams};
    println!("## O1 Out-of-core — spilled triangle count under a resident-memory cap\n");
    println!("| rows | file (MiB) | cap (MiB) | peak pinned (KiB) | chunk reads | eval (s) |");
    println!("|---|---|---|---|---|---|");
    let mut p = OocParams::smoke();
    if fast {
        p.rows = 200_000;
        p.nodes = 2048;
        p.planted = 64;
        p.cap_bytes = 700 << 10;
        p.chunk_rows = 1024;
    }
    let r = out_of_core::run(&p);
    println!(
        "| {} | {:.1} | {:.1} | {} | {} | {:.3} |",
        r.rows,
        r.file_bytes as f64 / (1 << 20) as f64,
        r.cap_bytes as f64 / (1 << 20) as f64,
        r.peak_pinned >> 10,
        r.reads,
        r.eval_secs
    );
    println!();
    vec![r]
}

/// §7.2.1: faqw vs Chen–Dalmau prefix width on the ∀…∀∃ family.
fn width_table() {
    println!("## W1 Width comparison — Chen–Dalmau family (faqw ≤ 2 vs PW = n+1)\n");
    println!("| n | prefix width (n+1) | faqw (exact) |");
    println!("|---|---|---|");
    for n in 2u32..=6 {
        let mut seq: Vec<(Var, Tag)> = (0..n).map(|i| (Var(i), Tag::Product)).collect();
        seq.push((Var(n), Tag::Semiring(AggId(1))));
        let mut edges = vec![(0..n).map(Var).collect::<VarSet>()];
        for i in 0..n {
            edges.push([Var(i), Var(n)].into_iter().collect());
        }
        let shape = QueryShape {
            seq,
            edges,
            mul_idempotent: true,
            closed_ops: [AggId(1)].into_iter().collect(),
        };
        let r = faqw_exact(&shape, 50_000).unwrap();
        println!("| {n} | {} | {:.3} |", n + 1, r.width);
    }
    println!();
}

/// §8.3: β-acyclic SAT / #SAT polynomial elimination vs 2^n brute force.
fn sat_tables(iters: usize, fast: bool) {
    println!("## S1–S2 β-acyclic SAT & #SAT — elimination vs 2^n brute force\n");
    println!("| n vars | clauses | DP-SAT (s) | #WSAT (s) | brute (s) | counts agree |");
    println!("|---|---|---|---|---|---|");
    let sizes: &[u32] = if fast { &[12, 16] } else { &[12, 16, 20, 24] };
    for &n in sizes {
        let mut r = rng(n as u64);
        let m = (n * 2) as usize;
        let f = cnf::gen::random_interval_cnf(n, m, 4, &mut r);
        let t_sat = time_median(iters, || cnf::sat_beta_acyclic(&f).unwrap());
        let t_count = time_median(iters, || cnf::count_beta_acyclic(&f).unwrap());
        let (t_brute, agree) = if n <= 20 {
            let t = time_median(1, || cnf::brute_force_count(&f));
            let brute = cnf::brute_force_count(&f) as f64;
            let fastc = cnf::count_beta_acyclic(&f).unwrap();
            (format!("{t:.5}"), (brute - fastc).abs() < 1e-3 * (1.0 + brute))
        } else {
            ("–".into(), true)
        };
        println!("| {n} | {m} | {t_sat:.5} | {t_count:.5} | {t_brute} | {agree} |");
    }
    println!();
}

/// §8.5: composition gap (Lemma 8.7) measured with exact fhtw.
fn composition_table() {
    println!("## C1 Composition — fhtw(H0∘H1) vs fhtw(H0)·max fhtw(H1e) (Lemma 8.7)\n");
    println!("| n | fhtw(H0) | max fhtw(H1e) | fhtw(H0∘H1) | clique bound n/2 |");
    println!("|---|---|---|---|---|");
    for n in 3u32..=5 {
        let (outer, inner) = compose::star_of_stars_gap(n);
        let w_outer = hord::fhtw(&outer, 12).width;
        let w_inner = inner.iter().map(|h| hord::fhtw(h, 12).width).fold(0.0, f64::max);
        let comp = compose::compose(&outer, &inner);
        let w_comp = hord::fhtw(&comp, 12).width;
        println!("| {n} | {w_outer:.2} | {w_inner:.2} | {w_comp:.2} | {:.1} |", n as f64 / 2.0);
    }
    println!();
    // Also report a faqw-of-ordering sanity row to tie the widths together.
    let shape = QueryShape {
        seq: vec![
            (Var(0), Tag::Semiring(AggId(0))),
            (Var(1), Tag::Semiring(AggId(0))),
            (Var(2), Tag::Semiring(AggId(0))),
        ],
        edges: vec![
            [Var(0), Var(1)].into_iter().collect(),
            [Var(0), Var(2)].into_iter().collect(),
            [Var(1), Var(2)].into_iter().collect(),
        ],
        mul_idempotent: false,
        closed_ops: Default::default(),
    };
    let w = faqw_of_ordering(&shape, &[Var(0), Var(1), Var(2)]).unwrap();
    println!("triangle FAQ-SS faqw(σ) check: {w:.2} (expected 1.50)\n");
}
