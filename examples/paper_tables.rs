//! Regenerate the tables and figures of the FAQ paper on laptop-scale
//! workloads: Table 1's rows, Example 5.6's ordering gap, the §7.2.1 width
//! comparison, β-acyclic SAT/#SAT and the Lemma 8.7 composition gap.
//!
//! The claims are *shapes* (fitted exponents, who beats whom), not absolute
//! times; performance numbers come from `benchmark/` only. Every `agree`
//! column is asserted, so the program fails when the paper does.
//!
//! Run with: `cargo run --release --example paper_tables [-- --fast]`

use faq::apps::{cq, joins, matrix, pgm, qcq};
use faq::cnf;
use faq::core::width::{faqw_exact, faqw_of_ordering};
use faq::core::{QueryShape, Tag};
use faq::hypergraph::{compose, ordering as hord, VarSet};
use faq::join::pairwise_hash_join;
use faq::semiring::Complex64;
use faq::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() {
    let mut fast = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--fast" => fast = true,
            _ => {
                eprintln!("unknown argument {arg:?}\nusage: paper_tables [--fast]");
                std::process::exit(2);
            }
        }
    }
    let square_law: Vec<(f64, f64)> = (1..6).map(|i| (i as f64, (i * i) as f64)).collect();
    assert!((scaling_exponent(&square_law) - 2.0).abs() < 1e-9, "exponent fit is broken");

    let iters = if fast { 1 } else { 3 };
    println!("# FAQ paper reproduction — measured tables\n");
    println!("(median of {iters} runs per cell; shapes, not absolute numbers, are the claim)\n");
    t1_joins(iters, fast);
    t1_logic(iters, fast);
    t1_pgm(iters, fast);
    t1_mcm(iters, fast);
    t1_dft(iters, fast);
    ex56(iters, fast);
    width_table();
    sat_tables(iters, fast);
    composition_table();
}

/// Deterministic RNG for reproducible workloads.
fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Median wall-clock time of `iters` runs of `f`, in seconds.
fn time_median<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
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
fn scaling_exponent(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2);
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
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
    let mk_atom = |r: &mut StdRng, a: u32, b: u32| {
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
        domains: Domains::uniform(chain_len, d),
        free: vec![Var(0)],
        prefix: quants.clone(),
        atoms: atoms.clone(),
    };
    let t_fast = time_median(iters, || q.count().unwrap());
    let t_naive = time_median(1, || q.count_naive().unwrap());
    let agree = q.count().unwrap() == q.count_naive().unwrap();
    println!("| #QCQ | {chain_len} | {n_atom_tuples} | {t_fast:.5} | {t_naive:.5} | {agree} |");
    assert!(agree, "#QCQ: InsideOut count differs from naive enumeration");

    // QCQ sentence
    let qs = qcq::QuantifiedCq {
        domains: Domains::uniform(chain_len, d),
        free: vec![],
        prefix: std::iter::once((Var(0), qcq::Quantifier::ForAll)).chain(quants).collect(),
        atoms: atoms.clone(),
    };
    let t_fast = time_median(iters, || qs.holds().unwrap());
    println!("| QCQ | {chain_len} | {n_atom_tuples} | {t_fast:.5} | – | – |");

    // #CQ
    let c = cq::ConjunctiveQuery {
        domains: Domains::uniform(chain_len, d),
        free: vec![Var(0), Var(chain_len as u32 - 1)],
        exists: (1..chain_len as u32 - 1).map(Var).collect(),
        atoms,
    };
    let t_fast = time_median(iters, || c.count_answers().unwrap());
    let t_naive = time_median(1, || c.count_answers_naive().unwrap());
    let agree = c.count_answers().unwrap() == c.count_answers_naive().unwrap();
    println!("| #CQ | {chain_len} | {n_atom_tuples} | {t_fast:.5} | {t_naive:.5} | {agree} |");
    assert!(agree, "#CQ: InsideOut count differs from naive enumeration");
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

/// The Example 5.6 query at scale `n`:
/// `ϕ = max_{x1} max_{x2} Π_{x3} Σ_{x4} max_{x5} max_{x6} ψ15 ψ25 ψ134 ψ236`
/// with `{0,1}`-valued factors of `Θ(n)` tuples (so that the idempotent
/// machinery applies and the orderings `(1..6)` vs `(5,1,2,3,4,6)` cost
/// `O(N²)` vs `O(N)`). The gap is a worst-case one (faqw 2 vs 1), so the
/// instance is AGM-tight for the input order: ψ15 and ψ25 put all their rows
/// on one x5 value, and `max_{x5} ψ15 ψ25` has `N²` support.
fn example_5_6_query(n: u32, seed: u64) -> FaqQuery<RealDomain> {
    let mut r = rng(seed);
    let dom3 = 2u32; // keep the product variable's domain small
    let domains = Domains::new(vec![2, n, n, dom3, n, n, n]);
    // Variables are 1-indexed as in the paper; Var(0) is unused filler with
    // domain 2 (the engine never touches it since it's not in the query).
    let v = Var;

    // ψ15, ψ25: every x_a beside x5 = 0. ψ134, ψ236: n random triples, with
    // the x3 column *complete* per (x1, x4) group often enough to survive
    // Π_{x3}.
    let star = |a: u32| {
        Factor::new(vec![v(a), v(5)], (0..n).map(|x| (vec![x, 0], 1.0f64)).collect()).unwrap()
    };
    let psi15 = star(1);
    let psi25 = star(2);
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

/// Example 5.6: effect of the variable ordering (O(N²) vs O(N)). Asserts
/// that the seek gap widens with N, as a quadratic over a linear count does.
fn ex56(iters: usize, fast: bool) {
    println!("## E5.6 Ordering effect — input order (1..6) vs (5,1,2,3,4,6)\n");
    println!("| N | t(input order) s | t(good order) s | seeks input | seeks good |");
    println!("|---|---|---|---|---|");
    let sizes: &[u32] = if fast { &[100, 200] } else { &[250, 500, 1000] };
    let input_order: Vec<Var> = (1..=6u32).map(Var).collect();
    let good_order: Vec<Var> = [5u32, 1, 2, 3, 4, 6].map(Var).to_vec();
    let mut in_pts = Vec::new();
    let mut good_pts = Vec::new();
    let mut gaps = Vec::new();
    for &n in sizes {
        let q = example_5_6_query(n, 99);
        let run = |order: &[Var]| Engine::sequential().evaluate_with_order(&q, order).unwrap();
        let t_in = time_median(iters, || run(&input_order));
        let t_good = time_median(iters, || run(&good_order));
        let (out_in, out_good) = (run(&input_order), run(&good_order));
        assert_eq!(out_in.factor, out_good.factor, "E5.6 n={n}: the orderings disagree");
        let (s_in, s_good) = (out_in.stats.total_seeks(), out_good.stats.total_seeks());
        println!("| {n} | {t_in:.5} | {t_good:.5} | {s_in} | {s_good} |");
        assert!(s_in > s_good, "E5.6 n={n}: input order {s_in} seeks vs good {s_good}");
        gaps.push(s_in as f64 / s_good as f64);
        in_pts.push((n as f64, t_in.max(1e-7)));
        good_pts.push((n as f64, t_good.max(1e-7)));
    }
    println!(
        "\nfitted exponents: input ≈ N^{:.2}, good ≈ N^{:.2}\n",
        scaling_exponent(&in_pts),
        scaling_exponent(&good_pts)
    );
    let widened = gaps[gaps.len() - 1] / gaps[0];
    assert!(widened > 1.4, "E5.6: the seek gap did not widen with N: {gaps:?}");
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
        // Brute force is 2^n: beyond n = 20 the row is timing only.
        let (t_brute, agree) = if n <= 20 {
            let t = time_median(1, || cnf::brute_force_count(&f));
            let brute = cnf::brute_force_count(&f) as f64;
            let fastc = cnf::count_beta_acyclic(&f).unwrap();
            let agree = (brute - fastc).abs() < 1e-3 * (1.0 + brute);
            assert!(agree, "#SAT n={n}: elimination counted {fastc}, brute force {brute}");
            (format!("{t:.5}"), "true")
        } else {
            ("–".into(), "–")
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
    assert!((w - 1.5).abs() < 1e-9, "triangle faqw(σ) must be ρ* = 3/2");
}
