//! End-to-end application tests spanning crates, via the facade only.

use faq::apps::{cq, csp, joins, matrix, pgm, qcq};
use faq::cnf;
use faq::hypergraph::Var;
use faq::semiring::Complex64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn triangle_counts_match_edge_iterator() {
    // Ground truth: count ordered triangles by enumeration over edges.
    let mut rng = StdRng::seed_from_u64(55);
    for _ in 0..5 {
        let n = 12u32;
        let edges = joins::random_graph(n, 40, &mut rng);
        let eset: std::collections::BTreeSet<(u32, u32)> = edges.iter().copied().collect();
        let mut expect = 0u64;
        for &(a, b) in &edges {
            for c in 0..n {
                if eset.contains(&(b, c)) && eset.contains(&(a, c)) {
                    expect += 1;
                }
            }
        }
        let q = joins::triangle_query(&edges, n);
        assert_eq!(q.count().unwrap(), expect);
    }
}

#[test]
fn yannakakis_on_acyclic_joins_touches_little() {
    // An acyclic path join with an empty end relation: the guard phase must
    // keep the output join from exploring dead branches.
    let n = 50u32;
    let full: Vec<(u32, u32)> = (0..n).flat_map(|i| [(i, (i + 1) % n), (i, (i + 2) % n)]).collect();
    let mut q = joins::path_query(&full, n, 3);
    // Empty the last relation: output is empty.
    q.relations[2] = joins::Relation::new(q.relations[2].vars.clone(), vec![]);
    let out = q.evaluate().unwrap();
    assert_eq!(out.factor.len(), 0);
    // The final output join should visit no nodes beyond the roots since the
    // guards are empty.
    let oj = out.stats.output_join.unwrap();
    assert!(oj.matches == 0);
}

#[test]
fn cq_counts_are_consistent_across_formulations() {
    let mut rng = StdRng::seed_from_u64(77);
    let d = 3u32;
    let mk = |rng: &mut StdRng, a: u32, b: u32| {
        let mut tuples = Vec::new();
        for _ in 0..10 {
            tuples.push(vec![rng.gen_range(0..d), rng.gen_range(0..d)]);
        }
        tuples.sort();
        tuples.dedup();
        cq::Atom { vars: vec![Var(a), Var(b)], tuples }
    };
    for _ in 0..10 {
        let q = cq::ConjunctiveQuery {
            domains: faq::factor::Domains::uniform(4, d),
            free: vec![Var(0)],
            exists: vec![Var(1), Var(2), Var(3)],
            atoms: vec![mk(&mut rng, 0, 1), mk(&mut rng, 1, 2), mk(&mut rng, 2, 3)],
        };
        let by_count = q.count_answers().unwrap();
        let by_eval = q.evaluate().unwrap().len() as u64;
        let by_naive = q.count_answers_naive().unwrap();
        assert_eq!(by_count, by_eval);
        assert_eq!(by_count, by_naive);
    }
}

#[test]
fn qcq_quantifier_order_matters() {
    // ∀x0 ∃x1 E vs ∃x1 ∀x0 E on a relation where they differ:
    // E = {(0,0),(1,1)}: ∀∃ holds, ∃∀ fails.
    let e = cq::Atom { vars: vec![Var(0), Var(1)], tuples: vec![vec![0, 0], vec![1, 1]] };
    let fe = qcq::QuantifiedCq {
        domains: faq::factor::Domains::uniform(2, 2),
        free: vec![],
        prefix: vec![(Var(0), qcq::Quantifier::ForAll), (Var(1), qcq::Quantifier::Exists)],
        atoms: vec![e.clone()],
    };
    assert!(fe.holds().unwrap());
    let ef = qcq::QuantifiedCq {
        domains: faq::factor::Domains::uniform(2, 2),
        free: vec![],
        prefix: vec![(Var(1), qcq::Quantifier::Exists), (Var(0), qcq::Quantifier::ForAll)],
        atoms: vec![e],
    };
    assert!(!ef.holds().unwrap());
}

#[test]
fn pgm_conditioned_map_is_consistent() {
    let mut rng = StdRng::seed_from_u64(6);
    let model = pgm::random_grid(2, 3, 3, &mut rng);
    let (assignment, map_val) = model.map_assignment().unwrap();
    // Brute-force the best assignment and compare values.
    let brute = model.map_value_naive().unwrap();
    assert!((map_val - brute).abs() < 1e-9 * (1.0 + brute));
    assert!((model.score(&assignment) - brute).abs() < 1e-9 * (1.0 + brute));
}

#[test]
fn dft_inverse_roundtrip() {
    // DFT then inverse DFT (conjugate trick) recovers the input.
    let m = 6usize;
    let n = 1usize << m;
    let mut rng = StdRng::seed_from_u64(8);
    let input: Vec<Complex64> = (0..n)
        .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    let spectrum = matrix::dft_faq(2, m, &input).unwrap();
    // IDFT(x) = conj(DFT(conj(x))) / N.
    let conj: Vec<Complex64> = spectrum.iter().map(|z| z.conj()).collect();
    let back = matrix::dft_faq(2, m, &conj).unwrap();
    for (orig, b) in input.iter().zip(&back) {
        let recovered = Complex64::new(b.re / n as f64, -b.im / n as f64);
        assert!(recovered.approx_eq(orig, 1e-6), "{recovered:?} vs {orig:?}");
    }
}

#[test]
fn mcm_all_orderings_agree() {
    let mut rng = StdRng::seed_from_u64(9);
    let chain = matrix::MatrixChain {
        matrices: vec![
            matrix::Matrix::random(3, 5, &mut rng),
            matrix::Matrix::random(5, 2, &mut rng),
            matrix::Matrix::random(2, 6, &mut rng),
            matrix::Matrix::random(6, 4, &mut rng),
        ],
    };
    let reference = chain.evaluate_left_to_right();
    assert!(chain.evaluate().unwrap().max_diff(&reference) < 1e-9);
    assert!(chain.evaluate_dp().max_diff(&reference) < 1e-9);
    let order = chain.dp_variable_ordering();
    assert!(chain.evaluate_insideout(&order).unwrap().max_diff(&reference) < 1e-9);
}

#[test]
fn coloring_and_permanent_sanity() {
    // Petersen graph is 3-colorable but not 2-colorable.
    let petersen: Vec<(u32, u32)> = vec![
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 0),
        (5, 7),
        (7, 9),
        (9, 6),
        (6, 8),
        (8, 5),
        (0, 5),
        (1, 6),
        (2, 7),
        (3, 8),
        (4, 9),
    ];
    assert!(!csp::is_k_colorable(10, &petersen, 2).unwrap());
    assert!(csp::is_k_colorable(10, &petersen, 3).unwrap());
    // Permanent of a permutation matrix is 1.
    let p = vec![vec![0, 1, 0], vec![0, 0, 1], vec![1, 0, 0]];
    assert_eq!(csp::permanent(&p).unwrap(), 1);
}

#[test]
fn sharp_sat_agrees_with_faq_counting() {
    // Encode a small interval CNF both as a weighted-clause instance and as a
    // FAQ over the counting domain (listing blow-up) and compare counts.
    let mut rng = StdRng::seed_from_u64(10);
    for _ in 0..10 {
        let n = 6u32;
        let f = cnf::gen::random_interval_cnf(n, 8, 3, &mut rng);
        let weighted = cnf::count_beta_acyclic(&f).unwrap();
        let brute = cnf::brute_force_count(&f) as f64;
        assert!((weighted - brute).abs() < 1e-6 * (1.0 + brute));
        // And through the generic FAQ engine: clauses as listing factors.
        let count = cnf_as_faq_count(&f);
        assert!((count as f64 - brute).abs() < 0.5, "{count} vs {brute}");
    }
}

/// #SAT via the generic FAQ engine with clause factors in listing form
/// (exponential in clause width — fine for width ≤ 3).
fn cnf_as_faq_count(f: &cnf::Cnf) -> u64 {
    use faq::core::{Engine, FaqQuery, VarAgg};
    use faq::factor::{Domains, Factor};
    use faq::semiring::CountDomain;
    let mut factors = Vec::new();
    for clause in &f.clauses {
        let vars: Vec<Var> = clause.vars().into_iter().collect();
        let sizes = vec![2u32; vars.len()];
        let fac = Factor::dense(
            vars.clone(),
            &sizes,
            |t| {
                let sat = clause.lits().iter().any(|l| {
                    let pos = vars.iter().position(|v| *v == l.var).unwrap();
                    (t[pos] == 1) == l.positive
                });
                u64::from(sat)
            },
            |&x| x == 0,
        )
        .unwrap();
        factors.push(fac);
    }
    let q = FaqQuery::new(
        CountDomain,
        Domains::uniform(f.num_vars as usize, 2),
        vec![],
        (0..f.num_vars).map(|i| (Var(i), VarAgg::Semiring(CountDomain::SUM))).collect(),
        factors,
    )
    .unwrap();
    Engine::sequential().evaluate(&q).unwrap().scalar().copied().unwrap_or(0)
}
