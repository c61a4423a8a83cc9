//! Output representations beyond the listing (paper §8.4).
//!
//! Runs InsideOut's elimination phases only, keeps the output in factorized
//! form (value factors + guards), and demonstrates: O~(1) value queries,
//! support membership, streaming enumeration, and materialization — without
//! ever paying for the full output unless asked.
//!
//! Run with: `cargo run --example factorized_output`

use faq::core::output::FactorizedOutput;
use faq::core::{FaqQuery, VarAgg};
use faq::factor::{Domains, Factor};
use faq::hypergraph::Var;
use faq::semiring::CountDomain;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn main() {
    // A 3-attribute join with one summed-out variable:
    // ϕ(x0, x1, x2) = Σ_{x3} R(x0,x1) S(x1,x2) T(x2,x3).
    let mut rng = StdRng::seed_from_u64(1);
    let d = 16u32;
    let mk = |rng: &mut StdRng, a: u32, b: u32, n: usize| {
        let mut tuples = std::collections::BTreeSet::new();
        for _ in 0..n {
            tuples.insert(vec![rng.gen_range(0..d), rng.gen_range(0..d)]);
        }
        Factor::new(vec![Var(a), Var(b)], tuples.into_iter().map(|t| (t, 1u64)).collect()).unwrap()
    };
    let r = mk(&mut rng, 0, 1, 60);
    let s = mk(&mut rng, 1, 2, 60);
    let t = mk(&mut rng, 2, 3, 60);
    let q = FaqQuery::new(
        CountDomain,
        Domains::uniform(4, d),
        vec![Var(0), Var(1), Var(2)],
        vec![(Var(3), VarAgg::Semiring(CountDomain::SUM))],
        vec![r, s, t],
    )
    .unwrap();

    let fo = FactorizedOutput::compute(&q).expect("elimination succeeds");
    println!(
        "factorized output: {} value factor(s), {} guard(s), free order {:?}",
        fo.value_factors.len(),
        fo.guards.len(),
        fo.free_order
    );

    // Value queries without materializing.
    let probe = [0u32, 0, 0];
    match fo.value_query(&probe, 1u64, |a, b| a * b) {
        Some(v) => println!("ϕ{probe:?} = {v}"),
        None => println!("ϕ{probe:?} = 0 (not in the output)"),
    }

    // Enumeration with bounded delay: print the first five tuples, each
    // value checked against a point query.
    println!("first five output tuples (lexicographic):");
    let mut shown = 0;
    fo.for_each(
        1u64,
        |a, b| a * b,
        |&x| x == 0,
        |tuple, val| {
            if shown < 5 {
                assert_eq!(fo.value_query(tuple, 1u64, |a, b| a * b), Some(val));
                println!("  {tuple:?} → {val}");
                shown += 1;
            }
        },
    );

    // Materialize and compare sizes.
    let listing = fo.materialize(1u64, |a, b| a * b, |&x| x == 0);
    let factorized_rows: usize =
        fo.value_factors.iter().chain(fo.guards.iter()).map(|f| f.len()).sum();
    println!(
        "listing representation: {} rows; factorized form stores {} rows total",
        listing.len(),
        factorized_rows
    );
}
