//! Reproduce the expression-tree figures of the paper (Figures 2–6).
//!
//! Prints the compressed expression trees of Example 6.2 (semiring
//! aggregates, Figures 2–3) and Example 6.19 (product aggregates, extended
//! components and the dangling node, Figures 4–6), plus the precedence poset
//! and a few equivalent-ordering checks.
//!
//! Run with: `cargo run --example expression_trees`

use faq::core::evo::{is_equivalent_ordering, linear_extensions};
use faq::core::{QueryShape, Tag};
use faq::hypergraph::{Var, VarSet};
use faq::semiring::AggId;

const SUM: Tag = Tag::Semiring(AggId(0));
const MAX: Tag = Tag::Semiring(AggId(1));

fn vs(ids: &[u32]) -> VarSet {
    ids.iter().map(|&i| Var(i)).collect()
}

fn main() {
    example_6_2();
    example_6_19();
    example_6_13();
}

/// Figures 2–3: ϕ = Σ1 Σ2 max3 Σ4 Σ5 max6 max7 ψ12 ψ135 ψ14 ψ246 ψ27 ψ37.
fn example_6_2() {
    println!("== Example 6.2 (Figures 2–3) ==");
    let shape = QueryShape {
        seq: vec![
            (Var(1), SUM),
            (Var(2), SUM),
            (Var(3), MAX),
            (Var(4), SUM),
            (Var(5), SUM),
            (Var(6), MAX),
            (Var(7), MAX),
        ],
        edges: vec![
            vs(&[1, 2]),
            vs(&[1, 3, 5]),
            vs(&[1, 4]),
            vs(&[2, 4, 6]),
            vs(&[2, 7]),
            vs(&[3, 7]),
        ],
        mul_idempotent: false,
        closed_ops: Default::default(),
    };
    println!("{}", shape.expr_tree());
    let (linex, complete) = linear_extensions(&shape, 10_000);
    println!("|LinEx(P)| = {} (complete: {complete})", linex.len());
    println!();
}

/// Figures 4–6: ϕ = max1 max2 Σ3 Σ4 Π5 max6 Π7 max8 (nine {0,1} factors).
fn example_6_19() {
    println!("== Example 6.19 (Figures 4–6) ==");
    let shape = QueryShape {
        seq: vec![
            (Var(1), MAX),
            (Var(2), MAX),
            (Var(3), SUM),
            (Var(4), SUM),
            (Var(5), Tag::Product),
            (Var(6), MAX),
            (Var(7), Tag::Product),
            (Var(8), MAX),
        ],
        edges: vec![
            vs(&[1, 3]),
            vs(&[2, 4]),
            vs(&[3, 4]),
            vs(&[1, 5]),
            vs(&[1, 6]),
            vs(&[2, 6]),
            vs(&[2, 5, 7]),
            vs(&[1, 6, 7]),
            vs(&[2, 7, 8]),
        ],
        mul_idempotent: true, // the F(D_I) promise: {0,1}-valued inputs
        closed_ops: [AggId(1)].into_iter().collect(),
    };
    println!("{}", shape.expr_tree());
    println!("note the dangling product node {{5,7}} and the copies of X7.");
    println!();
}

/// Example 6.13: EVO(ϕ) = {(1,2,3), (1,3,2), (3,1,2)}.
fn example_6_13() {
    println!("== Example 6.13: EVO membership ==");
    let shape = QueryShape {
        seq: vec![(Var(1), SUM), (Var(2), MAX), (Var(3), SUM)],
        edges: vec![vs(&[1, 2]), vs(&[1, 3])],
        mul_idempotent: false,
        closed_ops: Default::default(),
    };
    println!("{}", shape.expr_tree());
    // Screen all six permutations; exactly the three of the paper are in.
    let perms = [[1u32, 2, 3], [1, 3, 2], [3, 1, 2], [2, 1, 3], [3, 2, 1], [2, 3, 1]];
    let verdicts: Vec<bool> =
        perms.iter().map(|p| is_equivalent_ordering(&shape, &p.map(Var))).collect();
    for (perm, verdict) in perms.iter().zip(&verdicts) {
        println!("  {perm:?} ∈ EVO? {verdict}");
    }
    assert_eq!(verdicts, [true, true, true, false, false, false]);
}
