//! Helpers shared by the test suites (`mod common;` in each): the engine's
//! differential oracle ([`oracle`]: the one instance × configuration
//! generator and the checks it and the named edge cases share), the
//! fixed-support pair factors of the hand-written cases, and the cursor walk
//! and trie definition the storage suites check indexes with. Not every
//! suite uses every item.
#![allow(dead_code)]

pub mod oracle;

use faq::core::{FaqQuery, VarAgg};
use faq::factor::{Domains, Factor, FactorTrie, TrieCursor};
use faq::hypergraph::Var;
use faq::semiring::{CountDomain, SemiringElem};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Domain size of every variable of the hand-written cases.
pub const DOM: u32 = 4;

/// Decode a support bitmap over `DOM²` into a factor over `(a, b)`: cell `i`
/// is the tuple `(i / DOM, i % DOM)`, present when `support[i] > 0`, with
/// value `value_at(i)`.
pub fn pairs_factor<E: Clone + PartialEq + std::fmt::Debug + Send + Sync>(
    a: u32,
    b: u32,
    support: &[u32],
    mut value_at: impl FnMut(usize) -> E,
) -> Factor<E> {
    let tuples: Vec<(Vec<u32>, E)> = support
        .iter()
        .enumerate()
        .filter(|(_, &x)| x > 0)
        .map(|(i, _)| (vec![i as u32 / DOM, i as u32 % DOM], value_at(i)))
        .collect();
    Factor::new(vec![Var(a), Var(b)], tuples).unwrap()
}

/// The large single-shot case of the suites: `ϕ(x0) = Σ_{x1} max_{x2}
/// ψ01 ψ12 ψ02` over counting with `Dom = d`, each factor `rows` random keys
/// (duplicates collapse) valued in `1..5`.
pub fn random_triangle(seed: u64, d: u32, rows: usize) -> FaqQuery<CountDomain> {
    let mut r = StdRng::seed_from_u64(seed);
    let mut mk = |a: u32, b: u32| {
        let mut tuples = std::collections::BTreeMap::new();
        for _ in 0..rows {
            tuples.insert(vec![r.gen_range(0..d), r.gen_range(0..d)], r.gen_range(1..5u64));
        }
        Factor::new(vec![Var(a), Var(b)], tuples.into_iter().collect()).unwrap()
    };
    let factors = vec![mk(0, 1), mk(1, 2), mk(0, 2)];
    let bound = vec![
        (Var(1), VarAgg::Semiring(CountDomain::SUM)),
        (Var(2), VarAgg::Semiring(CountDomain::MAX)),
    ];
    FaqQuery::new(CountDomain, Domains::uniform(3, d), vec![Var(0)], bound, factors).unwrap()
}

/// Depth-first enumeration through a trie cursor: every `(row, row_index)`
/// reachable below the cursor's current position, in lexicographic order.
pub fn dfs(cur: &mut TrieCursor<'_>, prefix: &mut Vec<u32>, out: &mut Vec<(Vec<u32>, usize)>) {
    if cur.at_leaf() {
        out.push((prefix.clone(), cur.row()));
        return;
    }
    let mut value = cur.seek(0);
    while let Some(x) = value {
        cur.open(x);
        prefix.push(x);
        dfs(cur, prefix, out);
        prefix.pop();
        cur.up();
        value = cur.next();
    }
}

/// The definition of a trie index, checked entry by entry against the
/// listing it claims to index — independent of how the trie was built and of
/// where its levels live: level `d` holds one entry per distinct length-`d+1`
/// row prefix, in order, carrying the prefix's last value and, above the
/// deepest level, as children the level-`d+1` entries extending it; the rows
/// below each entry, derived from those children, are the prefix's rows.
pub fn assert_trie_indexes<E: SemiringElem>(trie: &FactorTrie, f: &Factor<E>) {
    let arity = f.arity();
    let rows: Vec<Vec<u32>> =
        (0..f.len()).map(|i| (0..arity).map(|d| f.col(i, d)).collect()).collect();
    assert_eq!((trie.arity(), trie.num_rows()), (arity, rows.len()));
    // starts[d] = first rows of the distinct length-`d+1` prefixes.
    let starts: Vec<Vec<usize>> = (0..arity)
        .map(|d| {
            (0..rows.len()).filter(|&i| i == 0 || rows[i][..=d] != rows[i - 1][..=d]).collect()
        })
        .collect();
    for d in 0..arity {
        let level = trie.level(d);
        assert_eq!(level.len(), starts[d].len(), "entries at level {d}");
        for (j, &lo) in starts[d].iter().enumerate() {
            let hi = starts[d].get(j + 1).copied().unwrap_or(rows.len());
            assert_eq!(level.value(j), rows[lo][d], "value of entry {j} at level {d}");
            assert_eq!(trie.rows_below(d, (j, j + 1)), (lo, hi), "rows of entry {j} at level {d}");
            if let Some(next) = starts.get(d + 1) {
                let below = |row: usize| next.partition_point(|&s| s < row);
                assert_eq!(level.child_range(j), (below(lo), below(hi)), "children, {j} at {d}");
            }
        }
    }
}
