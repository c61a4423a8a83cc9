//! The baseline join algorithm: a left-deep plan of pairwise hash joins.
//!
//! It is the comparison point for the Table 1 "Joins" row: on cyclic
//! queries such as the triangle, any pairwise join plan materializes an
//! intermediate of size `Θ(N²)` in the worst case, while the OutsideIn
//! multiway join stays within the AGM bound `O(N^{3/2})`.

use faq_factor::Factor;
use faq_hypergraph::Var;
use faq_semiring::SemiringElem;
use std::collections::HashMap;

/// Join two factors on their common variables with a hash join, multiplying
/// values. The result schema is `left.schema ++ (right.schema − left.schema)`.
pub(crate) fn hash_join_pair<E: SemiringElem>(
    left: &Factor<E>,
    right: &Factor<E>,
    mut mul: impl FnMut(&E, &E) -> E,
    mut is_zero: impl FnMut(&E) -> bool,
) -> Factor<E> {
    let common: Vec<Var> =
        left.schema().iter().copied().filter(|v| right.schema().contains(v)).collect();
    let right_extra: Vec<usize> =
        (0..right.arity()).filter(|&i| !left.schema().contains(&right.schema()[i])).collect();
    let mut schema: Vec<Var> = left.schema().to_vec();
    schema.extend(right_extra.iter().map(|&i| right.schema()[i]));

    let l_key_pos: Vec<usize> =
        common.iter().map(|v| left.schema().iter().position(|s| s == v).unwrap()).collect();
    let r_key_pos: Vec<usize> =
        common.iter().map(|v| right.schema().iter().position(|s| s == v).unwrap()).collect();

    // Build side: hash the (smaller) right factor on the key.
    let mut table: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
    for i in 0..right.len() {
        let key: Vec<u32> = r_key_pos.iter().map(|&p| right.row(i)[p]).collect();
        table.entry(key).or_default().push(i);
    }

    let mut tuples: Vec<(Vec<u32>, E)> = Vec::new();
    for i in 0..left.len() {
        let key: Vec<u32> = l_key_pos.iter().map(|&p| left.row(i)[p]).collect();
        if let Some(matches) = table.get(&key) {
            for &j in matches {
                let mut row: Vec<u32> = left.row(i).to_vec();
                row.extend(right_extra.iter().map(|&p| right.row(j)[p]));
                let val = mul(left.value(i), right.value(j));
                if !is_zero(&val) {
                    tuples.push((row, val));
                }
            }
        }
    }
    Factor::new(schema, tuples).expect("hash join produces distinct rows")
}

/// Left-deep pairwise hash-join plan over a list of factors.
///
/// Returns the full join result as a factor over the union of the schemas.
/// Panics on an empty input list.
pub fn pairwise_hash_join<E: SemiringElem>(
    factors: &[&Factor<E>],
    mut mul: impl FnMut(&E, &E) -> E,
    mut is_zero: impl FnMut(&E) -> bool,
) -> Factor<E> {
    assert!(!factors.is_empty());
    let mut acc = factors[0].clone();
    for f in &factors[1..] {
        acc = hash_join_pair(&acc, f, &mut mul, &mut is_zero);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leapfrog::{multiway_join_range_rep, JoinInput, JoinRep};
    use faq_factor::Domains;
    use faq_hypergraph::v;

    /// Nested-loop join: enumerate every assignment to `order` and probe each
    /// factor. Exponential in the number of variables; the naive baseline.
    fn nested_loop_join<E: SemiringElem>(
        domains: &Domains,
        order: &[Var],
        factors: &[&Factor<E>],
        one: E,
        mut mul: impl FnMut(&E, &E) -> E,
        mut on_match: impl FnMut(&[u32], E),
    ) {
        let pos_of = |f: &Factor<E>| -> Vec<usize> {
            f.schema().iter().map(|v| order.iter().position(|o| o == v).unwrap()).collect()
        };
        let positions: Vec<Vec<usize>> = factors.iter().map(|f| pos_of(f)).collect();
        'outer: for assignment in domains.assignments(order) {
            let mut val = one.clone();
            for (f, pos) in factors.iter().zip(&positions) {
                let key: Vec<u32> = pos.iter().map(|&p| assignment[p]).collect();
                match f.get(&key) {
                    Some(v) => val = mul(&val, v),
                    None => continue 'outer,
                }
            }
            on_match(&assignment, val);
        }
    }

    fn fac(schema: &[u32], rows: &[(&[u32], u64)]) -> Factor<u64> {
        Factor::new(
            schema.iter().map(|&i| v(i)).collect(),
            rows.iter().map(|(r, val)| (r.to_vec(), *val)).collect(),
        )
        .unwrap()
    }

    #[test]
    fn hash_join_pair_basic() {
        let r = fac(&[0, 1], &[(&[0, 1], 2), (&[1, 2], 3)]);
        let s = fac(&[1, 2], &[(&[1, 4], 5), (&[2, 5], 7)]);
        let j = hash_join_pair(&r, &s, |a, b| a * b, |&x| x == 0);
        assert_eq!(j.schema(), &[v(0), v(1), v(2)]);
        assert_eq!(j.len(), 2);
        assert_eq!(j.get(&[0, 1, 4]), Some(&10));
        assert_eq!(j.get(&[1, 2, 5]), Some(&21));
    }

    #[test]
    fn cartesian_product_when_disjoint() {
        let r = fac(&[0], &[(&[0], 1), (&[1], 1)]);
        let s = fac(&[1], &[(&[5], 2), (&[6], 3)]);
        let j = hash_join_pair(&r, &s, |a, b| a * b, |&x| x == 0);
        assert_eq!(j.len(), 4);
        assert_eq!(j.get(&[1, 6]), Some(&3));
    }

    #[test]
    fn all_three_join_algorithms_agree() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..20 {
            let dsize = rng.gen_range(2..5u32);
            let domains = Domains::uniform(3, dsize);
            let mk = |rng: &mut StdRng, vars: &[u32]| {
                let mut tuples = Vec::new();
                for _ in 0..rng.gen_range(1..10) {
                    tuples.push((
                        (0..vars.len()).map(|_| rng.gen_range(0..dsize)).collect::<Vec<u32>>(),
                        rng.gen_range(1..5u64),
                    ));
                }
                Factor::with_combine(
                    vars.iter().map(|&i| v(i)).collect(),
                    tuples,
                    |a, b| a + b,
                    |&x| x == 0,
                )
                .unwrap()
            };
            let f1 = mk(&mut rng, &[0, 1]);
            let f2 = mk(&mut rng, &[1, 2]);
            let f3 = mk(&mut rng, &[0, 2]);
            let order = [v(0), v(1), v(2)];

            let mut lftj = Vec::new();
            multiway_join_range_rep(
                JoinRep::Trie,
                &domains,
                &order,
                &[JoinInput::value(&f1), JoinInput::value(&f2), JoinInput::value(&f3)],
                (0, u32::MAX),
                1u64,
                |a, b| a * b,
                |b, val| lftj.push((b.to_vec(), val)),
            );

            let mut nl = Vec::new();
            nested_loop_join(
                &domains,
                &order,
                &[&f1, &f2, &f3],
                1u64,
                |a, b| a * b,
                |b, val| nl.push((b.to_vec(), val)),
            );
            assert_eq!(lftj, nl);

            let hj = pairwise_hash_join(&[&f1, &f2, &f3], |a, b| a * b, |&x| x == 0);
            let mut hj_rows: Vec<(Vec<u32>, u64)> = hj
                .iter()
                .map(|(row, val)| {
                    // hj schema is (0,1,2) already by construction here.
                    (row.to_vec(), *val)
                })
                .collect();
            hj_rows.sort();
            assert_eq!(lftj, hj_rows);
        }
    }

    #[test]
    fn nested_loop_handles_empty_factors() {
        let d = Domains::uniform(1, 2);
        let f = fac(&[0], &[]);
        let mut out = Vec::new();
        nested_loop_join(
            &d,
            &[v(0)],
            &[&f],
            1u64,
            |a, b| a * b,
            |b, val| out.push((b.to_vec(), val)),
        );
        assert!(out.is_empty());
    }
}
