//! Brute-force evaluation of the FAQ expression — the semantic ground truth.
//!
//! Evaluates eq. (1) by direct recursion over the quantifier prefix:
//! exponential in the number of variables, but unambiguous. Every engine
//! optimization is property-tested against this evaluator.

use crate::query::{FaqQuery, VarAgg};
use faq_factor::Factor;
use faq_hypergraph::Var;
use faq_semiring::AggDomain;

/// Evaluate `q` naively, producing the output factor over the free variables
/// (a nullary factor when there are none). Zero-valued outputs are omitted,
/// matching the listing representation.
pub fn naive_eval<D: AggDomain>(q: &FaqQuery<D>) -> Factor<D::E> {
    let mut assignment: Vec<Option<u32>> = vec![None; q.domains.len()];
    let free = q.free.clone();
    let mut out: Vec<(Vec<u32>, D::E)> = Vec::new();

    // Enumerate free assignments.
    let mut free_vals = vec![0u32; free.len()];
    loop {
        for (i, &v) in free.iter().enumerate() {
            assignment[v.index()] = Some(free_vals[i]);
        }
        let val = eval_bound(q, 0, &mut assignment);
        if !q.domain.is_zero(&val) {
            out.push((free_vals.clone(), val));
        }
        // Odometer over free variables.
        let mut i = free.len();
        let done = loop {
            if i == 0 {
                break true;
            }
            i -= 1;
            free_vals[i] += 1;
            if free_vals[i] < q.domains.size(free[i]) {
                break false;
            }
            free_vals[i] = 0;
        };
        if done {
            break;
        }
    }

    Factor::new(free, out).expect("distinct free assignments")
}

fn eval_bound<D: AggDomain>(
    q: &FaqQuery<D>,
    idx: usize,
    assignment: &mut Vec<Option<u32>>,
) -> D::E {
    if idx == q.bound.len() {
        return eval_product(q, assignment);
    }
    let (var, agg) = q.bound[idx];
    let size = q.domains.size(var);
    let mut acc: Option<D::E> = None;
    for x in 0..size {
        assignment[var.index()] = Some(x);
        let v = eval_bound(q, idx + 1, assignment);
        acc = Some(match acc {
            None => v,
            Some(a) => match agg {
                VarAgg::Semiring(op) => q.domain.add(op, &a, &v),
                VarAgg::Product => q.domain.mul(&a, &v),
            },
        });
    }
    assignment[var.index()] = None;
    // An empty domain folds to the aggregate's identity.
    acc.unwrap_or_else(|| match agg {
        VarAgg::Semiring(_) => q.domain.zero(),
        VarAgg::Product => q.domain.one(),
    })
}

fn eval_product<D: AggDomain>(q: &FaqQuery<D>, assignment: &[Option<u32>]) -> D::E {
    let mut acc = q.domain.one();
    let mut key: Vec<u32> = Vec::new();
    for f in &q.factors {
        key.clear();
        key.extend(f.schema().iter().map(|v: &Var| {
            assignment[v.index()].expect("all factor variables bound during naive eval")
        }));
        match f.get_cloned(&key) {
            Some(val) => acc = q.domain.mul(&acc, &val),
            None => return q.domain.zero(),
        }
        if q.domain.is_zero(&acc) {
            return q.domain.zero();
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use faq_factor::Domains;
    use faq_hypergraph::v;
    use faq_semiring::{AggDomain, CountDomain, RealDomain};

    fn fac_u(schema: &[u32], rows: &[(&[u32], u64)]) -> Factor<u64> {
        Factor::new(
            schema.iter().map(|&i| v(i)).collect(),
            rows.iter().map(|(r, val)| (r.to_vec(), *val)).collect(),
        )
        .unwrap()
    }

    #[test]
    fn sum_over_single_factor() {
        // ϕ = Σ_{x0} ψ(x0), ψ = {0→2, 1→3}.
        let q = FaqQuery::new(
            CountDomain,
            Domains::uniform(1, 2),
            vec![],
            vec![(v(0), VarAgg::Semiring(CountDomain::SUM))],
            vec![fac_u(&[0], &[(&[0], 2), (&[1], 3)])],
        )
        .unwrap();
        let out = naive_eval(&q);
        assert_eq!(out.get(&[]), Some(&5));
    }

    #[test]
    fn max_then_sum_orders_matter() {
        // ϕ1 = Σ_{x0} max_{x1} ψ(x0,x1) vs ϕ2 = max_{x0} Σ_{x1} ψ(x0,x1).
        let rows: &[(&[u32], u64)] = &[(&[0, 0], 1), (&[0, 1], 5), (&[1, 0], 3), (&[1, 1], 3)];
        let f = fac_u(&[0, 1], rows);
        let q1 = FaqQuery::new(
            CountDomain,
            Domains::uniform(2, 2),
            vec![],
            vec![
                (v(0), VarAgg::Semiring(CountDomain::SUM)),
                (v(1), VarAgg::Semiring(CountDomain::MAX)),
            ],
            vec![f.clone()],
        )
        .unwrap();
        // Σ_x0 max_x1: max(1,5) + max(3,3) = 5 + 3 = 8.
        assert_eq!(naive_eval(&q1).get(&[]), Some(&8));
        let q2 = FaqQuery::new(
            CountDomain,
            Domains::uniform(2, 2),
            vec![],
            vec![
                (v(1), VarAgg::Semiring(CountDomain::MAX)),
                (v(0), VarAgg::Semiring(CountDomain::SUM)),
            ],
            vec![f],
        )
        .unwrap();
        // max_x1 Σ_x0: max(1+3, 5+3) = 8. (Coincidentally equal is possible;
        // pick values where they differ.)
        assert_eq!(naive_eval(&q2).get(&[]), Some(&8));
    }

    #[test]
    fn product_aggregate_multiplies_over_domain() {
        // ϕ = Π_{x0} ψ(x0) with ψ = {0→2, 1→3} ⇒ 6.
        let q = FaqQuery::new(
            CountDomain,
            Domains::uniform(1, 2),
            vec![],
            vec![(v(0), VarAgg::Product)],
            vec![fac_u(&[0], &[(&[0], 2), (&[1], 3)])],
        )
        .unwrap();
        assert_eq!(naive_eval(&q).get(&[]), Some(&6));
        // Missing entry means implicit 0 ⇒ product 0 ⇒ empty output factor.
        let q0 = FaqQuery::new(
            CountDomain,
            Domains::uniform(1, 2),
            vec![],
            vec![(v(0), VarAgg::Product)],
            vec![fac_u(&[0], &[(&[0], 2)])],
        )
        .unwrap();
        assert!(naive_eval(&q0).is_empty());
    }

    #[test]
    fn free_variables_produce_a_table() {
        // ϕ(x0) = Σ_{x1} ψ(x0, x1).
        let q = FaqQuery::new(
            CountDomain,
            Domains::uniform(2, 2),
            vec![v(0)],
            vec![(v(1), VarAgg::Semiring(CountDomain::SUM))],
            vec![fac_u(&[0, 1], &[(&[0, 0], 1), (&[0, 1], 2), (&[1, 0], 4)])],
        )
        .unwrap();
        let out = naive_eval(&q);
        assert_eq!(out.get(&[0]), Some(&3));
        assert_eq!(out.get(&[1]), Some(&4));
    }

    #[test]
    fn variable_in_no_factor_scales_result() {
        // ϕ = Σ_{x0} Σ_{x1} ψ(x0): x1 not in any factor ⇒ result × |Dom(x1)|.
        let q = FaqQuery::new(
            CountDomain,
            Domains::new(vec![2, 3]),
            vec![],
            vec![
                (v(0), VarAgg::Semiring(CountDomain::SUM)),
                (v(1), VarAgg::Semiring(CountDomain::SUM)),
            ],
            vec![fac_u(&[0], &[(&[0], 1), (&[1], 1)])],
        )
        .unwrap();
        assert_eq!(naive_eval(&q).get(&[]), Some(&6));
    }

    #[test]
    fn real_domain_mixed_query() {
        // ϕ = max_{x0} Σ_{x1} ψ01 ψ1 over f64.
        let f01 = Factor::new(
            vec![v(0), v(1)],
            vec![(vec![0, 0], 0.5), (vec![0, 1], 2.0), (vec![1, 1], 4.0)],
        )
        .unwrap();
        let f1 = Factor::new(vec![v(1)], vec![(vec![0], 1.0), (vec![1], 0.25)]).unwrap();
        let q = FaqQuery::new(
            RealDomain,
            Domains::uniform(2, 2),
            vec![],
            vec![
                (v(0), VarAgg::Semiring(RealDomain::MAX)),
                (v(1), VarAgg::Semiring(RealDomain::SUM)),
            ],
            vec![f01, f1],
        )
        .unwrap();
        // x0=0: 0.5*1 + 2*0.25 = 1.0 ; x0=1: 0 + 4*0.25 = 1.0 ⇒ max = 1.0.
        let out = naive_eval(&q);
        assert_eq!(out.get(&[]), Some(&1.0));
        let _ = RealDomain.zero();
    }

    /// The oracle reads a spilled input through the lookup that serves
    /// either backing, and agrees with the engine on it.
    #[test]
    fn spilled_input_matches_the_engine() {
        let spill = faq_factor::SpillConfig { chunk_rows: 2, ..Default::default() };
        let f01 = fac_u(&[0, 1], &[(&[0, 0], 2), (&[0, 1], 3), (&[1, 1], 5), (&[2, 0], 7)]);
        let f12 = fac_u(&[1, 2], &[(&[0, 1], 1), (&[1, 0], 4), (&[1, 2], 6)]);
        let q = FaqQuery::new(
            CountDomain,
            Domains::uniform(3, 3),
            vec![v(0)],
            vec![
                (v(1), VarAgg::Semiring(CountDomain::SUM)),
                (v(2), VarAgg::Semiring(CountDomain::SUM)),
            ],
            vec![f01.to_spilled(spill), f12],
        )
        .unwrap();
        let out = naive_eval(&q);
        assert_eq!(out, crate::Engine::sequential().evaluate(&q).unwrap().factor);
        assert_eq!(out.get(&[0]), Some(&(2 + 3 * 10)));
    }
}
