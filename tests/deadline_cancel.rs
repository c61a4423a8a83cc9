//! Deadlines and cancel tokens stop a query made of many small steps.
//!
//! The join polls its abort controls once per 1024 seeks of one call, so a
//! program whose steps each stay under that never polled at all: this
//! 300-variable chain (299 elimination steps, the largest a few hundred
//! seeks) ran to completion under an already-expired deadline and under an
//! already-fired token. Every step boundary is a poll now.

use faq::factor::fault::{CancelToken, Deadline};
use faq::*;
use std::time::Duration;

const VARS: u32 = 300;
const DOM: u32 = 4;

/// `∃ x₁ … x₂₉₉ ⋀ᵢ ψᵢ(xᵢ, xᵢ₊₁)` with `x₀` free: every edge relation keeps
/// 12 of the 16 pairs, so no step of the chain comes near 1024 seeks.
fn chain() -> FaqQuery<BoolDomain> {
    let factors = (0..VARS - 1)
        .map(|i| {
            let pairs = (0..DOM * DOM)
                .filter(|c| (c + i) % 4 != 0)
                .map(|c| (vec![c / DOM, c % DOM], true))
                .collect();
            Factor::new(vec![Var(i), Var(i + 1)], pairs).unwrap()
        })
        .collect();
    let bound = (1..VARS).map(|i| (Var(i), VarAgg::Semiring(BoolDomain::OR))).collect();
    FaqQuery::new(BoolDomain, Domains::uniform(VARS as usize, DOM), vec![Var(0)], bound, factors)
        .unwrap()
}

#[test]
fn expired_deadline_and_fired_token_stop_a_chain_of_small_steps() {
    let q = chain();
    // The query's own ordering, planned by hand: ranking LinEx candidates
    // over 300 variables is not what this test is about.
    let order = q.ordering();
    let reference = Engine::sequential().evaluate_with_order(&q, &order).unwrap();
    let largest_step =
        reference.stats.steps.iter().filter_map(|s| s.join.as_ref()).map(|j| j.seeks).max();
    assert!(largest_step.unwrap() < 1024, "every step stays under the join's own poll interval");
    for threads in [1usize, 4] {
        let budget = ExecPolicy::sequential().threads(threads).min_chunk_rows(1);
        let plan = QueryPlan {
            order: order.clone(),
            width: None,
            est_cost: 0.0,
            steps: Vec::new(),
            policy: budget.clone(),
        };
        let prepared = PreparedQuery::with_plan(&q, plan.into()).unwrap();

        let expired = budget.clone().deadline(Deadline::after(Duration::ZERO));
        assert_eq!(
            prepared.evaluate_budgeted(&expired).unwrap_err(),
            FaqError::DeadlineExceeded,
            "threads {threads}"
        );

        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            prepared.evaluate_budgeted(&budget.clone().cancel_token(token)).unwrap_err(),
            FaqError::Cancelled,
            "threads {threads}"
        );

        // Neither abort left anything behind in the handle.
        assert_eq!(prepared.evaluate().unwrap().factor, reference.factor, "threads {threads}");
    }
}
