//! FAQ applications — the problems of Table 1 and Appendix A as FAQ instances.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`joins`] | natural joins / worst-case-optimal join (Table 1, "Joins") |
//! | [`cq`] | Boolean CQ, CQ evaluation, #CQ (Table 1, "#CQ") |
//! | [`qcq`] | QCQ and #QCQ with quantifier alternation (Table 1 rows 1–2) |
//! | [`pgm`] | probabilistic graphical models: marginals & MAP (rows 5–6) |
//! | [`junction`] | junction-tree message passing over tree decompositions (§8.4) |
//! | [`matrix`] | matrix chain multiplication & the DFT (rows 7–8) |
//! | [`csp`] | CSPs: k-coloring, triangle counting, the permanent (App. A) |
//! | [`coding`] | list recovery for block codes (Example A.7) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod coding;
pub mod cq;
pub mod csp;
pub mod joins;
pub mod junction;
pub mod matrix;
pub mod pgm;
pub mod qcq;

/// Asserts that the planner's choice for `q` is no wider than the order the
/// §7 width optimizer picks (same caps as the width searches this crate used
/// to run): the guard for running an app's queries through
/// `Engine::evaluate` instead of that optimizer's order.
#[cfg(test)]
pub(crate) fn assert_plan_no_wider<D: faq_semiring::AggDomain>(
    q: &faq_core::FaqQuery<D>,
    linex_cap: usize,
    exact_limit: usize,
) {
    let planned = faq_core::Planner::sequential().plan(q).unwrap().width;
    let optimized = faq_core::width::faqw_optimize(&q.shape(), linex_cap, exact_limit);
    match (planned, optimized) {
        (Some(p), Ok(o)) => {
            assert!(p <= o.width + 1e-9, "{q:?}: planned {p} > optimized {}", o.width)
        }
        // Uncoverable: no width on either side.
        (None, Err(faq_core::FaqError::Uncoverable(_))) => {}
        (p, o) => panic!("{q:?}: planned {p:?} vs optimized {o:?}"),
    }
}
