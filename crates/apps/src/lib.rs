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

/// A width-optimized ordering for `shape`, falling back to `query_order` when
/// the width is undefined (`FaqError::Uncoverable`: some free/semiring
/// variable appears in no factor — an isolated k-coloring vertex, a
/// conditioned-away potential). Such queries evaluate fine by domain
/// iteration; only `ρ*`-based width optimization is meaningless for them.
pub(crate) fn width_order_or(
    shape: &faq_core::QueryShape,
    query_order: Vec<faq_hypergraph::Var>,
    linex_cap: usize,
    exact_limit: usize,
) -> Result<Vec<faq_hypergraph::Var>, faq_core::FaqError> {
    match faq_core::width::faqw_optimize(shape, linex_cap, exact_limit) {
        Ok(best) => Ok(best.order),
        Err(faq_core::FaqError::Uncoverable(_)) => Ok(query_order),
        Err(e) => Err(e),
    }
}
