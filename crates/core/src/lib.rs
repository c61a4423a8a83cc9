//! The FAQ query model and the InsideOut engine (the paper's contribution).
//!
//! A Functional Aggregate Query (paper eq. (1)) is
//!
//! ```text
//! ϕ(x_[f]) = ⊕^(f+1)_{x_{f+1}} … ⊕^(n)_{x_n}  ⊗_{S∈E} ψ_S(x_S)
//! ```
//!
//! where each bound variable carries either a semiring aggregate `⊕⁽ⁱ⁾` (with
//! `(D, ⊕⁽ⁱ⁾, ⊗)` a commutative semiring) or the product `⊗` itself.
//!
//! The API is the root re-exports below plus four public modules:
//! * [`Engine`] — the builder-style evaluation facade in front of sequential
//!   and parallel one-shot evaluation and the planning/serving path, under
//!   one [`ExecPolicy`] (thread budget, chunking, [`Deadline`],
//!   [`CancelToken`]);
//! * [`FaqQuery`] — aggregates ([`VarAgg`]), free variables, factors,
//!   validation; [`naive_eval`] evaluates eq. (1) by brute force, the test
//!   oracle;
//! * InsideOut (Algorithm 1), once: σ compiled to a step list (semiring,
//!   product and free-variable guard steps, the output join) and the one
//!   executor that evaluation, delta replay and the planner's cost model all
//!   read; a run returns [`FaqOutput`] with its [`ElimStats`];
//! * [`QueryShape`] / [`ExprTree`] — expression trees and the precedence
//!   poset (§6);
//! * [`evo`] — equivalent variable orderings: LinEx enumeration and the
//!   component-wise-equivalence membership test (§6);
//! * [`width`] — `faqw(σ)`, exact `faqw(ϕ)` search, and the approximation
//!   algorithm of §7;
//! * [`plan`] — the cost-based adaptive planner: data-driven ordering choice
//!   (AGM bounds under the factors' row counts) and [`PreparedQuery`] serving
//!   handles, whose [`PreparedQuery::apply_delta`] replays only the steps a
//!   [`DeltaFactor`] reaches;
//! * [`output`] — factorized output representations (§8.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod delta;
mod engine;
pub mod evo;
mod exec;
mod exprtree;
mod insideout;
mod naive;
pub mod output;
pub mod plan;
mod query;
pub mod width;

pub use delta::{DeltaFactor, DeltaOp};
pub use engine::Engine;
pub use exec::{CancelToken, Deadline, ExecPolicy};
pub use exprtree::{ExprTree, QueryShape, Tag};
pub use insideout::{ElimStats, FaqOutput, StepStat};
pub use naive::naive_eval;
pub use plan::{Planner, PreparedQuery, QueryPlan, StepPlan};
pub use query::{FaqError, FaqQuery, VarAgg};
pub use width::{faqw_approx, faqw_exact, faqw_of_ordering, FaqwResult};
