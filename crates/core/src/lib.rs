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
//! Modules:
//! * [`mod@engine`] — [`Engine`]: the builder-style evaluation facade in
//!   front of sequential and parallel one-shot evaluation and the
//!   planning/serving path;
//! * [`query`] — [`FaqQuery`]: aggregates, free variables, factors, validation;
//! * [`naive`] — brute-force evaluation of eq. (1), the test oracle;
//! * [`mod@insideout`] — Algorithm 1, once: σ compiled to a step list
//!   (semiring, product and free-variable guard steps, the output join) and
//!   the one executor that evaluation, delta replay and the planner's cost
//!   model all read;
//! * [`exprtree`] — expression trees and the precedence poset (§6);
//! * [`evo`] — equivalent variable orderings: LinEx enumeration and the
//!   component-wise-equivalence membership test (§6);
//! * [`exec`] — the parallel execution engine: [`ExecPolicy`], chunked factor
//!   kernels over a scoped worker pool, deterministic merge;
//! * [`width`] — `faqw(σ)`, exact `faqw(ϕ)` search, and the approximation
//!   algorithm of §7;
//! * [`plan`] — the cost-based adaptive planner: data-driven ordering choice
//!   (AGM bounds under the factors' row counts) and [`PreparedQuery`] serving
//!   handles;
//! * [`delta`] — incremental delta evaluation: the kept nodes of a run plus
//!   range-restricted step replay behind
//!   [`PreparedQuery::apply_delta`](plan::PreparedQuery::apply_delta);
//! * [`output`] — factorized output representations (§8.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod engine;
pub mod evo;
pub mod exec;
pub mod exprtree;
pub mod insideout;
pub mod naive;
pub mod output;
pub mod plan;
pub mod query;
pub mod width;

pub use delta::{DeltaFactor, DeltaOp};
pub use engine::Engine;
pub use exec::{CancelToken, Deadline, ExecPolicy};
pub use exprtree::{ExprTree, QueryShape, Tag};
pub use insideout::{run_elimination, ElimStats, FaqOutput, StepStat};
pub use naive::naive_eval;
pub use plan::{Planner, PreparedQuery, QueryPlan, StepPlan};
pub use query::{FaqError, FaqQuery, VarAgg};
pub use width::{faqw_approx, faqw_exact, faqw_of_ordering, FaqwResult};
