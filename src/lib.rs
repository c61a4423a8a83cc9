//! `faq` — Functional Aggregate Queries (PODS 2016) in Rust.
//!
//! A facade crate re-exporting the whole FAQ stack. The everyday types live
//! at the root, so a quickstart needs a single import:
//!
//! ```
//! use faq::*;
//!
//! // Count paths of length 2 in a 3-cycle: ϕ(x0) = Σ_{x1} Σ_{x2} E(x0,x1)·E(x1,x2)
//! let edges: Vec<(Vec<u32>, u64)> =
//!     vec![(vec![0, 1], 1), (vec![1, 2], 1), (vec![2, 0], 1)];
//! let q = FaqQuery::new(
//!     CountDomain,
//!     Domains::uniform(3, 3),
//!     vec![Var(0)],
//!     vec![
//!         (Var(1), VarAgg::Semiring(CountDomain::SUM)),
//!         (Var(2), VarAgg::Semiring(CountDomain::SUM)),
//!     ],
//!     vec![
//!         Factor::new(vec![Var(0), Var(1)], edges.clone()).unwrap(),
//!         Factor::new(vec![Var(1), Var(2)], edges).unwrap(),
//!     ],
//! )
//! .unwrap();
//! let out = Engine::new().evaluate(&q).unwrap();
//! assert_eq!(out.factor.len(), 3);
//! ```
//!
//! [`Engine`] is the entry point (one-shot evaluation, thread budgets,
//! planning/serving via [`PreparedQuery`]); [`serve`] hosts the multi-tenant
//! serving runtime ([`FaqServer`]).
//!
//! Each crate is also re-exported under its module name. What it makes
//! public is its root `pub use` list plus the few modules its callers
//! address by path (named below); everything else is crate-private.
//!
//! * [`semiring`] — commutative semirings and multi-aggregate domains
//!   (`ext`: pair and average semirings);
//! * [`lp`] — the simplex solver behind fractional edge covers;
//! * [`hypergraph`] — hypergraphs, acyclicity, tree decompositions, widths
//!   (`compose`, `elim`, `ordering`, `widths`);
//! * [`factor`] — listing-representation factors with a trie index and a
//!   spilled backing (`fault`: storage errors, deadlines, fault injection);
//! * [`join`] — the OutsideIn worst-case-optimal join and baselines;
//! * [`core`] — the FAQ query model, InsideOut, expression trees, EVO, faqw
//!   (`evo`, `output`, `plan`, `width`);
//! * [`serve`] — multi-tenant serving: epoch snapshots, worker pool,
//!   admission, cross-query result sharing;
//! * [`cnf`] — β-acyclic SAT/#SAT via variable elimination (`gen`: random
//!   interval CNFs);
//! * [`apps`] — joins, conjunctive queries, QCQ/#QCQ, graphical models,
//!   junction trees, matrix chains, the DFT, CSPs and list recovery
//!   expressed as FAQ instances (one public module each).

#![forbid(unsafe_code)]

pub use faq_apps as apps;
pub use faq_cnf as cnf;
pub use faq_core as core;
pub use faq_factor as factor;
pub use faq_hypergraph as hypergraph;
pub use faq_join as join;
pub use faq_lp as lp;
pub use faq_semiring as semiring;
pub use faq_serve as serve;

pub use faq_core::{
    DeltaFactor, DeltaOp, Engine, ExecPolicy, FaqError, FaqOutput, FaqQuery, Planner,
    PreparedQuery, QueryPlan, VarAgg,
};
pub use faq_factor::{Domains, Factor, FactorBuilder};
pub use faq_hypergraph::Var;
pub use faq_semiring::{
    AggDomain, AggId, BoolDomain, CountDomain, RealDomain, SemiringElem, SingleSemiringDomain,
};
pub use faq_serve::{FaqServer, QueryId, QuerySpec, ServeConfig};
