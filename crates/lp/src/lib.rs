//! A small dense linear-programming solver.
//!
//! The FAQ paper's width machinery (§4.2) repeatedly solves tiny linear
//! programs: fractional edge covers `ρ*_H(B)` and the data-dependent AGM bound
//! `AGM_H(B)`. The number of variables equals the number of hyperedges of a
//! *query*, so these LPs have at most a few dozen variables — a dense two-phase
//! primal simplex with Bland's anti-cycling rule is more than enough, and keeps
//! the workspace dependency-free.
//!
//! The entry point is [`LinearProgram`]; [`solve`](LinearProgram::solve)
//! returns an optimal [`Solution`] or an [`LpError`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod simplex;

pub use simplex::{Constraint, ConstraintOp, LinearProgram, LpError, Solution};

/// Numerical tolerance used throughout the solver.
pub(crate) const EPS: f64 = 1e-9;
