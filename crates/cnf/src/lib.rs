//! SAT and #SAT for β-acyclic CNF via variable elimination (paper §8.3).
//!
//! CNF clauses are *box factors* (Definition 8.2): compactly represented
//! functions whose listing representation would be exponentially larger. The
//! backtracking OutsideIn is the wrong subroutine here; instead, InsideOut's
//! variable elimination runs with clause-level rewriting:
//!
//! * [`sat_beta_acyclic`] / [`davis_putnam_sat`] — the Davis–Putnam
//!   procedure (§8.3.1). Along a nested elimination order of a β-acyclic CNF
//!   every resolvent is subsumed or a tautology, so the clause set never
//!   grows and SAT is decided in polynomial time (Theorem 8.3,
//!   Ordyniak–Paulusma–Szeider).
//! * [`count_beta_acyclic`] / [`count_weighted_beta_acyclic`] — weighted
//!   model counting, #WSAT (§8.3.2). Eliminating the last NEO variable
//!   rewrites its clause chain into weighted clauses ([`WClause`]) on the same
//!   (shrunken) supports, keeping the instance size constant and counting
//!   models in polynomial time (Theorem 8.4, Brault-Baron–Capelli–Mengel).
//! * [`sat_via_boxes`] / [`is_covered`] / [`find_uncovered`] — SAT as the
//!   Box Cover Problem over the [`BoxRegion`]s of the clauses' falsifying
//!   assignments.
//!
//! [`gen`] provides random interval CNFs (always β-acyclic) for
//! cross-validation against [`brute_force_sat`] / [`brute_force_count`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod boxes;
mod brute;
mod formula;
pub mod gen;
mod sat;
mod sharp;

pub use boxes::{find_uncovered, is_covered, sat_via_boxes, BoxRegion, Interval};
pub use brute::{brute_force_count, brute_force_sat};
pub use formula::{Clause, Cnf, Lit};
pub use sat::{davis_putnam_sat, sat_beta_acyclic};
pub use sharp::{count_beta_acyclic, count_weighted_beta_acyclic, WClause};
