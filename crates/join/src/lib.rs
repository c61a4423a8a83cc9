//! OutsideIn: the worst-case-optimal multiway join under a variable ordering.
//!
//! Paper §5.1.1: the FAQ-SS expression is evaluated by backtracking search
//! from the outer-most aggregate inward, restricting each factor to the
//! values consistent with the current partial assignment. With sorted factors
//! this *is* the LeapFrog-TrieJoin family of worst-case-optimal join
//! algorithms, and Theorem 5.1 bounds its runtime by
//! `O(mn · AGM(V) · log N)`.
//!
//! * [`multiway_join_range_rep`] — the optimal backtracking join, the one
//!   join entry point (a first-variable range plus a representation);
//!   enumerates satisfying
//!   assignments in lexicographic order of the variable ordering, which is
//!   what lets InsideOut stream-aggregate the innermost variable. One
//!   generic search walks either the columnar trie index or the raw sorted
//!   listing ([`JoinRep`], chosen once per call); the trie is the default
//!   and fuses the innermost variable into one loop over resolved trie
//!   levels. Its [`JoinStats`] counters — seeks, nodes, matches — are the
//!   paper's cost model and are counted identically under both (the
//!   `leapfrog` module docs state the contract).
//! * [`pairwise_hash_join`] — the baseline, the comparison point for the
//!   Table 1 "Joins" row.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod baseline;
mod leapfrog;

pub use baseline::pairwise_hash_join;
pub use leapfrog::{multiway_join_range_rep, JoinInput, JoinRep, JoinStats};
