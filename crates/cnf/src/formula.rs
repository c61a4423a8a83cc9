//! CNF formulas: literals, clauses, and the clause hypergraph.

use faq_hypergraph::{Hypergraph, Var, VarSet};
use std::fmt;

/// A literal: a variable with a polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit {
    /// The variable.
    pub var: Var,
    /// `true` for the positive literal `x`, `false` for `¬x`.
    pub positive: bool,
}

impl Lit {
    /// Positive literal of variable `i`.
    pub fn pos(i: u32) -> Lit {
        Lit { var: Var(i), positive: true }
    }

    /// Negative literal of variable `i`.
    pub fn neg(i: u32) -> Lit {
        Lit { var: Var(i), positive: false }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            write!(f, "x{}", self.var.0)
        } else {
            write!(f, "¬x{}", self.var.0)
        }
    }
}

/// A clause: a disjunction of literals over distinct variables.
///
/// Invariant: literals sorted by variable, at most one literal per variable.
/// A clause containing both polarities of a variable is a tautology and must
/// be normalized away by the caller ([`Clause::new`] returns `None` for it).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Clause {
    lits: Vec<Lit>,
}

impl Clause {
    /// Build a clause; returns `None` if the literal set is a tautology
    /// (contains `x` and `¬x`). Duplicate literals collapse.
    pub fn new<I: IntoIterator<Item = Lit>>(lits: I) -> Option<Clause> {
        let mut v: Vec<Lit> = lits.into_iter().collect();
        v.sort();
        v.dedup();
        for w in v.windows(2) {
            if w[0].var == w[1].var {
                return None; // complementary pair
            }
        }
        Some(Clause { lits: v })
    }

    /// The literals, sorted by variable.
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Number of literals.
    pub(crate) fn len(&self) -> usize {
        self.lits.len()
    }

    /// Whether the clause is empty (identically false).
    pub(crate) fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// The variables of the clause.
    pub fn vars(&self) -> VarSet {
        self.lits.iter().map(|l| l.var).collect()
    }

    /// The polarity of `v` in this clause, if present.
    pub(crate) fn polarity(&self, v: Var) -> Option<bool> {
        self.lits.iter().find(|l| l.var == v).map(|l| l.positive)
    }

    /// Remove the literal on `v` (either polarity), if present.
    pub(crate) fn without(&self, v: Var) -> Clause {
        Clause { lits: self.lits.iter().copied().filter(|l| l.var != v).collect() }
    }

    /// Add a literal; `None` if it creates a tautology.
    pub(crate) fn with(&self, lit: Lit) -> Option<Clause> {
        Clause::new(self.lits.iter().copied().chain(std::iter::once(lit)))
    }

    /// Disjunction of two clauses; `None` if the result is a tautology.
    pub(crate) fn or(&self, other: &Clause) -> Option<Clause> {
        Clause::new(self.lits.iter().copied().chain(other.lits.iter().copied()))
    }

    /// Whether this clause implies `other` (its literal set is a subset).
    pub(crate) fn implies(&self, other: &Clause) -> bool {
        // lits are sorted; subset check via merge walk.
        let mut i = 0;
        for lit in &other.lits {
            if i < self.lits.len() && self.lits[i] == *lit {
                i += 1;
            }
        }
        i == self.lits.len()
    }

    /// Evaluate under a full assignment (`assignment[i]` is the value of `x_i`).
    pub(crate) fn eval(&self, assignment: &[bool]) -> bool {
        self.lits.iter().any(|l| assignment[l.var.index()] == l.positive)
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lits.is_empty() {
            return write!(f, "⊥");
        }
        let parts: Vec<String> = self.lits.iter().map(|l| l.to_string()).collect();
        write!(f, "({})", parts.join(" ∨ "))
    }
}

/// A CNF formula over variables `x_0 … x_{num_vars−1}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cnf {
    /// Number of variables (variables outside any clause still count models).
    pub num_vars: u32,
    /// The clauses.
    pub clauses: Vec<Clause>,
}

impl Cnf {
    /// Build a formula.
    pub fn new(num_vars: u32, clauses: Vec<Clause>) -> Cnf {
        for c in &clauses {
            for l in c.lits() {
                assert!(l.var.0 < num_vars, "literal {l} out of range");
            }
        }
        Cnf { num_vars, clauses }
    }

    /// The clause hypergraph: one edge per clause, vertices = all variables.
    pub(crate) fn hypergraph(&self) -> Hypergraph {
        let mut h = Hypergraph::new();
        for i in 0..self.num_vars {
            h.add_vertex(Var(i));
        }
        for c in &self.clauses {
            if !c.is_empty() {
                h.add_edge(c.vars());
            }
        }
        h
    }

    /// Evaluate under a full assignment.
    pub(crate) fn eval(&self, assignment: &[bool]) -> bool {
        self.clauses.iter().all(|c| c.eval(assignment))
    }
}

impl fmt::Display for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.clauses.is_empty() {
            return write!(f, "⊤");
        }
        let parts: Vec<String> = self.clauses.iter().map(|c| c.to_string()).collect();
        write!(f, "{}", parts.join(" ∧ "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clause_normalization() {
        let c = Clause::new([Lit::pos(2), Lit::neg(0), Lit::pos(2)]).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.lits()[0], Lit::neg(0));
        assert!(Clause::new([Lit::pos(1), Lit::neg(1)]).is_none());
    }

    #[test]
    fn implication_is_subset() {
        let a = Clause::new([Lit::pos(0)]).unwrap();
        let b = Clause::new([Lit::pos(0), Lit::neg(1)]).unwrap();
        assert!(a.implies(&b));
        assert!(!b.implies(&a));
        assert!(Clause::new([]).unwrap().implies(&a));
        // Different polarity does not imply.
        let c = Clause::new([Lit::neg(0), Lit::neg(1)]).unwrap();
        assert!(!a.implies(&c));
    }

    #[test]
    fn or_detects_tautology() {
        let a = Clause::new([Lit::pos(0)]).unwrap();
        let b = Clause::new([Lit::neg(0), Lit::pos(1)]).unwrap();
        assert!(a.or(&b).is_none());
        let c = Clause::new([Lit::pos(1)]).unwrap();
        assert_eq!(a.or(&c).unwrap().len(), 2);
    }

    #[test]
    fn eval_clause_and_cnf() {
        let cnf = Cnf::new(
            2,
            vec![
                Clause::new([Lit::pos(0), Lit::pos(1)]).unwrap(),
                Clause::new([Lit::neg(0)]).unwrap(),
            ],
        );
        assert!(cnf.eval(&[false, true]));
        assert!(!cnf.eval(&[true, true]));
        assert!(!cnf.eval(&[false, false]));
    }

    #[test]
    fn hypergraph_shape() {
        let cnf = Cnf::new(
            3,
            vec![
                Clause::new([Lit::pos(0), Lit::pos(1)]).unwrap(),
                Clause::new([Lit::neg(1), Lit::pos(2)]).unwrap(),
            ],
        );
        let h = cnf.hypergraph();
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_edges(), 2);
    }

    #[test]
    fn without_and_with() {
        let c = Clause::new([Lit::pos(0), Lit::neg(1)]).unwrap();
        assert_eq!(c.without(Var(1)), Clause::new([Lit::pos(0)]).unwrap());
        assert_eq!(c.polarity(Var(1)), Some(false));
        assert_eq!(c.polarity(Var(2)), None);
        assert!(c.with(Lit::pos(1)).is_none());
    }
}
