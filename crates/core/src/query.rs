//! The FAQ query type.

use crate::exprtree::{QueryShape, Tag};
use faq_factor::{Domains, Factor};
use faq_hypergraph::{Hypergraph, Var, VarSet};
use faq_semiring::{AggDomain, AggId};
use std::fmt;

/// The aggregate attached to a bound variable (paper §1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarAgg {
    /// A semiring aggregate `⊕⁽ⁱ⁾` such that `(D, ⊕⁽ⁱ⁾, ⊗)` is a commutative
    /// semiring.
    Semiring(AggId),
    /// The product aggregate `⊗` itself.
    Product,
}

/// Errors raised when constructing or evaluating a FAQ query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaqError {
    /// A variable appears both free and bound, or twice in the bound list.
    DuplicateVariable(Var),
    /// A factor mentions a variable that is neither free nor bound.
    UnlistedVariable(Var),
    /// A variable index is outside the domain catalog.
    UnknownVariable(Var),
    /// A factor tuple contains a value outside its variable's domain.
    ValueOutOfDomain {
        /// The variable whose domain is violated.
        var: Var,
        /// The offending value.
        value: u32,
    },
    /// An aggregate id is out of range for the domain.
    UnknownAggregate(AggId),
    /// A factor update or delta targets a prepared slot whose schema (as a
    /// variable set) differs from the supplied one. Names the slot — the
    /// actionable datum when a serving handle juggles many factors — plus a
    /// variable from the symmetric difference of the two schemas.
    FactorSchemaMismatch {
        /// The factor slot (position in the query's factor list) that failed.
        slot: usize,
        /// A variable present in exactly one of the two schemas.
        var: Var,
    },
    /// A supplied variable ordering is invalid for this query.
    BadOrdering(String),
    /// A variable set is not coverable by the query's edges (some variable
    /// appears in no factor), so `ρ*`/AGM-based widths are undefined for it.
    /// Raised by the width and planning machinery on degenerate queries —
    /// evaluation itself handles such variables by domain iteration.
    Uncoverable(Vec<Var>),
    /// An out-of-core chunk operation failed after bounded retries — either a
    /// hard I/O error or a checksum mismatch on fault-in. Carries the typed
    /// [`StorageError`](faq_factor::StorageError) from the storage layer.
    Storage(faq_factor::StorageError),
    /// Evaluation overran the [`Deadline`](faq_factor::Deadline) attached to
    /// its [`ExecPolicy`](crate::exec::ExecPolicy) and was abandoned at a
    /// cooperative checkpoint.
    DeadlineExceeded,
    /// Evaluation was cancelled via its
    /// [`CancelToken`](faq_factor::CancelToken).
    Cancelled,
}

impl fmt::Display for FaqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaqError::DuplicateVariable(v) => write!(f, "variable {v} listed twice"),
            FaqError::UnlistedVariable(v) => {
                write!(f, "factor variable {v} is neither free nor bound")
            }
            FaqError::UnknownVariable(v) => write!(f, "variable {v} not in the domain catalog"),
            FaqError::ValueOutOfDomain { var, value } => {
                write!(f, "factor value {value} outside the domain of {var}")
            }
            FaqError::UnknownAggregate(a) => write!(f, "aggregate {a:?} unknown to the domain"),
            FaqError::FactorSchemaMismatch { slot, var } => {
                write!(f, "factor slot {slot}: schema mismatch on variable {var}")
            }
            FaqError::BadOrdering(m) => write!(f, "bad variable ordering: {m}"),
            FaqError::Uncoverable(vars) => {
                write!(f, "variable set {vars:?} is not coverable by any query edge")
            }
            FaqError::Storage(e) => write!(f, "storage failure: {e}"),
            FaqError::DeadlineExceeded => write!(f, "evaluation deadline exceeded"),
            FaqError::Cancelled => write!(f, "evaluation cancelled"),
        }
    }
}

impl std::error::Error for FaqError {}

impl From<faq_factor::QueryAbort> for FaqError {
    fn from(abort: faq_factor::QueryAbort) -> FaqError {
        match abort {
            faq_factor::QueryAbort::Storage(e) => FaqError::Storage(e),
            faq_factor::QueryAbort::DeadlineExceeded => FaqError::DeadlineExceeded,
            faq_factor::QueryAbort::Cancelled => FaqError::Cancelled,
        }
    }
}

/// A Functional Aggregate Query over a multi-aggregate domain `D`.
///
/// The quantifier prefix reads left to right: free variables first (in output
/// order), then `bound` outermost-to-innermost.
#[derive(Clone)]
pub struct FaqQuery<D: AggDomain> {
    /// The value domain (operators).
    pub domain: D,
    /// Per-variable domain sizes.
    pub domains: Domains,
    /// Free (output) variables.
    pub free: Vec<Var>,
    /// Bound variables with their aggregates, outermost first.
    pub bound: Vec<(Var, VarAgg)>,
    /// Input factors; edge `i` of the query hypergraph is `factors[i].schema()`.
    pub factors: Vec<Factor<D::E>>,
}

impl<D: AggDomain> fmt::Debug for FaqQuery<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FaqQuery(free={:?}, bound={:?}, {} factors)",
            self.free,
            self.bound,
            self.factors.len()
        )
    }
}

impl<D: AggDomain> FaqQuery<D> {
    /// Build and validate a query.
    pub fn new(
        domain: D,
        domains: Domains,
        free: Vec<Var>,
        bound: Vec<(Var, VarAgg)>,
        factors: Vec<Factor<D::E>>,
    ) -> Result<Self, FaqError> {
        let q = FaqQuery { domain, domains, free, bound, factors };
        q.validate()?;
        Ok(q)
    }

    /// Validate the query invariants.
    pub(crate) fn validate(&self) -> Result<(), FaqError> {
        let mut seen = VarSet::new();
        for &v in &self.free {
            if !seen.insert(v) {
                return Err(FaqError::DuplicateVariable(v));
            }
        }
        for &(v, agg) in &self.bound {
            if !seen.insert(v) {
                return Err(FaqError::DuplicateVariable(v));
            }
            if let VarAgg::Semiring(op) = agg {
                if op.index() >= self.domain.num_ops() {
                    return Err(FaqError::UnknownAggregate(op));
                }
            }
        }
        for v in seen.iter() {
            if v.index() >= self.domains.len() {
                return Err(FaqError::UnknownVariable(*v));
            }
        }
        for f in &self.factors {
            for v in f.schema() {
                if !seen.contains(v) {
                    return Err(FaqError::UnlistedVariable(*v));
                }
            }
            // Listing tuples must stay inside the declared domains — the
            // naive semantics of eq. (1) never see out-of-domain points, so
            // admitting them would silently diverge from the specification.
            // Checking per-column maxima instead of scanning rows keeps this
            // O(arity) and — for spilled factors — avoids faulting every
            // chunk in just to admit the query.
            for (pos, v) in f.schema().iter().enumerate() {
                if let Some(value) = f.max_in_column(pos) {
                    if value >= self.domains.size(*v) {
                        return Err(FaqError::ValueOutOfDomain { var: *v, value });
                    }
                }
            }
        }
        Ok(())
    }

    /// All variables in query order: free first, then bound.
    pub fn ordering(&self) -> Vec<Var> {
        let mut o = self.free.clone();
        o.extend(self.bound.iter().map(|&(v, _)| v));
        o
    }

    /// The aggregate of a bound variable, `None` for free variables.
    pub fn agg_of(&self, v: Var) -> Option<VarAgg> {
        self.bound.iter().find(|&&(bv, _)| bv == v).map(|&(_, a)| a)
    }

    /// The query hypergraph: one edge per factor, vertices = free ∪ bound
    /// (including variables in no factor).
    pub fn hypergraph(&self) -> Hypergraph {
        let mut h = Hypergraph::new();
        for &v in &self.free {
            h.add_vertex(v);
        }
        for &(v, _) in &self.bound {
            h.add_vertex(v);
        }
        for f in &self.factors {
            h.add_edge(f.schema().iter().copied());
        }
        h
    }

    /// The combinatorial shape of the query (tags + hyperedges), the input to
    /// the expression-tree / EVO / width machinery.
    ///
    /// Semiring aggregate ids are canonicalized so that functionally identical
    /// operators (paper Definition 6.4) compare equal.
    pub fn shape(&self) -> QueryShape {
        let mut seq: Vec<(Var, Tag)> = self.free.iter().map(|&v| (v, Tag::Free)).collect();
        for &(v, agg) in &self.bound {
            let tag = match agg {
                VarAgg::Product => Tag::Product,
                VarAgg::Semiring(op) => {
                    // Canonical representative: the smallest identical op id.
                    let mut canon = op;
                    for i in 0..op.index() {
                        let cand = AggId(i as u32);
                        if self.domain.ops_identical(cand, op) {
                            canon = cand;
                            break;
                        }
                    }
                    Tag::Semiring(canon)
                }
            };
            seq.push((v, tag));
        }
        let edges: Vec<VarSet> =
            self.factors.iter().map(|f| f.schema().iter().copied().collect()).collect();
        let closed_ops = (0..self.domain.num_ops() as u32)
            .map(AggId)
            .filter(|&op| self.domain.op_closed_under_idempotents(op))
            .collect();
        QueryShape { seq, edges, mul_idempotent: self.domain.mul_idempotent_domain(), closed_ops }
    }

    /// The query shape under the `F(D_I)` promise of paper Definition 5.8:
    /// all input factors (and hence the sub-expressions below the outermost
    /// non-closed aggregates) range over `⊗`-idempotent elements, as in QCQ,
    /// `#QCQ` and Example 5.6. The §6.2 expression tree applies without the
    /// Definition 6.30 edge extension, enlarging the set of recognized
    /// equivalent orderings.
    ///
    /// The promise is validated against the current factor values; it remains
    /// the caller's responsibility that the *class* of inputs keeps it.
    pub fn shape_promising_idempotent_inputs(&self) -> QueryShape {
        for f in &self.factors {
            for i in 0..f.len() {
                let v = f.value_at(i);
                assert!(
                    self.domain.is_mul_idempotent(v.as_ref()),
                    "factor value {:?} is not ⊗-idempotent; the F(D_I) promise does not hold",
                    v.as_ref()
                );
            }
        }
        let mut shape = self.shape();
        shape.mul_idempotent = true;
        shape
    }

    /// Check that `sigma` is a syntactically valid ordering for this query:
    /// a permutation of all variables whose first `f` entries are the free set.
    pub(crate) fn check_ordering(&self, sigma: &[Var]) -> Result<(), FaqError> {
        let all: VarSet = self.ordering().into_iter().collect();
        let got: VarSet = sigma.iter().copied().collect();
        if sigma.len() != all.len() || all != got {
            return Err(FaqError::BadOrdering(format!(
                "ordering {sigma:?} is not a permutation of the query variables"
            )));
        }
        let f = self.free.len();
        let free_set: VarSet = self.free.iter().copied().collect();
        let prefix: VarSet = sigma[..f].iter().copied().collect();
        if prefix != free_set {
            return Err(FaqError::BadOrdering(format!(
                "free variables {free_set:?} must form the prefix, got {prefix:?}"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faq_hypergraph::v;
    use faq_semiring::RealDomain;

    fn fac(schema: &[u32], rows: &[(&[u32], f64)]) -> Factor<f64> {
        Factor::new(
            schema.iter().map(|&i| v(i)).collect(),
            rows.iter().map(|(r, val)| (r.to_vec(), *val)).collect(),
        )
        .unwrap()
    }

    fn sample_query() -> FaqQuery<RealDomain> {
        FaqQuery::new(
            RealDomain,
            Domains::uniform(3, 2),
            vec![v(0)],
            vec![
                (v(1), VarAgg::Semiring(RealDomain::SUM)),
                (v(2), VarAgg::Semiring(RealDomain::MAX)),
            ],
            vec![fac(&[0, 1], &[(&[0, 0], 1.0)]), fac(&[1, 2], &[(&[0, 1], 2.0)])],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let q = sample_query();
        assert_eq!(q.ordering(), vec![v(0), v(1), v(2)]);
        assert_eq!(q.agg_of(v(1)), Some(VarAgg::Semiring(RealDomain::SUM)));
        assert_eq!(q.agg_of(v(0)), None);
    }

    #[test]
    fn duplicate_variable_rejected() {
        let q = FaqQuery::new(
            RealDomain,
            Domains::uniform(2, 2),
            vec![v(0)],
            vec![(v(0), VarAgg::Product)],
            vec![],
        );
        assert_eq!(q.unwrap_err(), FaqError::DuplicateVariable(v(0)));
    }

    #[test]
    fn unlisted_factor_variable_rejected() {
        let q = FaqQuery::new(
            RealDomain,
            Domains::uniform(3, 2),
            vec![v(0)],
            vec![],
            vec![fac(&[0, 2], &[])],
        );
        assert_eq!(q.unwrap_err(), FaqError::UnlistedVariable(v(2)));
    }

    #[test]
    fn unknown_aggregate_rejected() {
        let q = FaqQuery::new(
            RealDomain,
            Domains::uniform(2, 2),
            vec![],
            vec![(v(0), VarAgg::Semiring(AggId(7)))],
            vec![],
        );
        assert_eq!(q.unwrap_err(), FaqError::UnknownAggregate(AggId(7)));
    }

    #[test]
    fn hypergraph_includes_isolated_vars() {
        let q = FaqQuery::new(
            RealDomain,
            Domains::uniform(2, 2),
            vec![v(0)],
            vec![(v(1), VarAgg::Semiring(RealDomain::SUM))],
            vec![fac(&[0], &[(&[0], 1.0)])],
        )
        .unwrap();
        let h = q.hypergraph();
        assert_eq!(h.num_vertices(), 2);
        assert_eq!(h.num_edges(), 1);
    }

    #[test]
    fn ordering_check() {
        let q = sample_query();
        assert!(q.check_ordering(&[v(0), v(1), v(2)]).is_ok());
        assert!(q.check_ordering(&[v(0), v(2), v(1)]).is_ok());
        assert!(q.check_ordering(&[v(1), v(0), v(2)]).is_err()); // free not first
        assert!(q.check_ordering(&[v(0), v(1)]).is_err()); // missing var
    }

    #[test]
    fn shape_canonicalizes_tags() {
        let q = sample_query();
        let s = q.shape();
        assert_eq!(s.seq.len(), 3);
        assert_eq!(s.seq[0].1, Tag::Free);
        assert_eq!(s.seq[1].1, Tag::Semiring(RealDomain::SUM));
        assert_eq!(s.seq[2].1, Tag::Semiring(RealDomain::MAX));
        assert_eq!(s.edges.len(), 2);
    }
}
