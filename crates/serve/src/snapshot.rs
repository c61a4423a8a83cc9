//! Epoch snapshots: the immutable unit the writer publishes and readers hold.
//!
//! A [`Snapshot`] is a frozen view of the server at one **epoch**: the
//! prepared handle for every registered query (each already bound to the
//! catalog factor versions current at that epoch) plus one write-once
//! result cell per query — the only place a served result lives. Snapshots
//! are shared by `Arc` — publishing a new epoch never changes the data of an
//! old one, so an in-flight query keeps reading the snapshot it was submitted
//! under while later submissions see the new data. No reader ever takes a
//! lock to use one.

use faq_core::PreparedQuery;
use faq_core::VarAgg;
use faq_factor::Factor;
use faq_hypergraph::Var;
use faq_semiring::AggDomain;
use std::sync::{Arc, OnceLock};

/// Handle for a query registered with a [`crate::FaqServer`].
///
/// Identical [`QuerySpec`]s registered by different tenants dedupe to the
/// same `QueryId`, which is what makes cross-tenant result sharing work: a
/// cached output is keyed by the id, so tenant B's submission can be served
/// from the result tenant A's submission computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub(crate) usize);

/// A query template over the server's factor catalog.
///
/// This is [`faq_core::FaqQuery`] with the factors replaced by **catalog
/// slot indices**: the server owns the data (and its evolution through
/// [`crate::FaqServer::publish_delta`]), so registrations reference slots
/// instead of carrying factor copies. The same slot may appear several
/// times (a self-join).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    /// Free (output) variables, in output-schema order.
    pub free: Vec<Var>,
    /// Bound variables with their aggregates, outermost first.
    pub bound: Vec<(Var, VarAgg)>,
    /// For each factor of the query, the catalog slot it reads.
    pub slots: Vec<usize>,
}

impl QuerySpec {
    /// A spec over `slots` with the given free and bound variables.
    pub fn new(free: Vec<Var>, bound: Vec<(Var, VarAgg)>, slots: Vec<usize>) -> QuerySpec {
        QuerySpec { free, bound, slots }
    }
}

/// One published epoch: every registered query prepared against the factor
/// catalog as of that epoch, plus the results known for it.
///
/// A snapshot's data is immutable. Every submission carries the `Arc` of
/// the snapshot that was latest when it was submitted, and is answered from
/// it: two jobs answered from the same snapshot are guaranteed to see the
/// same data — the consistency unit of the serving runtime.
pub struct Snapshot<D: AggDomain> {
    pub(crate) epoch: u64,
    pub(crate) queries: Vec<Arc<PreparedQuery<D>>>,
    /// One write-once cell per query (index = [`QueryId`]): set at publish
    /// from the writer's refreshed or carried-over output, else by the first
    /// worker that evaluates the query against this snapshot. Every value
    /// offered to a cell is that query's output over this epoch's data, so
    /// which one wins is unobservable.
    pub(crate) results: Vec<OnceLock<Arc<Factor<D::E>>>>,
}

impl<D: AggDomain> std::fmt::Debug for Snapshot<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.epoch)
            .field("queries", &self.queries.len())
            .field("results", &self.cached_count())
            .finish()
    }
}

impl<D: AggDomain> Snapshot<D> {
    /// The epoch counter at which this snapshot was published.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shared result for `id` cached in this snapshot, if any.
    #[cfg(test)]
    pub(crate) fn cached_result(&self, id: QueryId) -> Option<&Arc<Factor<D::E>>> {
        self.results.get(id.0)?.get()
    }

    /// The prepared handle for `id`, if registered by this epoch.
    ///
    /// Exposed for direct (pool-free) evaluation in tests and tools; the
    /// serving path goes through [`crate::FaqServer::submit`].
    pub fn prepared(&self, id: QueryId) -> Option<&Arc<PreparedQuery<D>>> {
        self.queries.get(id.0)
    }

    /// How many queries have a result cached in this snapshot.
    pub(crate) fn cached_count(&self) -> usize {
        self.results.iter().filter(|cell| cell.get().is_some()).count()
    }
}
