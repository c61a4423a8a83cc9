//! Multi-tenant serving runtime for FAQ queries.
//!
//! This crate turns the single-query engine of `faq_core` into a long-lived
//! **server**: many tenants submit prepared queries concurrently against a
//! shared, evolving factor catalog, with
//!
//! * **epoch snapshots** — writers publish new catalog versions as immutable
//!   `Arc`-shared [`Snapshot`]s; every submission carries the snapshot it
//!   was made under and is answered from it, and evaluation takes **no
//!   locks**;
//! * a **persistent worker pool** — plain `std::thread` workers fed over
//!   mpsc channels, replacing the per-call `thread::scope` of the one-shot
//!   engine;
//! * **admission control** — a global and a per-[`Tenant`] in-flight cap,
//!   plus a per-query [`faq_core::ExecPolicy`] budget that clamps how much
//!   of the machine a single evaluation may use;
//! * **cross-query sharing** — identical registrations dedupe to one
//!   [`QueryId`], and a computed result is cached in its epoch's snapshot —
//!   the one place a served result lives — so one tenant's work answers
//!   another tenant's identical query, on whichever worker it lands;
//! * **fault tolerance** — evaluation panics are contained per worker
//!   ([`ServeError::QueryPanicked`]; the pool never shrinks), storage
//!   faults and overrun deadlines surface as typed errors
//!   ([`ServeError::Faq`], [`ServeError::DeadlineExceeded`]), delta
//!   publishes are atomic (a mid-apply failure leaves the previous epoch
//!   fully intact), and a seeded [`PanicPlan`] drives the chaos suite.
//!
//! # Epoch lifecycle
//!
//! ```text
//!  register/publish_delta          submit (any thread)        worker
//!  ───────────────────────         ───────────────────────    ────────────────────────
//!  lock writer state               take latest: Arc (e)       recv job
//!  merge delta into the slot,      job = (query, Arc (e))     Shared, cell of (e) set:
//!    once per column order           ⋱ round-robin              reply it
//!  install + replay per query      Ticket::wait               else evaluate on (e),
//!  take replicas (handles)                                      set cell of (e), reply
//!  cells of (e+1): refreshed       after publish returns:     keep nothing
//!    outputs + (e)'s other cells     latest is (e+1)
//!  latest := Snapshot (e+1)
//! ```
//!
//! A queued or running job pins the snapshot it carries; an epoch nobody
//! holds any more is freed with its last `Arc`.
//!
//! A factor is a handle on one immutable, `Arc`-shared body (listing plus
//! trie index), so the catalog, every registered query that reads a slot in
//! the catalog's column order, and every epoch snapshot hold *handles* on
//! the same data: registering a query, taking the next epoch's replicas or
//! a rollback copy duplicates no row. What a `publish_delta` builds is
//! the new version of the one slot it touches — merged
//! (`DeltaFactor::apply_to`) once per column order the slot is held in
//! (the catalog's, plus the order of any copy a planner reordered), whatever
//! the number of queries reading it, and indexed by its first replay — plus,
//! per query, the elimination steps the change reaches
//! (`PreparedQuery::install_merged`, the install half of `apply_delta`: the
//! incremental replay machinery of the core crate is the *publish
//! primitive* here). The refreshed outputs fill the new epoch's result
//! cells, the cells of untouched queries carry
//! over what the previous epoch had cached; readers of an older epoch keep
//! the bodies it was published with — a publish replaces handles, it never
//! writes through one. One caveat inherited from the replay machinery:
//! deltas anchored on a non-leading column of a step's join order fall back
//! to recomputing the whole step, so publish cost for such deltas approaches
//! a full (but still single-query) evaluation.
//!
//! # Pool sizing
//!
//! The default configuration runs one worker per hardware thread, and a
//! submission that names no budget runs **sequentially**: with one query
//! per worker, inter-query parallelism already saturates the machine, and
//! per-query threads would oversubscribe it. For a latency-sensitive
//! single-tenant setup, invert this: fewer workers, larger per-submission
//! budgets via [`FaqServer::submit_with`].
//!
//! # Quick example
//!
//! ```
//! use faq_core::VarAgg;
//! use faq_factor::{Domains, Factor};
//! use faq_hypergraph::Var;
//! use faq_semiring::CountDomain;
//! use faq_serve::{FaqServer, QuerySpec};
//!
//! // Catalog: one edge relation R(x0, x1).
//! let edges = Factor::new(
//!     vec![Var(0), Var(1)],
//!     vec![(vec![0, 1], 1u64), (vec![1, 0], 1u64)],
//! )
//! .unwrap();
//! let server = FaqServer::new(CountDomain, Domains::uniform(2, 2), vec![edges]);
//!
//! // Register "count all edges" and serve it.
//! let q = server
//!     .register(QuerySpec::new(
//!         vec![],
//!         vec![
//!             (Var(0), VarAgg::Semiring(CountDomain::SUM)),
//!             (Var(1), VarAgg::Semiring(CountDomain::SUM)),
//!         ],
//!         vec![0],
//!     ))
//!     .unwrap();
//! let tenant = server.tenant("docs", 4);
//! let out = server.submit(&tenant, q).unwrap().wait().unwrap();
//! assert_eq!(out.factor.value(0), &2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod server;
mod snapshot;

pub use server::{
    CacheMode, FaqServer, PanicPlan, ServeConfig, ServeError, ServeOutput, ServeStats, Tenant,
    Ticket,
};
pub use snapshot::{QueryId, QuerySpec, Snapshot};
