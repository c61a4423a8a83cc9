//! The serving runtime: worker pool, admission, epochs, result sharing.
//!
//! # Architecture
//!
//! [`FaqServer`] owns a pool of persistent `std::thread` workers, each with
//! its own mpsc inbox of **jobs**. A job is a query submission together
//! with the [`Snapshot`] that was latest when it was submitted and a reply
//! channel; a worker evaluates it against that snapshot and keeps nothing
//! between jobs, so an answer is a function of its job alone. Evaluation
//! reads `Arc`-shared immutable data and takes no lock; the reply path takes
//! the coalescing table's lock once, to retire a `Shared` leader's group.
//! All writer state (the factor catalog, the master [`PreparedQuery`]
//! handles with their delta-replay caches) lives behind a single `Mutex`
//! that only [`FaqServer::register`], [`FaqServer::publish_delta`] and the
//! memory gauge of [`FaqServer::stats`] take.
//!
//! A job is answered at the epoch it was submitted under: one submitted
//! after `publish_delta` returns carries the new snapshot, one already
//! queued keeps (and pins) the snapshot it was given. Every answer carries
//! its epoch, so callers can correlate results with published data versions.
//!
//! # Result sharing
//!
//! Identical [`QuerySpec`]s dedupe to one [`QueryId`] at registration, so
//! results are shared across tenants by construction, and a served result
//! lives in exactly one place: the write-once cell its snapshot holds for
//! the query. A worker that evaluates sets the cell of the snapshot it
//! evaluated against; a `Shared` submission reads that cell first, on
//! whichever worker it lands. At publish the writer fills the next
//! snapshot's cells itself: for every query the delta touched, with the
//! output of the incremental replay of [`PreparedQuery::install_merged`];
//! for every other query — its data is unchanged — with the previous
//! snapshot's cell when that is set. A cell is only ever offered the
//! query's output over its own snapshot's data, so cached entries are
//! *never* stale — a cache hit at epoch `e` is bit-identical to a fresh
//! evaluation at epoch `e` — and a result computed against an old epoch
//! after a later publish stays on the old snapshot.

use crate::snapshot::{QueryId, QuerySpec, Snapshot};
use faq_core::{ExecPolicy, FaqError, FaqQuery, Planner, PreparedQuery};
use faq_factor::fault::{self, InjectedPanic};
use faq_factor::{DeltaFactor, Domains, Factor};
use faq_semiring::{AggDomain, AggId, SemiringElem};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poison-proof lock acquisition: a worker that panicked while holding a
/// serving lock must not wedge the rest of the pool — the protected state is
/// either atomic-per-entry (in-flight table) or rebuilt wholesale on the next
/// publish, so recovering the guard is sound.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Deterministic, seeded worker-panic injection — the serve-side half of the
/// chaos harness (the storage half is [`faq_factor::FaultPlan`]).
///
/// Each job draws one hash of `(seed, sequence)` ([`fault::seeded_unit`])
/// before evaluation; a draw under `probability` raises an [`InjectedPanic`]
/// inside the worker's `catch_unwind` perimeter, which must surface as
/// [`ServeError::QueryPanicked`] without shrinking the pool. Clones share the
/// sequence counter and the enable flag, so a plan handle kept by a test can
/// switch injection off on a running server.
#[derive(Debug, Clone)]
pub struct PanicPlan {
    seed: u64,
    probability: f64,
    seq: Arc<AtomicU64>,
    enabled: Arc<AtomicBool>,
}

impl PanicPlan {
    /// A plan panicking each job independently with `probability`, decided by
    /// a deterministic hash of `seed` and the job sequence number.
    pub fn seeded(seed: u64, probability: f64) -> PanicPlan {
        PanicPlan {
            seed,
            probability,
            seq: Arc::new(AtomicU64::new(0)),
            enabled: Arc::new(AtomicBool::new(true)),
        }
    }

    /// Switch injection on or off across every clone of this plan.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    fn should_panic(&self) -> bool {
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        self.enabled.load(Ordering::SeqCst) && fault::seeded_unit(self.seed, n) < self.probability
    }
}

/// Configuration for a [`FaqServer`].
///
/// Construct with [`ServeConfig::default`] and adjust through the builder
/// methods; the struct is `#[non_exhaustive]` so new knobs can be added
/// without breaking callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Number of persistent worker threads (≥ 1).
    pub workers: usize,
    /// Global cap on admitted-but-unfinished submissions; submissions beyond
    /// it are rejected with [`ServeError::Overloaded`].
    pub max_in_flight: usize,
    /// Planner used to prepare registered queries. Defaults to the full
    /// cost-based planner at hardware parallelism — plans carry that policy
    /// and each submission's budget caps it down.
    pub planner: Planner,
    /// Chaos-testing hook: inject deterministic worker panics. `None` (the
    /// default) injects nothing.
    pub panic_plan: Option<PanicPlan>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ServeConfig {
            workers: hw,
            max_in_flight: hw * 4,
            planner: Planner::default(),
            panic_plan: None,
        }
    }
}

impl ServeConfig {
    /// This config with `n` worker threads (clamped to ≥ 1).
    pub fn workers(mut self, n: usize) -> ServeConfig {
        self.workers = n.max(1);
        self
    }

    /// This config admitting at most `n` concurrent submissions (≥ 1).
    pub fn max_in_flight(mut self, n: usize) -> ServeConfig {
        self.max_in_flight = n.max(1);
        self
    }

    /// This config planning registered queries with `planner`.
    pub fn planner(mut self, planner: Planner) -> ServeConfig {
        self.planner = planner;
        self
    }

    /// This config injecting deterministic worker panics per `plan` — for
    /// chaos testing only.
    pub fn panic_plan(mut self, plan: PanicPlan) -> ServeConfig {
        self.panic_plan = Some(plan);
        self
    }
}

/// Errors surfaced by the serving runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// Admission rejected the submission: the `scope` ("server" or the
    /// tenant's name) already has `limit` submissions in flight.
    Overloaded {
        /// What hit its cap: `"server"` for the global limit, else the
        /// tenant name.
        scope: String,
        /// The in-flight cap that was hit.
        limit: usize,
    },
    /// The [`QueryId`] is not registered in the latest snapshot — impossible
    /// for ids this server's [`FaqServer::register`] returned.
    UnknownQuery(QueryId),
    /// A catalog slot index out of range.
    UnknownSlot(usize),
    /// The server is shutting down; the submission was dropped.
    ShuttingDown,
    /// Evaluation overran the submission's deadline (carried on its budget
    /// [`ExecPolicy`]) and was abandoned at a cooperative checkpoint. The
    /// worker and its snapshot are unharmed; resubmitting with a larger
    /// budget is always safe.
    DeadlineExceeded,
    /// The evaluation panicked inside the worker. The panic was contained:
    /// the worker recovered in place (the pool never shrinks), admission
    /// permits were released, and only this submission observes the error.
    QueryPanicked,
    /// The underlying engine failed (invalid spec, schema mismatch, storage
    /// fault, …).
    Faq(FaqError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { scope, limit } => {
                write!(f, "{scope} overloaded: {limit} submissions already in flight")
            }
            ServeError::UnknownQuery(id) => write!(f, "query #{} is not registered", id.0),
            ServeError::UnknownSlot(s) => write!(f, "catalog slot {s} is out of range"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::DeadlineExceeded => write!(f, "submission deadline exceeded"),
            ServeError::QueryPanicked => write!(f, "query evaluation panicked in its worker"),
            ServeError::Faq(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<FaqError> for ServeError {
    fn from(e: FaqError) -> ServeError {
        match e {
            FaqError::DeadlineExceeded => ServeError::DeadlineExceeded,
            e => ServeError::Faq(e),
        }
    }
}

/// How a submission interacts with the shared result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Serve the result cached in the submission's snapshot when there is
    /// one; evaluate otherwise.
    #[default]
    Shared,
    /// Always evaluate, ignoring caches — for benchmarking and tests. The
    /// computed result still feeds the cache for `Shared` readers.
    Bypass,
}

/// A tenant handle: a name plus a private in-flight budget.
///
/// Cheap to clone; clones share the same in-flight counter.
#[derive(Debug, Clone)]
pub struct Tenant {
    name: Arc<str>,
    max_in_flight: usize,
    in_flight: Arc<AtomicUsize>,
}

impl Tenant {
    /// Submissions currently admitted under this tenant.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }
}

/// The answer to one submission.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeOutput<E: SemiringElem> {
    /// Epoch of the snapshot the answer was computed against.
    pub epoch: u64,
    /// The query's output factor at that epoch.
    pub factor: Arc<Factor<E>>,
    /// Whether the answer came from the snapshot's result cache rather than
    /// a fresh evaluation.
    pub cache_hit: bool,
    /// Submission-to-completion latency (queueing + evaluation).
    pub latency: Duration,
}

/// A pending submission; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket<E: SemiringElem> {
    rx: Receiver<Result<ServeOutput<E>, ServeError>>,
    /// The one reply, once [`Ticket::poll`] has taken it off `rx`: the
    /// worker has dropped its sender by then, so a later `poll` or `wait`
    /// must answer from here.
    reply: OnceCell<Result<ServeOutput<E>, ServeError>>,
}

impl<E: SemiringElem> Ticket<E> {
    fn new(rx: Receiver<Result<ServeOutput<E>, ServeError>>) -> Ticket<E> {
        Ticket { rx, reply: OnceCell::new() }
    }

    /// Block until the submission completes.
    pub fn wait(self) -> Result<ServeOutput<E>, ServeError> {
        if let Some(r) = self.reply.into_inner() {
            return r;
        }
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// The result if already complete, `None` if still running. An answered
    /// ticket keeps its answer: every later `poll`, and `wait`, return it.
    pub fn poll(&self) -> Option<Result<ServeOutput<E>, ServeError>> {
        if let Some(r) = self.reply.get() {
            return Some(r.clone());
        }
        match self.rx.try_recv() {
            Ok(r) => Some(self.reply.get_or_init(|| r).clone()),
            Err(std::sync::mpsc::TryRecvError::Empty) => None,
            Err(std::sync::mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::ShuttingDown)),
        }
    }
}

/// Counters exposed by [`FaqServer::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct ServeStats {
    /// Submissions attempted (admitted or not).
    pub submitted: u64,
    /// Submissions answered (ok or error) by a worker.
    pub completed: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Submissions answered with [`ServeError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Submissions answered with [`ServeError::QueryPanicked`].
    pub panicked: u64,
    /// Transparently retried chunk I/O operations, process-wide
    /// ([`fault::io_retries`]) — retries absorbed by the storage layer that
    /// no submission ever observed.
    pub io_retries: u64,
    /// Chunk reads that failed checksum verification on every attempt,
    /// process-wide ([`fault::corrupt_chunks`]).
    pub corrupt_chunks: u64,
    /// Answers served from a snapshot's result cache.
    pub cache_hits: u64,
    /// Answers that ran a fresh evaluation.
    pub evaluated: u64,
    /// Submissions answered by attaching to an identical in-flight
    /// submission of the same epoch (no queueing, no evaluation of their
    /// own).
    pub coalesced: u64,
    /// Epoch snapshots still alive — the latest one plus every older epoch
    /// some reader (an in-flight job, a held [`FaqServer::snapshot`]) is
    /// keeping pinned.
    pub live_epochs: usize,
    /// Resident bytes of the data the writer serves from — the catalog and
    /// the registered queries' inputs — each distinct factor body counted
    /// once: listing (full array bytes in memory, the currently pinned chunk
    /// window when spilled) plus built trie index. A query that reads a slot
    /// in the catalog's column order holds a handle on the catalog's body
    /// and adds nothing; a copy the planner reordered is a body of its own
    /// (one per column order once a publish has touched the slot).
    /// The latest epoch's replicas are handles on the same bodies; an older
    /// epoch a reader still pins keeps the bodies it was published with,
    /// which are not counted here (see `live_epochs`).
    pub resident_bytes: usize,
    /// Results cached in the latest snapshot.
    pub cache_entries: usize,
}

#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    deadline_exceeded: AtomicU64,
    panicked: AtomicU64,
    cache_hits: AtomicU64,
    evaluated: AtomicU64,
    coalesced: AtomicU64,
}

/// Releases admission slots when the job finishes (or is dropped anywhere
/// along the way — channel failure included).
#[derive(Debug)]
struct AdmissionPermit {
    counters: Vec<Arc<AtomicUsize>>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        for c in &self.counters {
            c.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

struct Job<D: AggDomain> {
    /// The snapshot that was latest at submission: what the job is answered
    /// from, and pinned until it is.
    snapshot: Arc<Snapshot<D>>,
    query: QueryId,
    budget: ExecPolicy,
    cache: CacheMode,
    submitted: Instant,
    reply: Sender<Result<ServeOutput<D::E>, ServeError>>,
    /// `Some` when this job leads a coalescing group: the key under which
    /// identical same-epoch submissions queued up as followers. The worker
    /// retires the entry and fans the answer out after evaluating.
    coalesce: Option<(usize, u64)>,
    _permit: AdmissionPermit,
}

/// A submission answered by an identical in-flight leader instead of a job
/// of its own. Holds its admission permit until the fan-out, so coalesced
/// submissions still count against the caps they were admitted under.
struct Follower<D: AggDomain> {
    reply: Sender<Result<ServeOutput<D::E>, ServeError>>,
    /// When this follower was admitted — its fanned-out answer reports its
    /// own submission-to-completion latency, not the leader's.
    submitted: Instant,
    _permit: AdmissionPermit,
}

/// In-flight leaders by `(query, epoch-at-submission)`, each with the
/// followers awaiting its answer.
type Inflight<D> = Mutex<HashMap<(usize, u64), Vec<Follower<D>>>>;

/// Writer-side state: everything the publish path mutates, behind one lock
/// that the read path never touches.
struct WriterState<D: AggDomain> {
    domain: D,
    domains: Domains,
    /// Current (fully merged) factor value per catalog slot.
    catalog: Vec<Factor<D::E>>,
    /// Registered specs, index = [`QueryId`].
    specs: Vec<QuerySpec>,
    /// Writer-owned handles; keep their delta-replay caches warm.
    masters: Vec<PreparedQuery<D>>,
}

/// A multi-tenant serving runtime for FAQ queries.
///
/// See the [crate docs](crate) for the architecture. Typical use:
///
/// 1. [`FaqServer::new`] with a factor catalog;
/// 2. [`FaqServer::register`] query templates ([`QuerySpec`]) → [`QueryId`];
/// 3. [`FaqServer::submit`] from any thread, [`Ticket::wait`] for answers;
/// 4. [`FaqServer::publish_delta`] to evolve the data — in-flight queries
///    finish against their snapshot, later ones see the new epoch.
pub struct FaqServer<D: AggDomain> {
    config: ServeConfig,
    worker_txs: Vec<Sender<Job<D>>>,
    handles: Vec<JoinHandle<()>>,
    rr: AtomicUsize,
    global_in_flight: Arc<AtomicUsize>,
    /// The latest published snapshot — the one source of the current epoch.
    latest: Mutex<Arc<Snapshot<D>>>,
    stats: Arc<Counters>,
    /// Weak handles to every published snapshot, for the live-epoch gauge;
    /// pruned opportunistically on publish and on [`FaqServer::stats`].
    epochs: Mutex<Vec<Weak<Snapshot<D>>>>,
    inflight: Arc<Inflight<D>>,
    writer: Mutex<WriterState<D>>,
}

impl<D> FaqServer<D>
where
    D: AggDomain + Clone + Send + Sync + 'static,
    D::E: 'static,
{
    /// A server over `catalog` with the default [`ServeConfig`].
    pub fn new(domain: D, domains: Domains, catalog: Vec<Factor<D::E>>) -> FaqServer<D> {
        FaqServer::with_config(ServeConfig::default(), domain, domains, catalog)
    }

    /// A server over `catalog` with an explicit config.
    pub fn with_config(
        config: ServeConfig,
        domain: D,
        domains: Domains,
        catalog: Vec<Factor<D::E>>,
    ) -> FaqServer<D> {
        // A recovered worker panic must not spray a report per injected fault,
        // and spill dirs orphaned by a previous crashed process are reclaimed
        // before this one starts writing its own.
        fault::install_quiet_hook();
        let _ = faq_factor::gc_stale_spill_dirs(None);
        let stats = Arc::new(Counters::default());
        let inflight: Arc<Inflight<D>> = Arc::new(Mutex::new(HashMap::new()));
        let mut worker_txs = Vec::with_capacity(config.workers);
        let mut handles = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let (tx, rx) = channel::<Job<D>>();
            let st = Arc::clone(&stats);
            let infl = Arc::clone(&inflight);
            let plan = config.panic_plan.clone();
            let handle = std::thread::Builder::new()
                .name(format!("faq-serve-{i}"))
                .spawn(move || worker_loop::<D>(rx, st, infl, plan))
                .expect("spawning a serving worker thread failed");
            worker_txs.push(tx);
            handles.push(handle);
        }
        let first = Arc::new(Snapshot { epoch: 0, queries: Vec::new(), results: Vec::new() });
        FaqServer {
            config,
            worker_txs,
            handles,
            rr: AtomicUsize::new(0),
            global_in_flight: Arc::new(AtomicUsize::new(0)),
            latest: Mutex::new(Arc::clone(&first)),
            stats,
            epochs: Mutex::new(vec![Arc::downgrade(&first)]),
            inflight,
            writer: Mutex::new(WriterState {
                domain,
                domains,
                catalog,
                specs: Vec::new(),
                masters: Vec::new(),
            }),
        }
    }

    /// The epoch of the most recently published snapshot.
    pub fn current_epoch(&self) -> u64 {
        lock_unpoisoned(&self.latest).epoch
    }

    /// The most recently published snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot<D>> {
        Arc::clone(&lock_unpoisoned(&self.latest))
    }

    /// Runtime counters (monotonic since construction) and memory gauges
    /// (instantaneous).
    pub fn stats(&self) -> ServeStats {
        let live_epochs = {
            let mut epochs = lock_unpoisoned(&self.epochs);
            epochs.retain(|w| w.strong_count() > 0);
            epochs.len()
        };
        let cache_entries = lock_unpoisoned(&self.latest).cached_count();
        let resident_bytes = {
            let w = lock_unpoisoned(&self.writer);
            let mut bodies: Vec<&Factor<D::E>> = Vec::new();
            let inputs = w.masters.iter().flat_map(|m| &m.query().factors);
            for f in w.catalog.iter().chain(inputs) {
                if !bodies.iter().any(|b| b.shares_body(f)) {
                    bodies.push(f);
                }
            }
            bodies.iter().map(|f| f.resident_bytes()).sum()
        };
        ServeStats {
            submitted: self.stats.submitted.load(Ordering::SeqCst),
            completed: self.stats.completed.load(Ordering::SeqCst),
            rejected: self.stats.rejected.load(Ordering::SeqCst),
            deadline_exceeded: self.stats.deadline_exceeded.load(Ordering::SeqCst),
            panicked: self.stats.panicked.load(Ordering::SeqCst),
            io_retries: fault::io_retries(),
            corrupt_chunks: fault::corrupt_chunks(),
            cache_hits: self.stats.cache_hits.load(Ordering::SeqCst),
            evaluated: self.stats.evaluated.load(Ordering::SeqCst),
            coalesced: self.stats.coalesced.load(Ordering::SeqCst),
            live_epochs,
            resident_bytes,
            cache_entries,
        }
    }

    /// A tenant handle admitting at most `max_in_flight` concurrent
    /// submissions (clamped to ≥ 1).
    pub fn tenant(&self, name: &str, max_in_flight: usize) -> Tenant {
        Tenant {
            name: Arc::from(name),
            max_in_flight: max_in_flight.max(1),
            in_flight: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Register a query template; returns its [`QueryId`] and publishes a
    /// new epoch making it visible to the pool.
    ///
    /// Registering a spec identical to an existing one returns the existing
    /// id (no new epoch) — this is how unrelated tenants end up sharing
    /// results. Errors if a slot is out of range or the spec fails
    /// [`FaqQuery`] validation; the server is left unchanged.
    pub fn register(&self, spec: QuerySpec) -> Result<QueryId, ServeError> {
        let mut w = lock_unpoisoned(&self.writer);
        if let Some(i) = w.specs.iter().position(|s| *s == spec) {
            return Ok(QueryId(i));
        }
        let factors = spec
            .slots
            .iter()
            .map(|&s| w.catalog.get(s).cloned().ok_or(ServeError::UnknownSlot(s)))
            .collect::<Result<Vec<_>, _>>()?;
        let q = FaqQuery::new(
            w.domain.clone(),
            w.domains.clone(),
            spec.free.clone(),
            spec.bound.clone(),
            factors,
        )?;
        let master = self.config.planner.prepare(&q)?;
        let id = QueryId(w.specs.len());
        w.masters.push(master);
        w.specs.push(spec);
        self.publish_locked(&w, Vec::new());
        Ok(id)
    }

    /// Apply `delta` to catalog slot `slot` and publish the resulting epoch.
    ///
    /// The delta is merged into the slot once per column order the slot is
    /// held in, not once per query, and not indexed here; affected queries
    /// are then refreshed **incrementally** through
    /// [`PreparedQuery::install_merged`] (the install-and-replay half of
    /// `apply_delta`) — their new outputs seed the epoch's shared result
    /// cache, so `Shared` readers of a touched query never pay for a
    /// recomputation the writer already did. Unaffected queries keep their
    /// prepared handles and cached results by `Arc` identity.
    ///
    /// Returns the new epoch. In-flight submissions are answered at the
    /// epoch they started under; submissions after this returns see the new
    /// data.
    pub fn publish_delta(&self, slot: usize, delta: &DeltaFactor<D::E>) -> Result<u64, ServeError> {
        let mut w = lock_unpoisoned(&self.writer);
        let base = w.catalog.get(slot).ok_or(ServeError::UnknownSlot(slot))?;
        // Validate upfront, by the rules `apply_delta` itself applies: the
        // per-master installs below must not fail halfway (each errors
        // without touching its handle, but a mid-loop error would leave
        // earlier masters ahead of later ones).
        faq_core::plan::check_delta(&w.domain, &w.domains, slot, base, delta, AggId(0))?;

        // Merge into a staged copy — NOT installed yet — under the masters'
        // controls. A spilled merge does chunk I/O on this thread, so a
        // storage fault can abort it; it surfaces as a typed error with
        // catalog and masters untouched.
        let policy = &self.config.planner.policy;
        let merge = |base| faq_core::plan::merge_delta(&w.domain, policy, base, delta, AggId(0));
        // One merge per column order the slot is held in: the catalog's
        // first, then the order of any copy a planner reordered. Every master
        // below installs the body of its order; its first replay indexes it.
        let mut merges = vec![merge(base)?];
        for (spec, master) in w.specs.iter().zip(&w.masters) {
            for (&s, input) in spec.slots.iter().zip(&master.query().factors) {
                if s == slot && !merges.iter().any(|(m, _)| m.schema() == input.schema()) {
                    merges.push(merge(input)?);
                }
            }
        }

        // Incrementally refresh every query reading the slot, atomically:
        // outputs are staged and each touched master's pre-state is kept, so
        // any mid-apply failure (a fault on a spilled replay, say) rolls the
        // already-advanced masters back and leaves the previous epoch fully
        // intact — readers never observe a half-applied delta. The rollback
        // clones are handles on the same factor bodies (nothing is copied)
        // but carry no replay cache ([`PreparedQuery`]'s `Clone` drops it),
        // so a failed publish costs the touched queries their warm caches;
        // the next successful delta re-primes them.
        let mut undo: Vec<(usize, PreparedQuery<D>)> = Vec::new();
        let mut staged: Vec<(usize, Arc<Factor<D::E>>)> = Vec::new();
        for qi in 0..w.specs.len() {
            let locals: Vec<usize> = w.specs[qi]
                .slots
                .iter()
                .enumerate()
                .filter_map(|(l, &s)| (s == slot).then_some(l))
                .collect();
            if locals.is_empty() {
                continue;
            }
            undo.push((qi, w.masters[qi].clone()));
            let mut out = None;
            for l in locals {
                let master = &mut w.masters[qi];
                let order = master.query().factors[l].schema();
                let (merged, ranges) = merges
                    .iter()
                    .find(|(m, _)| m.schema() == order)
                    .expect("every held order was merged above")
                    .clone();
                match master.install_merged(l, merged, ranges) {
                    Ok(o) => out = Some(o),
                    Err(e) => {
                        for (uqi, prev) in undo {
                            w.masters[uqi] = prev;
                        }
                        return Err(e.into());
                    }
                }
            }
            let out = out.expect("at least one local slot matched");
            staged.push((qi, Arc::new(out.factor)));
        }

        // Commit point: every master advanced cleanly — install the merged
        // catalog slot and the staged results, then publish. An effect-free
        // delta keeps the slot's body (the masters kept theirs).
        let (merged, ranges) = merges.swap_remove(0);
        if !ranges.is_empty() {
            w.catalog[slot] = merged;
        }
        Ok(self.publish_locked(&w, staged))
    }

    /// Publish the next epoch and return its number: the previous snapshot
    /// with a fresh replica (via [`PreparedQuery`]'s cache-dropping `Clone`)
    /// and the new output for every query in `refreshed` — those this publish
    /// touched — and a replica and an empty cell for a query registered since.
    /// Every other query's data is unchanged, so it keeps sharing its replica
    /// `Arc` and its cell carries over what the previous snapshot has cached
    /// (a result a worker sets there later is not carried: it stays on the
    /// snapshot it was computed against).
    fn publish_locked(
        &self,
        w: &WriterState<D>,
        refreshed: Vec<(usize, Arc<Factor<D::E>>)>,
    ) -> u64 {
        let prev = self.snapshot();
        let (mut queries, mut results) = (prev.queries.clone(), prev.results.clone());
        for (qi, factor) in refreshed {
            queries[qi] = Arc::new(w.masters[qi].clone());
            results[qi] = OnceLock::from(factor);
        }
        for master in &w.masters[queries.len()..] {
            queries.push(Arc::new(master.clone()));
            results.push(OnceLock::new());
        }
        let epoch = prev.epoch + 1;
        let snap = Arc::new(Snapshot { epoch, queries, results });
        {
            let mut epochs = lock_unpoisoned(&self.epochs);
            epochs.retain(|w| w.strong_count() > 0);
            epochs.push(Arc::downgrade(&snap));
        }
        *lock_unpoisoned(&self.latest) = snap;
        epoch
    }

    /// Submit `query` for `tenant` under the default (sequential) budget and
    /// [`CacheMode::Shared`].
    pub fn submit(&self, tenant: &Tenant, query: QueryId) -> Result<Ticket<D::E>, ServeError> {
        self.submit_with(tenant, query, None, CacheMode::Shared)
    }

    /// Submit `query` for `tenant` with an explicit per-query budget and
    /// cache mode.
    ///
    /// `budget` caps the prepared plan's policy (thread count and chunk
    /// floor) for this evaluation only — outputs are bit-identical
    /// under every budget. `None` applies [`ExecPolicy::sequential`]: with
    /// one query per worker, inter-query parallelism already saturates the
    /// pool, and per-query threads would oversubscribe it.
    ///
    /// The submission is bound here to the latest snapshot and answered from
    /// it, whatever is published meanwhile. A `query` that snapshot does not
    /// hold is [`ServeError::UnknownQuery`]. Admission is two-level: the
    /// global [`ServeConfig::max_in_flight`] cap, then the tenant's own.
    /// Every rejection is immediate, holds no permit and costs no worker
    /// time.
    pub fn submit_with(
        &self,
        tenant: &Tenant,
        query: QueryId,
        budget: Option<&ExecPolicy>,
        cache: CacheMode,
    ) -> Result<Ticket<D::E>, ServeError> {
        self.stats.submitted.fetch_add(1, Ordering::SeqCst);
        let snapshot = self.snapshot();
        if snapshot.prepared(query).is_none() {
            return Err(ServeError::UnknownQuery(query));
        }
        if self.global_in_flight.fetch_add(1, Ordering::SeqCst) >= self.config.max_in_flight {
            self.global_in_flight.fetch_sub(1, Ordering::SeqCst);
            self.stats.rejected.fetch_add(1, Ordering::SeqCst);
            return Err(ServeError::Overloaded {
                scope: "server".to_owned(),
                limit: self.config.max_in_flight,
            });
        }
        if tenant.in_flight.fetch_add(1, Ordering::SeqCst) >= tenant.max_in_flight {
            tenant.in_flight.fetch_sub(1, Ordering::SeqCst);
            self.global_in_flight.fetch_sub(1, Ordering::SeqCst);
            self.stats.rejected.fetch_add(1, Ordering::SeqCst);
            return Err(ServeError::Overloaded {
                scope: tenant.name.to_string(),
                limit: tenant.max_in_flight,
            });
        }
        let permit = AdmissionPermit {
            counters: vec![Arc::clone(&self.global_in_flight), Arc::clone(&tenant.in_flight)],
        };
        let (reply_tx, reply_rx) = channel();
        // Identical `Shared` submissions racing at the same epoch coalesce:
        // the first becomes the group's leader, the rest enqueue as followers
        // and are fanned the leader's single answer. `Bypass` submissions
        // asked for an evaluation of their own and never coalesce.
        let coalesce = (cache == CacheMode::Shared).then_some((query.0, snapshot.epoch));
        if let Some(key) = coalesce {
            let mut infl = lock_unpoisoned(&self.inflight);
            if let Some(followers) = infl.get_mut(&key) {
                followers.push(Follower {
                    reply: reply_tx,
                    submitted: Instant::now(),
                    _permit: permit,
                });
                self.stats.coalesced.fetch_add(1, Ordering::SeqCst);
                return Ok(Ticket::new(reply_rx));
            }
            infl.insert(key, Vec::new());
        }
        let job = Job {
            snapshot,
            query,
            budget: budget.cloned().unwrap_or_else(ExecPolicy::sequential),
            cache,
            submitted: Instant::now(),
            reply: reply_tx,
            coalesce,
            _permit: permit,
        };
        let i = self.rr.fetch_add(1, Ordering::Relaxed) % self.worker_txs.len();
        if let Err(e) = self.worker_txs[i].send(job) {
            // Retire the leader entry so later submissions don't enqueue
            // behind a job that will never be answered.
            if let Some(key) = coalesce {
                lock_unpoisoned(&self.inflight).remove(&key);
            }
            drop(e);
            return Err(ServeError::ShuttingDown);
        }
        Ok(Ticket::new(reply_rx))
    }
}

impl<D: AggDomain> Drop for FaqServer<D> {
    fn drop(&mut self) {
        // A worker drains its inbox, then sees the disconnect and exits.
        self.worker_txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The worker: answers each job from the snapshot the job carries, and keeps
/// nothing between jobs.
///
/// Evaluation reads exclusively from `Arc`-shared immutable snapshots and
/// takes no lock; the reply path locks the coalescing table once, for jobs
/// that lead a group.
fn worker_loop<D>(
    rx: Receiver<Job<D>>,
    stats: Arc<Counters>,
    inflight: Arc<Inflight<D>>,
    panic_plan: Option<PanicPlan>,
) where
    D: AggDomain + Clone + Sync,
{
    while let Ok(job) = rx.recv() {
        // Panic perimeter: a poisoned evaluation (or an injected chaos
        // panic) is contained here — the worker recovers in place, so the
        // pool never shrinks and the submitter gets `QueryPanicked` instead
        // of a hung ticket. No abort reaches it: evaluation converts its own.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(plan) = &panic_plan {
                if plan.should_panic() {
                    std::panic::panic_any(InjectedPanic("injected worker panic"));
                }
            }
            answer(&job, &stats)
        }));
        let reply = caught.unwrap_or_else(|_| {
            stats.panicked.fetch_add(1, Ordering::SeqCst);
            Err(ServeError::QueryPanicked)
        });
        if matches!(reply, Err(ServeError::DeadlineExceeded)) {
            stats.deadline_exceeded.fetch_add(1, Ordering::SeqCst);
        }
        stats.completed.fetch_add(1, Ordering::SeqCst);
        // Retire the coalescing group *before* replying: once the leader's
        // answer is observable, an identical new submission must start a
        // fresh group, not attach to a finished one.
        let Job { reply: tx, coalesce, _permit: permit, .. } = job;
        let followers =
            coalesce.and_then(|key| lock_unpoisoned(&inflight).remove(&key)).unwrap_or_default();
        // Release the admission slots before replying, so a caller returning
        // from `Ticket::wait` observes its permits freed.
        drop(permit);
        for f in followers {
            let Follower { reply: ftx, submitted, _permit: fpermit } = f;
            drop(fpermit);
            stats.completed.fetch_add(1, Ordering::SeqCst);
            let mut fanned = reply.clone();
            if let Ok(out) = &mut fanned {
                out.latency = submitted.elapsed();
            }
            let _ = ftx.send(fanned);
        }
        let _ = tx.send(reply);
    }
}

/// One job's answer — a function of the job alone: the cached result of its
/// snapshot for a `Shared` job when there is one, else an evaluation of the
/// snapshot's prepared handle, whose output then fills that snapshot's cell.
fn answer<D>(job: &Job<D>, stats: &Counters) -> Result<ServeOutput<D::E>, ServeError>
where
    D: AggDomain + Clone + Sync,
{
    let snap = &*job.snapshot;
    // `submit_with` checked the id against this very snapshot.
    let (prepared, cell) = (&snap.queries[job.query.0], &snap.results[job.query.0]);
    let cached = if job.cache == CacheMode::Shared { cell.get() } else { None };
    let factor = match cached {
        Some(factor) => {
            stats.cache_hits.fetch_add(1, Ordering::SeqCst);
            Arc::clone(factor)
        }
        None => {
            let factor = Arc::new(prepared.evaluate_budgeted(&job.budget)?.factor);
            stats.evaluated.fetch_add(1, Ordering::SeqCst);
            // Lost to a racing evaluation of the same epoch: same bits.
            let _ = cell.set(Arc::clone(&factor));
            factor
        }
    };
    Ok(ServeOutput {
        epoch: snap.epoch,
        factor,
        cache_hit: cached.is_some(),
        latency: job.submitted.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use faq_core::{Engine, VarAgg};
    use faq_hypergraph::{v, Var};
    use faq_semiring::CountDomain;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    const D: u32 = 12;

    /// Three random binary relations over variables 0, 1, 2 (triangle shape).
    fn edge_catalog_over(seed: u64, rows: usize, d: u32) -> Vec<Factor<u64>> {
        let mut r = StdRng::seed_from_u64(seed);
        (0..3)
            .map(|e| {
                let (a, b) = [(0, 1), (1, 2), (0, 2)][e];
                let mut tuples = std::collections::BTreeMap::new();
                for _ in 0..rows {
                    tuples.insert(vec![r.gen_range(0..d), r.gen_range(0..d)], r.gen_range(1..4u64));
                }
                Factor::new(vec![v(a), v(b)], tuples.into_iter().collect()).unwrap()
            })
            .collect()
    }

    fn edge_catalog(seed: u64, rows: usize) -> Vec<Factor<u64>> {
        edge_catalog_over(seed, rows, D)
    }

    /// Count triangles: all variables bound under Σ, factors = slots 0,1,2.
    fn triangle_spec() -> QuerySpec {
        QuerySpec::new(
            vec![],
            vec![
                (v(0), VarAgg::Semiring(CountDomain::SUM)),
                (v(1), VarAgg::Semiring(CountDomain::SUM)),
                (v(2), VarAgg::Semiring(CountDomain::SUM)),
            ],
            vec![0, 1, 2],
        )
    }

    fn server(workers: usize, rows: usize) -> FaqServer<CountDomain> {
        FaqServer::with_config(
            ServeConfig::default().workers(workers),
            CountDomain,
            Domains::uniform(3, D),
            edge_catalog(7, rows),
        )
    }

    /// Sharing within an epoch holds at every pool size: round-robin sends
    /// tenant b's submission to another worker, which finds tenant a's result
    /// in the snapshot both jobs carry.
    #[test]
    fn serves_and_shares_results() {
        for workers in [1, 2, 4] {
            let s = server(workers, 60);
            let q = s.register(triangle_spec()).unwrap();
            // An identical registration (another tenant's) dedupes to the
            // same id without publishing a new epoch.
            let epoch = s.current_epoch();
            assert_eq!(s.register(triangle_spec()).unwrap(), q);
            assert_eq!(s.current_epoch(), epoch);

            let a = s.tenant("a", 8);
            let b = s.tenant("b", 8);
            let first = s.submit(&a, q).unwrap().wait().unwrap();
            assert!(!first.cache_hit);
            let second = s.submit(&b, q).unwrap().wait().unwrap();
            assert!(second.cache_hit, "{workers} workers: same epoch, same result");
            assert_eq!(second.factor, first.factor);
            assert_eq!(second.epoch, first.epoch);
            // Bypass still recomputes — and agrees.
            let fresh = s.submit_with(&b, q, None, CacheMode::Bypass).unwrap().wait().unwrap();
            assert!(!fresh.cache_hit);
            assert_eq!(*fresh.factor, *first.factor);
            let st = s.stats();
            assert_eq!(st.submitted, 3);
            assert_eq!(st.completed, 3);
            assert_eq!(st.cache_hits, 1);
            assert_eq!(st.evaluated, 2);
            assert_eq!(st.cache_entries, 1);
        }
    }

    #[test]
    fn a_polled_answer_is_kept_for_the_next_poll_and_wait() {
        let s = server(2, 60);
        let q = s.register(triangle_spec()).unwrap();
        let t = s.tenant("t", 8);
        let ticket = s.submit(&t, q).unwrap();
        let a = loop {
            match ticket.poll() {
                None => std::thread::yield_now(),
                Some(r) => break r.unwrap(),
            }
        };
        // The server is live: polling again and waiting return the same
        // answer, not `ShuttingDown` from a reply channel already drained.
        let again = ticket.poll().expect("an answered ticket stays answered").unwrap();
        assert_eq!((again.epoch, &again.factor), (a.epoch, &a.factor));
        let waited = ticket.wait().unwrap();
        assert_eq!((waited.epoch, &waited.factor), (a.epoch, &a.factor));
    }

    /// The total weight of catalog slot `slot` — a query only deltas to that
    /// slot touch, and that every one-row insert raises by the row's weight.
    fn slot_sum_spec(slot: usize) -> QuerySpec {
        let (a, b) = [(0, 1), (1, 2), (0, 2)][slot];
        let sum = |i: u32| (v(i), VarAgg::Semiring(CountDomain::SUM));
        QuerySpec::new(vec![], vec![sum(a), sum(b)], vec![slot])
    }

    /// Adds weight 1 to row `key` of catalog slot 0.
    fn slot0_merge(key: [u32; 2]) -> DeltaFactor<u64> {
        let row = (key.to_vec(), faq_factor::DeltaOp::Merge(1u64));
        DeltaFactor::new(vec![v(0), v(1)], vec![row]).unwrap()
    }

    /// What a worker does with a submission of `query` bound to `snapshot`.
    fn answer_from(
        snapshot: &Arc<Snapshot<CountDomain>>,
        query: QueryId,
        cache: CacheMode,
    ) -> ServeOutput<u64> {
        let job = Job {
            snapshot: Arc::clone(snapshot),
            query,
            budget: ExecPolicy::sequential(),
            cache,
            submitted: Instant::now(),
            reply: channel().0,
            coalesce: None,
            _permit: AdmissionPermit { counters: Vec::new() },
        };
        answer(&job, &Counters::default()).unwrap()
    }

    #[test]
    fn a_late_result_stays_on_the_snapshot_it_was_computed_against() {
        let s = server(2, 50);
        let touched = s.register(slot_sum_spec(0)).unwrap();
        let other = s.register(slot_sum_spec(1)).unwrap();
        // A reader pins this epoch; the writer moves on.
        let held = s.snapshot();
        s.publish_delta(0, &slot0_merge([0, 1])).unwrap();

        // Only now is the held epoch evaluated: both results land on it.
        let old = answer_from(&held, touched, CacheMode::Bypass);
        let old_other = answer_from(&held, other, CacheMode::Shared);
        assert_eq!((old.epoch, old_other.epoch), (held.epoch(), held.epoch()));
        assert!(Arc::ptr_eq(held.cached_result(touched).unwrap(), &old.factor));
        assert!(Arc::ptr_eq(held.cached_result(other).unwrap(), &old_other.factor));
        assert!(answer_from(&held, touched, CacheMode::Shared).cache_hit);

        // The latest epoch, and the one after it, never show the touched
        // query's old result, and whatever they cache is that epoch's answer.
        let weight = |f: &Factor<u64>| *f.get(&[]).unwrap();
        for added in [1, 2] {
            let latest = s.snapshot();
            let cached = latest.cached_result(touched).expect("refreshed by the writer");
            assert_eq!(weight(cached), weight(&old.factor) + added);
            if let Some(cached) = latest.cached_result(other) {
                assert_eq!(**cached, latest.prepared(other).unwrap().evaluate().unwrap().factor);
            }
            s.publish_delta(0, &slot0_merge([0, 1])).unwrap();
        }
    }

    #[test]
    fn untouched_results_are_carried_across_publishes_by_identity() {
        let s = server(2, 50);
        let other = s.register(slot_sum_spec(1)).unwrap();
        let t = s.tenant("t", 4);
        let first = s.submit(&t, other).unwrap().wait().unwrap();
        assert!(!first.cache_hit);
        // Registering a second query keeps the first one's cached result …
        let tri = s.register(triangle_spec()).unwrap();
        assert!(Arc::ptr_eq(s.snapshot().cached_result(other).unwrap(), &first.factor));
        assert!(s.snapshot().cached_result(tri).is_none());
        // … and so does a publish to a slot the query does not read.
        let epoch = s.publish_delta(0, &slot0_merge([3, 4])).unwrap();
        let snap = s.snapshot();
        assert!(Arc::ptr_eq(snap.cached_result(other).unwrap(), &first.factor));
        assert!(snap.cached_result(tri).is_some(), "the touched query was refreshed");
        let again = s.submit(&t, other).unwrap().wait().unwrap();
        assert!(again.cache_hit);
        assert_eq!(again.epoch, epoch);
        assert!(Arc::ptr_eq(&again.factor, &first.factor));
        // A publish to the slot it does read replaces the result.
        s.publish_delta(
            1,
            &DeltaFactor::inserts(vec![v(1), v(2)], vec![(vec![0, 0], 1u64)]).unwrap(),
        )
        .unwrap();
        assert!(!Arc::ptr_eq(s.snapshot().cached_result(other).unwrap(), &first.factor));
    }

    /// `CountDomain` with an artificially slow product, so a leader
    /// evaluation reliably outlasts the followers' submission race.
    #[derive(Clone)]
    struct SlowDomain;

    impl AggDomain for SlowDomain {
        type E = u64;
        fn zero(&self) -> u64 {
            0
        }
        fn one(&self) -> u64 {
            1
        }
        fn mul(&self, a: &u64, b: &u64) -> u64 {
            std::thread::sleep(Duration::from_micros(300));
            a * b
        }
        fn add(&self, _op: AggId, a: &u64, b: &u64) -> u64 {
            a + b
        }
        fn num_ops(&self) -> usize {
            1
        }
        fn op_desc(&self, _op: AggId) -> faq_semiring::AggDesc {
            faq_semiring::AggDesc { name: "sum" }
        }
    }

    /// Three complete binary relations over `0..d` — every triple is a
    /// triangle, so evaluation performs Θ(d³) products.
    fn complete_edges(d: u32) -> Vec<Factor<u64>> {
        (0..3)
            .map(|e| {
                let (a, b) = [(0, 1), (1, 2), (0, 2)][e];
                let rows = (0..d).flat_map(|x| (0..d).map(move |y| (vec![x, y], 1u64))).collect();
                Factor::new(vec![v(a), v(b)], rows).unwrap()
            })
            .collect()
    }

    #[test]
    fn identical_submissions_coalesce_to_one_evaluation() {
        let s = FaqServer::with_config(
            ServeConfig::default().workers(2),
            SlowDomain,
            Domains::uniform(3, 6),
            complete_edges(6),
        );
        let q = s.register(triangle_spec()).unwrap();
        let t = s.tenant("t", 16);
        // The first submission leads; the evaluation sleeps in every `⊗`, so
        // the three racing duplicates attach as followers long before it
        // finishes.
        let tickets: Vec<_> = (0..4).map(|_| s.submit(&t, q).unwrap()).collect();
        let outs: Vec<_> = tickets.into_iter().map(|tk| tk.wait().unwrap()).collect();
        assert_eq!(*outs[0].factor.get(&[]).unwrap(), 216, "6³ triangles");
        for o in &outs {
            assert_eq!(o.factor, outs[0].factor);
            assert_eq!(o.epoch, outs[0].epoch);
        }
        let st = s.stats();
        assert_eq!(st.submitted, 4);
        assert_eq!(st.completed, 4);
        assert_eq!(st.evaluated, 1, "one evaluation fanned out to the whole group");
        assert_eq!(st.coalesced, 3);
        assert_eq!(st.cache_hits, 0);
        assert_eq!(t.in_flight(), 0, "follower permits released at fan-out");
        // A later identical submission starts a fresh group — the finished
        // leader's entry was retired, so it does not coalesce.
        let again = s.submit(&t, q).unwrap().wait().unwrap();
        assert_eq!(again.factor, outs[0].factor);
        assert_eq!(s.stats().coalesced, 3);
    }

    #[test]
    fn stats_expose_memory_gauges() {
        let s = server(1, 40);
        let q = s.register(triangle_spec()).unwrap();
        let sum = |vars: &[u32]| {
            vars.iter().map(|&i| (v(i), VarAgg::Semiring(CountDomain::SUM))).collect::<Vec<_>>()
        };
        let specs = [
            triangle_spec(),
            QuerySpec::new(vec![v(0)], sum(&[1, 2]), vec![0, 1, 2]),
            QuerySpec::new(vec![], sum(&[0, 1, 2]), vec![0, 1]),
        ];
        // Three queries over one catalog, every input read in the catalog's
        // column order: the inputs are handles on the catalog's bodies, so
        // the gauge is the catalog's listing plus index — once, not four
        // times. (Expected bytes are measured on independent copies.)
        let catalog = edge_catalog(7, 40);
        for spec in &specs {
            let id = s.register(spec.clone()).unwrap();
            let snap = s.snapshot();
            let inputs = &snap.prepared(id).unwrap().query().factors;
            for (&slot, input) in spec.slots.iter().zip(inputs) {
                assert_eq!(input.schema(), catalog[slot].schema(), "plan reordered slot {slot}");
            }
        }
        let indexed_bytes = |f: &Factor<u64>| {
            f.trie();
            f.resident_bytes()
        };
        let st = s.stats();
        assert_eq!(st.resident_bytes, catalog.iter().map(indexed_bytes).sum::<usize>());
        assert!(st.live_epochs >= 1, "the published snapshot is alive");
        assert_eq!(st.cache_entries, 0);
        let t = s.tenant("t", 4);
        s.submit(&t, q).unwrap().wait().unwrap();
        // A delta publish refreshes the affected result and seeds the new
        // epoch's shared cache.
        let delta = DeltaFactor::inserts(vec![v(0), v(1)], vec![(vec![0, 1], 1u64)]).unwrap();
        s.publish_delta(0, &delta).unwrap();
        assert!(s.stats().cache_entries >= 1, "delta publish seeds the shared cache");
        // Holding an old snapshot keeps its epoch in the live gauge even
        // after further publishes.
        let held = s.snapshot();
        s.publish_delta(
            0,
            &DeltaFactor::inserts(vec![v(0), v(1)], vec![(vec![2, 3], 1u64)]).unwrap(),
        )
        .unwrap();
        assert!(s.stats().live_epochs >= 2, "held snapshot + latest are both live");
        drop(held);
        // Publishing leaves no second copy of a relation behind: after 100
        // insert/delete pairs the catalog holds its previous rows and the
        // gauge its previous value.
        let before = s.stats().resident_bytes;
        let current = s.snapshot().prepared(q).unwrap().query().factors[0].clone();
        let key = (0..D)
            .flat_map(|a| (0..D).map(move |b| vec![a, b]))
            .find(|k| current.get(k).is_none())
            .expect("a ~40-row relation over 12 × 12 has absent pairs");
        let put = DeltaFactor::inserts(vec![v(0), v(1)], vec![(key.clone(), 1u64)]).unwrap();
        let del = DeltaFactor::deletes(vec![v(0), v(1)], vec![key.clone()]).unwrap();
        for _ in 0..100 {
            s.publish_delta(0, &put).unwrap();
            s.publish_delta(0, &del).unwrap();
        }
        assert_eq!(s.stats().resident_bytes, before);
    }

    /// A free variable leads every plan order, so two queries with `x1` free
    /// both hold slot 0 — `(x0, x1)` in the catalog — as `(x1, x0)`. A publish
    /// merges and indexes that order once: afterwards both read one body, and
    /// their answers match a from-scratch evaluation of the merged catalog.
    #[test]
    fn reordered_masters_share_one_merge_per_order() {
        let s = server(1, 40);
        let sum = |i: u32| (v(i), VarAgg::Semiring(CountDomain::SUM));
        let specs = [
            QuerySpec::new(vec![v(1)], vec![sum(0)], vec![0]),
            QuerySpec::new(vec![v(1)], vec![sum(0), sum(2)], vec![0, 1, 2]),
        ];
        let ids: Vec<QueryId> = specs.iter().map(|sp| s.register(sp.clone()).unwrap()).collect();
        let slot0 = |snap: &Snapshot<CountDomain>, id: QueryId| {
            snap.prepared(id).unwrap().query().factors[0].clone()
        };
        let before = s.snapshot();
        assert_eq!(slot0(&before, ids[0]).schema(), &[v(1), v(0)]);
        assert!(!slot0(&before, ids[0]).shares_body(&slot0(&before, ids[1])), "reordered apart");

        let delta = DeltaFactor::new(
            vec![v(0), v(1)],
            vec![
                (vec![3, 4], faq_factor::DeltaOp::Merge(2u64)),
                (vec![5, 6], faq_factor::DeltaOp::Put(1)),
            ],
        )
        .unwrap();
        s.publish_delta(0, &delta).unwrap();
        let after = s.snapshot();
        assert!(slot0(&after, ids[0]).shares_body(&slot0(&after, ids[1])), "one merge per order");

        let mut catalog = edge_catalog(7, 40);
        catalog[0] = delta.apply_to(&catalog[0], |a, b| a + b, |x| *x == 0).0;
        for (spec, &id) in specs.iter().zip(&ids) {
            let q = FaqQuery::new(
                CountDomain,
                Domains::uniform(3, D),
                spec.free.clone(),
                spec.bound.clone(),
                spec.slots.iter().map(|&sl| catalog[sl].clone()).collect(),
            )
            .unwrap();
            let want = Engine::sequential().evaluate(&q).unwrap().factor;
            assert_eq!(**after.cached_result(id).unwrap(), want, "writer-refreshed result");
            assert_eq!(after.prepared(id).unwrap().evaluate().unwrap().factor, want);
        }
    }

    #[test]
    fn budget_caps_threads_not_results() {
        let s = server(2, 80);
        let q = s.register(triangle_spec()).unwrap();
        let t = s.tenant("t", 8);
        let wide = ExecPolicy::with_threads(4).min_chunk_rows(1);
        let parallel =
            s.submit_with(&t, q, Some(&wide), CacheMode::Bypass).unwrap().wait().unwrap();
        let sequential = s
            .submit_with(&t, q, Some(&ExecPolicy::sequential()), CacheMode::Bypass)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(*parallel.factor, *sequential.factor);
    }

    #[test]
    fn admission_rejects_over_limit() {
        // One worker, heavy query: the first submission occupies the worker
        // for a long stretch (tens of milliseconds even on a fast machine)
        // while the next two race through the microsecond admission path.
        let s = FaqServer::with_config(
            ServeConfig::default().workers(1).max_in_flight(2),
            CountDomain,
            Domains::uniform(3, 64),
            edge_catalog_over(11, 4000, 64),
        );
        let q = s.register(triangle_spec()).unwrap();
        let t = s.tenant("big", 100);
        let t2 = s.tenant("small", 1);
        let first = s.submit_with(&t, q, None, CacheMode::Bypass).unwrap();
        let second = s.submit_with(&t, q, None, CacheMode::Bypass).unwrap();
        // Global cap (2) hit:
        match s.submit_with(&t, q, None, CacheMode::Bypass) {
            Err(ServeError::Overloaded { scope, limit }) => {
                assert_eq!(scope, "server");
                assert_eq!(limit, 2);
            }
            other => panic!("expected global overload, got {other:?}"),
        }
        assert_eq!(s.stats().rejected, 1);
        // Permits release once the answers land.
        first.wait().unwrap();
        second.wait().unwrap();
        assert_eq!(t.in_flight(), 0);
        // Per-tenant cap: hold one slot by not racing the worker — tenant
        // limit 1 means the second concurrent submit is rejected with the
        // tenant's name even though the server has room.
        let hold = s.submit_with(&t2, q, None, CacheMode::Bypass).unwrap();
        match s.submit_with(&t2, q, None, CacheMode::Bypass) {
            Err(ServeError::Overloaded { scope, limit }) => {
                assert_eq!(scope, "small");
                assert_eq!(limit, 1);
            }
            Ok(_) => {
                // The worker may already have drained the first job; the
                // admission decision is then legitimately "admit".
            }
            other => panic!("expected tenant overload, got {other:?}"),
        }
        hold.wait().unwrap();
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let s = server(1, 10);
        let t = s.tenant("t", 4);
        // Rejected at submit: no permit taken, no worker involved.
        let err = s.submit(&t, QueryId(9)).unwrap_err();
        assert_eq!(err, ServeError::UnknownQuery(QueryId(9)));
        assert_eq!(t.in_flight(), 0);
        assert_eq!(s.stats().completed, 0);
        let err = s.register(QuerySpec::new(vec![], vec![], vec![7])).unwrap_err();
        assert_eq!(err, ServeError::UnknownSlot(7));
        let delta = DeltaFactor::inserts(vec![v(0), v(1)], vec![(vec![0, 0], 1u64)]).unwrap();
        assert_eq!(s.publish_delta(9, &delta).unwrap_err(), ServeError::UnknownSlot(9));
        // Schema mismatch: slot 0 holds (x0, x1), delta speaks (x0, x2).
        let skew = DeltaFactor::inserts(vec![v(0), v(2)], vec![(vec![0, 0], 1u64)]).unwrap();
        assert!(matches!(
            s.publish_delta(0, &skew).unwrap_err(),
            ServeError::Faq(FaqError::FactorSchemaMismatch { slot: 0, .. })
        ));
        // Out-of-domain key.
        let big = DeltaFactor::inserts(vec![v(0), v(1)], vec![(vec![D + 5, 0], 1u64)]).unwrap();
        assert!(matches!(
            s.publish_delta(0, &big).unwrap_err(),
            ServeError::Faq(FaqError::ValueOutOfDomain { var: Var(0), value }) if value == D + 5
        ));
    }

    /// One validation for a delta, wherever it is offered: the handle's
    /// `apply_delta` and the server's `publish_delta` report the same error.
    #[test]
    fn a_bad_delta_is_the_same_error_from_apply_and_publish() {
        let s = server(1, 20);
        let q = s.register(triangle_spec()).unwrap();
        let mut handle = PreparedQuery::clone(s.snapshot().prepared(q).unwrap());
        let inserts = |vars: [u32; 2], keys: &[[u32; 2]]| {
            let rows = keys.iter().map(|k| (k.to_vec(), 1u64)).collect();
            DeltaFactor::inserts(vars.map(v).to_vec(), rows).unwrap()
        };
        // Slot 0 holds (x0, x1).
        let bad = [
            (inserts([1, 2], &[[0, 0]]), FaqError::FactorSchemaMismatch { slot: 0, var: v(2) }),
            (inserts([2, 0], &[[0, 0]]), FaqError::FactorSchemaMismatch { slot: 0, var: v(2) }),
            (
                inserts([1, 0], &[[1, D + 1], [D + 2, 0]]),
                FaqError::ValueOutOfDomain { var: v(0), value: D + 1 },
            ),
        ];
        let epoch = s.current_epoch();
        for (delta, want) in bad {
            assert_eq!(handle.apply_delta(0, &delta).unwrap_err(), want);
            assert_eq!(s.publish_delta(0, &delta).unwrap_err(), ServeError::Faq(want));
        }
        assert_eq!(s.current_epoch(), epoch);
    }

    #[test]
    fn delta_publish_refreshes_shared_results() {
        let s = server(2, 50);
        let q = s.register(triangle_spec()).unwrap();
        let t = s.tenant("t", 8);
        let before = s.submit_with(&t, q, None, CacheMode::Bypass).unwrap().wait().unwrap();

        // Publish a delta touching slot 0; the writer refreshes the cache
        // incrementally, so a Shared read at the new epoch hits it.
        let delta =
            DeltaFactor::inserts(vec![v(0), v(1)], vec![(vec![3, 4], 2u64), (vec![5, 6], 1u64)])
                .unwrap();
        let epoch = s.publish_delta(0, &delta).unwrap();
        assert_eq!(s.current_epoch(), epoch);
        assert!(epoch > before.epoch);

        let shared = s.submit(&t, q).unwrap().wait().unwrap();
        assert_eq!(shared.epoch, epoch);
        assert!(shared.cache_hit, "writer-seeded cache should answer the new epoch");
        // And the cached answer is bit-identical to a fresh evaluation.
        let fresh = s.submit_with(&t, q, None, CacheMode::Bypass).unwrap().wait().unwrap();
        assert_eq!(*shared.factor, *fresh.factor);
        // The snapshot accessors see the same state.
        let snap = s.snapshot();
        assert_eq!(snap.epoch(), epoch);
        assert_eq!(snap.queries.len(), 1);
        assert_eq!(snap.cached_result(q).map(|f| (**f).clone()), Some((*fresh.factor).clone()));
    }

    #[test]
    fn injected_panic_is_isolated_and_pool_recovers() {
        let plan = PanicPlan::seeded(3, 1.0);
        let s = FaqServer::with_config(
            ServeConfig::default().workers(2).panic_plan(plan.clone()),
            CountDomain,
            Domains::uniform(3, D),
            edge_catalog(7, 60),
        );
        let q = s.register(triangle_spec()).unwrap();
        let t = s.tenant("t", 8);
        let err = s.submit_with(&t, q, None, CacheMode::Bypass).unwrap().wait().unwrap_err();
        assert_eq!(err, ServeError::QueryPanicked);
        assert_eq!(t.in_flight(), 0, "panicked submission released its permits");
        assert!(s.stats().panicked >= 1);

        // Both workers survive the panic: with injection off, a concurrent
        // burst twice the pool size drains cleanly and agrees on the answer.
        plan.set_enabled(false);
        let tickets: Vec<_> =
            (0..4).map(|_| s.submit_with(&t, q, None, CacheMode::Bypass).unwrap()).collect();
        let outs: Vec<_> = tickets.into_iter().map(|tk| tk.wait().unwrap()).collect();
        for o in &outs {
            assert_eq!(*o.factor, *outs[0].factor);
        }
        assert_eq!(s.worker_txs.len(), 2);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn panicked_leader_fans_error_to_followers() {
        // Injection fires on the first job only (sequence 0 panics under
        // p=1.0, then the plan is disabled by the leader's own failure
        // observation below). A coalescing group whose leader panics must
        // fan the typed error out — followers would otherwise hang forever.
        let plan = PanicPlan::seeded(5, 1.0);
        let s = FaqServer::with_config(
            ServeConfig::default().workers(1).panic_plan(plan.clone()),
            SlowDomain,
            Domains::uniform(3, 6),
            complete_edges(6),
        );
        let q = s.register(triangle_spec()).unwrap();
        let t = s.tenant("t", 16);
        let mut tickets: Vec<_> = (0..3).map(|_| s.submit(&t, q).unwrap()).collect();
        // The single worker processes the first submission first; p = 1.0
        // guarantees it panics while injection is on.
        let first = tickets.remove(0).wait();
        assert_eq!(first.unwrap_err(), ServeError::QueryPanicked);
        plan.set_enabled(false);
        // Every remaining ticket resolves — no follower hangs on a panicked
        // leader: each gets the fanned panic error, or (for a group formed
        // after the failed leader's reply, or a job processed after the
        // disable above) a successful evaluation.
        for r in tickets.into_iter().map(|tk| tk.wait()) {
            match r {
                Ok(out) => assert_eq!(*out.factor.get(&[]).unwrap(), 216),
                Err(e) => assert_eq!(e, ServeError::QueryPanicked),
            }
        }
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn expired_deadline_surfaces_typed_error() {
        use faq_core::Deadline;
        // Complete d=12 relations: ≥ 1024 leapfrog seeks, so the amortized
        // checkpoint fires even though every factor is in memory.
        let s = FaqServer::with_config(
            ServeConfig::default().workers(1),
            CountDomain,
            Domains::uniform(3, 12),
            complete_edges(12),
        );
        let q = s.register(triangle_spec()).unwrap();
        let t = s.tenant("t", 4);
        let expired = ExecPolicy::sequential().deadline(Deadline::after(Duration::ZERO));
        let err =
            s.submit_with(&t, q, Some(&expired), CacheMode::Bypass).unwrap().wait().unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded);
        assert_eq!(t.in_flight(), 0, "deadline abort released its permits");
        assert!(s.stats().deadline_exceeded >= 1);
        // The worker and its snapshot are unharmed: an unbounded retry of
        // the same query succeeds.
        let ok = s.submit_with(&t, q, None, CacheMode::Bypass).unwrap().wait().unwrap();
        assert_eq!(*ok.factor.get(&[]).unwrap(), 12u64 * 12 * 12);
    }

    #[test]
    fn failed_publish_leaves_previous_epoch_intact() {
        use faq_factor::{FaultPlan, SpillConfig};
        // Spilled catalog: the delta splice and the masters' replay do chunk
        // I/O in the catalog's spill directories, where a fault plan armed on
        // the catalog fails them deterministically.
        let spill =
            SpillConfig { dir: None, chunk_rows: 8, level_chunk_entries: 64, window_chunks: 2 };
        let catalog: Vec<Factor<u64>> =
            edge_catalog(7, 60).iter().map(|f| f.to_spilled(spill.clone())).collect();
        let s = FaqServer::with_config(
            ServeConfig::default().workers(1),
            CountDomain,
            Domains::uniform(3, D),
            catalog.clone(),
        );
        let q = s.register(triangle_spec()).unwrap();
        let t = s.tenant("t", 4);
        let before = s.submit_with(&t, q, None, CacheMode::Bypass).unwrap().wait().unwrap();
        let epoch_before = s.current_epoch();

        let delta =
            DeltaFactor::inserts(vec![v(0), v(1)], vec![(vec![3, 4], 2u64), (vec![5, 6], 1u64)])
                .unwrap();
        {
            let _g = FaultPlan::seeded(11).fail_hard(1.0).arm(&catalog);
            let err = s.publish_delta(0, &delta).unwrap_err();
            assert!(
                matches!(err, ServeError::Faq(FaqError::Storage(_))),
                "expected a typed storage error, got {err:?}"
            );
        }
        assert_eq!(s.current_epoch(), epoch_before, "failed publish must not advance the epoch");
        // The previous epoch still serves, bit-identically.
        let after = s.submit_with(&t, q, None, CacheMode::Bypass).unwrap().wait().unwrap();
        assert_eq!(*after.factor, *before.factor);
        // And with the faults gone, the same delta publishes cleanly and
        // matches a from-scratch evaluation of the updated catalog.
        let epoch = s.publish_delta(0, &delta).unwrap();
        assert!(epoch > epoch_before);
        let refreshed = s.submit_with(&t, q, None, CacheMode::Bypass).unwrap().wait().unwrap();
        assert_eq!(refreshed.epoch, epoch);
    }
}
