//! The serving runtime: worker pool, admission, epochs, result sharing.
//!
//! # Architecture
//!
//! [`FaqServer`] owns a pool of persistent `std::thread` workers, each with
//! its own mpsc inbox. Two kinds of messages flow in: **epochs** (a fresh
//! [`Snapshot`] published by the writer) and **jobs** (a query submission
//! with a reply channel). Each worker keeps the latest snapshot it has
//! received and evaluates jobs against it — the read path touches no lock
//! and no shared mutable state. All writer state (the factor catalog, the
//! master [`PreparedQuery`] handles with their delta-replay caches, the
//! epoch counter) lives behind a single `Mutex` that only
//! [`FaqServer::register`] and [`FaqServer::publish_delta`] take.
//!
//! Because an mpsc channel delivers messages in causal send order, a job
//! submitted after `publish_delta` returns is always answered at the new
//! epoch or later; a job already in a worker's inbox is answered at the
//! epoch it was enqueued under. Every answer carries its epoch, so callers
//! can correlate results with published data versions.
//!
//! # Result sharing
//!
//! Identical [`QuerySpec`]s dedupe to one [`QueryId`] at registration, so
//! results are shared across tenants by construction. Workers send every
//! freshly computed output back to the writer over a feedback channel
//! tagged with its epoch; at the next publish the writer folds still-valid
//! results (those computed at or after the query's last invalidation) into
//! the new snapshot's result cache. A delta publish refreshes the cached
//! output of every affected query itself, through the incremental replay
//! of [`PreparedQuery::install_merged`] — so cached entries are *never*
//! stale: a cache hit at epoch `e` is bit-identical to a fresh evaluation
//! at epoch `e`. Workers additionally keep a tiny lock-free local memo
//! (latest result per query, valid only for their current epoch) so
//! repeated submissions between publishes dedupe without writer traffic.

use crate::snapshot::{QueryId, QuerySpec, Snapshot};
use faq_core::{Engine, ExecPolicy, FaqError, FaqQuery, PlanCache, Planner, PreparedQuery};
use faq_factor::fault::{self, InjectedPanic};
use faq_factor::{DeltaFactor, Domains, Factor};
use faq_semiring::{AggDomain, AggId, SemiringElem};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError, Weak};
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
    /// Budget applied to submissions that carry none. The default is
    /// sequential: with one query per worker, inter-query parallelism
    /// already saturates the pool, and per-query threads would oversubscribe
    /// it. Submissions may raise this per call via
    /// [`FaqServer::submit_with`].
    pub default_budget: ExecPolicy,
    /// Global cap on admitted-but-unfinished submissions; submissions beyond
    /// it are rejected with [`ServeError::Overloaded`].
    pub max_in_flight: usize,
    /// Whether workers consult and maintain the shared result cache.
    pub share_results: bool,
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
            default_budget: ExecPolicy::sequential(),
            max_in_flight: hw * 4,
            share_results: true,
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

    /// This config with `budget` as the default per-submission budget.
    pub fn default_budget(mut self, budget: ExecPolicy) -> ServeConfig {
        self.default_budget = budget;
        self
    }

    /// This config admitting at most `n` concurrent submissions (≥ 1).
    pub fn max_in_flight(mut self, n: usize) -> ServeConfig {
        self.max_in_flight = n.max(1);
        self
    }

    /// This config with shared-result caching switched on or off.
    pub fn share_results(mut self, share: bool) -> ServeConfig {
        self.share_results = share;
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
    /// The [`QueryId`] is not registered (or not yet visible to the worker's
    /// snapshot — impossible for ids returned by [`FaqServer::register`]
    /// before the submission).
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
    /// Serve from the snapshot's shared results (or the worker's same-epoch
    /// memo) when possible; evaluate otherwise.
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
    /// The tenant's name (used in [`ServeError::Overloaded`]).
    pub fn name(&self) -> &str {
        &self.name
    }

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
    /// Whether the answer came from a cache (shared or worker-local memo)
    /// rather than a fresh evaluation.
    pub cache_hit: bool,
    /// Submission-to-completion latency (queueing + evaluation).
    pub latency: Duration,
}

/// A pending submission; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket<E: SemiringElem> {
    rx: Receiver<Result<ServeOutput<E>, ServeError>>,
}

impl<E: SemiringElem> Ticket<E> {
    /// Block until the submission completes.
    pub fn wait(self) -> Result<ServeOutput<E>, ServeError> {
        match self.rx.recv() {
            Ok(r) => r,
            Err(_) => Err(ServeError::ShuttingDown),
        }
    }

    /// The result if already complete, `None` if still running.
    pub fn poll(&self) -> Option<Result<ServeOutput<E>, ServeError>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
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
    /// Answers served from a cache (shared or worker-local).
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
    /// Shared results carried by the latest snapshot's cache.
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

enum Msg<D: AggDomain> {
    Epoch(Arc<Snapshot<D>>),
    Job(Job<D>),
    Shutdown,
}

struct Feedback<E> {
    epoch: u64,
    query: usize,
    factor: Arc<Factor<E>>,
}

/// Writer-side state: everything the publish path mutates, behind one lock
/// that the read path never touches.
struct WriterState<D: AggDomain> {
    epoch: u64,
    domain: D,
    domains: Domains,
    /// Current (fully merged) factor value per catalog slot.
    catalog: Vec<Factor<D::E>>,
    /// Registered specs, index = [`QueryId`].
    specs: Vec<QuerySpec>,
    /// Writer-owned handles; keep their delta-replay caches warm.
    masters: Vec<PreparedQuery<D>>,
    /// Reader replicas as published in the latest snapshot. Replaced (via
    /// [`PreparedQuery`]'s cache-dropping `Clone`) only for queries a delta
    /// touched — untouched queries keep sharing the old `Arc`.
    published: Vec<Arc<PreparedQuery<D>>>,
    /// Last known output per query, always valid for the current catalog.
    results: Vec<Option<Arc<Factor<D::E>>>>,
    /// Epoch from which each query's current data version has been in
    /// effect; feedback computed at an earlier epoch is discarded.
    valid_from: Vec<u64>,
    engine: Engine,
    feedback_rx: Receiver<Feedback<D::E>>,
}

/// A multi-tenant serving runtime for FAQ queries.
///
/// See the [module docs](crate::server) for the architecture. Typical use:
///
/// 1. [`FaqServer::new`] with a factor catalog;
/// 2. [`FaqServer::register`] query templates ([`QuerySpec`]) → [`QueryId`];
/// 3. [`FaqServer::submit`] from any thread, [`Ticket::wait`] for answers;
/// 4. [`FaqServer::publish_delta`] to evolve the data — in-flight queries
///    finish against their snapshot, later ones see the new epoch.
pub struct FaqServer<D: AggDomain> {
    config: ServeConfig,
    worker_txs: Vec<Sender<Msg<D>>>,
    handles: Vec<JoinHandle<()>>,
    rr: AtomicUsize,
    global_in_flight: Arc<AtomicUsize>,
    published_epoch: AtomicU64,
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
        let (feedback_tx, feedback_rx) = channel::<Feedback<D::E>>();
        let mut worker_txs = Vec::with_capacity(config.workers);
        let mut handles = Vec::with_capacity(config.workers);
        let first = Arc::new(Snapshot { epoch: 0, queries: Vec::new(), results: HashMap::new() });
        for i in 0..config.workers {
            let (tx, rx) = channel::<Msg<D>>();
            // Seed the inbox before the thread runs its first recv, so a job
            // submitted after construction always finds a snapshot in place.
            let _ = tx.send(Msg::Epoch(Arc::clone(&first)));
            let fb = feedback_tx.clone();
            let st = Arc::clone(&stats);
            let infl = Arc::clone(&inflight);
            let share = config.share_results;
            let plan = config.panic_plan.clone();
            let handle = std::thread::Builder::new()
                .name(format!("faq-serve-{i}"))
                .spawn(move || worker_loop::<D>(rx, fb, st, infl, share, plan))
                .expect("spawning a serving worker thread failed");
            worker_txs.push(tx);
            handles.push(handle);
        }
        let engine = Engine::sequential()
            .planner(config.planner.clone())
            .plan_cache(Arc::new(PlanCache::new()));
        FaqServer {
            config,
            worker_txs,
            handles,
            rr: AtomicUsize::new(0),
            global_in_flight: Arc::new(AtomicUsize::new(0)),
            published_epoch: AtomicU64::new(0),
            latest: Mutex::new(Arc::clone(&first)),
            stats,
            epochs: Mutex::new(vec![Arc::downgrade(&first)]),
            inflight,
            writer: Mutex::new(WriterState {
                epoch: 0,
                domain,
                domains,
                catalog,
                specs: Vec::new(),
                masters: Vec::new(),
                published: Vec::new(),
                results: Vec::new(),
                valid_from: Vec::new(),
                engine,
                feedback_rx,
            }),
        }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.worker_txs.len()
    }

    /// The epoch of the most recently published snapshot (lock-free read).
    pub fn current_epoch(&self) -> u64 {
        self.published_epoch.load(Ordering::SeqCst)
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
        let cache_entries = lock_unpoisoned(&self.latest).results.len();
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
        let master = w.engine.prepare(&q)?;
        let id = QueryId(w.specs.len());
        w.published.push(Arc::new(master.clone()));
        w.masters.push(master);
        w.specs.push(spec);
        w.results.push(None);
        let next = w.epoch + 1;
        w.valid_from.push(next);
        self.publish_locked(&mut w);
        Ok(id)
    }

    /// Apply `delta` to catalog slot `slot` and publish the resulting epoch.
    ///
    /// The delta is merged into the slot — and the result indexed — once per
    /// column order the slot is held in, not once per query; affected queries
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
        // Validate schema + domains upfront: the per-master applications
        // below must not fail halfway (each errors without touching its
        // handle, but a mid-loop error would leave earlier masters ahead of
        // later ones).
        let base_schema: std::collections::BTreeSet<_> = base.schema().iter().copied().collect();
        let delta_schema: std::collections::BTreeSet<_> = delta.schema().iter().copied().collect();
        if base_schema != delta_schema || base.schema().len() != delta.schema().len() {
            let var = delta_schema
                .symmetric_difference(&base_schema)
                .next()
                .copied()
                .unwrap_or_else(|| base.schema()[0]);
            return Err(ServeError::Faq(FaqError::FactorSchemaMismatch { slot, var }));
        }
        for (key, _) in delta.iter() {
            for (&var, &value) in delta.schema().iter().zip(key) {
                if value >= w.domains.size(var) {
                    return Err(ServeError::Faq(FaqError::ValueOutOfDomain { var, value }));
                }
            }
        }
        if w.domain.num_ops() == 0 {
            return Err(ServeError::Faq(FaqError::UnknownAggregate(AggId(0))));
        }

        // Merge into a staged copy — NOT installed yet — and index it. The
        // spilled splice path and a spilled index build do chunk I/O on this
        // thread, so a storage fault can abort either; catching it here
        // surfaces a typed error with catalog and masters untouched.
        let dom = w.domain.clone();
        let merge = |base: &Factor<D::E>| {
            fault::catch_abort(|| {
                let (merged, ranges) = delta.align_to(base.schema()).apply_to(
                    base,
                    |a, b| dom.add(AggId(0), a, b),
                    |e| dom.is_zero(e),
                );
                if !ranges.is_empty() {
                    merged.trie();
                }
                (merged, ranges)
            })
            .map_err(|abort| ServeError::Faq(abort.into()))
        };
        // One merge and one index per column order the slot is held in: the
        // catalog's first, then the order of any copy a planner reordered.
        // Every master below installs a handle on the body of its order.
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
        let next = w.epoch + 1;
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
        for (qi, factor) in staged {
            w.results[qi] = Some(factor);
            w.valid_from[qi] = next;
            w.published[qi] = Arc::new(w.masters[qi].clone());
        }
        self.publish_locked(&mut w);
        Ok(w.epoch)
    }

    /// Fold pending worker feedback into the result cache, bump the epoch,
    /// and broadcast the new snapshot to every worker.
    fn publish_locked(&self, w: &mut WriterState<D>) {
        while let Ok(fb) = w.feedback_rx.try_recv() {
            if fb.epoch >= w.valid_from[fb.query] {
                w.results[fb.query] = Some(fb.factor);
            }
        }
        w.epoch += 1;
        let results = if self.config.share_results {
            w.results
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.as_ref().map(|f| (i, Arc::clone(f))))
                .collect()
        } else {
            HashMap::new()
        };
        let snap = Arc::new(Snapshot { epoch: w.epoch, queries: w.published.clone(), results });
        {
            let mut epochs = lock_unpoisoned(&self.epochs);
            epochs.retain(|w| w.strong_count() > 0);
            epochs.push(Arc::downgrade(&snap));
        }
        for tx in &self.worker_txs {
            let _ = tx.send(Msg::Epoch(Arc::clone(&snap)));
        }
        *lock_unpoisoned(&self.latest) = snap;
        self.published_epoch.store(w.epoch, Ordering::SeqCst);
    }

    /// Submit `query` for `tenant` under the server's default budget and
    /// [`CacheMode::Shared`].
    pub fn submit(&self, tenant: &Tenant, query: QueryId) -> Result<Ticket<D::E>, ServeError> {
        self.submit_with(tenant, query, None, CacheMode::Shared)
    }

    /// Submit `query` for `tenant` with an explicit per-query budget and
    /// cache mode.
    ///
    /// `budget` caps the prepared plan's policy (thread count and chunk
    /// floor) for this evaluation only — outputs are bit-identical
    /// under every budget. `None` applies
    /// [`ServeConfig::default_budget`]. Admission is two-level: the global
    /// [`ServeConfig::max_in_flight`] cap, then the tenant's own; a
    /// rejection is immediate and costs no worker time.
    pub fn submit_with(
        &self,
        tenant: &Tenant,
        query: QueryId,
        budget: Option<&ExecPolicy>,
        cache: CacheMode,
    ) -> Result<Ticket<D::E>, ServeError> {
        self.stats.submitted.fetch_add(1, Ordering::SeqCst);
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
        let coalesce = (cache == CacheMode::Shared)
            .then(|| (query.0, self.published_epoch.load(Ordering::SeqCst)));
        if let Some(key) = coalesce {
            let mut infl = lock_unpoisoned(&self.inflight);
            if let Some(followers) = infl.get_mut(&key) {
                followers.push(Follower {
                    reply: reply_tx,
                    submitted: Instant::now(),
                    _permit: permit,
                });
                self.stats.coalesced.fetch_add(1, Ordering::SeqCst);
                return Ok(Ticket { rx: reply_rx });
            }
            infl.insert(key, Vec::new());
        }
        let job = Job {
            query,
            budget: budget.cloned().unwrap_or_else(|| self.config.default_budget.clone()),
            cache,
            submitted: Instant::now(),
            reply: reply_tx,
            coalesce,
            _permit: permit,
        };
        let i = self.rr.fetch_add(1, Ordering::Relaxed) % self.worker_txs.len();
        if let Err(e) = self.worker_txs[i].send(Msg::Job(job)) {
            // Retire the leader entry so later submissions don't enqueue
            // behind a job that will never be answered.
            if let Some(key) = coalesce {
                lock_unpoisoned(&self.inflight).remove(&key);
            }
            drop(e);
            return Err(ServeError::ShuttingDown);
        }
        Ok(Ticket { rx: reply_rx })
    }
}

impl<D: AggDomain> Drop for FaqServer<D> {
    fn drop(&mut self) {
        for tx in &self.worker_txs {
            let _ = tx.send(Msg::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A worker's local result memo: latest answer per query, tagged with the
/// epoch it was computed at.
type Memo<D> = HashMap<usize, (u64, Arc<Factor<<D as AggDomain>::E>>)>;

/// The worker: owns its current snapshot, answers jobs against it.
///
/// The only synchronization on this path is the channel recv — evaluation
/// reads exclusively from `Arc`-shared immutable snapshots and the worker's
/// own memo.
fn worker_loop<D>(
    rx: Receiver<Msg<D>>,
    feedback: Sender<Feedback<D::E>>,
    stats: Arc<Counters>,
    inflight: Arc<Inflight<D>>,
    share: bool,
    panic_plan: Option<PanicPlan>,
) where
    D: AggDomain + Clone + Sync,
{
    let mut current: Option<Arc<Snapshot<D>>> = None;
    // Latest locally computed result per query, tagged with its epoch.
    let mut memo: Memo<D> = HashMap::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Epoch(snap) => current = Some(snap),
            Msg::Shutdown => break,
            Msg::Job(job) => {
                // Panic perimeter: a poisoned evaluation (or an injected
                // chaos panic) is contained here — the worker recovers in
                // place, so the pool never shrinks and the submitter gets
                // `QueryPanicked` instead of a hung ticket. A `QueryAbort`
                // that escaped evaluation's own catch (e.g. raised from a
                // memo'd factor accessor) is converted back to its typed
                // error rather than reported as a panic.
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if let Some(plan) = &panic_plan {
                        if plan.should_panic() {
                            std::panic::panic_any(InjectedPanic("injected worker panic"));
                        }
                    }
                    answer(&job, current.as_deref(), &mut memo, &feedback, &stats, share)
                }));
                let reply = match caught {
                    Ok(r) => r,
                    Err(payload) => {
                        if let Some(abort) = payload.downcast_ref::<fault::QueryAbort>() {
                            Err(ServeError::from(FaqError::from(abort.clone())))
                        } else {
                            stats.panicked.fetch_add(1, Ordering::SeqCst);
                            Err(ServeError::QueryPanicked)
                        }
                    }
                };
                if matches!(reply, Err(ServeError::DeadlineExceeded)) {
                    stats.deadline_exceeded.fetch_add(1, Ordering::SeqCst);
                }
                stats.completed.fetch_add(1, Ordering::SeqCst);
                // Retire the coalescing group *before* replying: once the
                // leader's answer is observable, an identical new submission
                // must start a fresh group, not attach to a finished one.
                let Job { reply: tx, coalesce, _permit: permit, .. } = job;
                let followers = coalesce
                    .and_then(|key| lock_unpoisoned(&inflight).remove(&key))
                    .unwrap_or_default();
                // Release the admission slots before replying, so a caller
                // returning from `Ticket::wait` observes its permits freed.
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
    }
}

fn answer<D>(
    job: &Job<D>,
    snap: Option<&Snapshot<D>>,
    memo: &mut Memo<D>,
    feedback: &Sender<Feedback<D::E>>,
    stats: &Counters,
    share: bool,
) -> Result<ServeOutput<D::E>, ServeError>
where
    D: AggDomain + Clone + Sync,
{
    let Some(snap) = snap else {
        return Err(ServeError::UnknownQuery(job.query));
    };
    let qid = job.query.0;
    let Some(prepared) = snap.queries.get(qid) else {
        return Err(ServeError::UnknownQuery(job.query));
    };
    if share && job.cache == CacheMode::Shared {
        let hit = snap.results.get(&qid).cloned().or_else(|| {
            memo.get(&qid).filter(|(epoch, _)| *epoch == snap.epoch).map(|(_, f)| Arc::clone(f))
        });
        if let Some(factor) = hit {
            stats.cache_hits.fetch_add(1, Ordering::SeqCst);
            return Ok(ServeOutput {
                epoch: snap.epoch,
                factor,
                cache_hit: true,
                latency: job.submitted.elapsed(),
            });
        }
    }
    let out = prepared.evaluate_budgeted(&job.budget)?;
    let factor = Arc::new(out.factor);
    stats.evaluated.fetch_add(1, Ordering::SeqCst);
    memo.insert(qid, (snap.epoch, Arc::clone(&factor)));
    if share {
        let _ =
            feedback.send(Feedback { epoch: snap.epoch, query: qid, factor: Arc::clone(&factor) });
    }
    Ok(ServeOutput {
        epoch: snap.epoch,
        factor,
        cache_hit: false,
        latency: job.submitted.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use faq_core::VarAgg;
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

    #[test]
    fn serves_and_shares_results() {
        let s = server(1, 60);
        let q = s.register(triangle_spec()).unwrap();
        // An identical registration (another tenant's) dedupes to the same id
        // without publishing a new epoch.
        let epoch = s.current_epoch();
        assert_eq!(s.register(triangle_spec()).unwrap(), q);
        assert_eq!(s.current_epoch(), epoch);

        let a = s.tenant("a", 8);
        let b = s.tenant("b", 8);
        let first = s.submit(&a, q).unwrap().wait().unwrap();
        assert!(!first.cache_hit);
        // Same epoch, single worker: the local memo answers tenant b.
        let second = s.submit(&b, q).unwrap().wait().unwrap();
        assert!(second.cache_hit);
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
        let err = s.submit(&t, QueryId(9)).unwrap().wait().unwrap_err();
        assert_eq!(err, ServeError::UnknownQuery(QueryId(9)));
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
        assert_eq!(snap.query_count(), 1);
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
        assert_eq!(s.worker_count(), 2);
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
        // I/O on the publishing thread, where a thread-local fault plan can
        // fail them deterministically.
        let spill =
            SpillConfig { dir: None, chunk_rows: 8, level_chunk_entries: 64, window_chunks: 2 };
        let catalog: Vec<Factor<u64>> =
            edge_catalog(7, 60).iter().map(|f| f.to_spilled(spill.clone())).collect();
        let s = FaqServer::with_config(
            ServeConfig::default().workers(1),
            CountDomain,
            Domains::uniform(3, D),
            catalog,
        );
        let q = s.register(triangle_spec()).unwrap();
        let t = s.tenant("t", 4);
        let before = s.submit_with(&t, q, None, CacheMode::Bypass).unwrap().wait().unwrap();
        let epoch_before = s.current_epoch();

        let delta =
            DeltaFactor::inserts(vec![v(0), v(1)], vec![(vec![3, 4], 2u64), (vec![5, 6], 1u64)])
                .unwrap();
        {
            let _g = FaultPlan::seeded(11).fail_hard(1.0).install_local();
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
