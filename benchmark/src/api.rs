//! The benchmark's whole view of the system under test.
//!
//! This is the **only** file of the benchmark that names a `faq_*` symbol.
//! Everything else (generators, oracles, drivers, probes) talks to the
//! wrappers below in plain data — `u32` variable ids, flat row arrays,
//! `Vec<u32>` orderings — so a PR that renames or consolidates the library's
//! API has a one-file companion diff here. The surface used is listed in
//! `benchmark/README.md` ("API surface"); it deliberately avoids the entry
//! points ROADMAP item 3 deletes (`insideout*`, `multiway_join`/`_rep`/
//! `_range`, `faq_bench`).

use faq_core::{
    evo, width, DeltaFactor, Engine, ExecPolicy, FaqQuery, PreparedQuery, QueryPlan, VarAgg,
};
use faq_core::{naive_eval, Planner};
use faq_factor::{Domains, Factor, FactorBuilder, LevelStorage, SpillConfig, VecStorage};
use faq_hypergraph::{widths, Hypergraph, Var, VarSet};
use faq_join::{multiway_join_range_rep, JoinInput, JoinRep};
use faq_lp::{ConstraintOp, LinearProgram};
use faq_semiring::{AggDomain, AggId, CountDomain, InstrumentedDomain, RealDomain, SemiringElem};
use faq_serve::{CacheMode, FaqServer, QueryId, QuerySpec, ServeConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

pub use faq_semiring::OpCounters;
/// The counting allocator; only the `allocs` binary installs it.
pub use faq_testalloc::CountingAllocator;

/// What the benchmark needs of a semiring domain, as one bound; callers
/// reach the element type as `D::E`.
pub trait Domain: AggDomain + Clone + Send + Sync + 'static {}

impl<D: AggDomain + Clone + Send + Sync + 'static> Domain for D {}

/// Counting over `u64` (⊕ = +, ⊗ = ×, saturating).
pub type Count = CountDomain;
/// Non-negative reals (⊕ ∈ {+, max}, ⊗ = ×).
pub type Real = RealDomain;
/// A domain that counts its own ⊕ and ⊗ calls.
pub type Counted<D> = InstrumentedDomain<D>;

/// The counting domain value.
pub const COUNT: Count = CountDomain;
/// The real domain value.
pub const REAL: Real = RealDomain;

/// Aggregate of a bound variable. `Sum`/`Max` are the two ⊕ of both domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Sum,
    Max,
    Product,
}

fn var_agg(a: Agg) -> VarAgg {
    match a {
        Agg::Sum => VarAgg::Semiring(AggId(0)),
        Agg::Max => VarAgg::Semiring(AggId(1)),
        Agg::Product => VarAgg::Product,
    }
}

fn vars(ids: &[u32]) -> Vec<Var> {
    ids.iter().map(|&i| Var(i)).collect()
}

fn ids(vars: &[Var]) -> Vec<u32> {
    vars.iter().map(|v| v.0).collect()
}

fn var_set(ids: &[u32]) -> VarSet {
    ids.iter().map(|&i| Var(i)).collect()
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

// ---------------------------------------------------------------- factors

/// A built factor.
#[derive(Clone)]
pub struct Fac<E>(Factor<E>);

impl<E: SemiringElem> Fac<E> {
    /// `FactorBuilder` push + finish over flat, strictly ascending rows.
    pub fn build(schema: &[u32], rows: &[u32], vals: impl IntoIterator<Item = E>) -> Fac<E> {
        let mut b = FactorBuilder::new(vars(schema)).expect("distinct schema variables");
        let arity = schema.len();
        b.reserve(rows.len().checked_div(arity).unwrap_or(1));
        if arity == 0 {
            for v in vals {
                b.push(&[], v);
            }
        } else {
            for (row, v) in rows.chunks_exact(arity).zip(vals) {
                b.push(row, v);
            }
        }
        Fac(b.finish())
    }

    /// `Factor::trie`: build (and cache) the columnar index.
    pub fn index(&self) {
        std::hint::black_box(self.0.trie());
    }

    /// `Factor::reorder` to another column order.
    pub fn reorder(&self, schema: &[u32]) -> Fac<E> {
        Fac(self.0.reorder(&vars(schema)))
    }

    /// `Factor::merge_sorted` of row-disjoint or overlapping parts.
    pub fn merge_sorted(
        parts: Vec<Fac<E>>,
        combine: impl FnMut(&E, &E) -> E,
        is_zero: impl FnMut(&E) -> bool,
    ) -> Fac<E> {
        Fac(Factor::merge_sorted(parts.into_iter().map(|p| p.0).collect(), combine, is_zero))
    }

    pub fn schema(&self) -> Vec<u32> {
        ids(self.0.schema())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The value of a nullary (scalar) factor, `None` when it is empty.
    pub fn scalar(&self) -> Option<E> {
        (self.0.arity() == 0 && !self.0.is_empty()).then(|| self.0.value(0).clone())
    }

    /// Visit every `(row, value)` of an in-memory factor in sorted order.
    pub fn for_each(&self, f: impl FnMut(&[u32], &E)) {
        for_each_row(&self.0, f)
    }
}

fn for_each_row<E: SemiringElem>(fac: &Factor<E>, mut f: impl FnMut(&[u32], &E)) {
    for (row, val) in fac.iter() {
        f(row, val);
    }
}

/// Geometry of a file-chunked spill; `dir` keeps the files in the checkout.
#[derive(Debug, Clone)]
pub struct Spill {
    pub dir: PathBuf,
    pub chunk_rows: usize,
    pub window_chunks: usize,
}

/// `SpillStats` of a spilled factor.
#[derive(Debug, Clone, Copy)]
pub struct SpillInfo {
    pub chunks: usize,
    pub file_bytes: usize,
}

impl Fac<u64> {
    /// `Factor::to_spilled`.
    pub fn to_spilled(&self, s: &Spill) -> Fac<u64> {
        Fac(self.0.to_spilled(SpillConfig {
            dir: Some(s.dir.clone()),
            chunk_rows: s.chunk_rows,
            level_chunk_entries: s.chunk_rows,
            window_chunks: s.window_chunks,
        }))
    }

    /// `Factor::spill_stats`; `None` for an in-memory factor.
    pub fn spill_info(&self) -> Option<SpillInfo> {
        self.0.spill_stats().map(|s| SpillInfo { chunks: s.chunks, file_bytes: s.file_bytes })
    }
}

/// A sorted point-update batch (`DeltaFactor`).
pub struct Delta<E>(DeltaFactor<E>);

impl<E: SemiringElem> Delta<E> {
    /// `DeltaFactor::inserts`: `Put` every `(tuple, value)`.
    pub fn inserts(schema: &[u32], tuples: Vec<(Vec<u32>, E)>) -> Delta<E> {
        Delta(DeltaFactor::inserts(vars(schema), tuples).expect("distinct delta keys"))
    }

    /// `DeltaFactor::deletes`.
    pub fn deletes(schema: &[u32], tuples: Vec<Vec<u32>>) -> Delta<E> {
        Delta(DeltaFactor::deletes(vars(schema), tuples).expect("distinct delta keys"))
    }

    /// `DeltaFactor::apply_to` (the factor-layer merge alone).
    pub fn apply_to<D: Domain<E = E>>(&self, domain: &D, base: &Fac<E>) -> Fac<E> {
        let aligned = self.0.align_to(base.0.schema());
        let (merged, _ranges) =
            aligned.apply_to(&base.0, |a, b| domain.add(AggId(0), a, b), |x| domain.is_zero(x));
        Fac(merged)
    }
}

/// One trie level behind the seek kernel (`VecStorage`).
pub struct SeekLevel(VecStorage);

impl SeekLevel {
    /// A level over sorted distinct `values`.
    pub fn new(values: Vec<u32>) -> SeekLevel {
        let offsets: Vec<usize> = (0..=values.len()).collect();
        SeekLevel(VecStorage::from_parts(values, offsets.clone(), offsets))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.len() == 0
    }

    /// `VecStorage::lub_from`: least index in `window` whose value is ≥ `bound`.
    #[inline]
    pub fn lub_from(&self, window: (usize, usize), hint: usize, bound: u32) -> usize {
        self.0.lub_from(window, hint, bound)
    }
}

// ---------------------------------------------------------------- queries

/// A functional aggregate query with its factors.
pub struct Query<D: Domain>(FaqQuery<D>);

impl<D: Domain> Query<D> {
    /// `FaqQuery::new`. `domains[i]` is the size of variable `i`.
    pub fn new(
        domain: D,
        domains: &[u32],
        free: &[u32],
        bound: &[(u32, Agg)],
        factors: Vec<Fac<D::E>>,
    ) -> Query<D> {
        let bound = bound.iter().map(|&(v, a)| (Var(v), var_agg(a))).collect();
        let factors = factors.into_iter().map(|f| f.0).collect();
        Query(
            FaqQuery::new(domain, Domains::new(domains.to_vec()), vars(free), bound, factors)
                .expect("benchmark queries are valid FAQs"),
        )
    }

    /// The query's own variable order (free first, then bound).
    pub fn order(&self) -> Vec<u32> {
        ids(&self.0.ordering())
    }

    /// The hyperedges, one per factor, and their row counts.
    pub fn edges(&self) -> (Vec<Vec<u32>>, Vec<u64>) {
        let edges = self.0.factors.iter().map(|f| ids(f.schema())).collect();
        let sizes = self.0.factors.iter().map(|f| f.len() as u64).collect();
        (edges, sizes)
    }

    /// `faq_core::naive_eval`: brute force over every assignment.
    pub fn naive(&self) -> Fac<D::E> {
        Fac(naive_eval(&self.0))
    }

    /// The same query under `InstrumentedDomain`, with its counters.
    pub fn counted(&self) -> (Query<Counted<D>>, OpCounters) {
        let (domain, counters) = InstrumentedDomain::new(self.0.domain.clone());
        let q = FaqQuery::new(
            domain,
            self.0.domains.clone(),
            self.0.free.clone(),
            self.0.bound.clone(),
            self.0.factors.clone(),
        )
        .expect("same query, wrapped domain");
        (Query(q), counters)
    }

    /// `evo::linear_extensions` with the planner's cap.
    pub fn linear_extensions(&self) -> usize {
        let cap = Planner::sequential().linex_cap;
        evo::linear_extensions(&self.0.shape(), cap).0.len()
    }

    /// `width::faqw_optimize` as the planner calls it; the width found.
    pub fn width_optimize(&self) -> Option<f64> {
        let limit = Planner::sequential().exact_limit;
        width::faqw_optimize(&self.0.shape(), 1, limit).ok().map(|r| r.width)
    }

    /// `faqw_approx(..).width`, the §7 approximation's width.
    pub fn width_approx(&self) -> Option<f64> {
        let limit = Planner::sequential().exact_limit;
        width::faqw_approx(&self.0.shape(), limit).ok().map(|r| r.width)
    }
}

/// What an evaluation returned, in plain data.
pub struct Output<E> {
    pub factor: Fac<E>,
    /// `ElimStats::total_seeks`.
    pub seeks: u64,
    /// `ElimStats::max_intermediate`.
    pub max_intermediate: usize,
    /// `(eliminated variable, rows_out)` per step.
    pub steps: Vec<(u32, usize)>,
}

fn output<E: SemiringElem>(out: faq_core::FaqOutput<E>) -> Output<E> {
    Output {
        seeks: out.stats.total_seeks(),
        max_intermediate: out.stats.max_intermediate,
        steps: out.stats.steps.iter().map(|s| (s.var.0, s.rows_out)).collect(),
        factor: Fac(out.factor),
    }
}

/// `Engine::new().threads(n).evaluate(q)`: one-shot, the query's own order.
pub fn evaluate<D: Domain>(q: &Query<D>, threads: usize) -> Result<Output<D::E>, String> {
    Engine::new().threads(threads).evaluate(&q.0).map(output).map_err(err)
}

/// `Engine::sequential().evaluate_with_order(q, order)`.
pub fn evaluate_in_order<D: Domain>(q: &Query<D>, order: &[u32]) -> Result<Output<D::E>, String> {
    Engine::sequential().evaluate_with_order(&q.0, &vars(order)).map(output).map_err(err)
}

/// One planned elimination step.
pub struct PlanStep {
    pub var: u32,
    pub u_vars: Vec<u32>,
    pub est_rows: f64,
}

/// A `QueryPlan`.
pub struct Plan(Arc<QueryPlan>);

impl Plan {
    pub fn order(&self) -> Vec<u32> {
        ids(&self.0.order)
    }

    pub fn width(&self) -> Option<f64> {
        self.0.width
    }

    pub fn steps(&self) -> Vec<PlanStep> {
        self.0
            .steps
            .iter()
            .map(|s| PlanStep { var: s.var.0, u_vars: ids(&s.u_vars), est_rows: s.est_rows })
            .collect()
    }
}

/// `Planner::with_threads(n).plan(q)`.
pub fn plan<D: Domain>(q: &Query<D>, threads: usize) -> Result<Plan, String> {
    Planner::with_threads(threads).plan(&q.0).map(|p| Plan(Arc::new(p))).map_err(err)
}

/// A `PreparedQuery`.
pub struct Prepared<D: Domain>(PreparedQuery<D>);

impl<D: Domain> Prepared<D> {
    /// `PreparedQuery::with_plan`: align + index the inputs under `plan`.
    pub fn with_plan(q: &Query<D>, plan: &Plan) -> Result<Prepared<D>, String> {
        PreparedQuery::with_plan(&q.0, Arc::clone(&plan.0)).map(Prepared).map_err(err)
    }

    /// `PreparedQuery::evaluate` under the plan's own per-step policies.
    pub fn evaluate(&self) -> Result<Output<D::E>, String> {
        self.0.evaluate().map(output).map_err(err)
    }

    /// `PreparedQuery::evaluate_budgeted` capped at `threads`.
    pub fn evaluate_capped(&self, threads: usize) -> Result<Output<D::E>, String> {
        self.0.evaluate_budgeted(&ExecPolicy::with_threads(threads)).map(output).map_err(err)
    }

    /// `PreparedQuery::apply_delta` on factor `slot`.
    pub fn apply_delta(
        &mut self,
        slot: usize,
        delta: &Delta<D::E>,
    ) -> Result<Output<D::E>, String> {
        self.0.apply_delta(slot, &delta.0).map(output).map_err(err)
    }

    /// `PreparedQuery::update_factor`: swap in a whole new factor.
    pub fn update_factor(&mut self, slot: usize, factor: Fac<D::E>) -> Result<(), String> {
        self.0.update_factor(slot, factor.0).map_err(err)
    }
}

// ---------------------------------------------------------------- join

/// `JoinStats` of one leapfrog run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinCounts {
    pub matches: u64,
    pub seeks: u64,
    pub nodes: u64,
}

/// `multiway_join_range_rep(Trie, ..)` over the full first-variable range
/// with a counting sink. Inputs must be aligned to `order` and indexed
/// ([`Fac::reorder`], [`Fac::index`]) so only the kernel is timed.
pub fn leapfrog<D: Domain>(
    domain: &D,
    domains: &[u32],
    order: &[u32],
    inputs: &[&Fac<D::E>],
) -> JoinCounts {
    let inputs: Vec<JoinInput<'_, D::E>> = inputs.iter().map(|f| JoinInput::value(&f.0)).collect();
    let mut sink = 0u64;
    let stats = multiway_join_range_rep(
        JoinRep::Trie,
        &Domains::new(domains.to_vec()),
        &vars(order),
        &inputs,
        (0, u32::MAX),
        domain.one(),
        |a, b| domain.mul(a, b),
        |row, _val| sink = sink.wrapping_add(u64::from(row[0])),
    );
    std::hint::black_box(sink);
    JoinCounts { matches: stats.matches, seeks: stats.seeks, nodes: stats.nodes }
}

// ---------------------------------------------------------------- covers

/// A query hypergraph.
pub struct Edges(Hypergraph);

impl Edges {
    pub fn new(edges: &[Vec<u32>]) -> Edges {
        let mut h = Hypergraph::new();
        for e in edges {
            h.add_edge(e.iter().map(|&i| Var(i)));
        }
        Edges(h)
    }

    /// `widths::rho_star` of vertex set `b`.
    pub fn rho_star(&self, b: &[u32]) -> f64 {
        widths::rho_star(&self.0, &var_set(b))
    }

    /// `widths::agm_bound` of `b` under per-edge `sizes`.
    pub fn agm_bound(&self, b: &[u32], sizes: &[u64]) -> Option<f64> {
        widths::agm_bound(&self.0, &var_set(b), sizes)
    }

    /// The fractional-cover program of `b`, built but not solved.
    pub fn cover_program(&self, b: &[u32]) -> CoverProgram {
        let mut lp = LinearProgram::minimize(vec![1.0; self.0.num_edges()]);
        for v in var_set(b) {
            let coeffs =
                self.0.edges().iter().map(|e| if e.contains(&v) { 1.0 } else { 0.0 }).collect();
            lp = lp.constraint(coeffs, ConstraintOp::Ge, 1.0);
        }
        CoverProgram(lp)
    }
}

/// A `LinearProgram`.
pub struct CoverProgram(LinearProgram);

impl CoverProgram {
    /// `LinearProgram::solve`; the optimum.
    pub fn solve(&self) -> Option<f64> {
        self.0.solve().ok().map(|s| s.objective)
    }
}

// ---------------------------------------------------------------- serving

/// How a submission uses the shared result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cache {
    Shared,
    Bypass,
}

/// A registered query's id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Qid(QueryId);

/// A tenant handle.
pub struct Tenant(faq_serve::Tenant);

/// A pending submission.
pub struct Ticket(faq_serve::Ticket<u64>);

/// One served answer.
pub struct Served {
    pub epoch: u64,
    /// `ServeOutput::latency`: the worker's own submission-to-answer time.
    pub latency: Duration,
    factor: Arc<Factor<u64>>,
}

impl Served {
    pub fn for_each(&self, f: impl FnMut(&[u32], &u64)) {
        for_each_row(&self.factor, f)
    }
}

fn served(out: faq_serve::ServeOutput<u64>) -> Served {
    Served { epoch: out.epoch, latency: out.latency, factor: out.factor }
}

impl Ticket {
    /// `Ticket::wait`.
    pub fn wait(self) -> Result<Served, String> {
        self.0.wait().map(served).map_err(err)
    }

    /// `Ticket::poll`: the answer if it is ready.
    pub fn poll(&self) -> Option<Result<Served, String>> {
        self.0.poll().map(|r| r.map(served).map_err(err))
    }
}

/// `ServeStats`, copied out.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    pub rejected: u64,
    pub deadline_exceeded: u64,
    pub panicked: u64,
    pub cache_hits: u64,
    pub evaluated: u64,
    pub coalesced: u64,
    pub live_epochs: usize,
    pub resident_bytes: usize,
}

/// A `FaqServer` over a counting catalog.
pub struct Server(FaqServer<Count>);

impl Server {
    /// `FaqServer::with_config` with `workers` workers and planner threads.
    pub fn start(
        workers: usize,
        max_in_flight: usize,
        domains: &[u32],
        catalog: Vec<Fac<u64>>,
    ) -> Server {
        let config = ServeConfig::default()
            .workers(workers)
            .max_in_flight(max_in_flight)
            .planner(Planner::with_threads(workers));
        Server(FaqServer::with_config(
            config,
            CountDomain,
            Domains::new(domains.to_vec()),
            catalog.into_iter().map(|f| f.0).collect(),
        ))
    }

    /// `FaqServer::register` of a query over catalog `slots`.
    pub fn register(
        &self,
        free: &[u32],
        bound: &[(u32, Agg)],
        slots: &[usize],
    ) -> Result<Qid, String> {
        let bound = bound.iter().map(|&(v, a)| (Var(v), var_agg(a))).collect();
        self.0.register(QuerySpec::new(vars(free), bound, slots.to_vec())).map(Qid).map_err(err)
    }

    /// `FaqServer::tenant`.
    pub fn tenant(&self, name: &str, max_in_flight: usize) -> Tenant {
        Tenant(self.0.tenant(name, max_in_flight))
    }

    /// `FaqServer::submit_with` under the default budget.
    pub fn submit(&self, tenant: &Tenant, q: Qid, cache: Cache) -> Result<Ticket, String> {
        let mode = match cache {
            Cache::Shared => CacheMode::Shared,
            Cache::Bypass => CacheMode::Bypass,
        };
        self.0.submit_with(&tenant.0, q.0, None, mode).map(Ticket).map_err(err)
    }

    /// `FaqServer::publish_delta`; the epoch it published.
    pub fn publish_delta(&self, slot: usize, delta: &Delta<u64>) -> Result<u64, String> {
        self.0.publish_delta(slot, &delta.0).map_err(err)
    }

    /// The prepared handle the server currently serves `q` from
    /// (`Snapshot::prepared`), evaluated directly under the default
    /// sequential budget: the same evaluation a worker runs, with no queue.
    pub fn evaluate_direct(&self, q: Qid) -> Result<Output<u64>, String> {
        let snap = self.0.snapshot();
        let prepared = snap.prepared(q.0).ok_or("query not registered")?;
        prepared.evaluate_budgeted(&ExecPolicy::sequential()).map(output).map_err(err)
    }

    pub fn current_epoch(&self) -> u64 {
        self.0.current_epoch()
    }

    /// `FaqServer::stats`.
    pub fn stats(&self) -> ServerStats {
        let s = self.0.stats();
        ServerStats {
            rejected: s.rejected,
            deadline_exceeded: s.deadline_exceeded,
            panicked: s.panicked,
            cache_hits: s.cache_hits,
            evaluated: s.evaluated,
            coalesced: s.coalesced,
            live_epochs: s.live_epochs,
            resident_bytes: s.resident_bytes,
        }
    }
}

// ---------------------------------------------------------------- counters

/// Process-wide `colstore` / `fault` / allocator counters.
pub mod counters {
    /// `chunk_reads()`: chunks faulted in from disk since process start.
    pub fn chunk_reads() -> u64 {
        faq_factor::chunk_reads()
    }

    /// `peak_pinned_bytes()` since the last reset.
    pub fn peak_pinned_bytes() -> usize {
        faq_factor::peak_pinned_bytes()
    }

    pub fn reset_peak_pinned_bytes() {
        faq_factor::reset_peak_pinned_bytes()
    }

    pub fn io_retries() -> u64 {
        faq_factor::fault::io_retries()
    }

    pub fn corrupt_chunks() -> u64 {
        faq_factor::fault::corrupt_chunks()
    }

    /// `faq_testalloc::allocation_count`; stays 0 unless the binary
    /// installed [`super::CountingAllocator`].
    pub fn allocations() -> u64 {
        faq_testalloc::allocation_count()
    }
}
