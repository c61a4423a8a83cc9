//! The engine's differential oracle (McKeeman, "Differential Testing for
//! Software", DTJ 1998): one generator crossing a random FAQ instance with a
//! random engine configuration, and the checks every configuration must
//! pass.
//!
//! The claim under test is the paper's: InsideOut along any σ ∈ EVO(ϕ)
//! computes ϕ (§5–§6), every intermediate inside AGM(U_k) (Thm 5.1,
//! Prop. 5.9).
//!
//! * An [`Instance`] is a [`Shape`] (the triangle; a 3–6-variable chain with
//!   a chord; a 4- or 5-cycle; Example 5.6's hypergraph), a semiring
//!   [`Family`] with its aggregate mix, any number of free variables, and one
//!   delta batch for one slot.
//! * A [`Config`] is a backing (in memory, or any subset of the factors
//!   spilled at 1 / C−1 / C / C+1 rows a chunk for C = 4, behind a 2-chunk
//!   window), a thread count × chunk floor, an ordering ([`Sigma`]) and an
//!   evaluation [`Path`].
//!
//! [`check`] asserts, for every ordering the configuration names:
//!
//! 1. the output equals [`naive_eval`] — bit for bit, or within 1e-9
//!    relative on the real family;
//! 2. it is bit-identical to `Engine::sequential()` along the same σ on the
//!    in-memory inputs;
//! 3. a 1-thread run seeks exactly as often (`total_seeks`) as that
//!    sequential run, whatever the backing and chunk floor;
//! 4. a delta path equals `update_factor` + `evaluate`, round after round;
//! 5. `Engine::evaluate`, which plans its own σ, is bit-identical to
//!    `Engine::sequential().evaluate` on every family and thread count, and
//!    returns its columns in the query's free order;
//!
//! and, along the planner's σ, the work oracle: no join step enumerates or
//! writes more rows than its `StepPlan.est_rows` (the step's AGM bound).
//!
//! The named edge-case tests call the same checks: [`assert_plan_equivalent`]
//! is [`check`] along chunking planners' plans, and the delta helpers
//! ([`assert_delta_matches`], [`publish_by_hand`], [`check_delta_family`])
//! are what the delta paths run.

use faq::core::evo::linear_extensions;
use faq::core::{naive_eval, ElimStats, Engine, ExecPolicy, FaqError, FaqOutput, FaqQuery};
use faq::core::{Planner, PreparedQuery, QueryPlan, VarAgg};
use faq::factor::{DeltaFactor, DeltaOp, Domains, Factor, FixedBytes, SpillConfig};
use faq::hypergraph::Var;
use faq::semiring::SingleSemiringDomain;
use faq::semiring::{AggDomain, AggId, BoolDomain, CountDomain, MaxPlus, RealDomain};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Debug};
use std::sync::Arc;

/// Thread counts, and admission budgets, of the configuration axis.
pub const THREADS: [usize; 3] = [1, 2, 4];
/// Chunk floors (`ExecPolicy::min_chunk_rows`), adversarially small so tiny
/// steps are chunked too.
pub const CHUNK_FLOORS: [usize; 4] = [0, 1, 3, usize::MAX];
/// Rows a spill chunk: 1, C−1, C, C+1 for C = 4, so rows straddle every
/// boundary alignment.
pub const CHUNK_ROWS: [usize; 4] = [1, 3, 4, 5];

/// One semiring family: its aggregate mix, the values factors and deltas
/// carry, and how an output is compared with brute force — whose columns
/// follow the query's free variables, not σ's free prefix, so `got` is
/// aligned first.
pub trait Family: AggDomain<E: FixedBytes> + Default + Clone + Sync + Debug {
    const NAME: &'static str;
    const AGGS: &'static [VarAgg];
    fn value(rng: &mut StdRng) -> Self::E;
    fn assert_close(got: &Factor<Self::E>, want: &Factor<Self::E>, what: &str) {
        assert_eq!(&got.align_to(want.schema()), want, "{what}");
    }
}

/// Counting: Σ / max / Π over saturating `u64`.
impl Family for CountDomain {
    const NAME: &'static str = "counting";
    const AGGS: &'static [VarAgg] =
        &[VarAgg::Semiring(Self::SUM), VarAgg::Semiring(Self::MAX), VarAgg::Product];
    fn value(rng: &mut StdRng) -> u64 {
        rng.gen_range(1..=4)
    }
}

/// Max-tropical (MAP in log space): max / Π on quarter-integer `f64`s, exact
/// under every association, so compared bit for bit.
pub type MaxTropical = SingleSemiringDomain<MaxPlus>;

impl Family for MaxTropical {
    const NAME: &'static str = "max-tropical";
    const AGGS: &'static [VarAgg] = &[VarAgg::Semiring(Self::OP), VarAgg::Product];
    fn value(rng: &mut StdRng) -> f64 {
        rng.gen_range(-4..=8) as f64 * 0.25
    }
}

/// Boolean (QCQ): ∃ / ∀.
impl Family for BoolDomain {
    const NAME: &'static str = "boolean";
    const AGGS: &'static [VarAgg] = &[VarAgg::Semiring(Self::OR), VarAgg::Product];
    fn value(_: &mut StdRng) -> bool {
        true
    }
}

/// Real: Σ / max on thirds, which no `f64` holds exactly, so brute force —
/// another association — is matched within 1e-9 relative.
impl Family for RealDomain {
    const NAME: &'static str = "real";
    const AGGS: &'static [VarAgg] = &[VarAgg::Semiring(Self::SUM), VarAgg::Semiring(Self::MAX)];
    fn value(rng: &mut StdRng) -> f64 {
        rng.gen_range(1..=9) as f64 / 3.0
    }
    fn assert_close(got: &Factor<f64>, want: &Factor<f64>, what: &str) {
        let got = got.align_to(want.schema());
        assert_eq!(got.len(), want.len(), "{what}: {got:?} vs {want:?}");
        for (row, w) in want.iter() {
            let g = got.get(row).unwrap_or_else(|| panic!("{what}: missing {row:?}"));
            assert!((g - w).abs() <= 1e-9 * (1.0 + w.abs()), "{what}: {row:?}: {g} vs {w}");
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    Triangle,
    Chain,
    Cycle,
    /// Example 5.6's `ψ15 ψ25 ψ134 ψ236`, x1..x6 as 0..5: the variable the
    /// two binary edges share has no input with both of its neighbours, so
    /// its step joins in its own kernel order whenever σ puts them first.
    Star,
}

const SHAPES: [Shape; 4] = [Shape::Triangle, Shape::Chain, Shape::Cycle, Shape::Star];

/// A FAQ instance of family `F`, with the delta batch a delta path applies
/// (twice) to `slot`.
pub struct Instance<F: Family> {
    pub q: FaqQuery<F>,
    pub slot: usize,
    pub delta: DeltaFactor<F::E>,
}

impl<F: Family> Instance<F> {
    /// `q` with an empty delta batch.
    pub fn new(q: FaqQuery<F>) -> Instance<F> {
        let delta = DeltaFactor::new(q.factors[0].schema().to_vec(), Vec::new()).unwrap();
        Instance { q, slot: 0, delta }
    }

    /// A random instance, and the shape drawn for it.
    pub fn draw(rng: &mut StdRng) -> (Shape, Instance<F>) {
        let shape = *SHAPES.choose(rng).unwrap();
        let (n, dom): (u32, u32) = match shape {
            Shape::Triangle => (3, 4),
            Shape::Chain => (rng.gen_range(3..=6), rng.gen_range(2..=3)),
            Shape::Cycle => (rng.gen_range(4..=5), rng.gen_range(2..=3)),
            Shape::Star => (6, rng.gen_range(2..=3)),
        };
        let mut edges: Vec<Vec<u32>> = match shape {
            Shape::Star => vec![vec![0, 4], vec![1, 4], vec![0, 2, 3], vec![1, 2, 5]],
            _ => (0..n - 1).map(|i| vec![i, i + 1]).collect(),
        };
        match shape {
            Shape::Chain => {
                let a = rng.gen_range(0..n);
                let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                edges.push(vec![a.min(b), a.max(b)]);
            }
            // The triangle is the 3-cycle.
            Shape::Triangle | Shape::Cycle => edges.push(vec![0, n - 1]),
            Shape::Star => {}
        }
        let mut factors = Vec::new();
        for edge in &edges {
            let arity = edge.len() as u32;
            let mut tuples = Vec::new();
            for cell in 0..dom.pow(arity) {
                if rng.gen_bool(0.65) {
                    let row = (0..arity).rev().map(|i| cell / dom.pow(i) % dom).collect();
                    tuples.push((row, F::value(rng)));
                }
            }
            factors.push(Factor::new(edge.iter().map(|&a| Var(a)).collect(), tuples).unwrap());
        }
        // Any prefix of a random variable order is free; the rest draw
        // aggregates from the family's mix, outermost first.
        let mut vars: Vec<Var> = (0..n).map(Var).collect();
        vars.shuffle(rng);
        let free = rng.gen_range(0..=vars.len());
        let bound = vars[free..].iter().map(|&v| (v, *F::AGGS.choose(rng).unwrap())).collect();
        let domains = Domains::uniform(n as usize, dom);
        let q =
            FaqQuery::new(F::default(), domains, vars[..free].to_vec(), bound, factors).unwrap();

        let slot = rng.gen_range(0..edges.len());
        let mut entries = BTreeMap::new();
        for _ in 0..rng.gen_range(0..8) {
            let op = match rng.gen_range(0..3) {
                0 => DeltaOp::Put(F::value(rng)),
                1 => DeltaOp::Merge(F::value(rng)),
                _ => DeltaOp::Delete,
            };
            entries.insert(edges[slot].iter().map(|_| rng.gen_range(0..dom)).collect(), op);
        }
        let schema = q.factors[slot].schema().to_vec();
        let delta = DeltaFactor::new(schema, entries.into_iter().collect()).unwrap();
        (shape, Instance { q, slot, delta })
    }
}

impl<F: Family> Debug for Instance<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (q, name) = (&self.q, F::NAME);
        write!(f, "{name} {q:?} {:#?} slot {} {:?}", q.factors, self.slot, self.delta)
    }
}

/// Which orderings a configuration evaluates along.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sigma {
    /// The query's own ordering.
    Own,
    /// The `Planner::with_threads(t)` plan.
    Planned,
    /// Members of `LinEx(P)` (§6): all of them when there are ≤ 24,
    /// otherwise one drawn at random.
    Linex,
}

/// The evaluation entry point a configuration runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Path {
    /// `Engine::evaluate_with_order`.
    Evaluate,
    /// `PreparedQuery::evaluate`, then `evaluate_budgeted` under every
    /// admission budget.
    Prepared,
    /// `PreparedQuery::apply_delta`, applied twice.
    ApplyDelta,
    /// The publish seam: a catalog's `DeltaFactor::apply_to`, then
    /// `PreparedQuery::install_merged` ([`publish_by_hand`]), twice.
    InstallMerged,
    /// `Engine::evaluate`, which plans its own σ: the configuration's σ is
    /// checked as on every path, but this run does not take it.
    EngineDefault,
}

const SIGMAS: [Sigma; 3] = [Sigma::Own, Sigma::Planned, Sigma::Linex];
const PATHS: [Path; 5] =
    [Path::Evaluate, Path::Prepared, Path::ApplyDelta, Path::InstallMerged, Path::EngineDefault];

#[derive(Debug, Clone)]
pub struct Config {
    /// `None` in memory; otherwise the rows a spill chunk and the mask of
    /// the factors spilled (empty factors stay in memory).
    pub spill: Option<(usize, u32)>,
    pub threads: usize,
    pub min_chunk_rows: usize,
    pub sigma: Sigma,
    pub path: Path,
}

impl Config {
    pub fn draw(rng: &mut StdRng, factors: usize) -> Config {
        let spilled = rng.gen_bool(0.5);
        Config {
            spill: spilled
                .then(|| (*CHUNK_ROWS.choose(rng).unwrap(), rng.gen_range(1..1u32 << factors))),
            threads: *THREADS.choose(rng).unwrap(),
            min_chunk_rows: *CHUNK_FLOORS.choose(rng).unwrap(),
            sigma: *SIGMAS.choose(rng).unwrap(),
            path: *PATHS.choose(rng).unwrap(),
        }
    }

    fn policy(&self) -> ExecPolicy {
        ExecPolicy::with_threads(self.threads).min_chunk_rows(self.min_chunk_rows)
    }

    /// `q` on this configuration's backing.
    fn back<F: Family>(&self, q: &FaqQuery<F>) -> FaqQuery<F> {
        let mut backed = q.clone();
        if let Some((chunk_rows, mask)) = self.spill {
            let config = SpillConfig {
                chunk_rows,
                level_chunk_entries: chunk_rows,
                window_chunks: 2,
                ..Default::default()
            };
            for (i, f) in backed.factors.iter_mut().enumerate() {
                if mask & (1 << i) != 0 && !f.is_empty() {
                    *f = f.to_spilled(config.clone());
                }
            }
        }
        backed
    }

    /// The plans to evaluate along: each carries this configuration's policy.
    fn plans<D: AggDomain>(&self, q: &FaqQuery<D>, rng: &mut StdRng) -> Vec<QueryPlan> {
        let along = |order| QueryPlan {
            order,
            width: None,
            est_cost: 0.0,
            steps: Vec::new(),
            policy: self.policy(),
        };
        match self.sigma {
            Sigma::Own => vec![along(q.ordering())],
            Sigma::Planned => {
                let mut planner = Planner::with_threads(self.threads);
                planner.policy = self.policy();
                vec![planner.plan(q).unwrap()]
            }
            Sigma::Linex => {
                let (mut all, complete) = linear_extensions(&q.shape(), 720);
                assert!(complete, "six variables have at most 720 orderings");
                if all.len() > 24 {
                    all = vec![all.swap_remove(rng.gen_range(0..all.len()))];
                }
                all.into_iter().map(along).collect()
            }
        }
    }

    /// The axis values this configuration drew, as coverage labels.
    fn labels(&self) -> Vec<String> {
        let backing = self.spill.map_or("mem".to_string(), |(rows, _)| format!("spill {rows}"));
        vec![
            format!("backing {backing}"),
            format!("threads {}", self.threads),
            format!("floor {}", self.min_chunk_rows),
            format!("sigma {:?}", self.sigma),
            format!("path {:?}", self.path),
        ]
    }
}

/// Every label a run must draw: each value of every axis.
pub fn every_label() -> BTreeSet<String> {
    let backings = std::iter::once("mem".to_string())
        .chain(CHUNK_ROWS.iter().map(|rows| format!("spill {rows}")));
    let families = [CountDomain::NAME, MaxTropical::NAME, BoolDomain::NAME, RealDomain::NAME];
    (SHAPES.iter().map(|s| format!("shape {s:?}")))
        .chain(families.iter().map(|f| format!("family {f}")))
        .chain(backings.map(|b| format!("backing {b}")))
        .chain(THREADS.iter().map(|t| format!("threads {t}")))
        .chain(CHUNK_FLOORS.iter().map(|m| format!("floor {m}")))
        .chain(SIGMAS.iter().map(|s| format!("sigma {s:?}")))
        .chain(PATHS.iter().map(|p| format!("path {p:?}")))
        .collect()
}

/// Prints the case it guards when a check panics, under the seed the
/// property runner prints.
struct ReportOnPanic<'a, T: Debug>(&'a T);

impl<T: Debug> Drop for ReportOnPanic<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("oracle case: {:#?}", self.0);
        }
    }
}

/// Draw one case — the family, the instance, the configuration — and check
/// it. Returns the labels it drew and the number of work-oracle step checks
/// it made.
pub fn run_case(rng: &mut StdRng) -> (Vec<String>, usize) {
    fn run<F: Family>(rng: &mut StdRng) -> (Vec<String>, usize) {
        let (shape, inst) = Instance::<F>::draw(rng);
        let config = Config::draw(rng, inst.q.factors.len());
        let _report = ReportOnPanic(&(shape, &inst, &config));
        let work = check(&inst, &config, rng);
        let mut labels = config.labels();
        labels.extend([format!("shape {shape:?}"), format!("family {}", F::NAME)]);
        (labels, work)
    }
    match rng.gen_range(0..4) {
        0 => run::<CountDomain>(rng),
        1 => run::<MaxTropical>(rng),
        2 => run::<BoolDomain>(rng),
        _ => run::<RealDomain>(rng),
    }
}

/// Check `inst` under `config` (see the module docs); returns the number of
/// work-oracle step checks made. `inst.q` must be in memory: brute force
/// reads it.
pub fn check<F: Family>(inst: &Instance<F>, config: &Config, rng: &mut StdRng) -> usize {
    let q = &inst.q;
    let backed = config.back(q);
    // The query after 0, 1 and 2 applications of the delta (a delta path
    // reports each round), and brute force on each.
    let rounds = match config.path {
        Path::ApplyDelta | Path::InstallMerged => 3,
        _ => 1,
    };
    let mut versions = vec![q.clone()];
    while versions.len() < rounds {
        let mut next = versions.last().unwrap().clone();
        next.factors[inst.slot] = merge(&next, inst.slot, &inst.delta);
        versions.push(next);
    }
    let expected: Vec<Factor<F::E>> = versions.iter().map(naive_eval).collect();

    if config.path == Path::EngineDefault {
        check_engine_default(q, &backed, &expected[0], config);
    }
    let mut work = 0;
    for plan in config.plans(q, rng) {
        let sigma = &plan.order;
        let seq: Vec<FaqOutput<F::E>> = versions
            .iter()
            .zip(&expected)
            .map(|(version, want)| {
                let out = Engine::sequential().evaluate_with_order(version, sigma).unwrap();
                F::assert_close(&out.factor, want, &format!("σ = {sigma:?} vs naive_eval"));
                out
            })
            .collect();
        // A fresh run: bit-identical to the sequential engine, at its seek
        // count on one thread, inside the planner's estimates.
        let mut fresh = |out: FaqOutput<F::E>, threads: usize| {
            assert_eq!(out.factor, seq[0].factor, "σ = {sigma:?} vs Engine::sequential");
            if threads == 1 {
                let seeks = (out.stats.total_seeks(), seq[0].stats.total_seeks());
                assert_eq!(seeks.0, seeks.1, "σ = {sigma:?}: 1-thread seeks");
            }
            if config.sigma == Sigma::Planned {
                work += assert_within_estimates(&plan, &out.stats);
            }
        };
        match config.path {
            Path::EngineDefault => {} // σ-free: checked once, above
            Path::Evaluate => {
                let engine = Engine::with_policy(config.policy());
                fresh(engine.evaluate_with_order(&backed, sigma).unwrap(), config.threads);
            }
            Path::Prepared => {
                let handle = PreparedQuery::with_plan(&backed, Arc::new(plan.clone())).unwrap();
                fresh(handle.evaluate().unwrap(), config.threads);
                for budget in THREADS {
                    let cap =
                        ExecPolicy::with_threads(budget).min_chunk_rows(config.min_chunk_rows);
                    fresh(handle.evaluate_budgeted(&cap).unwrap(), config.threads.min(budget));
                }
            }
            path => {
                let outs = delta_rounds(&backed, &plan, path, inst.slot, &inst.delta);
                for (round, out) in outs.iter().enumerate() {
                    let want = &seq[round + 1].factor;
                    assert_eq!(out, want, "σ = {sigma:?}, round {round} vs Engine::sequential");
                }
            }
        }
    }
    work
}

/// `Engine::evaluate` under `config`'s policy on the backed query, which
/// plans its own σ: bit-identical to `Engine::sequential().evaluate(q)` (the
/// plan reads no thread count, so on every family, real included), equal to
/// a sequential run along that plan's σ once realigned, with its columns in
/// `q.free` order, and `want` (brute force) up to the family's tolerance.
fn check_engine_default<F: Family>(
    q: &FaqQuery<F>,
    backed: &FaqQuery<F>,
    want: &Factor<F::E>,
    config: &Config,
) {
    let out = Engine::with_policy(config.policy()).evaluate(backed).unwrap();
    let seq = Engine::sequential().evaluate(q).unwrap();
    assert_eq!(out.factor, seq.factor, "Engine::evaluate vs Engine::sequential().evaluate");
    if config.threads == 1 {
        assert_eq!(out.stats.total_seeks(), seq.stats.total_seeks(), "1-thread seeks");
    }
    let plan = Planner::sequential().plan(q).unwrap();
    let along = Engine::sequential().evaluate_with_order(q, &plan.order).unwrap();
    assert_eq!(out.factor, along.factor.align_to(&q.free), "σ = {:?}, realigned", plan.order);
    assert_eq!(out.factor.schema(), &q.free[..], "the output's columns follow q.free");
    F::assert_close(&out.factor, want, "Engine::evaluate vs naive_eval");
}

/// Thm 5.1 / Prop. 5.9 against the planner's own numbers: every join step of
/// a fresh run along `plan` enumerates (`join.matches`) and writes
/// (`rows_out`) at most its `StepPlan.est_rows` — the AGM bound of its
/// `U`-set, capped by the domain cross-product. Steps pair by variable;
/// product and scalar steps join nothing and have no `StepPlan`. Returns the
/// number of steps checked.
fn assert_within_estimates(plan: &QueryPlan, stats: &ElimStats) -> usize {
    let mut checked = 0;
    for step in stats.steps.iter().filter(|s| s.semiring) {
        let Some(join) = step.join else { continue };
        let est = plan.steps.iter().find(|p| p.var == step.var).expect("a planned join step");
        let cap = est.est_rows * (1.0 + 1e-9);
        let within = step.rows_out as f64 <= cap && join.matches as f64 <= cap;
        assert!(within, "{step:?} exceeds {est:?}");
        checked += 1;
    }
    checked
}

/// `q.factors[slot]` with `delta` merged through the domain's first
/// ⊕-operator, as `apply_delta` merges.
fn merge<D: AggDomain>(q: &FaqQuery<D>, slot: usize, delta: &DeltaFactor<D::E>) -> Factor<D::E> {
    let dom = &q.domain;
    let aligned = delta.align_to(q.factors[slot].schema());
    aligned.apply_to(&q.factors[slot], |a, b| dom.add(AggId(0), a, b), |x| dom.is_zero(x)).0
}

/// A planner whose plans chunk even tiny steps: `threads` workers, chunk
/// floor 1.
pub fn chunking_planner(threads: usize) -> Planner {
    let mut planner = Planner::with_threads(threads);
    planner.policy.min_chunk_rows = 1;
    planner
}

/// `update_factor` + `evaluate`: merge `delta` by hand into `oracle`'s copy
/// of the slot, swap it in, and evaluate from scratch.
fn recompute<D: AggDomain + Clone + Sync>(
    oracle: &mut PreparedQuery<D>,
    slot: usize,
    delta: &DeltaFactor<D::E>,
) -> Factor<D::E> {
    let merged = merge(oracle.query(), slot, delta);
    oracle.update_factor(slot, merged).unwrap();
    oracle.evaluate().unwrap().factor
}

/// Apply `delta` incrementally on `prepared` and from scratch on `oracle`
/// (manual merge + `update_factor` + `evaluate`), asserting bit-identical
/// output factors; returns the from-scratch output.
pub fn assert_delta_matches<D: AggDomain + Clone + Sync>(
    prepared: &mut PreparedQuery<D>,
    oracle: &mut PreparedQuery<D>,
    slot: usize,
    delta: &DeltaFactor<D::E>,
) -> Factor<D::E> {
    let incr = prepared.apply_delta(slot, delta).unwrap();
    let fresh = recompute(oracle, slot, delta);
    assert_eq!(incr.factor, fresh, "incremental output diverged from recompute");
    fresh
}

/// The publish seam, by hand: merge `delta` into a copy of the slot kept in
/// the query's *original* column order (a serving catalog's copy), then give
/// `(merged, ranges)` to the handle's install half. A handle whose plan
/// reordered its copy of the slot must refuse that merge untouched — it is
/// not a version of the factor it holds — and takes `apply_delta` instead.
/// Returns the handle's output.
pub fn publish_by_hand<D: AggDomain + Clone + Sync>(
    catalog: &mut Factor<D::E>,
    handle: &mut PreparedQuery<D>,
    slot: usize,
    delta: &DeltaFactor<D::E>,
) -> Factor<D::E> {
    let dom = handle.query().domain.clone();
    let (merged, ranges) = delta.align_to(catalog.schema()).apply_to(
        catalog,
        |a, b| dom.add(AggId(0), a, b),
        |x| dom.is_zero(x),
    );
    let input = handle.query().factors[slot].clone();
    let out = if input.schema() == merged.schema() {
        let unchanged = ranges.is_empty();
        let out = handle.install_merged(slot, merged.clone(), ranges).unwrap();
        // An effect-free batch replays nothing and keeps the body it had;
        // otherwise the handle now reads the one merged body.
        let kept = if unchanged { &input } else { &merged };
        assert!(handle.query().factors[slot].shares_body(kept));
        assert!(!unchanged || out.stats.steps.is_empty());
        out
    } else {
        assert!(matches!(
            handle.install_merged(slot, merged.clone(), ranges),
            Err(FaqError::BadOrdering(_))
        ));
        assert!(handle.query().factors[slot].shares_body(&input), "a refused install mutated");
        handle.apply_delta(slot, delta).unwrap()
    };
    *catalog = merged;
    out.factor
}

/// Run `delta` twice (deltas accumulate on the cached intermediates of the
/// first round) through `path` — `apply_delta`, or the publish seam — on a
/// handle prepared along `plan`, each round checked against `update_factor`
/// + `evaluate` on a second handle. Returns each round's output.
fn delta_rounds<D: AggDomain + Clone + Sync>(
    q: &FaqQuery<D>,
    plan: &QueryPlan,
    path: Path,
    slot: usize,
    delta: &DeltaFactor<D::E>,
) -> Vec<Factor<D::E>> {
    let prepare = || PreparedQuery::with_plan(q, Arc::new(plan.clone())).unwrap();
    let (mut handle, mut oracle) = (prepare(), prepare());
    let mut catalog = q.factors[slot].clone();
    (0..2)
        .map(|_| match path {
            Path::ApplyDelta => assert_delta_matches(&mut handle, &mut oracle, slot, delta),
            _ => {
                let out = publish_by_hand(&mut catalog, &mut handle, slot, delta);
                let fresh = recompute(&mut oracle, slot, delta);
                assert_eq!(out, fresh, "merge-once-then-install diverged from recompute");
                out
            }
        })
        .collect()
}

/// Both delta paths, twice each, against recompute, under chunking planners
/// with threads ∈ {1, 2, 4}. Unlike [`check`], `q` may hold spilled factors.
pub fn check_delta_family<D: AggDomain + Clone + Sync>(
    q: &FaqQuery<D>,
    slot: usize,
    entries: Vec<(Vec<u32>, DeltaOp<D::E>)>,
) {
    let delta = DeltaFactor::new(q.factors[slot].schema().to_vec(), entries).unwrap();
    for threads in THREADS {
        let plan = chunking_planner(threads).plan(q).unwrap();
        let applied = delta_rounds(q, &plan, Path::ApplyDelta, slot, &delta);
        assert_eq!(applied, delta_rounds(q, &plan, Path::InstallMerged, slot, &delta));
    }
}

/// [`check`] through `PreparedQuery::evaluate` / `evaluate_budgeted` along
/// the plans of chunking planners with threads ∈ {1, 2, 4}.
pub fn assert_plan_equivalent<F: Family>(q: &FaqQuery<F>) {
    let inst = Instance::new(q.clone());
    for threads in THREADS {
        let config = Config {
            spill: None,
            threads,
            min_chunk_rows: 1,
            sigma: Sigma::Planned,
            path: Path::Prepared,
        };
        check(&inst, &config, &mut StdRng::seed_from_u64(0));
    }
}
