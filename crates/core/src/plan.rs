//! Cost-based adaptive planning and prepared (serving-path) queries.
//!
//! The §7 machinery of the paper ([`crate::width`]) picks orderings purely by
//! *width*: `faqw(σ) = max_k ρ*(U_k)` bounds InsideOut's runtime by
//! `O~(N^{faqw(σ)} + ‖ϕ‖)` (Proposition 5.9), and Theorems 7.2/7.5 search
//! `LinEx(P)` for a small-width σ. Width is the right asymptotic yardstick,
//! but on a *concrete database* two orderings of equal width can differ by
//! orders of magnitude: the data enters through the per-edge sizes `‖ψ_S‖`,
//! exactly as in the AGM bound `AGM(U) = Π_S ‖ψ_S‖^{λ*_S}` (paper eq. (3),
//! [`faq_hypergraph::widths::agm_bound`]) — the LP that *weights* the
//! fractional cover by the actual factor sizes instead of counting edges.
//!
//! This module closes that gap with a [`Planner`] that
//!
//! 1. enumerates candidate ϕ-equivalent orderings (the `LinEx(P)` machinery
//!    of [`crate::evo`] and, when that enumeration is capped, the
//!    [`crate::width`] optimizers' pick), every one of them put through the
//!    EVO membership test;
//! 2. scores every elimination step of every candidate by the AGM bound of
//!    the step's `U`-set under the input factors' row counts, and breaks
//!    cost ties by `faqw`;
//! 3. emits a [`QueryPlan`]: the chosen ordering, its width, the per-step
//!    estimates, and the one [`ExecPolicy`] (thread budget and chunk floor)
//!    every evaluation of the plan runs under. A plan chooses σ and nothing
//!    else — whether a step is chunked across threads is decided by the
//!    executor, per step, from the rows it is about to join (the crate's
//!    `exec` module).
//!
//! A pass compares up to `linex_cap + 1` orderings that mostly differ in
//! their last few positions, and everything it asks about one of them is a
//! function of a *state*, not of the ordering that reached it: whether the
//! next variable is admissible depends on the sub-query conditioned on the
//! variables consumed so far, a step's `U`-set on the set eliminated before
//! it, `ρ*` on the `U`-set alone. So one pass holds one memo of each — the
//! [`crate::evo`] checker's states, the cost model's `(state, variable) →
//! (estimate, next state)` steps, one `ρ*` table — and a candidate costs a
//! handful of lookups per variable; only states no earlier candidate reached
//! build an expression tree or solve an LP. Nothing is skipped for it: the
//! candidates, their verdicts and the chosen plan are those of testing,
//! compiling and measuring every ordering from scratch (`tests/plan_pins.rs`
//! pins them).
//!
//! For repeated evaluation — the serving path — a [`PreparedQuery`] caches
//! the plan *plus* the aligned, trie-indexed input factors, so `evaluate()`
//! skips ordering search, factor alignment, and index builds entirely. Plans
//! are not cached across queries: which orderings are ϕ-equivalent depends on
//! the domain (§6, Def. 6.30), so a plan belongs to the query it was made for.
//!
//! Plan choices never change what is computed: every candidate ordering is
//! ϕ-equivalent, so runs along two of them agree exactly on exact semirings
//! and up to ⊕'s rounding on `f64`, and along one ordering every thread
//! count is bit-identical by construction. [`crate::Engine::evaluate`] runs
//! the plan of a default-configured planner, so a prepared run of that plan
//! equals it bit for bit once its columns are put in `q.free` order (a
//! prepared run's follow the plan's free prefix).

use crate::delta::DeltaCache;
use crate::evo::EvoChecker;
use crate::exec::{with_abort_guard, ExecPolicy};
use crate::exprtree::QueryShape;
use crate::insideout::{
    compile, evaluate, incident_edges, output_fuses, ElimStats, FaqOutput, OutputForm,
};
use crate::query::{FaqError, FaqQuery, VarAgg};
use crate::width::FaqwMemo;
use faq_factor::{DeltaFactor, Domains, Factor};
use faq_hypergraph::widths::agm_bound;
use faq_hypergraph::{Hypergraph, Var, VarSet};
use faq_semiring::{AggDomain, AggId, SemiringElem};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The cost model's estimate for one elimination step.
#[derive(Debug, Clone)]
pub struct StepPlan {
    /// The eliminated variable (bound semiring steps and free guard steps).
    pub var: Var,
    /// The step's `U`-set in join order.
    pub u_vars: Vec<Var>,
    /// Estimated rows the step's sub-join enumerates (its AGM bound, capped
    /// by the cross-product of the domain sizes).
    pub est_rows: f64,
}

/// A cost-annotated, reusable evaluation plan for one query schema.
///
/// Produced by [`Planner::plan`]. Plans depend only on the query *schema* and
/// the input *sizes* — never on factor values — so one plan serves
/// arbitrarily many evaluations over fresh data of similar scale.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// The chosen ϕ-equivalent variable ordering (free variables first).
    pub order: Vec<Var>,
    /// `faqw(order)` when defined; `None` on degenerate queries whose
    /// `U`-sets are uncoverable (see [`FaqError::Uncoverable`]).
    pub width: Option<f64>,
    /// The cost model's total estimate for this ordering (sum of per-step
    /// estimated rows) — comparable across plans for the same query only.
    pub est_cost: f64,
    /// Per-step estimates, innermost elimination first.
    pub steps: Vec<StepPlan>,
    /// The policy every evaluation of this plan runs under (the planner's,
    /// see [`Planner::policy`]); [`PreparedQuery::evaluate_budgeted`] clamps
    /// it per call.
    pub policy: ExecPolicy,
}

/// The cost-based adaptive planner.
///
/// All knobs are public with serving-oriented defaults; construct with
/// [`Planner::default`] (one worker per hardware thread) or
/// [`Planner::with_threads`] and adjust fields as needed.
#[derive(Debug, Clone)]
pub struct Planner {
    /// Maximum `LinEx(P)` candidates enumerated per planning pass.
    pub linex_cap: usize,
    /// Vertex cap for exact blackbox searches (see [`crate::width::faqw_approx`]).
    pub exact_limit: usize,
    /// The execution policy stamped on every plan: the thread budget and
    /// chunk floor its evaluations run under (a deadline or cancel token set
    /// here is carried by the plans too).
    pub policy: ExecPolicy,
}

impl Default for Planner {
    fn default() -> Planner {
        Planner::with_policy(ExecPolicy::default())
    }
}

impl Planner {
    /// A planner whose plans run single-threaded.
    pub fn sequential() -> Planner {
        Planner::with_policy(ExecPolicy::sequential())
    }

    /// A planner whose plans may use up to `threads` workers per step.
    pub fn with_threads(threads: usize) -> Planner {
        Planner::with_policy(ExecPolicy::with_threads(threads))
    }

    pub(crate) fn with_policy(policy: ExecPolicy) -> Planner {
        Planner { linex_cap: 768, exact_limit: 14, policy }
    }

    /// Plan `q`: pick a ϕ-equivalent ordering by data-driven cost.
    ///
    /// Reads the factors' schemas and row counts only; no index is built.
    pub fn plan<D: AggDomain>(&self, q: &FaqQuery<D>) -> Result<QueryPlan, FaqError> {
        q.validate()?;
        let shape = q.shape();
        let h = q.hypergraph();
        let sizes: Vec<u64> = q.factors.iter().map(|f| f.len() as u64).collect();

        let own = q.ordering();
        let candidates = self.candidates(q, &shape);

        // Score every candidate with the shared cost model — a walk of
        // memoized steps, see `CostModel`; width (one ρ* LP per new U-set)
        // breaks ties only, so it is computed for the cost finalists alone,
        // all against one ρ* memo.
        let mut model = CostModel::new(&h, &sizes, q);
        let own_cost = model.ordering_cost(&own, q.free.len());
        let scored: Vec<(Vec<Var>, f64)> = candidates
            .into_iter()
            .map(|sigma| {
                let cost = model.ordering_cost(&sigma, q.free.len());
                (sigma, cost)
            })
            .collect();
        let min_cost = scored.iter().map(|&(_, c)| c).fold(own_cost, f64::min);
        let finalist = |cost: f64| cost <= min_cost + 1e-9;
        let mut widths = FaqwMemo::new(&shape).ok();
        let mut width_of =
            |sigma: &[Var]| widths.as_mut().and_then(|memo| memo.faqw_of_ordering(sigma).ok());
        // The query's own ordering is always valid, so it seeds the
        // selection: the first finalist displaces it when it is not one
        // itself, and after that only a strictly smaller width wins.
        let own_width = if finalist(own_cost) { width_of(&own) } else { None };
        let (mut order, mut est_cost, mut width) = (own, own_cost, own_width);
        for (sigma, cost) in scored {
            if !finalist(cost) {
                continue; // skip the width LPs entirely
            }
            let w = width_of(&sigma);
            if !finalist(est_cost)
                || w.unwrap_or(f64::INFINITY) < width.unwrap_or(f64::INFINITY) - 1e-12
            {
                (order, est_cost, width) = (sigma, cost, w);
            }
        }

        let steps = model.step_plans(q, &order);
        Ok(QueryPlan { order, width, est_cost, steps, policy: self.policy.clone() })
    }

    /// The orderings a planning pass scores beside the query's own:
    /// `LinEx(P)` up to the cap and, when the cap cut the enumeration short,
    /// the width optimizers' pick.
    ///
    /// Every one of them — the linear extensions too, sound though they are
    /// by Theorems 6.8/6.23 — has passed the EVO membership test, which also
    /// rejects a non-permutation and a prefix other than the free variables.
    /// One checker serves the whole pass, so the hundreds of candidates that
    /// share prefixes share the expression trees built along them
    /// ([`crate::evo`]): testing all of them costs about what testing a
    /// handful used to. Linear extensions are distinct, so only the query's
    /// own ordering and a repeat of the optimizer's pick are dropped.
    fn candidates<D: AggDomain>(&self, q: &FaqQuery<D>, shape: &QueryShape) -> Vec<Vec<Var>> {
        let (mut candidates, exhausted) = crate::evo::linear_extensions(shape, self.linex_cap);
        if !exhausted {
            if let Ok(r) = crate::width::faqw_optimize(shape, 1, self.exact_limit) {
                if !candidates.contains(&r.order) {
                    candidates.push(r.order);
                }
            }
        }
        let own = q.ordering();
        let mut checker = EvoChecker::new(shape);
        candidates.retain(|sigma| *sigma != own && checker.check(sigma));
        candidates
    }

    /// Plan `q` and bundle the plan with aligned, indexed inputs into a
    /// [`PreparedQuery`] ready for repeated evaluation.
    pub fn prepare<D: AggDomain + Clone + Sync>(
        &self,
        q: &FaqQuery<D>,
    ) -> Result<PreparedQuery<D>, FaqError> {
        let plan = Arc::new(self.plan(q)?);
        PreparedQuery::with_plan(q, plan)
    }
}

/// The data-driven step cost model: AGM bounds over the original edges,
/// capped by domain cross-products, memoized per `U`-set — and per
/// elimination state.
///
/// Which edges are live when a variable is eliminated, hence the step's
/// `U`-set and its estimate, depends on the *set* of variables eliminated
/// before it, not on their order. The model interns each live edge set it
/// meets as a state and memoizes `(state, variable) → (estimate, next
/// state)`, so pricing an ordering is one lookup per variable, and the
/// planner's candidates — hundreds of orderings that differ in a few
/// positions — share all but a few steps. A step's `U`-set comes from
/// [`incident_edges`], the same split [`compile`] makes, so the sum over an
/// ordering equals the sum over the join steps of its compiled program.
struct CostModel<'a> {
    h: &'a Hypergraph,
    sizes: &'a [u64],
    space: BTreeMap<Var, f64>,
    memo: HashMap<Vec<Var>, f64>,
    /// The product-aggregated variables: their steps rewrite every edge on
    /// its own and join nothing.
    products: VarSet,
    /// The estimate of the output join, over the free variables.
    output_rows: f64,
    /// Per state, the schemas of its live edges: each sorted, the list
    /// sorted, nullary edges dropped (they meet no variable). State 0 is the
    /// query's own edge set.
    states: Vec<Vec<Vec<Var>>>,
    ids: HashMap<Vec<Vec<Var>>, usize>,
    /// `(state, eliminated variable)` → the step's estimated rows (zero
    /// when the step joins nothing) and the state it leaves.
    steps: HashMap<(usize, Var), (f64, usize)>,
}

impl<'a> CostModel<'a> {
    fn new<D: AggDomain>(h: &'a Hypergraph, sizes: &'a [u64], q: &FaqQuery<D>) -> CostModel<'a> {
        let space =
            q.ordering().into_iter().map(|v| (v, (q.domains.size(v) as f64).max(1.0))).collect();
        let products =
            q.bound.iter().filter(|(_, agg)| *agg == VarAgg::Product).map(|&(v, _)| v).collect();
        let mut model = CostModel {
            h,
            sizes,
            space,
            memo: HashMap::new(),
            products,
            output_rows: 0.0,
            states: Vec::new(),
            ids: HashMap::new(),
            steps: HashMap::new(),
        };
        model.output_rows = model.est_rows(&q.free);
        model.intern(q.factors.iter().map(|f| f.schema().to_vec()).collect());
        model
    }

    /// Estimated rows a join over the variables `u` enumerates: `AGM(u)`
    /// under the input sizes, capped by `Π |Dom|`; the domain cross-product
    /// alone when `u` is uncoverable (degenerate queries never error the
    /// planner).
    fn est_rows(&mut self, u: &[Var]) -> f64 {
        if u.is_empty() {
            return 1.0;
        }
        let mut key: Vec<Var> = u.to_vec();
        key.sort_unstable();
        if let Some(&c) = self.memo.get(&key) {
            return c;
        }
        let cross: f64 = key.iter().map(|v| self.space.get(v).copied().unwrap_or(1.0)).product();
        let set: VarSet = key.iter().copied().collect();
        let est = match agm_bound(self.h, &set, self.sizes) {
            Some(a) => a.min(cross),
            None => cross,
        };
        self.memo.insert(key, est);
        est
    }

    fn intern(&mut self, mut live: Vec<Vec<Var>>) -> usize {
        live.retain(|schema| !schema.is_empty());
        for schema in &mut live {
            schema.sort_unstable();
        }
        live.sort_unstable();
        if let Some(&id) = self.ids.get(&live) {
            return id;
        }
        self.states.push(live.clone());
        self.ids.insert(live, self.states.len() - 1);
        self.states.len() - 1
    }

    /// Eliminate `var` from `state`: the estimated rows of the step's join
    /// (zero if it joins nothing) and the state left behind.
    fn step(&mut self, state: usize, var: Var) -> (f64, usize) {
        if let Some(&known) = self.steps.get(&(state, var)) {
            return known;
        }
        let live = &self.states[state];
        let (u, next): (Vec<Var>, Vec<Vec<Var>>) = if self.products.contains(&var) {
            // Eq. (8): every edge loses the variable, none is joined.
            let shrunk = |s: &Vec<Var>| s.iter().copied().filter(|&v| v != var).collect();
            (Vec::new(), live.iter().map(shrunk).collect())
        } else {
            // A semiring fold or a free-variable guard: ∂(var) is replaced by
            // the single edge U − {var}; nothing happens when ∂(var) is empty.
            let edges = live.iter().enumerate().map(|(i, s)| (i, s.as_slice()));
            let (_, rest, u) = incident_edges(edges, var);
            let mut next: Vec<Vec<Var>> = rest.into_iter().map(|i| live[i].clone()).collect();
            next.push(u.iter().copied().filter(|&v| v != var).collect());
            (u, next)
        };
        let est = if u.is_empty() { 0.0 } else { self.est_rows(&u) };
        let taken = (est, self.intern(next));
        self.steps.insert((state, var), taken);
        taken
    }

    /// Total estimated cost of eliminating along `sigma` (a checked
    /// ordering whose first `free` positions are the free variables): the
    /// estimated sub-join rows of the fold and guard steps, innermost
    /// variable first, then of the output join — term for term the sum over
    /// the join steps of `compile(q, sigma, OutputForm::Listing)`.
    /// Where that program fuses the innermost free step into the output join
    /// ([`output_fuses`]), the step is priced once, as the output.
    fn ordering_cost(&mut self, sigma: &[Var], free: usize) -> f64 {
        let (mut state, mut cost) = (0, 0.0);
        for (k, &var) in sigma.iter().enumerate().rev() {
            let live = self.states[state].iter().map(Vec::as_slice);
            if k + 1 == free && output_fuses(live, &sigma[..free]) {
                break;
            }
            let (est, next) = self.step(state, var);
            cost += est;
            state = next;
        }
        cost + self.output_rows
    }

    /// The estimates along the chosen ordering, one per join step of the
    /// compiled program that eliminates a variable.
    fn step_plans<D: AggDomain>(&mut self, q: &FaqQuery<D>, sigma: &[Var]) -> Vec<StepPlan> {
        compile(q, sigma, OutputForm::Listing)
            .joins()
            .filter_map(|js| {
                let var = js.var?;
                let est_rows = self.est_rows(&js.join_order);
                Some(StepPlan { var, u_vars: js.join_order.clone(), est_rows })
            })
            .collect()
    }
}

/// Errors with [`FaqError::FactorSchemaMismatch`] — naming `slot` and a
/// variable from the symmetric difference — unless `schema` covers the same
/// variable set as `current`, the schema of the factor held in that slot.
fn check_slot_schema(slot: usize, current: &[Var], schema: &[Var]) -> Result<(), FaqError> {
    let old_schema: VarSet = current.iter().copied().collect();
    let new_schema: VarSet = schema.iter().copied().collect();
    if old_schema != new_schema {
        // Name a variable from the symmetric difference: one the update
        // adds, or — when its schema is a strict subset — one it is
        // missing. The sets differ, so one side is non-empty.
        let var = new_schema
            .difference(&old_schema)
            .next()
            .or_else(|| old_schema.difference(&new_schema).next())
            .copied()
            .expect("schemas differ");
        return Err(FaqError::FactorSchemaMismatch { slot, var });
    }
    Ok(())
}

/// Whether `delta` may be merged through `⊕⁽ᵒᵖ⁾` into the factor `current`
/// held in `slot`: the operator exists in `domain`, the delta's schema is a
/// permutation of the factor's, and every key lies inside `domains`.
///
/// The one validation behind [`PreparedQuery::apply_delta_with`] and a
/// serving writer's publish, so the same bad delta is the same [`FaqError`]
/// wherever it is offered.
pub fn check_delta<D: AggDomain>(
    domain: &D,
    domains: &Domains,
    slot: usize,
    current: &Factor<D::E>,
    delta: &DeltaFactor<D::E>,
    op: AggId,
) -> Result<(), FaqError> {
    if op.index() >= domain.num_ops() {
        return Err(FaqError::UnknownAggregate(op));
    }
    check_slot_schema(slot, current.schema(), delta.schema())?;
    for (key, _) in delta.iter() {
        for (&var, &value) in delta.schema().iter().zip(key) {
            if value >= domains.size(var) {
                return Err(FaqError::ValueOutOfDomain { var, value });
            }
        }
    }
    Ok(())
}

/// Merge `delta` into `base` through `⊕⁽ᵒᵖ⁾` under `policy`'s abort
/// controls. Returns the merged factor (in `base`'s column order) and the
/// first-column ranges it differs from `base` in — what
/// [`PreparedQuery::install_merged`] takes. A heap result is not indexed
/// here: the replay's first join of it builds its trie.
///
/// The one merge behind [`PreparedQuery::apply_delta_with`] and a serving
/// writer's publish. Nothing is installed anywhere, so a storage fault in
/// a spilled merge leaves every holder of `base` as it was. `delta` must
/// pass [`check_delta`] against `base` first.
#[allow(clippy::type_complexity)]
pub fn merge_delta<D: AggDomain>(
    domain: &D,
    policy: &ExecPolicy,
    base: &Factor<D::E>,
    delta: &DeltaFactor<D::E>,
    op: AggId,
) -> Result<(Factor<D::E>, Vec<(u32, u32)>), FaqError> {
    with_abort_guard(policy, || {
        Ok(delta.align_to(base.schema()).apply_to(
            base,
            |a, b| domain.add(op, a, b),
            |x| domain.is_zero(x),
        ))
    })
}

/// `factor` aligned to `order` and indexed: a serving-ready input. An
/// aligned factor stays a handle on its caller's body, index included.
fn serving_ready<E: SemiringElem>(factor: &Factor<E>, order: &[Var]) -> Factor<E> {
    let ready = factor.align_to(order);
    ready.trie();
    ready
}

/// A query prepared for repeated evaluation: the plan plus pre-aligned,
/// pre-indexed input factors.
///
/// Construction pays for ordering search, factor alignment to the plan
/// order, and trie-index builds exactly once; every [`PreparedQuery::evaluate`]
/// after that runs straight into the join kernels (an input the plan order
/// leaves aligned stays a handle on the caller's factor body, index
/// included). *Intermediate* factors are indexed by the step that joins
/// them, on first read ([`Factor::trie`]) — inputs are indexed here,
/// intermediates when joined. Factor values can be swapped out between
/// evaluations with [`PreparedQuery::update_factor`] — the plan is
/// schema-keyed, so results stay exact for arbitrary new data; only the cost
/// estimates age.
///
/// For *point updates* the handle goes one step further:
/// [`PreparedQuery::apply_delta`] merges a sorted batch of inserts, merges,
/// and deletes ([`DeltaFactor`]) into one factor and re-runs only the
/// elimination steps — restricted to the touched key ranges — that the change
/// can reach, against intermediates cached from the previous evaluation (see
/// the crate's `delta` module).
pub struct PreparedQuery<D: AggDomain> {
    query: FaqQuery<D>,
    plan: Arc<QueryPlan>,
    /// Kept intermediates for incremental replay; primed lazily by the
    /// first [`PreparedQuery::apply_delta`], invalidated by
    /// [`PreparedQuery::update_factor`].
    cache: Option<DeltaCache<D::E>>,
}

impl<D: AggDomain + Clone + Sync> PreparedQuery<D> {
    /// Bundle an existing plan with `q`.
    ///
    /// `plan.order` must be a permutation of `q`'s variables with the free
    /// ones first — that much is checked. That it lies in `EVO(ϕ)` is the
    /// caller's promise, as for [`crate::Engine::evaluate_with_order`]: pass
    /// a plan made for *this* query's shape ([`FaqQuery::shape`] depends on
    /// the domain, so the same hyperedges under another domain are another
    /// shape).
    pub fn with_plan(q: &FaqQuery<D>, plan: Arc<QueryPlan>) -> Result<PreparedQuery<D>, FaqError> {
        q.validate()?;
        q.check_ordering(&plan.order)?;
        let mut query = q.clone();
        query.factors = with_abort_guard(&plan.policy, || {
            Ok(q.factors.iter().map(|f| serving_ready(f, &plan.order)).collect())
        })?;
        Ok(PreparedQuery { query, plan, cache: None })
    }

    /// Evaluate the prepared query under its plan.
    ///
    /// The output's columns follow the plan's free prefix. No re-planning,
    /// re-alignment, or re-indexing happens here.
    pub fn evaluate(&self) -> Result<FaqOutput<D::E>, FaqError> {
        evaluate(&self.query, &self.plan.order, &self.plan.policy)
    }

    /// Evaluate under an admission budget: the plan's policy clamped by
    /// `cap` (`ExecPolicy::capped`). Bit-identical to
    /// [`PreparedQuery::evaluate`]; only resource use changes.
    pub fn evaluate_budgeted(&self, cap: &ExecPolicy) -> Result<FaqOutput<D::E>, FaqError> {
        evaluate(&self.query, &self.plan.order, &self.plan.policy.capped(cap))
    }

    /// Replace the values of input factor `slot` (position in the original
    /// factor list) with fresh data over the same schema.
    ///
    /// The new factor is aligned to the plan order and indexed immediately,
    /// keeping the handle serving-ready. Errors if the schema (as a variable
    /// set) differs — naming the offending slot in the
    /// [`FaqError::FactorSchemaMismatch`] — or the new values violate the
    /// query's domains. Every error path leaves the handle — including any
    /// cached incremental intermediates — exactly as it was; a successful
    /// swap drops the delta cache (it described the old values) and the next
    /// [`PreparedQuery::apply_delta`] re-primes it.
    pub fn update_factor(&mut self, slot: usize, factor: Factor<D::E>) -> Result<(), FaqError> {
        let current = self.slot_factor(slot)?;
        check_slot_schema(slot, current.schema(), factor.schema())?;
        // Align and index before the swap: a fault here leaves the slot and
        // the delta cache as they were.
        let ready =
            with_abort_guard(&self.plan.policy, || Ok(serving_ready(&factor, &self.plan.order)))?;
        let old = std::mem::replace(&mut self.query.factors[slot], ready);
        if let Err(e) = self.query.validate() {
            self.query.factors[slot] = old; // roll back: keep the handle usable
            return Err(e);
        }
        self.cache = None;
        Ok(())
    }

    /// The prepared factor in `slot`, or the error every slot-taking method
    /// reports for a position outside the factor list.
    fn slot_factor(&self, slot: usize) -> Result<&Factor<D::E>, FaqError> {
        self.query
            .factors
            .get(slot)
            .ok_or_else(|| FaqError::BadOrdering(format!("factor slot {slot} out of range")))
    }

    /// Apply a point-update batch to factor `slot` and return the query's new
    /// output, re-running only the elimination work the change can reach.
    ///
    /// Inserts and updates merge through the domain's first ⊕-operator
    /// (`AggId(0)` — ordinary addition under counting, `max` under
    /// max-tropical, `or` under boolean); use
    /// [`PreparedQuery::apply_delta_with`] to pick another operator. The
    /// first call primes a cache of per-step intermediates with an ordinary
    /// evaluation whose nodes are kept; subsequent calls replay only the steps whose inputs
    /// changed, restricted to the touched key ranges where the step's join
    /// order allows it (see the crate's `delta` module for the machinery and
    /// its soundness argument). The returned output is **bit-identical** to
    /// [`PreparedQuery::update_factor`] with the merged factor followed by
    /// [`PreparedQuery::evaluate`]; the returned [`ElimStats`] describe the
    /// replayed work only.
    ///
    /// Errors — without touching the handle — if the slot is out of range,
    /// the delta's schema is not a permutation of the slot's
    /// ([`FaqError::FactorSchemaMismatch`]), a key falls outside the query's
    /// domains, or the operator is unknown to the domain.
    pub fn apply_delta(
        &mut self,
        slot: usize,
        delta: &DeltaFactor<D::E>,
    ) -> Result<FaqOutput<D::E>, FaqError> {
        self.apply_delta_with(slot, delta, AggId(0))
    }

    /// [`PreparedQuery::apply_delta`] with an explicit ⊕-operator for merging
    /// delta values into existing rows.
    pub fn apply_delta_with(
        &mut self,
        slot: usize,
        delta: &DeltaFactor<D::E>,
        op: AggId,
    ) -> Result<FaqOutput<D::E>, FaqError> {
        // Validate everything BEFORE mutating: slot, operator, schema, keys.
        let current = self.slot_factor(slot)?;
        check_delta(&self.query.domain, &self.query.domains, slot, current, delta, op)?;
        // The merge (including the spilled splice path, which does chunk I/O
        // on this thread) runs BEFORE anything is installed: an abort here
        // surfaces as a typed error with the handle — factor and cached
        // trace — completely untouched.
        let (merged, ranges) =
            merge_delta(&self.query.domain, &self.plan.policy, current, delta, op)?;
        self.install_merged(slot, merged, ranges)
    }

    /// The install half of [`PreparedQuery::apply_delta`]: put an
    /// already-merged factor into `slot` and replay the elimination steps the
    /// change reaches, returning the query's new output.
    ///
    /// `apply_delta` is "validate, merge, then this". A caller that keeps the
    /// same relation in several handles — a serving writer with one catalog
    /// slot read by many registered queries — merges the delta *once*
    /// ([`DeltaFactor::apply_to`]) and installs the result in each: `merged`
    /// is a handle on one shared body, so the listing is assembled once and
    /// its trie index is built once, by whichever handle asks first.
    ///
    /// # Contract
    ///
    /// `merged` is the slot's current factor with a delta applied: same
    /// column order, keys inside the query's domains, and different from the
    /// current factor only in rows whose first-column value lies inside
    /// `ranges` (sorted, disjoint, half-open — what `apply_to` reports; empty
    /// means nothing changed, and the cached output is served without a
    /// replay). The column order is checked; the rest is the caller's
    /// promise, asserted in debug builds for in-memory factors.
    ///
    /// Errors — a slot out of range, a schema or column-order mismatch, a
    /// failed priming run — leave the handle untouched. A failure *during*
    /// replay rolls the factor back and drops the replay cache (the next
    /// delta re-primes it).
    pub fn install_merged(
        &mut self,
        slot: usize,
        merged: Factor<D::E>,
        ranges: Vec<(u32, u32)>,
    ) -> Result<FaqOutput<D::E>, FaqError> {
        let current = self.slot_factor(slot)?;
        check_slot_schema(slot, current.schema(), merged.schema())?;
        if current.schema() != merged.schema() {
            return Err(FaqError::BadOrdering(format!(
                "factor slot {slot}: merged columns {:?} are not in the prepared order {:?}",
                merged.schema(),
                current.schema()
            )));
        }
        debug_assert!(
            crate::delta::differs_only_within(current, &merged, &ranges),
            "merged factor differs from slot {slot} outside the reported ranges"
        );

        let policy = &self.plan.policy;
        if self.cache.is_none() {
            self.cache = Some(DeltaCache::prime(&self.query, &self.plan.order, policy)?);
        }
        if ranges.is_empty() {
            // The batch was a no-op (e.g. deletes of absent keys): serve the
            // cached output, no replay.
            let cache = self.cache.as_ref().expect("cache primed above");
            return Ok(FaqOutput {
                factor: cache.output_factor().clone(),
                stats: ElimStats::default(),
            });
        }
        // Replay mutates the cached nodes in place, so a mid-replay failure
        // cannot leave the cache consistent: roll the factor back and drop
        // the cache (the next delta re-primes it with a fresh kept run).
        // Earlier failure points never reach this.
        let prev = std::mem::replace(&mut self.query.factors[slot], merged);
        let cache = self.cache.as_mut().expect("cache primed above");
        let replayed = with_abort_guard(policy, || cache.replay(&self.query, policy, slot, ranges));
        if replayed.is_err() {
            self.query.factors[slot] = prev;
            self.cache = None;
        }
        replayed
    }

    /// The plan this handle executes.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// The prepared query (factors aligned to the plan order).
    pub fn query(&self) -> &FaqQuery<D> {
        &self.query
    }
}

/// Cloning a prepared handle yields an independent serving replica in
/// `O(number of factors)`: the aligned factors are handles on shared,
/// immutable bodies ([`Factor`]'s `Clone` copies no row, value or index) and
/// the plan is `Arc`-shared, so nothing proportional to the data is copied.
/// The incremental-replay trace is **not** carried over — it is per-handle
/// state that the replica's first [`PreparedQuery::apply_delta`] re-primes
/// lazily. This is the publish primitive of epoch-snapshot serving: a writer
/// advances its master handle via deltas (each replacing one factor handle,
/// never writing through it), then takes read-only replicas for the next
/// epoch; replicas of older epochs keep the bodies they were taken with.
impl<D: AggDomain + Clone> Clone for PreparedQuery<D> {
    fn clone(&self) -> PreparedQuery<D> {
        PreparedQuery { query: self.query.clone(), plan: Arc::clone(&self.plan), cache: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::insideout::Step;
    use crate::query::VarAgg;
    use faq_factor::Domains;
    use faq_hypergraph::v;
    use faq_semiring::{CountDomain, RealDomain};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn triangle_query(seed: u64, rows: usize) -> FaqQuery<CountDomain> {
        let mut r = StdRng::seed_from_u64(seed);
        let d = 12u32;
        let mut mk = |a: u32, b: u32| {
            let mut tuples = std::collections::BTreeMap::new();
            for _ in 0..rows {
                tuples.insert(vec![r.gen_range(0..d), r.gen_range(0..d)], r.gen_range(1..4u64));
            }
            Factor::new(vec![v(a), v(b)], tuples.into_iter().collect()).unwrap()
        };
        FaqQuery::new(
            CountDomain,
            Domains::uniform(3, d),
            vec![v(0)],
            vec![
                (v(1), VarAgg::Semiring(CountDomain::SUM)),
                (v(2), VarAgg::Semiring(CountDomain::MAX)),
            ],
            vec![mk(0, 1), mk(1, 2), mk(0, 2)],
        )
        .unwrap()
    }

    /// Example 5.6: `max₁ max₂ Π₃ Σ₄ max₅ max₆ ψ15 ψ25 ψ134 ψ236`, `{0,1}`-valued.
    fn example_5_6() -> FaqQuery<RealDomain> {
        let fac = |schema: &[u32], rows: &[&[u32]]| {
            let tuples = rows.iter().map(|r| (r.to_vec(), 1.0f64)).collect();
            Factor::new(schema.iter().map(|&i| v(i)).collect(), tuples).unwrap()
        };
        let max = VarAgg::Semiring(RealDomain::MAX);
        FaqQuery::new(
            RealDomain,
            Domains::new(vec![2, 3, 3, 2, 3, 3, 3]),
            vec![],
            vec![
                (v(1), max),
                (v(2), max),
                (v(3), VarAgg::Product),
                (v(4), VarAgg::Semiring(RealDomain::SUM)),
                (v(5), max),
                (v(6), max),
            ],
            vec![
                fac(&[1, 5], &[&[0, 1], &[1, 1], &[2, 0]]),
                fac(&[2, 5], &[&[0, 1], &[1, 0], &[2, 1]]),
                fac(&[1, 3, 4], &[&[0, 0, 1], &[0, 1, 1], &[1, 0, 2], &[1, 1, 2]]),
                fac(&[2, 3, 6], &[&[0, 0, 0], &[0, 1, 0], &[2, 0, 1], &[2, 1, 1]]),
            ],
        )
        .unwrap()
    }

    /// `ϕ(x0, x1) = Σ₂ max₃ Π₄ ψ02 ψ123 ψ34 ψ01` over counting.
    fn mixed_two_free() -> FaqQuery<CountDomain> {
        let mut r = StdRng::seed_from_u64(11);
        let mut mk = |schema: &[u32]| {
            Factor::dense(
                schema.iter().map(|&i| v(i)).collect(),
                &vec![3; schema.len()],
                |_| r.gen_range(0..3u64),
                |&x| x == 0,
            )
            .unwrap()
        };
        FaqQuery::new(
            CountDomain,
            Domains::uniform(5, 3),
            vec![v(0), v(1)],
            vec![
                (v(2), VarAgg::Semiring(CountDomain::SUM)),
                (v(3), VarAgg::Semiring(CountDomain::MAX)),
                (v(4), VarAgg::Product),
            ],
            vec![mk(&[0, 2]), mk(&[1, 2, 3]), mk(&[3, 4]), mk(&[0, 1])],
        )
        .unwrap()
    }

    /// A plan along `order`, built as [`Planner::plan`] builds the winner's.
    fn plan_along<D: AggDomain>(q: &FaqQuery<D>, order: &[Var]) -> QueryPlan {
        let h = q.hypergraph();
        let sizes: Vec<u64> = q.factors.iter().map(|f| f.len() as u64).collect();
        QueryPlan {
            order: order.to_vec(),
            width: None,
            est_cost: 0.0,
            steps: CostModel::new(&h, &sizes, q).step_plans(q, order),
            policy: ExecPolicy::sequential(),
        }
    }

    /// The compiled step list is what the plan's steps and a run's statistics
    /// are both indexed by: `QueryPlan.steps[i]` is the i-th variable-
    /// eliminating join step, and `ElimStats.steps` follows the compiled
    /// order step for step (the pairing `est_rows` ↔ `rows_out` relies on).
    fn assert_plan_and_stats_follow_program<D: AggDomain + Clone + Sync>(q: &FaqQuery<D>) {
        let planned = Planner::sequential().plan(q).unwrap();
        for plan in [plan_along(q, &q.ordering()), planned] {
            let prog = compile(q, &plan.order, OutputForm::Listing);
            let compiled: Vec<(Var, &[Var])> = prog
                .joins()
                .filter_map(|js| js.var.map(|var| (var, js.join_order.as_slice())))
                .collect();
            let in_plan: Vec<(Var, &[Var])> =
                plan.steps.iter().map(|s| (s.var, s.u_vars.as_slice())).collect();
            assert_eq!(compiled, in_plan, "order {:?}", plan.order);

            let eliminated: Vec<Var> = prog.steps[..prog.steps.len() - 1]
                .iter()
                .map(|step| match step {
                    Step::Join(js) => js.var.expect("only the last join is the output join"),
                    Step::Scalar { var, .. } | Step::Product { var, .. } => *var,
                })
                .collect();
            let prepared = PreparedQuery::with_plan(q, Arc::new(plan)).unwrap();
            let out = prepared.evaluate().unwrap();
            let ran: Vec<Var> = out.stats.steps.iter().map(|s| s.var).collect();
            assert_eq!(ran, eliminated);
            assert_eq!(out.factor, crate::naive::naive_eval(q));
        }
    }

    #[test]
    fn plan_steps_and_run_stats_follow_the_compiled_program() {
        assert_plan_and_stats_follow_program(&example_5_6());
        assert_plan_and_stats_follow_program(&mixed_two_free());
    }

    /// A pairwise model over `edges` with dense `4 × 4` potentials: variable
    /// 0 free, the rest under `agg` — the benchmark's grids and tree.
    fn pairwise(n: u32, agg: VarAgg, edges: &[(u32, u32)]) -> FaqQuery<RealDomain> {
        let mut r = StdRng::seed_from_u64(23);
        let factors = edges
            .iter()
            .map(|&(a, b)| {
                let value = |_: &[u32]| r.gen_range(0.1..1.0f64);
                Factor::dense(vec![v(a), v(b)], &[4, 4], value, |&x| x == 0.0).unwrap()
            })
            .collect();
        let bound = (1..n).map(|i| (v(i), agg)).collect();
        FaqQuery::new(RealDomain, Domains::uniform(n as usize, 4), vec![v(0)], bound, factors)
            .unwrap()
    }

    fn grid(w: u32, h: u32) -> FaqQuery<RealDomain> {
        let right = (0..h).flat_map(|y| (0..w - 1).map(move |x| (y * w + x, y * w + x + 1)));
        let down = (0..h - 1).flat_map(|y| (0..w).map(move |x| (y * w + x, (y + 1) * w + x)));
        let edges: Vec<(u32, u32)> = right.chain(down).collect();
        pairwise(w * h, VarAgg::Semiring(RealDomain::SUM), &edges)
    }

    /// Pricing an ordering by state gives, bit for bit, the sum over the
    /// join steps of its compiled program — for every candidate a planning
    /// pass scores, through one model whose memo the earlier candidates
    /// filled.
    fn assert_costs_follow_the_compiled_program<D: AggDomain>(q: &FaqQuery<D>, at_least: usize) {
        let h = q.hypergraph();
        let sizes: Vec<u64> = q.factors.iter().map(|f| f.len() as u64).collect();
        let mut candidates = Planner::sequential().candidates(q, &q.shape());
        assert!(candidates.len() >= at_least, "{q:?}: {} candidates", candidates.len());
        candidates.push(q.ordering());
        let mut model = CostModel::new(&h, &sizes, q);
        for sigma in &candidates {
            let compiled: f64 = compile(q, sigma, OutputForm::Listing)
                .joins()
                .map(|js| model.est_rows(&js.join_order))
                .sum();
            let by_state = model.ordering_cost(sigma, q.free.len());
            assert_eq!(by_state.to_bits(), compiled.to_bits(), "{sigma:?}");
        }
    }

    #[test]
    fn state_keyed_costs_equal_compiled_costs_on_every_candidate() {
        assert_costs_follow_the_compiled_program(&grid(3, 3), 700);
        assert_costs_follow_the_compiled_program(&grid(2, 3), 100);
        let heap: Vec<(u32, u32)> = (1..10).map(|i| ((i - 1) / 2, i)).collect();
        let tree = pairwise(10, VarAgg::Semiring(RealDomain::MAX), &heap);
        assert_costs_follow_the_compiled_program(&tree, 700);
        assert_costs_follow_the_compiled_program(&example_5_6(), 2);
        assert_costs_follow_the_compiled_program(&mixed_two_free(), 0);
        assert_costs_follow_the_compiled_program(&triangle_query(1, 80), 0);
    }

    #[test]
    fn plan_is_equivalent_and_executable() {
        let q = triangle_query(1, 80);
        let plan = Planner::sequential().plan(&q).unwrap();
        assert!(q.check_ordering(&plan.order).is_ok());
        assert!(crate::evo::is_equivalent_ordering(&q.shape(), &plan.order));
        assert!(plan.est_cost.is_finite() && plan.est_cost > 0.0);
        assert!(!plan.steps.is_empty());
        let prepared = Planner::sequential().prepare(&q).unwrap();
        assert_eq!(
            prepared.evaluate().unwrap().factor,
            Engine::sequential().evaluate(&q).unwrap().factor
        );
    }

    /// Delta replay runs under the plan's controls: once the plan's token
    /// fires, `apply_delta` fails as `evaluate` does, rolls the factor back
    /// and drops the replay cache.
    #[test]
    fn cancelled_plan_stops_delta_replay() {
        let token = crate::exec::CancelToken::new();
        let mut planner = Planner::sequential();
        planner.policy = ExecPolicy::sequential().cancel_token(token.clone());
        let mut p = planner.prepare(&triangle_query(3, 30)).unwrap();
        let delta = |a| DeltaFactor::inserts(vec![v(0), v(1)], vec![(vec![a, 1], 2u64)]).unwrap();
        p.apply_delta(0, &delta(0)).unwrap();
        token.cancel();
        let before = p.query().factors[0].clone();
        assert!(matches!(p.apply_delta(0, &delta(1)), Err(FaqError::Cancelled)));
        assert!(p.query().factors[0].shares_body(&before), "the factor is rolled back");
        assert!(p.cache.is_none(), "the replay cache is dropped");
        assert!(matches!(p.evaluate(), Err(FaqError::Cancelled)));
    }

    #[test]
    fn prepared_inputs_are_aligned_and_indexed() {
        let q = triangle_query(2, 50);
        let prepared = Planner::sequential().prepare(&q).unwrap();
        for fac in &prepared.query().factors {
            assert!(fac.trie_if_built().is_some(), "prepare must index every input");
            let aligned: Vec<Var> = prepared
                .plan()
                .order
                .iter()
                .copied()
                .filter(|v| fac.schema().contains(v))
                .collect();
            assert_eq!(fac.schema(), aligned.as_slice(), "inputs follow the plan order");
        }
    }

    #[test]
    fn update_factor_serves_fresh_values() {
        let q = triangle_query(3, 40);
        let mut prepared = Planner::sequential().prepare(&q).unwrap();
        let q2 = triangle_query(4, 40);
        for (i, fac) in q2.factors.iter().enumerate() {
            prepared.update_factor(i, fac.clone()).unwrap();
        }
        assert_eq!(
            prepared.evaluate().unwrap().factor,
            Engine::sequential().evaluate(&q2).unwrap().factor
        );
        // Schema mismatch is rejected and leaves the handle intact.
        let bad = Factor::new(vec![v(0)], vec![(vec![1], 1u64)]).unwrap();
        assert!(prepared.update_factor(0, bad).is_err());
        assert_eq!(
            prepared.evaluate().unwrap().factor,
            Engine::sequential().evaluate(&q2).unwrap().factor
        );
        // Out-of-domain values are rejected with a rollback.
        let out = Factor::new(vec![v(0), v(1)], vec![(vec![99, 0], 1u64)]).unwrap();
        assert!(matches!(prepared.update_factor(0, out), Err(FaqError::ValueOutOfDomain { .. })));
        assert_eq!(
            prepared.evaluate().unwrap().factor,
            Engine::sequential().evaluate(&q2).unwrap().factor
        );
    }

    #[test]
    fn cost_model_prefers_small_intermediates() {
        // ψ0(x1) tiny, ψ1(x1,x2) huge: eliminating x2 first joins only the
        // huge factor; the AGM-weighted model must not cost the tiny one in.
        let mut r = StdRng::seed_from_u64(8);
        let small = Factor::new(vec![v(1)], vec![(vec![0], 1.0f64), (vec![1], 2.0)]).unwrap();
        let mut tuples = std::collections::BTreeMap::new();
        for _ in 0..400 {
            tuples.insert(vec![r.gen_range(0..30u32), r.gen_range(0..30u32)], 1.0f64);
        }
        let big = Factor::new(vec![v(1), v(2)], tuples.into_iter().collect()).unwrap();
        let q = FaqQuery::new(
            RealDomain,
            Domains::uniform(3, 30),
            vec![],
            vec![
                (v(1), VarAgg::Semiring(RealDomain::SUM)),
                (v(2), VarAgg::Semiring(RealDomain::SUM)),
            ],
            vec![small, big],
        )
        .unwrap();
        let plan = Planner::sequential().plan(&q).unwrap();
        assert!(plan.est_cost <= 2.0 * 400.0 + 8.0, "cost {} ignores data", plan.est_cost);
        let prepared = Planner::sequential().prepare(&q).unwrap();
        assert_eq!(
            prepared.evaluate().unwrap().factor,
            Engine::sequential().evaluate(&q).unwrap().factor
        );
    }

    #[test]
    fn planned_threads_match_sequential_bitwise() {
        let q = triangle_query(9, 400);
        let seq = Engine::sequential().evaluate(&q).unwrap();
        for threads in [1usize, 2, 4] {
            let mut planner = Planner::with_threads(threads);
            planner.policy.min_chunk_rows = 1; // chunk whenever a step can be cut
            let prepared = planner.prepare(&q).unwrap();
            assert_eq!(prepared.evaluate().unwrap().factor, seq.factor, "threads {threads}");
        }
    }
}
