//! InsideOut — Algorithm 1 of the paper, as one compiled step list.
//!
//! Variable elimination, innermost aggregate first. For a semiring aggregate
//! `⊕⁽ᵏ⁾` the intermediate factor
//!
//! ```text
//! ψ'_{U_k−{k}} = ⊕⁽ᵏ⁾_{x_k} ( ⊗_{S∈∂(k)} ψ_S ) ⊗ ( ⊗_{S∉∂(k), S∩U_k≠∅} ψ_{S/U_k} )
//! ```
//!
//! (paper eq. (7)) is computed by one OutsideIn multiway join over `U_k`. Its
//! fold order is `U_k` by σ, the eliminated variable last, so the
//! `⊕⁽ᵏ⁾`-fold groups consecutive bindings. The join kernel binds `U_k` in
//! that order too, unless some prefix of it is disconnected in the step's
//! input hypergraph: no input links the prefix's variables, and the kernel
//! would enumerate their product before it seeks the variable that joins
//! them (Example 5.6's x5 step walks x1 × x2). Such a step's kernel binds
//! the eliminated variable first ([`kernel_order`]; §5.1.1 lets OutsideIn
//! visit `U_k` in any order), and its matches are sorted into fold order
//! before the fold (`exec::grouped_join`). The fold meets the same groups
//! and the same `⊗` products in the same order, so the output is
//! bit-identical. The indicator projections `ψ_{S/U_k}` join as filters,
//! giving the simultaneous-semijoin effect that caps the intermediate at the
//! AGM bound of `U_k`.
//!
//! Product aggregates follow eq. (8): factors containing the variable are
//! product-marginalized individually; the rest are powered point-wise by
//! `|Dom(X_k)|` via repeated squaring, skipping `⊗`-idempotent values
//! (Definition 5.2).
//!
//! Free variables are then eliminated under the `01-OR` output semiring
//! (paper §5.2.3, eqs. (10)–(12)): each step records a *guard* `ψ_{U_k}` — the
//! join of the indicator projections of everything touching `U_k` — and the
//! final OutsideIn joins the surviving value factors with all guards, so every
//! backtracking branch extends to a real output tuple (Yannakakis' algorithm
//! re-emerges; the output phase costs `O~(‖ϕ‖)`).
//!
//! A listing skips that pass when it would prune nothing: when the innermost
//! free step's `U` holds every free variable and every live edge lies inside
//! it — a full conjunctive query, say — that step's join already enumerates
//! exactly the output's support, so it *is* the output join ([`output_fuses`]).
//! It is emitted as the output step over `E_f`, with no filter and no trie,
//! and no guard is recorded. The output join multiplies the same value inputs
//! in the same order either way (a guard only ever contributes `1`), so every
//! semiring's output is bit-identical, `f64` included. The factorized output
//! (§8.4) enumerates with no dead branch only with every guard, so it always
//! compiles the guarded program ([`OutputForm`]).
//!
//! # One program, four readers
//!
//! Which factors a step joins, in which fold and kernel order, which survivors
//! join as lazy prefix filters and which as materialized projections, and
//! what schema the step writes are all decided by the factor schemas, the
//! aggregates and σ — no row is read to decide them. `compile` makes that
//! decision once, as a `Program`: a list of `Step`s over arena node ids (the
//! input factors first, then every factor a step writes). `exec_step`
//! executes one step. Everything else reads the list:
//!
//! * a fresh evaluation ([`crate::Engine::evaluate`],
//!   [`crate::PreparedQuery::evaluate`]) runs every step and drops each node
//!   after its last reader;
//! * [`crate::PreparedQuery::apply_delta`] keeps the nodes of that same run
//!   ([`crate::delta`]) and re-runs only the steps a change reaches — a fresh
//!   run is the replay in which every input is wholly dirty and no node is
//!   cached yet;
//! * [`run_elimination`], behind [`crate::output::FactorizedOutput`],
//!   compiles the factorized form — every guard recorded, nothing fused —
//!   and runs it stopped before the output step;
//! * the planner ([`crate::plan`]) reads the winning ordering's join steps —
//!   variable and join order — off the list. Its cost model prices the
//!   hundreds of orderings it compares without compiling them, from
//!   `incident_edges`, the split of the live edges that `compile` itself
//!   makes at every step.

use crate::delta::{narrowed_dirty, union_ranges, Dirty};
use crate::exec::{grouped_join, with_abort_guard, ExecPolicy};
use crate::query::{FaqError, FaqQuery, VarAgg};
use faq_factor::{fault, Factor};
use faq_hypergraph::Var;
use faq_join::{JoinInput, JoinStats};
use faq_semiring::{AggDomain, AggId, SemiringElem};

/// Per-elimination-step statistics.
///
/// A free variable whose step was fused into the output join (see the
/// module docs) has no `StepStat`: its join is the output join, and its work
/// is in [`ElimStats::output_join`].
#[derive(Debug, Clone)]
pub struct StepStat {
    /// The eliminated variable.
    pub var: Var,
    /// Whether the step was a semiring (fold) or product (shrink) step; free
    /// variables report as semiring (they run under the 01-OR semiring).
    pub semiring: bool,
    /// `|U_k|` — the number of variables in the step's sub-join.
    pub u_size: usize,
    /// Rows of the intermediate factor produced.
    pub rows_out: usize,
    /// Operation statistics of the step's factor work.
    ///
    /// Semiring / free steps report the sub-join's search counters. Product
    /// steps (eq. (8)) run no join; they report their oracle-model work in
    /// the same currency so [`ElimStats::total_seeks`] covers every step:
    /// `seeks` = listing rows read (marginalization group scans plus
    /// point-wise powering reads), `nodes` = rows written across the
    /// rewritten factors, `matches` = rows of the largest marginalized
    /// factor. After a delta only the factors the step actually rewrote
    /// count.
    pub join: Option<JoinStats>,
}

/// Statistics of a full InsideOut run.
#[derive(Debug, Clone, Default)]
pub struct ElimStats {
    /// One entry per eliminated variable, in elimination order — except a
    /// free variable fused into the output join, which has none.
    pub steps: Vec<StepStat>,
    /// Statistics of the final output join (a fused free step's included).
    pub output_join: Option<JoinStats>,
    /// The largest intermediate factor produced (rows).
    pub max_intermediate: usize,
}

impl ElimStats {
    fn record(&mut self, s: StepStat) {
        self.max_intermediate = self.max_intermediate.max(s.rows_out);
        self.steps.push(s);
    }

    /// Total conditional-query / oracle-read operations across every step:
    /// sub-join seeks of semiring and free-variable steps, the listing reads
    /// of product steps (eq. (8) marginalization and powering — see
    /// [`StepStat::join`]), and the final output join's seeks.
    pub fn total_seeks(&self) -> u64 {
        self.steps.iter().filter_map(|s| s.join.map(|j| j.seeks)).sum::<u64>()
            + self.output_join.map(|j| j.seeks).unwrap_or(0)
    }
}

/// The result of an InsideOut run.
#[derive(Debug, Clone)]
pub struct FaqOutput<E: SemiringElem> {
    /// The output function over the free variables, in listing representation
    /// (nullary when the query has no free variables).
    pub factor: Factor<E>,
    /// Run statistics.
    pub stats: ElimStats,
}

impl<E: SemiringElem> FaqOutput<E> {
    /// The scalar value of a query with no free variables. `None` encodes the
    /// semiring zero (empty listing).
    pub fn scalar(&self) -> Option<&E> {
        assert_eq!(self.factor.arity(), 0, "scalar() requires a free-variable-free query");
        if self.factor.is_empty() {
            None
        } else {
            Some(self.factor.value(0))
        }
    }
}

/// Everything InsideOut has computed after the bound- and free-variable
/// elimination phases, i.e. the factorized form of the output (paper §8.4):
/// the surviving value factors `E_f` plus the guard factors `ψ_{U_k}`.
#[derive(Debug, Clone)]
pub(crate) struct EliminationArtifacts<E: SemiringElem> {
    /// The free variables in output order.
    pub free_order: Vec<Var>,
    /// The value factors remaining after bound-variable elimination.
    pub ef_edges: Vec<Factor<E>>,
    /// The guard factors recorded while eliminating the free variables.
    pub guards: Vec<Factor<E>>,
}

/// How a join step folds consecutive bindings of one group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FoldKind {
    /// `⊕⁽ᵒᵖ⁾`-fold of eq. (7); groups folding to zero are dropped.
    Semiring(AggId),
    /// Guard join (eqs. (10)–(11)): every binding is its own group, nothing
    /// is dropped.
    Guard,
    /// Final output join (eq. (12)): every binding its own group, zero
    /// products dropped.
    Output,
}

/// One filter input of a join step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum StepFilter {
    /// Lazy depth-capped prefix filter over `node`'s own trie: its first
    /// `depth` columns are exactly the columns surviving the indicator
    /// projection, already in join order.
    Prefix { node: usize, depth: usize },
    /// Materialized indicator projection: node `proj` is derived from
    /// `source` by this step, and refreshed whenever `source` is dirty.
    Proj { source: usize, proj: usize },
    /// Plain filter over `node` (the output join's guards).
    Plain { node: usize },
}

impl StepFilter {
    /// The node the join kernel reads.
    pub(crate) fn input_node(&self) -> usize {
        match *self {
            StepFilter::Prefix { node, .. } | StepFilter::Plain { node } => node,
            StepFilter::Proj { proj, .. } => proj,
        }
    }

    /// The node an earlier step (or the query) wrote.
    fn source_node(&self) -> usize {
        match *self {
            StepFilter::Proj { source, .. } => source,
            _ => self.input_node(),
        }
    }
}

/// A grouped join: a bound semiring step, a free-variable guard step, or the
/// final output join (which may be the innermost free step, fused).
#[derive(Debug, Clone)]
pub(crate) struct JoinStep {
    /// Eliminated variable; `None` for the final output join.
    pub(crate) var: Option<Var>,
    /// `U_k` by σ position; the eliminated variable is innermost in σ among
    /// the live variables, so it comes last. The fold groups, and the output
    /// schema, follow this order.
    pub(crate) join_order: Vec<Var>,
    /// The order the join kernel binds `U_k` in ([`kernel_order`]):
    /// `join_order`, or — where a prefix of `join_order` would make the
    /// kernel enumerate a cross product — the eliminated variable first. The
    /// inputs are aligned, and prefix filters chosen, against this order.
    pub(crate) kernel_order: Vec<Var>,
    /// Leading columns of `join_order` that key a fold group (and form the
    /// schema of `output`).
    pub(crate) group_arity: usize,
    pub(crate) fold: FoldKind,
    /// Value inputs, in edge order.
    pub(crate) values: Vec<usize>,
    /// Filter inputs, in edge order (after the values): cursor order is part
    /// of the engine's deterministic seek accounting.
    pub(crate) filters: Vec<StepFilter>,
    /// Node the join writes.
    pub(crate) output: usize,
    /// Guard steps only: the node of the reduced edge `ψ_{U_k − {k}}`, the
    /// indicator projection of `output` onto `join_order` minus its last
    /// variable.
    pub(crate) reduced: Option<usize>,
}

/// One step of the compiled elimination.
#[derive(Debug, Clone)]
pub(crate) enum Step {
    /// A grouped join.
    Join(JoinStep),
    /// A bound semiring variable in no live edge: `⊕⁽ᵒᵖ⁾` over `x_k` of an
    /// expression not involving `x_k` multiplies the query by the
    /// `|Dom|`-fold `⊕`-sum of `1` — a scalar that depends on no factor data.
    Scalar { var: Var, op: AggId, output: usize },
    /// A product-aggregate step (eq. (8)): every live edge is rewritten on
    /// its own, `(input, output)` node pairs.
    Product { var: Var, rewrites: Vec<(usize, usize)> },
}

impl Step {
    /// Every node the step reads: what earlier steps (or the query) wrote,
    /// plus the projections it materializes for itself.
    fn reads(&self) -> Vec<usize> {
        match self {
            Step::Scalar { .. } => Vec::new(),
            Step::Product { rewrites, .. } => rewrites.iter().map(|&(input, _)| input).collect(),
            Step::Join(js) => js
                .values
                .iter()
                .copied()
                .chain(js.filters.iter().flat_map(|f| [f.source_node(), f.input_node()]))
                .collect(),
        }
    }
}

/// σ compiled against a query's schemas: the steps of Algorithm 1 in
/// execution order, the final output join last.
#[derive(Debug, Clone)]
pub(crate) struct Program {
    pub(crate) steps: Vec<Step>,
    /// Arena size: the query's factors (node `i` is `q.factors[i]`, read by
    /// reference) followed by every node a step writes.
    pub(crate) nodes: usize,
}

impl Program {
    /// The join steps, in execution order.
    pub(crate) fn joins(&self) -> impl Iterator<Item = &JoinStep> {
        self.steps.iter().filter_map(|s| match s {
            Step::Join(js) => Some(js),
            _ => None,
        })
    }

    /// The final output join (eq. (12)): its values are `E_f`, its filters
    /// the guards (none when the innermost free step was fused into it).
    pub(crate) fn output_step(&self) -> &JoinStep {
        match self.steps.last() {
            Some(Step::Join(js)) => js,
            _ => unreachable!("compile ends every program with the output join"),
        }
    }
}

/// The depth `k` at which joining `schema[..k]` as a lazy prefix filter is
/// equivalent to materializing the indicator projection onto a step's `U`,
/// joined in `kernel` order: the schema columns surviving the projection must
/// be exactly `schema[..k]` (a prefix), already in `kernel`-relative order.
/// `None` otherwise — the step materializes the projection.
fn prefix_filter_depth(schema: &[Var], kernel: &[Var]) -> Option<usize> {
    let pos = |v: &Var| kernel.iter().position(|o| o == v);
    let k = schema.iter().take_while(|v| pos(v).is_some()).count();
    if k == 0 || schema[k..].iter().any(|v| pos(v).is_some()) {
        return None; // surviving columns are not a schema prefix
    }
    let in_order = schema[..k].windows(2).all(|w| pos(&w[0]) < pos(&w[1]));
    in_order.then_some(k)
}

/// `∂(var)` among the live `edges` — `(node, schema)` pairs — the nodes of
/// the rest, and `U = ∪ ∂(var)`: the variables of the incident schemas, each
/// once, in the order met. Which edges a step joins and what its `U`-set is
/// are decided here and nowhere else: [`compile`] sorts `U` by σ into the
/// step's join order, and the planner's cost model ([`crate::plan`]) prices
/// the same `U` without compiling anything.
pub(crate) fn incident_edges<'a>(
    edges: impl Iterator<Item = (usize, &'a [Var])>,
    var: Var,
) -> (Vec<usize>, Vec<usize>, Vec<Var>) {
    let (mut incident, mut rest, mut u) = (Vec::new(), Vec::new(), Vec::new());
    for (node, schema) in edges {
        if schema.contains(&var) {
            incident.push(node);
            for &v in schema {
                if !u.contains(&v) {
                    u.push(v);
                }
            }
        } else {
            rest.push(node);
        }
    }
    (incident, rest, u)
}

/// The order a step's kernel binds its `U`, given `join_order` (`U` by σ,
/// `var` last) and `inputs`, the schemas of the step's value and filter
/// inputs. It is `join_order` when every prefix of it is connected in the
/// step's input hypergraph restricted to `U` — each variable shares an input
/// with an earlier one. Otherwise the kernel would enumerate the product of
/// the prefix's components before it binds the variable that links them
/// (System R's "no Cartesian product before a join"), and the order is `var`
/// followed by the rest of `join_order`: every value input holds `var`, so
/// each later variable shares an input with it, and that order is also the
/// one that takes, after `var`, the earliest `join_order` variable sharing an
/// input with those placed so far. Read off schemas only, like the rest of
/// [`compile`].
fn kernel_order(join_order: &[Var], var: Var, inputs: &[&[Var]]) -> Vec<Var> {
    let linked = |a: &Var, b: &Var| inputs.iter().any(|s| s.contains(a) && s.contains(b));
    let connected =
        (1..join_order.len()).all(|i| join_order[..i].iter().any(|w| linked(w, &join_order[i])));
    if connected {
        return join_order.to_vec();
    }
    std::iter::once(var).chain(join_order.iter().copied().filter(|&v| v != var)).collect()
}

/// Which output representation a compiled program builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OutputForm {
    /// The listing of `ϕ` (eq. (12)). When [`output_fuses`] holds, the
    /// innermost free step is the output join and no guard is recorded.
    Listing,
    /// The factorized output of §8.4: every guard is recorded, because its
    /// enumeration visits no dead branch only with all of them.
    Factorized,
}

/// Whether the innermost free variable's step, over the `live` edge schemas
/// left once every bound variable is gone, already is the output join: every
/// free variable lies in some live edge, and every live edge lies inside the
/// step's `U`. Its join then enumerates exactly the support of the output
/// (a full conjunctive query's), and the semijoin pass of the guards prunes
/// nothing the output join would not prune itself. A free variable no factor
/// constrains keeps the guarded program. [`compile`] and the planner's cost
/// model ([`crate::plan`]) both decide fusion here.
pub(crate) fn output_fuses<'a>(
    live: impl Iterator<Item = &'a [Var]> + Clone,
    free: &[Var],
) -> bool {
    let Some(&inner) = free.last() else { return false };
    // `v ∈ U`: some live edge holds both `inner` and `v`.
    let in_u = |v: &Var| live.clone().any(|s| s.contains(&inner) && s.contains(v));
    let constrained = free.iter().all(|v| live.clone().any(|s| s.contains(v)));
    let covered = live.clone().all(|s| s.iter().all(in_u));
    constrained && covered
}

/// Compile Algorithm 1 along `sigma` (a checked ordering of `q`): one walk
/// over σ, innermost variable first, with the three branches of the paper's
/// loop — semiring step eq. (7), product step eq. (8), free-variable guard
/// eqs. (10)–(11) — and the output join eq. (12), fused with the innermost
/// free step when `form` is a listing and [`output_fuses`] holds.
///
/// Reads the factor *schemas*, the free count and the aggregates only — no
/// row.
pub(crate) fn compile<D: AggDomain>(q: &FaqQuery<D>, sigma: &[Var], form: OutputForm) -> Program {
    compile_with(q, sigma, form, kernel_order)
}

/// Chooses a step's kernel order from its join order, eliminated variable
/// and input schemas, as [`kernel_order`] does.
type KernelOrder = fn(&[Var], Var, &[&[Var]]) -> Vec<Var>;

/// [`compile`] with the step kernel orders chosen by `order_kernel`.
fn compile_with<D: AggDomain>(
    q: &FaqQuery<D>,
    sigma: &[Var],
    form: OutputForm,
    order_kernel: KernelOrder,
) -> Program {
    let f = q.free.len();
    let pos = |v: Var| sigma.iter().position(|&s| s == v).expect("var in sigma");
    // Schema of every node so far, and the nodes of the current edge set.
    let mut schemas: Vec<Vec<Var>> = q.factors.iter().map(|fac| fac.schema().to_vec()).collect();
    let mut live: Vec<usize> = (0..schemas.len()).collect();
    let mut steps: Vec<Step> = Vec::with_capacity(sigma.len() + 1);

    // The live edges split around `var`, and U_k by σ position. Every
    // variable after `var` in σ is already gone from the live edges, so the
    // eliminated variable sorts last.
    let split_live = |schemas: &[Vec<Var>], live: &[usize], var: Var| {
        let edges = live.iter().map(|&i| (i, schemas[i].as_slice()));
        let (incident, rest, mut join_order) = incident_edges(edges, var);
        join_order.sort_by_key(|&v| pos(v));
        (incident, rest, join_order)
    };
    // The kernel order of the step eliminating `var` over the `live` edges —
    // its value and filter inputs; an edge outside U_k links nothing.
    let kernel_of = |schemas: &[Vec<Var>], live: &[usize], join_order: &[Var], var: Var| {
        let inputs: Vec<&[Var]> = live.iter().map(|&i| schemas[i].as_slice()).collect();
        order_kernel(join_order, var, &inputs)
    };
    // The indicator projections `ψ_{S/U_k}` of `edges` overlapping U_k, in
    // edge order: lazy wherever the surviving columns form a prefix that
    // follows the kernel order, a materialized projection (a fresh node)
    // otherwise.
    let filters_of = |schemas: &mut Vec<Vec<Var>>, edges: &[usize], kernel: &[Var]| {
        let mut filters: Vec<StepFilter> = Vec::new();
        for &node in edges {
            if !schemas[node].iter().any(|v| kernel.contains(v)) {
                continue;
            }
            filters.push(match prefix_filter_depth(&schemas[node], kernel) {
                Some(depth) => StepFilter::Prefix { node, depth },
                None => {
                    let kept =
                        schemas[node].iter().copied().filter(|v| kernel.contains(v)).collect();
                    schemas.push(kept);
                    StepFilter::Proj { source: node, proj: schemas.len() - 1 }
                }
            });
        }
        filters
    };

    // Bound variables, innermost (last in σ) first.
    for k in (f..sigma.len()).rev() {
        let var = sigma[k];
        match q.agg_of(var).expect("bound variable has an aggregate") {
            VarAgg::Semiring(op) => {
                let (incident, rest, join_order) = split_live(&schemas, &live, var);
                let kernel_order = kernel_of(&schemas, &live, &join_order, var);
                live = rest;
                if incident.is_empty() {
                    steps.push(Step::Scalar { var, op, output: schemas.len() });
                    schemas.push(Vec::new());
                } else {
                    let filters = filters_of(&mut schemas, &live, &kernel_order);
                    let group_arity = join_order.len() - 1;
                    schemas.push(join_order[..group_arity].to_vec());
                    steps.push(Step::Join(JoinStep {
                        var: Some(var),
                        join_order,
                        kernel_order,
                        group_arity,
                        fold: FoldKind::Semiring(op),
                        values: incident,
                        filters,
                        output: schemas.len() - 1,
                        reduced: None,
                    }));
                }
                live.push(schemas.len() - 1);
            }
            VarAgg::Product => {
                // Marginalization drops the variable's column, powering keeps
                // the schema.
                let mut rewrites: Vec<(usize, usize)> = Vec::with_capacity(live.len());
                for node in &mut live {
                    let kept = schemas[*node].iter().copied().filter(|&v| v != var).collect();
                    schemas.push(kept);
                    rewrites.push((*node, schemas.len() - 1));
                    *node = schemas.len() - 1;
                }
                steps.push(Step::Product { var, rewrites });
            }
        }
    }

    // Free variables under the 01-OR semiring, recording guards. Every live
    // edge touching U_k joins the guard as a filter, so every match's value
    // is `1` and the join lists the support of `ψ_{U_k}`. A listing whose
    // innermost free step already spans every live edge records none: that
    // step's join *is* the output join below.
    let ef = live.clone();
    let free = &sigma[..f];
    let fused = form == OutputForm::Listing
        && output_fuses(live.iter().map(|&i| schemas[i].as_slice()), free);
    let guarded = if fused { 0 } else { f };
    let mut guards: Vec<StepFilter> = Vec::new();
    for k in (0..guarded).rev() {
        let var = sigma[k];
        let (incident, rest, join_order) = split_live(&schemas, &live, var);
        if incident.is_empty() {
            continue; // free variable constrained by nothing
        }
        let kernel_order = kernel_of(&schemas, &live, &join_order, var);
        let filters = filters_of(&mut schemas, &live, &kernel_order);
        let output = schemas.len();
        schemas.push(join_order.clone());
        schemas.push(join_order[..join_order.len() - 1].to_vec());
        guards.push(StepFilter::Plain { node: output });
        // E_{k−1} = (E_k − ∂(k)) ∪ {U_k − {k}}.
        live = rest;
        live.push(output + 1);
        steps.push(Step::Join(JoinStep {
            var: Some(var),
            group_arity: join_order.len(),
            join_order,
            kernel_order,
            fold: FoldKind::Guard,
            values: Vec::new(),
            filters,
            output,
            reduced: Some(output + 1),
        }));
    }

    // The final OutsideIn over expression (12): the value factors of E_f
    // joined with all guards.
    schemas.push(free.to_vec());
    steps.push(Step::Join(JoinStep {
        var: None,
        join_order: free.to_vec(),
        kernel_order: free.to_vec(),
        group_arity: f,
        fold: FoldKind::Output,
        values: ef,
        filters: guards,
        output: schemas.len() - 1,
        reduced: None,
    }));
    Program { steps, nodes: schemas.len() }
}

/// The per-edge rewrite of a product-aggregate step (eq. (8)): marginalize
/// edges containing `var`, power the rest point-wise by `|Dom(X_k)|` (skipping
/// `⊗`-idempotent values — Definition 5.2 / Algorithm 1 line 17).
fn product_rewrite<D: AggDomain>(q: &FaqQuery<D>, var: Var, e: &Factor<D::E>) -> Factor<D::E> {
    let dom = &q.domain;
    if e.schema().contains(&var) {
        e.marginalize_product(var, q.domains.size(var), |a, b| dom.mul(a, b), |x| dom.is_zero(x))
    } else {
        let size = q.domains.size(var) as u64;
        e.map_values(
            |v| if dom.is_mul_idempotent(v) { v.clone() } else { dom.pow(v, size) },
            |x| dom.is_zero(x),
        )
    }
}

/// The `|Dom(X_k)|`-fold `⊕⁽ᵒᵖ⁾`-sum of `1` of a [`Step::Scalar`].
fn scalar_sum<D: AggDomain>(q: &FaqQuery<D>, var: Var, op: AggId) -> Factor<D::E> {
    let dom = &q.domain;
    let size = q.domains.size(var);
    let mut acc = dom.one();
    for _ in 1..size {
        acc = dom.add(op, &acc, &dom.one());
    }
    Factor::nullary((size > 0 && !dom.is_zero(&acc)).then_some(acc))
}

/// The node arena of one run: `None` until a step writes the node, and for
/// the query's own factors, which [`node`] reads by reference.
pub(crate) type Slots<E> = Vec<Option<Factor<E>>>;

fn node<'a, E: SemiringElem>(
    inputs: &'a [Factor<E>],
    slots: &'a [Option<Factor<E>>],
    i: usize,
) -> &'a Factor<E> {
    inputs.get(i).unwrap_or_else(|| slots[i].as_ref().expect("steps read nodes already written"))
}

/// Execute one step against the arena — the one place a compiled step turns
/// into factor work.
///
/// `dirty` says how each node differs from what `slots` cached: a step whose
/// inputs are all clean is skipped, a join whose dirty inputs all anchor on
/// its first join variable re-runs restricted to those ranges and splices the
/// slice into its cached output, and anything else re-runs in full (see
/// [`crate::delta`] for why that is sound). A fresh evaluation is the case
/// where every input is wholly dirty and nothing is cached, so every step
/// runs in full. Work performed is recorded in `stats`; skipped steps record
/// nothing.
fn exec_step<D: AggDomain + Sync>(
    q: &FaqQuery<D>,
    policy: &ExecPolicy,
    step: &Step,
    slots: &mut [Option<Factor<D::E>>],
    dirty: &mut [Dirty],
    stats: &mut ElimStats,
) -> Result<(), FaqError> {
    let dom = &q.domain;
    let js = match step {
        Step::Scalar { var, op, output } => {
            if slots[*output].is_none() {
                slots[*output] = Some(scalar_sum(q, *var, *op));
                dirty[*output] = Dirty::Full;
                stats.record(StepStat {
                    var: *var,
                    semiring: true,
                    u_size: 0,
                    rows_out: 1,
                    join: None,
                });
            }
            return Ok(());
        }
        Step::Product { var, rewrites } => {
            let (mut u_size, mut rows_out, mut touched) = (0usize, 0usize, false);
            let mut work = JoinStats::default();
            for &(input, output) in rewrites {
                if matches!(dirty[input], Dirty::Clean) {
                    continue;
                }
                touched = true;
                let e = node(&q.factors, slots, input);
                let rewritten = product_rewrite(q, *var, e);
                work.seeks += e.len() as u64;
                work.nodes += rewritten.len() as u64;
                if e.schema().contains(var) {
                    u_size = u_size.max(e.arity());
                    rows_out = rows_out.max(rewritten.len());
                }
                // Marginalization drops the (last) eliminated column and
                // powering is point-wise, so first-column ranges carry —
                // unless the output collapsed to a scalar.
                dirty[output] = match (&dirty[input], rewritten.arity()) {
                    (Dirty::Ranges(rs), a) if a > 0 => Dirty::Ranges(rs.clone()),
                    _ => narrowed_dirty(slots[output].as_ref(), &rewritten),
                };
                slots[output] = Some(rewritten);
            }
            if touched {
                work.matches = rows_out as u64;
                stats.record(StepStat {
                    var: *var,
                    semiring: false,
                    u_size,
                    rows_out,
                    join: Some(work),
                });
            }
            return Ok(());
        }
        Step::Join(js) => js,
    };

    // Materialize the projections whose source changed; a projection keeps
    // its source's leading column whenever that column survives, so range
    // dirtiness carries over.
    for f in &js.filters {
        if let StepFilter::Proj { source, proj } = *f {
            if matches!(dirty[source], Dirty::Clean) {
                continue;
            }
            let src = node(&q.factors, slots, source);
            let new_proj = src.indicator_projection(&js.kernel_order, dom.one());
            dirty[proj] = match &dirty[source] {
                Dirty::Ranges(rs)
                    if src.schema().first() == js.join_order.first() && new_proj.arity() > 0 =>
                {
                    Dirty::Ranges(rs.clone())
                }
                // Source ranges don't carry: diff against the cached
                // projection instead of pessimizing to `Full`.
                _ => narrowed_dirty(slots[proj].as_ref(), &new_proj),
            };
            slots[proj] = Some(new_proj);
        }
    }

    let in_nodes: Vec<usize> =
        js.values.iter().copied().chain(js.filters.iter().map(StepFilter::input_node)).collect();
    let cached = slots[js.output].is_some();
    if cached && in_nodes.iter().all(|&n| matches!(dirty[n], Dirty::Clean)) {
        return Ok(()); // cached output is still exact
    }

    // Restriction: legal only when there is a cached output to splice into,
    // the kernel binds the step's first join variable first, and every dirty
    // input's changes anchor on that variable. A step whose kernel runs in
    // its own order re-runs in full and its output is diffed below.
    let j0 = js.join_order.first();
    let streams = js.kernel_order == js.join_order;
    let mut restriction: Option<Vec<(u32, u32)>> =
        (cached && js.group_arity > 0 && streams).then(Vec::new);
    for &n in &in_nodes {
        let Some(acc) = restriction.as_mut() else { break };
        match &dirty[n] {
            Dirty::Clean => {}
            Dirty::Ranges(rs) if node(&q.factors, slots, n).schema().first() == j0 => {
                *acc = union_ranges(acc, rs);
            }
            _ => restriction = None,
        }
    }

    // Value inputs first, then filters.
    let mut inputs: Vec<JoinInput<'_, D::E>> = Vec::with_capacity(in_nodes.len());
    inputs.extend(js.values.iter().map(|&n| JoinInput::value(node(&q.factors, slots, n))));
    inputs.extend(js.filters.iter().map(|f| {
        let fac = node(&q.factors, slots, f.input_node());
        match *f {
            StepFilter::Prefix { depth, .. } => JoinInput::prefix_filter(fac, depth),
            _ => JoinInput::filter(fac),
        }
    }));
    let kind = js.fold;
    let (new_out, join_stats) = grouped_join(
        policy,
        &q.domains,
        &js.join_order,
        &js.kernel_order,
        &inputs,
        restriction.as_deref(),
        &dom.one(),
        js.group_arity,
        &|a, b| dom.mul(a, b),
        &|a, b| match kind {
            FoldKind::Semiring(op) => dom.add(op, a, b),
            _ => a.clone(),
        },
        &|x| !matches!(kind, FoldKind::Guard) && dom.is_zero(x),
    )?;
    drop(inputs);

    // The reduced edge of a guard step is a prefix projection of the guard,
    // so whatever anchors the guard's change anchors the reduced edge's too.
    let reduced = js.reduced.map(|rnode| {
        let vars = &js.join_order[..js.join_order.len() - 1];
        (rnode, new_out.indicator_projection(vars, dom.one()))
    });
    let is_output = matches!(js.fold, FoldKind::Output);
    for (n, new) in reduced.into_iter().chain(std::iter::once((js.output, new_out))) {
        (slots[n], dirty[n]) = match &restriction {
            // Whole-step recompute — but a delta anchored on a non-leading
            // column usually leaves most of this step's output unchanged.
            // Diff new against cached on the first column so downstream steps
            // can splice the changed ranges instead of recomputing in full
            // too (nothing reads the final output, so skip the diff there).
            None if is_output => (Some(new), Dirty::Full),
            None => {
                let d = narrowed_dirty(slots[n].as_ref(), &new);
                (Some(new), d)
            }
            // The recomputed slice covers exactly the dirty ranges; splice it
            // over the cached rows.
            Some(rs) => {
                let old = slots[n].as_ref().expect("restricted steps splice a cached node");
                (Some(old.splice_by_first(rs, &new)), Dirty::Ranges(rs.clone()))
            }
        };
    }

    let rows_out = slots[js.output].as_ref().map_or(0, Factor::len);
    match js.var {
        Some(var) => stats.record(StepStat {
            var,
            semiring: true,
            u_size: js.join_order.len(),
            rows_out,
            join: Some(join_stats),
        }),
        None => stats.output_join = Some(join_stats),
    }
    Ok(())
}

/// Run `prog.steps[..upto]` in order. With `keep` every node stays in `slots`
/// for later replays; without, a node is dropped after the last step of the
/// whole program that reads it, so a one-shot run holds only the live edges,
/// `E_f` and the guards.
pub(crate) fn run_steps<D: AggDomain + Sync>(
    q: &FaqQuery<D>,
    policy: &ExecPolicy,
    prog: &Program,
    upto: usize,
    slots: &mut [Option<Factor<D::E>>],
    dirty: &mut [Dirty],
    keep: bool,
) -> Result<ElimStats, FaqError> {
    let mut stats = ElimStats::default();
    let mut last_reader = vec![usize::MAX; prog.nodes];
    if !keep {
        for (k, step) in prog.steps.iter().enumerate() {
            for n in step.reads() {
                last_reader[n] = k;
            }
        }
    }
    for (k, step) in prog.steps[..upto].iter().enumerate() {
        // The join polls once per 1024 seeks *of one call*; a program of many
        // small steps would never poll, so every step boundary is a poll too.
        fault::checkpoint();
        exec_step(q, policy, step, slots, dirty, &mut stats)?;
        if !keep {
            for n in step.reads() {
                if last_reader[n] == k {
                    slots[n] = None;
                }
            }
        }
    }
    Ok(stats)
}

/// Compile `sigma` for `form` and run it from an empty arena with every
/// input wholly dirty — every step in full. A listing runs the output join
/// too; a factorized run stops before it. Returns the program, the arena and
/// the statistics.
pub(crate) fn run_fresh<D: AggDomain + Sync>(
    q: &FaqQuery<D>,
    sigma: &[Var],
    policy: &ExecPolicy,
    keep: bool,
    form: OutputForm,
) -> Result<(Program, Slots<D::E>, ElimStats), FaqError> {
    q.validate()?;
    q.check_ordering(sigma)?;
    let prog = compile(q, sigma, form);
    let (slots, stats) = run_program(q, &prog, policy, keep, form)?;
    Ok((prog, slots, stats))
}

/// Run a compiled `prog` from an empty arena with every input wholly dirty:
/// the body of [`run_fresh`].
fn run_program<D: AggDomain + Sync>(
    q: &FaqQuery<D>,
    prog: &Program,
    policy: &ExecPolicy,
    keep: bool,
    form: OutputForm,
) -> Result<(Slots<D::E>, ElimStats), FaqError> {
    let mut slots: Slots<D::E> = Vec::new();
    slots.resize_with(prog.nodes, || None);
    let mut dirty = vec![Dirty::Clean; prog.nodes];
    dirty[..q.factors.len()].fill(Dirty::Full);
    let upto = prog.steps.len() - usize::from(form == OutputForm::Factorized);
    let stats = with_abort_guard(policy, || {
        run_steps(q, policy, prog, upto, &mut slots, &mut dirty, keep)
    })?;
    Ok((slots, stats))
}

/// Evaluate `q` along `sigma` under `policy`: the one evaluation behind
/// [`crate::Engine`] and [`crate::PreparedQuery`].
pub(crate) fn evaluate<D: AggDomain + Sync>(
    q: &FaqQuery<D>,
    sigma: &[Var],
    policy: &ExecPolicy,
) -> Result<FaqOutput<D::E>, FaqError> {
    let (prog, mut slots, stats) =
        run_fresh(q, sigma, policy, /* keep */ false, OutputForm::Listing)?;
    let factor = slots[prog.output_step().output].take().expect("the output join ran");
    Ok(FaqOutput { factor, stats })
}

/// Eliminate the bound variables, then the free variables under the 01-OR
/// semiring, and stop before the output join: the factorized artifacts of
/// paper §8.4, every guard included (the program is never fused). Sequential; `sigma` carries the contract of
/// [`crate::Engine::evaluate_with_order`].
pub(crate) fn run_elimination<D: AggDomain + Sync>(
    q: &FaqQuery<D>,
    sigma: &[Var],
) -> Result<EliminationArtifacts<D::E>, FaqError> {
    let policy = ExecPolicy::sequential();
    let (prog, mut slots, _) =
        run_fresh(q, sigma, &policy, /* keep */ false, OutputForm::Factorized)?;
    let out = prog.output_step();
    // Inputs that survive to E_f are the caller's factors: copy those.
    let mut take = |n: usize| match q.factors.get(n) {
        Some(input) => input.clone(),
        None => slots[n].take().expect("kept for the output join"),
    };
    let ef_edges = out.values.iter().map(|&n| take(n)).collect();
    let guards = out.filters.iter().map(|f| take(f.input_node())).collect();
    Ok(EliminationArtifacts { free_order: out.join_order.clone(), ef_edges, guards })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use faq_factor::Domains;
    use faq_hypergraph::v;
    use faq_semiring::{BoolDomain, CountDomain, RealDomain};

    fn vars(ids: &[u32]) -> Vec<Var> {
        ids.iter().map(|&i| v(i)).collect()
    }

    fn fac_u(schema: &[u32], rows: &[(&[u32], u64)]) -> Factor<u64> {
        Factor::new(
            schema.iter().map(|&i| v(i)).collect(),
            rows.iter().map(|(r, val)| (r.to_vec(), *val)).collect(),
        )
        .unwrap()
    }

    /// Example 5.6 along its input order, derived by hand from Algorithm 1:
    /// which `U_k` each step joins, in which column order, which survivors
    /// need a materialized projection, and the kernel order of each step:
    /// the x5 step's `U = {x1, x2, x5}` has no input holding both x1 and x2,
    /// so its kernel binds x5 first.
    #[test]
    fn compile_example_5_6_input_order() {
        let fac = |schema: &[u32]| {
            Factor::new(schema.iter().map(|&i| v(i)).collect(), Vec::<(Vec<u32>, f64)>::new())
                .unwrap()
        };
        let max = VarAgg::Semiring(RealDomain::MAX);
        let q = FaqQuery::new(
            RealDomain,
            Domains::uniform(7, 2),
            vec![],
            vec![
                (v(1), max),
                (v(2), max),
                (v(3), VarAgg::Product),
                (v(4), VarAgg::Semiring(RealDomain::SUM)),
                (v(5), max),
                (v(6), max),
            ],
            vec![fac(&[1, 5]), fac(&[2, 5]), fac(&[1, 3, 4]), fac(&[2, 3, 6])],
        )
        .unwrap();
        let prog = compile(&q, &q.ordering(), OutputForm::Listing);
        let shape: Vec<_> = prog
            .joins()
            .map(|js| (js.var, js.join_order.clone(), js.values.len(), js.filters.clone()))
            .collect();
        let kernels: Vec<Vec<Var>> = prog.joins().map(|js| js.kernel_order.clone()).collect();
        // Nodes 0–3 are ψ15 ψ25 ψ134 ψ236; 4 and 7 are projections; 5, 6, 8
        // the intermediates of x6, x5, x4; 9–11 the rewrites of Π₃.
        let prefix = |node, depth| StepFilter::Prefix { node, depth };
        let proj = |source, proj| StepFilter::Proj { source, proj };
        let expect = vec![
            (Some(v(6)), vars(&[2, 3, 6]), 1, vec![prefix(1, 1), proj(2, 4)]),
            (Some(v(5)), vars(&[1, 2, 5]), 2, vec![prefix(2, 1), prefix(5, 1)]),
            (Some(v(4)), vars(&[1, 3, 4]), 1, vec![proj(5, 7), prefix(6, 1)]),
            (Some(v(2)), vars(&[1, 2]), 2, vec![prefix(11, 1)]),
            (Some(v(1)), vars(&[1]), 2, vec![]),
            (None, vars(&[]), 1, vec![]),
        ];
        assert_eq!(shape, expect);
        let mut want: Vec<Vec<Var>> = expect.iter().map(|(_, order, ..)| order.clone()).collect();
        want[1] = vars(&[5, 1, 2]);
        assert_eq!(kernels, want);
        assert!(matches!(&prog.steps[3], Step::Product { var, rewrites }
            if *var == v(3) && rewrites == &[(5, 9), (6, 10), (8, 11)]));
        assert_eq!(prog.nodes, 15);
    }

    /// `free` listed, the rest Σ-bound, over `factors`, along σ = `0..n`.
    fn listing(n: usize, free: &[u32], factors: Vec<Factor<u64>>) -> FaqQuery<CountDomain> {
        let bound = (0..n as u32)
            .filter(|i| !free.contains(i))
            .map(|i| (v(i), VarAgg::Semiring(CountDomain::SUM)))
            .collect();
        FaqQuery::new(
            CountDomain,
            Domains::uniform(n, 6),
            free.iter().map(|&i| v(i)).collect(),
            bound,
            factors,
        )
        .unwrap()
    }

    /// `(a, b)` pairs over `0..6` with `(a + b) % skip != 0`, valued `a + 1`.
    fn pairs(a: u32, b: u32, skip: u32) -> Factor<u64> {
        let rows = (0..36u32)
            .map(|i| (i / 6, i % 6))
            .filter(|&(x, y)| (x + y) % skip != 0)
            .map(|(x, y)| (vec![x, y], u64::from(x) + 1))
            .collect();
        Factor::new(vec![v(a), v(b)], rows).unwrap()
    }

    fn triangle_listing() -> FaqQuery<CountDomain> {
        listing(3, &[0, 1, 2], vec![pairs(0, 1, 3), pairs(1, 2, 4), pairs(0, 2, 5)])
    }

    /// The join steps of `prog` as `(var, fold, values, filters)`.
    fn join_shape(prog: &Program) -> Vec<(Option<Var>, FoldKind, usize, usize)> {
        prog.joins().map(|js| (js.var, js.fold, js.values.len(), js.filters.len())).collect()
    }

    /// A full conjunctive query: the innermost free step spans every edge, so
    /// the listing is one output step over the three inputs — no guard, no
    /// filter, no intermediate. The factorized form keeps all three guards.
    #[test]
    fn compile_triangle_listing_is_one_output_step() {
        let q = triangle_listing();
        let prog = compile(&q, &q.ordering(), OutputForm::Listing);
        assert_eq!(prog.steps.len(), 1);
        assert_eq!(join_shape(&prog), [(None, FoldKind::Output, 3, 0)]);
        assert_eq!(prog.output_step().join_order, vars(&[0, 1, 2]));
        assert_eq!(prog.nodes, 4);
        let factorized = compile(&q, &q.ordering(), OutputForm::Factorized);
        let expect = [
            (Some(v(2)), FoldKind::Guard, 0, 3),
            (Some(v(1)), FoldKind::Guard, 0, 2),
            (Some(v(0)), FoldKind::Guard, 0, 1),
            (None, FoldKind::Output, 3, 3),
        ];
        assert_eq!(join_shape(&factorized), expect);
        let out = Engine::sequential().evaluate_with_order(&q, &q.ordering()).unwrap();
        assert_eq!(out.factor, crate::naive::naive_eval(&q));
        assert!(out.stats.steps.is_empty(), "a fused free variable has no step entry");
        assert_eq!(out.stats.max_intermediate, 0);
    }

    /// A free chain `ψ01 ψ12`: the innermost step's `U = {x1, x2}` misses
    /// `ψ01`'s `x0`, so the listing keeps its guard steps.
    #[test]
    fn compile_free_chain_keeps_its_guards() {
        let q = listing(3, &[0, 1, 2], vec![pairs(0, 1, 3), pairs(1, 2, 4)]);
        let prog = compile(&q, &q.ordering(), OutputForm::Listing);
        let expect = [
            (Some(v(2)), FoldKind::Guard, 0, 2),
            (Some(v(1)), FoldKind::Guard, 0, 2),
            (Some(v(0)), FoldKind::Guard, 0, 1),
            (None, FoldKind::Output, 2, 3),
        ];
        assert_eq!(join_shape(&prog), expect);
        let out = Engine::sequential().evaluate_with_order(&q, &q.ordering()).unwrap();
        assert_eq!(out.factor, crate::naive::naive_eval(&q));
        assert_eq!(out.stats.steps.len(), 3);
    }

    /// `x0` is free but in no factor: the innermost step covers every live
    /// edge, yet the program stays the guarded one (no step for `x0`), and
    /// the output — every `x0` beside each `(x1, x2)` — matches naive.
    #[test]
    fn compile_unconstrained_free_variable_is_not_fused() {
        let q = listing(3, &[0, 1, 2], vec![pairs(1, 2, 4)]);
        let prog = compile(&q, &q.ordering(), OutputForm::Listing);
        let expect = [
            (Some(v(2)), FoldKind::Guard, 0, 1),
            (Some(v(1)), FoldKind::Guard, 0, 1),
            (None, FoldKind::Output, 1, 2),
        ];
        assert_eq!(join_shape(&prog), expect);
        let out = Engine::sequential().evaluate_with_order(&q, &q.ordering()).unwrap();
        assert_eq!(out.factor, crate::naive::naive_eval(&q));
        assert_eq!(out.factor.len(), 6 * pairs(1, 2, 4).len());
    }

    /// A delta on a fused listing replays the one output step: restricted to
    /// the touched ranges when the slot leads with the join's first variable,
    /// in full when it does not — both equal to a fresh evaluation.
    #[test]
    fn delta_on_a_fused_listing_equals_a_fresh_evaluation() {
        use crate::plan::{Planner, PreparedQuery};
        use faq_factor::DeltaFactor;
        let q = triangle_listing();
        let mut prepared = Planner::sequential().prepare(&q).unwrap();
        let plan = std::sync::Arc::new(prepared.plan().clone());
        let fresh = prepared.evaluate().unwrap();
        assert_eq!(join_shape(&compile(&q, &plan.order, OutputForm::Listing)).len(), 1);
        let j0 = plan.order[0];
        let leads = |p: &PreparedQuery<CountDomain>, slot: usize| {
            p.query().factors[slot].schema().first() == Some(&j0)
        };
        let leading = (0..3).find(|&s| leads(&prepared, s)).expect("a slot leads with j0");
        let trailing = (0..3).find(|&s| !leads(&prepared, s)).expect("a slot does not");
        for slot in [leading, trailing] {
            let schema = prepared.query().factors[slot].schema().to_vec();
            let delta = DeltaFactor::inserts(schema, vec![(vec![2, 1], 5), (vec![4, 4], 1)]);
            let out = prepared.apply_delta(slot, &delta.unwrap()).unwrap();
            let again = PreparedQuery::with_plan(prepared.query(), plan.clone()).unwrap();
            let want = again.evaluate().unwrap();
            assert_eq!(out.factor, want.factor, "slot {slot}");
            assert!(out.stats.steps.is_empty());
            let seeks = |o: &FaqOutput<u64>| o.stats.output_join.expect("the output ran").seeks;
            if slot == leading {
                assert!(seeks(&out) < seeks(&fresh), "a leading delta replays restricted");
            }
        }
    }

    #[test]
    fn chain_sum_product() {
        // ϕ = Σ_{x0,x1,x2} ψ01 ψ12 over counting.
        let q = FaqQuery::new(
            CountDomain,
            Domains::uniform(3, 2),
            vec![],
            vec![
                (v(0), VarAgg::Semiring(CountDomain::SUM)),
                (v(1), VarAgg::Semiring(CountDomain::SUM)),
                (v(2), VarAgg::Semiring(CountDomain::SUM)),
            ],
            vec![
                fac_u(&[0, 1], &[(&[0, 0], 1), (&[0, 1], 2), (&[1, 1], 3)]),
                fac_u(&[1, 2], &[(&[0, 0], 1), (&[1, 0], 5), (&[1, 1], 1)]),
            ],
        )
        .unwrap();
        let expect = crate::naive::naive_eval(&q);
        let got = Engine::sequential().evaluate(&q).unwrap();
        assert_eq!(got.factor, expect);
    }

    #[test]
    fn free_variables_match_naive() {
        // ϕ(x0) = Σ_{x1} max_{x2} ψ01 ψ12.
        let q = FaqQuery::new(
            CountDomain,
            Domains::uniform(3, 3),
            vec![v(0)],
            vec![
                (v(1), VarAgg::Semiring(CountDomain::SUM)),
                (v(2), VarAgg::Semiring(CountDomain::MAX)),
            ],
            vec![
                fac_u(&[0, 1], &[(&[0, 0], 1), (&[1, 2], 2), (&[2, 1], 3), (&[2, 2], 4)]),
                fac_u(&[1, 2], &[(&[0, 0], 7), (&[2, 1], 5), (&[1, 2], 2), (&[2, 2], 1)]),
            ],
        )
        .unwrap();
        let expect = crate::naive::naive_eval(&q);
        let got = Engine::sequential().evaluate(&q).unwrap();
        assert_eq!(got.factor, expect);
    }

    #[test]
    fn product_aggregate_matches_naive() {
        // ϕ = Σ_{x0} Π_{x1} ψ01 with a full x1-column (no implicit zeros).
        let q = FaqQuery::new(
            CountDomain,
            Domains::uniform(2, 2),
            vec![],
            vec![(v(0), VarAgg::Semiring(CountDomain::SUM)), (v(1), VarAgg::Product)],
            vec![fac_u(&[0, 1], &[(&[0, 0], 2), (&[0, 1], 3), (&[1, 0], 4), (&[1, 1], 1)])],
        )
        .unwrap();
        // x0=0: 2*3=6 ; x0=1: 4*1=4 ⇒ Σ = 10.
        let got = Engine::sequential().evaluate(&q).unwrap();
        assert_eq!(got.scalar(), Some(&10));
        assert_eq!(got.factor, crate::naive::naive_eval(&q));
    }

    #[test]
    fn product_powers_unrelated_factors() {
        // ϕ = Σ_{x0} Π_{x1} ψ0(x0): powering ψ0 by |Dom(x1)| = 3.
        let q = FaqQuery::new(
            CountDomain,
            Domains::new(vec![2, 3]),
            vec![],
            vec![(v(0), VarAgg::Semiring(CountDomain::SUM)), (v(1), VarAgg::Product)],
            vec![fac_u(&[0], &[(&[0], 2), (&[1], 1)])],
        )
        .unwrap();
        // Σ_x0 ψ0(x0)^3 = 8 + 1 = 9.
        let got = Engine::sequential().evaluate(&q).unwrap();
        assert_eq!(got.scalar(), Some(&9));
        assert_eq!(got.factor, crate::naive::naive_eval(&q));
    }

    #[test]
    fn boolean_conjunctive_query() {
        // BCQ: ∃x0 ∃x1 (R(x0) ∧ S(x0, x1)).
        let r = Factor::new(vec![v(0)], vec![(vec![1], true)]).unwrap();
        let s = Factor::new(vec![v(0), v(1)], vec![(vec![1, 0], true)]).unwrap();
        let q = FaqQuery::new(
            BoolDomain,
            Domains::uniform(2, 2),
            vec![],
            vec![
                (v(0), VarAgg::Semiring(BoolDomain::OR)),
                (v(1), VarAgg::Semiring(BoolDomain::OR)),
            ],
            vec![r, s],
        )
        .unwrap();
        assert_eq!(Engine::sequential().evaluate(&q).unwrap().scalar(), Some(&true));
    }

    #[test]
    fn empty_join_yields_zero_scalar() {
        let r = Factor::new(vec![v(0)], vec![(vec![0], true)]).unwrap();
        let s = Factor::new(vec![v(0)], vec![(vec![1], true)]).unwrap();
        let q = FaqQuery::new(
            BoolDomain,
            Domains::uniform(1, 2),
            vec![],
            vec![(v(0), VarAgg::Semiring(BoolDomain::OR))],
            vec![r, s],
        )
        .unwrap();
        let out = Engine::sequential().evaluate(&q).unwrap();
        assert_eq!(out.scalar(), None);
    }

    #[test]
    fn variable_in_no_factor_scales() {
        let q = FaqQuery::new(
            CountDomain,
            Domains::new(vec![2, 3]),
            vec![],
            vec![
                (v(0), VarAgg::Semiring(CountDomain::SUM)),
                (v(1), VarAgg::Semiring(CountDomain::SUM)),
            ],
            vec![fac_u(&[0], &[(&[0], 1), (&[1], 1)])],
        )
        .unwrap();
        assert_eq!(Engine::sequential().evaluate(&q).unwrap().scalar(), Some(&6));
    }

    #[test]
    fn different_orders_same_result_for_faq_ss() {
        let q = FaqQuery::new(
            CountDomain,
            Domains::uniform(3, 2),
            vec![],
            vec![
                (v(0), VarAgg::Semiring(CountDomain::SUM)),
                (v(1), VarAgg::Semiring(CountDomain::SUM)),
                (v(2), VarAgg::Semiring(CountDomain::SUM)),
            ],
            vec![
                fac_u(&[0, 1], &[(&[0, 0], 1), (&[1, 1], 2)]),
                fac_u(&[1, 2], &[(&[0, 1], 3), (&[1, 0], 4)]),
                fac_u(&[0, 2], &[(&[0, 1], 5), (&[1, 0], 6)]),
            ],
        )
        .unwrap();
        let expect = crate::naive::naive_eval(&q);
        for order in [[v(0), v(1), v(2)], [v(2), v(0), v(1)], [v(1), v(2), v(0)]] {
            let got = Engine::sequential().evaluate_with_order(&q, &order).unwrap();
            assert_eq!(got.factor, expect, "order {order:?}");
        }
    }

    #[test]
    fn marginal_map_real_domain() {
        // Mixed Σ then max with free variable, vs naive.
        let f01 = Factor::new(
            vec![v(0), v(1)],
            vec![(vec![0, 0], 0.5), (vec![0, 1], 1.5), (vec![1, 0], 2.0)],
        )
        .unwrap();
        let f12 = Factor::new(
            vec![v(1), v(2)],
            vec![(vec![0, 0], 1.0), (vec![0, 1], 3.0), (vec![1, 1], 2.0)],
        )
        .unwrap();
        let q = FaqQuery::new(
            RealDomain,
            Domains::uniform(3, 2),
            vec![v(0)],
            vec![
                (v(1), VarAgg::Semiring(RealDomain::SUM)),
                (v(2), VarAgg::Semiring(RealDomain::MAX)),
            ],
            vec![f01, f12],
        )
        .unwrap();
        let expect = crate::naive::naive_eval(&q);
        let got = Engine::sequential().evaluate(&q).unwrap();
        assert_eq!(got.factor, expect);
    }

    #[test]
    fn stats_track_intermediates() {
        let q = FaqQuery::new(
            CountDomain,
            Domains::uniform(3, 2),
            vec![],
            vec![
                (v(0), VarAgg::Semiring(CountDomain::SUM)),
                (v(1), VarAgg::Semiring(CountDomain::SUM)),
                (v(2), VarAgg::Semiring(CountDomain::SUM)),
            ],
            vec![
                fac_u(&[0, 1], &[(&[0, 0], 1), (&[1, 1], 2)]),
                fac_u(&[1, 2], &[(&[0, 1], 3), (&[1, 0], 4)]),
            ],
        )
        .unwrap();
        let out = Engine::sequential().evaluate(&q).unwrap();
        assert_eq!(out.stats.steps.len(), 3);
        assert!(out.stats.total_seeks() > 0);
        assert!(out.stats.max_intermediate >= 1);
    }

    /// Steps whose every `join_order` prefix is connected keep it as their
    /// kernel order: the triangle (listing, factorized and counted) and a
    /// chain along its own order, free or summed.
    #[test]
    fn connected_steps_keep_their_join_order() {
        let chain =
            |free: &[u32]| listing(5, free, (0..4).map(|i| pairs(i, i + 1, 3)).collect::<Vec<_>>());
        let triangle_count = listing(3, &[], triangle_listing().factors);
        let queries = [triangle_listing(), triangle_count, chain(&[]), chain(&[0, 1, 2, 3, 4])];
        for q in &queries {
            for form in [OutputForm::Listing, OutputForm::Factorized] {
                let prog = compile(q, &q.ordering(), form);
                assert!(prog.joins().count() > 0);
                for js in prog.joins() {
                    assert_eq!(js.kernel_order, js.join_order, "{:?} {form:?}", js.var);
                }
            }
        }
    }

    /// A query over `edges` (variables `0..n`, each domain `0..dom`): each
    /// cell of a factor present with probability 0.6, valued by `value`;
    /// the first `free` variables free, the rest drawing an aggregate from
    /// `aggs`.
    #[allow(clippy::too_many_arguments)]
    fn random_shape<D: AggDomain>(
        domain: D,
        aggs: &[VarAgg],
        value: fn(&mut rand::rngs::StdRng) -> D::E,
        edges: &[&[u32]],
        n: u32,
        dom: u32,
        free: usize,
        seed: u64,
    ) -> FaqQuery<D> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let factors = edges
            .iter()
            .map(|schema| {
                let cells = dom.pow(schema.len() as u32);
                let rows = (0..cells)
                    .filter_map(|c| {
                        let row = (0..schema.len() as u32).map(|i| c / dom.pow(i) % dom).collect();
                        rng.gen_bool(0.6).then(|| (row, value(&mut rng)))
                    })
                    .collect();
                Factor::new(vars(schema), rows).unwrap()
            })
            .collect();
        let bound = (free as u32..n).map(|i| (v(i), aggs[rng.gen_range(0..aggs.len())])).collect();
        let free = (0..free as u32).map(v).collect();
        FaqQuery::new(domain, Domains::uniform(n as usize, dom), free, bound, factors).unwrap()
    }

    /// Runs every ordering of `LinEx(q)` (up to 24) compiled twice — kernel
    /// orders chosen by [`kernel_order`], and forced to `join_order` — at 1,
    /// 2 and 4 threads with every step chunkable, and asserts that every join
    /// step writes the same factor, bit for bit, as the forced program at one
    /// thread. Returns the number of steps whose kernel took its own order.
    fn assert_kernel_orders_agree<D: AggDomain + Sync>(q: &FaqQuery<D>) -> usize {
        let (orderings, _) = crate::evo::linear_extensions(&q.shape(), 24);
        let mut own = 0;
        for sigma in &orderings {
            let progs = [
                compile(q, sigma, OutputForm::Listing),
                compile_with(q, sigma, OutputForm::Listing, |order, _, _| order.to_vec()),
            ];
            own += progs[0].joins().filter(|js| js.kernel_order != js.join_order).count();
            let outputs = |prog: &Program, threads: usize| {
                let policy = ExecPolicy::with_threads(threads).min_chunk_rows(1);
                let (mut slots, _) =
                    run_program(q, prog, &policy, true, OutputForm::Listing).unwrap();
                let written = |js: &JoinStep| js.reduced.into_iter().chain([js.output]);
                prog.joins().flat_map(written).map(|n| slots[n].take()).collect::<Vec<_>>()
            };
            let want = outputs(&progs[1], 1);
            for threads in [1, 2, 4] {
                for (prog, forced) in progs.iter().zip(["own", "forced"]) {
                    let got = outputs(prog, threads);
                    assert_eq!(got, want, "{sigma:?} {forced} kernel order, {threads} threads");
                }
            }
        }
        own
    }

    /// Both kernel orders of every step agree on every oracle family — the
    /// counting, real (`f64`, whose fold is order-sensitive), boolean and
    /// max-tropical aggregate mixes — over the triangle, a chain, the 4- and
    /// 5-cycle and Example 5.6, with any number of free variables.
    #[test]
    fn kernel_orders_write_the_same_step_outputs() {
        use faq_semiring::{MaxPlus, SingleSemiringDomain};
        use rand::Rng;
        type MaxTropical = SingleSemiringDomain<MaxPlus>;
        let count_aggs = [
            VarAgg::Semiring(CountDomain::SUM),
            VarAgg::Semiring(CountDomain::MAX),
            VarAgg::Product,
        ];
        let real_aggs = [VarAgg::Semiring(RealDomain::SUM), VarAgg::Semiring(RealDomain::MAX)];
        let bool_aggs = [VarAgg::Semiring(BoolDomain::OR), VarAgg::Product];
        let tropical_aggs = [VarAgg::Semiring(MaxTropical::OP), VarAgg::Product];
        let shapes: [(&str, u32, u32, &[&[u32]]); 5] = [
            ("triangle", 3, 4, &[&[0, 1], &[1, 2], &[0, 2]]),
            ("chain", 5, 3, &[&[0, 1], &[1, 2], &[2, 3], &[3, 4]]),
            ("4-cycle", 4, 3, &[&[0, 1], &[1, 2], &[2, 3], &[0, 3]]),
            ("5-cycle", 5, 3, &[&[0, 1], &[1, 2], &[2, 3], &[3, 4], &[0, 4]]),
            // x1..x6 of the paper as 0..5: ψ15 ψ25 ψ134 ψ236.
            ("example 5.6", 6, 3, &[&[0, 4], &[1, 4], &[0, 2, 3], &[1, 2, 5]]),
        ];
        let mut total = 0;
        for (name, n, dom, edges) in shapes {
            let mut own = 0;
            for seed in 0..3u64 {
                let free = seed as usize % 3;
                own += assert_kernel_orders_agree(&random_shape(
                    CountDomain,
                    &count_aggs,
                    |r| r.gen_range(1..=4u64),
                    edges,
                    n,
                    dom,
                    free,
                    seed,
                ));
                own += assert_kernel_orders_agree(&random_shape(
                    RealDomain,
                    &real_aggs,
                    |r| f64::from(r.gen_range(1..=9u32)) / 3.0,
                    edges,
                    n,
                    dom,
                    free,
                    seed,
                ));
                own += assert_kernel_orders_agree(&random_shape(
                    BoolDomain,
                    &bool_aggs,
                    |_| true,
                    edges,
                    n,
                    dom,
                    free,
                    seed,
                ));
                own += assert_kernel_orders_agree(&random_shape(
                    MaxTropical::default(),
                    &tropical_aggs,
                    |r| f64::from(r.gen_range(-4..=8i32)) * 0.25,
                    edges,
                    n,
                    dom,
                    free,
                    seed,
                ));
            }
            if name != "triangle" {
                assert!(own > 0, "{name}: no step took its own kernel order");
            }
            total += own;
        }
        assert!(total > 0);
    }
}
