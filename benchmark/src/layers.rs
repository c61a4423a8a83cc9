//! The per-layer probes shared by every workload. Each number is timed or
//! counted around one public call into a layer, on the workload's own
//! inputs; nothing here reads the program's insides.

use crate::api::{self, Agg, Domain, Edges, Fac, Prepared, Query, SeekLevel};
use crate::harness::{time_auto, time_median, time_median_with, Layers};
use crate::stats;

/// One input factor as raw data.
#[derive(Clone)]
pub struct RawFactor<E> {
    pub schema: Vec<u32>,
    pub rows: Vec<u32>,
    pub vals: Vec<E>,
}

/// One query over some of the raw factors.
#[derive(Clone)]
pub struct QueryDef {
    pub domains: Vec<u32>,
    pub free: Vec<u32>,
    pub bound: Vec<(u32, Agg)>,
    /// Indices into [`LayerInput::raws`].
    pub factors: Vec<usize>,
}

/// What the generic probes need of a workload: its inputs, the queries its
/// op evaluates (their costs add up to one op), and its thread counts.
pub struct LayerInput<D: Domain> {
    pub domain: D,
    pub raws: Vec<RawFactor<D::E>>,
    pub queries: Vec<QueryDef>,
    /// Threads the op's planner plans for.
    pub planner_threads: usize,
    /// Threads the op evaluates with.
    pub threads: usize,
    /// Ops per pass over `queries`: their summed costs are divided by this
    /// (1 when the op runs them all, 3 when each of three is its own op).
    pub ops_per_pass: f64,
}

fn ms(secs: f64) -> f64 {
    secs * 1e3
}

impl<D: Domain> LayerInput<D> {
    fn build_raw(raw: &RawFactor<D::E>) -> Fac<D::E> {
        Fac::build(&raw.schema, &raw.rows, raw.vals.iter().cloned())
    }

    /// The factors as the op sees them: built, never indexed.
    pub fn build_all(&self) -> Vec<Fac<D::E>> {
        self.raws.iter().map(Self::build_raw).collect()
    }

    pub fn query(&self, def: &QueryDef, facs: &[Fac<D::E>]) -> Query<D> {
        let factors = def.factors.iter().map(|&i| facs[i].clone()).collect();
        Query::new(self.domain.clone(), &def.domains, &def.free, &def.bound, factors)
    }
}

/// `core.*`, `join.*`, `hypergraph.*`, `lp.*` and `semiring.*`: summed over
/// the op's queries, on factors `facs` (cold: cloned per use, never indexed
/// in place).
pub fn query_layers<D: Domain>(input: &LayerInput<D>, facs: &[Fac<D::E>], out: &mut Layers) {
    let (mut plan_s, mut width_s, mut linex_s, mut prepare_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut eval_s, mut eval1_s, mut join_s) = (0.0, 0.0, 0.0);
    let (mut rho_s, mut agm_s, mut lp_s) = (0.0, 0.0, 0.0);
    let (mut seeks, mut max_rows, mut muls, mut adds) = (0u64, 0usize, 0u64, 0u64);
    let mut join = api::JoinCounts::default();
    let mut width_gap = 0.0f64;
    let mut est_ratios = Vec::new();
    for def in &input.queries {
        let fresh = || input.query(def, facs);
        plan_s += time_auto(|| api::plan(&fresh(), input.planner_threads).expect("plan"));
        width_s += time_auto(|| fresh().width_optimize());
        linex_s += time_auto(|| fresh().linear_extensions());
        let q = fresh();
        let plan = api::plan(&q, input.planner_threads).expect("plan");
        if let (Some(w), Some(approx)) = (plan.width(), q.width_approx()) {
            width_gap = width_gap.max(w - approx);
        }
        // As `Engine::prepare` does it: on the query the planner just indexed.
        prepare_s += time_auto(|| Prepared::with_plan(&q, &plan).expect("prepare"));
        let prepared = Prepared::with_plan(&q, &plan).expect("prepare");
        eval_s += time_auto(|| prepared.evaluate().expect("evaluate"));
        eval1_s += time_auto(|| prepared.evaluate_capped(1).expect("evaluate"));
        let stats = prepared.evaluate_capped(1).expect("evaluate");
        seeks += stats.seeks;
        max_rows = max_rows.max(stats.max_intermediate);
        for step in plan.steps() {
            let actual = stats.steps.iter().find(|&&(v, _)| v == step.var).map(|&(_, r)| r);
            if let Some(rows) = actual.filter(|&r| r > 0) {
                est_ratios.push(step.est_rows.max(1.0) / rows as f64);
            }
        }

        // The join kernel alone, on the sub-join of the innermost elimination
        // step (its U-set; for a triangle that is the whole query): inputs
        // aligned to the planned order and indexed beforehand, every match
        // sunk into a counter.
        let u_set = plan.steps().first().map_or_else(|| plan.order(), |s| s.u_vars.clone());
        let order: Vec<u32> = plan.order().into_iter().filter(|v| u_set.contains(v)).collect();
        let aligned: Vec<Fac<D::E>> = def
            .factors
            .iter()
            .filter(|&&i| facs[i].schema().iter().all(|v| u_set.contains(v)))
            .map(|&i| {
                let schema = facs[i].schema();
                let target: Vec<u32> =
                    order.iter().copied().filter(|v| schema.contains(v)).collect();
                let f = if target == schema { facs[i].clone() } else { facs[i].reorder(&target) };
                f.index();
                f
            })
            .collect();
        let refs: Vec<&Fac<D::E>> = aligned.iter().collect();
        join_s += time_auto(|| api::leapfrog(&input.domain, &def.domains, &order, &refs));
        let c = api::leapfrog(&input.domain, &def.domains, &order, &refs);
        join.matches += c.matches;
        join.seeks += c.seeks;
        join.nodes += c.nodes;

        // The cost model's own inputs: ρ*, AGM and the cover LP of every
        // U-set of the planned order.
        let (edges, sizes) = q.edges();
        let h = Edges::new(&edges);
        for step in plan.steps() {
            rho_s += time_auto(|| h.rho_star(&step.u_vars));
            agm_s += time_auto(|| h.agm_bound(&step.u_vars, &sizes));
            let program = h.cover_program(&step.u_vars);
            lp_s += time_auto(|| program.solve());
        }

        // Theorem 8.1's currency: ⊕ and ⊗ calls of one sequential run.
        let (counted, counters) = q.counted();
        api::evaluate_in_order(&counted, &plan.order()).expect("counted evaluation");
        muls += counters.muls();
        adds += counters.adds();
    }
    let per_op = 1.0 / input.ops_per_pass;
    let op_ms = |secs: f64| ms(secs) * per_op;
    out.set("core.plan_ms", op_ms(plan_s));
    out.set("core.width_ms", op_ms(width_s));
    out.set("core.linex_ms", op_ms(linex_s));
    out.set("core.plan_width_gap", width_gap);
    out.set("core.est_over_actual_rows", stats::geo_mean(&est_ratios));
    out.set("core.prepare_ms", op_ms(prepare_s));
    out.set("core.eval_ms", op_ms(eval_s));
    out.set("core.seeks_per_op", seeks as f64 * per_op);
    out.set("core.max_intermediate_rows", max_rows as f64);
    out.set("core.par_speedup", eval1_s / eval_s.max(1e-12));
    out.set("join.leapfrog_ms", op_ms(join_s));
    out.set("join.seeks", join.seeks as f64 * per_op);
    out.set("join.matches", join.matches as f64 * per_op);
    out.set("join.nodes", join.nodes as f64 * per_op);
    out.set("join.ns_per_seek", join_s * 1e9 / (join.seeks.max(1)) as f64);
    out.set("join.matches_per_seek", join.matches as f64 / (join.seeks.max(1)) as f64);
    out.set("join.share_of_eval", join_s / eval1_s.max(1e-12));
    out.set("hypergraph.rho_star_us", rho_s * 1e6 * per_op);
    out.set("hypergraph.agm_bound_us", agm_s * 1e6 * per_op);
    out.set("lp.solve_us", lp_s * 1e6 * per_op);
    out.set("semiring.mul_ops_per_op", muls as f64 * per_op);
    out.set("semiring.add_ops_per_op", adds as f64 * per_op);
}

/// `factor.*` build-side probes on the raw inputs: builder, trie build,
/// reorder, k-way merge of `threads` chunks, and the seek kernel on the first
/// factor's own level-0 values.
pub fn factor_layers<D: Domain>(input: &LayerInput<D>, out: &mut Layers) {
    out.set("factor.build_ms", ms(time_auto(|| input.build_all())));
    out.set(
        "factor.trie_build_ms",
        ms(time_median_with(5, || input.build_all(), |cold| cold.iter().for_each(Fac::index))),
    );
    let built = input.build_all();
    let first = &built[0];
    let mut reversed = first.schema();
    reversed.reverse();
    out.set("factor.reorder_ms", ms(time_auto(|| first.reorder(&reversed))));

    // The parallel engine's merge: `threads` sorted chunk outputs, here the
    // first factor cut into contiguous row ranges.
    let raw = &input.raws[0];
    let arity = raw.schema.len();
    let per = raw.vals.len().div_ceil(input.threads.max(1));
    let parts: Vec<Fac<D::E>> = raw
        .vals
        .chunks(per.max(1))
        .zip(raw.rows.chunks(per.max(1) * arity))
        .map(|(vals, rows)| Fac::build(&raw.schema, rows, vals.iter().cloned()))
        .collect();
    let domain = &input.domain;
    out.set(
        "factor.merge_ms",
        ms(time_auto(|| {
            Fac::merge_sorted(parts.clone(), |a, _| a.clone(), |x| *x == domain.zero())
        })),
    );

    let mut level0: Vec<u32> = raw.rows.chunks_exact(arity).map(|r| r[0]).collect();
    level0.dedup();
    seek_layers(level0, out);
}

/// Warm (ascending bounds, hint carried) and cold (random bounds, no hint)
/// `lub_from` probes against `partition_point` on the same values.
fn seek_layers(values: Vec<u32>, out: &mut Layers) {
    const PROBES: usize = 1 << 16;
    let max = u64::from(values.last().copied().unwrap_or(0)) + 2;
    let mut rng = crate::gen::Rng::new(values.len() as u64);
    let random: Vec<u32> = (0..PROBES).map(|_| rng.below(max) as u32).collect();
    let mut ascending = random.clone();
    ascending.sort_unstable();
    let level = SeekLevel::new(values.clone());
    let n = level.len();
    let gallop = |probes: &[u32], warm: bool| {
        let (mut hint, mut acc) = (usize::MAX, 0u64);
        for &b in probes {
            let j = level.lub_from((0, n), hint, b);
            acc += j as u64;
            if warm {
                hint = j.min(n.saturating_sub(1));
            }
        }
        acc
    };
    let binary = |probes: &[u32]| {
        probes.iter().map(|&b| values.partition_point(|&v| v < b) as u64).sum::<u64>()
    };
    assert_eq!(gallop(&random, false), binary(&random), "seek kernel disagrees with binary search");
    assert_eq!(gallop(&ascending, true), binary(&ascending), "warm seeks disagree");
    let per = 1e9 / PROBES as f64;
    let warm_ns = time_median(9, || gallop(&ascending, true)) * per;
    let cold_ns = time_median(9, || gallop(&random, false)) * per;
    let binary_ns = time_median(9, || binary(&random)) * per;
    out.set("factor.seek_warm_ns", warm_ns);
    out.set("factor.seek_cold_ns", cold_ns);
    out.set("factor.seek_vs_binary", cold_ns / binary_ns.max(1e-9));
}
