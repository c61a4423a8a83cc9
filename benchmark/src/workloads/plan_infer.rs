//! `plan_infer`: one op is a round of four fresh small-data queries, each
//! planned (`Planner::plan`), prepared (`PreparedQuery::with_plan`) and
//! evaluated once — what `Engine::sequential().prepare(q)` + `evaluate()`
//! does, called in its two halves so the traced run can tell them apart.
//! The round, not the query, is the op, so the median does not sit on a
//! boundary between query classes.

use crate::api::{self, Agg, Fac, Prepared, Query, REAL};
use crate::config::{EXAMPLE_5_6_N, GRID_A, GRID_B, TREE, WARMUP_OPS};
use crate::gen::{self, RealInstance, Rng};
use crate::harness::{closed_loop, Layers, Measured, Workload};
use crate::layers::{self, LayerInput, QueryDef, RawFactor};
use crate::span::Tracer;
use std::path::Path;

type Rows = Vec<(Vec<u32>, f64)>;

pub struct PlanInfer {
    insts: Vec<RealInstance>,
    /// Per instance, its factors built but never indexed: a clone is cold,
    /// so every round plans and indexes from scratch.
    facs: Vec<Vec<Fac<f64>>>,
    expected: Vec<Rows>,
    ops: u64,
}

fn generate(seed: u64) -> Vec<RealInstance> {
    let mut rng = Rng::new(seed);
    vec![
        gen::pgm_grid(&mut rng, GRID_A.0, GRID_A.1, GRID_A.2),
        gen::pgm_grid(&mut rng, GRID_B.0, GRID_B.1, GRID_B.2),
        gen::pgm_tree(&mut rng, TREE.0, TREE.1),
        gen::example_5_6(&mut rng, EXAMPLE_5_6_N),
    ]
}

fn agg(code: u8) -> Agg {
    match code {
        0 => Agg::Sum,
        1 => Agg::Max,
        _ => Agg::Product,
    }
}

fn bound(inst: &RealInstance) -> Vec<(u32, Agg)> {
    inst.bound.iter().map(|&(v, a)| (v, agg(a))).collect()
}

fn query(inst: &RealInstance, facs: &[Fac<f64>]) -> Query<api::Real> {
    Query::new(REAL, &inst.domains, &inst.free, &bound(inst), facs.to_vec())
}

fn rows(f: &Fac<f64>) -> Rows {
    let mut out = Vec::with_capacity(f.len());
    f.for_each(|row, &val| out.push((row.to_vec(), val)));
    out
}

/// Same keys, values equal to a relative 1e-9: float ⊕ re-associates across
/// variable orderings.
fn close(got: &Fac<f64>, want: &Rows) -> bool {
    let got = rows(got);
    got.len() == want.len()
        && got.iter().zip(want).all(|((gr, gv), (wr, wv))| {
            gr == wr && (gv - wv).abs() <= 1e-9 * wv.abs().max(gv.abs())
        })
}

impl PlanInfer {
    fn round(&mut self, tracer: &mut Tracer) -> Result<Vec<Fac<f64>>, String> {
        self.ops += 1;
        let id = self.ops;
        let root = tracer.begin("op", None, id);
        let mut outs = Vec::with_capacity(self.insts.len());
        for (inst, facs) in self.insts.iter().zip(&self.facs) {
            let q = query(inst, facs);
            let plan = tracer.span("core.plan", root, id, || api::plan(&q, 1))?;
            let prepared =
                tracer.span("core.prepare", root, id, || Prepared::with_plan(&q, &plan))?;
            outs.push(tracer.span("core.evaluate", root, id, || prepared.evaluate())?.factor);
        }
        tracer.end(root);
        Ok(outs)
    }

    fn layer_input(&self) -> LayerInput<api::Real> {
        let mut raws = Vec::new();
        let mut queries = Vec::new();
        for inst in &self.insts {
            let first = raws.len();
            raws.extend(inst.potentials.iter().map(|p| RawFactor {
                schema: p.schema.clone(),
                rows: p.rows.clone(),
                vals: p.vals.clone(),
            }));
            queries.push(QueryDef {
                domains: inst.domains.clone(),
                free: inst.free.clone(),
                bound: bound(inst),
                factors: (first..raws.len()).collect(),
            });
        }
        LayerInput {
            domain: REAL,
            raws,
            queries,
            planner_threads: 1,
            threads: 1,
            ops_per_pass: 1.0,
        }
    }
}

impl Workload for PlanInfer {
    const NAME: &'static str = "plan_infer";

    fn fingerprint(seed: u64) -> u64 {
        let mut h = gen::Fnv::default();
        for inst in generate(seed) {
            h.u64(inst.fingerprint());
        }
        h.finish()
    }

    fn setup(seed: u64, _scratch: &Path) -> Self {
        let insts = generate(seed);
        let facs = insts
            .iter()
            .map(|inst| {
                inst.potentials
                    .iter()
                    .map(|p| Fac::build(&p.schema, &p.rows, p.vals.iter().copied()))
                    .collect()
            })
            .collect();
        let mut w = PlanInfer { insts, facs, expected: Vec::new(), ops: 0 };
        for _ in 0..WARMUP_OPS {
            w.round(&mut Tracer::off()).expect("warm-up round");
        }
        w
    }

    fn prepare_oracle(&mut self) {
        self.expected = self
            .insts
            .iter()
            .zip(&self.facs)
            .map(|(inst, facs)| {
                let q = query(inst, facs);
                // Brute force where the assignment space allows it; Example
                // 5.6 at n = 1000 has 2·10¹⁵ assignments, so its reference is
                // the sequential engine along the query's own written order.
                let space: f64 = inst.domains.iter().map(|&d| f64::from(d)).product();
                if space <= 1e6 {
                    rows(&q.naive())
                } else {
                    rows(&api::evaluate_in_order(&q, &q.order()).expect("reference run").factor)
                }
            })
            .collect();
    }

    fn run(&mut self, secs: f64, tracer: &mut Tracer) -> Measured {
        assert!(!self.expected.is_empty(), "oracle prepared");
        // Out of `self` while `round` borrows it.
        let expected = std::mem::take(&mut self.expected);
        let m = closed_loop(
            secs,
            || self.round(tracer),
            |outs| outs.is_ok_and(|outs| outs.iter().zip(&expected).all(|(g, w)| close(g, w))),
        );
        self.expected = expected;
        m
    }

    fn op_sequential(&mut self) {
        self.round(&mut Tracer::off()).expect("round");
    }

    fn layers(&mut self, out: &mut Layers) {
        let input = self.layer_input();
        layers::factor_layers(&input, out);
        layers::query_layers(&input, &input.build_all(), out);
    }
}
