//! `tri_count` and `tri_list`: one cold triangle query per op.
//!
//! op = build `R`, `S`, `T` from sorted raw rows (`FactorBuilder`), then
//! `Engine::new().threads(nproc).evaluate` of the triangle query over them —
//! a cold one-shot evaluation, so trie builds are inside the op. Closed loop,
//! one client. `tri_count` Σ-binds all three variables over a sparse graph;
//! `tri_list` leaves them free over a dense one.

use crate::api::{self, Agg, Fac, Output, Query, COUNT};
use crate::config::{TriParams, TRI_COUNT, TRI_LIST, WARMUP_OPS};
use crate::gen::Triangle;
use crate::harness::{closed_loop, Layers, Measured, Workload};
use crate::layers::{self, LayerInput, QueryDef};
use crate::oracle::{Digest, TriangleOracle};
use crate::span::Tracer;
use crate::workloads::{raw_catalog, unit_factor};
use crate::{delta_layers, nproc};
use std::path::Path;

pub struct Tri<const LIST: bool> {
    params: TriParams,
    inst: Triangle,
    threads: usize,
    /// Expected output: its row count and digest (a scalar is one empty row).
    expected: Option<Digest>,
    ops: u64,
}

pub type TriCount = Tri<false>;
pub type TriList = Tri<true>;

const fn params(list: bool) -> TriParams {
    if list {
        TRI_LIST
    } else {
        TRI_COUNT
    }
}

pub fn query_def(p: &TriParams) -> QueryDef {
    let vars = [0u32, 1, 2];
    QueryDef {
        domains: vec![p.nodes; 3],
        free: if p.list { vars.to_vec() } else { vec![] },
        bound: if p.list { vec![] } else { vars.iter().map(|&v| (v, Agg::Sum)).collect() },
        factors: vec![0, 1, 2],
    }
}

fn digest(out: &Fac<u64>) -> Digest {
    let mut d = Digest::default();
    out.for_each(|row, &val| d.add(row, val));
    d
}

impl<const LIST: bool> Tri<LIST> {
    fn op(&mut self, tracer: &mut Tracer, threads: usize) -> Result<Output<u64>, String> {
        self.ops += 1;
        let id = self.ops;
        let root = tracer.begin("op", None, id);
        let facs: Vec<Fac<u64>> = self
            .inst
            .relations()
            .iter()
            .map(|rel| tracer.span("factor.build", root, id, || unit_factor(rel)))
            .collect();
        let def = query_def(&self.params);
        let q = Query::new(COUNT, &def.domains, &def.free, &def.bound, facs);
        let out = tracer.span("core.evaluate", root, id, || api::evaluate(&q, threads));
        tracer.end(root);
        out
    }

    fn layer_input(&self) -> LayerInput<api::Count> {
        LayerInput {
            domain: COUNT,
            raws: raw_catalog(self.inst.relations()),
            queries: vec![query_def(&self.params)],
            planner_threads: self.threads,
            threads: self.threads,
            ops_per_pass: 1.0,
        }
    }
}

impl<const LIST: bool> Workload for Tri<LIST> {
    const NAME: &'static str = if LIST { "tri_list" } else { "tri_count" };

    fn fingerprint(seed: u64) -> u64 {
        let p = params(LIST);
        Triangle::generate(seed, p.nodes, p.edges).fingerprint()
    }

    fn setup(seed: u64, _scratch: &Path) -> Self {
        let p = params(LIST);
        let mut w = Tri {
            params: p,
            inst: Triangle::generate(seed, p.nodes, p.edges),
            threads: nproc(),
            expected: None,
            ops: 0,
        };
        for _ in 0..WARMUP_OPS {
            w.op(&mut Tracer::off(), w.threads).expect("warm-up op");
        }
        w
    }

    fn prepare_oracle(&mut self) {
        let o = TriangleOracle::new(&self.inst.r, &self.inst.s, &self.inst.t);
        self.expected = Some(if LIST {
            o.list_digest()
        } else {
            let mut d = Digest::default();
            // An empty count is an empty scalar factor, not a stored zero.
            if o.answers().triangles > 0 {
                d.add(&[], o.answers().triangles);
            }
            d
        });
    }

    fn run(&mut self, secs: f64, tracer: &mut Tracer) -> Measured {
        let expected = self.expected.expect("oracle prepared");
        let threads = self.threads;
        closed_loop(
            secs,
            || self.op(tracer, threads),
            |out| out.is_ok_and(|out| digest(&out.factor) == expected),
        )
    }

    fn op_sequential(&mut self) {
        self.op(&mut Tracer::off(), 1).expect("op");
    }

    fn layers(&mut self, out: &mut Layers) {
        let input = self.layer_input();
        layers::factor_layers(&input, out);
        layers::query_layers(&input, &input.build_all(), out);
        delta_layers::triangle_deltas(&self.inst, &query_def(&self.params), self.threads, out);
    }
}
