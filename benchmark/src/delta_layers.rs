//! Delta-path probes on a triangle catalog: `PreparedQuery::apply_delta`
//! against `update_factor` + `evaluate`, and the factor-layer merge alone.

use crate::api::{self, Delta, Fac, Prepared, Query, COUNT};
use crate::gen::{Relation, Rng, Triangle};
use crate::harness::{time_auto, Layers};
use crate::layers::QueryDef;
use crate::stats;
use crate::workloads::unit_factor;
use std::time::Instant;

/// A pair absent from `rel`, drawn from `rng`.
pub fn absent_pair(rel: &Relation, nodes: u32, rng: &mut Rng) -> (u32, u32) {
    loop {
        let p = (rng.below(u64::from(nodes)) as u32, rng.below(u64::from(nodes)) as u32);
        if !rel.has_pair(p) {
            return p;
        }
    }
}

/// Median seconds of inserting then deleting one absent row of `rel` in
/// `slot` through `apply_delta` (each direction is one sample).
fn point_update_secs(
    prepared: &mut Prepared<api::Count>,
    slot: usize,
    rel: &Relation,
    nodes: u32,
    rng: &mut Rng,
) -> f64 {
    let mut samples = Vec::new();
    for _ in 0..4 {
        let (x, y) = absent_pair(rel, nodes, rng);
        let insert = Delta::inserts(&rel.schema, vec![(vec![x, y], 1u64)]);
        let delete = Delta::deletes(&rel.schema, vec![vec![x, y]]);
        for delta in [&insert, &delete] {
            let t = Instant::now();
            prepared.apply_delta(slot, delta).expect("apply_delta");
            samples.push(t.elapsed().as_secs_f64());
        }
    }
    stats::median(&samples)
}

pub fn triangle_deltas(inst: &Triangle, def: &QueryDef, threads: usize, out: &mut Layers) {
    let facs: Vec<Fac<u64>> = inst.relations().iter().map(|r| unit_factor(r)).collect();
    let q = Query::new(COUNT, &def.domains, &def.free, &def.bound, facs.clone());
    let plan = api::plan(&q, threads).expect("plan");
    let mut prepared = Prepared::with_plan(&q, &plan).expect("prepare");
    let mut rng = Rng::new(inst.fingerprint());

    // The first apply primes the replay trace; keep it out of the samples.
    let (x, y) = absent_pair(&inst.r, inst.nodes, &mut rng);
    prepared.apply_delta(0, &Delta::inserts(&inst.r.schema, vec![(vec![x, y], 1)])).expect("prime");
    prepared.apply_delta(0, &Delta::deletes(&inst.r.schema, vec![vec![x, y]])).expect("prime");

    let leading = point_update_secs(&mut prepared, 0, &inst.r, inst.nodes, &mut rng);
    let nonleading = point_update_secs(&mut prepared, 1, &inst.s, inst.nodes, &mut rng);
    let recompute = time_auto(|| {
        prepared.update_factor(0, facs[0].clone()).expect("update_factor");
        prepared.evaluate().expect("evaluate")
    });
    out.set("core.delta_apply_ms", leading * 1e3);
    out.set("core.delta_nonleading_ms", nonleading * 1e3);
    out.set("core.delta_vs_recompute", leading / recompute.max(1e-12));

    let one_row = Delta::inserts(&inst.r.schema, vec![(vec![x, y], 1u64)]);
    out.set("factor.delta_merge_ms", time_auto(|| one_row.apply_to(&COUNT, &facs[0])) * 1e3);
}
