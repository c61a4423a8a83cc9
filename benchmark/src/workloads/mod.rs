//! The six workloads. Each module's header says what its op is and why the
//! workload exists; `crate::metrics::WORKLOADS` holds the one-line reasons.

pub mod ooc;
pub mod plan_infer;
pub mod serve;
pub mod tri;

use crate::api::Fac;
use crate::gen::Relation;
use crate::layers::RawFactor;

/// `rel` as the program receives it: a factor built from its sorted raw rows
/// (`FactorBuilder` push + finish), every value 1.
pub fn unit_factor(rel: &Relation) -> Fac<u64> {
    Fac::build(&rel.schema, &rel.rows, std::iter::repeat_n(1, rel.len()))
}

/// `rels` as raw unit-valued factors, for the per-layer probes.
pub fn raw_catalog(rels: [&Relation; 3]) -> Vec<RawFactor<u64>> {
    rels.iter()
        .map(|rel| RawFactor {
            schema: rel.schema.clone(),
            rows: rel.rows.clone(),
            vals: vec![1; rel.len()],
        })
        .collect()
}
