//! The engine's one random property: InsideOut ≡ brute force under every
//! configuration. Each case crosses a random FAQ instance (shape, semiring
//! family, aggregate mix, free variables, a delta batch) with a random
//! configuration (backing, threads × chunk floor, ordering, evaluation path)
//! and runs the checks of `common::oracle`. A failing case prints the
//! runner's seed, then the instance and the configuration.

use faq::core::ExecPolicy;
use proptest::ProptestConfig;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::BTreeSet;

mod common;
use common::oracle::{check, every_label, run_case, Config, Instance, Path, Sigma};
use common::random_triangle;

/// Cases per run: enough that every value of every axis is drawn.
const CASES: u32 = 200;

#[test]
fn insideout_equals_brute_force_under_every_configuration() {
    let (mut seen, mut work) = (BTreeSet::new(), 0);
    proptest::run_property("oracle", &ProptestConfig::with_cases(CASES), |rng| {
        let (labels, checked) = run_case(rng);
        seen.extend(labels);
        work += checked;
    });
    let missed = &every_label() - &seen;
    assert!(missed.is_empty(), "axis values never drawn: {missed:?}");
    assert!(work > 0, "the work oracle checked no step");
}

/// One large case: ~2100 distinct rows a factor, enough that the default
/// chunk floor engages and every thread count really chunks — 4 threads
/// under the plan's policy, then every admission budget.
#[test]
fn large_counting_triangle_chunks_at_the_default_floor() {
    let inst = Instance::new(random_triangle(2024, 64, 3000));
    let config = Config {
        spill: None,
        threads: 4,
        min_chunk_rows: ExecPolicy::DEFAULT_MIN_CHUNK_ROWS,
        sigma: Sigma::Own,
        path: Path::Prepared,
    };
    check(&inst, &config, &mut StdRng::seed_from_u64(0));
}
