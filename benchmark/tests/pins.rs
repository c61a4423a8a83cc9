//! Pins that keep the benchmark itself from drifting: the generated inputs
//! per workload per seed, and the root `BENCHMARK.json` against the metric
//! and workload tables it is printed from.

use benchmark::{cli, config, metrics};

/// `(workload, seed 1, held-out seed 2)`, as `run -- fingerprints` prints
/// them. A changed generator, size or constant shows up here before it shows
/// up as a "performance change".
const FINGERPRINTS: [(&str, u64, u64); 6] = [
    ("tri_count", 0x3185d2b1c12d18ee, 0x916208703e5125e4),
    ("tri_list", 0xc7314d84705d8ae5, 0xfaf33e815d87bc77),
    ("plan_infer", 0x316f63f153916c5d, 0x2a24b43a368fb2ef),
    ("ooc_count", 0x0b8b406f7807d758, 0xe7d032834f3b3c5b),
    ("serve_read", 0x3185d2b1c12d18ee, 0x916208703e5125e4),
    ("serve_write", 0x3185d2b1c12d18ee, 0x916208703e5125e4),
];

#[test]
fn instance_fingerprints_are_pinned_per_workload_per_seed() {
    assert_eq!(config::HELD_OUT_SEED, 2);
    for (workload, seed1, seed2) in FINGERPRINTS {
        for (seed, want) in [(1, seed1), (config::HELD_OUT_SEED, seed2)] {
            let got = cli::fingerprint(workload, seed).expect("a workload");
            assert_eq!(got, want, "{workload} seed {seed}: fingerprint is {got:#018x}");
        }
    }
    assert!(cli::fingerprint("no_such_workload", 1).is_none());
}

#[test]
fn every_workload_is_pinned_and_dispatchable() {
    let pinned: Vec<&str> = FINGERPRINTS.iter().map(|f| f.0).collect();
    let declared: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.0).collect();
    assert_eq!(pinned, declared);
}

#[test]
fn benchmark_json_is_the_printed_manifest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        on_disk,
        metrics::manifest(config::RUN_SECONDS),
        "regenerate with `run -- manifest`"
    );
}

#[test]
fn the_manifest_meets_the_contract_limits() {
    assert!(metrics::END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    assert!(metrics::END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    assert!((2..=8).contains(&metrics::WORKLOADS.len()));
    assert!(metrics::PER_LAYER.len() <= 128);
    let mut names: Vec<&str> = metrics::END_TO_END
        .iter()
        .chain(&metrics::PER_LAYER)
        .map(|m| m.name)
        .chain(metrics::WORKLOADS.iter().map(|w| w.0))
        .collect();
    for name in &names {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(name.len() <= 64 && name.chars().all(ok), "bad name {name}");
    }
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "a name is used twice");
    assert!(metrics::WORKLOADS.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
}
