//! Property tests for the flat-row construction path (PR 5):
//!
//! 1. [`Factor::from_sorted_distinct`] and the [`FactorBuilder`] push path
//!    are drop-in equivalents of `Factor::new` on adversarial inputs;
//! 2. the trie built on first use over a factor from each path — direct
//!    pushes and the chunked `append` path of the parallel engine's merge
//!    included — indexes its listing by definition
//!    (`common::assert_trie_indexes`: every level's values, the rows below
//!    each entry and the child ranges above the deepest level, recomputed
//!    from the rows);
//!
//! 3. file-chunked (spilled) listings are accessor-level drop-ins for the
//!    in-memory backing — equality, column/value reads across chunk
//!    boundaries, column maxima, point lookups, projections, merges — at
//!    chunk sizes 1, C−1, C, C+1, their disk-sink trie `==` the heap-sink
//!    trie of the same rows, with the spill directory removed when the last
//!    handle drops;
//!
//! each across the counting (`u64`), max-tropical (`f64`), and boolean
//! carriers.

use faq::factor::{Factor, FactorBuilder, SpillConfig};
use faq::hypergraph::Var;
use faq::semiring::SemiringElem;
use proptest::prelude::*;

mod common;
use common::{assert_trie_indexes, DOM};

/// Decode a support bitmap over `DOM³` into sorted, distinct arity-3 rows.
fn rows_of(cells: &[u32]) -> Vec<(Vec<u32>, u32)> {
    cells
        .iter()
        .enumerate()
        .filter(|(_, &x)| x > 0)
        .map(|(i, &x)| {
            let i = i as u32;
            (vec![i / (DOM * DOM), (i / DOM) % DOM, i % DOM], x)
        })
        .collect()
}

fn schema3() -> Vec<Var> {
    vec![Var(0), Var(1), Var(2)]
}

/// Assert the three construction paths agree for one carrier type, and that
/// the trie each factor builds on first use indexes the listing by
/// definition.
fn check_paths<E: SemiringElem>(rows: &[(Vec<u32>, E)]) {
    // Reference: the sorting constructor, fed the rows in reverse (it may
    // not rely on input order).
    let mut reversed: Vec<(Vec<u32>, E)> = rows.to_vec();
    reversed.reverse();
    let reference = Factor::new(schema3(), reversed).unwrap();

    // Path 1: from_sorted_distinct over pre-flattened storage.
    let flat: Vec<u32> = rows.iter().flat_map(|(t, _)| t.iter().copied()).collect();
    let vals: Vec<E> = rows.iter().map(|(_, v)| v.clone()).collect();
    let direct = Factor::from_sorted_distinct(schema3(), flat, vals).unwrap();
    assert_eq!(direct, reference);
    assert_trie_indexes(direct.trie(), &reference);

    // Path 2: builder pushes.
    let mut builder = FactorBuilder::new(schema3()).unwrap();
    for (t, v) in rows {
        builder.push(t, v.clone());
    }
    let pushed = builder.finish();
    assert_eq!(pushed, reference);
    assert_trie_indexes(pushed.trie(), &reference);

    // Path 3: chunked appends (the parallel k-way merge shape): split the
    // stream at first-column boundaries, build a chunk builder per piece,
    // append them into one builder.
    let mut merged = FactorBuilder::new(schema3()).unwrap();
    let mut i = 0;
    while i < rows.len() {
        let cut = rows[i].0[0];
        let mut chunk = FactorBuilder::new(schema3()).unwrap();
        while i < rows.len() && rows[i].0[0] == cut {
            chunk.push(&rows[i].0, rows[i].1.clone());
            i += 1;
        }
        merged.append(chunk);
    }
    let merged = merged.finish();
    assert_eq!(merged, reference);
    assert_trie_indexes(merged.trie(), &reference);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Counting carrier (`u64`).
    #[test]
    fn counting_flat_paths_agree(
        cells in proptest::collection::vec(0u32..3, (DOM * DOM * DOM) as usize),
    ) {
        let rows: Vec<(Vec<u32>, u64)> =
            rows_of(&cells).into_iter().map(|(t, x)| (t, x as u64)).collect();
        check_paths(&rows);
    }

    /// Max-tropical carrier (`f64` in log space — bit-level equality).
    #[test]
    fn max_tropical_flat_paths_agree(
        cells in proptest::collection::vec(0u32..4, (DOM * DOM * DOM) as usize),
    ) {
        let rows: Vec<(Vec<u32>, f64)> =
            rows_of(&cells).into_iter().map(|(t, x)| (t, x as f64 * 0.25)).collect();
        check_paths(&rows);
    }

    /// Boolean carrier.
    #[test]
    fn boolean_flat_paths_agree(
        cells in proptest::collection::vec(0u32..2, (DOM * DOM * DOM) as usize),
    ) {
        let rows: Vec<(Vec<u32>, bool)> =
            rows_of(&cells).into_iter().map(|(t, _)| (t, true)).collect();
        check_paths(&rows);
    }

    /// Reorder (index-ordered through the builder) matches a reference
    /// rebuild under the permuted schema, on both sides of the index sort's
    /// counting/comparison choice (see [`spread_rows`]).
    #[test]
    fn reorder_matches_reference(
        raw in proptest::collection::vec(0u32..1_000_000, 0..400),
        dom in 2u32..24,
        sparse in 0u32..2,
    ) {
        let rows = spread_rows(&raw, dom, sparse == 1);
        let f = Factor::new(schema3(), rows.clone()).unwrap();
        for perm in [[2u32, 0, 1], [1, 2, 0], [2, 1, 0], [1, 0, 2], [0, 2, 1], [0, 1, 2]] {
            let new_schema: Vec<Var> = perm.iter().map(|&i| Var(i)).collect();
            let got = f.reorder(&new_schema);
            let expect = Factor::new(
                new_schema.clone(),
                rows.iter()
                    .map(|(t, v)| (perm.iter().map(|&i| t[i as usize]).collect(), *v))
                    .collect(),
            )
            .unwrap();
            assert_eq!(got, expect, "perm {perm:?}");
        }
    }

    /// A reordering projection matches the sort-of-pairs reference: keys in
    /// listing order, stably sorted, each group folded left to right. The
    /// values are floats of mixed magnitude, so a group folded in any other
    /// order sums to different bits.
    #[test]
    fn projection_matches_reference(
        raw in proptest::collection::vec(0u32..1_000_000, 0..400),
        dom in 2u32..24,
        sparse in 0u32..2,
    ) {
        let rows = spread_rows(&raw, dom, sparse == 1);
        let f = Factor::new(schema3(), rows.clone()).unwrap();
        for keep in [&[1usize][..], &[2], &[1, 2], &[0, 2], &[0, 1]] {
            let keep_vars: Vec<Var> = keep.iter().map(|&i| Var(i as u32)).collect();
            let got = f.project_combine(&keep_vars, |a, b| a + b, |&x| x == 0.0);
            let mut pairs: Vec<(Vec<u32>, f64)> =
                rows.iter().map(|(t, v)| (keep.iter().map(|&i| t[i]).collect(), *v)).collect();
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            let mut groups: Vec<(Vec<u32>, f64)> = Vec::new();
            for (key, v) in pairs {
                match groups.last_mut() {
                    Some((last, sum)) if *last == key => *sum += v,
                    _ => groups.push((key, v)),
                }
            }
            let expect = Factor::new(keep_vars, groups).unwrap();
            assert_eq!(got, expect, "keep {keep:?}");
        }
    }
}

/// Distinct arity-3 rows drawn from `raw` with values below `dom` — except
/// that a `sparse` listing stretches column 1 by 2²⁰, so its maximum is far
/// above any row count here and the index sort must keep comparing, while a
/// dense listing of ≥ 64 rows takes the counting passes (and one of a few
/// rows compares again). Projected keys collide freely at every size.
fn spread_rows(raw: &[u32], dom: u32, sparse: bool) -> Vec<(Vec<u32>, f64)> {
    let stretch = if sparse { 1 << 20 } else { 1 };
    let rows: std::collections::BTreeMap<Vec<u32>, f64> = raw
        .iter()
        .map(|&h| {
            let row = vec![h % dom, (h / dom % dom) * stretch, h / (dom * dom) % dom];
            (row, f64::from(h % 997 + 1) * 10f64.powi((h % 31) as i32 - 15))
        })
        .collect();
    rows.into_iter().collect()
}

#[test]
fn from_sorted_distinct_rejects_malformed_storage() {
    // rows/vals length mismatch surfaces as an arity error, not a panic.
    assert!(Factor::<u64>::from_sorted_distinct(schema3(), vec![0, 0], vec![1]).is_err());
    // Nullary schemas hold at most one value.
    assert!(Factor::<u64>::from_sorted_distinct(vec![], vec![], vec![1, 2]).is_err());
    assert_eq!(
        Factor::<u64>::from_sorted_distinct(vec![], vec![], vec![7]).unwrap().get(&[]),
        Some(&7)
    );
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "strictly ascending")]
fn builder_rejects_unsorted_rows_in_debug() {
    let mut b = FactorBuilder::<u64>::new(schema3()).unwrap();
    b.push(&[1, 0, 0], 1);
    b.push(&[0, 0, 0], 1);
}

/// Spill one factor at several chunk geometries and check every
/// backing-agnostic accessor against the in-memory original: equality,
/// column/value reads (ascending then descending, so the 2-chunk LRU
/// window must evict and re-fault), column maxima, point lookups, and the
/// indicator-projection family — including reordering (non-prefix) keeps,
/// which run on a heap copy of a spilled listing — conditioning, reordering
/// and re-spilling at another chunk geometry.
fn check_spilled_accessors<E>(mem: &Factor<E>, one: E)
where
    E: SemiringElem + faq::factor::FixedBytes + PartialEq,
{
    // Chunk geometries around the natural boundary C = 4: a single row per
    // chunk, C − 1, C, and C + 1, so rows straddle chunk boundaries in
    // every alignment the reader can see.
    for chunk_rows in [1usize, 3, 4, 5] {
        let config = SpillConfig {
            chunk_rows,
            level_chunk_entries: chunk_rows,
            window_chunks: 2,
            ..SpillConfig::default()
        };
        let spilled = mem.to_spilled(config.clone());
        assert!(spilled.is_spilled());
        assert_eq!(&spilled, mem, "chunk_rows {chunk_rows}");
        assert_eq!(spilled.len(), mem.len());
        // Chunks on disk: the values chunks that are not uniform (a uniform
        // one keeps its one value resident), plus each level's chunks of 64
        // entries (`level_chunk_entries` rounds up to the head stride).
        let stats = spilled.spill_stats().expect("a spilled factor has stats");
        let encoded = |i: usize| {
            let mut bytes = Vec::new();
            faq::factor::FixedBytes::encode(mem.value(i), &mut bytes);
            bytes
        };
        let plain = (0..mem.len())
            .step_by(chunk_rows)
            .filter(|&s| (s..mem.len().min(s + chunk_rows)).any(|i| encoded(i) != encoded(s)))
            .count();
        let levels: usize = (0..mem.arity()).map(|d| mem.trie().level(d).len().div_ceil(64)).sum();
        assert_eq!(stats.chunks, plain + levels);
        for d in 0..mem.arity() {
            assert_eq!(spilled.max_in_column(d), mem.max_in_column(d), "col {d} max");
        }
        for i in (0..mem.len()).chain((0..mem.len()).rev()) {
            for d in 0..mem.arity() {
                assert_eq!(spilled.col(i, d), mem.col(i, d), "row {i} col {d}");
            }
            assert!(spilled.value_at(i).as_ref() == mem.value(i), "value {i}");
        }
        // One builder, two sinks: the levels streamed to disk hold what the
        // heap levels of the same rows hold (`level_chunk_entries` rounds up
        // to the 64-entry head stride), compared from either side.
        assert!(spilled.trie() == mem.trie() && mem.trie() == spilled.trie());
        // Point lookups pin chunks on demand.
        let mut probe = vec![0u32; mem.arity()];
        for i in 0..mem.len() {
            for (d, slot) in probe.iter_mut().enumerate() {
                *slot = mem.col(i, d);
            }
            assert!(spilled.get_cloned(&probe).as_ref() == Some(mem.value(i)));
        }
        assert!(spilled.get_cloned(&vec![DOM; mem.arity()]).is_none());
        // Prefix and reordering projections agree with the heap path.
        for keep in [vec![Var(0)], vec![Var(0), Var(1)], vec![Var(1), Var(2)], vec![Var(2)]] {
            assert_eq!(
                spilled.indicator_projection(&keep, one.clone()),
                mem.indicator_projection(&keep, one.clone()),
                "indicator keep {keep:?} chunk_rows {chunk_rows}"
            );
        }
        for var in schema3() {
            for value in 0..DOM {
                assert_eq!(spilled.condition(var, value), mem.condition(var, value));
            }
        }
        let order = [Var(2), Var(0), Var(1)];
        assert_eq!(spilled.reorder(&order), mem.reorder(&order));
        // A merge reads each part through its chunks, whatever its backing.
        let keep_first = |a: &E, _: &E| a.clone();
        let merged =
            Factor::merge_sorted(vec![spilled.clone(), mem.clone()], keep_first, |_| false);
        assert_eq!(&merged, mem, "merge of the spilled and heap copies");
        let respilled =
            spilled.to_spilled(SpillConfig { chunk_rows: chunk_rows % 5 + 2, ..config });
        assert_eq!(respilled, spilled, "re-spilled at chunk_rows {}", chunk_rows % 5 + 2);
        assert_eq!(&respilled, mem);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// File-chunked accessors ≡ the in-memory listing, counting carrier.
    #[test]
    fn counting_spilled_accessors_agree(
        cells in proptest::collection::vec(0u32..3, (DOM * DOM * DOM) as usize),
    ) {
        let rows: Vec<(Vec<u32>, u64)> =
            rows_of(&cells).into_iter().map(|(t, x)| (t, x as u64)).collect();
        if !rows.is_empty() {
            let mem = Factor::new(schema3(), rows).unwrap();
            check_spilled_accessors(&mem, 1u64);
        }
    }

    /// File-chunked accessors ≡ the in-memory listing, max-tropical carrier
    /// (`f64` — the fixed-width codec round-trips through `to_bits`).
    #[test]
    fn max_tropical_spilled_accessors_agree(
        cells in proptest::collection::vec(0u32..4, (DOM * DOM * DOM) as usize),
    ) {
        let rows: Vec<(Vec<u32>, f64)> =
            rows_of(&cells).into_iter().map(|(t, x)| (t, x as f64 * 0.25)).collect();
        if !rows.is_empty() {
            let mem = Factor::new(schema3(), rows).unwrap();
            check_spilled_accessors(&mem, 0.0f64);
        }
    }

    /// File-chunked accessors ≡ the in-memory listing, boolean carrier.
    #[test]
    fn boolean_spilled_accessors_agree(
        cells in proptest::collection::vec(0u32..2, (DOM * DOM * DOM) as usize),
    ) {
        let rows: Vec<(Vec<u32>, bool)> =
            rows_of(&cells).into_iter().map(|(t, _)| (t, true)).collect();
        if !rows.is_empty() {
            let mem = Factor::new(schema3(), rows).unwrap();
            check_spilled_accessors(&mem, true);
        }
    }
}

/// Spill chunks live in a per-listing directory that is removed when the
/// last handle (factor clones included) drops — no on-disk residue.
#[test]
fn spill_directory_removed_when_last_handle_drops() {
    let base = std::env::temp_dir().join(format!("faq-flat-factor-cleanup-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let count = |dir: &std::path::Path| std::fs::read_dir(dir).unwrap().count();
    assert_eq!(count(&base), 0, "fresh base directory must be empty");

    let rows: Vec<(Vec<u32>, u64)> =
        (0..64u32).map(|i| (vec![i / 16, (i / 4) % 4, i % 4], u64::from(i) + 1)).collect();
    let mem = Factor::new(schema3(), rows).unwrap();
    let spilled = mem.to_spilled(SpillConfig {
        dir: Some(base.clone()),
        chunk_rows: 7,
        level_chunk_entries: 7,
        window_chunks: 2,
    });
    assert_eq!(count(&base), 1, "spilling creates exactly one directory");

    // A clone shares the directory; dropping the original must not delete it.
    let clone = spilled.clone();
    drop(spilled);
    assert_eq!(count(&base), 1, "directory outlives the original while a clone reads");
    assert_eq!(clone.col(63, 2), 3);

    drop(clone);
    assert_eq!(count(&base), 0, "last drop removes the spill directory");
    std::fs::remove_dir(&base).unwrap();
}
