//! Property tests: the columnar trie index is an exact, drop-in equivalent of
//! the sorted listing representation.
//!
//! Three layers of evidence over random factors and queries:
//!
//! 1. **Structure** — depth-first trie-cursor enumeration visits exactly the
//!    listing's rows, in order, ending at the right row indices; and the one
//!    trie builder fills its two sinks alike: the disk-sink trie of a spilled
//!    copy is `==` the heap-sink trie of the same rows, and indexes them by
//!    definition, at listing chunks of 1 / 63 / 64 / 65 / all rows and level
//!    chunks of 64 / 128 entries;
//! 2. **Conditional queries** — trie seeks ([`faq::factor::TrieLevel`] lub)
//!    and range-restricted root views agree with the listing's
//!    `seek_column`/`prefix_range` oracle at every depth, and `Factor::get`
//!    agrees with a linear scan;
//! 3. **Joins** — InsideOut over the trie join kernel is bit-identical to
//!    brute force over the listings ([`faq::core::naive_eval`]) and to
//!    [`Engine::sequential`] across the counting, max-tropical, and boolean
//!    semirings for thread counts {1, 2, 4}, at the sequential seek count on
//!    one thread (the listing join *kernel* ≡ the trie kernel, seek counts
//!    included, is pinned where both live: `faq_join`'s
//!    `listing_and_trie_agree_bit_for_bit`);
//! 4. **Seek kernels** — the galloping/block-search `lub_from` of the default
//!    [`faq::factor::VecStorage`] matches the `partition_point` oracle on
//!    adversarial windows (empty, singleton, all-equal, head-sample boundary
//!    sizes 63/64/65) for every hint, and hint-carrying cursor seek sequences
//!    match the stateless listing oracle probe for probe;
//! 5. **Spilled storage** — file-chunked ([`faq::factor::SpillConfig`])
//!    inputs produce bit-identical join outputs to the same factors on the
//!    heap across semirings and thread counts, for chunk sizes 1 / C−1 / C /
//!    C+1 (rows straddling every boundary alignment), at identical 1-thread
//!    seek counts.

use faq::core::{naive_eval, Engine, ExecPolicy, FaqQuery, VarAgg};
use faq::factor::{Domains, Factor, LevelStorage, SpillConfig, TrieCursor, VecStorage};
use faq::hypergraph::Var;
use faq::semiring::{AggDomain, BoolDomain, CountDomain, MaxPlus, SingleSemiringDomain};
use proptest::prelude::*;

mod common;
use common::{assert_trie_indexes, dfs, pairs_factor, skeleton, DOM};

/// Build an arity-3 factor over `DOM³` from a support/value bitmap.
fn factor3(cells: &[u32]) -> Factor<u64> {
    let tuples: Vec<(Vec<u32>, u64)> = cells
        .iter()
        .enumerate()
        .filter(|(_, &x)| x > 0)
        .map(|(i, &x)| {
            let i = i as u32;
            (vec![i / (DOM * DOM), (i / DOM) % DOM, i % DOM], x as u64)
        })
        .collect();
    Factor::new(vec![Var(0), Var(1), Var(2)], tuples).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cursor enumeration (open/up/seek/next) visits exactly the listing.
    #[test]
    fn cursor_enumerates_the_listing(
        cells in proptest::collection::vec(0u32..3, (DOM * DOM * DOM) as usize),
    ) {
        let f = factor3(&cells);
        let mut got = Vec::new();
        dfs(&mut TrieCursor::new(f.trie()), &mut Vec::new(), &mut got);
        let expect: Vec<(Vec<u32>, usize)> =
            (0..f.len()).map(|i| (f.row(i).to_vec(), i)).collect();
        prop_assert_eq!(got, expect);
    }

    /// Heap-sink trie ≡ disk-sink trie for the same rows: up to 512 rows over
    /// `8³`, so the listing spans several chunks at every `chunk_rows` but
    /// the last and the deepest level spans several level chunks (64 is the
    /// head stride `level_chunk_entries` rounds up to). `==` runs from both
    /// sides; the definition check and the cursor walk read the disk levels
    /// back through a 2-chunk window.
    #[test]
    fn heap_sink_trie_equals_disk_sink_trie(
        cells in proptest::collection::vec(0u32..2, 512),
    ) {
        let tuples: Vec<(Vec<u32>, u64)> = cells
            .iter()
            .enumerate()
            .filter(|(_, &x)| x > 0)
            .map(|(i, _)| (vec![i as u32 / 64, i as u32 / 8 % 8, i as u32 % 8], i as u64 + 1))
            .collect();
        let mem = Factor::new(vec![Var(0), Var(1), Var(2)], tuples).unwrap();
        if !mem.is_empty() {
            let listing: Vec<(Vec<u32>, usize)> =
                (0..mem.len()).map(|i| (mem.row(i).to_vec(), i)).collect();
            for chunk_rows in [1usize, 63, 64, 65, mem.len()] {
                for level_chunk_entries in [64usize, 128] {
                    let config = SpillConfig {
                        chunk_rows,
                        level_chunk_entries,
                        window_chunks: 2,
                        ..Default::default()
                    };
                    let spilled = mem.to_spilled(config);
                    prop_assert!(
                        spilled.trie() == mem.trie() && mem.trie() == spilled.trie(),
                        "chunk_rows {} level_chunk_entries {}", chunk_rows, level_chunk_entries
                    );
                    assert_trie_indexes(spilled.trie(), &mem);
                    let mut walked = Vec::new();
                    dfs(&mut TrieCursor::new(spilled.trie()), &mut Vec::new(), &mut walked);
                    prop_assert_eq!(&walked, &listing);
                }
            }
        }
    }

    /// Trie seeks match the listing's `seek_column` oracle along random
    /// descents, and `Factor::get` matches a linear scan.
    #[test]
    fn seeks_match_listing_oracle(
        cells in proptest::collection::vec(0u32..2, (DOM * DOM * DOM) as usize),
        probes in proptest::collection::vec(0u32..(DOM * DOM * DOM + 7), 24),
    ) {
        let f = factor3(&cells);
        for &p in &probes {
            // Decode the probe into a descent prefix and a seek bound.
            let tuple = [p / (DOM * DOM) % DOM, (p / DOM) % DOM, p % DOM];
            let bound = p % (DOM + 2); // may exceed the domain
            let depth = (p as usize) % 3;

            // Listing descent (reference): prefix_range per column.
            let mut range = (0usize, f.len());
            let mut alive = true;
            for (d, &value) in tuple.iter().enumerate().take(depth) {
                range = f.prefix_range(range, d, value);
                if range.0 == range.1 {
                    alive = false;
                    break;
                }
            }
            // Trie descent: find per level.
            let mut cur = TrieCursor::new(f.trie());
            let mut trie_alive = true;
            for &value in tuple.iter().take(depth) {
                match cur.seek(value) {
                    Some(v) if v == value => cur.open(v),
                    _ => {
                        trie_alive = false;
                        break;
                    }
                }
            }
            prop_assert_eq!(alive, trie_alive, "descent to {:?}", &tuple[..depth]);
            if alive {
                prop_assert_eq!(
                    f.seek_column(range, depth, bound),
                    cur.seek(bound),
                    "seek {} at depth {} under {:?}", bound, depth, &tuple[..depth]
                );
            }

            // Point lookups.
            let expect = f.iter().find(|(r, _)| *r == tuple.as_slice()).map(|(_, v)| v);
            prop_assert_eq!(f.get(&tuple), expect);
        }
    }

    /// Range-restricted root views see exactly the listing rows whose first
    /// column lies in the range.
    #[test]
    fn range_views_match_filtered_listing(
        cells in proptest::collection::vec(0u32..2, (DOM * DOM * DOM) as usize),
        lo in 0u32..DOM + 1,
        width in 0u32..DOM + 1,
    ) {
        let f = factor3(&cells);
        let hi = lo + width;
        let view = f.trie().view((lo, hi));
        let expect: Vec<Vec<u32>> = f
            .iter()
            .filter(|(r, _)| lo <= r[0] && r[0] < hi)
            .map(|(r, _)| r.to_vec())
            .collect();
        prop_assert_eq!(view.num_rows(), expect.len());
        let mut got = Vec::new();
        dfs(&mut view.cursor(), &mut Vec::new(), &mut got);
        let got_rows: Vec<Vec<u32>> = got.into_iter().map(|(r, _)| r).collect();
        prop_assert_eq!(got_rows, expect);
    }
}

/// Sorted value arrays with adversarial shapes for the seek kernel: empty,
/// singleton, all-equal runs, and sizes straddling the head-sample stride
/// (63/64/65) and the block width.
fn kernel_values() -> impl Strategy<Value = Vec<u32>> {
    (0usize..5, proptest::collection::btree_set(0u32..1_000, 1..131usize), 0u32..60, 1usize..131)
        .prop_map(|(kind, set, v, n)| {
            let sorted: Vec<u32> = set.into_iter().collect();
            match kind {
                0 => Vec::new(),
                1 => vec![v],
                2 => vec![v; n], // all-equal run (sorted, not distinct)
                3 => {
                    // Head-sample boundary size, padded with an ascending
                    // tail if the drawn set came up short.
                    let target = [63usize, 64, 65, 127, 128, 129][n % 6];
                    let mut xs = sorted;
                    while xs.len() < target {
                        let next = xs.last().map_or(0, |&x| x + 1);
                        xs.push(next);
                    }
                    xs.truncate(target);
                    xs
                }
                _ => sorted,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The branch-free galloping kernel is bit-identical to the
    /// `partition_point` oracle on every window, for every hint — valid,
    /// stale, or absent. One probe = one seek under both kernels, so results
    /// agree at identical seek counts by construction.
    #[test]
    fn gallop_kernel_matches_partition_point_oracle(
        values in kernel_values(),
        probes in proptest::collection::vec(
            (0usize..140, 0usize..140, 0usize..150, 0u32..1_100),
            1..40,
        ),
    ) {
        let offsets: Vec<usize> = (0..=values.len()).collect();
        let storage = VecStorage::from_parts(values.clone(), offsets.clone(), offsets);
        for &(a, b, h, bound) in &probes {
            let n = values.len();
            let (lo, hi) = if a.min(n) <= b.min(n) {
                (a.min(n), b.min(n))
            } else {
                (b.min(n), a.min(n))
            };
            // Draws past 140 stand in for "no hint".
            let hint = if h >= 140 { usize::MAX } else { h.min(n) };
            let want = lo + values[lo..hi].partition_point(|&v| v < bound);
            prop_assert_eq!(
                storage.lub_from((lo, hi), hint, bound),
                want,
                "n={} lo={} hi={} hint={} bound={}", n, lo, hi, hint, bound
            );
        }
    }

    /// A hint-carrying cursor fed an arbitrary (not necessarily monotone)
    /// bound sequence answers every probe exactly like the stateless listing
    /// oracle — the gallop hint is an accelerator, never a semantic.
    #[test]
    fn hinted_seek_sequences_match_the_stateless_oracle(
        cells in proptest::collection::vec(0u32..2, (DOM * DOM * DOM) as usize),
        bounds in proptest::collection::vec(0u32..DOM + 3, 1..32),
    ) {
        let f = factor3(&cells);
        let mut cur = TrieCursor::new(f.trie());
        for &b in &bounds {
            prop_assert_eq!(
                cur.seek(b),
                f.seek_column((0, f.len()), 0, b),
                "bound {}", b
            );
        }
    }
}

/// Thread counts under test for the join-equivalence layer.
const THREADS: [usize; 3] = [1, 2, 4];

/// Evaluate over the trie kernel for every thread count and assert the
/// outputs are bit-identical to brute force over the listings.
fn assert_engine_matches_listings<D: AggDomain + Sync>(q: &FaqQuery<D>) {
    let reference = naive_eval(q);
    let sequential = Engine::sequential().evaluate(q).unwrap();
    assert_eq!(sequential.factor, reference, "sequential engine diverged from naive");
    for threads in THREADS {
        let policy = ExecPolicy::sequential().threads(threads).min_chunk_rows(1);
        let out = Engine::with_policy(policy).evaluate(q).unwrap();
        assert_eq!(out.factor, reference, "diverged under threads={threads}");
        // A one-thread policy is the sequential engine, whatever its chunk
        // floor. (Chunked runs search each range from its own root, so counts
        // are only pinned at 1 thread.)
        if threads == 1 {
            assert_eq!(out.stats.total_seeks(), sequential.stats.total_seeks());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Counting semiring: sum / max / product aggregate mixes.
    #[test]
    fn counting_listing_equals_trie(
        s01 in proptest::collection::vec(0u32..3, (DOM * DOM) as usize),
        s12 in proptest::collection::vec(0u32..3, (DOM * DOM) as usize),
        s02 in proptest::collection::vec(0u32..3, (DOM * DOM) as usize),
        aggs in proptest::collection::vec(0usize..3, 3),
        free in 0usize..3,
    ) {
        let f01 = pairs_factor(0, 1, &s01, |i| s01[i] as u64);
        let f12 = pairs_factor(1, 2, &s12, |i| s12[i] as u64);
        let f02 = pairs_factor(0, 2, &s02, |i| s02[i] as u64);
        let (free_vars, bound) = skeleton(free, &aggs, |a| match a {
            0 => VarAgg::Semiring(CountDomain::SUM),
            1 => VarAgg::Semiring(CountDomain::MAX),
            _ => VarAgg::Product,
        });
        let q = FaqQuery::new(
            CountDomain,
            Domains::uniform(3, DOM),
            free_vars,
            bound,
            vec![f01, f12, f02],
        ).unwrap();
        assert_engine_matches_listings(&q);
    }

    /// Max-tropical semiring on an f64 carrier: bit-identity, not tolerance.
    #[test]
    fn max_tropical_listing_equals_trie(
        s01 in proptest::collection::vec(0u32..4, (DOM * DOM) as usize),
        s12 in proptest::collection::vec(0u32..4, (DOM * DOM) as usize),
        aggs in proptest::collection::vec(0usize..2, 3),
        free in 0usize..3,
    ) {
        let val = |s: &[u32]| {
            let s = s.to_vec();
            move |i: usize| s[i] as f64 * 0.25
        };
        let f01 = pairs_factor(0, 1, &s01, val(&s01));
        let f12 = pairs_factor(1, 2, &s12, val(&s12));
        let (free_vars, bound) = skeleton(free, &aggs, |a| match a {
            0 => VarAgg::Semiring(SingleSemiringDomain::<MaxPlus>::OP),
            _ => VarAgg::Product,
        });
        let q = FaqQuery::new(
            SingleSemiringDomain::new(MaxPlus),
            Domains::uniform(3, DOM),
            free_vars,
            bound,
            vec![f01, f12],
        ).unwrap();
        assert_engine_matches_listings(&q);
    }

    /// Boolean semiring: ∃ / ∀ quantifier mixes.
    #[test]
    fn boolean_listing_equals_trie(
        s01 in proptest::collection::vec(0u32..2, (DOM * DOM) as usize),
        s12 in proptest::collection::vec(0u32..2, (DOM * DOM) as usize),
        s02 in proptest::collection::vec(0u32..2, (DOM * DOM) as usize),
        aggs in proptest::collection::vec(0usize..2, 3),
        free in 0usize..3,
    ) {
        let f01 = pairs_factor(0, 1, &s01, |_| true);
        let f12 = pairs_factor(1, 2, &s12, |_| true);
        let f02 = pairs_factor(0, 2, &s02, |_| true);
        let (free_vars, bound) = skeleton(free, &aggs, |a| match a {
            0 => VarAgg::Semiring(BoolDomain::OR),
            _ => VarAgg::Product,
        });
        let q = FaqQuery::new(
            BoolDomain,
            Domains::uniform(3, DOM),
            free_vars,
            bound,
            vec![f01, f12, f02],
        ).unwrap();
        assert_engine_matches_listings(&q);
    }
}

/// Larger single-shot case: enough rows that real chunking engages, with a
/// free variable so the guard phase and final output join run too.
#[test]
fn large_query_listing_equals_trie_under_chunking() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut r = StdRng::seed_from_u64(90210);
    let d = 48u32;
    let mut mk = |a: u32, b: u32| {
        let mut tuples = std::collections::BTreeMap::new();
        for _ in 0..2500 {
            tuples.insert(vec![r.gen_range(0..d), r.gen_range(0..d)], r.gen_range(1..5u64));
        }
        Factor::new(vec![Var(a), Var(b)], tuples.into_iter().collect()).unwrap()
    };
    let q = FaqQuery::new(
        CountDomain,
        Domains::uniform(3, d),
        vec![Var(0)],
        vec![
            (Var(1), VarAgg::Semiring(CountDomain::SUM)),
            (Var(2), VarAgg::Semiring(CountDomain::MAX)),
        ],
        vec![mk(0, 1), mk(1, 2), mk(0, 2)],
    )
    .unwrap();
    assert_engine_matches_listings(&q);
}

/// A spill geometry with `chunk_rows` rows per chunk and a deliberately tiny
/// pinned window, so even these small factors page chunks in and out.
fn tiny_spill(chunk_rows: usize) -> SpillConfig {
    SpillConfig {
        chunk_rows,
        level_chunk_entries: chunk_rows,
        window_chunks: 2,
        ..Default::default()
    }
}

/// Evaluate `q` along the fixed ordering `(0, 1, 2)` — every triangle factor
/// schema is a subsequence of it, so spilled inputs join without realignment
/// — and assert the output is bit-identical to `reference` for thread counts
/// {1, 2, 4}. Returns the 1-thread seek count.
fn eval_triangle_order<D: AggDomain + Sync>(
    q: &FaqQuery<D>,
    reference: Option<&Factor<D::E>>,
) -> (Factor<D::E>, u64) {
    let mut one_thread = None;
    for threads in THREADS {
        let policy = ExecPolicy::sequential().threads(threads).min_chunk_rows(1);
        let out =
            Engine::with_policy(policy).evaluate_with_order(q, &[Var(0), Var(1), Var(2)]).unwrap();
        if let Some(r) = reference {
            assert_eq!(&out.factor, r, "diverged at threads={threads}");
        }
        if threads == 1 {
            one_thread = Some((out.factor, out.stats.total_seeks()));
        }
    }
    one_thread.expect("THREADS contains 1")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// File-chunked inputs are a drop-in for the heap listing on the join
    /// path: any subset of the triangle's factors may spill, under chunk
    /// sizes 1, C−1, C, C+1 (C = 4, so 16-row factors straddle every
    /// boundary alignment), and outputs stay bit-identical across thread
    /// counts with 1-thread seek counts unchanged.
    #[test]
    fn spilled_counting_inputs_equal_mem_inputs(
        s01 in proptest::collection::vec(0u32..3, (DOM * DOM) as usize),
        s12 in proptest::collection::vec(0u32..3, (DOM * DOM) as usize),
        s02 in proptest::collection::vec(0u32..3, (DOM * DOM) as usize),
        chunk_pick in 0usize..4,
        spill_mask in 1u32..8,
        aggs in proptest::collection::vec(0usize..2, 3),
        free in 0usize..3,
    ) {
        let chunk_rows = [1usize, 3, 4, 5][chunk_pick];
        let mem = vec![
            pairs_factor(0, 1, &s01, |i| s01[i] as u64),
            pairs_factor(1, 2, &s12, |i| s12[i] as u64),
            pairs_factor(0, 2, &s02, |i| s02[i] as u64),
        ];
        let spilled: Vec<Factor<u64>> = mem
            .iter()
            .enumerate()
            .map(|(i, f)| {
                if spill_mask & (1 << i) != 0 && !f.is_empty() {
                    f.to_spilled(tiny_spill(chunk_rows))
                } else {
                    f.clone()
                }
            })
            .collect();
        let (free_vars, bound) = skeleton(free, &aggs, |a| match a {
            0 => VarAgg::Semiring(CountDomain::SUM),
            _ => VarAgg::Semiring(CountDomain::MAX),
        });
        let mk = |factors| {
            FaqQuery::new(
                CountDomain,
                Domains::uniform(3, DOM),
                free_vars.clone(),
                bound.clone(),
                factors,
            )
            .unwrap()
        };
        let (reference, mem_seeks) = eval_triangle_order(&mk(mem), None);
        let (_, spill_seeks) = eval_triangle_order(&mk(spilled), Some(&reference));
        // Seeks are counted in the join layer, above the storage backend, and
        // the file-chunked `lub_from` answers exactly like `VecStorage` — so
        // sequential seek counts must not move at all.
        prop_assert_eq!(mem_seeks, spill_seeks);
    }

    /// Same drop-in claim on the max-tropical f64 carrier (bit-identity of
    /// the float payloads through the encode/decode roundtrip, not
    /// tolerance).
    #[test]
    fn spilled_tropical_inputs_equal_mem_inputs(
        s01 in proptest::collection::vec(0u32..4, (DOM * DOM) as usize),
        s12 in proptest::collection::vec(0u32..4, (DOM * DOM) as usize),
        chunk_pick in 0usize..4,
        free in 0usize..3,
    ) {
        let val = |s: &[u32]| {
            let s = s.to_vec();
            move |i: usize| s[i] as f64 * 0.25
        };
        let chunk_rows = [1usize, 3, 4, 5][chunk_pick];
        let f01 = pairs_factor(0, 1, &s01, val(&s01));
        let f12 = pairs_factor(1, 2, &s12, val(&s12));
        let spill = |f: &Factor<f64>| {
            if f.is_empty() { f.clone() } else { f.to_spilled(tiny_spill(chunk_rows)) }
        };
        let (f01s, f12s) = (spill(&f01), spill(&f12));
        let (free_vars, bound) = skeleton(free, &[0, 0, 0], |_| {
            VarAgg::Semiring(SingleSemiringDomain::<MaxPlus>::OP)
        });
        let mk = |factors| {
            FaqQuery::new(
                SingleSemiringDomain::new(MaxPlus),
                Domains::uniform(3, DOM),
                free_vars.clone(),
                bound.clone(),
                factors,
            )
            .unwrap()
        };
        let (reference, _) = eval_triangle_order(&mk(vec![f01, f12]), None);
        eval_triangle_order(&mk(vec![f01s, f12s]), Some(&reference));
    }
}
