//! Property tests: the columnar trie index is an exact, drop-in equivalent of
//! the sorted listing representation.
//!
//! Four layers of evidence over random factors:
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
//! 3. **Seek kernels** — the galloping/block-search `lub_from` of the default
//!    [`faq::factor::VecStorage`] matches the `partition_point` oracle on
//!    adversarial windows (empty, singleton, all-equal, head-sample boundary
//!    sizes 63/64/65) for every hint, hint-carrying cursor seek sequences
//!    match the stateless listing oracle probe for probe, and a spilled
//!    level's `lub_from` (level chunks of 64 / 128 entries) matches the same
//!    oracle on every window, including windows that end on the next
//!    chunk's first entry;
//! 4. **One large join** through the engine's oracle (`common::oracle`).
//!
//! Joins over random queries — InsideOut over the trie kernel ≡ brute force
//! and ≡ the sequential engine for every semiring family and thread count,
//! over in-memory and file-chunked inputs at identical 1-thread seek counts —
//! are `tests/oracle.rs`'s; the listing join *kernel* ≡ the trie kernel, seek
//! counts included, is pinned where both live: `faq_join`'s
//! `listing_and_trie_agree_bit_for_bit`.

use faq::factor::{Factor, LevelStorage, SpillConfig, TrieCursor, VecStorage};
use faq::hypergraph::Var;
use proptest::prelude::*;

mod common;
use common::oracle::{check, Config, Instance, Path, Sigma};
use common::{assert_trie_indexes, dfs, random_triangle, DOM};

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

/// A spilled level's seek ≡ `partition_point` on every `(lo, hi)` window of
/// a 150-entry level, for bounds below, at, between and above the stored
/// values (`3i + 1`). At 64- and 128-entry level chunks, windows ending at
/// 65 / 129 / 193 hold the next chunk's first entry, which the seek reads
/// from the resident head samples; a one-chunk window makes every chunk
/// change a fault-in.
#[test]
fn spilled_level_seek_matches_partition_point_on_every_window() {
    let n = 150usize;
    let values: Vec<u32> = (0..n as u32).map(|i| 3 * i + 1).collect();
    let mem = Factor::new(vec![Var(0)], values.iter().map(|&v| (vec![v], 1u64)).collect()).unwrap();
    for level_chunk_entries in [64usize, 128] {
        let config = SpillConfig { level_chunk_entries, window_chunks: 1, ..Default::default() };
        let spilled = mem.to_spilled(config);
        let level = spilled.trie().level(0).storage();
        assert!(level.as_mem().is_none(), "the spilled factor's level is on disk");
        for lo in 0..=n {
            for hi in lo..=n {
                // Below, at and between (`v + 1`) every value of the
                // window, and above its last.
                let inside = values[lo..hi].iter().flat_map(|&v| [v, v + 1]);
                let bounds = [0, values.get(lo).map_or(0, |v| v - 1), u32::MAX].into_iter();
                for bound in bounds.chain(inside) {
                    let want = lo + values[lo..hi].partition_point(|&v| v < bound);
                    // The hint never matters: vary it anyway.
                    let hint = [usize::MAX, lo, hi][bound as usize % 3];
                    assert_eq!(
                        level.lub_from((lo, hi), hint, bound),
                        want,
                        "level chunks {level_chunk_entries}: lo {lo} hi {hi} bound {bound}"
                    );
                }
            }
        }
    }
}

/// Larger single-shot case, through the engine's oracle: enough rows that
/// real chunking engages, with a free variable so the guard phase and final
/// output join run too — 4 threads at chunk floor 1 under the plan's policy,
/// then every admission budget (1 thread at the sequential seek count).
#[test]
fn large_query_listing_equals_trie_under_chunking() {
    let inst = Instance::new(random_triangle(90210, 48, 2500));
    let config = Config {
        spill: None,
        threads: 4,
        min_chunk_rows: 1,
        sigma: Sigma::Own,
        path: Path::Prepared,
    };
    check(&inst, &config, &mut rand::SeedableRng::seed_from_u64(0));
}
