//! The out-of-core residency claim, under two independent gauges: a triangle
//! count over a spilled relation `R` at least 4× the resident cap keeps the
//! peak of simultaneously pinned chunk bytes under the cap
//! ([`faq::factor::peak_pinned_bytes`]), keeps the peak heap growth of
//! generation + evaluation (the counting allocator) far below `R`'s on-disk
//! bytes — `R` streams into its trie levels on disk as it is generated, and
//! is never materialised — and returns exactly the planted count.
//!
//! It runs twice per thread count: along the written order, and along the
//! order `Engine::evaluate` plans. The 1-thread runs also pin their fault
//! patterns: their seek counts and the chunks they fault in
//! ([`faq::factor::chunk_reads`]) are constants, so a change to the spilled
//! seek path that faults a different set of chunks, or a planner that picks
//! another order, fails here; the planned run reads no more chunks than the
//! written one.
//!
//! One test in a binary of its own: all three gauges are process-global.

use faq::factor::{chunk_reads, peak_pinned_bytes, reset_peak_pinned_bytes, SpillConfig};
use faq::*;
use faq_testalloc::{current_bytes, peak_bytes, reset_peak_bytes, CountingAllocator};
use rand::{rngs::StdRng, Rng, SeedableRng};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const ROWS: usize = 200_000;
const NODES: u32 = 2048;
const PLANTED: usize = 64;
/// The resident cap: over half again the 8-chunk window's peak (49 152 B at
/// 1 thread, 49 176–53 272 B at 4 as the workers interleave), and under the
/// 114 712 B that a 24-chunk window pins. `R` holds 812 312 B on disk (level
/// entries only: its values chunks are uniform), over 4× the cap.
const CAP_BYTES: usize = 80 << 10;
/// The 1-thread run's seeks and chunk fault-ins along the written order
/// `(a, b, c)`.
const SEEKS_1T: u64 = 9823;
/// Level chunks only: `R` is indexed when it is written, so evaluating reads
/// no values chunk (every one is uniform, its value resident) and no key
/// listing (it has none; 196 of the 343 reads before were its chunks).
const CHUNK_READS_1T: u64 = 147;
/// The same along the order `Engine::evaluate` plans, `(a, c, b)`.
const PLANNED_SEEKS_1T: u64 = 1722;
/// As above: level chunks only (268 before, less `R`'s 196 listing chunks).
const PLANNED_CHUNK_READS_1T: u64 = 72;

/// `Σ_a Σ_b Σ_c R(a,b)·S(b,c)·T(a,c)`, with `R` streamed into `r` as
/// ascending random keys (by gaps, so the generator's state is O(1)) and
/// every `ROWS / PLANTED`-th edge `(a, b)` closed by a private `c`: `S` gains
/// `(b, c)`, `T` gains `(a, c)`. Each `c` pairs one `S` edge with one `T`
/// edge, so the triangle count is exactly `PLANTED` with no oracle needed.
fn planted_triangles(mut r: FactorBuilder<u64>) -> FaqQuery<CountDomain> {
    let mut rng = StdRng::seed_from_u64(41);
    let nodes = u64::from(NODES);
    // Even at the largest gap every time, the keys stay inside nodes².
    let max_gap = nodes * nodes / ROWS as u64;
    let (mut s, mut t) = (Vec::new(), Vec::new());
    let mut key = 0u64;
    for i in 0..ROWS {
        key += rng.gen_range(1..=max_gap);
        let (a, b) = ((key / nodes) as u32, (key % nodes) as u32);
        r.push(&[a, b], 1u64);
        if i % (ROWS / PLANTED) == 0 {
            let c = s.len() as u32;
            s.push((vec![b, c], 1u64));
            t.push((vec![a, c], 1u64));
        }
    }
    assert_eq!(s.len(), PLANTED);
    let sum = VarAgg::Semiring(CountDomain::SUM);
    FaqQuery::new(
        CountDomain,
        Domains::new(vec![NODES, NODES, PLANTED as u32]),
        vec![],
        vec![(Var(0), sum), (Var(1), sum), (Var(2), sum)],
        vec![
            r.finish(),
            Factor::new(vec![Var(1), Var(2)], s).unwrap(),
            Factor::new(vec![Var(0), Var(2)], t).unwrap(),
        ],
    )
    .unwrap()
}

/// Count along `order`, or, when it is `None`, along the ordering
/// `Engine::evaluate` plans. The written order `(a, b, c)` is the one every
/// schema already follows, so the spilled `R` is never realigned; neither is
/// it along the plan's `(a, c, b)`, which reorders only the small `S`.
/// Returns the count and the run's seeks.
fn count(q: &FaqQuery<CountDomain>, threads: usize, order: Option<&[Var]>) -> (u64, u64) {
    let engine = Engine::with_policy(ExecPolicy::with_threads(threads).min_chunk_rows(1024));
    let out = match order {
        Some(sigma) => engine.evaluate_with_order(q, sigma),
        None => engine.evaluate(q),
    };
    let out = out.unwrap();
    (out.factor.get(&[]).copied().unwrap_or(0), out.stats.total_seeks())
}

#[test]
fn spilled_triangle_count_stays_under_the_resident_cap() {
    let schema = vec![Var(0), Var(1)];
    let spill = SpillConfig {
        chunk_rows: 1024,
        level_chunk_entries: 1024,
        window_chunks: 8,
        ..SpillConfig::default()
    };
    let written = [Var(0), Var(1), Var(2)];
    for threads in [1, 4] {
        // (seeks, chunk reads) of each 1-thread run: written, then planned.
        let mut pins = Vec::new();
        for order in [Some(&written[..]), None] {
            let what = format!("{threads} threads, σ = {order:?} (None: planned)");
            let heap_before = current_bytes();
            reset_peak_bytes();
            let r = FactorBuilder::new_spilled(schema.clone(), spill.clone()).unwrap();
            let q = planted_triangles(r);
            if order.is_none() {
                let plan = Planner::sequential().plan(&q).unwrap();
                assert_eq!(plan.order, [Var(0), Var(2), Var(1)], "the planned σ");
            }
            let file_bytes = q.factors[0].spill_stats().expect("R is spilled").file_bytes;
            assert!(file_bytes >= 4 * CAP_BYTES, "R ({file_bytes} B) must dwarf the cap");
            reset_peak_pinned_bytes();
            let reads_before = chunk_reads();
            let (n, seeks) = count(&q, threads, order);
            let reads = chunk_reads() - reads_before;
            assert_eq!(n, PLANTED as u64, "{what}");
            pins.push((seeks, reads));
            let peak_pinned = peak_pinned_bytes();
            assert!(
                peak_pinned <= CAP_BYTES,
                "{what}: peak pinned chunk bytes {peak_pinned} exceed the {CAP_BYTES} B cap"
            );
            let heap_growth = peak_bytes().saturating_sub(heap_before) as usize;
            assert!(
                heap_growth < file_bytes / 2,
                "{what}: peak heap growth {heap_growth} B against {file_bytes} B on disk — \
                 the listing must stream, not materialise"
            );
        }
        if threads == 1 {
            assert_eq!(
                pins,
                [(SEEKS_1T, CHUNK_READS_1T), (PLANNED_SEEKS_1T, PLANNED_CHUNK_READS_1T)],
                "1 thread: (seeks, chunk reads) moved — the spilled seek path faults other \
                 chunks, or the planner chose another σ"
            );
            assert!(pins[1].1 <= pins[0].1, "the planned run reads more chunks than the written");
        }
    }
    // The in-memory twin (same seed, same rows) counts the same.
    let twin = planted_triangles(FactorBuilder::new(schema).unwrap());
    assert_eq!(count(&twin, 4, Some(&written)).0, PLANTED as u64);
    assert_eq!(count(&twin, 4, None).0, PLANTED as u64);
}
