//! The out-of-core residency claim, under two independent gauges: a triangle
//! count over a spilled relation `R` at least 4× the resident cap keeps the
//! peak of simultaneously pinned chunk bytes under the cap
//! ([`faq::factor::peak_pinned_bytes`]), keeps the peak heap growth of
//! generation + evaluation (the counting allocator) far below `R`'s on-disk
//! bytes — the listing streams, it is never materialised — and returns
//! exactly the planted count.
//!
//! The 1-thread run also pins its fault pattern: its seek count and the
//! chunks it faults in ([`faq::factor::chunk_reads`]) are constants, so a
//! change to the spilled seek path that faults a different set of chunks
//! fails here.
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
const CAP_BYTES: usize = 700 << 10;
/// The 1-thread run's seeks and chunk fault-ins (listing and level chunks).
const SEEKS_1T: u64 = 9823;
const CHUNK_READS_1T: u64 = 407;

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

/// Count along `(a, b, c)`: every schema already follows it, so the spilled
/// `R` is never realigned. Returns the count and the run's seeks.
fn count(q: &FaqQuery<CountDomain>, threads: usize) -> (u64, u64) {
    let policy = ExecPolicy::with_threads(threads).min_chunk_rows(1024);
    let out = Engine::with_policy(policy).evaluate_with_order(q, &[Var(0), Var(1), Var(2)]);
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
    for threads in [1, 4] {
        let heap_before = current_bytes();
        reset_peak_bytes();
        let r = FactorBuilder::new_spilled(schema.clone(), spill.clone()).unwrap();
        let q = planted_triangles(r);
        let file_bytes = q.factors[0].spill_stats().expect("R is spilled").file_bytes;
        assert!(file_bytes >= 4 * CAP_BYTES, "R ({file_bytes} B) must dwarf the cap");
        reset_peak_pinned_bytes();
        let reads_before = chunk_reads();
        let (n, seeks) = count(&q, threads);
        let reads = chunk_reads() - reads_before;
        assert_eq!(n, PLANTED as u64, "{threads} threads");
        if threads == 1 {
            assert_eq!(
                (seeks, reads),
                (SEEKS_1T, CHUNK_READS_1T),
                "1 thread: (seeks, chunk reads) moved — the spilled seek path faults other chunks"
            );
        }
        let peak_pinned = peak_pinned_bytes();
        assert!(
            peak_pinned <= CAP_BYTES,
            "{threads} threads: peak pinned chunk bytes {peak_pinned} exceed the {CAP_BYTES} B cap"
        );
        let heap_growth = peak_bytes().saturating_sub(heap_before) as usize;
        assert!(
            heap_growth < file_bytes / 2,
            "{threads} threads: peak heap growth {heap_growth} B against {file_bytes} B on disk — \
             the listing must stream, not materialise"
        );
    }
    // The in-memory twin (same seed, same rows) counts the same.
    let twin = planted_triangles(FactorBuilder::new(schema).unwrap());
    assert_eq!(count(&twin, 4).0, PLANTED as u64);
}
