//! The pinned-chunk gauge ([`faq_factor::pinned_bytes`]) is process-global,
//! so the one test that asserts on its level lives here, alone in its own
//! test binary: no other test can pin or release a chunk between its reads.

use faq_factor::{peak_pinned_bytes, pinned_bytes, Factor, SpillConfig};
use faq_hypergraph::Var;

#[test]
fn pinned_gauge_rises_and_falls() {
    let rows: Vec<u32> = (0..64).collect();
    let cfg = SpillConfig { chunk_rows: 8, window_chunks: 2, ..SpillConfig::default() };
    let spilled =
        Factor::from_sorted_distinct(vec![Var(0)], rows, vec![1u64; 64]).unwrap().to_spilled(cfg);
    let before = pinned_bytes();
    for i in 0..64usize {
        let _ = spilled.col(i, 0);
    }
    assert!(pinned_bytes() > before, "chunks pinned while reading");
    assert!(peak_pinned_bytes() >= pinned_bytes());
    drop(spilled);
    assert!(pinned_bytes() <= before, "dropping the listing releases its pins");
}
