//! The seek contract of a trie level, and the branch-free kernel that
//! answers it on the heap.
//!
//! A [`crate::trie::FactorTrie`] level stores only what it cannot derive —
//! its sorted `values`, and above the deepest level its `child` offsets
//! (entry `j` of the deepest level is listing row `j`, so it stores no
//! offsets) — and one hot operation runs over them: the *windowed
//! least-upper-bound* seek behind every leapfrog join step. [`LevelStorage`]
//! is the contract every backing of those arrays answers: [`VecStorage`] on
//! the heap, the file-chunked [`crate::colstore::FileChunkedLevel`] on disk,
//! and [`crate::colstore::FactorLevel`] — the one type a trie level is
//! stored in — which dispatches between the two. The trie, its cursors and
//! the join above them are written once, against that contract.
//!
//! # Storage contract
//!
//! * `values` holds the level's entry values in **window-sorted** order:
//!   within each window — the half-open child range of one parent entry —
//!   values are strictly increasing (sorted and distinct). Values from
//!   different windows are unrelated.
//! * above the deepest level, `child` holds `len + 1` monotone offsets;
//!   entry `j` owns `child[j]..child[j+1]` in the next level. The listing
//!   rows below an entry follow from them
//!   ([`crate::trie::FactorTrie::rows_below`]).
//! * [`LevelStorage::lub_from`] must return **exactly**
//!   `lo + values[lo..hi].partition_point(|v| v < bound)` for any window
//!   `(lo, hi)` inside one parent window and *any* hint value — the hint may
//!   speed the search up but can never change the result. The join layer
//!   counts seeks per cursor call, so kernels are interchangeable without
//!   perturbing the engine's deterministic seek accounting.
//!
//! # The branch-free kernel
//!
//! [`VecStorage`] implements `lub_from` as exponential galloping from the
//! cursor's last position, finished by a fixed-width branchless block search:
//!
//! * **Warm seeks** (a valid hint — leapfrog bounds only grow within one
//!   window, so the previous match is almost always a valid start): verify
//!   `values[hint - 1] < bound` with one load, then gallop right in doubling
//!   steps until a probe `≥ bound` brackets the answer. Leapfrog
//!   intersections move in short hops, so gallops are usually 1–3 probes.
//! * **Cold seeks** (fresh window, no hint): a per-level *head-sample* array
//!   (`heads[k] = values[64k]`) is searched first; it is 64× smaller than the
//!   level, so the first probes hit cache, and the answer is narrowed to a
//!   window of at most 65 values.
//! * **Finish**: a conditional-move style `partition_point` halves the
//!   bracket without branching (`base += (probe < bound) as usize * half`)
//!   down to an 8-lane tail counted branch-free — a shape the compiler
//!   autovectorizes.

/// Backing storage of one trie level: the `values` array, the `child`
/// offsets above the deepest level, and the windowed-lub search over them.
/// The exact contract is in the `storage` module docs.
pub trait LevelStorage: Clone + std::fmt::Debug + PartialEq + Eq + Send + Sync {
    /// Assemble a level from its finished columnar arrays. `child` holds
    /// `values.len() + 1` monotone offsets above the deepest level and is
    /// empty at the deepest level, where entry `j` is row `j`.
    ///
    /// `rows` is ignored: no level stores row offsets, since the rows below
    /// an entry follow from the child offsets. The parameter stays only
    /// because the benchmark's `api.rs` calls this with three arguments.
    fn from_parts(values: Vec<u32>, child: Vec<usize>, rows: Vec<usize>) -> Self;

    /// Number of entries.
    fn len(&self) -> usize;

    /// Whether the level has no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value of entry `j`.
    fn value(&self, j: usize) -> u32;

    /// The `j`-th child offset (`j ≤ len`), above the deepest level only.
    fn child_at(&self, j: usize) -> usize;

    /// Heap bytes the level currently keeps resident.
    fn resident_bytes(&self) -> usize;

    /// The first index in `[lo, hi)` whose value is `≥ bound`, or `hi` when
    /// there is none — bit-identical to
    /// `lo + values[lo..hi].partition_point(|v| v < bound)`.
    ///
    /// `hint` is the caller's last matched index in this window (pass
    /// `usize::MAX` when cold); implementations may gallop from a valid hint
    /// but must return the same index for any hint value.
    fn lub_from(&self, window: (usize, usize), hint: usize, bound: u32) -> usize;
}

/// Values are sampled into the head array every `HEAD_STRIDE` entries.
pub(crate) const HEAD_STRIDE: usize = 64;

/// Tail width of the branchless block search; small enough to count with a
/// handful of vector lanes, large enough to end the halving loop early.
const LANES: usize = 8;

/// Branchless `partition_point` over `values[lo..hi]` (window-sorted):
/// conditional-move halving down to `LANES`, then a branch-free tail count.
#[inline]
pub(crate) fn block_lub(values: &[u32], lo: usize, hi: usize, bound: u32) -> usize {
    debug_assert!(lo <= hi && hi <= values.len());
    let mut base = lo;
    let mut len = hi - lo;
    // Invariant: the window's partition point lies in [base, base + len].
    // Each step halves the window around the midpoint probe with an
    // all-ones/all-zeros mask select. The `black_box` is load-bearing: the
    // probe outcome is a coin flip, and without it LLVM if-converts the mask
    // arithmetic back into a conditional jump whose ~50% mispredicts cost
    // more than the whole search (measured ~2× on uniform bounds).
    while len > LANES {
        let half = len / 2;
        let mid = base + half;
        let mask = std::hint::black_box(((values[mid - 1] < bound) as usize).wrapping_neg());
        base = (base & !mask) | (mid & mask);
        len -= half;
    }
    // Counted, not searched: the sum of `< bound` flags over a sorted tail
    // *is* the partition offset, and the loop has no data-dependent branch.
    let tail = &values[base..base + len];
    base + tail.iter().map(|&v| usize::from(v < bound)).sum::<usize>()
}

/// The default heap-backed level storage: plain `Vec`s plus the head-sample
/// array powering cold seeks. The kernel is described in the `storage`
/// module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VecStorage {
    values: Vec<u32>,
    /// `len + 1` offsets above the deepest level; empty at the deepest.
    child: Vec<usize>,
    /// `heads[k] = values[HEAD_STRIDE * k]` — the cache-friendly first probes
    /// of cold windows. Derived from `values`, so it never affects `==`
    /// semantics beyond what `values` already decides.
    heads: Vec<u32>,
}

/// Narrow a seek window `[lo, hi)` of one sorted level with its head samples
/// (`heads[k]` = entry `HEAD_STRIDE·k`) to the stretch that holds the least
/// entry `≥ bound`: at most `HEAD_STRIDE + 1` entries, of which only the upper
/// edge can be stride-aligned. Heap and spilled levels both narrow here, so
/// they agree bit for bit.
#[inline]
pub(crate) fn head_narrow(heads: &[u32], lo: usize, hi: usize, bound: u32) -> (usize, usize) {
    // Samples covering the window: heads[k] with HEAD_STRIDE·k ∈ [lo, hi).
    let ks = lo.div_ceil(HEAD_STRIDE);
    let ke = hi.div_ceil(HEAD_STRIDE);
    if ks >= ke {
        return (lo, hi);
    }
    // The samples are values from one sorted window, so they are sorted;
    // find the first sample ≥ bound.
    let p = block_lub(heads, ks, ke, bound);
    // Sample p−1 (if inside) is < bound: the answer lies strictly after its
    // position. Sample p (if inside) is ≥ bound: the answer lies at or before
    // its position.
    let nlo = if p > ks { HEAD_STRIDE * (p - 1) + 1 } else { lo };
    let nhi = if p < ke { (HEAD_STRIDE * p + 1).min(hi) } else { hi };
    (nlo, nhi)
}

impl VecStorage {
    /// Whether the level stores child offsets: every level but the deepest.
    pub(crate) fn is_interior(&self) -> bool {
        !self.child.is_empty()
    }

    /// Cold-window seek: narrow `[lo, hi)` with the head samples, then block
    /// search the surviving stretch (at most `HEAD_STRIDE + 1` values).
    #[inline]
    fn cold_lub(&self, lo: usize, hi: usize, bound: u32) -> usize {
        let (nlo, nhi) = head_narrow(&self.heads, lo, hi, bound);
        block_lub(&self.values, nlo, nhi, bound)
    }
}

impl LevelStorage for VecStorage {
    fn from_parts(values: Vec<u32>, child: Vec<usize>, _rows: Vec<usize>) -> VecStorage {
        debug_assert!(child.is_empty() || child.len() == values.len() + 1);
        let heads = values.iter().step_by(HEAD_STRIDE).copied().collect();
        VecStorage { values, child, heads }
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    fn value(&self, j: usize) -> u32 {
        self.values[j]
    }

    fn child_at(&self, j: usize) -> usize {
        self.child[j]
    }

    fn resident_bytes(&self) -> usize {
        (self.values.len() + self.heads.len()) * 4 + self.child.len() * std::mem::size_of::<usize>()
    }

    #[inline]
    fn lub_from(&self, (lo, hi): (usize, usize), hint: usize, bound: u32) -> usize {
        if lo >= hi {
            return hi;
        }
        // A hint is a valid gallop start iff the partition point cannot lie
        // before it: it is inside the window and its left neighbour is below
        // the bound. One extra load makes the hint safe for *any* caller
        // value instead of relying on a monotone-seek contract.
        if hint > lo && hint < hi {
            if self.values[hint - 1] >= bound {
                return self.cold_lub(lo, hi, bound);
            }
        } else if hint != lo {
            return self.cold_lub(lo, hi, bound);
        }
        if self.values[hint] >= bound {
            return hint; // leapfrog re-seek of the current match: 1 load
        }
        // Gallop right in doubling steps from the hint until a probe ≥ bound
        // brackets the answer in (prev, probe]; block search the bracket.
        let mut prev = hint;
        let mut step = 1usize;
        loop {
            let probe = prev + step;
            if probe >= hi {
                return block_lub(&self.values, prev + 1, hi, bound);
            }
            if self.values[probe] >= bound {
                return block_lub(&self.values, prev + 1, probe + 1, bound);
            }
            prev = probe;
            step <<= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storage_of(values: Vec<u32>) -> VecStorage {
        VecStorage::from_parts(values, Vec::new(), Vec::new())
    }

    /// The oracle the kernel must match bit for bit.
    fn oracle(values: &[u32], lo: usize, hi: usize, bound: u32) -> usize {
        lo + values[lo..hi].partition_point(|&v| v < bound)
    }

    #[test]
    fn kernel_matches_partition_point_for_every_window_hint_and_bound() {
        // Sizes straddling the head-sample stride and the block width.
        for n in [0usize, 1, 2, 7, 8, 9, 63, 64, 65, 130] {
            let values: Vec<u32> = (0..n as u32).map(|i| 3 * i + 1).collect();
            let s = storage_of(values.clone());
            for lo in 0..=n {
                for hi in lo..=n {
                    for bound in 0..=(3 * n as u32 + 2) {
                        let want = oracle(&values, lo, hi, bound);
                        for hint in (0..=n).chain([usize::MAX]) {
                            assert_eq!(
                                s.lub_from((lo, hi), hint, bound),
                                want,
                                "n={n} lo={lo} hi={hi} hint={hint} bound={bound}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_handles_duplicate_and_equal_runs() {
        // Sorted but non-distinct: the kernel contract only needs
        // sortedness, so all-equal windows must still match the oracle.
        let values = vec![5u32; 100];
        let s = storage_of(values.clone());
        for bound in [0u32, 4, 5, 6, u32::MAX] {
            for hint in [usize::MAX, 0, 1, 50, 99] {
                assert_eq!(s.lub_from((0, 100), hint, bound), oracle(&values, 0, 100, bound));
            }
        }
    }

    #[test]
    fn head_samples_follow_the_stride() {
        let s = storage_of((0..200u32).collect());
        assert_eq!(s.heads.len(), 200usize.div_ceil(HEAD_STRIDE));
        for (k, &h) in s.heads.iter().enumerate() {
            assert_eq!(h, s.value(HEAD_STRIDE * k));
        }
    }
}
