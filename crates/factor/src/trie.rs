//! Columnar trie index over a factor's sorted listing.
//!
//! A [`crate::Factor`] stores its non-zero tuples row-major and sorted
//! lexicographically. That ordering already *is* a trie — every distinct
//! prefix of length `d` is a trie node whose children share the prefix — but
//! walking it through the listing means every conditional query re-scans the
//! shared prefix columns with whole-row binary searches. A [`FactorTrie`]
//! materializes the trie once, columnar level by level, so that the seeks of
//! the OutsideIn join (paper Assumption 1: `O(log n)` conditional queries)
//! become searches over *distinct values of one column* and descents become
//! O(1) offset lookups.
//!
//! How a level's arrays are stored and searched is pluggable: every type here
//! is generic over a [`LevelStorage`] backend, defaulting to
//! [`crate::colstore::FactorLevel`] — an enum over the heap-backed
//! [`crate::storage::VecStorage`] (whose seek kernel gallops branch-free from
//! the cursor's last position, see [`crate::storage`]) and the file-chunked
//! [`crate::colstore::FileChunkedLevel`] a spilled factor's index lives in.
//! Downstream code that just writes `FactorTrie` / `TrieCursor` gets the
//! default and works over both backings.
//!
//! # Layout
//!
//! Level `d` holds one entry per distinct length-`d+1` row prefix, in
//! lexicographic order. Each entry stores
//!
//! * its column-`d` value ([`TrieLevel::value`]),
//! * the half-open range of its children among level `d+1`'s entries
//!   ([`TrieLevel::child_range`]), and
//! * the half-open range of listing rows below it ([`TrieLevel::row_range`]).
//!
//! At the deepest level every entry covers exactly one row (rows are
//! distinct), so entry index = row index and the trie leads straight back to
//! the factor's value array.
//!
//! # Worked example
//!
//! The factor `{(0,0)→a, (0,1)→b, (2,1)→c}` over schema `[x, y]` yields
//!
//! ```text
//! level 0 (x):  value 0 ── children 0..2 ── rows 0..2
//!               value 2 ── children 2..3 ── rows 2..3
//! level 1 (y):  value 0 ── rows 0..1        (prefix 0,0)
//!               value 1 ── rows 1..2        (prefix 0,1)
//!               value 1 ── rows 2..3        (prefix 2,1)
//! ```
//!
//! ```
//! use faq_factor::{Factor, TrieCursor};
//! use faq_hypergraph::v;
//!
//! let f = Factor::new(
//!     vec![v(0), v(1)],
//!     vec![(vec![0, 0], 'a'), (vec![0, 1], 'b'), (vec![2, 1], 'c')],
//! )
//! .unwrap();
//! // The index is built lazily on first use and cached on the factor.
//! let trie = f.trie();
//! assert_eq!(trie.level(0).len(), 2); // distinct x values: {0, 2}
//! assert_eq!(trie.level(1).len(), 3); // one leaf per row
//!
//! // Leapfrog-style navigation: seek the least x ≥ 1, descend, read a row.
//! let mut cur = TrieCursor::new(trie);
//! assert_eq!(cur.seek(1), Some(2)); // x = 1 is absent; lub is 2
//! cur.open(2);
//! assert_eq!(cur.seek(0), Some(1)); // under x = 2 the only y is 1
//! cur.open(1);
//! assert_eq!(f.value(cur.row()), &'c');
//! cur.up();
//! cur.up();
//! assert_eq!(cur.depth(), 0);
//! ```

use crate::colstore::FactorLevel;
use crate::storage::LevelStorage;

/// One level of a [`FactorTrie`]: the distinct length-`d+1` prefixes of the
/// factor's rows, in lexicographic order, stored columnar in a
/// [`LevelStorage`] backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrieLevel<S: LevelStorage = FactorLevel> {
    storage: S,
}

impl<S: LevelStorage> TrieLevel<S> {
    /// Wrap an already-assembled storage backend (the spill path builds its
    /// levels directly, bypassing [`LevelStorage::from_parts`]).
    pub(crate) fn from_storage(storage: S) -> TrieLevel<S> {
        TrieLevel { storage }
    }

    /// Number of entries (distinct prefixes) at this level.
    pub fn len(&self) -> usize {
        self.storage.len()
    }

    /// Whether the level has no entries (the factor is empty).
    pub fn is_empty(&self) -> bool {
        self.storage.is_empty()
    }

    /// The column value of entry `j`.
    pub fn value(&self, j: usize) -> u32 {
        self.storage.value(j)
    }

    /// Entry `j`'s children in the next level (row indices at the last level).
    pub fn child_range(&self, j: usize) -> (usize, usize) {
        (self.storage.child_at(j), self.storage.child_at(j + 1))
    }

    /// The listing rows below entry `j`.
    pub fn row_range(&self, j: usize) -> (usize, usize) {
        (self.storage.row_at(j), self.storage.row_at(j + 1))
    }

    /// The first entry in `window` whose value is `≥ bound`, or `None` — the
    /// trie-native "seek least upper bound" conditional query, delegated to
    /// the storage's seek kernel ([`LevelStorage::lub_from`]).
    pub fn lub(&self, window: (usize, usize), bound: u32) -> Option<usize> {
        self.lub_from(window, usize::MAX, bound)
    }

    /// [`TrieLevel::lub`] with a gallop hint — the caller's last matched
    /// entry in this window, or `usize::MAX` when cold. The hint never
    /// changes the result (the kernel contract pins it to the
    /// `partition_point` oracle); it only shortens warm searches.
    pub fn lub_from(&self, window: (usize, usize), hint: usize, bound: u32) -> Option<usize> {
        let j = self.storage.lub_from(window, hint, bound);
        (j < window.1).then_some(j)
    }

    /// The entry in `window` whose value equals `value` exactly, or `None`.
    pub fn find(&self, window: (usize, usize), value: u32) -> Option<usize> {
        self.lub(window, value).filter(|&j| self.storage.value(j) == value)
    }
}

/// A columnar trie index over one factor: one [`TrieLevel`] per schema
/// column. Built by [`crate::Factor::trie`] (lazily, cached) — see the
/// [module docs](self) for layout and a worked example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactorTrie<S: LevelStorage = FactorLevel> {
    levels: Vec<TrieLevel<S>>,
    num_rows: usize,
}

impl<S: LevelStorage> FactorTrie<S> {
    /// Assemble a trie from already-built levels (the spill path).
    pub(crate) fn from_levels(levels: Vec<TrieLevel<S>>, num_rows: usize) -> FactorTrie<S> {
        FactorTrie { levels, num_rows }
    }

    /// Build the index from a sorted, distinct, row-major listing.
    ///
    /// `rows` holds `num_rows × arity` values. One pass per level: level `d`
    /// opens an entry wherever the length-`d+1` prefix changes, which is
    /// wherever the parent level opened one *or* column `d` changes within a
    /// parent — `O(arity × num_rows)` total.
    pub(crate) fn build(arity: usize, rows: &[u32], num_rows: usize) -> FactorTrie<S> {
        debug_assert_eq!(rows.len(), num_rows * arity);
        // Raw columnar arrays per level — (values, row starts + end sentinel)
        // — assembled into storage only once the child offsets are linked.
        let mut raw: Vec<(Vec<u32>, Vec<usize>)> = Vec::with_capacity(arity);
        // Row starts of the previous level's entries; a single root covers
        // everything before level 0.
        let mut parent_starts: Vec<usize> = vec![0];
        for d in 0..arity {
            let col = |i: usize| rows[i * arity + d];
            let mut values = Vec::new();
            let mut starts = Vec::new();
            let mut parent = 0usize; // index into parent_starts
            for i in 0..num_rows {
                let new_parent = parent + 1 < parent_starts.len() && parent_starts[parent + 1] == i;
                if new_parent {
                    parent += 1;
                }
                if i == 0 || new_parent || col(i) != col(i - 1) {
                    values.push(col(i));
                    starts.push(i);
                }
            }
            parent_starts = starts.clone();
            starts.push(num_rows);
            raw.push((values, starts));
        }
        // Child offsets: entry boundaries of level d are a subset of level
        // d + 1's, so one merge pass per level links them; the deepest level's
        // entries each cover exactly one row.
        let mut childs: Vec<Vec<usize>> = Vec::with_capacity(arity);
        for d in 0..arity {
            let starts = &raw[d].1;
            let child = match raw.get(d + 1) {
                Some((next_values, next_starts)) => {
                    let mut child = Vec::with_capacity(starts.len());
                    let mut k = 0usize;
                    for &start in starts {
                        while k < next_values.len() && next_starts[k] < start {
                            k += 1;
                        }
                        child.push(k);
                    }
                    child
                }
                None => starts.clone(),
            };
            childs.push(child);
        }
        let levels = raw
            .into_iter()
            .zip(childs)
            .map(|((values, starts), child)| TrieLevel {
                storage: S::from_parts(values, child, starts),
            })
            .collect();
        FactorTrie { levels, num_rows }
    }

    /// Number of levels (the factor's arity).
    pub fn arity(&self) -> usize {
        self.levels.len()
    }

    /// Number of listing rows below the root.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// The level indexing column `d`.
    pub fn level(&self, d: usize) -> &TrieLevel<S> {
        &self.levels[d]
    }

    /// Heap bytes the index currently keeps resident, all levels together.
    pub fn resident_bytes(&self) -> usize {
        self.levels.iter().map(|l| l.storage.resident_bytes()).sum()
    }

    /// The root entry window: all of level 0.
    pub fn root(&self) -> (usize, usize) {
        (0, self.levels.first().map_or(0, TrieLevel::len))
    }

    /// A view of the trie restricted to root values in `[lo, hi)` — the
    /// chunk-shaped slice the parallel engine hands each worker.
    pub fn view(&self, value_range: (u32, u32)) -> TrieView<'_, S> {
        match self.levels.first() {
            None => TrieView { trie: self, root: (0, 0) },
            Some(level) => {
                let window = (0, level.len());
                let lo = level.storage.lub_from(window, usize::MAX, value_range.0);
                let hi = level.storage.lub_from(window, lo, value_range.1);
                TrieView { trie: self, root: (lo, hi) }
            }
        }
    }

    /// Partition the root level into at most `max_chunks` half-open *value*
    /// ranges of roughly equal row counts, never splitting a value.
    ///
    /// Trie-native [`crate::Factor::column_partition`] for column 0: the root
    /// level already lists the distinct values with their row counts, so no
    /// scan or sort of the listing is needed. Same contract: ranges cover
    /// `[0, u32::MAX)` in ascending order, and an empty vector means "run
    /// sequentially" (fewer than 2 rows, or `max_chunks ≤ 1`).
    pub fn partition_root(&self, max_chunks: usize) -> Vec<(u32, u32)> {
        if max_chunks <= 1 || self.num_rows < 2 {
            return Vec::new();
        }
        let level = &self.levels[0];
        let target = self.num_rows.div_ceil(max_chunks);
        let mut cuts: Vec<u32> = Vec::new();
        let mut taken = 0usize;
        for j in 0..level.len() {
            if taken >= target && cuts.len() + 1 < max_chunks {
                cuts.push(level.value(j));
                taken = 0;
            }
            let (lo, hi) = level.row_range(j);
            taken += hi - lo;
        }
        if cuts.is_empty() {
            return Vec::new();
        }
        let mut ranges = Vec::with_capacity(cuts.len() + 1);
        let mut lo = 0u32;
        for &c in &cuts {
            ranges.push((lo, c));
            lo = c;
        }
        ranges.push((lo, u32::MAX));
        ranges
    }
}

/// One level of a trie under streaming construction: the columnar arrays of a
/// [`TrieLevel`] minus their end sentinels, which [`TrieBuilder::finish`]
/// appends.
#[derive(Debug, Clone, Default)]
struct LevelBuilder {
    values: Vec<u32>,
    child: Vec<usize>,
    rows: Vec<usize>,
}

/// Incremental construction of a [`FactorTrie`] from rows arriving in strictly
/// ascending lexicographic order — the streaming twin of [`FactorTrie::build`].
///
/// Elimination joins emit their output rows already sorted, so the trie of an
/// intermediate factor can be grown entry by entry as rows are appended: a row
/// whose first difference from its predecessor is at column `c` opens exactly
/// one new entry at every level `≥ c`. Amortized `O(arity)` per row, and the
/// result is structurally identical (`==`) to what [`FactorTrie::build`] would
/// produce from the finished listing — asserted by tests and relied on by
/// [`crate::FactorBuilder`], which is the only way rows reach this type.
///
/// Accumulation is storage-agnostic (plain `Vec`s); [`TrieBuilder::finish`]
/// seals the levels into the target [`LevelStorage`].
#[derive(Debug, Clone)]
pub(crate) struct TrieBuilder<S: LevelStorage = FactorLevel> {
    levels: Vec<LevelBuilder>,
    num_rows: usize,
    _storage: std::marker::PhantomData<S>,
}

impl<S: LevelStorage> TrieBuilder<S> {
    /// An empty trie under construction, one level per column.
    pub(crate) fn new(arity: usize) -> TrieBuilder<S> {
        TrieBuilder {
            levels: (0..arity).map(|_| LevelBuilder::default()).collect(),
            num_rows: 0,
            _storage: std::marker::PhantomData,
        }
    }

    /// Append the next row. `prev` is the previously appended row (`None` for
    /// the first); the caller guarantees `prev < row` (checked in debug).
    pub(crate) fn push(&mut self, row: &[u32], prev: Option<&[u32]>) {
        let arity = self.levels.len();
        debug_assert_eq!(row.len(), arity);
        // First column where the prefix changes: every level at or below it
        // opens a new entry; shallower levels extend their current entry.
        let start = match prev {
            None => 0,
            Some(p) => {
                debug_assert!(p < row, "streaming trie rows must be strictly ascending");
                row.iter().zip(p).position(|(a, b)| a != b).expect("rows are distinct")
            }
        };
        for (d, &value) in row.iter().enumerate().skip(start) {
            // The new entry's first child is the entry the next level is
            // about to open for this same row (the row index itself at the
            // deepest level) — levels are appended top-down, so the next
            // level's current length is exactly that index.
            let child_start =
                if d + 1 < arity { self.levels[d + 1].values.len() } else { self.num_rows };
            let level = &mut self.levels[d];
            level.values.push(value);
            level.child.push(child_start);
            level.rows.push(self.num_rows);
        }
        self.num_rows += 1;
    }

    /// Seal the trie: append the end sentinels and assemble the levels.
    pub(crate) fn finish(self) -> FactorTrie<S> {
        let num_rows = self.num_rows;
        let arity = self.levels.len();
        let next_len: Vec<usize> = (0..arity)
            .map(|d| if d + 1 < arity { self.levels[d + 1].values.len() } else { num_rows })
            .collect();
        let levels = self
            .levels
            .into_iter()
            .zip(next_len)
            .map(|(mut lb, end)| {
                lb.child.push(end);
                lb.rows.push(num_rows);
                TrieLevel { storage: S::from_parts(lb.values, lb.child, lb.rows) }
            })
            .collect();
        FactorTrie { levels, num_rows }
    }
}

/// A borrowed slice of a [`FactorTrie`]: the subtries whose root value lies in
/// a half-open value range. The parallel InsideOut engine gives each worker
/// one such view; a view over the full value range is the whole trie.
#[derive(Debug)]
pub struct TrieView<'t, S: LevelStorage = FactorLevel> {
    trie: &'t FactorTrie<S>,
    root: (usize, usize),
}

impl<S: LevelStorage> Clone for TrieView<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: LevelStorage> Copy for TrieView<'_, S> {}

impl<'t, S: LevelStorage> TrieView<'t, S> {
    /// The underlying trie.
    pub fn trie(&self) -> &'t FactorTrie<S> {
        self.trie
    }

    /// The root entry window of this view.
    pub fn root(&self) -> (usize, usize) {
        self.root
    }

    /// Listing rows covered by the view.
    pub fn num_rows(&self) -> usize {
        let (lo, hi) = self.root;
        if lo == hi {
            return 0;
        }
        let level = self.trie.level(0);
        level.row_range(hi - 1).1 - level.row_range(lo).0
    }

    /// A cursor whose root-level candidates are restricted to the view.
    pub fn cursor(&self) -> TrieCursor<'t, S> {
        TrieCursor {
            trie: self.trie,
            windows: vec![self.root],
            path: Vec::new(),
            found: usize::MAX,
        }
    }
}

/// A leapfrog-style navigator over a [`FactorTrie`].
///
/// The cursor sits *between* levels: with `depth() == d` it has chosen an
/// entry at each of the first `d` levels and offers the entries of level `d`
/// within the chosen parent as candidates. [`TrieCursor::seek`] finds the
/// least candidate value `≥ bound` (galloping from the last match — see
/// [`crate::storage`]), [`TrieCursor::open`] descends into a sought value,
/// [`TrieCursor::next`] advances to the following sibling, and
/// [`TrieCursor::up`] backtracks. Once every level is open
/// ([`TrieCursor::at_leaf`]), [`TrieCursor::row`] is the listing row of the
/// full binding.
#[derive(Debug, Clone)]
pub struct TrieCursor<'t, S: LevelStorage = FactorLevel> {
    trie: &'t FactorTrie<S>,
    /// `windows[d]` = candidate entry window at level `d`; `windows` has one
    /// more frame than `path` (the candidates of the current level).
    windows: Vec<(usize, usize)>,
    /// The entry chosen at each open level.
    path: Vec<usize>,
    /// Entry located by the last [`TrieCursor::seek`]/[`TrieCursor::next`] at
    /// the current level; lets [`TrieCursor::open`] descend without
    /// re-searching and seeds the seek kernel's gallop.
    found: usize,
}

impl<'t, S: LevelStorage> TrieCursor<'t, S> {
    /// A cursor over the whole trie.
    pub fn new(trie: &'t FactorTrie<S>) -> TrieCursor<'t, S> {
        TrieCursor { trie, windows: vec![trie.root()], path: Vec::new(), found: usize::MAX }
    }

    /// Number of levels currently open.
    pub fn depth(&self) -> usize {
        self.path.len()
    }

    /// Whether every level is open (a full row is bound).
    pub fn at_leaf(&self) -> bool {
        self.path.len() == self.trie.arity()
    }

    /// The least candidate value `≥ bound` at the current level, or `None`
    /// when the window is exhausted. Remembers the located entry so a
    /// following [`TrieCursor::open`] of the same value is O(1), and seeds
    /// the next seek's gallop with it (leapfrog bounds only grow within a
    /// window, so the kernel rarely needs more than a few probes).
    pub fn seek(&mut self, bound: u32) -> Option<u32> {
        debug_assert!(!self.at_leaf(), "seek past the deepest level");
        let level = self.trie.level(self.path.len());
        let window = *self.windows.last().expect("root window");
        let j = level.lub_from(window, self.found, bound)?;
        self.found = j;
        Some(level.value(j))
    }

    /// The next candidate value after the last sought entry, or `None`.
    ///
    /// Named after the LeapFrog-TrieJoin primitive; the cursor is a
    /// navigator, not an [`Iterator`] (its items depend on interleaved
    /// `open`/`up` calls).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<u32> {
        let window = *self.windows.last().expect("root window");
        debug_assert!(self.found < window.1, "next without a prior seek");
        let j = self.found + 1;
        if j >= window.1 {
            return None;
        }
        self.found = j;
        Some(self.trie.level(self.path.len()).value(j))
    }

    /// Descend into the candidate with value `value` (which must be present —
    /// seek first). Uses the entry cached by the last seek when it matches.
    pub fn open(&mut self, value: u32) {
        let d = self.path.len();
        let level = self.trie.level(d);
        let window = *self.windows.last().expect("root window");
        let j = if self.found < window.1
            && self.found >= window.0
            && level.value(self.found) == value
        {
            self.found
        } else {
            level.find(window, value).expect("open of an absent value")
        };
        self.path.push(j);
        if d + 1 < self.trie.arity() {
            self.windows.push(level.child_range(j));
        }
        self.found = usize::MAX;
    }

    /// Backtrack one level. The parent's candidates become current again.
    pub fn up(&mut self) {
        let j = self.path.pop().expect("up at the root");
        if self.path.len() + 1 < self.trie.arity() {
            self.windows.pop();
        }
        self.found = j; // allow `next` (and the gallop) to resume after it
    }

    /// The listing row of the fully-bound tuple ([`TrieCursor::at_leaf`]).
    pub fn row(&self) -> usize {
        debug_assert!(self.at_leaf());
        let &leaf = self.path.last().expect("at_leaf checked");
        self.trie.level(self.trie.arity() - 1).row_range(leaf).0
    }

    /// The chosen value at the deepest open level.
    pub fn key(&self) -> u32 {
        let d = self.path.len();
        assert!(d > 0, "key at the root");
        self.trie.level(d - 1).value(self.path[d - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Factor;
    use faq_hypergraph::v;

    fn sample() -> Factor<u64> {
        // rows: (0,0,0) (0,0,2) (0,1,1) (2,1,0) (2,3,3)
        Factor::new(
            vec![v(0), v(1), v(2)],
            vec![
                (vec![0, 0, 0], 1),
                (vec![0, 0, 2], 2),
                (vec![0, 1, 1], 3),
                (vec![2, 1, 0], 4),
                (vec![2, 3, 3], 5),
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_levels() {
        let f = sample();
        let t = f.trie();
        assert_eq!(t.arity(), 3);
        assert_eq!(t.num_rows(), 5);
        // Level 0: distinct first-column values {0, 2}.
        assert_eq!(t.level(0).len(), 2);
        assert_eq!((t.level(0).value(0), t.level(0).row_range(0)), (0, (0, 3)));
        assert_eq!((t.level(0).value(1), t.level(0).row_range(1)), (2, (3, 5)));
        // Level 1: prefixes (0,0) (0,1) (2,1) (2,3).
        assert_eq!(t.level(1).len(), 4);
        assert_eq!(t.level(0).child_range(0), (0, 2));
        assert_eq!(t.level(0).child_range(1), (2, 4));
        assert_eq!(t.level(1).child_range(0), (0, 2)); // rows (0,0,0) (0,0,2)
                                                       // Level 2: one entry per row; entry index == row index.
        assert_eq!(t.level(2).len(), 5);
        for j in 0..5 {
            assert_eq!(t.level(2).row_range(j), (j, j + 1));
        }
    }

    #[test]
    fn cursor_walks_and_reads_rows() {
        let f = sample();
        let mut cur = TrieCursor::new(f.trie());
        assert_eq!(cur.seek(0), Some(0));
        cur.open(0);
        assert_eq!(cur.seek(1), Some(1));
        cur.open(1);
        assert_eq!(cur.seek(0), Some(1));
        cur.open(1);
        assert!(cur.at_leaf());
        assert_eq!(cur.row(), 2);
        assert_eq!(f.value(cur.row()), &3);
        cur.up();
        cur.up();
        // Back at level 1 under x0 = 0: resume after entry (0,1) — exhausted.
        assert_eq!(cur.next(), None);
        cur.up();
        assert_eq!(cur.next(), Some(2));
        assert_eq!(cur.depth(), 0);
    }

    #[test]
    fn seek_is_lub() {
        let f = sample();
        let t = f.trie();
        let mut cur = TrieCursor::new(t);
        assert_eq!(cur.seek(1), Some(2));
        assert_eq!(cur.seek(3), None);
        cur.open(2);
        assert_eq!(cur.seek(0), Some(1));
        assert_eq!(cur.seek(2), Some(3));
        assert_eq!(cur.seek(4), None);
    }

    #[test]
    fn seeks_with_descending_bounds_still_match_the_oracle() {
        // The gallop hint (cursor `found`) must never change a result, even
        // when bounds move backwards — the kernel validates the hint.
        let f =
            Factor::new(vec![v(0)], (0..200u32).map(|i| (vec![2 * i], 1u64)).collect::<Vec<_>>())
                .unwrap();
        let t = f.trie();
        let mut cur = TrieCursor::new(t);
        for bound in [0u32, 399, 5, 133, 132, 1, 398, 0, 400] {
            let got = cur.seek(bound);
            let want = (0..200u32).map(|i| 2 * i).find(|&x| x >= bound);
            assert_eq!(got, want, "bound {bound}");
        }
    }

    #[test]
    fn views_restrict_the_root() {
        let f = sample();
        let t = f.trie();
        assert_eq!(t.view((0, u32::MAX)).num_rows(), 5);
        let v01 = t.view((0, 1));
        assert_eq!(v01.num_rows(), 3);
        let mut cur = v01.cursor();
        assert_eq!(cur.seek(0), Some(0));
        cur.open(0);
        assert_eq!(cur.seek(0), Some(0));
        // Values ≥ the view's upper bound are invisible.
        let mut cur = v01.cursor();
        assert_eq!(cur.seek(1), None);
        assert_eq!(t.view((3, u32::MAX)).num_rows(), 0);
    }

    #[test]
    fn partition_matches_column_partition() {
        let f = Factor::new(
            vec![v(0), v(1)],
            vec![
                (vec![0, 0], 1u64),
                (vec![0, 1], 1),
                (vec![0, 2], 1),
                (vec![1, 0], 1),
                (vec![2, 0], 1),
                (vec![2, 1], 1),
                (vec![5, 0], 1),
                (vec![5, 1], 1),
            ],
        )
        .unwrap();
        for max_chunks in [1usize, 2, 3, 4, 8] {
            assert_eq!(
                f.trie().partition_root(max_chunks),
                f.column_partition(0, max_chunks),
                "max_chunks {max_chunks}"
            );
        }
    }

    #[test]
    fn empty_and_nullary_tries() {
        let e = Factor::<u64>::new(vec![v(0)], vec![]).unwrap();
        let t = e.trie();
        assert_eq!(t.root(), (0, 0));
        assert_eq!(TrieCursor::new(t).seek(0), None);
        assert!(t.partition_root(4).is_empty());
        let n = Factor::nullary(Some(7u64));
        assert_eq!(n.trie().arity(), 0);
        assert!(TrieCursor::new(n.trie()).at_leaf());
    }
}
