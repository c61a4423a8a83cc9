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
//! A level's arrays live in a [`FactorLevel`]: the heap-backed
//! [`crate::storage::VecStorage`] (whose seek kernel gallops branch-free from
//! the cursor's last position, see [`crate::storage`]) or the file-chunked
//! [`crate::colstore::FileChunkedLevel`] a spilled factor's index lives in.
//! Both answer the [`LevelStorage`] seek contract bit for bit, so cursors,
//! views and the join above them never ask which one they walk.
//!
//! There is one way to build a trie: the crate-internal `TrieBuilder`, fed
//! rows in ascending order. A row's first difference from its predecessor
//! opens one entry at every level at or below that column; where an entry's
//! bytes go is the only thing that varies — heap `Vec`s, or a level chunk
//! that flushes to the spill file as it fills. [`crate::FactorBuilder`]
//! drives it row by row as a join emits its output, and
//! [`crate::Factor::trie`] drives it over a finished listing chunk by chunk
//! (an in-memory listing being the one-chunk case).
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
/// [`FactorLevel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrieLevel {
    storage: FactorLevel,
}

impl TrieLevel {
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

    /// The level's storage. A loop that seeks one level many times resolves
    /// it once (to [`crate::VecStorage`] when [`FactorLevel::as_mem`] says
    /// the level is on the heap) instead of dispatching per probe.
    pub fn storage(&self) -> &FactorLevel {
        &self.storage
    }
}

/// A columnar trie index over one factor: one [`TrieLevel`] per schema
/// column. Built by [`crate::Factor::trie`] (lazily, cached) — see the
/// [module docs](self) for layout and a worked example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactorTrie {
    levels: Vec<TrieLevel>,
    num_rows: usize,
}

impl FactorTrie {
    /// Number of levels (the factor's arity).
    pub fn arity(&self) -> usize {
        self.levels.len()
    }

    /// Number of listing rows below the root.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// The level indexing column `d`.
    pub fn level(&self, d: usize) -> &TrieLevel {
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
    pub fn view(&self, value_range: (u32, u32)) -> TrieView<'_> {
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
        let Some(level) = self.levels.first() else {
            return Vec::new();
        };
        let runs = (0..level.len()).map(|j| {
            let (lo, hi) = level.row_range(j);
            (level.value(j), hi - lo, true)
        });
        partition_runs(self.num_rows, max_chunks, runs)
    }
}

/// Cut a column's ascending value runs — `(value, rows, may a range start
/// here)` — into at most `max_chunks` half-open value ranges of roughly equal
/// row counts, never splitting a value: the shared engine of
/// [`FactorTrie::partition_root`], [`crate::Factor::column_partition`] and
/// its chunk-aligned form. The ranges ascend and cover `[0, u32::MAX)`; an
/// empty vector means "run sequentially" (fewer than 2 of the `len` rows,
/// `max_chunks ≤ 1`, or no legal cut).
pub(crate) fn partition_runs(
    len: usize,
    max_chunks: usize,
    runs: impl Iterator<Item = (u32, usize, bool)>,
) -> Vec<(u32, u32)> {
    if max_chunks <= 1 || len < 2 {
        return Vec::new();
    }
    let target = len.div_ceil(max_chunks);
    let mut ranges = Vec::new();
    let mut lo = 0u32;
    let mut taken = 0usize;
    for (value, rows, cuttable) in runs {
        if taken >= target && ranges.len() + 1 < max_chunks && cuttable {
            ranges.push((lo, value));
            lo = value;
            taken = 0;
        }
        taken += rows;
    }
    if !ranges.is_empty() {
        ranges.push((lo, u32::MAX));
    }
    ranges
}

/// Where the entries of one level under construction go: the one thing that
/// differs between building a trie on the heap and building it on disk.
pub(crate) trait LevelSink {
    /// Entries appended so far.
    fn len(&self) -> usize;

    /// Append an entry: its column value, the index of its first child in
    /// the next level (its row index at the deepest level) and its first
    /// listing row.
    fn push_entry(&mut self, value: u32, child_start: usize, row_start: usize);

    /// Seal the level; the arguments are the end sentinels of its `child`
    /// and `rows` offset arrays.
    fn seal(self, child_end: usize, rows_end: usize) -> FactorLevel;
}

/// The heap sink: the columnar arrays of a level minus their end sentinels.
#[derive(Debug, Clone, Default)]
pub(crate) struct HeapLevel {
    values: Vec<u32>,
    child: Vec<usize>,
    rows: Vec<usize>,
}

impl LevelSink for HeapLevel {
    fn len(&self) -> usize {
        self.values.len()
    }

    fn push_entry(&mut self, value: u32, child_start: usize, row_start: usize) {
        self.values.push(value);
        self.child.push(child_start);
        self.rows.push(row_start);
    }

    fn seal(mut self, child_end: usize, rows_end: usize) -> FactorLevel {
        self.child.push(child_end);
        self.rows.push(rows_end);
        FactorLevel::from_parts(self.values, self.child, self.rows)
    }
}

/// Construction of a [`FactorTrie`] from rows arriving in strictly ascending
/// lexicographic order — the only way one is built.
///
/// A row whose first difference from its predecessor is at column `c` opens
/// exactly one new entry at every level `≥ c` and extends the current entry
/// of every shallower level: amortized `O(arity)` per row, `O(arity × rows)`
/// for a whole listing. Elimination joins emit their output rows already
/// sorted, so [`crate::FactorBuilder`] grows an intermediate factor's index
/// entry by entry as rows are appended; [`crate::Factor::trie`] feeds a
/// finished listing through the same `push`, into heap levels or — for a
/// spilled listing — into one [`crate::colstore::LevelSpill`] per column.
#[derive(Debug, Clone)]
pub(crate) struct TrieBuilder<K = HeapLevel> {
    levels: Vec<K>,
    num_rows: usize,
}

impl TrieBuilder {
    /// An empty heap-backed trie under construction, one level per column.
    pub(crate) fn new(arity: usize) -> TrieBuilder {
        TrieBuilder::over((0..arity).map(|_| HeapLevel::default()).collect())
    }

    /// Make room for `rows` more rows where their number is known up front:
    /// the deepest level holds exactly one entry per row (plus the end
    /// sentinels), and it is the level whose regrowth costs.
    pub(crate) fn reserve_rows(&mut self, rows: usize) {
        if let Some(leaf) = self.levels.last_mut() {
            leaf.values.reserve_exact(rows);
            leaf.child.reserve_exact(rows + 1);
            leaf.rows.reserve_exact(rows + 1);
        }
    }
}

impl<K: LevelSink> TrieBuilder<K> {
    /// An empty trie under construction over the given per-column sinks.
    pub(crate) fn over(levels: Vec<K>) -> TrieBuilder<K> {
        TrieBuilder { levels, num_rows: 0 }
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
                debug_assert!(p < row, "trie rows must be strictly ascending");
                row.iter().zip(p).position(|(a, b)| a != b).expect("rows are distinct")
            }
        };
        for (d, &value) in row.iter().enumerate().skip(start) {
            // The new entry's first child is the entry the next level is
            // about to open for this same row (the row index itself at the
            // deepest level) — levels are appended top-down, so the next
            // level's current length is exactly that index.
            let child_start = if d + 1 < arity { self.levels[d + 1].len() } else { self.num_rows };
            self.levels[d].push_entry(value, child_start, self.num_rows);
        }
        self.num_rows += 1;
    }

    /// Append the `n` consecutive rows of one listing chunk (`rows` is
    /// row-major). `carry` holds the last row of the chunk before it and is
    /// left holding this chunk's last row, so a listing is fed chunk by
    /// chunk with one row copy per chunk.
    pub(crate) fn push_chunk(&mut self, rows: &[u32], n: usize, carry: &mut Vec<u32>) {
        let arity = self.levels.len();
        for i in 0..n {
            let prev = match i {
                0 if self.num_rows == 0 => None,
                0 => Some(&carry[..]),
                _ => Some(&rows[(i - 1) * arity..i * arity]),
            };
            self.push(&rows[i * arity..(i + 1) * arity], prev);
        }
        if n > 0 {
            carry.clear();
            carry.extend_from_slice(&rows[(n - 1) * arity..]);
        }
    }

    /// Seal the trie: every level gets its end sentinels — the next level's
    /// length (the row count at the deepest level) and the row count.
    pub(crate) fn finish(self) -> FactorTrie {
        let num_rows = self.num_rows;
        let mut child_ends: Vec<usize> = self.levels.iter().skip(1).map(K::len).collect();
        child_ends.push(num_rows);
        let levels = self
            .levels
            .into_iter()
            .zip(child_ends)
            .map(|(sink, child_end)| TrieLevel { storage: sink.seal(child_end, num_rows) })
            .collect();
        FactorTrie { levels, num_rows }
    }
}

/// A borrowed slice of a [`FactorTrie`]: the subtries whose root value lies in
/// a half-open value range. The parallel InsideOut engine gives each worker
/// one such view; a view over the full value range is the whole trie.
#[derive(Debug, Clone, Copy)]
pub struct TrieView<'t> {
    trie: &'t FactorTrie,
    root: (usize, usize),
}

impl<'t> TrieView<'t> {
    /// The underlying trie.
    pub fn trie(&self) -> &'t FactorTrie {
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
    pub fn cursor(&self) -> TrieCursor<'t> {
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
pub struct TrieCursor<'t> {
    trie: &'t FactorTrie,
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

impl<'t> TrieCursor<'t> {
    /// A cursor over the whole trie.
    pub fn new(trie: &'t FactorTrie) -> TrieCursor<'t> {
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

    /// The candidate entries of the current level, as a half-open window
    /// of `trie.level(self.depth())` — what [`TrieCursor::seek`] searches.
    pub fn window(&self) -> (usize, usize) {
        *self.windows.last().expect("root window")
    }

    /// The least candidate value `≥ bound` at the current level, or `None`
    /// when the window is exhausted. Remembers the located entry so a
    /// following [`TrieCursor::open`] of the same value is O(1), and seeds
    /// the next seek's gallop with it (leapfrog bounds only grow within a
    /// window, so the kernel rarely needs more than a few probes).
    pub fn seek(&mut self, bound: u32) -> Option<u32> {
        debug_assert!(!self.at_leaf(), "seek past the deepest level");
        let level = self.trie.level(self.path.len());
        let window = self.window();
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
        let window = self.window();
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
        let window = self.window();
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
