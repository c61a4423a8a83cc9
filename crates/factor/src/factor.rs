//! The [`Factor`] type: a sorted listing of non-zero entries, plus the
//! [`FactorBuilder`] that assembles factors column-flat from sorted row
//! streams.

use crate::colstore::{FileChunkedValues, FixedBytes, SpillConfig, SpillStats, SpillWriter};
use crate::trie::{partition_point, FactorTrie, TrieBuilder};
use faq_hypergraph::Var;
use faq_semiring::SemiringElem;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Errors raised by factor constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactorError {
    /// A tuple's arity does not match the schema.
    ArityMismatch {
        /// Expected arity (schema length).
        expected: usize,
        /// Arity of the offending tuple.
        got: usize,
    },
    /// The same tuple appeared twice in a constructor that forbids duplicates.
    DuplicateTuple(Vec<u32>),
    /// The schema lists the same variable twice.
    DuplicateSchemaVar(Var),
}

impl fmt::Display for FactorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FactorError::ArityMismatch { expected, got } => {
                write!(f, "tuple arity {got} does not match schema arity {expected}")
            }
            FactorError::DuplicateTuple(t) => write!(f, "duplicate tuple {t:?}"),
            FactorError::DuplicateSchemaVar(v) => write!(f, "schema lists {v} twice"),
        }
    }
}

impl std::error::Error for FactorError {}

/// A factor in the listing representation.
///
/// * `schema` — the variables of the factor, in column order;
/// * rows — the non-zero tuples, stored row-major and sorted lexicographically;
/// * one value of type `E` per row.
///
/// Invariants: distinct schema variables; rows sorted and distinct; values
/// never equal to the semiring zero (constructors take an `is_zero` predicate
/// where values can be combined).
///
/// The row-major storage is private; consumers read rows through the accessor
/// API ([`Factor::row`], [`Factor::value`], [`Factor::iter`]) or through the
/// columnar trie index ([`Factor::trie`]), which is built lazily on first use
/// and cached for the body's lifetime. A spilled factor has no row-major
/// listing: it is its trie, written to disk with the factor, plus a values
/// column by leaf entry; [`Factor::col`] and [`Factor::value_at`] read it.
///
/// # Sharing
///
/// A `Factor` is a handle on one immutable, `Arc`-shared body: nothing in the
/// API writes to a finished factor (every operation emits a *new* one, only
/// [`FactorBuilder`] mutates), so `Clone` is a reference-count bump for both
/// backings and copies no row, value or index. The trie slot lives *in* the
/// body, so an index built through any handle is seen by all of them — a
/// catalog relation read by several prepared queries and every epoch
/// snapshot of it is listed once and indexed once.
#[derive(Clone)]
pub struct Factor<E> {
    body: Arc<Body<E>>,
}

/// What every handle of one factor shares.
struct Body<E> {
    schema: Vec<Var>,
    cols: Columns<E>,
    len: usize,
    /// Columnar trie index (see [`FactorTrie`]): built lazily over a heap
    /// listing, filled at birth for a spilled factor, whose keys it holds.
    /// Equality compares rows, not how they are indexed.
    trie: OnceLock<FactorTrie>,
    /// Per-column maxima of an in-memory listing, filled by one pass the
    /// first time [`Factor::max_in_column`] asks (a spilled factor keeps its
    /// own, tracked at write time). Like `trie`, not part of the identity.
    col_maxes: OnceLock<Vec<u32>>,
}

/// The backing of a factor: heap-resident flat arrays (the default), or a
/// spilled factor's values column, one value per leaf entry of its trie,
/// whose levels are on disk too (see [`crate::colstore`]).
enum Columns<E> {
    Mem { rows: Vec<u32>, vals: Vec<E> },
    Spill(FileChunkedValues<E>),
}

/// A value read from a factor that may live on disk: borrowed from the heap
/// listing, or decoded (owned) out of a pinned spill chunk.
#[derive(Debug)]
pub enum ValRef<'a, E> {
    /// Borrowed from an in-memory listing.
    Borrowed(&'a E),
    /// Decoded out of a spilled chunk.
    Owned(E),
}

impl<E> AsRef<E> for ValRef<'_, E> {
    fn as_ref(&self) -> &E {
        match self {
            ValRef::Borrowed(e) => e,
            ValRef::Owned(e) => e,
        }
    }
}

impl<E> ValRef<'_, E> {
    /// Take the value by clone-or-move.
    pub(crate) fn into_owned(self) -> E
    where
        E: Clone,
    {
        match self {
            ValRef::Borrowed(e) => e.clone(),
            ValRef::Owned(e) => e,
        }
    }
}

impl<E> std::ops::Deref for ValRef<'_, E> {
    type Target = E;

    fn deref(&self) -> &E {
        self.as_ref()
    }
}

impl<E: SemiringElem> PartialEq for Factor<E> {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.body, &other.body) {
            return true;
        }
        if self.body.schema != other.body.schema || self.body.len != other.body.len {
            return false;
        }
        match (&self.body.cols, &other.body.cols) {
            (Columns::Mem { rows: ra, vals: va }, Columns::Mem { rows: rb, vals: vb }) => {
                ra == rb && va == vb
            }
            (Columns::Mem { .. }, Columns::Spill(_)) => other == self,
            // A spilled side against a heap one: walk its rows in order.
            (Columns::Spill(_), Columns::Mem { .. }) => {
                let (mut i, mut equal) = (0, true);
                self.for_each_row_grouped(true, &[], &mut |row, val| {
                    equal = equal && row == other.row(i) && val == other.value(i);
                    i += 1;
                });
                equal
            }
            // Two spilled factors: the same rows make the same trie.
            (Columns::Spill(_), Columns::Spill(_)) => {
                self.trie() == other.trie()
                    && (0..self.len()).all(|i| *self.value_at(i) == *other.value_at(i))
            }
        }
    }
}

impl<E: SemiringElem> fmt::Debug for Factor<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if self.is_spilled() { ", spilled" } else { "" };
        write!(f, "Factor{:?}[{} rows{tag}]", self.body.schema, self.body.len)?;
        if self.body.len <= 16 && !self.is_spilled() {
            write!(f, " {{")?;
            for i in 0..self.body.len {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:?}→{:?}", self.row(i), self.value(i))?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

impl<E> Factor<E> {
    /// Whether the listing lives on disk (file-chunked) rather than on the
    /// heap.
    pub fn is_spilled(&self) -> bool {
        matches!(self.body.cols, Columns::Spill(_))
    }

    /// The values column of a spilled factor, when it is one.
    pub(crate) fn spill_values(&self) -> Option<&FileChunkedValues<E>> {
        match &self.body.cols {
            Columns::Spill(c) => Some(c),
            Columns::Mem { .. } => None,
        }
    }

    #[track_caller]
    pub(crate) fn mem_rows(&self) -> &[u32] {
        match &self.body.cols {
            Columns::Mem { rows, .. } => rows,
            Columns::Spill(_) => {
                panic!("this operation requires an in-memory listing, but the factor is spilled")
            }
        }
    }

    #[track_caller]
    pub(crate) fn mem_vals(&self) -> &[E] {
        match &self.body.cols {
            Columns::Mem { vals, .. } => vals,
            Columns::Spill(_) => {
                panic!("this operation requires an in-memory listing, but the factor is spilled")
            }
        }
    }
}

impl<E: SemiringElem> Factor<E> {
    /// Build a factor from `(tuple, value)` pairs, rejecting duplicates.
    ///
    /// Zero values should already be absent; this constructor does not filter
    /// them (use [`Factor::with_combine`] when zeros may arise).
    pub fn new(schema: Vec<Var>, tuples: Vec<(Vec<u32>, E)>) -> Result<Self, FactorError> {
        check_schema(&schema)?;
        let arity = schema.len();
        let mut pairs: Vec<(Vec<u32>, E)> = Vec::with_capacity(tuples.len());
        for (t, v) in tuples {
            if t.len() != arity {
                return Err(FactorError::ArityMismatch { expected: arity, got: t.len() });
            }
            pairs.push((t, v));
        }
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        for w in pairs.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(FactorError::DuplicateTuple(w[0].0.clone()));
            }
        }
        Ok(Self::from_sorted_pairs(schema, pairs))
    }

    /// Build a factor combining duplicate tuples with `combine` and dropping
    /// rows whose final value satisfies `is_zero`.
    pub fn with_combine(
        schema: Vec<Var>,
        mut tuples: Vec<(Vec<u32>, E)>,
        mut combine: impl FnMut(&E, &E) -> E,
        mut is_zero: impl FnMut(&E) -> bool,
    ) -> Result<Self, FactorError> {
        check_schema(&schema)?;
        let arity = schema.len();
        for (t, _) in &tuples {
            if t.len() != arity {
                return Err(FactorError::ArityMismatch { expected: arity, got: t.len() });
            }
        }
        tuples.sort_by(|a, b| a.0.cmp(&b.0));
        let mut merged: Vec<(Vec<u32>, E)> = Vec::with_capacity(tuples.len());
        for (t, v) in tuples {
            match merged.last_mut() {
                Some((lt, lv)) if *lt == t => {
                    *lv = combine(lv, &v);
                }
                _ => merged.push((t, v)),
            }
        }
        merged.retain(|(_, v)| !is_zero(v));
        Ok(Self::from_sorted_pairs(schema, merged))
    }

    fn from_sorted_pairs(schema: Vec<Var>, pairs: Vec<(Vec<u32>, E)>) -> Self {
        let arity = schema.len();
        let len = pairs.len();
        let mut rows = Vec::with_capacity(len * arity);
        let mut vals = Vec::with_capacity(len);
        for (t, v) in pairs {
            rows.extend_from_slice(&t);
            vals.push(v);
        }
        Factor::from_parts(schema, Columns::Mem { rows, vals }, len, None)
    }

    /// The one place a body is made: the listing is moved in, never copied.
    fn from_parts(
        schema: Vec<Var>,
        cols: Columns<E>,
        len: usize,
        trie: Option<FactorTrie>,
    ) -> Self {
        let slot = OnceLock::new();
        if let Some(trie) = trie {
            let _ = slot.set(trie);
        }
        let body = Body { schema, cols, len, trie: slot, col_maxes: OnceLock::new() };
        Factor { body: Arc::new(body) }
    }

    /// Build a factor directly from column-flat storage whose rows are
    /// **already sorted and distinct** — the zero-copy fast path for join
    /// output, which is emitted in lexicographic order with distinct
    /// bindings, so the sort + duplicate scan of [`Factor::new`] is pure
    /// overhead.
    ///
    /// `rows` holds `vals.len() × schema.len()` values row-major. The
    /// sortedness contract is the caller's: it is verified with an `O(n)`
    /// pass in debug builds (the assertion fires on an out-of-order or
    /// duplicate row) and trusted in release builds. Errors only on malformed
    /// schemas or a `rows`/`vals` length mismatch — never on data, which it
    /// does not inspect outside debug mode.
    pub fn from_sorted_distinct(
        schema: Vec<Var>,
        rows: Vec<u32>,
        vals: Vec<E>,
    ) -> Result<Self, FactorError> {
        check_schema(&schema)?;
        let arity = schema.len();
        let len = vals.len();
        if arity == 0 && len > 1 {
            // Two values over the empty schema are two copies of the empty
            // tuple — report that, not a (vacuous) arity mismatch.
            return Err(FactorError::DuplicateTuple(Vec::new()));
        }
        if rows.len() != len * arity {
            return Err(FactorError::ArityMismatch {
                expected: arity,
                got: rows.len().checked_div(len).unwrap_or(rows.len()),
            });
        }
        debug_assert!(
            arity == 0
                || rows.len() <= arity
                || rows
                    .chunks_exact(arity)
                    .zip(rows[arity..].chunks_exact(arity))
                    .all(|(a, b)| a < b),
            "from_sorted_distinct requires strictly ascending rows"
        );
        Ok(Factor::from_parts(schema, Columns::Mem { rows, vals }, len, None))
    }

    /// A nullary (constant) factor: `Some(v)` is the scalar `v`, `None` is the
    /// empty factor (the constant zero).
    pub fn nullary(value: Option<E>) -> Self {
        let vals = value.into_iter().collect::<Vec<E>>();
        let len = vals.len();
        Factor::from_parts(Vec::new(), Columns::Mem { rows: Vec::new(), vals }, len, None)
    }

    /// Tabulate `f` over the full cross product of the schema's domains,
    /// keeping only non-zero entries. `dom_sizes[i]` is the domain size of
    /// `schema[i]`.
    pub fn dense(
        schema: Vec<Var>,
        dom_sizes: &[u32],
        mut f: impl FnMut(&[u32]) -> E,
        mut is_zero: impl FnMut(&E) -> bool,
    ) -> Result<Self, FactorError> {
        check_schema(&schema)?;
        assert_eq!(schema.len(), dom_sizes.len());
        let arity = schema.len();
        let mut pairs: Vec<(Vec<u32>, E)> = Vec::new();
        let mut cur = vec![0u32; arity];
        if dom_sizes.contains(&0) {
            return Ok(Self::from_sorted_pairs(schema, pairs));
        }
        loop {
            let v = f(&cur);
            if !is_zero(&v) {
                pairs.push((cur.clone(), v));
            }
            // Odometer increment; generates rows in sorted order already.
            let mut i = arity;
            loop {
                if i == 0 {
                    return Ok(Self::from_sorted_pairs(schema, pairs));
                }
                i -= 1;
                cur[i] += 1;
                if cur[i] < dom_sizes[i] {
                    break;
                }
                cur[i] = 0;
            }
        }
    }

    /// The column order of this factor.
    pub fn schema(&self) -> &[Var] {
        &self.body.schema
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.body.schema.len()
    }

    /// Number of non-zero rows — the factor size `‖ψ_S‖` of the paper.
    pub fn len(&self) -> usize {
        self.body.len
    }

    /// Whether the factor is identically zero.
    pub fn is_empty(&self) -> bool {
        self.body.len == 0
    }

    /// The `i`-th row. Requires an in-memory listing (panics on a spilled
    /// factor — use [`Factor::col`] for backing-agnostic key access).
    pub fn row(&self, i: usize) -> &[u32] {
        let a = self.arity();
        &self.mem_rows()[i * a..(i + 1) * a]
    }

    /// The `i`-th value. Requires an in-memory listing (panics on a spilled
    /// factor — use [`Factor::value_at`] for backing-agnostic access).
    pub fn value(&self, i: usize) -> &E {
        &self.mem_vals()[i]
    }

    /// The key value of row `i`, column `d` — works over both backings; a
    /// spilled factor walks up its trie from leaf entry `i`.
    pub fn col(&self, i: usize, d: usize) -> u32 {
        match &self.body.cols {
            Columns::Mem { rows, .. } => rows[i * self.arity() + d],
            Columns::Spill(_) => self.trie().key(i, d),
        }
    }

    /// The `i`-th value over either backing: borrowed from the heap listing,
    /// or decoded out of a spilled values chunk.
    pub fn value_at(&self, i: usize) -> ValRef<'_, E> {
        match &self.body.cols {
            Columns::Mem { vals, .. } => ValRef::Borrowed(&vals[i]),
            Columns::Spill(v) => ValRef::Owned(v.value_owned(i)),
        }
    }

    /// The largest key value in column `d`, or `None` for an empty factor.
    /// Resident for spilled factors (tracked at write time); for in-memory
    /// ones one scan of the listing fills every column's maximum, cached on
    /// the body — domain validation, asked once per query build, plan and
    /// run, must neither rescan rows nor fault chunks in.
    pub fn max_in_column(&self, d: usize) -> Option<u32> {
        match &self.body.cols {
            Columns::Mem { rows, .. } => {
                let maxes = self.body.col_maxes.get_or_init(|| {
                    let mut maxes = vec![0; self.arity()];
                    // A nullary listing has no keys; `chunks_exact` needs a
                    // non-zero width.
                    for row in rows.chunks_exact(self.arity().max(1)) {
                        maxes.iter_mut().zip(row).for_each(|(m, &x)| *m = x.max(*m));
                    }
                    maxes
                });
                (self.body.len > 0).then(|| maxes[d])
            }
            Columns::Spill(v) => v.col_max(d),
        }
    }

    /// Iterate `(row, value)` pairs in sorted row order. Requires an
    /// in-memory listing (panics on a spilled factor).
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], &E)> + '_ {
        (0..self.body.len).map(move |i| (self.row(i), self.value(i)))
    }

    /// Write this factor to a file-chunked spill (see [`SpillConfig`]): the
    /// returned factor holds the same rows and values, as trie levels and a
    /// values column on disk with a bounded pinned window, indexed already.
    pub fn to_spilled(&self, config: SpillConfig) -> Factor<E>
    where
        E: FixedBytes,
    {
        let mut out = FactorBuilder::new_spilled(self.body.schema.clone(), config)
            .expect("schema already valid");
        self.for_each_row_grouped(true, &[], &mut |row, val| out.push(row, val.clone()));
        out.finish()
    }

    /// Chunk and read statistics of a spilled factor — its level files and
    /// values file together — or `None` for an in-memory factor.
    pub fn spill_stats(&self) -> Option<SpillStats> {
        self.spill_values().map(|v| v.stats(self.trie()))
    }

    /// Heap bytes this factor's body currently keeps resident: the listing
    /// (the full flat arrays of an in-memory factor, only the pinned values
    /// chunks of a spilled one) plus the trie index once it is built. Every
    /// handle of one body reports the same bytes — count a body once (see
    /// [`Factor::shares_body`]).
    pub fn resident_bytes(&self) -> usize {
        let listing = match &self.body.cols {
            Columns::Mem { rows, vals } => rows.len() * 4 + vals.len() * std::mem::size_of::<E>(),
            Columns::Spill(v) => v.resident_bytes(),
        };
        listing + self.trie_if_built().map_or(0, FactorTrie::resident_bytes)
    }

    /// Whether `self` and `other` are handles on the same body — clones of
    /// one factor, sharing listing and index.
    pub fn shares_body(&self, other: &Factor<E>) -> bool {
        Arc::ptr_eq(&self.body, &other.body)
    }

    /// The columnar trie index over this factor's rows (see [`FactorTrie`]).
    ///
    /// A heap listing builds it on first use — `O(arity × len)` — and caches
    /// it in the shared body, so joins and chunk partitioning through any
    /// handle of the factor share one index. Thread-safe: concurrent first
    /// callers race benignly on a [`OnceLock`]. A spilled factor is indexed
    /// when it is written.
    pub fn trie(&self) -> &FactorTrie {
        self.body.trie.get_or_init(|| {
            let mut heap = TrieBuilder::new(self.arity());
            heap.reserve_rows(self.len());
            heap.push_rows(self.mem_rows(), self.len());
            heap.finish()
        })
    }

    /// The trie index if it has already been built, without forcing a build.
    pub fn trie_if_built(&self) -> Option<&FactorTrie> {
        self.body.trie.get()
    }

    /// Look up a tuple: one columnar binary search per column over the
    /// sorted listing ([`Factor::prefix_range`]), `O(arity × log len)`. It
    /// never builds the trie index. Requires an in-memory listing (use
    /// [`Factor::get_cloned`] for a spilled one).
    pub fn get(&self, tuple: &[u32]) -> Option<&E> {
        self.find_row(tuple).map(|i| &self.mem_vals()[i])
    }

    /// [`Factor::get`] over either backing, returning the value by clone (a
    /// borrow cannot outlive the pinned chunk of a spilled factor, whose
    /// lookup descends its trie).
    pub fn get_cloned(&self, tuple: &[u32]) -> Option<E> {
        self.find_row(tuple).map(|i| self.value_at(i).into_owned())
    }

    /// The listing row holding `tuple`, if any.
    fn find_row(&self, tuple: &[u32]) -> Option<usize> {
        assert_eq!(tuple.len(), self.arity());
        if self.is_spilled() {
            return self.trie().find_row(tuple);
        }
        let range = tuple.iter().enumerate().fold((0, self.body.len), |range, (depth, &value)| {
            self.prefix_range(range, depth, value)
        });
        (range.0 < range.1).then_some(range.0)
    }

    /// The half-open row range whose first `depth` columns equal `prefix`
    /// within the given candidate range — the trie descent primitive used by
    /// the OutsideIn join and by conditional queries (paper Assumption 1).
    pub fn prefix_range(&self, range: (usize, usize), depth: usize, value: u32) -> (usize, usize) {
        debug_assert!(depth < self.arity());
        let (lo, hi) = range;
        let start = lo + partition_point(hi - lo, |i| self.col(lo + i, depth) < value);
        let end = lo + partition_point(hi - lo, |i| self.col(lo + i, depth) <= value);
        (start, end)
    }

    /// The smallest value `≥ bound` in column `depth` within the row range, or
    /// `None` — the "seek least upper bound" conditional query.
    pub fn seek_column(&self, range: (usize, usize), depth: usize, bound: u32) -> Option<u32> {
        let (lo, hi) = range;
        let idx = lo + partition_point(hi - lo, |i| self.col(lo + i, depth) < bound);
        if idx < hi {
            Some(self.col(idx, depth))
        } else {
            None
        }
    }

    /// Reorder columns to `new_schema` (a permutation of the current schema),
    /// re-sorting rows.
    pub fn reorder(&self, new_schema: &[Var]) -> Factor<E> {
        assert_eq!(new_schema.len(), self.arity());
        let perm: Vec<usize> = new_schema
            .iter()
            .map(|v| {
                self.schema()
                    .iter()
                    .position(|s| s == v)
                    .unwrap_or_else(|| panic!("{v} not in schema {:?}", self.body.schema))
            })
            .collect();
        // Identity permutation: nothing to reorder — hand out another handle
        // on the same body (listing and index shared, nothing copied).
        if perm.iter().enumerate().all(|(i, &p)| i == p) {
            return self.clone();
        }
        // The index sort below needs random row access. Engine paths keep
        // large factors σ-aligned (the identity branch above and
        // `align_to_cow`'s borrow), so a spilled factor that gets here is
        // small enough to copy to the heap.
        if self.is_spilled() {
            return self.to_heap().reorder(new_schema);
        }
        // Order row *indices* under the permuted key, then write the permuted
        // rows column-flat — no per-row tuple is ever allocated.
        let idx = self.order_by_columns(&perm);
        let mut out = FactorBuilder::new(new_schema.to_vec()).expect("permuted schema stays valid");
        out.reserve(self.body.len);
        let mut buf = vec![0u32; self.arity()];
        for &i in &idx {
            let row = self.row(i);
            for (slot, &p) in buf.iter_mut().zip(&perm) {
                *slot = row[p];
            }
            out.push(&buf, self.mem_vals()[i].clone());
        }
        out.finish()
    }

    /// Reorder columns so the schema follows the relative order of `global`
    /// (every schema variable must appear in `global`).
    pub fn align_to(&self, global: &[Var]) -> Factor<E> {
        self.align_to_cow(global).into_owned()
    }

    /// [`Factor::align_to`] without the copy when nothing needs reordering:
    /// borrows `self` when the schema already follows `global`'s relative
    /// order. Join kernels call this per input, so the aligned common case
    /// must not clone the factor.
    pub fn align_to_cow(&self, global: &[Var]) -> std::borrow::Cow<'_, Factor<E>> {
        let new_schema: Vec<Var> =
            global.iter().copied().filter(|v| self.body.schema.contains(v)).collect();
        assert_eq!(
            new_schema.len(),
            self.arity(),
            "global order {:?} does not cover schema {:?}",
            global,
            self.body.schema
        );
        if new_schema == self.body.schema {
            std::borrow::Cow::Borrowed(self)
        } else {
            std::borrow::Cow::Owned(self.reorder(&new_schema))
        }
    }

    /// Project onto the schema variables contained in `keep`, combining the
    /// values of collapsing rows with `combine` and dropping zeros.
    ///
    /// The result schema preserves this factor's column order.
    pub fn project_combine(
        &self,
        keep: &[Var],
        combine: impl FnMut(&E, &E) -> E,
        mut is_zero: impl FnMut(&E) -> bool,
    ) -> Factor<E> {
        let positions: Vec<usize> =
            (0..self.arity()).filter(|&i| keep.contains(&self.body.schema[i])).collect();
        self.project_fold(&positions, E::clone, combine, |v, _| !is_zero(v))
    }

    /// The indicator projection `ψ_{S/T}` of paper Definition 4.2: project
    /// onto `keep ∩ schema` and map every surviving tuple to `one`.
    pub fn indicator_projection(&self, keep: &[Var], one: E) -> Factor<E> {
        let positions: Vec<usize> =
            (0..self.arity()).filter(|&i| keep.contains(&self.body.schema[i])).collect();
        self.project_fold(&positions, |_| one.clone(), |a, _| a.clone(), |_, _| true)
    }

    /// Shared engine of the projection family and of product
    /// marginalization: project rows onto `positions` (columns of `self`, in
    /// output order), open each group's fold with its first row's
    /// `contribution`, fold every further row's value into it in row order
    /// with `combine`, and keep the groups for which `keep(fold, group rows)`
    /// holds.
    ///
    /// When `positions` is a prefix of the column order, the input's
    /// sortedness already groups equal keys consecutively — one streaming
    /// pass, which a spilled factor serves by one walk of its trie without
    /// ever materializing. Otherwise row *indices* are ordered under the projected
    /// key by [`Factor::order_by_columns`] (ties keep row order, so
    /// non-commutative folds see each group's rows in listing order), over a
    /// heap copy when spilled. Neither path allocates per row.
    fn project_fold(
        &self,
        positions: &[usize],
        mut contribution: impl FnMut(&E) -> E,
        mut combine: impl FnMut(&E, &E) -> E,
        mut keep: impl FnMut(&E, u64) -> bool,
    ) -> Factor<E> {
        let is_prefix = positions.iter().enumerate().all(|(i, &p)| i == p);
        if !is_prefix && self.is_spilled() {
            return self.to_heap().project_fold(positions, contribution, combine, keep);
        }
        let new_schema: Vec<Var> = positions.iter().map(|&i| self.body.schema[i]).collect();
        let k = positions.len();
        let mut out = FactorBuilder::new(new_schema).expect("projected schema stays valid");
        let mut key: Vec<u32> = Vec::with_capacity(k);
        let mut buf: Vec<u32> = vec![0; k];
        // The running fold of the current group and its row count.
        let mut acc: Option<(E, u64)> = None;
        self.for_each_row_grouped(is_prefix, positions, &mut |row, val| {
            for (slot, &p) in buf.iter_mut().zip(positions) {
                *slot = row[p];
            }
            match &mut acc {
                Some((a, n)) if key == buf => {
                    *a = combine(a, val);
                    *n += 1;
                }
                _ => {
                    if let Some((done, n)) = acc.take() {
                        if keep(&done, n) {
                            out.push(&key, done);
                        }
                    }
                    key.clear();
                    key.extend_from_slice(&buf);
                    acc = Some((contribution(val), 1));
                }
            }
        });
        if let Some((done, n)) = acc.take() {
            if keep(&done, n) {
                out.push(&key, done);
            }
        }
        out.finish()
    }

    /// Drive `feed` over every `(row, value)` pair: in listing order when
    /// `grouped` (the projection key is already consecutive), otherwise in
    /// stable projected-key order ([`Factor::order_by_columns`]). A spilled
    /// factor streams its rows by one walk of its trie in leaf order, and
    /// therefore supports only the `grouped` order — which is the order every
    /// σ-aligned elimination step uses, since such steps always project away
    /// a suffix of the schema.
    pub(crate) fn for_each_row_grouped(
        &self,
        grouped: bool,
        positions: &[usize],
        feed: &mut impl FnMut(&[u32], &E),
    ) {
        if grouped {
            match &self.body.cols {
                Columns::Mem { rows, vals } if self.arity() > 0 => {
                    for (row, val) in rows.chunks_exact(self.arity()).zip(vals) {
                        feed(row, val);
                    }
                }
                Columns::Mem { vals, .. } => vals.iter().for_each(|val| feed(&[], val)),
                Columns::Spill(values) => {
                    let mut values = values.reader();
                    self.trie().for_each_row(|j, row| values.with(j, |val| feed(row, val)));
                }
            }
        } else {
            assert!(
                !self.is_spilled(),
                "reordering projections of a spilled factor require an in-memory listing"
            );
            for i in self.order_by_columns(positions) {
                feed(self.row(i), &self.mem_vals()[i]);
            }
        }
    }

    /// Below this many rows [`Factor::order_by_columns`] always compares: a
    /// 16-row potential gains nothing from a histogram and the comparison
    /// sort allocates less.
    const COUNTING_SORT_MIN_ROWS: usize = 64;

    /// The indices of an in-memory listing's rows ordered by the key columns
    /// `keys` (most significant first), ties in listing order — exactly what
    /// a stable comparison sort of the indices under the projected key
    /// yields, which is the order non-commutative folds rely on.
    ///
    /// The listing is already sorted by the full row, so trailing keys that
    /// spell a prefix of the column order (`.., 0, 1`) are in place before
    /// anything runs. Each remaining key is one stable counting pass over
    /// whole column values (least significant key first, `max + 1` buckets):
    /// two sequential sweeps of the rows instead of `log₂ len` random row
    /// reads per row. A sparse column — maximum at least `2 × len` — would
    /// pay more for its histogram than for the comparisons, so such a
    /// listing, and any tiny one, keeps the comparison sort; the choice reads
    /// only `len` and the column maxima.
    fn order_by_columns(&self, keys: &[usize]) -> Vec<usize> {
        let (rows, len, arity) = (self.mem_rows(), self.len(), self.arity());
        let mut idx: Vec<usize> = (0..len).collect();
        let presorted = (0..=keys.len())
            .rev()
            .find(|&j| keys[keys.len() - j..].iter().copied().eq(0..j))
            .expect("the empty suffix always matches");
        let passes = &keys[..keys.len() - presorted];
        let maxes = (len >= Self::COUNTING_SORT_MIN_ROWS)
            .then(|| passes.iter().map(|&c| self.max_in_column(c).map_or(0, |m| m as usize)))
            .map(Iterator::collect::<Vec<usize>>)
            .filter(|maxes| maxes.iter().all(|&m| m < 2 * len));
        let Some(maxes) = maxes else {
            idx.sort_by(|&a, &b| {
                let (ra, rb) = (&rows[a * arity..], &rows[b * arity..]);
                passes.iter().map(|&c| ra[c]).cmp(passes.iter().map(|&c| rb[c]))
            });
            return idx;
        };
        let mut next = vec![0usize; len];
        let mut starts: Vec<usize> = Vec::new();
        for (&c, &max) in passes.iter().zip(&maxes).rev() {
            // starts[v + 1] counts value v; the running sum turns starts[v]
            // into the first output position of v's bucket.
            starts.clear();
            starts.resize(max + 2, 0);
            for i in 0..len {
                starts[rows[i * arity + c] as usize + 1] += 1;
            }
            for v in 1..starts.len() {
                starts[v] += starts[v - 1];
            }
            for &i in &idx {
                let at = &mut starts[rows[i * arity + c] as usize];
                next[*at] = i;
                *at += 1;
            }
            std::mem::swap(&mut idx, &mut next);
        }
        idx
    }

    /// Product marginalization (paper Assumption 2):
    /// `ψ_{S−{v}}(x_{S−{v}}) = ⊗_{x_v ∈ Dom(X_v)} ψ_S(x_S)`.
    ///
    /// A group missing any of the `dom_size` values of `v` multiplies in an
    /// (implicit) zero and is dropped; surviving groups multiply their listed
    /// values. Rows whose product becomes zero are dropped too.
    pub fn marginalize_product(
        &self,
        var: Var,
        dom_size: u32,
        mul: impl FnMut(&E, &E) -> E,
        mut is_zero: impl FnMut(&E) -> bool,
    ) -> Factor<E> {
        let vpos = self
            .schema()
            .iter()
            .position(|&s| s == var)
            .unwrap_or_else(|| panic!("{var} not in schema {:?}", self.body.schema));
        let positions: Vec<usize> = (0..self.arity()).filter(|&i| i != vpos).collect();
        // A group only survives when it lists every one of the `dom_size`
        // values of `var`.
        self.project_fold(&positions, E::clone, mul, |p, n| n == u64::from(dom_size) && !is_zero(p))
    }

    /// A heap copy of a spilled factor ([`Factor::map_values`] always
    /// builds on the heap): the fallback of the operations whose heap
    /// algorithm needs random row access.
    fn to_heap(&self) -> Factor<E> {
        self.map_values(E::clone, |_| false)
    }

    /// Apply `f` to every value, dropping rows that become zero.
    pub fn map_values(
        &self,
        mut f: impl FnMut(&E) -> E,
        mut is_zero: impl FnMut(&E) -> bool,
    ) -> Factor<E> {
        let mut out = FactorBuilder::new(self.body.schema.clone()).expect("schema already valid");
        out.reserve(self.body.len);
        self.for_each_row_grouped(true, &[], &mut |row, val| {
            let nv = f(val);
            if !is_zero(&nv) {
                out.push(row, nv);
            }
        });
        out.finish()
    }

    /// Partition the values of column `col` into at most `max_chunks`
    /// half-open value ranges `[lo, hi)` of roughly equal row counts, never
    /// splitting a value across two ranges.
    ///
    /// The ranges are returned in ascending order; together they cover all of
    /// `[0, u32::MAX)` (the first starts at 0, the last ends at `u32::MAX`),
    /// so every possible column value falls in exactly one range. This is the
    /// chunking primitive of the parallel InsideOut engine: each range keys a
    /// worker's slice of the join's first-variable candidates, and because no
    /// value is split, no output group spans two chunks.
    ///
    /// Returns an empty vector when the factor has no rows or `max_chunks`
    /// admits only one chunk (callers fall back to a sequential run).
    #[cfg(test)]
    pub(crate) fn column_partition(&self, col: usize, max_chunks: usize) -> Vec<(u32, u32)> {
        assert!(col < self.arity(), "column {col} out of range for arity {}", self.arity());
        if max_chunks <= 1 || self.body.len < 2 {
            return Vec::new();
        }
        // Column 0 with a built trie index (a spilled factor always has one):
        // the root level already lists the distinct values with their row
        // counts — no scan of the listing.
        if col == 0 {
            if let Some(trie) = self.trie_if_built() {
                return trie.partition_root(max_chunks);
            }
        }
        // Column values in ascending order. Column 0 is already sorted (rows
        // are lexicographic); other columns need a sort.
        let mut values: Vec<u32> = (0..self.body.len).map(|i| self.row(i)[col]).collect();
        if col != 0 {
            values.sort_unstable();
        }
        let runs = values.chunk_by(|a, b| a == b).map(|run| (run[0], run.len()));
        crate::trie::partition_runs(self.body.len, max_chunks, runs)
    }

    /// Merge factors over the same schema, combining duplicate tuples with
    /// `combine` (applied left-to-right in input order) and dropping rows
    /// whose combined value satisfies `is_zero` — [`Factor::with_combine`]
    /// over the parts' rows in part order, whose stable sort keeps ties in
    /// that order.
    pub fn merge_sorted(
        parts: Vec<Factor<E>>,
        combine: impl FnMut(&E, &E) -> E,
        is_zero: impl FnMut(&E) -> bool,
    ) -> Factor<E> {
        assert!(!parts.is_empty(), "merge_sorted needs at least one part");
        let schema = parts[0].body.schema.clone();
        for p in &parts {
            assert_eq!(p.body.schema, schema, "merge_sorted requires identical schemas");
        }
        let mut rows = Vec::new();
        for p in &parts {
            p.for_each_row_grouped(true, &[], &mut |r, v| rows.push((r.to_vec(), v.clone())));
        }
        Self::with_combine(schema, rows, combine, is_zero).expect("parts share one valid schema")
    }

    /// Replace every row whose first-column value falls inside one of
    /// `ranges` with the rows of `replacement`, keeping all other rows — the
    /// cached-intermediate update primitive of incremental delta evaluation.
    ///
    /// `ranges` are half-open `[lo, hi)` value ranges of the first column,
    /// sorted and disjoint; every row of `replacement` (same schema) must
    /// fall inside one of them (debug-asserted). Because the kept rows and
    /// the replacement rows occupy disjoint ascending value ranges, the
    /// result is assembled in one sorted pass with a constant number of
    /// allocations — no re-sort, no per-row buffers.
    ///
    /// A nullary factor has no first column to anchor on; the result is then
    /// simply `replacement` itself.
    pub fn splice_by_first(&self, ranges: &[(u32, u32)], replacement: &Factor<E>) -> Factor<E> {
        assert_eq!(self.body.schema, replacement.body.schema, "splice requires identical schemas");
        if self.arity() == 0 {
            return replacement.clone();
        }
        debug_assert!(ranges.windows(2).all(|w| w[0].1 <= w[1].0), "ranges sorted and disjoint");
        let mut out = FactorBuilder::new(self.body.schema.clone()).expect("schema already valid");
        out.reserve(self.body.len + replacement.body.len);
        let (mut i, mut j) = (0usize, 0usize);
        for &(lo, hi) in ranges {
            while i < self.body.len && self.row(i)[0] < lo {
                out.push(self.row(i), self.mem_vals()[i].clone());
                i += 1;
            }
            while i < self.body.len && self.row(i)[0] < hi {
                i += 1; // cached rows inside the range are superseded
            }
            while j < replacement.body.len && replacement.row(j)[0] < hi {
                debug_assert!(replacement.row(j)[0] >= lo, "replacement row outside ranges");
                out.push(replacement.row(j), replacement.mem_vals()[j].clone());
                j += 1;
            }
        }
        while i < self.body.len {
            out.push(self.row(i), self.mem_vals()[i].clone());
            i += 1;
        }
        debug_assert_eq!(j, replacement.body.len, "replacement row outside ranges");
        out.finish()
    }

    /// Restrict to rows where column `var` equals `value`, dropping the column —
    /// the conditional factor `ψ_S(· | x_v)` used by naive evaluation.
    pub fn condition(&self, var: Var, value: u32) -> Factor<E> {
        let vpos = self
            .schema()
            .iter()
            .position(|&s| s == var)
            .unwrap_or_else(|| panic!("{var} not in schema {:?}", self.body.schema));
        let positions: Vec<usize> = (0..self.arity()).filter(|&i| i != vpos).collect();
        let new_schema: Vec<Var> = positions.iter().map(|&i| self.body.schema[i]).collect();
        // Removing a column whose value is fixed preserves both sortedness
        // and distinctness: any two surviving rows first differ at some other
        // column, and that comparison is unchanged — stream, don't sort.
        let mut out = FactorBuilder::new(new_schema).expect("reduced schema stays valid");
        let mut buf: Vec<u32> = vec![0; positions.len()];
        self.for_each_row_grouped(true, &[], &mut |row, val| {
            if row[vpos] == value {
                for (slot, &p) in buf.iter_mut().zip(&positions) {
                    *slot = row[p];
                }
                out.push(&buf, val.clone());
            }
        });
        out.finish()
    }
}

pub(crate) fn check_schema(schema: &[Var]) -> Result<(), FactorError> {
    for (i, v) in schema.iter().enumerate() {
        if schema[..i].contains(v) {
            return Err(FactorError::DuplicateSchemaVar(*v));
        }
    }
    Ok(())
}

/// Flat-row construction of a [`Factor`] from a stream of rows arriving in
/// **strictly ascending lexicographic order** — the allocation-free spine of
/// the InsideOut hot path.
///
/// Every [`FactorBuilder::push`] copies the binding straight into the final
/// column-flat `rows` storage: no per-row `Vec<u32>` is ever allocated, and
/// [`FactorBuilder::finish`] hands the buffers to the factor as-is (the
/// [`Factor::from_sorted_distinct`] fast path — no sort, no duplicate scan).
/// Heap traffic is therefore `O(arity + log rows)` per factor (amortized
/// buffer doubling), not `O(rows)`.
///
/// # Sortedness contract
///
/// Rows must arrive sorted and distinct. The contract is the caller's — join
/// kernels satisfy it by construction, since the backtracking search
/// enumerates bindings in lexicographic order of the join's variable
/// ordering. Debug builds verify it on every push: the debug assertion fires
/// as soon as a row is `≤` its predecessor (or, for a nullary schema, on a
/// second row). Release builds trust the stream.
///
/// # Index
///
/// A heap builder keeps no index: the finished factor builds its columnar
/// trie ([`FactorTrie`]) when a join first reads it ([`Factor::trie`]). A
/// spilled builder streams its rows into the trie levels on disk, so a
/// spilled factor is indexed when it is written.
pub struct FactorBuilder<E> {
    schema: Vec<Var>,
    arity: usize,
    cols: BuilderCols<E>,
    len: usize,
}

/// The accumulation target of a [`FactorBuilder`]: heap buffers (the
/// default) or a strictly-sequential spill writer.
enum BuilderCols<E> {
    Mem { rows: Vec<u32>, vals: Vec<E> },
    Spill(SpillWriter<E>),
}

impl<E: SemiringElem> FactorBuilder<E> {
    /// An empty builder over `schema` (rejects duplicate schema variables).
    pub fn new(schema: Vec<Var>) -> Result<Self, FactorError> {
        check_schema(&schema)?;
        let arity = schema.len();
        Ok(FactorBuilder {
            schema,
            arity,
            cols: BuilderCols::Mem { rows: Vec::new(), vals: Vec::new() },
            len: 0,
        })
    }

    /// An empty builder whose rows stream straight to a file-chunked spill
    /// (see [`SpillConfig`]): each row goes into the trie levels' disk sinks
    /// and its value into the values column, each buffering one chunk, with
    /// strictly sequential writes, and [`FactorBuilder::finish`] yields a
    /// spilled factor, indexed already, whose resident footprint is the
    /// chunk metadata, the levels' head samples and the pinned windows.
    /// [`FactorBuilder::append`] is not supported in spill mode.
    pub fn new_spilled(schema: Vec<Var>, config: SpillConfig) -> Result<Self, FactorError>
    where
        E: FixedBytes,
    {
        check_schema(&schema)?;
        let arity = schema.len();
        assert!(arity > 0, "nullary factors cannot spill");
        Ok(FactorBuilder {
            schema,
            arity,
            cols: BuilderCols::Spill(SpillWriter::new(arity, config)),
            len: 0,
        })
    }

    /// An empty builder over `base`'s schema with `base`'s backing: on the
    /// heap for a heap factor; for a spilled one, a spilled builder writing
    /// a sibling of it — same spill directory (and armed fault plan), codec
    /// and configuration.
    pub(crate) fn like(base: &Factor<E>) -> Self {
        let schema = base.body.schema.clone();
        let arity = schema.len();
        let cols = match base.spill_values() {
            None => BuilderCols::Mem { rows: Vec::new(), vals: Vec::new() },
            Some(values) => BuilderCols::Spill(SpillWriter::like(values)),
        };
        FactorBuilder { schema, arity, cols, len: 0 }
    }

    /// Pre-allocate room for `additional` more rows (no-op in spill mode,
    /// which buffers at most one chunk).
    pub fn reserve(&mut self, additional: usize) {
        if let BuilderCols::Mem { rows, vals } = &mut self.cols {
            rows.reserve(additional * self.arity);
            vals.reserve(additional);
        }
    }

    /// Append a row. `row` must sort strictly after every row already pushed
    /// (debug-asserted — see the type docs for the contract).
    pub fn push(&mut self, row: &[u32], val: E) {
        debug_assert_eq!(row.len(), self.arity, "row arity must match the schema");
        debug_assert!(self.arity > 0 || self.len == 0, "a nullary factor holds at most one row");
        let len = self.len;
        let arity = self.arity;
        match &mut self.cols {
            BuilderCols::Mem { rows, vals } => {
                debug_assert!(
                    len == 0 || &rows[(len - 1) * arity..] < row,
                    "builder rows must be strictly ascending"
                );
                rows.extend_from_slice(row);
                vals.push(val);
            }
            BuilderCols::Spill(w) => w.push(row, val),
        }
        self.len += 1;
    }

    /// Append every row of `other` (same schema), all of which must sort
    /// strictly after this builder's rows.
    ///
    /// This is the k-way chunk merge of the parallel engine: per-chunk
    /// outputs cover disjoint ascending value ranges of the first column, so
    /// the merge is a concatenation, one bulk copy of the rows and values.
    pub fn append(&mut self, other: FactorBuilder<E>) {
        assert_eq!(self.schema, other.schema, "append requires identical schemas");
        let (BuilderCols::Mem { rows, vals }, BuilderCols::Mem { rows: orows, vals: ovals }) =
            (&mut self.cols, other.cols)
        else {
            panic!("append of or into a spilled builder is not supported");
        };
        debug_assert!(
            self.len == 0
                || other.len == 0
                || self.arity == 0
                || rows[(self.len - 1) * self.arity..] < orows[..self.arity],
            "appended chunks must be disjoint and ascending"
        );
        rows.extend_from_slice(&orows);
        vals.extend(ovals);
        self.len += other.len;
    }

    /// Finish: hand the flat buffers to the factor without copying or
    /// re-sorting anything. A spilled builder flushes its tail chunks and
    /// yields a spilled factor with its index.
    pub fn finish(self) -> Factor<E> {
        let (cols, trie) = match self.cols {
            BuilderCols::Mem { rows, vals } => (Columns::Mem { rows, vals }, None),
            BuilderCols::Spill(w) => {
                let (trie, values) = w.finish();
                (Columns::Spill(values), Some(trie))
            }
        };
        Factor::from_parts(self.schema, cols, self.len, trie)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faq_hypergraph::v;

    fn sample() -> Factor<u64> {
        Factor::new(
            vec![v(0), v(1)],
            vec![(vec![1, 0], 10), (vec![0, 1], 5), (vec![0, 0], 3), (vec![2, 2], 7)],
        )
        .unwrap()
    }

    #[test]
    fn construction_sorts_rows() {
        let f = sample();
        assert_eq!(f.len(), 4);
        assert_eq!(f.row(0), &[0, 0]);
        assert_eq!(f.row(1), &[0, 1]);
        assert_eq!(f.row(2), &[1, 0]);
        assert_eq!(f.row(3), &[2, 2]);
        assert_eq!(*f.value(0), 3);
    }

    #[test]
    fn duplicate_tuples_rejected() {
        let err = Factor::new(vec![v(0)], vec![(vec![1], 1u64), (vec![1], 2)]).unwrap_err();
        assert_eq!(err, FactorError::DuplicateTuple(vec![1]));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let err = Factor::new(vec![v(0), v(1)], vec![(vec![1], 1u64)]).unwrap_err();
        assert!(matches!(err, FactorError::ArityMismatch { expected: 2, got: 1 }));
    }

    #[test]
    fn duplicate_schema_rejected() {
        let err = Factor::<u64>::new(vec![v(0), v(0)], vec![]).unwrap_err();
        assert_eq!(err, FactorError::DuplicateSchemaVar(v(0)));
    }

    #[test]
    fn with_combine_merges_and_drops_zero() {
        let f = Factor::with_combine(
            vec![v(0)],
            vec![(vec![1], 3i64), (vec![1], -3), (vec![2], 5)],
            |a, b| a + b,
            |x| *x == 0,
        )
        .unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(f.get(&[2]), Some(&5));
        assert_eq!(f.get(&[1]), None);
    }

    #[test]
    fn lookup() {
        let f = sample();
        assert_eq!(f.get(&[1, 0]), Some(&10));
        assert_eq!(f.get(&[1, 1]), None);
    }

    #[test]
    fn one_off_get_builds_no_trie() {
        let f = sample();
        assert_eq!(f.get(&[0, 1]), Some(&5));
        assert!(f.trie_if_built().is_none(), "a single point lookup must not pay the index build");
        assert_eq!(f.get(&[9, 9]), None);
        // Nor do repeated lookups: a lookup never builds the index.
        for _ in 0..8 {
            assert_eq!(f.get(&[2, 2]), Some(&7));
            assert_eq!(f.get(&[2, 1]), None);
        }
        assert!(f.trie_if_built().is_none());
    }

    #[test]
    fn clone_preserves_built_trie() {
        let f = sample();
        let cold = f.clone();
        assert!(cold.trie_if_built().is_none(), "clone of a cold factor stays cold");
        let _ = f.trie();
        let warm = f.clone();
        assert!(warm.trie_if_built().is_some(), "clone must keep the built index");
        assert_eq!(warm.trie_if_built(), f.trie_if_built());
        assert_eq!(warm, f);
    }

    #[test]
    fn nullary_behaviour() {
        let s = Factor::nullary(Some(42u64));
        assert_eq!(s.arity(), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(&[]), Some(&42));
        let z = Factor::<u64>::nullary(None);
        assert!(z.is_empty());
        assert_eq!(z.get(&[]), None);
    }

    #[test]
    fn dense_tabulation() {
        let f = Factor::dense(
            vec![v(0), v(1)],
            &[2, 3],
            |row| (row[0] * 10 + row[1]) as u64,
            |&x| x == 0,
        )
        .unwrap();
        // (0,0) -> 0 dropped; 5 rows remain.
        assert_eq!(f.len(), 5);
        assert_eq!(f.get(&[1, 2]), Some(&12));
    }

    #[test]
    fn reorder_and_align() {
        let f = sample();
        let g = f.reorder(&[v(1), v(0)]);
        assert_eq!(g.schema(), &[v(1), v(0)]);
        assert_eq!(g.get(&[0, 1]), Some(&10)); // was (1,0)→10
        assert_eq!(g.row(0), &[0, 0]);
        let aligned = g.align_to(&[v(0), v(1), v(2)]);
        assert_eq!(aligned.schema(), &[v(0), v(1)]);
        assert_eq!(aligned, f);
    }

    #[test]
    fn project_combine_sums_groups() {
        let f = sample();
        let p = f.project_combine(&[v(0)], |a, b| a + b, |&x| x == 0);
        assert_eq!(p.schema(), &[v(0)]);
        assert_eq!(p.get(&[0]), Some(&8)); // 3 + 5
        assert_eq!(p.get(&[1]), Some(&10));
        assert_eq!(p.get(&[2]), Some(&7));
    }

    #[test]
    fn indicator_projection_is_support() {
        let f = sample();
        let p = f.indicator_projection(&[v(1)], 1u64);
        assert_eq!(p.schema(), &[v(1)]);
        assert_eq!(p.len(), 3); // column 1 values {0, 1, 2}
        for i in 0..p.len() {
            assert_eq!(*p.value(i), 1);
        }
    }

    #[test]
    fn indicator_projection_keeps_all_given_full_schema() {
        let f = sample();
        let p = f.indicator_projection(&[v(0), v(1)], 1u64);
        assert_eq!(p.len(), f.len());
    }

    #[test]
    fn marginalize_product_requires_full_groups() {
        // Dom(v1) = 2. Group x0=0 has both v1-values; group x0=1 only one.
        let f = Factor::new(
            vec![v(0), v(1)],
            vec![(vec![0, 0], 3u64), (vec![0, 1], 5), (vec![1, 0], 7)],
        )
        .unwrap();
        let m = f.marginalize_product(v(1), 2, |a, b| a * b, |&x| x == 0);
        assert_eq!(m.schema(), &[v(0)]);
        assert_eq!(m.get(&[0]), Some(&15));
        assert_eq!(m.get(&[1]), None); // implicit zero annihilated the product
    }

    #[test]
    fn marginalize_product_to_scalar() {
        let f = Factor::new(vec![v(0)], vec![(vec![0], 2u64), (vec![1], 3)]).unwrap();
        let m = f.marginalize_product(v(0), 2, |a, b| a * b, |&x| x == 0);
        assert_eq!(m.arity(), 0);
        assert_eq!(m.get(&[]), Some(&6));
    }

    #[test]
    fn map_values_drops_new_zeros() {
        let f = Factor::new(vec![v(0)], vec![(vec![0], 1i64), (vec![1], 2)]).unwrap();
        let g = f.map_values(|x| x - 1, |&x| x == 0);
        assert_eq!(g.len(), 1);
        assert_eq!(g.get(&[1]), Some(&1));
    }

    #[test]
    fn condition_restricts_and_drops_column() {
        let f = sample();
        let c = f.condition(v(0), 0);
        assert_eq!(c.schema(), &[v(1)]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&[0]), Some(&3));
        assert_eq!(c.get(&[1]), Some(&5));
    }

    #[test]
    fn prefix_range_and_seek() {
        let f = sample(); // rows: (0,0) (0,1) (1,0) (2,2)
        let full = (0, f.len());
        let r0 = f.prefix_range(full, 0, 0);
        assert_eq!(r0, (0, 2));
        let r1 = f.prefix_range(r0, 1, 1);
        assert_eq!(r1, (1, 2));
        assert_eq!(f.seek_column(full, 0, 1), Some(1));
        assert_eq!(f.seek_column(full, 0, 3), None);
        assert_eq!(f.seek_column((2, 4), 0, 2), Some(2));
    }

    #[test]
    fn prefix_range_respects_subranges() {
        let f = Factor::new(
            vec![v(0), v(1)],
            vec![(vec![0, 0], 1u64), (vec![0, 2], 1), (vec![1, 2], 1)],
        )
        .unwrap();
        let r = f.prefix_range((0, 3), 0, 0);
        assert_eq!(r, (0, 2));
        // Within x0 = 0 rows, seek column 1 for value >= 1.
        assert_eq!(f.seek_column(r, 1, 1), Some(2));
    }

    #[test]
    fn column_partition_covers_and_respects_values() {
        // Column 0 values: 0 ×3, 1 ×1, 2 ×2, 5 ×2.
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
        for max_chunks in [2usize, 3, 4, 8] {
            let ranges = f.column_partition(0, max_chunks);
            assert!(ranges.len() <= max_chunks, "{ranges:?}");
            if ranges.is_empty() {
                continue;
            }
            // Contiguous cover of [0, u32::MAX).
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1, u32::MAX);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
            // No value is split: each row's column value falls in one range.
            for i in 0..f.len() {
                let val = f.row(i)[0];
                let hits = ranges.iter().filter(|&&(lo, hi)| lo <= val && val < hi).count();
                assert_eq!(hits, 1);
            }
        }
        // Degenerate cases fall back to "no partition".
        assert!(f.column_partition(0, 1).is_empty());
        let single = Factor::new(vec![v(0)], vec![(vec![3], 1u64)]).unwrap();
        assert!(single.column_partition(0, 4).is_empty());
    }

    #[test]
    fn column_partition_of_unsorted_column() {
        // Column 1 is not sorted in row order; partition must sort it first.
        let f = sample(); // rows: (0,0) (0,1) (1,0) (2,2)
        let ranges = f.column_partition(1, 2);
        if !ranges.is_empty() {
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1, u32::MAX);
        }
    }

    #[test]
    fn splice_by_first_replaces_ranges() {
        let f = sample(); // rows: (0,0)→3 (0,1)→5 (1,0)→10 (2,2)→7
        let replacement = Factor::new(
            vec![v(0), v(1)],
            vec![(vec![0, 2], 100u64), (vec![2, 0], 200), (vec![2, 9], 300)],
        )
        .unwrap();
        let spliced = f.splice_by_first(&[(0, 1), (2, 3)], &replacement);
        let expect = Factor::new(
            vec![v(0), v(1)],
            vec![(vec![0, 2], 100), (vec![1, 0], 10), (vec![2, 0], 200), (vec![2, 9], 300)],
        )
        .unwrap();
        assert_eq!(spliced, expect);
        // Empty replacement inside a range deletes the covered rows.
        let nothing = Factor::<u64>::new(vec![v(0), v(1)], vec![]).unwrap();
        let gone = f.splice_by_first(&[(0, 2)], &nothing);
        assert_eq!(gone.len(), 1);
        assert_eq!(gone.row(0), &[2, 2]);
        // No ranges: identity.
        assert_eq!(f.splice_by_first(&[], &nothing), f);
    }

    #[test]
    fn splice_by_first_nullary_takes_replacement() {
        let f = Factor::nullary(Some(1u64));
        let r = Factor::nullary(Some(9u64));
        assert_eq!(f.splice_by_first(&[(0, u32::MAX)], &r), r);
    }

    #[test]
    fn merge_sorted_combines_duplicates_in_order() {
        let a = Factor::new(vec![v(0)], vec![(vec![0], 1i64), (vec![2], 5)]).unwrap();
        let b = Factor::new(vec![v(0)], vec![(vec![1], 3i64), (vec![2], -5)]).unwrap();
        let m = Factor::merge_sorted(vec![a, b], |x, y| x + y, |&x| x == 0);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&[0]), Some(&1));
        assert_eq!(m.get(&[1]), Some(&3));
        assert_eq!(m.get(&[2]), None); // 5 + (-5) combined to zero and dropped
    }

    /// A three-way merge with an empty part: ties combine across parts in
    /// part order.
    #[test]
    fn merge_sorted_rows_three_way() {
        let parts = vec![
            part(&[(0, 1), (3, 1)]),
            part(&[(1, 2), (3, 2)]),
            part(&[]),
            part(&[(2, 3), (3, 3)]),
        ];
        // `combine` keeps a trace of its operands, so another order shows.
        let m = Factor::merge_sorted(parts, |a, b| a * 10 + b, |&x| x == 0);
        assert_eq!(m, part(&[(0, 1), (1, 2), (2, 3), (3, 123)]));
    }

    /// A trailing tie that combines to zero is dropped.
    #[test]
    fn merge_sorted_rows_drops_trailing_zero() {
        let parts = vec![part(&[(0, 1), (5, 4)]), part(&[(5, -4)])];
        let m = Factor::merge_sorted(parts, |a, b| a + b, |&x| x == 0);
        assert_eq!(m, part(&[(0, 1)]));
        let m = Factor::merge_sorted(
            vec![part(&[(5, 4)]), part(&[(5, -4)])],
            |a, b| a + b,
            |&x| x == 0,
        );
        assert!(m.is_empty());
    }

    /// A unary factor over `v(0)` with the given rows.
    fn part(rows: &[(u32, i64)]) -> Factor<i64> {
        Factor::new(vec![v(0)], rows.iter().map(|&(r, x)| (vec![r], x)).collect()).unwrap()
    }

    #[test]
    fn randomized_projection_equals_bruteforce() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..30 {
            let n_rows = rng.gen_range(0..20);
            let mut tuples = Vec::new();
            for _ in 0..n_rows {
                tuples.push((
                    vec![rng.gen_range(0..4u32), rng.gen_range(0..4), rng.gen_range(0..4)],
                    rng.gen_range(1..10u64),
                ));
            }
            let f = Factor::with_combine(
                vec![v(0), v(1), v(2)],
                tuples.clone(),
                |a, b| a + b,
                |&x| x == 0,
            )
            .unwrap();
            let p = f.project_combine(&[v(0), v(2)], |a, b| a + b, |&x| x == 0);
            // Brute-force expected sums.
            use std::collections::BTreeMap;
            let mut expect: BTreeMap<(u32, u32), u64> = BTreeMap::new();
            for (t, val) in &tuples {
                *expect.entry((t[0], t[2])).or_insert(0) += val;
            }
            assert_eq!(p.len(), expect.len());
            for ((a, c), s) in expect {
                assert_eq!(p.get(&[a, c]), Some(&s));
            }
        }
    }

    /// The cached per-column maxima equal a fresh scan of the rows, on
    /// random factors (empty ones included) and on what `reorder`,
    /// `align_to` and a delta merge build from them.
    #[test]
    fn cached_column_maxima_equal_a_scan() {
        use crate::delta::{DeltaFactor, DeltaOp};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        fn assert_maxima(f: &Factor<u64>) {
            for d in 0..f.arity() {
                let scan = f.iter().map(|(row, _)| row[d]).max();
                // Twice: the first ask fills the cache, the second reads it.
                assert_eq!(f.max_in_column(d), scan, "{f:?}, column {d}");
                assert_eq!(f.max_in_column(d), scan, "{f:?}, column {d}, cached");
            }
        }
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..40 {
            let dom = rng.gen_range(1..12u32);
            let tuples: Vec<(Vec<u32>, u64)> = (0..rng.gen_range(0..25))
                .map(|_| ((0..3).map(|_| rng.gen_range(0..dom)).collect(), rng.gen_range(1..5)))
                .collect();
            let schema = vec![v(0), v(1), v(2)];
            let f =
                Factor::with_combine(schema.clone(), tuples, |a, b| a + b, |&x| x == 0).unwrap();
            assert_maxima(&f);
            assert_maxima(&f.reorder(&[v(2), v(0), v(1)]));
            assert_maxima(&f.align_to(&[v(1), v(2), v(0)]));
            let batch = rng.gen_range(0..8);
            let entries: std::collections::BTreeMap<Vec<u32>, DeltaOp<u64>> = (0..batch)
                .map(|_| {
                    let op = match rng.gen_range(0..3) {
                        0 => DeltaOp::Put(rng.gen_range(1..5)),
                        1 => DeltaOp::Merge(rng.gen_range(1..5)),
                        _ => DeltaOp::Delete,
                    };
                    // Keys up to `dom + 1`: a merge may raise a column's maximum.
                    ((0..3).map(|_| rng.gen_range(0..dom + 2)).collect(), op)
                })
                .collect();
            let delta = DeltaFactor::new(schema, entries.into_iter().collect()).unwrap();
            assert_maxima(&delta.apply_to(&f, |a, b| a + b, |&x| x == 0).0);
        }
    }
}
