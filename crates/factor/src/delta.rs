//! Sorted point-update batches ([`DeltaFactor`]) and their application to
//! factors — the input side of incremental delta evaluation.
//!
//! A delta is a sorted, duplicate-free batch of keyed operations against one
//! factor: overwrite a tuple's value ([`DeltaOp::Put`]), `⊕`-combine into it
//! ([`DeltaOp::Merge`]), or remove it ([`DeltaOp::Delete`]). Applying a delta
//! yields the merged factor **plus** the half-open value ranges of the first
//! column that actually changed — the anchor ranges the incremental engine
//! uses to confine every downstream elimination step to the touched prefixes
//! of its inputs (see `faq_core::delta`).
//!
//! Like the rest of this crate, deltas are semiring-agnostic: the `⊕` used by
//! `Merge` and the zero test are passed in as closures.

use crate::factor::{check_schema, Factor, FactorBuilder, FactorError};
use faq_hypergraph::Var;
use faq_semiring::SemiringElem;
use std::cmp::Ordering;

/// Record `key`'s first-column value as changed, coalescing with the last
/// range. Keys are visited in ascending tuple order, so first-column values
/// are non-decreasing and coalescing only ever touches the last range.
fn note_change(key: &[u32], changed: &mut Vec<(u32, u32)>) {
    let (lo, hi) = match key.first() {
        Some(&v) => (v, v.saturating_add(1)),
        None => (0, u32::MAX),
    };
    match changed.last_mut() {
        Some(last) if last.1 >= hi => {}
        Some(last) if lo <= last.1 => last.1 = hi,
        _ => changed.push((lo, hi)),
    }
}

/// One keyed operation of a [`DeltaFactor`].
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp<E> {
    /// Overwrite the tuple's value (insert if absent). A `Put` of the
    /// semiring zero deletes the tuple — listing factors never store zeros.
    Put(E),
    /// `⊕`-combine into the tuple's value (`old ⊕ v`), inserting `v` if the
    /// tuple is absent. A combination that reaches zero deletes the tuple.
    Merge(E),
    /// Remove the tuple (a no-op if it is absent). Unlike algebraic
    /// `⊕`-inverses — which most FAQ semirings lack — deletion here is exact:
    /// the delta engine recomputes affected ranges instead of subtracting.
    Delete,
}

/// A sorted, duplicate-free batch of point updates against one factor.
///
/// Keys are full tuples under `schema`; entries are kept sorted
/// lexicographically so application is a single merge pass over the base
/// factor's rows. Construct with [`DeltaFactor::new`] (arbitrary ops) or the
/// [`DeltaFactor::inserts`] / [`DeltaFactor::deletes`] conveniences.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaFactor<E> {
    schema: Vec<Var>,
    rows: Vec<u32>,
    ops: Vec<DeltaOp<E>>,
}

impl<E: SemiringElem> DeltaFactor<E> {
    /// Build a delta from `(tuple, op)` entries, sorting them and rejecting
    /// duplicate tuples and arity mismatches.
    pub fn new(
        schema: Vec<Var>,
        mut entries: Vec<(Vec<u32>, DeltaOp<E>)>,
    ) -> Result<Self, FactorError> {
        check_schema(&schema)?;
        let arity = schema.len();
        for (t, _) in &entries {
            if t.len() != arity {
                return Err(FactorError::ArityMismatch { expected: arity, got: t.len() });
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        for w in entries.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(FactorError::DuplicateTuple(w[0].0.clone()));
            }
        }
        let mut rows = Vec::with_capacity(entries.len() * arity);
        let mut ops = Vec::with_capacity(entries.len());
        for (t, op) in entries {
            rows.extend_from_slice(&t);
            ops.push(op);
        }
        Ok(DeltaFactor { schema, rows, ops })
    }

    /// A delta that [`DeltaOp::Put`]s every `(tuple, value)` pair.
    pub fn inserts(schema: Vec<Var>, tuples: Vec<(Vec<u32>, E)>) -> Result<Self, FactorError> {
        Self::new(schema, tuples.into_iter().map(|(t, v)| (t, DeltaOp::Put(v))).collect())
    }

    /// A delta that [`DeltaOp::Delete`]s every tuple.
    pub fn deletes(schema: Vec<Var>, tuples: Vec<Vec<u32>>) -> Result<Self, FactorError> {
        Self::new(schema, tuples.into_iter().map(|t| (t, DeltaOp::Delete)).collect())
    }

    /// The column order the delta's keys are expressed in.
    pub fn schema(&self) -> &[Var] {
        &self.schema
    }

    /// Number of keyed operations in the batch.
    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    /// The `i`-th key tuple (sorted order).
    pub(crate) fn key(&self, i: usize) -> &[u32] {
        let a = self.schema.len();
        &self.rows[i * a..(i + 1) * a]
    }

    /// The `i`-th operation.
    pub(crate) fn op(&self, i: usize) -> &DeltaOp<E> {
        &self.ops[i]
    }

    /// Iterate `(key, op)` pairs in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], &DeltaOp<E>)> + '_ {
        (0..self.len()).map(move |i| (self.key(i), self.op(i)))
    }

    /// Re-express the delta's keys under the relative column order of
    /// `global` (every schema variable must appear in `global`), re-sorting
    /// the entries — the delta-side analogue of [`Factor::align_to`].
    pub fn align_to(&self, global: &[Var]) -> DeltaFactor<E> {
        let new_schema: Vec<Var> =
            global.iter().copied().filter(|v| self.schema.contains(v)).collect();
        assert_eq!(
            new_schema.len(),
            self.schema.len(),
            "global order {:?} does not cover delta schema {:?}",
            global,
            self.schema
        );
        if new_schema == self.schema {
            return self.clone();
        }
        let perm: Vec<usize> = new_schema
            .iter()
            .map(|v| self.schema.iter().position(|s| s == v).expect("covered above"))
            .collect();
        let entries: Vec<(Vec<u32>, DeltaOp<E>)> = self
            .iter()
            .map(|(key, op)| (perm.iter().map(|&p| key[p]).collect(), op.clone()))
            .collect();
        Self::new(new_schema, entries).expect("permuting distinct keys keeps them distinct")
    }

    /// Apply the delta to `base` (same schema), returning the merged factor
    /// and the coalesced half-open ranges of first-column values whose rows
    /// actually changed (inserted, removed, or given a different value).
    ///
    /// `merge` is the `⊕` used by [`DeltaOp::Merge`]; `is_zero` detects
    /// values that must be dropped from the listing. No-op entries — deleting
    /// an absent tuple, or a `Put`/`Merge` that reproduces the stored value —
    /// contribute no range, so an effect-free delta returns empty ranges and
    /// a factor equal to `base` — for an empty batch, `base` itself, with no
    /// row read.
    ///
    /// For a nullary `base` the single change range is `(0, u32::MAX)`:
    /// there is no first column to anchor on, and callers must treat the
    /// factor as fully changed.
    ///
    /// # Panics
    ///
    /// Panics if `base.schema()` differs from the delta's schema (align one
    /// side first with [`DeltaFactor::align_to`]).
    pub fn apply_to(
        &self,
        base: &Factor<E>,
        mut merge: impl FnMut(&E, &E) -> E,
        mut is_zero: impl FnMut(&E) -> bool,
    ) -> (Factor<E>, Vec<(u32, u32)>) {
        assert_eq!(
            base.schema(),
            &self.schema[..],
            "delta schema must match the base factor's column order"
        );
        if self.ops.is_empty() {
            return (base.clone(), Vec::new());
        }
        let mut changed: Vec<(u32, u32)> = Vec::new();
        // The one merge routine, for both backings: the base's rows stream
        // in order against the delta's keys into a builder like the base — a
        // spilled base's merge is written beside it, indexed as it goes.
        // Keys absent from the base insert (`Put`, `Merge`) or are no-ops
        // (`Delete`, a zero); keys present overwrite, `⊕`-combine or remove.
        let mut out = FactorBuilder::like(base);
        out.reserve(base.len() + self.len());
        let mut apply = |out: &mut FactorBuilder<E>, d: usize, old: Option<&E>| {
            let key = self.key(d);
            // `old` is what the key maps to in the base, `new` what it maps
            // to afterwards; a range is noted only if they differ.
            let new = match (self.op(d), old) {
                (DeltaOp::Put(v), _) | (DeltaOp::Merge(v), None) => Some(v.clone()),
                (DeltaOp::Merge(v), Some(old)) => Some(merge(old, v)),
                (DeltaOp::Delete, _) => None,
            }
            .filter(|v| !is_zero(v));
            if new.as_ref() != old {
                note_change(key, &mut changed);
            }
            if let Some(v) = new {
                out.push(key, v);
            }
        };
        let mut keys = (0..self.len()).map(|d| (d, self.key(d))).peekable();
        base.for_each_row_grouped(true, &[], &mut |row, val| {
            while let Some(&(d, key)) = keys.peek() {
                match key.cmp(row) {
                    Ordering::Less => apply(&mut out, d, None),
                    Ordering::Equal => {
                        apply(&mut out, d, Some(val));
                        keys.next();
                        return;
                    }
                    Ordering::Greater => break,
                }
                keys.next();
            }
            out.push(row, val.clone());
        });
        for (d, _) in keys {
            apply(&mut out, d, None);
        }
        (out.finish(), changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faq_hypergraph::v;

    fn base() -> Factor<u64> {
        Factor::new(
            vec![v(0), v(1)],
            vec![(vec![0, 0], 3), (vec![0, 1], 5), (vec![2, 2], 7), (vec![5, 0], 9)],
        )
        .unwrap()
    }

    #[test]
    fn new_sorts_and_rejects_duplicates() {
        let d = DeltaFactor::new(
            vec![v(0), v(1)],
            vec![(vec![3, 0], DeltaOp::Put(1u64)), (vec![1, 1], DeltaOp::Delete)],
        )
        .unwrap();
        assert_eq!(d.key(0), &[1, 1]);
        assert_eq!(d.key(1), &[3, 0]);
        let err = DeltaFactor::new(
            vec![v(0)],
            vec![(vec![1], DeltaOp::Put(1u64)), (vec![1], DeltaOp::Delete)],
        )
        .unwrap_err();
        assert_eq!(err, FactorError::DuplicateTuple(vec![1]));
        let err =
            DeltaFactor::new(vec![v(0), v(1)], vec![(vec![1], DeltaOp::Put(1u64))]).unwrap_err();
        assert!(matches!(err, FactorError::ArityMismatch { expected: 2, got: 1 }));
    }

    #[test]
    fn apply_put_merge_delete() {
        let d = DeltaFactor::new(
            vec![v(0), v(1)],
            vec![
                (vec![0, 0], DeltaOp::Put(8u64)), // overwrite 3 -> 8
                (vec![0, 1], DeltaOp::Merge(2)),  // 5 ⊕ 2 -> 7
                (vec![2, 2], DeltaOp::Delete),    // remove
                (vec![3, 3], DeltaOp::Merge(4)),  // insert
                (vec![9, 9], DeltaOp::Delete),    // absent: no-op
            ],
        )
        .unwrap();
        let (f, ranges) = d.apply_to(&base(), |a, b| a + b, |&x| x == 0);
        let expect = Factor::new(
            vec![v(0), v(1)],
            vec![(vec![0, 0], 8), (vec![0, 1], 7), (vec![3, 3], 4), (vec![5, 0], 9)],
        )
        .unwrap();
        assert_eq!(f, expect);
        assert_eq!(ranges, vec![(0, 1), (2, 4)]);
    }

    #[test]
    fn noop_delta_reports_no_ranges() {
        let d = DeltaFactor::new(
            vec![v(0), v(1)],
            vec![
                (vec![0, 0], DeltaOp::Put(3u64)), // same value
                (vec![0, 1], DeltaOp::Merge(0)),  // 5 ⊕ 0 = 5
                (vec![7, 7], DeltaOp::Delete),    // absent
                (vec![8, 8], DeltaOp::Put(0)),    // zero insert
            ],
        )
        .unwrap();
        let (f, ranges) = d.apply_to(&base(), |a, b| a + b, |&x| x == 0);
        assert_eq!(f, base());
        assert!(ranges.is_empty());
        let empty = DeltaFactor::<u64>::new(vec![v(0), v(1)], vec![]).unwrap();
        let (f, ranges) = empty.apply_to(&base(), |a, b| a + b, |&x| x == 0);
        assert_eq!(f, base());
        assert!(ranges.is_empty());
    }

    #[test]
    fn merge_to_zero_deletes() {
        let b = Factor::new(vec![v(0)], vec![(vec![4], 5i64)]).unwrap();
        let d = DeltaFactor::new(vec![v(0)], vec![(vec![4], DeltaOp::Merge(-5i64))]).unwrap();
        let (f, ranges) = d.apply_to(&b, |a, b| a + b, |&x| x == 0);
        assert!(f.is_empty());
        assert_eq!(ranges, vec![(4, 5)]);
    }

    #[test]
    fn apply_to_empty_base() {
        let b = Factor::<u64>::new(vec![v(0), v(1)], vec![]).unwrap();
        let d = DeltaFactor::inserts(vec![v(0), v(1)], vec![(vec![1, 2], 6u64), (vec![1, 3], 7)])
            .unwrap();
        let (f, ranges) = d.apply_to(&b, |a, b| a + b, |&x| x == 0);
        assert_eq!(f.len(), 2);
        assert_eq!(f.get(&[1, 2]), Some(&6));
        assert_eq!(ranges, vec![(1, 2)]);
    }

    #[test]
    fn adjacent_changes_coalesce() {
        let d = DeltaFactor::inserts(
            vec![v(0), v(1)],
            vec![(vec![1, 0], 1u64), (vec![2, 0], 1), (vec![3, 0], 1)],
        )
        .unwrap();
        let (_, ranges) = d.apply_to(&base(), |a, b| a + b, |&x| x == 0);
        assert_eq!(ranges, vec![(1, 4)]);
    }

    #[test]
    fn nullary_change_is_full_range() {
        let b = Factor::nullary(Some(2u64));
        let d = DeltaFactor::new(vec![], vec![(vec![], DeltaOp::Put(9u64))]).unwrap();
        let (f, ranges) = d.apply_to(&b, |a, b| a + b, |&x| x == 0);
        assert_eq!(f.get(&[]), Some(&9));
        assert_eq!(ranges, vec![(0, u32::MAX)]);
    }

    #[test]
    fn spilled_apply_matches_mem_in_one_pass_and_comes_back_indexed() {
        use crate::colstore::SpillConfig;
        // 32 rows in 8 values chunks of 4; touch the second and last chunks.
        let rows: Vec<(Vec<u32>, u64)> =
            (0..32u32).map(|i| (vec![i, i % 3], u64::from(i) + 1)).collect();
        let mem = Factor::new(vec![v(0), v(1)], rows).unwrap();
        let config = SpillConfig { chunk_rows: 4, ..SpillConfig::default() };
        let spilled = mem.to_spilled(config);
        let d = DeltaFactor::new(
            vec![v(0), v(1)],
            vec![
                (vec![5, 2], DeltaOp::Put(99u64)), // chunk 1: overwrite
                (vec![6, 0], DeltaOp::Merge(10)),  // chunk 1: 7 ⊕ 10
                (vec![30, 0], DeltaOp::Delete),    // chunk 7: remove
                (vec![31, 2], DeltaOp::Put(1)),    // gap insert after last row
            ],
        )
        .unwrap();
        let (want, want_ranges) = d.apply_to(&mem, |a, b| a + b, |&x| x == 0);
        let base = spilled.spill_stats().unwrap();
        let (got, got_ranges) = d.apply_to(&spilled, |a, b| a + b, |&x| x == 0);
        // One sequential pass over the base: no chunk of it is read twice.
        let reads = spilled.spill_stats().unwrap().reads - base.reads;
        assert!(reads <= base.chunks as u64, "{reads} reads of {} chunks", base.chunks);
        // The merge comes back indexed: indexing it reads nothing.
        assert!(got.is_spilled());
        assert!(got.trie_if_built().is_some(), "a spilled merge is indexed when written");
        let before = got.spill_stats().unwrap().reads;
        let _ = got.trie();
        assert_eq!(got.spill_stats().unwrap().reads, before, "indexing read a chunk");
        assert_eq!(got, want);
        assert_eq!(got_ranges, want_ranges);
        // The merged factor answers point lookups like the mem result.
        assert_eq!(got.get_cloned(&[5, 2]), Some(99));
        assert_eq!(got.get_cloned(&[6, 0]), Some(17));
        assert_eq!(got.get_cloned(&[30, 0]), None);
        assert_eq!(got.get_cloned(&[31, 2]), Some(1));
    }

    #[test]
    fn align_to_permutes_keys() {
        let d = DeltaFactor::inserts(vec![v(1), v(0)], vec![(vec![0, 5], 1u64), (vec![9, 2], 2)])
            .unwrap();
        let a = d.align_to(&[v(0), v(1), v(2)]);
        assert_eq!(a.schema(), &[v(0), v(1)]);
        assert_eq!(a.key(0), &[2, 9]);
        assert_eq!(a.key(1), &[5, 0]);
        assert_eq!(d.align_to(&[v(1), v(0)]), d);
    }
}
