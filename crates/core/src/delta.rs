//! Incremental delta evaluation for prepared queries.
//!
//! A [`crate::plan::PreparedQuery`] serves repeated evaluations of one FAQ
//! expression over mutable factors. Re-running InsideOut from scratch after a
//! point update repeats work proportional to the *whole* database; this module
//! confines the repeated work to the *touched key ranges* instead.
//!
//! # How it works
//!
//! The first incremental call runs the query's compiled step list
//! ([`mod@crate::insideout`]) exactly as a fresh evaluation does — same
//! steps, same executor, same kernels — but keeps every node the steps write
//! (intermediates, guards, materialized filter projections, the output)
//! instead of dropping each after its last reader. That kept arena plus the
//! step list is the `DeltaCache`; the cached intermediates are what a fresh
//! evaluation builds because they *are* a fresh evaluation's.
//!
//! A delta ([`DeltaFactor`]) then merges into its slot's factor, reporting the
//! changed values of the factor's **first column** as sorted half-open ranges.
//! Replay walks the step list once more, propagating a per-node dirty state:
//!
//! * `Clean` — node unchanged, step output reused from cache;
//! * `Ranges(rs)` — node rows changed only where its first column lies in
//!   `rs`;
//! * `Full` — node must be treated as wholly changed.
//!
//! A join step whose dirty inputs are all `Ranges` *on the step's first join
//! variable* is re-run **restricted**: the step's one join driver
//! (`exec::grouped_join`, the same one a fresh step runs through) is handed
//! those ranges in place of its own chunking cuts and runs them in order,
//! into one builder, over the (already updated) inputs, and the small
//! recomputed slice is spliced into the cached output with
//! [`Factor::splice_by_first`]. This is sound because elimination joins
//! enumerate bindings in lexicographic order of the join order — a fold group
//! never spans two first-column values — and because every intermediate's
//! schema starts with the step's first join variable, so changes confined to
//! first-column ranges of the inputs stay confined to the same ranges of the
//! output. Steps that don't satisfy the alignment condition (or whose output
//! is a scalar) fall back to a full re-run of that one step; so does a step
//! whose kernel binds the eliminated variable first (its ranges cut that
//! variable, not the output's first column). Everything untouched still
//! comes from the cache.
//!
//! The public surface is [`crate::plan::PreparedQuery::apply_delta`] /
//! [`apply_delta_with`](crate::plan::PreparedQuery::apply_delta_with); the
//! workspace's differential oracle (`tests/oracle.rs`) checks the replayed
//! output bit-identical to a from-scratch re-evaluation across semirings,
//! thread counts, orderings and backings, and `tests/delta_equivalence.rs`
//! holds the named adversarial cases.

pub use faq_factor::{DeltaFactor, DeltaOp};

use crate::exec::ExecPolicy;
use crate::insideout::{run_fresh, run_steps, FaqOutput, OutputForm, Program, Slots};
use crate::query::{FaqError, FaqQuery};
use faq_factor::Factor;
use faq_hypergraph::Var;
use faq_semiring::{AggDomain, SemiringElem};

/// How a node differs from its cached value while a step list runs.
#[derive(Debug, Clone)]
pub(crate) enum Dirty {
    Clean,
    /// Rows changed only where the node's first column lies in these sorted,
    /// disjoint, half-open ranges.
    Ranges(Vec<(u32, u32)>),
    Full,
}

/// One prepared query's kept run: the compiled step list plus every node its
/// steps wrote (intermediates, guards, materialized projections, output).
/// The query's own factors are not copied; steps read them by reference.
#[derive(Debug, Clone)]
pub(crate) struct DeltaCache<E: SemiringElem> {
    prog: Program,
    slots: Slots<E>,
}

impl<E: SemiringElem> DeltaCache<E> {
    /// Evaluate `q` along `sigma` as a fresh run does, keeping every node.
    pub(crate) fn prime<D: AggDomain<E = E> + Sync>(
        q: &FaqQuery<D>,
        sigma: &[Var],
        policy: &ExecPolicy,
    ) -> Result<Self, FaqError> {
        let (prog, slots, _) =
            run_fresh(q, sigma, policy, /* keep */ true, OutputForm::Listing)?;
        Ok(DeltaCache { prog, slots })
    }

    /// The cached output factor (the result of the latest replayed — or
    /// initial — evaluation).
    pub(crate) fn output_factor(&self) -> &Factor<E> {
        self.slots[self.prog.output_step().output].as_ref().expect("primed by a full run")
    }

    /// Re-run the steps reached by a change of the factor in `slot` within
    /// first-column `ranges` (the updated factor is already installed in
    /// `q`). Returns the new output plus statistics of the work the replay
    /// actually performed — skipped (clean) steps contribute nothing, which
    /// is the whole point. A failure leaves the arena half-updated: the
    /// caller drops the cache.
    pub(crate) fn replay<D: AggDomain<E = E> + Sync>(
        &mut self,
        q: &FaqQuery<D>,
        policy: &ExecPolicy,
        slot: usize,
        ranges: Vec<(u32, u32)>,
    ) -> Result<FaqOutput<E>, FaqError> {
        debug_assert!(!ranges.is_empty(), "empty deltas are handled before replay");
        let mut dirty = vec![Dirty::Clean; self.prog.nodes];
        dirty[slot] =
            if q.factors[slot].arity() == 0 { Dirty::Full } else { Dirty::Ranges(ranges) };
        let upto = self.prog.steps.len();
        let stats = run_steps(q, policy, &self.prog, upto, &mut self.slots, &mut dirty, true)?;
        Ok(FaqOutput { factor: self.output_factor().clone(), stats })
    }
}

/// Union of two sorted, disjoint, coalesced half-open range lists — sorted,
/// disjoint, and coalesced again (adjacent ranges merge).
pub(crate) fn union_ranges(a: &[(u32, u32)], b: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    let push = |out: &mut Vec<(u32, u32)>, r: (u32, u32)| match out.last_mut() {
        Some(last) if r.0 <= last.1 => last.1 = last.1.max(r.1),
        _ => out.push(r),
    };
    while i < a.len() && j < b.len() {
        if a[i].0 <= b[j].0 {
            push(&mut out, a[i]);
            i += 1;
        } else {
            push(&mut out, b[j]);
            j += 1;
        }
    }
    for &r in &a[i..] {
        push(&mut out, r);
    }
    for &r in &b[j..] {
        push(&mut out, r);
    }
    out
}

/// The coalesced first-column ranges on which two same-schema factors differ:
/// a two-pointer merge over the sorted listings, marking the first-column
/// value of every deleted, inserted, or value-changed row. Marks arrive in
/// nondecreasing order (the merge always advances the lexicographically
/// smaller row), so coalescing is a constant-time tail check.
fn diff_first_ranges<E: SemiringElem>(old: &Factor<E>, new: &Factor<E>) -> Vec<(u32, u32)> {
    debug_assert_eq!(old.schema(), new.schema());
    debug_assert!(new.arity() > 0);
    let mut out: Vec<(u32, u32)> = Vec::new();
    let mark = |out: &mut Vec<(u32, u32)>, v: u32| match out.last_mut() {
        Some(last) if v < last.1 => {}
        Some(last) if v == last.1 => last.1 = v + 1,
        _ => out.push((v, v + 1)),
    };
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() && j < new.len() {
        match old.row(i).cmp(new.row(j)) {
            std::cmp::Ordering::Less => {
                mark(&mut out, old.row(i)[0]); // deleted
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                mark(&mut out, new.row(j)[0]); // inserted
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if old.value(i) != new.value(j) {
                    mark(&mut out, old.row(i)[0]);
                }
                i += 1;
                j += 1;
            }
        }
    }
    for k in i..old.len() {
        mark(&mut out, old.row(k)[0]);
    }
    for k in j..new.len() {
        mark(&mut out, new.row(k)[0]);
    }
    out
}

/// The dirtiness of replacing the cached `old` by `new`: `Clean` when
/// identical, first-column [`Dirty::Ranges`] where they differ, `Full` for
/// scalars (nothing to anchor a range on) and when nothing was cached.
pub(crate) fn narrowed_dirty<E: SemiringElem>(old: Option<&Factor<E>>, new: &Factor<E>) -> Dirty {
    let Some(old) = old.filter(|old| new.arity() > 0 && old.schema() == new.schema()) else {
        return Dirty::Full;
    };
    let rs = diff_first_ranges(old, new);
    if rs.is_empty() {
        Dirty::Clean
    } else {
        Dirty::Ranges(rs)
    }
}

/// Whether `new` differs from `old` (same schema) only in rows whose
/// first-column value lies inside `ranges` — the contract of
/// [`crate::plan::PreparedQuery::install_merged`]. Vacuously true where the
/// row diff has nothing to say: scalars, and spilled factors (it walks rows
/// in memory).
pub(crate) fn differs_only_within<E: SemiringElem>(
    old: &Factor<E>,
    new: &Factor<E>,
    ranges: &[(u32, u32)],
) -> bool {
    if old.is_spilled() || new.is_spilled() {
        return true;
    }
    match narrowed_dirty(Some(old), new) {
        Dirty::Clean | Dirty::Full => true,
        Dirty::Ranges(rs) => rs.iter().all(|r| ranges.iter().any(|o| o.0 <= r.0 && r.1 <= o.1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_ranges_merges_and_coalesces() {
        assert_eq!(union_ranges(&[], &[(1, 2)]), vec![(1, 2)]);
        assert_eq!(union_ranges(&[(0, 2), (5, 6)], &[(2, 3)]), vec![(0, 3), (5, 6)]);
        assert_eq!(union_ranges(&[(0, 4)], &[(1, 2), (6, 7)]), vec![(0, 4), (6, 7)]);
        assert_eq!(union_ranges(&[(3, 5)], &[(0, 1)]), vec![(0, 1), (3, 5)]);
    }

    #[test]
    fn diff_first_ranges_marks_inserts_deletes_and_value_changes() {
        use faq_hypergraph::v;
        let f =
            |rows: Vec<(Vec<u32>, u64)>| Factor::new(vec![v(0), v(1)], rows).expect("valid factor");
        let old = f(vec![(vec![0, 0], 1), (vec![2, 1], 5), (vec![4, 0], 7), (vec![4, 2], 8)]);
        // Row (2,1) changes value, (4,0) is deleted, (5,0) is inserted;
        // (0,0) and (4,2) are untouched — 4 stays dirty via the deletion.
        let new = f(vec![(vec![0, 0], 1), (vec![2, 1], 6), (vec![4, 2], 8), (vec![5, 0], 9)]);
        assert_eq!(diff_first_ranges(&old, &new), vec![(2, 3), (4, 6)]);
        assert!(diff_first_ranges(&old, &old).is_empty());
        assert!(matches!(narrowed_dirty(Some(&old), &old), Dirty::Clean));
        assert!(matches!(narrowed_dirty(Some(&old), &new), Dirty::Ranges(_)));
        let s = Factor::nullary(Some(3u64));
        assert!(matches!(narrowed_dirty(Some(&s), &s), Dirty::Full));
        assert!(matches!(narrowed_dirty(None, &old), Dirty::Full));
    }
}
