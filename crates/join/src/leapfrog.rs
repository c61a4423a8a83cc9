//! The LeapFrog-TrieJoin-style backtracking join (OutsideIn).
//!
//! The search enumerates bindings in lexicographic order of the variable
//! ordering; at each depth the participating factors' cursors leapfrog to the
//! least commonly-present value. It is written once, over a private cursor
//! trait, and [`multiway_join_range_rep`] picks the cursor type once per call
//! ([`JoinRep`]), so the seek loop is monomorphised with no per-seek
//! dispatch:
//!
//! * [`JoinRep::Trie`] (default) — walk the factor's columnar trie index
//!   ([`faq_factor::FactorTrie`]): each seek is one galloping search over
//!   the *distinct* values of a trie level, and each descent is an O(1)
//!   offset lookup cached from the preceding seek;
//! * [`JoinRep::Listing`] — binary-search the sorted row listing directly
//!   ([`Factor::seek_column`] / [`Factor::prefix_range`]), re-scanning shared
//!   prefixes on every seek. Kept as the reference the trie search is tested
//!   against.
//!
//! # The fused deepest level
//!
//! Under the trie, the last variable of the ordering is not searched by
//! recursion. Its participants' candidate windows are fixed for the whole
//! intersection, so each is resolved once to its level storage — the heap
//! kernel ([`faq_factor::VecStorage`]) when every such level is in memory,
//! the dispatching [`faq_factor::FactorLevel`] when one is spilled — and
//! leapfrogged in place. A match reads each value input's row straight from
//! the entry its last seek found (at a factor's deepest level, entry index
//! = listing row), `⊗`s the values in input order and reports the binding:
//! no `open`, no `up`, no key compare, no recursion, no allocation. The
//! listing reference recurses to the bottom, which is what lets the tests
//! compare the fused loop with the plain search.
//!
//! # Counting contract
//!
//! [`JoinStats`] is the paper's cost model (Thm 5.1 bounds the seeks of a
//! step by AGM(U)), so both searches count identically, in one place each:
//! `seeks += 1` per seek call (`count_seek`, which also polls the
//! deadline / cancel controls every 1024 seeks), `nodes += 1` per
//! search-tree node — in the fused loop, one for the intersection and one per
//! match for the leaf the recursion would visit — and `matches += 1` per
//! reported binding. On a full-range join the two representations report
//! identical output streams and identical stats (chunked runs may differ
//! marginally at chunk boundaries); only the cost per seek differs.

use faq_factor::{Domains, Factor, FactorLevel, LevelStorage, TrieCursor, VecStorage};
use faq_hypergraph::Var;
use faq_semiring::SemiringElem;
use std::borrow::Cow;

/// One input to a multiway join.
///
/// Construct through [`JoinInput::value`], [`JoinInput::filter`], or
/// [`JoinInput::prefix_filter`] — the struct is `#[non_exhaustive]`, so new
/// per-input knobs can be added without breaking downstream constructors.
#[non_exhaustive]
pub struct JoinInput<'a, E> {
    /// The factor; its schema must be a subsequence of the join's variable
    /// ordering restricted to its variables (call [`Factor::align_to`] first —
    /// [`multiway_join_range_rep`] does this automatically, except for
    /// [`JoinInput::prefix_filter`] inputs, whose column order is the
    /// caller's contract).
    pub factor: &'a Factor<E>,
    /// Whether the factor's values participate in the output product.
    /// Indicator projections and guard factors set this to `false`: they
    /// filter the search but contribute the multiplicative identity.
    pub use_value: bool,
    /// `Some(k)`: only the first `k` columns of the factor participate — a
    /// *lazy indicator projection*. The cursors walk the factor's own
    /// (cached) index, never descending past depth `k`; because trie level
    /// `d < k` lists exactly the distinct length-`d+1` prefixes, this is
    /// search-for-search identical to joining a materialized prefix
    /// projection, without building one. Caller contract: `schema[..k]` must
    /// already follow the join order (a *sigma-compatible prefix*), and such
    /// inputs are never value-carrying.
    pub prefix: Option<usize>,
}

impl<'a, E> JoinInput<'a, E> {
    /// A value-carrying input.
    pub fn value(factor: &'a Factor<E>) -> Self {
        JoinInput { factor, use_value: true, prefix: None }
    }

    /// A filter-only input (indicator projection / guard).
    pub fn filter(factor: &'a Factor<E>) -> Self {
        JoinInput { factor, use_value: false, prefix: None }
    }

    /// This input's flags rebound to `factor` — the constructor for engine
    /// code that swaps an input's factor for an aligned copy of the same
    /// data while keeping its value/prefix semantics.
    pub fn rebind<'b>(&self, factor: &'b Factor<E>) -> JoinInput<'b, E> {
        JoinInput { factor, use_value: self.use_value, prefix: self.prefix }
    }
}

impl<'a, E: SemiringElem> JoinInput<'a, E> {
    /// A filter over the first `depth` columns only: the lazy replacement for
    /// `factor.indicator_projection(...)` when the kept columns are a
    /// sigma-compatible prefix of the factor's schema (see
    /// [`JoinInput::prefix`] for the exact contract).
    pub fn prefix_filter(factor: &'a Factor<E>, depth: usize) -> Self {
        assert!(
            depth >= 1 && depth <= factor.arity(),
            "prefix depth {depth} out of range for arity {}",
            factor.arity()
        );
        JoinInput { factor, use_value: false, prefix: Some(depth) }
    }
}

/// Which factor representation the join cursors walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinRep {
    /// Whole-row binary searches over the sorted listing — the reference
    /// kernel ([`Factor::seek_column`] / [`Factor::prefix_range`]).
    Listing,
    /// The columnar trie index ([`Factor::trie`]): per-level distinct-value
    /// seeks with O(1) cached descents. The default.
    #[default]
    Trie,
}

/// Counters reported by [`multiway_join_range_rep`], used by the benchmark harness to
/// verify the AGM-bound shape of Theorem 5.1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Number of complete output bindings produced.
    pub matches: u64,
    /// Number of `seek` conditional queries issued to factor tries.
    pub seeks: u64,
    /// Number of search-tree nodes visited (partial bindings).
    pub nodes: u64,
}

/// What the search asks of one factor's cursor. Columns bind in schema
/// order, so the cursor's own depth — not a global column map — tracks which
/// column the next seek addresses.
trait JoinCursor {
    /// Least value `≥ bound` in the column now being sought, or `None`.
    fn seek(&mut self, bound: u32) -> Option<u32>;

    /// Bind the sought column to `value` (which a preceding seek confirmed
    /// present) and descend.
    fn open(&mut self, value: u32);

    /// Undo the last `open`.
    fn up(&mut self);

    /// The listing row of the current full binding (every column open).
    fn row(&self) -> usize;

    /// The candidates of the column now being sought, as a window of the
    /// cursor's own positions: entries of the current trie level, or rows
    /// of the listing.
    fn window(&self) -> (usize, usize);
}

impl JoinCursor for TrieCursor<'_> {
    fn seek(&mut self, bound: u32) -> Option<u32> {
        TrieCursor::seek(self, bound)
    }

    fn open(&mut self, value: u32) {
        TrieCursor::open(self, value)
    }

    fn up(&mut self) {
        TrieCursor::up(self)
    }

    fn row(&self) -> usize {
        TrieCursor::row(self)
    }

    fn window(&self) -> (usize, usize) {
        TrieCursor::window(self)
    }
}

/// The reference cursor: a stack of active listing row ranges, one frame per
/// bound column plus the root. The column being sought is `ranges.len() - 1`.
struct ListingCursor<'a, E> {
    factor: &'a Factor<E>,
    ranges: Vec<(usize, usize)>,
}

impl<E: SemiringElem> JoinCursor for ListingCursor<'_, E> {
    fn seek(&mut self, bound: u32) -> Option<u32> {
        self.factor.seek_column(self.window(), self.ranges.len() - 1, bound)
    }

    fn open(&mut self, value: u32) {
        let narrowed = self.factor.prefix_range(self.window(), self.ranges.len() - 1, value);
        debug_assert!(narrowed.0 < narrowed.1, "open of an absent value");
        self.ranges.push(narrowed);
    }

    fn up(&mut self) {
        self.ranges.pop();
    }

    fn row(&self) -> usize {
        let (lo, hi) = self.window();
        debug_assert_eq!(hi - lo, 1, "rows are distinct");
        lo
    }

    fn window(&self) -> (usize, usize) {
        *self.ranges.last().expect("range stack never empty")
    }
}

/// One input after alignment, kept alive while cursors borrow it.
struct Aligned<'a, E: SemiringElem> {
    factor: Cow<'a, Factor<E>>,
    use_value: bool,
    /// Number of leading schema columns that participate in the search: the
    /// full arity, or the depth cap of a prefix-filter input.
    eff_arity: usize,
}

/// One input's place in the search: its cursor, plus what the fused deepest
/// level reads of it. `S` is the storage the fused loop seeks.
struct Slot<'a, C, S, E> {
    cursor: C,
    /// The factor whose values this input contributes; `None` for filters.
    value: Option<&'a Factor<E>>,
    /// The level this input offers at the last variable of the ordering,
    /// when it is constrained there and the search fuses that level.
    leaf: Option<&'a S>,
    /// The candidate window in `leaf` of the intersection in progress.
    window: (usize, usize),
    /// The entry of `leaf` the last seek found (`usize::MAX` when cold) —
    /// at a factor's deepest level, its listing row. For a value input
    /// bound above the leaf, its row for the whole intersection.
    at: usize,
}

impl<'a, C, S, E: SemiringElem> Slot<'a, C, S, E> {
    fn new(input: &'a Aligned<'_, E>, cursor: C, leaf: Option<&'a S>) -> Self {
        let value = input.use_value.then_some(input.factor.as_ref());
        Slot { cursor, value, leaf, window: (0, 0), at: usize::MAX }
    }
}

/// What one join call fixes before its search starts.
struct Frame<'a, E> {
    domains: &'a Domains,
    order: &'a [Var],
    /// `participants[d]`: the slots constrained at depth `d`, ascending.
    participants: &'a [Vec<usize>],
    first_range: (u32, u32),
    /// The `⊗` of the nullary value inputs: every match starts from it.
    prefix: E,
}

impl<E: SemiringElem> Frame<'_, E> {
    fn search<C: JoinCursor, S: LevelStorage>(
        self,
        slots: Vec<Slot<'_, C, S, E>>,
        mul: impl FnMut(&E, &E) -> E,
        on_match: impl FnMut(&[u32], E),
    ) -> JoinStats {
        let binding = Vec::with_capacity(self.order.len());
        let mut s =
            Search { frame: self, slots, binding, mul, on_match, stats: JoinStats::default() };
        s.descend(0);
        s.stats
    }
}

/// The state of one backtracking search.
struct Search<'a, C, S, E, M, F> {
    frame: Frame<'a, E>,
    slots: Vec<Slot<'a, C, S, E>>,
    binding: Vec<u32>,
    mul: M,
    on_match: F,
    stats: JoinStats,
}

/// Count one seek call, polling the evaluation's deadline / cancel controls
/// once per 1024 seeks. The poll reads the counter without perturbing it, so
/// the seek statistics the tests pin bit for bit are untouched.
#[inline]
fn count_seek(stats: &mut JoinStats) {
    stats.seeks += 1;
    if stats.seeks & 0x3FF == 0 {
        faq_factor::fault::checkpoint();
    }
}

/// The leapfrog intersection step: raise `candidate` until every slot in
/// `parts` seeks to it, or return `None` once one is exhausted.
#[inline]
fn leapfrog(
    stats: &mut JoinStats,
    mut candidate: u32,
    parts: &[usize],
    mut seek: impl FnMut(usize, u32) -> Option<u32>,
) -> Option<u32> {
    let mut stable = false;
    while !stable {
        stable = true;
        for &c in parts {
            count_seek(stats);
            let v = seek(c, candidate)?;
            if v > candidate {
                candidate = v;
                stable = false;
            }
        }
    }
    Some(candidate)
}

impl<'a, C, S, E, M, F> Search<'a, C, S, E, M, F>
where
    C: JoinCursor,
    S: LevelStorage,
    E: SemiringElem,
    M: FnMut(&E, &E) -> E,
    F: FnMut(&[u32], E),
{
    /// Visit the search-tree node at depth `d` (`binding` holds the values
    /// of `order[..d]`) and everything below it.
    fn descend(&mut self, d: usize) {
        self.stats.nodes += 1;
        let (domains, order) = (self.frame.domains, self.frame.order);
        if d == order.len() {
            // All variables bound: every cursor points at a single row.
            for slot in &mut self.slots {
                if slot.value.is_some() {
                    slot.at = slot.cursor.row();
                }
            }
            self.emit();
            return;
        }
        // The candidate window at this depth: restricted for the first
        // variable, unrestricted below it.
        let (lo, hi) = if d == 0 { self.frame.first_range } else { (0, u32::MAX) };
        let parts: &'a [usize] = &self.frame.participants[d];
        if parts.is_empty() {
            // Unconstrained variable: iterate its whole domain (∩ the window).
            for x in lo..domains.size(order[d]).min(hi) {
                self.binding.push(x);
                self.descend(d + 1);
                self.binding.pop();
            }
            return;
        }
        if d + 1 == order.len() && self.slots[parts[0]].leaf.is_some() {
            self.fused_leaf(parts, lo, hi);
            return;
        }

        let mut candidate = lo;
        while let Some(x) =
            leapfrog(&mut self.stats, candidate, parts, |c, b| self.slots[c].cursor.seek(b))
        {
            if x >= hi {
                break;
            }
            for &c in parts {
                self.slots[c].cursor.open(x);
            }
            self.binding.push(x);
            self.descend(d + 1);
            self.binding.pop();
            for &c in parts {
                self.slots[c].cursor.up();
            }
            if x == u32::MAX {
                break;
            }
            candidate = x + 1;
        }
    }

    /// The last variable of the ordering, fused: leapfrog the participants'
    /// leaf windows in place and report every match, counting exactly what
    /// the recursion counts (see the module docs).
    fn fused_leaf(&mut self, parts: &[usize], lo: u32, hi: u32) {
        for slot in &mut self.slots {
            if slot.leaf.is_some() {
                slot.window = slot.cursor.window();
                slot.at = usize::MAX; // the cursor has just opened this window
            } else if slot.value.is_some() {
                slot.at = slot.cursor.row();
            }
        }
        self.binding.push(lo);
        let mut candidate = lo;
        while let Some(x) = leapfrog(&mut self.stats, candidate, parts, |c, bound| {
            let slot = &mut self.slots[c];
            let level = slot.leaf.expect("a fused participant has a leaf");
            let j = level.lub_from(slot.window, slot.at, bound);
            (j < slot.window.1).then(|| {
                slot.at = j;
                level.value(j)
            })
        }) {
            if x >= hi {
                break;
            }
            // The leaf node the recursion would visit; every participant's
            // `at` is now the entry holding `x`.
            debug_assert!(
                self.slots
                    .iter()
                    .all(|s| s.value.is_none() || s.leaf.is_none_or(|l| l.row_at(s.at) == s.at)),
                "a value input's leaf is its deepest level, where entry = row"
            );
            self.stats.nodes += 1;
            *self.binding.last_mut().expect("pushed above") = x;
            self.emit();
            if x == u32::MAX {
                break;
            }
            candidate = x + 1;
        }
        self.binding.pop();
    }

    /// Report the current full binding: `prefix ⊗` the value of every value
    /// input at its row `at`, in input order.
    fn emit(&mut self) {
        let mut val = self.frame.prefix.clone();
        for slot in &self.slots {
            if let Some(f) = slot.value {
                // `value_at` goes through the factor's storage backing, so
                // spilled (file-chunked) factors join without materializing.
                val = (self.mul)(&val, f.value_at(slot.at).as_ref());
            }
        }
        self.stats.matches += 1;
        (self.on_match)(&self.binding, val);
    }
}

/// Enumerate all assignments to `order` consistent with every input factor
/// and whose *first* variable lies in the half-open value range
/// `first_range = [lo, hi)`, in lexicographic order of `order`, walking the
/// factor representation `rep`. For each match, `on_match` receives the
/// binding and the `⊗`-product of the values of the `use_value` inputs.
///
/// Variables of `order` not constrained by any factor iterate over their full
/// domain (hence `domains`). Nullary factors act as global scalars: an empty
/// one annihilates the join.
///
/// `(0, u32::MAX)` is the full join: domain values are at most
/// `u32::MAX - 1` because domain *sizes* are `u32`. A narrower range is the
/// chunk kernel of the parallel InsideOut engine: value ranges partitioning
/// `Dom(order[0])` yield disjoint slices of the search tree whose outputs,
/// concatenated in range order, reproduce the unrestricted join's output
/// stream exactly (the enumeration below `order[0]` is untouched).
///
/// Returns search statistics (see the [module docs](self) for what they
/// count).
// Eight parameters: the engine, the apps and the benchmark all name this
// signature, so it stays as it is.
#[allow(clippy::too_many_arguments)]
pub fn multiway_join_range_rep<E: SemiringElem>(
    rep: JoinRep,
    domains: &Domains,
    order: &[Var],
    inputs: &[JoinInput<'_, E>],
    first_range: (u32, u32),
    one: E,
    mut mul: impl FnMut(&E, &E) -> E,
    on_match: impl FnMut(&[u32], E),
) -> JoinStats {
    // Fold nullary factors into a constant prefix value; align the rest.
    // Aligned factors are kept alive in `aligned` so cursors (and the trie
    // indices they walk) can borrow from them. Prefix-filter inputs are
    // never realigned — their leading columns already follow the order (the
    // caller's contract), and realigning would invalidate the depth cap.
    let mut prefix = one;
    let mut aligned: Vec<Aligned<'_, E>> = Vec::new();
    for inp in inputs {
        debug_assert!(inp.prefix.is_none() || !inp.use_value, "prefix filters carry no value");
        if inp.factor.arity() == 0 {
            if inp.factor.is_empty() {
                return JoinStats::default(); // join annihilated by a zero scalar
            }
            if inp.use_value {
                prefix = mul(&prefix, inp.factor.value(0));
            }
            continue;
        }
        if inp.factor.is_empty() {
            return JoinStats::default();
        }
        let factor = match inp.prefix {
            Some(_) => Cow::Borrowed(inp.factor),
            None => inp.factor.align_to_cow(order),
        };
        let eff_arity = inp.prefix.unwrap_or_else(|| factor.arity());
        // Every participating column must be bound by the ordering, in the
        // ordering's relative order (prefix filters skip alignment, so check
        // the relative order too).
        debug_assert!(
            {
                let mut last: Option<usize> = None;
                factor.schema()[..eff_arity].iter().all(|v| {
                    let p = order.iter().position(|o| o == v);
                    let ok = p.is_some() && p > last;
                    last = p;
                    ok
                })
            },
            "factor columns not covered by the join order in order"
        );
        aligned.push(Aligned { factor, use_value: inp.use_value, eff_arity });
    }

    // participants[d] = inputs constrained at depth d.
    let participants: Vec<Vec<usize>> = order
        .iter()
        .map(|x| {
            (0..aligned.len())
                .filter(|&c| aligned[c].factor.schema()[..aligned[c].eff_arity].contains(x))
                .collect()
        })
        .collect();
    let frame = Frame { domains, order, participants: &participants, first_range, prefix };

    match rep {
        JoinRep::Listing => {
            let slots = aligned
                .iter()
                .map(|a| {
                    let cursor =
                        ListingCursor { factor: &a.factor, ranges: vec![(0, a.factor.len())] };
                    Slot::<_, VecStorage, _>::new(a, cursor, None)
                })
                .collect();
            frame.search(slots, mul, on_match)
        }
        JoinRep::Trie => {
            // The level each input offers at the last variable, if it is
            // constrained there: column `eff_arity - 1` (columns follow the
            // order, so that variable is its last participating one).
            let leaf = |c: usize| {
                let a = &aligned[c];
                participants
                    .last()
                    .is_some_and(|p| p.contains(&c))
                    .then(|| a.factor.trie().level(a.eff_arity - 1).storage())
            };
            if (0..aligned.len()).filter_map(leaf).all(|l| l.as_mem().is_some()) {
                let heap = |c| leaf(c).and_then(FactorLevel::as_mem);
                frame.search(trie_slots(&aligned, order, first_range, heap), mul, on_match)
            } else {
                frame.search(trie_slots(&aligned, order, first_range, leaf), mul, on_match)
            }
        }
    }
}

/// The trie search's slots, each fused leaf resolved by `leaf`.
fn trie_slots<'a, S, E: SemiringElem>(
    aligned: &'a [Aligned<'_, E>],
    order: &[Var],
    first_range: (u32, u32),
    leaf: impl Fn(usize) -> Option<&'a S>,
) -> Vec<Slot<'a, TrieCursor<'a>, S, E>> {
    aligned
        .iter()
        .enumerate()
        .map(|(c, a)| {
            let trie = a.factor.trie();
            // Chunked runs hand factors constrained at the first join
            // variable a range-restricted view of their trie root (the full
            // range needs no view).
            let restrict =
                a.factor.schema().first() == order.first() && first_range != (0, u32::MAX);
            let cursor =
                if restrict { trie.view(first_range).cursor() } else { TrieCursor::new(trie) };
            Slot::new(a, cursor, leaf(c))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faq_hypergraph::v;

    fn fac(schema: &[u32], rows: &[(&[u32], u64)]) -> Factor<u64> {
        Factor::new(
            schema.iter().map(|&i| v(i)).collect(),
            rows.iter().map(|(r, val)| (r.to_vec(), *val)).collect(),
        )
        .unwrap()
    }

    fn collect_join(
        domains: &Domains,
        order: &[Var],
        inputs: &[JoinInput<'_, u64>],
    ) -> Vec<(Vec<u32>, u64)> {
        let mut out = Vec::new();
        multiway_join_range_rep(
            JoinRep::Trie,
            domains,
            order,
            inputs,
            (0, u32::MAX),
            1u64,
            |a, b| a * b,
            |b, val| {
                out.push((b.to_vec(), val));
            },
        );
        out
    }

    #[test]
    fn two_way_equijoin() {
        let r = fac(&[0, 1], &[(&[0, 1], 2), (&[1, 2], 3)]);
        let s = fac(&[1, 2], &[(&[1, 5], 0), (&[1, 3], 7), (&[2, 0], 11)]);
        let d = Domains::new(vec![4, 6, 6]);
        let out =
            collect_join(&d, &[v(0), v(1), v(2)], &[JoinInput::value(&r), JoinInput::value(&s)]);
        // (0,1) joins with (1,5)->0 and (1,3)->7 ; (1,2) with (2,0)->11.
        assert_eq!(out, vec![(vec![0, 1, 3], 14), (vec![0, 1, 5], 0), (vec![1, 2, 0], 33),]);
        let _ = d;
    }

    #[test]
    fn triangle_join_counts() {
        // Triangle query R(a,b) ⋈ S(a,c) ⋈ T(b,c) on a 3-clique graph {0,1,2}.
        let edges: Vec<(&[u32], u64)> = vec![
            (&[0, 1], 1),
            (&[0, 2], 1),
            (&[1, 2], 1),
            (&[1, 0], 1),
            (&[2, 0], 1),
            (&[2, 1], 1),
        ];
        let r = fac(&[0, 1], &edges);
        let s = fac(&[0, 2], &edges);
        let t = fac(&[1, 2], &edges);
        let d = Domains::uniform(3, 3);
        let out = collect_join(
            &d,
            &[v(0), v(1), v(2)],
            &[JoinInput::value(&r), JoinInput::value(&s), JoinInput::value(&t)],
        );
        // Directed triangles in K3: 3! = 6 orderings.
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(|(_, val)| *val == 1));
    }

    #[test]
    fn outputs_in_lexicographic_order() {
        let r = fac(&[0], &[(&[2], 1), (&[0], 1), (&[1], 1)]);
        let s = fac(&[1], &[(&[1], 1), (&[0], 1)]);
        let d = Domains::uniform(2, 3);
        let out = collect_join(&d, &[v(0), v(1)], &[JoinInput::value(&r), JoinInput::value(&s)]);
        let keys: Vec<Vec<u32>> = out.iter().map(|(k, _)| k.clone()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn filter_inputs_do_not_contribute_values() {
        let r = fac(&[0], &[(&[0], 5), (&[1], 7)]);
        let g = fac(&[0], &[(&[1], 999)]); // guard: only x0=1 allowed
        let d = Domains::uniform(1, 2);
        let out = collect_join(&d, &[v(0)], &[JoinInput::value(&r), JoinInput::filter(&g)]);
        assert_eq!(out, vec![(vec![1], 7)]);
    }

    #[test]
    fn unconstrained_variable_iterates_domain() {
        let r = fac(&[0], &[(&[1], 3)]);
        let d = Domains::new(vec![2, 3]);
        let out = collect_join(&d, &[v(0), v(1)], &[JoinInput::value(&r)]);
        assert_eq!(out, vec![(vec![1, 0], 3), (vec![1, 1], 3), (vec![1, 2], 3)]);
    }

    #[test]
    fn nullary_scalars_multiply_or_annihilate() {
        let r = fac(&[0], &[(&[0], 3)]);
        let scalar = Factor::nullary(Some(10u64));
        let d = Domains::uniform(1, 2);
        let out = collect_join(&d, &[v(0)], &[JoinInput::value(&r), JoinInput::value(&scalar)]);
        assert_eq!(out, vec![(vec![0], 30)]);

        let zero = Factor::<u64>::nullary(None);
        let out = collect_join(&d, &[v(0)], &[JoinInput::value(&r), JoinInput::value(&zero)]);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_factor_empties_join() {
        let r = fac(&[0], &[]);
        let s = fac(&[0], &[(&[0], 1)]);
        let d = Domains::uniform(1, 2);
        let out = collect_join(&d, &[v(0)], &[JoinInput::value(&r), JoinInput::value(&s)]);
        assert!(out.is_empty());
    }

    #[test]
    fn stats_are_populated() {
        let r = fac(&[0, 1], &[(&[0, 0], 1), (&[1, 1], 1)]);
        let d = Domains::uniform(2, 2);
        let mut out = Vec::new();
        let stats = multiway_join_range_rep(
            JoinRep::Trie,
            &d,
            &[v(0), v(1)],
            &[JoinInput::value(&r)],
            (0, u32::MAX),
            1u64,
            |a, b| a * b,
            |b, val| out.push((b.to_vec(), val)),
        );
        assert_eq!(stats.matches, 2);
        assert!(stats.seeks > 0);
        assert!(stats.nodes >= 3);
    }

    #[test]
    fn misordered_schema_is_aligned_automatically() {
        // Factor declared with schema (1, 0); join order (0, 1).
        let f = Factor::new(vec![v(1), v(0)], vec![(vec![5, 0], 2u64), (vec![3, 1], 4)]).unwrap();
        let d = Domains::new(vec![2, 6]);
        let out = collect_join(&d, &[v(0), v(1)], &[JoinInput::value(&f)]);
        assert_eq!(out, vec![(vec![0, 5], 2), (vec![1, 3], 4)]);
    }

    #[test]
    fn range_restriction_partitions_the_output() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let dsize = 8u32;
        let d = Domains::uniform(3, dsize);
        let mk = |rng: &mut StdRng, vars: &[u32]| {
            let mut tuples = Vec::new();
            for _ in 0..40 {
                tuples.push((
                    (0..vars.len()).map(|_| rng.gen_range(0..dsize)).collect::<Vec<u32>>(),
                    rng.gen_range(1..5u64),
                ));
            }
            Factor::with_combine(
                vars.iter().map(|&i| v(i)).collect(),
                tuples,
                |a, b| a + b,
                |&x| x == 0,
            )
            .unwrap()
        };
        let f1 = mk(&mut rng, &[0, 1]);
        let f2 = mk(&mut rng, &[1, 2]);
        let order = [v(0), v(1), v(2)];
        let inputs = [JoinInput::value(&f1), JoinInput::value(&f2)];
        let full = collect_join(&d, &order, &inputs);
        // Any partition of [0, u32::MAX) into value ranges reproduces the
        // full output stream by concatenation — under both representations.
        for rep in [JoinRep::Listing, JoinRep::Trie] {
            for cuts in [vec![4u32], vec![2, 5], vec![1, 2, 3, 4, 5, 6, 7]] {
                let mut pieces = Vec::new();
                let mut lo = 0u32;
                for &c in cuts.iter().chain(std::iter::once(&u32::MAX)) {
                    multiway_join_range_rep(
                        rep,
                        &d,
                        &order,
                        &inputs,
                        (lo, c),
                        1u64,
                        |a, b| a * b,
                        |b, val| pieces.push((b.to_vec(), val)),
                    );
                    lo = c;
                }
                assert_eq!(pieces, full, "rep {rep:?} cuts {cuts:?}");
            }
        }
    }

    #[test]
    fn range_restriction_applies_to_unconstrained_first_variable() {
        let r = fac(&[1], &[(&[0], 3), (&[1], 5)]);
        let d = Domains::new(vec![4, 2]);
        // v(0) is unconstrained: full join iterates its whole domain.
        let mut out = Vec::new();
        multiway_join_range_rep(
            JoinRep::Trie,
            &d,
            &[v(0), v(1)],
            &[JoinInput::value(&r)],
            (1, 3),
            1u64,
            |a, b| a * b,
            |b, val| out.push((b.to_vec(), val)),
        );
        assert_eq!(out, vec![(vec![1, 0], 3), (vec![1, 1], 5), (vec![2, 0], 3), (vec![2, 1], 5)]);
    }

    #[test]
    fn random_joins_match_nested_loop_semantics() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1234);
        for _ in 0..30 {
            let dsize = rng.gen_range(2..4u32);
            let d = Domains::uniform(3, dsize);
            let mk = |rng: &mut StdRng, vars: &[u32]| {
                let mut tuples = Vec::new();
                for _ in 0..rng.gen_range(0..8) {
                    tuples.push((
                        (0..vars.len()).map(|_| rng.gen_range(0..dsize)).collect::<Vec<u32>>(),
                        rng.gen_range(1..5u64),
                    ));
                }
                Factor::with_combine(
                    vars.iter().map(|&i| v(i)).collect(),
                    tuples,
                    |a, b| a + b,
                    |&x| x == 0,
                )
                .unwrap()
            };
            let f1 = mk(&mut rng, &[0, 1]);
            let f2 = mk(&mut rng, &[1, 2]);
            let f3 = mk(&mut rng, &[0, 2]);
            let order = [v(0), v(1), v(2)];
            let got = collect_join(
                &d,
                &order,
                &[JoinInput::value(&f1), JoinInput::value(&f2), JoinInput::value(&f3)],
            );
            // Brute force.
            let mut expect = Vec::new();
            for a in 0..dsize {
                for b in 0..dsize {
                    for c in 0..dsize {
                        let p = f1.get(&[a, b]).copied();
                        let q = f2.get(&[b, c]).copied();
                        let r = f3.get(&[a, c]).copied();
                        if let (Some(p), Some(q), Some(r)) = (p, q, r) {
                            expect.push((vec![a, b, c], p * q * r));
                        }
                    }
                }
            }
            assert_eq!(got, expect);
        }
    }

    /// The two representations emit identical output streams *and* identical
    /// seek counts on full-range joins.
    #[test]
    fn listing_and_trie_agree_bit_for_bit() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4242);
        for round in 0..40 {
            let dsize = rng.gen_range(2..8u32);
            let d = Domains::uniform(4, dsize);
            let mk = |rng: &mut StdRng, vars: &[u32], n: usize| {
                let mut tuples = Vec::new();
                for _ in 0..n {
                    tuples.push((
                        (0..vars.len()).map(|_| rng.gen_range(0..dsize)).collect::<Vec<u32>>(),
                        rng.gen_range(1..9u64),
                    ));
                }
                Factor::with_combine(
                    vars.iter().map(|&i| v(i)).collect(),
                    tuples,
                    |a, b| a + b,
                    |&x| x == 0,
                )
                .unwrap()
            };
            let n = rng.gen_range(0..30);
            let f1 = mk(&mut rng, &[0, 1, 2], n);
            let f2 = mk(&mut rng, &[1, 3], n);
            let f3 = mk(&mut rng, &[0, 3], n);
            let order = [v(0), v(1), v(2), v(3)];
            let inputs = [JoinInput::value(&f1), JoinInput::value(&f2), JoinInput::filter(&f3)];
            let run = |rep: JoinRep| {
                let mut out = Vec::new();
                let stats = multiway_join_range_rep(
                    rep,
                    &d,
                    &order,
                    &inputs,
                    (0, u32::MAX),
                    1u64,
                    |a, b| a * b,
                    |b, val| out.push((b.to_vec(), val)),
                );
                (out, stats)
            };
            let (out_l, stats_l) = run(JoinRep::Listing);
            let (out_t, stats_t) = run(JoinRep::Trie);
            assert_eq!(out_l, out_t, "round {round}");
            assert_eq!(stats_l, stats_t, "round {round}: stats must match on full range");
        }
    }

    // ---------------------------------------------------------------------
    // The fused deepest level against the plain recursion. The trie search
    // fuses the last variable; the listing reference recurses to the bottom,
    // so agreement below is agreement of the two ways of searching it.
    // ---------------------------------------------------------------------

    use faq_factor::{fault, AbortCtl, CancelToken, QueryAbort, SpillConfig};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// A factor over `vars` from `n` random draws in `0..dsize`, valued by
    /// `val` (a repeated draw keeps its last value).
    fn random_factor<E: SemiringElem>(
        rng: &mut StdRng,
        vars: &[u32],
        n: usize,
        dsize: u32,
        mut val: impl FnMut(&mut StdRng) -> E,
    ) -> Factor<E> {
        let mut rows = BTreeMap::new();
        for _ in 0..n {
            let row: Vec<u32> = vars.iter().map(|_| rng.gen_range(0..dsize)).collect();
            rows.insert(row, val(rng));
        }
        Factor::new(vars.iter().map(|&i| v(i)).collect(), rows.into_iter().collect()).unwrap()
    }

    fn count_value(rng: &mut StdRng) -> u64 {
        rng.gen_range(1..9u64)
    }

    type Run<E> = (Vec<(Vec<u32>, E)>, JoinStats);

    /// One join under `rep` over `range`: its output stream and stats.
    fn run_rep<E: SemiringElem>(
        rep: JoinRep,
        d: &Domains,
        order: &[Var],
        inputs: &[JoinInput<'_, E>],
        range: (u32, u32),
        one: &E,
        mul: fn(&E, &E) -> E,
    ) -> Run<E> {
        let mut out = Vec::new();
        let stats =
            multiway_join_range_rep(rep, d, order, inputs, range, one.clone(), mul, |b, x| {
                out.push((b.to_vec(), x))
            });
        (out, stats)
    }

    /// The trie search against the listing reference, bit for bit: the
    /// output streams (values compared through `bits`) and the stats of the
    /// full range, then every piece of the range cut at `cuts`. A cut hands
    /// the trie cursors of the first variable a restricted root, which can
    /// end a piece's last intersection a seek early, so there the trie may
    /// seek less; nodes and matches still agree.
    fn assert_reps_agree<E: SemiringElem>(
        d: &Domains,
        order: &[Var],
        inputs: &[JoinInput<'_, E>],
        (one, mul): (E, fn(&E, &E) -> E),
        bits: fn(&E) -> u64,
        cuts: &[u32],
        what: &str,
    ) -> Run<E> {
        let bitwise = |r: &Run<E>| -> Vec<(Vec<u32>, u64)> {
            r.0.iter().map(|(b, x)| (b.clone(), bits(x))).collect()
        };
        let full = (0, u32::MAX);
        let listing = run_rep(JoinRep::Listing, d, order, inputs, full, &one, mul);
        let trie = run_rep(JoinRep::Trie, d, order, inputs, full, &one, mul);
        assert_eq!(bitwise(&trie), bitwise(&listing), "{what}: outputs");
        assert_eq!(trie.1, listing.1, "{what}: stats on the full range");
        let mut lo = 0;
        for &hi in cuts.iter().chain([&u32::MAX]) {
            let l = run_rep(JoinRep::Listing, d, order, inputs, (lo, hi), &one, mul);
            let t = run_rep(JoinRep::Trie, d, order, inputs, (lo, hi), &one, mul);
            assert_eq!(bitwise(&t), bitwise(&l), "{what}: outputs of [{lo}, {hi})");
            assert_eq!((t.1.nodes, t.1.matches), (l.1.nodes, l.1.matches), "{what}: [{lo}, {hi})");
            assert!(t.1.seeks <= l.1.seeks, "{what}: [{lo}, {hi}) seeks {:?} vs {:?}", t.1, l.1);
            lo = hi;
        }
        trie
    }

    const COUNT: (u64, fn(&u64, &u64) -> u64) = (1, |a, b| a * b);

    fn u64_bits(x: &u64) -> u64 {
        *x
    }

    #[test]
    fn fused_root_matches_the_recursion_on_single_variable_joins() {
        // The leaf is the root: the fused loop runs once, under first_range.
        let mut rng = StdRng::seed_from_u64(25);
        for round in 0..40 {
            let dsize = rng.gen_range(2..60u32);
            let d = Domains::uniform(1, dsize);
            let k = round % 4 + 1;
            let fs: Vec<Factor<u64>> = (0..k)
                .map(|_| random_factor(&mut rng, &[0], dsize as usize, dsize, count_value))
                .collect();
            let inputs: Vec<JoinInput<'_, u64>> = fs
                .iter()
                .map(|f| {
                    if rng.gen_range(0..3) == 0 {
                        JoinInput::filter(f)
                    } else {
                        JoinInput::value(f)
                    }
                })
                .collect();
            let cuts = [dsize / 4, dsize / 2, dsize / 2 + 1];
            let what = format!("round {round}, {k} inputs");
            assert_reps_agree(&d, &[v(0)], &inputs, COUNT, u64_bits, &cuts, &what);
        }
    }

    #[test]
    fn fused_leaf_matches_the_recursion_for_one_to_four_leaf_participants() {
        // R(0, 1) is a value input fully bound above the leaf (as in a
        // triangle); the leaf participants take the shapes below in turn.
        let leaf_shapes: [&[u32]; 4] = [&[0, 2], &[1, 2], &[2], &[0, 1, 2]];
        let mut rng = StdRng::seed_from_u64(26);
        for round in 0..60 {
            let dsize = rng.gen_range(2..9u32);
            let d = Domains::uniform(3, dsize);
            let k = round % 4 + 1;
            let n = rng.gen_range(1..40);
            let r = random_factor(&mut rng, &[0, 1], n, dsize, count_value);
            let leaves: Vec<Factor<u64>> = (0..k)
                .map(|i| {
                    random_factor(&mut rng, leaf_shapes[(round + i) % 4], n, dsize, count_value)
                })
                .collect();
            let mut inputs = vec![JoinInput::value(&r)];
            inputs.extend(leaves.iter().enumerate().map(|(i, f)| {
                if i % 2 == 1 {
                    JoinInput::filter(f)
                } else {
                    JoinInput::value(f)
                }
            }));
            let what = format!("round {round}, {k} leaf participants");
            assert_reps_agree(&d, &[v(0), v(1), v(2)], &inputs, COUNT, u64_bits, &[1, 3], &what);
        }
    }

    #[test]
    fn fused_leaf_seeks_prefix_filters_at_their_depth_cap() {
        // G(1, 2, 3) capped at depth 2 reaches the leaf variable 2 at its
        // level 1 — not its deepest level; H(2, 0) capped at 1 at its root.
        let mut rng = StdRng::seed_from_u64(27);
        for round in 0..40 {
            let dsize = rng.gen_range(2..7u32);
            let d = Domains::uniform(4, dsize);
            let n = rng.gen_range(1..60);
            let r = random_factor(&mut rng, &[0, 1], n, dsize, count_value);
            let s = random_factor(&mut rng, &[0, 2], n, dsize, count_value);
            let g = random_factor(&mut rng, &[1, 2, 3], n, dsize, count_value);
            let h = random_factor(&mut rng, &[2, 0], n, dsize, count_value);
            let inputs = [
                JoinInput::value(&r),
                JoinInput::prefix_filter(&g, 2),
                JoinInput::value(&s),
                JoinInput::prefix_filter(&h, 1),
            ];
            let what = format!("round {round}");
            assert_reps_agree(&d, &[v(0), v(1), v(2)], &inputs, COUNT, u64_bits, &[2], &what);
        }
    }

    #[test]
    fn fused_leaf_multiplies_f64_values_in_input_order() {
        // ⊗ over f64 is not associative: a fused loop that folded the bound
        // R first, or the leaf values in another order, would change bits.
        let mut rng = StdRng::seed_from_u64(28);
        let val = |rng: &mut StdRng| rng.gen_range(1..1_000_000u64) as f64 / 7919.0;
        let dsize = 12u32;
        let d = Domains::uniform(3, dsize);
        let s = random_factor(&mut rng, &[0, 2], 90, dsize, val);
        let r = random_factor(&mut rng, &[0, 1], 90, dsize, val);
        let t = random_factor(&mut rng, &[1, 2], 90, dsize, val);
        let scalar = Factor::nullary(Some(std::f64::consts::PI));
        let inputs = [
            JoinInput::value(&s),
            JoinInput::value(&scalar),
            JoinInput::value(&r),
            JoinInput::value(&t),
        ];
        let real: (f64, fn(&f64, &f64) -> f64) = (1.0, |a, b| a * b);
        let (out, _) =
            assert_reps_agree(&d, &[v(0), v(1), v(2)], &inputs, real, |x| x.to_bits(), &[5], "f64");
        assert!(out.len() > 20, "the instance must have matches to compare");
        // Both reps fold `one ⊗ scalars`, then the value inputs in input
        // order — and the instance has teeth: R first would change bits.
        let mut reordered = false;
        for (b, x) in &out {
            let (a, bb, c) = (b[0], b[1], b[2]);
            let (sv, rv, tv) =
                (*s.get(&[a, c]).unwrap(), *r.get(&[a, bb]).unwrap(), *t.get(&[bb, c]).unwrap());
            let pi = 1.0 * std::f64::consts::PI;
            assert_eq!(x.to_bits(), (((pi * sv) * rv) * tv).to_bits(), "at {b:?}");
            reordered |= x.to_bits() != (((pi * rv) * sv) * tv).to_bits();
        }
        assert!(reordered, "no match distinguishes ⊗ orders; pick other values");
    }

    #[test]
    fn unconstrained_last_variable_iterates_its_domain_under_both_reps() {
        let mut rng = StdRng::seed_from_u64(29);
        let d = Domains::new(vec![5, 5, 3]);
        let r = random_factor(&mut rng, &[0, 1], 12, 5, count_value);
        let s = random_factor(&mut rng, &[1], 4, 5, count_value);
        let inputs = [JoinInput::value(&r), JoinInput::filter(&s)];
        let (out, stats) =
            assert_reps_agree(&d, &[v(0), v(1), v(2)], &inputs, COUNT, u64_bits, &[2], "free leaf");
        assert_eq!(out.len() as u64 % 3, 0);
        assert_eq!(stats.matches, out.len() as u64);
    }

    #[test]
    fn fused_leaf_walks_heap_and_spilled_levels_alike() {
        // Level chunks round up to 64 entries; ~300-row factors spill over
        // several, behind a two-chunk window, listing chunks of 3 rows.
        let tiny = SpillConfig {
            chunk_rows: 3,
            level_chunk_entries: 1,
            window_chunks: 2,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(30);
        let dsize = 24u32;
        let d = Domains::uniform(3, dsize);
        let heap = [
            random_factor(&mut rng, &[0, 1], 300, dsize, count_value),
            random_factor(&mut rng, &[0, 2], 300, dsize, count_value),
            random_factor(&mut rng, &[1, 2], 300, dsize, count_value),
        ];
        let spilled: Vec<Factor<u64>> = heap.iter().map(|f| f.to_spilled(tiny.clone())).collect();
        let order = [v(0), v(1), v(2)];
        let all_heap = [&heap[0], &heap[1], &heap[2]].map(JoinInput::value);
        let reference =
            run_rep(JoinRep::Listing, &d, &order, &all_heap, (0, u32::MAX), &1, COUNT.1);
        assert!(reference.1.matches > 50);
        for mask in 0..8usize {
            let pick = |i: usize| if mask >> i & 1 == 1 { &spilled[i] } else { &heap[i] };
            let inputs = [pick(0), pick(1), pick(2)].map(JoinInput::value);
            let what = format!("spilled mask {mask:03b}");
            let trie = assert_reps_agree(&d, &order, &inputs, COUNT, u64_bits, &[7, 8, 16], &what);
            assert_eq!(trie, reference, "{what}: against the all-heap listing run");
        }
    }

    #[test]
    fn fused_leaf_polls_the_abort_controls() {
        // A single-variable join's only level is fused; 5000 entries on two
        // inputs cross the 1024-seek poll several times, and nothing else on
        // the way there polls (the tries are built before the token fires).
        let r = Factor::new(vec![v(0)], (0..5000u32).map(|i| (vec![i], 1u64)).collect()).unwrap();
        let d = Domains::uniform(1, 5000);
        let count = || {
            let mut n = 0u64;
            let inputs = [JoinInput::value(&r), JoinInput::filter(&r)];
            multiway_join_range_rep(
                JoinRep::Trie,
                &d,
                &[v(0)],
                &inputs,
                (0, u32::MAX),
                1u64,
                |a, b| a * b,
                |_, _| n += 1,
            );
            n
        };
        assert_eq!(count(), 5000);
        let token = CancelToken::new();
        token.cancel();
        let _ctl = fault::install_ctl(AbortCtl { deadline: None, cancel: Some(token) });
        assert!(matches!(fault::catch_abort(count), Err(QueryAbort::Cancelled)));
    }
}
