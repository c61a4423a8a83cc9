//! The LeapFrog-TrieJoin-style backtracking join (OutsideIn).
//!
//! The search enumerates bindings in lexicographic order of the variable
//! ordering; at each depth the participating factors' cursors leapfrog to the
//! least commonly-present value. Cursors come in two interchangeable
//! representations ([`JoinRep`]):
//!
//! * [`JoinRep::Trie`] (default) — walk the factor's columnar trie index
//!   ([`faq_factor::FactorTrie`]): each seek is one binary search over the
//!   *distinct* values of a trie level, and each descent is an O(1) offset
//!   lookup cached from the preceding seek;
//! * [`JoinRep::Listing`] — binary-search the sorted row listing directly
//!   ([`Factor::seek_column`] / [`Factor::prefix_range`]), re-scanning shared
//!   prefixes on every seek. Kept as the reference kernel and comparison
//!   baseline.
//!
//! Both produce identical output streams and identical [`JoinStats`] seek
//! counts on a full-range join (chunked runs may differ marginally at chunk
//! boundaries); only the cost per seek differs.

use faq_factor::{Domains, Factor, TrieCursor};
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

/// Per-factor search state: a cursor over one of the two representations.
/// Columns bind in schema order, so the cursor's own depth — not a global
/// column map — tracks which column the next seek addresses.
enum Kernel<'b, E: SemiringElem> {
    /// Stack of active row ranges; one frame per bound column plus the root.
    /// The column being sought is `ranges.len() - 1`.
    Listing { factor: &'b Factor<E>, ranges: Vec<(usize, usize)> },
    /// A navigator over the factor's cached columnar trie.
    Trie(TrieCursor<'b>),
}

struct Cursor<'b, E: SemiringElem> {
    kernel: Kernel<'b, E>,
    /// The aligned factor, for value reads at full bindings.
    factor: &'b Factor<E>,
    use_value: bool,
    /// Number of leading schema columns that participate in the search:
    /// the full arity, or the depth cap of a prefix-filter input.
    eff_arity: usize,
}

impl<'b, E: SemiringElem> Cursor<'b, E> {
    fn new(
        rep: JoinRep,
        factor: &'b Factor<E>,
        restrict_root: Option<(u32, u32)>,
        use_value: bool,
        eff_arity: usize,
    ) -> Self {
        let kernel = match rep {
            JoinRep::Listing => Kernel::Listing { factor, ranges: vec![(0, factor.len())] },
            JoinRep::Trie => Kernel::Trie(match restrict_root {
                // Chunked runs hand factors constrained at the first join
                // variable a range-restricted view of their trie root.
                Some(range) => factor.trie().view(range).cursor(),
                None => TrieCursor::new(factor.trie()),
            }),
        };
        Cursor { kernel, factor, use_value, eff_arity }
    }

    /// Least value `≥ bound` in the column now being sought, or `None`.
    fn seek(&mut self, bound: u32) -> Option<u32> {
        match &mut self.kernel {
            Kernel::Listing { factor, ranges } => {
                let range = *ranges.last().expect("range stack never empty");
                factor.seek_column(range, ranges.len() - 1, bound)
            }
            Kernel::Trie(c) => c.seek(bound),
        }
    }

    /// Bind the sought column to `value` (which a preceding seek confirmed
    /// present) and descend.
    fn open(&mut self, value: u32) {
        match &mut self.kernel {
            Kernel::Listing { factor, ranges } => {
                let range = *ranges.last().expect("range stack never empty");
                let narrowed = factor.prefix_range(range, ranges.len() - 1, value);
                debug_assert!(narrowed.0 < narrowed.1, "open of an absent value");
                ranges.push(narrowed);
            }
            Kernel::Trie(c) => c.open(value),
        }
    }

    /// Undo the last `open`.
    fn up(&mut self) {
        match &mut self.kernel {
            Kernel::Listing { ranges, .. } => {
                ranges.pop();
            }
            Kernel::Trie(c) => c.up(),
        }
    }

    /// The listing row of the current full binding (every column open).
    fn row(&self) -> usize {
        match &self.kernel {
            Kernel::Listing { ranges, .. } => {
                let (lo, hi) = *ranges.last().expect("range stack never empty");
                debug_assert_eq!(hi - lo, 1, "rows are distinct");
                lo
            }
            Kernel::Trie(c) => c.row(),
        }
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
/// Returns search statistics.
#[allow(clippy::too_many_arguments)]
pub fn multiway_join_range_rep<E: SemiringElem>(
    rep: JoinRep,
    domains: &Domains,
    order: &[Var],
    inputs: &[JoinInput<'_, E>],
    first_range: (u32, u32),
    one: E,
    mut mul: impl FnMut(&E, &E) -> E,
    mut on_match: impl FnMut(&[u32], E),
) -> JoinStats {
    let mut stats = JoinStats::default();

    // Fold nullary factors into a constant prefix value; align the rest.
    // Aligned factors are kept alive in `aligned` so cursors (and the trie
    // indices they walk) can borrow from them. Prefix-filter inputs are
    // never realigned — their leading columns already follow the order (the
    // caller's contract), and realigning would invalidate the depth cap.
    let mut prefix = one.clone();
    let mut aligned: Vec<(Cow<'_, Factor<E>>, bool, Option<usize>)> = Vec::new();
    for inp in inputs {
        debug_assert!(inp.prefix.is_none() || !inp.use_value, "prefix filters carry no value");
        if inp.factor.arity() == 0 {
            if inp.factor.is_empty() {
                return stats; // join annihilated by a zero scalar
            }
            if inp.use_value {
                prefix = mul(&prefix, inp.factor.value(0));
            }
            continue;
        }
        if inp.factor.is_empty() {
            return stats;
        }
        let cow = match inp.prefix {
            Some(_) => Cow::Borrowed(inp.factor),
            None => inp.factor.align_to_cow(order),
        };
        aligned.push((cow, inp.use_value, inp.prefix));
    }

    let mut cursors: Vec<Cursor<'_, E>> = Vec::with_capacity(aligned.len());
    for (f, use_value, prefix_depth) in &aligned {
        let eff = prefix_depth.unwrap_or_else(|| f.arity());
        // Every participating column must be bound by the ordering, in the
        // ordering's relative order (prefix filters skip alignment, so check
        // the relative order too).
        debug_assert!(
            {
                let mut last: Option<usize> = None;
                f.schema()[..eff].iter().all(|v| {
                    let p = order.iter().position(|o| o == v);
                    let ok = p.is_some() && p > last;
                    last = p;
                    ok
                })
            },
            "factor columns not covered by the join order in order"
        );
        // Factors constrained at the first join variable have it as their
        // first aligned column; restrict their trie root to the chunk range.
        let restrict =
            (f.schema().first() == order.first()).then_some(first_range).filter(|&(lo, hi)| {
                (lo, hi) != (0, u32::MAX) // full range needs no view
            });
        cursors.push(Cursor::new(rep, f.as_ref(), restrict, *use_value, eff));
    }

    // participants[d] = cursor indices constrained at depth d.
    let participants: Vec<Vec<usize>> = (0..order.len())
        .map(|d| {
            (0..cursors.len())
                .filter(|&c| {
                    let cur = &cursors[c];
                    cur.factor.schema()[..cur.eff_arity].contains(&order[d])
                })
                .collect()
        })
        .collect();

    let mut binding: Vec<u32> = Vec::with_capacity(order.len());
    search(
        domains,
        order,
        &participants,
        &mut cursors,
        &mut binding,
        first_range,
        &prefix,
        &mut mul,
        &mut on_match,
        &mut stats,
    );
    stats
}

#[allow(clippy::too_many_arguments)]
fn search<E: SemiringElem>(
    domains: &Domains,
    order: &[Var],
    participants: &[Vec<usize>],
    cursors: &mut [Cursor<'_, E>],
    binding: &mut Vec<u32>,
    first_range: (u32, u32),
    prefix: &E,
    mul: &mut impl FnMut(&E, &E) -> E,
    on_match: &mut impl FnMut(&[u32], E),
    stats: &mut JoinStats,
) {
    let d = binding.len();
    stats.nodes += 1;
    if d == order.len() {
        // All variables bound: every cursor points at a single row.
        let mut val = prefix.clone();
        for c in cursors.iter() {
            if c.use_value {
                // `value_at` goes through the factor's storage backing, so
                // spilled (file-chunked) factors join without materializing.
                val = mul(&val, c.factor.value_at(c.row()).as_ref());
            }
        }
        stats.matches += 1;
        on_match(binding, val);
        return;
    }

    // The candidate window at this depth: restricted for the first variable,
    // unrestricted below it.
    let (val_lo, val_hi) = if d == 0 { first_range } else { (0, u32::MAX) };

    let parts = &participants[d];
    if parts.is_empty() {
        // Unconstrained variable: iterate its whole domain (∩ the window).
        for x in val_lo..domains.size(order[d]).min(val_hi) {
            binding.push(x);
            search(
                domains,
                order,
                participants,
                cursors,
                binding,
                first_range,
                prefix,
                mul,
                on_match,
                stats,
            );
            binding.pop();
        }
        return;
    }

    // Leapfrog intersection of the participants' current levels.
    let mut candidate: u32 = val_lo;
    'candidates: loop {
        // Raise `candidate` until all participants agree it is present.
        let mut stable = false;
        while !stable {
            stable = true;
            for &ci in parts {
                stats.seeks += 1;
                // Cooperative deadline/cancel poll, amortized to one check per
                // 1024 seeks. Reads the counter without perturbing it, so the
                // bit-identical seek statistics pinned by tests are untouched.
                if stats.seeks & 0x3FF == 0 {
                    faq_factor::fault::checkpoint();
                }
                match cursors[ci].seek(candidate) {
                    None => break 'candidates,
                    Some(v) if v > candidate => {
                        candidate = v;
                        stable = false;
                    }
                    Some(_) => {}
                }
            }
        }
        if candidate >= val_hi {
            break;
        }

        // Descend: bind every participant to this value.
        for &ci in parts {
            cursors[ci].open(candidate);
        }
        binding.push(candidate);
        search(
            domains,
            order,
            participants,
            cursors,
            binding,
            first_range,
            prefix,
            mul,
            on_match,
            stats,
        );
        binding.pop();
        for &ci in parts {
            cursors[ci].up();
        }

        if candidate == u32::MAX {
            break;
        }
        candidate += 1;
    }
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
}
