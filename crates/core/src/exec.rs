//! The parallel execution engine for InsideOut.
//!
//! Each elimination step of Algorithm 1 is one multiway join followed by a
//! streaming `⊕⁽ᵏ⁾`-fold over the innermost variable (paper eq. (7)). The
//! join enumerates bindings in lexicographic order of the step's variable
//! ordering, so the search tree decomposes over *value ranges of the first
//! join variable*: ranges partitioning `Dom(order[0])` give disjoint slices
//! whose outputs, concatenated in range order, are exactly the sequential
//! output stream. Fresh steps, chunked steps and a delta replay's restricted
//! steps all rest on that one fact, so one driver, [`grouped_join`], runs
//! every step join as one range loop:
//!
//! 1. align every input to the kernel order once, so no range re-copies a
//!    misaligned factor;
//! 2. take the ranges — a delta replay's anchor ranges when it is given a
//!    restriction, else the cuts of [`first_var_ranges`], the only place
//!    that decides whether a step is chunked (from the rows of the inputs in
//!    front of it, not from an estimate). An unchunked step gets one full
//!    range;
//! 3. run a restriction or a single range in order into one
//!    [`faq_factor::FactorBuilder`]; fan several cuts out to a
//!    `std::thread::scope` worker pool, each worker stream-folding its groups
//!    column-flat into its own builder while walking a range-restricted view
//!    of the same cached tries, then append the per-range builders in range
//!    order (ranges are disjoint and ascending, so the k-way merge is an
//!    append). The output is a plain listing: the next step that joins it
//!    builds its trie index on first read ([`faq_factor::Factor::trie`]).
//!
//! A step whose kernel binds its variables in another order than its fold
//! (one that binds the eliminated variable first, so that the kernel never
//! walks a cross product — see [`crate::insideout`]) runs the same loop over
//! ranges of its kernel's first variable, but its workers buffer their
//! matches instead of folding them: the buffers are concatenated in range
//! order, sorted once into fold order, and fed to the same fold.
//!
//! **Determinism.** The output factor is bit-identical to the sequential
//! engine's for every semiring and every thread count: a fold group's first
//! column is the first join variable, so no group ever spans two chunks, and
//! within a chunk the fold consumes matches in the same lexicographic order
//! as the sequential engine. A buffered step is cut on its kernel's first
//! variable, which does not lead its groups; but its fold runs once, after
//! the one sort, over every match in fold order, whatever the cuts were.
//! Steps whose fold group is empty (the sub-join binds only the eliminated
//! variable) run sequentially — splitting them would re-associate the
//! `⊕`-fold, which is observable for non-associative carriers like `f64`.
//! Run *statistics* are not bit-identical: per-chunk searches each visit
//! their own root, so node/seek totals can exceed the sequential counts.

use crate::query::FaqError;
use faq_factor::fault;
use faq_factor::{Domains, Factor, FactorBuilder};
use faq_hypergraph::Var;
use faq_join::{multiway_join_range_rep, JoinInput, JoinRep, JoinStats};
use faq_semiring::SemiringElem;

pub use faq_factor::{CancelToken, Deadline};

/// Execution policy for the InsideOut engine.
///
/// An evaluation runs under exactly one policy. `threads == 1` is exactly
/// the sequential engine. With more threads, each elimination join whose
/// inputs are large enough is chunked by first-variable value ranges and the
/// chunks run on a scoped worker pool; the output is bit-identical
/// regardless of thread count (see the module docs for why).
///
/// The struct is `#[non_exhaustive]`: start from a constructor
/// ([`ExecPolicy::sequential`], [`ExecPolicy::with_threads`], or
/// [`ExecPolicy::default`]) and adjust knobs with the builder-style setters
/// ([`ExecPolicy::threads`], [`ExecPolicy::min_chunk_rows`]), so future
/// knobs never break downstream construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ExecPolicy {
    /// Maximum worker threads per elimination join (clamped to ≥ 1).
    pub threads: usize,
    /// Minimum rows of the chunking factor per chunk: a join whose chunking
    /// basis has fewer than `2 × min_chunk_rows` rows runs sequentially, and
    /// the chunk count never exceeds `basis rows / min_chunk_rows`. Guards
    /// against paying thread spawn cost on tiny intermediates.
    pub min_chunk_rows: usize,
    /// Abort the evaluation once this instant passes. Checked cooperatively
    /// — before every step, every 1024 seeks of a join and at every chunk
    /// fault-in — and surfaced as [`FaqError::DeadlineExceeded`]. `None`
    /// (the default) runs to completion.
    pub deadline: Option<Deadline>,
    /// Abort the evaluation when this token is triggered (same checkpoints
    /// as the deadline); surfaced as [`FaqError::Cancelled`].
    pub cancel: Option<CancelToken>,
}

impl ExecPolicy {
    /// Default [`ExecPolicy::min_chunk_rows`]: below ~512-row kernels, spawn
    /// overhead dominates the join work.
    pub const DEFAULT_MIN_CHUNK_ROWS: usize = 512;

    /// The sequential policy: one thread, chunking disabled.
    pub fn sequential() -> ExecPolicy {
        ExecPolicy { threads: 1, min_chunk_rows: usize::MAX, deadline: None, cancel: None }
    }

    /// A parallel policy with `threads` workers and the default chunk floor.
    pub fn with_threads(threads: usize) -> ExecPolicy {
        ExecPolicy {
            threads: threads.max(1),
            min_chunk_rows: Self::DEFAULT_MIN_CHUNK_ROWS,
            deadline: None,
            cancel: None,
        }
    }

    /// This policy with up to `n` worker threads (clamped to ≥ 1).
    pub fn threads(mut self, n: usize) -> ExecPolicy {
        self.threads = n.max(1);
        self
    }

    /// This policy with chunk floor `rows` (see the field docs).
    pub fn min_chunk_rows(mut self, rows: usize) -> ExecPolicy {
        self.min_chunk_rows = rows;
        self
    }

    /// This policy aborting (with [`FaqError::DeadlineExceeded`]) once
    /// `deadline` passes.
    pub fn deadline(mut self, deadline: Deadline) -> ExecPolicy {
        self.deadline = Some(deadline);
        self
    }

    /// This policy aborting (with [`FaqError::Cancelled`]) when `token`
    /// fires.
    pub fn cancel_token(mut self, token: CancelToken) -> ExecPolicy {
        self.cancel = Some(token);
        self
    }

    /// This policy clamped by an admission budget `cap`: worker threads take
    /// the minimum of the two, the chunk floor the maximum — capping affects
    /// resource use only, never results. This is how a serving runtime
    /// imposes per-query budgets on plans made for a dedicated machine.
    pub(crate) fn capped(&self, cap: &ExecPolicy) -> ExecPolicy {
        let mut p = self.clone();
        p.threads = p.threads.min(cap.effective_threads()).max(1);
        p.min_chunk_rows = p.min_chunk_rows.max(cap.min_chunk_rows);
        // The earlier deadline binds; the budget's cancel token (if any)
        // supersedes the plan's — a submission's token must always be able
        // to stop the evaluation it paid for.
        p.deadline = Deadline::earliest(p.deadline, cap.deadline);
        p.cancel = cap.cancel.clone().or(p.cancel);
        p
    }

    /// Effective worker count (at least 1).
    pub(crate) fn effective_threads(&self) -> usize {
        self.threads.max(1)
    }
}

/// Cached `available_parallelism` — one syscall per process, so default
/// policies/planners/engines can be constructed in per-call wrappers without
/// re-probing the host.
pub(crate) fn hardware_threads() -> usize {
    static N: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *N.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

impl Default for ExecPolicy {
    /// One worker per available hardware thread, default chunk floor.
    fn default() -> ExecPolicy {
        ExecPolicy::with_threads(hardware_threads())
    }
}

/// Run `f` under the policy's abort controls (deadline / cancel token),
/// converting a raised abort — storage failure, deadline, cancellation —
/// into the matching typed [`FaqError`]. The one place `faq_core` crosses
/// [`fault::guarded`]: every public entry that can touch a chunk or poll the
/// controls runs under it, and so does each parallel join worker.
pub(crate) fn with_abort_guard<R>(
    policy: &ExecPolicy,
    f: impl FnOnce() -> Result<R, FaqError>,
) -> Result<R, FaqError> {
    fault::guarded(policy.deadline, policy.cancel.clone(), f)
        .unwrap_or_else(|abort| Err(abort.into()))
}

/// One elimination-step join — the only driver of the join kernel in the
/// engine: enumerate matches of `inputs` over the variables of `order`,
/// group them by the first `group_arity` columns of `order`, fold each
/// group's values with `fold`, drop groups whose folded value `is_zero`, and
/// return the surviving groups as a built factor over `order[..group_arity]`.
///
/// With `group_arity == order.len()` this is plain enumeration with a zero
/// filter (every binding is its own group) — the shape of the guard joins and
/// the final output join. With `group_arity == order.len() - 1` it is the
/// semiring elimination of eq. (7).
///
/// The kernel walks the variables in `kernel` order, a permutation of
/// `order`. When the two agree the kernel emits bindings in `order`'s
/// lexicographic order and the fold streams over them. When they differ
/// (a step whose σ order would enumerate a cross product first, see
/// [`crate::insideout`]), each match is buffered as its binding in `order`
/// with its value, the buffer is sorted once and fed to the same fold — the
/// fold then meets the same groups, the same values and the same `x_k`
/// order as the streaming fold would, so the output is bit-identical. The
/// buffer holds one step's matches, at most the AGM bound of its `U`.
///
/// The join runs over ranges of `kernel[0]`: the `restriction` when given (a
/// delta replay's anchor ranges, sorted and disjoint — the output is then
/// that slice of the full output; only a streaming join takes one), else the
/// cuts of [`first_var_ranges`]. A restriction or a single range runs in
/// order into one sink; several cuts run on scoped workers, each into its
/// own sink, and the sinks are joined in range order. Either way the factor
/// is the same, bit for bit.
///
/// The output is assembled column-flat through a [`FactorBuilder`] — the fold
/// meets bindings in lexicographic order with distinct group keys, so no
/// duplicate scan or per-row allocation ever happens. The output carries no
/// index; whatever joins it next builds one on first read.
///
/// Errors (instead of panicking) when the chunking invariant is violated —
/// no aligned input holds the first kernel variable in its leading column
/// even though an input contains it — so degenerate queries surface as
/// [`FaqError`], never as a crash.
#[allow(clippy::too_many_arguments)]
pub(crate) fn grouped_join<E: SemiringElem>(
    policy: &ExecPolicy,
    domains: &Domains,
    order: &[Var],
    kernel: &[Var],
    inputs: &[JoinInput<'_, E>],
    restriction: Option<&[(u32, u32)]>,
    one: &E,
    group_arity: usize,
    mul: &(impl Fn(&E, &E) -> E + Sync),
    fold: &(impl Fn(&E, &E) -> E + Sync),
    is_zero: &(impl Fn(&E) -> bool + Sync),
) -> Result<(Factor<E>, JoinStats), FaqError> {
    debug_assert!(group_arity <= order.len() && kernel.len() == order.len());
    debug_assert!(restriction.is_none() || kernel == order, "a restriction cuts order[0]");
    // Align every input to the kernel order once, up front: the join kernel
    // aligns per invocation, and without this each range would re-copy (and
    // re-sort, when misaligned) every factor. Prefix filters skip alignment
    // by contract (their leading columns already follow the kernel order).
    let aligned: Vec<_> = inputs
        .iter()
        .map(|i| match i.prefix {
            Some(_) => std::borrow::Cow::Borrowed(i.factor),
            None => i.factor.align_to_cow(kernel),
        })
        .collect();
    let inputs: Vec<JoinInput<'_, E>> =
        aligned.iter().zip(inputs).map(|(f, i)| i.rebind(f.as_ref())).collect();
    let ranges = match restriction {
        Some(rs) => rs.to_vec(),
        None => first_var_ranges(policy, kernel, &inputs, group_arity)?,
    };
    let in_order = restriction.is_some() || ranges.len() == 1;
    let builder = || {
        FactorBuilder::new(order[..group_arity].to_vec())
            .expect("join-order variables are distinct")
    };
    let mut out = builder();

    let stats = if kernel == order {
        // The kernel emits in `order`: fold straight into the builder.
        let run = |range, out: &mut FactorBuilder<E>| {
            let mut groups = GroupFold::new(out, fold, is_zero);
            let stats = multiway_join_range_rep(
                JoinRep::Trie,
                domains,
                kernel,
                &inputs,
                range,
                one.clone(),
                mul,
                |binding, val| groups.push(&binding[..group_arity], val),
            );
            groups.flush();
            stats
        };
        // Group keys begin with the chunked variable, so chunk outputs are
        // disjoint and ascending: the k-way merge is a concatenating append.
        over_ranges(policy, &ranges, in_order, &mut out, builder, run, FactorBuilder::append)?
    } else {
        // The kernel emits in its own order: buffer each match by its
        // binding in `order`, then sort and fold once.
        let at: Vec<usize> = order
            .iter()
            .map(|v| kernel.iter().position(|k| k == v).expect("the kernel order permutes order"))
            .collect();
        let buffer = || MatchBuffer { width: order.len(), keys: Vec::new(), vals: Vec::new() };
        let run = |range, buf: &mut MatchBuffer<E>| {
            multiway_join_range_rep(
                JoinRep::Trie,
                domains,
                kernel,
                &inputs,
                range,
                one.clone(),
                mul,
                |binding, val| {
                    buf.keys.extend(at.iter().map(|&p| binding[p]));
                    buf.vals.push(val);
                },
            )
        };
        let mut buf = buffer();
        let stats = over_ranges(policy, &ranges, in_order, &mut buf, buffer, run, |b, chunk| {
            b.keys.extend(chunk.keys);
            b.vals.extend(chunk.vals);
        })?;
        // The realigned input copies are dead once every match is buffered:
        // free them before the sort and the output grow.
        drop(inputs);
        drop(aligned);
        buf.fold_sorted(group_arity, &mut GroupFold::new(&mut out, fold, is_zero));
        stats
    };
    Ok((out.finish(), stats))
}

/// Run `run` over every range into a sink: all of them in order into `into`
/// when `in_order`, else on a scoped worker pool — one worker per range
/// (`ranges.len()` ≤ threads), each into its own `fresh()` sink under the
/// policy's controls — and `join` each worker's sink into `into` in range
/// order. The lowest range's abort wins, whatever order the workers failed
/// in. Returns the summed join statistics.
fn over_ranges<T: Send>(
    policy: &ExecPolicy,
    ranges: &[(u32, u32)],
    in_order: bool,
    into: &mut T,
    fresh: impl Fn() -> T + Sync,
    run: impl Fn((u32, u32), &mut T) -> JoinStats + Sync,
    mut join: impl FnMut(&mut T, T),
) -> Result<JoinStats, FaqError> {
    let per_range: Vec<JoinStats> = if in_order {
        ranges.iter().map(|&range| run(range, into)).collect()
    } else {
        let chunks: Vec<Result<(T, JoinStats), FaqError>> = std::thread::scope(|s| {
            let workers: Vec<_> = ranges
                .iter()
                .map(|&range| {
                    let (run, fresh) = (&run, &fresh);
                    s.spawn(move || {
                        with_abort_guard(policy, || {
                            let mut chunk = fresh();
                            let stats = run(range, &mut chunk);
                            Ok((chunk, stats))
                        })
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect()
        });
        chunks
            .into_iter()
            .map(|chunk| {
                chunk.map(|(chunk, stats)| {
                    join(into, chunk);
                    stats
                })
            })
            .collect::<Result<_, _>>()?
    };
    Ok(per_range.iter().fold(JoinStats::default(), |a, s| JoinStats {
        matches: a.matches + s.matches,
        seeks: a.seeks + s.seeks,
        nodes: a.nodes + s.nodes,
    }))
}

/// The `⊕`-fold of consecutive matches sharing a group key, exactly the
/// paper's stream-aggregation over consecutive outputs, emitted straight
/// into a flat builder. Both feeders of [`grouped_join`] — the kernel's own
/// emission and a sorted [`MatchBuffer`] — run this one fold. The only
/// per-group state is one reusable key buffer; nothing is allocated per row.
struct GroupFold<'a, E, F, Z> {
    out: &'a mut FactorBuilder<E>,
    fold: F,
    is_zero: Z,
    key: Vec<u32>,
    acc: Option<E>,
}

impl<'a, E: SemiringElem, F: Fn(&E, &E) -> E, Z: Fn(&E) -> bool> GroupFold<'a, E, F, Z> {
    fn new(out: &'a mut FactorBuilder<E>, fold: F, is_zero: Z) -> Self {
        GroupFold { out, fold, is_zero, key: Vec::new(), acc: None }
    }

    /// Fold `val` into `group`, closing the previous group when it differs.
    fn push(&mut self, group: &[u32], val: E) {
        match &mut self.acc {
            Some(a) if self.key == group => *a = (self.fold)(a, &val),
            _ => {
                self.flush();
                self.key.clear();
                self.key.extend_from_slice(group);
                self.acc = Some(val);
            }
        }
    }

    /// Close the open group: push it unless it folded to zero.
    fn flush(&mut self) {
        if let Some(done) = self.acc.take() {
            if !(self.is_zero)(&done) {
                self.out.push(&self.key, done);
            }
        }
    }
}

/// The matches of a join whose kernel order differs from its fold order,
/// each as its binding in fold order (`width` keys, flat) and its value.
struct MatchBuffer<E> {
    width: usize,
    keys: Vec<u32>,
    vals: Vec<E>,
}

impl<E: SemiringElem> MatchBuffer<E> {
    /// Feed the matches to `groups` in lexicographic order of their
    /// bindings, grouped on the first `group_arity` keys. Every binding
    /// occurs once, so the order is total. The kernel emits the bindings of
    /// each value of its first variable as one ascending run, which the
    /// stable sort (a run-merging merge sort) merges rather than sorting
    /// from scratch.
    fn fold_sorted<F: Fn(&E, &E) -> E, Z: Fn(&E) -> bool>(
        &self,
        group_arity: usize,
        groups: &mut GroupFold<'_, E, F, Z>,
    ) {
        let w = self.width;
        let key = |i: usize| &self.keys[i * w..(i + 1) * w];
        let mut sorted: Vec<usize> = (0..self.vals.len()).collect();
        sorted.sort_by(|&a, &b| key(a).cmp(key(b)));
        for i in sorted {
            groups.push(&key(i)[..group_arity], self.vals[i].clone());
        }
        groups.flush();
    }
}

/// The first-variable ranges a fresh step join runs over, from the rows of
/// its (aligned) `inputs` — the one place that decides whether a step is
/// chunked. A single full range means "not chunked": one thread, an empty
/// fold group, a basis below `2 ×` [`ExecPolicy::min_chunk_rows`] rows, or
/// too few distinct values to cut.
///
/// Otherwise the basis — the largest input holding the first join variable —
/// is cut into up to [`ExecPolicy::threads`] ranges of roughly equal row
/// counts, never splitting a value, straight off the root level of the
/// basis's trie index ([`faq_factor::FactorTrie::partition_root`], on
/// either backing) — the same index every worker then walks.
fn first_var_ranges<E: SemiringElem>(
    policy: &ExecPolicy,
    order: &[Var],
    inputs: &[JoinInput<'_, E>],
    group_arity: usize,
) -> Result<Vec<(u32, u32)>, FaqError> {
    let full = vec![(0u32, u32::MAX)];
    let threads = policy.effective_threads();
    // A zero group arity means the whole output is ONE fold group; chunking
    // it would re-associate the ⊕-fold, which is observable on f64.
    if threads <= 1 || group_arity == 0 || order.is_empty() {
        return Ok(full);
    }
    let first = order[0];
    let basis_len = inputs
        .iter()
        .map(|i| i.factor)
        .filter(|f| f.schema().contains(&first))
        .map(|f| f.len())
        .max();
    let per_chunk = policy.min_chunk_rows.clamp(1, usize::MAX / 2);
    let max_chunks = threads.min(basis_len.unwrap_or(0) / per_chunk);
    if max_chunks <= 1 {
        return Ok(full);
    }
    // Aligned factors containing `first` hold it in column 0.
    let basis = inputs
        .iter()
        .map(|i| i.factor)
        .filter(|f| f.schema().first() == Some(&first))
        .max_by_key(|f| f.len())
        .ok_or_else(|| FaqError::Uncoverable(vec![first]))?;
    let ranges = basis.trie().partition_root(max_chunks);
    Ok(if ranges.len() > 1 { ranges } else { full })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::query::{FaqQuery, VarAgg};
    use faq_factor::{Domains, Factor};
    use faq_hypergraph::v;
    use faq_semiring::{AggDomain, CountDomain, RealDomain};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_query(seed: u64, n_rows: usize) -> FaqQuery<CountDomain> {
        let mut r = StdRng::seed_from_u64(seed);
        let d = 8u32;
        let mut mk = |vars: &[u32]| {
            let mut tuples = std::collections::BTreeMap::new();
            for _ in 0..n_rows {
                let row: Vec<u32> = vars.iter().map(|_| r.gen_range(0..d)).collect();
                tuples.insert(row, r.gen_range(1..4u64));
            }
            Factor::new(vars.iter().map(|&i| v(i)).collect(), tuples.into_iter().collect()).unwrap()
        };
        let f01 = mk(&[0, 1]);
        let f12 = mk(&[1, 2]);
        let f02 = mk(&[0, 2]);
        FaqQuery::new(
            CountDomain,
            Domains::uniform(3, d),
            vec![v(0)],
            vec![
                (v(1), VarAgg::Semiring(CountDomain::SUM)),
                (v(2), VarAgg::Semiring(CountDomain::MAX)),
            ],
            vec![f01, f12, f02],
        )
        .unwrap()
    }

    #[test]
    fn policy_constructors() {
        assert_eq!(ExecPolicy::sequential().effective_threads(), 1);
        assert_eq!(ExecPolicy::with_threads(0).effective_threads(), 1);
        assert_eq!(ExecPolicy::with_threads(4).threads, 4);
        assert!(ExecPolicy::default().threads >= 1);
    }

    /// Every thread count and chunk floor gives the sequential engine's
    /// output, and a restricted join over two disjoint first-variable ranges
    /// gives exactly the full join's rows in those ranges — with one input
    /// whose schema is not in join order, so both modes take the up-front
    /// alignment.
    #[test]
    fn parallel_matches_sequential_counting() {
        let order = [v(0), v(1), v(2)];
        let ranges = [(1u32, 3u32), (5, 7)];
        let dom = CountDomain;
        for seed in 0..8 {
            let q = random_query(seed, 60);
            let seq = Engine::sequential().evaluate(&q).unwrap();
            let f20 = q.factors[2].reorder(&[v(2), v(0)]);
            let inputs: Vec<JoinInput<'_, u64>> =
                q.factors[..2].iter().chain([&f20]).map(JoinInput::value).collect();
            let join = |policy: &ExecPolicy, restriction: Option<&[(u32, u32)]>| {
                grouped_join(
                    policy,
                    &q.domains,
                    &order,
                    &order,
                    &inputs,
                    restriction,
                    &dom.one(),
                    2,
                    &|a, b| dom.mul(a, b),
                    &|a, b| dom.add(CountDomain::SUM, a, b),
                    &|x| dom.is_zero(x),
                )
                .unwrap()
                .0
            };
            for threads in [1usize, 2, 4] {
                for min_chunk in [0usize, 1, 7, usize::MAX] {
                    let policy = ExecPolicy {
                        threads,
                        min_chunk_rows: min_chunk,
                        deadline: None,
                        cancel: None,
                    };
                    let par = Engine::with_policy(policy.clone()).evaluate(&q).unwrap();
                    let at = format!("seed {seed} threads {threads} min_chunk {min_chunk}");
                    assert_eq!(par.factor, seq.factor, "{at}");
                    let full = join(&policy, None);
                    let in_ranges = full
                        .iter()
                        .filter(|(row, _)| ranges.iter().any(|r| (r.0..r.1).contains(&row[0])))
                        .map(|(row, &x)| (row.to_vec(), x))
                        .collect();
                    let want = Factor::new(order[..2].to_vec(), in_ranges).unwrap();
                    assert!(!want.is_empty() && want.len() < full.len(), "{at}");
                    assert_eq!(join(&policy, Some(&ranges)), want, "{at}");
                }
            }
        }
    }

    /// A step's output is a plain listing — on one range, on chunked
    /// workers merged by append, or over a restriction — and is indexed only
    /// when something first reads its trie, for every handle of its body.
    #[test]
    fn step_output_is_indexed_on_first_read() {
        let q = random_query(5, 60);
        let order = [v(0), v(1), v(2)];
        let dom = CountDomain;
        let inputs: Vec<JoinInput<'_, u64>> = q.factors.iter().map(JoinInput::value).collect();
        for threads in [1usize, 2] {
            for restriction in [None, Some(&[(1u32, 5u32)][..])] {
                let policy = ExecPolicy::with_threads(threads).min_chunk_rows(0);
                let (out, _) = grouped_join(
                    &policy,
                    &q.domains,
                    &order,
                    &order,
                    &inputs,
                    restriction,
                    &dom.one(),
                    2,
                    &|a, b| dom.mul(a, b),
                    &|a, b| dom.add(CountDomain::SUM, a, b),
                    &|x| dom.is_zero(x),
                )
                .unwrap();
                let handle = out.clone();
                assert!(!out.is_empty());
                assert!(out.trie_if_built().is_none(), "threads {threads} {restriction:?}");
                let _ = handle.trie();
                assert!(out.trie_if_built().is_some(), "threads {threads} {restriction:?}");
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_real_free_vars() {
        // f64 is the carrier where fold re-association would show: assert
        // bit-identical outputs, not approximate ones.
        let mut r = StdRng::seed_from_u64(3);
        let mut mk = |a: u32, b: u32| {
            let mut tuples = std::collections::BTreeMap::new();
            for _ in 0..80 {
                tuples.insert(
                    vec![r.gen_range(0..10u32), r.gen_range(0..10u32)],
                    r.gen_range(0.1..2.0f64),
                );
            }
            Factor::new(vec![v(a), v(b)], tuples.into_iter().collect()).unwrap()
        };
        let q = FaqQuery::new(
            RealDomain,
            Domains::uniform(3, 10),
            vec![v(0)],
            vec![
                (v(1), VarAgg::Semiring(RealDomain::SUM)),
                (v(2), VarAgg::Semiring(RealDomain::SUM)),
            ],
            vec![mk(0, 1), mk(1, 2), mk(0, 2)],
        )
        .unwrap();
        let seq = Engine::sequential().evaluate(&q).unwrap();
        for threads in [2usize, 3, 4] {
            let par = Engine::with_policy(ExecPolicy {
                threads,
                min_chunk_rows: 1,
                deadline: None,
                cancel: None,
            })
            .evaluate(&q)
            .unwrap();
            assert_eq!(par.factor, seq.factor, "threads {threads}");
        }
    }

    #[test]
    fn scalar_queries_match() {
        // No free variables: the last elimination folds into a single group
        // (group_arity 0 at the top), exercising the sequential fallback.
        let q = FaqQuery::new(
            CountDomain,
            Domains::uniform(2, 4),
            vec![],
            vec![
                (v(0), VarAgg::Semiring(CountDomain::SUM)),
                (v(1), VarAgg::Semiring(CountDomain::SUM)),
            ],
            vec![Factor::dense(
                vec![v(0), v(1)],
                &[4, 4],
                |row| (row[0] + row[1]) as u64,
                |&x| x == 0,
            )
            .unwrap()],
        )
        .unwrap();
        let seq = Engine::sequential().evaluate(&q).unwrap();
        let par = Engine::with_policy(ExecPolicy {
            threads: 4,
            min_chunk_rows: 1,
            deadline: None,
            cancel: None,
        })
        .evaluate(&q)
        .unwrap();
        assert_eq!(par.factor, seq.factor);
        assert_eq!(par.scalar(), seq.scalar());
    }
}
