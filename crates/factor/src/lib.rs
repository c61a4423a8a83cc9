//! Listing-representation factors over discrete domains.
//!
//! A *factor* `ψ_S : Π_{i∈S} Dom(X_i) → D` is stored as the table of its
//! non-zero entries `⟨x_S, ψ_S(x_S)⟩` (paper Definition 4.1). Values live in a
//! semiring carrier type `E`; the semiring itself is passed into operations as
//! closures so factors stay decoupled from any particular algebra.
//!
//! Rows are kept sorted lexicographically under the factor's column order,
//! which supplies the *conditional query* oracle of paper Assumption 1 via
//! binary search. On top of the listing, [`Factor::trie`] exposes a columnar
//! trie index ([`FactorTrie`]) — built lazily, cached — that the
//! OutsideIn join walks with [`TrieCursor`]s instead of repeating
//! whole-row binary searches. A spilled factor keeps no listing: its trie,
//! written with it, is its keys.
//!
//! The API is the root re-exports below plus the [`fault`] module:
//! * [`Domains`] — per-variable domain sizes and assignment iteration;
//! * [`Factor`] / [`FactorBuilder`] — the factor type and its algebra
//!   (projection, indicator projection per Definition 4.2, product
//!   marginalization per Assumption 2, point-wise maps, powering), built
//!   column-flat from sorted row streams;
//! * [`DeltaFactor`] — sorted point-update batches and their application,
//!   reporting the changed first-column ranges that anchor incremental
//!   re-evaluation;
//! * [`FactorTrie`] / [`TrieLevel`] / [`TrieCursor`] / [`TrieView`] — the
//!   columnar trie index: levels, cursors, range-restricted views;
//! * [`LevelStorage`] — the seek contract of a trie level, and
//!   [`VecStorage`], the branch-free galloping kernel that answers it on the
//!   heap;
//! * [`SpillConfig`] — the file-chunked out-of-core backing: a spilled
//!   factor is its trie, levels on disk ([`FileChunkedLevel`], in the
//!   [`FactorLevel`] enum every trie level is stored in), plus a values
//!   column by leaf entry — one copy of its keys, written once, indexed when
//!   it is written — with the process-wide pinned-chunk gauges
//!   ([`pinned_bytes`], [`peak_pinned_bytes`], [`chunk_reads`]);
//! * [`fault`] — typed storage errors ([`StorageError`]), the
//!   [`QueryAbort`] unwinding transport that carries them (and deadlines /
//!   cancellation) out of infallible accessor code to its one boundary,
//!   [`fault::guarded`], and the seeded [`FaultPlan`] injection hook behind
//!   the chaos suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod colstore;
mod delta;
mod domains;
mod factor;
pub mod fault;
mod storage;
mod trie;

pub use colstore::{
    chunk_reads, gc_stale_spill_dirs, peak_pinned_bytes, pinned_bytes, reset_peak_pinned_bytes,
    FactorLevel, FileChunkedLevel, FixedBytes, SpillConfig, SpillStats,
};
pub use delta::{DeltaFactor, DeltaOp};
pub use domains::{AssignmentIter, Domains};
pub use factor::{Factor, FactorBuilder, FactorError, ValRef};
pub use fault::{CancelToken, Deadline, FaultPlan, QueryAbort, StorageError};
pub use storage::{LevelStorage, VecStorage};
pub use trie::{FactorTrie, TrieCursor, TrieLevel, TrieView};
