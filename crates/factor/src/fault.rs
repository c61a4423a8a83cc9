//! Typed storage failures, cooperative deadlines and deterministic fault
//! injection.
//!
//! The out-of-core backing ([`crate::SpillConfig`]) turns every chunk I/O
//! failure into a [`StorageError`] instead of panicking: transient errors are
//! retried a bounded number of times with backoff, and every chunk carries a
//! checksum verified on fault-in, so a torn or bit-flipped chunk surfaces as
//! [`StorageError::Corrupt`] rather than silently wrong answers. The checksum
//! detects any corruption confined to one aligned 8-byte word with certainty
//! (see the `colstore` module docs).
//!
//! # The abort transport
//!
//! The hot accessor APIs (`Factor::get`, trie cursors, `LevelStorage`) are
//! deliberately infallible — threading `Result` through every seek would tax
//! the in-memory fast path that never touches a disk. Instead, a failed
//! chunk operation *raises* a [`QueryAbort`] by unwinding, and [`guarded`]
//! is the one boundary that turns it back into a value. Deadlines and
//! cancellation ride the same transport: [`checkpoint`] is called every few
//! thousand seeks in the join loop and at every chunk fault-in, and raises
//! [`QueryAbort::DeadlineExceeded`] / [`QueryAbort::Cancelled`] when the
//! controls `guarded` installed say so.
//!
//! `faq_core` calls `guarded` from one helper, around every public entry
//! that can touch a chunk or poll the controls (evaluation, prepare, factor
//! updates, delta merges and replays) and inside each parallel join
//! worker, whose thread starts with no controls of its own. Guards nest: an
//! inner guard installs its own controls and restores the outer ones when it
//! returns, whether `f` finished, aborted or panicked. Unwinding only
//! crosses frames owned by the evaluation itself (builders, cursors,
//! pinned-chunk guards — all with sound `Drop`s), never user code.
//!
//! # Fault injection
//!
//! A seeded [`FaultPlan`] decides, per *logical* chunk operation, whether to
//! inject a transient failure (first attempt only — the retry succeeds), a
//! hard failure (every attempt — the typed error surfaces), a corruption
//! (a flipped byte, which lies in one word and so is always detected) or a
//! delay. Decisions are a pure
//! hash of `(seed, operation sequence number)`, so a single-threaded run
//! replays exactly and a concurrent run draws from the same fault
//! distribution. A plan is armed on the spilled factors it should fault
//! ([`FaultPlan::arm`]) and kept in their spill directories, which every
//! clone, trie level and delta splice of those factors shares: their chunk
//! operations are faulted on whichever thread runs them, and every other
//! factor's are left alone.

use crate::Factor;
use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Typed storage errors
// ---------------------------------------------------------------------------

/// A typed failure of the out-of-core chunk store.
///
/// Carries enough to diagnose the failing operation without holding the
/// (non-`Clone`) `std::io::Error` itself, so it can travel inside `Clone`
/// + `PartialEq` error enums up the stack.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageError {
    /// An I/O operation on a spill file failed after every retry attempt.
    Io {
        /// What was being done ("read chunk", "append chunk", …).
        op: &'static str,
        /// Path of the spill file or directory involved.
        path: String,
        /// Kind of the final underlying `std::io::Error`.
        kind: std::io::ErrorKind,
        /// Attempts made (1 = no retries were possible).
        attempts: u32,
    },
    /// A chunk read back from disk failed its checksum on every attempt.
    Corrupt {
        /// Path of the spill file.
        path: String,
        /// Index of the corrupt chunk within its file-chunked container.
        chunk: usize,
        /// Checksum recorded when the chunk was written.
        expected: u64,
        /// Checksum of the bytes actually read.
        actual: u64,
    },
}

impl StorageError {
    pub(crate) fn io(
        op: &'static str,
        path: &std::path::Path,
        err: &std::io::Error,
        attempts: u32,
    ) -> StorageError {
        StorageError::Io { op, path: path.display().to_string(), kind: err.kind(), attempts }
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io { op, path, kind, attempts } => {
                write!(f, "storage error: {op} on {path} failed with {kind:?} after {attempts} attempt(s)")
            }
            StorageError::Corrupt { path, chunk, expected, actual } => write!(
                f,
                "storage error: chunk {chunk} of {path} is corrupt \
                 (checksum {actual:#018x}, expected {expected:#018x})"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

// ---------------------------------------------------------------------------
// The abort transport
// ---------------------------------------------------------------------------

/// Why an in-flight evaluation was aborted.
///
/// Raised from infallible accessor code and returned by [`guarded`], whose
/// caller converts it into its own error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryAbort {
    /// A chunk read/write failed with a typed [`StorageError`].
    Storage(StorageError),
    /// The installed [`Deadline`] passed.
    DeadlineExceeded,
    /// The installed [`CancelToken`] was triggered.
    Cancelled,
}

impl From<StorageError> for QueryAbort {
    fn from(e: StorageError) -> QueryAbort {
        QueryAbort::Storage(e)
    }
}

impl std::fmt::Display for QueryAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryAbort::Storage(e) => write!(f, "{e}"),
            QueryAbort::DeadlineExceeded => write!(f, "query deadline exceeded"),
            QueryAbort::Cancelled => write!(f, "query cancelled"),
        }
    }
}

/// Payload of a deliberately injected panic (chaos testing). The quiet
/// panic hook installed by [`install_quiet_hook`] suppresses its report,
/// exactly like a [`QueryAbort`]'s.
#[derive(Debug)]
pub struct InjectedPanic(pub &'static str);

/// Install (once, process-wide) a forwarding panic hook that stays silent
/// for [`QueryAbort`] and [`InjectedPanic`] payloads — they are control
/// flow, not bugs — and delegates every other panic to the previous hook.
pub fn install_quiet_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.downcast_ref::<QueryAbort>().is_none()
                && p.downcast_ref::<InjectedPanic>().is_none()
            {
                prev(info);
            }
        }));
    });
}

/// Abort the in-flight evaluation by unwinding with `abort` as payload.
///
/// Must only be called under [`guarded`]. Unwinds with the quiet hook in
/// place, so no spurious panic report is printed.
pub(crate) fn raise(abort: QueryAbort) -> ! {
    install_quiet_hook();
    std::panic::panic_any(abort)
}

/// Run `f` under the abort controls `deadline` and `cancel`, returning a
/// [`QueryAbort`] it raised as `Err`. The previous controls are restored on
/// return, so guards nest; any other panic keeps unwinding.
pub fn guarded<R>(
    deadline: Option<Deadline>,
    cancel: Option<CancelToken>,
    f: impl FnOnce() -> R,
) -> Result<R, QueryAbort> {
    install_quiet_hook();
    let outer = CURRENT_CTL.with(|c| c.replace(AbortCtl { deadline, cancel }));
    let run = std::panic::catch_unwind(AssertUnwindSafe(f));
    CURRENT_CTL.with(|c| *c.borrow_mut() = outer);
    match run {
        Ok(r) => Ok(r),
        Err(payload) => match payload.downcast::<QueryAbort>() {
            Ok(abort) => Err(*abort),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

// ---------------------------------------------------------------------------
// Deadlines and cancellation
// ---------------------------------------------------------------------------

/// A wall-clock point after which an evaluation should abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline {
    at: Expiry,
}

/// Declared in this order so the derived `Ord` puts `Never` after every
/// instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Expiry {
    At(Instant),
    Never,
}

impl Deadline {
    /// A deadline `budget` from now. A budget past the end of the clock's
    /// range (`Duration::MAX`, the natural "no limit") never expires.
    pub fn after(budget: Duration) -> Deadline {
        Deadline { at: Instant::now().checked_add(budget).map_or(Expiry::Never, Expiry::At) }
    }

    /// Whether the deadline has passed.
    pub(crate) fn expired(&self) -> bool {
        matches!(self.at, Expiry::At(at) if Instant::now() >= at)
    }

    /// The earlier of two optional deadlines.
    pub fn earliest(a: Option<Deadline>, b: Option<Deadline>) -> Option<Deadline> {
        match (a, b) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, None) => x,
            (None, y) => y,
        }
    }
}

/// A cooperative cancellation token; clones share the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untriggered token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trigger cancellation: evaluations carrying this token abort at their
    /// next [`checkpoint`].
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for CancelToken {}

/// The abort controls [`guarded`] installs on its thread.
#[derive(Default)]
struct AbortCtl {
    deadline: Option<Deadline>,
    cancel: Option<CancelToken>,
}

impl AbortCtl {
    fn armed(&self) -> bool {
        self.deadline.is_some() || self.cancel.is_some()
    }
}

thread_local! {
    static CURRENT_CTL: RefCell<AbortCtl> = RefCell::new(AbortCtl::default());
}

/// Abort the evaluation if its installed deadline has passed or its cancel
/// token fired; no-op (two thread-local reads) otherwise.
///
/// Called before every step of an evaluation, every 1024 seeks by the
/// leapfrog join and at every chunk fault-in by the out-of-core store.
pub fn checkpoint() {
    let abort = CURRENT_CTL.with(|c| {
        let ctl = c.borrow();
        if !ctl.armed() {
            return None;
        }
        if ctl.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(QueryAbort::Cancelled);
        }
        if ctl.deadline.as_ref().is_some_and(Deadline::expired) {
            return Some(QueryAbort::DeadlineExceeded);
        }
        None
    });
    if let Some(a) = abort {
        raise(a);
    }
}

// ---------------------------------------------------------------------------
// Failure counters
// ---------------------------------------------------------------------------

static IO_RETRIES: AtomicU64 = AtomicU64::new(0);
static CORRUPT_CHUNKS: AtomicU64 = AtomicU64::new(0);

/// Chunk I/O attempts retried after a (transient or injected) failure since
/// process start.
pub fn io_retries() -> u64 {
    IO_RETRIES.load(Ordering::Relaxed)
}

/// Chunk reads that exhausted their retries with a checksum mismatch since
/// process start.
pub fn corrupt_chunks() -> u64 {
    CORRUPT_CHUNKS.load(Ordering::Relaxed)
}

pub(crate) fn note_io_retry() {
    IO_RETRIES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_corrupt_chunk() {
    CORRUPT_CHUNKS.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// A seeded plan of injected chunk-store faults.
///
/// Each *logical* chunk operation (one read or append, however many retry
/// attempts it takes) draws one uniform variate from
/// [`seeded_unit`]`(seed, seq)` and the cumulative probability bands decide
/// its fate — so the k-th operation's fault is a pure function of the seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-operation hash.
    pub seed: u64,
    /// Probability of a transient failure (first attempt only; the retry
    /// succeeds and counts in [`io_retries`]).
    pub fail_transient: f64,
    /// Probability of a hard failure (every attempt; surfaces as
    /// [`StorageError::Io`]).
    pub fail_hard: f64,
    /// Probability of corrupting a read (every attempt; the checksum catches
    /// it and it surfaces as [`StorageError::Corrupt`]).
    pub corrupt: f64,
    /// Probability of delaying the operation by [`FaultPlan::delay_micros`].
    pub delay: f64,
    /// Injected delay duration, microseconds.
    pub delay_micros: u64,
}

impl FaultPlan {
    /// A plan with `seed` and all fault probabilities zero.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            fail_transient: 0.0,
            fail_hard: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            delay_micros: 50,
        }
    }

    /// This plan with a transient-failure probability.
    pub fn fail_transient(mut self, p: f64) -> FaultPlan {
        self.fail_transient = p;
        self
    }

    /// This plan with a hard-failure probability.
    pub fn fail_hard(mut self, p: f64) -> FaultPlan {
        self.fail_hard = p;
        self
    }

    /// This plan with a corruption probability.
    pub fn corrupt(mut self, p: f64) -> FaultPlan {
        self.corrupt = p;
        self
    }

    /// This plan with a delay probability.
    pub fn delay(mut self, p: f64, micros: u64) -> FaultPlan {
        self.delay = p;
        self.delay_micros = micros;
        self
    }

    /// Arm this plan on the spill directories of `factors` until the guard
    /// drops: every chunk read or append of those factors, their clones,
    /// their trie levels and the delta splices made from them draws its fate
    /// from the plan, on any thread. In-memory factors have no chunks and are
    /// skipped. The directories armed by one call share one sequence counter,
    /// so the k-th chunk operation among them is a pure function of the seed.
    pub fn arm<'a, E: 'a>(self, factors: impl IntoIterator<Item = &'a Factor<E>>) -> FaultGuard {
        install_quiet_hook();
        let seq = Arc::new(AtomicU64::new(0));
        let slots: Vec<Arc<FaultSlot>> = factors
            .into_iter()
            .filter_map(|f| f.spill_values().map(|v| Arc::clone(v.faults())))
            .collect();
        for slot in &slots {
            *slot.lock() = Some((self, Arc::clone(&seq)));
            slot.armed.store(true, Ordering::SeqCst);
        }
        FaultGuard { slots }
    }

    fn decide(&self, seq: u64) -> Injected {
        let u = seeded_unit(self.seed, seq);
        let mut edge = self.fail_transient;
        if u < edge {
            return Injected::FailTransient;
        }
        edge += self.fail_hard;
        if u < edge {
            return Injected::FailHard;
        }
        edge += self.corrupt;
        if u < edge {
            return Injected::Corrupt;
        }
        edge += self.delay;
        if u < edge {
            return Injected::Delay(self.delay_micros);
        }
        Injected::None
    }
}

/// The plan a spill directory's chunk operations draw from; unarmed until
/// [`FaultPlan::arm`] names a factor stored there.
#[derive(Debug, Default)]
pub(crate) struct FaultSlot {
    armed: AtomicBool,
    /// The plan and the sequence counter its `arm` call shares.
    plan: Mutex<Option<(FaultPlan, Arc<AtomicU64>)>>,
}

impl FaultSlot {
    fn lock(&self) -> MutexGuard<'_, Option<(FaultPlan, Arc<AtomicU64>)>> {
        self.plan.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Draw the armed plan's decision for the next logical chunk operation:
    /// [`Injected::None`], after one atomic load, when nothing is armed.
    pub(crate) fn draw(&self) -> Injected {
        // Relaxed: the flag publishes nothing, the plan is read under the
        // lock, and an operation meant to be faulted is ordered after `arm`
        // by whatever handed it the factor.
        if !self.armed.load(Ordering::Relaxed) {
            return Injected::None;
        }
        match self.lock().as_ref() {
            Some((plan, seq)) => plan.decide(seq.fetch_add(1, Ordering::Relaxed)),
            None => Injected::None,
        }
    }
}

/// Disarms the directories its [`FaultPlan::arm`] call armed on drop.
#[must_use = "dropping the guard immediately disarms the plan"]
pub struct FaultGuard {
    slots: Vec<Arc<FaultSlot>>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        for slot in &self.slots {
            slot.armed.store(false, Ordering::SeqCst);
            *slot.lock() = None;
        }
    }
}

/// The fate of one logical chunk operation under the armed plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Injected {
    None,
    FailTransient,
    FailHard,
    Corrupt,
    Delay(u64),
}

/// A uniform variate in `[0, 1)` as a pure function of `(seed, n)`
/// (splitmix64 finalizer). Shared by [`FaultPlan`] and the serving layer's
/// panic-injection plan so both replay from their seeds.
pub fn seeded_unit(seed: u64, n: u64) -> f64 {
    let mut z = seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarded_roundtrips_abort() {
        let r: Result<(), QueryAbort> = guarded(None, None, || raise(QueryAbort::DeadlineExceeded));
        assert_eq!(r, Err(QueryAbort::DeadlineExceeded));
        let e = StorageError::Io {
            op: "read chunk",
            path: "x".into(),
            kind: std::io::ErrorKind::Other,
            attempts: 3,
        };
        let r: Result<(), QueryAbort> =
            guarded(None, None, || raise(QueryAbort::Storage(e.clone())));
        assert_eq!(r, Err(QueryAbort::Storage(e)));
        assert_eq!(guarded(None, None, || 41 + 1), Ok(42));
    }

    #[test]
    fn checkpoint_honours_deadline_and_cancel() {
        // No controls installed: free pass.
        checkpoint();
        let expired = Some(Deadline::after(Duration::ZERO));
        assert_eq!(guarded(expired, None, checkpoint), Err(QueryAbort::DeadlineExceeded));
        let token = CancelToken::new();
        // Not yet cancelled.
        assert_eq!(guarded(None, Some(token.clone()), checkpoint), Ok(()));
        token.cancel();
        assert_eq!(guarded(None, Some(token), checkpoint), Err(QueryAbort::Cancelled));
        checkpoint(); // controls uninstalled again
    }

    #[test]
    fn unrepresentable_budget_never_expires() {
        let never = Deadline::after(Duration::MAX);
        assert!(!never.expired());
        let finite = Deadline::after(Duration::from_secs(u64::from(u32::MAX)));
        assert_eq!(Deadline::earliest(Some(never), Some(finite)), Some(finite));
        assert_eq!(Deadline::earliest(Some(finite), Some(never)), Some(finite));
    }

    #[test]
    fn guards_nest() {
        let fired = CancelToken::new();
        fired.cancel();
        let r = guarded(None, Some(fired), || {
            // An inner guard replaces the outer controls while it runs...
            assert_eq!(guarded(None, None, checkpoint), Ok(()));
            // ...and keeps its own abort from reaching the outer one.
            let expired = Some(Deadline::after(Duration::ZERO));
            assert_eq!(guarded(expired, None, checkpoint), Err(QueryAbort::DeadlineExceeded));
            // The outer controls are back once it returns.
            checkpoint();
            unreachable!("the outer token fired");
        });
        assert_eq!(r, Err(QueryAbort::Cancelled));
        // Any other panic keeps unwinding, and still restores the controls.
        let expired = Some(Deadline::after(Duration::ZERO));
        let panicked = std::panic::catch_unwind(|| {
            guarded(expired, None, || std::panic::panic_any(InjectedPanic("not an abort")))
        });
        let payload = panicked.expect_err("a non-abort panic is not converted");
        assert!(payload.downcast_ref::<InjectedPanic>().is_some());
        checkpoint(); // controls uninstalled again
    }

    #[test]
    fn fault_plan_is_deterministic_and_banded() {
        let plan = FaultPlan::seeded(7).fail_transient(0.25).fail_hard(0.25).corrupt(0.25);
        let a: Vec<_> = (0..256).map(|s| plan.decide(s)).collect();
        let b: Vec<_> = (0..256).map(|s| plan.decide(s)).collect();
        assert_eq!(a, b, "decisions are a pure function of (seed, seq)");
        let faults = a.iter().filter(|d| **d != Injected::None).count();
        assert!(faults > 128, "three 25% bands should fault most operations, got {faults}/256");
        let none = FaultPlan::seeded(7);
        assert!((0..256).all(|s| none.decide(s) == Injected::None));
    }

    #[test]
    fn armed_plan_scopes_to_its_factors_on_every_thread() {
        let config = crate::SpillConfig { chunk_rows: 1, window_chunks: 1, ..Default::default() };
        let rows: Vec<(Vec<u32>, u64)> = (0..4u32).map(|i| (vec![i], 1)).collect();
        let mem = Factor::new(vec![faq_hypergraph::Var(0)], rows).unwrap();
        let (a, b) = (mem.to_spilled(config.clone()), mem.to_spilled(config));
        // A key read pins the level chunk holding row `i`; a failed read
        // caches nothing, so every read below faults it in afresh.
        let read = |f: &Factor<u64>, i: usize| guarded(None, None, || f.col(i, 0));
        let guard = FaultPlan::seeded(3).fail_hard(1.0).arm([&a]);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(matches!(read(&a, 0), Err(QueryAbort::Storage(_))), "A is armed");
                assert_eq!(read(&b, 0), Ok(0), "B is not");
            });
        });
        assert!(matches!(read(&a.clone(), 1), Err(QueryAbort::Storage(_))), "clones share it");
        drop(guard);
        assert_eq!(read(&a, 2), Ok(2), "the dropped guard disarmed A");
    }
}
