//! File-chunked out-of-core column storage — the disk backing behind
//! spilled factors and spilled trie levels.
//!
//! A [`crate::Factor`] normally keeps its listing (`rows` + `vals`) and its
//! trie index in memory. This module adds a second place for the same bytes,
//! built on `std::fs` only: fixed-size chunks inside unlinked-on-drop spill
//! files, of which at most a small *pinned window* is resident at a time.
//! Nothing above this module has a spilled variant of its algorithm — an
//! in-memory listing is the case of one chunk that is always resident.
//!
//! * [`FileChunkedColumns`] — the listing: row-major keys plus fixed-width
//!   encoded values ([`FixedBytes`]), chunked by row count. Chunk metadata
//!   (first/last tuple, row count, file offset) stays resident, so range
//!   queries, chunk-aligned partitioning and delta splices know which chunks
//!   to fault without reading any of them.
//! * [`FileChunkedLevel`] — one trie level (`values`/`child`/`rows` arrays)
//!   in uniform entry chunks, with the head-sample array (`values[64k]`) kept
//!   resident so a cold seek narrows to one 64-entry stride — at most one
//!   chunk fault — before touching the file (see [`crate::storage`] for the
//!   seek contract it must match bit for bit).
//! * [`FactorLevel`] — the type every [`crate::trie::FactorTrie`] level is
//!   stored in: heap ([`crate::storage::VecStorage`]) or disk, chosen per
//!   factor, with every consumer compiling against the same type.
//!
//! Writes are strictly sequential, one chunk of buffering each:
//! [`SpillWriter`] (driven by [`crate::FactorBuilder`] in spill mode) appends
//! encoded listing chunks, and the trie builder's disk sink (`LevelSpill`)
//! appends level chunks as the index of a spilled listing streams through
//! it; neither seeks backwards, and both record a checksum per chunk through
//! the one `append_chunk`. Reads — of either kind of chunk — go through one
//! `ChunkWindow`: a deadline checkpoint, then the LRU
//! ([`SpillConfig::window_chunks`]), then one verified, retried, injectable
//! read and a decode. Every pinned chunk is accounted in a process-global
//! gauge ([`pinned_bytes`] / [`peak_pinned_bytes`]) that
//! `tests/out_of_core.rs` asserts against its resident cap.
//!
//! Spill files live in a per-factor temporary directory that is removed when
//! the last handle drops (`SpillDir`), so cloned factors and snapshots
//! share the cold data by reference and nothing is copied on epoch publish.

use crate::fault::{self, Injected, QueryAbort, StorageError};
use crate::storage::{block_lub, LevelStorage, VecStorage, HEAD_STRIDE};
use crate::trie::partition_runs;
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Retry budget of one logical chunk operation: the initial attempt plus two
/// retries, with a short growing backoff between attempts.
const MAX_IO_ATTEMPTS: u32 = 3;

fn retry_backoff(attempt: u32) {
    std::thread::sleep(std::time::Duration::from_micros(50 * u64::from(attempt)));
}

/// FNV-1a 64-bit over a chunk's encoded bytes — the per-chunk checksum
/// recorded at write time and verified on every fault-in.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Convert a typed storage failure into a raised [`QueryAbort`] at the
/// infallible accessor boundary (see [`crate::fault`] for the transport).
fn ok_or_raise<T>(r: Result<T, StorageError>) -> T {
    match r {
        Ok(t) => t,
        Err(e) => fault::raise(QueryAbort::Storage(e)),
    }
}

// ---------------------------------------------------------------------------
// Pinned-chunk gauges
// ---------------------------------------------------------------------------

static PINNED_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_PINNED: AtomicUsize = AtomicUsize::new(0);
static CHUNK_READS: AtomicU64 = AtomicU64::new(0);

fn track_pin(bytes: usize) {
    let now = PINNED_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_PINNED.fetch_max(now, Ordering::Relaxed);
}

fn untrack_pin(bytes: usize) {
    PINNED_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

/// Bytes of spilled chunks currently pinned in memory, process-wide.
pub fn pinned_bytes() -> usize {
    PINNED_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of [`pinned_bytes`] since the last
/// [`reset_peak_pinned_bytes`].
pub fn peak_pinned_bytes() -> usize {
    PEAK_PINNED.load(Ordering::Relaxed)
}

/// Reset the [`peak_pinned_bytes`] high-water mark to the current level.
pub fn reset_peak_pinned_bytes() {
    PEAK_PINNED.store(PINNED_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Chunks faulted in from spill files since process start, process-wide.
pub fn chunk_reads() -> u64 {
    CHUNK_READS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Fixed-width value codec
// ---------------------------------------------------------------------------

/// Fixed-width byte codec for semiring carriers that can be spilled to disk.
///
/// Spilled chunks store one value per row at a fixed [`FixedBytes::WIDTH`],
/// so chunk offsets are arithmetic and reads never parse. Implemented for the
/// plain-data carriers of the stock domains (`u32`, `u64`, `i64`, `f64`,
/// `bool`, `u8`); variable-size carriers (sets, polynomials) cannot spill.
pub trait FixedBytes: Sized {
    /// Encoded size in bytes of every value.
    const WIDTH: usize;
    /// Append exactly [`FixedBytes::WIDTH`] bytes encoding `self`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode a value from exactly [`FixedBytes::WIDTH`] bytes.
    fn decode(bytes: &[u8]) -> Self;
}

macro_rules! fixed_bytes_int {
    ($($t:ty),*) => {$(
        impl FixedBytes for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("fixed width"))
            }
        }
    )*};
}
fixed_bytes_int!(u8, u32, u64, i64);

impl FixedBytes for f64 {
    const WIDTH: usize = 8;
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(bytes: &[u8]) -> Self {
        f64::from_bits(u64::from_le_bytes(bytes.try_into().expect("fixed width")))
    }
}

impl FixedBytes for bool {
    const WIDTH: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(bytes: &[u8]) -> Self {
        bytes[0] != 0
    }
}

fn decode_fn<E: FixedBytes>(bytes: &[u8]) -> E {
    E::decode(bytes)
}

fn encode_fn<E: FixedBytes>(e: &E, out: &mut Vec<u8>) {
    e.encode(out)
}

// ---------------------------------------------------------------------------
// Spill directories and files
// ---------------------------------------------------------------------------

/// Tuning knobs of the file-chunked backing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillConfig {
    /// Directory to create the spill directory under; the OS temp dir when
    /// `None`.
    pub dir: Option<PathBuf>,
    /// Rows per listing chunk ([`FileChunkedColumns`]).
    pub chunk_rows: usize,
    /// Entries per trie-level chunk ([`FileChunkedLevel`]); rounded up to a
    /// multiple of the head-sample stride (64) so a cold seek's narrowed
    /// window never straddles a chunk boundary.
    pub level_chunk_entries: usize,
    /// Maximum chunks pinned per column / per level (the LRU window).
    pub window_chunks: usize,
}

impl Default for SpillConfig {
    fn default() -> SpillConfig {
        SpillConfig { dir: None, chunk_rows: 4096, level_chunk_entries: 4096, window_chunks: 8 }
    }
}

impl SpillConfig {
    fn level_entries(&self) -> usize {
        self.level_chunk_entries.max(1).div_ceil(HEAD_STRIDE) * HEAD_STRIDE
    }
}

/// A uniquely-named spill directory, removed (with everything in it) when the
/// last [`Arc`] handle drops — factors, their tries and their clones share
/// one.
#[derive(Debug)]
pub(crate) struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    fn create(under: Option<&PathBuf>) -> Result<Arc<SpillDir>, StorageError> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let base = under.cloned().unwrap_or_else(std::env::temp_dir);
        let path = base.join(format!("faq-spill-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| StorageError::io("create spill directory", &path, &e, 1))?;
        Ok(Arc::new(SpillDir { path }))
    }

    fn new_file(&self, name: &str) -> Result<Arc<SpillFile>, StorageError> {
        let path = self.path.join(name);
        let file = File::options()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| StorageError::io("create spill file", &path, &e, 1))?;
        Ok(Arc::new(SpillFile { file: Mutex::new(file), path }))
    }

    /// The directory path (tests assert cleanup-on-drop against it).
    #[cfg(test)]
    pub(crate) fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Sweep spill directories orphaned by crashed processes.
///
/// Scans `under` (the OS temp dir when `None`) for `faq-spill-<pid>-<n>`
/// directories whose owning pid is neither this process nor a live one, and
/// removes them. Liveness is probed via `/proc/<pid>` on Linux; elsewhere
/// foreign pids are conservatively assumed alive and left alone. Returns the
/// number of directories removed; I/O failures skip the entry (a stale dir
/// is retried at the next sweep, and nothing here may panic).
pub fn gc_stale_spill_dirs(under: Option<&Path>) -> usize {
    let base = under.map(Path::to_path_buf).unwrap_or_else(std::env::temp_dir);
    let Ok(entries) = std::fs::read_dir(&base) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(rest) = name.to_string_lossy().strip_prefix("faq-spill-").map(str::to_owned)
        else {
            continue;
        };
        let Some((pid, _n)) = rest.split_once('-') else {
            continue;
        };
        let Ok(pid) = pid.parse::<u32>() else {
            continue;
        };
        if pid == std::process::id() || process_alive(pid) {
            continue;
        }
        if std::fs::remove_dir_all(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

#[cfg(target_os = "linux")]
fn process_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

#[cfg(not(target_os = "linux"))]
fn process_alive(_pid: u32) -> bool {
    // No portable liveness probe without extra dependencies: assume alive,
    // never delete another process's data.
    true
}

/// One spill file. All access serializes on the file handle itself, so
/// factor clones sharing chunks across caches never interleave seek/read
/// pairs.
#[derive(Debug)]
pub(crate) struct SpillFile {
    file: Mutex<File>,
    path: PathBuf,
}

impl SpillFile {
    /// One read attempt. Lock poisoning is survivable: the guarded `File` is
    /// repositioned by every operation, so a panic mid-operation leaves no
    /// state a later seek+read would trust.
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), std::io::Error> {
        let mut f = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }

    fn append_once(&self, offset: u64, bytes: &[u8]) -> Result<(), std::io::Error> {
        let mut f = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(bytes)
    }

    /// Append with injection, bounded retry and backoff — one logical chunk
    /// write.
    fn append(&self, offset: u64, bytes: &[u8]) -> Result<(), StorageError> {
        let injected = fault::chunk_op_fault();
        if let Injected::Delay(us) = injected {
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
        let mut attempt = 0;
        loop {
            attempt += 1;
            let r = match injected {
                Injected::FailHard => Err(injected_io_error()),
                Injected::FailTransient if attempt == 1 => Err(injected_io_error()),
                _ => self.append_once(offset, bytes),
            };
            match r {
                Ok(()) => return Ok(()),
                Err(_) if attempt < MAX_IO_ATTEMPTS => {
                    fault::note_io_retry();
                    retry_backoff(attempt);
                }
                Err(e) => {
                    return Err(StorageError::io("append chunk", &self.path, &e, attempt));
                }
            }
        }
    }
}

fn injected_io_error() -> std::io::Error {
    std::io::Error::other("injected chunk I/O fault")
}

/// One logical chunk read: the injection decision is drawn once, then up to
/// [`MAX_IO_ATTEMPTS`] seek+read+verify attempts run with backoff. A read
/// that keeps failing its checksum after every retry is reported corrupt —
/// re-reading distinguishes a transient torn read from rotten bytes at rest.
fn read_chunk_verified(
    file: &SpillFile,
    offset: u64,
    buf: &mut [u8],
    chunk: usize,
    expected: u64,
) -> Result<(), StorageError> {
    let injected = fault::chunk_op_fault();
    if let Injected::Delay(us) = injected {
        std::thread::sleep(std::time::Duration::from_micros(us));
    }
    let mut attempt = 0;
    loop {
        attempt += 1;
        let r = match injected {
            Injected::FailHard => Err(injected_io_error()),
            Injected::FailTransient if attempt == 1 => Err(injected_io_error()),
            _ => file.read_exact_at(offset, buf),
        };
        match r {
            Ok(()) => {
                if injected == Injected::Corrupt && !buf.is_empty() {
                    buf[0] ^= 0xA5;
                }
                let actual = fnv1a64(buf);
                if actual == expected {
                    return Ok(());
                }
                if attempt < MAX_IO_ATTEMPTS {
                    fault::note_io_retry();
                    retry_backoff(attempt);
                    continue;
                }
                fault::note_corrupt_chunk();
                return Err(StorageError::Corrupt {
                    path: file.path.display().to_string(),
                    chunk,
                    expected,
                    actual,
                });
            }
            Err(_) if attempt < MAX_IO_ATTEMPTS => {
                fault::note_io_retry();
                retry_backoff(attempt);
            }
            Err(e) => return Err(StorageError::io("read chunk", &file.path, &e, attempt)),
        }
    }
}

// ---------------------------------------------------------------------------
// The pinned window
// ---------------------------------------------------------------------------

/// A tiny LRU over chunk index → pinned chunk. The window is small (a
/// handful of chunks), so eviction is a linear min-tick scan.
#[derive(Debug)]
struct Lru<T> {
    map: HashMap<usize, (u64, Arc<T>)>,
    tick: u64,
    cap: usize,
}

impl<T> Lru<T> {
    fn get(&mut self, k: usize) -> Option<Arc<T>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&k).map(|e| {
            e.0 = tick;
            Arc::clone(&e.1)
        })
    }

    fn insert(&mut self, k: usize, v: Arc<T>) {
        self.tick += 1;
        self.map.insert(k, (self.tick, v));
        while self.map.len() > self.cap {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(&k, _)| k)
                .expect("non-empty map");
            self.map.remove(&oldest);
        }
    }
}

/// One faulted chunk — decoded listing rows or trie-level entries —
/// gauge-accounted for as long as anything holds it.
#[derive(Debug)]
struct Pinned<T> {
    data: T,
    bytes: usize,
}

impl<T> std::ops::Deref for Pinned<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.data
    }
}

impl<T> Drop for Pinned<T> {
    fn drop(&mut self) {
        untrack_pin(self.bytes);
    }
}

/// Where one chunk's encoded bytes live: the file, the byte range and the
/// checksum recorded when they were written.
struct ChunkAt<'a> {
    file: &'a SpillFile,
    offset: u64,
    bytes: usize,
    checksum: u64,
}

/// The bounded pinned window of one spilled listing or trie level: at most
/// [`SpillConfig::window_chunks`] decoded chunks stay resident, least
/// recently used evicted first. The only place a chunk is faulted in.
#[derive(Debug)]
struct ChunkWindow<T> {
    cache: Mutex<Lru<Pinned<T>>>,
    /// Chunks faulted in through this window over its lifetime.
    reads: AtomicU64,
}

impl<T> ChunkWindow<T> {
    fn new(cap: usize) -> ChunkWindow<T> {
        let lru = Lru { map: HashMap::new(), tick: 0, cap: cap.max(1) };
        ChunkWindow { cache: Mutex::new(lru), reads: AtomicU64::new(0) }
    }

    /// Chunk `k`, from the window or faulted in from `at` and decoded — or
    /// a typed storage error: one logical read with injection, checksum
    /// verification, bounded retry and a deadline checkpoint (a chunk fault
    /// is the natural cancellation point of an out-of-core scan).
    fn try_pin(
        &self,
        k: usize,
        at: ChunkAt<'_>,
        decode: impl FnOnce(&[u8]) -> T,
    ) -> Result<Arc<Pinned<T>>, StorageError> {
        fault::checkpoint();
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(c) = cache.get(k) {
            return Ok(c);
        }
        let mut buf = vec![0u8; at.bytes];
        read_chunk_verified(at.file, at.offset, &mut buf, k, at.checksum)?;
        let data = decode(&buf);
        track_pin(at.bytes);
        let chunk = Arc::new(Pinned { data, bytes: at.bytes });
        self.reads.fetch_add(1, Ordering::Relaxed);
        CHUNK_READS.fetch_add(1, Ordering::Relaxed);
        cache.insert(k, Arc::clone(&chunk));
        Ok(chunk)
    }

    /// [`ChunkWindow::try_pin`] at the infallible accessor boundary.
    fn pin(&self, k: usize, at: ChunkAt<'_>, decode: impl FnOnce(&[u8]) -> T) -> Arc<Pinned<T>> {
        ok_or_raise(self.try_pin(k, at, decode))
    }

    /// Encoded bytes of the chunks currently pinned.
    fn resident_bytes(&self) -> usize {
        let cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        cache.map.values().map(|(_, c)| c.bytes).sum()
    }
}

/// Append one encoded chunk at `*offset`, advance the offset past it and
/// return the checksum to verify it against on every fault-in.
fn append_chunk(file: &SpillFile, offset: &mut u64, bytes: &[u8]) -> Result<u64, StorageError> {
    file.append(*offset, bytes)?;
    *offset += bytes.len() as u64;
    Ok(fnv1a64(bytes))
}

fn le_u32s(bytes: &[u8]) -> Vec<u32> {
    bytes.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes"))).collect()
}

fn le_offsets(bytes: &[u8]) -> Vec<usize> {
    bytes
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")) as usize)
        .collect()
}

// ---------------------------------------------------------------------------
// FileChunkedColumns: the spilled listing
// ---------------------------------------------------------------------------

/// Resident metadata of one listing chunk. The first/last tuples let range
/// and splice logic decide which chunks a key touches without faulting any;
/// each chunk carries its own file handle so a delta splice can mix original
/// chunks with freshly written ones.
#[derive(Debug, Clone)]
pub(crate) struct ChunkMeta {
    file: Arc<SpillFile>,
    offset: u64,
    rows: usize,
    first_row: Vec<u32>,
    last_row: Vec<u32>,
    /// FNV-1a over the chunk's encoded bytes, verified on every fault-in.
    checksum: u64,
}

/// One decoded listing chunk: row-major keys and one value per row.
#[derive(Debug)]
struct DataChunk<E> {
    rows: Vec<u32>,
    vals: Vec<E>,
}

/// Read-side statistics of one spilled listing (see
/// [`crate::Factor::spill_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct SpillStats {
    /// Number of listing chunks on disk.
    pub chunks: usize,
    /// Chunks faulted in from disk over this listing's lifetime (shared by
    /// clones).
    pub reads: u64,
    /// Bytes of this listing's chunks currently pinned.
    pub resident_bytes: usize,
    /// Total encoded bytes on disk.
    pub file_bytes: usize,
}

struct ColsInner<E> {
    arity: usize,
    len: usize,
    width: usize,
    decode: fn(&[u8]) -> E,
    /// Captured at construction (where `E: FixedBytes` is known), so splices
    /// can write new chunks without re-stating the bound.
    encode: fn(&E, &mut Vec<u8>),
    chunks: Vec<ChunkMeta>,
    /// `row_starts[k]` = first listing row of chunk `k`; one end sentinel.
    row_starts: Vec<usize>,
    /// Per-column maximum key value (resident, so domain validation never
    /// faults a chunk). An upper bound after delta splices with deletions.
    col_maxes: Vec<u32>,
    config: SpillConfig,
    dir: Arc<SpillDir>,
    window: ChunkWindow<DataChunk<E>>,
}

impl<E> std::fmt::Debug for ColsInner<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileChunkedColumns")
            .field("arity", &self.arity)
            .field("len", &self.len)
            .field("chunks", &self.chunks.len())
            .finish()
    }
}

/// A factor listing spilled to disk in row chunks, with a bounded pinned
/// window. Cloning is an `Arc` bump: clones (and epoch snapshots holding
/// them) share the chunks, the cache and the spill directory.
pub struct FileChunkedColumns<E> {
    inner: Arc<ColsInner<E>>,
}

impl<E> Clone for FileChunkedColumns<E> {
    fn clone(&self) -> Self {
        FileChunkedColumns { inner: Arc::clone(&self.inner) }
    }
}

impl<E> std::fmt::Debug for FileChunkedColumns<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl<E> FileChunkedColumns<E> {
    pub(crate) fn len(&self) -> usize {
        self.inner.len
    }

    pub(crate) fn col_max(&self, d: usize) -> Option<u32> {
        (self.inner.len > 0).then(|| self.inner.col_maxes[d])
    }

    #[cfg(test)]
    pub(crate) fn spill_dir(&self) -> &Arc<SpillDir> {
        &self.inner.dir
    }

    pub(crate) fn stats(&self) -> SpillStats {
        let i = &self.inner;
        SpillStats {
            chunks: i.chunks.len(),
            reads: i.window.reads.load(Ordering::Relaxed),
            resident_bytes: i.window.resident_bytes(),
            file_bytes: i.len * (i.arity * 4 + i.width),
        }
    }

    fn chunk_of(&self, i: usize) -> usize {
        debug_assert!(i < self.inner.len);
        self.inner.row_starts.partition_point(|&s| s <= i) - 1
    }

    /// Listing chunk `k` through the pinned window: keys first, then the
    /// fixed-width values.
    fn pin(&self, k: usize) -> Arc<Pinned<DataChunk<E>>> {
        let inner = &self.inner;
        let meta = &inner.chunks[k];
        let row_bytes = meta.rows * inner.arity * 4;
        let at = ChunkAt {
            file: &meta.file,
            offset: meta.offset,
            bytes: row_bytes + meta.rows * inner.width,
            checksum: meta.checksum,
        };
        inner.window.pin(k, at, |buf| DataChunk {
            rows: le_u32s(&buf[..row_bytes]),
            vals: buf[row_bytes..].chunks_exact(inner.width.max(1)).map(inner.decode).collect(),
        })
    }

    /// Key value of row `i`, column `d`.
    pub(crate) fn col(&self, i: usize, d: usize) -> u32 {
        let k = self.chunk_of(i);
        let chunk = self.pin(k);
        let local = i - self.inner.row_starts[k];
        chunk.rows[local * self.inner.arity + d]
    }

    /// Run `f` over chunk `k`'s decoded rows and values; `start` is the
    /// chunk's first listing row.
    pub(crate) fn with_chunk<R>(&self, k: usize, f: impl FnOnce(usize, &[u32], &[E]) -> R) -> R {
        let chunk = self.pin(k);
        f(self.inner.row_starts[k], &chunk.rows, &chunk.vals)
    }

    pub(crate) fn num_chunks(&self) -> usize {
        self.inner.chunks.len()
    }

    pub(crate) fn chunk_first_row(&self, k: usize) -> &[u32] {
        &self.inner.chunks[k].first_row
    }

    pub(crate) fn chunk_last_row(&self, k: usize) -> &[u32] {
        &self.inner.chunks[k].last_row
    }
}

impl<E: Clone> FileChunkedColumns<E> {
    /// Owned copy of row `i`'s value.
    pub(crate) fn value_owned(&self, i: usize) -> E {
        self.with_value(i, E::clone)
    }
}

impl<E> FileChunkedColumns<E> {
    /// Run `f` over row `i`'s value without cloning it out of the chunk.
    fn with_value<R>(&self, i: usize, f: impl FnOnce(&E) -> R) -> R {
        let k = self.chunk_of(i);
        let chunk = self.pin(k);
        f(&chunk.vals[i - self.inner.row_starts[k]])
    }
}

impl<E: PartialEq> FileChunkedColumns<E> {
    /// Entry-wise comparison against an in-memory listing.
    pub(crate) fn eq_mem(&self, rows: &[u32], vals: &[E]) -> bool {
        if vals.len() != self.inner.len {
            return false;
        }
        for k in 0..self.num_chunks() {
            let equal = self.with_chunk(k, |start, crows, cvals| {
                let a = self.inner.arity;
                crows == &rows[start * a..start * a + crows.len()]
                    && cvals == &vals[start..start + cvals.len()]
            });
            if !equal {
                return false;
            }
        }
        true
    }

    /// Entry-wise comparison against another spilled listing (chunk grids
    /// may differ).
    pub(crate) fn eq_spill(&self, other: &FileChunkedColumns<E>) -> bool {
        if self.inner.len != other.inner.len || self.inner.arity != other.inner.arity {
            return false;
        }
        let a = self.inner.arity;
        for k in 0..self.num_chunks() {
            let equal = self.with_chunk(k, |start, crows, cvals| {
                (0..cvals.len()).all(|j| {
                    let i = start + j;
                    (0..a).all(|d| other.col(i, d) == crows[j * a + d])
                        && other.with_value(i, |v| *v == cvals[j])
                })
            });
            if !equal {
                return false;
            }
        }
        true
    }
}

impl<E> FileChunkedColumns<E> {
    /// Partition the first column into at most `max_chunks` half-open value
    /// ranges whose cuts fall on *chunk boundaries* — same contract as
    /// [`crate::Factor::column_partition`] (ascending, covering
    /// `[0, u32::MAX)`, never splitting a value), chosen so each worker of a
    /// chunked join pins only its own range's chunks. Computed entirely from
    /// resident metadata: no chunk is faulted.
    pub(crate) fn partition_first(&self, max_chunks: usize) -> Vec<(u32, u32)> {
        let chunks = &self.inner.chunks;
        // A cut at a chunk's first value is legal only when the value run
        // does not extend back into the previous chunk.
        let runs = chunks.iter().enumerate().map(|(k, meta)| {
            let first = meta.first_row[0];
            (first, meta.rows, k > 0 && chunks[k - 1].last_row[0] < first)
        });
        partition_runs(self.inner.len, max_chunks, runs)
    }

    /// One disk sink per column for this listing's trie index: fed the
    /// listing's chunks in order, each level's arrays stream straight back
    /// out in level chunks beside the listing — peak residency is the pinned
    /// window plus one level chunk of buffering per column.
    pub(crate) fn level_sinks(&self) -> Vec<LevelSpill> {
        static LEVEL_N: AtomicU64 = AtomicU64::new(0);
        let inner = &self.inner;
        let n = LEVEL_N.fetch_add(1, Ordering::Relaxed);
        (0..inner.arity)
            .map(|d| LevelSpill {
                file: ok_or_raise(inner.dir.new_file(&format!("trie-{n}-l{d}.bin"))),
                dir: Arc::clone(&inner.dir),
                entries: inner.config.level_entries(),
                window_chunks: inner.config.window_chunks,
                offset: 0,
                buf_values: Vec::new(),
                buf_child: Vec::new(),
                buf_rows: Vec::new(),
                total: 0,
                heads: Vec::new(),
                checksums: Vec::new(),
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// SpillWriter: strictly-sequential chunk writing
// ---------------------------------------------------------------------------

/// Strictly-sequential writer of a [`FileChunkedColumns`]: rows arrive in
/// ascending order, buffer one chunk at a time, and flush as encoded bytes
/// appended to the spill file. A delta splice also passes the untouched
/// chunks of an existing spilled listing through by reference — no read, no
/// copy.
pub struct SpillWriter<E> {
    dir: Arc<SpillDir>,
    file: Arc<SpillFile>,
    offset: u64,
    arity: usize,
    width: usize,
    decode: fn(&[u8]) -> E,
    encode: fn(&E, &mut Vec<u8>),
    config: SpillConfig,
    buf_rows: Vec<u32>,
    buf_vals: Vec<E>,
    chunks: Vec<ChunkMeta>,
    row_starts: Vec<usize>,
    len: usize,
    col_maxes: Vec<u32>,
}

static FILE_N: AtomicU64 = AtomicU64::new(0);

impl<E: FixedBytes> SpillWriter<E> {
    /// A writer over a fresh spill directory.
    ///
    /// Raises a [`QueryAbort::Storage`] (caught at the evaluation boundary)
    /// if the directory or file cannot be created.
    pub fn new(arity: usize, config: SpillConfig) -> SpillWriter<E> {
        let dir = ok_or_raise(SpillDir::create(config.dir.as_ref()));
        SpillWriter::in_dir(dir, arity, E::WIDTH, decode_fn::<E>, encode_fn::<E>, config)
    }
}

impl<E> SpillWriter<E> {
    /// A writer producing a sibling listing of `base`: same spill directory,
    /// codec and configuration, writing to a fresh file. The splice engine of
    /// delta application — no `FixedBytes` bound, the codec was captured when
    /// `base` was built.
    pub(crate) fn new_like(base: &FileChunkedColumns<E>) -> SpillWriter<E> {
        let b = &base.inner;
        let dir = Arc::clone(&b.dir);
        SpillWriter::in_dir(dir, b.arity, b.width, b.decode, b.encode, b.config.clone())
    }

    fn in_dir(
        dir: Arc<SpillDir>,
        arity: usize,
        width: usize,
        decode: fn(&[u8]) -> E,
        encode: fn(&E, &mut Vec<u8>),
        config: SpillConfig,
    ) -> SpillWriter<E> {
        let file = ok_or_raise(
            dir.new_file(&format!("cols-{}.bin", FILE_N.fetch_add(1, Ordering::Relaxed))),
        );
        SpillWriter {
            dir,
            file,
            offset: 0,
            arity,
            width,
            decode,
            encode,
            config,
            buf_rows: Vec::new(),
            buf_vals: Vec::new(),
            chunks: Vec::new(),
            row_starts: vec![0],
            len: 0,
            col_maxes: vec![0; arity],
        }
    }

    /// Rows written so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no row has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn last_row(&self) -> Option<Vec<u32>> {
        let n = self.buf_vals.len();
        if n > 0 {
            Some(self.buf_rows[(n - 1) * self.arity..].to_vec())
        } else {
            self.chunks.last().map(|c| c.last_row.clone())
        }
    }

    /// Append the next row (strictly ascending; debug-asserted by the
    /// builder driving this writer). A failed chunk write (after retries)
    /// raises a [`QueryAbort::Storage`] caught at the evaluation boundary.
    pub fn push(&mut self, row: &[u32], val: E) {
        debug_assert_eq!(row.len(), self.arity);
        for (m, &v) in self.col_maxes.iter_mut().zip(row) {
            *m = (*m).max(v);
        }
        self.buf_rows.extend_from_slice(row);
        self.buf_vals.push(val);
        self.len += 1;
        if self.buf_vals.len() >= self.config.chunk_rows.max(1) {
            ok_or_raise(self.flush());
        }
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        let n = self.buf_vals.len();
        if n == 0 {
            return Ok(());
        }
        let mut bytes = Vec::with_capacity(n * (self.arity * 4 + self.width));
        for &k in &self.buf_rows {
            bytes.extend_from_slice(&k.to_le_bytes());
        }
        for v in &self.buf_vals {
            (self.encode)(v, &mut bytes);
        }
        let offset = self.offset;
        let checksum = append_chunk(&self.file, &mut self.offset, &bytes)?;
        self.chunks.push(ChunkMeta {
            file: Arc::clone(&self.file),
            offset,
            rows: n,
            first_row: self.buf_rows[..self.arity].to_vec(),
            last_row: self.buf_rows[(n - 1) * self.arity..].to_vec(),
            checksum,
        });
        self.row_starts.push(self.len);
        self.buf_rows.clear();
        self.buf_vals.clear();
        Ok(())
    }

    /// Adopt untouched chunk `k` of `base` by reference: its rows slot in
    /// after everything written so far without any I/O. Pending buffered
    /// rows are flushed first (chunk row counts may vary). An adopted chunk
    /// only reveals its first/last tuples, so the per-column maxima take
    /// `base`'s wholesale — an upper bound after deletions (see
    /// [`crate::Factor::max_in_column`]).
    pub(crate) fn adopt_chunk(&mut self, base: &FileChunkedColumns<E>, k: usize) {
        ok_or_raise(self.flush());
        for (m, &v) in self.col_maxes.iter_mut().zip(&base.inner.col_maxes) {
            *m = (*m).max(v);
        }
        let meta = &base.inner.chunks[k];
        self.len += meta.rows;
        self.row_starts.push(self.len);
        self.chunks.push(meta.clone());
    }

    /// Seal the listing.
    pub(crate) fn finish_cols(mut self) -> FileChunkedColumns<E> {
        ok_or_raise(self.flush());
        let window = ChunkWindow::new(self.config.window_chunks);
        FileChunkedColumns {
            inner: Arc::new(ColsInner {
                arity: self.arity,
                len: self.len,
                width: self.width,
                decode: self.decode,
                encode: self.encode,
                chunks: self.chunks,
                row_starts: self.row_starts,
                col_maxes: self.col_maxes,
                config: self.config,
                dir: self.dir,
                window,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// FileChunkedLevel: spilled trie levels
// ---------------------------------------------------------------------------

/// One decoded trie-level chunk: the three parallel entry arrays.
#[derive(Debug)]
struct LevelChunk {
    values: Vec<u32>,
    child: Vec<usize>,
    rows: Vec<usize>,
}

#[derive(Debug)]
struct LevelInner {
    len: usize,
    /// Entries per full chunk; a multiple of the head-sample stride, so the
    /// narrowed window of a cold seek never spans two chunks.
    entries: usize,
    file: Arc<SpillFile>,
    #[allow(dead_code)] // held to keep the spill directory alive
    dir: Arc<SpillDir>,
    /// Resident head samples: `heads[k] = values[HEAD_STRIDE * k]`.
    heads: Vec<u32>,
    /// Resident end sentinels (`child[len]` / `rows[len]` are never on disk).
    child_end: usize,
    rows_end: usize,
    /// Per-chunk checksums, verified on fault-in.
    checksums: Vec<u64>,
    window: ChunkWindow<LevelChunk>,
}

/// A trie level spilled to disk in uniform entry chunks, with the
/// head-sample array resident. Implements the same windowed-lub contract as
/// [`crate::storage::VecStorage`] (identical results for every window, hint
/// and bound — the join layer's seek accounting can not tell them apart);
/// a cold seek narrows on the resident heads and faults at most one chunk.
#[derive(Clone, Debug)]
pub struct FileChunkedLevel {
    inner: Arc<LevelInner>,
}

/// On-disk entry width: `values` u32 + `child` u64 + `rows` u64.
const LEVEL_ENTRY_BYTES: usize = 4 + 8 + 8;

impl FileChunkedLevel {
    /// Run `f` over the level chunk holding entry `j` and `j`'s index in it
    /// — same injection/retry/checksum/deadline discipline as the listing
    /// path, through the same [`ChunkWindow`].
    fn with_entry<R>(&self, j: usize, f: impl FnOnce(&LevelChunk, usize) -> R) -> R {
        let inner = &self.inner;
        let k = j / inner.entries;
        let start = k * inner.entries;
        let n = inner.entries.min(inner.len - start);
        let at = ChunkAt {
            file: &inner.file,
            offset: (start * LEVEL_ENTRY_BYTES) as u64,
            bytes: n * LEVEL_ENTRY_BYTES,
            checksum: inner.checksums[k],
        };
        let chunk = inner.window.pin(k, at, |buf| {
            let (vb, rest) = buf.split_at(n * 4);
            let (cb, rb) = rest.split_at(n * 8);
            LevelChunk { values: le_u32s(vb), child: le_offsets(cb), rows: le_offsets(rb) }
        });
        f(&chunk, j - start)
    }

    fn len(&self) -> usize {
        self.inner.len
    }

    /// The resident head samples plus the level chunks currently pinned.
    fn resident_bytes(&self) -> usize {
        self.inner.heads.len() * 4 + self.inner.window.resident_bytes()
    }

    fn value(&self, j: usize) -> u32 {
        // Head-aligned entries are resident; everything else is one chunk.
        if j.is_multiple_of(HEAD_STRIDE) {
            return self.inner.heads[j / HEAD_STRIDE];
        }
        self.with_entry(j, |c, l| c.values[l])
    }

    fn child_at(&self, j: usize) -> usize {
        if j == self.inner.len {
            return self.inner.child_end;
        }
        self.with_entry(j, |c, l| c.child[l])
    }

    fn row_at(&self, j: usize) -> usize {
        if j == self.inner.len {
            return self.inner.rows_end;
        }
        self.with_entry(j, |c, l| c.rows[l])
    }

    fn lub_from(&self, (lo, hi): (usize, usize), _hint: usize, bound: u32) -> usize {
        if lo >= hi {
            return hi;
        }
        // Narrow on the resident head samples exactly like the heap kernel;
        // the surviving window spans at most one 64-entry stride, which lies
        // inside one chunk (chunk sizes are multiples of the stride) — the
        // stride-aligned probe at its upper edge is resident.
        let ks = lo.div_ceil(HEAD_STRIDE);
        let ke = hi.div_ceil(HEAD_STRIDE);
        let (mut nlo, mut nhi) = (lo, hi);
        if ks < ke {
            let p = block_lub(&self.inner.heads, ks, ke, bound);
            nlo = if p > ks { HEAD_STRIDE * (p - 1) + 1 } else { lo };
            nhi = if p < ke { (HEAD_STRIDE * p + 1).min(hi) } else { hi };
        }
        // partition_point over [nlo, nhi) by probing — the hint is ignored
        // (it only ever affects speed, never the result).
        let (mut l, mut h) = (nlo, nhi);
        while l < h {
            let mid = (l + h) / 2;
            if self.value(mid) < bound {
                l = mid + 1;
            } else {
                h = mid;
            }
        }
        l
    }
}

// ---------------------------------------------------------------------------
// FactorLevel: where one trie level's arrays live
// ---------------------------------------------------------------------------

/// The storage of one [`crate::trie::FactorTrie`] level: heap-backed
/// ([`VecStorage`], what [`LevelStorage::from_parts`] builds) or spilled to
/// disk ([`FileChunkedLevel`], what the index of a spilled factor streams
/// into). Every delegated call is a single enum dispatch in front of the
/// heap kernel, so code that never spills pays one well-predicted branch per
/// storage probe.
#[derive(Debug, Clone)]
pub enum FactorLevel {
    /// Heap-backed arrays with the branch-free galloping kernel.
    Mem(VecStorage),
    /// File-chunked arrays with resident head samples.
    Disk(FileChunkedLevel),
}

impl FactorLevel {
    /// The heap arrays, when the level is not spilled: the one resolution a
    /// seek loop makes to run the heap kernel without the per-probe
    /// dispatch.
    pub fn as_mem(&self) -> Option<&VecStorage> {
        match self {
            FactorLevel::Mem(s) => Some(s),
            FactorLevel::Disk(_) => None,
        }
    }
}

impl PartialEq for FactorLevel {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (FactorLevel::Mem(a), FactorLevel::Mem(b)) => a == b,
            (FactorLevel::Disk(a), FactorLevel::Disk(b)) if Arc::ptr_eq(&a.inner, &b.inner) => true,
            // Any other pair of backings compares semantically, entry by
            // entry, end sentinels included.
            (a, b) => {
                let n = a.len();
                n == b.len()
                    && (0..=n).all(|j| {
                        (j == n || a.value(j) == b.value(j))
                            && a.child_at(j) == b.child_at(j)
                            && a.row_at(j) == b.row_at(j)
                    })
            }
        }
    }
}

impl Eq for FactorLevel {}

impl LevelStorage for FactorLevel {
    fn from_parts(values: Vec<u32>, child: Vec<usize>, rows: Vec<usize>) -> FactorLevel {
        FactorLevel::Mem(VecStorage::from_parts(values, child, rows))
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            FactorLevel::Mem(s) => s.len(),
            FactorLevel::Disk(s) => s.len(),
        }
    }

    #[inline]
    fn value(&self, j: usize) -> u32 {
        match self {
            FactorLevel::Mem(s) => s.value(j),
            FactorLevel::Disk(s) => s.value(j),
        }
    }

    #[inline]
    fn child_at(&self, j: usize) -> usize {
        match self {
            FactorLevel::Mem(s) => s.child_at(j),
            FactorLevel::Disk(s) => s.child_at(j),
        }
    }

    #[inline]
    fn row_at(&self, j: usize) -> usize {
        match self {
            FactorLevel::Mem(s) => s.row_at(j),
            FactorLevel::Disk(s) => s.row_at(j),
        }
    }

    fn resident_bytes(&self) -> usize {
        match self {
            FactorLevel::Mem(s) => s.resident_bytes(),
            FactorLevel::Disk(s) => s.resident_bytes(),
        }
    }

    #[inline]
    fn lub_from(&self, window: (usize, usize), hint: usize, bound: u32) -> usize {
        match self {
            FactorLevel::Mem(s) => s.lub_from(window, hint, bound),
            FactorLevel::Disk(s) => s.lub_from(window, hint, bound),
        }
    }
}

// ---------------------------------------------------------------------------
// LevelSpill: the disk sink of the trie builder
// ---------------------------------------------------------------------------

/// One spilled trie level under construction — the disk
/// [`LevelSink`](crate::trie::LevelSink): one chunk of buffered entries
/// that flushes to the level's file as it fills, plus the growing resident
/// heads. Made by [`FileChunkedColumns::level_sinks`].
pub(crate) struct LevelSpill {
    file: Arc<SpillFile>,
    dir: Arc<SpillDir>,
    entries: usize,
    window_chunks: usize,
    offset: u64,
    buf_values: Vec<u32>,
    buf_child: Vec<usize>,
    buf_rows: Vec<usize>,
    total: usize,
    heads: Vec<u32>,
    checksums: Vec<u64>,
}

impl LevelSpill {
    fn flush(&mut self) -> Result<(), StorageError> {
        let n = self.buf_values.len();
        if n == 0 {
            return Ok(());
        }
        let mut bytes = Vec::with_capacity(n * LEVEL_ENTRY_BYTES);
        for &v in &self.buf_values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for &c in self.buf_child.iter().chain(&self.buf_rows) {
            bytes.extend_from_slice(&(c as u64).to_le_bytes());
        }
        self.checksums.push(append_chunk(&self.file, &mut self.offset, &bytes)?);
        self.buf_values.clear();
        self.buf_child.clear();
        self.buf_rows.clear();
        Ok(())
    }
}

impl crate::trie::LevelSink for LevelSpill {
    fn len(&self) -> usize {
        self.total
    }

    fn push_entry(&mut self, value: u32, child_start: usize, row_start: usize) {
        if self.total.is_multiple_of(HEAD_STRIDE) {
            self.heads.push(value);
        }
        self.buf_values.push(value);
        self.buf_child.push(child_start);
        self.buf_rows.push(row_start);
        self.total += 1;
        if self.buf_values.len() >= self.entries {
            ok_or_raise(self.flush());
        }
    }

    /// Flush the tail chunk; the end sentinels stay resident, never on disk.
    fn seal(mut self, child_end: usize, rows_end: usize) -> FactorLevel {
        ok_or_raise(self.flush());
        FactorLevel::Disk(FileChunkedLevel {
            inner: Arc::new(LevelInner {
                len: self.total,
                entries: self.entries,
                file: self.file,
                dir: self.dir,
                heads: self.heads,
                child_end,
                rows_end,
                checksums: self.checksums,
                window: ChunkWindow::new(self.window_chunks),
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_bytes_roundtrip() {
        fn rt<E: FixedBytes + PartialEq + std::fmt::Debug>(v: E) {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            assert_eq!(buf.len(), E::WIDTH);
            assert_eq!(E::decode(&buf), v);
        }
        rt(0u32);
        rt(u32::MAX);
        rt(u64::MAX - 1);
        rt(-17i64);
        rt(3.5f64);
        rt(f64::NEG_INFINITY);
        rt(true);
        rt(false);
        rt(255u8);
    }

    #[test]
    fn writer_chunks_and_rereads() {
        let cfg = SpillConfig { chunk_rows: 3, window_chunks: 2, ..SpillConfig::default() };
        let mut w: SpillWriter<u64> = SpillWriter::new(2, cfg);
        for i in 0..10u32 {
            w.push(&[i, i + 1], u64::from(i) * 10);
        }
        let cols = w.finish_cols();
        assert_eq!(cols.len(), 10);
        assert_eq!(cols.num_chunks(), 4); // 3+3+3+1
        for i in 0..10u32 {
            assert_eq!(cols.col(i as usize, 0), i);
            assert_eq!(cols.col(i as usize, 1), i + 1);
            assert_eq!(cols.value_owned(i as usize), u64::from(i) * 10);
        }
        assert_eq!(cols.col_max(0), Some(9));
        assert_eq!(cols.col_max(1), Some(10));
        // The LRU window bounds residency to at most 2 chunks.
        let stats = cols.stats();
        assert!(stats.reads >= 4, "each chunk faulted at least once");
        assert!(cols.inner.window.cache.lock().unwrap().map.len() <= 2);
    }

    #[test]
    fn spill_dir_removed_on_drop() {
        let cfg = SpillConfig { chunk_rows: 2, ..SpillConfig::default() };
        let mut w: SpillWriter<u64> = SpillWriter::new(1, cfg);
        w.push(&[1], 1);
        w.push(&[2], 2);
        let cols = w.finish_cols();
        let path = cols.spill_dir().path().to_path_buf();
        assert!(path.exists());
        let clone = cols.clone();
        drop(cols);
        assert!(path.exists(), "clone still holds the directory");
        drop(clone);
        assert!(!path.exists(), "last handle removes the spill directory");
    }

    #[test]
    fn partition_cuts_on_chunk_boundaries() {
        let cfg = SpillConfig { chunk_rows: 4, ..SpillConfig::default() };
        let mut w: SpillWriter<u64> = SpillWriter::new(1, cfg);
        for i in 0..32u32 {
            w.push(&[i / 2], 1); // two rows per value: 16 distinct values
        }
        let cols = w.finish_cols();
        let ranges = cols.partition_first(4);
        assert!(!ranges.is_empty());
        assert_eq!(ranges[0].0, 0);
        assert_eq!(ranges.last().unwrap().1, u32::MAX);
        for w2 in ranges.windows(2) {
            assert_eq!(w2[0].1, w2[1].0);
        }
        // Every cut falls on a chunk's first value.
        for &(_, hi) in &ranges[..ranges.len() - 1] {
            assert!(
                (0..cols.num_chunks()).any(|k| cols.chunk_first_row(k)[0] == hi),
                "cut {hi} not on a chunk boundary"
            );
        }
    }

    #[test]
    fn injected_transient_fault_is_retried_and_absorbed() {
        let cfg = SpillConfig { chunk_rows: 4, window_chunks: 1, ..SpillConfig::default() };
        let mut w: SpillWriter<u64> = SpillWriter::new(1, cfg);
        for i in 0..8u32 {
            w.push(&[i], u64::from(i));
        }
        let cols = w.finish_cols();
        let retries_before = fault::io_retries();
        let _g = fault::FaultPlan::seeded(5).fail_transient(1.0).install_local();
        for i in 0..8usize {
            assert_eq!(cols.value_owned(i), i as u64, "retry absorbs the transient failure");
        }
        assert!(fault::io_retries() > retries_before, "each faulted read counted a retry");
    }

    #[test]
    fn injected_corruption_surfaces_typed_error() {
        let cfg = SpillConfig { chunk_rows: 4, window_chunks: 1, ..SpillConfig::default() };
        let mut w: SpillWriter<u64> = SpillWriter::new(1, cfg);
        for i in 0..4u32 {
            w.push(&[i], 7);
        }
        let cols = w.finish_cols();
        let corrupt_before = fault::corrupt_chunks();
        let _g = fault::FaultPlan::seeded(5).corrupt(1.0).install_local();
        let r = fault::catch_abort(|| cols.value_owned(0));
        match r {
            Err(QueryAbort::Storage(StorageError::Corrupt { chunk: 0, .. })) => {}
            other => panic!("expected a corrupt-chunk abort, got {other:?}"),
        }
        assert!(fault::corrupt_chunks() > corrupt_before);
        drop(_g);
        assert_eq!(cols.value_owned(0), 7, "the data at rest was never harmed");
    }

    #[test]
    fn injected_hard_failure_surfaces_typed_io_error() {
        let cfg = SpillConfig { chunk_rows: 4, window_chunks: 1, ..SpillConfig::default() };
        let mut w: SpillWriter<u64> = SpillWriter::new(1, cfg);
        for i in 0..4u32 {
            w.push(&[i], 7);
        }
        let cols = w.finish_cols();
        let _g = fault::FaultPlan::seeded(5).fail_hard(1.0).install_local();
        match fault::catch_abort(|| cols.value_owned(0)) {
            Err(QueryAbort::Storage(StorageError::Io { op: "read chunk", attempts, .. })) => {
                assert_eq!(attempts, MAX_IO_ATTEMPTS);
            }
            other => panic!("expected a hard I/O abort, got {other:?}"),
        }
    }

    #[test]
    fn deadline_checkpoint_fires_at_chunk_fault_in() {
        let cfg = SpillConfig { chunk_rows: 2, window_chunks: 1, ..SpillConfig::default() };
        let mut w: SpillWriter<u64> = SpillWriter::new(1, cfg);
        for i in 0..4u32 {
            w.push(&[i], 1);
        }
        let cols = w.finish_cols();
        let ctl = fault::AbortCtl {
            deadline: Some(fault::Deadline::at(std::time::Instant::now())),
            cancel: None,
        };
        let _g = fault::install_ctl(ctl);
        assert_eq!(
            fault::catch_abort(|| cols.value_owned(0)),
            Err(QueryAbort::DeadlineExceeded),
            "an expired deadline aborts at the fault-in checkpoint"
        );
    }

    #[test]
    fn gc_sweeps_dead_pid_spill_dirs_only() {
        let base = std::env::temp_dir().join(format!("faq-gc-test-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        // A pid far above any real one (the kernel's default pid_max is far
        // below u32::MAX), so /proc/<pid> cannot exist.
        let dead = base.join("faq-spill-4294967294-0");
        let mine = base.join(format!("faq-spill-{}-999", std::process::id()));
        let noise = base.join("unrelated-dir");
        for d in [&dead, &mine, &noise] {
            std::fs::create_dir_all(d).unwrap();
        }
        let removed = gc_stale_spill_dirs(Some(&base));
        assert_eq!(removed, 1, "exactly the dead process's directory is swept");
        assert!(!dead.exists());
        assert!(mine.exists(), "the current process's spill dirs survive");
        assert!(noise.exists(), "non-spill directories are never touched");
        std::fs::remove_dir_all(&base).unwrap();
    }
}
