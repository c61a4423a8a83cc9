//! File-chunked out-of-core storage — the disk backing of spilled factors.
//!
//! A [`crate::Factor`] normally keeps its listing (`rows` + `vals`) and its
//! trie index in memory. A spilled factor keeps one copy of its keys, on
//! disk: its trie levels, plus a values column indexed by leaf entry (entry
//! `j` of the deepest level is row `j`). It is built on `std::fs` only:
//! fixed-size chunks inside unlinked-on-drop spill files, of which at most
//! a small *pinned window* is resident at a time. There is no key listing:
//! the trie gives the conditional lookups and the ordered access a factor
//! needs (paper Assumption 1), and a row walk in leaf order gives the rest.
//!
//! * [`FileChunkedLevel`] — one trie level (its `values`, and above the
//!   deepest level its `child` offsets: 12 B an interior entry, 4 B a leaf
//!   one) in uniform entry chunks, with the head-sample array
//!   (`values[64k]`) kept resident so a seek narrows to one 64-entry stride
//!   before touching the file, then pins that stride's chunk once and
//!   searches its `values` slice (see [`crate::storage`] for the seek
//!   contract it must match bit for bit).
//! * [`FactorLevel`] — the type every [`crate::trie::FactorTrie`] level is
//!   stored in: heap ([`crate::storage::VecStorage`]) or disk, chosen per
//!   factor, with every consumer compiling against the same type.
//! * `FileChunkedValues` — the values column: fixed-width encoded values
//!   ([`FixedBytes`]), chunked by [`SpillConfig::chunk_rows`]. A chunk whose
//!   encoded values are all byte-equal (every chunk of an indicator factor:
//!   a join, #CQ, CSP or SAT input) writes no bytes; its one value stays in
//!   resident metadata, so a value read faults nothing.
//!
//! Writes are strictly sequential, one chunk of buffering each: the
//! `SpillWriter` (driven by [`crate::FactorBuilder`] in spill mode) streams
//! each row into the trie builder's disk sinks (`LevelSpill`, one per
//! column), which append level chunks as they fill, and appends encoded
//! values chunks; none seeks backwards, and all record a checksum per chunk
//! through the one `append_chunk`. A spilled factor is therefore indexed
//! when it is written. Reads — of either kind of chunk — go through one
//! `ChunkWindow`: a deadline checkpoint, then the LRU
//! ([`SpillConfig::window_chunks`]), then one verified, retried, injectable
//! read and a decode.
//!
//! Every fault-in is verified against the chunk's `chunk_checksum`, recorded
//! at write time: a four-lane word-parallel hash that detects **any
//! corruption confined to one aligned 8-byte word** with certainty (every
//! single-byte and single-bit error included). It costs 4–6 µs on 80 KB of
//! chunk bytes (2-vCPU x86-64 container), about what reading and decoding
//! them cost.
//!
//! Every pinned chunk is accounted in a process-global gauge
//! ([`pinned_bytes`] / [`peak_pinned_bytes`]) that `tests/out_of_core.rs`
//! asserts against its resident cap.
//!
//! Spill files live in a per-factor temporary directory that is removed when
//! the last handle drops (`SpillDir`), so cloned factors and snapshots
//! share the cold data by reference and nothing is copied on epoch publish.

use crate::fault::{self, FaultSlot, Injected, QueryAbort, StorageError};
use crate::storage::{head_narrow, LevelStorage, VecStorage, HEAD_STRIDE};
use crate::trie::{FactorTrie, TrieBuilder};
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Retry budget of one logical chunk operation: the initial attempt plus two
/// retries, with a short growing backoff between attempts.
const MAX_IO_ATTEMPTS: u32 = 3;

fn retry_backoff(attempt: u32) {
    std::thread::sleep(std::time::Duration::from_micros(50 * u64::from(attempt)));
}

/// Odd multiplier of [`checksum_step`] (the 64-bit golden ratio).
const CHECKSUM_P: u64 = 0x9e37_79b9_7f4a_7c15;

/// One checksum step, `rotl((h ⊕ w)·P, 29)`: with `P` odd, a bijection in
/// `h` for a fixed `w` and in `w` for a fixed `h`.
#[inline]
fn checksum_step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(CHECKSUM_P).rotate_left(29)
}

/// A little-endian word of at most 8 bytes, zero-padded.
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// The per-chunk checksum, recorded at write time and verified on every
/// fault-in: four independent lanes over little-endian `u64` words, 32 bytes
/// a round, then the byte length, the four lanes and the tail words (the
/// last one zero-padded) folded into one accumulator.
///
/// Every step is a bijection in each argument with the other fixed, so a
/// change to one aligned 8-byte word changes its lane, the fold and the
/// result: **any corruption confined to one aligned word is detected with
/// certainty** — every single-byte and single-bit error among them.
fn chunk_checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [
        0x243f_6a88_85a3_08d3u64,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let mut rounds = bytes.chunks_exact(32);
    for round in &mut rounds {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = checksum_step(*lane, le_word(&round[8 * i..8 * i + 8]));
        }
    }
    let mut h = checksum_step(0x4528_21e6_38d0_1377, bytes.len() as u64);
    for lane in lanes {
        h = checksum_step(h, lane);
    }
    for w in rounds.remainder().chunks(8) {
        h = checksum_step(h, le_word(w));
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
    /// Values per chunk of a spilled factor's values column.
    pub chunk_rows: usize,
    /// Entries per trie-level chunk ([`FileChunkedLevel`]); rounded up to a
    /// multiple of the head-sample stride (64), so a seek's narrowed window
    /// lies inside one chunk except for its stride-aligned upper edge. That
    /// edge may be the next chunk's first entry, which is a resident head
    /// sample: a seek pins at most one chunk.
    pub level_chunk_entries: usize,
    /// Maximum chunks pinned per trie level and for the values column (the
    /// LRU window of each).
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
/// last [`Arc`] handle drops — factors, their tries, their clones and every
/// file in it share one, and with it the fault plan armed on them.
#[derive(Debug)]
pub(crate) struct SpillDir {
    path: PathBuf,
    /// Names the files in this directory apart.
    files: AtomicU64,
    faults: Arc<FaultSlot>,
}

impl SpillDir {
    fn create(under: Option<&PathBuf>) -> Result<Arc<SpillDir>, StorageError> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let base = under.cloned().unwrap_or_else(std::env::temp_dir);
        let path = base.join(format!("faq-spill-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| StorageError::io("create spill directory", &path, &e, 1))?;
        Ok(Arc::new(SpillDir { path, files: AtomicU64::new(0), faults: Arc::default() }))
    }

    /// A fresh file `<kind>-<n>.bin` in this directory.
    fn new_file(self: &Arc<Self>, kind: &str) -> Result<Arc<SpillFile>, StorageError> {
        let n = self.files.fetch_add(1, Ordering::Relaxed);
        let path = self.path.join(format!("{kind}-{n}.bin"));
        let file = File::options()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| StorageError::io("create spill file", &path, &e, 1))?;
        Ok(Arc::new(SpillFile { file: Mutex::new(file), path, dir: Arc::clone(self) }))
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
/// pairs. It keeps its directory alive, and every chunk operation on it
/// draws from that directory's fault plan.
#[derive(Debug)]
pub(crate) struct SpillFile {
    file: Mutex<File>,
    path: PathBuf,
    dir: Arc<SpillDir>,
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
        let injected = self.dir.faults.draw();
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
    let injected = file.dir.faults.draw();
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
                let actual = chunk_checksum(buf);
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

/// One faulted chunk — decoded values or trie-level entries —
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
/// checksum recorded when they were written — and the bytes the decoded
/// chunk holds, which the pin gauge is charged while it is pinned.
struct ChunkAt<'a> {
    file: &'a SpillFile,
    offset: u64,
    bytes: usize,
    checksum: u64,
    decoded_bytes: usize,
}

/// The bounded pinned window of one values column or trie level: at most
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

    /// The window's chunks, locked.
    fn lru(&self) -> MutexGuard<'_, Lru<Pinned<T>>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Chunk `k`, from the window or faulted in from `at` and decoded — or
    /// a typed storage error: one logical read with injection, checksum
    /// verification, bounded retry and a deadline checkpoint (a chunk fault
    /// is the natural cancellation point of an out-of-core scan).
    ///
    /// The window is locked to look `k` up and to insert it, not across the
    /// read and the decode, so workers faulting chunks of one window do not
    /// wait on each other. Two that fault the same chunk both read it
    /// (both reads count); the later insert serves the earlier copy and its
    /// own is dropped, untracking its bytes.
    fn try_pin(
        &self,
        k: usize,
        at: ChunkAt<'_>,
        decode: impl FnOnce(&[u8]) -> T,
    ) -> Result<Arc<Pinned<T>>, StorageError> {
        fault::checkpoint();
        if let Some(c) = self.lru().get(k) {
            return Ok(c);
        }
        let mut buf = vec![0u8; at.bytes];
        read_chunk_verified(at.file, at.offset, &mut buf, k, at.checksum)?;
        let data = decode(&buf);
        track_pin(at.decoded_bytes);
        let chunk = Arc::new(Pinned { data, bytes: at.decoded_bytes });
        self.reads.fetch_add(1, Ordering::Relaxed);
        CHUNK_READS.fetch_add(1, Ordering::Relaxed);
        let mut cache = self.lru();
        if let Some(c) = cache.get(k) {
            return Ok(c);
        }
        cache.insert(k, Arc::clone(&chunk));
        Ok(chunk)
    }

    /// [`ChunkWindow::try_pin`] at the infallible accessor boundary.
    fn pin(&self, k: usize, at: ChunkAt<'_>, decode: impl FnOnce(&[u8]) -> T) -> Arc<Pinned<T>> {
        ok_or_raise(self.try_pin(k, at, decode))
    }

    /// Decoded bytes of the chunks currently pinned.
    fn resident_bytes(&self) -> usize {
        self.lru().map.values().map(|(_, c)| c.bytes).sum()
    }
}

/// Append one encoded chunk at `*offset`, advance the offset past it and
/// return the checksum to verify it against on every fault-in.
fn append_chunk(file: &SpillFile, offset: &mut u64, bytes: &[u8]) -> Result<u64, StorageError> {
    file.append(*offset, bytes)?;
    *offset += bytes.len() as u64;
    Ok(chunk_checksum(bytes))
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
// FileChunkedValues: the values column of a spilled factor
// ---------------------------------------------------------------------------

/// Resident metadata of one values chunk: where its encoded bytes are and
/// their checksum — or, for a chunk whose values are all byte-equal, that
/// one encoded value, in which case the chunk writes no bytes and a value
/// read decodes it without faulting anything.
#[derive(Debug)]
struct ValuesChunk {
    offset: u64,
    /// [`chunk_checksum`] of the chunk's encoded bytes, verified on every
    /// fault-in.
    checksum: u64,
    uniform: Option<Box<[u8]>>,
}

/// Read-side statistics of one spilled factor (see
/// [`crate::Factor::spill_stats`]): its values file and its trie level
/// files together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct SpillStats {
    /// Chunks on disk: each level's chunks plus the values chunks that hold
    /// bytes (a uniform values chunk keeps its one value resident and is
    /// never read).
    pub chunks: usize,
    /// Chunks faulted in from disk over this factor's lifetime (shared by
    /// clones).
    pub reads: u64,
    /// Decoded bytes of this factor's chunks currently pinned.
    pub resident_bytes: usize,
    /// Bytes this factor's chunks hold on disk: the level entries, plus the
    /// values of every chunk that is not uniform.
    pub file_bytes: usize,
}

struct ValuesInner<E> {
    len: usize,
    /// Values per chunk ([`SpillConfig::chunk_rows`]); the last may be
    /// shorter. Value `i` is leaf entry `i`, so its chunk is arithmetic.
    chunk_rows: usize,
    width: usize,
    decode: fn(&[u8]) -> E,
    /// Captured at construction (where `E: FixedBytes` is known), so a delta
    /// splice can write a sibling factor without re-stating the bound.
    encode: fn(&E, &mut Vec<u8>),
    chunks: Vec<ValuesChunk>,
    file: Arc<SpillFile>,
    /// Per-column maximum key value, tracked at write time (resident, so
    /// domain validation never faults a chunk).
    col_maxes: Vec<u32>,
    config: SpillConfig,
    window: ChunkWindow<Vec<E>>,
}

/// The values column of a spilled factor, one value per leaf entry of its
/// trie, in value chunks with a bounded pinned window. Cloning is an `Arc`
/// bump: clones (and epoch snapshots holding them) share the chunks, the
/// cache and the spill directory.
pub(crate) struct FileChunkedValues<E> {
    inner: Arc<ValuesInner<E>>,
}

impl<E> Clone for FileChunkedValues<E> {
    fn clone(&self) -> Self {
        FileChunkedValues { inner: Arc::clone(&self.inner) }
    }
}

impl<E> std::fmt::Debug for FileChunkedValues<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileChunkedValues")
            .field("len", &self.inner.len)
            .field("chunks", &self.inner.chunks.len())
            .finish()
    }
}

impl<E> FileChunkedValues<E> {
    pub(crate) fn col_max(&self, d: usize) -> Option<u32> {
        (self.inner.len > 0).then(|| self.inner.col_maxes[d])
    }

    #[cfg(test)]
    pub(crate) fn spill_dir(&self) -> &Arc<SpillDir> {
        &self.inner.file.dir
    }

    /// The fault plan slot of this factor's spill directory, which its
    /// level files share.
    pub(crate) fn faults(&self) -> &Arc<FaultSlot> {
        &self.inner.file.dir.faults
    }

    /// Values in chunk `k`.
    fn rows_in(&self, k: usize) -> usize {
        self.inner.chunk_rows.min(self.inner.len - k * self.inner.chunk_rows)
    }

    /// The statistics of the spilled factor made of these values and `trie`.
    pub(crate) fn stats(&self, trie: &FactorTrie) -> SpillStats {
        let i = &self.inner;
        let plain: Vec<usize> =
            (0..i.chunks.len()).filter(|&k| i.chunks[k].uniform.is_none()).collect();
        let mut stats = SpillStats {
            chunks: plain.len(),
            reads: i.window.reads.load(Ordering::Relaxed),
            resident_bytes: i.window.resident_bytes(),
            file_bytes: plain.iter().map(|&k| self.rows_in(k) * i.width).sum(),
        };
        for d in 0..trie.arity() {
            if let FactorLevel::Disk(level) = trie.level(d).storage() {
                let l = &level.inner;
                stats.chunks += l.checksums.len();
                stats.reads += l.window.reads.load(Ordering::Relaxed);
                stats.resident_bytes += l.window.resident_bytes();
                stats.file_bytes += l.len * l.entry_bytes();
            }
        }
        stats
    }

    /// Decoded bytes of the values chunks currently pinned.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.inner.window.resident_bytes()
    }

    /// Plain values chunk `k` through the pinned window.
    fn pin(&self, k: usize) -> Arc<Pinned<Vec<E>>> {
        let inner = &self.inner;
        let meta = &inner.chunks[k];
        let bytes = self.rows_in(k) * inner.width;
        let at = ChunkAt {
            file: &inner.file,
            offset: meta.offset,
            bytes,
            checksum: meta.checksum,
            decoded_bytes: bytes,
        };
        inner
            .window
            .pin(k, at, |buf| buf.chunks_exact(inner.width.max(1)).map(inner.decode).collect())
    }

    /// A reader of these values in any order, cheapest in ascending order.
    pub(crate) fn reader(&self) -> ValuesReader<'_, E> {
        ValuesReader { values: self, held: Held(None) }
    }
}

impl<E: Clone> FileChunkedValues<E> {
    /// Owned copy of value `i`.
    pub(crate) fn value_owned(&self, i: usize) -> E {
        self.reader().with(i, E::clone)
    }
}

/// The one chunk a sequential reader holds: it is re-pinned only when the
/// reader moves to another chunk, so a walk in ascending order pins each
/// chunk once.
struct Held<T>(Option<(usize, Arc<Pinned<T>>)>);

impl<T> Held<T> {
    fn get(&mut self, k: usize, pin: impl FnOnce() -> Arc<Pinned<T>>) -> &T {
        if self.0.as_ref().is_none_or(|(held, _)| *held != k) {
            self.0 = Some((k, pin()));
        }
        &self.0.as_ref().expect("held above").1
    }
}

/// Reads the values of a [`FileChunkedValues`], holding the last plain
/// chunk it pinned.
pub(crate) struct ValuesReader<'a, E> {
    values: &'a FileChunkedValues<E>,
    held: Held<Vec<E>>,
}

impl<E> ValuesReader<'_, E> {
    /// Run `f` over value `i` without cloning it out of its chunk. A uniform
    /// chunk's value is resident: it is decoded, and nothing is pinned, read
    /// or drawn from the fault plan.
    pub(crate) fn with<R>(&mut self, i: usize, f: impl FnOnce(&E) -> R) -> R {
        let values = self.values;
        let inner = &values.inner;
        let k = i / inner.chunk_rows;
        if let Some(v) = &inner.chunks[k].uniform {
            return f(&(inner.decode)(v));
        }
        f(&self.held.get(k, || values.pin(k))[i - k * inner.chunk_rows])
    }
}

// ---------------------------------------------------------------------------
// SpillWriter: strictly-sequential writing of a spilled factor
// ---------------------------------------------------------------------------

/// Strictly-sequential writer of a spilled factor: rows arrive in ascending
/// order and stream straight into the trie builder's disk sinks, one
/// [`LevelSpill`] per column, while their values buffer one chunk at a time
/// and flush as encoded bytes to the values file. The factor is indexed
/// when it is written; no key listing is written or read back.
pub(crate) struct SpillWriter<E> {
    trie: TrieBuilder<LevelSpill>,
    /// The row pushed last, which the trie builder compares the next with.
    last: Vec<u32>,
    col_maxes: Vec<u32>,
    file: Arc<SpillFile>,
    offset: u64,
    width: usize,
    decode: fn(&[u8]) -> E,
    encode: fn(&E, &mut Vec<u8>),
    config: SpillConfig,
    buf: Vec<E>,
    chunks: Vec<ValuesChunk>,
    len: usize,
}

impl<E: FixedBytes> SpillWriter<E> {
    /// A writer over a fresh spill directory.
    ///
    /// Raises a [`QueryAbort::Storage`] (caught at the evaluation boundary)
    /// if the directory or a file cannot be created.
    pub(crate) fn new(arity: usize, config: SpillConfig) -> SpillWriter<E> {
        let dir = ok_or_raise(SpillDir::create(config.dir.as_ref()));
        SpillWriter::in_dir(&dir, arity, E::WIDTH, decode_fn::<E>, encode_fn::<E>, config)
    }
}

impl<E> SpillWriter<E> {
    /// A writer of a sibling of the spilled factor whose values are `base`:
    /// same spill directory, codec and configuration, fresh files. The
    /// writer of a delta splice — no `FixedBytes` bound, the codec was
    /// captured when `base` was written.
    pub(crate) fn like(base: &FileChunkedValues<E>) -> SpillWriter<E> {
        let b = &base.inner;
        let arity = b.col_maxes.len();
        SpillWriter::in_dir(&b.file.dir, arity, b.width, b.decode, b.encode, b.config.clone())
    }

    fn in_dir(
        dir: &Arc<SpillDir>,
        arity: usize,
        width: usize,
        decode: fn(&[u8]) -> E,
        encode: fn(&E, &mut Vec<u8>),
        config: SpillConfig,
    ) -> SpillWriter<E> {
        let sinks = (0..arity)
            .map(|d| LevelSpill {
                file: ok_or_raise(dir.new_file(&format!("trie-l{d}"))),
                entries: config.level_entries(),
                window_chunks: config.window_chunks,
                offset: 0,
                buf_values: Vec::new(),
                buf_child: Vec::new(),
                total: 0,
                heads: Vec::new(),
                checksums: Vec::new(),
            })
            .collect();
        SpillWriter {
            trie: TrieBuilder::over(sinks),
            last: Vec::with_capacity(arity),
            col_maxes: vec![0; arity],
            file: ok_or_raise(dir.new_file("vals")),
            offset: 0,
            width,
            decode,
            encode,
            config,
            buf: Vec::new(),
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Append the next row (strictly ascending; debug-asserted by the trie
    /// builder). A failed chunk write (after retries) raises a
    /// [`QueryAbort::Storage`] caught at the evaluation boundary.
    pub(crate) fn push(&mut self, row: &[u32], val: E) {
        self.trie.push(row, (self.len > 0).then_some(&self.last[..]));
        self.last.clear();
        self.last.extend_from_slice(row);
        for (m, &v) in self.col_maxes.iter_mut().zip(row) {
            *m = (*m).max(v);
        }
        self.buf.push(val);
        self.len += 1;
        if self.buf.len() >= self.config.chunk_rows.max(1) {
            ok_or_raise(self.flush());
        }
    }

    /// Write the buffered values as one chunk. When every encoded value is
    /// byte-equal to the first (bytes, not `E`s: `0.0` and `-0.0` differ; a
    /// width-0 codec is always uniform), nothing is written and the one
    /// value is kept in the chunk's metadata.
    fn flush(&mut self) -> Result<(), StorageError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let mut bytes = Vec::with_capacity(self.buf.len() * self.width);
        for v in &self.buf {
            (self.encode)(v, &mut bytes);
        }
        let (first, rest) = bytes.split_at(self.width);
        let uniform: Option<Box<[u8]>> =
            rest.chunks_exact(self.width.max(1)).all(|v| v == first).then(|| first.into());
        let offset = self.offset;
        let checksum = match uniform {
            Some(_) => 0,
            None => append_chunk(&self.file, &mut self.offset, &bytes)?,
        };
        self.chunks.push(ValuesChunk { offset, checksum, uniform });
        self.buf.clear();
        Ok(())
    }

    /// Seal the factor: its trie, its levels on disk, and its values.
    pub(crate) fn finish(mut self) -> (FactorTrie, FileChunkedValues<E>) {
        ok_or_raise(self.flush());
        let values = FileChunkedValues {
            inner: Arc::new(ValuesInner {
                len: self.len,
                chunk_rows: self.config.chunk_rows.max(1),
                width: self.width,
                decode: self.decode,
                encode: self.encode,
                chunks: self.chunks,
                file: self.file,
                col_maxes: self.col_maxes,
                window: ChunkWindow::new(self.config.window_chunks),
                config: self.config,
            }),
        };
        (self.trie.finish(), values)
    }
}

// ---------------------------------------------------------------------------
// FileChunkedLevel: spilled trie levels
// ---------------------------------------------------------------------------

/// One decoded trie-level chunk: the entries' values and, above the deepest
/// level, their child offsets (empty at the deepest).
#[derive(Debug)]
struct LevelChunk {
    values: Vec<u32>,
    child: Vec<usize>,
}

#[derive(Debug)]
struct LevelInner {
    len: usize,
    /// Entries per full chunk; a multiple of the head-sample stride, so a
    /// seek's narrowed window needs at most one chunk (see
    /// [`SpillConfig::level_chunk_entries`]).
    entries: usize,
    file: Arc<SpillFile>,
    /// Resident head samples: `heads[k] = values[HEAD_STRIDE * k]`.
    heads: Vec<u32>,
    /// The resident end sentinel `child[len]`, never on disk; `None` at the
    /// deepest level, which stores no child offsets.
    child_end: Option<usize>,
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

impl LevelInner {
    /// On-disk bytes of one entry: its `u32` value plus, above the deepest
    /// level, its `u64` child offset — 12 B an interior entry, 4 B a leaf one
    /// (entry `j` of the deepest level is row `j`, so it stores no offset).
    fn entry_bytes(&self) -> usize {
        if self.child_end.is_some() {
            4 + 8
        } else {
            4
        }
    }
}

impl FileChunkedLevel {
    /// Level chunk `k` through the pinned window — same
    /// injection/retry/checksum/deadline discipline as the values column,
    /// through the same [`ChunkWindow`].
    fn pin(&self, k: usize) -> Arc<Pinned<LevelChunk>> {
        let inner = &self.inner;
        let start = k * inner.entries;
        let n = inner.entries.min(inner.len - start);
        let at = ChunkAt {
            file: &inner.file,
            offset: (start * inner.entry_bytes()) as u64,
            bytes: n * inner.entry_bytes(),
            checksum: inner.checksums[k],
            decoded_bytes: n * inner.entry_bytes(),
        };
        inner.window.pin(k, at, |buf| {
            let (vb, cb) = buf.split_at(n * 4);
            LevelChunk { values: le_u32s(vb), child: le_offsets(cb) }
        })
    }

    /// Run `f` over the level chunk holding entry `j` and `j`'s index in it.
    fn with_entry<R>(&self, j: usize, f: impl FnOnce(&LevelChunk, usize) -> R) -> R {
        let k = j / self.inner.entries;
        f(&self.pin(k), j - k * self.inner.entries)
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
        let end = self.inner.child_end.expect("the deepest level stores no child offsets");
        if j == self.inner.len {
            return end;
        }
        self.with_entry(j, |c, l| c.child[l])
    }

    fn lub_from(&self, (lo, hi): (usize, usize), _hint: usize, bound: u32) -> usize {
        if lo >= hi {
            return hi;
        }
        // Narrow on the resident head samples exactly like the heap kernel.
        let heads = &self.inner.heads;
        let (nlo, nhi) = head_narrow(heads, lo, hi, bound);
        // The narrowed window holds at most one stride-aligned entry: the
        // probe `HEAD_STRIDE·p` at its upper edge, which is the next chunk's
        // first entry when it falls on a chunk boundary. It is a resident
        // head, so it is compared without faulting anything.
        let mut top = nhi;
        if top > nlo && (top - 1).is_multiple_of(HEAD_STRIDE) {
            top -= 1;
            if heads[top / HEAD_STRIDE] < bound {
                return nhi;
            }
        }
        if nlo == top {
            return top;
        }
        // The rest lies inside one stride, hence inside one chunk: one pin,
        // then `partition_point` over that chunk's values. The hint is
        // ignored (it only ever affects speed, never the result).
        debug_assert_eq!(nlo / HEAD_STRIDE, (top - 1) / HEAD_STRIDE);
        let k = nlo / self.inner.entries;
        let start = k * self.inner.entries;
        let chunk = self.pin(k);
        nlo + chunk.values[nlo - start..top - start].partition_point(|&v| v < bound)
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

    /// A reader of this level's entries, cheapest in ascending order: a
    /// walk pins each chunk of a spilled level once.
    pub(crate) fn reader(&self) -> LevelReader<'_> {
        LevelReader { level: self, held: Held(None) }
    }

    /// Whether the level stores child offsets: every level but the deepest.
    fn is_interior(&self) -> bool {
        match self {
            FactorLevel::Mem(s) => s.is_interior(),
            FactorLevel::Disk(s) => s.inner.child_end.is_some(),
        }
    }
}

/// Reads the entries of a [`FactorLevel`], holding the last chunk of a
/// spilled level it pinned.
pub(crate) struct LevelReader<'a> {
    level: &'a FactorLevel,
    held: Held<LevelChunk>,
}

impl LevelReader<'_> {
    /// Entry `j`'s chunk of a spilled level and `j`'s index in it.
    fn chunk<'h>(
        held: &'h mut Held<LevelChunk>,
        s: &FileChunkedLevel,
        j: usize,
    ) -> (&'h LevelChunk, usize) {
        let k = j / s.inner.entries;
        (held.get(k, || s.pin(k)), j - k * s.inner.entries)
    }

    /// The column value of entry `j`.
    pub(crate) fn value(&mut self, j: usize) -> u32 {
        match self.level {
            FactorLevel::Mem(s) => s.value(j),
            FactorLevel::Disk(s) => {
                let (c, l) = Self::chunk(&mut self.held, s, j);
                c.values[l]
            }
        }
    }

    /// The child offset `j` of an interior level (`j ≤ len`).
    pub(crate) fn child_at(&mut self, j: usize) -> usize {
        match self.level {
            FactorLevel::Mem(s) => s.child_at(j),
            FactorLevel::Disk(s) if j == s.len() => s.child_at(j),
            FactorLevel::Disk(s) => {
                let (c, l) = Self::chunk(&mut self.held, s, j);
                c.child[l]
            }
        }
    }
}

impl PartialEq for FactorLevel {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (FactorLevel::Mem(a), FactorLevel::Mem(b)) => a == b,
            (FactorLevel::Disk(a), FactorLevel::Disk(b)) if Arc::ptr_eq(&a.inner, &b.inner) => true,
            // Any other pair of backings compares semantically, entry by
            // entry: the values, then the child offsets of an interior
            // level, end sentinel included.
            (a, b) => {
                let n = a.len();
                let interior = a.is_interior();
                n == b.len()
                    && interior == b.is_interior()
                    && (0..n).all(|j| a.value(j) == b.value(j))
                    && (!interior || (0..=n).all(|j| a.child_at(j) == b.child_at(j)))
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
/// heads. Made by [`SpillWriter`], one per column.
pub(crate) struct LevelSpill {
    file: Arc<SpillFile>,
    entries: usize,
    window_chunks: usize,
    offset: u64,
    buf_values: Vec<u32>,
    /// Empty at the deepest level, which stores no child offsets.
    buf_child: Vec<usize>,
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
        let mut bytes = Vec::with_capacity(n * 4 + self.buf_child.len() * 8);
        for &v in &self.buf_values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for &c in &self.buf_child {
            bytes.extend_from_slice(&(c as u64).to_le_bytes());
        }
        self.checksums.push(append_chunk(&self.file, &mut self.offset, &bytes)?);
        self.buf_values.clear();
        self.buf_child.clear();
        Ok(())
    }
}

impl crate::trie::LevelSink for LevelSpill {
    fn len(&self) -> usize {
        self.total
    }

    fn push_entry(&mut self, value: u32, child_start: Option<usize>) {
        if self.total.is_multiple_of(HEAD_STRIDE) {
            self.heads.push(value);
        }
        self.buf_values.push(value);
        self.buf_child.extend(child_start);
        self.total += 1;
        if self.buf_values.len() >= self.entries {
            ok_or_raise(self.flush());
        }
    }

    /// Flush the tail chunk; the end sentinel stays resident, never on disk.
    fn seal(mut self, child_end: Option<usize>) -> FactorLevel {
        ok_or_raise(self.flush());
        FactorLevel::Disk(FileChunkedLevel {
            inner: Arc::new(LevelInner {
                len: self.total,
                entries: self.entries,
                file: self.file,
                heads: self.heads,
                child_end,
                checksums: self.checksums,
                window: ChunkWindow::new(self.window_chunks),
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::Factor;

    /// `rows` over the first `arity` variables, spilled at `config`.
    fn spill<E: FixedBytes + faq_semiring::SemiringElem>(
        arity: u32,
        rows: Vec<(Vec<u32>, E)>,
        config: SpillConfig,
    ) -> Factor<E> {
        let schema = (0..arity).map(faq_hypergraph::Var).collect();
        Factor::new(schema, rows).unwrap().to_spilled(config)
    }

    /// The values column of the spilled factor `f`.
    fn values<E>(f: &Factor<E>) -> &FileChunkedValues<E> {
        f.spill_values().expect("a spilled factor")
    }

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
    fn checksum_detects_every_single_word_corruption() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // 4 KiB of whole rounds plus a 13-byte tail (one full tail word, one
        // zero-padded partial word).
        let mut rng = StdRng::seed_from_u64(30);
        let buf: Vec<u8> = (0..4096 + 13).map(|_| rng.gen_range(0..=255u8)).collect();
        let clean = chunk_checksum(&buf);
        let mut flipped = buf.clone();
        for i in 0..buf.len() {
            let masks = (0..8).map(|b| 1u8 << b).chain([0xA5, 0xFF]);
            for mask in masks {
                flipped[i] ^= mask;
                assert_ne!(chunk_checksum(&flipped), clean, "byte {i} ^ {mask:#04x} undetected");
                flipped[i] ^= mask;
            }
        }
        // Corruption spread over a whole aligned word, in a round and in
        // the tail.
        for word in [0, 8 * 37, 4096, 4096 + 8] {
            let end = (word + 8).min(buf.len());
            for b in &mut flipped[word..end] {
                *b = !*b;
            }
            assert_ne!(chunk_checksum(&flipped), clean, "word at {word} undetected");
            flipped[word..end].copy_from_slice(&buf[word..end]);
        }
        // The length is hashed: zero runs of different lengths differ.
        let zeros = vec![0u8; 300];
        let sums: std::collections::HashSet<u64> =
            (0..=zeros.len()).map(|n| chunk_checksum(&zeros[..n])).collect();
        assert_eq!(sums.len(), zeros.len() + 1);
    }

    #[test]
    fn writer_chunks_and_rereads() {
        let cfg = SpillConfig { chunk_rows: 3, window_chunks: 2, ..SpillConfig::default() };
        let f = spill(2, (0..10u32).map(|i| (vec![i, i + 1], u64::from(i) * 10)).collect(), cfg);
        assert_eq!(f.len(), 10);
        assert_eq!(values(&f).inner.chunks.len(), 4); // 3+3+3+1
        for i in 0..10u32 {
            assert_eq!(f.col(i as usize, 0), i);
            assert_eq!(f.col(i as usize, 1), i + 1);
            assert_eq!(values(&f).value_owned(i as usize), u64::from(i) * 10);
        }
        assert_eq!(f.max_in_column(0), Some(9));
        assert_eq!(f.max_in_column(1), Some(10));
        // The LRU window bounds residency to at most 2 chunks.
        let stats = f.spill_stats().unwrap();
        assert!(stats.reads >= 4, "each plain values chunk and each level faulted at least once");
        assert!(values(&f).inner.window.cache.lock().unwrap().map.len() <= 2);
    }

    #[test]
    fn spill_dir_removed_on_drop() {
        let cfg = SpillConfig { chunk_rows: 2, ..SpillConfig::default() };
        let f = spill(1, vec![(vec![1], 1u64), (vec![2], 2)], cfg);
        let path = values(&f).spill_dir().path().to_path_buf();
        assert!(path.exists());
        let clone = f.clone();
        drop(f);
        assert!(path.exists(), "clone still holds the directory");
        drop(clone);
        assert!(!path.exists(), "last handle removes the spill directory");
    }

    #[test]
    fn injected_transient_fault_is_retried_and_absorbed() {
        let cfg = SpillConfig { chunk_rows: 4, window_chunks: 1, ..SpillConfig::default() };
        let f = spill(1, (0..8u32).map(|i| (vec![i], u64::from(i))).collect(), cfg);
        let retries_before = fault::io_retries();
        let _g = FaultPlan::seeded(5).fail_transient(1.0).arm([&f]);
        for i in 0..8usize {
            assert_eq!(values(&f).value_owned(i), i as u64, "retry absorbs the transient failure");
        }
        assert!(fault::io_retries() > retries_before, "each faulted read counted a retry");
    }

    #[test]
    fn injected_corruption_surfaces_typed_error() {
        let cfg = SpillConfig { chunk_rows: 4, window_chunks: 1, ..SpillConfig::default() };
        let f = spill(1, (0..4u32).map(|i| (vec![i], 7u64)).collect(), cfg);
        let corrupt_before = fault::corrupt_chunks();
        let _g = FaultPlan::seeded(5).corrupt(1.0).arm([&f]);
        // A key read pins a level chunk (entry 1 is no resident head
        // sample); the values chunk's one value is resident and faults
        // nothing.
        let r = fault::guarded(None, None, || f.col(1, 0));
        match r {
            Err(QueryAbort::Storage(StorageError::Corrupt { chunk: 0, .. })) => {}
            other => panic!("expected a corrupt-chunk abort, got {other:?}"),
        }
        assert!(fault::corrupt_chunks() > corrupt_before);
        drop(_g);
        assert_eq!(f.col(1, 0), 1, "the data at rest was never harmed");
        assert_eq!(values(&f).value_owned(0), 7);
    }

    #[test]
    fn injected_hard_failure_surfaces_typed_io_error() {
        let cfg = SpillConfig { chunk_rows: 4, window_chunks: 1, ..SpillConfig::default() };
        let f = spill(1, (0..4u32).map(|i| (vec![i], 7u64)).collect(), cfg);
        let _g = FaultPlan::seeded(5).fail_hard(1.0).arm([&f]);
        match fault::guarded(None, None, || f.col(1, 0)) {
            Err(QueryAbort::Storage(StorageError::Io { op: "read chunk", attempts, .. })) => {
                assert_eq!(attempts, MAX_IO_ATTEMPTS);
            }
            other => panic!("expected a hard I/O abort, got {other:?}"),
        }
    }

    #[test]
    fn uniform_chunk_value_reads_fault_nothing() {
        let cfg = SpillConfig { chunk_rows: 4, window_chunks: 1, ..SpillConfig::default() };
        let f = spill(1, (0..8u32).map(|i| (vec![i], 7u64)).collect(), cfg);
        let _g = FaultPlan::seeded(5).fail_hard(1.0).arm([&f]);
        for i in 0..8 {
            assert_eq!(fault::guarded(None, None, || values(&f).value_owned(i)), Ok(7), "row {i}");
        }
        // This factor's own read count: `chunk_reads` is process-wide, and
        // the other tests of this binary fault chunks concurrently.
        assert_eq!(f.spill_stats().unwrap().reads, 0, "a uniform chunk's value is resident");
        assert_eq!(f.spill_stats().unwrap().resident_bytes, 0, "nothing was pinned");
    }

    #[test]
    fn non_uniform_chunk_value_reads_still_fault() {
        let cfg = SpillConfig { chunk_rows: 4, window_chunks: 1, ..SpillConfig::default() };
        let f =
            spill(1, (0..4u32).map(|i| (vec![i], if i == 2 { 8u64 } else { 7 })).collect(), cfg);
        let _g = FaultPlan::seeded(5).fail_hard(1.0).arm([&f]);
        match fault::guarded(None, None, || values(&f).value_owned(0)) {
            Err(QueryAbort::Storage(StorageError::Io { op: "read chunk", attempts, .. })) => {
                assert_eq!(attempts, MAX_IO_ATTEMPTS);
            }
            other => panic!("expected a hard I/O abort, got {other:?}"),
        }
    }

    #[test]
    fn mixed_uniform_and_plain_chunks_round_trip() {
        // Four values a chunk: all equal; all equal but one middle value; 0.0
        // beside -0.0 (equal as `f64`, not as bytes); a 1-row tail.
        let vals = [2.5, 2.5, 2.5, 2.5, 1.0, 1.0, 3.0, 1.0, 0.0, -0.0, 0.0, 0.0, 4.0];
        let cfg = SpillConfig { chunk_rows: 4, window_chunks: 1, ..SpillConfig::default() };
        let rows = vals.iter().enumerate().map(|(i, &v)| (vec![i as u32, 9], v)).collect();
        let f = spill(2, rows, cfg);
        let uniform = |f: &Factor<f64>| {
            values(f).inner.chunks.iter().map(|c| c.uniform.is_some()).collect::<Vec<_>>()
        };
        assert_eq!(uniform(&f), [true, false, false, true]);
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
        for (i, &v) in vals.iter().enumerate() {
            assert!(same(values(&f).value_owned(i), v), "row {i}");
            assert_eq!(f.col(i, 0), i as u32);
        }
        let mut i = 0;
        f.for_each_row_grouped(true, &[], &mut |row, &got| {
            assert!(same(got, vals[i]), "walked row {i}");
            assert_eq!(row, [i as u32, 9]);
            i += 1;
        });
        assert_eq!(i, vals.len());
        // 8 B of value a row in the two plain chunks, then the levels: 12 B
        // an interior entry (13 distinct first keys), 4 B a leaf one.
        assert_eq!(f.spill_stats().unwrap().file_bytes, 8 * 8 + 13 * 12 + 13 * 4);

        // A delta merge writes its output afresh, and each of its chunks
        // decides its uniformity: chunk 1 becomes uniform, the new tail
        // (5.0, 6.0) is not.
        let schema = f.schema().to_vec();
        let puts = [(6, 1.0), (12, 5.0), (13, 6.0)];
        let entries = puts.iter().map(|&(i, v)| (vec![i, 9], crate::DeltaOp::Put(v))).collect();
        let delta = crate::DeltaFactor::new(schema, entries).unwrap();
        let (spliced, _) = delta.apply_to(&f, |a, b| a + b, |&x| x == 0.0);
        let heap = f.map_values(f64::clone, |_| false);
        assert_eq!(spliced, delta.apply_to(&heap, |a, b| a + b, |&x| x == 0.0).0);
        assert!(spliced.is_spilled(), "merging into a spilled factor stays spilled");
        assert_eq!(uniform(&spliced), [true, true, false, false]);
        assert_eq!(spliced.spill_stats().unwrap().file_bytes, 6 * 8 + 14 * 12 + 14 * 4);
        let mut want = vals.to_vec();
        want[6] = 1.0;
        want[12] = 5.0;
        want.push(6.0);
        for (i, &v) in want.iter().enumerate() {
            assert!(same(values(&spliced).value_owned(i), v), "spliced row {i}");
        }
    }

    #[test]
    fn deadline_checkpoint_fires_at_chunk_fault_in() {
        let cfg = SpillConfig { chunk_rows: 2, window_chunks: 1, ..SpillConfig::default() };
        let f = spill(1, (0..4u32).map(|i| (vec![i], 1u64)).collect(), cfg);
        let expired = Some(fault::Deadline::after(std::time::Duration::ZERO));
        assert_eq!(
            fault::guarded(expired, None, || f.col(1, 0)),
            Err(QueryAbort::DeadlineExceeded),
            "an expired deadline aborts at the fault-in checkpoint"
        );
    }

    #[test]
    fn a_pinned_level_chunk_is_4_bytes_a_leaf_entry_and_12_an_interior_one() {
        // 128 values of x with two ys each: level 0 spans two whole 64-entry
        // chunks, the deepest level four.
        let rows = (0..128u32).flat_map(|x| [(vec![x, 0], 1u64), (vec![x, 1], 1)]).collect();
        let config = SpillConfig { level_chunk_entries: 64, ..SpillConfig::default() };
        let f = crate::Factor::new(vec![faq_hypergraph::Var(0), faq_hypergraph::Var(1)], rows)
            .unwrap()
            .to_spilled(config);
        for (d, entry_bytes) in [(0, 12), (1, 4)] {
            let FactorLevel::Disk(level) = f.trie().level(d).storage() else {
                panic!("a spilled factor's levels are on disk");
            };
            assert_eq!(level.inner.window.resident_bytes(), 0, "level {d}: nothing pinned yet");
            level.value(1); // not a head sample: pins chunk 0
            assert_eq!(level.inner.window.resident_bytes(), 64 * entry_bytes, "level {d}");
        }
    }

    /// The window is locked to look a chunk up and to insert it, never
    /// across a read: while one worker waits on a slow fault-in of a level
    /// chunk, another's pin of a resident chunk of that level returns at once.
    #[test]
    fn a_slow_fault_in_does_not_block_a_resident_pin() {
        use std::time::{Duration, Instant};
        let rows = (0..256u32).map(|x| (vec![x], 1u64)).collect();
        let config =
            SpillConfig { level_chunk_entries: 64, window_chunks: 4, ..SpillConfig::default() };
        let f = spill(1, rows, config);
        let FactorLevel::Disk(level) = f.trie().level(0).storage() else {
            panic!("a spilled factor's levels are on disk");
        };
        assert_eq!(level.value(1), 1, "pins chunk 0");
        let delay = Duration::from_millis(500);
        let _g = FaultPlan::seeded(3).delay(1.0, delay.as_micros() as u64).arm([&f]);
        std::thread::scope(|s| {
            // Fault chunk 1, delayed. The sleep gives the slow read time to
            // reach its delay; were it later, the pin below would only pass
            // the more easily.
            let slow = s.spawn(|| level.value(65));
            std::thread::sleep(Duration::from_millis(100));
            let start = Instant::now();
            assert_eq!(level.value(1), 1);
            let waited = start.elapsed();
            assert!(waited < delay / 4, "a resident pin waited {waited:?} on another read");
            assert_eq!(slow.join().unwrap(), 65);
        });
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
