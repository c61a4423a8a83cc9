//! The part every workload shares: set-up repetition, the measured run, the
//! traced run, and the one-line result the driver reads.

use crate::json::Json;
use crate::span::{self, Tracer};
use crate::{config, metrics, stats};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What one measured phase produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// One latency per op that counts towards `op_ms_p50/p90`.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    /// Ops that errored, were refused, answered wrongly or (open loop)
    /// finished past the limit.
    pub failed: u64,
    /// When each correct op of the closed-loop phase completed, in seconds on
    /// that phase's clock: time the program spent on ops (checks excluded)
    /// for a single client, wall time for concurrent requests.
    pub closed_done: Vec<f64>,
    /// Per-layer numbers observed during the run itself.
    pub notes: Vec<(&'static str, f64)>,
}

/// Per-layer metrics of one traced run, by name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(metrics::PER_LAYER.iter().any(|m| m.name == name), "unknown layer metric {name}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;

    /// Digest of the generated inputs for `seed` (pinned by `tests/pins.rs`).
    fn fingerprint(seed: u64) -> u64;

    /// Everything before the first timed op: instance generation, factor,
    /// trie and spill builds, server start and registration, warm-up.
    fn setup(seed: u64, scratch: &Path) -> Self;

    /// Compute the expected answers. Not part of set-up time: the oracle is
    /// the benchmark's work, not the program's.
    fn prepare_oracle(&mut self);

    /// Run ops for `secs` seconds, checking every answer outside the timed
    /// interval of its op.
    fn run(&mut self, secs: f64, tracer: &mut Tracer) -> Measured;

    /// One untimed op on one engine thread, where its allocation count
    /// repeats exactly.
    fn op_sequential(&mut self);

    /// The per-layer probes of the traced run.
    fn layers(&mut self, out: &mut Layers);
}

/// A closed loop of one client: `op` back to back for `secs` seconds, each
/// answer handed to `correct` after its op's timed interval has ended.
pub fn closed_loop<T>(
    secs: f64,
    mut op: impl FnMut() -> T,
    mut correct: impl FnMut(T) -> bool,
) -> Measured {
    let mut m = Measured::default();
    let mut busy = 0.0;
    let began = Instant::now();
    while began.elapsed().as_secs_f64() < secs {
        let t = Instant::now();
        let out = op();
        let took = t.elapsed().as_secs_f64();
        m.attempted += 1;
        busy += took;
        if correct(out) {
            m.closed_done.push(busy);
            m.latencies_ms.push(took * 1e3);
        } else {
            m.failed += 1;
        }
    }
    m
}

/// `benchmark/out`, created on demand; everything the benchmark writes
/// (results, traces, spill files, temp files) goes under it.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median wall time of `f` in seconds over `reps` runs (at least one).
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// [`time_median`] of `f` alone, on a fresh `setup()` value each time.
pub fn time_median_with<S, T>(
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let input = setup();
            let t = Instant::now();
            std::hint::black_box(f(input));
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// [`time_median`] with the repetition count fitted to the cost of `f`: one
/// probe run, then as many as fit in ~0.2 s, between 3 and 15.
pub fn time_auto<T>(mut f: impl FnMut() -> T) -> f64 {
    let probe = time_median(1, &mut f);
    let reps = ((0.2 / probe.max(1e-9)) as usize).clamp(3, 15);
    time_median(reps, f)
}

/// One result line: the object the driver parses.
pub struct RunResult {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Samples behind the percentiles (printed, not part of the contract).
    pub samples: usize,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|&(name, value)| {
            let unit = metrics::find(name).expect("declared metric").unit;
            (name, Json::obj([("value", Json::Num(value)), ("unit", Json::Str(unit.into()))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Every metric by name with its unit, for people.
    pub fn print_table(&self) {
        eprintln!(
            "{}: attempted {} failed {} samples {}",
            self.workload, self.attempted, self.failed, self.samples
        );
        for &(name, value) in &self.metrics {
            let unit = metrics::find(name).expect("declared metric").unit;
            eprintln!("  {name:<34} {value:>16.4} {unit}");
        }
    }
}

/// Every reported number of a run is a median over this many consecutive
/// blocks of the run. The sandbox's interference comes in bursts of about a
/// second; a whole-run mean or 90th percentile moves with every burst, the
/// median of per-block values only once bursts reach half the blocks.
const BLOCKS: usize = 9;

/// Correct ops per second of the closed-loop phase: the median, over
/// [`BLOCKS`] runs of equally many completions, of the run's rate.
pub fn throughput(done: &[f64]) -> f64 {
    assert!(!done.is_empty(), "a run must complete at least one closed-loop op");
    let per = done.len() / BLOCKS;
    if per < 2 {
        return done.len() as f64 / done[done.len() - 1].max(1e-9);
    }
    let rates: Vec<f64> = (0..BLOCKS)
        .map(|b| {
            let start = if b == 0 { 0.0 } else { done[b * per - 1] };
            per as f64 / (done[(b + 1) * per - 1] - start).max(1e-9)
        })
        .collect();
    stats::median(&rates)
}

/// Nearest-rank percentile `p` of `latencies` (in completion order): the
/// median over [`BLOCKS`] blocks of equally many consecutive samples of the
/// block's percentile; of all samples when a block would hold under five.
pub fn block_percentile(latencies: &[f64], p: f64) -> f64 {
    let per = latencies.len() / BLOCKS;
    if per < 5 {
        return stats::percentile(&stats::sorted(latencies.to_vec()), p);
    }
    let per_block: Vec<f64> = latencies
        .chunks_exact(per)
        .take(BLOCKS)
        .map(|block| stats::percentile(&stats::sorted(block.to_vec()), p))
        .collect();
    stats::median(&per_block)
}

fn summarize(m: &Measured) -> (f64, f64, f64) {
    assert!(!m.latencies_ms.is_empty(), "a run must complete at least one op");
    (
        block_percentile(&m.latencies_ms, 0.50),
        block_percentile(&m.latencies_ms, 0.90),
        throughput(&m.closed_done),
    )
}

/// `VmHWM` since the last call (or process start), in MiB: reads the peak,
/// then resets it to the current resident size through
/// `/proc/self/clear_refs`. Where the reset is refused, peaks only ever grow
/// and every reading is the peak since process start.
fn take_peak_rss_mb() -> f64 {
    let peak = peak_rss_mb();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    peak
}

/// `f()` and the process's resident high-water mark while it ran: the median
/// of the peaks of consecutive 250 ms windows. A plain `VmHWM` is a maximum,
/// so one stalled worker thread (epoch snapshots pile up behind it) sets it
/// for the whole run; the median window is what the program holds when the
/// host lets it run.
fn with_window_peaks<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let stop = AtomicBool::new(false);
    take_peak_rss_mb();
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peaks = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(250));
                peaks.push(take_peak_rss_mb());
            }
            stats::median(&peaks)
        });
        let out = f();
        stop.store(true, Ordering::SeqCst);
        (out, sampler.join().expect("sampler thread"))
    })
}

/// The untraced run: repeated set-up, then `secs` seconds of ops.
pub fn run_untraced<W: Workload>(seed: u64, secs: f64) -> RunResult {
    let scratch = out_dir();
    let mut setups = Vec::new();
    let mut w = None;
    let began = Instant::now();
    while setups.len() < config::SETUP_MIN_RUNS
        || (began.elapsed().as_secs_f64() < config::SETUP_MIN_SECS
            && setups.len() < config::SETUP_MAX_RUNS)
    {
        drop(w.take()); // one instance alive at a time, as in a real start
        let t = Instant::now();
        w = Some(W::setup(seed, &scratch));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("set-up ran");
    let setup_peak = take_peak_rss_mb();
    w.prepare_oracle();
    let (m, run_peak) = with_window_peaks(|| w.run(secs, &mut Tracer::off()));
    let (p50, p90, ops_per_s) = summarize(&m);
    drop(w);
    RunResult {
        workload: W::NAME,
        attempted: m.attempted,
        failed: m.failed,
        samples: m.latencies_ms.len(),
        metrics: vec![
            ("op_ms_p50", p50),
            ("op_ms_p90", p90),
            ("ops_per_s", ops_per_s),
            ("peak_rss_mb", setup_peak.max(run_peak)),
            ("setup_s", stats::median(&setups)),
        ],
    }
}

/// Allocations of one sequential op; meaningful only in the `allocs` binary,
/// which installs the counting allocator.
pub fn count_allocs<W: Workload>(seed: u64) -> u64 {
    let mut w = W::setup(seed, &out_dir());
    let before = crate::api::counters::allocations();
    w.op_sequential();
    crate::api::counters::allocations() - before
}

/// `factor.allocs_per_op` from the sibling `allocs` binary: the counting
/// allocator is installed nowhere else, so no timed number pays for it.
fn allocs_per_op(workload: &str, seed: u64) -> Option<f64> {
    let exe = std::env::current_exe().ok()?.with_file_name("allocs");
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    String::from_utf8_lossy(&out.stdout).trim().parse().ok()
}

/// The traced run: a short untraced phase, the same phase with spans on
/// (their ratio is the tracing overhead), then the per-layer probes. Spans go
/// to `out/trace-<workload>.json`.
pub fn run_traced<W: Workload>(seed: u64, secs: f64) -> RunResult {
    let scratch = out_dir();
    let mut w = W::setup(seed, &scratch);
    w.prepare_oracle();
    let phase = (secs / 4.0).max(1.0);
    let plain = w.run(phase, &mut Tracer::off());
    let mut tracer = Tracer::new(true, Instant::now());
    let traced = w.run(phase, &mut tracer);
    let mut layers = Layers::default();
    w.layers(&mut layers);
    for &(name, value) in plain.notes.iter().chain(&traced.notes) {
        layers.set(name, value);
    }
    let (p50_plain, ..) = summarize(&plain);
    let (p50_traced, ..) = summarize(&traced);
    layers.set("driver.trace_overhead_share", p50_traced / p50_plain - 1.0);
    layers.set("driver.samples", traced.latencies_ms.len() as f64);
    match allocs_per_op(W::NAME, seed) {
        Some(n) => layers.set("factor.allocs_per_op", n),
        None => eprintln!("warning: no `allocs` binary beside this one (build with --bins); factor.allocs_per_op reads 0"),
    }
    layers.set("factor.io_retries", crate::api::counters::io_retries() as f64);
    layers.set("factor.corrupt_chunks", crate::api::counters::corrupt_chunks() as f64);

    let by_name = span::by_name(tracer.spans());
    let ops = traced.attempted.max(1) as f64;
    let table: Vec<Json> = by_name
        .iter()
        .map(|(name, &(count, total, own))| {
            Json::obj([
                ("span", Json::Str((*name).to_owned())),
                ("per_op", Json::Num(count as f64 / ops)),
                ("ms_per_op", Json::Num(total as f64 / 1e6 / ops)),
                ("self_ms_per_op", Json::Num(own as f64 / 1e6 / ops)),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("workload", Json::Str(W::NAME.to_owned())),
        ("seed", Json::Num(seed as f64)),
        ("ops", Json::Num(ops)),
        ("op_ms_p50_untraced", Json::Num(p50_plain)),
        ("op_ms_p50_traced", Json::Num(p50_traced)),
        ("by_span", Json::Arr(table)),
        ("spans", span::to_json(tracer.spans())),
    ]);
    std::fs::write(scratch.join(format!("trace-{}.json", W::NAME)), doc.to_string())
        .expect("write the trace file");

    let failed = plain.failed + traced.failed;
    drop(w);
    RunResult {
        workload: W::NAME,
        attempted: plain.attempted + traced.attempted,
        failed,
        samples: traced.latencies_ms.len(),
        // A metric that does not apply to this workload reads 0.
        metrics: metrics::PER_LAYER
            .iter()
            .map(|m| (m.name, layers.get(m.name).unwrap_or(0.0)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_the_median_block_rate() {
        // 90 completions at 10/s, except a stall of 5 s before the 46th.
        let mut t = 0.0;
        let done: Vec<f64> = (0..90)
            .map(|i| {
                t += if i == 45 { 5.1 } else { 0.1 };
                t
            })
            .collect();
        assert!((throughput(&done) - 10.0).abs() < 1e-6, "{}", throughput(&done));
        // Too few completions for blocks: the plain rate.
        assert!((throughput(&[0.5, 1.0, 1.5]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn block_percentiles_shrug_off_a_burst() {
        // 90 samples of 10 ms with a burst of twelve 60 ms ops in the middle:
        // the pooled p90 is inside the burst, the block median is not.
        let mut lat = vec![10.0; 90];
        lat[40..52].fill(60.0);
        assert_eq!(stats::percentile(&stats::sorted(lat.clone()), 0.9), 60.0);
        assert_eq!(block_percentile(&lat, 0.9), 10.0);
        assert_eq!(block_percentile(&lat, 0.5), 10.0);
        // Too few samples for blocks: the pooled percentile.
        assert_eq!(block_percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    }
}
