//! `serve_read` and `serve_write`: a `FaqServer` over the `tri_count` catalog
//! with `nproc` workers and three registered queries — 2-path count,
//! triangle count, per-vertex triangle count (one free variable).
//!
//! `serve_read` bypasses the result cache. Phase A is a closed loop with
//! `2 × nproc` requests outstanding and gives `ops_per_s`; phase B is an open
//! loop at the frozen rate [`SERVE_OPEN_QPS`] and gives `op_ms_p50/p90`,
//! each request timed from when it was *due*, so a stall charges the
//! requests queued behind it. One thread generates, one collects.
//!
//! `serve_write` shares the cache. Its op is one `publish_delta` from a
//! closed-loop writer that cycles 1-row insert, 1-row delete (twice), a
//! 64-row batch on `R` (anchored on the leading join variable) and a 1-row
//! change on `S` (non-leading anchor: the step is recomputed whole). 4 of 6
//! publishes are 1-row and the slowest class is 1 of 6, so the median sits
//! inside the 1-row class and the 90th percentile inside the slowest, not on
//! a boundary between classes. A background reader at [`SERVE_READER_QPS`]
//! has every answer checked against the hand-maintained oracle at the epoch
//! the answer is tagged with.

use crate::api::{self, Agg, Cache, Delta, Qid, Served, Server, Tenant, Ticket};
use crate::config::{
    POLL_INTERVAL_US, SERVE_BATCH_ROWS, SERVE_CATALOG, SERVE_CLOSED_DEPTH, SERVE_CLOSED_SHARE,
    SERVE_LIMIT_MS, SERVE_MAX_IN_FLIGHT, SERVE_OPEN_QPS, SERVE_READER_QPS, WARMUP_OPS,
};
use crate::gen::{Relation, Rng, Triangle};
use crate::harness::{time_auto, Layers, Measured, Workload};
use crate::layers::{self, LayerInput, QueryDef};
use crate::oracle::{Answers, Digest, TriangleOracle};
use crate::span::Tracer;
use crate::workloads::{raw_catalog, unit_factor};
use crate::{delta_layers, nproc, stats};
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The registered queries, in registration order.
const KINDS: usize = 3;
const PATHS2: usize = 0;
const TRIANGLES: usize = 1;
const PER_VERTEX: usize = 2;

fn query_defs(nodes: u32) -> [QueryDef; KINDS] {
    let sum = |vars: &[u32]| vars.iter().map(|&v| (v, Agg::Sum)).collect::<Vec<_>>();
    let def = |free: &[u32], bound: &[u32], factors: &[usize]| QueryDef {
        domains: vec![nodes; 3],
        free: free.to_vec(),
        bound: sum(bound),
        factors: factors.to_vec(),
    };
    [
        def(&[], &[0, 1, 2], &[0, 1]),
        def(&[], &[0, 1, 2], &[0, 1, 2]),
        def(&[0], &[1, 2], &[0, 1, 2]),
    ]
}

/// A served answer reduced to what the oracle can check.
fn digest(out: &Served) -> Digest {
    let mut d = Digest::default();
    out.for_each(|row, &val| d.add(row, val));
    d
}

fn expected(kind: usize, a: &Answers) -> Digest {
    let scalar = |x: u64| {
        let mut d = Digest::default();
        if x > 0 {
            d.add(&[], x);
        }
        d
    };
    match kind {
        PATHS2 => scalar(a.paths2),
        TRIANGLES => scalar(a.triangles),
        PER_VERTEX => a.per_vertex,
        _ => unreachable!("three registered queries"),
    }
}

/// Request kinds in equal shares: each block of three is a seeded
/// permutation, so the mix is exact and has no fixed phase against the
/// server's round-robin dispatch.
struct KindCycle {
    rng: Rng,
    block: [usize; KINDS],
    at: usize,
}

impl KindCycle {
    fn new(seed: u64) -> KindCycle {
        KindCycle { rng: Rng::new(seed), block: [0, 1, 2], at: KINDS }
    }

    fn next(&mut self) -> usize {
        if self.at == KINDS {
            for i in (1..KINDS).rev() {
                self.block.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
            self.at = 0;
        }
        self.at += 1;
        self.block[self.at - 1]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PublishClass {
    Small,
    Batch,
    NonLeading,
}

/// The writer's delta stream. It only inserts pairs absent from the base
/// relation and deletes what it inserted, so absence is a binary search in
/// the base rows plus the few pairs currently inserted; after every twelfth
/// delta the catalog is back at its base state.
struct DeltaStream {
    rng: Rng,
    nodes: u32,
    step: u64,
    single: Option<(u32, u32)>,
    batch: Option<Vec<(u32, u32)>>,
    s_edge: Option<(u32, u32)>,
}

/// What a delta does to the oracle: `(slot, insert?, pairs)`.
type Change = (usize, bool, Vec<(u32, u32)>);

impl DeltaStream {
    fn new(seed: u64, nodes: u32) -> DeltaStream {
        DeltaStream {
            rng: Rng::new(seed ^ 0xD317A),
            nodes,
            step: 0,
            single: None,
            batch: None,
            s_edge: None,
        }
    }

    fn absent(&mut self, rel: &Relation, taken: &[(u32, u32)]) -> (u32, u32) {
        loop {
            let n = u64::from(self.nodes);
            let p = (self.rng.below(n) as u32, self.rng.below(n) as u32);
            if !rel.has_pair(p) && !taken.contains(&p) {
                return p;
            }
        }
    }

    fn at_base(&self) -> bool {
        self.single.is_none() && self.batch.is_none() && self.s_edge.is_none()
    }

    fn next(&mut self, inst: &Triangle) -> (PublishClass, Change) {
        let phase = self.step % 6;
        self.step += 1;
        match phase {
            0 | 2 => {
                let taken = self.batch.clone().unwrap_or_default();
                let p = self.absent(&inst.r, &taken);
                self.single = Some(p);
                (PublishClass::Small, (0, true, vec![p]))
            }
            1 | 3 => {
                let p = self.single.take().expect("an insert precedes each delete");
                (PublishClass::Small, (0, false, vec![p]))
            }
            4 => match self.batch.take() {
                Some(pairs) => (PublishClass::Batch, (0, false, pairs)),
                None => {
                    let mut set = BTreeSet::new();
                    while set.len() < SERVE_BATCH_ROWS {
                        set.insert(self.absent(&inst.r, &[]));
                    }
                    let pairs: Vec<(u32, u32)> = set.into_iter().collect();
                    self.batch = Some(pairs.clone());
                    (PublishClass::Batch, (0, true, pairs))
                }
            },
            _ => match self.s_edge.take() {
                Some(p) => (PublishClass::NonLeading, (1, false, vec![p])),
                None => {
                    let p = self.absent(&inst.s, &[]);
                    self.s_edge = Some(p);
                    (PublishClass::NonLeading, (1, true, vec![p]))
                }
            },
        }
    }
}

fn delta_of(inst: &Triangle, (slot, insert, pairs): &Change) -> Delta<u64> {
    let schema = &inst.relations()[*slot].schema;
    if *insert {
        Delta::inserts(schema, pairs.iter().map(|&(x, y)| (vec![x, y], 1u64)).collect())
    } else {
        Delta::deletes(schema, pairs.iter().map(|&(x, y)| vec![x, y]).collect())
    }
}

fn apply_to_oracle(o: &mut TriangleOracle, (slot, insert, pairs): &Change) {
    for &(x, y) in pairs {
        match (*slot, *insert) {
            (0, true) => o.insert_r(x, y),
            (0, false) => o.delete_r(x, y),
            (_, true) => o.insert_s(x, y),
            (_, false) => o.delete_s(x, y),
        }
    }
}

pub struct Serve<const WRITE: bool> {
    inst: Triangle,
    server: Server,
    tenant: Tenant,
    qids: [Qid; KINDS],
    workers: usize,
    kinds: KindCycle,
    stream: DeltaStream,
    oracle: Option<TriangleOracle>,
    /// Expected answers by epoch (`serve_write` publishes one per delta).
    history: HashMap<u64, Answers>,
    /// `(kind, send-to-answer ms)` of the last open-loop phase.
    last_requests: Vec<(usize, f64)>,
    ops: u64,
}

pub type ServeRead = Serve<false>;
pub type ServeWrite = Serve<true>;

/// One request in flight, as the collector tracks it.
struct Pending {
    ticket: Ticket,
    kind: usize,
    id: u64,
    due: Instant,
    sent: (Instant, Instant),
}

/// What the collector makes of one finished request.
struct Finished {
    kind: usize,
    ok: bool,
    /// Milliseconds from due time / from send time to the observed answer.
    from_due_ms: f64,
    from_send_ms: f64,
    reported_ms: f64,
}

impl<const WRITE: bool> Serve<WRITE> {
    fn cache() -> Cache {
        if WRITE {
            Cache::Shared
        } else {
            Cache::Bypass
        }
    }

    fn submit(&mut self, kind: usize, due: Instant) -> Result<Pending, String> {
        self.ops += 1;
        let t0 = Instant::now();
        let ticket = self.server.submit(&self.tenant, self.qids[kind], Self::cache())?;
        Ok(Pending { ticket, kind, id: self.ops, due, sent: (t0, Instant::now()) })
    }

    /// Poll `p`; a ready answer is checked, spanned and returned.
    fn collect(p: &Pending, answers: &Answers, tracer: &mut Tracer) -> Option<Finished> {
        let result = p.ticket.poll()?;
        let done = Instant::now();
        let root = tracer.record("request", (p.due, done), None, p.id);
        tracer.record("driver.late", (p.due, p.sent.0), root, p.id);
        tracer.record("serve.submit", p.sent, root, p.id);
        tracer.record("serve.wait", (p.sent.1, done), root, p.id);
        let (ok, reported_ms) = match &result {
            Ok(out) => (digest(out) == expected(p.kind, answers), out.latency.as_secs_f64() * 1e3),
            Err(_) => (false, 0.0),
        };
        Some(Finished {
            kind: p.kind,
            ok,
            from_due_ms: done.duration_since(p.due).as_secs_f64() * 1e3,
            from_send_ms: done.duration_since(p.sent.0).as_secs_f64() * 1e3,
            reported_ms,
        })
    }

    /// Phase A: `SERVE_CLOSED_DEPTH × workers` requests outstanding for `secs`
    /// seconds.
    fn closed_loop(&mut self, secs: f64, answers: &Answers, tracer: &mut Tracer, m: &mut Measured) {
        let began = Instant::now();
        let mut pending: Vec<Pending> = Vec::new();
        loop {
            while pending.len() < SERVE_CLOSED_DEPTH * self.workers
                && began.elapsed().as_secs_f64() < secs
            {
                let kind = self.kinds.next();
                m.attempted += 1;
                match self.submit(kind, Instant::now()) {
                    Ok(p) => pending.push(p),
                    Err(_) => m.failed += 1,
                }
            }
            if pending.is_empty() {
                break;
            }
            let before = pending.len();
            pending.retain(|p| match Self::collect(p, answers, tracer) {
                Some(f) => {
                    if f.ok {
                        m.closed_done.push(began.elapsed().as_secs_f64());
                    } else {
                        m.failed += 1;
                    }
                    false
                }
                None => true,
            });
            if pending.len() == before {
                std::thread::sleep(Duration::from_micros(POLL_INTERVAL_US));
            }
        }
    }

    /// Phase B: one request every `1/SERVE_OPEN_QPS` s for `secs` seconds,
    /// whatever the server does. This thread generates; a second collects.
    fn open_loop(&mut self, secs: f64, answers: &Answers, tracer: &mut Tracer, m: &mut Measured) {
        let interval = Duration::from_secs_f64(1.0 / SERVE_OPEN_QPS);
        let total = (secs * SERVE_OPEN_QPS) as u32;
        let (tx, rx) = mpsc::channel::<Pending>();
        let mut collector_tracer = tracer.fork();
        let mut lateness_ms = Vec::with_capacity(total as usize);
        let mut refused = 0u64;
        let answers = *answers;
        let (finished, collector_tracer) = std::thread::scope(|s| {
            let collector = s.spawn(move || {
                let mut pending: Vec<Pending> = Vec::new();
                let mut finished = Vec::new();
                let mut open = true;
                while open || !pending.is_empty() {
                    loop {
                        match rx.try_recv() {
                            Ok(p) => pending.push(p),
                            Err(mpsc::TryRecvError::Empty) => break,
                            Err(mpsc::TryRecvError::Disconnected) => {
                                open = false;
                                break;
                            }
                        }
                    }
                    let before = finished.len();
                    pending.retain(|p| match Self::collect(p, &answers, &mut collector_tracer) {
                        Some(f) => {
                            finished.push(f);
                            false
                        }
                        None => true,
                    });
                    if finished.len() == before {
                        std::thread::sleep(Duration::from_micros(POLL_INTERVAL_US));
                    }
                }
                (finished, collector_tracer)
            });
            let start = Instant::now();
            for k in 0..total {
                let due = start + interval * k;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let kind = self.kinds.next();
                match self.submit(kind, due) {
                    Ok(p) => {
                        lateness_ms
                            .push(p.sent.0.saturating_duration_since(due).as_secs_f64() * 1e3);
                        tx.send(p).expect("collector outlives the generator");
                    }
                    Err(_) => refused += 1,
                }
            }
            drop(tx);
            collector.join().expect("collector thread")
        });
        tracer.absorb(collector_tracer);
        m.attempted += u64::from(total);
        m.failed += refused;
        self.last_requests.clear();
        let mut reported = Vec::new();
        for f in &finished {
            if f.ok && f.from_due_ms <= SERVE_LIMIT_MS {
                m.latencies_ms.push(f.from_due_ms);
            } else {
                m.failed += 1;
            }
            self.last_requests.push((f.kind, f.from_send_ms));
            reported.push(f.reported_ms);
        }
        let p = |xs: Vec<f64>, q: f64| stats::percentile(&stats::sorted(xs), q);
        m.notes.push(("driver.lateness_ms_p90", p(lateness_ms, 0.9)));
        m.notes.push(("serve.reported_latency_ms_p50", p(reported, 0.5)));
    }

    fn stat_notes(&self, live_epochs_max: usize, m: &mut Measured) {
        let s = self.server.stats();
        let answered = (s.cache_hits + s.evaluated + s.coalesced).max(1) as f64;
        m.notes.extend([
            ("serve.cache_hit_share", s.cache_hits as f64 / answered),
            ("serve.coalesced_share", s.coalesced as f64 / answered),
            ("serve.rejected", s.rejected as f64),
            ("serve.deadline_exceeded", s.deadline_exceeded as f64),
            ("serve.panicked", s.panicked as f64),
            ("serve.live_epochs_max", live_epochs_max.max(s.live_epochs) as f64),
            ("serve.resident_mb", s.resident_bytes as f64 / (1u64 << 20) as f64),
        ]);
    }

    fn run_read(&mut self, secs: f64, tracer: &mut Tracer) -> Measured {
        let answers = self.oracle.as_ref().expect("oracle prepared").answers();
        let mut m = Measured::default();
        self.closed_loop(secs * SERVE_CLOSED_SHARE, &answers, tracer, &mut m);
        let live = self.server.stats().live_epochs;
        self.open_loop(secs * (1.0 - SERVE_CLOSED_SHARE), &answers, tracer, &mut m);
        // The submit call itself, from the spans' own timestamps.
        let submits: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "serve.submit")
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        if !submits.is_empty() {
            m.notes.push(("serve.submit_us", stats::median(&submits)));
        }
        self.stat_notes(live, &mut m);
        m
    }

    /// One publish; returns its class and seconds, or the error.
    fn publish(&mut self, tracer: &mut Tracer) -> Result<(PublishClass, f64), String> {
        Self::publish_with(
            &self.server,
            &self.inst,
            &mut self.stream,
            &mut self.oracle,
            &mut self.history,
            &mut self.ops,
            tracer,
        )
    }

    fn run_write(&mut self, secs: f64, tracer: &mut Tracer) -> Measured {
        assert!(self.oracle.is_some(), "oracle prepared");
        let mut m = Measured::default();
        let stop = AtomicBool::new(false);
        let mut reader_tracer = tracer.fork();
        let mut by_class: [Vec<f64>; 3] = Default::default();
        let mut live_max = 0;
        let mut busy = 0.0;
        // (epoch, kind, digest, µs from due) per read; checked after the run,
        // when the history holds every epoch.
        let mut kinds = KindCycle::new(self.ops);
        let (server, tenant, qids) = (&self.server, &self.tenant, self.qids);
        let reads: Vec<Result<(u64, usize, Digest, f64), String>> = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let interval = Duration::from_secs_f64(1.0 / SERVE_READER_QPS);
                let start = Instant::now();
                let mut reads = Vec::new();
                let mut k = 0u32;
                while !stop.load(Ordering::SeqCst) {
                    let due = start + interval * k;
                    k += 1;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let kind = kinds.next();
                    let id = u64::from(k) << 32; // apart from the writer's op ids
                    let root = reader_tracer.begin("read", None, id);
                    let ticket = reader_tracer.span("serve.submit", root, id, || {
                        server.submit(tenant, qids[kind], Cache::Shared)
                    });
                    let out = reader_tracer
                        .span("serve.wait", root, id, || ticket.and_then(Ticket::wait));
                    reader_tracer.end(root);
                    let us = due.elapsed().as_secs_f64() * 1e6;
                    reads.push(out.map(|o| (o.epoch, kind, digest(&o), us)));
                }
                reads
            });
            let began = Instant::now();
            while began.elapsed().as_secs_f64() < secs {
                m.attempted += 1;
                match Self::publish_with(
                    server,
                    &self.inst,
                    &mut self.stream,
                    &mut self.oracle,
                    &mut self.history,
                    &mut self.ops,
                    tracer,
                ) {
                    Ok((class, took)) => {
                        busy += took;
                        m.closed_done.push(busy);
                        m.latencies_ms.push(took * 1e3);
                        by_class[class as usize].push(took * 1e3);
                    }
                    Err(_) => m.failed += 1,
                }
                if m.attempted % 64 == 0 {
                    live_max = live_max.max(server.stats().live_epochs);
                }
            }
            stop.store(true, Ordering::SeqCst);
            reader.join().expect("reader thread")
        });
        tracer.absorb(reader_tracer);

        let mut read_us = Vec::new();
        for read in &reads {
            m.attempted += 1;
            let ok = read.as_ref().is_ok_and(|&(epoch, kind, got, us)| {
                read_us.push(us);
                self.history.get(&epoch).is_some_and(|a| expected(kind, a) == got)
            });
            if !ok {
                m.failed += 1;
            }
        }
        // The catalog the writer left behind, read back without the cache.
        let last = self.oracle.as_ref().expect("oracle").answers();
        for (kind, &qid) in qids.iter().enumerate() {
            m.attempted += 1;
            let fresh = server
                .submit(tenant, qid, Cache::Bypass)
                .and_then(Ticket::wait)
                .is_ok_and(|o| digest(&o) == expected(kind, &last));
            if !fresh {
                m.failed += 1;
            }
        }

        let med = |xs: &[f64]| if xs.is_empty() { 0.0 } else { stats::median(xs) };
        m.notes.extend([
            ("serve.publish_small_ms", med(&by_class[PublishClass::Small as usize])),
            ("serve.publish_batch_ms", med(&by_class[PublishClass::Batch as usize])),
            ("serve.publish_nonleading_ms", med(&by_class[PublishClass::NonLeading as usize])),
        ]);
        if !read_us.is_empty() {
            m.notes.push((
                "serve.read_during_write_us_p90",
                stats::percentile(&stats::sorted(read_us), 0.9),
            ));
        }
        self.stat_notes(live_max, &mut m);
        m
    }

    /// [`Serve::publish`] over the fields it needs, so the writer can run while
    /// the reader thread borrows the server.
    #[allow(clippy::too_many_arguments)]
    fn publish_with(
        server: &Server,
        inst: &Triangle,
        stream: &mut DeltaStream,
        oracle: &mut Option<TriangleOracle>,
        history: &mut HashMap<u64, Answers>,
        ops: &mut u64,
        tracer: &mut Tracer,
    ) -> Result<(PublishClass, f64), String> {
        *ops += 1;
        let id = *ops;
        let (class, change) = stream.next(inst);
        let delta = delta_of(inst, &change);
        let before = server.current_epoch();
        let t = Instant::now();
        let epoch = tracer
            .span("serve.publish_delta", None, id, || server.publish_delta(change.0, &delta))?;
        let took = t.elapsed().as_secs_f64();
        if epoch != before + 1 {
            return Err(format!("publish jumped from epoch {before} to {epoch}"));
        }
        if let Some(o) = oracle {
            apply_to_oracle(o, &change);
            history.insert(epoch, o.answers());
        }
        Ok((class, took))
    }

    fn layer_input(&self) -> LayerInput<api::Count> {
        LayerInput {
            domain: api::COUNT,
            raws: raw_catalog(self.inst.relations()),
            queries: query_defs(self.inst.nodes).to_vec(),
            planner_threads: self.workers,
            // A served evaluation runs under the sequential default budget.
            threads: 1,
            ops_per_pass: KINDS as f64,
        }
    }
}

impl<const WRITE: bool> Workload for Serve<WRITE> {
    const NAME: &'static str = if WRITE { "serve_write" } else { "serve_read" };

    fn fingerprint(seed: u64) -> u64 {
        Triangle::generate(seed, SERVE_CATALOG.nodes, SERVE_CATALOG.edges).fingerprint()
    }

    fn setup(seed: u64, _scratch: &Path) -> Self {
        let inst = Triangle::generate(seed, SERVE_CATALOG.nodes, SERVE_CATALOG.edges);
        let catalog = inst.relations().iter().map(|rel| unit_factor(rel)).collect();
        let workers = nproc();
        let server = Server::start(workers, SERVE_MAX_IN_FLIGHT, &[inst.nodes; 3], catalog);
        let qids = query_defs(inst.nodes)
            .map(|d| server.register(&d.free, &d.bound, &d.factors).expect("query registers"));
        let tenant = server.tenant("bench", SERVE_MAX_IN_FLIGHT);
        let mut w = Serve {
            stream: DeltaStream::new(seed, inst.nodes),
            kinds: KindCycle::new(seed),
            inst,
            server,
            tenant,
            qids,
            workers,
            oracle: None,
            history: HashMap::new(),
            last_requests: Vec::new(),
            ops: 0,
        };
        for _ in 0..WARMUP_OPS {
            for kind in 0..KINDS {
                let p = w.submit(kind, Instant::now()).expect("warm-up submit");
                p.ticket.wait().expect("warm-up answer");
            }
        }
        if WRITE {
            // Two full cycles: every delta class primes its replay trace and
            // the catalog is back at its base state.
            for _ in 0..12 {
                w.publish(&mut Tracer::off()).expect("warm-up publish");
            }
            assert!(w.stream.at_base(), "warm-up leaves the catalog at its base state");
        }
        w
    }

    fn prepare_oracle(&mut self) {
        let o = TriangleOracle::new(&self.inst.r, &self.inst.s, &self.inst.t);
        self.history.insert(self.server.current_epoch(), o.answers());
        self.oracle = Some(o);
    }

    fn run(&mut self, secs: f64, tracer: &mut Tracer) -> Measured {
        if WRITE {
            self.run_write(secs, tracer)
        } else {
            self.run_read(secs, tracer)
        }
    }

    /// A publish for `serve_write`, a served triangle count for `serve_read`
    /// (its evaluation runs on a worker thread; the count covers the process).
    fn op_sequential(&mut self) {
        if WRITE {
            self.publish(&mut Tracer::off()).expect("publish");
        } else {
            let p = self.submit(TRIANGLES, Instant::now()).expect("submit");
            p.ticket.wait().expect("answer");
        }
    }

    fn layers(&mut self, out: &mut Layers) {
        let input = self.layer_input();
        layers::factor_layers(&input, out);
        layers::query_layers(&input, &input.build_all(), out);
        let defs = query_defs(self.inst.nodes);
        delta_layers::triangle_deltas(&self.inst, &defs[TRIANGLES], self.workers, out);

        // Queue + broadcast + reply: what a served answer costs beyond the
        // same prepared handle evaluated directly on this thread.
        if !self.last_requests.is_empty() {
            let direct_ms: Vec<f64> = self
                .qids
                .iter()
                .map(|&q| time_auto(|| self.server.evaluate_direct(q).expect("direct run")) * 1e3)
                .collect();
            let over: Vec<f64> =
                self.last_requests.iter().map(|&(kind, ms)| ms - direct_ms[kind]).collect();
            out.set("serve.overhead_ms_p50", stats::median(&over));
        }
        // A `Shared` hit, round trip. The first submission may evaluate.
        let hits: Vec<f64> = (0..201)
            .map(|_| {
                let t = Instant::now();
                let ok = self
                    .server
                    .submit(&self.tenant, self.qids[TRIANGLES], Cache::Shared)
                    .and_then(Ticket::wait);
                std::hint::black_box(ok.expect("shared read"));
                t.elapsed().as_secs_f64() * 1e6
            })
            .skip(1)
            .collect();
        out.set("serve.hit_us_p50", stats::median(&hits));
    }
}
