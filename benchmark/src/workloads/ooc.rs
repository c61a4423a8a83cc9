//! `ooc_count`: the triangle count with `R` spilled to file chunks.
//!
//! The one workload larger than the program's own cache: `R`'s listing and
//! trie levels live on disk in 4096-row chunks behind an 8-chunk LRU window
//! per column, `S` and `T` stay in memory. op = `Engine::new()
//! .threads(OOC_THREADS).evaluate` over the spilled catalog; the planted count is
//! known by construction. Reads come from the OS page cache: the latency is
//! the sandbox's, not a device's.

use crate::api::{self, counters, Fac, Output, Query, Spill, COUNT};
use crate::config::{
    OOC_CHUNK_ROWS, OOC_NODES, OOC_PLANTED, OOC_ROWS, OOC_THREADS, OOC_WINDOW_CHUNKS, WARMUP_OPS,
};
use crate::gen::Planted;
use crate::harness::{closed_loop, time_auto, Layers, Measured, Workload};
use crate::layers::{self, LayerInput, QueryDef};
use crate::nproc;
use crate::span::Tracer;
use crate::workloads::{raw_catalog, unit_factor};
use std::path::Path;

pub struct OocCount {
    inst: Planted,
    spill: Spill,
    /// `R` spilled and indexed, `S`, `T` in memory.
    catalog: Vec<Fac<u64>>,
    ops: u64,
}

fn generate(seed: u64) -> Planted {
    Planted::generate(seed, OOC_ROWS, OOC_NODES, OOC_PLANTED)
}

fn query_def() -> QueryDef {
    QueryDef {
        domains: vec![OOC_NODES, OOC_NODES, OOC_PLANTED as u32],
        free: vec![],
        bound: [0, 1, 2].iter().map(|&v| (v, api::Agg::Sum)).collect(),
        factors: vec![0, 1, 2],
    }
}

impl OocCount {
    fn op(
        &mut self,
        tracer: &mut Tracer,
        catalog: &[Fac<u64>],
        threads: usize,
    ) -> Result<Output<u64>, String> {
        self.ops += 1;
        let id = self.ops;
        let root = tracer.begin("op", None, id);
        let def = query_def();
        // Cloning a spilled factor clones a handle: no chunk is copied.
        let q = Query::new(COUNT, &def.domains, &def.free, &def.bound, catalog.to_vec());
        let out = tracer.span("core.evaluate", root, id, || api::evaluate(&q, threads));
        tracer.end(root);
        out
    }

    fn layer_input(&self) -> LayerInput<api::Count> {
        LayerInput {
            domain: COUNT,
            raws: raw_catalog([&self.inst.r, &self.inst.s, &self.inst.t]),
            queries: vec![query_def()],
            planner_threads: nproc(),
            threads: nproc(),
            ops_per_pass: 1.0,
        }
    }
}

impl Workload for OocCount {
    const NAME: &'static str = "ooc_count";

    fn fingerprint(seed: u64) -> u64 {
        generate(seed).fingerprint()
    }

    fn setup(seed: u64, scratch: &Path) -> Self {
        let inst = generate(seed);
        let spill = Spill {
            dir: scratch.to_path_buf(),
            chunk_rows: OOC_CHUNK_ROWS,
            window_chunks: OOC_WINDOW_CHUNKS,
        };
        std::fs::create_dir_all(&spill.dir).expect("create the spill directory");
        let r = unit_factor(&inst.r).to_spilled(&spill);
        r.index(); // streams the spilled trie levels to disk once
        let catalog = vec![r, unit_factor(&inst.s), unit_factor(&inst.t)];
        let mut w = OocCount { inst, spill, catalog, ops: 0 };
        for _ in 0..WARMUP_OPS {
            let catalog = w.catalog.clone();
            w.op(&mut Tracer::off(), &catalog, OOC_THREADS).expect("warm-up op");
        }
        w
    }

    fn prepare_oracle(&mut self) {}

    fn run(&mut self, secs: f64, tracer: &mut Tracer) -> Measured {
        let catalog = self.catalog.clone();
        let planted = self.inst.planted as u64;
        closed_loop(
            secs,
            || self.op(tracer, &catalog, OOC_THREADS),
            |out| out.is_ok_and(|out| out.factor.scalar() == Some(planted)),
        )
    }

    fn op_sequential(&mut self) {
        let catalog = self.catalog.clone();
        self.op(&mut Tracer::off(), &catalog, 1).expect("op");
    }

    fn layers(&mut self, out: &mut Layers) {
        let input = self.layer_input();
        layers::factor_layers(&input, out);
        let catalog = self.catalog.clone();
        layers::query_layers(&input, &catalog, out);

        // Chunk traffic of one op at one thread (repeats exactly).
        let info = catalog[0].spill_info().expect("R is spilled");
        counters::reset_peak_pinned_bytes();
        let reads = counters::chunk_reads();
        self.op(&mut Tracer::off(), &catalog, 1).expect("op");
        let reads = counters::chunk_reads() - reads;
        out.set("factor.chunk_reads_per_op", reads as f64);
        out.set("factor.read_amplification", reads as f64 / info.chunks.max(1) as f64);
        out.set(
            "factor.peak_pinned_mb",
            counters::peak_pinned_bytes() as f64 / (1u64 << 20) as f64,
        );

        // The same instance wholly in memory, both at `nproc` threads (where
        // chunk workers share the LRU window), and the spill write itself.
        let mem = input.build_all();
        let spilled_s = time_auto(|| self.op(&mut Tracer::off(), &catalog, nproc()));
        let mem_s = time_auto(|| self.op(&mut Tracer::off(), &mem, nproc()));
        out.set("factor.spilled_vs_mem", spilled_s / mem_s.max(1e-12));
        let write_s = time_auto(|| mem[0].to_spilled(&self.spill));
        out.set("factor.spill_write_mb_s", info.file_bytes as f64 / (1u64 << 20) as f64 / write_s);
    }
}
