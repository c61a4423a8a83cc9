//! Seeded input generators. An instance is plain data, a function of the
//! seed and the constants in [`crate::config`] only; the program under test
//! never sees the seed. Each instance has a [`fingerprint`](Fnv) that
//! `tests/pins.rs` pins per workload per seed, so a silent generator change
//! cannot pass for a performance change.

use std::collections::BTreeSet;

/// SplitMix64: the benchmark's own generator, so that instances do not move
/// when the repo's `rand` shim does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`); the modulo bias is below 2⁻³² here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn real(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// FNV-1a over the generated data.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u32s(&mut self, xs: &[u32]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.u64(u64::from(x));
        }
    }

    pub fn f64s(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.u64(x.to_bits());
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A relation as the raw input the program receives: a schema and flat,
/// strictly ascending rows.
#[derive(Debug, Clone)]
pub struct Relation {
    pub schema: Vec<u32>,
    pub rows: Vec<u32>,
}

impl Relation {
    pub fn len(&self) -> usize {
        self.rows.len() / self.schema.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.rows.chunks_exact(2).map(|r| (r[0], r[1]))
    }

    /// Whether a binary relation holds `p`: a binary search of its sorted rows.
    pub fn has_pair(&self, p: (u32, u32)) -> bool {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if (self.rows[2 * mid], self.rows[2 * mid + 1]) < p {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo < self.len() && (self.rows[2 * lo], self.rows[2 * lo + 1]) == p
    }
}

/// `m` distinct uniform pairs over `nodes × nodes`, sorted.
fn random_pairs(rng: &mut Rng, nodes: u32, m: usize) -> BTreeSet<(u32, u32)> {
    assert!((m as u64) * 2 <= u64::from(nodes) * u64::from(nodes), "relation too dense to sample");
    let mut set = BTreeSet::new();
    while set.len() < m {
        set.insert((rng.below(u64::from(nodes)) as u32, rng.below(u64::from(nodes)) as u32));
    }
    set
}

fn relation(schema: [u32; 2], pairs: &BTreeSet<(u32, u32)>) -> Relation {
    Relation { schema: schema.to_vec(), rows: pairs.iter().flat_map(|&(a, b)| [a, b]).collect() }
}

/// Three independent random binary relations `R(0,1)`, `S(1,2)`, `T(0,2)`
/// over one node space: the catalog of the triangle and serving workloads.
#[derive(Debug, Clone)]
pub struct Triangle {
    pub nodes: u32,
    pub r: Relation,
    pub s: Relation,
    pub t: Relation,
}

impl Triangle {
    pub fn generate(seed: u64, nodes: u32, edges: usize) -> Triangle {
        let mut rng = Rng::new(seed);
        let r = relation([0, 1], &random_pairs(&mut rng, nodes, edges));
        let s = relation([1, 2], &random_pairs(&mut rng, nodes, edges));
        let t = relation([0, 2], &random_pairs(&mut rng, nodes, edges));
        Triangle { nodes, r, s, t }
    }

    pub fn relations(&self) -> [&Relation; 3] {
        [&self.r, &self.s, &self.t]
    }

    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        h.u64(u64::from(self.nodes));
        for rel in self.relations() {
            h.u32s(&rel.rows);
        }
        h.finish()
    }
}

/// The out-of-core instance: a large sparse `R(0,1)` generated by ascending
/// random key gaps, and `planted` closing wedges `S(1,2)`, `T(0,2)` sampled
/// from `R` by reservoir. Wedge `i` uses the private value `c = i`, so the
/// triangle count is exactly `planted` by construction.
#[derive(Debug, Clone)]
pub struct Planted {
    pub nodes: u32,
    pub planted: usize,
    pub r: Relation,
    pub s: Relation,
    pub t: Relation,
}

impl Planted {
    pub fn generate(seed: u64, rows: usize, nodes: u32, planted: usize) -> Planted {
        let mut rng = Rng::new(seed);
        let keyspace = u64::from(nodes) * u64::from(nodes);
        let avg = keyspace / (2 * rows as u64);
        assert!(avg >= 2, "R must stay sparse: raise `nodes` or lower `rows`");
        let mut r_rows = Vec::with_capacity(rows * 2);
        let mut sample: Vec<(u32, u32)> = Vec::with_capacity(planted);
        let mut key = 0u64;
        for emitted in 0..rows {
            key += 1 + rng.below(2 * avg);
            assert!(key < keyspace, "key space exhausted");
            let (a, b) = ((key / u64::from(nodes)) as u32, (key % u64::from(nodes)) as u32);
            r_rows.extend([a, b]);
            if sample.len() < planted {
                sample.push((a, b));
            } else {
                let j = rng.below(emitted as u64 + 1) as usize;
                if j < planted {
                    sample[j] = (a, b);
                }
            }
        }
        let s: BTreeSet<(u32, u32)> =
            sample.iter().enumerate().map(|(i, &(_, b))| (b, i as u32)).collect();
        let t: BTreeSet<(u32, u32)> =
            sample.iter().enumerate().map(|(i, &(a, _))| (a, i as u32)).collect();
        Planted {
            nodes,
            planted,
            r: Relation { schema: vec![0, 1], rows: r_rows },
            s: relation([1, 2], &s),
            t: relation([0, 2], &t),
        }
    }

    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        for rel in [&self.r, &self.s, &self.t] {
            h.u32s(&rel.rows);
        }
        h.finish()
    }
}

/// A dense real-valued potential `ψ(a, b)` of a pairwise model: every cell
/// present, values in `[0.1, 1)`.
#[derive(Debug, Clone)]
pub struct Potential {
    pub schema: Vec<u32>,
    pub rows: Vec<u32>,
    pub vals: Vec<f64>,
}

/// A small-data query in plain form.
#[derive(Debug, Clone)]
pub struct RealInstance {
    pub domains: Vec<u32>,
    pub free: Vec<u32>,
    /// `(variable, aggregate)`; 0 = Σ, 1 = max, 2 = Π.
    pub bound: Vec<(u32, u8)>,
    pub potentials: Vec<Potential>,
}

impl RealInstance {
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        h.u32s(&self.domains);
        h.u32s(&self.free);
        for &(v, a) in &self.bound {
            h.u64(u64::from(v) << 8 | u64::from(a));
        }
        for p in &self.potentials {
            h.u32s(&p.schema);
            h.u32s(&p.rows);
            h.f64s(&p.vals);
        }
        h.finish()
    }
}

fn dense_pair(rng: &mut Rng, a: u32, b: u32, d: u32) -> Potential {
    let (a, b) = (a.min(b), a.max(b));
    let mut rows = Vec::new();
    let mut vals = Vec::new();
    for x in 0..d {
        for y in 0..d {
            rows.extend([x, y]);
            vals.push(rng.real(0.1, 1.0));
        }
    }
    Potential { schema: vec![a, b], rows, vals }
}

/// A pairwise model over `edges`, variable 0 free, the rest under `agg`.
fn pairwise(rng: &mut Rng, n: u32, d: u32, agg: u8, edges: &[(u32, u32)]) -> RealInstance {
    RealInstance {
        domains: vec![d; n as usize],
        free: vec![0],
        bound: (1..n).map(|v| (v, agg)).collect(),
        potentials: edges.iter().map(|&(a, b)| dense_pair(rng, a, b, d)).collect(),
    }
}

/// A `w × h` grid model, Σ-marginal of variable 0.
pub fn pgm_grid(rng: &mut Rng, w: u32, h: u32, d: u32) -> RealInstance {
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((y * w + x, y * w + x + 1));
            }
            if y + 1 < h {
                edges.push((y * w + x, (y + 1) * w + x));
            }
        }
    }
    pairwise(rng, w * h, d, 0, &edges)
}

/// A binary-heap-shaped tree model (parent of `i` is `(i − 1) / 2`),
/// max-marginal of variable 0. The shape is fixed because planning cost
/// depends on it: only the potentials' values follow the seed.
pub fn pgm_tree(rng: &mut Rng, n: u32, d: u32) -> RealInstance {
    let edges: Vec<(u32, u32)> = (1..n).map(|i| ((i - 1) / 2, i)).collect();
    pairwise(rng, n, d, 1, &edges)
}

/// Example 5.6 of the paper at scale `n`:
/// `max_{x1} max_{x2} Π_{x3} Σ_{x4} max_{x5} max_{x6} ψ15 ψ25 ψ134 ψ236`
/// over `{0,1}`-valued factors of `Θ(n)` tuples; `x3` ranges over 2 values
/// and both are present per sampled `(x_a, x_b)` so groups survive `Π_{x3}`.
/// Variable 0 is unused filler (the paper indexes from 1).
pub fn example_5_6(rng: &mut Rng, n: u32) -> RealInstance {
    let mut pairs = |a: u32, b: u32| {
        let mut set = BTreeSet::new();
        for _ in 0..n {
            set.insert((rng.below(u64::from(n)) as u32, rng.below(u64::from(n)) as u32));
        }
        Potential {
            schema: vec![a, b],
            rows: set.iter().flat_map(|&(x, y)| [x, y]).collect(),
            vals: vec![1.0; set.len()],
        }
    };
    let psi15 = pairs(1, 5);
    let psi25 = pairs(2, 5);
    let mut triples = |a: u32, b: u32, c: u32| {
        let mut set = BTreeSet::new();
        for _ in 0..n {
            let (xa, xc) = (rng.below(u64::from(n)) as u32, rng.below(u64::from(n)) as u32);
            for x3 in 0..2 {
                set.insert((xa, x3, xc));
            }
        }
        Potential {
            schema: vec![a, b, c],
            rows: set.iter().flat_map(|&(x, y, z)| [x, y, z]).collect(),
            vals: vec![1.0; set.len()],
        }
    };
    let psi134 = triples(1, 3, 4);
    let psi236 = triples(2, 3, 6);
    RealInstance {
        domains: vec![2, n, n, 2, n, n, n],
        free: vec![],
        bound: vec![(1, 1), (2, 1), (3, 2), (4, 0), (5, 1), (6, 1)],
        potentials: vec![psi15, psi25, psi134, psi236],
    }
}
