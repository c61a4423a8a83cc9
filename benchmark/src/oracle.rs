//! Answers computed without the engine: adjacency sets walked by hand.

use crate::gen::Relation;
use std::collections::{HashMap, HashSet};

/// Order-independent digest of a set of `(row, value)` pairs: their count and
/// the wrapping sum of a per-pair hash.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pair_hash(row: &[u32], val: u64) -> u64 {
    let mut h = mix(val ^ 0x9E37_79B9_7F4A_7C15);
    for &x in row {
        h = mix(h ^ u64::from(x)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    }
    h
}

impl Digest {
    pub fn add(&mut self, row: &[u32], val: u64) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(pair_hash(row, val));
    }

    pub fn remove(&mut self, row: &[u32], val: u64) {
        self.rows -= 1;
        self.sum = self.sum.wrapping_sub(pair_hash(row, val));
    }
}

/// The answers of the three registered queries at one catalog state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Answers {
    /// `Σ_{a,b,c} R(a,b)·S(b,c)·T(a,c)`.
    pub triangles: u64,
    /// `Σ_{a,b,c} R(a,b)·S(b,c)`.
    pub paths2: u64,
    /// `ϕ(a) = Σ_{b,c} R(a,b)·S(b,c)·T(a,c)`, as a digest of its non-zero rows.
    pub per_vertex: Digest,
}

/// `R(a,b)`, `S(b,c)`, `T(a,c)` as adjacency sets, with the three answers
/// maintained by hand across inserts and deletes of `R` and `S` edges.
pub struct TriangleOracle {
    r: HashSet<(u32, u32)>,
    r_by_b: HashMap<u32, HashSet<u32>>,
    s: HashSet<(u32, u32)>,
    s_by_b: HashMap<u32, HashSet<u32>>,
    t: HashSet<(u32, u32)>,
    per_vertex: HashMap<u32, u64>,
    answers: Answers,
}

impl TriangleOracle {
    pub fn new(r: &Relation, s: &Relation, t: &Relation) -> TriangleOracle {
        let mut o = TriangleOracle {
            r: HashSet::new(),
            r_by_b: HashMap::new(),
            s: s.pairs().collect(),
            s_by_b: HashMap::new(),
            t: t.pairs().collect(),
            per_vertex: HashMap::new(),
            answers: Answers::default(),
        };
        for (b, c) in s.pairs() {
            o.s_by_b.entry(b).or_default().insert(c);
        }
        for (a, b) in r.pairs() {
            o.insert_r(a, b);
        }
        o
    }

    pub fn answers(&self) -> Answers {
        self.answers
    }

    fn bump(&mut self, a: u32, k: u64, up: bool) {
        if k == 0 {
            return;
        }
        let old = self.per_vertex.get(&a).copied().unwrap_or(0);
        let new = if up { old + k } else { old - k };
        if old > 0 {
            self.answers.per_vertex.remove(&[a], old);
        }
        if new > 0 {
            self.answers.per_vertex.add(&[a], new);
            self.per_vertex.insert(a, new);
        } else {
            self.per_vertex.remove(&a);
        }
        self.answers.triangles =
            if up { self.answers.triangles + k } else { self.answers.triangles - k };
    }

    /// Triangles through `R(a,b)` and 2-paths through it, whether or not the
    /// edge is present.
    fn through_r(&self, a: u32, b: u32) -> (u64, u64) {
        let cs = self.s_by_b.get(&b);
        let closing = cs.map_or(0, |cs| cs.iter().filter(|&&c| self.t.contains(&(a, c))).count());
        (closing as u64, cs.map_or(0, HashSet::len) as u64)
    }

    pub fn insert_r(&mut self, a: u32, b: u32) {
        assert!(self.r.insert((a, b)), "R({a},{b}) already present");
        self.r_by_b.entry(b).or_default().insert(a);
        let (tri, paths) = self.through_r(a, b);
        self.bump(a, tri, true);
        self.answers.paths2 += paths;
    }

    pub fn delete_r(&mut self, a: u32, b: u32) {
        assert!(self.r.remove(&(a, b)), "R({a},{b}) absent");
        self.r_by_b.get_mut(&b).expect("edge was indexed").remove(&a);
        let (tri, paths) = self.through_r(a, b);
        self.bump(a, tri, false);
        self.answers.paths2 -= paths;
    }

    /// Per `a` with `R(a,b)`: whether `T(a,c)` closes a triangle over `S(b,c)`.
    fn closers_of_s(&self, b: u32, c: u32) -> (Vec<u32>, u64) {
        let sources = self.r_by_b.get(&b);
        let closing = sources
            .map(|s| s.iter().copied().filter(|&a| self.t.contains(&(a, c))).collect())
            .unwrap_or_default();
        (closing, sources.map_or(0, HashSet::len) as u64)
    }

    pub fn insert_s(&mut self, b: u32, c: u32) {
        assert!(self.s.insert((b, c)), "S({b},{c}) already present");
        self.s_by_b.entry(b).or_default().insert(c);
        let (closing, paths) = self.closers_of_s(b, c);
        for a in closing {
            self.bump(a, 1, true);
        }
        self.answers.paths2 += paths;
    }

    pub fn delete_s(&mut self, b: u32, c: u32) {
        assert!(self.s.remove(&(b, c)), "S({b},{c}) absent");
        self.s_by_b.get_mut(&b).expect("edge was indexed").remove(&c);
        let (closing, paths) = self.closers_of_s(b, c);
        for a in closing {
            self.bump(a, 1, false);
        }
        self.answers.paths2 -= paths;
    }

    /// Every triangle `(a,b,c)`, for the listing workload's digest.
    pub fn list_digest(&self) -> Digest {
        let mut d = Digest::default();
        for &(a, b) in &self.r {
            if let Some(cs) = self.s_by_b.get(&b) {
                for &c in cs {
                    if self.t.contains(&(a, c)) {
                        d.add(&[a, b, c], 1);
                    }
                }
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Triangle;

    #[test]
    fn incremental_answers_equal_a_rebuild() {
        let inst = Triangle::generate(5, 40, 300);
        let mut o = TriangleOracle::new(&inst.r, &inst.s, &inst.t);
        let base = o.answers();
        assert_eq!(base.triangles, o.list_digest().rows);
        let (a, b) =
            (0..40).flat_map(|a| (0..40).map(move |b| (a, b))).find(|p| !o.r.contains(p)).unwrap();
        let (sb, sc) =
            (0..40).flat_map(|a| (0..40).map(move |b| (a, b))).find(|p| !o.s.contains(p)).unwrap();
        o.insert_r(a, b);
        o.insert_s(sb, sc);
        let mut r = inst.r.clone();
        r.rows.extend([a, b]);
        let mut s = inst.s.clone();
        s.rows.extend([sb, sc]);
        assert_eq!(o.answers(), TriangleOracle::new(&r, &s, &inst.t).answers());
        o.delete_s(sb, sc);
        o.delete_r(a, b);
        assert_eq!(o.answers(), base);
    }
}
