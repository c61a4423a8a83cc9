//! The Box Cover Problem (paper §8.3, the Minesweeper / Tetris connection).
//!
//! A *box* is a product of intervals over a subset of the variables (full
//! range on the rest) — the geometric face of a box factor (Definition 8.2).
//! The Box Cover Problem (BCP) asks whether a set of boxes covers the whole
//! space `Π_i Dom(X_i)`, and if not, to exhibit an uncovered point. SAT is
//! the special case where each CNF clause contributes the box of its
//! falsifying assignments; a comparison-based join algorithm's work is
//! likewise lower-bounded by a box cover (the Minesweeper result).
//!
//! [`find_uncovered`] runs variable elimination on the geometric
//! representation: for the chosen variable it splits its axis at the boxes'
//! interval endpoints; within one segment every box either spans the whole
//! segment or misses it, so the problem recurses on one fewer variable.
//! With β-acyclic box supports and a nested elimination order the recursion
//! stays polynomial (the Tetris/β-acyclic regime); in general BCP is NP-hard
//! and the recursion may branch exponentially.

use crate::formula::{Clause, Cnf};
use faq_hypergraph::Var;
use std::collections::BTreeMap;

/// A half-open interval `[lo, hi)` of domain codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower end.
    pub lo: u32,
    /// Exclusive upper end.
    pub hi: u32,
}

impl Interval {
    /// `[lo, hi)`; must be non-empty.
    pub(crate) fn new(lo: u32, hi: u32) -> Interval {
        assert!(lo < hi, "empty interval [{lo},{hi})");
        Interval { lo, hi }
    }

    /// Whether the interval contains `x`.
    #[cfg(test)]
    pub(crate) fn contains(&self, x: u32) -> bool {
        self.lo <= x && x < self.hi
    }

    /// Whether this interval fully contains `other`.
    pub(crate) fn covers(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }
}

/// A box: constrained intervals per variable; unconstrained variables span
/// their full domain.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BoxRegion {
    intervals: BTreeMap<Var, Interval>,
}

impl BoxRegion {
    /// The everything-box.
    pub(crate) fn full() -> BoxRegion {
        BoxRegion::default()
    }

    /// Constrain variable `v` to `[lo, hi)`.
    pub(crate) fn with(mut self, v: Var, lo: u32, hi: u32) -> BoxRegion {
        self.intervals.insert(v, Interval::new(lo, hi));
        self
    }

    /// The interval on `v`, if constrained.
    pub(crate) fn interval(&self, v: Var) -> Option<&Interval> {
        self.intervals.get(&v)
    }

    /// Whether the box contains the (fully specified) point.
    #[cfg(test)]
    pub(crate) fn contains(&self, point: &BTreeMap<Var, u32>) -> bool {
        self.intervals.iter().all(|(v, iv)| point.get(v).is_some_and(|&x| iv.contains(x)))
    }

    fn without(&self, v: Var) -> BoxRegion {
        let mut b = self.clone();
        b.intervals.remove(&v);
        b
    }
}

/// Find a point not covered by any box, or `None` if the boxes cover the
/// whole space. `dims` lists the variables with their domain sizes; the
/// elimination splits on them left to right (pass a nested elimination order
/// of the box supports for the β-acyclic guarantee).
pub fn find_uncovered(dims: &[(Var, u32)], boxes: &[BoxRegion]) -> Option<BTreeMap<Var, u32>> {
    // A box constraining no remaining dimension covers everything below.
    if boxes.iter().any(|b| b.intervals.keys().all(|&v| !dims.iter().any(|&(d, _)| d == v))) {
        return None;
    }
    let Some(&(v, size)) = dims.first() else {
        // No dimensions left and no all-covering box: the empty point is free.
        return Some(BTreeMap::new());
    };
    let rest = &dims[1..];

    // Split the v-axis at every interval endpoint.
    let mut cuts: Vec<u32> = vec![0, size];
    for b in boxes {
        if let Some(iv) = b.interval(v) {
            cuts.push(iv.lo.min(size));
            cuts.push(iv.hi.min(size));
        }
    }
    cuts.sort_unstable();
    cuts.dedup();

    for w in cuts.windows(2) {
        let seg = Interval::new(w[0], w[1]);
        // Boxes alive on this segment: unconstrained on v, or spanning the
        // whole segment (endpoint construction guarantees the dichotomy).
        let alive: Vec<BoxRegion> = boxes
            .iter()
            .filter(|b| match b.interval(v) {
                None => true,
                Some(iv) => iv.covers(&seg),
            })
            .map(|b| b.without(v))
            .collect();
        if let Some(mut point) = find_uncovered(rest, &alive) {
            point.insert(v, seg.lo);
            return Some(point);
        }
    }
    None
}

/// Whether the boxes cover the whole space.
pub fn is_covered(dims: &[(Var, u32)], boxes: &[BoxRegion]) -> bool {
    find_uncovered(dims, boxes).is_none()
}

/// The box of assignments *falsifying* a clause: each literal pins its
/// variable to the single falsifying value (Boolean domains).
pub(crate) fn clause_to_box(clause: &Clause) -> BoxRegion {
    let mut b = BoxRegion::full();
    for lit in clause.lits() {
        let bad = u32::from(!lit.positive);
        b = b.with(lit.var, bad, bad + 1);
    }
    b
}

/// SAT via box cover (paper §8.3): the formula is satisfiable iff the
/// falsifying boxes do **not** cover `{0,1}^n`. The returned point, if any,
/// is a satisfying assignment.
pub fn sat_via_boxes(cnf: &Cnf, order: &[Var]) -> Option<Vec<bool>> {
    let dims: Vec<(Var, u32)> = order.iter().map(|&v| (v, 2)).collect();
    let boxes: Vec<BoxRegion> = cnf.clauses.iter().map(clause_to_box).collect();
    let point = find_uncovered(&dims, &boxes)?;
    let mut assignment = vec![false; cnf.num_vars as usize];
    for (v, x) in point {
        assignment[v.index()] = x == 1;
    }
    Some(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_sat;
    use crate::formula::Lit;
    use crate::gen::{random_cnf, random_interval_cnf};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn dims(sizes: &[u32]) -> Vec<(Var, u32)> {
        sizes.iter().enumerate().map(|(i, &s)| (Var(i as u32), s)).collect()
    }

    #[test]
    fn single_full_box_covers() {
        let d = dims(&[4, 4]);
        assert!(is_covered(&d, &[BoxRegion::full()]));
        assert!(!is_covered(&d, &[]));
    }

    #[test]
    fn split_axis_coverage() {
        let d = dims(&[10]);
        let left = BoxRegion::full().with(Var(0), 0, 6);
        let right = BoxRegion::full().with(Var(0), 6, 10);
        assert!(is_covered(&d, &[left.clone(), right.clone()]));
        // A gap at [6,7) leaks.
        let right_short = BoxRegion::full().with(Var(0), 7, 10);
        let hole = find_uncovered(&d, &[left, right_short]).unwrap();
        assert_eq!(hole[&Var(0)], 6);
    }

    #[test]
    fn two_dimensional_l_shape() {
        // Cover [0,2)×[0,4) and [2,4)×[0,2): the quadrant [2,4)×[2,4) leaks.
        let d = dims(&[4, 4]);
        let a = BoxRegion::full().with(Var(0), 0, 2);
        let b = BoxRegion::full().with(Var(0), 2, 4).with(Var(1), 0, 2);
        let hole = find_uncovered(&d, &[a, b]).unwrap();
        assert!(hole[&Var(0)] >= 2 && hole[&Var(1)] >= 2, "{hole:?}");
    }

    #[test]
    fn witness_points_are_really_uncovered() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..40 {
            let nd = rng.gen_range(1..4usize);
            let sizes: Vec<u32> = (0..nd).map(|_| rng.gen_range(2..5)).collect();
            let d = dims(&sizes);
            let boxes: Vec<BoxRegion> = (0..rng.gen_range(0..6))
                .map(|_| {
                    let mut b = BoxRegion::full();
                    for (i, &s) in sizes.iter().enumerate() {
                        if rng.gen_bool(0.7) {
                            let lo = rng.gen_range(0..s);
                            let hi = rng.gen_range(lo + 1..=s);
                            b = b.with(Var(i as u32), lo, hi);
                        }
                    }
                    b
                })
                .collect();
            match find_uncovered(&d, &boxes) {
                Some(point) => {
                    assert!(
                        boxes.iter().all(|b| !b.contains(&point)),
                        "witness {point:?} is covered"
                    );
                }
                None => {
                    // Exhaustively verify full coverage.
                    let mut cur: Vec<u32> = vec![0; nd];
                    loop {
                        let point: BTreeMap<Var, u32> =
                            cur.iter().enumerate().map(|(i, &x)| (Var(i as u32), x)).collect();
                        assert!(
                            boxes.iter().any(|b| b.contains(&point)),
                            "claimed covered but {point:?} is free"
                        );
                        let mut i = nd;
                        let done = loop {
                            if i == 0 {
                                break true;
                            }
                            i -= 1;
                            cur[i] += 1;
                            if cur[i] < sizes[i] {
                                break false;
                            }
                            cur[i] = 0;
                        };
                        if done {
                            break;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sat_via_boxes_matches_bruteforce() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let n = rng.gen_range(2..8u32);
            let cnf = random_cnf(n, rng.gen_range(1..10), 3, &mut rng);
            let order: Vec<Var> = (0..n).map(Var).collect();
            let got = sat_via_boxes(&cnf, &order);
            assert_eq!(got.is_some(), brute_force_sat(&cnf), "{cnf}");
            if let Some(a) = got {
                assert!(cnf.eval(&a), "witness fails {cnf}");
            }
        }
    }

    #[test]
    fn sat_via_boxes_with_neo_on_beta_acyclic() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..30 {
            let n = rng.gen_range(3..10u32);
            let cnf = random_interval_cnf(n, (2 * n) as usize, 4, &mut rng);
            let neo = faq_hypergraph::nested_elimination_order(&cnf.hypergraph())
                .expect("interval CNFs are β-acyclic");
            let got = sat_via_boxes(&cnf, &neo);
            assert_eq!(got.is_some(), brute_force_sat(&cnf), "{cnf}");
        }
    }

    #[test]
    fn clause_box_falsifies_exactly() {
        // (x0 ∨ ¬x1): falsified iff x0=0 ∧ x1=1.
        let c = Clause::new([Lit::pos(0), Lit::neg(1)]).unwrap();
        let b = clause_to_box(&c);
        let mut point = BTreeMap::new();
        point.insert(Var(0), 0u32);
        point.insert(Var(1), 1u32);
        assert!(b.contains(&point));
        point.insert(Var(0), 1);
        assert!(!b.contains(&point));
    }
}
