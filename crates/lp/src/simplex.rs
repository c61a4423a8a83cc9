//! Two-phase dense primal simplex.
//!
//! Solves `min cᵀx` subject to linear constraints and `x ≥ 0`. Constraints may
//! be `≤`, `≥` or `=`. Phase 1 minimizes the sum of artificial variables to
//! find a basic feasible solution; phase 2 optimizes the real objective.
//! Bland's rule guarantees termination.

use crate::EPS;

/// Comparison operator of a [`Constraint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

/// One linear constraint `Σ aᵢxᵢ (≤|≥|=) b`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Coefficients, one per structural variable.
    pub coeffs: Vec<f64>,
    /// Comparison operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program `min cᵀx  s.t.  constraints, x ≥ 0`.
#[derive(Debug, Clone, Default)]
pub struct LinearProgram {
    /// Objective coefficients (minimization).
    pub objective: Vec<f64>,
    /// Constraint rows.
    pub constraints: Vec<Constraint>,
}

/// An optimal solution to a [`LinearProgram`].
#[derive(Debug, Clone)]
pub struct Solution {
    /// Optimal objective value.
    pub objective: f64,
    /// Optimal assignment to the structural variables.
    pub x: Vec<f64>,
}

/// Failure modes of the solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
    /// The program is malformed (e.g. ragged coefficient rows).
    Malformed(String),
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "infeasible linear program"),
            LpError::Unbounded => write!(f, "unbounded linear program"),
            LpError::Malformed(m) => write!(f, "malformed linear program: {m}"),
        }
    }
}

impl std::error::Error for LpError {}

impl LinearProgram {
    /// A program minimizing `objective` with no constraints yet.
    pub fn minimize(objective: Vec<f64>) -> Self {
        LinearProgram { objective, constraints: Vec::new() }
    }

    /// Add a constraint row.
    pub fn constraint(mut self, coeffs: Vec<f64>, op: ConstraintOp, rhs: f64) -> Self {
        self.constraints.push(Constraint { coeffs, op, rhs });
        self
    }

    /// Number of structural variables.
    pub(crate) fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Solve the program with two-phase simplex.
    pub fn solve(&self) -> Result<Solution, LpError> {
        let n = self.num_vars();
        for (i, c) in self.constraints.iter().enumerate() {
            if c.coeffs.len() != n {
                return Err(LpError::Malformed(format!(
                    "constraint {i} has {} coefficients, expected {n}",
                    c.coeffs.len()
                )));
            }
        }
        Tableau::new(self).solve()
    }
}

/// Dense simplex tableau.
///
/// Column layout: `[structural (n) | slack/surplus (s) | artificial (a) | rhs]`.
struct Tableau {
    /// Rows of the tableau; one per constraint, plus the objective row last.
    rows: Vec<Vec<f64>>,
    /// Index of the basic variable of each constraint row.
    basis: Vec<usize>,
    n_struct: usize,
    n_slack: usize,
    n_art: usize,
    /// Objective coefficients of the original program (phase 2).
    objective: Vec<f64>,
}

impl Tableau {
    fn new(lp: &LinearProgram) -> Self {
        let n = lp.num_vars();
        let m = lp.constraints.len();

        // Count slack and artificial columns.
        let mut n_slack = 0;
        let mut n_art = 0;
        for c in &lp.constraints {
            // Normalize to non-negative rhs first; the op may flip.
            let (op, _) = normalized_op(c);
            match op {
                ConstraintOp::Le => n_slack += 1,
                ConstraintOp::Ge => {
                    n_slack += 1; // surplus
                    n_art += 1;
                }
                ConstraintOp::Eq => n_art += 1,
            }
        }

        let width = n + n_slack + n_art + 1;
        let mut rows = vec![vec![0.0; width]; m];
        let mut basis = vec![usize::MAX; m];
        let mut slack_cursor = 0;
        let mut art_cursor = 0;

        for (i, c) in lp.constraints.iter().enumerate() {
            let (op, flip) = normalized_op(c);
            let sign = if flip { -1.0 } else { 1.0 };
            for (j, &a) in c.coeffs.iter().enumerate() {
                rows[i][j] = sign * a;
            }
            rows[i][width - 1] = sign * c.rhs;
            match op {
                ConstraintOp::Le => {
                    let col = n + slack_cursor;
                    rows[i][col] = 1.0;
                    basis[i] = col;
                    slack_cursor += 1;
                }
                ConstraintOp::Ge => {
                    let s_col = n + slack_cursor;
                    rows[i][s_col] = -1.0; // surplus
                    slack_cursor += 1;
                    let a_col = n + n_slack + art_cursor;
                    rows[i][a_col] = 1.0;
                    basis[i] = a_col;
                    art_cursor += 1;
                }
                ConstraintOp::Eq => {
                    let a_col = n + n_slack + art_cursor;
                    rows[i][a_col] = 1.0;
                    basis[i] = a_col;
                    art_cursor += 1;
                }
            }
        }

        Tableau { rows, basis, n_struct: n, n_slack, n_art, objective: lp.objective.clone() }
    }

    fn width(&self) -> usize {
        self.n_struct + self.n_slack + self.n_art + 1
    }

    fn rhs_col(&self) -> usize {
        self.width() - 1
    }

    fn solve(mut self) -> Result<Solution, LpError> {
        // Phase 1: minimize the sum of artificial variables.
        if self.n_art > 0 {
            let width = self.width();
            let mut obj = vec![0.0; width];
            // Phase-1 costs: 1 on every artificial column.
            for c in &mut obj[(self.n_struct + self.n_slack)..(width - 1)] {
                *c = 1.0;
            }
            for i in 0..self.rows.len() {
                let b = self.basis[i];
                if b >= self.n_struct + self.n_slack {
                    // Basic artificial variable: subtract its row so the
                    // objective row is expressed over non-basic columns.
                    for (c, r) in obj.iter_mut().zip(&self.rows[i]) {
                        *c -= r;
                    }
                }
            }
            let allowed = self.n_struct + self.n_slack + self.n_art;
            self.run_simplex(&mut obj, allowed)?;
            let phase1 = -obj[self.rhs_col()];
            if phase1 > 1e-7 {
                return Err(LpError::Infeasible);
            }
            // Drive any remaining artificial variables out of the basis.
            self.purge_artificials();
        }

        // Phase 2: optimize the real objective over structural + slack columns.
        let width = self.width();
        let mut obj = vec![0.0; width];
        obj[..self.n_struct].copy_from_slice(&self.objective);
        // Express objective over the current basis.
        for i in 0..self.rows.len() {
            let b = self.basis[i];
            let coef = obj[b];
            if coef.abs() > EPS {
                for (c, r) in obj.iter_mut().zip(&self.rows[i]) {
                    *c -= coef * r;
                }
            }
        }
        let allowed = self.n_struct + self.n_slack;
        self.run_simplex(&mut obj, allowed)?;

        let mut x = vec![0.0; self.n_struct];
        let rhs = self.rhs_col();
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.n_struct {
                x[b] = self.rows[i][rhs];
            }
        }
        let objective: f64 = self.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
        Ok(Solution { objective, x })
    }

    /// Standard simplex iterations on the current tableau with objective row
    /// `obj` (stored separately). Columns `>= allowed` may not enter the basis.
    fn run_simplex(&mut self, obj: &mut [f64], allowed: usize) -> Result<(), LpError> {
        let rhs = self.rhs_col();
        loop {
            // Bland's rule: pick the lowest-index column with negative reduced cost.
            let enter = obj[..allowed].iter().position(|&c| c < -EPS);
            let Some(enter) = enter else { return Ok(()) };

            // Ratio test, Bland tie-break on basis index.
            let mut leave: Option<usize> = None;
            let mut best = f64::INFINITY;
            for i in 0..self.rows.len() {
                let a = self.rows[i][enter];
                if a > EPS {
                    let ratio = self.rows[i][rhs] / a;
                    if ratio < best - EPS
                        || (ratio < best + EPS
                            && leave.is_none_or(|l| self.basis[i] < self.basis[l]))
                    {
                        best = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(leave) = leave else { return Err(LpError::Unbounded) };

            self.pivot(leave, enter, obj);
        }
    }

    fn pivot(&mut self, row: usize, col: usize, obj: &mut [f64]) {
        let width = self.width();
        let pivot = self.rows[row][col];
        debug_assert!(pivot.abs() > EPS);
        for j in 0..width {
            self.rows[row][j] /= pivot;
        }
        for i in 0..self.rows.len() {
            if i != row {
                let f = self.rows[i][col];
                if f.abs() > EPS {
                    for j in 0..width {
                        self.rows[i][j] -= f * self.rows[row][j];
                    }
                }
            }
        }
        let f = obj[col];
        if f.abs() > EPS {
            for (c, r) in obj.iter_mut().zip(&self.rows[row]) {
                *c -= f * r;
            }
        }
        self.basis[row] = col;
    }

    /// After phase 1, pivot basic artificial variables out (or detect redundant
    /// rows, which can simply stay: their rhs is 0 and they never pivot again).
    fn purge_artificials(&mut self) {
        let art_start = self.n_struct + self.n_slack;
        for i in 0..self.rows.len() {
            if self.basis[i] >= art_start {
                // Find a non-artificial column with a nonzero entry to pivot in.
                let mut found = None;
                for j in 0..art_start {
                    if self.rows[i][j].abs() > EPS {
                        found = Some(j);
                        break;
                    }
                }
                if let Some(j) = found {
                    let mut dummy = vec![0.0; self.width()];
                    self.pivot(i, j, &mut dummy);
                }
                // else: the row is all-zero over real columns (redundant);
                // its rhs must be ~0 after a feasible phase 1.
            }
        }
    }
}

/// Normalize a constraint so its right-hand side is non-negative.
/// Returns the effective op and whether the row was negated.
fn normalized_op(c: &Constraint) -> (ConstraintOp, bool) {
    if c.rhs >= 0.0 {
        (c.op, false)
    } else {
        let flipped = match c.op {
            ConstraintOp::Le => ConstraintOp::Ge,
            ConstraintOp::Ge => ConstraintOp::Le,
            ConstraintOp::Eq => ConstraintOp::Eq,
        };
        (flipped, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn simple_min_with_ge() {
        // min x + y  s.t. x + y >= 2, x >= 0.5  => objective 2.
        let lp = LinearProgram::minimize(vec![1.0, 1.0])
            .constraint(vec![1.0, 1.0], ConstraintOp::Ge, 2.0)
            .constraint(vec![1.0, 0.0], ConstraintOp::Ge, 0.5);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 2.0);
        assert!(s.x[0] >= 0.5 - 1e-9);
        assert_close(s.x[0] + s.x[1], 2.0);
    }

    #[test]
    fn maximize_via_negation() {
        // max 3x + 2y s.t. x + y <= 4, x <= 2  => 3*2 + 2*2 = 10.
        let lp = LinearProgram::minimize(vec![-3.0, -2.0])
            .constraint(vec![1.0, 1.0], ConstraintOp::Le, 4.0)
            .constraint(vec![1.0, 0.0], ConstraintOp::Le, 2.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, -10.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 2.0);
    }

    #[test]
    fn equality_constraints() {
        // min 2x + 3y s.t. x + y = 10, x - y = 2  => x=6, y=4, obj 24.
        let lp = LinearProgram::minimize(vec![2.0, 3.0])
            .constraint(vec![1.0, 1.0], ConstraintOp::Eq, 10.0)
            .constraint(vec![1.0, -1.0], ConstraintOp::Eq, 2.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 24.0);
        assert_close(s.x[0], 6.0);
        assert_close(s.x[1], 4.0);
    }

    #[test]
    fn infeasible_detected() {
        let lp = LinearProgram::minimize(vec![1.0])
            .constraint(vec![1.0], ConstraintOp::Ge, 3.0)
            .constraint(vec![1.0], ConstraintOp::Le, 1.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min -x s.t. x >= 1 (x can grow forever).
        let lp = LinearProgram::minimize(vec![-1.0]).constraint(vec![1.0], ConstraintOp::Ge, 1.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_normalization() {
        // min x s.t. -x <= -3  (i.e. x >= 3).
        let lp = LinearProgram::minimize(vec![1.0]).constraint(vec![-1.0], ConstraintOp::Le, -3.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 3.0);
    }

    #[test]
    fn fractional_triangle_cover() {
        // The triangle query hypergraph: vertices {1,2,3}, edges {12, 13, 23}.
        // ρ*(all) = 3/2 with λ = (1/2, 1/2, 1/2).
        let lp = LinearProgram::minimize(vec![1.0, 1.0, 1.0])
            .constraint(vec![1.0, 1.0, 0.0], ConstraintOp::Ge, 1.0) // vertex 1 in e12, e13
            .constraint(vec![1.0, 0.0, 1.0], ConstraintOp::Ge, 1.0) // vertex 2 in e12, e23
            .constraint(vec![0.0, 1.0, 1.0], ConstraintOp::Ge, 1.0); // vertex 3 in e13, e23
        let s = lp.solve().unwrap();
        assert_close(s.objective, 1.5);
    }

    #[test]
    fn degenerate_redundant_rows() {
        // Redundant equality should not break phase-1 purge.
        let lp = LinearProgram::minimize(vec![1.0, 1.0])
            .constraint(vec![1.0, 1.0], ConstraintOp::Eq, 2.0)
            .constraint(vec![2.0, 2.0], ConstraintOp::Eq, 4.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn zero_variable_program() {
        let lp = LinearProgram::minimize(vec![]);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 0.0);
        assert!(s.x.is_empty());
    }

    #[test]
    fn ragged_rows_rejected() {
        let lp =
            LinearProgram::minimize(vec![1.0, 2.0]).constraint(vec![1.0], ConstraintOp::Ge, 1.0);
        assert!(matches!(lp.solve().unwrap_err(), LpError::Malformed(_)));
    }

    #[test]
    fn random_covers_match_bruteforce_vertex_bound() {
        // For random small covering LPs, the simplex optimum must be between
        // the max fractional matching-ish lower bound 1 (any single vertex
        // needs total incident weight 1) and the number of vertices.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let nv = rng.gen_range(2..6);
            let ne = rng.gen_range(2..6);
            // Random incidence with every vertex covered by at least one edge.
            let mut inc = vec![vec![false; ne]; nv];
            for (v, row) in inc.iter_mut().enumerate() {
                row[v % ne] = true;
                for cell in row.iter_mut() {
                    if rng.gen_bool(0.4) {
                        *cell = true;
                    }
                }
            }
            let mut lp = LinearProgram::minimize(vec![1.0; ne]);
            for row in &inc {
                let coeffs: Vec<f64> = row.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
                lp = lp.constraint(coeffs, ConstraintOp::Ge, 1.0);
            }
            let s = lp.solve().unwrap();
            assert!(s.objective >= 1.0 - 1e-6, "cover below 1: {}", s.objective);
            assert!(s.objective <= nv as f64 + 1e-6);
            // Feasibility of the returned point.
            for row in &inc {
                let total: f64 = row.iter().zip(&s.x).map(|(&b, &x)| if b { x } else { 0.0 }).sum();
                assert!(total >= 1.0 - 1e-6);
            }
        }
    }
}
