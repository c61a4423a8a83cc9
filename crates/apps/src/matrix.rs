//! Matrix computations as FAQ instances (Table 1, rows MCM and DFT).
//!
//! * **Matrix chain multiplication** (paper Example 1.1, Appendix E): the
//!   product `A_1 ⋯ A_n` is the FAQ-SS query
//!   `ϕ(x_0, x_n) = Σ_{x_1..x_{n−1}} Π_i ψ_i(x_{i−1}, x_i)` over `(ℝ, +, ×)`.
//!   Choosing the elimination order of the inner variables *is* choosing the
//!   parenthesization; the textbook `O(n³)` dynamic program emerges as a
//!   variable-ordering optimizer with data-dependent (AGM-style) costs.
//! * **DFT** (Table 1 row DFT, Aji–McEliece): over `Z_{p^m}`, splitting
//!   indices into base-`p` digits turns the Fourier matrix into a product of
//!   `O(m²)` twiddle factors `ψ_{jk}(x_j, y_k) = e^{2πi x_j y_k / p^{m−j−k}}`
//!   (trivial when `j+k ≥ m`); InsideOut eliminating one digit at a time *is*
//!   the FFT, `O(N log N)` against the naive `O(N²)`.

use faq_core::{Engine, FaqError, FaqQuery, VarAgg};
use faq_factor::{Domains, Factor};
use faq_hypergraph::Var;
use faq_semiring::{Complex64, ComplexSumProd, F64SumProd, SingleSemiringDomain};
use rand::Rng;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A zero matrix.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a function of `(row, col)`.
    pub(crate) fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// A random matrix with entries in `(0, 1)`.
    pub fn random<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(0.01..1.0))
    }

    /// Entry access.
    pub(crate) fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Entry assignment.
    pub(crate) fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Classic `O(rows·cols·inner)` product.
    pub(crate) fn multiply(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows);
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    out.data[r * other.cols + c] += a * other.get(k, c);
                }
            }
        }
        out
    }

    /// Max absolute entry difference.
    pub fn max_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }

    /// The factor of the matrix as `ψ(row_var, col_var)`.
    pub(crate) fn to_factor(&self, row_var: Var, col_var: Var) -> Factor<f64> {
        Factor::dense(
            vec![row_var, col_var],
            &[self.rows as u32, self.cols as u32],
            |t| self.get(t[0] as usize, t[1] as usize),
            |&x| x == 0.0,
        )
        .expect("distinct vars")
    }
}

/// A chain of compatible matrices.
#[derive(Debug, Clone)]
pub struct MatrixChain {
    /// `matrices[i]` has shape `dims[i] × dims[i+1]`.
    pub matrices: Vec<Matrix>,
}

impl MatrixChain {
    /// The dimension vector `p_0, …, p_n`.
    pub(crate) fn dims(&self) -> Vec<usize> {
        let mut d = vec![self.matrices[0].rows];
        for m in &self.matrices {
            assert_eq!(m.rows, *d.last().unwrap(), "incompatible chain");
            d.push(m.cols);
        }
        d
    }

    /// The FAQ-SS instance `ϕ(x_0, x_n) = Σ_{inner} Π ψ_i`.
    pub(crate) fn to_faq(&self) -> Result<FaqQuery<SingleSemiringDomain<F64SumProd>>, FaqError> {
        let n = self.matrices.len();
        let dims = self.dims();
        let domains = Domains::new(dims.iter().map(|&d| d as u32).collect());
        let factors: Vec<Factor<f64>> = self
            .matrices
            .iter()
            .enumerate()
            .map(|(i, m)| m.to_factor(Var(i as u32), Var(i as u32 + 1)))
            .collect();
        let free = vec![Var(0), Var(n as u32)];
        let bound: Vec<(Var, VarAgg)> = (1..n)
            .map(|i| (Var(i as u32), VarAgg::Semiring(SingleSemiringDomain::<F64SumProd>::OP)))
            .collect();
        FaqQuery::new(SingleSemiringDomain::new(F64SumProd), domains, free, bound, factors)
    }

    /// Evaluate the chain product via InsideOut along `order` (an ordering of
    /// the FAQ variables; use [`MatrixChain::dp_variable_ordering`] for the
    /// optimal one).
    pub fn evaluate_insideout(&self, order: &[Var]) -> Result<Matrix, FaqError> {
        let q = self.to_faq()?;
        let out = Engine::sequential().evaluate_with_order(&q, order)?;
        let dims = self.dims();
        let n = self.matrices.len();
        let mut m = Matrix::zeros(dims[0], dims[n]);
        for (row, val) in out.factor.iter() {
            m.set(row[0] as usize, row[1] as usize, *val);
        }
        Ok(m)
    }

    /// Evaluate along the ordering the planner picks (see
    /// [`faq_core::Engine::evaluate`]).
    pub fn evaluate(&self) -> Result<Matrix, FaqError> {
        let q = self.to_faq()?;
        let out = Engine::sequential().evaluate(&q)?;
        let dims = self.dims();
        let n = self.matrices.len();
        let mut m = Matrix::zeros(dims[0], dims[n]);
        for (row, val) in out.factor.iter() {
            m.set(row[0] as usize, row[1] as usize, *val);
        }
        Ok(m)
    }

    /// Direct left-to-right evaluation (the worst parenthesization for skewed
    /// chains).
    pub fn evaluate_left_to_right(&self) -> Matrix {
        let mut acc = self.matrices[0].clone();
        for m in &self.matrices[1..] {
            acc = acc.multiply(m);
        }
        acc
    }

    /// The textbook `O(n³)` matrix-chain DP: returns `(cost, split)` where
    /// `split[i][j]` is the optimal top split of the product `A_i ⋯ A_{j−1}`
    /// and `cost` the minimal scalar multiplication count.
    pub fn dp_optimal(&self) -> (u64, Vec<Vec<usize>>) {
        let dims = self.dims();
        let n = self.matrices.len();
        let mut cost = vec![vec![0u64; n + 1]; n + 1];
        let mut split = vec![vec![0usize; n + 1]; n + 1];
        for len in 2..=n {
            for i in 0..=n - len {
                let j = i + len;
                cost[i][j] = u64::MAX;
                for k in i + 1..j {
                    let c = cost[i][k] + cost[k][j] + (dims[i] * dims[k] * dims[j]) as u64;
                    if c < cost[i][j] {
                        cost[i][j] = c;
                        split[i][j] = k;
                    }
                }
            }
        }
        (cost[0][n], split)
    }

    /// The FAQ variable ordering corresponding to the optimal parenthesization
    /// (paper Appendix E): free endpoints first, then inner variables with
    /// the *top* split first — so elimination from the back performs the
    /// innermost multiplications first.
    pub fn dp_variable_ordering(&self) -> Vec<Var> {
        let n = self.matrices.len();
        let (_, split) = self.dp_optimal();
        let mut order = vec![Var(0), Var(n as u32)];
        fn rec(split: &[Vec<usize>], i: usize, j: usize, out: &mut Vec<Var>) {
            if j - i <= 1 {
                return;
            }
            let k = split[i][j];
            out.push(Var(k as u32));
            rec(split, i, k, out);
            rec(split, k, j, out);
        }
        rec(&split, 0, n, &mut order);
        order
    }

    /// Evaluate using the textbook DP order directly on dense matrices.
    pub fn evaluate_dp(&self) -> Matrix {
        let (_, split) = self.dp_optimal();
        fn rec(ms: &[Matrix], split: &[Vec<usize>], i: usize, j: usize) -> Matrix {
            if j - i == 1 {
                return ms[i].clone();
            }
            let k = split[i][j];
            rec(ms, split, i, k).multiply(&rec(ms, split, k, j))
        }
        rec(&self.matrices, &split, 0, self.matrices.len())
    }
}

/// Naive `O(N²)` DFT of `input` (length `N`), returning `X_x = Σ_y b_y ω^{xy}`.
pub fn naive_dft(input: &[Complex64]) -> Vec<Complex64> {
    let n = input.len() as u64;
    (0..n)
        .map(|x| {
            let mut acc = Complex64::ZERO;
            for (y, b) in input.iter().enumerate() {
                acc += *b * Complex64::root_of_unity(n, x * y as u64);
            }
            acc
        })
        .collect()
}

/// The DFT over `Z_{p^m}` as a FAQ-SS instance, evaluated by InsideOut —
/// the FFT in disguise (`O(N log N)` semiring operations).
///
/// `input.len()` must equal `p^m`. Output index `x` is the plain integer
/// frequency (digits recombined).
pub fn dft_faq(p: u32, m: usize, input: &[Complex64]) -> Result<Vec<Complex64>, FaqError> {
    assert!(p >= 2 && m >= 1);
    let n: u64 = (p as u64).pow(m as u32);
    assert_eq!(input.len() as u64, n, "input length must be p^m");

    // Variables: x-digits 0..m (free), y-digits m..2m (bound).
    let domains = Domains::uniform(2 * m, p);
    let xv = |j: usize| Var(j as u32);
    let yv = |k: usize| Var((m + k) as u32);

    let mut factors: Vec<Factor<Complex64>> = Vec::new();
    // The input vector as a factor over the y-digits (little-endian digits).
    let y_schema: Vec<Var> = (0..m).map(yv).collect();
    let sizes = vec![p; m];
    let b = Factor::dense(
        y_schema,
        &sizes,
        |digits| {
            let mut idx: u64 = 0;
            for (k, &d) in digits.iter().enumerate() {
                idx += d as u64 * (p as u64).pow(k as u32);
            }
            input[idx as usize]
        },
        |z| *z == Complex64::ZERO,
    )
    .expect("distinct y-digit variables");
    factors.push(b);
    // Twiddle factors ψ_{jk}(x_j, y_k) = e^{2πi x_j y_k / p^{m−j−k}}, j+k < m.
    for j in 0..m {
        for k in 0..m - j {
            let modulus = (p as u64).pow((m - j - k) as u32);
            let f = Factor::dense(
                vec![xv(j), yv(k)],
                &[p, p],
                |t| Complex64::root_of_unity(modulus, t[0] as u64 * t[1] as u64),
                |_| false, // roots of unity are never zero
            )
            .expect("distinct twiddle variables");
            factors.push(f);
        }
    }

    let free: Vec<Var> = (0..m).map(xv).collect();
    let bound: Vec<(Var, VarAgg)> = (0..m)
        .map(|k| (yv(k), VarAgg::Semiring(SingleSemiringDomain::<ComplexSumProd>::OP)))
        .collect();
    let q = FaqQuery::new(
        SingleSemiringDomain::new(ComplexSumProd::default()),
        domains,
        free,
        bound,
        factors,
    )?;
    let out = Engine::sequential().evaluate(&q)?;

    let mut result = vec![Complex64::ZERO; n as usize];
    for (row, val) in out.factor.iter() {
        let mut idx: u64 = 0;
        for (j, &d) in row.iter().enumerate() {
            idx += d as u64 * (p as u64).pow(j as u32);
        }
        result[idx as usize] = *val;
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn matrix_product_basics() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
        let b = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f64);
        let p = a.multiply(&b);
        // [[0,1,2],[3,4,5]] * [[0,1],[2,3],[4,5]] = [[10,13],[28,40]].
        assert_eq!(p.get(0, 0), 10.0);
        assert_eq!(p.get(0, 1), 13.0);
        assert_eq!(p.get(1, 0), 28.0);
        assert_eq!(p.get(1, 1), 40.0);
    }

    #[test]
    fn chain_via_faq_matches_direct() {
        let mut rng = StdRng::seed_from_u64(10);
        let chain = MatrixChain {
            matrices: vec![
                Matrix::random(3, 4, &mut rng),
                Matrix::random(4, 2, &mut rng),
                Matrix::random(2, 5, &mut rng),
            ],
        };
        let direct = chain.evaluate_left_to_right();
        let faq = chain.evaluate().unwrap();
        assert!(faq.max_diff(&direct) < 1e-9, "{}", faq.max_diff(&direct));
        let dp = chain.evaluate_dp();
        assert!(dp.max_diff(&direct) < 1e-9);
    }

    #[test]
    fn dp_picks_cheap_split_on_skewed_dims() {
        let mut rng = StdRng::seed_from_u64(11);
        // dims 1 × N × 1 × N: optimal is A1 (A2 A3) with cost N + N = 2N,
        // versus (A1 A2) A3 costing N + N² .
        let n = 16;
        let chain = MatrixChain {
            matrices: vec![
                Matrix::random(1, n, &mut rng),
                Matrix::random(n, 1, &mut rng),
                Matrix::random(1, n, &mut rng),
            ],
        };
        let (cost, split) = chain.dp_optimal();
        assert_eq!(split[0][3], 2, "top split groups (A1 A2) first? no: k=2 means (A1A2)(A3)");
        assert_eq!(cost, (n + n) as u64);
        // And the FAQ evaluation along the DP ordering matches.
        let order = chain.dp_variable_ordering();
        let got = chain.evaluate_insideout(&order).unwrap();
        assert!(got.max_diff(&chain.evaluate_left_to_right()) < 1e-9);
    }

    #[test]
    fn dp_ordering_is_a_valid_permutation() {
        let mut rng = StdRng::seed_from_u64(12);
        let chain = MatrixChain {
            matrices: vec![
                Matrix::random(2, 3, &mut rng),
                Matrix::random(3, 4, &mut rng),
                Matrix::random(4, 2, &mut rng),
                Matrix::random(2, 2, &mut rng),
            ],
        };
        let order = chain.dp_variable_ordering();
        let mut sorted: Vec<u32> = order.iter().map(|v| v.0).collect();
        sorted.sort();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sparse_matrices_stay_sparse_in_faq() {
        // Zero entries are dropped from the listing representation.
        let a = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        let f = a.to_factor(Var(0), Var(1));
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn dft_matches_naive_p2() {
        let mut rng = StdRng::seed_from_u64(13);
        for m in 1..=4usize {
            let n = 1usize << m;
            let input: Vec<Complex64> = (0..n)
                .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let fast = dft_faq(2, m, &input).unwrap();
            let slow = naive_dft(&input);
            for (a, b) in fast.iter().zip(&slow) {
                assert!(a.approx_eq(b, 1e-6), "m={m}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn dft_matches_naive_p3() {
        let mut rng = StdRng::seed_from_u64(14);
        let m = 2usize;
        let n = 9usize;
        let input: Vec<Complex64> =
            (0..n).map(|_| Complex64::new(rng.gen_range(-1.0..1.0), 0.0)).collect();
        let fast = dft_faq(3, m, &input).unwrap();
        let slow = naive_dft(&input);
        for (a, b) in fast.iter().zip(&slow) {
            assert!(a.approx_eq(b, 1e-6), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn dft_of_impulse_is_flat() {
        // DFT of δ_0 is the all-ones vector.
        let mut input = vec![Complex64::ZERO; 8];
        input[0] = Complex64::ONE;
        let out = dft_faq(2, 3, &input).unwrap();
        for z in out {
            assert!(z.approx_eq(&Complex64::ONE, 1e-9), "{z:?}");
        }
    }
}
