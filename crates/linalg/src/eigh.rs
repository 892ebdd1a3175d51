//! Symmetric eigensolver (`dsyevd` equivalent).
//!
//! Stage 1 ([`crate::tridiag::tred2`]) reduces the matrix to tridiagonal
//! form `A = Q T Qᵀ` with column-oriented Householder reflections (LAPACK
//! `dsytd2`/`dorgtr`, `uplo = 'U'`): `4/3·n³` flops for the reduction plus
//! `4/3·n³` to form `Q`, every inner loop stride-1 on the column-major
//! storage. Stage 2 ([`tql2`]) diagonalizes `T` with the implicit-shift QL
//! algorithm, rotating pairs of adjacent basis columns. [`eigvalsh`] runs
//! the same two stages but skips forming `Q` and the basis rotations.
//! The paper computes `sign`/Fermi purifications from exactly such a
//! decomposition (Sec. IV-F, Eq. 17) because dense diagonalization beats
//! iterative schemes on the small, nearly dense submatrices.

use crate::matrix::Matrix;
use crate::tridiag::{tridiagonal_values, tridiagonalize};
use crate::LinalgError;

/// Maximum QL sweeps per eigenvalue before giving up.
const MAX_QL_ITERS: usize = 50;

/// Eigendecomposition `A = Q Λ Q^T` of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct Eigh {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Orthonormal eigenvectors; column `k` corresponds to
    /// `eigenvalues[k]`.
    pub eigenvectors: Matrix,
}

/// `sqrt(a² + b²)` without destructive underflow or overflow.
fn pythag(a: f64, b: f64) -> f64 {
    let absa = a.abs();
    let absb = b.abs();
    if absa > absb {
        absa * (1.0 + (absb / absa).powi(2)).sqrt()
    } else if absb == 0.0 {
        0.0
    } else {
        absb * (1.0 + (absa / absb).powi(2)).sqrt()
    }
}

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix.
///
/// `d` holds the diagonal, `e` the sub-diagonal in entries `1..n` (entry 0
/// ignored), and `z` the basis to rotate (identity for eigenvectors of `T`
/// itself, or the Householder `Q` for eigenvectors of the original matrix).
/// On success `d` contains the (unsorted) eigenvalues and the columns of `z`
/// the corresponding eigenvectors.
pub fn tql2(d: &mut [f64], e: &mut [f64], z: &mut Matrix) -> Result<(), LinalgError> {
    let n = d.len();
    assert_eq!(z.shape(), (n, n), "tql2: z must be n-by-n");
    ql(d, e, Some(z))
}

/// The QL loop behind [`tql2`]; `basis = None` computes eigenvalues only.
/// `d` and `e` evolve identically either way: the rotations never feed
/// back into them.
fn ql(d: &mut [f64], e: &mut [f64], mut basis: Option<&mut Matrix>) -> Result<(), LinalgError> {
    let n = d.len();
    assert_eq!(e.len(), n, "tql2: e must have the same length as d");
    if n <= 1 {
        return Ok(());
    }

    // Shift the sub-diagonal down for more convenient indexing: e[i] couples
    // d[i] and d[i+1].
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    // An off-diagonal element is negligible once adding it to the norm of
    // the whole T changes nothing. A test relative to the neighbouring
    // diagonal entries (or to the rows visited so far, as in EISPACK)
    // never fires inside a cluster of eigenvalues at roundoff level, such
    // as the null space of a low-rank PSD matrix: every sweep chases
    // through the large entries below and refills the cluster with
    // roundoff of order ε‖T‖.
    let tnorm = d
        .iter()
        .zip(e.iter())
        .map(|(di, ei)| di.abs() + ei.abs())
        .fold(0.0f64, f64::max);
    for l in 0..n {
        let mut iter = 0usize;
        loop {
            // Find a small off-diagonal element to split the problem.
            let mut m = l;
            while m + 1 < n && tnorm + e[m].abs() != tnorm {
                m += 1;
            }
            if m == l {
                break;
            }
            if iter == MAX_QL_ITERS {
                return Err(LinalgError::NoConvergence {
                    op: "tql2",
                    iterations: iter,
                });
            }
            iter += 1;

            // Form the implicit shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = pythag(g, 1.0);
            let sign_r = if g >= 0.0 { r.abs() } else { -r.abs() };
            g = d[m] - d[l] + e[l] / (g + sign_r);
            let mut s = 1.0f64;
            let mut c = 1.0f64;
            let mut p = 0.0f64;

            let mut i = m;
            let mut underflow = false;
            while i > l {
                i -= 1;
                let f = s * e[i];
                let b = c * e[i];
                r = pythag(f, g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Recover from underflow: deflate and restart.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                if let Some(z) = basis.as_deref_mut() {
                    rotate_adjacent_columns(z, i, c, s);
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Apply the Givens rotation `(c, s)` to columns `i` and `i+1` of `z`, both
/// walked as contiguous slices.
fn rotate_adjacent_columns(z: &mut Matrix, i: usize, c: f64, s: f64) {
    let n = z.nrows();
    let (head, tail) = z.as_mut_slice().split_at_mut((i + 1) * n);
    let zi = &mut head[i * n..];
    let zi1 = &mut tail[..n];
    for (a, b) in zi.iter_mut().zip(zi1.iter_mut()) {
        let f = *b;
        *b = s * *a + c * f;
        *a = c * *a - s * f;
    }
}

/// Full symmetric eigendecomposition with eigenvalues sorted ascending.
///
/// The matrix is symmetrized internally; see [`crate::tridiag::tred2`].
/// Fails fast with [`LinalgError::NonFinite`] on a NaN or infinite entry.
pub fn eigh(a: &Matrix) -> Result<Eigh, LinalgError> {
    let tri = tridiagonalize(a, "eigh")?;
    let mut d = tri.d;
    let mut e = tri.e;
    let mut z = tri.q;
    tql2(&mut d, &mut e, &mut z)?;

    // Sort ascending, permuting eigenvector columns alongside.
    let n = d.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[i].total_cmp(&d[j]));
    let eigenvalues: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let mut eigenvectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        eigenvectors
            .col_mut(new_col)
            .copy_from_slice(z.col(old_col));
    }

    Ok(Eigh {
        eigenvalues,
        eigenvectors,
    })
}

/// Eigenvalues only, sorted ascending: the [`eigh`] pipeline without
/// forming `Q` or rotating a basis, so only the `4/3·n³` reduction plus
/// `O(n²)` QL work. The values are bitwise those of [`eigh`].
pub fn eigvalsh(a: &Matrix) -> Result<Vec<f64>, LinalgError> {
    let (mut d, mut e) = tridiagonal_values(a, "eigvalsh")?;
    ql(&mut d, &mut e, None)?;
    d.sort_by(f64::total_cmp);
    Ok(d)
}

impl Eigh {
    /// Reconstruct `f(A) = Q f(Λ) Q^T` by applying `f` to each eigenvalue.
    ///
    /// This single entry point implements the paper's whole family of
    /// purifications: `f = signum` gives the sign function (Eq. 17),
    /// `f = fermi` the finite-temperature generalization, and shifted
    /// variants implement the µ adjustment of Algorithm 1 without
    /// recomputing the decomposition.
    pub fn apply(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let fd: Vec<f64> = self.eigenvalues.iter().map(|&l| f(l)).collect();
        crate::gemm::q_diag_qt(&self.eigenvectors, &fd)
            .expect("eigendecomposition dimensions are consistent by construction")
    }

    /// Smallest eigenvalue.
    pub fn min(&self) -> f64 {
        *self
            .eigenvalues
            .first()
            .expect("empty eigendecomposition has no extremes")
    }

    /// Largest eigenvalue.
    pub fn max(&self) -> f64 {
        *self
            .eigenvalues
            .last()
            .expect("empty eigendecomposition has no extremes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, matmul_nt, matmul_tn};
    use crate::norms::max_norm;
    use crate::tridiag::tests::random_symmetric;
    use crate::tridiag::tred2;
    use proptest::prelude::*;

    fn sym_test_matrix(n: usize) -> Matrix {
        let mut a = Matrix::from_fn(n, n, |i, j| {
            (((i * 37 + j * 23) % 17) as f64) * 0.05 + if i == j { 1.5 } else { 0.0 }
        });
        a.symmetrize();
        a
    }

    #[test]
    fn eigenvalues_of_diagonal_matrix() {
        let a = Matrix::from_diag(&[3.0, -1.0, 2.0]);
        let r = eigh(&a).unwrap();
        assert!((r.eigenvalues[0] + 1.0).abs() < 1e-14);
        assert!((r.eigenvalues[1] - 2.0).abs() < 1e-14);
        assert!((r.eigenvalues[2] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_row_major(2, 2, &[2.0, 1.0, 1.0, 2.0]);
        let r = eigh(&a).unwrap();
        assert!((r.eigenvalues[0] - 1.0).abs() < 1e-14);
        assert!((r.eigenvalues[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn reconstruction() {
        let a = sym_test_matrix(20);
        let r = eigh(&a).unwrap();
        let back = r.apply(|l| l);
        assert!(back.allclose(&a, 1e-11));
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = sym_test_matrix(15);
        let r = eigh(&a).unwrap();
        let qtq = matmul_tn(&r.eigenvectors, &r.eigenvectors).unwrap();
        assert!(qtq.allclose(&Matrix::identity(15), 1e-12));
    }

    #[test]
    fn av_equals_lambda_v() {
        let a = sym_test_matrix(10);
        let r = eigh(&a).unwrap();
        for k in 0..10 {
            let v = Matrix::from_col_major(10, 1, r.eigenvectors.col(k).to_vec());
            let av = matmul(&a, &v).unwrap();
            let lv = v.scaled(r.eigenvalues[k]);
            assert!(av.allclose(&lv, 1e-10), "eigenpair {k} violates A v = λ v");
        }
    }

    #[test]
    fn trace_is_eigenvalue_sum() {
        let a = sym_test_matrix(12);
        let r = eigh(&a).unwrap();
        let sum: f64 = r.eigenvalues.iter().sum();
        assert!((sum - a.trace()).abs() < 1e-10);
    }

    #[test]
    fn eigenvalues_sorted_ascending() {
        let a = sym_test_matrix(25);
        let r = eigh(&a).unwrap();
        for w in r.eigenvalues.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn apply_sign_function_is_involutory() {
        let mut a = sym_test_matrix(14);
        a.shift_diag(-1.6); // ensure both signs occur
        let r = eigh(&a).unwrap();
        assert!(r.min() < 0.0 && r.max() > 0.0, "test needs mixed spectrum");
        let s = r.apply(f64::signum);
        let s2 = matmul(&s, &s).unwrap();
        assert!(s2.allclose(&Matrix::identity(14), 1e-10));
    }

    #[test]
    fn degenerate_eigenvalues() {
        // 3x3 with a double eigenvalue: diag(1,1,2) rotated.
        let a = Matrix::from_diag(&[1.0, 1.0, 2.0]);
        let r = eigh(&a).unwrap();
        assert!((r.eigenvalues[0] - 1.0).abs() < 1e-14);
        assert!((r.eigenvalues[1] - 1.0).abs() < 1e-14);
        assert!((r.eigenvalues[2] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_diag(&[-4.2]);
        let r = eigh(&a).unwrap();
        assert_eq!(r.eigenvalues, vec![-4.2]);
        assert_eq!(r.eigenvectors[(0, 0)].abs(), 1.0);
    }

    #[test]
    fn empty_matrix() {
        let a = Matrix::zeros(0, 0);
        let r = eigh(&a).unwrap();
        assert!(r.eigenvalues.is_empty());
    }

    #[test]
    fn non_square_rejected() {
        assert!(eigh(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn eigvalsh_matches_eigh() {
        let a = sym_test_matrix(8);
        assert_eq!(eigvalsh(&a).unwrap(), eigh(&a).unwrap().eigenvalues);
    }

    /// `Q diag(λ) Qᵀ` with a pseudo-random orthogonal `Q`.
    fn with_spectrum(lambda: &[f64], seed: u64) -> Matrix {
        let q = tred2(&random_symmetric(lambda.len(), seed)).unwrap().q;
        crate::gemm::q_diag_qt(&q, lambda).unwrap()
    }

    #[test]
    fn low_rank_psd_null_space_converges() {
        // n = 572 PSD matrices whose null space is a cluster of
        // eigenvalues at roundoff level: a rank-32 Gram matrix B Bᵀ and a
        // rank-143 orthogonal projector (a density-matrix-like input).
        let n = 572;
        let s = random_symmetric(n, 32);
        let b = Matrix::from_fn(n, 32, |i, j| s[(i, j)]);
        let gram = matmul_nt(&b, &b).unwrap();
        let occupation: Vec<f64> = (0..n).map(|k| f64::from(k % 4 == 0)).collect();
        let projector = with_spectrum(&occupation, 11);
        for a in [gram, projector] {
            let dec = eigh(&a).expect("low-rank PSD input must converge");
            let floor = -1e-10 * max_norm(&a);
            assert!(dec.min() >= floor, "eigenvalue {} below {floor}", dec.min());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn clustered_spectra_are_recovered(
            n in 8usize..240,
            width in 0usize..3,
            seed in 0u64..1 << 40,
        ) {
            // Most λ in a cluster around 0 of width 0, 1e-13 or 1e-9, every
            // fourth λ at 1 plus the same spread: projector-like spectra.
            let spread = [0.0, 1e-13, 1e-9][width];
            let lambda: Vec<f64> = (0..n)
                .map(|k| f64::from(k % 4 == 0) + spread * k as f64)
                .collect();
            let a = with_spectrum(&lambda, seed);
            let got = eigvalsh(&a).unwrap();
            let mut want = lambda.clone();
            want.sort_by(f64::total_cmp);
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g - w).abs() <= 1e-12, "n={n}: eigenvalue {g} vs {w}");
            }
        }
    }

    #[test]
    fn non_finite_input_is_a_typed_error() {
        // One NaN on the diagonal, one off it; the infinity case too.
        for (i, j, bad) in [
            (1, 1, f64::NAN),
            (3, 0, f64::NAN),
            (2, 4, f64::NEG_INFINITY),
        ] {
            let mut a = sym_test_matrix(6);
            a[(i, j)] = bad;
            assert_eq!(eigh(&a).unwrap_err(), LinalgError::NonFinite { op: "eigh" });
            assert_eq!(
                eigvalsh(&a).unwrap_err(),
                LinalgError::NonFinite { op: "eigvalsh" }
            );
        }
    }

    #[test]
    fn moderately_large_matrix() {
        let a = sym_test_matrix(80);
        let r = eigh(&a).unwrap();
        let back = r.apply(|l| l);
        assert!(back.allclose(&a, 1e-9));
    }
}
