//! Householder reduction of a real symmetric matrix to tridiagonal form.
//!
//! This is the first stage of the `dsyevd`-equivalent eigensolver used to
//! evaluate `sign(A) = Q sign(Λ) Q^T` on dense submatrices (paper Eq. 17).
//! Both phases are laid out for column-major storage, so every inner loop
//! walks a contiguous column (stride 1):
//!
//! * **Reduction** (LAPACK `dsytd2`, `uplo = 'U'`): working from the last
//!   column to the first, step `c` takes the Householder vector `v` from
//!   column `c` above the diagonal, forms `w = τ·A₁₁v` on the leading block
//!   with a column-wise symmetric matrix-vector product (one dot plus one
//!   axpy per column), and applies the rank-2 update `A₁₁ −= v wᵀ + w vᵀ`
//!   to the upper triangle column by column. The reflectors stay in the
//!   columns they annihilated. About `4/3·n³` flops.
//! * **`Q` formation** (LAPACK `dorgtr`/`dorg2l`, `uplo = 'U'`): the
//!   reflectors are applied to the identity one contiguous column at a
//!   time, overwriting the reflector storage in place. Another `4/3·n³`
//!   flops, and no second n×n buffer.
//!
//! Reducing bottom-up leaves `T` in the orientation the QL iteration of
//! [`crate::eigh::tql2`] deflates fastest on: the same orientation as the
//! classic EISPACK `tred2`. Callers that need only the eigenvalues skip
//! the second phase.

use crate::blas1::{axpy, dot, nrm2};
use crate::matrix::Matrix;
use crate::LinalgError;

/// Result of a Householder tridiagonalization `A = Q T Q^T`.
#[derive(Debug, Clone)]
pub struct Tridiagonal {
    /// Orthogonal accumulation matrix `Q` (n×n).
    pub q: Matrix,
    /// Diagonal of `T` (length n).
    pub d: Vec<f64>,
    /// Sub-diagonal of `T` (length n): `e[i]` couples rows `i−1` and `i`;
    /// entry 0 is unused and set to 0.
    pub e: Vec<f64>,
}

/// Reduce a symmetric matrix to tridiagonal form, accumulating `Q`.
///
/// The matrix is symmetrized internally (each off-diagonal pair is
/// averaged), then only the upper triangle of that copy is referenced
/// (LAPACK's `uplo = 'U'`). Returns an error if `a` is not square or
/// holds a NaN or an infinity.
pub fn tred2(a: &Matrix) -> Result<Tridiagonal, LinalgError> {
    tridiagonalize(a, "tred2")
}

/// [`tred2`] reporting errors under the caller's operation name.
pub(crate) fn tridiagonalize(a: &Matrix, op: &'static str) -> Result<Tridiagonal, LinalgError> {
    let Reduced { mut z, d, e, tau } = reduce(a, op)?;
    form_q(&mut z, &tau);
    Ok(Tridiagonal { q: z, d, e })
}

/// `(d, e)` of the tridiagonal form without forming `Q` — half the flops of
/// [`tred2`], for callers that need eigenvalues or spectral counts only.
pub(crate) fn tridiagonal_values(
    a: &Matrix,
    op: &'static str,
) -> Result<(Vec<f64>, Vec<f64>), LinalgError> {
    let Reduced { d, e, .. } = reduce(a, op)?;
    Ok((d, e))
}

/// Output of [`reduce`].
struct Reduced {
    /// Working copy holding the reflector of column `c` in column `c`,
    /// rows `0..c−1` (the trailing 1 at row `c−1` is implicit).
    z: Matrix,
    d: Vec<f64>,
    e: Vec<f64>,
    /// Reflector scalars; entry `c` belongs to column `c` (entry 0 unused).
    tau: Vec<f64>,
}

/// Reduce a symmetrized working copy of `a` to tridiagonal form in place.
fn reduce(a: &Matrix, op: &'static str) -> Result<Reduced, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            op,
            shape: a.shape(),
        });
    }
    let n = a.nrows();
    let mut z = a.clone();
    z.symmetrize();
    if !z.as_slice().iter().all(|x| x.is_finite()) {
        return Err(LinalgError::NonFinite { op });
    }
    let mut d = vec![0.0f64; n];
    let mut e = vec![0.0f64; n];
    let mut tau = vec![0.0f64; n];
    let mut w = vec![0.0f64; n];
    let s = z.as_mut_slice();

    for c in (1..n).rev() {
        // Later steps only touch A₁₁ = A[..c, ..c], so A[c, c] is final.
        d[c] = s[c * n + c];
        let (a11, tail) = s.split_at_mut(c * n);
        // Column c above the diagonal: the vector to reduce onto row c−1.
        let v = &mut tail[..c];
        let (beta, t) = householder(v);
        e[c] = beta;
        tau[c] = t;
        if t == 0.0 {
            // Column already reduced: H = I, A₁₁ unchanged.
            continue;
        }
        v[c - 1] = 1.0;
        let w = &mut w[..c];
        symv_upper(a11, n, t, v, w);
        let alpha = -0.5 * t * dot(w, v);
        axpy(alpha, v, w);
        syr2_upper(a11, n, v, w);
    }
    if n > 0 {
        d[0] = s[0];
    }
    Ok(Reduced { z, d, e, tau })
}

/// Generate the Householder reflector `H = I − τ·v vᵀ` with
/// `H·x = (0, …, 0, β)ᵀ` (LAPACK `dlarfg`, reducing onto the last entry).
/// On exit `x[..m−1]` holds `v[..m−1]` (`v[m−1] = 1` is implicit) and the
/// last entry is untouched. Returns `(β, τ)`; `τ = 0` when `x[..m−1]` is
/// already zero.
fn householder(x: &mut [f64]) -> (f64, f64) {
    let (head, last) = x.split_at_mut(x.len() - 1);
    let alpha = last[0];
    let xnorm = nrm2(head);
    if xnorm == 0.0 {
        return (alpha, 0.0);
    }
    let beta = -alpha.hypot(xnorm).copysign(alpha);
    let denom = alpha - beta;
    for xi in head.iter_mut() {
        *xi /= denom;
    }
    (beta, (beta - alpha) / beta)
}

/// `y = τ·A v` for the symmetric leading block `A = s[..m, ..m]` (leading
/// dimension `lda`, upper triangle referenced): per column one axpy above
/// the diagonal and one dot, both over the contiguous column.
fn symv_upper(s: &[f64], lda: usize, tau: f64, v: &[f64], y: &mut [f64]) {
    y.fill(0.0);
    for c in 0..v.len() {
        let col = &s[c * lda..c * lda + c + 1];
        let t1 = tau * v[c];
        axpy(t1, &col[..c], &mut y[..c]);
        y[c] += t1 * col[c] + tau * dot(&col[..c], &v[..c]);
    }
}

/// Upper-triangle rank-2 update `A −= v wᵀ + w vᵀ` of the leading block
/// `A = s[..m, ..m]`, one contiguous column at a time.
fn syr2_upper(s: &mut [f64], lda: usize, v: &[f64], w: &[f64]) {
    for c in 0..v.len() {
        let col = &mut s[c * lda..c * lda + c + 1];
        let (vc, wc) = (v[c], w[c]);
        for ((x, &vr), &wr) in col.iter_mut().zip(v).zip(w) {
            *x -= vr * wc + wr * vc;
        }
    }
}

/// Overwrite the reflector storage left by [`reduce`] with
/// `Q = H_{n−1} ⋯ H₂ H₁`, where `H_c` is the reflector of column `c`.
///
/// Column `j` of `Q` is `H_{n−1} ⋯ H_{j+1} e_j`, so the reflectors are
/// applied in increasing `c`: `H_c` (read from column `c`) produces
/// column `c−1` and updates the already formed columns `0..c−1`. A
/// reflector's column is overwritten only after it has been applied, and
/// column `n−1` is `e_{n−1}`.
fn form_q(z: &mut Matrix, tau: &[f64]) {
    let n = z.nrows();
    if n == 0 {
        return;
    }
    let s = z.as_mut_slice();
    for (c, &t) in tau.iter().enumerate().skip(1) {
        let (head, tail) = s.split_at_mut(c * n);
        // v[..c−1]: the explicit part of H_c (v[c−1] = 1 at row c−1).
        let v = &tail[..c - 1];
        let (formed, next) = head.split_at_mut((c - 1) * n);
        if t != 0.0 {
            // Columns 0..c−1 hold H_{c−1}⋯H₁ restricted to them, whose
            // row c−1 is zero.
            for col in formed.chunks_exact_mut(n) {
                let g = -t * dot(v, &col[..c - 1]);
                axpy(g, v, &mut col[..c - 1]);
                col[c - 1] = g;
            }
        }
        // Column c−1 = H_c e_{c−1}.
        for (q, &vr) in next[..c - 1].iter_mut().zip(v) {
            *q = -t * vr;
        }
        next[c - 1] = 1.0 - t;
        next[c..].fill(0.0);
    }
    s[(n - 1) * n..n * n - 1].fill(0.0);
    s[n * n - 1] = 1.0;
}

impl Tridiagonal {
    /// Reconstruct the dense tridiagonal matrix `T` (mostly for testing).
    pub fn t_matrix(&self) -> Matrix {
        let n = self.d.len();
        let mut t = Matrix::zeros(n, n);
        for i in 0..n {
            t[(i, i)] = self.d[i];
            if i > 0 {
                t[(i, i - 1)] = self.e[i];
                t[(i - 1, i)] = self.e[i];
            }
        }
        t
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gemm::{matmul, matmul_tn};
    use crate::norms::{fro_norm, max_norm};
    use proptest::prelude::*;

    /// Deterministic pseudo-random symmetric matrix, entries in [−1, 1).
    pub(crate) fn random_symmetric(n: usize, seed: u64) -> Matrix {
        let mut state = seed;
        let mut a = Matrix::zeros(n, n);
        for j in 0..n {
            for i in j..n {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let x = (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
                a[(i, j)] = x;
                a[(j, i)] = x;
            }
        }
        a
    }

    /// Max-norm residuals `‖Q T Qᵀ − A‖` and `‖QᵀQ − I‖` of a reduction.
    fn residuals(a: &Matrix, tri: &Tridiagonal) -> (f64, f64) {
        let qt = matmul(&tri.q, &tri.t_matrix()).unwrap();
        let back = matmul(&qt, &tri.q.transpose()).unwrap();
        let qtq = matmul_tn(&tri.q, &tri.q).unwrap();
        (
            back.max_abs_diff(a),
            qtq.max_abs_diff(&Matrix::identity(a.nrows())),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn random_inputs_reconstruct_with_orthogonal_q(seed in 0u64..1 << 40) {
            for n in [0, 1, 2, 3, 17, 64, 313] {
                let a = random_symmetric(n, seed);
                let tri = tred2(&a).unwrap();
                prop_assert_eq!(tri.e.first().copied().unwrap_or(0.0), 0.0);
                let (rec, orth) = residuals(&a, &tri);
                prop_assert!(rec <= 1e-13, "n={n}: ‖QTQᵀ − A‖ = {rec:e}");
                prop_assert!(orth <= 1e-13, "n={n}: ‖QᵀQ − I‖ = {orth:e}");
            }
        }
    }

    #[test]
    fn zero_columns_take_the_identity_reflector() {
        // Two dense diagonal blocks: column 3 is zero above the diagonal,
        // so its step has nothing to annihilate (τ = 0) and T decouples
        // exactly at the block boundary.
        let mut a = Matrix::zeros(7, 7);
        let (b1, b2) = (random_symmetric(3, 5), random_symmetric(4, 9));
        for j in 0..3 {
            for i in 0..3 {
                a[(i, j)] = b1[(i, j)];
            }
        }
        for j in 0..4 {
            for i in 0..4 {
                a[(i + 3, j + 3)] = b2[(i, j)];
            }
        }
        let tri = tred2(&a).unwrap();
        assert_eq!(tri.e[3], 0.0);
        let (rec, orth) = residuals(&a, &tri);
        assert!(rec <= 1e-14 && orth <= 1e-14, "rec {rec:e}, orth {orth:e}");
        for j in 0..3 {
            for i in 3..7 {
                assert_eq!(tri.q[(i, j)], 0.0);
                assert_eq!(tri.q[(j, i)], 0.0);
            }
        }
    }

    #[test]
    fn tridiagonal_input_is_an_exact_fixed_point() {
        // Every step takes the τ = 0 path: T is the input and Q = I.
        let n = 6;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = i as f64 - 2.5;
            if i > 0 {
                let off = if i % 2 == 0 { 0.75 } else { -1.25 };
                a[(i, i - 1)] = off;
                a[(i - 1, i)] = off;
            }
        }
        let tri = tred2(&a).unwrap();
        assert_eq!(tri.t_matrix(), a);
        assert_eq!(tri.q, Matrix::identity(n));
    }

    #[test]
    fn eigenvalues_of_t_match_sturm_bisection() {
        let a = random_symmetric(48, 77);
        let tri = tred2(&a).unwrap();
        let (mut d, mut e) = (tri.d.clone(), tri.e.clone());
        let mut z = Matrix::identity(48);
        crate::eigh::tql2(&mut d, &mut e, &mut z).unwrap();
        d.sort_by(f64::total_cmp);
        let scale = max_norm(&tri.t_matrix());
        for (k, &lambda) in d.iter().enumerate() {
            let bisected = crate::bisect::kth_eigenvalue(&tri.d, &tri.e, k, 1e-14);
            assert!(
                (lambda - bisected).abs() <= 1e-12 * scale,
                "k={k}: QL {lambda} vs bisection {bisected}"
            );
        }
    }

    #[test]
    fn non_finite_input_fails_fast() {
        for (i, j) in [(2, 2), (3, 1)] {
            for bad in [f64::NAN, f64::INFINITY] {
                let mut a = random_symmetric(5, 3);
                a[(i, j)] = bad;
                assert_eq!(
                    tred2(&a).unwrap_err(),
                    LinalgError::NonFinite { op: "tred2" }
                );
            }
        }
    }

    fn sym_test_matrix(n: usize) -> Matrix {
        let mut a = Matrix::from_fn(n, n, |i, j| {
            ((i * 31 + j * 17) % 13) as f64 * 0.1 + if i == j { 2.0 } else { 0.0 }
        });
        a.symmetrize();
        a
    }

    #[test]
    fn q_is_orthogonal() {
        let a = sym_test_matrix(12);
        let tri = tred2(&a).unwrap();
        let qtq = matmul_tn(&tri.q, &tri.q).unwrap();
        assert!(qtq.allclose(&Matrix::identity(12), 1e-12));
    }

    #[test]
    fn reconstruction_qtqt_equals_a() {
        let a = sym_test_matrix(10);
        let tri = tred2(&a).unwrap();
        let t = tri.t_matrix();
        let qt = matmul(&tri.q, &t).unwrap();
        let back = matmul(&qt, &tri.q.transpose()).unwrap();
        assert!(
            back.allclose(&a, 1e-11),
            "reconstruction error {}",
            fro_norm(&back.sub(&a).unwrap())
        );
    }

    #[test]
    fn already_tridiagonal_input() {
        let mut a = Matrix::zeros(5, 5);
        for i in 0..5 {
            a[(i, i)] = (i + 1) as f64;
            if i > 0 {
                a[(i, i - 1)] = 0.5;
                a[(i - 1, i)] = 0.5;
            }
        }
        let tri = tred2(&a).unwrap();
        let back = matmul(
            &matmul(&tri.q, &tri.t_matrix()).unwrap(),
            &tri.q.transpose(),
        )
        .unwrap();
        assert!(back.allclose(&a, 1e-12));
    }

    #[test]
    fn diagonal_input_is_fixed_point() {
        let a = Matrix::from_diag(&[3.0, 1.0, -2.0]);
        let tri = tred2(&a).unwrap();
        assert_eq!(tri.d, vec![3.0, 1.0, -2.0]);
        assert!(tri.e.iter().all(|&x| x == 0.0));
        assert_eq!(tri.q, Matrix::identity(3));
    }

    #[test]
    fn one_by_one_and_empty() {
        let a = Matrix::from_diag(&[7.0]);
        let tri = tred2(&a).unwrap();
        assert_eq!(tri.d, vec![7.0]);
        let a0 = Matrix::zeros(0, 0);
        let tri0 = tred2(&a0).unwrap();
        assert!(tri0.d.is_empty());
    }

    #[test]
    fn two_by_two() {
        let a = Matrix::from_row_major(2, 2, &[2.0, 1.0, 1.0, 3.0]);
        let tri = tred2(&a).unwrap();
        let back = matmul(
            &matmul(&tri.q, &tri.t_matrix()).unwrap(),
            &tri.q.transpose(),
        )
        .unwrap();
        assert!(back.allclose(&a, 1e-13));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            tred2(&a),
            Err(LinalgError::NotSquare { op: "tred2", .. })
        ));
    }
}
