//! General matrix-matrix multiplication (GEMM).
//!
//! The submatrix method turns a sparse problem into many *dense* matrix
//! multiplications (sign iterations, eigenvector back-transforms), so this is
//! the hot kernel of the whole reproduction. The implementation is a
//! cache-blocked, column-panel-parallel GEMM, generic over the
//! [`Elem`] scalar (`f32` + `f64`) so the reduced-precision execution path
//! runs the *same* kernel in single precision:
//!
//! * the N (no-transpose) × N path streams columns of `A` with fused
//!   `axpy` updates, which is optimal for the column-major layout and
//!   auto-vectorizes well;
//! * transposed operands are handled by the T×N dot-product path; N×T
//!   streams the rows of `B` directly (strided reads amortized over an
//!   entire `axpy` each) once `k·n` outgrows the transpose tile, and only
//!   materializes `Bᵀ` below that — keeping the O(k·n) copy and its
//!   allocation out of the sign-iteration inner loop;
//! * Rayon parallelism splits the columns of `C` across threads — the same
//!   shared-memory strategy the paper uses with OpenMP (Sec. IV-D).
//!
//! For `f32` operands, [`matmul_wide`] additionally offers an `f64`
//! accumulator in the inner kernel (single-precision storage and wire
//! traffic, double-precision accumulation — the CPU analogue of the
//! tensor-core FP16' mixed mode of paper Sec. VI).

use rayon::prelude::*;

use crate::elem::Elem;
use crate::matrix::{Matrix, MatrixBase, MatrixF32};
use crate::LinalgError;

/// Whether an operand enters the product transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Use the operand as stored.
    NoTrans,
    /// Use the transpose of the operand.
    Trans,
}

impl Op {
    /// Shape of the operand after applying the op.
    fn apply(self, shape: (usize, usize)) -> (usize, usize) {
        match self {
            Op::NoTrans => shape,
            Op::Trans => (shape.1, shape.0),
        }
    }
}

/// Problems smaller than this run sequentially: thread spawn overhead would
/// dominate. Chosen from the criterion micro-benches in `sm-bench`.
const PAR_THRESHOLD_FLOPS: usize = 1 << 21;

/// N×T products whose `Bᵀ` copy would exceed this many elements stream the
/// rows of `B` in place instead of materializing the transpose. Below the
/// threshold the copy fits comfortably in cache and keeps the inner loop
/// contiguous; above it the copy is an O(k·n) allocation per GEMM — pure
/// overhead in the sign-iteration inner loop.
const TRANSPOSE_TILE_ELEMS: usize = 1 << 13;

/// `C = alpha * op(A) * op(B) + beta * C`, generic over the element type.
///
/// Dimensions must satisfy `op(A): m×k`, `op(B): k×n`, `C: m×n`.
pub fn gemm<E: Elem>(
    alpha: E,
    a: &MatrixBase<E>,
    op_a: Op,
    b: &MatrixBase<E>,
    op_b: Op,
    beta: E,
    c: &mut MatrixBase<E>,
) -> Result<(), LinalgError> {
    let (m, ka) = op_a.apply(a.shape());
    let (kb, n) = op_b.apply(b.shape());
    if ka != kb || c.shape() != (m, n) {
        return Err(LinalgError::DimensionMismatch {
            op: "gemm",
            lhs: op_a.apply(a.shape()),
            rhs: op_b.apply(b.shape()),
        });
    }
    let k = ka;

    if beta != E::ONE {
        if beta == E::ZERO {
            c.as_mut_slice().fill(E::ZERO);
        } else {
            c.scale(beta);
        }
    }
    if alpha == E::ZERO || m == 0 || n == 0 || k == 0 {
        return Ok(());
    }

    let flops = 2 * m * n * k;
    let parallel = flops >= PAR_THRESHOLD_FLOPS && rayon::current_num_threads() > 1;

    match (op_a, op_b) {
        (Op::NoTrans, Op::Trans) if k * n > TRANSPOSE_TILE_ELEMS => {
            // Stream B's rows in place: element (k, j) of op(B) is B[j, k],
            // one strided load per whole-column axpy — no Bᵀ copy.
            let kernel = |j: usize, c_col: &mut [E]| {
                for kk in 0..k {
                    let s = alpha * b[(j, kk)];
                    if s != E::ZERO {
                        crate::blas1::axpy(s, a.col(kk), c_col);
                    }
                }
            };
            run_over_columns(c, parallel, kernel);
        }
        (op_a, op_b_orig) => {
            // Remaining cases: N×N (axpy streaming, b_eff = b — no copy),
            // T×N (dot path), small N×T and T×T (materialize Bᵀ once —
            // the copy fits in the transpose tile for N×T and feeds the
            // dot path for T×T).
            let bt;
            let b_eff: &MatrixBase<E> = match op_b_orig {
                Op::NoTrans => b,
                Op::Trans => {
                    bt = b.transpose();
                    &bt
                }
            };
            match op_a {
                Op::NoTrans => {
                    let kernel = |j: usize, c_col: &mut [E]| {
                        let b_col = b_eff.col(j);
                        for (kk, &bkj) in b_col.iter().enumerate() {
                            let s = alpha * bkj;
                            if s != E::ZERO {
                                crate::blas1::axpy(s, a.col(kk), c_col);
                            }
                        }
                    };
                    run_over_columns(c, parallel, kernel);
                }
                Op::Trans => {
                    let kernel = |j: usize, c_col: &mut [E]| {
                        let b_col = b_eff.col(j);
                        for (i, ci) in c_col.iter_mut().enumerate() {
                            *ci += alpha * crate::blas1::dot(a.col(i), b_col);
                        }
                    };
                    run_over_columns(c, parallel, kernel);
                }
            }
        }
    }
    Ok(())
}

/// Apply `kernel(j, column_j_of_c)` to every column of `c`, optionally in
/// parallel over Rayon's pool.
fn run_over_columns<E: Elem>(
    c: &mut MatrixBase<E>,
    parallel: bool,
    kernel: impl Fn(usize, &mut [E]) + Sync,
) {
    let m = c.nrows();
    if parallel {
        c.as_mut_slice()
            .par_chunks_mut(m)
            .enumerate()
            .for_each(|(j, col)| kernel(j, col));
    } else {
        c.as_mut_slice()
            .chunks_mut(m)
            .enumerate()
            .for_each(|(j, col)| kernel(j, col));
    }
}

/// Convenience wrapper: return `A * B` (any element type).
pub fn matmul_in<E: Elem>(
    a: &MatrixBase<E>,
    b: &MatrixBase<E>,
) -> Result<MatrixBase<E>, LinalgError> {
    let mut c = MatrixBase::zeros(a.nrows(), b.ncols());
    gemm(E::ONE, a, Op::NoTrans, b, Op::NoTrans, E::ZERO, &mut c)?;
    Ok(c)
}

/// Convenience wrapper: return `A * B` (double precision).
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    matmul_in(a, b)
}

/// `A * B` for `f32` operands with **`f64` accumulation** in the inner
/// kernel: every output column accumulates in a double-precision scratch
/// panel and rounds to `f32` exactly once. Storage, inputs and output stay
/// single precision; only the running sums are wide — the mixed mode the
/// reduced-precision sign iteration uses.
pub fn matmul_wide(a: &MatrixF32, b: &MatrixF32) -> Result<MatrixF32, LinalgError> {
    if a.ncols() != b.nrows() {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul_wide",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k) = a.shape();
    let n = b.ncols();
    let mut c = MatrixF32::zeros(m, n);
    let flops = 2 * m * n * k;
    let parallel = flops >= PAR_THRESHOLD_FLOPS && rayon::current_num_threads() > 1;
    let column = |j: usize, c_col: &mut [f32], acc: &mut [f64]| {
        acc.fill(0.0);
        let b_col = b.col(j);
        for (kk, &bkj) in b_col.iter().enumerate() {
            let s = bkj as f64;
            if s != 0.0 {
                for (ai, acc_i) in a.col(kk).iter().zip(acc.iter_mut()) {
                    *acc_i += s * (*ai as f64);
                }
            }
        }
        for (ci, &wide) in c_col.iter_mut().zip(acc.iter()) {
            *ci = wide as f32;
        }
    };
    if parallel {
        // Threads own disjoint columns; each pays for its own scratch.
        run_over_columns(&mut c, true, |j, c_col| {
            column(j, c_col, &mut vec![0.0f64; m])
        });
    } else {
        // Sequential hot path (the per-submatrix solves run with
        // engine-level parallelism disabled): one scratch for all columns,
        // no per-column allocation in the sign-iteration inner loop.
        let mut acc = vec![0.0f64; m];
        for (j, c_col) in c.as_mut_slice().chunks_mut(m).enumerate() {
            column(j, c_col, &mut acc);
        }
    }
    Ok(c)
}

/// Convenience wrapper: return `A^T * B`.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    let mut c = Matrix::zeros(a.ncols(), b.ncols());
    gemm(1.0, a, Op::Trans, b, Op::NoTrans, 0.0, &mut c)?;
    Ok(c)
}

/// Convenience wrapper: return `A * B^T`.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    let mut c = Matrix::zeros(a.nrows(), b.nrows());
    gemm(1.0, a, Op::NoTrans, b, Op::Trans, 0.0, &mut c)?;
    Ok(c)
}

/// Similarity transform `Q * D * Q^T` where `D` is diagonal, given as a
/// slice. This is the back-transform of the eigendecomposition-based sign
/// evaluation (Eq. 17 of the paper). The result is symmetric, so only its
/// lower triangle is computed — column `j` accumulates
/// `(d[l]·Q[j,l])·Q[j.., l]` over `l` as contiguous axpys, `n³` flops
/// instead of a full GEMM's `2n³` — and then mirrored, which makes the
/// output exactly symmetric.
pub fn q_diag_qt(q: &Matrix, d: &[f64]) -> Result<Matrix, LinalgError> {
    if q.ncols() != d.len() {
        return Err(LinalgError::DimensionMismatch {
            op: "q_diag_qt",
            lhs: q.shape(),
            rhs: (d.len(), d.len()),
        });
    }
    let n = q.nrows();
    let mut c = Matrix::zeros(n, n);
    let parallel = n * n * d.len() >= PAR_THRESHOLD_FLOPS && rayon::current_num_threads() > 1;
    run_over_columns(&mut c, parallel, |j, c_col| {
        let lower = &mut c_col[j..];
        for (l, &dl) in d.iter().enumerate() {
            let s = dl * q[(j, l)];
            if s != 0.0 {
                crate::blas1::axpy(s, &q.col(l)[j..], lower);
            }
        }
    });
    for j in 0..n {
        for i in j + 1..n {
            c[(j, i)] = c[(i, j)];
        }
    }
    Ok(c)
}

/// Naive triple-loop reference multiply, used by tests and property checks.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    if a.ncols() != b.nrows() {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul_naive",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut c = Matrix::zeros(a.nrows(), b.ncols());
    for j in 0..b.ncols() {
        for i in 0..a.nrows() {
            let mut s = 0.0;
            for kk in 0..a.ncols() {
                s += a[(i, kk)] * b[(kk, j)];
            }
            c[(i, j)] = s;
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arange(m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |i, j| (i * n + j) as f64 * 0.1 - 1.0)
    }

    #[test]
    fn matmul_matches_naive() {
        let a = arange(5, 7);
        let b = arange(7, 4);
        let c = matmul(&a, &b).unwrap();
        let r = matmul_naive(&a, &b).unwrap();
        assert!(c.allclose(&r, 1e-12));
    }

    #[test]
    fn identity_is_neutral() {
        let a = arange(6, 6);
        let i = Matrix::identity(6);
        assert!(matmul(&a, &i).unwrap().allclose(&a, 1e-15));
        assert!(matmul(&i, &a).unwrap().allclose(&a, 1e-15));
    }

    #[test]
    fn tn_path_matches_explicit_transpose() {
        let a = arange(7, 5);
        let b = arange(7, 3);
        let c = matmul_tn(&a, &b).unwrap();
        let r = matmul_naive(&a.transpose(), &b).unwrap();
        assert!(c.allclose(&r, 1e-12));
    }

    #[test]
    fn nt_path_matches_explicit_transpose() {
        let a = arange(4, 6);
        let b = arange(5, 6);
        let c = matmul_nt(&a, &b).unwrap();
        let r = matmul_naive(&a, &b.transpose()).unwrap();
        assert!(c.allclose(&r, 1e-12));
    }

    #[test]
    fn nt_streaming_path_matches_materialized() {
        // k·n > TRANSPOSE_TILE_ELEMS trips the streaming (no-copy) path;
        // it performs the identical per-column axpy sequence, so the result
        // matches the naive reference to roundoff.
        let a = arange(10, 96);
        let b = arange(112, 96); // k·n = 96·112 > 8192
        assert!(a.ncols() * b.nrows() > super::TRANSPOSE_TILE_ELEMS);
        let c = matmul_nt(&a, &b).unwrap();
        let r = matmul_naive(&a, &b.transpose()).unwrap();
        assert!(c.allclose(&r, 1e-11));
    }

    #[test]
    fn tt_path() {
        let a = arange(6, 4);
        let b = arange(3, 6);
        let mut c = Matrix::zeros(4, 3);
        gemm(1.0, &a, Op::Trans, &b, Op::Trans, 0.0, &mut c).unwrap();
        let r = matmul_naive(&a.transpose(), &b.transpose()).unwrap();
        assert!(c.allclose(&r, 1e-12));
    }

    #[test]
    fn alpha_beta_accumulate() {
        let a = arange(3, 3);
        let b = Matrix::identity(3);
        let mut c = Matrix::identity(3);
        // C = 2*A*I + 3*I
        gemm(2.0, &a, Op::NoTrans, &b, Op::NoTrans, 3.0, &mut c).unwrap();
        let mut expect = a.scaled(2.0);
        expect.shift_diag(3.0);
        assert!(c.allclose(&expect, 1e-12));
    }

    #[test]
    fn beta_zero_overwrites_nan_garbage() {
        let a = Matrix::identity(2);
        let b = Matrix::identity(2);
        let mut c = Matrix::from_row_major(2, 2, &[f64::NAN; 4]);
        gemm(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c).unwrap();
        assert!(c.allclose(&Matrix::identity(2), 1e-15));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
        let mut c = Matrix::zeros(3, 3);
        assert!(gemm(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c).is_err());
    }

    #[test]
    fn large_parallel_matches_naive() {
        // Big enough to trip the parallel path (2*m*n*k >= 2^21).
        let a = arange(128, 64);
        let b = arange(64, 128);
        let c = matmul(&a, &b).unwrap();
        let r = matmul_naive(&a, &b).unwrap();
        assert!(c.allclose(&r, 1e-9));
    }

    #[test]
    fn q_diag_qt_matches_explicit() {
        let q = arange(5, 5);
        let d = [1.0, -1.0, 2.0, 0.5, 0.0];
        let got = q_diag_qt(&q, &d).unwrap();
        let dm = Matrix::from_diag(&d);
        let expect = matmul(&matmul(&q, &dm).unwrap(), &q.transpose()).unwrap();
        assert!(got.allclose(&expect, 1e-12));
    }

    #[test]
    fn q_diag_qt_general_diagonal_is_exactly_symmetric() {
        // Large enough for the parallel column split; d is not ±1.
        let n = 140;
        let q = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 13) % 11) as f64 * 0.1 - 0.5);
        let d: Vec<f64> = (0..n).map(|l| (l % 9) as f64 * 0.37 - 1.3).collect();
        let got = q_diag_qt(&q, &d).unwrap();
        assert_eq!(got, got.transpose());
        let expect = matmul(&matmul(&q, &Matrix::from_diag(&d)).unwrap(), &q.transpose()).unwrap();
        assert!(
            got.allclose(&expect, 1e-12),
            "max diff {}",
            got.max_abs_diff(&expect)
        );
    }

    #[test]
    fn q_diag_qt_dimension_check() {
        let q = Matrix::zeros(3, 3);
        assert!(q_diag_qt(&q, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn empty_dimensions_are_ok() {
        let a = Matrix::zeros(0, 0);
        let b = Matrix::zeros(0, 0);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), (0, 0));
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), (3, 2));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn f32_gemm_matches_f64_to_single_roundoff() {
        let a = Matrix::from_fn(24, 17, |i, j| ((i * 7 + j * 3) % 9) as f64 * 0.11 - 0.4);
        let b = Matrix::from_fn(17, 21, |i, j| ((i * 5 + j * 11) % 7) as f64 * 0.13 - 0.35);
        let r = matmul(&a, &b).unwrap();
        let c32 = matmul_in(&a.to_f32(), &b.to_f32()).unwrap();
        let diff = c32.to_f64().max_abs_diff(&r);
        assert!(diff < 1e-3, "f32 gemm too far off: {diff}");
        assert!(diff > 0.0, "f32 gemm should differ from f64 in roundoff");
    }

    #[test]
    fn f32_transposed_paths_match_naive() {
        let a = arange(9, 6).to_f32();
        let b = arange(9, 5).to_f32();
        let mut c = MatrixF32::zeros(6, 5);
        gemm(1.0f32, &a, Op::Trans, &b, Op::NoTrans, 0.0, &mut c).unwrap();
        let r = matmul_naive(&a.to_f64().transpose(), &b.to_f64()).unwrap();
        assert!(c.to_f64().allclose(&r, 1e-4));
    }

    #[test]
    fn wide_accumulation_is_at_least_as_accurate() {
        // Long inner dimension: plain f32 accumulation drifts, the f64
        // accumulator stays at input-rounding level.
        let n = 160;
        let a = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 7) % 11) as f64 * 0.09 - 0.45);
        let b = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 3) % 13) as f64 * 0.07 - 0.4);
        let exact = matmul(&a, &b).unwrap();
        let narrow = matmul_in(&a.to_f32(), &b.to_f32()).unwrap();
        let wide = matmul_wide(&a.to_f32(), &b.to_f32()).unwrap();
        let e_narrow = narrow.to_f64().max_abs_diff(&exact);
        let e_wide = wide.to_f64().max_abs_diff(&exact);
        assert!(
            e_wide <= e_narrow + 1e-12,
            "wide accumulation ({e_wide}) must not be worse than narrow ({e_narrow})"
        );
        assert!(e_wide < 1e-3);
    }

    #[test]
    fn matmul_wide_dimension_check() {
        let a = MatrixF32::zeros(2, 3);
        let b = MatrixF32::zeros(2, 3);
        assert!(matmul_wide(&a, &b).is_err());
    }
}
