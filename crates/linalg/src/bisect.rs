//! Sturm-sequence bisection on symmetric tridiagonal matrices.
//!
//! The sign-function methods only need *spectral position* information:
//! how many states lie below µ, and how wide the gap around µ is (the gap
//! controls Newton–Schulz iteration counts and FP16 robustness, paper
//! Secs. V-A and VI-A). Counting eigenvalues below a shift via the inertia
//! of `T − xI` (Sturm sequence / LDLᵀ pivot signs) answers both questions
//! after one O(n²) tridiagonalization — far cheaper than a full `eigh`.

use crate::matrix::Matrix;
use crate::tridiag::tridiagonal_values;
use crate::LinalgError;

/// Number of eigenvalues of the tridiagonal matrix `(d, e)` that are
/// strictly below `x`. `e[0]` is unused (LAPACK convention: `e[i]` couples
/// rows `i−1` and `i`).
pub fn count_below(d: &[f64], e: &[f64], x: f64) -> usize {
    let n = d.len();
    assert_eq!(e.len(), n, "sub-diagonal must have length n (e[0] unused)");
    // Sturm sequence: q_i = (d_i − x) − e_i² / q_{i−1}; the number of
    // negative q_i equals the number of eigenvalues below x.
    let mut count = 0usize;
    let mut q = 1.0f64;
    #[allow(clippy::needless_range_loop)] // the recurrence couples d[i] and e[i]
    for i in 0..n {
        let e2 = if i == 0 { 0.0 } else { e[i] * e[i] };
        q = (d[i] - x)
            - if q != 0.0 {
                e2 / q
            } else {
                e2 / f64::MIN_POSITIVE
            };
        if q < 0.0 {
            count += 1;
        }
    }
    count
}

/// The `k`-th smallest eigenvalue (0-based) of the tridiagonal `(d, e)`,
/// located by bisection to absolute tolerance `tol`.
pub fn kth_eigenvalue(d: &[f64], e: &[f64], k: usize, tol: f64) -> f64 {
    let n = d.len();
    assert!(k < n, "eigenvalue index {k} out of range");
    // Gershgorin bounds.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    #[allow(clippy::needless_range_loop)] // couples d[i] with e[i], e[i+1]
    for i in 0..n {
        let r = e.get(i).copied().unwrap_or(0.0).abs() + e.get(i + 1).copied().unwrap_or(0.0).abs();
        lo = lo.min(d[i] - r);
        hi = hi.max(d[i] + r);
    }
    // Widen so strict-below counting brackets correctly.
    let width = (hi - lo).max(1.0);
    lo -= 1e-12 * width;
    hi += 1e-12 * width + tol;
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if count_below(d, e, mid) <= k {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Spectral information around a shift µ for a symmetric matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralWindow {
    /// Eigenvalues strictly below µ.
    pub n_below: usize,
    /// Largest eigenvalue below µ (HOMO), if any.
    pub below: Option<f64>,
    /// Smallest eigenvalue at/above µ (LUMO), if any.
    pub above: Option<f64>,
}

impl SpectralWindow {
    /// Width of the gap straddling µ (`above − below`), if both exist.
    pub fn gap(&self) -> Option<f64> {
        match (self.below, self.above) {
            (Some(b), Some(a)) => Some(a - b),
            _ => None,
        }
    }
}

/// Locate the spectrum around µ for a symmetric matrix: occupation count
/// and the two gap-edge eigenvalues, via tridiagonalization + bisection.
pub fn spectral_window(a: &Matrix, mu: f64, tol: f64) -> Result<SpectralWindow, LinalgError> {
    let (d, e) = tridiagonal_values(a, "spectral_window")?;
    let n = d.len();
    let n_below = count_below(&d, &e, mu);
    let below = if n_below > 0 {
        Some(kth_eigenvalue(&d, &e, n_below - 1, tol))
    } else {
        None
    };
    let above = if n_below < n {
        Some(kth_eigenvalue(&d, &e, n_below, tol))
    } else {
        None
    };
    Ok(SpectralWindow {
        n_below,
        below,
        above,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigh::eigvalsh;

    fn test_tridiag(n: usize) -> (Vec<f64>, Vec<f64>) {
        let d: Vec<f64> = (0..n).map(|i| (i as f64) - n as f64 / 2.0).collect();
        let mut e = vec![0.5; n];
        e[0] = 0.0;
        (d, e)
    }

    fn dense_of(d: &[f64], e: &[f64]) -> Matrix {
        let n = d.len();
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = d[i];
            if i > 0 {
                a[(i, i - 1)] = e[i];
                a[(i - 1, i)] = e[i];
            }
        }
        a
    }

    #[test]
    fn count_matches_full_solver() {
        let (d, e) = test_tridiag(9);
        let eigs = eigvalsh(&dense_of(&d, &e)).unwrap();
        for x in [-10.0, -2.3, -0.1, 0.0, 0.7, 3.9, 10.0] {
            let expect = eigs.iter().filter(|&&l| l < x).count();
            assert_eq!(count_below(&d, &e, x), expect, "count at {x}");
        }
    }

    #[test]
    fn kth_eigenvalue_matches_full_solver() {
        let (d, e) = test_tridiag(8);
        let eigs = eigvalsh(&dense_of(&d, &e)).unwrap();
        for (k, &expect) in eigs.iter().enumerate() {
            let got = kth_eigenvalue(&d, &e, k, 1e-12);
            assert!((got - expect).abs() < 1e-9, "k={k}: {got} vs {expect}");
        }
    }

    #[test]
    fn diagonal_matrix_counting() {
        let d = vec![1.0, 2.0, 3.0];
        let e = vec![0.0; 3];
        assert_eq!(count_below(&d, &e, 0.5), 0);
        assert_eq!(count_below(&d, &e, 1.5), 1);
        assert_eq!(count_below(&d, &e, 2.0), 1); // strict
        assert_eq!(count_below(&d, &e, 100.0), 3);
    }

    #[test]
    fn spectral_window_finds_gap_edges() {
        // Dense symmetric matrix with a known gap around 0.
        let mut a = Matrix::from_fn(10, 10, |i, j| {
            if i == j {
                if i % 2 == 0 {
                    2.0
                } else {
                    -2.0
                }
            } else {
                0.1 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        a.symmetrize();
        let eigs = eigvalsh(&a).unwrap();
        let w = spectral_window(&a, 0.0, 1e-11).unwrap();
        assert_eq!(w.n_below, 5);
        assert!((w.below.unwrap() - eigs[4]).abs() < 1e-8);
        assert!((w.above.unwrap() - eigs[5]).abs() < 1e-8);
        let gap = w.gap().unwrap();
        assert!((gap - (eigs[5] - eigs[4])).abs() < 1e-8);
        assert!(gap > 3.0, "test spectrum should be strongly gapped");
    }

    #[test]
    fn window_edges_when_mu_outside_spectrum() {
        let a = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        let w_lo = spectral_window(&a, -5.0, 1e-12).unwrap();
        assert_eq!(w_lo.n_below, 0);
        assert!(w_lo.below.is_none());
        assert!((w_lo.above.unwrap() - 1.0).abs() < 1e-9);
        assert!(w_lo.gap().is_none());
        let w_hi = spectral_window(&a, 5.0, 1e-12).unwrap();
        assert_eq!(w_hi.n_below, 3);
        assert!(w_hi.above.is_none());
        assert!((w_hi.below.unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_eigenvalues_counted_with_multiplicity() {
        let a = Matrix::from_diag(&[1.0, 1.0, 1.0, 4.0]);
        let w = spectral_window(&a, 2.0, 1e-12).unwrap();
        assert_eq!(w.n_below, 3);
        assert!((w.below.unwrap() - 1.0).abs() < 1e-9);
        assert!((w.above.unwrap() - 4.0).abs() < 1e-9);
    }
}
