//! Small dense linear algebra.
//!
//! A row-major `f64` matrix with exactly the operations the workspace needs:
//! least-squares solves for multilateration (via normal equations +
//! Cholesky), LU with partial pivoting for general solves, symmetric
//! eigendecomposition (cyclic Jacobi) for MDS-MAP and the Fisher-information
//! analysis, and positive-definite inversion for the CRLB.
//!
//! Sizes here are at most a few thousand on a side (the CRLB Fisher matrix is
//! `2N × 2N`), so cubic dense algorithms are appropriate; no attempt is made
//! at blocking or BLAS-style tuning beyond keeping the inner loops on
//! contiguous rows, per the perf-book guidance of iterating row-major data in
//! row order.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Row-major dense matrix.
///
/// ```
/// use wsnloc_geom::Matrix;
/// let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
/// let x = a.solve_spd(&[1.0, 2.0]).unwrap();
/// let b = a.mul_vec(&x);
/// assert!((b[0] - 1.0).abs() < 1e-12 && (b[1] - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a nested row slice; panics on ragged input.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow of row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product; panics on shape mismatch.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "mul_vec shape mismatch");
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(v) {
                acc += a * b;
            }
            *o = acc;
        }
        out
    }

    /// Scales every entry.
    pub fn scaled(&self, k: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * k).collect(),
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Cholesky factor `L` (lower triangular, `A = L Lᵀ`) of a symmetric
    /// positive-definite matrix. Returns `None` when a pivot is not strictly
    /// positive (matrix not SPD or numerically singular).
    pub fn cholesky(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "cholesky requires square matrix");
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return None;
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Some(l)
    }

    /// Solves `A x = b` for SPD `A` via Cholesky. `None` if not SPD.
    pub fn solve_spd(&self, b: &[f64]) -> Option<Vec<f64>> {
        let l = self.cholesky()?;
        let n = self.rows;
        assert_eq!(b.len(), n, "solve_spd rhs length mismatch");
        // Forward substitution: L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[(i, k)] * y[k];
            }
            y[i] = sum / l[(i, i)];
        }
        // Back substitution: Lᵀ x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= l[(k, i)] * x[k];
            }
            x[i] = sum / l[(i, i)];
        }
        Some(x)
    }

    /// Inverse of an SPD matrix via Cholesky column solves. `None` if not SPD.
    pub fn inverse_spd(&self) -> Option<Matrix> {
        let n = self.rows;
        let l = self.cholesky()?;
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for col in 0..n {
            e.iter_mut().for_each(|x| *x = 0.0);
            e[col] = 1.0;
            // Reuse the factor: forward then back substitution.
            let mut y = vec![0.0; n];
            for i in 0..n {
                let mut sum = e[i];
                for k in 0..i {
                    sum -= l[(i, k)] * y[k];
                }
                y[i] = sum / l[(i, i)];
            }
            for i in (0..n).rev() {
                let mut sum = y[i];
                for k in (i + 1)..n {
                    sum -= l[(k, i)] * inv[(k, col)];
                }
                inv[(i, col)] = sum / l[(i, i)];
            }
        }
        Some(inv)
    }

    /// Solves `A x = b` with LU decomposition and partial pivoting. Returns
    /// `None` for (numerically) singular `A`.
    pub fn solve_lu(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve_lu requires square matrix");
        let n = self.rows;
        assert_eq!(b.len(), n, "solve_lu rhs length mismatch");
        let mut a = self.data.clone();
        let mut x: Vec<f64> = b.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();

        for col in 0..n {
            // Pivot: largest magnitude in the column at or below the diagonal.
            let mut pivot_row = col;
            let mut pivot_val = a[perm[col] * n + col].abs();
            for r in (col + 1)..n {
                let v = a[perm[r] * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-13 {
                return None;
            }
            perm.swap(col, pivot_row);
            let prow = perm[col];
            let pv = a[prow * n + col];
            for &row in &perm[(col + 1)..] {
                let factor = a[row * n + col] / pv;
                a[row * n + col] = factor;
                for c in (col + 1)..n {
                    a[row * n + c] -= factor * a[prow * n + c];
                }
            }
        }
        // Apply permutation to b and do forward substitution with unit L.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = x[perm[i]];
            for k in 0..i {
                sum -= a[perm[i] * n + k] * y[k];
            }
            y[i] = sum;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= a[perm[i] * n + k] * x[k];
            }
            x[i] = sum / a[perm[i] * n + i];
        }
        Some(x)
    }

    /// Least-squares solution of the (possibly overdetermined) system
    /// `A x ≈ b` via the normal equations `AᵀA x = Aᵀb` with a tiny ridge for
    /// conditioning. Returns `None` when the normal matrix is singular.
    pub fn solve_least_squares(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, b.len(), "least-squares rhs length mismatch");
        let at = self.transpose();
        let mut ata = &at * self;
        let atb = at.mul_vec(b);
        // Ridge scaled to the matrix magnitude keeps near-degenerate anchor
        // geometries solvable without visibly biasing good ones.
        let ridge = 1e-10 * (1.0 + ata.frobenius_norm());
        for i in 0..ata.rows() {
            ata[(i, i)] += ridge;
        }
        ata.solve_spd(&atb).or_else(|| ata.solve_lu(&atb))
    }

    /// Symmetric eigendecomposition by the cyclic Jacobi method.
    ///
    /// Returns `(eigenvalues, eigenvectors)` with eigenvalues sorted in
    /// descending order and `eigenvectors.row(k)` NOT the convention — the
    /// k-th eigenvector is the k-th **column** of the returned matrix.
    /// Panics if the matrix is not square; the caller is responsible for
    /// symmetry (asymmetric parts are implicitly averaged by the rotations).
    pub fn symmetric_eigen(&self) -> (Vec<f64>, Matrix) {
        assert_eq!(self.rows, self.cols, "eigen requires square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut v = Matrix::identity(n);

        for _sweep in 0..100 {
            let mut off = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += a[(i, j)] * a[(i, j)];
                }
            }
            if off.sqrt() < 1e-12 * (1.0 + a.frobenius_norm()) {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a[(p, q)];
                    if apq.abs() < 1e-300 {
                        continue;
                    }
                    let app = a[(p, p)];
                    let aqq = a[(q, q)];
                    let theta = 0.5
                        * (aqq - app).atan2(2.0 * apq)
                        * if (aqq - app).abs() < 1e-300 && apq.abs() < 1e-300 {
                            0.0
                        } else {
                            1.0
                        };
                    // Classic stable rotation computation.
                    let tau = (aqq - app) / (2.0 * apq);
                    let t = if tau >= 0.0 {
                        1.0 / (tau + (1.0 + tau * tau).sqrt())
                    } else {
                        -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                    };
                    let _ = theta;
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    // Update A = Jᵀ A J on rows/cols p and q.
                    for k in 0..n {
                        let akp = a[(k, p)];
                        let akq = a[(k, q)];
                        a[(k, p)] = c * akp - s * akq;
                        a[(k, q)] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a[(p, k)];
                        let aqk = a[(q, k)];
                        a[(p, k)] = c * apk - s * aqk;
                        a[(q, k)] = s * apk + c * aqk;
                    }
                    // Accumulate eigenvectors.
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }

        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| a[(j, j)].total_cmp(&a[(i, i)]));
        let eigenvalues: Vec<f64> = order.iter().map(|&i| a[(i, i)]).collect();
        let mut vectors = Matrix::zeros(n, n);
        for (new_col, &old_col) in order.iter().enumerate() {
            for row in 0..n {
                vectors[(row, new_col)] = v[(row, old_col)];
            }
        }
        (eigenvalues, vectors)
    }

    /// Trace of a square matrix.
    pub fn trace(&self) -> f64 {
        assert_eq!(self.rows, self.cols, "trace requires square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order keeps both the rhs row and the output row
        // contiguous in the inner loop (cache-friendly for row-major data).
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                // Sparsity fast path: skip structural zeros. Exact bit test,
                // not a tolerance comparison — ±0.0 only.
                if aik.abs().to_bits() == 0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, r) in orow.iter_mut().zip(rrow) {
                    *o += aik * r;
                }
            }
        }
        out
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.5} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        let id = Matrix::identity(3);
        assert_eq!(id[(1, 1)], 1.0);
        assert_eq!(id[(0, 1)], 0.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = &a * &b;
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_neutral() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 3.0, 7.0]]);
        let i3 = Matrix::identity(3);
        assert_eq!(&a * &i3, a);
    }

    #[test]
    fn mul_vec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let v = vec![1.0, -1.0];
        assert_eq!(a.mul_vec(&v), vec![-1.0, -1.0, -1.0]);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(&b - &a, Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(a.scaled(2.0), Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]]);
        let l = a.cholesky().unwrap();
        let lt = l.transpose();
        let recon = &l * &lt;
        assert!((&recon - &a).frobenius_norm() < 1e-10);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(a.cholesky().is_none());
    }

    #[test]
    fn solve_spd_known_system() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let x = a.solve_spd(&[1.0, 2.0]).unwrap();
        // Solution of [[4,1],[1,3]] x = [1,2]: x = [1/11, 7/11].
        assert!(approx(x[0], 1.0 / 11.0, 1e-12));
        assert!(approx(x[1], 7.0 / 11.0, 1e-12));
    }

    #[test]
    fn solve_lu_general_system() {
        let a = Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, -2.0, -3.0], &[-1.0, 1.0, 2.0]]);
        let b = [-8.0, 0.0, 3.0];
        let x = a.solve_lu(&b).unwrap();
        let r = a.mul_vec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!(approx(*ri, *bi, 1e-10));
        }
    }

    #[test]
    fn solve_lu_detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(a.solve_lu(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn inverse_spd_roundtrip() {
        let a = Matrix::from_rows(&[&[5.0, 1.0, 0.0], &[1.0, 4.0, 1.0], &[0.0, 1.0, 3.0]]);
        let inv = a.inverse_spd().unwrap();
        let prod = &a * &inv;
        assert!((&prod - &Matrix::identity(3)).frobenius_norm() < 1e-10);
    }

    #[test]
    fn least_squares_overdetermined_line_fit() {
        // Fit y = 2x + 1 from noisy-free samples: exact recovery.
        let xs = [0.0, 1.0, 2.0, 3.0];
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x, 1.0]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(std::vec::Vec::as_slice).collect();
        let a = Matrix::from_rows(&refs);
        let b: Vec<f64> = xs.iter().map(|&x| 2.0 * x + 1.0).collect();
        let sol = a.solve_least_squares(&b).unwrap();
        assert!(approx(sol[0], 2.0, 1e-6));
        assert!(approx(sol[1], 1.0, 1e-6));
    }

    #[test]
    fn symmetric_eigen_diagonal() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 1.0]]);
        let (vals, vecs) = a.symmetric_eigen();
        assert!(approx(vals[0], 3.0, 1e-10));
        assert!(approx(vals[1], 1.0, 1e-10));
        // First eigenvector along x.
        assert!(vecs[(0, 0)].abs() > 0.999);
    }

    #[test]
    fn symmetric_eigen_known_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let (vals, vecs) = a.symmetric_eigen();
        assert!(approx(vals[0], 3.0, 1e-10));
        assert!(approx(vals[1], 1.0, 1e-10));
        // A v = λ v for the first pair.
        let v0 = [vecs[(0, 0)], vecs[(1, 0)]];
        let av = a.mul_vec(&v0);
        assert!(approx(av[0], 3.0 * v0[0], 1e-9));
        assert!(approx(av[1], 3.0 * v0[1], 1e-9));
    }

    #[test]
    fn symmetric_eigen_reconstructs_matrix() {
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, -0.5, 0.2],
            &[1.0, 3.0, 0.7, -0.1],
            &[-0.5, 0.7, 2.0, 0.3],
            &[0.2, -0.1, 0.3, 1.0],
        ]);
        let (vals, v) = a.symmetric_eigen();
        // Reconstruct A = V diag(vals) Vᵀ.
        let mut d = Matrix::zeros(4, 4);
        for i in 0..4 {
            d[(i, i)] = vals[i];
        }
        let recon = &(&v * &d) * &v.transpose();
        assert!((&recon - &a).frobenius_norm() < 1e-8);
        // Eigenvalues descending.
        for w in vals.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[&[2.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 2.0]]);
        let (_, v) = a.symmetric_eigen();
        let vtv = &v.transpose() * &v;
        assert!((&vtv - &Matrix::identity(3)).frobenius_norm() < 1e-9);
    }

    #[test]
    fn trace_and_symmetry() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 5.0]]);
        assert_eq!(a.trace(), 6.0);
        assert_eq!(a.transpose(), a);
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 5.0]]);
        assert_ne!(b.transpose(), b);
    }
}
