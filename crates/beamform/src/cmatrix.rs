//! Small dense complex matrices.
//!
//! MVDR needs `ρ_n⁻¹` for an M×M spatial covariance (M = 6 on the paper's
//! ReSpeaker), so a simple Gauss–Jordan inverse with partial pivoting is
//! both sufficient and robust at this scale.

use crate::error::BeamformError;
use echo_dsp::Complex;

/// A dense, row-major complex matrix.
///
/// # Example
///
/// ```
/// use echo_beamform::CMatrix;
/// use echo_dsp::Complex;
///
/// let eye = CMatrix::identity(3);
/// let inv = eye.inverse().unwrap();
/// assert_eq!(inv.get(1, 1), Complex::ONE);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl CMatrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        CMatrix {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// The n×n identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, Complex::ONE);
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or either dimension is zero.
    pub fn from_data(rows: usize, cols: usize, data: Vec<Complex>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        CMatrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Complex {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i * self.cols + j]
    }

    /// Sets element `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: Complex) {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i * self.cols + j] = v;
    }

    /// Conjugate transpose `Aᴴ`.
    pub fn hermitian(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j).conj());
            }
        }
        out
    }

    /// Returns `true` when `A ≈ Aᴴ` within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in i..self.cols {
                if (self.get(i, j) - self.get(j, i).conj()).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Matrix–matrix product.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == Complex::ZERO {
                    continue;
                }
                for j in 0..rhs.cols {
                    let cur = out.get(i, j);
                    out.set(i, j, cur + a * rhs.get(k, j));
                }
            }
        }
        out
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[Complex]) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; self.rows];
        self.matvec_into(x, &mut out);
        out
    }

    /// [`CMatrix::matvec`] into a caller buffer (same arithmetic, no
    /// allocation).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub fn matvec_into(&self, x: &[Complex], out: &mut [Complex]) {
        assert_eq!(x.len(), self.cols, "vector length mismatch");
        assert_eq!(out.len(), self.rows, "output length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = Complex::ZERO;
            for (&a, &xj) in row.iter().zip(x) {
                acc += a * xj;
            }
            *o = acc;
        }
    }

    /// Adds `ε·I` to a square matrix in place (diagonal loading).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diagonal(&mut self, epsilon: f64) {
        assert_eq!(
            self.rows, self.cols,
            "diagonal loading needs a square matrix"
        );
        for i in 0..self.rows {
            let v = self.get(i, i) + Complex::from_real(epsilon);
            self.set(i, i, v);
        }
    }

    /// Trace of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Complex {
        assert_eq!(self.rows, self.cols, "trace needs a square matrix");
        (0..self.rows).map(|i| self.get(i, i)).sum()
    }

    /// Scales every element by `k`.
    pub fn scale(&mut self, k: f64) {
        for v in &mut self.data {
            *v = v.scale(k);
        }
    }

    /// Inverse of a square matrix via Gauss–Jordan elimination with
    /// partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`BeamformError::SingularMatrix`] when a pivot collapses to
    /// (numerical) zero.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn inverse(&self) -> Result<CMatrix, BeamformError> {
        assert_eq!(self.rows, self.cols, "inverse needs a square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = CMatrix::identity(n);

        for col in 0..n {
            // Partial pivot: largest magnitude in this column at/below row.
            let mut pivot_row = col;
            let mut pivot_mag = a.get(col, col).abs();
            for r in col + 1..n {
                let mag = a.get(r, col).abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = r;
                }
            }
            if pivot_mag < 1e-300 {
                return Err(BeamformError::SingularMatrix);
            }
            if pivot_row != col {
                for j in 0..n {
                    let t = a.get(col, j);
                    a.set(col, j, a.get(pivot_row, j));
                    a.set(pivot_row, j, t);
                    let t = inv.get(col, j);
                    inv.set(col, j, inv.get(pivot_row, j));
                    inv.set(pivot_row, j, t);
                }
            }
            let pivot = a.get(col, col);
            let pinv = pivot.recip();
            for j in 0..n {
                a.set(col, j, a.get(col, j) * pinv);
                inv.set(col, j, inv.get(col, j) * pinv);
            }
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = a.get(r, col);
                if factor == Complex::ZERO {
                    continue;
                }
                for j in 0..n {
                    let v = a.get(r, j) - factor * a.get(col, j);
                    a.set(r, j, v);
                    let v = inv.get(r, j) - factor * inv.get(col, j);
                    inv.set(r, j, v);
                }
            }
        }
        Ok(inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &CMatrix, b: &CMatrix, tol: f64) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && (0..a.rows()).all(|i| (0..a.cols()).all(|j| (a.get(i, j) - b.get(i, j)).abs() < tol))
    }

    fn test_matrix() -> CMatrix {
        CMatrix::from_data(
            3,
            3,
            vec![
                Complex::new(2.0, 1.0),
                Complex::new(0.5, -0.2),
                Complex::new(0.0, 0.3),
                Complex::new(-1.0, 0.0),
                Complex::new(3.0, 0.0),
                Complex::new(0.7, 0.7),
                Complex::new(0.2, -0.9),
                Complex::new(0.0, 0.0),
                Complex::new(1.5, -0.5),
            ],
        )
    }

    #[test]
    fn identity_inverse_is_identity() {
        let eye = CMatrix::identity(4);
        assert!(approx_eq(&eye.inverse().unwrap(), &eye, 1e-12));
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = test_matrix();
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv);
        assert!(approx_eq(&prod, &CMatrix::identity(3), 1e-10));
        let prod2 = inv.matmul(&a);
        assert!(approx_eq(&prod2, &CMatrix::identity(3), 1e-10));
    }

    #[test]
    fn singular_matrix_errors() {
        let mut a = CMatrix::zeros(2, 2);
        a.set(0, 0, Complex::ONE);
        // Second row all zeros → singular.
        assert_eq!(a.inverse().unwrap_err(), BeamformError::SingularMatrix);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // a[0][0] = 0 forces a row swap.
        let a = CMatrix::from_data(
            2,
            2,
            vec![Complex::ZERO, Complex::ONE, Complex::ONE, Complex::ZERO],
        );
        let inv = a.inverse().unwrap();
        assert!(approx_eq(&a.matmul(&inv), &CMatrix::identity(2), 1e-12));
    }

    #[test]
    fn hermitian_transpose() {
        let a = test_matrix();
        let h = a.hermitian();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(h.get(i, j), a.get(j, i).conj());
            }
        }
        assert!(!a.is_hermitian(1e-9));
        let sym = a.matmul(&a.hermitian());
        assert!(sym.is_hermitian(1e-9), "AAᴴ is Hermitian");
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = test_matrix();
        let x = vec![
            Complex::new(1.0, 0.5),
            Complex::new(-2.0, 1.0),
            Complex::new(0.0, -1.0),
        ];
        let y = a.matvec(&x);
        let xm = CMatrix::from_data(3, 1, x.clone());
        let ym = a.matmul(&xm);
        for (i, yi) in y.iter().enumerate() {
            assert!((*yi - ym.get(i, 0)).abs() < 1e-12);
        }
    }

    #[test]
    fn diagonal_loading_and_trace() {
        let mut a = CMatrix::zeros(3, 3);
        a.add_diagonal(0.5);
        assert!((a.trace() - Complex::from_real(1.5)).abs() < 1e-12);
    }

    #[test]
    fn scale_multiplies_all_entries() {
        let mut a = CMatrix::identity(2);
        a.scale(3.0);
        assert_eq!(a.get(0, 0), Complex::from_real(3.0));
        assert_eq!(a.get(0, 1), Complex::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = CMatrix::identity(2);
        let _ = a.get(2, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        let _ = CMatrix::zeros(0, 3);
    }
}
