//! Dense row-major matrices generic over [`Scalar`].

use crate::complex::C64;
use crate::error::LinalgError;
use crate::scalar::Scalar;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major matrix over `f64` or [`C64`].
///
/// # Example
///
/// ```
/// use pheig_linalg::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]);
/// let b = Matrix::identity(2);
/// let c = &a * &b;
/// assert_eq!(c, a);
/// assert_eq!(a[(1, 0)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Matrix<S> {
    rows: usize,
    cols: usize,
    data: Vec<S>,
}

/// The empty `0 x 0` matrix (no allocation) — the natural start state of
/// reusable scratch that [`Matrix::reset_zeros`] later shapes.
impl<S> Default for Matrix<S> {
    fn default() -> Self {
        Matrix {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }
}

impl<S: Scalar> Matrix<S> {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![S::ZERO; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = S::ONE;
        }
        m
    }

    /// Builds a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[S]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix that owns `data` laid out row-major.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<S>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::shape(
                format!("{} elements", rows * cols),
                format!("{} elements", data.len()),
            ));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// A diagonal matrix with the given diagonal entries.
    pub fn from_diag(diag: &[S]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[S] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [S] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` copied into a `Vec`.
    pub fn col(&self, j: usize) -> Vec<S> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// Mutable underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> Matrix<S> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Conjugate (Hermitian) transpose. Equals [`Matrix::transpose`] for real
    /// matrices.
    pub fn conj_transpose(&self) -> Matrix<S> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Entry-wise map.
    pub fn map<T: Scalar>(&self, mut f: impl FnMut(S) -> T) -> Matrix<T> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Multiplies every entry by `k`.
    pub fn scaled(&self, k: S) -> Matrix<S> {
        self.map(|x| x * k)
    }

    /// Matrix-vector product `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[S]) -> Vec<S> {
        let mut y = vec![S::ZERO; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix-vector product `y = A x` into a caller-provided buffer
    /// (no heap allocation).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn matvec_into(&self, x: &[S], y: &mut [S]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output dimension mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = S::ZERO;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += *a * *b;
            }
            *yi = acc;
        }
    }

    /// Matrix-vector product with the conjugate transpose, `y = A^H x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn conj_transpose_matvec(&self, x: &[S]) -> Vec<S> {
        let mut y = vec![S::ZERO; self.cols];
        self.conj_transpose_matvec_into(x, &mut y);
        y
    }

    /// Conjugate-transpose matrix-vector product `y = A^H x` into a
    /// caller-provided buffer (no heap allocation).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()` or `y.len() != self.cols()`.
    pub fn conj_transpose_matvec_into(&self, x: &[S], y: &mut [S]) {
        assert_eq!(
            x.len(),
            self.rows,
            "conj_transpose_matvec dimension mismatch"
        );
        assert_eq!(
            y.len(),
            self.cols,
            "conj_transpose_matvec output dimension mismatch"
        );
        y.fill(S::ZERO);
        for i in 0..self.rows {
            let row = self.row(i);
            let xi = x[i];
            for (yj, a) in y.iter_mut().zip(row.iter()) {
                *yj += a.conj() * xi;
            }
        }
    }

    /// Overwrites every entry with `value` (keeps the allocation).
    pub fn fill(&mut self, value: S) {
        self.data.fill(value);
    }

    /// Reshapes to `rows x cols` and zeroes every entry, keeping the
    /// allocation (it grows only past its high-water mark).
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, S::ZERO);
    }

    /// Dense matrix product.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix<S>) -> Matrix<S> {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == S::ZERO {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, r) in orow.iter_mut().zip(rrow.iter()) {
                    *o += aik * *r;
                }
            }
        }
        out
    }

    /// Copies `block` into `self` with its top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Matrix<S>) {
        assert!(r0 + block.rows <= self.rows && c0 + block.cols <= self.cols);
        for i in 0..block.rows {
            for j in 0..block.cols {
                self[(r0 + i, c0 + j)] = block[(i, j)];
            }
        }
    }

    /// Extracts the sub-matrix of rows `r0..r1` and columns `c0..c1`.
    ///
    /// # Panics
    ///
    /// Panics if the ranges exceed the matrix bounds.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix<S> {
        assert!(r1 <= self.rows && c1 <= self.cols && r0 <= r1 && c0 <= c1);
        Matrix::from_fn(r1 - r0, c1 - c0, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Swaps rows `a` and `b`.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let (top, bot) = self.data.split_at_mut(hi * self.cols);
        top[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut bot[..self.cols]);
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x.abs_sq()).sum::<f64>().sqrt()
    }

    /// Largest entry magnitude.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|x| x.abs()).fold(0.0, f64::max)
    }

    /// Promotes the matrix to complex entries.
    pub fn to_c64(&self) -> Matrix<C64> {
        self.map(|x| x.to_c64())
    }

    /// `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl<S: Scalar> Index<(usize, usize)> for Matrix<S> {
    type Output = S;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &S {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl<S: Scalar> IndexMut<(usize, usize)> for Matrix<S> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut S {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl<S: Scalar> Add for &Matrix<S> {
    type Output = Matrix<S>;
    fn add(self, rhs: &Matrix<S>) -> Matrix<S> {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl<S: Scalar> Sub for &Matrix<S> {
    type Output = Matrix<S>;
    fn sub(self, rhs: &Matrix<S>) -> Matrix<S> {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix subtraction shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl<S: Scalar> Mul for &Matrix<S> {
    type Output = Matrix<S>;
    fn mul(self, rhs: &Matrix<S>) -> Matrix<S> {
        self.matmul(rhs)
    }
}

impl<S: Scalar> fmt::Debug for Matrix<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            let show_cols = self.cols.min(8);
            for j in 0..show_cols {
                write!(f, "{:?} ", self[(i, j)])?;
            }
            if self.cols > show_cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(m.col(2), vec![2.0, 12.0]);
    }

    #[test]
    fn from_vec_shape_check() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn identity_multiplication() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        let i = Matrix::identity(2);
        assert_eq!(&a * &i, a);
        assert_eq!(&i * &a, a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0][..], &[7.0, 8.0][..]]);
        let c = a.matmul(&b);
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0][..], &[43.0, 50.0][..]])
        );
    }

    #[test]
    fn matvec_and_adjoint_matvec() {
        let a = Matrix::from_rows(&[
            &[C64::new(1.0, 1.0), C64::new(0.0, 2.0)][..],
            &[C64::new(3.0, 0.0), C64::new(1.0, -1.0)][..],
        ]);
        let x = vec![C64::new(1.0, 0.0), C64::new(0.0, 1.0)];
        let y = a.matvec(&x);
        assert_eq!(
            y[0],
            C64::new(1.0, 1.0) + C64::new(0.0, 2.0) * C64::new(0.0, 1.0)
        );
        // A^H x must match the dense conj-transpose product.
        let ah = a.conj_transpose();
        let y1 = a.conj_transpose_matvec(&x);
        let y2 = ah.matvec(&x);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((*u - *v).abs() < 1e-15);
        }
    }

    #[test]
    fn transpose_and_conj_transpose() {
        let a = Matrix::from_rows(&[&[C64::new(1.0, 2.0), C64::new(3.0, -1.0)][..]]);
        let t = a.transpose();
        assert_eq!(t.shape(), (2, 1));
        assert_eq!(t[(0, 0)], C64::new(1.0, 2.0));
        let h = a.conj_transpose();
        assert_eq!(h[(0, 0)], C64::new(1.0, -2.0));
        assert_eq!(h[(1, 0)], C64::new(3.0, 1.0));
    }

    #[test]
    fn blocks_and_submatrix_roundtrip() {
        let mut m = Matrix::<f64>::zeros(4, 4);
        let b = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        m.set_block(1, 2, &b);
        assert_eq!(m[(2, 3)], 4.0);
        assert_eq!(m.submatrix(1, 3, 2, 4), b);
    }

    #[test]
    fn swap_rows_works() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..], &[5.0, 6.0][..]]);
        m.swap_rows(0, 2);
        assert_eq!(m.row(0), &[5.0, 6.0]);
        assert_eq!(m.row(2), &[1.0, 2.0]);
        m.swap_rows(1, 1);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, 0.0][..], &[0.0, 4.0][..]]);
        assert_eq!(m.frobenius_norm(), 5.0);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn diag_and_scale() {
        let d = Matrix::from_diag(&[1.0, 2.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
        let s = d.scaled(3.0);
        assert_eq!(s[(1, 1)], 6.0);
    }

    #[test]
    fn add_sub() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..]]);
        let b = Matrix::from_rows(&[&[0.5, -2.0][..]]);
        assert_eq!((&a + &b).row(0), &[1.5, 0.0]);
        assert_eq!((&a - &b).row(0), &[0.5, 4.0]);
    }

    #[test]
    fn promote_to_complex() {
        let a = Matrix::from_rows(&[&[1.0, -2.0][..]]);
        let z = a.to_c64();
        assert_eq!(z[(0, 1)], C64::new(-2.0, 0.0));
    }
}
