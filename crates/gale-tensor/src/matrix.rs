//! Dense row-major `f64` matrices.
//!
//! This is the numeric workhorse underneath GALE's neural layers, PCA, and
//! clustering. It deliberately stays small and predictable: row-major
//! layout, register-tiled matrix multiplies (see the private `gemm` module) with an
//! ascending-`k` determinism guarantee, and `_into` variants of every hot
//! product so training loops can reuse output buffers instead of
//! reallocating each step.

use crate::aligned::AVec;
use crate::gemm;
use crate::rng::Rng;
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A dense row-major matrix of `f64` values.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    // 64-byte-aligned so full-width SIMD row loads in the distance/GEMM
    // kernels never straddle a cache line (see `crate::aligned`).
    data: AVec,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            write!(f, "  [")?;
            let cshow = self.cols.min(8);
            for c in 0..cshow {
                write!(f, "{:>10.4}", self[(r, c)])?;
                if c + 1 < cshow {
                    write!(f, ", ")?;
                }
            }
            if cshow < self.cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if show < self.rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: AVec::from_elem(rows * cols, 0.0),
        }
    }

    /// Creates a `rows x cols` matrix with every entry set to `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: AVec::from_elem(rows * cols, value),
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix {
            rows,
            cols,
            data: AVec::from_slice(&data),
        }
    }

    /// Builds a matrix from a slice of equal-length rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = AVec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "from_rows: row {i} has length {}", r.len());
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = AVec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix with i.i.d. standard-normal entries scaled by `std`.
    pub fn randn(rows: usize, cols: usize, std: f64, rng: &mut Rng) -> Self {
        let data = (0..rows * cols).map(|_| rng.gauss() * std).collect();
        Matrix { rows, cols, data }
    }

    /// Creates a matrix with i.i.d. uniform entries in `[lo, hi)`.
    pub fn rand_uniform(rows: usize, cols: usize, lo: f64, hi: f64, rng: &mut Rng) -> Self {
        let data = (0..rows * cols).map(|_| rng.range_f64(lo, hi)).collect();
        Matrix { rows, cols, data }
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow of the underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reshapes in place to `rows x cols`, reusing the existing allocation
    /// when its capacity suffices. Existing contents become unspecified
    /// (new elements are zero, surviving ones keep stale values) — intended
    /// for buffers that the caller fully overwrites next, e.g. via the
    /// `_into` kernels.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Sets every entry to `value` without reallocating.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Makes `self` an exact copy of `src`, reusing the existing allocation
    /// when possible (the allocation-free replacement for `clone` in
    /// steady-state training loops).
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.resize(src.data.len(), 0.0);
        self.data.copy_from_slice(&src.data);
    }

    /// Consumes the matrix, returning its backing buffer (for pooling).
    pub fn into_buffer(self) -> AVec {
        self.data
    }

    /// Builds a `rows x cols` matrix on top of a recycled buffer, resizing
    /// it as needed. Contents are unspecified, as with [`Matrix::resize`].
    pub fn from_buffer(rows: usize, cols: usize, mut buf: AVec) -> Self {
        buf.resize(rows * cols, 0.0);
        Matrix {
            rows,
            cols,
            data: buf,
        }
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Copies the rows whose indices appear in `idx` (in order) into a new
    /// matrix. Indices may repeat.
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.select_rows_into(idx, &mut out);
        out
    }

    /// [`Matrix::select_rows`] writing into a reusable output buffer.
    pub fn select_rows_into(&self, idx: &[usize], out: &mut Matrix) {
        out.resize(idx.len(), self.cols);
        for (i, &r) in idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
    }

    /// Overwrites row `r` with the given slice.
    pub fn set_row(&mut self, r: usize, values: &[f64]) {
        assert_eq!(values.len(), self.cols, "set_row: width mismatch");
        self.row_mut(r).copy_from_slice(values);
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// Panics on an inner-dimension mismatch. Runs the register-tiled
    /// micro-kernel over parallel row blocks; every output element
    /// accumulates its `k` products in ascending order, so results are
    /// bitwise identical to the sequential three-loop reference on any
    /// thread count.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] writing into a reusable output buffer (resized in
    /// place; previous contents are discarded).
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize(self.rows, other.cols);
        let n = other.cols;
        gemm::record_gemm_counters(self.rows, self.cols, n);
        // Output rows are independent, so row blocks parallelize with
        // bitwise-identical results on any schedule.
        gemm::par_rows(&mut out.data, n, |row0, block| {
            gemm::gemm_nn_block(
                &self.data,
                self.cols,
                self.cols,
                &other.data,
                n,
                row0,
                block,
            );
        });
    }

    /// `self^T * other` without materializing the transpose.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_tn`] writing into a reusable output buffer.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn: {}x{} ^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize(self.cols, other.cols);
        self.matmul_tn_block_dispatch(other, out, false);
    }

    /// `out += self^T * other` — the gradient-accumulation form (`dW += Xᵀ
    /// G`). `out` must already have shape `self.cols x other.cols`. Each
    /// element extends its own ascending-`k` chain starting from the
    /// existing value, which is bitwise identical to `axpy(1.0, Xᵀ G)`
    /// whenever `out` starts at zero.
    pub fn matmul_tn_acc(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn_acc: {}x{} ^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.cols, other.cols),
            "matmul_tn_acc: output shape mismatch"
        );
        self.matmul_tn_block_dispatch(other, out, true);
    }

    fn matmul_tn_block_dispatch(&self, other: &Matrix, out: &mut Matrix, acc0: bool) {
        let n = other.cols;
        gemm::record_gemm_counters(self.cols, self.rows, n);
        // i-outer over output rows (= columns of self) keeps rows
        // independent; each element still accumulates in ascending k.
        gemm::par_rows(&mut out.data, n, |row0, block| {
            gemm::gemm_tn_block(
                &self.data,
                self.cols,
                self.rows,
                &other.data,
                n,
                row0,
                block,
                acc0,
            );
        });
    }

    /// `self * other^T`. Packs `other^T` and runs the [`Matrix::matmul`]
    /// tile: `other` is the small operand (a weight matrix or a centroid
    /// block), so the packing costs `1/self.rows()` of the product.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_nt`] writing into a reusable output buffer.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt: {}x{} * {}x{} ^T",
            self.rows, self.cols, other.rows, other.cols
        );
        // The packed `Bᵀ` (k x n) gives the `A·B` tile contiguous rows;
        // packing costs 1/m of the product, and every element is still
        // one ascending-k chain.
        self.matmul_into(&other.transpose(), out);
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec: width mismatch");
        (0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum::<f64>())
            .collect()
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in self.data.iter_mut() {
            *x = f(*x);
        }
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// In-place multiplication by a scalar.
    pub fn scale_inplace(&mut self, alpha: f64) {
        for x in self.data.iter_mut() {
            *x *= alpha;
        }
    }

    /// Returns `self * alpha` as a new matrix.
    pub fn scaled(&self, alpha: f64) -> Matrix {
        self.map(|x| x * alpha)
    }

    /// Adds `row` (a 1 x cols slice) to every row; the broadcast form used
    /// for bias terms.
    pub fn add_row_broadcast(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "add_row_broadcast: width mismatch");
        for r in 0..self.rows {
            for (a, &b) in self.row_mut(r).iter_mut().zip(row) {
                *a += b;
            }
        }
    }

    /// Sum over rows, producing a length-`cols` vector (used for bias grads).
    pub fn sum_rows(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Mean over rows, producing a length-`cols` vector.
    pub fn mean_rows(&self) -> Vec<f64> {
        let mut out = self.sum_rows();
        if self.rows > 0 {
            let inv = 1.0 / self.rows as f64;
            for o in &mut out {
                *o *= inv;
            }
        }
        out
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    /// Index of the maximum entry in each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                let mut best = 0usize;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Row-wise softmax, returning a new matrix of the same shape.
    ///
    /// Numerically stabilized by subtracting each row's maximum.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut z = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                z += *v;
            }
            if z > 0.0 {
                for v in row.iter_mut() {
                    *v /= z;
                }
            }
        }
        out
    }

    /// Vertically stacks `self` above `other`.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack: width mismatch");
        let mut data = AVec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Horizontally concatenates `self` with `other` (same row counts).
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hstack: height mismatch");
        let cols = self.cols + other.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Per-column mean and standard deviation (population), for feature
    /// standardization.
    pub fn column_stats(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.rows.max(1) as f64;
        let mean = self.mean_rows();
        let mut var = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (c, (&x, m)) in self.row(r).iter().zip(&mean).enumerate() {
                let d = x - m;
                var[c] += d * d;
            }
        }
        let std: Vec<f64> = var.iter().map(|v| (v / n).sqrt().max(1e-9)).collect();
        (mean, std)
    }

    /// Standardizes columns in place with the given statistics.
    pub fn standardize_columns(&mut self, mean: &[f64], std: &[f64]) {
        assert_eq!(mean.len(), self.cols, "standardize_columns: mean len");
        assert_eq!(std.len(), self.cols, "standardize_columns: std len");
        for r in 0..self.rows {
            for (c, x) in self.row_mut(r).iter_mut().enumerate() {
                *x = (*x - mean[c]) / std[c];
            }
        }
    }

    /// `true` when every corresponding entry differs by at most `tol`.
    /// Tests use it to compare results whose arithmetic was reassociated.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// `true` if any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, alpha: f64) -> Matrix {
        self.scaled(alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m2x2(a: f64, b: f64, c: f64, d: f64) -> Matrix {
        Matrix::from_vec(2, 2, vec![a, b, c, d])
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = m2x2(1.0, 2.0, 3.0, 4.0);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_hand_checked() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_vec(2, 2, vec![58.0, 64.0, 139.0, 154.0]));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = Rng::seed_from_u64(1);
        let a = Matrix::randn(4, 3, 1.0, &mut rng);
        let b = Matrix::randn(4, 5, 1.0, &mut rng);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        assert!(fast.approx_eq(&slow, 1e-12));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = Rng::seed_from_u64(2);
        let a = Matrix::randn(4, 3, 1.0, &mut rng);
        let b = Matrix::randn(5, 3, 1.0, &mut rng);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        assert!(fast.approx_eq(&slow, 1e-12));
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng::seed_from_u64(3);
        let a = Matrix::randn(3, 7, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 100.0]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f64 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(s.row(r).iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
        // Large logit dominates without overflow.
        assert!(s[(1, 2)] > 0.999);
    }

    #[test]
    fn argmax_rows_ties_take_first() {
        let a = Matrix::from_vec(2, 3, vec![5.0, 5.0, 1.0, 0.0, 2.0, 2.0]);
        assert_eq!(a.argmax_rows(), vec![0, 1]);
    }

    #[test]
    fn hstack_vstack_shapes_and_content() {
        let a = m2x2(1.0, 2.0, 3.0, 4.0);
        let b = m2x2(5.0, 6.0, 7.0, 8.0);
        let h = a.hstack(&b);
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h.row(0), &[1.0, 2.0, 5.0, 6.0]);
        let v = a.vstack(&b);
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn select_rows_copies_in_order() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = a.select_rows(&[2, 0, 2]);
        assert_eq!(s.row(0), &[5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0]);
        assert_eq!(s.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn sum_and_mean_rows() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum_rows(), vec![4.0, 6.0]);
        assert_eq!(a.mean_rows(), vec![2.0, 3.0]);
        assert_eq!(a.sum(), 10.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = m2x2(1.0, 1.0, 1.0, 1.0);
        let b = m2x2(1.0, 2.0, 3.0, 4.0);
        a.axpy(2.0, &b);
        assert_eq!(a, m2x2(3.0, 5.0, 7.0, 9.0));
        a.scale_inplace(0.5);
        assert_eq!(a, m2x2(1.5, 2.5, 3.5, 4.5));
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = m2x2(1.0, 2.0, 3.0, 4.0);
        let mut b = a.clone();
        b[(0, 0)] += 1e-9;
        assert!(a.approx_eq(&b, 1e-8));
        assert!(!a.approx_eq(&b, 1e-10));
    }

    #[test]
    fn broadcast_bias() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let a: Matrix = Matrix::zeros(2, 3);
        let b: Matrix = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matvec_hand_checked() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 0.0, 2.0, 0.0, 1.0, 1.0]);
        assert_eq!(a.matvec(&[1.0, 2.0, 3.0]), vec![7.0, 5.0]);
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Matrix::zeros(2, 2);
        assert!(!a.has_non_finite());
        a[(1, 1)] = f64::NAN;
        assert!(a.has_non_finite());
    }
}
