//! Dense row-major `f32` matrices and the kernels the autograd layer builds on.
//!
//! The three matmul variants route products above [`crate::gemm`]'s FLOP
//! floor through the cache-blocked, panel-packed microkernels of that
//! module; small or degenerate shapes keep the historical naive loops
//! (`ikj`-ordered, contiguous SAXPY inner loop). The two paths are
//! **bit-identical** for finite inputs — both accumulate every output
//! element with a single accumulator in ascending-`k` order — so the
//! threshold is purely a performance knob.
//!
//! Every output-row-partitioned kernel (the matmul variants and the large
//! elementwise/broadcast ops) dispatches through
//! [`crate::parallel::parallel_for_rows`]: inputs big enough to clear the
//! FLOP threshold split their output rows across scoped threads, while small
//! inputs keep the serial fast path. Each thread runs the same per-row loop
//! in the same order, so results are bit-identical at any thread count.
//!
//! Forward kernels take an `*_into` form writing into a caller-owned
//! buffer; the one forward definition of each op (the `expr` module) calls
//! it for the autograd tape. Where backward
//! passes, analysis code or tests need a fresh matrix, an allocating form
//! (`matmul`, `add`, …) delegates to the `*_into` form, so there is
//! exactly one implementation of each kernel.

use crate::params::LazyPack;
use crate::{gemm, parallel};
use std::fmt;

/// A dense, row-major matrix of `f32` values.
///
/// Shapes are `rows x cols`; element `(i, j)` lives at `data[i * cols + j]`.
/// All shape mismatches are programming errors and panic with a message that
/// names the operation, matching the conventions of numeric libraries where
/// silent broadcasting would hide bugs.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Default for Matrix {
    /// An empty `0 x 0` matrix, the buffer an `*_into` kernel fills.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Wraps an existing buffer. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: buffer of {} elements cannot be {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from nested rows; handy in tests.
    ///
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "Matrix::from_rows: ragged input");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// A 1x1 matrix holding a single scalar.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
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

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing buffer (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access. Panics on out-of-bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "Matrix::get out of bounds");
        self.data[row * self.cols + col]
    }

    /// Element assignment. Panics on out-of-bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "Matrix::set out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Borrow of one row as a slice.
    #[inline]
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "Matrix::row out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable borrow of one row.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(row < self.rows, "Matrix::row_mut out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// The value of a 1x1 matrix. Panics otherwise.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "Matrix::item requires a 1x1 matrix");
        self.data[0]
    }

    /// Reshapes in place to `rows x cols`, reusing the allocation. Contents
    /// are unspecified afterwards; every `*_into` kernel fully overwrites
    /// (or explicitly zeroes) the buffer before reading it.
    pub(crate) fn reset_shape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        let len = rows * cols;
        if self.data.len() != len {
            self.data.resize(len, 0.0);
        }
    }

    /// Matrix product `self * other`; shapes `(n,k) x (k,m) -> (n,m)`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`matmul`](Self::matmul) into a caller-owned buffer (reshaped to fit).
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "Matrix::matmul: {}x{} * {}x{} shape mismatch",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        out.reset_shape(n, m);
        if gemm::use_blocked_packing(n, k, m) {
            let a = gemm::Operand { data: &self.data, rs: k, cs: 1 };
            let b = gemm::Operand { data: &other.data, rs: m, cs: 1 };
            gemm::gemm(n, k, m, &a, &b, &mut out.data);
            return;
        }
        if m == 1 {
            // Matrix-vector: interleaved row dots, bit-identical to the
            // loop below for finite inputs (see `gemm::dot_rows`).
            parallel::parallel_for_row_blocks(&mut out.data, 1, gemm::MC, 2 * k, |i0, block| {
                let rows = &self.data[i0 * k..(i0 + block.len()) * k];
                gemm::dot_rows(rows, k, &other.data, block);
            });
            return;
        }
        out.fill_zero();
        parallel::parallel_for_rows(&mut out.data, m, 2 * k * m, |i, out_row| {
            let a_row = &self.data[i * k..(i + 1) * k];
            for (p, &a_ip) in a_row.iter().enumerate() {
                if a_ip == 0.0 {
                    continue;
                }
                let b_row = &other.data[p * m..(p + 1) * m];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a_ip * b;
                }
            }
        });
    }

    /// [`matmul_into`](Self::matmul_into) by a parameter value `other`
    /// whose panels `pack` caches: a product that would pack `other` reads
    /// the cached panels instead, packing them on first use. Packing is a
    /// pure copy, so the result is bit-identical to `matmul_into`.
    pub(crate) fn matmul_packed_into(&self, other: &Matrix, pack: &LazyPack, out: &mut Matrix) {
        let (n, k, m) = (self.rows, self.cols, other.cols);
        if k != other.rows || !gemm::use_blocked_packing(n, k, m) {
            self.matmul_into(other, out);
            return;
        }
        out.reset_shape(n, m);
        let a = gemm::Operand { data: &self.data, rs: k, cs: 1 };
        gemm::gemm_packed(n, &a, pack.panels(other), &mut out.data);
    }

    /// `selfᵀ * other`; shapes `(k,n)ᵀ x (k,m) -> (n,m)`. Used by backward
    /// passes so gradients never materialize an explicit transpose.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "Matrix::matmul_tn: {}x{}ᵀ * {}x{} shape mismatch",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k, n, m) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(n, m);
        if gemm::use_blocked_packing(n, k, m) && k >= gemm::PACK_MIN_DEPTH {
            // The transpose is expressed purely through pack-time strides:
            // logical A[i][p] = self.data[p * n + i].
            let a = gemm::Operand { data: &self.data, rs: 1, cs: n };
            let b = gemm::Operand { data: &other.data, rs: m, cs: 1 };
            gemm::gemm(n, k, m, &a, &b, &mut out.data);
            return out;
        }
        if m == 1 {
            // `selfᵀ` times a column: rows streamed in ascending `p`, one
            // accumulator per output, zeros skipped, the loop below's
            // operation order without its strided column reads.
            for (a_row, &b) in self.data.chunks_exact(n.max(1)).zip(&other.data) {
                for (o, &a) in out.data.iter_mut().zip(a_row) {
                    if a == 0.0 {
                        continue;
                    }
                    *o += a * b;
                }
            }
            return out;
        }
        // Per-output-row loop (rather than the k-outer order a transposed
        // product suggests) so rows can split across threads; each (i, j)
        // still accumulates over p in ascending order, keeping results
        // bit-identical to the historical serial kernel.
        parallel::parallel_for_rows(&mut out.data, m, 2 * k * m, |i, out_row| {
            for p in 0..k {
                let a = self.data[p * n + i];
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[p * m..(p + 1) * m];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        });
        out
    }

    /// `self * otherᵀ`; shapes `(n,k) x (m,k)ᵀ -> (n,m)`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "Matrix::matmul_nt: {}x{} * {}x{}ᵀ shape mismatch",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(n, m);
        if k == 1 {
            // Outer product of two columns. Every path starts an output's
            // accumulator at `0.0` and adds one product, so a `-0.0`
            // product is stored as `+0.0` here too.
            for (out_row, &a) in out.data.chunks_exact_mut(m.max(1)).zip(&self.data) {
                for (o, &b) in out_row.iter_mut().zip(&other.data) {
                    *o = 0.0 + a * b;
                }
            }
            return out;
        }
        // From `MR` rows on, not `PACK_MIN_ROWS`: the fallback below is a
        // dot product per element, not the axpy loop that floor was
        // measured against, and at `k = 256` the blocked path ran 1.2× as
        // fast at 4 rows and 1.7–2.2× at 8 to 12.
        if gemm::use_blocked(n, k, m) {
            let a = gemm::Operand { data: &self.data, rs: k, cs: 1 };
            // Logical B[p][j] = other.data[j * k + p].
            let b = gemm::Operand { data: &other.data, rs: 1, cs: k };
            gemm::gemm(n, k, m, &a, &b, &mut out.data);
            return out;
        }
        // Row `i` of the result is `other` times row `i` of `self`: the
        // matrix-vector kernel, whose interleaved dots keep each element's
        // one accumulator and ascending `k` order (see `gemm::dot_rows`).
        parallel::parallel_for_rows(&mut out.data, m, 2 * k * m, |i, out_row| {
            gemm::dot_rows(&other.data, k, &self.data[i * k..(i + 1) * k], out_row);
        });
        out
    }

    /// Explicit transpose; used rarely (analysis code), not in hot loops.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Elementwise sum of two equally-shaped matrices.
    pub fn add(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.add_into(other, &mut out);
        out
    }

    /// [`add`](Self::add) into a caller-owned buffer (reshaped to fit).
    pub fn add_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.shape(), other.shape(), "Matrix::add shape mismatch");
        out.reset_shape(self.rows, self.cols);
        for ((o, a), b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = a + b;
        }
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "Matrix::sub shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.mul_into(other, &mut out);
        out
    }

    /// [`mul`](Self::mul) into a caller-owned buffer (reshaped to fit).
    pub fn mul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.shape(), other.shape(), "Matrix::mul shape mismatch");
        out.reset_shape(self.rows, self.cols);
        for ((o, a), b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = a * b;
        }
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.scale_into(s, &mut out);
        out
    }

    /// [`scale`](Self::scale) into a caller-owned buffer (reshaped to fit).
    pub fn scale_into(&self, s: f32, out: &mut Matrix) {
        out.reset_shape(self.rows, self.cols);
        for (o, a) in out.data.iter_mut().zip(&self.data) {
            *o = a * s;
        }
    }

    /// In-place `self += other * s` (axpy); the workhorse of gradient
    /// accumulation.
    pub fn add_scaled_assign(&mut self, other: &Matrix, s: f32) {
        assert_eq!(self.shape(), other.shape(), "Matrix::add_scaled_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b * s;
        }
    }

    /// In-place elementwise addition.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "Matrix::add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Resets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Adds a `1 x cols` row vector to every row.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.add_row_broadcast_into(row, &mut out);
        out
    }

    /// [`add_row_broadcast`](Self::add_row_broadcast) into a caller-owned
    /// buffer (reshaped to fit).
    pub fn add_row_broadcast_into(&self, row: &Matrix, out: &mut Matrix) {
        assert_eq!(row.rows, 1, "Matrix::add_row_broadcast: rhs must be a row vector");
        assert_eq!(row.cols, self.cols, "Matrix::add_row_broadcast shape mismatch");
        out.reset_shape(self.rows, self.cols);
        out.data.copy_from_slice(&self.data);
        let cols = self.cols;
        parallel::parallel_for_rows(&mut out.data, cols, cols, |_i, r| {
            for (o, &b) in r.iter_mut().zip(&row.data) {
                *o += b;
            }
        });
    }

    /// Scales each row `i` by the scalar in `col[i]` (an `n x 1` column).
    pub fn mul_col_broadcast(&self, col: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.mul_col_broadcast_into(col, &mut out);
        out
    }

    /// [`mul_col_broadcast`](Self::mul_col_broadcast) into a caller-owned
    /// buffer (reshaped to fit).
    pub fn mul_col_broadcast_into(&self, col: &Matrix, out: &mut Matrix) {
        assert_eq!(col.cols, 1, "Matrix::mul_col_broadcast: rhs must be a column vector");
        assert_eq!(col.rows, self.rows, "Matrix::mul_col_broadcast shape mismatch");
        out.reset_shape(self.rows, self.cols);
        out.data.copy_from_slice(&self.data);
        let cols = self.cols;
        parallel::parallel_for_rows(&mut out.data, cols, cols, |i, r| {
            let s = col.data[i];
            for v in r {
                *v *= s;
            }
        });
    }

    /// `Σ_j weights[:, j] ⊙ parts[j]` into a caller-owned buffer (reshaped
    /// to fit): row `i` of the `n x m` result is the sum of each part's row
    /// `i` scaled by `weights[i, j]`, where `weights` is `n x F` for `F`
    /// equally shaped parts. Each element starts from the first part's
    /// rounded product and adds the others' in ascending `j`, one rounded
    /// `mul` and `add` per term, so the result does not depend on the
    /// thread count.
    pub fn weighted_sum_into(parts: &[&Matrix], weights: &Matrix, out: &mut Matrix) {
        assert!(!parts.is_empty(), "Matrix::weighted_sum: empty input");
        let (rows, cols) = parts[0].shape();
        for p in parts {
            assert_eq!(p.shape(), (rows, cols), "Matrix::weighted_sum: part shape mismatch");
        }
        assert_eq!(
            weights.shape(),
            (rows, parts.len()),
            "Matrix::weighted_sum: weights must be rows x parts"
        );
        out.reset_shape(rows, cols);
        parallel::parallel_for_rows(&mut out.data, cols, 2 * parts.len() * cols, |i, r| {
            let w = weights.row(i);
            for (o, &v) in r.iter_mut().zip(parts[0].row(i)) {
                *o = w[0] * v;
            }
            for (p, &w_j) in parts.iter().zip(w).skip(1) {
                for (o, &v) in r.iter_mut().zip(p.row(i)) {
                    *o += w_j * v;
                }
            }
        });
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column-wise mean, producing a `1 x cols` row vector.
    pub fn mean_rows(&self) -> Matrix {
        let mut out = self.sum_rows();
        if self.rows == 0 {
            return out;
        }
        let inv = 1.0 / self.rows as f32;
        out.data.iter_mut().for_each(|v| *v *= inv);
        out
    }

    /// Sum of the rows, producing a `1 x m` row vector; each column adds
    /// its elements in ascending row order.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for row in self.data.chunks_exact(self.cols.max(1)) {
            for (o, &v) in out.data.iter_mut().zip(row) {
                *o += v;
            }
        }
        out
    }

    /// Column-wise sum over each row, producing an `n x 1` column vector.
    pub fn sum_cols(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        for i in 0..self.rows {
            out.data[i] = self.row(i).iter().sum();
        }
        out
    }

    /// Row-wise softmax; each row becomes a probability distribution.
    ///
    /// Uses the max-subtraction trick for numerical stability.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.softmax_rows_into(&mut out);
        out
    }

    /// [`softmax_rows`](Self::softmax_rows) into a caller-owned buffer
    /// (reshaped to fit).
    pub fn softmax_rows_into(&self, out: &mut Matrix) {
        out.reset_shape(self.rows, self.cols);
        out.data.copy_from_slice(&self.data);
        let cols = self.cols;
        // ~4 flops per element plus an exp; 16 is a conservative estimate.
        parallel::parallel_for_rows(&mut out.data, cols, 16 * cols, |_i, row| {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            let inv = 1.0 / sum;
            for v in row.iter_mut() {
                *v *= inv;
            }
        });
    }

    /// Elementwise map. `f` must be `Sync`: rows of large matrices are
    /// mapped on scoped worker threads (`relu`/`tanh` over big batches).
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.map_into(f, &mut out);
        out
    }

    /// [`map`](Self::map) into a caller-owned buffer (reshaped to fit).
    pub fn map_into(&self, f: impl Fn(f32) -> f32 + Sync, out: &mut Matrix) {
        out.reset_shape(self.rows, self.cols);
        let cols = self.cols;
        // Assume a transcendental-ish op per element.
        parallel::parallel_for_rows(&mut out.data, cols, 8 * cols, |i, row| {
            let src = &self.data[i * cols..(i + 1) * cols];
            for (o, &v) in row.iter_mut().zip(src) {
                *o = f(v);
            }
        });
    }

    /// Horizontal concatenation of matrices with equal row counts.
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        Matrix::concat_cols_into(parts, &mut out);
        out
    }

    /// [`concat_cols`](Self::concat_cols) into a caller-owned buffer
    /// (reshaped to fit).
    pub fn concat_cols_into(parts: &[&Matrix], out: &mut Matrix) {
        assert!(!parts.is_empty(), "Matrix::concat_cols: empty input");
        let rows = parts[0].rows;
        for p in parts {
            assert_eq!(p.rows, rows, "Matrix::concat_cols: row count mismatch");
        }
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        out.reset_shape(rows, cols);
        for i in 0..rows {
            let dst = &mut out.data[i * cols..(i + 1) * cols];
            let mut offset = 0;
            for p in parts {
                dst[offset..offset + p.cols].copy_from_slice(p.row(i));
                offset += p.cols;
            }
        }
    }

    /// Vertical concatenation of matrices with equal column counts.
    pub fn concat_rows(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "Matrix::concat_rows: empty input");
        let cols = parts[0].cols;
        let mut data = Vec::new();
        for p in parts {
            assert_eq!(p.cols, cols, "Matrix::concat_rows: column count mismatch");
            data.extend_from_slice(&p.data);
        }
        let rows = data.len() / cols.max(1);
        Matrix { rows, cols, data }
    }

    /// Copies a contiguous column block `[start, start + width)`.
    pub fn slice_cols(&self, start: usize, width: usize) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.slice_cols_into(start, width, &mut out);
        out
    }

    /// [`slice_cols`](Self::slice_cols) into a caller-owned buffer (reshaped
    /// to fit).
    pub fn slice_cols_into(&self, start: usize, width: usize, out: &mut Matrix) {
        assert!(start + width <= self.cols, "Matrix::slice_cols out of bounds");
        out.reset_shape(self.rows, width);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[start..start + width]);
        }
    }

    /// Copies a contiguous row block `[start, start + count)`; cheap
    /// (one `memcpy`) because storage is row-major. Chunked batch inference
    /// uses this to hand each worker its block of encoded pairs.
    pub fn slice_rows(&self, start: usize, count: usize) -> Matrix {
        assert!(start + count <= self.rows, "Matrix::slice_rows out of bounds");
        let data = self.data[start * self.cols..(start + count) * self.cols].to_vec();
        Matrix { rows: count, cols: self.cols, data }
    }

    /// Copies a subset of rows (in the given order).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (k, &i) in indices.iter().enumerate() {
            out.row_mut(k).copy_from_slice(self.row(i));
        }
        out
    }

    /// Euclidean (Frobenius) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Euclidean distance between two equally shaped matrices.
    pub fn distance(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "Matrix::distance shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b) * (a - b)).sum::<f32>().sqrt()
    }

    /// True if all elements are finite (no NaN / infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let id =
            Matrix::from_rows(&[vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]]);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 0.5], vec![-1.0, 2.0], vec![0.0, 3.0]]);
        let via_t = a.transpose().matmul(&b);
        let fused = a.matmul_tn(&b);
        assert_eq!(via_t.shape(), fused.shape());
        for (x, y) in via_t.as_slice().iter().zip(fused.as_slice()) {
            assert!(approx(*x, *y));
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.5, 1.5, -1.0]]);
        let via_t = a.matmul(&b.transpose());
        let fused = a.matmul_nt(&b);
        for (x, y) in via_t.as_slice().iter().zip(fused.as_slice()) {
            assert!(approx(*x, *y));
        }
    }

    /// `m x n` values cycling through random, zero, signed-zero and
    /// sign-mixed entries.
    fn awkward(rows: usize, cols: usize, seed: u32) -> Matrix {
        let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
        let data = (0..rows * cols)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                let v = (state >> 8) as f32 / (1 << 24) as f32 * 4.0 - 2.0;
                match i % 7 {
                    0 => 0.0,
                    3 => -0.0,
                    5 => -v.abs() * 1e-30,
                    _ => v,
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `a · bᵀ` as the general loop: per element, ascending `k`.
    fn nt_loop(a: &Matrix, b: &Matrix) -> Matrix {
        let (n, k, m) = (a.rows(), a.cols(), b.rows());
        let mut out = Matrix::zeros(n, m);
        for i in 0..n {
            for j in 0..m {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.get(i, p) * b.get(j, p);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// `aᵀ · b` as the general loop: per element, ascending `k`, exact
    /// zeros of `a` skipped.
    fn tn_loop(a: &Matrix, b: &Matrix) -> Matrix {
        let (k, n, m) = (a.rows(), a.cols(), b.cols());
        let mut out = Matrix::zeros(n, m);
        for i in 0..n {
            for p in 0..k {
                let x = a.get(p, i);
                if x == 0.0 {
                    continue;
                }
                for j in 0..m {
                    out.set(i, j, out.get(i, j) + x * b.get(p, j));
                }
            }
        }
        out
    }

    #[test]
    fn outer_and_column_products_match_the_general_loops_bitwise() {
        // The general loops the `k == 1` `matmul_nt` and `m == 1`
        // `matmul_tn` paths stand in for.
        for (rows, width, seed) in [(1, 1, 1), (3, 5, 2), (16, 64, 3), (100, 256, 4), (7, 0, 5)] {
            // `g·aᵀ`: a gradient column times a weight column.
            let (g, a) = (awkward(rows, 1, seed), awkward(width, 1, seed + 10));
            assert_eq!(bits(&g.matmul_nt(&a)), bits(&nt_loop(&g, &a)), "nt {rows}x{width}");
            // `tᵀ·g`: activations transposed times a gradient column.
            let t = awkward(rows, width, seed + 20);
            assert_eq!(bits(&t.matmul_tn(&g)), bits(&tn_loop(&t, &g)), "tn {rows}x{width}");
        }
        // A `-0.0` product is stored as `+0.0`.
        let neg = Matrix::from_vec(1, 1, vec![-0.0]);
        let pos = Matrix::from_vec(1, 1, vec![3.0]);
        assert_eq!(neg.matmul_nt(&pos).item().to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn transposed_products_match_the_loops_either_side_of_the_blocked_floors() {
        use crate::gemm::{KC, MR, PACK_MIN_DEPTH, PACK_MIN_ROWS};
        // `matmul_nt` turns blocked at `MR` rows and `matmul_tn` at
        // `PACK_MIN_DEPTH` deep: a gradient over a few distinct rows.
        for rows in [1, MR - 1, MR, PACK_MIN_ROWS - 1, PACK_MIN_ROWS] {
            let (g, w) = (awkward(rows, KC, 30 + rows as u32), awkward(64, KC, 40));
            assert_eq!(bits(&g.matmul_nt(&w)), bits(&nt_loop(&g, &w)), "nt at {rows} rows");
        }
        for depth in [1, PACK_MIN_DEPTH - 1, PACK_MIN_DEPTH, PACK_MIN_ROWS] {
            let (a, g) = (awkward(depth, 64, 50 + depth as u32), awkward(depth, 32, 60));
            assert_eq!(bits(&a.matmul_tn(&g)), bits(&tn_loop(&a, &g)), "tn at depth {depth}");
        }
    }

    #[test]
    fn softmax_rows_sums_to_one_and_is_stable() {
        let m = Matrix::from_rows(&[vec![1000.0, 1000.0, 1000.0], vec![-5.0, 0.0, 5.0]]);
        let s = m.softmax_rows();
        assert!(s.is_finite());
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!(approx(sum, 1.0));
        }
        assert!(approx(s.get(0, 0), 1.0 / 3.0));
        assert!(s.get(1, 2) > s.get(1, 1));
    }

    #[test]
    fn broadcast_ops() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let bias = Matrix::from_rows(&[vec![10.0, 20.0]]);
        let out = m.add_row_broadcast(&bias);
        assert_eq!(out.as_slice(), &[11.0, 22.0, 13.0, 24.0]);

        let col = Matrix::from_vec(2, 1, vec![2.0, -1.0]);
        let out = m.mul_col_broadcast(&col);
        assert_eq!(out.as_slice(), &[2.0, 4.0, -3.0, -4.0]);
    }

    #[test]
    fn concat_and_slice_round_trip() {
        let a = Matrix::from_rows(&[vec![1.0], vec![3.0]]);
        let b = Matrix::from_rows(&[vec![2.0, 5.0], vec![4.0, 6.0]]);
        let cat = Matrix::concat_cols(&[&a, &b]);
        assert_eq!(cat.shape(), (2, 3));
        assert_eq!(cat.as_slice(), &[1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
        assert_eq!(cat.slice_cols(0, 1), a);
        assert_eq!(cat.slice_cols(1, 2), b);
    }

    #[test]
    fn weighted_sum_scales_each_part_by_its_weight_column() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![10.0, 20.0], vec![30.0, 40.0]]);
        let w = Matrix::from_rows(&[vec![0.5, 2.0], vec![0.0, -1.0]]);
        let mut s = Matrix::default();
        Matrix::weighted_sum_into(&[&a, &b], &w, &mut s);
        assert_eq!(s.as_slice(), &[20.5, 41.0, -30.0, -40.0]);
        // One part: the first rounded product, no added zero.
        let neg = Matrix::from_rows(&[vec![-0.0, 1.0]]);
        Matrix::weighted_sum_into(&[&neg], &Matrix::scalar(1.0), &mut s);
        assert_eq!(s.get(0, 0).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn mean_rows_and_select() {
        let m = Matrix::from_rows(&[vec![1.0, 3.0], vec![3.0, 5.0]]);
        let mu = m.mean_rows();
        assert_eq!(mu.as_slice(), &[2.0, 4.0]);
        let sel = m.select_rows(&[1]);
        assert_eq!(sel.as_slice(), &[3.0, 5.0]);
    }

    #[test]
    fn distance_matches_hand_computation() {
        let a = Matrix::from_vec(1, 2, vec![0.0, 0.0]);
        let b = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!(approx(a.distance(&b), 5.0));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_panics_on_shape_mismatch() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        let _ = a.add(&b);
    }

    #[test]
    fn empty_mean_is_zero() {
        let m = Matrix::zeros(0, 3);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.mean_rows().as_slice(), &[0.0, 0.0, 0.0]);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn concat_rows_stacks_vertically() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]);
        let cat = Matrix::concat_rows(&[&a, &b]);
        assert_eq!(cat.shape(), (3, 2));
        assert_eq!(cat.row(2), &[5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn concat_rows_rejects_mismatched_widths() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(1, 3);
        let _ = Matrix::concat_rows(&[&a, &b]);
    }

    #[test]
    fn sum_cols_reduces_each_row() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-1.0, 0.0, 1.0]]);
        let s = m.sum_cols();
        assert_eq!(s.shape(), (2, 1));
        assert_eq!(s.as_slice(), &[6.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_cols_bounds_checked() {
        let m = Matrix::zeros(2, 3);
        let _ = m.slice_cols(2, 2);
    }

    #[test]
    fn scalar_and_item_round_trip() {
        assert_eq!(Matrix::scalar(3.5).item(), 3.5);
    }

    #[test]
    #[should_panic(expected = "1x1")]
    fn item_rejects_non_scalar() {
        let _ = Matrix::zeros(2, 1).item();
    }

    #[test]
    fn map_and_scale_agree() {
        let m = Matrix::from_rows(&[vec![1.0, -2.0]]);
        assert_eq!(m.scale(2.0), m.map(|v| v * 2.0));
    }

    #[test]
    fn add_scaled_assign_is_axpy() {
        let mut a = Matrix::full(1, 3, 1.0);
        let b = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        a.add_scaled_assign(&b, -0.5);
        assert_eq!(a.as_slice(), &[0.5, 0.0, -0.5]);
    }

    #[test]
    fn is_finite_detects_nan_and_inf() {
        let mut m = Matrix::zeros(1, 2);
        assert!(m.is_finite());
        m.set(0, 0, f32::NAN);
        assert!(!m.is_finite());
        m.set(0, 0, f32::INFINITY);
        assert!(!m.is_finite());
    }
}
