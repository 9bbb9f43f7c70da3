//! A deliberately naive dense `f64` matrix.
//!
//! [`RefMatrix`] is the oracle's value type: every kernel is the textbook
//! triple/​double loop with no parallelism, no zero-skipping, no fusion, and
//! no reuse of production code. Operating in `f64` on `f32` inputs makes the
//! reference effectively exact relative to the production `f32` stack (53
//! mantissa bits of headroom over 24), so any disagreement beyond the
//! documented per-op budget (DESIGN.md §10) is a production bug, not oracle
//! noise.

use adamel_tensor::Matrix;

/// Dense row-major `f64` matrix used as the reference value type.
#[derive(Debug, Clone, PartialEq)]
pub struct RefMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl RefMatrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Wraps a row-major buffer; panics on a length mismatch.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "RefMatrix::from_vec length mismatch");
        Self { rows, cols, data }
    }

    /// Promotes a production `f32` matrix to `f64` exactly.
    pub fn from_matrix(m: &Matrix) -> Self {
        Self {
            rows: m.rows(),
            cols: m.cols(),
            data: m.as_slice().iter().map(|&v| v as f64).collect(),
        }
    }

    /// Promotes a row-major `f32` slice to `f64` exactly.
    pub fn from_f32(rows: usize, cols: usize, data: &[f32]) -> Self {
        assert_eq!(data.len(), rows * cols, "RefMatrix::from_f32 length mismatch");
        Self { rows, cols, data: data.iter().map(|&v| v as f64).collect() }
    }

    /// A 1x1 matrix.
    pub fn scalar(v: f64) -> Self {
        Self::from_vec(1, 1, vec![v])
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element access; panics out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "RefMatrix::get out of bounds");
        self.data[i * self.cols + j]
    }

    /// Element assignment; panics out of bounds.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.rows && j < self.cols, "RefMatrix::set out of bounds");
        self.data[i * self.cols + j] = v;
    }

    /// Row-major backing buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The value of a 1x1 matrix; panics otherwise.
    pub fn item(&self) -> f64 {
        assert_eq!(self.shape(), (1, 1), "RefMatrix::item requires a 1x1 matrix");
        self.data[0]
    }

    /// Demotes to a production `f32` matrix (round-to-nearest per element).
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(self.rows, self.cols, self.data.iter().map(|&v| v as f32).collect())
    }

    /// Textbook `(n,k) x (k,m)` product, ascending-index accumulation.
    pub fn matmul(&self, other: &RefMatrix) -> RefMatrix {
        assert_eq!(self.cols, other.rows, "RefMatrix::matmul shape mismatch");
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let mut out = RefMatrix::zeros(n, m);
        for i in 0..n {
            for j in 0..m {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += self.data[i * k + p] * other.data[p * m + j];
                }
                out.data[i * m + j] = acc;
            }
        }
        out
    }

    /// Explicit transpose.
    pub fn transpose(&self) -> RefMatrix {
        let mut out = RefMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// `selfᵀ * other` via an explicit transpose (the naive spelling).
    pub fn matmul_tn(&self, other: &RefMatrix) -> RefMatrix {
        self.transpose().matmul(other)
    }

    /// `self * otherᵀ` via an explicit transpose (the naive spelling).
    pub fn matmul_nt(&self, other: &RefMatrix) -> RefMatrix {
        self.matmul(&other.transpose())
    }

    /// Elementwise sum.
    pub fn add(&self, other: &RefMatrix) -> RefMatrix {
        assert_eq!(self.shape(), other.shape(), "RefMatrix::add shape mismatch");
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &RefMatrix) -> RefMatrix {
        assert_eq!(self.shape(), other.shape(), "RefMatrix::sub shape mismatch");
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise product.
    pub fn mul(&self, other: &RefMatrix) -> RefMatrix {
        assert_eq!(self.shape(), other.shape(), "RefMatrix::mul shape mismatch");
        self.zip(other, |a, b| a * b)
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f64) -> RefMatrix {
        self.map(|v| v * s)
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> RefMatrix {
        RefMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    fn zip(&self, other: &RefMatrix, f: impl Fn(f64, f64) -> f64) -> RefMatrix {
        RefMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// Adds a `1 x cols` row vector to every row.
    pub fn add_row_broadcast(&self, row: &RefMatrix) -> RefMatrix {
        assert_eq!(row.rows, 1, "RefMatrix::add_row_broadcast: rhs must be a row vector");
        assert_eq!(row.cols, self.cols, "RefMatrix::add_row_broadcast shape mismatch");
        let mut out = self.clone();
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[i * self.cols + j] += row.data[j];
            }
        }
        out
    }

    /// Scales row `i` by element `i` of an `n x 1` column.
    pub fn mul_col_broadcast(&self, col: &RefMatrix) -> RefMatrix {
        assert_eq!(col.cols, 1, "RefMatrix::mul_col_broadcast: rhs must be a column vector");
        assert_eq!(col.rows, self.rows, "RefMatrix::mul_col_broadcast shape mismatch");
        let mut out = self.clone();
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[i * self.cols + j] *= col.data[i];
            }
        }
        out
    }

    /// `Σ_j weights[:, j] ⊙ parts[j]` for `F` equally shaped parts and an
    /// `n x F` weight matrix.
    pub fn weighted_sum(parts: &[RefMatrix], weights: &RefMatrix) -> RefMatrix {
        assert!(!parts.is_empty(), "RefMatrix::weighted_sum: empty input");
        let (rows, cols) = parts[0].shape();
        assert_eq!(weights.shape(), (rows, parts.len()), "RefMatrix::weighted_sum: weights shape");
        let mut out = RefMatrix::zeros(rows, cols);
        for (j, p) in parts.iter().enumerate() {
            assert_eq!(p.shape(), (rows, cols), "RefMatrix::weighted_sum: part shape mismatch");
            for i in 0..rows {
                for c in 0..cols {
                    out.data[i * cols + c] += weights.get(i, j) * p.get(i, c);
                }
            }
        }
        out
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> RefMatrix {
        self.map(|v| v.max(0.0))
    }

    /// Row-wise softmax with the (mathematically exact) max-subtraction.
    pub fn softmax_rows(&self) -> RefMatrix {
        let mut out = self.clone();
        for i in 0..self.rows {
            let row = &mut out.data[i * self.cols..(i + 1) * self.cols];
            let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        out
    }

    /// Horizontal concatenation.
    pub fn concat_cols(parts: &[&RefMatrix]) -> RefMatrix {
        assert!(!parts.is_empty(), "RefMatrix::concat_cols: empty input");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = RefMatrix::zeros(rows, cols);
        for i in 0..rows {
            let mut offset = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "RefMatrix::concat_cols: row count mismatch");
                for j in 0..p.cols {
                    out.data[i * cols + offset + j] = p.data[i * p.cols + j];
                }
                offset += p.cols;
            }
        }
        out
    }

    /// Copies the column window `[start, start + width)`.
    pub fn slice_cols(&self, start: usize, width: usize) -> RefMatrix {
        assert!(start + width <= self.cols, "RefMatrix::slice_cols out of bounds");
        let mut out = RefMatrix::zeros(self.rows, width);
        for i in 0..self.rows {
            for j in 0..width {
                out.data[i * width + j] = self.data[i * self.cols + start + j];
            }
        }
        out
    }

    /// Sum of all elements (ascending index order).
    pub fn sum(&self) -> f64 {
        let mut acc = 0.0;
        for &v in &self.data {
            acc += v;
        }
        acc
    }

    /// Mean of all elements; 0.0 for an empty matrix.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Sum of absolute values — the scale term of rounding-error bounds.
    pub fn abs_sum(&self) -> f64 {
        let mut acc = 0.0;
        for &v in &self.data {
            acc += v.abs();
        }
        acc
    }

    /// Column-wise mean producing a `1 x cols` row.
    pub fn mean_rows(&self) -> RefMatrix {
        let mut out = RefMatrix::zeros(1, self.cols);
        if self.rows == 0 {
            return out;
        }
        for j in 0..self.cols {
            let mut acc = 0.0;
            for i in 0..self.rows {
                acc += self.data[i * self.cols + j];
            }
            out.data[j] = acc / self.rows as f64;
        }
        out
    }

    /// Largest absolute element (0.0 when empty).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = RefMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = RefMatrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.matmul(&b).as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let a = RefMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn softmax_rows_normalizes() {
        let a = RefMatrix::from_vec(2, 3, vec![0.0, 1.0, -1.0, 1000.0, 1000.0, 1000.0]);
        let s = a.softmax_rows();
        for i in 0..2 {
            let sum: f64 = (0..3).map(|j| s.get(i, j)).sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn promotion_is_exact() {
        let m = Matrix::from_vec(1, 3, vec![0.1, -2.5, 3.75]);
        let r = RefMatrix::from_matrix(&m);
        for (a, b) in m.as_slice().iter().zip(r.as_slice()) {
            assert_eq!(*a as f64, *b);
        }
    }
}
