//! A batch of encoded pairs as per-feature tables of distinct blocks.

use crate::matrix::Matrix;
use std::collections::BTreeMap;

/// A batch of encoded pairs as per-feature tables of distinct blocks.
///
/// Pair `r`'s feature `j` is row [`id(r, j)`](Self::id) of
/// [`table(j)`](Self::table), a `dim`-wide block. Laid side by side, the
/// `F` blocks of a pair are its dense `1 x F·dim` row. This is the input of
/// the model's forward: a training tape records
/// [`distinct(j, ..)`](Self::distinct) as feature `j`'s grouped leaf, and
/// inference reads the tables and the index directly.
#[derive(Debug, Clone)]
pub struct EncodedBlocks {
    rows: usize,
    dim: usize,
    tables: Vec<Matrix>,
    /// `rows x F`, row-major: the table row of each pair's feature.
    index: Vec<u32>,
}

impl EncodedBlocks {
    /// Wraps per-feature tables (`dim` columns each) and a row-major
    /// `rows x tables.len()` index into them.
    ///
    /// # Panics
    ///
    /// If a table is not `dim` wide, the index is not `rows x F`, or an
    /// index entry is past its table.
    pub fn new(rows: usize, dim: usize, tables: Vec<Matrix>, index: Vec<u32>) -> Self {
        let f = tables.len();
        assert!(tables.iter().all(|t| t.cols() == dim), "EncodedBlocks: a table is not {dim} wide");
        assert_eq!(index.len(), rows * f, "EncodedBlocks: the index is not rows x features");
        let in_range = index
            .chunks(f.max(1))
            .all(|ids| ids.iter().zip(&tables).all(|(&id, t)| (id as usize) < t.rows()));
        assert!(in_range, "EncodedBlocks: an index entry is past its table");
        Self { rows, dim, tables, index }
    }

    /// Groups each `dim`-wide column block of `dense` by bit pattern: `+0.0`
    /// and `-0.0` stay apart, and so do NaN payloads; ids count up in
    /// first-seen row order. This is how a caller holding only a dense
    /// matrix (the oracle fuzzer, the tests) builds a forward's input.
    ///
    /// # Panics
    ///
    /// If `dim` is 0 or does not divide `dense`'s width.
    pub fn from_dense(dense: &Matrix, dim: usize) -> Self {
        assert!(
            dim > 0 && dense.cols() % dim == 0,
            "EncodedBlocks::from_dense: width {} is not a multiple of {dim}",
            dense.cols()
        );
        let f = dense.cols() / dim;
        let mut index = vec![0u32; dense.rows() * f];
        let tables = (0..f)
            .map(|j| {
                let (table, ids) = group_bits(dense, j * dim, dim);
                for (r, id) in ids.into_iter().enumerate() {
                    index[r * f + j] = id;
                }
                table
            })
            .collect();
        Self::new(dense.rows(), dim, tables, index)
    }

    /// Number of pairs.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of features `F`.
    pub fn features(&self) -> usize {
        self.tables.len()
    }

    /// Width of one block.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Feature `j`'s distinct blocks, one per row.
    pub fn table(&self, j: usize) -> &Matrix {
        &self.tables[j]
    }

    /// The row of [`table(j)`](Self::table) holding pair `r`'s feature `j`.
    pub fn id(&self, r: usize, j: usize) -> usize {
        self.index[r * self.features() + j] as usize
    }

    /// Feature `j`'s distinct blocks among the pairs `pairs`, in
    /// first-seen order, and each pair's row among them: the arguments of
    /// [`Graph::constant_grouped`]. Over every pair in order they are table
    /// `j` and index column `j`.
    pub fn distinct(&self, j: usize, pairs: &[usize]) -> (Matrix, Vec<usize>) {
        let mut local: BTreeMap<usize, usize> = BTreeMap::new();
        let mut picked = Vec::new();
        let rows = pairs
            .iter()
            .map(|&r| {
                let id = self.id(r, j);
                *local.entry(id).or_insert_with(|| {
                    picked.push(id);
                    picked.len() - 1
                })
            })
            .collect();
        (self.tables[j].select_rows(&picked), rows)
    }

    /// The dense `rows x F·dim` matrix: each pair's blocks side by side.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.features() * self.dim);
        for r in 0..self.rows {
            let row = out.row_mut(r);
            for (j, dst) in row.chunks_exact_mut(self.dim.max(1)).enumerate() {
                dst.copy_from_slice(self.tables[j].row(self.id(r, j)));
            }
        }
        out
    }
}

/// Groups the rows of `dense`'s columns `[start, start + width)` by bit
/// pattern, so `+0.0` and `-0.0` stay apart and so do NaN payloads: returns
/// the distinct rows in first-seen order and each row's id among them.
fn group_bits(dense: &Matrix, start: usize, width: usize) -> (Matrix, Vec<u32>) {
    let mut seen: BTreeMap<Vec<u32>, u32> = BTreeMap::new();
    let mut rows = Vec::new();
    let ids = (0..dense.rows())
        .map(|r| {
            let cols = &dense.row(r)[start..start + width];
            let next = seen.len() as u32;
            let bits = cols.iter().map(|v| v.to_bits()).collect();
            *seen.entry(bits).or_insert_with(|| {
                rows.extend_from_slice(cols);
                next
            })
        })
        .collect();
    (Matrix::from_vec(seen.len(), width, rows), ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn signed_zero_rows_stay_distinct() {
        // Rows 0/1 and 2/3 differ only in the sign of one zero.
        let x = Matrix::from_rows(&[
            vec![0.0, 1.5, 0.0, -0.5],
            vec![-0.0, 1.5, 0.0, -0.5],
            vec![0.0, 1.5, -0.0, -0.5],
            vec![0.0, 1.5, 0.0, -0.5],
        ]);
        let blocks = EncodedBlocks::from_dense(&x, 2);
        assert_eq!((blocks.table(0).rows(), blocks.table(1).rows()), (2, 2));
        let (distinct, rows) = blocks.distinct(1, &[3, 2, 1, 0]);
        assert_eq!(rows, vec![0, 1, 0, 0]);
        assert_eq!(bits(&distinct), bits(&Matrix::from_rows(&[vec![0.0, -0.5], vec![-0.0, -0.5]])));
        assert_eq!(bits(&blocks.to_dense()), bits(&x));
    }

    #[test]
    fn row_groups_key_on_bit_patterns() {
        // Signed zeros and NaN payloads stay apart; ids follow first sight.
        let nan = |payload: u32| f32::from_bits(0x7fc0_0000 | payload);
        let col = [0.0, -0.0, nan(1), nan(2), nan(1), 0.0, -0.0, nan(2)];
        let x = Matrix::from_vec(col.len(), 2, col.iter().flat_map(|&v| [1.5, v]).collect());
        let ids = |blocks: &EncodedBlocks, j: usize| -> Vec<usize> {
            (0..col.len()).map(|r| blocks.id(r, j)).collect()
        };
        let pairs = EncodedBlocks::from_dense(&x, 2);
        assert_eq!(ids(&pairs, 0), vec![0, 1, 2, 3, 2, 0, 1, 3]);
        let firsts: Vec<f32> = [0, 1, 2, 3].iter().flat_map(|&r| x.row(r).to_vec()).collect();
        assert_eq!(bits(pairs.table(0)), bits(&Matrix::from_vec(4, 2, firsts)));
        // One-column blocks: the constant column is one block.
        let columns = EncodedBlocks::from_dense(&x, 1);
        assert_eq!(columns.table(0).rows(), 1);
        assert_eq!(ids(&columns, 1), vec![0, 1, 2, 3, 2, 0, 1, 3]);
        assert_eq!(bits(&columns.to_dense()), bits(&x));
    }
}
