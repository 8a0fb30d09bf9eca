//! A minimal row-major `f32` matrix with the operations the layers need.
//!
//! The three products dispatch to the [`crate::backend`] kernels, which
//! are bit-identical to the naive loops regardless of pool size or
//! blocking (see the backend's determinism contract).

use crate::backend;
use serde::{Deserialize, Serialize};

/// Row-major 2-D `f32` matrix. Rows are samples throughout this crate.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wraps existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from sample rows (accepts `f64` for convenience at
    /// the feature-pipeline boundary).
    ///
    /// # Panics
    ///
    /// Panics if rows have differing widths or `rows` is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "no rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend(r.iter().map(|&x| x as f32));
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from borrowed sample rows without intermediate
    /// copies (the micro-batching path stacks rows from many samples).
    ///
    /// # Panics
    ///
    /// Panics if rows have differing widths or `rows` is empty.
    pub fn from_row_slices(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "no rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend(r.iter().map(|&x| x as f32));
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Splits the matrix into consecutive row groups of the given sizes
    /// (the inverse of stacking groups for one batched forward pass).
    ///
    /// # Panics
    ///
    /// Panics if `counts` does not sum to the row count.
    pub fn split_rows(&self, counts: &[usize]) -> Vec<Matrix> {
        assert_eq!(
            counts.iter().sum::<usize>(),
            self.rows,
            "split_rows counts must sum to the row count"
        );
        let mut out = Vec::with_capacity(counts.len());
        let mut start = 0usize;
        for &n in counts {
            out.push(Matrix {
                rows: n,
                cols: self.cols,
                data: self.data[start * self.cols..(start + n) * self.cols].to_vec(),
            });
            start += n;
        }
        out
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat data slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A new matrix containing the selected rows.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(0, self.cols);
        self.select_rows_into(indices, &mut out);
        out
    }

    /// Gathers the selected rows into `out`, reusing its allocation (the
    /// trainer calls this once per mini-batch).
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.rows = indices.len();
        out.cols = self.cols;
        out.data.clear();
        out.data.reserve(indices.len() * self.cols);
        for &r in indices {
            out.data.extend_from_slice(self.row(r));
        }
    }

    /// Copies `src` into `self`, reusing the allocation (layer caches call
    /// this every training step instead of cloning).
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// `self · other` (`[m×k] · [k×n] = [m×n]`) via the backend's blocked
    /// ikj kernel, skipping `a == 0.0` terms.
    ///
    /// Large products are split across the worker pool by output-row
    /// chunks; results are bit-identical to the serial path because each
    /// output element's accumulation chain (ascending `p`) is owned by
    /// exactly one task.
    ///
    /// # Panics
    ///
    /// Panics on an inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        backend::gemm_nn(&self.data, &other.data, m, k, n, &mut out.data);
        out
    }

    /// `selfᵀ · other` (`[k×m]ᵀ·[k×n] = [m×n]`) without materializing the
    /// transpose.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul row mismatch");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        backend::gemm_tn(&self.data, &other.data, m, k, n, &mut out.data);
        out
    }

    /// `self · otherᵀ` (`[m×k]·[n×k]ᵀ = [m×n]`) as blocked dot products
    /// (no zero-skip, matching the historical serial semantics).
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t column mismatch");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(m, n);
        backend::gemm_nt(&self.data, &other.data, m, k, n, None, &mut out.data);
        out
    }

    /// Elementwise in-place map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Frobenius-style mean of squared entries.
    pub fn mean_squared(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&x| x * x).sum::<f32>() / self.data.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.t_matmul(&b); // aᵀ·b = [2x3]·[3x2]
                                // aᵀ = [[1,3,5],[2,4,6]]
        assert_eq!(
            c.data(),
            &[
                1. * 7. + 3. * 9. + 5. * 11.,
                1. * 8. + 3. * 10. + 5. * 12.,
                2. * 7. + 4. * 9. + 6. * 11.,
                2. * 8. + 4. * 10. + 6. * 12.
            ]
        );
    }

    #[test]
    fn matmul_t_equals_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(2, 3, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul_t(&b); // a·bᵀ = [2x3]·[3x2]
        assert_eq!(
            c.data(),
            &[
                1. * 7. + 2. * 8. + 3. * 9.,
                1. * 10. + 2. * 11. + 3. * 12.,
                4. * 7. + 5. * 8. + 6. * 9.,
                4. * 10. + 5. * 11. + 6. * 12.
            ]
        );
    }

    #[test]
    fn select_rows_copies_in_order() {
        let a = Matrix::from_vec(3, 2, vec![0., 1., 2., 3., 4., 5.]);
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s.data(), &[4., 5., 0., 1.]);
    }

    #[test]
    fn from_rows_converts_f64() {
        let m = Matrix::from_rows(&[vec![1.5, 2.5], vec![3.5, 4.5]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.get(1, 0), 3.5);
    }

    #[test]
    fn mean_squared_of_zero_matrix_is_zero() {
        assert_eq!(Matrix::zeros(3, 3).mean_squared(), 0.0);
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert_eq!(m.mean_squared(), 12.5);
    }

    #[test]
    fn map_inplace_applies_everywhere() {
        let mut m = Matrix::from_vec(2, 2, vec![-1., 2., -3., 4.]);
        m.map_inplace(|x| x.max(0.0));
        assert_eq!(m.data(), &[0., 2., 0., 4.]);
    }

    #[test]
    fn large_parallel_matmul_matches_serial_reference() {
        // Big enough to cross the parallel threshold (m*k*n >= 2^22).
        let (m, k, n) = (64, 128, 640);
        let a = Matrix::from_vec(m, k, (0..m * k).map(|i| ((i % 13) as f32) - 6.0).collect());
        let b = Matrix::from_vec(k, n, (0..k * n).map(|i| ((i % 7) as f32) - 3.0).collect());
        let fast = a.matmul(&b);
        // Serial reference via the transpose identity: (bᵀ aᵀ)ᵀ stays under
        // the threshold per row and exercises a different code path.
        let mut reference = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.get(i, p) * b.get(p, j);
                }
                reference.set(i, j, acc);
            }
        }
        assert_eq!(fast.data(), reference.data());
    }

    #[test]
    fn large_parallel_transpose_products_match_matmul() {
        // Cross the parallel threshold for t_matmul and matmul_t and check
        // both against the (independently validated) plain product applied
        // to explicit transposes.
        let (k, m, n) = (96, 80, 560);
        let a = Matrix::from_vec(k, m, (0..k * m).map(|i| ((i % 11) as f32) - 5.0).collect());
        let b = Matrix::from_vec(k, n, (0..k * n).map(|i| ((i % 5) as f32) - 2.0).collect());
        // Explicit aᵀ.
        let mut at = Matrix::zeros(m, k);
        for i in 0..k {
            for j in 0..m {
                at.set(j, i, a.get(i, j));
            }
        }
        assert_eq!(a.t_matmul(&b).data(), at.matmul(&b).data());

        // matmul_t: c · dᵀ with c [m×k2], d [n2×k2].
        let (m2, k2, n2) = (80, 96, 560);
        let c = Matrix::from_vec(
            m2,
            k2,
            (0..m2 * k2).map(|i| ((i % 9) as f32) - 4.0).collect(),
        );
        let d = Matrix::from_vec(
            n2,
            k2,
            (0..n2 * k2).map(|i| ((i % 3) as f32) - 1.0).collect(),
        );
        let mut dt = Matrix::zeros(k2, n2);
        for i in 0..n2 {
            for j in 0..k2 {
                dt.set(j, i, d.get(i, j));
            }
        }
        assert_eq!(c.matmul_t(&d).data(), c.matmul(&dt).data());
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged_input() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn from_row_slices_matches_from_rows() {
        let rows = [vec![1.5, 2.5], vec![3.5, 4.5], vec![-1.0, 0.25]];
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        assert_eq!(Matrix::from_row_slices(&refs), Matrix::from_rows(&rows));
    }

    #[test]
    fn split_rows_partitions_in_order() {
        let m = Matrix::from_vec(4, 2, vec![0., 1., 2., 3., 4., 5., 6., 7.]);
        let parts = m.split_rows(&[1, 0, 3]);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].data(), &[0., 1.]);
        assert_eq!((parts[1].rows(), parts[1].cols()), (0, 2));
        assert_eq!(parts[2].data(), &[2., 3., 4., 5., 6., 7.]);
    }

    #[test]
    #[should_panic(expected = "sum to the row count")]
    fn split_rows_rejects_bad_counts() {
        let _ = Matrix::zeros(3, 2).split_rows(&[1, 1]);
    }
}
