//! Row-major dense `f32` matrix with the block operations the distributed
//! algorithms need (partition extraction/insertion, row/column slicing,
//! concatenation).

use crate::rng::Xoshiro256StarStar;

/// A dense row-major matrix of `f32`.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from an explicit row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match {rows}x{cols}");
        Self { rows, cols, data }
    }

    /// Builds from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Uniform random matrix in `[lo, hi)`.
    pub fn random_uniform(
        rows: usize,
        cols: usize,
        lo: f32,
        hi: f32,
        rng: &mut Xoshiro256StarStar,
    ) -> Self {
        let data = (0..rows * cols).map(|_| rng.uniform(lo, hi)).collect();
        Self { rows, cols, data }
    }

    /// Uniform random matrix in `[-1, 1)`, drawn from a generator seeded
    /// with `seed`: the one seeded test matrix.
    pub fn seeded(rows: usize, cols: usize, seed: u64) -> Self {
        Self::random_uniform(rows, cols, -1.0, 1.0, &mut Xoshiro256StarStar::seed_from_u64(seed))
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow of row `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Extracts the sub-matrix with rows `r0..r0+nr` and cols `c0..c0+nc`.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Matrix {
        assert!(r0 + nr <= self.rows && c0 + nc <= self.cols, "block out of bounds");
        let mut out = Matrix::zeros(nr, nc);
        for i in 0..nr {
            let src = &self.data[(r0 + i) * self.cols + c0..(r0 + i) * self.cols + c0 + nc];
            out.row_mut(i).copy_from_slice(src);
        }
        out
    }

    /// Writes `sub` into the block with top-left corner `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, sub: &Matrix) {
        assert!(r0 + sub.rows <= self.rows && c0 + sub.cols <= self.cols, "block out of bounds");
        for i in 0..sub.rows {
            let dst_start = (r0 + i) * self.cols + c0;
            self.data[dst_start..dst_start + sub.cols].copy_from_slice(sub.row(i));
        }
    }

    /// Rows `r0..r1` as a new matrix.
    pub fn slice_rows(&self, r0: usize, r1: usize) -> Matrix {
        self.block(r0, 0, r1 - r0, self.cols)
    }

    /// Columns `c0..c1` as a new matrix.
    pub fn slice_cols(&self, c0: usize, c1: usize) -> Matrix {
        self.block(0, c0, self.rows, c1 - c0)
    }

    /// Vertical concatenation (stack rows). All parts must share `cols`.
    pub fn concat_rows<'a>(parts: impl IntoIterator<Item = &'a Matrix, IntoIter: Clone>) -> Matrix {
        let parts = parts.into_iter();
        let cols = parts.clone().next().expect("concat_rows of no parts").cols;
        assert!(parts.clone().all(|p| p.cols == cols), "column mismatch in concat_rows");
        let rows = parts.clone().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Appends `rows` below the existing rows in place: the one copy is of
    /// `rows`, and the buffer grows like a `Vec` (amortized O(1) per row).
    pub fn append_rows(&mut self, rows: &Matrix) {
        assert_eq!(rows.cols, self.cols, "column mismatch in append_rows");
        self.data.extend_from_slice(&rows.data);
        self.rows += rows.rows;
    }

    /// Horizontal concatenation (stack columns). All parts must share `rows`.
    pub fn concat_cols<'a>(parts: impl IntoIterator<Item = &'a Matrix, IntoIter: Clone>) -> Matrix {
        let parts = parts.into_iter();
        let rows = parts.clone().next().expect("concat_cols of no parts").rows;
        assert!(parts.clone().all(|p| p.rows == rows), "row mismatch in concat_cols");
        let cols = parts.clone().map(|p| p.cols).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for p in parts.clone() {
                data.extend_from_slice(p.row(i));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Elementwise in-place addition.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Elementwise in-place scaling.
    pub fn scale_assign(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// `out[i] = f(self[i])`, each output element written once.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// `out[i] = f(self[i], other[i])` over two same-shape matrices, each
    /// output element written once.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape());
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// `out[i][j] = f(self[i][j], col[i])`: broadcasts one value per row.
    pub fn zip_map_colvec(&self, col: &[f32], f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(col.len(), self.rows);
        let mut data = Vec::with_capacity(self.data.len());
        for (i, &s) in col.iter().enumerate() {
            data.extend(self.row(i).iter().map(|&a| f(a, s)));
        }
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_round_trip() {
        let mut m = Matrix::zeros(3, 4);
        m[(1, 2)] = 5.0;
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f32);
        assert_eq!(m.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 7 + j * 3) as f32);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_swaps_entries() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f32);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], t[(j, i)]);
            }
        }
    }

    #[test]
    fn block_and_set_block_round_trip() {
        let m = Matrix::from_fn(4, 6, |i, j| (i * 100 + j) as f32);
        let b = m.block(1, 2, 2, 3);
        assert_eq!(b.shape(), (2, 3));
        assert_eq!(b[(0, 0)], m[(1, 2)]);
        assert_eq!(b[(1, 2)], m[(2, 4)]);
        let mut m2 = Matrix::zeros(4, 6);
        m2.set_block(1, 2, &b);
        assert_eq!(m2[(2, 4)], m[(2, 4)]);
        assert_eq!(m2[(0, 0)], 0.0);
    }

    #[test]
    fn concat_rows_inverts_slice_rows() {
        let m = Matrix::from_fn(6, 3, |i, j| (i * 3 + j) as f32);
        let parts = vec![m.slice_rows(0, 2), m.slice_rows(2, 5), m.slice_rows(5, 6)];
        assert_eq!(Matrix::concat_rows(&parts), m);
    }

    #[test]
    fn concat_cols_inverts_slice_cols() {
        let m = Matrix::from_fn(3, 6, |i, j| (i * 6 + j) as f32);
        let parts = vec![m.slice_cols(0, 1), m.slice_cols(1, 4), m.slice_cols(4, 6)];
        assert_eq!(Matrix::concat_cols(&parts), m);
    }

    #[test]
    fn eye_is_identity_under_index() {
        let m = Matrix::eye(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn elementwise_ops() {
        let mut a = Matrix::full(2, 2, 3.0);
        let b = Matrix::full(2, 2, 1.5);
        a.add_assign(&b);
        assert_eq!(a, Matrix::full(2, 2, 4.5));
        a.scale_assign(2.0);
        assert_eq!(a, Matrix::full(2, 2, 9.0));
    }

    #[test]
    fn frobenius_norm_of_unit_row() {
        let m = Matrix::from_vec(1, 4, vec![1.0, 2.0, 2.0, 0.0]);
        assert!((m.frobenius_norm() - 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "block out of bounds")]
    fn block_out_of_bounds_panics() {
        Matrix::zeros(2, 2).block(1, 1, 2, 2);
    }
}
