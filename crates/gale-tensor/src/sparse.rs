//! Compressed sparse row (CSR) matrices.
//!
//! Graph adjacency and its normalizations are stored in CSR form so that
//! GCN propagation, label propagation, and personalized-PageRank power
//! iterations all run in O(|E|) per step.

use crate::matrix::Matrix;

/// A sparse `f64` matrix in CSR layout.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    /// `indptr[r]..indptr[r+1]` bounds row `r`'s entries.
    indptr: Vec<usize>,
    /// Column index of each stored entry, sorted within each row.
    indices: Vec<usize>,
    /// Value of each stored entry.
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Builds a CSR matrix from (row, col, value) triplets.
    ///
    /// Duplicate coordinates are summed. Out-of-range coordinates panic.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        let mut by_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); rows];
        for (r, c, v) in triplets {
            assert!(
                r < rows && c < cols,
                "from_triplets: ({r},{c}) out of range"
            );
            by_row[r].push((c, v));
        }
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for row in &mut by_row {
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row.len() {
                let c = row[i].0;
                let mut v = row[i].1;
                let mut j = i + 1;
                while j < row.len() && row[j].0 == c {
                    v += row[j].1;
                    j += 1;
                }
                indices.push(c);
                values.push(v);
                i = j;
            }
            indptr.push(indices.len());
        }
        SparseMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// An all-zero sparse matrix. `zeros(0, cols)` is an empty operator
    /// to build row by row with [`SparseMatrix::push`].
    pub fn zeros(rows: usize, cols: usize) -> Self {
        SparseMatrix {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The `n x n` sparse identity.
    pub fn identity(n: usize) -> Self {
        SparseMatrix {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Clears the matrix for reuse as a `0 x cols` operator built row by
    /// row with [`SparseMatrix::push`] and [`SparseMatrix::finish_row`],
    /// keeping its allocations (a sampler rebuilds one per batch).
    pub fn reset(&mut self, cols: usize) {
        self.rows = 0;
        self.cols = cols;
        self.indptr.clear();
        self.indptr.push(0);
        self.indices.clear();
        self.values.clear();
    }

    /// Appends an entry to the row currently being built. Columns must
    /// ascend within a row.
    #[inline]
    pub fn push(&mut self, col: usize, value: f64) {
        debug_assert!(
            col < self.cols,
            "SparseMatrix::push: col {col} out of range"
        );
        debug_assert!(
            self.indices.len() == self.indptr[self.rows] || self.indices.last() < Some(&col),
            "SparseMatrix::push: col {col} does not ascend"
        );
        self.indices.push(col);
        self.values.push(value);
    }

    /// Seals the row currently being built.
    #[inline]
    pub fn finish_row(&mut self) {
        self.rows += 1;
        self.indptr.push(self.indices.len());
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

    /// Number of stored (structurally non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterator over `(col, value)` pairs of row `r`.
    #[inline]
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        self.indices[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c, v))
    }

    /// Borrowed `(columns, values)` slices of row `r`, in ascending
    /// column order. Zero-cost view for callers (like delta overlays)
    /// that merge CSR rows without an iterator allocation.
    #[inline]
    pub fn row_slices(&self, r: usize) -> (&[usize], &[f64]) {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Looks up entry `(r, c)`; zero if not stored. O(log row_nnz).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        match self.indices[lo..hi].binary_search(&c) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// The `(row, col)` coordinates of the `k`-th stored entry in row-major
    /// CSR order (`k < nnz()`). O(log rows) via the row-pointer table.
    pub fn entry_coords(&self, k: usize) -> (usize, usize) {
        assert!(k < self.nnz(), "entry_coords: {k} >= nnz {}", self.nnz());
        // First row whose indptr exceeds k holds the entry.
        let r = self.indptr.partition_point(|&p| p <= k) - 1;
        (r, self.indices[k])
    }

    /// Rebuilds `out` as this matrix's transpose, reusing its allocations.
    /// The counting sort is stable, so each transposed row lists its
    /// entries in ascending source row: for a block whose rows were pushed
    /// in ascending global-id order, products against the transpose
    /// accumulate in the same order as a gather over the symmetric full
    /// operator's rows.
    pub fn transpose_into(&self, out: &mut SparseMatrix) {
        out.rows = self.cols;
        out.cols = self.rows;
        out.indptr.clear();
        out.indptr.resize(self.cols + 1, 0);
        out.indices.clear();
        out.indices.resize(self.nnz(), 0);
        out.values.clear();
        out.values.resize(self.nnz(), 0.0);
        for &c in &self.indices {
            out.indptr[c + 1] += 1;
        }
        for i in 1..out.indptr.len() {
            out.indptr[i] += out.indptr[i - 1];
        }
        let mut cursor: Vec<usize> = out.indptr[..self.cols].to_vec();
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                let slot = cursor[c];
                out.indices[slot] = r;
                out.values[slot] = v;
                cursor[c] += 1;
            }
        }
    }

    /// Row sums (out-weights); the degree vector for an adjacency matrix.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| self.row_iter(r).map(|(_, v)| v).sum())
            .collect()
    }

    /// Scales row `r` by `factors[r]` (used for D^{-1} A normalization).
    pub fn scale_rows(&self, factors: &[f64]) -> SparseMatrix {
        assert_eq!(factors.len(), self.rows, "scale_rows: length mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            let lo = out.indptr[r];
            let hi = out.indptr[r + 1];
            for v in &mut out.values[lo..hi] {
                *v *= factors[r];
            }
        }
        out
    }

    /// Returns `left[r] * A[r,c] * right[c]` — the symmetric normalization
    /// D̃^{-1/2} Ã D̃^{-1/2} when `left == right == d^{-1/2}`.
    pub fn scale_both(&self, left: &[f64], right: &[f64]) -> SparseMatrix {
        assert_eq!(left.len(), self.rows);
        assert_eq!(right.len(), self.cols);
        let mut out = self.clone();
        for r in 0..out.rows {
            let lo = out.indptr[r];
            let hi = out.indptr[r + 1];
            for k in lo..hi {
                out.values[k] *= left[r] * right[out.indices[k]];
            }
        }
        out
    }

    /// Adds the identity (self-loops): Ã = A + I. Requires a square matrix.
    pub fn add_identity(&self) -> SparseMatrix {
        assert_eq!(self.rows, self.cols, "add_identity: non-square");
        let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(self.nnz() + self.rows);
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                triplets.push((r, c, v));
            }
            triplets.push((r, r, 1.0));
        }
        SparseMatrix::from_triplets(self.rows, self.cols, triplets)
    }

    /// Converts to a dense matrix (test/debug helper; O(rows*cols) memory).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                out[(r, c)] += v;
            }
        }
        out
    }

    /// The GCN/PPR propagation operator for an undirected adjacency:
    /// `S = D̃^{-1/2} (A + I) D̃^{-1/2}` where `D̃` is the degree of `A + I`.
    ///
    /// Every row of `S` for a node with at least the self-loop is non-empty,
    /// so power iterations never lose mass on isolated nodes.
    pub fn sym_normalized_with_self_loops(&self) -> SparseMatrix {
        let tilde = self.add_identity();
        let deg = tilde.row_sums();
        let inv_sqrt: Vec<f64> = deg
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        tilde.scale_both(&inv_sqrt, &inv_sqrt)
    }

    /// Row-stochastic random-walk operator `D̃^{-1} (A + I)`.
    pub fn rw_normalized_with_self_loops(&self) -> SparseMatrix {
        let tilde = self.add_identity();
        let deg = tilde.row_sums();
        let inv: Vec<f64> = deg
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
            .collect();
        tilde.scale_rows(&inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn small() -> SparseMatrix {
        // [[0,1,0],[2,0,3],[0,0,4]]
        SparseMatrix::from_triplets(3, 3, [(0, 1, 1.0), (1, 0, 2.0), (1, 2, 3.0), (2, 2, 4.0)])
    }

    #[test]
    fn triplets_roundtrip_get() {
        let m = small();
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 2.0);
        assert_eq!(m.get(1, 2), 3.0);
        assert_eq!(m.get(2, 2), 4.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.nnz(), 4);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = SparseMatrix::from_triplets(2, 2, [(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn spmm_matches_dense() {
        let mut rng = Rng::seed_from_u64(4);
        let s = small();
        let d = Matrix::randn(3, 5, 1.0, &mut rng);
        let mut fast = Matrix::zeros(0, 0);
        crate::spmm_access_into(&s, &d, &mut fast);
        let slow = s.to_dense().matmul(&d);
        assert!(fast.approx_eq(&slow, 1e-12));
    }

    #[test]
    fn transpose_roundtrip() {
        let s = small();
        let (mut t, mut tt) = (SparseMatrix::zeros(0, 0), SparseMatrix::zeros(0, 0));
        s.transpose_into(&mut t);
        assert_eq!(t.to_dense(), s.to_dense().transpose());
        t.transpose_into(&mut tt);
        assert_eq!(tt, s);
    }

    #[test]
    fn append_builder_matches_triplets() {
        let mut b = SparseMatrix::identity(5);
        b.reset(3);
        for r in 0..3 {
            for (c, v) in small().row_iter(r) {
                b.push(c, v);
            }
            b.finish_row();
        }
        assert_eq!(b, small());
    }

    #[test]
    fn sym_normalization_rows_bounded() {
        // A path graph 0-1-2.
        let a =
            SparseMatrix::from_triplets(3, 3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]);
        let s = a.sym_normalized_with_self_loops();
        // Symmetry is preserved.
        let d = s.to_dense();
        for r in 0..3 {
            for c in 0..3 {
                assert!((d[(r, c)] - d[(c, r)]).abs() < 1e-12);
            }
        }
        // Diagonal entries equal 1/deg̃ and off-diagonals 1/sqrt(deg̃_u deg̃_v).
        assert!((d[(0, 0)] - 0.5).abs() < 1e-12);
        assert!((d[(1, 1)] - 1.0 / 3.0).abs() < 1e-12);
        assert!((d[(0, 1)] - 1.0 / (2.0f64 * 3.0).sqrt()).abs() < 1e-12);
        // Power iteration with this operator is bounded: applying S to the
        // all-ones vector never exceeds sqrt(d_max/d_min) in magnitude.
        let mut out = Matrix::zeros(0, 0);
        crate::spmm_access_into(&s, &Matrix::full(3, 1, 1.0), &mut out);
        let bound = (3.0f64 / 2.0).sqrt() + 1e-12;
        assert!(out.data().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn rw_normalization_is_row_stochastic() {
        let a =
            SparseMatrix::from_triplets(3, 3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]);
        let p = a.rw_normalized_with_self_loops();
        for r in 0..3 {
            let sum: f64 = p.row_iter(r).map(|(_, v)| v).sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn isolated_node_keeps_self_loop_mass() {
        let a = SparseMatrix::zeros(2, 2);
        let p = a.rw_normalized_with_self_loops();
        assert_eq!(p.get(0, 0), 1.0);
        assert_eq!(p.get(1, 1), 1.0);
    }

    #[test]
    fn scale_rows_and_both() {
        let s = small();
        let scaled = s.scale_rows(&[1.0, 0.5, 2.0]);
        assert_eq!(scaled.get(1, 0), 1.0);
        assert_eq!(scaled.get(2, 2), 8.0);
        let both = s.scale_both(&[1.0, 1.0, 1.0], &[0.0, 1.0, 1.0]);
        assert_eq!(both.get(1, 0), 0.0);
        assert_eq!(both.get(1, 2), 3.0);
    }

    #[test]
    fn identity_behaves() {
        let i = SparseMatrix::identity(4);
        let v = Matrix::from_vec(4, 1, vec![1.0, 2.0, 3.0, 4.0]);
        let mut out = Matrix::zeros(0, 0);
        crate::spmm_access_into(&i, &v, &mut out);
        assert_eq!(out, v);
    }
}
