//! Neighborhood access: one sparse × dense product for every operator.
//!
//! [`NeighborAccess`] abstracts "a sparse row-major operator whose rows can
//! be visited in ascending column order" over the in-memory
//! [`SparseMatrix`] (the full `S`, or the per-batch `|seeds| x |frontier|`
//! slice a neighbor sampler materializes), the on-the-fly
//! [`SymNormalized`] view, and out-of-core stores (the memory-mapped CSR
//! file in `gale-graph`). [`spmm_access_into`] is the only sparse × dense
//! product: it accumulates each output row in visit order, so a subset of
//! rows is bitwise identical to those rows of the full product, over any
//! backing, at any thread count.

use crate::matrix::Matrix;
use crate::sparse::SparseMatrix;

/// Read access to the rows of a sparse operator.
///
/// Implementations must visit each row's entries in ascending column order
/// with a deterministic value sequence: every numeric kernel built on this
/// trait accumulates in visit order, and the bitwise-reproducibility
/// contract of the workspace (see DESIGN.md) extends through it.
pub trait NeighborAccess {
    /// Number of rows (= nodes for an adjacency operator).
    fn node_count(&self) -> usize;

    /// Number of stored entries in row `r`.
    fn neighbor_count(&self, r: usize) -> usize;

    /// Visits row `r`'s `(col, value)` entries in ascending column order.
    fn visit_neighbors(&self, r: usize, f: &mut dyn FnMut(usize, f64));

    /// Whether row `r` stores an entry at column `c`.
    ///
    /// The default scans the row; implementations with an index should
    /// override with a binary search.
    fn has_neighbor(&self, r: usize, c: usize) -> bool {
        let mut found = false;
        self.visit_neighbors(r, &mut |col, _| {
            if col == c {
                found = true;
            }
        });
        found
    }
}

/// Uniform access to the stored entries of a sparse operator by flat index,
/// used to draw random edges without materializing an edge list.
pub trait EdgeSample: NeighborAccess {
    /// Total number of stored entries.
    fn entry_count(&self) -> usize;

    /// The `(row, col)` coordinates of the `k`-th stored entry
    /// (`k < entry_count()`), in row-major CSR order.
    fn entry_at(&self, k: usize) -> (usize, usize);
}

impl NeighborAccess for SparseMatrix {
    fn node_count(&self) -> usize {
        self.rows()
    }

    fn neighbor_count(&self, r: usize) -> usize {
        self.row_nnz(r)
    }

    #[inline]
    fn visit_neighbors(&self, r: usize, f: &mut dyn FnMut(usize, f64)) {
        for (c, v) in self.row_iter(r) {
            f(c, v);
        }
    }

    fn has_neighbor(&self, r: usize, c: usize) -> bool {
        self.get(r, c) != 0.0
    }
}

impl EdgeSample for SparseMatrix {
    fn entry_count(&self) -> usize {
        self.nnz()
    }

    fn entry_at(&self, k: usize) -> (usize, usize) {
        self.entry_coords(k)
    }
}

/// The symmetric GCN normalization `D̃^{-1/2} (A + I) D̃^{-1/2}` computed
/// on the fly over any [`NeighborAccess`] adjacency, without materializing
/// the normalized operator.
///
/// Rows are visited in the same merged ascending order (the self-loop
/// spliced into its sorted position) and with the same multiplication
/// order as [`SparseMatrix::sym_normalized_with_self_loops`], so for an
/// in-memory adjacency the two produce bitwise-identical row sequences.
pub struct SymNormalized<'a, A: NeighborAccess + ?Sized> {
    inner: &'a A,
    inv_sqrt: Vec<f64>,
}

impl<'a, A: NeighborAccess + ?Sized> SymNormalized<'a, A> {
    /// Computes `D̃^{-1/2}` in one pass over the adjacency rows.
    pub fn new(inner: &'a A) -> Self {
        let n = inner.node_count();
        let mut inv_sqrt = vec![0.0f64; n];
        for (r, slot) in inv_sqrt.iter_mut().enumerate() {
            let mut deg = 0.0f64;
            visit_tilde_row(inner, r, &mut |_, v| deg += v);
            *slot = if deg > 0.0 { 1.0 / deg.sqrt() } else { 0.0 };
        }
        SymNormalized { inner, inv_sqrt }
    }
}

/// Visits row `r` of `A + I`: the underlying row in ascending column order
/// with the unit self-loop merged into its sorted position (summed into an
/// existing diagonal entry if the adjacency already stores one).
fn visit_tilde_row<A: NeighborAccess + ?Sized>(inner: &A, r: usize, f: &mut dyn FnMut(usize, f64)) {
    let mut self_done = false;
    inner.visit_neighbors(r, &mut |c, v| {
        if !self_done && c > r {
            f(r, 1.0);
            self_done = true;
        }
        if c == r {
            f(c, v + 1.0);
            self_done = true;
        } else {
            f(c, v);
        }
    });
    if !self_done {
        f(r, 1.0);
    }
}

impl<A: NeighborAccess + ?Sized> NeighborAccess for SymNormalized<'_, A> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn neighbor_count(&self, r: usize) -> usize {
        let mut n = 0usize;
        visit_tilde_row(self.inner, r, &mut |_, _| n += 1);
        n
    }

    fn visit_neighbors(&self, r: usize, f: &mut dyn FnMut(usize, f64)) {
        let inv = &self.inv_sqrt;
        visit_tilde_row(self.inner, r, &mut |c, v| {
            f(c, v * (inv[r] * inv[c]));
        });
    }

    fn has_neighbor(&self, r: usize, c: usize) -> bool {
        r == c || self.inner.has_neighbor(r, c)
    }
}

/// `out = A * dense` for any [`NeighborAccess`] operator: the workspace's
/// one sparse × dense product. Parallel over disjoint row chunks, each
/// output row accumulated in the operator's visit order, so the result is
/// bitwise identical on any thread count, and a row is the same bits
/// whichever operator (full, sampled slice, or on-the-fly view) yields the
/// same entries for it. `out` is resized to `node_count x dense.cols()`.
///
/// Counts `kernel.spmm.calls` and `kernel.spmm.flops` (two per visited
/// entry per dense column).
pub fn spmm_access_into<A: NeighborAccess + Sync + ?Sized>(
    a: &A,
    dense: &Matrix,
    out: &mut Matrix,
) {
    let rows = a.node_count();
    let n = dense.cols();
    out.resize(rows, n);
    gale_obs::counter_add!("kernel.spmm.calls", 1);
    crate::par::par_chunks_mut(out.data_mut(), n.max(1), |start, block| {
        let row0 = start / n.max(1);
        let mut entries = 0usize;
        for (b, orow) in block.chunks_mut(n).enumerate() {
            orow.fill(0.0);
            a.visit_neighbors(row0 + b, &mut |c, v| {
                entries += 1;
                let drow = dense.row(c);
                for j in 0..n {
                    orow[j] += v * drow[j];
                }
            });
        }
        gale_obs::counter_add!("kernel.spmm.flops", 2 * entries * n);
    });
}

/// `out[r] = Σ_c A[r,c] * v[c]` for any [`NeighborAccess`] operator,
/// parallel over row chunks, deterministic at any thread count.
pub fn matvec_access<A: NeighborAccess + Sync + ?Sized>(a: &A, v: &[f64], out: &mut Vec<f64>) {
    let rows = a.node_count();
    out.clear();
    out.resize(rows, 0.0);
    crate::par::par_chunks_mut(out, 1, |start, chunk| {
        for (off, slot) in chunk.iter_mut().enumerate() {
            // Start from -0.0 like `Iterator::sum::<f64>` so empty rows
            // are bitwise identical to `SparseMatrix::matvec`.
            let mut acc = -0.0f64;
            a.visit_neighbors(start + off, &mut |c, w| acc += w * v[c]);
            *slot = acc;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn random_sparse(rows: usize, cols: usize, per_row: usize, rng: &mut Rng) -> SparseMatrix {
        let mut triplets = Vec::new();
        for r in 0..rows {
            for _ in 0..rng.below(per_row + 1) {
                triplets.push((r, rng.below(cols), 1.0 + rng.f64()));
            }
        }
        SparseMatrix::from_triplets(rows, cols, triplets)
    }

    #[test]
    fn block_spmm_matches_sparse_rows_bitwise() {
        let mut rng = Rng::seed_from_u64(7);
        let s = random_sparse(37, 29, 5, &mut rng);
        let d = Matrix::randn(29, 8, 1.0, &mut rng);
        let mut full = Matrix::zeros(0, 0);
        spmm_access_into(&s, &d, &mut full);
        // Copy a subset of rows into a block and compare bitwise.
        let picked = [0usize, 3, 9, 17, 36];
        let mut b = SparseMatrix::zeros(0, 29);
        for &r in &picked {
            for (c, v) in s.row_iter(r) {
                b.push(c, v);
            }
            b.finish_row();
        }
        let mut out = Matrix::zeros(0, 0);
        spmm_access_into(&b, &d, &mut out);
        for (bi, &r) in picked.iter().enumerate() {
            let got: Vec<u64> = out.row(bi).iter().map(|f| f.to_bits()).collect();
            let want: Vec<u64> = full.row(r).iter().map(|f| f.to_bits()).collect();
            assert_eq!(got, want, "row {r}");
        }
    }

    #[test]
    fn transpose_roundtrip_matches_sparse_transpose() {
        let mut rng = Rng::seed_from_u64(8);
        let s = random_sparse(23, 31, 4, &mut rng);
        let (mut t, mut tt) = (SparseMatrix::zeros(0, 0), SparseMatrix::zeros(0, 0));
        s.transpose_into(&mut t);
        assert_eq!((t.rows(), t.cols()), (31, 23));
        assert_eq!(t.to_dense(), s.to_dense().transpose());
        t.transpose_into(&mut tt);
        assert_eq!(tt, s);
    }

    #[test]
    fn sym_normalized_adapter_bitwise_matches_materialized() {
        let mut rng = Rng::seed_from_u64(9);
        // Symmetric adjacency with some empty rows and one explicit diagonal.
        let mut triplets = Vec::new();
        for _ in 0..60 {
            let (a, b) = (rng.below(20), rng.below(20));
            if a != b {
                triplets.push((a, b, 1.0));
                triplets.push((b, a, 1.0));
            }
        }
        triplets.push((4, 4, 1.0));
        let a = SparseMatrix::from_triplets(20, 20, triplets);
        let s = a.sym_normalized_with_self_loops();
        let adapter = SymNormalized::new(&a);
        assert_eq!(adapter.node_count(), 20);
        for r in 0..20 {
            let mut got: Vec<(usize, u64)> = Vec::new();
            adapter.visit_neighbors(r, &mut |c, v| got.push((c, v.to_bits())));
            let want: Vec<(usize, u64)> = s.row_iter(r).map(|(c, v)| (c, v.to_bits())).collect();
            assert_eq!(got, want, "row {r}");
            assert_eq!(adapter.neighbor_count(r), s.row_nnz(r), "row {r} nnz");
        }
    }

    #[test]
    fn access_spmm_and_matvec_match_sparse() {
        let mut rng = Rng::seed_from_u64(10);
        let s = random_sparse(41, 41, 6, &mut rng);
        let d = Matrix::randn(41, 5, 1.0, &mut rng);
        // Reference: each row accumulated in stored-entry order.
        let mut want: Matrix = Matrix::zeros(41, 5);
        for r in 0..41 {
            for (c, v) in s.row_iter(r) {
                for j in 0..5 {
                    want[(r, j)] += v * d[(c, j)];
                }
            }
        }
        let mut got = Matrix::zeros(0, 0);
        spmm_access_into(&s, &d, &mut got);
        assert_eq!(
            got.data().iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            want.data().iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        );
        let v: Vec<f64> = (0..41).map(|_| rng.f64()).collect();
        let want_v = s.matvec(&v);
        let mut got_v = Vec::new();
        matvec_access(&s, &v, &mut got_v);
        assert_eq!(
            got_v.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            want_v.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn entry_at_walks_csr_order() {
        let s =
            SparseMatrix::from_triplets(3, 3, [(0, 1, 1.0), (1, 0, 2.0), (1, 2, 3.0), (2, 2, 4.0)]);
        assert_eq!(s.entry_count(), 4);
        assert_eq!(s.entry_at(0), (0, 1));
        assert_eq!(s.entry_at(1), (1, 0));
        assert_eq!(s.entry_at(2), (1, 2));
        assert_eq!(s.entry_at(3), (2, 2));
    }
}
