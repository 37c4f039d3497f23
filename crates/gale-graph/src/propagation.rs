//! Label propagation and personalized PageRank (PPR).
//!
//! Section V of the paper defines *topological typicality* through the PPR
//! matrix `P = α (I − (1−α) D̃^{-1/2} Ã D̃^{-1/2})^{-1}` and maintains soft
//! labels via label propagation `Y^i = P Y^{i-1}`. `P` is dense, so instead of
//! materializing it we expose [`ppr_smooth`], which applies `P` to a vector
//! (or each column of a matrix) by truncated power iteration:
//!
//! `P v = α Σ_{t≥0} (1−α)^t S^t v`.
//!
//! Because `S` is symmetric, `P` is symmetric too — the fact GALE's query
//! selector exploits to evaluate row inner products ⟨P_v, m⟩ as `(P m)(v)`.

use gale_tensor::{matvec_access, spmm_access_into, Matrix, NeighborAccess, SparseMatrix};

/// Configuration shared by the propagation routines.
#[derive(Debug, Clone, Copy)]
pub struct PropagationConfig {
    /// Restart probability α of the random walk (paper's default regime).
    pub alpha: f64,
    /// Number of power-iteration terms; the truncation error decays as
    /// `(1−α)^iters`.
    pub iterations: usize,
}

impl Default for PropagationConfig {
    fn default() -> Self {
        PropagationConfig {
            alpha: 0.15,
            iterations: 30,
        }
    }
}

/// Applies the PPR operator `P` to a vector: returns `α Σ (1−α)^t S^t v`.
///
/// `s_norm` must be the symmetric-normalized operator with self-loops
/// (see [`SparseMatrix::sym_normalized_with_self_loops`]).
pub fn ppr_smooth(s_norm: &SparseMatrix, v: &[f64], cfg: &PropagationConfig) -> Vec<f64> {
    assert_eq!(s_norm.rows(), v.len(), "ppr_smooth: size mismatch");
    let alpha = cfg.alpha;
    let mut term: Vec<f64> = v.to_vec(); // S^t v, starts at t = 0
    let mut acc: Vec<f64> = v.iter().map(|x| alpha * x).collect();
    let mut weight = alpha;
    for _ in 0..cfg.iterations {
        term = s_norm.matvec(&term);
        weight *= 1.0 - alpha;
        for (a, t) in acc.iter_mut().zip(&term) {
            *a += weight * t;
        }
    }
    acc
}

/// [`ppr_smooth`] over any [`NeighborAccess`] operator — the out-of-core
/// path used by the million-node pipeline, where `S` is an adapter over a
/// memory-mapped adjacency and never materialized. Bitwise identical to
/// [`ppr_smooth`] when the access is an in-memory [`SparseMatrix`]: the
/// per-row accumulation order of `matvec_access` matches
/// [`SparseMatrix::matvec`], and the scalar recurrence is shared.
pub fn ppr_smooth_access<A: NeighborAccess + Sync + ?Sized>(
    s_norm: &A,
    v: &[f64],
    cfg: &PropagationConfig,
) -> Vec<f64> {
    assert_eq!(
        s_norm.node_count(),
        v.len(),
        "ppr_smooth_access: size mismatch"
    );
    let alpha = cfg.alpha;
    let mut term: Vec<f64> = v.to_vec(); // S^t v, starts at t = 0
    let mut next: Vec<f64> = Vec::new();
    let mut acc: Vec<f64> = v.iter().map(|x| alpha * x).collect();
    let mut weight = alpha;
    for _ in 0..cfg.iterations {
        matvec_access(s_norm, &term, &mut next);
        std::mem::swap(&mut term, &mut next);
        weight *= 1.0 - alpha;
        for (a, t) in acc.iter_mut().zip(&term) {
            *a += weight * t;
        }
    }
    acc
}

/// Applies `P` column-wise to a dense matrix (e.g. a label matrix `Y`).
pub fn ppr_smooth_matrix(s_norm: &SparseMatrix, m: &Matrix, cfg: &PropagationConfig) -> Matrix {
    assert_eq!(s_norm.rows(), m.rows(), "ppr_smooth_matrix: size mismatch");
    let alpha = cfg.alpha;
    let mut term = m.clone();
    let mut next = Matrix::zeros(0, 0);
    let mut acc = m.scaled(alpha);
    let mut weight = alpha;
    for _ in 0..cfg.iterations {
        spmm_access_into(s_norm, &term, &mut next);
        std::mem::swap(&mut term, &mut next);
        weight *= 1.0 - alpha;
        acc.axpy(weight, &term);
    }
    acc
}

/// One PPR row/column for a single seed node (a unit basis vector smoothed by
/// `P`). By symmetry of `P` this is both `P_{v,:}` and `P_{:,v}`.
pub fn ppr_single(s_norm: &SparseMatrix, seed: usize, cfg: &PropagationConfig) -> Vec<f64> {
    let mut e = vec![0.0; s_norm.rows()];
    e[seed] = 1.0;
    ppr_smooth(s_norm, &e, cfg)
}

/// Soft labels by label propagation as in Section V ("Updating soft labels"):
/// starting from `y0` (an `n x c` one-hot/partial label matrix), returns
/// `P * y0` and each row's argmax as the soft label class.
///
/// Rows with all-zero mass keep class `usize::MAX` (no evidence reaches
/// them), which callers should treat as "unknown".
pub fn soft_labels(
    s_norm: &SparseMatrix,
    y0: &Matrix,
    cfg: &PropagationConfig,
) -> (Matrix, Vec<usize>) {
    let y = ppr_smooth_matrix(s_norm, y0, cfg);
    let classes = (0..y.rows())
        .map(|r| {
            let row = y.row(r);
            let total: f64 = row.iter().map(|x| x.abs()).sum();
            if total < 1e-12 {
                usize::MAX
            } else {
                let mut best = 0;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            }
        })
        .collect();
    (y, classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two triangles joined by one bridge edge: 0-1-2 and 3-4-5, bridge 2-3.
    fn barbell() -> SparseMatrix {
        let edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)];
        let mut triplets = Vec::new();
        for (a, b) in edges {
            triplets.push((a, b, 1.0));
            triplets.push((b, a, 1.0));
        }
        SparseMatrix::from_triplets(6, 6, triplets)
    }

    #[test]
    fn ppr_mass_concentrates_near_seed() {
        let s = barbell().sym_normalized_with_self_loops();
        let p0 = ppr_single(&s, 0, &PropagationConfig::default());
        // The seed keeps the largest share; the far triangle gets the least.
        assert!(p0[0] > p0[1]);
        assert!(p0[1] > p0[4]);
        assert!(p0[0] > p0[5] * 3.0);
    }

    #[test]
    fn ppr_symmetry_via_single_rows() {
        let s = barbell().sym_normalized_with_self_loops();
        let cfg = PropagationConfig::default();
        let p0 = ppr_single(&s, 0, &cfg);
        let p4 = ppr_single(&s, 4, &cfg);
        // P is symmetric: P[0][4] == P[4][0].
        assert!((p0[4] - p4[0]).abs() < 1e-12);
    }

    #[test]
    fn ppr_linear_in_input() {
        let s = barbell().sym_normalized_with_self_loops();
        let cfg = PropagationConfig::default();
        let v1 = vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let v2 = vec![0.0, 0.0, 0.0, 1.0, 0.0, 0.0];
        let sum: Vec<f64> = v1.iter().zip(&v2).map(|(a, b)| a + 2.0 * b).collect();
        let p1 = ppr_smooth(&s, &v1, &cfg);
        let p2 = ppr_smooth(&s, &v2, &cfg);
        let ps = ppr_smooth(&s, &sum, &cfg);
        for i in 0..6 {
            assert!((ps[i] - (p1[i] + 2.0 * p2[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn ppr_access_path_is_bitwise_equal_to_sparse_path() {
        let s = barbell().sym_normalized_with_self_loops();
        let cfg = PropagationConfig::default();
        let v = vec![0.3, 0.0, -1.2, 0.0, 2.0, 0.7];
        let dense = ppr_smooth(&s, &v, &cfg);
        let access = ppr_smooth_access(&s, &v, &cfg);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&dense), bits(&access));
    }

    #[test]
    fn ppr_matches_closed_form_on_tiny_graph() {
        // Verify the truncated series against the dense inverse
        // α (I − (1−α) S)^{-1} on a 3-node path.
        let a =
            SparseMatrix::from_triplets(3, 3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]);
        let s = a.sym_normalized_with_self_loops();
        let alpha = 0.2;
        let cfg = PropagationConfig {
            alpha,
            iterations: 300,
        };
        let sd = s.to_dense();
        // M = I − (1−α) S
        let mut m = Matrix::identity(3);
        m.axpy(-(1.0 - alpha), &sd);
        for seed in 0..3 {
            let mut e = vec![0.0; 3];
            e[seed] = 1.0;
            let exact = gale_tensor::solve(&m, &e).unwrap();
            let exact: Vec<f64> = exact.iter().map(|x| alpha * x).collect();
            let approx = ppr_single(&s, seed, &cfg);
            for i in 0..3 {
                assert!(
                    (exact[i] - approx[i]).abs() < 1e-9,
                    "seed {seed} entry {i}: {} vs {}",
                    exact[i],
                    approx[i]
                );
            }
        }
    }

    #[test]
    fn matrix_smoothing_matches_columnwise_vectors() {
        let s = barbell().sym_normalized_with_self_loops();
        let cfg = PropagationConfig::default();
        let y0 = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 0.0],
            vec![0.0, 0.0],
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![0.0, 0.0],
        ]);
        let y = ppr_smooth_matrix(&s, &y0, &cfg);
        let c0 = ppr_smooth(&s, &y0.col(0), &cfg);
        let c1 = ppr_smooth(&s, &y0.col(1), &cfg);
        for r in 0..6 {
            assert!((y[(r, 0)] - c0[r]).abs() < 1e-12);
            assert!((y[(r, 1)] - c1[r]).abs() < 1e-12);
        }
    }

    #[test]
    fn soft_labels_follow_topology() {
        let s = barbell().sym_normalized_with_self_loops();
        // Node 0 labeled class 0, node 5 labeled class 1.
        let mut y0 = Matrix::zeros(6, 2);
        y0[(0, 0)] = 1.0;
        y0[(5, 1)] = 1.0;
        let (_, classes) = soft_labels(&s, &y0, &PropagationConfig::default());
        assert_eq!(classes[1], 0);
        assert_eq!(classes[2], 0);
        assert_eq!(classes[3], 1);
        assert_eq!(classes[4], 1);
    }

    #[test]
    fn soft_labels_unknown_for_isolated_unlabeled() {
        let s = SparseMatrix::zeros(3, 3).sym_normalized_with_self_loops();
        let mut y0 = Matrix::zeros(3, 2);
        y0[(0, 0)] = 1.0;
        let (_, classes) = soft_labels(&s, &y0, &PropagationConfig::default());
        assert_eq!(classes[0], 0);
        assert_eq!(classes[1], usize::MAX);
        assert_eq!(classes[2], usize::MAX);
    }
}
