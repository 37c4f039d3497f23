//! Label propagation and personalized PageRank (PPR).
//!
//! Section V of the paper defines *topological typicality* through the PPR
//! matrix `P = α (I − (1−α) D̃^{-1/2} Ã D̃^{-1/2})^{-1}` and maintains soft
//! labels via label propagation `Y^i = P Y^{i-1}`; Section VI's Type-1
//! annotation reads one row of `P` per query. `P` is dense, so instead of
//! materializing it [`ppr_smooth_matrix`] applies it to every column of a
//! dense matrix at once by truncated power iteration:
//!
//! `P M = α Σ_{t≥0} (1−α)^t S^t M`.
//!
//! That is the one PPR body: every caller batches what it propagates into
//! columns (two classes' seeds, class indicators, one one-hot column per
//! query) and makes one pass. Because `S` is symmetric, `P` is symmetric
//! too — the fact GALE's query selector exploits to evaluate row inner
//! products ⟨P_v, m⟩ as `(P m)(v)`, and annotation to read the PPR row of
//! a query as the smoothing of its one-hot column.

use gale_tensor::{spmm_access_into, Matrix, NeighborAccess};

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

/// Applies the PPR operator `P` to every column of `m` in one sweep:
/// returns `α Σ (1−α)^t S^t m` over `cfg.iterations` terms.
///
/// `s_norm` is the symmetric-normalized operator with self-loops behind
/// any [`NeighborAccess`]: the materialized
/// [`gale_tensor::SparseMatrix::sym_normalized_with_self_loops`], or the
/// [`gale_tensor::SymNormalized`] view over an adjacency that is never
/// materialized (the out-of-core path). Each term is one
/// [`spmm_access_into`], which accumulates every output column in the
/// operator's visit order and never mixes columns. So column `j` of the
/// result is bitwise the smoothing of column `j` alone, and the result is
/// the same over any operator that yields the same rows, at any thread
/// count.
pub fn ppr_smooth_matrix<A: NeighborAccess + Sync + ?Sized>(
    s_norm: &A,
    m: &Matrix,
    cfg: &PropagationConfig,
) -> Matrix {
    assert_eq!(
        s_norm.node_count(),
        m.rows(),
        "ppr_smooth_matrix: size mismatch"
    );
    let alpha = cfg.alpha;
    let mut term = m.clone(); // S^t m, starts at t = 0
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

/// `P v` for one vector: a one-column call of [`ppr_smooth_matrix`], with
/// no loop of its own. Kept for callers that hold a slice; batch several
/// vectors into columns instead of calling this once per vector.
pub fn ppr_smooth_access<A: NeighborAccess + Sync + ?Sized>(
    s_norm: &A,
    v: &[f64],
    cfg: &PropagationConfig,
) -> Vec<f64> {
    let m = Matrix::from_vec(v.len(), 1, v.to_vec());
    ppr_smooth_matrix(s_norm, &m, cfg).data().to_vec()
}

/// Soft labels by label propagation as in Section V ("Updating soft labels"):
/// starting from `y0` (an `n x c` one-hot/partial label matrix), returns
/// `P * y0` and each row's argmax as the soft label class.
///
/// Rows with all-zero mass keep class `usize::MAX` (no evidence reaches
/// them), which callers should treat as "unknown".
pub fn soft_labels<A: NeighborAccess + Sync + ?Sized>(
    s_norm: &A,
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
    use gale_tensor::{Rng, SparseMatrix, SymNormalized};

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

    /// One one-hot column per seed: smoothed, column `j` is seed `j`'s PPR
    /// row (and column, by symmetry).
    fn one_hots(n: usize, seeds: &[usize]) -> Matrix {
        let mut m = Matrix::zeros(n, seeds.len());
        for (j, &s) in seeds.iter().enumerate() {
            m[(s, j)] = 1.0;
        }
        m
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn ppr_mass_concentrates_near_seed() {
        let s = barbell().sym_normalized_with_self_loops();
        let p = ppr_smooth_matrix(&s, &one_hots(6, &[0]), &PropagationConfig::default());
        // The seed keeps the largest share; the far triangle gets the least.
        assert!(p[(0, 0)] > p[(1, 0)]);
        assert!(p[(1, 0)] > p[(4, 0)]);
        assert!(p[(0, 0)] > p[(5, 0)] * 3.0);
    }

    #[test]
    fn ppr_symmetry_via_single_rows() {
        let s = barbell().sym_normalized_with_self_loops();
        let p = ppr_smooth_matrix(&s, &one_hots(6, &[0, 4]), &PropagationConfig::default());
        // P is symmetric: P[0][4] == P[4][0].
        assert!((p[(4, 0)] - p[(0, 1)]).abs() < 1e-12);
    }

    #[test]
    fn ppr_linear_in_input() {
        let s = barbell().sym_normalized_with_self_loops();
        // Columns e_0, e_3 and e_0 + 2 e_3.
        let mut m = one_hots(6, &[0, 3, 0]);
        m[(3, 2)] = 2.0;
        let p = ppr_smooth_matrix(&s, &m, &PropagationConfig::default());
        for i in 0..6 {
            assert!((p[(i, 2)] - (p[(i, 0)] + 2.0 * p[(i, 1)])).abs() < 1e-12);
        }
    }

    #[test]
    fn ppr_access_path_is_bitwise_equal_to_sparse_path() {
        let a = barbell();
        let cfg = PropagationConfig::default();
        let m = Matrix::from_rows(&[
            vec![0.3, 1.0],
            vec![0.0, 0.0],
            vec![1.2, 0.0],
            vec![0.0, 0.5],
            vec![2.0, 0.0],
            vec![0.7, 0.0],
        ]);
        let materialized = ppr_smooth_matrix(&a.sym_normalized_with_self_loops(), &m, &cfg);
        let view = ppr_smooth_matrix(&SymNormalized::new(&a), &m, &cfg);
        assert_eq!(bits(materialized.data()), bits(view.data()));
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
        let approx = ppr_smooth_matrix(&s, &Matrix::identity(3), &cfg);
        for seed in 0..3 {
            let mut e = vec![0.0; 3];
            e[seed] = 1.0;
            let exact = gale_tensor::solve(&m, &e).unwrap();
            for i in 0..3 {
                let exact = alpha * exact[i];
                assert!(
                    (exact - approx[(i, seed)]).abs() < 1e-9,
                    "seed {seed} entry {i}: {exact} vs {}",
                    approx[(i, seed)]
                );
            }
        }
    }

    /// Batching rests on this: column `j` of a batch is bitwise the
    /// one-column smoothing of column `j`.
    #[test]
    fn matrix_smoothing_matches_columnwise_vectors() {
        let s = barbell().sym_normalized_with_self_loops();
        let cfg = PropagationConfig::default();
        let mut rng = Rng::seed_from_u64(5);
        let m = Matrix::from_vec(6, 3, (0..18).map(|_| rng.f64()).collect());
        let y = ppr_smooth_matrix(&s, &m, &cfg);
        for j in 0..3 {
            let alone = ppr_smooth_access(&s, &m.col(j), &cfg);
            assert_eq!(bits(&y.col(j)), bits(&alone), "column {j}");
        }
    }

    /// FNV-1a over the bit patterns of every value, in order.
    fn fnv1a(m: &Matrix) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in m.data() {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The tests above compare the body with itself; this pins its bits, so
    /// a change to the propagation's arithmetic shows up here. The graph is
    /// random with two isolated nodes (self-loop only), and the inputs are
    /// nonnegative like every production input: draws of `Rng::f64`, and
    /// one-hot columns as annotation batches them. No libm call reaches a
    /// pinned value (the normalization's `sqrt` is correctly rounded). A
    /// deliberate change to the arithmetic must update the constants (and
    /// say so).
    #[test]
    fn ppr_output_bits_are_pinned() {
        let n = 48;
        let mut rng = Rng::seed_from_u64(2024);
        let mut triplets = Vec::new();
        for _ in 0..120 {
            let (a, b) = (rng.below(n - 2), rng.below(n - 2));
            if a != b {
                triplets.push((a, b, 1.0));
                triplets.push((b, a, 1.0));
            }
        }
        let a = SparseMatrix::from_triplets(n, n, triplets);
        let s = a.sym_normalized_with_self_loops();
        let cfg = PropagationConfig::default();
        let m = Matrix::from_vec(n, 3, (0..n * 3).map(|_| rng.f64()).collect());
        let pin = 0x3682_ef09_b9e2_dc4d;
        assert_eq!(fnv1a(&ppr_smooth_matrix(&s, &m, &cfg)), pin, "materialized");
        let view = SymNormalized::new(&a);
        assert_eq!(fnv1a(&ppr_smooth_matrix(&view, &m, &cfg)), pin, "view");
        let seeds = one_hots(n, &[0, 5, 17, 30, 47]);
        assert_eq!(
            fnv1a(&ppr_smooth_matrix(&s, &seeds, &cfg)),
            0x51f3_7f59_b5fc_b284,
            "one-hot columns"
        );
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
