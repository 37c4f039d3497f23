//! Diversified typicality (Section V-A).
//!
//! * **Clustering typicality** `clusT(v) = 1 / ||h(v) − c(v)||₂`: inverse
//!   distance from `v`'s embedding to its k'-means centroid.
//! * **Topological typicality** `topoT(v) = 1 − E_{x∼P_v}[ Σ_{l≠Ls(v)}
//!   (1/|C_l|) Σ_{i∈C_l} P_{i,x} ]`: one minus the expected "influence
//!   conflict" from the *opposite* predicted class, where `P` is the
//!   personalized-PageRank matrix and `Ls(v)` the label-propagation soft
//!   label.
//! * `T(v) = clusT(v) · topoT(v)`.
//!
//! `P` is symmetric (`P = α(I − (1−α)S)^{-1}` with symmetric `S`), so the
//! conflict term is evaluated without materializing `P`: with
//! `m_l = P · 1_{C_l} / |C_l|`, the expectation equals `(P · m_l)(v)`.
//! Both classes' propagations are batched into two passes of
//! [`ppr_smooth_matrix`]: one `n x 4` pass over the labeled one-hots (for
//! `Ls(v)`) and the class indicators, then one `n x 2` pass over the two
//! `m_l`. `S` may be a materialized [`gale_tensor::SparseMatrix`] or an
//! adapter that is never materialized, such as
//! [`gale_tensor::SymNormalized`] over a memory-mapped adjacency.

use crate::label::Label;
use crate::memo::MemoCache;
use gale_graph::{ppr_smooth_matrix, PropagationConfig};
use gale_tensor::{kmeans, KMeansConfig, KMeansResult, Matrix, NeighborAccess, Rng};

/// Inputs needed to score typicality for the unlabeled pool.
pub struct TypicalityContext<'a> {
    /// Discriminator embeddings `H_n(X_R)` for all nodes.
    pub embeddings: &'a Matrix,
    /// Symmetric-normalized propagation operator (static across iterations).
    pub s_norm: &'a (dyn NeighborAccess + Sync),
    /// Discriminator-predicted labels for every node (drives `C_l`).
    pub predicted: &'a [Label],
    /// Current labeled examples as `(node, label)`; the label-propagation
    /// seeds for `Ls(v)`.
    pub labeled: &'a [(usize, Label)],
    /// Propagation settings.
    pub propagation: PropagationConfig,
}

/// The per-node typicality components over the unlabeled pool.
///
/// When the memoized fast path fires (few changed embeddings), `combined`
/// carries the authoritative scores while `clustering`/`topological`/
/// `kmeans` hold placeholder values re-derived from the cached selection
/// state — consumers beyond [`typicality_scores`] itself should rely on
/// `combined` only.
#[derive(Debug, Clone)]
pub struct TypicalityScores {
    /// `clusT` per node (indexed by position in the unlabeled slice).
    pub clustering: Vec<f64>,
    /// `topoT` per node.
    pub topological: Vec<f64>,
    /// Product `T(v)`.
    pub combined: Vec<f64>,
    /// The k-means clustering used for `clusT` (reused by the k-means
    /// sampling baseline).
    pub kmeans: KMeansResult,
}

/// Computes clustering typicality for the unlabeled pool by running
/// k'-means on their embeddings.
pub fn clustering_typicality(
    embeddings: &Matrix,
    unlabeled: &[usize],
    k_prime: usize,
    rng: &mut Rng,
) -> (Vec<f64>, KMeansResult) {
    let points = embeddings.select_rows(unlabeled);
    let km = kmeans(
        &points,
        &KMeansConfig {
            k: k_prime.max(1),
            max_iter: 50,
            tol: 1e-5,
            ..KMeansConfig::default()
        },
        rng,
    );
    // Per-point centroid distances are independent; fan out over chunks.
    let mut scores = vec![0.0f64; unlabeled.len()];
    gale_tensor::par::par_chunks_mut(&mut scores, 1, |start, chunk| {
        for (off, slot) in chunk.iter_mut().enumerate() {
            *slot = 1.0 / (1.0 + km.distance_to_centroid(&points, start + off));
        }
    });
    (scores, km)
}

/// Computes topological typicality for the unlabeled pool.
///
/// Follows Section V-A: soft labels via label propagation from the current
/// examples; per-class mean influence via two PPR smoothings; conflict at
/// `v` is the smoothed opposite-class influence evaluated at `v`.
pub fn topological_typicality(ctx: &TypicalityContext<'_>, unlabeled: &[usize]) -> Vec<f64> {
    topological_typicality_full(ctx, unlabeled).0
}

/// As [`topological_typicality`], additionally returning the `n x 2`
/// conflict matrix (column `l` is `P m_l`) and the soft-label classes
/// (cached by the memoization layer for cheap re-scoring).
pub fn topological_typicality_full(
    ctx: &TypicalityContext<'_>,
    unlabeled: &[usize],
) -> (Vec<f64>, Matrix, Vec<usize>) {
    let n = ctx.embeddings.rows();
    // Class membership C_l: unlabeled nodes with predicted label l.
    let mut class_members: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for &v in unlabeled {
        class_members[ctx.predicted[v].class_index()].push(v);
    }
    // One pass over four columns: column l holds class l's labeled
    // one-hots (their smoothing is the mass behind Ls(v)), column 2 + l
    // the indicator 1_{C_l} / |C_l| (its smoothing is m_l). A class with
    // no labeled node or no member leaves a zero column, which smooths to
    // zero: no mass, no conflict.
    let mut seeds = Matrix::zeros(n, 4);
    for &(node, label) in ctx.labeled {
        seeds[(node, label.class_index())] = 1.0;
    }
    for (l, members) in class_members.iter().enumerate() {
        let w = 1.0 / members.len() as f64;
        for &v in members {
            seeds[(v, 2 + l)] = w;
        }
    }
    let smoothed = ppr_smooth_matrix(ctx.s_norm, &seeds, &ctx.propagation);
    // conflict_l = P m_l, both classes in one more pass.
    let m = Matrix::from_fn(n, 2, |v, l| smoothed[(v, 2 + l)]);
    let conflict = ppr_smooth_matrix(ctx.s_norm, &m, &ctx.propagation);

    // Soft labels Ls(v): the larger mass wins (ties to class 0, as in
    // `gale_graph::soft_labels`), and nodes no mass reaches fall back to
    // the discriminator prediction.
    let soft_class = |v: usize| -> usize {
        let (e, c) = (smoothed[(v, 0)], smoothed[(v, 1)]);
        if e.abs() + c.abs() < 1e-12 {
            ctx.predicted[v].class_index()
        } else {
            usize::from(c > e)
        }
    };
    let scores = unlabeled
        .iter()
        .map(|&v| (1.0 - conflict[(v, 1 - soft_class(v))]).clamp(0.0, 1.0))
        .collect();
    let soft_classes = (0..n).map(soft_class).collect();
    (scores, conflict, soft_classes)
}

/// The share of changed embeddings below which the memoized selection state
/// is reused instead of recomputed (Section VII's "avoid unnecessary
/// update … if the changes to the node embeddings are small").
const REUSE_THRESHOLD: f64 = 0.2;

/// Computes the full typicality scores `T(v) = clusT(v) · topoT(v)` for the
/// unlabeled pool, consulting (and filling) the memoization cache.
///
/// With memoization on and few changed embeddings, the previous iteration's
/// k'-means centroids and PPR conflict vectors are reused: unchanged nodes
/// keep their cached `T(v)` outright, changed nodes are re-scored against
/// the cached state — skipping both the clustering and the propagation
/// smoothings, the dominant selection costs.
pub fn typicality_scores(
    ctx: &TypicalityContext<'_>,
    unlabeled: &[usize],
    k_prime: usize,
    memo: &mut MemoCache,
    rng: &mut Rng,
) -> TypicalityScores {
    if memo.enabled && memo.last_changed_fraction <= REUSE_THRESHOLD {
        if let Some(state) = memo.selection_state.clone() {
            memo.typicality_reuses += 1;
            // Changed nodes get their centroid distances from the blocked
            // row kernel — one call per node — instead of a scalar
            // per-centroid loop; the norms and scratch row are shared
            // across all re-scored nodes.
            let cnorms = gale_tensor::distance::row_norms_sq(&state.centroids);
            let mut cdist = vec![0.0f64; state.centroids.rows()];
            let combined: Vec<f64> = unlabeled
                .iter()
                .map(|&v| {
                    if let Some(t) = memo.typicality(v) {
                        return t;
                    }
                    // Re-score a changed node against the cached state.
                    let h = ctx.embeddings.row(v);
                    gale_tensor::distance::dists_to_row_into(
                        &state.centroids,
                        &cnorms,
                        h,
                        gale_tensor::distance::row_norm_sq(h),
                        &mut cdist,
                    );
                    let best = cdist.iter().copied().fold(f64::INFINITY, f64::min);
                    let clus = 1.0 / (1.0 + best);
                    let soft = match state.soft_classes.get(v) {
                        Some(&c) if c <= 1 => c,
                        _ => ctx.predicted[v].class_index(),
                    };
                    let conflict = state.conflict[(v, 1 - soft)];
                    let t = clus * (1.0 - conflict).clamp(0.0, 1.0);
                    memo.store_typicality(v, t);
                    t
                })
                .collect();
            // The cached centroids stand in for a fresh clustering.
            let km = KMeansResult {
                centroids: state.centroids.clone(),
                assignments: vec![0; unlabeled.len()],
                inertia: 0.0,
                iterations: 0,
                pruned: 0,
            };
            return TypicalityScores {
                clustering: combined.clone(),
                topological: vec![1.0; unlabeled.len()],
                combined,
                kmeans: km,
            };
        }
    }

    // Full computation.
    let (clustering, km) = clustering_typicality(ctx.embeddings, unlabeled, k_prime, rng);
    let (topological, conflict, soft_classes) = topological_typicality_full(ctx, unlabeled);
    let combined: Vec<f64> = clustering
        .iter()
        .zip(&topological)
        .map(|(c, t)| c * t)
        .collect();
    for (i, &v) in unlabeled.iter().enumerate() {
        memo.store_typicality(v, combined[i]);
    }
    if memo.enabled {
        memo.selection_state = Some(crate::memo::SelectionState {
            centroids: km.centroids.clone(),
            conflict,
            soft_classes,
        });
    }
    TypicalityScores {
        clustering,
        topological,
        combined,
        kmeans: km,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gale_tensor::{SparseMatrix, SymNormalized};

    /// Two communities of 6 nodes bridged by one edge.
    fn adjacency() -> SparseMatrix {
        let mut triplets = Vec::new();
        let link = |a: usize, b: usize, t: &mut Vec<(usize, usize, f64)>| {
            t.push((a, b, 1.0));
            t.push((b, a, 1.0));
        };
        for base in [0usize, 6] {
            for i in 0..6 {
                for j in (i + 1)..6 {
                    link(base + i, base + j, &mut triplets);
                }
            }
        }
        link(5, 6, &mut triplets);
        SparseMatrix::from_triplets(12, 12, triplets)
    }

    /// The normalized [`adjacency`], with embeddings and predictions that
    /// mirror its communities.
    fn setup() -> (Matrix, SparseMatrix, Vec<Label>) {
        let s = adjacency().sym_normalized_with_self_loops();
        let mut rng = Rng::seed_from_u64(11);
        let mut h = Matrix::zeros(12, 3);
        for v in 0..12 {
            let c = if v < 6 { -2.0 } else { 2.0 };
            for d in 0..3 {
                h[(v, d)] = c + rng.gauss() * 0.3;
            }
        }
        // Predicted: community 0 = Error, community 1 = Correct.
        let predicted: Vec<Label> = (0..12)
            .map(|v| if v < 6 { Label::Error } else { Label::Correct })
            .collect();
        (h, s, predicted)
    }

    #[test]
    fn clustering_typicality_prefers_centroid_nodes() {
        let (h, _, _) = setup();
        let unlabeled: Vec<usize> = (0..12).collect();
        let mut rng = Rng::seed_from_u64(21);
        let (scores, km) = clustering_typicality(&h, &unlabeled, 2, &mut rng);
        assert_eq!(scores.len(), 12);
        assert_eq!(km.centroids.rows(), 2);
        // Node closest to its centroid has the highest score in its cluster.
        for members in km.members_by_cluster() {
            let best = members
                .iter()
                .max_by(|&&a, &&b| scores[a].partial_cmp(&scores[b]).unwrap())
                .unwrap();
            let points = h.select_rows(&unlabeled);
            let d_best = km.distance_to_centroid(&points, *best);
            for &m in &members {
                assert!(km.distance_to_centroid(&points, m) >= d_best - 1e-12);
            }
        }
    }

    #[test]
    fn bridge_node_has_lower_topological_typicality() {
        let (h, s, predicted) = setup();
        // Label one node per community.
        let labeled = vec![(0usize, Label::Error), (11usize, Label::Correct)];
        let ctx = TypicalityContext {
            embeddings: &h,
            s_norm: &s,
            predicted: &predicted,
            labeled: &labeled,
            propagation: PropagationConfig::default(),
        };
        let unlabeled: Vec<usize> = (1..11).collect();
        let topo = topological_typicality(&ctx, &unlabeled);
        // Bridge endpoints (5 and 6) receive more opposite-class influence
        // than deep community members (1 and 10).
        let idx = |v: usize| unlabeled.iter().position(|&u| u == v).unwrap();
        assert!(
            topo[idx(5)] < topo[idx(1)],
            "bridge {} vs interior {}",
            topo[idx(5)],
            topo[idx(1)]
        );
        assert!(topo[idx(6)] < topo[idx(10)]);
        assert!(topo.iter().all(|t| (0.0..=1.0).contains(t)));
    }

    #[test]
    fn combined_scores_are_products() {
        let (h, s, predicted) = setup();
        let labeled = vec![(0usize, Label::Error), (11usize, Label::Correct)];
        let ctx = TypicalityContext {
            embeddings: &h,
            s_norm: &s,
            predicted: &predicted,
            labeled: &labeled,
            propagation: PropagationConfig::default(),
        };
        let unlabeled: Vec<usize> = (1..11).collect();
        let mut memo = MemoCache::new(false, 1e-6);
        let mut rng = Rng::seed_from_u64(31);
        let scores = typicality_scores(&ctx, &unlabeled, 3, &mut memo, &mut rng);
        for i in 0..unlabeled.len() {
            assert!(
                (scores.combined[i] - scores.clustering[i] * scores.topological[i]).abs() < 1e-12
            );
        }
    }

    #[test]
    fn memoized_scores_reused_when_embeddings_static() {
        let (h, s, predicted) = setup();
        let labeled = vec![(0usize, Label::Error), (11usize, Label::Correct)];
        let ctx = TypicalityContext {
            embeddings: &h,
            s_norm: &s,
            predicted: &predicted,
            labeled: &labeled,
            propagation: PropagationConfig::default(),
        };
        let unlabeled: Vec<usize> = (1..11).collect();
        let mut memo = MemoCache::new(true, 1e-6);
        memo.update_embeddings(&h);
        let mut rng = Rng::seed_from_u64(41);
        let first = typicality_scores(&ctx, &unlabeled, 3, &mut memo, &mut rng);
        // Re-install identical embeddings: cached values must come back.
        memo.update_embeddings(&h);
        let second = typicality_scores(&ctx, &unlabeled, 3, &mut memo, &mut rng);
        for i in 0..unlabeled.len() {
            assert_eq!(first.combined[i], second.combined[i]);
        }
    }

    #[test]
    fn access_operator_matches_materialized_s_norm() {
        let (h, s, predicted) = setup();
        let a = adjacency();
        let lazy = SymNormalized::new(&a);
        let unlabeled: Vec<usize> = (1..11).collect();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for labeled in [
            vec![(0usize, Label::Error), (11usize, Label::Correct)],
            vec![(0, Label::Error)],
            vec![(5, Label::Correct), (6, Label::Error), (2, Label::Error)],
        ] {
            let ctx = |s_norm| TypicalityContext {
                embeddings: &h,
                s_norm,
                predicted: &predicted,
                labeled: &labeled,
                propagation: PropagationConfig::default(),
            };
            // Memo off: `combined` is bitwise equal over both operators.
            for seed in [31, 32, 33] {
                let mut combined = Vec::new();
                for op in [&s as &(dyn NeighborAccess + Sync), &lazy] {
                    let mut memo = MemoCache::new(false, 0.0);
                    let mut rng = Rng::seed_from_u64(seed);
                    let t = typicality_scores(&ctx(op), &unlabeled, 3, &mut memo, &mut rng);
                    combined.push(bits(&t.combined));
                }
                assert_eq!(combined[0], combined[1], "seed {seed}, labels {labeled:?}");
            }
            // The soft-label classes are those of the matrix path, with
            // the prediction where no mass arrives.
            let (_, _, soft) = topological_typicality_full(&ctx(&lazy), &unlabeled);
            let mut y0 = Matrix::zeros(12, 2);
            for &(node, label) in &labeled {
                y0[(node, label.class_index())] = 1.0;
            }
            let (_, classes) = gale_graph::soft_labels(&s, &y0, &PropagationConfig::default());
            for v in 0..12 {
                let want = match classes[v] {
                    usize::MAX => predicted[v].class_index(),
                    c => c,
                };
                assert_eq!(soft[v], want, "node {v}, labels {labeled:?}");
            }
        }
    }
}
