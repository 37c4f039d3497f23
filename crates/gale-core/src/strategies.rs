//! Query-selection strategies: GALE's diversified typicality plus the
//! baselines the paper ablates against (Section VIII, "Algorithms"):
//! random sampling, entropy-based uncertainty, margin-based uncertainty,
//! and clustering-centroid sampling (GALE (-Kme.)).

use crate::memo::MemoCache;
use crate::select::qselect;
use crate::typicality::{typicality_scores, TypicalityContext};
use gale_tensor::{kmeans, stats, KMeansConfig, Matrix, Rng};

/// Which query-selection rule to run each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStrategy {
    /// GALE's diversified-typicality greedy selection.
    DiversifiedTypicality,
    /// GALE (-Ran.): uniform sampling of unlabeled nodes.
    Random,
    /// GALE (-Ent.): top-k by prediction entropy.
    Entropy,
    /// Margin sampling: smallest gap between the two largest class probs.
    Margin,
    /// GALE (-Kme.): unlabeled nodes nearest to k-means centroids.
    KMeansCentroid,
}

impl QueryStrategy {
    /// Short name matching the paper's variant labels.
    pub fn label(self) -> &'static str {
        match self {
            QueryStrategy::DiversifiedTypicality => "GALE",
            QueryStrategy::Random => "GALE(-Ran.)",
            QueryStrategy::Entropy => "GALE(-Ent.)",
            QueryStrategy::Margin => "GALE(-Mar.)",
            QueryStrategy::KMeansCentroid => "GALE(-Kme.)",
        }
    }
}

/// Everything a strategy may consult when choosing queries.
pub struct SelectionInputs<'a> {
    /// Current typicality context (embeddings, propagation, predictions).
    pub ctx: TypicalityContext<'a>,
    /// Class probabilities over {error, correct} for every node.
    pub class_probs: &'a Matrix,
    /// Candidate (unlabeled training) node ids.
    pub unlabeled: &'a [usize],
    /// Local budget `k`.
    pub k: usize,
    /// Diversity weight λ.
    pub lambda: f64,
    /// `k' = k_prime_factor · k` clusters for ClusterU.
    pub k_prime_factor: usize,
}

/// Selects a batch of queries with the given strategy.
pub fn select_queries(
    strategy: QueryStrategy,
    inputs: &SelectionInputs<'_>,
    memo: &mut MemoCache,
    rng: &mut Rng,
) -> Vec<usize> {
    let k = inputs.k.min(inputs.unlabeled.len());
    if k == 0 {
        return Vec::new();
    }
    match strategy {
        QueryStrategy::Random => {
            let idx = rng.sample_indices(inputs.unlabeled.len(), k);
            idx.into_iter().map(|i| inputs.unlabeled[i]).collect()
        }
        QueryStrategy::Entropy => top_k_by(inputs.unlabeled, k, |v| {
            stats::entropy(&[inputs.class_probs[(v, 0)], inputs.class_probs[(v, 1)]])
        }),
        QueryStrategy::Margin => {
            // Smallest margin = most uncertain; rank by negative margin.
            top_k_by(inputs.unlabeled, k, |v| {
                -(inputs.class_probs[(v, 0)] - inputs.class_probs[(v, 1)]).abs()
            })
        }
        QueryStrategy::KMeansCentroid => {
            kmeans_centroid_sample(inputs.ctx.embeddings, inputs.unlabeled, k, rng)
        }
        QueryStrategy::DiversifiedTypicality => {
            let k_prime = (inputs.k_prime_factor.max(1) * k).min(inputs.unlabeled.len());
            let scores = typicality_scores(&inputs.ctx, inputs.unlabeled, k_prime, memo, rng);
            // Make λ dimensionless and budget-invariant: normalize by the
            // mean pairwise embedding distance (sampled) and by k, so the
            // total diversity contribution of a full batch stays on the
            // typicality scale — otherwise Σ_{q∈Q} d(·) grows with |Q| and
            // the selection degenerates into pure max-dispersion.
            let lambda_eff = if inputs.lambda > 0.0 && inputs.unlabeled.len() >= 2 {
                let mut total = 0.0;
                let samples = 64usize;
                for _ in 0..samples {
                    let a = inputs.unlabeled[rng.below(inputs.unlabeled.len())];
                    let b = inputs.unlabeled[rng.below(inputs.unlabeled.len())];
                    total += gale_tensor::distance::euclidean(
                        inputs.ctx.embeddings.row(a),
                        inputs.ctx.embeddings.row(b),
                    );
                }
                let mean_d = (total / samples as f64).max(1e-9);
                inputs.lambda / (mean_d * k as f64)
            } else {
                inputs.lambda
            };
            qselect(
                inputs.ctx.embeddings,
                inputs.unlabeled,
                &scores.combined,
                k,
                lambda_eff,
                memo,
            )
        }
    }
}

/// Cold-start selection (no trained model yet): clustering-based sampling
/// over raw features, as the paper initializes `Q⁰` with \[46\].
pub fn cold_start_queries(
    features: &Matrix,
    unlabeled: &[usize],
    k: usize,
    rng: &mut Rng,
) -> Vec<usize> {
    kmeans_centroid_sample(features, unlabeled, k, rng)
}

/// The clustering-based sampler shared by cold start and GALE (-Kme.):
/// run k-means with k clusters and return the node nearest each centroid.
fn kmeans_centroid_sample(
    embeddings: &Matrix,
    unlabeled: &[usize],
    k: usize,
    rng: &mut Rng,
) -> Vec<usize> {
    let k = k.min(unlabeled.len());
    if k == 0 {
        return Vec::new();
    }
    let points = embeddings.select_rows(unlabeled);
    let km = kmeans(
        &points,
        &KMeansConfig {
            k,
            max_iter: 50,
            tol: 1e-5,
            ..KMeansConfig::default()
        },
        rng,
    );
    let mut out = Vec::with_capacity(k);
    // One pass over the assignments groups every cluster's members, instead
    // of an O(n) `members(c)` scan per cluster.
    for members in km.members_by_cluster() {
        let best = members
            .iter()
            .min_by(|&&a, &&b| {
                km.distance_to_centroid(&points, a)
                    .partial_cmp(&km.distance_to_centroid(&points, b))
                    .expect("NaN distance")
            })
            .copied();
        if let Some(i) = best {
            out.push(unlabeled[i]);
        }
    }
    // Rare: empty clusters shrink the batch; backfill randomly.
    while out.len() < k {
        let v = inputs_backfill(unlabeled, &out, rng);
        out.push(v);
    }
    out
}

fn inputs_backfill(unlabeled: &[usize], taken: &[usize], rng: &mut Rng) -> usize {
    loop {
        let v = unlabeled[rng.below(unlabeled.len())];
        if !taken.contains(&v) {
            return v;
        }
    }
}

/// Ranks candidates by a score and keeps the top-k (stable for ties).
fn top_k_by(unlabeled: &[usize], k: usize, score: impl Fn(usize) -> f64) -> Vec<usize> {
    let mut ranked: Vec<(usize, f64)> = unlabeled.iter().map(|&v| (v, score(v))).collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("top_k_by: NaN score"));
    ranked.truncate(k);
    ranked.into_iter().map(|(v, _)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Label;
    use gale_graph::PropagationConfig;
    use gale_tensor::SparseMatrix;

    struct Fixture {
        h: Matrix,
        s: SparseMatrix,
        probs: Matrix,
        predicted: Vec<Label>,
        labeled: Vec<(usize, Label)>,
        unlabeled: Vec<usize>,
    }

    fn fixture() -> Fixture {
        let n = 20;
        let mut rng = Rng::seed_from_u64(51);
        let h = Matrix::randn(n, 4, 1.0, &mut rng);
        let mut triplets = Vec::new();
        for i in 0..n - 1 {
            triplets.push((i, i + 1, 1.0));
            triplets.push((i + 1, i, 1.0));
        }
        let s = SparseMatrix::from_triplets(n, n, triplets).sym_normalized_with_self_loops();
        // Probabilities: node i has P(error) = i / n (node 19 most certain
        // error, node 10 most uncertain).
        let mut probs = Matrix::zeros(n, 2);
        for i in 0..n {
            probs[(i, 0)] = i as f64 / n as f64;
            probs[(i, 1)] = 1.0 - i as f64 / n as f64;
        }
        Fixture {
            h,
            s,
            probs,
            predicted: (0..n)
                .map(|i| {
                    if i >= 10 {
                        Label::Error
                    } else {
                        Label::Correct
                    }
                })
                .collect(),
            labeled: vec![(0, Label::Correct), (19, Label::Error)],
            unlabeled: (1..19).collect(),
        }
    }

    fn inputs(f: &Fixture) -> SelectionInputs<'_> {
        SelectionInputs {
            ctx: TypicalityContext {
                embeddings: &f.h,
                s_norm: &f.s,
                predicted: &f.predicted,
                labeled: &f.labeled,
                propagation: PropagationConfig::default(),
            },
            class_probs: &f.probs,
            unlabeled: &f.unlabeled,
            k: 5,
            lambda: 0.5,
            k_prime_factor: 2,
        }
    }

    #[test]
    fn every_strategy_returns_k_unlabeled_nodes() {
        let f = fixture();
        for strat in [
            QueryStrategy::DiversifiedTypicality,
            QueryStrategy::Random,
            QueryStrategy::Entropy,
            QueryStrategy::Margin,
            QueryStrategy::KMeansCentroid,
        ] {
            let mut memo = MemoCache::new(true, 1e-6);
            memo.update_embeddings(&f.h);
            let mut rng = Rng::seed_from_u64(61);
            let q = select_queries(strat, &inputs(&f), &mut memo, &mut rng);
            assert_eq!(q.len(), 5, "{strat:?}");
            assert!(
                q.iter().all(|v| f.unlabeled.contains(v)),
                "{strat:?} selected labeled nodes"
            );
            let mut d = q.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 5, "{strat:?} returned duplicates");
        }
    }

    #[test]
    fn entropy_picks_most_uncertain() {
        let f = fixture();
        let mut memo = MemoCache::new(false, 1e-6);
        let mut rng = Rng::seed_from_u64(62);
        let q = select_queries(QueryStrategy::Entropy, &inputs(&f), &mut memo, &mut rng);
        // Most uncertain nodes are those with P(error) near 0.5: 8..12.
        for v in q {
            assert!((6..=14).contains(&v), "entropy picked a confident node {v}");
        }
    }

    #[test]
    fn margin_matches_entropy_ordering_on_binary() {
        // For binary probabilities entropy and (negative) margin induce the
        // same order, so the two top-k sets coincide.
        let f = fixture();
        let mut memo = MemoCache::new(false, 1e-6);
        let mut rng = Rng::seed_from_u64(63);
        let qe: std::collections::HashSet<_> =
            select_queries(QueryStrategy::Entropy, &inputs(&f), &mut memo, &mut rng)
                .into_iter()
                .collect();
        let qm: std::collections::HashSet<_> =
            select_queries(QueryStrategy::Margin, &inputs(&f), &mut memo, &mut rng)
                .into_iter()
                .collect();
        assert_eq!(qe, qm);
    }

    #[test]
    fn random_is_seed_deterministic() {
        let f = fixture();
        let mut memo = MemoCache::new(false, 1e-6);
        let q1 = select_queries(
            QueryStrategy::Random,
            &inputs(&f),
            &mut memo,
            &mut Rng::seed_from_u64(7),
        );
        let q2 = select_queries(
            QueryStrategy::Random,
            &inputs(&f),
            &mut memo,
            &mut Rng::seed_from_u64(7),
        );
        assert_eq!(q1, q2);
    }

    #[test]
    fn cold_start_covers_clusters() {
        // Raw features in two far blobs: cold start must pick from both.
        let mut rows = Vec::new();
        for i in 0..10 {
            let c = if i < 5 { 0.0 } else { 50.0 };
            rows.push(vec![c + i as f64 * 0.1, 1.0]);
        }
        let x = Matrix::from_rows(&rows);
        let unlabeled: Vec<usize> = (0..10).collect();
        let mut rng = Rng::seed_from_u64(64);
        let q = cold_start_queries(&x, &unlabeled, 2, &mut rng);
        assert_eq!(q.len(), 2);
        let sides: std::collections::HashSet<bool> = q.iter().map(|&v| v < 5).collect();
        assert_eq!(sides.len(), 2, "cold start missed a cluster: {q:?}");
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(QueryStrategy::DiversifiedTypicality.label(), "GALE");
        assert_eq!(QueryStrategy::Random.label(), "GALE(-Ran.)");
    }
}
