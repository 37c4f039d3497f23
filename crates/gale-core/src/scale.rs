//! Million-node GALE: the out-of-core configuration of the GALE loop.
//!
//! [`run_gale_scale`] runs [`crate::run_gale`]'s loop (cold start → select
//! → annotate → train → final scoring) over any adjacency exposing
//! [`NeighborAccess`] + [`EdgeSample`] — an in-memory
//! [`gale_tensor::SparseMatrix`] or a memory-mapped `gale_graph::CsrStore`
//! — without ever materializing the normalized operator or a full-graph
//! activation set. Four stages differ from the in-memory configuration:
//!
//! * **Representation**: neighbor-sampled mini-batch GAE
//!   ([`Gae::train_sampled`]) over the on-the-fly [`SymNormalized`]
//!   operator, with full-graph inference streamed through the access
//!   kernels; `X_R = [X | Z]`, column-standardized. Noise-perturbed real
//!   encodings stand in for GAugment's constraint-mined synthetic
//!   encodings (synthetic graphs carry no constraint library).
//! * **Candidates**: a bounded slate — a uniform sample at the cold start,
//!   then the `candidate_pool` most uncertain unlabeled nodes — so the
//!   k-means and qselect cost does not grow with `n`.
//! * **Labels**: read from the truth mask; there is no detector-report
//!   annotation stage.
//! * **Validation fold**: none, so SGAN training never forwards the whole
//!   graph per epoch, and final predictions are the argmax.
//!
//! The shared loop evaluates the SGAN `eval_chunk` rows at a time, so the
//! activation memory is `O(chunk)`, not `O(n)`, and typicality's PPR
//! smoothings run over the same [`SymNormalized`] operator. Memoization is
//! off: the slate changes every iteration, so a cache would only add an
//! `O(n)` map. DESIGN.md's scale section documents the substitutions.
//!
//! Everything downstream of the RNG is deterministic in `(cfg.seed,
//! thread count)`: the sampler, the access kernels, and qselect all carry
//! bitwise thread-invariance contracts.

use crate::annotate::Annotation;
use crate::label::{Example, ExamplePool, Label};
use crate::metrics::Prf;
use crate::pipeline::{gale_loop, GaleConfig, Stages};
use crate::sgan::SganConfig;
use gale_graph::{NodeId, PropagationConfig};
use gale_nn::{Gae, GaeConfig, MiniBatchConfig};
use gale_tensor::{EdgeSample, Matrix, NeighborAccess, Rng, SymNormalized};
use std::collections::HashSet;
use std::time::Duration;

/// Configuration of the out-of-core GALE loop.
#[derive(Debug, Clone)]
pub struct ScaleGaleConfig {
    /// GAE (representation) hyper-parameters.
    pub gae: GaeConfig,
    /// Mini-batch sampling schedule for GAE training.
    pub minibatch: MiniBatchConfig,
    /// SGAN hyper-parameters.
    pub sgan: SganConfig,
    /// Queries per iteration (`k`).
    pub local_budget: usize,
    /// Iteration count `T` (iteration 0 is the cold start).
    pub iterations: usize,
    /// Re-sampling rate η for old examples in incremental updates.
    pub eta: f64,
    /// Diversity weight λ in the selection objective.
    pub lambda: f64,
    /// `k' = k_prime_factor · k` clusters for clusT.
    pub k_prime_factor: usize,
    /// Candidate slate size: selection considers only this many unlabeled
    /// nodes per iteration (the most uncertain ones), bounding the k-means
    /// and qselect cost independently of `n`.
    pub candidate_pool: usize,
    /// Rows per chunk in full-graph SGAN evaluation.
    pub eval_chunk: usize,
    /// Rows of the synthetic block `X_S` (noise-perturbed real encodings).
    pub synthetic_rows: usize,
    /// PPR settings for topological typicality.
    pub propagation: PropagationConfig,
    /// Master seed.
    pub seed: u64,
}

impl Default for ScaleGaleConfig {
    fn default() -> Self {
        ScaleGaleConfig {
            gae: GaeConfig::default(),
            minibatch: MiniBatchConfig::default(),
            sgan: SganConfig::default(),
            local_budget: 10,
            iterations: 5,
            eta: 0.5,
            lambda: 0.3,
            k_prime_factor: 2,
            candidate_pool: 4096,
            eval_chunk: 8192,
            synthetic_rows: 2048,
            propagation: PropagationConfig::default(),
            seed: 0x5ca1e,
        }
    }
}

/// Result of an out-of-core GALE run.
pub struct ScaleOutcome {
    /// Final `P(error)` per node.
    pub error_scores: Vec<f64>,
    /// Thresholded predictions per node.
    pub predictions: Vec<Label>,
    /// The accumulated example pool.
    pub pool: ExamplePool,
    /// Total queries sent to the oracle.
    pub queries_issued: usize,
    /// Wall-clock in model training (GAE + SGAN + incremental updates).
    pub train_time: Duration,
    /// Wall-clock in query selection (chunked eval + typicality + qselect).
    pub select_time: Duration,
    /// Wall-clock consulting the oracle.
    pub annotate_time: Duration,
    /// Total wall-clock.
    pub total_time: Duration,
    /// Process peak RSS sampled at the end of the run (0 off-Linux).
    pub peak_rss_bytes: u64,
}

impl ScaleOutcome {
    /// Precision/recall/F1 of the thresholded predictions against a
    /// per-node ground-truth error mask.
    pub fn prf_against(&self, truth: &[bool]) -> Prf {
        let predicted: HashSet<NodeId> = self
            .predictions
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == Label::Error)
            .map(|(v, _)| v)
            .collect();
        let actual: HashSet<NodeId> = truth
            .iter()
            .enumerate()
            .filter(|(_, &e)| e)
            .map(|(v, _)| v)
            .collect();
        Prf::from_sets(&predicted, &actual)
    }
}

/// `[x | z]` with every column standardized to zero mean / unit variance
/// (columns with no spread pass through centered only). Fit-and-apply in
/// one step via [`crate::ColumnStandardizer`], which the streaming engine
/// also uses with a *frozen* fit.
fn standardized_concat(x: &Matrix, z: &Matrix) -> Matrix {
    assert_eq!(x.rows(), z.rows(), "standardized_concat: row mismatch");
    let n = x.rows();
    let (dx, dz) = (x.cols(), z.cols());
    let mut out = Matrix::zeros(n, dx + dz);
    for r in 0..n {
        let row = out.row_mut(r);
        row[..dx].copy_from_slice(x.row(r));
        row[dx..].copy_from_slice(z.row(r));
    }
    let st = crate::ColumnStandardizer::fit(&out);
    st.apply(&mut out);
    out
}

/// The `cap` unlabeled nodes whose `P(error)` (column 0 of `probs`) sits
/// closest to the decision boundary, in ascending (uncertainty, node id)
/// order — a deterministic slate for selection.
fn most_uncertain_unlabeled(probs: &Matrix, pool: &ExamplePool, cap: usize) -> Vec<usize> {
    let mut keyed: Vec<(f64, usize)> = (0..probs.rows())
        .filter(|&v| !pool.contains(v))
        .map(|v| ((probs[(v, 0)] - 0.5).abs(), v))
        .collect();
    let cap = cap.min(keyed.len());
    if cap == 0 {
        return Vec::new();
    }
    let cmp = |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    if keyed.len() > cap {
        keyed.select_nth_unstable_by(cap - 1, cmp);
        keyed.truncate(cap);
    }
    keyed.sort_unstable_by(cmp);
    keyed.into_iter().map(|(_, v)| v).collect()
}

/// [`run_gale_scale`]'s stages (see the module docs).
struct OutOfCore<'a, A: NeighborAccess + ?Sized> {
    s: SymNormalized<'a, A>,
    truth: &'a [bool],
    candidate_pool: usize,
}

impl<A: NeighborAccess + Sync + ?Sized> Stages for OutOfCore<'_, A> {
    fn operator(&self) -> &(dyn NeighborAccess + Sync) {
        &self.s
    }

    fn candidates(&self, pool: &ExamplePool, probs: Option<&Matrix>, rng: &mut Rng) -> Vec<NodeId> {
        match probs {
            Some(probs) => most_uncertain_unlabeled(probs, pool, self.candidate_pool),
            // Cold start: a uniform slate, in node order.
            None => {
                let n = self.truth.len();
                let mut slate = rng.sample_indices(n, self.candidate_pool.min(n));
                slate.sort_unstable();
                slate
            }
        }
    }

    fn label(
        &mut self,
        queries: &[NodeId],
        _: &[(NodeId, Label)],
    ) -> (Vec<Label>, Vec<Annotation>) {
        let labels = queries
            .iter()
            .map(|&v| {
                if self.truth[v] {
                    Label::Error
                } else {
                    Label::Correct
                }
            })
            .collect();
        (labels, Vec::new())
    }

    fn val_examples(&self) -> &[Example] {
        &[]
    }
}

/// Runs the out-of-core GALE loop against a ground-truth oracle.
///
/// * `adj` — adjacency access (mmap store or in-memory CSR);
/// * `x` — node features (`n × d`, resident: `O(n·d)` is the accepted
///   dense floor of the scale path);
/// * `truth` — per-node error mask; the oracle answers from it and the
///   final scores are evaluated against it by the caller.
///
/// As with [`crate::run_gale`], the loop's freed pages are handed back to
/// the operating system before this returns.
pub fn run_gale_scale<A>(adj: &A, x: &Matrix, truth: &[bool], cfg: &ScaleGaleConfig) -> ScaleOutcome
where
    A: NeighborAccess + EdgeSample + Sync + ?Sized,
{
    let n = adj.node_count();
    assert_eq!(x.rows(), n, "run_gale_scale: feature/node mismatch");
    assert_eq!(truth.len(), n, "run_gale_scale: truth/node mismatch");
    assert!(cfg.local_budget > 0, "run_gale_scale: zero budget");
    assert!(cfg.iterations > 0, "run_gale_scale: zero iterations");
    let loop_cfg = GaleConfig {
        local_budget: cfg.local_budget,
        iterations: cfg.iterations,
        eta: cfg.eta,
        lambda: cfg.lambda,
        k_prime_factor: cfg.k_prime_factor,
        memoization: false,
        sgan: cfg.sgan.clone(),
        propagation: cfg.propagation,
        seed: cfg.seed,
        ..GaleConfig::default()
    };
    let outcome = gale_loop(&loop_cfg, &[], cfg.eval_chunk, |rng| {
        let s = SymNormalized::new(adj);
        let mut gae = Gae::train_sampled(x, adj, &s, &cfg.gae, &cfg.minibatch, rng);
        let mut z = Matrix::zeros(0, 0);
        gae.embed(&s, x, &mut z);
        drop(gae);
        let x_r = standardized_concat(x, &z);
        drop(z);
        // X_S: noise-perturbed real encodings stand in for GAugment's
        // constraint-synthesized errors (see module docs).
        let mut x_s = Matrix::zeros(cfg.synthetic_rows.min(n), x_r.cols());
        for r in 0..x_s.rows() {
            let src = rng.below(n);
            for c in 0..x_r.cols() {
                x_s[(r, c)] = x_r[(src, c)] + rng.gauss();
            }
        }
        let stages = OutOfCore {
            s,
            truth,
            candidate_pool: cfg.candidate_pool,
        };
        (x_r, x_s, stages)
    });
    gale_tensor::heap::release_free_pages();
    ScaleOutcome {
        train_time: outcome.represent_time + outcome.total_train_time(),
        select_time: outcome.total_select_time(),
        annotate_time: outcome.total_annotate_time(),
        total_time: outcome.total_time,
        error_scores: outcome.error_scores,
        predictions: outcome.predictions,
        pool: outcome.pool,
        queries_issued: outcome.queries_issued,
        peak_rss_bytes: gale_obs::record_peak_rss(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gale_tensor::SparseMatrix;

    /// Small planted-error instance mirroring the scale generator: two
    /// feature communities, errors carry the other community's features.
    fn planted(n: usize, seed: u64) -> (SparseMatrix, Matrix, Vec<bool>) {
        let mut rng = Rng::seed_from_u64(seed);
        let dim = 6;
        let mut triplets = Vec::new();
        for v in 0..n {
            for _ in 0..4 {
                let u = if rng.chance(0.85) {
                    // Intra-community: same parity.
                    let c = rng.below(n / 2);
                    (c * 2 + (v % 2)) % n
                } else {
                    rng.below(n)
                };
                if u != v {
                    triplets.push((v, u, 1.0));
                    triplets.push((u, v, 1.0));
                }
            }
        }
        let a = SparseMatrix::from_triplets(n, n, triplets);
        let mut truth = vec![false; n];
        let mut x = Matrix::zeros(n, dim);
        for v in 0..n {
            let own = if v % 2 == 0 { -2.0 } else { 2.0 };
            let err = rng.chance(0.1);
            truth[v] = err;
            let center = if err { -own } else { own };
            for d in 0..dim {
                x[(v, d)] = center + rng.gauss() * 0.5;
            }
        }
        (a, x, truth)
    }

    fn quick_cfg(seed: u64) -> ScaleGaleConfig {
        ScaleGaleConfig {
            gae: GaeConfig {
                hidden_dim: 12,
                embed_dim: 6,
                epochs: 6,
                ..Default::default()
            },
            minibatch: MiniBatchConfig {
                fanouts: vec![4, 4],
                edge_batch: 64,
                batches_per_epoch: 4,
                seed,
            },
            sgan: SganConfig {
                d_hidden: vec![16, 8],
                g_hidden: vec![16],
                epochs: 60,
                incremental_epochs: 6,
                batch_unsup: 64,
                early_stop_patience: 0,
                ..Default::default()
            },
            local_budget: 8,
            iterations: 3,
            candidate_pool: 96,
            eval_chunk: 37,
            synthetic_rows: 64,
            propagation: PropagationConfig {
                iterations: 10,
                ..Default::default()
            },
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn scale_loop_runs_and_beats_chance() {
        let (a, x, truth) = planted(240, 5);
        let out = run_gale_scale(&a, &x, &truth, &quick_cfg(5));
        assert_eq!(out.error_scores.len(), 240);
        assert_eq!(out.predictions.len(), 240);
        assert!(out.queries_issued <= 8 * 3);
        assert_eq!(out.pool.len(), out.queries_issued);
        let prf = out.prf_against(&truth);
        // ~10% planted error rate: all-error guessing gives F1 ≈ 0.18.
        assert!(
            prf.f1 > 0.3,
            "F1 {:.3} (P {:.3} R {:.3})",
            prf.f1,
            prf.precision,
            prf.recall
        );
    }

    #[test]
    fn scale_loop_is_deterministic() {
        let (a, x, truth) = planted(150, 9);
        let cfg = quick_cfg(9);
        let s1 = run_gale_scale(&a, &x, &truth, &cfg);
        let s2 = run_gale_scale(&a, &x, &truth, &cfg);
        assert_eq!(s1.queries_issued, s2.queries_issued);
        let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&s1.error_scores), bits(&s2.error_scores));
        assert_eq!(s1.predictions, s2.predictions);
    }

    #[test]
    fn uncertainty_slate_is_deterministic_and_bounded() {
        let scores = [0.9, 0.5, 0.1, 0.52, 0.48, 0.5];
        let probs = Matrix::from_fn(
            6,
            2,
            |v, c| if c == 0 { scores[v] } else { 1.0 - scores[v] },
        );
        let mut pool = ExamplePool::new();
        pool.insert(4, Label::Correct);
        let slate = most_uncertain_unlabeled(&probs, &pool, 3);
        // |p-0.5|: node 1 and 5 tie at 0 (id order), then 3 at 0.02.
        assert_eq!(slate, vec![1, 5, 3]);
        assert!(most_uncertain_unlabeled(&probs, &pool, 0).is_empty());
    }

    #[test]
    fn standardized_concat_centers_columns() {
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 10.0]]);
        let z = Matrix::from_rows(&[vec![-5.0], vec![5.0]]);
        let out = standardized_concat(&x, &z);
        assert_eq!(out.shape(), (2, 3));
        for c in [0usize, 2] {
            let mean: f64 = (0..2).map(|r| out[(r, c)]).sum::<f64>() / 2.0;
            assert!(mean.abs() < 1e-12);
            let var: f64 = (0..2).map(|r| out[(r, c)] * out[(r, c)]).sum::<f64>() / 2.0;
            assert!((var - 1.0).abs() < 1e-9, "col {c} var {var}");
        }
        // Constant column: centered only.
        assert_eq!(out[(0, 1)], 0.0);
        assert_eq!(out[(1, 1)], 0.0);
    }
}
