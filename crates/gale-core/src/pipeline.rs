//! The GALE learning framework (Fig. 3): cold start, iterative query
//! selection, annotation, oracle consultation, and incremental adversarial
//! updates.
//!
//! One loop (`gale_loop`) serves both public entry points: [`run_gale`]
//! in memory and [`crate::run_gale_scale`] out of core. They differ only
//! in the `Stages` they hand it — how `X_R` and `X_S` are built, which
//! nodes are candidates, where labels come from, and whether there is a
//! validation fold — and in how many rows one evaluation forward covers.

use crate::annotate::{annotate, Annotation};
use crate::augment::{g_augment, AugmentConfig};
use crate::calibrate::calibrated_predictions;
use crate::label::{Example, ExamplePool, Label};
use crate::memo::MemoCache;
use crate::oracle::Oracle;
use crate::sgan::{Sgan, SganConfig};
use crate::strategies::{cold_start_queries, select_queries, QueryStrategy, SelectionInputs};
use crate::typicality::TypicalityContext;
use gale_data::DataSplit;
use gale_detect::{Constraint, DetectorLibrary, LibraryReport};
use gale_graph::{soft_labels, Graph, NodeId, PropagationConfig};
use gale_tensor::{Matrix, NeighborAccess, Rng, SparseMatrix};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Full configuration of a GALE run (Fig. 3's inputs plus model settings).
#[derive(Debug, Clone)]
pub struct GaleConfig {
    /// Local budget `k`: queries per iteration.
    pub local_budget: usize,
    /// Iteration count `T` (total queries ≤ `T · k` plus the cold start).
    pub iterations: usize,
    /// Sampling rate `η` for re-weighting old examples (Fig. 3 line 10).
    pub eta: f64,
    /// Diversity weight λ in the selection objective.
    pub lambda: f64,
    /// `k' = k_prime_factor · k` clusters for ClusterU (paper: k'≤3k).
    pub k_prime_factor: usize,
    /// Query-selection strategy (GALE or an ablation).
    pub strategy: QueryStrategy,
    /// Memoization switch (`false` = `U_GALE`).
    pub memoization: bool,
    /// Embedding-change tolerance for the memo dirty flags.
    pub memo_tolerance: f64,
    /// SGAN hyper-parameters.
    pub sgan: SganConfig,
    /// GAugment settings.
    pub augment: AugmentConfig,
    /// The PPR operator's settings, shared by typicality, the soft labels
    /// and annotation's PPR rows.
    pub propagation: PropagationConfig,
    /// Master seed.
    pub seed: u64,
    /// When set, the trained SGAN is checkpointed to `<dir>/final.ckpt` at
    /// the end of the run (the file served by `gale-serve`). The directory
    /// is created if missing; write failures are logged, not fatal.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Also write `<dir>/iter-NNN.ckpt` after every iteration's model
    /// update, for resuming or inspecting mid-run state. No effect unless
    /// `checkpoint_dir` is set.
    pub checkpoint_every_iteration: bool,
}

impl Default for GaleConfig {
    fn default() -> Self {
        GaleConfig {
            local_budget: 10,
            iterations: 7,
            eta: 0.5,
            lambda: 0.3,
            k_prime_factor: 2,
            strategy: QueryStrategy::DiversifiedTypicality,
            memoization: true,
            memo_tolerance: 0.3,
            sgan: SganConfig::default(),
            augment: AugmentConfig::default(),
            propagation: PropagationConfig::default(),
            seed: 0x9a1e,
            checkpoint_dir: None,
            checkpoint_every_iteration: false,
        }
    }
}

/// Writes `sgan` to `<checkpoint_dir>/<name>` when persistence is enabled.
/// Checkpointing is best-effort: a full disk or unwritable directory must
/// not abort a training run, so failures are logged and swallowed.
fn save_checkpoint(cfg: &GaleConfig, sgan: &Sgan, name: &str) {
    let Some(dir) = &cfg.checkpoint_dir else {
        return;
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        gale_obs::warn!("checkpoint dir {} not created: {e}", dir.display());
        return;
    }
    let path = dir.join(name);
    match sgan.save(&path) {
        Ok(()) => gale_obs::info!("checkpoint written: {}", path.display()),
        Err(e) => gale_obs::warn!("checkpoint write failed: {e}"),
    }
}

/// Per-iteration record for the learning-cost experiments (Fig. 7(d-f)).
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// Iteration index (0 = cold start).
    pub iteration: usize,
    /// Queries issued this iteration.
    pub queries: Vec<NodeId>,
    /// Example-pool size after absorbing the oracle's answers.
    pub pool_size: usize,
    /// Discriminator loss after the update.
    pub d_loss: f64,
    /// Generator loss after the update (0 on SGAND iterations, which leave
    /// the generator untouched).
    pub g_loss: f64,
    /// Wall-clock spent selecting queries (embeddings + typicality +
    /// clustering; excludes annotation).
    pub select_time: Duration,
    /// Wall-clock spent annotating the queries (soft-label propagation,
    /// detector reports, oracle consultation).
    pub annotate_time: Duration,
    /// Wall-clock spent updating the model.
    pub train_time: Duration,
    /// Fraction of embedding rows that changed beyond the memo tolerance
    /// since the previous iteration (1.0 on the first iteration).
    pub changed_fraction: f64,
}

/// Result of a GALE run.
pub struct GaleOutcome {
    /// Final label prediction for every node.
    pub predictions: Vec<Label>,
    /// Final `P(error)` score for every node.
    pub error_scores: Vec<f64>,
    /// The accumulated example pool `V_T`.
    pub pool: ExamplePool,
    /// Per-iteration records (index 0 is the cold start + full training).
    pub history: Vec<IterationRecord>,
    /// Total queries sent to the oracle.
    pub queries_issued: usize,
    /// Typicality-cache hit rate: the share of typicality lookups answered
    /// from the memo (0 when memoization is off or never reused state).
    pub memo_hit_rate: f64,
    /// Iterations whose typicality was re-scored from the cached selection
    /// state instead of recomputed (0 when memoization is off).
    pub typicality_reuses: u64,
    /// Annotations of the final iteration's queries (for inspection).
    pub last_annotations: Vec<Annotation>,
    /// Wall-clock spent building `X_R`, `X_S` and the loop's inputs before
    /// the cold start (GAugment and the library Ψ in memory).
    pub represent_time: Duration,
    /// Wall-clock spent scoring every node with the final model and
    /// calibrating its predictions.
    pub score_time: Duration,
    /// Total wall-clock. Representation, the iterations' select, annotate
    /// and train times, and scoring are disjoint parts of it.
    pub total_time: Duration,
}

impl GaleOutcome {
    /// The predicted error set restricted to a node population.
    pub fn predicted_errors(&self, population: &[NodeId]) -> HashSet<NodeId> {
        population
            .iter()
            .copied()
            .filter(|&v| self.predictions[v] == Label::Error)
            .collect()
    }

    /// `(node, score)` pairs over a population, for AUC-PR.
    pub fn scores_over(&self, population: &[NodeId]) -> Vec<(NodeId, f64)> {
        population
            .iter()
            .map(|&v| (v, self.error_scores[v]))
            .collect()
    }

    /// Sum of per-iteration selection times.
    pub fn total_select_time(&self) -> Duration {
        self.history.iter().map(|r| r.select_time).sum()
    }

    /// Sum of per-iteration annotation times (soft labels + detector
    /// reports + oracle).
    pub fn total_annotate_time(&self) -> Duration {
        self.history.iter().map(|r| r.annotate_time).sum()
    }

    /// Sum of per-iteration training times.
    pub fn total_train_time(&self) -> Duration {
        self.history.iter().map(|r| r.train_time).sum()
    }

    /// Structured run summary: one row per iteration plus run totals.
    /// Embedded in experiment result documents and rendered by the
    /// `report` subcommand of the experiments binary.
    pub fn run_report(&self) -> gale_obs::RunReport {
        use gale_obs::Value;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut rep = gale_obs::RunReport::new(
            "GALE run",
            &[
                "iter",
                "queries",
                "pool",
                "d_loss",
                "g_loss",
                "select_ms",
                "annotate_ms",
                "train_ms",
                "changed_frac",
            ],
        );
        for r in &self.history {
            rep.push_row(vec![
                Value::from(r.iteration),
                Value::from(r.queries.len()),
                Value::from(r.pool_size),
                Value::from(r.d_loss),
                Value::from(r.g_loss),
                Value::from(ms(r.select_time)),
                Value::from(ms(r.annotate_time)),
                Value::from(ms(r.train_time)),
                Value::from(r.changed_fraction),
            ]);
        }
        rep.total("iterations", self.history.len());
        rep.total("queries_issued", self.queries_issued);
        rep.total("memo_hit_rate", self.memo_hit_rate);
        rep.total("typicality_reuses", self.typicality_reuses);
        rep.total("total_represent_ms", ms(self.represent_time));
        rep.total("total_select_ms", ms(self.total_select_time()));
        rep.total("total_annotate_ms", ms(self.total_annotate_time()));
        rep.total("total_train_ms", ms(self.total_train_time()));
        rep.total("total_score_ms", ms(self.score_time));
        rep.total("total_ms", ms(self.total_time));
        // Process peak RSS (0 where procfs is unavailable); sampled at
        // report time, which upper-bounds the run since VmHWM only rises.
        rep.total("peak_rss_bytes", gale_obs::record_peak_rss() as f64);
        if gale_obs::enabled() {
            rep.total(
                "par_utilization",
                gale_obs::metrics::gauge("par.utilization").get(),
            );
            // Selection-kernel telemetry (DESIGN.md §6b.2): Lloyd iteration
            // count, distance evaluations skipped by the Hamerly bounds, and
            // mean qselect round time.
            rep.total(
                "kmeans_iters",
                gale_obs::metrics::counter("kmeans.iters").get() as f64,
            );
            rep.total(
                "kmeans_pruned",
                gale_obs::metrics::counter("kmeans.pruned").get() as f64,
            );
            rep.total(
                "select_round_us_mean",
                gale_obs::metrics::histogram(
                    "select.round_time",
                    gale_obs::metrics::buckets::TIME_US,
                )
                .snapshot()
                .mean(),
            );
        }
        rep
    }
}

/// Runs the GALE algorithm (Fig. 3).
///
/// * `g` — the (polluted) graph;
/// * `constraints` — the mined rule set Σ for the library Ψ;
/// * `split` — train/val/test folds; queries are drawn from `split.train`;
/// * `initial_examples` — pre-labeled examples seeding the pool (the paper
///   initializes GALE variants with 10% of the training examples `V_T`);
/// * `val_examples` — labeled validation examples for early stopping (may
///   be empty);
/// * `oracle` — the label source.
///
/// The loop's working set is dropped before this returns, and its pages
/// are handed back to the operating system
/// ([`gale_tensor::heap::release_free_pages`]), so the caller keeps
/// resident only what is still live.
pub fn run_gale(
    g: &Graph,
    constraints: &[Constraint],
    split: &DataSplit,
    initial_examples: &[Example],
    val_examples: &[Example],
    oracle: &mut dyn Oracle,
    cfg: &GaleConfig,
) -> GaleOutcome {
    let outcome = gale_loop(cfg, initial_examples, usize::MAX, |rng| {
        // GAugment: featurize and build X_R / X_S (Fig. 3 line 4).
        let aug = g_augment(g, constraints, &cfg.augment, rng);
        // Library Ψ and its report over G (static: the graph does not
        // change). The detector signals already ran it on G.
        let (lib, report) = aug.pipeline.into_detectors().unwrap_or_else(|| {
            let lib = DetectorLibrary::standard(constraints.to_vec());
            let report = lib.run(g);
            (lib, report)
        });
        let stages = InMemory {
            g,
            split,
            val_examples,
            oracle,
            lib,
            report,
            s_norm: aug.repr.s_norm,
            cfg,
        };
        (aug.repr.x, aug.x_s, stages)
    });
    gale_tensor::heap::release_free_pages();
    outcome
}

/// What differs between the in-memory and the out-of-core configuration
/// of the loop once `X_R` and `X_S` are built. [`gale_loop`] does the rest.
pub(crate) trait Stages {
    /// The symmetric-normalized operator typicality propagates over.
    fn operator(&self) -> &(dyn NeighborAccess + Sync);

    /// Candidate queries. `probs` holds the current 2-class probabilities,
    /// or is `None` at the cold start, before any model exists.
    fn candidates(&self, pool: &ExamplePool, probs: Option<&Matrix>, rng: &mut Rng) -> Vec<NodeId>;

    /// Labels for `queries`, plus their annotations where the configuration
    /// annotates. `labeled` is the pool before the queries join it (empty
    /// at the cold start).
    fn label(
        &mut self,
        queries: &[NodeId],
        labeled: &[(NodeId, Label)],
    ) -> (Vec<Label>, Vec<Annotation>);

    /// The validation fold for early stopping and calibration.
    fn val_examples(&self) -> &[Example];
}

/// [`run_gale`]'s stages: candidates are the unlabeled training nodes in
/// split order, and each query is annotated with detector evidence
/// (Section VI) before the oracle answers it.
struct InMemory<'a> {
    g: &'a Graph,
    split: &'a DataSplit,
    val_examples: &'a [Example],
    oracle: &'a mut dyn Oracle,
    lib: DetectorLibrary,
    report: LibraryReport,
    s_norm: SparseMatrix,
    cfg: &'a GaleConfig,
}

impl Stages for InMemory<'_> {
    fn operator(&self) -> &(dyn NeighborAccess + Sync) {
        &self.s_norm
    }

    fn candidates(&self, pool: &ExamplePool, _: Option<&Matrix>, _: &mut Rng) -> Vec<NodeId> {
        self.split
            .train
            .iter()
            .copied()
            .filter(|&v| !pool.contains(v))
            .collect()
    }

    fn label(
        &mut self,
        queries: &[NodeId],
        labeled: &[(NodeId, Label)],
    ) -> (Vec<Label>, Vec<Annotation>) {
        // Soft labels for annotation (one propagation per iteration).
        let mut y0 = Matrix::zeros(self.g.node_count(), 2);
        for &(node, label) in labeled {
            y0[(node, label.class_index())] = 1.0;
        }
        let (_, classes) = soft_labels(&self.s_norm, &y0, &self.cfg.propagation);
        let soft: Vec<Option<Label>> = classes
            .iter()
            .map(|&c| (c <= 1).then(|| Label::from_class_index(c)))
            .collect();
        let anns = annotate(
            queries,
            self.g,
            &self.lib,
            &self.report,
            &self.s_norm,
            labeled,
            &soft,
            &self.cfg.propagation,
        );
        (self.oracle.label_batch(&anns), anns)
    }

    fn val_examples(&self) -> &[Example] {
        self.val_examples
    }
}

/// The GALE loop (Fig. 3) for either configuration: `represent` builds
/// `X_R`, `X_S` and the configuration's [`Stages`] from the loop's RNG;
/// `eval_chunk` caps the rows of one evaluation forward.
pub(crate) fn gale_loop<S: Stages>(
    cfg: &GaleConfig,
    initial_examples: &[Example],
    eval_chunk: usize,
    represent: impl FnOnce(&mut Rng) -> (Matrix, Matrix, S),
) -> GaleOutcome {
    let run_span = gale_obs::span!(
        "gale.run",
        iterations = cfg.iterations,
        local_budget = cfg.local_budget,
        seed = cfg.seed,
    );
    let started = Instant::now();
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let represent_span = gale_obs::span!("gale.represent");
    let (x_r, x_s, mut stages) = represent(&mut rng);
    let represent_time = represent_span.finish();

    let mut pool = ExamplePool::new();
    pool.extend(initial_examples.iter().copied());
    let mut memo = MemoCache::new(cfg.memoization, cfg.memo_tolerance);
    let val_targets = ExamplePool::targets(stages.val_examples());
    let mut sgan: Option<Sgan> = None;
    // The evaluation pass rewrites the probabilities and the embedding tap
    // every iteration; keep both buffers alive across the loop.
    let (mut probs, mut h) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let mut history = Vec::new();
    let mut queries_issued = 0;
    let mut last_annotations = Vec::new();
    for iter in 0..cfg.iterations.max(1) {
        let iter_span = gale_obs::span!("gale.iteration", iter = iter);
        let select_span = gale_obs::span!("gale.select", iter = iter);
        let (queries, labeled) = match sgan.as_mut() {
            // Cold start (Fig. 3 lines 2-6): no model yet, so sample by
            // clustering the raw representation.
            None => {
                let candidates = stages.candidates(&pool, None, &mut rng);
                let q0 = cold_start_queries(&x_r, &candidates, cfg.local_budget, &mut rng);
                (q0, Vec::new())
            }
            // Iterative improvement (Fig. 3 lines 7-13).
            Some(model) => {
                model.eval_into(&x_r, eval_chunk, &mut probs, &mut h);
                memo.update_embeddings(&h);
                let candidates = stages.candidates(&pool, Some(&probs), &mut rng);
                if candidates.is_empty() {
                    let _ = select_span.finish();
                    let _ = iter_span.finish();
                    break;
                }
                let predicted: Vec<Label> = (0..probs.rows())
                    .map(|v| {
                        if probs[(v, 0)] > probs[(v, 1)] {
                            Label::Error
                        } else {
                            Label::Correct
                        }
                    })
                    .collect();
                let labeled: Vec<(NodeId, Label)> =
                    pool.examples().map(|e| (e.node, e.label)).collect();
                let inputs = SelectionInputs {
                    ctx: TypicalityContext {
                        embeddings: &h,
                        s_norm: stages.operator(),
                        predicted: &predicted,
                        labeled: &labeled,
                        propagation: cfg.propagation,
                    },
                    class_probs: &probs,
                    unlabeled: &candidates,
                    k: cfg.local_budget,
                    lambda: cfg.lambda,
                    k_prime_factor: cfg.k_prime_factor,
                };
                let q_i = select_queries(cfg.strategy, &inputs, &mut memo, &mut rng);
                (q_i, labeled)
            }
        };
        let select_time = select_span.finish();

        let annotate_span = gale_obs::span!("gale.annotate", iter = iter);
        let (labels, annotations) = stages.label(&queries, &labeled);
        gale_obs::counter_add!("gale.oracle.queries", queries.len() as u64);
        queries_issued += queries.len();
        // V_T^i = sample(V_T, η) ∪ O(Q̃^i) (Fig. 3 line 10).
        let mut v_t_i: Vec<Example> = if iter == 0 {
            Vec::new()
        } else {
            pool.sample(cfg.eta, &mut rng)
        };
        for (&node, &label) in queries.iter().zip(&labels) {
            pool.insert(node, label);
            v_t_i.push(Example { node, label });
        }
        let annotate_time = annotate_span.finish();

        let train_span = gale_obs::span!("gale.train", iter = iter);
        let model = sgan.get_or_insert_with(|| Sgan::new(x_r.cols(), &cfg.sgan, &mut rng));
        let stats = if iter == 0 {
            // Full adversarial training (SGAN) on every example so far.
            let targets = ExamplePool::targets(&pool.examples().collect::<Vec<_>>());
            model.train(&x_r, &x_s, &targets, &val_targets, &mut rng)
        } else {
            // Incremental discriminator refresh (SGAND).
            model.update_discriminator(&x_r, &x_s, &ExamplePool::targets(&v_t_i), &mut rng)
        };
        let train_time = train_span.finish();
        if cfg.checkpoint_every_iteration {
            save_checkpoint(cfg, model, &format!("iter-{iter:03}.ckpt"));
        }
        gale_obs::counter_add!("gale.iterations", 1);
        history.push(IterationRecord {
            iteration: iter,
            queries,
            pool_size: pool.len(),
            d_loss: stats.d_loss,
            g_loss: stats.g_loss,
            select_time,
            annotate_time,
            train_time,
            changed_fraction: memo.last_changed_fraction,
        });
        let _ = iter_span.finish();
        last_annotations = annotations;
    }

    let mut sgan = sgan.expect("iteration 0 trains the model");
    // Persist the final model for serving / resume before scoring it.
    save_checkpoint(cfg, &sgan, "final.ckpt");
    // Final classifier M output, prevalence-calibrated against the
    // validation fold when one is available (argmax otherwise).
    let score_span = gale_obs::span!("gale.score");
    sgan.eval_into(&x_r, eval_chunk, &mut probs, &mut h);
    let error_scores: Vec<f64> = (0..probs.rows()).map(|v| probs[(v, 0)]).collect();
    let predictions = calibrated_predictions(&error_scores, stages.val_examples());
    let score_time = score_span.finish();

    let outcome = GaleOutcome {
        predictions,
        error_scores,
        pool,
        history,
        queries_issued,
        memo_hit_rate: memo.hit_rate(),
        typicality_reuses: memo.typicality_reuses,
        last_annotations,
        represent_time,
        score_time,
        total_time: started.elapsed(),
    };
    let _ = run_span
        .field("queries_issued", outcome.queries_issued)
        .field("memo_hit_rate", outcome.memo_hit_rate)
        .finish();
    if gale_obs::enabled() {
        gale_obs::event!("gale.run_report", report = outcome.run_report().to_json());
        gale_obs::trace::flush();
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Prf;
    use crate::oracle::GroundTruthOracle;
    use gale_data::{prepare, DatasetId};
    use gale_detect::ErrorGenConfig;
    use gale_nn::GaeConfig;

    pub(crate) fn quick_cfg(seed: u64) -> GaleConfig {
        GaleConfig {
            local_budget: 8,
            iterations: 4,
            sgan: SganConfig {
                d_hidden: vec![24, 12],
                g_hidden: vec![24],
                epochs: 100,
                incremental_epochs: 8,
                batch_unsup: 128,
                early_stop_patience: 0,
                ..Default::default()
            },
            augment: AugmentConfig {
                feat: gale_data::FeaturizeConfig {
                    gae: GaeConfig {
                        epochs: 10,
                        ..gale_data::FeaturizeConfig::default().gae
                    },
                    ..Default::default()
                },
                ..Default::default()
            },
            seed,
            ..Default::default()
        }
    }

    fn run_once(strategy: QueryStrategy, seed: u64) -> (Prf, GaleOutcome, Vec<NodeId>) {
        let d = prepare(
            DatasetId::MachineLearning,
            0.15,
            &ErrorGenConfig {
                node_error_rate: 0.12,
                ..Default::default()
            },
            seed,
        );
        let mut rng = Rng::seed_from_u64(seed + 1);
        let split = DataSplit::paper_default(d.graph.node_count(), &mut rng);
        let val: Vec<Example> = split
            .val
            .iter()
            .map(|&v| Example {
                node: v,
                label: if d.truth.is_erroneous(v) {
                    Label::Error
                } else {
                    Label::Correct
                },
            })
            .collect();
        let mut oracle = GroundTruthOracle::new(&d.truth);
        let cfg = GaleConfig {
            strategy,
            ..quick_cfg(seed)
        };
        let outcome = run_gale(
            &d.graph,
            &d.constraints,
            &split,
            &[],
            &val,
            &mut oracle,
            &cfg,
        );
        let truth_set: HashSet<NodeId> = split
            .test
            .iter()
            .copied()
            .filter(|&v| d.truth.is_erroneous(v))
            .collect();
        let prf = Prf::from_sets(&outcome.predicted_errors(&split.test), &truth_set);
        (prf, outcome, split.test.clone())
    }

    #[test]
    fn gale_beats_chance_on_small_dataset() {
        let (prf, outcome, _) = run_once(QueryStrategy::DiversifiedTypicality, 11);
        // Error rate is 12%: guessing "error" for everything yields F1
        // ~0.21 and random subsets less; the (deliberately tiny) smoke
        // configuration must still clearly beat chance-level precision.
        assert!(
            prf.f1 > 0.2 && prf.precision > 0.15,
            "F1 {:.3} (P {:.3} R {:.3})",
            prf.f1,
            prf.precision,
            prf.recall
        );
        assert!(outcome.queries_issued <= 8 * 4);
        assert_eq!(outcome.history.len(), 4);
    }

    #[test]
    fn pool_grows_each_iteration() {
        let (_, outcome, _) = run_once(QueryStrategy::Random, 13);
        for w in outcome.history.windows(2) {
            assert!(w[1].pool_size >= w[0].pool_size);
        }
        assert_eq!(
            outcome.pool.len(),
            outcome.history.last().unwrap().pool_size
        );
    }

    #[test]
    fn memoization_does_not_change_results_materially() {
        let d = prepare(
            DatasetId::MachineLearning,
            0.06,
            &ErrorGenConfig {
                node_error_rate: 0.12,
                ..Default::default()
            },
            17,
        );
        let mut rng = Rng::seed_from_u64(18);
        let split = DataSplit::paper_default(d.graph.node_count(), &mut rng);
        let run = |memoization: bool| {
            let mut oracle = GroundTruthOracle::new(&d.truth);
            let cfg = GaleConfig {
                memoization,
                ..quick_cfg(17)
            };
            run_gale(
                &d.graph,
                &d.constraints,
                &split,
                &[],
                &[],
                &mut oracle,
                &cfg,
            )
        };
        let with = run(true);
        let without = run(false);
        // Identical seeds and a tolerance-gated cache: same queries.
        let q_with: Vec<_> = with.history.iter().map(|r| r.queries.clone()).collect();
        let q_without: Vec<_> = without.history.iter().map(|r| r.queries.clone()).collect();
        assert_eq!(q_with[0], q_without[0], "cold start diverged");
        assert!(with.memo_hit_rate >= 0.0);
        assert_eq!(without.memo_hit_rate, 0.0);
    }

    #[test]
    fn outcome_accessors_consistent() {
        let (_, outcome, test_nodes) = run_once(QueryStrategy::KMeansCentroid, 19);
        let errs = outcome.predicted_errors(&test_nodes);
        let scores = outcome.scores_over(&test_nodes);
        assert_eq!(scores.len(), test_nodes.len());
        for (v, s) in &scores {
            assert!((0.0..=1.0).contains(s));
            if errs.contains(v) {
                assert!(*s >= 0.5 - 1e-9, "predicted error with score {s}");
            }
        }
        assert!(outcome.total_select_time() <= outcome.total_time);
    }

    #[test]
    fn run_persists_loadable_checkpoints() {
        let d = prepare(
            DatasetId::MachineLearning,
            0.08,
            &ErrorGenConfig {
                node_error_rate: 0.12,
                ..Default::default()
            },
            29,
        );
        let mut rng = Rng::seed_from_u64(30);
        let split = DataSplit::paper_default(d.graph.node_count(), &mut rng);
        let mut oracle = GroundTruthOracle::new(&d.truth);
        let dir = std::env::temp_dir().join("gale_pipeline_ckpt_test");
        std::fs::remove_dir_all(&dir).ok();
        let cfg = GaleConfig {
            iterations: 2,
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every_iteration: true,
            ..quick_cfg(29)
        };
        let _ = run_gale(
            &d.graph,
            &d.constraints,
            &split,
            &[],
            &[],
            &mut oracle,
            &cfg,
        );
        for name in ["final.ckpt", "iter-000.ckpt", "iter-001.ckpt"] {
            let restored = Sgan::load(dir.join(name)).expect(name);
            assert!(restored.input_dim() > 0, "{name} lost the input width");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn annotations_surface_for_last_batch() {
        let (_, outcome, _) = run_once(QueryStrategy::DiversifiedTypicality, 23);
        assert!(!outcome.last_annotations.is_empty());
        let last_iter = outcome.history.last().unwrap();
        assert_eq!(outcome.last_annotations.len(), last_iter.queries.len());
    }

    #[test]
    fn booked_stages_add_up_to_the_run() {
        let (_, outcome, _) = run_once(QueryStrategy::DiversifiedTypicality, 37);
        let booked = outcome.represent_time
            + outcome.total_select_time()
            + outcome.total_annotate_time()
            + outcome.total_train_time()
            + outcome.score_time;
        assert!(
            booked <= outcome.total_time,
            "{booked:?} > {:?}",
            outcome.total_time
        );
        assert!(
            booked.as_secs_f64() >= 0.95 * outcome.total_time.as_secs_f64(),
            "{booked:?} of {:?}",
            outcome.total_time
        );
    }

    /// Pins the bits of one small run's scores with early stopping on (a
    /// validation fold and a patience that stops the cold start at epoch
    /// 56) and detector signals on, so a change to how the loop reaches
    /// them, such as the library's report or the early-stopping forward,
    /// shows up without a parent build.
    #[test]
    fn early_stopped_run_scores_are_pinned() {
        let d = prepare(
            DatasetId::MachineLearning,
            0.06,
            &ErrorGenConfig {
                node_error_rate: 0.12,
                ..Default::default()
            },
            31,
        );
        let mut rng = Rng::seed_from_u64(32);
        let split = DataSplit::paper_default(d.graph.node_count(), &mut rng);
        let val: Vec<Example> = split
            .val
            .iter()
            .map(|&v| Example {
                node: v,
                label: if d.truth.is_erroneous(v) {
                    Label::Error
                } else {
                    Label::Correct
                },
            })
            .collect();
        assert!(!val.is_empty());
        let mut cfg = quick_cfg(31);
        cfg.iterations = 2;
        cfg.sgan.d_lr = 1e-2;
        cfg.sgan.early_stop_patience = 3;
        assert!(cfg.augment.feat.detector_signals);
        let mut oracle = GroundTruthOracle::new(&d.truth);
        let outcome = run_gale(
            &d.graph,
            &d.constraints,
            &split,
            &[],
            &val,
            &mut oracle,
            &cfg,
        );
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in &outcome.error_scores {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, 0xa9cd_da36_f85d_c4de, "{h:#018x}");
    }
}
