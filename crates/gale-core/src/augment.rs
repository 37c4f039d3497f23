//! GAugment (Section III): graph augmentation producing the real encodings
//! `X_R` and synthetic-error encodings `X_S`.
//!
//! The procedure (1) injects synthetic errors into a clone of `G` using the
//! detector library's error taxonomy, and (2) encodes both graphs with the
//! *same* fitted featurization pipeline, so real and synthetic rows live in
//! one embedding space for the adversarial game.

use gale_data::{FeaturePipeline, FeaturizeConfig};
use gale_detect::{inject_errors, Constraint, ErrorGenConfig};
use gale_graph::{FeatureRepr, Graph};
use gale_tensor::{Matrix, Rng};

/// GAugment settings.
#[derive(Debug, Clone)]
pub struct AugmentConfig {
    /// Featurization pipeline settings.
    pub feat: FeaturizeConfig,
    /// Fraction of nodes polluted in the synthetic clone.
    pub synthetic_rate: f64,
    /// Error-kind mix for the synthetic pollution (detectable by design:
    /// the generator learns the artifact distribution).
    pub kind_weights: [f64; 3],
}

impl Default for AugmentConfig {
    fn default() -> Self {
        AugmentConfig {
            feat: FeaturizeConfig::default(),
            synthetic_rate: 0.15,
            kind_weights: [1.0, 1.0, 1.0],
        }
    }
}

/// The augmentation product.
pub struct Augmented {
    /// Feature representation of the real graph (`X_R` = `repr.x`).
    pub repr: FeatureRepr,
    /// Synthetic-error encodings `X_S` (rows = polluted nodes of the clone).
    pub x_s: Matrix,
    /// The fitted pipeline (kept for re-encoding needs).
    pub pipeline: FeaturePipeline,
}

/// Runs GAugment: fit the pipeline on `g`, pollute a clone, and take the
/// polluted nodes' rows as `X_S`.
pub fn g_augment(
    g: &Graph,
    constraints: &[Constraint],
    cfg: &AugmentConfig,
    rng: &mut Rng,
) -> Augmented {
    let (mut pipeline, repr) = FeaturePipeline::fit(g, constraints, &cfg.feat, rng);
    let mut clone = g.clone();
    let truth = inject_errors(
        &mut clone,
        constraints,
        &ErrorGenConfig {
            node_error_rate: cfg.synthetic_rate,
            attr_error_rate: 0.5,
            detectable_rate: 1.0,
            kind_weights: cfg.kind_weights,
        },
        rng,
    );
    let encoded = pipeline.transform(&clone, &repr.s_norm);
    let mut polluted: Vec<usize> = truth.erroneous_nodes().iter().copied().collect();
    polluted.sort_unstable();
    let mut x_s = encoded.select_rows(&polluted);
    // Column standardization (fitted on X_R, applied to both) keeps every
    // feature block on one scale — essential for the few-shot regime where
    // high-variance embedding columns would otherwise drown the diagnostic
    // scalars.
    let mut repr = repr;
    let (mean, std) = repr.x.column_stats();
    repr.x.standardize_columns(&mean, &std);
    x_s.standardize_columns(&mean, &std);
    Augmented {
        repr,
        x_s,
        pipeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gale_data::{prepare, DatasetId};
    use gale_detect::ErrorGenConfig;
    use gale_nn::GaeConfig;

    fn quick_cfg() -> AugmentConfig {
        AugmentConfig {
            feat: FeaturizeConfig {
                gae: GaeConfig {
                    epochs: 5,
                    ..FeaturizeConfig::default().gae
                },
                ..Default::default()
            },
            synthetic_rate: 0.2,
            kind_weights: [1.0, 1.0, 1.0],
        }
    }

    #[test]
    fn xs_rows_match_pollution_and_dims_align() {
        let d = prepare(
            DatasetId::MachineLearning,
            0.05,
            &ErrorGenConfig::default(),
            3,
        );
        let mut rng = Rng::seed_from_u64(4);
        let aug = g_augment(&d.graph, &d.constraints, &quick_cfg(), &mut rng);
        assert_eq!(aug.repr.x.cols(), aug.x_s.cols());
        // Roughly synthetic_rate of the nodes appear in X_S.
        let frac = aug.x_s.rows() as f64 / d.graph.node_count() as f64;
        assert!((0.1..0.35).contains(&frac), "X_S fraction {frac}");
        assert!(!aug.x_s.has_non_finite());
    }

    #[test]
    fn synthetic_rows_differ_from_real_rows() {
        let d = prepare(DatasetId::UserGroup1, 0.05, &ErrorGenConfig::default(), 5);
        let mut rng = Rng::seed_from_u64(6);
        let aug = g_augment(&d.graph, &d.constraints, &quick_cfg(), &mut rng);
        // The mean synthetic row should differ from the mean real row:
        // pollution moved the encodings.
        let mean_r = aug.repr.x.mean_rows();
        let mean_s = aug.x_s.mean_rows();
        let dist = gale_tensor::distance::euclidean(&mean_r, &mean_s);
        assert!(dist > 1e-3, "X_S indistinguishable from X_R ({dist})");
    }

    #[test]
    fn deterministic_given_seed() {
        let d = prepare(
            DatasetId::MachineLearning,
            0.05,
            &ErrorGenConfig::default(),
            7,
        );
        let a = g_augment(
            &d.graph,
            &d.constraints,
            &quick_cfg(),
            &mut Rng::seed_from_u64(8),
        );
        let b = g_augment(
            &d.graph,
            &d.constraints,
            &quick_cfg(),
            &mut Rng::seed_from_u64(8),
        );
        assert_eq!(a.x_s.rows(), b.x_s.rows());
        assert!(a.repr.x.approx_eq(&b.repr.x, 0.0));
    }
}
