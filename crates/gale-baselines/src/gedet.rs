//! GEDet (the paper's baseline (5b) and GALE's pilot system \[22\]):
//! one-shot adversarially-learned few-shot error detection — the same
//! SGAN + graph augmentation stack as GALE, but trained once on a fixed
//! example set with no active-learning loop.

use crate::common::DetectionResult;
use gale_core::{g_augment, AugmentConfig, Example, ExamplePool, Sgan, SganConfig};
use gale_detect::Constraint;
use gale_graph::Graph;
use gale_tensor::Rng;

/// GEDet configuration.
#[derive(Debug, Clone, Default)]
pub struct GedetConfig {
    /// SGAN hyper-parameters (shared with GALE for fair comparison).
    pub sgan: SganConfig,
    /// GAugment settings.
    pub augment: AugmentConfig,
}

/// Trains GEDet on the given examples and predicts every node.
pub fn gedet(
    g: &Graph,
    constraints: &[Constraint],
    examples: &[Example],
    val_examples: &[Example],
    cfg: &GedetConfig,
    rng: &mut Rng,
) -> DetectionResult {
    let aug = g_augment(g, constraints, &cfg.augment, rng);
    let mut sgan = Sgan::new(aug.repr.x.cols(), &cfg.sgan, rng);
    let targets = ExamplePool::targets(examples);
    let val_targets = ExamplePool::targets(val_examples);
    let _ = sgan.train(&aug.repr.x, &aug.x_s, &targets, &val_targets, rng);
    let probs = sgan.class_probs(&aug.repr.x);
    let n = g.node_count();
    let scores: Vec<f64> = (0..n).map(|v| probs[(v, 0)]).collect();
    let predictions = gale_core::calibrated_predictions(&scores, val_examples);
    DetectionResult {
        predictions,
        scores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gale_core::{Label, Prf};
    use gale_data::{prepare, DataSplit, DatasetId, FeaturizeConfig};
    use gale_detect::ErrorGenConfig;
    use std::collections::HashSet;

    fn quick_cfg() -> GedetConfig {
        GedetConfig {
            sgan: SganConfig {
                d_hidden: vec![24, 12],
                g_hidden: vec![24],
                epochs: 80,
                batch_unsup: 128,
                early_stop_patience: 0,
                ..Default::default()
            },
            augment: AugmentConfig {
                feat: FeaturizeConfig {
                    gae: gale_nn::GaeConfig {
                        epochs: 10,
                        ..FeaturizeConfig::default().gae
                    },
                    ..Default::default()
                },
                ..Default::default()
            },
        }
    }

    #[test]
    fn gedet_detects_with_few_shots() {
        let d = prepare(
            DatasetId::MachineLearning,
            0.1,
            &ErrorGenConfig {
                node_error_rate: 0.12,
                ..Default::default()
            },
            18,
        );
        let mut rng = Rng::seed_from_u64(19);
        let split = DataSplit::paper_default(d.graph.node_count(), &mut rng);
        let labeled: Vec<Example> = split
            .train
            .iter()
            .take(60)
            .map(|&v| Example {
                node: v,
                label: if d.truth.is_erroneous(v) {
                    Label::Error
                } else {
                    Label::Correct
                },
            })
            .collect();
        let r = gedet(
            &d.graph,
            &d.constraints,
            &labeled,
            &[],
            &quick_cfg(),
            &mut rng,
        );
        let truth: HashSet<usize> = split
            .test
            .iter()
            .copied()
            .filter(|&v| d.truth.is_erroneous(v))
            .collect();
        let prf = Prf::from_sets(&r.predicted_errors(&split.test), &truth);
        assert!(prf.f1 > 0.3, "GEDet F1 {:.3}", prf.f1);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = prepare(DatasetId::UserGroup2, 0.06, &ErrorGenConfig::default(), 20);
        let labeled: Vec<Example> = (0..20)
            .map(|v| Example {
                node: v,
                label: if d.truth.is_erroneous(v) {
                    Label::Error
                } else {
                    Label::Correct
                },
            })
            .collect();
        let run = || {
            gedet(
                &d.graph,
                &d.constraints,
                &labeled,
                &[],
                &quick_cfg(),
                &mut Rng::seed_from_u64(21),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.predictions, b.predictions);
    }
}
