//! GCN baseline (the paper's baseline (5a), after Kipf & Welling \[30\]):
//! a two-layer graph convolutional network trained semi-supervised on the
//! labeled examples, with inverse-frequency class weights.

use crate::common::DetectionResult;
use gale_core::{Example, Label};
use gale_graph::FeatureRepr;
use gale_nn::{Activation, Adam, Gcn, Params};
use gale_tensor::{Matrix, Rng};

/// GCN training configuration.
#[derive(Debug, Clone)]
pub struct GcnConfig {
    /// Hidden width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
}

impl Default for GcnConfig {
    fn default() -> Self {
        GcnConfig {
            hidden: 48,
            epochs: 300,
            lr: 0.005,
        }
    }
}

/// Trains the GCN on `labeled` examples over the feature representation and
/// predicts every node.
pub fn gcn_detector(
    repr: &FeatureRepr,
    labeled: &[Example],
    val_examples: &[Example],
    cfg: &GcnConfig,
    rng: &mut Rng,
) -> DetectionResult {
    let n = repr.node_count();
    // Column standardization: the raw feature blocks mix scales (z-scores,
    // embeddings, detector confidences), which stalls GCN training.
    let mut x = repr.x.clone();
    let (mean, std) = x.column_stats();
    x.standardize_columns(&mean, &std);
    let s = &repr.s_norm;
    let mut net = Gcn::new(repr.dim(), cfg.hidden, 2, Activation::Identity, rng);
    let mut opt = Adam::new(cfg.lr);
    // Inverse-frequency class weights to counter the error/correct skew
    // (without them the GCN collapses to all-correct — the instability the
    // paper observes under imbalance, Fig. 7(a)).
    let n_err = labeled.iter().filter(|e| e.label == Label::Error).count();
    let n_cor = labeled.len().saturating_sub(n_err);
    let w_err = if n_err > 0 {
        (n_cor.max(1) as f64 / n_err as f64).min(20.0)
    } else {
        1.0
    };
    let mut logits = Matrix::zeros(0, 0);
    for _ in 0..cfg.epochs {
        net.forward([s, s], &x, &mut logits);
        let probs = logits.softmax_rows();
        let mut grad = Matrix::zeros(n, 2);
        let inv = 1.0 / labeled.len().max(1) as f64;
        for e in labeled {
            let (cls, w) = match e.label {
                Label::Error => (0usize, w_err),
                Label::Correct => (1usize, 1.0),
            };
            for c in 0..2 {
                grad[(e.node, c)] += w * (probs[(e.node, c)] - f64::from(u8::from(c == cls))) * inv;
            }
        }
        net.zero_grad();
        net.backward(s, &grad);
        opt.step(&mut net);
    }
    net.forward([s, s], &x, &mut logits);
    let probs = logits.softmax_rows();
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
    use gale_core::Prf;
    use gale_data::{prepare, DataSplit, DatasetId, FeaturizeConfig};
    use gale_detect::ErrorGenConfig;
    use std::collections::HashSet;

    #[test]
    fn gcn_learns_from_labels() {
        let d = prepare(
            DatasetId::MachineLearning,
            0.1,
            &ErrorGenConfig {
                node_error_rate: 0.12,
                ..Default::default()
            },
            14,
        );
        let mut rng = Rng::seed_from_u64(15);
        let split = DataSplit::paper_default(d.graph.node_count(), &mut rng);
        let feat_cfg = FeaturizeConfig {
            gae: gale_nn::GaeConfig {
                epochs: 10,
                ..FeaturizeConfig::default().gae
            },
            ..Default::default()
        };
        let repr = gale_data::featurize(&d.graph, &d.constraints, &feat_cfg, &mut rng);
        let labeled: Vec<Example> = split
            .train
            .iter()
            .take(120)
            .map(|&v| Example {
                node: v,
                label: if d.truth.is_erroneous(v) {
                    Label::Error
                } else {
                    Label::Correct
                },
            })
            .collect();
        let r = gcn_detector(&repr, &labeled, &[], &GcnConfig::default(), &mut rng);
        let truth: HashSet<usize> = split
            .test
            .iter()
            .copied()
            .filter(|&v| d.truth.is_erroneous(v))
            .collect();
        let prf = Prf::from_sets(&r.predicted_errors(&split.test), &truth);
        assert!(prf.f1 > 0.15, "GCN F1 {:.3}", prf.f1);
        assert!(r.scores.iter().all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn no_error_labels_stays_quiet() {
        let d = prepare(DatasetId::UserGroup1, 0.05, &ErrorGenConfig::default(), 16);
        let mut rng = Rng::seed_from_u64(17);
        let feat_cfg = FeaturizeConfig {
            skip_gae: true,
            ..Default::default()
        };
        let repr = gale_data::featurize(&d.graph, &d.constraints, &feat_cfg, &mut rng);
        let labeled: Vec<Example> = (0..30)
            .map(|v| Example {
                node: v,
                label: Label::Correct,
            })
            .collect();
        let r = gcn_detector(
            &repr,
            &labeled,
            &[],
            &GcnConfig {
                epochs: 50,
                ..Default::default()
            },
            &mut rng,
        );
        let flagged = r.predictions.iter().filter(|&&l| l == Label::Error).count();
        assert!(
            flagged < d.graph.node_count() / 5,
            "{flagged} spurious error predictions"
        );
    }
}
