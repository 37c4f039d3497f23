//! Alad-style anomaly detection (the paper's baseline (2), after \[37\]):
//! unsupervised node-anomaly ranking that combines attribute-distribution
//! irregularity with local topological context, thresholded at the best
//! validation F1 (the paper tunes Alad's threshold for its best AUC-PR).

use crate::common::DetectionResult;
use gale_core::{best_f1_threshold, Example, Label};
use gale_data::{attribute_feature_layout, attribute_features};
use gale_graph::{Graph, NodeId};
use std::collections::HashSet;

/// Alad configuration.
#[derive(Debug, Clone)]
pub struct AladConfig {
    /// Token-embedding width used for the underlying attribute encoding.
    pub token_dim: usize,
    /// Weight of the structural (degree-deviation) component.
    pub structure_weight: f64,
}

impl Default for AladConfig {
    fn default() -> Self {
        AladConfig {
            token_dim: 12,
            structure_weight: 0.3,
        }
    }
}

/// Computes the unsupervised anomaly score of every node.
///
/// The attribute component is the mean of the top-2 diagnostic magnitudes
/// (z-scores, local deviations, rarity, context mismatch); the structural
/// component is the node's degree deviation from its neighbors' mean degree.
pub fn alad_scores(g: &Graph, cfg: &AladConfig) -> Vec<f64> {
    let raw = attribute_features(g, cfg.token_dim);
    let (_, diag_cols) = attribute_feature_layout(g, cfg.token_dim);
    let degrees = g.degrees();
    let neighbors = g.neighbor_lists();
    (0..g.node_count())
        .map(|v| {
            let mut diags: Vec<f64> = diag_cols.iter().map(|&c| raw[(v, c)].abs()).collect();
            diags.sort_by(|a, b| b.partial_cmp(a).expect("NaN diagnostic"));
            let attr_score = diags.iter().take(2).sum::<f64>() / (diags.len().clamp(1, 2) as f64);
            let struct_score = if neighbors[v].is_empty() {
                0.0
            } else {
                let mean_deg = neighbors[v].iter().map(|&u| degrees[u] as f64).sum::<f64>()
                    / neighbors[v].len() as f64;
                ((degrees[v] as f64 - mean_deg).abs() / (mean_deg + 1.0)).min(3.0)
            };
            attr_score + cfg.structure_weight * struct_score
        })
        .collect()
}

/// Runs Alad: scores all nodes, picks the threshold maximizing F1 on the
/// labeled validation examples, and predicts.
pub fn alad(g: &Graph, val_examples: &[Example], cfg: &AladConfig) -> DetectionResult {
    let scores = alad_scores(g, cfg);
    let val_scores: Vec<(NodeId, f64)> = val_examples
        .iter()
        .map(|e| (e.node, scores[e.node]))
        .collect();
    let val_truth: HashSet<NodeId> = val_examples
        .iter()
        .filter(|e| e.label == Label::Error)
        .map(|e| e.node)
        .collect();
    let threshold = if val_truth.is_empty() {
        // No validation errors: fall back to the 95th percentile.
        gale_tensor::stats::quantile(&scores, 0.95)
    } else {
        best_f1_threshold(&val_scores, &val_truth).0
    };
    let predictions = scores
        .iter()
        .map(|&s| {
            if s >= threshold {
                Label::Error
            } else {
                Label::Correct
            }
        })
        .collect();
    DetectionResult {
        predictions,
        scores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gale_core::Prf;
    use gale_data::{prepare, DataSplit, DatasetId};
    use gale_detect::ErrorGenConfig;
    use gale_tensor::Rng;

    fn val_examples(d: &gale_data::PreparedDataset, split: &DataSplit) -> Vec<Example> {
        split
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
            .collect()
    }

    #[test]
    fn detectable_outliers_rank_high() {
        let d = prepare(
            DatasetId::UserGroup1,
            0.1,
            &ErrorGenConfig {
                node_error_rate: 0.1,
                detectable_rate: 1.0,
                kind_weights: [0.0, 1.0, 0.0],
                ..Default::default()
            },
            4,
        );
        let scores = alad_scores(&d.graph, &AladConfig::default());
        let err_mean = gale_tensor::stats::mean(
            &d.truth
                .erroneous_nodes()
                .iter()
                .map(|&v| scores[v])
                .collect::<Vec<_>>(),
        );
        let clean: Vec<f64> = (0..d.graph.node_count())
            .filter(|v| !d.truth.is_erroneous(*v))
            .map(|v| scores[v])
            .collect();
        assert!(
            err_mean > gale_tensor::stats::mean(&clean) * 1.5,
            "outliers not ranked higher"
        );
    }

    #[test]
    fn threshold_tuned_on_validation() {
        let d = prepare(
            DatasetId::UserGroup1,
            0.1,
            &ErrorGenConfig {
                node_error_rate: 0.12,
                ..Default::default()
            },
            5,
        );
        let mut rng = Rng::seed_from_u64(6);
        let split = DataSplit::paper_default(d.graph.node_count(), &mut rng);
        let vals = val_examples(&d, &split);
        let r = alad(&d.graph, &vals, &AladConfig::default());
        let truth: HashSet<usize> = split
            .test
            .iter()
            .copied()
            .filter(|&v| d.truth.is_erroneous(v))
            .collect();
        let prf = Prf::from_sets(&r.predicted_errors(&split.test), &truth);
        // Alad catches a fair share of the (mixed) errors but is far from
        // perfect — the paper reports F1 0.30-0.39.
        assert!(prf.recall > 0.1, "recall {:.3}", prf.recall);
        assert!(prf.f1 < 0.9, "implausibly perfect ({:?})", prf);
    }

    #[test]
    fn empty_validation_falls_back() {
        let d = prepare(DatasetId::UserGroup2, 0.05, &ErrorGenConfig::default(), 7);
        let r = alad(&d.graph, &[], &AladConfig::default());
        let flagged = r.predictions.iter().filter(|&&l| l == Label::Error).count();
        // 95th-percentile fallback flags ~5% of nodes.
        let frac = flagged as f64 / d.graph.node_count() as f64;
        assert!((0.01..0.15).contains(&frac), "flagged fraction {frac}");
    }
}
