//! Raha-lite (the paper's baseline (4), after \[39\]): configuration-free
//! error detection that runs a library of detection strategies, clusters
//! nodes by their detector-signature vectors, and propagates a small number
//! of labels cluster-wise.
//!
//! The original Raha works on relational tables; the paper applies it per
//! node type ("one table per node type"), which is what this port does
//! implicitly since detector signatures are computed per node.

use crate::common::DetectionResult;
use gale_core::{Example, Label};
use gale_data::detector_signal_features;
use gale_detect::{
    DetectorLibrary, GarbageStringDetector, IqrDetector, MisspellingDetector, NullDetector,
    RareValueDetector, ZScoreDetector,
};
use gale_graph::Graph;
use gale_tensor::{kmeans, KMeansConfig, Rng};

/// Raha configuration.
#[derive(Debug, Clone)]
pub struct RahaConfig {
    /// Number of signature clusters (Raha's label budget drives this).
    pub clusters: usize,
}

impl Default for RahaConfig {
    fn default() -> Self {
        RahaConfig { clusters: 20 }
    }
}

/// Runs Raha-lite.
///
/// `labeled` is the small labeled sample Raha is allowed (the paper gives
/// every method comparable label budgets). Each signature cluster takes the
/// majority label of its labeled members; clusters with no labeled member
/// fall back to `Correct` unless their mean detector activation is high.
///
/// Raha is a *relational* system: the paper applies it to per-node-type
/// tables and does not share the graph rule set Σ with it, so its strategy
/// library holds only the relational detectors (outliers + string noise).
pub fn raha(g: &Graph, labeled: &[Example], cfg: &RahaConfig, rng: &mut Rng) -> DetectionResult {
    let lib = DetectorLibrary::new()
        .with(ZScoreDetector::default())
        .with(IqrDetector::default())
        .with(NullDetector::default())
        .with(MisspellingDetector::default())
        .with(GarbageStringDetector::default())
        .with(RareValueDetector::default());
    let signatures = detector_signal_features(g, &lib);
    let n = g.node_count();
    let km = kmeans(
        &signatures,
        &KMeansConfig {
            k: cfg.clusters.min(n.max(1)),
            max_iter: 50,
            tol: 1e-5,
            ..KMeansConfig::default()
        },
        rng,
    );
    let k = km.centroids.rows();
    // Majority vote per cluster from the labeled sample.
    let mut votes: Vec<(usize, usize)> = vec![(0, 0); k]; // (error, correct)
    for e in labeled {
        let c = km.assignments[e.node];
        match e.label {
            Label::Error => votes[c].0 += 1,
            Label::Correct => votes[c].1 += 1,
        }
    }
    // Activation fallback for unlabeled clusters: a cluster whose mean
    // signature magnitude is high behaves like a "dirty" strategy profile.
    let mut cluster_label = vec![Label::Correct; k];
    // All clusters' members grouped in one pass over the assignments (the
    // per-cluster `members(c)` scan is O(n) each, quadratic over the loop).
    let groups = km.members_by_cluster();
    for c in 0..k {
        let (err, cor) = votes[c];
        if err + cor > 0 {
            cluster_label[c] = if err > cor {
                Label::Error
            } else {
                Label::Correct
            };
        } else {
            let members = &groups[c];
            let mean_act: f64 = members
                .iter()
                .map(|&v| signatures.row(v).iter().sum::<f64>())
                .sum::<f64>()
                / members.len().max(1) as f64;
            cluster_label[c] = if mean_act > 0.5 {
                Label::Error
            } else {
                Label::Correct
            };
        }
    }
    let predictions: Vec<Label> = (0..n).map(|v| cluster_label[km.assignments[v]]).collect();
    let scores: Vec<f64> = (0..n)
        .map(|v| {
            let c = km.assignments[v];
            let (err, cor) = votes[c];
            if err + cor > 0 {
                err as f64 / (err + cor) as f64
            } else {
                signatures.row(v).iter().sum::<f64>().min(1.0)
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
    use std::collections::HashSet;

    #[test]
    fn raha_uses_labels_to_beat_blind_union() {
        // Fully detectable errors: Raha's relational strategies can catch
        // these, so label propagation through signature clusters must beat
        // chance comfortably.
        let d = prepare(
            DatasetId::MachineLearning,
            0.2,
            &ErrorGenConfig {
                node_error_rate: 0.12,
                detectable_rate: 1.0,
                ..Default::default()
            },
            8,
        );
        let mut rng = Rng::seed_from_u64(9);
        let split = DataSplit::paper_default(d.graph.node_count(), &mut rng);
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
        let r = raha(&d.graph, &labeled, &RahaConfig::default(), &mut rng);
        let truth: HashSet<usize> = split
            .test
            .iter()
            .copied()
            .filter(|&v| d.truth.is_erroneous(v))
            .collect();
        let prf = Prf::from_sets(&r.predicted_errors(&split.test), &truth);
        assert!(prf.f1 > 0.2, "Raha F1 {:.3}", prf.f1);
    }

    #[test]
    fn without_labels_falls_back_to_activation() {
        let d = prepare(
            DatasetId::MachineLearning,
            0.08,
            &ErrorGenConfig {
                node_error_rate: 0.1,
                detectable_rate: 1.0,
                ..Default::default()
            },
            10,
        );
        let mut rng = Rng::seed_from_u64(11);
        let r = raha(&d.graph, &[], &RahaConfig::default(), &mut rng);
        let flagged = r.predictions.iter().filter(|&&l| l == Label::Error).count();
        assert!(flagged > 0, "activation fallback never fires");
    }

    #[test]
    fn scores_bounded() {
        let d = prepare(DatasetId::UserGroup2, 0.05, &ErrorGenConfig::default(), 12);
        let mut rng = Rng::seed_from_u64(13);
        let r = raha(&d.graph, &[], &RahaConfig::default(), &mut rng);
        assert!(r.scores.iter().all(|s| (0.0..=1.0).contains(s)));
    }
}
