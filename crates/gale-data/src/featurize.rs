//! Feature engineering pipeline (Section VII, "Feature Engineering").
//!
//! The paper (1) maps attribute tokens to word-embedding vectors, (2) feeds
//! them to a graph autoencoder to learn structural node representations,
//! (3) concatenates attribute-level and node-level representations, and (4)
//! reduces with PCA to cut training cost. This module reproduces that
//! pipeline with hash embeddings in place of pretrained word vectors.

use gale_detect::{Constraint, DetectorLibrary};
use gale_graph::{AttrKind, FeatureRepr, Graph};
use gale_nn::{Gae, GaeConfig, HashEmbedder};
use gale_tensor::{stats, Matrix, Pca, Rng, SparseMatrix};

/// Featurization configuration.
#[derive(Debug, Clone)]
pub struct FeaturizeConfig {
    /// Per-attribute token-embedding width.
    pub token_dim: usize,
    /// PCA output dimensionality for the attribute block; `None` keeps the
    /// raw concatenation.
    pub pca_dim: Option<usize>,
    /// GAE settings for the structural block.
    pub gae: GaeConfig,
    /// Skip the GAE entirely (attribute features only).
    pub skip_gae: bool,
    /// Append per-detector signal columns (the Raha-style feature block:
    /// each base detector in Ψ contributes its max per-node confidence).
    pub detector_signals: bool,
}

impl Default for FeaturizeConfig {
    fn default() -> Self {
        FeaturizeConfig {
            token_dim: 12,
            pca_dim: Some(24),
            gae: GaeConfig {
                hidden_dim: 24,
                embed_dim: 12,
                epochs: 40,
                lr: 0.01,
                negative_ratio: 1,
            },
            skip_gae: false,
            detector_signals: true,
        }
    }
}

/// Builds the raw attribute-level feature matrix.
///
/// Per attribute the layout is:
/// * numeric — `[z-score, is-null, local-deviation]` where the local
///   deviation compares the value against the node's graph neighbors
///   (scaled by the global σ);
/// * textual/categorical — `[token embedding (token_dim), is-null, rarity,
///   neighborhood-mismatch, neighbor-agreement]`, where rarity is the
///   value's negative log frequency within its `(type, attribute)` slice,
///   the mismatch is the cosine distance between the node's token embedding
///   and the mean embedding of its neighbors, and the agreement is the
///   fraction of neighbors carrying a semantically equal value (the signal
///   that exposes consistent-but-wrong swaps, the paper's cases 3/4).
///
/// The rarity and context columns are the offline stand-in for what
/// pretrained word embeddings give the paper: a signal for how *plausible*
/// a value is globally and in its graph context.
pub fn attribute_features(g: &Graph, token_dim: usize) -> Matrix {
    let n = g.node_count();
    let attr_count = g.schema.attr_count() as u32;
    let neighbors = g.neighbor_lists();
    // Per-attribute z-score statistics over the full graph.
    let mut numeric_stats = Vec::new();
    for a in 0..attr_count {
        if g.schema.attr_kind(a) == AttrKind::Numeric {
            let vals: Vec<f64> = g
                .nodes()
                .filter_map(|(_, node)| node.get(a).and_then(|v| v.as_f64()))
                .collect();
            numeric_stats.push((a, stats::mean(&vals), stats::std_dev(&vals).max(1e-9)));
        } else {
            numeric_stats.push((a, 0.0, 1.0));
        }
    }
    // Canonical-value frequency tables for the rarity column.
    let mut value_counts: Vec<std::collections::HashMap<String, usize>> =
        vec![std::collections::HashMap::new(); attr_count as usize];
    let mut value_totals: Vec<usize> = vec![0; attr_count as usize];
    for (_, node) in g.nodes() {
        for (a, v) in node.attrs() {
            if g.schema.attr_kind(a) != AttrKind::Numeric && !v.is_null() {
                *value_counts[a as usize].entry(v.canonical()).or_insert(0) += 1;
                value_totals[a as usize] += 1;
            }
        }
    }
    // Column layout.
    let width_of = |a: u32| match g.schema.attr_kind(a) {
        AttrKind::Numeric => 3,
        _ => token_dim + 4,
    };
    let total: usize = (0..attr_count).map(width_of).sum();
    // Distinct salt per attribute keeps token namespaces independent.
    let embedders: Vec<HashEmbedder> = (0..attr_count)
        .map(|a| HashEmbedder::new(token_dim, 0x9a1e_0000 + u64::from(a)))
        .collect();

    // Pre-compute each node's token embedding per non-numeric attribute so
    // the neighborhood mismatch is O(|E|) per attribute.
    let mut attr_embeds: Vec<Option<Matrix>> = Vec::with_capacity(attr_count as usize);
    for a in 0..attr_count {
        if g.schema.attr_kind(a) == AttrKind::Numeric {
            attr_embeds.push(None);
            continue;
        }
        let mut m = Matrix::zeros(n, token_dim);
        for (id, node) in g.nodes() {
            if let Some(v) = node.get(a) {
                if !v.is_null() {
                    m.set_row(id, &embedders[a as usize].embed_tokens(&v.tokens()));
                }
            }
        }
        attr_embeds.push(Some(m));
    }

    let mut x = Matrix::zeros(n, total.max(1));
    for (id, node) in g.nodes() {
        let mut col = 0usize;
        for a in 0..attr_count {
            let value = node.get(a);
            match g.schema.attr_kind(a) {
                AttrKind::Numeric => {
                    let (_, mean, sd) = numeric_stats[a as usize];
                    match value.and_then(|v| v.as_f64()) {
                        Some(v) => {
                            x[(id, col)] = (v - mean) / sd;
                            x[(id, col + 1)] = 0.0;
                            // Local deviation against neighbor values.
                            let nbr_vals: Vec<f64> = neighbors[id]
                                .iter()
                                .filter_map(|&u| g.node(u).get(a).and_then(|w| w.as_f64()))
                                .collect();
                            x[(id, col + 2)] = if nbr_vals.len() >= 2 {
                                ((v - stats::mean(&nbr_vals)) / sd).clamp(-10.0, 10.0)
                            } else {
                                0.0
                            };
                        }
                        None => {
                            x[(id, col)] = 0.0;
                            x[(id, col + 1)] = 1.0; // missing marker
                            x[(id, col + 2)] = 0.0;
                        }
                    }
                    col += 3;
                }
                _ => {
                    let (tokens, is_null) = match value {
                        Some(v) if !v.is_null() => (v.tokens(), 0.0),
                        Some(_) => (vec!["<null>".to_string()], 1.0),
                        None => (Vec::new(), 1.0),
                    };
                    let emb = embedders[a as usize].embed_tokens(&tokens);
                    for (j, e) in emb.iter().enumerate() {
                        x[(id, col + j)] = *e;
                    }
                    x[(id, col + token_dim)] = is_null;
                    // Rarity: -ln(freq) normalized by ln(total).
                    let rarity = if is_null > 0.0 {
                        1.0
                    } else {
                        let canon = value.expect("non-null").canonical();
                        let count = value_counts[a as usize]
                            .get(&canon)
                            .copied()
                            .unwrap_or(0)
                            .max(1);
                        let tot = value_totals[a as usize].max(2);
                        (-((count as f64) / (tot as f64)).ln()) / (tot as f64).ln()
                    };
                    x[(id, col + token_dim + 1)] = rarity;
                    // Neighborhood mismatch: cosine distance to the mean
                    // neighbor embedding for the same attribute.
                    let mismatch = if is_null > 0.0 || neighbors[id].is_empty() {
                        0.0
                    } else {
                        let embeds = attr_embeds[a as usize].as_ref().expect("non-numeric");
                        let mut mean_nbr = vec![0.0; token_dim];
                        let mut cnt = 0usize;
                        for &u in &neighbors[id] {
                            let row = embeds.row(u);
                            if row.iter().any(|e| *e != 0.0) {
                                for (m, e) in mean_nbr.iter_mut().zip(row) {
                                    *m += e;
                                }
                                cnt += 1;
                            }
                        }
                        if cnt == 0 {
                            0.0
                        } else {
                            for m in &mut mean_nbr {
                                *m /= cnt as f64;
                            }
                            gale_tensor::distance::cosine_distance(&emb, &mean_nbr)
                        }
                    };
                    x[(id, col + token_dim + 2)] = mismatch;
                    // Neighbor agreement on the raw value.
                    let agreement = if is_null > 0.0 {
                        0.0
                    } else {
                        let own = value.expect("non-null");
                        let mut same = 0usize;
                        let mut with_attr = 0usize;
                        for &u in &neighbors[id] {
                            if let Some(w) = g.node(u).get(a) {
                                if !w.is_null() {
                                    with_attr += 1;
                                    if w.semantically_eq(own) {
                                        same += 1;
                                    }
                                }
                            }
                        }
                        if with_attr == 0 {
                            0.0
                        } else {
                            same as f64 / with_attr as f64
                        }
                    };
                    x[(id, col + token_dim + 3)] = agreement;
                    col += token_dim + 4;
                }
            }
        }
    }
    x
}

/// Column indices of the token-embedding blocks vs the diagnostic scalars
/// (z-scores, null flags, local deviations, rarity, mismatch) within the raw
/// attribute-feature matrix of [`attribute_features`].
pub fn attribute_feature_layout(g: &Graph, token_dim: usize) -> (Vec<usize>, Vec<usize>) {
    let mut token_cols = Vec::new();
    let mut diag_cols = Vec::new();
    let mut col = 0usize;
    for a in 0..g.schema.attr_count() as u32 {
        match g.schema.attr_kind(a) {
            AttrKind::Numeric => {
                diag_cols.extend([col, col + 1, col + 2]);
                col += 3;
            }
            _ => {
                token_cols.extend(col..col + token_dim);
                diag_cols.extend([
                    col + token_dim,
                    col + token_dim + 1,
                    col + token_dim + 2,
                    col + token_dim + 3,
                ]);
                col += token_dim + 4;
            }
        }
    }
    (token_cols, diag_cols)
}

/// Selects a set of columns from a matrix into a new matrix.
fn select_cols(m: &Matrix, cols: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), cols.len());
    for r in 0..m.rows() {
        for (j, &c) in cols.iter().enumerate() {
            out[(r, j)] = m[(r, c)];
        }
    }
    out
}

/// Per-detector signal columns: column `i` holds detector `i`'s maximum
/// detection confidence on each node (0 when unflagged). This is the
/// Raha-style feature block that lets the classifier *learn* which detector
/// patterns to trust instead of unioning them.
pub fn detector_signal_features(g: &Graph, lib: &DetectorLibrary) -> Matrix {
    let report = lib.run(g);
    let mut x: Matrix = Matrix::zeros(g.node_count(), lib.len().max(1));
    for (i, dets) in report.per_detector.iter().enumerate() {
        for d in dets {
            x[(d.node, i)] = x[(d.node, i)].max(d.confidence);
        }
    }
    x
}

/// A fitted featurization pipeline.
///
/// GALE's graph-augmentation step needs to encode a *polluted clone* of the
/// graph with the exact same projection as the real graph, so the fitted PCA
/// basis and GAE encoder are kept and re-applied by [`FeaturePipeline::transform`].
pub struct FeaturePipeline {
    cfg: FeaturizeConfig,
    pca: Option<Pca>,
    gae: Option<Gae>,
    lib: Option<DetectorLibrary>,
    token_cols: Vec<usize>,
    diag_cols: Vec<usize>,
    attr_dim: usize,
}

impl FeaturePipeline {
    /// Fits the pipeline on a graph and returns it with the graph's
    /// feature representation.
    pub fn fit(
        g: &Graph,
        constraints: &[Constraint],
        cfg: &FeaturizeConfig,
        rng: &mut Rng,
    ) -> (FeaturePipeline, FeatureRepr) {
        let raw = attribute_features(g, cfg.token_dim);
        let (token_cols, diag_cols) = attribute_feature_layout(g, cfg.token_dim);
        // PCA compresses only the token-embedding columns: the diagnostic
        // scalars are low-variance but high-signal and must survive intact.
        let token_block = select_cols(&raw, &token_cols);
        let pca = match cfg.pca_dim {
            Some(k) if k < token_block.cols() && g.node_count() > 1 => {
                Some(Pca::fit(&token_block, k))
            }
            _ => None,
        };
        let reduced = match &pca {
            Some(p) => p.transform(&token_block),
            None => token_block,
        };
        let diag_block = select_cols(&raw, &diag_cols);
        let mut attr_block = diag_block.hstack(&reduced);
        let lib = if cfg.detector_signals {
            let lib = DetectorLibrary::standard(constraints.to_vec());
            attr_block = attr_block.hstack(&detector_signal_features(g, &lib));
            Some(lib)
        } else {
            None
        };
        let attr_block_dim = attr_block.cols();
        let a = g.adjacency();
        let s_norm = a.sym_normalized_with_self_loops();
        let (gae, x) = if cfg.skip_gae {
            (None, attr_block)
        } else {
            let mut gae = Gae::train(&raw, &a, &s_norm, &cfg.gae, rng);
            let mut struct_block = Matrix::zeros(0, 0);
            gae.embed(&s_norm, &raw, &mut struct_block);
            (Some(gae), attr_block.hstack(&struct_block))
        };
        let pipeline = FeaturePipeline {
            cfg: cfg.clone(),
            pca,
            gae,
            lib,
            token_cols,
            diag_cols,
            attr_dim: attr_block_dim,
        };
        (pipeline, FeatureRepr { x, a, s_norm })
    }

    /// Encodes another graph (typically a polluted clone with the same
    /// topology) using the already-fitted PCA basis and GAE encoder. The
    /// encoder propagates over `s_norm`, the operator of the representation
    /// [`FeaturePipeline::fit`] returned.
    pub fn transform(&mut self, g: &Graph, s_norm: &SparseMatrix) -> Matrix {
        let raw = attribute_features(g, self.cfg.token_dim);
        let token_block = select_cols(&raw, &self.token_cols);
        let reduced = match &self.pca {
            Some(p) => p.transform(&token_block),
            None => token_block,
        };
        let diag_block = select_cols(&raw, &self.diag_cols);
        let mut attr_block = diag_block.hstack(&reduced);
        if let Some(lib) = &self.lib {
            attr_block = attr_block.hstack(&detector_signal_features(g, lib));
        }
        match &mut self.gae {
            Some(gae) => {
                let mut struct_block = Matrix::zeros(0, 0);
                gae.embed(s_norm, &raw, &mut struct_block);
                attr_block.hstack(&struct_block)
            }
            None => attr_block,
        }
    }

    /// Output feature dimensionality.
    pub fn out_dim(&self) -> usize {
        let gae = if self.gae.is_some() {
            self.cfg.gae.embed_dim
        } else {
            0
        };
        self.attr_dim + gae
    }
}

/// The full pipeline: attribute features (PCA-reduced) concatenated with GAE
/// structural embeddings, wrapped into a [`FeatureRepr`].
pub fn featurize(
    g: &Graph,
    constraints: &[Constraint],
    cfg: &FeaturizeConfig,
    rng: &mut Rng,
) -> FeatureRepr {
    FeaturePipeline::fit(g, constraints, cfg, rng).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{prepare, DatasetId};
    use gale_detect::ErrorGenConfig;
    use gale_graph::AttrKind;
    use gale_tensor::distance::euclidean;

    fn tiny_graph() -> Graph {
        let mut g = Graph::new();
        for i in 0..20 {
            let id = g.add_node_with(
                "t",
                &[
                    ("num", AttrKind::Numeric, (i as f64).into()),
                    (
                        "cat",
                        AttrKind::Categorical,
                        ["a", "b"][(i % 2) as usize].into(),
                    ),
                ],
            );
            if i > 0 {
                g.add_edge_named(id - 1, id, "e");
            }
        }
        g
    }

    #[test]
    fn attribute_feature_layout() {
        let g = tiny_graph();
        let x = attribute_features(&g, 8);
        // num: 3 cols; cat: 8 + 4 cols.
        assert_eq!(x.cols(), 3 + 12);
        assert_eq!(x.rows(), 20);
        // Numeric column is z-scored: mean ~ 0.
        let col0 = x.col(0);
        assert!(stats::mean(&col0).abs() < 1e-9);
    }

    #[test]
    fn same_category_closer_than_different() {
        let g = tiny_graph();
        let x = attribute_features(&g, 8);
        // Rows 0 and 2 share "a"; rows 0 and 1 differ; compare only the
        // categorical token block (columns 3..11).
        let block = |r: usize| x.row(r)[3..11].to_vec();
        let same = euclidean(&block(0), &block(2));
        let diff = euclidean(&block(0), &block(1));
        assert!(same < diff, "same {same} diff {diff}");
    }

    #[test]
    fn null_flag_set() {
        let mut g = tiny_graph();
        let cat = g.schema.find_attr("cat").unwrap();
        g.node_mut(3).set(cat, gale_graph::AttrValue::Null);
        let x = attribute_features(&g, 8);
        // The is-null flag sits at offset 3 + 8 within the cat block.
        assert_eq!(x[(3, 3 + 8)], 1.0);
        assert_eq!(x[(4, 3 + 8)], 0.0);
    }

    #[test]
    fn full_pipeline_shapes() {
        let d = prepare(
            DatasetId::MachineLearning,
            0.05,
            &ErrorGenConfig::default(),
            1,
        );
        let mut rng = Rng::seed_from_u64(9);
        let cfg = FeaturizeConfig {
            gae: GaeConfig {
                epochs: 5,
                ..FeaturizeConfig::default().gae
            },
            ..Default::default()
        };
        let fr = featurize(&d.graph, &d.constraints, &cfg, &mut rng);
        assert_eq!(fr.node_count(), d.graph.node_count());
        // 3 attrs x 3 diagnostic scalars + PCA(24 capped by token cols) + GAE.
        assert!(fr.dim() >= 9 + 12);
        assert!(!fr.x.has_non_finite());
    }

    #[test]
    fn skip_gae_gives_attr_block_only() {
        let g = tiny_graph();
        let mut rng = Rng::seed_from_u64(10);
        let cfg = FeaturizeConfig {
            skip_gae: true,
            pca_dim: None,
            detector_signals: false,
            ..Default::default()
        };
        let fr = featurize(&g, &[], &cfg, &mut rng);
        assert_eq!(fr.dim(), attribute_features(&g, cfg.token_dim).cols());
    }

    #[test]
    fn pipeline_transform_matches_fit_output() {
        let g = tiny_graph();
        let mut rng = Rng::seed_from_u64(12);
        let cfg = FeaturizeConfig {
            gae: gale_nn::GaeConfig {
                epochs: 5,
                ..FeaturizeConfig::default().gae
            },
            ..Default::default()
        };
        let (mut pipe, fr) = FeaturePipeline::fit(&g, &[], &cfg, &mut rng);
        // Transforming the same (unchanged) graph reproduces the fit output.
        let x2 = pipe.transform(&g, &fr.s_norm);
        assert!(fr.x.approx_eq(&x2, 1e-9));
        assert_eq!(pipe.out_dim(), fr.dim());
    }

    #[test]
    fn pipeline_transform_shifts_only_changed_rows_attr_block() {
        let g = tiny_graph();
        let mut rng = Rng::seed_from_u64(13);
        let cfg = FeaturizeConfig {
            skip_gae: true,
            pca_dim: None,
            detector_signals: false,
            ..Default::default()
        };
        let (mut pipe, fr) = FeaturePipeline::fit(&g, &[], &cfg, &mut rng);
        let mut polluted = g.clone();
        let cat = polluted.schema.find_attr("cat").unwrap();
        polluted.node_mut(5).set(cat, "zzz".into());
        let x2 = pipe.transform(&polluted, &fr.s_norm);
        // Row 5's categorical block moved; other rows only see second-order
        // effects (frequency tables, neighbor context), which must be far
        // smaller than the direct change.
        let changed = gale_tensor::distance::euclidean(fr.x.row(5), x2.row(5));
        let side_effect = gale_tensor::distance::euclidean(fr.x.row(15), x2.row(15));
        assert!(changed > 0.1, "changed {changed}");
        assert!(
            side_effect < changed / 5.0,
            "side effect {side_effect} vs changed {changed}"
        );
    }

    #[test]
    fn pca_dim_respected() {
        let g = tiny_graph();
        let mut rng = Rng::seed_from_u64(11);
        let cfg = FeaturizeConfig {
            skip_gae: true,
            pca_dim: Some(4),
            detector_signals: false,
            ..Default::default()
        };
        let fr = featurize(&g, &[], &cfg, &mut rng);
        // numeric: 3 diagnostics, categorical: 4, + 4 PCA token dims.
        assert_eq!(fr.dim(), 7 + 4);
    }
}
