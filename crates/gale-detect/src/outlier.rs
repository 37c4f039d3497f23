//! Outlier detectors over numeric attributes.
//!
//! The paper's library includes "outlier detectors, which encode the
//! algorithm in e.g. \[7\] (LOF)". We provide three complementary detectors:
//! a global z-score test, Tukey (IQR) fences, and a local-neighborhood
//! deviation test in the spirit of LOF/Alad that compares a node's value
//! against its graph neighbors.

use crate::detector::{BaseDetector, Detection, DetectorClass};
use gale_graph::value::AttrValue;
use gale_graph::{AttrId, AttrKind, Graph, NodeId, NodeTypeId};
use gale_tensor::stats;
use std::collections::HashMap;

/// Collects the numeric values of `attr` over nodes of `node_type`.
fn numeric_column(g: &Graph, node_type: NodeTypeId, attr: AttrId) -> Vec<(NodeId, f64)> {
    g.nodes()
        .filter(|(_, n)| n.node_type == node_type)
        .filter_map(|(id, n)| n.get(attr).and_then(AttrValue::as_f64).map(|v| (id, v)))
        .collect()
}

/// All `(node_type, numeric attr)` pairs with data.
fn numeric_slices(g: &Graph) -> Vec<(NodeTypeId, AttrId)> {
    let mut out = Vec::new();
    for t in 0..g.schema.node_type_count() as u32 {
        for a in 0..g.schema.attr_count() as u32 {
            if g.schema.attr_kind(a) == AttrKind::Numeric {
                out.push((t, a));
            }
        }
    }
    out
}

/// Flags values with `|z| > threshold` within their `(type, attribute)`
/// population. Invertible: suggests the population median.
pub struct ZScoreDetector {
    /// Z-score threshold; 3.0 is the usual default.
    pub threshold: f64,
}

impl Default for ZScoreDetector {
    fn default() -> Self {
        ZScoreDetector { threshold: 3.0 }
    }
}

impl BaseDetector for ZScoreDetector {
    fn name(&self) -> String {
        format!("zscore({})", self.threshold)
    }

    fn class(&self) -> DetectorClass {
        DetectorClass::Outlier
    }

    fn detect(&self, g: &Graph) -> Vec<Detection> {
        let mut out = Vec::new();
        for (t, a) in numeric_slices(g) {
            let col = numeric_column(g, t, a);
            if col.len() < 8 {
                continue; // too little data for stable moments
            }
            let values: Vec<f64> = col.iter().map(|(_, v)| *v).collect();
            let mean = stats::mean(&values);
            let sd = stats::std_dev(&values);
            if sd < 1e-12 {
                continue;
            }
            for &(id, v) in &col {
                let z = (v - mean) / sd;
                if z.abs() > self.threshold {
                    out.push(Detection {
                        node: id,
                        attr: a,
                        // Saturating confidence that grows with |z|.
                        confidence: (1.0 - (-(z.abs() - self.threshold)).exp()).clamp(0.5, 1.0),
                        message: format!(
                            "z-score {:.2} beyond ±{} on {}",
                            z,
                            self.threshold,
                            g.schema.attr_name(a)
                        ),
                    });
                }
            }
        }
        out
    }

    fn suggest(&self, g: &Graph, node: NodeId, attr: AttrId) -> Option<AttrValue> {
        let t = g.node(node).node_type;
        let col = numeric_column(g, t, attr);
        if col.len() < 8 {
            return None;
        }
        let values: Vec<f64> = col.iter().map(|(_, v)| *v).collect();
        Some(AttrValue::Float(stats::median(&values)))
    }
}

/// Flags values outside the Tukey fences `[q1 - k·IQR, q3 + k·IQR]`.
pub struct IqrDetector {
    /// Fence multiplier; 1.5 is the classic value, 3.0 for "far out".
    pub k: f64,
}

impl Default for IqrDetector {
    fn default() -> Self {
        IqrDetector { k: 3.0 }
    }
}

impl BaseDetector for IqrDetector {
    fn name(&self) -> String {
        format!("iqr({})", self.k)
    }

    fn class(&self) -> DetectorClass {
        DetectorClass::Outlier
    }

    fn detect(&self, g: &Graph) -> Vec<Detection> {
        let mut out = Vec::new();
        for (t, a) in numeric_slices(g) {
            let col = numeric_column(g, t, a);
            if col.len() < 8 {
                continue;
            }
            let values: Vec<f64> = col.iter().map(|(_, v)| *v).collect();
            let (lo, hi) = stats::tukey_fences(&values, self.k);
            if hi - lo < 1e-12 {
                continue;
            }
            for &(id, v) in &col {
                if v < lo || v > hi {
                    out.push(Detection {
                        node: id,
                        attr: a,
                        confidence: 0.8,
                        message: format!(
                            "{} = {v} outside Tukey fences [{lo:.3}, {hi:.3}]",
                            g.schema.attr_name(a)
                        ),
                    });
                }
            }
        }
        out
    }

    fn suggest(&self, g: &Graph, node: NodeId, attr: AttrId) -> Option<AttrValue> {
        ZScoreDetector::default().suggest(g, node, attr)
    }
}

/// Local context detector: flags a node whose numeric value deviates from
/// the mean of its same-type *graph neighbors* by more than `threshold`
/// neighbor standard deviations. Catches values that are globally plausible
/// but locally inconsistent (Alad's "local context" idea).
pub struct LocalNeighborhoodDetector {
    /// Deviation threshold in neighbor standard deviations.
    pub threshold: f64,
    /// Minimum same-type neighbors needed for a stable local estimate.
    pub min_neighbors: usize,
}

impl Default for LocalNeighborhoodDetector {
    fn default() -> Self {
        LocalNeighborhoodDetector {
            threshold: 4.0,
            min_neighbors: 4,
        }
    }
}

impl BaseDetector for LocalNeighborhoodDetector {
    fn name(&self) -> String {
        format!("local-dev({})", self.threshold)
    }

    fn class(&self) -> DetectorClass {
        DetectorClass::Outlier
    }

    fn detect(&self, g: &Graph) -> Vec<Detection> {
        let nbrs = g.neighbor_lists();
        let mut out = Vec::new();
        // Cache per (type, attr) value lookup to avoid re-walking nodes.
        let mut value_cache: HashMap<(NodeTypeId, AttrId), HashMap<NodeId, f64>> = HashMap::new();
        for (t, a) in numeric_slices(g) {
            let col = numeric_column(g, t, a);
            if !col.is_empty() {
                value_cache.insert((t, a), col.into_iter().collect());
            }
        }
        for (id, node) in g.nodes() {
            for (attr, value) in node.attrs() {
                if g.schema.attr_kind(attr) != AttrKind::Numeric {
                    continue;
                }
                let Some(v) = value.as_f64() else { continue };
                let Some(cache) = value_cache.get(&(node.node_type, attr)) else {
                    continue;
                };
                let neigh_vals: Vec<f64> = nbrs[id]
                    .iter()
                    .filter_map(|n| cache.get(n).copied())
                    .collect();
                if neigh_vals.len() < self.min_neighbors {
                    continue;
                }
                let mean = stats::mean(&neigh_vals);
                let sd = stats::std_dev(&neigh_vals).max(1e-9);
                let dev = (v - mean).abs() / sd;
                if dev > self.threshold {
                    out.push(Detection {
                        node: id,
                        attr,
                        confidence: 0.6,
                        message: format!(
                            "{} deviates {dev:.1}σ from its {} neighbors",
                            g.schema.attr_name(attr),
                            neigh_vals.len()
                        ),
                    });
                }
            }
        }
        out
    }

    fn suggest(&self, g: &Graph, node: NodeId, attr: AttrId) -> Option<AttrValue> {
        let nbrs = g.neighbor_lists();
        let t = g.node(node).node_type;
        let vals: Vec<f64> = nbrs[node]
            .iter()
            .filter(|&&n| g.node(n).node_type == t)
            .filter_map(|&n| g.node(n).get(attr).and_then(AttrValue::as_f64))
            .collect();
        if vals.len() < self.min_neighbors {
            return None;
        }
        Some(AttrValue::Float(stats::median(&vals)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 30 films with score ~7.5 ± small noise, one with score 0.5.
    fn graph_with_outlier() -> (Graph, NodeId) {
        let mut g = Graph::new();
        let mut bad = 0;
        for i in 0..30 {
            let score = 7.0 + (i % 5) as f64 * 0.25;
            let id = g.add_node_with("film", &[("score", AttrKind::Numeric, score.into())]);
            if i > 0 {
                g.add_edge_named(id - 1, id, "rel");
            }
            bad = id;
        }
        let score = g.schema.find_attr("score").unwrap();
        g.node_mut(bad).set(score, 0.5.into());
        (g, bad)
    }

    #[test]
    fn zscore_flags_spike() {
        let (g, bad) = graph_with_outlier();
        let d = ZScoreDetector::default().detect(&g);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].node, bad);
        assert!(d[0].confidence >= 0.5);
    }

    #[test]
    fn zscore_suggests_median() {
        let (g, bad) = graph_with_outlier();
        let score = g.schema.find_attr("score").unwrap();
        let s = ZScoreDetector::default().suggest(&g, bad, score).unwrap();
        let v = s.as_f64().unwrap();
        assert!((7.0..8.0).contains(&v), "suggested {v}");
    }

    #[test]
    fn iqr_flags_spike() {
        let (g, bad) = graph_with_outlier();
        let d = IqrDetector::default().detect(&g);
        assert!(d.iter().any(|x| x.node == bad));
    }

    #[test]
    fn clean_data_not_flagged() {
        let mut g = Graph::new();
        for i in 0..30 {
            g.add_node_with(
                "film",
                &[(
                    "score",
                    AttrKind::Numeric,
                    (7.0 + (i % 5) as f64 * 0.25).into(),
                )],
            );
        }
        assert!(ZScoreDetector::default().detect(&g).is_empty());
        assert!(IqrDetector::default().detect(&g).is_empty());
    }

    #[test]
    fn small_population_skipped() {
        let mut g = Graph::new();
        g.add_node_with("t", &[("x", AttrKind::Numeric, 1000.0.into())]);
        g.add_node_with("t", &[("x", AttrKind::Numeric, 1.0.into())]);
        assert!(ZScoreDetector::default().detect(&g).is_empty());
    }

    #[test]
    fn local_detector_catches_local_deviation() {
        // A hub whose neighbors cluster around 100, node value 10 —
        // globally OK (other nodes also have value 10) but locally wrong.
        let mut g = Graph::new();
        let hub = g.add_node_with("u", &[("v", AttrKind::Numeric, 10.0.into())]);
        for i in 0..12 {
            let id = g.add_node_with(
                "u",
                &[("v", AttrKind::Numeric, (100.0 + (i % 3) as f64).into())],
            );
            g.add_edge_named(hub, id, "rel");
        }
        // Background population at 10 to keep global stats broad.
        for _ in 0..12 {
            g.add_node_with("u", &[("v", AttrKind::Numeric, 10.0.into())]);
        }
        let d = LocalNeighborhoodDetector::default().detect(&g);
        assert!(d.iter().any(|x| x.node == hub), "hub not flagged: {d:?}");
        let v = g.schema.find_attr("v").unwrap();
        let s = LocalNeighborhoodDetector::default()
            .suggest(&g, hub, v)
            .unwrap();
        assert!(s.as_f64().unwrap() > 90.0);
    }

    #[test]
    fn local_detector_needs_min_neighbors() {
        let mut g = Graph::new();
        let a = g.add_node_with("u", &[("v", AttrKind::Numeric, 0.0.into())]);
        let b = g.add_node_with("u", &[("v", AttrKind::Numeric, 100.0.into())]);
        g.add_edge_named(a, b, "rel");
        assert!(LocalNeighborhoodDetector::default().detect(&g).is_empty());
    }
}

/// Flags rare categorical/text values: canonical values occurring at most
/// `max_count` times within a sufficiently large `(type, attribute)` slice.
/// This is the classic "rare value" strategy from configuration-free
/// relational detection (Raha); it trades precision for recall by design.
pub struct RareValueDetector {
    /// Maximum occurrences for a value to count as rare.
    pub max_count: usize,
    /// Minimum slice population for rarity to be meaningful.
    pub min_population: usize,
}

impl Default for RareValueDetector {
    fn default() -> Self {
        RareValueDetector {
            max_count: 1,
            min_population: 30,
        }
    }
}

impl BaseDetector for RareValueDetector {
    fn name(&self) -> String {
        format!("rare-value(<={})", self.max_count)
    }

    fn class(&self) -> DetectorClass {
        DetectorClass::StringNoise
    }

    fn detect(&self, g: &Graph) -> Vec<Detection> {
        let mut out = Vec::new();
        for t in 0..g.schema.node_type_count() as u32 {
            for a in 0..g.schema.attr_count() as u32 {
                if g.schema.attr_kind(a) == AttrKind::Numeric {
                    continue;
                }
                let counts = g.value_counts(t, a);
                let total: usize = counts.values().sum();
                if total < self.min_population {
                    continue;
                }
                for (id, node) in g.nodes() {
                    if node.node_type != t {
                        continue;
                    }
                    let Some(v) = node.get(a) else { continue };
                    if v.is_null() {
                        continue;
                    }
                    let c = counts.get(&v.canonical()).copied().unwrap_or(0);
                    if c <= self.max_count {
                        out.push(Detection {
                            node: id,
                            attr: a,
                            confidence: 0.4,
                            message: format!("value '{v}' occurs only {c} time(s) among {total}"),
                        });
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod rare_value_tests {
    use super::*;

    #[test]
    fn rare_values_flagged_common_not() {
        let mut g = Graph::new();
        for i in 0..40 {
            g.add_node_with(
                "t",
                &[(
                    "cat",
                    AttrKind::Categorical,
                    if i == 7 { "unicorn" } else { "common" }.into(),
                )],
            );
        }
        let d = RareValueDetector::default().detect(&g);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].node, 7);
    }

    #[test]
    fn small_slices_skipped() {
        let mut g = Graph::new();
        for i in 0..5 {
            g.add_node_with(
                "t",
                &[("cat", AttrKind::Categorical, format!("v{i}").into())],
            );
        }
        assert!(RareValueDetector::default().detect(&g).is_empty());
    }
}
