//! Query annotation (Section VI): QAnnotate enriches each query node with
//! four types of auxiliary information so oracles can label cheaply and the
//! selector can re-estimate importance:
//!
//! * **Type 1 — soft subgraphs**: the PPR-influential neighborhood of the
//!   query with propagated soft labels. A batch's PPR rows come from one
//!   pass of [`ppr_smooth_matrix`] over the queries' one-hot columns (`P`
//!   is symmetric, so column `j` is query `j`'s row);
//! * **Type 2 — detected errors**: attribute values flagged by base
//!   detectors in Ψ, with normalized confidence;
//! * **Type 3 — suggested corrections**: repairs from "invertible"
//!   detectors (constraint enforcement, dictionary majority, string repair);
//! * **Type 4 — error distribution**: the per-class error probability
//!   estimated from Ψ alone.

use crate::label::Label;
use gale_detect::{DetectorLibrary, LibraryReport};
use gale_graph::value::AttrValue;
use gale_graph::{
    degree_assortativity, ppr_smooth_matrix, AttrId, AttrKind, Graph, NodeId, NodeTypeId,
    PropagationConfig,
};
use gale_tensor::{Matrix, SparseMatrix};
use std::collections::HashMap;

/// One node of a Type-1 soft subgraph.
#[derive(Debug, Clone)]
pub struct SoftNeighbor {
    /// Neighbor node id.
    pub node: NodeId,
    /// PPR influence weight relative to the query node.
    pub influence: f64,
    /// Propagated soft label, when any labeled mass reaches the node.
    pub soft_label: Option<Label>,
}

/// A flagged attribute value (Type 2).
#[derive(Debug, Clone)]
pub struct DetectedError {
    /// Flagged attribute.
    pub attr: AttrId,
    /// Detector that raised the flag.
    pub detector: String,
    /// Combined confidence (detector-local x library-normalized).
    pub confidence: f64,
    /// Human-readable explanation.
    pub message: String,
}

/// A suggested repair (Type 3).
#[derive(Debug, Clone)]
pub struct SuggestedCorrection {
    /// Attribute to repair.
    pub attr: AttrId,
    /// Proposed correct value.
    pub value: AttrValue,
    /// Which detector produced it.
    pub source: String,
}

/// The annotated map `v.M` attached to one query node.
#[derive(Debug, Clone)]
pub struct Annotation {
    /// The annotated query node.
    pub node: NodeId,
    /// Type 1: PPR-influential neighbors with soft labels.
    pub soft_subgraph: Vec<SoftNeighbor>,
    /// Type 2: detector hits on this node.
    pub detected_errors: Vec<DetectedError>,
    /// Type 3: suggested corrections.
    pub corrections: Vec<SuggestedCorrection>,
    /// Type 4: error-class distribution `[constraint, outlier, string]`.
    pub error_distribution: [f64; 3],
    /// The most influential *labeled* node (by PPR weight) and its label.
    pub most_influential_labeled: Option<(NodeId, Label, f64)>,
    /// Global context: degree assortativity of the graph.
    pub degree_assortativity: f64,
    /// Percentile of each numeric attribute value within its `(type, attr)`
    /// population — the distribution context a human checks first when
    /// judging a numeric value ("is \$2.798B a plausible box office?").
    pub numeric_percentiles: Vec<(AttrId, f64)>,
}

/// Size cap of the Type-1 soft subgraph.
pub const SOFT_SUBGRAPH_SIZE: usize = 8;

/// QAnnotate (Fig. 6): annotates a batch of query nodes.
///
/// `report` must be the library's run over `g`; `labeled` is the current
/// example set; `soft` maps node → propagated soft label (from the
/// typicality machinery) when available; `propagation` is the run's `P`,
/// the one that also drives typicality and the soft labels.
#[allow(clippy::too_many_arguments)]
pub fn annotate(
    queries: &[NodeId],
    g: &Graph,
    lib: &DetectorLibrary,
    report: &LibraryReport,
    s_norm: &SparseMatrix,
    labeled: &[(NodeId, Label)],
    soft: &[Option<Label>],
    propagation: &PropagationConfig,
) -> Vec<Annotation> {
    let assort = degree_assortativity(g);
    // Type 1 for the whole batch: column j of one n x k pass is query j's
    // PPR row.
    let mut one_hots = Matrix::zeros(s_norm.rows(), queries.len());
    for (j, &q) in queries.iter().enumerate() {
        one_hots[(q, j)] = 1.0;
    }
    let ppr = ppr_smooth_matrix(s_norm, &one_hots, propagation);
    let populations = numeric_populations(g);
    queries
        .iter()
        .enumerate()
        .map(|(j, &q)| {
            // Keep the query's strongest neighbors: weight descending, ties
            // node-ascending. Only the top `SOFT_SUBGRAPH_SIZE` are sorted.
            let mut ranked: Vec<(NodeId, f64)> = (0..ppr.rows())
                .map(|v| (v, ppr[(v, j)]))
                .filter(|&(v, w)| v != q && w > 1e-9)
                .collect();
            let by_influence = |a: &(NodeId, f64), b: &(NodeId, f64)| {
                b.1.partial_cmp(&a.1)
                    .expect("NaN PPR weight")
                    .then(a.0.cmp(&b.0))
            };
            if ranked.len() > SOFT_SUBGRAPH_SIZE {
                ranked.select_nth_unstable_by(SOFT_SUBGRAPH_SIZE, by_influence);
                ranked.truncate(SOFT_SUBGRAPH_SIZE);
            }
            ranked.sort_unstable_by(by_influence);
            let soft_subgraph = ranked
                .iter()
                .map(|&(v, w)| SoftNeighbor {
                    node: v,
                    influence: w,
                    soft_label: soft.get(v).copied().flatten(),
                })
                .collect();

            // Most influential labeled node over the full PPR row.
            let most_influential_labeled = labeled
                .iter()
                .filter(|(v, _)| *v != q)
                .map(|&(v, l)| (v, l, ppr[(v, j)]))
                .max_by(|a, b| a.2.partial_cmp(&b.2).expect("NaN PPR weight"))
                .filter(|&(_, _, w)| w > 1e-12);

            // Types 2-4 from the library report.
            let detected_errors = report
                .hits(q)
                .iter()
                .map(|&(di, dj)| {
                    let det = &report.per_detector[di][dj];
                    DetectedError {
                        attr: det.attr,
                        detector: report.names[di].clone(),
                        confidence: det.confidence * report.detector_confidence[di],
                        message: det.message.clone(),
                    }
                })
                .collect();
            let corrections = lib
                .suggest_corrections(g, report, q)
                .into_iter()
                .map(|(attr, value, source)| SuggestedCorrection {
                    attr,
                    value,
                    source,
                })
                .collect();

            // Numeric distribution context for the oracle.
            let node = g.node(q);
            let numeric_percentiles = node
                .attrs()
                .filter_map(|(attr, value)| {
                    let x = value.as_f64()?;
                    let population = populations.get(&(node.node_type, attr))?;
                    (population.len >= 8).then(|| (attr, population.fraction_below(x)))
                })
                .collect();
            Annotation {
                node: q,
                soft_subgraph,
                detected_errors,
                corrections,
                error_distribution: report.error_distribution(q),
                most_influential_labeled,
                degree_assortativity: assort,
                numeric_percentiles,
            }
        })
        .collect()
}

/// The numeric values of one `(node type, attribute)` population.
struct NumericPopulation {
    /// The values that are not NaN, ascending.
    sorted: Vec<f64>,
    /// Every value, NaN included.
    len: usize,
}

impl NumericPopulation {
    /// Share of the population strictly below `x`. A NaN is never below
    /// anything, so it counts in the denominator only.
    fn fraction_below(&self, x: f64) -> f64 {
        self.sorted.partition_point(|&p| p < x) as f64 / self.len as f64
    }
}

/// Every numeric attribute's population per node type, built once per
/// [`annotate`] call: each value [`AttrValue::as_f64`] reads.
fn numeric_populations(g: &Graph) -> HashMap<(NodeTypeId, AttrId), NumericPopulation> {
    let mut populations: HashMap<(NodeTypeId, AttrId), NumericPopulation> = HashMap::new();
    for (_, n) in g.nodes() {
        for (attr, value) in n.attrs() {
            if g.schema.attr_kind(attr) != AttrKind::Numeric {
                continue;
            }
            let Some(x) = value.as_f64() else { continue };
            let population = populations
                .entry((n.node_type, attr))
                .or_insert(NumericPopulation {
                    sorted: Vec::new(),
                    len: 0,
                });
            population.len += 1;
            if !x.is_nan() {
                population.sorted.push(x);
            }
        }
    }
    for population in populations.values_mut() {
        population.sorted.sort_unstable_by(f64::total_cmp);
    }
    populations
}

impl Annotation {
    /// `true` when any base detector flagged the node (the simulated
    /// oracle's labeling rule).
    pub fn is_flagged(&self) -> bool {
        !self.detected_errors.is_empty()
    }

    /// Renders the annotation as a human-readable report (used by the case
    /// study and the examples).
    pub fn render(&self, g: &Graph) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "annotation for node {}", self.node);
        let _ = writeln!(
            out,
            "  graph degree assortativity: {:+.3}",
            self.degree_assortativity
        );
        if let Some((v, l, w)) = self.most_influential_labeled {
            let _ = writeln!(
                out,
                "  most influential labeled node: {v} ({l:?}, ppr {w:.4})"
            );
        }
        let _ = writeln!(out, "  soft subgraph ({} nodes):", self.soft_subgraph.len());
        for n in &self.soft_subgraph {
            let _ = writeln!(
                out,
                "    node {} (influence {:.4}, soft label {:?})",
                n.node, n.influence, n.soft_label
            );
        }
        if self.detected_errors.is_empty() {
            let _ = writeln!(out, "  no detector flags");
        }
        for d in &self.detected_errors {
            let _ = writeln!(
                out,
                "  flagged {}: {} [{} @ {:.2}]",
                g.schema.attr_name(d.attr),
                d.message,
                d.detector,
                d.confidence
            );
        }
        for c in &self.corrections {
            let _ = writeln!(
                out,
                "  suggested {} := {} (via {})",
                g.schema.attr_name(c.attr),
                c.value,
                c.source
            );
        }
        for (attr, pct) in &self.numeric_percentiles {
            let _ = writeln!(
                out,
                "  {} sits at the {:.0}th percentile of its population",
                g.schema.attr_name(*attr),
                pct * 100.0
            );
        }
        let [cv, ov, sv] = self.error_distribution;
        let _ = writeln!(
            out,
            "  error distribution: constraint {cv:.2} / outlier {ov:.2} / string {sv:.2}"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gale_graph::AttrKind;

    /// A chain of species with one misspelled order value at node 2.
    fn setup() -> (Graph, DetectorLibrary, LibraryReport, SparseMatrix) {
        let mut g = Graph::new();
        for i in 0..20 {
            let id = g.add_node_with(
                "species",
                &[
                    (
                        "order",
                        AttrKind::Categorical,
                        ["Malvales", "Fabales"][i % 2].into(),
                    ),
                    ("population", AttrKind::Numeric, (100.0 + i as f64).into()),
                ],
            );
            if i > 0 {
                g.add_edge_named(id - 1, id, "rel");
            }
        }
        let order = g.schema.find_attr("order").unwrap();
        g.node_mut(2).set(order, "Melvales".into());
        let lib = DetectorLibrary::standard(Vec::new());
        let report = lib.run(&g);
        let s = g.adjacency().sym_normalized_with_self_loops();
        (g, lib, report, s)
    }

    #[test]
    fn annotation_types_present_for_flagged_node() {
        let (g, lib, report, s) = setup();
        let labeled = vec![(0usize, Label::Correct)];
        let soft = vec![None; 20];
        let anns = annotate(
            &[2],
            &g,
            &lib,
            &report,
            &s,
            &labeled,
            &soft,
            &PropagationConfig::default(),
        );
        assert_eq!(anns.len(), 1);
        let a = &anns[0];
        assert!(a.is_flagged());
        // Type 1: neighbors 1 and 3 dominate the soft subgraph.
        let ids: Vec<NodeId> = a.soft_subgraph.iter().map(|n| n.node).collect();
        assert!(ids.contains(&1) && ids.contains(&3), "{ids:?}");
        assert!(a.soft_subgraph.len() <= 8);
        // Influence sorted descending.
        for w in a.soft_subgraph.windows(2) {
            assert!(w[0].influence >= w[1].influence);
        }
        // Type 2 + 3: misspelling flagged and repaired.
        let order = g.schema.find_attr("order").unwrap();
        assert!(a.detected_errors.iter().any(|d| d.attr == order));
        assert!(a
            .corrections
            .iter()
            .any(|c| c.attr == order && c.value == AttrValue::Text("Malvales".into())));
        // Type 4: string-noise class dominates.
        assert!(a.error_distribution[2] > a.error_distribution[1]);
        // Most influential labeled node is node 0 (closest labeled).
        assert_eq!(a.most_influential_labeled.map(|(v, _, _)| v), Some(0));
    }

    #[test]
    fn clean_node_annotation_is_quiet() {
        let (g, lib, report, s) = setup();
        let anns = annotate(
            &[10],
            &g,
            &lib,
            &report,
            &s,
            &[],
            &[None; 20],
            &PropagationConfig::default(),
        );
        let a = &anns[0];
        assert!(!a.is_flagged());
        assert!(a.corrections.is_empty());
        assert_eq!(a.error_distribution, [0.0, 0.0, 0.0]);
        assert!(a.most_influential_labeled.is_none());
    }

    #[test]
    fn soft_labels_attached_to_subgraph() {
        let (g, lib, report, s) = setup();
        let mut soft = vec![None; 20];
        soft[1] = Some(Label::Error);
        let anns = annotate(
            &[2],
            &g,
            &lib,
            &report,
            &s,
            &[],
            &soft,
            &PropagationConfig::default(),
        );
        let n1 = anns[0]
            .soft_subgraph
            .iter()
            .find(|n| n.node == 1)
            .expect("node 1 in soft subgraph");
        assert_eq!(n1.soft_label, Some(Label::Error));
    }

    #[test]
    fn render_mentions_key_facts() {
        let (g, lib, report, s) = setup();
        let anns = annotate(
            &[2],
            &g,
            &lib,
            &report,
            &s,
            &[(0, Label::Correct)],
            &[None; 20],
            &PropagationConfig::default(),
        );
        let text = anns[0].render(&g);
        assert!(text.contains("annotation for node 2"));
        assert!(text.contains("Malvales"), "no suggestion in: {text}");
        assert!(text.contains("error distribution"));
    }

    #[test]
    fn numeric_percentiles_reflect_rank() {
        let (g, lib, report, s) = setup();
        // Node 19 has the largest population value (100 + 19).
        let anns = annotate(
            &[19, 0],
            &g,
            &lib,
            &report,
            &s,
            &[],
            &[None; 20],
            &PropagationConfig::default(),
        );
        let pop = g.schema.find_attr("population").unwrap();
        let pct_of = |a: &Annotation| {
            a.numeric_percentiles
                .iter()
                .find(|(attr, _)| *attr == pop)
                .map(|(_, p)| *p)
                .expect("population percentile present")
        };
        assert!(
            pct_of(&anns[0]) > 0.9,
            "max value percentile {}",
            pct_of(&anns[0])
        );
        assert!(
            pct_of(&anns[1]) < 0.1,
            "min value percentile {}",
            pct_of(&anns[1])
        );
        // Rendered output mentions the percentile line.
        assert!(anns[0].render(&g).contains("percentile"));
    }

    #[test]
    fn tied_influences_rank_node_ascending() {
        // A star: hub 4 and twelve leaves, which all get the same PPR
        // weight bit for bit. The soft subgraph keeps the eight lowest
        // leaf ids, ascending, as a stable sort of the whole column would.
        let mut g = Graph::new();
        for _ in 0..13 {
            g.add_node_with("species", &[("population", AttrKind::Numeric, 1.0.into())]);
        }
        for v in (0..13).filter(|&v| v != 4) {
            g.add_edge_named(4, v, "rel");
        }
        let lib = DetectorLibrary::standard(Vec::new());
        let report = lib.run(&g);
        let s = g.adjacency().sym_normalized_with_self_loops();
        let cfg = PropagationConfig::default();
        let anns = annotate(&[4], &g, &lib, &report, &s, &[], &[None; 13], &cfg);
        let sub = &anns[0].soft_subgraph;
        let ids: Vec<NodeId> = sub.iter().map(|n| n.node).collect();
        assert_eq!(ids, [0, 1, 2, 3, 5, 6, 7, 8]);
        let w = sub[0].influence.to_bits();
        assert!(sub.iter().all(|n| n.influence.to_bits() == w), "{sub:?}");
    }

    #[test]
    fn nan_values_count_in_the_denominator_only() {
        // Ten values 0..9 and one that parses to NaN: 9.0 has nine of the
        // eleven below it, and the NaN itself has none.
        let mut g = Graph::new();
        for i in 0..11 {
            let value = if i < 10 {
                AttrValue::Float(i as f64)
            } else {
                AttrValue::Text("NaN".into())
            };
            g.add_node_with("species", &[("population", AttrKind::Numeric, value)]);
        }
        let lib = DetectorLibrary::new();
        let report = lib.run(&g);
        let s = g.adjacency().sym_normalized_with_self_loops();
        let cfg = PropagationConfig::default();
        let anns = annotate(&[9, 10], &g, &lib, &report, &s, &[], &[None; 11], &cfg);
        let pct = |a: &Annotation| a.numeric_percentiles[0].1;
        assert_eq!(pct(&anns[0]), 9.0 / 11.0);
        assert_eq!(pct(&anns[1]), 0.0);
    }

    #[test]
    fn subgraph_size_capped() {
        let (g, lib, report, s) = setup();
        let cfg = PropagationConfig::default();
        let anns = annotate(&[10], &g, &lib, &report, &s, &[], &[None; 20], &cfg);
        // Every node but the query is reached on this 20-node chain.
        assert_eq!(anns[0].soft_subgraph.len(), SOFT_SUBGRAPH_SIZE);
    }
}
