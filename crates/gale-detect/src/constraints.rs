//! GFD-style graph data constraints and their violation detectors.
//!
//! The paper grounds constraint-based detection in graph functional
//! dependencies \[18\] contextualized by patterns. We implement the three rule
//! shapes its examples and evaluation actually exercise:
//!
//! * [`Constraint::TypeFd`] — within one node type, nodes agreeing on the
//!   LHS attribute must agree on the RHS attribute (value binding).
//! * [`Constraint::EdgeRule`] — across an edge of a given type, a pair of
//!   attributes must be equal or must differ (e.g. *"films connected by
//!   `subsequent` must have different release years"*, Example 1).
//! * [`Constraint::Domain`] — an attribute's value must come from a closed
//!   domain (supports "enforcing" corrections, Type 3 annotations).

use crate::detector::{BaseDetector, Detection, DetectorClass};
use gale_graph::value::AttrValue;
use gale_graph::{AttrId, EdgeTypeId, Graph, NodeId, NodeTypeId};
use std::collections::{HashMap, HashSet};

/// How an [`Constraint::EdgeRule`] relates the two endpoint values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeRelation {
    /// Endpoint attribute values must be semantically equal.
    MustEqual,
    /// Endpoint attribute values must differ.
    MustDiffer,
}

/// A graph data constraint.
#[derive(Debug, Clone)]
pub enum Constraint {
    /// `type(v) = t ∧ v.lhs = x ⇒ v.rhs = f(x)`: nodes of one type that share
    /// an LHS value must share the (majority) RHS value.
    TypeFd {
        /// Constrained node type.
        node_type: NodeTypeId,
        /// Determinant attribute.
        lhs: AttrId,
        /// Dependent attribute.
        rhs: AttrId,
        /// Mined binding from LHS canonical value to the expected RHS value.
        bindings: HashMap<String, AttrValue>,
        /// Mining confidence in `[0, 1]`.
        confidence: f64,
    },
    /// An attribute relation across a typed edge.
    EdgeRule {
        /// Source node type.
        src_type: NodeTypeId,
        /// Edge type the rule is scoped to.
        edge_type: EdgeTypeId,
        /// Destination node type.
        dst_type: NodeTypeId,
        /// Attribute compared on both endpoints.
        attr: AttrId,
        /// Required relation.
        relation: EdgeRelation,
        /// Mining confidence in `[0, 1]`.
        confidence: f64,
    },
    /// `type(v) = t ⇒ v.attr ∈ domain`.
    Domain {
        /// Constrained node type.
        node_type: NodeTypeId,
        /// Constrained attribute.
        attr: AttrId,
        /// Canonical forms of the allowed values.
        allowed: HashSet<String>,
        /// Mining confidence in `[0, 1]`.
        confidence: f64,
    },
}

impl Constraint {
    /// Mining confidence of the rule.
    pub fn confidence(&self) -> f64 {
        match self {
            Constraint::TypeFd { confidence, .. }
            | Constraint::EdgeRule { confidence, .. }
            | Constraint::Domain { confidence, .. } => *confidence,
        }
    }

    /// A short human-readable description resolved against a schema.
    pub fn describe(&self, g: &Graph) -> String {
        match self {
            Constraint::TypeFd {
                node_type,
                lhs,
                rhs,
                ..
            } => format!(
                "{}[{} -> {}]",
                g.schema.node_type_name(*node_type),
                g.schema.attr_name(*lhs),
                g.schema.attr_name(*rhs)
            ),
            Constraint::EdgeRule {
                src_type,
                edge_type,
                attr,
                relation,
                ..
            } => format!(
                "{} -{}-> *: {} {}",
                g.schema.node_type_name(*src_type),
                g.schema.edge_type_name(*edge_type),
                g.schema.attr_name(*attr),
                match relation {
                    EdgeRelation::MustEqual => "must match",
                    EdgeRelation::MustDiffer => "must differ",
                }
            ),
            Constraint::Domain {
                node_type, attr, ..
            } => format!(
                "{}.{} in closed domain",
                g.schema.node_type_name(*node_type),
                g.schema.attr_name(*attr)
            ),
        }
    }

    /// Evaluates the constraint over the graph, returning violations as
    /// `(node, attr)` pairs (both endpoints for edge rules, since the rule
    /// cannot tell which side is wrong — exactly the vagueness Example 1
    /// points out).
    pub fn violations(&self, g: &Graph) -> Vec<(NodeId, AttrId)> {
        let mut out = Vec::new();
        match self {
            Constraint::TypeFd {
                node_type,
                lhs,
                rhs,
                bindings,
                ..
            } => {
                for (id, node) in g.nodes() {
                    if node.node_type != *node_type {
                        continue;
                    }
                    let (Some(lv), Some(rv)) = (node.get(*lhs), node.get(*rhs)) else {
                        continue;
                    };
                    if let Some(expected) = bindings.get(&lv.canonical()) {
                        if !rv.semantically_eq(expected) {
                            out.push((id, *rhs));
                        }
                    }
                }
            }
            Constraint::EdgeRule {
                src_type,
                edge_type,
                dst_type,
                attr,
                relation,
                ..
            } => {
                for e in g.edges() {
                    if e.edge_type != *edge_type {
                        continue;
                    }
                    let (s, d) = (g.node(e.src), g.node(e.dst));
                    if s.node_type != *src_type || d.node_type != *dst_type {
                        continue;
                    }
                    let (Some(sv), Some(dv)) = (s.get(*attr), d.get(*attr)) else {
                        continue;
                    };
                    let equal = sv.semantically_eq(dv);
                    let violated = match relation {
                        EdgeRelation::MustEqual => !equal,
                        EdgeRelation::MustDiffer => equal,
                    };
                    if violated {
                        out.push((e.src, *attr));
                        out.push((e.dst, *attr));
                    }
                }
            }
            Constraint::Domain {
                node_type,
                attr,
                allowed,
                ..
            } => {
                for (id, node) in g.nodes() {
                    if node.node_type != *node_type {
                        continue;
                    }
                    if let Some(v) = node.get(*attr) {
                        if !allowed.contains(&v.canonical()) {
                            out.push((id, *attr));
                        }
                    }
                }
            }
        }
        out
    }

    /// Suggested correct value for a flagged `(node, attr)`, by "enforcing"
    /// the constraint (the paper's Type-3 annotation source).
    pub fn enforce(&self, g: &Graph, node: NodeId, attr: AttrId) -> Option<AttrValue> {
        match self {
            Constraint::TypeFd {
                node_type,
                lhs,
                rhs,
                bindings,
                ..
            } => {
                if attr != *rhs || g.node(node).node_type != *node_type {
                    return None;
                }
                let lv = g.node(node).get(*lhs)?;
                bindings.get(&lv.canonical()).cloned()
            }
            Constraint::Domain {
                node_type,
                attr: cattr,
                allowed,
                ..
            } => {
                if attr != *cattr || g.node(node).node_type != *node_type {
                    return None;
                }
                let v = g.node(node).get(attr)?;
                let s = v.canonical();
                // Closest allowed value by edit distance (string repair).
                allowed
                    .iter()
                    .min_by_key(|a| gale_tensor::distance::levenshtein(&s, a))
                    .map(|best| AttrValue::Text(best.clone()))
            }
            Constraint::EdgeRule { .. } => None, // inherently ambiguous
        }
    }
}

/// A detector wrapping a set of constraints Σ; one instance per rule class is
/// also possible, but the library keeps a single aggregated detector whose
/// confidence is the triggering rule's mining confidence.
pub struct ConstraintDetector {
    /// The rule set Σ.
    pub constraints: Vec<Constraint>,
    label: String,
}

impl ConstraintDetector {
    /// Creates a constraint detector over a rule set.
    pub fn new(constraints: Vec<Constraint>, label: impl Into<String>) -> Self {
        ConstraintDetector {
            constraints,
            label: label.into(),
        }
    }
}

impl BaseDetector for ConstraintDetector {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn class(&self) -> DetectorClass {
        DetectorClass::Constraint
    }

    fn detect(&self, g: &Graph) -> Vec<Detection> {
        let mut out = Vec::new();
        for c in &self.constraints {
            let desc = c.describe(g);
            for (node, attr) in c.violations(g) {
                out.push(Detection {
                    node,
                    attr,
                    confidence: c.confidence(),
                    message: format!("violates {desc}"),
                });
            }
        }
        out
    }

    fn suggest(&self, g: &Graph, node: NodeId, attr: AttrId) -> Option<AttrValue> {
        self.constraints
            .iter()
            .filter_map(|c| c.enforce(g, node, attr))
            .next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gale_graph::AttrKind;

    /// Films where `franchise` functionally determines `studio`, a
    /// `subsequent` edge rule on release years, and one corrupted node.
    fn film_graph() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let mut ids = Vec::new();
        let data = [
            ("A1", "avengers", "marvel", 2012),
            ("A2", "avengers", "marvel", 2015),
            ("A3", "avengers", "dc", 2018), // FD violation (studio)
            ("B1", "batman", "dc", 2015),
            ("B2", "batman", "dc", 2015),
        ];
        for (name, fr, st, yr) in data {
            ids.push(g.add_node_with(
                "film",
                &[
                    ("name", AttrKind::Text, name.into()),
                    ("franchise", AttrKind::Categorical, fr.into()),
                    ("studio", AttrKind::Categorical, st.into()),
                    ("year", AttrKind::Numeric, (yr as i64).into()),
                ],
            ));
        }
        g.add_edge_named(ids[0], ids[1], "subsequent");
        g.add_edge_named(ids[3], ids[4], "subsequent"); // same year: violates MustDiffer
        (g, ids)
    }

    fn fd(g: &Graph) -> Constraint {
        let film = g.schema.find_node_type("film").unwrap();
        let fr = g.schema.find_attr("franchise").unwrap();
        let st = g.schema.find_attr("studio").unwrap();
        let mut bindings = HashMap::new();
        bindings.insert("avengers".to_string(), AttrValue::Text("marvel".into()));
        bindings.insert("batman".to_string(), AttrValue::Text("dc".into()));
        Constraint::TypeFd {
            node_type: film,
            lhs: fr,
            rhs: st,
            bindings,
            confidence: 0.9,
        }
    }

    #[test]
    fn type_fd_flags_only_violator() {
        let (g, ids) = film_graph();
        let v = fd(&g).violations(&g);
        let st = g.schema.find_attr("studio").unwrap();
        assert_eq!(v, vec![(ids[2], st)]);
    }

    #[test]
    fn type_fd_enforce_suggests_binding() {
        let (g, ids) = film_graph();
        let st = g.schema.find_attr("studio").unwrap();
        let suggestion = fd(&g).enforce(&g, ids[2], st);
        assert_eq!(suggestion, Some(AttrValue::Text("marvel".into())));
        // Non-flagged attribute yields nothing.
        let yr = g.schema.find_attr("year").unwrap();
        assert_eq!(fd(&g).enforce(&g, ids[2], yr), None);
    }

    #[test]
    fn edge_rule_must_differ_flags_both_endpoints() {
        let (g, ids) = film_graph();
        let film = g.schema.find_node_type("film").unwrap();
        let yr = g.schema.find_attr("year").unwrap();
        let seq = g.schema.find_edge_type("subsequent").unwrap();
        let rule = Constraint::EdgeRule {
            src_type: film,
            edge_type: seq,
            dst_type: film,
            attr: yr,
            relation: EdgeRelation::MustDiffer,
            confidence: 0.8,
        };
        let v = rule.violations(&g);
        // B1-B2 share year 2015: both flagged (the rule cannot say which).
        assert_eq!(v.len(), 2);
        assert!(v.contains(&(ids[3], yr)));
        assert!(v.contains(&(ids[4], yr)));
        assert!(rule.enforce(&g, ids[3], yr).is_none());
    }

    #[test]
    fn edge_rule_must_equal() {
        let (g, ids) = film_graph();
        let film = g.schema.find_node_type("film").unwrap();
        let fr = g.schema.find_attr("franchise").unwrap();
        let seq = g.schema.find_edge_type("subsequent").unwrap();
        let rule = Constraint::EdgeRule {
            src_type: film,
            edge_type: seq,
            dst_type: film,
            attr: fr,
            relation: EdgeRelation::MustEqual,
            confidence: 0.8,
        };
        // A1-A2 same franchise, B1-B2 same franchise: no violations.
        assert!(rule.violations(&g).is_empty());
        // Now break one.
        let mut g2 = g.clone();
        g2.node_mut(ids[1]).set(fr, "x-men".into());
        assert_eq!(rule.violations(&g2).len(), 2);
    }

    #[test]
    fn domain_rule_flags_and_repairs() {
        let (g, ids) = film_graph();
        let film = g.schema.find_node_type("film").unwrap();
        let st = g.schema.find_attr("studio").unwrap();
        let mut g2 = g.clone();
        g2.node_mut(ids[0]).set(st, "marvle".into()); // misspelled
        let rule = Constraint::Domain {
            node_type: film,
            attr: st,
            allowed: ["marvel", "dc"].iter().map(|s| s.to_string()).collect(),
            confidence: 1.0,
        };
        let v = rule.violations(&g2);
        assert_eq!(v, vec![(ids[0], st)]);
        assert_eq!(
            rule.enforce(&g2, ids[0], st),
            Some(AttrValue::Text("marvel".into()))
        );
    }

    #[test]
    fn detector_aggregates_rules() {
        let (g, ids) = film_graph();
        let film = g.schema.find_node_type("film").unwrap();
        let yr = g.schema.find_attr("year").unwrap();
        let seq = g.schema.find_edge_type("subsequent").unwrap();
        let det = ConstraintDetector::new(
            vec![
                fd(&g),
                Constraint::EdgeRule {
                    src_type: film,
                    edge_type: seq,
                    dst_type: film,
                    attr: yr,
                    relation: EdgeRelation::MustDiffer,
                    confidence: 0.8,
                },
            ],
            "sigma",
        );
        let d = det.detect(&g);
        assert_eq!(d.len(), 3);
        assert!(d.iter().any(|x| x.node == ids[2]));
        assert_eq!(det.class(), DetectorClass::Constraint);
        let st = g.schema.find_attr("studio").unwrap();
        assert!(det.suggest(&g, ids[2], st).is_some());
    }

    #[test]
    fn missing_attrs_are_skipped() {
        let (mut g, ids) = film_graph();
        let st = g.schema.find_attr("studio").unwrap();
        g.node_mut(ids[2]).remove(st);
        // Violator no longer has the RHS: no violation reported by the FD.
        assert!(fd(&g).violations(&g).is_empty());
    }
}
