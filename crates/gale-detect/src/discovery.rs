//! Lightweight constraint mining with support/confidence thresholds.
//!
//! The paper discovers its rule set Σ with the GFD-discovery algorithm of
//! \[17\], keeping rules above minimum support (number of matches) and
//! confidence (fraction of matches satisfying the consequent) — e.g. support
//! 1000/10/20 and confidence 0.9/0.8/0.85 for DBP/OAG/Yelp. This module
//! mines the same three rule shapes [`crate::constraints`] can evaluate.

use crate::constraints::{Constraint, EdgeRelation};
use gale_graph::value::AttrValue;
use gale_graph::{AttrKind, Graph};
use std::collections::{HashMap, HashSet};

/// Mining thresholds.
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// Minimum number of matches (nodes / edges) a rule must cover.
    pub min_support: usize,
    /// Minimum fraction of matches satisfying the consequent.
    pub min_confidence: f64,
    /// Maximum closed-domain size for [`Constraint::Domain`] rules.
    pub max_domain_size: usize,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            min_support: 10,
            min_confidence: 0.8,
            max_domain_size: 32,
        }
    }
}

/// Mines constraints from a (presumed mostly clean) graph.
///
/// Returns every TypeFd, EdgeRule, and Domain rule meeting the thresholds.
pub fn discover_constraints(g: &Graph, cfg: &DiscoveryConfig) -> Vec<Constraint> {
    let mut out = Vec::new();
    out.extend(mine_type_fds(g, cfg));
    out.extend(mine_edge_rules(g, cfg));
    out.extend(mine_domains(g, cfg));
    out
}

/// Mines single-attribute functional dependencies within each node type:
/// `lhs -> rhs` holds when, within each LHS group, one RHS value dominates
/// with frequency >= confidence.
fn mine_type_fds(g: &Graph, cfg: &DiscoveryConfig) -> Vec<Constraint> {
    let mut rules = Vec::new();
    let all_attrs: Vec<u32> = (0..g.schema.attr_count() as u32).collect();
    for t in 0..g.schema.node_type_count() as u32 {
        let nodes = g.nodes_of_type(t);
        if nodes.len() < cfg.min_support {
            continue;
        }
        for &lhs in &all_attrs {
            if g.schema.attr_kind(lhs) == AttrKind::Numeric {
                continue; // continuous determinants make spurious FDs
            }
            for &rhs in &all_attrs {
                if lhs == rhs {
                    continue;
                }
                // Group RHS values by LHS canonical value.
                let mut groups: HashMap<String, HashMap<String, (usize, AttrValue)>> =
                    HashMap::new();
                let mut matches = 0usize;
                for &id in &nodes {
                    let node = g.node(id);
                    let (Some(lv), Some(rv)) = (node.get(lhs), node.get(rhs)) else {
                        continue;
                    };
                    if lv.is_null() || rv.is_null() {
                        continue;
                    }
                    matches += 1;
                    let entry = groups
                        .entry(lv.canonical())
                        .or_default()
                        .entry(rv.canonical())
                        .or_insert((0, rv.clone()));
                    entry.0 += 1;
                }
                if matches < cfg.min_support || groups.is_empty() {
                    continue;
                }
                // Confidence: fraction of rows agreeing with their group's
                // majority RHS value.
                let mut agree = 0usize;
                let mut bindings = HashMap::new();
                for (lv, rhs_counts) in &groups {
                    let (best_count, best_val) = rhs_counts
                        .values()
                        .max_by_key(|(c, _)| *c)
                        .map(|(c, v)| (*c, v.clone()))
                        .expect("non-empty group");
                    agree += best_count;
                    bindings.insert(lv.clone(), best_val);
                }
                let confidence = agree as f64 / matches as f64;
                // Reject trivial FDs where every group is a singleton (keys
                // nearly unique): they cannot generalize.
                let avg_group = matches as f64 / groups.len() as f64;
                if confidence >= cfg.min_confidence && avg_group >= 2.0 {
                    rules.push(Constraint::TypeFd {
                        node_type: t,
                        lhs,
                        rhs,
                        bindings,
                        confidence,
                    });
                }
            }
        }
    }
    rules
}

/// Mines equal/differ rules per (src type, edge type, dst type, attribute).
fn mine_edge_rules(g: &Graph, cfg: &DiscoveryConfig) -> Vec<Constraint> {
    // Key: (src_type, edge_type, dst_type, attr) -> (matches, equal_count).
    let mut counts: HashMap<(u32, u32, u32, u32), (usize, usize)> = HashMap::new();
    for e in g.edges() {
        let (s, d) = (g.node(e.src), g.node(e.dst));
        for (attr, sv) in s.attrs() {
            let Some(dv) = d.get(attr) else { continue };
            if sv.is_null() || dv.is_null() {
                continue;
            }
            let key = (s.node_type, e.edge_type, d.node_type, attr);
            let entry = counts.entry(key).or_insert((0, 0));
            entry.0 += 1;
            if sv.semantically_eq(dv) {
                entry.1 += 1;
            }
        }
    }
    let mut rules = Vec::new();
    for ((st, et, dt, attr), (matches, equal)) in counts {
        if matches < cfg.min_support {
            continue;
        }
        let eq_conf = equal as f64 / matches as f64;
        let ne_conf = 1.0 - eq_conf;
        if eq_conf >= cfg.min_confidence {
            rules.push(Constraint::EdgeRule {
                src_type: st,
                edge_type: et,
                dst_type: dt,
                attr,
                relation: EdgeRelation::MustEqual,
                confidence: eq_conf,
            });
        } else if ne_conf >= cfg.min_confidence {
            rules.push(Constraint::EdgeRule {
                src_type: st,
                edge_type: et,
                dst_type: dt,
                attr,
                relation: EdgeRelation::MustDiffer,
                confidence: ne_conf,
            });
        }
    }
    rules
}

/// Mines closed domains for categorical attributes whose observed value set
/// is small relative to the population.
fn mine_domains(g: &Graph, cfg: &DiscoveryConfig) -> Vec<Constraint> {
    let mut rules = Vec::new();
    for t in 0..g.schema.node_type_count() as u32 {
        let nodes = g.nodes_of_type(t);
        if nodes.len() < cfg.min_support {
            continue;
        }
        for attr in 0..g.schema.attr_count() as u32 {
            if g.schema.attr_kind(attr) != AttrKind::Categorical {
                continue;
            }
            let counts = g.value_counts(t, attr);
            let total: usize = counts.values().sum();
            if total < cfg.min_support || counts.is_empty() {
                continue;
            }
            if counts.len() <= cfg.max_domain_size {
                // Keep only values seen more than once; singletons are more
                // likely noise than legitimate domain members.
                let allowed: HashSet<String> = counts
                    .iter()
                    .filter(|(_, &c)| c > 1)
                    .map(|(v, _)| v.clone())
                    .collect();
                if allowed.is_empty() {
                    continue;
                }
                let covered: usize = counts
                    .iter()
                    .filter(|(v, _)| allowed.contains(*v))
                    .map(|(_, &c)| c)
                    .sum();
                let confidence = covered as f64 / total as f64;
                if confidence >= cfg.min_confidence {
                    rules.push(Constraint::Domain {
                        node_type: t,
                        attr,
                        allowed,
                        confidence,
                    });
                }
            }
        }
    }
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use gale_graph::AttrKind;

    /// 40 films: franchise determines studio perfectly; genre is a small
    /// closed domain; `subsequent` edges connect different years.
    fn corpus() -> Graph {
        let mut g = Graph::new();
        let franchises = [("avengers", "marvel"), ("batman", "dc")];
        let genres = ["action", "drama"];
        let mut prev: Option<usize> = None;
        for i in 0..40 {
            let (fr, st) = franchises[i % 2];
            let id = g.add_node_with(
                "film",
                &[
                    ("franchise", AttrKind::Categorical, fr.into()),
                    ("studio", AttrKind::Categorical, st.into()),
                    ("genre", AttrKind::Categorical, genres[i % 2].into()),
                    ("year", AttrKind::Numeric, (2000 + i as i64).into()),
                ],
            );
            if let Some(p) = prev {
                g.add_edge_named(p, id, "subsequent");
            }
            prev = Some(id);
        }
        g
    }

    #[test]
    fn discovers_perfect_fd() {
        let g = corpus();
        let rules = discover_constraints(&g, &DiscoveryConfig::default());
        let fr = g.schema.find_attr("franchise").unwrap();
        let st = g.schema.find_attr("studio").unwrap();
        let fd = rules
            .iter()
            .find(|r| matches!(r, Constraint::TypeFd { lhs, rhs, .. } if *lhs == fr && *rhs == st));
        let Some(Constraint::TypeFd {
            bindings,
            confidence,
            ..
        }) = fd
        else {
            panic!("franchise -> studio FD not discovered: {rules:?}");
        };
        assert!(*confidence > 0.99);
        assert_eq!(
            bindings.get("avengers"),
            Some(&AttrValue::Text("marvel".into()))
        );
    }

    #[test]
    fn discovers_must_differ_edge_rule_on_years() {
        let g = corpus();
        let rules = discover_constraints(&g, &DiscoveryConfig::default());
        let yr = g.schema.find_attr("year").unwrap();
        assert!(
            rules.iter().any(|r| matches!(
                r,
                Constraint::EdgeRule {
                    attr,
                    relation: EdgeRelation::MustDiffer,
                    ..
                } if *attr == yr
            )),
            "year must-differ rule missing: {rules:?}"
        );
    }

    #[test]
    fn discovers_closed_domain() {
        let g = corpus();
        let rules = discover_constraints(&g, &DiscoveryConfig::default());
        let genre = g.schema.find_attr("genre").unwrap();
        let dom = rules.iter().find_map(|r| match r {
            Constraint::Domain { attr, allowed, .. } if *attr == genre => Some(allowed),
            _ => None,
        });
        let allowed = dom.expect("genre domain missing");
        assert!(allowed.contains("action") && allowed.contains("drama"));
        assert_eq!(allowed.len(), 2);
    }

    #[test]
    fn support_threshold_filters_small_types() {
        let mut g = corpus();
        // A rare node type below min_support yields no rules.
        g.add_node_with("rare", &[("x", AttrKind::Categorical, "v".into())]);
        let rules = discover_constraints(&g, &DiscoveryConfig::default());
        let rare = g.schema.find_node_type("rare").unwrap();
        assert!(!rules.iter().any(|r| matches!(
            r,
            Constraint::Domain { node_type, .. } if *node_type == rare
        )));
    }

    #[test]
    fn noisy_fd_respects_confidence_threshold() {
        let mut g = corpus();
        // Corrupt 30% of studios: FD confidence drops below 0.8.
        let st = g.schema.find_attr("studio").unwrap();
        let film = g.schema.find_node_type("film").unwrap();
        let nodes = g.nodes_of_type(film);
        for &id in nodes.iter().take(12) {
            g.node_mut(id).set(st, "indie".into());
        }
        let rules = discover_constraints(
            &g,
            &DiscoveryConfig {
                min_confidence: 0.9,
                ..Default::default()
            },
        );
        let fr = g.schema.find_attr("franchise").unwrap();
        assert!(!rules.iter().any(|r| matches!(
            r,
            Constraint::TypeFd { lhs, rhs, .. } if *lhs == fr && *rhs == st
        )));
    }

    #[test]
    fn mined_rules_have_no_violations_on_clean_data() {
        let g = corpus();
        let rules = discover_constraints(&g, &DiscoveryConfig::default());
        assert!(!rules.is_empty());
        for r in &rules {
            assert!(
                r.violations(&g).is_empty(),
                "rule {} has violations on the data it was mined from",
                r.describe(&g)
            );
        }
    }
}
