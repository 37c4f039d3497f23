//! Cross-crate integration: the annotation module against real generated
//! data, detector library, and propagation — the Section VI contract.

use gale::core::annotate::annotate;
use gale::graph::PropagationConfig;
use gale::prelude::*;

fn setup(seed: u64) -> (PreparedDataset, DetectorLibrary) {
    let d = prepare(
        DatasetId::Species,
        0.08,
        &ErrorGenConfig {
            node_error_rate: 0.08,
            detectable_rate: 1.0,
            ..Default::default()
        },
        seed,
    );
    let lib = DetectorLibrary::standard(d.constraints.clone());
    (d, lib)
}

#[test]
fn annotations_cover_the_four_types_for_detectable_errors() {
    let (d, lib) = setup(21);
    let report = lib.run(&d.graph);
    let s_norm = d.graph.adjacency().sym_normalized_with_self_loops();

    // All detectable erroneous nodes that the library actually flagged.
    let flagged_errors: Vec<NodeId> = d
        .truth
        .erroneous_nodes()
        .iter()
        .copied()
        .filter(|&v| report.is_flagged(v))
        .take(20)
        .collect();
    assert!(
        flagged_errors.len() >= 5,
        "too few flagged errors to test ({})",
        flagged_errors.len()
    );

    let anns = annotate(
        &flagged_errors,
        &d.graph,
        &lib,
        &report,
        &s_norm,
        &[],
        &vec![None; d.graph.node_count()],
        &PropagationConfig::default(),
    );
    let mut with_corrections = 0;
    for a in &anns {
        // Type 2 present by construction.
        assert!(a.is_flagged());
        // Type 4 normalizes to 1.
        let total: f64 = a.error_distribution.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "distribution sums to {total}");
        // Type 1: connected nodes have a non-empty soft subgraph.
        if !d.graph.neighbor_lists()[a.node].is_empty() {
            assert!(
                !a.soft_subgraph.is_empty(),
                "node {} has no subgraph",
                a.node
            );
        }
        if !a.corrections.is_empty() {
            with_corrections += 1;
        }
    }
    // Type 3: a meaningful share of detectable errors get suggestions.
    assert!(
        with_corrections * 3 >= anns.len(),
        "only {with_corrections}/{} annotations carry corrections",
        anns.len()
    );
}

#[test]
fn suggested_corrections_often_restore_ground_truth() {
    let (d, lib) = setup(22);
    let report = lib.run(&d.graph);
    let mut suggested = 0usize;
    let mut exact = 0usize;
    for e in &d.truth.errors {
        for (attr, fix, _) in lib.suggest_corrections(&d.graph, &report, e.node) {
            if attr == e.attr {
                suggested += 1;
                if fix.semantically_eq(&e.original) {
                    exact += 1;
                }
            }
        }
    }
    assert!(suggested >= 10, "only {suggested} corrections suggested");
    // Constraint enforcement and dictionary repair should restore a solid
    // fraction of the polluted values exactly.
    assert!(
        exact * 3 >= suggested,
        "{exact}/{suggested} corrections exact"
    );
}

#[test]
fn ensemble_oracle_agrees_with_detector_flags() {
    let (d, lib) = setup(23);
    let report = lib.run(&d.graph);
    let s_norm = d.graph.adjacency().sym_normalized_with_self_loops();
    let nodes: Vec<NodeId> = (0..d.graph.node_count()).step_by(13).collect();
    let anns = annotate(
        &nodes,
        &d.graph,
        &lib,
        &report,
        &s_norm,
        &[],
        &vec![None; d.graph.node_count()],
        &PropagationConfig::default(),
    );
    let mut oracle = EnsembleOracle::new();
    for a in &anns {
        let label = oracle.label(a);
        assert_eq!(
            label == Label::Error,
            report.is_flagged(a.node),
            "oracle/label mismatch at {}",
            a.node
        );
    }
}

#[test]
fn most_influential_labeled_node_is_topologically_close() {
    let (d, lib) = setup(24);
    let report = lib.run(&d.graph);
    let s_norm = d.graph.adjacency().sym_normalized_with_self_loops();
    let nbrs = d.graph.neighbor_lists();
    // Label the direct neighbor of some query plus a handful of far nodes.
    let query = (0..d.graph.node_count())
        .find(|&v| !nbrs[v].is_empty())
        .expect("a connected node");
    let neighbor = nbrs[query][0];
    let labeled: Vec<(NodeId, Label)> = vec![
        (neighbor, Label::Correct),
        (
            (query + d.graph.node_count() / 2) % d.graph.node_count(),
            Label::Error,
        ),
    ];
    let anns = annotate(
        &[query],
        &d.graph,
        &lib,
        &report,
        &s_norm,
        &labeled,
        &vec![None; d.graph.node_count()],
        &PropagationConfig::default(),
    );
    let (v, _, w) = anns[0].most_influential_labeled.expect("influence found");
    // The direct neighbor should win unless the random far node happens to
    // be closer (possible but rare in a sparse graph); in either case the
    // winner carries positive PPR influence.
    assert!(w > 0.0);
    assert!(labeled.iter().any(|&(l, _)| l == v));
}
