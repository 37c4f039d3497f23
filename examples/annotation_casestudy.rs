//! Annotation case study (the paper's Exp-4): walk through the evidence
//! GALE's QAnnotate attaches to a query node — the soft subgraph, detector
//! hits, suggested corrections, error distribution, and the most influential
//! labeled node — exactly the material that let the paper's student label
//! the "cavanillesia" case correctly.
//!
//! ```sh
//! cargo run --release --example annotation_casestudy
//! ```

use gale::core::annotate::annotate;
use gale::graph::PropagationConfig;
use gale::prelude::*;

fn main() {
    let d = prepare(
        DatasetId::Species,
        0.08,
        &ErrorGenConfig {
            node_error_rate: 0.06,
            ..Default::default()
        },
        7,
    );
    let g = &d.graph;
    gale_obs::info!(
        "species graph: {} nodes, {} edges, {} erroneous",
        g.node_count(),
        g.edge_count(),
        d.truth.error_count()
    );

    // Run the detector library once; its report powers annotation types 2-4.
    let lib = DetectorLibrary::standard(d.constraints.clone());
    let report = lib.run(g);
    let s_norm = g.adjacency().sym_normalized_with_self_loops();

    // Pick interesting nodes to annotate: one detector-flagged erroneous
    // node, one undetectable erroneous node, and one clean node.
    let flagged_err =
        (0..g.node_count()).find(|&v| d.truth.is_erroneous(v) && report.is_flagged(v));
    let hidden_err =
        (0..g.node_count()).find(|&v| d.truth.is_erroneous(v) && !report.is_flagged(v));
    let clean = (0..g.node_count()).find(|&v| !d.truth.is_erroneous(v) && !report.is_flagged(v));

    // A couple of labeled examples so the "most influential labeled node"
    // and soft labels have something to work with.
    let labeled: Vec<(NodeId, Label)> = (0..g.node_count())
        .step_by(37)
        .map(|v| {
            (
                v,
                if d.truth.is_erroneous(v) {
                    Label::Error
                } else {
                    Label::Correct
                },
            )
        })
        .collect();
    let soft: Vec<Option<Label>> = vec![None; g.node_count()];

    for (title, node) in [
        ("detector-flagged erroneous node", flagged_err),
        ("undetectable erroneous node", hidden_err),
        ("clean node", clean),
    ] {
        let Some(v) = node else { continue };
        gale_obs::info!("\n=== {title} (node {v}) ===");
        // Show the node's attributes first.
        for (attr, value) in g.node(v).attrs() {
            gale_obs::info!("  {} = {}", g.schema.attr_name(attr), value);
        }
        if let Some(orig) = d
            .truth
            .errors
            .iter()
            .find(|e| e.node == v)
            .map(|e| (&e.original, &e.corrupted))
        {
            gale_obs::info!(
                "  (ground truth: '{}' was corrupted to '{}')",
                orig.0,
                orig.1
            );
        }
        let anns = annotate(
            &[v],
            g,
            &lib,
            &report,
            &s_norm,
            &labeled,
            &soft,
            &PropagationConfig::default(),
        );
        print!("{}", anns[0].render(g));
    }
}
