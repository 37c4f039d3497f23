//! Exp-4: usability of query annotation — a narrated "hard case" mirroring
//! the paper's Species(DBP) walkthrough (the "cavanillesia" node with a
//! wrong `order` value that no detector catches, repaired through the
//! annotation of a semantically similar typical node).

use crate::harness::{gale_config, paper_budget, Knobs, Method, Scenario};
use gale_core::{run_gale, GroundTruthOracle, Label};
use gale_data::DatasetId;
use gale_detect::DetectorLibrary;
use gale_json::json;
use std::fmt::Write as _;

/// Runs the case study and produces the narrative report.
pub fn casestudy(scale: f64, seed: u64, knobs: &Knobs) -> (String, gale_json::Value) {
    let prep = Scenario::table4(DatasetId::Species, scale, seed).prepare();
    let g = &prep.data.graph;
    let lib = DetectorLibrary::standard(prep.data.constraints.clone());
    let report = lib.run(g);

    // The "hard" population: erroneous test nodes invisible to every base
    // detector in Ψ (like the paper's "cavanillesia" case).
    let hard_nodes: Vec<usize> = prep
        .split
        .test
        .iter()
        .copied()
        .filter(|&v| prep.data.truth.is_erroneous(v) && !report.is_flagged(v))
        .collect();

    let mut out = String::from("Case study: usability of query annotation (Species)\n");
    if hard_nodes.is_empty() {
        let _ = writeln!(
            out,
            "no undetectable erroneous test node in this draw; rerun with another seed"
        );
        return (out, json!({ "id": "casestudy", "found": false }));
    }
    let _ = writeln!(
        out,
        "{} erroneous test nodes are invisible to every detector in Ψ, e.g.:",
        hard_nodes.len()
    );
    let injected = prep
        .data
        .truth
        .errors
        .iter()
        .find(|e| e.node == hard_nodes[0])
        .expect("hard node has an error record");
    let _ = writeln!(
        out,
        "  node {}: attribute '{}' corrupted '{}' -> '{}'",
        hard_nodes[0],
        g.schema.attr_name(injected.attr),
        injected.original,
        injected.corrupted
    );

    // Run GALE; its annotator enriches every query with Types 1-4 data.
    let (budget, k) = paper_budget(DatasetId::Species, scale);
    let cfg = gale_config(Method::Gale, knobs, budget, k, seed ^ 0xca);
    let mut oracle = GroundTruthOracle::new(&prep.data.truth);
    let initial = prep.initial_examples(0.1);
    let outcome = run_gale(
        &prep.data.graph,
        &prep.data.constraints,
        &prep.split,
        &initial,
        &prep.val_examples,
        &mut oracle,
        &cfg,
    );

    // Show the annotation of a flagged query node with suggestions — the
    // counterpart of the paper's v' with the "Melvaceae -> Malvaceae" fix.
    let annotated = outcome
        .last_annotations
        .iter()
        .find(|a| !a.corrections.is_empty())
        .or_else(|| outcome.last_annotations.iter().find(|a| a.is_flagged()));
    if let Some(a) = annotated {
        let _ = writeln!(
            out,
            "\nannotated query node v' = {} (rendered v'.M):",
            a.node
        );
        out.push_str(&a.render(g));
    } else {
        let _ = writeln!(out, "\n(no flagged node among the final queries)");
    }

    // How far does the learned classifier see beyond Ψ? Count the hard
    // (detector-invisible) errors it still catches, and show one.
    let caught: Vec<usize> = hard_nodes
        .iter()
        .copied()
        .filter(|&v| outcome.predictions[v] == Label::Error)
        .collect();
    let _ = writeln!(
        out,
        "\nafter {} oracle queries, the classifier catches {}/{} detector-invisible errors",
        outcome.queries_issued,
        caught.len(),
        hard_nodes.len()
    );
    if let Some(&v) = caught.first() {
        let e = prep
            .data
            .truth
            .errors
            .iter()
            .find(|e| e.node == v)
            .expect("caught node has an error record");
        let _ = writeln!(
            out,
            "  e.g. node {v}: '{}' = '{}' (should be '{}') — no rule or outlier test fires,\n\
             \x20 but the adversarially-trained classifier flags it from its context features",
            g.schema.attr_name(e.attr),
            e.corrupted,
            e.original
        );
    }
    let _ = writeln!(
        out,
        "annotation sizes: soft subgraphs <= {} nodes, {} queries annotated in the final batch",
        gale_core::annotate::SOFT_SUBGRAPH_SIZE,
        outcome.last_annotations.len()
    );
    (
        out,
        json!({
            "id": "casestudy",
            "found": true,
            "hard_nodes": hard_nodes.len(),
            "caught": caught.len(),
            "queries": outcome.queries_issued,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn casestudy_produces_narrative() {
        let (text, j) = casestudy(0.03, 3, &Knobs::quick());
        assert!(text.contains("Case study"));
        // Either we found a hard node and narrate it, or we say why not.
        if j["found"].as_bool().unwrap() {
            assert!(text.contains("invisible to every detector"));
            assert!(text.contains("oracle queries"));
        } else {
            assert!(text.contains("rerun with another seed"));
        }
    }
}
