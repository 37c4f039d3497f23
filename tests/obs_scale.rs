//! Telemetry of the out-of-core configuration. `run_gale_scale` runs the
//! same loop as `run_gale`, so it must emit the same span vocabulary
//! (`gale.run`, `gale.represent`, `gale.iteration`, `gale.select`,
//! `gale.annotate`, `gale.train`, `gale.score`), one `gale.iteration` per
//! iteration, and final scoring outside selection — and telemetry must
//! not change a bit of its scores.
//!
//! A single `#[test]` in its own integration binary: the metrics registry
//! and the enabled flag are process-global, so this file must not share a
//! process with other telemetry scenarios.

use gale::core::{run_gale_scale, ScaleGaleConfig};
use gale::graph::PropagationConfig;
use gale::nn::{GaeConfig, MiniBatchConfig};
use gale::prelude::*;
use gale_json::Value;
use std::collections::HashMap;

/// Two feature communities on a sparse graph whose edges mostly stay
/// inside a community; about 10% of the nodes carry the other
/// community's features and are the errors.
fn planted(n: usize, seed: u64) -> (SparseMatrix, Matrix, Vec<bool>) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut triplets = Vec::new();
    for v in 0..n {
        for _ in 0..4 {
            let u = (rng.below(n / 2) * 2 + v % 2) % n;
            if u != v {
                triplets.push((v, u, 1.0));
                triplets.push((u, v, 1.0));
            }
        }
    }
    let truth: Vec<bool> = (0..n).map(|_| rng.chance(0.1)).collect();
    let x = Matrix::from_fn(n, 6, |v, _| {
        let own = if v % 2 == 0 { -2.0 } else { 2.0 };
        let center = if truth[v] { -own } else { own };
        center + rng.gauss() * 0.5
    });
    (SparseMatrix::from_triplets(n, n, triplets), x, truth)
}

fn cfg() -> ScaleGaleConfig {
    ScaleGaleConfig {
        gae: GaeConfig {
            hidden_dim: 12,
            embed_dim: 6,
            epochs: 4,
            ..Default::default()
        },
        minibatch: MiniBatchConfig {
            fanouts: vec![4, 4],
            edge_batch: 64,
            batches_per_epoch: 4,
            seed: 3,
        },
        sgan: SganConfig {
            d_hidden: vec![16, 8],
            g_hidden: vec![16],
            epochs: 30,
            incremental_epochs: 4,
            batch_unsup: 64,
            early_stop_patience: 0,
            ..Default::default()
        },
        local_budget: 6,
        iterations: 3,
        candidate_pool: 64,
        eval_chunk: 50,
        synthetic_rows: 48,
        propagation: PropagationConfig {
            iterations: 8,
            ..Default::default()
        },
        seed: 3,
        ..Default::default()
    }
}

fn bits(data: &[f64]) -> Vec<u64> {
    data.iter().map(|f| f.to_bits()).collect()
}

#[test]
fn out_of_core_loop_emits_the_shared_span_vocabulary() {
    let (a, x, truth) = planted(200, 3);
    let cfg = cfg();
    gale_obs::set_enabled(false);
    let off = run_gale_scale(&a, &x, &truth, &cfg);
    gale_obs::set_enabled(true);
    let trace = gale_obs::trace::capture_to_memory();
    let on = run_gale_scale(&a, &x, &truth, &cfg);
    gale_obs::set_enabled(false);

    let lines = trace.lock().unwrap().clone();
    let spans: Vec<Value> = lines
        .iter()
        .map(|l| gale_json::from_str(l).unwrap_or_else(|e| panic!("bad trace line {l}: {e}")))
        .filter(|v: &Value| v["t"].as_str() == Some("span"))
        .collect();
    let name = |s: &Value| s["name"].as_str().unwrap_or_default().to_string();
    let names: Vec<String> = spans.iter().map(name).collect();
    for expected in [
        "gale.run",
        "gale.represent",
        "gale.select",
        "gale.annotate",
        "gale.train",
        "gale.score",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "missing span {expected}"
        );
    }
    assert_eq!(
        names.iter().filter(|n| *n == "gale.iteration").count(),
        cfg.iterations,
        "one gale.iteration span per iteration"
    );

    // Final scoring is its own phase: no `gale.score` has a `gale.select`
    // among its ancestors.
    let by_id: HashMap<u64, &Value> = spans
        .iter()
        .map(|s| (s["id"].as_u64().expect("span id"), s))
        .collect();
    for score in spans.iter().filter(|s| name(s) == "gale.score") {
        let mut parent = score["parent"].as_u64().unwrap_or(0);
        while parent != 0 {
            let up = by_id[&parent];
            assert_ne!(name(up), "gale.select", "gale.score inside selection");
            parent = up["parent"].as_u64().unwrap_or(0);
        }
    }

    // Telemetry is observation-only.
    assert_eq!(bits(&on.error_scores), bits(&off.error_scores));
    assert_eq!(on.predictions, off.predictions);
    assert_eq!(on.queries_issued, off.queries_issued);
}
