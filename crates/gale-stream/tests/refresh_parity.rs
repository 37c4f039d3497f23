//! Engine-level parity: after any mutation stream, the incremental
//! refresh produces verdicts bitwise-equal to building a fresh engine
//! over the mutated graph with the same model artifacts, and a bundle
//! round trip preserves every bit.

use gale_core::{Sgan, SganConfig};
use gale_nn::{Activation, Gae, Gcn};
use gale_stream::{
    load_bundle, save_bundle, BaseGraph, DeltaGraph, Mutation, StreamConfig, StreamEngine,
};
use gale_tensor::{Matrix, Rng, SparseMatrix};
use proptest::prelude::*;
use std::collections::BTreeSet;

const DX: usize = 4;
const HID: usize = 6;
const DZ: usize = 3;

/// Deterministic model pair: same seed → identical weight bits.
fn artifacts(seed: u64) -> (Gae, Sgan) {
    let mut rng = Rng::seed_from_u64(seed);
    let gae = Gae::from_parts(Gcn::new(DX, HID, DZ, Activation::Identity, &mut rng), 0.0);
    let cfg = SganConfig {
        d_hidden: vec![8, 5],
        g_hidden: vec![8],
        ..Default::default()
    };
    let sgan = Sgan::new(DX + DZ, &cfg, &mut rng);
    (gae, sgan)
}

fn random_graph(n: usize, seed: u64) -> (SparseMatrix, Matrix) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut edges = BTreeSet::new();
    for _ in 0..(n * 2) {
        let u = rng.below(n);
        let v = rng.below(n);
        if u != v {
            edges.insert((u.min(v), u.max(v)));
        }
    }
    let mut t = Vec::new();
    for (u, v) in edges {
        t.push((u, v, 1.0));
        t.push((v, u, 1.0));
    }
    let a = SparseMatrix::from_triplets(n, n, t);
    let mut x = Matrix::zeros(n, DX);
    for r in 0..n {
        for c in 0..DX {
            x[(r, c)] = rng.f64() * 2.0 - 1.0;
        }
    }
    (a, x)
}

fn random_mutations(n: usize, count: usize, seed: u64) -> Vec<Mutation> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xabcd_1234);
    let mut muts = Vec::new();
    let mut nodes = n;
    for _ in 0..count {
        match rng.next_u64() % 8 {
            0..=2 => {
                let u = rng.below(nodes);
                let v = rng.below(nodes);
                if u != v {
                    muts.push(Mutation::AddEdge { u, v, weight: 1.0 });
                }
            }
            3..=4 => {
                let u = rng.below(nodes);
                let v = rng.below(nodes);
                if u != v {
                    muts.push(Mutation::RemoveEdge { u, v });
                }
            }
            5 => {
                let attrs = (0..DX).map(|_| rng.f64() * 2.0 - 1.0).collect();
                muts.push(Mutation::UpdateAttrs {
                    node: rng.below(nodes),
                    attrs,
                });
            }
            6 => {
                let attrs = (0..DX).map(|_| rng.f64() * 2.0 - 1.0).collect();
                muts.push(Mutation::AddNode { attrs });
                nodes += 1;
            }
            _ => {
                muts.push(Mutation::RemoveNode {
                    node: rng.below(nodes),
                });
            }
        }
    }
    muts
}

fn engine_over(a: SparseMatrix, x: Matrix, seed: u64) -> StreamEngine {
    let (gae, sgan) = artifacts(seed);
    let mut cfg = StreamConfig::default();
    // Parity runs must apply every mutation the reference applies.
    cfg.admission.enabled = false;
    StreamEngine::new(DeltaGraph::new(BaseGraph::Mem(a)), x, gae, sgan, None, cfg)
        .expect("engine build")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn incremental_refresh_matches_from_scratch(
        n in 5usize..24,
        count in 1usize..24,
        seed in 0u64..500,
    ) {
        let (a, x) = random_graph(n, seed);
        let mut live = engine_over(a, x, seed);
        let muts = random_mutations(n, count, seed);
        live.apply(&muts).expect("mutations apply");
        let incremental = live.all_scores();

        // From-scratch reference over the mutated graph with the same
        // artifacts and the same frozen standardizer.
        let (gae, sgan) = artifacts(seed);
        let mut cfg = StreamConfig::default();
        cfg.admission.enabled = false;
        let mut fresh = StreamEngine::new(
            DeltaGraph::new(BaseGraph::Mem(live.snapshot_graph())),
            live.features().clone(),
            gae,
            sgan,
            Some(live.standardizer().clone()),
            cfg,
        )
        .expect("reference build");
        let reference = fresh.all_scores();

        prop_assert_eq!(incremental.len(), reference.len());
        for (i, r) in incremental.iter().zip(&reference) {
            prop_assert_eq!(i.node, r.node);
            for d in 0..3 {
                prop_assert_eq!(
                    i.probs[d].to_bits(),
                    r.probs[d].to_bits(),
                    "node {} prob {} bits", i.node, d
                );
            }
            prop_assert_eq!(i.score.to_bits(), r.score.to_bits(), "node {}", i.node);
            prop_assert_eq!(i.erroneous, r.erroneous, "node {}", i.node);
        }
    }
}

#[test]
fn graph_version_stamps_refreshed_verdicts() {
    let (a, x) = random_graph(10, 42);
    let mut engine = engine_over(a, x, 42);
    assert_eq!(engine.graph_version(), 0);

    let report = engine
        .apply(&[Mutation::AddEdge {
            u: 0,
            v: 5,
            weight: 1.0,
        }])
        .unwrap();
    assert_eq!(report.graph_version, 1);
    assert!(report.dirty > 0, "edge mutation must dirty its closure");

    let scores = engine.score_nodes(&[0, 5]).unwrap();
    for s in &scores {
        assert_eq!(s.graph_version, 1, "refreshed verdicts carry the version");
    }
    assert_eq!(engine.dirty_count(), 0, "scoring drains the dirty set");
}

#[test]
fn bundle_roundtrip_preserves_verdict_bits() {
    let n = 12;
    let (a, x) = random_graph(n, 99);
    let mut direct = engine_over(a.clone(), x.clone(), 99);
    let expected = direct.all_scores();

    let dir = std::env::temp_dir().join(format!("gale-stream-bundle-{}", std::process::id()));
    let (gae, sgan) = artifacts(99);
    save_bundle(&dir, &a, &x, &gae, &sgan, direct.standardizer()).expect("save bundle");
    let mut cfg = StreamConfig::default();
    cfg.admission.enabled = false;
    let mut loaded = load_bundle(&dir, cfg).expect("load bundle");
    let got = loaded.all_scores();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(got.len(), expected.len());
    for (g, e) in got.iter().zip(&expected) {
        for d in 0..3 {
            assert_eq!(g.probs[d].to_bits(), e.probs[d].to_bits());
        }
        assert_eq!(g.score.to_bits(), e.score.to_bits());
        assert_eq!(g.erroneous, e.erroneous);
    }
}

#[test]
fn bundle_with_a_column_past_the_last_row_is_refused() {
    let n = 12;
    let (a, x) = random_graph(n, 7);
    let direct = engine_over(a.clone(), x.clone(), 7);
    let dir = std::env::temp_dir().join(format!("gale-stream-wide-{}", std::process::id()));
    let (gae, sgan) = artifacts(7);
    save_bundle(&dir, &a, &x, &gae, &sgan, direct.standardizer()).expect("save bundle");
    // n rows over n + 1 columns: every column is in range of the store's
    // own header, but node 0's neighbor `n` is not a node.
    let wide = SparseMatrix::from_triplets(n, n + 1, [(0, n, 1.0), (1, 0, 1.0)]);
    gale_graph::write_csr(&wide, n + 1, dir.join(gale_stream::bundle::GRAPH)).unwrap();
    let err = load_bundle(&dir, StreamConfig::default()).err();
    std::fs::remove_dir_all(&dir).ok();
    let err = err.expect("a non-square graph must not load");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
}
