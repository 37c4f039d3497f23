//! Streaming endpoints over real sockets: `/mutate` applies deltas and
//! bumps the graph version, node-mode `/score` lazily refreshes dirty
//! verdicts and stamps them with the version, `/debug/stream` exposes the
//! quarantine ring and mutation log, and a server booted *without* a
//! stream engine answers 404 on the stream paths.

use gale_core::{Sgan, SganConfig};
use gale_json::Value;
use gale_nn::{Activation, Gae, Gcn};
use gale_serve::{serve, serve_with_stream, ServeConfig};
use gale_stream::{BaseGraph, DeltaGraph, StreamConfig, StreamEngine};
use gale_tensor::{Matrix, Rng, SparseMatrix};
use std::io::{Read, Write};
use std::net::TcpStream;

const DX: usize = 4;
const DZ: usize = 3;

fn engine(n: usize, seed: u64) -> StreamEngine {
    let mut rng = Rng::seed_from_u64(seed);
    let mut t = Vec::new();
    for i in 0..n {
        let j = (i + 1) % n;
        t.push((i, j, 1.0));
        t.push((j, i, 1.0));
    }
    let a = SparseMatrix::from_triplets(n, n, t);
    let x = Matrix::randn(n, DX, 1.0, &mut rng);
    let gae = Gae::from_parts(Gcn::new(DX, 6, DZ, Activation::Identity, &mut rng), 0.0);
    let sgan = Sgan::new(
        DX + DZ,
        &SganConfig {
            d_hidden: vec![8, 5],
            g_hidden: vec![8],
            ..Default::default()
        },
        &mut rng,
    );
    StreamEngine::new(
        DeltaGraph::new(BaseGraph::Mem(a)),
        x,
        gae,
        sgan,
        None,
        StreamConfig::default(),
    )
    .unwrap()
}

fn shard_model(seed: u64) -> Sgan {
    let mut rng = Rng::seed_from_u64(seed);
    Sgan::new(
        DX + DZ,
        &SganConfig {
            d_hidden: vec![8, 5],
            g_hidden: vec![8],
            ..Default::default()
        },
        &mut rng,
    )
}

fn request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn exchange(addr: std::net::SocketAddr, raw: &[u8]) -> (u16, Value) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let text = String::from_utf8(response).unwrap();
    let status: u16 = text.split_whitespace().nth(1).unwrap().parse().unwrap();
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    let doc = if body.trim().is_empty() {
        Value::Null
    } else {
        gale_json::from_str(body.trim()).unwrap()
    };
    (status, doc)
}

#[test]
fn mutate_then_rescore_round_trip() {
    let handle = serve_with_stream(
        shard_model(5),
        &ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..Default::default()
        },
        Some(engine(16, 5)),
    )
    .unwrap();
    let addr = handle.addr();

    // Baseline verdicts at graph version 0.
    let (status, doc) = exchange(addr, &request("POST", "/score", r#"{"nodes": [0, 3, 9]}"#));
    assert_eq!(status, 200);
    assert_eq!(doc.get("graph_version").and_then(Value::as_u64), Some(0));
    let before = doc.get("error_scores").unwrap().clone();

    // A mutation batch: one edge plus a feature rewrite.
    let (status, doc) = exchange(
        addr,
        &request(
            "POST",
            "/mutate",
            r#"{"mutations": [
                {"op": "add_edge", "u": 0, "v": 9},
                {"op": "update_attrs", "node": 3, "attrs": [9.0, -9.0, 9.0, -9.0]}
            ]}"#,
        ),
    );
    assert_eq!(status, 200, "mutate failed: {doc:?}");
    assert_eq!(doc.get("graph_version").and_then(Value::as_u64), Some(2));
    assert!(doc.get("dirty_nodes").and_then(Value::as_u64).unwrap() > 0);
    let outcomes = doc.get("outcomes").and_then(Value::as_array).unwrap();
    assert_eq!(outcomes.len(), 2);

    // Re-score: verdicts refresh lazily and carry the new version.
    let (status, doc) = exchange(addr, &request("POST", "/score", r#"{"nodes": [0, 3, 9]}"#));
    assert_eq!(status, 200);
    assert_eq!(doc.get("graph_version").and_then(Value::as_u64), Some(2));
    for v in doc.get("graph_versions").and_then(Value::as_array).unwrap() {
        assert_eq!(v.as_u64(), Some(2), "stale verdict version");
    }
    let after = doc.get("error_scores").unwrap();
    assert_ne!(
        format!("{before}"),
        format!("{after}"),
        "mutations around nodes 0/3/9 must change their scores"
    );

    // Feature-body scoring still rides the shard pool on the same path,
    // also when a string value happens to read "nodes": only a top-level
    // `nodes` key selects node mode.
    for body in [
        r#"{"features": [[0.5, -0.5, 0.25, 0.0, 1.0, -1.0, 0.125]]}"#,
        r#"{"features": [[0.5, -0.5, 0.25, 0.0, 1.0, -1.0, 0.125]], "source": "nodes"}"#,
    ] {
        let (status, doc) = exchange(addr, &request("POST", "/score", body));
        assert_eq!(status, 200, "feature body {body} rejected: {doc:?}");
        assert!(doc.get("model_version").is_some());
        let verdicts = doc.get("verdicts").and_then(Value::as_array).unwrap();
        assert_eq!(verdicts.len(), 1);
    }

    // Introspection shows the applied mutations.
    let (status, doc) = exchange(addr, &request("GET", "/debug/stream", ""));
    assert_eq!(status, 200);
    assert_eq!(
        doc.get("mutations_total").and_then(Value::as_f64),
        Some(2.0)
    );
    assert_eq!(doc.get("graph_version").and_then(Value::as_f64), Some(2.0));

    handle.shutdown();
}

#[test]
fn invalid_mutations_are_rejected_not_applied() {
    let handle = serve_with_stream(
        shard_model(6),
        &ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..Default::default()
        },
        Some(engine(8, 6)),
    )
    .unwrap();
    let addr = handle.addr();

    for body in [
        r#"{"mutations": [{"op": "warp", "u": 0}]}"#,
        r#"{"mutations": [{"op": "add_edge", "u": 0, "v": 999}]}"#,
        r#"{"nope": true}"#,
        // A valid mutation ahead of an invalid one: the whole batch is
        // rejected, so the attribute update must not land either.
        r#"{"mutations": [{"op": "update_attrs", "node": 0, "attrs": [1, 2, 3, 4]},
                          {"op": "add_edge", "u": 0, "v": 999}]}"#,
    ] {
        let (status, _) = exchange(addr, &request("POST", "/mutate", body));
        assert_eq!(status, 400, "accepted bad body {body}");
    }
    let (status, _) = exchange(addr, &request("POST", "/score", r#"{"nodes": [999]}"#));
    assert_eq!(status, 400);
    let (status, _) = exchange(addr, &request("GET", "/mutate", ""));
    assert_eq!(status, 405, "GET /mutate must be method-not-allowed");

    // Nothing above may have moved the graph version.
    let (_, doc) = exchange(addr, &request("GET", "/debug/stream", ""));
    assert_eq!(doc.get("graph_version").and_then(Value::as_f64), Some(0.0));
    handle.shutdown();
}

#[test]
fn non_finite_attrs_are_refused_with_nothing_applied() {
    let n = 12;
    let handle = serve_with_stream(
        shard_model(8),
        &ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..Default::default()
        },
        Some(engine(n, 8)),
    )
    .unwrap();
    let addr = handle.addr();

    // `1e400` parses to an infinity. Each batch is refused whole, so the
    // valid edge ahead of the bad row does not land either.
    for body in [
        r#"{"mutations": [{"op": "add_edge", "u": 0, "v": 5},
                          {"op": "update_attrs", "node": 3, "attrs": [1e400, 0, 0, 0]}]}"#,
        r#"{"mutations": [{"op": "add_node", "attrs": [0, -1e400, 0, 0]}]}"#,
    ] {
        let (status, doc) = exchange(addr, &request("POST", "/mutate", body));
        assert_eq!(status, 400, "accepted {body}: {doc:?}");
    }
    let (_, doc) = exchange(addr, &request("GET", "/debug/stream", ""));
    assert_eq!(doc.get("graph_version").and_then(Value::as_f64), Some(0.0));

    // Every node still scores to a number.
    let nodes: Vec<String> = (0..n).map(|v| v.to_string()).collect();
    let body = format!(r#"{{"nodes": [{}]}}"#, nodes.join(", "));
    let (status, doc) = exchange(addr, &request("POST", "/score", &body));
    assert_eq!(status, 200);
    let scores = doc.get("error_scores").and_then(Value::as_array).unwrap();
    assert_eq!(scores.len(), n);
    assert!(
        scores.iter().all(|s| s.as_f64().is_some()),
        "null score after a refused batch: {doc:?}"
    );
    handle.shutdown();
}

#[test]
fn streamless_server_404s_stream_paths() {
    let handle = serve(
        shard_model(7),
        &ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let (status, _) = exchange(addr, &request("POST", "/mutate", r#"{"mutations": []}"#));
    assert_eq!(status, 404);
    let (status, _) = exchange(addr, &request("GET", "/debug/stream", ""));
    assert_eq!(status, 404);
    // A `nodes` body without an engine falls through to feature parsing
    // and fails loudly rather than silently scoring garbage.
    let (status, _) = exchange(addr, &request("POST", "/score", r#"{"nodes": [0]}"#));
    assert_eq!(status, 400);
    handle.shutdown();
}
