//! The stream endpoints with gale-obs telemetry switched on, as
//! `GALE_OBS=1` does. gale-stream books its counters into the same global
//! registry that gale-serve exports from, so a metric name registered as
//! two kinds would panic the event loop inside `/mutate`, and a counter
//! both crates bump would count every event twice. This lives in its own
//! test binary because enabling telemetry is process-global.

use gale_core::{Sgan, SganConfig};
use gale_json::Value;
use gale_nn::{Activation, Gae, Gcn};
use gale_serve::{serve_with_stream, ServeConfig};
use gale_stream::{
    AdmissionConfig, BaseGraph, CompactionPolicy, DeltaGraph, StreamConfig, StreamEngine,
};
use gale_tensor::{Matrix, Rng, SparseMatrix};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

const DX: usize = 4;
const DZ: usize = 3;

fn sgan(rng: &mut Rng) -> Sgan {
    let cfg = SganConfig {
        d_hidden: vec![8, 5],
        g_hidden: vec![8],
        ..Default::default()
    };
    Sgan::new(DX + DZ, &cfg, rng)
}

/// An engine over an 8-node ring (every degree 2) that quarantines any
/// edge touching a node of degree 3 and compacts after every batch that
/// changes the graph, so one `/mutate` reaches every counter gale-stream
/// keeps.
fn engine(rng: &mut Rng) -> StreamEngine {
    let n = 8;
    let ring = (0..n).flat_map(|i| [(i, (i + 1) % n, 1.0), ((i + 1) % n, i, 1.0)]);
    let a = SparseMatrix::from_triplets(n, n, ring);
    let x = Matrix::randn(n, DX, 1.0, rng);
    let gae = Gae::from_parts(Gcn::new_detached(DX, 6, DZ, Activation::Identity, rng), 0.0);
    let sgan = sgan(rng);
    let policy = CompactionPolicy {
        min_churn: 1,
        churn_ratio: 0.0,
    };
    let graph = DeltaGraph::with_policy(BaseGraph::Mem(a), policy);
    let cfg = StreamConfig {
        admission: AdmissionConfig {
            max_degree: 3,
            ..Default::default()
        },
        ..Default::default()
    };
    StreamEngine::new(graph, x, gae, sgan, None, cfg).unwrap()
}

/// One request on its own connection: `(status, raw reply)`.
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    let status = reply
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, reply)
}

/// The value of an unlabelled series in a `/metrics` body.
fn series(metrics: &str, name: &str) -> f64 {
    let prefix = format!("{name} ");
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(&prefix)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("/metrics has no {name}:\n{metrics}"))
}

#[test]
fn mutate_and_node_score_answer_with_telemetry_on() {
    gale_obs::set_enabled(true);
    let _trace = gale_obs::trace::capture_to_memory();
    let mut rng = Rng::seed_from_u64(9);
    let engine = engine(&mut rng);
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..Default::default()
    };
    let handle = serve_with_stream(sgan(&mut rng), &cfg, Some(engine)).unwrap();
    let addr = handle.addr();

    // Each batch admits one edge, quarantines one at the degree cap and
    // compacts; the first also rewrites attributes.
    let batches = [
        r#"{"mutations": [
            {"op": "add_edge", "u": 0, "v": 4},
            {"op": "add_edge", "u": 0, "v": 2},
            {"op": "update_attrs", "node": 1, "attrs": [1, 1, 1, 1]}]}"#,
        r#"{"mutations": [
            {"op": "add_edge", "u": 2, "v": 6},
            {"op": "add_edge", "u": 4, "v": 6}]}"#,
    ];
    for batch in batches {
        let (status, reply) = exchange(addr, "POST", "/mutate", batch);
        assert_eq!(status, 200, "/mutate: {reply}");
        let body = reply.split("\r\n\r\n").nth(1).unwrap();
        let doc = gale_json::from_str(body).unwrap();
        assert_eq!(doc.get("compacted").and_then(Value::as_bool), Some(true));
        let reasons: Vec<_> = doc
            .get("outcomes")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter_map(|o| o.get("reason").and_then(Value::as_str))
            .collect();
        assert_eq!(reasons, ["degree_cap"], "{reply}");
    }
    let (status, reply) = exchange(addr, "POST", "/score", r#"{"nodes": [0, 1, 4]}"#);
    assert_eq!(status, 200, "node-mode /score: {reply}");
    assert!(reply.contains("\"graph_versions\""), "{reply}");

    // Both crates' stream series render side by side, each event counted
    // once.
    let (status, metrics) = exchange(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for (name, expected) in [
        ("stream_mutations", 5.0),
        ("stream_mutations_total", 5.0),
        ("stream_quarantined_edges", 2.0),
        ("stream_quarantined_total", 2.0),
        ("stream_compactions", 2.0),
        ("stream_compactions_total", 2.0),
        ("stream_refreshes", 1.0),
        ("stream_refreshes_total", 1.0),
    ] {
        assert_eq!(series(&metrics, name), expected, "{name}");
    }
    assert!(series(&metrics, "stream_dirty_marked") > 0.0);
    assert_eq!(series(&metrics, "stream_dirty_nodes"), 0.0);
    handle.shutdown();
    gale_obs::set_enabled(false);
}
