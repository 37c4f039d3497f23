//! End-to-end tests of the request-tracing layer: request ids in `/score`
//! replies, wide events with all seven stage timings in `/debug/trace`,
//! tail capture in `/debug/slow`, shard introspection in `/debug/queues`,
//! and bitwise-identical scores with tracing on vs off.
//!
//! The trace rings and policy are process-global, so every test takes the
//! `GLOBAL` lock and resets the rings before booting its server.

use gale_core::{Sgan, SganConfig};
use gale_json::Value;
use gale_serve::{serve, ServeConfig};
use gale_tensor::{Matrix, Rng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;

static GLOBAL: Mutex<()> = Mutex::new(());

/// Every stage-timing key a wide event must carry.
const STAGE_KEYS: [&str; 7] = [
    "read_us",
    "parse_us",
    "dispatch_us",
    "queue_us",
    "assembly_us",
    "forward_us",
    "write_us",
];

fn tiny_model(dim: usize, seed: u64) -> Sgan {
    let mut rng = Rng::seed_from_u64(seed);
    Sgan::new(
        dim,
        &SganConfig {
            d_hidden: vec![8, 4],
            g_hidden: vec![8],
            ..Default::default()
        },
        &mut rng,
    )
}

struct Response {
    status: u16,
    body: Vec<u8>,
}

impl Response {
    fn json(&self) -> Value {
        gale_json::from_str(std::str::from_utf8(&self.body).unwrap()).unwrap()
    }
}

fn exchange(addr: SocketAddr, raw: &[u8]) -> Response {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw).unwrap();
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).unwrap();
    let split = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("no header terminator");
    let head = String::from_utf8(bytes[..split].to_vec()).unwrap();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("no status code");
    Response {
        status,
        body: bytes[split + 4..].to_vec(),
    }
}

fn get(addr: SocketAddr, path: &str) -> Response {
    exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Response {
    exchange(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

fn score_request_body(x: &Matrix) -> String {
    let rows: Vec<String> = (0..x.rows())
        .map(|r| {
            let vals: Vec<String> = (0..x.cols()).map(|c| format!("{:?}", x[(r, c)])).collect();
            format!("[{}]", vals.join(","))
        })
        .collect();
    format!("{{\"features\": [{}]}}", rows.join(","))
}

fn traced_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        trace: true,
        trace_sample: 1, // keep every request: the tests assert on records
        trace_slow_us: u64::MAX,
        ..Default::default()
    }
}

#[test]
fn score_replies_carry_request_ids_and_trace_records_all_stages() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    gale_obs::ring::clear();
    let dim = 4;
    let handle = serve(tiny_model(dim, 11), &traced_config()).unwrap();
    let addr = handle.addr();

    let x = Matrix::randn(3, dim, 1.0, &mut Rng::seed_from_u64(12));
    let body = score_request_body(&x);
    let mut ids = Vec::new();
    for _ in 0..3 {
        let reply = post(addr, "/score", &body);
        assert_eq!(reply.status, 200);
        let id = reply
            .json()
            .get("request_id")
            .and_then(Value::as_u64)
            .expect("/score reply must carry request_id");
        ids.push(id);
    }
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids ascend: {ids:?}");

    let debug = get(addr, "/debug/trace");
    assert_eq!(debug.status, 200);
    let doc = debug.json();
    let stats = doc.get("stats").expect("stats object");
    assert_eq!(stats["enabled"].as_bool(), Some(true));
    assert_eq!(stats["sample_every"].as_u64(), Some(1));
    let records = doc.get("trace").unwrap().as_array().unwrap();
    for &id in &ids {
        let record = records
            .iter()
            .find(|r| r["request_id"].as_u64() == Some(id))
            .unwrap_or_else(|| panic!("request {id} missing from /debug/trace"));
        assert_eq!(record["status"].as_u64(), Some(200));
        assert_eq!(record["rows"].as_u64(), Some(3));
        assert_eq!(record["model_version"].as_u64(), Some(1));
        assert!(record["batch_rows"].as_u64().unwrap() >= 3);
        for key in STAGE_KEYS {
            assert!(record[key].as_u64().is_some(), "stage `{key}` missing");
        }
        assert!(record["total_us"].as_u64().unwrap() >= 1);
    }
    // The drain consumed the ring: a second scrape starts empty.
    let again = get(addr, "/debug/trace");
    assert!(again.json()["trace"].as_array().unwrap().is_empty());

    // A parse failure is traced too, with its error status.
    let bad = post(addr, "/score", "{\"features\": [[1, \"x\"]]}");
    assert_eq!(bad.status, 400);
    let bad_id = bad.json()["request_id"].as_u64().unwrap();
    let records = get(addr, "/debug/trace").json();
    let record = records["trace"]
        .as_array()
        .unwrap()
        .iter()
        .find(|r| r["request_id"].as_u64() == Some(bad_id))
        .expect("400 must be traced")
        .clone();
    assert_eq!(record["status"].as_u64(), Some(400));
    assert_eq!(record["shard"].as_u64(), Some(0));
    assert_eq!(record["forward_us"].as_u64(), Some(0));

    handle.shutdown();
}

#[test]
fn slow_ring_and_queues_expose_tail_capture_and_shard_state() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    gale_obs::ring::clear();
    let dim = 3;
    let cfg = ServeConfig {
        trace_slow_us: 0, // every request is "slow": tail capture keeps all
        shards: 2,
        ..traced_config()
    };
    let handle = serve(tiny_model(dim, 31), &cfg).unwrap();
    let addr = handle.addr();
    let x = Matrix::randn(1, dim, 1.0, &mut Rng::seed_from_u64(32));
    let body = score_request_body(&x);
    let mut ids = Vec::new();
    for _ in 0..4 {
        ids.push(
            post(addr, "/score", &body).json()["request_id"]
                .as_u64()
                .unwrap(),
        );
    }

    let slow = get(addr, "/debug/slow").json();
    assert_eq!(slow["slow_threshold_us"].as_u64(), Some(0));
    let captured = slow["slow"].as_array().unwrap();
    for &id in &ids {
        assert!(
            captured
                .iter()
                .any(|r| r["request_id"].as_u64() == Some(id)),
            "request {id} missing from the slow log"
        );
    }
    // Snapshot, not drain: a second scrape still holds the records.
    let again = get(addr, "/debug/slow").json();
    assert_eq!(again["slow"].as_array().unwrap().len(), captured.len());

    let queues = get(addr, "/debug/queues").json();
    assert!(queues["uptime_secs"].as_u64().is_some());
    assert_eq!(queues["model_version"].as_u64(), Some(1));
    let shards = queues["shards"].as_array().unwrap();
    assert_eq!(shards.len(), 2);
    let mut batches = 0;
    for (i, shard) in shards.iter().enumerate() {
        assert_eq!(shard["shard"].as_u64(), Some(i as u64));
        assert!(shard["depth"].as_i64().is_some());
        assert!(shard["in_flight"].as_u64().is_some());
        assert!(shard["last_batch_rows"].as_u64().is_some());
        assert!(shard["last_batch_version"].as_u64().is_some());
        batches += shard["batches"].as_u64().unwrap();
    }
    assert!(batches >= 1, "somebody must have scored those requests");

    // Debug endpoints are GET-only.
    assert_eq!(post(addr, "/debug/trace", "").status, 405);
    assert_eq!(post(addr, "/debug/queues", "").status, 405);
    handle.shutdown();
}

#[test]
fn tracing_on_and_off_score_bitwise_identically() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    gale_obs::ring::clear();
    let dim = 5;
    let x = Matrix::randn(4, dim, 1.0, &mut Rng::seed_from_u64(42));
    let body = score_request_body(&x);
    let mut outputs = Vec::new();
    for trace in [true, false] {
        gale_obs::ring::clear();
        let cfg = ServeConfig {
            trace,
            ..traced_config()
        };
        let handle = serve(tiny_model(dim, 41), &cfg).unwrap();
        let reply = post(handle.addr(), "/score", &body);
        assert_eq!(reply.status, 200);
        let doc = reply.json();
        // request_id is stamped whether or not tracing is on.
        assert!(doc["request_id"].as_u64().is_some());
        let probs: Vec<u64> = doc["probs"]
            .as_array()
            .unwrap()
            .iter()
            .flat_map(|row| row.as_array().unwrap().iter())
            .map(|v| v.as_f64().unwrap().to_bits())
            .collect();
        assert_eq!(probs.len(), 4 * 3);
        outputs.push(probs);
        if !trace {
            // With tracing off nothing lands in the rings.
            let doc = get(handle.addr(), "/debug/trace").json();
            assert_eq!(doc["stats"]["enabled"].as_bool(), Some(false));
            assert!(doc["trace"].as_array().unwrap().is_empty());
        }
        handle.shutdown();
    }
    assert_eq!(outputs[0], outputs[1], "tracing must not perturb scores");
}
