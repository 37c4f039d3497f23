//! End-to-end smoke tests: boot a real server on a loopback port and talk
//! to it over actual TCP, covering the acceptance criteria of the serving
//! subsystem — bitwise-equal scores, health and metrics endpoints, `503`
//! shedding with `Retry-After`, and a shutdown that drains in-flight work.

use gale_core::{Sgan, SganConfig};
use gale_json::Value;
use gale_serve::{serve, BatchConfig, ServeConfig};
use gale_tensor::{Matrix, Rng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

mod common;

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

fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gale-serve-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// One raw HTTP exchange: connect, send, read until the server closes.
struct Response {
    status: u16,
    head: String,
    body: Vec<u8>,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().skip(1).find_map(|line| {
            let (n, v) = line.split_once(':')?;
            n.trim().eq_ignore_ascii_case(name).then(|| v.trim())
        })
    }

    fn json(&self) -> Value {
        gale_json::from_str(std::str::from_utf8(&self.body).unwrap()).unwrap()
    }
}

fn exchange(addr: SocketAddr, raw: &[u8]) -> Response {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw).unwrap();
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).unwrap();
    parse_response(&bytes)
}

/// Splits raw response bytes into status, head and everything after the
/// head.
fn parse_response(bytes: &[u8]) -> Response {
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
        head,
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

#[test]
fn served_scores_match_in_process_bitwise() {
    let dim = 6;
    // The served model and the in-process reference both come from the same
    // checkpoint file, so this also exercises save → load → serve.
    let model = tiny_model(dim, 41);
    let ckpt = scratch_path("bitwise.ckpt");
    model.save(&ckpt).unwrap();
    let served_model = Sgan::load(&ckpt).unwrap();
    let mut reference = Sgan::load(&ckpt).unwrap();

    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..Default::default()
    };
    let handle = serve(served_model, &cfg).unwrap();
    let addr = handle.addr();

    // Health first.
    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    let health_doc = health.json();
    assert_eq!(health_doc.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(
        health_doc.get("input_dim").unwrap().as_u64(),
        Some(dim as u64)
    );

    // Batched and single-row scoring, checked bit-for-bit against the
    // in-process forward pass (JSON round-trips f64 exactly).
    let mut rng = Rng::seed_from_u64(42);
    for rows in [5usize, 1] {
        let x = Matrix::randn(rows, dim, 1.0, &mut rng);
        let mut expect = Matrix::zeros(0, 0);
        reference.probs3_into(&x, &mut expect);

        let resp = post(addr, "/score", &score_request_body(&x));
        assert_eq!(
            resp.status,
            200,
            "body: {:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let doc = resp.json();
        let probs = doc.get("probs").unwrap().as_array().unwrap();
        assert_eq!(probs.len(), rows);
        for (r, row) in probs.iter().enumerate() {
            let row = row.as_array().unwrap();
            assert_eq!(row.len(), 3);
            for (c, v) in row.iter().enumerate() {
                assert_eq!(
                    v.as_f64().unwrap().to_bits(),
                    expect[(r, c)].to_bits(),
                    "probs[{r}][{c}] differs from in-process forward"
                );
            }
        }
        let verdicts = doc.get("verdicts").unwrap().as_array().unwrap();
        assert_eq!(verdicts.len(), rows);
        for (r, v) in verdicts.iter().enumerate() {
            let want = if expect[(r, 0)] > expect[(r, 1)] {
                "error"
            } else {
                "correct"
            };
            assert_eq!(v.as_str(), Some(want));
        }
    }

    // Malformed bodies are rejected, not scored.
    assert_eq!(post(addr, "/score", "{\"features\": [[1]]}").status, 400);
    assert_eq!(post(addr, "/score", "no json").status, 400);
    assert_eq!(get(addr, "/nope").status, 404);
    assert_eq!(get(addr, "/score").status, 405);

    // Metrics reflect the requests this test already made.
    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).unwrap();
    assert!(text.contains("# TYPE serve_requests counter"), "{text}");
    assert!(text.contains("# TYPE serve_queue_depth gauge"), "{text}");
    assert!(
        text.contains("serve_batch_rows_bucket{le=\"+Inf\"}"),
        "{text}"
    );
    assert!(text.contains("serve_latency_us_sum"), "{text}");
    let requests_line = text
        .lines()
        .find(|l| l.starts_with("serve_requests "))
        .expect("serve_requests series missing");
    let count: f64 = requests_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        count >= 2.0,
        "expected at least the two scores: {requests_line}"
    );

    // Allocation-free steady state: the second scored batch reused the
    // first batch's pooled buffers, and further requests keep hitting the
    // pool without new allocations (hits grow, misses plateau).
    let hits = metric_value(addr, "serve_pool_hits");
    let misses = metric_value(addr, "serve_pool_misses");
    assert!(hits >= 2.0, "pool never reused a buffer: hits {hits}");
    let x = Matrix::randn(3, dim, 1.0, &mut rng);
    assert_eq!(post(addr, "/score", &score_request_body(&x)).status, 200);
    assert!(metric_value(addr, "serve_pool_hits") > hits);
    assert_eq!(metric_value(addr, "serve_pool_misses"), misses);

    handle.shutdown();
}

fn metric_value(addr: SocketAddr, series: &str) -> f64 {
    let text = String::from_utf8(get(addr, "/metrics").body).unwrap();
    text.lines()
        .find(|l| l.starts_with(series) && l.as_bytes().get(series.len()) == Some(&b' '))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

#[test]
fn overload_sheds_with_retry_after() {
    // A single-job queue and a deliberately heavy first request: while the
    // scorer grinds through the big forward pass, one light job fills the
    // queue and the rest of a concurrent flood must shed with
    // 503 + Retry-After.
    let dim = 32;
    let mut rng = Rng::seed_from_u64(43);
    let model = Sgan::new(
        dim,
        &SganConfig {
            d_hidden: vec![512, 256],
            g_hidden: vec![8],
            ..Default::default()
        },
        &mut rng,
    );
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        batch: BatchConfig {
            max_batch: 1,
            max_wait_us: 0,
            queue_capacity: 1,
        },
        retry_after_secs: 7,
        ..Default::default()
    };
    let handle = serve(model, &cfg).unwrap();
    let addr = handle.addr();

    let heavy = score_request_body(&Matrix::randn(4096, dim, 1.0, &mut rng));
    let light = score_request_body(&Matrix::randn(1, dim, 1.0, &mut rng));

    let mut shed = None;
    for _ in 0..5 {
        let submitted_before = metric_value(addr, "serve_requests");
        let heavy_clone = heavy.clone();
        let busy = std::thread::spawn(move || post(addr, "/score", &heavy_clone));
        // Wait until the heavy job is actually in the scorer's hands (its
        // multi-megabyte body takes a while to parse), then flood while the
        // forward pass is running.
        let t0 = std::time::Instant::now();
        while metric_value(addr, "serve_requests") <= submitted_before {
            assert!(
                t0.elapsed() < std::time::Duration::from_secs(30),
                "heavy request never reached the queue"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let flood: Vec<_> = (0..6)
            .map(|_| {
                let body = light.clone();
                std::thread::spawn(move || post(addr, "/score", &body))
            })
            .collect();
        assert_eq!(busy.join().unwrap().status, 200);
        for client in flood {
            let resp = client.join().unwrap();
            match resp.status {
                200 => {}
                503 => {
                    assert_eq!(resp.header("Retry-After"), Some("7"));
                    shed = Some(resp);
                }
                other => panic!("unexpected status {other}"),
            }
        }
        if shed.is_some() {
            break;
        }
    }
    assert!(shed.is_some(), "no request was shed in five rounds");
    let text = String::from_utf8(get(addr, "/metrics").body).unwrap();
    let shed_line = text
        .lines()
        .find(|l| l.starts_with("serve_shed "))
        .expect("serve_shed series missing");
    let count: f64 = shed_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(count >= 1.0, "{shed_line}");
    handle.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let dim = 4;
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        batch: BatchConfig {
            max_batch: 4,
            queue_capacity: 64,
            ..BatchConfig::default()
        },
        ..Default::default()
    };
    // A wide model, so a heavy request keeps the shard busy while the
    // light requests below queue up behind it.
    let handle = serve(common::wide_model(dim, 44), &cfg).unwrap();
    let addr = handle.addr();
    let debug_queues = || get(addr, "/debug/queues").json();
    let mut rng = Rng::seed_from_u64(45);

    // Debug builds run the forward about 30x slower: fewer rows there
    // keep the drain well inside the server's 10 s drain deadline.
    let heavy_rows = if cfg!(debug_assertions) { 512 } else { 4096 };
    let heavy = score_request_body(&Matrix::randn(heavy_rows, dim, 1.0, &mut rng));
    let busy = std::thread::spawn(move || post(addr, "/score", &heavy));
    common::wait_for_queues("the heavy job is in flight", debug_queues, |q| q[0].1 >= 1);
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let body = score_request_body(&Matrix::randn(1, dim, 1.0, &mut rng));
            std::thread::spawn(move || post(addr, "/score", &body))
        })
        .collect();
    common::wait_for_queues("every light job is queued", debug_queues, |q| q[0].0 == 8);
    // Snapshot the queues and ask the server itself to shut down in one
    // write: the drain must start with jobs still queued.
    let both = exchange(
        addr,
        b"GET /debug/queues HTTP/1.1\r\nHost: t\r\n\r\n\
          POST /admin/shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\
          Connection: close\r\n\r\n",
    );
    let queues_len: usize = both.header("Content-Length").unwrap().parse().unwrap();
    let queues =
        gale_json::from_str(std::str::from_utf8(&both.body[..queues_len]).unwrap()).unwrap();
    assert!(
        common::queue_pairs(&queues)
            .iter()
            .any(|&(depth, _)| depth > 0),
        "nothing was queued when the drain began: {queues}"
    );
    let ack = parse_response(&both.body[queues_len..]);
    assert_eq!(ack.status, 200);
    assert_eq!(ack.json().get("status").unwrap().as_str(), Some("draining"));
    // wait() returns only after the accept loop joined every connection
    // handler and the scorer drained the queue.
    handle.wait();
    assert_eq!(busy.join().unwrap().status, 200);
    for client in clients {
        let resp = client.join().unwrap();
        assert_eq!(resp.status, 200, "in-flight request dropped during drain");
        let doc = resp.json();
        let probs = doc.get("probs").unwrap().as_array().unwrap();
        assert_eq!(probs.len(), 1);
        let row: f64 = probs[0]
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .sum();
        assert!((row - 1.0).abs() < 1e-9, "not a probability row: {row}");
    }
    // The server is gone: new connections must fail.
    assert!(TcpStream::connect(addr).is_err());
}
