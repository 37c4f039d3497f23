//! Event-loop front-end behavior over real sockets: keep-alive connection
//! reuse, pipelined requests answered strictly in order, idle-connection
//! reaping, and a deterministic drain across many shards where every
//! accepted request is answered.

use gale_core::{Sgan, SganConfig};
use gale_json::Value;
use gale_serve::{serve, BatchConfig, ServeConfig};
use gale_tensor::{Matrix, Rng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

mod common;

const DIM: usize = 4;

fn tiny_model(seed: u64) -> Sgan {
    let mut rng = Rng::seed_from_u64(seed);
    Sgan::new(
        DIM,
        &SganConfig {
            d_hidden: vec![6, 4],
            g_hidden: vec![6],
            ..Default::default()
        },
        &mut rng,
    )
}

fn boot(shards: usize) -> gale_serve::ServerHandle {
    serve(
        tiny_model(31),
        &ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            shards,
            ..Default::default()
        },
    )
    .unwrap()
}

fn score_request(rows: usize, keep_alive: bool) -> Vec<u8> {
    let mut rng = Rng::seed_from_u64(rows as u64);
    let x = Matrix::randn(rows, DIM, 1.0, &mut rng);
    let body: Vec<String> = (0..rows)
        .map(|r| {
            let vals: Vec<String> = (0..DIM).map(|c| format!("{:?}", x[(r, c)])).collect();
            format!("[{}]", vals.join(","))
        })
        .collect();
    let body = format!("{{\"features\": [{}]}}", body.join(","));
    let conn = if keep_alive {
        ""
    } else {
        "Connection: close\r\n"
    };
    format!(
        "POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n{conn}\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Reads exactly one `Content-Length`-framed response off the stream.
fn read_one_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> (u16, Value) {
    let mut scratch = [0u8; 8192];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..head_end]).unwrap();
            let body_len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .unwrap()
                .parse()
                .unwrap();
            if buf.len() >= head_end + 4 + body_len {
                let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
                let body = std::str::from_utf8(&buf[head_end + 4..head_end + 4 + body_len])
                    .unwrap()
                    .to_string();
                buf.drain(..head_end + 4 + body_len);
                return (status, gale_json::from_str(&body).unwrap());
            }
        }
        let n = stream.read(&mut scratch).expect("read");
        assert_ne!(n, 0, "server closed before a full response arrived");
        buf.extend_from_slice(&scratch[..n]);
    }
}

#[test]
fn keep_alive_answers_many_requests_on_one_connection() {
    let handle = boot(2);
    let addr = handle.addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut buf = Vec::new();
    // Ten sequential exchanges over the same socket.
    for i in 1..=10usize {
        stream.write_all(&score_request(i % 3 + 1, true)).unwrap();
        let (status, doc) = read_one_response(&mut stream, &mut buf);
        assert_eq!(status, 200, "request {i}");
        assert_eq!(
            doc.get("probs").unwrap().as_array().unwrap().len(),
            i % 3 + 1
        );
        assert_eq!(doc.get("model_version").unwrap().as_u64(), Some(1));
    }
    // An explicit `Connection: close` request ends the connection.
    stream.write_all(&score_request(1, false)).unwrap();
    let (status, _) = read_one_response(&mut stream, &mut buf);
    assert_eq!(status, 200);
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "bytes after the close-bound response");
    handle.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_request_order() {
    let handle = boot(2);
    let addr = handle.addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    // One write carrying three different requests back to back: a
    // health check, a 2-row score (slow: takes a trip through a shard),
    // and another health check. In-order means the cheap third answer
    // must still come after the scored second one.
    let mut burst = Vec::new();
    burst.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    burst.extend_from_slice(&score_request(2, true));
    burst.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    stream.write_all(&burst).unwrap();

    let mut buf = Vec::new();
    let (s1, d1) = read_one_response(&mut stream, &mut buf);
    let (s2, d2) = read_one_response(&mut stream, &mut buf);
    let (s3, d3) = read_one_response(&mut stream, &mut buf);
    assert_eq!((s1, s2, s3), (200, 200, 200));
    assert_eq!(d1.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(d2.get("probs").unwrap().as_array().unwrap().len(), 2);
    assert_eq!(d3.get("status").and_then(Value::as_str), Some("ok"));
    handle.shutdown();
}

#[test]
fn idle_connections_are_reaped_after_the_keep_alive_timeout() {
    let handle = serve(
        tiny_model(32),
        &ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            keep_alive_secs: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Send nothing; the server must close the idle connection on its own.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    handle.shutdown();
}

/// One client thread: a `rows`-row score request over its own
/// connection, answered with `(status, rows scored)`.
fn client(addr: SocketAddr, rows: usize) -> JoinHandle<(u16, usize)> {
    std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&score_request(rows, true)).unwrap();
        let mut buf = Vec::new();
        let (status, doc) = read_one_response(&mut stream, &mut buf);
        (status, doc.get("probs").unwrap().as_array().unwrap().len())
    })
}

#[test]
fn multi_shard_shutdown_answers_every_accepted_request() {
    // Four shards, each parked in a heavy forward, and a deliberately
    // deep queue: 24 clients get their requests accepted, then the server
    // is told to drain while the jobs still sit in shard queues. Every
    // single one must come back 200 — no shard may race the listener
    // close and strand its queue.
    let handle = serve(
        common::wide_model(DIM, 33),
        &ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 4,
            batch: BatchConfig {
                max_batch: 2,
                queue_capacity: 64,
                ..BatchConfig::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let mut admin = TcpStream::connect(addr).unwrap();
    let mut buf = Vec::new();
    let mut debug_queues = || {
        admin
            .write_all(b"GET /debug/queues HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (status, doc) = read_one_response(&mut admin, &mut buf);
        assert_eq!(status, 200);
        doc
    };

    // Least-depth dispatch with a rotating tie-break sends the four heavy
    // requests to four different shards. Debug builds run the forward
    // about 30x slower: fewer rows there keep the drain well inside the
    // server's 10 s drain deadline.
    let heavy_rows = if cfg!(debug_assertions) { 256 } else { 2048 };
    let heavies: Vec<_> = (0..4).map(|_| client(addr, heavy_rows)).collect();
    common::wait_for_queues("every shard is busy", &mut debug_queues, |q| {
        q.iter().all(|&(_, in_flight)| in_flight >= 1)
    });
    let clients: Vec<_> = (0..24).map(|i| client(addr, i % 4 + 1)).collect();
    common::wait_for_queues("every light job is queued", debug_queues, |q| {
        q.iter().map(|&(depth, _)| depth).sum::<i64>() == 24
    });
    // Snapshot the queues and drain via the admin endpoint like an
    // operator would, in one write: the drain must start with jobs still
    // queued.
    admin
        .write_all(
            b"GET /debug/queues HTTP/1.1\r\nHost: t\r\n\r\n\
              POST /admin/shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
        )
        .unwrap();
    let (status, queues) = read_one_response(&mut admin, &mut buf);
    assert_eq!(status, 200);
    assert!(
        common::queue_pairs(&queues)
            .iter()
            .any(|&(depth, _)| depth > 0),
        "nothing was queued when the drain began: {queues}"
    );
    let (status, doc) = read_one_response(&mut admin, &mut buf);
    assert_eq!(status, 200);
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("draining"));
    handle.wait();
    for heavy in heavies {
        assert_eq!(heavy.join().unwrap(), (200, heavy_rows));
    }
    for (i, client) in clients.into_iter().enumerate() {
        let (status, rows) = client.join().unwrap();
        assert_eq!(status, 200, "client {i} dropped during drain");
        assert_eq!(rows, i % 4 + 1, "client {i} got someone else's answer");
    }
    // The listener is gone.
    assert!(TcpStream::connect(addr).is_err());
}
