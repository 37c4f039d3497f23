//! `gale-loadgen`: a std-only closed-loop load generator for `gale-serve`.
//!
//! N worker threads each hold one keep-alive connection and drive it as
//! fast as the server answers: send a `/score` request, wait for the
//! response, immediately send the next (reconnecting if the server closes
//! the connection). Latencies are raw per-request samples — percentiles
//! come from the sorted sample set, not histogram buckets — and every
//! response's `model_version` is tracked so a hot reload under load can be
//! checked for zero dropped requests and clean version transitions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One closed-loop run against a live server.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Concurrent closed-loop workers (one connection each).
    pub concurrency: usize,
    /// Measured portion of the run.
    pub duration: Duration,
    /// Ramp-up before measurement starts; traffic flows but nothing is
    /// recorded.
    pub warmup: Duration,
    /// Feature rows per `/score` request.
    pub rows: usize,
    /// Feature dimension (must match the served model).
    pub dim: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:7878".to_string(),
            concurrency: 8,
            duration: Duration::from_secs(4),
            warmup: Duration::from_secs(1),
            rows: 4,
            dim: 8,
        }
    }
}

/// Aggregated results of a [`run`].
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// `200` responses inside the measurement window.
    pub ok: u64,
    /// `503` (shed) responses inside the measurement window.
    pub shed: u64,
    /// Any other status, malformed response, or mid-request IO error.
    pub errors: u64,
    /// Times a worker had to re-establish its connection.
    pub reconnects: u64,
    /// Measured wall-clock seconds.
    pub elapsed_s: f64,
    /// `ok / elapsed_s`.
    pub throughput_rps: f64,
    /// Mean latency over `ok` responses, microseconds.
    pub mean_us: f64,
    /// Latency percentiles over raw samples, microseconds.
    pub p50_us: f64,
    /// 99th percentile latency, microseconds.
    pub p99_us: f64,
    /// 99.9th percentile latency, microseconds.
    pub p999_us: f64,
    /// Distinct `model_version` values observed in `200` bodies, sorted.
    pub versions: Vec<u64>,
}

/// A keep-alive HTTP/1.1 client for one connection: writes a raw request,
/// reads exactly one `Content-Length`-framed response.
pub struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
    close_announced: bool,
}

impl HttpClient {
    /// Connects with `TCP_NODELAY` (requests are tiny; Nagle would
    /// serialize the closed loop on ACK delays).
    pub fn connect(addr: &str) -> std::io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(HttpClient {
            stream,
            buf: Vec::with_capacity(4096),
            close_announced: false,
        })
    }

    /// `true` once a response carried `Connection: close` — the server
    /// will drop this connection; reconnect before the next request.
    pub fn close_announced(&self) -> bool {
        self.close_announced
    }

    /// Sends `raw` and reads one response; returns `(status, body)`.
    pub fn request(&mut self, raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        self.stream.write_all(raw)?;
        let mut scratch = [0u8; 16 * 1024];
        loop {
            if let Some(frame) = parse_response_frame(&self.buf)? {
                if self.buf.len() >= frame.total {
                    let body = self.buf[frame.body_at..frame.body_at + frame.body_len].to_vec();
                    self.close_announced |= frame.close;
                    self.buf.drain(..frame.total);
                    return Ok((frame.status, body));
                }
            }
            let n = self.stream.read(&mut scratch)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&scratch[..n]);
        }
    }
}

/// One response located in the stream buffer.
struct ResponseFrame {
    status: u16,
    /// Bytes the whole response occupies (head + body).
    total: usize,
    body_at: usize,
    body_len: usize,
    /// The head carried `Connection: close`.
    close: bool,
}

/// Locates one response in `buf`, or `None` if the head is incomplete.
fn parse_response_frame(buf: &[u8]) -> std::io::Result<Option<ResponseFrame>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status code"))?;
    let mut body_len = 0;
    let mut close = false;
    for line in head.lines().skip(1) {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            body_len = value.trim().parse::<usize>().map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad Content-Length")
            })?;
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.trim().eq_ignore_ascii_case("close");
        }
    }
    let body_at = head_end + 4;
    Ok(Some(ResponseFrame {
        status,
        total: body_at + body_len,
        body_at,
        body_len,
        close,
    }))
}

/// One-shot request helper (its own connection, then dropped).
pub fn one_shot(addr: &str, raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    HttpClient::connect(addr)?.request(raw)
}

/// Renders a `POST` request with a JSON body, keep-alive framing.
pub fn render_post(addr: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Renders a `GET` request, keep-alive framing.
pub fn render_get(addr: &str, path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n").into_bytes()
}

/// Polls `/healthz` until the server answers 200, returning the model's
/// `input_dim`. Gives up after `timeout`.
pub fn wait_healthy(addr: &str, timeout: Duration) -> Result<usize, String> {
    let deadline = Instant::now() + timeout;
    let probe = render_get(addr, "/healthz");
    loop {
        match one_shot(addr, &probe) {
            Ok((200, body)) => {
                let text = String::from_utf8_lossy(&body);
                let doc = gale_json::from_str(&text)
                    .map_err(|e| format!("unparseable /healthz body: {e}"))?;
                return doc
                    .get("input_dim")
                    .and_then(gale_json::Value::as_u64)
                    .map(|d| d as usize)
                    .ok_or_else(|| format!("/healthz has no input_dim: {text}"));
            }
            Ok((status, _)) => return Err(format!("/healthz answered {status}")),
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => return Err(format!("server at {addr} never became healthy: {e}")),
        }
    }
}

/// Builds a deterministic `/score` body: `rows` rows of `dim` features,
/// varied by `salt` so workers don't all send identical bytes.
pub fn score_body(rows: usize, dim: usize, salt: u64) -> String {
    let mut out = String::with_capacity(rows * dim * 8 + 32);
    out.push_str("{\"features\": [");
    for r in 0..rows {
        if r > 0 {
            out.push(',');
        }
        out.push('[');
        for c in 0..dim {
            if c > 0 {
                out.push(',');
            }
            // A cheap LCG over (salt, r, c): finite, varied, deterministic.
            let mix = salt
                .wrapping_mul(6364136223846793005)
                .wrapping_add((r * dim + c) as u64);
            let v = ((mix >> 33) % 4001) as f64 / 1000.0 - 2.0;
            out.push_str(&format!("{v:.3}"));
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// Pulls `"model_version": N` out of a `/score` response body without a
/// full JSON parse (this runs once per request on the load-generator's
/// hot path).
pub fn extract_version(body: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"model_version\":";
    let at = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let digits: Vec<u8> = body[at..]
        .iter()
        .skip_while(|b| b.is_ascii_whitespace())
        .take_while(|b| b.is_ascii_digit())
        .copied()
        .collect();
    std::str::from_utf8(&digits).ok()?.parse().ok()
}

/// Sorted-sample percentile (nearest-rank): `q` in `[0, 1]`.
pub fn percentile(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1] as f64
}

struct WorkerStats {
    latencies_us: Vec<u64>,
    ok: u64,
    shed: u64,
    errors: u64,
    reconnects: u64,
    versions: Vec<u64>,
}

/// Runs the closed loop and aggregates every worker's samples.
pub fn run(cfg: &LoadConfig) -> LoadReport {
    run_samples(cfg).0
}

/// Like [`run`], but also hands back the sorted raw latency samples so a
/// caller can pool several passes and take percentiles over the union —
/// one pass's p99 is a handful of tail samples and mostly measures
/// scheduler noise.
pub fn run_samples(cfg: &LoadConfig) -> (LoadReport, Vec<u64>) {
    let start = Instant::now();
    let measure_start = start + cfg.warmup;
    let deadline = measure_start + cfg.duration;
    let workers: Vec<_> = (0..cfg.concurrency.max(1))
        .map(|w| {
            let cfg = cfg.clone();
            std::thread::spawn(move || worker_loop(&cfg, w as u64, measure_start, deadline))
        })
        .collect();

    let mut latencies = Vec::new();
    let mut report = LoadReport::default();
    let mut versions: Vec<u64> = Vec::new();
    for handle in workers {
        let stats = handle.join().expect("loadgen worker panicked");
        latencies.extend(stats.latencies_us);
        report.ok += stats.ok;
        report.shed += stats.shed;
        report.errors += stats.errors;
        report.reconnects += stats.reconnects;
        for v in stats.versions {
            if !versions.contains(&v) {
                versions.push(v);
            }
        }
    }
    versions.sort_unstable();
    latencies.sort_unstable();
    report.versions = versions;
    report.elapsed_s = cfg.duration.as_secs_f64();
    report.throughput_rps = report.ok as f64 / report.elapsed_s.max(1e-9);
    report.mean_us = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
    };
    report.p50_us = percentile(&latencies, 0.50);
    report.p99_us = percentile(&latencies, 0.99);
    report.p999_us = percentile(&latencies, 0.999);
    (report, latencies)
}

fn worker_loop(
    cfg: &LoadConfig,
    salt: u64,
    measure_start: Instant,
    deadline: Instant,
) -> WorkerStats {
    let body = score_body(cfg.rows, cfg.dim, salt);
    let raw = render_post(&cfg.addr, "/score", &body);
    let mut stats = WorkerStats {
        latencies_us: Vec::with_capacity(16 * 1024),
        ok: 0,
        shed: 0,
        errors: 0,
        reconnects: 0,
        versions: Vec::new(),
    };
    let mut client: Option<HttpClient> = None;
    while Instant::now() < deadline {
        let conn = match client.as_mut() {
            Some(c) => c,
            None => match HttpClient::connect(&cfg.addr) {
                Ok(c) => {
                    client = Some(c);
                    client.as_mut().unwrap()
                }
                Err(_) => {
                    stats.reconnects += 1;
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
            },
        };
        let t0 = Instant::now();
        let outcome = conn.request(&raw);
        let measured = t0 >= measure_start;
        // A `Connection: close` response is a clean end of the exchange:
        // reconnect instead of tripping over the EOF on the next request.
        if conn.close_announced() {
            client = None;
            stats.reconnects += 1;
        }
        match outcome {
            Ok((200, body)) => {
                if measured {
                    stats.ok += 1;
                    stats.latencies_us.push(t0.elapsed().as_micros() as u64);
                    if let Some(v) = extract_version(&body) {
                        if !stats.versions.contains(&v) {
                            stats.versions.push(v);
                        }
                    }
                }
            }
            Ok((503, _)) => {
                if measured {
                    stats.shed += 1;
                }
                // Back off briefly: hammering a shedding server just
                // measures the shed path.
                std::thread::sleep(Duration::from_micros(200));
            }
            Ok((_, _)) => {
                if measured {
                    stats.errors += 1;
                }
            }
            Err(_) => {
                // Dropped connection: reconnect and retry. Only count it
                // as an error inside the measurement window — a request
                // was genuinely lost mid-flight.
                if measured {
                    stats.errors += 1;
                }
                stats.reconnects += 1;
                client = None;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank_on_raw_samples() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 0.999), 100.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7], 0.999), 7.0);
    }

    #[test]
    fn score_body_is_valid_json_with_the_right_shape() {
        let body = score_body(3, 5, 42);
        let doc = gale_json::from_str(&body).unwrap();
        let rows = doc.get("features").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 3);
        for row in rows {
            let row = row.as_array().unwrap();
            assert_eq!(row.len(), 5);
            for v in row {
                let x = v.as_f64().unwrap();
                assert!(x.is_finite() && (-2.1..=2.1).contains(&x), "{x}");
            }
        }
        // Different salts produce different bytes.
        assert_ne!(body, score_body(3, 5, 43));
    }

    #[test]
    fn version_extraction_reads_score_bodies() {
        assert_eq!(extract_version(br#"{"model_version": 7}"#), Some(7));
        assert_eq!(
            extract_version(br#"{"probs": [[0.1]], "model_version":12, "x": 1}"#),
            Some(12)
        );
        assert_eq!(extract_version(b"{}"), None);
    }

    #[test]
    fn response_frames_parse_incrementally() {
        let full = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello";
        // Incomplete head, then done.
        assert!(parse_response_frame(&full[..10]).unwrap().is_none());
        let frame = parse_response_frame(full).unwrap().unwrap();
        assert_eq!((frame.status, frame.body_len), (200, 5));
        assert!(frame.close);
        assert_eq!(&full[frame.body_at..frame.total], b"hello");
        // No Content-Length means an empty body; keep-alive means no close.
        let frame =
            parse_response_frame(b"HTTP/1.1 204 No Content\r\nConnection: keep-alive\r\n\r\n")
                .unwrap()
                .unwrap();
        assert_eq!((frame.status, frame.body_len), (204, 0));
        assert!(!frame.close);
    }
}
