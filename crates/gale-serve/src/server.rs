//! Connection handling, request routing, hot reload, and the
//! graceful-shutdown protocol.
//!
//! A single non-blocking event-loop thread owns the listener and every
//! client socket, hand-rolled poll-style readiness over std `TcpStream`s
//! (no mio/tokio, like the rest of the stack). Connections are keep-alive
//! and may pipeline requests; responses always come back in request order.
//! Scoring replies and reload completions are polled without blocking, so
//! thousands of idle connections cost one thread.
//!
//! All scoring funnels through the [`ShardPool`]; `POST /admin/reload`
//! loads a new checkpoint *off* the event loop (a worker thread does the
//! file IO and validation) and swaps it into every shard between batches.
//! Shutdown — [`ServerHandle::shutdown`] or `POST /admin/shutdown` — stops
//! accepting, answers everything already received, and only then lets the
//! shards drain and exit, so no accepted request goes unanswered no matter
//! how many shards are racing the listener close.

use crate::batcher::{BatchConfig, ReloadError, ScoreReply, ShardPool, SubmitError};
use crate::http::{self, HttpError, Request};
use crate::metrics;
use crate::stream::StreamState;
use gale_core::Sgan;
use gale_json::{json, Value};
use gale_nn::checkpoint::CkptError;
use gale_obs::ring::{self, TracePolicy, WideEvent};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port `0` to let the OS pick one.
    pub addr: String,
    /// Micro-batching knobs (per shard).
    pub batch: BatchConfig,
    /// Value of the `Retry-After` header on shed (`503`) responses,
    /// seconds.
    pub retry_after_secs: u32,
    /// Scorer shards, each owning a decoded copy of the model.
    pub shards: usize,
    /// Idle keep-alive connections are closed after this many seconds.
    pub keep_alive_secs: u64,
    /// Whether per-request tracing (wide events into the `/debug/trace`
    /// and `/debug/slow` rings) is on. Defaults to on: the overhead is
    /// CI-gated at a few percent of p99, so it ships enabled.
    pub trace: bool,
    /// Head sampling: keep 1 request in this many in the recent ring
    /// (0 disables head sampling, 1 keeps everything).
    pub trace_sample: u64,
    /// Tail capture: requests at or above this total latency (µs) are kept
    /// in the slow ring regardless of sampling, as are error responses.
    pub trace_slow_us: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let policy = TracePolicy::default();
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            batch: BatchConfig::default(),
            retry_after_secs: 1,
            shards: 1,
            keep_alive_secs: 60,
            trace: true,
            trace_sample: policy.sample_every,
            trace_slow_us: policy.slow_us,
        }
    }
}

/// Shared request-handling context.
struct Ctx {
    pool: Arc<ShardPool>,
    shutdown: Arc<AtomicBool>,
    retry_after: String,
    started: Instant,
    /// Streaming engine, present when the server booted with a bundle.
    stream: Option<StreamState>,
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] or [`ServerHandle::wait`] signals shutdown
/// but does not wait for the drain.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates a graceful shutdown and blocks until every accepted
    /// request has been answered and all threads have exited.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.join_threads();
    }

    /// Blocks until the server shuts down on its own (via
    /// `POST /admin/shutdown`), draining as in [`ServerHandle::shutdown`].
    pub fn wait(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

/// Boots the server around a loaded model and returns once it is
/// listening.
pub fn serve(model: Sgan, cfg: &ServeConfig) -> std::io::Result<ServerHandle> {
    serve_with_stream(model, cfg, None)
}

/// Boots the server with an optional streaming engine attached. With an
/// engine, `POST /mutate`, node-mode `POST /score` (`{"nodes": [...]}`
/// bodies), and `GET /debug/stream` come alive; feature-body `/score`
/// requests keep the shard-pool path either way.
pub fn serve_with_stream(
    model: Sgan,
    cfg: &ServeConfig,
    stream: Option<gale_stream::StreamEngine>,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    ring::configure(
        cfg.trace,
        TracePolicy {
            sample_every: cfg.trace_sample,
            seed: 0,
            slow_us: cfg.trace_slow_us,
        },
    );
    let shards = cfg.shards.max(1);
    let (pool, shard_threads) = ShardPool::spawn(model, shards, &cfg.batch);
    let ctx = Arc::new(Ctx {
        pool,
        shutdown: shutdown.clone(),
        retry_after: cfg.retry_after_secs.to_string(),
        started: Instant::now(),
        stream: stream.map(StreamState::new),
    });

    let mut threads = Vec::with_capacity(shard_threads.len() + 1);
    let front = {
        let shutdown = shutdown.clone();
        let keep_alive = Duration::from_secs(cfg.keep_alive_secs.max(1));
        std::thread::Builder::new()
            .name("gale-serve-loop".into())
            .spawn(move || event_loop(listener, ctx, shutdown, keep_alive))?
    };
    threads.push(front);
    threads.extend(shard_threads);
    gale_obs::info!(
        "gale-serve listening on http://{addr} ({shards} shard{})",
        if shards == 1 { "" } else { "s" },
    );
    Ok(ServerHandle {
        addr,
        shutdown,
        threads,
    })
}

// ---------------------------------------------------------------------------
// Endpoint logic
// ---------------------------------------------------------------------------

/// Clamps a duration to microseconds in a `u32` (saturating).
fn us32(d: Duration) -> u32 {
    d.as_micros().min(u32::MAX as u128) as u32
}

/// Connection-side timing captured before a request reaches the endpoint
/// logic. Only built while request tracing is on — with tracing off the
/// event loop takes no extra clock reads.
struct ReqTiming {
    /// When the request's first bytes arrived (start of `total_us`).
    started: Instant,
    /// Socket read time already accumulated, first byte to fully buffered.
    read_us: u32,
    /// When head parsing began; everything up to the end of feature
    /// parsing is charged to `parse_us`.
    parse_started: Instant,
}

/// A `/score` request's wide event under construction, carried alongside
/// the response until the last byte is flushed.
struct TraceState {
    ev: WideEvent,
    started: Instant,
}

/// Completes a wide event once its response has fully left the socket:
/// stamps write/total timings, feeds the always-live stage histograms,
/// and offers the record to the trace rings.
fn finish_trace(mut state: TraceState, write_started: Instant) {
    state.ev.write_us = us32(write_started.elapsed());
    state.ev.total_us = state.started.elapsed().as_micros() as u64;
    metrics::stage_read_us().record(state.ev.read_us as f64);
    metrics::stage_parse_us().record(state.ev.parse_us as f64);
    metrics::stage_dispatch_us().record(state.ev.dispatch_us as f64);
    metrics::stage_write_us().record(state.ev.write_us as f64);
    metrics::request_us().record(state.ev.total_us as f64);
    ring::offer(state.ev);
}

/// Copies a scored reply's shard-side placement and timings into the wide
/// event.
fn fill_scored(trace: &mut Option<Box<TraceState>>, scored: &ScoreReply) {
    if let Some(state) = trace {
        state.ev.status = 200;
        state.ev.shard = scored.shard;
        state.ev.model_version = scored.version;
        state.ev.batch_rows = scored.batch_rows;
        state.ev.queue_us = scored.queue_us;
        state.ev.assembly_us = scored.assembly_us;
        state.ev.forward_us = scored.forward_us;
    }
}

/// Stamps a terminal status into the wide event (no-op when untraced).
fn set_status(trace: &mut Option<Box<TraceState>>, status: u16) {
    if let Some(state) = trace {
        state.ev.status = status;
    }
}

/// What handling a request produced: either a finished response or a
/// reply-pending operation the event loop polls to completion.
enum Outcome {
    /// Rendered response, ready to send; `/score` responses carry their
    /// wide event so write time can still be attributed.
    Ready(Vec<u8>, Option<Box<TraceState>>),
    /// A scoring job is in flight on some shard.
    Score {
        reply: Receiver<ScoreReply>,
        rows: usize,
        keep_alive: bool,
        request_id: u64,
        trace: Option<Box<TraceState>>,
    },
    /// A reload worker thread is loading and validating a checkpoint.
    Reload {
        done: Receiver<Result<u64, ReloadError>>,
        keep_alive: bool,
    },
}

fn handle_request(request: &Request, ctx: &Ctx, timing: Option<ReqTiming>) -> Outcome {
    let ka = request.keep_alive;
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/score") => {
            // One parse routes the body: a top-level `nodes` key is
            // node-mode scoring on the streaming engine; feature bodies
            // stay on the shard-pool hot path.
            let doc = parse_json(&request.body);
            match (&ctx.stream, &doc) {
                (Some(stream), Ok(doc)) if doc.get("nodes").is_some() => {
                    Outcome::Ready(stream.score_nodes(doc, ka), None)
                }
                _ => score_request(doc, ka, ctx, timing),
            }
        }
        ("POST", "/mutate") => match &ctx.stream {
            Some(stream) => Outcome::Ready(stream.mutate(&request.body, ka), None),
            None => Outcome::Ready(
                http::render_json(
                    404,
                    "Not Found",
                    &[],
                    &json!({"error": "server booted without --stream"}),
                    ka,
                ),
                None,
            ),
        },
        ("GET", "/debug/stream") => match &ctx.stream {
            Some(stream) => Outcome::Ready(stream.debug(ka), None),
            None => Outcome::Ready(
                http::render_json(
                    404,
                    "Not Found",
                    &[],
                    &json!({"error": "server booted without --stream"}),
                    ka,
                ),
                None,
            ),
        },
        ("GET", "/debug/trace") => {
            let events: Vec<Value> = ring::drain_recent()
                .iter()
                .map(WideEvent::to_json)
                .collect();
            Outcome::Ready(
                http::render_json(
                    200,
                    "OK",
                    &[],
                    &json!({
                        "stats": ring::stats_json(),
                        "trace": Value::Array(events),
                    }),
                    ka,
                ),
                None,
            )
        }
        ("GET", "/debug/slow") => {
            let events: Vec<Value> = ring::slow_snapshot()
                .iter()
                .map(WideEvent::to_json)
                .collect();
            Outcome::Ready(
                http::render_json(
                    200,
                    "OK",
                    &[],
                    &json!({
                        "slow_threshold_us": ring::policy().slow_us,
                        "slow": Value::Array(events),
                    }),
                    ka,
                ),
                None,
            )
        }
        ("GET", "/debug/queues") => {
            let shards: Vec<Value> = ctx
                .pool
                .shard_snapshots()
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    json!({
                        "shard": i as u64,
                        "depth": Value::Int(s.depth),
                        "in_flight": s.in_flight,
                        "last_batch_rows": s.last_batch_rows,
                        "last_batch_version": s.last_batch_version,
                        "batches": s.batches,
                    })
                })
                .collect();
            Outcome::Ready(
                http::render_json(
                    200,
                    "OK",
                    &[],
                    &json!({
                        "uptime_secs": ctx.started.elapsed().as_secs(),
                        "model_version": Value::Int(ctx.pool.version() as i64),
                        "shards": Value::Array(shards),
                    }),
                    ka,
                ),
                None,
            )
        }
        ("GET", "/healthz") => Outcome::Ready(
            http::render_json(
                200,
                "OK",
                &[],
                &json!({
                    "status": "ok",
                    "kind": "sgan",
                    "input_dim": ctx.pool.input_dim(),
                    "model_version": Value::Int(ctx.pool.version() as i64),
                    "shards": ctx.pool.shard_count(),
                }),
                ka,
            ),
            None,
        ),
        ("GET", "/metrics") => {
            // Refresh the process high-water mark so scrapes see a live
            // number; VmHWM only rises, so sampling here is always safe.
            gale_obs::record_peak_rss();
            Outcome::Ready(
                http::render_response(
                    200,
                    "OK",
                    "text/plain; version=0.0.4",
                    &[],
                    gale_obs::metrics::render_text().as_bytes(),
                    ka,
                ),
                None,
            )
        }
        ("POST", "/admin/reload") => reload_request(request, ctx),
        ("POST", "/admin/shutdown") => {
            let ack = http::render_json(200, "OK", &[], &json!({"status": "draining"}), ka);
            ctx.shutdown.store(true, Ordering::SeqCst);
            Outcome::Ready(ack, None)
        }
        (
            "POST" | "GET",
            "/score" | "/healthz" | "/metrics" | "/admin/reload" | "/admin/shutdown"
            | "/debug/trace" | "/debug/slow" | "/debug/queues" | "/mutate" | "/debug/stream",
        ) => Outcome::Ready(
            http::render_json(
                405,
                "Method Not Allowed",
                &[],
                &json!({"error": "method not allowed"}),
                ka,
            ),
            None,
        ),
        _ => Outcome::Ready(
            http::render_json(
                404,
                "Not Found",
                &[],
                &json!({"error": "no such endpoint"}),
                ka,
            ),
            None,
        ),
    }
}

fn score_request(
    doc: Result<Value, String>,
    ka: bool,
    ctx: &Ctx,
    timing: Option<ReqTiming>,
) -> Outcome {
    let request_id = ring::next_request_id();
    // Spans and events emitted anywhere under this request carry its id.
    let _scope = gale_obs::span::request_scope(request_id);
    let parsed = doc.and_then(|doc| parse_features(&doc, ctx.pool.input_dim()));
    let mut trace = timing.map(|t| {
        Box::new(TraceState {
            started: t.started,
            ev: WideEvent {
                request_id,
                read_us: t.read_us,
                parse_us: us32(t.parse_started.elapsed()),
                ..Default::default()
            },
        })
    });
    let (features, rows) = match parsed {
        Ok(parsed) => parsed,
        Err(msg) => {
            set_status(&mut trace, 400);
            return Outcome::Ready(
                http::render_json(
                    400,
                    "Bad Request",
                    &[],
                    &json!({"error": msg, "request_id": request_id}),
                    ka,
                ),
                trace,
            );
        }
    };
    if let Some(state) = &mut trace {
        state.ev.rows = rows.min(u32::MAX as usize) as u32;
    }
    let dispatch_started = trace.as_ref().map(|_| Instant::now());
    let submitted = ctx.pool.submit(features, rows);
    if let (Some(state), Some(t0)) = (&mut trace, dispatch_started) {
        state.ev.dispatch_us = us32(t0.elapsed());
    }
    match submitted {
        Ok(reply) => Outcome::Score {
            reply,
            rows,
            keep_alive: ka,
            request_id,
            trace,
        },
        Err(SubmitError::Overloaded) => {
            set_status(&mut trace, 503);
            Outcome::Ready(
                http::render_json(
                    503,
                    "Service Unavailable",
                    &[("Retry-After", ctx.retry_after.as_str())],
                    &json!({"error": "queue full, retry later", "request_id": request_id}),
                    ka,
                ),
                trace,
            )
        }
        Err(SubmitError::Stopped) => {
            set_status(&mut trace, 503);
            Outcome::Ready(
                http::render_json(
                    503,
                    "Service Unavailable",
                    &[],
                    &json!({"error": "server is shutting down", "request_id": request_id}),
                    ka,
                ),
                trace,
            )
        }
    }
}

/// Spawns the reload worker. File IO, JSON parsing, decoding the shards'
/// models, and the shard swaps all happen on the worker thread — the event loop
/// (and every scorer) stays on its hot path.
fn reload_request(request: &Request, ctx: &Ctx) -> Outcome {
    let ka = request.keep_alive;
    let path = std::str::from_utf8(&request.body)
        .ok()
        .and_then(|text| gale_json::from_str(text).ok())
        .and_then(|doc| doc.get("ckpt").and_then(Value::as_str).map(str::to_string));
    let Some(path) = path else {
        return Outcome::Ready(
            http::render_json(
                400,
                "Bad Request",
                &[],
                &json!({"error": "body must be {\"ckpt\": \"path\"}"}),
                ka,
            ),
            None,
        );
    };
    let (tx, done) = mpsc::channel();
    let pool = ctx.pool.clone();
    let spawned = std::thread::Builder::new()
        .name("gale-serve-reload".into())
        .spawn(move || {
            let result = pool.reload(&path);
            match &result {
                Ok(version) => gale_obs::info!("reloaded checkpoint `{path}` as v{version}"),
                Err(e) => {
                    metrics::reload_failures().add(1);
                    gale_obs::warn!("reload of `{path}` rejected: {e}");
                }
            }
            let _ = tx.send(result);
        });
    match spawned {
        Ok(_) => Outcome::Reload {
            done,
            keep_alive: ka,
        },
        Err(e) => Outcome::Ready(
            http::render_json(
                500,
                "Internal Server Error",
                &[],
                &json!({"error": format!("cannot spawn reload worker: {e}")}),
                ka,
            ),
            None,
        ),
    }
}

/// Renders a completed reload as HTTP: the typed [`ReloadError`] surfaces
/// as a 4xx/5xx, never a panic, and the old model keeps serving.
fn render_reload_result(result: Result<u64, ReloadError>, keep_alive: bool) -> Vec<u8> {
    match result {
        Ok(version) => http::render_json(
            200,
            "OK",
            &[],
            &json!({"status": "reloaded", "model_version": Value::Int(version as i64)}),
            keep_alive,
        ),
        // An IO error on a path that does not exist is the client naming
        // the wrong file (404); an IO error on an existing file (refused
        // permissions, invalid UTF-8 from torn bytes) is a damaged or
        // unreadable checkpoint like any other decode failure (422).
        Err(e @ ReloadError::Ckpt(CkptError::Io { .. })) => {
            let missing = matches!(
                &e,
                ReloadError::Ckpt(CkptError::Io { path, .. })
                    if !std::path::Path::new(path).exists()
            );
            let (status, reason) = if missing {
                (404, "Not Found")
            } else {
                (422, "Unprocessable Entity")
            };
            http::render_json(
                status,
                reason,
                &[],
                &json!({"error": e.to_string()}),
                keep_alive,
            )
        }
        Err(e @ ReloadError::Ckpt(_)) => http::render_json(
            422,
            "Unprocessable Entity",
            &[],
            &json!({"error": e.to_string()}),
            keep_alive,
        ),
        Err(e @ ReloadError::DimMismatch { .. }) => http::render_json(
            409,
            "Conflict",
            &[],
            &json!({"error": e.to_string()}),
            keep_alive,
        ),
        Err(e @ ReloadError::PoolDown) => http::render_json(
            503,
            "Service Unavailable",
            &[],
            &json!({"error": e.to_string()}),
            keep_alive,
        ),
    }
}

// ---------------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------------

/// Cap on unanswered pipelined requests per connection; parsing pauses
/// (and the socket naturally backpressures) beyond it.
const MAX_PIPELINE: usize = 32;

/// Read buffer cap per connection: always big enough for one maximal
/// request, so parsing can make progress, but bounded so a flooding client
/// cannot balloon memory.
const RBUF_CAP: usize = http::MAX_HEAD_BYTES + http::MAX_BODY_BYTES + 4096;

/// How long the loop sleeps when a full tick made no progress.
const IDLE_TICK: Duration = Duration::from_micros(300);

/// How long a drain waits for unresponsive clients to take their answers
/// before dropping them.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// One queued (request-ordered) response slot.
enum Pending {
    Ready(Vec<u8>, Option<Box<TraceState>>),
    Score {
        reply: Receiver<ScoreReply>,
        rows: usize,
        keep_alive: bool,
        request_id: u64,
        trace: Option<Box<TraceState>>,
    },
    Reload {
        done: Receiver<Result<u64, ReloadError>>,
        keep_alive: bool,
    },
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    pending: VecDeque<Pending>,
    wbuf: Vec<u8>,
    wpos: usize,
    /// When the first bytes of the oldest unparsed request arrived (only
    /// tracked while request tracing is on).
    read_start: Option<Instant>,
    /// Absolute bytes ever flushed to this socket; write attribution for
    /// traced responses compares against it.
    flushed_total: u64,
    /// Traced responses queued in `wbuf`, as `(absolute end offset,
    /// trace, when the bytes were queued)`; a response is done writing
    /// when `flushed_total` passes its end offset.
    traced_writes: VecDeque<(u64, Box<TraceState>, Instant)>,
    /// No further requests will be parsed (close requested or protocol
    /// error); close once everything queued is answered and flushed.
    no_more_requests: bool,
    /// Peer closed its write half or errored; stop reading.
    reading: bool,
    dead: bool,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            pending: VecDeque::new(),
            wbuf: Vec::new(),
            wpos: 0,
            read_start: None,
            flushed_total: 0,
            traced_writes: VecDeque::new(),
            no_more_requests: false,
            reading: true,
            dead: false,
            last_activity: Instant::now(),
        }
    }

    fn flushed(&self) -> bool {
        self.wpos == self.wbuf.len()
    }

    fn idle(&self) -> bool {
        self.pending.is_empty() && self.flushed() && self.rbuf.is_empty()
    }
}

fn event_loop(
    listener: TcpListener,
    ctx: Arc<Ctx>,
    shutdown: Arc<AtomicBool>,
    keep_alive: Duration,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut draining = false;
    let mut drain_started = Instant::now();
    loop {
        let mut progressed = false;
        if !draining && shutdown.load(Ordering::SeqCst) {
            draining = true;
            drain_started = Instant::now();
        }

        // Accept everything ready (drain mode stops taking new work).
        if !draining {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        conns.push(Conn::new(stream));
                        progressed = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) => {
                        gale_obs::warn!("gale-serve accept error: {e}");
                        break;
                    }
                }
            }
        }

        let now = Instant::now();
        for conn in conns.iter_mut() {
            progressed |= tick_conn(conn, &ctx, draining, &mut scratch);
            // A shutdown request handled inside this very tick flips the
            // flag; pick it up before judging idleness below.
            if !draining && shutdown.load(Ordering::SeqCst) {
                draining = true;
                drain_started = now;
            }
            if !conn.dead {
                let done = conn.pending.is_empty() && conn.flushed();
                // Close when the last reply is flushed and no more requests can
                // arrive (client half-closed, `Connection: close`, or drain), or
                // when an idle keep-alive connection outlives its timeout.
                let finished = (conn.no_more_requests || !conn.reading || draining) && done;
                let timed_out =
                    !draining && conn.idle() && now.duration_since(conn.last_activity) > keep_alive;
                if finished || timed_out {
                    conn.dead = true;
                }
            }
        }
        let before = conns.len();
        conns.retain(|c| !c.dead);
        progressed |= conns.len() != before;
        metrics::connections().set(conns.len() as f64);

        if draining {
            if conns.is_empty() {
                break;
            }
            if drain_started.elapsed() > DRAIN_DEADLINE {
                gale_obs::warn!(
                    "gale-serve drain deadline hit with {} unresponsive connection(s)",
                    conns.len()
                );
                break;
            }
        }
        if !progressed {
            std::thread::sleep(IDLE_TICK);
        }
    }
    // Dropping `ctx` (the last pool handle outside any in-flight reload
    // worker) disconnects every shard queue; shards answer whatever is
    // still queued — nothing is at this point — and exit.
}

/// One readiness pass over a connection. Returns whether any progress was
/// made (bytes moved or a response completed).
fn tick_conn(conn: &mut Conn, ctx: &Ctx, draining: bool, scratch: &mut [u8]) -> bool {
    let mut progressed = false;

    let tracing = ring::tracing_enabled();

    // Read phase. Drain mode stops reading: requests not yet received by
    // the time shutdown was requested are not "accepted".
    if conn.reading && !draining {
        while conn.rbuf.len() < RBUF_CAP {
            let space = (RBUF_CAP - conn.rbuf.len()).min(scratch.len());
            match conn.stream.read(&mut scratch[..space]) {
                Ok(0) => {
                    conn.reading = false;
                    break;
                }
                Ok(n) => {
                    let now = Instant::now();
                    if tracing && conn.rbuf.is_empty() {
                        conn.read_start = Some(now);
                    }
                    conn.rbuf.extend_from_slice(&scratch[..n]);
                    conn.last_activity = now;
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return true;
                }
            }
        }
    }

    // Parse phase: peel complete pipelined requests off the buffer. Runs
    // in drain mode too — a request fully received before the drain began
    // was accepted and must be answered.
    while !conn.no_more_requests && conn.pending.len() < MAX_PIPELINE {
        let parse_started = if tracing { Some(Instant::now()) } else { None };
        match http::parse_request(&conn.rbuf) {
            Ok(Some((request, consumed))) => {
                conn.rbuf.drain(..consumed);
                let timing = parse_started.map(|parse_started| {
                    let started = conn.read_start.take().unwrap_or(parse_started);
                    // Whatever is still buffered belongs to the *next*
                    // pipelined request, which is therefore already here.
                    if !conn.rbuf.is_empty() {
                        conn.read_start = Some(Instant::now());
                    }
                    ReqTiming {
                        started,
                        read_us: us32(parse_started.duration_since(started)),
                        parse_started,
                    }
                });
                let keep = request.keep_alive;
                let pending = match handle_request(&request, ctx, timing) {
                    Outcome::Ready(bytes, trace) => Pending::Ready(bytes, trace),
                    Outcome::Score {
                        reply,
                        rows,
                        keep_alive,
                        request_id,
                        trace,
                    } => Pending::Score {
                        reply,
                        rows,
                        keep_alive,
                        request_id,
                        trace,
                    },
                    Outcome::Reload { done, keep_alive } => Pending::Reload { done, keep_alive },
                };
                conn.pending.push_back(pending);
                if !keep {
                    conn.no_more_requests = true;
                }
                progressed = true;
            }
            Ok(None) => break,
            Err(HttpError::Malformed(msg)) => {
                conn.pending.push_back(Pending::Ready(
                    http::render_json(400, "Bad Request", &[], &json!({"error": msg}), false),
                    None,
                ));
                conn.no_more_requests = true;
                conn.reading = false;
                conn.rbuf.clear();
                progressed = true;
                break;
            }
        }
    }

    // Resolve phase: responses leave strictly in request order, so only
    // the front of the queue can complete.
    while let Some(front) = conn.pending.front_mut() {
        let resolved: Option<(Vec<u8>, Option<Box<TraceState>>)> = match front {
            Pending::Ready(bytes, trace) => Some((std::mem::take(bytes), trace.take())),
            Pending::Score {
                reply,
                rows,
                keep_alive,
                request_id,
                trace,
            } => match reply.try_recv() {
                Ok(scored) => {
                    fill_scored(trace, &scored);
                    Some((
                        http::render_json(
                            200,
                            "OK",
                            &[],
                            &score_body(&scored.probs, *rows, scored.version, *request_id),
                            *keep_alive,
                        ),
                        trace.take(),
                    ))
                }
                Err(TryRecvError::Empty) => None,
                Err(TryRecvError::Disconnected) => {
                    set_status(trace, 500);
                    Some((
                        http::render_json(
                            500,
                            "Internal Server Error",
                            &[],
                            &json!({"error": "scorer dropped the request", "request_id": *request_id}),
                            *keep_alive,
                        ),
                        trace.take(),
                    ))
                }
            },
            Pending::Reload { done, keep_alive } => match done.try_recv() {
                Ok(result) => Some((render_reload_result(result, *keep_alive), None)),
                Err(TryRecvError::Empty) => None,
                Err(TryRecvError::Disconnected) => Some((
                    http::render_json(
                        500,
                        "Internal Server Error",
                        &[],
                        &json!({"error": "reload worker died"}),
                        *keep_alive,
                    ),
                    None,
                )),
            },
        };
        match resolved {
            Some((bytes, trace)) => {
                if let Some(state) = trace {
                    let queued = (conn.wbuf.len() - conn.wpos) as u64;
                    conn.traced_writes.push_back((
                        conn.flushed_total + queued + bytes.len() as u64,
                        state,
                        Instant::now(),
                    ));
                }
                conn.wbuf.extend_from_slice(&bytes);
                conn.pending.pop_front();
                progressed = true;
            }
            None => break,
        }
    }

    // Write phase.
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.dead = true;
                return true;
            }
            Ok(n) => {
                conn.wpos += n;
                conn.flushed_total += n as u64;
                conn.last_activity = Instant::now();
                progressed = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return true;
            }
        }
    }
    // Any traced response whose last byte has now left the socket is
    // finished: stamp write/total timings and offer the wide event.
    while conn
        .traced_writes
        .front()
        .is_some_and(|(end, _, _)| *end <= conn.flushed_total)
    {
        let (_, state, write_started) = conn.traced_writes.pop_front().expect("front checked");
        finish_trace(*state, write_started);
        progressed = true;
    }
    if conn.flushed() && !conn.wbuf.is_empty() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    progressed
}

// ---------------------------------------------------------------------------
// /score body handling
// ---------------------------------------------------------------------------

/// Parses a request body as one JSON document.
fn parse_json(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    gale_json::from_str(text).map_err(|e| format!("body is not valid JSON: {e}"))
}

/// Reads a feature-mode `/score` document: `{"features": [[...], ...]}` (a
/// batch) or `{"features": [...]}` (one row). Every row must hold exactly
/// `input_dim` finite numbers.
fn parse_features(doc: &Value, input_dim: usize) -> Result<(Vec<f64>, usize), String> {
    let features = doc
        .get("features")
        .and_then(Value::as_array)
        .ok_or("`features` must be an array")?;
    if features.is_empty() {
        return Err("`features` is empty".to_string());
    }
    // Normalize a bare row into a one-row batch.
    let rows: Vec<&Vec<Value>> = if features[0].as_array().is_some() {
        features
            .iter()
            .map(|r| r.as_array().ok_or("rows must all be arrays".to_string()))
            .collect::<Result<_, _>>()?
    } else {
        vec![features]
    };
    let mut flat = Vec::with_capacity(rows.len() * input_dim);
    for row in &rows {
        if row.len() != input_dim {
            return Err(format!(
                "row has {} features, model wants {input_dim}",
                row.len()
            ));
        }
        for v in row.iter() {
            let x = v.as_f64().ok_or("features must be numbers")?;
            if !x.is_finite() {
                return Err("features must be finite".to_string());
            }
            flat.push(x);
        }
    }
    Ok((flat, rows.len()))
}

/// Builds the `/score` response from `rows * 3` probabilities: the raw
/// 3-class rows, the two-class error score and the verdict string (both
/// from [`gale_core::verdict`], as everywhere else M scores), the
/// model generation that scored the batch (every row of a response was
/// scored by exactly this version), and the request id also stamped into
/// the request's trace records. Feeds the per-version score-distribution
/// and verdict-mix series as a side effect, so `/metrics` shows a reload
/// as a clean handover between generations.
fn score_body(probs: &[f64], rows: usize, version: u64, request_id: u64) -> Value {
    let series = metrics::version_series(version);
    let mut prob_rows = Vec::with_capacity(rows);
    let mut error_scores = Vec::with_capacity(rows);
    let mut verdicts = Vec::with_capacity(rows);
    let (mut errors, mut corrects) = (0u64, 0u64);
    for r in 0..rows {
        let (pe, pc, ps) = (probs[r * 3], probs[r * 3 + 1], probs[r * 3 + 2]);
        prob_rows.push(Value::Array(vec![
            Value::from(pe),
            Value::from(pc),
            Value::from(ps),
        ]));
        let verdict = gale_core::verdict(pe, pc);
        series.score.record(verdict.error);
        error_scores.push(Value::from(verdict.error));
        if verdict.erroneous {
            errors += 1;
            verdicts.push(Value::from("error"));
        } else {
            corrects += 1;
            verdicts.push(Value::from("correct"));
        }
    }
    series.verdict_error.add(errors);
    series.verdict_correct.add(corrects);
    json!({
        "probs": Value::Array(prob_rows),
        "error_scores": Value::Array(error_scores),
        "verdicts": Value::Array(verdicts),
        "model_version": Value::Int(version as i64),
        "request_id": request_id,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(body: &[u8], dim: usize) -> Result<(Vec<f64>, usize), String> {
        parse_json(body).and_then(|doc| parse_features(&doc, dim))
    }

    #[test]
    fn parse_accepts_batch_and_single_row() {
        let (flat, rows) = features(br#"{"features": [[1, 2.5], [3, 4]]}"#, 2).unwrap();
        assert_eq!(rows, 2);
        assert_eq!(flat, vec![1.0, 2.5, 3.0, 4.0]);
        let (flat, rows) = features(br#"{"features": [7, 8]}"#, 2).unwrap();
        assert_eq!(rows, 1);
        assert_eq!(flat, vec![7.0, 8.0]);
    }

    #[test]
    fn parse_rejects_malformed_bodies() {
        for (body, dim) in [
            (&b"not json"[..], 2),
            (br#"{"rows": [[1, 2]]}"#, 2),
            (br#"{"features": []}"#, 2),
            (br#"{"features": [[1, 2, 3]]}"#, 2),
            (br#"{"features": [[1, "x"]]}"#, 2),
            (br#"{"features": [[1, null]]}"#, 2),
            (br#"{"features": [[1, 2], [3]]}"#, 2),
        ] {
            assert!(features(body, dim).is_err(), "accepted {body:?}");
        }
    }

    #[test]
    fn score_body_reports_verdicts_and_renormalized_scores() {
        let probs = [0.6, 0.2, 0.2, 0.1, 0.7, 0.2];
        let body = score_body(&probs, 2, 3, 77);
        let verdicts = body.get("verdicts").unwrap().as_array().unwrap();
        assert_eq!(verdicts[0].as_str(), Some("error"));
        assert_eq!(verdicts[1].as_str(), Some("correct"));
        let scores = body.get("error_scores").unwrap().as_array().unwrap();
        assert!((scores[0].as_f64().unwrap() - 0.75).abs() < 1e-12);
        assert!((scores[1].as_f64().unwrap() - 0.125).abs() < 1e-12);
        assert_eq!(body.get("model_version").unwrap().as_u64(), Some(3));
        assert_eq!(body.get("request_id").unwrap().as_u64(), Some(77));
        // The per-version series saw both rows.
        let series = metrics::version_series(3);
        assert!(series.verdict_error.get() >= 1);
        assert!(series.verdict_correct.get() >= 1);
    }
}
