//! `gale-serve`: a std-only, sharded, non-blocking micro-batching
//! inference server for checkpointed GALE SGAN discriminators.
//!
//! The server loads a [`gale_core::Sgan`] from a `gale-checkpoint` file,
//! gives every scorer shard its own copy decoded from one checkpoint
//! document (bit-exact with the source checkpoint; evaluation mode is
//! inference, so a shard runs the trained model's own forward), and
//! exposes plain HTTP/1.1 endpoints:
//!
//! - `POST /score` — a JSON batch of feature rows, answered with per-class
//!   probabilities, renormalized error scores, error/correct verdicts, and
//!   the model generation that scored the batch. Scores are
//!   bitwise-identical to calling the discriminator in process.
//! - `GET /healthz` — liveness plus input dimension, shard count, and the
//!   live model version.
//! - `GET /metrics` — the whole `gale-obs` metric registry in Prometheus
//!   text format (request/shed/reload counts, queue depth, connection
//!   count, batch-size and latency histograms).
//! - `POST /admin/reload` — `{"ckpt": "path"}` loads and validates a new
//!   checkpoint off the hot path and atomically swaps it into every shard;
//!   a bad checkpoint is rejected with a typed error and the old model
//!   keeps serving.
//! - `POST /admin/shutdown` — graceful drain: every accepted request is
//!   answered before the process exits.
//! - `GET /debug/trace` — drains the head-sampled ring of per-request
//!   "wide events" (request id, shard, model version, batch size, and the
//!   seven per-stage timings) plus tracer counters.
//! - `GET /debug/slow` — snapshots the tail-capture ring: every request
//!   slower than the configured threshold or answered with an error.
//! - `GET /debug/queues` — per-shard queue depth, in-flight jobs, last
//!   batch size and version, and server uptime.
//!
//! Every `/score` reply (success or error) carries a process-unique
//! `request_id`, matching the id in its trace records. Tracing is on by
//! default (`--trace off` disables it); its overhead against a
//! tracing-off server is gated in CI at a few percent of p99.
//!
//! The front end is a hand-rolled non-blocking event loop (one thread,
//! keep-alive + pipelined connections). The [`batcher`] scores a job that
//! reaches an idle shard at once and coalesces jobs that queued behind
//! one into a single forward pass; bounded queues shed excess load with
//! `503` + `Retry-After`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod http;
pub mod metrics;
pub mod server;
pub mod stream;

pub use batcher::{
    BatchConfig, ReloadError, ScoreReply, ShardPool, ShardSnapshot, SubmitError, INITIAL_VERSION,
};
pub use server::{serve, serve_with_stream, ServeConfig, ServerHandle};
pub use stream::StreamState;
