//! Serving metrics, registered in the global `gale-obs` registry.
//!
//! Handles here are fetched with *direct* registry calls, not the
//! `enabled()`-gated macros: `/metrics` must report live numbers whether or
//! not trace telemetry is switched on. The handles are `&'static`, so the
//! hot path is a relaxed atomic op with no lock.

use gale_obs::metrics::{counter, gauge, histogram, Counter, Gauge, Histogram};
use std::sync::{Mutex, OnceLock};

/// Batch-size buckets: powers of two up to a generous batch cap.
pub const BATCH_BUCKETS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// `/score` requests accepted into a shard queue or shed.
pub fn requests() -> &'static Counter {
    counter("serve.requests")
}

/// Requests rejected with `503` because every shard queue was full.
pub fn shed() -> &'static Counter {
    counter("serve.shed")
}

/// Batched forward passes executed (across all shards).
pub fn batches() -> &'static Counter {
    counter("serve.batches")
}

/// Feature rows scored (across all shards and batches).
pub fn rows() -> &'static Counter {
    counter("serve.rows")
}

/// Jobs currently waiting across every shard queue.
pub fn queue_depth() -> &'static Gauge {
    gauge("serve.queue_depth")
}

/// Open client connections held by the event loop.
pub fn connections() -> &'static Gauge {
    gauge("serve.connections")
}

/// Model generation currently serving (1 at boot, +1 per reload).
pub fn model_version() -> &'static Gauge {
    gauge("serve.model_version")
}

/// Successful `POST /admin/reload` checkpoint swaps.
pub fn reloads() -> &'static Counter {
    counter("serve.reloads")
}

/// Rejected reload attempts (unreadable, corrupt, wrong-version, or
/// dimension-mismatched checkpoints). The old model kept serving.
pub fn reload_failures() -> &'static Counter {
    counter("serve.reload_failures")
}

/// Scorer buffer-pool hits (batches served without allocating), summed
/// across shards. Mirrored from [`gale_tensor::Workspace::stats`] so the
/// allocation-free steady-state contract is visible in `/metrics` even
/// with trace telemetry off: hits keep growing while misses plateau.
pub fn pool_hits() -> &'static Counter {
    counter("serve.pool_hits")
}

/// Scorer buffer-pool misses (batches that had to allocate), summed
/// across shards.
pub fn pool_misses() -> &'static Counter {
    counter("serve.pool_misses")
}

/// Rows per executed batch.
pub fn batch_rows(/* first call fixes the buckets */) -> &'static Histogram {
    histogram("serve.batch_rows", BATCH_BUCKETS)
}

/// Per-request latency from enqueue to reply, microseconds.
pub fn latency_us() -> &'static Histogram {
    histogram("serve.latency_us", gale_obs::metrics::buckets::TIME_US)
}

/// Reading a request off the socket, microseconds.
pub fn stage_read_us() -> &'static Histogram {
    histogram("serve.stage_read_us", gale_obs::metrics::buckets::TIME_US)
}

/// HTTP head + feature-JSON parsing, microseconds.
pub fn stage_parse_us() -> &'static Histogram {
    histogram("serve.stage_parse_us", gale_obs::metrics::buckets::TIME_US)
}

/// Shard selection and queue hand-off, microseconds.
pub fn stage_dispatch_us() -> &'static Histogram {
    histogram(
        "serve.stage_dispatch_us",
        gale_obs::metrics::buckets::TIME_US,
    )
}

/// Time a job sat in its shard queue before being popped, microseconds.
pub fn stage_queue_us() -> &'static Histogram {
    histogram("serve.stage_queue_us", gale_obs::metrics::buckets::TIME_US)
}

/// Popped until the batched forward started (the rest of the batch taken
/// off the queue, any configured linger, buffer fill), microseconds.
pub fn stage_assembly_us() -> &'static Histogram {
    histogram(
        "serve.stage_assembly_us",
        gale_obs::metrics::buckets::TIME_US,
    )
}

/// The batched forward pass, microseconds (recorded once per job; jobs in
/// one batch share the value).
pub fn stage_forward_us() -> &'static Histogram {
    histogram(
        "serve.stage_forward_us",
        gale_obs::metrics::buckets::TIME_US,
    )
}

/// Response rendered until fully flushed to the socket, microseconds.
pub fn stage_write_us() -> &'static Histogram {
    histogram("serve.stage_write_us", gale_obs::metrics::buckets::TIME_US)
}

/// Whole-request wall clock (first byte read to last byte written),
/// microseconds. The event-loop counterpart of [`latency_us`], which only
/// covers enqueue-to-reply inside the shard.
pub fn request_us() -> &'static Histogram {
    histogram("serve.request_us", gale_obs::metrics::buckets::TIME_US)
}

/// Mutations accepted through `POST /mutate` (admitted or quarantined).
pub fn stream_mutations() -> &'static Counter {
    counter("stream.mutations")
}

/// Nodes currently awaiting an incremental verdict refresh.
pub fn stream_dirty_nodes() -> &'static Gauge {
    gauge("stream.dirty_nodes")
}

/// Current stream graph version (one bump per applied mutation).
pub fn stream_graph_version() -> &'static Gauge {
    gauge("stream.graph_version")
}

/// Delta-overlay compactions folded back into a fresh CSR base.
pub fn stream_compactions() -> &'static Gauge {
    gauge("stream.compactions")
}

/// Edges rejected by the structure-aware admission filter.
pub fn stream_quarantined() -> &'static Gauge {
    gauge("stream.quarantined_edges")
}

/// Incremental verdict refreshes run (each covers one dirty batch).
pub fn stream_refreshes() -> &'static Counter {
    counter("stream.refreshes")
}

/// Incremental refresh latency, microseconds per refresh.
pub fn stream_refresh_us() -> &'static Histogram {
    histogram("stream.refresh_us", gale_obs::metrics::buckets::TIME_US)
}

/// `/mutate` handling latency (parse + apply + dirty marking),
/// microseconds.
pub fn stream_mutate_us() -> &'static Histogram {
    histogram("stream.mutate_us", gale_obs::metrics::buckets::TIME_US)
}

/// The score-distribution and verdict-mix series of one model generation.
/// Separate series per version make a reload visible as a distribution
/// handover in `/metrics` rather than a blur across generations.
#[derive(Clone, Copy)]
pub struct VersionSeries {
    /// Two-class error scores emitted under this version.
    pub score: &'static Histogram,
    /// Rows answered `"error"` under this version.
    pub verdict_error: &'static Counter,
    /// Rows answered `"correct"` under this version.
    pub verdict_correct: &'static Counter,
}

/// The per-version series for `version`, registered on first use. Handles
/// are cached so steady-state serving takes one small lock per *request*
/// (not per row) and no registry lookups.
pub fn version_series(version: u64) -> VersionSeries {
    static CACHE: OnceLock<Mutex<Vec<(u64, VersionSeries)>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
    let mut cached = cache.lock().unwrap_or_else(|e| e.into_inner());
    if let Some((_, series)) = cached.iter().find(|(v, _)| *v == version) {
        return *series;
    }
    let series = VersionSeries {
        score: histogram(
            &format!("serve.score_v{version}"),
            gale_obs::metrics::buckets::UNIT,
        ),
        verdict_error: counter(&format!("serve.verdict_error_v{version}")),
        verdict_correct: counter(&format!("serve.verdict_correct_v{version}")),
    };
    cached.push((version, series));
    series
}

/// Touches every serving series once so `/metrics` exposes them all from
/// the first scrape — a `serve_shed 0` that has never shed is a signal,
/// an absent series is a question.
pub fn register_all() {
    requests();
    shed();
    batches();
    rows();
    queue_depth();
    connections();
    model_version();
    reloads();
    reload_failures();
    pool_hits();
    pool_misses();
    batch_rows();
    latency_us();
    stage_read_us();
    stage_parse_us();
    stage_dispatch_us();
    stage_queue_us();
    stage_assembly_us();
    stage_forward_us();
    stage_write_us();
    request_us();
}
