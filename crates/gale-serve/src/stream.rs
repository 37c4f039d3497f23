//! Streaming endpoints: `/mutate`, node-mode `/score`, `/debug/stream`.
//!
//! When the server boots with a stream bundle
//! ([`crate::serve_with_stream`]), a [`gale_stream::StreamEngine`] rides
//! alongside the shard pool behind a mutex. Mutations apply deltas and
//! mark k-hop dirty sets; verdicts refresh lazily on the next node-mode
//! score request, so a mutation burst costs one incremental refresh, not
//! one per mutation. Feature-body `/score` requests never touch the
//! mutex — they keep the shard-pool hot path. A panic inside the engine
//! poisons the mutex; from then on the three stream routes answer `503`
//! and feature-body `/score` keeps serving.

use crate::http;
use crate::metrics;
use gale_json::{json, Value};
use gale_stream::{Mutation, StreamEngine};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// The engine plus serving glue, shared with the event loop.
pub struct StreamState {
    engine: Mutex<StreamEngine>,
}

impl StreamState {
    /// Wraps an engine for serving.
    pub fn new(engine: StreamEngine) -> Self {
        StreamState {
            engine: Mutex::new(engine),
        }
    }

    /// The engine, or the `503` reply once a panic has poisoned its lock:
    /// the engine may have stopped mid-update, so it serves nothing more.
    fn lock(&self, ka: bool) -> Result<MutexGuard<'_, StreamEngine>, Vec<u8>> {
        self.engine.lock().map_err(|_| {
            let body = json!({"error": "stream engine failed"});
            http::render_json(503, "Service Unavailable", &[], &body, ka)
        })
    }

    /// `POST /mutate` — applies a mutation batch, returns the per-mutation
    /// outcomes and the new graph version. Verdicts stay stale until the
    /// next score request.
    pub fn mutate(&self, body: &[u8], ka: bool) -> Vec<u8> {
        let started = Instant::now();
        let muts = match std::str::from_utf8(body)
            .map_err(|e| e.to_string())
            .and_then(Mutation::parse_batch)
        {
            Ok(muts) => muts,
            Err(msg) => {
                return http::render_json(400, "Bad Request", &[], &json!({"error": msg}), ka)
            }
        };
        let mut engine = match self.lock(ka) {
            Ok(engine) => engine,
            Err(reply) => return reply,
        };
        match engine.apply(&muts) {
            Ok(report) => {
                metrics::stream_mutations().add(report.outcomes.len() as u64);
                metrics::stream_dirty_nodes().set(report.dirty as f64);
                metrics::stream_graph_version().set(report.graph_version as f64);
                metrics::stream_compactions().set(engine.graph_compactions() as f64);
                metrics::stream_quarantined().set(engine.quarantined_edges() as f64);
                metrics::stream_mutate_us().record(started.elapsed().as_micros() as f64);
                let outcomes: Vec<Value> = report
                    .outcomes
                    .iter()
                    .map(|o| {
                        json!({
                            "seq": Value::Int(o.seq as i64),
                            "op": o.kind,
                            "admitted": o.admitted,
                            "reason": match o.reason {
                                Some(r) => Value::from(r),
                                None => Value::Null,
                            },
                            "node": match o.assigned_node {
                                Some(n) => Value::Int(n as i64),
                                None => Value::Null,
                            },
                        })
                    })
                    .collect();
                http::render_json(
                    200,
                    "OK",
                    &[],
                    &json!({
                        "outcomes": Value::Array(outcomes),
                        "graph_version": Value::Int(report.graph_version as i64),
                        "dirty_nodes": Value::Int(report.dirty as i64),
                        "compacted": report.compacted,
                    }),
                    ka,
                )
            }
            Err(msg) => http::render_json(400, "Bad Request", &[], &json!({"error": msg}), ka),
        }
    }

    /// Node-mode `POST /score` — a parsed body with a top-level `nodes`
    /// key. Lazily refreshes dirty nodes, then answers with the same
    /// verdict vocabulary as the feature-body path, plus the
    /// `graph_version` each verdict was computed at.
    pub fn score_nodes(&self, doc: &Value, ka: bool) -> Vec<u8> {
        let nodes = match parse_nodes(doc) {
            Ok(nodes) => nodes,
            Err(msg) => {
                return http::render_json(400, "Bad Request", &[], &json!({"error": msg}), ka)
            }
        };
        let mut engine = match self.lock(ka) {
            Ok(engine) => engine,
            Err(reply) => return reply,
        };
        let refresh_ns_before = engine.refresh_ns;
        let refreshes_before = engine.refreshes;
        match engine.score_nodes(&nodes) {
            Ok(scores) => {
                if engine.refreshes > refreshes_before {
                    metrics::stream_refreshes().add(engine.refreshes - refreshes_before);
                    metrics::stream_refresh_us()
                        .record((engine.refresh_ns - refresh_ns_before) as f64 / 1_000.0);
                }
                metrics::stream_dirty_nodes().set(engine.dirty_count() as f64);
                let mut node_ids = Vec::with_capacity(scores.len());
                let mut probs = Vec::with_capacity(scores.len());
                let mut error_scores = Vec::with_capacity(scores.len());
                let mut verdicts = Vec::with_capacity(scores.len());
                let mut versions = Vec::with_capacity(scores.len());
                for s in &scores {
                    node_ids.push(Value::Int(s.node as i64));
                    probs.push(Value::Array(
                        s.probs.iter().map(|&p| Value::from(p)).collect(),
                    ));
                    error_scores.push(Value::from(s.score));
                    verdicts.push(Value::from(if s.erroneous { "error" } else { "correct" }));
                    versions.push(Value::Int(s.graph_version as i64));
                }
                http::render_json(
                    200,
                    "OK",
                    &[],
                    &json!({
                        "nodes": Value::Array(node_ids),
                        "probs": Value::Array(probs),
                        "error_scores": Value::Array(error_scores),
                        "verdicts": Value::Array(verdicts),
                        "graph_versions": Value::Array(versions),
                        "graph_version": Value::Int(engine.graph_version() as i64),
                    }),
                    ka,
                )
            }
            Err(msg) => http::render_json(400, "Bad Request", &[], &json!({"error": msg}), ka),
        }
    }

    /// `GET /debug/stream` — engine introspection document.
    pub fn debug(&self, ka: bool) -> Vec<u8> {
        match self.lock(ka) {
            Ok(engine) => http::render_json(200, "OK", &[], &engine.debug_json(), ka),
            Err(reply) => reply,
        }
    }
}

/// Reads `{"nodes": [0, 4, 17]}`.
fn parse_nodes(doc: &Value) -> Result<Vec<usize>, String> {
    let list = doc
        .get("nodes")
        .and_then(Value::as_array)
        .ok_or("body needs a `nodes` array")?;
    if list.is_empty() {
        return Err("`nodes` must not be empty".into());
    }
    list.iter()
        .map(|v| {
            v.as_u64()
                .map(|n| n as usize)
                .ok_or_else(|| "`nodes` entries must be non-negative integers".to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gale_core::{Sgan, SganConfig};
    use gale_nn::{Activation, Gae, Gcn};
    use gale_stream::{BaseGraph, DeltaGraph, StreamConfig};
    use gale_tensor::{Matrix, Rng, SparseMatrix};

    fn nodes(body: &str) -> Result<Vec<usize>, String> {
        parse_nodes(&gale_json::from_str(body).unwrap())
    }

    #[test]
    fn parse_nodes_accepts_and_rejects() {
        assert_eq!(nodes(r#"{"nodes": [0, 3]}"#).unwrap(), vec![0, 3]);
        assert!(nodes(r#"{"nodes": []}"#).is_err());
        assert!(nodes(r#"{"nodes": [-1]}"#).is_err());
        assert!(nodes(r#"{"nodes": 3}"#).is_err());
        assert!(nodes(r#"{"features": [1]}"#).is_err());
    }

    /// A four-node ring with a two-feature model.
    fn tiny_engine() -> StreamEngine {
        let mut rng = Rng::seed_from_u64(3);
        let ring = (0..4).flat_map(|i| [(i, (i + 1) % 4, 1.0), ((i + 1) % 4, i, 1.0)]);
        let a = SparseMatrix::from_triplets(4, 4, ring);
        let x = Matrix::rand_uniform(4, 2, -1.0, 1.0, &mut rng);
        let gae = Gae::from_parts(Gcn::new(2, 3, 2, Activation::Identity, &mut rng), 0.0);
        let cfg = SganConfig {
            d_hidden: vec![4],
            g_hidden: vec![4],
            ..Default::default()
        };
        let sgan = Sgan::new(4, &cfg, &mut rng);
        let graph = DeltaGraph::new(BaseGraph::Mem(a));
        StreamEngine::new(graph, x, gae, sgan, None, StreamConfig::default()).unwrap()
    }

    fn status(reply: &[u8]) -> &str {
        std::str::from_utf8(&reply[9..12]).unwrap()
    }

    #[test]
    fn a_poisoned_engine_answers_503_on_every_stream_route() {
        let state = StreamState::new(tiny_engine());
        let doc = gale_json::from_str(r#"{"nodes": [0, 1]}"#).unwrap();
        let mutate = br#"{"mutations": [{"op": "add_edge", "u": 0, "v": 2}]}"#;
        assert_eq!(status(&state.score_nodes(&doc, false)), "200");
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = state.engine.lock().unwrap();
                panic!("engine panic while holding the lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(state.engine.is_poisoned());
        for reply in [
            state.mutate(mutate, false),
            state.score_nodes(&doc, false),
            state.debug(false),
        ] {
            assert_eq!(status(&reply), "503");
            let text = String::from_utf8(reply).unwrap();
            assert!(
                text.ends_with(r#"{"error":"stream engine failed"}"#),
                "{text}"
            );
        }
    }
}
