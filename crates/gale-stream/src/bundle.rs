//! On-disk stream bundles: everything a serving process needs to boot a
//! [`crate::StreamEngine`].
//!
//! A bundle directory holds:
//!
//! - `graph.csr` — the adjacency in the durable CSR container
//!   ([`gale_graph::CsrStore`]), fsynced by the writer before the
//!   manifest references it.
//! - `bundle.json` — manifest: node/feature dims, the feature matrix
//!   (hexfloat bits, bit-exact), and the frozen [`ColumnStandardizer`]
//!   mean/scale vectors.
//! - `gae.ckpt` / `sgan.ckpt` — the trained encoder and discriminator in
//!   their native checkpoint envelopes.
//!
//! Loading rebuilds the exact engine: same graph bits, same feature
//! bits, same model bits, same standardizer bits — so a bundle round
//! trip preserves the bitwise verdict-equality contract.

use crate::delta::{BaseGraph, DeltaGraph};
use crate::engine::{StreamConfig, StreamEngine};
use gale_core::{ColumnStandardizer, Sgan};
use gale_json::{json, Value};
use gale_nn::checkpoint::{load_gae, save_gae, tensor_from_json, tensor_to_json};
use gale_nn::Gae;
use gale_tensor::{Matrix, NeighborAccess};
use std::path::Path;

/// Manifest file name inside a bundle directory.
pub const MANIFEST: &str = "bundle.json";
/// Adjacency file name inside a bundle directory.
pub const GRAPH: &str = "graph.csr";
/// Encoder checkpoint file name inside a bundle directory.
pub const GAE_CKPT: &str = "gae.ckpt";
/// Discriminator checkpoint file name inside a bundle directory.
pub const SGAN_CKPT: &str = "sgan.ckpt";

fn bad(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Writes a stream bundle to `dir` (created if missing).
///
/// The adjacency must be the graph `gae`/`sgan`/`standardizer` were
/// produced against; nothing re-derives it at load time.
pub fn save_bundle(
    dir: &Path,
    graph: &(impl NeighborAccess + ?Sized),
    x: &Matrix,
    gae: &Gae,
    sgan: &Sgan,
    standardizer: &ColumnStandardizer,
) -> std::io::Result<()> {
    if x.rows() != graph.node_count() {
        return Err(bad(format!(
            "feature rows {} != graph nodes {}",
            x.rows(),
            graph.node_count()
        )));
    }
    std::fs::create_dir_all(dir)?;
    gale_graph::write_csr(graph, graph.node_count(), dir.join(GRAPH))?;
    save_gae(gae, dir.join(GAE_CKPT)).map_err(|e| bad(format!("gae checkpoint: {e}")))?;
    sgan.save(dir.join(SGAN_CKPT))
        .map_err(|e| bad(format!("sgan checkpoint: {e}")))?;
    let manifest = json!({
        "format": "gale-stream-bundle",
        "version": 1,
        "nodes": graph.node_count(),
        "feature_dim": x.cols(),
        "features": tensor_to_json(x),
        "standardizer": {
            "mean": gale_json::encode_f64s(standardizer.mean()),
            "scale": gale_json::encode_f64s(standardizer.scale()),
        },
    });
    std::fs::write(dir.join(MANIFEST), manifest.to_string_pretty())?;
    Ok(())
}

/// Loads a bundle directory back into a ready [`StreamEngine`].
pub fn load_bundle(dir: &Path, cfg: StreamConfig) -> std::io::Result<StreamEngine> {
    let manifest: Value = gale_json::from_str(&std::fs::read_to_string(dir.join(MANIFEST))?)
        .map_err(|e| bad(format!("manifest: {e}")))?;
    match manifest.get("format").and_then(Value::as_str) {
        Some("gale-stream-bundle") => {}
        other => return Err(bad(format!("not a stream bundle (format {other:?})"))),
    }
    let nodes = manifest
        .get("nodes")
        .and_then(Value::as_u64)
        .ok_or_else(|| bad("manifest needs `nodes`"))? as usize;
    let x = tensor_from_json(
        manifest
            .get("features")
            .ok_or_else(|| bad("manifest needs `features`"))?,
    )
    .map_err(|e| bad(format!("features: {e}")))?;
    if x.rows() != nodes {
        return Err(bad(format!(
            "manifest says {nodes} nodes but features have {} rows",
            x.rows()
        )));
    }
    let st = manifest
        .get("standardizer")
        .ok_or_else(|| bad("manifest needs `standardizer`"))?;
    let decode = |field: &str| -> std::io::Result<Vec<f64>> {
        let bits = st
            .get(field)
            .ok_or_else(|| bad(format!("standardizer needs `{field}`")))?;
        gale_json::decode_f64s(bits).map_err(|e| bad(format!("standardizer {field}: {e}")))
    };
    let standardizer = ColumnStandardizer::from_parts(decode("mean")?, decode("scale")?);

    // A graph is square: a column past the last row would reach every
    // consumer as an out-of-range neighbor.
    let store = gale_graph::CsrStore::open(dir.join(GRAPH))?;
    if (store.rows(), store.cols()) != (nodes, nodes) {
        return Err(bad(format!(
            "manifest says {nodes} nodes but graph is {}x{}",
            store.rows(),
            store.cols()
        )));
    }
    let gae = load_gae(dir.join(GAE_CKPT)).map_err(|e| bad(format!("gae checkpoint: {e}")))?;
    let sgan = Sgan::load(dir.join(SGAN_CKPT)).map_err(|e| bad(format!("sgan checkpoint: {e}")))?;

    let graph = DeltaGraph::new(BaseGraph::Store(store));
    StreamEngine::new(graph, x, gae, sgan, Some(standardizer), cfg).map_err(bad)
}
