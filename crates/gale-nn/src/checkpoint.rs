//! Versioned, self-describing model checkpoints over `gale-json`.
//!
//! A checkpoint is a single JSON document carrying an envelope
//! (`format`/`version`/`kind`) followed by the model body: layer topology,
//! hyperparameters, and parameter tensors. Tensors, running statistics, and
//! RNG state are stored bit-exactly via [`gale_json::hexfloat`] (16 hex
//! digits per `f64`); scalar hyperparameters use decimal JSON numbers, which
//! also round-trip exactly (shortest-representation printing plus
//! correctly-rounded parsing). Serialization is deterministic — objects keep
//! insertion order — so `save → load → save` reproduces the file
//! byte-for-byte.
//!
//! Loading never panics on bad input: corrupt, truncated, or
//! version-mismatched files surface as a typed [`CkptError`].
//!
//! What is captured per model:
//!
//! * **MLP** — every layer's type and parameters, including batch-norm
//!   running statistics and the dropout RNG stream, so a restored network
//!   both evaluates and *trains* bit-identically to the original.
//! * **Adam** — betas, step count, and first/second moment tensors in
//!   `visit_params` order, so optimization resumes exactly.
//! * **GCN / GAE** — weight tensors and activations. The graph operator `S`
//!   is *not* serialized: it belongs to the dataset, not the model, and
//!   every forward takes it as an argument.

use crate::activation::{Activation, ActivationLayer};
use crate::batchnorm::BatchNorm;
use crate::dropout::Dropout;
use crate::gae::Gae;
use crate::gcn::{Gcn, GcnLayer};
use crate::layer::Layer;
use crate::linear::Linear;
use crate::mlp::Mlp;
use crate::optim::Adam;
use gale_json::{json, Map, Value};
use gale_tensor::{Matrix, Rng};
use std::fmt;
use std::path::Path;

/// Magic string identifying a gale checkpoint document.
pub const FORMAT_NAME: &str = "gale-checkpoint";

/// Current (and only) supported checkpoint format version.
pub const FORMAT_VERSION: i64 = 1;

/// Why a checkpoint could not be read or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// Filesystem read/write failure.
    Io {
        /// The path involved.
        path: String,
        /// The underlying OS error, stringified.
        detail: String,
    },
    /// The file is not valid JSON (corrupt or truncated).
    Parse(String),
    /// The document is JSON but not a gale checkpoint.
    Format(String),
    /// The checkpoint was written by an unsupported format version.
    Version {
        /// Version found in the file.
        found: i64,
        /// Version this build supports.
        supported: i64,
    },
    /// The checkpoint holds a different model kind than requested.
    Kind {
        /// Kind the caller asked for.
        expected: String,
        /// Kind recorded in the file.
        found: String,
    },
    /// The document matches the envelope but a body field is missing,
    /// mistyped, or inconsistent.
    Schema(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io { path, detail } => write!(f, "checkpoint io error at {path}: {detail}"),
            CkptError::Parse(msg) => write!(f, "checkpoint is not valid JSON: {msg}"),
            CkptError::Format(msg) => write!(f, "not a gale checkpoint: {msg}"),
            CkptError::Version { found, supported } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads version {supported})"
            ),
            CkptError::Kind { expected, found } => write!(
                f,
                "checkpoint holds a {found:?} model, expected {expected:?}"
            ),
            CkptError::Schema(msg) => write!(f, "malformed checkpoint body: {msg}"),
        }
    }
}

impl std::error::Error for CkptError {}

// ---------------------------------------------------------------------------
// Field helpers
// ---------------------------------------------------------------------------

/// Looks up a required object field, or a [`CkptError::Schema`].
pub fn need<'a>(v: &'a Value, key: &str) -> Result<&'a Value, CkptError> {
    v.get(key)
        .ok_or_else(|| CkptError::Schema(format!("missing field `{key}`")))
}

/// Required non-negative integer field.
pub fn need_usize(v: &Value, key: &str) -> Result<usize, CkptError> {
    need(v, key)?
        .as_u64()
        .map(|n| n as usize)
        .ok_or_else(|| CkptError::Schema(format!("field `{key}` must be a non-negative integer")))
}

/// Required numeric field.
pub fn need_f64(v: &Value, key: &str) -> Result<f64, CkptError> {
    need(v, key)?
        .as_f64()
        .ok_or_else(|| CkptError::Schema(format!("field `{key}` must be a number")))
}

/// Required string field.
pub fn need_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, CkptError> {
    need(v, key)?
        .as_str()
        .ok_or_else(|| CkptError::Schema(format!("field `{key}` must be a string")))
}

/// Required array field.
pub fn need_array<'a>(v: &'a Value, key: &str) -> Result<&'a Vec<Value>, CkptError> {
    need(v, key)?
        .as_array()
        .ok_or_else(|| CkptError::Schema(format!("field `{key}` must be an array")))
}

/// Required bit-exact f64 array field (see [`gale_json::hexfloat`]).
pub fn need_f64s(v: &Value, key: &str) -> Result<Vec<f64>, CkptError> {
    gale_json::decode_f64s(need(v, key)?)
        .map_err(|e| CkptError::Schema(format!("field `{key}`: {e}")))
}

fn u64_to_hex(w: u64) -> Value {
    Value::Str(format!("{w:016x}"))
}

fn u64_from_hex(v: &Value, what: &str) -> Result<u64, CkptError> {
    let s = v
        .as_str()
        .ok_or_else(|| CkptError::Schema(format!("{what} must be a hex string")))?;
    u64::from_str_radix(s, 16).map_err(|e| CkptError::Schema(format!("{what}: bad hex {s:?}: {e}")))
}

// ---------------------------------------------------------------------------
// Tensor codec
// ---------------------------------------------------------------------------

/// Encodes a matrix as `{rows, cols, bits}` with bit-exact hex values.
pub fn tensor_to_json(m: &Matrix) -> Value {
    json!({
        "rows": m.rows(),
        "cols": m.cols(),
        "bits": gale_json::encode_f64s(m.data()),
    })
}

/// Decodes a matrix written by [`tensor_to_json`].
pub fn tensor_from_json(v: &Value) -> Result<Matrix, CkptError> {
    let rows = need_usize(v, "rows")?;
    let cols = need_usize(v, "cols")?;
    let data = need_f64s(v, "bits")?;
    let expect = rows
        .checked_mul(cols)
        .ok_or_else(|| CkptError::Schema(format!("tensor shape {rows}x{cols} overflows")))?;
    if data.len() != expect {
        return Err(CkptError::Schema(format!(
            "tensor shape {rows}x{cols} wants {expect} values, found {}",
            data.len()
        )));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

// ---------------------------------------------------------------------------
// Layer states
// ---------------------------------------------------------------------------

/// Owned, serializable snapshot of one layer's full state.
///
/// Produced by [`Layer::state`] and turned back into a live layer by
/// [`layer_from_state`]; the JSON codec between the two is
/// [`layer_state_to_json`] / [`layer_state_from_json`].
#[derive(Debug, Clone)]
pub enum LayerState {
    /// A dense layer's weights and bias.
    Linear {
        /// Weight matrix, `in_dim x out_dim`.
        w: Matrix,
        /// Bias row, `1 x out_dim`.
        b: Matrix,
    },
    /// An element-wise activation.
    Activation {
        /// Which function.
        act: Activation,
    },
    /// Inverted dropout, including the RNG stream so training resumes on
    /// the exact mask sequence.
    Dropout {
        /// Drop probability.
        p: f64,
        /// xoshiro256++ state words.
        rng_state: [u64; 4],
        /// Cached second Box-Muller deviate, if one is pending.
        cached_gauss: Option<f64>,
    },
    /// Batch normalization with learned scale/shift and running statistics.
    BatchNorm {
        /// Learned per-feature scale, `1 x d`.
        gamma: Matrix,
        /// Learned per-feature shift, `1 x d`.
        beta: Matrix,
        /// Running mean used in evaluation mode.
        running_mean: Vec<f64>,
        /// Running variance used in evaluation mode.
        running_var: Vec<f64>,
        /// Running-statistics momentum.
        momentum: f64,
        /// Variance floor added before the square root.
        eps: f64,
    },
}

/// Serializes a layer snapshot as a tagged JSON object.
pub fn layer_state_to_json(st: &LayerState) -> Value {
    match st {
        LayerState::Linear { w, b } => json!({
            "type": "linear",
            "w": tensor_to_json(w),
            "b": tensor_to_json(b),
        }),
        LayerState::Activation { act } => json!({
            "type": "activation",
            "act": act.name(),
        }),
        LayerState::Dropout {
            p,
            rng_state,
            cached_gauss,
        } => {
            let rng: Vec<Value> = rng_state.iter().map(|&w| u64_to_hex(w)).collect();
            json!({
                "type": "dropout",
                "p": *p,
                "rng": rng,
                "gauss": match cached_gauss {
                    Some(g) => gale_json::encode_f64s(&[*g]),
                    None => Value::Null,
                },
            })
        }
        LayerState::BatchNorm {
            gamma,
            beta,
            running_mean,
            running_var,
            momentum,
            eps,
        } => json!({
            "type": "batchnorm",
            "gamma": tensor_to_json(gamma),
            "beta": tensor_to_json(beta),
            "running_mean": gale_json::encode_f64s(running_mean),
            "running_var": gale_json::encode_f64s(running_var),
            "momentum": *momentum,
            "eps": *eps,
        }),
    }
}

/// Parses a layer snapshot written by [`layer_state_to_json`].
pub fn layer_state_from_json(v: &Value) -> Result<LayerState, CkptError> {
    match need_str(v, "type")? {
        "linear" => {
            let w = tensor_from_json(need(v, "w")?)?;
            let b = tensor_from_json(need(v, "b")?)?;
            if b.rows() != 1 || b.cols() != w.cols() {
                return Err(CkptError::Schema(format!(
                    "linear bias shape {:?} does not match weights {:?}",
                    b.shape(),
                    w.shape()
                )));
            }
            Ok(LayerState::Linear { w, b })
        }
        "activation" => {
            let name = need_str(v, "act")?;
            let act = Activation::from_name(name)
                .ok_or_else(|| CkptError::Schema(format!("unknown activation {name:?}")))?;
            Ok(LayerState::Activation { act })
        }
        "dropout" => {
            let p = need_f64(v, "p")?;
            if !(0.0..1.0).contains(&p) {
                return Err(CkptError::Schema(format!(
                    "dropout p must be in [0,1), got {p}"
                )));
            }
            let words = need_array(v, "rng")?;
            if words.len() != 4 {
                return Err(CkptError::Schema(format!(
                    "dropout rng state wants 4 words, found {}",
                    words.len()
                )));
            }
            let mut rng_state = [0u64; 4];
            for (slot, w) in rng_state.iter_mut().zip(words) {
                *slot = u64_from_hex(w, "dropout rng word")?;
            }
            let cached_gauss = match need(v, "gauss")? {
                Value::Null => None,
                other => {
                    let vals = gale_json::decode_f64s(other)
                        .map_err(|e| CkptError::Schema(format!("dropout gauss: {e}")))?;
                    match vals.as_slice() {
                        [g] => Some(*g),
                        _ => {
                            return Err(CkptError::Schema(
                                "dropout gauss must hold exactly one value".into(),
                            ))
                        }
                    }
                }
            };
            Ok(LayerState::Dropout {
                p,
                rng_state,
                cached_gauss,
            })
        }
        "batchnorm" => {
            let gamma = tensor_from_json(need(v, "gamma")?)?;
            let beta = tensor_from_json(need(v, "beta")?)?;
            let running_mean = need_f64s(v, "running_mean")?;
            let running_var = need_f64s(v, "running_var")?;
            let d = gamma.cols();
            if gamma.rows() != 1
                || beta.shape() != (1, d)
                || running_mean.len() != d
                || running_var.len() != d
            {
                return Err(CkptError::Schema(format!(
                    "batchnorm shapes disagree (gamma {:?}, beta {:?}, mean {}, var {})",
                    gamma.shape(),
                    beta.shape(),
                    running_mean.len(),
                    running_var.len()
                )));
            }
            Ok(LayerState::BatchNorm {
                gamma,
                beta,
                running_mean,
                running_var,
                momentum: need_f64(v, "momentum")?,
                eps: need_f64(v, "eps")?,
            })
        }
        other => Err(CkptError::Schema(format!("unknown layer type {other:?}"))),
    }
}

/// Rebuilds a live layer from a snapshot.
pub fn layer_from_state(st: LayerState) -> Box<dyn Layer> {
    match st {
        LayerState::Linear { w, b } => Box::new(Linear::from_parts(w, b)),
        LayerState::Activation { act } => Box::new(ActivationLayer::new(act)),
        LayerState::Dropout {
            p,
            rng_state,
            cached_gauss,
        } => Box::new(Dropout::new(p, Rng::from_state(rng_state, cached_gauss))),
        LayerState::BatchNorm {
            gamma,
            beta,
            running_mean,
            running_var,
            momentum,
            eps,
        } => Box::new(BatchNorm::from_parts(
            gamma,
            beta,
            running_mean,
            running_var,
            momentum,
            eps,
        )),
    }
}

// ---------------------------------------------------------------------------
// MLP
// ---------------------------------------------------------------------------

/// Serializes an MLP body: `{"layers": [...]}` in stack order.
///
/// Fails if any layer type lacks checkpoint support ([`Layer::state`]
/// returns `None`).
pub fn mlp_to_json(mlp: &Mlp) -> Result<Value, CkptError> {
    let mut layers = Vec::new();
    for (i, st) in mlp.layer_states().into_iter().enumerate() {
        match st {
            Some(st) => layers.push(layer_state_to_json(&st)),
            None => {
                return Err(CkptError::Schema(format!(
                    "layer {i} has no checkpoint support"
                )))
            }
        }
    }
    Ok(json!({ "layers": layers }))
}

/// Rebuilds an MLP from a body written by [`mlp_to_json`].
pub fn mlp_from_json(v: &Value) -> Result<Mlp, CkptError> {
    let mut mlp = Mlp::new();
    for lv in need_array(v, "layers")? {
        mlp.push_boxed(layer_from_state(layer_state_from_json(lv)?));
    }
    Ok(mlp)
}

// ---------------------------------------------------------------------------
// Adam
// ---------------------------------------------------------------------------

/// Serializes an Adam optimizer: hyperparameters, step count, and moment
/// tensors in `visit_params` order.
pub fn adam_to_json(opt: &Adam) -> Value {
    let state: Vec<Value> = opt
        .state
        .iter()
        .map(|(m, v)| json!({ "m": tensor_to_json(m), "v": tensor_to_json(v) }))
        .collect();
    json!({
        "lr": opt.lr,
        "beta1": opt.beta1,
        "beta2": opt.beta2,
        "eps": opt.eps,
        "t": opt.t as i64,
        "state": state,
    })
}

/// Rebuilds an Adam optimizer from a body written by [`adam_to_json`].
pub fn adam_from_json(v: &Value) -> Result<Adam, CkptError> {
    let t = need(v, "t")?
        .as_u64()
        .ok_or_else(|| CkptError::Schema("field `t` must be a non-negative integer".into()))?;
    let mut state = Vec::new();
    for entry in need_array(v, "state")? {
        let m = tensor_from_json(need(entry, "m")?)?;
        let mv = tensor_from_json(need(entry, "v")?)?;
        if m.shape() != mv.shape() {
            return Err(CkptError::Schema(format!(
                "adam moment shapes disagree: {:?} vs {:?}",
                m.shape(),
                mv.shape()
            )));
        }
        state.push((m, mv));
    }
    Ok(Adam {
        lr: need_f64(v, "lr")?,
        beta1: need_f64(v, "beta1")?,
        beta2: need_f64(v, "beta2")?,
        eps: need_f64(v, "eps")?,
        t,
        state,
    })
}

// ---------------------------------------------------------------------------
// GCN / GAE
// ---------------------------------------------------------------------------

fn gcn_layer_to_json(layer: &GcnLayer) -> Value {
    json!({
        "w": tensor_to_json(&layer.w),
        "b": tensor_to_json(&layer.b),
        "act": layer.act.name(),
    })
}

fn gcn_layer_from_json(v: &Value) -> Result<GcnLayer, CkptError> {
    let w = tensor_from_json(need(v, "w")?)?;
    let b = tensor_from_json(need(v, "b")?)?;
    if b.rows() != 1 || b.cols() != w.cols() {
        return Err(CkptError::Schema(format!(
            "gcn bias shape {:?} does not match weights {:?}",
            b.shape(),
            w.shape()
        )));
    }
    let name = need_str(v, "act")?;
    let act = Activation::from_name(name)
        .ok_or_else(|| CkptError::Schema(format!("unknown activation {name:?}")))?;
    Ok(GcnLayer::from_parts(w, b, act))
}

/// Serializes a two-layer GCN body. The graph operator `S` is not stored.
pub fn gcn_to_json(gcn: &Gcn) -> Value {
    json!({
        "layer1": gcn_layer_to_json(&gcn.layer1),
        "layer2": gcn_layer_to_json(&gcn.layer2),
    })
}

/// Rebuilds a GCN from a body written by [`gcn_to_json`].
pub fn gcn_from_json(v: &Value) -> Result<Gcn, CkptError> {
    let layer1 = gcn_layer_from_json(need(v, "layer1")?)?;
    let layer2 = gcn_layer_from_json(need(v, "layer2")?)?;
    if layer1.w.cols() != layer2.w.rows() {
        return Err(CkptError::Schema(format!(
            "gcn layer widths disagree: layer1 out {} vs layer2 in {}",
            layer1.w.cols(),
            layer2.w.rows()
        )));
    }
    Ok(Gcn::from_parts(layer1, layer2))
}

/// Serializes a trained GAE body (its GCN encoder plus the final loss).
pub fn gae_to_json(gae: &Gae) -> Value {
    json!({
        "encoder": gcn_to_json(&gae.encoder),
        "final_loss": gae.final_loss,
    })
}

/// Rebuilds a GAE from a body written by [`gae_to_json`].
pub fn gae_from_json(v: &Value) -> Result<Gae, CkptError> {
    let encoder = gcn_from_json(need(v, "encoder")?)?;
    let final_loss = need_f64(v, "final_loss")?;
    Ok(Gae::from_parts(encoder, final_loss))
}

// ---------------------------------------------------------------------------
// Envelope and file I/O
// ---------------------------------------------------------------------------

/// Wraps a body object in the checkpoint envelope: `format`, `version`, and
/// `kind` come first, then the body's own fields in their original order.
pub fn envelope(kind: &str, body: &Value) -> Value {
    let mut map = Map::new();
    map.insert("format", Value::Str(FORMAT_NAME.to_string()));
    map.insert("version", Value::Int(FORMAT_VERSION));
    map.insert("kind", Value::Str(kind.to_string()));
    if let Some(obj) = body.as_object() {
        for (k, v) in obj.iter() {
            map.insert(k.clone(), v.clone());
        }
    }
    Value::Object(map)
}

/// Validates the envelope of a parsed checkpoint — format magic, version,
/// and model kind — and hands the document back for body decoding.
pub fn open_envelope<'a>(v: &'a Value, kind: &str) -> Result<&'a Value, CkptError> {
    let found_format = v
        .get("format")
        .and_then(Value::as_str)
        .ok_or_else(|| CkptError::Format("missing `format` field".into()))?;
    if found_format != FORMAT_NAME {
        return Err(CkptError::Format(format!(
            "format is {found_format:?}, expected {FORMAT_NAME:?}"
        )));
    }
    let found_version = v
        .get("version")
        .and_then(Value::as_i64)
        .ok_or_else(|| CkptError::Format("missing `version` field".into()))?;
    if found_version != FORMAT_VERSION {
        return Err(CkptError::Version {
            found: found_version,
            supported: FORMAT_VERSION,
        });
    }
    let found_kind = need_str(v, "kind")?;
    if found_kind != kind {
        return Err(CkptError::Kind {
            expected: kind.to_string(),
            found: found_kind.to_string(),
        });
    }
    Ok(v)
}

/// Reads and parses a checkpoint file (envelope not yet validated).
pub fn read_file(path: &Path) -> Result<Value, CkptError> {
    let text = std::fs::read_to_string(path).map_err(|e| CkptError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    })?;
    gale_json::from_str(&text).map_err(|e| CkptError::Parse(e.to_string()))
}

/// Serializes a checkpoint document compactly and writes it to disk
/// atomically: the bytes land in a `.tmp` sibling first and are renamed
/// over `path` only once fully written. A reader — in particular a serving
/// process asked to hot-reload the file a trainer is re-emitting — sees
/// either the old complete checkpoint or the new one, never a torn write.
pub fn write_file(path: &Path, v: &Value) -> Result<(), CkptError> {
    let io_err = |e: std::io::Error| CkptError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    };
    let mut text = v.to_string_compact();
    text.push('\n');
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, text).map_err(io_err)?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        io_err(e)
    })
}

/// Saves an MLP checkpoint (`kind: "mlp"`).
pub fn save_mlp(mlp: &Mlp, path: impl AsRef<Path>) -> Result<(), CkptError> {
    let body = mlp_to_json(mlp)?;
    write_file(path.as_ref(), &envelope("mlp", &body))
}

/// Loads an MLP checkpoint written by [`save_mlp`].
pub fn load_mlp(path: impl AsRef<Path>) -> Result<Mlp, CkptError> {
    let doc = read_file(path.as_ref())?;
    mlp_from_json(open_envelope(&doc, "mlp")?)
}

/// Saves a GAE checkpoint (`kind: "gae"`).
pub fn save_gae(gae: &Gae, path: impl AsRef<Path>) -> Result<(), CkptError> {
    write_file(path.as_ref(), &envelope("gae", &gae_to_json(gae)))
}

/// Loads a GAE checkpoint written by [`save_gae`].
pub fn load_gae(path: impl AsRef<Path>) -> Result<Gae, CkptError> {
    let doc = read_file(path.as_ref())?;
    gae_from_json(open_envelope(&doc, "gae")?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Params;

    fn demo_mlp(rng: &mut Rng) -> Mlp {
        Mlp::dense(&[5, 8, 3], Activation::LeakyRelu, true, 0.25, rng)
    }

    #[test]
    fn mlp_round_trip_is_byte_identical_and_bitwise_equal() {
        let mut rng = Rng::seed_from_u64(201);
        let mut net = demo_mlp(&mut rng);
        // Exercise the net so batch-norm running stats and the dropout RNG
        // leave their initial state.
        let x = Matrix::randn(16, 5, 1.0, &mut rng);
        for _ in 0..3 {
            let _ = net.forward(&x, true);
        }

        let body = mlp_to_json(&net).unwrap();
        let doc = envelope("mlp", &body);
        let text1 = doc.to_string_compact();

        let parsed = gale_json::from_str(&text1).unwrap();
        let mut restored = mlp_from_json(open_envelope(&parsed, "mlp").unwrap()).unwrap();
        let text2 = envelope("mlp", &mlp_to_json(&restored).unwrap()).to_string_compact();
        assert_eq!(text1, text2, "save -> load -> save must be byte-identical");

        let y1 = net.forward(&x, false);
        let y2 = restored.forward(&x, false);
        for (a, b) in y1.data().iter().zip(y2.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Training mode must also agree: same dropout stream.
        let t1 = net.forward(&x, true);
        let t2 = restored.forward(&x, true);
        for (a, b) in t1.data().iter().zip(t2.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn adam_round_trip_resumes_identically() {
        let mut rng = Rng::seed_from_u64(202);
        let mut net = Mlp::dense(&[4, 6, 2], Activation::Tanh, false, 0.0, &mut rng);
        let mut opt = Adam::new(0.01);
        let x = Matrix::randn(8, 4, 1.0, &mut rng);
        for _ in 0..5 {
            let y = net.forward(&x, true);
            net.zero_grad();
            let _ = net.backward(&y);
            opt.step(&mut net);
        }

        let net_doc = mlp_to_json(&net).unwrap();
        let opt_doc = adam_to_json(&opt);
        let mut net2 = mlp_from_json(&gale_json::from_str(&net_doc.to_string_compact()).unwrap())
            .expect("net body");
        let mut opt2 = adam_from_json(&gale_json::from_str(&opt_doc.to_string_compact()).unwrap())
            .expect("opt body");

        // One more step on each copy must produce identical parameters.
        for (n, o) in [(&mut net, &mut opt), (&mut net2, &mut opt2)] {
            let y = n.forward(&x, true);
            n.zero_grad();
            let _ = n.backward(&y);
            o.step(&mut *n);
        }
        let mut p1 = Vec::new();
        net.visit_params(&mut |p, _| p1.extend(p.data().iter().map(|v| v.to_bits())));
        let mut p2 = Vec::new();
        net2.visit_params(&mut |p, _| p2.extend(p.data().iter().map(|v| v.to_bits())));
        assert_eq!(p1, p2);
    }

    #[test]
    fn envelope_rejections_are_typed() {
        let body = json!({ "layers": [] });
        let good = envelope("mlp", &body);

        let mut wrong_version = good.clone();
        if let Value::Object(m) = &mut wrong_version {
            m.insert("version", Value::Int(99));
        }
        assert!(matches!(
            open_envelope(&wrong_version, "mlp"),
            Err(CkptError::Version {
                found: 99,
                supported: FORMAT_VERSION
            })
        ));

        let mut wrong_kind = good.clone();
        if let Value::Object(m) = &mut wrong_kind {
            m.insert("kind", Value::Str("gcn".into()));
        }
        assert!(matches!(
            open_envelope(&wrong_kind, "mlp"),
            Err(CkptError::Kind { .. })
        ));

        let not_ours = json!({ "hello": 1 });
        assert!(matches!(
            open_envelope(&not_ours, "mlp"),
            Err(CkptError::Format(_))
        ));
    }

    #[test]
    fn corrupt_bodies_error_not_panic() {
        for text in [
            "",
            "{",
            "[1,2,3",
            r#"{"format":"gale-checkpoint","version":1,"kind":"mlp"}"#,
            r#"{"format":"gale-checkpoint","version":1,"kind":"mlp","layers":[{"type":"warp"}]}"#,
            r#"{"format":"gale-checkpoint","version":1,"kind":"mlp","layers":[{"type":"linear","w":{"rows":2,"cols":2,"bits":"00"},"b":{"rows":1,"cols":2,"bits":""}}]}"#,
        ] {
            let outcome = gale_json::from_str(text)
                .map_err(|e| CkptError::Parse(e.to_string()))
                .and_then(|doc| {
                    open_envelope(&doc, "mlp")?;
                    mlp_from_json(&doc)
                });
            assert!(outcome.is_err(), "should reject {text:?}");
        }
    }

    #[test]
    fn gcn_and_gae_round_trip() {
        use gale_tensor::SparseMatrix;
        let mut triplets = Vec::new();
        for i in 0..5usize {
            let j = (i + 1) % 6;
            triplets.push((i, j, 1.0));
            triplets.push((j, i, 1.0));
        }
        let a = SparseMatrix::from_triplets(6, 6, triplets);
        let s = a.sym_normalized_with_self_loops();
        let mut rng = Rng::seed_from_u64(203);
        let x = Matrix::randn(6, 4, 1.0, &mut rng);

        let mut gcn = Gcn::new(4, 7, 2, Activation::Identity, &mut rng);
        let doc = gcn_to_json(&gcn);
        let mut back =
            gcn_from_json(&gale_json::from_str(&doc.to_string_compact()).unwrap()).unwrap();
        let (mut y1, mut y2) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        gcn.forward([&s, &s], &x, &mut y1);
        back.forward([&s, &s], &x, &mut y2);
        for (a, b) in y1.data().iter().zip(y2.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            doc.to_string_compact(),
            gcn_to_json(&back).to_string_compact()
        );

        let cfg = crate::gae::GaeConfig {
            epochs: 3,
            ..Default::default()
        };
        let mut gae = Gae::train(&x, &a, &s, &cfg, &mut rng);
        let gdoc = gae_to_json(&gae);
        let mut gback =
            gae_from_json(&gale_json::from_str(&gdoc.to_string_compact()).unwrap()).unwrap();
        let (mut z1, mut z2) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        gae.embed(&s, &x, &mut z1);
        gback.embed(&s, &x, &mut z2);
        for (a, b) in z1.data().iter().zip(z2.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn file_io_round_trip_and_missing_file() {
        let dir = std::env::temp_dir().join("gale_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mlp.ckpt");
        let mut rng = Rng::seed_from_u64(204);
        let net = demo_mlp(&mut rng);
        save_mlp(&net, &path).unwrap();
        let bytes1 = std::fs::read(&path).unwrap();
        let restored = load_mlp(&path).unwrap();
        save_mlp(&restored, &path).unwrap();
        let bytes2 = std::fs::read(&path).unwrap();
        assert_eq!(bytes1, bytes2);

        assert!(matches!(
            load_mlp(dir.join("nope.ckpt")),
            Err(CkptError::Io { .. })
        ));
        std::fs::remove_file(&path).ok();
    }
}
