//! # gale-nn
//!
//! Manual-gradient neural networks for the GALE reproduction: dense layers,
//! activations, dropout, batch norm, GCN, a graph autoencoder, the SGAN loss
//! functions of Section IV, Adam, and hash-based token embeddings.
//!
//! Everything is `f64` on CPU with explicit backprop (no autograd), traded
//! off deliberately: the paper's experiments depend on the training
//! *objectives*, not GPU throughput, and a hand-derived backward pass keeps
//! the whole stack dependency-free and deterministic. Every layer's gradient
//! is validated against central finite differences in its module tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)]

pub mod activation;
pub mod batchnorm;
pub mod checkpoint;
pub mod dropout;
pub mod embedding;
pub mod gae;
pub mod gcn;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod optim;
pub mod sampler;

pub use activation::{Activation, ActivationLayer};
pub use batchnorm::BatchNorm;
pub use checkpoint::{CkptError, LayerState};
pub use dropout::Dropout;
pub use embedding::HashEmbedder;
pub use gae::{Gae, GaeConfig, MiniBatchConfig};
pub use gcn::{Gcn, GcnLayer};
pub use layer::{Layer, Params};
pub use linear::Linear;
pub use loss::{
    bce_with_logit_grad, feature_matching_loss, sgan_unsupervised_loss, softmax_cross_entropy,
};
pub use mlp::{backward_from_tap_into, Mlp};
pub use optim::{Adam, Sgd};
pub use sampler::{Block, NeighborSampler, SamplerConfig};
