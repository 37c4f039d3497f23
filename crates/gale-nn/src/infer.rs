//! Forward-only inference replicas.
//!
//! Training owns the layer stack (optimizer state, gradients, RNG
//! streams); serving only ever runs evaluation-mode forwards. This module
//! copies a trained network into a stripped [`InferNet`]: weights plus the
//! evaluation-mode compute graph, nothing else.
//!
//! The replica's contract is load-bearing for serving (DESIGN.md §6e):
//! [`InferNet`] mirrors the training stack's evaluation forward operation
//! for operation (same GEMM tiles, same broadcast order, same scalar
//! activation expressions, batch-norm folded into the exact per-feature
//! chain evaluation mode computes), so serving a replica is bitwise
//! indistinguishable from serving the training object itself. Nothing
//! converts a replica back into training state or checkpoints.

use crate::activation::Activation;
use crate::checkpoint::LayerState;
use crate::mlp::Mlp;
use gale_tensor::Matrix;

/// One evaluation-mode layer of an [`InferNet`].
///
/// Only the shapes evaluation mode can reach exist here: dropout lowers to
/// [`InferLayer::Identity`] (eval dropout is a copy), and batch-norm lowers
/// to its folded per-feature affine form.
pub enum InferLayer {
    /// Dense affine layer: `out = x W + b`.
    Linear {
        /// Weights, `in_dim x out_dim`.
        w: Matrix,
        /// Bias row, `1 x out_dim`.
        b: Matrix,
    },
    /// Evaluation-mode batch normalization, pre-folded per feature:
    /// `out = ((x - mean) * std_inv) * gamma + beta` with
    /// `std_inv = 1 / sqrt(var + eps)` computed when the replica is built,
    /// in the same expression evaluation mode uses, so the replica matches
    /// the live layer bit for bit.
    BatchNorm {
        /// Running mean per feature.
        mean: Vec<f64>,
        /// `1 / sqrt(running_var + eps)` per feature.
        std_inv: Vec<f64>,
        /// Learned scale per feature.
        gamma: Vec<f64>,
        /// Learned shift per feature.
        beta: Vec<f64>,
    },
    /// Element-wise activation.
    Activation(Activation),
    /// Pure copy (evaluation-mode dropout).
    Identity,
}

/// A forward-only sequential network, with the same persistent-tap buffer
/// discipline as [`Mlp::forward_inplace`]: steady state inference
/// allocates nothing.
pub struct InferNet {
    layers: Vec<InferLayer>,
    taps: Vec<Matrix>,
}

impl InferNet {
    /// Builds a replica from checkpoint-shape layer snapshots (the output
    /// of [`Mlp::layer_states`]).
    ///
    /// Panics on a `None` snapshot: every layer the serving stack uses
    /// (linear / batch-norm / activation / dropout) snapshots itself, so a
    /// gap means the network contains a layer inference cannot replicate.
    pub fn from_states(states: &[Option<LayerState>]) -> Self {
        let layers = states
            .iter()
            .enumerate()
            .map(|(i, st)| {
                let st = st
                    .as_ref()
                    .unwrap_or_else(|| panic!("InferNet: layer {i} has no state snapshot"));
                match st {
                    LayerState::Linear { w, b } => InferLayer::Linear {
                        w: w.clone(),
                        b: b.clone(),
                    },
                    LayerState::Activation { act } => InferLayer::Activation(*act),
                    LayerState::Dropout { .. } => InferLayer::Identity,
                    LayerState::BatchNorm {
                        gamma,
                        beta,
                        running_mean,
                        running_var,
                        eps,
                        ..
                    } => {
                        // Same expression BatchNorm's evaluation mode
                        // computes per feature, so the bits match.
                        let std_inv = running_var
                            .iter()
                            .map(|&v| 1.0 / (v + eps).sqrt())
                            .collect();
                        InferLayer::BatchNorm {
                            mean: running_mean.clone(),
                            std_inv,
                            gamma: gamma.row(0).to_vec(),
                            beta: beta.row(0).to_vec(),
                        }
                    }
                }
            })
            .collect::<Vec<_>>();
        let depth = layers.len().max(1);
        InferNet {
            layers,
            taps: (0..depth).map(|_| Matrix::zeros(0, 0)).collect(),
        }
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Output of layer `i` from the most recent forward pass (the
    /// embedding tap, mirroring [`Mlp::tap`]).
    pub fn tap(&self, i: usize) -> &Matrix {
        &self.taps[i]
    }

    /// Evaluation forward returning a borrow of the final tap; persistent
    /// buffers, no steady-state allocation — the inference analogue of
    /// [`Mlp::forward_inplace`] with `train = false`.
    pub fn forward_inplace(&mut self, x: &Matrix) -> &Matrix {
        if self.layers.is_empty() {
            self.taps[0].copy_from(x);
            return &self.taps[0];
        }
        for i in 0..self.layers.len() {
            let (prev, cur) = self.taps.split_at_mut(i);
            let input: &Matrix = if i == 0 { x } else { &prev[i - 1] };
            let out = &mut cur[0];
            match &self.layers[i] {
                InferLayer::Linear { w, b } => {
                    // The evaluation path of `Linear::forward_into`.
                    input.matmul_into(w, out);
                    out.add_row_broadcast(b.row(0));
                }
                InferLayer::BatchNorm {
                    mean,
                    std_inv,
                    gamma,
                    beta,
                } => {
                    out.copy_from(input);
                    let cols = out.cols();
                    for row in 0..out.rows() {
                        let r = out.row_mut(row);
                        for c in 0..cols {
                            r[c] = ((r[c] - mean[c]) * std_inv[c]) * gamma[c] + beta[c];
                        }
                    }
                }
                InferLayer::Activation(act) => {
                    out.copy_from(input);
                    for v in out.data_mut() {
                        *v = act.apply(*v);
                    }
                }
                InferLayer::Identity => {
                    out.copy_from(input);
                }
            }
        }
        self.taps.last().expect("taps sized at construction")
    }
}

impl Mlp {
    /// Copies this network into a forward-only replica; see the module docs
    /// for the contract.
    pub fn to_infer(&self) -> InferNet {
        InferNet::from_states(&self.layer_states())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gale_tensor::Rng;

    /// An Mlp with every lowerable layer kind: Linear, BatchNorm (with
    /// non-trivial running stats from a few training-mode passes),
    /// LeakyRelu activations, and Dropout.
    fn trained_stack(rng: &mut Rng) -> Mlp {
        let mut net = Mlp::dense(&[7, 11, 5, 3], Activation::LeakyRelu, true, 0.3, rng);
        for step in 0..4 {
            let x = Matrix::randn(9, 7, 1.0 + step as f64 * 0.25, rng);
            net.forward_inplace(&x, true);
        }
        net
    }

    #[test]
    fn f64_replica_matches_eval_forward_bitwise() {
        let mut rng = Rng::seed_from_u64(42);
        let mut net = trained_stack(&mut rng);
        let mut replica = net.to_infer();
        for trial in 0..3 {
            let x = Matrix::randn(6, 7, 2.0, &mut rng);
            let want = net.forward_inplace(&x, false).clone();
            let got = replica.forward_inplace(&x);
            assert_eq!(got.shape(), want.shape());
            for (g, w) in got.data().iter().zip(want.data()) {
                assert_eq!(g.to_bits(), w.to_bits(), "trial {trial}");
            }
        }
    }
}
