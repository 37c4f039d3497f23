//! Forward-only, precision-generic inference replicas.
//!
//! Training owns the `f64` layer stack (optimizer state, gradients, RNG
//! streams); serving only ever runs evaluation-mode forwards. This module
//! lowers a trained network into a stripped [`InferNet`] — weights plus
//! the evaluation-mode compute graph, nothing else — generic over the
//! kernel [`Element`], so the same replica type serves both the `f64`
//! reference path and the bandwidth-halved `f32` path.
//!
//! Two contracts, both load-bearing for serving (DESIGN.md §6e):
//!
//! * **f64 parity is bitwise.** `InferNet::<f64>` mirrors the training
//!   stack's evaluation forward operation for operation (same GEMM tiles,
//!   same broadcast order, same scalar activation expressions, batch-norm
//!   folded into the exact per-feature chain evaluation mode computes), so
//!   lowering to `f64` and serving is indistinguishable from serving the
//!   training object itself.
//! * **Lowering is one-way.** `to_f32()` rounds each parameter once
//!   (round-to-nearest); nothing converts back into training state or
//!   checkpoints. The f32 replica is a different, lower-precision — but
//!   still deterministic and thread-count-invariant — function, compared
//!   against f64 by the tolerance-gated precision bench.

use crate::activation::Activation;
use crate::checkpoint::LayerState;
use crate::mlp::Mlp;
use gale_tensor::{Element, Matrix};

/// Lowers an `f64` matrix into element type `E` (identity for `f64`,
/// round-to-nearest for `f32`).
fn lower<E: Element>(m: &Matrix) -> Matrix<E> {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for (o, &v) in out.data_mut().iter_mut().zip(m.data()) {
        *o = E::from_f64(v);
    }
    out
}

/// One evaluation-mode layer of an [`InferNet`].
///
/// Only the shapes evaluation mode can reach exist here: dropout lowers to
/// [`InferLayer::Identity`] (eval dropout is a copy), and batch-norm lowers
/// to its folded per-feature affine form.
pub enum InferLayer<E: Element> {
    /// Dense affine layer: `out = x W + b`.
    Linear {
        /// Weights, `in_dim x out_dim`.
        w: Matrix<E>,
        /// Bias row, `1 x out_dim`.
        b: Matrix<E>,
    },
    /// Evaluation-mode batch normalization, pre-folded per feature:
    /// `out = ((x - mean) * std_inv) * gamma + beta` with
    /// `std_inv = 1 / sqrt(var + eps)` computed at lowering time in the
    /// same expression evaluation mode uses, so the f64 replica matches
    /// the live layer bit for bit.
    BatchNorm {
        /// Running mean per feature.
        mean: Vec<E>,
        /// `1 / sqrt(running_var + eps)` per feature.
        std_inv: Vec<E>,
        /// Learned scale per feature.
        gamma: Vec<E>,
        /// Learned shift per feature.
        beta: Vec<E>,
    },
    /// Element-wise activation.
    Activation(Activation),
    /// Pure copy (evaluation-mode dropout).
    Identity,
}

/// A forward-only sequential network over element type `E`, with the same
/// persistent-tap buffer discipline as [`Mlp::forward_inplace`]: steady
/// state inference allocates nothing.
pub struct InferNet<E: Element> {
    layers: Vec<InferLayer<E>>,
    taps: Vec<Matrix<E>>,
}

impl<E: Element> InferNet<E> {
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
                        w: lower(w),
                        b: lower(b),
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
                        let mean: Vec<E> = running_mean.iter().map(|&m| E::from_f64(m)).collect();
                        // Same expression BatchNorm's evaluation mode
                        // computes per feature; for E = f64 the bits match.
                        let std_inv: Vec<E> = running_var
                            .iter()
                            .map(|&v| E::ONE / (E::from_f64(v) + E::from_f64(*eps)).sqrt())
                            .collect();
                        let gamma: Vec<E> = gamma.row(0).iter().map(|&g| E::from_f64(g)).collect();
                        let beta: Vec<E> = beta.row(0).iter().map(|&b| E::from_f64(b)).collect();
                        InferLayer::BatchNorm {
                            mean,
                            std_inv,
                            gamma,
                            beta,
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
    pub fn tap(&self, i: usize) -> &Matrix<E> {
        &self.taps[i]
    }

    /// Evaluation forward returning a borrow of the final tap; persistent
    /// buffers, no steady-state allocation — the inference analogue of
    /// [`Mlp::forward_inplace`] with `train = false`.
    pub fn forward_inplace(&mut self, x: &Matrix<E>) -> &Matrix<E> {
        if self.layers.is_empty() {
            self.taps[0].copy_from(x);
            return &self.taps[0];
        }
        for i in 0..self.layers.len() {
            let (prev, cur) = self.taps.split_at_mut(i);
            let input: &Matrix<E> = if i == 0 { x } else { &prev[i - 1] };
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
                        *v = act.apply_e(*v);
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
    /// Lowers this network into a forward-only replica over element `E`.
    /// `to_infer::<f64>()` is the bitwise-parity reference; see the module
    /// docs for the contract.
    pub fn to_infer<E: Element>(&self) -> InferNet<E> {
        InferNet::from_states(&self.layer_states())
    }

    /// One-way lowering to the `f32` inference replica.
    pub fn to_f32(&self) -> InferNet<f32> {
        self.to_infer::<f32>()
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
        let mut replica = net.to_infer::<f64>();
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

    #[test]
    fn f32_replica_tracks_f64_within_single_precision() {
        let mut rng = Rng::seed_from_u64(43);
        let net = trained_stack(&mut rng);
        let mut r64 = net.to_infer::<f64>();
        let mut r32 = net.to_f32();
        let x = Matrix::randn(8, 7, 1.5, &mut rng);
        let y64 = r64.forward_inplace(&x).clone();
        let y32 = r32.forward_inplace(&x.to_f32()).clone();
        for (a, b) in y32.data().iter().zip(y64.data()) {
            let scale = 1.0 + b.abs();
            assert!((*a as f64 - b).abs() <= 1e-4 * scale, "f32 {a} vs f64 {b}");
        }
    }

    #[test]
    fn f32_forward_is_thread_count_invariant() {
        use gale_tensor::par::with_threads;
        let mut rng = Rng::seed_from_u64(77);
        let net = trained_stack(&mut rng);
        let x = Matrix::randn(33, 7, 1.0, &mut rng).to_f32();
        let want: Vec<u32> = with_threads(1, || {
            let mut r = net.to_f32();
            r.forward_inplace(&x)
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        });
        for threads in [2usize, 8] {
            let got: Vec<u32> = with_threads(threads, || {
                let mut r = net.to_f32();
                r.forward_inplace(&x)
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            });
            assert_eq!(got, want, "threads {threads}");
        }
    }
}
