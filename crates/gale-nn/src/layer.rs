//! The layer abstraction shared by all manual-gradient networks.
//!
//! Layers cache whatever they need during a training-mode `forward` and
//! return input gradients from `backward` where a caller reads them;
//! optimizers visit `(parameter, gradient)` pairs in a stable order
//! through [`Params::visit_params`].

use crate::checkpoint::LayerState;
use gale_tensor::Matrix;

/// A model's trainable parameters, the surface optimizers step. Networks
/// whose forward needs more than `x` (the GCN takes its graph operator)
/// implement this without [`Layer`].
pub trait Params {
    /// Visits every `(param, grad)` pair in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix));

    /// Clears accumulated parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.scale_inplace(0.0));
    }

    /// Total number of scalar parameters.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _| n += p.rows() * p.cols());
        n
    }
}

/// A differentiable network layer with manually implemented backprop.
///
/// `train = false` is inference: evaluation-mode forwards read only the
/// parameters (and batch norm's running statistics) and write no backward
/// state, so [`Layer::backward_into`] is defined only after a
/// training-mode forward. A backward after an evaluation forward fails
/// the layer's shape asserts instead of reading stale rows.
///
/// `Send` is a supertrait so whole models can move into a serving thread;
/// every layer is plain owned data, so the bound costs implementors nothing.
pub trait Layer: Params + Send {
    /// Forward pass into a caller-owned buffer, so loops reuse activation
    /// storage across steps. `train` enables stochastic behaviour
    /// (dropout), batch statistics (batch norm) and the caches backward
    /// reads.
    fn forward_into(&mut self, x: &Matrix, train: bool, out: &mut Matrix);

    /// Backward pass after a training-mode forward: receives dL/d(output),
    /// accumulates dL/d(params) internally, and writes dL/d(input) into
    /// `grad_in` when it is `Some`. `None` skips the input gradient: a
    /// network's first layer computes it only if a caller reads it (the
    /// generator's feature matching reads D's; neither player's own update
    /// reads its own).
    fn backward_into(&mut self, grad_out: &Matrix, grad_in: Option<&mut Matrix>);

    /// [`Layer::forward_into`] returning a fresh matrix.
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(x, train, &mut out);
        out
    }

    /// [`Layer::backward_into`] returning a fresh matrix.
    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut grad_in = Matrix::zeros(0, 0);
        self.backward_into(grad_out, Some(&mut grad_in));
        grad_in
    }

    /// Serializable snapshot of this layer for checkpointing, or `None` for
    /// layer types without checkpoint support (the default).
    fn state(&self) -> Option<LayerState> {
        None
    }
}

/// Numerically checks a layer's input gradient with central differences.
///
/// Returns the maximum absolute error between analytic and numeric gradients
/// of the scalar loss `0.5 * ||forward(x)||^2`, every forward in training
/// mode (backward needs its caches). Meant for stacks whose training
/// forward is deterministic (no dropout). Test helper only.
pub fn input_gradient_error(layer: &mut dyn Layer, x: &Matrix, eps: f64) -> f64 {
    // Analytic: dL/dx = backward(forward(x)) since dL/dy = y for this loss.
    let y = layer.forward(x, true);
    let analytic = layer.backward(&y);

    let mut max_err = 0.0f64;
    let mut xp = x.clone();
    for r in 0..x.rows() {
        for c in 0..x.cols() {
            let orig = xp[(r, c)];
            xp[(r, c)] = orig + eps;
            let lp = 0.5
                * layer
                    .forward(&xp, true)
                    .data()
                    .iter()
                    .map(|v| v * v)
                    .sum::<f64>();
            xp[(r, c)] = orig - eps;
            let lm = 0.5
                * layer
                    .forward(&xp, true)
                    .data()
                    .iter()
                    .map(|v| v * v)
                    .sum::<f64>();
            xp[(r, c)] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            max_err = max_err.max((numeric - analytic[(r, c)]).abs());
        }
    }
    max_err
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, ActivationLayer, BatchNorm, Linear};
    use gale_tensor::Rng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn backward_after_an_eval_forward_panics() {
        let mut rng = Rng::seed_from_u64(57);
        let x = Matrix::randn(5, 3, 1.0, &mut rng);
        let layers: [(&str, Box<dyn Layer>); 3] = [
            ("Linear", Box::new(Linear::new(3, 3, &mut rng))),
            (
                "ActivationLayer",
                Box::new(ActivationLayer::new(Activation::Tanh)),
            ),
            ("BatchNorm", Box::new(BatchNorm::new(3))),
        ];
        for (name, mut layer) in layers {
            // A training step first, so caches of the very shape the
            // backward below asks for would be there to read.
            let y = layer.forward(&x, true);
            let _ = layer.backward(&y);
            let y = layer.forward(&x, false);
            let after_eval = catch_unwind(AssertUnwindSafe(|| layer.backward(&y)));
            assert!(
                after_eval.is_err(),
                "{name}: backward after an eval forward read stale caches"
            );
            // A training forward makes backward defined again.
            let y = layer.forward(&x, true);
            assert_eq!(layer.backward(&y).shape(), x.shape(), "{name}");
        }
    }
}
