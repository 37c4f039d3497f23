//! The layer abstraction shared by all manual-gradient networks.
//!
//! Layers cache whatever they need during `forward` and return input
//! gradients from `backward`; optimizers visit `(parameter, gradient)` pairs
//! in a stable order through [`Params::visit_params`].

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
/// `Send` is a supertrait so whole models can move into a serving thread;
/// every layer is plain owned data, so the bound costs implementors nothing.
pub trait Layer: Params + Send {
    /// Forward pass. `train` enables stochastic behaviour (dropout) and
    /// batch statistics (batch norm).
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix;

    /// Backward pass: receives dL/d(output), returns dL/d(input), and
    /// accumulates dL/d(params) internally.
    fn backward(&mut self, grad_out: &Matrix) -> Matrix;

    /// [`Layer::forward`] writing into a caller-owned buffer, so training
    /// loops can reuse activation storage across steps. The default
    /// delegates to `forward` and copies; hot layers override it with a
    /// genuinely allocation-free path. Results are bitwise identical to
    /// `forward` either way.
    fn forward_into(&mut self, x: &Matrix, train: bool, out: &mut Matrix) {
        out.copy_from(&self.forward(x, train));
    }

    /// [`Layer::backward`] writing into a caller-owned gradient buffer.
    /// Same contract as [`Layer::forward_into`].
    fn backward_into(&mut self, grad_out: &Matrix, grad_in: &mut Matrix) {
        grad_in.copy_from(&self.backward(grad_out));
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
/// of the scalar loss `0.5 * ||forward(x)||^2`. Test helper only.
pub fn input_gradient_error(layer: &mut dyn Layer, x: &Matrix, eps: f64) -> f64 {
    // Analytic: dL/dx = backward(forward(x)) since dL/dy = y for this loss.
    let y = layer.forward(x, false);
    let analytic = layer.backward(&y);

    let mut max_err = 0.0f64;
    let mut xp = x.clone();
    for r in 0..x.rows() {
        for c in 0..x.cols() {
            let orig = xp[(r, c)];
            xp[(r, c)] = orig + eps;
            let lp = 0.5
                * layer
                    .forward(&xp, false)
                    .data()
                    .iter()
                    .map(|v| v * v)
                    .sum::<f64>();
            xp[(r, c)] = orig - eps;
            let lm = 0.5
                * layer
                    .forward(&xp, false)
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
