//! Sequential multi-layer perceptron container.

use crate::activation::{Activation, ActivationLayer};
use crate::batchnorm::BatchNorm;
use crate::checkpoint::LayerState;
use crate::dropout::Dropout;
use crate::layer::{Layer, Params};
use crate::linear::Linear;
use gale_tensor::{Matrix, Rng};

/// A sequential stack of layers trained with manual backprop.
pub struct Mlp {
    layers: Vec<Box<dyn Layer>>,
    /// Output of each layer from the most recent forward pass. Persistent
    /// buffers: each forward pass writes into the same storage, so steady
    /// state training allocates nothing here.
    taps: Vec<Matrix>,
    /// Ping-pong gradient scratch reused by every backward pass.
    gbuf_a: Matrix,
    gbuf_b: Matrix,
}

impl Mlp {
    /// Creates an empty network.
    pub fn new() -> Self {
        Mlp {
            layers: Vec::new(),
            taps: Vec::new(),
            gbuf_a: Matrix::zeros(0, 0),
            gbuf_b: Matrix::zeros(0, 0),
        }
    }

    /// Appends any layer.
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends an already-boxed layer (checkpoint reconstruction path).
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Serializable snapshot of each layer, in stack order. `None` entries
    /// mark layer types without checkpoint support.
    pub fn layer_states(&self) -> Vec<Option<LayerState>> {
        self.layers.iter().map(|l| l.state()).collect()
    }

    /// Convenience constructor: dense layers of the given sizes with the
    /// chosen hidden activation, optional batch-norm, and dropout after each
    /// hidden layer. The output layer is linear (no activation).
    ///
    /// `sizes` must list at least input and output dims, e.g. `[64, 32, 3]`.
    pub fn dense(
        sizes: &[usize],
        hidden_act: Activation,
        batch_norm: bool,
        dropout_p: f64,
        rng: &mut Rng,
    ) -> Self {
        assert!(sizes.len() >= 2, "Mlp::dense: need at least in/out sizes");
        let mut net = Mlp::new();
        for w in 0..sizes.len() - 1 {
            let last = w == sizes.len() - 2;
            net = net.push(Linear::new(sizes[w], sizes[w + 1], rng));
            if !last {
                if batch_norm {
                    net = net.push(BatchNorm::new(sizes[w + 1]));
                }
                net = net.push(ActivationLayer::new(hidden_act));
                if dropout_p > 0.0 {
                    net = net.push(Dropout::new(dropout_p, rng.fork()));
                }
            }
        }
        net
    }

    /// Number of layers in the stack.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Output of layer `i` from the most recent forward pass.
    ///
    /// GALE taps an intermediate discriminator layer both for the feature-
    /// matching loss and for the node embeddings `H_n(X_R)` handed to query
    /// selection.
    pub fn tap(&self, i: usize) -> &Matrix {
        &self.taps[i]
    }

    /// Index of the last hidden activation before the final linear layer —
    /// the conventional feature-matching tap.
    pub fn last_hidden_index(&self) -> usize {
        self.layers.len().saturating_sub(2)
    }

    /// Forward pass that returns a borrow of the final tap instead of a
    /// fresh matrix — the allocation-free path for training loops (the taps
    /// are persistent buffers reused across calls).
    pub fn forward_inplace(&mut self, x: &Matrix, train: bool) -> &Matrix {
        let live = gale_obs::enabled();
        let t = if live {
            Some(std::time::Instant::now())
        } else {
            None
        };
        let depth = self.layers.len().max(1);
        if self.taps.len() != depth {
            self.taps.resize_with(depth, || Matrix::zeros(0, 0));
        }
        if self.layers.is_empty() {
            self.taps[0].copy_from(x);
        }
        for i in 0..self.layers.len() {
            let (prev, cur) = self.taps.split_at_mut(i);
            let input: &Matrix = if i == 0 { x } else { &prev[i - 1] };
            self.layers[i].forward_into(input, train, &mut cur[0]);
        }
        if let Some(t) = t {
            gale_obs::hist_record!(
                "nn.forward_us",
                gale_obs::metrics::buckets::TIME_US,
                t.elapsed().as_micros() as f64
            );
        }
        self.taps.last().expect("taps sized above")
    }

    /// Backpropagates `grad`, dL/d(output of layer `top`), down to the
    /// input: the layers in between ping-pong through the persistent
    /// scratch, and the first writes `grad_in` directly (or skips it).
    fn backward_below(&mut self, top: usize, grad: &Matrix, grad_in: Option<&mut Matrix>) {
        if top == 0 {
            return self.layers[0].backward_into(grad, grad_in);
        }
        self.layers[top].backward_into(grad, Some(&mut self.gbuf_a));
        for i in (1..top).rev() {
            self.layers[i].backward_into(&self.gbuf_a, Some(&mut self.gbuf_b));
            std::mem::swap(&mut self.gbuf_a, &mut self.gbuf_b);
        }
        self.layers[0].backward_into(&self.gbuf_a, grad_in);
    }
}

impl Default for Mlp {
    fn default() -> Self {
        Mlp::new()
    }
}

impl Params for Mlp {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }
}

impl Layer for Mlp {
    fn forward_into(&mut self, x: &Matrix, train: bool, out: &mut Matrix) {
        self.forward_inplace(x, train);
        out.copy_from(self.taps.last().expect("taps sized by forward_inplace"));
    }

    fn backward_into(&mut self, grad_out: &Matrix, grad_in: Option<&mut Matrix>) {
        let live = gale_obs::enabled();
        let t = if live {
            Some(std::time::Instant::now())
        } else {
            None
        };
        if live {
            let norm = grad_out.frobenius_norm();
            gale_obs::hist_record!("nn.grad_norm", gale_obs::metrics::buckets::NORM, norm);
            gale_obs::gauge_set!("nn.grad_norm.last", norm);
        }
        match self.layers.len() {
            0 => {
                if let Some(grad_in) = grad_in {
                    grad_in.copy_from(grad_out);
                }
            }
            n => self.backward_below(n - 1, grad_out, grad_in),
        }
        if let Some(t) = t {
            gale_obs::hist_record!(
                "nn.backward_us",
                gale_obs::metrics::buckets::TIME_US,
                t.elapsed().as_micros() as f64
            );
        }
    }
}

/// Backward pass starting from an intermediate tap: propagates `grad` from
/// layer `tap_index` down to the input, skipping the layers above it, and
/// writes dL/d(input) into `out`. Like [`Layer::backward_into`], it needs
/// a training-mode forward first.
///
/// Used by the generator's feature-matching update, whose loss is defined on
/// an intermediate discriminator layer rather than on the logits. The
/// intermediate gradients ping-pong through the network's persistent
/// scratch, so the pass allocates nothing in steady state.
pub fn backward_from_tap_into(net: &mut Mlp, tap_index: usize, grad: &Matrix, out: &mut Matrix) {
    net.backward_below(tap_index, grad, Some(out));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::input_gradient_error;

    #[test]
    fn dense_builder_shapes() {
        let mut rng = Rng::seed_from_u64(81);
        let mut net = Mlp::dense(&[10, 16, 8, 3], Activation::Relu, false, 0.0, &mut rng);
        let x = Matrix::randn(5, 10, 1.0, &mut rng);
        let y = net.forward(&x, false);
        assert_eq!(y.shape(), (5, 3));
        // 3 linear + 2 activation layers.
        assert_eq!(net.depth(), 5);
    }

    #[test]
    fn gradient_through_whole_stack() {
        let mut rng = Rng::seed_from_u64(82);
        let mut net = Mlp::dense(&[6, 8, 4], Activation::Tanh, false, 0.0, &mut rng);
        let x = Matrix::randn(3, 6, 1.0, &mut rng);
        let err = input_gradient_error(&mut net, &x, 1e-6);
        assert!(err < 1e-5, "gradient error {err}");
    }

    #[test]
    fn taps_record_layer_outputs() {
        let mut rng = Rng::seed_from_u64(83);
        let mut net = Mlp::dense(&[4, 8, 2], Activation::Relu, false, 0.0, &mut rng);
        let x = Matrix::randn(2, 4, 1.0, &mut rng);
        let y = net.forward(&x, false);
        assert_eq!(net.tap(net.depth() - 1), &y);
        assert_eq!(net.tap(net.last_hidden_index()).shape(), (2, 8));
    }

    #[test]
    fn training_reduces_regression_loss() {
        // Tiny end-to-end sanity: fit y = sum(x) with SGD-style updates.
        let mut rng = Rng::seed_from_u64(84);
        let mut net = Mlp::dense(&[3, 16, 1], Activation::Tanh, false, 0.0, &mut rng);
        let x = Matrix::randn(64, 3, 1.0, &mut rng);
        let target: Vec<f64> = (0..64).map(|r| x.row(r).iter().sum::<f64>()).collect();

        let loss = |net: &mut Mlp, x: &Matrix, t: &[f64]| {
            let y = net.forward(x, true);
            let mut g = Matrix::zeros(64, 1);
            let mut l = 0.0;
            for r in 0..64 {
                let d = y[(r, 0)] - t[r];
                l += 0.5 * d * d;
                g[(r, 0)] = d / 64.0;
            }
            (l / 64.0, g)
        };

        let (initial, _) = loss(&mut net, &x, &target);
        for _ in 0..300 {
            let (_, g) = loss(&mut net, &x, &target);
            net.zero_grad();
            let _ = net.backward(&g);
            net.visit_params(&mut |p, gr| p.axpy(-0.1, gr));
        }
        let (final_loss, _) = loss(&mut net, &x, &target);
        assert!(
            final_loss < initial * 0.1,
            "loss {initial} -> {final_loss} did not drop"
        );
    }

    #[test]
    fn backward_from_tap_matches_manual_truncation() {
        let mut rng = Rng::seed_from_u64(85);
        let mut full = Mlp::dense(&[4, 6, 2], Activation::Tanh, false, 0.0, &mut rng);
        let x = Matrix::randn(3, 4, 1.0, &mut rng);
        let _ = full.forward(&x, true);
        let tap = full.last_hidden_index(); // activation after first linear
        let h = full.tap(tap).clone();
        let g = h.scaled(1.0); // pretend dL/dh = h
        full.zero_grad();
        let mut gin = Matrix::zeros(0, 0);
        backward_from_tap_into(&mut full, tap, &g, &mut gin);
        assert_eq!(gin.shape(), x.shape());
        // Gradients on the output layer must remain zero (untouched).
        let mut visited = Vec::new();
        full.visit_params(&mut |p, gr| visited.push((p.shape(), gr.max_abs())));
        // Last two params (output Linear's W and b) have zero grads.
        assert_eq!(visited[visited.len() - 1].1, 0.0);
        assert_eq!(visited[visited.len() - 2].1, 0.0);
        // First linear's grads are non-zero.
        assert!(visited[0].1 > 0.0);
    }
}
