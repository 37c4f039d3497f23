//! Element-wise activation layers.

use crate::checkpoint::LayerState;
use crate::layer::{Layer, Params};
use gale_tensor::{Element, Matrix};

/// The supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// x for x > 0, `alpha * x` otherwise (alpha fixed at 0.2, the common
    /// GAN discriminator choice).
    LeakyRelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Identity (no-op, useful for output layers).
    Identity,
}

const LEAKY_SLOPE: f64 = 0.2;

impl Activation {
    /// Stable identifier used by the checkpoint format.
    pub fn name(self) -> &'static str {
        match self {
            Activation::Relu => "relu",
            Activation::LeakyRelu => "leaky_relu",
            Activation::Tanh => "tanh",
            Activation::Sigmoid => "sigmoid",
            Activation::Identity => "identity",
        }
    }

    /// Inverse of [`Activation::name`]; `None` for unknown identifiers.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "relu" => Activation::Relu,
            "leaky_relu" => Activation::LeakyRelu,
            "tanh" => Activation::Tanh,
            "sigmoid" => Activation::Sigmoid,
            "identity" => Activation::Identity,
            _ => return None,
        })
    }

    /// Applies the activation to a scalar.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    LEAKY_SLOPE * x
                }
            }
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Identity => x,
        }
    }

    /// [`Activation::apply`] over a generic kernel element. For `f64` this
    /// is operation-for-operation identical to `apply` (same comparisons,
    /// same constants), so the f64 inference path stays bitwise equal to
    /// training-mode evaluation; for `f32` it is the single-precision
    /// analogue with the slope rounded once at compile of the constant.
    #[inline]
    pub fn apply_e<E: Element>(self, x: E) -> E {
        match self {
            Activation::Relu => x.max_e(E::ZERO),
            Activation::LeakyRelu => {
                if x > E::ZERO {
                    x
                } else {
                    E::from_f64(LEAKY_SLOPE) * x
                }
            }
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => E::ONE / (E::ONE + (-x).exp()),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed in terms of the *input* `x` and *output* `y`
    /// (whichever is cheaper per function).
    #[inline]
    fn derivative(self, x: f64, y: f64) -> f64 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu => {
                if x > 0.0 {
                    1.0
                } else {
                    LEAKY_SLOPE
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Identity => 1.0,
        }
    }
}

/// An activation as a standalone [`Layer`].
#[derive(Debug, Clone)]
pub struct ActivationLayer {
    act: Activation,
    cached_in: Matrix,
    cached_out: Matrix,
}

impl ActivationLayer {
    /// Wraps an activation function as a layer.
    pub fn new(act: Activation) -> Self {
        ActivationLayer {
            act,
            cached_in: Matrix::zeros(0, 0),
            cached_out: Matrix::zeros(0, 0),
        }
    }

    /// The wrapped activation function.
    pub fn activation(&self) -> Activation {
        self.act
    }
}

impl Params for ActivationLayer {
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {}
}

impl Layer for ActivationLayer {
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(x, train, &mut out);
        out
    }

    fn forward_into(&mut self, x: &Matrix, _train: bool, out: &mut Matrix) {
        self.cached_in.copy_from(x);
        self.cached_out.copy_from(x);
        for v in self.cached_out.data_mut() {
            *v = self.act.apply(*v);
        }
        out.copy_from(&self.cached_out);
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut grad_in = Matrix::zeros(0, 0);
        self.backward_into(grad_out, &mut grad_in);
        grad_in
    }

    fn backward_into(&mut self, grad_out: &Matrix, grad_in: &mut Matrix) {
        assert_eq!(
            grad_out.shape(),
            self.cached_in.shape(),
            "ActivationLayer::backward before forward or shape changed"
        );
        grad_in.copy_from(grad_out);
        for i in 0..grad_in.data().len() {
            let x = self.cached_in.data()[i];
            let y = self.cached_out.data()[i];
            grad_in.data_mut()[i] *= self.act.derivative(x, y);
        }
    }

    fn state(&self) -> Option<LayerState> {
        Some(LayerState::Activation { act: self.act })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::input_gradient_error;
    use gale_tensor::Rng;

    #[test]
    fn scalar_values() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert!((Activation::LeakyRelu.apply(-1.0) + 0.2).abs() < 1e-12);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert!((Activation::Tanh.apply(0.0)).abs() < 1e-12);
        assert_eq!(Activation::Identity.apply(3.5), 3.5);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from_u64(41);
        // Offset from 0 so ReLU's kink doesn't spoil the numeric check.
        let x = Matrix::randn(4, 5, 1.0, &mut rng).map(|v| v + 0.51 * v.signum());
        for act in [
            Activation::Relu,
            Activation::LeakyRelu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Identity,
        ] {
            let mut layer = ActivationLayer::new(act);
            let err = input_gradient_error(&mut layer, &x, 1e-6);
            assert!(err < 1e-6, "{act:?}: gradient error {err}");
        }
    }

    #[test]
    fn sigmoid_saturates_sanely() {
        let s = Activation::Sigmoid;
        assert!(s.apply(40.0) > 0.999_999);
        assert!(s.apply(-40.0) < 1e-6);
        assert!(s.apply(-800.0) >= 0.0); // no overflow panic
    }
}
