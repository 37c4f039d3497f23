//! Fully-connected (dense) layer with bias.

use crate::checkpoint::LayerState;
use crate::layer::{Layer, Params};
use gale_tensor::{Matrix, Rng};

/// `y = x W + b`, with Xavier/Glorot-uniform initialization.
#[derive(Debug, Clone)]
pub struct Linear {
    w: Matrix,
    b: Matrix, // 1 x out
    gw: Matrix,
    gb: Matrix,
    cached_in: Matrix,
}

impl Linear {
    /// Creates a layer mapping `in_dim` features to `out_dim`, initialized
    /// with Glorot-uniform weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        let limit = (6.0 / (in_dim + out_dim) as f64).sqrt();
        Linear {
            w: Matrix::rand_uniform(in_dim, out_dim, -limit, limit, rng),
            b: Matrix::zeros(1, out_dim),
            gw: Matrix::zeros(in_dim, out_dim),
            gb: Matrix::zeros(1, out_dim),
            cached_in: Matrix::zeros(0, 0),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Read access to the weights (inspection/serialization).
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Read access to the bias row (inspection/serialization).
    pub fn bias(&self) -> &Matrix {
        &self.b
    }

    /// Rebuilds a layer from explicit weights and bias (checkpoint load).
    /// `b` must be a `1 x out_dim` row matching `w`'s column count.
    pub fn from_parts(w: Matrix, b: Matrix) -> Self {
        assert_eq!(
            (b.rows(), b.cols()),
            (1, w.cols()),
            "Linear::from_parts: bias shape {:?} does not fit weights {:?}",
            b.shape(),
            w.shape()
        );
        let (gw, gb) = (
            Matrix::zeros(w.rows(), w.cols()),
            Matrix::zeros(1, b.cols()),
        );
        Linear {
            w,
            b,
            gw,
            gb,
            cached_in: Matrix::zeros(0, 0),
        }
    }
}

impl Linear {
    /// Parameter-gradient accumulation: `dW += x^T g` (tiled,
    /// accumulating in place) and `db += colsums(g)`.
    fn accumulate_param_grads(&mut self, grad_out: &Matrix) {
        assert_eq!(
            grad_out.rows(),
            self.cached_in.rows(),
            "Linear::backward without a training forward, or batch changed"
        );
        self.cached_in.matmul_tn_acc(grad_out, &mut self.gw);
        let col_sums = grad_out.sum_rows();
        for (gb, s) in self.gb.row_mut(0).iter_mut().zip(&col_sums) {
            *gb += s;
        }
    }
}

impl Params for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }
}

impl Layer for Linear {
    fn forward_into(&mut self, x: &Matrix, train: bool, out: &mut Matrix) {
        assert_eq!(
            x.cols(),
            self.w.rows(),
            "Linear::forward: input dim {} != {}",
            x.cols(),
            self.w.rows()
        );
        if train {
            self.cached_in.copy_from(x);
        } else {
            self.cached_in.resize(0, 0);
        }
        x.matmul_into(&self.w, out);
        out.add_row_broadcast(self.b.row(0));
    }

    fn backward_into(&mut self, grad_out: &Matrix, grad_in: Option<&mut Matrix>) {
        // dW += x^T g ; db += column sums of g ; dx = g W^T if wanted.
        self.accumulate_param_grads(grad_out);
        if let Some(grad_in) = grad_in {
            grad_out.matmul_nt_into(&self.w, grad_in);
        }
    }

    fn state(&self) -> Option<LayerState> {
        Some(LayerState::Linear {
            w: self.w.clone(),
            b: self.b.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::input_gradient_error;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = Rng::seed_from_u64(51);
        let mut l = Linear::new(3, 2, &mut rng);
        // Set a recognizable bias.
        l.b = Matrix::from_vec(1, 2, vec![10.0, 20.0]);
        let x = Matrix::zeros(4, 3);
        let y = l.forward(&x, false);
        assert_eq!(y.shape(), (4, 2));
        assert_eq!(y[(0, 0)], 10.0);
        assert_eq!(y[(3, 1)], 20.0);
    }

    #[test]
    fn input_gradient_checks() {
        let mut rng = Rng::seed_from_u64(52);
        let mut l = Linear::new(4, 3, &mut rng);
        let x = Matrix::randn(5, 4, 1.0, &mut rng);
        let err = input_gradient_error(&mut l, &x, 1e-6);
        assert!(err < 1e-6, "gradient error {err}");
    }

    #[test]
    fn weight_gradient_finite_difference() {
        let mut rng = Rng::seed_from_u64(53);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Matrix::randn(4, 3, 1.0, &mut rng);

        // Analytic dL/dW for L = 0.5 ||y||^2.
        let y = l.forward(&x, true);
        l.zero_grad();
        let _ = l.backward(&y);
        let analytic = l.gw.clone();

        let eps = 1e-6;
        for r in 0..3 {
            for c in 0..2 {
                let orig = l.w[(r, c)];
                l.w[(r, c)] = orig + eps;
                let lp = 0.5
                    * l.forward(&x, false)
                        .data()
                        .iter()
                        .map(|v| v * v)
                        .sum::<f64>();
                l.w[(r, c)] = orig - eps;
                let lm = 0.5
                    * l.forward(&x, false)
                        .data()
                        .iter()
                        .map(|v| v * v)
                        .sum::<f64>();
                l.w[(r, c)] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (numeric - analytic[(r, c)]).abs() < 1e-5,
                    "W[{r},{c}]: numeric {numeric} vs analytic {}",
                    analytic[(r, c)]
                );
            }
        }
    }

    #[test]
    fn zero_grad_clears() {
        let mut rng = Rng::seed_from_u64(54);
        let mut l = Linear::new(2, 2, &mut rng);
        let x = Matrix::randn(3, 2, 1.0, &mut rng);
        let y = l.forward(&x, true);
        let _ = l.backward(&y);
        assert!(l.gw.max_abs() > 0.0);
        l.zero_grad();
        assert_eq!(l.gw.max_abs(), 0.0);
        assert_eq!(l.gb.max_abs(), 0.0);
    }

    #[test]
    fn param_count() {
        let mut rng = Rng::seed_from_u64(55);
        let mut l = Linear::new(7, 3, &mut rng);
        assert_eq!(l.param_count(), 7 * 3 + 3);
    }
}
