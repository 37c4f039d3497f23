//! Batch normalization (per-feature), as used inside the paper's generator
//! and discriminator stacks.

use crate::checkpoint::LayerState;
use crate::layer::{Layer, Params};
use gale_tensor::Matrix;

/// Per-feature batch normalization with learnable scale/shift and running
/// statistics for evaluation mode.
#[derive(Debug, Clone)]
pub struct BatchNorm {
    gamma: Matrix, // 1 x d
    beta: Matrix,  // 1 x d
    g_gamma: Matrix,
    g_beta: Matrix,
    running_mean: Vec<f64>,
    running_var: Vec<f64>,
    momentum: f64,
    eps: f64,
    // Forward caches for backward.
    x_hat: Matrix,
    std_inv: Vec<f64>,
    train_pass: bool,
}

impl BatchNorm {
    /// Creates a batch-norm layer over `dim` features.
    pub fn new(dim: usize) -> Self {
        BatchNorm {
            gamma: Matrix::full(1, dim, 1.0),
            beta: Matrix::zeros(1, dim),
            g_gamma: Matrix::zeros(1, dim),
            g_beta: Matrix::zeros(1, dim),
            running_mean: vec![0.0; dim],
            running_var: vec![1.0; dim],
            momentum: 0.9,
            eps: 1e-5,
            x_hat: Matrix::zeros(0, 0),
            std_inv: Vec::new(),
            train_pass: false,
        }
    }

    /// Rebuilds a layer from checkpointed parameters and running statistics.
    /// All per-feature inputs must agree on the dimensionality.
    pub fn from_parts(
        gamma: Matrix,
        beta: Matrix,
        running_mean: Vec<f64>,
        running_var: Vec<f64>,
        momentum: f64,
        eps: f64,
    ) -> Self {
        let d = gamma.cols();
        assert_eq!(gamma.rows(), 1, "BatchNorm::from_parts: gamma must be 1xd");
        assert_eq!(
            beta.shape(),
            (1, d),
            "BatchNorm::from_parts: beta shape {:?} != (1, {d})",
            beta.shape()
        );
        assert_eq!(running_mean.len(), d, "BatchNorm::from_parts: mean len");
        assert_eq!(running_var.len(), d, "BatchNorm::from_parts: var len");
        BatchNorm {
            g_gamma: Matrix::zeros(1, d),
            g_beta: Matrix::zeros(1, d),
            gamma,
            beta,
            running_mean,
            running_var,
            momentum,
            eps,
            x_hat: Matrix::zeros(0, 0),
            std_inv: Vec::new(),
            train_pass: false,
        }
    }
}

impl Params for BatchNorm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.gamma, &mut self.g_gamma);
        f(&mut self.beta, &mut self.g_beta);
    }
}

impl Layer for BatchNorm {
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(x, train, &mut out);
        out
    }

    fn forward_into(&mut self, x: &Matrix, train: bool, out: &mut Matrix) {
        let (n, d) = x.shape();
        assert_eq!(d, self.gamma.cols(), "BatchNorm: dim mismatch");
        self.train_pass = train;
        // Batch statistics live in `batch`; eval mode reads the running
        // statistics directly instead of cloning them.
        let batch = if train && n > 1 {
            let mean = x.mean_rows();
            let mut var = vec![0.0; d];
            for r in 0..n {
                for (c, (&xv, m)) in x.row(r).iter().zip(&mean).enumerate() {
                    let dlt = xv - m;
                    var[c] += dlt * dlt;
                }
            }
            for v in &mut var {
                *v /= n as f64;
            }
            // Update running statistics.
            for c in 0..d {
                self.running_mean[c] =
                    self.momentum * self.running_mean[c] + (1.0 - self.momentum) * mean[c];
                self.running_var[c] =
                    self.momentum * self.running_var[c] + (1.0 - self.momentum) * var[c];
            }
            Some((mean, var))
        } else {
            None
        };
        let (mean, var): (&[f64], &[f64]) = match &batch {
            Some((m, v)) => (m, v),
            None => (&self.running_mean, &self.running_var),
        };

        self.std_inv.clear();
        self.std_inv
            .extend(var.iter().map(|v| 1.0 / (v + self.eps).sqrt()));
        self.x_hat.copy_from(x);
        for r in 0..n {
            for (c, xv) in self.x_hat.row_mut(r).iter_mut().enumerate() {
                *xv = (*xv - mean[c]) * self.std_inv[c];
            }
        }
        out.copy_from(&self.x_hat);
        for r in 0..n {
            for (c, o) in out.row_mut(r).iter_mut().enumerate() {
                *o = *o * self.gamma[(0, c)] + self.beta[(0, c)];
            }
        }
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut grad_in = Matrix::zeros(0, 0);
        self.backward_into(grad_out, &mut grad_in);
        grad_in
    }

    fn backward_into(&mut self, grad_out: &Matrix, grad_in: &mut Matrix) {
        let (n, d) = grad_out.shape();
        assert_eq!(self.x_hat.shape(), (n, d), "BatchNorm::backward shape");
        // Parameter gradients.
        for c in 0..d {
            let mut gg = 0.0;
            let mut gb = 0.0;
            for r in 0..n {
                gg += grad_out[(r, c)] * self.x_hat[(r, c)];
                gb += grad_out[(r, c)];
            }
            self.g_gamma[(0, c)] += gg;
            self.g_beta[(0, c)] += gb;
        }
        if !self.train_pass || n <= 1 {
            // Eval mode: statistics are constants; dx = g * gamma * std_inv.
            grad_in.copy_from(grad_out);
            for r in 0..n {
                for (c, v) in grad_in.row_mut(r).iter_mut().enumerate() {
                    *v *= self.gamma[(0, c)] * self.std_inv[c];
                }
            }
            return;
        }
        // Train mode: full batch-norm backward.
        // dx_hat = g * gamma
        // dx = (1/n) std_inv * (n dx_hat - sum(dx_hat) - x_hat * sum(dx_hat*x_hat))
        grad_in.resize(n, d);
        for c in 0..d {
            let gamma = self.gamma[(0, c)];
            let mut sum_dxh = 0.0;
            let mut sum_dxh_xh = 0.0;
            for r in 0..n {
                let dxh = grad_out[(r, c)] * gamma;
                sum_dxh += dxh;
                sum_dxh_xh += dxh * self.x_hat[(r, c)];
            }
            let inv_n = 1.0 / n as f64;
            for r in 0..n {
                let dxh = grad_out[(r, c)] * gamma;
                grad_in[(r, c)] = self.std_inv[c]
                    * inv_n
                    * (n as f64 * dxh - sum_dxh - self.x_hat[(r, c)] * sum_dxh_xh);
            }
        }
    }

    fn state(&self) -> Option<LayerState> {
        Some(LayerState::BatchNorm {
            gamma: self.gamma.clone(),
            beta: self.beta.clone(),
            running_mean: self.running_mean.clone(),
            running_var: self.running_var.clone(),
            momentum: self.momentum,
            eps: self.eps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gale_tensor::Rng;

    #[test]
    fn train_output_is_normalized() {
        let mut rng = Rng::seed_from_u64(71);
        let mut bn = BatchNorm::new(3);
        let x = Matrix::randn(200, 3, 5.0, &mut rng).map(|v| v + 10.0);
        let y = bn.forward(&x, true);
        let mean = y.mean_rows();
        for m in &mean {
            assert!(m.abs() < 1e-9, "mean {m}");
        }
        for c in 0..3 {
            let col = y.col(c);
            let var = gale_tensor::stats::variance(&col);
            assert!((var - 1.0).abs() < 0.01, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut rng = Rng::seed_from_u64(72);
        let mut bn = BatchNorm::new(2);
        // Warm up the running stats.
        for _ in 0..200 {
            let x = Matrix::randn(32, 2, 2.0, &mut rng).map(|v| v + 4.0);
            let _ = bn.forward(&x, true);
        }
        let x = Matrix::randn(32, 2, 2.0, &mut rng).map(|v| v + 4.0);
        let y = bn.forward(&x, false);
        let mean = y.mean_rows();
        // Approximately normalized through running statistics.
        for m in &mean {
            assert!(m.abs() < 0.3, "eval mean {m}");
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = Rng::seed_from_u64(73);
        let mut bn = BatchNorm::new(3);
        let x = Matrix::randn(6, 3, 1.0, &mut rng);

        let y = bn.forward(&x, true);
        let analytic = bn.backward(&y);

        let eps = 1e-6;
        let mut xp = x.clone();
        let mut max_err = 0.0f64;
        for r in 0..6 {
            for c in 0..3 {
                let orig = xp[(r, c)];
                xp[(r, c)] = orig + eps;
                let lp = 0.5
                    * bn.forward(&xp, true)
                        .data()
                        .iter()
                        .map(|v| v * v)
                        .sum::<f64>();
                xp[(r, c)] = orig - eps;
                let lm = 0.5
                    * bn.forward(&xp, true)
                        .data()
                        .iter()
                        .map(|v| v * v)
                        .sum::<f64>();
                xp[(r, c)] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                max_err = max_err.max((numeric - analytic[(r, c)]).abs());
            }
        }
        // Running-stat updates perturb the loss surface slightly between
        // calls; the bound is looser than for stateless layers.
        assert!(max_err < 1e-3, "gradient error {max_err}");
    }

    #[test]
    fn learnable_scale_shift_applied() {
        let mut bn = BatchNorm::new(1);
        bn.gamma = Matrix::from_vec(1, 1, vec![3.0]);
        bn.beta = Matrix::from_vec(1, 1, vec![-1.0]);
        let x = Matrix::from_vec(4, 1, vec![1.0, 2.0, 3.0, 4.0]);
        let y = bn.forward(&x, true);
        let mean = y.mean_rows()[0];
        assert!(
            (mean + 1.0).abs() < 1e-9,
            "mean should equal beta, got {mean}"
        );
    }
}
