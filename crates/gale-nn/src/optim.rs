//! Optimizers: Adam (the paper's choice, Section IV) and plain SGD.

use crate::layer::Params;
use gale_tensor::Matrix;

/// Adam optimizer with optional learning-rate decay ("reduce learning rate
/// β" in procedure SGAN, Fig. 4).
pub struct Adam {
    /// Current learning rate.
    pub lr: f64,
    pub(crate) beta1: f64,
    pub(crate) beta2: f64,
    pub(crate) eps: f64,
    pub(crate) t: u64,
    /// First/second moment estimates, in `visit_params` order.
    pub(crate) state: Vec<(Matrix, Matrix)>,
}

impl Adam {
    /// Creates an Adam optimizer with the standard (0.9, 0.999) betas.
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            state: Vec::new(),
        }
    }

    /// Applies one Adam update using each parameter's accumulated gradient.
    ///
    /// The parameter visit order must be stable across calls; moment buffers
    /// are allocated lazily on the first step.
    pub fn step(&mut self, net: &mut dyn Params) {
        self.t += 1;
        let t = self.t as f64;
        let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
        let bias1 = 1.0 - b1.powf(t);
        let bias2 = 1.0 - b2.powf(t);
        let state = &mut self.state;
        let mut idx = 0usize;
        net.visit_params(&mut |p, g| {
            if state.len() == idx {
                state.push((
                    Matrix::zeros(p.rows(), p.cols()),
                    Matrix::zeros(p.rows(), p.cols()),
                ));
            }
            let (m, v) = &mut state[idx];
            assert_eq!(m.shape(), p.shape(), "Adam: param order changed");
            for i in 0..p.data().len() {
                let gi = g.data()[i];
                let mi = b1 * m.data()[i] + (1.0 - b1) * gi;
                let vi = b2 * v.data()[i] + (1.0 - b2) * gi * gi;
                m.data_mut()[i] = mi;
                v.data_mut()[i] = vi;
                let m_hat = mi / bias1;
                let v_hat = vi / bias2;
                p.data_mut()[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            idx += 1;
        });
    }

    /// Multiplies the learning rate by `factor` (Fig. 4 line 6).
    pub fn decay_lr(&mut self, factor: f64) {
        self.lr *= factor;
    }
}

/// Plain stochastic gradient descent.
pub struct Sgd {
    /// Learning rate.
    pub lr: f64,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f64) -> Self {
        Sgd { lr }
    }

    /// Applies `p -= lr * g` to every parameter.
    pub fn step(&mut self, net: &mut dyn Params) {
        let lr = self.lr;
        net.visit_params(&mut |p, g| p.axpy(-lr, g));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gale_tensor::Rng;

    /// A single learnable 1x1 parameter minimizing (w - 3)^2.
    struct Quadratic {
        w: Matrix,
        g: Matrix,
    }

    impl Quadratic {
        fn new(start: f64) -> Self {
            Quadratic {
                w: Matrix::from_vec(1, 1, vec![start]),
                g: Matrix::zeros(1, 1),
            }
        }
        fn compute_grad(&mut self) {
            self.g[(0, 0)] = 2.0 * (self.w[(0, 0)] - 3.0);
        }
    }

    impl Params for Quadratic {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
            f(&mut self.w, &mut self.g);
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut q = Quadratic::new(-5.0);
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            q.compute_grad();
            opt.step(&mut q);
        }
        assert!((q.w[(0, 0)] - 3.0).abs() < 1e-3, "w = {}", q.w[(0, 0)]);
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut q = Quadratic::new(10.0);
        let mut opt = Sgd::new(0.1);
        for _ in 0..200 {
            q.compute_grad();
            opt.step(&mut q);
        }
        assert!((q.w[(0, 0)] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn decay_reduces_lr() {
        let mut opt = Adam::new(1.0);
        opt.decay_lr(0.5);
        opt.decay_lr(0.5);
        assert!((opt.lr - 0.25).abs() < 1e-12);
    }

    #[test]
    fn adam_trains_mlp_faster_than_it_starts() {
        use crate::activation::Activation;
        use crate::layer::Layer;
        use crate::mlp::Mlp;
        let mut rng = Rng::seed_from_u64(91);
        let mut net = Mlp::dense(&[2, 8, 1], Activation::Tanh, false, 0.0, &mut rng);
        let x = Matrix::randn(32, 2, 1.0, &mut rng);
        let t: Vec<f64> = (0..32).map(|r| x.row(r)[0] * x.row(r)[1]).collect();
        let mut opt = Adam::new(0.01);
        let mut losses = Vec::new();
        for _ in 0..200 {
            let y = net.forward(&x, true);
            let mut g = Matrix::zeros(32, 1);
            let mut l = 0.0;
            for r in 0..32 {
                let d = y[(r, 0)] - t[r];
                l += d * d;
                g[(r, 0)] = 2.0 * d / 32.0;
            }
            losses.push(l / 32.0);
            net.zero_grad();
            let _ = net.backward(&g);
            opt.step(&mut net);
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.2),
            "loss {} -> {}",
            losses[0],
            losses.last().unwrap()
        );
    }
}
