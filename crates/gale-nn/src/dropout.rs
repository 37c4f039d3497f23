//! Inverted dropout regularization.
//!
//! The paper's G and D both include "regularization layers e.g. dropout
//! layers to prevent overfitting" (Section IV).

use crate::checkpoint::LayerState;
use crate::layer::{Layer, Params};
use gale_tensor::{Matrix, Rng};

/// Inverted dropout: during training each unit is zeroed with probability
/// `p` and survivors are scaled by `1/(1-p)`, so evaluation needs no
/// rescaling.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f64,
    rng: Rng,
    mask: Matrix,
    train_pass: bool,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` in `[0, 1)`.
    pub fn new(p: f64, rng: Rng) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "Dropout: p must be in [0,1), got {p}"
        );
        Dropout {
            p,
            rng,
            mask: Matrix::zeros(0, 0),
            train_pass: false,
        }
    }
}

impl Params for Dropout {
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {}
}

impl Layer for Dropout {
    fn forward_into(&mut self, x: &Matrix, train: bool, out: &mut Matrix) {
        self.train_pass = train;
        if !train || self.p == 0.0 {
            out.copy_from(x);
            return;
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        self.mask.resize(x.rows(), x.cols());
        for m in self.mask.data_mut() {
            *m = if self.rng.chance(keep) { scale } else { 0.0 };
        }
        out.copy_from(x);
        for (o, m) in out.data_mut().iter_mut().zip(self.mask.data()) {
            *o *= m;
        }
    }

    fn backward_into(&mut self, grad_out: &Matrix, grad_in: Option<&mut Matrix>) {
        let Some(grad_in) = grad_in else {
            return;
        };
        grad_in.copy_from(grad_out);
        if !self.train_pass || self.p == 0.0 {
            return;
        }
        for (g, m) in grad_in.data_mut().iter_mut().zip(self.mask.data()) {
            *g *= m;
        }
    }

    fn state(&self) -> Option<LayerState> {
        let (rng_state, cached_gauss) = self.rng.state();
        Some(LayerState::Dropout {
            p: self.p,
            rng_state,
            cached_gauss,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, Rng::seed_from_u64(61));
        let x = Matrix::full(3, 3, 2.0);
        let y = d.forward(&x, false);
        assert_eq!(y, x);
        let g = d.backward(&x);
        assert_eq!(g, x);
    }

    #[test]
    fn train_mode_preserves_expectation() {
        let mut d = Dropout::new(0.3, Rng::seed_from_u64(62));
        let x = Matrix::full(100, 100, 1.0);
        let y = d.forward(&x, true);
        let mean = y.sum() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        // Surviving entries are scaled by 1/(1-p).
        let survivors: Vec<f64> = y.data().iter().copied().filter(|&v| v != 0.0).collect();
        assert!(survivors.iter().all(|&v| (v - 1.0 / 0.7).abs() < 1e-12));
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, Rng::seed_from_u64(63));
        let x = Matrix::full(10, 10, 1.0);
        let y = d.forward(&x, true);
        let g = d.backward(&Matrix::full(10, 10, 1.0));
        // Zeroed units propagate zero gradient; kept units pass scaled.
        for i in 0..100 {
            assert_eq!(y.data()[i] == 0.0, g.data()[i] == 0.0);
        }
    }

    #[test]
    fn p_zero_is_identity_even_training() {
        let mut d = Dropout::new(0.0, Rng::seed_from_u64(64));
        let x = Matrix::full(4, 4, 3.0);
        assert_eq!(d.forward(&x, true), x);
    }

    #[test]
    #[should_panic(expected = "p must be in")]
    fn p_one_rejected() {
        let _ = Dropout::new(1.0, Rng::seed_from_u64(65));
    }
}
