//! A small reusable buffer pool for dense intermediates.
//!
//! Training loops produce the same-shaped activations and gradients every
//! step; allocating a fresh [`Matrix`] per intermediate puts the allocator
//! on the hot path. A [`Workspace`] keeps the backing [`AVec`] of retired
//! matrices and hands them back on the next [`Workspace::take`], so steady
//! state training performs zero heap allocation for intermediates.
//!
//! Rules (also documented in DESIGN.md):
//!
//! * `take(rows, cols)` returns a matrix of exactly that shape, **zeroed**,
//!   so callers can treat it like `Matrix::zeros`.
//! * `give(m)` retires a matrix; its buffer becomes available to any later
//!   `take` regardless of shape (buffers are resized on reuse).
//! * `take_vec`/`give_vec` run a separate plain `Vec<f64>` pool for norm
//!   scratch; those vectors only see scalar loads, so alignment is moot.
//! * The pool is plain mutable state — it is *not* thread-safe and is meant
//!   to live inside a single training loop, not be shared across threads.
//! * Reuse never changes numerics: a recycled buffer is zeroed before use,
//!   so results are bitwise identical to fresh allocation.
//!
//! Telemetry: `workspace.hits` / `workspace.misses` count how often `take`
//! was served from the pool vs the allocator.

use crate::aligned::AVec;
use crate::matrix::Matrix;

/// A pool of reusable `f64` buffers for dense intermediates.
#[derive(Debug, Default)]
pub struct Workspace {
    free: Vec<AVec>,
    free_vecs: Vec<Vec<f64>>,
    hits: u64,
    misses: u64,
}

impl Workspace {
    /// An empty pool.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// A zeroed `rows x cols` matrix, backed by a recycled buffer when one
    /// is available.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        match self.free.pop() {
            Some(mut buf) => {
                self.hits += 1;
                gale_obs::counter_add!("workspace.hits", 1);
                buf.clear();
                buf.resize(rows * cols, 0.0);
                Matrix::from_buffer(rows, cols, buf)
            }
            None => {
                self.misses += 1;
                gale_obs::counter_add!("workspace.misses", 1);
                Matrix::zeros(rows, cols)
            }
        }
    }

    /// Retires a matrix, keeping its buffer for future [`Workspace::take`]
    /// calls.
    pub fn give(&mut self, m: Matrix) {
        self.free.push(m.into_buffer());
    }

    /// A zeroed `len`-element vector, backed by a recycled buffer when one
    /// is available. Used by the blocked distance kernels for norm scratch.
    pub fn take_vec(&mut self, len: usize) -> Vec<f64> {
        match self.free_vecs.pop() {
            Some(mut buf) => {
                self.hits += 1;
                gale_obs::counter_add!("workspace.hits", 1);
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => {
                self.misses += 1;
                gale_obs::counter_add!("workspace.misses", 1);
                vec![0.0; len]
            }
        }
    }

    /// Retires a vector taken with [`Workspace::take_vec`] (any `Vec<f64>`
    /// works; the pool is shape-agnostic).
    pub fn give_vec(&mut self, v: Vec<f64>) {
        self.free_vecs.push(v);
    }

    /// `(hits, misses)` counters for this pool.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_vec_is_zeroed_after_reuse() {
        let mut ws = Workspace::new();
        let mut v = ws.take_vec(4);
        v[2] = f64::NAN;
        ws.give_vec(v);
        let v2 = ws.take_vec(6);
        assert_eq!(v2, vec![0.0; 6]);
        assert_eq!(ws.stats(), (1, 1));
    }

    #[test]
    fn take_is_zeroed_after_reuse() {
        let mut ws = Workspace::new();
        let mut m = ws.take(2, 3);
        m[(1, 2)] = 7.0;
        ws.give(m);
        let m2 = ws.take(3, 2);
        assert_eq!(m2.shape(), (3, 2));
        for r in 0..3 {
            for c in 0..2 {
                assert_eq!(m2[(r, c)], 0.0);
            }
        }
        assert_eq!(ws.stats(), (1, 1));
    }

    #[test]
    fn reuse_matches_fresh_allocation_bitwise() {
        let mut rng = crate::Rng::seed_from_u64(9);
        let a = Matrix::randn(5, 4, 1.0, &mut rng);
        let b = Matrix::randn(4, 6, 1.0, &mut rng);
        let fresh = a.matmul(&b);
        let mut ws = Workspace::new();
        ws.give(ws_scratch());
        let mut pooled = ws.take(0, 0);
        a.matmul_into(&b, &mut pooled);
        for (x, y) in fresh.data().iter().zip(pooled.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    fn ws_scratch() -> Matrix {
        let mut m = Matrix::zeros(9, 9);
        m[(0, 0)] = f64::NAN;
        m
    }
}
