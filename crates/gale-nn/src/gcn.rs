//! Graph convolutional layers (Kipf & Welling's first-order approximation,
//! the paper's reference \[30\]).
//!
//! A layer computes `Z = act(S X W)` where `S` is the symmetric-normalized
//! adjacency with self-loops. The layer owns no operator: every pass takes
//! it as an argument, so one forward/backward pair serves the materialized
//! `S`, a sampled block's slices, an on-the-fly normalized view of an
//! out-of-core store, and a streaming delta view alike. `S` is constant, so
//! backprop only flows into `W` and `X`.

use crate::activation::Activation;
use crate::layer::Params;
use gale_tensor::{spmm_access_into, Matrix, NeighborAccess, Rng, SparseMatrix};

/// One graph-convolution layer: `Z = act(S X W + b)`.
pub struct GcnLayer {
    pub(crate) w: Matrix,
    pub(crate) b: Matrix,
    gw: Matrix,
    gb: Matrix,
    pub(crate) act: Activation,
    cached_sx: Matrix,
    cached_pre: Matrix,
    cached_out: Matrix,
    // Backward scratch, reused across steps.
    scratch_dpre: Matrix,
    scratch_dxw: Matrix,
}

impl GcnLayer {
    /// Creates a GCN layer with Glorot-uniform weights.
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, rng: &mut Rng) -> Self {
        let limit = (6.0 / (in_dim + out_dim) as f64).sqrt();
        let w = Matrix::rand_uniform(in_dim, out_dim, -limit, limit, rng);
        GcnLayer::from_parts(w, Matrix::zeros(1, out_dim), act)
    }

    /// Rebuilds a layer from checkpointed parameters. `b` must be a
    /// `1 x out_dim` row matching `w`.
    pub fn from_parts(w: Matrix, b: Matrix, act: Activation) -> Self {
        assert_eq!(
            (b.rows(), b.cols()),
            (1, w.cols()),
            "GcnLayer::from_parts: bias shape {:?} does not fit weights {:?}",
            b.shape(),
            w.shape()
        );
        let (gw, gb) = (
            Matrix::zeros(w.rows(), w.cols()),
            Matrix::zeros(1, b.cols()),
        );
        GcnLayer {
            w,
            b,
            gw,
            gb,
            act,
            cached_sx: Matrix::zeros(0, 0),
            cached_pre: Matrix::zeros(0, 0),
            cached_out: Matrix::zeros(0, 0),
            scratch_dpre: Matrix::zeros(0, 0),
            scratch_dxw: Matrix::zeros(0, 0),
        }
    }

    /// `out = act(op X W + b)`, caching the activations backward needs.
    ///
    /// `op` is the full `S` (or any view yielding its rows), or a sampled
    /// `|out rows| x |x rows|` slice from a
    /// [`NeighborSampler`](crate::sampler::NeighborSampler) hop. A row of
    /// `out` depends only on the entries `op` yields for it, in order, so
    /// a slice that copies rows of `S` reproduces those rows of the
    /// full-graph pass bit for bit.
    pub fn forward<A: NeighborAccess + Sync + ?Sized>(
        &mut self,
        op: &A,
        x: &Matrix,
        out: &mut Matrix,
    ) {
        spmm_access_into(op, x, &mut self.cached_sx);
        self.cached_sx.matmul_into(&self.w, &mut self.cached_pre);
        self.cached_pre.add_row_broadcast(self.b.row(0));
        self.cached_out.copy_from(&self.cached_pre);
        for v in self.cached_out.data_mut() {
            *v = self.act.apply(*v);
        }
        out.copy_from(&self.cached_out);
    }

    /// Backward for the last [`GcnLayer::forward`]: accumulates the
    /// parameter gradients and writes `grad_in = op_t (dpre Wᵀ)`, where
    /// `op_t` is the transpose of the forward operator. `S` is symmetric,
    /// so the full-graph pass gives `S` again; a sampled block gives its
    /// stored transpose, whose rows for a full-fanout block over all nodes
    /// are bitwise `S`'s rows (entries are products of commuting factors).
    pub fn backward<A: NeighborAccess + Sync + ?Sized>(
        &mut self,
        op_t: &A,
        grad_out: &Matrix,
        grad_in: &mut Matrix,
    ) {
        // dL/dpre = grad_out * act'(pre)  (elementwise).
        self.scratch_dpre.copy_from(grad_out);
        for i in 0..self.scratch_dpre.data().len() {
            let x = self.cached_pre.data()[i];
            let y = self.cached_out.data()[i];
            let d = match self.act {
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
                        0.2
                    }
                }
                Activation::Tanh => 1.0 - y * y,
                Activation::Sigmoid => y * (1.0 - y),
                Activation::Identity => 1.0,
            };
            self.scratch_dpre.data_mut()[i] *= d;
        }
        // dW += (S X)^T dpre ; db += colsums(dpre);
        self.cached_sx
            .matmul_tn_acc(&self.scratch_dpre, &mut self.gw);
        for (gb, s) in self
            .gb
            .row_mut(0)
            .iter_mut()
            .zip(self.scratch_dpre.sum_rows())
        {
            *gb += s;
        }
        self.scratch_dpre
            .matmul_nt_into(&self.w, &mut self.scratch_dxw);
        spmm_access_into(op_t, &self.scratch_dxw, grad_in);
    }
}

impl Params for GcnLayer {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }
}

/// A two-layer GCN encoder, the standard architecture for semi-supervised
/// node classification (and the encoder of the GAE).
pub struct Gcn {
    pub(crate) layer1: GcnLayer,
    pub(crate) layer2: GcnLayer,
    hidden: Matrix,
    ghidden: Matrix,
}

impl Gcn {
    /// Builds `in_dim -> hidden -> out_dim` with ReLU in between and a
    /// configurable output activation (identity for logits, identity for
    /// embeddings too).
    pub fn new(
        in_dim: usize,
        hidden_dim: usize,
        out_dim: usize,
        out_act: Activation,
        rng: &mut Rng,
    ) -> Self {
        let layer1 = GcnLayer::new(in_dim, hidden_dim, Activation::Relu, rng);
        let layer2 = GcnLayer::new(hidden_dim, out_dim, out_act, rng);
        Gcn::from_parts(layer1, layer2)
    }

    /// Forward through both layers, `ops[0]` feeding layer 1 and `ops[1]`
    /// layer 2: `[s, s]` for the full graph (or any view of it), and
    /// `[&block.ops[1], &block.ops[0]]` for a 2-hop sampled
    /// [`Block`](crate::sampler::Block), where `x` holds the rows of
    /// `block.inputs()` and `out` gets the rows of `block.seeds()`.
    pub fn forward<A: NeighborAccess + Sync + ?Sized>(
        &mut self,
        ops: [&A; 2],
        x: &Matrix,
        out: &mut Matrix,
    ) {
        self.layer1.forward(ops[0], x, &mut self.hidden);
        self.layer2.forward(ops[1], &self.hidden, out);
    }

    /// Backward for the last [`Gcn::forward`]. `ops_t` holds each layer's
    /// transposed operator in the same order as the forward's `ops`:
    /// `[s, s]` for the symmetric full graph,
    /// `[&block.ops_t[1], &block.ops_t[0]]` for a block.
    pub fn backward<A: NeighborAccess + Sync + ?Sized>(
        &mut self,
        ops_t: [&A; 2],
        grad_out: &Matrix,
        grad_in: &mut Matrix,
    ) {
        self.layer2.backward(ops_t[1], grad_out, &mut self.ghidden);
        self.layer1.backward(ops_t[0], &self.ghidden, grad_in);
    }

    /// Neighborhood-local inference: recomputes only the output rows
    /// `rows` (which must be sorted ascending and deduplicated) of a
    /// full-graph forward over `a`, writing them to `out` in `rows`
    /// order. `x` is the full feature matrix (`a.node_count()` rows).
    ///
    /// The receptive field of a 2-layer GCN output row is its 2-hop
    /// neighborhood, so this gathers the 1-hop frontier `F = rows ∪
    /// N(rows)`, copies the frontier's operator rows (global columns) and
    /// the `rows` operator rows (columns remapped into the frontier) into
    /// two blocks, and runs [`Gcn::forward`] over them. Each block row
    /// lists the same entries in the same ascending order as `a`, so each
    /// output row is **bitwise identical** to the same row of the full
    /// pass (proptested in gale-stream).
    ///
    /// Cost is `O(|F| · d̄)` operator entries instead of `O(nnz)` — the
    /// streaming path's incremental refresh after a graph delta.
    pub fn forward_rows<A: NeighborAccess + Sync + ?Sized>(
        &mut self,
        a: &A,
        rows: &[usize],
        x: &Matrix,
        out: &mut Matrix,
    ) {
        assert_eq!(x.rows(), a.node_count(), "Gcn: node count mismatch");
        debug_assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "Gcn: rows must be sorted and deduplicated"
        );
        // 1-hop closed frontier of the requested rows, ascending.
        let mut frontier_set = std::collections::BTreeSet::new();
        for &r in rows {
            frontier_set.insert(r);
            a.visit_neighbors(r, &mut |c, _| {
                frontier_set.insert(c);
            });
        }
        let frontier: Vec<usize> = frontier_set.into_iter().collect();

        // Layer 1 over the frontier's full operator rows (global columns).
        let mut op1 = SparseMatrix::zeros(0, a.node_count());
        for &r in &frontier {
            a.visit_neighbors(r, &mut |c, v| op1.push(c, v));
            op1.finish_row();
        }
        // Layer 2 over the requested rows, columns remapped into frontier
        // positions (ascending global order maps to ascending local order,
        // preserving the accumulation order of the full pass).
        let mut op2 = SparseMatrix::zeros(0, frontier.len());
        for &r in rows {
            a.visit_neighbors(r, &mut |c, v| {
                let local = frontier.binary_search(&c).expect("frontier covers N(rows)");
                op2.push(local, v);
            });
            op2.finish_row();
        }
        self.forward([&op1, &op2], x, out);
    }

    /// Hidden representation from the most recent forward pass.
    pub fn hidden(&self) -> &Matrix {
        &self.hidden
    }

    /// Rebuilds a two-layer GCN from checkpointed layers.
    pub fn from_parts(layer1: GcnLayer, layer2: GcnLayer) -> Self {
        assert_eq!(
            layer1.w.cols(),
            layer2.w.rows(),
            "Gcn::from_parts: layer widths disagree"
        );
        Gcn {
            layer1,
            layer2,
            hidden: Matrix::zeros(0, 0),
            ghidden: Matrix::zeros(0, 0),
        }
    }
}

impl Params for Gcn {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.layer1.visit_params(f);
        self.layer2.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{input_gradient_error, Layer};
    use crate::loss::softmax_cross_entropy;
    use crate::optim::Adam;

    /// Two 4-cliques joined by a single edge; perfect community structure.
    fn two_cliques() -> SparseMatrix {
        let mut triplets = Vec::new();
        let connect = |a: usize, b: usize, t: &mut Vec<(usize, usize, f64)>| {
            t.push((a, b, 1.0));
            t.push((b, a, 1.0));
        };
        for i in 0..4 {
            for j in (i + 1)..4 {
                connect(i, j, &mut triplets);
                connect(i + 4, j + 4, &mut triplets);
            }
        }
        connect(3, 4, &mut triplets);
        SparseMatrix::from_triplets(8, 8, triplets).sym_normalized_with_self_loops()
    }

    /// A GCN pass over a fixed full-graph operator.
    trait Pass: Params + Send {
        fn fwd(&mut self, s: &SparseMatrix, x: &Matrix, out: &mut Matrix);
        fn bwd(&mut self, s: &SparseMatrix, grad_out: &Matrix, grad_in: &mut Matrix);
    }

    impl Pass for GcnLayer {
        fn fwd(&mut self, s: &SparseMatrix, x: &Matrix, out: &mut Matrix) {
            self.forward(s, x, out);
        }
        fn bwd(&mut self, s: &SparseMatrix, grad_out: &Matrix, grad_in: &mut Matrix) {
            self.backward(s, grad_out, grad_in);
        }
    }

    impl Pass for Gcn {
        fn fwd(&mut self, s: &SparseMatrix, x: &Matrix, out: &mut Matrix) {
            self.forward([s, s], x, out);
        }
        fn bwd(&mut self, s: &SparseMatrix, grad_out: &Matrix, grad_in: &mut Matrix) {
            self.backward([s, s], grad_out, grad_in);
        }
    }

    /// Binds a pass to its operator so the shared finite-difference check
    /// can drive it as a [`Layer`].
    struct OnGraph<'a, N>(N, &'a SparseMatrix);

    impl<N: Pass> Params for OnGraph<'_, N> {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
            self.0.visit_params(f);
        }
    }

    impl<N: Pass> Layer for OnGraph<'_, N> {
        fn forward(&mut self, x: &Matrix, _train: bool) -> Matrix {
            let mut out = Matrix::zeros(0, 0);
            self.0.fwd(self.1, x, &mut out);
            out
        }
        fn backward(&mut self, grad_out: &Matrix) -> Matrix {
            let mut grad_in = Matrix::zeros(0, 0);
            self.0.bwd(self.1, grad_out, &mut grad_in);
            grad_in
        }
    }

    #[test]
    fn gcn_layer_gradient_check() {
        let s = two_cliques();
        let mut rng = Rng::seed_from_u64(111);
        let layer = GcnLayer::new(3, 2, Activation::Tanh, &mut rng);
        let x = Matrix::randn(8, 3, 1.0, &mut rng);
        let err = input_gradient_error(&mut OnGraph(layer, &s), &x, 1e-6);
        assert!(err < 1e-6, "gradient error {err}");
    }

    #[test]
    fn two_layer_gradient_check() {
        let s = two_cliques();
        let mut rng = Rng::seed_from_u64(112);
        let net = Gcn::new(3, 5, 2, Activation::Identity, &mut rng);
        let x = Matrix::randn(8, 3, 1.0, &mut rng);
        let err = input_gradient_error(&mut OnGraph(net, &s), &x, 1e-6);
        assert!(err < 1e-5, "gradient error {err}");
    }

    #[test]
    fn semi_supervised_classification_learns_communities() {
        // Label one node per clique; the GCN should classify the rest.
        let s = two_cliques();
        let mut rng = Rng::seed_from_u64(113);
        let x = Matrix::randn(8, 4, 1.0, &mut rng);
        let mut net = Gcn::new(4, 8, 2, Activation::Identity, &mut rng);
        let mut opt = Adam::new(0.05);
        let labels = [(0usize, 0usize), (7, 1)];
        let (mut logits, mut gx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        for _ in 0..200 {
            net.forward([&s, &s], &x, &mut logits);
            let (_, grad) = softmax_cross_entropy(&logits, &labels);
            net.zero_grad();
            net.backward([&s, &s], &grad, &mut gx);
            opt.step(&mut net);
        }
        net.forward([&s, &s], &x, &mut logits);
        let preds = logits.argmax_rows();
        for i in 0..4 {
            assert_eq!(preds[i], 0, "node {i} misclassified: {preds:?}");
        }
        for i in 4..8 {
            assert_eq!(preds[i], 1, "node {i} misclassified: {preds:?}");
        }
    }

    #[test]
    fn rows_forward_matches_full_access_bitwise() {
        let s = two_cliques();
        let mut rng = Rng::seed_from_u64(115);
        let mut net = Gcn::new(3, 6, 2, Activation::Identity, &mut rng);
        let x = Matrix::randn(8, 3, 1.0, &mut rng);
        let mut full = Matrix::zeros(0, 0);
        net.forward([&s, &s], &x, &mut full);
        for rows in [vec![0usize], vec![3, 4], vec![0, 1, 2, 3, 4, 5, 6, 7]] {
            let mut partial = Matrix::zeros(0, 0);
            net.forward_rows(&s, &rows, &x, &mut partial);
            for (k, &r) in rows.iter().enumerate() {
                let got: Vec<u64> = partial.row(k).iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = full.row(r).iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "row {r} of {rows:?}");
            }
        }
    }

    #[test]
    fn hidden_exposed_after_forward() {
        let s = two_cliques();
        let mut rng = Rng::seed_from_u64(114);
        let mut net = Gcn::new(3, 6, 2, Activation::Identity, &mut rng);
        let x = Matrix::randn(8, 3, 1.0, &mut rng);
        net.forward([&s, &s], &x, &mut Matrix::zeros(0, 0));
        assert_eq!(net.hidden().shape(), (8, 6));
    }
}
