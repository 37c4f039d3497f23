//! Graph autoencoder (GAE) for structural node embeddings (the paper's
//! reference \[31\]).
//!
//! A two-layer GCN encoder produces embeddings `Z`; the inner-product decoder
//! reconstructs edges with `Â_{ij} = σ(z_i · z_j)`. Training minimizes
//! binary cross-entropy over the observed edges plus an equal number of
//! sampled non-edges. GALE's graph-augmentation step (Section III) runs a GAE
//! over `G` to obtain the node-level representation concatenated with the
//! attribute embedding before SGAN training.

use crate::activation::Activation;
use crate::gcn::Gcn;
use crate::layer::Params;
use crate::loss::bce_with_logit_grad;
use crate::optim::Adam;
use crate::sampler::{NeighborSampler, SamplerConfig};
use gale_tensor::{EdgeSample, Matrix, NeighborAccess, Rng, SparseMatrix, Workspace};

/// Configuration of a GAE training run.
#[derive(Debug, Clone)]
pub struct GaeConfig {
    /// Encoder hidden width.
    pub hidden_dim: usize,
    /// Embedding dimensionality.
    pub embed_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Negative samples per positive edge.
    pub negative_ratio: usize,
}

impl Default for GaeConfig {
    fn default() -> Self {
        GaeConfig {
            hidden_dim: 32,
            embed_dim: 16,
            epochs: 60,
            lr: 0.01,
            negative_ratio: 1,
        }
    }
}

/// Mini-batch shape for [`Gae::train_sampled`].
#[derive(Debug, Clone)]
pub struct MiniBatchConfig {
    /// Per-hop neighbor budgets for the 2-layer encoder (0 = full).
    pub fanouts: Vec<usize>,
    /// Positive edges drawn per batch.
    pub edge_batch: usize,
    /// Batches per epoch.
    pub batches_per_epoch: usize,
    /// Seed for batch composition and neighbor sampling.
    pub seed: u64,
}

impl Default for MiniBatchConfig {
    fn default() -> Self {
        MiniBatchConfig {
            fanouts: vec![10, 10],
            edge_batch: 512,
            batches_per_epoch: 16,
            seed: 0,
        }
    }
}

/// A trained graph autoencoder.
pub struct Gae {
    pub(crate) encoder: Gcn,
    /// Final reconstruction loss per edge sample.
    pub final_loss: f64,
}

impl Gae {
    /// Rebuilds a GAE from a checkpointed encoder.
    pub fn from_parts(encoder: Gcn, final_loss: f64) -> Self {
        Gae {
            encoder,
            final_loss,
        }
    }
}

impl Gae {
    /// Trains a GAE on features `x` over adjacency `a` (binary symmetric).
    ///
    /// `s_norm` must be `a`'s symmetric normalization with self-loops.
    pub fn train(
        x: &Matrix,
        a: &SparseMatrix,
        s_norm: &SparseMatrix,
        cfg: &GaeConfig,
        rng: &mut Rng,
    ) -> Gae {
        let n = a.rows();
        assert_eq!(x.rows(), n, "Gae::train: feature/node mismatch");
        assert_eq!(s_norm.rows(), n, "Gae::train: operator/node mismatch");
        let mut encoder = Gcn::new(
            x.cols(),
            cfg.hidden_dim,
            cfg.embed_dim,
            Activation::Identity,
            rng,
        );
        let mut opt = Adam::new(cfg.lr);

        // Collect the (undirected, deduplicated) positive edge list once.
        let mut positives: Vec<(usize, usize)> = Vec::new();
        for r in 0..n {
            for (c, _) in a.row_iter(r) {
                if r < c {
                    positives.push((r, c));
                }
            }
        }
        let mut final_loss = 0.0;
        // Epoch-persistent buffers: the embedding, its gradient, and the
        // pooled input-gradient buffer keep their allocations across
        // epochs — the training loop is allocation-free in steady state.
        let mut ws = Workspace::new();
        let mut z = Matrix::zeros(0, 0);
        let mut dz = Matrix::zeros(n, cfg.embed_dim);
        let mut gx = ws.take(n, x.cols());
        for _ in 0..cfg.epochs {
            encoder.forward([s_norm, s_norm], x, &mut z);
            dz.fill(0.0);
            let mut loss = 0.0;
            let mut samples = 0usize;
            let mut accumulate = |i: usize, j: usize, y: f64, z: &Matrix, dz: &mut Matrix| {
                let dot: f64 = z.row(i).iter().zip(z.row(j)).map(|(a, b)| a * b).sum();
                let p = 1.0 / (1.0 + (-dot).exp());
                let (l, g) = bce_with_logit_grad(p, y);
                loss += l;
                for d in 0..z.cols() {
                    dz[(i, d)] += g * z[(j, d)];
                    dz[(j, d)] += g * z[(i, d)];
                }
            };
            for &(i, j) in &positives {
                accumulate(i, j, 1.0, &z, &mut dz);
                samples += 1;
                for _ in 0..cfg.negative_ratio {
                    // Rejection-sample a non-edge endpoint pair.
                    let (mut u, mut v) = (rng.below(n), rng.below(n));
                    let mut tries = 0;
                    while (u == v || a.get(u, v) != 0.0) && tries < 16 {
                        u = rng.below(n);
                        v = rng.below(n);
                        tries += 1;
                    }
                    if u != v && a.get(u, v) == 0.0 {
                        accumulate(u, v, 0.0, &z, &mut dz);
                        samples += 1;
                    }
                }
            }
            if samples > 0 {
                dz.scale_inplace(1.0 / samples as f64);
                final_loss = loss / samples as f64;
            }
            encoder.zero_grad();
            encoder.backward([s_norm, s_norm], &dz, &mut gx);
            opt.step(&mut encoder);
        }
        ws.give(gx);
        Gae {
            encoder,
            final_loss,
        }
    }

    /// Trains a GAE with neighbor-sampled mini-batches over out-of-core
    /// operators: `adj` is the raw adjacency (positive edges are drawn by
    /// flat entry index, negatives rejection-sampled against it) and `s`
    /// its normalized propagation view. Memory per step is
    /// `O(edge_batch · fanout²)`, never `O(n · hidden)`.
    ///
    /// Deterministic in `(cfg, scfg, mb, rng seed)` at any thread count:
    /// batch composition and sampling derive from `(mb.seed, epoch,
    /// batch)` and every kernel is bitwise thread-count-invariant.
    pub fn train_sampled<A, S>(
        x: &Matrix,
        adj: &A,
        s: &S,
        cfg: &GaeConfig,
        mb: &MiniBatchConfig,
        rng: &mut Rng,
    ) -> Gae
    where
        A: EdgeSample + ?Sized,
        S: NeighborAccess + ?Sized,
    {
        let n = adj.node_count();
        assert_eq!(x.rows(), n, "Gae::train_sampled: feature/node mismatch");
        assert!(adj.entry_count() > 0, "Gae::train_sampled: empty graph");
        assert_eq!(
            mb.fanouts.len(),
            2,
            "Gae::train_sampled: the 2-layer encoder needs 2 fanouts"
        );
        let mut encoder = Gcn::new(
            x.cols(),
            cfg.hidden_dim,
            cfg.embed_dim,
            Activation::Identity,
            rng,
        );
        let mut opt = Adam::new(cfg.lr);
        let mut sampler = NeighborSampler::new(SamplerConfig {
            fanouts: mb.fanouts.clone(),
            seed: mb.seed,
        });

        // Batch-persistent buffers.
        let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
        let mut seeds: Vec<usize> = Vec::new();
        let mut xb = Matrix::zeros(0, 0);
        let mut z = Matrix::zeros(0, 0);
        let mut dz = Matrix::zeros(0, 0);
        let mut gx = Matrix::zeros(0, 0);
        let mut final_loss = 0.0;

        for epoch in 0..cfg.epochs {
            let mut epoch_loss = 0.0;
            let mut epoch_samples = 0usize;
            for batch in 0..mb.batches_per_epoch {
                // Batch composition from (seed, epoch, batch) alone.
                let mut brng = Rng::seed_from_u64(
                    mb.seed
                        ^ (epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ (batch as u64 + 1).wrapping_mul(0x94D0_49BB_1331_11EB),
                );
                pairs.clear();
                seeds.clear();
                for _ in 0..mb.edge_batch {
                    let (u, v) = adj.entry_at(brng.below(adj.entry_count()));
                    if u == v {
                        continue;
                    }
                    pairs.push((u, v, 1.0));
                    for _ in 0..cfg.negative_ratio {
                        let (mut a, mut b) = (brng.below(n), brng.below(n));
                        let mut tries = 0;
                        while (a == b || adj.has_neighbor(a, b)) && tries < 16 {
                            a = brng.below(n);
                            b = brng.below(n);
                            tries += 1;
                        }
                        if a != b && !adj.has_neighbor(a, b) {
                            pairs.push((a, b, 0.0));
                        }
                    }
                }
                if pairs.is_empty() {
                    continue;
                }
                for &(u, v, _) in &pairs {
                    seeds.push(u);
                    seeds.push(v);
                }
                seeds.sort_unstable();
                seeds.dedup();

                let block = sampler.sample(s, &seeds, epoch, batch);
                x.select_rows_into(block.inputs(), &mut xb);
                assert_eq!(
                    xb.rows(),
                    block.ops[1].cols(),
                    "Gae: block frontier mismatch"
                );
                encoder.forward([&block.ops[1], &block.ops[0]], &xb, &mut z);

                dz.resize(seeds.len(), cfg.embed_dim);
                dz.fill(0.0);
                let mut loss = 0.0;
                let local = |g: usize| seeds.binary_search(&g).expect("endpoint is a seed");
                for &(u, v, y) in &pairs {
                    let (i, j) = (local(u), local(v));
                    let dot: f64 = z.row(i).iter().zip(z.row(j)).map(|(a, b)| a * b).sum();
                    let p = 1.0 / (1.0 + (-dot).exp());
                    let (l, g) = bce_with_logit_grad(p, y);
                    loss += l;
                    for d in 0..z.cols() {
                        dz[(i, d)] += g * z[(j, d)];
                        dz[(j, d)] += g * z[(i, d)];
                    }
                }
                dz.scale_inplace(1.0 / pairs.len() as f64);
                epoch_loss += loss;
                epoch_samples += pairs.len();

                encoder.zero_grad();
                encoder.backward([&block.ops_t[1], &block.ops_t[0]], &dz, &mut gx);
                opt.step(&mut encoder);
            }
            if epoch_samples > 0 {
                final_loss = epoch_loss / epoch_samples as f64;
            }
        }
        Gae {
            encoder,
            final_loss,
        }
    }

    /// Embeds all nodes through the graph's propagation operator: the
    /// materialized `S`, or any [`NeighborAccess`] view yielding its rows
    /// (the out-of-core and streaming paths never materialize it).
    pub fn embed<A: NeighborAccess + Sync + ?Sized>(
        &mut self,
        op: &A,
        x: &Matrix,
        out: &mut Matrix,
    ) {
        assert_eq!(
            x.rows(),
            op.node_count(),
            "Gae::embed: feature/node mismatch"
        );
        self.encoder.forward([op, op], x, out);
    }

    /// Embeds only the nodes in `rows` (sorted, deduplicated), writing
    /// `|rows| x out_dim` rows to `out` in `rows` order — each row
    /// bitwise-equal to the corresponding row of [`Gae::embed`].
    /// The streaming path's incremental refresh after a graph delta.
    pub fn embed_rows<A: NeighborAccess + Sync + ?Sized>(
        &mut self,
        op: &A,
        rows: &[usize],
        x: &Matrix,
        out: &mut Matrix,
    ) {
        self.encoder.forward_rows(op, rows, x, out);
    }

    /// Reconstruction probability of the edge `(i, j)` given embeddings `z`.
    pub fn edge_probability(z: &Matrix, i: usize, j: usize) -> f64 {
        let dot: f64 = z.row(i).iter().zip(z.row(j)).map(|(a, b)| a * b).sum();
        1.0 / (1.0 + (-dot).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two 5-cliques joined by one bridge.
    fn two_cliques() -> SparseMatrix {
        let mut triplets = Vec::new();
        for base in [0usize, 5] {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    triplets.push((base + i, base + j, 1.0));
                    triplets.push((base + j, base + i, 1.0));
                }
            }
        }
        triplets.push((4, 5, 1.0));
        triplets.push((5, 4, 1.0));
        SparseMatrix::from_triplets(10, 10, triplets)
    }

    #[test]
    fn gae_separates_communities() {
        let a = two_cliques();
        let s = a.sym_normalized_with_self_loops();
        let mut rng = Rng::seed_from_u64(121);
        let x = Matrix::randn(10, 6, 1.0, &mut rng);
        let cfg = GaeConfig {
            epochs: 120,
            ..Default::default()
        };
        let mut gae = Gae::train(&x, &a, &s, &cfg, &mut rng);
        let mut z = Matrix::zeros(0, 0);
        gae.embed(&s, &x, &mut z);
        // Intra-clique reconstruction beats the cross pair (0, 9).
        let intra = Gae::edge_probability(&z, 0, 1);
        let cross = Gae::edge_probability(&z, 0, 9);
        assert!(intra > cross, "intra {intra} should exceed cross {cross}");
        assert!(intra > 0.5, "intra edge prob {intra}");
    }

    #[test]
    fn training_reduces_loss() {
        let a = two_cliques();
        let s = a.sym_normalized_with_self_loops();
        let mut rng = Rng::seed_from_u64(122);
        let x = Matrix::randn(10, 6, 1.0, &mut rng);
        let short = Gae::train(
            &x,
            &a,
            &s,
            &GaeConfig {
                epochs: 2,
                ..Default::default()
            },
            &mut Rng::seed_from_u64(5),
        );
        let long = Gae::train(
            &x,
            &a,
            &s,
            &GaeConfig {
                epochs: 150,
                ..Default::default()
            },
            &mut Rng::seed_from_u64(5),
        );
        assert!(
            long.final_loss < short.final_loss,
            "loss did not drop: {} -> {}",
            short.final_loss,
            long.final_loss
        );
    }

    #[test]
    fn embeddings_shape() {
        let a = two_cliques();
        let s = a.sym_normalized_with_self_loops();
        let mut rng = Rng::seed_from_u64(123);
        let x = Matrix::randn(10, 4, 1.0, &mut rng);
        let cfg = GaeConfig {
            embed_dim: 7,
            epochs: 3,
            ..Default::default()
        };
        let mut gae = Gae::train(&x, &a, &s, &cfg, &mut rng);
        let mut z = Matrix::zeros(0, 0);
        gae.embed(&s, &x, &mut z);
        assert_eq!(z.shape(), (10, 7));
    }
}
