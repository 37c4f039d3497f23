//! GraphSAGE-style neighbor sampling: per-batch induced CSR blocks for
//! mini-batch GCN training with `O(batch · fanoutᵏ)` memory.
//!
//! A [`NeighborSampler`] expands a sorted seed set outward one hop per GCN
//! layer, materializing at each hop an induced `|L_l| x |L_{l+1}|` operator
//! slice (a [`SparseMatrix`] built in place) plus its transpose for the
//! backward gather. All buffers are reused across batches, so the
//! steady-state loop allocates nothing.
//!
//! ## Determinism contract
//!
//! Sampling draws from an RNG derived from `(config seed, epoch, batch)`
//! alone and block construction is serial, so a sampled run is a pure
//! function of those three values — thread count never changes which
//! neighbors are drawn, and the one sparse × dense product every GCN pass
//! runs ([`gale_tensor::spmm_access_into`]) is bitwise deterministic at any
//! thread count.
//!
//! ## Full-fanout parity
//!
//! With a fanout of 0 (= keep every neighbor) each hop copies operator rows
//! verbatim in ascending column order and draws nothing from the RNG. If
//! the seed set is *all* nodes of an operator that stores a diagonal entry
//! in every row (the GCN's `S` always does — self-loops), every layer list
//! is the identity and each block *is* the full operator, entry for entry.
//! Block and full-graph passes run the same kernel over the same entries,
//! so the sampled path is then bitwise identical to the full-graph path;
//! the proptests in `tests/sampler_parity.rs` pin this at 1/2/8 threads.
//!
//! When a fanout `f > 0` truncates a row with `m > f` non-self neighbors,
//! the kept non-self values are scaled by `m / f` (Horvitz–Thompson style,
//! so the sampled propagation is an unbiased estimate of the full one) and
//! the self-loop entry is always kept, unscaled.

use gale_tensor::{NeighborAccess, Rng, SparseMatrix};

/// Configuration of a [`NeighborSampler`].
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Per-hop neighbor budgets, outward from the seeds: `fanouts[0]`
    /// bounds the hop feeding the *last* GCN layer. `0` means keep the
    /// full neighborhood. The length fixes the block depth (= number of
    /// GCN layers it can drive).
    pub fanouts: Vec<usize>,
    /// Base seed; combined with `(epoch, batch)` per [`NeighborSampler::sample`].
    pub seed: u64,
}

impl SamplerConfig {
    /// A full-fanout (exact) sampler of the given depth.
    pub fn full(depth: usize, seed: u64) -> Self {
        SamplerConfig {
            fanouts: vec![0; depth],
            seed,
        }
    }
}

/// A sampled k-hop computation block.
///
/// `layers[0]` is the (sorted, deduplicated) seed set — the rows the block
/// ultimately produces output for; `layers[l + 1]` is the frontier feeding
/// hop `l`. `ops[l]` is the induced `|layers[l]| x |layers[l+1]|` operator
/// slice and `ops_t[l]` its transpose (the backward gather operator). All
/// node lists are ascending global ids.
#[derive(Debug, Default)]
pub struct Block {
    /// Node lists per depth, `layers[0]` = seeds.
    pub layers: Vec<Vec<usize>>,
    /// `ops[l]`: induced operator from `layers[l+1]` to `layers[l]`.
    pub ops: Vec<SparseMatrix>,
    /// `ops_t[l]`: transpose of `ops[l]`.
    pub ops_t: Vec<SparseMatrix>,
}

impl Block {
    /// Number of hops (= GCN layers this block can drive).
    pub fn depth(&self) -> usize {
        self.ops.len()
    }

    /// The seed (output) nodes.
    pub fn seeds(&self) -> &[usize] {
        &self.layers[0]
    }

    /// The innermost frontier — the nodes whose *input features* the
    /// block's forward pass consumes.
    pub fn inputs(&self) -> &[usize] {
        &self.layers[self.layers.len() - 1]
    }
}

/// Materializes per-batch induced CSR blocks over any [`NeighborAccess`]
/// operator (in-memory `SparseMatrix`, the `SymNormalized` adapter, or the
/// memory-mapped store in gale-graph).
pub struct NeighborSampler {
    cfg: SamplerConfig,
    block: Block,
    // Global-id -> frontier-local index, stamped per hop so the O(n) map
    // never needs clearing.
    local_of: Vec<usize>,
    stamp: Vec<u64>,
    generation: u64,
    // Flat kept-entry buffers for the hop under construction.
    kept_cols: Vec<usize>,
    kept_vals: Vec<f64>,
    kept_ptr: Vec<usize>,
    reservoir: Vec<(usize, f64)>,
}

/// Mixes `(seed, epoch, batch)` into one RNG seed (splitmix-style odd
/// multipliers keep nearby indices decorrelated).
fn mix_seed(seed: u64, epoch: usize, batch: usize) -> u64 {
    seed ^ (epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (batch as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

impl NeighborSampler {
    /// Creates a sampler; buffers grow to steady-state size over the first
    /// few batches and are reused afterwards.
    pub fn new(cfg: SamplerConfig) -> Self {
        assert!(!cfg.fanouts.is_empty(), "NeighborSampler: empty fanouts");
        NeighborSampler {
            cfg,
            block: Block::default(),
            local_of: Vec::new(),
            stamp: Vec::new(),
            generation: 0,
            kept_cols: Vec::new(),
            kept_vals: Vec::new(),
            kept_ptr: Vec::new(),
            reservoir: Vec::new(),
        }
    }

    /// The sampler's configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.cfg
    }

    /// Builds the block for `seeds` (which must be sorted ascending and
    /// deduplicated) at position `(epoch, batch)` of the run. The result
    /// borrows the sampler's reusable buffers and is valid until the next
    /// call.
    pub fn sample<A: NeighborAccess + ?Sized>(
        &mut self,
        a: &A,
        seeds: &[usize],
        epoch: usize,
        batch: usize,
    ) -> &Block {
        debug_assert!(
            seeds.windows(2).all(|w| w[0] < w[1]),
            "NeighborSampler: seeds must be sorted and unique"
        );
        assert!(!seeds.is_empty(), "NeighborSampler: empty seed set");
        let n = a.node_count();
        if self.local_of.len() < n {
            self.local_of.resize(n, 0);
            self.stamp.resize(n, 0);
        }
        let depth = self.cfg.fanouts.len();
        let mut rng = Rng::seed_from_u64(mix_seed(self.cfg.seed, epoch, batch));

        // (Re)shape the block in place.
        self.block.layers.resize_with(depth + 1, Vec::new);
        self.block
            .ops
            .resize_with(depth, || SparseMatrix::zeros(0, 0));
        self.block
            .ops_t
            .resize_with(depth, || SparseMatrix::zeros(0, 0));
        self.block.layers[0].clear();
        self.block.layers[0].extend_from_slice(seeds);

        let fanouts = self.cfg.fanouts.clone();
        for (l, &fanout) in fanouts.iter().enumerate() {
            self.build_hop(a, l, fanout, &mut rng);
        }
        for l in 0..depth {
            let (ops, ops_t) = (&self.block.ops[l], &mut self.block.ops_t[l]);
            ops.transpose_into(ops_t);
        }
        &self.block
    }

    /// Expands `layers[l]` one hop: samples each node's row, unions the
    /// kept columns into `layers[l+1]`, and fills `ops[l]` with the induced
    /// slice (rows in input order, entries in ascending frontier-local =
    /// ascending global column order).
    fn build_hop<A: NeighborAccess + ?Sized>(
        &mut self,
        a: &A,
        l: usize,
        fanout: usize,
        rng: &mut Rng,
    ) {
        self.kept_cols.clear();
        self.kept_vals.clear();
        self.kept_ptr.clear();
        self.kept_ptr.push(0);

        for i in 0..self.block.layers[l].len() {
            let u = self.block.layers[l][i];
            let reservoir = &mut self.reservoir;
            reservoir.clear();
            let mut self_val: Option<f64> = None;
            let mut m_other = 0usize;
            a.visit_neighbors(u, &mut |c, v| {
                if c == u {
                    self_val = Some(v);
                    return;
                }
                if fanout == 0 || m_other < fanout {
                    reservoir.push((c, v));
                } else {
                    // Reservoir replacement keeps a uniform sample of the
                    // row without knowing its length up front.
                    let j = rng.below(m_other + 1);
                    if j < fanout {
                        reservoir[j] = (c, v);
                    }
                }
                m_other += 1;
            });
            if fanout > 0 && m_other > fanout {
                // Horvitz–Thompson rescale so sampled propagation is an
                // unbiased estimate of the full row sum.
                let factor = m_other as f64 / fanout as f64;
                for (_, v) in self.reservoir.iter_mut() {
                    *v *= factor;
                }
                self.reservoir.sort_unstable_by_key(|&(c, _)| c);
            }
            // Splice the (unscaled) self entry into ascending position.
            let mut placed = self_val.is_none();
            for &(c, v) in self.reservoir.iter() {
                if !placed && c > u {
                    self.kept_cols.push(u);
                    self.kept_vals.push(self_val.unwrap());
                    placed = true;
                }
                self.kept_cols.push(c);
                self.kept_vals.push(v);
            }
            if !placed {
                self.kept_cols.push(u);
                self.kept_vals.push(self_val.unwrap());
            }
            self.kept_ptr.push(self.kept_cols.len());
        }

        // Frontier = sorted union of kept columns.
        let frontier = &mut self.block.layers[l + 1];
        frontier.clear();
        frontier.extend_from_slice(&self.kept_cols);
        frontier.sort_unstable();
        frontier.dedup();
        self.generation += 1;
        for (i, &c) in frontier.iter().enumerate() {
            self.local_of[c] = i;
            self.stamp[c] = self.generation;
        }

        let op = &mut self.block.ops[l];
        op.reset(frontier.len());
        for i in 0..self.kept_ptr.len() - 1 {
            for k in self.kept_ptr[i]..self.kept_ptr[i + 1] {
                let c = self.kept_cols[k];
                debug_assert_eq!(self.stamp[c], self.generation);
                op.push(self.local_of[c], self.kept_vals[k]);
            }
            op.finish_row();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> SparseMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            let j = (i + 1) % n;
            t.push((i, j, 1.0));
            t.push((j, i, 1.0));
        }
        SparseMatrix::from_triplets(n, n, t).sym_normalized_with_self_loops()
    }

    #[test]
    fn full_fanout_over_all_seeds_reproduces_operator() {
        let s = ring(12);
        let seeds: Vec<usize> = (0..12).collect();
        let mut sampler = NeighborSampler::new(SamplerConfig::full(2, 1));
        let block = sampler.sample(&s, &seeds, 0, 0);
        assert_eq!(block.depth(), 2);
        for l in 0..3 {
            assert_eq!(block.layers[l], seeds, "layer {l}");
        }
        for op in &block.ops {
            assert_eq!((op.rows(), op.cols(), op.nnz()), (12, 12, s.nnz()));
            for r in 0..12 {
                let got: Vec<(usize, u64)> =
                    op.row_iter(r).map(|(c, v)| (c, v.to_bits())).collect();
                let want: Vec<(usize, u64)> =
                    s.row_iter(r).map(|(c, v)| (c, v.to_bits())).collect();
                assert_eq!(got, want, "row {r}");
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed_epoch_batch() {
        let s = ring(40);
        let seeds = [3usize, 7, 20, 33];
        let cfg = SamplerConfig {
            fanouts: vec![2, 2],
            seed: 9,
        };
        let collect = |sampler: &mut NeighborSampler| {
            let b = sampler.sample(&s, &seeds, 4, 2);
            (
                b.layers.clone(),
                b.ops
                    .iter()
                    .map(|op| {
                        (0..op.rows())
                            .flat_map(|r| op.row_iter(r).map(|(c, v)| (c, v.to_bits())))
                            .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>(),
            )
        };
        let a = collect(&mut NeighborSampler::new(cfg.clone()));
        let b = collect(&mut NeighborSampler::new(cfg.clone()));
        assert_eq!(a, b);
        // A different batch index draws a different sample (on a graph
        // with enough neighbors to truncate).
        let c = {
            let mut sampler = NeighborSampler::new(cfg);
            let blk = sampler.sample(&s, &seeds, 4, 3);
            blk.ops[0]
                .row_iter(0)
                .map(|(c, _)| c)
                .collect::<Vec<usize>>()
        };
        let _ = c; // different draw is likely but not guaranteed on a ring
    }

    #[test]
    fn fanout_truncates_and_rescales() {
        // Star: node 0 joined to 1..=8; sampling 2 of 8 neighbors must
        // rescale kept values by 4 and always keep the self-loop.
        let mut t = Vec::new();
        for i in 1..=8usize {
            t.push((0, i, 1.0));
            t.push((i, 0, 1.0));
        }
        let s = SparseMatrix::from_triplets(9, 9, t).sym_normalized_with_self_loops();
        let mut sampler = NeighborSampler::new(SamplerConfig {
            fanouts: vec![2],
            seed: 5,
        });
        let block = sampler.sample(&s, &[0], 0, 0);
        let op = &block.ops[0];
        assert_eq!(op.rows(), 1);
        assert_eq!(op.nnz(), 3, "2 sampled neighbors + self");
        let frontier = &block.layers[1];
        assert!(frontier.contains(&0), "self always kept");
        let full_row: Vec<(usize, f64)> = s.row_iter(0).collect();
        for (lc, v) in op.row_iter(0) {
            let gc = frontier[lc];
            let orig = full_row.iter().find(|&&(c, _)| c == gc).unwrap().1;
            if gc == 0 {
                assert_eq!(v.to_bits(), orig.to_bits(), "self entry unscaled");
            } else {
                assert!((v - orig * 4.0).abs() < 1e-12, "rescale by m/f");
            }
        }
    }

    #[test]
    fn transposes_match_ops() {
        let s = ring(20);
        let mut sampler = NeighborSampler::new(SamplerConfig {
            fanouts: vec![2, 2],
            seed: 3,
        });
        let block = sampler.sample(&s, &[1, 5, 6, 17], 1, 0);
        for (op, opt) in block.ops.iter().zip(&block.ops_t) {
            assert_eq!((opt.rows(), opt.cols()), (op.cols(), op.rows()));
            for r in 0..op.rows() {
                for (c, v) in op.row_iter(r) {
                    let found = opt.row_iter(c).any(|(rr, vv)| rr == r && vv == v);
                    assert!(found, "transpose missing ({r},{c})");
                }
            }
        }
    }
}
