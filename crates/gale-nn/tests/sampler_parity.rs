//! The tentpole equivalence contract: a full-fanout sampled block over all
//! nodes drives forward/backward passes that are bitwise identical to the
//! full-graph pass, at 1, 2, and 8 threads; and sampled (truncated) runs
//! are a pure function of `(seed, epoch, batch)` — thread count never
//! changes a bit. Every GCN pass runs one kernel, so the output bits are
//! also pinned across commits.

use gale_nn::sampler::{NeighborSampler, SamplerConfig};
use gale_nn::{Activation, Gae, GaeConfig, Gcn, MiniBatchConfig, Params};
use gale_tensor::par::with_threads;
use gale_tensor::{Matrix, Rng, SparseMatrix, SymNormalized};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn bits(m: &Matrix) -> Vec<u64> {
    m.data().iter().map(|f| f.to_bits()).collect()
}

/// Random symmetric adjacency (with the odd isolated node) and its
/// normalized operator.
fn random_graph(n: usize, edges: usize, seed: u64) -> (SparseMatrix, SparseMatrix) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut triplets = Vec::new();
    for _ in 0..edges {
        let (a, b) = (rng.below(n), rng.below(n));
        if a != b {
            triplets.push((a, b, 1.0));
            triplets.push((b, a, 1.0));
        }
    }
    let a = SparseMatrix::from_triplets(n, n, triplets);
    let s = a.sym_normalized_with_self_loops();
    (a, s)
}

/// One forward + backward through the full-graph pass.
fn run_full(s: &SparseMatrix, x: &Matrix, grad: &Matrix, seed: u64) -> (Matrix, Matrix) {
    let mut net = Gcn::new(
        x.cols(),
        5,
        3,
        Activation::Identity,
        &mut Rng::seed_from_u64(seed),
    );
    let mut out = Matrix::zeros(0, 0);
    net.forward([s, s], x, &mut out);
    net.zero_grad();
    let mut gx = Matrix::zeros(0, 0);
    net.backward([s, s], grad, &mut gx);
    (out, gx)
}

/// The same pass through a full-fanout block over all nodes.
fn run_block(s: &SparseMatrix, x: &Matrix, grad: &Matrix, seed: u64) -> (Matrix, Matrix) {
    let mut net = Gcn::new(
        x.cols(),
        5,
        3,
        Activation::Identity,
        &mut Rng::seed_from_u64(seed),
    );
    let seeds: Vec<usize> = (0..s.rows()).collect();
    let mut sampler = NeighborSampler::new(SamplerConfig::full(2, 0));
    let block = sampler.sample(s, &seeds, 0, 0);
    assert_eq!(
        block.inputs(),
        &seeds[..],
        "full-fanout frontier is all nodes"
    );
    let mut out = Matrix::zeros(0, 0);
    net.forward([&block.ops[1], &block.ops[0]], x, &mut out);
    net.zero_grad();
    let mut gx = Matrix::zeros(0, 0);
    net.backward([&block.ops_t[1], &block.ops_t[0]], grad, &mut gx);
    (out, gx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Full-fanout block forward/backward == full-graph pass, bitwise, at
    /// every thread count.
    #[test]
    fn full_fanout_block_bitwise_equals_full_graph(graph_seed in 0u64..1000, net_seed in 0u64..1000) {
        let n = 40 + (graph_seed as usize % 23);
        let (_, s) = random_graph(n, 3 * n, graph_seed);
        let mut rng = Rng::seed_from_u64(net_seed ^ 0xABCD);
        let x = Matrix::randn(n, 7, 1.0, &mut rng);
        let grad = Matrix::randn(n, 3, 1.0, &mut rng);

        let baseline = with_threads(1, || run_full(&s, &x, &grad, net_seed));
        for t in THREAD_COUNTS {
            let full = with_threads(t, || run_full(&s, &x, &grad, net_seed));
            let block = with_threads(t, || run_block(&s, &x, &grad, net_seed));
            prop_assert_eq!(bits(&full.0), bits(&baseline.0), "full fwd, {} threads", t);
            prop_assert_eq!(bits(&block.0), bits(&baseline.0), "block fwd, {} threads", t);
            prop_assert_eq!(bits(&full.1), bits(&baseline.1), "full bwd, {} threads", t);
            prop_assert_eq!(bits(&block.1), bits(&baseline.1), "block bwd, {} threads", t);
        }
    }

    /// Truncated-fanout sampled training is deterministic in
    /// (seed, epoch, batch) — identical bits at 1/2/8 threads.
    #[test]
    fn sampled_training_deterministic_across_threads(seed in 0u64..500) {
        let n = 60;
        let (a, s) = random_graph(n, 4 * n, seed);
        let x = Matrix::randn(n, 6, 1.0, &mut Rng::seed_from_u64(seed ^ 0x55));
        let cfg = GaeConfig { hidden_dim: 8, embed_dim: 4, epochs: 3, ..Default::default() };
        let mb = MiniBatchConfig {
            fanouts: vec![3, 3],
            edge_batch: 24,
            batches_per_epoch: 4,
            seed,
        };
        let embed = |threads: usize| {
            with_threads(threads, || {
                let mut gae = Gae::train_sampled(
                    &x, &a, &s, &cfg, &mb, &mut Rng::seed_from_u64(seed ^ 0x77),
                );
                let mut z = Matrix::zeros(0, 0);
                gae.embed(&s, &x, &mut z);
                (z, gae.final_loss)
            })
        };
        let base = embed(1);
        for t in THREAD_COUNTS {
            let got = embed(t);
            prop_assert_eq!(bits(&got.0), bits(&base.0), "embeddings, {} threads", t);
            prop_assert_eq!(got.1.to_bits(), base.1.to_bits(), "loss, {} threads", t);
        }
    }
}

/// Embedding through the on-the-fly normalized view of the adjacency (the
/// out-of-core and streaming operator) matches the materialized `S`
/// bitwise.
#[test]
fn access_inference_matches_legacy_embed() {
    let (a, s) = random_graph(50, 160, 77);
    let x = Matrix::randn(50, 6, 1.0, &mut Rng::seed_from_u64(1));
    let cfg = GaeConfig {
        epochs: 4,
        ..Default::default()
    };
    let mut gae = Gae::train(&x, &a, &s, &cfg, &mut Rng::seed_from_u64(2));
    let mut materialized = Matrix::zeros(0, 0);
    gae.embed(&s, &x, &mut materialized);
    let mut via_access = Matrix::zeros(0, 0);
    gae.embed(&SymNormalized::new(&a), &x, &mut via_access);
    assert_eq!(bits(&materialized), bits(&via_access));
}

/// FNV-1a over the bit patterns of every value, in order.
fn fnv1a(parts: &[&Matrix]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for m in parts {
        for v in m.data() {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn uniform(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.f64() - 0.5).collect(),
    )
}

/// The parity tests above compare the one kernel with itself; this pins
/// its bits, so a change to the GCN's arithmetic shows up here. Inputs are
/// drawn with `Rng::f64` only and the activations are ReLU and identity,
/// so no libm call reaches a pinned value. A deliberate change to the
/// arithmetic must update the constants (and say so).
#[test]
fn gcn_output_bits_are_pinned() {
    let (_, s) = random_graph(48, 150, 2024);
    let mut rng = Rng::seed_from_u64(99);
    let x = uniform(48, 5, &mut rng);
    let grad = uniform(48, 3, &mut rng);
    let mut net = Gcn::new(5, 6, 3, Activation::Identity, &mut Rng::seed_from_u64(7));
    let (mut out, mut gx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));

    // Over the materialized S.
    net.forward([&s, &s], &x, &mut out);
    net.zero_grad();
    net.backward([&s, &s], &grad, &mut gx);
    assert_eq!(fnv1a(&[&out, &gx]), 0xc97a_fd0e_ad5e_5ff1, "full graph");

    // Over a truncated-fanout sampled block.
    let seeds = [1usize, 4, 9, 16, 25, 36];
    let mut sampler = NeighborSampler::new(SamplerConfig {
        fanouts: vec![2, 2],
        seed: 3,
    });
    let block = sampler.sample(&s, &seeds, 1, 2);
    assert!(block.inputs().len() < 48, "fanout 2 truncates the frontier");
    let xb = x.select_rows(block.inputs());
    let gb = grad.select_rows(&seeds);
    net.forward([&block.ops[1], &block.ops[0]], &xb, &mut out);
    net.zero_grad();
    net.backward([&block.ops_t[1], &block.ops_t[0]], &gb, &mut gx);
    assert_eq!(fnv1a(&[&out, &gx]), 0x1be0_3520_7a6b_30f9, "sampled block");

    // Through the rows-subset forward.
    net.forward_rows(&s, &[2, 3, 17, 40], &x, &mut out);
    assert_eq!(fnv1a(&[&out]), 0x4dd4_ccad_2df3_6224, "row subset");
}
