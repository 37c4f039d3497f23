//! # gale-tensor
//!
//! Self-contained numeric substrate for the GALE reproduction: dense and
//! sparse `f64` linear algebra, a deterministic RNG, statistics, k-means,
//! PCA, and a symmetric eigensolver.
//!
//! The GALE paper (ICDE 2023) runs on TensorFlow; Rust has no comparable GNN
//! stack, so everything the upper layers need is implemented here from
//! scratch with an emphasis on determinism (every stochastic routine takes an
//! explicit [`rng::Rng`]) and predictable performance (CSR propagation is
//! O(|E|), dense kernels are cache-friendly row-major loops).

// `deny` rather than `forbid`: `par` (lifetime-erased job dispatch and
// disjoint slice splitting), `distance::lanes8` (SIMD intrinsics behind
// runtime feature detection), `gemm::tiers` (calls into the GEMM tile's
// `#[target_feature]` copies for a detected `simd::Tier`), `aligned`
// (raw-slice views over the 64-byte-aligned lane storage) and `heap` (one
// `malloc_trim` call) carry scoped allowances for their audited unsafe
// blocks; everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]
// Index-based loops are the clearer idiom in the dense math kernels below.
#![allow(clippy::needless_range_loop)]

pub mod aligned;
pub mod block;
pub mod distance;
mod gemm;
pub mod heap;
pub mod kmeans;
pub mod linalg;
pub mod matrix;
pub mod par;
pub mod pca;
pub mod rng;
mod simd;
pub mod sparse;
pub mod stats;
pub mod workspace;

pub use aligned::AVec;
pub use block::{spmm_access_into, EdgeSample, NeighborAccess, SymNormalized};
pub use kmeans::{kmeans, KMeansConfig, KMeansResult};
pub use linalg::{solve, sym_eigen, SymEigen};
pub use matrix::Matrix;
pub use pca::Pca;
pub use rng::Rng;
pub use sparse::SparseMatrix;
pub use workspace::Workspace;
