//! Property tests for the tiled/parallel kernel rewrite: every kernel must
//! be bitwise identical to a naive sequential reference, at every thread
//! count, for ragged shapes (not multiples of the 4x8 register tile) and
//! for CSR matrices with empty rows. GEMM row chunks start on multiples of
//! the tile's 4 rows, so every product with 4 or more output rows and 8 or
//! more columns runs the tile as well as the ragged edge. `A·Bᵀ` packs
//! `Bᵀ` and runs the `A·B` tile, so its tests cover that packed path. All
//! of these run the process's SIMD tier; `gemm`'s unit tests compare every
//! tier the CPU offers with the portable copy.

use gale_tensor::distance::pairwise_euclidean_into;
use gale_tensor::par::with_threads;
use gale_tensor::{spmm_access_into, Matrix, Rng, SparseMatrix, Workspace};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn bits(data: &[f64]) -> Vec<u64> {
    data.iter().map(|f| f.to_bits()).collect()
}

// --- Naive sequential references (the pre-tiling formulations). -----------

/// `A B` as the classic i-j-k triple loop, k ascending into one scalar.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                acc += a[(i, k)] * b[(k, j)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// `A^T B`, k (rows of both operands) ascending.
fn naive_matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    for i in 0..a.cols() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for k in 0..a.rows() {
                acc += a[(k, i)] * b[(k, j)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// `start + A^T B` as one seeded scalar chain per element, k ascending:
/// the reference for `matmul_tn_acc` (not `start + tn`, which rounds
/// twice).
fn naive_matmul_tn_acc(start: &Matrix, a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = start.clone();
    for i in 0..a.cols() {
        for j in 0..b.cols() {
            for k in 0..a.rows() {
                out[(i, j)] += a[(k, i)] * b[(k, j)];
            }
        }
    }
    out
}

/// `A B^T`, k (cols of both operands) ascending.
fn naive_matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                acc += a[(i, k)] * b[(j, k)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// CSR * dense, accumulating each output row in stored-entry order.
fn naive_spmm(s: &SparseMatrix, d: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(s.rows(), d.cols());
    for r in 0..s.rows() {
        for (c, v) in s.row_iter(r) {
            for j in 0..d.cols() {
                out[(r, j)] += v * d[(c, j)];
            }
        }
    }
    out
}

/// Random CSR with roughly `density` fill and a deterministic sprinkling of
/// fully-empty rows.
fn random_csr(rows: usize, cols: usize, density: f64, seed: u64) -> SparseMatrix {
    let mut rng = Rng::seed_from_u64(seed);
    let mut triplets = Vec::new();
    for r in 0..rows {
        // Every third row (offset by the seed) is forced empty.
        if rows > 2 && (r + seed as usize).is_multiple_of(3) {
            continue;
        }
        for c in 0..cols {
            if rng.f64() < density {
                triplets.push((r, c, rng.gauss()));
            }
        }
    }
    SparseMatrix::from_triplets(rows, cols, triplets)
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed_from_u64(seed);
    Matrix::randn(rows, cols, 1.0, &mut rng)
}

// --- Dense GEMM vs naive, ragged shapes, all thread counts. ---------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tiled_matmul_matches_naive(
        m in 1usize..37,
        k in 1usize..29,
        n in 1usize..41,
        seed in 0u64..1000,
    ) {
        let a = random_matrix(m, k, seed);
        let b = random_matrix(k, n, seed.wrapping_add(1));
        let want = bits(naive_matmul(&a, &b).data());
        for t in THREAD_COUNTS {
            let got = with_threads(t, || a.matmul(&b));
            prop_assert_eq!(&bits(got.data()), &want, "matmul {}x{}x{}, {} threads", m, k, n, t);
        }
    }

    #[test]
    fn tiled_matmul_tn_matches_naive(
        m in 1usize..29,
        k in 1usize..37,
        n in 1usize..41,
        seed in 0u64..1000,
    ) {
        // a is k x m, so a^T b is m x n.
        let a = random_matrix(k, m, seed);
        let b = random_matrix(k, n, seed.wrapping_add(1));
        let want = bits(naive_matmul_tn(&a, &b).data());
        for t in THREAD_COUNTS {
            let got = with_threads(t, || a.matmul_tn(&b));
            prop_assert_eq!(&bits(got.data()), &want, "matmul_tn {}x{}x{}, {} threads", m, k, n, t);
        }
    }

    #[test]
    fn tiled_matmul_nt_matches_naive(
        m in 1usize..37,
        k in 1usize..29,
        n in 1usize..33,
        seed in 0u64..1000,
    ) {
        // b is n x k, so a b^T is m x n: the A·B tile over the packed b^T.
        let a = random_matrix(m, k, seed);
        let b = random_matrix(n, k, seed.wrapping_add(1));
        let want = bits(naive_matmul_nt(&a, &b).data());
        for t in THREAD_COUNTS {
            let got = with_threads(t, || a.matmul_nt(&b));
            prop_assert_eq!(&bits(got.data()), &want, "matmul_nt {}x{}x{}, {} threads", m, k, n, t);
        }
    }

    // --- CSR kernels vs naive, with empty rows. ---------------------------

    #[test]
    fn parallel_spmm_matches_naive(
        rows in 1usize..50,
        cols in 1usize..40,
        n in 1usize..20,
        seed in 0u64..1000,
    ) {
        let s = random_csr(rows, cols, 0.3, seed);
        let d = random_matrix(cols, n, seed.wrapping_add(2));
        let want = bits(naive_spmm(&s, &d).data());
        for t in THREAD_COUNTS {
            let got = with_threads(t, || {
                let mut out = Matrix::zeros(0, 0);
                spmm_access_into(&s, &d, &mut out);
                out
            });
            prop_assert_eq!(&bits(got.data()), &want, "spmm {}x{}x{}, {} threads", rows, cols, n, t);
        }
    }

    // --- `_into` variants: same bits as the allocating form, even when the
    // --- destination arrives poisoned from a workspace recycle. -----------

    #[test]
    fn into_variants_match_allocating_forms(
        m in 1usize..30,
        k in 1usize..30,
        n in 1usize..30,
        seed in 0u64..1000,
    ) {
        let a = random_matrix(m, k, seed);
        let b = random_matrix(k, n, seed.wrapping_add(1));
        let bt = random_matrix(n, k, seed.wrapping_add(2));
        let at = random_matrix(k, m, seed.wrapping_add(3));
        let s = random_csr(m, k, 0.3, seed.wrapping_add(4));
        let dense = random_matrix(k, n, seed.wrapping_add(5));

        // Poisoned destination: a recycled workspace buffer full of NaN.
        let mut ws = Workspace::new();
        let mut poisoned = ws.take(m, n);
        poisoned.fill(f64::NAN);
        ws.give(poisoned);

        for t in THREAD_COUNTS {
            with_threads(t, || -> Result<(), TestCaseError> {
                let mut out = ws.take(1, 1);
                a.matmul_into(&b, &mut out);
                prop_assert_eq!(bits(out.data()), bits(a.matmul(&b).data()), "matmul_into");
                at.matmul_tn_into(&b, &mut out);
                prop_assert_eq!(bits(out.data()), bits(at.matmul_tn(&b).data()), "matmul_tn_into");
                a.matmul_nt_into(&bt, &mut out);
                prop_assert_eq!(bits(out.data()), bits(a.matmul_nt(&bt).data()), "matmul_nt_into");
                spmm_access_into(&s, &dense, &mut out);
                prop_assert_eq!(bits(out.data()), bits(naive_spmm(&s, &dense).data()), "spmm_access_into");
                ws.give(out);
                Ok(())
            })?;
        }
    }

    #[test]
    fn pairwise_into_matches_allocating_form(
        points in 1usize..40,
        dim in 1usize..10,
        seed in 0u64..1000,
    ) {
        let p = random_matrix(points, dim, seed);
        let want = bits(gale_tensor::distance::pairwise_euclidean(&p).data());
        for t in THREAD_COUNTS {
            let mut out = Matrix::zeros(3, 3); // wrong shape on purpose
            out.fill(f64::NAN);
            with_threads(t, || pairwise_euclidean_into(&p, &mut out));
            prop_assert_eq!(&bits(out.data()), &want, "pairwise_into, {} threads", t);
        }
    }
}

// --- Deterministic edge cases the generators can't be trusted to hit. -----

#[test]
fn empty_csr_and_all_empty_rows() {
    let s = SparseMatrix::zeros(5, 4);
    let d = random_matrix(4, 3, 7);
    let mut out = Matrix::zeros(0, 0);
    spmm_access_into(&s, &d, &mut out);
    assert_eq!(out.shape(), (5, 3));
    assert!(out.data().iter().all(|&x| x == 0.0));
}

#[test]
fn exact_tile_multiple_shapes() {
    // Shapes landing exactly on the 4x8 tile grid run the pure tile path
    // with no ragged remainder: each row chunk is a whole number of tiles.
    for (m, k, n) in [(4, 8, 8), (8, 16, 16), (16, 4, 24)] {
        let a = random_matrix(m, k, (m * 31 + n) as u64);
        let b = random_matrix(k, n, (k * 17 + m) as u64);
        assert_eq!(
            bits(a.matmul(&b).data()),
            bits(naive_matmul(&a, &b).data()),
            "{m}x{k}x{n}"
        );
    }
}

/// The products the AL loop and the served forward run, against the naive
/// references at 1, 2 and 8 threads: the discriminator's first weight
/// gradient (810 rows into 58 x 48), the GAE's (7,080 rows into 51 x 24),
/// and forwards and input gradients of 1, 3, 4, 5 and 65 rows through a
/// 58 x 48 layer; an input gradient runs the `A·B` tile over the packed
/// `Wᵀ`. The accumulators start non-zero, as they do after a first
/// backward.
#[test]
fn workload_shapes_match_naive() {
    for (k, m, n) in [(810usize, 58usize, 48usize), (7080, 51, 24)] {
        let a = random_matrix(k, m, k as u64);
        let b = random_matrix(k, n, k as u64 + 1);
        let start = random_matrix(m, n, k as u64 + 2);
        let tn = naive_matmul_tn(&a, &b);
        let want = naive_matmul_tn_acc(&start, &a, &b);
        for t in THREAD_COUNTS {
            let mut acc = start.clone();
            with_threads(t, || a.matmul_tn_acc(&b, &mut acc));
            assert_eq!(
                bits(acc.data()),
                bits(want.data()),
                "tn_acc {k} rows, {t} threads"
            );
            let got = with_threads(t, || a.matmul_tn(&b));
            assert_eq!(
                bits(got.data()),
                bits(tn.data()),
                "tn {k} rows, {t} threads"
            );
        }
    }
    let w = random_matrix(58, 48, 58);
    for rows in [1usize, 3, 4, 5, 65] {
        let x = random_matrix(rows, 58, rows as u64);
        let g = random_matrix(rows, 48, rows as u64 + 100);
        let fwd = naive_matmul(&x, &w);
        let dx = naive_matmul_nt(&g, &w);
        for t in THREAD_COUNTS {
            let got = with_threads(t, || x.matmul(&w));
            assert_eq!(
                bits(got.data()),
                bits(fwd.data()),
                "forward {rows} rows, {t} threads"
            );
            let got = with_threads(t, || g.matmul_nt(&w));
            assert_eq!(
                bits(got.data()),
                bits(dx.data()),
                "dx {rows} rows, {t} threads"
            );
        }
    }
}

#[test]
fn matmul_tn_acc_accumulates_on_top() {
    // C += A^T B must equal naive tn added to the prior contents when the
    // accumulator starts non-zero, and equal the plain tn when it is zero.
    let a = random_matrix(9, 5, 11);
    let b = random_matrix(9, 6, 12);
    let mut acc = Matrix::zeros(5, 6);
    a.matmul_tn_acc(&b, &mut acc);
    assert_eq!(bits(acc.data()), bits(naive_matmul_tn(&a, &b).data()));
    // Second accumulation folds the products onto the prior value, still
    // k-ascending.
    let want = naive_matmul_tn_acc(&acc, &a, &b);
    a.matmul_tn_acc(&b, &mut acc);
    assert_eq!(bits(acc.data()), bits(want.data()));
}

#[test]
fn workspace_recycling_never_changes_results() {
    let a = random_matrix(13, 7, 21);
    let b = random_matrix(7, 9, 22);
    let fresh = a.matmul(&b);
    let mut ws = Workspace::new();
    // Cycle the same buffer through several differently-shaped products.
    let mut out = ws.take(13, 9);
    a.matmul_into(&b, &mut out);
    assert_eq!(bits(out.data()), bits(fresh.data()));
    ws.give(out);
    let mut out = ws.take(7, 7);
    b.matmul_nt_into(&b, &mut out);
    ws.give(out);
    let mut out = ws.take(13, 9);
    a.matmul_into(&b, &mut out);
    assert_eq!(bits(out.data()), bits(fresh.data()), "after recycling");
    let (hits, misses) = ws.stats();
    assert!(
        hits >= 2,
        "workspace never recycled: {hits} hits, {misses} misses"
    );
}

// --- Pinned output bits. ---------------------------------------------------

/// FNV-1a over the bit patterns of every value, in order.
fn fnv1a(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Entries in `[-0.5, 0.5)` drawn with `Rng::f64` alone, so no libm call
/// reaches a pinned value.
fn uniform(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed_from_u64(seed);
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.f64() - 0.5).collect(),
    )
}

/// The tests above compare each kernel with a reference; these pin the
/// bits themselves, so any change to the dense kernels' arithmetic shows
/// up here. The GEMM shapes run the 4x8 tile on rows 0-11 and columns
/// 0-15 and the ragged edge on the rest (13 rows, 21 columns); the
/// constants were recorded when every GEMM row chunk was one row, so they
/// also pin that the tile gives the edge path's bits, and
/// `matmul_nt_into`'s was recorded before it packed `Bᵀ`, so it pins
/// that the packed path gives the strided gather's bits. The distance shapes
/// cross the eight-lane dot chain's remainder (21 columns); `sqrt` is
/// correctly rounded, so the pins hold on any IEEE-754 host. A deliberate
/// change to the arithmetic must update the constants (and say so).
#[test]
fn gemm_output_bits_are_pinned() {
    let a = uniform(13, 11, 1);
    let b = uniform(11, 21, 2);
    let at = uniform(11, 13, 3);
    let bt = uniform(21, 11, 4);
    let mut out = Matrix::zeros(0, 0);
    a.matmul_into(&b, &mut out);
    assert_eq!(out.shape(), (13, 21));
    assert_eq!(fnv1a(out.data()), 0xb28f_7573_f119_5179, "matmul_into");
    at.matmul_tn_into(&b, &mut out);
    assert_eq!(out.shape(), (13, 21));
    assert_eq!(fnv1a(out.data()), 0x5743_9cda_ce64_70c2, "matmul_tn_into");
    a.matmul_nt_into(&bt, &mut out);
    assert_eq!(out.shape(), (13, 21));
    assert_eq!(fnv1a(out.data()), 0xdd95_2b34_bdd9_e2e7, "matmul_nt_into");
}

#[test]
fn distance_output_bits_are_pinned() {
    use gale_tensor::distance::{
        dists_to_row_into, indexed_dists_to_row_into, pairwise_sq_into, row_norms_sq,
    };
    // 23 rows: two eight-row sweep blocks plus a seven-row tail.
    let x = uniform(23, 21, 5);
    let y = uniform(9, 21, 6);
    let norms = row_norms_sq(&x);
    assert_eq!(fnv1a(&norms), 0x4d10_35a1_6104_53c0, "row_norms_sq");
    let mut ws = Workspace::new();
    let mut out = Matrix::zeros(0, 0);
    pairwise_sq_into(&x, &y, &mut ws, &mut out);
    assert_eq!(out.shape(), (23, 9));
    assert_eq!(fnv1a(out.data()), 0x3e07_1590_56a5_4cbd, "pairwise_sq_into");
    let mut row = vec![0.0; 23];
    dists_to_row_into(&x, &norms, x.row(9), norms[9], &mut row);
    assert_eq!(fnv1a(&row), 0xbb58_8f38_cfb4_362c, "dists_to_row_into");
    let idx: Vec<usize> = (0..23).rev().step_by(2).chain([9, 9, 0, 22]).collect();
    let mut sub = vec![0.0; idx.len()];
    indexed_dists_to_row_into(&x, &norms, &idx, 9, &mut sub);
    assert_eq!(
        fnv1a(&sub),
        0xdd06_47e6_2803_82aa,
        "indexed_dists_to_row_into"
    );
}
