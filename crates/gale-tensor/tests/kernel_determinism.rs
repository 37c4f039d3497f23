//! Property tests for the tiled/parallel kernel rewrite: every kernel must
//! be bitwise identical to a naive sequential reference, at every thread
//! count, for ragged shapes (not multiples of the 4x8 register tile) and
//! for CSR matrices with empty rows.

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

fn naive_matvec(s: &SparseMatrix, v: &[f64]) -> Vec<f64> {
    (0..s.rows())
        .map(|r| s.row_iter(r).map(|(c, w)| w * v[c]).sum())
        .collect()
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
        // b is n x k, so a b^T is m x n.
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

    #[test]
    fn parallel_matvec_matches_naive(
        rows in 1usize..120,
        cols in 1usize..40,
        seed in 0u64..1000,
    ) {
        let s = random_csr(rows, cols, 0.3, seed);
        let mut rng = Rng::seed_from_u64(seed.wrapping_add(3));
        let v: Vec<f64> = (0..cols).map(|_| rng.gauss()).collect();
        let want = bits(&naive_matvec(&s, &v));
        for t in THREAD_COUNTS {
            let got = with_threads(t, || s.matvec(&v));
            prop_assert_eq!(&bits(&got), &want, "matvec {}x{}, {} threads", rows, cols, t);
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
    assert!(s.matvec(&[1.0; 4]).iter().all(|&x| x == 0.0));
}

#[test]
fn exact_tile_multiple_shapes() {
    // Shapes landing exactly on the 4x8 tile grid exercise the pure tile
    // path with no ragged remainder.
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
    // k-ascending: reference is a seeded scalar chain, not `tn + tn`.
    a.matmul_tn_acc(&b, &mut acc);
    let tn = naive_matmul_tn(&a, &b);
    for i in 0..5 {
        for j in 0..6 {
            let mut want = tn[(i, j)];
            for k in 0..a.rows() {
                want += a[(k, i)] * b[(k, j)];
            }
            assert_eq!(acc[(i, j)].to_bits(), want.to_bits(), "({i},{j})");
        }
    }
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
