//! Compute-kernel bench: register-tiled dense GEMM, CSR SpMM and pairwise
//! distances, each timed against the naive formulation it replaced with
//! [`paired`] (one thread, interleaved passes). Writes
//! `BENCH_kernels.json` and gates the matmul and SpMM speedups against
//! the committed report (see `gale_bench::report`).

use gale_bench::report::{paired, timed, Report, Rule};
use gale_tensor::{spmm_access_into, Matrix, Rng, SparseMatrix};

/// Naive i-j-k matmul — the pre-tiling kernel.
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

/// Naive sequential CSR * dense row loop.
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

/// Naive all-pairs Euclidean distances.
fn naive_pairwise(points: &Matrix) -> Matrix {
    let n = points.rows();
    let mut out = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            out[(i, j)] = gale_tensor::distance::euclidean(points.row(i), points.row(j));
        }
    }
    out
}

fn bench_dense(report: &mut Report) {
    for n in [64usize, 128, 256] {
        let mut rng = Rng::seed_from_u64(n as u64);
        let a = Matrix::randn(n, n, 1.0, &mut rng);
        let b = Matrix::randn(n, n, 1.0, &mut rng);
        let p = paired(
            &format!("matmul/{n}"),
            || naive_matmul(&a, &b),
            || a.matmul(&b),
        );
        let gflop = 2e-9 * (n * n * n) as f64;
        report.pair_rates("matmul", ["naive", "tiled"], n, "GFLOP/s", gflop, &p);
        report.ratio(format!("matmul/{n}"), Rule::Speedup, p.ratio.median);
    }
    // The largest size times the tiled kernel alone: the naive reference
    // is too slow to pair at 512.
    let mut rng = Rng::seed_from_u64(512);
    let a = Matrix::randn(512, 512, 1.0, &mut rng);
    let b = Matrix::randn(512, 512, 1.0, &mut rng);
    let s = timed("matmul/tiled/512", || a.matmul(&b));
    report.rate("matmul/tiled/512", "GFLOP/s", 2e-9 * 512f64.powi(3), &s);
}

fn bench_spmm(report: &mut Report) {
    for (rows, density) in [(2000usize, 0.005f64), (4000, 0.002)] {
        let mut rng = Rng::seed_from_u64(rows as u64);
        let mut triplets = Vec::new();
        for r in 0..rows {
            for c in 0..rows {
                if rng.f64() < density {
                    triplets.push((r, c, rng.gauss()));
                }
            }
        }
        let s = SparseMatrix::from_triplets(rows, rows, triplets);
        let d = Matrix::randn(rows, 32, 1.0, &mut rng);
        let p = paired(
            &format!("spmm/{rows}"),
            || naive_spmm(&s, &d),
            || {
                let mut out = Matrix::zeros(0, 0);
                spmm_access_into(&s, &d, &mut out);
                out
            },
        );
        // Two flops per stored entry per dense column.
        let gflop = 2e-9 * s.nnz() as f64 * 32.0;
        report.pair_rates("spmm", ["naive", "parallel"], rows, "GFLOP/s", gflop, &p);
        report.ratio(format!("spmm/{rows}"), Rule::Speedup, p.ratio.median);
    }
}

fn bench_pairwise(report: &mut Report) {
    let n = 600;
    let mut rng = Rng::seed_from_u64(9);
    let points = Matrix::randn(n, 16, 1.0, &mut rng);
    let p = paired(
        "pairwise/600",
        || naive_pairwise(&points),
        || gale_tensor::distance::pairwise_euclidean(&points),
    );
    // n² distances over 16 dims: sub, mul, add, plus a sqrt (counted 1).
    let gflop = 1e-9 * (n * n) as f64 * (3.0 * 16.0 + 1.0);
    report.pair_rates("pairwise", ["naive", "parallel"], n, "GFLOP/s", gflop, &p);
    // Recorded, not gated: no pairwise pair has ever been part of the gate.
    report.sample("pairwise/600/speedup", "x", &p.ratio);
}

fn main() {
    let mut report = Report::new("kernels");
    bench_dense(&mut report);
    bench_spmm(&mut report);
    bench_pairwise(&mut report);
    report.finish_or_exit();
}
