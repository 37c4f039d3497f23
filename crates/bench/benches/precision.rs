//! Mixed-precision bench: the register-tiled GEMM and the blocked
//! distance sweep monomorphized over `f64` and `f32`, timed as pairs with
//! [`paired`] (one thread, interleaved passes), plus the score tolerance
//! between a checkpointed SGAN and its one-way `f32` inference lowering
//! over a fixed deterministic corpus. Writes `BENCH_precision.json`;
//! `gale-loadgen bench-precision` then appends the serving half to the
//! same report. The flip count and the divergence are gated on every run,
//! smoke included (the corpus is deterministic); the speedups on full
//! runs (see `gale_bench::report`).

use gale_bench::report::{paired, Report, Rule};
use gale_core::{Sgan, SganConfig};
use gale_tensor::distance::pairwise_sq_into;
use gale_tensor::{Matrix, Rng, Workspace};
use std::hint::black_box;

const GEMM_SIZES: [usize; 3] = [128, 256, 512];
const DIST_ROWS: [usize; 2] = [512, 1024];
const DIST_DIM: usize = 64;

/// Eval corpus for the tolerance measurement: the same model family the
/// serving smoke tests use (`tiny_model(dim=6, seed=41)`) scored over a
/// seeded Gaussian batch. Deterministic end to end — same weights, same
/// rows, same per-precision bitwise-deterministic kernels — so the
/// committed divergence and flip count reproduce exactly on any host.
const TOL_DIM: usize = 6;
const TOL_MODEL_SEED: u64 = 41;
const TOL_CORPUS_SEED: u64 = 4242;
const TOL_ROWS: usize = 256;

fn tol_model() -> Sgan {
    let mut rng = Rng::seed_from_u64(TOL_MODEL_SEED);
    Sgan::new(
        TOL_DIM,
        &SganConfig {
            d_hidden: vec![8, 4],
            g_hidden: vec![8],
            ..Default::default()
        },
        &mut rng,
    )
}

/// The f32-over-f64 pairs, recorded as Gop/s per side (`n³` MACs for
/// GEMM, `n² · dim` for the sweep) and gated as speedups.
fn bench_speedups(report: &mut Report) {
    for n in GEMM_SIZES {
        let mut rng = Rng::seed_from_u64(n as u64);
        let a = Matrix::randn(n, n, 1.0, &mut rng);
        let b = Matrix::randn(n, n, 1.0, &mut rng);
        let (a32, b32) = (a.to_f32(), b.to_f32());
        let mut out: Matrix = Matrix::zeros(n, n);
        let mut out32: Matrix<f32> = Matrix::zeros(n, n);
        let p = paired(
            &format!("gemm/{n}"),
            || a.matmul_into(black_box(&b), &mut out),
            || a32.matmul_into(black_box(&b32), &mut out32),
        );
        let gop = 1e-9 * (n * n * n) as f64;
        report.pair_rates("gemm", ["f64", "f32"], n, "Gop/s", gop, &p);
        report.ratio(format!("gemm/f32/{n}"), Rule::Speedup, p.ratio.median);
    }
    for n in DIST_ROWS {
        let mut rng = Rng::seed_from_u64(1000 + n as u64);
        let x = Matrix::randn(n, DIST_DIM, 1.0, &mut rng);
        let x32 = x.to_f32();
        let mut ws: Workspace = Workspace::new();
        let mut ws32: Workspace<f32> = Workspace::new();
        let mut out: Matrix = Matrix::zeros(n, n);
        let mut out32: Matrix<f32> = Matrix::zeros(n, n);
        let p = paired(
            &format!("distance/{n}"),
            || pairwise_sq_into(black_box(&x), &x, &mut ws, &mut out),
            || pairwise_sq_into(black_box(&x32), &x32, &mut ws32, &mut out32),
        );
        let gop = 1e-9 * (n * n * DIST_DIM) as f64;
        report.pair_rates("distance", ["f64", "f32"], n, "Gop/s", gop, &p);
        report.ratio(format!("distance/f32/{n}"), Rule::Speedup, p.ratio.median);
    }
}

/// Scores the fixed corpus at both precisions and reports the maximum
/// absolute per-class probability divergence and the number of verdict
/// flips (rows where `p_error > p_correct` disagrees between precisions).
fn measure_tolerance(report: &mut Report) {
    let mut model = tol_model();
    let mut infer32 = model.to_f32();
    let mut rng = Rng::seed_from_u64(TOL_CORPUS_SEED);
    let x = Matrix::randn(TOL_ROWS, TOL_DIM, 1.0, &mut rng);
    let x32 = x.to_f32();
    let mut p64 = Matrix::zeros(0, 0);
    model.probs3_into(&x, &mut p64);
    let mut p32: Matrix<f32> = Matrix::zeros(0, 0);
    infer32.probs3_into(&x32, &mut p32);

    let mut max_div = 0.0f64;
    let mut flips = 0u64;
    for r in 0..TOL_ROWS {
        for c in 0..3 {
            let div = (p64[(r, c)] - p32[(r, c)] as f64).abs();
            if div > max_div {
                max_div = div;
            }
        }
        let v64 = p64[(r, 0)] > p64[(r, 1)];
        let v32 = p32[(r, 0)] > p32[(r, 1)];
        if v64 != v32 {
            flips += 1;
        }
    }
    println!(
        "tolerance corpus: {TOL_ROWS} rows, max |p_f32 - p_f64| {max_div:.3e}, {flips} verdict flip(s)"
    );
    report.entry("tolerance/rows", "rows", TOL_ROWS as f64, 1, 0.0);
    report.entry("tolerance/dim", "features", TOL_DIM as f64, 1, 0.0);
    report.ratio("tolerance/verdict_flips", Rule::Flips, flips as f64);
    report.ratio("tolerance/max_abs_divergence", Rule::Divergence, max_div);
}

fn main() {
    let mut report = Report::new("precision");
    bench_speedups(&mut report);
    measure_tolerance(&mut report);
    report.finish_or_exit();
}
