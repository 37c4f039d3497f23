//! Selection-kernel bench: Hamerly-pruned blocked k-means assignment and
//! the batched QSelect fan-out, each timed against an in-bench
//! reproduction of the pre-kernel scalar path with [`paired`] (one
//! thread, interleaved passes). Writes `BENCH_select.json` and gates both
//! speedups against the committed report (see `gale_bench::report`).

use gale_bench::report::{paired, Report, Rule};
use gale_core::{qselect, MemoCache};
use gale_tensor::distance::{euclidean, squared_euclidean};
use gale_tensor::{kmeans, par, KMeansConfig, Matrix, Rng};

const DIM: usize = 32;
const KMEANS_K: usize = 16;
const KMEANS_ITERS: usize = 15;
const QSELECT_ROUNDS: usize = 16;
const SIZES: [usize; 2] = [512, 2048];

/// Clustered inputs: `KMEANS_K` Gaussian blobs, the shape embedding rows
/// actually have. Structure matters for a fair comparison — Hamerly
/// bounds only start skipping once clusters stabilize, and structureless
/// noise keeps every bound loose.
fn blob_points(n: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed_from_u64(seed);
    let centers = Matrix::randn(KMEANS_K, DIM, 4.0, &mut rng);
    let mut pts = Matrix::zeros(n, DIM);
    for i in 0..n {
        let c = i % KMEANS_K;
        for j in 0..DIM {
            pts[(i, j)] = centers[(c, j)] + rng.gauss();
        }
    }
    pts
}

/// The pre-kernel Lloyd loop: k-means++ seeding followed by a scalar
/// per-point-per-centroid assignment scan — what `gale_tensor::kmeans` ran
/// before the blocked D² + Hamerly-bound assignment step. Returns the
/// iteration count actually run so throughput stays honest about early
/// convergence.
fn naive_kmeans(
    points: &Matrix,
    k: usize,
    max_iter: usize,
    rng: &mut Rng,
) -> (Vec<usize>, f64, usize) {
    let n = points.rows();
    let d = points.cols();
    let k = k.clamp(1, n);
    let mut centroids = Matrix::zeros(k, d);
    centroids.set_row(0, points.row(rng.below(n)));
    let mut dist2 = vec![0.0f64; n];
    for (i, slot) in dist2.iter_mut().enumerate() {
        *slot = squared_euclidean(points.row(i), centroids.row(0));
    }
    for c in 1..k {
        let total: f64 = dist2.iter().sum();
        let next = if total <= 0.0 {
            rng.below(n)
        } else {
            rng.weighted(&dist2)
        };
        centroids.set_row(c, points.row(next));
        for (i, slot) in dist2.iter_mut().enumerate() {
            let dd = squared_euclidean(points.row(i), centroids.row(c));
            if dd < *slot {
                *slot = dd;
            }
        }
    }
    let mut assignments = vec![0usize; n];
    let mut inertia = f64::INFINITY;
    let mut iters = 0;
    for it in 0..max_iter {
        iters = it + 1;
        par::par_chunks_mut(&mut assignments, 1, |start, chunk| {
            for (off, a) in chunk.iter_mut().enumerate() {
                let i = start + off;
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for c in 0..k {
                    let dd = squared_euclidean(points.row(i), centroids.row(c));
                    if dd < best_d {
                        best_d = dd;
                        best = c;
                    }
                }
                *a = best;
            }
        });
        let mut sums: Matrix = Matrix::zeros(k, d);
        let mut counts = vec![0usize; k];
        let mut total = 0.0;
        for (i, &c) in assignments.iter().enumerate() {
            total += squared_euclidean(points.row(i), centroids.row(c));
            counts[c] += 1;
            for (s, &p) in sums.row_mut(c).iter_mut().zip(points.row(i)) {
                *s += p;
            }
        }
        inertia = total;
        let mut movement = 0.0;
        for (c, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let inv = 1.0 / count as f64;
            let old: Vec<f64> = centroids.row(c).to_vec();
            for (cc, &s) in centroids.row_mut(c).iter_mut().zip(sums.row(c)) {
                *cc = s * inv;
            }
            movement += squared_euclidean(&old, centroids.row(c)).sqrt();
        }
        if movement <= 0.0 {
            break;
        }
    }
    (assignments, inertia, iters)
}

/// The pre-kernel un-memoized QSelect round loop: one scalar euclidean per
/// candidate per round.
fn naive_qselect(
    embeddings: &Matrix,
    unlabeled: &[usize],
    typicality: &[f64],
    k: usize,
    lambda: f64,
) -> Vec<usize> {
    let k = k.min(unlabeled.len());
    let mut selected = Vec::with_capacity(k);
    let mut in_q = vec![false; unlabeled.len()];
    let mut div_sum = vec![0.0f64; unlabeled.len()];
    for _ in 0..k {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..unlabeled.len() {
            if in_q[i] {
                continue;
            }
            let gain = 0.5 * typicality[i] + lambda * div_sum[i];
            match best {
                Some((_, b)) if gain <= b => {}
                _ => best = Some((i, gain)),
            }
        }
        let Some((pick, _)) = best else { break };
        in_q[pick] = true;
        let picked_node = unlabeled[pick];
        selected.push(picked_node);
        par::par_chunks_mut(&mut div_sum, 1, |start, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                let i = start + off;
                if !in_q[i] {
                    *slot += euclidean(embeddings.row(unlabeled[i]), embeddings.row(picked_node));
                }
            }
        });
    }
    selected
}

/// K-means assignment rows/s uses the measured Lloyd iteration count: the
/// runs converge well before the iteration budget on clustered data (both
/// variants follow the same trajectory from the same seed, so one probe
/// run is representative; a divergence is printed, not fatal).
fn bench_kmeans_assign(report: &mut Report) {
    for n in SIZES {
        let points = blob_points(n, n as u64);
        let cfg = KMeansConfig {
            k: KMEANS_K,
            max_iter: KMEANS_ITERS,
            tol: 0.0,
            pruned: true,
        };
        let probe = kmeans(&points, &cfg, &mut Rng::seed_from_u64(17));
        let (_, _, naive_iters) =
            naive_kmeans(&points, KMEANS_K, KMEANS_ITERS, &mut Rng::seed_from_u64(17));
        if probe.iterations != naive_iters {
            println!(
                "note: kmeans_assign/{n}: pruned converged in {} iters, scalar in {naive_iters}",
                probe.iterations
            );
        }
        let p = paired(
            &format!("kmeans_assign/{n}"),
            || naive_kmeans(&points, KMEANS_K, KMEANS_ITERS, &mut Rng::seed_from_u64(17)),
            || kmeans(&points, &cfg, &mut Rng::seed_from_u64(17)),
        );
        let rows = (n * probe.iterations) as f64;
        report.pair_rates("kmeans_assign", ["scalar", "pruned"], n, "rows/s", rows, &p);
        let name = format!("kmeans_assign/pruned/{n}");
        report.ratio(name, Rule::Speedup, p.ratio.median);
    }
}

fn bench_qselect(report: &mut Report) {
    for n in SIZES {
        let mut rng = Rng::seed_from_u64(100 + n as u64);
        let h = Matrix::randn(n, DIM, 1.0, &mut rng);
        let unlabeled: Vec<usize> = (0..n).collect();
        let typ: Vec<f64> = (0..n).map(|_| rng.f64()).collect();
        let p = paired(
            &format!("qselect/{n}"),
            || naive_qselect(&h, &unlabeled, &typ, QSELECT_ROUNDS, 0.7),
            || {
                let mut memo = MemoCache::new(false, 1e-9);
                qselect(&h, &unlabeled, &typ, QSELECT_ROUNDS, 0.7, &mut memo)
            },
        );
        let rounds = QSELECT_ROUNDS as f64;
        report.pair_rates("qselect", ["scalar", "batched"], n, "rounds/s", rounds, &p);
        let name = format!("qselect/batched/{n}");
        report.ratio(name, Rule::Speedup, p.ratio.median);
    }
}

fn main() {
    let mut report = Report::new("select");
    bench_kmeans_assign(&mut report);
    bench_qselect(&mut report);
    report.finish_or_exit();
}
