//! Lloyd's k-means with k-means++ seeding.
//!
//! Query selection (Section V of the paper) clusters the discriminator's node
//! embeddings `H_n(X_R)` with k'-means (k' between k and 3k) and measures
//! *clustering typicality* as the inverse distance to the assigned centroid.
//!
//! The assignment step is kernel-shaped: one blocked `points x centroids`
//! squared-distance matrix per Lloyd iteration (Gram trick through the tiled
//! GEMM, see [`crate::distance::pairwise_sq_with_norms_into`]), plus exact
//! Hamerly-style triangle-inequality pruning. Each point carries an upper
//! bound on the distance to its assigned centroid and a lower bound on the
//! distance to every other centroid; both are advanced by centroid movement
//! each iteration, and a point whose upper bound stays strictly below its
//! lower bound keeps its assignment without evaluating a single centroid
//! distance. Pruning never changes results: skipped points are provably
//! optimal (strict inequality also rules out ties), and recomputed points go
//! through the same blocked kernel the unpruned scan uses, so pruned and
//! unpruned runs produce bitwise-identical assignments, centroids, and
//! inertia (`KMeansConfig::pruned = false` selects the unpruned reference
//! scan; property tests enforce the equivalence).

use crate::distance::{self, squared_euclidean};
use crate::matrix::Matrix;
use crate::rng::Rng;
use crate::workspace::Workspace;

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// `k x d` centroid matrix.
    pub centroids: Matrix,
    /// Cluster assignment for every input row.
    pub assignments: Vec<usize>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f64,
    /// Number of Lloyd iterations executed.
    pub iterations: usize,
    /// Centroid distance evaluations skipped by the Hamerly bounds.
    pub pruned: u64,
}

impl KMeansResult {
    /// Euclidean distance from row `i` of `points` to its assigned centroid.
    pub fn distance_to_centroid(&self, points: &Matrix, i: usize) -> f64 {
        squared_euclidean(points.row(i), self.centroids.row(self.assignments[i])).sqrt()
    }

    /// Members of cluster `c`, in input order.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| (a == c).then_some(i))
            .collect()
    }

    /// All clusters' members in one pass over the assignments: entry `c`
    /// equals [`KMeansResult::members`]`(c)`. Call sites that iterate every
    /// cluster should use this instead of `k` separate O(n) scans.
    pub fn members_by_cluster(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.centroids.rows()];
        for (i, &a) in self.assignments.iter().enumerate() {
            groups[a].push(i);
        }
        groups
    }
}

/// Configuration for [`kmeans`].
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iter: usize,
    /// Convergence tolerance on total centroid movement.
    pub tol: f64,
    /// Hamerly bound pruning on the assignment step. `false` forces the
    /// plain full scan — the reference path the equivalence property tests
    /// compare against; results are identical either way.
    pub pruned: bool,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 8,
            max_iter: 100,
            tol: 1e-6,
            pruned: true,
        }
    }
}

/// Per-point Hamerly state: `upper` bounds the distance to the assigned
/// centroid from above, `lower` bounds the distance to every *other*
/// centroid from below. The per-iteration flags record how the point was
/// handled (for the pruning tally).
#[derive(Debug, Clone, Copy, Default)]
struct Bound {
    upper: f64,
    lower: f64,
    full: bool,
    tightened: bool,
}

/// One row's argmin over a D² row: winning cluster plus the two smallest
/// squared distances (ties break to the lowest cluster index).
#[derive(Debug, Clone, Copy)]
struct Assign {
    cluster: usize,
    best: f64,
    second: f64,
}

impl Default for Assign {
    fn default() -> Self {
        Assign {
            cluster: 0,
            best: f64::INFINITY,
            second: f64::INFINITY,
        }
    }
}

/// Multiplicative slack applied when advancing the Hamerly bounds, so float
/// rounding in the updates can only make the pruning *more* conservative.
const BOUND_SLACK: f64 = 1.0 + 1e-12;

/// Row-parallel argmin+second-min over a squared-distance matrix. Each
/// output slot is written by exactly one chunk.
fn argmin_rows(d2: &Matrix, out: &mut Vec<Assign>) {
    out.clear();
    out.resize(d2.rows(), Assign::default());
    crate::par::par_chunks_mut(out, 1, |start, chunk| {
        for (off, slot) in chunk.iter_mut().enumerate() {
            let row = d2.row(start + off);
            let mut a = Assign::default();
            for (j, &v) in row.iter().enumerate() {
                if v < a.best {
                    a.second = a.best;
                    a.best = v;
                    a.cluster = j;
                } else if v < a.second {
                    a.second = v;
                }
            }
            *slot = a;
        }
    });
}

/// Runs k-means++ initialization followed by Lloyd iterations.
///
/// `points` is an `n x d` matrix. If `n < k` the effective `k` is clamped to
/// `n`. Empty clusters are re-seeded with the point farthest from its
/// centroid, so the result always has non-degenerate assignments.
pub fn kmeans(points: &Matrix, cfg: &KMeansConfig, rng: &mut Rng) -> KMeansResult {
    let n = points.rows();
    let d = points.cols();
    assert!(n > 0, "kmeans: no points");
    let k = cfg.k.clamp(1, n);

    let mut centroids = plus_plus_init(points, k, rng);
    let mut assignments = vec![0usize; n];
    let mut iterations = 0;
    let mut inertia = f64::INFINITY;
    let mut pruned_total = 0u64;

    // Every buffer on the assignment path is hoisted out of the Lloyd loop
    // and reused across iterations; point norms never change, so they are
    // computed exactly once.
    let mut ws = Workspace::new();
    let mut pnorms = ws.take_vec(0);
    distance::row_norms_sq_into(points, &mut pnorms);
    let mut cnorms = ws.take_vec(0);
    let mut gnorms = ws.take_vec(0);
    let mut d2 = ws.take(0, 0);
    let mut gathered = ws.take(0, 0);
    let mut bounds: Vec<Bound> = vec![Bound::default(); n];
    let mut reassign: Vec<Assign> = Vec::new();
    let mut survivors: Vec<usize> = Vec::new();
    let mut move_c = vec![0.0f64; k];
    let mut old = vec![0.0f64; d];

    for it in 0..cfg.max_iter {
        iterations = it + 1;
        distance::row_norms_sq_into(&centroids, &mut cnorms);
        if it == 0 || !cfg.pruned {
            // Full scan: one blocked n x k D² and a row-parallel argmin.
            distance::pairwise_sq_with_norms_into(points, &centroids, &pnorms, &cnorms, &mut d2);
            argmin_rows(&d2, &mut reassign);
            for (i, a) in reassign.iter().enumerate() {
                assignments[i] = a.cluster;
                bounds[i].upper = a.best.sqrt();
                bounds[i].lower = a.second.sqrt();
            }
        } else {
            // Phase A (parallel): skip test, tightening the upper bound
            // with one fresh distance when the moved bounds overlap. The
            // tightened value is deliberately inflated (relative slack plus
            // an absolute `eps * norm-scale` term) so it stays a provable
            // upper bound on the kernel's distance even though the fast
            // eight-lane dot rounds differently than the GEMM chain — a
            // skip therefore still implies the assignment is optimal by a
            // strict margin, and pruned results stay exactly equal to the
            // unpruned scan.
            crate::par::par_chunks_mut(&mut bounds, 1, |start, chunk| {
                for (off, b) in chunk.iter_mut().enumerate() {
                    let i = start + off;
                    b.full = false;
                    b.tightened = false;
                    if b.upper < b.lower {
                        continue;
                    }
                    let c = assignments[i];
                    let g = distance::gram_sq(
                        pnorms[i],
                        cnorms[c],
                        distance::dot_unrolled(points.row(i), centroids.row(c)),
                    );
                    let sq = g * BOUND_SLACK + 1e-12 * (pnorms[i] + cnorms[c]);
                    b.upper = sq.sqrt();
                    b.tightened = true;
                    if b.upper >= b.lower {
                        b.full = true;
                    }
                }
            });
            // Phase B (sequential): collect the survivors in ascending
            // order and tally the evaluations the bounds saved.
            survivors.clear();
            let mut skipped = 0u64;
            for (i, b) in bounds.iter().enumerate() {
                if b.full {
                    survivors.push(i);
                } else {
                    skipped += k as u64 - u64::from(b.tightened);
                }
            }
            pruned_total += skipped;
            // Phases C/D: blocked D² over the gathered survivors only,
            // then scatter the new assignments and fresh bounds. Each D²
            // entry is bitwise identical to the corresponding full-scan
            // entry (the GEMM computes every output element as an
            // independent ascending chain), so pruning cannot change the
            // outcome.
            if !survivors.is_empty() {
                points.select_rows_into(&survivors, &mut gathered);
                gnorms.clear();
                gnorms.extend(survivors.iter().map(|&i| pnorms[i]));
                distance::pairwise_sq_with_norms_into(
                    &gathered, &centroids, &gnorms, &cnorms, &mut d2,
                );
                argmin_rows(&d2, &mut reassign);
                for (j, a) in reassign.iter().enumerate() {
                    let i = survivors[j];
                    assignments[i] = a.cluster;
                    bounds[i].upper = a.best.sqrt();
                    bounds[i].lower = a.second.sqrt();
                }
            }
        }
        // Accumulation step: per-chunk partial inertia/sums/counts, merged
        // in ascending chunk order so the float addition order is fixed.
        let (total_inertia, sums, counts) = crate::par::par_map_reduce(
            n,
            |range| {
                let mut inertia = 0.0;
                let mut sums: Matrix = Matrix::zeros(k, d);
                let mut counts = vec![0usize; k];
                for i in range {
                    let c = assignments[i];
                    // Gram-trick inertia: both the pruned and unpruned
                    // variants run this same expression, so their reported
                    // inertia stays bitwise equal.
                    inertia += distance::gram_sq(
                        pnorms[i],
                        cnorms[c],
                        distance::dot_unrolled(points.row(i), centroids.row(c)),
                    );
                    counts[c] += 1;
                    for (s, &p) in sums.row_mut(c).iter_mut().zip(points.row(i)) {
                        *s += p;
                    }
                }
                (inertia, sums, counts)
            },
            |(ia, mut sa, mut ca), (ib, sb, cb)| {
                for (a, b) in sa.data_mut().iter_mut().zip(sb.data()) {
                    *a += b;
                }
                for (a, b) in ca.iter_mut().zip(&cb) {
                    *a += b;
                }
                (ia + ib, sa, ca)
            },
        )
        .expect("kmeans: n > 0");
        inertia = total_inertia;
        let mut movement = 0.0;
        let mut max_move = 0.0f64;
        for c in 0..k {
            old.copy_from_slice(centroids.row(c));
            if counts[c] == 0 {
                // Re-seed an empty cluster with the worst-fitting point.
                let far = (0..n)
                    .max_by(|&a, &b| {
                        let da = squared_euclidean(points.row(a), centroids.row(assignments[a]));
                        let db = squared_euclidean(points.row(b), centroids.row(assignments[b]));
                        da.partial_cmp(&db).expect("kmeans: NaN distance")
                    })
                    .expect("kmeans: n > 0");
                centroids.set_row(c, points.row(far));
                movement += 1.0;
            } else {
                let inv = 1.0 / counts[c] as f64;
                for (cc, &s) in centroids.row_mut(c).iter_mut().zip(sums.row(c)) {
                    *cc = s * inv;
                }
                movement += squared_euclidean(&old, centroids.row(c)).sqrt();
            }
            // Actual displacement (also for re-seeds, whose convergence
            // contribution above stays the legacy constant): this is what
            // drives the bound updates.
            move_c[c] = squared_euclidean(&old, centroids.row(c)).sqrt();
            max_move = max_move.max(move_c[c]);
        }
        if movement <= cfg.tol {
            break;
        }
        if cfg.pruned {
            // Advance the bounds by this iteration's centroid movement
            // (triangle inequality). The multiplicative slack keeps both
            // bounds conservative under float rounding; a lower bound that
            // went negative can never trigger a skip, so it is left as is.
            for (i, b) in bounds.iter_mut().enumerate() {
                b.upper = (b.upper + move_c[assignments[i]]) * BOUND_SLACK;
                let lo = b.lower - max_move;
                b.lower = if lo > 0.0 { lo / BOUND_SLACK } else { lo };
            }
        }
    }

    ws.give_vec(pnorms);
    ws.give_vec(cnorms);
    ws.give_vec(gnorms);
    ws.give(d2);
    ws.give(gathered);
    gale_obs::counter_add!("kmeans.iters", iterations as u64);
    gale_obs::counter_add!("kmeans.pruned", pruned_total);

    KMeansResult {
        centroids,
        assignments,
        inertia,
        iterations,
        pruned: pruned_total,
    }
}

/// k-means++ seeding: the first centroid is uniform, subsequent centroids are
/// drawn proportionally to the squared distance from the nearest chosen one.
fn plus_plus_init(points: &Matrix, k: usize, rng: &mut Rng) -> Matrix {
    let n = points.rows();
    let mut centroids = Matrix::zeros(k, points.cols());
    let first = rng.below(n);
    centroids.set_row(0, points.row(first));

    // Seeding distances go through the blocked row kernel. A chosen centroid's self-pair cancels to
    // exactly zero — the kernel's norm and dot share one summation order —
    // so `weighted` can never re-draw an already-picked point.
    let pnorms = distance::row_norms_sq(points);
    let mut dist2 = vec![0.0f64; n];
    let c0 = centroids.row(0).to_vec();
    distance::sq_dists_to_row_into(points, &pnorms, &c0, pnorms[first], &mut dist2);
    let mut cand = vec![0.0f64; n];
    for c in 1..k {
        let total: f64 = dist2.iter().sum();
        let next = if total <= 0.0 {
            rng.below(n) // all points identical; any choice works
        } else {
            rng.weighted(&dist2)
        };
        centroids.set_row(c, points.row(next));
        let cr = centroids.row(c).to_vec();
        distance::sq_dists_to_row_into(points, &pnorms, &cr, pnorms[next], &mut cand);
        for (slot, &d) in dist2.iter_mut().zip(&cand) {
            if d < *slot {
                *slot = d;
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated blobs in 2D.
    fn blobs(rng: &mut Rng) -> (Matrix, Vec<usize>) {
        let centers = [(0.0, 0.0), (10.0, 10.0), (-10.0, 10.0)];
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for (ci, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..30 {
                rows.push(vec![cx + rng.gauss() * 0.5, cy + rng.gauss() * 0.5]);
                truth.push(ci);
            }
        }
        (Matrix::from_rows(&rows), truth)
    }

    #[test]
    fn recovers_separated_blobs() {
        let mut rng = Rng::seed_from_u64(101);
        let (points, truth) = blobs(&mut rng);
        let res = kmeans(
            &points,
            &KMeansConfig {
                k: 3,
                ..Default::default()
            },
            &mut rng,
        );
        // Each true blob maps to exactly one predicted cluster.
        for blob in 0..3 {
            let labels: Vec<usize> = truth
                .iter()
                .enumerate()
                .filter(|(_, &t)| t == blob)
                .map(|(i, _)| res.assignments[i])
                .collect();
            assert!(
                labels.windows(2).all(|w| w[0] == w[1]),
                "blob {blob} split across clusters"
            );
        }
        assert!(res.inertia < 100.0, "inertia {}", res.inertia);
    }

    #[test]
    fn k_clamped_to_n() {
        let mut rng = Rng::seed_from_u64(7);
        let points = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]);
        let res = kmeans(
            &points,
            &KMeansConfig {
                k: 10,
                ..Default::default()
            },
            &mut rng,
        );
        assert_eq!(res.centroids.rows(), 2);
        assert!(res.assignments.iter().all(|&a| a < 2));
    }

    #[test]
    fn identical_points_converge() {
        let mut rng = Rng::seed_from_u64(8);
        let points = Matrix::from_rows(&vec![vec![3.0, 3.0]; 10]);
        let res = kmeans(
            &points,
            &KMeansConfig {
                k: 3,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(res.inertia < 1e-18);
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut rng = Rng::seed_from_u64(55);
            let (points, _) = blobs(&mut rng);
            kmeans(
                &points,
                &KMeansConfig {
                    k: 3,
                    ..Default::default()
                },
                &mut rng,
            )
            .assignments
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn distance_to_centroid_consistent() {
        let mut rng = Rng::seed_from_u64(9);
        let (points, _) = blobs(&mut rng);
        let res = kmeans(
            &points,
            &KMeansConfig {
                k: 3,
                ..Default::default()
            },
            &mut rng,
        );
        let total: f64 = (0..points.rows())
            .map(|i| res.distance_to_centroid(&points, i).powi(2))
            .sum();
        assert!((total - res.inertia).abs() < 1e-9);
    }

    #[test]
    fn members_partition_inputs() {
        let mut rng = Rng::seed_from_u64(10);
        let (points, _) = blobs(&mut rng);
        let res = kmeans(
            &points,
            &KMeansConfig {
                k: 3,
                ..Default::default()
            },
            &mut rng,
        );
        let total: usize = (0..3).map(|c| res.members(c).len()).sum();
        assert_eq!(total, points.rows());
    }

    #[test]
    fn members_by_cluster_matches_members() {
        let mut rng = Rng::seed_from_u64(12);
        let (points, _) = blobs(&mut rng);
        let res = kmeans(
            &points,
            &KMeansConfig {
                k: 3,
                ..Default::default()
            },
            &mut rng,
        );
        let groups = res.members_by_cluster();
        assert_eq!(groups.len(), 3);
        for (c, g) in groups.iter().enumerate() {
            assert_eq!(g, &res.members(c));
        }
    }

    #[test]
    fn pruned_matches_unpruned_reference() {
        let mut data_rng = Rng::seed_from_u64(77);
        let points = Matrix::randn(250, 6, 1.0, &mut data_rng);
        let run = |pruned: bool| {
            let mut rng = Rng::seed_from_u64(13);
            kmeans(
                &points,
                &KMeansConfig {
                    k: 8,
                    max_iter: 40,
                    tol: 1e-8,
                    pruned,
                },
                &mut rng,
            )
        };
        let fast = run(true);
        let slow = run(false);
        assert_eq!(fast.assignments, slow.assignments);
        assert_eq!(fast.iterations, slow.iterations);
        assert_eq!(fast.inertia.to_bits(), slow.inertia.to_bits());
        for (a, b) in fast.centroids.data().iter().zip(slow.centroids.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(fast.pruned > 0, "bounds never skipped an evaluation");
        assert_eq!(slow.pruned, 0);
    }
}
