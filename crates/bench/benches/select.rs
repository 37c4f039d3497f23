//! Criterion bench for the batched selection kernels: Hamerly-pruned
//! blocked k-means assignment and the QSelect fan-out, each against an
//! in-bench reproduction of the pre-kernel scalar path.
//!
//! Like `kernels.rs` this target has a custom `main`: after the groups run
//! it drains the shim's result registry, derives selection throughput
//! (k-means assignment rows/sec, qselect rounds/sec), and writes
//! `BENCH_select.json` at the repo root (override with
//! `GALE_BENCH_SELECT_OUT`). When a committed baseline is present and the
//! run is not in smoke mode, the optimized variants are gated on their
//! *intra-run speedup over the scalar reference*: dropping more than 15%
//! below the baseline's speedup for the same pair fails the process (skip
//! with `GALE_BENCH_NO_GATE=1`).

use criterion::{black_box, take_results, BenchmarkId, Criterion};
use gale_core::{qselect, MemoCache};
use gale_json::{json, Value};
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

/// Runs the k-means group and returns the measured Lloyd iteration count
/// per size (both variants follow the same trajectory from the same seed,
/// so one probe run is representative; a divergence is printed, not
/// fatal).
fn bench_kmeans_assign(c: &mut Criterion) -> std::collections::HashMap<usize, f64> {
    let mut iters_by_size = std::collections::HashMap::new();
    let mut group = c.benchmark_group("kmeans_assign");
    group.sample_size(10);
    for &n in &SIZES {
        let points = blob_points(n, n as u64);
        let cfg = KMeansConfig {
            k: KMEANS_K,
            max_iter: KMEANS_ITERS,
            tol: 0.0,
            pruned: true,
        };
        let mut probe_rng = Rng::seed_from_u64(17);
        let probe = kmeans(&points, &cfg, &mut probe_rng);
        let mut probe_rng = Rng::seed_from_u64(17);
        let (_, _, naive_iters) = naive_kmeans(&points, KMEANS_K, KMEANS_ITERS, &mut probe_rng);
        if probe.iterations != naive_iters {
            println!(
                "note: kmeans_assign/{n}: pruned converged in {} iters, scalar in {naive_iters}",
                probe.iterations
            );
        }
        iters_by_size.insert(n, probe.iterations as f64);
        group.bench_with_input(BenchmarkId::new("scalar", n), &n, |be, _| {
            be.iter(|| {
                let mut seed_rng = Rng::seed_from_u64(17);
                black_box(naive_kmeans(&points, KMEANS_K, KMEANS_ITERS, &mut seed_rng))
            });
        });
        group.bench_with_input(BenchmarkId::new("pruned", n), &n, |be, _| {
            be.iter(|| {
                let mut seed_rng = Rng::seed_from_u64(17);
                black_box(kmeans(&points, &cfg, &mut seed_rng))
            });
        });
    }
    group.finish();
    iters_by_size
}

fn bench_qselect(c: &mut Criterion) {
    let mut group = c.benchmark_group("qselect");
    group.sample_size(10);
    for &n in &SIZES {
        let mut rng = Rng::seed_from_u64(100 + n as u64);
        let h = Matrix::randn(n, DIM, 1.0, &mut rng);
        let unlabeled: Vec<usize> = (0..n).collect();
        let typ: Vec<f64> = (0..n).map(|_| rng.f64()).collect();
        group.bench_with_input(BenchmarkId::new("scalar", n), &n, |be, _| {
            be.iter(|| black_box(naive_qselect(&h, &unlabeled, &typ, QSELECT_ROUNDS, 0.7)));
        });
        group.bench_with_input(BenchmarkId::new("batched", n), &n, |be, _| {
            be.iter(|| {
                let mut memo = MemoCache::new(false, 1e-9);
                black_box(qselect(
                    &h,
                    &unlabeled,
                    &typ,
                    QSELECT_ROUNDS,
                    0.7,
                    &mut memo,
                ))
            });
        });
        group.bench_with_input(BenchmarkId::new("batched_memo", n), &n, |be, _| {
            be.iter(|| {
                let mut memo = MemoCache::new(true, 1e-9);
                memo.update_embeddings(&h);
                black_box(qselect(
                    &h,
                    &unlabeled,
                    &typ,
                    QSELECT_ROUNDS,
                    0.7,
                    &mut memo,
                ))
            });
        });
    }
    group.finish();
}

/// Throughput derivation per benchmark id: `(field, value-per-second)`.
/// K-means rows/sec uses the measured Lloyd iteration count (the runs
/// converge well before the iteration budget on clustered data).
fn throughput_for(
    name: &str,
    mean_s: f64,
    kmeans_iters: &std::collections::HashMap<usize, f64>,
) -> Option<(&'static str, f64)> {
    let mut parts = name.split('/');
    let group = parts.next()?;
    let _variant = parts.next()?;
    let n: f64 = parts.next()?.parse().ok()?;
    match group {
        "kmeans_assign" => {
            let iters = kmeans_iters
                .get(&(n as usize))
                .copied()
                .unwrap_or(KMEANS_ITERS as f64);
            Some(("assign_rows_per_s", n * iters / mean_s))
        }
        "qselect" => Some(("rounds_per_s", QSELECT_ROUNDS as f64 / mean_s)),
        _ => None,
    }
}

use gale_bench::paths::{repo_path, report_path};

fn main() {
    let _ = std::env::args();
    let mut criterion = Criterion::default();
    let kmeans_iters = bench_kmeans_assign(&mut criterion);
    bench_qselect(&mut criterion);
    criterion.final_summary();
    // Custom main bypasses criterion_main!, so flush bench traces here.
    criterion::flush_telemetry();

    let out_path = report_path("GALE_BENCH_SELECT_OUT", "BENCH_select.json");
    // The baseline is whatever report was committed at the same path
    // (override with GALE_BENCH_SELECT_BASELINE); read it before
    // overwriting.
    let baseline_path = std::env::var("GALE_BENCH_SELECT_BASELINE")
        .map(|p| repo_path(p.into()))
        .unwrap_or_else(|_| out_path.clone());
    let baseline = std::fs::read_to_string(&baseline_path)
        .ok()
        .and_then(|text| gale_json::from_str(&text).ok());

    let results = take_results();
    let mut entries = Vec::new();
    for r in &results {
        let mut entry = json!({
            "name": r.name.clone(),
            "mean_s": r.mean_s,
            "min_s": r.min_s,
            "max_s": r.max_s,
            "samples": r.samples as f64,
            "iters": r.iters as f64,
        });
        if let (Some((field, v)), Value::Object(map)) =
            (throughput_for(&r.name, r.mean_s, &kmeans_iters), &mut entry)
        {
            map.insert(field.to_string(), Value::from(v));
        }
        entries.push(entry);
    }
    // Derived speedups: optimized variant vs the scalar reference at the
    // same size (`group/variant/size` -> scalar_mean / variant_mean).
    let mean_of = |name: &str| results.iter().find(|r| r.name == name).map(|r| r.mean_s);
    let mut speedups = gale_json::Map::new();
    for r in &results {
        let mut parts = r.name.split('/');
        let (Some(group), Some(variant), Some(size)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        if variant == "scalar" {
            continue;
        }
        if let Some(scalar_mean) = mean_of(&format!("{group}/scalar/{size}")) {
            speedups.insert(
                format!("{group}/{variant}/{size}"),
                Value::from(scalar_mean / r.mean_s),
            );
        }
    }
    // Snapshot the gated speedups before the map moves into the report.
    // `batched_memo` is deliberately ungated: it differs from `batched` only
    // by the cached row norms, whose benefit across AL iterations this
    // single-shot bench cannot see and nobody has measured yet (ROADMAP
    // item 4 keeps the on/off A/B of the memo open).
    let gated: Vec<(String, f64)> = speedups
        .iter()
        .filter(|(key, _)| {
            key.starts_with("kmeans_assign/pruned/") || key.starts_with("qselect/batched/")
        })
        .filter_map(|(key, v)| v.as_f64().map(|s| (key.clone(), s)))
        .collect();
    let report = json!({
        "schema": "gale-bench-select/v1",
        "threads": gale_tensor::par::max_threads() as f64,
        "smoke": criterion::smoke_mode(),
        "entries": entries,
        "speedups": Value::Object(speedups),
    });
    std::fs::write(&out_path, gale_json::to_string_pretty(&report))
        .unwrap_or_else(|e| panic!("writing {}: {e}", out_path.display()));
    println!("select bench report written to {}", out_path.display());

    // Regression gate: each optimized selection variant's speedup over the
    // scalar reference *measured in the same run* may not drop more than
    // 15% below the committed baseline's speedup for the same pair.
    // Intra-run ratios transfer across machines — a CI runner and the box
    // that produced the baseline disagree wildly on absolute seconds but
    // agree on whether the batched path still beats the scalar one. Smoke
    // runs measure one iteration and are too noisy to gate on.
    if criterion::smoke_mode() || std::env::var("GALE_BENCH_NO_GATE").is_ok_and(|v| v == "1") {
        return;
    }
    let Some(baseline) = baseline else {
        println!(
            "no baseline at {}; skipping the regression gate",
            baseline_path.display()
        );
        return;
    };
    if baseline.get("smoke").and_then(|v| v.as_bool()) == Some(true) {
        println!("baseline is a smoke run; skipping the regression gate");
        return;
    }
    let Some(base_speedups) = baseline.get("speedups").and_then(|v| v.as_object()) else {
        println!("baseline has no speedups map; skipping the regression gate");
        return;
    };
    let mut failures = Vec::new();
    for (key, current) in &gated {
        let Some(base) = base_speedups.get(key).and_then(|v| v.as_f64()) else {
            continue;
        };
        // A pair whose baseline speedup is ~1x carries no optimization win
        // to protect; gating it would only flag measurement noise.
        if base < 1.2 {
            continue;
        }
        if *current < base * 0.85 {
            failures.push(format!(
                "{key}: speedup {base:.2}x -> {current:.2}x ({:.0}% of baseline)",
                current / base * 100.0
            ));
        }
    }
    if !failures.is_empty() {
        eprintln!(
            "selection speedup regressed >15% vs {}:",
            baseline_path.display()
        );
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("regression gate passed vs {}", baseline_path.display());
}
