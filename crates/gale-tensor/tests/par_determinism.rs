//! The `par` runtime's determinism contract: every parallel kernel must
//! produce bitwise-identical results at any thread count (1, 2, 8).

use gale_tensor::distance::pairwise_euclidean;
use gale_tensor::par::{self, with_threads};
use gale_tensor::{kmeans, KMeansConfig, Matrix, Rng};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn bits(data: &[f64]) -> Vec<u64> {
    data.iter().map(|f| f.to_bits()).collect()
}

#[test]
fn matmul_identical_across_thread_counts() {
    let mut rng = Rng::seed_from_u64(42);
    let a = Matrix::randn(173, 64, 1.0, &mut rng);
    let b = Matrix::randn(64, 91, 1.0, &mut rng);
    let baseline = with_threads(1, || {
        (
            a.matmul(&b),
            a.matmul_tn(&a.matmul(&b)),
            a.matmul_nt(&Matrix::randn(57, 64, 1.0, &mut Rng::seed_from_u64(7))),
        )
    });
    for t in THREAD_COUNTS {
        let got = with_threads(t, || {
            (
                a.matmul(&b),
                a.matmul_tn(&a.matmul(&b)),
                a.matmul_nt(&Matrix::randn(57, 64, 1.0, &mut Rng::seed_from_u64(7))),
            )
        });
        assert_eq!(
            bits(got.0.data()),
            bits(baseline.0.data()),
            "matmul, {t} threads"
        );
        assert_eq!(
            bits(got.1.data()),
            bits(baseline.1.data()),
            "matmul_tn, {t} threads"
        );
        assert_eq!(
            bits(got.2.data()),
            bits(baseline.2.data()),
            "matmul_nt, {t} threads"
        );
    }
}

#[test]
fn kmeans_identical_across_thread_counts() {
    let run = |threads: usize| {
        with_threads(threads, || {
            let mut rng = Rng::seed_from_u64(99);
            let points = Matrix::randn(600, 8, 1.0, &mut rng);
            kmeans(
                &points,
                &KMeansConfig {
                    k: 12,
                    ..Default::default()
                },
                &mut rng,
            )
        })
    };
    let baseline = run(1);
    for t in THREAD_COUNTS {
        let got = run(t);
        assert_eq!(got.assignments, baseline.assignments, "{t} threads");
        assert_eq!(
            bits(got.centroids.data()),
            bits(baseline.centroids.data()),
            "{t} threads"
        );
        assert_eq!(
            got.inertia.to_bits(),
            baseline.inertia.to_bits(),
            "{t} threads"
        );
        assert_eq!(got.iterations, baseline.iterations, "{t} threads");
    }
}

#[test]
fn pairwise_distance_identical_across_thread_counts() {
    let mut rng = Rng::seed_from_u64(5);
    let points = Matrix::randn(300, 16, 1.0, &mut rng);
    let baseline = with_threads(1, || pairwise_euclidean(&points));
    for t in THREAD_COUNTS {
        let got = with_threads(t, || pairwise_euclidean(&points));
        assert_eq!(
            bits(got.data()),
            bits(baseline.data()),
            "pairwise, {t} threads"
        );
    }
}

#[test]
fn telemetry_does_not_change_kernel_output() {
    // Instrumentation must be observation-only: enabling gale-obs cannot
    // perturb a single bit of any parallel kernel's output.
    let kernels = || {
        let mut rng = Rng::seed_from_u64(2024);
        let a = Matrix::randn(120, 48, 1.0, &mut rng);
        let b = Matrix::randn(48, 60, 1.0, &mut rng);
        let points = Matrix::randn(400, 8, 1.0, &mut rng);
        let mut km_rng = Rng::seed_from_u64(11);
        let km = kmeans(
            &points,
            &KMeansConfig {
                k: 9,
                ..Default::default()
            },
            &mut km_rng,
        );
        (a.matmul(&b), pairwise_euclidean(&points), km)
    };

    gale_obs::set_enabled(false);
    let off = with_threads(8, kernels);

    gale_obs::set_enabled(true);
    let trace = gale_obs::trace::capture_to_memory();
    let on = with_threads(8, kernels);
    gale_obs::set_enabled(false);

    assert_eq!(bits(on.0.data()), bits(off.0.data()), "matmul");
    assert_eq!(bits(on.1.data()), bits(off.1.data()), "pairwise");
    assert_eq!(on.2.assignments, off.2.assignments, "kmeans assignments");
    assert_eq!(
        bits(on.2.centroids.data()),
        bits(off.2.centroids.data()),
        "kmeans centroids"
    );
    assert_eq!(on.2.inertia.to_bits(), off.2.inertia.to_bits(), "inertia");

    // The instrumented run actually recorded pool telemetry.
    assert!(gale_obs::metrics::counter("par.chunks").get() > 0);
    drop(trace);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn par_map_reduce_deterministic(
        n in 1usize..5000,
        seed in 0u64..1000,
        threads in 2usize..9,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n).map(|_| rng.gauss()).collect();
        let sum_under = |t: usize| {
            with_threads(t, || {
                par::par_map_reduce(
                    n,
                    |r| r.map(|i| data[i] * data[i]).sum::<f64>(),
                    |a, b| a + b,
                )
                .unwrap()
            })
        };
        let sequential = sum_under(1);
        let parallel = sum_under(threads);
        prop_assert_eq!(parallel.to_bits(), sequential.to_bits());
    }
}
