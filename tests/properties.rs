//! Property-based tests (proptest) on the core data structures and
//! algorithmic invariants.

use gale::prelude::*;
use gale::tensor::{kmeans, stats, KMeansConfig, Rng};
use proptest::prelude::*;

fn small_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..8, 1usize..8).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f64..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_involution(m in small_matrix()) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_transpose_identity(a in small_matrix(), seed in 0u64..1000) {
        // (A B)^T == B^T A^T for a compatible random B.
        let mut rng = Rng::seed_from_u64(seed);
        let b = Matrix::randn(a.cols(), 3, 1.0, &mut rng);
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        prop_assert!(left.approx_eq(&right, 1e-9));
    }

    #[test]
    fn softmax_rows_are_distributions(m in small_matrix()) {
        let s = m.softmax_rows();
        for r in 0..s.rows() {
            let sum: f64 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(s.row(r).iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn column_standardization_normalizes(m in small_matrix()) {
        prop_assume!(m.rows() >= 2);
        let mut m2 = m.clone();
        let (mean, std) = m2.column_stats();
        m2.standardize_columns(&mean, &std);
        let (mean2, _) = m2.column_stats();
        for m in &mean2 {
            prop_assert!(m.abs() < 1e-9);
        }
    }

    #[test]
    fn sparse_dense_matvec_agree(
        n in 2usize..10,
        edges in proptest::collection::vec((0usize..10, 0usize..10, -5.0f64..5.0), 0..30),
        seed in 0u64..1000,
    ) {
        let triplets: Vec<(usize, usize, f64)> = edges
            .into_iter()
            .map(|(r, c, v)| (r % n, c % n, v))
            .collect();
        let s = SparseMatrix::from_triplets(n, n, triplets);
        let mut rng = Rng::seed_from_u64(seed);
        let v: Vec<f64> = (0..n).map(|_| rng.gauss()).collect();
        // A one-column SpMM is the sparse matrix-vector product.
        let mut fast = Matrix::zeros(0, 0);
        gale::tensor::spmm_access_into(&s, &Matrix::from_vec(n, 1, v.clone()), &mut fast);
        let slow = s.to_dense().matvec(&v);
        for (a, b) in fast.data().iter().zip(&slow) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn rw_normalization_row_stochastic(
        n in 2usize..12,
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..40),
    ) {
        let triplets: Vec<(usize, usize, f64)> = edges
            .into_iter()
            .filter(|(a, b)| a % n != b % n)
            .flat_map(|(a, b)| [(a % n, b % n, 1.0), (b % n, a % n, 1.0)])
            .collect();
        let p = SparseMatrix::from_triplets(n, n, triplets).rw_normalized_with_self_loops();
        for r in 0..n {
            let sum: f64 = p.row_iter(r).map(|(_, v)| v).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn levenshtein_metric_properties(a in "[a-z]{0,8}", b in "[a-z]{0,8}", c in "[a-z]{0,8}") {
        use gale::tensor::distance::levenshtein;
        // Symmetry, identity, and the triangle inequality.
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        // Bounded by the longer string's length.
        prop_assert!(levenshtein(&a, &b) <= a.chars().count().max(b.chars().count()));
    }

    #[test]
    fn kmeans_assignments_valid(
        n in 4usize..30,
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let points = Matrix::randn(n, 3, 1.0, &mut rng);
        let res = kmeans(&points, &KMeansConfig { k, ..Default::default() }, &mut rng);
        prop_assert_eq!(res.assignments.len(), n);
        let kk = res.centroids.rows();
        prop_assert!(kk <= k.min(n).max(1));
        prop_assert!(res.assignments.iter().all(|&a| a < kk));
        prop_assert!(res.inertia >= 0.0);
        // Assigning each point to its *nearest* centroid is locally optimal.
        for i in 0..n {
            let d_assigned = res.distance_to_centroid(&points, i);
            for c in 0..kk {
                let d = gale::tensor::distance::euclidean(points.row(i), res.centroids.row(c));
                prop_assert!(d_assigned <= d + 1e-9);
            }
        }
    }

    #[test]
    fn prf_bounds_and_f1_mean(
        pred in proptest::collection::hash_set(0usize..30, 0..20),
        truth in proptest::collection::hash_set(0usize..30, 0..20),
    ) {
        let prf = Prf::from_sets(&pred, &truth);
        prop_assert!((0.0..=1.0).contains(&prf.precision));
        prop_assert!((0.0..=1.0).contains(&prf.recall));
        prop_assert!((0.0..=1.0).contains(&prf.f1));
        // F1 is bounded by both components' max and their arithmetic mean.
        prop_assert!(prf.f1 <= prf.precision.max(prf.recall) + 1e-12);
        prop_assert!(prf.f1 <= (prf.precision + prf.recall) / 2.0 + 1e-12);
    }

    #[test]
    fn entropy_nonnegative_and_bounded(
        probs in proptest::collection::vec(0.0f64..1.0, 1..6),
    ) {
        let h = stats::entropy(&probs);
        prop_assert!(h >= 0.0);
        prop_assert!(h <= (probs.len() as f64).ln() + 1e-9);
    }

    #[test]
    fn calibrated_predictions_are_threshold_monotone(
        scores in proptest::collection::vec(0.0f64..1.0, 2..50),
        val_errs in 0usize..5,
    ) {
        use gale::core::calibrated_predictions;
        // Build a small validation fold with the requested error count.
        let val: Vec<Example> = (0..10)
            .map(|i| Example {
                node: i % scores.len(),
                label: if i < val_errs { Label::Error } else { Label::Correct },
            })
            .collect();
        let preds = calibrated_predictions(&scores, &val);
        // Monotone in the score: no Correct node may outrank an Error node.
        let min_err = scores
            .iter()
            .zip(&preds)
            .filter(|(_, &l)| l == Label::Error)
            .map(|(s, _)| *s)
            .fold(f64::INFINITY, f64::min);
        let max_cor = scores
            .iter()
            .zip(&preds)
            .filter(|(_, &l)| l == Label::Correct)
            .map(|(s, _)| *s)
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(max_cor <= min_err || preds.iter().all(|&l| l == preds[0]));
    }

    #[test]
    fn data_split_partitions_any_size(
        n in 1usize..500,
        tf in 1usize..8,
        vf in 1usize..4,
        sf in 1usize..6,
        seed in 0u64..100,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let s = DataSplit::folds(n, tf, vf, sf, &mut rng);
        prop_assert_eq!(s.len(), n);
        let mut all: Vec<usize> = s
            .train
            .iter()
            .chain(&s.val)
            .chain(&s.test)
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len(), n, "splits overlap or drop nodes");
    }

    #[test]
    fn prevalence_threshold_within_score_range(
        scores in proptest::collection::vec(-5.0f64..5.0, 1..60),
        p in 0.0f64..1.0,
    ) {
        use gale::core::prevalence_threshold;
        let thr = prevalence_threshold(&scores, p);
        let (lo, hi) = stats::min_max(&scores);
        prop_assert!(thr >= lo - 1e-9 && thr <= hi + 1e-9);
        // Extremes behave: p=0 admits (almost) nothing beyond the max.
        let thr0 = prevalence_threshold(&scores, 0.0);
        prop_assert!((thr0 - hi).abs() < 1e-9);
    }

    #[test]
    fn quantile_monotone(xs in proptest::collection::vec(-100.0f64..100.0, 1..40)) {
        let q25 = stats::quantile(&xs, 0.25);
        let q50 = stats::quantile(&xs, 0.50);
        let q75 = stats::quantile(&xs, 0.75);
        prop_assert!(q25 <= q50 && q50 <= q75);
        let (lo, hi) = stats::min_max(&xs);
        prop_assert!(q25 >= lo && q75 <= hi);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn error_generator_rates_and_integrity(
        rate in 0.0f64..0.4,
        seed in 0u64..100,
    ) {
        let mut g = Graph::new();
        let mut rng = Rng::seed_from_u64(seed);
        for i in 0..300 {
            g.add_node_with(
                "t",
                &[
                    ("cat", AttrKind::Categorical, ["a", "b", "c"][i % 3].into()),
                    ("num", AttrKind::Numeric, (10.0 + rng.gauss()).into()),
                ],
            );
        }
        let clean = g.clone();
        let truth = inject_errors(
            &mut g,
            &[],
            &ErrorGenConfig {
                node_error_rate: rate,
                ..Default::default()
            },
            &mut rng,
        );
        // Rate conformance within binomial noise (4 sigma).
        let sigma = (300.0 * rate * (1.0 - rate)).sqrt();
        let expected = 300.0 * rate;
        prop_assert!(
            (truth.error_count() as f64 - expected).abs() <= 4.0 * sigma + 3.0,
            "count {} vs expected {expected}",
            truth.error_count()
        );
        // Every recorded error changed its value; every unrecorded node kept
        // all values intact.
        for e in &truth.errors {
            let now = g.node(e.node).get(e.attr).unwrap();
            prop_assert!(!now.semantically_eq(&e.original));
        }
        for v in 0..300 {
            if !truth.is_erroneous(v) {
                for (attr, value) in clean.node(v).attrs() {
                    prop_assert!(g.node(v).get(attr).unwrap().semantically_eq(value));
                }
            }
        }
    }

    #[test]
    fn ppr_rows_symmetric_on_random_graphs(
        n in 3usize..12,
        edges in proptest::collection::vec((0usize..12, 0usize..12), 1..30),
        a_seed in 0usize..12,
        b_seed in 0usize..12,
    ) {
        use gale::graph::{ppr_smooth_matrix, PropagationConfig};
        let triplets: Vec<(usize, usize, f64)> = edges
            .into_iter()
            .filter(|(a, b)| a % n != b % n)
            .flat_map(|(a, b)| [(a % n, b % n, 1.0), (b % n, a % n, 1.0)])
            .collect();
        let s = SparseMatrix::from_triplets(n, n, triplets).sym_normalized_with_self_loops();
        let cfg = PropagationConfig::default();
        let (a, b) = (a_seed % n, b_seed % n);
        // Rows a and b from one batch of two one-hot columns.
        let mut seeds = Matrix::zeros(n, 2);
        seeds[(a, 0)] = 1.0;
        seeds[(b, 1)] = 1.0;
        let p = ppr_smooth_matrix(&s, &seeds, &cfg);
        prop_assert!((p[(b, 0)] - p[(a, 1)]).abs() < 1e-9, "P not symmetric");
        prop_assert!(p.data().iter().all(|&x| x >= -1e-12));
    }
}
