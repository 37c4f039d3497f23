//! Criterion bench: personalized-PageRank power iteration — the propagation
//! primitive behind topological typicality and annotation. Both cases are
//! one-column calls of the one body, `ppr_smooth_matrix`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gale_data::{generate, DatasetId};
use gale_graph::{ppr_smooth_matrix, PropagationConfig};
use gale_tensor::{Matrix, Rng};
use std::hint::black_box;

fn bench_ppr(c: &mut Criterion) {
    let mut group = c.benchmark_group("ppr");
    for &scale in &[0.05f64, 0.2] {
        let gen = generate(
            &DatasetId::DataMining.spec(scale),
            &mut Rng::seed_from_u64(3),
        );
        let s = gen.graph.adjacency().sym_normalized_with_self_loops();
        let n = gen.graph.node_count();
        let cfg = PropagationConfig::default();
        let mut seed = Matrix::zeros(n, 1);
        seed[(7, 0)] = 1.0;
        group.bench_with_input(BenchmarkId::new("single_seed", n), &n, |b, _| {
            b.iter(|| black_box(ppr_smooth_matrix(&s, &seed, &cfg)));
        });
        let dense_vec = Matrix::from_fn(n, 1, |i, _| (i % 5) as f64 / 5.0);
        group.bench_with_input(BenchmarkId::new("smooth_vector", n), &n, |b, _| {
            b.iter(|| black_box(ppr_smooth_matrix(&s, &dense_vec, &cfg)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ppr);
criterion_main!(benches);
