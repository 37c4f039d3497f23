//! Scale bench: streamed SBM generation → out-of-core GALE at
//! n = 10k / 100k / 1M nodes (10 edges per node).
//!
//! Unlike the criterion targets this bench times whole pipeline legs with
//! manual clocks — a single 1M-node run is the unit of measurement, not
//! something to re-run for statistics. Legs run in ascending footprint
//! order because Linux's `VmHWM` (the peak-RSS probe) is a process-lifetime
//! high-water mark: a leg's reading attributes memory only if nothing
//! bigger ran before it.
//!
//! Profiles (`GALE_BENCH_SCALE_PROFILE`, default `ci`; `GALE_BENCH_SMOKE=1`
//! forces `smoke`):
//!
//! * `smoke` — one tiny 2k-node leg, sub-second;
//! * `ci`    — 10k + 100k legs (what CI's scale leg runs);
//! * `full`  — 10k + 100k + 1M: regenerates the committed `BENCH_scale.json`.
//!
//! The report (see `gale_bench::report`) gates these speedups against the
//! committed one — ratios measured in one run transfer across machines,
//! absolute seconds do not:
//!
//! * `scale_gae_epoch/sampled_vs_full/10000` — a sampled mini-batch epoch
//!   vs a legacy full-graph epoch at 10k;
//! * `scale_gae_epoch/linear_scaling/100000_vs_10000` — 10× the 10k epoch
//!   time over the 100k epoch time. Sampled epochs cost
//!   `O(batches · fanout²)`, not `O(n)`, so this ratio sits near the size
//!   factor; regressing toward 1 means epoch cost started scaling with n;
//! * `scale_rss/headroom/<n>` — the 4 GiB ceiling over the leg's peak RSS.
//!
//! On full runs every pipeline leg's peak RSS must also sit under the
//! 4 GiB ceiling outright (an invariant): the out-of-core contract.

use gale_bench::report::{Limit, Report, Rule};
use gale_core::{run_gale_scale, ScaleGaleConfig, SganConfig};
use gale_data::{generate_scale, ScaleGraph, ScaleSpec};
use gale_graph::{CsrStore, PropagationConfig};
use gale_nn::{Gae, GaeConfig, MiniBatchConfig};
use gale_tensor::{Rng, SparseMatrix, SymNormalized};
use std::time::Instant;

const RSS_CEILING_BYTES: f64 = 4.0 * 1024.0 * 1024.0 * 1024.0;
const EDGES_PER_NODE: usize = 10;
const TIMING_EPOCHS: usize = 3;
const SEED: u64 = 0x5ca1eb;

fn profile() -> &'static str {
    if gale_bench::report::smoke() {
        return "smoke";
    }
    match std::env::var("GALE_BENCH_SCALE_PROFILE").as_deref() {
        Ok("full") => "full",
        Ok("smoke") => "smoke",
        _ => "ci",
    }
}

fn leg_sizes() -> Vec<usize> {
    match profile() {
        "smoke" => vec![2_000],
        "full" => vec![10_000, 100_000, 1_000_000],
        _ => vec![10_000, 100_000],
    }
}

/// Shared GAE shape for the epoch timings and the pipeline legs. The
/// sampled schedule is size-independent by design: that independence is
/// exactly what the `linear_scaling` gate measures.
fn gae_cfg(epochs: usize) -> GaeConfig {
    GaeConfig {
        hidden_dim: 32,
        embed_dim: 16,
        epochs,
        ..Default::default()
    }
}

fn minibatch_cfg(nodes: usize) -> MiniBatchConfig {
    MiniBatchConfig {
        fanouts: vec![10, 10],
        edge_batch: if nodes <= 2_000 { 128 } else { 512 },
        batches_per_epoch: if nodes <= 2_000 { 4 } else { 16 },
        seed: SEED,
    }
}

fn pipeline_cfg(nodes: usize) -> ScaleGaleConfig {
    let tiny = nodes <= 2_000;
    ScaleGaleConfig {
        gae: gae_cfg(if tiny { 2 } else { 3 }),
        minibatch: minibatch_cfg(nodes),
        sgan: SganConfig {
            d_hidden: vec![24, 12],
            g_hidden: vec![24],
            epochs: if tiny { 10 } else { 40 },
            incremental_epochs: if tiny { 4 } else { 8 },
            batch_unsup: 256,
            early_stop_patience: 0,
            ..Default::default()
        },
        local_budget: 16,
        iterations: if tiny { 2 } else { 3 },
        candidate_pool: 4096,
        eval_chunk: 8192,
        synthetic_rows: 2048,
        propagation: PropagationConfig {
            iterations: 10,
            ..Default::default()
        },
        seed: SEED,
        ..Default::default()
    }
}

/// Materializes a mapped store as an in-memory `SparseMatrix` — the input
/// of the legacy full-graph reference path (small legs only).
fn sparse_from_store(store: &CsrStore) -> SparseMatrix {
    let mut triplets = Vec::with_capacity(store.nnz());
    for r in 0..store.rows() {
        let (cols, vals) = store.row(r);
        for (c, v) in cols.iter().zip(vals) {
            triplets.push((r, *c as usize, *v));
        }
    }
    SparseMatrix::from_triplets(store.rows(), store.cols(), triplets)
}

struct LegResult {
    nodes: usize,
    sampled_epoch_s: f64,
    full_epoch_s: Option<f64>,
    peak_rss_bytes: u64,
}

fn run_leg(report: &mut Report, nodes: usize, with_full_ref: bool) -> std::io::Result<LegResult> {
    let edges = nodes * EDGES_PER_NODE;
    let dir = std::env::temp_dir().join(format!("gale-scale-bench-{}-{nodes}", std::process::id()));
    let mut entry = |name: String, unit: &str, value: f64| report.entry(name, unit, value, 1, 0.0);

    // 1. Streamed generation straight to the on-disk CSR format.
    let t0 = Instant::now();
    let spec = ScaleSpec::sized(nodes, edges, SEED);
    let g: ScaleGraph = generate_scale(&spec, &dir)?;
    let gen_s = t0.elapsed().as_secs_f64();
    println!("scale/{nodes}: generated {edges} edges in {gen_s:.2}s");
    entry(format!("scale_generate/stream/{nodes}"), "s", gen_s);

    // 2. Sampled mini-batch GAE epoch time over the mapped store.
    let s = SymNormalized::new(&g.adjacency);
    let t0 = Instant::now();
    let _ = Gae::train_sampled(
        &g.features,
        &g.adjacency,
        &s,
        &gae_cfg(TIMING_EPOCHS),
        &minibatch_cfg(nodes),
        &mut Rng::seed_from_u64(SEED),
    );
    let sampled_epoch_s = t0.elapsed().as_secs_f64() / TIMING_EPOCHS as f64;
    entry(
        format!("scale_gae_epoch/sampled/{nodes}"),
        "s",
        sampled_epoch_s,
    );

    // 2b. Legacy full-graph epoch reference (small legs only: it holds the
    // dense n×hidden activations the sampled path exists to avoid).
    let full_epoch_s = if with_full_ref {
        let a = sparse_from_store(&g.adjacency);
        let s_norm = a.sym_normalized_with_self_loops();
        let t0 = Instant::now();
        let _ = Gae::train(
            &g.features,
            &a,
            &s_norm,
            &gae_cfg(TIMING_EPOCHS),
            &mut Rng::seed_from_u64(SEED),
        );
        let full = t0.elapsed().as_secs_f64() / TIMING_EPOCHS as f64;
        entry(format!("scale_gae_epoch/full/{nodes}"), "s", full);
        Some(full)
    } else {
        None
    };

    // 3. The end-to-end out-of-core loop: train → select → annotate.
    let t0 = Instant::now();
    let out = run_gale_scale(&g.adjacency, &g.features, &g.truth, &pipeline_cfg(nodes));
    let pipeline_s = t0.elapsed().as_secs_f64();
    let prf = out.prf_against(&g.truth);
    println!(
        "scale/{nodes}: pipeline {pipeline_s:.2}s, peak RSS {:.0} MiB, F1 {:.3}",
        out.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        prf.f1
    );
    let leg = format!("scale_pipeline/out_of_core/{nodes}");
    entry(leg.clone(), "s", pipeline_s);
    entry(format!("{leg}/train"), "s", out.train_time.as_secs_f64());
    entry(format!("{leg}/select"), "s", out.select_time.as_secs_f64());
    entry(
        format!("{leg}/annotate"),
        "s",
        out.annotate_time.as_secs_f64(),
    );
    entry(format!("{leg}/queries"), "count", out.queries_issued as f64);
    entry(format!("{leg}/f1"), "ratio", prf.f1);
    entry(
        format!("{leg}/peak_rss"),
        "bytes",
        out.peak_rss_bytes as f64,
    );

    let peak = out.peak_rss_bytes;
    drop(out);
    drop(g);
    std::fs::remove_dir_all(&dir).ok();
    Ok(LegResult {
        nodes,
        sampled_epoch_s,
        full_epoch_s,
        peak_rss_bytes: peak,
    })
}

fn main() {
    let sizes = leg_sizes();
    let mut report = Report::new("scale");
    report.entry(
        format!("profile/{}", profile()),
        "legs",
        sizes.len() as f64,
        1,
        0.0,
    );
    let mut legs: Vec<LegResult> = Vec::new();
    for &nodes in &sizes {
        // The full-graph reference only runs on the smallest leg: at 100k+
        // it would dominate wall-clock and drag the RSS high-water mark
        // above what the out-of-core path actually uses.
        let leg = run_leg(&mut report, nodes, nodes == sizes[0])
            .unwrap_or_else(|e| panic!("scale leg {nodes} failed: {e}"));
        legs.push(leg);
    }

    for leg in &legs {
        if let Some(full) = leg.full_epoch_s {
            report.ratio(
                format!("scale_gae_epoch/sampled_vs_full/{}", leg.nodes),
                Rule::Speedup,
                full / leg.sampled_epoch_s,
            );
        }
    }
    for pair in legs.windows(2) {
        let (small, big) = (&pair[0], &pair[1]);
        let factor = big.nodes as f64 / small.nodes as f64;
        report.ratio(
            format!(
                "scale_gae_epoch/linear_scaling/{}_vs_{}",
                big.nodes, small.nodes
            ),
            Rule::Speedup,
            factor * small.sampled_epoch_s / big.sampled_epoch_s,
        );
    }
    // `peak_rss_bytes == 0` means no procfs (not Linux): nothing was
    // measured, so there is no headroom ratio, and 0 holds the ceiling.
    for leg in &legs {
        let peak = leg.peak_rss_bytes as f64;
        if peak > 0.0 {
            report.ratio(
                format!("scale_rss/headroom/{}", leg.nodes),
                Rule::Speedup,
                RSS_CEILING_BYTES / peak,
            );
        }
        report.invariant(
            format!("scale_pipeline/out_of_core/{}/peak_rss", leg.nodes),
            peak,
            Limit::Below(RSS_CEILING_BYTES),
        );
    }
    report.finish_or_exit();
}
