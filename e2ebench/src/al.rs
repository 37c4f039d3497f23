//! The two active-learning workloads: `al_loop` (`run_gale` on the Species
//! analogue, in memory) and `al_scale` (`run_gale_scale` over a
//! memory-mapped 300k-node store).
//!
//! An untraced run makes one loop call on each of a few sub-scenarios
//! seeded from `--seed` (as many as fit in `--seconds` at the workload's
//! nominal call time) and reports medians over them, so one run averages
//! over inputs as well as over machine noise. Every call runs on one
//! thread, and its CPU time is scaled to the machine's nominal speed by a
//! reference unit timed between calls (see `reference.rs`).
//!
//! A traced run makes one untraced call and one call with gale-obs
//! telemetry on (their scores must agree bit for bit), reads the stage
//! durations the loop already returns, reads the kernel counters of the
//! traced call, and times the layers the loop hides with standalone calls
//! into the same public functions on the same inputs and seed.

use crate::metrics::{bits_equal, cpu_seconds, median, peak_rss_mb, Run};
use crate::{reference, Ctx};
use gale_bench::harness::{gale_config, paper_budget, Knobs, Method, PreparedScenario, Scenario};
use gale_core::{
    g_augment, run_gale, run_gale_scale, GaleConfig, GaleOutcome, GroundTruthOracle,
    ScaleGaleConfig, ScaleOutcome, Sgan, SganConfig,
};
use gale_data::{generate_scale, DatasetId, ScaleGraph, ScaleSpec};
use gale_detect::DetectorLibrary;
use gale_graph::{ppr_smooth_access, soft_labels, PropagationConfig};
use gale_nn::{Gae, GaeConfig, MiniBatchConfig};
use gale_tensor::{Matrix, Rng, SymNormalized};
use std::time::Instant;

/// `al_loop` runs the Species analogue at this scale (7,080 nodes).
const LOOP_SCALE: f64 = 0.4;
/// Set-up repetitions per sub-scenario; `setup_s` is the median over all.
const LOOP_SETUP_REPS: usize = 5;
const SCALE_SETUP_REPS: usize = 2;
/// Nominal wall time of one loop call on one thread; a run makes
/// `round(seconds / nominal)` calls, at least one.
const LOOP_NOMINAL_S: f64 = 9.0;
const SCALE_NOMINAL_S: f64 = 24.0;
/// `al_scale` graph size: 300k nodes, 10 edge draws per node.
const SCALE_NODES: usize = 300_000;
const SCALE_EDGES: usize = 3_000_000;
/// F1 floors per loop call, under the seed-to-seed range measured on the
/// workload, so only a real quality loss trips them. F1 is a correctness
/// check, not an end-to-end metric: at 48 queries over 300k nodes the
/// out-of-core loop's F1 spans 0.11-0.20 from seed to seed.
const LOOP_F1_FLOOR: f64 = 0.3;
const SCALE_F1_FLOOR: f64 = 0.07;
/// Floor on the median F1 over an untraced `al_loop` run's sub-scenarios
/// (measured medians: 0.49-0.53).
const LOOP_F1_MEDIAN_FLOOR: f64 = 0.42;

/// Threads an AL call runs on. One: on the shared 2-vCPU machine the
/// benchmark was built on, two threads at once each ran an in-cache
/// matrix product two to three times slower than one alone, by an amount
/// that moved from run to run, so a second thread shortens an `al_loop`
/// call by only about a fifth while making its CPU time far less steady.
/// One thread is also what the reference unit measures the machine with.
pub const AL_THREADS: usize = 1;

fn secs(d: std::time::Duration) -> f64 {
    d.as_secs_f64()
}

/// Runs `f`, returning its wall seconds, the CPU seconds this process
/// spent meanwhile (user + system), and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, f64, T) {
    let pid = std::process::id();
    let cpu = cpu_seconds(pid);
    let t = Instant::now();
    let out = f();
    (secs(t.elapsed()), cpu_seconds(pid) - cpu, out)
}

/// Loop calls per untraced run.
fn calls(seconds: f64, nominal: f64) -> usize {
    ((seconds / nominal).round() as usize).max(1)
}

/// Seed of sub-scenario `i` of a run.
fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(i as u64)
}

fn mib(bytes: f64) -> f64 {
    bytes / (1024.0 * 1024.0)
}

/// Kernel and cache counters of gale-obs, read after a traced call.
struct Counters(Vec<(String, f64)>);

impl Counters {
    fn read() -> Counters {
        use gale_obs::metrics::MetricSnapshot;
        Counters(
            gale_obs::metrics::snapshot()
                .into_iter()
                .filter_map(|(name, snap)| match snap {
                    MetricSnapshot::Counter(c) => Some((name, c as f64)),
                    _ => None,
                })
                .collect(),
        )
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The `tensor.*` layer metrics, identical for both AL workloads.
    fn tensor_layers(&self, run: &mut Run) {
        run.layer(
            "tensor.gemm_gflop",
            self.get("kernel.gemm.flops") / 1e9,
            1,
            "kernel.gemm.flops",
        );
        run.layer(
            "tensor.spmm_gflop",
            self.get("kernel.spmm.flops") / 1e9,
            1,
            "kernel.spmm.flops",
        );
        run.layer(
            "tensor.pairwise_gflop",
            self.get("kernel.pairwise.flops") / 1e9,
            1,
            "kernel.pairwise.flops",
        );
        run.layer(
            "tensor.kmeans_pruned",
            self.get("kmeans.pruned"),
            1,
            "distance evaluations skipped",
        );
        let (hits, misses) = (self.get("workspace.hits"), self.get("workspace.misses"));
        let takes = hits + misses;
        run.layer(
            "tensor.workspace_hit_rate",
            if takes > 0.0 { hits / takes } else { 0.0 },
            takes as usize,
            "base: tensor.workspace_takes",
        );
        run.layer(
            "tensor.workspace_takes",
            takes,
            1,
            "workspace hits + misses",
        );
        run.layer(
            "tensor.par_busy_s",
            (self.get("par.busy_us") + self.get("par.caller.busy_us")) / 1e6,
            1,
            "worker + caller busy time",
        );
    }
}

/// Turns telemetry on with its trace file in the work directory.
fn enable_obs(ctx: &Ctx) -> Result<std::path::PathBuf, String> {
    let path = ctx.work.join("trace.jsonl");
    gale_obs::trace::write_to_path(&path.to_string_lossy())
        .map_err(|e| format!("cannot open trace file: {e}"))?;
    gale_obs::set_enabled(true);
    Ok(path)
}

// ---------------------------------------------------------------------------
// al_loop
// ---------------------------------------------------------------------------

struct LoopInputs {
    prep: PreparedScenario,
    cfg: GaleConfig,
    budget: usize,
}

impl LoopInputs {
    /// Wall seconds, CPU seconds and outcome of one `run_gale` call.
    fn call(&self, cfg: &GaleConfig) -> (f64, f64, GaleOutcome) {
        let prep = &self.prep;
        let mut oracle = GroundTruthOracle::new(&prep.data.truth);
        let initial = prep.initial_examples(0.1);
        timed(|| {
            run_gale(
                &prep.data.graph,
                &prep.data.constraints,
                &prep.split,
                &initial,
                &prep.val_examples,
                &mut oracle,
                cfg,
            )
        })
    }
}

/// Prepares sub-scenario `seed` `LOOP_SETUP_REPS` times, appending each
/// prepare's time to `setup`.
fn loop_inputs(seed: u64, setup: &mut Vec<f64>) -> LoopInputs {
    let mut prep = None;
    for _ in 0..LOOP_SETUP_REPS {
        let t = Instant::now();
        prep = Some(Scenario::table4(DatasetId::Species, LOOP_SCALE, seed).prepare());
        setup.push(secs(t.elapsed()));
    }
    let (budget, k) = paper_budget(DatasetId::Species, LOOP_SCALE);
    let cfg = gale_config(Method::Gale, &Knobs::default(), budget, k, seed ^ 0xbeef);
    LoopInputs {
        prep: prep.expect("at least one prepare"),
        cfg,
        budget,
    }
}

/// Records the median set-up time. `speed` is the machine's slowdown
/// against the reference unit's nominal (1 in traced runs, which do not
/// measure it): `setup_s` is stated at nominal speed like `latency_ms`.
fn record_setup(run: &mut Run, times: &[f64], speed: f64, layer: &str, what: &str) {
    let raw = median(times);
    let setup_s = raw / speed;
    run.headline("setup_s_raw", "s", raw, times.len(), &format!("{what}, as measured"));
    run.headline(
        "setup_s",
        "s",
        setup_s,
        times.len(),
        &format!("{what}, at nominal speed"),
    );
    run.end_to_end("setup_s", setup_s);
    run.layer(layer, setup_s, times.len(), what);
}

/// The machine's slowdown over a run: the median reference unit cost
/// over its nominal.
fn slowdown(units: &[f64]) -> f64 {
    median(units) / reference::NOMINAL_UNIT_S
}

/// Checks every AL call must pass: the query budget and the F1 floor.
/// Returns whether both held.
fn quality_checks(run: &mut Run, queries: usize, budget: usize, f1: f64, floor: f64) -> bool {
    let (spent, good) = (queries == budget, f1 >= floor);
    run.check("queries == budget", spent, format!("{queries} of {budget}"));
    run.check("f1 >= floor", good, format!("f1 {f1:.4}, floor {floor}"));
    spent && good
}

pub fn run_loop(ctx: &Ctx) -> Result<Run, String> {
    gale_tensor::par::with_threads(AL_THREADS, || loop_workload(ctx))
}

fn loop_workload(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run {
        server_flags: "-".into(),
        ..Default::default()
    };
    let mut setup = Vec::new();
    if ctx.trace {
        let inputs = loop_inputs(sub_seed(ctx.seed, 0), &mut setup);
        record_setup(
            &mut run,
            &setup,
            1.0,
            "data.prepare_s",
            "median of scenario prepares",
        );
        return trace_loop(ctx, run, inputs);
    }
    let (mut times, mut cpus, mut f1s) = (Vec::new(), Vec::new(), Vec::new());
    let mut units = vec![reference::measure()];
    for i in 0..calls(ctx.seconds, LOOP_NOMINAL_S) {
        let inputs = loop_inputs(sub_seed(ctx.seed, i), &mut setup);
        let (t, cpu, out) = inputs.call(&inputs.cfg);
        let f1 = inputs.prep.evaluate_gale(&out).f1;
        let ok = quality_checks(
            &mut run,
            out.queries_issued,
            inputs.budget,
            f1,
            LOOP_F1_FLOOR,
        );
        run.failed += u64::from(!ok);
        times.push(t);
        cpus.push(cpu);
        f1s.push(f1);
        // The call's inputs and outputs are gone, so the unit's tables
        // never add to the peak RSS of a call.
        drop((inputs, out));
        units.push(reference::measure());
    }
    record_setup(
        &mut run,
        &setup,
        slowdown(&units),
        "data.prepare_s",
        "median of scenario prepares",
    );
    let f1 = median(&f1s);
    run.check(
        "median f1 >= floor",
        f1 >= LOOP_F1_MEDIAN_FLOOR,
        format!("median f1 {f1:.4}, floor {LOOP_F1_MEDIAN_FLOOR}"),
    );
    let queries = paper_budget(DatasetId::Species, LOOP_SCALE).0 as f64;
    finish_untraced(
        &mut run,
        &times,
        &cpus,
        &units,
        &f1s,
        queries,
        "run_gale",
        "test fold",
    );
    Ok(run)
}

/// The end-to-end metrics of an untraced AL run: medians over its calls.
/// `latency_ms` and `throughput` are taken from the CPU time of each call
/// (one thread, so it is the wall time less the moments the thread did
/// not run) stated at the reference unit's nominal speed: on a shared
/// machine the neighbours' load moves both the wall and the CPU time of
/// a call by far more than any usable bound. `units[i]` and `units[i + 1]`
/// are the unit's cost measured just before and just after call `i`. The
/// raw figures are printed beside.
#[allow(clippy::too_many_arguments)]
fn finish_untraced(
    run: &mut Run,
    times: &[f64],
    cpus: &[f64],
    units: &[f64],
    f1s: &[f64],
    queries: f64,
    call: &str,
    fold: &str,
) {
    let run_s = median(times);
    let nominal: Vec<f64> = cpus
        .iter()
        .zip(units.windows(2))
        .map(|(cpu, u)| cpu * reference::NOMINAL_UNIT_S / (0.5 * (u[0] + u[1])))
        .collect();
    let cpu_s = median(&nominal);
    run.headline(
        "cpu_s_raw",
        "s",
        median(cpus),
        cpus.len(),
        &format!("median CPU time of {call} as measured"),
    );
    run.headline(
        "ref_unit_ms",
        "ms",
        median(units) * 1e3,
        units.len(),
        &format!(
            "median cost of the reference unit (nominal {:.3} ms)",
            reference::NOMINAL_UNIT_S * 1e3
        ),
    );
    let max_s = times.iter().copied().fold(0.0, f64::max);
    let f1 = median(f1s);
    let rss = peak_rss_mb(None);
    run.attempted = times.len() as u64;
    run.headline(
        "run_s",
        "s",
        run_s,
        times.len(),
        &format!("median wall time of {call}, one call per sub-scenario"),
    );
    run.headline("run_s_max", "s", max_s, times.len(), "slowest call");
    run.headline(
        "cpu_s",
        "s",
        cpu_s,
        cpus.len(),
        &format!("median CPU time of {call} at nominal speed"),
    );
    run.headline(
        "f1",
        "ratio",
        f1,
        f1s.len(),
        &format!("median {fold} F1 over sub-scenarios"),
    );
    run.headline(
        "queries_per_s",
        "1/s",
        queries / run_s,
        times.len(),
        "oracle queries / run_s",
    );
    run.headline(
        "queries_per_cpu_s",
        "1/s",
        queries / cpu_s,
        cpus.len(),
        "oracle queries / cpu_s",
    );
    run.headline("peak_rss_mb", "MiB", rss, 1, "VmHWM of this process");
    run.end_to_end("latency_ms", cpu_s * 1e3);
    run.end_to_end("throughput", queries / cpu_s);
    run.end_to_end("peak_rss_mb", rss);
}

fn trace_loop(ctx: &Ctx, mut run: Run, inputs: LoopInputs) -> Result<Run, String> {
    let (untraced_s, _, plain) = inputs.call(&inputs.cfg);
    enable_obs(ctx)?;
    let ckpt_dir = ctx.work.join("ckpt");
    let traced_cfg = GaleConfig {
        checkpoint_dir: Some(ckpt_dir.clone()),
        ..inputs.cfg.clone()
    };
    let (traced_s, _, traced) = inputs.call(&traced_cfg);
    let counters = Counters::read();
    run.attempted = 2;
    run.check(
        "error_scores untraced == traced",
        bits_equal(&plain.error_scores, &traced.error_scores),
        "bitwise",
    );
    let f1 = inputs.prep.evaluate_gale(&plain).f1;
    run.layer("core.f1", f1, 1, "test fold");
    quality_checks(
        &mut run,
        traced.queries_issued,
        inputs.budget,
        f1,
        LOOP_F1_FLOOR,
    );

    // Stages the loop books itself (IterationRecord).
    let select = secs(traced.total_select_time());
    let annotate = secs(traced.total_annotate_time());
    let train = secs(traced.total_train_time());
    let train_cold = secs(traced.history[0].train_time);
    run.layer(
        "core.select_s",
        select,
        traced.history.len(),
        "IterationRecord sum",
    );
    run.layer(
        "core.annotate_s",
        annotate,
        traced.history.len(),
        "IterationRecord sum",
    );
    run.layer(
        "core.train_s",
        train,
        traced.history.len(),
        "IterationRecord sum",
    );
    run.layer(
        "core.train_cold_s",
        train_cold,
        1,
        "iteration 0 (full SGAN training)",
    );
    run.layer(
        "core.queries",
        traced.queries_issued as f64,
        1,
        "oracle queries",
    );
    let unattributed = traced_s - select - annotate - train;
    run.layer(
        "core.unattributed_s",
        unattributed,
        1,
        "run_s minus the booked stages",
    );
    run.layer(
        "core.memo_hit_rate",
        traced.memo_hit_rate,
        counters.get("memo.lookups") as usize,
        "base: core.memo_lookups",
    );
    run.layer(
        "core.memo_lookups",
        counters.get("memo.lookups"),
        1,
        "traced call",
    );
    let changed: Vec<f64> = traced.history[1..]
        .iter()
        .map(|r| r.changed_fraction)
        .collect();
    run.layer(
        "core.changed_frac_mean",
        changed.iter().sum::<f64>() / changed.len().max(1) as f64,
        changed.len(),
        "iterations 1..",
    );
    run.layer(
        "core.typicality_reuses",
        traced.typicality_reuses as f64,
        1,
        "",
    );
    counters.tensor_layers(&mut run);

    // Layers run_gale hides: standalone calls on the same inputs and seed.
    let g = &inputs.prep.data.graph;
    let constraints = &inputs.prep.data.constraints;
    let sp = gale_obs::span!("e2ebench.detect.library");
    let _report = DetectorLibrary::standard(constraints.to_vec()).run(g);
    let library_s = secs(sp.finish());
    // run_gale seeds its RNG with cfg.seed and draws first in g_augment,
    // so this reproduces the loop's own representation.
    let sp = gale_obs::span!("e2ebench.core.augment");
    let aug = g_augment(
        g,
        constraints,
        &inputs.cfg.augment,
        &mut Rng::seed_from_u64(inputs.cfg.seed),
    );
    let augment_s = secs(sp.finish());
    let mut y0 = Matrix::zeros(g.node_count(), 2);
    for e in inputs.prep.initial_examples(0.1) {
        y0[(e.node, e.label.class_index())] = 1.0;
    }
    let sp = gale_obs::span!("e2ebench.graph.soft_labels");
    let _soft = soft_labels(&aug.repr.s_norm, &y0, &inputs.cfg.propagation);
    let soft_s = secs(sp.finish());
    let mut sgan =
        Sgan::load(ckpt_dir.join("final.ckpt")).map_err(|e| format!("final.ckpt: {e}"))?;
    let sp = gale_obs::span!("e2ebench.core.eval");
    let probs = sgan.class_probs(&aug.repr.x);
    let eval_s = secs(sp.finish());
    let probe_scores: Vec<f64> = (0..probs.rows()).map(|v| probs[(v, 0)]).collect();
    run.check(
        "eval probe reproduces the loop's scores",
        bits_equal(&probe_scores, &traced.error_scores),
        "Sgan::class_probs on the re-run GAugment, bitwise",
    );
    gale_obs::trace::flush();
    run.layer("core.augment_s", augment_s, 1, "standalone g_augment");
    run.layer(
        "core.eval_s",
        eval_s,
        1,
        "standalone final Sgan::class_probs",
    );
    run.layer(
        "detect.library_s",
        library_s,
        1,
        "standalone DetectorLibrary::run",
    );
    run.layer(
        "graph.soft_labels_s",
        soft_s,
        1,
        "standalone soft_labels (one per iteration)",
    );
    // `al_scale` is not among the workloads BENCHMARK.json runs, so the
    // layers only it reaches are probed here, on its store for this seed.
    let seed = sub_seed(ctx.seed, 0);
    let mut generations = Vec::new();
    let store = scale_graph(ctx, seed, &mut generations)?;
    run.layer(
        "data.generate_s",
        median(&generations),
        generations.len(),
        "median of al_scale store generations",
    );
    let scale = scale_cfg(seed);
    // Seed mass on the planted errors among 48 evenly spaced nodes, as
    // many as al_scale's loop queries.
    let y0: Vec<f64> = (0..store.truth.len())
        .map(|v| f64::from(u8::from(v % 6_250 == 0 && store.truth[v])))
        .collect();
    probe_out_of_core(&mut run, &store, &scale, &y0);
    drop(store);
    run.layer(
        "obs.overhead_frac",
        traced_s / untraced_s,
        2,
        "traced call / untraced call",
    );

    run.attribution_total = traced_s;
    run.attribution = vec![
        ("core.select_s".into(), select),
        ("core.annotate_s".into(), annotate),
        ("core.train_s".into(), train),
        ("core.unattributed_s".into(), unattributed),
        ("  of which core.augment_s (probe)".into(), augment_s),
        ("  of which detect.library_s (probe)".into(), library_s),
        ("  of which core.eval_s (probe)".into(), eval_s),
        (
            "  of which unexplained".into(),
            unattributed - augment_s - library_s - eval_s,
        ),
    ];
    run.headline("run_s", "s", untraced_s, 1, "untraced call");
    run.headline(
        "run_s_traced",
        "s",
        traced_s,
        1,
        "traced call; the stages and the attribution are its own",
    );
    run.failed = u64::from(!run.correct());
    Ok(run)
}

// ---------------------------------------------------------------------------
// al_scale
// ---------------------------------------------------------------------------

/// `benches/scale.rs`'s `pipeline_cfg` at 300k nodes, seeded by the run.
fn scale_cfg(seed: u64) -> ScaleGaleConfig {
    ScaleGaleConfig {
        gae: GaeConfig {
            hidden_dim: 32,
            embed_dim: 16,
            epochs: 3,
            ..Default::default()
        },
        minibatch: MiniBatchConfig {
            fanouts: vec![10, 10],
            edge_batch: 512,
            batches_per_epoch: 16,
            seed,
        },
        sgan: SganConfig {
            d_hidden: vec![24, 12],
            g_hidden: vec![24],
            epochs: 40,
            incremental_epochs: 8,
            batch_unsup: 256,
            early_stop_patience: 0,
            ..Default::default()
        },
        local_budget: 16,
        iterations: 3,
        candidate_pool: 4096,
        eval_chunk: 8192,
        synthetic_rows: 2048,
        propagation: PropagationConfig {
            iterations: 10,
            ..Default::default()
        },
        seed,
        ..Default::default()
    }
}

/// Generates sub-scenario `seed`'s store `SCALE_SETUP_REPS` times (each
/// replacing the last), appending each generation's time to `setup`.
fn scale_graph(ctx: &Ctx, seed: u64, setup: &mut Vec<f64>) -> Result<ScaleGraph, String> {
    let spec = ScaleSpec::sized(SCALE_NODES, SCALE_EDGES, seed);
    let dir = ctx.work.join("store");
    let mut graph = None;
    for _ in 0..SCALE_SETUP_REPS {
        drop(graph.take());
        std::fs::remove_dir_all(&dir).ok();
        let t = Instant::now();
        graph = Some(generate_scale(&spec, &dir).map_err(|e| format!("generate_scale: {e}"))?);
        setup.push(secs(t.elapsed()));
    }
    Ok(graph.expect("at least one generation"))
}

/// Wall seconds, CPU seconds and outcome of one `run_gale_scale` call.
fn scale_call(g: &ScaleGraph, cfg: &ScaleGaleConfig) -> (f64, f64, ScaleOutcome) {
    timed(|| run_gale_scale(&g.adjacency, &g.features, &g.truth, cfg))
}

pub fn run_scale(ctx: &Ctx) -> Result<Run, String> {
    gale_tensor::par::with_threads(AL_THREADS, || scale_workload(ctx))
}

fn scale_workload(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run {
        server_flags: "-".into(),
        ..Default::default()
    };
    let mut setup = Vec::new();
    if ctx.trace {
        let seed = sub_seed(ctx.seed, 0);
        let g = scale_graph(ctx, seed, &mut setup)?;
        record_setup(
            &mut run,
            &setup,
            1.0,
            "data.generate_s",
            "median of store generations",
        );
        return trace_scale(ctx, run, &g, &scale_cfg(seed));
    }
    let (mut times, mut cpus, mut f1s) = (Vec::new(), Vec::new(), Vec::new());
    let mut units = vec![reference::measure()];
    let mut store_mb = 0.0;
    for i in 0..calls(ctx.seconds, SCALE_NOMINAL_S) {
        let seed = sub_seed(ctx.seed, i);
        let g = scale_graph(ctx, seed, &mut setup)?;
        let cfg = scale_cfg(seed);
        let (t, cpu, out) = scale_call(&g, &cfg);
        let f1 = out.prf_against(&g.truth).f1;
        let ok = quality_checks(
            &mut run,
            out.queries_issued,
            scale_budget(&cfg),
            f1,
            SCALE_F1_FLOOR,
        );
        run.failed += u64::from(!ok);
        store_mb = mib(std::fs::metadata(&g.adjacency_path).map_or(0, |m| m.len()) as f64);
        times.push(t);
        cpus.push(cpu);
        f1s.push(f1);
        drop((g, out));
        units.push(reference::measure());
    }
    record_setup(
        &mut run,
        &setup,
        slowdown(&units),
        "data.generate_s",
        "median of store generations",
    );
    run.headline("store_mb", "MiB", store_mb, 1, "mapped CSR file");
    let queries = scale_budget(&scale_cfg(0)) as f64;
    finish_untraced(
        &mut run,
        &times,
        &cpus,
        &units,
        &f1s,
        queries,
        "run_gale_scale",
        "all-node",
    );
    Ok(run)
}

fn scale_budget(cfg: &ScaleGaleConfig) -> usize {
    cfg.local_budget * cfg.iterations
}

/// Sums the durations of trace spans named `name` whose `iter` field is
/// `iter` (any iteration when `None`).
fn span_seconds(trace: &str, name: &str, iter: Option<u64>) -> f64 {
    trace
        .lines()
        .filter_map(|l| gale_json::from_str(l).ok())
        .filter(|r| r.get("t").and_then(gale_json::Value::as_str) == Some("span"))
        .filter(|r| r.get("name").and_then(gale_json::Value::as_str) == Some(name))
        .filter(|r| iter.is_none() || r.get("iter").and_then(gale_json::Value::as_u64) == iter)
        .filter_map(|r| r.get("us").and_then(gale_json::Value::as_f64))
        .sum::<f64>()
        / 1e6
}

/// The layers `run_gale_scale` hides, called standalone at `al_scale`'s
/// configuration on its store: one `ppr_smooth_access` from the seed mass
/// `y0` and one `Gae::train_sampled` epoch.
fn probe_out_of_core(run: &mut Run, g: &ScaleGraph, cfg: &ScaleGaleConfig, y0: &[f64]) {
    let s = SymNormalized::new(&g.adjacency);
    let sp = gale_obs::span!("e2ebench.graph.ppr_access");
    let _mass = ppr_smooth_access(&s, y0, &cfg.propagation);
    let ppr_s = secs(sp.finish());
    let one_epoch = GaeConfig {
        epochs: 1,
        ..cfg.gae.clone()
    };
    let sp = gale_obs::span!("e2ebench.nn.gae_sampled_epoch");
    let _gae = Gae::train_sampled(
        &g.features,
        &g.adjacency,
        &s,
        &one_epoch,
        &cfg.minibatch,
        &mut Rng::seed_from_u64(cfg.seed),
    );
    let epoch_s = secs(sp.finish());
    gale_obs::trace::flush();
    run.layer(
        "graph.ppr_access_s",
        ppr_s,
        1,
        "one ppr_smooth_access (select runs up to 6 per iteration)",
    );
    run.layer(
        "nn.gae_sampled_epoch_s",
        epoch_s,
        1,
        "one Gae::train_sampled epoch",
    );
}

fn trace_scale(
    ctx: &Ctx,
    mut run: Run,
    g: &ScaleGraph,
    cfg: &ScaleGaleConfig,
) -> Result<Run, String> {
    let (untraced_s, _, plain) = scale_call(g, cfg);
    let trace_path = enable_obs(ctx)?;
    let (traced_s, _, traced) = scale_call(g, cfg);
    let counters = Counters::read();
    gale_obs::trace::flush();
    run.attempted = 2;
    run.check(
        "error_scores untraced == traced",
        bits_equal(&plain.error_scores, &traced.error_scores),
        "bitwise",
    );
    let f1 = traced.prf_against(&g.truth).f1;
    run.layer("core.f1", f1, 1, "all nodes");
    quality_checks(
        &mut run,
        traced.queries_issued,
        scale_budget(cfg),
        f1,
        SCALE_F1_FLOOR,
    );

    let trace = std::fs::read_to_string(&trace_path).map_err(|e| format!("trace file: {e}"))?;
    let train_cold = span_seconds(&trace, "gale.scale.represent", None)
        + span_seconds(&trace, "gale.scale.train", Some(0));
    let final_score = span_seconds(&trace, "gale.scale.score", None);
    let (select, annotate, train) = (
        secs(traced.select_time),
        secs(traced.annotate_time),
        secs(traced.train_time),
    );
    run.layer(
        "core.select_s",
        select,
        1,
        "ScaleOutcome; includes the final chunked scoring",
    );
    run.layer("core.annotate_s", annotate, 1, "ScaleOutcome");
    run.layer("core.train_s", train, 1, "ScaleOutcome (GAE + SGAN)");
    run.layer(
        "core.train_cold_s",
        train_cold,
        1,
        "traced spans: represent + train iter 0",
    );
    run.layer(
        "core.queries",
        traced.queries_issued as f64,
        1,
        "oracle queries",
    );
    let unattributed = traced_s - select - annotate - train;
    run.layer(
        "core.unattributed_s",
        unattributed,
        1,
        "run_s minus the booked stages",
    );
    counters.tensor_layers(&mut run);

    let mut y0 = vec![0.0f64; g.truth.len()];
    for e in traced.pool.examples() {
        if e.label.class_index() == 0 {
            y0[e.node] = 1.0;
        }
    }
    probe_out_of_core(&mut run, g, cfg, &y0);
    run.layer(
        "obs.overhead_frac",
        traced_s / untraced_s,
        2,
        "traced call / untraced call",
    );

    run.attribution_total = traced_s;
    run.attribution = vec![
        ("core.select_s".into(), select),
        (
            "  of which final chunked scoring (traced)".into(),
            final_score,
        ),
        ("core.annotate_s".into(), annotate),
        ("core.train_s".into(), train),
        ("  of which core.train_cold_s".into(), train_cold),
        ("core.unattributed_s".into(), unattributed),
    ];
    run.headline("run_s", "s", untraced_s, 1, "untraced call");
    run.headline(
        "run_s_traced",
        "s",
        traced_s,
        1,
        "traced call; the stages and the attribution are its own",
    );
    run.failed = u64::from(!run.correct());
    Ok(run)
}
