//! The `gale-loadgen` command-line entry point.
//!
//! - `gale-loadgen run --addr HOST:PORT [--concurrency N] [--duration-secs S]
//!   [--warmup-secs S] [--rows N] [--reload-ckpt PATH --reload-at-secs S]` —
//!   drives a live server with closed-loop keep-alive workers and prints a
//!   JSON report. With `--reload-ckpt`, fires `POST /admin/reload` mid-run
//!   and fails unless the swap dropped zero requests.
//! - `gale-loadgen bench` — the committed serving benchmark
//!   (`BENCH_serve.json`): boots the sibling `gale-serve` binary with one
//!   and with four shards, measures each, checks a hot reload under
//!   four-shard load, and measures the cost of request tracing. The
//!   headline ratio is the wire overhead: the single-shard served p50
//!   over the server's own mean batched-forward time, scraped from
//!   `/metrics` over the measured window. Tracing may not cost more than
//!   5% of p99.
//! - `gale-loadgen bench-precision` — the serving half of
//!   `BENCH_precision.json`: boots an f64 shard and an f32 shard of the
//!   same checkpoint side by side, checks that both answer a fixed eval
//!   request with the same verdicts, and appends serve p50/p99 and the
//!   f32-over-f64 serving speedups to the report that
//!   `cargo bench -p gale-bench --bench precision` wrote earlier into the
//!   same output directory.
//! - `gale-loadgen bench-stream` — the committed streaming benchmark
//!   (`BENCH_stream.json`): builds a `stream-demo` bundle, loads two
//!   engines from it, drives identical mutation rounds through both, and
//!   times the incremental k-hop refresh against a full from-scratch
//!   re-embed and re-score of the mutated graph. The verdicts must agree
//!   *bitwise* every round, smoke included. A second leg boots
//!   `gale-serve --stream` and measures `POST /mutate` p50/p99 over the
//!   wire, checking the graph version never runs backwards. Full runs
//!   also hold the incremental-vs-full speedup to a hard 5x floor.
//!
//! The three benches write and gate their reports through
//! `gale_bench::report` (`GALE_BENCH_OUT_DIR`, `GALE_BENCH_SMOKE`,
//! `GALE_BENCH_NO_GATE`). Failed requests, legs that complete nothing and
//! broken parity abort before a report is written.

use gale_bench::report::{self, Limit, Report, Rule, Sample};
use gale_json::{json, Value};
use gale_loadgen::{
    one_shot, percentile, render_get, render_post, run, run_samples, wait_healthy, LoadConfig,
    LoadReport,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("bench") => no_flags(&args[1..]).and_then(|()| cmd_bench()),
        Some("bench-precision") => no_flags(&args[1..]).and_then(|()| cmd_bench_precision()),
        Some("bench-stream") => no_flags(&args[1..]).and_then(|()| cmd_bench_stream()),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            gale_obs::warn!("gale-loadgen: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
gale-loadgen: closed-loop load generator and serving benchmark for gale-serve

USAGE:
  gale-loadgen run --addr HOST:PORT [--concurrency N] [--duration-secs S]
                   [--warmup-secs S] [--rows N]
                   [--reload-ckpt PATH --reload-at-secs S]
  gale-loadgen bench
  gale-loadgen bench-precision
  gale-loadgen bench-stream

The bench commands read GALE_BENCH_OUT_DIR, GALE_BENCH_SMOKE and
GALE_BENCH_NO_GATE (see EXPERIMENTS.md).
";

fn parse_flags(args: &[String], allowed: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !allowed.contains(&flag.as_str()) {
            return Err(format!("unknown flag `{flag}`\n{USAGE}"));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        flags.push((flag.clone(), value.clone()));
    }
    Ok(flags)
}

fn no_flags(args: &[String]) -> Result<(), String> {
    parse_flags(args, &[]).map(drop)
}

fn find<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(f, _)| f == name)
        .map(|(_, v)| v.as_str())
}

fn parse_num<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    match find(flags, name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("flag `{name}` got unparseable value `{raw}`")),
    }
}

fn report_json(name: &str, r: &LoadReport) -> Value {
    json!({
        "name": name,
        "throughput_rps": r.throughput_rps,
        "ok": r.ok as f64,
        "shed": r.shed as f64,
        "errors": r.errors as f64,
        "reconnects": r.reconnects as f64,
        "elapsed_s": r.elapsed_s,
        "mean_us": r.mean_us,
        "p50_us": r.p50_us,
        "p99_us": r.p99_us,
        "p999_us": r.p999_us,
        "versions": Value::Array(r.versions.iter().map(|&v| Value::Int(v as i64)).collect()),
    })
}
// ---------------------------------------------------------------------------
// `run`: drive an already-running server
// ---------------------------------------------------------------------------

fn cmd_run(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "--addr",
            "--concurrency",
            "--duration-secs",
            "--warmup-secs",
            "--rows",
            "--reload-ckpt",
            "--reload-at-secs",
        ],
    )?;
    let addr = find(&flags, "--addr").ok_or("run requires --addr HOST:PORT")?;
    let dim = wait_healthy(addr, Duration::from_secs(5))?;
    let cfg = LoadConfig {
        addr: addr.to_string(),
        concurrency: parse_num(&flags, "--concurrency", 8usize)?.max(1),
        duration: Duration::from_secs_f64(parse_num(&flags, "--duration-secs", 4.0f64)?),
        warmup: Duration::from_secs_f64(parse_num(&flags, "--warmup-secs", 1.0f64)?),
        rows: parse_num(&flags, "--rows", 4usize)?.max(1),
        dim,
    };
    let reload_ckpt = find(&flags, "--reload-ckpt").map(str::to_string);
    let reload_at = Duration::from_secs_f64(parse_num(&flags, "--reload-at-secs", 1.0f64)?);

    let report = match reload_ckpt {
        None => run(&cfg),
        Some(ckpt) => run_with_reload(&cfg, &ckpt, reload_at)?,
    };
    println!(
        "{}",
        gale_json::to_string_pretty(&report_json("run", &report))
    );
    if report.errors > 0 {
        return Err(format!("{} request(s) failed", report.errors));
    }
    Ok(())
}

/// Runs the closed loop while a side thread fires `/admin/reload` at
/// `reload_at` into the run; the swap must answer 200 and the run must
/// finish with zero errors and zero shed (every request either scored by
/// the old model or the new one, never dropped in between).
fn run_with_reload(
    cfg: &LoadConfig,
    ckpt: &str,
    reload_at: Duration,
) -> Result<LoadReport, String> {
    let ckpt = std::fs::canonicalize(ckpt)
        .map_err(|e| format!("cannot resolve `{ckpt}`: {e}"))?
        .to_string_lossy()
        .into_owned();
    let addr = cfg.addr.clone();
    let reloader = std::thread::spawn(move || -> Result<(), String> {
        std::thread::sleep(reload_at);
        let body = json!({"ckpt": ckpt.as_str()}).to_string();
        let (status, reply) = one_shot(&addr, &render_post(&addr, "/admin/reload", &body))
            .map_err(|e| format!("reload request failed: {e}"))?;
        if status != 200 {
            return Err(format!(
                "reload answered {status}: {}",
                String::from_utf8_lossy(&reply)
            ));
        }
        Ok(())
    });
    let report = run(cfg);
    reloader.join().expect("reloader thread panicked")?;
    if report.errors > 0 || report.shed > 0 {
        return Err(format!(
            "reload under load dropped traffic: {} errors, {} shed",
            report.errors, report.shed
        ));
    }
    if report.versions.len() < 2 {
        return Err(format!(
            "reload never became visible: versions seen {:?}",
            report.versions
        ));
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Server plumbing shared by the bench commands
// ---------------------------------------------------------------------------

/// The sibling `gale-serve` binary (same target directory as this one).
fn serve_binary() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me.parent().ok_or("current_exe has no parent")?;
    let path = dir.join("gale-serve");
    if path.exists() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found — build it first: cargo build --release -p gale-serve",
            path.display()
        ))
    }
}

/// An OS-assigned free loopback port (bind, read, drop).
fn free_port() -> Result<u16, String> {
    let listener =
        std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("port probe: {e}"))?;
    Ok(listener
        .local_addr()
        .map_err(|e| format!("port probe: {e}"))?
        .port())
}

/// A live `gale-serve`: its address, its process and its feature
/// dimension.
type Server = (String, std::process::Child, usize);

/// Boots `gale-serve` on a free loopback port, pinned to one internal
/// thread (`GALE_THREADS=1`) so shard scaling — not intra-op parallelism
/// — is what the benchmark measures, and waits until it is healthy; with
/// `stream`, it also serves that bundle's graph.
fn spawn_server(
    binary: &Path,
    ckpt: &Path,
    shards: usize,
    precision: &str,
    trace: bool,
    stream: Option<&Path>,
) -> Result<Server, String> {
    let addr = format!("127.0.0.1:{}", free_port()?);
    let mut command = std::process::Command::new(binary);
    command.args([
        "serve",
        "--ckpt",
        &ckpt.to_string_lossy(),
        "--addr",
        &addr,
        "--shards",
        &shards.to_string(),
        "--precision",
        precision,
        // The default 2ms batching linger is tuned for open-loop
        // traffic; under a closed loop it would dominate every leg's
        // latency and hide the wire overhead the bench exists to
        // measure.
        "--max-wait-us",
        "200",
        "--trace",
        if trace { "on" } else { "off" },
    ]);
    if let Some(bundle) = stream {
        command.arg("--stream").arg(bundle);
    }
    let child = command
        .env("GALE_THREADS", "1")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
    let dim = wait_healthy(&addr, Duration::from_secs(10))?;
    Ok((addr, child, dim))
}

/// The `(sum, count)` of a histogram the server exports in `/metrics`.
fn scrape_histogram(addr: &str, series: &str) -> Result<(f64, f64), String> {
    let (status, body) = one_shot(addr, &render_get(addr, "/metrics"))
        .map_err(|e| format!("/metrics scrape failed: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    let text = String::from_utf8_lossy(&body);
    let value = |suffix: &str| {
        let prefix = format!("{series}{suffix} ");
        text.lines()
            .find_map(|line| line.strip_prefix(&prefix)?.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("/metrics has no {series}{suffix}"))
    };
    Ok((value("_sum")?, value("_count")?))
}

/// The mean of the observations a histogram took between two scrapes.
fn window_mean(
    start: Result<(f64, f64), String>,
    end: Result<(f64, f64), String>,
) -> Result<f64, String> {
    let ((sum0, count0), (sum1, count1)) = (start?, end?);
    if count1 > count0 {
        Ok((sum1 - sum0) / (count1 - count0))
    } else {
        Err("the forward histogram recorded nothing in the measured window".into())
    }
}

fn stop_server(addr: &str, mut child: std::process::Child) -> Result<(), String> {
    let shutdown = render_post(addr, "/admin/shutdown", "");
    if one_shot(addr, &shutdown).is_err() {
        let _ = child.kill();
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for gale-serve: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("gale-serve exited with {status}"))
    }
}

// ---------------------------------------------------------------------------
// `bench`: BENCH_serve.json
// ---------------------------------------------------------------------------

/// The throughput legs: `(name, shards)`, every leg traced.
const LEGS: [(&str, usize); 2] = [("evloop/1", 1), ("evloop/4", 4)];

/// How much of p99 request tracing may cost (an invariant, not
/// baseline-relative: the contract is "tracing is nearly free", and that
/// holds on any machine).
const TRACING_P99_BUDGET: f64 = 1.05;

/// A leg with failed requests or no completions aborts the bench.
fn check_leg(name: &str, r: &LoadReport) -> Result<(), String> {
    if r.errors > 0 {
        return Err(format!("leg {name} had {} failed requests", r.errors));
    }
    if r.ok == 0 {
        return Err(format!("leg {name} completed zero requests"));
    }
    Ok(())
}

/// Records `<name>/rps` and the p50 and p99 of sorted latency samples
/// (µs, spread = their interquartile range).
fn record_latency(report: &mut Report, name: &str, rps: f64, sorted_us: &[u64]) {
    let iqr = percentile(sorted_us, 0.75) - percentile(sorted_us, 0.25);
    report.entry(format!("{name}/rps"), "1/s", rps, 1, 0.0);
    for (q, label) in [(0.50, "p50"), (0.99, "p99")] {
        let value = percentile(sorted_us, q);
        report.entry(format!("{name}/{label}"), "us", value, sorted_us.len(), iqr);
    }
}

/// Boots one single-shard server per `(precision, trace)`.
fn spawn_two(
    binary: &Path,
    ckpt: &Path,
    configs: [(&str, bool); 2],
) -> Result<Vec<Server>, String> {
    configs
        .into_iter()
        .map(|(precision, trace)| spawn_server(binary, ckpt, 1, precision, trace, None))
        .collect()
}

/// Drives two live servers in alternating passes and returns each side's
/// requests per second and sorted pooled latency samples. One pass's p99
/// hangs off a handful of tail samples and mostly measures scheduler
/// noise; swapping which side goes first each pass gives both sides the
/// same machine weather, and pooling gives the tail enough samples.
fn pooled_pair(servers: &[Server], labels: [&str; 2]) -> Result<[(f64, Vec<u64>); 2], String> {
    let (passes, warmup, duration) = if report::smoke() {
        (
            1usize,
            Duration::from_millis(100),
            Duration::from_millis(300),
        )
    } else {
        (6usize, Duration::from_millis(250), Duration::from_secs(1))
    };
    let mut totals = [LoadReport::default(), LoadReport::default()];
    let mut pooled: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    for pass in 0..passes {
        for side in [pass % 2, (pass + 1) % 2] {
            let (addr, _, dim) = &servers[side];
            let (report, samples) = run_samples(&LoadConfig {
                addr: addr.clone(),
                concurrency: 8,
                duration,
                warmup,
                rows: 4,
                dim: *dim,
            });
            totals[side].ok += report.ok;
            totals[side].errors += report.errors;
            pooled[side].extend(samples);
        }
    }
    let secs = passes as f64 * duration.as_secs_f64();
    for side in 0..2 {
        check_leg(labels[side], &totals[side])?;
        pooled[side].sort_unstable();
    }
    let [a, b] = pooled;
    Ok([
        (totals[0].ok as f64 / secs, a),
        (totals[1].ok as f64 / secs, b),
    ])
}

fn stop_all(servers: Vec<Server>) -> Result<(), String> {
    for (addr, child, _) in servers {
        stop_server(&addr, child)?;
    }
    Ok(())
}

/// Runs a `gale-serve` subcommand that builds a demo artifact.
fn build_demo(binary: &Path, args: &[&str]) -> Result<(), String> {
    let status = std::process::Command::new(binary)
        .args(args)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .status()
        .map_err(|e| format!("{}: {e}", args[0]))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("{} exited with {status}", args[0]))
    }
}

/// Trains a demo checkpoint with `seed` into `out`.
fn train_demo(binary: &Path, out: &Path, seed: &str) -> Result<(), String> {
    let out = out.to_string_lossy();
    build_demo(binary, &["train-demo", "--out", &out, "--seed", seed])
}

fn cmd_bench() -> Result<(), String> {
    let smoke = report::smoke();
    let binary = serve_binary()?;
    let scratch = std::env::temp_dir().join(format!("gale-loadgen-bench-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("mkdir {}: {e}", scratch.display()))?;

    // Two demo checkpoints with the same input dimension: one to boot
    // with, one to hot-swap to under load.
    let ckpt_a = scratch.join("bench-a.ckpt");
    let ckpt_b = scratch.join("bench-b.ckpt");
    train_demo(&binary, &ckpt_a, "7")?;
    train_demo(&binary, &ckpt_b, "8")?;

    let (warmup, duration) = if smoke {
        (Duration::from_millis(200), Duration::from_millis(800))
    } else {
        (Duration::from_secs(1), Duration::from_secs(4))
    };

    // Throughput legs. Each also scrapes the server's own batched forward
    // time at the start and the end of the measured window, and keeps the
    // window's mean.
    let mut report = Report::new("serve");
    let mut measured: Vec<(LoadReport, f64)> = Vec::new();
    for (name, shards) in LEGS {
        let (addr, child, dim) = spawn_server(&binary, &ckpt_a, shards, "f64", true, None)?;
        let load = LoadConfig {
            addr: addr.clone(),
            concurrency: 8,
            duration,
            warmup,
            rows: 4,
            dim,
        };
        let ((leg, samples), forward_us) = std::thread::scope(|s| {
            let traffic = s.spawn(|| run_samples(&load));
            std::thread::sleep(warmup);
            let start = scrape_histogram(&addr, "serve_stage_forward_us");
            let out = traffic.join().expect("load generator panicked");
            let end = scrape_histogram(&addr, "serve_stage_forward_us");
            (out, window_mean(start, end))
        });
        stop_server(&addr, child)?;
        let forward_us = forward_us?;
        gale_obs::info!(
            "{:<16} {:>9.0} req/s  p50 {:>6.0}us  p99 {:>7.0}us  forward {:>5.1}us  \
             ({} ok, {} shed, {} errors)",
            name,
            leg.throughput_rps,
            leg.p50_us,
            leg.p99_us,
            forward_us,
            leg.ok,
            leg.shed,
            leg.errors
        );
        check_leg(name, &leg)?;
        record_latency(&mut report, name, leg.throughput_rps, &samples);
        report.entry(format!("{name}/forward_mean"), "us", forward_us, 1, 0.0);
        measured.push((leg, forward_us));
    }

    // Reload-under-load leg: four shards, hot swap mid-run, zero drops.
    {
        let (addr, child, dim) = spawn_server(&binary, &ckpt_a, 4, "f64", true, None)?;
        let cfg = LoadConfig {
            addr: addr.clone(),
            concurrency: 4,
            duration,
            warmup,
            rows: 4,
            dim,
        };
        let result = run_with_reload(&cfg, &ckpt_b.to_string_lossy(), warmup + duration / 3);
        stop_server(&addr, child)?;
        let leg = result?;
        gale_obs::info!(
            "reload/evloop/4: versions {:?}, {} ok, 0 shed, 0 errors",
            leg.versions,
            leg.ok
        );
        report.entry("reload/evloop/4/rps", "1/s", leg.throughput_rps, 1, 0.0);
        let versions = leg.versions.len() as f64;
        report.entry("reload/evloop/4/versions_seen", "count", versions, 1, 0.0);
    }

    measure_tracing_overhead(&mut report, &binary, &ckpt_a)?;
    let _ = std::fs::remove_dir_all(&scratch);

    // Intra-run ratios: the shard-scaling speedup, and the wire overhead —
    // what a single-shard request costs end to end per microsecond of
    // model forward. The overhead divides by the forward time, so a faster
    // forward raises it as surely as a slower wire path: after a forward
    // speedup, re-take BENCH_serve.json.
    let (one, forward_one) = &measured[0];
    let (four, _) = &measured[1];
    let shards = four.throughput_rps / one.throughput_rps.max(1e-9);
    report.ratio("shards/4v1", Rule::Speedup, shards);
    let wire_overhead = one.p50_us / forward_one.max(1e-9);
    gale_obs::info!(
        "wire overhead: evloop/1 p50 {:.0}us / forward {forward_one:.1}us = {wire_overhead:.1}x",
        one.p50_us
    );
    report.ratio("wire_overhead_ratio", Rule::Overhead, wire_overhead);
    report.finish()
}

/// Measures what request tracing costs: two identical single-shard
/// event-loop servers — one `--trace on`, one `--trace off` — alive at
/// once, driven by [`pooled_pair`].
fn measure_tracing_overhead(report: &mut Report, binary: &Path, ckpt: &Path) -> Result<(), String> {
    let servers = spawn_two(binary, ckpt, [("f64", true), ("f64", false)])?;
    let pooled = pooled_pair(&servers, ["tracing-on", "tracing-off"]);
    stop_all(servers)?;
    let [(on_rps, on), (off_rps, off)] = pooled?;
    let (p99_on, p99_off) = (percentile(&on, 0.99), percentile(&off, 0.99));
    let ratio = p99_on / p99_off.max(1e-9);
    gale_obs::info!(
        "tracing on/off   p99 {p99_on:>7.0}us / {p99_off:>7.0}us ({:+.1}%), {on_rps:.0} / {off_rps:.0} req/s",
        (ratio - 1.0) * 100.0,
    );
    record_latency(report, "tracing/on", on_rps, &on);
    record_latency(report, "tracing/off", off_rps, &off);
    report.invariant(
        "tracing/p99_overhead",
        ratio,
        Limit::AtMost(TRACING_P99_BUDGET),
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// `bench-precision`: the serving half of BENCH_precision.json
// ---------------------------------------------------------------------------

/// Drives an f64 shard and an f32 shard of the same checkpoint side by
/// side and appends serve-path p50/p99, the f32-over-f64 serving
/// speedups and the serving tolerance to the precision report the
/// kernel bench wrote into the same output directory. This command
/// refuses to invent the file, so the report is always the union of
/// both halves.
fn cmd_bench_precision() -> Result<(), String> {
    let binary = serve_binary()?;
    let kernel_half = report::out_dir().join(report::file_name("precision"));
    let mut report = Report::read(&kernel_half)
        .map_err(|e| format!("{e} — run `cargo bench -p gale-bench --bench precision` first"))?;
    report.entries.retain(|e| !e.name.starts_with("serve/"));
    report.ratios.retain(|r| !r.name.starts_with("serve/"));
    // The merged report is smoke if either half ran in smoke mode.
    report.smoke |= report::smoke();

    let scratch = std::env::temp_dir().join(format!("gale-loadgen-prec-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("mkdir {}: {e}", scratch.display()))?;
    let ckpt = scratch.join("precision.ckpt");
    train_demo(&binary, &ckpt, "7")?;
    let servers = spawn_two(&binary, &ckpt, [("f64", true), ("f32", true)])?;
    let measured = serve_agreement(&servers)
        .and_then(|agreement| Ok((agreement, pooled_pair(&servers, ["f64", "f32"])?)));
    stop_all(servers)?;
    let _ = std::fs::remove_dir_all(&scratch);
    let ((rows, max_div, flips), [(rps64, p64), (rps32, p32)]) = measured?;

    report.entry("serve/agreement_rows", "rows", rows as f64, 1, 0.0);
    report.ratio("serve/verdict_flips", Rule::Flips, flips as f64);
    report.ratio("serve/max_abs_divergence", Rule::Divergence, max_div);
    let (p99_64, p99_32) = (percentile(&p64, 0.99), percentile(&p32, 0.99));
    gale_obs::info!(
        "serve f64/f32   p99 {p99_64:>7.0}us / {p99_32:>7.0}us, {rps64:.0} / {rps32:.0} req/s"
    );
    record_latency(&mut report, "serve/f64", rps64, &p64);
    record_latency(&mut report, "serve/f32", rps32, &p32);
    report.ratio("serve/f32/rps", Rule::Speedup, rps32 / rps64.max(1e-9));
    report.ratio("serve/f32/p99", Rule::Speedup, p99_64 / p99_32.max(1e-9));
    report.finish()
}

/// Sends one fixed eval request to both shards before any load:
/// identical rows, so the verdicts must agree and the score divergence
/// is the serving path's own measurement of the tolerance contract.
/// Returns `(rows, max |p_f32 - p_f64|, verdict flips)`.
fn serve_agreement(servers: &[Server]) -> Result<(usize, f64, u64), String> {
    let rows = 16usize;
    let eval_body = gale_loadgen::score_body(rows, servers[0].2, 4242);
    let mut probs = Vec::new();
    for (addr, _, _) in servers {
        let (status, reply) = one_shot(addr, &render_post(addr, "/score", &eval_body))
            .map_err(|e| format!("eval request to {addr} failed: {e}"))?;
        if status != 200 {
            return Err(format!(
                "eval request answered {status}: {}",
                String::from_utf8_lossy(&reply)
            ));
        }
        let doc: Value = gale_json::from_str(&String::from_utf8_lossy(&reply))
            .map_err(|e| format!("eval reply is not JSON: {e}"))?;
        let p: Vec<f64> = doc
            .get("probs")
            .and_then(Value::as_array)
            .ok_or("eval reply has no probs")?
            .iter()
            .flat_map(|row| row.as_array().into_iter().flatten())
            .filter_map(Value::as_f64)
            .collect();
        if p.len() != rows * 3 {
            return Err(format!(
                "eval reply has {} probs, wanted {}",
                p.len(),
                rows * 3
            ));
        }
        probs.push(p);
    }
    let (p64, p32) = (&probs[0], &probs[1]);
    let mut max_div = 0.0f64;
    let mut flips = 0u64;
    for r in 0..rows {
        for c in 0..3 {
            max_div = max_div.max((p64[r * 3 + c] - p32[r * 3 + c]).abs());
        }
        if (p64[r * 3] > p64[r * 3 + 1]) != (p32[r * 3] > p32[r * 3 + 1]) {
            flips += 1;
        }
    }
    gale_obs::info!("serve eval: {rows} rows, max |p_f32 - p_f64| {max_div:.3e}, {flips} flip(s)");
    Ok((rows, max_div, flips))
}

// ---------------------------------------------------------------------------
// `bench-stream`: BENCH_stream.json
// ---------------------------------------------------------------------------

/// Hard floor on the incremental-vs-full speedup for full runs. The
/// whole point of the delta overlay and k-hop dirty tracking is that a
/// handful of mutations must not cost a whole-graph re-embed; 5x on the
/// committed bundle size is the contract from the streaming design note.
const STREAM_SPEEDUP_FLOOR: f64 = 5.0;

/// One deterministic mutation round: an attribute rewrite, an edge
/// removal, and a same-community edge insertion. The strides are coprime
/// to the bundle's community count so successive rounds wander the whole
/// graph instead of re-dirtying one neighborhood.
fn stream_round(round: usize, n: usize, dim: usize) -> Vec<gale_stream::Mutation> {
    use gale_stream::Mutation;
    let node = (round * 7 + 3) % n;
    let attrs = (0..dim)
        .map(|c| ((round + c) % 13) as f64 * 0.15 - 0.9)
        .collect();
    let ru = (round * 11) % n;
    let au = (round * 13 + 2) % n;
    vec![
        Mutation::UpdateAttrs { node, attrs },
        Mutation::RemoveEdge {
            u: ru,
            v: (ru + 8) % n,
        },
        Mutation::AddEdge {
            u: au,
            v: (au + 16) % n,
            weight: 1.0,
        },
    ]
}

/// Fails unless both engines' verdicts agree to the bit. Version stamps
/// are excluded on purpose: the full rebuild stamps every node with the
/// current version while the incremental path only stamps refreshed ones.
fn assert_stream_parity(
    live: &mut gale_stream::StreamEngine,
    control: &mut gale_stream::StreamEngine,
    round: usize,
) -> Result<(), String> {
    let a = live.all_scores();
    let b = control.all_scores();
    if a.len() != b.len() {
        return Err(format!(
            "round {round}: node counts diverged ({} vs {})",
            a.len(),
            b.len()
        ));
    }
    for (sa, sb) in a.iter().zip(&b) {
        let bits_match = sa
            .probs
            .iter()
            .zip(&sb.probs)
            .all(|(x, y)| x.to_bits() == y.to_bits())
            && sa.score.to_bits() == sb.score.to_bits()
            && sa.erroneous == sb.erroneous;
        if !bits_match {
            return Err(format!(
                "round {round}: node {} verdicts diverged — incremental {:?} vs full {:?}",
                sa.node, sa.probs, sb.probs
            ));
        }
    }
    Ok(())
}

fn cmd_bench_stream() -> Result<(), String> {
    let smoke = report::smoke();
    let binary = serve_binary()?;
    let scratch = std::env::temp_dir().join(format!("gale-loadgen-stream-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("mkdir {}: {e}", scratch.display()))?;
    let bundle = scratch.join("stream-bundle");
    // The non-smoke bundle must be large enough that a 2-hop dirty
    // closure (plus its one-hop refresh frontier) is a small fraction of
    // the graph — locality is the whole bet. At the demo's ~6 average
    // degree a round dirties a few hundred nodes, so 8k nodes keeps the
    // frontier under ~15% of the graph.
    let (nodes, dim, rounds, http_mutations) = if smoke {
        (240usize, 8usize, 4usize, 40usize)
    } else {
        (8000usize, 8usize, 12usize, 300usize)
    };
    build_demo(
        &binary,
        &[
            "stream-demo",
            "--out",
            &bundle.to_string_lossy(),
            "--nodes",
            &nodes.to_string(),
            "--dim",
            &dim.to_string(),
            "--seed",
            "11",
        ],
    )?;

    // In-process leg: two engines from the same bundle (identical artifact
    // bits), identical mutation rounds into both. One refreshes its k-hop
    // dirty set; the other re-embeds and re-scores the whole mutated graph
    // from scratch. Same rounds, same machine weather — the ratio is
    // intra-run and the verdicts must match bitwise after every round.
    let cfg = gale_stream::StreamConfig::default();
    let mut live = gale_stream::load_bundle(&bundle, cfg)
        .map_err(|e| format!("loading {}: {e}", bundle.display()))?;
    let mut control = gale_stream::load_bundle(&bundle, cfg)
        .map_err(|e| format!("loading {}: {e}", bundle.display()))?;
    let (mut incr_us, mut full_us) = (Vec::new(), Vec::new());
    let mut refreshed_total = 0usize;
    for round in 0..rounds {
        let batch = stream_round(round, nodes, dim);
        let ra = live
            .apply(&batch)
            .map_err(|e| format!("round {round}: {e}"))?;
        let rb = control
            .apply(&batch)
            .map_err(|e| format!("round {round}: {e}"))?;
        for (oa, ob) in ra.outcomes.iter().zip(&rb.outcomes) {
            if oa.admitted != ob.admitted {
                return Err(format!(
                    "round {round}: admission diverged between identical engines"
                ));
            }
        }
        let t = std::time::Instant::now();
        refreshed_total += live.refresh();
        incr_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = std::time::Instant::now();
        control.rescore_full();
        full_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert_stream_parity(&mut live, &mut control, round)?;
    }
    let (incr_total, full_total) = (incr_us.iter().sum::<f64>(), full_us.iter().sum::<f64>());
    let speedup = full_total / incr_total.max(1e-3);
    gale_obs::info!(
        "stream {rounds} rounds over {nodes} nodes: incremental {incr_total:.0}us total \
         ({refreshed_total} rows refreshed), full {full_total:.0}us total — {speedup:.1}x, \
         verdicts bitwise-equal"
    );

    // HTTP leg: the same bundle served with `--stream`, mutations over the
    // wire. Closed-loop single client — the interesting numbers are the
    // mutate latency tail and the graph version never running backwards.
    let ckpt = bundle.join("sgan.ckpt");
    let (addr, child, _) = spawn_server(&binary, &ckpt, 1, "f64", false, Some(&bundle))?;
    let mut samples = Vec::with_capacity(http_mutations);
    let http_start = std::time::Instant::now();
    let mut last_version = 0u64;
    for round in 0..http_mutations {
        let batch: Vec<Value> = stream_round(round + rounds, nodes, dim)
            .iter()
            .map(gale_stream::Mutation::to_json)
            .collect();
        let body = json!({"mutations": Value::Array(batch)}).to_string();
        let t = std::time::Instant::now();
        let (status, reply) = one_shot(&addr, &render_post(&addr, "/mutate", &body))
            .map_err(|e| format!("mutate {round}: {e}"))?;
        samples.push(t.elapsed().as_micros() as u64);
        if status != 200 {
            return Err(format!(
                "mutate {round} answered {status}: {}",
                String::from_utf8_lossy(&reply)
            ));
        }
        let doc: Value = gale_json::from_str(&String::from_utf8_lossy(&reply))
            .map_err(|e| format!("mutate {round} reply is not JSON: {e}"))?;
        let version = doc
            .get("graph_version")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("mutate {round} reply has no graph_version"))?;
        if version < last_version {
            return Err(format!(
                "graph version ran backwards: {last_version} -> {version}"
            ));
        }
        last_version = version;
    }
    let (rescore_status, rescore_reply) = one_shot(
        &addr,
        &render_post(&addr, "/score", r#"{"nodes": [0, 1, 2, 3]}"#),
    )
    .map_err(|e| format!("node re-score: {e}"))?;
    if rescore_status != 200 {
        return Err(format!(
            "node re-score answered {rescore_status}: {}",
            String::from_utf8_lossy(&rescore_reply)
        ));
    }
    let http_rps = http_mutations as f64 / http_start.elapsed().as_secs_f64();
    stop_server(&addr, child)?;
    let _ = std::fs::remove_dir_all(&scratch);
    samples.sort_unstable();
    let (p50, p99) = (percentile(&samples, 0.50), percentile(&samples, 0.99));
    gale_obs::info!(
        "stream http: {http_mutations} mutate batches, p50 {p50:.0}us p99 {p99:.0}us, \
         graph version {last_version}"
    );

    let mut report = Report::new("stream");
    report.entry("stream/nodes", "nodes", nodes as f64, 1, 0.0);
    report.sample("stream/incremental/round", "us", &Sample::of(&incr_us));
    report.sample("stream/full/round", "us", &Sample::of(&full_us));
    let refreshed = refreshed_total as f64;
    report.entry(
        "stream/incremental/rows_refreshed",
        "rows",
        refreshed,
        rounds,
        0.0,
    );
    record_latency(&mut report, "stream/http/mutate", http_rps, &samples);
    report.entry(
        "stream/http/graph_version_final",
        "version",
        last_version as f64,
        1,
        0.0,
    );
    report.ratio("stream/incremental_vs_full", Rule::Speedup, speedup);
    report.invariant(
        "stream/incremental_vs_full",
        speedup,
        Limit::AtLeast(STREAM_SPEEDUP_FLOOR),
    );
    report.finish()
}
