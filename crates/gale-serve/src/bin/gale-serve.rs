//! The `gale-serve` command-line entry point.
//!
//! Four subcommands:
//!
//! - `gale-serve train-demo --out model.ckpt [--dim N] [--seed S]` — trains
//!   a small SGAN on synthetic two-cluster data and writes a checkpoint, so
//!   the serving path can be exercised without a full pipeline run.
//! - `gale-serve serve --ckpt model.ckpt [--addr HOST:PORT] [--shards N]
//!   [--precision f64|f32] [--max-batch N] [--max-wait-us U]
//!   [--queue-capacity N]` — loads the checkpoint and serves `/score`,
//!   `/healthz`, `/metrics`, `/admin/reload`, and the `/debug/{trace,
//!   slow,queues}` introspection endpoints until `POST /admin/shutdown`
//!   drains it. `--trace off` switches request tracing off;
//!   `--trace-sample`/`--trace-slow-us` tune the sampling policy.
//! - `gale-serve reload --addr HOST:PORT --ckpt PATH` — asks a running
//!   server to hot-swap to a new checkpoint and reports the new model
//!   version.

use gale_core::{ColumnStandardizer, Sgan, SganConfig};
use gale_json::json;
use gale_serve::{serve_with_stream, BatchConfig, Precision, ServeConfig};
use gale_stream::{load_bundle, save_bundle, StreamConfig};
use gale_tensor::{Matrix, Rng, SparseMatrix, SymNormalized};
use std::io::{Read, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("train-demo") => train_demo(&args[1..]),
        Some("stream-demo") => stream_demo(&args[1..]),
        Some("serve") => run_serve(&args[1..]),
        Some("reload") => run_reload(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            gale_obs::warn!("gale-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
gale-serve: sharded micro-batching inference server for GALE checkpoints

USAGE:
  gale-serve train-demo --out PATH [--dim N] [--seed S]
  gale-serve stream-demo --out DIR [--nodes N] [--dim D] [--seed S]
  gale-serve serve --ckpt PATH [--addr HOST:PORT] [--shards N]
                   [--precision f64|f32] [--max-batch N]
                   [--max-wait-us U] [--queue-capacity N]
                   [--retry-after-secs S] [--keep-alive-secs S]
                   [--trace on|off] [--trace-sample N] [--trace-slow-us U]
                   [--stream DIR]
  gale-serve reload --addr HOST:PORT --ckpt PATH

`stream-demo` trains a small graph model over a synthetic community graph
and writes a stream bundle; `serve --stream DIR` boots that bundle so
`POST /mutate`, node-mode `POST /score` ({\"nodes\": [...]}), and
`GET /debug/stream` come alive alongside the shard-pool endpoints.
";

/// Pulls `--flag value` pairs out of `args`; rejects unknown flags.
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

fn train_demo(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["--out", "--dim", "--seed"])?;
    let out = find(&flags, "--out").ok_or("train-demo requires --out PATH")?;
    let dim: usize = parse_num(&flags, "--dim", 8)?;
    let seed: u64 = parse_num(&flags, "--seed", 7)?;

    // Two Gaussian clusters: "correct" nodes near the origin, "errors"
    // shifted along every axis — enough signal for a demo discriminator.
    let mut rng = Rng::seed_from_u64(seed);
    let n = 128usize;
    let mut x = Matrix::randn(n, dim, 1.0, &mut rng);
    let mut targets = Vec::with_capacity(n / 2);
    for r in 0..n {
        let erroneous = r % 2 == 0;
        if erroneous {
            for c in 0..dim {
                x[(r, c)] += 2.5;
            }
        }
        if r < n / 2 {
            targets.push((r, usize::from(!erroneous)));
        }
    }

    let cfg = SganConfig {
        d_hidden: vec![16, 8],
        g_hidden: vec![16],
        epochs: 60,
        ..Default::default()
    };
    let mut sgan = Sgan::new(dim, &cfg, &mut rng);
    let x_s = Matrix::zeros(0, dim);
    let stats = sgan.train(&x, &x_s, &targets, &[], &mut rng);
    gale_obs::info!(
        "trained demo model: {} epochs, d_loss {:.4}",
        stats.epochs_run,
        stats.d_loss
    );
    sgan.save(out)
        .map_err(|e| format!("checkpoint write failed: {e}"))?;
    gale_obs::info!("checkpoint written to {out}");
    Ok(())
}

/// Trains the full streaming artifact set — graph, features, GAE encoder,
/// SGAN discriminator, frozen standardizer — over a synthetic community
/// graph with injected feature errors, and writes a stream bundle.
fn stream_demo(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["--out", "--nodes", "--dim", "--seed"])?;
    let out = find(&flags, "--out").ok_or("stream-demo requires --out DIR")?;
    let n: usize = parse_num(&flags, "--nodes", 1200)?;
    let dim: usize = parse_num(&flags, "--dim", 8)?;
    let seed: u64 = parse_num(&flags, "--seed", 11)?;
    if n < 32 {
        return Err("stream-demo needs --nodes >= 32".into());
    }

    // Community graph: a ring inside each community plus random
    // intra-community chords; features cluster around per-community
    // centers, and every 10th node gets an erroneous feature shift.
    let communities = 8usize;
    let mut rng = Rng::seed_from_u64(seed);
    let mut centers = Matrix::randn(communities, dim, 3.0, &mut rng);
    let mut x = Matrix::randn(n, dim, 1.0, &mut rng);
    let mut targets = Vec::new();
    for r in 0..n {
        let com = r % communities;
        for c in 0..dim {
            x[(r, c)] += centers[(com, c)];
        }
        let erroneous = r % 10 == 0;
        if erroneous {
            for c in 0..dim {
                x[(r, c)] += 4.0;
            }
        }
        if r < n / 2 {
            targets.push((r, usize::from(!erroneous)));
        }
    }
    centers.resize(0, 0);
    let mut triplets = Vec::new();
    let push_edge = |t: &mut Vec<(usize, usize, f64)>, u: usize, v: usize| {
        if u != v {
            t.push((u, v, 1.0));
            t.push((v, u, 1.0));
        }
    };
    for r in 0..n {
        push_edge(&mut triplets, r, (r + communities) % n);
    }
    for _ in 0..(n * 2) {
        let u = rng.below(n);
        let hop = 1 + rng.below(n / communities - 1);
        let v = (u + hop * communities) % n;
        push_edge(&mut triplets, u, v);
    }
    let a = SparseMatrix::from_triplets(n, n, triplets);

    let gae_cfg = gale_nn::GaeConfig {
        hidden_dim: 16,
        embed_dim: 8,
        epochs: 20,
        ..Default::default()
    };
    let s_norm = a.sym_normalized_with_self_loops();
    let mut gae = gale_nn::Gae::train(&x, &a, &s_norm, &gae_cfg, &mut rng);
    gale_obs::info!("stream-demo: GAE trained (loss {:.4})", gae.final_loss);

    // Embed through the access path — the exact operator the streaming
    // engine rebuilds at load time, so bundle bits match serving bits.
    let mut z = Matrix::zeros(0, 0);
    gae.embed(&SymNormalized::new(&a), &x, &mut z);
    let mut inputs = Matrix::zeros(n, dim + z.cols());
    for r in 0..n {
        let row = inputs.row_mut(r);
        row[..dim].copy_from_slice(x.row(r));
        row[dim..].copy_from_slice(z.row(r));
    }
    let st = ColumnStandardizer::fit(&inputs);
    st.apply(&mut inputs);

    let sgan_cfg = SganConfig {
        d_hidden: vec![24, 12],
        g_hidden: vec![24],
        epochs: 60,
        ..Default::default()
    };
    let mut sgan = Sgan::new(inputs.cols(), &sgan_cfg, &mut rng);
    let x_s = Matrix::zeros(0, inputs.cols());
    let stats = sgan.train(&inputs, &x_s, &targets, &[], &mut rng);
    gale_obs::info!(
        "stream-demo: SGAN trained ({} epochs, d_loss {:.4})",
        stats.epochs_run,
        stats.d_loss
    );

    let dir = std::path::Path::new(out);
    save_bundle(dir, &a, &x, &gae, &sgan, &st).map_err(|e| format!("bundle write failed: {e}"))?;
    gale_obs::info!(
        "stream bundle written to {out} ({n} nodes, {} edges)",
        a.nnz() / 2
    );
    Ok(())
}

fn run_serve(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "--ckpt",
            "--addr",
            "--shards",
            "--precision",
            "--max-batch",
            "--max-wait-us",
            "--queue-capacity",
            "--retry-after-secs",
            "--keep-alive-secs",
            "--trace",
            "--trace-sample",
            "--trace-slow-us",
            "--stream",
        ],
    )?;
    let ckpt = find(&flags, "--ckpt").ok_or("serve requires --ckpt PATH")?;
    let precision = match find(&flags, "--precision") {
        None => Precision::F64,
        Some(raw) => Precision::parse(raw)
            .ok_or_else(|| format!("flag `--precision` wants f64|f32, got `{raw}`"))?,
    };
    let trace = match find(&flags, "--trace").unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => return Err(format!("flag `--trace` wants on|off, got `{other}`")),
    };
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        addr: find(&flags, "--addr")
            .unwrap_or("127.0.0.1:7878")
            .to_string(),
        batch: BatchConfig {
            max_batch: parse_num(&flags, "--max-batch", BatchConfig::default().max_batch)?,
            max_wait_us: parse_num(&flags, "--max-wait-us", BatchConfig::default().max_wait_us)?,
            queue_capacity: parse_num(
                &flags,
                "--queue-capacity",
                BatchConfig::default().queue_capacity,
            )?,
        },
        retry_after_secs: parse_num(&flags, "--retry-after-secs", 1u32)?,
        shards: parse_num(&flags, "--shards", 1usize)?.max(1),
        precision,
        keep_alive_secs: parse_num(&flags, "--keep-alive-secs", 60u64)?,
        trace,
        trace_sample: parse_num(&flags, "--trace-sample", defaults.trace_sample)?,
        trace_slow_us: parse_num(&flags, "--trace-slow-us", defaults.trace_slow_us)?,
    };

    let model = Sgan::load(ckpt).map_err(|e| format!("cannot load `{ckpt}`: {e}"))?;
    gale_obs::info!(
        "loaded checkpoint `{ckpt}` (input_dim {})",
        model.input_dim()
    );
    let engine = match find(&flags, "--stream") {
        None => None,
        Some(dir) => {
            let engine = load_bundle(std::path::Path::new(dir), StreamConfig::default())
                .map_err(|e| format!("cannot load stream bundle `{dir}`: {e}"))?;
            gale_obs::info!(
                "stream bundle `{dir}` loaded ({} nodes, graph v{})",
                engine.node_count(),
                engine.graph_version()
            );
            Some(engine)
        }
    };
    let handle = serve_with_stream(model, &cfg, engine)
        .map_err(|e| format!("cannot bind `{}`: {e}", cfg.addr))?;
    handle.wait();
    gale_obs::info!("gale-serve drained and stopped");
    Ok(())
}

fn run_reload(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["--addr", "--ckpt"])?;
    let addr = find(&flags, "--addr").ok_or("reload requires --addr HOST:PORT")?;
    let ckpt = find(&flags, "--ckpt").ok_or("reload requires --ckpt PATH")?;
    // Ship an absolute path: the server resolves it relative to *its* cwd.
    let ckpt = std::fs::canonicalize(ckpt)
        .map_err(|e| format!("cannot resolve `{ckpt}`: {e}"))?
        .to_string_lossy()
        .into_owned();
    let body = json!({"ckpt": ckpt.as_str()}).to_string();
    let request = format!(
        "POST /admin/reload HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("request write failed: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("response read failed: {e}"))?;
    let status: u32 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("unparseable response: {response:?}"))?;
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.trim())
        .unwrap_or("");
    if status == 200 {
        println!("{payload}");
        Ok(())
    } else {
        Err(format!("server answered {status}: {payload}"))
    }
}
