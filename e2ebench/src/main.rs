//! `gale-e2ebench`: one command for the repo's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload al_loop|al_scale|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the root of a checkout. Every run builds the shipped
//! `gale-serve` binary first (a no-op when it is fresh), generates its
//! inputs from `--seed` before any clock starts, measures for about
//! `--seconds`, checks the outputs, prints a human-readable report, and
//! ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end set of
//! `BENCHMARK.json`; with `--trace 1` they are the per-layer set. See
//! `e2ebench/README.md` for what each workload measures and why.

mod al;
mod metrics;
mod openloop;
mod reference;
mod serve;

use metrics::Run;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The seed results are quoted at, and the one held out to confirm a
/// claim made at the default seed.
pub const DEFAULT_SEED: u64 = 1;
pub const HOLDOUT_SEED: u64 = 1009;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        let bad = |what: &str| format!("flag `{flag}` wants {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !["al_loop", "al_scale", "serve_mixed"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload wants al_loop|al_scale|serve_mixed, got `{}`",
            args.workload
        ));
    }
    Ok(args)
}

/// Everything a workload needs from its surroundings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub work: PathBuf,
    /// The freshly built `gale-serve` binary.
    pub serve_bin: PathBuf,
}

/// Builds the shipped `gale-serve` binary from the checkout's own
/// workspace (into `CARGO_TARGET_DIR` when set, `target/` otherwise) and
/// returns its path. Fails outside a checkout of the repo.
fn build_serve_binary() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/gale-serve").is_dir() {
        return Err("run from the root of a checkout of the repo".into());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = std::process::Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "gale-serve",
            "--bin",
            "gale-serve",
        ])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building gale-serve failed ({status})"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = Path::new(&target).join("release").join("gale-serve");
    if !bin.is_file() {
        return Err(format!("built gale-serve not found at {}", bin.display()));
    }
    Ok(bin)
}

fn commit() -> String {
    // The checkout the benchmark runs in need not be a git repository;
    // record the commit only when one is at hand.
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// What every result is recorded with: results from a different machine,
/// thread count, profile or flag set are not comparable.
fn fingerprint(args: &Args, run: &Run) -> gale_json::Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    gale_json::json!({
        "workload": args.workload.as_str(),
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "threads": if args.workload.starts_with("al_") {
            al::AL_THREADS
        } else {
            gale_tensor::par::max_threads()
        },
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "commit": commit(),
        "server_flags": run.server_flags.as_str(),
    })
}

/// Copies the tail of every server log in `work` to stderr, so a failed
/// run explains itself after its work directory is gone.
fn print_server_logs(work: &Path) {
    let Ok(entries) = std::fs::read_dir(work) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "log") {
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            let lines: Vec<&str> = text.lines().collect();
            eprintln!("--- {}", path.display());
            for line in &lines[lines.len().saturating_sub(20)..] {
                eprintln!("{line}");
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("e2ebench: {msg}");
            return ExitCode::from(2);
        }
    };
    let serve_bin = match build_serve_binary() {
        Ok(b) => b,
        Err(msg) => {
            eprintln!("e2ebench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let work = PathBuf::from(".e2ebench-work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("e2ebench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: work.clone(),
        serve_bin,
    };
    let result = match args.workload.as_str() {
        "al_loop" => al::run_loop(&ctx),
        "al_scale" => al::run_scale(&ctx),
        _ => serve::run(&ctx),
    };
    if let Err(msg) = &result {
        eprintln!("e2ebench: {} failed: {msg}", args.workload);
        print_server_logs(&work);
    }
    std::fs::remove_dir_all(&work).ok();
    // Leave no empty parent behind once the last concurrent run is done.
    std::fs::remove_dir(".e2ebench-work").ok();
    let Ok(run) = result else {
        return ExitCode::FAILURE;
    };
    println!("fingerprint {}", fingerprint(&args, &run));
    run.print_report();
    println!("{}", run.result_line(args.trace));
    ExitCode::SUCCESS
}
