//! The one bench contract: every `BENCH_<bench>.json` is a [`Report`]
//! under the `gale-bench/v2` schema, every gated ratio is timed by
//! [`paired`], and one [`gate`] compares a run with its committed
//! baseline.
//!
//! A report holds
//!
//! * `bench` and `smoke` (`GALE_BENCH_SMOKE=1`);
//! * `machine`: nproc, pool threads, SIMD tier, build profile, commit;
//! * `entries`: measurements (name, unit, value, samples, spread);
//! * `ratios`: checked against the committed baseline by their [`Rule`];
//! * `invariants`: checked against the run alone by their [`Limit`].
//!
//! [`Report::finish`] reads the committed `BENCH_<bench>.json` at the
//! repo root as the baseline, writes the run into `GALE_BENCH_OUT_DIR`
//! (default: the repo root, relative paths anchor there), and gates it.
//! A missing, unparseable, pre-v2 or smoke baseline is an error unless
//! `GALE_BENCH_NO_GATE=1`, which skips the gate altogether.

use crate::paths::{repo_path, repo_root};
use gale_json::{json, Value};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Schema tag every report carries.
const SCHEMA: &str = "gale-bench/v2";

/// A speedup is gated only when its baseline reaches this floor: a pair
/// near 1x carries no win to protect, so gating it would flag noise.
const SPEEDUP_FLOOR: f64 = 1.2;
/// A gated speedup fails below this share of its baseline.
const SPEEDUP_KEEP: f64 = 0.85;
/// An overhead ratio fails above this multiple of its baseline.
const OVERHEAD_GROWTH: f64 = 1.25;

/// Passes per paired measurement in full runs.
const PASSES: usize = 128;
/// Each pass repeats its op until it has run at least this long.
const MIN_PASS_S: f64 = 0.005;

/// `true` when `GALE_BENCH_SMOKE=1`: every bench runs its smallest
/// configuration once.
pub fn smoke() -> bool {
    env_flag("GALE_BENCH_SMOKE")
}

fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| v == "1")
}

/// Where reports are written: `GALE_BENCH_OUT_DIR` anchored at the repo
/// root, or the repo root itself.
pub fn out_dir() -> PathBuf {
    std::env::var("GALE_BENCH_OUT_DIR")
        .map(|p| repo_path(p.into()))
        .unwrap_or_else(|_| repo_root())
}

/// The file name of a bench's report.
pub fn file_name(bench: &str) -> String {
    format!("BENCH_{bench}.json")
}

/// How a ratio is checked against its baseline value `b` (full runs
/// only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Higher is better: fails below 0.85·b when b ≥ 1.2.
    Speedup,
    /// Lower is better: fails above 1.25·b.
    Overhead,
}

impl Rule {
    const ALL: [Rule; 2] = [Rule::Speedup, Rule::Overhead];

    fn as_str(self) -> &'static str {
        match self {
            Rule::Speedup => "speedup",
            Rule::Overhead => "overhead",
        }
    }

    /// `None` when the value passes against `base`, else the failure. A
    /// ratio the baseline lacks fails: a re-take that drops it must not
    /// drop it from the gate.
    fn check(self, name: &str, value: f64, base: Option<f64>) -> Option<String> {
        let Some(base) = base else {
            return Some(format!(
                "{name}: {value:.4} has no baseline value (re-take the baseline, see EXPERIMENTS.md)"
            ));
        };
        let (ok, what) = match self {
            Rule::Speedup if base < SPEEDUP_FLOOR => return None,
            Rule::Speedup => (value >= base * SPEEDUP_KEEP, "fell >15%"),
            Rule::Overhead => (value <= base * OVERHEAD_GROWTH, "grew >25%"),
        };
        (!ok).then(|| format!("{name}: {base:.4} -> {value:.4} ({what} vs baseline)"))
    }
}

/// The bound an invariant holds on full runs (smoke sizes are too small
/// for these bounds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    /// value ≤ bound.
    AtMost(f64),
    /// value ≥ bound.
    AtLeast(f64),
    /// value < bound.
    Below(f64),
}

impl Limit {
    fn parts(self) -> (&'static str, f64) {
        match self {
            Limit::AtMost(b) => ("<=", b),
            Limit::AtLeast(b) => (">=", b),
            Limit::Below(b) => ("<", b),
        }
    }

    fn holds(self, value: f64) -> bool {
        match self {
            Limit::AtMost(b) => value <= b,
            Limit::AtLeast(b) => value >= b,
            Limit::Below(b) => value < b,
        }
    }
}

/// One measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// `group/variant/size`-style id.
    pub name: String,
    /// Unit of `value` and `spread`.
    pub unit: String,
    /// The measurement (a median when `samples > 1`).
    pub value: f64,
    /// Samples behind `value`.
    pub samples: usize,
    /// Interquartile range of those samples, in `unit` (0 for one sample).
    pub spread: f64,
}

/// A ratio checked against the committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Ratio {
    /// Id, matched by name against the baseline.
    pub name: String,
    /// How it is checked.
    pub rule: Rule,
    /// This run's value.
    pub value: f64,
}

/// A bound checked against this run alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Invariant {
    /// Id.
    pub name: String,
    /// This run's value.
    pub value: f64,
    /// The bound it must hold.
    pub limit: Limit,
}

/// What a run was measured on: nproc, worker-pool threads (paired
/// timings run at one), the distance kernels' SIMD tier, the build
/// profile (`release` covers the bench profile) and the commit (`+dirty`
/// when the tree had changes). Results from another machine are not
/// comparable.
fn machine() -> Value {
    json!({
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "threads": gale_tensor::par::max_threads(),
        "simd": gale_tensor::distance::simd_tier(),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "commit": commit(),
    })
}

fn git(args: &[&str]) -> Option<String> {
    std::process::Command::new("git")
        .args(args)
        .current_dir(repo_root())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

fn commit() -> String {
    match git(&["rev-parse", "--short=12", "HEAD"]) {
        None => "unknown".into(),
        Some(head) => match git(&["status", "--porcelain", "--untracked-files=no"]) {
            Some(changes) if changes.is_empty() => head,
            _ => format!("{head}+dirty"),
        },
    }
}

/// One bench run in the v2 schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Bench name; the report file is `BENCH_<bench>.json`.
    pub bench: String,
    /// Whether this was a smoke run.
    pub smoke: bool,
    /// Where it ran: nproc, pool threads, SIMD tier, profile, commit.
    pub machine: Value,
    /// Measurements.
    pub entries: Vec<Entry>,
    /// Baseline-checked ratios.
    pub ratios: Vec<Ratio>,
    /// Run-checked bounds.
    pub invariants: Vec<Invariant>,
}

impl Report {
    /// An empty report for `bench` on this machine, smoke per the env.
    pub fn new(bench: &str) -> Report {
        Report {
            bench: bench.to_string(),
            smoke: smoke(),
            machine: machine(),
            entries: Vec::new(),
            ratios: Vec::new(),
            invariants: Vec::new(),
        }
    }

    /// Records a measurement.
    pub fn entry(
        &mut self,
        name: impl Into<String>,
        unit: &str,
        value: f64,
        samples: usize,
        spread: f64,
    ) {
        self.entries.push(Entry {
            name: name.into(),
            unit: unit.to_string(),
            value,
            samples,
            spread,
        });
    }

    /// Records a sample's median with its interquartile range.
    pub fn sample(&mut self, name: impl Into<String>, unit: &str, s: &Sample) {
        self.entry(name, unit, s.median, s.samples, s.p75 - s.p25);
    }

    /// Records `work` per second of a timed sample (e.g. GFLOP/s).
    pub fn rate(&mut self, name: impl Into<String>, unit: &str, work: f64, s: &Sample) {
        let spread = work / s.p25 - work / s.p75;
        self.entry(name, unit, work / s.median, s.samples, spread);
    }

    /// Records both sides of a pair as rates of `work` per second, named
    /// `<group>/<variant>/<size>`.
    pub fn pair_rates(
        &mut self,
        group: &str,
        variants: [&str; 2],
        size: usize,
        unit: &str,
        work: f64,
        p: &Pair,
    ) {
        for (variant, side) in variants.into_iter().zip([&p.a, &p.b]) {
            self.rate(format!("{group}/{variant}/{size}"), unit, work, side);
        }
    }

    /// Records a ratio for the gate.
    pub fn ratio(&mut self, name: impl Into<String>, rule: Rule, value: f64) {
        self.ratios.push(Ratio {
            name: name.into(),
            rule,
            value,
        });
    }

    /// Records an invariant for the gate.
    pub fn invariant(&mut self, name: impl Into<String>, value: f64, limit: Limit) {
        self.invariants.push(Invariant {
            name: name.into(),
            value,
            limit,
        });
    }

    /// The JSON document.
    pub fn to_json(&self) -> Value {
        json!({
            "schema": SCHEMA,
            "bench": self.bench.as_str(),
            "smoke": self.smoke,
            "machine": self.machine.clone(),
            "entries": Value::Array(self.entries.iter().map(|e| json!({
                "name": e.name.as_str(),
                "unit": e.unit.as_str(),
                "value": e.value,
                "samples": e.samples,
                "spread": e.spread,
            })).collect()),
            "ratios": Value::Array(self.ratios.iter().map(|r| json!({
                "name": r.name.as_str(),
                "rule": r.rule.as_str(),
                "value": r.value,
            })).collect()),
            "invariants": Value::Array(self.invariants.iter().map(|i| {
                let (op, bound) = i.limit.parts();
                json!({
                    "name": i.name.as_str(),
                    "value": i.value,
                    "limit": op,
                    "bound": bound,
                })
            }).collect()),
        })
    }

    /// Parses a v2 document; anything else is an error.
    pub fn from_json(doc: &Value) -> Result<Report, String> {
        let schema = doc.get("schema").and_then(Value::as_str);
        if schema != Some(SCHEMA) {
            return Err(format!("schema is {schema:?}, not {SCHEMA}"));
        }
        let field = |v: &Value, key: &str| -> Result<Value, String> {
            v.get(key)
                .cloned()
                .ok_or_else(|| format!("missing `{key}`"))
        };
        let num = |v: &Value, key: &str| {
            field(v, key)?
                .as_f64()
                .ok_or_else(|| format!("`{key}` is not a number"))
        };
        let text = |v: &Value, key: &str| {
            field(v, key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{key}` is not a string"))
        };
        let list = |key: &str| -> Result<Vec<Value>, String> {
            field(doc, key)?
                .as_array()
                .cloned()
                .ok_or_else(|| format!("`{key}` is not an array"))
        };
        let mut report = Report {
            bench: text(doc, "bench")?,
            smoke: field(doc, "smoke")?
                .as_bool()
                .ok_or("`smoke` is not a bool")?,
            machine: field(doc, "machine")?,
            entries: Vec::new(),
            ratios: Vec::new(),
            invariants: Vec::new(),
        };
        for e in list("entries")? {
            let samples = num(&e, "samples")? as usize;
            report.entry(
                text(&e, "name")?,
                &text(&e, "unit")?,
                num(&e, "value")?,
                samples,
                num(&e, "spread")?,
            );
        }
        for r in list("ratios")? {
            let rule = text(&r, "rule")?;
            let rule = Rule::ALL
                .into_iter()
                .find(|k| k.as_str() == rule)
                .ok_or_else(|| format!("unknown rule `{rule}`"))?;
            report.ratio(text(&r, "name")?, rule, num(&r, "value")?);
        }
        for i in list("invariants")? {
            let bound = num(&i, "bound")?;
            let limit = match text(&i, "limit")?.as_str() {
                "<=" => Limit::AtMost(bound),
                ">=" => Limit::AtLeast(bound),
                "<" => Limit::Below(bound),
                other => return Err(format!("unknown limit `{other}`")),
            };
            report.invariant(text(&i, "name")?, num(&i, "value")?, limit);
        }
        Ok(report)
    }

    /// Reads a v2 report file.
    pub fn read(path: &Path) -> Result<Report, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = gale_json::from_str(&text)
            .map_err(|e| format!("{} is not JSON: {e}", path.display()))?;
        Report::from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes the report into `dir` and returns the file's path.
    pub fn write(&self, dir: &Path) -> Result<PathBuf, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        let path = dir.join(file_name(&self.bench));
        std::fs::write(&path, gale_json::to_string_pretty(&self.to_json()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Reads the committed baseline, writes this run into
    /// [`out_dir`], then gates the run against the baseline.
    pub fn finish(&self) -> Result<(), String> {
        let baseline = repo_root().join(file_name(&self.bench));
        self.finish_with(&baseline, &out_dir(), env_flag("GALE_BENCH_NO_GATE"))
    }

    /// [`Report::finish`] for a bench `main`: flushes the trace first,
    /// and on a failure prints it and exits with status 1.
    pub fn finish_or_exit(&self) {
        gale_obs::trace::flush();
        if let Err(e) = self.finish() {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }

    fn finish_with(&self, baseline: &Path, out: &Path, no_gate: bool) -> Result<(), String> {
        // Read before writing: the output may replace the baseline file.
        let base = (!no_gate).then(|| read_baseline(baseline));
        let path = self.write(out)?;
        println!("{} bench report written to {}", self.bench, path.display());
        match base {
            None => Ok(()),
            Some(base) => {
                gate(self, &base?)?;
                println!("{} gate passed vs {}", self.bench, baseline.display());
                Ok(())
            }
        }
    }
}

/// Reads a baseline: a v2 report of a full run, or an error.
pub fn read_baseline(path: &Path) -> Result<Report, String> {
    let hint = "(re-take it with GALE_BENCH_NO_GATE=1, see EXPERIMENTS.md)";
    let base = Report::read(path).map_err(|e| format!("baseline {e} {hint}"))?;
    if base.smoke {
        return Err(format!("baseline {} is a smoke run {hint}", path.display()));
    }
    Ok(base)
}

/// The gate, on full runs: every ratio against the baseline's value of
/// the same name (missing counts as a failure), every invariant against
/// its bound. A smoke run's sizes are too small for either, so it passes.
/// Err lists every failure.
pub fn gate(report: &Report, baseline: &Report) -> Result<(), String> {
    let mut failures = Vec::new();
    if !report.smoke {
        for r in &report.ratios {
            let base = baseline.ratios.iter().find(|b| b.name == r.name);
            failures.extend(r.rule.check(&r.name, r.value, base.map(|b| b.value)));
        }
        for i in &report.invariants {
            if !i.limit.holds(i.value) {
                let (op, bound) = i.limit.parts();
                failures.push(format!("{}: {:.4} breaks {op} {bound:.4}", i.name, i.value));
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} gate failed:\n  {}",
            report.bench,
            failures.join("\n  ")
        ))
    }
}

/// Quartiles of a set of timings (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Median.
    pub median: f64,
    /// 25th percentile.
    pub p25: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Values summarized.
    pub samples: usize,
}

impl Sample {
    /// Summarizes `values` (at least one).
    pub fn of(values: &[f64]) -> Sample {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let q = |p: f64| {
            let x = p * (v.len() - 1) as f64;
            let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
        };
        Sample {
            median: q(0.5),
            p25: q(0.25),
            p75: q(0.75),
            samples: v.len(),
        }
    }
}

/// An interleaved pair: per-iteration seconds of each side, and the
/// per-pass ratios of `a`'s time over `b`'s (`b`'s speedup over `a`).
#[derive(Debug, Clone, Copy)]
pub struct Pair {
    /// The reference side.
    pub a: Sample,
    /// The measured side.
    pub b: Sample,
    /// Per-pass `a / b`; its median is the pair's ratio.
    pub ratio: Sample,
}

/// Repeat count that makes one pass of `op` last at least
/// [`MIN_PASS_S`], doubled from one until it does (which also warms up).
fn calibrate<R>(op: &mut impl FnMut() -> R) -> u32 {
    let mut iters = 1;
    while pass(op, iters) * f64::from(iters) < MIN_PASS_S && iters < 1 << 20 {
        iters *= 2;
    }
    iters
}

/// Per-iteration seconds of one pass of `iters` calls; each result goes
/// through `black_box`, so the work cannot be optimized away.
fn pass<R>(op: &mut impl FnMut() -> R, iters: u32) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        black_box(op());
    }
    t.elapsed().as_secs_f64() / iters as f64
}

fn passes() -> usize {
    if smoke() {
        1
    } else {
        PASSES
    }
}

/// Times `a` against `b`, the only way a gated speedup is measured.
/// Both run at one thread, in interleaved passes whose order alternates,
/// each pass repeating its op for at least 5 ms; the ratio is the
/// median of the per-pass ratios. A ratio of two sides timed at
/// different moments (or at two threads) measures the machine's load,
/// not the kernels. Each op's result goes through `black_box`.
pub fn paired<A, B>(name: &str, mut a: impl FnMut() -> A, mut b: impl FnMut() -> B) -> Pair {
    gale_tensor::par::with_threads(1, || {
        let (ia, ib) = if smoke() {
            (1, 1)
        } else {
            (calibrate(&mut a), calibrate(&mut b))
        };
        let n = passes();
        let (mut ta, mut tb, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        for p in 0..n {
            let (x, y) = if p % 2 == 0 {
                let x = pass(&mut a, ia);
                (x, pass(&mut b, ib))
            } else {
                let y = pass(&mut b, ib);
                (pass(&mut a, ia), y)
            };
            ta.push(x);
            tb.push(y);
            ratios.push(x / y.max(1e-12));
        }
        let pair = Pair {
            a: Sample::of(&ta),
            b: Sample::of(&tb),
            ratio: Sample::of(&ratios),
        };
        gale_obs::info!(
            "{name:<32} {:>10.3} ms vs {:>10.3} ms  {:>6.2}x  ({n} passes)",
            pair.a.median * 1e3,
            pair.b.median * 1e3,
            pair.ratio.median
        );
        gale_obs::event!("bench.pair", bench = name, ratio = pair.ratio.median);
        pair
    })
}

/// Times `op` alone at one thread, in the passes [`paired`] uses; for
/// throughput entries no ratio is gated on.
pub fn timed<R>(name: &str, mut op: impl FnMut() -> R) -> Sample {
    gale_tensor::par::with_threads(1, || {
        let iters = if smoke() { 1 } else { calibrate(&mut op) };
        let times: Vec<f64> = (0..passes()).map(|_| pass(&mut op, iters)).collect();
        let s = Sample::of(&times);
        gale_obs::info!("{name:<32} {:>10.3} ms", s.median * 1e3);
        s
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gale_tensor::par;

    fn run(smoke: bool) -> Report {
        let mut r = Report::new("unit");
        r.smoke = smoke;
        r
    }

    fn with_ratio(smoke: bool, name: &str, rule: Rule, value: f64) -> Report {
        let mut r = run(smoke);
        r.ratio(name, rule, value);
        r
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gale-report-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn each_rule_keeps_its_bound() {
        for (rule, base, value, smoke, passes) in [
            // A 30% slowdown on a gated speedup fails; 12.5% does not.
            (Rule::Speedup, Some(2.0), 1.4, false, false),
            (Rule::Speedup, Some(2.0), 1.75, false, true),
            (Rule::Speedup, Some(2.0), f64::NAN, false, false),
            // A baseline under the 1.2x floor stays ungated.
            (Rule::Speedup, Some(0.95), 0.1, false, true),
            (Rule::Overhead, Some(40.0), 40.0 * 1.26, false, false),
            (Rule::Overhead, Some(40.0), 40.0 * 1.24, false, true),
            // Smoke runs check no ratio.
            (Rule::Speedup, Some(2.0), 0.5, true, true),
            (Rule::Overhead, Some(40.0), 80.0, true, true),
            (Rule::Speedup, None, 2.0, true, true),
            // A ratio the baseline lacks fails a full run.
            (Rule::Speedup, None, 2.0, false, false),
            (Rule::Overhead, None, 1.0, false, false),
        ] {
            let baseline = match base {
                Some(b) => with_ratio(false, "r", rule, b),
                None => run(false),
            };
            let verdict = gate(&with_ratio(smoke, "r", rule, value), &baseline);
            assert_eq!(
                verdict.is_ok(),
                passes,
                "{rule:?} {base:?} -> {value}, smoke {smoke}"
            );
        }
    }

    #[test]
    fn invariants_bind_on_full_runs_only() {
        let base = run(false);
        for (value, limit, holds) in [
            (1.06, Limit::AtMost(1.05), false),
            (1.05, Limit::AtMost(1.05), true),
            (4.9, Limit::AtLeast(5.0), false),
            (4.0, Limit::Below(4.0), false),
            (f64::NAN, Limit::AtLeast(5.0), false),
        ] {
            let mut full = run(false);
            full.invariant("i", value, limit);
            assert_eq!(gate(&full, &base).is_ok(), holds, "{value} {limit:?}");
            full.smoke = true;
            assert!(gate(&full, &base).is_ok());
        }
    }

    #[test]
    fn reports_roundtrip_through_json() {
        let mut r = run(false);
        r.entry("matmul/tiled/512", "GFLOP/s", 7.5, 128, 0.25);
        r.ratio("matmul/256", Rule::Speedup, 4.5);
        r.ratio("wire_overhead", Rule::Overhead, 38.0);
        r.invariant(
            "scale/peak_rss/10000",
            5e7,
            Limit::Below(4.0 * 1024.0 * 1024.0 * 1024.0),
        );
        let back = Report::from_json(&gale_json::from_str(&r.to_json().to_string()).unwrap());
        assert_eq!(back, Ok(r));
    }

    #[test]
    fn unusable_baselines_are_errors_unless_the_gate_is_off() {
        let dir = scratch("baselines");
        let current = run(false);
        let smoke = dir.join("smoke.json");
        std::fs::write(&smoke, run(true).to_json().to_string()).unwrap();
        let v1 = dir.join("v1.json");
        std::fs::write(&v1, r#"{"schema": "gale-bench/v1", "smoke": false}"#).unwrap();
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "{not json").unwrap();
        let missing = dir.join("missing.json");
        let out = dir.join("out");
        for bad in [&smoke, &v1, &garbage, &missing] {
            let err = current.finish_with(bad, &out, false).unwrap_err();
            assert!(err.contains("baseline"), "{}: {err}", bad.display());
            assert!(current.finish_with(bad, &out, true).is_ok());
        }
        assert!(out.join(file_name("unit")).exists());
        let good = current.write(&dir).unwrap();
        assert!(current.finish_with(&good, &out, false).is_ok());
    }

    #[test]
    fn quartiles_interpolate() {
        let s = Sample::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.p25, s.median, s.p75, s.samples), (2.0, 3.0, 4.0, 5));
        assert_eq!(Sample::of(&[7.0]).median, 7.0);
    }

    #[test]
    fn paired_times_both_sides_at_one_thread() {
        let one_thread = std::cell::Cell::new(true);
        let mut check = || one_thread.set(one_thread.get() && par::current_threads() == 1);
        let pair = paired("unit", &mut check, || ());
        assert!(one_thread.get());
        assert!(pair.ratio.median.is_finite() && pair.a.samples == pair.b.samples);
    }
}
