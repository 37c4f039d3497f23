//! Every committed `BENCH_*.json` is a full-run `gale-bench/v2` report:
//! a smoke or older file is refused as a baseline by the gate.

use gale_bench::paths::repo_root;
use gale_bench::report::{file_name, read_baseline, Rule};

#[test]
fn committed_reports_are_full_v2_runs() {
    let mut benches = Vec::new();
    for entry in std::fs::read_dir(repo_root()).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            let report = read_baseline(&path).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(file_name(&report.bench), name);
            benches.push(report.bench);
        }
    }
    benches.sort();
    let want = ["kernels", "precision", "scale", "select", "serve", "stream"];
    assert_eq!(benches, want);
}

/// Both halves of `BENCH_precision.json` are in the committed file: a
/// re-take that skipped `gale-loadgen bench-precision` would leave the
/// served tolerance without a baseline.
#[test]
fn committed_precision_report_carries_both_tolerance_halves() {
    let path = repo_root().join(file_name("precision"));
    let report = read_baseline(&path).unwrap_or_else(|e| panic!("{e}"));
    let rule_of = |name: &str| {
        report
            .ratios
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.rule)
    };
    for half in ["tolerance", "serve"] {
        let flips = rule_of(&format!("{half}/verdict_flips"));
        let divergence = rule_of(&format!("{half}/max_abs_divergence"));
        let want = (Some(Rule::Flips), Some(Rule::Divergence));
        assert_eq!((flips, divergence), want, "{half}");
    }
}
