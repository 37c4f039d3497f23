//! Every committed `BENCH_*.json` is a full-run `gale-bench/v2` report:
//! a smoke or older file is refused as a baseline by the gate.

use gale_bench::paths::repo_root;
use gale_bench::report::{file_name, read_baseline};

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
    let want = ["kernels", "scale", "select", "serve", "stream"];
    assert_eq!(benches, want);
}
