//! Metric vocabulary, statistics helpers and result printing.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics of `BENCHMARK.json`, in its order: every
/// workload reports every one, measured with tracing off. The names are
/// roles; `README.md` maps each onto the workload's own quantity.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("throughput", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of `BENCHMARK.json`, in its order. A traced run
/// prints all of them; a layer its workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.prepare_s", "s"),
    ("data.generate_s", "s"),
    ("core.select_s", "s"),
    ("core.annotate_s", "s"),
    ("core.train_s", "s"),
    ("core.train_cold_s", "s"),
    ("core.queries", "count"),
    ("core.f1", "ratio"),
    ("core.augment_s", "s"),
    ("core.eval_s", "s"),
    ("core.unattributed_s", "s"),
    ("core.memo_hit_rate", "ratio"),
    ("core.memo_lookups", "count"),
    ("core.changed_frac_mean", "ratio"),
    ("core.typicality_reuses", "count"),
    ("detect.library_s", "s"),
    ("graph.soft_labels_s", "s"),
    ("graph.ppr_access_s", "s"),
    ("nn.gae_sampled_epoch_s", "s"),
    ("tensor.gemm_gflop", "GFLOP"),
    ("tensor.spmm_gflop", "GFLOP"),
    ("tensor.pairwise_gflop", "GFLOP"),
    ("tensor.kmeans_pruned", "count"),
    ("tensor.workspace_hit_rate", "ratio"),
    ("tensor.workspace_takes", "count"),
    ("tensor.par_busy_s", "s"),
    ("serve.read_us_mean", "us"),
    ("serve.parse_us_mean", "us"),
    ("serve.dispatch_us_mean", "us"),
    ("serve.queue_us_mean", "us"),
    ("serve.assembly_us_mean", "us"),
    ("serve.forward_us_mean", "us"),
    ("serve.write_us_mean", "us"),
    ("serve.queue_us_p99", "us"),
    ("serve.queue_us_mean_lo", "us"),
    ("serve.batch_rows_mean", "rows"),
    ("serve.requests", "count"),
    ("serve.shed", "count"),
    ("serve.error_rate", "ratio"),
    ("stream.mutate_us_mean", "us"),
    ("stream.mutate_us_p99", "us"),
    ("stream.refresh_us_mean", "us"),
    ("stream.refresh_us_p99", "us"),
    ("stream.dirty_nodes_per_mutation", "count"),
    ("stream.edges_offered", "count"),
    ("stream.quarantined_frac", "ratio"),
    ("stream.compactions", "count"),
    ("loadgen.lag_p99_us", "us"),
    ("obs.overhead_frac", "ratio"),
];

/// One reported number with its unit and the sample count behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    /// How the value was taken (statistic, base of a ratio, ...).
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize, note: &str) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            note: note.to_string(),
        }
    }
}

/// A named pass/fail correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted and failed (loop calls, or HTTP requests).
    pub attempted: u64,
    pub failed: u64,
    /// The workload's own end-to-end metrics, under the names the
    /// workload documents (printed, not part of the JSON line).
    pub headline: Vec<Metric>,
    /// Role metrics for the JSON line (`END_TO_END`).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics for the JSON line (`PER_LAYER`).
    pub layers: Vec<Metric>,
    /// Stage → seconds of the AL loop's wall time, for the attribution
    /// table (empty for serving).
    pub attribution: Vec<(String, f64)>,
    pub attribution_total: f64,
    pub checks: Vec<Check>,
    /// The server's command-line flags (`-` when no server runs).
    pub server_flags: String,
}

impl Run {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn headline(
        &mut self,
        name: &str,
        unit: &'static str,
        value: f64,
        samples: usize,
        note: &str,
    ) {
        self.headline
            .push(Metric::new(name, unit, value, samples, note));
    }

    pub fn layer(&mut self, name: &str, value: f64, samples: usize, note: &str) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"))
            .1;
        self.layers
            .push(Metric::new(name, unit, value, samples, note));
    }

    pub fn end_to_end(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "`{name}` is not an end-to-end metric"
        );
        self.end_to_end.insert(name, value);
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    pub fn print_report(&self) {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<34} {:>14} {:<6} {:>8}  note",
            "metric", "value", "unit", "samples"
        );
        for m in self.headline.iter().chain(&self.layers) {
            let _ = writeln!(
                out,
                "{:<34} {:>14.6} {:<6} {:>8}  {}",
                m.name, m.value, m.unit, m.samples, m.note
            );
        }
        if !self.attribution.is_empty() {
            let _ = writeln!(
                out,
                "attribution of run_s = {:.3} s:",
                self.attribution_total
            );
            for (stage, s) in &self.attribution {
                let _ = writeln!(
                    out,
                    "  {:<30} {:>9.3} s {:>6.1}%",
                    stage,
                    s,
                    100.0 * s / self.attribution_total.max(1e-12)
                );
            }
        }
        for c in &self.checks {
            let _ = writeln!(
                out,
                "check {:<40} {}  {}",
                c.name,
                if c.ok { "ok" } else { "FAILED" },
                c.detail
            );
        }
        print!("{out}");
    }

    /// The machine-read last line: the end-to-end set (`trace == false`)
    /// or the per-layer set, every value as measured.
    pub fn result_line(&self, trace: bool) -> String {
        let mut correct = self.correct();
        let mut body = Vec::new();
        let names = if trace { PER_LAYER } else { END_TO_END };
        for (name, unit) in names {
            let value = if trace {
                self.layers
                    .iter()
                    .find(|m| m.name == *name)
                    .map_or(0.0, |m| m.value)
            } else {
                match self.end_to_end.get(name) {
                    Some(v) => *v,
                    None => {
                        correct = false;
                        0.0
                    }
                }
            };
            let value = if value.is_finite() {
                value
            } else {
                correct = false;
                0.0
            };
            body.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// Median of a sample (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile of an ascending sample, `q` in `[0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest of p99.9/p99/p95/p90/p75/p50 that has at least ten
/// samples beyond it, with its label; `None` below twenty samples.
pub fn tail_quantile(n: usize) -> Option<(f64, &'static str)> {
    [
        (0.999, "p99.9"),
        (0.99, "p99"),
        (0.95, "p95"),
        (0.9, "p90"),
        (0.75, "p75"),
        (0.5, "p50"),
    ]
    .into_iter()
    .find(|(q, _)| n as f64 * (1.0 - q) >= 10.0 - 1e-9)
}

/// Peak resident set (`VmHWM`) of a process in MiB; `pid` `None` reads
/// this process.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time (user + system, all threads) a process has used so far, in
/// seconds. `/proc/<pid>/stat` counts USER_HZ ticks, which the Linux ABI
/// fixes at 100 per second.
pub fn cpu_seconds(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| {
            // utime and stime are fields 14 and 15; the command name in
            // field 2 is parenthesised and may hold spaces.
            let fields: Vec<&str> = s.rsplit_once(')')?.1.split_whitespace().collect();
            Some(fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?)
        })
        .map_or(f64::NAN, |ticks| ticks / 100.0)
}

/// Bitwise equality of two score vectors.
pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A parsed Prometheus text exposition: series text → value.
#[derive(Debug, Clone, Default)]
pub struct Scrape(pub BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut map = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            if let Some((series, value)) = line.rsplit_once(' ') {
                let v = match value {
                    "+Inf" => f64::INFINITY,
                    "-Inf" => f64::NEG_INFINITY,
                    other => other.parse().unwrap_or(f64::NAN),
                };
                map.insert(series.to_string(), v);
            }
        }
        Scrape(map)
    }

    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// `after − self` for one series.
    pub fn delta(&self, after: &Scrape, series: &str) -> f64 {
        after.get(series) - self.get(series)
    }

    /// Mean of a histogram over the window `self → after`.
    pub fn hist_mean(&self, after: &Scrape, name: &str) -> f64 {
        let count = self.delta(after, &format!("{name}_count"));
        if count <= 0.0 {
            return 0.0;
        }
        self.delta(after, &format!("{name}_sum")) / count
    }

    /// Observation count of a histogram over the window.
    pub fn hist_count(&self, after: &Scrape, name: &str) -> f64 {
        self.delta(after, &format!("{name}_count"))
    }

    /// Quantile of a histogram over the window, interpolated linearly
    /// inside the bucket that holds it (the usual bucket estimate).
    pub fn hist_quantile(&self, after: &Scrape, name: &str, q: f64) -> f64 {
        let prefix = format!("{name}_bucket{{le=\"");
        let mut buckets: Vec<(f64, f64)> = after
            .0
            .keys()
            .filter_map(|k| {
                let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((bound, self.delta(after, k)))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total = buckets.last().map_or(0.0, |b| b.1);
        if total <= 0.0 {
            return 0.0;
        }
        let rank = q * total;
        let (mut lo, mut below) = (0.0, 0.0);
        for (bound, cum) in buckets {
            if cum >= rank {
                if !bound.is_finite() {
                    return lo;
                }
                let inside = (cum - below).max(1e-12);
                return lo + (bound - lo) * ((rank - below) / inside).clamp(0.0, 1.0);
            }
            lo = bound;
            below = cum;
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(10_000).unwrap().1, "p99.9");
        assert_eq!(tail_quantile(1_000).unwrap().1, "p99");
        assert_eq!(tail_quantile(999).unwrap().1, "p95");
        assert_eq!(tail_quantile(200).unwrap().1, "p95");
        assert_eq!(tail_quantile(20).unwrap().1, "p50");
        assert!(tail_quantile(19).is_none());
    }

    #[test]
    fn histogram_deltas_and_quantiles() {
        let before = Scrape::parse(
            "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_bucket{le=\"20\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 5\nh_count 1\n",
        );
        let after = Scrape::parse(
            "h_bucket{le=\"10\"} 6\nh_bucket{le=\"20\"} 11\nh_bucket{le=\"+Inf\"} 11\nh_sum 155\nh_count 11\n",
        );
        assert_eq!(before.hist_count(&after, "h"), 10.0);
        assert_eq!(before.hist_mean(&after, "h"), 15.0);
        // Ten new samples: five in (0, 10], five in (10, 20].
        assert_eq!(before.hist_quantile(&after, "h", 0.5), 10.0);
        assert_eq!(before.hist_quantile(&after, "h", 1.0), 20.0);
        assert_eq!(before.hist_quantile(&after, "h", 0.75), 15.0);
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to e2ebench/");
        let doc = gale_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(gale_json::Value::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(gale_json::Value::as_str)
                            .unwrap()
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_prints_every_metric_of_its_set() {
        let mut run = Run::default();
        for (name, _) in END_TO_END {
            run.end_to_end(name, 1.5);
        }
        run.layer("core.select_s", 0.25, 1, "");
        let line = run.result_line(false);
        let doc = gale_json::from_str(&line).unwrap();
        let metrics = doc.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            assert_eq!(
                metrics.get(name).unwrap().get("value").unwrap().as_f64(),
                Some(1.5)
            );
            assert_eq!(
                metrics.get(name).unwrap().get("unit").unwrap().as_str(),
                Some(*unit)
            );
        }
        let traced = gale_json::from_str(&run.result_line(true)).unwrap();
        let layers = traced.get("metrics").unwrap();
        assert_eq!(layers.as_object().unwrap().len(), PER_LAYER.len());
        assert_eq!(
            layers
                .get("core.select_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.25)
        );
    }
}
