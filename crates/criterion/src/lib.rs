//! In-tree, std-only subset of the `criterion` benchmarking API.
//!
//! The build environment is hermetic (no crates.io), so this crate keeps the
//! workspace's `[[bench]]` targets compiling and running: [`Criterion`],
//! [`BenchmarkGroup`], [`BenchmarkId`], [`Bencher::iter`], and the
//! [`criterion_group!`]/[`criterion_main!`] macros. Measurement is
//! wall-clock over a calibrated iteration count, reported as
//! min/mean/max per iteration — enough to compare parallel vs sequential
//! kernels, without criterion's statistical machinery.
//!
//! Setting `GALE_BENCH_SMOKE=1` collapses every benchmark to a single
//! iteration of a single sample so the whole suite finishes in seconds
//! (used by CI as a smoke test).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// `true` when `GALE_BENCH_SMOKE=1`: run everything once, skip calibration.
pub fn smoke_mode() -> bool {
    std::env::var("GALE_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
    target_sample_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            target_sample_time: Duration::from_millis(100),
        }
    }
}

impl Criterion {
    /// Runs a standalone benchmark.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        run_one(name, self.sample_size, self.target_sample_time, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            target_sample_time: self.target_sample_time,
            _criterion: self,
        }
    }

    /// Called by [`criterion_main!`] after all groups; kept for API parity.
    pub fn final_summary(&mut self) {}
}

/// Flushes buffered telemetry to disk. [`criterion_main!`] calls this after
/// the last group so bench traces survive process exit (the global sink is
/// a static and is never dropped).
pub fn flush_telemetry() {
    gale_obs::trace::flush();
}

/// A named benchmark group; IDs are reported as `group/function/param`.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    target_sample_time: Duration,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples each benchmark records.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the wall-clock budget per sample (used for calibration).
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.target_sample_time = d;
        self
    }

    /// Runs a benchmark inside this group.
    pub fn bench_function(
        &mut self,
        id: impl IntoBenchmarkId,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into_benchmark_id());
        run_one(&full, self.sample_size, self.target_sample_time, f);
        self
    }

    /// Runs a benchmark that receives a borrowed input value.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// A `function/parameter` benchmark identifier.
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// An id shown as `function/parameter`.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            text: format!("{}/{}", function.into(), parameter),
        }
    }

    /// An id carrying only a parameter value.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            text: parameter.to_string(),
        }
    }
}

/// Conversion into the printable benchmark id.
pub trait IntoBenchmarkId {
    /// The id text.
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.text
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

/// Timing harness handed to each benchmark closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `f`, preventing the result from being
    /// optimized away.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_one(
    name: &str,
    sample_size: usize,
    target_sample_time: Duration,
    mut f: impl FnMut(&mut Bencher),
) {
    let (samples, iters) = if smoke_mode() {
        (1usize, 1u64)
    } else {
        // Calibrate: one untimed warm-up pass sizes the per-sample count.
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        let per_iter = b.elapsed.max(Duration::from_nanos(1));
        let iters = (target_sample_time.as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000);
        (sample_size, iters as u64)
    };

    let mut times: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        times.push(b.elapsed.as_secs_f64() / iters as f64);
    }
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = times.iter().cloned().fold(0.0f64, f64::max);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    // Route through the shared console sink so bench output also lands in
    // the telemetry trace when GALE_OBS=1.
    gale_obs::info!(
        "{name:<48} time: [{} {} {}]  ({} samples x {} iters)",
        fmt_time(min),
        fmt_time(mean),
        fmt_time(max),
        samples,
        iters,
    );
    gale_obs::event!(
        "bench.sample",
        bench = name,
        mean_s = mean,
        min_s = min,
        max_s = max
    );
}

fn fmt_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.2} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{:.3} s", secs)
    }
}

/// Declares a group function that runs the listed benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main`, running each group; bench CLI arguments are ignored.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` passes harness flags (e.g. `--bench`); none apply.
            let _ = ::std::env::args();
            $($group();)+
            $crate::flush_telemetry();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        std::env::set_var("GALE_BENCH_SMOKE", "1");
        let mut c = Criterion::default();
        let mut ran = 0u32;
        {
            let mut group = c.benchmark_group("g");
            group.sample_size(10);
            group.bench_function(BenchmarkId::new("f", 4), |b| {
                b.iter(|| {
                    ran += 1;
                    ran
                })
            });
            group.finish();
        }
        // Smoke mode: exactly one sample of one iteration.
        assert_eq!(ran, 1);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 10).into_benchmark_id(), "f/10");
        assert_eq!(BenchmarkId::from_parameter(3).into_benchmark_id(), "3");
    }
}
