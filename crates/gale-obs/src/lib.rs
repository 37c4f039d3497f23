//! # gale-obs
//!
//! Structured tracing, metrics, and run telemetry for the GALE training
//! pipeline. Zero external dependencies (JSONL encoding rides on the
//! in-tree `gale-json`).
//!
//! Three layers:
//!
//! * **Metrics** ([`metrics`]): a global, lock-sharded registry of
//!   [`metrics::Counter`]s, [`metrics::Gauge`]s, and fixed-bucket
//!   [`metrics::Histogram`]s. The [`counter_add!`], [`gauge_set!`], and
//!   [`hist_record!`] macros compile down to a single relaxed atomic load
//!   when telemetry is disabled.
//! * **Spans & events** ([`span`](mod@span)): [`span!`] produces nested, wall-clock
//!   timed spans with key-value fields; [`event!`] emits point-in-time
//!   records. Both serialize to a JSONL trace via the [`trace`] sink, and
//!   both stamp the current request id ([`span::request_scope`]) so a
//!   trace filters down to one request's phase tree.
//! * **Request rings** ([`ring`]): fixed-capacity, non-blocking in-memory
//!   sinks for per-request [`ring::WideEvent`]s — head-sampled recents
//!   plus tail-captured slow/errored requests — built for serving paths
//!   where per-record file IO is unaffordable. Independent of `GALE_OBS`;
//!   the server switches them with [`ring::configure`].
//! * **Run reports** ([`report::RunReport`]): a per-iteration table plus
//!   totals, JSON round-trippable and renderable as an aligned text table.
//!
//! ## Configuration
//!
//! * `GALE_OBS=1` enables telemetry (anything else disables it). The state
//!   is read once, lazily; tests override it with [`set_enabled`].
//! * `GALE_OBS_PATH` sets the JSONL trace path. Unset, the path is
//!   `gale_trace.<pid>.jsonl` (truncated per process) so concurrent
//!   processes in one directory never clobber each other's traces.
//!
//! ## Overhead contract
//!
//! With telemetry disabled every macro is a single relaxed atomic load;
//! spans still read the monotonic clock (their durations feed
//! [`crate::report::RunReport`]s and `GaleOutcome` timings, which exist
//! with telemetry off too) but allocate nothing and write nothing.
//! Telemetry never touches any RNG or numeric state: enabling it is
//! guaranteed not to perturb model output (asserted by the
//! `par_determinism` and `obs_smoke` test suites).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU8, Ordering};

pub mod metrics;
pub mod procinfo;
pub mod report;
pub mod ring;
pub mod span;
pub mod trace;

pub use gale_json::Value;
pub use procinfo::{peak_rss_bytes, record_peak_rss};
pub use report::RunReport;
pub use ring::{TracePolicy, WideEvent};
pub use span::{Span, SpanTimer};

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Whether telemetry is enabled. The first call reads `GALE_OBS` from the
/// environment; the result is cached so subsequent calls are a single
/// relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_enabled(),
    }
}

#[cold]
fn init_enabled() -> bool {
    let on = std::env::var("GALE_OBS").is_ok_and(|v| v.trim() == "1");
    set_enabled(on);
    on
}

/// Forces telemetry on or off, overriding `GALE_OBS`. Intended for tests
/// and embedding applications; affects every thread.
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Adds to a named counter. Near-zero cost when telemetry is disabled.
///
/// ```
/// gale_obs::counter_add!("doc.widgets", 3);
/// ```
#[macro_export]
macro_rules! counter_add {
    ($name:expr, $v:expr) => {
        if $crate::enabled() {
            static __SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
                ::std::sync::OnceLock::new();
            __SLOT
                .get_or_init(|| $crate::metrics::counter($name))
                .add($v as u64);
        }
    };
}

/// Sets a named gauge. Near-zero cost when telemetry is disabled.
#[macro_export]
macro_rules! gauge_set {
    ($name:expr, $v:expr) => {
        if $crate::enabled() {
            static __SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Gauge> =
                ::std::sync::OnceLock::new();
            __SLOT
                .get_or_init(|| $crate::metrics::gauge($name))
                .set($v as f64);
        }
    };
}

/// Records a value into a named fixed-bucket histogram. `$bounds` must be
/// a `&'static [f64]` of ascending bucket upper bounds (see
/// [`metrics::buckets`]). Near-zero cost when telemetry is disabled.
#[macro_export]
macro_rules! hist_record {
    ($name:expr, $bounds:expr, $v:expr) => {
        if $crate::enabled() {
            static __SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
                ::std::sync::OnceLock::new();
            __SLOT
                .get_or_init(|| $crate::metrics::histogram($name, $bounds))
                .record($v as f64);
        }
    };
}

/// Opens a wall-clock span. Fields are `name = expr` pairs (any
/// `Into<Value>`). The span emits a JSONL trace record when finished (or
/// dropped) while telemetry is enabled; its [`Span::finish`] always
/// returns the measured [`std::time::Duration`], so phase timings work
/// with telemetry off too.
///
/// ```
/// let sp = gale_obs::span!("doc.phase", iter = 3usize);
/// let elapsed = sp.finish();
/// assert!(elapsed.as_secs() < 60);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::open($name)
    };
    ($name:expr $(, $k:ident = $v:expr)+ $(,)?) => {
        $crate::span::open($name)$(.field(stringify!($k), $v))+
    };
}

/// Emits a point-in-time trace event with `name = expr` fields. A no-op
/// (fields not even evaluated) when telemetry is disabled.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::span::emit_event(
                $name,
                ::std::vec![$((stringify!($k), $crate::Value::from($v))),*],
            );
        }
    };
}

/// Prints an informational line to stdout and mirrors it into the trace
/// (as a `log` event) when telemetry is enabled. The single console sink
/// for the harness binaries.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::trace::log("info", ::std::format!($($arg)*))
    };
}

/// Prints a warning line to stderr and mirrors it into the trace when
/// telemetry is enabled.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::trace::log("warn", ::std::format!($($arg)*))
    };
}

/// Serializes tests that touch the global enabled flag or trace sink.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    #[test]
    fn toggling_enabled_is_visible() {
        let _g = super::test_guard();
        super::set_enabled(true);
        assert!(super::enabled());
        super::set_enabled(false);
        assert!(!super::enabled());
    }

    #[test]
    fn disabled_macros_are_noops() {
        let _g = super::test_guard();
        super::set_enabled(false);
        // None of these may touch the registry (a later lookup of the same
        // names as *different* kinds would panic if they registered).
        crate::counter_add!("lib.noop", 1);
        crate::gauge_set!("lib.noop", 1.0);
        crate::hist_record!("lib.noop", crate::metrics::buckets::UNIT, 0.5);
        crate::event!("lib.noop", x = 1);
        assert!(crate::metrics::snapshot()
            .iter()
            .all(|(name, _)| name != "lib.noop"));
    }
}
