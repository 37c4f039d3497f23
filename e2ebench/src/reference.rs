//! How fast the machine runs right now, measured next to every AL call
//! and around the serving traffic.
//!
//! On a shared machine the neighbours' load moves the CPU time of one AL
//! loop call by 30-90% between sets of runs of the same code: they change
//! the core's clock and share its last-level cache and memory bandwidth,
//! so every instruction and every cache miss gets dearer while the CPU
//! time still counts. A fixed unit of work, written here and not in the
//! repo's crates so that no change to them can speed it up, is timed just
//! before and just after every call; the AL workloads scale each call's
//! CPU time by how much slower than [`NOMINAL_UNIT_S`] the unit ran
//! around it, and `serve_mixed` its server CPU per request likewise.
//!
//! The unit is half a chain of dependent multiplies (its time follows
//! the clock) and half random reads over a 64 MiB table (its time follows
//! the memory the neighbours leave). Candidates were timed around 30
//! `al_loop` calls on a loaded 2-vCPU machine: the log CPU time of a call
//! followed the log cost of this unit with correlation 0.60 and slope
//! 1.04, and scaling by it cut the spread of per-call log times from
//! 0.151 to 0.120 (standard deviation). An in-cache matrix product
//! followed with slope 0.38 and raised the spread to 0.180; reads over a
//! 4 MiB table did not lower it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Seconds of one unit on the quiet 2-vCPU Xeon the benchmark was
/// calibrated on; the AL end-to-end times are stated at this speed.
pub const NOMINAL_UNIT_S: f64 = 2.8e-4;
/// Wall time each measurement runs units for.
pub const WINDOW: Duration = Duration::from_millis(1000);

/// Dependent multiplies per unit.
const CHAIN: usize = 100_000;
/// Words of the read table, 64 MiB: more than a neighbour-shared
/// last-level cache holds for one tenant.
const WORDS: usize = 1 << 23;
/// Random reads per unit: they take about as long as the chain.
const READS: usize = 11_000;

/// One unit. `state` carries from unit to unit so no two read the same
/// places.
fn unit(words: &[u64], state: &mut u64) {
    let mut x = *state | 1;
    for _ in 0..CHAIN {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (x >> 29);
    }
    let mut sum = 0u64;
    for _ in 0..READS {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        sum = sum.wrapping_add(words[(*state >> 40) as usize % WORDS]);
    }
    black_box((x, sum));
}

/// Median seconds of one unit, over units run for about [`WINDOW`] on
/// this thread. Each unit is timed on its own, so the few the scheduler
/// or the hypervisor cut into do not move the median: like the CPU time
/// of a call, it leaves out time the thread did not run. The table is
/// made (untimed) and freed on every call.
pub fn measure() -> f64 {
    let words: Vec<u64> = (0..WORDS as u64).collect();
    let mut state = 1u64;
    for _ in 0..8 {
        unit(&words, &mut state);
    }
    let t = Instant::now();
    let mut costs = Vec::new();
    while t.elapsed() < WINDOW {
        let u = Instant::now();
        unit(&words, &mut state);
        costs.push(u.elapsed().as_secs_f64());
    }
    crate::metrics::median(&costs)
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_unit_costs_a_positive_finite_time() {
        let s = super::measure();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
