//! The request-scoped tracing ring: fixed-capacity, non-blocking in-memory
//! sinks for per-request "wide events", plus the sampling policy that
//! decides which requests are kept.
//!
//! The JSONL trace sink ([`crate::trace`]) serializes through one mutex and
//! writes to a file, which is fine for a training run emitting a few
//! records per iteration and unusable for a server answering tens of
//! thousands of requests per second. This module is the serving-grade
//! alternative: one [`WideEvent`] — a flat, `Copy`, allocation-free struct
//! — per request, pushed into a fixed-capacity ring that never does IO and
//! never blocks the writer.
//!
//! Two rings, two retention policies:
//!
//! * the **recent ring** holds head-sampled requests (1-in-N under a
//!   seeded, deterministic [`TracePolicy`]); `GET /debug/trace` drains it.
//! * the **slow ring** is tail capture: every request slower than the
//!   policy threshold or finishing with an error status is kept regardless
//!   of sampling; `GET /debug/slow` snapshots it without draining.
//!
//! ## Writer guarantees
//!
//! [`Ring::push`] claims a slot with one atomic `fetch_add` and then takes
//! the slot's lock with `try_lock` — it *never waits*. The only contender
//! is a reader mid-drain (writers can collide on a slot only after lapping
//! the whole ring within one another's critical section, which the
//! per-slot critical section — a single struct store — makes unobservable
//! in practice); on contention the record is dropped and counted, never
//! torn and never blocking the serving hot path. Records are therefore
//! always internally consistent: a drain sees each slot's struct fully
//! written or not at all (asserted by the `ring_concurrency` proptests at
//! 1/2/8 writer threads).

use gale_json::{json, Map, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Capacity of the head-sampled recent ring.
pub const RECENT_CAPACITY: usize = 512;

/// Capacity of the tail-capture slow ring.
pub const SLOW_CAPACITY: usize = 128;

/// One request's worth of serving telemetry: identity, placement, and the
/// seven per-stage timings of the scoring path. Flat and `Copy` so pushing
/// one into a ring is a handful of word stores — no allocation, no IO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WideEvent {
    /// Process-unique request id (also stamped into the `/score` reply).
    pub request_id: u64,
    /// Scorer shard that ran the forward pass (0 when the request never
    /// reached a shard, e.g. a parse failure or a shed).
    pub shard: u32,
    /// Model generation that scored the request (0 when unscored).
    pub model_version: u64,
    /// Rows in this request.
    pub rows: u32,
    /// Total rows in the coalesced batch this request rode in.
    pub batch_rows: u32,
    /// HTTP status the request was answered with.
    pub status: u16,
    /// Reading the request off the socket (first byte to fully buffered).
    pub read_us: u32,
    /// HTTP head + feature-JSON parsing.
    pub parse_us: u32,
    /// Shard selection and queue hand-off.
    pub dispatch_us: u32,
    /// Sitting in the shard queue before being popped.
    pub queue_us: u32,
    /// Batch assembly: popped until the batched forward started (linger
    /// plus buffer fill).
    pub assembly_us: u32,
    /// The batched forward pass.
    pub forward_us: u32,
    /// Response rendered until fully flushed to the socket.
    pub write_us: u32,
    /// Whole-request wall clock, first byte read to last byte written.
    pub total_us: u64,
}

impl WideEvent {
    /// The record as a JSON object (the `/debug/trace` wire format).
    pub fn to_json(&self) -> Value {
        json!({
            "request_id": self.request_id,
            "shard": self.shard as u64,
            "model_version": self.model_version,
            "rows": self.rows as u64,
            "batch_rows": self.batch_rows as u64,
            "status": self.status as u64,
            "read_us": self.read_us as u64,
            "parse_us": self.parse_us as u64,
            "dispatch_us": self.dispatch_us as u64,
            "queue_us": self.queue_us as u64,
            "assembly_us": self.assembly_us as u64,
            "forward_us": self.forward_us as u64,
            "write_us": self.write_us as u64,
            "total_us": self.total_us,
        })
    }
}

/// A fixed-capacity, non-blocking ring of [`WideEvent`]s.
///
/// Writers never wait: slot claim is one `fetch_add`, the slot store is a
/// `try_lock` that drops (and counts) the record on contention instead of
/// blocking. Readers lock slots one at a time, so a drain never stalls the
/// whole ring.
pub struct Ring {
    slots: Vec<Mutex<Option<WideEvent>>>,
    head: AtomicU64,
    dropped: AtomicU64,
}

impl Ring {
    /// An empty ring with `capacity` slots (at least 1).
    pub fn new(capacity: usize) -> Ring {
        Ring {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records ever pushed (including ones since overwritten or dropped).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records dropped because their slot was held by a reader mid-drain.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Pushes a record, overwriting the oldest once the ring is full.
    /// Never blocks: a slot currently held by a reader drops the record
    /// and bumps the drop counter instead.
    #[inline]
    pub fn push(&self, ev: WideEvent) {
        let i = self.head.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        match self.slots[i].try_lock() {
            Ok(mut slot) => *slot = Some(ev),
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Takes every record out of the ring, oldest first (by request id).
    pub fn drain(&self) -> Vec<WideEvent> {
        let mut out = self.collect(|slot| slot.take());
        out.sort_by_key(|ev| ev.request_id);
        out
    }

    /// Copies every record without removing it, oldest first.
    pub fn snapshot(&self) -> Vec<WideEvent> {
        let mut out = self.collect(|slot| *slot);
        out.sort_by_key(|ev| ev.request_id);
        out
    }

    fn collect(
        &self,
        mut read: impl FnMut(&mut Option<WideEvent>) -> Option<WideEvent>,
    ) -> Vec<WideEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let mut guard = slot.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(ev) = read(&mut guard) {
                out.push(ev);
            }
        }
        out
    }
}

/// The head-sampling + tail-capture policy. Deterministic: the same
/// `(sample_every, seed)` pair always keeps the same request ids, so
/// sampled traces reproduce across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracePolicy {
    /// Keep one request in `sample_every` in the recent ring (0 disables
    /// head sampling entirely; 1 keeps everything).
    pub sample_every: u64,
    /// Mixed into the sampling decision so which 1-in-N is kept can be
    /// varied (and tests can pin it).
    pub seed: u64,
    /// Tail capture: requests at or above this total latency go to the
    /// slow ring regardless of sampling.
    pub slow_us: u64,
}

impl Default for TracePolicy {
    fn default() -> Self {
        TracePolicy {
            sample_every: 16,
            seed: 0,
            slow_us: 50_000,
        }
    }
}

impl TracePolicy {
    /// The head-sampling decision for a request id: exactly one id in
    /// every aligned window of `sample_every` is kept, which window being
    /// fixed by `seed`.
    #[inline]
    pub fn sampled(&self, request_id: u64) -> bool {
        match self.sample_every {
            0 => false,
            n => request_id.wrapping_add(self.seed).is_multiple_of(n),
        }
    }

    /// The tail-capture decision: slow or errored (HTTP status >= 400).
    #[inline]
    pub fn tail_captured(&self, ev: &WideEvent) -> bool {
        ev.total_us >= self.slow_us || ev.status >= 400
    }
}

/// Process-global tracer state: the two rings plus the policy, packed into
/// atomics so the hot path reads them without any lock.
struct Tracer {
    recent: Ring,
    slow: Ring,
    enabled: AtomicBool,
    sample_every: AtomicU64,
    seed: AtomicU64,
    slow_us: AtomicU64,
    next_id: AtomicU64,
    sampled: AtomicU64,
    slow_captured: AtomicU64,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| {
        let policy = TracePolicy::default();
        Tracer {
            recent: Ring::new(RECENT_CAPACITY),
            slow: Ring::new(SLOW_CAPACITY),
            enabled: AtomicBool::new(false),
            sample_every: AtomicU64::new(policy.sample_every),
            seed: AtomicU64::new(policy.seed),
            slow_us: AtomicU64::new(policy.slow_us),
            next_id: AtomicU64::new(1),
            sampled: AtomicU64::new(0),
            slow_captured: AtomicU64::new(0),
        }
    })
}

/// Switches request tracing on or off and installs the policy. Tracing is
/// independent of [`crate::enabled`] (`GALE_OBS`): the server decides at
/// boot whether the rings are live, exactly like the always-live serving
/// metrics.
pub fn configure(enabled: bool, policy: TracePolicy) {
    let t = tracer();
    t.sample_every.store(policy.sample_every, Ordering::Relaxed);
    t.seed.store(policy.seed, Ordering::Relaxed);
    t.slow_us.store(policy.slow_us, Ordering::Relaxed);
    t.enabled.store(enabled, Ordering::Relaxed);
}

/// Whether request tracing is currently on.
pub fn tracing_enabled() -> bool {
    tracer().enabled.load(Ordering::Relaxed)
}

/// The policy currently in force.
pub fn policy() -> TracePolicy {
    let t = tracer();
    TracePolicy {
        sample_every: t.sample_every.load(Ordering::Relaxed),
        seed: t.seed.load(Ordering::Relaxed),
        slow_us: t.slow_us.load(Ordering::Relaxed),
    }
}

/// Allocates the next process-unique request id (starts at 1).
#[inline]
pub fn next_request_id() -> u64 {
    tracer().next_id.fetch_add(1, Ordering::Relaxed)
}

/// Offers a finished request record to the rings: head sampling decides
/// the recent ring, the tail policy decides the slow ring, both may keep
/// it, neither blocks. A no-op when tracing is off.
pub fn offer(ev: WideEvent) {
    let t = tracer();
    if !t.enabled.load(Ordering::Relaxed) {
        return;
    }
    let p = policy();
    if p.sampled(ev.request_id) {
        t.recent.push(ev);
        t.sampled.fetch_add(1, Ordering::Relaxed);
    }
    if p.tail_captured(&ev) {
        t.slow.push(ev);
        t.slow_captured.fetch_add(1, Ordering::Relaxed);
    }
}

/// Drains the head-sampled recent ring, oldest first.
pub fn drain_recent() -> Vec<WideEvent> {
    tracer().recent.drain()
}

/// Snapshots the slow ring (tail-captured requests) without draining it.
pub fn slow_snapshot() -> Vec<WideEvent> {
    tracer().slow.snapshot()
}

/// Clears both rings (tests and `/debug` tooling).
pub fn clear() {
    let t = tracer();
    t.recent.drain();
    t.slow.drain();
}

/// Tracer counters as a JSON object, served alongside `/debug/trace`.
pub fn stats_json() -> Value {
    let t = tracer();
    let mut obj = Map::new();
    obj.insert("enabled", Value::Bool(t.enabled.load(Ordering::Relaxed)));
    obj.insert(
        "sample_every",
        Value::from(t.sample_every.load(Ordering::Relaxed)),
    );
    obj.insert(
        "slow_threshold_us",
        Value::from(t.slow_us.load(Ordering::Relaxed)),
    );
    obj.insert("sampled", Value::from(t.sampled.load(Ordering::Relaxed)));
    obj.insert(
        "slow_captured",
        Value::from(t.slow_captured.load(Ordering::Relaxed)),
    );
    obj.insert(
        "ring_dropped",
        Value::from(t.recent.dropped() + t.slow.dropped()),
    );
    Value::Object(obj)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64) -> WideEvent {
        WideEvent {
            request_id: id,
            total_us: 10,
            status: 200,
            ..Default::default()
        }
    }

    #[test]
    fn ring_wraps_keeping_the_newest_records() {
        let ring = Ring::new(4);
        for id in 1..=10 {
            ring.push(ev(id));
        }
        let drained = ring.drain();
        let ids: Vec<u64> = drained.iter().map(|e| e.request_id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10]);
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.dropped(), 0);
        assert!(ring.drain().is_empty(), "drain empties the ring");
    }

    #[test]
    fn snapshot_does_not_consume() {
        let ring = Ring::new(8);
        ring.push(ev(1));
        ring.push(ev(2));
        assert_eq!(ring.snapshot().len(), 2);
        assert_eq!(ring.snapshot().len(), 2);
        assert_eq!(ring.drain().len(), 2);
        assert!(ring.snapshot().is_empty());
    }

    #[test]
    fn sampling_is_deterministic_and_one_in_n() {
        let p = TracePolicy {
            sample_every: 8,
            seed: 3,
            slow_us: u64::MAX,
        };
        let kept: Vec<u64> = (0..64).filter(|&id| p.sampled(id)).collect();
        assert_eq!(kept.len(), 8, "exactly 1-in-8 over aligned windows");
        for w in kept.windows(2) {
            assert_eq!(w[1] - w[0], 8);
        }
        // Same policy, same decisions.
        let again: Vec<u64> = (0..64).filter(|&id| p.sampled(id)).collect();
        assert_eq!(kept, again);
        // A different seed keeps a different (still 1-in-8) set.
        let other = TracePolicy { seed: 4, ..p };
        let shifted: Vec<u64> = (0..64).filter(|&id| other.sampled(id)).collect();
        assert_eq!(shifted.len(), 8);
        assert_ne!(kept, shifted);
        // Degenerate settings.
        assert!(!TracePolicy {
            sample_every: 0,
            ..p
        }
        .sampled(0));
        assert!(TracePolicy {
            sample_every: 1,
            ..p
        }
        .sampled(12345));
    }

    #[test]
    fn tail_capture_keeps_slow_and_errored_requests() {
        let p = TracePolicy {
            sample_every: 1_000_000,
            seed: 0,
            slow_us: 1_000,
        };
        let fast_ok = WideEvent {
            request_id: 1,
            total_us: 10,
            status: 200,
            ..Default::default()
        };
        let slow_ok = WideEvent {
            total_us: 1_000,
            ..fast_ok
        };
        let fast_err = WideEvent {
            status: 503,
            ..fast_ok
        };
        assert!(!p.tail_captured(&fast_ok));
        assert!(p.tail_captured(&slow_ok), "threshold is inclusive");
        assert!(p.tail_captured(&fast_err));
    }

    #[test]
    fn wide_event_json_carries_all_stage_timings() {
        let ev = WideEvent {
            request_id: 9,
            shard: 2,
            model_version: 3,
            rows: 4,
            batch_rows: 16,
            status: 200,
            read_us: 1,
            parse_us: 2,
            dispatch_us: 3,
            queue_us: 4,
            assembly_us: 5,
            forward_us: 6,
            write_us: 7,
            total_us: 28,
        };
        let v = ev.to_json();
        for (key, want) in [
            ("request_id", 9),
            ("shard", 2),
            ("model_version", 3),
            ("rows", 4),
            ("batch_rows", 16),
            ("status", 200),
            ("read_us", 1),
            ("parse_us", 2),
            ("dispatch_us", 3),
            ("queue_us", 4),
            ("assembly_us", 5),
            ("forward_us", 6),
            ("write_us", 7),
            ("total_us", 28),
        ] {
            assert_eq!(v[key].as_u64(), Some(want), "field {key}");
        }
    }
}
