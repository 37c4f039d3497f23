//! Concurrency and determinism properties of the request-tracing ring:
//! records pushed by racing writers are never torn (every drained record
//! is internally consistent), counters account for every push, and the
//! head-sampling policy is a pure function of `(policy, request_id)`.

use gale_obs::ring::{Ring, TracePolicy, WideEvent};
use proptest::prelude::*;
use std::sync::Arc;

/// Derives every field of a [`WideEvent`] from its request id, so a reader
/// can verify a record was written atomically: any interleaving of two
/// writers' field stores would break the derivation.
fn derived(id: u64) -> WideEvent {
    let mix = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let field = |k: u32| (mix.rotate_left(k) & 0xFFFF) as u32;
    WideEvent {
        request_id: id,
        shard: field(1),
        model_version: mix ^ id,
        rows: field(2),
        batch_rows: field(3),
        status: (mix % 400) as u16 + 100,
        read_us: field(4),
        parse_us: field(5),
        dispatch_us: field(6),
        queue_us: field(7),
        assembly_us: field(8),
        forward_us: field(9),
        write_us: field(10),
        total_us: mix.wrapping_add(id),
    }
}

/// Runs `threads` writers pushing disjoint id ranges while a reader drains
/// concurrently; asserts every record ever observed is exactly its
/// derivation (no tearing) and the push counter saw every write.
fn hammer(threads: usize, per_thread: u64, capacity: usize) -> Result<(), TestCaseError> {
    let ring = Arc::new(Ring::new(capacity));
    let mut writers = Vec::new();
    for t in 0..threads {
        let ring = Arc::clone(&ring);
        writers.push(std::thread::spawn(move || {
            let base = 1 + t as u64 * per_thread;
            for id in base..base + per_thread {
                ring.push(derived(id));
            }
        }));
    }
    // A racing reader: drains (and checks) while writers are mid-flight.
    let reader = {
        let ring = Arc::clone(&ring);
        std::thread::spawn(move || {
            let mut seen = Vec::new();
            for _ in 0..8 {
                seen.extend(ring.drain());
                std::thread::yield_now();
            }
            seen
        })
    };
    for w in writers {
        w.join().expect("writer panicked");
    }
    let mut seen = reader.join().expect("reader panicked");
    seen.extend(ring.drain());

    for ev in &seen {
        prop_assert_eq!(
            *ev,
            derived(ev.request_id),
            "torn record for id {}",
            ev.request_id
        );
    }
    let total = threads as u64 * per_thread;
    prop_assert_eq!(ring.pushed(), total);
    prop_assert!(seen.len() as u64 <= total);
    prop_assert!(ring.dropped() <= total);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn concurrent_writers_never_tear_records(
        per_thread in 16u64..200,
        capacity in 1usize..96,
    ) {
        for threads in [1usize, 2, 8] {
            hammer(threads, per_thread, capacity)?;
        }
    }

    #[test]
    fn sampling_is_a_pure_function_of_policy_and_id(
        every in 1u64..64,
        seed in 0u64..1_000_000,
        start in 0u64..10_000,
    ) {
        let p = TracePolicy { sample_every: every, seed, slow_us: u64::MAX };
        // Exactly one id is kept in every aligned window of `every`.
        let window: Vec<u64> = (start..start + every * 4).filter(|&id| p.sampled(id)).collect();
        prop_assert_eq!(window.len() as u64, 4);
        for w in window.windows(2) {
            prop_assert_eq!(w[1] - w[0], every);
        }
        // Re-evaluating never changes a decision.
        for &id in &window {
            prop_assert!(p.sampled(id));
        }
    }
}

/// The process-global offer path keeps sampled records intact under
/// concurrent writers (sample_every=1 routes everything at the recent
/// ring; slow_us=0 routes everything at the slow ring too).
#[test]
fn global_offer_path_is_consistent_under_threads() {
    gale_obs::ring::configure(
        true,
        TracePolicy {
            sample_every: 1,
            seed: 0,
            slow_us: 0,
        },
    );
    gale_obs::ring::clear();
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..200u64 {
                    gale_obs::ring::offer(derived(1 + t * 200 + i));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let recent = gale_obs::ring::drain_recent();
    let slow = gale_obs::ring::slow_snapshot();
    assert!(!recent.is_empty() && !slow.is_empty());
    for ev in recent.iter().chain(&slow) {
        assert_eq!(*ev, derived(ev.request_id), "torn record via offer()");
    }
    let stats = gale_obs::ring::stats_json();
    assert_eq!(stats["enabled"].as_bool(), Some(true));
    assert_eq!(stats["sampled"].as_u64(), Some(800));
    assert_eq!(stats["slow_captured"].as_u64(), Some(800));
    gale_obs::ring::configure(false, TracePolicy::default());
}
