//! Helpers shared by the drain tests: a model whose forward keeps a shard
//! busy, and polling of `GET /debug/queues`.

use gale_core::{Sgan, SganConfig};
use gale_json::Value;
use gale_tensor::Rng;
use std::time::{Duration, Instant};

/// A model wide enough that a request of a few thousand rows keeps its
/// shard busy for a while.
pub fn wide_model(dim: usize, seed: u64) -> Sgan {
    let mut rng = Rng::seed_from_u64(seed);
    Sgan::new(
        dim,
        &SganConfig {
            d_hidden: vec![512, 256],
            g_hidden: vec![8],
            ..Default::default()
        },
        &mut rng,
    )
}

/// `(depth, in_flight)` of every shard in a `/debug/queues` document.
pub fn queue_pairs(doc: &Value) -> Vec<(i64, u64)> {
    doc.get("shards")
        .and_then(Value::as_array)
        .expect("/debug/queues lists shards")
        .iter()
        .map(|s| {
            (
                s.get("depth").and_then(Value::as_i64).unwrap(),
                s.get("in_flight").and_then(Value::as_u64).unwrap(),
            )
        })
        .collect()
}

/// Polls `/debug/queues` through `fetch` until `ready` holds for its
/// shards; panics after a minute, naming `what` it waited for.
pub fn wait_for_queues(
    what: &str,
    mut fetch: impl FnMut() -> Value,
    ready: impl Fn(&[(i64, u64)]) -> bool,
) {
    let t0 = Instant::now();
    while !ready(&queue_pairs(&fetch())) {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "timed out waiting until {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}
