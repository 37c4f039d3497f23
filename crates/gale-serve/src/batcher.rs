//! The sharded micro-batching layer between connection handling and the
//! scorer threads that own the model copies.
//!
//! A [`ShardPool`] holds `N` scorer shards. Every shard owns an [`Sgan`]
//! decoded from one checkpoint document, so all shards score
//! bitwise-identically, plus a *bounded* job queue.
//! [`ShardPool::submit`] dispatches to the shard with the least queue
//! depth, breaking ties round-robin; when every queue is full the
//! submission fails immediately and the caller sheds load with `503`. Each
//! shard pops the first waiting job, takes every job already queued behind
//! it until `max_batch` rows are in hand, and runs **one** forward pass
//! over the combined batch through [`Sgan::probs3_into`]. By default
//! a shard never waits for more work: a job that reaches an idle shard is
//! scored at once, and under load the jobs that queued during one forward
//! ride the next one together, so batches grow with the load rather than
//! with a timer. A non-zero `max_wait_us` makes every batch linger that
//! long after its first pop for more jobs. Batch and output matrices come
//! from per-shard [`Workspace`] pools, so steady-state serving does not
//! allocate.
//!
//! A batched forward scores every row bit for bit like that row alone
//! (tested across batch shapes and thread counts), and the checkpoint
//! document's hexfloats round-trip exactly, so which shard answers, and
//! which jobs shared its batch, never shows in a reply.
//!
//! Hot reload rides a second, unbounded control channel per shard: a
//! [`ShardPool::reload`] reads the new checkpoint *once*, decodes one
//! model per shard from it and validates them (all-or-nothing — a
//! checkpoint that fails to decode swaps nothing), and sends each shard
//! its swap.
//! Shards apply swaps only **between** batches, so every row of any single
//! batch is scored by exactly one model version, and no request is ever
//! dropped: jobs queued across the swap simply score on whichever version
//! their batch runs under.
//!
//! Shutdown is the natural channel protocol: when every submit handle is
//! dropped each shard drains whatever is still queued — every job gets its
//! reply — and exits. No job is ever dropped on the floor.

use crate::metrics;
use gale_core::Sgan;
use gale_json::Value;
use gale_nn::checkpoint::{self, CkptError};
use gale_tensor::Workspace;
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Micro-batching knobs.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Row budget per forward pass; a shard stops taking queued jobs into
    /// a batch once it holds at least this many rows.
    pub max_batch: usize,
    /// How long a shard lingers for more jobs after popping a batch's
    /// first, in microseconds. Jobs already queued join the batch either
    /// way; the default of zero never waits, so a lone job is scored at
    /// once.
    pub max_wait_us: u64,
    /// Bounded queue capacity in *jobs*, per shard; submissions beyond it
    /// are shed.
    pub queue_capacity: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 64,
            max_wait_us: 0,
            queue_capacity: 128,
        }
    }
}

/// One queued scoring request: `rows` feature rows, flattened row-major.
struct ScoreJob {
    features: Vec<f64>,
    rows: usize,
    enqueued: Instant,
    reply: mpsc::Sender<ScoreReply>,
}

/// A scored batch slice headed back to its requester, stage timings
/// included so the connection layer can finish the request's wide event
/// without asking the shard anything.
#[derive(Debug)]
pub struct ScoreReply {
    /// Monotonic model generation that scored these rows. Every row in the
    /// reply was scored by exactly this version.
    pub version: u64,
    /// `rows * 3` probabilities, one `{error, correct, synthetic}` triple
    /// per row.
    pub probs: Vec<f64>,
    /// Shard that ran the forward pass.
    pub shard: u32,
    /// Total rows in the coalesced batch this job rode in.
    pub batch_rows: u32,
    /// This job's time in the shard queue before being popped,
    /// microseconds.
    pub queue_us: u32,
    /// Popped until the batched forward started (the rest of the batch
    /// taken off the queue, any configured linger, buffer fill),
    /// microseconds.
    pub assembly_us: u32,
    /// The batched forward pass, microseconds (shared by every job in the
    /// batch).
    pub forward_us: u32,
}

/// Why a submission was rejected.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Every shard queue is at capacity — retry later.
    Overloaded,
    /// The pool has shut down; no further work is accepted.
    Stopped,
}

/// Why a hot reload did not happen. Whatever the cause, the shards keep
/// serving the model they already had.
#[derive(Debug)]
pub enum ReloadError {
    /// The checkpoint could not be read or decoded (typed, never a panic).
    Ckpt(CkptError),
    /// The checkpoint holds a model with a different input dimension than
    /// the one being served; swapping it in would break every client.
    DimMismatch {
        /// Input dimension the pool serves.
        expected: usize,
        /// Input dimension found in the checkpoint.
        found: usize,
    },
    /// The pool is shutting down; shards are no longer accepting swaps.
    PoolDown,
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadError::Ckpt(e) => write!(f, "{e}"),
            ReloadError::DimMismatch { expected, found } => write!(
                f,
                "checkpoint input_dim {found} does not match the served model's {expected}"
            ),
            ReloadError::PoolDown => write!(f, "pool is shutting down"),
        }
    }
}

impl From<CkptError> for ReloadError {
    fn from(e: CkptError) -> Self {
        ReloadError::Ckpt(e)
    }
}

/// Control messages delivered outside the job queue (never shed).
enum Ctrl {
    /// Replace the shard's model between batches.
    Swap {
        model: Sgan,
        version: u64,
        ack: Sender<()>,
    },
}

/// Live per-shard counters, shared between the scorer thread (writer) and
/// `/debug/queues` (reader). All relaxed: the endpoint reports a consistent
/// *recent* picture, not a linearized snapshot.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Jobs popped from the queue and not yet answered.
    in_flight: AtomicU64,
    /// Rows in the most recently executed batch.
    last_batch_rows: AtomicU64,
    /// Model generation that scored the most recent batch.
    last_batch_version: AtomicU64,
    /// Batched forward passes this shard has executed.
    batches: AtomicU64,
}

/// One shard's `/debug/queues` row.
#[derive(Debug, Clone, Copy)]
pub struct ShardSnapshot {
    /// Jobs waiting in the shard queue.
    pub depth: i64,
    /// Jobs popped and not yet answered.
    pub in_flight: u64,
    /// Rows in the most recent batch (0 before the first).
    pub last_batch_rows: u64,
    /// Version that scored the most recent batch (0 before the first).
    pub last_batch_version: u64,
    /// Forward passes executed.
    pub batches: u64,
}

/// One shard's submission handles.
struct Shard {
    tx: SyncSender<ScoreJob>,
    ctrl: Sender<Ctrl>,
    depth: Arc<AtomicI64>,
    stats: Arc<ShardStats>,
}

impl Shard {
    /// Spawns shard `id`'s scorer thread around `model`.
    fn spawn(id: usize, model: Sgan, cfg: &BatchConfig) -> (Shard, JoinHandle<()>) {
        let (tx, rx) = mpsc::sync_channel(cfg.queue_capacity.max(1));
        let (ctrl, ctrl_rx) = mpsc::channel();
        let depth = Arc::new(AtomicI64::new(0));
        let stats = Arc::new(ShardStats::default());
        let scorer = ShardLoop {
            id: id as u32,
            rx,
            ctrl: ctrl_rx,
            depth: depth.clone(),
            stats: stats.clone(),
            cfg: cfg.clone(),
        };
        let handle = std::thread::Builder::new()
            .name(format!("gale-shard-{id}"))
            .spawn(move || scorer.run(model))
            .expect("spawning a shard thread");
        let shard = Shard {
            tx,
            ctrl,
            depth,
            stats,
        };
        (shard, handle)
    }
}

/// The sharded scorer pool. Cloned freely via `Arc`; dropping the last
/// handle disconnects every shard queue, which drains and exits.
pub struct ShardPool {
    shards: Vec<Shard>,
    rr: AtomicUsize,
    version: AtomicU64,
    input_dim: usize,
    /// Serializes reloads so versions are assigned in order.
    reload_lock: Mutex<()>,
}

impl ShardPool {
    /// Spawns `shards` scorer threads, each serving its own copy of
    /// `model` decoded from one encoding of it, and returns the pool plus
    /// the thread handles (join them after dropping the pool to wait for
    /// the drain).
    pub fn spawn(
        model: Sgan,
        shards: usize,
        cfg: &BatchConfig,
    ) -> (Arc<ShardPool>, Vec<JoinHandle<()>>) {
        metrics::register_all();
        let input_dim = model.input_dim();
        let doc = model
            .to_json()
            .expect("every Sgan layer has a checkpoint encoding");
        let models = decode_per_shard(&doc, shards.max(1)).expect("a freshly encoded Sgan decodes");
        let mut handles = Vec::with_capacity(models.len());
        let mut slots = Vec::with_capacity(models.len());
        for (i, model) in models.into_iter().enumerate() {
            let (shard, handle) = Shard::spawn(i, model, cfg);
            slots.push(shard);
            handles.push(handle);
        }
        metrics::model_version().set(INITIAL_VERSION as f64);
        (
            Arc::new(ShardPool {
                shards: slots,
                rr: AtomicUsize::new(0),
                version: AtomicU64::new(INITIAL_VERSION),
                input_dim,
                reload_lock: Mutex::new(()),
            }),
            handles,
        )
    }

    /// Input dimension every shard's model expects.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of scorer shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Current model generation (1 at boot, +1 per successful reload).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// A relaxed snapshot of every shard's live counters, in shard order
    /// (the `GET /debug/queues` payload).
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        self.shards
            .iter()
            .map(|s| ShardSnapshot {
                depth: s.depth.load(Ordering::Relaxed),
                in_flight: s.stats.in_flight.load(Ordering::Relaxed),
                last_batch_rows: s.stats.last_batch_rows.load(Ordering::Relaxed),
                last_batch_version: s.stats.last_batch_version.load(Ordering::Relaxed),
                batches: s.stats.batches.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Enqueues `rows` feature rows (flattened row-major) on the
    /// least-loaded shard and returns the channel the scored probabilities
    /// arrive on.
    ///
    /// Dispatch is least-depth with a rotating tie-break: among shards at
    /// the minimum queue depth the winner advances round-robin, so equal
    /// load spreads instead of piling onto shard zero. If the chosen shard
    /// fills up between the depth read and the send, the remaining shards
    /// are tried in rotation before shedding.
    pub fn submit(
        &self,
        features: Vec<f64>,
        rows: usize,
    ) -> Result<mpsc::Receiver<ScoreReply>, SubmitError> {
        metrics::requests().add(1);
        let n = self.shards.len();
        let start = self.rr.fetch_add(1, Ordering::Relaxed) % n;
        let mut best = start;
        let mut best_depth = i64::MAX;
        for off in 0..n {
            let i = (start + off) % n;
            let d = self.shards[i].depth.load(Ordering::Relaxed);
            if d < best_depth {
                best_depth = d;
                best = i;
            }
        }
        let (reply, reply_rx) = mpsc::channel();
        let mut job = ScoreJob {
            features,
            rows,
            enqueued: Instant::now(),
            reply,
        };
        let mut stopped = false;
        for off in 0..n {
            let i = (best + off) % n;
            let shard = &self.shards[i];
            // Count the job *before* sending: the shard may pop (and
            // decrement) it the instant `try_send` returns, and the gauge
            // must never observe that decrement before this increment.
            shard.depth.fetch_add(1, Ordering::Relaxed);
            metrics::queue_depth().add(1.0);
            match shard.tx.try_send(job) {
                Ok(()) => return Ok(reply_rx),
                Err(e) => {
                    shard.depth.fetch_sub(1, Ordering::Relaxed);
                    metrics::queue_depth().add(-1.0);
                    match e {
                        TrySendError::Full(j) => job = j,
                        TrySendError::Disconnected(j) => {
                            stopped = true;
                            job = j;
                        }
                    }
                }
            }
        }
        if stopped {
            Err(SubmitError::Stopped)
        } else {
            metrics::shed().add(1);
            Err(SubmitError::Overloaded)
        }
    }

    /// Loads, validates, and atomically swaps a new checkpoint into every
    /// shard. Runs entirely off the scoring hot path: file IO, JSON
    /// parsing, and decoding happen on the calling thread; shards only
    /// exchange a model between batches.
    ///
    /// All-or-nothing: any read/decode/validation failure returns the typed
    /// error *before* any shard has been touched, and the old model keeps
    /// serving. On success returns the new model generation.
    pub fn reload(&self, path: impl AsRef<Path>) -> Result<u64, ReloadError> {
        let _guard = self
            .reload_lock
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // Read once and decode every shard's model from that one
        // document, so all shards keep scoring bit-identically after the
        // swap.
        let doc = checkpoint::read_file(path.as_ref())?;
        let models = decode_per_shard(&doc, self.shards.len())?;
        let found = models[0].input_dim();
        if found != self.input_dim {
            return Err(ReloadError::DimMismatch {
                expected: self.input_dim,
                found,
            });
        }
        let new_version = self.version.load(Ordering::SeqCst) + 1;
        let mut acks = Vec::with_capacity(self.shards.len());
        for (shard, model) in self.shards.iter().zip(models) {
            let (ack, ack_rx) = mpsc::channel();
            let swap = Ctrl::Swap {
                model,
                version: new_version,
                ack,
            };
            if shard.ctrl.send(swap).is_err() {
                return Err(ReloadError::PoolDown);
            }
            acks.push(ack_rx);
        }
        for ack in acks {
            ack.recv().map_err(|_| ReloadError::PoolDown)?;
        }
        self.version.store(new_version, Ordering::SeqCst);
        metrics::model_version().set(new_version as f64);
        metrics::reloads().add(1);
        Ok(new_version)
    }
}

/// Model generation a freshly booted pool serves.
pub const INITIAL_VERSION: u64 = 1;

/// Decodes `shards` copies of the model in one checkpoint document.
fn decode_per_shard(doc: &Value, shards: usize) -> Result<Vec<Sgan>, CkptError> {
    (0..shards).map(|_| Sgan::from_json(doc)).collect()
}

/// How long a shard sleeps in `recv_timeout` between control-channel polls
/// while its job queue is idle. Bounds swap latency on an idle server.
const IDLE_POLL: Duration = Duration::from_millis(2);

/// Clamps a duration to microseconds in a `u32` (saturating: a >71-minute
/// stage is pinned, not wrapped).
fn us32(d: Duration) -> u32 {
    d.as_micros().min(u32::MAX as u128) as u32
}

/// One shard's scoring loop and the channels it serves.
struct ShardLoop {
    id: u32,
    rx: Receiver<ScoreJob>,
    ctrl: Receiver<Ctrl>,
    depth: Arc<AtomicI64>,
    stats: Arc<ShardStats>,
    cfg: BatchConfig,
}

impl ShardLoop {
    /// Scores batches through `model` until the pool (every job sender)
    /// is dropped, then drains the queue — each remaining job still gets
    /// its reply — and exits.
    fn run(self, mut model: Sgan) {
        let dim = model.input_dim();
        let mut ws = Workspace::new();
        let mut version = INITIAL_VERSION;
        let mut jobs: Vec<(ScoreJob, Instant)> = Vec::new();
        let (mut reported_hits, mut reported_misses) = (0u64, 0u64);
        loop {
            // Swaps apply only here, between batches: every row of any
            // single batch is scored by exactly one model version.
            while let Ok(Ctrl::Swap {
                model: m,
                version: v,
                ack,
            }) = self.ctrl.try_recv()
            {
                model = m;
                version = v;
                let _ = ack.send(());
            }
            // Wait briefly for the batch's first job, then re-poll
            // control. A disconnect means every submitter is gone and the
            // queue is empty — clean exit.
            let first = match self.rx.recv_timeout(IDLE_POLL) {
                Ok(job) => job,
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            };
            // Take every job already queued behind the first, up to the
            // row budget, waiting for more only until `max_wait_us` after
            // the first pop. An empty queue past that point, or a
            // disconnect, scores what is in hand.
            let mut total_rows = self.take(first, &mut jobs);
            let deadline = jobs[0].1 + Duration::from_micros(self.cfg.max_wait_us);
            while total_rows < self.cfg.max_batch {
                let wait = deadline.saturating_duration_since(Instant::now());
                let next = if wait.is_zero() {
                    self.rx.try_recv().ok()
                } else {
                    self.rx.recv_timeout(wait).ok()
                };
                let Some(job) = next else { break };
                total_rows += self.take(job, &mut jobs);
            }

            // One batched forward through the pooled buffers.
            let mut batch = ws.take(total_rows, dim);
            let mut offset = 0usize;
            for (job, _) in &jobs {
                let len = job.features.len();
                batch.data_mut()[offset..offset + len].copy_from_slice(&job.features);
                offset += len;
            }
            let mut probs = ws.take(total_rows, 3);
            let forward_started = Instant::now();
            model.probs3_into(&batch, &mut probs);
            let forward_us = us32(forward_started.elapsed());
            ws.give(batch);

            metrics::batches().add(1);
            metrics::rows().add(total_rows as u64);
            metrics::batch_rows().record(total_rows as f64);
            self.stats.batches.fetch_add(1, Ordering::Relaxed);
            self.stats
                .last_batch_rows
                .store(total_rows as u64, Ordering::Relaxed);
            self.stats
                .last_batch_version
                .store(version, Ordering::Relaxed);
            let (hits, misses) = ws.stats();
            metrics::pool_hits().add(hits - reported_hits);
            metrics::pool_misses().add(misses - reported_misses);
            (reported_hits, reported_misses) = (hits, misses);

            // Scatter the rows back to their requesters.
            let mut row0 = 0usize;
            for (job, popped) in jobs.drain(..) {
                let slice = probs.data()[row0 * 3..(row0 + job.rows) * 3].to_vec();
                row0 += job.rows;
                metrics::latency_us().record(job.enqueued.elapsed().as_secs_f64() * 1e6);
                let queue_us = us32(popped.duration_since(job.enqueued));
                let assembly_us = us32(forward_started.duration_since(popped));
                metrics::stage_queue_us().record(queue_us as f64);
                metrics::stage_assembly_us().record(assembly_us as f64);
                metrics::stage_forward_us().record(forward_us as f64);
                self.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
                // A vanished client (closed connection) is not an error.
                let _ = job.reply.send(ScoreReply {
                    version,
                    probs: slice,
                    shard: self.id,
                    batch_rows: total_rows.min(u32::MAX as usize) as u32,
                    queue_us,
                    assembly_us,
                    forward_us,
                });
            }
            ws.give(probs);
        }
    }

    /// Books one job leaving the queue into the batch in hand and returns
    /// its row count.
    fn take(&self, job: ScoreJob, jobs: &mut Vec<(ScoreJob, Instant)>) -> usize {
        self.depth.fetch_sub(1, Ordering::Relaxed);
        metrics::queue_depth().add(-1.0);
        self.stats.in_flight.fetch_add(1, Ordering::Relaxed);
        let rows = job.rows;
        jobs.push((job, Instant::now()));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gale_core::SganConfig;
    use gale_tensor::{Matrix, Rng};

    fn tiny_model(dim: usize) -> Sgan {
        let mut rng = Rng::seed_from_u64(31);
        Sgan::new(
            dim,
            &SganConfig {
                d_hidden: vec![8, 4],
                g_hidden: vec![8],
                ..Default::default()
            },
            &mut rng,
        )
    }

    fn scratch_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gale-batcher-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn full_queues_shed_instead_of_blocking() {
        // Per-shard queues of one job, no batching: two heavy requests park
        // both shards in long forward passes (or sit queued ahead of the
        // flood), so a burst of light submissions must fill both queues and
        // shed rather than block. Every interleaving sheds by the eighth
        // attempt: at most 2 heavies in hand + 2 queued + 2 replacements
        // queued after a pop.
        let dim = 2;
        let cfg = BatchConfig {
            queue_capacity: 1,
            max_wait_us: 0,
            max_batch: 1,
        };
        let (pool, handles) = ShardPool::spawn(tiny_model(dim), 2, &cfg);
        let heavy_rows = 100_000usize;
        let heavy = vec![0.5f64; heavy_rows * dim];
        let mut accepted = 0;
        let mut shed = false;
        let mut replies = Vec::new();
        for i in 0..16 {
            let result = if i < 2 {
                pool.submit(heavy.clone(), heavy_rows)
            } else {
                pool.submit(vec![0.0, 0.0], 1)
            };
            match result {
                Ok(r) => {
                    accepted += 1;
                    replies.push(r);
                }
                Err(SubmitError::Overloaded) => {
                    shed = true;
                    break;
                }
                Err(e) => panic!("unexpected submit error {e:?}"),
            }
        }
        assert!(
            shed,
            "pool never shed after {accepted} accepted submissions"
        );
        assert!(accepted >= 2, "the two heavy submissions must be accepted");
        // Every accepted job is still answered.
        for r in replies {
            assert!(r.recv().is_ok());
        }
        drop(pool);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn a_lone_job_is_scored_at_once() {
        // Twenty jobs, each answered before the next is submitted: nothing
        // ever waits behind one, so each rides a batch of its own and the
        // shard does not wait for company. The median pop-to-forward time
        // stays far under a millisecond; a preempted job or two on a busy
        // machine does not move it.
        let dim = 3;
        let (pool, handles) = ShardPool::spawn(tiny_model(dim), 1, &BatchConfig::default());
        let mut assembly_us: Vec<u32> = (0..20)
            .map(|_| {
                let scored = pool.submit(vec![0.5; dim], 1).unwrap().recv().unwrap();
                assert_eq!(scored.batch_rows, 1);
                scored.assembly_us
            })
            .collect();
        assembly_us.sort_unstable();
        assert!(assembly_us[10] < 1_000, "assembly µs: {assembly_us:?}");
        drop(pool);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn a_configured_linger_waits_for_a_later_job() {
        // A shard told to linger holds a batch's first job until the row
        // budget fills or the linger runs out: a job submitted after the
        // first was popped still rides the same batch.
        let dim = 3;
        let cfg = BatchConfig {
            max_batch: 2,
            max_wait_us: 10_000_000,
            ..BatchConfig::default()
        };
        let (pool, handles) = ShardPool::spawn(tiny_model(dim), 1, &cfg);
        let first = pool.submit(vec![0.5; dim], 1).unwrap();
        while pool.shard_snapshots()[0].in_flight == 0 {
            std::thread::yield_now();
        }
        let second = pool.submit(vec![0.0; dim], 1).unwrap();
        assert_eq!(first.recv().unwrap().batch_rows, 2);
        assert_eq!(second.recv().unwrap().batch_rows, 2);
        drop(pool);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn jobs_queued_behind_a_busy_shard_ride_one_batch() {
        // One shard parked in a 100,000-row forward: the light jobs
        // submitted meanwhile wait in its queue, and its next pop takes
        // all of them into one batch.
        let dim = 2;
        let k = 5;
        let (pool, handles) = ShardPool::spawn(tiny_model(dim), 1, &BatchConfig::default());
        let heavy_rows = 100_000usize;
        let heavy = vec![0.5f64; heavy_rows * dim];
        let mut checked = false;
        for _ in 0..5 {
            let before = pool.shard_snapshots()[0].batches;
            let heavy_reply = pool.submit(heavy.clone(), heavy_rows).unwrap();
            // Submit only once the heavy job is in the shard's hands and
            // nothing else is queued, so the light jobs form a batch of
            // their own.
            let t0 = Instant::now();
            loop {
                let s = pool.shard_snapshots()[0];
                if s.in_flight == 1 && s.depth == 0 {
                    break;
                }
                assert!(
                    t0.elapsed() < Duration::from_secs(30),
                    "heavy job never popped"
                );
                std::thread::yield_now();
            }
            let light: Vec<_> = (0..k)
                .map(|_| pool.submit(vec![0.0; dim], 1).unwrap())
                .collect();
            let queued_behind = pool.shard_snapshots()[0].batches == before;
            // The heavy job fills the row budget on its own, so no light
            // job can join its batch.
            assert_eq!(heavy_reply.recv().unwrap().batch_rows as usize, heavy_rows);
            let rows: Vec<u32> = light.iter().map(|r| r.recv().unwrap().batch_rows).collect();
            // The round counts only if the heavy forward was still running
            // once every light job was queued.
            if queued_behind {
                assert_eq!(rows, vec![k as u32; k], "queued jobs split across batches");
                checked = true;
                break;
            }
        }
        assert!(
            checked,
            "the heavy forward never outlasted five submissions"
        );
        drop(pool);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn scored_rows_match_in_process_model_bitwise_across_shards() {
        let dim = 5;
        let cfg = BatchConfig::default();
        let (pool, handles) = ShardPool::spawn(tiny_model(dim), 3, &cfg);

        let mut rng = Rng::seed_from_u64(32);
        let x = Matrix::randn(7, dim, 1.0, &mut rng);
        // Submit the same rows enough times that every shard scores at
        // least once with high probability; all replies must be bitwise
        // equal to the in-process forward.
        let mut model = tiny_model(dim);
        let mut expect = Matrix::zeros(0, 0);
        model.probs3_into(&x, &mut expect);
        for _ in 0..12 {
            let reply = pool.submit(x.data().to_vec(), 7).unwrap();
            let served = reply.recv().unwrap();
            assert_eq!(served.version, INITIAL_VERSION);
            assert_eq!(served.probs.len(), 7 * 3);
            for (a, b) in expect.data().iter().zip(&served.probs) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        drop(pool);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn drain_answers_every_queued_job_on_every_shard() {
        let dim = 3;
        let cfg = BatchConfig {
            max_batch: 4,
            max_wait_us: 500,
            queue_capacity: 64,
        };
        let (pool, handles) = ShardPool::spawn(tiny_model(dim), 4, &cfg);
        let mut rng = Rng::seed_from_u64(33);
        let replies: Vec<_> = (0..40)
            .map(|_| {
                let row: Vec<f64> = (0..dim).map(|_| rng.gauss()).collect();
                pool.submit(row, 1).unwrap()
            })
            .collect();
        // Drop the pool with jobs still queued: every shard must answer its
        // whole queue before exiting.
        drop(pool);
        for reply in replies {
            let scored = reply.recv().expect("drained job must be answered");
            assert_eq!(scored.probs.len(), 3);
            let total: f64 = scored.probs.iter().sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "not a distribution: {:?}",
                scored.probs
            );
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn reload_swaps_every_shard_and_bumps_the_version() {
        let dim = 4;
        let (pool, handles) = ShardPool::spawn(tiny_model(dim), 2, &BatchConfig::default());
        let mut rng = Rng::seed_from_u64(55);
        let mut next = Sgan::new(
            dim,
            &SganConfig {
                d_hidden: vec![6],
                g_hidden: vec![6],
                ..Default::default()
            },
            &mut rng,
        );
        let path = scratch_path("reload-ok.ckpt");
        next.save(&path).unwrap();
        assert_eq!(pool.version(), INITIAL_VERSION);
        let v = pool.reload(&path).unwrap();
        assert_eq!(v, INITIAL_VERSION + 1);
        assert_eq!(pool.version(), v);

        // Every shard now scores with the new model, bitwise.
        let x = Matrix::randn(5, dim, 1.0, &mut rng);
        let mut expect = Matrix::zeros(0, 0);
        next.probs3_into(&x, &mut expect);
        for _ in 0..8 {
            let got = pool.submit(x.data().to_vec(), 5).unwrap().recv().unwrap();
            assert_eq!(got.version, v);
            for (a, b) in expect.data().iter().zip(&got.probs) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        drop(pool);
        for h in handles {
            h.join().unwrap();
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_reload_leaves_the_old_model_serving() {
        let dim = 3;
        let (pool, handles) = ShardPool::spawn(tiny_model(dim), 2, &BatchConfig::default());
        let mut reference = tiny_model(dim);
        let x = Matrix::randn(4, dim, 1.0, &mut Rng::seed_from_u64(7));
        let mut expect = Matrix::zeros(0, 0);
        reference.probs3_into(&x, &mut expect);

        // Missing file -> typed Io error.
        match pool.reload("/definitely/not/a/checkpoint.ckpt") {
            Err(ReloadError::Ckpt(CkptError::Io { .. })) => {}
            other => panic!("expected an Io error, got {other:?}"),
        }
        // Dimension mismatch -> typed error, no swap.
        let mut rng = Rng::seed_from_u64(56);
        let wrong_dim = Sgan::new(
            dim + 2,
            &SganConfig {
                d_hidden: vec![4],
                g_hidden: vec![4],
                ..Default::default()
            },
            &mut rng,
        );
        let path = scratch_path("reload-wrongdim.ckpt");
        wrong_dim.save(&path).unwrap();
        match pool.reload(&path) {
            Err(ReloadError::DimMismatch { expected, found }) => {
                assert_eq!(expected, dim);
                assert_eq!(found, dim + 2);
            }
            other => panic!("expected DimMismatch, got {other:?}"),
        }
        assert_eq!(pool.version(), INITIAL_VERSION);
        let got = pool.submit(x.data().to_vec(), 4).unwrap().recv().unwrap();
        assert_eq!(got.version, INITIAL_VERSION);
        for (a, b) in expect.data().iter().zip(&got.probs) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        drop(pool);
        for h in handles {
            h.join().unwrap();
        }
        let _ = std::fs::remove_file(&path);
    }
}
