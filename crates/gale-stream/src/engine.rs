//! The streaming engine: mutations in, lazily-refreshed verdicts out.
//!
//! Owns the [`DeltaGraph`], the feature matrix, the trained GAE encoder,
//! the trained SGAN (scored through [`Sgan::probs3_chunked_into`], a
//! bounded number of rows per forward), the frozen
//! input standardizer, and the cached per-node scoring state. Mutations mark
//! k-hop dirty sets; the next score request triggers a neighborhood-local
//! refresh whose outputs are bitwise-equal to rebuilding and re-scoring the
//! mutated graph from scratch with the same model artifacts (gated in
//! `BENCH_stream.json`).

use crate::admission::{AdmissionConfig, AdmissionFilter, QuarantinedEdge};
use crate::delta::DeltaGraph;
use crate::dirty::{DirtyTracker, GCN_HOPS};
use crate::mutation::{Mutation, MutationLog};
use gale_core::{ColumnStandardizer, Sgan};
use gale_json::{json, Value};
use gale_nn::Gae;
use gale_tensor::{Matrix, NeighborAccess, SparseMatrix, SymNormalized};

/// Edges sampled (deterministically, in row order) from the base graph to
/// seed the admission filter's distance statistics.
const ADMISSION_SEED_CAP: usize = 4096;

/// Rows per discriminator forward when the engine scores: the
/// discriminator keeps one output per layer resident afterwards, so a full
/// pass in one forward would hold `n` rows of each (about 6.8 MiB at 8,000
/// nodes for the served model) for the engine's lifetime.
const SCORE_CHUNK: usize = 256;

/// Streaming engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Admission filtering knobs.
    pub admission: AdmissionConfig,
    /// Retained mutation-log tail length.
    pub log_capacity: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            admission: AdmissionConfig::default(),
            log_capacity: 256,
        }
    }
}

/// Outcome of one mutation inside an [`StreamEngine::apply`] batch.
#[derive(Debug, Clone)]
pub struct MutationOutcome {
    /// Log sequence number.
    pub seq: u64,
    /// Wire name of the mutation.
    pub kind: &'static str,
    /// Whether it was admitted and applied.
    pub admitted: bool,
    /// Quarantine reason label for rejected edges.
    pub reason: Option<&'static str>,
    /// Id assigned by `add_node` mutations.
    pub assigned_node: Option<usize>,
}

/// Summary of an applied mutation batch.
#[derive(Debug)]
pub struct ApplyReport {
    /// Per-mutation outcomes, in batch order.
    pub outcomes: Vec<MutationOutcome>,
    /// Graph version after the batch.
    pub graph_version: u64,
    /// Dirty-node count after the batch.
    pub dirty: usize,
    /// Whether the batch triggered a compaction.
    pub compacted: bool,
}

/// One node's scoring state, as returned by [`StreamEngine::score_nodes`].
#[derive(Debug, Clone)]
pub struct NodeScore {
    /// The node id.
    pub node: usize,
    /// 3-class probabilities `(error, correct, synthetic)`.
    pub probs: [f64; 3],
    /// Two-class error score (synthetic dropped, renormalized).
    pub score: f64,
    /// Whether the discriminator calls the node erroneous.
    pub erroneous: bool,
    /// Graph version the verdict was computed at.
    pub graph_version: u64,
}

/// The streaming scoring engine.
pub struct StreamEngine {
    graph: DeltaGraph,
    x: Matrix,
    gae: Gae,
    /// The trained SGAN; only its discriminator's evaluation forward runs.
    scorer: Sgan,
    standardizer: ColumnStandardizer,
    /// Current embeddings, one row per node (dirty rows are stale).
    z: Matrix,
    /// Current 3-class probabilities, one row per node.
    probs: Matrix,
    /// Graph version each node's verdict was computed at.
    verdict_version: Vec<u64>,
    graph_version: u64,
    dirty: DirtyTracker,
    filter: AdmissionFilter,
    log: MutationLog,
    /// Nanoseconds spent in incremental refreshes (diagnostics).
    pub refresh_ns: u64,
    /// Number of incremental refreshes run.
    pub refreshes: u64,
}

impl StreamEngine {
    /// Builds an engine and runs the initial full embed + score pass.
    ///
    /// `standardizer` freezes the discriminator-input affine map; pass
    /// `None` to fit it on this graph's `[X | Z]` (the artifact is then
    /// available via [`StreamEngine::standardizer`] for exact-rebuild
    /// comparisons and bundle export).
    pub fn new(
        graph: DeltaGraph,
        x: Matrix,
        mut gae: Gae,
        mut sgan: Sgan,
        standardizer: Option<ColumnStandardizer>,
        cfg: StreamConfig,
    ) -> Result<Self, String> {
        let n = graph.node_count();
        if x.rows() != n {
            return Err(format!("feature rows {} != graph nodes {n}", x.rows()));
        }
        // Initial full embedding over the normalized view.
        let mut z = Matrix::zeros(0, 0);
        {
            let op = SymNormalized::new(&graph);
            gae.embed(&op, &x, &mut z);
        }
        let mut inputs = concat_rows(&x, &z);
        let standardizer = match standardizer {
            Some(st) => {
                if st.cols() != inputs.cols() {
                    return Err(format!(
                        "standardizer covers {} columns, inputs have {}",
                        st.cols(),
                        inputs.cols()
                    ));
                }
                st
            }
            None => ColumnStandardizer::fit(&inputs),
        };
        standardizer.apply(&mut inputs);
        if sgan.input_dim() != inputs.cols() {
            return Err(format!(
                "discriminator wants {} inputs, graph provides {}",
                sgan.input_dim(),
                inputs.cols()
            ));
        }
        let mut probs = Matrix::zeros(0, 0);
        sgan.probs3_chunked_into(&inputs, SCORE_CHUNK, &mut probs);

        let mut filter = AdmissionFilter::new(cfg.admission);
        seed_admission(&mut filter, &graph, &x);

        Ok(StreamEngine {
            graph,
            x,
            gae,
            scorer: sgan,
            standardizer,
            z,
            probs,
            verdict_version: vec![0; n],
            graph_version: 0,
            dirty: DirtyTracker::new(),
            filter,
            log: MutationLog::new(cfg.log_capacity),
            refresh_ns: 0,
            refreshes: 0,
        })
    }

    /// Current graph version (bumped once per applied mutation).
    pub fn graph_version(&self) -> u64 {
        self.graph_version
    }

    /// Nodes in the graph (tombstones included).
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Currently-dirty node count.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Compactions the delta graph has performed.
    pub fn graph_compactions(&self) -> u64 {
        self.graph.compactions()
    }

    /// Edges the admission filter has quarantined.
    pub fn quarantined_edges(&self) -> u64 {
        self.filter.quarantined
    }

    /// The frozen input standardizer (a model artifact).
    pub fn standardizer(&self) -> &ColumnStandardizer {
        &self.standardizer
    }

    /// The current feature matrix.
    pub fn features(&self) -> &Matrix {
        &self.x
    }

    /// The current graph view as an in-memory CSR (from-scratch rebuild
    /// comparisons; bitwise-equal to the view by the compaction argument).
    pub fn snapshot_graph(&self) -> SparseMatrix {
        let n = self.graph.node_count();
        let mut triplets = Vec::with_capacity(self.graph.view_nnz());
        for r in 0..n {
            self.graph
                .visit_neighbors(r, &mut |c, v| triplets.push((r, c, v)));
        }
        SparseMatrix::from_triplets(n, n, triplets)
    }

    /// Applies a mutation batch: admission-filters edges, mutates the
    /// overlay and features, marks k-hop dirty sets, and maybe compacts.
    /// Verdicts are *not* refreshed here — that happens lazily on the
    /// next score request. The whole batch is validated first, so a
    /// rejected batch leaves the engine untouched.
    pub fn apply(&mut self, muts: &[Mutation]) -> Result<ApplyReport, String> {
        self.validate(muts)?;
        let outcomes = muts.iter().map(|m| self.apply_one(m)).collect();
        let compacted = self.graph.maybe_compact();
        gale_obs::counter_add!("stream.mutations_total", muts.len() as u64);
        Ok(ApplyReport {
            outcomes,
            graph_version: self.graph_version,
            dirty: self.dirty.len(),
            compacted,
        })
    }

    /// Checks every mutation of a batch against the graph as it will stand
    /// when that mutation applies: node ids must exist (counting the
    /// batch's own `add_node`s), feature rows must match the feature width
    /// and be finite (one infinite attribute would turn every verdict in
    /// its k-hop neighbourhood into NaN), and edges may not be self-loops.
    fn validate(&self, muts: &[Mutation]) -> Result<(), String> {
        let width = self.x.cols();
        let mut n = self.graph.node_count();
        let check = |node: usize, n: usize| -> Result<(), String> {
            if node >= n {
                Err(format!("node {node} out of range ({n} nodes)"))
            } else {
                Ok(())
            }
        };
        let row = |what: &str, attrs: &[f64]| -> Result<(), String> {
            if attrs.len() != width {
                Err(format!(
                    "{what} width {} != feature width {width}",
                    attrs.len()
                ))
            } else if attrs.iter().any(|a| !a.is_finite()) {
                Err(format!("{what} holds a non-finite value"))
            } else {
                Ok(())
            }
        };
        for (i, m) in muts.iter().enumerate() {
            let checked = match m {
                Mutation::AddNode { attrs } => row("add_node attrs", attrs).map(|()| n += 1),
                Mutation::RemoveNode { node } => check(*node, n),
                Mutation::AddEdge { u, v, .. } if u == v => {
                    Err("add_edge: self-loops are implicit".into())
                }
                Mutation::AddEdge { u, v, .. } | Mutation::RemoveEdge { u, v } => {
                    check(*u, n).and(check(*v, n))
                }
                Mutation::UpdateAttrs { node, attrs } => {
                    check(*node, n).and(row("update_attrs", attrs))
                }
            };
            checked.map_err(|msg| format!("mutation {i}: {msg}"))?;
        }
        Ok(())
    }

    /// Applies one mutation that [`StreamEngine::validate`] accepted.
    fn apply_one(&mut self, m: &Mutation) -> MutationOutcome {
        let kind = m.kind();
        let mut assigned_node = None;
        let mut admitted = true;
        let mut reason = None;
        match m {
            Mutation::AddNode { attrs } => {
                let id = self.graph.add_node();
                self.x.resize(id + 1, self.x.cols());
                self.x.set_row(id, attrs);
                self.z.resize(id + 1, self.z.cols());
                self.probs.resize(id + 1, self.probs.cols());
                self.verdict_version.push(0);
                self.graph_version += 1;
                self.dirty.mark_node(id);
                assigned_node = Some(id);
            }
            Mutation::RemoveNode { node } => {
                let mut seeds = vec![*node];
                self.graph.visit_neighbors(*node, &mut |c, _| seeds.push(c));
                self.dirty.mark_khop(&self.graph, &seeds, GCN_HOPS);
                self.graph.remove_node(*node);
                self.dirty.mark_khop(&self.graph, &seeds, GCN_HOPS);
                self.graph_version += 1;
            }
            Mutation::AddEdge { u, v, weight } => {
                let dist = gale_tensor::distance::euclidean(self.x.row(*u), self.x.row(*v));
                match self
                    .filter
                    .assess(dist, self.graph.degree(*u), self.graph.degree(*v))
                {
                    Some(why) => {
                        admitted = false;
                        reason = Some(why.label());
                        self.filter.quarantine(QuarantinedEdge {
                            seq: 0, // patched after the log assigns one
                            u: *u,
                            v: *v,
                            distance: dist,
                            reason: why,
                        });
                    }
                    None => {
                        let seeds = [*u, *v];
                        self.dirty.mark_khop(&self.graph, &seeds, GCN_HOPS);
                        self.graph.add_edge(*u, *v, *weight);
                        self.dirty.mark_khop(&self.graph, &seeds, GCN_HOPS);
                        self.filter.observe(dist);
                        self.graph_version += 1;
                    }
                }
            }
            Mutation::RemoveEdge { u, v } => {
                let seeds = [*u, *v];
                self.dirty.mark_khop(&self.graph, &seeds, GCN_HOPS);
                self.graph.remove_edge(*u, *v);
                self.dirty.mark_khop(&self.graph, &seeds, GCN_HOPS);
                self.graph_version += 1;
            }
            Mutation::UpdateAttrs { node, attrs } => {
                self.x.set_row(*node, attrs);
                // The operator is unchanged; features flow through both
                // hops, so one post-apply marking covers the closure.
                self.dirty.mark_khop(&self.graph, &[*node], GCN_HOPS);
                self.graph_version += 1;
            }
        }
        let seq = self.log.record(m.clone(), admitted, self.graph_version);
        MutationOutcome {
            seq,
            kind,
            admitted,
            reason,
            assigned_node,
        }
    }

    /// Refreshes every dirty node's embedding, probabilities, and verdict
    /// via the neighborhood-local forward. Returns the number refreshed.
    pub fn refresh(&mut self) -> usize {
        if self.dirty.is_empty() {
            return 0;
        }
        let started = std::time::Instant::now();
        let rows = self.dirty.sorted();
        let mut z_sub = Matrix::zeros(0, 0);
        {
            let op = SymNormalized::new(&self.graph);
            self.gae.embed_rows(&op, &rows, &self.x, &mut z_sub);
        }
        let dx = self.x.cols();
        let dz = self.z.cols();
        let mut inputs = Matrix::zeros(rows.len(), dx + dz);
        for (k, &v) in rows.iter().enumerate() {
            self.z.set_row(v, z_sub.row(k));
            let row = inputs.row_mut(k);
            row[..dx].copy_from_slice(self.x.row(v));
            row[dx..].copy_from_slice(z_sub.row(k));
            self.standardizer.apply_row(row);
        }
        let mut probs_sub = Matrix::zeros(0, 0);
        self.scorer
            .probs3_chunked_into(&inputs, SCORE_CHUNK, &mut probs_sub);
        for (k, &v) in rows.iter().enumerate() {
            self.probs.set_row(v, probs_sub.row(k));
            self.verdict_version[v] = self.graph_version;
        }
        self.dirty.clear();
        let elapsed = started.elapsed();
        self.refresh_ns += elapsed.as_nanos() as u64;
        self.refreshes += 1;
        gale_obs::counter_add!("stream.refreshes_total", 1);
        rows.len()
    }

    /// Recomputes every node's embedding, probabilities, and verdict from
    /// scratch over the current graph view — the exact computation
    /// [`StreamEngine::new`] runs at construction. This is the control the
    /// incremental [`StreamEngine::refresh`] is timed and bit-compared
    /// against in `BENCH_stream.json`. Returns the node count.
    pub fn rescore_full(&mut self) -> usize {
        {
            let op = SymNormalized::new(&self.graph);
            self.gae.embed(&op, &self.x, &mut self.z);
        }
        let mut inputs = concat_rows(&self.x, &self.z);
        self.standardizer.apply(&mut inputs);
        self.scorer
            .probs3_chunked_into(&inputs, SCORE_CHUNK, &mut self.probs);
        for version in &mut self.verdict_version {
            *version = self.graph_version;
        }
        self.dirty.clear();
        self.graph.node_count()
    }

    /// Scores the requested nodes, lazily refreshing dirty state first.
    pub fn score_nodes(&mut self, nodes: &[usize]) -> Result<Vec<NodeScore>, String> {
        let n = self.graph.node_count();
        for &v in nodes {
            if v >= n {
                return Err(format!("node {v} out of range ({n} nodes)"));
            }
        }
        self.refresh();
        Ok(nodes.iter().map(|&v| self.node_score(v)).collect())
    }

    /// One node's current (refreshed) scoring state. Callers must have
    /// refreshed first; [`StreamEngine::score_nodes`] does.
    fn node_score(&self, v: usize) -> NodeScore {
        let row = self.probs.row(v);
        let (pe, pc, ps) = (row[0], row[1], row[2]);
        let verdict = gale_core::verdict(pe, pc);
        NodeScore {
            node: v,
            probs: [pe, pc, ps],
            score: verdict.error,
            erroneous: verdict.erroneous,
            graph_version: self.verdict_version[v],
        }
    }

    /// Every node's verdict, refreshed. For equality gates in the bench.
    pub fn all_scores(&mut self) -> Vec<NodeScore> {
        self.refresh();
        (0..self.graph.node_count())
            .map(|v| self.node_score(v))
            .collect()
    }

    /// Introspection document for `/debug/stream`.
    pub fn debug_json(&self) -> Value {
        let ring: Vec<Value> = self
            .filter
            .ring()
            .map(|e| {
                json!({
                    "seq": e.seq as f64,
                    "u": e.u as f64,
                    "v": e.v as f64,
                    "distance": e.distance,
                    "reason": e.reason.label(),
                })
            })
            .collect();
        let tail: Vec<Value> = self
            .log
            .tail()
            .map(|e| {
                json!({
                    "seq": e.seq as f64,
                    "graph_version": e.graph_version as f64,
                    "op": e.mutation.kind(),
                    "admitted": e.admitted,
                })
            })
            .collect();
        json!({
            "graph_version": self.graph_version as f64,
            "nodes": self.graph.node_count() as f64,
            "view_nnz": self.graph.view_nnz() as f64,
            "overlay_churn": self.graph.churn() as f64,
            "compactions": self.graph.compactions() as f64,
            "dirty_nodes": self.dirty.len() as f64,
            "mutations_total": self.log.total as f64,
            "mutations_applied": self.log.applied as f64,
            "quarantined_edges": self.filter.quarantined as f64,
            "admission": {
                "samples": self.filter.samples() as f64,
                "mean_distance": self.filter.mean(),
                "std_distance": self.filter.std(),
            },
            "refreshes": self.refreshes as f64,
            "refresh_us_total": (self.refresh_ns / 1_000) as f64,
            "quarantine_ring": Value::Array(ring),
            "log_tail": Value::Array(tail),
        })
    }
}

/// `[x | z]` row-wise concatenation (unstandardized).
fn concat_rows(x: &Matrix, z: &Matrix) -> Matrix {
    assert_eq!(x.rows(), z.rows(), "concat_rows: row mismatch");
    let (dx, dz) = (x.cols(), z.cols());
    let mut out = Matrix::zeros(x.rows(), dx + dz);
    for r in 0..x.rows() {
        let row = out.row_mut(r);
        row[..dx].copy_from_slice(x.row(r));
        row[dx..].copy_from_slice(z.row(r));
    }
    out
}

/// Seeds the admission distance statistics from the base graph's edges,
/// deterministically: undirected edges in ascending `(row, col)` order,
/// capped at [`ADMISSION_SEED_CAP`].
fn seed_admission(filter: &mut AdmissionFilter, graph: &DeltaGraph, x: &Matrix) {
    let mut seen = 0usize;
    'rows: for r in 0..graph.node_count() {
        let mut cols = Vec::new();
        graph.visit_neighbors(r, &mut |c, _| {
            if c > r {
                cols.push(c);
            }
        });
        for c in cols {
            filter.observe(gale_tensor::distance::euclidean(x.row(r), x.row(c)));
            seen += 1;
            if seen >= ADMISSION_SEED_CAP {
                break 'rows;
            }
        }
    }
}
