//! The delta-overlay graph: an immutable CSR base plus per-row
//! insert/delete overlays, presented through [`NeighborAccess`].
//!
//! ## Overlay layout
//!
//! Each mutated row carries a `RowOverlay`: a `BTreeMap` of added
//! `(col, weight)` entries and a `BTreeSet` of masked base columns. The
//! invariant is that a column lives in **either** the added map **or**
//! the visible part of the base row, never both — re-weighting a base
//! edge masks the base entry and adds the replacement, so a merged row
//! visit is a plain two-pointer merge of two sorted sequences with no
//! tie-breaking. That keeps the visit order (ascending columns) and the
//! visited bits identical to a from-scratch CSR of the same edge set,
//! which is what makes downstream GCN forwards bitwise-reproducible.
//!
//! ## Compaction
//!
//! Overlay churn (added + masked entries) is O(mutations since the last
//! compaction); once it crosses the [`CompactionPolicy`] threshold the
//! merged view is folded into a fresh in-memory CSR base (or an on-disk
//! [`CsrStore`] via [`DeltaGraph::compact_into_store`]) and the overlays
//! are cleared. Because the merged visit order equals a from-scratch
//! build's order, the compacted base is bitwise-equal to building the
//! final graph directly (proptested in `tests/delta_equivalence.rs`).

use gale_graph::{write_csr, CsrStore, StoreError};
use gale_tensor::{NeighborAccess, SparseMatrix};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The immutable CSR layer a [`DeltaGraph`] overlays.
pub enum BaseGraph {
    /// In-memory CSR.
    Mem(SparseMatrix),
    /// Memory-mapped (or decoded) on-disk CSR.
    Store(CsrStore),
}

impl BaseGraph {
    fn rows(&self) -> usize {
        match self {
            BaseGraph::Mem(s) => s.rows(),
            BaseGraph::Store(s) => s.rows(),
        }
    }

    fn nnz(&self) -> usize {
        match self {
            BaseGraph::Mem(s) => s.nnz(),
            BaseGraph::Store(s) => s.nnz(),
        }
    }

    fn row_len(&self, r: usize) -> usize {
        match self {
            BaseGraph::Mem(s) => s.row_nnz(r),
            BaseGraph::Store(s) => s.neighbor_count(r),
        }
    }

    fn has(&self, r: usize, c: usize) -> bool {
        match self {
            // Search stored columns directly: a structural entry counts
            // even if its stored value happens to be 0.0.
            BaseGraph::Mem(s) => s.row_slices(r).0.binary_search(&c).is_ok(),
            BaseGraph::Store(s) => s.has_neighbor(r, c),
        }
    }

    /// Entry `k` (by in-row position) of row `r` as `(col, value)`.
    fn entry(&self, r: usize, k: usize) -> (usize, f64) {
        match self {
            BaseGraph::Mem(s) => {
                let (cols, vals) = s.row_slices(r);
                (cols[k], vals[k])
            }
            BaseGraph::Store(s) => {
                let (cols, vals) = s.row(r);
                (cols[k] as usize, vals[k])
            }
        }
    }
}

/// Insert/delete overlay for one row. See the module docs for the
/// disjointness invariant.
#[derive(Default, Debug)]
struct RowOverlay {
    /// Edges visible in the view but absent from (or masking) the base.
    added: BTreeMap<usize, f64>,
    /// Base columns masked out of the view.
    removed: BTreeSet<usize>,
}

/// When overlay churn triggers folding the view back into a fresh base.
#[derive(Debug, Clone, Copy)]
pub struct CompactionPolicy {
    /// Churn floor below which compaction never triggers.
    pub min_churn: usize,
    /// Compact when `churn >= churn_ratio * base nnz` (and above the floor).
    pub churn_ratio: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            min_churn: 256,
            churn_ratio: 0.25,
        }
    }
}

/// A mutable graph view: immutable CSR base + per-row overlays.
///
/// Implements [`NeighborAccess`], so every access-path kernel (normalized
/// propagation, GCN forwards, PPR) runs over it unchanged.
pub struct DeltaGraph {
    base: BaseGraph,
    overlays: HashMap<usize, RowOverlay>,
    /// Total rows in the view (base rows + appended nodes).
    nodes: usize,
    /// Added overlay entries across all rows (directed count).
    overlay_edges: usize,
    /// Masked base entries across all rows (directed count).
    masked_edges: usize,
    policy: CompactionPolicy,
    compactions: u64,
}

impl DeltaGraph {
    /// Wraps an immutable base with empty overlays.
    pub fn new(base: BaseGraph) -> Self {
        Self::with_policy(base, CompactionPolicy::default())
    }

    /// Wraps a base with an explicit compaction policy.
    pub fn with_policy(base: BaseGraph, policy: CompactionPolicy) -> Self {
        let nodes = base.rows();
        DeltaGraph {
            base,
            overlays: HashMap::new(),
            nodes,
            overlay_edges: 0,
            masked_edges: 0,
            policy,
            compactions: 0,
        }
    }

    /// Total overlay churn: added plus masked directed entries.
    pub fn churn(&self) -> usize {
        self.overlay_edges + self.masked_edges
    }

    /// Compactions performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Stored entries in the current view (directed count).
    pub fn view_nnz(&self) -> usize {
        self.base.nnz() + self.overlay_edges - self.masked_edges
    }

    /// Whether the view contains the directed entry `(r, c)`.
    pub fn has_edge(&self, r: usize, c: usize) -> bool {
        self.has_neighbor(r, c)
    }

    /// Degree of `r` in the view.
    pub fn degree(&self, r: usize) -> usize {
        self.neighbor_count(r)
    }

    /// Appends a fresh isolated node, returning its id.
    pub fn add_node(&mut self) -> usize {
        let id = self.nodes;
        self.nodes += 1;
        id
    }

    /// Inserts (or re-weights) the undirected edge `{u, v}`. Self-loops
    /// are rejected — the normalized operator adds its own.
    pub fn add_edge(&mut self, u: usize, v: usize, weight: f64) {
        assert!(u != v, "DeltaGraph: self-loops are implicit");
        assert!(
            u < self.nodes && v < self.nodes,
            "DeltaGraph: edge {{{u}, {v}}} out of range ({} nodes)",
            self.nodes
        );
        self.upsert(u, v, weight);
        self.upsert(v, u, weight);
    }

    /// Removes the undirected edge `{u, v}`; returns whether it existed.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(
            u < self.nodes && v < self.nodes,
            "DeltaGraph: edge {{{u}, {v}}} out of range ({} nodes)",
            self.nodes
        );
        let existed = self.has_neighbor(u, v);
        self.drop_directed(u, v);
        self.drop_directed(v, u);
        existed
    }

    /// Detaches `node`: removes all incident edges, leaving a tombstone
    /// row. Ids are stable; the row is never renumbered. Returns the
    /// neighbors that were detached.
    pub fn remove_node(&mut self, node: usize) -> Vec<usize> {
        assert!(node < self.nodes, "DeltaGraph: node {node} out of range");
        let mut neighbors = Vec::with_capacity(self.neighbor_count(node));
        self.visit_neighbors(node, &mut |c, _| neighbors.push(c));
        for &c in &neighbors {
            self.remove_edge(node, c);
        }
        neighbors
    }

    fn upsert(&mut self, r: usize, c: usize, w: f64) {
        let in_base = r < self.base.rows() && self.base.has(r, c);
        let ov = self.overlays.entry(r).or_default();
        if in_base && ov.removed.insert(c) {
            self.masked_edges += 1;
        }
        if ov.added.insert(c, w).is_none() {
            self.overlay_edges += 1;
        }
    }

    fn drop_directed(&mut self, r: usize, c: usize) {
        let in_base = r < self.base.rows() && self.base.has(r, c);
        let ov = self.overlays.entry(r).or_default();
        if ov.added.remove(&c).is_some() {
            self.overlay_edges -= 1;
        }
        if in_base && ov.removed.insert(c) {
            self.masked_edges += 1;
        }
    }

    /// Compacts when the policy says churn warrants it; returns whether a
    /// compaction ran.
    pub fn maybe_compact(&mut self) -> bool {
        let threshold = (self.policy.churn_ratio * self.base.nnz() as f64).ceil() as usize;
        if self.churn() >= self.policy.min_churn.max(threshold) {
            self.compact();
            true
        } else {
            false
        }
    }

    /// Folds the overlays into a fresh in-memory CSR base. The merged
    /// visit order is ascending columns per row — exactly a from-scratch
    /// build of the final edge set — so the new base is bitwise-equal to
    /// one built directly.
    pub fn compact(&mut self) {
        let mut triplets = Vec::with_capacity(self.view_nnz());
        for r in 0..self.nodes {
            self.visit_neighbors(r, &mut |c, v| triplets.push((r, c, v)));
        }
        self.install_base(BaseGraph::Mem(SparseMatrix::from_triplets(
            self.nodes, self.nodes, triplets,
        )));
    }

    /// Folds the overlays into a durable on-disk CSR at `path` and remaps
    /// it as the new base. The overlays are only discarded after
    /// [`gale_graph::CsrWriter::finish`] has fsynced the file — on error
    /// the view is left untouched.
    pub fn compact_into_store(&mut self, path: &std::path::Path) -> Result<(), StoreError> {
        write_csr(&*self, self.nodes, path)?;
        let store = CsrStore::open(path)?;
        if (store.rows(), store.cols()) != (self.nodes, self.nodes) {
            return Err(StoreError::Malformed(format!(
                "{} is {}x{}, not the {}-node graph written",
                path.display(),
                store.rows(),
                store.cols(),
                self.nodes
            )));
        }
        self.install_base(BaseGraph::Store(store));
        Ok(())
    }

    fn install_base(&mut self, base: BaseGraph) {
        self.base = base;
        self.overlays.clear();
        self.overlay_edges = 0;
        self.masked_edges = 0;
        self.compactions += 1;
        gale_obs::counter_add!("stream.compactions_total", 1);
    }
}

impl NeighborAccess for DeltaGraph {
    fn node_count(&self) -> usize {
        self.nodes
    }

    fn neighbor_count(&self, r: usize) -> usize {
        let base_len = if r < self.base.rows() {
            self.base.row_len(r)
        } else {
            0
        };
        match self.overlays.get(&r) {
            None => base_len,
            Some(ov) => base_len - ov.removed.len() + ov.added.len(),
        }
    }

    fn visit_neighbors(&self, r: usize, f: &mut dyn FnMut(usize, f64)) {
        let base_len = if r < self.base.rows() {
            self.base.row_len(r)
        } else {
            0
        };
        match self.overlays.get(&r) {
            None => {
                for k in 0..base_len {
                    let (c, v) = self.base.entry(r, k);
                    f(c, v);
                }
            }
            Some(ov) => {
                // Two-pointer merge: base (minus masked) with added. The
                // disjointness invariant means no column ties.
                let mut added = ov.added.iter().peekable();
                let mut k = 0;
                while k < base_len {
                    let (c, v) = self.base.entry(r, k);
                    if ov.removed.contains(&c) {
                        k += 1;
                        continue;
                    }
                    match added.peek() {
                        Some(&(&ac, &av)) if ac < c => {
                            f(ac, av);
                            added.next();
                        }
                        _ => {
                            f(c, v);
                            k += 1;
                        }
                    }
                }
                for (&ac, &av) in added {
                    f(ac, av);
                }
            }
        }
    }

    fn has_neighbor(&self, r: usize, c: usize) -> bool {
        if let Some(ov) = self.overlays.get(&r) {
            if ov.added.contains_key(&c) {
                return true;
            }
            if ov.removed.contains(&c) {
                return false;
            }
        }
        r < self.base.rows() && self.base.has(r, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_path() -> SparseMatrix {
        // 0-1-2-3 path, symmetric.
        SparseMatrix::from_triplets(
            4,
            4,
            [
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
            ],
        )
    }

    fn row(g: &impl NeighborAccess, r: usize) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        g.visit_neighbors(r, &mut |c, v| out.push((c, v.to_bits())));
        out
    }

    #[test]
    fn overlay_merges_in_ascending_order() {
        let mut g = DeltaGraph::new(BaseGraph::Mem(base_path()));
        g.add_edge(1, 3, 2.0);
        assert_eq!(
            row(&g, 1),
            vec![
                (0, 1.0f64.to_bits()),
                (2, 1.0f64.to_bits()),
                (3, 2.0f64.to_bits())
            ]
        );
        assert_eq!(g.neighbor_count(1), 3);
        assert!(g.has_neighbor(3, 1));
    }

    #[test]
    fn removal_masks_base_edges() {
        let mut g = DeltaGraph::new(BaseGraph::Mem(base_path()));
        assert!(g.remove_edge(1, 2));
        assert!(!g.remove_edge(1, 2), "second removal is a no-op");
        assert_eq!(row(&g, 1), vec![(0, 1.0f64.to_bits())]);
        assert_eq!(g.neighbor_count(2), 1);
        assert!(!g.has_neighbor(2, 1));
    }

    #[test]
    fn reweight_replaces_base_value() {
        let mut g = DeltaGraph::new(BaseGraph::Mem(base_path()));
        g.add_edge(0, 1, 0.25);
        assert_eq!(row(&g, 0), vec![(1, 0.25f64.to_bits())]);
        assert_eq!(g.neighbor_count(0), 1);
    }

    #[test]
    fn added_nodes_get_fresh_ids() {
        let mut g = DeltaGraph::new(BaseGraph::Mem(base_path()));
        let v = g.add_node();
        assert_eq!(v, 4);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.neighbor_count(v), 0);
        g.add_edge(v, 0, 1.0);
        assert_eq!(row(&g, v), vec![(0, 1.0f64.to_bits())]);
    }

    #[test]
    fn remove_node_leaves_tombstone() {
        let mut g = DeltaGraph::new(BaseGraph::Mem(base_path()));
        let detached = g.remove_node(1);
        assert_eq!(detached, vec![0, 2]);
        assert_eq!(g.neighbor_count(1), 0);
        assert_eq!(g.node_count(), 4, "ids are stable");
        assert_eq!(row(&g, 0), vec![]);
        assert_eq!(row(&g, 2), vec![(3, 1.0f64.to_bits())]);
    }

    #[test]
    fn compaction_is_bitwise_equal_to_from_scratch() {
        let mut g = DeltaGraph::new(BaseGraph::Mem(base_path()));
        g.add_edge(0, 3, 1.5);
        g.remove_edge(1, 2);
        let n = g.add_node();
        g.add_edge(n, 2, 0.5);
        let before: Vec<_> = (0..g.node_count()).map(|r| row(&g, r)).collect();
        g.compact();
        assert_eq!(g.churn(), 0);
        assert_eq!(g.compactions(), 1);
        let after: Vec<_> = (0..g.node_count()).map(|r| row(&g, r)).collect();
        assert_eq!(before, after);
        // And equal to building the final edge set directly.
        let direct = SparseMatrix::from_triplets(
            5,
            5,
            [
                (0, 1, 1.0),
                (1, 0, 1.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
                (0, 3, 1.5),
                (3, 0, 1.5),
                (4, 2, 0.5),
                (2, 4, 0.5),
            ],
        );
        for r in 0..5 {
            assert_eq!(row(&g, r), row(&direct, r), "row {r}");
        }
    }

    #[test]
    fn policy_triggers_compaction_on_churn() {
        let policy = CompactionPolicy {
            min_churn: 4,
            churn_ratio: 0.0,
        };
        let mut g = DeltaGraph::with_policy(BaseGraph::Mem(base_path()), policy);
        g.add_edge(0, 2, 1.0); // churn 2
        assert!(!g.maybe_compact());
        g.add_edge(0, 3, 1.0); // churn 4
        assert!(g.maybe_compact());
        assert_eq!(g.churn(), 0);
    }

    #[test]
    fn compact_into_store_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("gale-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("compacted.csr");
        let mut g = DeltaGraph::new(BaseGraph::Mem(base_path()));
        g.add_edge(0, 3, 2.0);
        let before: Vec<_> = (0..4).map(|r| row(&g, r)).collect();
        g.compact_into_store(&path).unwrap();
        let after: Vec<_> = (0..4).map(|r| row(&g, r)).collect();
        assert_eq!(before, after);
        let reopened = CsrStore::open(&path).unwrap();
        for (r, expected) in before.iter().enumerate() {
            assert_eq!(&row(&reopened, r), expected, "row {r}");
        }
    }
}
