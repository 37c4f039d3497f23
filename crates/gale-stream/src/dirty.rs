//! K-hop dirty tracking: which nodes' GCN outputs a delta invalidates.
//!
//! ## Dirty algebra
//!
//! The 2-layer GCN output of node `v` is a function of the normalized
//! operator rows and feature rows inside `v`'s 2-hop closed neighborhood.
//! An edge delta on `{u, v}` changes the degrees of `u` and `v`, hence
//! the `D̃^{-1/2}` factors in every operator row touching them — so the
//! hidden layer of `{u, v} ∪ N(u) ∪ N(v)` (the 1-hop closure) changes,
//! and the output layer of the 2-hop closure of `{u, v}` changes. The
//! closure must be taken in the union of the pre- and post-delta graphs:
//! a removed neighbor's output still depended on the old edge, so callers
//! mark seeds both **before** and **after** applying a structural delta.
//! A feature delta on `v` leaves the operator alone but flows through
//! both propagation hops: the 2-hop closure of `{v}`, marked once.
//!
//! Dirty nodes live in a `BTreeSet`, so draining yields the sorted order
//! the incremental refresh ([`gale_nn::Gcn::forward_rows_access_into`])
//! requires, deterministically.

use gale_tensor::NeighborAccess;
use std::collections::BTreeSet;

/// Receptive-field depth of the 2-layer GCN encoder.
pub const GCN_HOPS: usize = 2;

/// Tracks the set of nodes whose embeddings are stale, and the graph
/// version at which each was last invalidated.
#[derive(Default)]
pub struct DirtyTracker {
    dirty: BTreeSet<usize>,
}

impl DirtyTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of currently-dirty nodes.
    pub fn len(&self) -> usize {
        self.dirty.len()
    }

    /// Whether no node is dirty.
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }

    /// Whether `node` is dirty.
    pub fn contains(&self, node: usize) -> bool {
        self.dirty.contains(&node)
    }

    /// Marks the `k`-hop closed neighborhood of `seeds` in `view` dirty.
    pub fn mark_khop<A: NeighborAccess + ?Sized>(&mut self, view: &A, seeds: &[usize], k: usize) {
        // The BFS visited set must be local to this call: a node already
        // dirtied by an earlier delta still has neighbors this closure
        // needs to reach, so it cannot block frontier expansion.
        let mut visited: BTreeSet<usize> = seeds.iter().copied().collect();
        let mut frontier = visited.clone();
        for _ in 0..k {
            let mut next = BTreeSet::new();
            for &v in &frontier {
                view.visit_neighbors(v, &mut |c, _| {
                    if visited.insert(c) {
                        next.insert(c);
                    }
                });
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        let mut fresh = 0u64;
        for v in visited {
            if self.dirty.insert(v) {
                fresh += 1;
            }
        }
        gale_obs::counter_add!("stream.dirty_marked", fresh);
    }

    /// Marks a single node dirty with no neighborhood expansion (fresh
    /// isolated nodes).
    pub fn mark_node(&mut self, node: usize) {
        self.dirty.insert(node);
    }

    /// The dirty set, sorted ascending.
    pub fn sorted(&self) -> Vec<usize> {
        self.dirty.iter().copied().collect()
    }

    /// Removes `nodes` from the dirty set (after their refresh).
    pub fn clear_nodes(&mut self, nodes: &[usize]) {
        for n in nodes {
            self.dirty.remove(n);
        }
    }

    /// Drops every dirty mark (after a full refresh).
    pub fn clear(&mut self) {
        self.dirty.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gale_tensor::SparseMatrix;

    /// 0-1-2-3-4 path.
    fn path5() -> SparseMatrix {
        let mut t = Vec::new();
        for i in 0..4 {
            t.push((i, i + 1, 1.0));
            t.push((i + 1, i, 1.0));
        }
        SparseMatrix::from_triplets(5, 5, t)
    }

    #[test]
    fn two_hop_closure_of_an_endpoint() {
        let g = path5();
        let mut d = DirtyTracker::new();
        d.mark_khop(&g, &[0], GCN_HOPS);
        assert_eq!(d.sorted(), vec![0, 1, 2]);
    }

    #[test]
    fn marks_accumulate_across_deltas() {
        let g = path5();
        let mut d = DirtyTracker::new();
        d.mark_khop(&g, &[0], 1);
        d.mark_khop(&g, &[4], 1);
        assert_eq!(d.sorted(), vec![0, 1, 3, 4]);
        d.clear_nodes(&[0, 1]);
        assert_eq!(d.sorted(), vec![3, 4]);
        d.clear();
        assert!(d.is_empty());
    }

    #[test]
    fn zero_hops_marks_seeds_only() {
        let g = path5();
        let mut d = DirtyTracker::new();
        d.mark_khop(&g, &[2], 0);
        assert_eq!(d.sorted(), vec![2]);
    }
}
