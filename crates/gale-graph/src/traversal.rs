//! Graph traversal utilities: BFS, k-hop neighborhoods, induced subgraphs,
//! and connected components.
//!
//! The annotator's Type-1 "soft subgraphs" and the synthetic-data pipeline
//! both lean on these.

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// BFS hop distances from `start` over the undirected topology;
/// `usize::MAX` marks unreachable nodes.
pub fn bfs_distances(neighbors: &[Vec<NodeId>], start: NodeId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; neighbors.len()];
    let mut queue = VecDeque::new();
    dist[start] = 0;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        for &v in &neighbors[u] {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// All nodes within `k` undirected hops of `center` (inclusive of `center`),
/// in BFS order.
pub fn k_hop_neighborhood(neighbors: &[Vec<NodeId>], center: NodeId, k: usize) -> Vec<NodeId> {
    let mut dist = vec![usize::MAX; neighbors.len()];
    let mut out = Vec::new();
    let mut queue = VecDeque::new();
    dist[center] = 0;
    queue.push_back(center);
    while let Some(u) = queue.pop_front() {
        out.push(u);
        if dist[u] == k {
            continue;
        }
        for &v in &neighbors[u] {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    out
}

/// The subgraph induced by a node set.
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    /// The new graph (with the parent's schema cloned).
    pub graph: Graph,
    /// `mapping[new_id] = old_id` back into the parent graph.
    pub mapping: Vec<NodeId>,
}

/// Builds the subgraph induced by `node_ids` (deduplicated; order of first
/// occurrence preserved). Edges are kept when both endpoints are selected.
pub fn induced_subgraph(g: &Graph, node_ids: &[NodeId]) -> InducedSubgraph {
    let mut mapping = Vec::new();
    let mut old_to_new = vec![usize::MAX; g.node_count()];
    for &id in node_ids {
        if old_to_new[id] == usize::MAX {
            old_to_new[id] = mapping.len();
            mapping.push(id);
        }
    }
    let mut sub = Graph::with_schema(g.schema.clone());
    for &old in &mapping {
        sub.add_node(g.node(old).clone());
    }
    for e in g.edges() {
        let (s, d) = (old_to_new[e.src], old_to_new[e.dst]);
        if s != usize::MAX && d != usize::MAX {
            sub.add_edge(s, d, e.edge_type);
        }
    }
    InducedSubgraph {
        graph: sub,
        mapping,
    }
}

/// Connected components over the undirected topology; returns the component
/// index of each node and the number of components.
pub fn connected_components(neighbors: &[Vec<NodeId>]) -> (Vec<usize>, usize) {
    let n = neighbors.len();
    let mut comp = vec![usize::MAX; n];
    let mut count = 0;
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        let mut queue = VecDeque::new();
        comp[start] = count;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in &neighbors[u] {
                if comp[v] == usize::MAX {
                    comp[v] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    (comp, count)
}

/// Degree assortativity coefficient over the undirected edges: the Pearson
/// correlation of the degrees at the two ends of each edge. The annotator
/// reports this as global context (Section III-B cites \[38\]).
///
/// Returns 0.0 for graphs with fewer than 2 edges or degenerate degree
/// variance.
pub fn degree_assortativity(g: &Graph) -> f64 {
    let deg = g.degrees();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for e in g.edges() {
        if e.src == e.dst {
            continue;
        }
        // Count each undirected edge in both orientations for symmetry.
        xs.push(deg[e.src] as f64);
        ys.push(deg[e.dst] as f64);
        xs.push(deg[e.dst] as f64);
        ys.push(deg[e.src] as f64);
    }
    if xs.len() < 4 {
        return 0.0;
    }
    gale_tensor::stats::pearson(&xs, &ys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrKind;

    /// Path 0-1-2-3 plus isolated node 4.
    fn path_graph() -> Graph {
        let mut g = Graph::new();
        for _ in 0..5 {
            g.add_node_with("t", &[("x", AttrKind::Numeric, 0i64.into())]);
        }
        g.add_edge_named(0, 1, "e");
        g.add_edge_named(1, 2, "e");
        g.add_edge_named(2, 3, "e");
        g
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_graph();
        let nbrs = g.neighbor_lists();
        let d = bfs_distances(&nbrs, 0);
        assert_eq!(d[..4], [0, 1, 2, 3]);
        assert_eq!(d[4], usize::MAX);
    }

    #[test]
    fn k_hop_respects_radius() {
        let g = path_graph();
        let nbrs = g.neighbor_lists();
        let mut hop1 = k_hop_neighborhood(&nbrs, 1, 1);
        hop1.sort_unstable();
        assert_eq!(hop1, vec![0, 1, 2]);
        let mut hop0 = k_hop_neighborhood(&nbrs, 2, 0);
        hop0.sort_unstable();
        assert_eq!(hop0, vec![2]);
        let mut all = k_hop_neighborhood(&nbrs, 0, 10);
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]); // node 4 unreachable
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = path_graph();
        let sub = induced_subgraph(&g, &[1, 2, 4]);
        assert_eq!(sub.graph.node_count(), 3);
        assert_eq!(sub.graph.edge_count(), 1); // only 1-2 survives
        assert_eq!(sub.mapping, vec![1, 2, 4]);
        // Edge endpoints remapped correctly.
        let e = sub.graph.edges()[0];
        assert_eq!((e.src, e.dst), (0, 1));
    }

    #[test]
    fn induced_subgraph_dedups_input() {
        let g = path_graph();
        let sub = induced_subgraph(&g, &[2, 2, 1, 2]);
        assert_eq!(sub.mapping, vec![2, 1]);
    }

    #[test]
    fn components_counted() {
        let g = path_graph();
        let nbrs = g.neighbor_lists();
        let (comp, count) = connected_components(&nbrs);
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[3]);
        assert_ne!(comp[0], comp[4]);
    }

    #[test]
    fn star_graph_is_disassortative() {
        // A star: hub connected to many leaves has negative assortativity.
        let mut g = Graph::new();
        for _ in 0..6 {
            g.add_node_with("t", &[]);
        }
        for leaf in 1..6 {
            g.add_edge_named(0, leaf, "e");
        }
        assert!(degree_assortativity(&g) < -0.9);
    }

    #[test]
    fn regular_graph_assortativity_degenerate() {
        // A cycle is degree-regular: correlation undefined, reported as 0.
        let mut g = Graph::new();
        for _ in 0..4 {
            g.add_node_with("t", &[]);
        }
        for i in 0..4 {
            g.add_edge_named(i, (i + 1) % 4, "e");
        }
        assert_eq!(degree_assortativity(&g), 0.0);
    }
}
