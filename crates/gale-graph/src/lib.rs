//! # gale-graph
//!
//! Attributed heterogeneous graphs for the GALE reproduction (ICDE 2023):
//! the value/schema/graph model of Section II, adjacency and propagation
//! operators, traversal utilities, and the `(X_G, A_G)` feature
//! representation consumed by the learning stack.

// `deny` rather than `forbid`: `store::mapped` (the `mmap(2)` wrapper for
// the out-of-core CSR reader) carries a scoped allowance for its audited
// unsafe blocks, mirroring gale-tensor's `par` / `aligned` policy;
// everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod features;
pub mod graph;
pub mod io;
pub mod propagation;
pub mod schema;
pub mod store;
pub mod traversal;
pub mod value;

pub use features::FeatureRepr;
pub use graph::{Edge, Graph, Node, NodeId};
pub use propagation::{ppr_smooth_access, ppr_smooth_matrix, soft_labels, PropagationConfig};
pub use schema::{AttrId, AttrKind, EdgeTypeId, NodeTypeId, Schema};
pub use store::{write_csr, CsrStore, CsrWriter, StoreError};
pub use traversal::{
    bfs_distances, connected_components, degree_assortativity, induced_subgraph,
    k_hop_neighborhood, InducedSubgraph,
};
pub use value::AttrValue;
