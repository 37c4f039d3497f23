//! gale-stream: delta ingestion, incremental embedding refresh, and
//! online re-scoring for GALE graphs.
//!
//! The batch pipeline (gale-core / gale-nn) scores a frozen graph. This
//! crate makes the graph *mutable in production* without giving up the
//! repo's bitwise-determinism contract:
//!
//! - [`Mutation`] / [`MutationLog`] — typed deltas with a JSON wire codec
//!   and a bounded introspection tail.
//! - [`DeltaGraph`] — insert/delete overlays layered over an immutable
//!   CSR base ([`gale_tensor::SparseMatrix`] or [`gale_graph::CsrStore`])
//!   behind [`gale_tensor::NeighborAccess`]; threshold-triggered
//!   compaction folds the overlay into a fresh CSR whose neighbor view is
//!   bitwise-identical to a from-scratch build.
//! - [`AdmissionFilter`] — structure-aware edge filtering (feature
//!   distance z-bound + degree cap) with an observable quarantine ring.
//! - [`DirtyTracker`] — k-hop invalidation matching the 2-layer GCN's
//!   receptive field.
//! - [`StreamEngine`] — owns graph + features + models, applies mutation
//!   batches, and lazily refreshes dirty verdicts via neighborhood-local
//!   forward passes that are bitwise-equal to a full rebuild + re-score.
//! - [`save_bundle`] / [`load_bundle`] — the on-disk artifact a serving
//!   process boots from.
//!
//! With gale-obs telemetry on, the crate counts `stream.mutations_total`,
//! `stream.refreshes_total`, `stream.compactions_total`,
//! `stream.quarantined_total` and `stream.dirty_marked`. gale-serve
//! exports its own `stream.*` series into the same global registry, so
//! these names stay distinct from its names: a name registered as two
//! kinds panics, and a counter bumped by both crates counts every event
//! twice.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod bundle;
pub mod delta;
pub mod dirty;
pub mod engine;
pub mod mutation;

pub use admission::{AdmissionConfig, AdmissionFilter, QuarantinedEdge, RejectReason};
pub use bundle::{load_bundle, save_bundle};
pub use delta::{BaseGraph, CompactionPolicy, DeltaGraph};
pub use dirty::{DirtyTracker, GCN_HOPS};
pub use engine::{ApplyReport, MutationOutcome, NodeScore, StreamConfig, StreamEngine};
pub use mutation::{LogEntry, Mutation, MutationLog};
