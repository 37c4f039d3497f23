//! # GALE — active adversarial learning for erroneous node detection in graphs
//!
//! A from-scratch Rust reproduction of *GALE: Active Adversarial Learning
//! for Erroneous Node Detection in Graphs* (Guan, Ma, Wang, Wu — ICDE 2023).
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`tensor`] — dense/sparse linear algebra, RNG, k-means, PCA;
//! * [`graph`] — attributed heterogeneous graphs, propagation (PPR, label
//!   propagation), traversal;
//! * [`nn`] — manual-gradient MLP/GCN/GAE, Adam, the SGAN losses;
//! * [`detect`] — the base-detector library Ψ, constraint mining, and the
//!   BART-style error generator;
//! * [`data`] — synthetic Table III dataset analogues, folds, featurization;
//! * [`core`] — the GALE framework: SGAN/SGAND, diversified-typicality query
//!   selection, annotation, oracles, memoization, the Fig. 3 pipeline;
//! * [`baselines`] — VioDet, Alad, Raha-lite, GCN, GEDet.
//!
//! ## Quickstart
//!
//! ```
//! use gale::prelude::*;
//!
//! // Generate a polluted dataset analogue, mine constraints, split folds.
//! let d = prepare(DatasetId::MachineLearning, 0.05, &ErrorGenConfig::default(), 7);
//! let mut rng = Rng::seed_from_u64(7);
//! let split = DataSplit::paper_default(d.graph.node_count(), &mut rng);
//!
//! // Run the GALE active loop with a ground-truth oracle.
//! let mut oracle = GroundTruthOracle::new(&d.truth);
//! let mut cfg = GaleConfig { local_budget: 4, iterations: 2, ..Default::default() };
//! cfg.sgan.epochs = 10; // doc-test speed
//! cfg.augment.feat.gae.epochs = 2;
//! let outcome = run_gale(&d.graph, &d.constraints, &split, &[], &[], &mut oracle, &cfg);
//! assert_eq!(outcome.predictions.len(), d.graph.node_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gale_baselines as baselines;
pub use gale_core as core;
pub use gale_data as data;
pub use gale_detect as detect;
pub use gale_graph as graph;
pub use gale_nn as nn;
pub use gale_tensor as tensor;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use gale_baselines::{
        alad, gcn_detector, gedet, raha, viodet, AladConfig, DetectionResult, GcnConfig,
        GedetConfig, RahaConfig,
    };
    pub use gale_core::{
        annotate, auc_pr, g_augment, run_gale, Annotation, AugmentConfig, EnsembleOracle, Example,
        ExamplePool, GaleConfig, GaleOutcome, GroundTruthOracle, Label, NoisyOracle, Oracle, Prf,
        QueryStrategy, Sgan, SganConfig,
    };
    pub use gale_data::{
        featurize, prepare, DataSplit, DatasetId, FeaturizeConfig, PreparedDataset,
    };
    pub use gale_detect::{
        discover_constraints, inject_errors, Constraint, DetectorLibrary, DiscoveryConfig,
        ErrorGenConfig, ErrorKind, GroundTruth,
    };
    pub use gale_graph::{AttrKind, AttrValue, Graph, Node, NodeId};
    pub use gale_tensor::{Matrix, Rng, SparseMatrix};
}
