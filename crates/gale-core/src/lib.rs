//! # gale-core
//!
//! The GALE framework itself (ICDE 2023): the semi-supervised adversarial
//! module (SGAN/SGAND, Section IV), diversified-typicality query selection
//! (Section V), query annotation (Section VI), oracles, GAugment, the
//! memoization layer (Section VII), and the end-to-end active learning
//! pipeline of Fig. 3, plus the evaluation metrics of Section VIII.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)]

pub mod annotate;
pub mod augment;
pub mod calibrate;
pub mod label;
pub mod memo;
pub mod metrics;
pub mod oracle;
pub mod pipeline;
pub mod scale;
pub mod select;
pub mod sgan;
pub mod standardize;
pub mod strategies;
pub mod typicality;

pub use annotate::{annotate, Annotation};
pub use augment::{g_augment, AugmentConfig, Augmented};
pub use calibrate::calibrated_predictions;
pub use label::{Example, ExamplePool, Label};
pub use memo::MemoCache;
pub use metrics::{auc_pr, best_f1_threshold, prevalence_threshold, Prf};
pub use oracle::{EnsembleOracle, GroundTruthOracle, NoisyOracle, Oracle};
pub use pipeline::{run_gale, GaleConfig, GaleOutcome, IterationRecord};
pub use scale::{run_gale_scale, ScaleGaleConfig, ScaleOutcome};
pub use select::{objective, qselect};
pub use sgan::{verdict, Sgan, SganConfig, TrainStats, Verdict, SYNTHETIC_CLASS};
pub use standardize::ColumnStandardizer;
pub use strategies::{cold_start_queries, select_queries, QueryStrategy, SelectionInputs};
pub use typicality::{
    clustering_typicality, topological_typicality, typicality_scores, TypicalityContext,
    TypicalityScores,
};
