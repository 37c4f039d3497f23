//! # gale-bench
//!
//! The experiment harness regenerating every table and figure of the GALE
//! paper's evaluation (Section VIII), plus Criterion micro-benches for the
//! algorithmic hot paths and the [`report`] contract every committed
//! `BENCH_*.json` follows. See DESIGN.md's per-experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp_ablation;
pub mod exp_casestudy;
pub mod exp_fig7;
pub mod exp_noise;
pub mod exp_table4;
pub mod exp_tables;
pub mod harness;
pub mod paths;
pub mod report;

pub use exp_ablation::ablation;
pub use exp_casestudy::casestudy;
pub use exp_fig7::{errdist, fig7a, fig7b, fig7c, fig7d, fig7e, fig7f};
pub use exp_noise::noise;
pub use exp_table4::{table4, table4_reps};
pub use exp_tables::{table2, table3};
pub use harness::{
    gale_config, paper_budget, render_table, run_method, Knobs, Method, MethodEval,
    PreparedScenario, Scenario,
};
