//! Evaluation harness: metrics, trial scenarios, the multi-threaded
//! experiment runner, and one driver per table/figure of the paper.
//!
//! * [`metrics`] — TDR, FDR, ROC (0.01-step thresholds, as in the
//!   paper), AUC and EER.
//! * [`scenario`] — end-to-end trial generation: a legitimate user or a
//!   thru-barrier attacker produces sound, the VA device and the
//!   wearable record it, and the pair is handed to the defense.
//! * [`runner`] — threaded execution of trial batches and score
//!   collection for each detection method.
//! * [`experiments`] — drivers that regenerate **every table and figure**
//!   of the paper's evaluation (Table I, Table II, Figs. 3, 4, 6, 7,
//!   9a–c, 10, 11a–d, plus the Sec. V-B phoneme-detection accuracy
//!   study). Each driver returns a structured result that yields
//!   [`report::Row`]s.
//! * [`report`] — the results record: one row type, one text renderer
//!   and one JSON-lines writer for every experiment.

#![warn(missing_docs)]

pub mod experiments;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod scenario;

pub use metrics::{DetectionMetrics, RocCurve};
pub use runner::{EvalOutcome, Runner, RunnerConfig, SelectorChoice};
pub use scenario::{Trial, TrialContext, TrialGenerator, TrialSettings};
