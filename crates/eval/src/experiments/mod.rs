//! One driver per table/figure of the paper's evaluation.
//!
//! Every driver follows the same shape: a `*Config` with a seed (and a
//! trial-count knob; the defaults are smaller than the paper's for
//! laptop runtimes), a `run` function returning a structured result,
//! and a `rows` method turning that result into [`crate::report::Row`]s
//! — the one results record that `repro` prints and writes.

pub mod ablation;
pub mod architectures;
pub mod common;
pub mod extensions;
pub mod fig11;
pub mod fig3;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod fig9;
pub mod naive_baseline;
pub mod phoneme_detection;
pub mod table1;
pub mod table2;
