//! In-house observability layer for the thrubarrier pipeline.
//!
//! Everything the workspace records at runtime flows through this crate:
//!
//! * **Counters** and **gauges** — single relaxed atomics (cache
//!   hit/miss tallies, the scoring-service queue depth).
//! * **Histograms** — 64 log2 buckets plus count/sum/max, all atomic
//!   (coalesced batch sizes, request latencies).
//! * **Spans** — RAII wall-clock timers ([`span!`]) that feed a latency
//!   histogram per span name and maintain a thread-local span stack, so
//!   nested stage timings keep their parent relationship.
//!
//! All of it registers in one global [`Registry`]. Registration (the
//! first call through a [`counter!`]/[`span!`] site) takes a short lock;
//! after that the hot path touches only the leaked `&'static` metric's
//! atomics — no locks, no allocation.
//!
//! # Feature gating
//!
//! The whole layer compiles to **true no-ops** unless the `obs` cargo
//! feature is on: every type becomes zero-sized, every method an empty
//! inline function, and the macros fold to constants (they branch on
//! [`COMPILED`], a `const bool`, so the instrumented arm is removed at
//! compile time). With the feature on, recording is additionally gated
//! by one process-wide flag read with a single relaxed atomic load
//! ([`enabled`]); [`set_enabled`]`(false)` turns an instrumented binary
//! back into (almost) the uninstrumented one at runtime.
//!
//! # Exporters
//!
//! * [`snapshot_json`] — a structured metrics snapshot (counters,
//!   gauges, histogram quantiles, span totals) for embedding in bench
//!   artifacts such as `BENCH_pipeline.json`.
//! * [`start_trace`] / [`finish_trace`] — a chrome://tracing /
//!   [Perfetto](https://ui.perfetto.dev) JSON trace of every span that
//!   ends while tracing is active, with one track per thread
//!   (labelled via [`label_thread`]).
//! * [`render_text`] — a plain-text report for diagnostics binaries.
//!
//! # Longitudinal telemetry
//!
//! The [`ledger`] module persists one record per bench/eval run to an
//! append-only JSONL store (host fingerprint, git revision, config
//! fingerprint, per-stage medians, ROC AUC/EER, the metrics snapshot),
//! so perf and accuracy drift is detected **across** runs and PRs
//! rather than within one process. It is deliberately not feature
//! gated: reading history and checking thresholds works in
//! uninstrumented builds too (the regression sentinel in
//! `thrubarrier-bench` rides on it).

pub mod ledger;

#[cfg(feature = "obs")]
mod imp;
#[cfg(feature = "obs")]
pub use imp::{
    enabled, finish_trace, label_thread, registry, render_text, reset, set_enabled, snapshot_json,
    span_enter, start_trace, trace_active, Counter, Gauge, Histogram, Registry, SpanGuard,
    SpanStat,
};

#[cfg(not(feature = "obs"))]
mod noop;
#[cfg(not(feature = "obs"))]
pub use noop::{
    enabled, finish_trace, label_thread, registry, render_text, reset, set_enabled, snapshot_json,
    span_enter, start_trace, trace_active, Counter, Gauge, Histogram, Registry, SpanGuard,
    SpanStat,
};

/// `true` when the crate was built with the `obs` feature. A `const`, so
/// `if COMPILED { .. } else { .. }` folds at compile time — this is what
/// makes the macros below zero-cost in uninstrumented builds.
pub const COMPILED: bool = cfg!(feature = "obs");

/// A registered [`Counter`], resolved once per call site.
///
/// ```
/// thrubarrier_obs::counter!("doc.example.hits").incr();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        if $crate::COMPILED {
            static SLOT: ::std::sync::OnceLock<&'static $crate::Counter> =
                ::std::sync::OnceLock::new();
            *SLOT.get_or_init(|| $crate::registry().counter($name))
        } else {
            $crate::Counter::noop()
        }
    };
}

/// A registered [`Gauge`], resolved once per call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {
        if $crate::COMPILED {
            static SLOT: ::std::sync::OnceLock<&'static $crate::Gauge> =
                ::std::sync::OnceLock::new();
            *SLOT.get_or_init(|| $crate::registry().gauge($name))
        } else {
            $crate::Gauge::noop()
        }
    };
}

/// A registered [`Histogram`], resolved once per call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {
        if $crate::COMPILED {
            static SLOT: ::std::sync::OnceLock<&'static $crate::Histogram> =
                ::std::sync::OnceLock::new();
            *SLOT.get_or_init(|| $crate::registry().histogram($name))
        } else {
            $crate::Histogram::noop()
        }
    };
}

/// Opens an RAII span: wall-clock time from here to the guard's drop is
/// recorded under `$name` (and emitted as a chrome-trace slice while
/// tracing is active). Bind the guard or it closes immediately:
///
/// ```
/// let _span = thrubarrier_obs::span!("doc.example.stage");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::COMPILED {
            $crate::span_enter({
                static SLOT: ::std::sync::OnceLock<&'static $crate::SpanStat> =
                    ::std::sync::OnceLock::new();
                *SLOT.get_or_init(|| $crate::registry().span($name))
            })
        } else {
            $crate::SpanGuard::noop()
        }
    };
}
