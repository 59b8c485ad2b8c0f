//! In-house observability layer for the thrubarrier pipeline.
//!
//! Everything the workspace records at runtime flows through this crate:
//!
//! * **Counters** — relaxed atomics sharded over per-thread stripes
//!   (FFT-plan and response-curve cache hit/miss tallies, rejection
//!   reasons).
//! * **Gauges** — one relaxed atomic each (the eval run's AUC/EER,
//!   scaled to millionths).
//! * **Histograms** — 64 log2 buckets plus count/sum/max, sharded like
//!   the counters (span latencies).
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
//! There is one implementation; the `obs` cargo feature only sets
//! [`COMPILED`]. Recording is gated by [`enabled`]: `COMPILED` and one
//! process-wide flag read with a relaxed load. Without the feature
//! that is the constant `false`, so every record call, [`span_enter`]
//! and span drop folds away at compile time, and the macros resolve to
//! the never-registered `noop()` sinks. With the feature,
//! [`set_enabled`]`(false)` turns an instrumented binary back into
//! (almost) the uninstrumented one at runtime: one relaxed load and a
//! branch per call site. [`label_thread`] and [`start_trace`] also
//! return at once in uninstrumented builds.
//!
//! # Exporters
//!
//! * [`snapshot_json`] — a structured metrics snapshot (counters,
//!   gauges, histogram quantiles, span totals), stored in each run
//!   ledger record.
//! * [`start_trace`] / [`finish_trace`] — a chrome://tracing /
//!   [Perfetto](https://ui.perfetto.dev) JSON trace of every span that
//!   ends while tracing is active, with one track per thread
//!   (labelled via [`label_thread`]).
//!
//! # Longitudinal telemetry
//!
//! The [`ledger`] module persists one record per bench run to an
//! append-only JSONL store (host fingerprint, git revision, config
//! fingerprint, per-stage medians, ROC AUC/EER, the metrics snapshot),
//! so perf and accuracy drift is detected **across** runs and PRs
//! rather than within one process. Reading history and checking
//! thresholds work in uninstrumented builds too (the regression
//! sentinel in `thrubarrier-bench` rides on it).

pub mod ledger;

mod imp;
pub use imp::{
    enabled, finish_trace, label_thread, registry, reset, set_enabled, snapshot_json, span_enter,
    start_trace, trace_active, Counter, Gauge, Histogram, Registry, SpanGuard, SpanStat,
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
