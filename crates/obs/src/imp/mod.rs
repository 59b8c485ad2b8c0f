//! The instrumented implementation (compiled with the `obs` feature).

mod export;
mod metrics;
mod registry;
mod span;

pub use export::{render_text, snapshot_json};
pub use metrics::{Counter, Gauge, Histogram};
pub use registry::{registry, reset, Registry};
pub use span::{
    finish_trace, label_thread, span_enter, start_trace, trace_active, SpanGuard, SpanStat,
};

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide recording switch; one relaxed load on every hot-path
/// record. Defaults to on — building with `--features obs` is itself
/// the opt-in.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether recording is currently on (single relaxed atomic load).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide. Off, an instrumented binary
/// pays one relaxed load + branch per call site and nothing else.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}
