//! RAII span timers, the thread-local span stack, and chrome-trace
//! event collection.

use super::metrics::Histogram;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Aggregated timing of one span name: a latency histogram in
/// nanoseconds (count and total ride along inside it).
#[derive(Debug, Default)]
pub struct SpanStat {
    name: OnceLock<&'static str>,
    durations: Histogram,
}

impl SpanStat {
    /// The duration histogram (nanoseconds).
    pub fn durations(&self) -> &Histogram {
        &self.durations
    }

    /// The name this statistic was registered under.
    pub fn name(&self) -> &'static str {
        self.name.get().copied().unwrap_or("")
    }

    /// Stamped by the registry at intern time so the drop path never
    /// has to look the name up.
    pub(crate) fn set_name(&self, name: &'static str) {
        let _ = self.name.set(name);
    }

    pub(crate) fn reset(&self) {
        self.durations.reset();
    }
}

// ---------------------------------------------------------------------
// Thread identity and the span stack.

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    /// Small dense id for this thread (chrome-trace `tid`).
    static TID: Cell<u32> = const { Cell::new(0) };
    /// Names of the spans currently open on this thread, outermost
    /// first. Gives every trace slice its parent for free.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// Buffered trace events, flushed to [`TRACE_SINK`] in chunks and
    /// on thread exit (the `Drop` of `TraceBuf`).
    static TRACE_BUF: RefCell<TraceBuf> = const { RefCell::new(TraceBuf { events: Vec::new() }) };
}

fn tid() -> u32 {
    TID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

/// Names this thread's track in exported traces (e.g. `worker-3`).
/// Returns at once in uninstrumented builds, which never trace.
pub fn label_thread(label: &str) {
    if !crate::COMPILED {
        return;
    }
    thread_labels()
        .lock()
        .expect("obs thread labels poisoned")
        .push((tid(), label.to_string()));
}

fn thread_labels() -> &'static Mutex<Vec<(u32, String)>> {
    static LABELS: OnceLock<Mutex<Vec<(u32, String)>>> = OnceLock::new();
    LABELS.get_or_init(Mutex::default)
}

// ---------------------------------------------------------------------
// Trace event collection.

/// One completed span occurrence destined for the chrome trace.
#[derive(Debug, Clone)]
pub(crate) struct TraceEvent {
    pub(crate) name: &'static str,
    pub(crate) parent: Option<&'static str>,
    pub(crate) tid: u32,
    pub(crate) start_ns: u64,
    pub(crate) dur_ns: u64,
}

struct TraceBuf {
    events: Vec<TraceEvent>,
}

impl TraceBuf {
    const FLUSH_AT: usize = 256;
}

impl Drop for TraceBuf {
    fn drop(&mut self) {
        // Thread exit: hand any tail of events to the global sink so
        // scoped worker threads never lose slices.
        if !self.events.is_empty() {
            flush_into_sink(&mut self.events);
        }
    }
}

fn flush_into_sink(events: &mut Vec<TraceEvent>) {
    trace_sink()
        .lock()
        .expect("obs trace sink poisoned")
        .append(events);
}

fn trace_sink() -> &'static Mutex<Vec<TraceEvent>> {
    static SINK: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    SINK.get_or_init(Mutex::default)
}

static TRACING: AtomicBool = AtomicBool::new(false);

/// Whether a trace collection window is open.
#[inline]
pub fn trace_active() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// The process time origin all trace timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Opens a trace collection window: spans that *end* between here and
/// [`finish_trace`] become chrome-trace slices. Discards events from
/// any earlier window. Returns at once in uninstrumented builds, whose
/// spans never record.
pub fn start_trace() {
    if !crate::COMPILED {
        return;
    }
    epoch(); // pin the time origin before the first event
    trace_sink()
        .lock()
        .expect("obs trace sink poisoned")
        .clear();
    TRACING.store(true, Ordering::Relaxed);
}

/// Closes the trace window and renders the collected events as
/// chrome://tracing JSON (load in `chrome://tracing` or Perfetto).
///
/// Threads still running keep up to one unflushed buffer chunk; join
/// workers before calling this (the exporters in this workspace do).
pub fn finish_trace() -> String {
    TRACING.store(false, Ordering::Relaxed);
    TRACE_BUF.with(|b| {
        let buf = &mut *b.borrow_mut();
        flush_into_sink(&mut buf.events);
    });
    let events = std::mem::take(&mut *trace_sink().lock().expect("obs trace sink poisoned"));
    let labels = thread_labels()
        .lock()
        .expect("obs thread labels poisoned")
        .clone();
    super::export::chrome_trace_json(&events, &labels)
}

// ---------------------------------------------------------------------
// The RAII guard.

/// Open span handle returned by [`crate::span!`]; records on drop.
#[derive(Debug)]
#[must_use = "a span closes when its guard drops; bind it with `let _span = ...`"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    stat: &'static SpanStat,
    parent: Option<&'static str>,
    start: Instant,
}

impl SpanGuard {
    /// The inert guard every `span!` site folds to in uninstrumented
    /// builds, and [`span_enter`] returns while recording is off.
    #[inline(always)]
    pub fn noop() -> SpanGuard {
        SpanGuard { active: None }
    }
}

/// Enters a span (the expansion of [`crate::span!`]). One relaxed load
/// when recording is disabled.
#[inline]
pub fn span_enter(stat: &'static SpanStat) -> SpanGuard {
    if !super::enabled() {
        return SpanGuard::noop();
    }
    let name = stat.name();
    let parent = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied();
        stack.push(name);
        parent
    });
    SpanGuard {
        active: Some(ActiveSpan {
            stat,
            parent,
            start: Instant::now(),
        }),
    }
}

impl Drop for SpanGuard {
    // Inlined so an inert guard's drop folds away at call sites in
    // other crates. Uninstrumented builds never open a span, and testing
    // `COMPILED` first lets every drop fold there, unwind paths included.
    #[inline]
    fn drop(&mut self) {
        if !crate::COMPILED {
            return;
        }
        let Some(span) = self.active.take() else {
            return;
        };
        let dur_ns = span.start.elapsed().as_nanos() as u64;
        span.stat.durations.record(dur_ns);
        SPAN_STACK.with(|s| {
            s.borrow_mut().pop();
        });
        if trace_active() {
            let start_ns = span.start.saturating_duration_since(epoch()).as_nanos() as u64;
            let event = TraceEvent {
                name: span.stat.name(),
                parent: span.parent,
                tid: tid(),
                start_ns,
                dur_ns,
            };
            TRACE_BUF.with(|b| {
                let buf = &mut *b.borrow_mut();
                buf.events.push(event);
                // Flush on batch size, and whenever this thread's
                // outermost span closes: scoped threads
                // (`std::thread::scope`) signal completion when their
                // closure returns, *before* TLS destructors run, so the
                // `TraceBuf` drop flush alone can lose a worker's tail
                // events to a `finish_trace` racing the thread's exit.
                if buf.events.len() >= TraceBuf::FLUSH_AT
                    || SPAN_STACK.with(|s| s.borrow().is_empty())
                {
                    flush_into_sink(&mut buf.events);
                }
            });
        }
    }
}
