//! Behavior tests for the observability layer. Every test passes both
//! with and without `--features obs`: the uninstrumented build asserts
//! the no-op contract, the instrumented build asserts real recording.

use std::sync::Mutex;
use std::time::Instant;
use thrubarrier_obs as obs;

/// Tests here flip the process-wide recording flag, so they serialize
/// on one lock instead of racing each other under the parallel test
/// harness.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn counters_gauges_and_histograms_record_when_compiled() {
    let _x = exclusive();
    obs::set_enabled(true);
    let c = obs::counter!("test.counter");
    let before = c.get();
    c.incr();
    c.add(4);
    let g = obs::gauge!("test.gauge");
    g.set(0);
    g.incr();
    g.incr();
    g.decr();
    let h = obs::histogram!("test.histogram");
    h.record(8);
    if obs::COMPILED {
        assert_eq!(c.get(), before + 5);
        assert_eq!(g.get(), 1);
        assert!(h.count() >= 1);
        assert!(h.max() >= 8);
    } else {
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.count(), 0);
    }
}

#[test]
fn macro_sites_resolve_to_the_same_registered_metric() {
    let _x = exclusive();
    obs::set_enabled(true);
    let a = obs::counter!("test.same_site");
    let b = obs::counter!("test.same_site");
    let before = a.get();
    b.incr();
    if obs::COMPILED {
        assert!(std::ptr::eq(a, b), "same name must intern to one counter");
        assert_eq!(a.get(), before + 1);
    }
}

#[test]
fn spans_feed_their_duration_histogram() {
    let _x = exclusive();
    obs::set_enabled(true);
    let stat = obs::registry().span("test.span");
    let before = stat.durations().count();
    {
        let _span = obs::span!("test.span");
        std::hint::black_box(0u64);
    }
    if obs::COMPILED {
        assert_eq!(stat.durations().count(), before + 1);
        assert_eq!(stat.name(), "test.span");
    } else {
        assert_eq!(stat.durations().count(), 0);
    }
}

#[test]
fn runtime_disable_stops_recording() {
    let _x = exclusive();
    obs::set_enabled(true);
    let c = obs::counter!("test.disable");
    let before = c.get();
    obs::set_enabled(false);
    c.incr();
    {
        let _span = obs::span!("test.disable_span");
    }
    obs::set_enabled(true);
    assert_eq!(c.get(), before, "disabled counter must not move");
    assert_eq!(
        obs::registry()
            .span("test.disable_span")
            .durations()
            .count(),
        0
    );
}

/// The bench guard for the tier-1 line: an instrumented span whose
/// recording is disabled must cost less than the measurement noise
/// floor. With the feature off the span is a true no-op; with it on,
/// the cost is one relaxed atomic load and a branch — either way, far
/// below the 100 ns/span bound asserted here (a deliberately generous
/// ceiling so shared-host noise cannot flake the suite; real cost is
/// ~1 ns).
#[test]
fn disabled_span_overhead_is_below_the_noise_floor() {
    let _x = exclusive();
    obs::set_enabled(false);
    const ITERS: u64 = 200_000;
    let mut best_ns_per_span = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for i in 0..ITERS {
            let _span = obs::span!("test.overhead");
            std::hint::black_box(i);
        }
        let ns = t0.elapsed().as_nanos() as f64 / ITERS as f64;
        best_ns_per_span = best_ns_per_span.min(ns);
    }
    obs::set_enabled(true);
    assert!(
        best_ns_per_span < 100.0,
        "disabled span costs {best_ns_per_span:.1} ns, above the 100 ns noise floor"
    );
}

#[test]
fn snapshot_json_has_all_sections_and_balanced_braces() {
    let _x = exclusive();
    obs::set_enabled(true);
    obs::counter!("test.snapshot.counter").incr();
    obs::histogram!("test.snapshot.hist").record(1000);
    let json = obs::snapshot_json();
    for section in ["\"counters\"", "\"gauges\"", "\"histograms\"", "\"spans\""] {
        assert!(json.contains(section), "missing {section} in {json}");
    }
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes, "unbalanced braces in {json}");
    if obs::COMPILED {
        assert!(json.contains("\"test.snapshot.counter\""));
        assert!(json.contains("\"count\":"));
    }
}

#[test]
fn chrome_trace_round_trip_produces_slices_per_thread() {
    let _x = exclusive();
    obs::set_enabled(true);
    obs::start_trace();
    obs::label_thread("main-test");
    {
        let _outer = obs::span!("test.trace.outer");
        let _inner = obs::span!("test.trace.inner");
    }
    std::thread::scope(|scope| {
        scope.spawn(|| {
            obs::label_thread("worker-test");
            let _span = obs::span!("test.trace.worker");
        });
    });
    let trace = obs::finish_trace();
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.trim_end().ends_with("]}"));
    assert_eq!(trace.matches('{').count(), trace.matches('}').count());
    if obs::COMPILED {
        assert!(trace.contains("\"test.trace.outer\""));
        // The worker thread exited before export; its buffered slice
        // must have been flushed by the thread-exit hook.
        assert!(trace.contains("\"test.trace.worker\""));
        // Nesting is preserved through the span stack.
        assert!(trace.contains("\"parent\":\"test.trace.outer\""));
        assert!(trace.contains("\"thread_name\""));
    }
}

#[test]
fn trace_window_scopes_event_collection() {
    let _x = exclusive();
    obs::set_enabled(true);
    {
        let _span = obs::span!("test.trace.before_window");
    }
    obs::start_trace();
    let trace = obs::finish_trace();
    assert!(
        !trace.contains("test.trace.before_window"),
        "events outside the window leaked into {trace}"
    );
    assert!(!obs::trace_active());
}

#[test]
fn reset_zeroes_registered_metrics() {
    let _x = exclusive();
    obs::set_enabled(true);
    let c = obs::counter!("test.reset.counter");
    c.incr();
    let h = obs::histogram!("test.reset.hist");
    h.record(5);
    obs::reset();
    assert_eq!(c.get(), 0);
    assert_eq!(h.count(), 0);
    assert_eq!(h.max(), 0);
}
