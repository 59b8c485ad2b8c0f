//! The uninstrumented implementation: every type is zero-sized and
//! every method an empty `#[inline(always)]` body, so instrumentation
//! call sites compile to nothing when the `obs` feature is off. The
//! API mirrors `imp` exactly — downstream code never gates on the
//! feature itself.

/// See the instrumented `Counter`; here a unit type.
#[derive(Debug, Default)]
pub struct Counter;

impl Counter {
    #[inline(always)]
    pub fn add(&self, _n: u64) {}
    #[inline(always)]
    pub fn incr(&self) {}
    pub fn get(&self) -> u64 {
        0
    }
    pub fn noop() -> &'static Counter {
        &Counter
    }
}

/// See the instrumented `Gauge`; here a unit type.
#[derive(Debug, Default)]
pub struct Gauge;

impl Gauge {
    #[inline(always)]
    pub fn add(&self, _delta: i64) {}
    #[inline(always)]
    pub fn incr(&self) {}
    #[inline(always)]
    pub fn decr(&self) {}
    #[inline(always)]
    pub fn set(&self, _value: i64) {}
    pub fn get(&self) -> i64 {
        0
    }
    pub fn noop() -> &'static Gauge {
        &Gauge
    }
}

/// See the instrumented `Histogram`; here a unit type.
#[derive(Debug, Default)]
pub struct Histogram;

impl Histogram {
    #[inline(always)]
    pub fn record(&self, _value: u64) {}
    pub fn count(&self) -> u64 {
        0
    }
    pub fn sum(&self) -> u64 {
        0
    }
    pub fn max(&self) -> u64 {
        0
    }
    pub fn mean(&self) -> f64 {
        0.0
    }
    pub fn quantile(&self, _q: f64) -> u64 {
        0
    }
    pub fn noop() -> &'static Histogram {
        &Histogram
    }
}

/// See the instrumented `SpanStat`; here a unit type.
#[derive(Debug, Default)]
pub struct SpanStat;

impl SpanStat {
    pub fn durations(&self) -> &Histogram {
        &Histogram
    }
    pub fn name(&self) -> &'static str {
        ""
    }
}

/// See the instrumented `SpanGuard`; here a unit type with no `Drop`.
#[derive(Debug)]
pub struct SpanGuard;

impl SpanGuard {
    #[inline(always)]
    pub fn noop() -> SpanGuard {
        SpanGuard
    }
}

/// See the instrumented `Registry`; here a unit type.
#[derive(Debug, Default)]
pub struct Registry;

impl Registry {
    pub fn counter(&self, _name: &'static str) -> &'static Counter {
        &Counter
    }
    pub fn gauge(&self, _name: &'static str) -> &'static Gauge {
        &Gauge
    }
    pub fn histogram(&self, _name: &'static str) -> &'static Histogram {
        &Histogram
    }
    pub fn span(&self, _name: &'static str) -> &'static SpanStat {
        &SpanStat
    }
    pub fn counters(&self) -> Vec<(&'static str, &'static Counter)> {
        Vec::new()
    }
    pub fn gauges(&self) -> Vec<(&'static str, &'static Gauge)> {
        Vec::new()
    }
    pub fn histograms(&self) -> Vec<(&'static str, &'static Histogram)> {
        Vec::new()
    }
    pub fn spans(&self) -> Vec<(&'static str, &'static SpanStat)> {
        Vec::new()
    }
}

#[inline(always)]
pub fn enabled() -> bool {
    false
}

#[inline(always)]
pub fn set_enabled(_on: bool) {}

pub fn registry() -> &'static Registry {
    &Registry
}

#[inline(always)]
pub fn reset() {}

#[inline(always)]
pub fn span_enter(_stat: &'static SpanStat) -> SpanGuard {
    SpanGuard
}

#[inline(always)]
pub fn label_thread(_label: &str) {}

#[inline(always)]
pub fn trace_active() -> bool {
    false
}

#[inline(always)]
pub fn start_trace() {}

/// An empty, still-valid chrome trace document.
pub fn finish_trace() -> String {
    "{\"traceEvents\":[]}\n".to_string()
}

/// An empty, still-valid snapshot object.
pub fn snapshot_json(indent: &str) -> String {
    format!(
        "{{\n{indent}  \"counters\": {{}},\n{indent}  \"gauges\": {{}},\n\
         {indent}  \"histograms\": {{}},\n{indent}  \"spans\": {{}}\n{indent}}}"
    )
}

/// A report that says why it is empty.
pub fn render_text() -> String {
    "== obs report ==\n(built without the `obs` feature; no metrics recorded)\n".to_string()
}
