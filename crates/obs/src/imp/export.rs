//! Exporters: chrome://tracing JSON and the structured metrics
//! snapshot.

use super::metrics::Histogram;
use super::registry::registry;
use super::span::TraceEvent;
use std::fmt::Write;

/// Escapes a string for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Renders collected span events as a chrome://tracing "trace event
/// format" document: one complete (`ph: "X"`) slice per span
/// occurrence, one track per thread, thread names as metadata events.
/// Timestamps are microseconds from the process time origin.
pub(crate) fn chrome_trace_json(events: &[TraceEvent], labels: &[(u32, String)]) -> String {
    let mut s = String::from("{\"traceEvents\":[\n");
    s.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"thrubarrier\"}}",
    );
    for (tid, label) in labels {
        let _ = write!(
            s,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            esc(label)
        );
    }
    for e in events {
        let _ = write!(
            s,
            ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3}",
            esc(e.name),
            e.tid,
            e.start_ns as f64 / 1e3,
            e.dur_ns as f64 / 1e3,
        );
        match e.parent {
            Some(p) => {
                let _ = write!(s, ",\"args\":{{\"parent\":\"{}\"}}}}", esc(p));
            }
            None => s.push('}'),
        }
    }
    s.push_str("\n]}\n");
    s
}

fn histogram_json(h: &Histogram) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"mean\":{:.1},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
        h.count(),
        h.sum(),
        h.mean(),
        h.quantile(0.5),
        h.quantile(0.9),
        h.quantile(0.99),
        h.max()
    )
}

/// The structured metrics snapshot as a JSON object (no trailing
/// newline): counters, gauges, histograms (with log2-bucket quantiles)
/// and span totals, one entry per line.
pub fn snapshot_json() -> String {
    let r = registry();
    let mut s = String::from("{\n");
    let sections: [(&str, Vec<(&'static str, String)>); 4] = [
        (
            "counters",
            r.counters()
                .into_iter()
                .map(|(n, c)| (n, c.get().to_string()))
                .collect(),
        ),
        (
            "gauges",
            r.gauges()
                .into_iter()
                .map(|(n, g)| (n, g.get().to_string()))
                .collect(),
        ),
        (
            "histograms",
            r.histograms()
                .into_iter()
                .map(|(n, h)| (n, histogram_json(h)))
                .collect(),
        ),
        (
            "spans",
            r.spans()
                .into_iter()
                .map(|(n, sp)| (n, histogram_json(sp.durations())))
                .collect(),
        ),
    ];
    let n_sections = sections.len();
    for (si, (section, entries)) in sections.into_iter().enumerate() {
        let _ = write!(s, "  \"{section}\": {{");
        let n = entries.len();
        for (i, (name, value)) in entries.into_iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            let _ = write!(s, "\n    \"{}\": {value}{comma}", esc(name));
        }
        if n > 0 {
            s.push_str("\n  ");
        }
        let comma = if si + 1 < n_sections { "," } else { "" };
        let _ = writeln!(s, "}}{comma}");
    }
    s.push('}');
    s
}
