//! Host context and resource readings from `/proc`.

use std::time::Instant;

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// On-CPU and run-queue-wait nanoseconds of the calling thread.
fn thread_schedstat() -> (u64, u64) {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| {
            let mut it = s.split_whitespace().map(|f| f.parse::<u64>().ok());
            Some((it.next()??, it.next()??))
        })
        .unwrap_or((0, 0))
}

/// CPU time of the whole process, exited threads included, seconds
/// (`utime + stime` of `/proc/self/stat`, at the kernel's 100 Hz tick).
fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the full line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// A reading of the host counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    at: Instant,
    thread_oncpu_ns: u64,
    thread_wait_ns: u64,
    process_cpu_s: f64,
}

impl HostSample {
    /// Reads the counters now (on the calling thread).
    pub fn now() -> Self {
        let (thread_oncpu_ns, thread_wait_ns) = thread_schedstat();
        HostSample {
            at: Instant::now(),
            thread_oncpu_ns,
            thread_wait_ns,
            process_cpu_s: process_cpu_s(),
        }
    }

    /// Host activity between `self` and a later reading taken on the
    /// same thread.
    pub fn until(&self, later: &HostSample) -> HostUsage {
        HostUsage {
            wall_s: (later.at - self.at).as_secs_f64(),
            thread_oncpu_s: (later.thread_oncpu_ns - self.thread_oncpu_ns) as f64 * 1e-9,
            thread_runq_wait_ms: (later.thread_wait_ns - self.thread_wait_ns) as f64 * 1e-6,
            process_cpu_s: later.process_cpu_s - self.process_cpu_s,
        }
    }
}

/// Host activity over one timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostUsage {
    /// Wall time.
    pub wall_s: f64,
    /// On-CPU time of the measuring thread (`/proc/thread-self/schedstat`).
    pub thread_oncpu_s: f64,
    /// Time the measuring thread waited on a run queue.
    pub thread_runq_wait_ms: f64,
    /// CPU time of the whole process, helper threads included.
    pub process_cpu_s: f64,
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to this process.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it; `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The compiler that built this benchmark.
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}
