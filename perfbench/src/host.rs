//! Process-level host measurements: CPU time and peak resident memory.

/// `struct timeval` of the C library.
#[repr(C)]
#[derive(Default)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the C library on 64-bit Linux: two timevals
/// followed by fourteen `long` counters.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User and system CPU seconds this process has used so far.
pub fn cpu_seconds() -> (f64, f64) {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable value laid out as the C
    // library's `struct rusage` on 64-bit Linux, which `getrusage`
    // fills and does not retain.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return (0.0, 0.0);
    }
    let secs = |t: &TimeVal| t.sec as f64 + t.usec as f64 / 1e6;
    (secs(&usage.utime), secs(&usage.stime))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
