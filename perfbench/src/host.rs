//! Host-side readings: wall clock, process CPU time and peak RSS.
//!
//! These are the only host measurements the benchmark takes; none of
//! them ever reaches simulated state.

use std::io;
use std::time::Instant;

/// Starts a host-time measurement.
#[inline(always)]
pub fn clock() -> Instant {
    // detlint: allow(wall_clock) — benchmark measurement site; host time is reported, never simulated
    Instant::now()
}

/// Clock ticks per second of `/proc/self/stat` (`USER_HZ`, fixed at 100
/// by the Linux user ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU clock ticks the whole process (every thread, live
/// or exited) has used so far.
pub fn cpu_ticks() -> io::Result<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, so 11 and 12 here.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| bad("/proc/self/stat has no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| bad("/proc/self/stat: unreadable cpu time field"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// CPU seconds between two [`cpu_ticks`] readings.
pub fn cpu_seconds(from: u64, to: u64) -> f64 {
    to.saturating_sub(from) as f64 / USER_HZ
}

/// Peak resident set size of the process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or_else(|| bad("/proc/self/status has no VmHWM line"))?;
    Ok(kib as f64 * 1024.0 / 1e6)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}
