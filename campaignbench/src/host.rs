//! Process and host measurements from `/proc`, std-only.

use crate::clock;
use std::hint::black_box;

/// Clock ticks per second of the `/proc/self/stat` CPU counters
/// (`USER_HZ`, 100 on every Linux ABI this benchmark targets).
const USER_HZ: f64 = 100.0;

/// Process CPU time (user + system) in seconds, or `None` without
/// `/proc`.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) is parenthesised and may hold spaces;
    // fields after it are space-separated, starting at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MiB, or `None` without `/proc`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The CPU model named by `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Milliseconds one fixed integer loop takes (median of three), so a
/// figure is never read against a baseline from a slower or faster host.
pub fn calibration_ms() -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let start = clock::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
            for i in 0..20_000_000_u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(i);
            }
            black_box(x);
            clock::ms(start.elapsed())
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}
