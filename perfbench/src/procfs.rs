//! Process metrics read from `/proc` (Linux), with no extra crates.

use std::fs;

/// Peak resident set size (`VmHWM`) of this process, in megabytes
/// (10^6 bytes). `None` where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// User plus system CPU seconds this process has used, over all its
/// threads, exited ones included (`/proc/self/stat` fields 14 and 15).
/// Linux reports them in `USER_HZ` ticks, which is 100 per second on every
/// architecture it exports `/proc` for, so the resolution is 10 ms.
pub fn cpu_seconds() -> Option<f64> {
    const USER_HZ: f64 = 100.0;
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) is parenthesised and may hold spaces;
    // fields are counted from after its closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3, so fields 14 and 15 are at 11 and 12.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}
