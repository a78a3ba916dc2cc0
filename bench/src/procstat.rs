//! Process CPU time and peak memory from `/proc` (no libc crate offline).

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`): 100 on
/// every Linux ABI; `sysconf(_SC_CLK_TCK)` would need libc.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has consumed, or
/// `None` where `/proc` is unavailable.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) of this process in MiB, or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        assert!(cpu_seconds().is_some());
        assert!(peak_rss_mib().is_some_and(|m| m > 0.5));
    }
}
