//! `/proc/self` readers: CPU time of this process and its peak RSS.
//!
//! CPU time (utime + stime) is the host metric that survives descheduling on
//! a shared two-core box, and the user/sys split is how the eager
//! host-DRAM zeroing shows up at all.

use std::fs;

/// Kernel `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. It is
/// 100 on every Linux ABI; reading it properly needs `sysconf`, i.e. libc,
/// which this package does not link.
const CLK_TCK: f64 = 100.0;

/// User and system CPU seconds consumed so far.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuTime {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTime {
    pub fn since(&self, earlier: &CpuTime) -> CpuTime {
        CpuTime {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Parses one `/proc/<pid>/stat` line. The command name (field 2) is
/// parenthesised and may itself contain spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<CpuTime> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTime {
        user_s: utime as f64 / CLK_TCK,
        sys_s: stime as f64 / CLK_TCK,
    })
}

/// Parses the `VmHWM:` line of `/proc/<pid>/status` into kibibytes.
pub fn parse_status_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let kb = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb)
}

/// CPU time of this process. Panics off Linux: the benchmark's host
/// metrics are defined in terms of procfs.
pub fn cpu_time() -> CpuTime {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_stat_cpu(&stat).expect("/proc/self/stat has utime and stime")
}

/// Peak resident set size of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = parse_status_hwm_kb(&status).expect("/proc/self/status has VmHWM");
    kb as f64 * 1024.0 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "4242 (bx perf) (x)) R 1 4242 4242 0 -1 4194304 1000 0 0 0 \
                    1234 567 0 0 20 0 1 0 100 1000000 250 18446744073709551615";
        let cpu = parse_stat_cpu(line).unwrap();
        assert_eq!(cpu.user_s, 12.34);
        assert_eq!(cpu.sys_s, 5.67);
    }

    #[test]
    fn truncated_stat_is_rejected() {
        assert_eq!(parse_stat_cpu("1 (x) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu("no parens here"), None);
    }

    #[test]
    fn hwm_line_is_found_among_the_others() {
        let status =
            "Name:\tbxperf\nVmPeak:\t  900000 kB\nVmHWM:\t  515072 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(parse_status_hwm_kb(status), Some(515_072));
        assert_eq!(parse_status_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_status_hwm_kb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn live_procfs_parses() {
        assert!(cpu_time().user_s >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
