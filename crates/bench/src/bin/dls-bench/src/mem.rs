//! Process memory from `/proc/<pid>/status`, and the host's steal time
//! from `/proc/stat`.

/// Resident memory of one process, in KiB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemStatus {
    /// Peak resident set size (`VmHWM`).
    pub hwm_kb: u64,
    /// Current resident set size (`VmRSS`).
    pub rss_kb: u64,
}

/// Parse the `VmHWM` and `VmRSS` lines of a `/proc/<pid>/status` text.
pub fn parse_status(text: &str) -> Option<MemStatus> {
    let field = |key: &str| -> Option<u64> {
        let line = text.lines().find(|l| l.starts_with(key))?;
        let rest = line[key.len()..].trim_start_matches(':').trim();
        rest.strip_suffix("kB")?.trim().parse().ok()
    };
    Some(MemStatus {
        hwm_kb: field("VmHWM")?,
        rss_kb: field("VmRSS")?,
    })
}

/// Read the memory status of `pid`, or of this process when `None`.
pub fn read(pid: Option<u32>) -> std::io::Result<MemStatus> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path)?;
    parse_status(&text).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("no VmHWM/VmRSS in {path}"),
        )
    })
}

/// CPU time of all CPUs since boot, in clock ticks: `(steal, total)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTimes {
    /// Time the hypervisor ran something else while a vCPU wanted to run.
    pub steal: u64,
    /// User, nice, system, idle, iowait, irq, softirq and steal together.
    pub total: u64,
}

impl CpuTimes {
    /// The share of `self .. later` that was stolen.
    pub fn steal_ratio(self, later: CpuTimes) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Parse the aggregate `cpu` line of a `/proc/stat` text.
pub fn parse_cpu_times(text: &str) -> Option<CpuTimes> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| CpuTimes {
        steal: ticks[7],
        total: ticks.iter().sum(),
    })
}

/// Read `/proc/stat`.
pub fn cpu_times() -> std::io::Result<CpuTimes> {
    let text = std::fs::read_to_string("/proc/stat")?;
    parse_cpu_times(&text).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "no cpu line in /proc/stat")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_kernel_format() {
        let text = "Name:\tdls-serve\nVmPeak:\t  912340 kB\nVmHWM:\t   171520 kB\n\
                    VmRSS:\t   170004 kB\nThreads:\t9\n";
        assert_eq!(
            parse_status(text),
            Some(MemStatus {
                hwm_kb: 171_520,
                rss_kb: 170_004
            })
        );
    }

    #[test]
    fn missing_or_malformed_fields_are_none() {
        assert_eq!(parse_status("VmRSS:\t 12 kB\n"), None);
        assert_eq!(parse_status("VmHWM:\t x kB\nVmRSS:\t 12 kB\n"), None);
    }

    #[test]
    fn parses_the_cpu_line_and_the_steal_ratio() {
        let a = parse_cpu_times("cpu  100 0 50 800 10 0 20 20 0 0\ncpu0 1 2 3\n").unwrap();
        assert_eq!(
            a,
            CpuTimes {
                steal: 20,
                total: 1000
            }
        );
        let b = parse_cpu_times("cpu  140 0 60 840 10 0 20 30 0 0\n").unwrap();
        assert_eq!(a.steal_ratio(b), 0.1);
        assert_eq!(a.steal_ratio(a), 0.0);
        assert_eq!(parse_cpu_times("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_cpu_times("cpu  1 2 3\n"), None);
        assert!(cpu_times().is_ok());
    }

    #[test]
    fn reads_this_process() {
        let m = read(None).unwrap();
        assert!(m.hwm_kb >= m.rss_kb && m.rss_kb > 0);
    }
}
