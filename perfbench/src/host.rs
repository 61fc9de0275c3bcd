//! Host facts printed with every result, and the process resource usage
//! the end-to-end metrics read.

/// Facts that make results from different hosts incomparable.
#[derive(Debug, Clone, PartialEq)]
pub struct HostFacts {
    /// CPUs this process may run on (what `nproc` prints).
    pub nproc: usize,
    /// `std::thread::available_parallelism`, which sizes the program's
    /// Monte-Carlo worker pools.
    pub available_parallelism: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
}

impl HostFacts {
    /// Reads the facts of the current host; unknown values read as 0 or
    /// `"unknown"`.
    pub fn detect() -> Self {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let nproc = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .map_or(0, |list| cpu_list_len(list.trim()));
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| {
                let (key, value) = l.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            nproc,
            available_parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model,
        }
    }

    /// One JSON object with the facts.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"available_parallelism\": {}, \"cpu_model\": {}}}",
            self.nproc,
            self.available_parallelism,
            finrad_observe::json_string(&self.cpu_model)
        )
    }
}

/// Number of CPUs in a kernel CPU list such as `0-3,6,8-9`.
pub fn cpu_list_len(list: &str) -> usize {
    list.split(',')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('-') {
            Some((lo, hi)) => match (lo.parse::<usize>(), hi.parse::<usize>()) {
                (Ok(lo), Ok(hi)) if hi >= lo => hi - lo + 1,
                _ => 0,
            },
            None => usize::from(part.parse::<usize>().is_ok()),
        })
        .sum()
}

/// Process CPU time and peak resident memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Usage {
    /// User plus system CPU seconds of every thread, ended ones included.
    pub cpu_seconds: f64,
    /// Peak resident set size of this program image, MiB.
    pub peak_rss_mb: f64,
}

/// Clock ticks per second of the times in `/proc/<pid>/stat`; the
/// kernel fixes this `USER_HZ` at 100 for the proc interface.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds from the text of `/proc/self/stat`, which
/// for the whole process include the threads that have ended.
pub fn stat_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces and parentheses, so
    // count fields from the last `)`: field 3 is the first after it.
    let (_, rest) = stat.rsplit_once(')')?;
    let mut fields = rest.split_whitespace().skip(14 - 3);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Resource usage of this process so far; NaN where unreadable.
pub fn usage() -> Usage {
    let cpu_seconds = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_cpu_seconds(&s))
        .unwrap_or(f64::NAN);
    // VmHWM belongs to this program image alone; `getrusage`'s
    // `ru_maxrss` survives exec, so under `cargo run` it reports cargo's.
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let peak_rss_mb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0);
    Usage {
        cpu_seconds,
        peak_rss_mb,
    }
}
