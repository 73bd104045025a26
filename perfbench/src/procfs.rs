//! Resource accounting from `/proc`: CPU time, minor faults, peak RSS,
//! host steal.

use std::io;

/// One reading of a process's cumulative counters.
#[derive(Clone, Copy, Debug)]
pub struct ProcSample {
    pub user_s: f64,
    pub sys_s: f64,
    pub minflt: u64,
}

impl ProcSample {
    /// Counter increments since `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minflt: self.minflt - earlier.minflt,
        }
    }
}

/// `/proc/<pid>/stat` times are in USER_HZ ticks, which Linux fixes at 100
/// for every userspace ABI.
const USER_HZ: f64 = 100.0;

fn proc_dir(pid: Option<u32>) -> String {
    match pid {
        Some(p) => format!("/proc/{p}"),
        None => "/proc/self".to_string(),
    }
}

/// Reads `/proc/<pid>/stat` (`None` = this process).
pub fn sample(pid: Option<u32>) -> io::Result<ProcSample> {
    let text = std::fs::read_to_string(format!("{}/stat", proc_dir(pid)))?;
    // Field 2 (comm) may hold spaces; everything after its closing paren is
    // space-separated, starting at field 3 (state).
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed stat"))?;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> io::Result<u64> {
        f.get(n - 3)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "short stat"))
    };
    Ok(ProcSample {
        minflt: field(10)?,
        user_s: field(14)? as f64 / USER_HZ,
        sys_s: field(15)? as f64 / USER_HZ,
    })
}

/// CPU seconds the hypervisor stole from this machine, summed over its CPUs
/// (`steal` of `/proc/stat`'s `cpu` line; 0 on bare metal). Co-tenant load
/// on a shared host shows up here and stretches every wall-clock timing.
pub fn host_steal_s() -> io::Result<f64> {
    let text = std::fs::read_to_string("/proc/stat")?;
    text.lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .and_then(|l| l.split_whitespace().nth(7))
        .and_then(|v| v.parse::<u64>().ok())
        .map(|ticks| ticks as f64 / USER_HZ)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no steal in /proc/stat"))
}

/// Peak resident set size (`VmHWM`) in MB (2^20 bytes).
pub fn peak_rss_mb(pid: Option<u32>) -> io::Result<f64> {
    let text = std::fs::read_to_string(format!("{}/status", proc_dir(pid)))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))?;
    Ok(kb / 1024.0)
}

/// Size of CPU 0's L3 cache in bytes, when sysfs reports one.
pub fn l3_bytes() -> Option<u64> {
    let raw = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let raw = raw.trim();
    let (num, mult) = match raw.chars().last()? {
        'K' => (&raw[..raw.len() - 1], 1u64 << 10),
        'M' => (&raw[..raw.len() - 1], 1 << 20),
        _ => (raw, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}
