//! Measurement plumbing shared by the workloads: metric collection,
//! order statistics, stats digests, CPU-time and peak-RSS probes, and
//! child-process handling.

use ccraft_sim::stats::SimStats;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::time::{Duration, Instant};

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Gated end-to-end metrics, printed in the final JSON line of an
    /// untraced run: name -> (value, unit).
    pub end_to_end: BTreeMap<String, (f64, &'static str)>,
    /// Per-layer metrics, printed in the final JSON line of a traced run.
    pub per_layer: BTreeMap<String, (f64, &'static str)>,
    /// Workload-specific end-to-end figures, printed as report lines.
    pub figures: Vec<(String, f64, &'static str)>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.insert(name.to_string(), (value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.insert(name.to_string(), (value, unit));
    }

    pub fn figure(&mut self, name: &str, value: f64, unit: &'static str) {
        self.figures.push((name.to_string(), value, unit));
    }

    /// Counts one checked operation; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1] of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Samples needed so the `q` quantile has at least ten samples above it.
pub fn samples_for(q: f64) -> usize {
    (10.0 / (1.0 - q)).ceil() as usize
}

/// FNV-1a 64 of `bytes`, as 16 hex digits.
pub fn digest_bytes(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Digest of a complete `SimStats` (its JSON serialization covers
/// every field).
pub fn digest_stats(stats: &SimStats) -> String {
    digest_bytes(
        serde_json::to_string(stats)
            .expect("SimStats serializes")
            .as_bytes(),
    )
}

/// ECC transactions in a run's DRAM traffic.
pub fn ecc_transactions(stats: &SimStats) -> u64 {
    use ccraft_sim::types::TrafficClass;
    stats.dram_count(TrafficClass::EccRead) + stats.dram_count(TrafficClass::EccWrite)
}

/// Fraction of `stats` equal to an earlier element, and that share of
/// simulated cycles: the property a result-dedupe change exploits.
pub fn duplicate_shares(stats: &[&SimStats]) -> (f64, f64) {
    let mut seen = std::collections::HashSet::new();
    let (mut dup_cells, mut dup_cycles, mut cycles) = (0u64, 0u64, 0u64);
    for s in stats {
        cycles += s.cycles;
        if !seen.insert(digest_stats(s)) {
            dup_cells += 1;
            dup_cycles += s.cycles;
        }
    }
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    (
        frac(dup_cells, stats.len() as u64),
        frac(dup_cycles, cycles),
    )
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn dup(fd: i32) -> i32;
    fn dup2(old: i32, new: i32) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RUSAGE_CHILDREN: i32 = -1;

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration;
    // the layout matches the 64-bit Linux `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Resource use of every child process waited for so far: total CPU
/// seconds (user + system) and the largest resident set, MiB.
pub fn children_usage() -> (f64, f64) {
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a valid, writable rusage for the call's duration;
    // the layout matches the 64-bit Linux `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    (tv(ru.utime) + tv(ru.stime), ru.maxrss_kib as f64 / 1024.0)
}

/// Peak resident set (`VmHWM`) of a live process, MiB.
pub fn peak_rss_mib(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU seconds (user + system) a live process has used so far.
pub fn process_cpu_s(pid: &str) -> f64 {
    // Fields 14 and 15 of /proc/<pid>/stat, counted after the
    // parenthesised command name, in clock ticks of 1/100 s.
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Runs `f` with the process's standard output sent to `path`, so the
/// program's own reports do not mix with the benchmark's.
pub fn with_stdout_to<T>(path: &Path, f: impl FnOnce() -> T) -> T {
    use std::io::Write;
    use std::os::fd::{AsRawFd, FromRawFd};
    let file = std::fs::File::create(path).expect("creating stdout log");
    std::io::stdout().flush().expect("flushing stdout");
    // SAFETY: fd 1 is open for the whole process; `dup` returns a new
    // descriptor this function owns and closes below.
    let saved = unsafe { dup(1) };
    assert!(saved >= 0, "dup(1) failed");
    // SAFETY: both descriptors are open; dup2 only rebinds fd 1.
    assert!(unsafe { dup2(file.as_raw_fd(), 1) } >= 0, "dup2 failed");
    let out = f();
    std::io::stdout().flush().expect("flushing stdout");
    // SAFETY: `saved` is the open duplicate of the original fd 1.
    assert!(unsafe { dup2(saved, 1) } >= 0, "dup2 failed");
    // SAFETY: `saved` is owned here and not used after this point.
    drop(unsafe { std::fs::File::from_raw_fd(saved) });
    out
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds elapsed since `t`.
pub fn millis(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A fresh, empty directory at `path`.
pub fn fresh_dir(path: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).unwrap_or_else(|e| panic!("creating {}: {e}", path.display()));
    path.to_path_buf()
}

/// Copies every regular file of `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) {
    fresh_dir(to);
    for entry in std::fs::read_dir(from)
        .expect("listing directory")
        .flatten()
    {
        if entry.file_type().is_ok_and(|t| t.is_file()) {
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copying file");
        }
    }
}

/// A child process that is killed and reaped when dropped, so no exit
/// path of the benchmark leaves it running.
#[derive(Debug)]
pub struct Reaped(pub Child);

impl Reaped {
    pub fn pid(&self) -> String {
        self.0.id().to_string()
    }

    /// Waits up to `limit` for the child to exit on its own.
    pub fn wait_timeout(&mut self, limit: Duration) -> Option<std::process::ExitStatus> {
        let t = Instant::now();
        loop {
            if let Ok(Some(status)) = self.0.try_wait() {
                return Some(status);
            }
            if t.elapsed() > limit {
                return None;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}
