//! Process plumbing: one child process per cell with a deadline, CPU
//! pinning, peak memory and the host fingerprint.

use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// What a cell printed: `K <key> <value>` lines, parsed.
pub type CellOut = BTreeMap<String, f64>;

/// A cell that did not finish cleanly.
pub enum CellError {
    /// Killed at its deadline.
    Deadline(Duration),
    /// Exited non-zero or printed something unparsable.
    Failed(String),
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Deadline(d) => write!(f, "killed at its {} s deadline", d.as_secs()),
            CellError::Failed(why) => write!(f, "failed: {why}"),
        }
    }
}

/// A running cell.
pub struct Cell {
    child: Child,
    started: Instant,
    deadline: Duration,
}

/// Re-exec this binary as `perfbench cell <args>`.
pub fn spawn_cell(args: &[String], deadline: Duration) -> std::io::Result<Cell> {
    let child = Command::new(std::env::current_exe()?)
        .arg("cell")
        .args(args)
        // Pin glibc's mmap threshold at its default. Left alone, malloc moves
        // it at run time, and whether the next rep's multi-MB request vector
        // is then cut from warm heap or from fresh, page-faulting mmap depends
        // on the sizes the previous rep happened to free — i.e. on the seed:
        // `server_hot`'s set-up time read 5.6 ms for some seeds and 8.0 ms for
        // others, reproducibly. Pinned, every rep pays the page faults.
        .env("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=131072")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    Ok(Cell {
        child,
        started: Instant::now(),
        deadline,
    })
}

impl Cell {
    /// Wait for the cell, killing it at its deadline. Always reaps the child.
    pub fn wait(mut self) -> Result<CellOut, CellError> {
        // A cell prints a few KiB at exit, far below the pipe buffer, so
        // polling for exit before reading cannot deadlock.
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if self.started.elapsed() < self.deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err(CellError::Deadline(self.deadline));
                }
                Err(e) => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err(CellError::Failed(e.to_string()));
                }
            }
        };
        let mut text = String::new();
        if let Some(mut out) = self.child.stdout.take() {
            out.read_to_string(&mut text)
                .map_err(|e| CellError::Failed(e.to_string()))?;
        }
        if !status.success() {
            return Err(CellError::Failed(format!("exit {status}")));
        }
        let mut kv = CellOut::new();
        for line in text.lines() {
            let mut it = line.split(' ');
            if let (Some("K"), Some(k), Some(v)) = (it.next(), it.next(), it.next()) {
                let v: f64 = v
                    .parse()
                    .map_err(|_| CellError::Failed(format!("bad value in {line:?}")))?;
                kv.insert(k.to_string(), v);
            }
        }
        Ok(kv)
    }
}

extern "C" {
    // glibc, which std already links: the process/thread CPU mask.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread (and the threads it spawns later) to the
/// `slot`-th CPU it may run on. A virtual cell runs one simulated core at a
/// time and hands the floor over through futexes; with its threads spread
/// over CPUs every hand-off is a cross-CPU wake-up, which sizing measured at
/// 5-6x the host time of the pinned cell. Virtual results do not depend on
/// placement. Failure is ignored: the cell is then merely slower.
pub fn pin_to_allowed_cpu(slot: usize) {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte size
    // passed; pid 0 names the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if got != 0 {
        return;
    }
    let allowed: Vec<usize> = (0..mask.len() * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if allowed.is_empty() {
        return;
    }
    let cpu = allowed[slot % allowed.len()];
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte size passed and is
    // only read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `(key, value)` pairs identifying the host and the code measured.
pub fn host_fingerprint() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("nproc", nproc().to_string()),
        ("cpu_model", cpu),
        ("rustc", first_line_of("rustc", &["--version"])),
        ("git_commit", first_line_of("git", &["rev-parse", "HEAD"])),
    ]
}
