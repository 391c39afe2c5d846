//! Child processes of the program under test: `repro` CLI jobs timed
//! from outside, and the persistent `repro serve` daemon.
//!
//! Peak memory is `VmHWM` from `/proc/<pid>/status`. A CLI job's is
//! sampled every [`RSS_SAMPLE`] while it runs, over the job's process
//! and its descendants (the `--workers-cmd` children), and reported as
//! the sum of their peaks; `VmHWM` never falls, so only growth in the
//! last interval before exit can be missed. (The kernel's `ru_maxrss`
//! is no substitute: a child started by `vfork`-style spawning inherits
//! the spawner's own high-water mark.)

use crate::stats::ms_since;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a running CLI job's memory is sampled.
const RSS_SAMPLE: Duration = Duration::from_millis(5);

/// Child pids of every thread of `pid`.
fn children(pid: u32) -> Vec<u32> {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("children")).ok())
        .flat_map(|list| {
            list.split_whitespace()
                .filter_map(|p| p.parse().ok())
                .collect::<Vec<u32>>()
        })
        .collect()
}

/// Records the current `VmHWM` of `pid` and its descendants.
fn sample_tree(pid: u32, peaks: &mut HashMap<u32, u64>) {
    if let Some(kb) = vmhwm_kb(pid) {
        let peak = peaks.entry(pid).or_insert(0);
        *peak = (*peak).max(kb);
    }
    for child in children(pid) {
        sample_tree(child, peaks);
    }
}

/// Samples `pid`'s process tree until told to stop; yields the sum of
/// the per-process peaks, KiB.
fn sample_tree_until(pid: u32, stop: Arc<AtomicBool>) -> JoinHandle<u64> {
    std::thread::spawn(move || {
        let mut peaks = HashMap::new();
        while !stop.load(Ordering::Relaxed) {
            sample_tree(pid, &mut peaks);
            std::thread::sleep(RSS_SAMPLE);
        }
        peaks.values().sum()
    })
}

/// One timed CLI invocation.
#[derive(Debug, Clone)]
pub struct CliRun {
    /// Spawn to reaped exit.
    pub wall_ms: f64,
    /// Exit status 0.
    pub ok: bool,
    /// Peak resident set of the job's processes, summed, KiB.
    pub rss_kb: u64,
}

/// Runs `repro args…` to completion with standard error written to
/// `log`, timing it from outside; samples its memory when `sample_rss`.
pub fn run_cli(
    repro: &Path,
    args: &[String],
    log: &Path,
    sample_rss: bool,
) -> Result<CliRun, String> {
    let err = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    let t0 = Instant::now();
    let mut child = Command::new(repro)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(err)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", repro.display()))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = sample_rss.then(|| sample_tree_until(child.id(), Arc::clone(&stop)));
    std::io::copy(&mut stdout, &mut std::io::sink())
        .map_err(|e| format!("reading repro output: {e}"))?;
    // Standard output closes as the job exits.
    stop.store(true, Ordering::Relaxed);
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    let wall_ms = ms_since(t0);
    let rss_kb = sampler.map_or(0, |s| s.join().expect("rss sampler"));
    Ok(CliRun {
        wall_ms,
        ok: status.success(),
        rss_kb,
    })
}

extern "C" {
    fn syncfs(fd: i32) -> i32;
}

/// Flushes the filesystem holding `dir`, so that writes and deletions
/// made so far (by this run or an earlier one) are paid for now rather
/// than inside a later timed phase.
pub fn settle(dir: &Path) {
    use std::os::fd::AsRawFd;
    if let Ok(d) = File::open(dir) {
        // SAFETY: `d` keeps the descriptor open for the whole call.
        unsafe { syncfs(d.as_raw_fd()) };
    }
}

/// Peak resident set of a live process, KiB, from `/proc`.
pub fn vmhwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A running `repro serve` daemon on an ephemeral loopback port.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    drain: Option<JoinHandle<()>>,
    /// The address from its readiness line.
    pub addr: String,
    /// Spawn until the `status=listening` line.
    pub ready_ms: f64,
}

/// Spawns `repro serve` with two executors of one worker each (two
/// compute threads in all) and waits for its readiness line.
pub fn spawn_daemon(repro: &Path, log: &Path) -> Result<Daemon, String> {
    let err = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    let t0 = Instant::now();
    let mut child = Command::new(repro)
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--executors",
            "2",
            "--workers",
            "1",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(err)
        .spawn()
        .map_err(|e| format!("spawn {} serve: {e}", repro.display()))?;
    let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        match out.read_line(&mut line) {
            Ok(0) | Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("repro serve exited before its readiness line".into());
            }
            Ok(_) => {}
        }
        if let Some(rest) = line
            .trim()
            .strip_prefix("repro-serve: status=listening addr=")
        {
            break rest
                .split_whitespace()
                .next()
                .unwrap_or_default()
                .to_string();
        }
    };
    let ready_ms = ms_since(t0);
    // Keep reading so a chatty daemon can never block on a full pipe.
    let drain = std::thread::spawn(move || {
        let mut sink = String::new();
        while out.read_line(&mut sink).is_ok_and(|n| n > 0) {
            sink.clear();
        }
    });
    Ok(Daemon {
        child,
        drain: Some(drain),
        addr,
        ready_ms,
    })
}

impl Daemon {
    /// The daemon's peak resident set so far, KiB.
    pub fn peak_rss_kb(&self) -> Option<u64> {
        vmhwm_kb(self.child.id())
    }

    /// Asks the daemon to shut down, then waits for it (killing it after
    /// 30 s).
    pub fn stop(mut self) {
        if let Ok(mut client) = antdensity_serve::Client::connect(&self.addr) {
            let _ = client.shutdown();
        }
        self.reap(Duration::from_secs(30));
    }

    fn reap(&mut self, grace: Duration) {
        let deadline = Instant::now() + grace;
        loop {
            match self.child.try_wait() {
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(Some(_)) => break,
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Error paths drop a live daemon: kill it rather than leak it.
        self.reap(Duration::ZERO);
    }
}
