//! End-to-end measurement (`--trace 0`): drive the workload's surface
//! the way its users do for `--seconds`, with no `--trace` or
//! `--metrics` output, and check every job's bytes.

use crate::check::{Delivery, Tally};
use crate::proc::{run_cli, spawn_daemon, CliRun, Daemon};
use crate::serve_client::{Conn, Served};
use crate::specs::Workload;
use crate::stats::{median, metric, quantile, Metric};
use crate::Ctx;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Set-up repetitions whose median is `setup_s` (dry runs: before the
/// timed stream, which then adds one per job).
const SETUP_DRY_RUNS: usize = 11;
const SETUP_DAEMONS: usize = 15;

/// Closed-loop client connections on `serve_loop`.
const SERVE_CLIENTS: usize = 2;

/// `serve_loop` reads the daemon's peak memory once this many jobs are
/// done. Its registry keeps every finished job (~16 KB each), so a peak
/// read at the end of the run would grow with the jobs a faster run
/// serves.
const RSS_AFTER_JOBS: usize = 256;

/// Runs one CLI job on pool spec `i` with the surface flags `flags`,
/// checks its report files against the reference, and removes them.
pub fn cli_job(ctx: &Ctx, i: usize, flags: &[String], tally: &mut Tally) -> Result<CliRun, String> {
    let spec = &ctx.specs[i];
    let out = ctx.work.join("out");
    let mut args = vec![
        "sweep".to_string(),
        ctx.spec_paths[i].display().to_string(),
        "--out".to_string(),
        out.display().to_string(),
    ];
    args.extend_from_slice(flags);
    let log = ctx.work.join("job.log");
    let run = run_cli(&ctx.repro, &args, &log, true)?;
    let json_path = out.join(format!("SWEEP_{}.json", spec.name));
    let csv_path = out.join(format!("SWEEP_{}.csv", spec.name));
    let delivery = if !run.ok {
        Delivery::Ended(format!("repro exited non-zero: {}", log_tail(&log)))
    } else {
        match (
            std::fs::read_to_string(&json_path),
            std::fs::read_to_string(&csv_path),
        ) {
            (Ok(json), Ok(csv)) => Delivery::Report { json, csv },
            _ => Delivery::Ended("report files missing".into()),
        }
    };
    let _ = std::fs::remove_file(&json_path);
    let _ = std::fs::remove_file(&csv_path);
    tally.record(&spec.name, &ctx.refs[i], &delivery);
    Ok(run)
}

fn log_tail(log: &Path) -> String {
    let text = std::fs::read_to_string(log).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(3)..].join(" | ")
}

/// `repro sweep` flags for an in-process run on `n` workers.
pub fn in_process(n: usize) -> Vec<String> {
    vec!["--workers".into(), n.to_string()]
}

/// The flags a workload's CLI jobs run with: `dist_pipes`' surface, or
/// for `serve_loop` the daemon's one worker per job in-process.
pub fn surface_flags(w: Workload) -> Vec<String> {
    match w {
        Workload::DistPipes => vec!["--workers-cmd".into(), "2".into()],
        Workload::ServeLoop => in_process(1),
    }
}

/// Job timings gathered by a measurement loop.
#[derive(Debug, Default)]
struct Jobs {
    wall_ms: Vec<f64>,
    /// Served jobs only: submit to the first `row` event.
    first_row_ms: Vec<f64>,
    /// Delivered agent-steps of the jobs that delivered correct bytes.
    steps: u64,
    /// Wall time the jobs were in flight, first in to last out.
    busy_ms: f64,
    peak_rss_kb: u64,
}

/// Measures the workload in `ctx` and returns its end-to-end metrics.
pub fn measure(ctx: &Ctx) -> Result<(Vec<Metric>, Tally), String> {
    let mut tally = Tally::default();
    let (setup_s, jobs) = match ctx.workload {
        Workload::ServeLoop => serve_loop(ctx, &mut tally)?,
        w => {
            let mut setup = (0..SETUP_DRY_RUNS)
                .map(|_| dry_run_s(ctx))
                .collect::<Result<Vec<_>, _>>()?;
            let jobs = cli_loop(ctx, &mut tally, &surface_flags(w), &mut setup)?;
            (median(&setup), jobs)
        }
    };
    // Printed, not gated: a 95th percentile needs more jobs than most
    // workloads finish in a run, and bursts of host load move it.
    println!(
        "  jobs: {} in the timed stream, job_p95_ms {}; {} of {} failed (failed_share {})",
        jobs.wall_ms.len(),
        quantile(&jobs.wall_ms, 0.95),
        tally.failed,
        tally.attempted,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    let msteps = jobs.steps as f64 / (jobs.busy_ms / 1e3) / 1e6;
    Ok((
        vec![
            metric("setup_s", setup_s, "s"),
            metric("msteps_per_s", msteps, "Msteps/s"),
            metric("job_p50_ms", median(&jobs.wall_ms), "ms"),
            // The CLI prints its result table and writes its report files
            // only once the sweep is done, so there a job's first row
            // arrives with its report: the job latency.
            metric(
                "first_row_p50_ms",
                median(if ctx.workload == Workload::ServeLoop {
                    &jobs.first_row_ms
                } else {
                    &jobs.wall_ms
                }),
                "ms",
            ),
            metric("peak_rss_mb", jobs.peak_rss_kb as f64 / 1024.0, "MB"),
        ],
        tally,
    ))
}

/// One `setup_s` sample of the sweep surfaces: `repro sweep --dry-run`
/// of the first spec, in seconds.
fn dry_run_s(ctx: &Ctx) -> Result<f64, String> {
    let args = vec![
        "sweep".to_string(),
        ctx.spec_paths[0].display().to_string(),
        "--dry-run".to_string(),
    ];
    let log = ctx.work.join("setup.log");
    let run = run_cli(&ctx.repro, &args, &log, false)?;
    if !run.ok {
        return Err(format!("dry run failed: {}", log_tail(&log)));
    }
    Ok(run.wall_ms / 1e3)
}

/// Runs pool jobs back to back (a closed loop of one) for `--seconds`
/// with the surface flags `flags`. A dry-run sample follows
/// each job and goes to `setup`, so `setup_s` is sampled across the
/// whole run rather than in one burst before it.
fn cli_loop(
    ctx: &Ctx,
    tally: &mut Tally,
    flags: &[String],
    setup: &mut Vec<f64>,
) -> Result<Jobs, String> {
    let mut jobs = Jobs::default();
    let started = Instant::now();
    let mut i = 0;
    while i == 0 || started.elapsed().as_secs_f64() < ctx.seconds {
        let k = i % ctx.specs.len();
        let failed_before = tally.failed;
        let run = cli_job(ctx, k, flags, tally)?;
        if tally.failed == failed_before {
            jobs.steps += ctx.refs[k].agent_steps;
        }
        // Jobs run one at a time, so the sum of their walls is the time
        // from the first job in to the last report out, less the
        // generator's own checking between jobs.
        jobs.busy_ms += run.wall_ms;
        jobs.wall_ms.push(run.wall_ms);
        jobs.peak_rss_kb = jobs.peak_rss_kb.max(run.rss_kb);
        setup.push(dry_run_s(ctx)?);
        i += 1;
    }
    Ok(jobs)
}

/// `serve_loop`: a persistent daemon and [`SERVE_CLIENTS`] closed-loop
/// clients, each submitting the next pool job once its previous job is
/// `done`. Like `repro serve-submit`, a client connects once per job:
/// on a long-lived connection the kernel's delayed-acknowledgement mode
/// settled per run, and the run's median first row sat at either one
/// or two ~40 ms stalls.
fn serve_loop(ctx: &Ctx, tally: &mut Tally) -> Result<(f64, Jobs), String> {
    let log = ctx.work.join("serve.log");
    let mut ready = Vec::with_capacity(SETUP_DAEMONS);
    let mut daemon: Option<Daemon> = None;
    for _ in 0..SETUP_DAEMONS {
        if let Some(previous) = daemon.take() {
            previous.stop();
        }
        let d = spawn_daemon(&ctx.repro, &log)?;
        ready.push(d.ready_ms / 1e3);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one daemon");
    let setup_s = median(&ready);

    let next = AtomicUsize::new(0);
    let served: Mutex<Vec<(usize, Served)>> = Mutex::new(Vec::new());
    let rss_kb: Mutex<Option<u64>> = Mutex::new(None);
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..SERVE_CLIENTS {
            s.spawn(|| {
                let result = (|| -> Result<(), String> {
                    let mut mine = 0;
                    while mine == 0 || started.elapsed().as_secs_f64() < ctx.seconds {
                        let i = next.fetch_add(1, Ordering::Relaxed) % ctx.specs.len();
                        let (mut conn, _) = Conn::connect(&daemon.addr)?;
                        let job = conn.run_job(&ctx.specs[i].text)?;
                        let mut done = served.lock().expect("results lock");
                        done.push((i, job));
                        if done.len() == RSS_AFTER_JOBS {
                            *rss_kb.lock().expect("rss lock") = daemon.peak_rss_kb();
                        }
                        drop(done);
                        mine += 1;
                    }
                    Ok(())
                })();
                if let Err(e) = result {
                    errors.lock().expect("errors lock").push(e);
                }
            });
        }
    });
    // A run too slow to reach RSS_AFTER_JOBS reads the peak at its end.
    let peak_rss_kb = rss_kb
        .into_inner()
        .expect("rss lock")
        .or_else(|| daemon.peak_rss_kb())
        .unwrap_or(0);
    daemon.stop();
    for e in errors.into_inner().expect("errors lock") {
        // A broken connection is a failed job.
        tally.record("serve client", &ctx.refs[0], &Delivery::Ended(e));
    }

    let served = served.into_inner().expect("results lock");
    let mut jobs = Jobs {
        peak_rss_kb,
        ..Jobs::default()
    };
    let first_in = served.iter().map(|(_, j)| j.submit).min();
    let mut last_out = first_in;
    for (i, job) in &served {
        if tally.record(&ctx.specs[*i].name, &ctx.refs[*i], &job.delivery) {
            jobs.steps += ctx.refs[*i].agent_steps;
        }
        jobs.wall_ms.push(job.end_ms);
        if let Some(ms) = job.first_row_ms {
            jobs.first_row_ms.push(ms);
        }
        let end = job.submit + std::time::Duration::from_secs_f64(job.end_ms / 1e3);
        last_out = last_out.max(Some(end));
    }
    if let (Some(a), Some(b)) = (first_in, last_out) {
        jobs.busy_ms = (b - a).as_secs_f64() * 1e3;
    }
    Ok((setup_s, jobs))
}
