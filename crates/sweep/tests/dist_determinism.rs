//! The distributed determinism contract: a sweep executed through the
//! coordinator/worker runtime produces **byte-identical** reports to
//! the in-process runner — across worker counts, seeded fault plans
//! (kills, drops, delays, corruption, duplicates), degradation to
//! in-process execution, kill-the-coordinator/resume, and transports.
//!
//! Everything here runs on the discrete-event simulator (virtual
//! clock, zero wall-time dependence) except the TCP loopback test,
//! which drives the real runtime with worker threads in this process.
//! Same `FaultPlan` + seed ⇒ same lease/failure/re-issue schedule ⇒
//! same coordinator log, byte for byte — also pinned here.

use antdensity_sweep::dist::{self, DistConfig, DistOptions, FaultPlan, Transport};
use antdensity_sweep::{
    build_report, run_sweep, run_sweep_distributed, DistError, SweepOptions, SweepSpec,
};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn spec() -> SweepSpec {
    antdensity_telemetry::set_enabled(true);
    // Same heterogeneous grid as tests/determinism.rs: 4+ fused shards,
    // multiple cells per shard, every aggregate path exercised.
    SweepSpec::parse(
        "
        name = dist_det
        seed = 20160725
        trials = 2
        topology = torus2d:8, complete:64
        density = 0.1, 0.3
        rounds = 4, 6
        estimator = alg1, alg4, quorum:0.05, relfreq:0.5
        noise = none
        ",
    )
    .unwrap()
}

fn tmp_ckpt(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "antdensity_dist_det_{}_{tag}.ckpt",
        std::process::id()
    ))
}

/// Runs the sweep distributed over the simulator and asserts the
/// outcome is byte-identical to `reference`'s report.
fn assert_sim_matches(
    spec: &SweepSpec,
    reference: &antdensity_sweep::SweepOutcome,
    workers: usize,
    plan: &str,
    label: &str,
) -> dist::DistStats {
    let plan = FaultPlan::parse(plan).unwrap();
    let (outcome, stats) = run_sweep_distributed(
        spec,
        &SweepOptions::default(),
        &DistOptions::sim(workers, plan),
    )
    .unwrap_or_else(|e| panic!("{label}: distributed run failed: {e}"));
    assert!(outcome.complete, "{label}");
    assert_eq!(outcome.aggregates, reference.aggregates, "{label}");
    let (r, d) = (build_report(reference), build_report(&outcome));
    assert_eq!(r.to_json(), d.to_json(), "{label}");
    assert_eq!(r.to_csv(), d.to_csv(), "{label}");
    stats
}

#[test]
fn sim_matches_in_process_across_worker_counts() {
    let spec = spec();
    let reference = run_sweep(&spec, &SweepOptions::default()).unwrap();
    assert!(reference.complete);
    for workers in [1usize, 2, 4, 8] {
        let stats = assert_sim_matches(&spec, &reference, workers, "", &format!("w={workers}"));
        assert_eq!(stats.reissues, 0);
        assert_eq!(stats.deaths, 0);
        let shards = reference.resolved.fused.len() as u64;
        assert_eq!(stats.leases, shards, "one lease per shard, no faults");
        assert_eq!(
            stats.workers_seen, workers as u64,
            "every worker says HELLO"
        );
    }
}

#[test]
fn seeded_fault_plans_never_change_report_bytes() {
    let spec = spec();
    let reference = run_sweep(&spec, &SweepOptions::default()).unwrap();

    // Worker kill: the holder of global lease 3 dies mid-compute, is
    // respawned, and the shard is re-issued.
    let stats = assert_sim_matches(&spec, &reference, 3, "kill:lease3", "kill");
    assert_eq!(stats.deaths, 1, "kill plan must fire");
    assert!(stats.reissues >= 1);
    assert_eq!(stats.respawns, 1);

    // Message drop: the first RESULT never arrives; the lease expires
    // by heartbeat silence and the shard is re-issued.
    let stats = assert_sim_matches(&spec, &reference, 3, "drop:RESULT@1", "drop");
    assert!(stats.reissues >= 1, "dropped result must force a re-issue");

    // Duplicate result: the first RESULT is delivered twice; the copy
    // is byte-equal, so it is counted and discarded, never re-merged.
    let stats = assert_sim_matches(&spec, &reference, 3, "dup:RESULT@1", "dup");
    assert_eq!(stats.duplicates, 1);

    // Corrupted frame: detected by checksum, counted, recovered by
    // lease expiry + re-issue.
    let stats = assert_sim_matches(&spec, &reference, 3, "corrupt:RESULT@1", "corrupt");
    assert_eq!(stats.bad_frames, 1);
    assert!(stats.reissues >= 1);

    // Straggler: the first RESULT is delayed past the heartbeat
    // timeout, so its shard is re-issued — but the late answer still
    // arrives first and wins as the first valid result, making the
    // re-issued worker's answer a byte-equal duplicate. The second
    // delay keeps another shard outstanding so the duplicate lands
    // mid-run (a finished coordinator ignores everything).
    let stats = assert_sim_matches(
        &spec,
        &reference,
        3,
        "delay:RESULT@1:2200,delay:RESULT@6:3000",
        "delay",
    );
    assert!(stats.reissues >= 2);
    assert_eq!(
        stats.duplicates, 1,
        "late duplicate must be compared, not merged"
    );

    // Compound schedule across several verbs at once.
    let stats = assert_sim_matches(
        &spec,
        &reference,
        4,
        "kill:lease2,drop:RESULT@3,corrupt:HEARTBEAT@1,dup:RESULT@4",
        "compound",
    );
    assert!(stats.deaths >= 1 && stats.reissues >= 2);
}

#[test]
fn persistent_failure_degrades_to_in_process_with_identical_bytes() {
    let spec = spec();
    let reference = run_sweep(&spec, &SweepOptions::default()).unwrap();
    // w0 dies on its first lease in every incarnation (per-process
    // ordinals reset on respawn), exhausting the respawn budget; the
    // sole slot is lost and the coordinator degrades.
    let stats = assert_sim_matches(&spec, &reference, 1, "kill:w0@lease1", "degrade");
    let cfg = DistConfig::default();
    assert_eq!(stats.respawns, cfg.max_respawns);
    assert_eq!(stats.deaths, cfg.max_respawns + 1);
    assert_eq!(
        stats.degraded,
        reference.resolved.fused.len() as u64,
        "every shard must fall back in-process"
    );
}

#[test]
fn same_plan_same_seed_same_schedule() {
    // The determinism of the fault harness itself: identical
    // (plan, seed, config) ⇒ identical coordinator event log and
    // stats, byte for byte — no wall clock anywhere.
    let spec = spec();
    let resolved = spec.resolve(true).unwrap();
    let pending: Vec<usize> = (0..resolved.fused.len()).collect();
    let plan = FaultPlan::parse("kill:lease2,drop:RESULT@2,delay:HEARTBEAT@3:700").unwrap();
    let cfg = DistConfig::default();
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut blobs: Vec<(u64, String)> = Vec::new();
        let out = dist::sim::run_sim(&resolved, &pending, true, 3, &plan, &cfg, &mut |s, b| {
            blobs.push((s, b.to_string()));
            Ok(())
        })
        .unwrap();
        runs.push((out.log, out.stats, blobs));
    }
    assert_eq!(
        runs[0].0, runs[1].0,
        "coordinator logs must replay identically"
    );
    assert_eq!(runs[0].1, runs[1].1);
    assert_eq!(
        runs[0].2, runs[1].2,
        "blob completion order must replay identically"
    );
    assert!(!runs[0].0.is_empty());
}

#[test]
fn byzantine_duplicate_aborts_with_mismatch_report() {
    // dup:RESULT@1 re-delivers the first result; lie:RESULT@2 tampers
    // that copy (valid blob, different bytes). With several shards
    // still outstanding the coordinator must abort, naming the shard
    // and the first differing byte — never silently merge either blob.
    let spec = spec();
    let plan = FaultPlan::parse("dup:RESULT@1,lie:RESULT@2").unwrap();
    let err = run_sweep_distributed(&spec, &SweepOptions::default(), &DistOptions::sim(2, plan))
        .unwrap_err();
    match err {
        DistError::Mismatch { report, .. } => {
            assert!(report.contains("first_diff_at="), "report: {report}");
            assert!(report.contains("first_len="), "report: {report}");
        }
        DistError::Failed(e) => panic!("wanted Mismatch, got Failed: {e}"),
    }
}

#[test]
fn kill_coordinator_and_resume_matches_either_way() {
    let spec = spec();
    let reference = run_sweep(&spec, &SweepOptions::default()).unwrap();
    let n = reference.resolved.fused.len();
    assert!(n >= 4);

    // Distributed partial (the "coordinator was killed" state is the
    // checkpoint file), resumed in-process.
    let ckpt = tmp_ckpt("dist_then_local");
    let _ = std::fs::remove_file(&ckpt);
    let opts_partial = SweepOptions {
        checkpoint: Some(ckpt.clone()),
        max_shards: Some(2),
        checkpoint_every: 1,
        ..SweepOptions::default()
    };
    let (partial, _) = run_sweep_distributed(
        &spec,
        &opts_partial,
        &DistOptions::sim(2, FaultPlan::parse("kill:lease2").unwrap()),
    )
    .unwrap();
    assert!(!partial.complete);
    assert_eq!(partial.executed, 2);
    let resumed = run_sweep(
        &spec,
        &SweepOptions {
            checkpoint: Some(ckpt.clone()),
            resume: true,
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert!(resumed.complete);
    assert_eq!(resumed.resumed, 2, "only incomplete shards may re-run");
    assert_eq!(resumed.executed, n - 2);
    assert_eq!(resumed.aggregates, reference.aggregates);
    let _ = std::fs::remove_file(&ckpt);

    // In-process partial, resumed distributed (under a fault plan).
    let ckpt = tmp_ckpt("local_then_dist");
    let _ = std::fs::remove_file(&ckpt);
    let partial = run_sweep(
        &spec,
        &SweepOptions {
            checkpoint: Some(ckpt.clone()),
            max_shards: Some(1),
            checkpoint_every: 1,
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert!(!partial.complete);
    let opts_resume = SweepOptions {
        checkpoint: Some(ckpt.clone()),
        resume: true,
        ..SweepOptions::default()
    };
    let (resumed, stats) = run_sweep_distributed(
        &spec,
        &opts_resume,
        &DistOptions::sim(3, FaultPlan::parse("drop:RESULT@1").unwrap()),
    )
    .unwrap();
    assert!(resumed.complete);
    assert_eq!(resumed.resumed, 1);
    assert_eq!(resumed.executed, n - 1);
    assert_eq!(
        stats.leases as usize,
        (n - 1) + stats.reissues as usize,
        "leases only for incomplete shards (plus re-issues)"
    );
    assert_eq!(resumed.aggregates, reference.aggregates);
    let report = build_report(&resumed);
    let ref_report = build_report(&reference);
    assert_eq!(report.to_json(), ref_report.to_json());
    assert_eq!(report.to_csv(), ref_report.to_csv());
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn tcp_loopback_real_runtime_matches_in_process() {
    // The one wall-clock test: a listening coordinator and two worker
    // threads speaking real frames over loopback TCP. Byte-identity
    // must hold on the real transport, not just the simulator.
    let spec = spec();
    let reference = run_sweep(&spec, &SweepOptions::default()).unwrap();
    let spec_text = "
        name = dist_det
        seed = 20160725
        trials = 2
        topology = torus2d:8, complete:64
        density = 0.1, 0.3
        rounds = 4, 6
        estimator = alg1, alg4, quorum:0.05, relfreq:0.5
        noise = none
        ";
    let port = 20000 + (std::process::id() % 20000) as u16;
    let addr = format!("127.0.0.1:{port}");
    // One peer can finish the whole sweep in a few milliseconds, so a
    // peer that connects a retry later would find the run over. Each
    // peer holds its first frame after HELLO (it writes nothing before
    // its first LEASE) until both have been leased a shard: by then the
    // coordinator has seen both HELLOs. The coordinator runs fault-free.
    let leased = Arc::new((Mutex::new(0usize), Condvar::new()));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            let leased = Arc::clone(&leased);
            std::thread::spawn(move || {
                // The listener comes up concurrently; retry briefly.
                for _ in 0..100 {
                    match TcpStream::connect(&addr) {
                        Ok(stream) => {
                            let _ = stream.set_nodelay(true);
                            let read_half = BufReader::new(stream.try_clone().unwrap());
                            let writer = LeaseGate {
                                stream,
                                hello_sent: false,
                                leased: Some(leased),
                            };
                            let writer: Box<dyn Write + Send> = Box::new(writer);
                            return dist::runtime::worker_loop(
                                read_half,
                                Arc::new(Mutex::new(writer)),
                                None,
                            );
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(20)),
                    }
                }
                Err("listener never came up".to_string())
            })
        })
        .collect();
    let dopts = DistOptions {
        transport: Transport::Listen { addr: addr.clone() },
        plan: FaultPlan::none(),
        config: DistConfig::default(),
        spec_text: Some(spec_text.to_string()),
        worker_argv: None,
    };
    let (outcome, stats) = run_sweep_distributed(&spec, &SweepOptions::default(), &dopts).unwrap();
    for w in workers {
        w.join().unwrap().unwrap();
    }
    assert!(outcome.complete);
    assert_eq!(stats.workers_seen, 2);
    assert_eq!(outcome.aggregates, reference.aggregates);
    let (r, d) = (build_report(&reference), build_report(&outcome));
    assert_eq!(r.to_json(), d.to_json());
    assert_eq!(r.to_csv(), d.to_csv());
}

/// A TCP peer's frame writer that holds the peer's first write after
/// `HELLO` until both peers have reached theirs (or 10 s pass, so a
/// peer that never gets a lease fails the test instead of hanging it).
struct LeaseGate {
    stream: TcpStream,
    /// `write_frame` flushes once per frame; the first is `HELLO`.
    hello_sent: bool,
    /// Peers past their first lease; `None` once this one has passed.
    leased: Option<Arc<(Mutex<usize>, Condvar)>>,
}

impl Write for LeaseGate {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.hello_sent {
            if let Some(leased) = self.leased.take() {
                let (count, cv) = &*leased;
                let mut n = count.lock().unwrap();
                *n += 1;
                cv.notify_all();
                let _ = cv
                    .wait_timeout_while(n, Duration::from_secs(10), |n| *n < 2)
                    .unwrap();
            }
        }
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.hello_sent = true;
        self.stream.flush()
    }
}
