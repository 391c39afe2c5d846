//! The `repro` exit-code contract, exercised through the real binary
//! (`CARGO_BIN_EXE_repro`) with real child worker processes. The
//! expected codes come from the same [`ExitCode`] enum the binary
//! exits through, so the contract cannot drift from the source:
//!
//! | code | meaning                                          |
//! |------|--------------------------------------------------|
//! | 0    | complete run (distributed output byte-identical) |
//! | 1    | IO / lock / setup failure                        |
//! | 2    | usage error                                      |
//! | 3    | partial sweep (budget hit, checkpoint resumable) |
//! | 4    | distributed result mismatch (byzantine abort)    |
//!
//! Every failure path must also emit one structured, machine-greppable
//! `repro-sweep: status=…` line on stderr.

use antdensity_bench::cli::ExitCode;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SPEC: &str = "
name = cli_exit
seed = 11
trials = 2
quick_trials = 1

topology  = torus2d:8, complete:64
density   = 0.1, 0.25
rounds    = 8
estimator = alg1, quorum:0.05
";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("antdensity_cli_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_spec(dir: &Path) -> PathBuf {
    let path = dir.join("cli_exit.sweep");
    std::fs::write(&path, SPEC).unwrap();
    path
}

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn distributed_run_exits_zero_with_byte_identical_artifacts() {
    let dir = tmp_dir("ok");
    let spec = write_spec(&dir);
    let (inproc, dist) = (dir.join("inproc"), dir.join("dist"));

    let out = repro(&[
        "sweep",
        spec.to_str().unwrap(),
        "--quick",
        "--out",
        inproc.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));

    // Distributed, 4 real child workers, one scripted worker kill.
    let out = repro(&[
        "sweep",
        spec.to_str().unwrap(),
        "--quick",
        "--out",
        dist.to_str().unwrap(),
        "--serve-shards",
        "--workers-cmd",
        "4",
        "--fault",
        "kill:lease2",
        "--metrics",
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));

    for name in ["SWEEP_cli_exit.json", "SWEEP_cli_exit.csv"] {
        let a = std::fs::read(inproc.join(name)).unwrap();
        let b = std::fs::read(dist.join(name)).unwrap();
        assert_eq!(a, b, "{name} must be byte-identical");
    }

    // The metrics artifact is v3 with a dist section (and no cache —
    // the run had no --cache), and check-metrics agrees (exit 0).
    let metrics = dist.join("METRICS_cli_exit.json");
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert!(text.contains("\"schema\": \"antdensity-metrics v3\""));
    assert!(text.contains("\"dist\": {"));
    assert!(text.contains("\"sweep.dist.leases\":"));
    assert!(text.contains("\"cache\": null"));
    let out = repro(&["check-metrics", metrics.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("schema=v3"), "{stdout}");
    assert!(stdout.contains("dist=yes"), "{stdout}");
    assert!(stdout.contains("cache=no"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partial_distributed_run_exits_three_with_structured_stderr() {
    let dir = tmp_dir("partial");
    let spec = write_spec(&dir);
    let out = repro(&[
        "sweep",
        spec.to_str().unwrap(),
        "--quick",
        "--out",
        dir.to_str().unwrap(),
        "--serve-shards",
        "--workers-cmd",
        "2",
        "--max-shards",
        "1",
    ]);
    assert_eq!(
        out.status.code(),
        Some(ExitCode::Partial.code()),
        "{}",
        stderr_of(&out)
    );
    let err = stderr_of(&out);
    assert!(err.contains("repro-sweep: status=partial"), "{err}");
    assert!(err.contains("reason=max-shards-budget"), "{err}");
    assert!(err.contains("resume="), "{err}");
    assert!(
        dir.join("cli_exit.ckpt").exists(),
        "checkpoint must survive"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn byzantine_result_mismatch_exits_four() {
    let dir = tmp_dir("mismatch");
    let spec = write_spec(&dir);
    // dup:RESULT@1 re-delivers the first result; lie:RESULT@2 tampers
    // the copy into a valid-but-different blob. The coordinator must
    // abort with exit 4 and a structured mismatch report.
    let out = repro(&[
        "sweep",
        spec.to_str().unwrap(),
        "--quick",
        "--out",
        dir.to_str().unwrap(),
        "--serve-shards",
        "--workers-cmd",
        "2",
        "--fault",
        "dup:RESULT@1,lie:RESULT@2",
    ]);
    assert_eq!(
        out.status.code(),
        Some(ExitCode::Mismatch.code()),
        "{}",
        stderr_of(&out)
    );
    let err = stderr_of(&out);
    assert!(
        err.contains("repro-sweep: status=error reason=result-mismatch"),
        "{err}"
    );
    assert!(err.contains("shard="), "{err}");
    assert!(err.contains("first_diff_at="), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn locked_checkpoint_exits_one_with_structured_stderr() {
    let dir = tmp_dir("locked");
    let spec = write_spec(&dir);
    // Hold the lock from this (live) process so the child coordinator
    // cannot steal it.
    let lock = dir.join("cli_exit.ckpt.lock");
    std::fs::write(&lock, format!("{}\n", std::process::id())).unwrap();
    let out = repro(&[
        "sweep",
        spec.to_str().unwrap(),
        "--quick",
        "--out",
        dir.to_str().unwrap(),
        "--serve-shards",
        "--workers-cmd",
        "2",
    ]);
    assert_eq!(
        out.status.code(),
        Some(ExitCode::Failure.code()),
        "{}",
        stderr_of(&out)
    );
    let err = stderr_of(&out);
    assert!(err.contains("reason=checkpoint-locked"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_two() {
    let out = repro(&["sweep"]);
    assert_eq!(out.status.code(), Some(ExitCode::Usage.code()));
    let out = repro(&["sweep", "nonexistent.sweep", "--workers-cmd", "0"]);
    assert_eq!(out.status.code(), Some(ExitCode::Usage.code()));
    let out = repro(&["--definitely-not-a-flag"]);
    assert_eq!(out.status.code(), Some(ExitCode::Usage.code()));
}

/// The service front end, end to end through the real binary: start a
/// daemon on an ephemeral port, have two concurrent `serve-submit`
/// clients stream the same spec, and require the delivered report
/// files to be byte-identical to the sequential `repro sweep` run —
/// the same check the CI `serve-smoke` job performs with `cmp`.
#[test]
fn serve_submit_round_trip_matches_cli_bytes() {
    use std::io::BufRead;

    let dir = tmp_dir("serve");
    let spec = write_spec(&dir);
    let cli_out = dir.join("cli");
    let out = repro(&[
        "sweep",
        spec.to_str().unwrap(),
        "--quick",
        "--out",
        cli_out.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--listen", "127.0.0.1:0", "--executors", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let mut ready = String::new();
    std::io::BufReader::new(daemon.stdout.take().unwrap())
        .read_line(&mut ready)
        .unwrap();
    assert!(
        ready.starts_with("repro-serve: status=listening addr="),
        "{ready}"
    );
    let addr = ready
        .split("addr=")
        .nth(1)
        .and_then(|r| r.split_whitespace().next())
        .unwrap()
        .to_string();

    let clients: Vec<_> = (0..2)
        .map(|c| {
            let out_dir = dir.join(format!("client{c}"));
            let metrics = dir.join(format!("serve_metrics{c}.json"));
            let child = Command::new(env!("CARGO_BIN_EXE_repro"))
                .args([
                    "serve-submit",
                    &addr,
                    spec.to_str().unwrap(),
                    "--quick",
                    "--out",
                    out_dir.to_str().unwrap(),
                    "--metrics",
                    metrics.to_str().unwrap(),
                ])
                .output();
            (out_dir, metrics, child)
        })
        .collect();
    for (out_dir, metrics, child) in clients {
        let out = child.expect("spawn serve-submit");
        assert!(out.status.success(), "{}", stderr_of(&out));
        for name in ["SWEEP_cli_exit.json", "SWEEP_cli_exit.csv"] {
            let served = std::fs::read(out_dir.join(name)).unwrap();
            let direct = std::fs::read(cli_out.join(name)).unwrap();
            assert_eq!(served, direct, "{name} must be byte-identical");
        }
        let snapshot = std::fs::read_to_string(&metrics).unwrap();
        assert!(snapshot.contains("\"queue_depth\""), "{snapshot}");
        assert!(snapshot.contains("serve.jobs_completed"), "{snapshot}");
    }

    daemon.kill().unwrap();
    daemon.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_usage_errors_exit_two() {
    // --stdio and --listen are mutually exclusive.
    let out = repro(&["serve", "--stdio", "--listen", "127.0.0.1:0"]);
    assert_eq!(out.status.code(), Some(ExitCode::Usage.code()));
    // serve-submit requires ADDR and SPEC operands.
    let out = repro(&["serve-submit", "127.0.0.1:1"]);
    assert_eq!(out.status.code(), Some(ExitCode::Usage.code()));
    // An unreachable daemon is an IO failure, not a usage error.
    let out = repro(&["serve-submit", "127.0.0.1:1", "nonexistent.sweep"]);
    assert_eq!(out.status.code(), Some(ExitCode::Failure.code()));
}

#[test]
fn one_node_topology_is_a_usage_error_not_a_panic() {
    // A spec naming a 1-node topology used to run every shard and then
    // panic (exit 101) while building the report; admission now
    // rejects it before any work starts.
    let dir = tmp_dir("onenode");
    for token in ["complete:1", "ring:1", "torus2d:1"] {
        let spec = dir.join("onenode.sweep");
        std::fs::write(
            &spec,
            format!("name = onenode\ntrials = 1\ntopology = {token}\ndensity = 0.5\nrounds = 4\n"),
        )
        .unwrap();
        let out = repro(&[
            "sweep",
            spec.to_str().unwrap(),
            "--out",
            dir.join("out").to_str().unwrap(),
        ]);
        assert_eq!(
            out.status.code(),
            Some(ExitCode::Usage.code()),
            "{token}: {}",
            stderr_of(&out)
        );
        assert!(
            stderr_of(&out).contains("at least 2"),
            "{}",
            stderr_of(&out)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_fault_plan_exits_two() {
    let dir = tmp_dir("badplan");
    let spec = write_spec(&dir);
    let out = repro(&[
        "sweep",
        spec.to_str().unwrap(),
        "--quick",
        "--serve-shards",
        "--fault",
        "explode:everything",
    ]);
    assert_eq!(
        out.status.code(),
        Some(ExitCode::Usage.code()),
        "{}",
        stderr_of(&out)
    );
    assert!(
        stderr_of(&out).contains("--fault plan"),
        "{}",
        stderr_of(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
