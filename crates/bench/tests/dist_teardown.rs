//! A distributed run that stops early still tears its transport down:
//! an observer that cancels leaves no child worker behind, running or
//! unreaped. Real `repro sweep-worker --stdio` children
//! (`CARGO_BIN_EXE_repro`); the only test in this binary, so every
//! child of the process is one this run spawned.

use antdensity_sweep::dist::{run_sweep_distributed_observed, DistOptions, FaultPlan, Transport};
use antdensity_sweep::{SweepOptions, SweepSpec};

const SPEC: &str = "
name = teardown
seed = 11
trials = 1
topology = torus2d:8, complete:64, ring:32
density = 0.1, 0.25, 0.5
rounds = 8
estimator = alg1
";

/// `(pid, state)` of every process whose parent is this one.
#[cfg(target_os = "linux")]
fn children() -> Vec<(u32, char)> {
    let me = std::process::id();
    let mut found = Vec::new();
    for entry in std::fs::read_dir("/proc").unwrap().flatten() {
        let Ok(pid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        // `pid (comm) state ppid …`; comm may hold spaces and parens.
        let Some(rest) = stat.rfind(')').map(|at| &stat[at + 1..]) else {
            continue;
        };
        let mut fields = rest.split_whitespace();
        let state = fields.next().and_then(|s| s.chars().next()).unwrap_or('?');
        if fields.next().and_then(|p| p.parse::<u32>().ok()) == Some(me) {
            found.push((pid, state));
        }
    }
    found
}

#[test]
#[cfg(target_os = "linux")]
fn cancelled_run_leaves_no_worker_behind() {
    let spec = SweepSpec::parse(SPEC).unwrap();
    let dopts = DistOptions {
        transport: Transport::Children { workers: 2 },
        spec_text: Some(SPEC.to_string()),
        worker_argv: Some(vec![
            env!("CARGO_BIN_EXE_repro").to_string(),
            "sweep-worker".to_string(),
            "--stdio".to_string(),
        ]),
        ..DistOptions::sim(2, FaultPlan::none())
    };
    let mut observed = 0;
    let (outcome, _) =
        run_sweep_distributed_observed(&spec, &SweepOptions::default(), &dopts, &mut |_, _, _| {
            observed += 1;
            false
        })
        .unwrap();
    assert_eq!(observed, 1, "the run stops at the first observed shard");
    assert!(!outcome.complete);
    assert_eq!(children(), Vec::new(), "workers left behind (pid, state)");
}
