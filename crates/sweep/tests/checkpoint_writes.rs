//! A distributed run writes its checkpoint as often as an in-process
//! run of the same shards, renders no record it received in a result
//! blob, and times each merge under `sweep.dist.merge`. The telemetry
//! counters are process-wide, so this file holds one test.

use antdensity_sweep::dist::{run_sweep_distributed, DistOptions, FaultPlan};
use antdensity_sweep::{run_sweep, SweepOptions, SweepSpec};
use antdensity_telemetry as telemetry;
use std::path::PathBuf;

/// 8 topologies × 16 densities: 128 one-trial fused shards, two cells
/// (two round counts) each.
fn spec() -> SweepSpec {
    let densities: Vec<String> = (1..=16)
        .map(|i| format!("{:.2}", 0.05 * i as f64))
        .collect();
    SweepSpec::parse(&format!(
        "name = ckpt_writes\nseed = 3\ntrials = 1\n\
         topology = complete:32, complete:48, ring:32, ring:48, torus2d:6, torus2d:7, \
         hypercube:5, hypercube:6\n\
         density = {}\nrounds = 4, 8\nestimator = alg1\nnoise = none\n",
        densities.join(", ")
    ))
    .unwrap()
}

fn ckpt(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "antdensity_ckpt_writes_{}_{tag}.ckpt",
        std::process::id()
    ))
}

/// What one run added to the checkpoint write counter and to the
/// sample counts of the serialize and merge spans.
fn counted(run: impl FnOnce()) -> (u64, u64, u64) {
    let read = || {
        let snap = telemetry::snapshot();
        let samples = |name| snap.histogram(name).map_or(0, |h| h.count);
        (
            snap.counter("sweep.checkpoint_writes"),
            samples("sweep.checkpoint_serialize"),
            samples("sweep.dist.merge"),
        )
    };
    let before = read();
    run();
    let after = read();
    (after.0 - before.0, after.1 - before.1, after.2 - before.2)
}

#[test]
fn distributed_checkpoint_writes_match_in_process() {
    telemetry::set_enabled(true);
    let spec = spec();
    let opts = |path: PathBuf, max_shards| SweepOptions {
        checkpoint: Some(path),
        checkpoint_every: 8,
        max_shards,
        ..SweepOptions::default()
    };
    // Full runs (128 shards: a save every 8) and budgets that end on a
    // wave (24 shards) and inside one (20: saves at 8, 16 and 20).
    for (max_shards, saves) in [(None, 16), (Some(24), 3), (Some(20), 3)] {
        let label = format!("max_shards {max_shards:?}");
        let (path_in, path_dist) = (ckpt("in"), ckpt("dist"));
        let (writes, serialized, merges) = counted(|| {
            run_sweep(&spec, &opts(path_in.clone(), max_shards)).unwrap();
        });
        assert_eq!(writes, saves, "in-process, {label}");
        assert_eq!(merges, 0, "in-process, {label}");
        let executed = max_shards.unwrap_or(128) as u64;
        assert_eq!(serialized, 2 * executed + saves, "in-process, {label}");

        let dopts = DistOptions::sim(2, FaultPlan::none());
        let (writes, serialized, merges) = counted(|| {
            run_sweep_distributed(&spec, &opts(path_dist.clone(), max_shards), &dopts).unwrap();
        });
        assert_eq!(writes, saves, "distributed, {label}");
        // Every record came from a result blob: only the saves render.
        assert_eq!(serialized, saves, "distributed, {label}");
        assert_eq!(merges, executed, "distributed, {label}");
        assert_eq!(
            std::fs::read(&path_in).unwrap(),
            std::fs::read(&path_dist).unwrap(),
            "{label}"
        );
        let _ = std::fs::remove_file(&path_in);
        let _ = std::fs::remove_file(&path_dist);
    }
}
