//! `antdensity-sweep` — the declarative parameter-grid orchestrator.
//!
//! The paper's results are accuracy-vs-rounds claims swept over density,
//! topology, and estimator variants. Before this crate every such sweep
//! was a hand-written binary; here it is a committed text file:
//!
//! ```text
//! name      = alg1_accuracy
//! trials    = 8
//! topology  = torus2d:32, ring:1024, hypercube:10, complete:1024
//! density   = 0.02, 0.05, 0.1, 0.2
//! rounds    = 16, 32, 64, 128, 256, 512
//! estimator = alg1
//! ```
//!
//! The pipeline ([`run_spec_text`] end to end, or the modules à la
//! carte):
//!
//! 1. [`spec`] parses the file, expands the grid into a stable-order
//!    list of cells, and **fuses** cells that differ only on estimator
//!    and rounds into shards ([`FusedShard`]) sharing one simulation
//!    family.
//! 2. [`runner`] executes shards on the workspace's persistent
//!    [`WorkerPool`](antdensity_engine::WorkerPool): each trial is one
//!    streaming pass
//!    ([`Scenario::run_streamed`](antdensity_engine::Scenario::run_streamed))
//!    whose observers snapshot every member cell's `(estimator, rounds)`
//!    combination. Shard `i` is a pure function of `(resolved spec, i)`:
//!    its trials derive RNG streams from `(sweep seed, shard index,
//!    trial index)`, so results are bit-identical for any worker count,
//!    scheduling, interruption pattern — or fusion setting (`--no-fuse`
//!    re-simulates per cell from the same streams and lands on the same
//!    bits).
//! 3. [`aggregate`] streams per-agent metrics into O(1)-memory
//!    accumulators (`antdensity_stats` moments + histogram) — no
//!    per-trial vectors are retained.
//! 4. [`checkpoint`] persists completed shards with bit-exact f64 state
//!    after every wave; `kill -9` loses at most one wave and a resumed
//!    run finishes with **bit-identical** aggregates (property-tested in
//!    `tests/determinism.rs`).
//! 5. [`report`] emits the terminal table plus `SWEEP_<name>.json` /
//!    `SWEEP_<name>.csv`, with the paper's predicted error bound next
//!    to each measured cell.
//!
//! The `repro sweep` subcommand (crate `antdensity-bench`) is the CLI
//! front end; committed specs live under `specs/`.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod aggregate;
pub mod cache;
pub mod checkpoint;
pub mod dist;
pub mod job;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod schema;
pub mod spec;

pub use aggregate::CellAggregate;
pub use cache::{CacheStats, ShardCache};
pub use checkpoint::{Checkpoint, CheckpointLock, CheckpointWriter};
pub use dist::{
    run_sweep_distributed, run_sweep_distributed_observed, DistError, DistOptions, DistStats,
    FaultPlan, Transport,
};
pub use job::{JobError, SweepJob, ValidatedJob};
pub use metrics::{MetricsSummary, SweepMetrics};
pub use report::{build_report, build_row, SweepReport, SweepRow};
pub use runner::{
    run_shard, run_shard_unfused, run_sweep, run_sweep_observed, ShardObserver, SweepOptions,
    SweepOutcome,
};
pub use spec::{
    Cell, EstimatorAxis, FusedShard, ResolvedSweep, ShardTap, SkippedCell, SweepSpec, TapCheckpoint,
};

/// Parses a spec file's text, runs the sweep, and builds the report —
/// the whole pipeline behind `repro sweep`.
///
/// # Errors
///
/// Returns spec parse errors, checkpoint mismatch errors, or checkpoint
/// I/O failures, each as a displayable message.
pub fn run_spec_text(
    text: &str,
    opts: &SweepOptions,
) -> Result<(SweepOutcome, SweepReport), String> {
    let spec = SweepSpec::parse(text)?;
    let outcome = run_sweep(&spec, opts)?;
    let report = build_report(&outcome);
    Ok((outcome, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_pipeline() {
        let (outcome, report) = run_spec_text(
            "
            name = pipeline
            trials = 1
            topology = complete:32
            density = 0.25
            rounds = 16
            ",
            &SweepOptions::default(),
        )
        .unwrap();
        assert!(outcome.complete);
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        // d = 8/32 = 0.25; 16 rounds of i.i.d. sampling keep the mean close
        assert!(
            (row.est_mean - 0.25).abs() < 0.15,
            "est_mean {}",
            row.est_mean
        );
    }

    #[test]
    fn pipeline_surfaces_parse_errors() {
        let err = run_spec_text("trials = 1", &SweepOptions::default()).unwrap_err();
        assert!(err.contains("missing required key"));
    }
}
