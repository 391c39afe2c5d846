//! Traced run (`--trace 1`): replays the workload's inputs through each
//! layer's public functions, times every call from outside, and reads
//! the program's own counters from `--metrics` files and the serve
//! `metrics` op.
//!
//! Most metrics are measured on the workload's own first spec. The
//! compute layers no workload gates are pinned to the inputs they are
//! about, whatever the workload: `engine.mega_step_ns`,
//! `counts.node_round_ns` and `counts.scaling_2w` on a 2²⁰-agent
//! torus cell, and `graphs.build_ms`, `theory.lambda_ms` and
//! `pool.scaling_2w` on the paper-style grid of [`specs::grid_spec`].
//!
//! `unattributed_share` compares the untraced surface job on the first
//! spec with the sum of the replayed layer times for that job;
//! `trace.overhead_share` compares it with the same job run with
//! `--metrics` and `--trace` output (on `serve_loop`, with a `metrics`
//! op after each job, the only observation that surface offers).

use crate::check::{Delivery, Reference, Tally};
use crate::e2e::{cli_job, in_process, surface_flags};
use crate::proc::spawn_daemon;
use crate::serve_client::{Conn, Served};
use crate::specs::{self, Spec, Workload};
use crate::stats::{median, metric, ms_since, quantile, share, Metric};
use crate::Ctx;
use antdensity_core::theory::TopologyClass;
use antdensity_engine::{CountsEngine, Engine, ObserverTap, Scenario, TopologySpec};
use antdensity_serve::Json;
use antdensity_stats::rng::SeedSequence;
use antdensity_sweep::dist::protocol::{read_frame, write_frame};
use antdensity_sweep::dist::{parse_blob, Msg};
use antdensity_sweep::{
    build_report, checkpoint, run_shard, run_sweep, Checkpoint, FusedShard, ResolvedSweep,
    ShardCache, SweepOptions, SweepSpec,
};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Shards per checkpoint wave, as `repro sweep` writes them.
const WAVE: usize = 8;

/// Layer times that must be taken before anything else in the process
/// touches the graph or spectral caches.
#[derive(Debug, Clone, Copy)]
pub struct Cold {
    build_ms: f64,
    lambda_ms: f64,
}

/// Times `TopologySpec::build` for each topology of `spec`, then
/// `TopologyClass::measured` for those the report prices by their
/// measured gap — both cached per process, so this must run first.
pub fn cold_layers(spec: &Spec) -> Result<Cold, String> {
    let parsed = SweepSpec::parse(&spec.text)?;
    let mut cold = Cold {
        build_ms: 0.0,
        lambda_ms: 0.0,
    };
    for &t in &parsed.topologies {
        let t0 = Instant::now();
        std::hint::black_box(t.build());
        cold.build_ms += ms_since(t0);
        if TopologyClass::from_spec(t).is_none() {
            let t0 = Instant::now();
            std::hint::black_box(TopologyClass::measured(t));
            cold.lambda_ms += ms_since(t0);
        }
    }
    Ok(cold)
}

/// Repetitions of the surface and replay measurements.
const REPS: usize = 3;

/// Runs the traced replay of `ctx`'s workload.
pub fn traced(ctx: &Ctx, cold: Cold) -> Result<(Vec<Metric>, Tally), String> {
    let mut tally = Tally::default();
    let mut out = Vec::new();
    let spec0 = &ctx.specs[0];
    let resolved = SweepSpec::parse(&spec0.text)?.resolve(true)?;

    let resolve_ms = {
        let mut ms = Vec::new();
        for spec in &ctx.specs {
            for _ in 0..5 {
                let t0 = Instant::now();
                SweepSpec::parse(&spec.text)?.resolve(true)?;
                ms.push(ms_since(t0));
            }
        }
        median(&ms)
    };
    out.push(metric("spec.resolve_ms", resolve_ms, "ms"));
    out.push(metric("graphs.build_ms", cold.build_ms, "ms"));
    out.push(metric("theory.lambda_ms", cold.lambda_ms, "ms"));

    let surface = surface_runs(ctx, &mut tally)?;
    let replay = replay(ctx, &resolved, &ctx.refs[0], &mut tally)?;
    let steps = engine_steps(&resolved);
    let mega = mega_cell(ctx.seed);
    let pool_scaling = pool_scaling(ctx.seed)?;
    let dist = dist_layers(ctx, &mut tally)?;
    let serve = serve_layers(ctx, &mut tally)?;

    let h = &surface.metrics;
    let c = &warm_store_counters(ctx, &replay.store, &mut tally)?;
    let round_ns = hist_sum(h, "engine.round");
    out.extend([
        metric("engine.step_ns", steps.step_ns, "ns"),
        metric("engine.mega_step_ns", mega.step_ns, "ns"),
        metric(
            "engine.rng_draw_share",
            share(hist_sum(h, "engine.rng_draw"), round_ns),
            "share",
        ),
        metric(
            "engine.apply_moves_share",
            share(hist_sum(h, "engine.apply_moves"), round_ns),
            "share",
        ),
        metric(
            "engine.occupancy_rebuild_share",
            share(hist_sum(h, "engine.occupancy_rebuild"), round_ns),
            "share",
        ),
        metric("engine.bytes_per_step_computed", steps.bytes_per_step, "B"),
        metric("observer.ns", steps.observer_ns, "ns"),
        metric("counts.node_round_ns", mega.counts_node_round_ns, "ns"),
        metric("counts.scaling_2w", mega.counts_scaling_2w, "ratio"),
        metric(
            "counts.bytes_per_step_computed",
            mega.counts_bytes_per_step,
            "B",
        ),
        metric("pool.scaling_2w", pool_scaling, "ratio"),
        metric("runner.shard_ms_p50", median(&replay.shard_ms), "ms"),
        metric(
            "runner.shard_ms_p95",
            quantile(&replay.shard_ms, 0.95),
            "ms",
        ),
        metric("checkpoint.save_ms", replay.ckpt_ms, "ms"),
        metric("checkpoint.bytes", replay.ckpt_bytes as f64, "B"),
        metric("report.build_ms", replay.build_ms, "ms"),
        metric("report.encode_ms", replay.encode_ms, "ms"),
        metric("report.write_ms", replay.write_ms, "ms"),
        metric("report.bytes", replay.report_bytes as f64, "B"),
        metric("cache.put_us_p50", median(&replay.put_us), "us"),
        metric("cache.put_us_p95", quantile(&replay.put_us, 0.95), "us"),
        metric("cache.bytes_written", replay.cache_bytes as f64, "B"),
        metric("cache.get_us_p50", median(&replay.get_us), "us"),
        metric("cache.get_us_p95", quantile(&replay.get_us, 0.95), "us"),
        metric(
            "cache.hit_share",
            share(
                counter(c, "sweep.cache.hits"),
                counter(c, "sweep.cache.hits") + counter(c, "sweep.cache.misses"),
            ),
            "share",
        ),
        metric("dist.spawn_ms", dist.spawn_ms, "ms"),
        metric("dist.blob_encode_us", median(&replay.encode_us), "us"),
        metric("dist.blob_parse_us", median(&replay.parse_us), "us"),
        metric("dist.frame_us", median(&replay.frame_us), "us"),
        metric("dist.leases", dist.leases, "count"),
        metric("dist.overhead_share", dist.overhead_share, "share"),
        metric("serve.connect_ms", serve.connect_ms, "ms"),
        metric("serve.accept_ms_p50", serve.accept_ms, "ms"),
        metric("serve.queue_ms_p50", serve.queue_ms, "ms"),
        metric("serve.stream_ms_p50", serve.stream_ms, "ms"),
        metric("serve.deliver_ms_p50", serve.deliver_ms, "ms"),
        metric("serve.event_parse_us", serve.event_parse_us, "us"),
        metric("serve.bytes_per_job", serve.bytes_per_job, "B"),
        metric("serve.queue_peak", serve.queue_peak, "count"),
    ]);
    for (name, label) in COUNTERS {
        let source = if name.starts_with("sweep.cache.") {
            c
        } else {
            h
        };
        out.push(metric(label, counter(source, name), "count"));
    }

    // Attribution of the untraced surface job on the first spec. The
    // replayed execution (`run_sweep` as the surface configures it)
    // contains spec resolution; the workloads' small graphs build in
    // microseconds and are left to the residual. serve_loop writes no
    // files.
    let mut parts = vec![
        ("execution", replay.exec_ms),
        ("report.build+encode", replay.build_ms + replay.encode_ms),
    ];
    match ctx.workload {
        Workload::ServeLoop => parts.push(("serve.event_parse", surface.parse_ms)),
        w => {
            parts.push(("checkpoint.save", replay.ckpt_ms));
            parts.push(("report.write", replay.write_ms));
            if w == Workload::DistPipes {
                parts.push(("dist.spawn", dist.spawn_ms));
                let blobs: f64 = [&replay.encode_us, &replay.parse_us, &replay.frame_us]
                    .iter()
                    .map(|v| v.iter().sum::<f64>())
                    .sum();
                parts.push(("dist.blob+frame", blobs / 1e3));
            }
        }
    }
    let e2e = surface.e2e_ms;
    println!(
        "  attribution of one {} job ({e2e:.3} ms end to end):",
        ctx.workload.name()
    );
    let mut attributed = 0.0;
    for (name, ms) in &parts {
        println!("    {name:<22} {ms:>12.3} ms  {:>6.1}%", 100.0 * ms / e2e);
        attributed += ms;
    }
    let unattributed = 1.0 - attributed / e2e;
    println!(
        "    {:<22} {:>12.3} ms  {:>6.1}%",
        "unattributed",
        e2e - attributed,
        100.0 * unattributed
    );
    out.push(metric(
        "trace.overhead_share",
        surface.traced_ms / e2e - 1.0,
        "share",
    ));
    out.push(metric("unattributed_share", unattributed, "share"));
    Ok((out, tally))
}

/// The program's counters reported per traced run, by their name in
/// `--metrics` files and the serve `metrics` op: the cache counters
/// from the warm-store run of the first spec, the others from the
/// workload's own surface. They count work, not time, so they repeat
/// exactly from run to run.
const COUNTERS: [(&str, &str); 6] = [
    ("engine.agent_steps", "count.engine.agent_steps"),
    ("counts.agent_steps", "count.counts.agent_steps"),
    ("sweep.shards_completed", "count.sweep.shards_completed"),
    ("sweep.cache.hits", "count.sweep.cache.hits"),
    ("sweep.cache.misses", "count.sweep.cache.misses"),
    ("sweep.cache.stores", "count.sweep.cache.stores"),
];

fn counter(metrics: &Json, name: &str) -> f64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn hist_sum(metrics: &Json, name: &str) -> f64 {
    metrics
        .get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get("sum_ns"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn read_metrics(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
}

/// The first spec through the workload's own surface.
struct Surface {
    /// Median untraced job.
    e2e_ms: f64,
    /// Median job with `--metrics` and `--trace` output.
    traced_ms: f64,
    /// The program's counters (and, from the CLI, histograms).
    metrics: Json,
    /// Client-side event parsing per served job (serve only).
    parse_ms: f64,
}

fn surface_runs(ctx: &Ctx, tally: &mut Tally) -> Result<Surface, String> {
    if ctx.workload == Workload::ServeLoop {
        return serve_surface(ctx, tally);
    }
    let flags = surface_flags(ctx.workload);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let metrics_path = ctx.work.join("METRICS.json");
    for _ in 0..REPS {
        plain.push(cli_job(ctx, 0, &flags, tally)?.wall_ms);
        let mut flags = flags.clone();
        flags.extend([
            "--metrics".to_string(),
            metrics_path.display().to_string(),
            "--trace".to_string(),
            ctx.work.join("trace.json").display().to_string(),
        ]);
        traced.push(cli_job(ctx, 0, &flags, tally)?.wall_ms);
    }
    Ok(Surface {
        e2e_ms: median(&plain),
        traced_ms: median(&traced),
        metrics: read_metrics(&metrics_path)?,
        parse_ms: 0.0,
    })
}

/// `serve_loop`'s surface: one client submitting the first spec to a
/// fresh daemon on a new connection per job, plainly and then with a
/// `metrics` op after each job.
/// The engine histograms come from one CLI `--metrics` run of the same
/// spec, since the daemon's snapshot carries counters only.
fn serve_surface(ctx: &Ctx, tally: &mut Tally) -> Result<Surface, String> {
    let daemon = spawn_daemon(&ctx.repro, &ctx.work.join("serve.log"))?;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut parse_ms = Vec::new();
    let mut snapshot = None;
    for _ in 0..REPS {
        let (mut conn, _) = Conn::connect(&daemon.addr)?;
        let job = conn.run_job(&ctx.specs[0].text)?;
        tally.record(&ctx.specs[0].name, &ctx.refs[0], &job.delivery);
        plain.push(job.end_ms);
        parse_ms.push(job.parse_ns as f64 / 1e6);
    }
    for _ in 0..REPS {
        let (mut conn, _) = Conn::connect(&daemon.addr)?;
        let job = conn.run_job(&ctx.specs[0].text)?;
        tally.record(&ctx.specs[0].name, &ctx.refs[0], &job.delivery);
        traced.push(job.end_ms);
        snapshot = Some(conn.metrics()?);
    }
    daemon.stop();
    let mut metrics = snapshot.expect("at least one traced job");
    let histograms_path = ctx.work.join("METRICS.json");
    let mut flags = surface_flags(ctx.workload);
    flags.extend([
        "--metrics".to_string(),
        histograms_path.display().to_string(),
    ]);
    cli_job(ctx, 0, &flags, tally)?;
    if let (Json::Obj(pairs), Some(h)) = (
        &mut metrics,
        read_metrics(&histograms_path)?.get("histograms"),
    ) {
        pairs.push(("histograms".to_string(), h.clone()));
    }
    Ok(Surface {
        e2e_ms: median(&plain),
        traced_ms: median(&traced),
        metrics,
        parse_ms: median(&parse_ms),
    })
}

/// Per-call layer timings of the first spec, replayed in-process.
#[derive(Debug, Default)]
struct Replay {
    shard_ms: Vec<f64>,
    encode_us: Vec<f64>,
    parse_us: Vec<f64>,
    frame_us: Vec<f64>,
    ckpt_ms: f64,
    ckpt_bytes: u64,
    put_us: Vec<f64>,
    get_us: Vec<f64>,
    cache_bytes: u64,
    /// The store the puts filled.
    store: PathBuf,
    exec_ms: f64,
    build_ms: f64,
    encode_ms: f64,
    write_ms: f64,
    report_bytes: u64,
}

fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

fn replay(
    ctx: &Ctx,
    resolved: &ResolvedSweep,
    reference: &Reference,
    tally: &mut Tally,
) -> Result<Replay, String> {
    let mut r = Replay::default();
    let cells = resolved.cells.len();
    let mut blobs = Vec::with_capacity(resolved.fused.len());
    let mut done = BTreeMap::new();
    let ckpt_path = ctx.work.join("replay").join("replay.ckpt");
    for (i, shard) in resolved.fused.iter().enumerate() {
        let t0 = Instant::now();
        let aggs = run_shard(resolved, shard.index);
        r.shard_ms.push(ms_since(t0));

        // What `shard_blob` does after running the shard, then the
        // coordinator's side: frame out, frame in, parse.
        let t0 = Instant::now();
        let blob = Checkpoint {
            fingerprint: resolved.fingerprint,
            cells,
            shards: aggs.iter().cloned().collect(),
        }
        .to_text();
        r.encode_us.push(us_since(t0));
        let msg = Msg::Result {
            lease: i as u64 + 1,
            shard: shard.index as u64,
            blob: blob.clone(),
        };
        let t0 = Instant::now();
        let frame = msg.encode_frame();
        let back = read_frame(&mut BufReader::new(frame.as_slice()))?;
        r.frame_us.push(us_since(t0));
        if back.as_ref() != Some(&msg) {
            return Err("a result frame did not round-trip".into());
        }
        let t0 = Instant::now();
        parse_blob(resolved, &blob)?;
        r.parse_us.push(us_since(t0));

        // Checkpoint waves: the full completed state after every WAVE
        // shards and after the last.
        done.extend(aggs);
        if (i + 1) % WAVE == 0 || i + 1 == resolved.fused.len() {
            let t0 = Instant::now();
            checkpoint::save_shards(&ckpt_path, resolved.fingerprint, cells, &done)
                .map_err(|e| format!("checkpoint save: {e}"))?;
            r.ckpt_ms += ms_since(t0);
            r.ckpt_bytes += std::fs::metadata(&ckpt_path).map_or(0, |m| m.len());
        }
        blobs.push(blob);
    }

    let put_store = ctx.work.join("store_replay");
    let _ = std::fs::remove_dir_all(&put_store);
    let cache = ShardCache::open(&put_store)?;
    for (shard, blob) in resolved.fused.iter().zip(&blobs) {
        let t0 = Instant::now();
        cache.blob_put(resolved, shard.index, blob);
        r.put_us.push(us_since(t0));
    }
    for shard in &resolved.fused {
        let t0 = Instant::now();
        let hit = cache.blob_get(resolved, shard.index);
        r.get_us.push(us_since(t0));
        if hit.is_none() {
            return Err(format!(
                "cache replay: shard {} missed after its put",
                shard.index
            ));
        }
    }
    r.cache_bytes = cache.stats().bytes_written;
    r.store = put_store;

    // Execution as the surface configures it, without checkpoint files.
    let spec = SweepSpec::parse(&ctx.specs[0].text)?;
    let mut exec_ms = Vec::new();
    let mut outcome = None;
    for _ in 0..REPS {
        let opts = SweepOptions {
            quick: true,
            workers: if ctx.workload == Workload::DistPipes {
                2
            } else {
                1
            },
            ..SweepOptions::default()
        };
        let t0 = Instant::now();
        outcome = Some(run_sweep(&spec, &opts)?);
        exec_ms.push(ms_since(t0));
    }
    r.exec_ms = median(&exec_ms);
    let outcome = outcome.expect("at least one execution");

    let t0 = Instant::now();
    let report = build_report(&outcome);
    r.build_ms = ms_since(t0);
    let t0 = Instant::now();
    let json = report.to_json();
    let csv = report.to_csv();
    r.encode_ms = ms_since(t0);
    r.report_bytes = (json.len() + csv.len()) as u64;
    let t0 = Instant::now();
    report
        .write(&ctx.work.join("replay"))
        .map_err(|e| format!("report write: {e}"))?;
    r.write_ms = ms_since(t0);
    tally.record(
        "in-process replay",
        reference,
        &Delivery::Report { json, csv },
    );
    Ok(r)
}

/// The cache's read side through the program: `repro sweep` of the
/// first spec against `store`, which the replay's puts filled, with
/// its counters.
fn warm_store_counters(ctx: &Ctx, store: &Path, tally: &mut Tally) -> Result<Json, String> {
    let path = ctx.work.join("METRICS_cache.json");
    let mut flags = in_process(1);
    flags.extend([
        "--no-checkpoint".to_string(),
        "--cache".to_string(),
        store.display().to_string(),
        "--metrics".to_string(),
        path.display().to_string(),
    ]);
    cli_job(ctx, 0, &flags, tally)?;
    read_metrics(&path)
}

fn base_scenario(resolved: &ResolvedSweep, shard: &FusedShard) -> Scenario {
    let base = &resolved.cells[shard.cells[0]];
    let mut scenario = Scenario::new(base.topology, base.num_agents, shard.max_rounds())
        .with_movement(base.movement.clone());
    if let Some(noise) = base.noise {
        scenario = scenario.with_noise(noise);
    }
    scenario
}

/// Engine stepping and observer cost on the agent-level shards.
struct Steps {
    step_ns: f64,
    observer_ns: f64,
    bytes_per_step: f64,
}

/// Steps one agent-level engine for `rounds` rounds as `Scenario`
/// drives it (one worker). Returns (construction + placement +
/// stepping, stepping alone), in nanoseconds.
fn step_alone(
    topology: TopologySpec,
    agents: usize,
    movement: &antdensity_engine::MovementModel,
    rounds: u64,
    seed: u64,
) -> (f64, f64) {
    let t0 = Instant::now();
    let seq = SeedSequence::new(seed);
    let mut engine = Engine::new(topology.build(), agents)
        .with_seed_sequence(seq.subsequence(1))
        .with_threads(1);
    engine.set_movement_all(movement);
    engine.place_uniform(&mut seq.rng(2));
    let t1 = Instant::now();
    for _ in 0..rounds {
        engine.step_round_parallel();
    }
    let stepping = t1.elapsed().as_nanos() as f64;
    (t0.elapsed().as_nanos() as f64, stepping)
}

fn engine_steps(resolved: &ResolvedSweep) -> Steps {
    let (mut full_ns, mut step_ns, mut stream_ns, mut steps, mut bytes) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for shard in &resolved.fused {
        let base = &resolved.cells[shard.cells[0]];
        let rounds = shard.max_rounds();
        let shard_steps = (base.num_agents as u64 * rounds) as f64;
        let taps: Vec<ObserverTap> = shard
            .taps
            .iter()
            .map(|t| ObserverTap {
                estimator: t.estimator.clone(),
                schedule: t.schedule(),
            })
            .collect();
        let scenario = base_scenario(resolved, shard);
        let repeat = (2e6 / shard_steps).ceil().clamp(1.0, 20.0) as u64;
        for rep in 0..repeat {
            let seed = resolved.seed ^ rep;
            let (full, alone) =
                step_alone(base.topology, base.num_agents, &base.movement, rounds, seed);
            let t0 = Instant::now();
            scenario.run_streamed(seed, &taps);
            stream_ns += t0.elapsed().as_nanos() as f64;
            full_ns += full;
            step_ns += alone;
            steps += shard_steps;
        }
        // Computed from array sizes, per agent-step: the step reads and
        // writes a u32 position; the occupancy rebuild reads it again
        // and read-modify-writes a u32 count; clearing touches a u32
        // count and a u32 touched-list entry per occupied node.
        let nodes = base.topology.num_nodes() as f64;
        let agents = base.num_agents as f64;
        bytes += repeat as f64 * shard_steps * (20.0 + 12.0 * nodes.min(agents) / agents);
    }
    Steps {
        step_ns: share(step_ns, steps),
        observer_ns: share(stream_ns - full_ns, steps),
        bytes_per_step: share(bytes, steps),
    }
}

/// Pinned measurements on the mega torus cell: 2²⁰ + 1 agents on the
/// 2²⁰-node torus (density 1).
struct Mega {
    step_ns: f64,
    counts_node_round_ns: f64,
    counts_scaling_2w: f64,
    counts_bytes_per_step: f64,
}

fn mega_cell(seed: u64) -> Mega {
    const ROUNDS: usize = 5;
    let topology = TopologySpec::Torus2d { side: 1024 };
    let agents = (1usize << 20) + 1;
    let nodes = topology.num_nodes();
    let seq = SeedSequence::new(seed);
    // Median round times: single rounds on this scale take tens of ms.
    let median_round = |step: &mut dyn FnMut()| -> f64 {
        let ns: Vec<f64> = (0..ROUNDS)
            .map(|_| {
                let t0 = Instant::now();
                step();
                t0.elapsed().as_nanos() as f64
            })
            .collect();
        median(&ns)
    };
    let mut engine = Engine::new(topology.build(), agents)
        .with_seed_sequence(seq.subsequence(1))
        .with_threads(1);
    engine.place_uniform(&mut seq.rng(2));
    let step_round = median_round(&mut || engine.step_round_parallel());
    drop(engine);
    let counts_round = |threads: usize| {
        let mut engine = CountsEngine::new(topology.build(), agents as u64)
            .with_seed_sequence(seq.subsequence(1))
            .with_threads(threads);
        engine.place_uniform(&seq.subsequence(2));
        median_round(&mut || engine.step_round())
    };
    let one = counts_round(1);
    let two = counts_round(2);
    // Computed from array sizes, per node-round: read the u64 count,
    // clear the u64 next slot, read-modify-write a u64 next slot per
    // neighbour (degree 4); spread over the agents moved.
    let degree = 4.0;
    let counts_bytes = (16.0 + 16.0 * degree) * nodes as f64 / agents as f64;
    Mega {
        step_ns: step_round / agents as f64,
        counts_node_round_ns: one / nodes as f64,
        counts_scaling_2w: one / two,
        counts_bytes_per_step: counts_bytes,
    }
}

/// `run_sweep` of the grid spec on one worker over two.
fn pool_scaling(seed: u64) -> Result<f64, String> {
    let grid = specs::grid_spec(seed);
    let spec = SweepSpec::parse(&grid.text)?;
    let time = |workers: usize| -> Result<f64, String> {
        let mut ms = Vec::new();
        for _ in 0..5 {
            let opts = SweepOptions {
                quick: true,
                workers,
                ..SweepOptions::default()
            };
            let t0 = Instant::now();
            run_sweep(&spec, &opts)?;
            ms.push(ms_since(t0));
        }
        Ok(median(&ms))
    };
    // Warm the graph and spectral caches so both sides time execution.
    time(2)?;
    Ok(time(1)? / time(2)?)
}

/// The distributed layer on the first spec.
struct Dist {
    spawn_ms: f64,
    leases: f64,
    overhead_share: f64,
}

fn dist_layers(ctx: &Ctx, tally: &mut Tally) -> Result<Dist, String> {
    let mut spawn = Vec::new();
    for _ in 0..3 {
        spawn.push(worker_handshake_ms(ctx)?);
    }
    let dist_flags = surface_flags(Workload::DistPipes);
    // In-process on as many workers as the dist run has children.
    let local_flags = in_process(2);
    let (mut dist, mut local) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        dist.push(cli_job(ctx, 0, &dist_flags, tally)?.wall_ms);
        local.push(cli_job(ctx, 0, &local_flags, tally)?.wall_ms);
    }
    let metrics_path = ctx.work.join("METRICS_dist.json");
    let mut flags = dist_flags;
    flags.extend(["--metrics".to_string(), metrics_path.display().to_string()]);
    cli_job(ctx, 0, &flags, tally)?;
    let (dist, local) = (median(&dist), median(&local));
    Ok(Dist {
        spawn_ms: median(&spawn),
        leases: counter(&read_metrics(&metrics_path)?, "sweep.dist.leases"),
        overhead_share: (dist - local) / dist,
    })
}

/// Spawns one `repro sweep-worker --stdio` child, sends it the first
/// spec, and times spawn → `HELLO`; then shuts it down.
fn worker_handshake_ms(ctx: &Ctx) -> Result<f64, String> {
    let log = std::fs::File::create(ctx.work.join("worker.log")).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut child = Command::new(&ctx.repro)
        .args(["sweep-worker", "--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("spawn sweep-worker: {e}"))?;
    let mut to = child.stdin.take().expect("stdin is piped");
    let mut from = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let spec = Msg::Spec {
        worker: 0,
        quick: true,
        fuse: true,
        hb_ms: 1000,
        plan: String::new(),
        spec: ctx.specs[0].text.clone(),
    };
    let hello = write_frame(&mut to, &spec)
        .map_err(|e| e.to_string())
        .and_then(|()| read_frame(&mut from));
    let ms = ms_since(t0);
    let _ = write_frame(&mut to, &Msg::Shutdown);
    drop(to);
    let _ = std::io::copy(&mut from, &mut std::io::sink());
    let _ = child.wait();
    match hello? {
        Some(Msg::Hello { .. }) => Ok(ms),
        other => Err(format!("sweep-worker answered {other:?} instead of HELLO")),
    }
}

/// The serve layer on the workload's pool: two closed-loop clients,
/// each connecting per job as `serve_loop` does and stamping its
/// events.
struct ServeLayers {
    connect_ms: f64,
    accept_ms: f64,
    queue_ms: f64,
    stream_ms: f64,
    deliver_ms: f64,
    event_parse_us: f64,
    bytes_per_job: f64,
    queue_peak: f64,
}

/// One client's `(pool index, connect time, job)` results.
type ClientRun = Result<Vec<(usize, f64, Served)>, String>;

fn serve_layers(ctx: &Ctx, tally: &mut Tally) -> Result<ServeLayers, String> {
    let jobs_per_client = 4;
    let daemon = spawn_daemon(&ctx.repro, &ctx.work.join("serve.log"))?;
    let results: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|client| {
                let addr = &daemon.addr;
                s.spawn(move || {
                    let mut served = Vec::new();
                    for j in 0..jobs_per_client {
                        let i = (client + 2 * j) % ctx.specs.len();
                        let (mut conn, connect_ms) = Conn::connect(addr)?;
                        served.push((i, connect_ms, conn.run_job(&ctx.specs[i].text)?));
                    }
                    Ok(served)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let queue_peak = {
        let (mut conn, _) = Conn::connect(&daemon.addr)?;
        conn.metrics()?
            .get("queue_peak")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    daemon.stop();
    let mut l = ServeLayers {
        connect_ms: 0.0,
        accept_ms: 0.0,
        queue_ms: 0.0,
        stream_ms: 0.0,
        deliver_ms: 0.0,
        event_parse_us: 0.0,
        bytes_per_job: 0.0,
        queue_peak,
    };
    let (mut connect, mut accept, mut queue, mut stream, mut deliver, mut bytes) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let (mut parse_ns, mut lines) = (0.0, 0.0);
    for result in results {
        for (i, connect_ms, job) in result? {
            connect.push(connect_ms);
            tally.record(&ctx.specs[i].name, &ctx.refs[i], &job.delivery);
            let (Some(a), Some(f), Some(last)) =
                (job.accepted_ms, job.first_row_ms, job.last_row_ms)
            else {
                continue;
            };
            accept.push(a);
            queue.push(f - a);
            stream.push(last - f);
            deliver.push(job.end_ms - last);
            bytes.push(job.bytes as f64);
            parse_ns += job.parse_ns as f64;
            lines += job.lines as f64;
        }
    }
    l.connect_ms = median(&connect);
    l.accept_ms = median(&accept);
    l.queue_ms = median(&queue);
    l.stream_ms = median(&stream);
    l.deliver_ms = median(&deliver);
    l.bytes_per_job = median(&bytes);
    l.event_parse_us = share(parse_ns, lines) / 1e3;
    Ok(l)
}
