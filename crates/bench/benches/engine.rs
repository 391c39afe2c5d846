//! Engine throughput: the synchronous world of the paper's model
//! ([`Engine`]) across topologies and population sizes. Supports every
//! experiment; the cost model here is what makes the E1/E6/E7 sweeps
//! feasible.
//!
//! `engine_vs_arena` pits the pre-engine arena (per-round `HashMap`
//! occupancy rebuilds, kept here as a baseline replica) against the
//! dense touched-list engine, at 1024 and 4096 agents.

use antdensity_engine::{
    Engine, EngineConfig, MovementModel, Scenario, TopologySpec, WorkerPool, STREAM_BLOCK,
};
use antdensity_graphs::{CompleteGraph, Hypercube, NodeId, Ring, Topology, Torus2d};
use antdensity_stats::rng::SeedSequence;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// `cargo bench -p antdensity-bench --bench engine -- --quick` trims the
/// matrix and the measurement budget — the CI smoke configuration.
fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Measurement budget, shrunk under `--quick`.
fn measurement() -> Duration {
    if quick() {
        Duration::from_millis(250)
    } else {
        Duration::from_secs(2)
    }
}

/// The pre-engine arena hot loop: HashMap occupancy rebuilt from
/// scratch every round. Baseline for `engine_vs_arena`.
struct HashMapArena<T: Topology> {
    topo: T,
    positions: Vec<NodeId>,
    movement: Vec<MovementModel>,
    occupancy: HashMap<NodeId, u32>,
}

impl<T: Topology> HashMapArena<T> {
    fn new(topo: T, num_agents: usize, rng: &mut dyn RngCore) -> Self {
        let positions = (0..num_agents).map(|_| topo.uniform_node(rng)).collect();
        let mut arena = Self {
            topo,
            positions,
            movement: vec![MovementModel::Pure; num_agents],
            occupancy: HashMap::new(),
        };
        arena.rebuild_occupancy();
        arena
    }

    fn step_round(&mut self, rng: &mut dyn RngCore) {
        for (pos, model) in self.positions.iter_mut().zip(&self.movement) {
            *pos = model.step(&self.topo, *pos, rng);
        }
        self.rebuild_occupancy();
    }

    fn rebuild_occupancy(&mut self) {
        self.occupancy.clear();
        for &p in &self.positions {
            *self.occupancy.entry(p).or_insert(0) += 1;
        }
    }

    fn count(&self, agent: usize) -> u32 {
        self.occupancy[&self.positions[agent]] - 1
    }
}

fn bench_arena_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("arena_step_round");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(measurement());
    let agents = 1024usize;
    group.throughput(Throughput::Elements(agents as u64));

    group.bench_function(BenchmarkId::new("torus2d", 256), |b| {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut engine = Engine::new(Torus2d::new(256), agents);
        engine.place_uniform(&mut rng);
        b.iter(|| engine.step_round(&mut rng));
    });
    group.bench_function(BenchmarkId::new("ring", 65536), |b| {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut engine = Engine::new(Ring::new(65536), agents);
        engine.place_uniform(&mut rng);
        b.iter(|| engine.step_round(&mut rng));
    });
    group.bench_function(BenchmarkId::new("hypercube", 16), |b| {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut engine = Engine::new(Hypercube::new(16), agents);
        engine.place_uniform(&mut rng);
        b.iter(|| engine.step_round(&mut rng));
    });
    group.bench_function(BenchmarkId::new("complete", 65536), |b| {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut engine = Engine::new(CompleteGraph::new(65536), agents);
        engine.place_uniform(&mut rng);
        b.iter(|| engine.step_round(&mut rng));
    });
    group.finish();
}

fn bench_arena_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("arena_agent_scaling");
    group
        .sample_size(15)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(measurement());
    for agents in [64usize, 512, 4096] {
        group.throughput(Throughput::Elements(agents as u64));
        group.bench_with_input(BenchmarkId::new("torus2d_256", agents), &agents, |b, &n| {
            let mut rng = SmallRng::seed_from_u64(5);
            let mut engine = Engine::new(Torus2d::new(256), n);
            engine.place_uniform(&mut rng);
            b.iter(|| engine.step_round(&mut rng));
        });
    }
    group.finish();
}

fn bench_count_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("arena_count");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(measurement());
    let agents = 1024usize;
    group.throughput(Throughput::Elements(agents as u64));
    group.bench_function("count_all_agents", |b| {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut engine = Engine::new(Torus2d::new(128), agents);
        engine.place_uniform(&mut rng);
        engine.step_round(&mut rng);
        b.iter(|| {
            let mut total = 0u64;
            for a in 0..agents {
                total += engine.count(a) as u64;
            }
            total
        });
    });
    group.finish();
}

/// The headline comparison: per-round HashMap rebuilds (old) vs dense
/// touched-list occupancy (new), stepping + a full count sweep per round,
/// at 1024 and 4096 agents on a 256×256 torus.
fn bench_engine_vs_arena(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_vs_arena");
    group
        .sample_size(15)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(measurement());
    for agents in [1024usize, 4096] {
        group.throughput(Throughput::Elements(agents as u64));
        group.bench_with_input(
            BenchmarkId::new("hashmap_arena", agents),
            &agents,
            |b, &n| {
                let mut rng = SmallRng::seed_from_u64(7);
                let mut arena = HashMapArena::new(Torus2d::new(256), n, &mut rng);
                b.iter(|| {
                    arena.step_round(&mut rng);
                    (0..n).map(|a| arena.count(a) as u64).sum::<u64>()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("dense_engine", agents),
            &agents,
            |b, &n| {
                let mut rng = SmallRng::seed_from_u64(7);
                let mut engine = Engine::new(Torus2d::new(256), n);
                engine.place_uniform(&mut rng);
                b.iter(|| {
                    engine.step_round(&mut rng);
                    (0..n).map(|a| engine.count(a) as u64).sum::<u64>()
                });
            },
        );
        // The chunked deterministic mode, requesting 4 workers. Pool
        // dispatch engages only when the engine's caps allow (>= 4 chunks
        // per worker AND multiple cores); at these sizes — and on any
        // single-core box — this measures the chunked-stream path run
        // inline, i.e. the per-(round, chunk) RNG-derivation overhead the
        // determinism contract costs, not parallel speedup.
        group.bench_with_input(
            BenchmarkId::new("dense_engine_chunked_mode", agents),
            &agents,
            |b, &n| {
                let mut rng = SmallRng::seed_from_u64(7);
                let mut engine = Engine::new(Torus2d::new(256), n)
                    .with_seed_sequence(SeedSequence::new(7))
                    .with_threads(4);
                engine.place_uniform(&mut rng);
                b.iter(|| {
                    engine.step_round_parallel();
                    (0..n).map(|a| engine.count(a) as u64).sum::<u64>()
                });
            },
        );
    }
    group.finish();
}

/// The worker-pool scaling matrix: persistent-pool parallel stepping at
/// 1/2/4/8 workers × 1k/16k/256k agents on a 512×512 torus. Every
/// worker count produces bit-identical positions (property-tested in
/// `crates/engine/tests/determinism.rs`); only the wall clock differs.
/// `repro bench` emits the same matrix as machine-readable
/// `BENCH_engine.json`.
fn bench_parallel_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_scaling");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(measurement());
    let agent_grid: &[usize] = if quick() {
        &[1024, 16_384]
    } else {
        &[1024, 16_384, 262_144]
    };
    for &agents in agent_grid {
        group.throughput(Throughput::Elements(agents as u64));
        for workers in [1usize, 2, 4, 8] {
            group.bench_function(BenchmarkId::new(format!("pool_{workers}w"), agents), |b| {
                let mut engine = Engine::new(Torus2d::new(512), agents)
                    .with_seed_sequence(SeedSequence::new(7))
                    .with_threads(workers)
                    .with_worker_pool(Arc::new(WorkerPool::new(workers)))
                    .with_config(EngineConfig {
                        schedule_chunk: STREAM_BLOCK,
                        min_chunks_per_worker: 1,
                        inline_step_threshold: 0,
                        blocked_round_threshold: usize::MAX,
                    });
                let mut rng = SmallRng::seed_from_u64(2);
                engine.place_uniform(&mut rng);
                b.iter(|| engine.step_round_parallel());
            });
        }
    }
    group.finish();
}

/// End-to-end scenario throughput: a whole Algorithm 1 run through the
/// spec layer (placement + rounds + estimates), in agent-rounds/s.
fn bench_scenario_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_run");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(measurement());
    let agents = 512usize;
    let rounds = 64u64;
    group.throughput(Throughput::Elements(agents as u64 * rounds));
    group.bench_function(BenchmarkId::new("algorithm1_torus64", agents), |b| {
        let spec = Scenario::new(TopologySpec::Torus2d { side: 64 }, agents, rounds);
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            spec.run(seed)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_arena_round,
    bench_arena_scaling,
    bench_count_queries,
    bench_engine_vs_arena,
    bench_parallel_scaling,
    bench_scenario_run
);
criterion_main!(benches);
