//! Count-based stepping: the occupancy-count representation for
//! memoryless pure walks.
//!
//! A pure random walk is a Markov chain on nodes, and agents carry no
//! per-agent state in the noise-free Algorithm 1 setting — so the whole
//! population is fully described by one `u64` occupancy count per node.
//! [`CountsEngine`] advances that representation directly: one round
//! splits each node's count multinomially across its neighbors
//! (uniform weights — exactly the distribution `count` independent
//! pure-walk draws would produce), making a round **O(nodes·degree)
//! instead of O(agents)**. At mega-scale populations (millions of
//! agents on tens of thousands of nodes) this is the fast path the
//! `mega_scale` bench group measures.
//!
//! # The contract is distributional, not bit-stream
//!
//! The agent-level engine pins exact RNG streams per agent; collapsing
//! agents into counts necessarily abandons that. What is preserved is
//! the *law* of the process: after any number of rounds the joint
//! occupancy distribution matches the agent-level engine's exactly
//! (a uniform multinomial split of `c` trials ≡ `c` independent uniform
//! neighbor draws), and the encounter totals the estimators consume are
//! the same functional `Σ_v c_v(c_v-1)` of that occupancy. Equivalence
//! is therefore validated statistically
//! (`crates/engine/tests/counts_equivalence.rs`, in the style of the
//! CSR stationary-occupancy tests), never by bit comparison.
//!
//! Determinism still holds in the stronger engine sense: RNG streams
//! are derived per `(seed, round, COUNT_BLOCK-sized node block)`, and
//! parallel tasks (run on the process-global [`WorkerPool`]) merge their
//! contributions by exact `u64` addition — so results are bit-identical
//! for any thread count.

use crate::pool::WorkerPool;
use crate::sampling::{fill_uniform_indices_lanes, lane_rngs, sample_multinomial};
use antdensity_graphs::Topology;
use antdensity_stats::rng::SeedSequence;
use antdensity_telemetry as telemetry;
use std::time::Instant;

// Telemetry for the counts round path, mirroring the agent engine's
// `engine.round` span so traces of mixed runs line up.
static ROUND_SPAN: telemetry::SpanMetric = telemetry::SpanMetric::new("counts.round");
static ROUNDS_COUNTER: telemetry::LazyCounter = telemetry::LazyCounter::new("counts.rounds");
static AGENT_STEPS: telemetry::LazyCounter = telemetry::LazyCounter::new("counts.agent_steps");

/// Nodes per RNG stream block: block `b` of round `r` draws the stream
/// `seeds.subsequence(r).rng(b)`, the same `(round, block)` derivation
/// scheme as the agent engine's [`crate::STREAM_BLOCK`] contract, so
/// scheduling and worker count never change results.
pub const COUNT_BLOCK: u64 = 1024;

/// Placement draws are lane-filled in chunks of this many node indices.
const PLACE_CHUNK: usize = 1 << 14;

/// The occupancy-count twin of [`crate::Engine`] for pure-walk,
/// noise-free, estimator-agnostic populations: state is one `u64` count
/// per node, a round is a multinomial split per occupied node.
///
/// # Example
///
/// ```
/// use antdensity_engine::counts::CountsEngine;
/// use antdensity_graphs::Torus2d;
/// use antdensity_stats::rng::SeedSequence;
///
/// let mut engine = CountsEngine::new(Torus2d::new(16), 1_000)
///     .with_seed_sequence(SeedSequence::new(7));
/// engine.place_uniform(&SeedSequence::new(1));
/// engine.step_round();
/// assert_eq!(engine.total_agents(), 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct CountsEngine<T: Topology> {
    topo: T,
    /// Current occupancy: `counts[v]` agents sit on node `v`.
    counts: Vec<u64>,
    /// Double buffer the round scatters into before the swap.
    next: Vec<u64>,
    round: u64,
    num_agents: u64,
    seeds: SeedSequence,
    threads: usize,
    /// Equal multinomial weights, sized to the maximum degree once.
    ones: Vec<f64>,
    /// Per-node split scratch, sized to the maximum degree.
    split: Vec<u64>,
    /// Buffers of the parallel round's tasks `1..workers` (task 0
    /// scatters straight into `next`), kept across rounds so a round
    /// allocates nothing once they are sized.
    task_scratch: Vec<TaskScratch>,
}

/// One parallel task's reusable round buffers: a whole-graph
/// accumulator (a node's neighbours may sit anywhere in the index
/// space) and its own per-node split scratch.
#[derive(Debug, Clone, Default)]
struct TaskScratch {
    acc: Vec<u64>,
    split: Vec<u64>,
}

impl<T: Topology> CountsEngine<T> {
    /// Creates an engine with all `num_agents` unplaced (call
    /// [`Self::place_uniform`] before stepping, or seed counts via
    /// [`Self::set_counts`]).
    ///
    /// # Panics
    ///
    /// Panics if the topology exceeds the `2^32`-node index domain the
    /// batched samplers pack into.
    pub fn new(topo: T, num_agents: u64) -> Self {
        let nodes = topo.num_nodes();
        assert!(
            nodes <= 1 << 32,
            "count-based stepping packs node indices into u32; {nodes} nodes out of range"
        );
        let max_degree = topo
            .regular_degree()
            .unwrap_or_else(|| (0..nodes).map(|v| topo.degree(v)).max().unwrap_or(1));
        Self {
            counts: vec![0; nodes as usize],
            next: vec![0; nodes as usize],
            round: 0,
            num_agents,
            seeds: SeedSequence::new(0),
            threads: 1,
            ones: vec![1.0; max_degree],
            split: vec![0; max_degree],
            task_scratch: Vec::new(),
            topo,
        }
    }

    /// Sets the seed sequence the per-`(round, block)` streams derive
    /// from.
    #[must_use]
    pub fn with_seed_sequence(mut self, seeds: SeedSequence) -> Self {
        self.seeds = seeds;
        self
    }

    /// Requests up to `threads` workers for the round splits, run as
    /// tasks on the process-global [`WorkerPool`]. Results are
    /// bit-identical for every value.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Places all agents uniformly at random, replacing any existing
    /// occupancy. Node indices are drawn through the lane-interleaved
    /// batched sampler ([`fill_uniform_indices_lanes`]) seeded from
    /// `seq`'s lane streams `0..RNG_LANES`.
    pub fn place_uniform(&mut self, seq: &SeedSequence) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        let mut lanes = lane_rngs(seq, 0);
        let mut buf = vec![0u32; PLACE_CHUNK];
        let mut remaining = self.num_agents;
        while remaining > 0 {
            let take = remaining.min(PLACE_CHUNK as u64) as usize;
            let chunk = &mut buf[..take];
            fill_uniform_indices_lanes(self.topo.num_nodes(), chunk, &mut lanes);
            for &v in chunk.iter() {
                self.counts[v as usize] += 1;
            }
            remaining -= take as u64;
        }
        self.round = 0;
    }

    /// Replaces the occupancy wholesale (test/interop hook; the normal
    /// entry is [`Self::place_uniform`]).
    ///
    /// # Panics
    ///
    /// Panics if `counts` does not have one slot per node; the implied
    /// total becomes the engine's agent count.
    pub fn set_counts(&mut self, counts: &[u64]) {
        assert_eq!(
            counts.len(),
            self.counts.len(),
            "one count per node ({} nodes)",
            self.counts.len()
        );
        self.counts.copy_from_slice(counts);
        self.num_agents = counts.iter().sum();
        self.round = 0;
    }

    /// The occupancy counts, one per node.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Rounds stepped so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The population size this engine was built for.
    pub fn num_agents(&self) -> u64 {
        self.num_agents
    }

    /// The topology stepped on.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// Current total occupancy across all nodes — conserved by every
    /// round (each multinomial split preserves its count exactly).
    pub fn total_agents(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Ordered co-location pairs in the current occupancy,
    /// `Σ_v c_v·(c_v − 1)` — each agent on `v` encounters the `c_v − 1`
    /// others, which is exactly the per-round total Algorithm 1's
    /// per-agent counters sum to in the agent-level engine. `u128`
    /// because a single packed node of `n` agents contributes `n²−n`.
    pub fn round_encounters(&self) -> u128 {
        self.counts
            .iter()
            .map(|&c| {
                let c = c as u128;
                c * c.saturating_sub(1)
            })
            .sum()
    }
}

/// Splits the counts of nodes `[lo, hi)` into `acc`, drawing each
/// [`COUNT_BLOCK`]-aligned block's stream from `round_seq`. The range
/// bounds must be block-aligned (except `hi` at the node count) so the
/// block → stream mapping is schedule-independent.
fn split_range<T: Topology>(
    topo: &T,
    counts: &[u64],
    round_seq: &SeedSequence,
    (lo, hi): (u64, u64),
    acc: &mut [u64],
    split: &mut [u64],
    ones: &[f64],
) {
    debug_assert_eq!(lo % COUNT_BLOCK, 0, "worker ranges are block-aligned");
    let mut v = lo;
    while v < hi {
        let block_end = (v + COUNT_BLOCK).min(hi);
        let mut rng = round_seq.rng(v / COUNT_BLOCK);
        for node in v..block_end {
            let c = counts[node as usize];
            if c == 0 {
                continue;
            }
            let d = topo.degree(node);
            if d == 1 {
                acc[topo.neighbor(node, 0) as usize] += c;
                continue;
            }
            sample_multinomial(c, &ones[..d], &mut split[..d], &mut rng);
            for (i, &k) in split[..d].iter().enumerate() {
                if k > 0 {
                    acc[topo.neighbor(node, i) as usize] += k;
                }
            }
        }
        v = block_end;
    }
}

impl<T: Topology + Sync> CountsEngine<T> {
    /// Advances one synchronous round: every node's count is split
    /// multinomially (uniform weights) across its neighbors, the exact
    /// law of `count` independent pure-walk steps. Deterministic in
    /// `(seed sequence, round)` alone — thread count never changes the
    /// result, because block streams are fixed and workers merge by
    /// exact addition.
    pub fn step_round(&mut self) {
        let observe = telemetry::enabled();
        let t0 = observe.then(Instant::now);
        let nodes = self.topo.num_nodes();
        let round_seq = self.seeds.subsequence(self.round);
        let num_blocks = nodes.div_ceil(COUNT_BLOCK);
        let workers = self.threads.min(num_blocks as usize).max(1);
        let Self {
            topo,
            counts,
            next,
            ones,
            split,
            task_scratch,
            ..
        } = self;
        let (topo, counts, ones) = (&*topo, &counts[..], &ones[..]);
        next.fill(0);
        if workers <= 1 {
            split_range(topo, counts, &round_seq, (0, nodes), next, split, ones);
        } else {
            // Contiguous whole-block node ranges, one per task; task 0
            // scatters into `next`, the others into their own
            // accumulators, merged below by exact addition.
            let blocks_per_worker = num_blocks.div_ceil(workers as u64);
            let range = |wi: u64| {
                let at = |w: u64| (w * blocks_per_worker * COUNT_BLOCK).min(nodes);
                (at(wi), at(wi + 1))
            };
            task_scratch.resize_with(workers - 1, TaskScratch::default);
            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(workers);
            let head = &mut next[..];
            tasks.push(Box::new(move || {
                split_range(topo, counts, &round_seq, range(0), head, split, ones);
            }));
            for (wi, scratch) in (1..).zip(task_scratch.iter_mut()) {
                tasks.push(Box::new(move || {
                    scratch.acc.clear();
                    scratch.acc.resize(counts.len(), 0);
                    scratch.split.resize(ones.len(), 0);
                    let TaskScratch { acc, split } = scratch;
                    split_range(topo, counts, &round_seq, range(wi), acc, split, ones);
                }));
            }
            WorkerPool::global().run(tasks);
            for scratch in task_scratch.iter() {
                for (slot, &k) in next.iter_mut().zip(&scratch.acc) {
                    *slot += k;
                }
            }
        }
        std::mem::swap(&mut self.counts, &mut self.next);
        self.round += 1;
        debug_assert_eq!(
            self.total_agents(),
            self.num_agents,
            "multinomial splits conserve the population"
        );
        if let Some(t0) = t0 {
            let total_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            ROUNDS_COUNTER.add(1);
            AGENT_STEPS.add(self.num_agents);
            let msteps_per_sec = if total_ns > 0 {
                self.num_agents as f64 * 1e3 / total_ns as f64
            } else {
                0.0
            };
            ROUND_SPAN.record_interval_at(
                t0,
                0,
                total_ns,
                &[
                    ("agents", self.num_agents as f64),
                    ("msteps_per_sec", msteps_per_sec),
                ],
            );
        }
    }

    /// Runs `rounds` rounds.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step_round();
        }
    }
}

/// What a count-based Algorithm 1 run reports: the population-mean
/// density estimate (individual per-agent estimates do not exist in the
/// collapsed representation — their *mean* is a pure function of the
/// occupancy trajectory).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountsOutcome {
    /// Rounds executed.
    pub rounds: u64,
    /// Population size.
    pub num_agents: u64,
    /// The quantity Algorithm 1 estimates, `d = (n − 1) / A`.
    pub true_density: f64,
    /// Ordered co-location pairs summed over all executed rounds.
    pub total_encounters: u128,
    /// Population mean of the per-agent Algorithm 1 estimates
    /// `c / t`: `total_encounters / (num_agents · rounds)`.
    pub mean_estimate: f64,
}

impl CountsOutcome {
    /// Assembles an outcome from a finished run's tallies.
    pub fn from_tallies(rounds: u64, num_agents: u64, nodes: u64, total_encounters: u128) -> Self {
        let mean_estimate = if rounds > 0 && num_agents > 0 {
            total_encounters as f64 / (num_agents as f64 * rounds as f64)
        } else {
            0.0
        };
        Self {
            rounds,
            num_agents,
            true_density: if nodes > 0 {
                (num_agents.saturating_sub(1)) as f64 / nodes as f64
            } else {
                0.0
            },
            total_encounters,
            mean_estimate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdensity_graphs::{CsrGraph, Hypercube, Ring, Torus2d};

    #[test]
    fn placement_reaches_every_agent_and_only_valid_nodes() {
        let mut engine = CountsEngine::new(Torus2d::new(8), 5_000);
        engine.place_uniform(&SeedSequence::new(3));
        assert_eq!(engine.total_agents(), 5_000);
        assert_eq!(engine.counts().len(), 64);
    }

    #[test]
    fn rounds_conserve_population_on_every_topology() {
        fn conserve<T: Topology + Sync>(topo: T, n: u64) {
            let mut engine = CountsEngine::new(topo, n).with_seed_sequence(SeedSequence::new(11));
            engine.place_uniform(&SeedSequence::new(5));
            for _ in 0..20 {
                engine.step_round();
                assert_eq!(engine.total_agents(), n);
            }
        }
        conserve(Torus2d::new(8), 3_000);
        conserve(Ring::new(50), 777);
        conserve(Hypercube::new(5), 12);
        conserve(CsrGraph::from_topology(&Torus2d::new(8)), 3_000);
    }

    #[test]
    fn same_seed_same_trajectory() {
        let mut a =
            CountsEngine::new(Torus2d::new(16), 10_000).with_seed_sequence(SeedSequence::new(42));
        let mut b =
            CountsEngine::new(Torus2d::new(16), 10_000).with_seed_sequence(SeedSequence::new(42));
        a.place_uniform(&SeedSequence::new(9));
        b.place_uniform(&SeedSequence::new(9));
        for _ in 0..10 {
            a.step_round();
            b.step_round();
            assert_eq!(a.counts(), b.counts());
        }
    }

    #[test]
    fn thread_count_never_changes_counts() {
        // 16·16 torus = 256 nodes < COUNT_BLOCK, so also cover a
        // topology with several blocks.
        for side in [16u64, 64] {
            let reference = {
                let mut e = CountsEngine::new(Torus2d::new(side), 50_000)
                    .with_seed_sequence(SeedSequence::new(7));
                e.place_uniform(&SeedSequence::new(2));
                e.run(8);
                e.counts().to_vec()
            };
            for threads in [2usize, 3, 8] {
                let mut e = CountsEngine::new(Torus2d::new(side), 50_000)
                    .with_seed_sequence(SeedSequence::new(7))
                    .with_threads(threads);
                e.place_uniform(&SeedSequence::new(2));
                e.run(8);
                assert_eq!(e.counts(), &reference[..], "side {side} threads {threads}");
            }
        }
    }

    #[test]
    fn round_nested_in_a_pool_job_matches_one_thread() {
        // The pool's caller-helps design lets a job submit more work: a
        // 4-task counts round (torus 64 = 4 node blocks) submitted from
        // inside a job must finish and match the inline round exactly,
        // whether the outer job runs on a private 2-thread pool or on
        // the global pool the round itself submits to.
        fn counts_after(threads: usize) -> Vec<u64> {
            let mut e = CountsEngine::new(Torus2d::new(64), 50_000)
                .with_seed_sequence(SeedSequence::new(13))
                .with_threads(threads);
            e.place_uniform(&SeedSequence::new(4));
            e.run(6);
            e.counts().to_vec()
        }
        let reference = counts_after(1);
        let private = WorkerPool::new(2);
        for pool in [&private, WorkerPool::global()] {
            let mut nested = Vec::new();
            let slot = &mut nested;
            pool.run(vec![Box::new(move || *slot = counts_after(4))]);
            assert_eq!(nested, reference);
        }
    }

    #[test]
    fn encounters_match_handcount() {
        let mut engine = CountsEngine::new(Ring::new(4), 0);
        engine.set_counts(&[3, 1, 0, 2]);
        // 3·2 + 1·0 + 0 + 2·1 = 8
        assert_eq!(engine.round_encounters(), 8);
        assert_eq!(engine.num_agents(), 6);
    }

    #[test]
    fn outcome_math_is_the_algorithm1_mean() {
        let o = CountsOutcome::from_tallies(10, 100, 64, 500);
        assert_eq!(o.mean_estimate, 0.5);
        assert!((o.true_density - 99.0 / 64.0).abs() < 1e-12);
        let empty = CountsOutcome::from_tallies(0, 0, 64, 0);
        assert_eq!(empty.mean_estimate, 0.0);
    }
}
