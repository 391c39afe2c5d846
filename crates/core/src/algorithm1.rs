//! Algorithm 1: random-walk-based density estimation.
//!
//! The paper's pseudocode, executed by every agent independently:
//!
//! ```text
//! c := 0
//! for r = 1, ..., t do
//!     step := rand{(0,1), (0,−1), (1,0), (−1,0)}
//!     position := position + step
//!     c := c + count(position)
//! end for
//! return d̃ = c / t
//! ```
//!
//! [`Algorithm1`] runs the full population synchronously (all agents both
//! walk and are counted — the paper's setting) and reports every agent's
//! estimate. Movement can be swapped for the Section 6.1 variants (lazy,
//! biased) and collision sensing can be made noisy; the defaults are the
//! paper's exact model.

use crate::noise::CollisionNoise;
use antdensity_engine::observer::{Alg1Observer, EncounterTallies, Observer, RoundEvents};
use antdensity_engine::{Engine, MovementModel};
use antdensity_graphs::Topology;
use antdensity_stats::moments::SampleStats;
use antdensity_stats::rng::SeedSequence;

/// Configuration/builder for an Algorithm 1 run.
///
/// `num_agents` is the paper's `n + 1`: the population size including the
/// estimating agent, so the target density is `d = n/A =
/// (num_agents − 1)/A` (Section 2.1's convention).
#[derive(Debug, Clone, PartialEq)]
pub struct Algorithm1 {
    num_agents: usize,
    rounds: u64,
    movement: MovementModel,
    noise: Option<CollisionNoise>,
}

impl Algorithm1 {
    /// Creates a run configuration with the paper's defaults (pure random
    /// walk, exact collision sensing).
    ///
    /// # Panics
    ///
    /// Panics if `num_agents == 0` or `rounds == 0`.
    pub fn new(num_agents: usize, rounds: u64) -> Self {
        assert!(num_agents > 0, "need at least one agent");
        assert!(rounds > 0, "need at least one round");
        Self {
            num_agents,
            rounds,
            movement: MovementModel::Pure,
            noise: None,
        }
    }

    /// Replaces the movement model (Section 6.1 robustness studies).
    pub fn with_movement(mut self, movement: MovementModel) -> Self {
        self.movement = movement;
        self
    }

    /// Adds collision-detection noise (Section 6.1).
    pub fn with_noise(mut self, noise: CollisionNoise) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Number of agents `n + 1`.
    pub fn num_agents(&self) -> usize {
        self.num_agents
    }

    /// Number of rounds `t`.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Executes the algorithm on `topo` with a master `seed`; every agent
    /// starts at an independent uniform node.
    pub fn run<T: Topology>(&self, topo: &T, seed: u64) -> DensityRun {
        let seq = SeedSequence::new(seed);
        let mut rng = seq.rng(0);
        let mut engine = Engine::new(topo, self.num_agents);
        engine.set_movement_all(&self.movement);
        engine.place_uniform(&mut rng);
        self.run_engine(&mut engine, &mut rng)
    }

    /// Executes on explicit starting positions (used by tests and by the
    /// adversarial-placement experiments).
    ///
    /// # Panics
    ///
    /// Panics if `positions.len() != num_agents` or a position is out of
    /// range.
    pub fn run_from<T: Topology>(
        &self,
        topo: &T,
        positions: &[antdensity_graphs::NodeId],
        seed: u64,
    ) -> DensityRun {
        let seq = SeedSequence::new(seed);
        let mut rng = seq.rng(0);
        let mut engine = Engine::new(topo, self.num_agents);
        engine.set_movement_all(&self.movement);
        engine.place_at(positions);
        self.run_engine(&mut engine, &mut rng)
    }

    /// The synchronous round loop: the engine emits each round's
    /// encounter events once and the shared observer tallies accumulate
    /// them — the estimate math lives in
    /// [`antdensity_engine::observer`], not here.
    fn run_engine<T: Topology>(
        &self,
        engine: &mut Engine<&T>,
        rng: &mut rand::rngs::SmallRng,
    ) -> DensityRun {
        let n_agents = self.num_agents;
        let mut tallies = EncounterTallies::new(n_agents, false);
        let mut raw = vec![0u32; n_agents];
        let mut seen = vec![0u32; n_agents];
        for round in 1..=self.rounds {
            engine.step_round(rng);
            for (a, slot) in raw.iter_mut().enumerate() {
                *slot = engine.count(a);
            }
            match &self.noise {
                None => seen.copy_from_slice(&raw),
                Some(noise) => {
                    for (slot, &c) in seen.iter_mut().zip(&raw) {
                        *slot = noise.observe(c, rng);
                    }
                }
            }
            tallies.record(&RoundEvents {
                round,
                counts: &seen,
                raw_counts: &raw,
                group_counts: None,
            });
        }
        let outcome = Alg1Observer.snapshot(&tallies, engine.density());
        DensityRun {
            estimates: outcome.estimates,
            collision_counts: outcome.collision_counts,
            rounds: outcome.rounds,
            true_density: outcome.true_density,
        }
    }
}

/// The result of a density-estimation run: one estimate per agent.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityRun {
    estimates: Vec<f64>,
    collision_counts: Vec<u64>,
    rounds: u64,
    true_density: f64,
}

impl DensityRun {
    /// Assembles a run from raw parts (used by Algorithm 4 and netsize).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or `rounds == 0`.
    pub fn from_parts(
        estimates: Vec<f64>,
        collision_counts: Vec<u64>,
        rounds: u64,
        true_density: f64,
    ) -> Self {
        assert_eq!(
            estimates.len(),
            collision_counts.len(),
            "estimates and counts must align"
        );
        assert!(rounds > 0, "rounds must be positive");
        Self {
            estimates,
            collision_counts,
            rounds,
            true_density,
        }
    }

    /// Per-agent density estimates `d̃`.
    pub fn estimates(&self) -> &[f64] {
        &self.estimates
    }

    /// Per-agent raw collision counts `c`.
    pub fn collision_counts(&self) -> &[u64] {
        &self.collision_counts
    }

    /// Number of rounds `t` executed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The true density `d = n/A` of the run.
    pub fn true_density(&self) -> f64 {
        self.true_density
    }

    /// Mean of the per-agent estimates.
    pub fn mean_estimate(&self) -> f64 {
        self.estimates.iter().sum::<f64>() / self.estimates.len() as f64
    }

    /// Per-agent relative errors `|d̃ − d| / d`.
    ///
    /// # Panics
    ///
    /// Panics if the true density is zero (a lone agent, which the paper's
    /// convention maps to estimate 0 — relative error is then undefined).
    pub fn relative_errors(&self) -> Vec<f64> {
        assert!(
            self.true_density > 0.0,
            "relative error undefined at zero density"
        );
        self.estimates
            .iter()
            .map(|e| (e - self.true_density).abs() / self.true_density)
            .collect()
    }

    /// Fraction of agents whose estimate lies in `(1±eps)·d` — the
    /// quantity Theorem 1 lower-bounds by `1 − δ`.
    pub fn fraction_within(&self, eps: f64) -> f64 {
        if self.true_density == 0.0 {
            return self.estimates.iter().filter(|&&e| e == 0.0).count() as f64
                / self.estimates.len() as f64;
        }
        let lo = (1.0 - eps) * self.true_density;
        let hi = (1.0 + eps) * self.true_density;
        self.estimates
            .iter()
            .filter(|&&e| e >= lo && e <= hi)
            .count() as f64
            / self.estimates.len() as f64
    }

    /// Summary statistics of the per-agent estimates.
    pub fn estimate_stats(&self) -> SampleStats {
        SampleStats::from_slice(&self.estimates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdensity_graphs::{CompleteGraph, Ring, Torus2d};

    #[test]
    fn mean_estimate_is_unbiased_on_torus() {
        // Lemma 2 / Corollary 3: E[d~] = d. Average over agents and seeds.
        let topo = Torus2d::new(16); // A = 256
        let cfg = Algorithm1::new(33, 128); // d = 32/256 = 0.125
        let mut grand = 0.0;
        let runs = 20;
        for seed in 0..runs {
            grand += cfg.run(&topo, seed).mean_estimate();
        }
        let mean = grand / runs as f64;
        assert!(
            (mean - 0.125).abs() < 0.01,
            "grand mean {mean} should be near 0.125"
        );
    }

    #[test]
    fn single_agent_estimates_zero() {
        // Paper Section 2.1: with one agent, d = n/A = 0 and the agent
        // must return 0 (it never collides).
        let topo = Torus2d::new(8);
        let run = Algorithm1::new(1, 64).run(&topo, 1);
        assert_eq!(run.true_density(), 0.0);
        assert_eq!(run.estimates(), &[0.0]);
        assert_eq!(run.fraction_within(0.5), 1.0);
    }

    #[test]
    fn estimates_concentrate_with_more_rounds() {
        let topo = Torus2d::new(16);
        let short = Algorithm1::new(65, 16).run(&topo, 7);
        let long = Algorithm1::new(65, 1024).run(&topo, 7);
        let err = |r: &DensityRun| {
            let e = r.relative_errors();
            e.iter().sum::<f64>() / e.len() as f64
        };
        assert!(
            err(&long) < err(&short),
            "longer runs must be more accurate: {} vs {}",
            err(&long),
            err(&short)
        );
    }

    #[test]
    fn complete_graph_matches_density_quickly() {
        // i.i.d. sampling: 512 rounds at d = 0.125 is plenty.
        let topo = CompleteGraph::new(256);
        let run = Algorithm1::new(33, 512).run(&topo, 3);
        assert!((run.mean_estimate() - run.true_density()).abs() < 0.02);
        assert!(run.fraction_within(0.5) > 0.95);
    }

    #[test]
    fn collision_counts_match_estimates() {
        let topo = Torus2d::new(8);
        let run = Algorithm1::new(10, 50).run(&topo, 9);
        for (c, e) in run.collision_counts().iter().zip(run.estimates()) {
            assert!((*c as f64 / 50.0 - e).abs() < 1e-12);
        }
    }

    #[test]
    fn ring_estimates_are_noisier_than_torus() {
        // Section 4.2: the ring's poor local mixing inflates the error.
        // Match A, d, t across the two topologies and compare mean errors
        // over several seeds.
        let a = 1024u64;
        let agents = 129; // d = 128/1024 = 0.125
        let rounds = 256;
        let ring = Ring::new(a);
        let torus = Torus2d::new(32);
        let mut ring_err = 0.0;
        let mut torus_err = 0.0;
        for seed in 0..8 {
            let rr = Algorithm1::new(agents, rounds).run(&ring, seed);
            let tr = Algorithm1::new(agents, rounds).run(&torus, seed);
            ring_err += rr.relative_errors().iter().sum::<f64>() / agents as f64;
            torus_err += tr.relative_errors().iter().sum::<f64>() / agents as f64;
        }
        assert!(
            ring_err > torus_err,
            "ring error {ring_err} should exceed torus error {torus_err}"
        );
    }

    #[test]
    fn run_is_seed_deterministic() {
        let topo = Torus2d::new(8);
        let cfg = Algorithm1::new(12, 40);
        assert_eq!(cfg.run(&topo, 5), cfg.run(&topo, 5));
        assert_ne!(cfg.run(&topo, 5), cfg.run(&topo, 6));
    }

    #[test]
    fn run_from_fixed_positions() {
        let topo = Torus2d::new(4);
        // all agents stacked on one node: every agent counts the other two
        // somewhere near start
        let run = Algorithm1::new(3, 10).run_from(&topo, &[5, 5, 5], 1);
        assert_eq!(run.estimates().len(), 3);
    }

    #[test]
    fn lazy_movement_still_unbiased() {
        let topo = Torus2d::new(16);
        let cfg = Algorithm1::new(33, 256).with_movement(MovementModel::lazy(0.2));
        let mut grand = 0.0;
        for seed in 0..10 {
            grand += cfg.run(&topo, seed).mean_estimate();
        }
        let mean = grand / 10.0;
        assert!((mean - 0.125).abs() < 0.015, "mean {mean}");
    }

    #[test]
    fn fraction_within_boundaries() {
        let run = DensityRun::from_parts(vec![0.9, 1.0, 1.1, 2.0], vec![9, 10, 11, 20], 10, 1.0);
        assert_eq!(run.fraction_within(0.1), 0.75);
        assert_eq!(run.fraction_within(1.0), 1.0);
        assert_eq!(run.fraction_within(0.05), 0.25);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        let _ = Algorithm1::new(5, 0);
    }

    #[test]
    #[should_panic(expected = "relative error undefined")]
    fn relative_error_at_zero_density_panics() {
        let topo = Torus2d::new(4);
        let run = Algorithm1::new(1, 4).run(&topo, 0);
        let _ = run.relative_errors();
    }
}
