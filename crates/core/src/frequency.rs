//! Section 5.2: estimating the relative frequency of a property.
//!
//! "Let d be the overall population density and d_P be the density of
//! agents with some property P. … Assuming that agents with property P
//! are distributed uniformly in population and that agents can detect
//! this property, they can separately track encounters with these agents.
//! They can compute an estimate d̃ of d and d̃_P of d_P", and the ratio
//! `d̃_P/d̃ ∈ [(1−ε)/(1+ε)·f_P, (1+ε)/(1−ε)·f_P]` w.h.p.
//!
//! Properties in nature: successful forager, nestmate vs enemy; in robot
//! swarms: task-group membership, event detection.

use antdensity_engine::observer::{
    Alg1Observer, EncounterTallies, Observer, RelFreqObserver, RoundEvents,
};
use antdensity_engine::{Engine, MovementModel};
use antdensity_graphs::Topology;
use antdensity_stats::rng::SeedSequence;

/// One agent's joint estimate of overall density, property density, and
/// relative frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyEstimate {
    /// Estimate `d̃` of the overall density.
    pub density: f64,
    /// Estimate `d̃_P` of the property density.
    pub property_density: f64,
    /// Whether this agent itself has the property.
    pub has_property: bool,
}

impl FrequencyEstimate {
    /// The relative-frequency estimate `f̃_P = d̃_P / d̃`, or `None` when
    /// the agent observed no collisions at all (d̃ = 0).
    pub fn frequency(&self) -> Option<f64> {
        if self.density > 0.0 {
            Some(self.property_density / self.density)
        } else {
            None
        }
    }
}

/// The outcome of a frequency-estimation run.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyRun {
    estimates: Vec<FrequencyEstimate>,
    rounds: u64,
    num_property: usize,
    num_agents: usize,
    nodes: u64,
}

impl FrequencyRun {
    /// Per-agent estimates.
    pub fn estimates(&self) -> &[FrequencyEstimate] {
        &self.estimates
    }

    /// Rounds executed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The population-level property frequency `f_P = |P| / (n+1)`.
    pub fn true_frequency(&self) -> f64 {
        self.num_property as f64 / self.num_agents as f64
    }

    /// Paper-convention true density `d = n/A`.
    pub fn true_density(&self) -> f64 {
        (self.num_agents as f64 - 1.0) / self.nodes as f64
    }

    /// Mean of the defined per-agent frequency estimates.
    pub fn mean_frequency(&self) -> Option<f64> {
        let defined: Vec<f64> = self
            .estimates
            .iter()
            .filter_map(FrequencyEstimate::frequency)
            .collect();
        if defined.is_empty() {
            None
        } else {
            Some(defined.iter().sum::<f64>() / defined.len() as f64)
        }
    }

    /// Fraction of agents whose `f̃_P` lies within the paper's two-sided
    /// band `[(1−eps)/(1+eps)·f, (1+eps)/(1−eps)·f]`.
    pub fn fraction_within(&self, eps: f64) -> f64 {
        let f = self.true_frequency();
        let lo = (1.0 - eps) / (1.0 + eps) * f;
        let hi = (1.0 + eps) / (1.0 - eps) * f;
        let ok = self
            .estimates
            .iter()
            .filter_map(FrequencyEstimate::frequency)
            .filter(|&x| x >= lo && x <= hi)
            .count();
        ok as f64 / self.estimates.len() as f64
    }
}

/// Configuration for a property-frequency estimation run.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyEstimation {
    num_agents: usize,
    num_property: usize,
    rounds: u64,
    movement: MovementModel,
}

impl FrequencyEstimation {
    /// `num_property` of the `num_agents` agents carry property P; all
    /// agents walk `rounds` rounds tracking total and per-property
    /// encounter counts.
    ///
    /// # Panics
    ///
    /// Panics if `num_agents == 0`, `rounds == 0`, or
    /// `num_property > num_agents`.
    pub fn new(num_agents: usize, num_property: usize, rounds: u64) -> Self {
        assert!(num_agents > 0, "need at least one agent");
        assert!(rounds > 0, "need at least one round");
        assert!(
            num_property <= num_agents,
            "property holders cannot exceed population"
        );
        Self {
            num_agents,
            num_property,
            rounds,
            movement: MovementModel::Pure,
        }
    }

    /// Replaces the movement model.
    pub fn with_movement(mut self, movement: MovementModel) -> Self {
        self.movement = movement;
        self
    }

    /// Runs the estimation; property holders are a uniformly random
    /// subset of the population (the paper's uniformity assumption holds
    /// by the exchangeability of uniform placement, so we mark the first
    /// `num_property` agents).
    pub fn run<T: Topology>(&self, topo: &T, seed: u64) -> FrequencyRun {
        let seq = SeedSequence::new(seed);
        let mut rng = seq.rng(0);
        let mut engine = Engine::new(topo, self.num_agents);
        engine.set_movement_all(&self.movement);
        for a in 0..self.num_property {
            engine.assign_group(a, 0);
        }
        engine.place_uniform(&mut rng);
        // The engine emits per-round events; the dual total/property
        // tally and the ratio estimator live in the shared observer
        // layer ([`RelFreqObserver`]), not in this loop.
        let n = self.num_agents;
        let track = self.num_property > 0;
        let mut tallies = EncounterTallies::new(n, track);
        let mut counts = vec![0u32; n];
        let mut group_counts = vec![0u32; if track { n } else { 0 }];
        for round in 1..=self.rounds {
            engine.step_round(&mut rng);
            for (a, slot) in counts.iter_mut().enumerate() {
                *slot = engine.count(a);
            }
            for (a, slot) in group_counts.iter_mut().enumerate() {
                *slot = engine.count_in_group(a, 0);
            }
            tallies.record(&RoundEvents {
                round,
                counts: &counts,
                raw_counts: &counts,
                group_counts: track.then_some(group_counts.as_slice()),
            });
        }
        let d_true = (n as f64 - 1.0) / topo.num_nodes() as f64;
        let (density, property_density) = if track {
            let o = RelFreqObserver.snapshot(&tallies, d_true);
            (
                o.estimates,
                o.property_estimates
                    .expect("relative-frequency snapshots carry property estimates"),
            )
        } else {
            // No property holders: the property stream is identically 0.
            (
                Alg1Observer.snapshot(&tallies, d_true).estimates,
                vec![0.0; n],
            )
        };
        let estimates = density
            .into_iter()
            .zip(property_density)
            .enumerate()
            .map(|(a, (d, dp))| FrequencyEstimate {
                density: d,
                property_density: dp,
                has_property: a < self.num_property,
            })
            .collect();
        FrequencyRun {
            estimates,
            rounds: self.rounds,
            num_property: self.num_property,
            num_agents: self.num_agents,
            nodes: topo.num_nodes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdensity_graphs::{CompleteGraph, Torus2d};

    #[test]
    fn frequency_estimates_converge_on_complete_graph() {
        // d = 256/512, f_P = 64/257 ~ 0.249
        let topo = CompleteGraph::new(512);
        let run = FrequencyEstimation::new(257, 64, 512).run(&topo, 1);
        let f = run.mean_frequency().expect("plenty of collisions");
        let truth = run.true_frequency();
        assert!(
            (f - truth).abs() < 0.03,
            "mean frequency {f} vs truth {truth}"
        );
    }

    #[test]
    fn frequency_estimates_on_torus() {
        let topo = Torus2d::new(16); // A = 256
        let run = FrequencyEstimation::new(65, 32, 2048).run(&topo, 2);
        let f = run.mean_frequency().expect("defined");
        let truth = run.true_frequency(); // ~0.492
        assert!((f - truth).abs() < 0.08, "mean {f} vs truth {truth}");
    }

    #[test]
    fn property_density_le_density() {
        let topo = Torus2d::new(8);
        let run = FrequencyEstimation::new(20, 5, 100).run(&topo, 3);
        for e in run.estimates() {
            assert!(e.property_density <= e.density + 1e-12);
            if let Some(f) = e.frequency() {
                assert!((0.0..=1.0 + 1e-12).contains(&f));
            }
        }
    }

    #[test]
    fn zero_property_holders_give_zero_frequency() {
        let topo = Torus2d::new(8);
        let run = FrequencyEstimation::new(10, 0, 50).run(&topo, 4);
        assert_eq!(run.true_frequency(), 0.0);
        for e in run.estimates() {
            assert_eq!(e.property_density, 0.0);
            if let Some(f) = e.frequency() {
                assert_eq!(f, 0.0);
            }
        }
    }

    #[test]
    fn all_property_holders_give_unit_frequency() {
        let topo = CompleteGraph::new(64);
        let run = FrequencyEstimation::new(33, 33, 256).run(&topo, 5);
        assert_eq!(run.true_frequency(), 1.0);
        let f = run.mean_frequency().expect("defined");
        assert!((f - 1.0).abs() < 1e-9, "f = {f}");
    }

    #[test]
    fn has_property_flags_assigned() {
        let topo = Torus2d::new(8);
        let run = FrequencyEstimation::new(10, 3, 10).run(&topo, 6);
        let flagged = run.estimates().iter().filter(|e| e.has_property).count();
        assert_eq!(flagged, 3);
    }

    #[test]
    fn fraction_within_band_improves_with_rounds() {
        let topo = CompleteGraph::new(256);
        let short = FrequencyEstimation::new(129, 64, 16).run(&topo, 7);
        let long = FrequencyEstimation::new(129, 64, 2048).run(&topo, 7);
        assert!(long.fraction_within(0.2) >= short.fraction_within(0.2));
        assert!(long.fraction_within(0.2) > 0.9);
    }

    #[test]
    #[should_panic(expected = "cannot exceed population")]
    fn too_many_property_holders_rejected() {
        let _ = FrequencyEstimation::new(5, 6, 10);
    }
}
