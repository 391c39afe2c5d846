//! Walk-level statistics for the paper's computational model.
//!
//! Section 2 of *Ant-Inspired Density Estimation via Random Walks*
//! (Musco, Su, Lynch) defines the model:
//!
//! * a set of anonymous agents on a graph topology,
//! * discrete synchronous rounds; in each round every agent either stays
//!   or moves to a neighboring node,
//! * at the end of each round an agent senses `count(position)` — the
//!   number of *other* agents on its node — and nothing else,
//! * agents start at independent uniformly random nodes.
//!
//! The multi-agent world itself — per-round occupancy, `count(position)`,
//! property groups, and the Section 6.1 avoidance/flee variants — is
//! `antdensity_engine::Engine`. This crate holds what the paper's
//! lemmas reason about at the level of one or two walks:
//!
//! * [`movement`] — movement models: the paper's pure random walk, plus
//!   the extensions it sketches (lazy walks, biased/perturbed step
//!   distributions from Section 6.1, the deterministic drift used by the
//!   independent-sampling Algorithm 4, and stationary agents). The
//!   module lives in `antdensity_engine` and is re-exported here under
//!   its historical path.
//! * [`pairwise`] — two-agent and single-agent Monte-Carlo statistics
//!   (re-collisions, equalizations, visits, range) matching the paper's
//!   core lemmas; cross-validated against the exact distributions in
//!   `antdensity_graphs::dist`.
//! * [`trajectory`] — full-path recording, used where the paper
//!   conditions on an agent's walk `W` (Lemmas 4 and 11).
//! * [`parallel`] — deterministic fan-out of independent trials over
//!   the engine's worker pool (results are independent of thread count).
//!
//! # Example
//!
//! ```
//! use antdensity_graphs::Torus2d;
//! use antdensity_stats::rng::SeedSequence;
//! use antdensity_walks::{pairwise, parallel};
//! use rand::rngs::SmallRng;
//!
//! // Collision counts of two walks over 64 rounds, 32 trials: the
//! // per-trial streams make the result independent of the thread count.
//! let torus = Torus2d::new(32);
//! let seq = SeedSequence::new(7);
//! let count = |_: u64, rng: &mut SmallRng| pairwise::pair_collision_count(&torus, 64, rng);
//! assert_eq!(parallel::run_trials(32, 1, seq, count), parallel::run_trials(32, 4, seq, count));
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub use antdensity_engine::movement;
pub mod pairwise;
pub mod parallel;
pub mod trajectory;

pub use movement::MovementModel;
pub use trajectory::Trajectory;
