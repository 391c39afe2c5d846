//! Seeded inputs. Every spec file and job stream a run uses derives
//! from the `--seed` argument, and the program under test sees only
//! these generated files and requests.
//!
//! Work sizes are fixed per workload, so runs on different seeds do
//! equal work: the seed moves the specs' RNG seeds and names, never the
//! grid shape.

/// One benchmark workload (see `BENCHMARK.json` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two closed-loop clients against a persistent `repro serve`.
    ServeLoop,
    /// The shard stream through `repro sweep --workers-cmd 2`.
    DistPipes,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::ServeLoop, Workload::DistPipes];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeLoop => "serve_loop",
            Workload::DistPipes => "dist_pipes",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64, the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` on the stream named by `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        SplitMix(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A spec-file seed: 48 bits, so it prints compactly.
    fn spec_seed(&mut self) -> u64 {
        self.next_u64() >> 16
    }
}

/// One generated spec file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// The spec's `name =` value (reports are `SWEEP_<name>.{json,csv}`).
    pub name: String,
    /// The spec file's text.
    pub text: String,
}

/// The spec pool a workload's job stream cycles through, in job order.
pub fn pool(workload: Workload, seed: u64) -> Vec<Spec> {
    match workload {
        Workload::DistPipes => shard_stream(seed),
        Workload::ServeLoop => serve_pool(seed),
    }
}

fn spec(name: String, rng: &mut SplitMix, body: &str) -> Spec {
    let text = format!("name = {name}\nseed = {}\n{body}", rng.spec_seed());
    Spec { name, text }
}

/// The hole mask of the grid's CSR graph. It is fixed rather than
/// seeded: the spectral-gap power iteration stops on convergence, so
/// another graph would be another amount of work.
const GRID_MASK: u64 = 7;

/// A paper-style grid, the traced run's pinned input for the compute
/// layers no workload gates: four topology families (one irregular CSR
/// graph priced by its measured spectral gap) × two densities ×
/// log-spaced rounds × the fused `alg1`/`quorum`/`relfreq` observers.
pub fn grid_spec(seed: u64) -> Spec {
    let body = format!(
        "trials = 8\nquick_trials = 8\n\
         topology = torus2d:32, hypercube:10, complete:1024, csr:grid-holes:16:{GRID_MASK}:0.2\n\
         density = 0.05, 0.2\n\
         rounds = log:16:512:2\n\
         estimator = alg1, quorum:0.1, relfreq:0.25\n"
    );
    spec(format!("grid_{seed:x}"), &mut SplitMix::new(seed, 1), &body)
}

/// The shard stream: eight specs with distinct seeds, each 8 small
/// topologies × 16 densities = 128 tiny fused shards of one trial.
fn shard_stream(seed: u64) -> Vec<Spec> {
    let mut rng = SplitMix::new(seed, 3);
    let densities: Vec<String> = (1..=16)
        .map(|i| format!("{:.2}", 0.05 * i as f64))
        .collect();
    let body = format!(
        "trials = 1\nquick_trials = 1\n\
         topology = complete:32, complete:48, ring:32, ring:48, torus2d:6, torus2d:7, hypercube:5, hypercube:6\n\
         density = {}\n\
         rounds = 4, 8\n",
        densities.join(", ")
    );
    (0..8)
        .map(|k| spec(format!("stream{k}_{seed:x}"), &mut rng, &body))
        .collect()
}

/// Eight served jobs of one shape: 64 result rows and a ~44 KB `done`
/// line. On the two-core machine this was tuned on, a job is ~85 ms of
/// socket round trips before its first row (delayed acknowledgements:
/// no `TCP_NODELAY` on either side) and ~20 ms of streaming and of
/// parsing the reply on the client. Larger replies (~76 KB, ~109 KB)
/// made parsing most of a job but moved the run's median job by a fifth
/// between runs, and a mix of sizes made the median jump between them.
fn serve_pool(seed: u64) -> Vec<Spec> {
    let mut rng = SplitMix::new(seed, 4);
    (0..8)
        .map(|k| {
            spec(
                format!("serve{k}_{seed:x}"),
                &mut rng,
                "trials = 3\nquick_trials = 3\n\
                 topology = torus2d:8, complete:64, ring:64, hypercube:6\n\
                 density = 0.1, 0.25\n\
                 rounds = 8, 16, 32, 64\n\
                 estimator = alg1, quorum:0.05\n",
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdensity_sweep::SweepSpec;

    #[test]
    fn same_seed_same_inputs_and_other_seeds_same_work() {
        for w in Workload::ALL {
            assert_eq!(pool(w, 7), pool(w, 7));
            assert_ne!(pool(w, 7), pool(w, 8));
            let shape = |seed| -> Vec<(usize, usize)> {
                pool(w, seed)
                    .iter()
                    .map(|s| {
                        let r = SweepSpec::parse(&s.text).unwrap().resolve(true).unwrap();
                        (r.cells.len(), r.fused.len())
                    })
                    .collect()
            };
            assert_eq!(shape(7), shape(8), "{}", w.name());
        }
        assert_eq!(grid_spec(7), grid_spec(7));
        assert_ne!(grid_spec(7), grid_spec(8));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
