//! Output check. Set-up makes each spec's reference bytes with an
//! untimed in-process, no-cache `run_sweep` + `build_report`; every job
//! on every surface is compared with them byte for byte, and a
//! mismatch or any terminal state other than `done` counts as failed.

use crate::specs::Spec;
use antdensity_sweep::{build_report, run_sweep, ResolvedSweep, SweepOptions, SweepSpec};

/// The bytes a job on `spec` must deliver.
#[derive(Debug, Clone)]
pub struct Reference {
    /// `SWEEP_<name>.json`.
    pub json: String,
    /// `SWEEP_<name>.csv`.
    pub csv: String,
    /// Delivered agent-steps: Σ over cells of agents × rounds × trials.
    pub agent_steps: u64,
}

/// Computes `spec`'s reference report in-process (quick mode, as the
/// surfaces run it; no checkpoint, no cache).
pub fn reference(spec: &Spec) -> Result<Reference, String> {
    let parsed = SweepSpec::parse(&spec.text)?;
    let opts = SweepOptions {
        quick: true,
        workers: 2,
        ..SweepOptions::default()
    };
    let outcome = run_sweep(&parsed, &opts)?;
    let report = build_report(&outcome);
    Ok(Reference {
        json: report.to_json(),
        csv: report.to_csv(),
        agent_steps: delivered_steps(&outcome.resolved),
    })
}

/// Σ over the resolved cells of agents × rounds × trials — the work a
/// report answers for, whether or not fusion or a cache saved steps.
pub fn delivered_steps(resolved: &ResolvedSweep) -> u64 {
    resolved
        .cells
        .iter()
        .map(|c| c.num_agents as u64 * c.rounds * resolved.trials)
        .sum()
}

/// What one job delivered, as the checker sees it.
#[derive(Debug, Clone)]
pub enum Delivery {
    /// The job ended `done` with these report bytes.
    Report {
        /// Delivered `SWEEP_<name>.json` bytes.
        json: String,
        /// Delivered `SWEEP_<name>.csv` bytes.
        csv: String,
    },
    /// The job ended any other way (rejected, failed, cancelled,
    /// non-zero exit, missing files, transport error).
    Ended(String),
}

/// Attempted and failed job counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that failed, were rejected, or delivered wrong bytes.
    pub failed: u64,
}

impl Tally {
    /// Counts one job and returns whether it delivered the reference
    /// bytes; the first few failures are reported on stderr.
    pub fn record(&mut self, what: &str, reference: &Reference, delivery: &Delivery) -> bool {
        self.attempted += 1;
        let problem = match delivery {
            Delivery::Report { json, csv } if *json == reference.json && *csv == reference.csv => {
                return true
            }
            Delivery::Report { json, csv } => format!(
                "bytes differ from the reference (json {} vs {} B, csv {} vs {} B)",
                json.len(),
                reference.json.len(),
                csv.len(),
                reference.csv.len()
            ),
            Delivery::Ended(why) => why.clone(),
        };
        self.failed += 1;
        if self.failed <= 3 {
            eprintln!("perfbench: {what}: failed: {problem}");
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve_client::Conn;

    fn tiny() -> Spec {
        Spec {
            name: "tiny".into(),
            text: "name = tiny\nseed = 3\ntrials = 2\nquick_trials = 2\n\
                   topology = torus2d:6, complete:16\ndensity = 0.2\nrounds = 4, 8\n"
                .into(),
        }
    }

    #[test]
    fn one_flipped_report_byte_counts_as_a_failure() {
        let reference = reference(&tiny()).unwrap();
        let mut tally = Tally::default();
        let exact = Delivery::Report {
            json: reference.json.clone(),
            csv: reference.csv.clone(),
        };
        assert!(tally.record("exact", &reference, &exact));
        let mut flipped = reference.json.clone().into_bytes();
        let at = flipped.len() / 2;
        flipped[at] ^= 0x01;
        let flipped = Delivery::Report {
            json: String::from_utf8(flipped).unwrap(),
            csv: reference.csv.clone(),
        };
        assert!(!tally.record("flipped", &reference, &flipped));
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
    }

    #[test]
    fn one_rejected_submit_counts_as_a_failure() {
        let server = antdensity_serve::Server::bind("127.0.0.1:0", Default::default()).unwrap();
        let addr = server.local_addr().to_string();
        let (mut conn, _) = Conn::connect(&addr).unwrap();
        let reference = reference(&tiny()).unwrap();
        let mut tally = Tally::default();
        // Served bytes equal the reference...
        let served = conn.run_job(&tiny().text).unwrap();
        assert!(tally.record("served", &reference, &served.delivery));
        // ...and a spec the daemon rejects at admission is a failure.
        let rejected = conn.run_job("name = broken\nseed = 1\n").unwrap();
        assert!(matches!(&rejected.delivery, Delivery::Ended(why) if why.starts_with("rejected")));
        assert!(!tally.record("rejected", &reference, &rejected.delivery));
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
        server.shutdown();
        server.wait();
    }
}
