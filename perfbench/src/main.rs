//! `perfbench` — the antdensity end-to-end benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --repro PATH --work DIR
//! ```
//!
//! Normally started by `python3 perfbench/run.py`, which builds `repro`
//! and this binary from the checkout first and fills in `--repro` and
//! `--work`. With `--trace 0` it drives the workload's surface for `S`
//! seconds and prints the end-to-end metrics; with `--trace 1` it
//! replays the same inputs through each layer and prints the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`,
//! and every job's report bytes are checked against an in-process
//! reference. See `perfbench/README.md`.

mod check;
mod e2e;
mod layers;
mod proc;
mod serve_client;
mod specs;
mod stats;

use specs::{Spec, Workload};
use std::path::PathBuf;

/// Everything a measurement needs: the program, the generated inputs,
/// and their reference bytes.
pub struct Ctx {
    /// The `repro` binary under test.
    pub repro: PathBuf,
    /// This run's scratch directory (removed at exit).
    pub work: PathBuf,
    /// The workload being measured.
    pub workload: Workload,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// How long the timed stream runs.
    pub seconds: f64,
    /// The workload's spec pool, in job order.
    pub specs: Vec<Spec>,
    /// Where each spec's file was written.
    pub spec_paths: Vec<PathBuf>,
    /// Each spec's reference report bytes.
    pub refs: Vec<check::Reference>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    repro: PathBuf,
    work: PathBuf,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut repro, mut work) =
        (None, None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} `{value}`: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| bad("expected an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--repro" => repro = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let need = |what: &str| format!("missing {what}");
    Ok(Args {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?,
        trace: trace.ok_or_else(|| need("--trace"))?,
        repro: repro.ok_or_else(|| need("--repro"))?,
        work: work.ok_or_else(|| need("--work"))?,
    })
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            proc::settle(parent);
            // Gone once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(args: Args) -> Result<(), String> {
    let pool = specs::pool(args.workload, args.seed);
    // Graph builds and spectral gaps are cached per process: time them
    // before anything else builds a graph.
    let cold = if args.trace {
        Some(layers::cold_layers(&specs::grid_spec(args.seed))?)
    } else {
        None
    };
    let work = args
        .work
        .join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let _cleanup = WorkDir(work.clone());
    let spec_dir = work.join("specs");
    std::fs::create_dir_all(&spec_dir).map_err(|e| e.to_string())?;
    let mut spec_paths = Vec::with_capacity(pool.len());
    for spec in &pool {
        let path = spec_dir.join(format!("{}.sweep", spec.name));
        std::fs::write(&path, &spec.text).map_err(|e| format!("{}: {e}", path.display()))?;
        spec_paths.push(path);
    }
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} specs={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pool.len()
    );
    let refs = pool
        .iter()
        .map(check::reference)
        .collect::<Result<Vec<_>, _>>()?;
    proc::settle(&work);
    let ctx = Ctx {
        repro: args.repro,
        work,
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        specs: pool,
        spec_paths,
        refs,
    };
    let (metrics, tally) = match cold {
        Some(cold) => layers::traced(&ctx, cold)?,
        None => e2e::measure(&ctx)?,
    };
    stats::print_result(tally.failed == 0, tally.attempted, tally.failed, &metrics)
}

fn main() {
    let code = match parse_args(std::env::args().skip(1)).and_then(run) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}
