//! A `--listen` coordinator frees its port when the run ends, and a
//! peer that reaches it after the last result is told to shut down
//! rather than dropped unserved.

use antdensity_sweep::dist::{self, DistOptions, FaultPlan, Transport};
use antdensity_sweep::{run_sweep_distributed, SweepOptions, SweepSpec};
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const SPEC: &str = "
    name = dist_listen
    seed = 5
    trials = 1
    topology = complete:16, ring:16
    density = 0.25, 0.5
    rounds = 4
    estimator = alg1
    noise = none
";

/// Runs `worker_loop` on `stream`.
fn serve(stream: TcpStream) -> Result<(), String> {
    let _ = stream.set_nodelay(true);
    let read_half = BufReader::new(stream.try_clone().unwrap());
    let writer: Box<dyn Write + Send> = Box::new(stream);
    dist::runtime::worker_loop(read_half, Arc::new(Mutex::new(writer)), None)
}

/// A free loopback address.
fn free_addr() -> String {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .to_string()
}

/// Connects to `addr` once the coordinator listens and serves its run.
fn first_peer(addr: &str) -> Result<(), String> {
    for _ in 0..1000 {
        if let Ok(stream) = TcpStream::connect(addr) {
            return serve(stream);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Err("listener never came up".to_string())
}

/// Runs the sweep on a coordinator listening on `addr`.
fn run(addr: &str) {
    let dopts = DistOptions {
        transport: Transport::Listen {
            addr: addr.to_string(),
        },
        spec_text: Some(SPEC.to_string()),
        ..DistOptions::sim(1, FaultPlan::none())
    };
    let spec = SweepSpec::parse(SPEC).unwrap();
    let (outcome, _) = run_sweep_distributed(&spec, &SweepOptions::default(), &dopts).unwrap();
    assert!(outcome.complete);
}

#[test]
fn port_rebinds_right_after_the_run() {
    let addr = free_addr();
    let peer = {
        let addr = addr.clone();
        std::thread::spawn(move || first_peer(&addr))
    };
    run(&addr);
    // No connection arrives after the run: the port must be free
    // because the run released it.
    let rebound = TcpListener::bind(&addr);
    assert!(
        rebound.is_ok(),
        "port still bound after the run: {rebound:?}"
    );
    peer.join().unwrap().unwrap();
}

#[test]
fn late_peer_is_told_to_shut_down() {
    let addr = free_addr();
    // As soon as the coordinator has told the first peer to shut down,
    // a second peer dials: it lands while the coordinator tears down,
    // or after. A SHUTDOWN is a clean exit; a refused or reset
    // connection means the listener was already gone. Only a
    // connection dropped unserved ("closed before SPEC") fails.
    let peers = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let first = first_peer(&addr);
            let late = match TcpStream::connect(&addr) {
                Ok(stream) => match serve(stream) {
                    Err(e) if e.contains("before SPEC") => Err(e),
                    _ => Ok(()),
                },
                Err(_) => Ok(()),
            };
            (first, late)
        })
    };
    run(&addr);
    let (first, late) = peers.join().unwrap();
    first.unwrap();
    late.unwrap();
}
