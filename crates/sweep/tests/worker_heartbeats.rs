//! The worker side of the distributed protocol, driven over in-memory
//! pipes: heartbeats cover a long shard and stop before its `RESULT`,
//! and a trivial shard's lease costs its compute, not a heartbeat tick.

use antdensity_sweep::dist::protocol::{read_frame, Msg};
use antdensity_sweep::dist::runtime::worker_loop;
use std::io::{BufReader, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A `Write` end whose bytes the test reads back after the worker exits.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs `worker_loop` over `SPEC`, one `LEASE` of shard 0 per entry of
/// `leases`, and `SHUTDOWN`. Returns the frames the worker wrote and
/// the wall time of the whole exchange.
fn drive(spec: &str, hb_ms: u64, leases: u64) -> (Vec<Msg>, Duration) {
    let mut input = Msg::Spec {
        worker: 0,
        quick: false,
        fuse: true,
        hb_ms,
        plan: String::new(),
        spec: spec.to_string(),
    }
    .encode_frame();
    for lease in 1..=leases {
        input.extend(Msg::Lease { lease, shard: 0 }.encode_frame());
    }
    input.extend(Msg::Shutdown.encode_frame());

    let out = SharedBuf::default();
    let writer: Arc<Mutex<Box<dyn Write + Send>>> = Arc::new(Mutex::new(Box::new(out.clone())));
    let start = Instant::now();
    worker_loop(BufReader::new(input.as_slice()), writer, None).unwrap();
    let elapsed = start.elapsed();

    let bytes = out.0.lock().unwrap().clone();
    let mut r = BufReader::new(bytes.as_slice());
    let mut frames = Vec::new();
    while let Some(msg) = read_frame(&mut r).unwrap() {
        frames.push(msg);
    }
    (frames, elapsed)
}

#[test]
fn long_shard_heartbeats_before_its_result_and_never_after() {
    // ~200 ms of stepping in either build profile.
    let rounds = if cfg!(debug_assertions) { 200 } else { 2000 };
    let spec = format!(
        "
        name = hb_long
        seed = 7
        trials = 4
        topology = torus2d:64
        density = 0.5
        rounds = {rounds}
        estimator = alg1
        noise = none
        "
    );
    let hb_ms = 10;
    let (frames, elapsed) = drive(&spec, hb_ms, 1);
    assert!(
        elapsed >= Duration::from_millis(5 * hb_ms),
        "the shard must outlast several heartbeat periods to test them ({elapsed:?})"
    );
    assert!(matches!(frames[0], Msg::Hello { .. }), "{:?}", frames[0]);
    let result = frames
        .iter()
        .position(|m| matches!(m, Msg::Result { lease: 1, .. }))
        .expect("a RESULT for lease 1");
    let beats = |range: &[Msg]| {
        range
            .iter()
            .filter(|m| matches!(m, Msg::Heartbeat { lease: 1, .. }))
            .count()
    };
    assert!(
        beats(&frames[..result]) >= 1,
        "no HEARTBEAT during a {elapsed:?} shard"
    );
    assert_eq!(beats(&frames[result..]), 0, "a HEARTBEAT followed RESULT");
    assert_eq!(frames.len(), result + 1, "RESULT is the last frame");
}

#[test]
fn trivial_leases_do_not_wait_for_a_heartbeat_tick() {
    let spec = "
        name = hb_short
        seed = 7
        trials = 1
        topology = complete:8
        density = 0.5
        rounds = 1
        estimator = alg1
        noise = none
    ";
    let leases = 64;
    let (frames, elapsed) = drive(spec, 10, leases);
    let results = frames
        .iter()
        .filter(|m| matches!(m, Msg::Result { .. }))
        .count();
    assert_eq!(results as u64, leases);
    // A worker that let each lease wait out one 10 ms heartbeat poll
    // needs at least 640 ms here; the bound leaves room for a loaded
    // debug build.
    assert!(
        elapsed < Duration::from_millis(320),
        "{leases} trivial leases took {elapsed:?}"
    );
}

#[test]
fn heartbeat_pump_does_not_outlive_the_loop() {
    let spec = Msg::Spec {
        worker: 0,
        quick: false,
        fuse: true,
        hb_ms: 10,
        plan: String::new(),
        spec: "name = hb_pump\nseed = 7\ntrials = 1\ntopology = complete:8\n\
               density = 0.5\nrounds = 1\nestimator = alg1\n"
            .to_string(),
    }
    .encode_frame();
    let lease = Msg::Lease { lease: 1, shard: 0 }.encode_frame();
    // A clean SHUTDOWN, EOF, and a protocol error after a lease: each
    // way out of the loop joins the pump, which alone could still hold
    // a reference to the writer.
    let endings: [(&str, Vec<u8>, bool); 3] = [
        ("shutdown", Msg::Shutdown.encode_frame(), true),
        ("eof", Vec::new(), true),
        ("error", spec.clone(), false),
    ];
    for (label, ending, ok) in endings {
        let input = [spec.as_slice(), &lease, &ending].concat();
        let writer: Arc<Mutex<Box<dyn Write + Send>>> =
            Arc::new(Mutex::new(Box::new(SharedBuf::default())));
        let result = worker_loop(BufReader::new(input.as_slice()), Arc::clone(&writer), None);
        assert_eq!(result.is_ok(), ok, "{label}: {result:?}");
        assert_eq!(
            Arc::strong_count(&writer),
            1,
            "{label}: a writer is still held"
        );
    }
}

#[test]
fn shutdown_before_spec_is_a_clean_exit() {
    let out = SharedBuf::default();
    let writer: Arc<Mutex<Box<dyn Write + Send>>> = Arc::new(Mutex::new(Box::new(out.clone())));
    let input = Msg::Shutdown.encode_frame();
    worker_loop(BufReader::new(input.as_slice()), Arc::clone(&writer), None).unwrap();
    assert!(out.0.lock().unwrap().is_empty(), "the worker answered");

    let err = worker_loop(BufReader::new(&[][..]), writer, None).unwrap_err();
    assert!(err.contains("before SPEC"), "{err}");
}
