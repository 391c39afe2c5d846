//! The real distributed driver: child processes over stdin/stdout
//! pipes or TCP peers, plus the worker side of the protocol.
//!
//! The driver owns all I/O and the wall clock; every policy decision
//! stays in the shared [`Coordinator`] state machine, which is also
//! what the deterministic simulator drives — so behavior proven there
//! (byte-identical merges, first-valid-result-wins, bounded respawn,
//! degradation) is the behavior here, modulo real-time jitter that the
//! merge path is immune to by construction.
//!
//! Wire fault injection in real mode: `kill:` entries are applied by
//! the workers themselves (the plan ships in `SPEC`), message entries
//! at the coordinator's receive path.

use super::coordinator::{Cmd, Coordinator, Event};
use super::fault::{Delivery, FaultFilter, FaultPlan};
use super::protocol::{read_frame, write_frame, Msg};
use super::{shard_blob, shard_blob_cached, DistError, DistOptions, DistStats, Transport};
use crate::cache::ShardCache;
use crate::runner::SweepOptions;
use crate::spec::{ResolvedSweep, SweepSpec};
use antdensity_telemetry as telemetry;
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Exit status a worker uses when a `kill:` fault entry fires —
/// distinguishable from crashes in CI logs.
pub const KILLED_BY_PLAN_EXIT: i32 = 9;

enum Wire {
    Msg(u64, Msg),
    Bad(u64, String),
    Eof(u64),
    Conn(TcpStream),
}

struct Link {
    writer: Box<dyn Write + Send>,
    child: Option<Child>,
}

/// The `--listen` acceptor thread and what it takes to stop it.
struct Acceptor {
    addr: SocketAddr,
    closing: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Acceptor {
    /// Binds `addr` and forwards each accepted peer as [`Wire::Conn`].
    /// Once [`Acceptor::close`] runs, a peer is answered with `SHUTDOWN`
    /// and the listener is dropped.
    fn spawn(addr: &str, tx: mpsc::Sender<Wire>) -> Result<Self, String> {
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("cannot read the address of {addr}: {e}"))?;
        let closing = Arc::new(AtomicBool::new(false));
        let thread = {
            let closing = Arc::clone(&closing);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { continue };
                    if closing.load(Ordering::SeqCst) {
                        // Answer this peer and every one queued behind
                        // it, then drop the listener.
                        let _ = listener.set_nonblocking(true);
                        let queued = listener.incoming().map_while(Result::ok);
                        for mut peer in std::iter::once(stream).chain(queued) {
                            let _ = write_frame(&mut peer, &Msg::Shutdown);
                        }
                        return;
                    }
                    if tx.send(Wire::Conn(stream)).is_err() {
                        return;
                    }
                }
            })
        };
        Ok(Self {
            addr: local,
            closing,
            thread,
        })
    }

    /// Wakes the acceptor with a connection of our own and waits until
    /// it has dropped the listener, so the port is free on return.
    fn close(self) {
        self.closing.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // Without the wake-up the thread would block in `accept`; leave
        // it to exit on the next connection instead.
        if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
            let _ = self.thread.join();
        }
    }
}

fn default_worker_argv(cache: Option<&ShardCache>) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate current executable for worker spawn: {e}"))?;
    let mut argv = vec![
        exe.to_string_lossy().into_owned(),
        "sweep-worker".into(),
        "--stdio".into(),
    ];
    // Spawned children inherit the coordinator's cache directory so
    // every worker (and the coordinator's degraded path) shares one
    // store. An explicit worker_argv is the caller's responsibility.
    if let Some(cache) = cache {
        argv.push("--cache".into());
        argv.push(cache.root().to_string_lossy().into_owned());
    }
    Ok(argv)
}

fn spawn_reader<R: std::io::Read + Send + 'static>(id: u64, r: R, tx: mpsc::Sender<Wire>) {
    std::thread::spawn(move || {
        let mut r = BufReader::new(r);
        loop {
            match read_frame(&mut r) {
                Ok(Some(msg)) => {
                    if tx.send(Wire::Msg(id, msg)).is_err() {
                        return;
                    }
                }
                Ok(None) => {
                    let _ = tx.send(Wire::Eof(id));
                    return;
                }
                Err(e) => {
                    // A real corrupted stream may never resync; report
                    // the frame error and treat the link as dead.
                    let _ = tx.send(Wire::Bad(id, e));
                    let _ = tx.send(Wire::Eof(id));
                    return;
                }
            }
        }
    });
}

/// Drives `pending` to completion over child processes or TCP peers,
/// feeding each completed shard's blob through `sink` exactly once.
/// Returns the run's counters (degraded shards already executed).
pub(crate) fn run_real(
    resolved: &ResolvedSweep,
    pending: &[usize],
    opts: &SweepOptions,
    dopts: &DistOptions,
    sink: &mut dyn FnMut(u64, &str) -> Result<(), String>,
) -> Result<DistStats, DistError> {
    let fail = DistError::Failed;
    let spec_text = dopts.spec_text.clone().ok_or_else(|| {
        fail("distributed transports need the spec text (DistOptions::spec_text)".into())
    })?;
    let mut cfg = dopts.config.clone();
    cfg.can_respawn = matches!(dopts.transport, Transport::Children { .. });
    let plan_text = dopts.plan.to_text();
    let hb_ms = cfg.heartbeat_interval_ms;
    let quick = opts.quick;
    let fuse = opts.fuse;
    let spec_msg = |worker: u64| Msg::Spec {
        worker,
        quick,
        fuse,
        hb_ms,
        plan: plan_text.clone(),
        spec: spec_text.clone(),
    };

    let shards: Vec<u64> = pending.iter().map(|&i| i as u64).collect();
    let mut coord = Coordinator::new(cfg.clone(), resolved.fingerprint, &shards);
    let start = Instant::now();
    let now_ms = move || start.elapsed().as_millis() as u64;
    let (tx, rx) = mpsc::channel::<Wire>();
    let mut links: BTreeMap<u64, Link> = BTreeMap::new();
    let mut filter = FaultFilter::new(&dopts.plan);
    let mut delayed: BTreeMap<(u64, u64), (u64, Msg)> = BTreeMap::new();
    let mut delayed_seq = 0u64;
    let mut respawn_at: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut degraded: Option<Vec<u64>> = None;
    let mut abort: Option<(u64, String)> = None;
    let hb_gap = telemetry::duration_histogram("sweep.dist.heartbeat_gap");
    let mut last_hb: BTreeMap<u64, Instant> = BTreeMap::new();

    let argv = match &dopts.worker_argv {
        Some(argv) if !argv.is_empty() => argv.clone(),
        _ => default_worker_argv(opts.cache.as_deref()).map_err(fail)?,
    };
    let spawn_child =
        |id: u64, links: &mut BTreeMap<u64, Link>, tx: &mpsc::Sender<Wire>| -> Result<(), String> {
            let mut child = Command::new(&argv[0])
                .args(&argv[1..])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawn {} failed: {e}", argv[0]))?;
            let mut stdin = child.stdin.take().expect("piped stdin");
            let stdout = child.stdout.take().expect("piped stdout");
            write_frame(&mut stdin, &spec_msg(id)).map_err(|e| format!("SPEC send failed: {e}"))?;
            spawn_reader(id, stdout, tx.clone());
            links.insert(
                id,
                Link {
                    writer: Box::new(stdin),
                    child: Some(child),
                },
            );
            Ok(())
        };

    // Bring the transport up.
    let mut cmds: Vec<Cmd> = Vec::new();
    let mut acceptor: Option<Acceptor> = None;
    match &dopts.transport {
        Transport::Children { workers } => {
            for id in 0..*workers as u64 {
                match spawn_child(id, &mut links, &tx) {
                    Ok(()) => {
                        cmds.extend(coord.on_event(now_ms(), Event::Connected { worker: id }))
                    }
                    Err(e) => {
                        eprintln!("sweep-dist: {e}");
                        cmds.extend(coord.on_event(now_ms(), Event::SpawnFailed { worker: id }));
                    }
                }
            }
        }
        Transport::Listen { addr } => {
            acceptor = Some(Acceptor::spawn(addr, tx.clone()).map_err(fail)?);
        }
        Transport::Sim { .. } => {
            return Err(fail(
                "Transport::Sim is driven by dist::sim, not the real runtime".into(),
            ))
        }
    }
    let mut next_peer_id = 0u64;
    let mut failure: Option<DistError> = None;

    'run: loop {
        // Execute pending commands before waiting. Leases and shutdowns
        // go out first (a stable partition), so a worker computes its
        // next shard while the sinks below merge the last one.
        let (sends, rest): (Vec<Cmd>, Vec<Cmd>) = std::mem::take(&mut cmds)
            .into_iter()
            .partition(|cmd| matches!(cmd, Cmd::SendLease { .. } | Cmd::SendShutdown { .. }));
        for cmd in sends.into_iter().chain(rest) {
            match cmd {
                Cmd::SendLease {
                    worker,
                    lease,
                    shard,
                } => {
                    if let Some(link) = links.get_mut(&worker) {
                        let _ = write_frame(&mut link.writer, &Msg::Lease { lease, shard });
                    }
                }
                Cmd::SendShutdown { worker } => {
                    if let Some(link) = links.get_mut(&worker) {
                        let _ = write_frame(&mut link.writer, &Msg::Shutdown);
                    }
                }
                Cmd::Respawn { worker, at_ms } => {
                    respawn_at.entry(at_ms).or_default().push(worker);
                }
                Cmd::Completed { shard, blob } => {
                    if let Err(e) = sink(shard, &blob) {
                        // Still through the teardown below: no child
                        // outlives the run, live or unreaped.
                        failure = Some(fail(e));
                        break 'run;
                    }
                }
                Cmd::Degrade { shards } => degraded = Some(shards),
                Cmd::Abort { shard, report } => abort = Some((shard, report)),
                Cmd::AllDone => {}
            }
        }
        if coord.finished().is_some() {
            break;
        }

        // Wait until the next timer or message, whichever is first.
        let now = now_ms();
        let mut deadline = now + 100;
        if let Some(d) = coord.next_deadline() {
            deadline = deadline.min(d.max(now + 1));
        }
        if let Some((&at, _)) = respawn_at.iter().next() {
            deadline = deadline.min(at.max(now + 1));
        }
        if let Some((&(at, _), _)) = delayed.iter().next() {
            deadline = deadline.min(at.max(now + 1));
        }
        let wait = Duration::from_millis(deadline.saturating_sub(now).clamp(1, 200));
        match rx.recv_timeout(wait) {
            Ok(Wire::Msg(id, msg)) => {
                let now = now_ms();
                for d in filter.apply(msg) {
                    match d {
                        Delivery::Now(m) => {
                            cmds.extend(deliver(&mut coord, now, id, m, &hb_gap, &mut last_hb));
                        }
                        Delivery::Corrupt => cmds.extend(coord.on_event(
                            now,
                            Event::BadFrame {
                                worker: id,
                                error: "frame checksum mismatch (injected)".into(),
                            },
                        )),
                        Delivery::After(ms, m) => {
                            delayed_seq += 1;
                            delayed.insert((now + ms, delayed_seq), (id, m));
                        }
                    }
                }
            }
            Ok(Wire::Bad(id, e)) => {
                cmds.extend(coord.on_event(
                    now_ms(),
                    Event::BadFrame {
                        worker: id,
                        error: e,
                    },
                ));
            }
            Ok(Wire::Eof(id)) => {
                if let Some(mut link) = links.remove(&id) {
                    if let Some(mut child) = link.child.take() {
                        let _ = child.wait();
                    }
                }
                cmds.extend(coord.on_event(now_ms(), Event::Died { worker: id }));
            }
            Ok(Wire::Conn(stream)) => {
                let id = next_peer_id;
                next_peer_id += 1;
                let _ = stream.set_nodelay(true);
                if let Ok(read_half) = stream.try_clone() {
                    let mut writer: Box<dyn Write + Send> = Box::new(stream);
                    if write_frame(&mut writer, &spec_msg(id)).is_ok() {
                        spawn_reader(id, read_half, tx.clone());
                        links.insert(
                            id,
                            Link {
                                writer,
                                child: None,
                            },
                        );
                        cmds.extend(coord.on_event(now_ms(), Event::Connected { worker: id }));
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // All senders gone (should not happen: we hold `tx`).
                break;
            }
        }

        // Fire due respawns and delayed deliveries, then tick.
        let now = now_ms();
        let due: Vec<u64> = respawn_at.range(..=now).map(|(&at, _)| at).collect();
        for at in due {
            for worker in respawn_at.remove(&at).unwrap_or_default() {
                match spawn_child(worker, &mut links, &tx) {
                    Ok(()) => {
                        cmds.extend(coord.on_event(now, Event::Connected { worker }));
                    }
                    Err(e) => {
                        eprintln!("sweep-dist: respawn w{worker}: {e}");
                        cmds.extend(coord.on_event(now, Event::SpawnFailed { worker }));
                    }
                }
            }
        }
        let due: Vec<(u64, u64)> = delayed.range(..=(now, u64::MAX)).map(|(&k, _)| k).collect();
        for key in due {
            if let Some((id, m)) = delayed.remove(&key) {
                cmds.extend(deliver(&mut coord, now, id, m, &hb_gap, &mut last_hb));
            }
        }
        cmds.extend(coord.on_event(now_ms(), Event::Tick));
    }

    // Tear the transport down: shutdown frames, closed stdins, and a
    // hard kill for any child that ignores both. A peer that reached
    // the acceptor after the run ended is answered with SHUTDOWN.
    for (_, link) in links.iter_mut() {
        let _ = write_frame(&mut link.writer, &Msg::Shutdown);
    }
    for (_, mut link) in std::mem::take(&mut links) {
        drop(link.writer);
        if let Some(mut child) = link.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
    if let Some(acceptor) = acceptor {
        acceptor.close();
    }
    while let Ok(wire) = rx.try_recv() {
        if let Wire::Conn(mut stream) = wire {
            let _ = write_frame(&mut stream, &Msg::Shutdown);
        }
    }
    drop(tx);

    if let Some(e) = failure {
        return Err(e);
    }
    if let Some((shard, report)) = abort {
        return Err(DistError::Mismatch { shard, report });
    }
    let mut stats = coord.stats.clone();
    if let Some(shards) = degraded {
        for shard in shards {
            let blob = match opts.cache.as_deref() {
                Some(cache) => shard_blob_cached(resolved, shard as usize, fuse, cache),
                None => shard_blob(resolved, shard as usize, fuse),
            };
            sink(shard, &blob).map_err(fail)?;
            stats.degraded += 1;
        }
    }
    Ok(stats)
}

/// Maps one delivered message to a coordinator event, recording
/// heartbeat-gap telemetry on the way.
fn deliver(
    coord: &mut Coordinator,
    now: u64,
    id: u64,
    msg: Msg,
    hb_gap: &telemetry::registry::DurationHistogram,
    last_hb: &mut BTreeMap<u64, Instant>,
) -> Vec<Cmd> {
    let event = match msg {
        Msg::Hello {
            worker,
            fingerprint,
        } => Event::Hello {
            worker,
            fingerprint,
        },
        Msg::Result { lease, shard, blob } => {
            last_hb.remove(&lease);
            Event::Result {
                worker: id,
                lease,
                shard,
                blob,
            }
        }
        Msg::Heartbeat { worker, lease } => {
            if telemetry::enabled() {
                let at = Instant::now();
                if let Some(prev) = last_hb.insert(lease, at) {
                    hb_gap.record_ns(at.duration_since(prev).as_nanos() as u64);
                }
            }
            Event::Heartbeat { worker, lease }
        }
        Msg::Nack { lease, reason } => Event::Nack {
            worker: id,
            lease,
            reason,
        },
        // SPEC/LEASE/SHUTDOWN never flow worker → coordinator.
        _ => {
            return coord.on_event(
                now,
                Event::BadFrame {
                    worker: id,
                    error: "unexpected coordinator-bound verb".into(),
                },
            )
        }
    };
    coord.on_event(now, event)
}

/// The worker side of the protocol, generic over the transport.
/// Reads `SPEC`, answers `HELLO`, then serves leases until `SHUTDOWN`
/// or EOF; one heartbeat pump thread, started after `SPEC` and joined
/// before returning, heartbeats whichever lease is computing. A
/// `SHUTDOWN` in place of `SPEC` (a peer that reached a coordinator
/// whose run had ended) is a clean exit.
/// With a `cache`, each lease consults the worker-local store before
/// stepping — a verified hit is returned as the result blob without
/// simulating (the bytes are identical either way, so the coordinator's
/// first-valid-wins and mismatch-abort logic are untouched).
///
/// # Errors
///
/// Returns protocol violations and I/O failures as displayable
/// messages; a scripted `kill:` fault exits the process with
/// [`KILLED_BY_PLAN_EXIT`] instead of returning.
pub fn worker_loop<R: std::io::BufRead>(
    mut r: R,
    w: Arc<Mutex<Box<dyn Write + Send>>>,
    cache: Option<&ShardCache>,
) -> Result<(), String> {
    let first = read_frame(&mut r)?.ok_or("connection closed before SPEC")?;
    let Msg::Spec {
        worker,
        quick,
        fuse,
        hb_ms,
        plan,
        spec,
    } = first
    else {
        if first == Msg::Shutdown {
            return Ok(());
        }
        return Err(format!("expected SPEC, got {}", first_verb(&first)));
    };
    let plan = FaultPlan::parse(&plan)?;
    let resolved = SweepSpec::parse(&spec)?.resolve(quick)?;
    send(
        &w,
        &Msg::Hello {
            worker,
            fingerprint: resolved.fingerprint,
        },
    )?;
    let pump = Pump::new(Duration::from_millis(hb_ms.max(10)));
    std::thread::scope(|scope| {
        let _stop = StopPump(&pump);
        scope.spawn(|| pump.run(&w, worker));
        let mut ordinal = 0u64;
        loop {
            match read_frame(&mut r) {
                Ok(None) | Ok(Some(Msg::Shutdown)) => return Ok(()),
                Ok(Some(Msg::Lease { lease, shard })) => {
                    ordinal += 1;
                    if plan.kills(worker, lease, ordinal) {
                        // Scripted abrupt death: no shutdown handshake,
                        // no flush — the coordinator sees EOF.
                        std::process::exit(KILLED_BY_PLAN_EXIT);
                    }
                    if shard as usize >= resolved.fused.len() {
                        send(
                            &w,
                            &Msg::Nack {
                                lease,
                                reason: format!(
                                    "shard {shard} out of range ({} fused shards)",
                                    resolved.fused.len()
                                ),
                            },
                        )?;
                        continue;
                    }
                    pump.set(Some(lease));
                    let blob = match cache {
                        Some(cache) => shard_blob_cached(&resolved, shard as usize, fuse, cache),
                        None => shard_blob(&resolved, shard as usize, fuse),
                    };
                    // Cleared under the lock the pump sends under: no
                    // heartbeat for this lease can follow its RESULT.
                    pump.set(None);
                    send(&w, &Msg::Result { lease, shard, blob })?;
                }
                Ok(Some(other)) => return Err(format!("unexpected {} frame", first_verb(&other))),
                Err(e) => return Err(e),
            }
        }
    })
}

fn first_verb(msg: &Msg) -> &'static str {
    msg.verb().name()
}

fn send(w: &Arc<Mutex<Box<dyn Write + Send>>>, msg: &Msg) -> Result<(), String> {
    let mut guard = w.lock().map_err(|_| "writer poisoned".to_string())?;
    write_frame(&mut *guard, msg).map_err(|e| format!("send failed: {e}"))
}

/// A worker's heartbeat pump: the lease being computed, shared with the
/// one thread that heartbeats it.
struct Pump {
    every: Duration,
    state: Mutex<PumpState>,
    wake: Condvar,
}

#[derive(Default)]
struct PumpState {
    /// The computing lease and when its next heartbeat is due.
    lease: Option<(u64, Instant)>,
    /// Ends the pump thread.
    stop: bool,
}

impl Pump {
    fn new(every: Duration) -> Self {
        Self {
            every,
            state: Mutex::default(),
            wake: Condvar::new(),
        }
    }

    /// Sets or clears the computing lease. Setting it wakes nobody: an
    /// idle pump looks again every period, so the first heartbeat still
    /// comes one period after the lease started.
    fn set(&self, lease: Option<u64>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.lease = lease.map(|lease| (lease, Instant::now() + self.every));
    }

    /// Heartbeats the current lease when due until stopped. Each
    /// heartbeat is sent with the state lock held.
    fn run(&self, w: &Arc<Mutex<Box<dyn Write + Send>>>, worker: u64) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while !state.stop {
            let mut wait = self.every;
            if let Some((lease, due)) = state.lease {
                let now = Instant::now();
                if now < due {
                    wait = due - now;
                } else if send(w, &Msg::Heartbeat { worker, lease }).is_ok() {
                    state.lease = Some((lease, now + self.every));
                } else {
                    return; // coordinator gone; computation finishes anyway
                }
            }
            state = match self.wake.wait_timeout(state, wait) {
                Ok((state, _)) => state,
                Err(e) => e.into_inner().0,
            };
        }
    }
}

/// Stops the pump when the lease loop ends, on every path out of it.
struct StopPump<'a>(&'a Pump);

impl Drop for StopPump<'_> {
    fn drop(&mut self) {
        self.0.state.lock().unwrap_or_else(|e| e.into_inner()).stop = true;
        self.0.wake.notify_one();
    }
}

/// Runs a worker speaking frames on stdin/stdout — the child half of
/// `repro sweep … --serve-shards` (`repro sweep-worker --stdio`).
/// Anything the worker wants to say to a human goes to stderr; stdout
/// carries only frames. `cache` is the worker-local shard result
/// store (`repro sweep-worker --cache DIR`; forwarded automatically to
/// spawned children when the coordinator runs with `--cache`).
///
/// # Errors
///
/// Returns protocol violations and I/O failures as displayable
/// messages.
pub fn run_worker_stdio(cache: Option<&ShardCache>) -> Result<(), String> {
    let stdin = std::io::stdin();
    let writer: Arc<Mutex<Box<dyn Write + Send>>> =
        Arc::new(Mutex::new(Box::new(std::io::stdout())));
    worker_loop(BufReader::new(stdin.lock()), writer, cache)
}

/// Runs a worker that dials a listening coordinator — the peer half of
/// `repro sweep … --listen ADDR` (`repro sweep-worker --connect ADDR`).
/// `cache` as in [`run_worker_stdio`].
///
/// # Errors
///
/// Returns connection failures, protocol violations, and I/O failures
/// as displayable messages.
pub fn run_worker_connect(addr: &str, cache: Option<&ShardCache>) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let read_half = stream
        .try_clone()
        .map_err(|e| format!("cannot clone stream: {e}"))?;
    let writer: Arc<Mutex<Box<dyn Write + Send>>> = Arc::new(Mutex::new(Box::new(stream)));
    worker_loop(BufReader::new(read_half), writer, cache)
}
