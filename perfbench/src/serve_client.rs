//! A closed-loop `repro serve` client that stamps every event it reads.
//!
//! It speaks the protocol as `serve::Client` (and so `repro
//! serve-submit`) does: one connection, the hello check, then per job
//! one submit line written as `Client::send` writes it (the line, then
//! its newline in a second write, on a socket without `TCP_NODELAY`),
//! then event lines until the job's terminal event. It reads raw lines
//! itself, where `Client` parses them, so it can stamp each event,
//! count the bytes, and time `Event::parse_line` apart from the wait.

use crate::check::Delivery;
use crate::stats::ms_since;
use antdensity_serve::{Event, Json, Request, Submit, PROTOCOL};
use antdensity_sweep::SweepJob;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

/// One connection to the daemon.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// One served job, stamped in milliseconds from its submit.
#[derive(Debug, Clone)]
pub struct Served {
    /// When the submit line was written.
    pub submit: Instant,
    /// `accepted` event.
    pub accepted_ms: Option<f64>,
    /// First `row` event.
    pub first_row_ms: Option<f64>,
    /// Last `row` event.
    pub last_row_ms: Option<f64>,
    /// The terminal event (`done`, `rejected`, `failed`, …) parsed.
    pub end_ms: f64,
    /// What the job delivered.
    pub delivery: Delivery,
    /// Bytes of every event line read for this job.
    pub bytes: u64,
    /// Event lines read for this job.
    pub lines: u64,
    /// Time spent in `Event::parse_line`, nanoseconds.
    pub parse_ns: u64,
}

impl Conn {
    /// Connects and checks the hello handshake; also returns the
    /// connect-to-hello time in milliseconds.
    pub fn connect(addr: &str) -> Result<(Conn, f64), String> {
        let t0 = Instant::now();
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let mut conn = Conn {
            reader: BufReader::new(stream),
            writer,
        };
        let mut line = String::new();
        conn.read_line(&mut line)?;
        match Event::parse_line(line.trim_end())? {
            Event::Hello { protocol } if protocol == PROTOCOL => Ok((conn, ms_since(t0))),
            other => Err(format!(
                "expected hello {PROTOCOL}, got {}",
                other.to_line()
            )),
        }
    }

    fn read_line(&mut self, line: &mut String) -> Result<usize, String> {
        line.clear();
        match self.reader.read_line(line) {
            Ok(0) => Err("connection closed".into()),
            Ok(n) => Ok(n),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Writes one request exactly as `serve::Client::send` does.
    fn send(&mut self, req: &Request) -> Result<(), String> {
        self.writer
            .write_all(req.to_line().as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))
    }

    /// Submits `spec_text` (quick mode, fused, as the CLI runs it) and
    /// reads until the job's terminal event.
    ///
    /// # Errors
    ///
    /// Transport failures only; a rejected or failed job is a
    /// [`Delivery::Ended`].
    pub fn run_job(&mut self, spec_text: &str) -> Result<Served, String> {
        let submit = Request::Submit(Submit {
            job: SweepJob {
                spec_text: spec_text.to_string(),
                quick: true,
                fuse: true,
                seed_override: None,
            },
            label: None,
        });
        let t0 = Instant::now();
        self.send(&submit)?;
        let mut served = Served {
            submit: t0,
            accepted_ms: None,
            first_row_ms: None,
            last_row_ms: None,
            end_ms: 0.0,
            delivery: Delivery::Ended(String::new()),
            bytes: 0,
            lines: 0,
            parse_ns: 0,
        };
        let mut line = String::new();
        loop {
            let n = self.read_line(&mut line)?;
            let at = ms_since(t0);
            served.bytes += n as u64;
            served.lines += 1;
            let p0 = Instant::now();
            let event = Event::parse_line(line.trim_end());
            served.parse_ns += p0.elapsed().as_nanos() as u64;
            let ended = match event? {
                Event::Accepted { .. } => {
                    served.accepted_ms = Some(at);
                    None
                }
                Event::Row { .. } => {
                    served.first_row_ms.get_or_insert(at);
                    served.last_row_ms = Some(at);
                    None
                }
                Event::Done {
                    report_json,
                    report_csv,
                    ..
                } => Some(Delivery::Report {
                    json: report_json,
                    csv: report_csv,
                }),
                Event::Rejected { reason } => Some(Delivery::Ended(format!("rejected: {reason}"))),
                Event::Failed { reason, .. } => Some(Delivery::Ended(format!("failed: {reason}"))),
                Event::Cancelled { .. } => Some(Delivery::Ended("cancelled".into())),
                Event::Error { reason } => Some(Delivery::Ended(format!("error: {reason}"))),
                _ => None,
            };
            if let Some(delivery) = ended {
                // Report bytes are out once the terminal line is parsed.
                served.end_ms = ms_since(t0);
                served.delivery = delivery;
                return Ok(served);
            }
        }
    }

    /// Requests the daemon's metrics snapshot (between jobs only).
    pub fn metrics(&mut self) -> Result<Json, String> {
        self.send(&Request::Metrics)?;
        let mut line = String::new();
        loop {
            self.read_line(&mut line)?;
            if let Event::Metrics(obj) = Event::parse_line(line.trim_end())? {
                return Ok(obj);
            }
        }
    }
}
