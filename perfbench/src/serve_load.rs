//! The service phases: an open loop paced on a fixed schedule (verdict
//! latency, generator lag) and an unpaced closed loop (throughput). One
//! thread per connection; every verdict is checked against the trace's
//! offline reference.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use serve::protocol::{
    decode_error, decode_stats, decode_summary, decode_verdict, put_frame, FrameBuf, Kind,
    StatsFrame,
};

use crate::sys;
use crate::verdict::{check, Verdict};
use crate::workload::{hello, WireTrace};

/// Longest wait for the server before an operation counts as timed out.
const TIMEOUT: Duration = Duration::from_secs(30);
/// Closed loop: traces a connection may have sent but not yet had
/// answered. More than one keeps the server from idling between a
/// summary and the next trace's first frame.
const CLOSED_WINDOW: usize = 4;
/// Longest sleep on a full socket before replies are read again.
const SEND_WAIT: Duration = Duration::from_millis(10);

/// What one service phase observed.
#[derive(Debug, Default)]
pub struct Observed {
    /// Traces started (each is one attempted operation).
    pub attempted: u64,
    /// Failed operations: wrong verdicts, error frames, refused
    /// connections, timeouts.
    pub failures: Vec<String>,
    /// Events whose traces completed.
    pub events: u64,
    /// Phase wall time.
    pub wall: Duration,
    /// Per trace: deciding event due → its verdict, in ms (open loop).
    pub latencies_ms: Vec<f64>,
    /// Per frame: how late it was sent against its schedule, in ms.
    pub lags_ms: Vec<f64>,
    /// Violation pushes received.
    pub pushes: u64,
    /// Of [`Observed::pushes`], those that arrived before `END`.
    pub pushes_before_eof: u64,
    /// The server's statistics at the end of the phase.
    pub stats: Option<StatsFrame>,
}

impl Observed {
    fn merge(&mut self, other: Self) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.events += other.events;
        self.latencies_ms.extend(other.latencies_ms);
        self.lags_ms.extend(other.lags_ms);
        self.pushes += other.pushes;
        self.pushes_before_eof += other.pushes_before_eof;
        self.stats = self.stats.or(other.stats);
    }
}

/// A trace sent but not yet summarised.
struct InFlight<'a> {
    trace: &'a WireTrace,
    /// Events sent on this connection before this trace: its event `e`
    /// is due `(base_events + e + 1) / rate` seconds after the start.
    base_events: u64,
    end_sent: Option<Instant>,
    first_push: Option<Instant>,
    /// Wrong verdicts seen for this trace so far.
    errors: Vec<String>,
}

/// Handles one server frame and the instant it was read.
type OnFrame<'a> = dyn FnMut(Kind, &[u8], Instant) -> Result<(), String> + 'a;

/// One connection: a non-blocking socket plus its frame decoder.
struct Conn {
    stream: TcpStream,
    frames: FrameBuf,
    scratch: Vec<u8>,
}

impl Conn {
    fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut conn = Self { stream, frames: FrameBuf::new(), scratch: vec![0; 64 << 10] };
        conn.stream.write_all(&hello()).map_err(|e| format!("HELLO: {e}"))?;
        let deadline = Instant::now() + TIMEOUT;
        conn.stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        loop {
            conn.fill()?;
            if let Some((kind, _)) = conn.frames.next_frame().map_err(|e| e.to_string())? {
                return match kind {
                    Kind::Welcome => Ok(conn),
                    other => Err(format!("expected WELCOME, got {other:?}")),
                };
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err("no WELCOME".to_owned());
            }
            sys::wait_ready(&conn.stream, sys::READABLE, left);
        }
    }

    /// Reads whatever has arrived, without blocking.
    fn fill(&mut self) -> Result<(), String> {
        loop {
            match self.stream.read(&mut self.scratch) {
                Ok(0) => return Err("server closed the connection".to_owned()),
                Ok(n) => self.frames.extend(&self.scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.to_string()),
            }
        }
    }

    /// Sends all of `bytes`. While the socket is full, replies keep
    /// being read, so the server is never stalled writing to us.
    fn send(&mut self, mut bytes: &[u8], on_frame: &mut OnFrame<'_>) -> Result<(), String> {
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    sys::wait_ready(&self.stream, sys::READABLE | sys::WRITABLE, SEND_WAIT);
                    self.poll(on_frame)?;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(())
    }

    /// Reads and dispatches every complete frame that has arrived.
    fn poll(&mut self, on_frame: &mut OnFrame<'_>) -> Result<(), String> {
        self.fill()?;
        let now = Instant::now();
        while let Some((kind, payload)) = self.frames.next_frame().map_err(|e| e.to_string())? {
            on_frame(kind, payload, now)?;
        }
        Ok(())
    }
}

/// Tracks replies for a connection's in-flight traces, in order.
struct Replies<'a> {
    inflight: VecDeque<InFlight<'a>>,
    start: Instant,
    rate: Option<f64>,
    out: Observed,
    stats: Option<StatsFrame>,
}

impl<'a> Replies<'a> {
    fn due(&self, events: u64) -> Instant {
        let rate = self.rate.expect("due times exist only in the open loop");
        self.start + Duration::from_secs_f64(events as f64 / rate)
    }

    fn on_frame(&mut self, kind: Kind, payload: &[u8], at: Instant) -> Result<(), String> {
        match kind {
            Kind::Verdict => {
                let v = decode_verdict(payload).map_err(|e| e.to_string())?;
                let front = self.inflight.front_mut().ok_or("VERDICT with no trace in flight")?;
                self.out.pushes += 1;
                if front.end_sent.is_none() {
                    self.out.pushes_before_eof += 1;
                }
                front.first_push.get_or_insert(at);
                let expected = front.trace.reference;
                if expected.violation != Some(v.event) {
                    front.errors.push(format!(
                        "checker {} pushed a violation at event {}, expected {:?}",
                        v.checker, v.event, expected.violation
                    ));
                }
                Ok(())
            }
            Kind::Summary => {
                let s = decode_summary(payload).map_err(|e| e.to_string())?;
                let mut done =
                    self.inflight.pop_front().ok_or("SUMMARY with no trace in flight")?;
                let expected = done.trace.reference;
                if s.events != done.trace.events {
                    done.errors.push(format!(
                        "summary counts {} events, {} were sent",
                        s.events, done.trace.events
                    ));
                }
                for run in &s.runs {
                    let got = Verdict::from_violation(run.violation, done.trace.events);
                    if let Err(e) = check(&run.name, expected, got) {
                        done.errors.push(e);
                    }
                }
                if self.rate.is_some() {
                    let (decided, due) = match expected.violation {
                        Some(e) => (done.first_push, self.due(done.base_events + e + 1)),
                        None => (Some(at), self.due(done.base_events + done.trace.events)),
                    };
                    match decided {
                        Some(t) => self
                            .out
                            .latencies_ms
                            .push(t.saturating_duration_since(due).as_secs_f64() * 1e3),
                        None => done.errors.push("violation summarised, never pushed".into()),
                    }
                }
                if done.errors.is_empty() {
                    self.out.events += done.trace.events;
                } else {
                    self.out.failures.push(done.errors.join("; "));
                }
                Ok(())
            }
            Kind::StatsReply => {
                self.stats = Some(decode_stats(payload).map_err(|e| e.to_string())?);
                Ok(())
            }
            Kind::Error => {
                let e = decode_error(payload).map_err(|e| e.to_string())?;
                Err(format!("server error [{}]: {}", e.code, e.message))
            }
            other => Err(format!("unexpected {other:?} frame")),
        }
    }
}

/// Drives one connection. With `rate`, every frame is sent when its
/// last event is due (open loop); without, traces are sent whole, at
/// most [`CLOSED_WINDOW`] of them unanswered (closed loop). Starts no trace
/// after `start + secs`; ends with a `STATS` query when `want_stats`.
fn drive(
    addr: &str,
    traces: &[WireTrace],
    start: Instant,
    secs: f64,
    rate: Option<f64>,
    want_stats: bool,
) -> Observed {
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => return Observed { attempted: 1, failures: vec![e], ..Observed::default() },
    };
    let mut replies =
        Replies { inflight: VecDeque::new(), start, rate, out: Observed::default(), stats: None };
    let stop = start + Duration::from_secs_f64(secs);
    let result = (|| -> Result<(), String> {
        let mut sent_events = 0u64;
        thread::sleep(start.saturating_duration_since(Instant::now()));
        while Instant::now() < stop {
            let trace = &traces[replies.out.attempted as usize % traces.len()];
            replies.out.attempted += 1;
            replies.inflight.push_back(InFlight {
                trace,
                base_events: sent_events,
                end_sent: None,
                first_push: None,
                errors: Vec::new(),
            });
            let mut from = 0;
            for (i, mark) in trace.marks.iter().enumerate() {
                if rate.is_some() {
                    let due = replies.due(sent_events + mark.events);
                    loop {
                        conn.poll(&mut |k, p, t| replies.on_frame(k, p, t))?;
                        let left = due.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            break;
                        }
                        sys::wait_ready(&conn.stream, sys::READABLE, left);
                    }
                    replies.out.lags_ms.push(due.elapsed().as_secs_f64() * 1e3);
                }
                conn.send(&trace.bytes[from..mark.end], &mut |k, p, t| replies.on_frame(k, p, t))?;
                from = mark.end;
                if i + 1 == trace.marks.len() {
                    replies.inflight.back_mut().expect("pushed above").end_sent =
                        Some(Instant::now());
                }
            }
            sent_events += trace.events;
            if rate.is_none() {
                await_replies(&mut conn, &mut replies, |r| r.inflight.len() < CLOSED_WINDOW)?;
            }
        }
        await_replies(&mut conn, &mut replies, |r| r.inflight.is_empty())?;
        if want_stats {
            let mut frame = Vec::new();
            put_frame(Kind::Stats, &[], &mut frame);
            conn.send(&frame, &mut |k, p, t| replies.on_frame(k, p, t))?;
            await_replies(&mut conn, &mut replies, |r| r.stats.is_some())?;
        }
        Ok(())
    })();
    let mut out = replies.out;
    out.stats = replies.stats;
    if let Err(e) = result {
        // The connection is lost: every trace still in flight failed.
        let lost = replies.inflight.len().max(1);
        out.failures.extend(std::iter::repeat_n(e, lost));
    }
    out
}

fn await_replies(
    conn: &mut Conn,
    replies: &mut Replies<'_>,
    done: impl Fn(&Replies<'_>) -> bool,
) -> Result<(), String> {
    let deadline = Instant::now() + TIMEOUT;
    loop {
        conn.poll(&mut |k, p, t| replies.on_frame(k, p, t))?;
        if done(replies) {
            return Ok(());
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(format!("timed out with {} trace(s) unanswered", replies.inflight.len()));
        }
        sys::wait_ready(&conn.stream, sys::READABLE, left);
    }
}

/// Runs one phase over every connection in parallel for `secs`
/// seconds. `rate` paces each connection (open loop); `None` runs the
/// closed loop.
pub fn phase(addr: &str, wire: &[Vec<WireTrace>], secs: f64, rate: Option<f64>) -> Observed {
    // A common start a little ahead, so no connection's schedule
    // begins before its handshake.
    let start = Instant::now() + Duration::from_millis(20);
    let merged = Mutex::new(Observed::default());
    thread::scope(|s| {
        for (c, traces) in wire.iter().enumerate() {
            let merged = &merged;
            s.spawn(move || {
                let got = drive(addr, traces, start, secs, rate, c == 0);
                merged.lock().expect("no phase thread panics holding the lock").merge(got);
            });
        }
    });
    let mut out = merged.into_inner().expect("no phase thread panics holding the lock");
    out.wall = start.elapsed();
    out
}
