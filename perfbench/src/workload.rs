//! The workloads: what each one generates from the seed, and the set-up
//! that turns a seed into files, encoded streams, reference verdicts and
//! a running server.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use aerodrome::optimized::OptimizedChecker;
use serve::protocol::{self, put_frame, Kind};
use tracelog::binfmt::{write_binary, DEFAULT_CHUNK_EVENTS};
use tracelog::stream::{collect_trace, copy_events, EventBatch, EventSource};
use tracelog::wire::{self, NameKind};
use tracelog::{Event, Op, ThreadId, Trace, VarId};
use velodrome::VelodromeChecker;
use workloads::GenConfig;

use crate::proc::Server;
use crate::verdict::{consensus, Verdict};

/// Connections the service phases open (one load-generating thread
/// each), and the server's worker threads.
pub const CONNECTIONS: usize = 2;
/// Every this-many-th service trace carries an injected violation.
pub const VIOLATION_EVERY: usize = 4;
/// Schedule slot one `EVENTS` frame covers in the open loop: a frame
/// carries the events due within it, so batching delays an event's
/// send by at most this much.
pub const FRAME_SLOT_S: f64 = 0.001;

/// Which generator a workload draws its traces from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// The `sunflow` row of Table 1: 16 threads, long-lived transactions
    /// (the retention pattern), a violation injected at 90%.
    Sunflow,
    /// A lock convoy: 8 threads, 1 lock, 64 variables; serializable.
    Convoy,
}

/// On-disk encoding of a trace file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// RAPID text, one event per line.
    Std,
    /// The fixed-record binary format.
    Rbt,
}

impl Format {
    fn ext(self) -> &'static str {
        match self {
            Self::Std => "std",
            Self::Rbt => "rbt",
        }
    }
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Trace generator.
    pub family: Family,
    /// Events of the file `rapid check` and `rapid velodrome` read.
    pub offline_events: usize,
    /// Encoding of the offline (and panel) file.
    pub format: Format,
    /// Events of the file `rapid compare` reads; `None` reuses the
    /// offline file.
    pub panel_events: Option<usize>,
    /// Events of each trace streamed to the service.
    pub serve_trace_events: usize,
    /// Open-loop rate per connection, events per second.
    pub serve_rate: f64,
}

impl Spec {
    /// Events per `EVENTS` frame: one [`FRAME_SLOT_S`] of the schedule.
    pub fn wire_batch(&self) -> usize {
        ((self.serve_rate * FRAME_SLOT_S) as usize).max(1)
    }
}

/// Every workload, in `BENCHMARK.json` order.
pub const SPECS: [Spec; 2] = [
    Spec {
        name: "retention-rbt",
        family: Family::Sunflow,
        offline_events: 600_000,
        format: Format::Rbt,
        // Algorithms 1 and 2 sweep every variable at each `end`; on the
        // 600k-event file the panel would take about a minute.
        panel_events: Some(60_000),
        serve_trace_events: 2_000,
        serve_rate: 30_000.0,
    },
    Spec {
        name: "convoy-std",
        family: Family::Convoy,
        offline_events: 2_000_000,
        format: Format::Std,
        // The panel takes about 2 s on the 2M-event file; a quarter of
        // it gives a run four times the samples of the same shape.
        panel_events: Some(500_000),
        serve_trace_events: 5_000,
        serve_rate: 80_000.0,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// A trace file and the verdict it must get.
#[derive(Debug)]
pub struct TraceFile {
    /// Where it was written.
    pub path: PathBuf,
    /// Events in the file.
    pub len: u64,
    /// Agreed verdict of Velodrome and Algorithm 3, run in memory.
    pub reference: Verdict,
}

/// Boundary in a [`WireTrace`]: `bytes[..end]` carries the first
/// `events` events; the last mark ends with the `END` frame.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    /// Byte offset just past the frame(s).
    pub end: usize,
    /// Events carried up to this offset.
    pub events: u64,
}

/// One service trace, encoded as the frames a client sends.
#[derive(Debug)]
pub struct WireTrace {
    /// `NAMES`/`EVENTS` frames, then `END`.
    pub bytes: Vec<u8>,
    /// Frame boundaries, in order.
    pub marks: Vec<Mark>,
    /// Events in the trace.
    pub events: u64,
    /// Offline Algorithm 3's verdict on it.
    pub reference: Verdict,
}

/// Everything a measured run needs, built from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// The workload.
    pub spec: Spec,
    /// The file `rapid check` and `rapid velodrome` read.
    pub offline: TraceFile,
    /// The file `rapid compare` reads (may be the offline file).
    pub panel: TraceFile,
    /// Service traces, one list per connection.
    pub wire: Vec<Vec<WireTrace>>,
    /// The running `rapid serve`.
    pub server: Server,
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates one trace of `family`. `inject` keeps the profile's own
/// injected violation (Sunflow only).
pub fn generate(family: Family, events: usize, seed: u64, inject: bool) -> Trace {
    let mut source: Box<dyn EventSource> = match family {
        Family::Sunflow => {
            let profile = workloads::table1()
                .into_iter()
                .find(|p| p.name == "sunflow")
                .expect("Table 1 has a sunflow row");
            let violation_at = if inject { profile.cfg.violation_at } else { None };
            let cfg = GenConfig { events, seed, violation_at, ..profile.cfg };
            Box::new(workloads::GenSource::new(&cfg))
        }
        Family::Convoy => {
            let cfg = GenConfig { events, seed, threads: 8, vars: 64, ..GenConfig::default() };
            workloads::shapes::source("convoy", &cfg).expect("convoy is a shape")
        }
    };
    collect_trace(&mut *source).expect("generated traces are well-formed")
}

/// Splices a two-transaction conflict cycle into `trace` a third of the
/// way in: `t1` writes `splice_a`, `t2` reads it and writes `splice_b`,
/// then `t1` reads `splice_b` while its transaction is still open. Both
/// threads are live there (they have events before and after), and the
/// inserted `begin`/`end` pairs only nest when a transaction is already
/// open, so the result stays well-formed and is not serializable.
pub fn splice_violation(trace: &Trace) -> Trace {
    let events = trace.events();
    let at = events.len() / 3;
    let live = |t: ThreadId| {
        events[..at].iter().any(|e| e.thread == t) && events[at..].iter().any(|e| e.thread == t)
    };
    let mut threads = (0..trace.num_threads()).map(ThreadId::from_index).filter(|&t| live(t));
    let (t1, t2) = (
        threads.next().expect("a third of the way in, two threads are live"),
        threads.next().expect("a third of the way in, two threads are live"),
    );
    let mut vars = trace.var_names().clone();
    let a = VarId::from_index(vars.intern("splice_a"));
    let b = VarId::from_index(vars.intern("splice_b"));
    let cycle = [
        Event::new(t1, Op::Begin),
        Event::new(t1, Op::Write(a)),
        Event::new(t2, Op::Begin),
        Event::new(t2, Op::Read(a)),
        Event::new(t2, Op::Write(b)),
        Event::new(t2, Op::End),
        Event::new(t1, Op::Read(b)),
        Event::new(t1, Op::End),
    ];
    let spliced = events[..at].iter().chain(&cycle).chain(&events[at..]).copied().collect();
    Trace::from_parts(spliced, trace.thread_names().clone(), trace.lock_names().clone(), vars)
}

/// The verdict Velodrome and Algorithm 3 agree on, run in memory.
fn reference(what: &str, trace: &Trace) -> Result<Verdict, String> {
    let velodrome = Verdict::of(&mut VelodromeChecker::new(), trace);
    let optimized = Verdict::of(&mut OptimizedChecker::new(), trace);
    consensus(what, velodrome, optimized)
}

/// Writes `trace` to `path` in `format`.
pub fn write_trace(trace: &Trace, path: &Path, format: Format) -> Result<(), String> {
    let io = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let mut out = BufWriter::new(File::create(path).map_err(|e| io(&e))?);
    let mut source = trace.stream();
    match format {
        Format::Std => copy_events(&mut source, &mut out).map_err(|e| io(&e))?,
        Format::Rbt => {
            write_binary(&mut source, &mut out, DEFAULT_CHUNK_EVENTS).map_err(|e| io(&e))?
        }
    };
    // Scratch input: flushed (errors surface), not synced to disk, so
    // set-up time does not depend on the disk's write-back.
    out.flush().map_err(|e| io(&e))
}

fn trace_file(name: &str, trace: &Trace, dir: &Path, format: Format) -> Result<TraceFile, String> {
    let path = dir.join(format!("{name}.{}", format.ext()));
    write_trace(trace, &path, format)?;
    Ok(TraceFile { path, len: trace.len() as u64, reference: reference(name, trace)? })
}

/// Encodes `trace` as client frames: per batch of `batch_events` events
/// the names first used in it, then the events; finally `END`.
pub fn encode(trace: &Trace, reference: Verdict, batch_events: usize) -> WireTrace {
    let mut source = trace.stream();
    let mut batch = EventBatch::with_target(batch_events);
    let (mut threads, mut locks, mut vars) = (0, 0, 0);
    let mut bytes = Vec::new();
    let mut marks = Vec::new();
    let mut payload = Vec::new();
    let mut events = 0u64;
    while source.next_batch(&mut batch).expect("in-memory traces do not fail") > 0 {
        payload.clear();
        let names = source.names();
        threads = wire::encode_new_names(NameKind::Thread, names.threads, threads, &mut payload);
        locks = wire::encode_new_names(NameKind::Lock, names.locks, locks, &mut payload);
        vars = wire::encode_new_names(NameKind::Var, names.vars, vars, &mut payload);
        if !payload.is_empty() {
            put_frame(Kind::Names, &payload, &mut bytes);
        }
        payload.clear();
        wire::encode_events(batch.events(), &mut payload);
        put_frame(Kind::Events, &payload, &mut bytes);
        events += batch.len() as u64;
        marks.push(Mark { end: bytes.len(), events });
    }
    put_frame(Kind::End, &[], &mut bytes);
    marks.push(Mark { end: bytes.len(), events });
    WireTrace { bytes, marks, events, reference }
}

/// The `HELLO` frame a session opens with.
pub fn hello() -> Vec<u8> {
    let mut out = Vec::new();
    put_frame(Kind::Hello, &[protocol::VERSION], &mut out);
    out
}

/// Service traces for `connection`: enough for `events_needed` events,
/// every [`VIOLATION_EVERY`]th (staggered by connection) with a spliced
/// violation, each with offline Algorithm 3's verdict.
pub fn wire_traces(
    spec: &Spec,
    seed: u64,
    connection: usize,
    events_needed: f64,
) -> Vec<WireTrace> {
    let count = (events_needed / spec.serve_trace_events as f64).ceil().max(1.0) as usize;
    (0..count)
        .map(|i| {
            let tag = 0x5E44_0000 + ((connection as u64) << 16) + i as u64;
            let plain = generate(spec.family, spec.serve_trace_events, mix(seed, tag), false);
            let trace = if (connection + i) % VIOLATION_EVERY == VIOLATION_EVERY - 1 {
                splice_violation(&plain)
            } else {
                plain
            };
            let reference = Verdict::of(&mut OptimizedChecker::new(), &trace);
            encode(&trace, reference, spec.wire_batch())
        })
        .collect()
}

/// Set-up: generates and writes every input of `spec` from `seed`,
/// computes the reference verdicts and starts the server. `serve_secs`
/// sizes the service traces for an open-loop phase that long.
pub fn setup(
    spec: Spec,
    seed: u64,
    dir: &Path,
    rapid: &Path,
    serve_secs: f64,
) -> Result<Inputs, String> {
    let offline_trace = generate(spec.family, spec.offline_events, mix(seed, 1), true);
    let offline = trace_file("offline", &offline_trace, dir, spec.format)?;
    drop(offline_trace);
    let panel = match spec.panel_events {
        None => TraceFile { path: offline.path.clone(), ..offline },
        Some(events) => {
            let trace = generate(spec.family, events, mix(seed, 2), true);
            trace_file("panel", &trace, dir, spec.format)?
        }
    };
    // Headroom: the open loop stops starting traces at the deadline.
    let events_needed = spec.serve_rate * serve_secs * 1.2;
    let wire = (0..CONNECTIONS).map(|c| wire_traces(&spec, seed, c, events_needed)).collect();
    let server = Server::start(rapid, CONNECTIONS, dir)?;
    Ok(Inputs { spec, offline, panel, wire, server })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aerodrome::basic::BasicChecker;
    use aerodrome::readopt::ReadOptChecker;
    use serve::protocol::FrameBuf;

    #[test]
    fn spliced_traces_are_well_formed_violations_for_every_checker() {
        for family in [Family::Sunflow, Family::Convoy] {
            let plain = generate(family, 3_000, 7, false);
            assert_eq!(Verdict::of(&mut OptimizedChecker::new(), &plain).violation, None);
            let spliced = splice_violation(&plain);
            assert_eq!(spliced.len(), plain.len() + 8);
            tracelog::validate(&spliced).expect("spliced trace is well-formed");
            let expected = Verdict::of(&mut OptimizedChecker::new(), &spliced);
            assert!(expected.violation.is_some(), "{family:?}: no violation");
            for (name, got) in [
                ("basic", Verdict::of(&mut BasicChecker::new(), &spliced)),
                ("readopt", Verdict::of(&mut ReadOptChecker::new(), &spliced)),
                ("velodrome", Verdict::of(&mut VelodromeChecker::new(), &spliced)),
            ] {
                assert_eq!(got, expected, "{family:?}: {name} disagrees");
            }
        }
    }

    #[test]
    fn generation_is_a_function_of_the_seed() {
        let a = generate(Family::Convoy, 2_000, 11, false);
        let b = generate(Family::Convoy, 2_000, 11, false);
        let c = generate(Family::Convoy, 2_000, 12, false);
        assert_eq!(a.events(), b.events());
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn encoded_traces_decode_to_the_same_frames_and_events() {
        let trace = generate(Family::Convoy, 2_000, 3, false);
        let wire = encode(&trace, Verdict::from_violation(None, trace.len() as u64), 512);
        assert_eq!(wire.events, trace.len() as u64);
        let mut frames = FrameBuf::new();
        frames.extend(&wire.bytes);
        let (mut events, mut last) = (0, None);
        while let Some((kind, payload)) = frames.next_frame().unwrap() {
            if kind == Kind::Events {
                events += payload.len() / wire::EVENT_RECORD_BYTES;
            }
            last = Some(kind);
        }
        assert_eq!(events as u64, wire.events);
        assert_eq!(last, Some(Kind::End));
        assert_eq!(wire.marks.last().unwrap().end, wire.bytes.len());
    }
}
