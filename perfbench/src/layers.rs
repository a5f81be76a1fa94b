//! The traced run: times calls into each layer's public functions from
//! outside, keeps the spans in memory, and turns them into per-layer
//! metrics. Nothing here runs inside the program under test.

use std::cell::RefCell;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aerodrome::basic::BasicChecker;
use aerodrome::optimized::OptimizedChecker;
use aerodrome::readopt::ReadOptChecker;
use aerodrome::{Checker, CheckerReport, Violation};
use aerodrome_suite::pipeline::par::{self, ParConfig, SendChecker};
use serve::protocol::{decode_summary, FrameBuf, Kind};
use serve::session::Session;
use tracelog::binfmt::{AnySource, MmapSource};
use tracelog::stream::{
    collect_trace, EventBatch, EventSource, SourceError, SourceNames, StdReader, Validated,
    DEFAULT_BATCH_EVENTS,
};
use tracelog::{Event, EventId, Op};
use velodrome::VelodromeChecker;

use crate::serve_load;
use crate::stats::{median, percentile, supported_tail};
use crate::verdict::{check, Verdict};
use crate::workload::{self, Format, Inputs};
use crate::Report;

/// One timed interval at a layer boundary.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Start and end, ns since the recorder was created.
    pub start_ns: u64,
    /// See [`Span::start_ns`].
    pub end_ns: u64,
}

/// Spans of one pass, kept in memory until the run ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn exit(&mut self) {
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Summed duration of every `name` span.
    fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum()
    }

    /// Summed self time of every `name` span: its duration minus the
    /// part its child spans cover.
    fn self_ns(&self, name: &str) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == name))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        self.total_ns(name).saturating_sub(children)
    }
}

type Shared = Rc<RefCell<Recorder>>;

/// An [`EventSource`] whose batch refills are recorded as `name` spans.
struct Spanned<S> {
    inner: S,
    rec: Shared,
    name: &'static str,
}

impl<S: EventSource> EventSource for Spanned<S> {
    fn next_event(&mut self) -> Result<Option<Event>, SourceError> {
        self.inner.next_event()
    }

    fn next_batch(&mut self, batch: &mut EventBatch) -> Result<usize, SourceError> {
        self.rec.borrow_mut().enter(self.name);
        let n = self.inner.next_batch(batch);
        self.rec.borrow_mut().exit();
        n
    }

    fn names(&self) -> SourceNames<'_> {
        self.inner.names()
    }

    fn size_hint(&self) -> Option<u64> {
        self.inner.size_hint()
    }

    fn position_of(&self, event: EventId) -> Option<String> {
        self.inner.position_of(event)
    }
}

fn spanned<S>(inner: S, rec: &Shared, name: &'static str) -> Spanned<S> {
    Spanned { inner, rec: Rc::clone(rec), name }
}

/// Event kinds, in metric-name order.
const KINDS: [&str; 8] = ["acq", "rel", "read", "write", "begin", "end", "fork", "join"];

fn kind(op: Op) -> usize {
    match op {
        Op::Acquire(_) => 0,
        Op::Release(_) => 1,
        Op::Read(_) => 2,
        Op::Write(_) => 3,
        Op::Begin => 4,
        Op::End => 5,
        Op::Fork(_) => 6,
        Op::Join(_) => 7,
    }
}

/// Every this-many-th event of each kind is timed on its own.
const SAMPLE_EVERY: u64 = 16;

/// Per-kind event counts and sampled rule-handler time.
#[derive(Debug, Default)]
struct KindProfile {
    count: [u64; 8],
    sampled: [u64; 8],
    sampled_ns: [u64; 8],
}

impl KindProfile {
    /// Feeds `event` to `checker`, timing it when its kind is due for a
    /// sample. Stratified by kind, so the first event of every kind —
    /// even the handful of forks and joins — is always timed.
    fn process(&mut self, checker: &mut dyn Checker, event: Event) -> Result<(), Violation> {
        let k = kind(event.op);
        self.count[k] += 1;
        if !(self.count[k] - 1).is_multiple_of(SAMPLE_EVERY) {
            return checker.process(event);
        }
        let t = Instant::now();
        let r = checker.process(event);
        self.sampled_ns[k] += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.sampled[k] += 1;
        r
    }

    /// Each kind's estimated share of rule-handler time.
    fn shares(&self) -> [f64; 8] {
        let est: Vec<f64> = (0..8)
            .map(|k| match self.sampled[k] {
                0 => 0.0,
                n => self.sampled_ns[k] as f64 * self.count[k] as f64 / n as f64,
            })
            .collect();
        let total: f64 = est.iter().sum::<f64>().max(1.0);
        std::array::from_fn(|k| est[k] / total)
    }
}

/// Runs `checker` over `source` batch by batch, each batch's checking a
/// `span` span. Returns the verdict.
fn traced_check(
    source: &mut dyn EventSource,
    checker: &mut dyn Checker,
    rec: &Shared,
    span: &'static str,
    profile: &mut KindProfile,
) -> Result<Verdict, String> {
    let mut batch = EventBatch::with_target(DEFAULT_BATCH_EVENTS);
    let mut seen = 0u64;
    while source.next_batch(&mut batch).map_err(|e| e.to_string())? > 0 {
        rec.borrow_mut().enter(span);
        for &event in batch.events() {
            seen += 1;
            if let Err(v) = profile.process(checker, event) {
                rec.borrow_mut().exit();
                return Ok(Verdict::from_violation(Some(v.event.index() as u64), seen));
            }
        }
        rec.borrow_mut().exit();
    }
    Ok(Verdict::from_violation(None, seen))
}

/// The same pipeline with no spans and no sampling: the untraced twin
/// the tracing overhead is measured against.
fn plain_check(source: &mut dyn EventSource, checker: &mut dyn Checker) -> Result<Verdict, String> {
    let mut batch = EventBatch::with_target(DEFAULT_BATCH_EVENTS);
    let mut seen = 0u64;
    while source.next_batch(&mut batch).map_err(|e| e.to_string())? > 0 {
        for &event in batch.events() {
            seen += 1;
            if let Err(v) = checker.process(event) {
                return Ok(Verdict::from_violation(Some(v.event.index() as u64), seen));
            }
        }
    }
    Ok(Verdict::from_violation(None, seen))
}

/// Drains `source`, returning the events it yielded.
fn drain(source: &mut dyn EventSource) -> Result<u64, String> {
    let mut batch = EventBatch::with_target(DEFAULT_BATCH_EVENTS);
    let mut n = 0u64;
    loop {
        match source.next_batch(&mut batch).map_err(|e| e.to_string())? {
            0 => return Ok(n),
            k => n += k as u64,
        }
    }
}

fn open_std(path: &Path) -> Result<StdReader<BufReader<File>>, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(StdReader::new(BufReader::new(file)))
}

fn open_rbt(path: &Path) -> Result<MmapSource, String> {
    MmapSource::open(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn open_any(path: &Path) -> Result<AnySource, String> {
    AnySource::open(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// A [`SendChecker`] that adds a sampled estimate of its busy time to
/// a shared counter (one in [`SAMPLE_EVERY`] calls timed, scaled up).
struct Busy {
    inner: SendChecker,
    calls: u64,
    busy_ns: Arc<AtomicU64>,
}

impl Checker for Busy {
    fn process(&mut self, event: Event) -> Result<(), Violation> {
        self.calls += 1;
        if self.calls % SAMPLE_EVERY != 1 {
            return self.inner.process(event);
        }
        let t = Instant::now();
        let r = self.inner.process(event);
        let scaled = t.elapsed().as_nanos() * u128::from(SAMPLE_EVERY);
        // A statistic, read after the workers are joined.
        self.busy_ns.fetch_add(u64::try_from(scaled).unwrap_or(u64::MAX), Ordering::Relaxed);
        r
    }

    fn events_processed(&self) -> u64 {
        self.inner.events_processed()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn report(&self) -> CheckerReport {
        self.inner.report()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Results of the traced run.
pub struct Traced {
    /// Per-layer metrics, in `BENCHMARK.json` order.
    pub report: Report,
    /// Every span recorded, by pass.
    pub spans: Vec<(&'static str, Recorder)>,
}

/// The traced run over `inputs`; `secs` bounds its service phase and
/// the overhead repetitions.
pub fn run(inputs: &Inputs, dir: &Path, secs: f64) -> Result<Traced, String> {
    let mut report = Report::default();
    let mut spans = Vec::new();
    let offline = &inputs.offline;

    // Both encodings of the offline trace, for the two decoders.
    let offline_trace = collect_trace(&mut open_any(&offline.path)?).map_err(|e| e.to_string())?;
    let (std_path, rbt_path) = match inputs.spec.format {
        Format::Std => (offline.path.clone(), dir.join("offline-copy.rbt")),
        Format::Rbt => (dir.join("offline-copy.std"), offline.path.clone()),
    };
    let copy = if inputs.spec.format == Format::Std { &rbt_path } else { &std_path };
    let other = if inputs.spec.format == Format::Std { Format::Rbt } else { Format::Std };
    workload::write_trace(&offline_trace, copy, other)?;
    let len = offline.len as f64;

    // Ingest: text decode, binary decode, validation (self time of the
    // validating wrapper around the binary decoder).
    let rec: Shared = Rc::new(RefCell::new(Recorder::new()));
    drain(&mut spanned(open_std(&std_path)?, &rec, "tracelog.stream"))?;
    drain(&mut spanned(open_rbt(&rbt_path)?, &rec, "tracelog.binfmt"))?;
    let inner = spanned(open_rbt(&rbt_path)?, &rec, "tracelog.binfmt.validated");
    drain(&mut spanned(Validated::new(inner), &rec, "tracelog.validate"))?;
    {
        let r = rec.borrow();
        report.push(
            "tracelog.stream.ns_per_event",
            r.total_ns("tracelog.stream") as f64 / len,
            "ns",
        );
        report.push(
            "tracelog.binfmt.ns_per_event",
            r.total_ns("tracelog.binfmt") as f64 / len,
            "ns",
        );
        report.push(
            "tracelog.validate.ns_per_event",
            r.self_ns("tracelog.validate") as f64 / len,
            "ns",
        );
    }
    spans.push(("ingest", take(rec)));

    // Rule handlers and clock operations: Algorithm 3 on the offline
    // trace, Algorithms 2 and 1 on the panel trace (their `end` sweep
    // makes the long retention trace infeasible).
    let panel_trace = if inputs.spec.panel_events.is_some() {
        collect_trace(&mut open_any(&inputs.panel.path)?).map_err(|e| e.to_string())?
    } else {
        offline_trace.clone()
    };
    let (offline_ref, panel_ref) = (offline.reference, inputs.panel.reference);
    let algorithms = [
        ("optimized", "aerodrome.optimized", Box::new(OptimizedChecker::new()) as Box<dyn Checker>),
        ("readopt", "aerodrome.readopt", Box::new(ReadOptChecker::new())),
        ("basic", "aerodrome.basic", Box::new(BasicChecker::new())),
    ];
    let mut kinds = Report::default();
    let mut clocks = Report::default();
    for (alg, span, mut checker) in algorithms {
        let (trace, reference) = match alg {
            "optimized" => (&offline_trace, offline_ref),
            _ => (&panel_trace, panel_ref),
        };
        let rec: Shared = Rc::new(RefCell::new(Recorder::new()));
        let mut profile = KindProfile::default();
        let got = traced_check(&mut trace.stream(), &mut *checker, &rec, span, &mut profile)?;
        report.verify(check(span, reference, got));
        let events = got.events as f64;
        report.push(
            &format!("aerodrome.{alg}.ns_per_event"),
            rec.borrow().total_ns(span) as f64 / events,
            "ns",
        );
        for (k, share) in profile.shares().iter().enumerate() {
            kinds.push(&format!("aerodrome.{alg}.{}.self_share", KINDS[k]), *share, "ratio");
            kinds.push(
                &format!("aerodrome.{alg}.{}.count", KINDS[k]),
                profile.count[k] as f64,
                "count",
            );
        }
        let r = checker.report();
        clocks.push(&format!("vc.{alg}.joins_per_event"), r.clock_joins as f64 / events, "count");
        clocks.push(
            &format!("vc.{alg}.cow_copies_per_event"),
            r.clocks.cow_copies as f64 / events,
            "count",
        );
        clocks.push(
            &format!("vc.{alg}.shares_per_event"),
            r.clocks.shares as f64 / events,
            "count",
        );
        clocks.push(&format!("vc.{alg}.heap_allocs"), r.clocks.heap_allocs() as f64, "count");
        clocks.push(&format!("vc.{alg}.retained_bytes"), r.clocks.retained_bytes as f64, "B");
        spans.push((span, take(rec)));
    }
    report.extend(kinds);
    report.extend(clocks);

    // Velodrome and its transaction graph, on the offline trace.
    let rec: Shared = Rc::new(RefCell::new(Recorder::new()));
    let mut velodrome = VelodromeChecker::new();
    let got = traced_check(
        &mut offline_trace.stream(),
        &mut velodrome,
        &rec,
        "velodrome",
        &mut KindProfile::default(),
    )?;
    report.verify(check("velodrome", offline.reference, got));
    let stats = velodrome.stats();
    let events = got.events as f64;
    report.push("velodrome.ns_per_event", rec.borrow().total_ns("velodrome") as f64 / events, "ns");
    report.push("velodrome.dfs_visits_per_event", stats.dfs_visits as f64 / events, "count");
    report.push("velodrome.cycle_checks", stats.cycle_checks as f64, "count");
    report.push("velodrome.peak_live_nodes", stats.peak_live_nodes as f64, "count");
    report.push("velodrome.edges_created", stats.edges_created as f64, "count");
    spans.push(("velodrome", take(rec)));

    // The checker panel: one ingest pass fanned out to two workers.
    let rec: Shared = Rc::new(RefCell::new(Recorder::new()));
    let busy: Vec<Arc<AtomicU64>> = (0..4).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let checkers: Vec<SendChecker> = par::standard_checkers()
        .into_iter()
        .zip(&busy)
        .map(|(inner, b)| Box::new(Busy { inner, calls: 0, busy_ns: Arc::clone(b) }) as SendChecker)
        .collect();
    let workers = 2;
    let started = Instant::now();
    let mut source = spanned(open_any(&inputs.panel.path)?, &rec, "pipeline.par.ingest");
    let panel = par::check_all(&mut source, checkers, &ParConfig::default().jobs(workers))
        .map_err(|e| e.to_string())?;
    let wall = started.elapsed().as_secs_f64();
    drop(source);
    for run in &panel.runs {
        let got = Verdict::from_violation(
            run.outcome.violation().map(|v| v.event.index() as u64),
            inputs.panel.len,
        );
        report.verify(check(run.name, inputs.panel.reference, got));
    }
    let busy_s: Vec<f64> = busy.iter().map(|b| b.load(Ordering::Relaxed) as f64 / 1e9).collect();
    // `check_all` deals the panel to workers round-robin.
    let worker_s: Vec<f64> =
        (0..workers).map(|w| busy_s.iter().skip(w).step_by(workers).sum()).collect();
    let slowest = busy_s.iter().copied().fold(0.0, f64::max);
    report.push(
        "pipeline.par.ingest_s",
        rec.borrow().total_ns("pipeline.par.ingest") as f64 / 1e9,
        "s",
    );
    report.push(
        "pipeline.par.worker_busy_max_s",
        worker_s.iter().copied().fold(0.0, f64::max),
        "s",
    );
    report.push(
        "pipeline.par.worker_busy_min_s",
        worker_s.iter().copied().fold(f64::INFINITY, f64::min),
        "s",
    );
    report.push("pipeline.par.straggler_share", slowest / wall, "ratio");
    spans.push(("pipeline.par", take(rec)));

    // The service layers, in process, over connection 0's recorded
    // byte stream: frame decoding alone, then the session state machine.
    let wire = &inputs.wire[0];
    let events: u64 = wire.iter().map(|t| t.events).sum();
    let started = Instant::now();
    let mut frames = FrameBuf::new();
    let mut decoded = 0usize;
    for trace in wire {
        for chunk in trace.bytes.chunks(64 << 10) {
            frames.extend(chunk);
            while frames.next_frame().map_err(|e| e.to_string())?.is_some() {
                decoded += 1;
            }
        }
    }
    std::hint::black_box(decoded);
    report.push("serve.protocol.ns_per_event", ns(started.elapsed()) / events as f64, "ns");

    let mut session = Session::new(par::standard_checkers(), true, inputs.spec.wire_batch());
    let mut out = Vec::new();
    let mut frames = FrameBuf::new();
    frames.extend(&workload::hello());
    let mut busy = Duration::ZERO;
    let mut ends = Vec::new();
    for trace in std::iter::once(None).chain(wire.iter().map(Some)) {
        if let Some(trace) = trace {
            frames.extend(&trace.bytes);
        }
        while let Some((kind, payload)) = frames.next_frame().map_err(|e| e.to_string())? {
            let t = Instant::now();
            session.handle_frame(kind, payload, &mut out);
            let took = t.elapsed();
            busy += took;
            if kind == Kind::End {
                ends.push(took.as_secs_f64() * 1e6);
            }
        }
        if let Some(trace) = trace {
            report.verify(
                summary_verdict(&out, trace.events)
                    .and_then(|got| check("session", trace.reference, got)),
            );
        }
        out.clear();
    }
    report.push("serve.session.ns_per_event", ns(busy) / events as f64, "ns");
    report.push("serve.session.reset_us", median(&ends).unwrap_or(0.0), "us");

    // The server and the client, over the socket: a short open loop.
    let open_secs = secs * crate::OPEN_SHARE;
    let open = serve_load::phase(
        &inputs.server.addr,
        &inputs.wire,
        open_secs,
        Some(inputs.spec.serve_rate),
    );
    report.attempted += open.attempted;
    report.failures.extend(open.failures.iter().cloned());
    let latencies = &open.latencies_ms;
    report.push("serve.verdict_p50_ms", percentile(latencies, 50.0).unwrap_or(0.0), "ms");
    report.push("serve.verdict_p90_ms", percentile(latencies, 90.0).unwrap_or(0.0), "ms");
    let tail = supported_tail(latencies);
    report.push("serve.verdict_tail_pct", tail.map_or(0.0, |t| t.percentile), "%");
    report.push("serve.verdict_tail_ms", tail.map_or(0.0, |t| t.value), "ms");
    report.push("serve.verdict_samples", latencies.len() as f64, "count");
    report.push("serve.paced_lag_ms", median(&open.lags_ms).unwrap_or(0.0), "ms");
    report.push(
        "serve.pushes_before_eof_frac",
        open.pushes_before_eof as f64 / open.pushes.max(1) as f64,
        "ratio",
    );
    let stats = open.stats.unwrap_or_default();
    report.push("serve.retained_bytes", stats.retained_bytes as f64, "B");
    report.push("serve.evictions", stats.evictions as f64, "count");

    // Tracing overhead: the file → validate → Algorithm 3 pipeline with
    // and without the spans and sampling above, alternated.
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(secs * 0.3);
    while traced.len() < 3 || Instant::now() < deadline {
        let rec: Shared = Rc::new(RefCell::new(Recorder::new()));
        let t = Instant::now();
        let inner = spanned(open_any(&offline.path)?, &rec, "decode");
        let mut source = spanned(Validated::new(inner), &rec, "validate");
        let got = traced_check(
            &mut source,
            &mut OptimizedChecker::new(),
            &rec,
            "check",
            &mut KindProfile::default(),
        )?;
        traced.push(t.elapsed().as_secs_f64());
        report.verify(check("traced pipeline", offline.reference, got));
        let t = Instant::now();
        let got = plain_check(
            &mut Validated::new(open_any(&offline.path)?),
            &mut OptimizedChecker::new(),
        )?;
        plain.push(t.elapsed().as_secs_f64());
        report.verify(check("untraced pipeline", offline.reference, got));
        if traced.len() >= 25 {
            break;
        }
    }
    let (t, p) = (median(&traced).unwrap_or(0.0), median(&plain).unwrap_or(0.0));
    report.push("trace.overhead_s", t - p, "s");
    report.push("trace.overhead_frac", (t - p) / p.max(1e-9), "ratio");
    Ok(Traced { report, spans })
}

/// The verdict in the `SUMMARY` frame among `out`'s server frames (the
/// Algorithm 3 row; the others are checked by the socket phases).
fn summary_verdict(out: &[u8], events: u64) -> Result<Verdict, String> {
    let mut frames = FrameBuf::new();
    frames.extend(out);
    while let Some((kind, payload)) = frames.next_frame().map_err(|e| e.to_string())? {
        if kind == Kind::Summary {
            let s = decode_summary(payload).map_err(|e| e.to_string())?;
            let run = s.runs.iter().find(|r| r.name == "aerodrome").ok_or("no aerodrome row")?;
            return Ok(Verdict::from_violation(run.violation, events));
        }
    }
    Err("no SUMMARY after END".to_owned())
}

/// The recorder of a finished pass (every source holding it is gone).
fn take(rec: Shared) -> Recorder {
    Rc::try_unwrap(rec).expect("the pass's sources are dropped").into_inner()
}

/// Writes every span as `pass<TAB>name<TAB>parent<TAB>start_ns<TAB>end_ns`.
pub fn write_spans(spans: &[(&'static str, Recorder)], path: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut out = BufWriter::new(File::create(path).map_err(io)?);
    writeln!(out, "pass\tname\tparent\tstart_ns\tend_ns").map_err(io)?;
    for (pass, rec) in spans {
        for s in &rec.spans {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(out, "{pass}\t{}\t{parent}\t{}\t{}", s.name, s.start_ns, s.end_ns)
                .map_err(io)?;
        }
    }
    // Scratch output: flushed (errors surface), not synced to disk.
    out.flush().map_err(io)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_spans() {
        let mut r = Recorder::new();
        r.spans = vec![
            Span { name: "outer", parent: None, start_ns: 0, end_ns: 100 },
            Span { name: "inner", parent: Some(0), start_ns: 10, end_ns: 40 },
            Span { name: "inner", parent: Some(0), start_ns: 50, end_ns: 70 },
            Span { name: "outer", parent: None, start_ns: 200, end_ns: 210 },
        ];
        assert_eq!(r.total_ns("outer"), 110);
        assert_eq!(r.self_ns("outer"), 60);
        assert_eq!(r.self_ns("inner"), 50);
    }

    #[test]
    fn kind_shares_cover_every_sampled_kind() {
        let trace = workload::generate(workload::Family::Convoy, 5_000, 1, false);
        let mut profile = KindProfile::default();
        let mut checker = OptimizedChecker::new();
        for &e in trace.events() {
            profile.process(&mut checker, e).unwrap();
        }
        assert_eq!(profile.count.iter().sum::<u64>(), trace.len() as u64);
        let shares = profile.shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Forks and joins are rare, but the first of each is sampled.
        assert!(profile.sampled[kind(Op::Fork(tracelog::ThreadId::from_index(0)))] > 0);
    }
}
