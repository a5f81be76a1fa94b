//! The resident multi-trace runtime: one process, many traces, zero
//! steady-state construction.
//!
//! [`super::par`] parallelises *within* one trace (one ingest pass
//! fanned out to N checkers); this module parallelises *across* traces.
//! A [`check_corpus`] call discovers a corpus of `.std` / `.rbt` logs
//! (directory walk or manifest, see [`discover`]), dispatches whole
//! traces to at most [`MultiConfig::jobs`] resident workers over a
//! shared queue, and
//! aggregates per-trace verdicts plus corpus-level
//! [`CheckerReport`] totals.
//!
//! The point is the *resident session*: each worker constructs its
//! checker panel, its `.std` reader and its validator **once** and
//! reuses them trace after trace through the session seams added for
//! this runtime — [`aerodrome::Checker::reset`] (clock pools keep their
//! recycled buffers, capped by
//! [`aerodrome::state::DEFAULT_RETAINED_CLOCK_BYTES`]),
//! [`StdReader::reset`] (warm interner and carry buffers) and
//! [`Validator::reset`]. Once a worker is warm, checking the next trace
//! performs zero clock heap allocations — the within-trace invariant of
//! `tests/pool_alloc.rs`, lifted across traces (asserted in
//! `tests/session_reuse.rs`). Verdicts and per-trace report counters
//! are bit-identical to constructing a fresh checker per trace.
//!
//! Scheduling follows the one-dispatcher/worker-owned-state shape of
//! McKenney's parallel-programming playbook: traces are claimed off one
//! atomic cursor (dynamic load balancing — trace sizes vary wildly),
//! every worker owns its sessions outright, and nothing is shared but
//! the read-only path list.
//!
//! # Examples
//!
//! ```no_run
//! use aerodrome_suite::pipeline::multi::{check_corpus, discover, MultiConfig};
//! use aerodrome_suite::pipeline::par::standard_checkers;
//!
//! let paths = discover("corpus/".as_ref())?;
//! let report = check_corpus(&paths, standard_checkers, &MultiConfig::default());
//! for trace in &report.traces {
//!     println!("{}: {} events", trace.path.display(), trace.events);
//! }
//! assert_eq!(report.traces.len(), paths.len());
//! # Ok::<(), String>(())
//! ```

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use aerodrome::{CheckerReport, Outcome, Violation};
use tracelog::binfmt::{sniff_magic, MmapSource};
use tracelog::stream::{EventBatch, StdReader, DEFAULT_BATCH_EVENTS};
use tracelog::{EventSource, Validator};

use super::par::{CheckerRun, SendChecker};

/// Tuning knobs of the corpus scheduler.
#[derive(Clone, Debug)]
pub struct MultiConfig {
    /// Resident workers; `0` (the default) means one per available CPU,
    /// capped at the corpus size.
    pub jobs: usize,
    /// Events per [`EventBatch`] refill (default
    /// [`DEFAULT_BATCH_EVENTS`]).
    pub batch_events: usize,
    /// Run the online well-formedness validator per trace (default
    /// `true`, matching the single-trace pipelines).
    pub validate: bool,
}

impl Default for MultiConfig {
    fn default() -> Self {
        Self { jobs: 0, batch_events: DEFAULT_BATCH_EVENTS, validate: true }
    }
}

impl MultiConfig {
    /// Sets the worker count (`0` = one per available CPU).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the per-refill batch size.
    ///
    /// # Panics
    ///
    /// Panics if `events == 0`.
    #[must_use]
    pub fn batch_events(mut self, events: usize) -> Self {
        assert!(events > 0, "batch size must be positive");
        self.batch_events = events;
        self
    }

    /// Enables or disables the per-trace validator.
    #[must_use]
    pub fn validate(mut self, on: bool) -> Self {
        self.validate = on;
        self
    }

    /// The worker count actually used for a corpus of `traces` traces.
    #[must_use]
    pub fn effective_jobs(&self, traces: usize) -> usize {
        let auto = if self.jobs == 0 {
            thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
        } else {
            self.jobs
        };
        auto.min(traces).max(1)
    }
}

/// One trace's end-to-end result out of a corpus run.
#[derive(Clone, Debug)]
pub struct TraceRun {
    /// Position in the discovered corpus (reports are returned in this
    /// order regardless of which worker ran the trace when).
    pub index: usize,
    /// The trace log's path.
    pub path: PathBuf,
    /// Events ingested (on error: the well-formed prefix).
    pub events: u64,
    /// Distinct thread names seen.
    pub threads: usize,
    /// Distinct lock names seen.
    pub locks: usize,
    /// Distinct variable names seen.
    pub vars: usize,
    /// Per-checker verdicts in panel order — bit-identical to running a
    /// fresh checker panel over this trace alone.
    pub runs: Vec<CheckerRun>,
    /// Open/parse/validation failure, with the offending line when known.
    /// The `runs` then cover the prefix before the failure.
    pub error: Option<String>,
    /// Wall time this trace took on its worker.
    pub wall: Duration,
}

impl TraceRun {
    /// Whether any checker reported a violation.
    #[must_use]
    pub fn any_violation(&self) -> bool {
        self.runs.iter().any(|r| r.outcome.is_violation())
    }
}

/// The outcome of [`check_corpus`].
#[derive(Clone, Debug)]
pub struct CorpusReport {
    /// Per-trace results, in discovery order.
    pub traces: Vec<TraceRun>,
    /// Resident workers used.
    pub workers: usize,
    /// End-to-end wall time of the whole corpus.
    pub wall: Duration,
}

impl CorpusReport {
    /// Total events ingested over the corpus.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.traces.iter().map(|t| t.events).sum()
    }

    /// Number of traces on which at least one checker reported a
    /// violation.
    #[must_use]
    pub fn violations(&self) -> usize {
        self.traces.iter().filter(|t| t.any_violation()).count()
    }

    /// Number of traces that failed to ingest (open/parse/validation).
    #[must_use]
    pub fn errors(&self) -> usize {
        self.traces.iter().filter(|t| t.error.is_some()).count()
    }

    /// Corpus-level totals per panel position: per-trace events and
    /// clock-join counters summed, clock-storage counters summed, the
    /// point-in-time gauges (`retained_bytes`, slot counts) taken at
    /// their maximum — the resident footprint high-water mark.
    #[must_use]
    pub fn checker_totals(&self) -> Vec<CheckerReport> {
        let mut totals: Vec<CheckerReport> = Vec::new();
        for trace in &self.traces {
            for (i, run) in trace.runs.iter().enumerate() {
                if totals.len() <= i {
                    totals.push(CheckerReport { name: run.name, ..CheckerReport::default() });
                }
                let t = &mut totals[i];
                t.events += run.report.events;
                t.clock_joins += run.report.clock_joins;
                t.clocks.accumulate(&run.report.clocks);
            }
        }
        totals
    }
}

/// Discovers the traces of a corpus — text `.std` and binary `.rbt`
/// alike.
///
/// * A **directory** is walked recursively; every `*.std` and `*.rbt`
///   file is collected, sorted by path for a deterministic order.
/// * A file named `*.std` or `*.rbt` is a single-trace corpus.
/// * Any **other file** is read as a manifest: one trace path per line
///   (relative paths resolve against the manifest's directory), blank
///   lines and `#` comments skipped, order preserved.
///
/// # Errors
///
/// Reports unreadable paths and empty corpora as display strings.
pub fn discover(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut paths = Vec::new();
    if root.is_dir() {
        walk(root, &mut paths).map_err(|e| format!("{}: {e}", root.display()))?;
        paths.sort();
    } else if root.extension().is_some_and(|e| e == "std" || e == "rbt") {
        if !root.is_file() {
            return Err(format!("{}: no such trace", root.display()));
        }
        paths.push(root.to_path_buf());
    } else {
        let text = std::fs::read_to_string(root).map_err(|e| format!("{}: {e}", root.display()))?;
        let base = root.parent().unwrap_or_else(|| Path::new("."));
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let p = Path::new(line);
            paths.push(if p.is_absolute() { p.to_path_buf() } else { base.join(p) });
        }
    }
    if paths.is_empty() {
        return Err(format!("{}: no .std or .rbt traces found", root.display()));
    }
    Ok(paths)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "std" || e == "rbt") {
            out.push(path);
        }
    }
    Ok(())
}

/// One trace's ingest-and-feed loop, shared by the text and binary
/// paths: drains `source` batch by batch, validating (when a validator
/// is supplied) and feeding the panel, matching `par::check_all`
/// semantics exactly — the whole log is drained (the run certifies it)
/// and each checker stops individually at its first violation. Returns
/// the events ingested; failures land in `error` with the source's own
/// position attribution (`line N` / `record N (chunk C)`).
fn ingest_one<S: EventSource + ?Sized>(
    source: &mut S,
    checkers: &mut [SendChecker],
    violations: &mut [Option<Violation>],
    batch: &mut EventBatch,
    mut validator: Option<&mut Validator>,
    path: &Path,
    error: &mut Option<String>,
) -> u64 {
    let mut events = 0u64;
    loop {
        let refill = source.next_batch(batch);
        if let Some(v) = validator.as_deref_mut() {
            if let Some(e) = super::validate_batch(v, batch) {
                let pos =
                    source.position_of(e.event()).map_or_else(String::new, |p| format!("{p}: "));
                *error = Some(format!("{}: {pos}not well-formed: {e}", path.display()));
            }
        }
        super::feed_panel(checkers, violations, batch, |_, _| {});
        events += batch.len() as u64;
        let exhausted = match refill {
            // A validation failure inside the batch precedes a source
            // failure past its end; keep the earlier one.
            Err(e) if error.is_none() => {
                *error = Some(format!("{}: {e}", path.display()));
                true
            }
            Err(_) => true,
            Ok(n) => n == 0 || error.is_some(),
        };
        if exhausted {
            return events;
        }
    }
}

/// One worker's resident state: the checker panel, the reader and the
/// validator, constructed once and reset between traces.
struct Session {
    checkers: Vec<SendChecker>,
    reader: Option<StdReader<BufReader<File>>>,
    batch: EventBatch,
    validator: Validator,
    validate: bool,
}

impl Session {
    fn run_trace(&mut self, index: usize, path: &Path) -> TraceRun {
        let started = Instant::now();
        // Reset *before* running (not after): idempotent, and it holds
        // even when the previous trace aborted mid-ingest on an error.
        for checker in &mut self.checkers {
            checker.reset();
        }
        self.validator.reset();
        let mut violations: Vec<Option<Violation>> = vec![None; self.checkers.len()];
        let mut events = 0u64;
        let mut error = None;
        let (mut threads, mut locks, mut vars) = (0, 0, 0);

        let file = match File::open(path) {
            Ok(f) => Some(f),
            Err(e) => {
                error = Some(format!("{}: {e}", path.display()));
                None
            }
        };
        if let Some(mut file) = file {
            // Sniff the encoding by magic (not extension), as every
            // ingesting subcommand does.
            let binary = match sniff_magic(&mut file) {
                Ok(b) => b,
                Err(e) => {
                    error = Some(format!("{}: {e}", path.display()));
                    false
                }
            };
            if error.is_some() {
                // fall through with the open/sniff error recorded
            } else if binary {
                // Binary traces get a per-trace reader: opening one is a
                // footer read, a name preload and an mmap — there is no
                // warm parser state worth keeping resident.
                drop(file);
                match MmapSource::open(path) {
                    Ok(mut source) => {
                        events = ingest_one(
                            &mut source,
                            &mut self.checkers,
                            &mut violations,
                            &mut self.batch,
                            self.validate.then_some(&mut self.validator),
                            path,
                            &mut error,
                        );
                        let names = source.names();
                        (threads, locks, vars) =
                            (names.threads.len(), names.locks.len(), names.vars.len());
                    }
                    Err(e) => error = Some(format!("{}: {e}", path.display())),
                }
            } else {
                // The reader session survives from the previous trace:
                // reset keeps the interner and line-buffer capacity warm.
                let reader = match self.reader.take() {
                    Some(mut r) => {
                        r.reset(BufReader::new(file));
                        r
                    }
                    None => StdReader::new(BufReader::new(file)),
                };
                self.reader = Some(reader);
                let reader = self.reader.as_mut().expect("reader installed above");
                events = ingest_one(
                    reader,
                    &mut self.checkers,
                    &mut violations,
                    &mut self.batch,
                    self.validate.then_some(&mut self.validator),
                    path,
                    &mut error,
                );
                // Name counts belong to THIS trace's ingest only: when
                // the open failed, the resident reader still holds the
                // previous trace's warm tables and must not leak into
                // this report.
                let names = reader.names();
                (threads, locks, vars) = (names.threads.len(), names.locks.len(), names.vars.len());
            }
        }

        let runs = self
            .checkers
            .iter()
            .zip(violations)
            .map(|(checker, violation)| CheckerRun {
                name: checker.name(),
                outcome: violation.map_or(Outcome::Serializable, Outcome::Violation),
                report: checker.report(),
            })
            .collect();
        TraceRun {
            index,
            path: path.to_path_buf(),
            events,
            threads,
            locks,
            vars,
            runs,
            error,
            wall: started.elapsed(),
        }
    }
}

/// Checks every trace of `paths` on a pool of resident workers.
///
/// `make_panel` is called once per worker to construct its checker
/// panel (e.g. [`super::par::standard_checkers`]); the panel is then
/// reused for every trace the worker claims, reset between traces.
/// Per-trace failures (unreadable file, parse error, ill-formed events)
/// are recorded in the corresponding [`TraceRun::error`] — they never
/// abort the rest of the corpus.
///
/// # Panics
///
/// Propagates a panic of a checker on a worker thread.
pub fn check_corpus<F>(paths: &[PathBuf], make_panel: F, config: &MultiConfig) -> CorpusReport
where
    F: Fn() -> Vec<SendChecker> + Sync,
{
    let started = Instant::now();
    let workers = config.effective_jobs(paths.len());
    let cursor = AtomicUsize::new(0);
    let mut traces: Vec<TraceRun> = Vec::with_capacity(paths.len());
    thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut session = Session {
                        checkers: make_panel(),
                        reader: None,
                        batch: EventBatch::with_target(config.batch_events),
                        validator: Validator::new(),
                        validate: config.validate,
                    };
                    let mut out = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(path) = paths.get(index) else { break };
                        out.push(session.run_trace(index, path));
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(mut runs) => traces.append(&mut runs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    traces.sort_by_key(|t| t.index);
    CorpusReport { traces, workers, wall: started.elapsed() }
}
