//! Measurement harness shared by the table benches and the `rapid` CLI.
//!
//! The paper's Tables 1 and 2 report, per benchmark: trace
//! characteristics (events/threads/locks/variables/transactions), whether
//! the trace is atomic, the wall time of Velodrome and AeroDrome on the
//! same logged trace (with a 10-hour timeout) and the speed-up. This
//! module reproduces that protocol on the scaled workload profiles:
//! generate the trace once, run both checkers on the *same* trace with a
//! wall-clock budget, and print rows in the paper's format next to the
//! published numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod regress;

use std::time::{Duration, Instant};

use aerodrome::optimized::OptimizedChecker;
use aerodrome::Checker;
use tracelog::stream::EventSource;
use tracelog::{MetaInfo, SourceError, Trace};
use velodrome::{VelodromeChecker, VelodromeStats};
use workloads::{generate, Profile};

/// Outcome of one budgeted checker run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunResult {
    /// Wall-clock seconds spent (= the budget when timed out).
    pub seconds: f64,
    /// Whether the budget was exhausted before the trace ended.
    pub timed_out: bool,
    /// Whether a violation was reported.
    pub violation: bool,
    /// Events processed before stopping.
    pub events_processed: u64,
}

impl RunResult {
    /// Formats like the paper's time columns (`TO` for timeouts).
    #[must_use]
    pub fn time_cell(&self) -> String {
        if self.timed_out {
            "TO".to_owned()
        } else {
            format!("{:.3}", self.seconds)
        }
    }
}

/// Runs `checker` over a streaming source, aborting once `budget` is
/// exhausted (checked every 4096 events so the overhead is negligible).
/// The one event path of the harness: [`run_with_budget`] delegates here
/// through a [`tracelog::TraceSource`].
///
/// # Errors
///
/// Propagates the first source failure.
pub fn run_source_with_budget<S: EventSource + ?Sized>(
    checker: &mut dyn Checker,
    source: &mut S,
    budget: Duration,
) -> Result<RunResult, SourceError> {
    let start = Instant::now();
    let mut violation = false;
    let mut timed_out = false;
    let mut i = 0usize;
    while let Some(e) = source.next_event()? {
        if checker.process(e).is_err() {
            violation = true;
            break;
        }
        if i.is_multiple_of(4096) && start.elapsed() >= budget {
            timed_out = true;
            break;
        }
        i += 1;
    }
    Ok(RunResult {
        seconds: start.elapsed().as_secs_f64(),
        timed_out,
        violation,
        events_processed: checker.events_processed(),
    })
}

/// Runs `checker` over an in-memory trace with a wall-clock budget.
pub fn run_with_budget(checker: &mut dyn Checker, trace: &Trace, budget: Duration) -> RunResult {
    run_source_with_budget(checker, &mut trace.stream(), budget)
        .expect("in-memory sources cannot fail")
}

/// One completed table row: measured numbers plus the published ones.
#[derive(Clone, Debug)]
pub struct TableRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Statistics of the generated (scaled) trace.
    pub info: MetaInfo,
    /// Velodrome result on the generated trace.
    pub velodrome: RunResult,
    /// AeroDrome (optimized) result on the same trace.
    pub aerodrome: RunResult,
    /// Velodrome transaction-graph statistics (for the §5.3 discussion).
    pub graph: VelodromeStats,
    /// The profile (includes the published row).
    pub profile: Profile,
}

impl TableRow {
    /// Measured speed-up; `None` when Velodrome timed out.
    #[must_use]
    pub fn speedup(&self) -> Option<f64> {
        (!self.velodrome.timed_out).then(|| self.velodrome.seconds / self.aerodrome.seconds)
    }

    /// The speed-up column, `> x` for timeouts, as in the paper.
    #[must_use]
    pub fn speedup_cell(&self) -> String {
        match self.speedup() {
            Some(s) => format!("{s:.2}"),
            None => format!("> {:.1}", self.velodrome.seconds / self.aerodrome.seconds),
        }
    }
}

/// Generates the profile's trace and measures both checkers on it.
#[must_use]
pub fn run_profile(profile: &Profile, budget: Duration) -> TableRow {
    let trace = generate(&profile.cfg);
    let info = MetaInfo::of(&trace);

    let mut velo = VelodromeChecker::new();
    let velodrome = run_with_budget(&mut velo, &trace, budget);
    let graph = velo.stats();

    let mut aero = OptimizedChecker::new();
    let aerodrome = run_with_budget(&mut aero, &trace, budget);

    TableRow { name: profile.name, info, velodrome, aerodrome, graph, profile: profile.clone() }
}

/// Renders rows in the layout of Tables 1/2 (columns 1–10), followed by
/// the published times for side-by-side comparison.
#[must_use]
pub fn format_table(title: &str, rows: &[TableRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<14} {:>9} {:>4} {:>5} {:>7} {:>9} {:>7} {:>12} {:>12} {:>9}   {:>18}",
        "Program",
        "Events",
        "Thr",
        "Lks",
        "Vars",
        "Txns",
        "Atomic?",
        "Velodrome(s)",
        "AeroDrome(s)",
        "Speed-up",
        "paper: V/A/speedup"
    );
    for r in rows {
        let paper = &r.profile.row;
        let paper_v = paper.velodrome_s.map_or("TO".to_owned(), |v| {
            format!("{v:.6}").trim_end_matches('0').trim_end_matches('.').to_owned()
        });
        let paper_s = paper.speedup().map_or("> n/a".to_owned(), |s| format!("{s:.2}"));
        let _ = writeln!(
            out,
            "{:<14} {:>9} {:>4} {:>5} {:>7} {:>9} {:>7} {:>12} {:>12} {:>9}   {paper_v}/{}/{paper_s}",
            r.name,
            r.info.events,
            r.info.threads,
            r.info.locks,
            r.info.vars,
            r.info.transactions,
            if r.velodrome.violation || r.aerodrome.violation { "✗" } else { "✓" },
            r.velodrome.time_cell(),
            r.aerodrome.time_cell(),
            r.speedup_cell(),
            paper.aerodrome_s,
        );
    }
    out
}

/// Checks the qualitative claims of the paper against measured rows; the
/// returned list is empty when every claim holds.
///
/// Claims (shape, not absolute numbers):
/// 1. Verdict matches the published `Atomic?` column.
/// 2. Both checkers agree on the verdict unless one timed out.
/// 3. On retention workloads (realistic specs, Table 1 big-speedup rows)
///    AeroDrome is faster than Velodrome.
///
/// Every claim needs a finished AeroDrome run, so a table where none
/// finished (say, a zero budget) is itself reported as a problem rather
/// than passing vacuously.
#[must_use]
pub fn check_shape(rows: &[TableRow]) -> Vec<String> {
    let mut problems = Vec::new();
    if rows.iter().all(|r| r.aerodrome.timed_out) {
        problems.push("no AeroDrome run finished within the budget: nothing was checked".into());
    }
    for r in rows {
        let measured_violation = r.aerodrome.violation;
        if !r.aerodrome.timed_out && measured_violation == r.profile.row.atomic {
            problems.push(format!(
                "{}: measured verdict (violation={measured_violation}) contradicts the published Atomic? column",
                r.name
            ));
        }
        if !r.velodrome.timed_out
            && !r.aerodrome.timed_out
            && r.velodrome.violation != r.aerodrome.violation
        {
            problems.push(format!("{}: checkers disagree on the verdict", r.name));
        }
        // Timing claims only make sense above the noise floor; the paper
        // itself shows hedc (9.8 K events) at a 1.16× wash.
        let above_noise = r.velodrome.timed_out || r.velodrome.seconds >= 0.1;
        if r.profile.cfg.retention && !r.aerodrome.timed_out && above_noise {
            let ok = r.velodrome.timed_out || r.velodrome.seconds > r.aerodrome.seconds;
            if !ok {
                problems.push(format!(
                    "{}: expected AeroDrome to win on a retention workload (V={:.3}s A={:.3}s)",
                    r.name, r.velodrome.seconds, r.aerodrome.seconds
                ));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::GenConfig;

    fn tiny_profile() -> Profile {
        let mut p = workloads::table1().into_iter().find(|p| p.name == "hedc").unwrap();
        p.cfg = GenConfig { events: 2_000, ..p.cfg };
        p
    }

    #[test]
    fn run_profile_produces_consistent_row() {
        let row = run_profile(&tiny_profile(), Duration::from_secs(5));
        assert!(row.aerodrome.violation, "hedc profile injects a violation");
        assert!(row.velodrome.violation);
        assert!(!row.aerodrome.timed_out);
        assert!(row.speedup().is_some());
        assert!(check_shape(&[row]).is_empty());
    }

    #[test]
    fn shape_check_fails_when_no_aerodrome_run_finished() {
        let row = run_profile(&tiny_profile(), Duration::ZERO);
        assert!(row.aerodrome.timed_out && row.velodrome.timed_out);
        let problems = check_shape(&[row]);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("no AeroDrome run finished"), "{problems:?}");
        assert!(!check_shape(&[]).is_empty(), "an empty table checks nothing");
    }

    #[test]
    fn budget_zero_times_out_immediately() {
        let trace =
            generate(&GenConfig { events: 100_000, violation_at: None, ..GenConfig::default() });
        let mut c = OptimizedChecker::new();
        let r = run_with_budget(&mut c, &trace, Duration::ZERO);
        assert!(r.timed_out);
        assert!(!r.violation);
        assert!(r.events_processed < 100_000);
        assert_eq!(r.time_cell(), "TO");
    }

    #[test]
    fn source_and_trace_drivers_agree() {
        let cfg = GenConfig { events: 5_000, violation_at: Some(0.5), ..GenConfig::default() };
        let trace = generate(&cfg);
        let budget = Duration::from_secs(30);
        let mut batch_checker = OptimizedChecker::new();
        let batch = run_with_budget(&mut batch_checker, &trace, budget);
        let mut stream_checker = OptimizedChecker::new();
        let streamed = run_source_with_budget(
            &mut stream_checker,
            &mut workloads::GenSource::new(&cfg),
            budget,
        )
        .unwrap();
        assert_eq!(batch.violation, streamed.violation);
        assert_eq!(batch.events_processed, streamed.events_processed);
    }

    #[test]
    fn table_formatting_contains_all_rows() {
        let row = run_profile(&tiny_profile(), Duration::from_secs(5));
        let text = format_table("Table 1", &[row]);
        assert!(text.contains("hedc"));
        assert!(text.contains("Speed-up"));
    }
}
