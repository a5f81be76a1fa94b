//! The repository benchmark. One run generates a workload's inputs from
//! the seed, measures the `rapid` binary from outside (offline checks,
//! the checker panel, the checking service) and checks every verdict
//! against a reference computed by a different checker.
//!
//! ```text
//! bash perfbench/run.sh --workload NAME --seed N --seconds N --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! traced per-layer pass instead. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`. See
//! `perfbench/README.md` for the workloads and metrics.

mod layers;
mod probe;
mod proc;
mod serve_load;
mod stats;
mod sys;
mod verdict;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use probe::{Around, Host, Tally};
use stats::median;
use verdict::{check, parse_panel, parse_single, Verdict};
use workload::{Inputs, Spec};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of `--seconds` for the offline commands; the closed service
/// loop gets the rest.
const OFFLINE_SHARE: f64 = 0.7;
/// How the offline share is split between `check`, `velodrome` and the
/// panel. `check` gets the most: its sub-second runs spread the most.
const OFFLINE_SPLIT: [f64; 3] = [0.4, 0.3, 0.3];
/// Length of the traced run's open loop, as a share of `--seconds`;
/// service traces are generated for an open loop this long.
pub const OPEN_SHARE: f64 = 0.25;
/// Every offline command runs at least this often, whatever its budget.
const MIN_REPS: usize = 3;
/// The closed service loop runs as this many back-to-back rounds, each
/// bracketed by probe passes.
const SERVE_ROUNDS: usize = 12;
/// A single `rapid` run slower than this is killed and counted failed.
const RUN_TIMEOUT: Duration = Duration::from_secs(120);

/// Metrics and the operations behind them.
#[derive(Debug, Default)]
pub struct Report {
    /// `(name, value, unit)`, in output order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted.
    pub attempted: u64,
    /// What went wrong, one entry per failed operation.
    pub failures: Vec<String>,
    /// Each host-normalised metric as measured, before scaling.
    pub unscaled: Vec<(String, f64)>,
    /// One [`sample`] line per measured operation.
    pub samples: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Counts one checked operation.
    pub fn verify(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failures.push(e);
        }
    }

    /// Appends `other`'s metrics and operations.
    pub fn extend(&mut self, other: Self) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.unscaled.extend(other.unscaled);
        self.samples.extend(other.samples);
    }
}

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
                spec = Some(workload::spec(&value).ok_or_else(|| bad(&names.join("|")))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0);
                seconds = Some(s.ok_or_else(|| bad("a positive number of seconds"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some(proc::SPAWN_FLAG) {
        return proc::spawner_main(args.skip(1));
    }
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let rapid = PathBuf::from(
        std::env::var_os("PERFBENCH_RAPID").ok_or("PERFBENCH_RAPID must name the rapid binary")?,
    );
    if !rapid.is_file() {
        return Err(format!("{}: no such binary", rapid.display()));
    }
    let dir = Path::new(".perfbench").join(args.spec.name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    let open_secs = args.seconds * OPEN_SHARE;
    let mut host = Host::new();
    let (mut setup_s, mut setup_raw_s, mut setup_samples) = (Vec::new(), Vec::new(), Vec::new());
    let mut inputs: Option<Inputs> = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        // The previous set-up's server stops before the next starts.
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(workload::setup(args.spec, args.seed, &dir, &rapid, open_secs)?);
        let secs = t.elapsed().as_secs_f64();
        let around = host.since_last();
        setup_s.push(around.scale_secs(1, secs));
        setup_raw_s.push(secs);
        setup_samples.push(sample("setup_s", secs, around));
    }
    let inputs = inputs.expect("at least one set-up ran");

    let mut report = if args.trace {
        let traced = layers::run(&inputs, &dir, args.seconds)?;
        layers::write_spans(&traced.spans, &dir.join("spans.tsv"))?;
        traced.report
    } else {
        measure(&inputs, &rapid, &dir, args.seconds, &mut host)
    };
    // Stops the server.
    drop(inputs);
    if !args.trace {
        report.push("setup_s", median(&setup_s).expect("set-up ran"), "s");
        setup_samples.append(&mut report.samples);
        let path = dir.join("samples.tsv");
        std::fs::write(&path, SAMPLES_HEADER.to_owned() + &setup_samples.concat())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let failed = report.failures.len() as u64;
    let non_finite: Vec<&str> =
        report.metrics.iter().filter(|m| !m.1.is_finite()).map(|m| m.0.as_str()).collect();
    let correct = failed == 0 && report.attempted > 0 && non_finite.is_empty();
    let meta = [
        ("workload", json_str(args.spec.name)),
        ("seed", args.seed.to_string()),
        ("validation_seed", (args.seed ^ VALIDATION_SEED_TAG).to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", std::thread::available_parallelism().map_or(0, |n| n.get()).to_string()),
        ("cpus_allowed", json_str(&cpus_allowed())),
        ("rustc", json_str(&rustc_version())),
        ("commit", json_str(&commit())),
        ("setup_s_each", format!("{setup_s:?}")),
        ("setup_s_each_unscaled", format!("{setup_raw_s:?}")),
        ("unscaled", json_object(&report.unscaled)),
        ("failed_frac", (failed as f64 / report.attempted.max(1) as f64).to_string()),
        ("non_finite_metrics", json_list(non_finite.iter().copied())),
        ("first_failures", json_list(report.failures.iter().take(5).map(String::as_str))),
    ];
    let meta: Vec<String> = meta.iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
    println!("meta: {{{}}}", meta.join(","));
    for (name, value, unit) in &report.metrics {
        println!("{name} = {value} {unit}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("{}:{{\"value\":{value:?},\"unit\":{}}}", json_str(name), json_str(unit))
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        report.attempted,
        metrics.join(",")
    );
    Ok(())
}

/// Columns of `samples.tsv`, which the end-to-end run writes to the
/// workload's scratch directory: one line per measured operation.
const SAMPLES_HEADER: &str = "metric\traw\tprobe_one_s\tprobe_two_s\n";

fn sample(metric: &str, raw: f64, around: Around) -> String {
    format!("{metric}\t{raw}\t{}\t{}\n", around.one, around.two)
}

/// XORed into `--seed` to name the held-out seed for checking a claim
/// on data a change was not tuned on (printed with every run).
const VALIDATION_SEED_TAG: u64 = 0x5EED_5EED_5EED_5EED;

/// One offline command and the verdict it must print.
struct Offline {
    args: Vec<String>,
    events: u64,
    reference: Verdict,
    panel: bool,
    /// The metric its rates feed, and the cores it keeps busy.
    metric: &'static str,
    cores: usize,
    budget: f64,
    tally: Tally,
    rss: Vec<f64>,
    used: f64,
}

impl Offline {
    fn new(
        metric: &'static str,
        args: &[&str],
        events: u64,
        reference: Verdict,
        budget: f64,
    ) -> Self {
        let panel = args[0] == "compare";
        Self {
            args: args.iter().map(|&a| a.to_owned()).collect(),
            events,
            reference,
            panel,
            metric,
            // `compare --jobs 2` keeps two cores busy.
            cores: if panel { 2 } else { 1 },
            budget,
            tally: Tally::default(),
            rss: Vec::new(),
            used: 0.0,
        }
    }

    fn pending(&self) -> bool {
        self.tally.ops < MIN_REPS || self.used < self.budget
    }

    /// One run: timed, its host speed probed, its peak RSS read, its
    /// verdict(s) checked.
    fn run_once(&mut self, rapid: &Path, dir: &Path, host: &mut Host, report: &mut Report) {
        let args: Vec<&str> = self.args.iter().map(String::as_str).collect();
        let what = format!("rapid {}", self.args[0]);
        let finished = proc::run(rapid, &args, dir, RUN_TIMEOUT);
        let around = host.since_last();
        match finished {
            Err(e) => {
                self.used += RUN_TIMEOUT.as_secs_f64();
                report.verify(Err(format!("{what}: {e}")));
            }
            Ok(done) => {
                let wall = done.wall.as_secs_f64();
                self.used += wall;
                let verdicts = if done.code.is_none() {
                    Err("killed by a signal".to_owned())
                } else if self.panel {
                    parse_panel(&done.stdout)
                } else {
                    parse_single(&done.stdout).map(|v| vec![(what.clone(), v)])
                };
                let outcome = verdicts.map_err(|e| format!("{what}: {e}")).and_then(|rows| {
                    rows.into_iter().try_for_each(|(name, got)| check(&name, self.reference, got))
                });
                if outcome.is_ok() {
                    self.tally.add(self.events as f64, wall, self.cores, around);
                    report.samples.push(sample(self.metric, self.events as f64 / wall, around));
                    self.rss.push(done.peak_rss as f64 / f64::from(1 << 20));
                }
                report.verify(outcome);
            }
        }
    }
}

/// The end-to-end run: offline commands interleaved by budget, then the
/// closed service loop.
fn measure(inputs: &Inputs, rapid: &Path, dir: &Path, secs: f64, host: &mut Host) -> Report {
    let mut report = Report::default();
    let budget = |i: usize| secs * OFFLINE_SHARE * OFFLINE_SPLIT[i];
    let (offline, panel) = (&inputs.offline, &inputs.panel);
    let (offline_path, panel_path) = (offline.path.to_string_lossy(), panel.path.to_string_lossy());
    let mut commands = [
        Offline::new(
            "check_events_per_s",
            &["check", &offline_path],
            offline.reference.events,
            offline.reference,
            budget(0),
        ),
        Offline::new(
            "velodrome_events_per_s",
            &["velodrome", &offline_path],
            offline.reference.events,
            offline.reference,
            budget(1),
        ),
        Offline::new(
            "panel_events_per_s",
            &["compare", &panel_path, "--jobs", "2"],
            panel.len,
            panel.reference,
            budget(2),
        ),
    ];
    // Always run the command furthest behind its budget, so slow
    // periods of the machine fall on every command alike.
    while let Some(next) = commands
        .iter_mut()
        .filter(|c| c.pending())
        .min_by(|a, b| (a.used / a.budget).total_cmp(&(b.used / b.budget)))
    {
        next.run_once(rapid, dir, host, &mut report);
    }
    for c in &commands {
        report.push(c.metric, c.tally.rate(), "events/s");
        report.unscaled.push((c.metric.to_owned(), c.tally.raw_rate()));
        if c.metric == "check_events_per_s" {
            report.push("check_peak_rss_mb", median(&c.rss).unwrap_or(0.0), "MiB");
        }
    }

    let round_secs = secs * (1.0 - OFFLINE_SHARE) / SERVE_ROUNDS as f64;
    let mut served = Tally::default();
    for _ in 0..SERVE_ROUNDS {
        let closed = serve_load::phase(&inputs.server.addr, &inputs.wire, round_secs, None);
        let (events, wall) = (closed.events as f64, closed.wall.as_secs_f64());
        let around = host.since_last();
        served.add(events, wall, workload::CONNECTIONS, around);
        report.samples.push(sample("serve_events_per_s", events / wall, around));
        report.attempted += closed.attempted;
        report.failures.extend(closed.failures);
    }
    report.push("serve_events_per_s", served.rate(), "events/s");
    report.unscaled.push(("serve_events_per_s".to_owned(), served.raw_rate()));
    report
}

fn json_object(fields: &[(String, f64)]) -> String {
    let fields: Vec<String> = fields.iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
    format!("{{{}}}", fields.join(","))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list<'a>(items: impl Iterator<Item = &'a str>) -> String {
    format!("[{}]", items.map(json_str).collect::<Vec<_>>().join(","))
}

fn cpus_allowed() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn rustc_version() -> String {
    Command::new("rustc").arg("--version").output().ok().filter(|o| o.status.success()).map_or_else(
        || "unknown".to_owned(),
        |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
    )
}

/// The git commit when the checkout has one; otherwise a digest of the
/// sources the benchmark builds, which names the code just as exactly.
fn commit() -> String {
    let git = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success());
    if let Some(o) = git {
        return String::from_utf8_lossy(&o.stdout).trim().to_owned();
    }
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "src",
        "crates",
        "shims",
        "perfbench/src",
        "perfbench/Cargo.toml",
    ] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    // FNV-1a over every path and its bytes.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("source-fnv64:{h:016x} ({} files; no git metadata)", files.len())
}

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_owned());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            collect_files(&entry.path(), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn arguments_are_parsed_and_checked() {
        let a = args("--workload convoy-std --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.spec.name, a.seed, a.seconds, a.trace), ("convoy-std", 7, 10.0, true));
        assert!(!args("--workload convoy-std --seed 7 --trace 0").unwrap().trace);
        for bad in [
            "--workload nope --seed 1",
            "--workload convoy-std",
            "--workload convoy-std --seed x",
            "--workload convoy-std --seed 1 --seconds 0",
            "--workload convoy-std --seed 1 --trace 2",
            "--workload convoy-std --seed 1 --frobnicate 1",
            "--workload convoy-std --seed",
        ] {
            assert!(args(bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
