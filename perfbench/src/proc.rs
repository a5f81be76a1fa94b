//! Child processes: wall time and peak resident set size of one run,
//! and the long-lived server the service phases talk to.
//!
//! A child's `ru_maxrss` starts from the high-water mark of the process
//! that spawned it (Linux carries the old address space's peak across
//! `exec`), so a run spawned straight from the harness would report the
//! harness's own peak whenever that is the larger. Each measured run is
//! therefore spawned by a fresh, small copy of the harness (the
//! spawner, [`SPAWN_FLAG`]), which times and reaps it and reports back.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::{Duration, Instant};

use crate::sys;

/// First argument that starts the harness binary as the spawner:
/// `perfbench --spawn REPORT TIMEOUT_MS PROGRAM ARGS…`.
pub const SPAWN_FLAG: &str = "--spawn";
/// How long past a run's own timeout the harness waits for the
/// spawner, which enforces that timeout, before killing it.
const SPAWNER_GRACE: Duration = Duration::from_secs(10);

/// One finished child process.
#[derive(Debug)]
pub struct Finished {
    /// Spawn to exit.
    pub wall: Duration,
    /// Peak resident set size, in bytes.
    pub peak_rss: u64,
    /// Exit code; `None` when a signal ended it.
    pub code: Option<i32>,
    /// Everything it wrote to standard output.
    pub stdout: String,
}

/// What the spawner measured of one run.
#[derive(Debug, PartialEq)]
struct Usage {
    wall: Duration,
    peak_rss: u64,
    code: Option<i32>,
}

impl Usage {
    /// One line: wall nanoseconds, peak RSS bytes, exit code or `signal`.
    fn encode(&self) -> String {
        let code = self.code.map_or_else(|| "signal".to_owned(), |c| c.to_string());
        format!("{} {} {code}", self.wall.as_nanos(), self.peak_rss)
    }

    fn decode(line: &str) -> Result<Self, String> {
        let bad = || format!("unreadable spawner report {line:?}");
        let mut fields = line.split_whitespace();
        let mut next = || fields.next().ok_or_else(bad);
        let wall = Duration::from_nanos(next()?.parse().map_err(|_| bad())?);
        let peak_rss = next()?.parse().map_err(|_| bad())?;
        let code = match next()? {
            "signal" => None,
            c => Some(c.parse().map_err(|_| bad())?),
        };
        Ok(Self { wall, peak_rss, code })
    }
}

/// Runs `program args…` to completion through the spawner, with standard
/// output and error captured in files under `scratch` (no pipe can fill
/// and stall it). A run past `timeout` is killed and reported as an
/// error.
pub fn run(
    program: &Path,
    args: &[&str],
    scratch: &Path,
    timeout: Duration,
) -> Result<Finished, String> {
    let out_path = scratch.join("child.stdout");
    let err_path = scratch.join("child.stderr");
    let report_path = scratch.join("child.usage");
    let _ = std::fs::remove_file(&report_path);
    let stdout = File::create(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    let stderr = File::create(&err_path).map_err(|e| format!("{}: {e}", err_path.display()))?;
    let harness = std::env::current_exe().map_err(|e| format!("locating the harness: {e}"))?;
    let spawner = Command::new(harness)
        .arg(SPAWN_FLAG)
        .arg(&report_path)
        .arg(timeout.as_millis().to_string())
        .arg(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("starting the spawner: {e}"))?;
    let (code, _) = wait_with_rusage(&spawner, Instant::now() + timeout + SPAWNER_GRACE)?;
    let report = std::fs::read_to_string(&report_path).unwrap_or_default();
    let usage = match report.strip_prefix("error ") {
        Some(e) => return Err(e.trim().to_owned()),
        None if code != Some(0) => {
            let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
            return Err(format!("spawner exited with {code:?}: {}", stderr.trim()));
        }
        None => Usage::decode(report.trim())?,
    };
    let stdout =
        std::fs::read_to_string(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    Ok(Finished { wall: usage.wall, peak_rss: usage.peak_rss, code: usage.code, stdout })
}

/// The spawner: runs `PROGRAM ARGS…` with this process's standard
/// streams, kills it past `TIMEOUT_MS`, and writes its [`Usage`] (or
/// `error MESSAGE`) to `REPORT`.
pub fn spawner_main(mut args: impl Iterator<Item = String>) -> ExitCode {
    let (Some(report), Some(timeout), Some(program)) = (args.next(), args.next(), args.next())
    else {
        eprintln!("usage: perfbench {SPAWN_FLAG} REPORT TIMEOUT_MS PROGRAM ARGS...");
        return ExitCode::FAILURE;
    };
    let args: Vec<String> = args.collect();
    let line = match timeout.parse::<u64>() {
        Err(_) => format!("error bad timeout {timeout:?}"),
        Ok(ms) => match measure(Path::new(&program), &args, Duration::from_millis(ms)) {
            Ok(usage) => usage.encode(),
            Err(e) => format!("error {e}"),
        },
    };
    match std::fs::write(PathBuf::from(&report), line + "\n") {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{report}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Spawns `program args…` with inherited standard output and error,
/// reaps it and measures it; past `timeout` it is killed and reported
/// as an error.
fn measure(program: &Path, args: &[String], timeout: Duration) -> Result<Usage, String> {
    let started = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| format!("{}: {e}", program.display()))?;
    let (code, peak_rss) = wait_with_rusage(&child, started + timeout)?;
    Ok(Usage { wall: started.elapsed(), peak_rss, code })
}

/// Reaps `child`, returning its exit code and peak RSS in bytes. Blocks
/// in `wait4`; a watchdog thread kills the child if `deadline` passes
/// first, so waiting costs the machine nothing while the child runs.
fn wait_with_rusage(child: &Child, deadline: Instant) -> Result<(Option<i32>, u64), String> {
    let pid = i32::try_from(child.id()).map_err(|_| "child pid out of range".to_owned())?;
    let (done, reaped) = mpsc::channel::<()>();
    let watchdog = thread::spawn(move || {
        let overdue = reaped.recv_timeout(deadline.saturating_duration_since(Instant::now()));
        if overdue == Err(RecvTimeoutError::Timeout) {
            // Not reaped yet (the waiter signals only after wait4
            // returns), so the pid still names our child.
            sys::kill(pid);
            return true;
        }
        false
    });
    let waited = sys::wait4(pid);
    let _ = done.send(());
    let killed = watchdog.join().map_err(|_| "watchdog thread panicked".to_owned())?;
    let (status, maxrss_kib) = waited?;
    if killed {
        return Err(format!("pid {pid} timed out and was killed"));
    }
    // Linux reports ru_maxrss in KiB.
    let code = ((status & 0x7f) == 0).then_some((status >> 8) & 0xff);
    Ok((code, u64::try_from(maxrss_kib).unwrap_or(0) * 1024))
}

/// The `rapid serve` process; killed and reaped on drop.
#[derive(Debug)]
pub struct Server {
    child: Child,
    /// Held open so a late write by the server cannot hit a closed pipe.
    _stdout: Option<BufReader<ChildStdout>>,
    /// The address it listens on.
    pub addr: String,
}

impl Server {
    /// Starts `rapid serve` on an ephemeral loopback port and waits for
    /// its "listening on" line.
    pub fn start(rapid: &Path, jobs: usize, scratch: &Path) -> Result<Self, String> {
        let err_path = scratch.join("serve.stderr");
        let stderr = File::create(&err_path).map_err(|e| format!("{}: {e}", err_path.display()))?;
        let mut child = Command::new(rapid)
            .args(["serve", "--addr", "127.0.0.1:0", "--jobs", &jobs.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("{}: {e}", rapid.display()))?;
        let mut stdout = child.stdout.take().map(BufReader::new);
        // From here on, dropping `server` kills the child.
        let mut server = Self { child, _stdout: None, addr: String::new() };
        let mut line = String::new();
        if let Some(out) = stdout.as_mut() {
            out.read_line(&mut line).map_err(|e| format!("reading the server's banner: {e}"))?;
        }
        server._stdout = stdout;
        server.addr = line
            .trim()
            .rsplit_once("listening on ")
            .map(|(_, addr)| addr.to_owned())
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?;
        Ok(server)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALLOC_ENV: &str = "PERFBENCH_TEST_ALLOC_MIB";

    /// Not a test of its own: the body the peak-RSS test re-runs this
    /// test binary with, touching the requested number of MiB.
    #[test]
    #[ignore = "child process body for peak_rss_reports_a_child_high_water_mark"]
    fn alloc_child() {
        let mib: usize = std::env::var(ALLOC_ENV).map_or(0, |v| v.parse().unwrap());
        let block = vec![1u8; mib << 20];
        assert_eq!(std::hint::black_box(&block).len(), mib << 20);
    }

    fn child_rss(mib: usize) -> u64 {
        let exe = std::env::current_exe().unwrap();
        std::env::set_var(ALLOC_ENV, mib.to_string());
        let args: Vec<String> =
            ["--ignored", "--exact", "proc::tests::alloc_child", "--test-threads=1"]
                .map(str::to_owned)
                .to_vec();
        let usage = measure(&exe, &args, Duration::from_secs(60)).unwrap();
        assert_eq!(usage.code, Some(0), "child failed");
        usage.peak_rss
    }

    #[test]
    fn peak_rss_reports_a_child_high_water_mark() {
        let small = child_rss(0);
        let big = child_rss(96);
        assert!(small > 0);
        assert!(big >= small + (80 << 20), "96 MiB child peaked at {big}, empty child at {small}");
        assert!(big < small + (160 << 20), "96 MiB child peaked at {big}, empty child at {small}");
    }

    #[test]
    fn a_run_past_its_timeout_is_killed() {
        let started = Instant::now();
        let r = measure(Path::new("sleep"), &["5".to_owned()], Duration::from_millis(100));
        assert!(r.unwrap_err().contains("timed out"));
        assert!(started.elapsed() < Duration::from_secs(4));
    }

    #[test]
    fn spawner_reports_round_trip() {
        for code in [Some(0), Some(3), None] {
            let usage = Usage { wall: Duration::from_nanos(1_234_567_891), peak_rss: 4096, code };
            assert_eq!(Usage::decode(&usage.encode()), Ok(usage));
        }
        assert!(Usage::decode("12 34").is_err());
        assert!(Usage::decode("x 34 0").is_err());
    }
}
