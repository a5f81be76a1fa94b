//! Verdicts: the reference each measured operation is checked against,
//! and readers for what `rapid` prints.

use aerodrome::{Checker, Outcome};
use tracelog::Trace;

/// A checker's verdict on one trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// Zero-based index of the first violating event, if any.
    pub violation: Option<u64>,
    /// Events processed: up to and including the violating event, or
    /// the whole trace.
    pub events: u64,
}

impl Verdict {
    /// Runs `checker` over `trace` in memory.
    pub fn of(checker: &mut dyn Checker, trace: &Trace) -> Self {
        let violation = match aerodrome::run_checker(checker, trace) {
            Outcome::Serializable => None,
            Outcome::Violation(v) => Some(v.event.index() as u64),
        };
        Self::from_violation(violation, trace.len() as u64)
    }

    /// The verdict with `violation` on a trace of `len` events.
    pub fn from_violation(violation: Option<u64>, len: u64) -> Self {
        Self { violation, events: violation.map_or(len, |v| v + 1) }
    }
}

/// `Ok` when `observed` is `expected`; otherwise what differs, for the
/// failure log.
pub fn check(what: &str, expected: Verdict, observed: Verdict) -> Result<(), String> {
    if expected == observed {
        Ok(())
    } else {
        Err(format!("{what}: expected {expected:?}, got {observed:?}"))
    }
}

/// The reference two independent checkers agree on; an error when they
/// disagree (then no measured run could be judged).
pub fn consensus(what: &str, a: Verdict, b: Verdict) -> Result<Verdict, String> {
    check(what, a, b).map(|()| a)
}

/// Reads the verdict of `rapid check` / `rapid velodrome` output:
/// `events processed: N` and a `verdict: ✓` or `verdict: ✗` line.
pub fn parse_single(stdout: &str) -> Result<Verdict, String> {
    let events = stdout
        .lines()
        .find_map(|l| l.strip_prefix("events processed: "))
        .and_then(|n| n.trim().parse::<u64>().ok())
        .ok_or("no `events processed:` line")?;
    let verdict =
        stdout.lines().find_map(|l| l.strip_prefix("verdict: ")).ok_or("no `verdict:` line")?;
    match verdict.chars().next() {
        Some('✓') => Ok(Verdict { violation: None, events }),
        Some('✗') if events > 0 => Ok(Verdict { violation: Some(events - 1), events }),
        _ => Err(format!("unreadable verdict line {verdict:?}")),
    }
}

/// The panel order `rapid compare` prints.
pub const PANEL: [&str; 4] = ["aerodrome-basic", "aerodrome-readopt", "aerodrome", "velodrome"];

/// Reads the per-checker table of `rapid compare`: one row per panel
/// checker, `name verdict events joins allocs first-violation`, where
/// the last column is `-` or `e<index>: …`.
pub fn parse_panel(stdout: &str) -> Result<Vec<(String, Verdict)>, String> {
    let rows: Vec<(String, Verdict)> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("checker "))
        .skip(1)
        .map_while(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            let (name, mark, events, first) =
                (cols.first()?, cols.get(1)?, cols.get(2)?, cols.get(5)?);
            let events: u64 = events.parse().ok()?;
            let violation = match *mark {
                "✓" => None,
                "✗" => Some(first.strip_prefix('e')?.strip_suffix(':')?.parse().ok()?),
                _ => return None,
            };
            Some(((*name).to_owned(), Verdict { violation, events }))
        })
        .collect();
    let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
    if names != PANEL {
        return Err(format!("panel rows {names:?}, expected {PANEL:?}"));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHECK_VIOLATION: &str = "analysis: aerodrome (Algorithm 3)\n\
        events processed: 540004\n\
        verdict: ✗ conflict serializability violation at e540004: read of `inj_b` closes a cycle\n\
        clocks: joins=269695 heap_allocs=4230\n";
    const CHECK_CLEAN: &str = "analysis: velodrome\nevents processed: 2000012\n\
        verdict: ✓ no conflict-serializability violation detected\n";
    const PANEL_OUT: &str = "single-pass comparison: t.rbt\n\
        events: 60029  workers: 2  batches: 15  wall: 1.262s\n\
        checker            verdict     events  clock joins  heap allocs  first violation\n\
        aerodrome-basic          ✗      54005       136282         1267  e54004: conflict at e54005\n\
        aerodrome-readopt        ✗      54005        27505         1700  e54004: conflict at e54005\n\
        aerodrome                ✗      54005        27505         1220  e54004: conflict at e54005\n\
        velodrome                ✗      54005            0            0  e54004: conflict at e54005\n\
        consensus: ✗ violation under every checker\n";

    #[test]
    fn single_checker_output_is_read() {
        assert_eq!(
            parse_single(CHECK_VIOLATION),
            Ok(Verdict::from_violation(Some(540_003), 600_030))
        );
        assert_eq!(parse_single(CHECK_CLEAN), Ok(Verdict::from_violation(None, 2_000_012)));
        assert!(parse_single("error: t.std: No such file or directory").is_err());
        assert!(parse_single("events processed: 3\nverdict: ?\n").is_err());
    }

    #[test]
    fn panel_output_is_read() {
        let rows = parse_panel(PANEL_OUT).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|(_, v)| *v == Verdict::from_violation(Some(54_004), 60_029)));
        // A missing checker row is an error, not a shorter panel.
        let short = PANEL_OUT.replace("velodrome                ✗", "velodrome  ?");
        assert!(parse_panel(&short).is_err());
    }

    #[test]
    fn reference_comparison_flags_every_difference() {
        let reference = Verdict::from_violation(Some(99), 1000);
        assert_eq!(check("same", reference, reference), Ok(()));
        // A different first-violation index, a missed violation and a
        // false alarm all count as failures.
        for wrong in [
            Verdict::from_violation(Some(98), 1000),
            Verdict::from_violation(None, 1000),
            Verdict { violation: Some(99), events: 1000 },
        ] {
            assert!(check("wrong", reference, wrong).is_err(), "{wrong:?} accepted");
        }
        let clean = Verdict::from_violation(None, 1000);
        assert!(check("false alarm", clean, reference).is_err());
        assert!(consensus("disagree", clean, reference).is_err());
        assert_eq!(consensus("agree", clean, clean), Ok(clean));
    }

    #[test]
    fn in_memory_reference_matches_the_paper_traces() {
        let rho2 = tracelog::paper_traces::rho2();
        let v = Verdict::of(&mut velodrome::VelodromeChecker::new(), &rho2);
        let a = Verdict::of(&mut aerodrome::optimized::OptimizedChecker::new(), &rho2);
        assert!(v.violation.is_some());
        assert_eq!(consensus("rho2", v, a), Ok(v));
    }
}
