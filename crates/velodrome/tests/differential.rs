//! Cross-family differential testing: the graph-based Velodrome and the
//! vector-clock AeroDrome must agree on the verdict for every *closed*
//! trace (Theorem 3 + the soundness/completeness of cycle detection).
//! Detection events may differ (Velodrome reports at the edge that closes
//! the cycle; AeroDrome sometimes only at the next end event), so only
//! verdicts are compared.

use aerodrome::basic::BasicChecker;
use aerodrome::optimized::OptimizedChecker;
use aerodrome::run_checker;
use proptest::prelude::*;
use tracelog::{validate, Trace, TraceBuilder};
use velodrome::{twophase, Config, VelodromeChecker};
use workloads::{generate, GenConfig};

/// Mirror of the trace repair in `aerodrome/tests/differential.rs`.
#[derive(Clone, Copy, Debug)]
enum Action {
    Read(u8),
    Write(u8),
    Acquire(u8),
    #[allow(dead_code)] // payload only feeds proptest's shrink display
    Release(u8),
    Begin,
    End,
}

fn build_trace(steps: &[(u8, Action)], threads: usize) -> Trace {
    let mut tb = TraceBuilder::new();
    let tids: Vec<_> = (0..threads).map(|i| tb.thread(&format!("t{i}"))).collect();
    let vars: Vec<_> = (0..4).map(|i| tb.var(&format!("x{i}"))).collect();
    let locks: Vec<_> = (0..2).map(|i| tb.lock(&format!("l{i}"))).collect();
    let mut held: Vec<Vec<usize>> = vec![Vec::new(); threads];
    let mut holder: Vec<Option<usize>> = vec![None; locks.len()];
    let mut depth = vec![0usize; threads];

    for &(who, action) in steps {
        let ti = (who as usize) % threads;
        let t = tids[ti];
        match action {
            Action::Read(v) => {
                tb.read(t, vars[(v as usize) % vars.len()]);
            }
            Action::Write(v) => {
                tb.write(t, vars[(v as usize) % vars.len()]);
            }
            Action::Acquire(l) => {
                let li = (l as usize) % locks.len();
                match holder[li] {
                    None => {
                        holder[li] = Some(ti);
                        held[ti].push(li);
                        tb.acquire(t, locks[li]);
                    }
                    Some(h) if h == ti => {
                        held[ti].push(li);
                        tb.acquire(t, locks[li]);
                    }
                    Some(_) => {}
                }
            }
            Action::Release(_) => {
                if let Some(li) = held[ti].pop() {
                    tb.release(t, locks[li]);
                    if !held[ti].contains(&li) {
                        holder[li] = None;
                    }
                } else if depth[ti] == 0 {
                    tb.begin(t);
                    depth[ti] += 1;
                }
            }
            Action::Begin => {
                if depth[ti] < 2 {
                    tb.begin(t);
                    depth[ti] += 1;
                }
            }
            Action::End => {
                if depth[ti] > 0 {
                    tb.end(t);
                    depth[ti] -= 1;
                } else {
                    tb.begin(t);
                    depth[ti] += 1;
                }
            }
        }
    }
    for ti in 0..threads {
        while let Some(li) = held[ti].pop() {
            tb.release(tids[ti], locks[li]);
            if !held[ti].contains(&li) {
                holder[li] = None;
            }
        }
        while depth[ti] > 0 {
            tb.end(tids[ti]);
            depth[ti] -= 1;
        }
    }
    tb.finish()
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => (0u8..4).prop_map(Action::Read),
        3 => (0u8..4).prop_map(Action::Write),
        2 => (0u8..2).prop_map(Action::Acquire),
        2 => (0u8..2).prop_map(Action::Release),
        2 => Just(Action::Begin),
        2 => Just(Action::End),
    ]
}

fn all_velodrome_verdicts(trace: &Trace) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    for gc in [false, true] {
        let mut c = VelodromeChecker::with_config(Config { gc, ..Config::default() });
        out.push((format!("velodrome(gc={gc})"), run_checker(&mut c, trace).is_violation()));
    }
    let tp = Config { twophase_batch: 7, ..Config::default() };
    out.push(("twophase(batch=7)".into(), twophase::check(trace, &tp).outcome.is_violation()));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn velodrome_agrees_with_aerodrome(
        steps in prop::collection::vec(((0u8..3), action_strategy()), 0..100),
        threads in 2usize..4,
    ) {
        let trace = build_trace(&steps, threads);
        prop_assert!(validate(&trace).unwrap().is_closed());
        let reference = run_checker(&mut BasicChecker::new(), &trace).is_violation();
        for (name, verdict) in all_velodrome_verdicts(&trace) {
            prop_assert_eq!(verdict, reference, "{} disagrees with aerodrome-basic", name);
        }
        let opt = run_checker(&mut OptimizedChecker::new(), &trace).is_violation();
        prop_assert_eq!(opt, reference);
    }
}

#[test]
fn agreement_on_generated_workloads() {
    for seed in 0..6u64 {
        for violation_at in [None, Some(0.5)] {
            for retention in [false, true] {
                let cfg = GenConfig {
                    seed,
                    threads: 6,
                    events: 3_000,
                    vars: 48,
                    locks: 3,
                    retention,
                    probe_period: 60,
                    violation_at,
                    ..GenConfig::default()
                };
                let trace = generate(&cfg);
                let reference = run_checker(&mut OptimizedChecker::new(), &trace).is_violation();
                assert_eq!(reference, violation_at.is_some(), "seed={seed}");
                for (name, verdict) in all_velodrome_verdicts(&trace) {
                    assert_eq!(
                        verdict, reference,
                        "seed={seed} retention={retention}: {name} disagrees"
                    );
                }
            }
        }
    }
}

#[test]
fn velodrome_graph_grows_only_under_retention() {
    let base = GenConfig {
        seed: 42,
        threads: 6,
        events: 12_000,
        vars: 128,
        locks: 4,
        probe_period: 60,
        violation_at: None,
        ..GenConfig::default()
    };
    let quiet = {
        let trace = generate(&GenConfig { retention: false, ..base.clone() });
        let mut c = VelodromeChecker::new();
        assert!(!run_checker(&mut c, &trace).is_violation());
        c.stats()
    };
    let retained = {
        let trace = generate(&GenConfig { retention: true, ..base });
        let mut c = VelodromeChecker::new();
        assert!(!run_checker(&mut c, &trace).is_violation());
        c.stats()
    };
    assert!(
        quiet.peak_live_nodes < 100,
        "GC should keep the graph tiny without retention: {quiet:?}"
    );
    assert!(
        retained.peak_live_nodes > 10 * quiet.peak_live_nodes.max(1),
        "retention must defeat GC: quiet={quiet:?} retained={retained:?}"
    );
}
