//! Property tests for the trace substrate: parser fixpoint,
//! validator/segmentation invariants on arbitrary well-formed traces,
//! and streaming ≡ batch differentials for the parser, validator and
//! statistics.

use std::io::BufReader;

use proptest::prelude::*;
use tracelog::stream::{EventSource, StdReader};
use tracelog::{
    parse_trace, validate, write_trace, EventId, MetaInfo, Op, Trace, TraceBuilder, Transactions,
    Validator,
};

#[derive(Clone, Copy, Debug)]
enum Step {
    Read(u8),
    Write(u8),
    Acquire(u8),
    Release,
    Begin,
    End,
    ForkNext,
    JoinLast,
}

/// Repairs arbitrary step sequences into a well-formed trace (possibly
/// with open transactions/locks at the end — still valid, like a prefix).
fn build(steps: &[(u8, Step)], threads: usize, close: bool) -> Trace {
    let mut tb = TraceBuilder::new();
    let tids: Vec<_> = (0..threads).map(|i| tb.thread(&format!("t{i}"))).collect();
    let vars: Vec<_> = (0..3).map(|i| tb.var(&format!("v{i}"))).collect();
    let locks: Vec<_> = (0..2).map(|i| tb.lock(&format!("m{i}"))).collect();
    let mut held: Vec<Vec<usize>> = vec![Vec::new(); threads];
    let mut holder = vec![None::<usize>; locks.len()];
    let mut depth = vec![0usize; threads];
    let mut forked = vec![false; threads];
    let mut joined = vec![false; threads];
    let mut started = vec![false; threads];

    for &(who, step) in steps {
        let ti = (who as usize) % threads;
        if joined[ti] {
            continue;
        }
        let t = tids[ti];
        started[ti] = true;
        match step {
            Step::Read(v) => {
                tb.read(t, vars[(v as usize) % vars.len()]);
            }
            Step::Write(v) => {
                tb.write(t, vars[(v as usize) % vars.len()]);
            }
            Step::Acquire(l) => {
                let li = (l as usize) % locks.len();
                match holder[li] {
                    None | Some(_) if holder[li].is_none() || holder[li] == Some(ti) => {
                        holder[li] = Some(ti);
                        held[ti].push(li);
                        tb.acquire(t, locks[li]);
                    }
                    _ => {}
                }
            }
            Step::Release => {
                if let Some(li) = held[ti].pop() {
                    tb.release(t, locks[li]);
                    if !held[ti].contains(&li) {
                        holder[li] = None;
                    }
                }
            }
            Step::Begin => {
                if depth[ti] < 3 {
                    tb.begin(t);
                    depth[ti] += 1;
                }
            }
            Step::End => {
                if depth[ti] > 0 {
                    tb.end(t);
                    depth[ti] -= 1;
                }
            }
            Step::ForkNext => {
                let u = (ti + 1) % threads;
                if u != ti && !forked[u] && !started[u] && !joined[u] {
                    tb.fork(t, tids[u]);
                    forked[u] = true;
                }
            }
            Step::JoinLast => {
                let u = (ti + 1) % threads;
                if u != ti && !joined[u] && depth[u] == 0 && held[u].is_empty() {
                    tb.join(t, tids[u]);
                    joined[u] = true;
                }
            }
        }
    }
    if close {
        for ti in 0..threads {
            if joined[ti] {
                continue;
            }
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
    }
    tb.finish()
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (0u8..3).prop_map(Step::Read),
        4 => (0u8..3).prop_map(Step::Write),
        2 => (0u8..2).prop_map(Step::Acquire),
        2 => Just(Step::Release),
        3 => Just(Step::Begin),
        3 => Just(Step::End),
        1 => Just(Step::ForkNext),
        1 => Just(Step::JoinLast),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn repaired_traces_validate(
        steps in prop::collection::vec(((0u8..4), step_strategy()), 0..80),
        threads in 1usize..4,
        close in any::<bool>(),
    ) {
        let trace = build(&steps, threads, close);
        let summary = validate(&trace).expect("repair produces well-formed traces");
        if close {
            prop_assert!(summary.is_closed());
        }
    }

    #[test]
    fn serialization_is_a_fixpoint(
        steps in prop::collection::vec(((0u8..4), step_strategy()), 0..60),
        threads in 1usize..4,
    ) {
        let trace = build(&steps, threads, true);
        let text = write_trace(&trace);
        let back = parse_trace(&text).expect("own output parses");
        prop_assert_eq!(write_trace(&back), text);
        prop_assert_eq!(back.len(), trace.len());
        // Event kinds survive even if indices are re-interned.
        for (a, b) in trace.iter().zip(back.iter()) {
            prop_assert_eq!(
                std::mem::discriminant(&a.op),
                std::mem::discriminant(&b.op)
            );
        }
    }

    #[test]
    fn segmentation_partitions_all_events(
        steps in prop::collection::vec(((0u8..4), step_strategy()), 0..80),
        threads in 1usize..4,
    ) {
        let trace = build(&steps, threads, true);
        let txns = Transactions::segment(&trace);
        let mut counted = 0usize;
        for txn in txns.iter() {
            counted += txn.num_events;
        }
        prop_assert_eq!(counted, trace.len(), "every event in exactly one txn");
        // txn_of is consistent with membership thread-wise.
        for (i, e) in trace.iter().enumerate() {
            let t = txns.txn_of(EventId(i as u64));
            prop_assert_eq!(txns[t].thread, e.thread);
        }
        // Non-unary count equals the number of outermost begins.
        let mut depth = vec![0usize; trace.num_threads()];
        let mut outermost = 0usize;
        for e in &trace {
            match e.op {
                Op::Begin => {
                    if depth[e.thread.index()] == 0 {
                        outermost += 1;
                    }
                    depth[e.thread.index()] += 1;
                }
                Op::End => depth[e.thread.index()] = depth[e.thread.index()].saturating_sub(1),
                _ => {}
            }
        }
        prop_assert_eq!(txns.non_unary_count(), outermost);
        // Completed transactions have begin ≤ end.
        for txn in txns.iter() {
            if let (Some(b), Some(e)) = (txn.begin, txn.end) {
                prop_assert!(b <= e);
            }
        }
    }

    #[test]
    fn streaming_parse_equals_batch_parse(
        steps in prop::collection::vec(((0u8..4), step_strategy()), 0..80),
        threads in 1usize..4,
        close in any::<bool>(),
        refill in 1usize..8,
    ) {
        // Round-trip an arbitrary well-formed trace through the text
        // format, then parse it both ways: `parse_trace` is a collect
        // over `StdReader`, but this asserts the *incremental* protocol
        // (event-at-a-time, names growing as they first occur) agrees
        // with the batch result at every step.
        let trace = build(&steps, threads, close);
        let text = write_trace(&trace);
        let batch = parse_trace(&text).expect("own output parses");
        let mut reader = StdReader::new(text.as_bytes());
        let mut streamed = Vec::new();
        while let Some(e) = reader.next_event().expect("own output parses") {
            streamed.push(e);
        }
        prop_assert_eq!(streamed.as_slice(), batch.events());
        prop_assert_eq!(reader.names().threads, batch.thread_names());
        prop_assert_eq!(reader.names().locks, batch.lock_names());
        prop_assert_eq!(reader.names().vars, batch.var_names());

        // The same text through a buffer of 1–7 bytes per refill: every
        // line straddles refills and is gathered in the carry.
        let mut trickle = StdReader::new(BufReader::with_capacity(refill, text.as_bytes()));
        let mut trickled = Vec::new();
        while let Some(e) = trickle.next_event().expect("own output parses") {
            trickled.push(e);
            prop_assert_eq!(trickle.line(), trickled.len());
        }
        prop_assert_eq!(trickled.as_slice(), batch.events());
        prop_assert_eq!(trickle.names().threads, batch.thread_names());
        prop_assert_eq!(trickle.names().locks, batch.lock_names());
        prop_assert_eq!(trickle.names().vars, batch.var_names());
    }

    #[test]
    fn streaming_validator_equals_batch_validate(
        steps in prop::collection::vec(((0u8..4), step_strategy()), 0..80),
        threads in 1usize..4,
        close in any::<bool>(),
    ) {
        let trace = build(&steps, threads, close);
        let batch = validate(&trace).expect("repair produces well-formed traces");
        let mut v = Validator::new();
        for &e in &trace {
            v.observe(e).expect("streaming agrees on well-formedness");
        }
        prop_assert_eq!(v.events_observed(), trace.len() as u64);
        prop_assert_eq!(v.summary(), batch.clone());
        prop_assert_eq!(v.finish(), batch);
    }

    #[test]
    fn streaming_metainfo_equals_batch_metainfo(
        steps in prop::collection::vec(((0u8..4), step_strategy()), 0..80),
        threads in 1usize..4,
    ) {
        let trace = build(&steps, threads, true);
        let streamed = MetaInfo::collect(&mut trace.stream()).expect("trace sources cannot fail");
        prop_assert_eq!(streamed, MetaInfo::of(&trace));
    }

    #[test]
    fn metainfo_is_consistent(
        steps in prop::collection::vec(((0u8..4), step_strategy()), 0..80),
        threads in 1usize..4,
    ) {
        let trace = build(&steps, threads, true);
        let info = tracelog::MetaInfo::of(&trace);
        prop_assert_eq!(
            info.events,
            info.reads + info.writes + info.acquires + info.releases
                + info.forks + info.joins + info.begins + info.ends
        );
        prop_assert_eq!(info.acquires, info.releases, "closed traces balance locks");
        prop_assert_eq!(info.begins, info.ends, "closed traces balance txns");
    }
}
