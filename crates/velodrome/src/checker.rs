//! The streaming Velodrome checker.

use aerodrome::{Checker, Violation, ViolationKind};
use digraph::dfs::Searcher;
use digraph::{dfs, DiGraph, NodeId, NodeRef};
use tracelog::{Event, EventId, Op, ThreadId, VarId};

/// Velodrome configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Config {
    /// Garbage-collect completed transactions without incoming edges
    /// (the optimization of Flanagan–Freund–Yi §5.1 the paper enables).
    pub gc: bool,
    /// Phase-1 cycle-check batch size of the DoubleChecker-style
    /// [`crate::twophase`] analysis: edges are inserted unchecked and a
    /// whole-graph cycle check runs every this many events. The default
    /// is [`Config::DEFAULT_TWOPHASE_BATCH`]; every call site (CLI,
    /// tests, benches) takes the batch from here rather than passing a
    /// magic number.
    pub twophase_batch: usize,
}

impl Config {
    /// Default [`Config::twophase_batch`]: large enough to amortize the
    /// whole-graph check over many insertions, small enough that the
    /// precise phase-2 replay of the suspicious prefix stays short. The
    /// ablations bench measures the sensitivity around this point.
    pub const DEFAULT_TWOPHASE_BATCH: usize = 256;
}

impl Default for Config {
    fn default() -> Self {
        Self { gc: true, twophase_batch: Self::DEFAULT_TWOPHASE_BATCH }
    }
}

/// Counters describing the transaction graph over the run — used to
/// reproduce the §5.3 discussion (graph sizes explain the speedups).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct VelodromeStats {
    /// Transactions ever materialized as graph nodes.
    pub nodes_created: u64,
    /// Edges ever inserted (duplicates excluded).
    pub edges_created: u64,
    /// Maximum simultaneously live nodes (after GC).
    pub peak_live_nodes: usize,
    /// Live nodes at the end of the run.
    pub live_nodes: usize,
    /// Cycle checks performed (one per candidate edge).
    pub cycle_checks: u64,
    /// Total nodes visited by cycle-check reachability queries — the work
    /// metric behind Velodrome's super-linear behaviour.
    pub dfs_visits: u64,
    /// Largest single reachability query.
    pub max_dfs_visits: u64,
}

/// Graph-node payload.
#[derive(Clone, Copy, Debug)]
struct TxnNode {
    /// Monotone transaction identity (survives slot recycling; used for
    /// witness reporting).
    txn: u64,
    completed: bool,
}

/// The Velodrome conflict-serializability checker.
///
/// Transaction metadata (per-thread current/previous transaction,
/// per-variable last writer and readers, per-lock last releaser) is held
/// as *generational* [`NodeRef`] handles straight into the graph's node
/// arena: a handle whose transaction was garbage collected simply stops
/// resolving, so no identity hash map is needed and the per-event
/// lookups are O(1) array reads.
///
/// # Examples
///
/// ```
/// use aerodrome::run_checker;
/// use velodrome::VelodromeChecker;
///
/// let trace = tracelog::paper_traces::rho2();
/// let outcome = run_checker(&mut VelodromeChecker::new(), &trace);
/// assert!(outcome.is_violation());
/// ```
#[derive(Debug, Default)]
pub struct VelodromeChecker {
    config: Config,
    graph: DiGraph<TxnNode>,
    /// Reusable DFS scratch (allocation-free cycle checks once warm).
    searcher: Searcher,
    next_txn: u64,
    /// Per-thread: the open (outermost) transaction, if any.
    current: Vec<Option<NodeRef>>,
    /// Per-thread: the most recent transaction (for program-order and
    /// join edges); stale once garbage collected.
    prev_txn: Vec<Option<NodeRef>>,
    /// Per-thread: transaction that forked the thread, consumed by its
    /// first transaction.
    fork_src: Vec<Option<NodeRef>>,
    /// Per-thread nesting depth (only outermost blocks are transactions).
    depth: Vec<usize>,
    /// Per-variable: last writing transaction.
    last_writer: Vec<Option<NodeRef>>,
    /// Per-variable: reading transactions since the last write, at most
    /// one entry per thread.
    last_readers: Vec<Vec<(u32, NodeRef)>>,
    /// Per-lock: last releasing transaction.
    last_rel: Vec<Option<NodeRef>>,
    events: u64,
    stopped: Option<Violation>,
    /// Witness cycle (transaction identities) for the last violation.
    witness: Option<Vec<u64>>,
    stats: VelodromeStats,
}

fn ensure<T: Clone>(v: &mut Vec<T>, i: usize, default: T) {
    if v.len() <= i {
        v.resize(i + 1, default);
    }
}

impl VelodromeChecker {
    /// Creates a checker with the default configuration (GC on).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a checker with an explicit configuration.
    #[must_use]
    pub fn with_config(config: Config) -> Self {
        Self { config, ..Self::default() }
    }

    /// Graph statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> VelodromeStats {
        let mut s = self.stats;
        s.peak_live_nodes = self.graph.peak_nodes();
        s.live_nodes = self.graph.num_nodes();
        s
    }

    /// The witness cycle (as transaction identities, oldest first) of the
    /// reported violation, if any.
    #[must_use]
    pub fn witness(&self) -> Option<&[u64]> {
        self.witness.as_deref()
    }

    /// Session reset: clears all per-trace state so the next trace sees a
    /// freshly constructed checker — same verdicts, same graph statistics
    /// — while the graph slab, adjacency lists, reader lists and the DFS
    /// scratch keep their capacity. The searcher's stamped visit marks
    /// need no clearing at all.
    pub fn reset(&mut self) {
        self.graph.reset();
        self.next_txn = 0;
        self.current.clear();
        self.prev_txn.clear();
        self.fork_src.clear();
        self.depth.clear();
        self.last_writer.clear();
        for readers in &mut self.last_readers {
            readers.clear();
        }
        self.last_rel.clear();
        self.events = 0;
        self.stopped = None;
        self.witness = None;
        self.stats = VelodromeStats::default();
    }

    fn ensure_thread(&mut self, t: ThreadId) {
        let i = t.index();
        ensure(&mut self.current, i, None);
        ensure(&mut self.prev_txn, i, None);
        ensure(&mut self.fork_src, i, None);
        ensure(&mut self.depth, i, 0);
    }

    fn ensure_var(&mut self, x: VarId) {
        let i = x.index();
        ensure(&mut self.last_writer, i, None);
        ensure(&mut self.last_readers, i, Vec::new());
    }

    /// Creates a transaction node for thread `t` and wires its program
    /// order / fork edges. `completed` is true for unary transactions.
    fn new_txn(&mut self, t: ThreadId, completed: bool) -> NodeRef {
        let txn = self.next_txn;
        self.next_txn += 1;
        let node = self.graph.add_node(TxnNode { txn, completed });
        let handle = self.graph.handle(node);
        self.stats.nodes_created += 1;
        let ti = t.index();
        let po = self.prev_txn[ti];
        let fork = self.fork_src[ti].take();
        self.prev_txn[ti] = Some(handle);
        // Program order & fork edges can never close a cycle (the new
        // node has no outgoing edges yet), so insert unchecked. A stale
        // source (garbage collected) contributes nothing.
        for src in [po, fork].into_iter().flatten() {
            if let Some(from) = self.graph.resolve(src) {
                if self.graph.add_edge(from, node) {
                    self.stats.edges_created += 1;
                }
            }
        }
        handle
    }

    /// The transaction carrying the current event of `t`; unary events
    /// get a fresh, immediately-completed transaction.
    fn event_txn(&mut self, t: ThreadId) -> NodeRef {
        match self.current[t.index()] {
            Some(txn) => txn,
            None => self.new_txn(t, true),
        }
    }

    /// Inserts edge `from → to`, checking for a cycle. Returns `true` if
    /// a cycle was found.
    fn add_edge_checked(&mut self, from_ref: NodeRef, to_ref: NodeRef) -> bool {
        if from_ref == to_ref {
            return false;
        }
        let (Some(from), Some(to)) = (self.graph.resolve(from_ref), self.graph.resolve(to_ref))
        else {
            // A garbage-collected endpoint cannot participate in a cycle.
            return false;
        };
        if self.graph.has_edge(from, to) {
            return false;
        }
        self.stats.cycle_checks += 1;
        // `from → to` closes a cycle iff `from` is reachable from `to`.
        let (cycle, visits) = self.searcher.reaches_counting(&self.graph, to, from);
        self.stats.dfs_visits += visits;
        self.stats.max_dfs_visits = self.stats.max_dfs_visits.max(visits);
        if cycle {
            self.record_witness(from, to);
            return true;
        }
        self.graph.add_edge(from, to);
        self.stats.edges_created += 1;
        false
    }

    fn record_witness(&mut self, from: NodeId, to: NodeId) {
        let path = dfs::find_path(&self.graph, to, from).unwrap_or_else(|| vec![to, from]);
        self.witness = Some(path.iter().map(|&n| self.graph.weight(n).txn).collect());
    }

    /// Cascading garbage collection from a completed candidate node.
    fn collect(&mut self, txn: NodeRef) {
        if !self.config.gc {
            return;
        }
        let Some(node) = self.graph.resolve(txn) else {
            return;
        };
        let mut worklist = vec![node];
        while let Some(n) = worklist.pop() {
            if !self.graph.contains(n) {
                continue;
            }
            let w = *self.graph.weight(n);
            if !w.completed || self.graph.in_degree(n) != 0 {
                continue;
            }
            let succs: Vec<NodeId> = self.graph.successors(n).to_vec();
            self.graph.remove_node(n);
            worklist.extend(succs);
        }
    }

    fn violation(&mut self, event: EventId, thread: ThreadId, kind: ViolationKind) -> Violation {
        let v = Violation { event, thread, kind };
        self.stopped = Some(v.clone());
        v
    }

    fn handle(&mut self, event: Event, eid: EventId) -> Result<(), Violation> {
        let t = event.thread;
        let ti = t.index();
        self.ensure_thread(t);
        match event.op {
            Op::Begin => {
                self.depth[ti] += 1;
                if self.depth[ti] == 1 {
                    let txn = self.new_txn(t, false);
                    self.current[ti] = Some(txn);
                }
            }
            Op::End => {
                if self.depth[ti] > 0 {
                    self.depth[ti] -= 1;
                    if self.depth[ti] == 0 {
                        if let Some(txn) = self.current[ti].take() {
                            if let Some(node) = self.graph.resolve(txn) {
                                self.graph.weight_mut(node).completed = true;
                            }
                            self.collect(txn);
                        }
                    }
                }
            }
            Op::Read(x) => {
                self.ensure_var(x);
                let txn = self.event_txn(t);
                let xi = x.index();
                if let Some(w) = self.last_writer[xi] {
                    if self.add_edge_checked(w, txn) {
                        return Err(self.violation(eid, t, ViolationKind::AtRead(x)));
                    }
                }
                let readers = &mut self.last_readers[xi];
                match readers.iter_mut().find(|(u, _)| *u as usize == ti) {
                    Some(entry) => entry.1 = txn,
                    None => readers.push((ti as u32, txn)),
                }
                self.finish_unary(t, txn);
            }
            Op::Write(x) => {
                self.ensure_var(x);
                let txn = self.event_txn(t);
                let xi = x.index();
                if let Some(w) = self.last_writer[xi] {
                    if self.add_edge_checked(w, txn) {
                        return Err(self.violation(eid, t, ViolationKind::AtWriteVsWrite(x)));
                    }
                }
                let readers = std::mem::take(&mut self.last_readers[xi]);
                for (_, r) in readers {
                    if self.add_edge_checked(r, txn) {
                        return Err(self.violation(eid, t, ViolationKind::AtWriteVsRead(x)));
                    }
                }
                self.last_writer[xi] = Some(txn);
                self.finish_unary(t, txn);
            }
            Op::Acquire(l) => {
                ensure(&mut self.last_rel, l.index(), None);
                let txn = self.event_txn(t);
                if let Some(r) = self.last_rel[l.index()] {
                    if self.add_edge_checked(r, txn) {
                        return Err(self.violation(eid, t, ViolationKind::AtAcquire(l)));
                    }
                }
                self.finish_unary(t, txn);
            }
            Op::Release(l) => {
                ensure(&mut self.last_rel, l.index(), None);
                let txn = self.event_txn(t);
                self.last_rel[l.index()] = Some(txn);
                self.finish_unary(t, txn);
            }
            Op::Fork(u) => {
                self.ensure_thread(u);
                let txn = self.event_txn(t);
                self.fork_src[u.index()] = Some(txn);
                self.finish_unary(t, txn);
            }
            Op::Join(u) => {
                self.ensure_thread(u);
                let txn = self.event_txn(t);
                if let Some(last) = self.prev_txn[u.index()] {
                    if self.add_edge_checked(last, txn) {
                        return Err(self.violation(eid, t, ViolationKind::AtJoin(u)));
                    }
                }
                self.finish_unary(t, txn);
            }
        }
        Ok(())
    }

    /// If `txn` was a unary transaction it is already completed; attempt
    /// collection right away.
    fn finish_unary(&mut self, t: ThreadId, txn: NodeRef) {
        if self.current[t.index()] != Some(txn) {
            self.collect(txn);
        }
    }
}

impl Checker for VelodromeChecker {
    fn process(&mut self, event: Event) -> Result<(), Violation> {
        if let Some(v) = &self.stopped {
            return Err(v.clone());
        }
        let eid = EventId(self.events);
        self.events += 1;
        self.handle(event, eid)
    }

    fn events_processed(&self) -> u64 {
        self.events
    }

    fn name(&self) -> &'static str {
        "velodrome"
    }

    fn reset(&mut self) {
        VelodromeChecker::reset(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aerodrome::{run_checker, Outcome};
    use tracelog::paper_traces::{rho1, rho2, rho3, rho4};
    use tracelog::TraceBuilder;

    fn check(trace: &tracelog::Trace) -> Outcome {
        run_checker(&mut VelodromeChecker::new(), trace)
    }

    #[test]
    fn paper_traces_verdicts() {
        assert_eq!(check(&rho1()), Outcome::Serializable);
        assert!(check(&rho2()).is_violation());
        assert!(check(&rho3()).is_violation());
        assert!(check(&rho4()).is_violation());
    }

    #[test]
    fn rho3_detected_at_second_cycle_edge() {
        // Velodrome sees T2 → T1 at e5 (r(y)) and T1 → T2 at e6 (r(x)):
        // the cycle closes at e6, one event before AeroDrome's end check.
        let v = check(&rho3()).violation().cloned().unwrap();
        assert_eq!(v.event.index(), 5);
    }

    #[test]
    fn witness_cycle_is_reported() {
        let mut c = VelodromeChecker::new();
        assert!(run_checker(&mut c, &rho2()).is_violation());
        let w = c.witness().unwrap();
        assert!(w.len() >= 2, "cycle has at least two transactions");
    }

    #[test]
    fn both_gc_modes_agree() {
        for gc in [false, true] {
            let cfg = Config { gc, ..Config::default() };
            for (trace, expect) in [(rho1(), false), (rho2(), true), (rho3(), true), (rho4(), true)]
            {
                let mut c = VelodromeChecker::with_config(cfg);
                assert_eq!(run_checker(&mut c, &trace).is_violation(), expect, "gc={gc}");
            }
        }
    }

    #[test]
    fn gc_keeps_graph_small_on_independent_transactions() {
        let mut tb = TraceBuilder::new();
        let t1 = tb.thread("t1");
        let x = tb.var("x");
        for _ in 0..100 {
            tb.begin(t1).write(t1, x).end(t1);
        }
        let trace = tb.finish();
        let mut c = VelodromeChecker::new();
        assert!(!run_checker(&mut c, &trace).is_violation());
        let s = c.stats();
        assert_eq!(s.nodes_created, 100);
        assert!(s.peak_live_nodes <= 2, "GC must collapse the chain");
        assert_eq!(s.live_nodes, 0);
    }

    #[test]
    fn without_gc_graph_grows() {
        let mut tb = TraceBuilder::new();
        let t1 = tb.thread("t1");
        let x = tb.var("x");
        for _ in 0..50 {
            tb.begin(t1).write(t1, x).end(t1);
        }
        let trace = tb.finish();
        let mut c = VelodromeChecker::with_config(Config { gc: false, ..Config::default() });
        assert!(!run_checker(&mut c, &trace).is_violation());
        assert_eq!(c.stats().live_nodes, 50);
    }

    #[test]
    fn active_transactions_retain_their_successors() {
        // A live transaction writes hot; readers get incoming edges from
        // it and must stay in the graph until it completes.
        let mut tb = TraceBuilder::new();
        let (t1, t2) = (tb.thread("t1"), tb.thread("t2"));
        let hot = tb.var("hot");
        tb.begin(t1).write(t1, hot);
        for _ in 0..20 {
            tb.begin(t2).read(t2, hot).end(t2);
        }
        let trace = tb.finish(); // t1 still active: summary not closed, fine
        let mut c = VelodromeChecker::new();
        assert!(!run_checker(&mut c, &trace).is_violation());
        assert!(c.stats().live_nodes >= 21, "readers must be retained: {:?}", c.stats());
    }

    #[test]
    fn fork_and_join_edges_participate_in_cycles() {
        let mut tb = TraceBuilder::new();
        let (t1, t2) = (tb.thread("t1"), tb.thread("t2"));
        let x = tb.var("x");
        tb.begin(t1).fork(t1, t2);
        tb.begin(t2).write(t2, x).end(t2);
        tb.join(t1, t2).end(t1);
        let v = check(&tb.finish()).violation().cloned().unwrap();
        assert!(matches!(v.kind, ViolationKind::AtJoin(_)));
    }

    #[test]
    fn lock_cycle_detected_at_acquire() {
        let mut tb = TraceBuilder::new();
        let (t1, t2) = (tb.thread("t1"), tb.thread("t2"));
        let l = tb.lock("m");
        let x = tb.var("x");
        tb.begin(t1).acquire(t1, l).read(t1, x).release(t1, l);
        tb.begin(t2).acquire(t2, l).write(t2, x).release(t2, l).end(t2);
        tb.acquire(t1, l).write(t1, x).release(t1, l).end(t1);
        let v = check(&tb.finish()).violation().cloned().unwrap();
        assert!(matches!(v.kind, ViolationKind::AtAcquire(_)));
    }

    #[test]
    fn unary_transactions_chain_through_program_order() {
        // The regression cycle from the AeroDrome GC fix, seen from the
        // graph side: T1 → U → T0b → T1.
        let mut tb = TraceBuilder::new();
        let (t0, t1) = (tb.thread("t0"), tb.thread("t1"));
        let (x0, x2) = (tb.var("x0"), tb.var("x2"));
        tb.begin(t1);
        tb.read(t1, x2);
        tb.write(t0, x2); // unary
        tb.begin(t0).write(t0, x0).end(t0);
        tb.read(t1, x0);
        tb.end(t1);
        assert!(check(&tb.finish()).is_violation());
    }

    #[test]
    fn recycled_node_slots_do_not_confuse_stale_references() {
        // Heavy GC churn recycles node slots constantly; a stale
        // last-writer handle must never be revived by an unrelated
        // transaction that happens to reuse its slot.
        let mut tb = TraceBuilder::new();
        let (t1, t2) = (tb.thread("t1"), tb.thread("t2"));
        let (x, y) = (tb.var("x"), tb.var("y"));
        for _ in 0..50 {
            tb.begin(t1).write(t1, x).end(t1); // GC'd immediately
            tb.begin(t2).write(t2, y).end(t2); // reuses t1's slot
        }
        let mut c = VelodromeChecker::new();
        assert!(!run_checker(&mut c, &tb.finish()).is_violation());
        assert!(c.stats().peak_live_nodes <= 3, "{:?}", c.stats());
    }
}
