//! Property tests for the graph substrate: random operation sequences
//! checked against freshly recomputed oracles.

use digraph::{dfs, DiGraph, NodeId};
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Clone, Copy, Debug)]
enum GraphOp {
    AddNode,
    AddEdge(u8, u8),
    RemoveNode(u8),
}

fn op_strategy() -> impl Strategy<Value = GraphOp> {
    prop_oneof![
        3 => Just(GraphOp::AddNode),
        5 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| GraphOp::AddEdge(a, b)),
        1 => any::<u8>().prop_map(GraphOp::RemoveNode),
    ]
}

/// Reference reachability by brute-force BFS over a snapshot edge list.
fn oracle_reaches(edges: &HashSet<(NodeId, NodeId)>, from: NodeId, to: NodeId) -> bool {
    if from == to {
        return true;
    }
    let mut seen = HashSet::from([from]);
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        for &(a, b) in edges {
            if a == n && seen.insert(b) {
                if b == to {
                    return true;
                }
                stack.push(b);
            }
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn graph_state_matches_shadow_model(
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let mut g: DiGraph<u32> = DiGraph::new();
        let mut live: Vec<NodeId> = Vec::new();
        let mut shadow: HashSet<(NodeId, NodeId)> = HashSet::new();
        let mut next_weight = 0u32;

        for op in ops {
            match op {
                GraphOp::AddNode => {
                    let id = g.add_node(next_weight);
                    next_weight += 1;
                    live.push(id);
                }
                GraphOp::AddEdge(a, b) => {
                    if live.is_empty() {
                        continue;
                    }
                    let from = live[(a as usize) % live.len()];
                    let to = live[(b as usize) % live.len()];
                    g.add_edge(from, to);
                    shadow.insert((from, to));
                }
                GraphOp::RemoveNode(a) => {
                    if live.is_empty() {
                        continue;
                    }
                    let n = live.swap_remove((a as usize) % live.len());
                    g.remove_node(n);
                    shadow.retain(|&(x, y)| x != n && y != n);
                }
            }
            // Invariants after every step.
            prop_assert_eq!(g.num_nodes(), live.len());
            prop_assert_eq!(g.num_edges(), shadow.len());
            for &(x, y) in &shadow {
                prop_assert!(g.has_edge(x, y));
                prop_assert!(g.successors(x).contains(&y));
                prop_assert!(g.predecessors(y).contains(&x));
            }
            for &n in &live {
                prop_assert_eq!(g.out_degree(n), shadow.iter().filter(|&&(x, _)| x == n).count());
                prop_assert_eq!(g.in_degree(n), shadow.iter().filter(|&&(_, y)| y == n).count());
            }
        }
    }

    #[test]
    fn dfs_reachability_matches_oracle(
        ops in prop::collection::vec(op_strategy(), 1..50),
        probes in prop::collection::vec((any::<u8>(), any::<u8>()), 1..10),
    ) {
        let mut g: DiGraph<()> = DiGraph::new();
        let mut live: Vec<NodeId> = Vec::new();
        let mut shadow: HashSet<(NodeId, NodeId)> = HashSet::new();
        for op in ops {
            match op {
                GraphOp::AddNode => live.push(g.add_node(())),
                GraphOp::AddEdge(a, b) if !live.is_empty() => {
                    let from = live[(a as usize) % live.len()];
                    let to = live[(b as usize) % live.len()];
                    g.add_edge(from, to);
                    shadow.insert((from, to));
                }
                GraphOp::RemoveNode(a) if !live.is_empty() => {
                    let n = live.swap_remove((a as usize) % live.len());
                    g.remove_node(n);
                    shadow.retain(|&(x, y)| x != n && y != n);
                }
                _ => {}
            }
        }
        for (a, b) in probes {
            if live.is_empty() {
                break;
            }
            let from = live[(a as usize) % live.len()];
            let to = live[(b as usize) % live.len()];
            prop_assert_eq!(
                dfs::reaches(&g, from, to),
                oracle_reaches(&shadow, from, to)
            );
        }
    }
}
