//! Routing over the live network: BFS shortest paths with ECMP tie-breaks.
//!
//! The experiments need three routing questions answered, all against the
//! *current* [`NetState`] (down/drained links excluded):
//!
//! 1. Which sampled server pairs stay connected, optionally with a few
//!    more links taken out? → availability accounting and every drain
//!    what-if. [`connected_pairs`] labels the connected components once
//!    and compares labels, so a check costs one graph traversal however
//!    many pairs it asks about, and a trial drain is an overlay on the
//!    live state rather than a clone of it.
//! 2. Which links does a flow between two nodes traverse? → flow model.
//! 3. How much path diversity survives? → drain-impact estimates used by
//!    the control plane before approving maintenance.
//!
//! Path selection is deterministic: among equal-cost next hops, a
//! flow-keyed hash picks one, so identical runs route identically and a
//! single flow never oscillates between paths (which would smear the loss
//! model across the fabric).

use std::collections::VecDeque;

use crate::ids::{LinkId, NodeId};
use crate::state::NetState;
use crate::topology::Topology;

/// BFS distances from `src` over routable links. `u32::MAX` = unreachable.
pub fn distances_from(topo: &Topology, state: &NetState, src: NodeId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; topo.node_count()];
    let mut q = VecDeque::new();
    dist[src.index()] = 0;
    q.push_back(src);
    while let Some(n) = q.pop_front() {
        let d = dist[n.index()];
        for &(m, l) in topo.neighbors(n) {
            if state.link(l).routable() && dist[m.index()] == u32::MAX {
                dist[m.index()] = d + 1;
                q.push_back(m);
            }
        }
    }
    dist
}

/// Whether `a` and `b` are connected over routable links.
pub fn connected(topo: &Topology, state: &NetState, a: NodeId, b: NodeId) -> bool {
    distances_from(topo, state, a)[b.index()] != u32::MAX
}

/// Deterministic ECMP path from `src` to `dst` as a list of links, or
/// `None` if disconnected. Among equal-cost next hops the choice is keyed
/// by `flow_key`, so distinct flows spread across the ECMP fan-out while
/// each flow is stable.
pub fn ecmp_path(
    topo: &Topology,
    state: &NetState,
    src: NodeId,
    dst: NodeId,
    flow_key: u64,
) -> Option<Vec<LinkId>> {
    if src == dst {
        return Some(Vec::new());
    }
    // Distances *to* dst so we can walk downhill from src.
    let dist = distances_from(topo, state, dst);
    if dist[src.index()] == u32::MAX {
        return None;
    }
    let mut path = Vec::with_capacity(dist[src.index()] as usize);
    let mut here = src;
    let mut hop = 0u64;
    while here != dst {
        let d_here = dist[here.index()];
        let mut candidates: Vec<(NodeId, LinkId)> = topo
            .neighbors(here)
            .iter()
            .copied()
            .filter(|&(m, l)| state.link(l).routable() && dist[m.index()] + 1 == d_here)
            .collect();
        debug_assert!(!candidates.is_empty(), "downhill neighbor must exist");
        if candidates.is_empty() {
            return None; // state changed mid-walk; treat as disconnected
        }
        // Stable ECMP choice: hash(flow_key, hop) over the sorted fan-out.
        candidates.sort_unstable_by_key(|&(_, l)| l);
        let h = splitmix(flow_key ^ hop.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let pick = (h % candidates.len() as u64) as usize;
        let (next, link) = candidates[pick];
        path.push(link);
        here = next;
        hop += 1;
    }
    Some(path)
}

/// Number of distinct equal-cost shortest paths from `src` to `dst`
/// (counted by DP over the BFS DAG, capped at `u64::MAX`). Path diversity
/// is what the control plane checks before draining a link.
pub fn ecmp_path_count(topo: &Topology, state: &NetState, src: NodeId, dst: NodeId) -> u64 {
    if src == dst {
        return 1;
    }
    let dist = distances_from(topo, state, src);
    if dist[dst.index()] == u32::MAX {
        return 0;
    }
    // Process nodes in increasing BFS distance.
    let mut order: Vec<NodeId> = topo
        .node_ids()
        .filter(|n| dist[n.index()] != u32::MAX)
        .collect();
    order.sort_unstable_by_key(|n| dist[n.index()]);
    let mut count = vec![0u64; topo.node_count()];
    count[src.index()] = 1;
    for n in order {
        let c = count[n.index()];
        if c == 0 {
            continue;
        }
        let d = dist[n.index()];
        for &(m, l) in topo.neighbors(n) {
            if state.link(l).routable() && dist[m.index()] == d + 1 {
                count[m.index()] = count[m.index()].saturating_add(c);
            }
        }
    }
    count[dst.index()]
}

/// Fraction of the given node pairs that are connected. The fleet-level
/// service-availability proxy used by several experiments.
pub fn pair_connectivity(topo: &Topology, state: &NetState, pairs: &[(NodeId, NodeId)]) -> f64 {
    if pairs.is_empty() {
        return 1.0;
    }
    connected_pairs(topo, state, &[], pairs) as f64 / pairs.len() as f64
}

/// How many of `pairs` are connected over the routable links once the
/// links in `without` are taken out as well: the what-if behind every
/// drain check. Components are labelled by a flood from each pair
/// endpoint not yet labelled, so a pair is connected exactly when its
/// two ends share a label, and the cost is one traversal of the
/// components the pairs touch. A pair `(a, a)` counts as connected.
pub fn connected_pairs(
    topo: &Topology,
    state: &NetState,
    without: &[LinkId],
    pairs: &[(NodeId, NodeId)],
) -> usize {
    let mut usable: Vec<bool> = topo.link_ids().map(|l| state.link(l).routable()).collect();
    for &l in without {
        usable[l.index()] = false;
    }
    let mut label = vec![u32::MAX; topo.node_count()];
    let mut stack = Vec::new();
    let mut next = 0;
    let mut count = 0;
    for &(a, b) in pairs {
        if label[a.index()] == u32::MAX {
            label[a.index()] = next;
            stack.push(a);
            while let Some(n) = stack.pop() {
                for &(m, l) in topo.neighbors(n) {
                    if usable[l.index()] && label[m.index()] == u32::MAX {
                        label[m.index()] = next;
                        stack.push(m);
                    }
                }
            }
            next += 1;
        }
        if label[a.index()] == label[b.index()] {
            count += 1;
        }
    }
    count
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::DiversityProfile;
    use crate::gen::{fat_tree, leaf_spine};
    use crate::state::{AdminState, LinkHealth};
    use dcmaint_des::SimRng;

    fn ls() -> (Topology, NetState) {
        let t = leaf_spine(
            2,
            3,
            2,
            1,
            DiversityProfile::standardized(),
            &SimRng::root(1),
        );
        let s = NetState::new(&t);
        (t, s)
    }

    #[test]
    fn all_pairs_connected_when_healthy() {
        let (t, s) = ls();
        let servers = t.servers();
        for &a in &servers {
            for &b in &servers {
                assert!(connected(&t, &s, a, b));
            }
        }
    }

    #[test]
    fn path_has_expected_length() {
        let (t, s) = ls();
        let servers = t.servers();
        // Different leaves: server → leaf → spine → leaf → server = 4 hops.
        let (a, b) = (servers[0], servers[2]);
        let p = ecmp_path(&t, &s, a, b, 7).unwrap();
        assert_eq!(p.len(), 4);
        // Same leaf: server → leaf → server = 2 hops.
        let p2 = ecmp_path(&t, &s, servers[0], servers[1], 7).unwrap();
        assert_eq!(p2.len(), 2);
    }

    #[test]
    fn path_is_stable_per_flow_key() {
        let (t, s) = ls();
        let servers = t.servers();
        let p1 = ecmp_path(&t, &s, servers[0], servers[4], 99).unwrap();
        let p2 = ecmp_path(&t, &s, servers[0], servers[4], 99).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn different_flow_keys_spread_over_ecmp() {
        let (t, s) = ls();
        let servers = t.servers();
        let paths: std::collections::BTreeSet<Vec<LinkId>> = (0..32)
            .map(|k| ecmp_path(&t, &s, servers[0], servers[4], k).unwrap())
            .collect();
        // 2 spines → at least 2 distinct paths should appear over 32 keys.
        assert!(paths.len() >= 2, "only {} distinct paths", paths.len());
    }

    #[test]
    fn down_link_reroutes_or_disconnects() {
        let (t, mut s) = ls();
        let servers = t.servers();
        // Kill the server's access link: the pair must disconnect.
        let access = t.links_of(servers[0])[0];
        s.set_health(access, LinkHealth::Down, 1.0);
        assert!(!connected(&t, &s, servers[0], servers[2]));
        // Other pairs unaffected.
        assert!(connected(&t, &s, servers[2], servers[4]));
    }

    #[test]
    fn spine_failure_survivable_in_leaf_spine() {
        let (t, mut s) = ls();
        // Take down every link of spine 0; leaf-spine with 2 spines
        // remains connected through spine 1.
        let spine = t.node_ids().find(|&n| t.node(n).name == "spine-0").unwrap();
        for l in t.links_of(spine) {
            s.set_health(l, LinkHealth::Down, 1.0);
        }
        let servers = t.servers();
        assert!(connected(&t, &s, servers[0], servers[4]));
    }

    #[test]
    fn ecmp_count_matches_fabric() {
        let (t, s) = ls();
        let servers = t.servers();
        // Cross-leaf: exactly one path per spine.
        assert_eq!(ecmp_path_count(&t, &s, servers[0], servers[2]), 2);
        // Same node.
        assert_eq!(ecmp_path_count(&t, &s, servers[0], servers[0]), 1);
    }

    #[test]
    fn ecmp_count_fat_tree() {
        let t = fat_tree(4, DiversityProfile::standardized(), &SimRng::root(2));
        let s = NetState::new(&t);
        let servers = t.servers();
        // Cross-pod in k=4 fat-tree: 4 core paths.
        let cross: Vec<_> = servers
            .iter()
            .filter(|&&n| t.node(n).name.starts_with("srv-0-0"))
            .chain(
                servers
                    .iter()
                    .filter(|&&n| t.node(n).name.starts_with("srv-1-0")),
            )
            .copied()
            .collect();
        let count = ecmp_path_count(&t, &s, cross[0], *cross.last().unwrap());
        assert_eq!(count, 4);
    }

    #[test]
    fn drained_links_excluded_from_routing() {
        let (t, mut s) = ls();
        let servers = t.servers();
        let access = t.links_of(servers[0])[0];
        s.set_admin(access, AdminState::Drained);
        assert!(!connected(&t, &s, servers[0], servers[2]));
    }

    #[test]
    fn pair_connectivity_fraction() {
        let (t, mut s) = ls();
        let servers = t.servers();
        let pairs: Vec<_> = (0..servers.len() - 1)
            .map(|i| (servers[i], servers[i + 1]))
            .collect();
        assert_eq!(pair_connectivity(&t, &s, &pairs), 1.0);
        let access = t.links_of(servers[0])[0];
        s.set_health(access, LinkHealth::Down, 1.0);
        let frac = pair_connectivity(&t, &s, &pairs);
        assert!(frac < 1.0 && frac > 0.5);
    }

    #[test]
    fn empty_pairs_is_full_connectivity() {
        let (t, s) = ls();
        assert_eq!(pair_connectivity(&t, &s, &[]), 1.0);
    }
}
