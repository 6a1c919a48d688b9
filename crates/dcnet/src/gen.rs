//! Topology generators: leaf-spine, fat-tree, Jellyfish, Xpander.
//!
//! The first two are the deployed mainstream. The last two are the
//! expander-graph designs the paper's §4 discussion singles out: better
//! bisection per dollar but "not used [because of] the complexity of
//! deployment … the complexity to manually deploy the complex wiring
//! looms". Generating all four over the *same* physical hall model lets
//! `topomaint` quantify exactly that wiring-complexity argument (E8).
//!
//! Placement conventions (shared so comparisons are apples-to-apples):
//! ToR/leaf/edge switches sit at the top of server racks; aggregation
//! switches share pod racks; spine/core switches occupy dedicated network
//! racks in row 0. Random topologies place one switch per rack, mirroring
//! their published deployments.

use dcmaint_des::SimRng;

use crate::components::{DiversityProfile, FormFactor, SwitchSpec};
use crate::layout::{HallLayout, RackLoc};
use crate::topology::{Tier, Topology, TopologyBuilder};

/// Racks per row used by all generators.
const RACKS_PER_ROW: u32 = 16;
/// Spine/core switches packed per network rack.
const CORES_PER_RACK: u32 = 8;

fn rows_for(racks: u32) -> u32 {
    racks.div_ceil(RACKS_PER_ROW).max(1)
}

/// Leaf–spine (2-tier Clos): every leaf connects to every spine
/// `uplinks_per_pair` times; `servers_per_leaf` servers per leaf rack.
pub fn leaf_spine(
    spines: usize,
    leaves: usize,
    servers_per_leaf: usize,
    uplinks_per_pair: usize,
    diversity: DiversityProfile,
    rng: &SimRng,
) -> Topology {
    let network_racks = (spines as u32).div_ceil(CORES_PER_RACK).max(1);
    let leaf_rows = rows_for(leaves as u32);
    let layout = HallLayout::new(1 + leaf_rows, RACKS_PER_ROW.max(network_racks));
    let mut b = TopologyBuilder::new(
        &format!("leaf-spine-{spines}x{leaves}"),
        layout,
        diversity,
        rng,
    );
    let spine_ids: Vec<_> = (0..spines)
        .map(|i| {
            b.add_switch(
                &format!("spine-{i}"),
                SwitchSpec::spine64(),
                Tier::Core,
                RackLoc {
                    row: 0,
                    col: i as u32 / CORES_PER_RACK,
                },
            )
        })
        .collect();
    for leaf in 0..leaves {
        let rack = RackLoc {
            row: 1 + leaf as u32 / RACKS_PER_ROW,
            col: leaf as u32 % RACKS_PER_ROW,
        };
        let leaf_id = b.add_switch(
            &format!("leaf-{leaf}"),
            SwitchSpec::tor32(),
            Tier::Tor,
            rack,
        );
        for &spine in &spine_ids {
            for _ in 0..uplinks_per_pair.max(1) {
                b.connect(leaf_id, spine, FormFactor::QsfpDd);
            }
        }
        for s in 0..servers_per_leaf {
            let srv = b.add_server(&format!("srv-{leaf}-{s}"), rack);
            b.connect(leaf_id, srv, FormFactor::Qsfp28);
        }
    }
    b.build()
}

/// k-ary fat-tree (k even): k pods of k/2 edge + k/2 aggregation switches,
/// (k/2)² cores, (k/2)² servers per pod.
pub fn fat_tree(k: usize, diversity: DiversityProfile, rng: &SimRng) -> Topology {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree requires even k >= 2"
    );
    let half = k / 2;
    let cores = half * half;
    let network_racks = (cores as u32).div_ceil(CORES_PER_RACK).max(1);
    let layout = HallLayout::new(1 + k as u32, RACKS_PER_ROW.max(network_racks));
    let mut b = TopologyBuilder::new(&format!("fat-tree-k{k}"), layout, diversity, rng);

    let core_ids: Vec<_> = (0..cores)
        .map(|i| {
            b.add_switch(
                &format!("core-{i}"),
                SwitchSpec::spine64(),
                Tier::Core,
                RackLoc {
                    row: 0,
                    col: i as u32 / CORES_PER_RACK,
                },
            )
        })
        .collect();

    for pod in 0..k {
        let row = 1 + pod as u32;
        let edge_ids: Vec<_> = (0..half)
            .map(|e| {
                b.add_switch(
                    &format!("edge-{pod}-{e}"),
                    SwitchSpec::tor32(),
                    Tier::Tor,
                    RackLoc { row, col: e as u32 },
                )
            })
            .collect();
        let agg_ids: Vec<_> = (0..half)
            .map(|a| {
                b.add_switch(
                    &format!("agg-{pod}-{a}"),
                    SwitchSpec::tor32(),
                    Tier::Agg,
                    RackLoc { row, col: a as u32 },
                )
            })
            .collect();
        // Pod mesh: every edge to every agg.
        for &e in &edge_ids {
            for &a in &agg_ids {
                b.connect(e, a, FormFactor::QsfpDd);
            }
        }
        // Aggregation to core: agg a owns core group a.
        for (a, &agg) in agg_ids.iter().enumerate() {
            for c in 0..half {
                b.connect(agg, core_ids[a * half + c], FormFactor::QsfpDd);
            }
        }
        // Servers under each edge switch.
        for (e, &edge) in edge_ids.iter().enumerate() {
            for s in 0..half {
                let srv = b.add_server(
                    &format!("srv-{pod}-{e}-{s}"),
                    RackLoc { row, col: e as u32 },
                );
                b.connect(edge, srv, FormFactor::Qsfp28);
            }
        }
    }
    b.build()
}

/// Jellyfish (random regular graph, NSDI '12): `switches` ToRs each with
/// `degree` inter-switch links and `servers_per_switch` servers.
pub fn jellyfish(
    switches: usize,
    degree: usize,
    servers_per_switch: usize,
    diversity: DiversityProfile,
    rng: &SimRng,
) -> Topology {
    let edges = random_regular_graph(switches, degree, rng);
    build_flat_random(
        &format!("jellyfish-n{switches}-r{degree}"),
        switches,
        &edges,
        servers_per_switch,
        diversity,
        rng,
    )
}

/// Xpander (CoNEXT '16): a `lift`-lift of the complete graph K_{d+1},
/// giving `(d+1) * lift` switches of degree `d`. Deterministic structure
/// with randomized matchings.
pub fn xpander(
    d: usize,
    lift: usize,
    servers_per_switch: usize,
    diversity: DiversityProfile,
    rng: &SimRng,
) -> Topology {
    assert!(d >= 2 && lift >= 1, "xpander requires d >= 2, lift >= 1");
    let n = (d + 1) * lift;
    let mut edges = Vec::new();
    let mut stream = rng.stream("xpander-matchings", 0);
    // For each edge (u, v) of K_{d+1}, connect the lift copies of u to a
    // random permutation of the lift copies of v.
    for u in 0..=d {
        for v in (u + 1)..=d {
            let mut perm: Vec<usize> = (0..lift).collect();
            stream.shuffle(&mut perm);
            for (i, &j) in perm.iter().enumerate() {
                edges.push((u * lift + i, v * lift + j));
            }
        }
    }
    build_flat_random(
        &format!("xpander-d{d}-l{lift}"),
        n,
        &edges,
        servers_per_switch,
        diversity,
        rng,
    )
}

/// Shared builder for flat (single-tier) random topologies.
fn build_flat_random(
    name: &str,
    switches: usize,
    edges: &[(usize, usize)],
    servers_per_switch: usize,
    diversity: DiversityProfile,
    rng: &SimRng,
) -> Topology {
    let layout = HallLayout::new(rows_for(switches as u32), RACKS_PER_ROW);
    let mut b = TopologyBuilder::new(name, layout, diversity, rng);
    let ids: Vec<_> = (0..switches)
        .map(|i| {
            b.add_switch(
                &format!("tor-{i}"),
                SwitchSpec::spine64(),
                Tier::Tor,
                RackLoc {
                    row: i as u32 / RACKS_PER_ROW,
                    col: i as u32 % RACKS_PER_ROW,
                },
            )
        })
        .collect();
    for &(u, v) in edges {
        b.connect(ids[u], ids[v], FormFactor::QsfpDd);
    }
    for (i, &sw) in ids.iter().enumerate() {
        let rack = RackLoc {
            row: i as u32 / RACKS_PER_ROW,
            col: i as u32 % RACKS_PER_ROW,
        };
        for s in 0..servers_per_switch {
            let srv = b.add_server(&format!("srv-{i}-{s}"), rack);
            b.connect(ids[i], srv, FormFactor::Qsfp28);
        }
        let _ = sw;
    }
    b.build()
}

/// Random `r`-regular simple graph on `n` vertices via the pairing model
/// with conflict fixup. Requires `n * r` even and `r < n`.
fn random_regular_graph(n: usize, r: usize, rng: &SimRng) -> Vec<(usize, usize)> {
    assert!(r < n, "degree must be below vertex count");
    assert!((n * r).is_multiple_of(2), "n * r must be even");
    let mut stream = rng.stream("jellyfish-pairing", 0);
    'attempt: for _ in 0..200 {
        let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, r)).collect();
        stream.shuffle(&mut stubs);
        let mut edges: Vec<(usize, usize)> = Vec::with_capacity(n * r / 2);
        let mut seen = std::collections::BTreeSet::new();
        for pair in stubs.chunks_exact(2) {
            let (u, v) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
            if u == v || !seen.insert((u, v)) {
                // Try local fixup: swap with a random existing edge.
                let mut fixed = false;
                for _ in 0..50 {
                    if edges.is_empty() {
                        break;
                    }
                    let k = stream.index(edges.len());
                    let (x, y) = edges[k];
                    // Rewire (u,v)+(x,y) into (u,x)+(v,y).
                    let e1 = (u.min(x), u.max(x));
                    let e2 = (v.min(y), v.max(y));
                    if u != x && v != y && !seen.contains(&e1) && !seen.contains(&e2) && e1 != e2 {
                        seen.remove(&(x.min(y), x.max(y)));
                        edges[k] = e1;
                        seen.insert(e1);
                        edges.push(e2);
                        seen.insert(e2);
                        fixed = true;
                        break;
                    }
                }
                if !fixed {
                    continue 'attempt;
                }
            } else {
                edges.push((u, v));
            }
        }
        return edges;
    }
    panic!("random regular graph generation failed after 200 attempts (n={n}, r={r})");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use std::collections::{BTreeSet, VecDeque};

    fn degree_of(t: &Topology, n: NodeId) -> usize {
        t.neighbors(n).len()
    }

    fn is_connected(t: &Topology) -> bool {
        if t.node_count() == 0 {
            return true;
        }
        let mut seen = BTreeSet::new();
        let mut q = VecDeque::new();
        q.push_back(NodeId(0));
        seen.insert(NodeId(0));
        while let Some(n) = q.pop_front() {
            for &(m, _) in t.neighbors(n) {
                if seen.insert(m) {
                    q.push_back(m);
                }
            }
        }
        seen.len() == t.node_count()
    }

    #[test]
    fn leaf_spine_counts() {
        let t = leaf_spine(
            4,
            8,
            4,
            1,
            DiversityProfile::cloud_typical(),
            &SimRng::root(1),
        );
        assert_eq!(t.switches().len(), 12);
        assert_eq!(t.servers().len(), 32);
        // 8 leaves * 4 spines + 8 * 4 servers
        assert_eq!(t.link_count(), 32 + 32);
        assert!(is_connected(&t));
    }

    #[test]
    fn leaf_spine_uplink_multiplicity() {
        let t = leaf_spine(
            2,
            2,
            0,
            3,
            DiversityProfile::standardized(),
            &SimRng::root(1),
        );
        assert_eq!(t.link_count(), 2 * 2 * 3);
    }

    #[test]
    fn fat_tree_k4_structure() {
        let t = fat_tree(4, DiversityProfile::cloud_typical(), &SimRng::root(2));
        // k=4: 4 cores, 8 agg, 8 edge, 16 servers.
        assert_eq!(t.switches().len(), 20);
        assert_eq!(t.servers().len(), 16);
        // Links: pod mesh 4*2*2=16, agg-core 4*2*2=16, server 16.
        assert_eq!(t.link_count(), 48);
        assert!(is_connected(&t));
    }

    #[test]
    fn fat_tree_core_degree() {
        let t = fat_tree(4, DiversityProfile::cloud_typical(), &SimRng::root(2));
        for n in t.node_ids() {
            if t.node(n).tier() == Some(Tier::Core) {
                assert_eq!(degree_of(&t, n), 4, "core connects to one agg per pod");
            }
        }
    }

    #[test]
    #[should_panic(expected = "even k")]
    fn fat_tree_rejects_odd_k() {
        fat_tree(5, DiversityProfile::standardized(), &SimRng::root(1));
    }

    #[test]
    fn jellyfish_is_regular_and_connected() {
        let t = jellyfish(
            20,
            6,
            2,
            DiversityProfile::cloud_typical(),
            &SimRng::root(3),
        );
        assert_eq!(t.switches().len(), 20);
        assert_eq!(t.servers().len(), 40);
        for n in t.node_ids() {
            if t.node(n).is_switch() {
                // 6 switch links + 2 server links.
                assert_eq!(degree_of(&t, n), 8);
            }
        }
        assert!(is_connected(&t));
    }

    #[test]
    fn jellyfish_no_self_or_parallel_switch_edges() {
        let t = jellyfish(16, 5, 0, DiversityProfile::standardized(), &SimRng::root(4));
        let mut seen = BTreeSet::new();
        for l in t.link_ids() {
            let (a, b) = t.endpoints(l);
            assert_ne!(a, b, "self loop");
            assert!(seen.insert((a.min(b), a.max(b))), "parallel edge");
        }
    }

    #[test]
    fn xpander_counts_and_regularity() {
        let t = xpander(4, 5, 1, DiversityProfile::cloud_typical(), &SimRng::root(5));
        // (d+1)*lift = 25 switches, each degree d=4 (+1 server).
        assert_eq!(t.switches().len(), 25);
        for n in t.node_ids() {
            if t.node(n).is_switch() {
                assert_eq!(degree_of(&t, n), 5);
            }
        }
        assert!(is_connected(&t));
    }

    #[test]
    fn generators_are_deterministic() {
        let a = jellyfish(
            12,
            4,
            1,
            DiversityProfile::cloud_typical(),
            &SimRng::root(9),
        );
        let b = jellyfish(
            12,
            4,
            1,
            DiversityProfile::cloud_typical(),
            &SimRng::root(9),
        );
        let ea: Vec<_> = a.link_ids().map(|l| a.endpoints(l)).collect();
        let eb: Vec<_> = b.link_ids().map(|l| b.endpoints(l)).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn random_topologies_have_longer_cables_than_leaf_spine() {
        // The §4 deployability argument: expander wiring is physically
        // messier. With the same hall conventions, Jellyfish's random
        // peerings should produce a longer mean cable run than the
        // row-organized leaf-spine fabric of similar size.
        let rng = SimRng::root(11);
        let ls = leaf_spine(4, 16, 0, 1, DiversityProfile::standardized(), &rng);
        let jf = jellyfish(20, 6, 0, DiversityProfile::standardized(), &rng);
        let mean_m = |t: &Topology| {
            t.links().iter().map(|l| l.cable.length_m).sum::<f64>() / t.link_count() as f64
        };
        assert!(
            mean_m(&jf) > mean_m(&ls) * 0.8,
            "jellyfish {:.1} m vs leaf-spine {:.1} m",
            mean_m(&jf),
            mean_m(&ls)
        );
    }
}
