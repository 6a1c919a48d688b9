//! Fluid flow model: max-min fair rates and loss-driven tail latency.
//!
//! No claim in the paper is packet-granular, so flows are fluid: a demand
//! set is routed (deterministic ECMP), rates are computed by progressive
//! filling (max-min fairness), and latency comes from an analytic
//! retransmission model driven by per-link loss. This is exactly enough to
//! reproduce the §1 motivation — "the curse of a flapping link is the
//! associated increase in tail latency" — as experiment E9.
//!
//! ## Loss → latency model
//!
//! A TCP-like transport on a path with end-to-end loss probability `p`
//! retransmits; most retransmissions are fast (one extra RTT) but a
//! fraction hit timeouts (RTO ≈ 200 ms, orders of magnitude above
//! datacenter RTT ≈ 100 µs). For an N-segment transfer the expected
//! completion inflation and its tail are dominated by the probability of
//! ≥1 timeout; [`tail_latency_multiplier`] captures this with the standard
//! piecewise form: linear RTT inflation for tiny `p`, RTO-dominated growth
//! beyond `p ≈ 10⁻³`.

use crate::ids::{LinkId, NodeId};
use crate::routing::ecmp_path;
use crate::state::NetState;
use crate::topology::Topology;

/// One traffic demand (a long-running flow aggregate).
#[derive(Debug, Clone)]
pub struct Demand {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Offered load in Gbps.
    pub gbps: f64,
}

/// Result of routing + allocating one demand set.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Per-demand allocated rate in Gbps (0 for disconnected demands).
    pub rates: Vec<f64>,
    /// Per-demand path (empty for disconnected demands).
    pub paths: Vec<Vec<LinkId>>,
    /// Per-demand end-to-end loss probability.
    pub path_loss: Vec<f64>,
    /// Per-link utilization in `[0, 1]` (allocated / capacity).
    pub utilization: Vec<f64>,
    /// Demands that could not be routed.
    pub unrouted: usize,
}

impl FlowReport {
    /// Latency multiplier (vs loss-free) experienced by each demand, from
    /// its path loss. Sorted copies of this give p50/p99.
    pub fn latency_multipliers(&self) -> Vec<f64> {
        self.path_loss
            .iter()
            .map(|&p| tail_latency_multiplier(p))
            .collect()
    }

    /// The `q`-quantile of per-demand latency multipliers.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        let mut m = self.latency_multipliers();
        if m.is_empty() {
            return 1.0;
        }
        m.sort_by(|a, b| a.partial_cmp(b).expect("finite multipliers"));
        let idx = ((m.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        m[idx]
    }
}

/// Effective capacity of a link in Gbps: nominal × goodput factor. A lossy
/// link wastes capacity on retransmissions.
fn effective_capacity(topo: &Topology, state: &NetState, l: LinkId) -> f64 {
    let s = state.link(l);
    if !s.routable() {
        return 0.0;
    }
    f64::from(topo.link(l).gbps) * (1.0 - s.loss_rate).max(0.0)
}

/// Route every demand and compute max-min fair rates by progressive
/// filling over link capacities.
pub fn allocate(topo: &Topology, state: &NetState, demands: &[Demand]) -> FlowReport {
    let n_links = topo.link_count();
    let mut paths: Vec<Vec<LinkId>> = Vec::with_capacity(demands.len());
    let mut path_loss = Vec::with_capacity(demands.len());
    let mut unrouted = 0;
    for (i, d) in demands.iter().enumerate() {
        match ecmp_path(topo, state, d.src, d.dst, i as u64) {
            Some(p) => {
                let loss = 1.0
                    - p.iter()
                        .map(|&l| 1.0 - state.link(l).loss_rate)
                        .product::<f64>();
                paths.push(p);
                path_loss.push(loss.clamp(0.0, 1.0));
            }
            None => {
                unrouted += 1;
                paths.push(Vec::new());
                path_loss.push(1.0);
            }
        }
    }

    // Progressive filling: raise all unfrozen flows equally until a link
    // saturates; freeze flows on saturated links; repeat.
    let capacity: Vec<f64> = (0..n_links)
        .map(|i| effective_capacity(topo, state, LinkId::from_index(i)))
        .collect();
    let mut used = vec![0.0f64; n_links];
    let mut rate = vec![0.0f64; demands.len()];
    let mut frozen: Vec<bool> = demands
        .iter()
        .zip(&paths)
        .map(|(d, p)| p.is_empty() || d.gbps <= 0.0)
        .collect();
    // Flows also freeze when they reach their offered demand.
    for _round in 0..demands.len() + n_links + 2 {
        let active: Vec<usize> = (0..demands.len()).filter(|&i| !frozen[i]).collect();
        if active.is_empty() {
            break;
        }
        // Count active flows per link.
        let mut flows_on = vec![0u32; n_links];
        for &i in &active {
            for &l in &paths[i] {
                flows_on[l.index()] += 1;
            }
        }
        // Max uniform increment before some link saturates or some flow
        // hits its demand.
        let mut inc = f64::INFINITY;
        for li in 0..n_links {
            if flows_on[li] > 0 {
                let headroom = (capacity[li] - used[li]).max(0.0);
                inc = inc.min(headroom / f64::from(flows_on[li]));
            }
        }
        for &i in &active {
            inc = inc.min(demands[i].gbps - rate[i]);
        }
        if !inc.is_finite() {
            // Active flows with empty paths shouldn't exist; bail safely.
            break;
        }
        let inc = inc.max(0.0);
        for &i in &active {
            rate[i] += inc;
            for &l in &paths[i] {
                used[l.index()] += inc;
            }
        }
        // Freeze saturated flows.
        let mut any_frozen = false;
        for &i in &active {
            let at_demand = rate[i] >= demands[i].gbps - 1e-9;
            let on_full_link = paths[i]
                .iter()
                .any(|&l| used[l.index()] >= capacity[l.index()] - 1e-9);
            if at_demand || on_full_link {
                frozen[i] = true;
                any_frozen = true;
            }
        }
        if !any_frozen {
            break; // numeric stall guard
        }
    }

    let utilization: Vec<f64> = (0..n_links)
        .map(|i| {
            if capacity[i] <= 0.0 {
                0.0
            } else {
                (used[i] / capacity[i]).min(1.0)
            }
        })
        .collect();
    FlowReport {
        rates: rate,
        paths,
        path_loss,
        utilization,
        unrouted,
    }
}

/// Latency multiplier (relative to a loss-free path) for end-to-end loss
/// probability `p`. See the module docs for the model.
pub fn tail_latency_multiplier(p: f64) -> f64 {
    let p = p.clamp(0.0, 1.0);
    if p >= 1.0 {
        return 1e6; // disconnected; effectively infinite
    }
    // Fast-retransmit inflation: each loss costs ~1 extra RTT on average,
    // compounding as 1/(1-p).
    let fast = 1.0 / (1.0 - p);
    // Timeout term: probability that a window hits an RTO, costing
    // RTO/RTT ≈ 2000 base-RTTs. Per-transfer chance ≈ 1-(1-p)^W with
    // W ≈ 64 outstanding segments.
    let p_rto = 1.0 - (1.0 - p).powi(64);
    fast + p_rto * 2000.0 * p // weighted: only lossy tails pay full RTO
}

/// Build an all-to-all demand set over the given servers at `gbps` each,
/// skipping self-pairs. For `n` servers this is `n(n-1)` demands — use a
/// sampled subset for large fabrics.
pub fn all_to_all(servers: &[NodeId], gbps: f64) -> Vec<Demand> {
    let mut out = Vec::with_capacity(servers.len() * servers.len().saturating_sub(1));
    for &a in servers {
        for &b in servers {
            if a != b {
                out.push(Demand {
                    src: a,
                    dst: b,
                    gbps,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::DiversityProfile;
    use crate::gen::leaf_spine;
    use crate::state::LinkHealth;
    use dcmaint_des::SimRng;

    fn fabric() -> (Topology, NetState) {
        let t = leaf_spine(
            2,
            2,
            2,
            1,
            DiversityProfile::standardized(),
            &SimRng::root(1),
        );
        let s = NetState::new(&t);
        (t, s)
    }

    #[test]
    fn single_flow_gets_bottleneck_rate() {
        let (t, s) = fabric();
        let servers = t.servers();
        let d = vec![Demand {
            src: servers[0],
            dst: servers[2],
            gbps: 1000.0,
        }];
        let r = allocate(&t, &s, &d);
        // Bottleneck: 100G server access links.
        assert!((r.rates[0] - 100.0).abs() < 1e-6, "rate {}", r.rates[0]);
        assert_eq!(r.unrouted, 0);
    }

    #[test]
    fn demand_caps_rate() {
        let (t, s) = fabric();
        let servers = t.servers();
        let d = vec![Demand {
            src: servers[0],
            dst: servers[2],
            gbps: 7.5,
        }];
        let r = allocate(&t, &s, &d);
        assert!((r.rates[0] - 7.5).abs() < 1e-9);
    }

    #[test]
    fn sharing_is_fair() {
        let (t, s) = fabric();
        let servers = t.servers();
        // Two flows from the same source server share its 100G access
        // link; each should get 50G.
        let d = vec![
            Demand {
                src: servers[0],
                dst: servers[2],
                gbps: 1000.0,
            },
            Demand {
                src: servers[0],
                dst: servers[3],
                gbps: 1000.0,
            },
        ];
        let r = allocate(&t, &s, &d);
        assert!((r.rates[0] - 50.0).abs() < 1e-6);
        assert!((r.rates[1] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn disconnected_demand_reported() {
        let (t, mut s) = fabric();
        let servers = t.servers();
        let access = t.links_of(servers[0])[0];
        s.set_health(access, LinkHealth::Down, 1.0);
        let d = vec![Demand {
            src: servers[0],
            dst: servers[2],
            gbps: 10.0,
        }];
        let r = allocate(&t, &s, &d);
        assert_eq!(r.unrouted, 1);
        assert_eq!(r.rates[0], 0.0);
    }

    #[test]
    fn lossy_link_reduces_capacity_and_raises_latency() {
        let (t, mut s) = fabric();
        let servers = t.servers();
        let access = t.links_of(servers[0])[0];
        s.set_health(access, LinkHealth::Degraded, 0.10);
        let d = vec![Demand {
            src: servers[0],
            dst: servers[2],
            gbps: 1000.0,
        }];
        let r = allocate(&t, &s, &d);
        assert!((r.rates[0] - 90.0).abs() < 1e-6, "rate {}", r.rates[0]);
        assert!(r.path_loss[0] >= 0.10 - 1e-9);
        assert!(r.latency_quantile(0.5) > 1.0);
    }

    #[test]
    fn utilization_bounded() {
        let (t, s) = fabric();
        let servers = t.servers();
        let r = allocate(&t, &s, &all_to_all(&servers, 100.0));
        for &u in &r.utilization {
            assert!((0.0..=1.0).contains(&u));
        }
        assert!(r.rates.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn latency_multiplier_monotone() {
        let mut prev = 0.0;
        for &p in &[0.0, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.5] {
            let m = tail_latency_multiplier(p);
            assert!(m >= prev, "not monotone at p={p}");
            prev = m;
        }
        assert_eq!(tail_latency_multiplier(0.0), 1.0);
        assert!(tail_latency_multiplier(1.0) >= 1e6);
    }

    #[test]
    fn flapping_loss_visibly_inflates_tail() {
        // The §1 story: 2% loss on one link should inflate that path's
        // latency multiplier far above the clean paths'.
        assert!(tail_latency_multiplier(0.02) > 10.0 * tail_latency_multiplier(0.0001));
    }

    #[test]
    fn all_to_all_size() {
        let servers = vec![NodeId(0), NodeId(1), NodeId(2)];
        assert_eq!(all_to_all(&servers, 1.0).len(), 6);
    }
}
