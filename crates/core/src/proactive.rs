//! Proactive maintenance campaigns — §4's worked example, literally.
//!
//! "During periods of low utilization, automation hardware can be used
//! for proactive maintenance at little to no additional cost. For
//! example, if several links on a switch have been fixed by reseating
//! transceivers, the system could proactively reseat all transceivers on
//! that switch, even if no issues have been reported."
//!
//! The planner keeps a per-switch count of reseat-fixes within a rolling
//! window. When a switch crosses the threshold *and* fabric utilization
//! is below the campaign gate, it emits a campaign: reseat (or clean)
//! every cabled port on that switch. A cooldown prevents re-campaigning
//! the same switch immediately.

use std::collections::BTreeMap;

use dcmaint_dcnet::{LinkId, NodeId, Topology};
use dcmaint_des::{SimDuration, SimTime};

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct ProactiveConfig {
    /// Reseat-fixes on one switch within the window that trigger a
    /// campaign ("several links", §4).
    pub trigger_count: usize,
    /// Rolling window for counting reseat-fixes.
    pub window: SimDuration,
    /// Fabric utilization must be below this to launch (campaigns run in
    /// the diurnal trough).
    pub utilization_gate: f64,
    /// Cooldown before the same switch can campaign again.
    pub cooldown: SimDuration,
}

impl Default for ProactiveConfig {
    fn default() -> Self {
        ProactiveConfig {
            trigger_count: 3,
            window: SimDuration::from_days(7),
            utilization_gate: 0.35,
            cooldown: SimDuration::from_days(14),
        }
    }
}

/// A launched campaign: proactively service these links (all cabled
/// ports of the switch, §4).
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The switch whose ports get serviced.
    pub switch: NodeId,
    /// Links to proactively reseat, in port order.
    pub links: Vec<LinkId>,
    /// When the campaign was decided.
    pub decided_at: SimTime,
}

/// The campaign planner.
#[derive(Debug)]
pub struct ProactivePlanner {
    cfg: ProactiveConfig,
    /// (switch → reseat-fix timestamps within window).
    fixes: BTreeMap<NodeId, Vec<SimTime>>,
    /// (switch → last campaign time).
    last_campaign: BTreeMap<NodeId, SimTime>,
}

dcmaint_ckpt::persist!(ProactivePlanner { fixes, last_campaign }
    skip { cfg: "rebuilt from the config; a tuned trigger is re-applied by its tuner" });

impl ProactivePlanner {
    /// Planner with the given config.
    pub fn new(cfg: ProactiveConfig) -> Self {
        ProactivePlanner {
            cfg,
            fixes: BTreeMap::new(),
            last_campaign: BTreeMap::new(),
        }
    }

    /// Configuration.
    pub fn config(&self) -> &ProactiveConfig {
        &self.cfg
    }

    /// Retune the campaign trigger online (autonomic Plan step). The
    /// count is clamped to ≥ 1; save/restore deliberately excludes
    /// config, so a tuner must re-apply its knob after a restore (the
    /// autonomic plane snapshots the knob itself and does exactly that).
    pub fn set_trigger_count(&mut self, count: usize) {
        self.cfg.trigger_count = count.max(1);
    }

    /// Record that a reseat fixed a link; both endpoint switches get
    /// credit (the socket could be at fault on either side).
    pub fn record_reseat_fix(&mut self, topo: &Topology, link: LinkId, now: SimTime) {
        let (a, b) = topo.endpoints(link);
        for n in [a, b] {
            if topo.node(n).is_switch() {
                self.fixes.entry(n).or_default().push(now);
            }
        }
    }

    fn trim(&mut self, now: SimTime) {
        let w = self.cfg.window;
        for v in self.fixes.values_mut() {
            v.retain(|&t| now.since(t) <= w);
        }
    }

    /// Evaluate the trigger: given current fabric utilization, return
    /// campaigns to launch now. Launched switches enter cooldown and
    /// their fix history clears.
    pub fn evaluate(&mut self, topo: &Topology, utilization: f64, now: SimTime) -> Vec<Campaign> {
        if utilization >= self.cfg.utilization_gate {
            return Vec::new();
        }
        self.trim(now);
        let mut out = Vec::new();
        let candidates: Vec<NodeId> = self
            .fixes
            .iter()
            .filter(|(_, v)| v.len() >= self.cfg.trigger_count)
            .map(|(&n, _)| n)
            .collect();
        for switch in candidates {
            if let Some(&last) = self.last_campaign.get(&switch) {
                if now.since(last) < self.cfg.cooldown {
                    continue;
                }
            }
            let links = topo.links_of(switch);
            if links.is_empty() {
                continue;
            }
            self.last_campaign.insert(switch, now);
            self.fixes.remove(&switch);
            out.push(Campaign {
                switch,
                links,
                decided_at: now,
            });
        }
        // Deterministic ordering for reproducibility.
        out.sort_by_key(|c| c.switch);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmaint_dcnet::gen::leaf_spine;
    use dcmaint_dcnet::DiversityProfile;
    use dcmaint_des::SimRng;

    fn topo() -> Topology {
        leaf_spine(
            2,
            2,
            2,
            1,
            DiversityProfile::standardized(),
            &SimRng::root(1),
        )
    }

    fn at(hours: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_hours(hours)
    }

    fn planner() -> ProactivePlanner {
        ProactivePlanner::new(ProactiveConfig::default())
    }

    #[test]
    fn no_fixes_no_campaign() {
        let t = topo();
        let mut p = planner();
        assert!(p.evaluate(&t, 0.1, at(1)).is_empty());
    }

    #[test]
    fn several_fixes_trigger_campaign_in_trough() {
        let t = topo();
        let mut p = planner();
        // Three different uplinks of spine-0 fixed by reseats.
        let spine = t.node_ids().find(|&n| t.node(n).name == "spine-0").unwrap();
        let links = t.links_of(spine);
        assert!(links.len() >= 2);
        for (i, &l) in links.iter().take(3).enumerate() {
            p.record_reseat_fix(&t, l, at(i as u64));
        }
        // links.len() is only 2 for this small fabric; add again to hit 3.
        p.record_reseat_fix(&t, links[0], at(5));
        let campaigns = p.evaluate(&t, 0.2, at(6));
        assert_eq!(campaigns.len(), 1);
        assert_eq!(campaigns[0].switch, spine);
        // Campaign covers every cabled port of the switch.
        assert_eq!(campaigns[0].links, t.links_of(spine));
    }

    #[test]
    fn utilization_gate_blocks_campaigns() {
        let t = topo();
        let mut p = planner();
        let spine = t.node_ids().find(|&n| t.node(n).name == "spine-0").unwrap();
        for i in 0..4 {
            p.record_reseat_fix(&t, t.links_of(spine)[0], at(i));
        }
        assert!(p.evaluate(&t, 0.9, at(5)).is_empty(), "peak hours: hold");
        // Both endpoint switches of the repeatedly-fixed uplink campaign.
        assert_eq!(p.evaluate(&t, 0.1, at(6)).len(), 2, "trough: go");
    }

    #[test]
    fn window_expiry_resets_count() {
        let t = topo();
        let mut p = planner();
        let spine = t.node_ids().find(|&n| t.node(n).name == "spine-0").unwrap();
        let l = t.links_of(spine)[0];
        // Three fixes, but spread over 3 weeks — never 3 within 7 days.
        p.record_reseat_fix(&t, l, at(0));
        p.record_reseat_fix(&t, l, at(10 * 24));
        p.record_reseat_fix(&t, l, at(20 * 24));
        assert!(p.evaluate(&t, 0.1, at(20 * 24 + 1)).is_empty());
    }

    #[test]
    fn cooldown_prevents_recampaign() {
        let t = topo();
        let mut p = planner();
        let spine = t.node_ids().find(|&n| t.node(n).name == "spine-0").unwrap();
        let l = t.links_of(spine)[0];
        for i in 0..3 {
            p.record_reseat_fix(&t, l, at(i));
        }
        // Both endpoints (spine and leaf) campaign.
        assert_eq!(p.evaluate(&t, 0.1, at(4)).len(), 2);
        // New fixes right after: cooldown blocks.
        for i in 5..8 {
            p.record_reseat_fix(&t, l, at(i));
        }
        assert!(p.evaluate(&t, 0.1, at(9)).is_empty());
        // After cooldown (14 d), fixes within window re-trigger.
        for i in 0..3 {
            p.record_reseat_fix(&t, l, at(15 * 24 + i));
        }
        assert_eq!(p.evaluate(&t, 0.1, at(15 * 24 + 4)).len(), 2);
    }

    #[test]
    fn both_switch_endpoints_credited() {
        let t = topo();
        let mut p = planner();
        // A leaf-spine uplink credits both the leaf and the spine.
        let uplink = t
            .link_ids()
            .find(|&l| {
                let (a, b) = t.endpoints(l);
                t.node(a).is_switch() && t.node(b).is_switch()
            })
            .unwrap();
        for i in 0..3 {
            p.record_reseat_fix(&t, uplink, at(i));
        }
        let campaigns = p.evaluate(&t, 0.1, at(4));
        assert_eq!(campaigns.len(), 2, "both endpoint switches campaign");
    }

    #[test]
    fn server_endpoint_not_credited() {
        let t = topo();
        let mut p = planner();
        let access = t
            .link_ids()
            .find(|&l| {
                let (a, b) = t.endpoints(l);
                !(t.node(a).is_switch() && t.node(b).is_switch())
            })
            .unwrap();
        for i in 0..5 {
            p.record_reseat_fix(&t, access, at(i));
        }
        let campaigns = p.evaluate(&t, 0.1, at(6));
        // Only the switch side campaigns, never the server.
        assert_eq!(campaigns.len(), 1);
        assert!(t.node(campaigns[0].switch).is_switch());
    }
}
