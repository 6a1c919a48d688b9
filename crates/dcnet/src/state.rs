//! Dynamic per-link runtime state.
//!
//! [`Topology`] records what was cabled;
//! [`NetState`] records how it is behaving *now*: link health (the failure
//! model writes this), administrative state (the maintenance control plane
//! writes this), and the current packet-loss rate that the telemetry and
//! flow models read.
//!
//! Health and admin state are deliberately independent axes: a link can be
//! `Flapping` while `InService` (the bad case the paper opens with) or
//! perfectly `Up` while `Maintenance` (a proactive campaign touching a
//! healthy link — §4's predictive-maintenance scenario).

use crate::ids::LinkId;
use crate::topology::Topology;

/// Physical-layer health of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkHealth {
    /// Nominal: negligible loss.
    Up,
    /// Gray failure: elevated steady loss (dirty end-face, weak laser).
    Degraded,
    /// Oscillating between good and bad periods (§1's "flapping link").
    Flapping,
    /// Hard down (fail-stop).
    Down,
}

impl LinkHealth {
    /// Whether the link can carry any traffic at all.
    pub fn carries_traffic(self) -> bool {
        !matches!(self, LinkHealth::Down)
    }

    /// Stable lowercase label for journals and reports.
    pub fn label(self) -> &'static str {
        match self {
            LinkHealth::Up => "up",
            LinkHealth::Degraded => "degraded",
            LinkHealth::Flapping => "flapping",
            LinkHealth::Down => "down",
        }
    }
}

/// Administrative state, owned by the maintenance control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdminState {
    /// Normal forwarding.
    InService,
    /// Empty and safe to touch.
    Drained,
    /// Physically under maintenance (robot or human hands on it).
    Maintenance,
}

dcmaint_ckpt::persist_enum!(LinkHealth: "link-health" {
    0 => Up,
    1 => Degraded,
    2 => Flapping,
    3 => Down,
});

dcmaint_ckpt::persist_enum!(AdminState: "admin-state" {
    0 => InService,
    1 => Drained,
    2 => Maintenance,
});

/// Runtime state of one link.
#[derive(Debug, Clone)]
pub struct LinkState {
    /// Physical health.
    pub health: LinkHealth,
    /// Administrative state.
    pub admin: AdminState,
    /// Current packet-loss probability in `[0, 1]`.
    pub loss_rate: f64,
}

impl Default for LinkState {
    fn default() -> Self {
        LinkState {
            health: LinkHealth::Up,
            admin: AdminState::InService,
            loss_rate: 0.0,
        }
    }
}

impl LinkState {
    /// Whether routing may place traffic on this link: physically able to
    /// carry it and administratively in service (drained and
    /// in-maintenance links are excluded even if healthy).
    pub fn routable(&self) -> bool {
        self.health.carries_traffic() && self.admin == AdminState::InService
    }
}

dcmaint_ckpt::persist!(LinkState {
    health,
    admin,
    loss_rate,
});

/// Runtime state for every link in a topology.
#[derive(Debug, Clone)]
pub struct NetState {
    links: Vec<LinkState>,
}

dcmaint_ckpt::persist!(NetState { links with dcmaint_ckpt::fixed_len });

impl NetState {
    /// All-healthy state for `topo`.
    pub fn new(topo: &Topology) -> Self {
        NetState {
            links: vec![LinkState::default(); topo.link_count()],
        }
    }

    /// State of one link.
    pub fn link(&self, l: LinkId) -> &LinkState {
        &self.links[l.index()]
    }

    /// Number of links tracked.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True when tracking no links.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Set link health and its implied loss rate.
    pub fn set_health(&mut self, l: LinkId, health: LinkHealth, loss_rate: f64) {
        let s = &mut self.links[l.index()];
        s.health = health;
        s.loss_rate = loss_rate.clamp(0.0, 1.0);
    }

    /// Set admin state.
    pub fn set_admin(&mut self, l: LinkId, admin: AdminState) {
        self.links[l.index()].admin = admin;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::DiversityProfile;
    use crate::gen::leaf_spine;
    use dcmaint_des::SimRng;

    fn topo() -> Topology {
        leaf_spine(
            2,
            2,
            1,
            1,
            DiversityProfile::standardized(),
            &SimRng::root(1),
        )
    }

    #[test]
    fn starts_all_up() {
        let t = topo();
        let s = NetState::new(&t);
        assert_eq!(s.len(), t.link_count());
        for i in 0..t.link_count() {
            let l = s.link(LinkId::from_index(i));
            assert_eq!(l.health, LinkHealth::Up);
            assert!(l.routable());
        }
    }

    #[test]
    fn down_is_not_routable() {
        let t = topo();
        let mut s = NetState::new(&t);
        s.set_health(LinkId(0), LinkHealth::Down, 1.0);
        assert!(!s.link(LinkId(0)).routable());
    }

    #[test]
    fn flapping_routes_but_lossy() {
        let t = topo();
        let mut s = NetState::new(&t);
        s.set_health(LinkId(1), LinkHealth::Flapping, 0.02);
        assert!(s.link(LinkId(1)).routable());
        assert!((s.link(LinkId(1)).loss_rate - 0.02).abs() < 1e-12);
    }

    #[test]
    fn drained_healthy_link_not_routable() {
        let t = topo();
        let mut s = NetState::new(&t);
        s.set_admin(LinkId(2), AdminState::Drained);
        assert!(!s.link(LinkId(2)).routable());
        assert!(s.link(LinkId(2)).health.carries_traffic());
    }

    #[test]
    fn loss_rate_clamped() {
        let t = topo();
        let mut s = NetState::new(&t);
        s.set_health(LinkId(0), LinkHealth::Degraded, 7.0);
        assert_eq!(s.link(LinkId(0)).loss_rate, 1.0);
        s.set_health(LinkId(0), LinkHealth::Up, -2.0);
        assert_eq!(s.link(LinkId(0)).loss_rate, 0.0);
    }
}
