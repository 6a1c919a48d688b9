//! Drain planning and pre-contact announcements — the cross-layer
//! co-design at the heart of the paper.
//!
//! §2: "Proactive measures can be taken, such as temporarily migrating
//! loads from physical hardware adjacent to the hardware being repaired.
//! For example, in networking, automation can report which network
//! cables will be contacted before the maintenance occurs." §4 asks for
//! "control algorithms for automatic fault recovery and dynamic network
//! resource reconfiguration to ensure continuous operation during
//! repairs".
//!
//! The planner does exactly that: given a target link and the actor's
//! clumsiness profile, it computes the deterministic *contact set* (from
//! topology), checks that draining the target — and optionally the
//! riskiest contacts — leaves sampled service pairs connected, and
//! produces a [`PreContactAnnouncement`] the network control plane
//! applies before anyone touches hardware. After repair, the drain is
//! released and a verification soak runs.
//!
//! Each check is one [`connected_pairs`] call: the links drained so far
//! are an overlay on the live state, and one component labelling
//! answers every sampled pair.

use dcmaint_dcnet::routing::connected_pairs;
use dcmaint_dcnet::{AdminState, LinkId, NetState, NodeId, Topology};
use dcmaint_des::SimDuration;
use dcmaint_faults::contact_set;

/// The announcement the control plane publishes before physical work:
/// which cables will (or may) be touched, by what kind of actor, for how
/// long. §4: "a robot that knows when it will move cables also knows
/// which cables and the force applied".
#[derive(Debug, Clone)]
pub struct PreContactAnnouncement {
    /// Link being maintained.
    pub target: LinkId,
    /// Cables that may be physically contacted.
    pub contacts: Vec<LinkId>,
    /// Expected hands-on duration.
    pub expected_duration: SimDuration,
    /// Links the plan drains ahead of the work.
    pub drained: Vec<LinkId>,
}

dcmaint_ckpt::persist!(PreContactAnnouncement {
    target,
    contacts,
    expected_duration,
    drained,
});

/// Result of drain planning.
#[derive(Debug, Clone)]
pub enum DrainDecision {
    /// Safe to proceed; apply this announcement.
    Proceed(PreContactAnnouncement),
    /// Draining would disconnect service pairs; defer the maintenance
    /// (the fine-grained timing control §2 argues for).
    Defer {
        /// The link whose drain fails the connectivity check.
        blocking: LinkId,
    },
}

/// Drain planner configuration.
#[derive(Debug, Clone)]
pub struct DrainConfig {
    /// Also drain contact-set neighbors ahead of *human* work (their
    /// wide disturbance radius makes neighbor traffic unsafe). Robots
    /// touch so little that only the target is drained.
    pub drain_contacts_for_humans: bool,
    /// Maximum neighbors to drain (beyond this, defer instead — draining
    /// half a tray is itself an availability event).
    pub max_drained_neighbors: usize,
}

impl Default for DrainConfig {
    fn default() -> Self {
        DrainConfig {
            drain_contacts_for_humans: true,
            max_drained_neighbors: 6,
        }
    }
}

/// Plan maintenance on `target`. `clumsy_actor` selects whether the
/// contact set must also be drained (humans yes, robots no).
/// `service_pairs` are the sampled (src, dst) pairs whose connectivity
/// must survive the drain.
pub fn plan(
    cfg: &DrainConfig,
    topo: &Topology,
    state: &NetState,
    target: LinkId,
    clumsy_actor: bool,
    expected_duration: SimDuration,
    service_pairs: &[(NodeId, NodeId)],
) -> DrainDecision {
    let contacts = contact_set(topo, target);
    let before = connected_pairs(topo, state, &[], service_pairs);
    // The target itself must be drainable; if not, defer the repair (the
    // fine-grained timing control §2 argues for).
    let mut to_drain = vec![target];
    if connected_pairs(topo, state, &to_drain, service_pairs) < before {
        return DrainDecision::Defer { blocking: target };
    }
    if clumsy_actor && cfg.drain_contacts_for_humans {
        // Best-effort neighbor drains: protect as many contacts as the
        // fabric's redundancy allows. A neighbor whose drain would
        // disconnect service stays hot — it remains exposed to the
        // disturbance roll, which is precisely the §1 cascading risk of
        // human work on thin redundancy.
        for &nb in contacts.iter() {
            if to_drain.len() > cfg.max_drained_neighbors {
                break;
            }
            to_drain.push(nb);
            if connected_pairs(topo, state, &to_drain, service_pairs) < before {
                to_drain.pop();
            }
        }
    }
    DrainDecision::Proceed(PreContactAnnouncement {
        target,
        contacts,
        expected_duration,
        drained: to_drain,
    })
}

/// Apply an announcement: drain the listed links and mark the target as
/// under maintenance.
pub fn apply(state: &mut NetState, ann: &PreContactAnnouncement) {
    for &l in &ann.drained {
        state.set_admin(l, AdminState::Drained);
    }
    state.set_admin(ann.target, AdminState::Maintenance);
}

/// Release an announcement after repair: return all drained links to
/// service.
pub fn release(state: &mut NetState, ann: &PreContactAnnouncement) {
    for &l in &ann.drained {
        state.set_admin(l, AdminState::InService);
    }
    state.set_admin(ann.target, AdminState::InService);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmaint_dcnet::gen::leaf_spine;
    use dcmaint_dcnet::{DiversityProfile, LinkHealth};
    use dcmaint_des::SimRng;

    fn setup() -> (Topology, NetState, Vec<(NodeId, NodeId)>) {
        let t = leaf_spine(
            2,
            3,
            2,
            1,
            DiversityProfile::standardized(),
            &SimRng::root(1),
        );
        let s = NetState::new(&t);
        let servers = t.servers();
        let pairs: Vec<_> = (0..servers.len())
            .flat_map(|i| ((i + 1)..servers.len()).map(move |j| (i, j)))
            .map(|(i, j)| (servers[i], servers[j]))
            .collect();
        (t, s, pairs)
    }

    fn uplink(t: &Topology) -> LinkId {
        // A leaf-spine uplink (redundant; safe to drain).
        t.link_ids()
            .find(|&l| {
                let (a, b) = t.endpoints(l);
                t.node(a).is_switch() && t.node(b).is_switch()
            })
            .unwrap()
    }

    fn access(t: &Topology) -> LinkId {
        // A server access link (single-homed; draining disconnects).
        t.link_ids()
            .find(|&l| {
                let (a, b) = t.endpoints(l);
                !t.node(a).is_switch() || !t.node(b).is_switch()
            })
            .unwrap()
    }

    #[test]
    fn redundant_link_proceeds() {
        let (t, s, pairs) = setup();
        let d = plan(
            &DrainConfig::default(),
            &t,
            &s,
            uplink(&t),
            false,
            SimDuration::from_mins(3),
            &pairs,
        );
        match d {
            DrainDecision::Proceed(ann) => {
                assert_eq!(ann.drained, vec![uplink(&t)]);
                assert_eq!(ann.contacts, t.disturb_neighbors(uplink(&t)).to_vec());
            }
            DrainDecision::Defer { .. } => panic!("uplink drain must be safe"),
        }
    }

    #[test]
    fn single_homed_access_defers() {
        let (t, s, pairs) = setup();
        let d = plan(
            &DrainConfig::default(),
            &t,
            &s,
            access(&t),
            false,
            SimDuration::from_mins(3),
            &pairs,
        );
        match d {
            DrainDecision::Defer { blocking } => assert_eq!(blocking, access(&t)),
            DrainDecision::Proceed(_) => panic!("access drain must defer"),
        }
    }

    #[test]
    fn down_target_can_proceed() {
        // A hard-down link is already not carrying traffic; draining it
        // costs nothing and repair should proceed.
        let (t, mut s, pairs) = setup();
        let l = access(&t);
        s.set_health(l, LinkHealth::Down, 1.0);
        let d = plan(
            &DrainConfig::default(),
            &t,
            &s,
            l,
            false,
            SimDuration::from_mins(3),
            &pairs,
        );
        assert!(matches!(d, DrainDecision::Proceed(_)));
    }

    #[test]
    fn humans_get_wider_drains() {
        let (t, s, pairs) = setup();
        let l = uplink(&t);
        let robot = plan(
            &DrainConfig::default(),
            &t,
            &s,
            l,
            false,
            SimDuration::from_mins(3),
            &pairs,
        );
        let human = plan(
            &DrainConfig::default(),
            &t,
            &s,
            l,
            true,
            SimDuration::from_hours(1),
            &pairs,
        );
        let (r, h) = match (robot, human) {
            (DrainDecision::Proceed(r), DrainDecision::Proceed(h)) => (r, h),
            _ => panic!("both should proceed on the redundant fabric"),
        };
        assert_eq!(r.drained.len(), 1);
        assert!(h.drained.len() > 1, "human work drains contacts too");
        assert!(h.drained.len() <= 1 + DrainConfig::default().max_drained_neighbors);
    }

    #[test]
    fn apply_and_release_roundtrip() {
        let (t, mut s, pairs) = setup();
        let l = uplink(&t);
        let DrainDecision::Proceed(ann) = plan(
            &DrainConfig::default(),
            &t,
            &s,
            l,
            true,
            SimDuration::from_mins(10),
            &pairs,
        ) else {
            panic!("expected proceed");
        };
        apply(&mut s, &ann);
        assert_eq!(s.link(l).admin, AdminState::Maintenance);
        for &d in &ann.drained {
            if d != l {
                assert_eq!(s.link(d).admin, AdminState::Drained);
            }
        }
        // Connectivity still intact while drained (that was the check).
        assert_eq!(connected_pairs(&t, &s, &[], &pairs), pairs.len());
        release(&mut s, &ann);
        for &d in &ann.drained {
            assert_eq!(s.link(d).admin, AdminState::InService);
        }
        assert_eq!(s.link(l).admin, AdminState::InService);
    }

    #[test]
    fn degraded_fabric_tightens_the_gate() {
        // With spine-0 dead, the remaining spine's uplinks become
        // critical: draining one must now defer.
        let (t, mut s, pairs) = setup();
        let spine0 = t.node_ids().find(|&n| t.node(n).name == "spine-0").unwrap();
        for l in t.links_of(spine0) {
            s.set_health(l, LinkHealth::Down, 1.0);
        }
        let spine1 = t.node_ids().find(|&n| t.node(n).name == "spine-1").unwrap();
        let critical = t.links_of(spine1)[0];
        let d = plan(
            &DrainConfig::default(),
            &t,
            &s,
            critical,
            false,
            SimDuration::from_mins(3),
            &pairs,
        );
        assert!(
            matches!(d, DrainDecision::Defer { .. }),
            "last-path drain must defer"
        );
    }
}
