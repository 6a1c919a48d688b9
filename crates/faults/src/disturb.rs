//! Physical-disturbance cascades.
//!
//! The paper's central physical insight (§1): "when technicians move
//! fiber optical cables to reach a component, the movement of the cables
//! can cause transient packet loss in the touched cables … physical
//! motion near or with hardware creates vibrations and other physical
//! effects on the co-located hardware, which leads to additional
//! transient (or permanent!) failures". And the robotics answer (§3.3.1,
//! §3.4): task-specific grippers that "minimize accidental interaction
//! with physically close cables" and apply "no pressure on the optical
//! cable", so "a robot that knows when it will move cables also knows
//! which cables and the force applied".
//!
//! The model: every physical operation on a link carries an
//! [`ActorProfile`] (how clumsy the actor is). For each disturbance
//! neighbor of the touched link (tray-sharing or panel-adjacent, computed
//! by `dcnet`), the actor's contact probability decides whether that
//! neighbor is perturbed; perturbation is mostly a transient loss burst,
//! occasionally a new latent fault. The *contact set* is knowable in
//! advance — that is what the control plane pre-announces.

use dcmaint_dcnet::{LinkId, Topology};
use dcmaint_des::{SimDuration, Stream};

use crate::cause::RootCause;

/// How carefully an actor manipulates cables.
#[derive(Debug, Clone, Copy)]
pub struct ActorProfile {
    /// Probability of physically contacting each disturbance neighbor
    /// during an operation.
    pub contact_prob: f64,
    /// Given contact, probability of a transient loss burst on that
    /// neighbor.
    pub transient_prob: f64,
    /// Given contact, probability of inducing a new *latent* fault
    /// (permanent cascading failure).
    pub latent_prob: f64,
    /// Mean duration of induced transient bursts.
    pub burst_mean: SimDuration,
}

impl ActorProfile {
    /// A human technician working in dense cabling: wide reach, fingers
    /// and forearms brush many cables, occasionally kinks one.
    pub fn human() -> Self {
        ActorProfile {
            contact_prob: 0.55,
            transient_prob: 0.50,
            latent_prob: 0.03,
            burst_mean: SimDuration::from_secs(20),
        }
    }

    /// The §3.3.1 manipulation robot: minimized gripper surface, pressure
    /// only on the transceiver body, designed to part cables gently.
    pub fn robot() -> Self {
        ActorProfile {
            contact_prob: 0.12,
            transient_prob: 0.25,
            latent_prob: 0.002,
            burst_mean: SimDuration::from_secs(4),
        }
    }

    /// A teleoperated/supervised robot (Level 2): robot hardware but more
    /// conservative motion, between the two.
    pub fn supervised_robot() -> Self {
        ActorProfile {
            contact_prob: 0.15,
            transient_prob: 0.30,
            latent_prob: 0.004,
            burst_mean: SimDuration::from_secs(6),
        }
    }
}

/// What happened to one disturbed neighbor.
#[derive(Debug, Clone)]
pub enum DisturbanceEffect {
    /// A transient loss burst of the given length and loss rate.
    TransientBurst {
        /// Affected neighbor link.
        link: LinkId,
        /// Burst duration.
        duration: SimDuration,
        /// Loss rate during the burst.
        loss: f64,
    },
    /// A new latent fault seeded on the neighbor (will manifest as its
    /// own incident).
    LatentFault {
        /// Affected neighbor link.
        link: LinkId,
        /// The seeded cause.
        cause: RootCause,
    },
}

impl DisturbanceEffect {
    /// The affected link.
    pub fn link(&self) -> LinkId {
        match *self {
            DisturbanceEffect::TransientBurst { link, .. } => link,
            DisturbanceEffect::LatentFault { link, .. } => link,
        }
    }
}

/// The set of cables an operation on `target` may contact — §4: "a robot
/// that knows when it will move cables also knows which cables". This is
/// deterministic (topology-derived) and is what gets pre-announced.
pub fn contact_set(topo: &Topology, target: LinkId) -> Vec<LinkId> {
    topo.disturb_neighbors(target).to_vec()
}

/// Roll the dice for one physical operation on `target` by `actor`.
/// Returns the effects on neighbors (the target itself is under
/// maintenance and excluded).
pub fn disturb(
    topo: &Topology,
    target: LinkId,
    actor: &ActorProfile,
    rng: &mut Stream,
) -> Vec<DisturbanceEffect> {
    let mut effects = Vec::new();
    for &nb in topo.disturb_neighbors(target) {
        if !rng.chance(actor.contact_prob) {
            continue;
        }
        if rng.chance(actor.latent_prob) {
            // Mechanical insult: bent fiber or knocked connector.
            let cause = if rng.chance(0.6) {
                RootCause::DamagedFiber
            } else {
                RootCause::DirtyEndFace // connector knocked, seal broken
            };
            effects.push(DisturbanceEffect::LatentFault { link: nb, cause });
        } else if rng.chance(actor.transient_prob) {
            let duration = SimDuration::from_secs_f64(
                actor.burst_mean.as_secs_f64() * rng.uniform_range(0.3, 2.0),
            );
            effects.push(DisturbanceEffect::TransientBurst {
                link: nb,
                duration,
                loss: rng.uniform_range(0.01, 0.20),
            });
        }
    }
    effects
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmaint_dcnet::gen::leaf_spine;
    use dcmaint_dcnet::DiversityProfile;
    use dcmaint_des::SimRng;

    fn topo() -> Topology {
        leaf_spine(
            4,
            8,
            4,
            1,
            DiversityProfile::cloud_typical(),
            &SimRng::root(1),
        )
    }

    #[test]
    fn contact_set_matches_topology_neighbors() {
        let t = topo();
        let l = LinkId(0);
        assert_eq!(contact_set(&t, l), t.disturb_neighbors(l).to_vec());
    }

    #[test]
    fn humans_disturb_more_than_robots() {
        let t = topo();
        let mut rng = SimRng::root(2).stream("disturb", 0);
        // Pick a link with plenty of neighbors.
        let target = t
            .link_ids()
            .max_by_key(|&l| t.disturb_neighbors(l).len())
            .unwrap();
        assert!(t.disturb_neighbors(target).len() >= 4);
        let trials = 300;
        let human: usize = (0..trials)
            .map(|_| disturb(&t, target, &ActorProfile::human(), &mut rng).len())
            .sum();
        let robot: usize = (0..trials)
            .map(|_| disturb(&t, target, &ActorProfile::robot(), &mut rng).len())
            .sum();
        assert!(
            human > robot * 3,
            "human {human} vs robot {robot} disturbances"
        );
    }

    #[test]
    fn effects_target_only_neighbors() {
        let t = topo();
        let mut rng = SimRng::root(3).stream("disturb", 0);
        let target = LinkId(0);
        let neighbors: std::collections::BTreeSet<_> =
            t.disturb_neighbors(target).iter().copied().collect();
        for _ in 0..100 {
            for e in disturb(&t, target, &ActorProfile::human(), &mut rng) {
                assert!(neighbors.contains(&e.link()));
                assert_ne!(e.link(), target);
            }
        }
    }

    #[test]
    fn latent_faults_are_rare_but_present_for_humans() {
        let t = topo();
        let mut rng = SimRng::root(4).stream("disturb", 0);
        let target = t
            .link_ids()
            .max_by_key(|&l| t.disturb_neighbors(l).len())
            .unwrap();
        let mut latent = 0;
        let mut transient = 0;
        for _ in 0..2000 {
            for e in disturb(&t, target, &ActorProfile::human(), &mut rng) {
                match e {
                    DisturbanceEffect::LatentFault { .. } => latent += 1,
                    DisturbanceEffect::TransientBurst { .. } => transient += 1,
                }
            }
        }
        assert!(latent > 0, "humans occasionally cause permanent damage");
        assert!(
            transient > latent * 5,
            "transients dominate: {transient} vs {latent}"
        );
    }

    #[test]
    fn burst_parameters_sane() {
        let t = topo();
        let mut rng = SimRng::root(5).stream("disturb", 0);
        let target = LinkId(1);
        for _ in 0..500 {
            for e in disturb(&t, target, &ActorProfile::human(), &mut rng) {
                if let DisturbanceEffect::TransientBurst { duration, loss, .. } = e {
                    assert!(duration > SimDuration::ZERO);
                    assert!(duration < SimDuration::from_mins(2));
                    assert!((0.01..=0.20).contains(&loss));
                }
            }
        }
    }

    #[test]
    fn supervised_robot_between_human_and_robot() {
        let h = ActorProfile::human();
        let s = ActorProfile::supervised_robot();
        let r = ActorProfile::robot();
        assert!(h.contact_prob > s.contact_prob && s.contact_prob > r.contact_prob);
        assert!(h.latent_prob > s.latent_prob && s.latent_prob > r.latent_prob);
    }
}
