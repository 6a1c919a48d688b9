//! The fault-arrival process.
//!
//! Incidents arrive as a Poisson process over the whole fabric (rate =
//! links / MTBI, modulated by environmental stress), each landing on a
//! uniformly random link; the incident's hidden cause is sampled by the
//! link's cable medium, and its manifestation (degraded / flapping /
//! down, plus loss rate) by the cause. Disturbance-seeded *latent* faults
//! enter through [`FaultInjector::seeded_incident`] with an
//! hours-to-days manifestation delay — the §1 cascading failure that
//! shows up "intermittently over time".
//!
//! A configurable fraction of gray incidents *self-heal* (the transient
//! comes and goes), producing the false-positive tickets the paper says
//! fine-grained repair control must tolerate.

use dcmaint_dcnet::{LinkHealth, LinkId, Topology};
use dcmaint_des::{Dist, SimDuration, SimRng, Stream};

use crate::cause::RootCause;

/// Injector configuration.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Mean time between incidents *per link* at nominal stress. Public
    /// fleet studies put optical-link incident rates at roughly one per
    /// link-year order-of-magnitude; experiments compress this to tens of
    /// days so 30–90-day runs see hundreds of incidents.
    pub mtbi_per_link: SimDuration,
    /// Probability a gray (non-down) incident self-heals before repair.
    pub self_heal_prob: f64,
    /// Mean self-heal delay.
    pub self_heal_mean: SimDuration,
    /// Mean delay for a seeded latent fault to manifest.
    pub latent_manifest_mean: SimDuration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            mtbi_per_link: SimDuration::from_days(60),
            self_heal_prob: 0.15,
            self_heal_mean: SimDuration::from_hours(2),
            latent_manifest_mean: SimDuration::from_hours(36),
        }
    }
}

/// A manifested incident, ready to apply to `NetState`.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Affected link.
    pub link: LinkId,
    /// Hidden root cause (repair code must not branch on this; it is
    /// carried so outcome sampling and post-hoc analysis can see it).
    pub cause: RootCause,
    /// Manifested health.
    pub health: LinkHealth,
    /// Manifested loss rate.
    pub loss: f64,
    /// If `Some`, the incident self-heals after this delay (unless
    /// repaired first).
    pub self_heal_after: Option<SimDuration>,
}

/// Stateful incident generator. One per scenario.
#[derive(Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    arrivals: Stream,
    causes: Stream,
    manifests: Stream,
}

dcmaint_ckpt::persist!(FaultInjector { arrivals, causes, manifests }
    skip { cfg: "rebuilt from the scenario's FaultConfig" });

impl FaultInjector {
    /// New injector drawing from the given RNG root.
    pub fn new(cfg: FaultConfig, rng: &SimRng) -> Self {
        FaultInjector {
            cfg,
            arrivals: rng.stream("fault-arrivals", 0),
            causes: rng.stream("fault-causes", 0),
            manifests: rng.stream("fault-manifests", 0),
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Delay until the next fabric-wide incident. `hazard_sum` is the
    /// sum of per-link hazard weights (a fleet of `n` nominal links has
    /// `hazard_sum == n`; accumulated wear raises a link's weight above
    /// 1, and maintenance resets it — this is how proactive work lowers
    /// the organic incident rate).
    pub fn arrival_delay(&mut self, hazard_sum: f64, stress: f64) -> SimDuration {
        let hazard = hazard_sum.max(1.0);
        let per_link = self.cfg.mtbi_per_link.as_secs_f64();
        let mean = per_link / (hazard * stress.max(0.1));
        Dist::Exp { mean }.sample_duration(&mut self.arrivals)
    }

    /// Generate the next organic incident on a uniformly random link.
    pub fn next_incident(&mut self, topo: &Topology) -> Incident {
        let link = LinkId::from_index(self.arrivals.index(topo.link_count()));
        let medium = topo.link(link).cable.medium;
        let cause = RootCause::sample(medium, &mut self.causes);
        self.manifest(link, cause)
    }

    /// Manifest a specific cause on a specific link (latent faults seeded
    /// by disturbance, or experiment-scripted failures).
    pub fn seeded_incident(&mut self, link: LinkId, cause: RootCause) -> Incident {
        self.manifest(link, cause)
    }

    /// Delay before a disturbance-seeded latent fault manifests.
    pub fn latent_manifest_delay(&mut self) -> SimDuration {
        Dist::Exp {
            mean: self.cfg.latent_manifest_mean.as_secs_f64(),
        }
        .sample_duration(&mut self.manifests)
    }

    /// Position the injector's RNG streams for a fork before its
    /// checkpoint loads: adopt the live donor injector's (in-memory
    /// fork) or re-derive them under a branch root (twin planning).
    pub fn reposition_streams(&mut self, rng: dcmaint_des::RngRestore<'_, FaultInjector>) {
        self.arrivals.reposition(rng.stream(|i| &i.arrivals));
        self.causes.reposition(rng.stream(|i| &i.causes));
        self.manifests.reposition(rng.stream(|i| &i.manifests));
    }

    fn manifest(&mut self, link: LinkId, cause: RootCause) -> Incident {
        let (health, loss) = cause.manifest(&mut self.manifests);
        // Only gray failures self-heal; hard-down hardware does not come
        // back on its own.
        let self_heal_after =
            if health != LinkHealth::Down && self.manifests.chance(self.cfg.self_heal_prob) {
                Some(
                    Dist::Exp {
                        mean: self.cfg.self_heal_mean.as_secs_f64(),
                    }
                    .sample_duration(&mut self.manifests),
                )
            } else {
                None
            };
        Incident {
            link,
            cause,
            health,
            loss,
            self_heal_after,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmaint_dcnet::gen::leaf_spine;
    use dcmaint_dcnet::DiversityProfile;

    fn topo() -> Topology {
        leaf_spine(
            2,
            4,
            2,
            1,
            DiversityProfile::cloud_typical(),
            &SimRng::root(1),
        )
    }

    fn injector() -> FaultInjector {
        FaultInjector::new(FaultConfig::default(), &SimRng::root(42))
    }

    #[test]
    fn arrival_rate_scales_with_links_and_stress() {
        let mut inj = injector();
        let n = 3000;
        let mean_small: f64 = (0..n)
            .map(|_| inj.arrival_delay(100.0, 1.0).as_secs_f64())
            .sum::<f64>()
            / f64::from(n);
        let mean_large: f64 = (0..n)
            .map(|_| inj.arrival_delay(1000.0, 1.0).as_secs_f64())
            .sum::<f64>()
            / f64::from(n);
        let mean_stressed: f64 = (0..n)
            .map(|_| inj.arrival_delay(100.0, 2.0).as_secs_f64())
            .sum::<f64>()
            / f64::from(n);
        assert!(
            (mean_small / mean_large - 10.0).abs() < 1.5,
            "10x links → 10x rate ({mean_small} vs {mean_large})"
        );
        assert!(
            (mean_small / mean_stressed - 2.0).abs() < 0.4,
            "2x stress → 2x rate"
        );
    }

    #[test]
    fn incidents_land_on_valid_links() {
        let t = topo();
        let mut inj = injector();
        for _ in 0..500 {
            let i = inj.next_incident(&t);
            assert!(i.link.index() < t.link_count());
            assert!(i.loss >= 0.0 && i.loss <= 1.0);
            assert_ne!(i.health, LinkHealth::Up);
        }
    }

    #[test]
    fn causes_respect_medium() {
        let t = topo();
        let mut inj = injector();
        for _ in 0..2000 {
            let i = inj.next_incident(&t);
            let medium = t.link(i.link).cable.medium;
            if i.cause == RootCause::DirtyEndFace {
                assert!(medium.is_optical(), "dirt on copper link");
            }
        }
    }

    #[test]
    fn hard_down_never_self_heals() {
        let t = topo();
        let mut inj = injector();
        for _ in 0..2000 {
            let i = inj.next_incident(&t);
            if i.health == LinkHealth::Down {
                assert!(i.self_heal_after.is_none());
            }
        }
    }

    #[test]
    fn some_gray_incidents_self_heal() {
        let t = topo();
        let mut inj = injector();
        let mut gray = 0;
        let mut heal = 0;
        for _ in 0..5000 {
            let i = inj.next_incident(&t);
            if i.health != LinkHealth::Down {
                gray += 1;
                if i.self_heal_after.is_some() {
                    heal += 1;
                }
            }
        }
        let frac = f64::from(heal) / f64::from(gray.max(1));
        assert!((frac - 0.15).abs() < 0.03, "self-heal fraction {frac}");
    }

    #[test]
    fn seeded_incident_keeps_cause() {
        let mut inj = injector();
        let i = inj.seeded_incident(LinkId(3), RootCause::DamagedFiber);
        assert_eq!(i.link, LinkId(3));
        assert_eq!(i.cause, RootCause::DamagedFiber);
    }

    #[test]
    fn latent_delay_hours_scale() {
        let mut inj = injector();
        let n = 5000;
        let mean: f64 = (0..n)
            .map(|_| inj.latent_manifest_delay().as_hours_f64())
            .sum::<f64>()
            / f64::from(n);
        assert!((mean - 36.0).abs() < 3.0, "mean {mean} h");
    }

    #[test]
    fn deterministic_across_runs() {
        let t = topo();
        let mut a = injector();
        let mut b = injector();
        for _ in 0..50 {
            let ia = a.next_incident(&t);
            let ib = b.next_incident(&t);
            assert_eq!(ia.link, ib.link);
            assert_eq!(ia.cause, ib.cause);
            assert_eq!(ia.health, ib.health);
        }
    }
}
