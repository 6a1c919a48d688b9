//! Root causes, repair actions, and the efficacy matrix joining them.
//!
//! §3.2 of the paper describes the field escalation ladder: reseat →
//! clean → replace transceiver → replace cable → replace NIC/line
//! card/switch, and observes that (a) reseating is "surprisingly
//! effective" as a first step and (b) failures "frequently require
//! multiple attempts to fix … and \[are\] hard to pinpoint". Both phenomena
//! fall out of one abstraction: a hidden [`RootCause`] per incident and a
//! probability matrix of which [`RepairAction`] resolves which cause.
//! The repair workflow never sees the cause — only whether the link came
//! back — exactly like the real ticket pipeline.
//!
//! Efficacy values are calibrated to reproduce the paper's qualitative
//! claims, not measured data (none is published): reseat fixes most
//! oxidation/firmware incidents and a minority of contamination ones;
//! cleaning (separable optics only) fixes nearly all contamination;
//! replacements are near-certain for their matching hardware cause.

use dcmaint_dcnet::{CableMedium, LinkHealth};
use dcmaint_des::Stream;

/// Hidden physical root cause of a link incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RootCause {
    /// Contamination on a fiber end-face or inside the transceiver bore
    /// (§1: "dirt on an end-face … can cause the link to fail or to flap
    /// depending on what constitutes the dirt").
    DirtyEndFace,
    /// Oxidation/corrosion of the gold edge contacts ("gold is not immune
    /// from oxidation and corrosion", §3.2).
    OxidizedContact,
    /// Transceiver electronics/laser wear-out.
    TransceiverWear,
    /// Bent, crushed, or micro-cracked fiber.
    DamagedFiber,
    /// Switch-side port/ASIC/line-card fault.
    SwitchPortFault,
    /// Wedged transceiver firmware — a full power-cycle (which a reseat
    /// performs, §3.2 effect (ii)) clears it.
    FirmwareHang,
}

// Checkpoint tags: never reorder without bumping the format version.
dcmaint_ckpt::persist_enum!(RootCause: "root-cause" {
    0 => DirtyEndFace,
    1 => OxidizedContact,
    2 => TransceiverWear,
    3 => DamagedFiber,
    4 => SwitchPortFault,
    5 => FirmwareHang,
});

impl RootCause {
    /// All causes, for iteration.
    pub const ALL: [RootCause; 6] = [
        RootCause::DirtyEndFace,
        RootCause::OxidizedContact,
        RootCause::TransceiverWear,
        RootCause::DamagedFiber,
        RootCause::SwitchPortFault,
        RootCause::FirmwareHang,
    ];

    /// Short label for traces and tables.
    pub fn label(self) -> &'static str {
        match self {
            RootCause::DirtyEndFace => "dirty-endface",
            RootCause::OxidizedContact => "oxidized-contact",
            RootCause::TransceiverWear => "xcvr-wear",
            RootCause::DamagedFiber => "damaged-fiber",
            RootCause::SwitchPortFault => "switch-port",
            RootCause::FirmwareHang => "fw-hang",
        }
    }

    /// Relative incidence weight of each cause on a link of the given
    /// medium. Optical media are dominated by contamination (Zhuo et al.,
    /// SIGCOMM '17 attribute most corruption to connector contamination);
    /// copper by contact oxidation. Separable optics see more dirt than
    /// factory-sealed AOCs (their connectors were mated on-site).
    pub fn weight(self, medium: CableMedium) -> f64 {
        let optical = medium.is_optical();
        let separable = medium.is_separable();
        match self {
            RootCause::DirtyEndFace => {
                if separable {
                    0.40
                } else if optical {
                    0.10 // sealed, but bore contamination still occurs
                } else {
                    0.0
                }
            }
            RootCause::OxidizedContact => {
                if optical {
                    0.15
                } else {
                    0.45
                }
            }
            RootCause::TransceiverWear => {
                if optical {
                    0.15
                } else {
                    0.10
                }
            }
            RootCause::DamagedFiber => {
                if optical {
                    0.10
                } else {
                    0.15 // copper cable damage
                }
            }
            RootCause::SwitchPortFault => 0.08,
            RootCause::FirmwareHang => 0.12,
        }
    }

    /// Sample a cause for a new incident on the given medium.
    pub fn sample(medium: CableMedium, rng: &mut Stream) -> RootCause {
        let weights: Vec<f64> = RootCause::ALL.iter().map(|c| c.weight(medium)).collect();
        RootCause::ALL[rng.weighted_index(&weights)]
    }

    /// How the cause manifests at the link layer: health state plus loss
    /// rate. Contamination and oxidation mostly present as gray failures
    /// (degraded or flapping); hardware faults mostly as hard-down. This
    /// reproduces §1's "many failures are not fail stop".
    pub fn manifest(self, rng: &mut Stream) -> (LinkHealth, f64) {
        let r = rng.uniform();
        match self {
            RootCause::DirtyEndFace => {
                if r < 0.45 {
                    (LinkHealth::Flapping, rng.uniform_range(0.005, 0.05))
                } else if r < 0.85 {
                    (LinkHealth::Degraded, rng.uniform_range(0.001, 0.02))
                } else {
                    (LinkHealth::Down, 1.0)
                }
            }
            RootCause::OxidizedContact => {
                if r < 0.35 {
                    (LinkHealth::Flapping, rng.uniform_range(0.002, 0.03))
                } else if r < 0.70 {
                    (LinkHealth::Degraded, rng.uniform_range(0.0005, 0.01))
                } else {
                    (LinkHealth::Down, 1.0)
                }
            }
            RootCause::TransceiverWear => {
                if r < 0.30 {
                    (LinkHealth::Degraded, rng.uniform_range(0.001, 0.05))
                } else {
                    (LinkHealth::Down, 1.0)
                }
            }
            RootCause::DamagedFiber => {
                if r < 0.25 {
                    (LinkHealth::Flapping, rng.uniform_range(0.01, 0.10))
                } else {
                    (LinkHealth::Down, 1.0)
                }
            }
            RootCause::SwitchPortFault => {
                if r < 0.20 {
                    (LinkHealth::Degraded, rng.uniform_range(0.001, 0.02))
                } else {
                    (LinkHealth::Down, 1.0)
                }
            }
            RootCause::FirmwareHang => (LinkHealth::Down, 1.0),
        }
    }
}

/// The repair vocabulary shared by technicians, robots, and the control
/// plane — §3.2's escalation ladder, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RepairAction {
    /// Remove the transceiver, wait, re-insert (§3.2).
    Reseat,
    /// Detach, inspect, and clean fiber end-faces and transceiver bore
    /// (§3.2, §3.3.2). Separable optics only.
    CleanEndFace,
    /// Swap in a spare transceiver.
    ReplaceTransceiver,
    /// Lay and connect a new cable (includes the cleaning process,
    /// §3.2).
    ReplaceCable,
    /// Replace the NIC / line card / switch (§3.2's final stage).
    ReplaceSwitchHardware,
}

dcmaint_ckpt::persist_enum!(RepairAction: "repair-action" {
    0 => Reseat,
    1 => CleanEndFace,
    2 => ReplaceTransceiver,
    3 => ReplaceCable,
    4 => ReplaceSwitchHardware,
});

impl RepairAction {
    /// The escalation ladder in paper order.
    pub const LADDER: [RepairAction; 5] = [
        RepairAction::Reseat,
        RepairAction::CleanEndFace,
        RepairAction::ReplaceTransceiver,
        RepairAction::ReplaceCable,
        RepairAction::ReplaceSwitchHardware,
    ];

    /// Short label for traces and tables.
    pub fn label(self) -> &'static str {
        match self {
            RepairAction::Reseat => "reseat",
            RepairAction::CleanEndFace => "clean",
            RepairAction::ReplaceTransceiver => "repl-xcvr",
            RepairAction::ReplaceCable => "repl-cable",
            RepairAction::ReplaceSwitchHardware => "repl-switch",
        }
    }

    /// Whether the action is physically possible on the given medium.
    /// Cleaning needs a separable connector; everything else always
    /// applies (replacing an integrated cable replaces its transceivers).
    pub fn applicable(self, medium: CableMedium) -> bool {
        match self {
            RepairAction::CleanEndFace => medium.is_separable(),
            _ => true,
        }
    }

    /// Probability this action resolves an incident with the given hidden
    /// cause on the given medium. See the module docs for calibration
    /// rationale.
    pub fn efficacy(self, cause: RootCause, medium: CableMedium) -> f64 {
        if !self.applicable(medium) {
            return 0.0;
        }
        // Replacing an *integrated* cable (DAC/AEC/AOC) replaces its
        // factory-attached transceivers as well, so it inherits the
        // transceiver-swap cure rates for module-side causes.
        if self == RepairAction::ReplaceCable && !medium.is_separable() {
            return Self::table(RepairAction::ReplaceCable, cause)
                .max(Self::table(RepairAction::ReplaceTransceiver, cause));
        }
        Self::table(self, cause)
    }

    /// The base (action, cause) cure-probability table.
    fn table(action: RepairAction, cause: RootCause) -> f64 {
        use RepairAction as A;
        use RootCause as C;
        match (action, cause) {
            // Reseat: reboots firmware, refreshes contacts, sometimes
            // redistributes dirt enough to pass.
            (A::Reseat, C::FirmwareHang) => 0.90,
            (A::Reseat, C::OxidizedContact) => 0.80,
            (A::Reseat, C::DirtyEndFace) => 0.30,
            (A::Reseat, C::TransceiverWear) => 0.15,
            (A::Reseat, C::SwitchPortFault) => 0.05,
            (A::Reseat, C::DamagedFiber) => 0.02,
            // Clean: the contamination cure; includes a reseat, so it
            // inherits most of reseat's side benefits.
            (A::CleanEndFace, C::DirtyEndFace) => 0.95,
            (A::CleanEndFace, C::OxidizedContact) => 0.85,
            (A::CleanEndFace, C::FirmwareHang) => 0.90,
            (A::CleanEndFace, C::TransceiverWear) => 0.05,
            (A::CleanEndFace, C::SwitchPortFault) => 0.02,
            (A::CleanEndFace, C::DamagedFiber) => 0.05,
            // Replace transceiver: cures everything inside the module.
            (A::ReplaceTransceiver, C::TransceiverWear) => 0.97,
            (A::ReplaceTransceiver, C::OxidizedContact) => 0.95,
            (A::ReplaceTransceiver, C::FirmwareHang) => 0.98,
            (A::ReplaceTransceiver, C::DirtyEndFace) => 0.55, // cable side may stay dirty
            (A::ReplaceTransceiver, C::DamagedFiber) => 0.05,
            (A::ReplaceTransceiver, C::SwitchPortFault) => 0.05,
            // Replace cable (with fresh cleaning, §3.2): cures cable-side
            // causes; transceivers are reseated in the process.
            (A::ReplaceCable, C::DamagedFiber) => 0.97,
            (A::ReplaceCable, C::DirtyEndFace) => 0.96,
            (A::ReplaceCable, C::OxidizedContact) => 0.75,
            (A::ReplaceCable, C::FirmwareHang) => 0.90,
            (A::ReplaceCable, C::TransceiverWear) => 0.15,
            (A::ReplaceCable, C::SwitchPortFault) => 0.05,
            // Replace switch hardware: the final resort.
            (A::ReplaceSwitchHardware, C::SwitchPortFault) => 0.95,
            (A::ReplaceSwitchHardware, C::OxidizedContact) => 0.60, // new socket
            (A::ReplaceSwitchHardware, C::FirmwareHang) => 0.70,
            (A::ReplaceSwitchHardware, C::DirtyEndFace) => 0.10,
            (A::ReplaceSwitchHardware, C::TransceiverWear) => 0.10,
            (A::ReplaceSwitchHardware, C::DamagedFiber) => 0.02,
        }
    }

    /// Sample whether one attempt of this action resolves the incident.
    pub fn attempt(self, cause: RootCause, medium: CableMedium, rng: &mut Stream) -> bool {
        rng.chance(self.efficacy(cause, medium))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmaint_des::SimRng;

    const MPO: CableMedium = CableMedium::FiberMpo { cores: 8 };

    #[test]
    fn ladder_order_matches_paper() {
        assert_eq!(RepairAction::LADDER[0], RepairAction::Reseat);
        assert_eq!(RepairAction::LADDER[1], RepairAction::CleanEndFace);
        assert_eq!(RepairAction::LADDER[4], RepairAction::ReplaceSwitchHardware);
    }

    #[test]
    fn cleaning_requires_separable() {
        assert!(!RepairAction::CleanEndFace.applicable(CableMedium::Aoc));
        assert!(!RepairAction::CleanEndFace.applicable(CableMedium::Dac));
        assert!(RepairAction::CleanEndFace.applicable(MPO));
        assert_eq!(
            RepairAction::CleanEndFace.efficacy(RootCause::DirtyEndFace, CableMedium::Aoc),
            0.0
        );
    }

    #[test]
    fn reseat_is_surprisingly_effective() {
        // Expected first-attempt fix probability of a reseat over the
        // incident mix on separable optics must be substantial (the §3.2
        // claim) but well below certainty (multiple attempts needed).
        let expected: f64 = RootCause::ALL
            .iter()
            .map(|&c| c.weight(MPO) * RepairAction::Reseat.efficacy(c, MPO))
            .sum::<f64>()
            / RootCause::ALL.iter().map(|&c| c.weight(MPO)).sum::<f64>();
        assert!(
            expected > 0.30 && expected < 0.70,
            "reseat first-fix {expected}"
        );
    }

    #[test]
    fn every_cause_has_a_high_efficacy_cure() {
        for &cause in &RootCause::ALL {
            let best = RepairAction::LADDER
                .iter()
                .map(|a| a.efficacy(cause, MPO))
                .fold(0.0, f64::max);
            assert!(best >= 0.9, "{cause:?} best cure only {best}");
        }
    }

    #[test]
    fn no_medium_cause_dead_ends() {
        // On every medium, every cause that can occur there must have
        // some applicable action with >= 60% cure probability — otherwise
        // the escalation ladder loops at its top rung for days.
        let media = [
            CableMedium::Dac,
            CableMedium::Aec,
            CableMedium::Aoc,
            CableMedium::FiberLc,
            MPO,
        ];
        for medium in media {
            for &cause in &RootCause::ALL {
                if cause.weight(medium) == 0.0 {
                    continue;
                }
                let best = RepairAction::LADDER
                    .iter()
                    .map(|a| a.efficacy(cause, medium))
                    .fold(0.0, f64::max);
                assert!(
                    best >= 0.6,
                    "{cause:?} on {medium:?}: best cure only {best}"
                );
            }
        }
    }

    #[test]
    fn integrated_cable_swap_cures_module_causes() {
        // Replacing an AOC replaces its factory transceivers too.
        let aoc = CableMedium::Aoc;
        assert!(RepairAction::ReplaceCable.efficacy(RootCause::TransceiverWear, aoc) >= 0.9);
        assert!(RepairAction::ReplaceCable.efficacy(RootCause::FirmwareHang, aoc) >= 0.9);
        // On separable media the transceiver survives a cable swap.
        assert!(RepairAction::ReplaceCable.efficacy(RootCause::TransceiverWear, MPO) < 0.5);
    }

    #[test]
    fn escalation_monotone_for_contamination() {
        // For dirty end-faces the ladder should improve at the cleaning
        // step — the whole point of the cleaning robot.
        let reseat = RepairAction::Reseat.efficacy(RootCause::DirtyEndFace, MPO);
        let clean = RepairAction::CleanEndFace.efficacy(RootCause::DirtyEndFace, MPO);
        assert!(clean > 2.0 * reseat);
    }

    #[test]
    fn weights_reflect_medium() {
        // Copper has no end-face contamination.
        assert_eq!(RootCause::DirtyEndFace.weight(CableMedium::Dac), 0.0);
        // Separable optics see more dirt than sealed AOCs.
        assert!(
            RootCause::DirtyEndFace.weight(MPO) > RootCause::DirtyEndFace.weight(CableMedium::Aoc)
        );
        // Oxidation dominates on copper.
        assert!(
            RootCause::OxidizedContact.weight(CableMedium::Dac)
                > RootCause::OxidizedContact.weight(MPO)
        );
    }

    #[test]
    fn sampling_follows_weights() {
        let mut rng = SimRng::root(1).stream("cause", 0);
        let mut dirty = 0;
        let n = 20_000;
        for _ in 0..n {
            if RootCause::sample(MPO, &mut rng) == RootCause::DirtyEndFace {
                dirty += 1;
            }
        }
        let frac = f64::from(dirty) / f64::from(n);
        // Weight 0.40 over total 1.0.
        assert!((frac - 0.40).abs() < 0.02, "dirty fraction {frac}");
    }

    #[test]
    fn manifestation_is_mostly_gray_for_dirt() {
        let mut rng = SimRng::root(2).stream("manifest", 0);
        let mut hard_down = 0;
        let n = 10_000;
        for _ in 0..n {
            let (h, loss) = RootCause::DirtyEndFace.manifest(&mut rng);
            match h {
                LinkHealth::Down => {
                    hard_down += 1;
                    assert_eq!(loss, 1.0);
                }
                LinkHealth::Degraded | LinkHealth::Flapping => {
                    assert!(loss > 0.0 && loss < 0.2);
                }
                LinkHealth::Up => panic!("a fault never manifests as Up"),
            }
        }
        let frac = f64::from(hard_down) / f64::from(n);
        assert!(frac < 0.25, "dirt should be mostly gray, hard-down {frac}");
    }

    #[test]
    fn firmware_hang_is_fail_stop() {
        let mut rng = SimRng::root(3).stream("fw", 0);
        for _ in 0..100 {
            let (h, _) = RootCause::FirmwareHang.manifest(&mut rng);
            assert_eq!(h, LinkHealth::Down);
        }
    }

    #[test]
    fn attempt_statistics_match_efficacy() {
        let mut rng = SimRng::root(4).stream("attempt", 0);
        let n = 30_000;
        let fixes = (0..n)
            .filter(|_| RepairAction::Reseat.attempt(RootCause::OxidizedContact, MPO, &mut rng))
            .count();
        let frac = fixes as f64 / f64::from(n);
        assert!((frac - 0.80).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(RootCause::DirtyEndFace.label(), "dirty-endface");
        assert_eq!(RepairAction::ReplaceCable.label(), "repl-cable");
    }
}
