//! The five automation levels (§2.1).
//!
//! The paper adapts the SAE driving-automation taxonomy: L0 fully manual
//! through L4 fully autonomous datacenters. Crucially, the levels here
//! are *policies over the same controller*, not separate code paths — so
//! the level sweep in experiment E1 is a genuine ablation of authority,
//! not a comparison of different implementations.
//!
//! What each level changes:
//!
//! | | executes repairs | supervision | proactive | spares swap | switch replacement |
//! |---|---|---|---|---|---|
//! | L0 | humans | — | no | human | human |
//! | L1 | humans *with* the cleaning unit as a bench tool (§3.3.2 "standalone Level 1 device") | — | no | human | human |
//! | L2 | robots, teleoperated/supervised | 1 human per active robot op | no | human | human |
//! | L3 | robots, autonomous; humans only on escalation | limited (escalations only) | yes | robot | human |
//! | L4 | robots for everything | none | yes | robot | robot |

use dcmaint_faults::RepairAction;

/// Automation level per §2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AutomationLevel {
    /// No automation: skilled technicians do everything.
    L0,
    /// Operator assistance: technicians use automated devices.
    L1,
    /// Partial automation: robots under human supervision/teleoperation.
    L2,
    /// High automation: autonomous end-to-end with limited supervision.
    L3,
    /// Full automation: no human presence in the halls.
    L4,
}

/// Who performs a repair action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// A technician, bare-handed (plus hand tools).
    Human,
    /// A technician using the Level-1 assisted device (faster, higher
    /// quality cleaning — the §3.3.2 standalone mode).
    HumanWithDevice,
    /// Robot under live human supervision (Level 2).
    SupervisedRobot,
    /// Fully autonomous robot (Levels 3–4).
    AutonomousRobot,
}

dcmaint_ckpt::persist_enum!(Executor: "executor" {
    0 => Human,
    1 => HumanWithDevice,
    2 => SupervisedRobot,
    3 => AutonomousRobot,
});

impl Executor {
    /// Short label for traces and tables.
    pub fn label(self) -> &'static str {
        match self {
            Executor::Human => "human",
            Executor::HumanWithDevice => "human+device",
            Executor::SupervisedRobot => "robot-supervised",
            Executor::AutonomousRobot => "robot-auto",
        }
    }

    /// Whether a robot (supervised or autonomous) does the hands-on work.
    pub fn is_robotic(self) -> bool {
        matches!(self, Executor::SupervisedRobot | Executor::AutonomousRobot)
    }
}

impl AutomationLevel {
    /// All levels in order, for sweeps.
    pub const ALL: [AutomationLevel; 5] = [
        AutomationLevel::L0,
        AutomationLevel::L1,
        AutomationLevel::L2,
        AutomationLevel::L3,
        AutomationLevel::L4,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            AutomationLevel::L0 => "L0",
            AutomationLevel::L1 => "L1",
            AutomationLevel::L2 => "L2",
            AutomationLevel::L3 => "L3",
            AutomationLevel::L4 => "L4",
        }
    }

    /// Paper name of the level.
    pub fn name(self) -> &'static str {
        match self {
            AutomationLevel::L0 => "No Automation",
            AutomationLevel::L1 => "Operator Assistance",
            AutomationLevel::L2 => "Partial Automation",
            AutomationLevel::L3 => "High Automation",
            AutomationLevel::L4 => "Full Automation",
        }
    }

    /// Who executes the given action at this level. Switch-hardware
    /// replacement stays human until L4 (it needs lifting heavy gear,
    /// §3.4); everything else robotizes at L2.
    pub fn executor_for(self, action: RepairAction) -> Executor {
        match self {
            AutomationLevel::L0 => Executor::Human,
            AutomationLevel::L1 => match action {
                // The cleaning unit doubles as a bench tool.
                RepairAction::CleanEndFace => Executor::HumanWithDevice,
                _ => Executor::Human,
            },
            AutomationLevel::L2 => match action {
                RepairAction::ReplaceSwitchHardware | RepairAction::ReplaceCable => Executor::Human,
                _ => Executor::SupervisedRobot,
            },
            AutomationLevel::L3 => match action {
                RepairAction::ReplaceSwitchHardware => Executor::Human,
                _ => Executor::AutonomousRobot,
            },
            AutomationLevel::L4 => Executor::AutonomousRobot,
        }
    }

    /// Whether proactive/predictive campaigns are allowed: requires the
    /// robots to act without a human in the loop (L3+). §4: proactive
    /// work is only near-free when no technician time is consumed.
    pub fn proactive_allowed(self) -> bool {
        self >= AutomationLevel::L3
    }

    /// Whether a human supervisor must be reserved for the duration of a
    /// robotic operation (Level 2's defining constraint).
    pub fn needs_supervisor(self) -> bool {
        self == AutomationLevel::L2
    }

    /// Whether robot escalations ("requests human support", §3.3.2) go to
    /// a technician (true through L3) or to a remote operator outside the
    /// hall (L4 — humans "provide oversight … without needing to be
    /// physically present").
    pub fn escalation_enters_hall(self) -> bool {
        self < AutomationLevel::L4
    }
}

/// Parses a level label (`L3`) or its bare digit (`3`), in any case —
/// the one parser behind `selfmaint --level` and serve's `level=`.
impl std::str::FromStr for AutomationLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let label = s.to_ascii_uppercase();
        let label = label.strip_prefix('L').unwrap_or(&label);
        AutomationLevel::ALL
            .into_iter()
            .find(|l| &l.label()[1..] == label)
            .ok_or_else(|| format!("unknown level {s:?} (use L0..L4)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_from_labels_digits_and_lower_case() {
        for l in AutomationLevel::ALL {
            assert_eq!(l.label().parse::<AutomationLevel>(), Ok(l));
            assert_eq!(l.label().to_lowercase().parse::<AutomationLevel>(), Ok(l));
            assert_eq!(l.label()[1..].parse::<AutomationLevel>(), Ok(l));
        }
        for bad in ["L5", "5", "", "L", "LL3", "L3 ", "all"] {
            let err = bad.parse::<AutomationLevel>().unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn order_and_labels() {
        assert!(AutomationLevel::L0 < AutomationLevel::L4);
        assert_eq!(AutomationLevel::ALL.len(), 5);
        assert_eq!(AutomationLevel::L2.label(), "L2");
        assert_eq!(AutomationLevel::L3.name(), "High Automation");
    }

    #[test]
    fn l0_is_all_human() {
        for a in RepairAction::LADDER {
            assert_eq!(AutomationLevel::L0.executor_for(a), Executor::Human);
        }
    }

    #[test]
    fn l1_assists_cleaning_only() {
        assert_eq!(
            AutomationLevel::L1.executor_for(RepairAction::CleanEndFace),
            Executor::HumanWithDevice
        );
        assert_eq!(
            AutomationLevel::L1.executor_for(RepairAction::Reseat),
            Executor::Human
        );
    }

    #[test]
    fn l2_supervised_for_light_work() {
        assert_eq!(
            AutomationLevel::L2.executor_for(RepairAction::Reseat),
            Executor::SupervisedRobot
        );
        assert_eq!(
            AutomationLevel::L2.executor_for(RepairAction::ReplaceCable),
            Executor::Human
        );
        assert!(AutomationLevel::L2.needs_supervisor());
    }

    #[test]
    fn switch_replacement_humanizes_until_l4() {
        for l in [
            AutomationLevel::L0,
            AutomationLevel::L2,
            AutomationLevel::L3,
        ] {
            assert_eq!(
                l.executor_for(RepairAction::ReplaceSwitchHardware),
                Executor::Human,
                "{l:?}"
            );
        }
        assert_eq!(
            AutomationLevel::L4.executor_for(RepairAction::ReplaceSwitchHardware),
            Executor::AutonomousRobot
        );
    }

    #[test]
    fn proactive_gate() {
        assert!(!AutomationLevel::L0.proactive_allowed());
        assert!(!AutomationLevel::L2.proactive_allowed());
        assert!(AutomationLevel::L3.proactive_allowed());
        assert!(AutomationLevel::L4.proactive_allowed());
    }

    #[test]
    fn l4_keeps_humans_out_of_halls() {
        assert!(AutomationLevel::L3.escalation_enters_hall());
        assert!(!AutomationLevel::L4.escalation_enters_hall());
    }
}
