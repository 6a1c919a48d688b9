//! Robot operation state machines: phase-timed plans for the two
//! prototype units.
//!
//! **Transceiver manipulation** (Figure 1, §3.3.1): navigate to the port,
//! visually localize it among cluttered cabling, part the neighboring
//! cables, grip the pull tab (pressure on the transceiver body only),
//! extract, dwell, re-insert, verify. The grip is the mechanically risky
//! step; failures retry and ultimately escalate to a human.
//!
//! **Fiber + transceiver cleaning** (Figure 2, §3.3.2): detach the cable
//! from the transceiver, inspect every fiber core (< 30 s for 8 cores —
//! faster than a trained human), dry-clean, re-inspect, wet-clean if
//! needed, re-inspect, reassemble. "When the robot fails to verify the
//! cleanliness … it requests human support."
//!
//! Plans are produced as phase lists with sampled durations so traces can
//! show exactly where time goes (the Figure-2 demo in
//! `examples/cleaning_robot.rs` prints one).

use dcmaint_des::{SimDuration, Stream};
use dcmaint_faults::{EndFace, RobotFault, RobotFaultConfig, RobotPhaseClass};

use crate::vision::VisionModel;

/// One phase of a robot operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpPhase {
    /// Drive/slide to the target rack position.
    Navigate,
    /// Vision: recognize and localize the target port/component.
    Localize,
    /// Gently part neighboring cables to create access.
    PartCables,
    /// Grip the transceiver pull tab.
    Grip,
    /// Extract the module from the cage.
    Extract,
    /// Power-drain dwell between extract and insert (the reseat "wait a
    /// few seconds", §3.2).
    Dwell,
    /// Re-insert the module.
    Insert,
    /// Detach the fiber cable from the transceiver (cleaning unit).
    DetachCable,
    /// Inspect fiber cores (per-core imaging).
    InspectCores,
    /// Dry cleaning pass.
    CleanDry,
    /// Wet cleaning pass.
    CleanWet,
    /// Reassemble cable onto transceiver.
    Reassemble,
    /// Route a replacement cable along the tray path (§3.2: "the laying
    /// of a new fiber in trunks running beside and above the racks").
    RouteCable,
    /// Swap a hardware unit (spare transceiver or switch chassis).
    SwapHardware,
    /// Post-operation link verification (light levels, BER soak).
    Verify,
}

impl OpPhase {
    /// Mechanical class of this phase for the maintenance-plane fault
    /// model (`dcmaint_faults::robot`).
    pub fn class(self) -> RobotPhaseClass {
        match self {
            OpPhase::Navigate => RobotPhaseClass::Motion,
            OpPhase::Localize | OpPhase::InspectCores => RobotPhaseClass::Vision,
            OpPhase::Grip => RobotPhaseClass::Grip,
            OpPhase::PartCables
            | OpPhase::Extract
            | OpPhase::Insert
            | OpPhase::DetachCable
            | OpPhase::CleanDry
            | OpPhase::CleanWet
            | OpPhase::Reassemble
            | OpPhase::RouteCable => RobotPhaseClass::Actuation,
            OpPhase::SwapHardware => RobotPhaseClass::Magazine,
            OpPhase::Dwell | OpPhase::Verify => RobotPhaseClass::Passive,
        }
    }

    /// True while the serviced component is out of its cage/socket: a
    /// fault here cannot be backed out safely (§3.4's half-extracted
    /// transceiver problem).
    pub fn component_exposed(self) -> bool {
        matches!(
            self,
            OpPhase::Extract | OpPhase::Dwell | OpPhase::Insert | OpPhase::SwapHardware
        )
    }

    /// Short label for traces.
    pub fn label(self) -> &'static str {
        match self {
            OpPhase::Navigate => "navigate",
            OpPhase::Localize => "localize",
            OpPhase::PartCables => "part-cables",
            OpPhase::Grip => "grip",
            OpPhase::Extract => "extract",
            OpPhase::Dwell => "dwell",
            OpPhase::Insert => "insert",
            OpPhase::DetachCable => "detach-cable",
            OpPhase::InspectCores => "inspect-cores",
            OpPhase::CleanDry => "clean-dry",
            OpPhase::CleanWet => "clean-wet",
            OpPhase::Reassemble => "reassemble",
            OpPhase::RouteCable => "route-cable",
            OpPhase::SwapHardware => "swap-hardware",
            OpPhase::Verify => "verify",
        }
    }
}

/// A timed phase in an executed plan.
#[derive(Debug, Clone, Copy)]
pub struct TimedPhase {
    /// The phase.
    pub phase: OpPhase,
    /// Sampled duration.
    pub duration: SimDuration,
}

/// How an operation ended once maintenance-plane faults are in play.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOutcome {
    /// Completed autonomously.
    Completed,
    /// Could not finish the task; requested human support cleanly
    /// (vision gave up, cleanliness unverifiable, grip retries
    /// exhausted). The worksite is left safe.
    Escalated,
    /// The unit froze mid-operation (actuator stall or whole-unit
    /// breakdown). Nothing signals completion — only a watchdog
    /// notices.
    Stalled,
    /// The robot aborted but backed out safely: the component is
    /// re-inserted and the worksite is clean.
    AbortedSafe,
    /// The robot aborted with the component half-extracted: the link
    /// stays down and the port must be flagged for a human (§3.4).
    AbortedUnsafe,
}

dcmaint_ckpt::persist_enum!(OpOutcome: "op-outcome" {
    0 => Completed,
    1 => Escalated,
    2 => Stalled,
    3 => AbortedSafe,
    4 => AbortedUnsafe,
});

impl OpOutcome {
    /// Short label for traces and tables.
    pub fn label(self) -> &'static str {
        match self {
            OpOutcome::Completed => "completed",
            OpOutcome::Escalated => "escalated",
            OpOutcome::Stalled => "stalled",
            OpOutcome::AbortedSafe => "aborted-safe",
            OpOutcome::AbortedUnsafe => "aborted-unsafe",
        }
    }

    /// True for the two abort outcomes.
    pub fn is_abort(self) -> bool {
        matches!(self, OpOutcome::AbortedSafe | OpOutcome::AbortedUnsafe)
    }
}

/// Outcome of executing an operation plan.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// The executed phases in order, with durations.
    pub phases: Vec<TimedPhase>,
    /// Whether the operation completed autonomously.
    pub success: bool,
    /// Whether the robot requested human support.
    pub escalated: bool,
    /// Full outcome classification (redundant with `success` /
    /// `escalated` for the two legacy outcomes; richer once
    /// [`afflict`] has run).
    pub outcome: OpOutcome,
    /// The maintenance-plane fault that ended the operation, if any.
    pub fault: Option<RobotFault>,
}

impl OpResult {
    /// A plan that completed autonomously.
    pub fn completed(phases: Vec<TimedPhase>) -> Self {
        OpResult {
            phases,
            success: true,
            escalated: false,
            outcome: OpOutcome::Completed,
            fault: None,
        }
    }

    /// A plan that ended in a clean request for human support.
    pub fn escalated(phases: Vec<TimedPhase>) -> Self {
        OpResult {
            phases,
            success: false,
            escalated: true,
            outcome: OpOutcome::Escalated,
            fault: None,
        }
    }

    /// Total hands-on time.
    pub fn total(&self) -> SimDuration {
        self.phases
            .iter()
            .fold(SimDuration::ZERO, |acc, p| acc + p.duration)
    }

    /// Time spent in one phase kind.
    pub fn time_in(&self, phase: OpPhase) -> SimDuration {
        self.phases
            .iter()
            .filter(|p| p.phase == phase)
            .fold(SimDuration::ZERO, |acc, p| acc + p.duration)
    }
}

/// Run a planned operation through the maintenance-plane fault model:
/// roll each phase's hazards in order and truncate the plan at the
/// first fault. The faulted phase is charged a partial duration (the
/// fault strikes uniformly within it). Outcome classification:
///
/// * any fault while the component is exposed → [`OpOutcome::AbortedUnsafe`];
/// * a freezing fault (stall / unit breakdown) elsewhere → [`OpOutcome::Stalled`];
/// * any other fault elsewhere → [`OpOutcome::AbortedSafe`] (the robot
///   backs out and re-inserts).
///
/// With hazards disabled this makes no RNG draws and returns the plan
/// unchanged, so fault-free runs are byte-identical to the
/// pre-fault-model simulator.
pub fn afflict(plan: OpResult, cfg: &RobotFaultConfig, rng: &mut Stream) -> OpResult {
    if !cfg.enabled {
        return plan;
    }
    for (i, p) in plan.phases.iter().enumerate() {
        let Some(fault) = cfg.sample_phase_fault(p.phase.class(), p.duration, rng) else {
            continue;
        };
        let mut phases: Vec<TimedPhase> = plan.phases[..i].to_vec();
        phases.push(TimedPhase {
            phase: p.phase,
            duration: p.duration.mul_f64(rng.uniform()),
        });
        let outcome = if p.phase.component_exposed() {
            OpOutcome::AbortedUnsafe
        } else if fault.freezes_unit() {
            OpOutcome::Stalled
        } else {
            OpOutcome::AbortedSafe
        };
        return OpResult {
            phases,
            success: false,
            escalated: false,
            outcome,
            fault: Some(fault),
        };
    }
    plan
}

/// Timing calibration for robot operations. Defaults reproduce the
/// paper's stated numbers (§3.3.2): per-core inspection sized so 8 cores
/// finish in < 30 s, whole reseat/clean cycles in minutes.
#[derive(Debug, Clone)]
pub struct OpTimings {
    /// Travel speed along a row (gantry/AGV), m/s.
    pub travel_speed: f64,
    /// Fixed setup/undock time per dispatch.
    pub dispatch_overhead: SimDuration,
    /// Parting neighboring cables.
    pub part_cables: SimDuration,
    /// Grip attempt time.
    pub grip: SimDuration,
    /// Extract / insert move time.
    pub extract_insert: SimDuration,
    /// Reseat dwell ("waiting a few seconds", §3.2).
    pub dwell: SimDuration,
    /// Per-core end-face imaging time. 3 s/core + setup ⇒ 8 cores ≈ 27 s,
    /// satisfying the "< 30 s, less than a well-trained human" claim.
    pub inspect_per_core: SimDuration,
    /// Inspection rig setup per inspection pass.
    pub inspect_setup: SimDuration,
    /// Dry-clean pass (all cores).
    pub clean_dry: SimDuration,
    /// Wet-clean pass (all cores).
    pub clean_wet: SimDuration,
    /// Cable detach / reassemble.
    pub detach_reassemble: SimDuration,
    /// Link verification soak after physical work.
    pub verify: SimDuration,
    /// Mechanical grip failure probability per attempt (diversity adds).
    pub grip_failure_base: f64,
    /// Grip retries before escalation.
    pub grip_retries: u32,
    /// Routing a replacement cable, per meter of tray path (the slow,
    /// §3.2 "not trivial" part of a cable swap).
    pub route_cable_per_m: SimDuration,
    /// Fixed overhead of a cable swap (terminate, label, clean ends).
    pub route_cable_setup: SimDuration,
    /// Swapping a transceiver module from the on-board spares.
    pub swap_transceiver: SimDuration,
    /// Robotic switch-chassis swap (L4 only; includes re-plugging every
    /// cabled port).
    pub swap_switch: SimDuration,
}

impl Default for OpTimings {
    fn default() -> Self {
        OpTimings {
            travel_speed: 0.5,
            dispatch_overhead: SimDuration::from_secs(20),
            part_cables: SimDuration::from_secs(15),
            grip: SimDuration::from_secs(8),
            extract_insert: SimDuration::from_secs(6),
            dwell: SimDuration::from_secs(10),
            inspect_per_core: SimDuration::from_secs(3),
            inspect_setup: SimDuration::from_secs(3),
            clean_dry: SimDuration::from_secs(25),
            clean_wet: SimDuration::from_secs(40),
            detach_reassemble: SimDuration::from_secs(20),
            verify: SimDuration::from_secs(45),
            grip_failure_base: 0.015,
            grip_retries: 3,
            route_cable_per_m: SimDuration::from_secs(150),
            route_cable_setup: SimDuration::from_mins(18),
            swap_transceiver: SimDuration::from_secs(90),
            swap_switch: SimDuration::from_mins(95),
        }
    }
}

impl OpTimings {
    /// Travel time over `distance_m` meters plus dispatch overhead.
    pub fn travel(&self, distance_m: f64) -> SimDuration {
        self.dispatch_overhead
            + SimDuration::from_secs_f64(distance_m.max(0.0) / self.travel_speed.max(0.05))
    }

    /// Inspection time for an end-face with `cores` cores (one pass).
    pub fn inspection(&self, cores: u8) -> SimDuration {
        self.inspect_setup + self.inspect_per_core * u64::from(cores.max(1))
    }
}

/// Jitter a nominal duration by ±20% (mechanical repeatability).
fn jitter(d: SimDuration, rng: &mut Stream) -> SimDuration {
    d.mul_f64(rng.uniform_range(0.8, 1.2))
}

/// Execute a transceiver *reseat* (Figure 1 robot). `diversity` and
/// `density` drive the vision model; grip failures retry then escalate.
pub fn run_reseat(
    t: &OpTimings,
    vision: &VisionModel,
    travel_m: f64,
    diversity: f64,
    density: f64,
    rng: &mut Stream,
) -> OpResult {
    let mut phases = vec![TimedPhase {
        phase: OpPhase::Navigate,
        duration: t.travel(travel_m),
    }];
    // Vision.
    let v = vision.recognize(diversity, density, rng);
    phases.push(TimedPhase {
        phase: OpPhase::Localize,
        duration: v.elapsed(),
    });
    if !v.success {
        return OpResult::escalated(phases);
    }
    phases.push(TimedPhase {
        phase: OpPhase::PartCables,
        duration: jitter(t.part_cables, rng),
    });
    // Grip with retries.
    let p_fail = (t.grip_failure_base + 0.05 * diversity).clamp(0.0, 0.9);
    let mut gripped = false;
    for _ in 0..t.grip_retries.max(1) {
        phases.push(TimedPhase {
            phase: OpPhase::Grip,
            duration: jitter(t.grip, rng),
        });
        if !rng.chance(p_fail) {
            gripped = true;
            break;
        }
    }
    if !gripped {
        return OpResult::escalated(phases);
    }
    for phase in [
        (OpPhase::Extract, t.extract_insert),
        (OpPhase::Dwell, t.dwell),
        (OpPhase::Insert, t.extract_insert),
        (OpPhase::Verify, t.verify),
    ] {
        phases.push(TimedPhase {
            phase: phase.0,
            duration: jitter(phase.1, rng),
        });
    }
    OpResult::completed(phases)
}

/// Execute the full cleaning pipeline (Figure 2 robot) against real
/// contamination state. Mutates `end_face` through inspection/cleaning
/// passes; on success the end-face passes IEC inspection and is mated in
/// a clean environment. Escalates to a human if it cannot verify
/// cleanliness after the wet pass (§3.3.2).
pub fn run_clean(
    t: &OpTimings,
    vision: &VisionModel,
    travel_m: f64,
    diversity: f64,
    density: f64,
    end_face: &mut EndFace,
    rng: &mut Stream,
) -> OpResult {
    let cores = end_face.core_count() as u8;
    let mut phases = vec![TimedPhase {
        phase: OpPhase::Navigate,
        duration: t.travel(travel_m),
    }];
    // The cleaning unit also needs to recognize transceiver/cable type
    // (§3.3.2: "cameras and recognition models to determine the type").
    let v = vision.recognize(diversity, density, rng);
    phases.push(TimedPhase {
        phase: OpPhase::Localize,
        duration: v.elapsed(),
    });
    if !v.success {
        return OpResult::escalated(phases);
    }
    phases.push(TimedPhase {
        phase: OpPhase::DetachCable,
        duration: jitter(t.detach_reassemble, rng),
    });
    // Inspect.
    // The robot cleans to a margin below the IEC pass threshold so the
    // final reassembly mating (which transfers a trace of dirt even in
    // the controlled environment) cannot push a marginal face back over.
    const REASSEMBLY_MARGIN: f64 = 0.04;
    let clean_enough =
        |ef: &EndFace| ef.worst() <= dcmaint_faults::EndFace::PASS_THRESHOLD - REASSEMBLY_MARGIN;
    phases.push(TimedPhase {
        phase: OpPhase::InspectCores,
        duration: t.inspection(cores),
    });
    if !clean_enough(end_face) {
        // Dry pass + re-inspect.
        phases.push(TimedPhase {
            phase: OpPhase::CleanDry,
            duration: jitter(t.clean_dry, rng),
        });
        end_face.clean_dry(rng);
        phases.push(TimedPhase {
            phase: OpPhase::InspectCores,
            duration: t.inspection(cores),
        });
        if !clean_enough(end_face) {
            // Wet pass + re-inspect.
            phases.push(TimedPhase {
                phase: OpPhase::CleanWet,
                duration: jitter(t.clean_wet, rng),
            });
            end_face.clean_wet(rng);
            phases.push(TimedPhase {
                phase: OpPhase::InspectCores,
                duration: t.inspection(cores),
            });
        }
    }
    if !clean_enough(end_face) {
        // §3.3.2: request human support.
        return OpResult::escalated(phases);
    }
    // Reassemble in the controlled environment (minimal recontamination).
    end_face.mate(false, rng);
    phases.push(TimedPhase {
        phase: OpPhase::Reassemble,
        duration: jitter(t.detach_reassemble, rng),
    });
    phases.push(TimedPhase {
        phase: OpPhase::Verify,
        duration: jitter(t.verify, rng),
    });
    OpResult::completed(phases)
}

/// What a replacement operation swaps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplaceKind {
    /// Spare transceiver from the robot's magazine (§3.3.2: "the robots
    /// can carry spares").
    Transceiver,
    /// A whole cable, re-laid along its tray route of `route_m` meters.
    Cable {
        /// Tray-route length of the cable being replaced, meters.
        route_m: f64,
    },
    /// Switch chassis (Level-4 automation only).
    SwitchHardware,
}

/// Execute a hardware replacement. Structure mirrors [`run_reseat`]:
/// navigate, localize, part cables, then the kind-specific swap work,
/// then verification. Vision failures and grip failures escalate.
pub fn run_replace(
    t: &OpTimings,
    vision: &VisionModel,
    travel_m: f64,
    diversity: f64,
    density: f64,
    kind: ReplaceKind,
    rng: &mut Stream,
) -> OpResult {
    let mut phases = vec![TimedPhase {
        phase: OpPhase::Navigate,
        duration: t.travel(travel_m),
    }];
    let v = vision.recognize(diversity, density, rng);
    phases.push(TimedPhase {
        phase: OpPhase::Localize,
        duration: v.elapsed(),
    });
    if !v.success {
        return OpResult::escalated(phases);
    }
    phases.push(TimedPhase {
        phase: OpPhase::PartCables,
        duration: jitter(t.part_cables, rng),
    });
    let p_fail = (t.grip_failure_base + 0.05 * diversity).clamp(0.0, 0.9);
    let mut gripped = false;
    for _ in 0..t.grip_retries.max(1) {
        phases.push(TimedPhase {
            phase: OpPhase::Grip,
            duration: jitter(t.grip, rng),
        });
        if !rng.chance(p_fail) {
            gripped = true;
            break;
        }
    }
    if !gripped {
        return OpResult::escalated(phases);
    }
    match kind {
        ReplaceKind::Transceiver => {
            phases.push(TimedPhase {
                phase: OpPhase::Extract,
                duration: jitter(t.extract_insert, rng),
            });
            phases.push(TimedPhase {
                phase: OpPhase::SwapHardware,
                duration: jitter(t.swap_transceiver, rng),
            });
            phases.push(TimedPhase {
                phase: OpPhase::Insert,
                duration: jitter(t.extract_insert, rng),
            });
        }
        ReplaceKind::Cable { route_m } => {
            phases.push(TimedPhase {
                phase: OpPhase::DetachCable,
                duration: jitter(t.detach_reassemble, rng),
            });
            let routing = t.route_cable_setup + t.route_cable_per_m.mul_f64(route_m.max(1.0));
            phases.push(TimedPhase {
                phase: OpPhase::RouteCable,
                duration: jitter(routing, rng),
            });
            phases.push(TimedPhase {
                phase: OpPhase::Reassemble,
                duration: jitter(t.detach_reassemble, rng),
            });
        }
        ReplaceKind::SwitchHardware => {
            phases.push(TimedPhase {
                phase: OpPhase::SwapHardware,
                duration: jitter(t.swap_switch, rng),
            });
        }
    }
    phases.push(TimedPhase {
        phase: OpPhase::Verify,
        duration: jitter(t.verify, rng),
    });
    OpResult::completed(phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmaint_des::SimRng;

    fn rng() -> Stream {
        SimRng::root(11).stream("ops", 0)
    }

    #[test]
    fn replacement_durations_ordered_by_heft() {
        let t = OpTimings::default();
        let v = VisionModel::default();
        let mut r = rng();
        let mean = |kind: ReplaceKind, r: &mut Stream| -> f64 {
            let mut tot = 0.0;
            let mut n = 0;
            for _ in 0..100 {
                let res = run_replace(&t, &v, 5.0, 0.2, 0.2, kind, r);
                if res.success {
                    tot += res.total().as_secs_f64();
                    n += 1;
                }
            }
            tot / f64::from(n.max(1))
        };
        let xcvr = mean(ReplaceKind::Transceiver, &mut r);
        let cable = mean(ReplaceKind::Cable { route_m: 12.0 }, &mut r);
        let switch = mean(ReplaceKind::SwitchHardware, &mut r);
        assert!(xcvr < cable && cable < switch, "{xcvr} {cable} {switch}");
        // Transceiver swap: minutes. Cable re-lay: ~an hour for 12 m.
        assert!(xcvr < 10.0 * 60.0, "xcvr {xcvr}s");
        assert!(
            (20.0 * 60.0..120.0 * 60.0).contains(&cable),
            "cable {cable}s"
        );
    }

    #[test]
    fn cable_replacement_scales_with_route_length() {
        let t = OpTimings::default();
        let v = VisionModel::default();
        let mut r = rng();
        let total = |m: f64, r: &mut Stream| {
            run_replace(&t, &v, 0.0, 0.0, 0.0, ReplaceKind::Cable { route_m: m }, r)
                .total()
                .as_secs_f64()
        };
        let short: f64 = (0..20).map(|_| total(2.0, &mut r)).sum();
        let long: f64 = (0..20).map(|_| total(40.0, &mut r)).sum();
        assert!(long > 2.0 * short, "short {short} long {long}");
    }

    #[test]
    fn replace_ops_escalate_on_vision_failure() {
        let t = OpTimings::default();
        let v = VisionModel {
            base_success: 0.05,
            ..VisionModel::default()
        };
        let mut r = rng();
        let res = run_replace(&t, &v, 5.0, 1.0, 1.0, ReplaceKind::Transceiver, &mut r);
        assert!(res.escalated);
    }

    #[test]
    fn eight_core_inspection_under_30s() {
        let t = OpTimings::default();
        assert!(
            t.inspection(8) < SimDuration::from_secs(30),
            "paper claim C1: {} for 8 cores",
            t.inspection(8)
        );
        // And scales with core count.
        assert!(t.inspection(16) > t.inspection(8));
    }

    #[test]
    fn reseat_takes_minutes_not_hours() {
        let t = OpTimings::default();
        let v = VisionModel::default();
        let mut r = rng();
        let mut totals = Vec::new();
        for _ in 0..200 {
            let res = run_reseat(&t, &v, 10.0, 0.3, 0.3, &mut r);
            if res.success {
                totals.push(res.total().as_secs_f64());
            }
        }
        let mean = totals.iter().sum::<f64>() / totals.len() as f64;
        assert!(
            mean > 60.0 && mean < 600.0,
            "reseat mean {mean} s should be minutes-scale"
        );
    }

    #[test]
    fn clean_cycle_is_a_few_minutes() {
        // Paper claim C2: "This entire operation currently takes a few
        // minutes."
        let t = OpTimings::default();
        let v = VisionModel::default();
        let mut r = rng();
        let mut totals = Vec::new();
        for _ in 0..200 {
            let mut ef = EndFace::contaminated(8, 0.8, &mut r);
            let res = run_clean(&t, &v, 10.0, 0.3, 0.3, &mut ef, &mut r);
            if res.success {
                totals.push(res.total().as_secs_f64());
                assert!(ef.passes_inspection());
            }
        }
        let mean = totals.iter().sum::<f64>() / totals.len() as f64;
        assert!(
            mean > 120.0 && mean < 900.0,
            "clean mean {mean} s should be a few minutes"
        );
    }

    #[test]
    fn clean_skips_wet_pass_when_dry_suffices() {
        let t = OpTimings::default();
        let v = VisionModel::default();
        let mut r = rng();
        let mut wet_used = 0;
        let mut dry_only = 0;
        for _ in 0..300 {
            let mut ef = EndFace::contaminated(8, 1.0, &mut r);
            let res = run_clean(&t, &v, 0.0, 0.0, 0.0, &mut ef, &mut r);
            if !res.success {
                continue;
            }
            if res.time_in(OpPhase::CleanWet) > SimDuration::ZERO {
                wet_used += 1;
            } else if res.time_in(OpPhase::CleanDry) > SimDuration::ZERO {
                dry_only += 1;
            }
        }
        assert!(dry_only > 0, "some cleanings finish with dry pass only");
        assert!(wet_used > 0, "stubborn contamination triggers wet pass");
    }

    #[test]
    fn clean_on_pristine_face_skips_cleaning_entirely() {
        let t = OpTimings::default();
        let v = VisionModel::default();
        let mut r = rng();
        let mut ef = EndFace::pristine(8);
        let res = run_clean(&t, &v, 0.0, 0.0, 0.0, &mut ef, &mut r);
        assert!(res.success);
        assert_eq!(res.time_in(OpPhase::CleanDry), SimDuration::ZERO);
        assert_eq!(res.time_in(OpPhase::CleanWet), SimDuration::ZERO);
    }

    #[test]
    fn high_diversity_causes_escalations() {
        let t = OpTimings::default();
        let v = VisionModel::default();
        let mut r = rng();
        let esc = (0..2000)
            .filter(|_| {
                let res = run_reseat(&t, &v, 0.0, 1.0, 1.0, &mut r);
                res.escalated
            })
            .count();
        assert!(esc > 10, "diverse cluttered fleets escalate: {esc}/2000");
        let esc0 = (0..2000)
            .filter(|_| run_reseat(&t, &v, 0.0, 0.0, 0.0, &mut r).escalated)
            .count();
        assert!(esc0 < esc / 4, "standardized fleet escalates less: {esc0}");
    }

    #[test]
    fn travel_time_scales_with_distance() {
        let t = OpTimings::default();
        let near = t.travel(1.0);
        let far = t.travel(50.0);
        assert!(far > near);
        assert_eq!(
            far.saturating_sub(near),
            SimDuration::from_secs_f64(49.0 / 0.5)
        );
    }

    #[test]
    fn phases_ordered_sensibly() {
        let t = OpTimings::default();
        let v = VisionModel::default();
        let mut r = rng();
        let res = run_reseat(&t, &v, 5.0, 0.0, 0.0, &mut r);
        assert!(res.success);
        let order: Vec<OpPhase> = res.phases.iter().map(|p| p.phase).collect();
        assert_eq!(order[0], OpPhase::Navigate);
        assert_eq!(order[1], OpPhase::Localize);
        assert_eq!(*order.last().unwrap(), OpPhase::Verify);
        let extract_pos = order.iter().position(|&p| p == OpPhase::Extract).unwrap();
        let insert_pos = order.iter().position(|&p| p == OpPhase::Insert).unwrap();
        assert!(extract_pos < insert_pos);
    }

    #[test]
    fn escalated_ops_report_partial_time() {
        // Even failed ops consume robot time (the fleet model charges it).
        let t = OpTimings::default();
        let v = VisionModel {
            base_success: 0.05,
            ..VisionModel::default()
        };
        let mut r = rng();
        let res = run_reseat(&t, &v, 5.0, 1.0, 1.0, &mut r);
        assert!(res.escalated);
        assert!(res.total() > SimDuration::from_secs(10));
    }

    fn one_phase(phase: OpPhase, secs: u64) -> OpResult {
        OpResult::completed(vec![TimedPhase {
            phase,
            duration: SimDuration::from_secs(secs),
        }])
    }

    #[test]
    fn afflict_disabled_is_identity_and_draws_nothing() {
        let t = OpTimings::default();
        let v = VisionModel::default();
        let mut r = rng();
        let plan = run_reseat(&t, &v, 5.0, 0.0, 0.0, &mut r);
        let before = plan.total();
        let mut a = rng();
        let mut b = rng();
        let out = afflict(plan, &RobotFaultConfig::default(), &mut a);
        assert_eq!(out.outcome, OpOutcome::Completed);
        assert_eq!(out.total(), before);
        assert_eq!(a.uniform(), b.uniform(), "no draws when disabled");
    }

    #[test]
    fn breakdown_outside_exposed_window_stalls() {
        let cfg = RobotFaultConfig {
            enabled: true,
            unit_mtbf: SimDuration::from_secs(1), // hazard ≈ 1 over 60 s
            ..RobotFaultConfig::default()
        };
        let mut r = rng();
        let out = afflict(one_phase(OpPhase::Navigate, 60), &cfg, &mut r);
        assert_eq!(out.outcome, OpOutcome::Stalled);
        assert_eq!(out.fault, Some(RobotFault::UnitBreakdown));
        assert!(!out.success && !out.escalated);
        assert!(
            out.total() <= SimDuration::from_secs(60),
            "partial phase charged"
        );
    }

    #[test]
    fn fault_in_exposed_window_aborts_unsafe() {
        let cfg = RobotFaultConfig {
            enabled: true,
            unit_mtbf: SimDuration::from_secs(1),
            ..RobotFaultConfig::default()
        };
        let mut r = rng();
        let out = afflict(one_phase(OpPhase::Extract, 60), &cfg, &mut r);
        assert_eq!(out.outcome, OpOutcome::AbortedUnsafe);
        assert!(out.outcome.is_abort());
    }

    #[test]
    fn recoverable_fault_outside_window_aborts_safe() {
        let cfg = RobotFaultConfig {
            enabled: true,
            unit_mtbf: SimDuration::from_hours(1_000_000),
            vision_misid_prob: 1.0,
            ..RobotFaultConfig::default()
        };
        let mut r = rng();
        let out = afflict(one_phase(OpPhase::Localize, 30), &cfg, &mut r);
        assert_eq!(out.outcome, OpOutcome::AbortedSafe);
        assert_eq!(out.fault, Some(RobotFault::VisionMisidentify));
    }

    #[test]
    fn afflict_truncates_at_first_fault() {
        let t = OpTimings::default();
        let v = VisionModel::default();
        let cfg = RobotFaultConfig::chaos();
        let mut r = rng();
        for _ in 0..200 {
            let plan = run_reseat(&t, &v, 5.0, 0.2, 0.2, &mut r);
            let planned = plan.phases.len();
            let planned_total = plan.total();
            let out = afflict(plan, &cfg, &mut r);
            assert!(out.phases.len() <= planned);
            assert!(out.total() <= planned_total);
            if out.fault.is_some() {
                assert_ne!(out.outcome, OpOutcome::Completed);
            }
        }
    }

    #[test]
    fn phase_classes_cover_exposure_semantics() {
        // Exposed phases are exactly the extract→insert/swap window.
        for p in [
            OpPhase::Extract,
            OpPhase::Dwell,
            OpPhase::Insert,
            OpPhase::SwapHardware,
        ] {
            assert!(p.component_exposed(), "{:?}", p);
        }
        for p in [
            OpPhase::Navigate,
            OpPhase::Localize,
            OpPhase::Verify,
            OpPhase::CleanDry,
        ] {
            assert!(!p.component_exposed(), "{:?}", p);
        }
        assert_eq!(OpPhase::Grip.class(), RobotPhaseClass::Grip);
        assert_eq!(OpPhase::SwapHardware.class(), RobotPhaseClass::Magazine);
    }
}
