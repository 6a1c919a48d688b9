//! The robot fleet: modular units, mobility scopes, dispatch.
//!
//! §3.4: "rather than a small number of large robots (e.g., humanoids),
//! there will be many small robotic units that will need to collaborate"
//! and "there are several potential deployment scopes … device-level
//! within the rack, rack-level, row-level, hall level". The fleet model
//! places units per row (the paper's row-level XY-plane mobility) or
//! hall-wide, dispatches the nearest available unit in seconds (vs the
//! technician pool's hours), and accounts for the robots' own downtime —
//! robots are hardware too, and §4 warns against technicians "becoming
//! the technicians of robots".

use dcmaint_dcnet::{HallLayout, RackLoc};
use dcmaint_des::{Dist, SimDuration, SimRng, SimTime, Stream};
use dcmaint_obs::{JVal, Journal};

use crate::ops::OpTimings;
use crate::vision::VisionModel;

/// Deployment scope of a mobility unit (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MobilityScope {
    /// Unit is pinned to one row, moving along it (XY gantry).
    Row,
    /// Unit can travel anywhere in the hall (AGV base).
    Hall,
}

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Mobility scope of every unit.
    pub scope: MobilityScope,
    /// Software dispatch latency (queueing, planning) — seconds, the
    /// robotic replacement for the technician triage queue.
    pub dispatch_latency: SimDuration,
    /// Probability a unit breaks down at the end of an operation.
    pub breakdown_prob: f64,
    /// Median robot repair time (a human fixes the robot).
    pub repair_median: SimDuration,
    /// Spare transceivers carried per unit (§3.3.2: "the robots can carry
    /// spares").
    pub spares_per_unit: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            scope: MobilityScope::Row,
            dispatch_latency: SimDuration::from_secs(30),
            breakdown_prob: 0.008,
            repair_median: SimDuration::from_hours(4),
            spares_per_unit: 4,
        }
    }
}

/// Health of a robot unit. The lifecycle is Healthy → Degraded (after
/// a fault involvement, e.g. a stall or abort) → Down (breakdown) →
/// repaired back to Healthy; a unit can also go straight Healthy →
/// Down on a hard breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitHealth {
    /// Fully operational.
    Healthy,
    /// Operational but suspect after a fault: subsequent hands-on work
    /// runs at [`RobotFleet::DEGRADED_SLOWDOWN`].
    Degraded,
    /// Broken down, awaiting human repair.
    Down,
}

impl UnitHealth {
    /// Short label for traces and tables.
    pub fn label(self) -> &'static str {
        match self {
            UnitHealth::Healthy => "healthy",
            UnitHealth::Degraded => "degraded",
            UnitHealth::Down => "down",
        }
    }
}

/// One robot unit's live state.
#[derive(Debug, Clone)]
pub struct RobotUnit {
    /// Home row (Row scope) or garage row (Hall scope).
    pub home_row: u32,
    /// Busy with an operation until this instant.
    pub busy_until: SimTime,
    /// Broken down until this instant.
    pub down_until: SimTime,
    /// Spare transceivers remaining on board.
    pub spares: u32,
    /// Operations completed.
    pub ops_done: u64,
    /// Cumulative busy time.
    pub busy_time: SimDuration,
    /// Sticky degraded flag (cleared by repair / `mark_repaired`).
    pub degraded: bool,
    /// Breakdowns suffered (post-op and mid-op).
    pub breakdowns: u64,
    /// Repairs completed on this unit.
    pub repairs: u64,
}

dcmaint_ckpt::persist!(RobotUnit {
    home_row,
    busy_until,
    down_until,
    spares,
    ops_done,
    busy_time,
    degraded,
    breakdowns,
    repairs,
});

impl RobotUnit {
    fn fresh(home_row: u32, spares: u32) -> Self {
        RobotUnit {
            home_row,
            busy_until: SimTime::ZERO,
            down_until: SimTime::ZERO,
            spares,
            ops_done: 0,
            busy_time: SimDuration::ZERO,
            degraded: false,
            breakdowns: 0,
            repairs: 0,
        }
    }

    /// Effective health at `now`.
    pub fn health(&self, now: SimTime) -> UnitHealth {
        if self.down_until > now {
            UnitHealth::Down
        } else if self.degraded {
            UnitHealth::Degraded
        } else {
            UnitHealth::Healthy
        }
    }
}

/// A booked robot dispatch.
#[derive(Debug, Clone, Copy)]
pub struct RobotAssignment {
    /// Index of the unit.
    pub unit: usize,
    /// When the unit starts moving (dispatch granted).
    pub start: SimTime,
    /// Travel distance covered, meters.
    pub travel_m: f64,
    /// Total occupancy: travel (per this unit's actual distance) plus
    /// the hands-on work.
    pub total: SimDuration,
}

/// The fleet.
#[derive(Debug)]
pub struct RobotFleet {
    cfg: FleetConfig,
    /// Shared operation timing calibration.
    pub timings: OpTimings,
    /// Shared vision model.
    pub vision: VisionModel,
    units: Vec<RobotUnit>,
    rng: Stream,
    journal: Journal,
}

dcmaint_ckpt::persist!(RobotFleet { units, rng } skip {
    cfg: "rebuilt from the scenario's FleetConfig",
    timings: "calibration constants",
    vision: "calibration constants",
    journal: "event sink; the engine attaches its own",
});

impl RobotFleet {
    /// Deploy `per_row` units in each of the layout's rows.
    pub fn per_row(layout: &HallLayout, per_row: usize, cfg: FleetConfig, rng: &SimRng) -> Self {
        let mut units = Vec::new();
        for row in 0..layout.rows {
            for _ in 0..per_row {
                units.push(RobotUnit::fresh(row, cfg.spares_per_unit));
            }
        }
        RobotFleet {
            cfg,
            timings: OpTimings::default(),
            vision: VisionModel::default(),
            units,
            rng: rng.stream("robot-fleet", 0),
            journal: Journal::disabled(),
        }
    }

    /// Deploy a fixed number of hall-scope units (garaged in row 0).
    pub fn hall_pool(count: usize, cfg: FleetConfig, rng: &SimRng) -> Self {
        let cfg = FleetConfig {
            scope: MobilityScope::Hall,
            ..cfg
        };
        let units = (0..count)
            .map(|_| RobotUnit::fresh(0, cfg.spares_per_unit))
            .collect();
        RobotFleet {
            cfg,
            timings: OpTimings::default(),
            vision: VisionModel::default(),
            units,
            rng: rng.stream("robot-fleet", 0),
            journal: Journal::disabled(),
        }
    }

    /// Attach an event journal; unit-health transitions (degrade,
    /// freeze, breakdown, repair) are emitted into it. Disabled by
    /// default.
    pub fn set_journal(&mut self, journal: Journal) {
        self.journal = journal;
    }

    /// Configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True if the fleet has no units (Level-0 deployments).
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Access a unit.
    pub fn unit(&self, i: usize) -> &RobotUnit {
        &self.units[i]
    }

    fn travel_distance(&self, layout: &HallLayout, unit: &RobotUnit, rack: RackLoc) -> Option<f64> {
        match self.cfg.scope {
            MobilityScope::Row => {
                if unit.home_row != rack.row {
                    return None;
                }
                // Gantry runs the row; average position is mid-row.
                Some(f64::from(layout.racks_per_row) * layout.rack_width_m / 2.0)
            }
            MobilityScope::Hall => Some(layout.walk_distance_m(
                RackLoc {
                    row: unit.home_row,
                    col: 0,
                },
                rack,
            )),
        }
    }

    /// Book the best unit for hands-on work of `hands_on` at `rack`,
    /// starting no earlier than `now`. Travel time is computed from the
    /// chosen unit's actual distance (hall AGVs pay cross-row trips that
    /// row gantries don't) and added to the unit's occupancy. Returns
    /// `None` if no unit can ever reach the rack (wrong row under Row
    /// scope) — the caller falls back to a human.
    pub fn assign(
        &mut self,
        layout: &HallLayout,
        now: SimTime,
        rack: RackLoc,
        hands_on: SimDuration,
    ) -> Option<RobotAssignment> {
        self.assign_excluding(layout, now, rack, hands_on, None)
    }

    /// Hands-on slowdown applied to work booked on a Degraded unit.
    pub const DEGRADED_SLOWDOWN: f64 = 1.25;

    /// [`RobotFleet::assign`], but never picking unit `exclude` — the
    /// recovery ladder's "reassign to another unit" step must not hand
    /// the operation back to the robot that just failed it.
    pub fn assign_excluding(
        &mut self,
        layout: &HallLayout,
        now: SimTime,
        rack: RackLoc,
        hands_on: SimDuration,
        exclude: Option<usize>,
    ) -> Option<RobotAssignment> {
        let ready = now + self.cfg.dispatch_latency;
        let mut best: Option<(usize, SimTime, f64)> = None;
        for (i, u) in self.units.iter().enumerate() {
            if Some(i) == exclude {
                continue;
            }
            // A frozen unit (down_until pushed ~a century out) must not
            // be booked against at all: committing a booking advances
            // `busy_until` past the freeze sentinel, and that outlives
            // the repair that eventually clears `down_until`.
            if u.down_until.since(now) > SimDuration::from_days(365) {
                continue;
            }
            let Some(dist) = self.travel_distance(layout, u, rack) else {
                continue;
            };
            let avail = u.busy_until.max(u.down_until).max(ready);
            // Earliest *completion* wins: availability plus this unit's
            // travel.
            let eta = avail + self.timings.travel(dist);
            if best
                .as_ref()
                .is_none_or(|&(_, s, d)| eta < s || (eta == s && dist < d))
            {
                best = Some((i, eta, dist));
            }
        }
        let (unit, _, travel_m) = best?;
        let u = &mut self.units[unit];
        let start = u.busy_until.max(u.down_until).max(ready);
        let work = if u.degraded {
            hands_on.mul_f64(Self::DEGRADED_SLOWDOWN)
        } else {
            hands_on
        };
        let total = self.timings.travel(travel_m) + work;
        u.busy_until = start + total;
        u.busy_time += total;
        u.ops_done += 1;
        Some(RobotAssignment {
            unit,
            start,
            travel_m,
            total,
        })
    }

    /// Mark a unit Degraded after a fault involvement (stall cleared by
    /// a human nudge, abort, jam). Idempotent; no effect on Down units'
    /// downtime.
    pub fn mark_degraded(&mut self, unit: usize) {
        if !self.units[unit].degraded {
            self.journal.emit(
                "robot-health",
                &[
                    ("unit", JVal::U(unit as u64)),
                    ("state", JVal::S("degraded")),
                ],
            );
        }
        self.units[unit].degraded = true;
    }

    /// Freeze a unit where it stands (actuator stall / mid-operation
    /// breakdown): it stops accepting work until someone explicitly
    /// repairs it via [`RobotFleet::mark_repaired`]. Unlike
    /// [`RobotFleet::mark_down`] no repair is scheduled — a frozen unit
    /// announces nothing; only a controller watchdog notices it.
    pub fn freeze(&mut self, unit: usize, now: SimTime) {
        let far = now + SimDuration::from_days(365 * 100);
        let u = &mut self.units[unit];
        u.down_until = u.down_until.max(far);
        self.journal.emit(
            "robot-health",
            &[("unit", JVal::U(unit as u64)), ("state", JVal::S("frozen"))],
        );
    }

    /// Take a unit Down at `now` (mid-operation breakdown or a stall
    /// the watchdog declared dead). Repair duration is sampled
    /// log-normal around the configured median; returns it so the
    /// caller can schedule the recovered event.
    pub fn mark_down(&mut self, unit: usize, now: SimTime) -> SimDuration {
        let repair = Dist::LogNormal {
            median: self.cfg.repair_median.as_secs_f64(),
            sigma: 0.5,
        }
        .sample_duration(&mut self.rng);
        let u = &mut self.units[unit];
        u.down_until = u.down_until.max(now + repair);
        u.breakdowns += 1;
        self.journal.emit(
            "robot-health",
            &[
                ("unit", JVal::U(unit as u64)),
                ("state", JVal::S("down")),
                ("repair_us", JVal::U(repair.as_micros())),
            ],
        );
        repair
    }

    /// Complete a unit's repair: Down/Degraded → Healthy.
    pub fn mark_repaired(&mut self, unit: usize, now: SimTime) {
        let u = &mut self.units[unit];
        u.down_until = u.down_until.min(now);
        u.degraded = false;
        u.repairs += 1;
        self.journal.emit(
            "robot-health",
            &[
                ("unit", JVal::U(unit as u64)),
                ("state", JVal::S("healthy")),
            ],
        );
    }

    /// Effective health of a unit at `now`.
    pub fn health(&self, unit: usize, now: SimTime) -> UnitHealth {
        self.units[unit].health(now)
    }

    /// True when every unit that could ever reach `rack` is Down at
    /// `now` — the recovery ladder's queue-until-fleet-recovers
    /// predicate.
    pub fn all_reachable_down(&self, layout: &HallLayout, rack: RackLoc, now: SimTime) -> bool {
        let mut reachable = 0usize;
        let mut down = 0usize;
        for u in &self.units {
            if self.travel_distance(layout, u, rack).is_none() {
                continue;
            }
            reachable += 1;
            if u.health(now) == UnitHealth::Down {
                down += 1;
            }
        }
        reachable > 0 && reachable == down
    }

    /// Fleet-wide breakdown count.
    pub fn total_breakdowns(&self) -> u64 {
        self.units.iter().map(|u| u.breakdowns).sum()
    }

    /// Roll the post-operation breakdown dice for a unit; if it breaks,
    /// mark it down (repair by a human, log-normal around the configured
    /// median) and return the downtime.
    pub fn breakdown_check(&mut self, unit: usize, now: SimTime) -> Option<SimDuration> {
        if !self.rng.chance(self.cfg.breakdown_prob) {
            return None;
        }
        Some(self.mark_down(unit, now))
    }

    /// Consume one spare transceiver from a unit; returns false if empty
    /// (unit must restock — modeled as a dispatch to the depot by the
    /// caller).
    pub fn take_spare(&mut self, unit: usize) -> bool {
        let u = &mut self.units[unit];
        if u.spares == 0 {
            return false;
        }
        u.spares -= 1;
        true
    }

    /// Refill a unit's spares to the configured level.
    pub fn restock(&mut self, unit: usize) {
        self.units[unit].spares = self.cfg.spares_per_unit;
    }

    /// Re-derive the fleet's RNG stream under `rng`, the root the
    /// constructors take (a twin hedge branch).
    pub fn reseed(&mut self, rng: &SimRng) {
        self.rng.reseed(rng);
    }

    /// Fleet-wide cumulative busy time (for cost accounting).
    pub fn total_busy(&self) -> SimDuration {
        self.units
            .iter()
            .fold(SimDuration::ZERO, |acc, u| acc + u.busy_time)
    }

    /// Fleet-wide completed operations.
    pub fn total_ops(&self) -> u64 {
        self.units.iter().map(|u| u.ops_done).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> HallLayout {
        HallLayout::new(3, 10)
    }

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn per_row_deployment_counts() {
        let f = RobotFleet::per_row(&layout(), 2, FleetConfig::default(), &SimRng::root(1));
        assert_eq!(f.len(), 6);
        assert_eq!(f.unit(0).home_row, 0);
        assert_eq!(f.unit(5).home_row, 2);
    }

    #[test]
    fn row_scope_refuses_other_rows() {
        let mut f = RobotFleet::per_row(&layout(), 1, FleetConfig::default(), &SimRng::root(1));
        // Remove rows 1-2 robots by making a single-row fleet manually:
        // assign to a row with a robot works, a row without would need
        // hall scope. All rows have robots here, so test via a 1-row
        // fleet covering a 3-row hall.
        let small = HallLayout::new(1, 10);
        let mut one_row = RobotFleet::per_row(&small, 1, FleetConfig::default(), &SimRng::root(1));
        assert!(one_row
            .assign(
                &layout(),
                at(0),
                RackLoc { row: 2, col: 3 },
                SimDuration::from_mins(2)
            )
            .is_none());
        assert!(f
            .assign(
                &layout(),
                at(0),
                RackLoc { row: 2, col: 3 },
                SimDuration::from_mins(2)
            )
            .is_some());
    }

    #[test]
    fn hall_scope_reaches_everywhere_but_pays_travel() {
        let mut f = RobotFleet::hall_pool(1, FleetConfig::default(), &SimRng::root(1));
        let a = f
            .assign(
                &layout(),
                at(0),
                RackLoc { row: 2, col: 9 },
                SimDuration::from_mins(2),
            )
            .unwrap();
        assert!(a.travel_m > 0.0);
        // Far corner from the row-0 garage: the AGV trip dominates.
        let mut row = RobotFleet::per_row(&layout(), 1, FleetConfig::default(), &SimRng::root(1));
        let ar = row
            .assign(
                &layout(),
                at(0),
                RackLoc { row: 2, col: 9 },
                SimDuration::from_mins(2),
            )
            .unwrap();
        assert!(
            a.total > ar.total,
            "hall {:?} vs row {:?}",
            a.total,
            ar.total
        );
    }

    #[test]
    fn dispatch_latency_is_seconds_scale() {
        let mut f = RobotFleet::per_row(&layout(), 1, FleetConfig::default(), &SimRng::root(1));
        let a = f
            .assign(
                &layout(),
                at(0),
                RackLoc { row: 0, col: 0 },
                SimDuration::from_mins(2),
            )
            .unwrap();
        assert_eq!(a.start, at(30), "30 s dispatch, robot idle");
        // Occupancy includes the gantry's travel along the row.
        assert!(a.total > SimDuration::from_mins(2));
    }

    #[test]
    fn busy_unit_queues_work() {
        let mut f = RobotFleet::per_row(&layout(), 1, FleetConfig::default(), &SimRng::root(1));
        let hands_on = SimDuration::from_mins(10);
        let rack = RackLoc { row: 1, col: 4 };
        let a1 = f.assign(&layout(), at(0), rack, hands_on).unwrap();
        let a2 = f.assign(&layout(), at(0), rack, hands_on).unwrap();
        assert_eq!(a1.unit, a2.unit, "only one robot in the row");
        assert_eq!(a2.start, a1.start + a1.total);
    }

    #[test]
    fn multiple_units_parallelize() {
        let mut f = RobotFleet::per_row(&layout(), 2, FleetConfig::default(), &SimRng::root(1));
        let hands_on = SimDuration::from_mins(10);
        let rack = RackLoc { row: 1, col: 4 };
        let a1 = f.assign(&layout(), at(0), rack, hands_on).unwrap();
        let a2 = f.assign(&layout(), at(0), rack, hands_on).unwrap();
        assert_ne!(a1.unit, a2.unit);
        assert_eq!(a1.start, a2.start);
    }

    #[test]
    fn breakdown_takes_unit_offline() {
        let cfg = FleetConfig {
            breakdown_prob: 1.0,
            ..FleetConfig::default()
        };
        let mut f = RobotFleet::per_row(&layout(), 1, cfg, &SimRng::root(2));
        let rack = RackLoc { row: 0, col: 0 };
        let a = f
            .assign(&layout(), at(0), rack, SimDuration::from_mins(5))
            .unwrap();
        let down = f.breakdown_check(a.unit, a.start + SimDuration::from_mins(5));
        assert!(down.is_some());
        // Next assignment to this row waits for the repair.
        let a2 = f
            .assign(&layout(), at(400), rack, SimDuration::from_mins(5))
            .unwrap();
        assert!(a2.start >= f.unit(a.unit).down_until);
    }

    #[test]
    fn spares_deplete_and_restock() {
        let cfg = FleetConfig {
            spares_per_unit: 2,
            ..FleetConfig::default()
        };
        let mut f = RobotFleet::per_row(&HallLayout::new(1, 4), 1, cfg, &SimRng::root(3));
        assert!(f.take_spare(0));
        assert!(f.take_spare(0));
        assert!(!f.take_spare(0), "third spare unavailable");
        f.restock(0);
        assert!(f.take_spare(0));
    }

    #[test]
    fn accounting_accumulates() {
        let mut f = RobotFleet::per_row(&layout(), 1, FleetConfig::default(), &SimRng::root(4));
        let rack = RackLoc { row: 0, col: 1 };
        let a1 = f
            .assign(&layout(), at(0), rack, SimDuration::from_mins(3))
            .unwrap();
        let a2 = f
            .assign(&layout(), at(0), rack, SimDuration::from_mins(4))
            .unwrap();
        assert_eq!(f.total_ops(), 2);
        assert_eq!(f.total_busy(), a1.total + a2.total);
        assert!(f.total_busy() >= SimDuration::from_mins(7));
    }

    #[test]
    fn empty_fleet_assigns_nothing() {
        let mut f = RobotFleet::hall_pool(0, FleetConfig::default(), &SimRng::root(5));
        assert!(f.is_empty());
        assert!(f
            .assign(
                &layout(),
                at(0),
                RackLoc { row: 0, col: 0 },
                SimDuration::from_mins(1)
            )
            .is_none());
    }

    #[test]
    fn health_machine_walks_the_ladder() {
        let mut f = RobotFleet::per_row(&layout(), 1, FleetConfig::default(), &SimRng::root(6));
        assert_eq!(f.health(0, at(0)), UnitHealth::Healthy);
        f.mark_degraded(0);
        assert_eq!(f.health(0, at(0)), UnitHealth::Degraded);
        let repair = f.mark_down(0, at(100));
        assert!(repair > SimDuration::ZERO);
        assert_eq!(f.health(0, at(101)), UnitHealth::Down);
        assert_eq!(f.unit(0).breakdowns, 1);
        // Repaired → Healthy, sticky degraded flag cleared.
        let healed_at = at(100) + repair;
        f.mark_repaired(0, healed_at);
        assert_eq!(f.health(0, healed_at), UnitHealth::Healthy);
        assert_eq!(f.unit(0).repairs, 1);
    }

    #[test]
    fn degraded_units_run_slower() {
        let hands_on = SimDuration::from_mins(10);
        let rack = RackLoc { row: 0, col: 2 };
        let mut a = RobotFleet::per_row(&layout(), 1, FleetConfig::default(), &SimRng::root(7));
        let healthy = a.assign(&layout(), at(0), rack, hands_on).unwrap();
        let mut b = RobotFleet::per_row(&layout(), 1, FleetConfig::default(), &SimRng::root(7));
        b.mark_degraded(0);
        let degraded = b.assign(&layout(), at(0), rack, hands_on).unwrap();
        assert_eq!(
            degraded.total.saturating_sub(healthy.total),
            hands_on.mul_f64(RobotFleet::DEGRADED_SLOWDOWN - 1.0)
        );
    }

    #[test]
    fn assign_excluding_skips_the_failed_unit() {
        let mut f = RobotFleet::per_row(&layout(), 2, FleetConfig::default(), &SimRng::root(8));
        let rack = RackLoc { row: 1, col: 4 };
        let first = f
            .assign(&layout(), at(0), rack, SimDuration::from_mins(5))
            .unwrap();
        let retry = f
            .assign_excluding(
                &layout(),
                at(0),
                rack,
                SimDuration::from_mins(5),
                Some(first.unit),
            )
            .unwrap();
        assert_ne!(retry.unit, first.unit);
        // With only one unit in the row, exclusion leaves nothing.
        let small = HallLayout::new(1, 4);
        let mut lone = RobotFleet::per_row(&small, 1, FleetConfig::default(), &SimRng::root(8));
        assert!(lone
            .assign_excluding(
                &small,
                at(0),
                RackLoc { row: 0, col: 1 },
                SimDuration::from_mins(5),
                Some(0)
            )
            .is_none());
    }

    #[test]
    fn frozen_units_are_never_booked_and_repair_cleanly() {
        let small = HallLayout::new(1, 4);
        let mut f = RobotFleet::per_row(&small, 1, FleetConfig::default(), &SimRng::root(10));
        let rack = RackLoc { row: 0, col: 1 };
        let hands_on = SimDuration::from_mins(5);
        f.freeze(0, at(60));
        // A frozen unit must yield "no robot", not a booking a century
        // out — and crucially the attempt must not advance `busy_until`
        // past the freeze sentinel (that would outlive the repair).
        assert!(f.assign(&small, at(120), rack, hands_on).is_none());
        let busy_before = f.unit(0).busy_until;
        f.mark_repaired(0, at(300));
        assert_eq!(f.unit(0).busy_until, busy_before);
        let a = f
            .assign(&small, at(300), rack, hands_on)
            .expect("repaired unit books");
        assert!(
            a.start.since(at(300)) < SimDuration::from_mins(5),
            "start {:?}",
            a.start
        );
    }

    #[test]
    fn all_reachable_down_tracks_row_fleet() {
        let mut f = RobotFleet::per_row(&layout(), 1, FleetConfig::default(), &SimRng::root(9));
        let rack = RackLoc { row: 1, col: 0 };
        assert!(!f.all_reachable_down(&layout(), rack, at(0)));
        // Down the row-1 unit (index 1): rack in row 1 now has no live
        // robot, but rows 0/2 still do.
        f.mark_down(1, at(0));
        assert!(f.all_reachable_down(&layout(), rack, at(1)));
        assert!(!f.all_reachable_down(&layout(), RackLoc { row: 0, col: 0 }, at(1)));
        assert_eq!(f.total_breakdowns(), 1);
    }
}
