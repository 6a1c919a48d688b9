//! Human/robot co-existence safety interlocks.
//!
//! §3.4: "safety is a major concern when humans and robots need to
//! co-exist." The interlock is the minimal sound policy: every physical
//! work item claims an *exclusion zone* (a span of racks in one row) for
//! its duration; a robot may not operate inside a zone claimed by a
//! human and vice versa. Two robots may share a zone (their motion is
//! mutually coordinated by the fleet controller); two humans likewise
//! manage themselves.
//!
//! The ledger answers one question for the dispatcher: *given that I
//! want to work at rack R from `start` for `duration`, when is the
//! earliest conflict-free start?* Claims are pruned lazily.

use dcmaint_dcnet::RackLoc;
use dcmaint_des::{SimDuration, SimTime};

/// Who claims the zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneActor {
    /// A technician (humans exclude robots).
    Human,
    /// A robotic unit (robots exclude humans, not each other).
    Robot,
}

/// Opaque handle to a recorded claim, for early release when the work
/// holding the zone aborts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClaimId(u64);

dcmaint_ckpt::persist_enum!(ZoneActor: "zone-actor" { 0 => Robot, 1 => Human });

// A claim handle is only meaningful together with a [`ZoneLedger`]
// restored from the same snapshot.
dcmaint_ckpt::persist!(ClaimId(raw));

/// One active exclusion claim.
#[derive(Debug, Clone)]
struct Claim {
    id: ClaimId,
    actor: ZoneActor,
    row: u32,
    col_lo: u32,
    col_hi: u32,
    from: SimTime,
    until: SimTime,
}

dcmaint_ckpt::persist!(Claim {
    id,
    actor,
    row,
    col_lo,
    col_hi,
    from,
    until,
});

/// Interlock configuration.
#[derive(Debug, Clone)]
pub struct SafetyConfig {
    /// Exclusion half-width in racks on each side of the work rack
    /// (humans need walking/turning room; 1 rack each side default).
    pub zone_halfwidth: u32,
}

impl Default for SafetyConfig {
    fn default() -> Self {
        SafetyConfig { zone_halfwidth: 1 }
    }
}

/// The exclusion-zone ledger.
#[derive(Debug, Default)]
pub struct ZoneLedger {
    cfg: SafetyConfig,
    claims: Vec<Claim>,
    next_id: u64,
}

dcmaint_ckpt::persist!(ZoneLedger { next_id, claims }
    skip { cfg: "rebuilt from the scenario's SafetyConfig" });

impl ZoneLedger {
    /// New ledger.
    pub fn new(cfg: SafetyConfig) -> Self {
        ZoneLedger {
            cfg,
            claims: Vec::new(),
            next_id: 0,
        }
    }

    fn prune(&mut self, now: SimTime) {
        self.claims.retain(|c| c.until > now);
    }

    /// Active claims (after pruning at `now`).
    pub fn active(&mut self, now: SimTime) -> usize {
        self.prune(now);
        self.claims.len()
    }

    fn zone_of(&self, rack: RackLoc) -> (u32, u32, u32) {
        let lo = rack.col.saturating_sub(self.cfg.zone_halfwidth);
        let hi = rack.col + self.cfg.zone_halfwidth;
        (rack.row, lo, hi)
    }

    fn conflicts(a: ZoneActor, b: ZoneActor) -> bool {
        a != b // human excludes robot and vice versa; same kind coexists
    }

    /// Earliest start at or after `desired` such that the interval
    /// `[start, start + duration)` at `rack` is conflict-free for
    /// `actor`. Greedy: pushes past each conflicting claim's end.
    ///
    /// `now` is the current simulation instant and must be monotone
    /// across calls; expired claims are pruned against it. (`desired`
    /// may lie arbitrarily far in the future — pruning against it would
    /// drop claims that still conflict with a later, earlier-starting
    /// request.)
    pub fn earliest_clear(
        &mut self,
        actor: ZoneActor,
        rack: RackLoc,
        now: SimTime,
        desired: SimTime,
        duration: SimDuration,
    ) -> SimTime {
        self.prune(now);
        let desired = desired.max(now);
        let (row, lo, hi) = self.zone_of(rack);
        let mut start = desired;
        // At most `claims` pushes are needed.
        for _ in 0..=self.claims.len() {
            let end = start + duration;
            let conflict = self
                .claims
                .iter()
                .filter(|c| Self::conflicts(actor, c.actor))
                .filter(|c| c.row == row && c.col_lo <= hi && lo <= c.col_hi)
                .find(|c| c.from < end && start < c.until);
            match conflict {
                Some(c) => start = c.until,
                None => break,
            }
        }
        start
    }

    /// Record the claim for `[start, start + duration)` at `rack`.
    /// Returns a handle usable with [`ZoneLedger::release`].
    pub fn claim(
        &mut self,
        actor: ZoneActor,
        rack: RackLoc,
        start: SimTime,
        duration: SimDuration,
    ) -> ClaimId {
        let id = ClaimId(self.next_id);
        self.next_id += 1;
        let (row, col_lo, col_hi) = self.zone_of(rack);
        self.claims.push(Claim {
            id,
            actor,
            row,
            col_lo,
            col_hi,
            from: start,
            until: start + duration,
        });
        id
    }

    /// Convenience: find the earliest clear start and claim it in one
    /// step. Returns the start. `now` must be monotone across calls.
    pub fn reserve(
        &mut self,
        actor: ZoneActor,
        rack: RackLoc,
        now: SimTime,
        desired: SimTime,
        duration: SimDuration,
    ) -> SimTime {
        self.reserve_claim(actor, rack, now, desired, duration).0
    }

    /// [`ZoneLedger::reserve`], also returning the claim handle so an
    /// aborting operation can release the zone early.
    pub fn reserve_claim(
        &mut self,
        actor: ZoneActor,
        rack: RackLoc,
        now: SimTime,
        desired: SimTime,
        duration: SimDuration,
    ) -> (SimTime, ClaimId) {
        let start = self.earliest_clear(actor, rack, now, desired, duration);
        let id = self.claim(actor, rack, start, duration);
        (start, id)
    }

    /// Release a claim early at `now`: a claim already underway is
    /// truncated to end now; one that has not started yet is removed
    /// outright. Releasing an unknown/expired id is a no-op (the claim
    /// aged out of the ledger on its own — exactly the state an abort
    /// wants).
    pub fn release(&mut self, id: ClaimId, now: SimTime) {
        if let Some(c) = self.claims.iter_mut().find(|c| c.id == id) {
            c.until = c.until.min(now.max(c.from));
        }
        self.claims.retain(|c| c.until > c.from);
    }

    /// True if the claim is still present with time remaining after
    /// `now` — the leak the abort invariant tests for.
    pub fn is_held_beyond(&self, id: ClaimId, now: SimTime) -> bool {
        self.claims.iter().any(|c| c.id == id && c.until > now)
    }

    /// Handles of every claim still holding zone time after `now`. The
    /// end-of-run leak audit compares this against the repairs actually
    /// in flight.
    pub fn open_claim_ids(&self, now: SimTime) -> Vec<ClaimId> {
        self.claims
            .iter()
            .filter(|c| c.until > now)
            .map(|c| c.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(mins: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_mins(mins)
    }

    fn rack(row: u32, col: u32) -> RackLoc {
        RackLoc { row, col }
    }

    #[test]
    fn empty_ledger_grants_immediately() {
        let mut z = ZoneLedger::new(SafetyConfig::default());
        assert_eq!(
            z.earliest_clear(
                ZoneActor::Robot,
                rack(0, 3),
                SimTime::ZERO,
                at(10),
                SimDuration::from_mins(5)
            ),
            at(10)
        );
    }

    #[test]
    fn robot_waits_for_human_in_zone() {
        let mut z = ZoneLedger::new(SafetyConfig::default());
        z.claim(
            ZoneActor::Human,
            rack(0, 3),
            at(0),
            SimDuration::from_mins(60),
        );
        // Same rack: wait until the human leaves.
        let s = z.earliest_clear(
            ZoneActor::Robot,
            rack(0, 3),
            SimTime::ZERO,
            at(10),
            SimDuration::from_mins(5),
        );
        assert_eq!(s, at(60));
        // Adjacent rack (within halfwidth 1): also blocked.
        let s2 = z.earliest_clear(
            ZoneActor::Robot,
            rack(0, 4),
            SimTime::ZERO,
            at(10),
            SimDuration::from_mins(5),
        );
        assert_eq!(s2, at(60));
        // Two racks away: zones [2,4] and [4,6] overlap at col 4 → blocked;
        // three racks away is clear.
        let s3 = z.earliest_clear(
            ZoneActor::Robot,
            rack(0, 6),
            SimTime::ZERO,
            at(10),
            SimDuration::from_mins(5),
        );
        assert_eq!(s3, at(10));
    }

    #[test]
    fn human_waits_for_robot_symmetrically() {
        let mut z = ZoneLedger::new(SafetyConfig::default());
        z.claim(
            ZoneActor::Robot,
            rack(1, 5),
            at(0),
            SimDuration::from_mins(30),
        );
        let s = z.earliest_clear(
            ZoneActor::Human,
            rack(1, 5),
            SimTime::ZERO,
            at(0),
            SimDuration::from_mins(10),
        );
        assert_eq!(s, at(30));
    }

    #[test]
    fn same_kind_coexists() {
        let mut z = ZoneLedger::new(SafetyConfig::default());
        z.claim(
            ZoneActor::Robot,
            rack(0, 3),
            at(0),
            SimDuration::from_mins(60),
        );
        let s = z.earliest_clear(
            ZoneActor::Robot,
            rack(0, 3),
            SimTime::ZERO,
            at(5),
            SimDuration::from_mins(5),
        );
        assert_eq!(s, at(5), "robots coordinate among themselves");
        z.claim(
            ZoneActor::Human,
            rack(2, 3),
            at(0),
            SimDuration::from_mins(60),
        );
        let s2 = z.earliest_clear(
            ZoneActor::Human,
            rack(2, 3),
            SimTime::ZERO,
            at(5),
            SimDuration::from_mins(5),
        );
        assert_eq!(s2, at(5));
    }

    #[test]
    fn different_rows_never_conflict() {
        let mut z = ZoneLedger::new(SafetyConfig::default());
        z.claim(
            ZoneActor::Human,
            rack(0, 3),
            at(0),
            SimDuration::from_hours(8),
        );
        let s = z.earliest_clear(
            ZoneActor::Robot,
            rack(1, 3),
            SimTime::ZERO,
            at(0),
            SimDuration::from_mins(5),
        );
        assert_eq!(s, SimTime::ZERO);
    }

    #[test]
    fn chains_past_consecutive_claims() {
        let mut z = ZoneLedger::new(SafetyConfig::default());
        z.claim(
            ZoneActor::Human,
            rack(0, 3),
            at(0),
            SimDuration::from_mins(30),
        );
        z.claim(
            ZoneActor::Human,
            rack(0, 3),
            at(30),
            SimDuration::from_mins(30),
        );
        let s = z.earliest_clear(
            ZoneActor::Robot,
            rack(0, 3),
            SimTime::ZERO,
            at(0),
            SimDuration::from_mins(5),
        );
        assert_eq!(s, at(60));
    }

    #[test]
    fn expired_claims_are_pruned() {
        let mut z = ZoneLedger::new(SafetyConfig::default());
        z.claim(
            ZoneActor::Human,
            rack(0, 3),
            at(0),
            SimDuration::from_mins(10),
        );
        assert_eq!(z.active(at(5)), 1);
        assert_eq!(z.active(at(20)), 0);
        let s = z.earliest_clear(
            ZoneActor::Robot,
            rack(0, 3),
            at(20),
            at(20),
            SimDuration::from_mins(5),
        );
        assert_eq!(s, at(20));
    }

    #[test]
    fn reserve_claims_atomically() {
        let mut z = ZoneLedger::new(SafetyConfig::default());
        let s1 = z.reserve(
            ZoneActor::Human,
            rack(0, 0),
            SimTime::ZERO,
            at(0),
            SimDuration::from_mins(20),
        );
        assert_eq!(s1, at(0));
        let s2 = z.reserve(
            ZoneActor::Robot,
            rack(0, 0),
            SimTime::ZERO,
            at(0),
            SimDuration::from_mins(20),
        );
        assert_eq!(s2, at(20));
        // A second human fits *before* the robot's window (humans
        // coexist with the first human claim, and [0,20) does not
        // overlap the robot's [20,40)).
        let s3 = z.reserve(
            ZoneActor::Human,
            rack(0, 0),
            SimTime::ZERO,
            at(0),
            SimDuration::from_mins(20),
        );
        assert_eq!(s3, at(0));
        // But a long human job that cannot finish before the robot
        // starts queues behind it.
        let s4 = z.reserve(
            ZoneActor::Human,
            rack(0, 0),
            SimTime::ZERO,
            at(0),
            SimDuration::from_mins(30),
        );
        assert_eq!(s4, at(40), "human queues behind the robot's window");
    }

    #[test]
    fn release_frees_the_zone_for_the_other_actor() {
        let mut z = ZoneLedger::new(SafetyConfig::default());
        let (s, id) = z.reserve_claim(
            ZoneActor::Robot,
            rack(0, 3),
            SimTime::ZERO,
            at(0),
            SimDuration::from_hours(2),
        );
        assert_eq!(s, at(0));
        // Mid-claim abort at t=10: the human no longer waits two hours.
        z.release(id, at(10));
        assert!(!z.is_held_beyond(id, at(10)));
        let h = z.earliest_clear(
            ZoneActor::Human,
            rack(0, 3),
            at(10),
            at(10),
            SimDuration::from_mins(5),
        );
        assert_eq!(h, at(10));
    }

    #[test]
    fn releasing_a_not_yet_started_claim_removes_it() {
        let mut z = ZoneLedger::new(SafetyConfig::default());
        let (s, id) = z.reserve_claim(
            ZoneActor::Robot,
            rack(0, 3),
            SimTime::ZERO,
            at(60),
            SimDuration::from_mins(30),
        );
        assert_eq!(s, at(60));
        z.release(id, at(5));
        assert_eq!(z.active(at(5)), 0);
        // Double release and unknown ids are no-ops.
        z.release(id, at(6));
        z.release(ClaimId(999), at(6));
    }

    #[test]
    fn future_claim_allows_work_before_it() {
        let mut z = ZoneLedger::new(SafetyConfig::default());
        z.claim(
            ZoneActor::Human,
            rack(0, 3),
            at(60),
            SimDuration::from_mins(30),
        );
        // A 5-minute robot job finishing before the human arrives fits.
        let s = z.earliest_clear(
            ZoneActor::Robot,
            rack(0, 3),
            SimTime::ZERO,
            at(0),
            SimDuration::from_mins(5),
        );
        assert_eq!(s, SimTime::ZERO);
        // A 2-hour robot job overlaps the human window → pushed after.
        let s2 = z.earliest_clear(
            ZoneActor::Robot,
            rack(0, 3),
            SimTime::ZERO,
            at(0),
            SimDuration::from_hours(2),
        );
        assert_eq!(s2, at(90));
    }
}
