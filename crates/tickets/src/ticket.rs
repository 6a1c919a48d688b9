//! Ticket lifecycle and the ticket board.
//!
//! §1: "The services produce service tickets that describe what needs to
//! be repaired or replaced and its location, and a skilled technician is
//! assigned to perform the task." §3.2 adds the time-window memory: "If
//! the transceiver has been reseated in the past, and another ticket is
//! generated for the same link within a time window … the next stage is
//! to perform this cleaning process." The board therefore keeps
//! *per-link repair history* so the escalation engine (in `maintctl`)
//! can pick the next rung.
//!
//! The *service window* — the paper's headline metric — is measured here:
//! ticket creation to verified resolution.

use dcmaint_dcnet::LinkId;
use dcmaint_des::{SimDuration, SimTime};
use dcmaint_faults::RepairAction;
use dcmaint_obs::{JVal, Journal};

/// Why a ticket was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TicketTrigger {
    /// Telemetry: link hard down.
    LinkDown,
    /// Telemetry: flapping.
    Flapping,
    /// Telemetry: gray loss.
    GrayLoss,
    /// Proactive campaign (no failure yet).
    Proactive,
    /// Predictive scorer flagged elevated risk.
    Predictive,
}

dcmaint_ckpt::persist_enum!(TicketTrigger: "ticket-trigger" {
    0 => LinkDown,
    1 => Flapping,
    2 => GrayLoss,
    3 => Proactive,
    4 => Predictive,
});

impl TicketTrigger {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            TicketTrigger::LinkDown => "down",
            TicketTrigger::Flapping => "flap",
            TicketTrigger::GrayLoss => "gray",
            TicketTrigger::Proactive => "proactive",
            TicketTrigger::Predictive => "predictive",
        }
    }

    /// Whether the trigger represents an actual service-impacting failure
    /// (proactive/predictive work is not downtime).
    pub fn is_reactive(self) -> bool {
        matches!(
            self,
            TicketTrigger::LinkDown | TicketTrigger::Flapping | TicketTrigger::GrayLoss
        )
    }
}

/// Dispatch priority. §1: "a physical repair is on a timescale of days,
/// with a fraction of repairs being high priority and done in hours."
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Highest: hard-down links on thin redundancy.
    P0,
    /// Elevated: flapping / gray impacting tails.
    P1,
    /// Routine: proactive and low-impact work.
    P2,
}

dcmaint_ckpt::persist_enum!(Priority: "priority" { 0 => P0, 1 => P1, 2 => P2 });

impl Priority {
    /// Derive priority from trigger and alert severity.
    pub fn from_trigger(trigger: TicketTrigger, severity: f64) -> Priority {
        match trigger {
            TicketTrigger::LinkDown => Priority::P0,
            TicketTrigger::Flapping | TicketTrigger::GrayLoss => {
                if severity >= 0.6 {
                    Priority::P1
                } else {
                    Priority::P2
                }
            }
            TicketTrigger::Proactive | TicketTrigger::Predictive => Priority::P2,
        }
    }

    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            Priority::P0 => "P0",
            Priority::P1 => "P1",
            Priority::P2 => "P2",
        }
    }
}

/// Lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketState {
    /// Created, awaiting triage/dispatch.
    Open,
    /// Actor assigned and en route / queued.
    Dispatched,
    /// Hands on hardware.
    InProgress,
    /// Repair done, awaiting verification soak.
    Resolving,
    /// Verified fixed and closed.
    Closed,
    /// Closed without repair (self-healed / false positive).
    ClosedSpurious,
}

dcmaint_ckpt::persist_enum!(TicketState: "ticket-state" {
    0 => Open,
    1 => Dispatched,
    2 => InProgress,
    3 => Resolving,
    4 => Closed,
    5 => ClosedSpurious,
});

/// Unique ticket identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TicketId(pub u64);

dcmaint_ckpt::persist!(TicketId(id));

/// One repair attempt recorded against a ticket.
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    /// Action taken.
    pub action: RepairAction,
    /// When hands-on work started.
    pub started: SimTime,
    /// When the action finished.
    pub finished: SimTime,
    /// Whether post-repair verification passed.
    pub fixed: bool,
    /// Whether a robot (vs human) performed it.
    pub robotic: bool,
}

dcmaint_ckpt::persist!(AttemptRecord {
    action,
    started,
    finished,
    fixed,
    robotic,
});

/// A maintenance ticket.
#[derive(Debug, Clone)]
pub struct Ticket {
    /// Identifier.
    pub id: TicketId,
    /// Target link.
    pub link: LinkId,
    /// Why it was opened.
    pub trigger: TicketTrigger,
    /// Dispatch priority.
    pub priority: Priority,
    /// Creation time.
    pub created: SimTime,
    /// Lifecycle state.
    pub state: TicketState,
    /// Repair attempts so far.
    pub attempts: Vec<AttemptRecord>,
    /// Closure time (set when state becomes Closed/ClosedSpurious).
    pub closed: Option<SimTime>,
}

dcmaint_ckpt::persist!(Ticket {
    id,
    link,
    trigger,
    priority,
    created,
    state,
    closed,
    attempts,
});

impl Ticket {
    /// The service window (creation → closure); `None` while open.
    pub fn service_window(&self) -> Option<SimDuration> {
        self.closed.map(|c| c.since(self.created))
    }

    /// Number of attempts made.
    pub fn attempt_count(&self) -> usize {
        self.attempts.len()
    }

    /// Whether the ticket is in a terminal state.
    pub fn is_closed(&self) -> bool {
        matches!(
            self.state,
            TicketState::Closed | TicketState::ClosedSpurious
        )
    }
}

/// The ticket board: open tickets, closed history, per-link repair memory.
#[derive(Debug, Default)]
pub struct TicketBoard {
    tickets: Vec<Ticket>,
    open_by_link: std::collections::BTreeMap<LinkId, TicketId>,
    next_id: u64,
    journal: Journal,
}

dcmaint_ckpt::persist!(TicketBoard { next_id, tickets, open_by_link }
    skip { journal: "event sink; the engine attaches its own" });

impl TicketBoard {
    /// Empty board.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach an event journal; board lifecycle transitions (open,
    /// attempt, close) will be emitted into it. A disabled journal
    /// (the default) keeps the board allocation-free on these paths.
    pub fn set_journal(&mut self, journal: Journal) {
        self.journal = journal;
    }

    /// Open a ticket for a link, unless one is already open (real fleets
    /// dedupe alerts against open tickets — returns the existing id with
    /// `fresh = false`).
    pub fn open(
        &mut self,
        link: LinkId,
        trigger: TicketTrigger,
        priority: Priority,
        now: SimTime,
    ) -> (TicketId, bool) {
        if let Some(&existing) = self.open_by_link.get(&link) {
            return (existing, false);
        }
        let id = TicketId(self.next_id);
        self.next_id += 1;
        self.tickets.push(Ticket {
            id,
            link,
            trigger,
            priority,
            created: now,
            state: TicketState::Open,
            attempts: Vec::new(),
            closed: None,
        });
        self.open_by_link.insert(link, id);
        self.journal.emit(
            "ticket-open",
            &[
                ("ticket", JVal::U(id.0)),
                ("link", JVal::U(link.key())),
                ("trigger", JVal::S(trigger.label())),
                ("priority", JVal::S(priority.label())),
            ],
        );
        (id, true)
    }

    /// Access a ticket.
    pub fn get(&self, id: TicketId) -> &Ticket {
        &self.tickets[id.0 as usize]
    }

    /// Mutable access.
    pub fn get_mut(&mut self, id: TicketId) -> &mut Ticket {
        &mut self.tickets[id.0 as usize]
    }

    /// The open ticket on a link, if any.
    pub fn open_on(&self, link: LinkId) -> Option<TicketId> {
        self.open_by_link.get(&link).copied()
    }

    /// Record a repair attempt.
    pub fn record_attempt(&mut self, id: TicketId, attempt: AttemptRecord) {
        self.journal.emit(
            "ticket-attempt",
            &[
                ("ticket", JVal::U(id.0)),
                ("action", JVal::S(attempt.action.label())),
                ("fixed", JVal::B(attempt.fixed)),
                ("robotic", JVal::B(attempt.robotic)),
                (
                    "hands_on_us",
                    JVal::U(attempt.finished.since(attempt.started).as_micros()),
                ),
            ],
        );
        let t = self.get_mut(id);
        t.attempts.push(attempt);
        t.state = TicketState::Resolving;
    }

    /// Transition state (non-terminal).
    pub fn set_state(&mut self, id: TicketId, state: TicketState) {
        debug_assert!(!matches!(
            state,
            TicketState::Closed | TicketState::ClosedSpurious
        ));
        self.get_mut(id).state = state;
    }

    /// Close a ticket at `now`. `spurious` marks self-healed/false
    /// positives.
    pub fn close(&mut self, id: TicketId, now: SimTime, spurious: bool) {
        let link = self.get(id).link;
        let t = self.get_mut(id);
        t.state = if spurious {
            TicketState::ClosedSpurious
        } else {
            TicketState::Closed
        };
        t.closed = Some(now);
        let window = t.service_window().unwrap_or(SimDuration::ZERO);
        let attempts = t.attempts.len() as u64;
        self.open_by_link.remove(&link);
        self.journal.emit(
            "ticket-close",
            &[
                ("ticket", JVal::U(id.0)),
                ("link", JVal::U(link.key())),
                ("spurious", JVal::B(spurious)),
                ("attempts", JVal::U(attempts)),
                ("window_us", JVal::U(window.as_micros())),
            ],
        );
    }

    /// All tickets (open and closed), in creation order.
    pub fn all(&self) -> &[Ticket] {
        &self.tickets
    }

    /// Count of currently open tickets.
    pub fn open_count(&self) -> usize {
        self.open_by_link.len()
    }

    /// Actions previously attempted on a link within `window` before
    /// `now` — the §3.2 escalation memory ("another ticket … for the same
    /// link within a time window").
    ///
    /// History resets at the most recent *successful* attempt — attempts
    /// that preceded a verified fix describe a fault that no longer
    /// exists, so they are dropped (without this reset any busy link
    /// would ratchet permanently to switch replacement). The fixing
    /// attempt itself *stays* in history: §3.2's rule is that a link
    /// already reseated (successfully) whose ticket recurs within the
    /// window escalates to cleaning.
    ///
    /// Only attempts on *reactive* tickets count: a proactive campaign
    /// reseat on a healthy link says nothing about an undiagnosed fault,
    /// so it must not consume the ladder's reseat budget.
    pub fn recent_actions(
        &self,
        link: LinkId,
        now: SimTime,
        window: SimDuration,
    ) -> Vec<RepairAction> {
        let mut last_fix: Option<SimTime> = None;
        for t in &self.tickets {
            if t.link != link || !t.trigger.is_reactive() {
                continue;
            }
            for a in &t.attempts {
                if a.fixed && last_fix.is_none_or(|f| a.finished > f) {
                    last_fix = Some(a.finished);
                }
            }
        }
        let mut out = Vec::new();
        for t in &self.tickets {
            if t.link != link || !t.trigger.is_reactive() {
                continue;
            }
            for a in &t.attempts {
                let after_fix = last_fix.is_none_or(|f| a.finished >= f);
                if after_fix && now.since(a.finished) <= window {
                    out.push(a.action);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn open_dedupes_per_link() {
        let mut b = TicketBoard::new();
        let (id1, fresh1) = b.open(LinkId(5), TicketTrigger::LinkDown, Priority::P0, at(0));
        let (id2, fresh2) = b.open(LinkId(5), TicketTrigger::Flapping, Priority::P1, at(10));
        assert!(fresh1);
        assert!(!fresh2);
        assert_eq!(id1, id2);
        assert_eq!(b.open_count(), 1);
        // Different link gets its own.
        let (_, fresh3) = b.open(LinkId(6), TicketTrigger::LinkDown, Priority::P0, at(20));
        assert!(fresh3);
        assert_eq!(b.open_count(), 2);
    }

    #[test]
    fn close_frees_link_for_new_tickets() {
        let mut b = TicketBoard::new();
        let (id, _) = b.open(LinkId(1), TicketTrigger::LinkDown, Priority::P0, at(0));
        b.close(id, at(100), false);
        assert!(b.open_on(LinkId(1)).is_none());
        let (id2, fresh) = b.open(LinkId(1), TicketTrigger::GrayLoss, Priority::P2, at(200));
        assert!(fresh);
        assert_ne!(id, id2);
    }

    #[test]
    fn service_window_measured() {
        let mut b = TicketBoard::new();
        let (id, _) = b.open(LinkId(1), TicketTrigger::LinkDown, Priority::P0, at(100));
        b.close(id, at(400), false);
        assert_eq!(
            b.get(id).service_window(),
            Some(SimDuration::from_secs(300))
        );
    }

    #[test]
    fn spurious_closures_excluded_from_windows() {
        let mut b = TicketBoard::new();
        let (id, _) = b.open(LinkId(1), TicketTrigger::GrayLoss, Priority::P2, at(0));
        b.close(id, at(50), true);
        assert_eq!(b.get(id).state, TicketState::ClosedSpurious);
    }

    #[test]
    fn recent_actions_respects_window() {
        let mut b = TicketBoard::new();
        let (id, _) = b.open(LinkId(2), TicketTrigger::Flapping, Priority::P1, at(0));
        b.record_attempt(
            id,
            AttemptRecord {
                action: RepairAction::Reseat,
                started: at(10),
                finished: at(20),
                fixed: true,
                robotic: false,
            },
        );
        b.close(id, at(30), false);
        let w = SimDuration::from_secs(1000);
        assert_eq!(
            b.recent_actions(LinkId(2), at(500), w),
            vec![RepairAction::Reseat]
        );
        assert!(b.recent_actions(LinkId(2), at(2000), w).is_empty());
        assert!(b.recent_actions(LinkId(3), at(500), w).is_empty());
    }

    #[test]
    fn proactive_attempts_do_not_enter_escalation_memory() {
        let mut b = TicketBoard::new();
        let (id, _) = b.open(LinkId(4), TicketTrigger::Proactive, Priority::P2, at(0));
        b.record_attempt(
            id,
            AttemptRecord {
                action: RepairAction::Reseat,
                started: at(1),
                finished: at(2),
                fixed: false,
                robotic: true,
            },
        );
        b.close(id, at(3), false);
        let w = SimDuration::from_secs(10_000);
        assert!(
            b.recent_actions(LinkId(4), at(10), w).is_empty(),
            "campaign reseat must not consume the ladder budget"
        );
    }

    #[test]
    fn escalation_memory_resets_after_fix() {
        let mut b = TicketBoard::new();
        let (id, _) = b.open(LinkId(2), TicketTrigger::LinkDown, Priority::P0, at(0));
        b.record_attempt(
            id,
            AttemptRecord {
                action: RepairAction::Reseat,
                started: at(10),
                finished: at(20),
                fixed: false,
                robotic: false,
            },
        );
        b.record_attempt(
            id,
            AttemptRecord {
                action: RepairAction::CleanEndFace,
                started: at(30),
                finished: at(40),
                fixed: true,
                robotic: false,
            },
        );
        b.close(id, at(50), false);
        // After the verified fix, only the fixing action remains in the
        // ladder memory (pre-fix failures are history).
        let w = SimDuration::from_secs(10_000);
        assert_eq!(
            b.recent_actions(LinkId(2), at(100), w),
            vec![RepairAction::CleanEndFace]
        );
        // A failed attempt after the fix counts again.
        let (id2, _) = b.open(LinkId(2), TicketTrigger::LinkDown, Priority::P0, at(200));
        b.record_attempt(
            id2,
            AttemptRecord {
                action: RepairAction::Reseat,
                started: at(210),
                finished: at(220),
                fixed: false,
                robotic: true,
            },
        );
        assert_eq!(
            b.recent_actions(LinkId(2), at(300), w),
            vec![RepairAction::CleanEndFace, RepairAction::Reseat]
        );
    }

    #[test]
    fn priority_mapping() {
        assert_eq!(
            Priority::from_trigger(TicketTrigger::LinkDown, 1.0),
            Priority::P0
        );
        assert_eq!(
            Priority::from_trigger(TicketTrigger::Flapping, 0.7),
            Priority::P1
        );
        assert_eq!(
            Priority::from_trigger(TicketTrigger::GrayLoss, 0.3),
            Priority::P2
        );
        assert_eq!(
            Priority::from_trigger(TicketTrigger::Proactive, 1.0),
            Priority::P2
        );
    }

    #[test]
    fn attempt_counting() {
        let mut b = TicketBoard::new();
        let (id, _) = b.open(LinkId(9), TicketTrigger::LinkDown, Priority::P0, at(0));
        for i in 0..3 {
            b.record_attempt(
                id,
                AttemptRecord {
                    action: RepairAction::Reseat,
                    started: at(i * 100),
                    finished: at(i * 100 + 50),
                    fixed: false,
                    robotic: true,
                },
            );
        }
        assert_eq!(b.get(id).attempt_count(), 3);
        assert_eq!(b.get(id).state, TicketState::Resolving);
    }

    #[test]
    fn reactive_vs_scheduled_triggers() {
        assert!(TicketTrigger::LinkDown.is_reactive());
        assert!(!TicketTrigger::Proactive.is_reactive());
        assert!(!TicketTrigger::Predictive.is_reactive());
    }
}
