//! Per-incident span traces.
//!
//! An incident's trace is a time-ordered sequence of *state-entry
//! events*: the ticket enters `triage` when opened, `queued` when an
//! executor is booked, `hands-on` when work starts, `verify` after the
//! repair, and so on. The span for a state runs from its entry event to
//! the next event (or the close). Because consecutive events share
//! their boundary instant, the depth-0 spans **tile** the service
//! window exactly in integer microseconds — the sum of span durations
//! equals `closed - opened` with no float error, no gaps, and no
//! overlaps. That identity is what lets E1 prove its end-to-end windows
//! decompose into attributed phases.
//!
//! A `hands-on` interval carries structure: the booked travel time and
//! the planned robot op phases (from `robotics::ops`). The trace
//! splits it into a depth-0 `travel` span plus a depth-0 `hands-on`
//! span whose depth-1 children are the op phases (clipped to the
//! interval) and a residue span (`await-report`, `stalled`,
//! `manual-work`, …) covering whatever the phases don't. Children tile
//! their parent by the same construction.
//!
//! The detect latency (fault manifestation → alert/ticket) happens
//! *before* the service window starts, so it is carried as a separate
//! pre-window attribute rather than a window span.

use std::collections::BTreeMap;

use dcmaint_des::{SimDuration, SimTime};

/// Detail attached to a state-entry event.
#[derive(Debug, Clone)]
enum Detail {
    /// No structure; optional note (e.g. the recovery-ladder rung).
    Plain(Option<&'static str>),
    /// A hands-on window with travel + op-phase structure.
    HandsOn {
        executor: &'static str,
        travel: SimDuration,
        phases: Vec<(&'static str, SimDuration)>,
        residue: &'static str,
    },
}

dcmaint_ckpt::persist_enum!(Detail: "trace-detail" {
    0 => Plain(note),
    1 => HandsOn { executor, travel, phases, residue },
});

/// One state-entry event.
#[derive(Debug, Clone)]
struct TraceEvent {
    at: SimTime,
    state: &'static str,
    detail: Detail,
}

dcmaint_ckpt::persist!(TraceEvent { at, state, detail });

/// One span of an incident trace. Depth-0 spans tile the service
/// window; depth-1 spans tile their parent `hands-on` span.
#[derive(Debug, Clone)]
pub struct Span {
    /// 0 = window-tiling state span, 1 = child of `hands-on`.
    pub depth: usize,
    /// Span kind: a state label, `travel`, an op-phase label, or a
    /// residue label.
    pub kind: &'static str,
    /// Start instant (inclusive).
    pub start: SimTime,
    /// End instant (exclusive).
    pub end: SimTime,
    /// Optional annotation (executor, ladder rung).
    pub note: Option<&'static str>,
}

impl Span {
    /// Span length.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// The full observable history of one incident (one ticket).
#[derive(Debug, Clone)]
pub struct IncidentTrace {
    /// Ticket id.
    pub ticket: u64,
    /// Target link index.
    pub link: usize,
    /// Trigger label (`down`, `flap`, `gray`, `proactive`, `predictive`).
    pub trigger: &'static str,
    /// Priority label.
    pub priority: &'static str,
    /// Ground truth: when the underlying fault manifested, if the
    /// ticket targets a live incident. Drives the pre-window detect
    /// latency.
    pub fault_at: Option<SimTime>,
    /// Ticket creation (service window start).
    pub opened: SimTime,
    /// Ticket close (service window end); `None` while open.
    pub closed: Option<SimTime>,
    /// Closed as spurious (self-healed / false positive).
    pub spurious: bool,
    events: Vec<TraceEvent>,
}

dcmaint_ckpt::persist!(IncidentTrace {
    ticket,
    link,
    trigger,
    priority,
    fault_at,
    opened,
    closed,
    spurious,
    events,
});

impl IncidentTrace {
    /// Whether the trigger was reactive (service-impacting).
    pub fn reactive(&self) -> bool {
        matches!(self.trigger, "down" | "flap" | "gray")
    }

    /// Service window (creation → close).
    pub fn window(&self) -> Option<SimDuration> {
        self.closed.map(|c| c.since(self.opened))
    }

    /// Detect latency: fault manifestation → ticket creation. Happens
    /// before the window; reported separately from the window spans.
    pub fn detect_latency(&self) -> Option<SimDuration> {
        self.fault_at.map(|f| self.opened.since(f))
    }

    /// Derive the span tree. Depth-0 spans tile `opened..closed`
    /// exactly; for a still-open trace they tile `opened..last event`.
    pub fn spans(&self) -> Vec<Span> {
        let mut out = Vec::new();
        let end_of = |i: usize| -> SimTime {
            self.events
                .get(i + 1)
                .map(|e| e.at)
                .or(self.closed)
                .unwrap_or(self.events[i].at)
        };
        for (i, e) in self.events.iter().enumerate() {
            let end = end_of(i);
            match &e.detail {
                Detail::Plain(note) => out.push(Span {
                    depth: 0,
                    kind: e.state,
                    start: e.at,
                    end,
                    note: *note,
                }),
                Detail::HandsOn {
                    executor,
                    travel,
                    phases,
                    residue,
                } => {
                    let travel_end = (e.at + *travel).min(end);
                    if travel_end > e.at {
                        out.push(Span {
                            depth: 0,
                            kind: "travel",
                            start: e.at,
                            end: travel_end,
                            note: Some(executor),
                        });
                    }
                    out.push(Span {
                        depth: 0,
                        kind: "hands-on",
                        start: travel_end,
                        end,
                        note: Some(executor),
                    });
                    let mut cursor = travel_end;
                    for (phase, dur) in phases {
                        if cursor >= end {
                            break;
                        }
                        let phase_end = (cursor + *dur).min(end);
                        out.push(Span {
                            depth: 1,
                            kind: phase,
                            start: cursor,
                            end: phase_end,
                            note: None,
                        });
                        cursor = phase_end;
                    }
                    if cursor < end {
                        out.push(Span {
                            depth: 1,
                            kind: residue,
                            start: cursor,
                            end,
                            note: None,
                        });
                    }
                }
            }
        }
        out
    }

    /// Sum of depth-0 span durations, in exact integer microseconds.
    pub fn depth0_sum(&self) -> SimDuration {
        self.spans()
            .iter()
            .filter(|s| s.depth == 0)
            .fold(SimDuration::ZERO, |acc, s| acc + s.duration())
    }

    /// The tiling invariant: for a closed trace, depth-0 spans sum to
    /// the service window *exactly* (same `SimTime` ticks).
    pub fn tiles_exactly(&self) -> bool {
        match self.window() {
            Some(w) => self.depth0_sum() == w,
            None => true,
        }
    }

    /// Render the trace as an indented tree, one span per line.
    pub fn render_tree(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let window = match self.window() {
            Some(w) => format!("{w}"),
            None => "open".to_string(),
        };
        let _ = writeln!(
            s,
            "ticket {} link {} trigger={} priority={} window={}{}",
            self.ticket,
            self.link,
            self.trigger,
            self.priority,
            window,
            if self.spurious { " (spurious)" } else { "" },
        );
        if let Some(d) = self.detect_latency() {
            let _ = writeln!(s, "  detect {d} (fault→alert, pre-window)");
        }
        for sp in self.spans() {
            if sp.duration().is_zero() && sp.depth == 1 {
                continue;
            }
            let indent = if sp.depth == 0 { "  " } else { "      " };
            let note = sp.note.map(|n| format!(" [{n}]")).unwrap_or_default();
            let _ = writeln!(s, "{indent}{:<12} {}{}", sp.kind, sp.duration(), note);
        }
        s
    }
}

/// All incident traces of a run, keyed by ticket id.
#[derive(Debug, Clone, Default)]
pub struct TraceStore {
    enabled: bool,
    traces: Vec<IncidentTrace>,
    by_ticket: BTreeMap<u64, usize>,
}

dcmaint_ckpt::persist!(TraceStore { enabled, traces }
    skip { by_ticket: "derived from the traces; rebuilt on load" }
    then reindex);

impl TraceStore {
    /// A store that records.
    pub fn enabled() -> Self {
        TraceStore {
            enabled: true,
            ..TraceStore::default()
        }
    }

    /// A store that ignores everything.
    pub fn disabled() -> Self {
        TraceStore::default()
    }

    /// Whether this store records.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Begin a trace when a ticket opens. The initial state is
    /// `triage`, entered at `opened`.
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        &mut self,
        ticket: u64,
        link: usize,
        trigger: &'static str,
        priority: &'static str,
        fault_at: Option<SimTime>,
        opened: SimTime,
    ) {
        if !self.enabled {
            return;
        }
        let idx = self.traces.len();
        self.traces.push(IncidentTrace {
            ticket,
            link,
            trigger,
            priority,
            fault_at,
            opened,
            closed: None,
            spurious: false,
            events: vec![TraceEvent {
                at: opened,
                state: "triage",
                detail: Detail::Plain(None),
            }],
        });
        self.by_ticket.insert(ticket, idx);
    }

    fn push_event(&mut self, ticket: u64, ev: TraceEvent) {
        if !self.enabled {
            return;
        }
        if let Some(&i) = self.by_ticket.get(&ticket) {
            let t = &mut self.traces[i];
            debug_assert!(t.events.last().is_none_or(|last| ev.at >= last.at));
            t.events.push(ev);
        }
    }

    /// The ticket enters a new state at `at`.
    pub fn event(&mut self, ticket: u64, at: SimTime, state: &'static str) {
        self.push_event(
            ticket,
            TraceEvent {
                at,
                state,
                detail: Detail::Plain(None),
            },
        );
    }

    /// Like [`TraceStore::event`], with an annotation (ladder rung,
    /// escalation reason).
    pub fn event_note(
        &mut self,
        ticket: u64,
        at: SimTime,
        state: &'static str,
        note: &'static str,
    ) {
        self.push_event(
            ticket,
            TraceEvent {
                at,
                state,
                detail: Detail::Plain(Some(note)),
            },
        );
    }

    /// Hands-on work begins at `at`: travel + op phases + residue label
    /// describing the tail of the interval the phases don't cover.
    #[allow(clippy::too_many_arguments)]
    pub fn hands_on(
        &mut self,
        ticket: u64,
        at: SimTime,
        executor: &'static str,
        travel: SimDuration,
        phases: Vec<(&'static str, SimDuration)>,
        residue: &'static str,
    ) {
        self.push_event(
            ticket,
            TraceEvent {
                at,
                state: "hands-on",
                detail: Detail::HandsOn {
                    executor,
                    travel,
                    phases,
                    residue,
                },
            },
        );
    }

    /// Close the trace at `at`.
    pub fn close(&mut self, ticket: u64, at: SimTime, spurious: bool) {
        if !self.enabled {
            return;
        }
        if let Some(&i) = self.by_ticket.get(&ticket) {
            self.traces[i].closed = Some(at);
            self.traces[i].spurious = spurious;
        }
    }

    /// Look up a trace by ticket id.
    pub fn get(&self, ticket: u64) -> Option<&IncidentTrace> {
        self.by_ticket.get(&ticket).map(|&i| &self.traces[i])
    }

    /// All traces, in ticket-creation order.
    pub fn all(&self) -> &[IncidentTrace] {
        &self.traces
    }

    /// Consume the store, yielding the traces.
    pub fn into_traces(self) -> Vec<IncidentTrace> {
        self.traces
    }

    /// Rebuild the ticket → trace index after a load.
    fn reindex(&mut self) {
        self.by_ticket = self
            .traces
            .iter()
            .enumerate()
            .map(|(i, t)| (t.ticket, i))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn disabled_store_records_nothing() {
        let mut t = TraceStore::disabled();
        t.open(1, 0, "down", "P0", None, at(0));
        t.event(1, at(5), "queued");
        t.close(1, at(9), false);
        assert!(t.all().is_empty());
        assert!(t.get(1).is_none());
    }

    #[test]
    fn spans_tile_the_window_exactly() {
        let mut t = TraceStore::enabled();
        t.open(7, 3, "down", "P0", Some(at(90)), at(100));
        t.event(7, at(100), "queued"); // zero-length triage
        t.hands_on(
            7,
            at(160),
            "robot",
            secs(30),
            vec![
                ("navigate", secs(20)),
                ("grip", secs(5)),
                ("extract", secs(10)),
            ],
            "idle",
        );
        t.event(7, at(225), "verify");
        t.close(7, at(345), false);
        let tr = t.get(7).unwrap();
        assert_eq!(tr.window(), Some(secs(245)));
        assert_eq!(tr.detect_latency(), Some(secs(10)));
        assert!(tr.tiles_exactly(), "depth-0 spans must sum to the window");
        // Depth-0 kinds in order: triage, queued, travel, hands-on, verify.
        let kinds: Vec<_> = tr
            .spans()
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.kind)
            .collect();
        assert_eq!(
            kinds,
            vec!["triage", "queued", "travel", "hands-on", "verify"]
        );
        // Children tile the hands-on parent: 20 + 5 + 10 = 35 s of
        // phases inside the 35 s post-travel interval (160+30=190 to 225).
        let children: SimDuration = tr
            .spans()
            .iter()
            .filter(|s| s.depth == 1)
            .fold(SimDuration::ZERO, |a, s| a + s.duration());
        assert_eq!(children, secs(35));
    }

    #[test]
    fn truncated_hands_on_clips_phases_and_labels_residue() {
        // Watchdog killed the op 12 s after start: travel eats 10 s,
        // the first phase is clipped to 2 s, later phases vanish, no
        // residue (cursor reached the end).
        let mut t = TraceStore::enabled();
        t.open(1, 0, "flap", "P1", None, at(0));
        t.hands_on(
            1,
            at(10),
            "robot",
            secs(10),
            vec![("navigate", secs(20)), ("grip", secs(5))],
            "stalled",
        );
        t.event_note(1, at(22), "backoff", "retry-same");
        t.close(1, at(30), false);
        let tr = t.get(1).unwrap();
        assert!(tr.tiles_exactly());
        let spans = tr.spans();
        let navigate = spans.iter().find(|s| s.kind == "navigate").unwrap();
        assert_eq!(navigate.duration(), secs(2));
        assert!(!spans.iter().any(|s| s.kind == "grip"));
        assert!(!spans.iter().any(|s| s.kind == "stalled"));
        let backoff = spans.iter().find(|s| s.kind == "backoff").unwrap();
        assert_eq!(backoff.note, Some("retry-same"));
    }

    #[test]
    fn stalled_wait_appears_as_residue() {
        // Phases take 10 s but the interval runs 60 s (report lost;
        // watchdog recovers late): residue span covers the 40 s wait.
        let mut t = TraceStore::enabled();
        t.open(2, 1, "gray", "P2", None, at(0));
        t.hands_on(
            2,
            at(0),
            "robot",
            secs(10),
            vec![("clean-dry", secs(10))],
            "await-report",
        );
        t.event(2, at(60), "verify");
        t.close(2, at(90), false);
        let tr = t.get(2).unwrap();
        assert!(tr.tiles_exactly());
        let residue = tr
            .spans()
            .into_iter()
            .find(|s| s.kind == "await-report")
            .unwrap();
        assert_eq!(residue.duration(), secs(40));
        assert_eq!(residue.depth, 1);
    }

    #[test]
    fn open_trace_tiles_to_last_event() {
        let mut t = TraceStore::enabled();
        t.open(3, 2, "down", "P0", None, at(0));
        t.event(3, at(50), "queued");
        let tr = t.get(3).unwrap();
        assert_eq!(tr.window(), None);
        assert!(tr.tiles_exactly());
        assert_eq!(tr.depth0_sum(), secs(50));
    }

    #[test]
    fn render_tree_mentions_every_depth0_kind() {
        let mut t = TraceStore::enabled();
        t.open(4, 9, "down", "P0", Some(at(0)), at(12));
        t.event(4, at(20), "queued");
        t.hands_on(
            4,
            at(40),
            "human",
            SimDuration::ZERO,
            Vec::new(),
            "manual-work",
        );
        t.event(4, at(100), "verify");
        t.close(4, at(160), false);
        let tree = t.get(4).unwrap().render_tree();
        for kind in ["triage", "queued", "hands-on", "verify", "detect"] {
            assert!(tree.contains(kind), "missing {kind} in:\n{tree}");
        }
    }
}
