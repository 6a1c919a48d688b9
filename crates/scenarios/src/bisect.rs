//! Divergence bisector: localize where two runs stop agreeing.
//!
//! Two engines (possibly under different configurations — a suspect
//! patch vs a baseline, or a `nondet_demo` run vs a clean one) advance
//! checkpoint interval by checkpoint interval. At each boundary both
//! state hashes ([`Engine::state_hash`]) are compared. The first
//! mismatching boundary brackets the bug to one interval; in-memory
//! forks ([`Engine::fork`]) kept at the last-agreeing boundary are then
//! stepped event-by-event in lockstep until the hashes split, naming
//! the first divergent event.
//!
//! The per-event replay re-executes the interval, so genuinely
//! *nondeterministic* code (the thing the bisector hunts) may diverge at
//! a different event than it did during the checkpoint pass — or, in
//! pathological cases, not at all. The report distinguishes "interval
//! found, event pinned" from "interval found, replay did not reproduce".

use dcmaint_ckpt::{CkptError, StateHash};
use dcmaint_des::{SimDuration, SimTime};

use crate::config::ScenarioConfig;
use crate::engine::Engine;

/// State hashes of both runs at one checkpoint boundary.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointPair {
    /// Boundary time (interval multiple, clamped to the duration).
    pub at: SimTime,
    /// Run A's state hash.
    pub hash_a: StateHash,
    /// Run B's state hash.
    pub hash_b: StateHash,
}

impl CheckpointPair {
    /// Whether both runs agree at this boundary.
    pub fn agree(&self) -> bool {
        self.hash_a == self.hash_b
    }
}

/// The first divergent event, pinned by lockstep replay.
#[derive(Debug, Clone, Copy)]
pub struct DivergentEvent {
    /// Events stepped past the last agreeing checkpoint before the
    /// hashes split (1 = the very first event differed).
    pub index: u64,
    /// Timestamp and kind of run A's event at the split, if A still had
    /// events.
    pub event_a: Option<(SimTime, &'static str)>,
    /// Timestamp and kind of run B's event at the split.
    pub event_b: Option<(SimTime, &'static str)>,
}

/// Outcome of a bisection.
#[derive(Debug, Clone)]
pub struct BisectReport {
    /// Hash pairs at every boundary reached (including the initial
    /// state at time zero), in order.
    pub checkpoints: Vec<CheckpointPair>,
    /// Last boundary where both runs agreed, if any.
    pub last_agreeing: Option<SimTime>,
    /// First boundary where the hashes differed; `None` means the runs
    /// were identical at every boundary.
    pub first_divergent: Option<SimTime>,
    /// The divergent event pinned by replay. `None` when the runs never
    /// diverged — or when the replay failed to reproduce the divergence
    /// (nondeterminism that didn't recur).
    pub event: Option<DivergentEvent>,
}

impl BisectReport {
    /// Whether any divergence was observed.
    pub fn diverged(&self) -> bool {
        self.first_divergent.is_some()
    }

    /// Human-readable summary lines for CLI output.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for cp in &self.checkpoints {
            out.push(format!(
                "checkpoint day {:>7.2}  A={}  B={}  {}",
                cp.at.as_micros() as f64 / 86_400e6,
                cp.hash_a,
                cp.hash_b,
                if cp.agree() { "ok" } else { "DIVERGED" },
            ));
        }
        match self.first_divergent {
            None => out.push("runs agree at every checkpoint".to_string()),
            Some(t) => {
                let from = match self.last_agreeing {
                    Some(a) => format!("day {:.2}", a.as_micros() as f64 / 86_400e6),
                    None => "the initial state".to_string(),
                };
                out.push(format!(
                    "first divergent checkpoint: day {:.2} (bracketed from {from})",
                    t.as_micros() as f64 / 86_400e6,
                ));
                match &self.event {
                    Some(ev) => {
                        let show = |e: Option<(SimTime, &'static str)>| match e {
                            Some((at, kind)) => {
                                format!("{kind} @ day {:.4}", at.as_micros() as f64 / 86_400e6)
                            }
                            None => "<queue drained>".to_string(),
                        };
                        out.push(format!(
                            "first divergent event: #{} after the bracket — A: {}, B: {}",
                            ev.index,
                            show(ev.event_a),
                            show(ev.event_b),
                        ));
                    }
                    None => out.push(
                        "replay did not reproduce the divergence (nondeterminism did not recur)"
                            .to_string(),
                    ),
                }
            }
        }
        out
    }
}

/// Bisect two configurations: advance both runs interval-by-interval,
/// find the first checkpoint boundary where their state hashes differ,
/// then replay that interval event-by-event from in-memory forks kept
/// at the last-agreeing boundary to pin the first divergent event.
///
/// The kept boundary state is an [`Engine::fork`] rather than a full
/// [`Engine::snapshot`]: the same decode without the envelope and its
/// hashes. Each RNG stream loads its saved generator state, so a fork
/// late in a long run costs no more than an early one.
pub fn bisect(
    cfg_a: ScenarioConfig,
    cfg_b: ScenarioConfig,
    interval: SimDuration,
) -> Result<BisectReport, CkptError> {
    let duration = cfg_a.duration.min(cfg_b.duration);
    let mut a = Engine::new(cfg_a.clone());
    let mut b = Engine::new(cfg_b.clone());

    let mut checkpoints = Vec::new();
    let mut last_agreeing: Option<SimTime> = None;
    let mut keep_a: Engine = a.fork();
    let mut keep_b: Engine = b.fork();

    let mut t = SimTime::ZERO;
    loop {
        let cp = CheckpointPair {
            at: t,
            hash_a: a.state_hash(),
            hash_b: b.state_hash(),
        };
        checkpoints.push(cp);
        if !cp.agree() {
            let event = replay_interval(keep_a, keep_b, t);
            return Ok(BisectReport {
                checkpoints,
                last_agreeing,
                first_divergent: Some(t),
                event,
            });
        }
        last_agreeing = Some(t);
        keep_a = a.fork();
        keep_b = b.fork();
        if t >= SimTime::ZERO + duration {
            return Ok(BisectReport {
                checkpoints,
                last_agreeing,
                first_divergent: None,
                event: None,
            });
        }
        t = (t + interval).min(SimTime::ZERO + duration);
        a.run_until(t);
        b.run_until(t);
    }
}

/// Step both forks (kept at the last agreeing boundary) in lockstep
/// until their hashes split, at most up to `until`'s events.
fn replay_interval(mut a: Engine, mut b: Engine, until: SimTime) -> Option<DivergentEvent> {
    let mut index = 0u64;
    loop {
        let ea = a.step_event();
        let eb = b.step_event();
        index += 1;
        if a.state_hash() != b.state_hash() {
            return Some(DivergentEvent {
                index,
                event_a: ea,
                event_b: eb,
            });
        }
        let past = |e: &Option<(SimTime, &'static str)>| match e {
            Some((at, _)) => *at > until,
            None => true,
        };
        if past(&ea) && past(&eb) {
            // Replayed beyond the bracketing boundary without the hashes
            // splitting: the divergence did not reproduce.
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopologySpec;
    use maintctl::AutomationLevel;

    fn small(seed: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::at_level(seed, AutomationLevel::L3);
        cfg.topology = TopologySpec::LeafSpine {
            spines: 2,
            leaves: 4,
            servers_per_leaf: 2,
        };
        cfg.duration = SimDuration::from_days(12);
        cfg.poll_period = SimDuration::from_secs(120);
        cfg.faults.mtbi_per_link = SimDuration::from_days(15);
        cfg
    }

    #[test]
    fn identical_configs_never_diverge() {
        let r = bisect(small(4), small(4), SimDuration::from_days(3)).unwrap();
        assert!(!r.diverged());
        assert_eq!(r.checkpoints.len(), 5, "0,3,6,9,12 days");
        assert!(r.checkpoints.iter().all(|c| c.agree()));
    }

    #[test]
    fn nondet_demo_divergence_is_localized() {
        let clean = small(4);
        let mut dirty = small(4);
        dirty.nondet_demo = true;
        let r = bisect(clean, dirty, SimDuration::from_days(2)).unwrap();
        assert!(r.diverged(), "nondet demo must diverge");
        let first = r.first_divergent.unwrap();
        // The runs agree at time zero (nondet only kicks in on fault
        // events) and split at some later boundary.
        assert!(r.checkpoints[0].agree());
        assert!(first > SimTime::ZERO);
        assert_eq!(r.last_agreeing.unwrap() + SimDuration::from_days(2), first);
        // The replay pins a first divergent event, and the injected bug
        // lives in fault targeting.
        let ev = r.event.expect("replay should reproduce the divergence");
        assert!(ev.index >= 1);
        let kind = ev.event_a.expect("run A still had events").1;
        assert_eq!(kind, "fault", "injected nondeterminism is in on_fault");
        // Report renders.
        assert!(r.lines().iter().any(|l| l.contains("DIVERGED")));
    }
}
