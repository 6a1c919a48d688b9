//! # dcmaint-twin — digital-twin forking for model-predictive repair planning
//!
//! The paper's closing provocation is a maintenance plane that does not
//! merely *react* to its own state but *rehearses* its options: before
//! committing a repair decision, fork the whole simulated datacenter
//! into short-lived digital twins, play each candidate forward a few
//! virtual days, and commit whichever branch the scored futures prefer.
//! This crate is the decision half of that loop — candidate enumeration,
//! branch-score bookkeeping, and the deterministic argmax — kept free of
//! any engine dependency so the scenario crate can drive it without a
//! cycle.
//!
//! The execution half (in-memory engine forks on the sweep pool) lives
//! in `dcmaint-scenarios`; see DESIGN.md §3.14 for the fork-tree
//! architecture and the determinism argument. The short version of that
//! argument:
//!
//! * The parent consumes **zero RNG draws** while planning — candidates
//!   are enumerated from inspectable state only.
//! * Branch RNG is fully derived: the foresight sample replays the
//!   parent's own tape (deterministic state), and hedge samples
//!   re-derive their streams under `root(seed)/twin/<decision-id>`, so
//!   all candidates of one sample face *common random numbers* (the
//!   classic variance-reduction trick) and two same-seed runs plan
//!   identically.
//! * Branch outcomes merge in candidate order via the sweep pool's
//!   canonical merge, so `--jobs 1` ≡ `--jobs N` byte-for-byte.
//! * Ties (and an empty/failed branch set) fall back to candidate 0 —
//!   the pure degradation-ladder branch — so twin guidance can only
//!   *deviate* from the ladder when a rehearsed future strictly wins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dcmaint_des::{SimDuration, SimTime};
use dcmaint_faults::RepairAction;

/// Controller policy for repair decisions: the classic degradation
/// ladder, or the ladder wrapped in model-predictive twin planning.
#[derive(Debug, Clone)]
pub enum TwinPolicy {
    /// Plain degradation-ladder decisions (the pre-twin engine).
    Ladder,
    /// Fork-and-score every repair decision point.
    TwinGuided(TwinConfig),
}

impl TwinPolicy {
    /// Whether twin planning is active.
    pub fn is_twin(&self) -> bool {
        matches!(self, TwinPolicy::TwinGuided(_))
    }
}

/// Tuning for twin-guided planning.
#[derive(Debug, Clone)]
pub struct TwinConfig {
    /// Virtual lookahead horizon per branch.
    pub horizon: SimDuration,
    /// Worker threads for branch fan-out (results are merged in
    /// canonical candidate order, so this never affects output).
    pub jobs: usize,
    /// Maximum branches per decision (candidate list is truncated).
    pub max_branches: usize,
    /// Sampled futures per candidate. Sample 0 is always the *foresight*
    /// world — the branch replays the parent's RNG tape, rehearsing the
    /// future this run will actually live (perfect-model MPC). Samples
    /// beyond the first reseed under `twin/<decision>/<sample>` and are
    /// averaged in: alternative futures that hedge the plan against
    /// tape-specific luck, at the price of diluting foresight. All
    /// candidates share each sample's RNG namespace (common random
    /// numbers), so scores differ through the decision, not the draw.
    pub samples: usize,
    /// Also rehearse handing the action to a human when the ladder
    /// would have booked a robot.
    pub explore_executors: bool,
    /// Also rehearse deferring routine (P2) work to the next diurnal
    /// utilization trough.
    pub explore_defer: bool,
    /// Minimum score advantage over the ladder branch before a deviation
    /// is committed. Branch scores are noisy samples of one simulated
    /// future; the argmax of many noisy branches is biased upward
    /// (winner's curse), so committing every nominal winner trades away
    /// realized availability. Deviations below this margin fall back to
    /// the ladder.
    pub commit_margin: f64,
    /// Branch scoring weights.
    pub weights: ScoreWeights,
}

impl Default for TwinConfig {
    fn default() -> Self {
        TwinConfig {
            horizon: SimDuration::from_days(2),
            jobs: 1,
            max_branches: 8,
            samples: 1,
            explore_executors: true,
            explore_defer: true,
            commit_margin: 1e-4,
            weights: ScoreWeights::default(),
        }
    }
}

/// Weights for [`score`]. Availability dominates by construction: the
/// cost and open-ticket terms are tiebreakers scaled far below one
/// availability ULP-of-interest, matching the acceptance criterion
/// "twin ≥ ladder on availability".
#[derive(Debug, Clone)]
pub struct ScoreWeights {
    /// Reward per unit predicted availability.
    pub availability: f64,
    /// Penalty per predicted cost dollar (tiny: tiebreak only).
    pub cost: f64,
    /// Penalty per ticket still open at the branch horizon.
    pub open_tickets: f64,
}

impl Default for ScoreWeights {
    fn default() -> Self {
        ScoreWeights {
            availability: 1.0,
            cost: 1e-9,
            open_tickets: 1e-6,
        }
    }
}

/// One candidate decision to rehearse. Candidate 0 is always
/// [`Candidate::ladder`] — the do-what-the-ladder-does branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Override the controller's action choice (`None`: let the ladder
    /// decide inside the branch).
    pub action: Option<RepairAction>,
    /// Force human execution regardless of the automation level.
    pub human: bool,
    /// Defer dispatch to this absolute sim time (act-now when `None`).
    pub defer_until: Option<SimTime>,
}

impl Candidate {
    /// The pure degradation-ladder branch (no overrides).
    pub fn ladder() -> Self {
        Candidate {
            action: None,
            human: false,
            defer_until: None,
        }
    }
}

/// The committed form of a winning candidate, consumed by the engine's
/// dispatch path. Identical content to [`Candidate`]; a separate type so
/// the engine's per-ticket map documents "this was committed", not
/// "this is being explored".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwinPlan {
    /// Action override (`None`: ladder decides).
    pub action: Option<RepairAction>,
    /// Force human execution.
    pub human: bool,
    /// Reschedule the dispatch to this time before acting.
    pub defer_until: Option<SimTime>,
}

dcmaint_ckpt::persist!(TwinPlan {
    action,
    human,
    defer_until,
});

impl From<&Candidate> for TwinPlan {
    fn from(c: &Candidate) -> Self {
        TwinPlan {
            action: c.action,
            human: c.human,
            defer_until: c.defer_until,
        }
    }
}

/// What one simulated branch predicted at its horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchOutcome {
    /// Predicted fleet availability (cumulative, shared prefix included
    /// — branches differ only in their post-fork suffix, so cumulative
    /// comparisons rank identically to suffix-only ones).
    pub availability: f64,
    /// Predicted total operating cost at the branch horizon.
    pub cost: f64,
    /// Tickets still open (board + in-flight) at the branch horizon
    /// (fractional after cross-sample averaging).
    pub open_tickets: f64,
    /// Incidents observed by the branch horizon (risk proxy).
    pub incidents: u64,
}

/// Scalar score of one branch outcome (higher is better).
pub fn score(o: &BranchOutcome, w: &ScoreWeights) -> f64 {
    w.availability * o.availability - w.cost * o.cost - w.open_tickets * o.open_tickets
}

/// Mean outcome over one candidate's sampled futures. Returns `None`
/// when any sample failed: a candidate whose rehearsal crashed in *any*
/// world must not win the argmax.
pub fn mean(samples: &[Option<BranchOutcome>]) -> Option<BranchOutcome> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len() as f64;
    let mut acc = BranchOutcome {
        availability: 0.0,
        cost: 0.0,
        open_tickets: 0.0,
        incidents: 0,
    };
    for s in samples {
        let s = s.as_ref()?;
        acc.availability += s.availability;
        acc.cost += s.cost;
        acc.open_tickets += s.open_tickets;
        acc.incidents += s.incidents;
    }
    Some(BranchOutcome {
        availability: acc.availability / n,
        cost: acc.cost / n,
        open_tickets: acc.open_tickets / n,
        incidents: (acc.incidents as f64 / n).round() as u64,
    })
}

/// Argmax over branch outcomes, biased toward candidate 0 (the ladder
/// branch): a deviation wins only if its score beats the ladder's by
/// more than `margin`, and exact ties among deviations break toward the
/// lowest index. Failed branches are `None` slots and never win. NaN
/// scores lose to everything (a poisoned branch must not hijack the
/// real engine).
pub fn choose(outcomes: &[Option<BranchOutcome>], w: &ScoreWeights, margin: f64) -> usize {
    let baseline = outcomes
        .first()
        .and_then(|o| o.as_ref())
        .map(|o| score(o, w))
        .filter(|s| !s.is_nan())
        .unwrap_or(f64::NEG_INFINITY);
    let mut best = 0usize;
    let mut best_score = baseline;
    for (i, o) in outcomes.iter().enumerate().skip(1) {
        let Some(o) = o else { continue };
        let s = score(o, w);
        if s.is_nan() {
            continue;
        }
        if s > best_score && s > baseline + margin {
            best_score = s;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(avail: f64, cost: f64, open: f64) -> Option<BranchOutcome> {
        Some(BranchOutcome {
            availability: avail,
            cost,
            open_tickets: open,
            incidents: 0,
        })
    }

    #[test]
    fn availability_dominates_cost_and_open_tickets() {
        let w = ScoreWeights::default();
        let outs = vec![
            outcome(0.99, 0.0, 0.0),
            outcome(0.991, 100_000.0, 50.0), // higher availability wins anyway
        ];
        assert_eq!(choose(&outs, &w, 0.0), 1);
    }

    #[test]
    fn cost_breaks_availability_ties() {
        let w = ScoreWeights::default();
        let outs = vec![outcome(0.99, 500.0, 0.0), outcome(0.99, 100.0, 0.0)];
        assert_eq!(choose(&outs, &w, 0.0), 1);
    }

    #[test]
    fn exact_ties_fall_back_to_the_ladder_branch() {
        let w = ScoreWeights::default();
        let outs = vec![outcome(0.99, 100.0, 1.0), outcome(0.99, 100.0, 1.0)];
        assert_eq!(choose(&outs, &w, 0.0), 0, "candidate 0 wins exact ties");
    }

    #[test]
    fn failed_and_nan_branches_never_win() {
        let w = ScoreWeights::default();
        let outs = vec![
            outcome(0.5, 0.0, 0.0),
            None,
            outcome(f64::NAN, 0.0, 0.0),
            outcome(0.6, 0.0, 0.0),
        ];
        assert_eq!(choose(&outs, &w, 0.0), 3);
        // An all-failed set still resolves to the ladder branch.
        assert_eq!(choose(&[None, None], &w, 0.0), 0);
    }

    #[test]
    fn commit_margin_filters_marginal_deviations() {
        let w = ScoreWeights::default();
        let outs = vec![outcome(0.990, 0.0, 0.0), outcome(0.9905, 0.0, 0.0)];
        assert_eq!(choose(&outs, &w, 0.0), 1, "no margin: deviation wins");
        assert_eq!(
            choose(&outs, &w, 1e-3),
            0,
            "advantage below the margin falls back to the ladder"
        );
        assert_eq!(choose(&outs, &w, 4e-4), 1, "advantage above margin wins");
    }

    #[test]
    fn default_config_is_bounded() {
        let c = TwinConfig::default();
        assert!(c.max_branches >= 2);
        assert!(c.samples >= 1);
        assert!(c.commit_margin >= 0.0);
        assert!(c.horizon > SimDuration::ZERO);
        assert!(TwinPolicy::TwinGuided(c).is_twin());
        assert!(!TwinPolicy::Ladder.is_twin());
    }

    #[test]
    fn plan_mirrors_candidate() {
        let c = Candidate {
            action: Some(RepairAction::CleanEndFace),
            human: true,
            defer_until: Some(SimTime::ZERO + SimDuration::from_hours(7)),
        };
        let p = TwinPlan::from(&c);
        assert_eq!(p.action, c.action);
        assert_eq!(p.human, c.human);
        assert_eq!(p.defer_until, c.defer_until);
        let l = Candidate::ladder();
        assert_eq!(l.action, None);
        assert!(!l.human);
        assert_eq!(l.defer_until, None);
    }
}
